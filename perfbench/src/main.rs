//! zMesh end-to-end benchmark.
//!
//! ```text
//! perfbench --workload pack|cold-read|serve --seed N --seconds S --trace 0|1
//!           [--scale tiny|standard]
//! ```
//!
//! Builds its inputs from the seed, runs the workload in-process against
//! the library crates' public API for `S` seconds, checks every output,
//! and prints one JSON line last: `{"correct","attempted","failed",
//! "metrics"}`. With `--trace 0` the metrics are the end-to-end ones;
//! with `--trace 1` a traced run reports per-layer metrics instead and
//! writes its spans to `.perfbench/trace-<workload>-<seed>.json`. See
//! `README.md` in this directory for what each metric means.

mod cold_read;
mod data;
mod host;
mod pack;
mod probe;
mod report;
mod serve;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use zmesh_amr::datasets::{Dataset, Scale};

use report::{grouped_percentile, median, Metric, OpRecord};
use trace::Tracer;

/// Share of `--seconds` each of the traced run's two loops gets: one
/// untraced (the overhead baseline), one traced.
pub const TRACE_SHARE: f64 = 0.4;
/// Set-up repetitions; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Parsed command line.
pub struct Cfg {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub scale: Scale,
    /// Scratch directory for store files, removed at exit.
    pub work: PathBuf,
}

/// What a workload run reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// End-to-end metrics (untraced runs only).
    pub e2e: Vec<Metric>,
    /// One JSON object describing the inputs and ops.
    pub descriptor: String,
}

/// Runs `make` [`SETUP_REPS`] times, tearing down all but the last
/// result, and returns it with the median set-up seconds, each adjusted
/// by the host probes around it.
pub fn repeat_setup<T, E: std::fmt::Display>(
    mut make: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<(), E>,
) -> Result<(T, f64), String> {
    let mut secs = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(prev) = last.take() {
            teardown(prev).map_err(|e| e.to_string())?;
        }
        let t0 = Instant::now();
        let (made, probe) = host::bracket(&mut make);
        let secs_raw = t0.elapsed().as_secs_f64();
        last = Some(made?);
        secs.push(host::adjust(secs_raw, probe));
    }
    Ok((last.expect("at least one set-up"), median(&secs)))
}

/// How a workload's op rate and throughput are measured.
#[derive(Clone, Copy)]
pub enum Rate {
    /// Per second of time spent inside the counted ops (checks excluded).
    Busy,
    /// Per second of wall time, scaled by the ops' mean host adjustment,
    /// for a closed loop of concurrent clients. Every timing is then taken
    /// per window of about [`WINDOW_S`] and reported as the median over
    /// windows, so a burst of load from other tenants, which also delays
    /// the scheduling of the loop's threads, moves a few windows rather
    /// than the result.
    Wall,
}

/// Window length for [`Rate::Wall`] timings.
pub const WINDOW_S: f64 = 1.0;

/// Latency p50 and tail (ms), throughput (MB/s) and op rate of `ops`.
fn timings(ops: &[OpRecord], wall_s: f64, tail: f64, rate: Rate) -> [f64; 4] {
    let latency = |p: f64| grouped_percentile(ops, p) / 1e6;
    let per_second = |count: &dyn Fn(&OpRecord) -> f64| {
        let counted = ops.iter().filter(|o| count(o) > 0.0);
        let secs = match rate {
            Rate::Busy => counted.clone().map(OpRecord::adjusted_ns).sum::<f64>() / 1e9,
            Rate::Wall => {
                let raw: f64 = ops.iter().map(|o| f64::from(o.ns)).sum();
                wall_s * ops.iter().map(OpRecord::adjusted_ns).sum::<f64>() / raw.max(1.0)
            }
        };
        counted.map(count).sum::<f64>() / secs
    };
    [
        latency(50.0),
        latency(tail),
        per_second(&|o| f64::from(o.bytes)) / 1e6,
        per_second(&|_| 1.0),
    ]
}

/// The end-to-end metrics every workload reports from its measured loop:
/// latency p50 and the tail percentile it has enough samples for (each
/// the mean over mesh groups of the group's percentile, so ops on meshes
/// of different cost do not make it jump between modes), raw MB/s of the
/// ops that move bytes, and the op rate. Every timing is adjusted to the
/// reference host speed (see [`host`]).
pub fn e2e_metrics(
    ops: &[OpRecord],
    wall_s: f64,
    tail: f64,
    rate: Rate,
    compression_ratio: f64,
    setup_s: f64,
) -> Vec<Metric> {
    let n = ops.len();
    let peak_rss_mb = zmesh_store::process_peak_rss() as f64 / (1u64 << 20) as f64;
    let [p50, tail, throughput, ops_per_s] = match rate {
        Rate::Busy => timings(ops, wall_s, tail, rate),
        Rate::Wall => {
            let windows = ((wall_s / WINDOW_S) as usize).max(1);
            let len = wall_s / windows as f64;
            let per: Vec<[f64; 4]> = (0..windows)
                .map(|k| {
                    let in_window: Vec<OpRecord> = ops
                        .iter()
                        .filter(|o| ((f64::from(o.at_s) / len) as usize).min(windows - 1) == k)
                        .copied()
                        .collect();
                    timings(&in_window, len, tail, rate)
                })
                .collect();
            std::array::from_fn(|i| median(&per.iter().map(|t| t[i]).collect::<Vec<_>>()))
        }
    };
    vec![
        Metric::new("latency_ms_p50", p50, "ms", n),
        Metric::new("latency_ms_tail", tail, "ms", n),
        Metric::new("throughput_mb_s", throughput, "MB/s", n),
        Metric::new("ops_per_s", ops_per_s, "1/s", n),
        Metric::new("compression_ratio", compression_ratio, "x", 1),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB", 1),
        Metric::new("setup_s", setup_s, "s", SETUP_REPS),
    ]
}

/// Records the traced loop's op-latency p50 relative to the untraced
/// loop's, in percent.
pub fn sample_overhead(tr: &mut Tracer, untraced_ns: &[f64], traced_ns: &[f64]) {
    let base = median(untraced_ns);
    tr.sample(
        "trace.overhead_pct",
        (median(traced_ns) - base) / base.max(1.0) * 100.0,
    );
}

/// Cells, raw bytes and chunks per field of each mesh, as JSON objects.
pub fn mesh_descriptors(meshes: &[&Dataset], chunk_bytes: u32) -> String {
    let values_per_chunk = (chunk_bytes as usize / 8).max(1);
    meshes
        .iter()
        .map(|ds| {
            let cells = ds.tree.cell_count();
            format!(
                "{{\"name\":{},\"dim\":{},\"cells\":{cells},\"fields\":{},\"raw_bytes\":{},\
                 \"chunk_target_bytes\":{chunk_bytes},\"chunks_per_field\":{}}}",
                report::quote(&ds.name),
                ds.tree.dim().rank(),
                ds.fields.len(),
                ds.nbytes(),
                cells.div_ceil(values_per_chunk),
            )
        })
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_args() -> Result<Cfg, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = Cfg {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        scale: Scale::Standard,
        work: PathBuf::new(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("{flag}: bad value {value:?}");
        match flag.as_str() {
            "--workload" => cfg.workload = value.to_string(),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| bad())?;
                if !(cfg.seconds > 0.0 && cfg.seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                cfg.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                cfg.scale = match value {
                    "tiny" => Scale::Tiny,
                    "standard" => Scale::Standard,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if !["pack", "cold-read", "serve"].contains(&cfg.workload.as_str()) {
        return Err("--workload must be pack, cold-read or serve".into());
    }
    cfg.work =
        PathBuf::from(".perfbench").join(format!("work-{}-{}", cfg.workload, std::process::id()));
    Ok(cfg)
}

/// Removes the scratch directory however the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.work) {
        eprintln!("perfbench: cannot create {}: {e}", cfg.work.display());
        return ExitCode::from(3);
    }
    let _work = WorkDir(cfg.work.clone());
    let mut tr = Tracer::new(cfg.trace, Instant::now());
    let outcome = match cfg.workload.as_str() {
        "pack" => pack::run(&cfg, &mut tr),
        "cold-read" => cold_read::run(&cfg, &mut tr),
        _ => serve::run(&cfg, &mut tr),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {} set-up failed: {e}", cfg.workload);
            return ExitCode::from(1);
        }
    };
    println!("descriptor {}", outcome.descriptor);
    let metrics = if cfg.trace {
        let layers = probe::per_layer(&tr);
        for m in &layers {
            println!(
                "layer {} {} {} calls={}",
                m.name,
                report::num(m.value),
                m.unit,
                m.calls
            );
        }
        let path =
            PathBuf::from(".perfbench").join(format!("trace-{}-{}.json", cfg.workload, cfg.seed));
        match std::fs::write(&path, tr.to_json()) {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
        layers
    } else {
        outcome.e2e
    };
    println!(
        "{}",
        report::result_line(
            outcome.attempted,
            outcome.failed.min(outcome.attempted),
            &metrics
        )
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ten one-second windows of 100 requests of 1 ms at the reference
    /// host speed; `slow` windows run at twice that.
    fn closed_loop(slow: &[usize]) -> Vec<OpRecord> {
        (0..1000)
            .map(|i| {
                let ms = if slow.contains(&(i / 100)) { 2e6 } else { 1e6 };
                let at = i as f64 / 100.0 + 0.005;
                OpRecord::new(ms, host::REF_PROBE_NS, 0, true, 1e3, at)
            })
            .collect()
    }

    #[test]
    fn closed_loop_timings_are_medians_over_windows() {
        let timing = |ops: &[OpRecord]| -> Vec<f64> {
            e2e_metrics(ops, 10.0, 99.0, Rate::Wall, 1.0, 1.0)[..4]
                .iter()
                .map(|m| m.value)
                .collect()
        };
        assert_eq!(timing(&closed_loop(&[])), vec![1.0, 1.0, 0.1, 100.0]);
        assert_eq!(timing(&closed_loop(&[3, 7])), timing(&closed_loop(&[])));
    }

    #[test]
    fn adjustment_scales_by_the_probe() {
        let op = OpRecord::new(3e6, 2.0 * host::REF_PROBE_NS, 0, true, 0.0, 0.0);
        assert_eq!(op.adjusted_ns(), 1.5e6);
    }
}
