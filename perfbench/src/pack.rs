//! `pack`: each op is one timestep dump — a fresh `StoreWriter` (as one
//! `zmesh pack` process has) writes 16 quantities to a file at CLI
//! defaults. Ops alternate between a 2-D and a 3-D mesh.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use zmesh_amr::datasets::Dataset;
use zmesh_store::{scrub, StoreError, StoreReader, StoreWriteStats, StoreWriter};

use crate::data;
use crate::host;
use crate::report::{timed_ns, OpRecord};
use crate::trace::Tracer;
use crate::{Cfg, Outcome};

pub const PRESETS: [&str; 2] = ["blast2d", "cluster3d"];
pub const QUANTITIES: usize = 16;

/// What one dump produced.
pub struct Dump {
    pub ns: f64,
    pub crc: u32,
    pub stats: StoreWriteStats,
}

/// One timestep dump of `ds` to `path` with a fresh writer, exactly as
/// `zmesh pack` runs it: `write_to_path`. Traced or not, the op runs the
/// same calls; the layer sweep times the write's two public halves.
pub fn dump(
    tr: &mut Tracer,
    ds: &Dataset,
    chunk_bytes: u32,
    path: &Path,
) -> Result<Dump, StoreError> {
    let fields = data::field_refs(ds);
    let writer = data::writer(chunk_bytes);
    let t0 = Instant::now();
    let out = tr.op("op.pack", |tr| {
        tr.span("store.write_to_path", |_| {
            writer.write_to_path(&fields, path)
        })
    })?;
    let ns = t0.elapsed().as_nanos() as f64;
    sample_write_stats(tr, &writer, &out.stats)?;
    Ok(Dump {
        ns,
        crc: zmesh::crc32(&out.bytes),
        stats: out.stats,
    })
}

/// Records a finished write's `StoreWriteStats` and the writer's recipe
/// builds, which must be exactly one per dump.
pub fn sample_write_stats(
    tr: &mut Tracer,
    writer: &StoreWriter,
    stats: &StoreWriteStats,
) -> Result<(), StoreError> {
    let builds = writer.cache().stats().misses;
    tr.sample("store.write.recipe_builds_per_op", builds as f64);
    tr.sample("store.write.recipe_ms", stats.recipe_ns as f64 / 1e6);
    tr.sample("store.write.reorder_ms", stats.reorder_ns as f64 / 1e6);
    tr.sample("store.write.encode_ms", stats.encode_ns as f64 / 1e6);
    tr.sample("store.write.encode_parallelism", stats.encode_parallelism());
    tr.sample(
        "store.parity_bytes_share",
        stats.parity_bytes as f64 / stats.container_bytes as f64,
    );
    tr.sample("store.metadata_bytes", stats.metadata_bytes as f64);
    if builds != 1 {
        return Err(StoreError::Internal(
            "a dump must build its recipe exactly once",
        ));
    }
    Ok(())
}

/// Reopens the store at `path`, checks it is the dump with `crc`, scrubs
/// it clean, and checks every decoded field against its source within the
/// stored pointwise bound.
pub fn verify(ds: &Dataset, path: &Path, crc: u32) -> bool {
    let Ok(bytes) = std::fs::read(path) else {
        return false;
    };
    if zmesh::crc32(&bytes) != crc || !scrub(&bytes).is_ok_and(|r| r.is_clean()) {
        return false;
    }
    let Ok(reader) = StoreReader::open(&bytes) else {
        return false;
    };
    ds.fields
        .iter()
        .zip(reader.fields())
        .all(
            |((name, source), entry)| match (reader.decode_field(name), entry.resolved_bound) {
                (Ok(decoded), Some(bound)) => {
                    data::field_within_bound(source.values(), decoded.values(), bound)
                }
                _ => false,
            },
        )
}

struct Meshes {
    meshes: Vec<Dataset>,
    paths: Vec<PathBuf>,
}

fn setup(cfg: &Cfg) -> Result<Meshes, String> {
    let dir = cfg.work.join("stores");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let meshes: Vec<Dataset> = PRESETS
        .iter()
        .map(|p| data::timestep(p, cfg.scale, QUANTITIES, cfg.seed))
        .collect();
    let paths = PRESETS
        .iter()
        .map(|p| dir.join(format!("{p}.zms")))
        .collect();
    Ok(Meshes { meshes, paths })
}

/// Results of a run of dumps.
struct Dumps {
    records: Vec<OpRecord>,
    ops: u64,
    failed: u64,
    /// Per mesh: the first dump's CRC and container bytes.
    first: Vec<Option<(u32, usize)>>,
    per_mesh: Vec<u64>,
    wall: f64,
}

fn run_dumps(m: &Meshes, chunk_bytes: u32, budget: Duration, tr: &mut Tracer) -> Dumps {
    let mut out = Dumps {
        records: Vec::new(),
        ops: 0,
        failed: 0,
        first: vec![None; m.meshes.len()],
        per_mesh: vec![0; m.meshes.len()],
        wall: 0.0,
    };
    let start = Instant::now();
    while start.elapsed() < budget || out.ops < m.meshes.len() as u64 {
        let k = out.ops as usize % m.meshes.len();
        out.ops += 1;
        out.per_mesh[k] += 1;
        let (result, probe) = host::bracket(|| dump(tr, &m.meshes[k], chunk_bytes, &m.paths[k]));
        match result {
            Ok(d) => {
                let first = *out.first[k].get_or_insert((d.crc, d.stats.container_bytes));
                if first.0 != d.crc {
                    out.failed += 1;
                }
                let bytes = d.stats.raw_bytes as f64;
                let at = start.elapsed().as_secs_f64();
                out.records
                    .push(OpRecord::new(d.ns, probe, k, true, bytes, at));
            }
            Err(_) => out.failed += 1,
        }
    }
    out.wall = start.elapsed().as_secs_f64();
    // The last dump of each mesh is on disk: it must be the first dump's
    // bytes and read back within bound.
    for (k, first) in out.first.iter().enumerate() {
        let ok = first.is_some_and(|(crc, _)| verify(&m.meshes[k], &m.paths[k], crc));
        if !ok {
            out.failed += out.per_mesh[k];
        }
    }
    out
}

pub fn run(cfg: &Cfg, tr: &mut Tracer) -> Result<Outcome, String> {
    let (m, setup_s) = crate::repeat_setup(|| setup(cfg), |_| Ok::<(), String>(()))?;
    let mut off = tr.fork_disabled();
    let secs = |share: f64| Duration::from_secs_f64(cfg.seconds * share);
    let chunk = data::pack_chunk_bytes(cfg.scale);
    let (attempted, failed, metrics, ops) = if cfg.trace {
        let base = run_dumps(&m, chunk, secs(crate::TRACE_SHARE), &mut off);
        let traced = run_dumps(&m, chunk, secs(crate::TRACE_SHARE), tr);
        crate::sample_overhead(tr, &timed_ns(&base.records), &timed_ns(&traced.records));
        let stores: Vec<(&Dataset, PathBuf)> =
            m.meshes.iter().zip(m.paths.iter().cloned()).collect();
        let (a, f) = crate::probe::sweep(tr, &stores, chunk, cfg, true);
        (
            base.ops + traced.ops + a,
            base.failed + traced.failed + f,
            Vec::new(),
            traced.ops,
        )
    } else {
        let d = run_dumps(&m, chunk, secs(1.0), &mut off);
        let raw: usize = m.meshes.iter().map(Dataset::nbytes).sum();
        let container: usize = d.first.iter().flatten().map(|&(_, bytes)| bytes).sum();
        let metrics = crate::e2e_metrics(
            &d.records,
            d.wall,
            90.0,
            crate::Rate::Busy,
            raw as f64 / container.max(1) as f64,
            setup_s,
        );
        (d.ops, d.failed, metrics, d.ops)
    };
    let refs: Vec<&Dataset> = m.meshes.iter().collect();
    let descriptor = format!(
        "{{\"workload\":\"pack\",\"seed\":{},\"meshes\":[{}],\"ops\":{{\"dump\":{ops}}}}}",
        cfg.seed,
        crate::mesh_descriptors(&refs, chunk),
    );
    Ok(Outcome {
        attempted,
        failed,
        e2e: metrics,
        descriptor,
    })
}
