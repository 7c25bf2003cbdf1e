//! `cold-read`: each op opens a store file fresh with
//! `StoreReader::open_source(FileSource)` and no shared cache, as
//! `zmesh query` / `zmesh unpack` do. Most ops are one seeded small-box
//! query on a random field; every 8th op is a full unpack.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rand::{rngs::StdRng, Rng, SeedableRng};
use zmesh_amr::datasets::Dataset;
use zmesh_amr::AmrField;
use zmesh_store::{FileSource, Query, QueryResult, StoreError, StoreReader};

use crate::data;
use crate::host;
use crate::probe;
use crate::report::{timed_ns, OpRecord};
use crate::trace::Tracer;
use crate::{Cfg, Outcome};

pub const PRESETS: [&str; 2] = ["blast2d", "cluster3d"];
pub const QUANTITIES: usize = 16;
/// One op in this many is a full unpack.
pub const UNPACK_EVERY: u64 = 8;

/// A fresh open plus one query, as `zmesh query` pays it. Traced, the
/// open and the query are spans, and the query's curve-range
/// decomposition is replayed between them as its own span (untraced ops
/// skip the replay).
pub fn cold_query(
    tr: &mut Tracer,
    path: &Path,
    field: &str,
    q: &Query,
) -> Result<QueryResult, StoreError> {
    tr.op("op.cold_query", |tr| {
        let reader = tr.span("store.open", |_| {
            StoreReader::open_source(FileSource::open(path)?)
        })?;
        if tr.enabled() {
            probe::bbox_ranges(tr, &reader, q);
        }
        tr.span("store.query", |_| reader.query(field, q))
    })
}

/// A fresh open plus a decode of every field, as `zmesh unpack` pays it.
pub fn unpack(tr: &mut Tracer, path: &Path) -> Result<Vec<AmrField>, StoreError> {
    tr.op("op.unpack", |tr| {
        let reader = tr.span("store.open", |_| {
            StoreReader::open_source(FileSource::open(path)?)
        })?;
        reader
            .field_names()
            .into_iter()
            .map(|name| tr.span("store.decode_field", |_| reader.decode_field(name)))
            .collect()
    })
}

/// Whether a query answer is exactly the cells the box selects, each
/// within the stored bound of its source value.
pub fn query_ok(ds: &Dataset, field: usize, q: &Query, r: &QueryResult) -> bool {
    let Some(bound) = r.bound else {
        return false;
    };
    r.storage_indices == data::expected_selection(&ds.tree, q)
        && data::within_bound(
            ds.fields[field].1.values(),
            &r.storage_indices,
            &r.values,
            bound,
        )
}

fn unpack_ok(ds: &Dataset, path: &Path, fields: &[AmrField]) -> bool {
    let Ok(reader) = FileSource::open(path).and_then(StoreReader::open_source) else {
        return false;
    };
    fields.len() == ds.fields.len()
        && ds.fields.iter().zip(fields).zip(reader.fields()).all(
            |(((_, source), decoded), entry)| {
                entry
                    .resolved_bound
                    .is_some_and(|b| data::field_within_bound(source.values(), decoded.values(), b))
            },
        )
}

struct Stores {
    meshes: Vec<Dataset>,
    paths: Vec<PathBuf>,
    file_bytes: usize,
}

fn setup(cfg: &Cfg) -> Result<Stores, String> {
    let dir = cfg.work.join("stores");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut out = Stores {
        meshes: Vec::new(),
        paths: Vec::new(),
        file_bytes: 0,
    };
    for p in PRESETS {
        let ds = data::timestep(p, cfg.scale, QUANTITIES, cfg.seed);
        let path = dir.join(format!("{p}.zms"));
        out.file_bytes += data::pack_to(&ds, data::pack_chunk_bytes(cfg.scale), &path)
            .map_err(|e| e.to_string())?;
        out.meshes.push(ds);
        out.paths.push(path);
    }
    Ok(out)
}

struct Ops {
    records: Vec<OpRecord>,
    wall: f64,
    ops: u64,
    queries: u64,
    unpacks: u64,
    failed: u64,
}

fn run_ops(s: &Stores, budget: Duration, seed: u64, tr: &mut Tracer) -> Ops {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Ops {
        records: Vec::new(),
        wall: 0.0,
        ops: 0,
        queries: 0,
        unpacks: 0,
        failed: 0,
    };
    let start = Instant::now();
    while start.elapsed() < budget || out.unpacks == 0 {
        let i = out.ops;
        out.ops += 1;
        if i % UNPACK_EVERY == UNPACK_EVERY - 1 {
            let k = (i / UNPACK_EVERY) as usize % s.meshes.len();
            out.unpacks += 1;
            let t0 = Instant::now();
            let (result, probe) = host::bracket(|| unpack(tr, &s.paths[k]));
            let ns = t0.elapsed().as_nanos() as f64;
            let bytes = s.meshes[k].nbytes() as f64;
            let at = start.elapsed().as_secs_f64();
            out.records
                .push(OpRecord::new(ns, probe, k, false, bytes, at));
            if !result.is_ok_and(|fields| unpack_ok(&s.meshes[k], &s.paths[k], &fields)) {
                out.failed += 1;
            }
        } else {
            let k = i as usize % s.meshes.len();
            let ds = &s.meshes[k];
            let field = rng.gen_range(0..ds.fields.len());
            let q = data::random_box(&ds.tree, data::query_den(&ds.tree), &mut rng);
            out.queries += 1;
            let t0 = Instant::now();
            let (result, probe) =
                host::bracket(|| cold_query(tr, &s.paths[k], &ds.fields[field].0, &q));
            let ns = t0.elapsed().as_nanos() as f64;
            let at = start.elapsed().as_secs_f64();
            out.records.push(OpRecord::new(ns, probe, k, true, 0.0, at));
            if !result.is_ok_and(|r| query_ok(ds, field, &q, &r)) {
                out.failed += 1;
            }
        }
    }
    out.wall = start.elapsed().as_secs_f64();
    out
}

pub fn run(cfg: &Cfg, tr: &mut Tracer) -> Result<Outcome, String> {
    let (s, setup_s) = crate::repeat_setup(|| setup(cfg), |_| Ok::<(), String>(()))?;
    let mut off = tr.fork_disabled();
    let secs = |share: f64| Duration::from_secs_f64(cfg.seconds * share);
    let (attempted, failed, metrics, ops) = if cfg.trace {
        let base = run_ops(&s, secs(crate::TRACE_SHARE), cfg.seed, &mut off);
        let traced = run_ops(&s, secs(crate::TRACE_SHARE), cfg.seed, tr);
        crate::sample_overhead(tr, &timed_ns(&base.records), &timed_ns(&traced.records));
        let stores: Vec<(&Dataset, PathBuf)> =
            s.meshes.iter().zip(s.paths.iter().cloned()).collect();
        let (a, f) = probe::sweep(tr, &stores, data::pack_chunk_bytes(cfg.scale), cfg, true);
        (
            base.ops + traced.ops + a,
            base.failed + traced.failed + f,
            Vec::new(),
            traced,
        )
    } else {
        let o = run_ops(&s, secs(1.0), cfg.seed, &mut off);
        let raw: usize = s.meshes.iter().map(Dataset::nbytes).sum();
        let metrics = crate::e2e_metrics(
            &o.records,
            o.wall,
            90.0,
            crate::Rate::Busy,
            raw as f64 / s.file_bytes as f64,
            setup_s,
        );
        (o.ops, o.failed, metrics, o)
    };
    let refs: Vec<&Dataset> = s.meshes.iter().collect();
    let descriptor = format!(
        "{{\"workload\":\"cold-read\",\"seed\":{},\"meshes\":[{}],\
         \"ops\":{{\"query\":{},\"unpack\":{}}},\"chunk_cache_budget_bytes\":0}}",
        cfg.seed,
        crate::mesh_descriptors(&refs, data::pack_chunk_bytes(cfg.scale)),
        ops.queries,
        ops.unpacks,
    );
    Ok(Outcome {
        attempted,
        failed,
        e2e: metrics,
        descriptor,
    })
}
