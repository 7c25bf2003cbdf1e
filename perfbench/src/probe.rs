//! The traced run's layer sweep and per-layer metrics.
//!
//! Workload ops call whole-pipeline entry points (`write_to_path`,
//! `open_source`, `query`, HTTP). The sweep times the calls into each
//! layer's public functions on the same stores and data: the two halves
//! of a write (encode into memory, commit to a file), the stages an open
//! runs (footer parse, tree decode, recipe build), reorder and restore,
//! one codec call per sampled chunk with its entropy stage and CRC,
//! curve-range decomposition, and ranged reads. Every replayed call is
//! checked against what the store holds (same bytes, same chunk CRC, same
//! chunk selection), so the sweep times the work the pipeline really does.

use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;

use rand::{rngs::StdRng, Rng, SeedableRng};
use zmesh::RestoreRecipe;
use zmesh_amr::datasets::Dataset;
use zmesh_amr::{AmrTree, Dim};
use zmesh_codecs::lossless::huffman;
use zmesh_codecs::sz::predictor::{History, Predictor};
use zmesh_codecs::sz::quantizer::{QuantOutcome, Quantizer, ESCAPE};
use zmesh_codecs::sz::SzConfig;
use zmesh_codecs::{CodecParams, ErrorControl, ValueType};
use zmesh_sfc::{bbox_ranges_2d, bbox_ranges_3d};
use zmesh_store::{
    open_parts_source, persist_store, plan_chunks, ByteSource, FieldEntry, FileSource, Query,
    StoreError, StoreReader, StreamOptions, VecSink,
};

use crate::report::{median, Metric};
use crate::trace::Tracer;
use crate::{cold_read, data, pack, serve, Cfg};

/// Opens sampled per store, chunks sampled per store, queries per store.
const OPENS: usize = 3;
const CHUNKS: usize = 16;
const QUERIES: usize = 8;

/// Runs `f` in a span and also returns its duration in ns.
fn timed<T>(tr: &mut Tracer, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = tr.span(name, |_| f());
    (out, t0.elapsed().as_nanos() as f64)
}

/// The curve ranges `StoreReader::query` decomposes `q` into, computed
/// by the same public `zmesh_sfc` call in a span (`None` for level order).
pub fn bbox_ranges<S: ByteSource>(
    tr: &mut Tracer,
    reader: &StoreReader<S>,
    q: &Query,
) -> Option<Vec<Range<u64>>> {
    let tree = reader.tree();
    let kind = reader.header().policy.curve()?;
    let bits = tree.finest_bits();
    let clamp = |v: u32| u64::from(v).min((1u64 << bits) - 1);
    let (lo, hi) = (q.bbox_lo.map(clamp), q.bbox_hi.map(clamp));
    let ranges = tr.span("sfc.bbox_ranges", |_| match tree.dim() {
        Dim::D2 => bbox_ranges_2d(kind, bits, (lo[0], lo[1]), (hi[0], hi[1])),
        Dim::D3 => bbox_ranges_3d(kind, bits, (lo[0], lo[1], lo[2]), (hi[0], hi[1], hi[2])),
    });
    tr.sample("sfc.ranges_per_query", ranges.len() as f64);
    Some(ranges)
}

/// Chunks of `entry` a query must decode: the footer-index filter
/// `StoreReader::query` applies.
fn selected_chunks(entry: &FieldEntry, q: &Query, ranges: Option<&[Range<u64>]>) -> Vec<usize> {
    entry
        .chunks
        .iter()
        .enumerate()
        .filter(|(_, m)| {
            m.level_mask & q.level_mask != 0
                && m.overlaps_bbox(q.bbox_lo, q.bbox_hi)
                && ranges.is_none_or(|r| m.overlaps_ranges(r))
        })
        .map(|(i, _)| i)
        .collect()
}

/// The quantization codes SZ's 1-D path emits for `data` at bound `eb`,
/// derived with the public predictor and quantizer.
fn sz_symbols(data: &[f64], eb: f64) -> Vec<u16> {
    let quant = Quantizer::new(eb);
    let mut history = History::new();
    let mut symbols = Vec::with_capacity(data.len());
    for block in data.chunks(SzConfig::default().chunk_size) {
        let pred = Predictor::select(block, &history, eb);
        for &x in block {
            match quant.quantize(x, pred.predict(&history)) {
                QuantOutcome::Code { symbol, recon } => {
                    symbols.push(symbol);
                    history.push(recon);
                }
                QuantOutcome::Escape => {
                    symbols.push(ESCAPE);
                    history.push(x);
                }
            }
        }
    }
    symbols
}

/// Writes `ds` again in the two public halves of `write_to_path`, each in
/// a span: `write_to_sink` into a `VecSink` with an unbounded window, then
/// `persist_store` to `out`. The bytes must be the store at `path`, which
/// the same writer settings produced. Returns failed checks.
fn probe_write(tr: &mut Tracer, ds: &Dataset, chunk_bytes: u32, path: &Path, out: &Path) -> u64 {
    let fields = data::field_refs(ds);
    let writer = data::writer(chunk_bytes);
    let written = tr.op("probe.write", |tr| -> Result<_, StoreError> {
        let mut sink = VecSink::new();
        let opts = StreamOptions {
            window_bytes: 0,
            ..StreamOptions::default()
        };
        let stats = tr.span("store.write", |_| {
            writer.write_to_sink(&fields, &mut sink, &opts)
        })?;
        tr.span("store.persist", |_| persist_store(sink.bytes(), out))?;
        Ok((sink.into_bytes(), stats))
    });
    let Ok((bytes, stats)) = written else {
        return 1;
    };
    let same = std::fs::read(path).is_ok_and(|on_disk| on_disk == bytes);
    u64::from(pack::sample_write_stats(tr, &writer, &stats).is_err() || !same)
}

/// Times one store's read-side stages. Returns failed checks.
fn probe_store(tr: &mut Tracer, ds: &Dataset, path: &Path, rng: &mut StdRng) -> u64 {
    let mut opened = None;
    for _ in 0..OPENS {
        opened = Some(tr.op("probe.open", |tr| -> Result<_, StoreError> {
            let src = FileSource::open(path)?;
            let t0 = Instant::now();
            let (header, _, payload) =
                tr.span("store.footer_parse", |_| open_parts_source(&src))?;
            let tree = tr.span("amr.tree_decode", |_| {
                AmrTree::from_structure_bytes(&header.structure)
            })?;
            let recipe = tr.span("core.recipe_build", |_| {
                RestoreRecipe::build(&tree, header.policy, header.grouping())
            });
            let stages_ns = t0.elapsed().as_nanos() as f64;
            let (reader, open_ns) = timed(tr, "store.open", || {
                StoreReader::open_source(FileSource::open(path)?)
            });
            tr.sample("store.open_unattributed_ms", (open_ns - stages_ns) / 1e6);
            Ok((tree, recipe, payload, reader?))
        }));
    }
    let Some(Ok((tree, recipe, payload, reader))) = opened else {
        return 1;
    };
    let mut failed = 0;
    let header = reader.header().clone();

    // Reorder and restore: the store's stream order and back.
    let mut streams = Vec::new();
    for (_, field) in ds.fields.iter().take(2) {
        let stream = tr.span("core.reorder", |_| recipe.apply(field.values()));
        let back = tr.span("core.restore", |_| recipe.invert(&stream));
        if back != field.values() {
            failed += 1;
        }
        streams.push(stream);
    }

    // Codec stages on sampled chunks of the first field.
    let entry = &reader.fields()[0];
    let plan = plan_chunks(
        &tree,
        &recipe,
        header.policy,
        header.grouping(),
        (header.chunk_target_bytes as usize / 8).max(1),
    );
    let codec = zmesh::codec_for(header.codec);
    let Some(bound) = entry.resolved_bound else {
        return failed + 1;
    };
    let params = CodecParams {
        control: ErrorControl::Absolute(bound),
        dims: [0, 0, 0],
        value_type: ValueType::F64,
    };
    let n = plan.metas.len();
    let mut picks: Vec<usize> = (0..CHUNKS).map(|j| j * n / CHUNKS).collect();
    picks.dedup();
    for c in picks {
        let chunk = &streams[0][plan.stream_range(c)];
        let (bytes, enc_ns) = timed(tr, "codecs.sz_encode", || codec.compress(chunk, &params));
        let Ok(bytes) = bytes else {
            failed += 1;
            continue;
        };
        let crc = tr.span("kernels.crc", |_| zmesh::crc32(&bytes));
        let symbols = sz_symbols(chunk, bound);
        let (coded, entropy_ns) = timed(tr, "codecs.entropy_encode", || huffman::encode(&symbols));
        let (codes, dec_ns) = timed(tr, "codecs.entropy_decode", || huffman::decode(&coded));
        let values = tr.span("codecs.sz_decode", |_| codec.decompress(&bytes));
        tr.sample("codecs.values_per_chunk", chunk.len() as f64);
        tr.sample(
            "codecs.predict_quantize_us",
            (enc_ns - entropy_ns).max(0.0) / 1e3,
        );
        tr.sample(
            "codecs.entropy_decode_ns_per_value",
            dec_ns / chunk.len().max(1) as f64,
        );
        let values_ok = values.is_ok_and(|v| data::field_within_bound(chunk, &v, bound));
        if crc != entry.chunks[c].crc || codes.ok() != Some(symbols) || !values_ok {
            failed += 1;
        }
    }

    // Queries on the open reader, with their curve ranges and the ranged
    // reads of exactly the chunks they select.
    for _ in 0..QUERIES {
        let field = rng.gen_range(0..ds.fields.len());
        let q = data::random_box(&ds.tree, data::query_den(&ds.tree), rng);
        let ok = tr.op("probe.query", |tr| -> Result<bool, StoreError> {
            let ranges = bbox_ranges(tr, &reader, &q);
            let before = reader.bytes_read();
            let r = tr.span("store.query", |_| reader.query(&ds.fields[field].0, &q))?;
            let entry = &reader.fields()[field];
            let selected = selected_chunks(entry, &q, ranges.as_deref());
            let src = FileSource::open(path)?;
            tr.span("store.read_io", |_| -> Result<(), StoreError> {
                for &c in &selected {
                    let m = &entry.chunks[c];
                    let mut buf = vec![0u8; m.len as usize];
                    src.read_at(payload.start + m.offset, &mut buf)?;
                }
                Ok(())
            })?;
            let decoded: usize = selected.iter().map(|&c| plan.stream_range(c).len()).sum();
            tr.sample("store.chunks_decoded_per_query", r.chunks_decoded as f64);
            tr.sample(
                "store.bytes_read_per_query",
                (reader.bytes_read() - before) as f64,
            );
            tr.sample(
                "store.useful_cell_ratio",
                r.values.len() as f64 / decoded.max(1) as f64,
            );
            Ok(selected.len() == r.chunks_decoded && cold_read::query_ok(ds, field, &q, &r))
        });
        if !ok.unwrap_or(false) {
            failed += 1;
        }
    }
    failed
}

/// The layer sweep over `stores`, written at `chunk_bytes`; with
/// `daemon`, also a short serving daemon over them, for workloads whose
/// own ops never reach one. Returns `(attempted, failed)` checks.
pub fn sweep(
    tr: &mut Tracer,
    stores: &[(&Dataset, PathBuf)],
    chunk_bytes: u32,
    cfg: &Cfg,
    daemon: bool,
) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5eed_9a0b);
    let (mut attempted, mut failed) = (0u64, 0u64);
    let dir = cfg.work.join("probe");
    let _ = std::fs::create_dir_all(&dir);
    for (k, (ds, path)) in stores.iter().enumerate() {
        attempted += 1 + (OPENS + CHUNKS + QUERIES) as u64;
        failed += probe_write(tr, ds, chunk_bytes, path, &dir.join(format!("{k}.zms")));
        failed += probe_store(tr, ds, path, &mut rng);
    }
    if daemon {
        if let Some(dir) = stores.first().and_then(|(_, p)| p.parent()) {
            let refs: Vec<&Dataset> = stores.iter().map(|(d, _)| *d).collect();
            let budget = serve::decoded_bytes(&refs) / 4;
            let (a, f) = serve::probe_daemon(tr, dir, budget, cfg.seed);
            attempted += a;
            failed += f;
        }
    }
    (attempted, failed)
}

/// Where a per-layer metric comes from.
enum Src {
    /// Median duration of the named span, divided into the unit.
    Span(&'static str, f64),
    /// Median of the named samples.
    Sample(&'static str),
}

/// Every per-layer metric: name, unit, source.
const LAYER_METRICS: &[(&str, &str, Src)] = &[
    (
        "amr.tree_decode_ms",
        "ms",
        Src::Span("amr.tree_decode", 1e6),
    ),
    (
        "core.recipe_build_ms",
        "ms",
        Src::Span("core.recipe_build", 1e6),
    ),
    ("core.reorder_ms", "ms", Src::Span("core.reorder", 1e6)),
    ("core.restore_ms", "ms", Src::Span("core.restore", 1e6)),
    (
        "sfc.bbox_ranges_us",
        "us",
        Src::Span("sfc.bbox_ranges", 1e3),
    ),
    (
        "sfc.ranges_per_query",
        "count",
        Src::Sample("sfc.ranges_per_query"),
    ),
    (
        "codecs.sz_encode_us_per_chunk",
        "us",
        Src::Span("codecs.sz_encode", 1e3),
    ),
    (
        "codecs.entropy_encode_us_per_chunk",
        "us",
        Src::Span("codecs.entropy_encode", 1e3),
    ),
    (
        "codecs.predict_quantize_us_per_chunk",
        "us",
        Src::Sample("codecs.predict_quantize_us"),
    ),
    (
        "codecs.values_per_chunk",
        "count",
        Src::Sample("codecs.values_per_chunk"),
    ),
    (
        "codecs.sz_decode_us_per_chunk",
        "us",
        Src::Span("codecs.sz_decode", 1e3),
    ),
    (
        "codecs.entropy_decode_ns_per_value",
        "ns",
        Src::Sample("codecs.entropy_decode_ns_per_value"),
    ),
    (
        "kernels.crc_us_per_chunk",
        "us",
        Src::Span("kernels.crc", 1e3),
    ),
    ("store.write_ms", "ms", Src::Span("store.write", 1e6)),
    ("store.persist_ms", "ms", Src::Span("store.persist", 1e6)),
    (
        "store.write.recipe_ms",
        "ms",
        Src::Sample("store.write.recipe_ms"),
    ),
    (
        "store.write.reorder_ms",
        "ms",
        Src::Sample("store.write.reorder_ms"),
    ),
    (
        "store.write.encode_ms",
        "ms",
        Src::Sample("store.write.encode_ms"),
    ),
    (
        "store.write.encode_parallelism",
        "x",
        Src::Sample("store.write.encode_parallelism"),
    ),
    (
        "store.write.recipe_builds_per_op",
        "count",
        Src::Sample("store.write.recipe_builds_per_op"),
    ),
    (
        "store.parity_bytes_share",
        "fraction",
        Src::Sample("store.parity_bytes_share"),
    ),
    (
        "store.metadata_bytes",
        "bytes",
        Src::Sample("store.metadata_bytes"),
    ),
    (
        "store.footer_parse_ms",
        "ms",
        Src::Span("store.footer_parse", 1e6),
    ),
    ("store.open_ms", "ms", Src::Span("store.open", 1e6)),
    (
        "store.open_unattributed_ms",
        "ms",
        Src::Sample("store.open_unattributed_ms"),
    ),
    ("store.query_us", "us", Src::Span("store.query", 1e3)),
    (
        "store.read_io_us_per_query",
        "us",
        Src::Span("store.read_io", 1e3),
    ),
    (
        "store.chunks_decoded_per_query",
        "count",
        Src::Sample("store.chunks_decoded_per_query"),
    ),
    (
        "store.bytes_read_per_query",
        "bytes",
        Src::Sample("store.bytes_read_per_query"),
    ),
    (
        "store.useful_cell_ratio",
        "fraction",
        Src::Sample("store.useful_cell_ratio"),
    ),
    (
        "store.chunk_cache.hit_rate",
        "fraction",
        Src::Sample("store.chunk_cache.hit_rate"),
    ),
    (
        "store.chunk_cache.evictions",
        "count",
        Src::Sample("store.chunk_cache.evictions"),
    ),
    (
        "store.chunk_cache.coalesced",
        "count",
        Src::Sample("store.chunk_cache.coalesced"),
    ),
    (
        "store.recipe_cache.hit_rate",
        "fraction",
        Src::Sample("store.recipe_cache.hit_rate"),
    ),
    ("serve.bind_ms", "ms", Src::Sample("serve.bind_ms")),
    (
        "serve.http_overhead_us_p50",
        "us",
        Src::Sample("serve.http_overhead_us"),
    ),
    (
        "serve.response_bytes",
        "bytes",
        Src::Sample("serve.response_bytes"),
    ),
    (
        "serve.rejected_503",
        "count",
        Src::Sample("serve.rejected_503"),
    ),
    (
        "serve.keepalive_reuses",
        "count",
        Src::Sample("serve.keepalive_reuses"),
    ),
    ("trace.overhead_pct", "%", Src::Sample("trace.overhead_pct")),
];

/// Every per-layer metric from a traced run's spans and samples.
pub fn per_layer(tr: &Tracer) -> Vec<Metric> {
    let mut out: Vec<Metric> = LAYER_METRICS
        .iter()
        .map(|(name, unit, src)| match src {
            Src::Span(span, div) => {
                let d = tr.durations(span);
                Metric::new(name, median(&d) / div, unit, d.len())
            }
            Src::Sample(sample) => {
                let s = tr.samples(sample);
                Metric::new(name, median(s), unit, s.len())
            }
        })
        .collect();
    let ops: Vec<f64> = tr
        .op_remainders()
        .into_iter()
        .filter(|(_, name, _, _)| name.starts_with("op."))
        .map(|(_, _, dur, rest)| rest as f64 / dur.max(1) as f64)
        .collect();
    out.push(Metric::new(
        "trace.unattributed_share",
        median(&ops),
        "fraction",
        ops.len(),
    ));
    out.push(Metric::new(
        "trace.spans",
        tr.span_count() as f64,
        "count",
        tr.span_count(),
    ));
    out
}
