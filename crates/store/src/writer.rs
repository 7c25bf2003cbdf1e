//! The store writer: recipe → chunk plan → gather + compress → indexed
//! container.
//!
//! Fields stay in storage order; no reordered copy of a field is ever
//! made. The mesh-level work — the restore recipe and the chunk plan,
//! which reuses the curve keys the recipe build's walk yields — is paid once
//! per write, and each field's error bound is resolved on its
//! storage-order values (a min/max fold does not depend on order).
//!
//! The encode fans out over **fields × runs of chunks**: a job is a run of
//! up to eight consecutive chunks of one field. It gathers its own stream
//! positions through `recipe.permutation()` into a job-local buffer and
//! hands that to [`Codec::compress_chunks`] in one call. Every chunk is still its own
//! independently decodable stream; the run only lets the SZ codec advance
//! its chunks together, one per SIMD lane. Jobs are independent, so a
//! write scales with cores even for a single field (the in-situ setting
//! the paper's overhead experiments assume).
//!
//! Chunks flow through a compress→write **window** into a [`ByteSink`]:
//! encoder threads compress ahead (admission bounded by
//! [`StreamOptions::window_bytes`] of raw input; a run is shortened until
//! its raw bytes fit the window, down to one chunk) while the caller's
//! thread hands finished chunks to the store [`Layout`] *in layout
//! order* — field-major, chunks in stream order. The output is therefore
//! byte-identical at any window size or thread count, and peak
//! encode-buffer memory is O(window), not O(container). Parity
//! accumulates incrementally as members stream past, so no data chunk is
//! retained after it is written. [`StoreWriter::write`] is the same path
//! into an in-memory [`VecSink`] with an unbounded window.

use crate::cache::RecipeCache;
use crate::chunk::{plan_keyed, ChunkPlan, DEFAULT_CHUNK_TARGET_BYTES};
use crate::format::{FieldEntry, StoreError, StoreHeader};
use crate::layout::Layout;
use crate::parity::{group_count, Parity};
use crate::reader::{RetryPolicy, RetryStats};
use crate::sink::{persist_store, ByteSink, VecSink};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::time::Instant;
use zmesh::{
    codec_for, crc32, CompressionConfig, GroupingMode, RestoreRecipe, StreamKeys, ZmeshError,
};
use zmesh_amr::{AmrField, AmrTree};
use zmesh_codecs::{Codec, CodecError, CodecParams, ErrorControl, ValueType};

/// Wall-time and size accounting for one store write.
///
/// The reorder and encode phases report both **wall** time (elapsed, as a
/// caller experiences it) and **CPU** time (summed across the parallel
/// jobs). Their ratio, [`StoreWriteStats::encode_parallelism`], is the
/// effective speedup the parallel encode achieved — ~1.0 on one core,
/// approaching the thread count when the chunk jobs saturate the pool.
/// The stages add up: `recipe_ns + reorder_ns + encode_ns` is the write's
/// wall time up to the sink's flush and commit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StoreWriteStats {
    /// Nanoseconds of the mesh-level preamble: obtaining the restore
    /// recipe (build or cache hit) plus the chunk plan.
    pub recipe_ns: u64,
    /// Whether the recipe came from the cache.
    pub recipe_cache_hit: bool,
    /// Wall nanoseconds of the reorder: the per-field bound pass (all
    /// fields, in parallel) plus the in-job gathers' share of the
    /// compress+write phase (their CPU time over the encoder threads).
    pub reorder_ns: u64,
    /// CPU nanoseconds of the reorder: the bound pass plus every job's
    /// gather of its chunk values through the recipe.
    pub reorder_cpu_ns: u64,
    /// Wall nanoseconds of the overlapped compress+write phase (fields ×
    /// chunk-run jobs), less the gathers' share counted in `reorder_ns`.
    pub encode_ns: u64,
    /// CPU nanoseconds of the encode, summed over every compression job (a
    /// run of chunks of one field), gathers excluded.
    pub encode_cpu_ns: u64,
    /// Encoder threads the write ran.
    pub encode_threads: usize,
    /// Fields written.
    pub n_fields: usize,
    /// Chunks per field.
    pub n_chunks: usize,
    /// Uncompressed bytes across all fields.
    pub raw_bytes: usize,
    /// Total store size.
    pub container_bytes: usize,
    /// Compressed chunk payload bytes.
    pub payload_bytes: usize,
    /// Parity section bytes — XOR chunks (v3) or Reed–Solomon shards
    /// (v4); 0 when parity is disabled.
    pub parity_bytes: usize,
    /// Parity groups across all fields.
    pub parity_groups: usize,
    /// Header + footer + trailer bytes (everything except data and parity
    /// payloads).
    pub metadata_bytes: usize,
    /// The configured [`StreamOptions::window_bytes`] (0 for an unbounded
    /// window, as [`StoreWriter::write`] uses).
    pub window_bytes: usize,
    /// Peak compressed chunk bytes resident between the encoders and the
    /// sink at once. Admission is gated on raw chunk bytes, so under a
    /// bounded window this stays ≤ `window_bytes` whenever chunks do not
    /// expand under compression; under an unbounded one it depends on how
    /// far the encoders ran ahead of the sink.
    pub peak_buffer_bytes: usize,
    /// Process peak resident set size (`VmHWM`) sampled at the end of the
    /// write, in bytes; 0 when the platform does not expose it.
    pub peak_rss_bytes: usize,
    /// Transient sink-write failures retried (and given up on) under
    /// [`StreamOptions::retry`].
    pub retry: RetryStats,
}

impl StoreWriteStats {
    /// Compression ratio over the full store, metadata included.
    pub fn ratio(&self) -> f64 {
        self.raw_bytes as f64 / self.container_bytes as f64
    }

    /// Effective encode speedup: CPU time over wall time. Values near 1.0
    /// mean the encode ran serially; values near `encode_threads` mean the
    /// fan-out saturated the pool.
    pub fn encode_parallelism(&self) -> f64 {
        if self.encode_ns == 0 {
            1.0
        } else {
            self.encode_cpu_ns as f64 / self.encode_ns as f64
        }
    }

    /// Parity section size relative to the data payload — ≈ 1/group-width
    /// when chunk sizes are uniform, 0.0 with parity disabled.
    pub fn parity_overhead(&self) -> f64 {
        if self.payload_bytes == 0 {
            0.0
        } else {
            self.parity_bytes as f64 / self.payload_bytes as f64
        }
    }
}

/// Process peak resident set size (`VmHWM` from `/proc/self/status`) in
/// bytes — the observable the write path's O(window) memory claim is
/// judged by. Returns 0 on platforms without procfs.
pub fn process_peak_rss() -> usize {
    #[cfg(target_os = "linux")]
    {
        if let Ok(status) = std::fs::read_to_string("/proc/self/status") {
            for line in status.lines() {
                if let Some(rest) = line.strip_prefix("VmHWM:") {
                    let kb: usize = rest
                        .trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse()
                        .unwrap_or(0);
                    return kb * 1024;
                }
            }
        }
        0
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// Tunable knobs of a [`StoreWriter`] beyond the compression config.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreWriteOptions {
    /// Uncompressed bytes each chunk targets (the last chunk may be short).
    pub chunk_target_bytes: u32,
    /// Erasure-protection scheme. The scheme picks the emitted format
    /// version: [`Parity::None`] ⇒ byte-identical **v2** (interop with
    /// pre-parity readers), [`Parity::Xor`] ⇒ byte-identical **v3**,
    /// [`Parity::Rs`] ⇒ **v4** with `parity` shards per group and a
    /// trailing commit record.
    pub parity: Parity,
}

impl Default for StoreWriteOptions {
    fn default() -> Self {
        Self {
            chunk_target_bytes: DEFAULT_CHUNK_TARGET_BYTES,
            parity: Parity::default(),
        }
    }
}

/// Knobs of the compress→write window ([`StoreWriter::write_to_sink`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamOptions {
    /// Ceiling on raw (uncompressed) chunk bytes admitted into the
    /// compress→write window at once — the encode-buffer memory bound.
    /// `0` disables the bound (every job may be in flight at once). A job
    /// (a run of up to eight chunks) is shortened until its raw bytes fit
    /// the window, so the bound holds per job as well. A window smaller
    /// than one chunk degrades gracefully to one single-chunk job at a
    /// time; it never deadlocks.
    pub window_bytes: usize,
    /// Retry policy for transient sink-write failures (`EINTR`, `EAGAIN`,
    /// `EIO`): same backoff discipline as the read side.
    pub retry: RetryPolicy,
}

impl Default for StreamOptions {
    fn default() -> Self {
        Self {
            window_bytes: 8 << 20,
            retry: RetryPolicy::default(),
        }
    }
}

/// Output of [`StoreWriter::write`].
#[derive(Debug, Clone)]
pub struct StoreWritten {
    /// The serialized store.
    pub bytes: Vec<u8>,
    /// Timing and size accounting.
    pub stats: StoreWriteStats,
}

/// Writes chunked, indexed v2 stores. Reusing one writer (or sharing its
/// [`RecipeCache`]) across fields, timesteps, or whole runs amortizes the
/// recipe build — the Nth write against the same mesh skips the curve
/// walk entirely, and a reused writer also skips the chunk plan.
#[derive(Debug, Clone)]
pub struct StoreWriter {
    config: CompressionConfig,
    options: StoreWriteOptions,
    cache: std::sync::Arc<RecipeCache>,
    /// The last chunk plan and the cached recipe it frames: a write whose
    /// recipe is that same `Arc` at the same chunk size reuses the plan.
    last_plan: PlanMemo,
}

/// A writer's last `(recipe, plan)` pair, shared by its clones (the plan
/// is a pure function of the recipe's mesh and the chunk size).
type PlanMemo = Arc<Mutex<Option<(Arc<RestoreRecipe>, Arc<ChunkPlan>)>>>;

/// Everything the encode needs after the preamble: recipe, chunk plan,
/// resolved bounds, and the header. Field values stay where the caller
/// keeps them, in storage order.
struct Prepared<'f> {
    recipe_ns: u64,
    recipe_cache_hit: bool,
    /// Wall and CPU nanoseconds of the bound pass.
    bound_ns: u64,
    bound_cpu_ns: u64,
    recipe: Arc<RestoreRecipe>,
    /// Per field: storage-order values and resolved absolute bound.
    fields: Vec<(&'f [f64], Option<f64>)>,
    plan: Arc<ChunkPlan>,
    header: StoreHeader,
    params: CodecParams,
    raw_bytes: usize,
}

impl Prepared<'_> {
    /// One write job: chunks `run` of field `f` under the field's resolved
    /// bound.
    fn encode(
        &self,
        codec: &(dyn Codec + Send + Sync),
        f: usize,
        run: Range<usize>,
    ) -> Result<EncodedRun, CodecError> {
        let (values, bound) = self.fields[f];
        let mut params = self.params;
        if let Some(bound) = bound {
            params.control = ErrorControl::Absolute(bound);
        }
        let perm = self.recipe.permutation();
        encode_run(codec, values, perm, &params, self.plan.chunk_values, run)
    }
}

impl StoreWriter {
    /// Writer with default [`StoreWriteOptions`] and a private cache.
    pub fn new(config: CompressionConfig) -> Self {
        Self::with_options(config, StoreWriteOptions::default())
    }

    /// Writer with explicit options and a private cache.
    pub fn with_options(config: CompressionConfig, options: StoreWriteOptions) -> Self {
        Self {
            config,
            options: StoreWriteOptions {
                chunk_target_bytes: options.chunk_target_bytes.max(8),
                ..options
            },
            cache: std::sync::Arc::new(RecipeCache::new()),
            last_plan: PlanMemo::default(),
        }
    }

    /// Sets the uncompressed bytes each chunk targets (min 8 = one value).
    pub fn with_chunk_target_bytes(mut self, bytes: u32) -> Self {
        self.options.chunk_target_bytes = bytes.max(8);
        self
    }

    /// Sets the erasure-protection scheme (and with it the emitted format
    /// version).
    pub fn with_parity(mut self, parity: Parity) -> Self {
        self.options.parity = parity;
        self
    }

    /// Back-compat knob: an XOR group width (`0` disables parity ⇒ v2
    /// output, `w > 0` ⇒ v3 XOR groups of `w`).
    pub fn with_parity_group_width(self, width: u32) -> Self {
        self.with_parity(if width == 0 {
            Parity::None
        } else {
            Parity::Xor { width }
        })
    }

    /// Shares a recipe cache with other writers/readers.
    pub fn with_cache(mut self, cache: std::sync::Arc<RecipeCache>) -> Self {
        self.cache = cache;
        self
    }

    /// The writer's recipe cache.
    pub fn cache(&self) -> &std::sync::Arc<RecipeCache> {
        &self.cache
    }

    /// The compression configuration in use.
    pub fn config(&self) -> CompressionConfig {
        self.config
    }

    /// The write options in use.
    pub fn options(&self) -> StoreWriteOptions {
        self.options
    }

    /// The chunk plan of `recipe` at `chunk_values`: the writer's last plan
    /// when it framed this same cached recipe, else planned from `keys`
    /// (the build's, on a cache miss) or from the keys of a fresh walk.
    fn plan(
        &self,
        tree: &AmrTree,
        recipe: &Arc<RestoreRecipe>,
        keys: Option<StreamKeys>,
        chunk_values: usize,
    ) -> Arc<ChunkPlan> {
        // The lock is not held while planning: the plan runs on the rayon
        // pool, which may start another write of this writer meanwhile.
        let last = || self.last_plan.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((r, plan)) = &*last() {
            if Arc::ptr_eq(r, recipe) && plan.chunk_values == chunk_values {
                return Arc::clone(plan);
            }
        }
        let (policy, grouping) = (recipe.policy(), recipe.grouping());
        let keys = keys.unwrap_or_else(|| RestoreRecipe::build_keyed(tree, policy, grouping).1);
        let perm = recipe.permutation();
        let plan = Arc::new(plan_keyed(tree, perm, &keys, grouping, chunk_values));
        *last() = Some((Arc::clone(recipe), Arc::clone(&plan)));
        plan
    }

    /// The preamble of every write: validate inputs, obtain the recipe
    /// (build or cache hit) and plan chunks from its curve keys, resolve
    /// every field's bound in parallel, and build the header. Everything
    /// downstream of this is per-field, per-chunk gather + compression plus
    /// layout.
    fn prepare<'f>(&self, fields: &[(&str, &'f AmrField)]) -> Result<Prepared<'f>, StoreError> {
        self.options.parity.validate()?;
        let (_, first) = fields
            .first()
            .ok_or(StoreError::Zmesh(ZmeshError::Mismatch(
                "no fields to write",
            )))?;
        let tree = first.tree();
        let mode = first.mode();
        for (_, f) in fields {
            if !std::sync::Arc::ptr_eq(f.tree(), tree) {
                return Err(ZmeshError::Mismatch("fields on different trees").into());
            }
            if f.mode() != mode {
                return Err(ZmeshError::Mismatch("fields with different storage modes").into());
            }
        }

        let grouping = GroupingMode::from_storage_mode(mode);
        let structure = tree.structure_bytes();
        let policy = self.config.policy;
        let t0 = Instant::now();
        let (recipe, recipe_cache_hit, keys) = self
            .cache
            .get_or_build_with_keys(tree, &structure, policy, grouping);
        let chunk_values = (self.options.chunk_target_bytes as usize / 8).max(1);
        let plan = self.plan(tree, &recipe, keys, chunk_values);
        let recipe_ns = t0.elapsed().as_nanos() as u64;

        let params = CodecParams {
            control: self.config.control,
            dims: [0, 0, 0],
            value_type: ValueType::F64,
        };

        // Resolve each field's error bound against the *whole* field, one
        // parallel job per field, so every chunk of a field honors the same
        // pointwise absolute bound and the result is distortion-identical
        // to a one-chunk-per-field write. The storage-order values hold the
        // same multiset as the stream, so the bound is the stream's.
        let t1 = Instant::now();
        let bounds: Vec<(Option<f64>, u64)> = fields
            .par_iter()
            .map(|(_, field)| {
                let t = Instant::now();
                let bound = self.config.control.absolute_bound(field.values());
                (bound, t.elapsed().as_nanos() as u64)
            })
            .collect();
        let bound_ns = t1.elapsed().as_nanos() as u64;
        let bound_cpu_ns = bounds.iter().map(|(_, ns)| ns).sum();

        let header = StoreHeader {
            version: self.options.parity.store_version(),
            policy: self.config.policy,
            mode,
            codec: self.config.codec,
            value_type: ValueType::F64,
            chunk_target_bytes: self.options.chunk_target_bytes,
            parity_group_width: self.options.parity.width(),
            parity_shards: self.options.parity.shards(),
            structure,
            header_bytes: 0,
        };

        let raw_bytes: usize = fields.iter().map(|(_, f)| f.nbytes()).sum();
        Ok(Prepared {
            recipe_ns,
            recipe_cache_hit,
            bound_ns,
            bound_cpu_ns,
            recipe,
            fields: fields
                .iter()
                .zip(bounds)
                .map(|((_, field), (bound, _))| (field.values(), bound))
                .collect(),
            plan,
            header,
            params,
            raw_bytes,
        })
    }

    /// Compresses `fields` (sharing one mesh) into a chunked, indexed
    /// store in memory: [`StoreWriter::write_to_sink`] into a [`VecSink`]
    /// with an unbounded window. The stream framing (and hence the index
    /// size) is identical for every ordering policy; only payload bytes
    /// differ.
    pub fn write(&self, fields: &[(&str, &AmrField)]) -> Result<StoreWritten, StoreError> {
        let mut sink = VecSink::new();
        let opts = StreamOptions {
            window_bytes: 0,
            ..StreamOptions::default()
        };
        let stats = self.write_to_sink(fields, &mut sink, &opts)?;
        Ok(StoreWritten {
            bytes: sink.into_bytes(),
            stats,
        })
    }
}

/// Admission state of the window: encoder threads take the next run of
/// chunks in layout order only when its raw bytes fit the window (or
/// nothing is in flight — the progress guarantee for chunks larger than
/// the whole window).
struct WindowState {
    next_chunk: usize,
    inflight_jobs: usize,
    inflight_bytes: usize,
    abort: bool,
}

/// Consecutive chunks of one field a write job encodes together: the SZ
/// codec advances that many independent chunk streams in one pass.
pub(crate) const RUN_CHUNKS: usize = zmesh_codecs::sz::LANES;

/// One compressed chunk and its CRC-32.
pub(crate) type EncodedChunk = (Vec<u8>, u32);

/// A finished job: its compressed chunks in order, and the nanoseconds
/// its gather took.
pub(crate) type EncodedRun = (Vec<EncodedChunk>, u64);

/// Wall nanoseconds of one job and the part of them its gather took.
struct JobTime {
    ns: u64,
    gather_ns: u64,
}

/// Raw (uncompressed) bytes of chunks `run` — the admission cost of a job
/// (and the size of its gather buffer).
fn run_cost(plan: &ChunkPlan, run: Range<usize>) -> usize {
    run.map(|c| plan.stream_range(c).len() * 8).sum()
}

/// The write job: chunks `run` of the stream `perm` reads out of the
/// storage-order `values` (framed at `chunk_values` values per chunk),
/// gathered into a job-local buffer and compressed together under
/// `params`, each with its CRC. Repair's raw re-encode runs the same job,
/// so its chunks match the writer's byte for byte.
pub(crate) fn encode_run(
    codec: &(dyn Codec + Send + Sync),
    values: &[f64],
    perm: &[u32],
    params: &CodecParams,
    chunk_values: usize,
    run: Range<usize>,
) -> Result<EncodedRun, CodecError> {
    let t = Instant::now();
    let positions = run.start * chunk_values..(run.end * chunk_values).min(perm.len());
    let stream: Vec<f64> = perm[positions]
        .iter()
        .map(|&i| values[i as usize])
        .collect();
    let gather_ns = t.elapsed().as_nanos() as u64;
    let out = codec.compress_chunks(&stream, params, chunk_values)?;
    let chunks = out
        .payloads
        .into_iter()
        .map(|bytes| {
            let crc = crc32(&bytes);
            (bytes, crc)
        })
        .collect();
    Ok((chunks, gather_ns))
}

impl StoreWriter {
    /// Streams `fields` into `sink` through a bounded compress→write
    /// window: encoder threads compress jobs (runs of up to eight chunks of
    /// one field, each shortened until its raw bytes fit the window) ahead
    /// of the writer while this thread lays finished chunks out in layout
    /// order, then the parity section, footer, trailer, and commit record,
    /// and finally calls [`ByteSink::commit`]. The emitted bytes are the
    /// same at any window size and thread count; peak encode-buffer memory
    /// is bounded by [`StreamOptions::window_bytes`] (with parity enabled,
    /// the accumulated parity shards — ≈ payload/width bytes —
    /// additionally stay resident until the parity section is written).
    ///
    /// Transient sink-write failures retry under [`StreamOptions::retry`]
    /// (accounted in [`StoreWriteStats::retry`]); any other failure aborts
    /// the write — a [`crate::FileSink`] then removes its temp file on
    /// drop, leaving a pre-existing destination untouched.
    pub fn write_to_sink<K: ByteSink + ?Sized>(
        &self,
        fields: &[(&str, &AmrField)],
        sink: &mut K,
        opts: &StreamOptions,
    ) -> Result<StoreWriteStats, StoreError> {
        let prep = self.prepare(fields)?;
        let codec = codec_for(self.config.codec);
        let codec = &*codec;
        let n_chunks = prep.plan.metas.len();
        let n_fields = fields.len();
        let total_chunks = n_fields * n_chunks;
        let window = opts.window_bytes;

        let entries: Vec<FieldEntry> = fields
            .iter()
            .zip(&prep.fields)
            .map(|((name, _), (_, bound))| FieldEntry {
                name: (*name).to_string(),
                resolved_bound: *bound,
                // Unbounded controls leave no resolved bound to re-encode
                // from, so the footer records the control itself — this is
                // what lets `repair --from-raw` reproduce fixed-rate /
                // fixed-precision fields bit-exactly.
                control: bound.is_none().then_some(self.config.control),
                chunks: prep.plan.metas.clone(),
                parity: Vec::new(),
            })
            .collect();
        let mut layout = Layout::new(sink, &prep.header, entries, opts.retry)?;

        let n_workers = rayon::current_num_threads().clamp(1, total_chunks.max(1));
        let state = Mutex::new(WindowState {
            next_chunk: 0,
            inflight_jobs: 0,
            inflight_bytes: 0,
            abort: false,
        });
        let admit = Condvar::new();
        // Compressed bytes currently resident between encoder and sink —
        // the observable the O(window) claim is asserted on.
        let resident = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let (mut encode_cpu_ns, mut gather_ns) = (0u64, 0u64);

        let t2 = Instant::now();
        type JobResult = Result<(Vec<EncodedChunk>, JobTime), CodecError>;
        let (tx, rx) = mpsc::channel::<(usize, JobResult)>();
        let data_phase: Result<(), StoreError> = std::thread::scope(|scope| {
            for _ in 0..n_workers {
                let tx = tx.clone();
                let (state, admit) = (&state, &admit);
                let (resident, peak) = (&resident, &peak);
                let prep = &prep;
                scope.spawn(move || loop {
                    // Admission: take the next run in layout order — up to
                    // RUN_CHUNKS chunks of one field, shortened until its
                    // raw bytes fit the window (at least one chunk) — once
                    // it fits beside what is in flight. `inflight_jobs == 0`
                    // is the progress guarantee for oversized chunks.
                    let (first, run) = {
                        let mut st = state.lock().expect("window state poisoned");
                        loop {
                            if st.abort || st.next_chunk >= total_chunks {
                                return;
                            }
                            let first = st.next_chunk;
                            let c = first % n_chunks;
                            let mut run = c..(c + RUN_CHUNKS).min(n_chunks);
                            while window > 0
                                && run.len() > 1
                                && run_cost(&prep.plan, run.clone()) > window
                            {
                                run.end -= 1;
                            }
                            let cost = run_cost(&prep.plan, run.clone());
                            if st.inflight_jobs == 0
                                || window == 0
                                || st.inflight_bytes + cost <= window
                            {
                                st.next_chunk += run.len();
                                st.inflight_jobs += 1;
                                st.inflight_bytes += cost;
                                break (first, run);
                            }
                            st = admit.wait(st).expect("window state poisoned");
                        }
                    };
                    let t = Instant::now();
                    let result: JobResult =
                        prep.encode(codec, first / n_chunks, run)
                            .map(|(chunks, gather)| {
                                let bytes: usize = chunks.iter().map(|(b, _)| b.len()).sum();
                                let now = resident.fetch_add(bytes, Ordering::Relaxed) + bytes;
                                peak.fetch_max(now, Ordering::Relaxed);
                                let job = JobTime {
                                    ns: t.elapsed().as_nanos() as u64,
                                    gather_ns: gather,
                                };
                                (chunks, job)
                            });
                    let failed = result.is_err();
                    let _ = tx.send((first, result));
                    if failed {
                        return;
                    }
                });
            }
            drop(tx);

            // Consumer (this thread): reorder out-of-order completions and
            // lay chunks out strictly in layout order, releasing a run's
            // window budget once its last chunk lands in the sink.
            let mut consume = || -> Result<(), StoreError> {
                let mut pending = BTreeMap::new();
                let mut next_write = 0usize;
                while next_write < total_chunks {
                    let (idx, result) = rx.recv().map_err(|_| {
                        StoreError::Internal("encode pipeline ended before the last chunk")
                    })?;
                    pending.insert(idx, result?);
                    while let Some((chunks, job)) = pending.remove(&next_write) {
                        encode_cpu_ns += job.ns - job.gather_ns;
                        gather_ns += job.gather_ns;
                        for (bytes, crc) in &chunks {
                            layout.push(bytes, *crc)?;
                            resident.fetch_sub(bytes.len(), Ordering::Relaxed);
                        }
                        let first = next_write % n_chunks;
                        next_write += chunks.len();
                        {
                            let mut st = state.lock().expect("window state poisoned");
                            st.inflight_jobs -= 1;
                            st.inflight_bytes -= run_cost(&prep.plan, first..first + chunks.len());
                        }
                        admit.notify_all();
                    }
                }
                Ok(())
            };
            let out = consume();
            // Wake any encoder still parked on admission so the scope can
            // join — harmless when everything already drained.
            state.lock().expect("window state poisoned").abort = true;
            admit.notify_all();
            out
        });
        data_phase?;
        let laid = layout.finish()?;
        // The gathers run inside the jobs; their wall share of the phase is
        // their CPU time spread over the encoder threads.
        let gather_wall_ns = gather_ns / n_workers as u64;
        let encode_ns = (t2.elapsed().as_nanos() as u64).saturating_sub(gather_wall_ns);
        sink.flush()?;
        sink.commit()?;

        Ok(StoreWriteStats {
            recipe_ns: prep.recipe_ns,
            recipe_cache_hit: prep.recipe_cache_hit,
            reorder_ns: prep.bound_ns + gather_wall_ns,
            reorder_cpu_ns: prep.bound_cpu_ns + gather_ns,
            encode_ns,
            encode_cpu_ns,
            encode_threads: n_workers,
            n_fields,
            n_chunks,
            raw_bytes: prep.raw_bytes,
            container_bytes: laid.container_bytes,
            payload_bytes: laid.payload_bytes,
            parity_bytes: laid.parity_bytes,
            parity_groups: n_fields * group_count(n_chunks, self.options.parity.width() as usize),
            metadata_bytes: laid.container_bytes - laid.payload_bytes - laid.parity_bytes,
            window_bytes: window,
            peak_buffer_bytes: peak.load(Ordering::Relaxed),
            peak_rss_bytes: process_peak_rss(),
            retry: laid.retry,
        })
    }

    /// [`StoreWriter::write_to_sink`] into a crash-consistent
    /// [`crate::FileSink`] at `path`: bytes stream into `<path>.tmp` in
    /// O(window) memory and the commit publishes them atomically. On any
    /// error the temp file is removed and a pre-existing `path` is
    /// untouched; `ENOSPC` surfaces as [`StoreError::NoSpace`].
    #[cfg(unix)]
    pub fn write_streaming_to_path(
        &self,
        fields: &[(&str, &AmrField)],
        path: &Path,
        opts: &StreamOptions,
    ) -> Result<StoreWriteStats, StoreError> {
        let mut sink = crate::sink::FileSink::create(path)?;
        self.write_to_sink(fields, &mut sink, opts)
    }

    /// [`StoreWriter::write`] followed by a crash-consistent
    /// [`persist_store`] to `path`: readers see either the previous file
    /// or the complete new store, never a torn intermediate.
    pub fn write_to_path(
        &self,
        fields: &[(&str, &AmrField)],
        path: &Path,
    ) -> Result<StoreWritten, StoreError> {
        let out = self.write(fields)?;
        persist_store(&out.bytes, path)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{tmp_path, VecSink};
    use zmesh_amr::{datasets, StorageMode};

    fn small_fields(ds: &datasets::Dataset) -> Vec<(&str, &AmrField)> {
        ds.fields.iter().map(|(n, f)| (n.as_str(), f)).collect()
    }

    #[test]
    fn write_produces_parseable_store() {
        let ds = datasets::blast2d(StorageMode::AllCells, datasets::Scale::Tiny);
        let writer =
            StoreWriter::new(CompressionConfig::zmesh_default()).with_chunk_target_bytes(2048);
        let out = writer.write(&small_fields(&ds)).unwrap();
        assert!(crate::format::is_store(&out.bytes));
        assert!(out.stats.n_chunks >= 2, "want multiple chunks");
        assert_eq!(out.stats.n_fields, ds.fields.len());
        assert_eq!(
            out.stats.container_bytes,
            out.stats.payload_bytes + out.stats.parity_bytes + out.stats.metadata_bytes
        );
        assert!(out.stats.parity_groups > 0);
        assert!(out.stats.ratio() > 1.0);
    }

    #[test]
    fn parity_overhead_is_bounded_by_group_width() {
        let ds = datasets::blast2d(StorageMode::AllCells, datasets::Scale::Tiny);
        let writer = StoreWriter::new(CompressionConfig::zmesh_default())
            .with_chunk_target_bytes(1024)
            .with_parity_group_width(4);
        let out = writer.write(&small_fields(&ds)).unwrap();
        assert!(out.stats.parity_bytes > 0);
        // Each group's parity chunk is as long as its *largest* member, so
        // the overhead can exceed 1/width when chunk sizes vary — but never
        // by more than ~2x for these well-behaved payloads.
        assert!(
            out.stats.parity_overhead() <= 2.0 / 4.0,
            "overhead {} too large",
            out.stats.parity_overhead()
        );
    }

    #[test]
    fn zero_parity_width_writes_a_v2_store() {
        let ds = datasets::blast2d(StorageMode::AllCells, datasets::Scale::Tiny);
        let writer = StoreWriter::new(CompressionConfig::zmesh_default())
            .with_chunk_target_bytes(2048)
            .with_parity_group_width(0);
        let out = writer.write(&small_fields(&ds)).unwrap();
        assert_eq!(out.stats.parity_bytes, 0);
        assert_eq!(out.stats.parity_groups, 0);
        let (header, fields, _) = crate::format::open(&out.bytes).unwrap();
        assert_eq!(header.version, 2);
        assert!(!header.capabilities().parity);
        assert!(fields.iter().all(|f| f.parity.is_empty()));
    }

    #[test]
    fn rs_parity_writes_a_v4_store_with_m_shards_per_group() {
        let ds = datasets::blast2d(StorageMode::AllCells, datasets::Scale::Tiny);
        let writer = StoreWriter::new(CompressionConfig::zmesh_default())
            .with_chunk_target_bytes(1024)
            .with_parity(Parity::Rs { data: 4, parity: 2 });
        let out = writer.write(&small_fields(&ds)).unwrap();
        let (header, fields, _) = crate::format::open(&out.bytes).unwrap();
        assert_eq!(header.version, 4);
        assert_eq!(header.scheme(), Parity::Rs { data: 4, parity: 2 });
        assert_eq!(header.capabilities().erasure_budget, 2);
        let groups = group_count(out.stats.n_chunks, 4);
        for f in &fields {
            assert_eq!(f.parity.len(), groups * 2);
        }
        // Two shards per group cost roughly twice one XOR chunk.
        assert!(out.stats.parity_overhead() > 0.0);
        assert!(out.stats.parity_overhead() <= 2.0 * 2.0 / 4.0);
    }

    #[test]
    fn invalid_parity_geometry_is_rejected_up_front() {
        let ds = datasets::blast2d(StorageMode::AllCells, datasets::Scale::Tiny);
        for parity in [
            Parity::Rs { data: 0, parity: 2 },
            Parity::Rs { data: 8, parity: 0 },
            Parity::Rs {
                data: 250,
                parity: 10,
            },
            Parity::Xor { width: 0 },
        ] {
            let writer = StoreWriter::new(CompressionConfig::zmesh_default()).with_parity(parity);
            assert!(
                matches!(
                    writer.write(&small_fields(&ds)),
                    Err(StoreError::InvalidOptions(_))
                ),
                "{parity:?} must be rejected"
            );
        }
    }

    #[test]
    fn persist_replaces_the_target_atomically() {
        let dir = std::env::temp_dir().join(format!("zmesh-persist-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.zms");
        std::fs::write(&path, b"old contents").unwrap();
        let ds = datasets::blast2d(StorageMode::AllCells, datasets::Scale::Tiny);
        let writer = StoreWriter::new(CompressionConfig::zmesh_default());
        let out = writer.write_to_path(&small_fields(&ds), &path).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), out.bytes);
        assert!(
            !tmp_path(&path).exists(),
            "temp file must not survive a successful persist"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn second_write_hits_the_recipe_cache() {
        let ds = datasets::blast2d(StorageMode::AllCells, datasets::Scale::Tiny);
        let writer = StoreWriter::new(CompressionConfig::zmesh_default());
        let last_plan = |w: &StoreWriter| {
            let last = w.last_plan.lock().unwrap();
            Arc::clone(&last.as_ref().expect("a write plans").1)
        };
        let first = writer.write(&small_fields(&ds)).unwrap();
        let plan = last_plan(&writer);
        let second = writer.write(&small_fields(&ds)).unwrap();
        assert!(!first.stats.recipe_cache_hit);
        assert!(second.stats.recipe_cache_hit);
        assert_eq!(writer.cache().stats().hits, 1);
        // The hit also reuses the plan, and writes the same bytes.
        assert!(Arc::ptr_eq(&plan, &last_plan(&writer)));
        assert_eq!(first.bytes, second.bytes);

        // A clone shares cache and memo; at another chunk size it plans
        // afresh (from freshly computed keys) and matches a new writer.
        let resized = writer.clone().with_chunk_target_bytes(1024);
        let third = resized.write(&small_fields(&ds)).unwrap();
        assert!(third.stats.recipe_cache_hit);
        assert!(!Arc::ptr_eq(&plan, &last_plan(&resized)));
        let fresh = StoreWriter::new(CompressionConfig::zmesh_default())
            .with_chunk_target_bytes(1024)
            .write(&small_fields(&ds))
            .unwrap();
        assert_eq!(third.bytes, fresh.bytes);
    }

    #[test]
    fn output_is_byte_identical_at_any_parallelism() {
        let ds = datasets::blast2d(StorageMode::AllCells, datasets::Scale::Tiny);
        for (parity, window_bytes) in [
            (Parity::default(), 0),
            (Parity::Rs { data: 4, parity: 3 }, 0),
            (Parity::Rs { data: 3, parity: 2 }, 2048),
        ] {
            let writer = StoreWriter::new(CompressionConfig::zmesh_default())
                .with_chunk_target_bytes(1024)
                .with_parity(parity);
            let opts = StreamOptions {
                window_bytes,
                ..StreamOptions::default()
            };
            let write = || {
                let mut sink = VecSink::new();
                let stats = writer
                    .write_to_sink(&small_fields(&ds), &mut sink, &opts)
                    .unwrap();
                assert!(stats.n_chunks >= 4);
                sink.into_bytes()
            };
            let serial = rayon::ThreadPoolBuilder::new()
                .num_threads(1)
                .build()
                .unwrap()
                .install(write);
            assert_eq!(write(), serial, "{parity:?} window {window_bytes}");
        }
    }

    #[test]
    fn stats_split_wall_and_cpu_time() {
        let ds = datasets::blast2d(StorageMode::AllCells, datasets::Scale::Small);
        let writer =
            StoreWriter::new(CompressionConfig::zmesh_default()).with_chunk_target_bytes(4096);
        let t = Instant::now();
        let out = writer.write(&small_fields(&ds)).unwrap();
        let wall_ns = t.elapsed().as_nanos() as u64;
        let s = out.stats;
        // The stages partition the write: none overlaps another.
        assert!(s.recipe_ns + s.reorder_ns + s.encode_ns <= wall_ns);
        assert!(s.encode_ns > 0);
        assert!(s.encode_cpu_ns > 0);
        assert!(s.reorder_cpu_ns > 0);
        assert!(s.encode_threads >= 1);
        assert!(s.encode_parallelism() > 0.0);
        // CPU time is a sum over jobs: with more than one worker it can
        // exceed wall time, but it can never be wildly below it (each
        // job's time is contained in the phase).
        assert!(
            s.encode_cpu_ns <= s.encode_ns.saturating_mul(s.encode_threads as u64 + 1),
            "cpu {} vs wall {} on {} threads",
            s.encode_cpu_ns,
            s.encode_ns,
            s.encode_threads
        );
    }

    #[test]
    fn rejects_mixed_inputs() {
        let a = datasets::blast2d(StorageMode::AllCells, datasets::Scale::Tiny);
        let b = datasets::front2d(StorageMode::AllCells, datasets::Scale::Tiny);
        let writer = StoreWriter::new(CompressionConfig::zmesh_default());
        let mixed = vec![("x", &a.fields[0].1), ("y", &b.fields[0].1)];
        assert!(matches!(
            writer.write(&mixed),
            Err(StoreError::Zmesh(ZmeshError::Mismatch(_)))
        ));
        let leaf = AmrField::sample(std::sync::Arc::clone(&a.tree), StorageMode::LeafOnly, |p| {
            p[0]
        });
        let modes = vec![("x", &a.fields[0].1), ("y", &leaf)];
        assert!(matches!(
            writer.write(&modes),
            Err(StoreError::Zmesh(ZmeshError::Mismatch(_)))
        ));
        assert!(writer.write(&[]).is_err());
    }

    #[test]
    fn every_window_writes_the_same_bytes_for_every_scheme() {
        let ds = datasets::blast2d(StorageMode::AllCells, datasets::Scale::Tiny);
        for parity in [
            Parity::None,
            Parity::Xor { width: 3 },
            Parity::Rs { data: 4, parity: 2 },
        ] {
            let writer = StoreWriter::new(CompressionConfig::zmesh_default())
                .with_chunk_target_bytes(1024)
                .with_parity(parity);
            let unbounded = writer.write(&small_fields(&ds)).unwrap();
            for window in [1024usize, 3 * 1024, 1 << 30] {
                let mut sink = VecSink::new();
                let stats = writer
                    .write_to_sink(
                        &small_fields(&ds),
                        &mut sink,
                        &StreamOptions {
                            window_bytes: window,
                            ..StreamOptions::default()
                        },
                    )
                    .unwrap();
                assert_eq!(
                    sink.bytes(),
                    &unbounded.bytes[..],
                    "{parity:?} window={window}"
                );
                assert_eq!(stats.window_bytes, window);
                assert_eq!(stats.container_bytes, unbounded.stats.container_bytes);
                assert_eq!(stats.payload_bytes, unbounded.stats.payload_bytes);
                assert_eq!(stats.parity_bytes, unbounded.stats.parity_bytes);
                assert_eq!(stats.parity_groups, unbounded.stats.parity_groups);
                assert_eq!(stats.retry, RetryStats::default());
            }
        }
    }

    #[test]
    fn streaming_window_bounds_the_encode_buffer() {
        let ds = datasets::blast2d(StorageMode::AllCells, datasets::Scale::Small);
        let writer =
            StoreWriter::new(CompressionConfig::zmesh_default()).with_chunk_target_bytes(1024);
        // A window of three chunks, far below the raw dataset size.
        let window = 3 * 1024;
        let mut sink = VecSink::new();
        let stats = writer
            .write_to_sink(
                &small_fields(&ds),
                &mut sink,
                &StreamOptions {
                    window_bytes: window,
                    ..StreamOptions::default()
                },
            )
            .unwrap();
        assert!(
            stats.raw_bytes > window,
            "dataset must exceed the window for the bound to mean anything"
        );
        assert!(stats.peak_buffer_bytes > 0);
        assert!(
            stats.peak_buffer_bytes <= window,
            "peak encode buffer {} exceeds window {window}",
            stats.peak_buffer_bytes
        );
        // The unbounded window produces the same bytes. (Its peak buffer
        // is *usually* larger but depends on scheduling, so only the
        // bounded invariant above is asserted.)
        let mut unbounded = VecSink::new();
        writer
            .write_to_sink(
                &small_fields(&ds),
                &mut unbounded,
                &StreamOptions {
                    window_bytes: 0,
                    ..StreamOptions::default()
                },
            )
            .unwrap();
        assert_eq!(unbounded.bytes(), sink.bytes());
    }

    #[cfg(unix)]
    #[test]
    fn write_streaming_to_path_round_trips() {
        let dir = std::env::temp_dir().join(format!("zmesh-stream-path-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.zms");
        let ds = datasets::blast2d(StorageMode::AllCells, datasets::Scale::Tiny);
        let writer =
            StoreWriter::new(CompressionConfig::zmesh_default()).with_chunk_target_bytes(1024);
        let in_memory = writer.write(&small_fields(&ds)).unwrap();
        let stats = writer
            .write_streaming_to_path(
                &small_fields(&ds),
                &path,
                &StreamOptions {
                    window_bytes: 4096,
                    ..StreamOptions::default()
                },
            )
            .unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), in_memory.bytes);
        assert_eq!(stats.container_bytes, in_memory.bytes.len());
        assert!(!tmp_path(&path).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn process_peak_rss_reports_on_linux() {
        let rss = process_peak_rss();
        if cfg!(target_os = "linux") {
            assert!(rss > 0, "VmHWM must be readable on linux");
        }
    }
}
