//! The store reader: open a v2/v3/v4 container and answer spatial queries
//! by decoding only the chunks that overlap.
//!
//! On-disk bytes are treated as **untrusted**. Every chunk carries its own
//! CRC, so damage is contained per chunk; the [`ReadPolicy`] decides what
//! happens when a chunk fails: [`ReadPolicy::Strict`] (the default) aborts
//! with a typed error, [`ReadPolicy::Salvage`] first tries to
//! **reconstruct** the chunk from its parity group — XOR (v3, one erasure
//! per group) or GF(2^8) Reed–Solomon (v4, up to `m` erasures per group) —
//! and only when that fails skips it, keeps every surviving cell, and
//! reports the loss in a [`DamageReport`].

use crate::cache::RecipeCache;
use crate::chunk::ChunkMeta;
use crate::chunk_cache::{ChunkCache, ChunkKey, ChunkValues, Claim};
use crate::format::{self, ChunkKind, FieldEntry, Spans, StoreError, StoreHeader};
use crate::parity::{group_members, group_of, Parity};
use crate::source::{ByteSource, SliceSource};
use std::borrow::Cow;
use std::ops::Range;
use std::sync::Arc;
use zmesh::{codec_for, GroupingMode, RestoreRecipe};
use zmesh_amr::{AmrField, AmrTree, CellCoord, Dim};
use zmesh_sfc::{bbox_meets_interval_2d, bbox_meets_interval_3d};

/// The value salvage reads substitute for cells that could not be
/// recovered (NaN by default; `Zero` for consumers that choke on NaN).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SalvageFill {
    /// Fill lost cells with `f64::NAN` — unambiguous, but poisons naive
    /// reductions.
    #[default]
    Nan,
    /// Fill lost cells with `0.0`.
    Zero,
}

impl SalvageFill {
    /// The actual fill value.
    pub fn value(self) -> f64 {
        match self {
            SalvageFill::Nan => f64::NAN,
            SalvageFill::Zero => 0.0,
        }
    }
}

/// How a [`StoreReader`] treats chunks that fail their CRC or decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReadPolicy {
    /// Any damaged chunk aborts the read with a typed error (the safe
    /// default: you either get exactly what was written or an error).
    #[default]
    Strict,
    /// Damaged chunks are reconstructed from parity when possible (v3
    /// stores, single failure per group) and otherwise skipped: full
    /// decodes fill the lost cells with `fill`, queries drop them, and
    /// every repair or loss is itemized in a [`DamageReport`].
    /// Container-level damage (bad magic, truncated or CRC-failing index)
    /// still errors — without a trustworthy index there is nothing to
    /// salvage from.
    Salvage {
        /// What lost (unreconstructable) cells decode to.
        fill: SalvageFill,
    },
}

impl ReadPolicy {
    /// Salvage with the default `NaN` fill.
    pub fn salvage() -> Self {
        ReadPolicy::Salvage {
            fill: SalvageFill::default(),
        }
    }

    /// Whether this policy tolerates (and reports) chunk damage.
    pub fn is_salvage(self) -> bool {
        matches!(self, ReadPolicy::Salvage { .. })
    }

    /// The salvage fill, when salvaging.
    pub fn salvage_fill(self) -> Option<SalvageFill> {
        match self {
            ReadPolicy::Strict => None,
            ReadPolicy::Salvage { fill } => Some(fill),
        }
    }
}

/// Bounded retry-with-exponential-backoff for *transient* read and write
/// failures ([`StoreError::IoTransient`]: `EINTR`, `EAGAIN`, `EIO`,
/// timeouts).
///
/// Attempt `n` (0-based) sleeps `base · 2ⁿ`, capped at `cap`, before
/// retrying; after `attempts` total tries the last error surfaces
/// unchanged. Permanent errors (corruption, truncation, `Io`) never
/// retry. [`RetryPolicy::none`] disables retrying entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (≥ 1; the first try counts).
    pub attempts: u32,
    /// Backoff before the first retry.
    pub base: std::time::Duration,
    /// Ceiling on any single backoff sleep.
    pub cap: std::time::Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            attempts: 3,
            base: std::time::Duration::from_millis(2),
            cap: std::time::Duration::from_millis(50),
        }
    }
}

impl RetryPolicy {
    /// No retrying: every transient failure surfaces immediately.
    pub fn none() -> Self {
        Self {
            attempts: 1,
            ..Self::default()
        }
    }

    /// Runs `op`, retrying transient failures with exponential backoff and
    /// counting them into `counters`. At least one attempt is always made;
    /// non-transient failures surface immediately. Every retried operation
    /// is idempotent: sources read at an explicit offset, and sinks append
    /// at an offset that only advances on success.
    pub(crate) fn run<T>(
        &self,
        counters: &RetryCounters,
        mut op: impl FnMut() -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        use std::sync::atomic::Ordering;
        let mut attempt = 0u32;
        loop {
            match op() {
                Err(e) if e.is_transient() => {
                    attempt += 1;
                    if attempt >= self.attempts.max(1) {
                        counters.gave_up.fetch_add(1, Ordering::Relaxed);
                        return Err(e);
                    }
                    counters.retries.fetch_add(1, Ordering::Relaxed);
                    let backoff = self
                        .base
                        .saturating_mul(1u32 << (attempt - 1).min(16))
                        .min(self.cap);
                    if !backoff.is_zero() {
                        std::thread::sleep(backoff);
                    }
                }
                other => return other,
            }
        }
    }
}

/// What a retry loop has done so far — surfaced like
/// [`crate::CacheStats`], via [`StoreReader::retry_stats`] (reads) and
/// [`crate::StoreWriteStats::retry`] (writes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Transient failures that were retried (each retry counts once).
    pub retries: u64,
    /// Operations that exhausted every attempt and surfaced the failure.
    pub gave_up: u64,
}

/// The live counters behind a [`RetryStats`] snapshot, shared by every
/// [`RetryPolicy::run`] of one reader or writer.
#[derive(Debug, Default)]
pub(crate) struct RetryCounters {
    retries: std::sync::atomic::AtomicU64,
    gave_up: std::sync::atomic::AtomicU64,
}

impl RetryCounters {
    pub(crate) fn stats(&self) -> RetryStats {
        use std::sync::atomic::Ordering;
        RetryStats {
            retries: self.retries.load(Ordering::Relaxed),
            gave_up: self.gave_up.load(Ordering::Relaxed),
        }
    }
}

/// What became of one damaged chunk under salvage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DamageStatus {
    /// The chunk failed its CRC but was rebuilt from its parity group and
    /// re-verified — no data was lost.
    Repaired,
    /// The chunk could not be recovered; its cells decode to the salvage
    /// fill (full decode) or are dropped (query).
    Lost,
}

/// One chunk a salvage read found damaged (whether or not parity could
/// repair it — see [`DamagedChunk::status`]).
#[derive(Debug, Clone, PartialEq)]
pub struct DamagedChunk {
    /// Field the chunk belongs to.
    pub field: String,
    /// Chunk index within the field, in stream order.
    pub chunk: usize,
    /// Byte range of the chunk's payload within the store buffer
    /// (saturated if the recorded offset/length ran past the payload).
    pub byte_range: Range<usize>,
    /// Stream values (= cells) lost with this chunk — `0` when the chunk
    /// was [`DamageStatus::Repaired`].
    pub values_lost: usize,
    /// Why the chunk was rejected.
    pub error: StoreError,
    /// Whether parity reconstruction recovered the chunk.
    pub status: DamageStatus,
}

/// One parity chunk that failed its own CRC during a salvage full decode
/// (the data it protects may be intact, but the group has lost part of
/// its self-healing margin).
#[derive(Debug, Clone, PartialEq)]
pub struct DamagedParity {
    /// Field the parity group belongs to.
    pub field: String,
    /// Parity group index within the field.
    pub group: usize,
    /// Shard within the group (`0` for v3 XOR, `0..m` for v4
    /// Reed–Solomon).
    pub shard: usize,
    /// Byte range of the parity payload within the store buffer
    /// (saturated).
    pub byte_range: Range<usize>,
}

/// Erasure accounting for one parity group a salvage read found damage
/// in: how many of its data chunks failed, and how many of those the
/// group's parity could rebuild. `erasures > repaired` means the group
/// exceeded its erasure budget (1 for v3 XOR, `m` for v4 Reed–Solomon).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupDamage {
    /// Field the group belongs to.
    pub field: String,
    /// Parity group index within the field.
    pub group: usize,
    /// Data chunks of the group that failed CRC or decode.
    pub erasures: usize,
    /// Of those, how many parity reconstruction recovered.
    pub repaired: usize,
}

/// Structured account of everything a salvage read repaired or skipped.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DamageReport {
    /// Every damaged data chunk, repaired or lost, in (field, chunk)
    /// order.
    pub chunks: Vec<DamagedChunk>,
    /// Parity chunks that failed their own CRC (full decodes only;
    /// queries do not touch parity unless they need it).
    pub parity: Vec<DamagedParity>,
    /// Per-parity-group erasure counts derived from `chunks` (empty when
    /// the store has no parity groups).
    pub groups: Vec<GroupDamage>,
    /// The fill value lost cells decode to.
    pub fill: SalvageFill,
}

impl DamageReport {
    /// Whether the read found no damage at all (data or parity).
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty() && self.parity.is_empty()
    }

    /// Damaged chunks parity reconstruction recovered.
    pub fn repaired(&self) -> impl Iterator<Item = &DamagedChunk> {
        self.chunks
            .iter()
            .filter(|c| c.status == DamageStatus::Repaired)
    }

    /// Damaged chunks that stayed lost.
    pub fn lost(&self) -> impl Iterator<Item = &DamagedChunk> {
        self.chunks
            .iter()
            .filter(|c| c.status == DamageStatus::Lost)
    }

    /// Total cells lost across all fields (repaired chunks lose nothing).
    pub fn total_values_lost(&self) -> usize {
        self.chunks.iter().map(|c| c.values_lost).sum()
    }

    /// Cells lost in one field.
    pub fn values_lost_in(&self, field: &str) -> usize {
        self.chunks
            .iter()
            .filter(|c| c.field == field)
            .map(|c| c.values_lost)
            .sum()
    }

    /// Per-field loss counts, in order of first appearance.
    pub fn by_field(&self) -> Vec<(String, usize)> {
        let mut out: Vec<(String, usize)> = Vec::new();
        for c in &self.chunks {
            match out.iter_mut().find(|(f, _)| *f == c.field) {
                Some((_, lost)) => *lost += c.values_lost,
                None => out.push((c.field.clone(), c.values_lost)),
            }
        }
        out
    }

    /// Folds another report (e.g. from the next field) into this one.
    pub fn merge(&mut self, other: DamageReport) {
        self.chunks.extend(other.chunks);
        self.parity.extend(other.parity);
        self.groups.extend(other.groups);
    }

    /// (Re)derives the per-group erasure counts from `chunks`. `width` is
    /// the store's parity group width; with `width == 0` there are no
    /// groups and the summary is empty.
    pub fn summarize_groups(&mut self, width: usize) {
        self.groups.clear();
        if width == 0 {
            return;
        }
        for c in &self.chunks {
            let group = c.chunk / width;
            let entry = match self
                .groups
                .iter_mut()
                .find(|g| g.field == c.field && g.group == group)
            {
                Some(entry) => entry,
                None => {
                    self.groups.push(GroupDamage {
                        field: c.field.clone(),
                        group,
                        erasures: 0,
                        repaired: 0,
                    });
                    self.groups.last_mut().expect("just pushed")
                }
            };
            entry.erasures += 1;
            if c.status == DamageStatus::Repaired {
                entry.repaired += 1;
            }
        }
    }
}

/// A spatial/level selection over one field.
///
/// Coordinates are inclusive finest-grid cells; a coarse cell is selected
/// when any part of its footprint intersects the box. Levels default to
/// "all".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Query {
    /// Lower corner (inclusive) on the finest grid.
    pub bbox_lo: [u32; 3],
    /// Upper corner (inclusive) on the finest grid.
    pub bbox_hi: [u32; 3],
    /// Bit `l` set ⇔ level-`l` cells participate.
    pub level_mask: u32,
}

impl Query {
    /// Query over the inclusive box `lo..=hi`, all levels.
    pub fn bbox(lo: [u32; 3], hi: [u32; 3]) -> Self {
        Self {
            bbox_lo: lo,
            bbox_hi: hi,
            level_mask: u32::MAX,
        }
    }

    /// Restricts the query to the given refinement levels. Levels ≥ 32
    /// cannot exist (the mask is a `u32`) and are dropped rather than
    /// letting the shift wrap onto an unrelated level.
    pub fn with_levels(mut self, levels: impl IntoIterator<Item = u32>) -> Self {
        self.level_mask = levels
            .into_iter()
            .filter(|&l| l < 32)
            .fold(0, |m, l| m | (1 << l));
        self
    }

    /// Parses the textual query grammar the CLI and the daemon share: a
    /// box `x0,y0[,z0]:x1,y1[,z1]` (a missing `z` is 0) and an optional
    /// level list `L[,L...]`. Errors name the malformed argument by the
    /// caller's spelling, `names = [bbox, levels]`.
    pub fn parse(bbox: &str, levels: Option<&str>, names: [&str; 2]) -> Result<Self, String> {
        let bad = || format!("{} {bbox:?}: want x0,y0[,z0]:x1,y1[,z1]", names[0]);
        let corner = |s: &str| -> Result<[u32; 3], String> {
            let parts: Vec<u32> = s
                .split(',')
                .map(|t| t.trim().parse::<u32>())
                .collect::<Result<_, _>>()
                .map_err(|_| bad())?;
            match parts[..] {
                [x, y] => Ok([x, y, 0]),
                [x, y, z] => Ok([x, y, z]),
                _ => Err(bad()),
            }
        };
        let (lo, hi) = bbox.split_once(':').ok_or_else(bad)?;
        let query = Self::bbox(corner(lo)?, corner(hi)?);
        let Some(spec) = levels else {
            return Ok(query);
        };
        let levels: Vec<u32> = spec
            .split(',')
            .map(|t| t.trim().parse::<u32>())
            .collect::<Result<_, _>>()
            .map_err(|_| format!("{} {spec:?}: want L[,L...]", names[1]))?;
        Ok(query.with_levels(levels))
    }
}

/// Output of [`StoreReader::query`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryResult {
    /// Storage indices of the selected cells, ascending.
    pub storage_indices: Vec<u32>,
    /// The value of each selected cell, parallel to `storage_indices`.
    pub values: Vec<f64>,
    /// Chunks actually decoded to answer the query.
    pub chunks_decoded: usize,
    /// Chunks the field has in total.
    pub chunks_total: usize,
    /// Absolute pointwise error bound the values honor (from the footer).
    pub bound: Option<f64>,
    /// Chunks the query needed but could not recover (always empty under
    /// [`ReadPolicy::Strict`], which errors instead).
    pub damage: DamageReport,
}

impl QueryResult {
    /// The selected cells as `storage_index,value` CSV rows under a
    /// header line — what `zmesh query -o` writes and the daemon's
    /// `format=csv` answers.
    pub fn to_csv(&self) -> String {
        let mut csv = String::from("storage_index,value\n");
        for (&s, &v) in self.storage_indices.iter().zip(&self.values) {
            csv.push_str(&format!("{s},{v}\n"));
        }
        csv
    }
}

/// Coalesced read groups the prefetcher keeps in flight ahead of decode.
const PREFETCH_WINDOW: usize = 2;
/// Never grow a coalesced read past this size (a single oversized chunk
/// still gets one read — chunks are never split).
const MAX_COALESCED_BYTES: u64 = 4 << 20;

/// A chunk after salvage: its index and values, `None` when lost.
type Settled = (usize, Option<ChunkValues>);

/// One coalesced read: a contiguous byte range covering the payloads of
/// `members` (positions into the caller's chunk-id list).
struct ReadGroup {
    range: Range<u64>,
    members: Vec<usize>,
}

/// Sorts the selected chunks' byte ranges and merges exactly adjacent
/// ones (capped at [`MAX_COALESCED_BYTES`]) into contiguous read groups.
/// Chunks whose recorded span is invalid are reported through `results`
/// instead of joining a group.
fn coalesce<S: ByteSource + ?Sized>(
    spans: &Spans<'_, S>,
    entry: &FieldEntry,
    ids: &[usize],
    results: &mut [Option<Result<ChunkValues, StoreError>>],
) -> Vec<ReadGroup> {
    let mut ranges: Vec<(usize, Range<u64>)> = Vec::with_capacity(ids.len());
    for (pos, &i) in ids.iter().enumerate() {
        match spans.range(entry, ChunkKind::Data(i)) {
            Ok(range) => ranges.push((pos, range)),
            Err(e) => results[pos] = Some(Err(e)),
        }
    }
    ranges.sort_by_key(|a| (a.1.start, a.1.end));
    let mut groups: Vec<ReadGroup> = Vec::new();
    for (pos, range) in ranges {
        match groups.last_mut() {
            Some(g)
                if range.start <= g.range.end
                    && range.end.max(g.range.end) - g.range.start <= MAX_COALESCED_BYTES =>
            {
                g.range.end = g.range.end.max(range.end);
                g.members.push(pos);
            }
            _ => groups.push(ReadGroup {
                range,
                members: vec![pos],
            }),
        }
    }
    groups
}

/// A parsed, validated view over a serialized v2/v3/v4 store, generic
/// over where the bytes come from.
///
/// `StoreReader<SliceSource>` (via [`StoreReader::open`]) is the
/// historical in-memory reader; [`StoreReader::open_source`] accepts any
/// [`ByteSource`] — a [`crate::FileSource`] reads only the framing at
/// open and exactly the selected chunks' coalesced byte ranges at
/// query/decode time, overlapping the reads with decode.
pub struct StoreReader<S> {
    source: S,
    header: StoreHeader,
    fields: Vec<FieldEntry>,
    payload: Range<u64>,
    tree: Arc<AmrTree>,
    recipe: Arc<RestoreRecipe>,
    policy: ReadPolicy,
    chunk_cache: Option<(Arc<ChunkCache>, u64)>,
    retry: RetryPolicy,
    retry_counters: RetryCounters,
}

/// Chunks per field that frame the whole stream of `recipe`.
fn n_chunks(recipe: &RestoreRecipe, header: &StoreHeader) -> usize {
    recipe.len().div_ceil(header.chunk_values())
}

impl<'a> StoreReader<SliceSource<'a>> {
    /// Opens an in-memory store, verifying magics and the index CRC,
    /// rebuilding the tree from structure metadata, and regenerating the
    /// restore recipe.
    pub fn open(bytes: &'a [u8]) -> Result<Self, StoreError> {
        Self::open_impl(SliceSource::new(bytes), None)
    }

    /// Like [`StoreReader::open`], but recipe regeneration goes through a
    /// shared [`RecipeCache`] — opening many stores over the same mesh
    /// (timesteps, field files) builds the recipe once.
    pub fn open_with_cache(bytes: &'a [u8], cache: &RecipeCache) -> Result<Self, StoreError> {
        Self::open_impl(SliceSource::new(bytes), Some(cache))
    }
}

/// A borrowed [`ByteSource`] adapter that retries transient `read_at`
/// failures — used during open (before a [`StoreReader`] exists to carry
/// the policy), so a flaky source can still produce a reader. Counters
/// accumulate into the reader being built.
struct RetryingSource<'a, S: ByteSource> {
    inner: &'a S,
    policy: RetryPolicy,
    counters: &'a RetryCounters,
}

impl<S: ByteSource> ByteSource for RetryingSource<'_, S> {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), StoreError> {
        self.policy
            .run(self.counters, || self.inner.read_at(offset, buf))
    }

    fn as_slice(&self) -> Option<&[u8]> {
        self.inner.as_slice()
    }

    fn bytes_read(&self) -> u64 {
        self.inner.bytes_read()
    }

    fn read_calls(&self) -> u64 {
        self.inner.read_calls()
    }
}

impl<S: ByteSource> StoreReader<S> {
    /// Opens a store through any [`ByteSource`], fetching only the
    /// framing (head probe, commit record, trailer, header, footer) —
    /// never the payload. Transient read failures during the open are
    /// retried under [`RetryPolicy::default`] (the per-reader policy is
    /// configurable only after the reader exists).
    pub fn open_source(source: S) -> Result<Self, StoreError> {
        Self::open_impl(source, None)
    }

    /// [`StoreReader::open_source`] with a shared [`RecipeCache`].
    pub fn open_source_with_cache(source: S, cache: &RecipeCache) -> Result<Self, StoreError> {
        Self::open_impl(source, Some(cache))
    }

    fn open_impl(source: S, cache: Option<&RecipeCache>) -> Result<Self, StoreError> {
        let retry = RetryPolicy::default();
        let retry_counters = RetryCounters::default();
        let (header, fields, payload) = format::open_source(&RetryingSource {
            inner: &source,
            policy: retry,
            counters: &retry_counters,
        })?;
        // Every level-0 cell is a stream point (or covered by leaves that
        // are), so a base grid larger than the values the footer indexes is
        // a lie; reject it before the tree decode allocates per cell.
        let capacity = fields
            .iter()
            .map(|f| f.chunks.len() as u64)
            .max()
            .unwrap_or(0)
            .saturating_mul(header.chunk_values() as u64);
        if AmrTree::structure_base_cells(&header.structure)? > capacity {
            return Err(StoreError::Corrupt("base grid exceeds stored values"));
        }
        // A shared cache that has seen this structure hands back its tree
        // and recipe, so a warm open decodes nothing.
        let grouping = header.grouping();
        let (tree, recipe) = match cache {
            Some(cache) => {
                let (tree, recipe, _) =
                    cache.get_or_decode(&header.structure, header.policy, grouping)?;
                (tree, recipe)
            }
            None => {
                let tree = Arc::new(AmrTree::from_structure_bytes(&header.structure)?);
                let recipe = Arc::new(RestoreRecipe::build(&tree, header.policy, grouping));
                (tree, recipe)
            }
        };
        let expected = match grouping {
            GroupingMode::LeafOnly => tree.leaf_count(),
            GroupingMode::Chained => tree.cell_count(),
        };
        if recipe.len() != expected {
            return Err(StoreError::Corrupt("recipe length mismatches tree"));
        }
        // No writer frames more chunks than the stream fills: a footer
        // that lists more was damaged and re-signed. Fewer is how a
        // salvaged torn store keeps a field's intact prefix, which still
        // serves queries over the region it covers.
        if fields
            .iter()
            .any(|f| f.chunks.len() > n_chunks(&recipe, &header))
        {
            return Err(StoreError::Corrupt("field has more chunks than the stream"));
        }
        Ok(Self {
            source,
            header,
            fields,
            payload,
            tree,
            recipe,
            policy: ReadPolicy::Strict,
            chunk_cache: None,
            retry,
            retry_counters,
        })
    }

    /// Sets how damaged chunks are treated (default
    /// [`ReadPolicy::Strict`]).
    pub fn with_read_policy(mut self, policy: ReadPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Routes chunk decodes through a shared [`ChunkCache`]. `store_key`
    /// is this store's identity inside the cache — callers sharing one
    /// cache across stores (a catalog, a server) must assign each open
    /// store a distinct key, or hits will serve another store's values.
    /// Hits return the cached decoded values without touching the source;
    /// misses decode once even under concurrency (single-flight) and
    /// populate the cache.
    pub fn with_chunk_cache(mut self, cache: Arc<ChunkCache>, store_key: u64) -> Self {
        self.chunk_cache = Some((cache, store_key));
        self
    }

    /// Sets the transient-read retry policy (default
    /// [`RetryPolicy::default`]: 3 attempts, 2 ms base, 50 ms cap).
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = RetryPolicy {
            attempts: retry.attempts.max(1),
            ..retry
        };
        self
    }

    /// The active retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Retry counters accumulated by this reader's payload reads.
    pub fn retry_stats(&self) -> RetryStats {
        self.retry_counters.stats()
    }

    /// The attached decoded-chunk cache, if any.
    pub fn chunk_cache(&self) -> Option<&Arc<ChunkCache>> {
        self.chunk_cache.as_ref().map(|(cache, _)| cache)
    }

    /// The source the store is being read from.
    pub fn source(&self) -> &S {
        &self.source
    }

    /// Bytes the underlying source has supplied so far (see
    /// [`ByteSource::bytes_read`]).
    pub fn bytes_read(&self) -> u64 {
        self.source.bytes_read()
    }

    /// The active read policy.
    pub fn read_policy(&self) -> ReadPolicy {
        self.policy
    }

    /// The parsed header.
    pub fn header(&self) -> &StoreHeader {
        &self.header
    }

    /// The mesh the store's fields live on.
    pub fn tree(&self) -> &Arc<AmrTree> {
        &self.tree
    }

    /// Footer entries, in write order.
    pub fn fields(&self) -> &[FieldEntry] {
        &self.fields
    }

    /// Field names, in write order.
    pub fn field_names(&self) -> Vec<&str> {
        self.fields.iter().map(|f| f.name.as_str()).collect()
    }

    fn field(&self, name: &str) -> Result<(usize, &FieldEntry), StoreError> {
        self.fields
            .iter()
            .enumerate()
            .find(|(_, f)| f.name == name)
            .ok_or_else(|| StoreError::UnknownField(name.to_string()))
    }

    /// The stream positions chunk `i` covers. Saturating: `i` comes from a
    /// footer whose chunk count is untrusted, so an absurd index yields an
    /// empty range instead of a multiply-overflow panic.
    fn stream_range(&self, i: usize) -> Range<usize> {
        let cv = self.header.chunk_values();
        let lo = i.saturating_mul(cv).min(self.recipe.len());
        let hi = lo.saturating_add(cv).min(self.recipe.len());
        lo..hi
    }

    /// The shared span verifier over this reader's source, under its
    /// retry policy.
    fn spans(&self) -> Spans<'_, S> {
        let scheme = self.header.scheme();
        Spans::new(
            &self.source,
            self.payload.clone(),
            scheme,
            self.retry,
            &self.retry_counters,
        )
    }

    /// Attempts to rebuild chunk `i` of `entry` from its parity group
    /// ([`crate::Parity::recover`]: XOR heals one missing member per
    /// group, Reed–Solomon up to `m`) and decode it. The rebuilt bytes
    /// match the chunk's footer CRC and the decode must still yield the
    /// framed value count.
    fn reconstruct_chunk(&self, entry: &FieldEntry, i: usize) -> Option<Vec<f64>> {
        let scheme = self.header.scheme();
        if scheme == Parity::None {
            return None;
        }
        let width = scheme.width() as usize;
        let g = group_of(i, width);
        let spans = self.spans();
        let members: Vec<Option<Cow<'_, [u8]>>> = group_members(g, width, entry.chunks.len())
            .map(|c| (c != i).then(|| spans.get(entry, ChunkKind::Data(c)).ok())?)
            .collect();
        let members: Vec<Option<&[u8]>> = members.iter().map(|m| m.as_deref()).collect();
        let (_, rebuilt) = scheme
            .recover(&spans, entry, g, &members)
            .into_iter()
            .find(|&(c, _)| c == i)?;
        self.decode_verified(i, &rebuilt).ok()
    }

    /// Decodes chunk `i` from payload bytes that already passed the span
    /// verifier, checking the decoded value count against the framing.
    fn decode_verified(&self, i: usize, payload: &[u8]) -> Result<Vec<f64>, StoreError> {
        let codec = codec_for(self.header.codec);
        let values = codec.decompress(payload)?;
        if values.len() != self.stream_range(i).len() {
            return Err(StoreError::Corrupt("chunk value count mismatches framing"));
        }
        Ok(values)
    }

    /// Fetches and decodes the given chunks of `entry` (footer index
    /// `field_idx`), returning `(chunk id, result)` pairs in the order of
    /// `ids`. With an attached [`ChunkCache`], resident chunks are served
    /// without touching the source, concurrent decodes of the same chunk
    /// coalesce onto one leader, and fresh decodes populate the cache;
    /// without one this is exactly [`StoreReader::fetch_decode_direct`].
    fn fetch_decode(
        &self,
        field_idx: usize,
        entry: &FieldEntry,
        ids: &[usize],
    ) -> Vec<(usize, Result<ChunkValues, StoreError>)> {
        let Some((cache, store_key)) = &self.chunk_cache else {
            return self.fetch_decode_direct(entry, ids);
        };
        let key = |i: usize| ChunkKey {
            store: *store_key,
            field: field_idx as u32,
            chunk: i as u32,
        };
        let mut results: Vec<Option<Result<ChunkValues, StoreError>>> =
            ids.iter().map(|_| None).collect();
        let mut leads = Vec::new();
        let mut joins = Vec::new();
        for (pos, &i) in ids.iter().enumerate() {
            match cache.begin(key(i)) {
                Claim::Cached(values) => results[pos] = Some(Ok(values)),
                Claim::Lead(lead) => leads.push((pos, lead)),
                Claim::Join(join) => joins.push((pos, join)),
            }
        }
        // Decode every led chunk through the normal (coalesced,
        // prefetching) batch path, then publish each result to its flight
        // so followers — here or in other threads — wake with it.
        let lead_ids: Vec<usize> = leads.iter().map(|&(pos, _)| ids[pos]).collect();
        let decoded = self.fetch_decode_direct(entry, &lead_ids);
        for ((pos, lead), (i, result)) in leads.into_iter().zip(decoded) {
            debug_assert_eq!(ids[pos], i);
            cache.complete(lead, result.clone());
            results[pos] = Some(result);
        }
        for (pos, join) in joins {
            results[pos] = Some(cache.wait(join));
        }
        ids.iter()
            .zip(results)
            .map(|(&i, r)| (i, r.expect("every selected chunk has a decode result")))
            .collect()
    }

    /// The cache-oblivious batch decode path: fetches and decodes the
    /// given chunks of `entry`, returning `(chunk id, result)` pairs in
    /// the order of `ids`.
    ///
    /// Zero-copy sources decode straight from the resident bytes in
    /// parallel (the historical path, unchanged). Ranged sources overlap
    /// I/O with decode: a producer thread reads coalesced group `g+1`
    /// while rayon workers decode group `g`, with a bounded channel (the
    /// prefetch window) between them.
    fn fetch_decode_direct(
        &self,
        entry: &FieldEntry,
        ids: &[usize],
    ) -> Vec<(usize, Result<ChunkValues, StoreError>)> {
        use rayon::prelude::*;

        let spans = self.spans();
        if self.source.as_slice().is_some() {
            return ids
                .par_iter()
                .map(|&i| {
                    let payload = spans.get(entry, ChunkKind::Data(i));
                    let decoded = payload.and_then(|p| self.decode_verified(i, &p));
                    (i, decoded.map(Arc::new))
                })
                .collect();
        }
        let mut results: Vec<Option<Result<ChunkValues, StoreError>>> =
            ids.iter().map(|_| None).collect();
        let groups = coalesce(&spans, entry, ids, &mut results);
        let read = |group: &ReadGroup| {
            let len = (group.range.end - group.range.start) as usize;
            self.retry.run(&self.retry_counters, || {
                self.source.read_vec(group.range.start, len)
            })
        };
        let mut settle = |group: ReadGroup, bytes: Result<Vec<u8>, StoreError>| match bytes {
            Ok(bytes) => {
                let decoded: Vec<(usize, Result<ChunkValues, StoreError>)> = group
                    .members
                    .par_iter()
                    .map(|&pos| {
                        let i = ids[pos];
                        let meta = &entry.chunks[i];
                        // In-group offset: the span was validated by
                        // `coalesce`, so this cannot wrap.
                        let lo = (self.payload.start + meta.offset - group.range.start) as usize;
                        let payload = &bytes[lo..lo + meta.len as usize];
                        let decoded = spans
                            .verify(entry, ChunkKind::Data(i), payload)
                            .and_then(|()| self.decode_verified(i, payload));
                        (pos, decoded.map(Arc::new))
                    })
                    .collect();
                for (pos, result) in decoded {
                    results[pos] = Some(result);
                }
            }
            // A failed group read fans out to all its chunks.
            Err(e) => {
                for &pos in &group.members {
                    results[pos] = Some(Err(e.clone()));
                }
            }
        };
        if groups.len() <= 1 {
            // A lone read has no decode to overlap with: no producer thread.
            for group in groups {
                let bytes = read(&group);
                settle(group, bytes);
            }
        } else {
            let (tx, rx) = std::sync::mpsc::sync_channel::<(ReadGroup, Result<Vec<u8>, StoreError>)>(
                PREFETCH_WINDOW,
            );
            std::thread::scope(|scope| {
                let read = &read;
                scope.spawn(move || {
                    for group in groups {
                        let bytes = read(&group);
                        if tx.send((group, bytes)).is_err() {
                            return;
                        }
                    }
                });
                for (group, bytes) in rx {
                    settle(group, bytes);
                }
            });
        }
        ids.iter()
            .zip(results)
            .map(|(&i, r)| (i, r.expect("every selected chunk has a decode result")))
            .collect()
    }

    /// Decodes every chunk of `name` (in parallel) and restores storage
    /// order — the full-field inverse of the writer. Under
    /// [`ReadPolicy::Salvage`], cells in unrecoverable chunks come back as
    /// `NaN`; use [`StoreReader::decode_field_with_report`] to learn which.
    pub fn decode_field(&self, name: &str) -> Result<AmrField, StoreError> {
        self.decode_field_with_report(name).map(|(field, _)| field)
    }

    /// Like [`StoreReader::decode_field`], but also returns the
    /// [`DamageReport`] of everything the read had to skip (always empty
    /// under [`ReadPolicy::Strict`], which errors instead of skipping).
    pub fn decode_field_with_report(
        &self,
        name: &str,
    ) -> Result<(AmrField, DamageReport), StoreError> {
        let (field_idx, entry) = self.field(name)?;
        if entry.chunks.len() != n_chunks(&self.recipe, &self.header) {
            return Err(StoreError::Corrupt(
                "field covers only a prefix of the stream",
            ));
        }
        let ids: Vec<usize> = (0..entry.chunks.len()).collect();
        let attempts = self.fetch_decode(field_idx, entry, &ids);
        let (chunks, mut report) = self.settle(entry, attempts, self.policy)?;
        // Scatter each settled chunk (or the salvage fill) straight to the
        // storage positions its stream range holds. The chunks tile the
        // stream and each decoded its framed value count, so every position
        // is written exactly once.
        let (perm, fill) = (self.recipe.permutation(), report.fill.value());
        let mut values = vec![0.0f64; perm.len()];
        for (i, chunk) in chunks {
            let targets = &perm[self.stream_range(i)];
            match chunk {
                Some(chunk) => {
                    for (&at, &v) in targets.iter().zip(chunk.iter()) {
                        values[at as usize] = v;
                    }
                }
                None => targets.iter().for_each(|&at| values[at as usize] = fill),
            }
        }
        // A full decode also audits the field's parity chunks: strict
        // readers promise "exactly what was written or an error" for every
        // byte the field owns, and salvage readers report eroded
        // self-healing margin.
        let spans = self.spans();
        for slot in 0..entry.parity.len() {
            if let Err(error) = spans.get(entry, ChunkKind::Parity(slot)) {
                if !self.policy.is_salvage() {
                    return Err(error);
                }
                report.parity.push(DamagedParity {
                    field: entry.name.clone(),
                    group: slot / spans.shards,
                    shard: slot % spans.shards,
                    byte_range: spans.report_range(entry, ChunkKind::Parity(slot)),
                });
            }
        }
        let field = AmrField::from_values(Arc::clone(&self.tree), self.header.mode, values)?;
        Ok((field, report))
    }

    /// Settles fetched chunks under `policy` — the per-chunk loop full
    /// decodes and queries share. Intact chunks pass through; under
    /// salvage each damaged chunk is rebuilt from parity (`Repaired`) or
    /// comes back `None` (`Lost`), and either way is itemized in the
    /// returned report. Strict reads return the first error instead.
    fn settle(
        &self,
        entry: &FieldEntry,
        attempts: Vec<(usize, Result<ChunkValues, StoreError>)>,
        policy: ReadPolicy,
    ) -> Result<(Vec<Settled>, DamageReport), StoreError> {
        let mut report = DamageReport {
            fill: policy.salvage_fill().unwrap_or_default(),
            ..DamageReport::default()
        };
        let mut settled = Vec::with_capacity(attempts.len());
        for (i, result) in attempts {
            let values = match result {
                Ok(values) => Some(values),
                Err(error) if policy.is_salvage() => {
                    let rebuilt = self.reconstruct_chunk(entry, i).map(Arc::new);
                    let (status, values_lost) = match rebuilt {
                        Some(_) => (DamageStatus::Repaired, 0),
                        None => (DamageStatus::Lost, self.stream_range(i).len()),
                    };
                    report.chunks.push(DamagedChunk {
                        field: entry.name.clone(),
                        chunk: i,
                        byte_range: self.spans().report_range(entry, ChunkKind::Data(i)),
                        values_lost,
                        error,
                        status,
                    });
                    rebuilt
                }
                Err(error) => return Err(error),
            };
            settled.push((i, values));
        }
        report.summarize_groups(self.header.parity_group_width as usize);
        Ok((settled, report))
    }

    /// Chunk indices of `entry` a query must decode.
    fn select_chunks(&self, entry: &FieldEntry, query: &Query) -> Result<Vec<usize>, StoreError> {
        for a in 0..3 {
            if query.bbox_lo[a] > query.bbox_hi[a] {
                return Err(StoreError::BadQuery("inverted bounding box"));
            }
        }
        if query.level_mask == 0 {
            return Err(StoreError::BadQuery("empty level selection"));
        }
        let bits = self.tree.finest_bits();
        let side = 1u64 << bits;
        let clamp = |v: u32| u64::from(v).min(side - 1);
        let (lo, hi) = (query.bbox_lo.map(clamp), query.bbox_hi.map(clamp));
        // Curve-interval pruning (exact for Morton/Hilbert; level-order
        // stores no curve and is pruned by bounding box alone).
        let curve = self.header.policy.curve();
        let meets_curve = |meta: &ChunkMeta| {
            curve.is_none_or(|kind| match self.tree.dim() {
                Dim::D2 => bbox_meets_interval_2d(
                    kind,
                    bits,
                    (lo[0], lo[1]),
                    (hi[0], hi[1]),
                    meta.curve_lo,
                    meta.curve_hi,
                ),
                Dim::D3 => bbox_meets_interval_3d(
                    kind,
                    bits,
                    (lo[0], lo[1], lo[2]),
                    (hi[0], hi[1], hi[2]),
                    meta.curve_lo,
                    meta.curve_hi,
                ),
            })
        };
        Ok(entry
            .chunks
            .iter()
            .enumerate()
            .filter(|(_, meta)| {
                meta.level_mask & query.level_mask != 0
                    && meta.overlaps_bbox(query.bbox_lo, query.bbox_hi)
                    && meets_curve(meta)
            })
            .map(|(i, _)| i)
            .collect())
    }

    /// Which storage indices `query` selects: a cell whose level is
    /// selected and whose finest-grid footprint meets the box. Per level,
    /// the footprint of the cell at `c` meets `lo..=hi` exactly when
    /// `lo >> s <= c <= hi >> s` on every axis (`s` = levels below), so
    /// the box is shifted once per level, not per cell.
    fn selection(&self, query: &Query) -> impl Fn(u32) -> bool + '_ {
        let tree = &*self.tree;
        let boxes: Vec<Option<([u32; 3], [u32; 3])>> = (0..=tree.max_level())
            .map(|level| {
                let shift = tree.max_level() - level;
                let selected = query.level_mask & (1 << level) != 0;
                selected.then(|| {
                    (
                        query.bbox_lo.map(|v| v >> shift),
                        query.bbox_hi.map(|v| v >> shift),
                    )
                })
            })
            .collect();
        let (rank, coords) = (tree.dim().rank(), tree.packed_coords());
        let leaf_indices = match self.header.grouping() {
            GroupingMode::LeafOnly => Some(tree.leaf_indices()),
            GroupingMode::Chained => None,
        };
        move |storage| {
            let cell = leaf_indices.map_or(storage, |l| l[storage as usize]) as usize;
            let Some((lo, hi)) = boxes[tree.level_of(cell) as usize] else {
                return false;
            };
            let c = CellCoord::unpack(coords[cell]);
            let c = [c.x, c.y, c.z];
            (0..rank).all(|a| lo[a] <= c[a] && c[a] <= hi[a])
        }
    }

    /// Answers a bounding-box / level query on `name`, decoding only the
    /// chunks whose coverage intersects the query (in parallel). Under
    /// [`ReadPolicy::Salvage`], damaged chunks are dropped from the result
    /// and itemized in [`QueryResult::damage`].
    pub fn query(&self, name: &str, query: &Query) -> Result<QueryResult, StoreError> {
        self.query_with_policy(name, query, self.policy)
    }

    /// [`StoreReader::query`] under an explicit per-call [`ReadPolicy`],
    /// ignoring the reader-level default. Lets a caller sharing one
    /// reader across threads (e.g. a serving daemon) re-run a failed
    /// strict read under [`ReadPolicy::Salvage`] without reopening.
    pub fn query_with_policy(
        &self,
        name: &str,
        query: &Query,
        policy: ReadPolicy,
    ) -> Result<QueryResult, StoreError> {
        let (field_idx, entry) = self.field(name)?;
        let selected = self.select_chunks(entry, query)?;
        let attempts = self.fetch_decode(field_idx, entry, &selected);
        let (chunks, damage) = self.settle(entry, attempts, policy)?;

        let perm = self.recipe.permutation();
        let selects = self.selection(query);
        let mut hits: Vec<(u32, f64)> = Vec::new();
        for (i, values) in &chunks {
            let Some(values) = values else { continue };
            let range = self.stream_range(*i);
            for (pos, &value) in range.clone().zip(values.iter()) {
                let storage = perm[pos];
                if selects(storage) {
                    hits.push((storage, value));
                }
            }
        }
        hits.sort_unstable_by_key(|&(s, _)| s);
        Ok(QueryResult {
            storage_indices: hits.iter().map(|&(s, _)| s).collect(),
            values: hits.iter().map(|&(_, v)| v).collect(),
            chunks_decoded: selected.len(),
            chunks_total: entry.chunks.len(),
            bound: entry.resolved_bound,
            damage,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::StoreWriter;
    use zmesh::CompressionConfig;
    use zmesh_amr::{datasets, StorageMode};

    fn refs(ds: &datasets::Dataset) -> Vec<(&str, &AmrField)> {
        ds.fields.iter().map(|(n, f)| (n.as_str(), f)).collect()
    }

    fn sample_store(chunk_bytes: u32) -> (datasets::Dataset, Vec<u8>) {
        sample_store_with_width(chunk_bytes, crate::parity::DEFAULT_PARITY_GROUP_WIDTH)
    }

    fn sample_store_with_width(chunk_bytes: u32, width: u32) -> (datasets::Dataset, Vec<u8>) {
        let ds = datasets::blast2d(StorageMode::AllCells, datasets::Scale::Tiny);
        let out = StoreWriter::new(CompressionConfig::zmesh_default())
            .with_chunk_target_bytes(chunk_bytes)
            .with_parity_group_width(width)
            .write(&refs(&ds))
            .unwrap();
        (ds, out.bytes)
    }

    #[test]
    fn a_warm_open_decodes_no_tree() {
        let (ds, bytes) = sample_store(1024);
        let cache = RecipeCache::new();
        let cold = StoreReader::open_with_cache(&bytes, &cache).unwrap();
        let warm = StoreReader::open_with_cache(&bytes, &cache).unwrap();
        // One miss decoded the tree and built the recipe; the second open
        // took both from the cache.
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 1));
        assert!(Arc::ptr_eq(cold.tree(), warm.tree()));
        assert!(Arc::ptr_eq(&cold.recipe, &warm.recipe));
        assert_eq!(warm.tree().cells(), ds.tree.cells());
        let q = Query::bbox([0, 0, 0], [7, 7, 0]);
        let (a, b) = (cold.query("density", &q), warm.query("density", &q));
        assert_eq!(a.unwrap().values, b.unwrap().values);
        // An uncached open decodes its own tree.
        let fresh = StoreReader::open(&bytes).unwrap();
        assert!(!Arc::ptr_eq(fresh.tree(), cold.tree()));
    }

    #[test]
    fn chunk_selection_matches_the_range_list_rule() {
        // The interval test must pick exactly the chunks that meet the
        // box's curve-range list, on every preset, both curves, random
        // boxes (some past the grid, to exercise the clamp) and levels.
        use zmesh::OrderingPolicy;
        use zmesh_sfc::{bbox_ranges_2d, bbox_ranges_3d};
        let mut seed = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |m: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % m
        };
        for ds in datasets::all(StorageMode::AllCells, datasets::Scale::Tiny) {
            for policy in [OrderingPolicy::Hilbert, OrderingPolicy::ZOrder] {
                let config = CompressionConfig {
                    policy,
                    ..CompressionConfig::zmesh_default()
                };
                let bytes = StoreWriter::new(config)
                    .with_chunk_target_bytes(512)
                    .write(&refs(&ds))
                    .unwrap()
                    .bytes;
                let reader = StoreReader::open(&bytes).unwrap();
                let (_, entry) = reader.field(&ds.fields[0].0).unwrap();
                assert!(entry.chunks.len() > 4, "{}", ds.name);
                let tree = reader.tree();
                let (bits, kind) = (tree.finest_bits(), policy.curve().unwrap());
                let side = 1u64 << bits;
                let axes = if tree.dim() == Dim::D2 { 2 } else { 3 };
                for round in 0..80 {
                    let (mut lo, mut hi) = ([0u32; 3], [0u32; 3]);
                    for a in 0..axes {
                        let p = next(side + 2);
                        let q = if round % 2 == 0 {
                            next(side + 2)
                        } else {
                            p + next(side / 4 + 1)
                        };
                        (lo[a], hi[a]) = (p.min(q) as u32, p.max(q) as u32);
                    }
                    let level_mask = 1 + next((1 << (tree.max_level() + 1)) - 1) as u32;
                    let query = Query {
                        bbox_lo: lo,
                        bbox_hi: hi,
                        level_mask,
                    };
                    let c = |v: u32| u64::from(v).min(side - 1);
                    let ranges = match tree.dim() {
                        Dim::D2 => {
                            bbox_ranges_2d(kind, bits, (c(lo[0]), c(lo[1])), (c(hi[0]), c(hi[1])))
                        }
                        Dim::D3 => bbox_ranges_3d(
                            kind,
                            bits,
                            (c(lo[0]), c(lo[1]), c(lo[2])),
                            (c(hi[0]), c(hi[1]), c(hi[2])),
                        ),
                    };
                    let want: Vec<usize> = (0..entry.chunks.len())
                        .filter(|&i| {
                            let meta = &entry.chunks[i];
                            meta.level_mask & level_mask != 0
                                && meta.overlaps_bbox(lo, hi)
                                && meta.overlaps_ranges(&ranges)
                        })
                        .collect();
                    assert_eq!(
                        reader.select_chunks(entry, &query).unwrap(),
                        want,
                        "{} {policy:?} {query:?}",
                        ds.name
                    );
                }
            }
        }
    }

    #[test]
    fn full_decode_round_trips_within_bound() {
        let (ds, bytes) = sample_store(1024);
        let reader = StoreReader::open(&bytes).unwrap();
        assert_eq!(reader.field_names(), vec!["density", "energy"]);
        for (name, original) in &ds.fields {
            let decoded = reader.decode_field(name).unwrap();
            let bound = reader.field(name).unwrap().1.resolved_bound.unwrap();
            for (a, b) in original.values().iter().zip(decoded.values()) {
                assert!((a - b).abs() <= bound * (1.0 + 1e-9));
            }
        }
    }

    #[test]
    fn query_matches_full_decode_bit_for_bit() {
        let (_, bytes) = sample_store(1024);
        let reader = StoreReader::open(&bytes).unwrap();
        let side = reader.tree().level_dims(reader.tree().max_level())[0] as u32;
        let q = Query::bbox([0, 0, 0], [side / 4, side / 4, 0]);
        let result = reader.query("density", &q).unwrap();
        assert!(!result.storage_indices.is_empty());
        let full = reader.decode_field("density").unwrap();
        for (&s, &v) in result.storage_indices.iter().zip(&result.values) {
            assert_eq!(v.to_bits(), full.values()[s as usize].to_bits());
        }
    }

    #[test]
    fn small_query_decodes_fewer_chunks() {
        let (_, bytes) = sample_store(512);
        let reader = StoreReader::open(&bytes).unwrap();
        let q = Query::bbox([0, 0, 0], [3, 3, 0]);
        let result = reader.query("density", &q).unwrap();
        assert!(result.chunks_total >= 8);
        assert!(
            result.chunks_decoded < result.chunks_total,
            "{} !< {}",
            result.chunks_decoded,
            result.chunks_total
        );
    }

    #[test]
    fn level_selection_filters_cells() {
        let (ds, bytes) = sample_store(1024);
        let reader = StoreReader::open(&bytes).unwrap();
        let side = reader.tree().level_dims(reader.tree().max_level())[0] as u32 - 1;
        let all = Query::bbox([0, 0, 0], [side, side, 0]);
        let finest_only = all.with_levels([reader.tree().max_level()]);
        let r = reader.query("density", &finest_only).unwrap();
        assert!(!r.storage_indices.is_empty());
        for &s in &r.storage_indices {
            assert_eq!(ds.tree.cell(s as usize).level, ds.tree.max_level());
        }
        assert!(matches!(
            reader.query("density", &all.with_levels([])),
            Err(StoreError::BadQuery(_))
        ));
        // A level ≥ 32 must not wrap onto level `l % 32`; with no valid
        // level left the mask is empty and the query is rejected.
        assert!(matches!(
            reader.query("density", &all.with_levels([99])),
            Err(StoreError::BadQuery(_))
        ));
    }

    #[test]
    fn query_grammar_parses_boxes_and_levels() {
        let names = ["--bbox", "--level"];
        let q = Query::parse("0,0:7,7", None, names).unwrap();
        assert_eq!(q, Query::bbox([0, 0, 0], [7, 7, 0]));
        let q = Query::parse("1,2,3:4, 5,6", Some("0, 2"), names).unwrap();
        assert_eq!(q, Query::bbox([1, 2, 3], [4, 5, 6]).with_levels([0, 2]));
        for bad in ["1,2", "a,b:c,d", "1:2", "1,2,3,4:5,6"] {
            let err = Query::parse(bad, None, names).unwrap_err();
            assert!(err.starts_with("--bbox "), "{err}");
        }
        let err = Query::parse("0,0:1,1", Some("x"), ["bbox", "levels"]).unwrap_err();
        assert_eq!(err, "levels \"x\": want L[,L...]");
    }

    #[test]
    fn unknown_field_and_bad_query_are_typed() {
        let (_, bytes) = sample_store(1024);
        let reader = StoreReader::open(&bytes).unwrap();
        assert!(matches!(
            reader.query("nope", &Query::bbox([0; 3], [1; 3])),
            Err(StoreError::UnknownField(_))
        ));
        assert!(matches!(
            reader.query("density", &Query::bbox([5, 0, 0], [1, 9, 0])),
            Err(StoreError::BadQuery(_))
        ));
    }

    /// Flips a byte inside one specific chunk's payload.
    fn corrupt_chunk(bytes: &mut [u8], field_idx: usize, chunk_idx: usize) {
        let (_, fields, payload) = format::open(bytes).unwrap();
        let meta = fields[field_idx].chunks[chunk_idx];
        bytes[payload.start + meta.offset as usize] ^= 0xff;
    }

    #[test]
    fn salvage_repairs_single_chunk_damage_from_parity() {
        let (_, mut bytes) = sample_store(512);
        corrupt_chunk(&mut bytes, 0, 2);
        let clean = sample_store(512).1;
        let full = StoreReader::open(&clean)
            .unwrap()
            .decode_field("density")
            .unwrap();

        let reader = StoreReader::open(&bytes)
            .unwrap()
            .with_read_policy(ReadPolicy::salvage());
        let (field, report) = reader.decode_field_with_report("density").unwrap();
        assert_eq!(report.chunks.len(), 1);
        assert_eq!(report.chunks[0].chunk, 2);
        assert_eq!(report.chunks[0].field, "density");
        assert_eq!(report.chunks[0].status, DamageStatus::Repaired);
        assert!(matches!(
            report.chunks[0].error,
            StoreError::ChunkCrc { .. }
        ));
        assert_eq!(
            report.total_values_lost(),
            0,
            "repaired chunk loses nothing"
        );
        assert_eq!(report.repaired().count(), 1);
        assert_eq!(report.lost().count(), 0);
        // The repaired decode is bit-identical to the clean one.
        for (a, b) in field.values().iter().zip(full.values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // The undamaged field is untouched and reports no damage.
        let (_, clean_report) = reader.decode_field_with_report("energy").unwrap();
        assert!(clean_report.is_empty());
    }

    #[test]
    fn salvage_decode_fills_and_reports_when_parity_cannot_help() {
        // Width 0 ⇒ v2 store, no parity: single-chunk damage stays lost.
        let (_, mut bytes) = sample_store_with_width(512, 0);
        corrupt_chunk(&mut bytes, 0, 2);
        let clean = sample_store_with_width(512, 0).1;
        let full = StoreReader::open(&clean)
            .unwrap()
            .decode_field("density")
            .unwrap();

        let reader = StoreReader::open(&bytes)
            .unwrap()
            .with_read_policy(ReadPolicy::salvage());
        let (field, report) = reader.decode_field_with_report("density").unwrap();
        assert_eq!(report.chunks.len(), 1);
        assert_eq!(report.chunks[0].status, DamageStatus::Lost);
        assert_eq!(report.fill, SalvageFill::Nan);
        assert_eq!(report.values_lost_in("density"), report.total_values_lost());
        assert!(!report.chunks[0].byte_range.is_empty());
        // Lost cells are NaN; every surviving cell is bit-identical to the
        // clean decode.
        let nan_count = field.values().iter().filter(|v| v.is_nan()).count();
        assert_eq!(nan_count, report.total_values_lost());
        assert!(nan_count > 0);
        for (a, b) in field.values().iter().zip(full.values()) {
            if !a.is_nan() {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn salvage_fill_zero_substitutes_zeros() {
        let (_, mut bytes) = sample_store_with_width(512, 0);
        corrupt_chunk(&mut bytes, 0, 2);
        let reader = StoreReader::open(&bytes)
            .unwrap()
            .with_read_policy(ReadPolicy::Salvage {
                fill: SalvageFill::Zero,
            });
        let (field, report) = reader.decode_field_with_report("density").unwrap();
        assert_eq!(report.fill, SalvageFill::Zero);
        assert!(report.total_values_lost() > 0);
        assert!(
            field.values().iter().all(|v| !v.is_nan()),
            "zero fill must not produce NaN"
        );
    }

    #[test]
    fn salvage_query_repairs_or_drops_damaged_chunks_strict_errors() {
        let (_, mut bytes) = sample_store(512);
        corrupt_chunk(&mut bytes, 0, 0);
        let side = {
            let r = StoreReader::open(&bytes).unwrap();
            r.tree().level_dims(r.tree().max_level())[0] as u32 - 1
        };
        let q = Query::bbox([0, 0, 0], [side, side, 0]);

        // Strict never reconstructs: you asked for exactly the written
        // bytes, you get an error.
        let strict = StoreReader::open(&bytes).unwrap();
        assert!(matches!(
            strict.query("density", &q),
            Err(StoreError::ChunkCrc { .. })
        ));

        // With parity, the damaged chunk is rebuilt and the query result
        // is complete.
        let salvage = StoreReader::open(&bytes)
            .unwrap()
            .with_read_policy(ReadPolicy::salvage());
        let result = salvage.query("density", &q).unwrap();
        assert_eq!(result.damage.chunks.len(), 1);
        assert_eq!(result.damage.chunks[0].chunk, 0);
        assert_eq!(result.damage.chunks[0].status, DamageStatus::Repaired);
        let clean = sample_store(512).1;
        let clean_result = StoreReader::open(&clean)
            .unwrap()
            .query("density", &q)
            .unwrap();
        assert_eq!(result.storage_indices, clean_result.storage_indices);
        assert_eq!(result.values, clean_result.values);

        // Without parity, the damaged chunk is dropped from the result.
        let (_, mut v2) = sample_store_with_width(512, 0);
        corrupt_chunk(&mut v2, 0, 0);
        let salvage = StoreReader::open(&v2)
            .unwrap()
            .with_read_policy(ReadPolicy::salvage());
        let result = salvage.query("density", &q).unwrap();
        assert_eq!(result.damage.chunks.len(), 1);
        assert_eq!(result.damage.chunks[0].status, DamageStatus::Lost);
        assert!(!result.storage_indices.is_empty(), "survivors expected");
        assert!(result.values.iter().all(|v| !v.is_nan()));
        assert!(result.storage_indices.len() < clean_result.storage_indices.len());
        // Reports from several fields merge into one per-field summary.
        let mut merged = result.damage.clone();
        merged.merge(DamageReport::default());
        assert_eq!(merged.by_field().len(), 1);
    }

    #[test]
    fn two_failures_in_one_group_stay_lost() {
        let (_, mut bytes) = sample_store(512);
        // Chunks 0 and 2 share parity group 0 at the default width 8.
        corrupt_chunk(&mut bytes, 0, 0);
        corrupt_chunk(&mut bytes, 0, 2);
        let reader = StoreReader::open(&bytes)
            .unwrap()
            .with_read_policy(ReadPolicy::salvage());
        let (field, report) = reader.decode_field_with_report("density").unwrap();
        assert_eq!(report.chunks.len(), 2);
        assert!(report.chunks.iter().all(|c| c.status == DamageStatus::Lost));
        assert!(report.total_values_lost() > 0);
        assert!(field.values().iter().any(|v| v.is_nan()));
    }

    fn sample_rs_store(chunk_bytes: u32, k: u32, m: u32) -> Vec<u8> {
        let ds = datasets::blast2d(StorageMode::AllCells, datasets::Scale::Tiny);
        StoreWriter::new(CompressionConfig::zmesh_default())
            .with_chunk_target_bytes(chunk_bytes)
            .with_parity(Parity::Rs { data: k, parity: m })
            .write(&refs(&ds))
            .unwrap()
            .bytes
    }

    #[test]
    fn rs_salvage_repairs_up_to_m_failures_per_group() {
        let mut bytes = sample_rs_store(512, 8, 2);
        // Chunks 0 and 2 share group 0 at k = 8: two erasures, budget 2.
        corrupt_chunk(&mut bytes, 0, 0);
        corrupt_chunk(&mut bytes, 0, 2);
        let clean = sample_rs_store(512, 8, 2);
        let full = StoreReader::open(&clean)
            .unwrap()
            .decode_field("density")
            .unwrap();
        let reader = StoreReader::open(&bytes)
            .unwrap()
            .with_read_policy(ReadPolicy::salvage());
        let (field, report) = reader.decode_field_with_report("density").unwrap();
        assert_eq!(report.chunks.len(), 2);
        assert!(report
            .chunks
            .iter()
            .all(|c| c.status == DamageStatus::Repaired));
        assert_eq!(report.total_values_lost(), 0);
        assert_eq!(
            report.groups,
            vec![GroupDamage {
                field: "density".into(),
                group: 0,
                erasures: 2,
                repaired: 2,
            }]
        );
        for (a, b) in field.values().iter().zip(full.values()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn rs_salvage_gives_up_past_the_parity_budget() {
        let mut bytes = sample_rs_store(512, 8, 2);
        for c in [0, 2, 4] {
            corrupt_chunk(&mut bytes, 0, c);
        }
        let reader = StoreReader::open(&bytes)
            .unwrap()
            .with_read_policy(ReadPolicy::salvage());
        let (field, report) = reader.decode_field_with_report("density").unwrap();
        assert_eq!(report.chunks.len(), 3);
        assert!(report.chunks.iter().all(|c| c.status == DamageStatus::Lost));
        assert_eq!(report.groups.len(), 1);
        assert_eq!(report.groups[0].erasures, 3);
        assert_eq!(report.groups[0].repaired, 0);
        assert!(field.values().iter().any(|v| v.is_nan()));
    }

    #[test]
    fn rs_reconstruction_survives_a_lost_parity_shard() {
        let mut bytes = sample_rs_store(512, 8, 2);
        corrupt_chunk(&mut bytes, 0, 1);
        // Also destroy shard 0 of group 0 (parity slot 0): one erasure,
        // one surviving shard — still within budget.
        {
            let (_, fields, payload) = format::open(&bytes).unwrap();
            let meta = fields[0].parity[0];
            bytes[payload.start + meta.offset as usize] ^= 0xff;
        }
        let reader = StoreReader::open(&bytes)
            .unwrap()
            .with_read_policy(ReadPolicy::salvage());
        let (_, report) = reader.decode_field_with_report("density").unwrap();
        assert_eq!(report.chunks.len(), 1);
        assert_eq!(report.chunks[0].status, DamageStatus::Repaired);
        assert_eq!(report.parity.len(), 1);
        assert_eq!(report.parity[0].group, 0);
        assert_eq!(report.parity[0].shard, 0);
    }

    #[test]
    fn strict_decode_detects_parity_damage_salvage_reports_it() {
        let (_, mut bytes) = sample_store(512);
        // Flip a byte inside field 0's first parity chunk.
        {
            let (_, fields, payload) = format::open(&bytes).unwrap();
            let meta = fields[0].parity[0];
            bytes[payload.start + meta.offset as usize] ^= 0xff;
        }
        let strict = StoreReader::open(&bytes).unwrap();
        assert!(matches!(
            strict.decode_field("density"),
            Err(StoreError::ParityCrc { .. })
        ));
        let salvage = StoreReader::open(&bytes)
            .unwrap()
            .with_read_policy(ReadPolicy::salvage());
        let (field, report) = salvage.decode_field_with_report("density").unwrap();
        assert!(report.chunks.is_empty(), "data chunks are intact");
        assert_eq!(report.parity.len(), 1);
        assert_eq!(report.parity[0].group, 0);
        assert!(!report.is_empty());
        assert!(field.values().iter().all(|v| !v.is_nan()));
    }

    #[test]
    fn chunk_cache_round_trips_and_counts_hits() {
        let (_, bytes) = sample_store(1024);
        let plain = StoreReader::open(&bytes).unwrap();
        let q = Query::bbox([0, 0, 0], [7, 7, 0]);
        let want = plain.query("density", &q).unwrap();

        let cache = Arc::new(ChunkCache::new(1 << 20));
        let cached = StoreReader::open(&bytes)
            .unwrap()
            .with_chunk_cache(Arc::clone(&cache), 1);
        let cold = cached.query("density", &q).unwrap();
        assert_eq!(cold.storage_indices, want.storage_indices);
        assert_eq!(cold.values, want.values);
        let after_cold = cache.stats();
        assert!(after_cold.misses > 0);
        assert_eq!(after_cold.hits, 0);

        let warm = cached.query("density", &q).unwrap();
        assert_eq!(warm.storage_indices, want.storage_indices);
        assert_eq!(warm.values, want.values);
        let after_warm = cache.stats();
        assert_eq!(after_warm.hits, after_cold.misses);
        assert_eq!(after_warm.misses, after_cold.misses);

        // A second store sharing the cache under a different key must not
        // collide: same field/chunk indices, fresh misses.
        let other = StoreReader::open(&bytes)
            .unwrap()
            .with_chunk_cache(Arc::clone(&cache), 2);
        let again = other.query("density", &q).unwrap();
        assert_eq!(again.values, want.values);
        assert_eq!(cache.stats().misses, 2 * after_cold.misses);

        // Full-field decode also flows through the cache.
        let field = cached.decode_field("density").unwrap();
        assert!(!field.values().is_empty());
        assert!(cache.stats().hits > after_warm.hits);
    }

    #[test]
    fn transient_read_failures_are_retried_to_an_identical_result() {
        use crate::faultinject::{FaultSource, FaultSpec};
        let (_, bytes) = sample_store(512);
        let clean = StoreReader::open(&bytes).unwrap();
        let side = clean.tree().level_dims(clean.tree().max_level())[0] as u32 - 1;
        let q = Query::bbox([0, 0, 0], [side, side, 0]);
        let want = clean.query("density", &q).unwrap();

        // Every read fails twice before succeeding (burst 2 < 3 attempts):
        // the open and every query must still come back bit-identical.
        let spec = FaultSpec {
            seed: 3,
            transient_per_mille: 1000,
            burst: 2,
            ..FaultSpec::default()
        };
        let flaky = StoreReader::open_source(FaultSource::new(SliceSource::new(&bytes), spec))
            .expect("open retries through transient faults");
        assert!(flaky.retry_stats().retries > 0, "open alone must retry");
        assert_eq!(flaky.retry_stats().gave_up, 0);
        let got = flaky.query("density", &q).unwrap();
        assert_eq!(got.storage_indices, want.storage_indices);
        let bits: Vec<u64> = got.values.iter().map(|v| v.to_bits()).collect();
        let want_bits: Vec<u64> = want.values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, want_bits);
        assert!(got.damage.is_empty());
        assert!(flaky.retry_stats().retries >= 2);
    }

    #[test]
    fn exhausted_retries_surface_the_transient_error() {
        use crate::faultinject::{FaultSource, FaultSpec};
        let (_, bytes) = sample_store(512);
        // Bursts of 5 exceed the 3-attempt budget; the error must keep its
        // transient classification so callers can distinguish it from
        // corruption.
        let spec = FaultSpec {
            seed: 9,
            transient_per_mille: 1000,
            burst: 5,
            ..FaultSpec::default()
        };
        let err = match StoreReader::open_source(FaultSource::new(SliceSource::new(&bytes), spec)) {
            Err(e) => e,
            Ok(_) => panic!("every read burst outlasts the retry budget"),
        };
        assert!(err.is_transient(), "{err}");

        // At a 50% injection rate, bursts of up to 5 occasionally outlast
        // the 3-attempt budget mid-query; the surfaced error must stay
        // transient so callers can tell it apart from corruption.
        let mut surfaced = false;
        for seed in 0..20 {
            let spec = FaultSpec {
                seed,
                transient_per_mille: 500,
                burst: 5,
                ..FaultSpec::default()
            };
            match StoreReader::open_source(FaultSource::new(SliceSource::new(&bytes), spec)) {
                Err(e) => {
                    assert!(e.is_transient(), "{e}");
                    surfaced = true;
                }
                Ok(reader) => {
                    let side = reader.tree().level_dims(reader.tree().max_level())[0] as u32 - 1;
                    let q = Query::bbox([0, 0, 0], [side, side, 0]);
                    for _ in 0..8 {
                        if let Err(e) = reader.query("density", &q) {
                            assert!(e.is_transient(), "{e}");
                            surfaced = true;
                            break;
                        }
                    }
                    surfaced |= reader.retry_stats().gave_up > 0;
                }
            }
            if surfaced {
                break;
            }
        }
        assert!(surfaced, "no seed in 0..20 ever exhausted the budget");
    }

    #[test]
    fn retry_policy_none_disables_retrying() {
        use crate::faultinject::{FaultSource, FaultSpec};
        let (_, bytes) = sample_store(512);
        let spec = FaultSpec {
            seed: 1,
            transient_per_mille: 400,
            burst: 1,
            ..FaultSpec::default()
        };
        let fault = FaultSource::new(SliceSource::new(&bytes), spec);
        let mut probe = [0u8; 1];
        while fault.read_at(0, &mut probe).is_err() {}
        let reader = match StoreReader::open_source(fault) {
            Ok(r) => r.with_retry_policy(RetryPolicy::none()),
            Err(_) => return, // open burst landed badly; nothing to assert
        };
        assert_eq!(reader.retry_policy().attempts, 1);
        // Open itself ran under the default policy; only the queries below
        // must add nothing to the retry counter.
        let baseline = reader.retry_stats().retries;
        let side = reader.tree().level_dims(reader.tree().max_level())[0] as u32 - 1;
        let q = Query::bbox([0, 0, 0], [side, side, 0]);
        // With 40% failure odds per read and no retrying, repeated queries
        // must eventually surface a transient error untouched.
        let mut saw_transient = false;
        for _ in 0..32 {
            if let Err(e) = reader.query("density", &q) {
                assert!(e.is_transient(), "{e}");
                saw_transient = true;
                break;
            }
        }
        assert!(
            saw_transient,
            "injection rate makes a clean run implausible"
        );
        assert_eq!(
            reader.retry_stats().retries,
            baseline,
            "attempts=1 never retries"
        );
        assert!(reader.retry_stats().gave_up > 0);
    }

    #[test]
    fn corrupt_payload_byte_is_caught_by_some_crc() {
        let (_, mut bytes) = sample_store(1024);
        // Flip one byte in the middle of the payload region.
        let mid = {
            let reader = StoreReader::open(&bytes).unwrap();
            (reader.payload.start + (reader.payload.end - reader.payload.start) / 2) as usize
        };
        bytes[mid] ^= 0x40;
        let reader = StoreReader::open(&bytes).unwrap();
        let names: Vec<String> = reader.field_names().iter().map(|s| s.to_string()).collect();
        let hit = names.iter().any(|n| {
            matches!(
                reader.decode_field(n),
                Err(StoreError::ChunkCrc { .. }) | Err(StoreError::ParityCrc { .. })
            )
        });
        assert!(hit, "no field reported a CRC failure");
    }
}
