//! Scrub & repair: offline integrity audit and reconstruction of stores.
//!
//! [`scrub`] walks every data and parity chunk of a container and verifies
//! CRCs **without decoding payloads** — it answers "is this store healthy,
//! and if not, can parity still save it?" cheaply enough to run in a
//! monitoring loop. [`repair`] actually rewrites the store: every damaged
//! data chunk its parity group can reconstruct is rebuilt (and re-verified
//! against its footer CRC), parity chunks are recomputed from the
//! recovered data, and chunks parity cannot reach can be pulled from a
//! structurally identical `replica` store or — via [`repair_with`] and a
//! [`RawSource`] — **re-encoded from the original field data** through the
//! writer's chunk pipeline. Recovery avenues cascade to a fixpoint
//! (parity → replica → raw, then parity again with the group refilled), so
//! a replica or raw copy of one chunk can put a group back inside its
//! erasure budget. Because the writer's layout is deterministic
//! (field-major data, then field-major parity), a successful repair of a
//! writer-produced store is **byte-identical** to the pre-damage original.
//!
//! The erasure budget follows the store's scheme: v3 XOR groups tolerate
//! one failure per group, v4 Reed–Solomon groups tolerate up to `m`
//! ([`crate::StoreHeader::scheme`]). Both operations work on v2 stores
//! too: there is simply no parity to verify or reconstruct from, so scrub
//! reports damage as unrecoverable (`parity_available: false`) and repair
//! can only use a replica or raw source.

use crate::cache::RecipeCache;
use crate::format::{self, ChunkKind, FieldEntry, Spans, StoreError, StoreHeader};
use crate::layout::Layout;
use crate::parity::{group_count, group_members, group_of};
use crate::reader::{RetryCounters, RetryPolicy};
use crate::sink::VecSink;
use crate::source::{ByteSource, SliceSource};
use crate::writer::{encode_run, EncodedChunk, RUN_CHUNKS};
use std::borrow::Cow;
use std::ops::Range;
use zmesh::{codec_for, crc32, GroupingMode};
use zmesh_amr::AmrField;
use zmesh_codecs::{CodecParams, ErrorControl};

/// One chunk scrub found damaged.
#[derive(Debug, Clone, PartialEq)]
pub struct ScrubChunk {
    /// Field the chunk belongs to.
    pub field: String,
    /// Data or parity chunk, with its index.
    pub chunk: ChunkKind,
    /// Whether parity alone can recover it (no replica considered).
    pub recoverable: bool,
    /// Byte range within the store buffer (saturated).
    pub byte_range: Range<usize>,
    /// Why the chunk failed verification.
    pub error: StoreError,
}

/// Outcome of [`scrub`]: per-chunk health of a store, CRCs only.
#[derive(Debug, Clone, PartialEq)]
pub struct ScrubReport {
    /// Format version the store declares.
    pub version: u16,
    /// Data chunks per parity group (0 ⇒ no parity section).
    pub parity_group_width: u32,
    /// Parity shards per group — the per-group erasure budget (1 for XOR
    /// v3, `m` for Reed–Solomon v4, 0 without parity).
    pub parity_shards: u32,
    /// Whether the store carries parity at all.
    pub parity_available: bool,
    /// Fields in the store.
    pub fields: usize,
    /// Data chunks verified across all fields.
    pub data_chunks: usize,
    /// Parity chunks verified across all fields.
    pub parity_chunks: usize,
    /// Every damaged chunk, in (field, data-before-parity, index) order.
    pub damaged: Vec<ScrubChunk>,
    /// Bytes the scrub actually read from its source (the whole buffer
    /// for in-memory scrubs; framing + chunk spans for ranged ones).
    pub bytes_read: u64,
    /// Total size of the store being scrubbed.
    pub store_bytes: u64,
    /// Wall-clock seconds the CRC walk took.
    pub elapsed_secs: f64,
    /// Scrub throughput (`bytes_read` / `elapsed_secs`, rounded down) —
    /// the walk is CRC-bound, so this surfaces which
    /// [`zmesh_kernels::crc32`] tier the runtime probe dispatched to.
    pub bytes_per_s: u64,
}

impl ScrubReport {
    /// No damage at all.
    pub fn is_clean(&self) -> bool {
        self.damaged.is_empty()
    }

    /// Damaged chunks parity can recover.
    pub fn recoverable(&self) -> usize {
        self.damaged.iter().filter(|d| d.recoverable).count()
    }

    /// Damaged chunks parity cannot recover (replica or data loss).
    pub fn unrecoverable(&self) -> usize {
        self.damaged.len() - self.recoverable()
    }

    /// Machine-readable JSON summary (hand-rolled: no serde in tree).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str(&format!(
            "{{\"version\":{},\"parity_group_width\":{},\"parity_shards\":{},\
             \"parity_available\":{},\
             \"fields\":{},\"data_chunks\":{},\"parity_chunks\":{},\
             \"recoverable\":{},\"unrecoverable\":{},\"clean\":{},\
             \"bytes_read\":{},\"store_bytes\":{},\
             \"elapsed_secs\":{:.6},\"bytes_per_s\":{},\"damaged\":[",
            self.version,
            self.parity_group_width,
            self.parity_shards,
            self.parity_available,
            self.fields,
            self.data_chunks,
            self.parity_chunks,
            self.recoverable(),
            self.unrecoverable(),
            self.is_clean(),
            self.bytes_read,
            self.store_bytes,
            self.elapsed_secs,
            self.bytes_per_s,
        ));
        for (i, d) in self.damaged.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let (kind, index) = match d.chunk {
                ChunkKind::Data(i) => ("data", i),
                ChunkKind::Parity(s) => ("parity", s),
            };
            out.push_str(&format!(
                "{{\"field\":\"{}\",\"kind\":\"{kind}\",\"index\":{index},\"recoverable\":{},\
                 \"byte_range\":[{},{}],\"error\":\"{}\"}}",
                json_escape(&d.field),
                d.recoverable,
                d.byte_range.start,
                d.byte_range.end,
                json_escape(&d.error.to_string()),
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Escapes a string for embedding in a JSON string literal: quotes,
/// backslashes, and control bytes (`\n`, `\r`, `\t` in their short
/// forms). The store's reports and the serve daemon's responses share it.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Verifies every data and parity chunk of an in-memory store. See
/// [`scrub_source`].
pub fn scrub(bytes: &[u8]) -> Result<ScrubReport, StoreError> {
    scrub_source(&SliceSource::new(bytes))
}

/// Verifies every data and parity chunk of a store (CRCs only, no payload
/// decoding) and classifies each failure as parity-recoverable or not.
/// Container-level damage (bad magic, torn commit, truncated/CRC-failing
/// index) is returned as an error — there is no per-chunk story to tell
/// without a trustworthy index. Through a ranged source (e.g.
/// [`crate::FileSource`]) the scrub streams chunk spans instead of loading
/// the file; [`ScrubReport::bytes_read`] records the actual traffic.
pub fn scrub_source<S: ByteSource + ?Sized>(src: &S) -> Result<ScrubReport, StoreError> {
    let started = std::time::Instant::now();
    let (header, fields, payload) = format::open_source(src)?;
    let width = header.parity_group_width as usize;
    let scheme = header.scheme();
    // Offline walks surface transient read failures at once.
    let counters = RetryCounters::default();
    let spans = Spans::new(src, payload, scheme, RetryPolicy::none(), &counters);
    let mut report = ScrubReport {
        version: header.version,
        parity_group_width: header.parity_group_width,
        parity_shards: scheme.shards(),
        parity_available: header.capabilities().parity,
        fields: fields.len(),
        data_chunks: fields.iter().map(|f| f.chunks.len()).sum(),
        parity_chunks: fields.iter().map(|f| f.parity.len()).sum(),
        damaged: Vec::new(),
        bytes_read: 0,
        store_bytes: src.len(),
        elapsed_secs: 0.0,
        bytes_per_s: 0,
    };
    for entry in &fields {
        // One fetch per span: the failures keep their first error.
        let check = |kind| spans.get(entry, kind).err();
        let data: Vec<Option<StoreError>> = (0..entry.chunks.len())
            .map(|i| check(ChunkKind::Data(i)))
            .collect();
        let parity: Vec<Option<StoreError>> = (0..entry.parity.len())
            .map(|s| check(ChunkKind::Parity(s)))
            .collect();
        // Whether parity alone can rebuild group `g`: the budget test of
        // `Parity::recover`, over its failed members and intact shards.
        let heals = |g: usize| {
            let missing = group_members(g, width, data.len())
                .filter(|&c| data[c].is_some())
                .count();
            let intact = (g * spans.shards..(g + 1) * spans.shards)
                .filter(|&slot| matches!(parity.get(slot), Some(None)))
                .count();
            scheme.heals(missing, intact)
        };
        let kinds = (0..data.len()).map(ChunkKind::Data);
        for kind in kinds.chain((0..parity.len()).map(ChunkKind::Parity)) {
            // A parity shard is recomputable whenever the data it protects
            // is intact or itself recoverable from the surviving shards.
            let (error, group) = match kind {
                ChunkKind::Data(i) => (&data[i], (width > 0).then(|| group_of(i, width))),
                ChunkKind::Parity(s) => (&parity[s], Some(s / spans.shards)),
            };
            let Some(error) = error else { continue };
            report.damaged.push(ScrubChunk {
                field: entry.name.clone(),
                chunk: kind,
                recoverable: group.is_some_and(heals),
                byte_range: spans.report_range(entry, kind),
                error: error.clone(),
            });
        }
    }
    report.bytes_read = src.bytes_read();
    report.elapsed_secs = started.elapsed().as_secs_f64();
    if report.elapsed_secs > 0.0 {
        report.bytes_per_s = (report.bytes_read as f64 / report.elapsed_secs) as u64;
    }
    Ok(report)
}

/// Where a repaired chunk's bytes came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairSource {
    /// Rebuilt from the store's own parity (XOR group or Reed–Solomon
    /// shards).
    Parity,
    /// Copied from the replica store.
    Replica,
    /// Re-encoded from the original field data ([`RawSource`]).
    Raw,
}

/// One data chunk [`repair`] recovered.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairedChunk {
    /// Field the chunk belongs to.
    pub field: String,
    /// Data chunk index.
    pub chunk: usize,
    /// How it was recovered.
    pub source: RepairSource,
}

/// One data chunk [`repair`] could not recover.
#[derive(Debug, Clone, PartialEq)]
pub struct LostChunk {
    /// Field the chunk belongs to.
    pub field: String,
    /// Data chunk index.
    pub chunk: usize,
    /// Why every recovery avenue failed.
    pub error: StoreError,
}

/// Outcome of [`repair`].
#[derive(Debug, Clone, PartialEq)]
pub struct RepairOutcome {
    /// The rewritten, fully verified store — `Some` only when **every**
    /// data chunk was recovered (a partially repaired store would verify
    /// clean while silently missing data, so none is emitted).
    pub bytes: Option<Vec<u8>>,
    /// Data chunks recovered, with their source.
    pub repaired: Vec<RepairedChunk>,
    /// Parity chunks rewritten (recomputed from the recovered data).
    pub parity_rebuilt: usize,
    /// Data chunks no avenue could recover.
    pub lost: Vec<LostChunk>,
    /// Bytes read from the damaged store's source (framing + the spans
    /// the repair actually touched).
    pub bytes_read: u64,
}

/// The original, uncompressed field data a store was written from — the
/// recovery avenue of last resort for [`repair_with`]. Lost chunks are
/// re-encoded through the writer's own job (gather through the recipe →
/// compress, run by run) and accepted **only** when the re-encoded payload
/// matches the damaged store's footer CRC byte-for-byte, so a drifted or
/// wrong dataset can never be spliced in silently.
pub struct RawSource<'a> {
    fields: &'a [(&'a str, &'a AmrField)],
    cache: Option<&'a RecipeCache>,
}

impl<'a> RawSource<'a> {
    /// Wraps the original `(name, field)` pairs the store was packed from.
    pub fn new(fields: &'a [(&'a str, &'a AmrField)]) -> Self {
        Self {
            fields,
            cache: None,
        }
    }

    /// Reuses an existing recipe cache for the re-encode (the same cache a
    /// long-lived writer holds), skipping the recipe rebuild.
    pub fn with_cache(mut self, cache: &'a RecipeCache) -> Self {
        self.cache = Some(cache);
        self
    }
}

/// Re-encodes every chunk of `entry` from the raw field data with the
/// writer's own job ([`encode_run`]), under the parameters recorded in
/// the header and footer; each chunk comes with its CRC. Returns a
/// descriptive error when the raw data cannot possibly
/// match (wrong mesh, wrong mode, no reproducible error control) — the
/// error surfaces on any chunks the other avenues also fail to recover,
/// and callers still verify each re-encoded chunk against its footer CRC
/// before use.
fn raw_encode_field(
    header: &StoreHeader,
    entry: &FieldEntry,
    raw: &RawSource<'_>,
) -> Result<Vec<EncodedChunk>, StoreError> {
    let (_, field) = raw
        .fields
        .iter()
        .find(|(n, _)| *n == entry.name)
        .ok_or_else(|| StoreError::UnknownField(entry.name.clone()))?;
    if field.mode() != header.mode {
        return Err(StoreError::InvalidOptions(
            "raw dataset storage mode differs from the store's",
        ));
    }
    let tree = field.tree();
    if tree.structure_bytes() != header.structure {
        return Err(StoreError::InvalidOptions(
            "raw dataset mesh structure differs from the store's",
        ));
    }
    // Bounded controls re-encode as `Absolute(resolved_bound)` — exactly
    // what the writer did. Unbounded controls (fixed-rate /
    // fixed-precision) resolve to no bound, so the writer records the
    // original control in the footer; a store written before that tagging
    // existed cannot be re-encoded, and silently substituting some bound
    // would produce chunks the footer CRCs reject anyway.
    let control = match (entry.resolved_bound, entry.control) {
        (Some(bound), _) => ErrorControl::Absolute(bound),
        (None, Some(control)) => control,
        (None, None) => {
            return Err(StoreError::InvalidOptions(
                "store predates control tagging: the original fixed-rate/fixed-precision \
                 control is not recorded in the footer, so this field cannot be re-encoded \
                 from raw data (re-pack the dataset instead)",
            ))
        }
    };
    let grouping = GroupingMode::from_storage_mode(header.mode);
    let local_cache;
    let cache = match raw.cache {
        Some(c) => c,
        None => {
            local_cache = RecipeCache::new();
            &local_cache
        }
    };
    let (recipe, _) = cache.get_or_build(tree, &header.structure, header.policy, grouping);
    let (values, perm) = (field.values(), recipe.permutation());
    let chunk_values = header.chunk_values();
    let n = entry.chunks.len();
    if perm.len().div_ceil(chunk_values) != n {
        return Err(StoreError::InvalidOptions(
            "raw dataset value count disagrees with the store's chunk plan",
        ));
    }
    let codec = codec_for(header.codec);
    let params = CodecParams {
        control,
        dims: [0, 0, 0],
        value_type: header.value_type,
    };
    let mut out = Vec::with_capacity(n);
    for c in (0..n).step_by(RUN_CHUNKS) {
        let run = c..(c + RUN_CHUNKS).min(n);
        let (chunks, _) = encode_run(&*codec, values, perm, &params, chunk_values, run)?;
        out.extend(chunks);
    }
    Ok(out)
}

/// [`repair_with`] without a raw source: parity first, then `replica`.
pub fn repair(bytes: &[u8], replica: Option<&[u8]>) -> Result<RepairOutcome, StoreError> {
    repair_with(bytes, replica, None)
}

/// Rewrites `bytes` as a clean store. Damaged data chunks are recovered by
/// cascading three avenues to a fixpoint: (1) the store's own parity —
/// XOR for a single failure per group, Reed–Solomon for up to `m` — then
/// (2) a structurally identical `replica` store, then (3) re-encoding from
/// the original field data in `raw`. Each round a replica or raw copy can
/// pull a group back inside its erasure budget, so parity gets another
/// try. All parity shards are recomputed from the recovered data, and
/// every recovered payload is verified against its footer CRC before use.
/// Container-level damage errors out — repair needs a trustworthy index
/// (for a torn v4 store, rebuild from raw data instead and compare).
pub fn repair_with(
    bytes: &[u8],
    replica: Option<&[u8]>,
    raw: Option<&RawSource<'_>>,
) -> Result<RepairOutcome, StoreError> {
    let src = SliceSource::new(bytes);
    let replica_src = replica.map(SliceSource::new);
    repair_with_sources(&src, replica_src.as_ref(), raw)
}

/// [`repair_with`] over arbitrary [`ByteSource`]s. Through ranged sources
/// the repair reads only the framing plus the chunk spans it actually
/// touches — intact groups cost one CRC pass over their data, and only
/// damaged groups pull in parity shards.
pub fn repair_with_sources<S: ByteSource + ?Sized, R: ByteSource + ?Sized>(
    src: &S,
    replica: Option<&R>,
    raw: Option<&RawSource<'_>>,
) -> Result<RepairOutcome, StoreError> {
    let (header, fields, payload) = format::open_source(src)?;
    let width = header.parity_group_width as usize;
    let scheme = header.scheme();
    let counters = RetryCounters::default();
    let spans = Spans::new(src, payload, scheme, RetryPolicy::none(), &counters);

    // Parse and vet the replica once, up front. An incompatible replica is
    // a caller error, not a silent no-op.
    let replica_parts = match replica {
        None => None,
        Some(r) => {
            let (rh, rf, rp) = format::open_source(r)?;
            if !replica_compatible(&header, &rh) {
                return Err(StoreError::Corrupt(
                    "replica store does not match (structure or encoding differ)",
                ));
            }
            Some((
                Spans::new(r, rp, rh.scheme(), RetryPolicy::none(), &counters),
                rf,
            ))
        }
    };
    let replica_chunk = |field_name: &str, i: usize, meta_len: u64, meta_crc: u32| {
        let (rspans, rfields) = replica_parts.as_ref()?;
        let rentry = rfields.iter().find(|f| f.name == field_name)?;
        let rmeta = rentry.chunks.get(i)?;
        // The replica's copy must be the *same* chunk (length and CRC
        // agree with our footer), not merely a chunk at the same index.
        if rmeta.len != meta_len || rmeta.crc != meta_crc {
            return None;
        }
        rspans.get(rentry, ChunkKind::Data(i)).ok()
    };

    let mut outcome = RepairOutcome {
        bytes: None,
        repaired: Vec::new(),
        parity_rebuilt: 0,
        lost: Vec::new(),
        bytes_read: 0,
    };

    // Phase 1 — recover every data chunk, field by field, cascading the
    // avenues until a full pass makes no progress.
    let mut recovered: Vec<Vec<Vec<u8>>> = Vec::with_capacity(fields.len());
    for entry in &fields {
        let n = entry.chunks.len();
        // One fetch per span: a chunk no avenue recovers keeps its error.
        let mut chunks: Vec<Result<Vec<u8>, StoreError>> = (0..n)
            .map(|i| spans.get(entry, ChunkKind::Data(i)).map(Cow::into_owned))
            .collect();
        let mut sources: Vec<Option<RepairSource>> = vec![None; n];
        // The raw re-encode covers the whole field; run it at most once.
        let mut raw_chunks: Option<Result<Vec<EncodedChunk>, StoreError>> = None;
        loop {
            let mut progress = false;
            // Avenue 1: the store's own parity, one group at a time.
            for g in 0..group_count(n, width) {
                let members: Vec<Option<&[u8]>> = group_members(g, width, n)
                    .map(|c| chunks[c].as_deref().ok())
                    .collect();
                for (i, bytes) in scheme.recover(&spans, entry, g, &members) {
                    chunks[i] = Ok(bytes);
                    sources[i] = Some(RepairSource::Parity);
                    progress = true;
                }
            }
            // Avenues 2 and 3: the replica store, then a re-encode from
            // the original field data.
            for i in 0..n {
                if chunks[i].is_ok() {
                    continue;
                }
                let meta = &entry.chunks[i];
                let found = match replica_chunk(&entry.name, i, meta.len, meta.crc) {
                    Some(p) => Some((p.into_owned(), RepairSource::Replica)),
                    None => raw.and_then(|raw_src| {
                        let encoded = raw_chunks
                            .get_or_insert_with(|| raw_encode_field(&header, entry, raw_src));
                        let (b, _) = encoded.as_ref().ok()?.get(i)?;
                        let fits = b.len() as u64 == meta.len
                            && spans.verify(entry, ChunkKind::Data(i), b).is_ok();
                        fits.then(|| (b.clone(), RepairSource::Raw))
                    }),
                };
                if let Some((bytes, source)) = found {
                    chunks[i] = Ok(bytes);
                    sources[i] = Some(source);
                    progress = true;
                }
            }
            if !progress {
                break;
            }
        }
        for i in 0..n {
            match (&chunks[i], sources[i]) {
                (Ok(_), Some(source)) => outcome.repaired.push(RepairedChunk {
                    field: entry.name.clone(),
                    chunk: i,
                    source,
                }),
                // When a raw source was offered but could not be used, that
                // reason (mesh mismatch, missing precision control, …) is
                // the actionable error — report it instead of the
                // underlying span damage the caller already knows about.
                (Err(span_error), _) => outcome.lost.push(LostChunk {
                    field: entry.name.clone(),
                    chunk: i,
                    error: match &raw_chunks {
                        Some(Err(e)) => e.clone(),
                        _ => span_error.clone(),
                    },
                }),
                _ => {}
            }
        }
        recovered.push(chunks.into_iter().map(|c| c.unwrap_or_default()).collect());
    }

    if !outcome.lost.is_empty() {
        outcome.bytes_read = src.bytes_read();
        return Ok(outcome);
    }

    // Phase 2 — lay the recovered chunks out again through the writer's
    // layout, which recomputes every offset and parity shard. For a
    // writer-produced store this reproduces the pre-damage bytes exactly.
    let (new_fields, bytes) = relay(&header, fields.clone(), &recovered)?;
    for (old, new) in fields.iter().zip(&new_fields) {
        outcome.parity_rebuilt += (0..new.parity.len())
            .filter(|&slot| {
                old.parity
                    .get(slot)
                    .is_none_or(|meta| meta.crc != new.parity[slot].crc)
                    || spans.get(old, ChunkKind::Parity(slot)).is_err()
            })
            .count();
    }
    outcome.bytes = Some(bytes);
    outcome.bytes_read = src.bytes_read();
    Ok(outcome)
}

/// Lays `chunks` (per field, in stream order) out as a complete store
/// under `header`, through the writer's [`Layout`]. Each field's entry
/// keeps its name, bound and the coverage of its first `chunks[f].len()`
/// chunks; offsets, CRCs, parity and the container tail are recomputed.
/// Returns the new index and bytes.
fn relay<B: AsRef<[u8]>>(
    header: &StoreHeader,
    mut fields: Vec<FieldEntry>,
    chunks: &[Vec<B>],
) -> Result<(Vec<FieldEntry>, Vec<u8>), StoreError> {
    for (entry, kept) in fields.iter_mut().zip(chunks) {
        entry.chunks.truncate(kept.len());
        entry.parity.clear();
    }
    let mut sink = VecSink::new();
    let mut layout = Layout::new(&mut sink, header, fields, RetryPolicy::none())?;
    for bytes in chunks.iter().flatten() {
        let bytes = bytes.as_ref();
        layout.push(bytes, crc32(bytes))?;
    }
    let laid = layout.finish()?;
    Ok((laid.fields, sink.into_bytes()))
}

/// Outcome of [`salvage_torn`]: what survived of a torn store.
#[derive(Debug, Clone, PartialEq)]
pub struct TornSalvage {
    /// A fully valid (committed, index-CRC-clean) store covering every
    /// field's intact whole-chunk prefix, with parity recomputed over the
    /// kept chunks — `Some` only when at least one chunk survived.
    pub bytes: Option<Vec<u8>>,
    /// Fields in the recovered index.
    pub fields: usize,
    /// Data chunks the recovered index describes, across all fields.
    pub chunks_total: usize,
    /// Data chunks kept (the sum of per-field intact prefixes).
    pub chunks_kept: usize,
    /// Every chunk dropped, with the first failure per field carrying the
    /// real damage and the rest marked as beyond the salvageable prefix.
    pub dropped: Vec<LostChunk>,
}

impl TornSalvage {
    /// Whether anything was recovered.
    pub fn salvaged(&self) -> bool {
        self.bytes.is_some()
    }

    /// Machine-readable JSON summary (hand-rolled: no serde in tree).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"torn\":true,\"salvaged\":{},\"fields\":{},\
             \"chunks_total\":{},\"chunks_kept\":{},\"dropped\":[",
            self.salvaged(),
            self.fields,
            self.chunks_total,
            self.chunks_kept,
        );
        for (i, lost) in self.dropped.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"field\":\"{}\",\"chunk\":{},\"error\":\"{}\"}}",
                json_escape(&lost.field),
                lost.chunk,
                json_escape(&lost.error.to_string()),
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Salvages a **torn** v4 store (invalid or missing commit record) into a
/// valid truncated store covering the readable prefix, instead of refusing
/// to touch it.
///
/// The damage model is a crash mid-write (or mid-flush): the tail —
/// commit record, and possibly trailer, footer, and late payload pages —
/// never hit the disk, or hit it as garbage. Salvage works backwards from
/// what *can* be trusted:
///
/// 1. the fixed header must parse ([`crate::peek_header`] — a store torn
///    inside its header has nothing to salvage);
/// 2. the buffer is scanned backwards for an index trailer
///    (`footer offset · footer crc · INDEX_MAGIC`) whose CRC over
///    `header ++ footer` verifies — the 32-bit check makes a false match
///    on payload bytes effectively impossible, so a verified candidate
///    *is* the written index;
/// 3. with the index recovered, each field keeps the longest prefix of
///    data chunks that are in-bounds and CRC-clean; everything after the
///    first bad chunk is dropped (chunk indices are positional — keeping
///    a post-gap chunk would silently shift its cells);
/// 4. kept chunks are reassembled with recomputed offsets and freshly
///    computed parity via the writer's deterministic layout, producing a
///    committed store that opens and queries normally over the covered
///    region.
///
/// Errors when the store is not torn (use [`scrub`]/[`repair`] instead),
/// when the header is unreadable, or when no index trailer survives
/// (rebuild from raw data is then the only avenue).
pub fn salvage_torn(bytes: &[u8]) -> Result<TornSalvage, StoreError> {
    match format::open(bytes) {
        Ok(_) => {
            return Err(StoreError::InvalidOptions(
                "store is not torn; use scrub/repair instead",
            ))
        }
        Err(StoreError::Torn) => {}
        Err(e) => return Err(e),
    }
    let header = format::peek_header(bytes)?;
    let header_len = header.header_bytes;

    // Scan backwards for a verifiable index trailer: a magic hit at `q`
    // puts the trailer at `q-12..q+4`, which the index reader checks like
    // any store's.
    let src = SliceSource::new(bytes);
    let recovered = (header_len + 12..=bytes.len().saturating_sub(4))
        .rev()
        .filter(|&q| bytes[q..q + 4] == format::INDEX_MAGIC)
        .find_map(|q| format::read_index(&src, &header, q as u64 + 4).ok());
    let Some((fields, footer_offset)) = recovered else {
        return Err(StoreError::Corrupt(
            "torn store has no recoverable index trailer (rebuild from raw data)",
        ));
    };

    // Keep each field's longest intact whole-chunk prefix. Chunk offsets
    // are payload-relative; the payload starts right after the header and
    // ends where the file or the recovered footer does.
    let counters = RetryCounters::default();
    let payload = header_len as u64..(bytes.len() as u64).min(footer_offset);
    let spans = Spans::new(
        &src,
        payload,
        header.scheme(),
        RetryPolicy::none(),
        &counters,
    );
    let mut salvage = TornSalvage {
        bytes: None,
        fields: fields.len(),
        chunks_total: fields.iter().map(|f| f.chunks.len()).sum(),
        chunks_kept: 0,
        dropped: Vec::new(),
    };
    let mut kept_payloads: Vec<Vec<Cow<'_, [u8]>>> = Vec::with_capacity(fields.len());
    for entry in &fields {
        let mut kept = Vec::new();
        let mut first_error: Option<StoreError> = None;
        for i in 0..entry.chunks.len() {
            if first_error.is_none() {
                match spans.get(entry, ChunkKind::Data(i)) {
                    Ok(span) => {
                        kept.push(span);
                        continue;
                    }
                    Err(e) => first_error = Some(e),
                }
            }
            salvage.dropped.push(LostChunk {
                field: entry.name.clone(),
                chunk: i,
                error: if i == kept.len() {
                    first_error.clone().expect("first failure recorded")
                } else {
                    StoreError::Corrupt("beyond the salvageable prefix")
                },
            });
        }
        salvage.chunks_kept += kept.len();
        kept_payloads.push(kept);
    }
    if salvage.chunks_kept == 0 {
        return Ok(salvage);
    }

    // Lay the kept prefixes out afresh: parity is recomputed over the kept
    // chunks (the old parity protected groups that no longer exist at
    // their old widths).
    salvage.bytes = Some(relay(&header, fields, &kept_payloads)?.1);
    Ok(salvage)
}

/// Checks that `replica` is structurally interchangeable with the store
/// being repaired: same mesh structure bytes and same encoding parameters,
/// so equal (chunk index → payload) mappings are meaningful.
fn replica_compatible(ours: &StoreHeader, theirs: &StoreHeader) -> bool {
    ours.structure == theirs.structure
        && ours.policy == theirs.policy
        && ours.mode == theirs.mode
        && ours.codec == theirs.codec
        && ours.value_type == theirs.value_type
        && ours.chunk_target_bytes == theirs.chunk_target_bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultinject;
    use crate::parity::Parity;
    use crate::writer::StoreWriter;
    use zmesh::CompressionConfig;
    use zmesh_amr::{datasets, AmrField, StorageMode};

    fn dataset() -> datasets::Dataset {
        datasets::blast2d(StorageMode::AllCells, datasets::Scale::Tiny)
    }

    fn refs(ds: &datasets::Dataset) -> Vec<(&str, &AmrField)> {
        ds.fields.iter().map(|(n, f)| (n.as_str(), f)).collect()
    }

    fn store_with(parity: Parity) -> Vec<u8> {
        let ds = dataset();
        StoreWriter::new(CompressionConfig::zmesh_default())
            .with_chunk_target_bytes(512)
            .with_parity(parity)
            .write(&refs(&ds))
            .unwrap()
            .bytes
    }

    fn store(width: u32) -> Vec<u8> {
        store_with(if width == 0 {
            Parity::None
        } else {
            Parity::Xor { width }
        })
    }

    fn rs_store(k: u32, m: u32) -> Vec<u8> {
        store_with(Parity::Rs { data: k, parity: m })
    }

    #[test]
    fn json_escape_handles_quotes_and_control_bytes() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }

    #[test]
    fn scrub_is_clean_on_a_fresh_store_and_json_parses_shape() {
        let bytes = store(8);
        let report = scrub(&bytes).unwrap();
        assert!(report.is_clean());
        assert!(report.parity_available);
        assert_eq!(report.parity_shards, 1);
        assert!(report.data_chunks > 0);
        assert!(report.parity_chunks > 0);
        let json = report.to_json();
        assert!(json.contains("\"clean\":true"));
        assert!(json.contains("\"parity_shards\":1"));
        assert!(json.contains("\"damaged\":[]"));
        // The CRC walk reports its own throughput.
        assert!(json.contains("\"elapsed_secs\":"));
        assert!(json.contains("\"bytes_per_s\":"));
        assert!(report.elapsed_secs > 0.0);
        assert!(report.bytes_per_s > 0);
    }

    #[test]
    fn scrub_classifies_recoverable_and_unrecoverable_damage() {
        let mut bytes = store(8);
        faultinject::flip_data_chunk(&mut bytes, 0, 1);
        let report = scrub(&bytes).unwrap();
        assert_eq!(report.damaged.len(), 1);
        assert!(report.damaged[0].recoverable);
        assert_eq!(report.recoverable(), 1);
        assert_eq!(report.unrecoverable(), 0);

        // Second failure in the same group makes both unrecoverable.
        faultinject::flip_data_chunk(&mut bytes, 0, 2);
        let report = scrub(&bytes).unwrap();
        assert_eq!(report.damaged.len(), 2);
        assert_eq!(report.unrecoverable(), 2);
    }

    #[test]
    fn scrub_classifies_rs_damage_against_the_shard_budget() {
        let mut bytes = rs_store(8, 2);
        faultinject::flip_data_chunk(&mut bytes, 0, 0);
        faultinject::flip_data_chunk(&mut bytes, 0, 2);
        let report = scrub(&bytes).unwrap();
        assert_eq!(report.version, 4);
        assert_eq!(report.parity_shards, 2);
        assert_eq!(report.damaged.len(), 2);
        assert_eq!(report.recoverable(), 2, "two failures fit an m = 2 budget");

        // A third failure in the same group exceeds the budget.
        faultinject::flip_data_chunk(&mut bytes, 0, 4);
        let report = scrub(&bytes).unwrap();
        assert_eq!(report.damaged.len(), 3);
        assert_eq!(report.unrecoverable(), 3);
    }

    #[test]
    fn scrub_reports_v2_damage_as_unrecoverable() {
        let mut bytes = store(0);
        let report = scrub(&bytes).unwrap();
        assert!(report.is_clean());
        assert!(!report.parity_available);
        assert_eq!(report.parity_chunks, 0);
        assert_eq!(report.parity_shards, 0);
        faultinject::flip_data_chunk(&mut bytes, 0, 0);
        let report = scrub(&bytes).unwrap();
        assert_eq!(report.unrecoverable(), 1);
        assert!(report.to_json().contains("\"parity_available\":false"));
    }

    #[test]
    fn repair_restores_byte_identity_from_parity() {
        let clean = store(8);
        let mut bytes = clean.clone();
        faultinject::flip_data_chunk(&mut bytes, 0, 1);
        faultinject::flip_data_chunk(&mut bytes, 1, 3);
        let outcome = repair(&bytes, None).unwrap();
        assert_eq!(outcome.repaired.len(), 2);
        assert!(outcome.lost.is_empty());
        assert!(outcome
            .repaired
            .iter()
            .all(|r| r.source == RepairSource::Parity));
        assert_eq!(outcome.bytes.unwrap(), clean);
    }

    #[test]
    fn repair_restores_byte_identity_from_rs_parity() {
        let clean = rs_store(8, 2);
        let mut bytes = clean.clone();
        // Two failures in one group: beyond XOR, within an m = 2 budget.
        faultinject::flip_data_chunk(&mut bytes, 0, 0);
        faultinject::flip_data_chunk(&mut bytes, 0, 2);
        faultinject::flip_data_chunk(&mut bytes, 1, 5);
        let outcome = repair(&bytes, None).unwrap();
        assert_eq!(outcome.repaired.len(), 3);
        assert!(outcome.lost.is_empty());
        assert!(outcome
            .repaired
            .iter()
            .all(|r| r.source == RepairSource::Parity));
        assert_eq!(outcome.bytes.unwrap(), clean);
    }

    #[test]
    fn repair_rebuilds_damaged_parity() {
        let clean = store(8);
        let mut bytes = clean.clone();
        faultinject::flip_parity_chunk(&mut bytes, 0, 0);
        let outcome = repair(&bytes, None).unwrap();
        assert!(outcome.repaired.is_empty());
        assert_eq!(outcome.parity_rebuilt, 1);
        assert_eq!(outcome.bytes.unwrap(), clean);
    }

    #[test]
    fn repair_rebuilds_damaged_rs_shards() {
        let clean = rs_store(4, 2);
        let mut bytes = clean.clone();
        // Slot 1 = group 0, shard 1; slot 3 = group 1, shard 1.
        faultinject::flip_parity_chunk(&mut bytes, 0, 1);
        faultinject::flip_parity_chunk(&mut bytes, 0, 3);
        let outcome = repair(&bytes, None).unwrap();
        assert!(outcome.repaired.is_empty());
        assert_eq!(outcome.parity_rebuilt, 2);
        assert_eq!(outcome.bytes.unwrap(), clean);
    }

    #[test]
    fn repair_pulls_from_replica_when_parity_cannot_help() {
        let clean = store(8);
        let mut bytes = clean.clone();
        // Two failures in one group: beyond XOR parity.
        faultinject::flip_data_chunk(&mut bytes, 0, 0);
        faultinject::flip_data_chunk(&mut bytes, 0, 2);
        let outcome = repair(&bytes, None).unwrap();
        assert_eq!(outcome.lost.len(), 2);
        assert!(outcome.bytes.is_none());

        let outcome = repair(&bytes, Some(&clean)).unwrap();
        assert!(outcome.lost.is_empty());
        // Recovery cascades: once the replica restores a chunk, the group
        // is back inside the parity budget and parity can finish the job —
        // but the replica pass of the same round may already have healed
        // both, so only the replica source is guaranteed to appear.
        assert!(outcome
            .repaired
            .iter()
            .any(|r| r.source == RepairSource::Replica));
        assert_eq!(outcome.bytes.unwrap(), clean);
    }

    #[test]
    fn repair_reencodes_from_raw_when_parity_cannot_help() {
        let ds = dataset();
        let fields = refs(&ds);
        let clean = StoreWriter::new(CompressionConfig::zmesh_default())
            .with_chunk_target_bytes(512)
            .with_parity(Parity::Xor { width: 8 })
            .write(&fields)
            .unwrap()
            .bytes;
        let mut bytes = clean.clone();
        faultinject::flip_data_chunk(&mut bytes, 0, 0);
        faultinject::flip_data_chunk(&mut bytes, 0, 2);
        assert!(!repair(&bytes, None).unwrap().lost.is_empty());

        let raw = RawSource::new(&fields);
        let outcome = repair_with(&bytes, None, Some(&raw)).unwrap();
        assert!(outcome.lost.is_empty());
        assert!(outcome
            .repaired
            .iter()
            .any(|r| r.source == RepairSource::Raw));
        assert_eq!(outcome.bytes.unwrap(), clean);
    }

    #[test]
    fn raw_source_alone_rebuilds_a_v2_store() {
        let ds = dataset();
        let fields = refs(&ds);
        let clean = StoreWriter::new(CompressionConfig::zmesh_default())
            .with_chunk_target_bytes(512)
            .with_parity(Parity::None)
            .write(&fields)
            .unwrap()
            .bytes;
        let mut bytes = clean.clone();
        faultinject::flip_data_chunk(&mut bytes, 0, 0);
        faultinject::flip_data_chunk(&mut bytes, 1, 1);
        let raw = RawSource::new(&fields);
        let outcome = repair_with(&bytes, None, Some(&raw)).unwrap();
        assert!(outcome.lost.is_empty());
        assert!(outcome
            .repaired
            .iter()
            .all(|r| r.source == RepairSource::Raw));
        assert_eq!(outcome.bytes.unwrap(), clean);
    }

    #[test]
    fn raw_source_rejects_a_mismatched_dataset() {
        let mut bytes = store(8);
        faultinject::flip_data_chunk(&mut bytes, 0, 0);
        faultinject::flip_data_chunk(&mut bytes, 0, 2);
        let other = datasets::front2d(StorageMode::AllCells, datasets::Scale::Tiny);
        let fields = refs(&other);
        let raw = RawSource::new(&fields);
        let outcome = repair_with(&bytes, None, Some(&raw)).unwrap();
        assert_eq!(outcome.lost.len(), 2, "wrong mesh must never repair");
        assert!(outcome.bytes.is_none());
    }

    #[test]
    fn repair_rejects_mismatched_replica() {
        let mut bytes = store(8);
        faultinject::flip_data_chunk(&mut bytes, 0, 0);
        let other = {
            let ds = datasets::front2d(StorageMode::AllCells, datasets::Scale::Tiny);
            let fields: Vec<(&str, &AmrField)> =
                ds.fields.iter().map(|(n, f)| (n.as_str(), f)).collect();
            StoreWriter::new(CompressionConfig::zmesh_default())
                .with_chunk_target_bytes(512)
                .write(&fields)
                .unwrap()
                .bytes
        };
        assert!(matches!(
            repair(&bytes, Some(&other)),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn repair_of_a_clean_store_is_the_identity() {
        for parity in [
            Parity::Xor { width: 8 },
            Parity::None,
            Parity::Rs { data: 4, parity: 2 },
        ] {
            let clean = store_with(parity);
            let outcome = repair(&clean, None).unwrap();
            assert!(outcome.repaired.is_empty());
            assert_eq!(outcome.parity_rebuilt, 0);
            assert_eq!(outcome.bytes.unwrap(), clean, "{parity:?}");
        }
    }

    fn fixed_rate_store(ds: &datasets::Dataset) -> Vec<u8> {
        let config = CompressionConfig {
            codec: zmesh_codecs::CodecKind::Zfp,
            control: ErrorControl::FixedRate(16.0),
            ..CompressionConfig::zmesh_default()
        };
        StoreWriter::new(config)
            .with_chunk_target_bytes(512)
            .with_parity(Parity::None)
            .write(&refs(ds))
            .unwrap()
            .bytes
    }

    #[test]
    fn raw_reencode_reproduces_fixed_rate_fields_from_the_recorded_control() {
        let ds = dataset();
        let pristine = fixed_rate_store(&ds);
        let (_, fields, _) = format::open(&pristine).unwrap();
        assert!(fields.iter().all(
            |f| f.resolved_bound.is_none() && f.control == Some(ErrorControl::FixedRate(16.0))
        ));

        let mut broken = pristine.clone();
        faultinject::flip_data_chunk(&mut broken, 0, 0);
        let raw_fields = refs(&ds);
        let raw = RawSource::new(&raw_fields);
        let outcome = repair_with(&broken, None, Some(&raw)).unwrap();
        assert!(outcome.lost.is_empty(), "{:?}", outcome.lost);
        assert_eq!(outcome.bytes.unwrap(), pristine);
    }

    #[test]
    fn raw_reencode_rejects_stores_without_a_recorded_control() {
        let ds = dataset();
        let pristine = fixed_rate_store(&ds);
        // Simulate a store written before control tagging: same payload,
        // footer control record stripped back to tag 0.
        let (_, mut fields, payload) = format::open(&pristine).unwrap();
        for f in &mut fields {
            f.control = None;
        }
        let mut legacy = pristine[..payload.end].to_vec();
        legacy.extend(format::container_tail(
            &pristine[..payload.start],
            payload.len() as u64,
            &fields,
        ));
        faultinject::flip_data_chunk(&mut legacy, 0, 0);

        let raw_fields = refs(&ds);
        let raw = RawSource::new(&raw_fields);
        let outcome = repair_with(&legacy, None, Some(&raw)).unwrap();
        assert!(!outcome.lost.is_empty());
        assert!(
            matches!(
                &outcome.lost[0].error,
                StoreError::InvalidOptions(msg) if msg.contains("control")
            ),
            "want a clear missing-control error, got {:?}",
            outcome.lost[0].error
        );
    }

    #[test]
    fn salvage_torn_with_only_the_commit_record_lost_is_lossless() {
        let clean = rs_store(4, 2);
        let torn = faultinject::torn_at(&clean, clean.len() - format::COMMIT_RECORD_BYTES);
        assert!(matches!(format::open(&torn), Err(StoreError::Torn)));
        let salvage = salvage_torn(&torn).unwrap();
        assert!(salvage.dropped.is_empty());
        assert_eq!(salvage.chunks_kept, salvage.chunks_total);
        // Reassembly is deterministic: with every chunk intact the salvage
        // reproduces the pre-tear bytes exactly, commit record included.
        assert_eq!(salvage.bytes.as_deref(), Some(&clean[..]));
        let json = salvage.to_json();
        assert!(json.contains("\"salvaged\":true"));
        assert!(json.contains("\"dropped\":[]"));
    }

    #[test]
    fn salvage_torn_keeps_the_intact_prefix_and_drops_the_damaged_tail() {
        let clean = rs_store(4, 2);
        let (_, fields, _) = format::open(&clean).unwrap();
        let n0 = fields[0].chunks.len();
        let n1 = fields[1].chunks.len();
        assert!(n0 >= 4, "need enough chunks for a meaningful prefix");

        // Crash-mid-flush damage model: a payload page of field 0 never
        // hit the disk (chunk 2 garbage), and the commit record is gone.
        let mut torn = clean.clone();
        faultinject::flip_data_chunk(&mut torn, 0, 2);
        let cut = torn.len() - format::COMMIT_RECORD_BYTES;
        let mut torn = faultinject::torn_at(&torn, cut);
        assert!(matches!(format::open(&torn), Err(StoreError::Torn)));

        let salvage = salvage_torn(&torn).unwrap();
        assert_eq!(salvage.fields, 2);
        assert_eq!(salvage.chunks_total, n0 + n1);
        // Field 0 keeps chunks 0..2; field 1 is untouched and keeps all.
        assert_eq!(salvage.chunks_kept, 2 + n1);
        assert_eq!(salvage.dropped.len(), n0 - 2);
        assert!(matches!(
            &salvage.dropped[0].error,
            StoreError::ChunkCrc { chunk: 2, .. }
        ));
        for lost in &salvage.dropped[1..] {
            assert!(matches!(lost.error, StoreError::Corrupt(_)));
        }
        let json = salvage.to_json();
        assert!(json.contains("\"chunks_kept\":"));
        assert!(json.contains("\"error\":\"crc mismatch"));

        // The emitted store is fully valid (committed, CRC-clean) and
        // queryable: the prefix region decodes bit-identically to the
        // original, under Strict.
        let out = salvage.bytes.expect("prefix survived");
        let report = scrub(&out).unwrap();
        assert!(report.is_clean(), "{:?}", report.damaged);
        let reader = crate::StoreReader::open(&out).unwrap();
        assert_eq!(reader.fields()[0].chunks.len(), 2);
        assert_eq!(reader.fields()[1].chunks.len(), n1);
        let clean_reader = crate::StoreReader::open(&clean).unwrap();
        let side = reader.tree().level_dims(reader.tree().max_level())[0] as u32 - 1;
        let q = crate::Query::bbox([0, 0, 0], [side, side, 0]);
        let got = reader.query("energy", &q).unwrap();
        let want = clean_reader.query("energy", &q).unwrap();
        assert_eq!(got.storage_indices, want.storage_indices);
        let bits: Vec<u64> = got.values.iter().map(|v| v.to_bits()).collect();
        let want_bits: Vec<u64> = want.values.iter().map(|v| v.to_bits()).collect();
        assert_eq!(bits, want_bits);

        // A tear that also destroys the footer leaves nothing to recover.
        let cut = torn.len() / 3;
        faultinject::truncate(&mut torn, cut);
        match format::open(&torn) {
            Err(StoreError::Torn) => {
                let err = salvage_torn(&torn).unwrap_err();
                assert!(matches!(err, StoreError::Corrupt(msg) if msg.contains("index trailer")));
            }
            Err(_) => {} // cut landed inside the header: nothing to test
            Ok(_) => panic!("a heavily truncated store cannot open clean"),
        }
    }

    #[test]
    fn salvage_torn_rejects_healthy_stores() {
        let clean = rs_store(4, 2);
        assert!(matches!(
            salvage_torn(&clean),
            Err(StoreError::InvalidOptions(_))
        ));
    }
}
