//! Container formats v2/v3/v4 (`ZMS2`): byte layout, typed errors, and
//! the header/footer (de)serializers.
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────────┐
//! │ header   magic "ZMS2" · version u16 · policy u8 · mode u8 ·      │
//! │          codec u8 · value-type u8 · chunk-target-bytes u32 ·     │
//! │          [v3+: parity group width u32] ·                         │
//! │          [v4: parity shard count u32] ·                          │
//! │          structure len u64 · structure bytes                     │
//! ├──────────────────────────────────────────────────────────────────┤
//! │ payload  per field, per chunk: one self-describing codec stream  │
//! ├──────────────────────────────────────────────────────────────────┤
//! │ parity   [v3] per field, per group: XOR parity payload           │
//! │          [v4] per field, per group: m Reed–Solomon shards        │
//! ├──────────────────────────────────────────────────────────────────┤
//! │ footer   per field: name (u16 + bytes) · control tag u8 ·        │
//! │          control payload f64 · chunk count u64 ·                 │
//! │          chunk metas (64 B each) ·                               │
//! │          [v3+: parity count u64 · parity metas (20 B each)]      │
//! ├──────────────────────────────────────────────────────────────────┤
//! │ trailer  footer offset u64 · crc32(header ∥ footer) u32 ·        │
//! │          magic "ZMSI"                                            │
//! ├──────────────────────────────────────────────────────────────────┤
//! │ commit   [v4] magic "ZMSCMT01" · footer crc u32 ·                │
//! │          crc32(first 12 commit bytes) u32                        │
//! └──────────────────────────────────────────────────────────────────┘
//! ```
//!
//! Version negotiation: this crate writes v2 (no parity), v3 (XOR
//! parity), or [`STORE_VERSION`] = v4 (Reed–Solomon parity + commit
//! record), and reads every version in
//! [`MIN_STORE_VERSION`]`..=`[`STORE_VERSION`]. What a parsed store can do
//! is exposed as [`StoreCapabilities`] — a v2 store simply has no parity,
//! so it opens, queries, and unpacks exactly as before, and scrub reports
//! "no parity available" instead of erroring.
//!
//! The v4 **commit record** is the crash-consistency witness: the writer
//! emits it last, so a store whose tail is not a valid commit record was
//! torn mid-write ([`StoreError::Torn`]) rather than corrupted at rest —
//! readers can tell "re-pack from raw data" apart from "bytes rotted".
//!
//! Every chunk/parity meta is **fixed width**, and the variable parts of
//! the footer (names, structure) do not depend on the ordering policy — so
//! the total metadata size is policy-independent, preserving the paper's
//! no-recipe-storage claim: the restore recipe is regenerated from
//! `structure`, never stored. Parity *payload* bytes scale with compressed
//! payload size (≈ 1/group-width), not with the permutation.

use crate::chunk::{ChunkMeta, CHUNK_META_BYTES};
use crate::gf256;
use crate::parity::{group_count, Parity, ParityMeta, PARITY_META_BYTES};
use crate::reader::{RetryCounters, RetryPolicy};
use crate::source::{self, ByteSource, SliceSource};
use std::borrow::Cow;
use std::fmt;
use std::ops::Range;
use zmesh::{crc32, GroupingMode, OrderingPolicy, ZmeshError};
use zmesh_amr::{AmrError, StorageMode};
use zmesh_codecs::{CodecError, CodecKind, ErrorControl, ValueType};

/// Leading magic of a v2/v3 store.
pub const STORE_MAGIC: [u8; 4] = *b"ZMS2";
/// Trailing magic of the index trailer.
pub const INDEX_MAGIC: [u8; 4] = *b"ZMSI";
/// Newest format version this crate writes (v4: Reed–Solomon parity +
/// commit record; v3/v2 are still emitted for XOR/no parity).
pub const STORE_VERSION: u16 = 4;
/// Oldest format version this crate still reads (v2: no parity section).
pub const MIN_STORE_VERSION: u16 = 2;
/// Fixed trailer size: footer offset + footer crc + index magic.
pub const TRAILER_BYTES: usize = 8 + 4 + 4;
/// Magic opening the v4 commit record.
pub const COMMIT_MAGIC: [u8; 8] = *b"ZMSCMT01";
/// Fixed commit-record size: magic + footer crc + self crc.
pub const COMMIT_RECORD_BYTES: usize = 8 + 4 + 4;

/// Typed failures from writing, opening, or querying a store. Each variant
/// maps to a distinct CLI exit code (see `zmesh-cli`).
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// The buffer does not start with [`STORE_MAGIC`] / end with
    /// [`INDEX_MAGIC`].
    BadMagic,
    /// The container declares a version this reader does not understand.
    UnsupportedVersion(u16),
    /// The buffer ends before a structure the header/footer promises.
    Truncated {
        /// Bytes the parser needed.
        needed: usize,
        /// Bytes actually available.
        have: usize,
    },
    /// Structurally invalid metadata (bad tags, inconsistent offsets…).
    Corrupt(&'static str),
    /// A chunk payload failed its CRC check.
    ChunkCrc {
        /// Field the chunk belongs to.
        field: String,
        /// Chunk index within the field.
        chunk: usize,
    },
    /// A parity chunk failed its CRC check (the protected data chunks may
    /// all be fine, but the store is no longer fully self-healing).
    ParityCrc {
        /// Field the parity group belongs to.
        field: String,
        /// Parity group index within the field.
        group: usize,
    },
    /// The footer failed its CRC check.
    IndexCrc,
    /// A v4 store is missing its commit record: the write never completed
    /// (crash or truncation mid-`pack`), as opposed to completed-then-
    /// corrupted. Recoverable by re-encoding from the raw dataset
    /// (`zmesh repair --from-raw`).
    Torn,
    /// Invalid [`crate::StoreWriteOptions`] (caller error, not corrupt
    /// input) — e.g. a Reed–Solomon geometry with `k + m > 256`.
    InvalidOptions(&'static str),
    /// An underlying filesystem operation failed while persisting a store.
    Io(String),
    /// The destination filesystem ran out of space (`ENOSPC`) while
    /// persisting a store. Separated from [`StoreError::Io`] because it is
    /// the one write failure an operator fixes by freeing space and
    /// rerunning — the abort is clean: no temp file survives and a
    /// pre-existing destination is untouched.
    NoSpace(String),
    /// An underlying read failed in a way that is plausibly transient
    /// (`EINTR`, `EAGAIN`, `EIO`, timeouts): the same read may succeed if
    /// retried. [`crate::StoreReader`] retries these under its
    /// [`crate::RetryPolicy`] before surfacing them.
    IoTransient(String),
    /// A requested field name is not present.
    UnknownField(String),
    /// A query argument is malformed (inverted box, empty level mask…).
    BadQuery(&'static str),
    /// An internal invariant of this library was violated (a bug in
    /// zmesh-store, not in the input). Raised instead of silently
    /// truncating when, e.g., the number of compressed chunk payloads
    /// disagrees with the chunk plan.
    Internal(&'static str),
    /// Underlying codec failure.
    Codec(CodecError),
    /// Underlying AMR structure failure.
    Amr(AmrError),
    /// Failure from the core pipeline layer.
    Zmesh(ZmeshError),
}

impl StoreError {
    /// Whether retrying the failed operation may succeed — true only for
    /// [`StoreError::IoTransient`]. Corruption, truncation, and permanent
    /// I/O failures are never transient.
    pub fn is_transient(&self) -> bool {
        matches!(self, StoreError::IoTransient(_))
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::BadMagic => write!(f, "not a ZMS2 store"),
            StoreError::UnsupportedVersion(v) => write!(f, "unsupported store version {v}"),
            StoreError::Truncated { needed, have } => {
                write!(f, "truncated store: needed {needed} bytes, have {have}")
            }
            StoreError::Corrupt(what) => write!(f, "corrupt store: {what}"),
            StoreError::ChunkCrc { field, chunk } => {
                write!(f, "crc mismatch in field {field:?} chunk {chunk}")
            }
            StoreError::ParityCrc { field, group } => {
                write!(f, "crc mismatch in field {field:?} parity group {group}")
            }
            StoreError::IndexCrc => write!(f, "crc mismatch in store index"),
            StoreError::Torn => write!(
                f,
                "torn store: the write never completed (missing or invalid commit record)"
            ),
            StoreError::InvalidOptions(what) => write!(f, "invalid store options: {what}"),
            StoreError::Io(what) => write!(f, "i/o: {what}"),
            StoreError::NoSpace(what) => write!(f, "no space left on device: {what}"),
            StoreError::IoTransient(what) => write!(f, "transient i/o: {what}"),
            StoreError::UnknownField(name) => write!(f, "no field named {name:?} in store"),
            StoreError::BadQuery(what) => write!(f, "bad query: {what}"),
            StoreError::Internal(what) => {
                write!(
                    f,
                    "internal store error: {what} (this is a zmesh-store bug)"
                )
            }
            StoreError::Codec(e) => write!(f, "codec: {e}"),
            StoreError::Amr(e) => write!(f, "amr: {e}"),
            StoreError::Zmesh(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Codec(e) => Some(e),
            StoreError::Amr(e) => Some(e),
            StoreError::Zmesh(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CodecError> for StoreError {
    fn from(e: CodecError) -> Self {
        StoreError::Codec(e)
    }
}

impl From<AmrError> for StoreError {
    fn from(e: AmrError) -> Self {
        StoreError::Amr(e)
    }
}

impl From<ZmeshError> for StoreError {
    fn from(e: ZmeshError) -> Self {
        StoreError::Zmesh(e)
    }
}

/// What a parsed store of some version can do — the read path branches on
/// these instead of comparing raw version numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreCapabilities {
    /// Chunks are grouped under parity; damaged chunks per group are
    /// reconstructible up to `erasure_budget` (v3/v4 with nonzero width).
    pub parity: bool,
    /// Maximum CRC-failing data chunks per group that parity alone can
    /// rebuild: `0` (v2), `1` (v3 XOR), or `m` (v4 Reed–Solomon).
    pub erasure_budget: u32,
}

/// Parsed fixed header of a store.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreHeader {
    /// Format version the store declares (within
    /// [`MIN_STORE_VERSION`]`..=`[`STORE_VERSION`]).
    pub version: u16,
    /// Stream ordering the payloads were written under.
    pub policy: OrderingPolicy,
    /// AMR storage convention of the fields.
    pub mode: StorageMode,
    /// Codec all chunks use.
    pub codec: CodecKind,
    /// Source precision of the values.
    pub value_type: ValueType,
    /// Uncompressed bytes each chunk targets (the last chunk may be short).
    pub chunk_target_bytes: u32,
    /// Data chunks per parity group; `0` means no parity section (always
    /// `0` for v2 stores).
    pub parity_group_width: u32,
    /// Parity shards per group: `0` without parity, `1` for v3 XOR, `m`
    /// for v4 Reed–Solomon.
    pub parity_shards: u32,
    /// Serialized `AmrTree` structure — the only mesh metadata stored; the
    /// restore recipe is regenerated from it.
    pub structure: Vec<u8>,
    /// Total serialized header size in bytes.
    pub header_bytes: usize,
}

impl StoreHeader {
    /// Values per chunk implied by the chunk target (the last chunk of a
    /// field may hold fewer).
    pub fn chunk_values(&self) -> usize {
        (self.chunk_target_bytes as usize / 8).max(1)
    }

    /// Grouping mode implied by the storage mode.
    pub fn grouping(&self) -> GroupingMode {
        GroupingMode::from_storage_mode(self.mode)
    }

    /// The erasure-protection scheme this store was written under.
    pub fn scheme(&self) -> Parity {
        if self.version >= 4 {
            Parity::Rs {
                data: self.parity_group_width,
                parity: self.parity_shards,
            }
        } else if self.version >= 3 && self.parity_group_width > 0 {
            Parity::Xor {
                width: self.parity_group_width,
            }
        } else {
            Parity::None
        }
    }

    /// What this store's version/parameters support.
    pub fn capabilities(&self) -> StoreCapabilities {
        let budget = self.scheme().shards();
        StoreCapabilities {
            parity: budget > 0,
            erasure_budget: budget,
        }
    }
}

/// One field's footer entry: name, resolved bound, chunk + parity index.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldEntry {
    /// Field name.
    pub name: String,
    /// Absolute pointwise error bound every chunk of this field honors
    /// (`None` under fixed-rate / fixed-precision control).
    pub resolved_bound: Option<f64>,
    /// The *original* precision control, recorded only when no resolved
    /// absolute bound exists to reproduce the encode (fixed-rate /
    /// fixed-precision fields; control tags 2/3 in the footer). Bounded
    /// controls need no record: re-encoding with
    /// `Absolute(resolved_bound)` is exactly what the writer did. `None`
    /// with `resolved_bound == None` marks a store written before control
    /// tagging — `repair --from-raw` cannot re-encode such fields and says
    /// so explicitly.
    pub control: Option<ErrorControl>,
    /// Per-chunk metadata, in stream order.
    pub chunks: Vec<ChunkMeta>,
    /// Per-parity-shard metadata (empty for v2 stores / parity disabled);
    /// group `g` protects data chunks `g*width..(g+1)*width` and owns
    /// shards `g*m..(g+1)*m` of this vector (`m = 1` for v3 XOR, so the
    /// v3 index is simply the group index).
    pub parity: Vec<ParityMeta>,
}

/// Which chunk of a field a footer record, scrub or repair record points
/// at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkKind {
    /// Data chunk `i` (stream order).
    Data(usize),
    /// Parity slot `s` — group `s / shards`, shard `s % shards` (v3 has
    /// one shard per group, so slot = group).
    Parity(usize),
}

impl FieldEntry {
    /// Payload-relative `(offset, len, crc)` footer record of `kind`.
    fn record(&self, kind: ChunkKind) -> Result<(u64, u64, u32), StoreError> {
        match kind {
            ChunkKind::Data(i) => {
                let m = &self.chunks[i];
                Ok((m.offset, m.len, m.crc))
            }
            ChunkKind::Parity(slot) => self
                .parity
                .get(slot)
                .map(|m| (m.offset, m.len, m.crc))
                .ok_or(StoreError::Corrupt("parity group out of range")),
        }
    }
}

/// The span verifier every consumer of payload bytes shares — reader
/// decodes and salvage, scrub, repair and torn-store salvage: a footer
/// span must lie inside `payload`, fetch (transient failures retried
/// under `retry`) and match its footer CRC ([`Spans::verify`]).
pub(crate) struct Spans<'a, S: ?Sized> {
    src: &'a S,
    /// Absolute bytes the footer's payload-relative offsets index into.
    payload: Range<u64>,
    /// Parity shards per group (at least 1: it divides slots into groups).
    pub shards: usize,
    retry: RetryPolicy,
    counters: &'a RetryCounters,
}

impl<'a, S: ByteSource + ?Sized> Spans<'a, S> {
    pub fn new(
        src: &'a S,
        payload: Range<u64>,
        scheme: Parity,
        retry: RetryPolicy,
        counters: &'a RetryCounters,
    ) -> Self {
        let shards = (scheme.shards() as usize).max(1);
        Self {
            src,
            payload,
            shards,
            retry,
            counters,
        }
    }

    /// Bounds-checked absolute byte range of `kind`'s span.
    pub fn range(&self, entry: &FieldEntry, kind: ChunkKind) -> Result<Range<u64>, StoreError> {
        let (offset, len, _) = entry.record(kind)?;
        let Range { start, end } = self.payload;
        let lo = start
            .checked_add(offset)
            .ok_or(StoreError::Corrupt("chunk offset overflow"))?;
        let hi = lo
            .checked_add(len)
            .ok_or(StoreError::Corrupt("chunk length overflow"))?;
        if hi > end {
            return Err(StoreError::Truncated {
                needed: hi as usize,
                have: end as usize,
            });
        }
        Ok(lo..hi)
    }

    /// Saturated byte range of `kind`'s span, for damage reports (never
    /// trusted for slicing).
    pub fn report_range(&self, entry: &FieldEntry, kind: ChunkKind) -> Range<usize> {
        let (offset, len, _) = entry.record(kind).unwrap_or_default();
        let Range { start, end } = self.payload;
        let lo = start.saturating_add(offset).min(end);
        lo as usize..lo.saturating_add(len).min(end) as usize
    }

    /// The CRC-verified bytes of `kind` — borrowed zero-copy from resident
    /// sources, read otherwise.
    pub fn get(&self, entry: &FieldEntry, kind: ChunkKind) -> Result<Cow<'a, [u8]>, StoreError> {
        let range = self.range(entry, kind)?;
        let bytes = self.retry.run(self.counters, || {
            source::fetch(self.src, range.start, range.end - range.start)
        })?;
        self.verify(entry, kind, &bytes)?;
        Ok(bytes)
    }

    /// The one place a chunk or parity CRC is compared against the
    /// footer: `Ok` when `bytes` are exactly what the footer recorded for
    /// `kind`, else the typed [`StoreError::ChunkCrc`] /
    /// [`StoreError::ParityCrc`].
    pub fn verify(
        &self,
        entry: &FieldEntry,
        kind: ChunkKind,
        bytes: &[u8],
    ) -> Result<(), StoreError> {
        if crc32(bytes) == entry.record(kind)?.2 {
            return Ok(());
        }
        Err(match kind {
            ChunkKind::Data(chunk) => StoreError::ChunkCrc {
                field: entry.name.clone(),
                chunk,
            },
            ChunkKind::Parity(slot) => StoreError::ParityCrc {
                field: entry.name.clone(),
                group: slot / self.shards,
            },
        })
    }
}

pub(crate) fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// A bounds-checked little-endian cursor over the serialized store.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(crate) fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    pub(crate) fn pos(&self) -> usize {
        self.pos
    }

    pub(crate) fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        let end = self
            .pos
            .checked_add(n)
            .ok_or(StoreError::Corrupt("length overflow"))?;
        if end > self.bytes.len() {
            return Err(StoreError::Truncated {
                needed: end,
                have: self.bytes.len(),
            });
        }
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u16(&mut self) -> Result<u16, StoreError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

/// Serializes the fixed header for `header.version` (v2 omits the parity
/// group width, so width-0 v2 output stays byte-identical to historical
/// v2 writers).
pub(crate) fn write_header(header: &StoreHeader) -> Vec<u8> {
    let mut out = Vec::with_capacity(4 + 2 + 4 + 4 + 4 + 8 + header.structure.len());
    out.extend_from_slice(&STORE_MAGIC);
    put_u16(&mut out, header.version);
    out.push(header.policy.tag());
    out.push(header.mode.tag());
    out.push(header.codec.tag());
    out.push(header.value_type.tag());
    put_u32(&mut out, header.chunk_target_bytes);
    if header.version >= 3 {
        put_u32(&mut out, header.parity_group_width);
    }
    if header.version >= 4 {
        put_u32(&mut out, header.parity_shards);
    }
    put_u64(&mut out, header.structure.len() as u64);
    out.extend_from_slice(&header.structure);
    out
}

/// Parses the fixed header from the front of `bytes`, accepting every
/// version in [`MIN_STORE_VERSION`]`..=`[`STORE_VERSION`].
pub(crate) fn read_header(bytes: &[u8]) -> Result<StoreHeader, StoreError> {
    let mut c = Cursor::new(bytes);
    if c.take(4)? != STORE_MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = c.u16()?;
    if !(MIN_STORE_VERSION..=STORE_VERSION).contains(&version) {
        return Err(StoreError::UnsupportedVersion(version));
    }
    let policy = OrderingPolicy::from_tag(c.u8()?).ok_or(StoreError::Corrupt("policy tag"))?;
    let mode = StorageMode::from_tag(c.u8()?).ok_or(StoreError::Corrupt("storage-mode tag"))?;
    let codec = CodecKind::from_tag(c.u8()?).ok_or(StoreError::Corrupt("codec tag"))?;
    let value_type = ValueType::from_tag(c.u8()?).ok_or(StoreError::Corrupt("value-type tag"))?;
    let chunk_target_bytes = c.u32()?;
    if chunk_target_bytes == 0 {
        return Err(StoreError::Corrupt("zero chunk target"));
    }
    let parity_group_width = if version >= 3 { c.u32()? } else { 0 };
    let parity_shards = if version >= 4 {
        let m = c.u32()?;
        if parity_group_width == 0 || m == 0 {
            return Err(StoreError::Corrupt("v4 store without parity geometry"));
        }
        if parity_group_width as usize + m as usize > gf256::MAX_SHARDS {
            return Err(StoreError::Corrupt("parity geometry exceeds 256 shards"));
        }
        m
    } else {
        u32::from(parity_group_width > 0)
    };
    let structure_len = c.u64()? as usize;
    let structure = c.take(structure_len)?.to_vec();
    Ok(StoreHeader {
        version,
        policy,
        mode,
        codec,
        value_type,
        chunk_target_bytes,
        parity_group_width,
        parity_shards,
        structure,
        header_bytes: c.pos(),
    })
}

/// Parses just the fixed header from the front of `bytes`, without
/// requiring a footer, trailer, or commit record. This is the only parse
/// that works on a **torn** store — `zmesh repair --from-raw` uses it to
/// recover the write parameters for a full re-encode.
pub fn peek_header(bytes: &[u8]) -> Result<StoreHeader, StoreError> {
    read_header(bytes)
}

/// Serializes the footer (field entries) for `version`.
pub(crate) fn write_footer(fields: &[FieldEntry], version: u16) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, fields.len() as u32);
    for field in fields {
        put_u16(&mut out, field.name.len() as u16);
        out.extend_from_slice(field.name.as_bytes());
        // Control tag + one f64 payload slot. Tag 1 (resolved absolute
        // bound) keeps historical bytes; tags 2/3 reuse the same slot to
        // persist the original unbounded control instead of writing the
        // legacy "nothing recorded" tag 0.
        let (tag, payload) = match (field.resolved_bound, field.control) {
            (Some(bound), _) => (1u8, bound.to_bits()),
            (None, Some(ErrorControl::FixedRate(rate))) => (2, rate.to_bits()),
            (None, Some(ErrorControl::FixedPrecision(p))) => (3, u64::from(p)),
            (None, _) => (0, 0),
        };
        out.push(tag);
        put_u64(&mut out, payload);
        put_u64(&mut out, field.chunks.len() as u64);
        for chunk in &field.chunks {
            chunk.write(&mut out);
        }
        if version >= 3 {
            put_u64(&mut out, field.parity.len() as u64);
            for parity in &field.parity {
                parity.write(&mut out);
            }
        }
    }
    out
}

/// Parses the footer of a `version` store.
pub(crate) fn read_footer(bytes: &[u8], version: u16) -> Result<Vec<FieldEntry>, StoreError> {
    let mut c = Cursor::new(bytes);
    let n_fields = c.u32()? as usize;
    let mut fields = Vec::with_capacity(n_fields.min(1024));
    for _ in 0..n_fields {
        let name_len = c.u16()? as usize;
        let name = std::str::from_utf8(c.take(name_len)?)
            .map_err(|_| StoreError::Corrupt("field name not utf-8"))?
            .to_string();
        let control_tag = c.u8()?;
        let control_bits = c.u64()?;
        // The codecs reject these bounds at encode, so no writer emits
        // them; a footer that carries one is damaged, and would otherwise
        // surface as a non-finite number in the daemon's JSON.
        let value = f64::from_bits(control_bits);
        let (resolved_bound, control) = match control_tag {
            0 => (None, None),
            1 if value.is_finite() && value >= 0.0 => (Some(value), None),
            1 => return Err(StoreError::Corrupt("resolved bound not finite and >= 0")),
            2 if value.is_finite() && value > 0.0 => (None, Some(ErrorControl::FixedRate(value))),
            2 => return Err(StoreError::Corrupt("fixed rate not finite and > 0")),
            3 => {
                let p = u32::try_from(control_bits)
                    .map_err(|_| StoreError::Corrupt("fixed-precision payload"))?;
                (None, Some(ErrorControl::FixedPrecision(p)))
            }
            _ => return Err(StoreError::Corrupt("control tag")),
        };
        let n_chunks = c.u64()? as usize;
        // Bound allocation by what the *unread* buffer can actually hold;
        // both counts are attacker-controlled, so every size computation
        // on them is checked/saturating (an overflowed product would
        // otherwise pass a `> len` guard and reserve absurd capacity).
        let remaining = bytes.len() - c.pos();
        if n_chunks.saturating_mul(CHUNK_META_BYTES) > remaining {
            return Err(StoreError::Corrupt("chunk count exceeds footer"));
        }
        let mut chunks = Vec::with_capacity(n_chunks);
        for _ in 0..n_chunks {
            chunks.push(ChunkMeta::read(&mut c)?);
        }
        let mut parity = Vec::new();
        if version >= 3 {
            let n_parity = c.u64()? as usize;
            let remaining = bytes.len() - c.pos();
            if n_parity.saturating_mul(PARITY_META_BYTES) > remaining {
                return Err(StoreError::Corrupt("parity count exceeds footer"));
            }
            parity.reserve(n_parity);
            for _ in 0..n_parity {
                parity.push(ParityMeta::read(&mut c)?);
            }
        }
        fields.push(FieldEntry {
            name,
            resolved_bound,
            control,
            chunks,
            parity,
        });
    }
    if c.pos() != bytes.len() {
        return Err(StoreError::Corrupt("trailing bytes after footer"));
    }
    Ok(fields)
}

/// Assembles a complete store from its parts (`payload` already contains
/// the parity section, when there is one) — the format tests' way to build
/// stores from hand-made indexes; real stores are laid out by
/// [`crate::layout::Layout`].
#[cfg(test)]
pub(crate) fn assemble(header_bytes: Vec<u8>, payload: &[u8], fields: &[FieldEntry]) -> Vec<u8> {
    let tail = container_tail(&header_bytes, payload.len() as u64, fields);
    let mut out = header_bytes;
    out.extend_from_slice(payload);
    out.extend_from_slice(&tail);
    out
}

/// Everything after the payload span — footer, trailer, and (v4) commit
/// record — for a store whose header is `header_bytes` and whose payload
/// (data chunks + parity section) is `payload_len` bytes. v4 stores get
/// the trailing commit record — written last, so its presence proves the
/// store bytes before it are complete.
pub(crate) fn container_tail(
    header_bytes: &[u8],
    payload_len: u64,
    fields: &[FieldEntry],
) -> Vec<u8> {
    let version = u16::from_le_bytes(header_bytes[4..6].try_into().expect("header present"));
    debug_assert_eq!(fields_header_len(header_bytes), header_bytes.len());
    let footer_offset = header_bytes.len() as u64 + payload_len;
    let footer = write_footer(fields, version);
    let mut crc_bytes = header_bytes.to_vec();
    crc_bytes.extend_from_slice(&footer);
    let crc = crc32(&crc_bytes);
    let mut out = footer;
    put_u64(&mut out, footer_offset);
    put_u32(&mut out, crc);
    out.extend_from_slice(&INDEX_MAGIC);
    if version >= 4 {
        let start = out.len();
        out.extend_from_slice(&COMMIT_MAGIC);
        put_u32(&mut out, crc);
        let self_crc = crc32(&out[start..start + 12]);
        put_u32(&mut out, self_crc);
        debug_assert_eq!(out.len() - start, COMMIT_RECORD_BYTES);
    }
    out
}

/// Header length of an assembled buffer (used to scope the index CRC).
fn fields_header_len(bytes: &[u8]) -> usize {
    // Magic(4) + version(2) + tags(4) + chunk target(4)
    // + [v3+: parity width(4)] + [v4: parity shards(4)] + structure len(8).
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("header present"));
    let fixed = match version {
        0..=2 => 22,
        3 => 26,
        _ => 30,
    };
    let structure_len =
        u64::from_le_bytes(bytes[fixed - 8..fixed].try_into().expect("header present")) as usize;
    fixed + structure_len
}

/// Splits an assembled store into `(header, footer fields, payload span)`,
/// verifying magics and the index CRC. Public (re-exported as
/// `zmesh_store::open_parts`) so tools and fuzzers can parse the framing
/// without building a full [`crate::StoreReader`]; the bytes are treated
/// as untrusted — any input returns a typed error, never a panic.
pub fn open(
    bytes: &[u8],
) -> Result<(StoreHeader, Vec<FieldEntry>, std::ops::Range<usize>), StoreError> {
    // The slice path is the ranged path over a zero-copy source — one
    // parser, so the two can never drift in validation order or typed
    // errors (the panic-safety property suite pins this equivalence).
    let (header, fields, payload) = open_source(&SliceSource::new(bytes))?;
    Ok((header, fields, payload.start as usize..payload.end as usize))
}

/// Validates the v4 commit record at the tail of `src` and returns the
/// committed body length. A missing or invalid record means the write
/// never finished — [`StoreError::Torn`]; a valid record whose footer CRC
/// disagrees with the index trailer means the write finished and the
/// bytes changed afterwards — corrupt.
fn split_committed_source<S: ByteSource + ?Sized>(src: &S, total: u64) -> Result<u64, StoreError> {
    let Some(body_len) = total.checked_sub(COMMIT_RECORD_BYTES as u64) else {
        return Err(StoreError::Torn);
    };
    let record = src.read_vec(body_len, COMMIT_RECORD_BYTES)?;
    if record[..8] != COMMIT_MAGIC {
        return Err(StoreError::Torn);
    }
    let self_crc = u32::from_le_bytes(record[12..16].try_into().unwrap());
    if crc32(&record[..12]) != self_crc {
        return Err(StoreError::Torn);
    }
    if body_len < TRAILER_BYTES as u64 {
        return Err(StoreError::Torn);
    }
    let trailer = src.read_vec(body_len - TRAILER_BYTES as u64, TRAILER_BYTES)?;
    if trailer[12..16] != INDEX_MAGIC {
        return Err(StoreError::Corrupt("commit record without index trailer"));
    }
    let committed_crc = u32::from_le_bytes(record[8..12].try_into().unwrap());
    let trailer_crc = u32::from_le_bytes(trailer[8..12].try_into().unwrap());
    if committed_crc != trailer_crc {
        return Err(StoreError::Corrupt("commit record disagrees with trailer"));
    }
    Ok(body_len)
}

/// Reads and parses the header from the front of a source without pulling
/// in the payload: a ≤30-byte probe resolves the structure length, then
/// exactly the header span is fetched. `body_len` is the committed body
/// size (everything before a v4 commit record), which scopes `Truncated`
/// errors exactly like the slice parser's buffer length does.
fn read_header_source<S: ByteSource + ?Sized>(
    src: &S,
    body_len: u64,
) -> Result<StoreHeader, StoreError> {
    // Largest fixed (pre-structure) header part across versions: v4's 30.
    const FIXED_MAX: u64 = 30;
    let probe_len = body_len.min(FIXED_MAX);
    let probe = source::fetch(src, 0, probe_len)?;
    // Callers validated magic + version range already, so the fixed size
    // is known; `read_header` re-validates both on the exact span anyway.
    let version = u16::from_le_bytes(probe[4..6].try_into().unwrap());
    let fixed: u64 = match version {
        0..=2 => 22,
        3 => 26,
        _ => 30,
    };
    let span = if probe_len < fixed {
        probe_len
    } else {
        let structure_len = u64::from_le_bytes(
            probe[fixed as usize - 8..fixed as usize]
                .try_into()
                .unwrap(),
        );
        fixed
            .checked_add(structure_len)
            .ok_or(StoreError::Corrupt("length overflow"))?
            .min(body_len)
    };
    let raw = source::fetch(src, 0, span)?;
    read_header(&raw).map_err(|e| match e {
        // The slice parser sees the whole body, so its overrun errors
        // report the body length, not the probed span.
        StoreError::Truncated { needed, .. } => StoreError::Truncated {
            needed,
            have: body_len as usize,
        },
        e => e,
    })
}

/// Ranged-read counterpart of [`open`]: splits a store reachable through
/// any [`ByteSource`] into `(header, footer fields, payload span)` while
/// fetching only the framing — head probe, commit record, trailer,
/// header, and footer — never the payload. Re-exported as
/// `zmesh_store::open_parts_source`; the slice [`open`] is a thin wrapper
/// over this, so both paths share one validation order and error surface.
pub fn open_source<S: ByteSource + ?Sized>(
    src: &S,
) -> Result<(StoreHeader, Vec<FieldEntry>, std::ops::Range<u64>), StoreError> {
    let total = src.len();
    if total < 6 {
        return Err(StoreError::Truncated {
            needed: 6,
            have: total as usize,
        });
    }
    let head = src.read_vec(0, 6)?;
    if head[..4] != STORE_MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = u16::from_le_bytes(head[4..6].try_into().unwrap());
    if !(MIN_STORE_VERSION..=STORE_VERSION).contains(&version) {
        return Err(StoreError::UnsupportedVersion(version));
    }
    // A v4 store is validated commit-record-first: a bad tail means the
    // write never completed (Torn), and only a committed body is parsed
    // further — so every later failure is genuine corruption.
    let body_len = if version >= 4 {
        split_committed_source(src, total)?
    } else {
        total
    };
    if body_len < (4 + TRAILER_BYTES) as u64 {
        return Err(StoreError::Truncated {
            needed: 4 + TRAILER_BYTES,
            have: body_len as usize,
        });
    }
    let header = read_header_source(src, body_len)?;
    let (fields, footer_offset) = read_index(src, &header, body_len)?;
    let width = header.parity_group_width as usize;
    let shards = header.scheme().shards() as usize;
    for field in &fields {
        // Both factors derive from attacker-controlled header/footer
        // counts: the product must be checked, not assumed.
        let expect = group_count(field.chunks.len(), width)
            .checked_mul(shards)
            .ok_or(StoreError::Corrupt("parity shard count overflow"))?;
        if field.parity.len() != expect {
            return Err(StoreError::Corrupt("parity group count mismatch"));
        }
    }
    let payload = header.header_bytes as u64..footer_offset;
    Ok((header, fields, payload))
}

/// Reads the index whose trailer ends at byte `trailer_end`: the footer
/// it points at, verified against the trailer's `crc32(header ∥ footer)`
/// and parsed. Returns the fields and the footer offset (where the
/// payload ends). Torn-store salvage probes candidate trailers with it.
pub(crate) fn read_index<S: ByteSource + ?Sized>(
    src: &S,
    header: &StoreHeader,
    trailer_end: u64,
) -> Result<(Vec<FieldEntry>, u64), StoreError> {
    let footer_end = trailer_end - TRAILER_BYTES as u64;
    let trailer = src.read_vec(footer_end, TRAILER_BYTES)?;
    if trailer[12..16] != INDEX_MAGIC {
        return Err(StoreError::BadMagic);
    }
    let footer_offset = u64::from_le_bytes(trailer[0..8].try_into().unwrap());
    let stored_crc = u32::from_le_bytes(trailer[8..12].try_into().unwrap());
    if footer_offset < header.header_bytes as u64 || footer_offset > footer_end {
        return Err(StoreError::Corrupt("footer offset out of range"));
    }
    let header_raw = source::fetch(src, 0, header.header_bytes as u64)?;
    let footer_raw = source::fetch(src, footer_offset, footer_end - footer_offset)?;
    let mut crc_bytes = header_raw.into_owned();
    crc_bytes.extend_from_slice(&footer_raw);
    if crc32(&crc_bytes) != stored_crc {
        return Err(StoreError::IndexCrc);
    }
    Ok((read_footer(&footer_raw, header.version)?, footer_offset))
}

/// Whether `bytes` looks like a v2 store (magic check only).
pub fn is_store(bytes: &[u8]) -> bool {
    bytes.len() >= 4 && bytes[..4] == STORE_MAGIC
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_header() -> StoreHeader {
        StoreHeader {
            version: 3,
            policy: OrderingPolicy::Hilbert,
            mode: StorageMode::AllCells,
            codec: CodecKind::Sz,
            value_type: ValueType::F64,
            chunk_target_bytes: 4096,
            parity_group_width: 8,
            parity_shards: 1,
            structure: vec![1, 2, 3, 4, 5],
            header_bytes: 0,
        }
    }

    fn sample_v4_header() -> StoreHeader {
        let mut h = sample_header();
        h.version = STORE_VERSION;
        h.parity_shards = 2;
        h
    }

    #[test]
    fn header_round_trips() {
        let h = sample_header();
        let bytes = write_header(&h);
        let parsed = read_header(&bytes).unwrap();
        assert_eq!(parsed.version, 3);
        assert_eq!(parsed.policy, h.policy);
        assert_eq!(parsed.codec, h.codec);
        assert_eq!(parsed.parity_group_width, 8);
        assert_eq!(parsed.parity_shards, 1);
        assert_eq!(parsed.scheme(), Parity::Xor { width: 8 });
        assert_eq!(parsed.structure, h.structure);
        assert_eq!(parsed.header_bytes, bytes.len());
        assert!(parsed.capabilities().parity);
        assert_eq!(parsed.capabilities().erasure_budget, 1);
    }

    #[test]
    fn v4_header_round_trips_with_shard_count() {
        let h = sample_v4_header();
        let bytes = write_header(&h);
        // v4 fixed part is 4 bytes longer (parity shard count).
        assert_eq!(bytes.len(), write_header(&sample_header()).len() + 4);
        let parsed = read_header(&bytes).unwrap();
        assert_eq!(parsed.version, STORE_VERSION);
        assert_eq!(parsed.parity_shards, 2);
        assert_eq!(parsed.scheme(), Parity::Rs { data: 8, parity: 2 });
        assert_eq!(parsed.capabilities().erasure_budget, 2);
        assert_eq!(parsed.header_bytes, bytes.len());
    }

    #[test]
    fn v4_header_rejects_degenerate_geometry() {
        for (width, shards) in [(0u32, 2u32), (8, 0), (200, 100)] {
            let mut h = sample_v4_header();
            h.parity_group_width = width;
            h.parity_shards = shards;
            let bytes = write_header(&h);
            assert!(
                matches!(read_header(&bytes), Err(StoreError::Corrupt(_))),
                "geometry {width}+{shards} must be rejected"
            );
        }
    }

    #[test]
    fn v2_header_round_trips_without_parity() {
        let mut h = sample_header();
        h.version = 2;
        h.parity_group_width = 0;
        h.parity_shards = 0;
        let bytes = write_header(&h);
        // v2 fixed part is 4 bytes shorter (no parity width field).
        assert_eq!(bytes.len() + 4, write_header(&sample_header()).len());
        let parsed = read_header(&bytes).unwrap();
        assert_eq!(parsed.version, 2);
        assert_eq!(parsed.parity_group_width, 0);
        assert_eq!(parsed.scheme(), Parity::None);
        assert_eq!(parsed.structure, h.structure);
        assert!(!parsed.capabilities().parity);
    }

    #[test]
    fn header_rejects_bad_magic_and_version() {
        let mut bytes = write_header(&sample_header());
        assert!(matches!(
            read_header(&bytes[..3]),
            Err(StoreError::Truncated { .. })
        ));
        let mut wrong = bytes.clone();
        wrong[0] = b'X';
        assert_eq!(read_header(&wrong), Err(StoreError::BadMagic));
        for bad in [0u8, 1, 5, 99] {
            bytes[4] = bad;
            assert!(
                matches!(read_header(&bytes), Err(StoreError::UnsupportedVersion(_))),
                "version {bad} must be rejected"
            );
        }
    }

    #[test]
    fn assembled_store_round_trips_and_detects_index_corruption() {
        let mut header = sample_header();
        // One chunk at width 8 ⇒ exactly one parity group.
        header.parity_group_width = 8;
        let payload = vec![9u8; 100];
        let fields = vec![FieldEntry {
            name: "density".into(),
            resolved_bound: Some(1e-4),
            control: None,
            chunks: vec![ChunkMeta::test_sample(0, 100)],
            parity: vec![ParityMeta {
                offset: 0,
                len: 100,
                crc: crc32(&payload),
            }],
        }];
        let bytes = assemble(write_header(&header), &payload, &fields);
        let (h, f, span) = open(&bytes).unwrap();
        assert_eq!(h.policy, header.policy);
        assert_eq!(f, fields);
        assert_eq!(span.len(), 100);

        // Truncation anywhere is detected.
        for cut in [2, 10, bytes.len() / 2, bytes.len() - 1] {
            assert!(open(&bytes[..cut]).is_err(), "cut = {cut}");
        }
        // A flipped bit in the footer region fails the index CRC.
        let mut flipped = bytes.clone();
        let idx = bytes.len() - TRAILER_BYTES - 10;
        flipped[idx] ^= 1;
        assert!(matches!(
            open(&flipped),
            Err(StoreError::IndexCrc) | Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn footer_round_trips_every_control_tag() {
        let entry = |resolved_bound, control| FieldEntry {
            name: "density".into(),
            resolved_bound,
            control,
            chunks: vec![ChunkMeta::test_sample(0, 100)],
            parity: Vec::new(),
        };
        let fields = vec![
            entry(Some(1e-4), None),
            entry(None, Some(ErrorControl::FixedRate(12.5))),
            entry(None, Some(ErrorControl::FixedPrecision(24))),
            entry(None, None),
        ];
        let bytes = write_footer(&fields, 2);
        assert_eq!(read_footer(&bytes, 2).unwrap(), fields);

        // An unknown control tag is corrupt, not silently ignored.
        let mut bad = write_footer(&fields[..1], 2);
        let tag_at = 4 + 2 + "density".len();
        assert_eq!(bad[tag_at], 1);
        bad[tag_at] = 9;
        assert!(matches!(
            read_footer(&bad, 2),
            Err(StoreError::Corrupt("control tag"))
        ));
    }

    fn sample_v4_store() -> (Vec<u8>, Vec<FieldEntry>) {
        let header = sample_v4_header();
        let payload = vec![9u8; 100];
        let fields = vec![FieldEntry {
            name: "density".into(),
            resolved_bound: Some(1e-4),
            control: None,
            chunks: vec![ChunkMeta::test_sample(0, 100)],
            parity: vec![
                ParityMeta {
                    offset: 0,
                    len: 100,
                    crc: crc32(&payload),
                },
                ParityMeta {
                    offset: 0,
                    len: 100,
                    crc: crc32(&payload),
                },
            ],
        }];
        (assemble(write_header(&header), &payload, &fields), fields)
    }

    #[test]
    fn v4_store_round_trips_with_commit_record() {
        let (bytes, fields) = sample_v4_store();
        assert_eq!(
            &bytes[bytes.len() - COMMIT_RECORD_BYTES..][..8],
            &COMMIT_MAGIC
        );
        let (h, f, span) = open(&bytes).unwrap();
        assert_eq!(h.version, STORE_VERSION);
        assert_eq!(h.scheme(), Parity::Rs { data: 8, parity: 2 });
        assert_eq!(f, fields);
        assert_eq!(span.len(), 100);
    }

    #[test]
    fn v4_truncation_reads_as_torn_not_corrupt() {
        let (bytes, _) = sample_v4_store();
        // Any cut that keeps magic + version but loses the commit record.
        for cut in [6, 10, bytes.len() / 2, bytes.len() - 1] {
            assert_eq!(
                open(&bytes[..cut]).unwrap_err(),
                StoreError::Torn,
                "cut = {cut}"
            );
        }
        // Cuts inside magic/version cannot even prove the format.
        for cut in [0, 3, 5] {
            assert!(matches!(
                open(&bytes[..cut]),
                Err(StoreError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn v4_corruption_after_commit_is_corrupt_not_torn() {
        let (bytes, _) = sample_v4_store();
        // A flipped footer bit with an intact commit record: the write
        // completed, so this is corruption, not a torn write.
        let mut flipped = bytes.clone();
        let idx = bytes.len() - COMMIT_RECORD_BYTES - TRAILER_BYTES - 10;
        flipped[idx] ^= 1;
        assert!(matches!(
            open(&flipped),
            Err(StoreError::IndexCrc) | Err(StoreError::Corrupt(_))
        ));
        // A trailer CRC that disagrees with the commit record likewise.
        let mut mismatched = bytes.clone();
        let crc_at = bytes.len() - COMMIT_RECORD_BYTES - 8;
        mismatched[crc_at] ^= 0xff;
        assert!(matches!(open(&mismatched), Err(StoreError::Corrupt(_))));
        // A damaged commit record itself means torn.
        let mut torn = bytes;
        let tail = torn.len() - 4;
        torn[tail] ^= 1;
        assert_eq!(open(&torn).unwrap_err(), StoreError::Torn);
    }

    #[test]
    fn footer_rejects_absurd_chunk_counts() {
        let mut bytes = Vec::new();
        put_u32(&mut bytes, 1);
        put_u16(&mut bytes, 1);
        bytes.push(b'x');
        bytes.push(0);
        put_u64(&mut bytes, 0);
        put_u64(&mut bytes, u64::MAX); // absurd chunk count
        assert!(read_footer(&bytes, STORE_VERSION).is_err());
        assert!(read_footer(&bytes, 2).is_err());
    }

    #[test]
    fn footer_rejects_absurd_parity_counts() {
        let fields = vec![FieldEntry {
            name: "x".into(),
            resolved_bound: None,
            control: None,
            chunks: vec![],
            parity: vec![],
        }];
        let mut bytes = write_footer(&fields, STORE_VERSION);
        // The final u64 is the parity count: make it absurd.
        let n = bytes.len();
        bytes[n - 8..].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(read_footer(&bytes, STORE_VERSION).is_err());
    }

    #[test]
    fn footer_round_trips_across_versions() {
        let v3_fields = vec![FieldEntry {
            name: "rho".into(),
            resolved_bound: None,
            control: None,
            chunks: vec![ChunkMeta::test_sample(0, 64)],
            parity: vec![ParityMeta {
                offset: 64,
                len: 64,
                crc: 7,
            }],
        }];
        let bytes = write_footer(&v3_fields, STORE_VERSION);
        assert_eq!(read_footer(&bytes, STORE_VERSION).unwrap(), v3_fields);

        let v2_fields = vec![FieldEntry {
            name: "rho".into(),
            resolved_bound: None,
            control: None,
            chunks: vec![ChunkMeta::test_sample(0, 64)],
            parity: vec![],
        }];
        let bytes = write_footer(&v2_fields, 2);
        assert_eq!(read_footer(&bytes, 2).unwrap(), v2_fields);
    }
}
