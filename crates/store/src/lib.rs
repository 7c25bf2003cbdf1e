//! # zmesh-store — chunked, indexed, random-access containers
//!
//! The **store** (formats v2–v4) is zMesh's only on-disk format, built for
//! partial reads and self-healing:
//!
//! - the reordered stream is framed into fixed-target-size **chunks**, each
//!   compressed independently with its own CRC;
//! - a **footer index** records, per chunk, the curve-index range, level
//!   mask, and bounding box it covers;
//! - a [`StoreReader`] answers bounding-box / level queries by decomposing
//!   the box into space-filling-curve ranges ([`zmesh_sfc::bbox_ranges_2d`])
//!   and decoding **only the overlapping chunks**, in parallel, from any
//!   [`ByteSource`] (in memory, or ranged reads of a [`FileSource`]);
//! - a [`RecipeCache`] keyed by the tree structure makes multi-field and
//!   time-series writes reuse one restore recipe — hits are verified
//!   against the structure bytes, so a hash collision can never hand out
//!   the wrong permutation;
//! - chunks are protected per group by [`Parity`]: XOR (v3, the default;
//!   one erasure per group), GF(2^8) Reed–Solomon (v4, up to `m` erasures
//!   per group, plus a commit record that makes a torn write detectable)
//!   or none (v2);
//! - reads run under a [`ReadPolicy`]: `Strict` (default) fails on the
//!   first integrity error, `Salvage` first rebuilds corrupt chunks from
//!   their parity group and only then skips, returning the surviving
//!   cells plus a [`DamageReport`] naming exactly what was repaired or
//!   lost;
//! - [`scrub`] audits every chunk's CRC without decoding, [`repair`]
//!   rewrites a damaged store back to byte-identity with the original
//!   (parity, then a replica or the raw data), and [`salvage_torn`] keeps
//!   the intact prefix of a torn v4 write. Salvage reads, scrub, repair and
//!   torn salvage share one span verifier and one parity-group recovery,
//!   so they agree on what parity can heal.
//!
//! The zMesh invariant is preserved: no permutation data is stored. Chunk
//! framing is by value count, so the index is byte-identical across
//! ordering policies — only chunk payload bytes differ (and parity bytes,
//! which track payload size, not the permutation).
//!
//! A writer with [`StoreWriteOptions`] `{ chunk_target_bytes: u32::MAX,
//! parity: Parity::None }` lays every field out as one chunk holding the
//! whole reordered stream's codec payload: the monolithic layout the
//! paper's experiments measure, in the same format as every other store.
//!
//! ```
//! use zmesh::CompressionConfig;
//! use zmesh_amr::{datasets, StorageMode};
//! use zmesh_store::{Query, StoreReader, StoreWriter};
//!
//! let ds = datasets::blast2d(StorageMode::AllCells, datasets::Scale::Tiny);
//! let fields: Vec<(&str, &zmesh_amr::AmrField)> =
//!     ds.fields.iter().map(|(n, f)| (n.as_str(), f)).collect();
//! let store = StoreWriter::new(CompressionConfig::zmesh_default())
//!     .write(&fields)
//!     .unwrap();
//! let reader = StoreReader::open(&store.bytes).unwrap();
//! let region = reader
//!     .query("density", &Query::bbox([0, 0, 0], [7, 7, 0]))
//!     .unwrap();
//! assert!(region.chunks_decoded <= region.chunks_total);
//! ```

mod cache;
mod chunk;
mod chunk_cache;
#[cfg(any(test, feature = "testing"))]
pub mod faultinject;
mod format;
pub mod gf256;
mod layout;
mod parity;
#[cfg(test)]
mod proptests;
mod reader;
mod repair;
mod sink;
mod source;
mod writer;

pub use cache::{CacheStats, RecipeCache};
pub use chunk::{plan_chunks, ChunkMeta, ChunkPlan, CHUNK_META_BYTES, DEFAULT_CHUNK_TARGET_BYTES};
pub use chunk_cache::{ChunkCache, ChunkCacheStats, ChunkKey, ChunkValues};
pub use format::{
    is_store, open as open_parts, open_source as open_parts_source, peek_header, ChunkKind,
    FieldEntry, StoreCapabilities, StoreError, StoreHeader, COMMIT_MAGIC, COMMIT_RECORD_BYTES,
    MIN_STORE_VERSION, STORE_MAGIC, STORE_VERSION, TRAILER_BYTES,
};
pub use parity::{Parity, ParityMeta, DEFAULT_PARITY_GROUP_WIDTH, PARITY_META_BYTES};
pub use reader::{
    DamageReport, DamageStatus, DamagedChunk, DamagedParity, GroupDamage, Query, QueryResult,
    ReadPolicy, RetryPolicy, RetryStats, SalvageFill, StoreReader,
};
pub use repair::{
    json_escape, repair, repair_with, repair_with_sources, salvage_torn, scrub, scrub_source,
    LostChunk, RawSource, RepairOutcome, RepairSource, RepairedChunk, ScrubChunk, ScrubReport,
    TornSalvage,
};
#[cfg(unix)]
pub use sink::FileSink;
pub use sink::{persist_store, ByteSink, VecSink};
#[cfg(unix)]
pub use source::FileSource;
#[cfg(all(unix, feature = "mmap"))]
pub use source::MmapSource;
pub use source::{ByteSource, SliceSource};
pub use writer::{
    process_peak_rss, StoreWriteOptions, StoreWriteStats, StoreWriter, StoreWritten, StreamOptions,
};
