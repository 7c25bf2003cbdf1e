//! # zmesh — AMR stream reordering for better lossy compression
//!
//! This crate is the Rust reproduction of the paper's contribution:
//!
//! > *zMesh: Exploring Application Characteristics to Improve Lossy
//! > Compression Ratio for Adaptive Mesh Refinement* (IPDPS 2021).
//!
//! ## The idea
//!
//! AMR applications write field data **level by level**; handing that
//! linearized stream to a 1-D error-bounded compressor (SZ, ZFP) wastes
//! compressibility because stream neighbors are often geometrically distant.
//! zMesh permutes the stream so that points mapped to the *same or adjacent
//! geometric coordinates* — including points on different refinement levels
//! covering the same region — become stream neighbors. The permutation
//! follows a space-filling curve ([`OrderingPolicy::ZOrder`] or
//! [`OrderingPolicy::Hilbert`]) over the refinement tree.
//!
//! ## No storage overhead
//!
//! The permutation (*restore recipe*, [`RestoreRecipe`]) is **never
//! stored**: it is re-generated at decompression time from the chained
//! refinement-tree metadata that any AMR container must carry anyway
//! ([`zmesh_amr::AmrTree::structure_bytes`]). The on-disk format lives in
//! `zmesh-store`, whose header carries exactly those structure bytes and is
//! byte-identical across ordering policies.
//!
//! ## Amortization
//!
//! The recipe is a pure function of the mesh, not of the data, so one recipe
//! serves every quantity an application writes on that mesh: build it once,
//! then [`RestoreRecipe::apply`] and [`RestoreRecipe::invert`] per quantity
//! (paper Fig. "amortization").
//!
//! ## Quick start
//!
//! ```
//! use zmesh::{codec_for, CompressionConfig, GroupingMode, RestoreRecipe};
//! use zmesh_amr::{datasets, AmrTree};
//! use zmesh_codecs::{CodecParams, ValueType};
//!
//! let ds = datasets::front2d(zmesh_amr::StorageMode::AllCells, datasets::Scale::Tiny);
//! let config = CompressionConfig::zmesh_default();
//! let grouping = GroupingMode::from_storage_mode(ds.mode());
//! let recipe = RestoreRecipe::build(&ds.tree, config.policy, grouping);
//! let params = CodecParams {
//!     control: config.control,
//!     dims: [0, 0, 0],
//!     value_type: ValueType::F64,
//! };
//! let codec = codec_for(config.codec);
//! let payload = codec.compress(&recipe.apply(ds.primary().values()), &params).unwrap();
//!
//! // Decompression side: only the structure bytes and the payload exist.
//! let tree = AmrTree::from_structure_bytes(&ds.tree.structure_bytes()).unwrap();
//! let rebuilt = RestoreRecipe::build(&tree, config.policy, grouping);
//! let restored = rebuilt.invert(&codec.decompress(&payload).unwrap());
//! assert_eq!(restored.len(), ds.primary().len());
//! ```

pub mod analysis;
mod config;
mod crc;
mod error;
mod linearize;
mod ordering;
mod recipe;

pub use analysis::{stream_locality, StreamLocality};
pub use config::{codec_for, CompressionConfig};
pub use crc::crc32;
pub use error::ZmeshError;
pub use linearize::{linearize, restore};
pub use ordering::{GroupingMode, OrderingPolicy};
pub use recipe::{RestoreRecipe, StreamKeys};
