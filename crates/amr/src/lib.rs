//! # zmesh-amr — the adaptive-mesh-refinement substrate
//!
//! zMesh operates on the output of AMR applications. The paper evaluates on
//! real production datasets; this crate is the substitution (DESIGN.md §2):
//! a from-scratch cell-based AMR substrate with refinement ratio 2 that can
//!
//! * represent refinement hierarchies over 2-D and 3-D domains
//!   ([`AmrTree`]), with the structure metadata serialized exactly the way a
//!   real AMR container would carry it (the zMesh restore recipe is
//!   re-generated from these bytes alone);
//! * build hierarchies from refinement criteria ([`TreeBuilder`],
//!   [`RefineCriterion`]) the way an AMR code regrids: refine where the
//!   solution has structure;
//! * generate physically flavored fields, both analytic
//!   ([`generator::analytic`]) and from real mini-solvers
//!   ([`solver`] — advection, diffusion) run on a fine uniform grid and
//!   restricted onto the hierarchy;
//! * package named dataset presets ([`datasets`]) mirroring the feature
//!   classes of the paper's evaluation data (fronts, blasts, clustered
//!   density, multi-scale turbulence).
//!
//! ## Storage order
//!
//! Fields are stored the way AMR applications write them and the paper's
//! baseline compresses them: **level by level**, lexicographic (z, y, x row
//! major) within each level — see [`AmrField`]. zMesh's whole point is that
//! this order interleaves geometrically distant points.

mod builder;
pub mod clustering;
mod error;
mod field;
pub mod generator;
mod geometry;
mod io;
pub mod layout;
pub mod solver;
mod stats;
mod tree;

pub use builder::TreeBuilder;
pub use clustering::{cluster, BrBox, BrConfig};
pub use error::AmrError;
pub use field::{AmrField, StorageMode};
pub use generator::analytic::{self, FieldFn};
pub use generator::datasets::{self, Dataset};
pub use generator::refine::RefineCriterion;
pub use geometry::{CellCoord, Dim, COORD_BITS};
pub use io::{load_dataset, save_dataset};
pub use stats::{DatasetStats, LevelStats};
pub use tree::{AmrTree, Cell, CellIter, Cells, TreeLinks};
