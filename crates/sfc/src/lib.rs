//! # zmesh-sfc — space-filling curves
//!
//! zMesh reorders the linearized AMR stream by visiting the leaves of the
//! refinement tree along a space-filling curve (SFC). This crate provides the
//! three orderings the paper evaluates:
//!
//! * **Row-major** — the trivial lexicographic order (used inside patches by
//!   the level-order baseline),
//! * **Morton / Z-order** — bit interleaving,
//! * **Hilbert** — Skilling's transpose algorithm, which preserves locality
//!   better than Morton (consecutive indices are always face-adjacent).
//!
//! All curves expose the same interface through [`CurveKind`]/[`Curve`]:
//! a bijection between d-dimensional integer coordinates on a `2^bits`-sided
//! grid and a scalar index in `0 .. 2^(d*bits)`.
//!
//! A key property used by the zMesh core: both Morton and Hilbert are
//! *dyadic-recursive*, i.e. every aligned `2^k`-sided sub-cube is visited in
//! one contiguous index range. Sorting AMR leaves by the curve index of their
//! anchor therefore reproduces a recursive SFC traversal of the refinement
//! tree. This is checked by `tests/dyadic.rs`.
//!
//! [`CurveKind::states`] exposes each dyadic curve as a constant
//! orientation state machine ([`StateTable`]): which child a node visits
//! next and the orientation of that child's subtree, plus the index digits
//! an anchor's trailing zero bits append. The restore recipe in the zMesh
//! core walks the refinement tree with it, emitting cells already in curve
//! order.

mod curve;
mod hilbert;
mod hilbert_fast;
mod morton;
pub mod ranges;
mod rowmajor;

pub use curve::{Curve, CurveKind};
pub use hilbert::{hilbert_index_2d, hilbert_index_3d, hilbert_point_2d, hilbert_point_3d};
pub use hilbert_fast::{
    hilbert_index_2d_fast, hilbert_index_3d_fast, hilbert_point_2d_fast, hilbert_point_3d_fast,
    StateTable,
};
pub use morton::{
    morton_index_2d, morton_index_3d, morton_point_2d, morton_point_3d, MAX_BITS_2D, MAX_BITS_3D,
};
pub use ranges::{bbox_meets_interval_2d, bbox_meets_interval_3d, bbox_ranges_2d, bbox_ranges_3d};
pub use rowmajor::{
    row_major_index_2d, row_major_index_3d, row_major_point_2d, row_major_point_3d,
};
