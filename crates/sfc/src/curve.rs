//! The [`Curve`] trait and the [`CurveKind`] runtime dispatcher.

use crate::hilbert_fast::{
    StateTable, HILBERT_2D_TABLE, HILBERT_3D_TABLE, MORTON_2D_TABLE, MORTON_3D_TABLE,
};
use crate::{
    hilbert_index_2d_fast, hilbert_index_3d_fast, hilbert_point_2d_fast, hilbert_point_3d_fast,
    morton_index_2d, morton_index_3d, morton_point_2d, morton_point_3d, row_major_index_2d,
    row_major_index_3d, row_major_point_2d, row_major_point_3d,
};

/// A bijection between integer grid coordinates and a scalar curve index.
///
/// Implementations must be bijective on the `2^bits`-sided grid; Morton and
/// Hilbert additionally visit every aligned dyadic sub-block in a contiguous
/// index range (the property the zMesh tree traversal relies on).
pub trait Curve {
    /// Curve index of a 2-D point on a `2^bits`-sided grid.
    fn index_2d(&self, x: u64, y: u64, bits: u32) -> u64;
    /// Curve index of a 3-D point on a `2^bits`-sided grid.
    fn index_3d(&self, x: u64, y: u64, z: u64, bits: u32) -> u64;
    /// Inverse of [`Curve::index_2d`].
    fn point_2d(&self, index: u64, bits: u32) -> (u64, u64);
    /// Inverse of [`Curve::index_3d`].
    fn point_3d(&self, index: u64, bits: u32) -> (u64, u64, u64);
}

/// Runtime-selectable curve. `Morton` and `Hilbert` are the two zMesh
/// orderings; `RowMajor` is the within-grid order of the level-order baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CurveKind {
    /// Lexicographic scan, x fastest.
    RowMajor,
    /// Z-order / Morton bit interleaving.
    Morton,
    /// Hilbert curve (Skilling's algorithm).
    Hilbert,
}

impl CurveKind {
    /// All supported curves, in the order they appear in the paper's plots.
    pub const ALL: [CurveKind; 3] = [CurveKind::RowMajor, CurveKind::Morton, CurveKind::Hilbert];

    /// Short label used by the benchmark harness output.
    pub fn label(&self) -> &'static str {
        match self {
            CurveKind::RowMajor => "rowmajor",
            CurveKind::Morton => "zorder",
            CurveKind::Hilbert => "hilbert",
        }
    }

    /// Whether the curve visits aligned dyadic blocks contiguously (required
    /// for use as a refinement-tree traversal key).
    pub fn is_dyadic_recursive(&self) -> bool {
        !matches!(self, CurveKind::RowMajor)
    }

    /// The curve's orientation state machine in `dims` (2 or 3)
    /// dimensions, for walking the dyadic tree in curve order; `None` for
    /// row-major, which is not dyadic.
    ///
    /// # Panics
    /// Panics if `dims` is not 2 or 3.
    pub fn states(&self, dims: u32) -> Option<&'static StateTable> {
        match (self, dims) {
            (CurveKind::RowMajor, 2 | 3) => None,
            (CurveKind::Morton, 2) => Some(&MORTON_2D_TABLE),
            (CurveKind::Morton, 3) => Some(&MORTON_3D_TABLE),
            (CurveKind::Hilbert, 2) => Some(&HILBERT_2D_TABLE),
            (CurveKind::Hilbert, 3) => Some(&HILBERT_3D_TABLE),
            _ => panic!("dims must be 2 or 3, got {dims}"),
        }
    }
}

impl Curve for CurveKind {
    #[inline]
    fn index_2d(&self, x: u64, y: u64, bits: u32) -> u64 {
        match self {
            CurveKind::RowMajor => row_major_index_2d(x, y, bits),
            CurveKind::Morton => morton_index_2d(x, y),
            CurveKind::Hilbert => hilbert_index_2d_fast(x, y, bits),
        }
    }

    #[inline]
    fn index_3d(&self, x: u64, y: u64, z: u64, bits: u32) -> u64 {
        match self {
            CurveKind::RowMajor => row_major_index_3d(x, y, z, bits),
            CurveKind::Morton => morton_index_3d(x, y, z),
            CurveKind::Hilbert => hilbert_index_3d_fast(x, y, z, bits),
        }
    }

    #[inline]
    fn point_2d(&self, index: u64, bits: u32) -> (u64, u64) {
        match self {
            CurveKind::RowMajor => row_major_point_2d(index, bits),
            CurveKind::Morton => morton_point_2d(index),
            CurveKind::Hilbert => hilbert_point_2d_fast(index, bits),
        }
    }

    #[inline]
    fn point_3d(&self, index: u64, bits: u32) -> (u64, u64, u64) {
        match self {
            CurveKind::RowMajor => row_major_point_3d(index, bits),
            CurveKind::Morton => morton_point_3d(index),
            CurveKind::Hilbert => hilbert_point_3d_fast(index, bits),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_curves_round_trip_2d() {
        let bits = 4;
        for kind in CurveKind::ALL {
            for x in 0..16 {
                for y in 0..16 {
                    let i = kind.index_2d(x, y, bits);
                    assert_eq!(kind.point_2d(i, bits), (x, y), "{kind:?}");
                }
            }
        }
    }

    #[test]
    fn all_curves_round_trip_3d() {
        let bits = 3;
        for kind in CurveKind::ALL {
            for x in 0..8 {
                for y in 0..8 {
                    for z in 0..8 {
                        let i = kind.index_3d(x, y, z, bits);
                        assert_eq!(kind.point_3d(i, bits), (x, y, z), "{kind:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn labels_are_distinct() {
        assert_ne!(CurveKind::Morton.label(), CurveKind::Hilbert.label());
        assert!(CurveKind::Morton.is_dyadic_recursive());
        assert!(!CurveKind::RowMajor.is_dyadic_recursive());
    }
}
