//! Stream-locality analysis: *why* reordering works.
//!
//! The journal version of the paper frames zMesh theoretically: compression
//! ratio tracks how geometrically local consecutive stream entries are.
//! This module measures that directly, independent of any field data:
//!
//! * the fraction of consecutive stream pairs whose cells share a face,
//! * the fraction that map to the same geometric anchor (the chained-tree
//!   groupings),
//! * mean and max center-to-center step distance in finest-cell units.

use crate::ordering::{GroupingMode, OrderingPolicy};
use crate::recipe::RestoreRecipe;
use zmesh_amr::{AmrTree, Cell};

/// Geometric locality statistics of a linearized stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StreamLocality {
    /// Fraction of consecutive pairs whose cells share a face (or overlap,
    /// for cross-level chains).
    pub adjacent_frac: f64,
    /// Fraction of consecutive pairs anchored at the same finest-grid
    /// coordinate (parent→child chains; only nonzero in chained mode).
    pub same_anchor_frac: f64,
    /// Mean center-to-center distance per step, in finest-cell units.
    pub mean_step: f64,
    /// Largest single step, in finest-cell units.
    pub max_step: f64,
}

/// Center of a cell on the (doubled) finest grid, so centers are integers.
fn center2(tree: &AmrTree, cell: &Cell) -> [i64; 3] {
    let shift = tree.max_level() - cell.level;
    let side = 1i64 << (shift + 1); // cell side on the doubled finest grid
    let a = tree.anchor(cell);
    [
        2 * i64::from(a.x) + side / 2,
        2 * i64::from(a.y) + side / 2,
        2 * i64::from(a.z) + side / 2,
    ]
}

/// Whether two cells' closed boxes touch or overlap (face adjacency or
/// cross-level containment).
fn touches(tree: &AmrTree, a: &Cell, b: &Cell) -> bool {
    let (sa, sb) = (
        2i64 << (tree.max_level() - a.level),
        2i64 << (tree.max_level() - b.level),
    );
    let (ca, cb) = (center2(tree, a), center2(tree, b));
    (0..3).all(|ax| 2 * (ca[ax] - cb[ax]).abs() <= sa + sb)
}

/// Computes locality statistics for the stream a recipe produces.
pub fn stream_locality(
    tree: &AmrTree,
    policy: OrderingPolicy,
    grouping: GroupingMode,
) -> StreamLocality {
    let recipe = RestoreRecipe::build(tree, policy, grouping);
    let cell_of = |vpos: u32| -> Cell {
        match grouping {
            GroupingMode::LeafOnly => tree.cell(tree.leaf_indices()[vpos as usize] as usize),
            GroupingMode::Chained => tree.cell(vpos as usize),
        }
    };
    let perm = recipe.permutation();
    if perm.len() < 2 {
        return StreamLocality {
            adjacent_frac: 1.0,
            same_anchor_frac: 0.0,
            mean_step: 0.0,
            max_step: 0.0,
        };
    }
    let mut adjacent = 0usize;
    let mut same_anchor = 0usize;
    let mut dist_sum = 0.0f64;
    let mut dist_max = 0.0f64;
    for w in perm.windows(2) {
        let (a, b) = (&cell_of(w[0]), &cell_of(w[1]));
        if touches(tree, a, b) {
            adjacent += 1;
        }
        if tree.anchor(a) == tree.anchor(b) {
            same_anchor += 1;
        }
        let (ca, cb) = (center2(tree, a), center2(tree, b));
        let d = (0..3)
            .map(|ax| ((ca[ax] - cb[ax]) as f64 / 2.0).powi(2))
            .sum::<f64>()
            .sqrt();
        dist_sum += d;
        dist_max = dist_max.max(d);
    }
    let pairs = (perm.len() - 1) as f64;
    StreamLocality {
        adjacent_frac: adjacent as f64 / pairs,
        same_anchor_frac: same_anchor as f64 / pairs,
        mean_step: dist_sum / pairs,
        max_step: dist_max,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use zmesh_amr::{CellCoord, Dim, TreeBuilder};

    fn sample_tree() -> Arc<AmrTree> {
        Arc::new(
            TreeBuilder::new(Dim::D2, [8, 8, 1], 3)
                .refine_where(|_, c, _| (c[0] - 0.5).abs() + (c[1] - 0.5).abs() < 0.3)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn hilbert_stream_is_mostly_adjacent() {
        let tree = sample_tree();
        let h = stream_locality(&tree, OrderingPolicy::Hilbert, GroupingMode::LeafOnly);
        // Hilbert on the leaves of a tree: every step is between face-
        // adjacent dyadic regions.
        assert!(h.adjacent_frac > 0.95, "adjacent = {}", h.adjacent_frac);
        assert!(h.mean_step < 4.0, "mean step = {}", h.mean_step);
    }

    #[test]
    fn baseline_stream_is_much_less_local() {
        let tree = sample_tree();
        let base = stream_locality(&tree, OrderingPolicy::LevelOrder, GroupingMode::Chained);
        let h = stream_locality(&tree, OrderingPolicy::Hilbert, GroupingMode::Chained);
        assert!(h.adjacent_frac > base.adjacent_frac);
        assert!(h.mean_step < base.mean_step);
    }

    #[test]
    fn chained_mode_produces_same_anchor_pairs() {
        let tree = sample_tree();
        let leaf = stream_locality(&tree, OrderingPolicy::Hilbert, GroupingMode::LeafOnly);
        let chained = stream_locality(&tree, OrderingPolicy::Hilbert, GroupingMode::Chained);
        assert_eq!(leaf.same_anchor_frac, 0.0);
        assert!(chained.same_anchor_frac > 0.0);
    }

    #[test]
    fn zorder_has_larger_max_steps_than_hilbert() {
        // Morton's diagonal jumps vs Hilbert's unit steps.
        let tree = sample_tree();
        let z = stream_locality(&tree, OrderingPolicy::ZOrder, GroupingMode::LeafOnly);
        let h = stream_locality(&tree, OrderingPolicy::Hilbert, GroupingMode::LeafOnly);
        assert!(
            z.max_step > h.max_step,
            "z {} vs h {}",
            z.max_step,
            h.max_step
        );
    }

    #[test]
    fn trivial_trees_are_fully_local() {
        let tree = Arc::new(AmrTree::uniform(Dim::D2, [1, 1, 1]).unwrap());
        let s = stream_locality(&tree, OrderingPolicy::Hilbert, GroupingMode::LeafOnly);
        assert_eq!(s.adjacent_frac, 1.0);
        assert_eq!(s.mean_step, 0.0);
        // Two-cell tree: one step of distance 1.
        let tree = Arc::new(AmrTree::uniform(Dim::D2, [2, 1, 1]).unwrap());
        let s = stream_locality(&tree, OrderingPolicy::LevelOrder, GroupingMode::LeafOnly);
        assert_eq!(s.mean_step, 1.0);
        let _ = CellCoord::new(0, 0, 0);
    }
}
