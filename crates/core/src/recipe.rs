//! The restore recipe: the permutation between storage order and curve
//! order, re-generated from tree metadata (never stored).
//!
//! For a cell at level ℓ with coordinates `c`, its *anchor* is `c` scaled to
//! the finest-level grid. Both Morton and Hilbert visit every aligned dyadic
//! block in one contiguous index range, so sorting cells by
//! `(curve_index(anchor), level)` reproduces a recursive traversal of the
//! refinement tree; the `level` tie-break realizes the paper's chained-tree
//! grouping — a coarse point is emitted immediately before the finer points
//! anchored at the same geometric coordinate.

use crate::ordering::{GroupingMode, OrderingPolicy};
use rayon::prelude::*;
use zmesh_amr::{AmrTree, Cell, Dim};
use zmesh_sfc::Curve;

/// A permutation between storage order and stream (curve) order.
///
/// `perm[stream_pos] = storage_index`; [`RestoreRecipe::apply`] gathers a
/// storage-ordered slice into stream order, [`RestoreRecipe::invert`]
/// scatters a stream back into storage order.
///
/// ```
/// use zmesh::{GroupingMode, OrderingPolicy, RestoreRecipe};
/// use zmesh_amr::{AmrTree, Dim};
///
/// let tree = AmrTree::uniform(Dim::D2, [8, 8, 1]).unwrap();
/// let recipe = RestoreRecipe::build(&tree, OrderingPolicy::Hilbert, GroupingMode::LeafOnly);
/// let values: Vec<f64> = (0..64).map(f64::from).collect();
/// let stream = recipe.apply(&values);
/// assert_eq!(recipe.invert(&stream), values);
///
/// // The recipe is a pure function of the tree's metadata: rebuilding the
/// // tree from serialized bytes yields the identical permutation.
/// let rebuilt = AmrTree::from_structure_bytes(&tree.structure_bytes()).unwrap();
/// let again = RestoreRecipe::build(&rebuilt, OrderingPolicy::Hilbert, GroupingMode::LeafOnly);
/// assert_eq!(recipe.permutation(), again.permutation());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreRecipe {
    perm: Vec<u32>,
    policy: OrderingPolicy,
    grouping: GroupingMode,
}

impl RestoreRecipe {
    /// Builds the recipe for `tree` under `policy` and `grouping`.
    ///
    /// This is the "recipe re-generation" step of the paper: it reads only
    /// the tree structure (which every AMR container carries), so nothing
    /// recipe-related is ever written to storage.
    pub fn build(tree: &AmrTree, policy: OrderingPolicy, grouping: GroupingMode) -> Self {
        let n = match grouping {
            GroupingMode::LeafOnly => tree.leaf_count(),
            GroupingMode::Chained => tree.cell_count(),
        };
        let perm = match policy.curve() {
            None => (0..n as u32).collect(),
            Some(curve) => {
                let bits = tree.finest_bits();
                let dim = tree.dim();
                // Key: (curve index of the anchor, level, storage index).
                // Cells at the same anchor chain coarse -> fine; no two
                // cells share (anchor, level), so the storage index only
                // carries the permutation through the sort.
                let key = |(i, cell): (usize, &Cell)| -> (u64, u32, u32) {
                    let a = tree.anchor(cell);
                    let idx = match dim {
                        Dim::D2 => curve.index_2d(u64::from(a.x), u64::from(a.y), bits),
                        Dim::D3 => {
                            curve.index_3d(u64::from(a.x), u64::from(a.y), u64::from(a.z), bits)
                        }
                    };
                    (idx, cell.level, i as u32)
                };
                let mut keys: Vec<(u64, u32, u32)> = match grouping {
                    GroupingMode::LeafOnly => tree
                        .leaf_indices()
                        .par_iter()
                        .map(|&i| &tree.cells()[i as usize])
                        .enumerate()
                        .map(key)
                        .collect(),
                    GroupingMode::Chained => tree.cells().par_iter().enumerate().map(key).collect(),
                };
                keys.sort_unstable();
                keys.into_iter().map(|(_, _, i)| i).collect()
            }
        };
        Self {
            perm,
            policy,
            grouping,
        }
    }

    /// Stream length.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// Whether the recipe is empty.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// Ordering policy the recipe was built for.
    pub fn policy(&self) -> OrderingPolicy {
        self.policy
    }

    /// Grouping mode the recipe was built for.
    pub fn grouping(&self) -> GroupingMode {
        self.grouping
    }

    /// The raw permutation (`perm[stream_pos] = storage_index`).
    pub fn permutation(&self) -> &[u32] {
        &self.perm
    }

    /// Gathers storage-ordered `values` into stream order.
    ///
    /// # Panics
    /// Panics if `values.len() != self.len()`.
    pub fn apply(&self, values: &[f64]) -> Vec<f64> {
        assert_eq!(values.len(), self.perm.len(), "length mismatch");
        self.perm.iter().map(|&i| values[i as usize]).collect()
    }

    /// Scatters a stream-ordered slice back into storage order
    /// (inverse of [`RestoreRecipe::apply`]).
    ///
    /// # Panics
    /// Panics if `stream.len() != self.len()`.
    pub fn invert(&self, stream: &[f64]) -> Vec<f64> {
        assert_eq!(stream.len(), self.perm.len(), "length mismatch");
        let mut out = vec![0.0f64; stream.len()];
        for (pos, &i) in self.perm.iter().enumerate() {
            out[i as usize] = stream[pos];
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use zmesh_amr::{CellCoord, TreeBuilder};

    fn sample_tree() -> Arc<AmrTree> {
        let l0 = vec![
            CellCoord::new(0, 0, 0).pack(),
            CellCoord::new(2, 3, 0).pack(),
        ];
        let l1 = vec![CellCoord::new(1, 1, 0).pack()];
        Arc::new(AmrTree::from_refined(Dim::D2, [4, 4, 1], vec![l0, l1]).unwrap())
    }

    #[test]
    fn level_order_recipe_is_identity() {
        let tree = sample_tree();
        for grouping in [GroupingMode::LeafOnly, GroupingMode::Chained] {
            let r = RestoreRecipe::build(&tree, OrderingPolicy::LevelOrder, grouping);
            assert!(r
                .permutation()
                .iter()
                .enumerate()
                .all(|(i, &p)| i as u32 == p));
        }
    }

    #[test]
    fn recipes_are_permutations() {
        let tree = sample_tree();
        for policy in OrderingPolicy::ALL {
            for grouping in [GroupingMode::LeafOnly, GroupingMode::Chained] {
                let r = RestoreRecipe::build(&tree, policy, grouping);
                let mut seen = vec![false; r.len()];
                for &i in r.permutation() {
                    assert!(!seen[i as usize], "{policy:?} {grouping:?}: duplicate");
                    seen[i as usize] = true;
                }
                assert!(seen.iter().all(|&s| s));
            }
        }
    }

    #[test]
    fn apply_then_invert_is_identity() {
        let tree = sample_tree();
        for policy in OrderingPolicy::ALL {
            for grouping in [GroupingMode::LeafOnly, GroupingMode::Chained] {
                let r = RestoreRecipe::build(&tree, policy, grouping);
                let values: Vec<f64> = (0..r.len()).map(|i| i as f64 * 1.5).collect();
                assert_eq!(
                    r.invert(&r.apply(&values)),
                    values,
                    "{policy:?} {grouping:?}"
                );
            }
        }
    }

    #[test]
    fn chained_mode_emits_coarse_before_fine_at_same_anchor() {
        let tree = sample_tree();
        for policy in [OrderingPolicy::ZOrder, OrderingPolicy::Hilbert] {
            let r = RestoreRecipe::build(&tree, policy, GroupingMode::Chained);
            let cells = tree.cells();
            // Walk the stream; whenever consecutive entries share an anchor,
            // the earlier one must be the coarser.
            for w in r.permutation().windows(2) {
                let (a, b) = (&cells[w[0] as usize], &cells[w[1] as usize]);
                if tree.anchor(a) == tree.anchor(b) {
                    assert!(a.level < b.level, "{policy:?}: fine before coarse");
                }
            }
            // The refined level-0 cell (0,0) must be immediately followed by
            // its anchor-sharing descendants.
            let pos_root = r
                .permutation()
                .iter()
                .position(|&i| {
                    let c = &cells[i as usize];
                    c.level == 0 && c.coord == CellCoord::new(0, 0, 0)
                })
                .unwrap();
            let next = &cells[r.permutation()[pos_root + 1] as usize];
            assert_eq!(tree.anchor(next), CellCoord::new(0, 0, 0));
            assert_eq!(next.level, 1);
        }
    }

    #[test]
    fn zorder_stream_visits_blocks_contiguously() {
        // Build a deeper tree and verify each refined region's points are
        // contiguous in the stream (the dyadic property end-to-end).
        let tree = Arc::new(
            TreeBuilder::new(Dim::D2, [4, 4, 1], 3)
                .refine_where(|_, c, _| c[0] < 0.5 && c[1] < 0.5)
                .build()
                .unwrap(),
        );
        let r = RestoreRecipe::build(&tree, OrderingPolicy::ZOrder, GroupingMode::LeafOnly);
        let leaves: Vec<_> = tree.leaves().collect();
        // The refined quadrant [0, 0.5)^2 corresponds to anchors with
        // x < 16, y < 16 at the finest level (32x32). Its leaves must form
        // one contiguous run in the stream.
        let in_quad: Vec<bool> = r
            .permutation()
            .iter()
            .map(|&i| {
                let a = tree.anchor(leaves[i as usize]);
                a.x < 16 && a.y < 16
            })
            .collect();
        let first = in_quad.iter().position(|&b| b).unwrap();
        let last = in_quad.iter().rposition(|&b| b).unwrap();
        assert!(
            in_quad[first..=last].iter().all(|&b| b),
            "quadrant not contiguous"
        );
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn apply_rejects_wrong_length() {
        let tree = sample_tree();
        let r = RestoreRecipe::build(&tree, OrderingPolicy::ZOrder, GroupingMode::LeafOnly);
        let _ = r.apply(&[1.0, 2.0]);
    }

    #[test]
    fn recipe_depends_only_on_structure() {
        // Rebuilding from serialized metadata gives the identical recipe.
        let tree = sample_tree();
        let rebuilt = Arc::new(AmrTree::from_structure_bytes(&tree.structure_bytes()).unwrap());
        for policy in OrderingPolicy::ALL {
            let a = RestoreRecipe::build(&tree, policy, GroupingMode::Chained);
            let b = RestoreRecipe::build(&rebuilt, policy, GroupingMode::Chained);
            assert_eq!(a, b);
        }
    }
}
