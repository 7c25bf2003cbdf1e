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
//!
//! The build reads cells in storage order, which is level-major. Each key
//! comes from [`AnchoredIndexer`], which walks only a cell's in-tile bits
//! when its storage tile matches the previous cell's. The keys are then
//! ordered by a stable LSD radix sort on the curve index alone: cells that
//! share an anchor keep their input order, i.e. coarse before fine, so
//! the level tie-break needs no key bits.

use crate::ordering::{GroupingMode, OrderingPolicy};
use zmesh_amr::{AmrTree, Cell};
use zmesh_sfc::AnchoredIndexer;

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
        Self::build_keyed(tree, policy, grouping).0
    }

    /// [`RestoreRecipe::build`], also handing back the curve keys the sort
    /// ran on: [`anchor_keys`] in storage order (`None` under level order).
    /// A writer plans its chunks from them instead of keying every cell a
    /// second time; the recipe itself keeps no keys.
    pub fn build_keyed(
        tree: &AmrTree,
        policy: OrderingPolicy,
        grouping: GroupingMode,
    ) -> (Self, Option<Vec<u64>>) {
        let keys = anchor_keys(tree, policy, grouping);
        let perm = match &keys {
            None => (0..stream_len(tree, grouping) as u32).collect(),
            Some(keys) => {
                let key_bits = tree.dim().rank() as u32 * tree.finest_bits();
                radix_sort_positions(keys, key_bits)
            }
        };
        let recipe = Self {
            perm,
            policy,
            grouping,
        };
        (recipe, keys)
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

/// Stream points of `tree` under `grouping`: every cell for Chained, the
/// leaves for LeafOnly.
fn stream_len(tree: &AmrTree, grouping: GroupingMode) -> usize {
    match grouping {
        GroupingMode::LeafOnly => tree.leaf_count(),
        GroupingMode::Chained => tree.cell_count(),
    }
}

/// The curve index of each stream point's anchor under `policy`, in
/// storage order: all cells (level-major) for Chained, the leaves for
/// LeafOnly. `None` under level order, where no curve backs the stream.
/// The recipe sorts on these keys; a chunk's curve interval is their span.
pub fn anchor_keys(
    tree: &AmrTree,
    policy: OrderingPolicy,
    grouping: GroupingMode,
) -> Option<Vec<u64>> {
    let curve = policy.curve()?;
    let dims = tree.dim().rank() as u32;
    let tile_shift = tree.patch_size().trailing_zeros();
    let mut keys = AnchoredIndexer::new(curve, dims, tree.finest_bits(), tile_shift);
    let max_level = tree.max_level();
    let key = |cell: &Cell| {
        let c = cell.coord;
        keys.index(
            [u64::from(c.x), u64::from(c.y), u64::from(c.z)],
            max_level - cell.level,
        )
    };
    Some(match grouping {
        GroupingMode::LeafOnly => tree.leaves().map(key).collect(),
        GroupingMode::Chained => tree.cells().iter().map(key).collect(),
    })
}

/// Positions `0..keys.len()` in stable LSD radix order of `keys`, of which
/// only the low `key_bits` can be set: ⌈key_bits / 12⌉ passes of
/// equal-width digits, each moving positions and reading their key through
/// them. A pass whose digit is the same for every key is skipped.
fn radix_sort_positions(keys: &[u64], key_bits: u32) -> Vec<u32> {
    let passes = key_bits.div_ceil(12).max(1);
    let width = key_bits.div_ceil(passes);
    let radix = 1usize << width;
    let mask = (radix - 1) as u64;
    let n = keys.len();

    // Every pass's histogram in one read of the keys.
    let mut counts = vec![0u32; passes as usize * radix];
    for &key in keys {
        for (p, hist) in counts.chunks_exact_mut(radix).enumerate() {
            hist[((key >> (p as u32 * width)) & mask) as usize] += 1;
        }
    }

    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut next = vec![0u32; n];
    for (p, hist) in counts.chunks_exact_mut(radix).enumerate() {
        if hist.iter().any(|&c| c as usize == n) {
            continue;
        }
        let mut start = 0u32;
        for count in hist.iter_mut() {
            (*count, start) = (start, start + *count);
        }
        let shift = p as u32 * width;
        for &i in &order {
            let slot = &mut hist[((keys[i as usize] >> shift) & mask) as usize];
            next[*slot as usize] = i;
            *slot += 1;
        }
        std::mem::swap(&mut order, &mut next);
    }
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use zmesh_amr::{CellCoord, Dim, TreeBuilder};

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
