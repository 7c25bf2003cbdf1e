//! The restore recipe: the permutation between storage order and curve
//! order, re-generated from tree metadata (never stored).
//!
//! For a cell at level ℓ with coordinates `c`, its *anchor* is `c` scaled to
//! the finest-level grid. The stream is the cells sorted by
//! `(curve_index(anchor), level)`; the `level` tie-break realizes the
//! paper's chained-tree grouping — a coarse point is emitted immediately
//! before the finer points anchored at the same geometric coordinate.
//!
//! Both Morton and Hilbert visit every aligned dyadic block in one
//! contiguous index range, so that order is a depth-first walk of the
//! refinement tree, and the build is that walk — no key is sorted:
//!
//! * from the curve's root, the walk descends through the blocks above
//!   level 0 to the base grid's cells, skipping blocks outside it;
//! * a node's children are visited in curve order, read from the curve's
//!   orientation state machine (`zmesh_sfc::StateTable`), and found
//!   through the links the tree decode laid out ([`AmrTree::links`]);
//! * a leaf is emitted when the walk reaches it. Under Chained grouping a
//!   refined cell is emitted just before the chain of corner (child 0)
//!   descendants that share its anchor, i.e. just before the leaf at the
//!   chain's foot. Morton visits child 0 first, so there that is
//!   pre-order; Hilbert may visit child 0 later.
//!
//! The walk reads the tree's links and nothing else: a cell is a leaf
//! exactly when its link is at most its own storage index
//! ([`zmesh_amr::TreeLinks::is_leaf`]), and the level and curve index of
//! every stream point are known when it is emitted — the level from the
//! depth, the curve index from the ranks taken on the way down followed by
//! the digits of the anchor's trailing zero bits. A writer plans its
//! chunks from these [`StreamKeys`].

use crate::ordering::{GroupingMode, OrderingPolicy};
use zmesh_amr::{AmrTree, TreeLinks, COORD_BITS};
use zmesh_sfc::StateTable;

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
        Self::walk::<false>(tree, policy, grouping).0
    }

    /// [`RestoreRecipe::build`], also handing back what the walk knows of
    /// every stream point: its level and the curve key of its anchor. A
    /// writer plans its chunks from them instead of looking every cell up
    /// again; the recipe itself keeps neither.
    pub fn build_keyed(
        tree: &AmrTree,
        policy: OrderingPolicy,
        grouping: GroupingMode,
    ) -> (Self, StreamKeys) {
        let (recipe, keys) = Self::walk::<true>(tree, policy, grouping);
        (recipe, keys.expect("a keyed walk records its keys"))
    }

    fn walk<const KEYS: bool>(
        tree: &AmrTree,
        policy: OrderingPolicy,
        grouping: GroupingMode,
    ) -> (Self, Option<StreamKeys>) {
        let n = stream_len(tree, grouping);
        let (perm, keys) = match policy.curve() {
            None => {
                let levels = KEYS.then(|| level_order_levels(tree, grouping));
                let keys = levels.map(|levels| StreamKeys {
                    curve: None,
                    levels,
                });
                ((0..n as u32).collect(), keys)
            }
            Some(curve) => {
                let dims = tree.dim().rank() as u32;
                let states = curve
                    .states(dims)
                    .expect("ordering policies walk dyadic curves");
                let mut walk = CurveWalk::<KEYS> {
                    states,
                    dims,
                    base: tree.base().map(|b| b as u32),
                    links: tree.links(),
                    chained: grouping == GroupingMode::Chained,
                    max_level: tree.max_level(),
                    path: [0; COORD_BITS as usize + 1],
                    perm: Vec::with_capacity(n),
                    keys: Vec::with_capacity(if KEYS { n } else { 0 }),
                    levels: Vec::with_capacity(if KEYS { n } else { 0 }),
                };
                // The base grid's cells sit this many levels below the
                // root of the curve's `2^finest_bits` grid.
                walk.above_base(tree.finest_bits() - tree.max_level(), [0; 3], 0, 0);
                debug_assert_eq!(walk.perm.len(), n);
                let keys = KEYS.then_some(StreamKeys {
                    curve: Some(walk.keys),
                    levels: walk.levels,
                });
                (walk.perm, keys)
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

/// What a keyed walk ([`RestoreRecipe::build_keyed`]) learns about each
/// stream point besides its storage index, in stream order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamKeys {
    /// The curve index of each point's anchor on the finest grid; `None`
    /// under level order, where no curve backs the stream.
    pub curve: Option<Vec<u64>>,
    /// The refinement level of each point.
    pub levels: Vec<u8>,
}

/// The level of every stream point under level order, where the stream is
/// storage order.
fn level_order_levels(tree: &AmrTree, grouping: GroupingMode) -> Vec<u8> {
    match grouping {
        GroupingMode::LeafOnly => tree.leaves().map(|c| c.level as u8).collect(),
        GroupingMode::Chained => tree.cells().iter().map(|c| c.level as u8).collect(),
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

/// The depth-first curve-order walk behind [`RestoreRecipe::build`], with
/// `KEYS` selecting whether it records each stream point's curve key and
/// level.
struct CurveWalk<'a, const KEYS: bool> {
    states: &'static StateTable,
    dims: u32,
    base: [u32; 3],
    links: TreeLinks<'a>,
    chained: bool,
    max_level: u32,
    /// Storage indices of the refined cells on the path to the current
    /// node, by level.
    path: [u32; COORD_BITS as usize + 1],
    perm: Vec<u32>,
    keys: Vec<u64>,
    levels: Vec<u8>,
}

impl<const KEYS: bool> CurveWalk<'_, KEYS> {
    /// Walks the block `coords`, `depth` levels above the base grid, whose
    /// walk reached it in `state` with `index`.
    fn above_base(&mut self, depth: u32, coords: [u32; 3], state: u8, index: u64) {
        if depth == 0 {
            let [x, y, z] = coords;
            let [nx, ny, _] = self.base;
            let cell = self.links.slots[(x + nx * (y + ny * z)) as usize];
            return self.enter(0, cell, state, index, 0);
        }
        for rank in 0..1 << self.dims {
            let (child, next) = self.states.child(state, rank);
            let c = [0, 1, 2].map(|a| coords[a] << 1 | (child >> a) as u32 & 1);
            // Skip blocks whose lowest base cell lies outside the grid.
            if (0..3).all(|a| c[a] << (depth - 1) < self.base[a]) {
                self.above_base(depth - 1, c, next, index << self.dims | rank as u64);
            }
        }
    }

    /// Enters the level-`level` cell `cell` (a storage index) in `state`
    /// with `index`; `top` is the level of the first cell sharing its
    /// anchor on the path.
    #[inline]
    fn enter(&mut self, level: u32, cell: u32, state: u8, index: u64, top: u32) {
        if self.links.is_leaf(cell) {
            self.emit(level, cell, state, index, top);
        } else {
            self.refined(level, cell, state, index, top);
        }
    }

    /// Visits a refined cell's children in curve order.
    fn refined(&mut self, level: u32, cell: u32, state: u8, index: u64, top: u32) {
        self.path[level as usize] = cell;
        let first = self.links.links[cell as usize] as usize;
        for rank in 0..1 << self.dims {
            let (child, next) = self.states.child(state, rank);
            let c = self.links.slots[first + child];
            // Only the corner child shares its parent's anchor.
            let top = if child == 0 { top } else { level + 1 };
            self.enter(level + 1, c, next, index << self.dims | rank as u64, top);
        }
    }

    /// Emits a leaf: under Chained grouping after the refined cells from
    /// level `top` down that share its anchor, coarse to fine.
    #[inline]
    fn emit(&mut self, level: u32, leaf: u32, state: u8, index: u64, top: u32) {
        let key = match KEYS {
            true => {
                let k = self.max_level - level;
                index << (self.dims * k) | self.states.zero_tail(state, k)
            }
            false => 0,
        };
        if self.chained {
            for l in top..level {
                self.push(self.path[l as usize], key, l);
            }
            self.push(leaf, key, level);
        } else {
            self.push(self.links.links[leaf as usize], key, level);
        }
    }

    #[inline]
    fn push(&mut self, point: u32, key: u64, level: u32) {
        self.perm.push(point);
        if KEYS {
            self.keys.push(key);
            self.levels.push(level as u8);
        }
    }
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
            // Walk the stream; whenever consecutive entries share an anchor,
            // the earlier one must be the coarser.
            for w in r.permutation().windows(2) {
                let (a, b) = (tree.cell(w[0] as usize), tree.cell(w[1] as usize));
                if tree.anchor(&a) == tree.anchor(&b) {
                    assert!(a.level < b.level, "{policy:?}: fine before coarse");
                }
            }
            // The refined level-0 cell (0,0) must be immediately followed by
            // its anchor-sharing descendants.
            let pos_root = r
                .permutation()
                .iter()
                .position(|&i| {
                    let c = tree.cell(i as usize);
                    c.level == 0 && c.coord == CellCoord::new(0, 0, 0)
                })
                .unwrap();
            let next = tree.cell(r.permutation()[pos_root + 1] as usize);
            assert_eq!(tree.anchor(&next), CellCoord::new(0, 0, 0));
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
                let a = tree.anchor(&leaves[i as usize]);
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
