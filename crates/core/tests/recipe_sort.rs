//! `RestoreRecipe::build` walks the refinement tree depth-first in curve
//! order. The indirect comparison sort it descends from — an index array
//! sorted through a `(curve index, level)` lookup — is kept verbatim below
//! as the reference: the permutation must be identical for every policy
//! and grouping, on random trees up to 18 levels deep with storage tiles
//! of 1–16 cells a side, and on every preset.

use proptest::prelude::*;
use rayon::prelude::*;
use zmesh::{GroupingMode, OrderingPolicy, RestoreRecipe};
use zmesh_amr::datasets::{self, Scale};
use zmesh_amr::{AmrTree, Cell, Dim, StorageMode, TreeBuilder};
use zmesh_sfc::Curve;

fn reference(tree: &AmrTree, policy: OrderingPolicy, grouping: GroupingMode) -> Vec<u32> {
    let n = match grouping {
        GroupingMode::LeafOnly => tree.leaf_count(),
        GroupingMode::Chained => tree.cell_count(),
    };
    let mut perm: Vec<u32> = (0..n as u32).collect();

    if let Some(curve) = policy.curve() {
        let bits = tree.finest_bits();
        let dim = tree.dim();
        let key = |cell: &Cell| -> (u64, u32) {
            let a = tree.anchor(cell);
            let idx = match dim {
                Dim::D2 => curve.index_2d(u64::from(a.x), u64::from(a.y), bits),
                Dim::D3 => curve.index_3d(u64::from(a.x), u64::from(a.y), u64::from(a.z), bits),
            };
            (idx, cell.level)
        };
        let keys: Vec<(u64, u32)> = match grouping {
            GroupingMode::LeafOnly => tree
                .leaf_indices()
                .par_iter()
                .map(|&i| key(&tree.cell(i as usize)))
                .collect(),
            GroupingMode::Chained => tree
                .packed_coords()
                .par_iter()
                .enumerate()
                .map(|(i, _)| key(&tree.cell(i)))
                .collect(),
        };
        perm.par_sort_unstable_by_key(|&i| keys[i as usize]);
    }
    perm
}

/// A random tree under a random storage layout: refinement by a hash of
/// (seed, level, cell center) on levels 0–2, plus a chain of cells around a
/// seeded focus point down to the deepest level (so a tree up to 18 levels
/// deep stays small), then rebuilt with `patch_shift` and `ranks`.
fn random_tree(
    dim: Dim,
    seed: u64,
    levels: u32,
    density: u8,
    patch_shift: u32,
    ranks: u32,
) -> AmrTree {
    let base = match dim {
        Dim::D2 => [6, 5, 1],
        Dim::D3 => [3, 2, 3],
    };
    let tree = TreeBuilder::new(dim, base, levels)
        .refine_where(|level, center, half| {
            let focus = [0.3, 0.6, 0.45].map(|f| f + (seed % 97) as f64 / 400.0);
            if (0..3).all(|a| half[a] == 0.0 || (center[a] - focus[a]).abs() <= 3.0 * half[a]) {
                return true;
            }
            if level >= 3 {
                return false;
            }
            let h = seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add((center[0] * 1e6) as u64)
                .wrapping_add(((center[1] * 1e6) as u64) << 20)
                .wrapping_add(((center[2] * 1e6) as u64) << 40)
                .wrapping_add(u64::from(level) << 60);
            let h = (h ^ (h >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            (h >> 56) as u8 <= density
        })
        .build()
        .expect("random refinement sets are structurally valid");
    let refined = (0..tree.max_level())
        .map(|l| {
            let mut set: Vec<u64> = tree
                .level_cells(l)
                .iter()
                .filter(|c| !c.is_leaf)
                .map(|c| c.coord.pack())
                .collect();
            set.sort_unstable();
            set
        })
        .collect();
    AmrTree::from_refined_with_layout(dim, base, refined, patch_shift, ranks)
        .expect("same refinement, other layout")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn recipe_matches_indirect_sort_reference(
        dim in prop::sample::select(&[Dim::D2, Dim::D3][..]),
        seed in any::<u64>(),
        levels in 0u32..=18,
        density in 0u8..200,
        patch_shift in 0u32..=4,
        ranks in 1u32..=9,
    ) {
        let tree = random_tree(dim, seed, levels, density, patch_shift, ranks);
        prop_assert!(!tree.level_cells(levels).is_empty(), "focus chain reaches the deepest level");
        for policy in OrderingPolicy::ALL {
            for grouping in [GroupingMode::LeafOnly, GroupingMode::Chained] {
                let recipe = RestoreRecipe::build(&tree, policy, grouping);
                prop_assert_eq!(
                    recipe.permutation(),
                    &reference(&tree, policy, grouping)[..],
                    "{:?} {:?}", policy, grouping
                );
            }
        }
    }
}

#[test]
fn presets_match_reference() {
    for ds in datasets::all(StorageMode::AllCells, Scale::Small) {
        let tree = &ds.tree;
        for policy in OrderingPolicy::ALL {
            for grouping in [GroupingMode::LeafOnly, GroupingMode::Chained] {
                let case = format!("{} {policy:?} {grouping:?}", ds.name);
                let (recipe, keys) = RestoreRecipe::build_keyed(tree, policy, grouping);
                let want = reference(tree, policy, grouping);
                assert_eq!(recipe.permutation(), &want[..], "{case}");
                assert_eq!(
                    RestoreRecipe::build(tree, policy, grouping),
                    recipe,
                    "{case}"
                );
                // The walk's levels are each stream point's level, its keys
                // the curve index of each point's anchor.
                let cell_of = |storage: u32| match grouping {
                    GroupingMode::LeafOnly => {
                        tree.cell(tree.leaf_indices()[storage as usize] as usize)
                    }
                    GroupingMode::Chained => tree.cell(storage as usize),
                };
                let levels: Vec<u8> = recipe
                    .permutation()
                    .iter()
                    .map(|&s| cell_of(s).level as u8)
                    .collect();
                assert_eq!(keys.levels, levels, "{case}");
                let Some(curve) = policy.curve() else {
                    assert!(keys.curve.is_none(), "{case}");
                    continue;
                };
                let bits = tree.finest_bits();
                let keys = keys.curve.expect("curve policies hand out keys");
                for (&key, &storage) in keys.iter().zip(recipe.permutation()) {
                    let a = tree.anchor(&cell_of(storage));
                    let (x, y, z) = (u64::from(a.x), u64::from(a.y), u64::from(a.z));
                    let want = match tree.dim() {
                        Dim::D2 => curve.index_2d(x, y, bits),
                        Dim::D3 => curve.index_3d(x, y, z, bits),
                    };
                    assert_eq!(key, want, "{case}");
                }
            }
        }
    }
}
