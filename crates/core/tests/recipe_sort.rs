//! `RestoreRecipe::build` sorts (curve index, level, storage index)
//! triples directly. The indirect sort it replaced — an index array sorted
//! through a `keys[i]` lookup — is kept verbatim below as the reference:
//! the permutation must be identical for every policy and grouping.

use proptest::prelude::*;
use rayon::prelude::*;
use zmesh::{GroupingMode, OrderingPolicy, RestoreRecipe};
use zmesh_amr::{AmrTree, Cell, Dim, TreeBuilder};
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
                .map(|&i| key(&tree.cells()[i as usize]))
                .collect(),
            GroupingMode::Chained => tree.cells().par_iter().map(key).collect(),
        };
        perm.par_sort_unstable_by_key(|&i| keys[i as usize]);
    }
    perm
}

/// A random tree under a random storage layout: refinement by a hash of
/// (seed, level, cell center), then rebuilt with `patch_shift` and `ranks`.
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
        .refine_where(|level, center, _| {
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
        levels in 0u32..4,
        density in 0u8..200,
        patch_shift in 0u32..=4,
        ranks in 1u32..=9,
    ) {
        let tree = random_tree(dim, seed, levels, density, patch_shift, ranks);
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
