//! Property tests for the zMesh core on randomly generated refinement trees.

use proptest::prelude::*;
use std::sync::Arc;
use zmesh::{linearize, restore, GroupingMode, OrderingPolicy, RestoreRecipe};
use zmesh_amr::{AmrField, AmrTree, Dim, StorageMode, TreeBuilder};

/// A random tree: refinement decided by hashing cell coordinates with a seed.
fn random_tree(dim: Dim, seed: u64, levels: u32, density: u8) -> Arc<AmrTree> {
    let base = match dim {
        Dim::D2 => [4, 4, 1],
        Dim::D3 => [2, 2, 2],
    };
    Arc::new(
        TreeBuilder::new(dim, base, levels)
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
            .expect("random refinement sets are structurally valid"),
    )
}

fn random_field(tree: &Arc<AmrTree>, mode: StorageMode, seed: u64) -> AmrField {
    AmrField::sample(Arc::clone(tree), mode, move |p| {
        (p[0] * 7.3 + seed as f64 * 0.01).sin() * (p[1] * 5.1).cos() + p[2]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn recipes_are_permutations_on_random_trees(
        seed in any::<u64>(),
        levels in 1u32..4,
        density in 30u8..160,
        dim in prop::sample::select(&[Dim::D2, Dim::D3][..])
    ) {
        let tree = random_tree(dim, seed, levels, density);
        for policy in OrderingPolicy::ALL {
            for grouping in [GroupingMode::LeafOnly, GroupingMode::Chained] {
                let r = RestoreRecipe::build(&tree, policy, grouping);
                let mut seen = vec![false; r.len()];
                for &i in r.permutation() {
                    prop_assert!(!seen[i as usize]);
                    seen[i as usize] = true;
                }
                prop_assert!(seen.iter().all(|&s| s));
            }
        }
    }

    #[test]
    fn linearize_restore_identity_on_random_trees(
        seed in any::<u64>(),
        levels in 1u32..4,
        density in 30u8..160,
        dim in prop::sample::select(&[Dim::D2, Dim::D3][..])
    ) {
        let tree = random_tree(dim, seed, levels, density);
        for mode in [StorageMode::LeafOnly, StorageMode::AllCells] {
            let field = random_field(&tree, mode, seed);
            for policy in OrderingPolicy::ALL {
                let (stream, recipe) = linearize(&field, policy);
                prop_assert_eq!(restore(&stream, &recipe), field.values());
            }
        }
    }

    #[test]
    fn recipe_survives_metadata_round_trip(
        seed in any::<u64>(),
        levels in 1u32..4,
        density in 30u8..160
    ) {
        let tree = random_tree(Dim::D2, seed, levels, density);
        let rebuilt = Arc::new(AmrTree::from_structure_bytes(&tree.structure_bytes()).unwrap());
        for policy in OrderingPolicy::ALL {
            let a = RestoreRecipe::build(&tree, policy, GroupingMode::Chained);
            let b = RestoreRecipe::build(&rebuilt, policy, GroupingMode::Chained);
            prop_assert_eq!(a.permutation(), b.permutation());
        }
    }
}
