//! The storage-order enumeration in `AmrTree::from_refined_with_layout`
//! against the sort-based enumeration it replaced, kept verbatim below as
//! the reference: same cells, leaf indices and level starts for every valid
//! tree, and the same `AmrError` for every invalid one.

use proptest::prelude::*;
use zmesh_amr::datasets::{self, Scale};
use zmesh_amr::{AmrError, AmrTree, Cell, CellCoord, Dim, StorageMode, COORD_BITS};

type Enumeration = (Vec<Cell>, Vec<u32>, Vec<usize>);

/// The historical enumeration: validation by binary search per refined
/// key, emit order by one comparison sort on (rank, tile, key).
fn reference(
    dim: Dim,
    base: [usize; 3],
    refined: &[Vec<u64>],
    patch_shift: u32,
    ranks: u32,
) -> Result<Enumeration, AmrError> {
    let max_level = refined.len() as u32;
    if patch_shift > COORD_BITS {
        return Err(AmrError::InvalidStructure("patch size too large"));
    }
    if ranks == 0 {
        return Err(AmrError::InvalidStructure("ranks must be positive"));
    }
    if base[0] == 0 || base[1] == 0 || base[2] == 0 {
        return Err(AmrError::InvalidStructure("zero-sized base grid"));
    }
    if dim == Dim::D2 && base[2] != 1 {
        return Err(AmrError::InvalidStructure("2-D base grid must have nz = 1"));
    }
    let finest = base.iter().map(|&b| b << max_level).max().expect("3 dims");
    if finest > 1 << COORD_BITS {
        return Err(AmrError::InvalidStructure(
            "finest grid exceeds 21-bit coords",
        ));
    }

    let mut cells: Vec<Cell> = Vec::new();
    let mut level_starts = Vec::with_capacity(refined.len() + 2);
    let mut current: Vec<u64> = {
        let mut v = Vec::with_capacity(base[0] * base[1] * base[2]);
        for z in 0..base[2] as u32 {
            for y in 0..base[1] as u32 {
                for x in 0..base[0] as u32 {
                    v.push(CellCoord::new(x, y, z).pack());
                }
            }
        }
        v
    };

    for level in 0..=max_level {
        level_starts.push(cells.len());
        let refined_here: &[u64] = if level < max_level {
            &refined[level as usize]
        } else {
            &[]
        };
        if refined_here.windows(2).any(|w| w[0] >= w[1]) {
            return Err(AmrError::InvalidStructure("refined set not sorted/unique"));
        }
        for &key in refined_here {
            if current.binary_search(&key).is_err() {
                return Err(AmrError::InvalidStructure("refined cell does not exist"));
            }
        }
        let tile_of = |key: u64| -> u64 {
            let c = CellCoord::unpack(key);
            CellCoord::new(c.x >> patch_shift, c.y >> patch_shift, c.z >> patch_shift).pack()
        };
        let mut tiles: Vec<u64> = current.iter().map(|&k| tile_of(k)).collect();
        tiles.sort_unstable();
        tiles.dedup();
        let rank_of = |tile: u64| -> u32 {
            let idx = tiles
                .binary_search(&tile)
                .expect("tile of an existing cell");
            idx as u32 % ranks
        };
        let mut emit_order = current.clone();
        emit_order.sort_unstable_by_key(|&k| {
            let tile = tile_of(k);
            (rank_of(tile), tile, k)
        });
        let mut next = Vec::with_capacity(refined_here.len() * dim.children());
        for &key in &emit_order {
            let is_refined = refined_here.binary_search(&key).is_ok();
            cells.push(Cell {
                level,
                coord: CellCoord::unpack(key),
                is_leaf: !is_refined,
            });
            if is_refined {
                let c = CellCoord::unpack(key);
                for ch in 0..dim.children() {
                    next.push(c.child(ch).pack());
                }
            }
        }
        next.sort_unstable();
        current = next;
    }
    level_starts.push(cells.len());

    let leaf_indices = cells
        .iter()
        .enumerate()
        .filter(|(_, c)| c.is_leaf)
        .map(|(i, _)| i as u32)
        .collect();
    Ok((cells, leaf_indices, level_starts))
}

fn enumeration(tree: &AmrTree) -> Enumeration {
    let starts = (0..=tree.max_level() + 1)
        .map(|l| {
            if l <= tree.max_level() {
                tree.level_start(l)
            } else {
                tree.cell_count()
            }
        })
        .collect();
    (
        tree.cells().iter().collect(),
        tree.leaf_indices().to_vec(),
        starts,
    )
}

fn build(
    dim: Dim,
    base: [usize; 3],
    refined: &[Vec<u64>],
    patch_shift: u32,
    ranks: u32,
) -> Result<Enumeration, AmrError> {
    AmrTree::from_refined_with_layout(dim, base, refined.to_vec(), patch_shift, ranks)
        .map(|t| enumeration(&t))
}

fn mix(mut h: u64) -> u64 {
    h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Valid per-level refined sets: each existing cell of a level is refined
/// with probability `density / 256`, decided by a hash of (seed, level, key).
fn random_refined(
    dim: Dim,
    base: [usize; 3],
    levels: u32,
    seed: u64,
    density: u8,
) -> Vec<Vec<u64>> {
    let mut current: Vec<u64> = Vec::new();
    for z in 0..base[2] as u32 {
        for y in 0..base[1] as u32 {
            for x in 0..base[0] as u32 {
                current.push(CellCoord::new(x, y, z).pack());
            }
        }
    }
    let mut refined = Vec::new();
    for level in 0..levels {
        let here: Vec<u64> = current
            .iter()
            .copied()
            .filter(|&k| (mix(seed ^ k ^ (u64::from(level) << 61)) >> 56) < u64::from(density))
            .collect();
        let mut next: Vec<u64> = here
            .iter()
            .flat_map(|&k| {
                let c = CellCoord::unpack(k);
                (0..dim.children()).map(move |ch| c.child(ch).pack())
            })
            .collect();
        next.sort_unstable();
        refined.push(here);
        current = next;
    }
    refined
}

fn base_for(dim: Dim, nx: usize, ny: usize, nz: usize) -> [usize; 3] {
    match dim {
        Dim::D2 => [nx, ny, 1],
        Dim::D3 => [nx, ny, nz],
    }
}

fn dims() -> impl Strategy<Value = Dim> {
    prop::sample::select(&[Dim::D2, Dim::D3][..])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn enumeration_matches_reference_on_random_trees(
        dim in dims(),
        nx in 1usize..12,
        ny in 1usize..12,
        nz in 1usize..5,
        levels in 0u32..4,
        seed in any::<u64>(),
        density in 0u8..=255,
        patch_shift in 0u32..=4,
        ranks in 1u32..=9,
    ) {
        let base = base_for(dim, nx, ny, nz);
        let refined = random_refined(dim, base, levels, seed, density);
        let want = reference(dim, base, &refined, patch_shift, ranks);
        prop_assert!(want.is_ok());
        prop_assert_eq!(build(dim, base, &refined, patch_shift, ranks), want);
    }

    #[test]
    fn mangled_refined_sets_fail_like_reference(
        dim in dims(),
        nx in 1usize..10,
        ny in 1usize..10,
        nz in 1usize..4,
        levels in 1u32..4,
        seed in any::<u64>(),
        density in 64u8..=255,
        patch_shift in 0u32..=4,
        ranks in 1u32..=9,
        mangle in 0u8..4,
        pick in any::<u64>(),
    ) {
        let base = base_for(dim, nx, ny, nz);
        let mut refined = random_refined(dim, base, levels, seed, density);
        let level = (pick % refined.len() as u64) as usize;
        let set = &mut refined[level];
        let at = (mix(pick) % (set.len() as u64 + 1)) as usize;
        match mangle {
            // Unsorted: swap two entries.
            0 if set.len() >= 2 => {
                let at = at.min(set.len() - 2);
                set.swap(at, at + 1);
            }
            // Duplicate an entry.
            1 if !set.is_empty() => {
                let at = at.min(set.len() - 1);
                set.insert(at, set[at]);
            }
            // A key outside the level's grid, kept sorted.
            2 => {
                let side = 1u32 << (level as u32 + 4);
                set.push(CellCoord::new(side + (pick as u32 % 7), 0, 0).pack());
                set.sort_unstable();
                set.dedup();
            }
            // A key inside the grid whose parent is not refined (or, at
            // level 0, any cell with a coordinate past the base grid).
            _ => {
                let key = CellCoord::new(
                    (pick as u32) % ((nx as u32) << level),
                    ((pick >> 21) as u32) % ((ny as u32 + 1) << level),
                    0,
                )
                .pack();
                set.push(key);
                set.sort_unstable();
                set.dedup();
            }
        }
        prop_assert_eq!(
            build(dim, base, &refined, patch_shift, ranks),
            reference(dim, base, &refined, patch_shift, ranks)
        );
    }
}

#[test]
fn invalid_layouts_fail_like_reference() {
    let refined = random_refined(Dim::D2, [4, 4, 1], 2, 7, 128);
    for (dim, base, patch_shift, ranks) in [
        (Dim::D2, [4, 4, 1], COORD_BITS + 1, 1),
        (Dim::D2, [4, 4, 1], 3, 0),
        (Dim::D2, [0, 4, 1], 3, 1),
        (Dim::D2, [4, 4, 2], 3, 1),
        (Dim::D2, [1 << 20, 4, 1], 3, 1),
    ] {
        let want = reference(dim, base, &refined, patch_shift, ranks);
        assert!(want.is_err());
        assert_eq!(build(dim, base, &refined, patch_shift, ranks), want);
    }
}

#[test]
fn presets_match_reference() {
    for ds in datasets::all(StorageMode::AllCells, Scale::Small) {
        let bytes = ds.tree.structure_bytes();
        let tree = AmrTree::from_structure_bytes(&bytes).unwrap();
        let refined = refined_sets(&tree);
        let want = reference(
            tree.dim(),
            tree.base(),
            &refined,
            tree.patch_size().trailing_zeros(),
            tree.ranks(),
        );
        assert_eq!(Ok(enumeration(&tree)), want, "{}", ds.name);
        assert_eq!(enumeration(&ds.tree), enumeration(&tree), "{}", ds.name);
    }
}

/// The refined sets of `tree`, recovered from its cells.
fn refined_sets(tree: &AmrTree) -> Vec<Vec<u64>> {
    (0..tree.max_level())
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
        .collect()
}
