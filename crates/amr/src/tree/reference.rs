//! The tree decode as it stood when [`AmrTree`] kept one [`Cell`] per
//! cell, kept as the oracle for the packed layout: the same level loop
//! fills a `Vec<Cell>` next to `slots`, `links` and `leaf_indices`, and
//! reads leafness off each cell instead of off its link. Every accessor of
//! the packed tree must agree with it — on every preset at Tiny and Small
//! scale, on random trees, and under 1-cell patches and a single rank.

use super::{planned_sizes, AmrTree, Cell, Found, Generation, Tiles};
use crate::datasets::{self, Scale};
use crate::geometry::{CellCoord, Dim};
use crate::{StorageMode, TreeBuilder};
use proptest::prelude::*;

/// What the decode laid out, one `Cell` per cell.
#[derive(Debug, PartialEq)]
struct Reference {
    cells: Vec<Cell>,
    leaf_indices: Vec<u32>,
    slots: Vec<u32>,
    links: Vec<u32>,
    level_starts: Vec<usize>,
}

/// The `Vec<Cell>` decode of `tree`'s refined sets and layout (which the
/// packed decode has already validated).
fn reference(tree: &AmrTree) -> Reference {
    let (dim, base, patch_shift, ranks) = (tree.dim, tree.base, tree.patch_shift, tree.ranks);
    let refined = &tree.refined;
    let base_cells = base.iter().map(|&b| b as u64).product();
    let (cell_count, refined_count) = planned_sizes(dim, base_cells, refined);
    let mut cells: Vec<Cell> = Vec::with_capacity(cell_count);
    let mut leaf_indices: Vec<u32> = Vec::with_capacity(cell_count - refined_count);
    let mut slots: Vec<u32> = Vec::with_capacity(cell_count);
    let mut links: Vec<u32> = Vec::with_capacity(cell_count);
    let mut level_starts = Vec::with_capacity(refined.len() + 2);
    let nch = dim.children();
    let mut tiles = Tiles::base(base, patch_shift);
    let mut parent_tiles: Vec<u32> = Vec::new();
    for level in 0..=tree.max_level {
        let start = cells.len();
        level_starts.push(start);
        let parents = level.checked_sub(1).map(|l| refined[l as usize].as_slice());
        let refined_here: &[u64] = refined.get(level as usize).map_or(&[], Vec::as_slice);
        if let Some(parents) = parents {
            tiles = tiles.children(dim, parents, &parent_tiles, patch_shift);
        }
        let generation = Generation {
            dim,
            base,
            patch_shift,
            parents,
            parent_tiles: &parent_tiles,
            tiles: &tiles,
        };
        let n = parents.map_or(base_cells as usize, |p| p.len() * nch);
        let mut found = Found::new(refined_here);
        let mut next = tiles.bucket_starts(ranks);
        let first_child = (start + n) as u32;
        let placeholder = Cell {
            level,
            coord: CellCoord::new(0, 0, 0),
            is_leaf: true,
        };
        cells.resize(start + n, placeholder);
        links.resize(start + n, 0);
        slots.resize(start + n, 0);
        let mut next_parent_tiles = Vec::with_capacity(refined_here.len());
        generation.run(|key, tile, slot| {
            let at = &mut next[tile as usize];
            let storage = start + *at as usize;
            *at += 1;
            slots[start + slot as usize] = storage as u32;
            let refined = found.check(key);
            if let Some(rank) = refined {
                links[storage] = first_child + (rank * nch) as u32;
                next_parent_tiles.push(tile);
            }
            cells[storage] = Cell {
                level,
                coord: CellCoord::unpack(key),
                is_leaf: refined.is_none(),
            };
        });
        found
            .finish()
            .expect("the packed decode validated the tree");
        for (storage, cell) in (start..).zip(&cells[start..]) {
            if cell.is_leaf {
                links[storage] = leaf_indices.len() as u32;
                leaf_indices.push(storage as u32);
            }
        }
        parent_tiles = next_parent_tiles;
    }
    level_starts.push(cells.len());
    Reference {
        cells,
        leaf_indices,
        slots,
        links,
        level_starts,
    }
}

/// Asserts that every accessor of `tree` reads what the reference decode
/// laid out.
fn assert_matches_reference(tree: &AmrTree, case: &str) {
    let want = reference(tree);
    let links = tree.links();
    assert_eq!(links.slots, &want.slots[..], "slots: {case}");
    assert_eq!(links.links, &want.links[..], "links: {case}");
    assert_eq!(tree.leaf_indices(), &want.leaf_indices[..], "{case}");
    assert_eq!(tree.level_starts, want.level_starts, "{case}");
    assert_eq!(tree.cell_count(), want.cells.len(), "{case}");
    for (i, cell) in want.cells.iter().enumerate() {
        assert_eq!(tree.cell(i), *cell, "cell {i}: {case}");
        assert_eq!(links.is_leaf(i as u32), cell.is_leaf, "cell {i}: {case}");
    }
    assert!(tree.cells().iter().eq(want.cells.iter().copied()), "{case}");
    for l in 0..=tree.max_level() {
        let range = want.level_starts[l as usize]..want.level_starts[l as usize + 1];
        let level = tree.level_cells(l);
        assert_eq!(level.len(), range.len(), "level {l}: {case}");
        assert!(
            level.iter().eq(want.cells[range].iter().copied()),
            "level {l}: {case}"
        );
    }
    let leaves = want.leaf_indices.iter().map(|&i| want.cells[i as usize]);
    assert!(tree.leaves().eq(leaves), "leaves: {case}");
}

/// `tree` under 1-cell patches and a single rank, and under its own
/// layout, each checked against the reference.
fn assert_layouts_match(tree: &AmrTree, case: &str) {
    assert_matches_reference(tree, case);
    let refined = tree.refined.clone();
    for (patch_shift, ranks) in [(0, 1), (0, tree.ranks), (tree.patch_shift, 1)] {
        let relaid = AmrTree::from_refined_with_layout(
            tree.dim,
            tree.base,
            refined.clone(),
            patch_shift,
            ranks,
        )
        .expect("same refinement, other layout");
        assert_matches_reference(
            &relaid,
            &format!("{case} patch_shift {patch_shift} ranks {ranks}"),
        );
    }
}

#[test]
fn presets_match_the_cell_array_decode() {
    for scale in [Scale::Tiny, Scale::Small] {
        for ds in datasets::all(StorageMode::AllCells, scale) {
            let decoded = AmrTree::from_structure_bytes(&ds.tree.structure_bytes()).unwrap();
            assert_layouts_match(&decoded, &format!("{} {scale:?}", ds.name));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_trees_match_the_cell_array_decode(
        three_d in any::<bool>(),
        seed in any::<u64>(),
        levels in 0u32..=12,
        density in 0u8..160,
    ) {
        let (dim, base) = match three_d {
            false => (Dim::D2, [7, 5, 1]),
            true => (Dim::D3, [3, 4, 2]),
        };
        // Hash refinement on the top levels, and a chain of cells around a
        // seeded focus down to the deepest level (past the eight levels
        // `AmrTree::level_of` keeps in its fixed array).
        let focus = [0.3, 0.6, 0.45].map(|f| f + (seed % 97) as f64 / 400.0);
        let tree = TreeBuilder::new(dim, base, levels)
            .refine_where(|level, center, half| {
                if (0..3).all(|a| half[a] == 0.0 || (center[a] - focus[a]).abs() <= 2.0 * half[a]) {
                    return true;
                }
                if level >= 4 {
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
            .expect("hash refinement is structurally valid");
        prop_assert!(!tree.level_cells(levels).is_empty(), "the chain reaches the deepest level");
        assert_layouts_match(&tree, &format!("{dim:?} seed {seed} levels {levels}"));
    }
}
