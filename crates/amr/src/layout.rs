//! Alternative file layouts for the baseline-sensitivity ablation.
//!
//! zMesh's measured gain depends on what the *baseline* layout looks like.
//! Real containers differ: FLASH stores fixed-size blocks, AMReX stores
//! Berger–Rigoutsos boxes, writers interleave by rank, and nothing
//! guarantees a global spatial sort. This module produces the permutation
//! that re-orders a field's canonical storage order into each of these
//! simulated layouts, so the evaluation can measure how the zMesh advantage
//! moves with the baseline (experiment A11).

use crate::clustering::{cluster, BrConfig};
use crate::field::StorageMode;
use crate::geometry::CellCoord;
use crate::tree::{AmrTree, Cell};

/// A simulated on-disk layout for AMR level data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FileLayout {
    /// One global (z,y,x) sweep per level — the strongest (least realistic)
    /// baseline.
    RowMajor,
    /// Fixed `2^shift`-sided tiles in (z,y,x) tile order (FLASH-like,
    /// single writer).
    Tiles {
        /// log2 of the tile side.
        shift: u32,
    },
    /// Fixed tiles assigned round-robin to `ranks` writers, rank-major in
    /// the file — the workspace's default storage layout.
    TilesRanked {
        /// log2 of the tile side.
        shift: u32,
        /// Number of writers.
        ranks: u32,
    },
    /// Berger–Rigoutsos boxes in creation order, row-major within each box
    /// (AMReX-like).
    BrBoxes {
        /// Minimum box fill efficiency.
        min_efficiency: f64,
    },
}

impl FileLayout {
    /// Short label for harness output.
    pub fn label(&self) -> String {
        match self {
            FileLayout::RowMajor => "rowmajor".into(),
            FileLayout::Tiles { shift } => format!("tiles{}", 1u32 << shift),
            FileLayout::TilesRanked { shift, ranks } => {
                format!("tiles{}x{}ranks", 1u32 << shift, ranks)
            }
            FileLayout::BrBoxes { .. } => "br-boxes".into(),
        }
    }
}

/// Computes `order` such that `stream[i] = values[order[i]]` re-orders a
/// field (`values` in the tree's canonical storage order for `mode`) into
/// `layout`. Entries index the field's value array: `0..leaf_count` for
/// [`StorageMode::LeafOnly`], `0..cell_count` for [`StorageMode::AllCells`].
pub fn storage_permutation(tree: &AmrTree, mode: StorageMode, layout: FileLayout) -> Vec<u32> {
    // Cell of the value at each canonical position.
    let cell_at: Vec<Cell> = match mode {
        StorageMode::LeafOnly => tree.leaves().collect(),
        StorageMode::AllCells => tree.cells().iter().collect(),
    };
    // Sort key per value position: (level, layout-specific key).
    let mut keyed: Vec<(u64, u128, u32)> = Vec::with_capacity(cell_at.len());
    match layout {
        FileLayout::RowMajor => {
            for (pos, c) in cell_at.iter().enumerate() {
                keyed.push((u64::from(c.level), u128::from(c.coord.pack()), pos as u32));
            }
        }
        FileLayout::Tiles { shift } => {
            for (pos, c) in cell_at.iter().enumerate() {
                keyed.push((
                    u64::from(c.level),
                    tile_key(c.coord, shift, None),
                    pos as u32,
                ));
            }
        }
        FileLayout::TilesRanked { shift, ranks } => {
            // Rank of a tile = its index in the sorted per-level tile list,
            // modulo ranks (matching the tree's native assignment).
            for level in 0..=tree.max_level() {
                let cells = relevant_level_cells(tree, mode, level);
                let mut tiles: Vec<u64> =
                    cells.iter().map(|(_, c)| tile_of(c.coord, shift)).collect();
                tiles.sort_unstable();
                tiles.dedup();
                for (pos, c) in &cells {
                    let tile = tile_of(c.coord, shift);
                    let rank = tiles.binary_search(&tile).expect("tile exists") as u32 % ranks;
                    keyed.push((u64::from(level), tile_key(c.coord, shift, Some(rank)), *pos));
                }
            }
        }
        FileLayout::BrBoxes { min_efficiency } => {
            let config = BrConfig {
                min_efficiency,
                ..BrConfig::default()
            };
            for level in 0..=tree.max_level() {
                let cells = relevant_level_cells(tree, mode, level);
                let tags: Vec<CellCoord> = cells.iter().map(|(_, c)| c.coord).collect();
                let boxes = cluster(&tags, tree.dim(), &config);
                for (pos, c) in &cells {
                    let box_idx = boxes
                        .iter()
                        .position(|b| b.contains(c.coord))
                        .expect("BR boxes cover all tags")
                        as u128;
                    keyed.push((
                        u64::from(level),
                        (box_idx << 64) | u128::from(c.coord.pack()),
                        *pos,
                    ));
                }
            }
        }
    }
    keyed.sort_unstable_by_key(|&(l, k, _)| (l, k));
    keyed.iter().map(|&(_, _, pos)| pos).collect()
}

fn relevant_level_cells(tree: &AmrTree, mode: StorageMode, level: u32) -> Vec<(u32, Cell)> {
    // (position in the *canonical participating order*, cell).
    match mode {
        StorageMode::LeafOnly => tree
            .leaves()
            .enumerate()
            .filter(|(_, c)| c.level == level)
            .map(|(pos, c)| (pos as u32, c))
            .collect(),
        StorageMode::AllCells => {
            let start = tree.level_start(level);
            tree.level_cells(level)
                .iter()
                .enumerate()
                .map(|(i, c)| ((start + i) as u32, c))
                .collect()
        }
    }
}

fn tile_of(c: CellCoord, shift: u32) -> u64 {
    CellCoord::new(c.x >> shift, c.y >> shift, c.z >> shift).pack()
}

fn tile_key(c: CellCoord, shift: u32, rank: Option<u32>) -> u128 {
    let rank = u128::from(rank.unwrap_or(0));
    (rank << 120) | (u128::from(tile_of(c, shift)) << 64) | u128::from(c.pack())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Dim;

    fn sample_tree() -> AmrTree {
        let l0: Vec<u64> = (0..8)
            .map(|i| CellCoord::new(i % 4, i / 4 + 4, 0).pack())
            .collect();
        let mut l0 = l0;
        l0.sort_unstable();
        AmrTree::from_refined(Dim::D2, [16, 16, 1], vec![l0]).unwrap()
    }

    const LAYOUTS: [FileLayout; 4] = [
        FileLayout::RowMajor,
        FileLayout::Tiles { shift: 2 },
        FileLayout::TilesRanked { shift: 2, ranks: 4 },
        FileLayout::BrBoxes {
            min_efficiency: 0.7,
        },
    ];

    #[test]
    fn permutations_are_bijections() {
        let tree = sample_tree();
        for mode in [StorageMode::LeafOnly, StorageMode::AllCells] {
            let n = match mode {
                StorageMode::LeafOnly => tree.leaf_count(),
                StorageMode::AllCells => tree.cell_count(),
            };
            for layout in LAYOUTS {
                let order = storage_permutation(&tree, mode, layout);
                assert_eq!(order.len(), n, "{layout:?}");
                let mut seen = vec![false; n];
                for &i in &order {
                    assert!(!seen[i as usize], "{layout:?}: duplicate");
                    seen[i as usize] = true;
                }
            }
        }
    }

    #[test]
    fn layouts_are_level_major() {
        let tree = sample_tree();
        for layout in LAYOUTS {
            let order = storage_permutation(&tree, StorageMode::AllCells, layout);
            let mut prev_level = 0;
            for &i in &order {
                let level = tree.cell(i as usize).level;
                assert!(level >= prev_level, "{layout:?}: level order violated");
                prev_level = level;
            }
        }
    }

    #[test]
    fn row_major_layout_matches_zyx() {
        let tree = sample_tree();
        let order = storage_permutation(&tree, StorageMode::AllCells, FileLayout::RowMajor);
        let mut prev: Option<(u32, u64)> = None;
        for &i in &order {
            let c = tree.cell(i as usize);
            let key = (c.level, c.coord.pack());
            if let Some(p) = prev {
                assert!(p < key);
            }
            prev = Some(key);
        }
    }

    #[test]
    fn native_order_equals_tiles_ranked_default() {
        // The tree's own storage order is tiles(8) x ranks(default).
        let tree = sample_tree();
        let order = storage_permutation(
            &tree,
            StorageMode::AllCells,
            FileLayout::TilesRanked {
                shift: 3,
                ranks: tree.ranks(),
            },
        );
        let identity: Vec<u32> = (0..tree.cell_count() as u32).collect();
        assert_eq!(order, identity);
    }

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::HashSet<String> = LAYOUTS.iter().map(|l| l.label()).collect();
        assert_eq!(labels.len(), LAYOUTS.len());
    }
}
