//! Field data attached to a hierarchy, in storage order.
//!
//! Two storage conventions exist in real AMR containers, and the paper's
//! chained-tree grouping is about the difference between them:
//!
//! * [`StorageMode::LeafOnly`] — only the finest covering cell of each
//!   region carries data (valid-cell semantics, e.g. AMReX checkpoint
//!   style);
//! * [`StorageMode::AllCells`] — every existing cell carries data, so a
//!   region covered by fine cells *also* has coarse values (plotfile /
//!   FLASH style). Points on different levels then map to the same
//!   geometric coordinates — the redundancy zMesh's chained grouping turns
//!   into smoothness.

use crate::error::AmrError;
use crate::tree::AmrTree;
use rayon::prelude::*;
use std::sync::Arc;

/// Which cells of the hierarchy carry data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StorageMode {
    /// One value per leaf.
    LeafOnly,
    /// One value per existing cell (leaves and refined ancestors).
    AllCells,
}

impl StorageMode {
    /// Header tag.
    pub fn tag(&self) -> u8 {
        match self {
            StorageMode::LeafOnly => 0,
            StorageMode::AllCells => 1,
        }
    }

    /// Inverse of [`StorageMode::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(StorageMode::LeafOnly),
            1 => Some(StorageMode::AllCells),
            _ => None,
        }
    }
}

/// One scalar quantity on a hierarchy, values in storage order
/// (level-major, (z,y,x) within each level).
#[derive(Debug, Clone)]
pub struct AmrField {
    tree: Arc<AmrTree>,
    mode: StorageMode,
    values: Vec<f64>,
}

impl AmrField {
    /// Wraps existing values; the length must match the mode's cell count.
    pub fn from_values(
        tree: Arc<AmrTree>,
        mode: StorageMode,
        values: Vec<f64>,
    ) -> Result<Self, AmrError> {
        let expected = match mode {
            StorageMode::LeafOnly => tree.leaf_count(),
            StorageMode::AllCells => tree.cell_count(),
        };
        if values.len() != expected {
            return Err(AmrError::FieldLengthMismatch {
                expected,
                actual: values.len(),
            });
        }
        Ok(Self { tree, mode, values })
    }

    /// Samples `f` at every carried cell's center (in parallel).
    pub fn sample<F>(tree: Arc<AmrTree>, mode: StorageMode, f: F) -> Self
    where
        F: Fn([f64; 3]) -> f64 + Sync,
    {
        let values: Vec<f64> = match mode {
            StorageMode::LeafOnly => tree
                .leaf_indices()
                .par_iter()
                .map(|&i| f(tree.cell_center(&tree.cell(i as usize))))
                .collect(),
            StorageMode::AllCells => tree
                .packed_coords()
                .par_iter()
                .enumerate()
                .map(|(i, _)| f(tree.cell_center(&tree.cell(i))))
                .collect(),
        };
        Self { tree, mode, values }
    }

    /// Samples `f` at leaf centers, then fills every non-leaf cell with the
    /// **restriction** (mean) of its children, bottom-up — the way real
    /// plotfiles populate coarse covered cells. Only meaningful for
    /// [`StorageMode::AllCells`]; for [`StorageMode::LeafOnly`] it is
    /// equivalent to [`AmrField::sample`].
    pub fn sample_restricted<F>(tree: Arc<AmrTree>, mode: StorageMode, f: F) -> Self
    where
        F: Fn([f64; 3]) -> f64 + Sync,
    {
        if mode == StorageMode::LeafOnly {
            return Self::sample(tree, mode, f);
        }
        // Pass 1: leaf values from the sampler, placeholder elsewhere.
        let mut values: Vec<f64> = tree
            .packed_coords()
            .par_iter()
            .enumerate()
            .map(|(i, _)| {
                let c = tree.cell(i);
                if c.is_leaf {
                    f(tree.cell_center(&c))
                } else {
                    0.0
                }
            })
            .collect();
        // Pass 2: restrict bottom-up; a refined cell's link names where its
        // children, in child-bit order, sit among the slots.
        let links = tree.links();
        let n_children = tree.dim().children();
        for level in (0..tree.max_level()).rev() {
            let start = tree.level_start(level);
            let end = start + tree.level_cells(level).len();
            // Collect restricted parent values first (no aliasing), then
            // write them back.
            let updates: Vec<(usize, f64)> = links.links[start..end]
                .par_iter()
                .enumerate()
                .filter(|&(i, _)| !links.is_leaf((start + i) as u32))
                .map(|(i, &first)| {
                    let mut sum = 0.0;
                    for &child in &links.slots[first as usize..][..n_children] {
                        sum += values[child as usize];
                    }
                    (start + i, sum / n_children as f64)
                })
                .collect();
            for (idx, v) in updates {
                values[idx] = v;
            }
        }
        Self { tree, mode, values }
    }

    /// Prolongates the field onto the uniform finest-level grid: every
    /// finest cell takes the value of the leaf covering it (piecewise-
    /// constant prolongation). Returns the grid values (row-major, x
    /// fastest) and the grid dimensions.
    ///
    /// This is what the application would have stored had it not used AMR —
    /// the uniform side of the AMR-vs-uniform comparison.
    pub fn prolongate(&self) -> (Vec<f64>, [usize; 3]) {
        let tree = &self.tree;
        let dims = tree.level_dims(tree.max_level());
        let mut out = vec![0.0f64; dims[0] * dims[1] * dims[2]];
        let leaf_positions: Vec<usize> = match self.mode {
            StorageMode::LeafOnly => (0..tree.leaf_count()).collect(),
            StorageMode::AllCells => tree.leaf_indices().iter().map(|&i| i as usize).collect(),
        };
        for (leaf, &vpos) in tree.leaves().zip(&leaf_positions) {
            let v = self.values[vpos];
            let shift = tree.max_level() - leaf.level;
            let side = 1usize << shift;
            let a = tree.anchor(&leaf);
            let (ax, ay, az) = (a.x as usize, a.y as usize, a.z as usize);
            let z_extent = if dims[2] == 1 { 1 } else { side };
            for dz in 0..z_extent {
                for dy in 0..side.min(dims[1]) {
                    let row = ((az + dz) * dims[1] + ay + dy) * dims[0] + ax;
                    out[row..row + side].fill(v);
                }
            }
        }
        (out, dims)
    }

    /// The hierarchy this field lives on.
    pub fn tree(&self) -> &Arc<AmrTree> {
        &self.tree
    }

    /// Storage convention.
    pub fn mode(&self) -> StorageMode {
        self.mode
    }

    /// Values in storage order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of stored values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the field is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Consumes the field, returning its values.
    pub fn into_values(self) -> Vec<f64> {
        self.values
    }

    /// Uncompressed size in bytes (f64 values).
    pub fn nbytes(&self) -> usize {
        self.values.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{CellCoord, Dim};

    fn small_tree() -> Arc<AmrTree> {
        let l0 = vec![CellCoord::new(1, 1, 0).pack()];
        Arc::new(AmrTree::from_refined(Dim::D2, [4, 4, 1], vec![l0]).unwrap())
    }

    #[test]
    fn lengths_match_mode() {
        let t = small_tree();
        let leaf = AmrField::sample(t.clone(), StorageMode::LeafOnly, |_| 1.0);
        let all = AmrField::sample(t.clone(), StorageMode::AllCells, |_| 1.0);
        assert_eq!(leaf.len(), t.leaf_count());
        assert_eq!(all.len(), t.cell_count());
        assert!(all.len() > leaf.len());
    }

    #[test]
    fn from_values_validates_length() {
        let t = small_tree();
        assert!(AmrField::from_values(t.clone(), StorageMode::LeafOnly, vec![0.0; 3]).is_err());
        let ok = AmrField::from_values(t.clone(), StorageMode::LeafOnly, vec![0.0; t.leaf_count()]);
        assert!(ok.is_ok());
    }

    #[test]
    fn sample_order_matches_cells() {
        let t = small_tree();
        // Field value = x coordinate of center; check against direct calc.
        let f = AmrField::sample(t.clone(), StorageMode::AllCells, |p| p[0]);
        for (cell, &v) in t.cells().iter().zip(f.values()) {
            assert_eq!(v, t.cell_center(&cell)[0]);
        }
    }

    #[test]
    fn restriction_parents_average_children() {
        let t = small_tree();
        let f =
            AmrField::sample_restricted(t.clone(), StorageMode::AllCells, |p| p[0] + 2.0 * p[1]);
        // The refined level-0 cell (1,1) must hold the mean of its 4 children.
        let cells = t.cells();
        let parent_idx = cells
            .iter()
            .position(|c| c.level == 0 && c.coord == CellCoord::new(1, 1, 0))
            .unwrap();
        let child_mean: f64 = cells
            .iter()
            .enumerate()
            .filter(|(_, c)| c.level == 1)
            .map(|(i, _)| f.values()[i])
            .sum::<f64>()
            / 4.0;
        assert!((f.values()[parent_idx] - child_mean).abs() < 1e-12);
        // For a linear field, the restriction equals the center sample, so
        // restricted and plain sampling agree (midpoint rule is exact).
        let plain = AmrField::sample(t.clone(), StorageMode::AllCells, |p| p[0] + 2.0 * p[1]);
        for (a, b) in f.values().iter().zip(plain.values()) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn restriction_is_recursive_through_levels() {
        // Two levels of refinement: the level-0 parent must equal the mean
        // of its children *after* those children were themselves restricted.
        let l0 = vec![CellCoord::new(0, 0, 0).pack()];
        let l1 = vec![CellCoord::new(0, 0, 0).pack()];
        let t = Arc::new(AmrTree::from_refined(Dim::D2, [2, 2, 1], vec![l0, l1]).unwrap());
        // Field: 1 everywhere except the finest quadrant cell (0,0)@L2 = 9.
        let f = AmrField::sample_restricted(t.clone(), StorageMode::AllCells, |p| {
            if p[0] < 0.13 && p[1] < 0.13 {
                9.0
            } else {
                1.0
            }
        });
        let cells = t.cells();
        let root = cells
            .iter()
            .position(|c| c.level == 0 && c.coord == CellCoord::new(0, 0, 0))
            .unwrap();
        // L1 (0,0) = mean(9,1,1,1) = 3; root = mean(3,1,1,1) = 1.5.
        assert!(
            (f.values()[root] - 1.5).abs() < 1e-12,
            "root = {}",
            f.values()[root]
        );
    }

    #[test]
    fn restriction_leaf_only_is_plain_sampling() {
        let t = small_tree();
        let a = AmrField::sample_restricted(t.clone(), StorageMode::LeafOnly, |p| p[1]);
        let b = AmrField::sample(t, StorageMode::LeafOnly, |p| p[1]);
        assert_eq!(a.values(), b.values());
    }

    #[test]
    fn mode_tags_round_trip() {
        for m in [StorageMode::LeafOnly, StorageMode::AllCells] {
            assert_eq!(StorageMode::from_tag(m.tag()), Some(m));
        }
        assert_eq!(StorageMode::from_tag(5), None);
    }

    #[test]
    fn prolongation_covers_the_whole_grid() {
        let t = small_tree(); // 4x4 base, (1,1) refined -> finest 8x8
        for mode in [StorageMode::LeafOnly, StorageMode::AllCells] {
            let f = AmrField::sample(t.clone(), mode, |p| p[0] + 10.0 * p[1]);
            let (grid, dims) = f.prolongate();
            assert_eq!(dims, [8, 8, 1]);
            assert_eq!(grid.len(), 64);
            // Fine region (cells 2..4 in each axis at level 1 -> finest
            // coords 2..4): values match level-1 leaf centers; coarse
            // region: constant over 2x2 finest blocks.
            assert_eq!(grid[0], grid[1], "coarse leaf spans 2 finest cells");
            assert_eq!(grid[0], grid[8], "coarse leaf spans 2 finest rows");
        }
    }

    #[test]
    fn prolongation_of_uniform_tree_is_identity() {
        let t = Arc::new(AmrTree::uniform(Dim::D2, [4, 4, 1]).unwrap());
        let f = AmrField::sample(t.clone(), StorageMode::LeafOnly, |p| p[0] * p[1]);
        let (grid, dims) = f.prolongate();
        assert_eq!(dims, [4, 4, 1]);
        // Same cells, but storage order is patch-major while the grid is
        // row-major; compare by coordinate.
        for (leaf, &v) in t.leaves().zip(f.values()) {
            let idx = leaf.coord.y as usize * 4 + leaf.coord.x as usize;
            assert_eq!(grid[idx], v);
        }
    }

    #[test]
    fn prolongation_3d() {
        let l0 = vec![CellCoord::new(0, 0, 0).pack()];
        let t = Arc::new(AmrTree::from_refined(Dim::D3, [2, 2, 2], vec![l0]).unwrap());
        let f = AmrField::sample(t, StorageMode::LeafOnly, |p| p[2]);
        let (grid, dims) = f.prolongate();
        assert_eq!(dims, [4, 4, 4]);
        assert_eq!(grid.len(), 64);
        assert!(grid.iter().all(|v| v.is_finite()));
        // z increases along the grid's z axis.
        assert!(grid[0] < grid[3 * 16]);
    }

    #[test]
    fn nbytes_counts_f64() {
        let t = small_tree();
        let f = AmrField::sample(t, StorageMode::LeafOnly, |_| 0.0);
        assert_eq!(f.nbytes(), f.len() * 8);
    }
}
