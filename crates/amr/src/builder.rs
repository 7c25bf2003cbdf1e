//! Building hierarchies from refinement criteria (the "regrid" step of an
//! AMR code): starting from the base grid, every leaf that the criterion
//! flags is refined, level by level, until `max_level` is reached.

use crate::error::AmrError;
use crate::geometry::{CellCoord, Dim, COORD_BITS};
use crate::tree::AmrTree;

/// Incremental tree builder.
///
/// ```
/// use zmesh_amr::{Dim, TreeBuilder};
///
/// // Refine toward the domain center.
/// let tree = TreeBuilder::new(Dim::D2, [8, 8, 1], 3)
///     .refine_where(|_, center, _| {
///         let dx = center[0] - 0.5;
///         let dy = center[1] - 0.5;
///         (dx * dx + dy * dy).sqrt() < 0.2
///     })
///     .build()
///     .unwrap();
/// assert!(tree.max_level() == 3);
/// assert!(tree.leaf_count() > 64);
/// ```
pub struct TreeBuilder {
    dim: Dim,
    base: [usize; 3],
    max_level: u32,
    /// Per-level sorted refined sets being accumulated.
    refined: Vec<Vec<u64>>,
}

impl TreeBuilder {
    /// Starts a builder for a `base`-sized level-0 grid with up to
    /// `max_level` levels of refinement.
    ///
    /// # Panics
    /// Panics if the finest grid would exceed the 21-bit coordinate limit.
    pub fn new(dim: Dim, base: [usize; 3], max_level: u32) -> Self {
        let finest = base.iter().map(|&b| b << max_level).max().expect("3 dims");
        assert!(
            finest <= 1 << COORD_BITS,
            "finest grid {finest} exceeds 21-bit coordinates"
        );
        Self {
            dim,
            base,
            max_level,
            refined: Vec::new(),
        }
    }

    /// Refines every leaf for which `criterion(level, center, halfwidth)`
    /// returns true, sweeping levels 0 .. `max_level`. `center` and
    /// `halfwidth` are in the unit domain.
    pub fn refine_where<F>(mut self, criterion: F) -> Self
    where
        F: Fn(u32, [f64; 3], [f64; 3]) -> bool,
    {
        let mut current: Vec<u64> = {
            let mut v = Vec::with_capacity(self.base[0] * self.base[1] * self.base[2]);
            for z in 0..self.base[2] as u32 {
                for y in 0..self.base[1] as u32 {
                    for x in 0..self.base[0] as u32 {
                        v.push(CellCoord::new(x, y, z).pack());
                    }
                }
            }
            v
        };
        self.refined.clear();
        for level in 0..self.max_level {
            let dims = {
                let s = level as usize;
                [
                    self.base[0] << s,
                    self.base[1] << s,
                    if self.dim == Dim::D2 {
                        1
                    } else {
                        self.base[2] << s
                    },
                ]
            };
            let hw = [
                0.5 / dims[0] as f64,
                0.5 / dims[1] as f64,
                if self.dim == Dim::D2 {
                    0.0
                } else {
                    0.5 / dims[2] as f64
                },
            ];
            let mut refined_here = Vec::new();
            let mut next = Vec::new();
            for &key in &current {
                let c = CellCoord::unpack(key);
                let center = [
                    (f64::from(c.x) + 0.5) / dims[0] as f64,
                    (f64::from(c.y) + 0.5) / dims[1] as f64,
                    if self.dim == Dim::D2 {
                        0.0
                    } else {
                        (f64::from(c.z) + 0.5) / dims[2] as f64
                    },
                ];
                if criterion(level, center, hw) {
                    refined_here.push(key);
                    for ch in 0..self.dim.children() {
                        next.push(c.child(ch).pack());
                    }
                }
            }
            next.sort_unstable();
            self.refined.push(refined_here);
            current = next;
            if current.is_empty() {
                break;
            }
        }
        // Trim trailing empty levels so max_level reflects actual depth.
        while self.refined.last().is_some_and(Vec::is_empty) {
            self.refined.pop();
        }
        self
    }

    /// Finalizes the tree.
    pub fn build(self) -> Result<AmrTree, AmrError> {
        AmrTree::from_refined(self.dim, self.base, self.refined)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refine_nothing_gives_uniform() {
        let t = TreeBuilder::new(Dim::D2, [4, 4, 1], 3)
            .refine_where(|_, _, _| false)
            .build()
            .unwrap();
        assert_eq!(t.max_level(), 0);
        assert_eq!(t.leaf_count(), 16);
    }

    #[test]
    fn refine_everything_gives_full_tree() {
        let t = TreeBuilder::new(Dim::D2, [2, 2, 1], 2)
            .refine_where(|_, _, _| true)
            .build()
            .unwrap();
        // Levels: 4 + 16 + 64 cells; leaves only at the deepest level.
        assert_eq!(t.cell_count(), 84);
        assert_eq!(t.leaf_count(), 64);
    }

    #[test]
    fn localized_refinement_is_localized() {
        let t = TreeBuilder::new(Dim::D2, [8, 8, 1], 2)
            .refine_where(|_, center, _| center[0] < 0.25 && center[1] < 0.25)
            .build()
            .unwrap();
        // Only the lower-left corner is deep.
        for leaf in t.leaves() {
            if leaf.level == 2 {
                let c = t.cell_center(&leaf);
                assert!(
                    c[0] < 0.25 && c[1] < 0.25,
                    "deep leaf outside region: {c:?}"
                );
            }
        }
        assert!(t.leaf_count() > 64);
    }

    #[test]
    fn leaves_always_tile_after_building() {
        let t = TreeBuilder::new(Dim::D3, [2, 3, 2], 2)
            .refine_where(|level, center, _| level == 0 && center[0] > 0.5)
            .build()
            .unwrap();
        let total: u64 = t
            .leaves()
            .map(|c| 1u64 << (3 * (t.max_level() - c.level)))
            .sum();
        let f = t.level_dims(t.max_level());
        assert_eq!(total, (f[0] * f[1] * f[2]) as u64);
    }

    #[test]
    fn level_dependent_criterion() {
        // Refine only at level 0: depth stops at 1.
        let t = TreeBuilder::new(Dim::D2, [4, 4, 1], 5)
            .refine_where(|level, _, _| level == 0)
            .build()
            .unwrap();
        assert_eq!(t.max_level(), 1);
    }
}
