//! Refinement criteria: the rules an AMR code uses to decide where to
//! regrid. All criteria operate on a [`FieldFn`] sampled at cell centers.

use crate::analytic::FieldFn;

/// A refinement rule usable with
/// [`TreeBuilder::refine_where`](crate::TreeBuilder::refine_where).
#[derive(Clone)]
pub enum RefineCriterion {
    /// Refine where the estimated gradient magnitude times the cell width
    /// exceeds `threshold` (the standard Richardson-style indicator).
    Gradient {
        /// Field driving refinement.
        field: FieldFn,
        /// Per-cell variation threshold.
        threshold: f64,
    },
    /// Refine where the field value falls inside `[lo, hi]` (feature-band
    /// tracking, e.g. follow a shock shell).
    Band {
        /// Field driving refinement.
        field: FieldFn,
        /// Lower band edge.
        lo: f64,
        /// Upper band edge.
        hi: f64,
    },
    /// Refine inside a sphere (geometric region tracking).
    Sphere {
        /// Sphere center in the unit domain.
        center: [f64; 3],
        /// Sphere radius.
        radius: f64,
    },
}

impl RefineCriterion {
    /// Gradient indicator.
    pub fn gradient(field: FieldFn, threshold: f64) -> Self {
        RefineCriterion::Gradient { field, threshold }
    }

    /// Value-band indicator.
    pub fn band(field: FieldFn, lo: f64, hi: f64) -> Self {
        RefineCriterion::Band { field, lo, hi }
    }

    /// Geometric sphere indicator.
    pub fn sphere(center: [f64; 3], radius: f64) -> Self {
        RefineCriterion::Sphere { center, radius }
    }

    /// Evaluates the criterion for a cell at `center` with `halfwidth`.
    pub fn should_refine(&self, _level: u32, center: [f64; 3], hw: [f64; 3]) -> bool {
        match self {
            RefineCriterion::Gradient { field, threshold } => {
                // Central differences at the cell scale: the per-cell
                // variation estimate |∂f/∂x| * h summed over axes.
                let f = field;
                let mut variation = 0.0;
                for axis in 0..3 {
                    if hw[axis] == 0.0 {
                        continue;
                    }
                    let mut lo_p = center;
                    let mut hi_p = center;
                    lo_p[axis] -= hw[axis];
                    hi_p[axis] += hw[axis];
                    variation += (f(hi_p) - f(lo_p)).abs();
                }
                variation > *threshold
            }
            RefineCriterion::Band { field, lo, hi } => {
                // Compact features (halos, shells) can hide between cell
                // centers of coarse levels, so probe a 3^d lattice inside
                // the cell and trigger on any in-band sample.
                let offsets = [-2.0 / 3.0, 0.0, 2.0 / 3.0];
                for &oz in if hw[2] > 0.0 {
                    &offsets[..]
                } else {
                    &offsets[1..2]
                } {
                    for &oy in &offsets {
                        for &ox in &offsets {
                            let p = [
                                center[0] + ox * hw[0],
                                center[1] + oy * hw[1],
                                center[2] + oz * hw[2],
                            ];
                            let v = field(p);
                            if v >= *lo && v <= *hi {
                                return true;
                            }
                        }
                    }
                }
                false
            }
            RefineCriterion::Sphere { center: c, radius } => {
                let d2 = (0..3)
                    .map(|a| (center[a] - c[a]) * (center[a] - c[a]))
                    .sum::<f64>();
                d2.sqrt() <= *radius
            }
        }
    }

    /// Adapts the criterion into the closure shape `TreeBuilder` expects.
    pub fn as_fn(&self) -> impl Fn(u32, [f64; 3], [f64; 3]) -> bool + '_ {
        move |level, center, hw| self.should_refine(level, center, hw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::analytic;
    use crate::{Dim, TreeBuilder};

    #[test]
    fn gradient_criterion_tracks_the_front() {
        let field = analytic::tanh_front(1, 0.02);
        let crit = RefineCriterion::gradient(field.clone(), 0.05);
        let tree = TreeBuilder::new(Dim::D2, [16, 16, 1], 3)
            .refine_where(crit.as_fn())
            .build()
            .unwrap();
        assert_eq!(tree.max_level(), 3);
        // Deep leaves concentrate where the front is: the bulk of them sit
        // in the transition band, none in the truly flat far field.
        let deep: Vec<f64> = tree
            .leaves()
            .filter(|c| c.level == 3)
            .map(|leaf| field(tree.cell_center(&leaf)).abs())
            .collect();
        assert!(!deep.is_empty());
        let in_band = deep.iter().filter(|v| **v < 0.99).count();
        assert!(
            in_band * 2 > deep.len(),
            "only {in_band}/{} deep leaves in the front band",
            deep.len()
        );
        assert!(
            deep.iter().all(|v| *v < 1.0 - 1e-9),
            "deep leaf in flat far field"
        );
        // And the tree must be much smaller than the uniform equivalent.
        assert!(tree.leaf_count() < 128 * 128 / 2);
    }

    #[test]
    fn band_criterion_selects_values() {
        let field = analytic::blast_shell(0.3, 0.02);
        let crit = RefineCriterion::band(field, 2.0, f64::INFINITY);
        assert!(crit.should_refine(0, [0.8, 0.5, 0.0], [0.1, 0.1, 0.0])); // on shell
        assert!(!crit.should_refine(0, [0.95, 0.95, 0.0], [0.1, 0.1, 0.0])); // far corner
    }

    #[test]
    fn sphere_criterion_is_geometric() {
        let crit = RefineCriterion::sphere([0.5, 0.5, 0.0], 0.1);
        assert!(crit.should_refine(0, [0.55, 0.5, 0.0], [0.0; 3]));
        assert!(!crit.should_refine(0, [0.7, 0.5, 0.0], [0.0; 3]));
    }

    #[test]
    fn flat_field_never_refines() {
        let field: analytic::FieldFn = std::sync::Arc::new(|_| 1.0);
        let crit = RefineCriterion::gradient(field, 1e-9);
        let tree = TreeBuilder::new(Dim::D2, [8, 8, 1], 4)
            .refine_where(crit.as_fn())
            .build()
            .unwrap();
        assert_eq!(tree.max_level(), 0);
    }
}
