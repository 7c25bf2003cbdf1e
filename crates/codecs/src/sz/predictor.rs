//! Stream predictors for the SZ-style codec.
//!
//! All predictors run on *reconstructed* values so the encoder and decoder
//! agree bit-for-bit. At the start of the stream, higher-order predictors
//! gracefully degrade (quadratic → linear → last-value → 0) until enough
//! history exists.

/// Rolling window of the last three reconstructed values (shared with
/// the predict + quantize kernel).
pub use zmesh_kernels::sz::History;

/// The three SZ "curve-fitting" predictors along the 1-D stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Predictor {
    /// `x̂ = x[-1]` (1-D Lorenzo).
    Last,
    /// `x̂ = 2 x[-1] - x[-2]`.
    Linear,
    /// `x̂ = 3 x[-1] - 3 x[-2] + x[-3]`.
    Quadratic,
}

impl Predictor {
    /// All predictors, in selection order.
    pub const ALL: [Predictor; 3] = [Predictor::Last, Predictor::Linear, Predictor::Quadratic];

    /// Stream tag.
    pub fn tag(&self) -> u8 {
        match self {
            Predictor::Last => 0,
            Predictor::Linear => 1,
            Predictor::Quadratic => 2,
        }
    }

    /// Inverse of [`Predictor::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(Predictor::Last),
            1 => Some(Predictor::Linear),
            2 => Some(Predictor::Quadratic),
            _ => None,
        }
    }

    /// Predicts the next value from reconstructed history, degrading
    /// gracefully when fewer than the required samples exist.
    #[inline]
    pub fn predict(&self, h: &History) -> f64 {
        zmesh_kernels::sz::predict(self.order(), h)
    }

    /// Polynomial order: the number of history values the full stencil
    /// reads (1, 2 or 3).
    #[inline]
    pub fn order(&self) -> usize {
        match self {
            Predictor::Last => 1,
            Predictor::Linear => 2,
            Predictor::Quadratic => 3,
        }
    }

    /// Selects the predictor with the smallest total absolute residual over
    /// `block`, seeding history with `seed` (the reconstruction state at the
    /// chunk boundary). Selection uses the original values as a stand-in for
    /// reconstructed ones — the standard SZ approximation; correctness never
    /// depends on the choice, only ratio does.
    ///
    /// `eb` is used to short-circuit: residuals below the bound are free.
    ///
    /// The three trial passes have no reconstruction feedback (they window
    /// over the originals), so the residual costs are computed by the
    /// SIMD-dispatched [`zmesh_kernels::sz::trial_costs`] kernel; its
    /// per-element operations and accumulation order are bit-identical to
    /// the historical `History`-walking loop, so the selection — and
    /// therefore the emitted stream — never depends on the dispatch.
    pub fn select(block: &[f64], seed: &History, eb: f64) -> Predictor {
        // The kernel sees the seed history (oldest first) inlined ahead of
        // the block, so element `j` of the extended slice has exactly the
        // `min(j, 3)` predecessors `History` would report.
        let hist = seed.len();
        let mut ext = Vec::with_capacity(hist + block.len());
        for k in (0..hist).rev() {
            ext.push(seed.prev(k));
        }
        ext.extend_from_slice(block);
        let costs = zmesh_kernels::sz::trial_costs(&ext, hist, eb);
        let mut best = Predictor::Last;
        let mut best_cost = f64::INFINITY;
        for (p, cost) in Predictor::ALL.into_iter().zip(costs) {
            if cost < best_cost {
                best_cost = cost;
                best = p;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn history_of(vals: &[f64]) -> History {
        let mut h = History::new();
        for &v in vals {
            h.push(v);
        }
        h
    }

    #[test]
    fn history_window_rolls() {
        let h = history_of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(h.len(), 3);
        assert_eq!(h.prev(0), 4.0);
        assert_eq!(h.prev(1), 3.0);
        assert_eq!(h.prev(2), 2.0);
    }

    #[test]
    fn predictors_are_exact_on_their_polynomials() {
        // Constant: all predictors exact.
        let h = history_of(&[5.0, 5.0, 5.0]);
        for p in Predictor::ALL {
            assert_eq!(p.predict(&h), 5.0, "{p:?}");
        }
        // Linear ramp: linear and quadratic exact.
        let h = history_of(&[1.0, 2.0, 3.0]);
        assert_eq!(Predictor::Linear.predict(&h), 4.0);
        assert_eq!(Predictor::Quadratic.predict(&h), 4.0);
        // Parabola t^2 at t = 1, 2, 3 -> predicts 16 at t = 4.
        let h = history_of(&[1.0, 4.0, 9.0]);
        assert_eq!(Predictor::Quadratic.predict(&h), 16.0);
    }

    #[test]
    fn degradation_with_short_history() {
        let empty = History::new();
        for p in Predictor::ALL {
            assert_eq!(p.predict(&empty), 0.0);
        }
        let one = history_of(&[7.0]);
        assert_eq!(Predictor::Quadratic.predict(&one), 7.0);
        let two = history_of(&[1.0, 3.0]);
        assert_eq!(Predictor::Quadratic.predict(&two), 5.0);
    }

    #[test]
    fn selection_picks_the_matching_model() {
        let ramp: Vec<f64> = (0..100).map(|i| 2.0 * f64::from(i)).collect();
        assert_eq!(
            Predictor::select(&ramp, &History::new(), 0.0),
            Predictor::Linear
        );
        let parab: Vec<f64> = (0..100).map(|i| f64::from(i * i)).collect();
        assert_eq!(
            Predictor::select(&parab, &History::new(), 0.0),
            Predictor::Quadratic
        );
    }

    #[test]
    fn tags_round_trip() {
        for p in Predictor::ALL {
            assert_eq!(Predictor::from_tag(p.tag()), Some(p));
        }
        assert_eq!(Predictor::from_tag(9), None);
    }

    #[test]
    fn selection_handles_non_finite() {
        let block = [1.0, f64::INFINITY, 2.0];
        // Must not panic; any predictor is acceptable.
        let _ = Predictor::select(&block, &History::new(), 1e-3);
    }

    /// The historical selection loop, kept verbatim as the reference the
    /// kernel-backed [`Predictor::select`] is differentially tested
    /// against: identical costs (bit for bit) and identical choice.
    fn select_reference(block: &[f64], seed: &History, eb: f64) -> (Predictor, [f64; 3]) {
        let mut best = Predictor::Last;
        let mut best_cost = f64::INFINITY;
        let mut costs = [0.0f64; 3];
        for (k, p) in Predictor::ALL.into_iter().enumerate() {
            let mut h = *seed;
            let mut cost = 0.0;
            for &x in block {
                let r = (x - p.predict(&h)).abs();
                if r.is_finite() {
                    cost += (r - eb).max(0.0);
                } else {
                    cost += 1e30; // escapes are expensive
                }
                h.push(x);
            }
            costs[k] = cost;
            if cost < best_cost {
                best_cost = cost;
                best = p;
            }
        }
        (best, costs)
    }

    #[test]
    fn kernel_selection_is_bit_identical_to_the_historical_loop() {
        let mut s = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            (s >> 11) as f64 / (1u64 << 53) as f64
        };
        for len in [0usize, 1, 2, 3, 4, 5, 9, 64, 257] {
            for seed_vals in [0usize, 1, 2, 3] {
                let mut seed = History::new();
                for _ in 0..seed_vals {
                    seed.push(next() * 10.0 - 5.0);
                }
                let mut block: Vec<f64> = (0..len).map(|_| next() * 100.0).collect();
                if len > 4 {
                    block[1] = f64::NAN;
                    block[3] = f64::INFINITY;
                }
                for eb in [0.0, 1e-6, 0.5] {
                    let (want, want_costs) = select_reference(&block, &seed, eb);
                    let got = Predictor::select(&block, &seed, eb);
                    assert_eq!(got, want, "len={len} seed={seed_vals} eb={eb}");
                    // And the kernel costs themselves, bit for bit.
                    let hist = seed.len();
                    let mut ext = Vec::new();
                    for k in (0..hist).rev() {
                        ext.push(seed.prev(k));
                    }
                    ext.extend_from_slice(&block);
                    let costs = zmesh_kernels::sz::trial_costs(&ext, hist, eb);
                    let scalar = zmesh_kernels::sz::trial_costs_scalar(&ext, hist, eb);
                    for k in 0..3 {
                        assert_eq!(costs[k].to_bits(), want_costs[k].to_bits());
                        assert_eq!(scalar[k].to_bits(), want_costs[k].to_bits());
                    }
                }
            }
        }
    }
}
