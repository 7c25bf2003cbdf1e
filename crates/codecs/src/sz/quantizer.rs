//! Linear-scaling quantization (the SZ error-control mechanism).
//!
//! The residual `x - pred` is quantized to `code = round(residual / 2eb)`;
//! reconstruction is `pred + code · 2eb`, which is within `eb` of `x` by
//! construction. Codes outside the table (or any case where floating-point
//! rounding would break the bound) fall back to the *escape* symbol and the
//! value is stored verbatim — so the bound holds **unconditionally**.

/// Reserved symbol meaning "unpredictable, value stored verbatim".
pub const ESCAPE: u16 = zmesh_kernels::sz::ESCAPE;

/// Half-width of the code table: codes occupy `[-(RADIUS-1), RADIUS-1]`,
/// mapped to symbols `1 ..= 2*RADIUS - 1` (symbol 0 is [`ESCAPE`]).
pub const RADIUS: i64 = zmesh_kernels::sz::RADIUS as i64;

/// Quantizer for a fixed absolute error bound.
#[derive(Debug, Clone, Copy)]
pub struct Quantizer {
    eb: f64,
    two_eb: f64,
    /// Snap reconstructions to `f32` (single-precision source data). The
    /// bound is re-verified *after* snapping, so it still holds pointwise.
    snap_f32: bool,
}

/// Result of quantizing one value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QuantOutcome {
    /// Residual fits the code table; `recon` is the decoder-side value.
    Code {
        /// Huffman symbol (`code + RADIUS`).
        symbol: u16,
        /// Reconstructed value, shared by encoder and decoder.
        recon: f64,
    },
    /// Value must be stored verbatim.
    Escape,
}

impl Quantizer {
    /// Creates a quantizer. `eb == 0` forces every value to escape
    /// (lossless mode).
    pub fn new(eb: f64) -> Self {
        Self::with_snap(eb, false)
    }

    /// Creates a quantizer that snaps reconstructions to `f32` when
    /// `snap_f32` is set (for single-precision source data).
    pub fn with_snap(eb: f64, snap_f32: bool) -> Self {
        debug_assert!(eb.is_finite() && eb >= 0.0);
        Self {
            eb,
            two_eb: 2.0 * eb,
            snap_f32,
        }
    }

    #[inline]
    fn snap(&self, v: f64) -> f64 {
        if self.snap_f32 {
            v as f32 as f64
        } else {
            v
        }
    }

    /// Quantizes `x` against prediction `pred` with the scalar step of
    /// [`zmesh_kernels::sz::quantize_lanes`]: NaN, ±∞, `eb = 0` and
    /// residuals outside the code table escape.
    #[inline]
    pub fn quantize(&self, x: f64, pred: f64) -> QuantOutcome {
        match zmesh_kernels::sz::quantize_one(x, pred, self.eb, self.snap_f32) {
            Some((symbol, recon)) => QuantOutcome::Code { symbol, recon },
            None => QuantOutcome::Escape,
        }
    }

    /// Decoder-side reconstruction for a non-escape symbol.
    #[inline]
    pub fn reconstruct(&self, symbol: u16, pred: f64) -> f64 {
        debug_assert_ne!(symbol, ESCAPE);
        let code = i64::from(symbol) - RADIUS;
        self.snap(pred + code as f64 * self.two_eb)
    }

    /// Reconstruction from a precomputed `(symbol − RADIUS) · 2eb` delta
    /// (see [`Quantizer::symbol_deltas`]): lifting the int→float convert
    /// and multiply out of the sequential prediction chain leaves a
    /// single add (+ optional f32 snap) per value. Bit-identical to
    /// [`Quantizer::reconstruct`] because the delta is the same f64 the
    /// inline expression would produce.
    #[inline]
    pub fn reconstruct_delta(&self, delta: f64, pred: f64) -> f64 {
        self.snap(pred + delta)
    }

    /// Bulk-computes each symbol's reconstruction delta
    /// `(symbol − RADIUS) · 2eb` via the SIMD-dispatched
    /// [`zmesh_kernels::sz::symbol_deltas`] kernel. Escape positions get
    /// a (well-defined, unused) delta too, so callers can index the
    /// result by symbol position unconditionally.
    pub fn symbol_deltas(&self, symbols: &[u16]) -> Vec<f64> {
        let mut out = vec![0.0f64; symbols.len()];
        zmesh_kernels::sz::symbol_deltas(symbols, RADIUS as i32, self.two_eb, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_prediction_gives_zero_code() {
        let q = Quantizer::new(0.1);
        match q.quantize(5.0, 5.0) {
            QuantOutcome::Code { symbol, recon } => {
                assert_eq!(symbol, RADIUS as u16);
                assert_eq!(recon, 5.0);
            }
            QuantOutcome::Escape => panic!("should quantize"),
        }
    }

    #[test]
    fn reconstruction_matches_encoder() {
        let q = Quantizer::new(1e-3);
        for (x, pred) in [(1.0, 0.9), (-5.5, -5.2), (100.0, 99.999), (0.0, 0.0015)] {
            if let QuantOutcome::Code { symbol, recon } = q.quantize(x, pred) {
                assert_eq!(q.reconstruct(symbol, pred), recon);
                assert!((x - recon).abs() <= 1e-3 * (1.0 + 1e-12));
            } else {
                panic!("small residuals must quantize");
            }
        }
    }

    #[test]
    fn large_residual_escapes() {
        let q = Quantizer::new(1e-6);
        assert_eq!(q.quantize(1.0, 0.0), QuantOutcome::Escape);
    }

    #[test]
    fn boundary_codes() {
        let q = Quantizer::new(0.5);
        // Residual exactly (RADIUS-2) * 2eb is representable...
        let diff = (RADIUS - 2) as f64;
        assert!(matches!(q.quantize(diff, 0.0), QuantOutcome::Code { .. }));
        // ...but RADIUS * 2eb is not.
        let diff = RADIUS as f64;
        assert_eq!(q.quantize(diff, 0.0), QuantOutcome::Escape);
    }

    #[test]
    fn non_finite_escapes() {
        let q = Quantizer::new(0.1);
        assert_eq!(q.quantize(f64::NAN, 0.0), QuantOutcome::Escape);
        assert_eq!(q.quantize(1.0, f64::INFINITY), QuantOutcome::Escape);
        assert_eq!(q.quantize(f64::INFINITY, 1.0), QuantOutcome::Escape);
    }

    #[test]
    fn zero_bound_always_escapes() {
        let q = Quantizer::new(0.0);
        assert_eq!(q.quantize(1.0, 1.0), QuantOutcome::Escape);
    }

    #[test]
    fn snapped_reconstruction_honors_the_bound() {
        let q = Quantizer::with_snap(1e-3, true);
        for x in [1.0f32, -7.25, 1234.567, 1e-20, 3.0e7] {
            let x = f64::from(x);
            match q.quantize(x, x * (1.0 + 5e-4)) {
                QuantOutcome::Code { recon, .. } => {
                    assert_eq!(recon, recon as f32 as f64, "recon not f32");
                    assert!((x - recon).abs() <= 1e-3 * (1.0 + 1e-12));
                }
                QuantOutcome::Escape => {} // also fine: bound preserved
            }
        }
    }

    #[test]
    fn snap_escapes_when_f32_cannot_hold_the_bound() {
        // eb far below f32 ulp at this magnitude: snapping breaks the
        // bound, so the quantizer must escape rather than emit a code.
        let q = Quantizer::with_snap(1e-12, true);
        let x = 1.0e8 + 0.3;
        assert_eq!(q.quantize(x, 1.0e8), QuantOutcome::Escape);
    }

    #[test]
    fn delta_reconstruction_is_bit_identical_to_inline() {
        for (eb, snap) in [(1e-3, false), (0.5, false), (1e-3, true)] {
            let q = Quantizer::with_snap(eb, snap);
            let symbols: Vec<u16> = (1..=2000u16).map(|i| i.wrapping_mul(31).max(1)).collect();
            let deltas = q.symbol_deltas(&symbols);
            for (&s, &d) in symbols.iter().zip(&deltas) {
                for pred in [0.0, 1.5, -1e6, 0.125] {
                    assert_eq!(
                        q.reconstruct_delta(d, pred).to_bits(),
                        q.reconstruct(s, pred).to_bits(),
                        "symbol={s} pred={pred} eb={eb} snap={snap}"
                    );
                }
            }
        }
    }

    #[test]
    fn symbols_never_collide_with_escape() {
        let q = Quantizer::new(0.5);
        for diff_steps in [-(RADIUS - 2), -1, 0, 1, RADIUS - 2] {
            let x = diff_steps as f64; // residual = diff_steps * 2eb with eb=0.5
            if let QuantOutcome::Code { symbol, .. } = q.quantize(x, 0.0) {
                assert_ne!(symbol, ESCAPE);
            } else {
                panic!("in-range residual escaped: {diff_steps}");
            }
        }
    }
}
