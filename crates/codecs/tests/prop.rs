//! Property tests: the invariants the zMesh pipeline relies on.
//!
//! * SZ honors its absolute error bound pointwise on arbitrary finite data;
//! * ZFP honors its tolerance pointwise on arbitrary bounded data;
//! * the entropy stages round-trip arbitrary symbols exactly.

use proptest::prelude::*;
use zmesh_codecs::{Codec, CodecParams, SzCodec, ZfpCodec};

/// Bounded values keep the test meaningful for ZFP (no NaN/Inf allowed).
fn bounded_f64() -> impl Strategy<Value = f64> {
    prop_oneof![
        5 => -1e6f64..1e6,
        1 => -1e-6f64..1e-6,
        1 => Just(0.0),
        1 => -1e12f64..1e12,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn sz_honors_abs_bound(
        data in prop::collection::vec(bounded_f64(), 0..600),
        eb_exp in -8i32..2
    ) {
        let eb = 10f64.powi(eb_exp);
        let codec = SzCodec::new();
        let bytes = codec.compress(&data, &CodecParams::abs_1d(eb)).unwrap();
        let out = codec.decompress(&bytes).unwrap();
        prop_assert_eq!(out.len(), data.len());
        for (i, (&a, &b)) in data.iter().zip(&out).enumerate() {
            prop_assert!((a - b).abs() <= eb * (1.0 + 1e-12), "i={} a={} b={}", i, a, b);
        }
    }

    #[test]
    fn sz_handles_arbitrary_finite_values(
        data in prop::collection::vec(
            prop::num::f64::NORMAL | prop::num::f64::SUBNORMAL | prop::num::f64::ZERO,
            0..200
        )
    ) {
        let eb = 1e-3;
        let codec = SzCodec::new();
        let bytes = codec.compress(&data, &CodecParams::abs_1d(eb)).unwrap();
        let out = codec.decompress(&bytes).unwrap();
        for (&a, &b) in data.iter().zip(&out) {
            prop_assert!((a - b).abs() <= eb * (1.0 + 1e-12));
        }
    }

    #[test]
    fn zfp_honors_tolerance_1d(
        data in prop::collection::vec(bounded_f64(), 0..600),
        tol_exp in -8i32..2
    ) {
        let tol = 10f64.powi(tol_exp);
        let codec = ZfpCodec::new();
        let bytes = codec.compress(&data, &CodecParams::abs_1d(tol)).unwrap();
        let out = codec.decompress(&bytes).unwrap();
        prop_assert_eq!(out.len(), data.len());
        // Like the reference ZFP, accuracy mode cannot deliver tolerances
        // below the 62-bit block-float precision floor: a block whose max
        // magnitude is M cannot be reconstructed finer than ~M * 2^-52
        // (cast truncation + transform rounding). The effective guarantee
        // is max(tol, floor).
        let gmax = data.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        let eff = tol.max(gmax * 2f64.powi(-52));
        for (i, (&a, &b)) in data.iter().zip(&out).enumerate() {
            prop_assert!((a - b).abs() <= eff, "i={} a={} b={} eff={}", i, a, b, eff);
        }
    }

    #[test]
    fn zfp_honors_tolerance_2d(
        nx in 1usize..24,
        ny in 1usize..24,
        seed in any::<u64>()
    ) {
        let tol = 1e-4;
        let mut s = seed | 1;
        let data: Vec<f64> = (0..nx * ny).map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64 * 200.0 - 100.0
        }).collect();
        let codec = ZfpCodec::new();
        let params = CodecParams::abs_1d(tol).with_dims_2d(nx, ny);
        let out = codec.decompress(&codec.compress(&data, &params).unwrap()).unwrap();
        for (&a, &b) in data.iter().zip(&out) {
            prop_assert!((a - b).abs() <= tol);
        }
    }

    #[test]
    fn sz_decompress_never_panics_on_garbage(
        data in prop::collection::vec(any::<u8>(), 0..300)
    ) {
        let _ = SzCodec::new().decompress(&data);
    }

    #[test]
    fn zfp_decompress_never_panics_on_garbage(
        data in prop::collection::vec(any::<u8>(), 0..300)
    ) {
        let _ = ZfpCodec::new().decompress(&data);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn rangecoder_round_trips(
        symbols in prop::collection::vec(any::<u16>(), 0..600)
    ) {
        use zmesh_codecs::lossless::rangecoder;
        let c = rangecoder::encode(&symbols);
        prop_assert_eq!(rangecoder::decode(&c).unwrap(), symbols);
    }

    #[test]
    fn sz_f32_mode_honors_bound_on_f32_data(
        raw in prop::collection::vec(-1e6f32..1e6, 0..400),
        eb_exp in -5i32..1
    ) {
        let eb = 10f64.powi(eb_exp);
        let data: Vec<f64> = raw.iter().map(|&v| f64::from(v)).collect();
        let codec = SzCodec::new();
        let params = CodecParams::abs_1d(eb).as_f32();
        let bytes = codec.compress(&data, &params).unwrap();
        let out = codec.decompress(&bytes).unwrap();
        for (&a, &b) in data.iter().zip(&out) {
            prop_assert_eq!(b, f64::from(b as f32));
            prop_assert!((a - b).abs() <= eb * (1.0 + 1e-12));
        }
    }

    #[test]
    fn zfp_fixed_precision_never_panics(
        data in prop::collection::vec(bounded_f64(), 0..300),
        prec in 1u32..=64
    ) {
        use zmesh_codecs::ErrorControl;
        let codec = ZfpCodec::new();
        let params = CodecParams {
            control: ErrorControl::FixedPrecision(prec),
            dims: [0, 0, 0],
            value_type: zmesh_codecs::ValueType::F64,
        };
        let bytes = codec.compress(&data, &params).unwrap();
        let out = codec.decompress(&bytes).unwrap();
        prop_assert_eq!(out.len(), data.len());
    }
}
