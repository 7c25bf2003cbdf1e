//! `AnchoredIndexer` agrees with the full curve index of the anchor
//! `coord << k`, for every curve in 2-D and 3-D, at every resolution up to
//! 21 bits and every shift, over runs of cells that walk across tile
//! boundaries and change level mid-run (the Hilbert prefix cache must never
//! serve a stale tile).

use proptest::prelude::*;
use zmesh_sfc::{AnchoredIndexer, Curve, CurveKind};

fn reference(curve: CurveKind, dims: u32, c: [u64; 3], k: u32, bits: u32) -> u64 {
    match dims {
        2 => curve.index_2d(c[0] << k, c[1] << k, bits),
        _ => curve.index_3d(c[0] << k, c[1] << k, c[2] << k, bits),
    }
}

fn next(s: &mut u64) -> u64 {
    *s = s
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *s >> 11
}

#[test]
fn every_shift_at_every_resolution() {
    let mut s = 7u64;
    for curve in CurveKind::ALL {
        for dims in [2, 3] {
            for bits in 1..=21u32 {
                for k in 0..=bits {
                    let mask = (1u64 << (bits - k)) - 1;
                    let mut keys = AnchoredIndexer::new(curve, dims, bits, 3);
                    let corners = [[0, 0, 0], [mask, mask, mask]];
                    let random = (0..8).map(|_| [next(&mut s), next(&mut s), next(&mut s)]);
                    for c in corners.into_iter().chain(random) {
                        let c = [
                            c[0] & mask,
                            c[1] & mask,
                            if dims == 2 { 0 } else { c[2] & mask },
                        ];
                        assert_eq!(
                            keys.index(c, k),
                            reference(curve, dims, c, k, bits),
                            "{curve:?} {dims}-D bits={bits} k={k} {c:?}"
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn runs_across_tiles_and_levels_match_the_full_index(
        curve in prop::sample::select(&CurveKind::ALL[..]),
        dims in prop::sample::select(&[2u32, 3][..]),
        bits in 1u32..=21,
        tile_shift in 0u32..=5,
        seed in any::<u64>(),
        segments in 1usize..6,
    ) {
        let mut s = seed;
        let mut keys = AnchoredIndexer::new(curve, dims, bits, tile_shift);
        for _ in 0..segments {
            // One level: a raster run of level coordinates from a random
            // start, long enough to leave its tile along x and wrap in y.
            let k = (next(&mut s) % u64::from(bits + 1)) as u32;
            let side = 1u64 << (bits - k);
            let mut c = [next(&mut s) % side, next(&mut s) % side, 0];
            if dims == 3 {
                c[2] = next(&mut s) % side;
            }
            for _ in 0..(next(&mut s) % 80) {
                prop_assert_eq!(
                    keys.index(c, k),
                    reference(curve, dims, c, k, bits),
                    "{:?} {}-D bits={} k={} tile={} {:?}", curve, dims, bits, k, tile_shift, c
                );
                c[0] += 1;
                if c[0] == side {
                    c[0] = 0;
                    c[1] = (c[1] + 1) % side;
                }
            }
        }
    }
}
