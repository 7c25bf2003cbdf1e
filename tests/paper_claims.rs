//! Shape checks for the paper's headline claims, run across the whole
//! preset suite (small scale):
//!
//! 1. reordering makes streams smoother on every dataset (F2);
//! 2. Hilbert is at least as smooth as Z-order on average (F2);
//! 3. SZ's ratio improves with zMesh on refinement-heavy data (F3);
//! 4. SZ benefits far more than ZFP (F3 vs F4);
//! 5. overhead amortizes across quantities (F8).

use std::sync::Arc;
use zmesh::linearize;
use zmesh_amr::datasets::{self, Scale};
use zmesh_amr::{analytic, StorageMode};
use zmesh_codecs::ErrorControl;
use zmesh_metrics::smoothness_improvement;
use zmesh_suite::prelude::*;

/// The paper's layout: each quantity's whole reordered stream is one
/// codec call (one chunk per field, no parity).
fn one_chunk_writer(config: CompressionConfig) -> StoreWriter {
    StoreWriter::with_options(
        config,
        StoreWriteOptions {
            chunk_target_bytes: u32::MAX,
            parity: Parity::None,
        },
    )
}

fn ratio(ds: &datasets::Dataset, policy: OrderingPolicy, codec: CodecKind) -> f64 {
    let fields: Vec<(&str, &zmesh_amr::AmrField)> =
        ds.fields.iter().map(|(n, f)| (n.as_str(), f)).collect();
    one_chunk_writer(CompressionConfig {
        policy,
        codec,
        control: ErrorControl::ValueRangeRelative(1e-3),
    })
    .write(&fields)
    .expect("compress")
    .stats
    .ratio()
}

#[test]
fn claim_1_and_2_smoothness_improves_everywhere() {
    let (mut z_mean, mut h_mean, mut n) = (0.0, 0.0, 0);
    for ds in datasets::all(StorageMode::AllCells, Scale::Small) {
        let field = ds.primary();
        let (base, _) = linearize(field, OrderingPolicy::LevelOrder);
        let (z, _) = linearize(field, OrderingPolicy::ZOrder);
        let (h, _) = linearize(field, OrderingPolicy::Hilbert);
        let zi = smoothness_improvement(&base, &z);
        let hi = smoothness_improvement(&base, &h);
        if ds.name == "kh2d" {
            // The documented adversarial case: Kelvin-Helmholtz vortex
            // sheets are strongly anisotropic and aligned with the
            // within-patch scan direction, so the row scan follows the
            // smooth along-sheet direction while any space-filling curve
            // must repeatedly cut across the sheets. Lock the finding in:
            // reordering does NOT help here (see EXPERIMENTS.md).
            assert!(
                hi < 5.0,
                "kh2d unexpectedly became zMesh-friendly ({hi:.1}%) — update the docs"
            );
            continue;
        }
        // Hilbert must win on every isotropic dataset; Z-order (the weaker
        // curve — it takes long diagonal jumps) may be ~neutral on isolated
        // small 3-D datasets but never clearly worse.
        assert!(zi > -5.0, "{}: z-order clearly rougher ({zi:.1}%)", ds.name);
        assert!(
            hi > 0.0,
            "{}: hilbert made the stream rougher ({hi:.1}%)",
            ds.name
        );
        z_mean += zi;
        h_mean += hi;
        n += 1;
    }
    z_mean /= n as f64;
    h_mean /= n as f64;
    // Paper: 67.9 % (Z) / 71.3 % (Hilbert). We require the qualitative
    // ordering and a substantial effect.
    assert!(
        h_mean >= z_mean,
        "hilbert ({h_mean:.1}) < z-order ({z_mean:.1})"
    );
    assert!(
        h_mean > 20.0,
        "mean hilbert improvement too small: {h_mean:.1}%"
    );
}

#[test]
fn claim_3_sz_gains_on_refinement_heavy_data() {
    for name in ["front2d", "blast2d", "diffuse2d"] {
        let ds = datasets::by_name(name, StorageMode::AllCells, Scale::Small).unwrap();
        let base = ratio(&ds, OrderingPolicy::LevelOrder, CodecKind::Sz);
        let h = ratio(&ds, OrderingPolicy::Hilbert, CodecKind::Sz);
        assert!(
            h > base * 1.02,
            "{name}: zMesh SZ gain too small ({base:.2} -> {h:.2})"
        );
    }
}

#[test]
fn claim_4_sz_benefits_more_than_zfp() {
    let (mut sz_gain, mut zfp_gain, mut n) = (0.0, 0.0, 0);
    for ds in datasets::all(StorageMode::AllCells, Scale::Small) {
        let sz = ratio(&ds, OrderingPolicy::Hilbert, CodecKind::Sz)
            / ratio(&ds, OrderingPolicy::LevelOrder, CodecKind::Sz);
        let zfp = ratio(&ds, OrderingPolicy::Hilbert, CodecKind::Zfp)
            / ratio(&ds, OrderingPolicy::LevelOrder, CodecKind::Zfp);
        sz_gain += sz;
        zfp_gain += zfp;
        n += 1;
    }
    sz_gain /= n as f64;
    zfp_gain /= n as f64;
    assert!(
        sz_gain > zfp_gain,
        "SZ mean gain factor {sz_gain:.3} must exceed ZFP's {zfp_gain:.3} (paper: 133.7% vs 16.5%)"
    );
    assert!(
        sz_gain > 1.05,
        "SZ mean gain factor too small: {sz_gain:.3}"
    );
}

#[test]
fn claim_5_recipe_cost_amortizes() {
    let ds = datasets::blast2d(StorageMode::AllCells, Scale::Small);
    let tree = Arc::clone(&ds.tree);
    let quantities: Vec<(String, zmesh_amr::AmrField)> = (0..8u64)
        .map(|q| {
            let f = analytic::multiscale(500 + q, 3);
            (
                format!("q{q}"),
                zmesh_amr::AmrField::sample(Arc::clone(&tree), StorageMode::AllCells, move |p| {
                    f(p)
                }),
            )
        })
        .collect();
    let config = CompressionConfig {
        policy: OrderingPolicy::Hilbert,
        codec: CodecKind::Sz,
        control: ErrorControl::ValueRangeRelative(1e-4),
    };
    let share = |nq: usize| {
        let fields: Vec<(&str, &zmesh_amr::AmrField)> = quantities[..nq]
            .iter()
            .map(|(n, f)| (n.as_str(), f))
            .collect();
        // Median of several runs to de-noise wall-clock timings.
        let mut shares: Vec<f64> = (0..5)
            .map(|_| {
                let c = one_chunk_writer(config).write(&fields).unwrap();
                c.stats.recipe_ns as f64
                    / (c.stats.recipe_ns + c.stats.reorder_ns + c.stats.encode_ns) as f64
            })
            .collect();
        shares.sort_by(f64::total_cmp);
        shares[2]
    };
    let one = share(1);
    let eight = share(8);
    assert!(
        eight < one,
        "recipe share must fall with more quantities: 1 -> {one:.3}, 8 -> {eight:.3}"
    );
}
