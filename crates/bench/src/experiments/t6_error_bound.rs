//! T6 — error-bound compliance: the reordering must never break the
//! codec's pointwise guarantee.

use crate::experiments::compress;
use crate::{eval_datasets, header, read_store, row};
use zmesh::OrderingPolicy;
use zmesh_amr::datasets::Scale;
use zmesh_codecs::CodecKind;
use zmesh_metrics::ErrorStats;

/// Verifies and prints max pointwise error vs the requested bound.
pub fn run(scale: Scale) {
    let rel_eb = 1e-4;
    println!("\n## T6: error-bound compliance (rel_eb = {rel_eb:.0e})\n");
    header(&[
        "dataset",
        "codec",
        "ordering",
        "abs_bound",
        "max_abs_err",
        "mean_err_over_bound",
        "ok",
    ]);
    let mut all_ok = true;
    for ds in eval_datasets(scale).iter() {
        for codec in [CodecKind::Sz, CodecKind::Zfp] {
            for policy in OrderingPolicy::ALL {
                let c = compress(ds, policy, codec, rel_eb);
                let restored = read_store(&c.bytes);
                for ((name, orig), rest) in ds.fields.iter().zip(&restored) {
                    let stats = ErrorStats::between(orig.values(), rest.values());
                    let bound = rel_eb * stats.range;
                    let ok = stats.max_abs <= bound * (1.0 + 1e-9);
                    all_ok &= ok;
                    if name == &ds.fields[0].0 {
                        // How much of the error budget the codec actually
                        // uses on average (SZ quantizes uniformly within
                        // ±eb, ZFP usually lands far below the bound).
                        let mean_err: f64 = orig
                            .values()
                            .iter()
                            .zip(rest.values())
                            .map(|(a, b)| (a - b).abs())
                            .sum::<f64>()
                            / orig.len() as f64;
                        row(&[
                            ds.name.clone(),
                            codec.label().into(),
                            policy.label().into(),
                            format!("{bound:.3e}"),
                            format!("{:.3e}", stats.max_abs),
                            format!("{:.2}", mean_err / bound),
                            if ok { "yes".into() } else { "NO".into() },
                        ]);
                    }
                    assert!(ok, "{}/{}/{:?}: bound violated", ds.name, name, policy);
                }
            }
        }
    }
    println!("\nall bounds honored: {all_ok}");
}
