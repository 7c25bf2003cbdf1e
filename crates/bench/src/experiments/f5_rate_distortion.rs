//! F5 — rate–distortion: PSNR vs bits per value for SZ and ZFP under the
//! baseline and zMesh-Hilbert orderings.

use crate::experiments::compress;
use crate::{eval_datasets, header, row, EB_SWEEP};
use zmesh::OrderingPolicy;
use zmesh_amr::datasets::Scale;
use zmesh_codecs::CodecKind;
use zmesh_metrics::ErrorStats;
use zmesh_store::StoreReader;

/// Prints (bits/value, PSNR) series per dataset × codec × policy.
pub fn run(scale: Scale) {
    println!("\n## F5: rate-distortion (primary field distortion, whole-container rate)\n");
    header(&[
        "dataset",
        "codec",
        "ordering",
        "rel_eb",
        "bits_per_value",
        "psnr_dB",
    ]);
    for ds in eval_datasets(scale).iter() {
        for codec in [CodecKind::Sz, CodecKind::Zfp] {
            for policy in [OrderingPolicy::LevelOrder, OrderingPolicy::Hilbert] {
                for eb in EB_SWEEP {
                    let c = compress(ds, policy, codec, eb);
                    let primary = StoreReader::open(&c.bytes)
                        .and_then(|r| r.decode_field(&ds.fields[0].0))
                        .expect("round trip");
                    let stats = ErrorStats::between(ds.primary().values(), primary.values());
                    let n_values: usize = ds.fields.iter().map(|(_, f)| f.len()).sum();
                    let bpv = (c.stats.container_bytes * 8) as f64 / n_values as f64;
                    row(&[
                        ds.name.clone(),
                        codec.label().into(),
                        policy.label().into(),
                        format!("{eb:.0e}"),
                        format!("{bpv:.3}"),
                        format!("{:.1}", stats.psnr_db),
                    ]);
                }
            }
        }
    }
    println!("\nshape check: at equal PSNR, zmesh-h needs fewer bits/value than baseline (SZ especially).");
}
