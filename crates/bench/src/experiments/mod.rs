//! One module per reconstructed paper artifact. Each `run(scale)` prints
//! the corresponding table/figure rows (markdown) to stdout.

pub mod a10_sensitivity;
pub mod a11_layouts;
pub mod a13_uniform;
pub mod a14_entropy;
pub mod a9_ablation;
pub mod f10_threads;
pub mod f11_precision;
pub mod f2_smoothness;
pub mod f2b_locality;
pub mod f3_sz_ratio;
pub mod f4_zfp_ratio;
pub mod f5_rate_distortion;
pub mod f7_overhead;
pub mod f8_amortization;
pub mod f9_timeseries;
pub mod t12_lossless;
pub mod t1_datasets;
pub mod t6_error_bound;

use zmesh::{CompressionConfig, OrderingPolicy};
use zmesh_amr::datasets::Dataset;
use zmesh_codecs::{CodecKind, ErrorControl};
use zmesh_store::StoreWritten;

/// Compresses all fields of a dataset under one configuration into a
/// one-chunk-per-field store.
pub(crate) fn compress(
    ds: &Dataset,
    policy: OrderingPolicy,
    codec: CodecKind,
    rel_eb: f64,
) -> StoreWritten {
    let config = CompressionConfig {
        policy,
        codec,
        control: ErrorControl::ValueRangeRelative(rel_eb),
    };
    crate::write_store(config, &crate::field_refs(ds))
}
