//! T12 — extension experiment: zMesh in front of *lossless* float
//! compression (Gorilla-style XOR coding).
//!
//! The paper focuses on lossy compressors; its mechanism (stream
//! smoothness) should equally help an XOR coder, whose cost per value is
//! the width of the XOR window against the previous value. This experiment
//! measures that as a future-work-style extension.

use crate::{eval_datasets, gorilla, header, row};
use zmesh::{linearize, OrderingPolicy};
use zmesh_amr::datasets::Scale;

/// Prints lossless (bit-exact) ratios under each ordering.
pub fn run(scale: Scale) {
    println!("\n## T12 (extension): lossless XOR compression under each ordering\n");
    header(&["dataset", "baseline", "zorder", "hilbert", "h_gain_%"]);
    for ds in eval_datasets(scale).iter() {
        let field = ds.primary();
        let ratio = |policy| {
            let (stream, _) = linearize(field, policy);
            let bytes = gorilla::compress(&stream).len();
            (stream.len() * 8) as f64 / bytes as f64
        };
        let base = ratio(OrderingPolicy::LevelOrder);
        let z = ratio(OrderingPolicy::ZOrder);
        let h = ratio(OrderingPolicy::Hilbert);
        row(&[
            ds.name.clone(),
            format!("{base:.3}"),
            format!("{z:.3}"),
            format!("{h:.3}"),
            format!("{:.1}", 100.0 * (h / base - 1.0)),
        ]);
    }
    println!("\nshape check: lossless float compression of f64 solver output is\nmodest in absolute terms, and the reorder gain is small (XOR windows\nare dominated by mantissa noise) — consistent with the paper's focus\non error-bounded compression.");
}
