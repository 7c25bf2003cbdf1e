//! F7 — zMesh's compute overhead: recipe construction + reordering,
//! relative to codec time, plus the decompression side's regeneration from
//! metadata: tree decode and recipe build, timed separately.

use crate::experiments::compress;
use crate::{eval_datasets, header, row};
use zmesh::{OrderingPolicy, Pipeline};
use zmesh_amr::datasets::Scale;
use zmesh_codecs::CodecKind;

/// Prints the per-phase timing breakdown (zmesh-h, SZ, rel_eb 1e-4).
pub fn run(scale: Scale) {
    println!("\n## F7: reorder/tree overhead (zmesh-h + sz, rel_eb 1e-4)\n");
    header(&[
        "dataset",
        "recipe_ms",
        "reorder_ms",
        "encode_ms",
        "overhead_%",
        "decomp_tree_ms",
        "decomp_recipe_ms",
    ]);
    for ds in eval_datasets(scale).iter() {
        let c = compress(ds, OrderingPolicy::Hilbert, CodecKind::Sz, 1e-4);
        let d = Pipeline::decompress(&c.bytes).expect("round trip");
        let recipe = c.stats.recipe_ns as f64 / 1e6;
        let reorder = c.stats.reorder_ns as f64 / 1e6;
        let encode = c.stats.encode_ns as f64 / 1e6;
        row(&[
            ds.name.clone(),
            format!("{recipe:.2}"),
            format!("{reorder:.2}"),
            format!("{encode:.2}"),
            format!(
                "{:.1}",
                100.0 * (recipe + reorder) / (recipe + reorder + encode)
            ),
            format!("{:.2}", d.tree_ns as f64 / 1e6),
            format!("{:.2}", d.recipe_ns as f64 / 1e6),
        ]);
    }
    println!("\nshape check: overhead is a bounded fraction of codec time and is mesh-only\n(one recipe per mesh regardless of quantity count — see F8).");
}
