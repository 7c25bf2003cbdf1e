//! F7 — zMesh's compute overhead: recipe construction + reordering,
//! relative to codec time, plus the decompression side's regeneration from
//! metadata: tree decode and recipe build, timed separately.

use crate::experiments::compress;
use crate::{eval_datasets, header, row};
use std::time::Instant;
use zmesh::{OrderingPolicy, RestoreRecipe};
use zmesh_amr::datasets::Scale;
use zmesh_amr::AmrTree;
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
        // The read side regenerates everything from the store header's
        // structure bytes: tree decode, then recipe build.
        let header = zmesh_store::peek_header(&c.bytes).expect("valid store");
        let t = Instant::now();
        let tree = AmrTree::from_structure_bytes(&header.structure).expect("valid structure");
        let tree_ms = t.elapsed().as_secs_f64() * 1e3;
        let t = Instant::now();
        let rebuilt = RestoreRecipe::build(&tree, header.policy, header.grouping());
        let recipe_ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(rebuilt.len(), ds.primary().len());
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
            format!("{tree_ms:.2}"),
            format!("{recipe_ms:.2}"),
        ]);
    }
    println!("\nshape check: overhead is a bounded fraction of codec time and is mesh-only\n(one recipe per mesh regardless of quantity count — see F8).");
}
