//! Amortization demo: one restore recipe serves every quantity written on a
//! mesh, so zMesh's reorder overhead per quantity shrinks as applications
//! dump more quantities (the paper's amortization argument).
//!
//! ```text
//! cargo run --release --example multi_quantity
//! ```

use std::sync::Arc;
use zmesh_amr::{analytic, AmrField, StorageMode};
use zmesh_codecs::ErrorControl;
use zmesh_suite::prelude::*;

fn main() {
    let ds = zmesh_suite::amr::datasets::blast2d(
        StorageMode::AllCells,
        zmesh_suite::amr::datasets::Scale::Small,
    );
    let tree = Arc::clone(&ds.tree);

    // Synthesize a family of quantities on the same mesh, like the dozens of
    // species/components a production code writes per checkpoint.
    let quantities: Vec<(String, AmrField)> = (0..32u64)
        .map(|q| {
            let f = analytic::multiscale(1000 + q, 4);
            let name = format!("q{q:02}");
            (
                name,
                AmrField::sample(Arc::clone(&tree), StorageMode::AllCells, move |p| {
                    f(p) + q as f64 * 0.1
                }),
            )
        })
        .collect();

    let config = CompressionConfig {
        policy: OrderingPolicy::Hilbert,
        codec: CodecKind::Sz,
        control: ErrorControl::ValueRangeRelative(1e-4),
    };

    println!(
        "{:>6} {:>12} {:>14} {:>16}",
        "nq", "recipe_ms", "total_ms", "recipe_share_%"
    );
    for nq in [1usize, 2, 4, 8, 16, 32] {
        let fields: Vec<(&str, &AmrField)> = quantities[..nq]
            .iter()
            .map(|(n, f)| (n.as_str(), f))
            .collect();
        // A fresh writer per run, so each run builds the recipe once.
        let c = StoreWriter::new(config).write(&fields).expect("compress");
        let recipe_ms = c.stats.recipe_ns as f64 / 1e6;
        let total_ms = (c.stats.recipe_ns + c.stats.reorder_ns + c.stats.encode_ns) as f64 / 1e6;
        // The one-time recipe's share of the whole run shrinks as more
        // quantities ride on it.
        let recipe_share = 100.0 * recipe_ms / total_ms;
        println!(
            "{:>6} {:>12.2} {:>14.2} {:>16.1}",
            nq, recipe_ms, total_ms, recipe_share
        );
    }
    println!("\nThe recipe is built once per mesh; its share of the cost\nfalls as 1/#quantities — the paper's amortization effect.");
}
