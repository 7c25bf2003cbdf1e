//! F8 — amortization: per-quantity cost vs the number of quantities
//! compressed on one mesh. The recipe is built once, so its share of the
//! per-quantity cost decays as 1/n.

use crate::{header, row, write_store};
use std::sync::Arc;
use zmesh::{CompressionConfig, OrderingPolicy};
use zmesh_amr::datasets::{self, Scale};
use zmesh_amr::{analytic, AmrField, StorageMode};
use zmesh_codecs::{CodecKind, ErrorControl};

/// Prints per-quantity timings for 1..=32 quantities on one mesh.
pub fn run(scale: Scale) {
    println!("\n## F8: amortization over quantities (blast2d mesh, zmesh-h + sz)\n");
    let ds = datasets::blast2d(StorageMode::AllCells, scale);
    let tree = Arc::clone(&ds.tree);
    let quantities: Vec<(String, AmrField)> = (0..32u64)
        .map(|q| {
            let f = analytic::multiscale(2000 + q, 4);
            (
                format!("q{q:02}"),
                AmrField::sample(Arc::clone(&tree), StorageMode::AllCells, move |p| {
                    f(p) * 0.5 + q as f64
                }),
            )
        })
        .collect();

    let config = CompressionConfig {
        policy: OrderingPolicy::Hilbert,
        codec: CodecKind::Sz,
        control: ErrorControl::ValueRangeRelative(1e-4),
    };
    header(&[
        "n_quantities",
        "recipe_ms",
        "total_ms",
        "ms_per_quantity",
        "recipe_share_%",
    ]);
    for nq in [1usize, 2, 4, 8, 16, 32] {
        let fields: Vec<(&str, &AmrField)> = quantities[..nq]
            .iter()
            .map(|(n, f)| (n.as_str(), f))
            .collect();
        let c = write_store(config, &fields);
        let recipe = c.stats.recipe_ns as f64 / 1e6;
        let total = (c.stats.recipe_ns + c.stats.reorder_ns + c.stats.encode_ns) as f64 / 1e6;
        row(&[
            nq.to_string(),
            format!("{recipe:.2}"),
            format!("{total:.2}"),
            format!("{:.2}", total / nq as f64),
            format!("{:.1}", 100.0 * recipe / total),
        ]);
    }
    println!("\nshape check: recipe_share falls roughly as 1/n_quantities.");
}
