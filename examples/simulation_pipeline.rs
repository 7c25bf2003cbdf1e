//! A realistic end-to-end flow: run a mini PDE solver, regrid its output
//! onto an AMR hierarchy (like an application's restart/plot dump), then
//! sweep error bounds and report the rate–distortion trade-off of the
//! baseline vs zMesh.
//!
//! ```text
//! cargo run --release --example simulation_pipeline
//! ```

use std::sync::Arc;
use zmesh_amr::solver::advect_rotating_blob;
use zmesh_amr::{AmrField, Dim, RefineCriterion, StorageMode, TreeBuilder};
use zmesh_codecs::ErrorControl;
use zmesh_metrics::ErrorStats;
use zmesh_suite::prelude::*;

fn main() {
    // 1. "Simulation": advect a sharp-edged blob in a rotating flow.
    println!("running advection solver (256^2, 400 steps)...");
    let grid = Arc::new(advect_rotating_blob(256, 400, 1.0));
    let scalar = grid.as_field();

    // 2. "Regrid": refine where the solution has gradients, like the
    //    application would before writing a checkpoint.
    let tree = Arc::new(
        TreeBuilder::new(Dim::D2, [32, 32, 1], 3)
            .refine_where(RefineCriterion::gradient(scalar.clone(), 0.12).as_fn())
            .build()
            .expect("valid refinement"),
    );
    let field = AmrField::sample(Arc::clone(&tree), StorageMode::AllCells, move |p| scalar(p));
    println!(
        "AMR hierarchy: {} levels, {} cells ({:.1}x cheaper than uniform 256^2)",
        tree.max_level() + 1,
        tree.cell_count(),
        (256.0 * 256.0) / tree.leaf_count() as f64
    );

    // 3. Sweep error bounds: baseline vs zMesh-Hilbert, SZ codec.
    println!(
        "\n{:>9} {:>12} {:>12} {:>9} {:>10}",
        "rel_eb", "base_ratio", "zmesh_ratio", "gain_%", "psnr_dB"
    );
    for eb in [1e-2, 1e-3, 1e-4, 1e-5] {
        let run = |policy: OrderingPolicy| {
            let config = CompressionConfig {
                policy,
                codec: CodecKind::Sz,
                control: ErrorControl::ValueRangeRelative(eb),
            };
            StoreWriter::new(config)
                .write(&[("scalar", &field)])
                .expect("compress")
        };
        let base = run(OrderingPolicy::LevelOrder);
        let zm = run(OrderingPolicy::Hilbert);
        let restored = StoreReader::open(&zm.bytes)
            .and_then(|r| r.decode_field("scalar"))
            .expect("decompress");
        let stats = ErrorStats::between(field.values(), restored.values());
        println!(
            "{:>9.0e} {:>12.2} {:>12.2} {:>9.1} {:>10.1}",
            eb,
            base.stats.ratio(),
            zm.stats.ratio(),
            100.0 * (zm.stats.ratio() / base.stats.ratio() - 1.0),
            stats.psnr_db
        );
    }
    println!("\nzMesh gains grow as bounds loosen (prediction-dominated regime).");
}
