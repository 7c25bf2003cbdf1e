//! Bringing your own AMR data: build a hierarchy from an application's
//! refinement flags, attach existing value arrays, compress with zMesh,
//! and read back a single field selectively.
//!
//! ```text
//! cargo run --release --example custom_amr
//! ```

use std::sync::Arc;
use zmesh_amr::{AmrField, AmrTree, CellCoord, Dim, StorageMode};
use zmesh_codecs::ErrorControl;
use zmesh_suite::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Your application knows which cells it refined. Here: a 8x8 level-0
    //    grid with a refined band along the diagonal, two levels deep.
    let l0: Vec<u64> = (0..8u32).map(|i| CellCoord::new(i, i, 0).pack()).collect();
    let mut l0 = l0;
    l0.sort_unstable();
    let l1: Vec<u64> = (0..8u32)
        .flat_map(|i| {
            // Refine the lower-left child of each refined diagonal cell.
            std::iter::once(CellCoord::new(2 * i, 2 * i, 0).pack())
        })
        .collect();
    let mut l1 = l1;
    l1.sort_unstable();
    let tree = Arc::new(AmrTree::from_refined(Dim::D2, [8, 8, 1], vec![l0, l1])?);
    println!(
        "custom hierarchy: {} levels, {} cells, {} leaves",
        tree.max_level() + 1,
        tree.cell_count(),
        tree.leaf_count()
    );

    // 2. Attach your data: any Vec<f64> in storage order (level-major,
    //    patch-major within a level). Applications would pass their own
    //    buffers; here we synthesize two quantities at cell centers.
    let density_values: Vec<f64> = tree
        .cells()
        .iter()
        .map(|c| {
            let p = tree.cell_center(&c);
            (-((p[0] - p[1]) * 8.0).powi(2)).exp() + 0.1
        })
        .collect();
    let density = AmrField::from_values(Arc::clone(&tree), StorageMode::AllCells, density_values)?;
    let vx = AmrField::sample(Arc::clone(&tree), StorageMode::AllCells, |p| p[0] - p[1]);

    // 3. Compress both quantities into one store.
    let writer = StoreWriter::new(CompressionConfig {
        policy: OrderingPolicy::Hilbert,
        codec: CodecKind::Sz,
        control: ErrorControl::ValueRangeRelative(1e-5),
    });
    let compressed = writer.write(&[("density", &density), ("vx", &vx)])?;
    println!(
        "compressed {} -> {} bytes (ratio {:.2})",
        compressed.stats.raw_bytes,
        compressed.stats.container_bytes,
        compressed.stats.ratio()
    );

    // 4. Selective read-back: list the fields, decode just one.
    let reader = StoreReader::open(&compressed.bytes)?;
    println!("store fields: {:?}", reader.field_names());
    let restored_density = reader.decode_field("density")?;
    assert_eq!(reader.tree().cell_count(), tree.cell_count());
    let err = max_abs_error(density.values(), restored_density.values());
    println!("density restored selectively, max error {err:.2e}");
    Ok(())
}
