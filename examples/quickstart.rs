//! Quickstart: compress an AMR dataset into a store with and without zMesh
//! reordering, then read it back.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use zmesh_amr::datasets::Scale;
use zmesh_amr::StorageMode;
use zmesh_codecs::ErrorControl;
use zmesh_suite::prelude::*;

fn main() {
    // 1. Get an AMR dataset. Presets mirror the paper's workload classes;
    //    real applications would load their own hierarchy + fields instead.
    let ds = zmesh_suite::amr::datasets::front2d(StorageMode::AllCells, Scale::Small);
    println!(
        "dataset {:10}  levels: {}  cells: {}  ({} quantities, {:.1} KiB raw)",
        ds.name,
        ds.tree.max_level() + 1,
        ds.tree.cell_count(),
        ds.fields.len(),
        ds.nbytes() as f64 / 1024.0
    );

    let fields: Vec<(&str, &zmesh_amr::AmrField)> =
        ds.fields.iter().map(|(n, f)| (n.as_str(), f)).collect();

    // 2. Compress under each ordering policy with the same codec and bound.
    println!("\n{:<10} {:>12} {:>10}", "ordering", "bytes", "ratio");
    for policy in OrderingPolicy::ALL {
        let config = CompressionConfig {
            policy,
            codec: CodecKind::Sz,
            control: ErrorControl::ValueRangeRelative(1e-4),
        };
        let compressed = StoreWriter::new(config).write(&fields).expect("compress");
        println!(
            "{:<10} {:>12} {:>10.2}",
            policy.label(),
            compressed.stats.container_bytes,
            compressed.stats.ratio()
        );

        // 3. Decompress and verify the error bound end to end.
        let reader = StoreReader::open(&compressed.bytes).expect("open");
        for (name, orig) in &ds.fields {
            let rest = reader.decode_field(name).expect("decompress");
            let err = max_abs_error(orig.values(), rest.values());
            let range: f64 = {
                let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
                for &v in orig.values() {
                    lo = lo.min(v);
                    hi = hi.max(v);
                }
                hi - lo
            };
            assert!(err <= 1e-4 * range * (1.0 + 1e-9), "{name}: bound violated");
        }
    }
    println!("\nerror bounds verified for every policy — zMesh is lossless w.r.t. the bound");
}
