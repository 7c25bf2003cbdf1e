//! A9 — ablation: ordering policy × grouping mode.
//!
//! Separates the two ingredients of zMesh: the space-filling-curve ordering
//! (works in both storage conventions) and the chained same-coordinate
//! grouping (only exists when coarse covered data is stored).

use crate::{field_refs, header, row, write_store};
use zmesh::{CompressionConfig, OrderingPolicy};
use zmesh_amr::datasets::{self, Scale};
use zmesh_amr::StorageMode;
use zmesh_codecs::{CodecKind, ErrorControl};

/// Prints SZ ratios for every (dataset, storage mode, ordering) combination.
pub fn run(scale: Scale) {
    println!("\n## A9: ablation — ordering x grouping (sz, rel_eb 1e-4)\n");
    header(&[
        "dataset", "storage", "baseline", "zorder", "hilbert", "h_gain_%",
    ]);
    for name in datasets::names() {
        for mode in [StorageMode::LeafOnly, StorageMode::AllCells] {
            let ds = datasets::by_name(name, mode, scale).expect("known preset");
            let ratio = |policy| {
                let config = CompressionConfig {
                    policy,
                    codec: CodecKind::Sz,
                    control: ErrorControl::ValueRangeRelative(1e-4),
                };
                write_store(config, &field_refs(&ds)).stats.ratio()
            };
            let base = ratio(OrderingPolicy::LevelOrder);
            let z = ratio(OrderingPolicy::ZOrder);
            let h = ratio(OrderingPolicy::Hilbert);
            row(&[
                name.to_string(),
                match mode {
                    StorageMode::LeafOnly => "leaf-only".into(),
                    StorageMode::AllCells => "chained".into(),
                },
                format!("{base:.2}"),
                format!("{z:.2}"),
                format!("{h:.2}"),
                format!("{:.1}", 100.0 * (h / base - 1.0)),
            ]);
        }
    }
    println!("\nshape check: gains exist in both modes; chained storage gives zMesh\nextra cross-level redundancy to exploit.");
}
