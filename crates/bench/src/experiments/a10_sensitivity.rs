//! A10 — sensitivity to refinement depth and refinement fraction.
//!
//! zMesh's gain should grow with the depth of the hierarchy (more level
//! interleaving in the baseline) and vary smoothly with how much of the
//! domain is refined.

use crate::{header, row, write_store};
use std::sync::Arc;
use zmesh::{CompressionConfig, OrderingPolicy};
use zmesh_amr::datasets::Scale;
use zmesh_amr::{analytic, AmrField, Dim, RefineCriterion, StorageMode, TreeBuilder};
use zmesh_codecs::{CodecKind, ErrorControl};

fn gain_for(levels: u32, threshold: f64, scale: Scale) -> (usize, f64) {
    let base_grid = match scale {
        Scale::Tiny => [16, 16, 1],
        Scale::Small => [32, 32, 1],
        Scale::Standard => [64, 64, 1],
    };
    let field_fn = analytic::tanh_front(77, 0.015);
    let tree = Arc::new(
        TreeBuilder::new(Dim::D2, base_grid, levels)
            .refine_where(RefineCriterion::gradient(field_fn.clone(), threshold).as_fn())
            .build()
            .expect("valid refinement"),
    );
    let field = AmrField::sample(Arc::clone(&tree), StorageMode::AllCells, move |p| {
        field_fn(p)
    });
    let ratio = |policy| {
        let config = CompressionConfig {
            policy,
            codec: CodecKind::Sz,
            control: ErrorControl::ValueRangeRelative(1e-4),
        };
        write_store(config, &[("f", &field)]).stats.ratio()
    };
    let base = ratio(OrderingPolicy::LevelOrder);
    let h = ratio(OrderingPolicy::Hilbert);
    (tree.cell_count(), 100.0 * (h / base - 1.0))
}

/// Prints gain vs depth and gain vs refinement threshold.
pub fn run(scale: Scale) {
    println!("\n## A10: sensitivity (front field, zmesh-h vs baseline, sz)\n");
    println!("### gain vs refinement depth (threshold 0.25)\n");
    header(&["max_level", "cells", "h_gain_%"]);
    for levels in 1..=4u32 {
        let (cells, gain) = gain_for(levels, 0.25, scale);
        row(&[levels.to_string(), cells.to_string(), format!("{gain:.1}")]);
    }
    println!("\n### gain vs refinement threshold (depth 3)\n");
    header(&["threshold", "cells", "h_gain_%"]);
    for threshold in [0.1, 0.2, 0.4, 0.8] {
        let (cells, gain) = gain_for(3, threshold, scale);
        row(&[
            threshold.to_string(),
            cells.to_string(),
            format!("{gain:.1}"),
        ]);
    }
    println!("\nshape check: deeper hierarchies widen the zMesh advantage.");
}
