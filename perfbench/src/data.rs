//! Seeded inputs shared by the workloads: timesteps, store layouts, query
//! boxes, and the checks that compare read-back values with the source.

use std::path::Path;
use std::sync::Arc;

use rand::{rngs::StdRng, Rng};
use zmesh::CompressionConfig;
use zmesh_amr::datasets::{self, Dataset, Scale};
use zmesh_amr::{analytic, AmrField, AmrTree, Dim, StorageMode};
use zmesh_store::{Query, StoreError, StoreWriter};

/// The pack layout's chunk target: `zmesh pack`'s default (64 KiB) at
/// Standard scale. Smaller scales shrink it with the data, so a field
/// still spans several chunks.
pub fn pack_chunk_bytes(scale: Scale) -> u32 {
    match scale {
        Scale::Tiny => 1024,
        Scale::Small | Scale::Standard => 64 * 1024,
    }
}
/// Serving layout: small chunks, as `zmesh bench-serve` packs them.
pub const SERVE_CHUNK_BYTES: u32 = 2 * 1024;

/// A writer at CLI defaults (Hilbert + SZ at 1e-4 range-relative, XOR-8
/// parity) with the given chunk target and a private recipe cache, as one
/// `zmesh pack` process has.
pub fn writer(chunk_bytes: u32) -> StoreWriter {
    StoreWriter::new(CompressionConfig::zmesh_default()).with_chunk_target_bytes(chunk_bytes)
}

/// One timestep: a preset mesh with its own quantities plus seeded
/// multi-scale quantities up to `n_quantities`.
pub fn timestep(preset: &str, scale: Scale, n_quantities: usize, seed: u64) -> Dataset {
    let mut ds = datasets::by_name(preset, StorageMode::AllCells, scale).expect("built-in preset");
    let tree = Arc::clone(&ds.tree);
    for q in ds.fields.len()..n_quantities {
        let noise = analytic::multiscale(
            seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(q as u64),
            5,
        );
        let field =
            AmrField::sample_restricted(Arc::clone(&tree), StorageMode::AllCells, |p| noise(p));
        ds.fields.push((format!("q{q:02}"), field));
    }
    ds
}

pub fn field_refs(ds: &Dataset) -> Vec<(&str, &AmrField)> {
    ds.fields.iter().map(|(n, f)| (n.as_str(), f)).collect()
}

/// Writes `ds` to `path` at the given chunk target, as `zmesh pack` does.
pub fn pack_to(ds: &Dataset, chunk_bytes: u32, path: &Path) -> Result<usize, StoreError> {
    let out = writer(chunk_bytes).write_to_path(&field_refs(ds), path)?;
    Ok(out.stats.container_bytes)
}

/// Finest-grid extent per axis (1 on unused axes).
pub fn finest_dims(tree: &AmrTree) -> [u32; 3] {
    let d = tree.level_dims(tree.max_level());
    [d[0] as u32, d[1] as u32, d[2].max(1) as u32]
}

/// Boxes 1/`den` of the domain per axis: 16 in 2-D, 8 in 3-D, so a
/// query covers a comparable share of cells on either mesh.
pub fn query_den(tree: &AmrTree) -> u32 {
    match tree.dim() {
        Dim::D2 => 16,
        Dim::D3 => 8,
    }
}

/// A seeded box spanning 1/`den` of the domain on each used axis.
pub fn random_box(tree: &AmrTree, den: u32, rng: &mut StdRng) -> Query {
    let dims = finest_dims(tree);
    let rank = tree.dim().rank();
    let (mut lo, mut hi) = ([0u32; 3], [0u32; 3]);
    for a in 0..rank {
        let w = (dims[a] / den).max(1);
        lo[a] = rng.gen_range(0..dims[a] - w + 1);
        hi[a] = lo[a] + w - 1;
    }
    Query::bbox(lo, hi)
}

/// The `i`-th tile of an `n`-per-axis tiling of the domain.
pub fn tile(tree: &AmrTree, per_axis: u32, i: u32) -> Query {
    let dims = finest_dims(tree);
    let rank = tree.dim().rank();
    let (mut lo, mut hi) = ([0u32; 3], [0u32; 3]);
    let mut rest = i;
    for a in 0..rank {
        let w = (dims[a] / per_axis).max(1);
        let k = rest % per_axis;
        rest /= per_axis;
        lo[a] = k * w;
        hi[a] = (k + 1) * w - 1;
    }
    Query::bbox(lo, hi)
}

/// The `bbox=` query parameter for `q` on a mesh of `rank` axes.
pub fn bbox_param(q: &Query, rank: usize) -> String {
    let lo: Vec<String> = q.bbox_lo[..rank].iter().map(u32::to_string).collect();
    let hi: Vec<String> = q.bbox_hi[..rank].iter().map(u32::to_string).collect();
    format!("{}:{}", lo.join(","), hi.join(","))
}

/// Storage indices a query must return: every cell (all-cells storage)
/// whose finest-grid footprint intersects the box.
pub fn expected_selection(tree: &AmrTree, q: &Query) -> Vec<u32> {
    let rank = tree.dim().rank();
    tree.cells()
        .iter()
        .enumerate()
        .filter(|(_, cell)| {
            let side = 1u32 << (tree.max_level() - cell.level);
            let a = tree.anchor(cell);
            let lo = [a.x, a.y, a.z];
            (0..rank).all(|k| lo[k] <= q.bbox_hi[k] && q.bbox_lo[k] < lo[k] + side)
        })
        .map(|(i, _)| i as u32)
        .collect()
}

/// Whether `values` at `indices` are within `bound` of `source` pointwise.
pub fn within_bound(source: &[f64], indices: &[u32], values: &[f64], bound: f64) -> bool {
    let original: Vec<f64> = indices.iter().map(|&i| source[i as usize]).collect();
    original.len() == values.len()
        && zmesh_metrics::max_abs_error(&original, values) <= bound * (1.0 + 1e-9)
}

/// Whether a decoded field matches its source within `bound` everywhere.
pub fn field_within_bound(source: &[f64], decoded: &[f64], bound: f64) -> bool {
    source.len() == decoded.len()
        && zmesh_metrics::max_abs_error(source, decoded) <= bound * (1.0 + 1e-9)
}
