//! The paper's zero-overhead claim, end to end: the restore recipe is never
//! written; stores differ across ordering policies only in the policy tag
//! and the payload bytes.

use zmesh_amr::datasets::{self, Scale};
use zmesh_amr::StorageMode;
use zmesh_codecs::ErrorControl;
use zmesh_suite::prelude::*;

fn compress(ds: &datasets::Dataset, policy: OrderingPolicy) -> zmesh_suite::store::StoreWritten {
    let fields: Vec<(&str, &zmesh_amr::AmrField)> =
        ds.fields.iter().map(|(n, f)| (n.as_str(), f)).collect();
    StoreWriter::with_options(
        CompressionConfig {
            policy,
            codec: CodecKind::Sz,
            control: ErrorControl::ValueRangeRelative(1e-4),
        },
        StoreWriteOptions {
            chunk_target_bytes: u32::MAX,
            parity: Parity::None,
        },
    )
    .write(&fields)
    .expect("compress")
}

#[test]
fn header_bytes_identical_across_policies() {
    let ds = datasets::diffuse2d(StorageMode::AllCells, Scale::Tiny);
    let sizes: Vec<usize> = OrderingPolicy::ALL
        .iter()
        .map(|&p| compress(&ds, p).stats.metadata_bytes)
        .collect();
    assert_eq!(sizes[0], sizes[1], "zorder metadata != baseline metadata");
    assert_eq!(sizes[1], sizes[2], "hilbert metadata != zorder metadata");
}

#[test]
fn recipe_is_rebuilt_from_container_metadata_alone() {
    // Open a zMesh store in a "fresh process" simulation: only the store
    // bytes exist; the original tree object is dropped.
    let bytes = {
        let ds = datasets::front2d(StorageMode::AllCells, Scale::Tiny);
        compress(&ds, OrderingPolicy::Hilbert).bytes
        // ds (and its tree) dropped here
    };
    let cache = RecipeCache::new();
    let reader = StoreReader::open_with_cache(&bytes, &cache).expect("open from bytes alone");
    let stats = cache.stats();
    assert_eq!(
        (stats.misses, stats.hits),
        (1, 0),
        "recipe must be re-generated, not read"
    );
    // The permutation the reader regenerated is the one the writer used.
    let original = datasets::front2d(StorageMode::AllCells, Scale::Tiny);
    let recipe = RestoreRecipe::build(
        &original.tree,
        OrderingPolicy::Hilbert,
        GroupingMode::Chained,
    );
    let rebuilt = RestoreRecipe::build(
        reader.tree(),
        reader.header().policy,
        reader.header().grouping(),
    );
    assert_eq!(recipe.permutation(), rebuilt.permutation());
    for name in reader.field_names() {
        reader.decode_field(name).expect("decode from bytes alone");
    }
    assert_eq!(reader.fields().len(), 2);
}

#[test]
fn metadata_is_what_any_amr_container_carries() {
    // The store's structure block equals AmrTree::structure_bytes — i.e.
    // zMesh adds no bytes beyond standard AMR metadata.
    let ds = datasets::blast2d(StorageMode::AllCells, Scale::Tiny);
    let c = compress(&ds, OrderingPolicy::Hilbert);
    let header = zmesh_suite::store::peek_header(&c.bytes).expect("parse");
    assert_eq!(header.structure, ds.tree.structure_bytes());
}

#[test]
fn baseline_and_zmesh_payloads_differ_but_sizes_are_honest() {
    let ds = datasets::front2d(StorageMode::AllCells, Scale::Small);
    let base = compress(&ds, OrderingPolicy::LevelOrder);
    let zm = compress(&ds, OrderingPolicy::Hilbert);
    // Reordering changed the payload...
    assert_ne!(base.bytes, zm.bytes);
    // ...and the ratio accounting covers the whole store.
    for c in [&base, &zm] {
        assert_eq!(c.stats.container_bytes, c.bytes.len());
        assert_eq!(
            c.stats.payload_bytes + c.stats.metadata_bytes,
            c.bytes.len()
        );
    }
}
