//! Integration tests for the chunked, indexed v2 store: round-trip and
//! region-query correctness, chunk-selectivity, recipe-cache amortization,
//! and the zero-overhead invariant.

use proptest::prelude::*;
use std::sync::Arc;
use zmesh_amr::datasets::Scale;
use zmesh_amr::{datasets, StorageMode};
use zmesh_codecs::ErrorControl;
use zmesh_suite::prelude::*;

fn config(policy: OrderingPolicy) -> CompressionConfig {
    CompressionConfig {
        policy,
        codec: CodecKind::Sz,
        control: ErrorControl::ValueRangeRelative(1e-4),
    }
}

fn refs(ds: &datasets::Dataset) -> Vec<(&str, &AmrField)> {
    ds.fields.iter().map(|(n, f)| (n.as_str(), f)).collect()
}

/// Satellite: a query touching at most 1/8 of the domain must decode
/// strictly fewer chunks than the store holds — the index actually prunes.
#[test]
fn small_region_decodes_strictly_fewer_chunks() {
    for policy in [OrderingPolicy::ZOrder, OrderingPolicy::Hilbert] {
        let ds = datasets::blast2d(StorageMode::AllCells, Scale::Small);
        let out = StoreWriter::new(config(policy))
            .with_chunk_target_bytes(4 * 1024)
            .write(&refs(&ds))
            .expect("write store");
        let reader = StoreReader::open(&out.bytes).expect("open store");
        let side = reader.tree().level_dims(reader.tree().max_level())[0] as u32;
        // A corner box covering 1/8 of each axis: ≤ 1/64 of the 2-D domain.
        let q = Query::bbox([0, 0, 0], [side / 8 - 1, side / 8 - 1, 0]);
        let r = reader.query("density", &q).expect("query");
        assert!(
            r.chunks_total >= 8,
            "{policy:?}: want a multi-chunk store, got {}",
            r.chunks_total
        );
        assert!(
            r.chunks_decoded < r.chunks_total,
            "{policy:?}: decoded {}/{} chunks for a 1/64-domain query",
            r.chunks_decoded,
            r.chunks_total
        );
        assert!(
            !r.values.is_empty(),
            "{policy:?}: corner query found no cells"
        );
    }
}

/// Satellite: with a shared cache, the Nth write against the same mesh
/// reuses the recipe — no rebuild, and the recipe step gets cheaper.
#[test]
fn recipe_cache_amortizes_across_writes() {
    let ds = datasets::turb3d(StorageMode::AllCells, Scale::Small);
    let writer = StoreWriter::new(config(OrderingPolicy::Hilbert));
    let first = writer.write(&refs(&ds)).expect("first write");
    let second = writer.write(&refs(&ds)).expect("second write");
    assert!(!first.stats.recipe_cache_hit);
    assert!(
        second.stats.recipe_cache_hit,
        "second write must hit the cache"
    );
    // A cache hit is a hash lookup; a miss is a parallel sort over every
    // cell. On a Small mesh the gap is orders of magnitude — require 2x to
    // keep the assertion robust on noisy machines.
    assert!(
        second.stats.recipe_ns * 2 < first.stats.recipe_ns,
        "cache hit ({} ns) not measurably cheaper than build ({} ns)",
        second.stats.recipe_ns,
        first.stats.recipe_ns
    );
    let stats = writer.cache().stats();
    assert_eq!((stats.hits, stats.misses), (1, 1));

    // The cache also serves readers: opening with the writer's cache skips
    // the rebuild.
    let reader = StoreReader::open_with_cache(&second.bytes, writer.cache()).expect("open");
    assert_eq!(writer.cache().stats().hits, 2);
    drop(reader);
}

/// The zero-overhead invariant holds at any chunking: framing is by value
/// count, so index/metadata size is byte-for-byte independent of the
/// ordering policy — no recipe (or anything derived from it) is stored.
#[test]
fn v2_metadata_is_identical_across_policies() {
    let ds = datasets::front2d(StorageMode::AllCells, Scale::Tiny);
    let outs: Vec<_> = OrderingPolicy::ALL
        .iter()
        .map(|&p| {
            StoreWriter::new(config(p))
                .with_chunk_target_bytes(2048)
                .write(&refs(&ds))
                .expect("write store")
        })
        .collect();
    for pair in outs.windows(2) {
        assert_eq!(
            pair[0].stats.metadata_bytes, pair[1].stats.metadata_bytes,
            "index size must not depend on ordering policy"
        );
        assert_eq!(pair[0].stats.n_chunks, pair[1].stats.n_chunks);
    }
    // And the structure block is exactly what any AMR container carries.
    let reader = StoreReader::open(&outs[0].bytes).expect("open");
    assert_eq!(reader.header().structure, ds.tree.structure_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Satellite property: for random presets, policies, and chunk sizes,
    // (a) the chunked store round-trips within the stored error bound and
    // (b) a region query returns bit-identical values to a full decode of
    // the same region.
    #[test]
    fn chunked_store_round_trips_and_queries_match_full_decode(
        preset in prop::sample::select(&["blast2d", "front2d", "advect2d", "turb3d"][..]),
        policy in prop::sample::select(&OrderingPolicy::ALL[..]),
        mode in prop::sample::select(&[StorageMode::LeafOnly, StorageMode::AllCells][..]),
        chunk_kb in 1u32..16,
        corner in any::<bool>(),
    ) {
        let ds = datasets::by_name(preset, mode, Scale::Tiny).expect("preset exists");
        let out = StoreWriter::new(config(policy))
            .with_chunk_target_bytes(chunk_kb * 1024)
            .write(&refs(&ds))
            .expect("write store");
        let reader = StoreReader::open(&out.bytes).expect("open store");

        for (name, original) in &ds.fields {
            // (a) Full decode honors the per-field stored bound.
            let decoded = reader.decode_field(name).expect("decode");
            let entry = reader
                .fields()
                .iter()
                .find(|e| &e.name == name)
                .expect("field entry");
            let bound = entry.resolved_bound.expect("bound recorded");
            for (a, b) in original.values().iter().zip(decoded.values()) {
                prop_assert!((a - b).abs() <= bound * (1.0 + 1e-9));
            }

            // (b) A region query returns exactly the full-decode values.
            let side = reader.tree().level_dims(reader.tree().max_level())[0] as u32;
            let (lo, hi) = if corner {
                ([0u32; 3], [side / 4, side / 4, side / 4])
            } else {
                // z starts at 0 so 2-D meshes (whose cells live at z = 0)
                // are still covered.
                ([side / 3, side / 3, 0], [(2 * side) / 3; 3])
            };
            let r = reader.query(name, &Query::bbox(lo, hi)).expect("query");
            prop_assert!(!r.storage_indices.is_empty());
            prop_assert!(r.chunks_decoded <= r.chunks_total);
            for (&s, &v) in r.storage_indices.iter().zip(&r.values) {
                prop_assert_eq!(v.to_bits(), decoded.values()[s as usize].to_bits());
            }
        }
    }
}

/// Queries work identically through the pipeline extension entry point.
#[test]
fn pipeline_pack_and_shared_tree_arc() {
    let ds = datasets::advect2d(StorageMode::LeafOnly, Scale::Tiny);
    let out = StoreWriter::new(config(OrderingPolicy::Hilbert))
        .write(&refs(&ds))
        .expect("pack");
    let reader = StoreReader::open(&out.bytes).expect("open");
    let field = reader.decode_field("scalar").expect("decode");
    assert!(Arc::ptr_eq(field.tree(), reader.tree()));
    assert_eq!(field.len(), ds.fields[0].1.len());
}

/// Satellite: version negotiation. A writer configured with `Parity::None`
/// emits a v2 store (no parity section, no width field), the default XOR
/// writer a v3, and a Reed–Solomon writer a v4 with a commit record; one
/// reader opens, queries, and full-decodes all three bit-identically, and
/// scrub degrades gracefully where parity is absent.
#[test]
fn reader_round_trips_v2_v3_and_v4_stores() {
    use zmesh_suite::store::{StoreCapabilities, StoreWriteOptions, MIN_STORE_VERSION};

    let ds = datasets::blast2d(StorageMode::AllCells, Scale::Tiny);
    let v2 = StoreWriter::with_options(
        config(OrderingPolicy::Hilbert),
        StoreWriteOptions {
            chunk_target_bytes: 2048,
            parity: Parity::None,
        },
    )
    .write(&refs(&ds))
    .expect("write v2");
    let v3 = StoreWriter::new(config(OrderingPolicy::Hilbert))
        .with_chunk_target_bytes(2048)
        .write(&refs(&ds))
        .expect("write v3");
    let v4 = StoreWriter::new(config(OrderingPolicy::Hilbert))
        .with_chunk_target_bytes(2048)
        .with_parity(Parity::Rs { data: 4, parity: 2 })
        .write(&refs(&ds))
        .expect("write v4");

    let r2 = StoreReader::open(&v2.bytes).expect("reader opens v2");
    let r3 = StoreReader::open(&v3.bytes).expect("open v3");
    let r4 = StoreReader::open(&v4.bytes).expect("open v4");
    assert_eq!(r2.header().version, MIN_STORE_VERSION);
    assert_eq!(r3.header().version, 3);
    assert_eq!(r4.header().version, zmesh_suite::store::STORE_VERSION);
    assert_eq!(
        r2.header().capabilities(),
        StoreCapabilities {
            parity: false,
            erasure_budget: 0
        }
    );
    assert_eq!(
        r3.header().capabilities(),
        StoreCapabilities {
            parity: true,
            erasure_budget: 1
        }
    );
    assert_eq!(
        r4.header().capabilities(),
        StoreCapabilities {
            parity: true,
            erasure_budget: 2
        }
    );
    assert_eq!(v2.stats.parity_bytes, 0);
    assert!(v3.stats.parity_bytes > 0);
    assert!(v4.stats.parity_bytes > v3.stats.parity_bytes / 2);

    // Decoded values are bit-identical across versions: parity changes the
    // container, never the data.
    for name in ["density", "energy"] {
        if !r2.field_names().contains(&name) {
            continue;
        }
        let f2 = r2.decode_field(name).expect("decode v2");
        let f3 = r3.decode_field(name).expect("decode v3");
        let f4 = r4.decode_field(name).expect("decode v4");
        for ((a, b), c) in f2.values().iter().zip(f3.values()).zip(f4.values()) {
            assert_eq!(a.to_bits(), b.to_bits());
            assert_eq!(a.to_bits(), c.to_bits());
        }
        let q = Query::bbox([0, 0, 0], [3, 3, 0]);
        let q2 = r2.query(name, &q).expect("query v2");
        let q3 = r3.query(name, &q).expect("query v3");
        let q4 = r4.query(name, &q).expect("query v4");
        assert_eq!(q2.values, q3.values);
        assert_eq!(q2.values, q4.values);
    }

    // Scrub degrades gracefully on a parity-less store.
    let report = scrub(&v2.bytes).expect("scrub v2");
    assert!(report.is_clean());
    assert!(!report.parity_available);
    assert_eq!(report.parity_chunks, 0);
    let report = scrub(&v3.bytes).expect("scrub v3");
    assert!(report.parity_available);
    assert!(report.parity_chunks > 0);
    let report = scrub(&v4.bytes).expect("scrub v4");
    assert!(report.is_clean());
    assert_eq!(report.parity_shards, 2);
}

/// Satellite: the parity section's cost is bounded by the group width —
/// roughly one parity chunk per `width` data chunks.
#[test]
fn parity_overhead_is_a_small_fraction_of_payload() {
    let ds = datasets::front2d(StorageMode::AllCells, Scale::Small);
    for width in [4u32, 8, 16] {
        let out = StoreWriter::new(config(OrderingPolicy::Hilbert))
            .with_chunk_target_bytes(2048)
            .with_parity_group_width(width)
            .write(&refs(&ds))
            .expect("write store");
        let overhead = out.stats.parity_overhead();
        assert!(
            overhead <= 2.0 / width as f64,
            "width {width}: parity overhead {overhead:.3} exceeds ~1/{width}"
        );
    }
}
