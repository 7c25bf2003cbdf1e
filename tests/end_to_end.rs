//! Cross-crate integration: every preset × policy × codec round-trips under
//! its error bound through a one-chunk-per-field store, and random
//! refinement trees round-trip through a chunked one.

use proptest::prelude::*;
use std::sync::Arc;
use zmesh_amr::datasets::{self, Scale};
use zmesh_amr::StorageMode;
use zmesh_codecs::ErrorControl;
use zmesh_metrics::ErrorStats;
use zmesh_suite::prelude::*;

/// Whole-field streams: one chunk per field, no parity.
fn one_chunk_writer(config: CompressionConfig) -> StoreWriter {
    StoreWriter::with_options(
        config,
        StoreWriteOptions {
            chunk_target_bytes: u32::MAX,
            parity: Parity::None,
        },
    )
}

fn refs(fields: &[(String, AmrField)]) -> Vec<(&str, &AmrField)> {
    fields.iter().map(|(n, f)| (n.as_str(), f)).collect()
}

/// Every field of a store, decoded, in store order.
fn decode_all(bytes: &[u8]) -> Result<Vec<(String, AmrField)>, StoreError> {
    let reader = StoreReader::open(bytes)?;
    reader
        .field_names()
        .into_iter()
        .map(|name| Ok((name.to_string(), reader.decode_field(name)?)))
        .collect()
}

fn check_dataset(ds: &datasets::Dataset, rel_eb: f64) {
    let fields = refs(&ds.fields);
    for policy in OrderingPolicy::ALL {
        for codec in [CodecKind::Sz, CodecKind::Zfp] {
            let config = CompressionConfig {
                policy,
                codec,
                control: ErrorControl::ValueRangeRelative(rel_eb),
            };
            let store = one_chunk_writer(config)
                .write(&fields)
                .unwrap_or_else(|e| panic!("{}/{policy:?}/{codec:?}: {e}", ds.name));
            assert_eq!(store.stats.n_chunks, 1);
            let reader = StoreReader::open(&store.bytes)
                .unwrap_or_else(|e| panic!("{}/{policy:?}/{codec:?}: {e}", ds.name));
            assert_eq!(reader.header().policy, policy);
            assert_eq!(reader.tree().cell_count(), ds.tree.cell_count());
            let restored = decode_all(&store.bytes)
                .unwrap_or_else(|e| panic!("{}/{policy:?}/{codec:?}: {e}", ds.name));
            assert_eq!(restored.len(), ds.fields.len());
            for ((name, orig), (rname, rest)) in ds.fields.iter().zip(&restored) {
                assert_eq!(name, rname);
                let stats = ErrorStats::between(orig.values(), rest.values());
                let bound = rel_eb * stats.range;
                assert!(
                    stats.max_abs <= bound * (1.0 + 1e-9),
                    "{}/{policy:?}/{codec:?}/{name}: {} > {bound}",
                    ds.name,
                    stats.max_abs
                );
            }
        }
    }
}

#[test]
fn every_preset_round_trips_tiny() {
    for mode in [StorageMode::LeafOnly, StorageMode::AllCells] {
        for name in datasets::names() {
            let ds = datasets::by_name(name, mode, Scale::Tiny).expect("known preset");
            check_dataset(&ds, 1e-4);
        }
    }
}

#[test]
fn representative_presets_round_trip_small() {
    for name in ["front2d", "cluster3d"] {
        let ds = datasets::by_name(name, StorageMode::AllCells, Scale::Small).unwrap();
        check_dataset(&ds, 1e-3);
        check_dataset(&ds, 1e-6);
    }
}

#[test]
fn compression_is_deterministic() {
    let ds = datasets::blast2d(StorageMode::AllCells, Scale::Tiny);
    let fields = refs(&ds.fields);
    let config = CompressionConfig {
        policy: OrderingPolicy::Hilbert,
        codec: CodecKind::Sz,
        control: ErrorControl::ValueRangeRelative(1e-4),
    };
    let a = one_chunk_writer(config).write(&fields).unwrap();
    let b = one_chunk_writer(config).write(&fields).unwrap();
    assert_eq!(a.bytes, b.bytes, "stores must be bit-reproducible");
}

#[test]
fn decompressed_container_recompresses_identically() {
    // Idempotence: decompress(compress(x)) compressed again with the same
    // config decodes to the same values (the data is now exactly
    // representable).
    let ds = datasets::front2d(StorageMode::AllCells, Scale::Tiny);
    let config = CompressionConfig {
        policy: OrderingPolicy::ZOrder,
        codec: CodecKind::Sz,
        control: ErrorControl::Absolute(1e-3),
    };
    let c1 = one_chunk_writer(config).write(&refs(&ds.fields)).unwrap();
    let d1 = decode_all(&c1.bytes).unwrap();
    let c2 = one_chunk_writer(config).write(&refs(&d1)).unwrap();
    let d2 = decode_all(&c2.bytes).unwrap();
    // Second generation is a fixed point: values identical.
    for ((_, a), (_, b)) in d1.iter().zip(&d2) {
        assert_eq!(a.values(), b.values());
    }
}

/// A random 2-D tree: refinement decided by hashing cell centers with a
/// seed.
fn random_tree(seed: u64, levels: u32, density: u8) -> Arc<AmrTree> {
    Arc::new(
        TreeBuilder::new(Dim::D2, [4, 4, 1], levels)
            .refine_where(|level, center, _| {
                let h = seed
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add((center[0] * 1e6) as u64)
                    .wrapping_add(((center[1] * 1e6) as u64) << 20)
                    .wrapping_add(u64::from(level) << 60);
                let h = (h ^ (h >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                (h >> 56) as u8 <= density
            })
            .build()
            .expect("random refinement sets are structurally valid"),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn store_round_trip_respects_bound_on_random_trees(
        seed in any::<u64>(),
        levels in 1u32..3,
        density in 40u8..140,
        policy in prop::sample::select(&OrderingPolicy::ALL[..]),
        codec in prop::sample::select(&[CodecKind::Sz, CodecKind::Zfp][..]),
        chunk_bytes in prop::sample::select(&[64u32, 1024, u32::MAX][..]),
    ) {
        let tree = random_tree(seed, levels, density);
        let field = AmrField::sample(Arc::clone(&tree), StorageMode::AllCells, move |p| {
            (p[0] * 7.3 + seed as f64 * 0.01).sin() * (p[1] * 5.1).cos()
        });
        let config = CompressionConfig {
            policy,
            codec,
            control: ErrorControl::ValueRangeRelative(1e-4),
        };
        let store = StoreWriter::new(config)
            .with_chunk_target_bytes(chunk_bytes)
            .write(&[("f", &field)])
            .unwrap();
        let restored = StoreReader::open(&store.bytes).unwrap().decode_field("f").unwrap();
        let stats = ErrorStats::between(field.values(), restored.values());
        let bound = 1e-4 * stats.range;
        prop_assert!(stats.max_abs <= bound * (1.0 + 1e-9) + 1e-300);
    }
}
