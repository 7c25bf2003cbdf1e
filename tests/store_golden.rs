//! Golden store bytes: the CRC-32 of whole stores written from seeded
//! timesteps at CLI defaults (Hilbert + SZ at 1e-4 range-relative, XOR-8
//! parity), plus the same timesteps without parity (v2) and under
//! Reed–Solomon 4+2 (v4). The writer's output is a byte-level contract —
//! repair reproduces it, and encode optimizations must not move it — so
//! any change to these values is a format change, not a refactor.
//!
//! Every row is written twice — by `write` (an unbounded window) and by
//! `write_to_sink` through a window of three chunks — and both must give
//! the pinned bytes.

use std::sync::Arc;

use zmesh::CompressionConfig;
use zmesh_amr::datasets::{self, Dataset, Scale};
use zmesh_amr::{analytic, AmrField, StorageMode};
use zmesh_store::{Parity, StoreWriter, StreamOptions, VecSink};

const SEED: u64 = 11;

/// A preset mesh with its own quantities plus seeded multi-scale ones up
/// to `n_quantities` — the shape of one simulation timestep dump.
fn timestep(preset: &str, n_quantities: usize) -> Dataset {
    let mut ds =
        datasets::by_name(preset, StorageMode::AllCells, Scale::Small).expect("built-in preset");
    let tree = Arc::clone(&ds.tree);
    for q in ds.fields.len()..n_quantities {
        let noise = analytic::multiscale(
            SEED.wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(q as u64),
            5,
        );
        let field =
            AmrField::sample_restricted(Arc::clone(&tree), StorageMode::AllCells, |p| noise(p));
        ds.fields.push((format!("q{q:02}"), field));
    }
    ds
}

const XOR8: Parity = Parity::Xor { width: 8 };
const RS42: Parity = Parity::Rs { data: 4, parity: 2 };

/// `(preset, quantities, chunk target bytes, parity, CRC-32 of the store)`.
const GOLDEN: [(&str, usize, u32, Parity, u32); 16] = [
    ("blast2d", 7, 1024, XOR8, 0x5dca9bac),
    ("blast2d", 7, 64 * 1024, XOR8, 0x25c450be),
    ("blast2d", 16, 1024, XOR8, 0x520faa84),
    ("blast2d", 16, 64 * 1024, XOR8, 0xae6808bb),
    ("cluster3d", 7, 1024, XOR8, 0x04ddb24e),
    ("cluster3d", 7, 64 * 1024, XOR8, 0xf668bad6),
    ("cluster3d", 16, 1024, XOR8, 0xaff3e7e0),
    ("cluster3d", 16, 64 * 1024, XOR8, 0xb846a11f),
    ("blast2d", 7, 1024, Parity::None, 0x353f3ab1),
    ("blast2d", 16, 1024, Parity::None, 0x40389e95),
    ("cluster3d", 7, 1024, Parity::None, 0xa24793ed),
    ("cluster3d", 16, 1024, Parity::None, 0x64c05d10),
    ("blast2d", 7, 1024, RS42, 0x230dcd0f),
    ("blast2d", 16, 1024, RS42, 0xa6d9d3c4),
    ("cluster3d", 7, 1024, RS42, 0x0bfede10),
    ("cluster3d", 16, 1024, RS42, 0x054282c8),
];

#[test]
fn store_bytes_match_the_golden_crcs() {
    let timesteps = [
        ("blast2d", timestep("blast2d", 16)),
        ("cluster3d", timestep("cluster3d", 16)),
    ];
    for &(preset, n, chunk, parity, crc) in &GOLDEN {
        let (_, ds) = timesteps
            .iter()
            .find(|(p, _)| *p == preset)
            .expect("preset built");
        let fields: Vec<_> = ds.fields[..n]
            .iter()
            .map(|(name, f)| (name.as_str(), f))
            .collect();
        let writer = StoreWriter::new(CompressionConfig::zmesh_default())
            .with_chunk_target_bytes(chunk)
            .with_parity(parity);
        let unbounded = writer.write(&fields).expect("unbounded write");
        let mut sink = VecSink::new();
        let opts = StreamOptions {
            window_bytes: 3 * chunk as usize,
            ..StreamOptions::default()
        };
        writer
            .write_to_sink(&fields, &mut sink, &opts)
            .expect("windowed write");
        assert!(
            sink.bytes() == unbounded.bytes.as_slice(),
            "{preset} ×{n} @ {chunk} B {parity:?}: windowed bytes differ from unbounded"
        );
        assert_eq!(
            zmesh::crc32(&unbounded.bytes),
            crc,
            "store bytes moved: {preset} ×{n} @ {chunk} B {parity:?}"
        );
    }
}

const SZ: zmesh_codecs::CodecKind = zmesh_codecs::CodecKind::Sz;
const ZFP: zmesh_codecs::CodecKind = zmesh_codecs::CodecKind::Zfp;
const LEVEL: zmesh::OrderingPolicy = zmesh::OrderingPolicy::LevelOrder;
const HILBERT: zmesh::OrderingPolicy = zmesh::OrderingPolicy::Hilbert;

/// `(preset, codec, ordering, CRC-32 of each field's payload)`.
type OneChunkRow = (
    &'static str,
    zmesh_codecs::CodecKind,
    zmesh::OrderingPolicy,
    [u32; 2],
);

/// CRC-32 of every field's whole-stream codec payload for each preset at
/// Tiny scale (all cells, range-relative 1e-4), as the retired single-blob
/// container held them. A store written with one chunk per field and no
/// parity must hold exactly these payloads: one chunk per field whose
/// footer CRC is the pinned one. This keeps the experiments' numbers
/// comparable with results measured on that container.
const ONE_CHUNK_PAYLOADS: [OneChunkRow; 32] = [
    ("front2d", SZ, LEVEL, [0xad6a6933, 0x11a25112]),
    ("front2d", SZ, HILBERT, [0x9ffff484, 0x51bd64be]),
    ("front2d", ZFP, LEVEL, [0xd550859b, 0xcd182001]),
    ("front2d", ZFP, HILBERT, [0xaaba41e0, 0x927b772c]),
    ("blast2d", SZ, LEVEL, [0xc67dc95c, 0x0cf9d400]),
    ("blast2d", SZ, HILBERT, [0x8b670e70, 0x4782ceb9]),
    ("blast2d", ZFP, LEVEL, [0xba5aa195, 0x4886d694]),
    ("blast2d", ZFP, HILBERT, [0xf1ab2120, 0xc71fefa6]),
    ("advect2d", SZ, LEVEL, [0xeb0ddc71, 0x6d578124]),
    ("advect2d", SZ, HILBERT, [0x12f74701, 0x1d964317]),
    ("advect2d", ZFP, LEVEL, [0xeacab926, 0x0122d650]),
    ("advect2d", ZFP, HILBERT, [0x2bdb8dbe, 0x6cfe8b62]),
    ("diffuse2d", SZ, LEVEL, [0x8e86fd25, 0x6a90aecd]),
    ("diffuse2d", SZ, HILBERT, [0x8040bc70, 0xeb7ff879]),
    ("diffuse2d", ZFP, LEVEL, [0x5039ced0, 0x6d24c4ac]),
    ("diffuse2d", ZFP, HILBERT, [0x70d392e2, 0xe6c02b41]),
    ("shock2d", SZ, LEVEL, [0x271d2b15, 0xe21c69c0]),
    ("shock2d", SZ, HILBERT, [0x5907bc4e, 0xb4beb254]),
    ("shock2d", ZFP, LEVEL, [0x0afffc9f, 0x6aef2e29]),
    ("shock2d", ZFP, HILBERT, [0xc5b84a9a, 0xeddb3ece]),
    ("kh2d", SZ, LEVEL, [0x842e17ff, 0x2183fd52]),
    ("kh2d", SZ, HILBERT, [0x78800bd5, 0x5698123d]),
    ("kh2d", ZFP, LEVEL, [0x741b828c, 0x6d0d22b5]),
    ("kh2d", ZFP, HILBERT, [0x25110c83, 0xd63f2380]),
    ("cluster3d", SZ, LEVEL, [0x93523fa7, 0x42ad4ba3]),
    ("cluster3d", SZ, HILBERT, [0x8ccb1b77, 0xc2da80cc]),
    ("cluster3d", ZFP, LEVEL, [0xef7c5ed9, 0x609e02de]),
    ("cluster3d", ZFP, HILBERT, [0x41f205aa, 0x84c21d83]),
    ("turb3d", SZ, LEVEL, [0xac7a633d, 0x4828949f]),
    ("turb3d", SZ, HILBERT, [0x0a871ffa, 0x19ba254e]),
    ("turb3d", ZFP, LEVEL, [0x8caef8f6, 0x031afb31]),
    ("turb3d", ZFP, HILBERT, [0x63ca5031, 0x2b7ca0c1]),
];

#[test]
fn one_chunk_stores_hold_the_pinned_whole_field_payloads() {
    for &(preset, codec, policy, crcs) in &ONE_CHUNK_PAYLOADS {
        let ds =
            datasets::by_name(preset, StorageMode::AllCells, Scale::Tiny).expect("built-in preset");
        let fields: Vec<_> = ds
            .fields
            .iter()
            .map(|(name, f)| (name.as_str(), f))
            .collect();
        let config = CompressionConfig {
            policy,
            codec,
            control: zmesh_codecs::ErrorControl::ValueRangeRelative(1e-4),
        };
        let options = zmesh_store::StoreWriteOptions {
            chunk_target_bytes: u32::MAX,
            parity: Parity::None,
        };
        let out = StoreWriter::with_options(config, options)
            .write(&fields)
            .expect("write");
        let reader = zmesh_store::StoreReader::open(&out.bytes).expect("open");
        let got: Vec<(usize, u32)> = reader
            .fields()
            .iter()
            .map(|e| (e.chunks.len(), e.chunks[0].crc))
            .collect();
        assert_eq!(
            got,
            crcs.map(|crc| (1, crc)),
            "one-chunk payloads moved: {preset} {codec:?} {policy:?}"
        );
    }
}
