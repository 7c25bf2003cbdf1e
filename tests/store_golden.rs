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
