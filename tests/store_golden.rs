//! Golden store bytes: the CRC-32 of whole stores written from seeded
//! timesteps at CLI defaults (Hilbert + SZ at 1e-4 range-relative, XOR-8
//! parity). The writer's output is a byte-level contract — repair
//! reproduces it, and encode optimizations must not move it — so any
//! change to these values is a format change, not a refactor.
//!
//! Both write paths are pinned: the buffered `write` and a streaming
//! `write_to_sink` through a window of three chunks.

use std::sync::Arc;

use zmesh::CompressionConfig;
use zmesh_amr::datasets::{self, Dataset, Scale};
use zmesh_amr::{analytic, AmrField, StorageMode};
use zmesh_store::{StoreWriter, StreamOptions, VecSink};

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

/// `(preset, quantities, chunk target bytes, CRC-32 of the store)`.
const GOLDEN: [(&str, usize, u32, u32); 8] = [
    ("blast2d", 7, 1024, 0x5dca9bac),
    ("blast2d", 7, 64 * 1024, 0x25c450be),
    ("blast2d", 16, 1024, 0x520faa84),
    ("blast2d", 16, 64 * 1024, 0xae6808bb),
    ("cluster3d", 7, 1024, 0x04ddb24e),
    ("cluster3d", 7, 64 * 1024, 0xf668bad6),
    ("cluster3d", 16, 1024, 0xaff3e7e0),
    ("cluster3d", 16, 64 * 1024, 0xb846a11f),
];

#[test]
fn store_bytes_match_the_golden_crcs() {
    let mut got = Vec::new();
    for preset in ["blast2d", "cluster3d"] {
        let ds = timestep(preset, 16);
        for n in [7usize, 16] {
            let fields: Vec<_> = ds.fields[..n]
                .iter()
                .map(|(name, f)| (name.as_str(), f))
                .collect();
            for chunk in [1024u32, 64 * 1024] {
                let writer = StoreWriter::new(CompressionConfig::zmesh_default())
                    .with_chunk_target_bytes(chunk);
                let buffered = writer.write(&fields).expect("buffered write");
                let mut sink = VecSink::new();
                let opts = StreamOptions {
                    window_bytes: 3 * chunk as usize,
                    ..StreamOptions::default()
                };
                writer
                    .write_to_sink(&fields, &mut sink, &opts)
                    .expect("streaming write");
                assert!(
                    sink.bytes() == buffered.bytes.as_slice(),
                    "{preset} ×{n} @ {chunk} B: streaming bytes differ from buffered"
                );
                got.push((preset, n, chunk, zmesh::crc32(&buffered.bytes)));
            }
        }
    }
    for (want, got) in GOLDEN.iter().zip(&got) {
        assert_eq!(
            want, got,
            "store bytes moved: (preset, quantities, chunk bytes, crc)"
        );
    }
    assert_eq!(got.len(), GOLDEN.len());
}
