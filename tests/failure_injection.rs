//! Failure injection: corrupted, truncated, and bit-flipped stores must
//! produce typed errors — never panics, hangs, or out-of-bounds behavior.
//! The index CRC and per-chunk CRCs turn every injected fault into a typed
//! error instead of bounded garbage.

use zmesh_amr::datasets::{self, Scale};
use zmesh_amr::StorageMode;
use zmesh_codecs::ErrorControl;
use zmesh_suite::prelude::*;

// The CLI path — distinct exit codes for the same injected failures — is
// covered in crates/cli/tests/cli.rs.

fn store() -> Vec<u8> {
    let ds = datasets::front2d(StorageMode::AllCells, Scale::Tiny);
    let fields: Vec<(&str, &zmesh_amr::AmrField)> =
        ds.fields.iter().map(|(n, f)| (n.as_str(), f)).collect();
    StoreWriter::new(CompressionConfig {
        policy: OrderingPolicy::Hilbert,
        codec: CodecKind::Sz,
        control: ErrorControl::ValueRangeRelative(1e-4),
    })
    .with_chunk_target_bytes(2048)
    .write(&fields)
    .expect("write store")
    .bytes
}

fn store_decode_all(bytes: &[u8]) -> Result<(), zmesh_suite::store::StoreError> {
    let reader = StoreReader::open(bytes)?;
    let names: Vec<String> = reader.field_names().iter().map(|s| s.to_string()).collect();
    for name in names {
        reader.decode_field(&name)?;
    }
    Ok(())
}

#[test]
fn store_truncations_error_cleanly() {
    let bytes = store();
    for cut in 0..bytes.len().min(64) {
        assert!(store_decode_all(&bytes[..cut]).is_err(), "cut = {cut}");
    }
    for frac in 1..20 {
        let cut = bytes.len() * frac / 20;
        assert!(
            store_decode_all(&bytes[..cut]).is_err(),
            "cut at {frac}/20 accepted"
        );
    }
}

#[test]
fn store_single_byte_flips_are_typed_errors_not_garbage() {
    // Every single-byte flip anywhere in the store is *detected* —
    // header/footer flips by the index CRC, payload flips by the per-chunk
    // CRC. (Exception-free: a flip cannot go unnoticed.)
    let bytes = store();
    let mut pos = 7u64;
    for _ in 0..300 {
        pos = pos
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let idx = (pos % bytes.len() as u64) as usize;
        let bit = 1u8 << (pos >> 61);
        let mut corrupted = bytes.clone();
        corrupted[idx] ^= bit;
        assert!(
            store_decode_all(&corrupted).is_err(),
            "flip at byte {idx} bit {bit:#x} went undetected"
        );
    }
}

#[test]
fn store_random_garbage_never_panics() {
    let mut state = 1234u64;
    for len in [0usize, 1, 4, 16, 22, 100, 1000] {
        let mut buf = vec![0u8; len];
        for b in &mut buf {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            *b = (state >> 56) as u8;
        }
        assert!(store_decode_all(&buf).is_err());
    }
}

#[test]
fn swapped_payloads_fail_or_restore_wrong_but_safely() {
    use zmesh_suite::store::open_parts;
    // A store followed by a second copy of itself: trailing bytes must not
    // be accepted.
    let a = store();
    let mut doubled = a.clone();
    doubled.extend_from_slice(&a);
    assert!(
        store_decode_all(&doubled).is_err(),
        "trailing bytes accepted"
    );

    // Graft the payload of a differently ordered store between this one's
    // header and footer: the footer's offsets and CRCs no longer describe
    // the payload, so decoding must fail, never panic.
    let ds = datasets::front2d(StorageMode::AllCells, Scale::Tiny);
    let fields: Vec<(&str, &zmesh_amr::AmrField)> =
        ds.fields.iter().map(|(n, f)| (n.as_str(), f)).collect();
    let b = StoreWriter::new(CompressionConfig {
        policy: OrderingPolicy::ZOrder,
        codec: CodecKind::Sz,
        control: ErrorControl::ValueRangeRelative(1e-4),
    })
    .with_chunk_target_bytes(2048)
    .write(&fields)
    .expect("write store")
    .bytes;
    let (_, _, a_payload) = open_parts(&a).expect("valid store");
    let (_, _, b_payload) = open_parts(&b).expect("valid store");
    let mut grafted = a[..a_payload.start].to_vec();
    grafted.extend_from_slice(&b[b_payload]);
    grafted.extend_from_slice(&a[a_payload.end..]);
    assert!(
        store_decode_all(&grafted).is_err(),
        "grafted payload accepted"
    );
}

#[test]
fn structure_metadata_corruption_is_detected() {
    // Damage the structure block the restore recipe is rebuilt from: the
    // index CRC must reject it before the tree decode runs.
    let bytes = store();
    let header = zmesh_suite::store::peek_header(&bytes).expect("valid store");
    let structure_at = header.header_bytes - header.structure.len();
    for idx in structure_at..header.header_bytes.min(structure_at + 32) {
        let mut corrupted = bytes.clone();
        corrupted[idx] = corrupted[idx].wrapping_add(13);
        assert!(
            store_decode_all(&corrupted).is_err(),
            "structure byte {idx} damage went undetected"
        );
    }
}

/// Corrupts one byte in each of `targets` = (field index, chunk index),
/// located exactly via the shared fault-injection harness.
fn corrupt_chunks(bytes: &mut [u8], targets: &[(usize, usize)]) {
    for &(f, c) in targets {
        zmesh_suite::store::faultinject::flip_data_chunk(bytes, f, c);
    }
}

#[test]
fn salvage_report_names_exactly_the_injected_chunks() {
    use zmesh_suite::store::{ReadPolicy, StoreError};

    let clean = store();
    let full = StoreReader::open(&clean)
        .expect("open clean")
        .decode_field("temperature")
        .expect("clean decode");

    // Inject damage into exactly these chunks of field 0 ("temperature");
    // field 1 stays intact. Both chunks sit in the same parity group
    // (default width 8), so parity cannot rebuild either: both stay Lost.
    let injected = [(0usize, 0usize), (0, 2)];
    let mut bytes = clean.clone();
    corrupt_chunks(&mut bytes, &injected);

    // Strict: typed per-chunk CRC error, nothing salvaged.
    let strict = StoreReader::open(&bytes).expect("open");
    assert!(matches!(
        strict.decode_field("temperature"),
        Err(StoreError::ChunkCrc { .. })
    ));

    // Salvage: succeeds, and the report lists exactly the injected chunks.
    let reader = StoreReader::open(&bytes)
        .expect("open")
        .with_read_policy(ReadPolicy::salvage());
    let (field, report) = reader
        .decode_field_with_report("temperature")
        .expect("salvage decode");
    let mut reported: Vec<(usize, usize)> = report
        .chunks
        .iter()
        .map(|d| {
            assert_eq!(d.field, "temperature");
            assert!(d.values_lost > 0);
            assert!(!d.byte_range.is_empty());
            (0, d.chunk)
        })
        .collect();
    reported.sort_unstable();
    assert_eq!(reported, injected, "report must name exactly what was hit");

    // Surviving cells are bit-identical to the clean decode; lost cells
    // are NaN, and there are exactly as many as the report claims.
    let mut nan = 0usize;
    for (a, b) in field.values().iter().zip(full.values()) {
        if a.is_nan() {
            nan += 1;
        } else {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
    assert_eq!(nan, report.total_values_lost());
    assert_eq!(report.values_lost_in("temperature"), nan);
    assert_eq!(report.values_lost_in("pressure"), 0);

    // The untouched field decodes undamaged under the same policy.
    let (_, untouched) = reader
        .decode_field_with_report("pressure")
        .expect("clean field");
    assert!(untouched.is_empty());
}
