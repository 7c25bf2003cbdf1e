//! Panic-safety property suite for the untrusted read path.
//!
//! Every parser that accepts bytes from disk — the v2/v3/v4 store
//! ([`zmesh_suite::store::open_parts`], [`StoreReader::open`],
//! [`zmesh_suite::store::scrub`], [`zmesh_suite::store::repair`]) and the
//! codecs behind it — must return an `Err` on hostile input, never panic,
//! abort, or wrap around.
//! (A torn v4 tail is an `Err` too — [`StoreError::Torn`] — just a typed
//! one.) The suite feeds each of them:
//!
//! * truncations of a valid artifact at every kind of boundary,
//! * multi-bit flips of a valid artifact (which may land in varint
//!   length fields, CRCs, or payload),
//! * runs of `0xff` splatted over a valid artifact (the worst case for
//!   LEB128-style varint lengths: maximal continuation bytes),
//! * footer mangles *re-signed* with a correct trailer CRC and commit
//!   record, so attacker-controlled counts reach `read_footer` itself,
//! * pure random garbage.
//!
//! Failures here are exactly the class fixed by the checked-add hardening
//! in the store footer parser: in debug builds an
//! unchecked `pos + len` panics on overflow, in release it wraps and can
//! slice out of bounds.

use proptest::prelude::*;
use std::sync::OnceLock;
use zmesh_amr::datasets::{self, Scale};
use zmesh_amr::StorageMode;
use zmesh_codecs::ErrorControl;
use zmesh_suite::prelude::*;
use zmesh_suite::store::{self, ReadPolicy, StoreReader, StoreWriter};

fn config() -> CompressionConfig {
    CompressionConfig {
        policy: OrderingPolicy::Hilbert,
        codec: CodecKind::Sz,
        control: ErrorControl::ValueRangeRelative(1e-4),
    }
}

fn refs(ds: &datasets::Dataset) -> Vec<(&str, &AmrField)> {
    ds.fields.iter().map(|(n, f)| (n.as_str(), f)).collect()
}

/// A valid one-chunk-per-field v2 store (whole-field codec streams),
/// built once.
fn one_chunk_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let ds = datasets::blast2d(StorageMode::AllCells, Scale::Tiny);
        StoreWriter::with_options(
            config(),
            StoreWriteOptions {
                chunk_target_bytes: u32::MAX,
                parity: Parity::None,
            },
        )
        .write(&refs(&ds))
        .expect("write fixture")
        .bytes
    })
}

/// A valid v3 store with several chunks per field, built once.
fn v2_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let ds = datasets::front2d(StorageMode::AllCells, Scale::Tiny);
        StoreWriter::new(config())
            .with_chunk_target_bytes(1024)
            .write(&refs(&ds))
            .expect("write fixture")
            .bytes
    })
}

/// A valid v4 Reed–Solomon store (commit record, shard groups), built once.
fn v4_bytes() -> &'static [u8] {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| {
        let ds = datasets::front2d(StorageMode::AllCells, Scale::Tiny);
        StoreWriter::new(config())
            .with_chunk_target_bytes(1024)
            .with_parity(Parity::Rs { data: 4, parity: 2 })
            .write(&refs(&ds))
            .expect("write fixture")
            .bytes
    })
}

/// Picks a store-generation fixture: 0 = one-chunk v2 store, 1 = v3 XOR
/// store, 2 = v4 RS store.
fn fixture(kind: usize) -> &'static [u8] {
    match kind {
        0 => one_chunk_bytes(),
        1 => v2_bytes(),
        _ => v4_bytes(),
    }
}

/// Runs every untrusted entry point over `bytes`. Reaching the end of this
/// function without a panic IS the property; the `Result`s are free to be
/// `Err` anything.
fn must_not_panic(bytes: &[u8]) {
    let _ = store::peek_header(bytes);
    let _ = store::open_parts(bytes);
    let _ = store::scrub(bytes);
    let _ = store::repair(bytes, None);
    let _ = store::repair(bytes, Some(bytes));
    for policy in [
        ReadPolicy::Strict,
        ReadPolicy::Salvage {
            fill: store::SalvageFill::Nan,
        },
        ReadPolicy::Salvage {
            fill: store::SalvageFill::Zero,
        },
    ] {
        if let Ok(reader) = StoreReader::open(bytes) {
            let reader = reader.with_read_policy(policy);
            for name in reader.field_names() {
                let _ = reader.decode_field_with_report(name);
                let _ = reader.query(name, &Query::bbox([0, 0, 0], [u32::MAX; 3]));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn truncated_artifacts_error_instead_of_panicking(
        kind in 0usize..3,
        frac in 0.0f64..1.0,
    ) {
        let valid = fixture(kind);
        let cut = ((valid.len() as f64) * frac) as usize;
        must_not_panic(&valid[..cut.min(valid.len())]);
    }

    #[test]
    fn bit_flipped_artifacts_error_instead_of_panicking(
        kind in 0usize..3,
        flips in prop::collection::vec((0usize..1 << 16, 0u8..8), 1..8),
    ) {
        let valid = fixture(kind);
        let mut bytes = valid.to_vec();
        for (pos, bit) in flips {
            let i = pos % bytes.len();
            bytes[i] ^= 1 << bit;
        }
        must_not_panic(&bytes);
    }

    #[test]
    fn varint_mangled_artifacts_error_instead_of_panicking(
        kind in 0usize..3,
        start in 0usize..1 << 16,
        run in 1usize..32,
        fill in prop::sample::select(&[0xffu8, 0x80, 0x7f, 0x00][..]),
    ) {
        // Saturate a run of bytes with varint worst cases: all-ones and
        // continuation-bit patterns decode as huge or never-ending LEB128
        // lengths wherever they land on a length field.
        let valid = fixture(kind);
        let mut bytes = valid.to_vec();
        let start = start % bytes.len();
        let end = (start + run).min(bytes.len());
        bytes[start..end].fill(fill);
        must_not_panic(&bytes);
    }

    #[test]
    fn footer_mangled_behind_valid_crcs_errors_instead_of_panicking(
        v4 in any::<bool>(),
        pos in 0usize..1 << 16,
        run in 1usize..24,
        fill in prop::sample::select(&[0xffu8, 0x80, 0x7f, 0x01][..]),
    ) {
        // The nastiest footer attack: tamper with the index, then re-sign
        // it. The trailer CRC (and, on v4, the commit record) is patched to
        // match the mangled bytes, so the parser walks straight past every
        // integrity gate and `read_footer` consumes the attacker-controlled
        // chunk/parity counts directly — exactly where the checked
        // arithmetic must hold the line.
        let valid = if v4 { v4_bytes() } else { v2_bytes() };
        let mut bytes = valid.to_vec();
        let body_len = if v4 {
            bytes.len() - store::COMMIT_RECORD_BYTES
        } else {
            bytes.len()
        };
        let trailer_at = body_len - store::TRAILER_BYTES;
        let footer_at =
            u64::from_le_bytes(bytes[trailer_at..trailer_at + 8].try_into().unwrap()) as usize;
        let header_bytes = store::peek_header(&bytes).expect("valid fixture").header_bytes;

        let start = footer_at + pos % (trailer_at - footer_at);
        let end = (start + run).min(trailer_at);
        bytes[start..end].fill(fill);

        let mut signed = bytes[..header_bytes].to_vec();
        signed.extend_from_slice(&bytes[footer_at..trailer_at]);
        let crc = zmesh::crc32(&signed).to_le_bytes();
        bytes[trailer_at + 8..trailer_at + 12].copy_from_slice(&crc);
        if v4 {
            bytes[body_len + 8..body_len + 12].copy_from_slice(&crc);
            let self_crc = zmesh::crc32(&bytes[body_len..body_len + 12]).to_le_bytes();
            bytes[body_len + 12..body_len + 16].copy_from_slice(&self_crc);
        }
        must_not_panic(&bytes);
    }

    #[test]
    fn random_garbage_errors_instead_of_panicking(
        bytes in prop::collection::vec(any::<u8>(), 0..4096),
        magic in any::<bool>(),
    ) {
        // Half the cases get a valid magic prefix so parsing proceeds past
        // the first gate into the length-field logic.
        let mut bytes = bytes;
        if magic && bytes.len() >= 4 {
            bytes[..4].copy_from_slice(&store::STORE_MAGIC);
        }
        must_not_panic(&bytes);
    }
}

/// LEB128, as the structure metadata writes its integers.
fn varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// A structure blob: 2-D, 8-cell patches, then `ints` as varints
/// (ranks, base x/y/z, max level, per-level counts and deltas).
fn structure_blob(ints: &[u64]) -> Vec<u8> {
    let mut out = b"AMT1".to_vec();
    out.push(Dim::D2.tag());
    out.push(3);
    for &v in ints {
        varint(&mut out, v);
    }
    out
}

#[test]
fn hostile_structure_headers_are_typed_errors() {
    use zmesh_amr::AmrError;
    // 17 bytes that declare 2^40 refined cells at level 0: the count must be
    // checked against the bytes left before it sizes an allocation.
    let huge_count = structure_blob(&[1, 4, 4, 1, 1, 1 << 40]);
    assert_eq!(huge_count.len(), 17);
    // Out-of-range ranks and depth must not be truncated to a valid value.
    let wide_ranks = structure_blob(&[(1 << 32) + 1, 4, 4, 1, 0]);
    let wide_depth = structure_blob(&[1, 4, 4, 1, (1 << 32) + 3, 0, 0, 0]);
    // Deltas whose running sum overflows a key.
    let overflow = structure_blob(&[1, 4, 4, 1, 1, 2, 1, u64::MAX]);
    for blob in [huge_count, wide_ranks, wide_depth, overflow] {
        let got = std::panic::catch_unwind(|| AmrTree::from_structure_bytes(&blob));
        assert!(
            matches!(got, Ok(Err(AmrError::Corrupt(_)))),
            "{blob:?} -> {got:?}"
        );
    }
    // The same bytes with honest values still decode.
    let honest = structure_blob(&[1, 4, 4, 1, 1, 1, 2]);
    let tree = AmrTree::from_structure_bytes(&honest).expect("valid structure");
    assert_eq!(tree.structure_bytes(), honest);
}

#[test]
fn hostile_dataset_value_count_is_rejected_before_allocating() {
    use zmesh_amr::AmrError;
    // A Tiny `.zmd` whose first field claims 2^40 values (8 TiB): the
    // loader must compare the count with the tree before it reserves.
    let ds = datasets::blast2d(StorageMode::AllCells, Scale::Tiny);
    let (fname, field) = &ds.fields[0];
    let mut head = b"ZMD1".to_vec();
    varint(&mut head, ds.name.len() as u64);
    head.extend_from_slice(ds.name.as_bytes());
    let structure = ds.tree.structure_bytes();
    varint(&mut head, structure.len() as u64);
    head.extend_from_slice(&structure);
    head.push(ds.mode().tag());
    varint(&mut head, 1);
    varint(&mut head, fname.len() as u64);
    head.extend_from_slice(fname.as_bytes());
    let values: Vec<u8> = field
        .values()
        .iter()
        .flat_map(|v| v.to_le_bytes())
        .collect();

    let dir = std::env::temp_dir().join(format!("zmesh-hostile-zmd-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("hostile.zmd");
    for (count, honest) in [(field.len() as u64, true), (1 << 40, false)] {
        let mut bytes = head.clone();
        varint(&mut bytes, count);
        bytes.extend_from_slice(&values);
        std::fs::write(&path, &bytes).expect("write dataset");
        let got = zmesh_amr::load_dataset(&path);
        if honest {
            assert_eq!(
                got.expect("honest count loads").fields[0].1.values(),
                field.values()
            );
        } else {
            assert!(matches!(got, Err(AmrError::Corrupt(_))), "{:?}", got.err());
        }
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn hostile_base_grid_is_rejected_before_the_tree_decode() {
    // A valid store whose structure is swapped for one declaring a
    // 65535 × 65535 level-0 grid (passes the u32 cell bound; ~34 GB of cell
    // keys), re-signed so the index CRC holds: open must compare the base
    // grid with the footer's value capacity before allocating per cell.
    let valid = v2_bytes();
    let (header, _, payload) = store::open_parts(valid).expect("valid fixture");
    let footer_at = payload.end;
    let trailer_at = valid.len() - store::TRAILER_BYTES;
    let resign = |structure: &[u8]| -> Vec<u8> {
        let fixed = header.header_bytes - header.structure.len();
        let mut out = valid[..fixed - 8].to_vec();
        out.extend_from_slice(&(structure.len() as u64).to_le_bytes());
        out.extend_from_slice(structure);
        let footer = &valid[footer_at..trailer_at];
        let mut signed = out.clone();
        signed.extend_from_slice(footer);
        let new_footer_at = (out.len() + payload.len()) as u64;
        out.extend_from_slice(&valid[payload.clone()]);
        out.extend_from_slice(footer);
        out.extend_from_slice(&new_footer_at.to_le_bytes());
        out.extend_from_slice(&zmesh::crc32(&signed).to_le_bytes());
        out.extend_from_slice(&valid[trailer_at + 12..]);
        out
    };
    // Re-signing the fixture's own structure reproduces it byte for byte.
    assert_eq!(resign(&header.structure), valid);

    let hostile = resign(&structure_blob(&[1, 65535, 65535, 1, 0]));
    let got = std::panic::catch_unwind(|| StoreReader::open(&hostile).map(|_| ()));
    assert!(matches!(got, Ok(Err(StoreError::Corrupt(_)))), "{got:?}");
    must_not_panic(&hostile);
}

#[test]
fn hostile_entropy_and_sz_headers_are_typed_errors() {
    use zmesh_codecs::lossless::{huffman, rangecoder};
    use zmesh_codecs::{Codec, CodecError, SzCodec};
    // 13 bytes of Huffman stream declaring 2^40 symbols over a one-symbol
    // table and a 3-byte payload: the count must be bounded by the payload
    // bits before it sizes the output.
    let mut blob = Vec::new();
    varint(&mut blob, 1 << 40);
    blob.extend_from_slice(&[1, 0, 1, 3, 0, 0, 0]);
    assert_eq!(blob.len(), 13);
    let got = std::panic::catch_unwind(|| huffman::decode(&blob));
    assert!(matches!(got, Ok(Err(CodecError::Corrupt(_)))), "{got:?}");

    // A hand-built SZ stream: 8 values, 1-D, no lossless back end (tag 0),
    // Huffman codes (tag 0), f64 (tag 0), one predictor tag, then an
    // exact-value count of 2^40.
    let mut payload = vec![0u8];
    let coded = huffman::encode(&[1 << 15; 8]);
    varint(&mut payload, coded.len() as u64);
    payload.extend_from_slice(&coded);
    varint(&mut payload, 1 << 40);
    let mut sz = b"SZR1".to_vec();
    varint(&mut sz, 8);
    sz.extend_from_slice(&1e-3f64.to_le_bytes());
    for v in [0, 0, 0, 4096] {
        varint(&mut sz, v);
    }
    sz.extend_from_slice(&[0, 0, 0]);
    varint(&mut sz, payload.len() as u64);
    sz.extend_from_slice(&payload);
    let got = std::panic::catch_unwind(|| SzCodec::new().decompress(&sz));
    assert!(
        matches!(got, Ok(Err(CodecError::Corrupt("f64 past end")))),
        "{got:?}"
    );

    // The same stream through the range coder (entropy tag 1): 2^40
    // symbols declared over a 5-byte body. The count must be bounded by
    // the body before it sizes the output (it aborted the process).
    let mut coded = Vec::new();
    varint(&mut coded, 1 << 40);
    varint(&mut coded, 5);
    coded.extend_from_slice(&[0; 5]);
    let got = std::panic::catch_unwind(|| rangecoder::decode(&coded));
    assert!(matches!(got, Ok(Err(CodecError::Corrupt(_)))), "{got:?}");
    let mut payload = vec![0u8];
    varint(&mut payload, coded.len() as u64);
    payload.extend_from_slice(&coded);
    let mut sz = b"SZR1".to_vec();
    varint(&mut sz, 8);
    sz.extend_from_slice(&1e-3f64.to_le_bytes());
    for v in [0, 0, 0, 4096] {
        varint(&mut sz, v);
    }
    sz.extend_from_slice(&[0, 1, 0]);
    varint(&mut sz, payload.len() as u64);
    sz.extend_from_slice(&payload);
    let got = std::panic::catch_unwind(|| SzCodec::new().decompress(&sz));
    assert!(matches!(got, Ok(Err(CodecError::Corrupt(_)))), "{got:?}");

    // Stored dims 2^32 × 2^32 × 1 over zero values: the product overflows
    // (a debug panic; in release it wraps to 0, passes the length check
    // and indexes out of bounds in the Lorenzo decoder).
    let mut sz = b"SZR1".to_vec();
    varint(&mut sz, 0);
    sz.extend_from_slice(&1e-3f64.to_le_bytes());
    for v in [1 << 32, 1 << 32, 1, 4096] {
        varint(&mut sz, v);
    }
    sz.extend_from_slice(&[0, 0, 0]);
    varint(&mut sz, 0);
    let got = std::panic::catch_unwind(|| SzCodec::new().decompress(&sz));
    assert!(
        matches!(
            got,
            Ok(Err(CodecError::Corrupt("stored dims mismatch length")))
        ),
        "{got:?}"
    );
}

/// An SZ stream's back-end tag is always `0`: tags 1 and 2 (the RLE and
/// LZSS back ends, retired) and any other value are typed `Corrupt`, and a
/// stored payload length that disagrees with the bytes left is too.
#[test]
fn sz_backend_tag_and_stored_length_are_checked() {
    use zmesh_codecs::{Codec, CodecError, CodecParams, SzCodec};
    let data: Vec<f64> = (0..100).map(|i| (i as f64 * 0.1).sin()).collect();
    let valid = SzCodec::new()
        .compress(&data, &CodecParams::abs_1d(1e-3))
        .expect("compress");
    // Magic, n = 100 (one varint byte), bound, three zero dims, block 4096
    // (two varint bytes), then the back-end tag.
    let tag_at = 4 + 1 + 8 + 3 + 2;
    assert_eq!(valid[tag_at], 0);
    assert_eq!(SzCodec::new().decompress(&valid).expect("valid").len(), 100);
    let decode = |bytes: Vec<u8>| std::panic::catch_unwind(|| SzCodec::new().decompress(&bytes));
    for tag in [1u8, 2, 255] {
        let mut bad = valid.clone();
        bad[tag_at] = tag;
        let got = decode(bad);
        assert!(
            matches!(got, Ok(Err(CodecError::Corrupt("unknown backend tag")))),
            "tag {tag}: {got:?}"
        );
    }
    let mut long = valid.clone();
    long.push(0);
    let short = valid[..valid.len() - 1].to_vec();
    for bad in [long, short] {
        let got = decode(bad);
        assert!(
            matches!(got, Ok(Err(CodecError::Corrupt("stored length mismatch")))),
            "{got:?}"
        );
    }
}

#[test]
fn non_finite_or_negative_footer_bounds_are_corrupt() {
    // The codecs reject these bounds at encode, so a footer carrying one
    // was damaged and re-signed: it must open as `Corrupt`, never reach
    // the daemon's JSON as `NaN`/`inf`. The footer opens with the field
    // count u32, then field 0's name (u16 length + bytes), control tag u8
    // and control payload u64.
    let valid = v2_bytes();
    let trailer_at = valid.len() - store::TRAILER_BYTES;
    let footer_at =
        u64::from_le_bytes(valid[trailer_at..trailer_at + 8].try_into().unwrap()) as usize;
    let header_bytes = store::peek_header(valid)
        .expect("valid fixture")
        .header_bytes;
    let name_len = u16::from_le_bytes(valid[footer_at + 4..footer_at + 6].try_into().unwrap());
    let tag_at = footer_at + 6 + name_len as usize;
    let with_control = |tag: u8, value: f64| {
        let mut bytes = valid.to_vec();
        bytes[tag_at] = tag;
        bytes[tag_at + 1..tag_at + 9].copy_from_slice(&value.to_bits().to_le_bytes());
        let mut signed = bytes[..header_bytes].to_vec();
        signed.extend_from_slice(&bytes[footer_at..trailer_at]);
        let crc = zmesh::crc32(&signed).to_le_bytes();
        bytes[trailer_at + 8..trailer_at + 12].copy_from_slice(&crc);
        bytes
    };
    // Re-signing works: legal bounds and rates still open.
    for (tag, value) in [(1, 0.0), (1, 0.5), (2, 16.0)] {
        assert!(StoreReader::open(&with_control(tag, value)).is_ok());
    }
    let bad_bounds = [f64::NAN, f64::INFINITY, -1.0].map(|v| (1, v));
    let bad_rates = [f64::NAN, f64::NEG_INFINITY, 0.0, -16.0].map(|v| (2, v));
    for (tag, value) in bad_bounds.into_iter().chain(bad_rates) {
        let bytes = with_control(tag, value);
        let opened = StoreReader::open(&bytes).err();
        assert!(
            matches!(opened, Some(StoreError::Corrupt(_))),
            "{tag} {value}: {opened:?}"
        );
        assert!(matches!(store::scrub(&bytes), Err(StoreError::Corrupt(_))));
    }
}

/// A one-field v2 store re-signed (index CRC fixed up) with its footer
/// listing `extra` chunks more than the writer framed — one copy of the
/// last chunk's meta each — or `-extra` fewer. The field's chunk metas are
/// the last bytes of its footer, preceded by their u64 count. Returns the
/// bytes and the field name.
fn with_chunk_count_off_by(extra: isize) -> (Vec<u8>, String) {
    let ds = datasets::front2d(StorageMode::AllCells, Scale::Tiny);
    let valid = StoreWriter::with_options(
        config(),
        StoreWriteOptions {
            chunk_target_bytes: 1024,
            parity: Parity::None,
        },
    )
    .write(&refs(&ds)[..1])
    .expect("write fixture")
    .bytes;
    let (header, fields, payload) = store::open_parts(&valid).expect("valid fixture");
    let n = fields[0].chunks.len();
    assert!(n >= 2, "want several chunks");
    let count = n.checked_add_signed(extra).expect("count stays positive");
    let trailer_at = valid.len() - store::TRAILER_BYTES;
    let count_at = trailer_at - n * store::CHUNK_META_BYTES - 8;
    let metas = &valid[count_at + 8..trailer_at];
    let last = &metas[metas.len() - store::CHUNK_META_BYTES..];

    let mut footer = valid[payload.end..count_at].to_vec();
    footer.extend_from_slice(&(count as u64).to_le_bytes());
    footer.extend_from_slice(&metas[..count.min(n) * store::CHUNK_META_BYTES]);
    for _ in n..count {
        footer.extend_from_slice(last);
    }
    let mut signed = valid[..header.header_bytes].to_vec();
    signed.extend_from_slice(&footer);
    let mut out = valid[..payload.end].to_vec();
    out.extend_from_slice(&footer);
    out.extend_from_slice(&(payload.end as u64).to_le_bytes());
    out.extend_from_slice(&zmesh::crc32(&signed).to_le_bytes());
    out.extend_from_slice(&valid[trailer_at + 12..]);
    if extra == 0 {
        assert_eq!(out, valid, "re-signing the own footer reproduces it");
    }
    (out, fields[0].name.clone())
}

#[test]
fn footer_with_an_extra_chunk_is_rejected_at_open() {
    // No writer frames a chunk past the stream's end.
    with_chunk_count_off_by(0);
    let (bytes, _) = with_chunk_count_off_by(1);
    assert!(store::open_parts(&bytes).is_ok(), "the index itself parses");
    let opened = StoreReader::open(&bytes).map(|_| ());
    assert!(matches!(opened, Err(StoreError::Corrupt(_))), "{opened:?}");
    must_not_panic(&bytes);
}

#[test]
fn footer_missing_a_chunk_refuses_a_full_decode_up_front() {
    // One chunk too few is what a salvaged torn store keeps: it opens and
    // answers queries over its covered prefix, but a full decode is
    // refused before any chunk is read.
    let (bytes, name) = with_chunk_count_off_by(-1);
    for policy in [
        ReadPolicy::Strict,
        ReadPolicy::Salvage {
            fill: store::SalvageFill::Nan,
        },
    ] {
        let reader = StoreReader::open(&bytes).expect("a prefix store opens");
        let q = Query::bbox([0, 0, 0], [0, 0, 0]);
        assert!(reader.query(&name, &q).is_ok(), "queries still answer");
        let got = reader
            .with_read_policy(policy)
            .decode_field(&name)
            .map(|_| ());
        assert!(
            matches!(got, Err(StoreError::Corrupt(msg)) if msg.contains("prefix")),
            "{policy:?}: {got:?}"
        );
    }
    must_not_panic(&bytes);
}

/// ZFP streams whose header counts would size allocations from untrusted
/// input: dims whose product overflows, a value count no payload could
/// hold, and superblock lengths whose sum overflows. Each must be a typed
/// error before `block_origins` or the output buffer is sized.
#[test]
fn hostile_zfp_counts_are_typed_errors() {
    use zmesh_codecs::{Codec, CodecError, ZfpCodec};
    // `ZFR1`, value count, dims, accuracy mode, f64, tolerance 1e-3, then
    // the superblock count and lengths.
    let zfp = |n: u64, dims: [u64; 3], lens: &[u64], pad: usize| {
        let mut out = b"ZFR1".to_vec();
        varint(&mut out, n);
        for d in dims {
            varint(&mut out, d);
        }
        out.extend_from_slice(&[0, 0]);
        out.extend_from_slice(&1e-3f64.to_le_bytes());
        varint(&mut out, lens.len() as u64);
        for &l in lens {
            varint(&mut out, l);
        }
        out.resize(out.len() + pad, 0);
        out
    };
    let cases = [
        // 2^32 × 2^32 over zero values: the product wraps to 0 in release.
        (
            zfp(0, [1 << 32, 1 << 32, 0], &[], 0),
            "stored dims overflow",
        ),
        // 2^62 values (2^60 blocks) from a few bytes.
        (zfp(1 << 62, [0; 3], &[1], 0), "value count exceeds payload"),
        // 1028 values = 257 blocks = two superblocks, lengths summing to 2^64.
        (
            zfp(1028, [0; 3], &[1 << 63, 1 << 63], 12),
            "superblock lengths overflow",
        ),
    ];
    for (stream, why) in cases {
        let got = std::panic::catch_unwind(|| ZfpCodec::new().decompress(&stream));
        assert!(
            matches!(got, Ok(Err(CodecError::Corrupt(w))) if w == why),
            "{why}: {got:?}"
        );
    }
}
