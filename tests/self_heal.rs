//! Self-healing property suite: correlated damage patterns against the
//! parity-protected stores (v3 XOR and v4 Reed–Solomon).
//!
//! The contract under test:
//!
//! * **One failure per parity group** is always recoverable: salvage reads
//!   reconstruct the chunk in-flight (bit-identical to the clean decode),
//!   and `repair` rewrites the whole container byte-identical to the
//!   pristine bytes.
//! * **Two failures in the same group** exceed XOR parity: both chunks are
//!   classified `Lost` (never silently wrong), and `repair` refuses to
//!   write output — unless a structurally identical replica (or the raw
//!   dataset, via `repair_with`) supplies the missing chunks.
//! * **Up to `m` failures per Reed–Solomon group** round-trip
//!   byte-identically for random `(k, m)` geometries; `m + 1` failures
//!   degrade to `Lost` + fill exactly like an overwhelmed v3 group.
//! * **Parity-only damage** never costs data: full decodes still succeed
//!   under salvage (the damage report names the group), and `repair`
//!   rebuilds the parity section byte-identically from the intact data.
//! * **A write truncated at any byte** opens as `StoreError::Torn` (once
//!   enough bytes survive to prove it was a store) — never a panic, never
//!   a silently short decode.
//!
//! Damage is injected exclusively through `zmesh_store::faultinject` so
//! every test hits exactly the chunk it names.

use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::OnceLock;
use zmesh_amr::datasets::{self, Scale};
use zmesh_amr::StorageMode;
use zmesh_codecs::ErrorControl;
use zmesh_suite::prelude::*;
use zmesh_suite::store::{faultinject, ChunkKind, DamageStatus, RepairSource, StoreWriteOptions};

const WIDTH: u32 = 4;

fn fixture_config() -> CompressionConfig {
    CompressionConfig {
        policy: OrderingPolicy::Hilbert,
        codec: CodecKind::Sz,
        control: ErrorControl::ValueRangeRelative(1e-4),
    }
}

fn fixture_dataset() -> datasets::Dataset {
    datasets::front2d(StorageMode::AllCells, Scale::Tiny)
}

fn write_fixture(parity: Parity) -> Vec<u8> {
    let ds = fixture_dataset();
    let fields: Vec<(&str, &AmrField)> = ds.fields.iter().map(|(n, f)| (n.as_str(), f)).collect();
    StoreWriter::with_options(
        fixture_config(),
        StoreWriteOptions {
            chunk_target_bytes: 1024,
            parity,
        },
    )
    .write(&fields)
    .expect("write fixture")
    .bytes
}

fn pristine() -> &'static Vec<u8> {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| write_fixture(Parity::Xor { width: WIDTH }))
}

/// (field name, chunk count) for field 0 of the fixture.
fn field0() -> (String, usize) {
    let reader = StoreReader::open(pristine()).expect("open fixture");
    let entry = &reader.fields()[0];
    (entry.name.clone(), entry.chunks.len())
}

fn clean_decode(name: &str) -> Vec<u64> {
    StoreReader::open(pristine())
        .expect("open")
        .decode_field(name)
        .expect("decode")
        .values()
        .iter()
        .map(|v| v.to_bits())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // One corrupted chunk in every parity group — the worst damage that is
    // still fully recoverable. Every chunk is Repaired (values
    // bit-identical to the clean decode) and repair() restores the exact
    // pristine bytes.
    #[test]
    fn one_failure_per_group_is_fully_repaired(seed in any::<u64>()) {
        let (name, n_chunks) = field0();
        prop_assume!(n_chunks > WIDTH as usize);
        let mut rng = faultinject::Lcg::new(seed);
        let mut bytes = pristine().clone();
        let mut hit = Vec::new();
        for group_start in (0..n_chunks).step_by(WIDTH as usize) {
            let members = (n_chunks - group_start).min(WIDTH as usize);
            let victim = group_start + rng.below(members);
            faultinject::flip_data_chunk(&mut bytes, 0, victim);
            hit.push(victim);
        }

        let reader = StoreReader::open(&bytes)
            .expect("open")
            .with_read_policy(ReadPolicy::salvage());
        let (field, report) = reader
            .decode_field_with_report(&name)
            .expect("salvage decode");
        for d in report.repaired() {
            prop_assert_eq!(d.values_lost, 0);
        }
        let mut repaired: Vec<usize> = report.repaired().map(|d| d.chunk).collect();
        repaired.sort_unstable();
        prop_assert_eq!(&repaired, &hit, "every hit chunk must be Repaired");
        prop_assert_eq!(report.lost().count(), 0);
        prop_assert_eq!(report.total_values_lost(), 0);

        let clean = clean_decode(&name);
        for (v, c) in field.values().iter().zip(&clean) {
            prop_assert_eq!(v.to_bits(), *c, "repaired values must be bit-identical");
        }

        let outcome = scrub(&bytes).expect("scrub");
        prop_assert_eq!(outcome.unrecoverable(), 0);
        prop_assert_eq!(outcome.recoverable(), hit.len());

        let fixed = repair(&bytes, None).expect("repair");
        prop_assert!(fixed.lost.is_empty());
        prop_assert!(fixed.repaired.iter().all(|r| r.source == RepairSource::Parity));
        prop_assert_eq!(fixed.bytes.expect("output"), pristine().clone(),
            "repair must restore the pristine container byte for byte");
    }

    // Adjacent-pair damage: two consecutive chunks either share a parity
    // group (both Lost, repair refuses) or straddle a group boundary
    // (both Repaired, repair is byte-identical).
    #[test]
    fn adjacent_pair_damage_classifies_by_group_boundary(at in 0usize..64) {
        let (name, n_chunks) = field0();
        prop_assume!(n_chunks >= 2);
        let first = at % (n_chunks - 1);
        let same_group = first as u32 % WIDTH != WIDTH - 1;
        let mut bytes = pristine().clone();
        faultinject::flip_data_chunk(&mut bytes, 0, first);
        faultinject::flip_data_chunk(&mut bytes, 0, first + 1);

        let reader = StoreReader::open(&bytes)
            .expect("open")
            .with_read_policy(ReadPolicy::salvage());
        let (_, report) = reader
            .decode_field_with_report(&name)
            .expect("salvage decode");
        prop_assert_eq!(report.chunks.len(), 2);
        let outcome = repair(&bytes, None).expect("repair");
        if same_group {
            prop_assert!(report.chunks.iter().all(|d| d.status == DamageStatus::Lost),
                "two failures in one group must both be Lost");
            prop_assert!(outcome.bytes.is_none(), "repair must refuse");
            prop_assert_eq!(outcome.lost.len(), 2);
            prop_assert_eq!(scrub(&bytes).expect("scrub").unrecoverable(), 2);
            // A pristine replica rescues both, bit-exactly.
            let rescued = repair(&bytes, Some(pristine())).expect("repair w/ replica");
            prop_assert!(rescued.lost.is_empty());
            prop_assert!(rescued
                .repaired
                .iter()
                .any(|r| r.source == RepairSource::Replica));
            prop_assert_eq!(rescued.bytes.expect("output"), pristine().clone());
        } else {
            prop_assert!(report.chunks.iter().all(|d| d.status == DamageStatus::Repaired),
                "cross-boundary neighbors live in different groups");
            prop_assert_eq!(outcome.bytes.expect("output"), pristine().clone());
        }
    }

    // Parity-only damage: data reads stay clean (and bit-identical), the
    // report names the damaged group, and repair rebuilds the parity
    // section byte-identically from the intact data chunks.
    #[test]
    fn parity_damage_never_costs_data(group in 0usize..16) {
        let (name, n_chunks) = field0();
        let n_groups = n_chunks.div_ceil(WIDTH as usize);
        let group = group % n_groups;
        let mut bytes = pristine().clone();
        faultinject::flip_parity_chunk(&mut bytes, 0, group);

        // Strict full decode refuses: the store is not pristine.
        let strict = StoreReader::open(&bytes).expect("open");
        prop_assert!(strict.decode_field(&name).is_err());

        // Salvage decode: all data intact, damage confined to parity.
        let reader = StoreReader::open(&bytes)
            .expect("open")
            .with_read_policy(ReadPolicy::salvage());
        let (field, report) = reader
            .decode_field_with_report(&name)
            .expect("salvage decode");
        prop_assert!(report.chunks.is_empty(), "no data chunk may be reported");
        prop_assert_eq!(report.parity.len(), 1);
        prop_assert_eq!(report.parity[0].group, group);
        let clean = clean_decode(&name);
        for (v, c) in field.values().iter().zip(&clean) {
            prop_assert_eq!(v.to_bits(), *c);
        }

        // Scrub classifies it recoverable; repair regenerates the parity.
        let outcome = scrub(&bytes).expect("scrub");
        prop_assert_eq!(outcome.unrecoverable(), 0);
        prop_assert!(outcome.recoverable() >= 1);
        let fixed = repair(&bytes, None).expect("repair");
        prop_assert!(fixed.parity_rebuilt >= 1);
        prop_assert_eq!(fixed.bytes.expect("output"), pristine().clone());
    }
}

/// A whole parity group wiped out (every member + its parity chunk) is
/// beyond self-healing: salvage fills the gap with the requested fill
/// value, and only a replica brings the bytes back.
#[test]
fn whole_group_loss_fills_and_needs_a_replica() {
    let (name, n_chunks) = field0();
    assert!(n_chunks >= WIDTH as usize, "fixture too small");
    let mut bytes = pristine().clone();
    for c in 0..WIDTH as usize {
        faultinject::flip_data_chunk(&mut bytes, 0, c);
    }
    faultinject::flip_parity_chunk(&mut bytes, 0, 0);

    for fill in [SalvageFill::Nan, SalvageFill::Zero] {
        let reader = StoreReader::open(&bytes)
            .expect("open")
            .with_read_policy(ReadPolicy::Salvage { fill });
        let (field, report) = reader
            .decode_field_with_report(&name)
            .expect("salvage decode");
        assert_eq!(report.lost().count(), WIDTH as usize);
        assert_eq!(report.repaired().count(), 0);
        assert_eq!(report.fill, fill);
        assert!(report.total_values_lost() > 0);
        let filled = field
            .values()
            .iter()
            .filter(|v| match fill {
                SalvageFill::Nan => v.is_nan(),
                SalvageFill::Zero => v.to_bits() == 0,
            })
            .count();
        assert!(
            filled >= report.total_values_lost(),
            "every lost cell must carry the fill value"
        );
    }

    assert!(repair(&bytes, None).expect("repair").bytes.is_none());
    let rescued = repair(&bytes, Some(pristine())).expect("repair w/ replica");
    assert!(rescued.lost.is_empty());
    assert_eq!(rescued.bytes.expect("output"), pristine().clone());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    // v4 tentpole property: for a random Reed–Solomon geometry (k, m),
    // any ≤ m failures in a group round-trip byte-identically through
    // salvage *and* repair; m + 1 failures degrade to Lost + fill exactly
    // like an overwhelmed v3 group — never silently wrong data.
    #[test]
    fn rs_round_trips_damage_up_to_the_shard_budget(
        k in 2u32..6,
        m in 1u32..4,
        seed in any::<u64>(),
    ) {
        let clean = write_fixture(Parity::Rs { data: k, parity: m });
        let reader = StoreReader::open(&clean).expect("open clean");
        let entry = &reader.fields()[0];
        let name = entry.name.clone();
        let n_chunks = entry.chunks.len();
        let clean_bits: Vec<u64> = reader
            .decode_field(&name)
            .expect("clean decode")
            .values()
            .iter()
            .map(|v| v.to_bits())
            .collect();

        // Damage `budget` distinct chunks of group 0 (a contiguous run at
        // a random start keeps them distinct within the group).
        let group0 = n_chunks.min(k as usize);
        let budget = (m as usize).min(group0);
        let mut rng = faultinject::Lcg::new(seed);
        let start = rng.below(group0);
        let victims: Vec<usize> = (0..budget).map(|i| (start + i) % group0).collect();
        let mut bytes = clean.clone();
        for &v in &victims {
            faultinject::flip_data_chunk(&mut bytes, 0, v);
        }

        let salvage = StoreReader::open(&bytes)
            .expect("open damaged")
            .with_read_policy(ReadPolicy::salvage());
        let (field, report) = salvage
            .decode_field_with_report(&name)
            .expect("salvage decode");
        prop_assert_eq!(report.chunks.len(), budget);
        prop_assert!(
            report.chunks.iter().all(|d| d.status == DamageStatus::Repaired),
            "≤ m failures must all be Repaired (k = {}, m = {})", k, m
        );
        prop_assert_eq!(report.total_values_lost(), 0);
        for (v, c) in field.values().iter().zip(&clean_bits) {
            prop_assert_eq!(v.to_bits(), *c, "repaired values must be bit-identical");
        }

        let fixed = repair(&bytes, None).expect("repair");
        prop_assert!(fixed.lost.is_empty());
        prop_assert!(fixed.repaired.iter().all(|r| r.source == RepairSource::Parity));
        prop_assert_eq!(fixed.bytes.expect("output"), clean.clone());

        // One failure past the budget: every damaged chunk in the group is
        // Lost (fill applied), and repair refuses to write output.
        if budget < group0 {
            let mut bytes = clean.clone();
            for i in 0..budget + 1 {
                faultinject::flip_data_chunk(&mut bytes, 0, (start + i) % group0);
            }
            let salvage = StoreReader::open(&bytes)
                .expect("open overwhelmed")
                .with_read_policy(ReadPolicy::salvage());
            let (field, report) = salvage
                .decode_field_with_report(&name)
                .expect("salvage decode");
            prop_assert_eq!(report.chunks.len(), budget + 1);
            prop_assert!(
                report.chunks.iter().all(|d| d.status == DamageStatus::Lost),
                "m + 1 failures must all be Lost, exactly as an overwhelmed v3 group"
            );
            prop_assert!(report.total_values_lost() > 0);
            prop_assert!(field.values().iter().any(|v| v.is_nan()), "fill must be applied");
            let refused = repair(&bytes, None).expect("repair");
            prop_assert!(refused.bytes.is_none(), "repair must refuse");
        }
    }

}

/// Crash consistency: a v4 write truncated at *any* byte boundary opens as
/// a typed error — `Torn` once enough bytes survive to prove a store was
/// being written — and never panics or decodes short.
#[test]
fn any_truncation_of_a_v4_store_reads_as_torn() {
    let clean = write_fixture(Parity::Rs { data: 4, parity: 2 });
    for cut in 0..clean.len() {
        let torn = faultinject::torn_at(&clean, cut);
        match StoreReader::open(&torn) {
            Err(StoreError::Torn) => assert!(
                cut >= 6,
                "cut {cut} too short to even carry magic + version"
            ),
            Err(_) => assert!(cut < 6, "cut {cut} must be Torn, not another error"),
            Ok(_) => panic!("cut {cut} of {} opened clean", clean.len()),
        }
    }
}

/// Two failures in one XOR group are beyond parity — but `repair_with` can
/// re-encode the lost chunks from the original dataset and restore the
/// store byte-for-byte.
#[test]
fn raw_dataset_rescues_a_group_beyond_xor_parity() {
    let ds = fixture_dataset();
    let fields: Vec<(&str, &AmrField)> = ds.fields.iter().map(|(n, f)| (n.as_str(), f)).collect();
    let clean = pristine().clone();
    let mut bytes = clean.clone();
    faultinject::flip_data_chunk(&mut bytes, 0, 0);
    faultinject::flip_data_chunk(&mut bytes, 0, 1);
    assert!(
        repair(&bytes, None).expect("repair").bytes.is_none(),
        "two failures in one XOR group must defeat parity alone"
    );

    let raw = RawSource::new(&fields);
    let rescued = repair_with(&bytes, None, Some(&raw)).expect("repair from raw");
    assert!(rescued.lost.is_empty());
    assert!(rescued
        .repaired
        .iter()
        .any(|r| r.source == RepairSource::Raw));
    assert_eq!(rescued.bytes.expect("output"), clean);
}

/// A replica from a different mesh (or different chunking) must be
/// rejected outright rather than splicing foreign bytes into the store.
#[test]
fn mismatched_replica_is_rejected() {
    let ds = datasets::blast2d(StorageMode::AllCells, Scale::Tiny);
    let fields: Vec<(&str, &AmrField)> = ds.fields.iter().map(|(n, f)| (n.as_str(), f)).collect();
    let other = StoreWriter::new(CompressionConfig {
        policy: OrderingPolicy::Hilbert,
        codec: CodecKind::Sz,
        control: ErrorControl::ValueRangeRelative(1e-4),
    })
    .write(&fields)
    .expect("write other")
    .bytes;

    let mut bytes = pristine().clone();
    faultinject::flip_data_chunk(&mut bytes, 0, 0);
    faultinject::flip_data_chunk(&mut bytes, 0, 1);
    assert!(
        repair(&bytes, Some(&other)).is_err(),
        "structurally different replica must be refused"
    );
}

/// The Reed–Solomon twin of [`pristine`]: k = 4 data chunks, m = 2 shards.
fn rs_pristine() -> &'static Vec<u8> {
    static BYTES: OnceLock<Vec<u8>> = OnceLock::new();
    BYTES.get_or_init(|| write_fixture(Parity::Rs { data: 4, parity: 2 }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // The self-healing paths share one recovery, so they must agree chunk
    // by chunk, not just in their counts: for every damaged data chunk,
    // scrub's `recoverable`, the salvage read's `Repaired` (full decode
    // and full-domain query alike) and repair's `Parity` source are one
    // verdict. Random damage hits data and parity chunks of an XOR and a
    // Reed–Solomon store.
    #[test]
    fn scrub_salvage_and_repair_agree_chunk_by_chunk(
        rs in any::<bool>(),
        seed in any::<u64>(),
        data_flips in 1usize..10,
        parity_flips in 0usize..4,
    ) {
        let clean = if rs { rs_pristine() } else { pristine() };
        let entry = StoreReader::open(clean).expect("open clean").fields()[0].clone();
        let mut rng = faultinject::Lcg::new(seed);
        let mut bytes = clean.clone();
        let damaged: BTreeSet<usize> =
            (0..data_flips).map(|_| rng.below(entry.chunks.len())).collect();
        for &c in &damaged {
            faultinject::flip_data_chunk(&mut bytes, 0, c);
        }
        for _ in 0..parity_flips {
            faultinject::flip_parity_chunk(&mut bytes, 0, rng.below(entry.parity.len()));
        }

        let report = scrub(&bytes).expect("scrub");
        let scrub_data = |only_recoverable: bool| -> BTreeSet<usize> {
            report.damaged.iter()
                .filter_map(|d| match d.chunk {
                    ChunkKind::Data(i) if d.recoverable || !only_recoverable => Some(i),
                    _ => None,
                })
                .collect()
        };
        let healable = scrub_data(true);
        prop_assert_eq!(&scrub_data(false), &damaged, "scrub names exactly the flipped chunks");

        let reader = StoreReader::open(&bytes)
            .expect("open damaged")
            .with_read_policy(ReadPolicy::salvage());
        let (_, decoded) = reader.decode_field_with_report(&entry.name).expect("salvage decode");
        let decoded_damage: BTreeSet<usize> = decoded.chunks.iter().map(|d| d.chunk).collect();
        prop_assert_eq!(&decoded_damage, &damaged);
        let repaired: BTreeSet<usize> = decoded.repaired().map(|d| d.chunk).collect();
        prop_assert_eq!(&repaired, &healable, "salvage decode vs scrub");
        let side = reader.tree().level_dims(reader.tree().max_level())[0] as u32 - 1;
        let queried = reader
            .query(&entry.name, &Query::bbox([0; 3], [side, side, 0]))
            .expect("salvage query");
        let repaired: BTreeSet<usize> = queried.damage.repaired().map(|d| d.chunk).collect();
        prop_assert_eq!(&repaired, &healable, "salvage query vs scrub");

        let outcome = repair(&bytes, None).expect("repair");
        let healed: BTreeSet<usize> = outcome.repaired.iter()
            .filter(|r| r.field == entry.name && r.source == RepairSource::Parity)
            .map(|r| r.chunk)
            .collect();
        prop_assert_eq!(&healed, &healable, "repair vs scrub");
        let lost: BTreeSet<usize> = outcome.lost.iter().map(|l| l.chunk).collect();
        prop_assert_eq!(lost, &damaged - &healable);
    }
}

/// Scrub fetches each span once: damage changes what it reports, never
/// how many bytes it reads.
#[cfg(unix)]
#[test]
fn scrub_of_a_damaged_store_reads_no_more_than_a_clean_one() {
    use zmesh_suite::store::{scrub_source, FileSource};
    let scrub_file = |bytes: &[u8], tag: &str| {
        let path =
            std::env::temp_dir().join(format!("zmesh_scrub_{}_{tag}.zms", std::process::id()));
        std::fs::write(&path, bytes).expect("write temp store");
        let report = scrub_source(&FileSource::open(&path).expect("open temp store"));
        std::fs::remove_file(&path).expect("remove temp store");
        report.expect("scrub")
    };
    let clean = write_fixture(Parity::Xor { width: 8 });
    let mut damaged = clean.clone();
    faultinject::flip_data_chunk(&mut damaged, 0, 0);
    faultinject::flip_data_chunk(&mut damaged, 1, 1);
    faultinject::flip_parity_chunk(&mut damaged, 0, 0);
    let clean_report = scrub_file(&clean, "clean");
    let damaged_report = scrub_file(&damaged, "damaged");
    assert!(clean_report.is_clean());
    assert_eq!(damaged_report.damaged.len(), 3);
    assert_eq!(damaged_report.bytes_read, clean_report.bytes_read);
}
