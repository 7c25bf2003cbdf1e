//! Streaming-write equivalence: the bounded-window sink pipeline must be
//! an *implementation detail* — byte-identical output to the in-memory
//! writer across window sizes, parity schemes, and thread counts, and
//! invisible write-side transients behind the retry loop.

use std::sync::OnceLock;
use std::time::Duration;

use proptest::prelude::*;
use zmesh::CompressionConfig;
use zmesh_amr::{datasets, AmrField, StorageMode};
use zmesh_store::faultinject::{FaultSink, FaultSpec};
use zmesh_store::{
    Parity, RetryPolicy, RetryStats, StoreReader, StoreWriter, StreamOptions, VecSink,
};

const CHUNK_BYTES: u32 = 512;

fn dataset() -> &'static datasets::Dataset {
    static DS: OnceLock<datasets::Dataset> = OnceLock::new();
    DS.get_or_init(|| datasets::blast2d(StorageMode::AllCells, datasets::Scale::Tiny))
}

fn fields(ds: &datasets::Dataset) -> Vec<(&str, &AmrField)> {
    ds.fields.iter().map(|(n, f)| (n.as_str(), f)).collect()
}

fn writer_for(parity: Parity) -> StoreWriter {
    StoreWriter::new(CompressionConfig::zmesh_default())
        .with_chunk_target_bytes(CHUNK_BYTES)
        .with_parity(parity)
}

/// Buffered reference bytes per parity scheme, packed once.
fn reference(parity_idx: usize) -> &'static (Parity, Vec<u8>) {
    static REFS: OnceLock<Vec<(Parity, Vec<u8>)>> = OnceLock::new();
    &REFS.get_or_init(|| {
        PARITIES
            .iter()
            .map(|&parity| {
                let out = writer_for(parity)
                    .write(&fields(dataset()))
                    .expect("buffered pack");
                (parity, out.bytes)
            })
            .collect()
    })[parity_idx]
}

const PARITIES: [Parity; 3] = [
    Parity::None,
    Parity::Xor { width: 3 },
    Parity::Rs { data: 4, parity: 2 },
];

/// No-sleep retry policy so fault campaigns run at full speed.
fn fast_retry(attempts: u32) -> RetryPolicy {
    RetryPolicy {
        attempts,
        base: Duration::ZERO,
        cap: Duration::ZERO,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    // Window sizes {1 chunk, 3 chunks, unbounded} × parity × thread
    // counts: every combination streams to the same bytes the buffered
    // writer produces.
    #[test]
    fn streaming_output_is_bit_identical_to_buffered(
        parity_idx in 0usize..3,
        window_sel in 0usize..3,
        threads in 1usize..=4,
    ) {
        let (parity, want) = reference(parity_idx);
        let window = [CHUNK_BYTES as usize, 3 * CHUNK_BYTES as usize, 0][window_sel];
        let opts = StreamOptions { window_bytes: window, ..StreamOptions::default() };
        let mut sink = VecSink::new();
        let stats = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap()
            .install(|| {
                writer_for(*parity).write_to_sink(&fields(dataset()), &mut sink, &opts)
            })
            .expect("streaming pack");
        prop_assert_eq!(
            sink.bytes(), &want[..],
            "parity {:?} window {} threads {}", parity, window, threads
        );
        prop_assert_eq!(stats.retry, RetryStats::default());
        // What streamed is a real store.
        let reader = StoreReader::open(sink.bytes()).expect("open streamed store");
        prop_assert_eq!(reader.field_names().len(), dataset().fields.len());
    }

    // A transient-only write fault plan is invisible behind the retry
    // loop: identical bytes, `gave_up == 0`, and every injected error
    // accounted as a retry.
    #[test]
    fn transient_write_faults_are_invisible_under_retry(
        seed in any::<u64>(),
        wtransient in 0u32..=500,
        wshort in 0u32..=300,
        burst in 1u32..=2,
        parity_idx in 0usize..3,
        window_sel in 0usize..3,
    ) {
        let (parity, want) = reference(parity_idx);
        let window = [CHUNK_BYTES as usize, 3 * CHUNK_BYTES as usize, 0][window_sel];
        let spec = FaultSpec {
            seed,
            write_transient_per_mille: wtransient,
            short_write_per_mille: wshort,
            burst,
            ..FaultSpec::default()
        };
        let mut sink = FaultSink::new(VecSink::new(), spec);
        // Retry budget outlasts the burst: the plan must be invisible.
        let opts = StreamOptions {
            window_bytes: window,
            retry: fast_retry(burst + 2),
        };
        let stats = writer_for(*parity)
            .write_to_sink(&fields(dataset()), &mut sink, &opts)
            .expect("transient-only plan must not fail the pack");
        prop_assert_eq!(stats.retry.gave_up, 0);
        prop_assert_eq!(stats.retry.retries, sink.stats().transient);
        prop_assert_eq!(sink.inner().bytes(), &want[..]);
    }

    // With a retry budget *shorter* than the burst, the writer gives up
    // with a transient error — and reports it — instead of hanging or
    // emitting partial silence.
    #[test]
    fn exhausted_write_retries_surface_as_transient(
        seed in any::<u64>(),
        parity_idx in 0usize..3,
    ) {
        let (parity, _) = reference(parity_idx);
        let spec = FaultSpec {
            seed,
            write_transient_per_mille: 1000,
            burst: 5,
            ..FaultSpec::default()
        };
        let mut sink = FaultSink::new(VecSink::new(), spec);
        let opts = StreamOptions {
            window_bytes: 0,
            retry: fast_retry(2), // 2 attempts vs bursts of 5
        };
        let err = writer_for(*parity)
            .write_to_sink(&fields(dataset()), &mut sink, &opts)
            .expect_err("rate 1000 with burst > attempts must exhaust the budget");
        prop_assert!(err.is_transient(), "{}", err);
    }
}

/// The exact window sizes the satellite task names, deterministically
/// (proptest samples; this pins the boundary cases).
#[test]
fn named_window_sizes_round_trip() {
    for (parity_idx, _) in PARITIES.iter().enumerate() {
        let (parity, want) = reference(parity_idx);
        for window in [
            CHUNK_BYTES as usize,     // one chunk: fully serialized pipeline
            3 * CHUNK_BYTES as usize, // a few chunks in flight
            0,                        // unbounded
        ] {
            let mut sink = VecSink::new();
            writer_for(*parity)
                .write_to_sink(
                    &fields(dataset()),
                    &mut sink,
                    &StreamOptions {
                        window_bytes: window,
                        ..StreamOptions::default()
                    },
                )
                .expect("streaming pack");
            assert_eq!(sink.bytes(), &want[..], "parity {parity:?} window {window}");
        }
    }
}
