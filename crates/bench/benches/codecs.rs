//! Criterion bench: SZ/ZFP encode and decode throughput on a representative
//! AMR stream (MB/s figures quoted in EXPERIMENTS.md), and the Huffman
//! entropy stage alone at two chunk sizes, so a change in its per-call
//! fixed cost shows without a full perfbench run, and the SZ encode of
//! `LANES` store chunks one stream at a time vs all lanes at once.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use zmesh::{linearize, OrderingPolicy};
use zmesh_amr::datasets::{self, Scale};
use zmesh_amr::StorageMode;
use zmesh_codecs::lossless::huffman;
use zmesh_codecs::sz::{quantize_streams, SzConfig, LANES};
use zmesh_codecs::{Codec, CodecParams, EntropyCoder, SzCodec, ZfpCodec};

fn stream() -> Vec<f64> {
    let ds = datasets::blast2d(StorageMode::AllCells, Scale::Small);
    linearize(ds.primary(), OrderingPolicy::Hilbert).0
}

/// The quantization codes SZ's 1-D path emits for `data` at absolute
/// bound `eb`: the entropy stage's input.
fn sz_codes(data: &[f64], eb: f64) -> Vec<u16> {
    let block = SzConfig::default().chunk_size;
    quantize_streams(&[data], eb, false, block)
        .remove(0)
        .symbols
}

/// A Standard `blast2d` field in Hilbert order and its 1e-4
/// range-relative bound as an absolute one.
fn standard_stream() -> (Vec<f64>, f64) {
    let ds = datasets::blast2d(StorageMode::AllCells, Scale::Standard);
    let data = linearize(ds.primary(), OrderingPolicy::Hilbert).0;
    let (lo, hi) = data
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    (data, 1e-4 * (hi - lo))
}

/// Huffman encode/decode on real SZ codes: a Standard `blast2d` field in
/// Hilbert order at a 1e-4 range-relative bound, cut into store-sized
/// chunks of 256 and 8192 values from the middle of the stream.
fn bench_huffman(c: &mut Criterion) {
    let (data, eb) = standard_stream();
    let mut g = c.benchmark_group("huffman");
    for n in [256, 8192] {
        let start = (data.len() / 2).min(data.len() - n);
        let codes = sz_codes(&data[start..start + n], eb);
        let coded = huffman::encode(&codes);
        g.throughput(Throughput::Elements(n as u64));
        g.bench_function(format!("encode/{n}"), |b| {
            b.iter(|| huffman::encode(black_box(&codes)))
        });
        g.bench_function(format!("decode/{n}"), |b| {
            b.iter(|| huffman::decode(black_box(&coded)).unwrap())
        });
    }
    g.finish();
}

/// SZ encode of [`LANES`] consecutive store-sized chunks (256 and 8192
/// values) from the middle of the Standard stream, on one thread:
/// `chunks_1` compresses them one `compress` call at a time (the scalar
/// single-stream path), `chunks_{LANES}` in one `compress_chunks` run (the
/// lane kernel, two AVX2 vectors of four streams, where the CPU has AVX2).
/// Same bytes out; throughput is values encoded.
fn bench_sz_lanes(c: &mut Criterion) {
    let (data, eb) = standard_stream();
    let params = CodecParams::abs_1d(eb);
    let codec = SzCodec::new();
    let mut g = c.benchmark_group("sz_encode");
    for n in [256, 8192] {
        let start = (data.len() / 2).min(data.len() - LANES * n);
        let run = &data[start..start + LANES * n];
        g.throughput(Throughput::Elements(run.len() as u64));
        g.bench_function(format!("chunks_1/{n}"), |b| {
            b.iter(|| {
                run.chunks(n)
                    .map(|chunk| codec.compress(black_box(chunk), &params).unwrap())
                    .collect::<Vec<_>>()
            })
        });
        g.bench_function(format!("chunks_{LANES}/{n}"), |b| {
            b.iter(|| codec.compress_chunks(black_box(run), &params, n).unwrap())
        });
    }
    g.finish();
}

fn bench_codecs(c: &mut Criterion) {
    let data = stream();
    let bytes = (data.len() * 8) as u64;
    let params = CodecParams::rel_1d(1e-4);

    let mut g = c.benchmark_group("codec_encode");
    g.throughput(Throughput::Bytes(bytes));
    g.bench_function("sz", |b| {
        let codec = SzCodec::new();
        b.iter(|| codec.compress(black_box(&data), &params).unwrap())
    });
    g.bench_function("zfp", |b| {
        let codec = ZfpCodec::new();
        b.iter(|| codec.compress(black_box(&data), &params).unwrap())
    });
    g.finish();

    let mut g = c.benchmark_group("sz_entropy_stage");
    g.throughput(Throughput::Bytes(bytes));
    for entropy in [EntropyCoder::Huffman, EntropyCoder::Range] {
        g.bench_function(entropy.label(), |b| {
            let codec = SzCodec::with_entropy(entropy);
            b.iter(|| codec.compress(black_box(&data), &params).unwrap())
        });
    }
    g.finish();

    let mut g = c.benchmark_group("codec_decode");
    g.throughput(Throughput::Bytes(bytes));
    let sz = SzCodec::new();
    let sz_bytes = sz.compress(&data, &params).unwrap();
    g.bench_function("sz", |b| {
        b.iter(|| sz.decompress(black_box(&sz_bytes)).unwrap())
    });
    let zfp = ZfpCodec::new();
    let zfp_bytes = zfp.compress(&data, &params).unwrap();
    g.bench_function("zfp", |b| {
        b.iter(|| zfp.decompress(black_box(&zfp_bytes)).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_codecs, bench_huffman, bench_sz_lanes);
criterion_main!(benches);
