//! Criterion bench: SZ/ZFP encode and decode throughput on a representative
//! AMR stream (MB/s figures quoted in EXPERIMENTS.md), and the Huffman
//! entropy stage alone at two chunk sizes, so a change in its per-call
//! fixed cost shows without a full perfbench run.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use zmesh::{linearize, OrderingPolicy};
use zmesh_amr::datasets::{self, Scale};
use zmesh_amr::StorageMode;
use zmesh_codecs::lossless::huffman;
use zmesh_codecs::sz::predictor::{History, Predictor};
use zmesh_codecs::sz::quantizer::{QuantOutcome, Quantizer, ESCAPE};
use zmesh_codecs::sz::SzConfig;
use zmesh_codecs::{Codec, CodecParams, EntropyCoder, SzCodec, ZfpCodec};

fn stream() -> Vec<f64> {
    let ds = datasets::blast2d(StorageMode::AllCells, Scale::Small);
    linearize(ds.primary(), OrderingPolicy::Hilbert).0
}

/// The quantization codes SZ's 1-D path emits for `data` at absolute
/// bound `eb`: the entropy stage's input.
fn sz_codes(data: &[f64], eb: f64) -> Vec<u16> {
    let quant = Quantizer::new(eb);
    let mut history = History::new();
    let mut codes = Vec::with_capacity(data.len());
    for block in data.chunks(SzConfig::default().chunk_size) {
        let pred = Predictor::select(block, &history, eb);
        for &x in block {
            match quant.quantize(x, pred.predict(&history)) {
                QuantOutcome::Code { symbol, recon } => {
                    codes.push(symbol);
                    history.push(recon);
                }
                QuantOutcome::Escape => {
                    codes.push(ESCAPE);
                    history.push(x);
                }
            }
        }
    }
    codes
}

/// Huffman encode/decode on real SZ codes: a Standard `blast2d` field in
/// Hilbert order at a 1e-4 range-relative bound, cut into store-sized
/// chunks of 256 and 8192 values from the middle of the stream.
fn bench_huffman(c: &mut Criterion) {
    let ds = datasets::blast2d(StorageMode::AllCells, Scale::Standard);
    let data = linearize(ds.primary(), OrderingPolicy::Hilbert).0;
    let (lo, hi) = data
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
    let eb = 1e-4 * (hi - lo);
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

criterion_group!(benches, bench_codecs, bench_huffman);
criterion_main!(benches);
