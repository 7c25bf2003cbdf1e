//! A14 — ablation: entropy stage of the SZ-style codec.
//!
//! Canonical Huffman (what SZ ships) vs an adaptive binary range coder.
//! Measures both ratio and encode throughput (best of three runs), under
//! the zMesh-Hilbert ordering, and states the range coder's gain and cost
//! from the table.

use crate::{eval_datasets, header, row};
use std::time::Instant;
use zmesh::{linearize, OrderingPolicy};
use zmesh_amr::datasets::Scale;
use zmesh_codecs::{Codec, CodecParams, EntropyCoder, SzCodec};

/// Prints ratio + throughput per (dataset, entropy stage).
pub fn run(scale: Scale) {
    println!("\n## A14: SZ entropy-stage ablation (zmesh-h stream, rel_eb 1e-4)\n");
    header(&["dataset", "entropy", "ratio", "encode_MBps"]);
    // Per dataset: (ratio, MB/s) of Huffman and of the range coder.
    let mut huffman = Vec::new();
    let mut range = Vec::new();
    for ds in eval_datasets(scale).iter() {
        let (stream, _) = linearize(ds.primary(), OrderingPolicy::Hilbert);
        let params = CodecParams::rel_1d(1e-4);
        for entropy in [EntropyCoder::Huffman, EntropyCoder::Range] {
            let codec = SzCodec::with_entropy(entropy);
            let mut secs = f64::INFINITY;
            let mut bytes = Vec::new();
            for _ in 0..3 {
                let t = Instant::now();
                bytes = codec.compress(&stream, &params).expect("compress");
                secs = secs.min(t.elapsed().as_secs_f64());
            }
            // Correctness spot check (full checks live in the test suite).
            let out = codec.decompress(&bytes).expect("decompress");
            assert_eq!(out.len(), stream.len());
            let ratio = (stream.len() * 8) as f64 / bytes.len() as f64;
            let mbps = (stream.len() * 8) as f64 / 1e6 / secs;
            match entropy {
                EntropyCoder::Huffman => huffman.push((ratio, mbps)),
                EntropyCoder::Range => range.push((ratio, mbps)),
            }
            row(&[
                ds.name.clone(),
                entropy.label().into(),
                format!("{ratio:.2}"),
                format!("{mbps:.0}"),
            ]);
        }
    }
    let span = |v: Vec<f64>| {
        v.iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
                (lo.min(x), hi.max(x))
            })
    };
    let pairs = || huffman.iter().zip(&range);
    let (gain_lo, gain_hi) = span(pairs().map(|(h, r)| (r.0 / h.0 - 1.0) * 100.0).collect());
    let (slow_lo, slow_hi) = span(pairs().map(|(h, r)| h.1 / r.1).collect());
    println!(
        "\nobservation: the adaptive range coder's ratio is {gain_lo:+.0} to {gain_hi:+.0} % \
         over Huffman's, at {slow_lo:.1}-{slow_hi:.1}x lower encode MB/s. Its bit-tree \
         contexts model conditional structure in the quantization codes that a \
         static, memoryless Huffman table cannot. The codec default stays Huffman \
         for fidelity to SZ (and because switching changes every stored byte); \
         this row is the reproduction's own improvement candidate."
    );
}
