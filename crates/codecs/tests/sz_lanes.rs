//! Lane-parallel SZ encode ≡ the historical one-stream loop.
//!
//! `reference` below is the 1-D encoder as it stood before the
//! predict + quantize kernel: its loop, its quantizer step (`f64::round`
//! and the `i64` round trip) and its degrading predictor, kept verbatim.
//! The properties pin three paths to it:
//!
//! * [`quantize_streams`] over several streams at once (the AVX2 lanes on
//!   a CPU that has them),
//! * [`quantize_streams`] over one stream (always the scalar path),
//! * `compress_chunks` payloads against per-chunk `compress` and against
//!   the reference framing, byte for byte.

use proptest::prelude::*;
use zmesh_codecs::lossless::huffman;
use zmesh_codecs::sz::predictor::{History, Predictor};
use zmesh_codecs::sz::{quantize_streams, Quantized, SzConfig, LANES};
use zmesh_codecs::{Codec, CodecParams, ErrorControl, SzCodec, ValueType};

mod reference {
    use super::*;

    pub const ESCAPE: u16 = 0;
    pub const RADIUS: i64 = 1 << 15;

    pub enum QuantOutcome {
        Code { symbol: u16, recon: f64 },
        Escape,
    }

    pub struct Quantizer {
        eb: f64,
        two_eb: f64,
        snap_f32: bool,
    }

    impl Quantizer {
        pub fn with_snap(eb: f64, snap_f32: bool) -> Self {
            Self {
                eb,
                two_eb: 2.0 * eb,
                snap_f32,
            }
        }

        fn snap(&self, v: f64) -> f64 {
            if self.snap_f32 {
                v as f32 as f64
            } else {
                v
            }
        }

        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        pub fn quantize(&self, x: f64, pred: f64) -> QuantOutcome {
            if self.eb == 0.0 || !x.is_finite() || !pred.is_finite() {
                return QuantOutcome::Escape;
            }
            let diff = x - pred;
            let code_f = (diff / self.two_eb).round();
            if !(code_f.abs() < (RADIUS - 1) as f64) {
                return QuantOutcome::Escape;
            }
            let code = code_f as i64;
            let recon = self.snap(pred + code as f64 * self.two_eb);
            if !((x - recon).abs() <= self.eb) {
                return QuantOutcome::Escape;
            }
            QuantOutcome::Code {
                symbol: (code + RADIUS) as u16,
                recon,
            }
        }
    }

    pub fn predict(pred: &Predictor, h: &History) -> f64 {
        let order = match pred {
            Predictor::Last => 1,
            Predictor::Linear => 2,
            Predictor::Quadratic => 3,
        };
        match order.min(h.len()) {
            0 => 0.0,
            1 => h.prev(0),
            2 => 2.0 * h.prev(0) - h.prev(1),
            _ => 3.0 * h.prev(0) - 3.0 * h.prev(1) + h.prev(2),
        }
    }

    /// The historical 1-D loop of `compress_impl`.
    pub fn quantize_1d(data: &[f64], eb: f64, snap_f32: bool, chunk: usize) -> Quantized {
        let quant = Quantizer::with_snap(eb, snap_f32);
        let mut pred_tags = Vec::new();
        let n_chunks = data.len().div_ceil(chunk);
        pred_tags.reserve(n_chunks);
        let mut symbols: Vec<u16> = Vec::with_capacity(data.len());
        let mut exact: Vec<f64> = Vec::new();
        let mut history = History::new();
        for block in data.chunks(chunk) {
            let pred = Predictor::select(block, &history, eb);
            pred_tags.push(pred.tag());
            for &x in block {
                let p = predict(&pred, &history);
                match quant.quantize(x, p) {
                    QuantOutcome::Code { symbol, recon } => {
                        symbols.push(symbol);
                        history.push(recon);
                    }
                    QuantOutcome::Escape => {
                        symbols.push(ESCAPE);
                        exact.push(x);
                        history.push(x);
                    }
                }
            }
        }
        Quantized {
            tags: pred_tags,
            symbols,
            exact,
        }
    }

    fn write_u64(buf: &mut Vec<u8>, mut value: u64) {
        loop {
            let byte = (value & 0x7f) as u8;
            value >>= 7;
            if value == 0 {
                buf.push(byte);
                return;
            }
            buf.push(byte | 0x80);
        }
    }

    /// The historical framing of a 1-D stream at the default config:
    /// Huffman symbols, back-end tag `0`, then the payload's length and
    /// the payload itself.
    pub fn compress_1d(data: &[f64], eb: f64, value_type: ValueType) -> Vec<u8> {
        let chunk = SzConfig::default().chunk_size;
        let q = quantize_1d(data, eb, value_type == ValueType::F32, chunk);
        let mut payload = Vec::with_capacity(data.len() / 2 + 64);
        payload.extend_from_slice(&q.tags);
        let coded = huffman::encode(&q.symbols);
        write_u64(&mut payload, coded.len() as u64);
        payload.extend_from_slice(&coded);
        write_u64(&mut payload, q.exact.len() as u64);
        for &v in &q.exact {
            match value_type {
                ValueType::F64 => payload.extend_from_slice(&v.to_le_bytes()),
                ValueType::F32 => payload.extend_from_slice(&(v as f32).to_le_bytes()),
            }
        }

        let mut out = Vec::with_capacity(payload.len() + 48);
        out.extend_from_slice(b"SZR1");
        write_u64(&mut out, data.len() as u64);
        out.extend_from_slice(&eb.to_le_bytes());
        for _ in 0..3 {
            write_u64(&mut out, 0);
        }
        write_u64(&mut out, chunk as u64);
        out.push(0); // no back end
        out.push(0); // Huffman
        out.push(value_type.tag());
        write_u64(&mut out, payload.len() as u64);
        out.extend_from_slice(&payload);
        out
    }
}

fn exact_bits(q: &Quantized) -> Vec<u64> {
    q.exact.iter().map(|v| v.to_bits()).collect()
}

/// A seeded stream of `len` values: a smooth wave with small noise, plus
/// (optionally) NaN/±∞/±0 and jumps far beyond `RADIUS` codes.
fn stream(len: usize, seed: u64, specials: bool, jumps: bool, f32_exact: bool) -> Vec<f64> {
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        (s >> 11) as f64 / (1u64 << 53) as f64
    };
    let phase = next() * 6.0;
    let mut v: Vec<f64> = (0..len)
        .map(|i| (i as f64 * 0.011 + phase).sin() * 25.0 + (next() - 0.5) * 0.02)
        .collect();
    if specials {
        let marks = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0];
        for (k, &m) in marks.iter().enumerate() {
            for i in (k * 7..len).step_by(97 + 13 * k) {
                v[i] = m;
            }
        }
    }
    if jumps {
        for i in (5..len).step_by(61) {
            v[i] += 1e6 * (next() - 0.5);
        }
    }
    if f32_exact {
        for x in &mut v {
            *x = f64::from(*x as f32);
        }
    }
    v
}

const EDGE_LENS: [usize; 13] = [0, 1, 2, 3, 4, 5, 17, 256, 4095, 4096, 4097, 8192, 8193];

fn check_streams(streams: &[Vec<f64>], eb: f64, snap: bool) -> Result<(), TestCaseError> {
    let block = SzConfig::default().chunk_size;
    let refs: Vec<&[f64]> = streams.iter().map(Vec::as_slice).collect();
    let together = quantize_streams(&refs, eb, snap, block);
    prop_assert_eq!(together.len(), streams.len());
    for (l, s) in refs.iter().enumerate() {
        let want = reference::quantize_1d(s, eb, snap, block);
        let alone = quantize_streams(&refs[l..=l], eb, snap, block);
        for (path, got) in [("lanes", &together[l]), ("scalar", &alone[0])] {
            prop_assert_eq!(&got.tags, &want.tags, "{} tags, lane {}", path, l);
            prop_assert_eq!(&got.symbols, &want.symbols, "{} symbols, lane {}", path, l);
            prop_assert_eq!(
                exact_bits(got),
                exact_bits(&want),
                "{} exact, lane {}",
                path,
                l
            );
        }
    }
    Ok(())
}

#[test]
fn every_lane_count_and_edge_length_matches_the_reference() {
    for n in 1..=LANES {
        for k in 0..EDGE_LENS.len() {
            let streams: Vec<Vec<f64>> = (0..n)
                .map(|l| {
                    let len = EDGE_LENS[(k + 5 * l) % EDGE_LENS.len()];
                    stream(len, (k * 31 + l) as u64, l % 2 == 1, l >= 2, false)
                })
                .collect();
            for eb in [0.0, 1e-4, 0.3] {
                check_streams(&streams, eb, false).unwrap();
            }
            let singles: Vec<Vec<f64>> = streams
                .iter()
                .map(|s| s.iter().map(|&x| f64::from(x as f32)).collect())
                .collect();
            check_streams(&singles, 1e-3, true).unwrap();
        }
    }
}

#[test]
fn cases_only_the_upper_lanes_see_match_the_reference() {
    // Streams 0–3 stay clean and longest; each case disturbs streams
    // 4..LANES alone (the second AVX2 vector of the lane kernel).
    let clean: Vec<Vec<f64>> = (0..LANES)
        .map(|l| stream(9000, 40 + l as u64, false, false, false))
        .collect();
    let check = |streams: &[Vec<f64>]| {
        for eb in [0.0, 1e-4, 0.3] {
            check_streams(streams, eb, false).unwrap();
        }
    };
    // A lone escape, NaN or ±∞ in one upper stream.
    for (k, lane) in (4..LANES).enumerate() {
        let mut streams = clean.clone();
        let at = 4096 + 300 * k;
        streams[lane][at] = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e6][k % 4];
        check(&streams);
    }
    // An upper stream ends first: only the second vector's tail is masked.
    for lane in 4..LANES {
        let mut streams = clean.clone();
        streams[lane].truncate(5000 + lane);
        check(&streams);
    }
    // Different predictors per vector: a smooth lower half, a noisy
    // upper one.
    let mut mixed = clean.clone();
    for s in &mut mixed[4..] {
        for (i, v) in s.iter_mut().enumerate() {
            *v += if i % 2 == 0 { 0.5 } else { -0.5 };
        }
    }
    let refs: Vec<&[f64]> = mixed.iter().map(Vec::as_slice).collect();
    let tags: Vec<Vec<u8>> = quantize_streams(&refs, 1e-4, false, SzConfig::default().chunk_size)
        .into_iter()
        .map(|q| q.tags)
        .collect();
    assert_ne!(
        tags[0], tags[4],
        "the vectors must pick different predictors"
    );
    check(&mixed);
    // Five streams: one real lane in the upper vector.
    check(&clean[..5]);
}

#[test]
fn chunked_payloads_equal_per_chunk_compress_and_the_reference() {
    let codec = SzCodec::new();
    // ±∞ would make the range-relative bound infinite: specials only
    // under the absolute one.
    let special = stream(3 * 4096 + 1234, 7, true, true, false);
    let finite = stream(3 * 4096 + 1234, 8, false, true, false);
    for chunk_values in [1, 3, 256, 4095, 4096, 4097, 8193, 20_000] {
        for (params, data) in [
            (CodecParams::abs_1d(1e-3), &special),
            (CodecParams::rel_1d(1e-4), &finite),
        ] {
            let out = codec.compress_chunks(data, &params, chunk_values).unwrap();
            let eb = out.resolved_bound.unwrap();
            let abs = CodecParams::abs_1d(eb);
            assert_eq!(out.payloads.len(), data.len().div_ceil(chunk_values));
            for (payload, chunk) in out.payloads.iter().zip(data.chunks(chunk_values)) {
                assert_eq!(payload, &codec.compress(chunk, &abs).unwrap());
                assert_eq!(payload, &reference::compress_1d(chunk, eb, ValueType::F64));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn lanes_scalar_and_reference_agree(
        lens in prop::collection::vec(
            prop_oneof![
                2 => prop::sample::select(&EDGE_LENS),
                1 => 0usize..9000,
            ],
            1..=LANES,
        ),
        seed in any::<u64>(),
        eb in prop::sample::select(&[0.0, 1e-6, 1e-3, 0.25]),
        specials in any::<bool>(),
        jumps in any::<bool>(),
        snap in any::<bool>(),
    ) {
        let streams: Vec<Vec<f64>> = lens
            .iter()
            .enumerate()
            .map(|(l, &len)| stream(len, seed.wrapping_add(l as u64), specials, jumps, snap))
            .collect();
        check_streams(&streams, eb, snap)?;
    }

    #[test]
    fn compress_chunks_is_per_chunk_compress(
        len in 0usize..12_000,
        chunk_values in prop_oneof![
            1 => prop::sample::select(&EDGE_LENS[1..]),
            1 => 1usize..5000,
        ],
        seed in any::<u64>(),
        specials in any::<bool>(),
        f32_mode in any::<bool>(),
        eb in prop::sample::select(&[0.0, 1e-5, 1e-2]),
    ) {
        let data = stream(len, seed, specials, !specials, f32_mode);
        let value_type = if f32_mode { ValueType::F32 } else { ValueType::F64 };
        let params = CodecParams {
            control: ErrorControl::Absolute(eb),
            dims: [0, 0, 0],
            value_type,
        };
        let codec = SzCodec::new();
        let out = codec.compress_chunks(&data, &params, chunk_values).unwrap();
        prop_assert_eq!(out.payloads.len(), data.len().div_ceil(chunk_values));
        for (payload, chunk) in out.payloads.iter().zip(data.chunks(chunk_values)) {
            prop_assert_eq!(payload, &codec.compress(chunk, &params).unwrap());
            prop_assert_eq!(payload, &reference::compress_1d(chunk, eb, value_type));
        }
    }
}
