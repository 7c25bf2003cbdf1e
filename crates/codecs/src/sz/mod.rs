//! SZ-style prediction-based error-bounded lossy compressor.
//!
//! Stages (mirrors SZ 1.4, the version the paper benchmarks against):
//!
//! 1. the stream is cut into fixed-size chunks; for each chunk the best of
//!    three predictors (last-value / linear / quadratic Lorenzo along the
//!    stream) is selected by trial ([`predictor`]);
//! 2. each value's prediction residual is quantized against the absolute
//!    error bound with *linear-scaling quantization* ([`quantizer`]): code
//!    `round(residual / 2eb)` if it fits the code table, otherwise the value
//!    is flagged *unpredictable* and stored verbatim;
//! 3. the quantization codes are entropy-coded with canonical Huffman and
//!    the payload is stored as is: the stream keeps SZ's back-end tag byte,
//!    but it is always `0` (no general-purpose lossless pass follows).
//!
//! Prediction always runs on *reconstructed* values, so encoder and decoder
//! stay in lockstep and the bound `|x - x̂| <= eb` holds pointwise — the
//! crate-level property tests enforce this for arbitrary finite inputs.
//!
//! Steps 1–2 of the 1-D path run in [`quantize_streams`]: independent
//! streams under one bound (the consecutive chunks of a store field)
//! advance together, up to [`LANES`] at once, through the lane-parallel
//! [`zmesh_kernels::sz::quantize_lanes`] kernel. [`SzCodec::compress`] is
//! the one-stream call; [`Codec::compress_chunks`] hands runs of chunks to
//! it. A stream's bytes never depend on which streams shared its call.
//!
//! This codec is the one most sensitive to 1-D stream smoothness: a smooth
//! stream concentrates quantization codes near zero, which Huffman rewards.
//! That sensitivity is exactly what zMesh exploits (the abstract reports up
//! to +133.7 % compression ratio for SZ after reordering).
//!
//! When [`CodecParams::dims`] declares a uniform 2-D/3-D grid, prediction
//! switches to the multi-dimensional Lorenzo stencil ([`lorenzo`]), the way
//! SZ treats regular grids.

pub mod lorenzo;
pub mod predictor;
pub mod quantizer;

use crate::lossless::{huffman, rangecoder};
use crate::{
    varint, ChunkedStream, Codec, CodecError, CodecKind, CodecParams, ErrorControl, ValueType,
};
use predictor::{History, Predictor};
use quantizer::{Quantizer, ESCAPE};
use zmesh_kernels::sz::{quantize_lanes, Lane};

pub use zmesh_kernels::sz::LANES;

const MAGIC: &[u8; 4] = b"SZR1";

/// The stream's back-end tag: no byte-level pass, the payload follows its
/// length verbatim. Any other tag is corrupt.
const NO_BACKEND: u8 = 0;

/// Entropy stage for the quantization codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EntropyCoder {
    /// Canonical Huffman (SZ's choice; fast, ≤ ½ bit/symbol overhead).
    #[default]
    Huffman,
    /// Adaptive binary range coder with bit-tree models — denser on
    /// drifting distributions, slower (see ablation A14).
    Range,
}

impl EntropyCoder {
    /// Stream tag.
    pub fn tag(&self) -> u8 {
        match self {
            EntropyCoder::Huffman => 0,
            EntropyCoder::Range => 1,
        }
    }

    /// Inverse of [`EntropyCoder::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(EntropyCoder::Huffman),
            1 => Some(EntropyCoder::Range),
            _ => None,
        }
    }

    /// Short label for harness output.
    pub fn label(&self) -> &'static str {
        match self {
            EntropyCoder::Huffman => "huffman",
            EntropyCoder::Range => "range",
        }
    }

    fn encode(&self, symbols: &[u16]) -> Vec<u8> {
        match self {
            EntropyCoder::Huffman => huffman::encode(symbols),
            EntropyCoder::Range => rangecoder::encode(symbols),
        }
    }

    fn decode(&self, bytes: &[u8]) -> Result<Vec<u16>, CodecError> {
        match self {
            EntropyCoder::Huffman => huffman::decode(bytes),
            EntropyCoder::Range => rangecoder::decode(bytes),
        }
    }
}

/// Configuration for [`SzCodec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SzConfig {
    /// Number of values per predictor-selection chunk.
    pub chunk_size: usize,
    /// Entropy stage for the quantization codes.
    pub entropy: EntropyCoder,
}

impl Default for SzConfig {
    fn default() -> Self {
        Self {
            chunk_size: 4096,
            entropy: EntropyCoder::Huffman,
        }
    }
}

/// The SZ-style codec. See the [module docs](self) for the pipeline.
///
/// ```
/// use zmesh_codecs::{Codec, CodecParams, SzCodec};
///
/// let data: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.01).sin()).collect();
/// let codec = SzCodec::new();
/// let bytes = codec.compress(&data, &CodecParams::abs_1d(1e-4)).unwrap();
/// let out = codec.decompress(&bytes).unwrap();
/// assert!(data.iter().zip(&out).all(|(a, b)| (a - b).abs() <= 1e-4));
/// assert!(bytes.len() < data.len() * 8 / 4); // > 4x on a smooth stream
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SzCodec {
    /// Tuning knobs; the default matches the paper's setup.
    pub config: SzConfig,
}

impl SzCodec {
    /// Codec with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Codec with an explicit entropy stage.
    pub fn with_entropy(entropy: EntropyCoder) -> Self {
        Self {
            config: SzConfig {
                entropy,
                ..SzConfig::default()
            },
        }
    }

    /// 1-D encode of up to [`LANES`] streams under one resolved bound:
    /// one kernel call per block advances all of them together.
    fn encode_run(
        &self,
        run: &[&[f64]],
        eb: f64,
        value_type: ValueType,
    ) -> Result<Vec<Vec<u8>>, CodecError> {
        if value_type == ValueType::F32 {
            for data in run {
                check_f32(data)?;
            }
        }
        let block = self.config.chunk_size.max(1);
        let quantized = quantize_streams(run, eb, value_type == ValueType::F32, block);
        Ok(quantized
            .iter()
            .zip(run)
            .map(|(q, data)| frame(q, data.len(), eb, [0, 0, 0], value_type, &self.config))
            .collect())
    }
}

/// The absolute bound `params` resolves to over `data`, validated.
fn resolve_bound(params: &CodecParams, data: &[f64]) -> Result<f64, CodecError> {
    let eb = match params.control {
        ErrorControl::FixedRate(_) | ErrorControl::FixedPrecision(_) => {
            return Err(CodecError::InvalidBound(f64::NAN));
        }
        ref c => c.absolute_bound(data).expect("bound-style control"),
    };
    if !eb.is_finite() || eb < 0.0 {
        return Err(CodecError::InvalidBound(eb));
    }
    Ok(eb)
}

/// Escapes are stored in 4 bytes in f32 mode, so every value must survive
/// the f64 → f32 → f64 round trip exactly (NaN payloads excepted).
fn check_f32(data: &[f64]) -> Result<(), CodecError> {
    match data
        .iter()
        .position(|&v| !v.is_nan() && v != f64::from(v as f32))
    {
        Some(index) => Err(CodecError::NotSinglePrecision { index }),
        None => Ok(()),
    }
}

impl Codec for SzCodec {
    fn compress(&self, data: &[f64], params: &CodecParams) -> Result<Vec<u8>, CodecError> {
        let eb = resolve_bound(params, data)?;
        let dims = params.dimensionality();
        if dims == 1 {
            let mut one = self.encode_run(&[data], eb, params.value_type)?;
            return Ok(one.pop().expect("one stream in, one payload out"));
        }
        let grid = match dims {
            2 => [params.dims[0], params.dims[1], 1],
            _ => params.dims,
        };
        let expected: usize = grid.iter().product();
        if expected != data.len() {
            return Err(CodecError::DimsMismatch {
                expected,
                actual: data.len(),
            });
        }
        if params.value_type == ValueType::F32 {
            check_f32(data)?;
        }
        let quant = Quantizer::with_snap(eb, params.value_type == ValueType::F32);
        let (symbols, exact) = lorenzo::encode(data, grid, dims, &quant);
        let q = Quantized {
            tags: Vec::new(),
            symbols,
            exact,
        };
        Ok(frame(
            &q,
            data.len(),
            eb,
            params.dims,
            params.value_type,
            &self.config,
        ))
    }

    fn decompress(&self, bytes: &[u8]) -> Result<Vec<f64>, CodecError> {
        decompress_impl(bytes)
    }

    fn kind(&self) -> CodecKind {
        CodecKind::Sz
    }

    /// Runs of up to [`LANES`] consecutive chunks encode together — one
    /// predict + quantize kernel call per block advances the whole run —
    /// and runs go to the thread pool. Every payload is byte-identical to
    /// [`Codec::compress`] of its chunk under the resolved bound.
    fn compress_chunks(
        &self,
        data: &[f64],
        params: &CodecParams,
        chunk_values: usize,
    ) -> Result<ChunkedStream, CodecError>
    where
        Self: Sync,
    {
        use rayon::prelude::*;

        if chunk_values == 0 {
            return Err(CodecError::ChunkParams("chunk size must be positive"));
        }
        if params.dimensionality() != 1 {
            return Err(CodecError::ChunkParams("requires 1-D params"));
        }
        let mut params = *params;
        let resolved_bound = params.control.absolute_bound(data);
        if let Some(bound) = resolved_bound {
            params.control = ErrorControl::Absolute(bound);
        }
        let chunks: Vec<&[f64]> = data.chunks(chunk_values).collect();
        let runs: Vec<Vec<Vec<u8>>> = chunks
            .par_chunks(LANES)
            .map(|run| {
                let eb = resolve_bound(&params, run[0])?;
                self.encode_run(run, eb, params.value_type)
            })
            .collect::<Result<_, CodecError>>()?;
        Ok(ChunkedStream {
            payloads: runs.into_iter().flatten().collect(),
            resolved_bound,
        })
    }
}

/// Predictor tags (one per block), quantization symbols (one per value)
/// and verbatim escaped values of one 1-D SZ stream — the payload
/// [`SzCodec`] entropy-codes.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Quantized {
    /// [`Predictor::tag`] of each `block`-sized block.
    pub tags: Vec<u8>,
    /// One symbol per value; [`ESCAPE`] marks a verbatim value.
    pub symbols: Vec<u16>,
    /// The escaped values, in stream order.
    pub exact: Vec<f64>,
}

/// SZ's 1-D predict + quantize over up to [`LANES`] independent streams,
/// each starting with empty history, under one absolute bound `eb`:
/// every `block` values a stream picks its predictor by trial
/// ([`Predictor::select`]), then one [`zmesh_kernels::sz::quantize_lanes`]
/// call advances the block of every stream still running. The result per
/// stream does not depend on which streams share the call.
///
/// # Panics
///
/// When more than [`LANES`] streams are given.
pub fn quantize_streams(
    streams: &[&[f64]],
    eb: f64,
    snap_f32: bool,
    block: usize,
) -> Vec<Quantized> {
    assert!(streams.len() <= LANES, "at most {LANES} streams");
    let block = block.max(1);
    let mut out: Vec<Quantized> = streams
        .iter()
        .map(|s| Quantized {
            tags: Vec::with_capacity(s.len().div_ceil(block)),
            symbols: vec![ESCAPE; s.len()],
            exact: Vec::new(),
        })
        .collect();
    let mut history = [History::new(); LANES];
    let mut escapes: [Vec<usize>; LANES] = Default::default();
    let longest = streams.iter().map(|s| s.len()).max().unwrap_or(0);
    for lo in (0..longest).step_by(block) {
        let mut lanes = Vec::with_capacity(LANES);
        for (((&data, q), h), e) in streams
            .iter()
            .zip(&mut out)
            .zip(&mut history)
            .zip(&mut escapes)
        {
            if lo >= data.len() {
                continue;
            }
            let values = &data[lo..(lo + block).min(data.len())];
            let pred = Predictor::select(values, h, eb);
            q.tags.push(pred.tag());
            lanes.push(Lane {
                values,
                order: pred.order(),
                history: h,
                symbols: &mut q.symbols[lo..lo + values.len()],
                escapes: e,
            });
        }
        quantize_lanes(&mut lanes, eb, snap_f32);
        drop(lanes);
        for ((&data, q), e) in streams.iter().zip(&mut out).zip(&mut escapes) {
            q.exact.extend(e.drain(..).map(|j| data[lo + j]));
        }
    }
    out
}

/// Serializes one SZ stream of `n` values: the header (magic, length,
/// bound, stored dims, block size, stage tags), the payload's length, then
/// the payload — predictor tags, entropy-coded symbols, exact values —
/// written straight into the output.
fn frame(
    q: &Quantized,
    n: usize,
    eb: f64,
    stored_dims: [usize; 3],
    value_type: ValueType,
    config: &SzConfig,
) -> Vec<u8> {
    let coded = config.entropy.encode(&q.symbols);
    let payload_len = q.tags.len()
        + varint::len_u64(coded.len() as u64)
        + coded.len()
        + varint::len_u64(q.exact.len() as u64)
        + q.exact.len() * value_type.width();
    let mut out = Vec::with_capacity(payload_len + 64);
    out.extend_from_slice(MAGIC);
    varint::write_u64(&mut out, n as u64);
    varint::write_f64(&mut out, eb);
    for d in stored_dims {
        varint::write_u64(&mut out, d as u64);
    }
    varint::write_u64(&mut out, config.chunk_size.max(1) as u64);
    out.push(NO_BACKEND);
    out.push(config.entropy.tag());
    out.push(value_type.tag());
    varint::write_u64(&mut out, payload_len as u64);
    let payload_at = out.len();
    out.extend_from_slice(&q.tags);
    varint::write_u64(&mut out, coded.len() as u64);
    out.extend_from_slice(&coded);
    varint::write_u64(&mut out, q.exact.len() as u64);
    for &v in &q.exact {
        match value_type {
            ValueType::F64 => varint::write_f64(&mut out, v),
            ValueType::F32 => varint::write_f32(&mut out, v as f32),
        }
    }
    debug_assert_eq!(out.len() - payload_at, payload_len);
    out
}

fn decompress_impl(bytes: &[u8]) -> Result<Vec<f64>, CodecError> {
    let mut pos = 0;
    if varint::read_bytes(bytes, &mut pos, 4)? != MAGIC {
        return Err(CodecError::WrongMagic);
    }
    let n = varint::read_u64(bytes, &mut pos)? as usize;
    let eb = varint::read_f64(bytes, &mut pos)?;
    if !eb.is_finite() || eb < 0.0 {
        return Err(CodecError::Corrupt("invalid stored error bound"));
    }
    let mut stored_dims = [0usize; 3];
    for d in &mut stored_dims {
        *d = varint::read_u64(bytes, &mut pos)? as usize;
    }
    let dims = match stored_dims {
        [0, 0, 0] => 1,
        [_, _, 0] => 2,
        _ => 3,
    };
    let grid = match dims {
        1 => [n, 1, 1],
        2 => [stored_dims[0], stored_dims[1], 1],
        _ => stored_dims,
    };
    // Untrusted dims: a product that overflows cannot match any length.
    let cells = grid.iter().try_fold(1usize, |acc, &d| acc.checked_mul(d));
    if cells != Some(n) {
        return Err(CodecError::Corrupt("stored dims mismatch length"));
    }
    let chunk = varint::read_u64(bytes, &mut pos)? as usize;
    if chunk == 0 {
        return Err(CodecError::Corrupt("zero chunk size"));
    }
    if *bytes
        .get(pos)
        .ok_or(CodecError::Corrupt("no backend tag"))?
        != NO_BACKEND
    {
        return Err(CodecError::Corrupt("unknown backend tag"));
    }
    pos += 1;
    let entropy = EntropyCoder::from_tag(
        *bytes
            .get(pos)
            .ok_or(CodecError::Corrupt("no entropy tag"))?,
    )
    .ok_or(CodecError::Corrupt("unknown entropy tag"))?;
    pos += 1;
    let value_type = ValueType::from_tag(
        *bytes
            .get(pos)
            .ok_or(CodecError::Corrupt("no value-type tag"))?,
    )
    .ok_or(CodecError::Corrupt("unknown value-type tag"))?;
    pos += 1;
    let stored_len = varint::read_u64(bytes, &mut pos)?;
    let payload = &bytes[pos..];
    if payload.len() as u64 != stored_len {
        return Err(CodecError::Corrupt("stored length mismatch"));
    }

    let n_chunks = if dims == 1 { n.div_ceil(chunk) } else { 0 };
    let mut ppos = 0;
    let preds: Vec<Predictor> = varint::read_bytes(payload, &mut ppos, n_chunks)?
        .iter()
        .map(|&t| Predictor::from_tag(t).ok_or(CodecError::Corrupt("unknown predictor tag")))
        .collect::<Result<_, _>>()?;
    let coded_len = varint::read_u64(payload, &mut ppos)? as usize;
    let coded = varint::read_bytes(payload, &mut ppos, coded_len)?;
    let symbols = entropy.decode(coded)?;
    if symbols.len() != n {
        return Err(CodecError::Corrupt("symbol count mismatch"));
    }
    let n_exact = varint::read_u64(payload, &mut ppos)? as usize;
    // Untrusted count: allocate no more than the bytes left can hold; a
    // larger count fails in the loop below.
    let mut exact = Vec::with_capacity(n_exact.min((payload.len() - ppos) / value_type.width()));
    for _ in 0..n_exact {
        exact.push(match value_type {
            ValueType::F64 => varint::read_f64(payload, &mut ppos)?,
            ValueType::F32 => f64::from(varint::read_f32(payload, &mut ppos)?),
        });
    }

    let quant = Quantizer::with_snap(eb, value_type == ValueType::F32);
    if dims > 1 {
        return lorenzo::decode(&symbols, &exact, grid, dims, &quant)
            .ok_or(CodecError::Corrupt("lorenzo payload inconsistent"));
    }
    let mut out = Vec::with_capacity(n);
    let mut history = History::new();
    let mut exact_iter = exact.iter();
    // Bulk-computed (symbol − RADIUS)·2eb terms (SIMD kernel): the
    // sequential reconstruction chain below is left with one add each.
    let deltas = quant.symbol_deltas(&symbols);
    for (ci, (chunk_syms, chunk_deltas)) in
        symbols.chunks(chunk).zip(deltas.chunks(chunk)).enumerate()
    {
        let pred = preds
            .get(ci)
            .copied()
            .ok_or(CodecError::Corrupt("missing predictor tag"))?;
        for (&s, &d) in chunk_syms.iter().zip(chunk_deltas) {
            let x = if s == ESCAPE {
                *exact_iter
                    .next()
                    .ok_or(CodecError::Corrupt("missing exact value"))?
            } else {
                let p = pred.predict(&history);
                quant.reconstruct_delta(d, p)
            };
            out.push(x);
            history.push(x);
        }
    }
    if exact_iter.next().is_some() {
        return Err(CodecError::Corrupt("trailing exact values"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[f64], eb: f64) -> Vec<f64> {
        let codec = SzCodec::new();
        let bytes = codec
            .compress(data, &CodecParams::abs_1d(eb))
            .expect("compress");
        let out = codec.decompress(&bytes).expect("decompress");
        assert_eq!(out.len(), data.len());
        for (i, (&a, &b)) in data.iter().zip(&out).enumerate() {
            assert!(
                (a - b).abs() <= eb * (1.0 + 1e-12),
                "index {i}: |{a} - {b}| > {eb}"
            );
        }
        out
    }

    #[test]
    fn empty_input() {
        round_trip(&[], 0.1);
    }

    #[test]
    fn constant_stream() {
        round_trip(&[5.0; 1000], 1e-3);
    }

    #[test]
    fn smooth_stream_compresses_hard() {
        let data: Vec<f64> = (0..10_000).map(|i| (i as f64 * 0.001).sin()).collect();
        let codec = SzCodec::new();
        let bytes = codec.compress(&data, &CodecParams::abs_1d(1e-4)).unwrap();
        let ratio = (data.len() * 8) as f64 / bytes.len() as f64;
        assert!(ratio > 8.0, "ratio = {ratio}");
        round_trip(&data, 1e-4);
    }

    #[test]
    fn rough_stream_still_bounded() {
        let data: Vec<f64> = (0..5000)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 11) as f64 / (1u64 << 53) as f64 * 100.0 - 50.0
            })
            .collect();
        round_trip(&data, 1e-2);
    }

    #[test]
    fn zero_error_bound_is_lossless() {
        let data = [1.0, 2.5, -3.125, 0.0, f64::MIN_POSITIVE, 1e300];
        let out = round_trip(&data, 0.0);
        assert_eq!(out, data);
    }

    #[test]
    fn non_finite_values_survive_via_escape() {
        let data = [1.0, f64::NAN, f64::INFINITY, -2.0, f64::NEG_INFINITY];
        let codec = SzCodec::new();
        let bytes = codec.compress(&data, &CodecParams::abs_1d(0.1)).unwrap();
        let out = codec.decompress(&bytes).unwrap();
        assert_eq!(out[0], 1.0);
        assert!(out[1].is_nan());
        assert_eq!(out[2], f64::INFINITY);
        assert_eq!(out[4], f64::NEG_INFINITY);
    }

    #[test]
    fn huge_jumps_escape() {
        let data = [0.0, 1e308, -1e308, 0.0, 1e-300];
        round_trip(&data, 1e-3);
    }

    #[test]
    fn range_entropy_round_trips_within_bound() {
        let data: Vec<f64> = (0..6000).map(|i| (i as f64 * 0.004).sin() * 2.0).collect();
        let codec = SzCodec::with_entropy(EntropyCoder::Range);
        let bytes = codec.compress(&data, &CodecParams::abs_1d(1e-4)).unwrap();
        let out = codec.decompress(&bytes).unwrap();
        for (&a, &b) in data.iter().zip(&out) {
            assert!((a - b).abs() <= 1e-4 * (1.0 + 1e-12));
        }
        // Cross-config decode: the stream self-describes its entropy stage.
        let other = SzCodec::new();
        assert_eq!(other.decompress(&bytes).unwrap(), out);
    }

    #[test]
    fn entropy_tags_round_trip() {
        for e in [EntropyCoder::Huffman, EntropyCoder::Range] {
            assert_eq!(EntropyCoder::from_tag(e.tag()), Some(e));
        }
        assert_eq!(EntropyCoder::from_tag(9), None);
    }

    #[test]
    fn relative_bound_resolves() {
        let data: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let codec = SzCodec::new();
        let bytes = codec.compress(&data, &CodecParams::rel_1d(1e-3)).unwrap();
        let out = codec.decompress(&bytes).unwrap();
        let bound = 1e-3 * 999.0;
        for (&a, &b) in data.iter().zip(&out) {
            assert!((a - b).abs() <= bound * (1.0 + 1e-12));
        }
    }

    #[test]
    fn rejects_bad_bounds() {
        let codec = SzCodec::new();
        let params = CodecParams {
            control: ErrorControl::Absolute(-1.0),
            dims: [0, 0, 0],
            value_type: ValueType::F64,
        };
        assert!(matches!(
            codec.compress(&[1.0], &params),
            Err(CodecError::InvalidBound(_))
        ));
        let params = CodecParams {
            control: ErrorControl::FixedRate(8.0),
            dims: [0, 0, 0],
            value_type: ValueType::F64,
        };
        assert!(codec.compress(&[1.0], &params).is_err());
    }

    #[test]
    fn corrupt_streams_error_not_panic() {
        let data: Vec<f64> = (0..500).map(|i| i as f64 * 0.1).collect();
        let codec = SzCodec::new();
        let bytes = codec.compress(&data, &CodecParams::abs_1d(1e-2)).unwrap();
        assert!(codec.decompress(&[]).is_err());
        assert!(codec.decompress(b"NOPE").is_err());
        for cut in [4, 8, bytes.len() / 2, bytes.len() - 1] {
            assert!(codec.decompress(&bytes[..cut]).is_err(), "cut = {cut}");
        }
        // Flip a header byte (magic) -> wrong magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(matches!(bad.len(), _l if codec.decompress(&bad).is_err()));
    }

    #[test]
    fn tighter_bound_costs_more_bits() {
        let data: Vec<f64> = (0..20_000)
            .map(|i| (i as f64 * 0.002).sin() * 3.0)
            .collect();
        let codec = SzCodec::new();
        let loose = codec.compress(&data, &CodecParams::abs_1d(1e-2)).unwrap();
        let tight = codec.compress(&data, &CodecParams::abs_1d(1e-6)).unwrap();
        assert!(loose.len() < tight.len());
    }
}

#[cfg(test)]
mod multidim_tests {
    use super::*;
    use crate::CodecParams;

    #[test]
    fn grid_2d_round_trips_within_bound() {
        let (nx, ny) = (57, 43);
        let data: Vec<f64> = (0..nx * ny)
            .map(|i| {
                let (x, y) = (i % nx, i / nx);
                ((x as f64) * 0.2).sin() * ((y as f64) * 0.15).cos() * 5.0
            })
            .collect();
        let codec = SzCodec::new();
        let params = CodecParams::abs_1d(1e-4).with_dims_2d(nx, ny);
        let bytes = codec.compress(&data, &params).unwrap();
        let out = codec.decompress(&bytes).unwrap();
        for (&a, &b) in data.iter().zip(&out) {
            assert!((a - b).abs() <= 1e-4 * (1.0 + 1e-12));
        }
    }

    #[test]
    fn grid_3d_round_trips_within_bound() {
        let (nx, ny, nz) = (15, 11, 9);
        let data: Vec<f64> = (0..nx * ny * nz)
            .map(|i| {
                let x = i % nx;
                let y = (i / nx) % ny;
                let z = i / (nx * ny);
                (x as f64 * 0.4).sin() + (y as f64 * 0.3).cos() + z as f64 * 0.1
            })
            .collect();
        let codec = SzCodec::new();
        let params = CodecParams::abs_1d(1e-3).with_dims_3d(nx, ny, nz);
        let bytes = codec.compress(&data, &params).unwrap();
        let out = codec.decompress(&bytes).unwrap();
        for (&a, &b) in data.iter().zip(&out) {
            assert!((a - b).abs() <= 1e-3 * (1.0 + 1e-12));
        }
    }

    #[test]
    fn lorenzo_2d_beats_1d_on_separable_rough_grids() {
        // The Lorenzo stencil annihilates additive fields f(x) + g(y)
        // exactly, however rough f and g are; the 1-D curve-fitting
        // predictors cannot track per-sample noise.
        let n = 128;
        let noise = |k: u64| {
            let mut h = k.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            h = (h ^ (h >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            (h >> 11) as f64 / (1u64 << 53) as f64
        };
        let data: Vec<f64> = (0..n * n)
            .map(|i| {
                let (x, y) = (i % n, i / n);
                noise(x as u64) + noise(1000 + y as u64)
            })
            .collect();
        let codec = SzCodec::new();
        let one_d = codec.compress(&data, &CodecParams::abs_1d(1e-5)).unwrap();
        let two_d = codec
            .compress(&data, &CodecParams::abs_1d(1e-5).with_dims_2d(n, n))
            .unwrap();
        assert!(
            two_d.len() * 2 < one_d.len(),
            "2d {} !< 1d {}",
            two_d.len(),
            one_d.len()
        );
    }

    #[test]
    fn dims_mismatch_is_rejected() {
        let codec = SzCodec::new();
        let params = CodecParams::abs_1d(0.1).with_dims_2d(4, 4);
        assert!(matches!(
            codec.compress(&[0.0; 10], &params),
            Err(CodecError::DimsMismatch { .. })
        ));
    }
}

#[cfg(test)]
mod f32_tests {
    use super::*;
    use crate::CodecParams;

    fn f32_data(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| f64::from(((i as f32) * 0.004).sin() * 10.0))
            .collect()
    }

    #[test]
    fn f32_streams_round_trip_within_bound() {
        let data = f32_data(8000);
        let codec = SzCodec::new();
        let params = CodecParams::abs_1d(1e-4).as_f32();
        let bytes = codec.compress(&data, &params).unwrap();
        let out = codec.decompress(&bytes).unwrap();
        for (&a, &b) in data.iter().zip(&out) {
            assert_eq!(b, f64::from(b as f32), "output not f32");
            assert!((a - b).abs() <= 1e-4 * (1.0 + 1e-12));
        }
    }

    #[test]
    fn f32_escapes_cost_four_bytes() {
        // All-escape stream (eb = 0): f32 mode should be ~half the size.
        let data = f32_data(4000);
        let codec = SzCodec::new();
        let f64_bytes = codec.compress(&data, &CodecParams::abs_1d(0.0)).unwrap();
        let f32_bytes = codec
            .compress(&data, &CodecParams::abs_1d(0.0).as_f32())
            .unwrap();
        assert!(
            (f32_bytes.len() as f64) < 0.6 * f64_bytes.len() as f64,
            "{} vs {}",
            f32_bytes.len(),
            f64_bytes.len()
        );
        assert_eq!(codec.decompress(&f32_bytes).unwrap(), data);
    }

    #[test]
    fn non_f32_input_is_rejected_in_f32_mode() {
        let codec = SzCodec::new();
        let params = CodecParams::abs_1d(0.1).as_f32();
        assert!(matches!(
            codec.compress(&[0.1f64], &params),
            Err(CodecError::NotSinglePrecision { index: 0 })
        ));
        // NaNs are allowed (payload reduced to f32 NaN).
        let data = [1.0f64, f64::NAN, 2.0];
        let bytes = codec.compress(&data, &params).unwrap();
        let out = codec.decompress(&bytes).unwrap();
        assert!(out[1].is_nan());
    }
}
