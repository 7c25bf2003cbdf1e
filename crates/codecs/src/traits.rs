//! The codec abstraction shared by SZ, ZFP, and the pipeline.

use std::fmt;

/// How the lossy codec's distortion is controlled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ErrorControl {
    /// Pointwise absolute error bound: `|x - x̂| <= bound` for every value.
    Absolute(f64),
    /// Error bound relative to the data's value range:
    /// `|x - x̂| <= rel * (max - min)`. Resolved to an absolute bound at
    /// compression time (the resolved bound is stored in the stream header).
    ValueRangeRelative(f64),
    /// Fixed rate in bits per value (ZFP only); no error guarantee.
    FixedRate(f64),
    /// Fixed number of bit planes kept per block (ZFP only, 1..=64);
    /// relative-accuracy-style control, no absolute guarantee.
    FixedPrecision(u32),
}

impl ErrorControl {
    /// Resolves this control to an absolute bound for the given data.
    /// Returns `None` for [`ErrorControl::FixedRate`].
    pub fn absolute_bound(&self, data: &[f64]) -> Option<f64> {
        match *self {
            ErrorControl::Absolute(b) => Some(b),
            ErrorControl::ValueRangeRelative(r) => Some(r * range_of(value_range(data))),
            ErrorControl::FixedRate(_) | ErrorControl::FixedPrecision(_) => None,
        }
    }
}

/// Smallest and largest non-NaN value of `data` (`(inf, -inf)` when there
/// is none), folded over eight independent accumulators so the loop
/// vectorises, then a scalar tail. Which zero a `±0` extreme comes back as
/// depends on the fold order; [`range_of`] makes that invisible.
fn value_range(data: &[f64]) -> (f64, f64) {
    const LANES: usize = 8;
    let mut lo = [f64::INFINITY; LANES];
    let mut hi = [f64::NEG_INFINITY; LANES];
    let blocks = data.chunks_exact(LANES);
    let tail = blocks.remainder();
    for block in blocks {
        for j in 0..LANES {
            // Compare-and-select: a NaN compares false and is skipped.
            lo[j] = if block[j] < lo[j] { block[j] } else { lo[j] };
            hi[j] = if block[j] > hi[j] { block[j] } else { hi[j] };
        }
    }
    let (mut l, mut h) = (f64::INFINITY, f64::NEG_INFINITY);
    for &x in lo.iter().chain(tail) {
        l = l.min(x);
    }
    for &x in hi.iter().chain(tail) {
        h = h.max(x);
    }
    (l, h)
}

/// `max - min` of a [`value_range`], `0.0` for empty or all-NaN data. A
/// zero range is always `+0.0`: with zeros of both signs the extremes'
/// signs depend on the fold order, and `-0.0 - +0.0` would be `-0.0`.
fn range_of((lo, hi): (f64, f64)) -> f64 {
    let range = if lo <= hi { hi - lo } else { 0.0 };
    if range == 0.0 {
        0.0
    } else {
        range
    }
}

/// Precision of the *source* data. Values always travel as `f64` through
/// the API; `F32` tells the codec the payload originated as single
/// precision, so reconstructed values are snapped to `f32` (keeping the
/// error bound, which the quantizer re-verifies after snapping) and
/// verbatim escapes are stored in 4 bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ValueType {
    /// Double-precision source data.
    #[default]
    F64,
    /// Single-precision source data (half-size escapes, snapped output).
    F32,
}

impl ValueType {
    /// Stream tag.
    pub fn tag(&self) -> u8 {
        match self {
            ValueType::F64 => 0,
            ValueType::F32 => 1,
        }
    }

    /// Inverse of [`ValueType::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            0 => Some(ValueType::F64),
            1 => Some(ValueType::F32),
            _ => None,
        }
    }

    /// Bytes per raw value of this type.
    pub fn width(&self) -> usize {
        match self {
            ValueType::F64 => 8,
            ValueType::F32 => 4,
        }
    }
}

/// Parameters handed to a codec's `compress`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodecParams {
    /// Distortion control.
    pub control: ErrorControl,
    /// Logical dimensionality of the stream (1 for zMesh-linearized data;
    /// 2/3 let ZFP use square/cubic blocks on uniform grids).
    pub dims: [usize; 3],
    /// Source precision (affects escape storage and output snapping).
    pub value_type: ValueType,
}

impl CodecParams {
    /// 1-D stream with a pointwise absolute error bound — the configuration
    /// used by the zMesh pipeline.
    pub fn abs_1d(bound: f64) -> Self {
        Self {
            control: ErrorControl::Absolute(bound),
            dims: [0, 0, 0],
            value_type: ValueType::F64,
        }
    }

    /// 1-D stream with a value-range-relative bound.
    pub fn rel_1d(rel: f64) -> Self {
        Self {
            control: ErrorControl::ValueRangeRelative(rel),
            dims: [0, 0, 0],
            value_type: ValueType::F64,
        }
    }

    /// Marks the source data as single precision.
    pub fn as_f32(mut self) -> Self {
        self.value_type = ValueType::F32;
        self
    }

    /// Explicit 2-D grid (nx fastest-varying).
    pub fn with_dims_2d(mut self, nx: usize, ny: usize) -> Self {
        self.dims = [nx, ny, 0];
        self
    }

    /// Explicit 3-D grid (nx fastest-varying).
    pub fn with_dims_3d(mut self, nx: usize, ny: usize, nz: usize) -> Self {
        self.dims = [nx, ny, nz];
        self
    }

    /// Effective dimensionality implied by `dims`.
    pub fn dimensionality(&self) -> usize {
        match self.dims {
            [0, 0, 0] => 1,
            [_, _, 0] => 2,
            _ => 3,
        }
    }
}

/// Errors produced by compression or decompression.
#[derive(Debug, Clone, PartialEq)]
pub enum CodecError {
    /// The requested error bound is not positive/finite.
    InvalidBound(f64),
    /// Input contains NaN/Inf and the codec cannot represent it.
    NonFiniteInput { index: usize },
    /// `ValueType::F32` was requested but a value is not representable in
    /// single precision.
    NotSinglePrecision { index: usize },
    /// Declared dims do not match the data length.
    DimsMismatch { expected: usize, actual: usize },
    /// The compressed stream is malformed.
    Corrupt(&'static str),
    /// The compressed stream was produced by a different codec/version.
    WrongMagic,
    /// Chunked compression was requested with parameters it cannot honor.
    ChunkParams(&'static str),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::InvalidBound(b) => write!(f, "invalid error bound: {b}"),
            CodecError::NonFiniteInput { index } => {
                write!(f, "non-finite input value at index {index}")
            }
            CodecError::NotSinglePrecision { index } => {
                write!(f, "value at index {index} is not representable as f32")
            }
            CodecError::DimsMismatch { expected, actual } => {
                write!(f, "dims imply {expected} values but stream has {actual}")
            }
            CodecError::Corrupt(what) => write!(f, "corrupt stream: {what}"),
            CodecError::WrongMagic => write!(f, "stream magic/version mismatch"),
            CodecError::ChunkParams(what) => write!(f, "chunked compression: {what}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// A 1-D stream compressed as independently decodable chunks (the entry
/// point the chunked container format v2 builds on).
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkedStream {
    /// Self-describing compressed payloads, one per `chunk_values`-sized
    /// run of the input (the last may cover fewer values). Each decodes
    /// on its own with [`Codec::decompress`].
    pub payloads: Vec<Vec<u8>>,
    /// The absolute error bound every chunk was compressed under, resolved
    /// over the *whole* stream (so relative bounds match the monolithic
    /// path). `None` for fixed-rate / fixed-precision control.
    pub resolved_bound: Option<f64>,
}

/// An error-bounded lossy codec over `f64` streams.
pub trait Codec {
    /// Compresses `data` under `params`, returning a self-describing buffer.
    fn compress(&self, data: &[f64], params: &CodecParams) -> Result<Vec<u8>, CodecError>;

    /// Decompresses a buffer produced by [`Codec::compress`].
    fn decompress(&self, bytes: &[u8]) -> Result<Vec<f64>, CodecError>;

    /// Stable identifier for harness output.
    fn kind(&self) -> CodecKind;

    /// Compresses `data` as a sequence of independently decodable chunks of
    /// `chunk_values` values each (last chunk may be short), in parallel.
    ///
    /// Value-range-relative bounds are resolved against the **whole**
    /// stream first, so every chunk honors the same pointwise absolute
    /// bound and the result is distortion-equivalent to the monolithic
    /// path. Only 1-D params are accepted — chunk boundaries would cut
    /// through rows of a declared 2-D/3-D grid.
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
        let payloads: Result<Vec<Vec<u8>>, CodecError> = chunks
            .par_iter()
            .map(|chunk| self.compress(chunk, &params))
            .collect();
        Ok(ChunkedStream {
            payloads: payloads?,
            resolved_bound,
        })
    }
}

/// Identifies a codec in harness output and container headers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CodecKind {
    /// The SZ-style predictive codec.
    Sz,
    /// The ZFP-style transform codec.
    Zfp,
}

impl CodecKind {
    /// Short label used by the benchmark harness output.
    pub fn label(&self) -> &'static str {
        match self {
            CodecKind::Sz => "sz",
            CodecKind::Zfp => "zfp",
        }
    }

    /// Container-header tag.
    pub fn tag(&self) -> u8 {
        match self {
            CodecKind::Sz => 1,
            CodecKind::Zfp => 2,
        }
    }

    /// Inverse of [`CodecKind::tag`].
    pub fn from_tag(tag: u8) -> Option<Self> {
        match tag {
            1 => Some(CodecKind::Sz),
            2 => Some(CodecKind::Zfp),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn relative_bound_resolves_against_range() {
        let data = [0.0, 5.0, 10.0];
        let c = ErrorControl::ValueRangeRelative(1e-2);
        assert_eq!(c.absolute_bound(&data), Some(0.1));
        assert_eq!(ErrorControl::Absolute(0.5).absolute_bound(&data), Some(0.5));
        assert_eq!(ErrorControl::FixedRate(8.0).absolute_bound(&data), None);
    }

    /// The scalar in-order fold: the reference [`value_range`] must match.
    fn value_range_scalar(data: &[f64]) -> (f64, f64) {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &x in data {
            lo = lo.min(x);
            hi = hi.max(x);
        }
        (lo, hi)
    }

    /// The bound under `ValueRangeRelative(rel)`, via the scalar fold.
    fn bound_scalar(rel: f64, data: &[f64]) -> u64 {
        (rel * range_of(value_range_scalar(data))).to_bits()
    }

    fn bound_bits(rel: f64, data: &[f64]) -> u64 {
        let bound = ErrorControl::ValueRangeRelative(rel).absolute_bound(data);
        bound.expect("relative control resolves").to_bits()
    }

    /// `data` shuffled by a seeded Fisher–Yates.
    fn shuffled(data: &[f64], mut seed: u64) -> Vec<f64> {
        let mut out = data.to_vec();
        for i in (1..out.len()).rev() {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            out.swap(i, (seed >> 33) as usize % (i + 1));
        }
        out
    }

    #[test]
    fn vectorised_fold_matches_the_scalar_fold() {
        let nan = f64::NAN;
        let (inf, ninf) = (f64::INFINITY, f64::NEG_INFINITY);
        let cases: Vec<Vec<f64>> = vec![
            vec![],
            vec![nan; 3],
            vec![nan; 17],
            vec![0.0, -0.0, 0.0, -0.0, -0.0, 0.0, 0.0, -0.0, 0.0, -0.0, -0.0],
            vec![-0.0; 9],
            (0..23).map(|i| f64::from(i) - 7.5).collect(),
            (0..16)
                .map(|i| if i % 3 == 0 { nan } else { f64::from(i) })
                .collect(),
            vec![1.0, inf, -2.0, nan, 3.0, 0.5, 0.25, 7.0, 9.0],
            vec![ninf, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0],
            vec![inf; 10],
            vec![5.0, nan, nan, nan, nan, nan, nan, nan, nan, 4.0],
        ];
        for data in &cases {
            let want = bound_scalar(1e-3, data);
            assert_eq!(bound_bits(1e-3, data), want, "{data:?}");
            for seed in 0..8 {
                assert_eq!(
                    bound_bits(1e-3, &shuffled(data, seed)),
                    want,
                    "{data:?} #{seed}"
                );
            }
        }
        assert_eq!(bound_bits(1e-3, &[-0.0, 0.0, -0.0]), 0.0f64.to_bits());
        assert_eq!(bound_bits(1e-3, &[nan; 9]), 0.0f64.to_bits());
        assert!(f64::from_bits(bound_bits(1e-3, &[inf; 9])).is_nan());
        assert_eq!(f64::from_bits(bound_bits(1.0, &[ninf, inf, 0.0])), inf);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn bound_is_the_scalar_folds_in_any_order(
            data in prop::collection::vec(
                prop_oneof![
                    4 => -1e6f64..1e6,
                    1 => prop::sample::select(&[
                        f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -0.0, 1.0, -1.0,
                    ][..]),
                    1 => any::<f64>(),
                ],
                0..80,
            ),
            seed in any::<u64>(),
        ) {
            let want = bound_scalar(0.5, &data);
            prop_assert_eq!(bound_bits(0.5, &data), want);
            prop_assert_eq!(bound_bits(0.5, &shuffled(&data, seed)), want);
            let (lo, hi) = value_range(&data);
            let (slo, shi) = value_range_scalar(&data);
            prop_assert!(lo == slo && hi == shi, "{lo} {hi} vs {slo} {shi}");
        }
    }

    #[test]
    fn relative_bound_of_constant_data_is_zero() {
        let data = [2.0; 8];
        assert_eq!(
            ErrorControl::ValueRangeRelative(1e-3).absolute_bound(&data),
            Some(0.0)
        );
    }

    #[test]
    fn params_dimensionality() {
        assert_eq!(CodecParams::abs_1d(0.1).dimensionality(), 1);
        assert_eq!(
            CodecParams::abs_1d(0.1).with_dims_2d(8, 8).dimensionality(),
            2
        );
        assert_eq!(
            CodecParams::abs_1d(0.1)
                .with_dims_3d(4, 4, 4)
                .dimensionality(),
            3
        );
    }

    #[test]
    fn chunk_params_validation() {
        let codec = crate::SzCodec::default();
        let data = vec![1.0; 64];
        assert!(matches!(
            codec.compress_chunks(&data, &CodecParams::abs_1d(1e-3), 0),
            Err(CodecError::ChunkParams(_))
        ));
        let grid = CodecParams::abs_1d(1e-3).with_dims_2d(8, 8);
        assert!(matches!(
            codec.compress_chunks(&data, &grid, 16),
            Err(CodecError::ChunkParams(_))
        ));
    }

    #[test]
    fn chunked_round_trip_matches_monolithic_bound() {
        for codec in [
            Box::new(crate::SzCodec::default()) as Box<dyn Codec + Sync>,
            Box::new(crate::ZfpCodec),
        ] {
            let data: Vec<f64> = (0..1000)
                .map(|i| (i as f64 * 0.02).sin() + 0.3 * (i as f64 * 0.11).cos())
                .collect();
            let bound = 1e-4;
            let stream = codec
                .compress_chunks(&data, &CodecParams::abs_1d(bound), 137)
                .unwrap();
            assert_eq!(stream.payloads.len(), 1000usize.div_ceil(137));
            assert_eq!(stream.resolved_bound, Some(bound));
            for (c, (payload, chunk)) in stream.payloads.iter().zip(data.chunks(137)).enumerate() {
                let out = codec.decompress(payload).unwrap();
                assert_eq!(out.len(), chunk.len(), "chunk {c}");
                for (i, (&a, &b)) in chunk.iter().zip(&out).enumerate() {
                    assert!(
                        (a - b).abs() <= bound,
                        "chunk {c} idx {i}: |{a} - {b}| > {bound}"
                    );
                }
            }
        }
    }

    #[test]
    fn relative_bound_resolves_globally_not_per_chunk() {
        // First chunk is constant: a per-chunk relative resolution would
        // give it a zero bound; global resolution must use the full range.
        let mut data = vec![5.0; 100];
        data.extend((0..100).map(|i| i as f64));
        let codec = crate::SzCodec::default();
        let stream = codec
            .compress_chunks(&data, &CodecParams::rel_1d(1e-3), 100)
            .unwrap();
        let global_bound = 1e-3 * 99.0;
        assert!((stream.resolved_bound.unwrap() - global_bound).abs() < 1e-12);
        assert_eq!(stream.payloads.len(), 2);
        for (payload, chunk) in stream.payloads.iter().zip(data.chunks(100)) {
            let out = codec.decompress(payload).unwrap();
            assert_eq!(out.len(), chunk.len());
            for (&a, &b) in chunk.iter().zip(&out) {
                assert!((a - b).abs() <= global_bound);
            }
        }
    }

    #[test]
    fn each_chunk_decodes_independently() {
        let data: Vec<f64> = (0..300).map(|i| (i as f64).sqrt()).collect();
        let codec = crate::ZfpCodec;
        let stream = codec
            .compress_chunks(&data, &CodecParams::abs_1d(1e-6), 100)
            .unwrap();
        // Decode only the middle chunk.
        let mid = codec.decompress(&stream.payloads[1]).unwrap();
        assert_eq!(mid.len(), 100);
        for (i, &v) in mid.iter().enumerate() {
            assert!((v - data[100 + i]).abs() <= 1e-6);
        }
    }

    #[test]
    fn codec_kind_tags_round_trip() {
        for kind in [CodecKind::Sz, CodecKind::Zfp] {
            assert_eq!(CodecKind::from_tag(kind.tag()), Some(kind));
        }
        assert_eq!(CodecKind::from_tag(99), None);
    }
}
