//! ZFP-style transform-based error-bounded lossy compressor.
//!
//! Stages (mirrors ZFP 0.5, the version the paper benchmarks against):
//!
//! 1. the stream is cut into blocks of 4 / 4×4 / 4×4×4 values (partial edge
//!    blocks padded by replication, [`block`]);
//! 2. each block is aligned to a common exponent and cast to 62-bit fixed
//!    point ([`block::fwd_cast`]);
//! 3. a lifted, exactly invertible decorrelating transform is applied along
//!    each dimension ([`transform`]);
//! 4. coefficients are reordered by total sequency, converted to negabinary
//!    ([`negabinary`]), and
//! 5. entropy-coded with embedded group-tested bit planes ([`embedded`]).
//!
//! Two modes:
//! * **fixed accuracy** — an absolute error tolerance decides how many bit
//!   planes each block keeps (`maxprec = emax - minexp + 2(d+1)`). Like the
//!   reference ZFP, the tolerance is honored down to the block-float
//!   precision floor: a block with max magnitude `M` cannot be reconstructed
//!   finer than `≈ M · 2⁻⁵²` (62-bit cast truncation plus lifting-transform
//!   rounding), so the effective guarantee is `max(tol, M · 2⁻⁵²)`.
//! * **fixed rate** — every block gets the same bit budget; no error
//!   guarantee, but random access and exact size control.
//!
//! Because the per-block transform decorrelates *within* a 4-wide window,
//! this codec is less sensitive to long-range stream roughness than the
//! SZ-style predictor — which is why the paper reports a smaller (but still
//! positive) zMesh gain for ZFP (+16.5 %) than for SZ (+133.7 %).
//!
//! Blocks are grouped into *superblocks* that are encoded and decoded in
//! parallel with rayon; superblock byte offsets live in the header.

pub mod block;
pub mod embedded;
pub mod negabinary;
pub mod transform;

use crate::{varint, Codec, CodecError, CodecKind, CodecParams, ErrorControl, ValueType};
use block::{block_exponent, fwd_cast, gather, inv_cast, perm, scatter, BlockShape, SIDE};
use rayon::prelude::*;
use zmesh_bitstream::{BitReader, BitWriter};

const MAGIC: &[u8; 4] = b"ZFR1";
/// Blocks per superblock (parallelism granule).
const SUPERBLOCK: usize = 256;
/// Bits for the per-block header: 1 flag bit + 16-bit biased exponent.
const HEADER_BITS: u64 = 17;
/// Exponent bias for the 16-bit on-wire exponent.
const EBIAS: i32 = 8192;

/// Compression mode resolved from [`ErrorControl`].
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mode {
    /// `minexp`: blocks keep planes down to this exponent.
    Accuracy { tolerance: f64 },
    /// Bits per block (including the block header), fixed.
    Rate { maxbits: u64 },
    /// Bit planes kept per block, fixed (relative-accuracy control).
    Precision { maxprec: u32 },
}

/// The ZFP-style codec. See the [module docs](self) for the pipeline.
///
/// ```
/// use zmesh_codecs::{Codec, CodecParams, ZfpCodec};
///
/// let data: Vec<f64> = (0..1024).map(|i| (i as f64 * 0.02).cos()).collect();
/// let codec = ZfpCodec::new();
/// let bytes = codec.compress(&data, &CodecParams::abs_1d(1e-3)).unwrap();
/// let out = codec.decompress(&bytes).unwrap();
/// assert!(data.iter().zip(&out).all(|(a, b)| (a - b).abs() <= 1e-3));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct ZfpCodec;

impl ZfpCodec {
    /// Codec with default configuration.
    pub fn new() -> Self {
        Self
    }
}

/// `minexp` for a tolerance: largest `e` with `2^e <= tolerance`.
fn min_exp(tolerance: f64) -> i32 {
    debug_assert!(tolerance > 0.0 && tolerance.is_finite());
    // floor(log2(tolerance)) via the exponent field, exact for powers of two.
    let e = tolerance.log2().floor() as i32;
    // Guard against rounding at the boundary.
    if 2f64.powi(e + 1) <= tolerance {
        e + 1
    } else if 2f64.powi(e) > tolerance {
        e - 1
    } else {
        e
    }
}

/// Planes to keep for a block: ZFP's precision formula.
fn max_prec(emax: i32, minexp: i32, dims: usize) -> u32 {
    (emax - minexp + 2 * (dims as i32 + 1)).clamp(0, 64) as u32
}

/// Resolves grid shape from params, validating against the data length.
fn resolve_grid(n: usize, params: &CodecParams) -> Result<([usize; 3], usize), CodecError> {
    let dims = params.dimensionality();
    let grid = match dims {
        1 => [n, 1, 1],
        2 => [params.dims[0], params.dims[1], 1],
        _ => params.dims,
    };
    let expected = grid
        .iter()
        .try_fold(1usize, |acc, &d| acc.checked_mul(d))
        .ok_or(CodecError::Corrupt("stored dims overflow"))?;
    if expected != n {
        return Err(CodecError::DimsMismatch {
            expected,
            actual: n,
        });
    }
    Ok((grid, dims))
}

/// Blocks along each axis of `grid` (1 beyond `dims`).
fn blocks_per_axis(grid: [usize; 3], dims: usize) -> [usize; 3] {
    std::array::from_fn(|d| if d < dims { grid[d].div_ceil(SIDE) } else { 1 })
}

/// Block origins in row-major block-grid order (empty grid → no blocks).
fn block_origins(grid: [usize; 3], dims: usize) -> Vec<[usize; 3]> {
    let [bx, by, bz] = blocks_per_axis(grid, dims);
    let mut origins = Vec::with_capacity(bx * by * bz);
    for z in 0..bz {
        for y in 0..by {
            for x in 0..bx {
                origins.push([x * SIDE, y * SIDE, z * SIDE]);
            }
        }
    }
    origins
}

/// Encodes one block into `w`. Returns bits written (before rate padding).
fn encode_block(w: &mut BitWriter, vals: &[f64], dims: usize, mode: Mode) {
    let n = vals.len();
    let budget = match mode {
        Mode::Accuracy { .. } | Mode::Precision { .. } => u64::MAX,
        Mode::Rate { maxbits } => maxbits,
    };
    let start = w.len_bits();
    let emax = block_exponent(vals);
    let keep = match (emax, mode) {
        (None, _) => 0,
        (Some(e), Mode::Accuracy { tolerance }) => max_prec(e, min_exp(tolerance), dims),
        (Some(_), Mode::Rate { .. }) => 64,
        (Some(_), Mode::Precision { maxprec }) => maxprec,
    };
    if keep == 0 {
        // Empty block: single 0 flag bit.
        w.write_bit(false);
    } else {
        let emax = emax.expect("nonzero block");
        w.write_bit(true);
        w.write_bits((emax + EBIAS) as u64, 16);
        let mut ints = vec![0i64; n];
        fwd_cast(vals, emax, &mut ints);
        transform::fwd_xform(&mut ints, dims);
        let p = perm(dims);
        let ub: Vec<u64> = p
            .iter()
            .map(|&i| negabinary::int_to_uint(ints[i]))
            .collect();
        let kmin = 64 - keep;
        embedded::encode_ints(w, &ub, kmin, budget.saturating_sub(HEADER_BITS));
    }
    if let Mode::Rate { maxbits } = mode {
        let used = w.len_bits() - start;
        debug_assert!(used <= maxbits);
        w.write_zeros((maxbits - used) as u32);
    }
}

/// Decodes one block from `r` into `out` (length `4^dims`).
fn decode_block(r: &mut BitReader<'_>, out: &mut [f64], dims: usize, mode: Mode) {
    let n = out.len();
    let budget = match mode {
        Mode::Accuracy { .. } | Mode::Precision { .. } => u64::MAX,
        Mode::Rate { maxbits } => maxbits,
    };
    let start = r.position();
    if !r.read_bit_or_zero() {
        out.fill(0.0);
    } else {
        let emax = r.read_bits_or_zero(16) as i32 - EBIAS;
        let keep = match mode {
            Mode::Accuracy { tolerance } => max_prec(emax, min_exp(tolerance), dims),
            Mode::Rate { .. } => 64,
            Mode::Precision { maxprec } => maxprec,
        };
        let kmin = 64 - keep;
        let mut ub = vec![0u64; n];
        embedded::decode_ints(r, &mut ub, kmin, budget.saturating_sub(HEADER_BITS));
        let p = perm(dims);
        let mut ints = vec![0i64; n];
        for (rank, &slot) in p.iter().enumerate() {
            ints[slot] = negabinary::uint_to_int(ub[rank]);
        }
        transform::inv_xform(&mut ints, dims);
        inv_cast(&ints, emax, out);
    }
    if let Mode::Rate { maxbits } = mode {
        let used = r.position() - start;
        r.skip(maxbits - used);
    }
}

impl Codec for ZfpCodec {
    fn compress(&self, data: &[f64], params: &CodecParams) -> Result<Vec<u8>, CodecError> {
        if let Some(idx) = data.iter().position(|v| !v.is_finite()) {
            return Err(CodecError::NonFiniteInput { index: idx });
        }
        if params.value_type == ValueType::F32 {
            for (i, &v) in data.iter().enumerate() {
                if v != f64::from(v as f32) {
                    return Err(CodecError::NotSinglePrecision { index: i });
                }
            }
        }
        let (grid, dims) = resolve_grid(data.len(), params)?;
        let block_size = SIDE.pow(dims as u32);
        let (mode, mode_tag, mode_param) = match params.control {
            ErrorControl::FixedPrecision(p) => {
                if !(1..=64).contains(&p) {
                    return Err(CodecError::InvalidBound(f64::from(p)));
                }
                (Mode::Precision { maxprec: p }, 2u8, f64::from(p))
            }
            ErrorControl::FixedRate(bpv) => {
                if !(bpv.is_finite() && bpv > 0.0) {
                    return Err(CodecError::InvalidBound(bpv));
                }
                let maxbits = ((bpv * block_size as f64).ceil() as u64).max(HEADER_BITS + 1);
                (Mode::Rate { maxbits }, 1u8, bpv)
            }
            ref c => {
                let tol = c.absolute_bound(data).expect("not fixed-rate");
                if !tol.is_finite() || tol <= 0.0 {
                    return Err(CodecError::InvalidBound(tol));
                }
                (Mode::Accuracy { tolerance: tol }, 0u8, tol)
            }
        };

        let origins = block_origins(grid, dims);
        let payloads: Vec<Vec<u8>> = origins
            .par_chunks(SUPERBLOCK)
            .map(|chunk| {
                let mut w = BitWriter::with_capacity(chunk.len() * block_size);
                let mut vals = vec![0.0f64; block_size];
                for &origin in chunk {
                    gather(data, grid, dims, origin, &mut vals);
                    encode_block(&mut w, &vals, dims, mode);
                }
                w.into_bytes()
            })
            .collect();

        let mut out = Vec::with_capacity(payloads.iter().map(Vec::len).sum::<usize>() + 64);
        out.extend_from_slice(MAGIC);
        varint::write_u64(&mut out, data.len() as u64);
        for d in params.dims {
            varint::write_u64(&mut out, d as u64);
        }
        out.push(mode_tag);
        out.push(params.value_type.tag());
        varint::write_f64(&mut out, mode_param);
        varint::write_u64(&mut out, payloads.len() as u64);
        for p in &payloads {
            varint::write_u64(&mut out, p.len() as u64);
        }
        for p in &payloads {
            out.extend_from_slice(p);
        }
        Ok(out)
    }

    fn decompress(&self, bytes: &[u8]) -> Result<Vec<f64>, CodecError> {
        let mut pos = 0;
        if varint::read_bytes(bytes, &mut pos, 4)? != MAGIC {
            return Err(CodecError::WrongMagic);
        }
        let n = varint::read_u64(bytes, &mut pos)? as usize;
        let mut pdims = [0usize; 3];
        for d in &mut pdims {
            *d = varint::read_u64(bytes, &mut pos)? as usize;
        }
        let params = CodecParams {
            control: ErrorControl::Absolute(0.0), // placeholder, not used below
            dims: pdims,
            value_type: ValueType::F64,
        };
        let (grid, dims) = resolve_grid(n, &params)?;
        let block_size = SIDE.pow(dims as u32);
        let mode_tag = *bytes.get(pos).ok_or(CodecError::Corrupt("no mode tag"))?;
        pos += 1;
        let value_type = ValueType::from_tag(
            *bytes
                .get(pos)
                .ok_or(CodecError::Corrupt("no value-type tag"))?,
        )
        .ok_or(CodecError::Corrupt("unknown value-type tag"))?;
        pos += 1;
        let mode_param = varint::read_f64(bytes, &mut pos)?;
        let mode = match mode_tag {
            0 => {
                if !mode_param.is_finite() || mode_param <= 0.0 {
                    return Err(CodecError::Corrupt("invalid stored tolerance"));
                }
                Mode::Accuracy {
                    tolerance: mode_param,
                }
            }
            1 => {
                if !mode_param.is_finite() || mode_param <= 0.0 {
                    return Err(CodecError::Corrupt("invalid stored rate"));
                }
                Mode::Rate {
                    maxbits: ((mode_param * block_size as f64).ceil() as u64).max(HEADER_BITS + 1),
                }
            }
            2 => {
                let p = mode_param as u32;
                if mode_param.fract() != 0.0 || !(1..=64).contains(&p) {
                    return Err(CodecError::Corrupt("invalid stored precision"));
                }
                Mode::Precision { maxprec: p }
            }
            _ => return Err(CodecError::Corrupt("unknown mode tag")),
        };
        // Every block costs at least one bit (an empty block is its flag
        // bit), so the stored counts are bounded by the bytes left before
        // anything is sized from them: n ≤ 8 · bytes left · block size.
        let left = bytes.len() - pos;
        let n_blocks = blocks_per_axis(grid, dims)
            .iter()
            .try_fold(1usize, |acc, &b| acc.checked_mul(b))
            .filter(|&b| b <= left.saturating_mul(8))
            .ok_or(CodecError::Corrupt("value count exceeds payload"))?;
        let n_super = varint::read_u64(bytes, &mut pos)?;
        // Each superblock length is a varint of at least one byte.
        if n_super > (bytes.len() - pos) as u64 || n_super as usize != n_blocks.div_ceil(SUPERBLOCK)
        {
            return Err(CodecError::Corrupt("superblock count mismatch"));
        }
        let n_super = n_super as usize;
        let mut lens = Vec::with_capacity(n_super);
        for _ in 0..n_super {
            lens.push(varint::read_u64(bytes, &mut pos)? as usize);
        }
        let total = lens
            .iter()
            .try_fold(0usize, |acc, &l| acc.checked_add(l))
            .ok_or(CodecError::Corrupt("superblock lengths overflow"))?;
        let body = varint::read_bytes(bytes, &mut pos, total)?;
        let origins = block_origins(grid, dims);
        let mut offsets = Vec::with_capacity(n_super);
        let mut off = 0;
        for &l in &lens {
            offsets.push(off);
            off += l;
        }

        let mut out = vec![0.0f64; n];
        // Parallel decode: each superblock writes a disjoint set of blocks.
        // Collect per-superblock results then scatter sequentially (scatter
        // regions are disjoint but interleaved in memory).
        let decoded: Vec<Vec<(usize, Vec<f64>)>> = origins
            .par_chunks(SUPERBLOCK)
            .enumerate()
            .map(|(si, chunk)| {
                let payload = &body[offsets[si]..offsets[si] + lens[si]];
                let mut r = BitReader::new(payload);
                let mut blocks = Vec::with_capacity(chunk.len());
                for (bi, _) in chunk.iter().enumerate() {
                    let mut vals = vec![0.0f64; block_size];
                    decode_block(&mut r, &mut vals, dims, mode);
                    blocks.push((si * SUPERBLOCK + bi, vals));
                }
                blocks
            })
            .collect();
        for blocks in decoded {
            for (bi, mut vals) in blocks {
                if value_type == ValueType::F32 {
                    // Snap to single precision; the reconstruction error
                    // grows by at most half an f32 ulp (like reference ZFP
                    // operating on f32 arrays).
                    for v in &mut vals {
                        *v = f64::from(*v as f32);
                    }
                }
                let origin = origins[bi];
                // Reconstruct the shape the encoder saw.
                let mut ext = [1usize; 3];
                for d in 0..dims {
                    ext[d] = SIDE.min(grid[d] - origin[d]);
                }
                scatter(&vals, BlockShape { ext, dims }, grid, origin, &mut out);
            }
        }
        Ok(out)
    }

    fn kind(&self) -> CodecKind {
        CodecKind::Zfp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_bound(data: &[f64], params: &CodecParams, bound: f64) -> usize {
        let codec = ZfpCodec::new();
        let bytes = codec.compress(data, params).expect("compress");
        let out = codec.decompress(&bytes).expect("decompress");
        assert_eq!(out.len(), data.len());
        for (i, (&a, &b)) in data.iter().zip(&out).enumerate() {
            assert!(
                (a - b).abs() <= bound,
                "index {i}: |{a} - {b}| = {} > {bound}",
                (a - b).abs()
            );
        }
        bytes.len()
    }

    #[test]
    fn min_exp_brackets_tolerance() {
        for tol in [1e-6, 1e-3, 0.5, 1.0, 3.7, 1024.0, 1e20] {
            let e = min_exp(tol);
            assert!(2f64.powi(e) <= tol, "tol={tol}, e={e}");
            assert!(2f64.powi(e + 1) > tol, "tol={tol}, e={e}");
        }
    }

    #[test]
    fn smooth_1d_within_bound() {
        let data: Vec<f64> = (0..10_000)
            .map(|i| (i as f64 * 0.001).sin() * 4.0)
            .collect();
        for tol in [1e-1, 1e-3, 1e-6] {
            check_bound(&data, &CodecParams::abs_1d(tol), tol);
        }
    }

    #[test]
    fn rough_1d_within_bound() {
        let data: Vec<f64> = (0..5003)
            .map(|i| {
                let x = (i as u64).wrapping_mul(0x9e3779b97f4a7c15);
                (x >> 11) as f64 / (1u64 << 53) as f64 * 2000.0 - 1000.0
            })
            .collect();
        check_bound(&data, &CodecParams::abs_1d(0.5), 0.5);
    }

    #[test]
    fn mixed_magnitudes_within_bound() {
        let mut data = vec![0.0; 4096];
        for (i, v) in data.iter_mut().enumerate() {
            *v = match i % 5 {
                0 => 1e-8,
                1 => -300.0,
                2 => 0.0,
                3 => 7e5,
                _ => (i as f64).sqrt(),
            };
        }
        check_bound(&data, &CodecParams::abs_1d(1e-2), 1e-2);
    }

    #[test]
    fn grid_2d_within_bound() {
        let (nx, ny) = (37, 53);
        let data: Vec<f64> = (0..nx * ny)
            .map(|i| {
                let (x, y) = (i % nx, i / nx);
                ((x as f64) * 0.3).sin() * ((y as f64) * 0.2).cos()
            })
            .collect();
        let params = CodecParams::abs_1d(1e-4).with_dims_2d(nx, ny);
        check_bound(&data, &params, 1e-4);
    }

    #[test]
    fn grid_3d_within_bound() {
        let (nx, ny, nz) = (13, 9, 11);
        let data: Vec<f64> = (0..nx * ny * nz)
            .map(|i| {
                let x = i % nx;
                let y = (i / nx) % ny;
                let z = i / (nx * ny);
                (x as f64 + 2.0 * y as f64 - z as f64) * 0.1
            })
            .collect();
        let params = CodecParams::abs_1d(1e-3).with_dims_3d(nx, ny, nz);
        check_bound(&data, &params, 1e-3);
    }

    #[test]
    fn smooth_data_beats_rough_data() {
        let smooth: Vec<f64> = (0..8192).map(|i| (i as f64 * 0.01).sin()).collect();
        let rough: Vec<f64> = (0..8192)
            .map(|i| {
                let x = (i as u64).wrapping_mul(0x9e3779b97f4a7c15);
                (x >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
            })
            .collect();
        let s = check_bound(&smooth, &CodecParams::abs_1d(1e-4), 1e-4);
        let r = check_bound(&rough, &CodecParams::abs_1d(1e-4), 1e-4);
        assert!(s < r, "smooth {s} vs rough {r}");
    }

    #[test]
    fn all_zero_stream_is_tiny() {
        let data = vec![0.0; 100_000];
        let codec = ZfpCodec::new();
        let bytes = codec.compress(&data, &CodecParams::abs_1d(1e-6)).unwrap();
        assert!(bytes.len() < 4000, "len = {}", bytes.len());
        assert_eq!(codec.decompress(&bytes).unwrap(), data);
    }

    #[test]
    fn fixed_rate_sizes_are_exact() {
        let data: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.01).sin()).collect();
        let codec = ZfpCodec::new();
        let params = CodecParams {
            control: ErrorControl::FixedRate(8.0),
            dims: [0, 0, 0],
            value_type: ValueType::F64,
        };
        let bytes = codec.compress(&data, &params).unwrap();
        // 1024 blocks * 32 bits = 4096 bytes payload (+ header).
        let payload = bytes.len() as f64 - 40.0;
        assert!((payload - 4096.0).abs() < 64.0, "payload = {payload}");
        // Decodes cleanly; quality at 8 bpv is loose (17 of 32 bits per
        // block are header), so only sanity-check the magnitude.
        let out = codec.decompress(&bytes).unwrap();
        for (a, b) in data.iter().zip(&out) {
            assert!((a - b).abs() < 0.5);
        }
        // At a generous rate the reconstruction is near-exact.
        let params = CodecParams {
            control: ErrorControl::FixedRate(32.0),
            dims: [0, 0, 0],
            value_type: ValueType::F64,
        };
        let out = codec
            .decompress(&codec.compress(&data, &params).unwrap())
            .unwrap();
        for (a, b) in data.iter().zip(&out) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn fixed_rate_quality_improves_with_rate() {
        let data: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.013).cos() * 3.0).collect();
        let codec = ZfpCodec::new();
        let err_at = |rate: f64| {
            let params = CodecParams {
                control: ErrorControl::FixedRate(rate),
                dims: [0, 0, 0],
                value_type: ValueType::F64,
            };
            let out = codec
                .decompress(&codec.compress(&data, &params).unwrap())
                .unwrap();
            data.iter()
                .zip(&out)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max)
        };
        assert!(err_at(16.0) < err_at(6.0));
    }

    #[test]
    fn rejects_non_finite_input() {
        let codec = ZfpCodec::new();
        let data = [1.0, f64::NAN, 2.0];
        assert!(matches!(
            codec.compress(&data, &CodecParams::abs_1d(0.1)),
            Err(CodecError::NonFiniteInput { index: 1 })
        ));
    }

    #[test]
    fn rejects_bad_dims() {
        let codec = ZfpCodec::new();
        let data = vec![0.0; 10];
        let params = CodecParams::abs_1d(0.1).with_dims_2d(3, 4);
        assert!(matches!(
            codec.compress(&data, &params),
            Err(CodecError::DimsMismatch { .. })
        ));
    }

    #[test]
    fn corrupt_streams_error_not_panic() {
        let data: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let codec = ZfpCodec::new();
        let bytes = codec.compress(&data, &CodecParams::abs_1d(0.1)).unwrap();
        assert!(codec.decompress(&[]).is_err());
        assert!(codec.decompress(b"ZZZZ").is_err());
        for cut in [4, 10, bytes.len() / 2] {
            assert!(codec.decompress(&bytes[..cut]).is_err(), "cut = {cut}");
        }
    }

    #[test]
    fn empty_input_round_trips() {
        let codec = ZfpCodec::new();
        let bytes = codec.compress(&[], &CodecParams::abs_1d(0.1)).unwrap();
        assert_eq!(codec.decompress(&bytes).unwrap(), Vec::<f64>::new());
    }

    #[test]
    fn tighter_tolerance_costs_more() {
        let data: Vec<f64> = (0..8192).map(|i| (i as f64 * 0.002).sin() * 10.0).collect();
        let codec = ZfpCodec::new();
        let loose = codec.compress(&data, &CodecParams::abs_1d(1e-2)).unwrap();
        let tight = codec.compress(&data, &CodecParams::abs_1d(1e-8)).unwrap();
        assert!(loose.len() < tight.len());
    }
}

#[cfg(test)]
mod precision_tests {
    use super::*;

    #[test]
    fn fixed_precision_round_trips() {
        let data: Vec<f64> = (0..4096).map(|i| (i as f64 * 0.003).sin() * 7.0).collect();
        let codec = ZfpCodec::new();
        let params = CodecParams {
            control: ErrorControl::FixedPrecision(32),
            dims: [0, 0, 0],
            value_type: ValueType::F64,
        };
        let bytes = codec.compress(&data, &params).unwrap();
        let out = codec.decompress(&bytes).unwrap();
        assert_eq!(out.len(), data.len());
        // 32 planes of a ~2^3 signal: relative error around 2^-28.
        for (a, b) in data.iter().zip(&out) {
            assert!((a - b).abs() < 1e-5, "|{a} - {b}|");
        }
    }

    #[test]
    fn precision_controls_quality_monotonically() {
        let data: Vec<f64> = (0..2048).map(|i| (i as f64 * 0.01).cos() * 3.0).collect();
        let codec = ZfpCodec::new();
        let err_at = |p: u32| {
            let params = CodecParams {
                control: ErrorControl::FixedPrecision(p),
                dims: [0, 0, 0],
                value_type: ValueType::F64,
            };
            let out = codec
                .decompress(&codec.compress(&data, &params).unwrap())
                .unwrap();
            data.iter()
                .zip(&out)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max)
        };
        let (e8, e16, e32) = (err_at(8), err_at(16), err_at(32));
        assert!(e8 > e16 && e16 > e32, "{e8} {e16} {e32}");
    }

    #[test]
    fn precision_controls_size_monotonically() {
        let data: Vec<f64> = (0..2048)
            .map(|i| {
                let x = (i as u64).wrapping_mul(0x9e3779b97f4a7c15);
                (x >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect();
        let codec = ZfpCodec::new();
        let size_at = |p: u32| {
            let params = CodecParams {
                control: ErrorControl::FixedPrecision(p),
                dims: [0, 0, 0],
                value_type: ValueType::F64,
            };
            codec.compress(&data, &params).unwrap().len()
        };
        assert!(size_at(8) < size_at(24));
        assert!(size_at(24) < size_at(56));
    }

    #[test]
    fn invalid_precision_is_rejected() {
        let codec = ZfpCodec::new();
        for p in [0u32, 65, 1000] {
            let params = CodecParams {
                control: ErrorControl::FixedPrecision(p),
                dims: [0, 0, 0],
                value_type: ValueType::F64,
            };
            assert!(codec.compress(&[1.0], &params).is_err(), "p = {p}");
        }
    }

    #[test]
    fn sz_rejects_fixed_precision() {
        use crate::SzCodec;
        let params = CodecParams {
            control: ErrorControl::FixedPrecision(16),
            dims: [0, 0, 0],
            value_type: ValueType::F64,
        };
        assert!(crate::Codec::compress(&SzCodec::new(), &[1.0], &params).is_err());
    }
}

#[cfg(test)]
mod f32_tests {
    use super::*;

    #[test]
    fn f32_streams_round_trip_within_bound() {
        let data: Vec<f64> = (0..4096)
            .map(|i| f64::from(((i as f32) * 0.01).sin() * 3.0))
            .collect();
        let tol = 1e-4;
        let codec = ZfpCodec::new();
        let params = CodecParams::abs_1d(tol).as_f32();
        let bytes = codec.compress(&data, &params).unwrap();
        let out = codec.decompress(&bytes).unwrap();
        let max_ulp = f64::from(f32::EPSILON) * 4.0; // values ~ 3.0
        for (&a, &b) in data.iter().zip(&out) {
            assert_eq!(b, f64::from(b as f32), "output not f32");
            assert!((a - b).abs() <= tol + max_ulp / 2.0);
        }
    }

    #[test]
    fn non_f32_input_is_rejected_in_f32_mode() {
        let codec = ZfpCodec::new();
        let params = CodecParams::abs_1d(0.1).as_f32();
        let data = [0.1f64, 0.2, 0.3]; // none are f32-exact
        assert!(matches!(
            codec.compress(&data, &params),
            Err(CodecError::NotSinglePrecision { .. })
        ));
    }
}
