//! SIMD kernels for the SZ predict–quantize–reconstruct pipeline.
//!
//! The SZ hot loops are chained through *reconstructed* values (each
//! prediction reads the previous reconstruction), so the chain *within
//! one stream* cannot be vectorized without changing the emitted bytes.
//! Three pieces are data-parallel **and** bit-exactly reproducible, and
//! they are what this module lifts:
//!
//! * [`quantize_lanes`] — the 1-D predict + quantize loop itself, run over
//!   up to [`LANES`] *independent* streams at once, one stream per lane of
//!   two AVX2 vectors, so eight reconstruction chains overlap where one
//!   vector would leave the core waiting on four. Every store chunk is
//!   its own SZ stream that starts with empty history, so the consecutive
//!   chunks of one field are independent chains under one shared error
//!   bound. Each lane performs exactly the
//!   scalar IEEE operations of [`quantize_lanes_scalar`] — the monomorphic
//!   per-predictor loop with its history in registers, which runs the
//!   lanes one after another and is also the single-stream path. Lanes
//!   have their own lengths (a masked tail) and their own predictor for
//!   the current block.
//! * [`trial_costs`] — predictor selection runs three full trial passes
//!   over every block using *original* values (the standard SZ
//!   approximation), i.e. three independent sliding-window stencils with
//!   no feedback. The elementwise residual costs vectorize cleanly; the
//!   final accumulation is done in the scalar loop's exact element order,
//!   so the selected predictor (and therefore the stream) never changes.
//! * [`symbol_deltas`] — the decoder's `(symbol − RADIUS) · 2eb` term
//!   depends only on the symbol, not on the reconstruction chain.
//!   Precomputing it in bulk turns the sequential reconstruct step into a
//!   single add (+ optional f32 snap), and the int→float convert +
//!   multiply vectorize exactly (all values are exact in f64).
//!
//! Every operation in the SIMD paths is the same IEEE-754 operation the
//! scalar path performs on the same operands, in the same per-element
//! order (no FMA contraction, no reassociated sums), which is what the
//! differential tests below pin down.
//!
//! # The quantizer arithmetic
//!
//! A value `x` with prediction `p` gets the code `round(q)`,
//! `q = (x − p) / 2eb`, where `round` is half away from zero. Both paths
//! evaluate it as `trunc(q + copysign(0.49999999999999994, q))`, which is
//! exact for every `q` (`f64::round` is an out-of-line call on baseline
//! x86-64); the sign is taken from `x − p`, which `q` shares, so the
//! offset is ready before the divide finishes. `|trunc(s)| < RADIUS − 1` holds exactly when
//! `|s| < RADIUS − 1`, so the range check runs before truncating; NaN and
//! ±∞ fail it, which is how `eb = 0`, non-finite inputs, non-finite
//! predictions and overflowing residuals all escape. The scalar path
//! truncates through `i32` (the symbol needs the integer anyway), the
//! AVX2 path with `vroundpd`; the two differ only in the sign of a zero
//! code, hence of a zero reconstruction, and that sign never reaches a
//! symbol, an escape decision or a stored value.

use crate::caps;

/// Escape cost the scalar selector charges for a non-finite residual.
const NON_FINITE_COST: f64 = 1e30;

/// Per-element clamped residual costs of the three SZ trial stencils
/// (last-value / linear / quadratic) at absolute index `j` of `ext`,
/// degrading exactly like `Predictor::predict` when fewer than `order`
/// prior values exist.
#[inline]
fn cost_at(ext: &[f64], j: usize, eb: f64) -> [f64; 3] {
    let x = ext[j];
    let last = if j >= 1 { ext[j - 1] } else { 0.0 };
    let linear = match j {
        0 => 0.0,
        1 => ext[0],
        _ => 2.0 * ext[j - 1] - ext[j - 2],
    };
    let quad = match j {
        0 => 0.0,
        1 => ext[0],
        2 => 2.0 * ext[1] - ext[0],
        _ => 3.0 * ext[j - 1] - 3.0 * ext[j - 2] + ext[j - 3],
    };
    [last, linear, quad].map(|p| {
        let r = (x - p).abs();
        if r.is_finite() {
            (r - eb).max(0.0)
        } else {
            NON_FINITE_COST
        }
    })
}

/// Total trial cost of the three SZ stream predictors over
/// `ext[hist..]`, where `ext[..hist]` is the (up to 3 values, oldest
/// first) reconstruction history seeding the block. Returns
/// `[last, linear, quadratic]` costs; the caller picks the argmin.
/// Dispatches to SIMD when available — results are bit-identical to
/// [`trial_costs_scalar`] by construction.
#[inline]
pub fn trial_costs(ext: &[f64], hist: usize, eb: f64) -> [f64; 3] {
    debug_assert!(hist <= 3 && hist <= ext.len());
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        if caps().avx2 {
            // SAFETY: AVX2 confirmed present by the runtime probe.
            return unsafe { trial_costs_avx2(ext, hist, eb) };
        }
    }
    let _ = caps();
    trial_costs_scalar(ext, hist, eb)
}

/// Scalar reference for [`trial_costs`]; also the forced-scalar path.
pub fn trial_costs_scalar(ext: &[f64], hist: usize, eb: f64) -> [f64; 3] {
    let mut costs = [0.0f64; 3];
    for j in hist..ext.len() {
        let c = cost_at(ext, j, eb);
        for k in 0..3 {
            costs[k] += c[k];
        }
    }
    costs
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn trial_costs_avx2(ext: &[f64], hist: usize, eb: f64) -> [f64; 3] {
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    let n = ext.len();
    let mut costs = [0.0f64; 3];
    // Degraded predictions only exist while fewer than 3 values precede
    // the element; handle those (at most 3) elements scalar.
    let mut j = hist;
    while j < n && j < 3 {
        let c = cost_at(ext, j, eb);
        for k in 0..3 {
            costs[k] += c[k];
        }
        j += 1;
    }

    let two = _mm256_set1_pd(2.0);
    let three = _mm256_set1_pd(3.0);
    let ebv = _mm256_set1_pd(eb);
    let zero = _mm256_setzero_pd();
    let inf = _mm256_set1_pd(f64::INFINITY);
    let big = _mm256_set1_pd(NON_FINITE_COST);
    let absmask = _mm256_castsi256_pd(_mm256_set1_epi64x(!(1i64 << 63)));

    // One lane-cost vector per stencil; summed below in element order.
    let mut buf = [[0.0f64; 4]; 3];
    while j + 4 <= n {
        let x = _mm256_loadu_pd(ext.as_ptr().add(j));
        let a = _mm256_loadu_pd(ext.as_ptr().add(j - 1));
        let b = _mm256_loadu_pd(ext.as_ptr().add(j - 2));
        let c = _mm256_loadu_pd(ext.as_ptr().add(j - 3));
        let preds = [
            a,
            _mm256_sub_pd(_mm256_mul_pd(two, a), b),
            _mm256_add_pd(
                _mm256_sub_pd(_mm256_mul_pd(three, a), _mm256_mul_pd(three, b)),
                c,
            ),
        ];
        for (k, p) in preds.iter().enumerate() {
            let r = _mm256_and_pd(_mm256_sub_pd(x, *p), absmask);
            // |r| < ∞ is false for both +∞ and NaN lanes — exactly the
            // lanes the scalar path charges NON_FINITE_COST.
            let finite = _mm256_cmp_pd::<{ _CMP_LT_OQ }>(r, inf);
            let clamped = _mm256_max_pd(_mm256_sub_pd(r, ebv), zero);
            let cost = _mm256_blendv_pd(big, clamped, finite);
            _mm256_storeu_pd(buf[k].as_mut_ptr(), cost);
        }
        for k in 0..3 {
            for &lane_cost in &buf[k] {
                costs[k] += lane_cost;
            }
        }
        j += 4;
    }
    while j < n {
        let c = cost_at(ext, j, eb);
        for k in 0..3 {
            costs[k] += c[k];
        }
        j += 1;
    }
    costs
}

/// Fills `out[i] = (symbols[i] − bias) · scale` for every symbol, the
/// decoder-side reconstruction delta (`bias` = the quantizer RADIUS,
/// `scale` = `2eb`). Both the int→f64 conversion and the multiply are
/// exact elementwise operations, so SIMD and scalar agree bit for bit.
///
/// # Panics
///
/// When `out.len() != symbols.len()`.
#[inline]
pub fn symbol_deltas(symbols: &[u16], bias: i32, scale: f64, out: &mut [f64]) {
    assert_eq!(symbols.len(), out.len());
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        if caps().avx2 {
            // SAFETY: AVX2 confirmed present by the runtime probe.
            unsafe { symbol_deltas_avx2(symbols, bias, scale, out) };
            return;
        }
    }
    let _ = caps();
    symbol_deltas_scalar(symbols, bias, scale, out);
}

/// Scalar reference for [`symbol_deltas`]; also the forced-scalar path.
pub fn symbol_deltas_scalar(symbols: &[u16], bias: i32, scale: f64, out: &mut [f64]) {
    for (o, &s) in out.iter_mut().zip(symbols) {
        *o = f64::from(i32::from(s) - bias) * scale;
    }
}

#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn symbol_deltas_avx2(symbols: &[u16], bias: i32, scale: f64, out: &mut [f64]) {
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    let n = symbols.len();
    let biasv = _mm256_set1_epi32(bias);
    let scalev = _mm256_set1_pd(scale);
    let mut i = 0;
    while i + 8 <= n {
        let raw = _mm_loadu_si128(symbols.as_ptr().add(i).cast());
        let wide = _mm256_sub_epi32(_mm256_cvtepu16_epi32(raw), biasv);
        let lo = _mm256_cvtepi32_pd(_mm256_castsi256_si128(wide));
        let hi = _mm256_cvtepi32_pd(_mm256_extracti128_si256::<1>(wide));
        _mm256_storeu_pd(out.as_mut_ptr().add(i), _mm256_mul_pd(lo, scalev));
        _mm256_storeu_pd(out.as_mut_ptr().add(i + 4), _mm256_mul_pd(hi, scalev));
        i += 8;
    }
    symbol_deltas_scalar(&symbols[i..], bias, scale, &mut out[i..]);
}

/// Half-width of the SZ code table: codes occupy `[-(RADIUS-1), RADIUS-1]`
/// and map to symbols `code + RADIUS`; symbol 0 is [`ESCAPE`].
pub const RADIUS: i32 = 1 << 15;

/// Reserved symbol meaning "unpredictable, value stored verbatim".
pub const ESCAPE: u16 = 0;

/// Most streams one [`quantize_lanes`] call advances together.
pub const LANES: usize = 8;

/// The largest `f64` below ½: `trunc(q + copysign(HALF_DOWN, q))` rounds
/// half away from zero without the double rounding `q + 0.5` suffers.
const HALF_DOWN: f64 = 0.499_999_999_999_999_94;

/// Codes must stay strictly inside `±(RADIUS − 1)`.
const CODE_LIMIT: f64 = (RADIUS - 1) as f64;

/// Rolling window of the last three reconstructed values of one SZ
/// stream, newest first.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct History {
    vals: [f64; 3],
    len: usize,
}

impl History {
    /// Empty history (start of stream).
    pub fn new() -> Self {
        Self::default()
    }

    /// Pushes a newly reconstructed value.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.vals[2] = self.vals[1];
        self.vals[1] = self.vals[0];
        self.vals[0] = x;
        self.len = (self.len + 1).min(3);
    }

    /// Number of valid history entries (0..=3).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether any history exists yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `k`-th most recent value (`k < len()`).
    #[inline]
    pub fn prev(&self, k: usize) -> f64 {
        debug_assert!(k < self.len);
        self.vals[k]
    }
}

/// The SZ stream prediction of order `order` (1 last-value, 2 linear,
/// 3 quadratic) from `h`, degrading to the highest order the history
/// supports (and to 0 on an empty history).
#[inline]
pub fn predict(order: usize, h: &History) -> f64 {
    let [h0, h1, h2] = h.vals;
    match order.min(h.len) {
        0 => 0.0,
        1 => h0,
        2 => 2.0 * h0 - h1,
        _ => 3.0 * h0 - 3.0 * h1 + h2,
    }
}

/// One stream's block inside [`quantize_lanes`].
#[derive(Debug)]
pub struct Lane<'a> {
    /// The block's input values.
    pub values: &'a [f64],
    /// Predictor order for the block: 1 last-value, 2 linear, 3 quadratic.
    pub order: usize,
    /// Reconstruction history: read at the block start, left at its end.
    pub history: &'a mut History,
    /// One symbol per value (same length as `values`).
    pub symbols: &'a mut [u16],
    /// Positions (into `values`) of the escaped values, appended in order.
    pub escapes: &'a mut Vec<usize>,
}

/// Quantizes `x` against prediction `pred`: `Some((symbol, recon))` or
/// `None` for an escape. See the module docs for the arithmetic.
///
/// The negated comparisons are deliberate: NaN must escape.
#[inline(always)]
#[allow(clippy::neg_cmp_op_on_partial_ord)]
fn quantize_value<const SNAP: bool>(x: f64, pred: f64, eb: f64, two_eb: f64) -> Option<(u16, f64)> {
    let diff = x - pred;
    let q = diff / two_eb;
    // Same sign as `q` (2eb > 0; otherwise q is NaN/±∞ and escapes).
    let s = q + HALF_DOWN.copysign(diff);
    if !(s.abs() < CODE_LIMIT) {
        return None;
    }
    // SAFETY: |s| < RADIUS − 1, so `s` is finite and truncates into i32.
    let code: i32 = unsafe { s.to_int_unchecked() };
    let mut recon = pred + f64::from(code) * two_eb;
    if SNAP {
        recon = recon as f32 as f64;
    }
    // Floating-point safety net (including snap error): the bound holds
    // or the value escapes.
    if !((x - recon).abs() <= eb) {
        return None;
    }
    Some(((code + RADIUS) as u16, recon))
}

/// The scalar step of [`quantize_lanes`]: quantizes `x` against
/// prediction `pred` under bound `eb`, snapping the reconstruction to
/// `f32` when `snap_f32` is set. `Some((symbol, recon))`, or `None` for
/// an escape.
#[inline]
pub fn quantize_one(x: f64, pred: f64, eb: f64, snap_f32: bool) -> Option<(u16, f64)> {
    if snap_f32 {
        quantize_value::<true>(x, pred, eb, 2.0 * eb)
    } else {
        quantize_value::<false>(x, pred, eb, 2.0 * eb)
    }
}

/// Predicts, quantizes and reconstructs the blocks of up to [`LANES`]
/// independent SZ streams under one error bound `eb` (`snap_f32`:
/// reconstructions are snapped to `f32`). Escaped values get [`ESCAPE`],
/// their position in `escapes` and themselves as history. Dispatches to
/// AVX2 when more than one lane is given and the CPU has it — every
/// symbol and escape is identical to [`quantize_lanes_scalar`].
///
/// # Panics
///
/// When more than [`LANES`] lanes are given, a lane's `symbols` and
/// `values` differ in length, or an order is outside `1..=3`.
pub fn quantize_lanes(lanes: &mut [Lane<'_>], eb: f64, snap_f32: bool) {
    check_lanes(lanes);
    #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
    {
        if lanes.len() > 1 && caps().avx2 {
            // SAFETY: AVX2 confirmed present by the runtime probe; lane
            // shapes were checked above.
            unsafe { quantize_lanes_avx2(lanes, eb, snap_f32) };
            return;
        }
    }
    let _ = caps();
    quantize_lanes_scalar(lanes, eb, snap_f32);
}

fn check_lanes(lanes: &[Lane<'_>]) {
    assert!(lanes.len() <= LANES, "at most {LANES} lanes");
    for lane in lanes {
        assert_eq!(
            lane.values.len(),
            lane.symbols.len(),
            "one symbol per value"
        );
        assert!((1..=3).contains(&lane.order), "predictor order 1..=3");
    }
}

/// Scalar reference for [`quantize_lanes`]: the lanes one at a time; also
/// the forced-scalar and single-stream path.
pub fn quantize_lanes_scalar(lanes: &mut [Lane<'_>], eb: f64, snap_f32: bool) {
    check_lanes(lanes);
    for lane in lanes.iter_mut() {
        let mut start = 0;
        while lane.history.len() < 3 && start < lane.values.len() {
            step(lane, start, eb, snap_f32);
            start += 1;
        }
        match (lane.order, snap_f32) {
            (1, false) => run_scalar::<1, false>(lane, start, eb),
            (2, false) => run_scalar::<2, false>(lane, start, eb),
            (_, false) => run_scalar::<3, false>(lane, start, eb),
            (1, true) => run_scalar::<1, true>(lane, start, eb),
            (2, true) => run_scalar::<2, true>(lane, start, eb),
            (_, true) => run_scalar::<3, true>(lane, start, eb),
        }
    }
}

/// One value through the degrading predictor and the scalar quantizer.
fn step(lane: &mut Lane<'_>, j: usize, eb: f64, snap_f32: bool) {
    let x = lane.values[j];
    let pred = predict(lane.order, lane.history);
    let h = match quantize_one(x, pred, eb, snap_f32) {
        Some((symbol, recon)) => {
            lane.symbols[j] = symbol;
            recon
        }
        None => {
            lane.symbols[j] = ESCAPE;
            lane.escapes.push(j);
            x
        }
    };
    lane.history.push(h);
}

/// The monomorphic scalar loop from `start` on, with the (full) history
/// in registers.
#[inline(always)]
fn run_scalar<const ORDER: usize, const SNAP: bool>(lane: &mut Lane<'_>, start: usize, eb: f64) {
    let two_eb = 2.0 * eb;
    let [mut h0, mut h1, mut h2] = lane.history.vals;
    let values = &lane.values[start..];
    let symbols = &mut lane.symbols[start..];
    for (j, (&x, sym)) in values.iter().zip(symbols.iter_mut()).enumerate() {
        let pred = match ORDER {
            1 => h0,
            2 => 2.0 * h0 - h1,
            _ => 3.0 * h0 - 3.0 * h1 + h2,
        };
        let h = match quantize_value::<SNAP>(x, pred, eb, two_eb) {
            Some((symbol, recon)) => {
                *sym = symbol;
                recon
            }
            None => {
                *sym = ESCAPE;
                lane.escapes.push(start + j);
                x
            }
        };
        (h2, h1, h0) = (h1, h0, h);
    }
    if !values.is_empty() {
        lane.history.vals = [h0, h1, h2];
    }
}

/// AVX2 body of [`quantize_lanes`]: stream `l` is lane `l % 4` of vector
/// `l / 4`, so every history slot is [`VECTORS`] `__m256d`s (streams 0–3
/// and 4–7). Missing lanes (fewer than [`LANES`] streams) mirror lane 0
/// and store nothing of their own.
///
/// # Safety
///
/// The CPU must support AVX2, and `lanes` must hold 2..=[`LANES`] lanes
/// that passed `check_lanes`.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn quantize_lanes_avx2(lanes: &mut [Lane<'_>], eb: f64, snap_f32: bool) {
    let n = lanes.len();
    // Short histories (a stream's first values) run the degrading scalar
    // step, so the vector loop starts with three values in every lane.
    let warm = lanes.iter().map(|l| 3 - l.history.len()).max().unwrap_or(0);
    for lane in lanes.iter_mut() {
        for j in 0..warm.min(lane.values.len()) {
            step(lane, j, eb, snap_f32);
        }
    }
    let order = lanes[0].order;
    let mixed = lanes.iter().any(|l| l.order != order);
    match (mixed, order, snap_f32) {
        (true, _, false) => lanes_avx2::<0, false>(lanes, n, warm, eb),
        (false, 1, false) => lanes_avx2::<1, false>(lanes, n, warm, eb),
        (false, 2, false) => lanes_avx2::<2, false>(lanes, n, warm, eb),
        (false, _, false) => lanes_avx2::<3, false>(lanes, n, warm, eb),
        (true, _, true) => lanes_avx2::<0, true>(lanes, n, warm, eb),
        (false, 1, true) => lanes_avx2::<1, true>(lanes, n, warm, eb),
        (false, 2, true) => lanes_avx2::<2, true>(lanes, n, warm, eb),
        (false, _, true) => lanes_avx2::<3, true>(lanes, n, warm, eb),
    }
}

/// `f64` lanes per AVX2 vector.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
const WIDTH: usize = 4;

/// AVX2 vectors per history slot of the lane kernel.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
const VECTORS: usize = LANES / WIDTH;

/// The vector loop from `start`, monomorphic in the predictor (`ORDER`
/// 1..=3 shared by every lane, 0 = per-lane blend) and the snap flag.
/// Each vector of a slot runs exactly the one-vector step; they share
/// only the loop, which is what lets their chains overlap.
///
/// # Safety
///
/// As [`quantize_lanes_avx2`], with `n == lanes.len()`.
#[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
#[target_feature(enable = "avx2")]
unsafe fn lanes_avx2<const ORDER: usize, const SNAP: bool>(
    lanes: &mut [Lane<'_>],
    n: usize,
    start: usize,
    eb: f64,
) {
    #[cfg(target_arch = "x86")]
    use std::arch::x86::*;
    #[cfg(target_arch = "x86_64")]
    use std::arch::x86_64::*;

    let lane = |l: usize| &lanes[if l < n { l } else { 0 }];
    let xs: [*const f64; LANES] = std::array::from_fn(|l| lane(l).values.as_ptr());
    let lens: [usize; LANES] = std::array::from_fn(|l| lane(l).values.len());
    let hist: [[f64; 3]; LANES] = std::array::from_fn(|l| lane(l).history.vals);
    let orders: [usize; LANES] = std::array::from_fn(|l| lane(l).order);
    // Missing lanes store through lane 0's pointer, and only in the
    // untailed body, where they compute exactly lane 0's symbol.
    let syms: [*mut u16; LANES] = {
        let mut p = [std::ptr::null_mut(); LANES];
        for (l, lane) in lanes.iter_mut().enumerate() {
            p[l] = lane.symbols.as_mut_ptr();
        }
        let first = p[0];
        p[n..].fill(first);
        p
    };
    let slot = |k: usize| -> [__m256d; VECTORS] {
        let vals: [f64; LANES] = std::array::from_fn(|l| hist[l][k]);
        std::array::from_fn(|v| _mm256_loadu_pd(vals.as_ptr().add(WIDTH * v)))
    };
    let (mut h0, mut h1, mut h2) = (slot(0), slot(1), slot(2));
    // Lane `l` of vector `v` is all ones when bit `4v + l` of `bits` is set.
    let mask = |bits: i32| -> [__m256d; VECTORS] {
        std::array::from_fn(|v| {
            let m = |l: usize| -i64::from((bits >> (WIDTH * v + l)) & 1);
            _mm256_castsi256_pd(_mm256_set_epi64x(m(3), m(2), m(1), m(0)))
        })
    };
    let with_order = |k: usize| (0..LANES).fold(0, |m, l| m | (i32::from(orders[l] == k) << l));
    let is_linear = mask(with_order(2));
    let is_quadratic = mask(with_order(3));

    let two = _mm256_set1_pd(2.0);
    let three = _mm256_set1_pd(3.0);
    let ebv = _mm256_set1_pd(eb);
    let two_ebv = _mm256_set1_pd(2.0 * eb);
    let half = _mm256_set1_pd(HALF_DOWN);
    let limit = _mm256_set1_pd(CODE_LIMIT);
    let bias = _mm256_set1_pd(f64::from(RADIUS));
    let sign = _mm256_set1_pd(-0.0);
    let real = (1i32 << n) - 1;

    // All lanes run to the shortest; the rest is the masked tail.
    let common = (0..n).map(|l| lens[l]).min().unwrap_or(0).max(start);
    let longest = (0..n).map(|l| lens[l]).max().unwrap_or(0);
    let mut sym_out = [0i32; LANES];
    let mut j = start;
    while j < longest {
        let tail = j >= common;
        // SAFETY: every read is at `j < lens[l]`, the length of the slice
        // `xs[l]` points into: checked per lane in the tail, and
        // `j < common <= lens[l]` for every lane (missing lanes included)
        // before it.
        let load = |l: usize| if j < lens[l] { *xs[l].add(j) } else { 0.0 };
        let mut h = [_mm256_setzero_pd(); VECTORS];
        let mut okay = 0;
        for v in 0..VECTORS {
            let l = WIDTH * v;
            let x = if tail {
                _mm256_set_pd(load(l + 3), load(l + 2), load(l + 1), load(l))
            } else {
                _mm256_set_pd(
                    *xs[l + 3].add(j),
                    *xs[l + 2].add(j),
                    *xs[l + 1].add(j),
                    *xs[l].add(j),
                )
            };
            let linear = _mm256_sub_pd(_mm256_mul_pd(two, h0[v]), h1[v]);
            let quadratic = _mm256_add_pd(
                _mm256_sub_pd(_mm256_mul_pd(three, h0[v]), _mm256_mul_pd(three, h1[v])),
                h2[v],
            );
            let pred = match ORDER {
                1 => h0[v],
                2 => linear,
                3 => quadratic,
                _ => _mm256_blendv_pd(
                    _mm256_blendv_pd(h0[v], linear, is_linear[v]),
                    quadratic,
                    is_quadratic[v],
                ),
            };
            // `q` has the sign of the residual (2eb > 0, or q is NaN/±∞
            // and escapes anyway), so the rounding offset is ready before
            // the divide finishes.
            let diff = _mm256_sub_pd(x, pred);
            let q = _mm256_div_pd(diff, two_ebv);
            let s = _mm256_add_pd(q, _mm256_or_pd(_mm256_and_pd(diff, sign), half));
            let in_range = _mm256_cmp_pd::<_CMP_LT_OQ>(_mm256_andnot_pd(sign, s), limit);
            let code = _mm256_round_pd::<{ _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC }>(s);
            let mut recon = _mm256_add_pd(pred, _mm256_mul_pd(code, two_ebv));
            if SNAP {
                recon = _mm256_cvtps_pd(_mm256_cvtpd_ps(recon));
            }
            let err = _mm256_andnot_pd(sign, _mm256_sub_pd(x, recon));
            let ok = _mm256_and_pd(in_range, _mm256_cmp_pd::<_CMP_LE_OQ>(err, ebv));
            // Out-of-range codes are masked to ESCAPE before the convert.
            let symbols = _mm256_and_pd(_mm256_add_pd(code, bias), ok);
            _mm_storeu_si128(
                sym_out.as_mut_ptr().add(WIDTH * v).cast(),
                _mm256_cvttpd_epi32(symbols),
            );
            let ok_bits = _mm256_movemask_pd(ok);
            okay |= ok_bits << (WIDTH * v);
            // Escapes are rare: blending them in only when one occurs
            // keeps the escape check off the chain through the
            // reconstructed values.
            h[v] = if ok_bits == 0xf {
                recon
            } else {
                _mm256_blendv_pd(x, recon, ok)
            };
        }

        let active = if tail {
            (0..n).fold(0, |m, l| m | (i32::from(j < lens[l]) << l))
        } else {
            real
        };
        let mut escaped = !okay & active;
        while escaped != 0 {
            lanes[escaped.trailing_zeros() as usize].escapes.push(j);
            escaped &= escaped - 1;
        }
        if tail {
            for (l, lane) in lanes.iter_mut().enumerate() {
                if active & (1 << l) != 0 {
                    lane.symbols[j] = sym_out[l] as u16;
                }
            }
            let on = mask(active);
            for v in 0..VECTORS {
                h2[v] = _mm256_blendv_pd(h2[v], h1[v], on[v]);
                h1[v] = _mm256_blendv_pd(h1[v], h0[v], on[v]);
                h0[v] = _mm256_blendv_pd(h0[v], h[v], on[v]);
            }
        } else {
            // SAFETY: `j < common <= lens[l]`, the length of the symbol
            // slice `syms[l]` points into (lane 0's for missing lanes).
            for (p, &symbol) in syms.iter().zip(&sym_out) {
                *p.add(j) = symbol as u16;
            }
            (h2, h1, h0) = (h1, h0, h);
        }
        j += 1;
    }

    let mut out = [[0.0f64; LANES]; 3];
    for (slot, h) in out.iter_mut().zip([h0, h1, h2]) {
        for (v, h) in h.into_iter().enumerate() {
            _mm256_storeu_pd(slot.as_mut_ptr().add(WIDTH * v), h);
        }
    }
    for (l, lane) in lanes.iter_mut().enumerate() {
        lane.history.vals = [out[0][l], out[1][l], out[2][l]];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bits3(c: [f64; 3]) -> [u64; 3] {
        [c[0].to_bits(), c[1].to_bits(), c[2].to_bits()]
    }

    #[test]
    fn trial_costs_simd_equals_scalar_across_lengths_and_hists() {
        // Lengths straddling the 4-lane width and the 3-element warm-up,
        // with every history depth.
        for len in [0usize, 1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 100] {
            for hist in 0..=3usize.min(len) {
                let ext: Vec<f64> = (0..len)
                    .map(|i| ((i * 37 + 11) as f64 * 0.37).sin() * 50.0)
                    .collect();
                let simd = trial_costs(&ext, hist, 1e-3);
                let scalar = trial_costs_scalar(&ext, hist, 1e-3);
                assert_eq!(bits3(simd), bits3(scalar), "len={len} hist={hist}");
            }
        }
    }

    #[test]
    fn trial_costs_handles_non_finite_lanes_identically() {
        let mut ext: Vec<f64> = (0..40).map(|i| i as f64 * 0.5).collect();
        ext[7] = f64::NAN;
        ext[19] = f64::INFINITY;
        ext[23] = f64::NEG_INFINITY;
        ext[31] = f64::MAX; // x − pred can overflow to ∞
        ext[32] = -f64::MAX;
        let simd = trial_costs(&ext, 3, 0.25);
        let scalar = trial_costs_scalar(&ext, 3, 0.25);
        assert_eq!(bits3(simd), bits3(scalar));
    }

    #[test]
    fn symbol_deltas_simd_equals_scalar_across_tail_lengths() {
        let bias = 1 << 15;
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 100] {
            let symbols: Vec<u16> = (0..len).map(|i| (i * 2654435761) as u16).collect();
            let mut simd = vec![0.0f64; len];
            let mut scalar = vec![0.0f64; len];
            symbol_deltas(&symbols, bias, 2e-4, &mut simd);
            symbol_deltas_scalar(&symbols, bias, 2e-4, &mut scalar);
            let (a, b): (Vec<u64>, Vec<u64>) = (
                simd.iter().map(|v| v.to_bits()).collect(),
                scalar.iter().map(|v| v.to_bits()).collect(),
            );
            assert_eq!(a, b, "len={len}");
        }
    }

    #[test]
    fn symbol_deltas_are_exact_integers_times_scale() {
        let bias = 1 << 15;
        let symbols = [0u16, 1, 32767, 32768, 32769, 65535];
        let mut out = [0.0f64; 6];
        symbol_deltas(&symbols, bias, 0.5, &mut out);
        assert_eq!(out, [-16384.0, -16383.5, -0.5, 0.0, 0.5, 16383.5]);
    }

    /// The historical quantizer step: `f64::round` and the `i64` round
    /// trip, kept as the reference for [`quantize_one`].
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    fn quantize_reference(x: f64, pred: f64, eb: f64, snap: bool) -> Option<(u16, f64)> {
        if eb == 0.0 || !x.is_finite() || !pred.is_finite() {
            return None;
        }
        let code_f = ((x - pred) / (2.0 * eb)).round();
        if !(code_f.abs() < f64::from(RADIUS - 1)) {
            return None;
        }
        let code = code_f as i64;
        let mut recon = pred + code as f64 * (2.0 * eb);
        if snap {
            recon = recon as f32 as f64;
        }
        if !((x - recon).abs() <= eb) {
            return None;
        }
        Some(((code + i64::from(RADIUS)) as u16, recon))
    }

    fn same_value(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a == 0.0 && b == 0.0)
    }

    #[test]
    fn half_down_rounding_is_round_half_away() {
        let mut qs = vec![0.0, -0.0, 0.5, -0.5, 1.5, 2.5, -2.5, 32766.5, -32766.5];
        for k in -40i32..40 {
            let base = f64::from(k) + 0.5;
            qs.extend([
                base,
                f64::from_bits(base.to_bits() + 1),
                f64::from_bits(base.to_bits() - 1),
            ]);
        }
        qs.extend([
            0.499_999_999_999_999_94,
            0.500_000_000_000_000_1,
            4503599627370495.5,
        ]);
        for q in qs {
            let s = q + HALF_DOWN.copysign(q);
            assert_eq!(s.trunc(), q.round(), "q = {q:e}");
        }
    }

    #[test]
    fn quantize_one_matches_the_historical_step() {
        let preds = [0.0, -0.0, 1.0, -3.25, 1e8, f64::NAN, f64::INFINITY, 1e308];
        let xs = [
            0.0,
            -0.0,
            0.499_999_999_999_999_94,
            -2.5,
            1.0,
            1.0004,
            -3.2501,
            1e8 + 0.3,
            65535.0,
            f64::NAN,
            f64::NEG_INFINITY,
            -1e308,
            5e-324,
        ];
        for eb in [0.0, 5e-324, 1e-12, 1e-3, 0.5, 1.0] {
            for snap in [false, true] {
                for &x in &xs {
                    for &p in &preds {
                        let got = quantize_one(x, p, eb, snap);
                        let want = quantize_reference(x, p, eb, snap);
                        match (got, want) {
                            (Some((a, ra)), Some((b, rb))) => {
                                assert_eq!(a, b, "x={x} p={p} eb={eb}");
                                assert_eq!(ra.to_bits(), rb.to_bits(), "x={x} p={p} eb={eb}");
                            }
                            (None, None) => {}
                            _ => panic!("x={x} p={p} eb={eb} snap={snap}: {got:?} vs {want:?}"),
                        }
                    }
                }
            }
        }
    }

    type LaneOut = (Vec<u16>, Vec<usize>, History);

    /// Runs `kernel` over one block per stream, each with its own order
    /// and a history seeded with `seed[l]` values.
    fn run_lanes(
        kernel: fn(&mut [Lane<'_>], f64, bool),
        streams: &[Vec<f64>],
        orders: &[usize],
        seed: &[usize],
        eb: f64,
        snap: bool,
    ) -> Vec<LaneOut> {
        let mut out: Vec<LaneOut> = streams
            .iter()
            .zip(seed)
            .map(|(s, &k)| {
                let mut h = History::new();
                for i in 0..k {
                    h.push(i as f64 * 0.25 - 0.3);
                }
                (vec![0xffff; s.len()], Vec::new(), h)
            })
            .collect();
        let mut lanes: Vec<Lane<'_>> = streams
            .iter()
            .zip(orders)
            .zip(out.iter_mut())
            .map(|((values, &order), (symbols, escapes, history))| Lane {
                values,
                order,
                history,
                symbols,
                escapes,
            })
            .collect();
        kernel(&mut lanes, eb, snap);
        drop(lanes);
        out
    }

    fn assert_lanes_agree(
        streams: &[Vec<f64>],
        orders: &[usize],
        seed: &[usize],
        eb: f64,
        snap: bool,
    ) {
        let simd = run_lanes(quantize_lanes, streams, orders, seed, eb, snap);
        let scalar = run_lanes(quantize_lanes_scalar, streams, orders, seed, eb, snap);
        for (l, (a, b)) in simd.iter().zip(&scalar).enumerate() {
            let ctx = format!(
                "lane {l} of {} (len {}), eb={eb} snap={snap}",
                streams.len(),
                streams[l].len()
            );
            assert_eq!(a.0, b.0, "symbols, {ctx}");
            assert_eq!(a.1, b.1, "escapes, {ctx}");
            assert_eq!(a.2.len(), b.2.len(), "history length, {ctx}");
            for (x, y) in a.2.vals.iter().zip(b.2.vals) {
                assert!(same_value(*x, y), "history {x} vs {y}, {ctx}");
            }
        }
        // One lane at a time is the single-stream path: same output.
        for (l, want) in scalar.iter().enumerate() {
            let one = run_lanes(
                quantize_lanes,
                &streams[l..=l],
                &orders[l..=l],
                &seed[l..=l],
                eb,
                snap,
            );
            assert_eq!(one[0].0, want.0);
            assert_eq!(one[0].1, want.1);
        }
    }

    fn wavy(len: usize, phase: f64) -> Vec<f64> {
        (0..len)
            .map(|i| ((i as f64) * 0.013 + phase).sin() * 40.0 + ((i * 7919) % 13) as f64 * 1e-3)
            .collect()
    }

    #[test]
    fn lane_kernel_equals_scalar_across_lengths_orders_and_bounds() {
        let lens = [0usize, 1, 2, 3, 4, 4095, 4096, 4097, 8193];
        for n in 1..=LANES {
            for (k, &len0) in lens.iter().enumerate() {
                let streams: Vec<Vec<f64>> = (0..n)
                    .map(|l| {
                        wavy(
                            lens[(k + 3 * l) % lens.len()].max(len0 * (l == 0) as usize),
                            l as f64,
                        )
                    })
                    .collect();
                let orders: Vec<usize> = (0..n).map(|l| 1 + (k + l) % 3).collect();
                let seed: Vec<usize> = (0..n)
                    .map(|l| if k % 2 == 0 { 0 } else { (k + l) % 4 })
                    .collect();
                for eb in [0.0, 1e-3, 0.05] {
                    assert_lanes_agree(&streams, &orders, &seed, eb, false);
                }
                let f32s: Vec<Vec<f64>> = streams
                    .iter()
                    .map(|s| s.iter().map(|&v| f64::from(v as f32)).collect())
                    .collect();
                assert_lanes_agree(&f32s, &orders, &seed, 1e-4, true);
            }
        }
    }

    #[test]
    fn lane_kernel_rounds_half_away_at_the_boundaries() {
        // With 2eb = 1 and last-value prediction from a zero history, q is
        // the value itself: the largest double below ½ must give code 0
        // (`q + 0.5` would round up to 1 and then escape), ±½ and ±2.5
        // round away from zero.
        let eb = 0.5;
        let below_half = 0.499_999_999_999_999_94;
        for v in [below_half, -below_half, 0.5, -0.5, 2.5, -2.5] {
            let stream = vec![0.0, 0.0, 0.0, 0.0, v];
            let streams = vec![stream.clone(), stream.clone(), stream];
            let out = run_lanes(quantize_lanes, &streams, &[1, 1, 1], &[0, 0, 0], eb, false);
            let want = RADIUS as f64 + v.round();
            assert_eq!(out[0].0[4], want as u16, "v = {v}");
            assert_lanes_agree(&streams, &[1, 1, 1], &[0, 0, 0], eb, false);
        }
    }

    #[test]
    fn lane_kernel_handles_specials_and_out_of_range_residuals() {
        let mut a = wavy(300, 0.0);
        let mut b = wavy(257, 1.0);
        let mut c = wavy(300, 2.0);
        for (i, v) in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            1e308,
            -1e308,
            5e-324,
        ]
        .into_iter()
        .enumerate()
        {
            a[3 + 17 * i] = v;
            b[5 + 13 * i] = v;
            c[40 + i] = v;
        }
        // Jumps far beyond RADIUS codes at this bound.
        for i in (100..300).step_by(9) {
            a[i] += 1e4;
            c[i] -= 3e3;
        }
        let zeros: Vec<f64> = (0..64)
            .map(|i| if i % 2 == 0 { 0.0 } else { -0.0 })
            .collect();
        // The upper vector gets the same streams in another order.
        let streams = [
            a.clone(),
            b.clone(),
            c.clone(),
            zeros.clone(),
            c,
            zeros,
            a,
            b,
        ];
        for orders in [[1; LANES], [3; LANES], [1, 2, 3, 2, 3, 1, 2, 2]] {
            for eb in [0.0, 1e-2] {
                for n in [4, LANES] {
                    assert_lanes_agree(&streams[..n], &orders[..n], &[0; LANES][..n], eb, false);
                    assert_lanes_agree(&streams[..n], &orders[..n], &[3; LANES][..n], eb, false);
                }
            }
        }

        // Lanes 0–3 clean and longest, so each case below reaches lanes
        // 4–7 alone: only the second vector's masks and blends see it.
        let base: Vec<Vec<f64>> = (0..LANES).map(|l| wavy(400, l as f64)).collect();
        let orders = [
            [1; LANES],
            [3; LANES],
            // Orders that differ between the vectors: the blend path.
            [1, 1, 1, 1, 3, 3, 3, 3],
            [2, 2, 2, 2, 2, 2, 2, 1],
            [1, 2, 3, 1, 3, 2, 1, 2],
        ];
        let check = |streams: &[Vec<f64>]| {
            let n = streams.len();
            for orders in &orders {
                for eb in [0.0, 1e-3] {
                    assert_lanes_agree(streams, &orders[..n], &[0; LANES][..n], eb, false);
                    assert_lanes_agree(streams, &orders[..n], &[3; LANES][..n], eb, false);
                }
            }
        };
        // A lone escape, NaN or ±∞ in one upper lane.
        let specials = [
            (4, f64::NAN),
            (5, f64::INFINITY),
            (6, f64::NEG_INFINITY),
            (7, 1e4),
        ];
        for (lane, v) in specials {
            let mut streams = base.clone();
            let at = 37 + 29 * lane;
            streams[lane][at] = if v.is_finite() {
                streams[lane][at] + v
            } else {
                v
            };
            check(&streams);
        }
        // An upper lane ends first: the tail masks the second vector only.
        for lane in 4..LANES {
            let mut streams = base.clone();
            streams[lane].truncate(150 + lane);
            check(&streams);
        }
        // One real stream in the upper vector; the other three mirror lane 0.
        check(&base[..5]);
    }

    proptest! {
        #[test]
        fn lane_kernel_equivalence_on_random_lanes(
            raw in prop::collection::vec(prop::collection::vec(-1e3f64..1e3, 0..600), 1..=LANES),
            orders in prop::collection::vec(1usize..=3, LANES),
            seed in prop::collection::vec(0usize..=3, LANES),
            eb in prop_oneof![Just(0.0), 1e-6f64..1.0],
            snap in any::<bool>(),
        ) {
            let n = raw.len();
            let streams: Vec<Vec<f64>> = raw
                .iter()
                .map(|s| if snap { s.iter().map(|&v| f64::from(v as f32)).collect() } else { s.clone() })
                .collect();
            let simd = run_lanes(quantize_lanes, &streams, &orders[..n], &seed[..n], eb, snap);
            let scalar = run_lanes(quantize_lanes_scalar, &streams, &orders[..n], &seed[..n], eb, snap);
            for (a, b) in simd.iter().zip(&scalar) {
                prop_assert_eq!(&a.0, &b.0);
                prop_assert_eq!(&a.1, &b.1);
            }
        }

        #[test]
        fn trial_costs_equivalence_on_random_streams(
            vals in prop::collection::vec(-1e9f64..1e9, 0..200),
            hist in 0usize..=3,
            eb in 0.0f64..10.0,
        ) {
            let hist = hist.min(vals.len());
            let simd = trial_costs(&vals, hist, eb);
            let scalar = trial_costs_scalar(&vals, hist, eb);
            prop_assert_eq!(bits3(simd), bits3(scalar));
        }

        #[test]
        fn symbol_deltas_equivalence_on_random_symbols(
            symbols in prop::collection::vec(any::<u16>(), 0..300),
            scale in 0.0f64..1.0,
        ) {
            let mut simd = vec![0.0f64; symbols.len()];
            let mut scalar = vec![0.0f64; symbols.len()];
            symbol_deltas(&symbols, 1 << 15, scale, &mut simd);
            symbol_deltas_scalar(&symbols, 1 << 15, scale, &mut scalar);
            for (a, b) in simd.iter().zip(&scalar) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
