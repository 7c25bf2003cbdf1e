//! Bounding-box → curve-index range decomposition.
//!
//! For dyadic-recursive curves (Morton, Hilbert) every aligned `2^k`-sided
//! sub-block is visited in one contiguous, size-aligned index range of
//! length `2^(d*k)`. A bounding box therefore decomposes exactly into the
//! ranges of the maximal aligned blocks it contains: recurse from the full
//! domain, emit a block's range when the box fully covers it, skip it when
//! disjoint, and split otherwise. The chunked store (`zmesh-store`) uses
//! this to turn a spatial query into a set of curve-index intervals and
//! decode only the chunks that overlap them.
//!
//! A reader that only asks whether a box has a cell within one index
//! interval (a stored chunk's) need not list the ranges:
//! [`bbox_meets_interval_2d`]/[`bbox_meets_interval_3d`] answer by the same
//! descent, stopping at the first aligned block that lies inside one of
//! the two and meets the other.
//!
//! Row-major is not dyadic-recursive; there a box is one contiguous run
//! per row. Runs are emitted exactly up to [`MAX_EXACT_ROWS`] rows, beyond
//! which the decomposition falls back to the single covering interval
//! (a *superset* — always sound for chunk selection, just less sharp).

use crate::curve::{Curve, CurveKind};
use crate::hilbert_fast::StateTable;
use std::ops::Range;

/// Row-count cap for exact row-major decomposition; larger boxes collapse
/// to the single covering index interval.
pub const MAX_EXACT_ROWS: u64 = 4096;

/// Decomposes the inclusive 2-D box `lo..=hi` on a `2^bits`-sided grid into
/// sorted, disjoint, merged half-open curve-index ranges.
///
/// For Morton and Hilbert the union of the ranges is exactly the set of
/// curve indices of cells inside the box. For row-major it is exact up to
/// [`MAX_EXACT_ROWS`] rows and a covering superset beyond.
pub fn bbox_ranges_2d(
    kind: CurveKind,
    bits: u32,
    lo: (u64, u64),
    hi: (u64, u64),
) -> Vec<Range<u64>> {
    let side = 1u64 << bits;
    assert!(lo.0 <= hi.0 && lo.1 <= hi.1, "inverted bounding box");
    assert!(hi.0 < side && hi.1 < side, "bounding box exceeds grid");
    let mut out = Vec::new();
    if kind.is_dyadic_recursive() {
        recurse_2d(kind, bits, (0, 0), bits, lo, hi, &mut out);
    } else if hi.1 - lo.1 < MAX_EXACT_ROWS {
        for y in lo.1..=hi.1 {
            let start = kind.index_2d(lo.0, y, bits);
            out.push(start..start + (hi.0 - lo.0 + 1));
        }
    } else {
        let start = kind.index_2d(lo.0, lo.1, bits);
        out.push(start..kind.index_2d(hi.0, hi.1, bits) + 1);
    }
    merge(&mut out);
    out
}

/// 3-D counterpart of [`bbox_ranges_2d`].
pub fn bbox_ranges_3d(
    kind: CurveKind,
    bits: u32,
    lo: (u64, u64, u64),
    hi: (u64, u64, u64),
) -> Vec<Range<u64>> {
    let side = 1u64 << bits;
    assert!(
        lo.0 <= hi.0 && lo.1 <= hi.1 && lo.2 <= hi.2,
        "inverted bounding box"
    );
    assert!(
        hi.0 < side && hi.1 < side && hi.2 < side,
        "bounding box exceeds grid"
    );
    let mut out = Vec::new();
    if kind.is_dyadic_recursive() {
        recurse_3d(kind, bits, (0, 0, 0), bits, lo, hi, &mut out);
    } else if (hi.1 - lo.1 + 1).saturating_mul(hi.2 - lo.2 + 1) <= MAX_EXACT_ROWS {
        for z in lo.2..=hi.2 {
            for y in lo.1..=hi.1 {
                let start = kind.index_3d(lo.0, y, z, bits);
                out.push(start..start + (hi.0 - lo.0 + 1));
            }
        }
    } else {
        let start = kind.index_3d(lo.0, lo.1, lo.2, bits);
        out.push(start..kind.index_3d(hi.0, hi.1, hi.2, bits) + 1);
    }
    merge(&mut out);
    out
}

/// Whether some cell of the inclusive 2-D box `lo..=hi` on a `2^bits`-sided
/// grid has a curve index in `first..=last`: whether a range of
/// [`bbox_ranges_2d`] meets that interval, without listing the ranges.
///
/// For Morton and Hilbert this descends the aligned blocks in curve order,
/// skipping those that miss the box or the interval and stopping at the
/// first one that lies inside the box and meets the interval, or lies
/// inside the interval and meets the box; row-major asks its range list.
pub fn bbox_meets_interval_2d(
    kind: CurveKind,
    bits: u32,
    lo: (u64, u64),
    hi: (u64, u64),
    first: u64,
    last: u64,
) -> bool {
    match kind.states(2) {
        Some(states) => {
            let side = 1u64 << bits;
            assert!(lo.0 <= hi.0 && lo.1 <= hi.1, "inverted bounding box");
            assert!(hi.0 < side && hi.1 < side, "bounding box exceeds grid");
            let walk = BlockWalk {
                states,
                lo: [lo.0, lo.1],
                hi: [hi.0, hi.1],
                first,
                last,
            };
            walk.meets([0, 0], bits, 0, 0)
        }
        None => bbox_ranges_2d(kind, bits, lo, hi)
            .iter()
            .any(|r| r.start <= last && first < r.end),
    }
}

/// 3-D counterpart of [`bbox_meets_interval_2d`].
pub fn bbox_meets_interval_3d(
    kind: CurveKind,
    bits: u32,
    lo: (u64, u64, u64),
    hi: (u64, u64, u64),
    first: u64,
    last: u64,
) -> bool {
    match kind.states(3) {
        Some(states) => {
            let side = 1u64 << bits;
            assert!(
                lo.0 <= hi.0 && lo.1 <= hi.1 && lo.2 <= hi.2,
                "inverted bounding box"
            );
            assert!(
                hi.0 < side && hi.1 < side && hi.2 < side,
                "bounding box exceeds grid"
            );
            let walk = BlockWalk {
                states,
                lo: [lo.0, lo.1, lo.2],
                hi: [hi.0, hi.1, hi.2],
                first,
                last,
            };
            walk.meets([0, 0, 0], bits, 0, 0)
        }
        None => bbox_ranges_3d(kind, bits, lo, hi)
            .iter()
            .any(|r| r.start <= last && first < r.end),
    }
}

/// A box, an inclusive curve-index interval and the curve's state machine
/// in `D` dimensions.
struct BlockWalk<const D: usize> {
    states: &'static StateTable,
    lo: [u64; D],
    hi: [u64; D],
    first: u64,
    last: u64,
}

impl<const D: usize> BlockWalk<D> {
    /// Whether the aligned `2^k`-sided block at `origin`, in orientation
    /// `state` with curve indices from `start` on, holds a box cell whose
    /// index is in the interval.
    fn meets(&self, origin: [u64; D], k: u32, state: u8, start: u64) -> bool {
        let dk = D as u32 * k;
        let end = start + 1u64.checked_shl(dk).unwrap_or(0).wrapping_sub(1);
        let top = (1u64 << k) - 1;
        if end < self.first
            || self.last < start
            || (0..D).any(|a| origin[a] > self.hi[a] || origin[a] + top < self.lo[a])
        {
            return false;
        }
        if (self.first <= start && end <= self.last)
            || (0..D).all(|a| self.lo[a] <= origin[a] && origin[a] + top <= self.hi[a])
        {
            return true;
        }
        // A single cell meeting the box lies inside it, so `k > 0` here.
        let half = 1u64 << (k - 1);
        (0..1 << D).any(|rank| {
            let (child, next) = self.states.child(state, rank);
            let origin = std::array::from_fn(|a| origin[a] + ((child as u64 >> a) & 1) * half);
            self.meets(
                origin,
                k - 1,
                next,
                start + ((rank as u64) << (dk - D as u32)),
            )
        })
    }
}

fn recurse_2d(
    kind: CurveKind,
    bits: u32,
    origin: (u64, u64),
    k: u32,
    lo: (u64, u64),
    hi: (u64, u64),
    out: &mut Vec<Range<u64>>,
) {
    let block = 1u64 << k;
    let (bx, by) = origin;
    if bx > hi.0 || by > hi.1 || bx + block - 1 < lo.0 || by + block - 1 < lo.1 {
        return;
    }
    if lo.0 <= bx && bx + block - 1 <= hi.0 && lo.1 <= by && by + block - 1 <= hi.1 {
        let cells = 1u64 << (2 * k);
        // The block's index range is contiguous and size-aligned, so the
        // index of any cell in it rounds down to the range start.
        let start = kind.index_2d(bx, by, bits) & !(cells - 1);
        out.push(start..start + cells);
        return;
    }
    let half = block >> 1;
    for dy in 0..2u64 {
        for dx in 0..2u64 {
            recurse_2d(
                kind,
                bits,
                (bx + dx * half, by + dy * half),
                k - 1,
                lo,
                hi,
                out,
            );
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn recurse_3d(
    kind: CurveKind,
    bits: u32,
    origin: (u64, u64, u64),
    k: u32,
    lo: (u64, u64, u64),
    hi: (u64, u64, u64),
    out: &mut Vec<Range<u64>>,
) {
    let block = 1u64 << k;
    let (bx, by, bz) = origin;
    if bx > hi.0
        || by > hi.1
        || bz > hi.2
        || bx + block - 1 < lo.0
        || by + block - 1 < lo.1
        || bz + block - 1 < lo.2
    {
        return;
    }
    let inside = lo.0 <= bx
        && bx + block - 1 <= hi.0
        && lo.1 <= by
        && by + block - 1 <= hi.1
        && lo.2 <= bz
        && bz + block - 1 <= hi.2;
    if inside {
        let cells = 1u64 << (3 * k);
        let start = kind.index_3d(bx, by, bz, bits) & !(cells - 1);
        out.push(start..start + cells);
        return;
    }
    let half = block >> 1;
    for dz in 0..2u64 {
        for dy in 0..2u64 {
            for dx in 0..2u64 {
                recurse_3d(
                    kind,
                    bits,
                    (bx + dx * half, by + dy * half, bz + dz * half),
                    k - 1,
                    lo,
                    hi,
                    out,
                );
            }
        }
    }
}

/// Sorts `ranges` by start and merges overlapping or touching neighbours
/// in place.
pub fn merge(ranges: &mut Vec<Range<u64>>) {
    ranges.sort_unstable_by_key(|r| r.start);
    let mut write = 0usize;
    for read in 0..ranges.len() {
        if write > 0 && ranges[read].start <= ranges[write - 1].end {
            ranges[write - 1].end = ranges[write - 1].end.max(ranges[read].end);
        } else {
            ranges[write] = ranges[read].clone();
            write += 1;
        }
    }
    ranges.truncate(write);
}

/// Reduces sorted disjoint `ranges` to at most `max_ranges` by closing the
/// smallest gaps (keeping the `max_ranges - 1` widest separations). The
/// result still covers every input index — a superset, never a subset.
pub fn coarsen(ranges: &mut Vec<Range<u64>>, max_ranges: usize) {
    assert!(max_ranges > 0, "cannot coarsen to zero ranges");
    if ranges.len() <= max_ranges {
        return;
    }
    // Gap i sits between ranges[i] and ranges[i + 1].
    let mut gaps: Vec<(u64, usize)> = ranges
        .windows(2)
        .enumerate()
        .map(|(i, w)| (w[1].start - w[0].end, i))
        .collect();
    gaps.sort_unstable_by(|a, b| b.cmp(a));
    let mut keep: Vec<usize> = gaps[..max_ranges - 1].iter().map(|&(_, i)| i).collect();
    keep.sort_unstable();
    let mut out = Vec::with_capacity(max_ranges);
    let mut start = ranges[0].start;
    for &gap in &keep {
        out.push(start..ranges[gap].end);
        start = ranges[gap + 1].start;
    }
    out.push(start..ranges.last().unwrap().end);
    *ranges = out;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn contains(ranges: &[Range<u64>], idx: u64) -> bool {
        ranges.iter().any(|r| r.contains(&idx))
    }

    fn assert_sorted_disjoint(ranges: &[Range<u64>]) {
        for w in ranges.windows(2) {
            assert!(w[0].end < w[1].start, "ranges not merged: {w:?}");
        }
    }

    #[test]
    fn ranges_2d_match_brute_force_for_all_curves() {
        let bits = 3;
        let side = 1u64 << bits;
        for kind in CurveKind::ALL {
            for (lo, hi) in [((0, 0), (7, 7)), ((1, 2), (5, 3)), ((4, 4), (4, 4))] {
                let ranges = bbox_ranges_2d(kind, bits, lo, hi);
                assert_sorted_disjoint(&ranges);
                for x in 0..side {
                    for y in 0..side {
                        let inside = (lo.0..=hi.0).contains(&x) && (lo.1..=hi.1).contains(&y);
                        let idx = kind.index_2d(x, y, bits);
                        assert_eq!(
                            contains(&ranges, idx),
                            inside,
                            "{kind:?} ({x},{y}) idx {idx} box {lo:?}..={hi:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn ranges_3d_match_brute_force_for_all_curves() {
        let bits = 2;
        let side = 1u64 << bits;
        for kind in CurveKind::ALL {
            for (lo, hi) in [((0, 0, 0), (3, 3, 3)), ((1, 0, 2), (2, 3, 3))] {
                let ranges = bbox_ranges_3d(kind, bits, lo, hi);
                assert_sorted_disjoint(&ranges);
                for x in 0..side {
                    for y in 0..side {
                        for z in 0..side {
                            let inside = (lo.0..=hi.0).contains(&x)
                                && (lo.1..=hi.1).contains(&y)
                                && (lo.2..=hi.2).contains(&z);
                            let idx = kind.index_3d(x, y, z, bits);
                            assert_eq!(contains(&ranges, idx), inside, "{kind:?} ({x},{y},{z})");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn interval_test_matches_the_range_list() {
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = |m: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed % m
        };
        for kind in CurveKind::ALL {
            for _ in 0..400 {
                let (bits, side) = (4, 16);
                let (a, b) = (next(side), next(side));
                let (c, d) = (next(side), next(side));
                let (e, f) = (next(side), next(side));
                let first = next(1 << 12);
                let width = 1 << (1 + next(12));
                let last = first + next(width);
                let ranges = bbox_ranges_2d(kind, bits, (a.min(b), c.min(d)), (a.max(b), c.max(d)));
                assert_eq!(
                    bbox_meets_interval_2d(
                        kind,
                        bits,
                        (a.min(b), c.min(d)),
                        (a.max(b), c.max(d)),
                        first,
                        last
                    ),
                    ranges.iter().any(|r| r.start <= last && first < r.end),
                    "{kind:?} 2-D {first}..={last}"
                );
                let lo = (a.min(b), c.min(d), e.min(f));
                let hi = (a.max(b), c.max(d), e.max(f));
                let ranges = bbox_ranges_3d(kind, bits, lo, hi);
                assert_eq!(
                    bbox_meets_interval_3d(kind, bits, lo, hi, first, last),
                    ranges.iter().any(|r| r.start <= last && first < r.end),
                    "{kind:?} 3-D {lo:?}..={hi:?} {first}..={last}"
                );
            }
        }
        // The whole 2^32-sided grid: the root block spans every u64 index.
        let max = u64::MAX;
        let far = (1 << 32) - 1;
        assert!(bbox_meets_interval_2d(
            CurveKind::Hilbert,
            32,
            (0, 0),
            (far, far),
            max,
            max
        ));
        assert!(!bbox_meets_interval_2d(
            CurveKind::Morton,
            32,
            (0, 0),
            (0, 0),
            1,
            max
        ));
    }

    #[test]
    fn full_domain_is_one_range() {
        for kind in [CurveKind::Morton, CurveKind::Hilbert] {
            let r = bbox_ranges_2d(kind, 5, (0, 0), (31, 31));
            assert_eq!(r, vec![0..1 << 10]);
            let r = bbox_ranges_3d(kind, 4, (0, 0, 0), (15, 15, 15));
            assert_eq!(r, vec![0..1 << 12]);
        }
    }

    #[test]
    fn small_box_yields_few_ranges() {
        // An octant decomposes into one aligned block, not per-cell ranges.
        let r = bbox_ranges_3d(CurveKind::Morton, 6, (0, 0, 0), (31, 31, 31));
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].end - r[0].start, 1 << 15);
    }

    #[test]
    fn row_major_large_box_falls_back_to_covering_range() {
        let bits = 13; // 8192 rows > MAX_EXACT_ROWS
        let side = (1u64 << bits) - 1;
        let r = bbox_ranges_2d(CurveKind::RowMajor, bits, (1, 0), (side, side));
        assert_eq!(r.len(), 1);
        // Superset: covers the box corners.
        assert!(contains(&r, CurveKind::RowMajor.index_2d(1, 0, bits)));
        assert!(contains(&r, CurveKind::RowMajor.index_2d(side, side, bits)));
    }

    #[test]
    fn coarsen_preserves_coverage() {
        let mut ranges = vec![0..2, 10..12, 13..20, 40..41, 100..105];
        let original = ranges.clone();
        coarsen(&mut ranges, 2);
        assert_eq!(ranges.len(), 2);
        assert_sorted_disjoint(&ranges);
        for r in &original {
            for idx in r.clone() {
                assert!(contains(&ranges, idx), "lost {idx}");
            }
        }
        // The widest gap (41..100) is the one kept.
        assert_eq!(ranges, vec![0..41, 100..105]);
    }

    #[test]
    fn merge_joins_touching_and_overlapping() {
        let mut r = vec![5..7, 0..3, 3..5, 10..12, 11..15];
        merge(&mut r);
        assert_eq!(r, vec![0..7, 10..15]);
    }
}
