//! Table-driven curve walks.
//!
//! The Skilling transform ([`crate::hilbert`]) is compact but costs
//! O(bits²) per index. This module walks an orientation state machine
//! instead — O(bits), one table lookup per two levels of the point's
//! Morton digits — and is what [`CurveKind::Hilbert`](crate::CurveKind)
//! dispatches to. The same machines, exposed as [`StateTable`], let a
//! caller walk a dyadic tree in curve order without indexing any point:
//! the zMesh restore recipe is one such depth-first walk.
//!
//! The tables are constants. Each curve's states are listed once (a
//! child's visit rank and the state of its subtree); the inverse ranks, the
//! two-step `pair` table and the `zero_tail` table are computed from them
//! at compile time. The Hilbert states were derived from the Skilling
//! implementation by breadth-first exploration of the curve's recursive
//! structure; that derivation is kept as a test that must reproduce the
//! checked-in states exactly.

use crate::{morton_index_2d, morton_index_3d};

/// One orientation state: child (x | y<<1 | z<<2) → visit rank, the
/// orientation of each child subtree, and rank → child.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Row {
    rank: [u8; 8],
    next: [u8; 8],
    inv_rank: [u8; 8],
}

/// The orientation state machine of a dyadic curve (Morton or Hilbert) in
/// 2-D or 3-D, starting from state 0 at the root of the `2^bits` grid.
///
/// Children of a node are numbered by their coordinate bits, x | y<<1 |
/// z<<2 (the point's Morton digit at that level).
///
/// ```
/// use zmesh_sfc::{Curve, CurveKind};
///
/// // Walk to the 2-D point (2, 1) on a 4×4 grid one level at a time.
/// let states = CurveKind::Hilbert.states(2).unwrap();
/// let (mut state, mut index) = (0, 0);
/// for child in [0b01, 0b10] {
///     let rank = (0..4).find(|&r| states.child(state, r).0 == child).unwrap();
///     index = index << 2 | rank as u64;
///     state = states.child(state, rank).1;
/// }
/// assert_eq!(index, CurveKind::Hilbert.index_2d(2, 1, 2));
/// ```
#[derive(Debug)]
pub struct StateTable {
    rows: &'static [Row],
    /// Two steps at once: `pair[state << 2d | child_hi << d | child_lo] =
    /// (rank_hi << d | rank_lo) | next_state << 6`.
    pair: &'static [u16],
    /// `zero_tail[state * TAIL + k]`: index digits of `k` steps into child
    /// 0 (the all-zero-bits child) starting from `state` — the low digits of
    /// any anchor `coord << k`.
    zero_tail: &'static [u64],
}

/// Row stride of [`StateTable::zero_tail`]: `k` runs over `0..=32` (a 2-D
/// index of 32 bits per axis fills a `u64`; 3-D uses `k ≤ 21`).
const TAIL: usize = 33;

/// The 2-D Hilbert states: `(rank, next)` per child.
const HILBERT_2D: [([u8; 4], [u8; 4]); 4] = [
    ([0, 3, 1, 2], [1, 2, 0, 0]),
    ([0, 1, 3, 2], [0, 1, 3, 1]),
    ([2, 3, 1, 0], [2, 0, 2, 3]),
    ([2, 1, 3, 0], [3, 3, 1, 2]),
];

/// The 3-D Hilbert states: `(rank, next)` per child.
const HILBERT_3D: [([u8; 8], [u8; 8]); 24] = [
    ([0, 7, 3, 4, 1, 6, 2, 5], [1, 2, 3, 4, 5, 6, 0, 0]),
    ([0, 3, 1, 2, 7, 4, 6, 5], [7, 8, 9, 1, 10, 5, 11, 1]),
    ([4, 7, 5, 6, 3, 0, 2, 1], [12, 13, 2, 9, 6, 14, 2, 11]),
    ([6, 7, 5, 4, 1, 0, 2, 3], [13, 9, 3, 15, 14, 11, 3, 0]),
    ([0, 1, 3, 2, 7, 6, 4, 5], [9, 7, 15, 4, 11, 10, 0, 4]),
    ([0, 3, 7, 4, 1, 2, 6, 5], [4, 16, 17, 1, 0, 5, 18, 5]),
    ([4, 7, 3, 0, 5, 6, 2, 1], [19, 3, 2, 20, 6, 0, 6, 18]),
    ([0, 1, 7, 6, 3, 2, 4, 5], [0, 4, 18, 17, 21, 7, 9, 7]),
    ([6, 5, 1, 2, 7, 4, 0, 3], [15, 8, 22, 8, 4, 16, 17, 1]),
    ([0, 7, 1, 6, 3, 4, 2, 5], [5, 6, 1, 2, 13, 7, 9, 9]),
    ([4, 5, 3, 2, 7, 6, 0, 1], [23, 10, 11, 10, 15, 4, 22, 17]),
    ([4, 3, 5, 2, 7, 0, 6, 1], [14, 10, 11, 11, 8, 12, 1, 2]),
    ([2, 1, 5, 6, 3, 0, 4, 7], [12, 15, 12, 22, 19, 3, 2, 20]),
    ([6, 7, 1, 0, 5, 4, 2, 3], [3, 0, 20, 18, 13, 21, 13, 9]),
    ([2, 3, 5, 4, 1, 0, 6, 7], [14, 23, 14, 11, 3, 15, 20, 22]),
    ([6, 1, 5, 2, 7, 0, 4, 3], [8, 12, 15, 15, 1, 2, 3, 4]),
    ([6, 5, 7, 4, 1, 2, 0, 3], [21, 16, 7, 8, 23, 16, 10, 5]),
    ([4, 5, 7, 6, 3, 2, 0, 1], [22, 17, 21, 7, 18, 17, 23, 10]),
    ([4, 3, 7, 0, 5, 2, 6, 1], [20, 17, 16, 19, 18, 18, 5, 6]),
    ([2, 1, 3, 0, 5, 6, 4, 7], [19, 21, 12, 13, 19, 23, 6, 14]),
    ([2, 3, 1, 0, 5, 4, 6, 7], [20, 22, 13, 21, 20, 18, 14, 23]),
    ([6, 1, 7, 0, 5, 2, 4, 3], [16, 19, 5, 6, 21, 21, 13, 7]),
    ([2, 5, 1, 6, 3, 4, 0, 7], [22, 22, 8, 12, 20, 17, 16, 19]),
    ([2, 5, 3, 4, 1, 6, 0, 7], [23, 23, 14, 10, 16, 19, 8, 12]),
];

/// Morton order has one state: children in bit order, every subtree alike.
const MORTON_2D: [([u8; 4], [u8; 4]); 1] = [([0, 1, 2, 3], [0; 4])];
const MORTON_3D: [([u8; 8], [u8; 8]); 1] = [([0, 1, 2, 3, 4, 5, 6, 7], [0; 8])];

/// Flattens `(rank, next)` states into rows with their inverse ranks.
const fn rows<const C: usize, const S: usize>(states: &[([u8; C], [u8; C]); S]) -> [Row; S] {
    let mut rows = [Row {
        rank: [0; 8],
        next: [0; 8],
        inv_rank: [0; 8],
    }; S];
    let mut s = 0;
    while s < S {
        let mut ch = 0;
        while ch < C {
            let rank = states[s].0[ch];
            rows[s].rank[ch] = rank;
            rows[s].next[ch] = states[s].1[ch];
            rows[s].inv_rank[rank as usize] = ch as u8;
            ch += 1;
        }
        s += 1;
    }
    rows
}

/// The two-step table over `rows` in `dim` dimensions (`N = S << 2d`).
const fn pair_table<const N: usize>(dim: usize, rows: &[Row]) -> [u16; N] {
    let children = 1 << dim;
    let mut pair = [0u16; N];
    let mut s = 0;
    while s < rows.len() {
        let mut hi = 0;
        while hi < children {
            let mid = &rows[rows[s].next[hi] as usize];
            let mut lo = 0;
            while lo < children {
                let digits = (rows[s].rank[hi] as u16) << dim | mid.rank[lo] as u16;
                pair[s << (2 * dim) | hi << dim | lo] = digits | (mid.next[lo] as u16) << 6;
                lo += 1;
            }
            hi += 1;
        }
        s += 1;
    }
    pair
}

/// `tail(s, k) = rank[s][0] · 2^(d(k-1)) + tail(next[s][0], k - 1)` over
/// `rows` in `dim` dimensions (`N = S · TAIL`).
const fn zero_tail_table<const N: usize>(dim: usize, rows: &[Row]) -> [u64; N] {
    let mut tail = [0u64; N];
    let max_k = 64 / dim;
    let mut k = 1;
    while k <= max_k {
        let mut s = 0;
        while s < rows.len() {
            let rest = tail[rows[s].next[0] as usize * TAIL + k - 1];
            tail[s * TAIL + k] = (rows[s].rank[0] as u64) << (dim * (k - 1)) | rest;
            s += 1;
        }
        k += 1;
    }
    tail
}

/// A [`StateTable`] from checked-in states: `$S` states of `2^$dim`
/// children.
macro_rules! state_table {
    ($states:expr, $dim:expr, $s:expr) => {{
        const ROWS: [Row; $s] = rows(&$states);
        const PAIR: [u16; $s << (2 * $dim)] = pair_table($dim, &ROWS);
        const ZERO_TAIL: [u64; $s * TAIL] = zero_tail_table($dim, &ROWS);
        StateTable {
            rows: &ROWS,
            pair: &PAIR,
            zero_tail: &ZERO_TAIL,
        }
    }};
}

pub(crate) static HILBERT_2D_TABLE: StateTable = state_table!(HILBERT_2D, 2, 4);
pub(crate) static HILBERT_3D_TABLE: StateTable = state_table!(HILBERT_3D, 3, 24);
pub(crate) static MORTON_2D_TABLE: StateTable = state_table!(MORTON_2D, 2, 1);
pub(crate) static MORTON_3D_TABLE: StateTable = state_table!(MORTON_3D, 3, 1);

impl StateTable {
    /// The child a node in `state` visits `rank`-th (`rank < 2^d`), and the
    /// state of that child's subtree.
    #[inline]
    pub fn child(&self, state: u8, rank: usize) -> (usize, u8) {
        let row = &self.rows[state as usize];
        let child = row.inv_rank[rank];
        (usize::from(child), row.next[usize::from(child)])
    }

    /// The `dim · k` low index bits that `k` zero bits append to a walk in
    /// `state` (`k ≤ 32` in 2-D, `≤ 21` in 3-D): the curve index of an
    /// anchor `coord << k` is the walk index of `coord`, shifted, or'ed
    /// with this.
    #[inline]
    pub fn zero_tail(&self, state: u8, k: u32) -> u64 {
        self.zero_tail[state as usize * TAIL + k as usize]
    }

    /// Continues a walk from `(state, index)` through digits `hi - 1` down
    /// to `lo` of `m`, the Morton interleave of a point (digit `b` is the
    /// point's child at bit `b`), appending one `dim`-bit rank per digit.
    /// Returns the new `(state, index)`.
    #[inline]
    pub(crate) fn walk(
        &self,
        dim: u32,
        (mut state, mut index): (u8, u64),
        m: u64,
        lo: u32,
        hi: u32,
    ) -> (u8, u64) {
        let mut b = hi;
        if (hi - lo) % 2 == 1 {
            b -= 1;
            let child = ((m >> (dim * b)) & ((1 << dim) - 1)) as usize;
            let row = &self.rows[state as usize];
            index = (index << dim) | u64::from(row.rank[child]);
            state = row.next[child];
        }
        while b > lo {
            b -= 2;
            let children = ((m >> (dim * b)) & ((1 << (2 * dim)) - 1)) as usize;
            let pair = self.pair[(state as usize) << (2 * dim) | children];
            index = (index << (2 * dim)) | u64::from(pair & 63);
            state = (pair >> 6) as u8;
        }
        (state, index)
    }
}

/// Table-driven Hilbert index of `(x, y)` — agrees with
/// [`crate::hilbert_index_2d`].
pub fn hilbert_index_2d_fast(x: u64, y: u64, bits: u32) -> u64 {
    HILBERT_2D_TABLE
        .walk(2, (0, 0), morton_index_2d(x, y), 0, bits)
        .1
}

/// Inverse of [`hilbert_index_2d_fast`].
pub fn hilbert_point_2d_fast(index: u64, bits: u32) -> (u64, u64) {
    let rows = HILBERT_2D_TABLE.rows;
    let mut state = 0usize;
    let (mut x, mut y) = (0u64, 0u64);
    for b in (0..bits).rev() {
        let rank = ((index >> (2 * b)) & 3) as usize;
        let row = rows[state];
        let child = row.inv_rank[rank] as usize;
        x = (x << 1) | (child & 1) as u64;
        y = (y << 1) | ((child >> 1) & 1) as u64;
        state = row.next[child] as usize;
    }
    (x, y)
}

/// Table-driven Hilbert index of `(x, y, z)` — agrees with
/// [`crate::hilbert_index_3d`].
pub fn hilbert_index_3d_fast(x: u64, y: u64, z: u64, bits: u32) -> u64 {
    HILBERT_3D_TABLE
        .walk(3, (0, 0), morton_index_3d(x, y, z), 0, bits)
        .1
}

/// Inverse of [`hilbert_index_3d_fast`].
pub fn hilbert_point_3d_fast(index: u64, bits: u32) -> (u64, u64, u64) {
    let rows = HILBERT_3D_TABLE.rows;
    let mut state = 0usize;
    let (mut x, mut y, mut z) = (0u64, 0u64, 0u64);
    for b in (0..bits).rev() {
        let rank = ((index >> (3 * b)) & 7) as usize;
        let row = rows[state];
        let child = row.inv_rank[rank] as usize;
        x = (x << 1) | (child & 1) as u64;
        y = (y << 1) | ((child >> 1) & 1) as u64;
        z = (z << 1) | ((child >> 2) & 1) as u64;
        state = row.next[child] as usize;
    }
    (x, y, z)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hilbert::{hilbert_index_2d, hilbert_index_3d, hilbert_point_2d, hilbert_point_3d};
    use crate::{Curve, CurveKind};
    use std::collections::HashMap;

    /// Probe depth used to fingerprint a node's orientation.
    const PROBE: u32 = 3;

    /// Reference index of a point at `bits` resolution.
    fn reference(dim: usize, coords: [u64; 3], bits: u32) -> u64 {
        match dim {
            2 => hilbert_index_2d(coords[0], coords[1], bits),
            _ => hilbert_index_3d(coords[0], coords[1], coords[2], bits),
        }
    }

    /// The point at `path` (child-bit choices from the root).
    fn point(dim: usize, path: &[u8]) -> [u64; 3] {
        let mut c = [0u64; 3];
        for &step in path {
            for (a, b) in c.iter_mut().enumerate().take(dim) {
                *b = (*b << 1) | u64::from((step >> a) & 1);
            }
        }
        c
    }

    /// Fingerprint of the node at `path`: the rank of every descendant
    /// `PROBE` levels down, in child-bit order.
    fn fingerprint(dim: usize, path: &[u8]) -> Vec<u16> {
        let children = 1usize << dim;
        let depth = path.len() as u32 + PROBE;
        let n = children.pow(PROBE);
        let mut idx: Vec<(u64, usize)> = (0..n)
            .map(|d| {
                let mut below = path.to_vec();
                for lvl in (0..PROBE).rev() {
                    below.push(((d / children.pow(lvl)) % children) as u8);
                }
                (reference(dim, point(dim, &below), depth), d)
            })
            .collect();
        idx.sort_unstable();
        let mut rank = vec![0u16; n];
        for (r, &(_, d)) in idx.iter().enumerate() {
            rank[d] = r as u16;
        }
        rank
    }

    /// Derives the Hilbert state machine from the Skilling transform by
    /// BFS from the root, identifying two nodes whenever their descendant
    /// orderings agree over `PROBE` levels: `(rank, next)` per state.
    fn build_tables(dim: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        let children = 1usize << dim;
        let mut sig_to_id: HashMap<Vec<u16>, u8> = HashMap::new();
        let mut states: Vec<(Vec<u8>, Vec<u8>)> = vec![(Vec::new(), Vec::new())];
        sig_to_id.insert(fingerprint(dim, &[]), 0);
        let mut queue: Vec<(u8, Vec<u8>)> = vec![(0, Vec::new())];
        let mut qi = 0;
        while qi < queue.len() {
            let (sid, path) = queue[qi].clone();
            qi += 1;
            let depth = path.len() as u32 + 1;
            let mut child_idx: Vec<(u64, usize)> = (0..children)
                .map(|ch| {
                    let mut p = path.clone();
                    p.push(ch as u8);
                    (reference(dim, point(dim, &p), depth), ch)
                })
                .collect();
            child_idx.sort_unstable();
            let mut rank = vec![0u8; children];
            for (r, &(_, ch)) in child_idx.iter().enumerate() {
                rank[ch] = r as u8;
            }
            let mut next = vec![0u8; children];
            for (ch, id) in next.iter_mut().enumerate() {
                let mut child_path = path.clone();
                child_path.push(ch as u8);
                let sig = fingerprint(dim, &child_path);
                *id = match sig_to_id.get(&sig) {
                    Some(&id) => id,
                    None => {
                        let id = states.len() as u8;
                        sig_to_id.insert(sig, id);
                        states.push((Vec::new(), Vec::new()));
                        queue.push((id, child_path));
                        id
                    }
                };
            }
            states[sid as usize] = (rank, next);
        }
        states
    }

    #[test]
    fn derived_states_equal_the_constants() {
        for (dim, table) in [(2, &HILBERT_2D_TABLE), (3, &HILBERT_3D_TABLE)] {
            let derived = build_tables(dim);
            assert_eq!(derived.len(), table.rows.len(), "{dim}-D state count");
            for (s, (rank, next)) in derived.iter().enumerate() {
                let row = &table.rows[s];
                assert_eq!(&row.rank[..1 << dim], &rank[..], "{dim}-D state {s}");
                assert_eq!(&row.next[..1 << dim], &next[..], "{dim}-D state {s}");
            }
        }
    }

    #[test]
    fn state_walks_index_every_anchor() {
        // Walking a point's top `bits - k` digits with `child` and then
        // appending `zero_tail` gives the curve index of `coord << k`.
        for curve in [CurveKind::Morton, CurveKind::Hilbert] {
            for dim in [2u32, 3] {
                let states = curve.states(dim).unwrap();
                let bits = if dim == 2 { 5 } else { 3 };
                for m in 0..1u64 << (dim * bits) {
                    for k in 0..=bits {
                        let (mut state, mut index) = (0u8, 0u64);
                        for b in (k..bits).rev() {
                            let child = ((m >> (dim * b)) & ((1 << dim) - 1)) as usize;
                            let rank = (0..1 << dim)
                                .find(|&r| states.child(state, r).0 == child)
                                .unwrap();
                            index = index << dim | rank as u64;
                            state = states.child(state, rank).1;
                        }
                        let key = index << (dim * k) | states.zero_tail(state, k);
                        let anchor = m >> (dim * k) << (dim * k);
                        let want = match dim {
                            2 => {
                                let (x, y) = crate::morton_point_2d(anchor);
                                curve.index_2d(x, y, bits)
                            }
                            _ => {
                                let (x, y, z) = crate::morton_point_3d(anchor);
                                curve.index_3d(x, y, z, bits)
                            }
                        };
                        assert_eq!(key, want, "{curve:?} {dim}-D m={m} k={k}");
                    }
                }
            }
        }
    }

    #[test]
    fn agrees_with_skilling_2d_exhaustive() {
        for bits in 1..=6u32 {
            let side = 1u64 << bits;
            for x in 0..side {
                for y in 0..side {
                    assert_eq!(
                        hilbert_index_2d_fast(x, y, bits),
                        hilbert_index_2d(x, y, bits),
                        "bits={bits} ({x},{y})"
                    );
                }
            }
        }
    }

    #[test]
    fn agrees_with_skilling_3d_exhaustive() {
        for bits in 1..=3u32 {
            let side = 1u64 << bits;
            for x in 0..side {
                for y in 0..side {
                    for z in 0..side {
                        assert_eq!(
                            hilbert_index_3d_fast(x, y, z, bits),
                            hilbert_index_3d(x, y, z, bits),
                            "bits={bits} ({x},{y},{z})"
                        );
                    }
                }
            }
        }
    }
    #[test]
    fn agrees_at_high_resolution_spot_checks() {
        let bits = 20;
        let mut s = 1u64;
        for _ in 0..2000 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = (s >> 10) & ((1 << bits) - 1);
            let y = (s >> 34) & ((1 << bits) - 1);
            assert_eq!(
                hilbert_index_2d_fast(x, y, bits),
                hilbert_index_2d(x, y, bits)
            );
        }
        let bits = 12;
        for _ in 0..2000 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = (s >> 8) & ((1 << bits) - 1);
            let y = (s >> 24) & ((1 << bits) - 1);
            let z = (s >> 40) & ((1 << bits) - 1);
            assert_eq!(
                hilbert_index_3d_fast(x, y, z, bits),
                hilbert_index_3d(x, y, z, bits)
            );
        }
    }

    #[test]
    fn fast_inverse_round_trips() {
        for bits in 1..=5u32 {
            let n = 1u64 << (2 * bits);
            for i in 0..n {
                let (x, y) = hilbert_point_2d_fast(i, bits);
                assert_eq!((x, y), hilbert_point_2d(i, bits));
                assert_eq!(hilbert_index_2d_fast(x, y, bits), i);
            }
        }
        for bits in 1..=2u32 {
            let n = 1u64 << (3 * bits);
            for i in 0..n {
                let p = hilbert_point_3d_fast(i, bits);
                assert_eq!(p, hilbert_point_3d(i, bits));
                assert_eq!(hilbert_index_3d_fast(p.0, p.1, p.2, bits), i);
            }
        }
    }
}
