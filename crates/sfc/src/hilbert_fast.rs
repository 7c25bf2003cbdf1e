//! Table-driven Hilbert indexing.
//!
//! The Skilling transform ([`crate::hilbert`]) is compact but costs
//! O(bits²) per index. This module walks an orientation state machine
//! instead — O(bits), one table lookup per two levels of the point's
//! Morton digits — and is what [`CurveKind::Hilbert`](crate::CurveKind)
//! and [`crate::AnchoredIndexer`] dispatch to (recipe construction in the
//! zMesh core indexes millions of anchors).
//!
//! The state tables are **derived at first use from the Skilling
//! implementation itself**: states are discovered by breadth-first
//! exploration of the curve's recursive structure, identifying two nodes
//! whenever their descendant orderings agree over a probe depth. That makes
//! the fast path agree with the reference implementation *by construction*
//! (and the unit/property tests verify it exhaustively anyway).

use crate::hilbert::{hilbert_index_2d, hilbert_index_3d};
use crate::{morton_index_2d, morton_index_3d};
use std::collections::HashMap;
use std::sync::OnceLock;

/// One orientation state: child quadrant/octant → visit rank, and the
/// orientation of each child subtree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct State {
    /// `rank[child_bits]` = position of that child in the traversal.
    rank: Vec<u8>,
    /// `next[child_bits]` = state id of that child subtree.
    next: Vec<u8>,
}

/// Flattened, cache-friendly state row (8 slots cover both dims).
#[derive(Debug, Clone, Copy)]
struct Row {
    rank: [u8; 8],
    next: [u8; 8],
    inv_rank: [u8; 8],
}

pub(crate) struct Tables {
    rows: Vec<Row>,
    /// Two steps at once: `pair[state << 2d | child_hi << d | child_lo] =
    /// (rank_hi << d | rank_lo) | next_state << 6`.
    pair: Vec<u16>,
    /// `zero_tail[state * TAIL + k]`: index digits of `k` steps into child
    /// 0 (the all-zero-bits child) starting from `state` — the low digits of
    /// any anchor `coord << k`.
    zero_tail: Vec<u64>,
}

/// Row stride of [`Tables::zero_tail`]: `k` runs over `0..=32` (a 2-D index
/// of 32 bits per axis fills a `u64`; 3-D uses `k ≤ 21`).
const TAIL: usize = 33;

/// Probe depth used to fingerprint a node's orientation.
const PROBE: u32 = 3;

/// Reference index of a point at `bits` resolution.
fn reference(dim: usize, coords: [u64; 3], bits: u32) -> u64 {
    match dim {
        2 => hilbert_index_2d(coords[0], coords[1], bits),
        _ => hilbert_index_3d(coords[0], coords[1], coords[2], bits),
    }
}

/// Fingerprint of the node at `path` (child-bit choices from the root):
/// the rank of every descendant `PROBE` levels down, in child-bit order.
fn fingerprint(dim: usize, path: &[u8]) -> Vec<u16> {
    let children = 1usize << dim;
    let depth = path.len() as u32 + PROBE;
    // Anchor of the node at the probe depth.
    let mut base = [0u64; 3];
    for &step in path {
        for (a, b) in base.iter_mut().enumerate().take(dim) {
            *b = (*b << 1) | u64::from((step >> a) & 1);
        }
    }
    // Enumerate descendants (PROBE levels of child bits, most significant
    // level first) and rank them by reference index.
    let n = children.pow(PROBE);
    let mut idx: Vec<(u64, usize)> = (0..n)
        .map(|d| {
            let mut c = base;
            for lvl in (0..PROBE).rev() {
                let step = (d / children.pow(lvl)) % children;
                for (a, b) in c.iter_mut().enumerate().take(dim) {
                    *b = (*b << 1) | ((step >> a) & 1) as u64;
                }
            }
            (reference(dim, c, depth), d)
        })
        .collect();
    idx.sort_unstable();
    // n = 8^PROBE = 512 in 3-D, so ranks need u16.
    let mut rank = vec![0u16; n];
    for (r, &(_, d)) in idx.iter().enumerate() {
        rank[d] = r as u16;
    }
    rank
}

/// Discovers the state machine by BFS from the root.
fn build_tables(dim: usize) -> Tables {
    let children = 1usize << dim;
    let mut sig_to_id: HashMap<Vec<u16>, u8> = HashMap::new();
    let mut states: Vec<State> = Vec::new();
    // Queue of (state id, representative path).
    let mut queue: Vec<(u8, Vec<u8>)> = Vec::new();

    let root_sig = fingerprint(dim, &[]);
    sig_to_id.insert(root_sig, 0);
    states.push(State {
        rank: vec![0; children],
        next: vec![0; children],
    });
    queue.push((0, Vec::new()));

    let mut qi = 0;
    while qi < queue.len() {
        let (sid, path) = queue[qi].clone();
        qi += 1;
        // Rank of each child: order of the children one level down.
        let depth = path.len() as u32 + 1;
        let mut child_idx: Vec<(u64, usize)> = (0..children)
            .map(|ch| {
                let mut c = [0u64; 3];
                for &step in &path {
                    for (a, b) in c.iter_mut().enumerate().take(dim) {
                        *b = (*b << 1) | u64::from((step >> a) & 1);
                    }
                }
                for (a, b) in c.iter_mut().enumerate().take(dim) {
                    *b = (*b << 1) | ((ch >> a) & 1) as u64;
                }
                (reference(dim, c, depth), ch)
            })
            .collect();
        child_idx.sort_unstable();
        let mut rank = vec![0u8; children];
        for (r, &(_, ch)) in child_idx.iter().enumerate() {
            rank[ch] = r as u8;
        }
        // Identify (or create) each child's state.
        let mut next = vec![0u8; children];
        #[allow(clippy::needless_range_loop)] // ch is also the path step
        for ch in 0..children {
            let mut child_path = path.clone();
            child_path.push(ch as u8);
            let sig = fingerprint(dim, &child_path);
            let id = match sig_to_id.get(&sig) {
                Some(&id) => id,
                None => {
                    let id = states.len() as u8;
                    sig_to_id.insert(sig, id);
                    states.push(State {
                        rank: vec![0; children],
                        next: vec![0; children],
                    });
                    queue.push((id, child_path));
                    id
                }
            };
            next[ch] = id;
        }
        states[sid as usize] = State { rank, next };
    }

    let rows: Vec<Row> = states
        .iter()
        .map(|s| {
            let mut row = Row {
                rank: [0; 8],
                next: [0; 8],
                inv_rank: [0; 8],
            };
            for ch in 0..children {
                row.rank[ch] = s.rank[ch];
                row.next[ch] = s.next[ch];
                row.inv_rank[s.rank[ch] as usize] = ch as u8;
            }
            row
        })
        .collect();

    // tail(s, k) = rank[s][0] · 2^(d(k-1)) + tail(next[s][0], k - 1).
    let max_k = 64 / dim;
    let mut zero_tail = vec![0u64; rows.len() * TAIL];
    for k in 1..=max_k {
        for (s, row) in rows.iter().enumerate() {
            let rest = zero_tail[row.next[0] as usize * TAIL + k - 1];
            zero_tail[s * TAIL + k] = (u64::from(row.rank[0]) << (dim * (k - 1))) | rest;
        }
    }
    let mut pair = vec![0u16; rows.len() << (2 * dim)];
    for (s, row) in rows.iter().enumerate() {
        for hi in 0..children {
            let mid = &rows[row.next[hi] as usize];
            for lo in 0..children {
                let digits = u16::from(row.rank[hi]) << dim | u16::from(mid.rank[lo]);
                pair[s << (2 * dim) | hi << dim | lo] = digits | u16::from(mid.next[lo]) << 6;
            }
        }
    }
    Tables {
        rows,
        pair,
        zero_tail,
    }
}

impl Tables {
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

    /// The `dim · k` low index bits that `k` zero bits append to a walk in
    /// `state` (`k ≤ 32` in 2-D, `≤ 21` in 3-D).
    #[inline]
    pub(crate) fn zero_tail(&self, state: u8, k: u32) -> u64 {
        self.zero_tail[state as usize * TAIL + k as usize]
    }
}

pub(crate) fn tables(dim: usize) -> &'static Tables {
    static T2: OnceLock<Tables> = OnceLock::new();
    static T3: OnceLock<Tables> = OnceLock::new();
    match dim {
        2 => T2.get_or_init(|| build_tables(2)),
        _ => T3.get_or_init(|| build_tables(3)),
    }
}

/// Table-driven Hilbert index of `(x, y)` — agrees with
/// [`hilbert_index_2d`] by construction.
pub fn hilbert_index_2d_fast(x: u64, y: u64, bits: u32) -> u64 {
    tables(2).walk(2, (0, 0), morton_index_2d(x, y), 0, bits).1
}

/// Inverse of [`hilbert_index_2d_fast`].
pub fn hilbert_point_2d_fast(index: u64, bits: u32) -> (u64, u64) {
    let rows = &tables(2).rows[..];
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
/// [`hilbert_index_3d`] by construction.
pub fn hilbert_index_3d_fast(x: u64, y: u64, z: u64, bits: u32) -> u64 {
    tables(3)
        .walk(3, (0, 0), morton_index_3d(x, y, z), 0, bits)
        .1
}

/// Inverse of [`hilbert_index_3d_fast`].
pub fn hilbert_point_3d_fast(index: u64, bits: u32) -> (u64, u64, u64) {
    let rows = &tables(3).rows[..];
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
    use crate::hilbert::{hilbert_point_2d, hilbert_point_3d};

    #[test]
    fn state_machine_is_small_and_closed() {
        assert!(
            tables(2).rows.len() <= 8,
            "2-D states: {}",
            tables(2).rows.len()
        );
        assert!(
            tables(3).rows.len() <= 48,
            "3-D states: {}",
            tables(3).rows.len()
        );
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
