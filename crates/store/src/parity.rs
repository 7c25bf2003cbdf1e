//! Chunk-group parity: the erasure-protection layer of the v3/v4 stores.
//!
//! The writer groups each field's data chunks into fixed-width **parity
//! groups** (default [`DEFAULT_PARITY_GROUP_WIDTH`] data chunks per group)
//! and stores, per group, one parity chunk: the byte-wise XOR of the
//! group's compressed payloads, each zero-padded to the length of the
//! longest member. Because XOR is its own inverse, any *single* missing
//! member of a group can be rebuilt from the surviving members plus the
//! parity chunk — and the rebuilt bytes are re-verified against the
//! member's CRC from the (index-CRC-protected) footer, so a reconstruction
//! can never silently hand back wrong data.
//!
//! The v4 format generalizes the group to a Reed–Solomon code over
//! GF(2^8) (see [`crate::gf256`]): `k` data chunks are protected by `m`
//! parity shards, and **any** ≤ m CRC-failing members of a group are
//! recoverable — shard `j` of group `g` sits at footer index `g·m + j`,
//! so v3 is exactly the `m = 1` degenerate layout.
//!
//! The parity section lives *after* the data payload region and is indexed
//! in the footer alongside the per-chunk offsets/CRCs ([`ParityMeta`]).
//! Everything here is pure byte math over untrusted input: helpers return
//! `Option`/`Result`, never panic.

use crate::format::{put_u32, put_u64, ChunkKind, Cursor, FieldEntry, Spans, StoreError};
use crate::gf256;
use crate::source::ByteSource;
use std::borrow::Cow;

/// Erasure-protection scheme of a store: what the writer emits and what a
/// parsed header reports ([`crate::StoreHeader::scheme`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Parity {
    /// No parity section (v2 layout).
    None,
    /// One XOR parity chunk per group of `width` data chunks (v3 layout);
    /// tolerates a single erasure per group.
    Xor {
        /// Data chunks per parity group (≥ 1).
        width: u32,
    },
    /// `parity` GF(2^8) Reed–Solomon shards per group of `data` chunks
    /// (v4 layout); tolerates up to `parity` erasures per group.
    Rs {
        /// Data chunks per parity group (≥ 1).
        data: u32,
        /// Parity shards per group (≥ 1, `data + parity ≤ 256`).
        parity: u32,
    },
}

impl Default for Parity {
    fn default() -> Self {
        Parity::Xor {
            width: DEFAULT_PARITY_GROUP_WIDTH,
        }
    }
}

impl Parity {
    /// Data chunks per group (`0` when parity is disabled).
    pub fn width(&self) -> u32 {
        match *self {
            Parity::None => 0,
            Parity::Xor { width } => width,
            Parity::Rs { data, .. } => data,
        }
    }

    /// Parity shards per group — the per-group erasure budget.
    pub fn shards(&self) -> u32 {
        match *self {
            Parity::None => 0,
            Parity::Xor { .. } => 1,
            Parity::Rs { parity, .. } => parity,
        }
    }

    /// Store format version this scheme serializes as.
    pub fn store_version(&self) -> u16 {
        match self {
            Parity::None => 2,
            Parity::Xor { .. } => 3,
            Parity::Rs { .. } => 4,
        }
    }

    /// The erasure budget: whether a group with `missing` damaged data
    /// chunks and `intact` CRC-clean parity shards can be rebuilt. Each
    /// erasure needs one intact shard, and no group heals more than the
    /// scheme's [`Parity::shards`].
    pub(crate) fn heals(&self, missing: usize, intact: usize) -> bool {
        *self != Parity::None && missing <= intact.min(self.shards() as usize)
    }

    /// Rebuilds the missing members of parity group `group` of `entry` —
    /// the one recovery every self-healing path shares. `members` holds
    /// the group's CRC-clean payloads in chunk order (`None` = missing);
    /// the group's parity shards are fetched through `spans`, and only
    /// when the group fits the budget of all its shards. Returns
    /// `(chunk index, bytes)` for exactly the rebuilds that match their
    /// footer CRC: recovery can repair, never fabricate.
    pub(crate) fn recover<S: ByteSource + ?Sized>(
        &self,
        spans: &Spans<'_, S>,
        entry: &FieldEntry,
        group: usize,
        members: &[Option<&[u8]>],
    ) -> Vec<(usize, Vec<u8>)> {
        let m = self.shards() as usize;
        let missing = members.iter().filter(|p| p.is_none()).count();
        if missing == 0 || !self.heals(missing, m) {
            return Vec::new();
        }
        let first = group * self.width() as usize;
        let shards: Vec<Option<Cow<'_, [u8]>>> = (group * m..(group + 1) * m)
            .map(|slot| spans.get(entry, ChunkKind::Parity(slot)).ok())
            .collect();
        let rebuilt = match self {
            Parity::None => None,
            Parity::Xor { .. } => members
                .iter()
                .position(Option::is_none)
                .zip(shards[0].as_deref())
                .and_then(|(lost, parity)| {
                    let len = entry.chunks[first + lost].len as usize;
                    let bytes = reconstruct(parity, members.iter().flatten().copied(), len)?;
                    Some(vec![(lost, bytes)])
                }),
            Parity::Rs { .. } => {
                let lens: Vec<usize> = (first..first + members.len())
                    .map(|c| entry.chunks[c].len as usize)
                    .collect();
                let shards: Vec<Option<&[u8]>> = shards.iter().map(|s| s.as_deref()).collect();
                gf256::rs_recover(members, &shards, &lens)
            }
        };
        rebuilt
            .into_iter()
            .flatten()
            .map(|(local, bytes)| (first + local, bytes))
            .filter(|(i, bytes)| spans.verify(entry, ChunkKind::Data(*i), bytes).is_ok())
            .collect()
    }

    /// Rejects geometries the format cannot represent.
    pub fn validate(&self) -> Result<(), StoreError> {
        match *self {
            Parity::None => Ok(()),
            Parity::Xor { width } => {
                if width == 0 {
                    Err(StoreError::InvalidOptions(
                        "xor parity needs a nonzero group width (use Parity::None)",
                    ))
                } else {
                    Ok(())
                }
            }
            Parity::Rs { data, parity } => {
                if data == 0 || parity == 0 {
                    Err(StoreError::InvalidOptions(
                        "rs parity needs nonzero data and parity shard counts",
                    ))
                } else if data as usize + parity as usize > gf256::MAX_SHARDS {
                    Err(StoreError::InvalidOptions(
                        "rs parity needs data + parity <= 256 shards per group",
                    ))
                } else {
                    Ok(())
                }
            }
        }
    }
}

/// Default data chunks per parity group (8 data + 1 parity ⇒ ~12.5% space
/// overhead on the payload).
pub const DEFAULT_PARITY_GROUP_WIDTH: u32 = 8;

/// Serialized size of one [`ParityMeta`].
pub const PARITY_META_BYTES: usize = 20;

/// Fixed-width footer metadata for one parity chunk (one per group per
/// field). Offsets are relative to the payload span, like [`crate::ChunkMeta`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParityMeta {
    /// Byte offset of the parity payload, relative to the payload span.
    pub offset: u64,
    /// Parity payload length — the maximum compressed length among the
    /// group's data chunks.
    pub len: u64,
    /// CRC-32 of the parity payload.
    pub crc: u32,
}

impl ParityMeta {
    pub(crate) fn write(&self, out: &mut Vec<u8>) {
        let before = out.len();
        put_u64(out, self.offset);
        put_u64(out, self.len);
        put_u32(out, self.crc);
        debug_assert_eq!(out.len() - before, PARITY_META_BYTES);
    }

    pub(crate) fn read(c: &mut Cursor<'_>) -> Result<Self, StoreError> {
        Ok(Self {
            offset: c.u64()?,
            len: c.u64()?,
            crc: c.u32()?,
        })
    }
}

/// Number of parity groups covering `n_chunks` data chunks at `width`
/// chunks per group (`0` when parity is disabled).
pub fn group_count(n_chunks: usize, width: usize) -> usize {
    if width == 0 {
        0
    } else {
        n_chunks.div_ceil(width)
    }
}

/// The parity group a data chunk belongs to.
pub fn group_of(chunk: usize, width: usize) -> usize {
    debug_assert!(width > 0);
    chunk / width.max(1)
}

/// The data-chunk indices of one parity group (clipped to `n_chunks` for
/// the final, possibly short, group).
pub fn group_members(group: usize, width: usize, n_chunks: usize) -> std::ops::Range<usize> {
    let lo = group.saturating_mul(width).min(n_chunks);
    let hi = lo.saturating_add(width).min(n_chunks);
    lo..hi
}

/// XORs `src` into `acc`, growing `acc` with zero-padding when `src` is
/// longer (zero-padding is the identity of XOR, so order never matters).
pub fn xor_into(acc: &mut Vec<u8>, src: &[u8]) {
    if src.len() > acc.len() {
        acc.resize(src.len(), 0);
    }
    for (a, &s) in acc.iter_mut().zip(src) {
        *a ^= s;
    }
}

/// Builds one group's parity payload in one batch: the XOR of every member
/// payload, zero-padded to the longest. Stores accumulate parity
/// incrementally ([`crate::layout::Layout`]); this is the test oracle.
#[cfg(test)]
pub fn build_group_parity<'a>(payloads: impl IntoIterator<Item = &'a [u8]>) -> Vec<u8> {
    let mut acc = Vec::new();
    for p in payloads {
        xor_into(&mut acc, p);
    }
    acc
}

/// Reconstructs one missing member of a parity group from the parity
/// payload and every *other* member, truncated to `target_len`. Returns
/// `None` when the recorded length exceeds what the parity chunk can carry
/// (an inconsistent footer — reconstruction would be meaningless). The
/// caller must still verify the result against the member's stored CRC.
fn reconstruct<'a>(
    parity: &[u8],
    siblings: impl IntoIterator<Item = &'a [u8]>,
    target_len: usize,
) -> Option<Vec<u8>> {
    if target_len > parity.len() {
        return None;
    }
    let mut acc = parity.to_vec();
    for s in siblings {
        if s.len() > acc.len() {
            // A sibling longer than the parity chunk contradicts the
            // parity invariant (parity len = max member len).
            return None;
        }
        xor_into(&mut acc, s);
    }
    acc.truncate(target_len);
    Some(acc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_round_trips() {
        let m = ParityMeta {
            offset: 1234,
            len: 56,
            crc: 0xfeed_f00d,
        };
        let mut bytes = Vec::new();
        m.write(&mut bytes);
        assert_eq!(bytes.len(), PARITY_META_BYTES);
        let parsed = ParityMeta::read(&mut Cursor::new(&bytes)).unwrap();
        assert_eq!(parsed, m);
    }

    #[test]
    fn group_math_covers_all_chunks_exactly_once() {
        for (n, w) in [(0usize, 8usize), (1, 8), (8, 8), (9, 8), (17, 4), (5, 1)] {
            let groups = group_count(n, w);
            let mut covered = 0;
            for g in 0..groups {
                let members = group_members(g, w, n);
                assert!(!members.is_empty());
                for c in members.clone() {
                    assert_eq!(group_of(c, w), g);
                }
                covered += members.len();
            }
            assert_eq!(covered, n, "n = {n}, width = {w}");
        }
        assert_eq!(group_count(10, 0), 0);
    }

    #[test]
    fn xor_parity_reconstructs_any_single_member() {
        let members: Vec<Vec<u8>> = vec![
            vec![1, 2, 3, 4, 5],
            vec![9, 8],
            vec![7, 7, 7, 7, 7, 7, 7],
            vec![],
        ];
        let parity = build_group_parity(members.iter().map(Vec::as_slice));
        assert_eq!(parity.len(), 7);
        for missing in 0..members.len() {
            let siblings = members
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != missing)
                .map(|(_, m)| m.as_slice());
            let rebuilt = reconstruct(&parity, siblings, members[missing].len()).unwrap();
            assert_eq!(rebuilt, members[missing], "member {missing}");
        }
    }

    #[test]
    fn reconstruct_rejects_inconsistent_lengths() {
        let parity = vec![0u8; 4];
        assert!(reconstruct(&parity, [], 5).is_none());
        let too_long = [1u8; 9];
        assert!(reconstruct(&parity, [&too_long[..]], 2).is_none());
    }
}
