//! Chunk framing: fixed-width per-chunk metadata and the planner that
//! derives each chunk's geometric coverage from the restore recipe.
//!
//! Chunks split the *reordered* stream at fixed value-count boundaries
//! (`chunk_target_bytes / 8` values), so the chunk count — and with it the
//! footer size — depends only on the tree and the target, never on the
//! ordering policy. Each chunk records the curve-index interval and anchor
//! bounding box its cells cover; a reader intersects those with a query to
//! decide which chunks to decode.

use crate::format::{put_u32, put_u64, Cursor, StoreError};
use zmesh::{GroupingMode, OrderingPolicy, RestoreRecipe, StreamKeys};
use zmesh_amr::{AmrTree, CellCoord};

/// Serialized size of one [`ChunkMeta`].
pub const CHUNK_META_BYTES: usize = 64;

/// Default uncompressed bytes per chunk (64 KiB = 8192 f64s): small
/// enough that point queries touch little data, large enough that the
/// codec's per-stream overhead stays negligible.
pub const DEFAULT_CHUNK_TARGET_BYTES: u32 = 64 * 1024;

/// Fixed-width metadata for one chunk of one field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkMeta {
    /// Smallest curve index covered by any cell in the chunk (each cell
    /// covers its full dyadic block on the finest grid). `0` under
    /// level-order, where no curve backs the stream.
    pub curve_lo: u64,
    /// Largest covered curve index (inclusive). `u64::MAX` under
    /// level-order.
    pub curve_hi: u64,
    /// Bit `l` set ⇔ a level-`l` cell contributes to the chunk.
    pub level_mask: u32,
    /// Componentwise minimum of covered finest-grid coordinates.
    pub bbox_lo: [u32; 3],
    /// Componentwise maximum of covered finest-grid coordinates (inclusive).
    pub bbox_hi: [u32; 3],
    /// Byte offset of the chunk's payload, relative to the payload span.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// CRC-32 of the payload.
    pub crc: u32,
}

impl ChunkMeta {
    pub(crate) fn write(&self, out: &mut Vec<u8>) {
        let before = out.len();
        put_u64(out, self.curve_lo);
        put_u64(out, self.curve_hi);
        put_u32(out, self.level_mask);
        for v in self.bbox_lo.iter().chain(&self.bbox_hi) {
            put_u32(out, *v);
        }
        put_u64(out, self.offset);
        put_u64(out, self.len);
        put_u32(out, self.crc);
        debug_assert_eq!(out.len() - before, CHUNK_META_BYTES);
    }

    pub(crate) fn read(c: &mut Cursor<'_>) -> Result<Self, StoreError> {
        let curve_lo = c.u64()?;
        let curve_hi = c.u64()?;
        let level_mask = c.u32()?;
        let mut bbox = [0u32; 6];
        for v in &mut bbox {
            *v = c.u32()?;
        }
        let meta = Self {
            curve_lo,
            curve_hi,
            level_mask,
            bbox_lo: [bbox[0], bbox[1], bbox[2]],
            bbox_hi: [bbox[3], bbox[4], bbox[5]],
            offset: c.u64()?,
            len: c.u64()?,
            crc: c.u32()?,
        };
        if meta.curve_lo > meta.curve_hi {
            return Err(StoreError::Corrupt("inverted chunk curve range"));
        }
        Ok(meta)
    }

    /// Whether the chunk's curve interval intersects any of `ranges`
    /// (half-open, sorted or not).
    pub fn overlaps_ranges(&self, ranges: &[std::ops::Range<u64>]) -> bool {
        ranges
            .iter()
            .any(|r| r.start <= self.curve_hi && self.curve_lo < r.end)
    }

    /// Whether the chunk's bounding box intersects the inclusive box
    /// `lo..=hi` on the finest grid.
    pub fn overlaps_bbox(&self, lo: [u32; 3], hi: [u32; 3]) -> bool {
        (0..3).all(|a| self.bbox_lo[a] <= hi[a] && lo[a] <= self.bbox_hi[a])
    }

    #[cfg(test)]
    pub(crate) fn test_sample(offset: u64, len: u64) -> Self {
        Self {
            curve_lo: 0,
            curve_hi: 63,
            level_mask: 0b11,
            bbox_lo: [0; 3],
            bbox_hi: [7, 7, 0],
            offset,
            len,
            crc: 0xdead_beef,
        }
    }
}

/// The chunk framing of one store: value-count framing plus the geometric
/// coverage of every chunk (shared by all fields of the store; only the
/// byte `offset`/`len`/`crc` triple differs per field).
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkPlan {
    /// Values per chunk (last chunk may cover fewer).
    pub chunk_values: usize,
    /// Stream length the plan frames.
    pub stream_len: usize,
    /// Geometric coverage per chunk, byte fields zeroed.
    pub metas: Vec<ChunkMeta>,
}

impl ChunkPlan {
    /// The stream positions chunk `i` covers.
    pub fn stream_range(&self, i: usize) -> std::ops::Range<usize> {
        let lo = i * self.chunk_values;
        lo..((i + 1) * self.chunk_values).min(self.stream_len)
    }
}

/// Frames `recipe`'s stream into `chunk_values`-sized chunks and computes
/// each chunk's geometric coverage over `tree`. `recipe` must be the
/// recipe of `(tree, policy, grouping)`: the stream points' levels and
/// curve keys come from walking the tree again
/// ([`RestoreRecipe::build_keyed`]).
pub fn plan_chunks(
    tree: &AmrTree,
    recipe: &RestoreRecipe,
    policy: OrderingPolicy,
    grouping: GroupingMode,
    chunk_values: usize,
) -> ChunkPlan {
    let (_, keys) = RestoreRecipe::build_keyed(tree, policy, grouping);
    plan_keyed(tree, recipe.permutation(), &keys, grouping, chunk_values)
}

/// [`plan_chunks`] from what the walk knows of each stream point, in
/// stream order: chunk `i` covers stream positions `perm[stream_range(i)]`,
/// and a point of level `l` keyed `k` covers the curve interval of its
/// cell's dyadic block. Only the packed coordinates are gathered through
/// `perm`.
pub(crate) fn plan_keyed(
    tree: &AmrTree,
    perm: &[u32],
    keys: &StreamKeys,
    grouping: GroupingMode,
    chunk_values: usize,
) -> ChunkPlan {
    use rayon::prelude::*;

    assert!(chunk_values > 0, "chunk size must be positive");
    let n = perm.len();
    let rank = tree.dim().rank();
    let max_level = tree.max_level();
    let coords = tree.packed_coords();
    let leaf_indices = tree.leaf_indices();
    let coord_of = |storage: u32| match grouping {
        GroupingMode::LeafOnly => coords[leaf_indices[storage as usize] as usize],
        GroupingMode::Chained => coords[storage as usize],
    };
    let curve = keys.curve.as_deref();

    let metas: Vec<ChunkMeta> = perm
        .par_chunks(chunk_values)
        .enumerate()
        .map(|(i, chunk)| {
            let mut meta = ChunkMeta {
                curve_lo: u64::MAX,
                curve_hi: 0,
                level_mask: 0,
                bbox_lo: [u32::MAX; 3],
                bbox_hi: [0; 3],
                offset: 0,
                len: 0,
                crc: 0,
            };
            let first = i * chunk_values;
            for (pos, &storage) in (first..).zip(chunk) {
                let level = u32::from(keys.levels[pos]);
                let shift = max_level - level;
                let anchor = CellCoord::unpack(coord_of(storage)).anchor(shift);
                let side = 1u32 << shift;
                let a = [anchor.x, anchor.y, anchor.z];
                for (axis, &lo) in a.iter().enumerate().take(rank) {
                    meta.bbox_lo[axis] = meta.bbox_lo[axis].min(lo);
                    meta.bbox_hi[axis] = meta.bbox_hi[axis].max(lo + side - 1);
                }
                meta.level_mask |= 1 << level;
                if let Some(keys) = curve {
                    // A cell covers its whole (aligned, contiguous) dyadic
                    // block of 2^(d·shift) finest cells.
                    let idx = keys[pos];
                    let block = 1u64 << (rank as u32 * shift);
                    meta.curve_lo = meta.curve_lo.min(idx & !(block - 1));
                    meta.curve_hi = meta.curve_hi.max(idx | (block - 1));
                }
            }
            if curve.is_none() {
                meta.curve_lo = 0;
                meta.curve_hi = u64::MAX;
            }
            for axis in rank..3 {
                meta.bbox_lo[axis] = 0;
                meta.bbox_hi[axis] = 0;
            }
            meta
        })
        .collect();

    ChunkPlan {
        chunk_values,
        stream_len: n,
        metas,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use zmesh_amr::{datasets, Dim, StorageMode, TreeBuilder};
    use zmesh_sfc::Curve;

    /// The reference planner: keys every cell's anchor with the per-bit
    /// `Curve::index_2d`/`index_3d`, independently of the recipe build.
    fn plan_reference(
        tree: &AmrTree,
        recipe: &RestoreRecipe,
        policy: OrderingPolicy,
        grouping: GroupingMode,
        chunk_values: usize,
    ) -> Vec<ChunkMeta> {
        let bits = tree.finest_bits();
        let dim = tree.dim();
        let curve = policy.curve();
        let leaf_indices = tree.leaf_indices();
        let cell_of = |storage: u32| match grouping {
            GroupingMode::LeafOnly => tree.cell(leaf_indices[storage as usize] as usize),
            GroupingMode::Chained => tree.cell(storage as usize),
        };
        recipe
            .permutation()
            .chunks(chunk_values)
            .map(|chunk| {
                let mut meta = ChunkMeta {
                    curve_lo: u64::MAX,
                    curve_hi: 0,
                    level_mask: 0,
                    bbox_lo: [u32::MAX; 3],
                    bbox_hi: [0; 3],
                    offset: 0,
                    len: 0,
                    crc: 0,
                };
                for &storage in chunk {
                    let cell = cell_of(storage);
                    let shift = tree.max_level() - cell.level;
                    let anchor = tree.anchor(&cell);
                    let side = 1u32 << shift;
                    let a = [anchor.x, anchor.y, anchor.z];
                    for (axis, &lo) in a.iter().enumerate().take(dim.rank()) {
                        meta.bbox_lo[axis] = meta.bbox_lo[axis].min(lo);
                        meta.bbox_hi[axis] = meta.bbox_hi[axis].max(lo + side - 1);
                    }
                    meta.level_mask |= 1 << cell.level;
                    if let Some(curve) = curve {
                        let (x, y, z) = (anchor.x.into(), anchor.y.into(), anchor.z.into());
                        let idx = match dim {
                            Dim::D2 => curve.index_2d(x, y, bits),
                            Dim::D3 => curve.index_3d(x, y, z, bits),
                        };
                        let block = 1u64 << (dim.rank() as u32 * shift);
                        meta.curve_lo = meta.curve_lo.min(idx & !(block - 1));
                        meta.curve_hi = meta.curve_hi.max(idx | (block - 1));
                    }
                }
                if curve.is_none() {
                    meta.curve_lo = 0;
                    meta.curve_hi = u64::MAX;
                }
                for axis in dim.rank()..3 {
                    meta.bbox_lo[axis] = 0;
                    meta.bbox_hi[axis] = 0;
                }
                meta
            })
            .collect()
    }

    #[test]
    fn keyed_plans_match_the_per_cell_reference_on_every_preset() {
        for ds in datasets::all(StorageMode::AllCells, datasets::Scale::Tiny) {
            for grouping in [GroupingMode::LeafOnly, GroupingMode::Chained] {
                for policy in OrderingPolicy::ALL {
                    let (recipe, keys) = RestoreRecipe::build_keyed(&ds.tree, policy, grouping);
                    for chunk_values in [7, 256] {
                        let want =
                            plan_reference(&ds.tree, &recipe, policy, grouping, chunk_values);
                        let perm = recipe.permutation();
                        let from_build = plan_keyed(&ds.tree, perm, &keys, grouping, chunk_values);
                        let recomputed =
                            plan_chunks(&ds.tree, &recipe, policy, grouping, chunk_values);
                        let case = format!("{} {grouping:?} {policy:?} {chunk_values}", ds.name);
                        assert_eq!(from_build.metas, want, "keys from the build: {case}");
                        assert_eq!(recomputed.metas, want, "recomputed keys: {case}");
                        assert_eq!(recomputed, from_build, "{case}");
                    }
                }
            }
        }
    }

    fn tree() -> Arc<AmrTree> {
        Arc::new(
            TreeBuilder::new(Dim::D2, [4, 4, 1], 2)
                .refine_where(|_, c, _| c[0] < 0.5)
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn meta_round_trips_through_bytes() {
        let meta = ChunkMeta::test_sample(123, 456);
        let mut bytes = Vec::new();
        meta.write(&mut bytes);
        assert_eq!(bytes.len(), CHUNK_META_BYTES);
        let parsed = ChunkMeta::read(&mut Cursor::new(&bytes)).unwrap();
        assert_eq!(parsed, meta);
    }

    #[test]
    fn plan_covers_every_stream_position_once() {
        let tree = tree();
        for grouping in [GroupingMode::LeafOnly, GroupingMode::Chained] {
            let recipe = RestoreRecipe::build(&tree, OrderingPolicy::Hilbert, grouping);
            let plan = plan_chunks(&tree, &recipe, OrderingPolicy::Hilbert, grouping, 10);
            assert_eq!(plan.metas.len(), recipe.len().div_ceil(10));
            let covered: usize = (0..plan.metas.len())
                .map(|i| plan.stream_range(i).len())
                .sum();
            assert_eq!(covered, recipe.len());
        }
    }

    #[test]
    fn chunk_curve_ranges_are_ordered_for_dyadic_policies() {
        // Stream is curve-sorted, so consecutive chunks cover
        // non-decreasing curve intervals.
        let tree = tree();
        let recipe = RestoreRecipe::build(&tree, OrderingPolicy::ZOrder, GroupingMode::LeafOnly);
        let plan = plan_chunks(
            &tree,
            &recipe,
            OrderingPolicy::ZOrder,
            GroupingMode::LeafOnly,
            7,
        );
        for w in plan.metas.windows(2) {
            assert!(w[0].curve_lo <= w[1].curve_lo);
        }
        for meta in &plan.metas {
            assert!(meta.curve_lo <= meta.curve_hi);
            assert!(meta.level_mask != 0);
        }
    }

    #[test]
    fn level_order_chunks_cover_full_curve_interval() {
        let tree = tree();
        let recipe = RestoreRecipe::build(&tree, OrderingPolicy::LevelOrder, GroupingMode::Chained);
        let plan = plan_chunks(
            &tree,
            &recipe,
            OrderingPolicy::LevelOrder,
            GroupingMode::Chained,
            16,
        );
        for meta in &plan.metas {
            assert_eq!((meta.curve_lo, meta.curve_hi), (0, u64::MAX));
        }
    }

    #[test]
    fn bboxes_stay_inside_the_finest_grid() {
        let tree = tree();
        let side = tree.level_dims(tree.max_level())[0] as u32;
        let recipe = RestoreRecipe::build(&tree, OrderingPolicy::Hilbert, GroupingMode::Chained);
        let plan = plan_chunks(
            &tree,
            &recipe,
            OrderingPolicy::Hilbert,
            GroupingMode::Chained,
            8,
        );
        for meta in &plan.metas {
            for a in 0..2 {
                assert!(meta.bbox_lo[a] <= meta.bbox_hi[a]);
                assert!(meta.bbox_hi[a] < side);
            }
            assert_eq!((meta.bbox_lo[2], meta.bbox_hi[2]), (0, 0));
        }
    }
}
