//! The refinement hierarchy: structure only, no field data.
//!
//! An [`AmrTree`] is defined by a level-0 grid plus, for every level, the
//! sorted set of cells that are *refined* (replaced by `2^d` children one
//! level finer). A cell *exists* at level ℓ if ℓ = 0 or its parent is
//! refined; an existing, unrefined cell is a *leaf*. Leaves tile the domain.
//!
//! ## Storage order is patch-major
//!
//! Real AMR containers do not store a level as one row-major sweep: they
//! store it *patch by patch* (FLASH blocks are 8³/16³ cells, AMReX grids are
//! rectangular boxes), row-major only inside each patch — and the patches of
//! a level appear in the file in the order the *ranks* that own them wrote
//! them, which round-robin load balancing scatters across the domain. This
//! is the layout whose geometric discontinuities zMesh exploits, so the
//! storage order here mirrors it: within a level, cells are grouped into
//! aligned `patch_size`-sided tiles; tiles are assigned round-robin to
//! `ranks` writers and emitted rank-major ((z,y,x) tile order within a
//! rank), cells (z,y,x) within a tile. Both `patch_size` and `ranks` are
//! part of the structure metadata (dataset properties, like any container's
//! block size and writer count).
//!
//! The tree serializes to exactly the metadata any AMR container carries
//! (grid dims + block size + per-level refinement maps); the zMesh restore
//! recipe is a pure function of these bytes — the "no storage overhead"
//! claim of the paper is demonstrated against this serialization.

use crate::error::AmrError;
use crate::geometry::{CellCoord, Dim, COORD_BITS};

/// One existing cell of the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Refinement level (0 = coarsest).
    pub level: u32,
    /// Integer coordinates within the level grid.
    pub coord: CellCoord,
    /// Whether the cell is a leaf (not refined).
    pub is_leaf: bool,
}

/// Default patch (block) side length: FLASH-style 8-cell blocks.
pub const DEFAULT_PATCH_SHIFT: u32 = 3;

/// Default number of writer ranks the storage layout emulates.
pub const DEFAULT_RANKS: u32 = 8;

/// A complete refinement hierarchy.
#[derive(Debug, Clone)]
pub struct AmrTree {
    dim: Dim,
    base: [usize; 3],
    max_level: u32,
    /// log2 of the patch side length (storage-layout block size).
    patch_shift: u32,
    /// Number of writer ranks the storage layout emulates.
    ranks: u32,
    /// `refined[l]` = sorted packed coords of refined cells at level `l`.
    refined: Vec<Vec<u64>>,
    /// Every existing cell, in storage order (level-major, patch-major
    /// within a level).
    cells: Vec<Cell>,
    /// Indices into `cells` of the leaves, in storage order.
    leaf_indices: Vec<u32>,
    /// First cell index of each level (length `max_level + 2`, sentinel last).
    level_starts: Vec<usize>,
}

impl AmrTree {
    /// Builds a tree from per-level refinement sets with the default patch
    /// size (8), validating invariants: refined cells must exist,
    /// coordinates must be in range, the deepest level must be unrefined,
    /// and sets must be sorted and duplicate-free.
    pub fn from_refined(
        dim: Dim,
        base: [usize; 3],
        refined: Vec<Vec<u64>>,
    ) -> Result<Self, AmrError> {
        Self::from_refined_with_layout(dim, base, refined, DEFAULT_PATCH_SHIFT, DEFAULT_RANKS)
    }

    /// [`AmrTree::from_refined`] with an explicit patch side of
    /// `2^patch_shift` cells (0 = 1-cell patches = pure row-major) and a
    /// single writer (no rank interleaving).
    pub fn from_refined_with_patch(
        dim: Dim,
        base: [usize; 3],
        refined: Vec<Vec<u64>>,
        patch_shift: u32,
    ) -> Result<Self, AmrError> {
        Self::from_refined_with_layout(dim, base, refined, patch_shift, 1)
    }

    /// [`AmrTree::from_refined`] with full layout control: patch side
    /// `2^patch_shift` and `ranks` round-robin writers.
    pub fn from_refined_with_layout(
        dim: Dim,
        base: [usize; 3],
        refined: Vec<Vec<u64>>,
        patch_shift: u32,
        ranks: u32,
    ) -> Result<Self, AmrError> {
        let max_level = refined.len() as u32;
        if patch_shift > COORD_BITS {
            return Err(AmrError::InvalidStructure("patch size too large"));
        }
        if ranks == 0 {
            return Err(AmrError::InvalidStructure("ranks must be positive"));
        }
        if base[0] == 0 || base[1] == 0 || base[2] == 0 {
            return Err(AmrError::InvalidStructure("zero-sized base grid"));
        }
        if dim == Dim::D2 && base[2] != 1 {
            return Err(AmrError::InvalidStructure("2-D base grid must have nz = 1"));
        }
        // Compare against the level-0 side a finest grid of 2^21 allows, so
        // a huge base cannot wrap the shift.
        let max_base = (1usize << COORD_BITS).checked_shr(max_level).unwrap_or(0);
        if base.iter().any(|&b| b > max_base) {
            return Err(AmrError::InvalidStructure(
                "finest grid exceeds 21-bit coords",
            ));
        }
        // Cell and leaf indices are u32 (here and in every recipe).
        let base_cells = (base[0] as u64) * (base[1] as u64) * (base[2] as u64);
        if base_cells > u64::from(u32::MAX) {
            return Err(AmrError::InvalidStructure("more cells than u32 indices"));
        }

        // Enumerate existing cells level by level. `current` holds the
        // level's cells as sorted packed keys; every scratch array below is
        // sized from it, and it only grows from validated refined sets.
        let mut cells: Vec<Cell> = Vec::new();
        let mut leaf_indices: Vec<u32> = Vec::new();
        let mut level_starts = Vec::with_capacity(refined.len() + 2);
        let mut current: Vec<u64> = {
            // Level 0: the whole base grid in (z,y,x) order.
            let mut v = Vec::with_capacity(base_cells as usize);
            for z in 0..base[2] as u32 {
                for y in 0..base[1] as u32 {
                    for x in 0..base[0] as u32 {
                        v.push(CellCoord::new(x, y, z).pack());
                    }
                }
            }
            v
        };

        for level in 0..=max_level {
            level_starts.push(cells.len());
            let refined_here: &[u64] = if level < max_level {
                &refined[level as usize]
            } else {
                &[]
            };
            // Validate the refined set: sorted, unique, and existing.
            if refined_here.windows(2).any(|w| w[0] >= w[1]) {
                return Err(AmrError::InvalidStructure("refined set not sorted/unique"));
            }
            let is_refined = refined_flags(&current, refined_here)?;
            let total = cells.len() as u64 + current.len() as u64;
            if total > u64::from(u32::MAX) {
                return Err(AmrError::InvalidStructure("more cells than u32 indices"));
            }
            cells.reserve_exact(current.len());
            leaf_indices.reserve_exact(current.len() - refined_here.len());
            for i in storage_order(&current, patch_shift, ranks) {
                let i = i as usize;
                if !is_refined[i] {
                    leaf_indices.push(cells.len() as u32);
                }
                cells.push(Cell {
                    level,
                    coord: CellCoord::unpack(current[i]),
                    is_leaf: !is_refined[i],
                });
            }
            current = children_sorted(dim, refined_here);
        }
        level_starts.push(cells.len());

        Ok(Self {
            dim,
            base,
            max_level,
            patch_shift,
            ranks,
            refined,
            cells,
            leaf_indices,
            level_starts,
        })
    }

    /// A trivial single-level tree (uniform grid).
    pub fn uniform(dim: Dim, base: [usize; 3]) -> Result<Self, AmrError> {
        Self::from_refined(dim, base, Vec::new())
    }

    /// Patch (storage block) side length in cells.
    pub fn patch_size(&self) -> usize {
        1 << self.patch_shift
    }

    /// Number of writer ranks the storage layout emulates.
    pub fn ranks(&self) -> u32 {
        self.ranks
    }

    /// Spatial dimensionality.
    pub fn dim(&self) -> Dim {
        self.dim
    }

    /// Level-0 grid dimensions.
    pub fn base(&self) -> [usize; 3] {
        self.base
    }

    /// Deepest level index (0 for a uniform grid).
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// Grid dimensions of level `l`.
    pub fn level_dims(&self, l: u32) -> [usize; 3] {
        let s = l as usize;
        let f = |d: usize| self.base[d] << s;
        [f(0), f(1), if self.dim == Dim::D2 { 1 } else { f(2) }]
    }

    /// All existing cells, in storage order (level-major, (z,y,x) within).
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Cells of one level, in storage (patch-major) order.
    pub fn level_cells(&self, l: u32) -> &[Cell] {
        let s = self.level_starts[l as usize];
        let e = self.level_starts[l as usize + 1];
        &self.cells[s..e]
    }

    /// Index into [`AmrTree::cells`] of the first cell of level `l`.
    pub fn level_start(&self, l: u32) -> usize {
        self.level_starts[l as usize]
    }

    /// Leaves in storage order, as indices into [`AmrTree::cells`].
    pub fn leaf_indices(&self) -> &[u32] {
        &self.leaf_indices
    }

    /// Iterator over the leaves in storage order.
    pub fn leaves(&self) -> impl Iterator<Item = &Cell> + '_ {
        self.leaf_indices.iter().map(|&i| &self.cells[i as usize])
    }

    /// Number of existing cells (all levels).
    pub fn cell_count(&self) -> usize {
        self.cells.len()
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.leaf_indices.len()
    }

    /// Whether the cell at (`level`, `coord`) is refined.
    pub fn is_refined(&self, level: u32, coord: CellCoord) -> bool {
        self.refined
            .get(level as usize)
            .is_some_and(|set| set.binary_search(&coord.pack()).is_ok())
    }

    /// Bits per axis of the finest-level grid (the SFC resolution zMesh
    /// indexes anchors at).
    pub fn finest_bits(&self) -> u32 {
        let finest = self
            .level_dims(self.max_level)
            .into_iter()
            .max()
            .expect("3 dims");
        (usize::BITS - (finest - 1).max(1).leading_zeros()).max(1)
    }

    /// A cell's anchor (lower corner) on the finest-level grid.
    pub fn anchor(&self, cell: &Cell) -> CellCoord {
        cell.coord.anchor(self.max_level - cell.level)
    }

    /// Cell center in the unit domain `[0,1]^d`.
    pub fn cell_center(&self, cell: &Cell) -> [f64; 3] {
        let dims = self.level_dims(cell.level);
        let f = |c: u32, n: usize| (f64::from(c) + 0.5) / n as f64;
        [
            f(cell.coord.x, dims[0]),
            f(cell.coord.y, dims[1]),
            if self.dim == Dim::D2 {
                0.0
            } else {
                f(cell.coord.z, dims[2])
            },
        ]
    }

    /// Cell half-width per axis in the unit domain.
    pub fn cell_halfwidth(&self, level: u32) -> [f64; 3] {
        let dims = self.level_dims(level);
        [
            0.5 / dims[0] as f64,
            0.5 / dims[1] as f64,
            if self.dim == Dim::D2 {
                0.0
            } else {
                0.5 / dims[2] as f64
            },
        ]
    }

    /// Serializes the structure metadata (the bytes any AMR container
    /// carries; the zMesh recipe is re-generated from these alone).
    pub fn structure_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.refined.iter().map(Vec::len).sum::<usize>() * 3);
        out.extend_from_slice(b"AMT1");
        out.push(self.dim.tag());
        out.push(self.patch_shift as u8);
        write_u64(&mut out, u64::from(self.ranks));
        for d in self.base {
            write_u64(&mut out, d as u64);
        }
        write_u64(&mut out, u64::from(self.max_level));
        for set in &self.refined {
            write_u64(&mut out, set.len() as u64);
            let mut prev = 0u64;
            for &key in set {
                write_u64(&mut out, key - prev);
                prev = key;
            }
        }
        out
    }

    /// Number of level-0 cells the structure bytes declare, read from their
    /// fixed head alone — a bound a caller can check against what else it
    /// knows (e.g. how many values a store holds) before
    /// [`AmrTree::from_structure_bytes`] allocates per cell.
    pub fn structure_base_cells(bytes: &[u8]) -> Result<u64, AmrError> {
        let (_, _, _, base) = read_structure_head(bytes, &mut 0)?;
        Ok(base.iter().fold(1u64, |n, &b| n.saturating_mul(b as u64)))
    }

    /// Inverse of [`AmrTree::structure_bytes`], re-validating all invariants.
    pub fn from_structure_bytes(bytes: &[u8]) -> Result<Self, AmrError> {
        let mut pos = 0;
        let (dim, patch_shift, ranks, base) = read_structure_head(bytes, &mut pos)?;
        let max_level = u32::try_from(read_u64(bytes, &mut pos)?)
            .ok()
            .filter(|&l| l <= COORD_BITS)
            .ok_or(AmrError::Corrupt("max level too deep"))?;
        let mut refined = Vec::with_capacity(max_level as usize);
        for _ in 0..max_level {
            // Every delta takes at least one byte, so a count larger than
            // the bytes left is a lie; reject it before it sizes the set.
            let n = read_u64(bytes, &mut pos)?;
            if n > (bytes.len() - pos) as u64 {
                return Err(AmrError::Corrupt("refined count exceeds metadata"));
            }
            let n = n as usize;
            let mut set = Vec::with_capacity(n);
            let mut key = 0u64;
            for i in 0..n {
                let delta = read_u64(bytes, &mut pos)?;
                key = if i == 0 {
                    delta
                } else {
                    key.checked_add(delta)
                        .ok_or(AmrError::Corrupt("refined key overflows"))?
                };
                set.push(key);
            }
            refined.push(set);
        }
        Self::from_refined_with_layout(dim, base, refined, patch_shift, ranks)
    }
}

/// Parses the fixed head of structure bytes — magic, dim, patch shift,
/// ranks and base grid — advancing `pos` past it.
fn read_structure_head(
    bytes: &[u8],
    pos: &mut usize,
) -> Result<(Dim, u32, u32, [usize; 3]), AmrError> {
    let magic = bytes.get(..4).ok_or(AmrError::Corrupt("missing magic"))?;
    if magic != b"AMT1" {
        return Err(AmrError::Corrupt("bad magic"));
    }
    *pos += 4;
    let dim = Dim::from_tag(*bytes.get(*pos).ok_or(AmrError::Corrupt("missing dim"))?)
        .ok_or(AmrError::Corrupt("bad dim tag"))?;
    *pos += 1;
    let patch_shift = u32::from(
        *bytes
            .get(*pos)
            .ok_or(AmrError::Corrupt("missing patch size"))?,
    );
    *pos += 1;
    let ranks = u32::try_from(read_u64(bytes, pos)?)
        .map_err(|_| AmrError::Corrupt("ranks out of range"))?;
    let mut base = [0usize; 3];
    for b in &mut base {
        *b = usize::try_from(read_u64(bytes, pos)?)
            .map_err(|_| AmrError::Corrupt("base grid out of range"))?;
    }
    Ok((dim, patch_shift, ranks, base))
}

/// Marks which of the level's cells (`current`, sorted) are refined, by
/// one merge against the sorted, duplicate-free `refined` set. A refined key
/// missing from `current` is an error.
fn refined_flags(current: &[u64], refined: &[u64]) -> Result<Vec<bool>, AmrError> {
    let missing = AmrError::InvalidStructure("refined cell does not exist");
    let mut flags = vec![false; current.len()];
    let mut want = refined.iter().peekable();
    for (flag, &key) in flags.iter_mut().zip(current) {
        match want.peek() {
            Some(&&r) if r < key => return Err(missing),
            Some(&&r) if r == key => {
                *flag = true;
                want.next();
            }
            _ => {}
        }
    }
    match want.next() {
        Some(_) => Err(missing),
        None => Ok(flags),
    }
}

/// The order real AMR files store a level in, as indices into `current`
/// (the level's cells, sorted): aligned `2^patch_shift`-sided tiles are
/// dealt round-robin to `ranks` writers in (z,y,x) tile order, the file is
/// rank-major, tiles keep (z,y,x) order within a rank, and cells keep
/// (z,y,x) order within a tile.
///
/// Each cell is mapped to its tile once, then a stable counting sort drops
/// the cells into tile buckets laid out rank-major: O(n log T) for n cells
/// in T tiles, the log from mapping a cell whose tile differs from its
/// predecessor's.
fn storage_order(current: &[u64], patch_shift: u32, ranks: u32) -> Vec<u32> {
    let tile_of = |key: u64| -> u64 {
        let c = CellCoord::unpack(key);
        CellCoord::new(c.x >> patch_shift, c.y >> patch_shift, c.z >> patch_shift).pack()
    };
    // Sorted distinct tiles. Runs of cells along x share a tile, so drop
    // repeats before sorting.
    let mut tiles: Vec<u64> = Vec::new();
    for &key in current {
        let tile = tile_of(key);
        if tiles.last() != Some(&tile) {
            tiles.push(tile);
        }
    }
    tiles.sort_unstable();
    tiles.dedup();

    let mut tile_idx = Vec::with_capacity(current.len());
    let mut bucket = vec![0u32; tiles.len()];
    let mut last: Option<(u64, usize)> = None;
    for &key in current {
        let tile = tile_of(key);
        let t = match last {
            Some((prev, t)) if prev == tile => t,
            _ => {
                let t = tiles
                    .binary_search(&tile)
                    .expect("tile of an existing cell");
                last = Some((tile, t));
                t
            }
        };
        tile_idx.push(t as u32);
        bucket[t] += 1;
    }

    // Turn the counts into bucket starts: tile t is written by rank
    // t % ranks, ranks in order, tiles ascending within a rank.
    let ranks = ranks as usize;
    let mut next = 0u32;
    for rank in 0..ranks.min(tiles.len()) {
        for count in bucket.iter_mut().skip(rank).step_by(ranks) {
            let start = next;
            next += *count;
            *count = start;
        }
    }
    let mut order = vec![0u32; current.len()];
    for (i, &t) in tile_idx.iter().enumerate() {
        let slot = &mut bucket[t as usize];
        order[*slot as usize] = i as u32;
        *slot += 1;
    }
    order
}

/// The children of the sorted `parents`, sorted, without a sort: child
/// (z,y,x) order is parent plane, then the z child, then parent row, then
/// the y child, then parent x, then the x child.
fn children_sorted(dim: Dim, parents: &[u64]) -> Vec<u64> {
    let mut out = Vec::with_capacity(parents.len() * dim.children());
    let z_children = if dim == Dim::D3 { 2 } else { 1 };
    let same = |shift: u32| move |a: &u64, b: &u64| a >> shift == b >> shift;
    for plane in parents.chunk_by(same(2 * COORD_BITS)) {
        for dz in 0..z_children {
            for row in plane.chunk_by(same(COORD_BITS)) {
                for dy in 0..2 {
                    for &key in row {
                        let c = CellCoord::unpack(key);
                        let (y, z) = (2 * c.y + dy, 2 * c.z + dz);
                        out.push(CellCoord::new(2 * c.x, y, z).pack());
                        out.push(CellCoord::new(2 * c.x + 1, y, z).pack());
                    }
                }
            }
        }
    }
    out
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

fn read_u64(buf: &[u8], pos: &mut usize) -> Result<u64, AmrError> {
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf.get(*pos).ok_or(AmrError::Corrupt("varint past end"))?;
        *pos += 1;
        if shift >= 64 {
            return Err(AmrError::Corrupt("varint overflow"));
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4x4 base, one refined cell at (1,1), one of its children refined.
    fn small_tree() -> AmrTree {
        let l0 = vec![CellCoord::new(1, 1, 0).pack()];
        let l1 = vec![CellCoord::new(2, 2, 0).pack()]; // child (0,0) of (1,1)
        AmrTree::from_refined(Dim::D2, [4, 4, 1], vec![l0, l1]).unwrap()
    }

    #[test]
    fn counts_add_up() {
        let t = small_tree();
        // Level 0: 16 cells (1 refined -> 15 leaves).
        // Level 1: 4 cells (1 refined -> 3 leaves).
        // Level 2: 4 cells (all leaves).
        assert_eq!(t.cell_count(), 24);
        assert_eq!(t.leaf_count(), 22);
        assert_eq!(t.level_cells(0).len(), 16);
        assert_eq!(t.level_cells(1).len(), 4);
        assert_eq!(t.level_cells(2).len(), 4);
    }

    #[test]
    fn leaves_tile_the_domain() {
        let t = small_tree();
        // Sum of leaf areas at finest resolution must cover the 16x16 grid.
        let total: u64 = t
            .leaves()
            .map(|c| {
                let s = t.max_level() - c.level;
                1u64 << (2 * s)
            })
            .sum();
        assert_eq!(total, 16 * 16);
    }

    #[test]
    fn storage_order_is_level_major_then_patch_major() {
        let t = small_tree();
        let p = t.patch_size() as u32;
        let mut prev: Option<(u32, u64, u64)> = None;
        for c in t.cells() {
            let tile = CellCoord::new(c.coord.x / p, c.coord.y / p, c.coord.z / p);
            let key = (c.level, tile.pack(), c.coord.pack());
            if let Some(pk) = prev {
                assert!(pk < key, "cells out of storage order");
            }
            prev = Some(key);
        }
    }

    #[test]
    fn patch_major_order_differs_from_row_major() {
        // A 16x16 uniform grid with 8-cell patches: the 9th cell emitted is
        // (0,1) of tile (0,0), not (8,0) as row-major would give.
        let t = AmrTree::uniform(Dim::D2, [16, 16, 1]).unwrap();
        assert_eq!(t.patch_size(), 8);
        assert_eq!(t.cells()[8].coord, CellCoord::new(0, 1, 0));
        // The 65th cell starts the second tile.
        assert_eq!(t.cells()[64].coord, CellCoord::new(8, 0, 0));
    }

    #[test]
    fn rank_interleaving_scatters_tiles() {
        // 32x32 grid, 8-cell patches -> 16 tiles; 4 ranks round-robin.
        // Rank 0 owns tiles 0, 4, 8, 12 of the (z,y,x) tile order, so the
        // second emitted tile is tile #4 = (0,1), not (1,0).
        let t = AmrTree::from_refined_with_layout(Dim::D2, [32, 32, 1], vec![], 3, 4).unwrap();
        assert_eq!(t.ranks(), 4);
        assert_eq!(t.cells()[0].coord, CellCoord::new(0, 0, 0));
        assert_eq!(t.cells()[64].coord, CellCoord::new(0, 8, 0));
        // A single rank reduces to plain (z,y,x) tile order.
        let t1 = AmrTree::from_refined_with_layout(Dim::D2, [32, 32, 1], vec![], 3, 1).unwrap();
        assert_eq!(t1.cells()[64].coord, CellCoord::new(8, 0, 0));
        // Layout is part of the metadata and survives serialization.
        let t2 = AmrTree::from_structure_bytes(&t.structure_bytes()).unwrap();
        assert_eq!(t2.ranks(), 4);
        assert_eq!(t2.cells(), t.cells());
        // Zero ranks is invalid.
        assert!(AmrTree::from_refined_with_layout(Dim::D2, [4, 4, 1], vec![], 3, 0).is_err());
    }

    #[test]
    fn patch_shift_zero_is_row_major() {
        let t = AmrTree::from_refined_with_patch(Dim::D2, [16, 16, 1], vec![], 0).unwrap();
        assert_eq!(t.cells()[8].coord, CellCoord::new(8, 0, 0));
        assert_eq!(t.patch_size(), 1);
    }

    #[test]
    fn patch_size_survives_serialization() {
        let t = AmrTree::from_refined_with_patch(Dim::D2, [16, 16, 1], vec![], 2).unwrap();
        let t2 = AmrTree::from_structure_bytes(&t.structure_bytes()).unwrap();
        assert_eq!(t2.patch_size(), 4);
        assert_eq!(t2.cells(), t.cells());
    }

    #[test]
    fn refinement_queries() {
        let t = small_tree();
        assert!(t.is_refined(0, CellCoord::new(1, 1, 0)));
        assert!(!t.is_refined(0, CellCoord::new(0, 0, 0)));
        assert!(t.is_refined(1, CellCoord::new(2, 2, 0)));
        assert!(!t.is_refined(2, CellCoord::new(4, 4, 0)));
    }

    #[test]
    fn anchors_and_bits() {
        let t = small_tree();
        assert_eq!(t.finest_bits(), 4); // 16-wide finest grid
        let leaf0 = t.cells().first().unwrap();
        assert_eq!(t.anchor(leaf0), CellCoord::new(0, 0, 0));
        let l1 = &t.level_cells(1)[0];
        assert_eq!(
            t.anchor(l1),
            CellCoord::new(l1.coord.x << 1, l1.coord.y << 1, 0)
        );
    }

    #[test]
    fn centers_are_inside_unit_domain() {
        let t = small_tree();
        for c in t.cells() {
            let p = t.cell_center(c);
            assert!(p[0] > 0.0 && p[0] < 1.0);
            assert!(p[1] > 0.0 && p[1] < 1.0);
            assert_eq!(p[2], 0.0);
        }
    }

    #[test]
    fn structure_round_trips() {
        let t = small_tree();
        let bytes = t.structure_bytes();
        let t2 = AmrTree::from_structure_bytes(&bytes).unwrap();
        assert_eq!(t2.cell_count(), t.cell_count());
        assert_eq!(t2.leaf_count(), t.leaf_count());
        assert_eq!(t2.cells(), t.cells());
        assert_eq!(t2.structure_bytes(), bytes);
    }

    #[test]
    fn invalid_structures_are_rejected() {
        // Refined cell that does not exist.
        let bad = vec![vec![CellCoord::new(9, 9, 0).pack()]];
        assert!(AmrTree::from_refined(Dim::D2, [4, 4, 1], bad).is_err());
        // Unsorted refined set.
        let bad = vec![vec![
            CellCoord::new(2, 0, 0).pack(),
            CellCoord::new(1, 0, 0).pack(),
        ]];
        assert!(AmrTree::from_refined(Dim::D2, [4, 4, 1], bad).is_err());
        // 2-D tree with nz != 1.
        assert!(AmrTree::from_refined(Dim::D2, [4, 4, 2], vec![]).is_err());
        // Zero-sized base.
        assert!(AmrTree::from_refined(Dim::D2, [0, 4, 1], vec![]).is_err());
    }

    #[test]
    fn corrupt_metadata_is_rejected() {
        let t = small_tree();
        let bytes = t.structure_bytes();
        assert!(AmrTree::from_structure_bytes(&[]).is_err());
        assert!(AmrTree::from_structure_bytes(b"XXXX").is_err());
        for cut in [4, 6, bytes.len() - 1] {
            assert!(AmrTree::from_structure_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn uniform_tree_is_all_leaves() {
        let t = AmrTree::uniform(Dim::D3, [3, 4, 5]).unwrap();
        assert_eq!(t.cell_count(), 60);
        assert_eq!(t.leaf_count(), 60);
        assert_eq!(t.max_level(), 0);
        assert_eq!(t.finest_bits(), 3);
    }

    #[test]
    fn three_d_tree() {
        let l0 = vec![CellCoord::new(0, 0, 0).pack()];
        let t = AmrTree::from_refined(Dim::D3, [2, 2, 2], vec![l0]).unwrap();
        assert_eq!(t.cell_count(), 8 + 8);
        assert_eq!(t.leaf_count(), 7 + 8);
        let total: u64 = t
            .leaves()
            .map(|c| 1u64 << (3 * (t.max_level() - c.level)))
            .sum();
        assert_eq!(total, 4 * 4 * 4);
    }
}
