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

/// The parent → child links of an [`AmrTree`], laid out by the tree
/// decode for a depth-first walk ([`AmrTree::links`]).
///
/// The links also say which cells are leaves: cell `i` is a leaf exactly
/// when `links[i] <= i`. A leaf's link is its leaf index, and no more
/// leaves than cells precede it; a refined cell's link points into the
/// next level, past every index of its own ([`TreeLinks::is_leaf`]).
///
/// ```
/// use zmesh_amr::{AmrTree, CellCoord, Dim};
///
/// // A 2×2 grid whose cell (1, 0) is refined.
/// let refined = vec![vec![CellCoord::new(1, 0, 0).pack()]];
/// let tree = AmrTree::from_refined(Dim::D2, [2, 2, 1], refined).unwrap();
/// let links = tree.links();
/// let parent = links.slots[1]; // level-0 cell (1, 0)
/// assert!(!links.is_leaf(parent));
/// let first = links.links[parent as usize] as usize;
/// let child = links.slots[first + 0b11]; // child (x+1, y+1)
/// assert!(links.is_leaf(child));
/// assert_eq!(tree.cell(child as usize).coord, CellCoord::new(3, 1, 0));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct TreeLinks<'a> {
    /// Storage indices: the level-0 cells in (z,y,x) order, then each
    /// deeper level's cells grouped by parent, `2^d` per refined cell in
    /// child-bit order (x | y<<1 | z<<2). Level `l` fills the same index
    /// range here as in [`AmrTree::cells`].
    pub slots: &'a [u32],
    /// Per storage index: a leaf's index into [`AmrTree::leaf_indices`],
    /// or where a refined cell's children start in `slots`.
    pub links: &'a [u32],
}

impl TreeLinks<'_> {
    /// Whether the cell at storage index `cell` is a leaf.
    #[inline]
    pub fn is_leaf(&self, cell: u32) -> bool {
        self.links[cell as usize] <= cell
    }
}

/// A run of an [`AmrTree`]'s cells in storage order, borrowed from the
/// tree ([`AmrTree::cells`], [`AmrTree::level_cells`]). The tree stores no
/// [`Cell`]s; iterating the view assembles each one by value, walking the
/// level ranges in order. [`AmrTree::cell`] serves random access.
#[derive(Clone)]
pub struct Cells<'a> {
    tree: &'a AmrTree,
    /// Level of the first cell of `range`.
    level: u32,
    /// Storage indices covered.
    range: std::ops::Range<usize>,
}

impl<'a> Cells<'a> {
    /// Number of cells in the view.
    pub fn len(&self) -> usize {
        self.range.len()
    }

    /// Whether the view holds no cell.
    pub fn is_empty(&self) -> bool {
        self.range.is_empty()
    }

    /// The cells in storage order.
    pub fn iter(&self) -> CellIter<'a> {
        let tree = self.tree;
        CellIter {
            coords: &tree.coords,
            links: &tree.links,
            level_starts: &tree.level_starts,
            level: self.level,
            level_end: tree.level_starts[self.level as usize + 1],
            range: self.range.clone(),
        }
    }
}

impl<'a> IntoIterator for Cells<'a> {
    type Item = Cell;
    type IntoIter = CellIter<'a>;

    fn into_iter(self) -> CellIter<'a> {
        self.iter()
    }
}

impl PartialEq for Cells<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for Cells<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Iterator over a [`Cells`] view, yielding each [`Cell`] by value.
#[derive(Debug, Clone)]
pub struct CellIter<'a> {
    coords: &'a [u64],
    links: &'a [u32],
    level_starts: &'a [usize],
    /// Level of the next cell, once `level_end` is past it.
    level: u32,
    /// First storage index past `level`.
    level_end: usize,
    /// Storage indices still to yield.
    range: std::ops::Range<usize>,
}

impl Iterator for CellIter<'_> {
    type Item = Cell;

    #[inline]
    fn next(&mut self) -> Option<Cell> {
        let i = self.range.next()?;
        while self.level_end <= i {
            self.level += 1;
            self.level_end = self.level_starts[self.level as usize + 1];
        }
        Some(Cell {
            level: self.level,
            coord: CellCoord::unpack(self.coords[i]),
            is_leaf: self.links[i] as usize <= i,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.range.size_hint()
    }
}

impl ExactSizeIterator for CellIter<'_> {}

/// Default patch (block) side length: FLASH-style 8-cell blocks.
pub const DEFAULT_PATCH_SHIFT: u32 = 3;

/// Default number of writer ranks the storage layout emulates.
pub const DEFAULT_RANKS: u32 = 8;

/// A complete refinement hierarchy.
///
/// The tree keeps what its decode learns and a curve walk reads, 16 bytes
/// per cell plus 4 per leaf: each cell's packed coordinates
/// ([`CellCoord::pack`]) and its entries in [`TreeLinks`], by storage
/// index, and the storage index of every leaf. A cell's level is the level
/// range its index falls in, and whether it is a leaf is read off its link
/// ([`TreeLinks::is_leaf`]); [`AmrTree::cell`] and the [`Cells`] views
/// put the three together into a [`Cell`].
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
    /// Packed coordinates of every existing cell, in storage order
    /// (level-major, patch-major within a level).
    coords: Vec<u64>,
    /// Storage indices of the leaves, in storage order.
    leaf_indices: Vec<u32>,
    /// See [`TreeLinks::slots`].
    slots: Vec<u32>,
    /// See [`TreeLinks::links`].
    links: Vec<u32>,
    /// First cell index of each level (length `max_level + 2`, sentinel last).
    level_starts: Vec<usize>,
    /// `level_starts[1..=8]` as `u32`, `u32::MAX` past the deepest level:
    /// the first eight level ends in one fixed array, which
    /// [`AmrTree::level_of`] counts without a loop.
    level_ends: [u32; 8],
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

        // Every array is sized once, from the refined counts. Each level is
        // generated in (z,y,x) order from the refined cells above it and
        // scattered straight to its storage slots; the refined set is
        // validated against the generated cells as they pass.
        let (cell_count, refined_count) = planned_sizes(dim, base_cells, &refined);
        let mut coords: Vec<u64> = Vec::with_capacity(cell_count);
        let mut leaf_indices: Vec<u32> = Vec::with_capacity(cell_count - refined_count);
        let mut slots: Vec<u32> = Vec::with_capacity(cell_count);
        let mut links: Vec<u32> = Vec::with_capacity(cell_count);
        let mut level_starts = Vec::with_capacity(refined.len() + 2);
        let nch = dim.children();
        let mut tiles = Tiles::base(base, patch_shift);
        // Tile ordinal of each refined cell of the level above.
        let mut parent_tiles: Vec<u32> = Vec::new();

        for level in 0..=max_level {
            let start = coords.len();
            level_starts.push(start);
            let parents = level.checked_sub(1).map(|l| refined[l as usize].as_slice());
            let refined_here: &[u64] = refined.get(level as usize).map_or(&[], Vec::as_slice);
            if let Some(parents) = parents {
                tiles = tiles.children(dim, parents, &parent_tiles, patch_shift);
            }
            let generation = Generation {
                dim,
                base,
                patch_shift,
                parents,
                parent_tiles: &parent_tiles,
                tiles: &tiles,
            };
            // Validate the refined set: sorted, unique, and existing.
            if refined_here.windows(2).any(|w| w[0] >= w[1]) {
                return Err(AmrError::InvalidStructure("refined set not sorted/unique"));
            }
            let n = parents.map_or(base_cells as usize, |p| p.len() * nch);
            let mut found = Found::new(refined_here);
            if start as u64 + n as u64 > u64::from(u32::MAX) {
                generation.run(|key, _, _| {
                    found.check(key);
                });
                found.finish()?;
                return Err(AmrError::InvalidStructure("more cells than u32 indices"));
            }

            // Scatter the level: tile buckets laid out rank-major, cells in
            // generation order within a tile. A refined cell links to its
            // children, which the next level places right after this one,
            // 2^d per parent in refined-set order; every other link stays 0
            // until the leaf pass below numbers it.
            let mut next = tiles.bucket_starts(ranks);
            let first_child = (start + n) as u32;
            coords.resize(start + n, 0);
            links.resize(start + n, 0);
            slots.resize(start + n, 0);
            let mut next_parent_tiles = Vec::with_capacity(refined_here.len());
            generation.run(|key, tile, slot| {
                let at = &mut next[tile as usize];
                let storage = start + *at as usize;
                *at += 1;
                slots[start + slot as usize] = storage as u32;
                if let Some(rank) = found.check(key) {
                    links[storage] = first_child + (rank * nch) as u32;
                    next_parent_tiles.push(tile);
                }
                coords[storage] = key;
            });
            found.finish()?;
            // A refined cell's link already points past the level; a leaf's
            // (0 so far) becomes its leaf index, which is at most its own.
            for (storage, link) in (start..).zip(&mut links[start..]) {
                if *link as usize <= storage {
                    *link = leaf_indices.len() as u32;
                    leaf_indices.push(storage as u32);
                }
            }
            parent_tiles = next_parent_tiles;
        }
        level_starts.push(coords.len());
        let mut level_ends = [u32::MAX; 8];
        for (end, &start) in level_ends.iter_mut().zip(&level_starts[1..]) {
            *end = start as u32;
        }

        Ok(Self {
            dim,
            base,
            max_level,
            patch_shift,
            ranks,
            refined,
            coords,
            leaf_indices,
            slots,
            links,
            level_starts,
            level_ends,
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

    /// All existing cells, in storage order (level-major, patch-major
    /// within a level).
    pub fn cells(&self) -> Cells<'_> {
        Cells {
            tree: self,
            level: 0,
            range: 0..self.coords.len(),
        }
    }

    /// Cells of one level, in storage (patch-major) order.
    pub fn level_cells(&self, l: u32) -> Cells<'_> {
        Cells {
            tree: self,
            level: l,
            range: self.level_starts[l as usize]..self.level_starts[l as usize + 1],
        }
    }

    /// The cell at storage index `i`.
    ///
    /// # Panics
    /// Panics if `i >= self.cell_count()`.
    #[inline]
    pub fn cell(&self, i: usize) -> Cell {
        self.cell_at(self.level_of(i), i)
    }

    /// The level of the cell at storage index `i` (`i <
    /// self.cell_count()`).
    #[inline]
    pub fn level_of(&self, i: usize) -> u32 {
        // The levels that end at or before `i`: a branch-free count over
        // the fixed first eight ends (cheaper than a search, whose
        // branches a random index defeats), then over the deeper starts
        // only in a tree that deep.
        let at = u32::try_from(i).unwrap_or(u32::MAX);
        let level = self
            .level_ends
            .iter()
            .map(|&e| u32::from(e <= at))
            .sum::<u32>();
        match level {
            8 => 8 + self.level_starts[9..].iter().filter(|&&s| s <= i).count() as u32,
            _ => level,
        }
    }

    /// The cell at storage index `i`, known to lie on `level`.
    #[inline]
    fn cell_at(&self, level: u32, i: usize) -> Cell {
        Cell {
            level,
            coord: CellCoord::unpack(self.coords[i]),
            is_leaf: self.links[i] as usize <= i,
        }
    }

    /// Packed coordinates ([`CellCoord::pack`]) of every cell, by storage
    /// index.
    pub fn packed_coords(&self) -> &[u64] {
        &self.coords
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
    pub fn leaves(&self) -> impl Iterator<Item = Cell> + '_ {
        // Leaves come in storage order, so their levels never decrease.
        let mut level = 0;
        self.leaf_indices.iter().map(move |&i| {
            let i = i as usize;
            while self.level_starts[level + 1] <= i {
                level += 1;
            }
            self.cell_at(level as u32, i)
        })
    }

    /// The tree as a depth-first walk reads it: every refined cell's
    /// children and every leaf's leaf index, by storage index.
    #[inline]
    pub fn links(&self) -> TreeLinks<'_> {
        TreeLinks {
            slots: &self.slots,
            links: &self.links,
        }
    }

    /// Number of existing cells (all levels).
    pub fn cell_count(&self) -> usize {
        self.coords.len()
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

/// The lengths of `cells` and of the refined sets together, if every
/// refined cell exists: `(0, 0)` when the counts alone show that one does
/// not, or that the tree outgrows u32 indices (the decode rejects both).
fn planned_sizes(dim: Dim, base_cells: u64, refined: &[Vec<u64>]) -> (usize, usize) {
    let (mut cells, mut refined_cells, mut level) = (base_cells, 0u64, base_cells);
    for set in refined {
        let r = set.len() as u64;
        if r > level {
            return (0, 0);
        }
        level = r * dim.children() as u64;
        cells += level;
        refined_cells += r;
        if cells > u64::from(u32::MAX) {
            return (0, 0);
        }
    }
    (cells as usize, refined_cells as usize)
}

/// A merge of a level's generated cells, in (z,y,x) order, against its
/// sorted, duplicate-free refined set.
struct Found<'a> {
    refined: &'a [u64],
    next: usize,
    missing: bool,
}

impl<'a> Found<'a> {
    fn new(refined: &'a [u64]) -> Self {
        Self {
            refined,
            next: 0,
            missing: false,
        }
    }

    /// The rank in the refined set of the cell `key`, if it is refined.
    /// Refined keys the generation has passed do not exist.
    #[inline]
    fn check(&mut self, key: u64) -> Option<usize> {
        while self.refined.get(self.next).is_some_and(|&r| r < key) {
            self.missing = true;
            self.next += 1;
        }
        let hit = self.refined.get(self.next) == Some(&key);
        hit.then(|| {
            self.next += 1;
            self.next - 1
        })
    }

    /// Errs if a refined key matched no generated cell.
    fn finish(&self) -> Result<(), AmrError> {
        match self.missing || self.next < self.refined.len() {
            true => Err(AmrError::InvalidStructure("refined cell does not exist")),
            false => Ok(()),
        }
    }
}

/// The storage tiles of one level that hold a cell: aligned
/// `2^patch_shift`-sided blocks, numbered in (z,y,x) order.
struct Tiles {
    /// Packed tile coordinates, sorted (empty for 1-cell tiles, whose
    /// ordinal is their cell's position in (z,y,x) order).
    keys: Vec<u64>,
    /// Cells per tile, by ordinal.
    cells: Vec<u32>,
    /// `child[t · 2^d + part]`: the ordinal of the tile that holds part
    /// `part` of the level above's tile `t` (empty at level 0 and for
    /// 1-cell tiles).
    child: Vec<u32>,
}

impl Tiles {
    /// Level 0: the tiles of the whole base grid.
    fn base(base: [usize; 3], patch_shift: u32) -> Self {
        let side = 1usize << patch_shift;
        let [tx, ty, tz] = base.map(|b| b.div_ceil(side) as u32);
        let mut cells = vec![0u32; (tx * ty * tz) as usize];
        base_cells_in_order(base, patch_shift, |_, t, _| cells[t as usize] += 1);
        let mut keys = Vec::with_capacity(cells.len());
        for z in 0..tz {
            for y in 0..ty {
                for x in 0..tx {
                    keys.push(CellCoord::new(x, y, z).pack());
                }
            }
        }
        Self {
            keys,
            cells,
            child: Vec::new(),
        }
    }

    /// The next level's tiles: the children of `refined` (this level's
    /// refined keys, in tiles `parent_tiles`). A child tile is one
    /// `2^d`-th part of a parent tile, and it holds cells exactly when the
    /// parent tile holds a refined cell in that part, so the child tiles
    /// come in (z,y,x) order without a sort — parent plane, z part, parent
    /// row, y part, parent x, x part.
    fn children(&self, dim: Dim, refined: &[u64], parent_tiles: &[u32], patch_shift: u32) -> Self {
        let nch = dim.children();
        if patch_shift == 0 {
            return Self {
                keys: Vec::new(),
                cells: vec![1; refined.len() * nch],
                child: Vec::new(),
            };
        }
        // Cells per (parent tile, part) first; ordinals once enumerated.
        let mut child = vec![0u32; self.cells.len() * nch];
        for (&key, &t) in refined.iter().zip(parent_tiles) {
            child[t as usize * nch + tile_part(key, patch_shift)] += nch as u32;
        }
        let (mut keys, mut cells) = (Vec::new(), Vec::new());
        let z_parts = if dim == Dim::D3 { 2 } else { 1 };
        for plane in runs(&self.keys, 0..self.keys.len(), 2 * COORD_BITS) {
            for dz in 0..z_parts {
                for row in runs(&self.keys, plane.clone(), COORD_BITS) {
                    for dy in 0..2 {
                        for t in row.clone() {
                            let c = CellCoord::unpack(self.keys[t]);
                            for dx in 0..2 {
                                let at = t * nch + (dx | dy << 1 | dz << 2) as usize;
                                if child[at] > 0 {
                                    cells.push(child[at]);
                                    child[at] = keys.len() as u32;
                                    let (x, y, z) = (2 * c.x + dx, 2 * c.y + dy, 2 * c.z + dz);
                                    keys.push(CellCoord::new(x, y, z).pack());
                                }
                            }
                        }
                    }
                }
            }
        }
        Self { keys, cells, child }
    }

    /// Where each tile's cells start in the level's storage order: tiles
    /// are dealt round-robin to `ranks` writers in (z,y,x) tile order, the
    /// file is rank-major, and tiles keep (z,y,x) order within a rank.
    fn bucket_starts(&self, ranks: u32) -> Vec<u32> {
        let ranks = ranks as usize;
        let n = self.cells.len();
        let mut starts = vec![0u32; n];
        let mut next = 0u32;
        for rank in 0..ranks.min(n) {
            for t in (rank..n).step_by(ranks) {
                starts[t] = next;
                next += self.cells[t];
            }
        }
        starts
    }
}

/// Calls `f(key, tile, slot)` for every base-grid cell in (z,y,x) order:
/// its packed coordinates, its tile ordinal ([`Tiles::base`]) and its
/// position in the level's walk order (its (z,y,x) position).
fn base_cells_in_order(base: [usize; 3], patch_shift: u32, mut f: impl FnMut(u64, u32, u32)) {
    let [nx, ny, nz] = base.map(|b| b as u32);
    let [tx, ty] = [nx, ny].map(|b| b.div_ceil(1 << patch_shift));
    let mut slot = 0;
    for z in 0..nz {
        for y in 0..ny {
            let row = tx * ((y >> patch_shift) + ty * (z >> patch_shift));
            for x in 0..nx {
                f(
                    CellCoord::new(x, y, z).pack(),
                    row + (x >> patch_shift),
                    slot,
                );
                slot += 1;
            }
        }
    }
}

/// What generates one level's cells: the base grid at level 0, else the
/// children of the level above's refined cells.
struct Generation<'a> {
    dim: Dim,
    base: [usize; 3],
    patch_shift: u32,
    /// The level above's refined keys (`None` at level 0).
    parents: Option<&'a [u64]>,
    /// Their tile ordinals.
    parent_tiles: &'a [u32],
    /// This level's tiles.
    tiles: &'a Tiles,
}

impl Generation<'_> {
    /// Calls `f(key, tile, slot)` for every cell of the level in (z,y,x)
    /// order: its packed coordinates, its tile ordinal and its position in
    /// the level's stretch of [`TreeLinks::slots`].
    fn run(&self, f: impl FnMut(u64, u32, u32)) {
        match self.parents {
            None => base_cells_in_order(self.base, self.patch_shift, f),
            Some(parents) => children_in_order(self, parents, f),
        }
    }
}

/// Calls `f(key, tile, slot)` for every child of the sorted `refined`
/// keys in (z,y,x) order, without a sort — parent plane, z child, parent
/// row, y child, parent x, x child. `tile` is the child's ordinal in the
/// level's tiles, `slot` is `2^d · r` + its child bits, `r` its parent's
/// rank in `refined`.
fn children_in_order(gen: &Generation<'_>, refined: &[u64], mut f: impl FnMut(u64, u32, u32)) {
    let (dim, patch_shift) = (gen.dim, gen.patch_shift);
    let nch = dim.children();
    let z_children = if dim == Dim::D3 { 2 } else { 1 };
    let mut generated = 0;
    for plane in runs(refined, 0..refined.len(), 2 * COORD_BITS) {
        for dz in 0..z_children {
            for row in runs(refined, plane.clone(), COORD_BITS) {
                for dy in 0..2 {
                    for r in row.clone() {
                        let key = refined[r];
                        let tile = match patch_shift {
                            0 => None,
                            _ => {
                                let t = gen.parent_tiles[r] as usize;
                                Some(gen.tiles.child[t * nch + tile_part(key, patch_shift)])
                            }
                        };
                        let c = CellCoord::unpack(key);
                        let (y, z) = (2 * c.y + dy, 2 * c.z + dz);
                        for dx in 0..2 {
                            let child = CellCoord::new(2 * c.x + dx, y, z).pack();
                            let slot = (r * nch) as u32 | dx | dy << 1 | dz << 2;
                            f(child, tile.unwrap_or(generated), slot);
                            generated += 1;
                        }
                    }
                }
            }
        }
    }
}

/// Which `2^d`-th part of its tile holds the refined cell `key`, as child
/// bits (x | y<<1 | z<<2): bit `patch_shift - 1` of each coordinate.
fn tile_part(key: u64, patch_shift: u32) -> usize {
    let c = CellCoord::unpack(key);
    let [x, y, z] = [c.x, c.y, c.z].map(|v| (v >> (patch_shift - 1)) & 1);
    (x | y << 1 | z << 2) as usize
}

/// The maximal runs of `keys[range]` whose keys agree above bit `shift`.
fn runs(
    keys: &[u64],
    range: std::ops::Range<usize>,
    shift: u32,
) -> impl Iterator<Item = std::ops::Range<usize>> + '_ {
    let mut start = range.start;
    std::iter::from_fn(move || {
        let head = keys.get(start..range.end)?.first()? >> shift;
        let len = keys[start..range.end]
            .iter()
            .position(|&k| k >> shift != head)
            .unwrap_or(range.end - start);
        start += len;
        Some(start - len..start)
    })
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
mod reference;

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
        assert_eq!(t.cell(8).coord, CellCoord::new(0, 1, 0));
        // The 65th cell starts the second tile.
        assert_eq!(t.cell(64).coord, CellCoord::new(8, 0, 0));
    }

    #[test]
    fn rank_interleaving_scatters_tiles() {
        // 32x32 grid, 8-cell patches -> 16 tiles; 4 ranks round-robin.
        // Rank 0 owns tiles 0, 4, 8, 12 of the (z,y,x) tile order, so the
        // second emitted tile is tile #4 = (0,1), not (1,0).
        let t = AmrTree::from_refined_with_layout(Dim::D2, [32, 32, 1], vec![], 3, 4).unwrap();
        assert_eq!(t.ranks(), 4);
        assert_eq!(t.cell(0).coord, CellCoord::new(0, 0, 0));
        assert_eq!(t.cell(64).coord, CellCoord::new(0, 8, 0));
        // A single rank reduces to plain (z,y,x) tile order.
        let t1 = AmrTree::from_refined_with_layout(Dim::D2, [32, 32, 1], vec![], 3, 1).unwrap();
        assert_eq!(t1.cell(64).coord, CellCoord::new(8, 0, 0));
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
        assert_eq!(t.cell(8).coord, CellCoord::new(8, 0, 0));
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
        let leaf0 = t.cell(0);
        assert_eq!(t.anchor(&leaf0), CellCoord::new(0, 0, 0));
        let l1 = t.level_cells(1).iter().next().unwrap();
        assert_eq!(
            t.anchor(&l1),
            CellCoord::new(l1.coord.x << 1, l1.coord.y << 1, 0)
        );
    }

    #[test]
    fn centers_are_inside_unit_domain() {
        let t = small_tree();
        for c in t.cells() {
            let p = t.cell_center(&c);
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
    fn links_lead_to_every_child_and_leaf() {
        let l0 = vec![
            CellCoord::new(0, 0, 0).pack(),
            CellCoord::new(5, 2, 1).pack(),
        ];
        let l1 = vec![
            CellCoord::new(1, 1, 1).pack(),
            CellCoord::new(11, 5, 3).pack(),
        ];
        let mut trees = vec![small_tree()];
        for (patch_shift, ranks) in [(0, 1), (1, 3), (2, 2), (3, 8)] {
            let refined = vec![l0.clone(), l1.clone()];
            let t =
                AmrTree::from_refined_with_layout(Dim::D3, [6, 3, 2], refined, patch_shift, ranks);
            trees.push(t.unwrap());
        }
        for t in &trees {
            let links = t.links();
            // Level 0 in (z,y,x) order.
            let [nx, ny, _] = t.base();
            for (i, &s) in links.slots[..t.level_cells(0).len()].iter().enumerate() {
                let c = t.cell(s as usize).coord;
                assert_eq!(i, c.x as usize + nx * (c.y as usize + ny * c.z as usize));
            }
            for (s, cell) in t.cells().iter().enumerate() {
                let link = links.links[s] as usize;
                assert_eq!(links.is_leaf(s as u32), cell.is_leaf);
                if cell.is_leaf {
                    assert_eq!(t.leaf_indices()[link] as usize, s);
                    continue;
                }
                for ch in 0..t.dim().children() {
                    let child = t.cell(links.slots[link + ch] as usize);
                    assert_eq!(
                        (child.level, child.coord),
                        (cell.level + 1, cell.coord.child(ch))
                    );
                }
            }
            // Each level's slots are a permutation of its storage range.
            for l in 0..=t.max_level() {
                let range = t.level_start(l)..t.level_start(l) + t.level_cells(l).len();
                let mut level: Vec<u32> = links.slots[range.clone()].to_vec();
                level.sort_unstable();
                assert!(level.iter().copied().eq(range.map(|s| s as u32)));
            }
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
