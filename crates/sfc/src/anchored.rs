//! Curve indices of AMR cell anchors.
//!
//! A cell `k` levels above the finest grid has its anchor (lower corner) at
//! `coord << k` on that grid. Its curve index therefore ends in the digits
//! of `k` all-zero coordinate bits, and a run of cells from one storage tile
//! (aligned `2^tile_shift`-sided block of a level) shares every digit above
//! the tile. [`AnchoredIndexer`] exploits both: it walks only the bits that
//! differ between neighbouring calls and appends the zero digits in one
//! step.
//!
//! * **Morton:** `morton(coord) << (d·k)`.
//! * **Hilbert:** the orientation state machine walks the tile's high bits
//!   once per `(k, coord >> tile_shift)` change, then the `tile_shift` low
//!   bits of each cell, then appends a per-state table of "`k` steps into
//!   child 0".
//! * **Row-major:** computed directly from the anchor.

use crate::hilbert_fast::{tables, Tables};
use crate::{
    morton_index_2d, morton_index_3d, row_major_index_2d, row_major_index_3d, CurveKind,
    MAX_BITS_2D, MAX_BITS_3D,
};

/// Computes `curve.index_{2,3}d(coord << k, bits)` for a stream of cells,
/// cheapest when consecutive calls come from the same storage tile.
///
/// ```
/// use zmesh_sfc::{AnchoredIndexer, Curve, CurveKind};
///
/// let mut keys = AnchoredIndexer::new(CurveKind::Hilbert, 2, 10, 3);
/// // A level-7 cell (k = 3) at (5, 9): anchor (40, 72) on the 1024² grid.
/// assert_eq!(
///     keys.index([5, 9, 0], 3),
///     CurveKind::Hilbert.index_2d(40, 72, 10)
/// );
/// ```
pub struct AnchoredIndexer {
    curve: CurveKind,
    dims: u32,
    bits: u32,
    tile_shift: u32,
    hilbert: Option<&'static Tables>,
    /// Hilbert walk state after the tile prefix of the last call, keyed by
    /// that call's `k` and the Morton digits above its tile.
    prefix: Option<((u32, u64), (u8, u64))>,
}

impl AnchoredIndexer {
    /// An indexer for `dims`-dimensional (2 or 3) coordinates on a
    /// `2^bits`-sided finest grid, caching Hilbert prefixes per aligned
    /// `2^tile_shift`-sided tile of level coordinates.
    ///
    /// # Panics
    /// Panics if `dims` is not 2 or 3, or `bits` exceeds the curve's limit
    /// ([`MAX_BITS_2D`] / [`MAX_BITS_3D`]).
    pub fn new(curve: CurveKind, dims: u32, bits: u32, tile_shift: u32) -> Self {
        let max_bits = match dims {
            2 => MAX_BITS_2D,
            3 => MAX_BITS_3D,
            _ => panic!("dims must be 2 or 3, got {dims}"),
        };
        assert!(bits <= max_bits, "{bits} bits exceed the {dims}-D limit");
        Self {
            curve,
            dims,
            bits,
            tile_shift,
            hilbert: (curve == CurveKind::Hilbert).then(|| tables(dims as usize)),
            prefix: None,
        }
    }

    /// Curve index of the anchor `coord << k` (`coord[2]` must be 0 in 2-D;
    /// every `coord[i] << k` must fit in `bits`).
    #[inline]
    pub fn index(&mut self, coord: [u64; 3], k: u32) -> u64 {
        debug_assert!(k <= self.bits && coord.iter().all(|&c| c >> (self.bits - k) == 0));
        let [x, y, z] = coord;
        match (self.curve, self.dims) {
            (CurveKind::Morton, 2) => morton_index_2d(x, y) << (2 * k),
            (CurveKind::Morton, _) => morton_index_3d(x, y, z) << (3 * k),
            (CurveKind::RowMajor, 2) => row_major_index_2d(x << k, y << k, self.bits),
            (CurveKind::RowMajor, _) => row_major_index_3d(x << k, y << k, z << k, self.bits),
            (CurveKind::Hilbert, dims) => {
                let tables = self.hilbert.expect("Hilbert tables are set in new");
                // Morton digits of the level coordinate are the children the
                // walk takes: the top `top - split` shared by the tile, the
                // low `split` per cell.
                let m = match dims {
                    2 => morton_index_2d(x, y),
                    _ => morton_index_3d(x, y, z),
                };
                let top = self.bits - k;
                let split = self.tile_shift.min(top);
                let tile = (k, m >> (dims * split));
                let walked = match self.prefix {
                    Some((cached, walked)) if cached == tile => walked,
                    _ => {
                        let walked = tables.walk(dims, (0, 0), m, split, top);
                        self.prefix = Some((tile, walked));
                        walked
                    }
                };
                let (state, index) = tables.walk(dims, walked, m, 0, split);
                // `dims · k ≤ 63`: k ≤ 21 in 3-D and ≤ 31 in 2-D.
                (index << (dims * k)) | tables.zero_tail(state, k)
            }
        }
    }
}
