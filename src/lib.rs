//! # zmesh-suite
//!
//! Meta-crate for the zMesh reproduction workspace. It re-exports every
//! workspace crate under one roof and provides a [`prelude`] so that the
//! examples and integration tests can `use zmesh_suite::prelude::*;` and get
//! the whole public surface.
//!
//! The individual crates are:
//!
//! * [`zmesh`] — the paper's contribution: AMR stream reordering with a
//!   re-generated restore recipe, plus the compression configuration.
//! * [`amr`] — the adaptive-mesh-refinement substrate (trees, fields,
//!   generators, mini-solvers, dataset presets).
//! * [`sfc`] — space-filling curves (Morton, Hilbert, row-major).
//! * [`bitstream`] — bit-granular I/O used by the codecs.
//! * [`codecs`] — SZ-like and ZFP-like error-bounded lossy compressors and
//!   their entropy stages (Huffman, range coder).
//! * [`metrics`] — smoothness, distortion, and ratio metrics.
//! * [`store`] — the on-disk format: the chunked, indexed v2/v3/v4 store with
//!   random-access region queries, a recipe cache, XOR or Reed–Solomon
//!   parity self-healing (scrub/repair/repair-from-raw), and a
//!   crash-consistent writer (atomic persist + commit record).

pub use zmesh;
pub use zmesh_amr as amr;
pub use zmesh_bitstream as bitstream;
pub use zmesh_codecs as codecs;
pub use zmesh_metrics as metrics;
pub use zmesh_sfc as sfc;
pub use zmesh_store as store;

/// One-stop import for examples and tests.
pub mod prelude {
    pub use zmesh::{CompressionConfig, GroupingMode, OrderingPolicy, RestoreRecipe};
    pub use zmesh_amr::{datasets, AmrField, AmrTree, Dim, FieldFn, RefineCriterion, TreeBuilder};
    pub use zmesh_codecs::{Codec, CodecKind, CodecParams};
    pub use zmesh_metrics::{compression_ratio, max_abs_error, psnr, total_variation};
    pub use zmesh_sfc::{Curve, CurveKind};
    pub use zmesh_store::{
        persist_store, repair, repair_with, scrub, Parity, Query, RawSource, ReadPolicy,
        RecipeCache, RepairOutcome, SalvageFill, ScrubReport, StoreError, StoreReader,
        StoreWriteOptions, StoreWriter,
    };
}
