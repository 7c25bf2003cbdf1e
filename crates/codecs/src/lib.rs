//! # zmesh-codecs — error-bounded lossy compressors, from scratch
//!
//! The zMesh paper evaluates its reordering with the two dominant
//! error-bounded lossy compressors of its era, SZ and ZFP. Neither is
//! available here as a Rust library, so this crate re-implements both
//! pipelines from scratch (see `DESIGN.md` §2 for the substitution
//! rationale):
//!
//! * [`sz`] — a prediction-based compressor in the style of SZ 1.4:
//!   per-chunk predictor selection (last-value / linear / quadratic),
//!   linear-scaling quantization against an absolute error bound, canonical
//!   Huffman coding of the quantization codes, verbatim storage of
//!   unpredictable points.
//! * [`zfp`] — a transform-based compressor in the style of ZFP 0.5:
//!   4 / 4×4 / 4×4×4 blocks, block-floating-point, lifted decorrelating
//!   transform, total-sequency coefficient order, negabinary, embedded
//!   group-tested bit-plane coding; fixed-accuracy and fixed-rate modes.
//! * [`lossless`] — SZ's entropy stages: canonical Huffman (the default;
//!   a multi-lane histogram, an in-place tree build and table-driven
//!   decoding that resolves every valid code without a bit-serial walk) and
//!   an adaptive range coder.
//!
//! Both lossy codecs implement the [`Codec`] trait and honor the configured
//! absolute error bound **pointwise** (property-tested in `tests/`).

pub mod lossless;
pub mod sz;
pub mod zfp;

mod traits;
pub(crate) mod varint;

pub use sz::{EntropyCoder, SzCodec};
pub use traits::{
    ChunkedStream, Codec, CodecError, CodecKind, CodecParams, ErrorControl, ValueType,
};
pub use zfp::ZfpCodec;
