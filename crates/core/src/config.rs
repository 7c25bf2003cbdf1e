//! What to compress with: ordering policy, codec, and error control.
//!
//! The store writer (`zmesh-store`) turns a [`CompressionConfig`] into
//! chunks: it builds the restore recipe once per mesh, reorders every
//! quantity, and hands the streams to the codec [`codec_for`] returns.

use crate::ordering::OrderingPolicy;
use zmesh_codecs::{Codec, CodecKind, ErrorControl, SzCodec, ZfpCodec};

/// What to compress with and how hard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompressionConfig {
    /// Stream ordering (the variable the paper studies).
    pub policy: OrderingPolicy,
    /// Which error-bounded codec consumes the stream.
    pub codec: CodecKind,
    /// Distortion control handed to the codec.
    pub control: ErrorControl,
}

impl CompressionConfig {
    /// zMesh defaults: Hilbert ordering, SZ, range-relative 1e-4.
    pub fn zmesh_default() -> Self {
        Self {
            policy: OrderingPolicy::Hilbert,
            codec: CodecKind::Sz,
            control: ErrorControl::ValueRangeRelative(1e-4),
        }
    }

    /// The paper's baseline: level order with the same codec/control.
    pub fn baseline_of(mut self) -> Self {
        self.policy = OrderingPolicy::LevelOrder;
        self
    }
}

/// Instantiates the codec backing `kind` — the single construction point
/// for every encode and decode.
pub fn codec_for(kind: CodecKind) -> Box<dyn Codec + Send + Sync> {
    match kind {
        CodecKind::Sz => Box::new(SzCodec::new()),
        CodecKind::Zfp => Box::new(ZfpCodec::new()),
    }
}
