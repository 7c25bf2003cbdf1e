//! Entropy stages for the SZ-style codec's quantization codes: canonical
//! [`huffman`] (SZ's choice and the default) and the adaptive
//! [`rangecoder`] (see [`crate::EntropyCoder`]).
//!
//! The real SZ follows Huffman with a general-purpose lossless pass
//! (zlib/zstd). This codec has none: the stream's back-end tag is always
//! `0` and the payload is stored as Huffman left it.

pub mod huffman;
pub mod rangecoder;
