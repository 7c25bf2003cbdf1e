//! LZSS with a 32 KiB sliding window and hash-chain matching.
//!
//! Token stream (bit-level, LSB-first via `zmesh-bitstream`):
//! * flag `0` — literal: 8 bits;
//! * flag `1` — match: 15-bit distance (1-based), 8-bit length − `MIN_MATCH`
//!   (lengths `MIN_MATCH..=MAX_MATCH`, i.e. 4..=259).

use crate::CodecError;
use zmesh_bitstream::{BitReader, BitWriter};

const WINDOW: usize = 1 << 15;
const MIN_MATCH: usize = 4;
const MAX_MATCH: usize = MIN_MATCH + 255;
/// Most output bytes one body byte can produce: a 24-bit match token
/// yields `MAX_MATCH`.
const MAX_EXPANSION: usize = MAX_MATCH.div_ceil(3);
const HASH_BITS: u32 = 15;

#[inline]
fn hash4(data: &[u8], i: usize) -> usize {
    let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Compresses `data`, appending the bit-packed token stream to `out`.
pub fn compress_into(data: &[u8], out: &mut Vec<u8>) {
    let mut w = BitWriter::with_capacity(data.len() / 2 + 16);
    let mut head = vec![usize::MAX; 1 << HASH_BITS];
    let mut prev = vec![usize::MAX; data.len()];
    let mut i = 0;
    while i < data.len() {
        let mut best_len = 0;
        let mut best_dist = 0;
        if i + MIN_MATCH <= data.len() {
            let h = hash4(data, i);
            let mut cand = head[h];
            let mut chain = 0;
            while cand != usize::MAX && i - cand <= WINDOW && chain < 64 {
                let max_len = (data.len() - i).min(MAX_MATCH);
                let mut l = 0;
                while l < max_len && data[cand + l] == data[i + l] {
                    l += 1;
                }
                if l > best_len {
                    best_len = l;
                    best_dist = i - cand;
                    if l == max_len {
                        break;
                    }
                }
                cand = prev[cand];
                chain += 1;
            }
        }
        if best_len >= MIN_MATCH {
            w.write_bit(true);
            w.write_bits((best_dist - 1) as u64, 15);
            w.write_bits((best_len - MIN_MATCH) as u64, 8);
            // Insert all covered positions into the hash chains. The loop
            // variable is a stream position, not an index into one slice,
            // so a range loop is the clear form here.
            #[allow(clippy::needless_range_loop)]
            for j in i..(i + best_len).min(data.len().saturating_sub(MIN_MATCH - 1)) {
                let h = hash4(data, j);
                prev[j] = head[h];
                head[h] = j;
            }
            i += best_len;
        } else {
            w.write_bit(false);
            w.write_bits(u64::from(data[i]), 8);
            if i + MIN_MATCH <= data.len() {
                let h = hash4(data, i);
                prev[i] = head[h];
                head[h] = i;
            }
            i += 1;
        }
    }
    out.extend_from_slice(&w.into_bytes());
}

/// Decompresses an LZSS body; `expected_len` is the stored original size.
pub fn decompress(body: &[u8], expected_len: usize) -> Result<Vec<u8>, CodecError> {
    let mut r = BitReader::new(body);
    // Untrusted length: reserve no more than the body can expand to; a
    // larger claim runs out of flags below.
    let mut out: Vec<u8> =
        Vec::with_capacity(expected_len.min(body.len().saturating_mul(MAX_EXPANSION)));
    while out.len() < expected_len {
        let is_match = r
            .read_bit()
            .map_err(|_| CodecError::Corrupt("lzss flag past end"))?;
        if is_match {
            let dist = r
                .read_bits(15)
                .map_err(|_| CodecError::Corrupt("lzss dist past end"))?
                as usize
                + 1;
            let len = r
                .read_bits(8)
                .map_err(|_| CodecError::Corrupt("lzss len past end"))?
                as usize
                + MIN_MATCH;
            if dist > out.len() {
                return Err(CodecError::Corrupt("lzss distance exceeds output"));
            }
            if out.len() + len > expected_len {
                return Err(CodecError::Corrupt("lzss output exceeds stored length"));
            }
            // Overlapping copies are the point (dist < len repeats a
            // pattern), so this must be a byte-at-a-time self-copy.
            let start = out.len() - dist;
            for src in start..start + len {
                let b = out[src];
                out.push(b);
            }
        } else {
            let b = r
                .read_bits(8)
                .map_err(|_| CodecError::Corrupt("lzss literal past end"))?
                as u8;
            out.push(b);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let mut c = Vec::new();
        compress_into(data, &mut c);
        assert_eq!(decompress(&c, data.len()).unwrap(), data, "{data:?}");
    }

    #[test]
    fn basic_round_trips() {
        round_trip(b"");
        round_trip(b"x");
        round_trip(b"abcd");
        round_trip(b"aaaaaaaaaaaaaaaa");
        round_trip(b"the quick brown fox jumps over the lazy dog");
        round_trip(&b"abcabcabcabc".repeat(50));
        round_trip(&(0..=255u8).collect::<Vec<_>>());
    }

    #[test]
    fn overlapping_match_round_trips() {
        // "ababab..." forces dist=2, len>2 overlapping copies.
        let data: Vec<u8> = (0..500)
            .map(|i| if i % 2 == 0 { b'a' } else { b'b' })
            .collect();
        round_trip(&data);
    }

    #[test]
    fn long_match_cap() {
        let data = vec![5u8; MAX_MATCH * 3 + 7];
        round_trip(&data);
    }

    #[test]
    fn repetitive_text_compresses_well() {
        let data = b"zmesh reorders amr level data; ".repeat(100);
        let mut c = Vec::new();
        compress_into(&data, &mut c);
        assert!(c.len() < data.len() / 5, "{} vs {}", c.len(), data.len());
    }

    #[test]
    fn corrupt_distance_errors() {
        // Hand-craft: one match token with dist beyond empty output.
        let mut w = zmesh_bitstream::BitWriter::new();
        w.write_bit(true);
        w.write_bits(100, 15);
        w.write_bits(0, 8);
        let body = w.into_bytes();
        assert!(decompress(&body, 10).is_err());
    }
}
