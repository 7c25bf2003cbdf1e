//! Gorilla-style XOR compression for `f64` streams (Pelkonen et al.,
//! *Gorilla: A Fast, Scalable, In-Memory Time Series Database*, VLDB 2015).
//!
//! Each value is XORed with its predecessor; the nonzero window of the XOR
//! is encoded with a reusable leading-zeros/length header. Smooth streams
//! have small XOR windows, so — like the lossy codecs — this coder benefits
//! directly from zMesh's reordering, which the evaluation's lossless
//! experiment (T12) measures. T12 is its only user, so it lives here
//! rather than in the codecs library.
//!
//! Wire format per value (after the first, which is stored raw):
//! * `0` — identical to the previous value;
//! * `10` — XOR fits the previous (leading, length) window: emit `length`
//!   significant bits;
//! * `11` — new window: 6 bits leading-zero count, 6 bits `length - 1`,
//!   then `length` significant bits.

use zmesh_bitstream::{BitReader, BitWriter};
use zmesh_codecs::CodecError;

/// Appends `value` as a LEB128 varint.
fn write_varint(buf: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        buf.push(value as u8 | 0x80);
        value >>= 7;
    }
    buf.push(value as u8);
}

/// Reads a LEB128 varint at `*pos`, advancing it.
fn read_varint(buf: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    let mut value = 0u64;
    for shift in (0..64).step_by(7) {
        let byte = *buf
            .get(*pos)
            .ok_or(CodecError::Corrupt("varint past end"))?;
        *pos += 1;
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
    }
    Err(CodecError::Corrupt("varint overflow"))
}

/// Compresses a stream losslessly. Self-describing buffer.
pub fn compress(data: &[f64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(data.len() + 16);
    write_varint(&mut out, data.len() as u64);
    if data.is_empty() {
        return out;
    }
    let mut w = BitWriter::with_capacity(data.len() * 5);
    w.write_bits(data[0].to_bits(), 64);
    let mut prev = data[0].to_bits();
    let mut lead: u32 = u32::MAX; // no window yet
    let mut len: u32 = 0;
    for &v in &data[1..] {
        let bits = v.to_bits();
        let xor = bits ^ prev;
        prev = bits;
        if xor == 0 {
            w.write_bit(false);
            continue;
        }
        w.write_bit(true);
        let l = xor.leading_zeros().min(63);
        let t = xor.trailing_zeros();
        let sig = 64 - l - t;
        // Reuse the previous window when the new XOR's nonzero bits fit
        // inside it: at least as many leading zeros, and at least as many
        // trailing zeros as the window's.
        if lead != u32::MAX && l >= lead && t >= 64 - lead - len {
            w.write_bit(false);
            w.write_bits(xor >> (64 - lead - len), len);
        } else {
            w.write_bit(true);
            lead = l;
            len = sig;
            w.write_bits(u64::from(lead), 6);
            w.write_bits(u64::from(len - 1), 6);
            w.write_bits(xor >> t, len);
        }
    }
    let payload = w.into_bytes();
    write_varint(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    out
}

/// Decompresses a buffer produced by [`compress`].
pub fn decompress(bytes: &[u8]) -> Result<Vec<f64>, CodecError> {
    let mut pos = 0;
    let n = read_varint(bytes, &mut pos)? as usize;
    if n == 0 {
        return Ok(Vec::new());
    }
    let payload_len = read_varint(bytes, &mut pos)? as usize;
    let payload = pos
        .checked_add(payload_len)
        .and_then(|end| bytes.get(pos..end))
        .ok_or(CodecError::Corrupt("bytes past end"))?;
    let mut r = BitReader::new(payload);
    let err = |_| CodecError::Corrupt("gorilla stream underrun");
    let mut prev = r.read_bits(64).map_err(err)?;
    let mut out = Vec::with_capacity(n);
    out.push(f64::from_bits(prev));
    let mut lead: u32 = 0;
    let mut len: u32 = 0;
    for _ in 1..n {
        if !r.read_bit().map_err(err)? {
            out.push(f64::from_bits(prev));
            continue;
        }
        if r.read_bit().map_err(err)? {
            lead = r.read_bits(6).map_err(err)? as u32;
            len = r.read_bits(6).map_err(err)? as u32 + 1;
        } else if len == 0 {
            return Err(CodecError::Corrupt(
                "gorilla window reuse before definition",
            ));
        }
        let sig = r.read_bits(len).map_err(err)?;
        let xor = sig << (64 - lead - len);
        prev ^= xor;
        out.push(f64::from_bits(prev));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn round_trip(data: &[f64]) -> usize {
        let c = compress(data);
        let d = decompress(&c).expect("decompress");
        assert_eq!(d.len(), data.len());
        for (a, b) in data.iter().zip(&d) {
            assert_eq!(a.to_bits(), b.to_bits(), "bit-exactness violated");
        }
        c.len()
    }

    #[test]
    fn basic_round_trips() {
        round_trip(&[]);
        round_trip(&[1.0]);
        round_trip(&[0.0; 100]);
        round_trip(&[1.0, 1.0, 1.0, 2.0, 2.0]);
        round_trip(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 5e-324]);
    }

    #[test]
    fn nan_payloads_are_preserved_bitwise() {
        let weird = f64::from_bits(0x7ff8_dead_beef_cafe);
        let c = compress(&[1.0, weird, 1.0]);
        let d = decompress(&c).unwrap();
        assert_eq!(d[1].to_bits(), 0x7ff8_dead_beef_cafe);
    }

    #[test]
    fn smooth_streams_compress() {
        let data: Vec<f64> = (0..10_000).map(|i| 1000.0 + i as f64).collect();
        let size = round_trip(&data);
        assert!(size < data.len() * 8 / 2, "size = {size}");
    }

    #[test]
    fn constant_streams_are_tiny() {
        let data = vec![std::f64::consts::PI; 10_000];
        let size = round_trip(&data);
        assert!(size < 1400, "size = {size}"); // ~1 bit per repeat
    }

    #[test]
    fn random_streams_round_trip_with_bounded_expansion() {
        let mut seed = 7u64;
        let data: Vec<f64> = (0..5000)
            .map(|_| {
                seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                f64::from_bits(seed | 0x3ff0_0000_0000_0000) // valid exponent
            })
            .collect();
        let size = round_trip(&data);
        // Worst case ~ 64 + 14 bits per value.
        assert!(size < data.len() * 10 + 64);
    }

    #[test]
    fn truncated_stream_errors() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin()).collect();
        let c = compress(&data);
        for cut in [1, 5, c.len() / 2, c.len() - 1] {
            assert!(decompress(&c[..cut]).is_err(), "cut = {cut}");
        }
    }

    #[test]
    fn smoother_stream_compresses_better() {
        let smooth: Vec<f64> = (0..8192).map(|i| (i as f64 * 0.001).sin()).collect();
        let mut shuffled = smooth.clone();
        // Deterministic shuffle.
        let mut s = 99u64;
        for i in (1..shuffled.len()).rev() {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            shuffled.swap(i, (s % (i as u64 + 1)) as usize);
        }
        let a = round_trip(&smooth);
        let b = round_trip(&shuffled);
        assert!(a < b, "smooth {a} !< shuffled {b}");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn gorilla_round_trips_bitwise(
            data in prop::collection::vec(any::<f64>(), 0..400)
        ) {
            let c = compress(&data);
            let d = decompress(&c).unwrap();
            prop_assert_eq!(d.len(), data.len());
            for (a, b) in data.iter().zip(&d) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }
}
