//! LEB128 varint helpers for compact stream headers.

use crate::CodecError;

/// Appends `value` as a LEB128 varint.
pub fn write_u64(buf: &mut Vec<u8>, mut value: u64) {
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

/// Bytes [`write_u64`] appends for `value`.
pub fn len_u64(value: u64) -> usize {
    (64 - value.leading_zeros()).max(1).div_ceil(7) as usize
}

/// Reads a LEB128 varint starting at `*pos`, advancing `*pos`.
#[inline]
pub fn read_u64(buf: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
    // One-byte values, most table entries, skip the loop.
    if let Some(&byte) = buf.get(*pos).filter(|&&b| b < 0x80) {
        *pos += 1;
        return Ok(u64::from(byte));
    }
    let mut value = 0u64;
    let mut shift = 0u32;
    loop {
        let byte = *buf
            .get(*pos)
            .ok_or(CodecError::Corrupt("varint past end"))?;
        *pos += 1;
        if shift >= 64 || (shift == 63 && byte > 1) {
            return Err(CodecError::Corrupt("varint overflow"));
        }
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            return Ok(value);
        }
        shift += 7;
    }
}

/// Appends an `f64` as little-endian bits.
pub fn write_f64(buf: &mut Vec<u8>, value: f64) {
    buf.extend_from_slice(&value.to_le_bytes());
}

/// Reads an `f64` written by [`write_f64`].
pub fn read_f64(buf: &[u8], pos: &mut usize) -> Result<f64, CodecError> {
    let bytes = buf
        .get(*pos..*pos + 8)
        .ok_or(CodecError::Corrupt("f64 past end"))?;
    *pos += 8;
    Ok(f64::from_le_bytes(bytes.try_into().expect("8 bytes")))
}

/// Appends an `f32` as little-endian bits.
pub fn write_f32(buf: &mut Vec<u8>, value: f32) {
    buf.extend_from_slice(&value.to_le_bytes());
}

/// Reads an `f32` written by [`write_f32`].
pub fn read_f32(buf: &[u8], pos: &mut usize) -> Result<f32, CodecError> {
    let bytes = buf
        .get(*pos..*pos + 4)
        .ok_or(CodecError::Corrupt("f32 past end"))?;
    *pos += 4;
    Ok(f32::from_le_bytes(bytes.try_into().expect("4 bytes")))
}

/// Reads exactly `n` bytes.
pub fn read_bytes<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], CodecError> {
    let bytes = pos
        .checked_add(n)
        .and_then(|end| buf.get(*pos..end))
        .ok_or(CodecError::Corrupt("bytes past end"))?;
    *pos += n;
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_round_trip() {
        let values = [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX, u64::MAX - 1];
        let mut buf = Vec::new();
        for &v in &values {
            let before = buf.len();
            write_u64(&mut buf, v);
            assert_eq!(buf.len() - before, len_u64(v), "{v}");
        }
        let mut pos = 0;
        for &v in &values {
            assert_eq!(read_u64(&buf, &mut pos).unwrap(), v);
        }
        assert_eq!(pos, buf.len());
    }

    #[test]
    fn varint_truncation_is_an_error() {
        let mut buf = Vec::new();
        write_u64(&mut buf, u64::MAX);
        buf.pop();
        let mut pos = 0;
        assert!(read_u64(&buf, &mut pos).is_err());
    }

    #[test]
    fn varint_overflow_is_an_error() {
        // 11 continuation bytes encode more than 64 bits.
        let buf = vec![0xff; 11];
        let mut pos = 0;
        assert!(read_u64(&buf, &mut pos).is_err());
    }

    #[test]
    fn f64_round_trip() {
        let mut buf = Vec::new();
        for v in [0.0, -1.5, f64::MAX, f64::MIN_POSITIVE, f64::NEG_INFINITY] {
            write_f64(&mut buf, v);
        }
        let mut pos = 0;
        for v in [0.0, -1.5, f64::MAX, f64::MIN_POSITIVE, f64::NEG_INFINITY] {
            assert_eq!(read_f64(&buf, &mut pos).unwrap(), v);
        }
    }
}
