//! PackBits-style run-length encoding.
//!
//! Control byte `c`:
//! * `0..=127` — literal run: the next `c + 1` bytes are copied verbatim;
//! * `129..=255` — repeat run: the next byte repeats `257 - c` times
//!   (i.e. 2..=128 repetitions);
//! * `128` — unused (reserved), treated as corrupt input.

use crate::CodecError;

/// Most output bytes one body byte can produce: a 2-byte repeat run
/// yields 128.
const MAX_EXPANSION: usize = 64;

/// Compresses `data`, appending to `out`.
pub fn compress_into(data: &[u8], out: &mut Vec<u8>) {
    let mut i = 0;
    while i < data.len() {
        // Measure the run starting at i.
        let b = data[i];
        let mut run = 1;
        while run < 128 && i + run < data.len() && data[i + run] == b {
            run += 1;
        }
        if run >= 2 {
            out.push((257 - run) as u8);
            out.push(b);
            i += run;
            continue;
        }
        // Literal run: scan forward until a 2+-byte repeat begins or 128 max.
        let start = i;
        i += 1;
        while i < data.len() && i - start < 128 {
            if i + 1 < data.len() && data[i] == data[i + 1] {
                break;
            }
            i += 1;
        }
        out.push((i - start - 1) as u8);
        out.extend_from_slice(&data[start..i]);
    }
}

/// Decompresses a PackBits body; `expected_len` is the stored original size.
pub fn decompress(body: &[u8], expected_len: usize) -> Result<Vec<u8>, CodecError> {
    // Untrusted length: reserve no more than the body can expand to; a
    // larger claim fails the length check below.
    let mut out = Vec::with_capacity(expected_len.min(body.len().saturating_mul(MAX_EXPANSION)));
    let mut i = 0;
    while i < body.len() {
        let c = body[i];
        i += 1;
        if c < 128 {
            let n = usize::from(c) + 1;
            let lit = body
                .get(i..i + n)
                .ok_or(CodecError::Corrupt("rle literal past end"))?;
            out.extend_from_slice(lit);
            i += n;
        } else if c == 128 {
            return Err(CodecError::Corrupt("rle reserved control byte"));
        } else {
            let n = 257 - usize::from(c);
            let b = *body
                .get(i)
                .ok_or(CodecError::Corrupt("rle repeat past end"))?;
            i += 1;
            out.resize(out.len() + n, b);
        }
        if out.len() > expected_len {
            return Err(CodecError::Corrupt("rle output exceeds stored length"));
        }
    }
    if out.len() != expected_len {
        return Err(CodecError::Corrupt("rle output shorter than stored length"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let mut c = Vec::new();
        compress_into(data, &mut c);
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn basic_round_trips() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"aaaaaaa");
        round_trip(b"abcdef");
        round_trip(b"aabbaabbccdd");
        round_trip(&[0u8; 1000]);
        round_trip(&(0..=255u8).collect::<Vec<_>>());
    }

    #[test]
    fn long_runs_are_split_at_128() {
        let data = vec![9u8; 300];
        let mut c = Vec::new();
        compress_into(&data, &mut c);
        // 300 = 128 + 128 + 44 -> 3 control+byte pairs.
        assert_eq!(c.len(), 6);
        assert_eq!(decompress(&c, 300).unwrap(), data);
    }

    #[test]
    fn incompressible_data_expands_bounded() {
        let data: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        let mut c = Vec::new();
        compress_into(&data, &mut c);
        // Worst case is 1 control byte per 128 literals.
        assert!(c.len() <= data.len() + data.len() / 128 + 2);
        assert_eq!(decompress(&c, data.len()).unwrap(), data);
    }

    #[test]
    fn corrupt_streams_error() {
        assert!(decompress(&[5, 1, 2], 6).is_err()); // literal past end
        assert!(decompress(&[200], 10).is_err()); // repeat byte missing
        assert!(decompress(&[128, 0], 1).is_err()); // reserved control
        assert!(decompress(&[0, 7], 5).is_err()); // shorter than stored
    }
}
