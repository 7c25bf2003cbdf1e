//! Adaptive binary range coder with bit-tree symbol models (the LZMA
//! construction).
//!
//! An alternative entropy stage for the SZ-style codec: where canonical
//! Huffman needs a table pass and loses up to half a bit per symbol, the
//! range coder adapts online and codes fractional bits — at lower
//! throughput. The A14 ablation quantifies the trade on real streams.
//!
//! * probabilities are 11-bit (`0..2048`), adapted with shift 5;
//! * 16-bit symbols are coded MSB-first through a bit tree, one adaptive
//!   context per tree node.

use crate::CodecError;

const PROB_BITS: u32 = 11;
const PROB_INIT: u16 = 1 << (PROB_BITS - 1);
const MOVE_BITS: u32 = 5;
const TOP: u32 = 1 << 24;

/// Most symbols one byte of coded body can hold. The model never gives a
/// bit more than 2017/2048 (its adaptation stalls there), so each of a
/// symbol's 16 decisions costs at least log2(2048/2017) bits: ≥ 0.35 bits a
/// symbol, < 23 symbols a byte.
const MAX_SYMBOLS_PER_BYTE: usize = 23;

/// Binary range encoder (carry-correct, LZMA style).
pub struct RangeEncoder {
    low: u64,
    range: u32,
    cache: u8,
    cache_size: u64,
    out: Vec<u8>,
}

impl Default for RangeEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl RangeEncoder {
    /// Fresh encoder.
    pub fn new() -> Self {
        Self {
            low: 0,
            range: u32::MAX,
            cache: 0,
            cache_size: 1,
            out: Vec::new(),
        }
    }

    /// Encodes one bit under the adaptive probability `prob` (of the bit
    /// being 0), updating the model.
    #[inline]
    pub fn encode_bit(&mut self, prob: &mut u16, bit: bool) {
        let bound = (self.range >> PROB_BITS) * u32::from(*prob);
        if !bit {
            self.range = bound;
            *prob += (((1 << PROB_BITS) - u32::from(*prob)) >> MOVE_BITS) as u16;
        } else {
            self.low += u64::from(bound);
            self.range -= bound;
            *prob -= (u32::from(*prob) >> MOVE_BITS) as u16;
        }
        while self.range < TOP {
            self.shift_low();
            self.range <<= 8;
        }
    }

    #[inline]
    fn shift_low(&mut self) {
        if self.low < 0xff00_0000 || self.low > 0xffff_ffff {
            let carry = (self.low >> 32) as u8;
            let mut first = true;
            while self.cache_size > 0 {
                let byte = if first {
                    first = false;
                    self.cache.wrapping_add(carry)
                } else {
                    0xffu8.wrapping_add(carry)
                };
                self.out.push(byte);
                self.cache_size -= 1;
            }
            self.cache = ((self.low >> 24) & 0xff) as u8;
        }
        self.cache_size += 1;
        self.low = (self.low << 8) & 0xffff_ffff;
    }

    /// Flushes and returns the coded bytes.
    pub fn finish(mut self) -> Vec<u8> {
        for _ in 0..5 {
            self.shift_low();
        }
        self.out
    }
}

/// Binary range decoder.
pub struct RangeDecoder<'a> {
    range: u32,
    code: u32,
    data: &'a [u8],
    pos: usize,
    /// Whether decoding has read past the coded bytes. The encoder's flush
    /// writes every byte its decoder reads, so only a damaged stream does.
    overrun: bool,
}

impl<'a> RangeDecoder<'a> {
    /// Wraps coded bytes (skips the initial pad byte).
    pub fn new(data: &'a [u8]) -> Result<Self, CodecError> {
        if data.len() < 5 {
            return Err(CodecError::Corrupt("range-coded stream too short"));
        }
        let mut d = Self {
            range: u32::MAX,
            code: 0,
            data,
            pos: 1, // first byte is always 0 (cache pad)
            overrun: false,
        };
        for _ in 0..4 {
            d.code = (d.code << 8) | u32::from(d.next_byte());
        }
        Ok(d)
    }

    #[inline]
    fn next_byte(&mut self) -> u8 {
        let b = self.data.get(self.pos).copied();
        self.overrun |= b.is_none();
        self.pos += 1;
        b.unwrap_or(0)
    }

    /// Whether decoding has read past the end of the coded bytes, which no
    /// stream [`RangeEncoder::finish`] wrote ever does.
    pub fn overrun(&self) -> bool {
        self.overrun
    }

    /// Decodes one bit, updating the model like the encoder did.
    #[inline]
    pub fn decode_bit(&mut self, prob: &mut u16) -> bool {
        let bound = (self.range >> PROB_BITS) * u32::from(*prob);
        let bit = if self.code < bound {
            self.range = bound;
            *prob += (((1 << PROB_BITS) - u32::from(*prob)) >> MOVE_BITS) as u16;
            false
        } else {
            self.code -= bound;
            self.range -= bound;
            *prob -= (u32::from(*prob) >> MOVE_BITS) as u16;
            true
        };
        while self.range < TOP {
            self.code = (self.code << 8) | u32::from(self.next_byte());
            self.range <<= 8;
        }
        bit
    }
}

/// Bit-tree model for 16-bit symbols: one adaptive context per node.
pub struct SymbolModel {
    probs: Vec<u16>,
}

impl Default for SymbolModel {
    fn default() -> Self {
        Self::new()
    }
}

impl SymbolModel {
    /// Fresh model (all contexts at ½).
    pub fn new() -> Self {
        Self {
            probs: vec![PROB_INIT; 1 << 16],
        }
    }

    /// Encodes a symbol MSB-first down the tree.
    pub fn encode(&mut self, enc: &mut RangeEncoder, symbol: u16) {
        let mut m = 1usize;
        for i in (0..16).rev() {
            let bit = (symbol >> i) & 1 != 0;
            enc.encode_bit(&mut self.probs[m], bit);
            m = (m << 1) | usize::from(bit);
        }
    }

    /// Decodes a symbol.
    pub fn decode(&mut self, dec: &mut RangeDecoder<'_>) -> u16 {
        let mut m = 1usize;
        for _ in 0..16 {
            let bit = dec.decode_bit(&mut self.probs[m]);
            m = (m << 1) | usize::from(bit);
        }
        (m & 0xffff) as u16
    }
}

/// Encodes a symbol stream; self-describing buffer.
pub fn encode(symbols: &[u16]) -> Vec<u8> {
    let mut out = Vec::new();
    crate::varint::write_u64(&mut out, symbols.len() as u64);
    if symbols.is_empty() {
        return out;
    }
    let mut enc = RangeEncoder::new();
    let mut model = SymbolModel::new();
    for &s in symbols {
        model.encode(&mut enc, s);
    }
    let body = enc.finish();
    crate::varint::write_u64(&mut out, body.len() as u64);
    out.extend_from_slice(&body);
    out
}

/// Decodes a buffer produced by [`encode`].
pub fn decode(bytes: &[u8]) -> Result<Vec<u16>, CodecError> {
    let mut pos = 0;
    let n = crate::varint::read_u64(bytes, &mut pos)? as usize;
    if n == 0 {
        return Ok(Vec::new());
    }
    let blen = crate::varint::read_u64(bytes, &mut pos)? as usize;
    let body = crate::varint::read_bytes(bytes, &mut pos, blen)?;
    // The count is untrusted: bound it by what the body can hold before
    // it sizes the output.
    if n > body.len().saturating_mul(MAX_SYMBOLS_PER_BYTE) {
        return Err(CodecError::Corrupt("range-coded count exceeds body"));
    }
    let mut dec = RangeDecoder::new(body)?;
    let mut model = SymbolModel::new();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(model.decode(&mut dec));
        if dec.overrun() {
            return Err(CodecError::Corrupt("range-coded stream overrun"));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(symbols: &[u16]) -> usize {
        let enc = encode(symbols);
        assert_eq!(decode(&enc).unwrap(), symbols);
        enc.len()
    }

    #[test]
    fn decoding_reads_no_byte_past_the_flush() {
        // The tightest streams: one symbol over and over, at every length
        // across the model's adaptation, plus the skewed and random ones.
        let mut streams: Vec<Vec<u16>> = (1..600).map(|n| vec![0; n]).collect();
        streams.push(vec![u16::MAX; 100_000]);
        streams.push((0..5000u32).map(|i| (i * 0x9e37) as u16).collect());
        for symbols in streams {
            let enc = encode(&symbols);
            let mut pos = 0;
            crate::varint::read_u64(&enc, &mut pos).unwrap();
            let blen = crate::varint::read_u64(&enc, &mut pos).unwrap() as usize;
            let body = &enc[pos..pos + blen];
            let mut dec = RangeDecoder::new(body).unwrap();
            let mut model = SymbolModel::new();
            for &s in &symbols {
                assert_eq!(model.decode(&mut dec), s);
            }
            assert!(!dec.overrun(), "{} symbols", symbols.len());
            assert_eq!(dec.pos, body.len(), "{} symbols", symbols.len());
            assert!(symbols.len() <= body.len() * MAX_SYMBOLS_PER_BYTE);
        }
    }

    #[test]
    fn hostile_counts_and_bodies_are_corrupt() {
        // A count far beyond what the body can hold never sizes an output.
        let mut blob = Vec::new();
        crate::varint::write_u64(&mut blob, 1 << 40);
        crate::varint::write_u64(&mut blob, 5);
        blob.extend_from_slice(&[0, 1, 2, 3, 4]);
        assert!(matches!(decode(&blob), Err(CodecError::Corrupt(_))));
        // A count the body could hold, but whose decode runs off its end.
        let symbols: Vec<u16> = (0..1000u32).map(|i| (i * 0x9e37) as u16).collect();
        let enc = encode(&symbols);
        let mut blob = Vec::new();
        crate::varint::write_u64(&mut blob, 2000);
        blob.extend_from_slice(&enc[2..]);
        assert_eq!(
            decode(&blob),
            Err(CodecError::Corrupt("range-coded stream overrun"))
        );
    }

    #[test]
    fn basic_round_trips() {
        round_trip(&[]);
        round_trip(&[0]);
        round_trip(&[u16::MAX]);
        round_trip(&[1, 2, 3, 4, 5]);
        round_trip(&vec![32768; 1000]);
        round_trip(&(0..=u16::MAX).step_by(101).collect::<Vec<_>>());
    }

    #[test]
    fn skewed_streams_compress_hard() {
        // 99% one symbol: adaptive coding approaches the entropy (~0.08 bpc).
        let symbols: Vec<u16> = (0..20_000)
            .map(|i| if i % 100 == 0 { 7 } else { 32768 })
            .collect();
        let size = round_trip(&symbols);
        assert!(size < 20_000 / 4, "size = {size}");
    }

    #[test]
    fn beats_worst_case_on_random() {
        let mut s = 3u64;
        let symbols: Vec<u16> = (0..5000)
            .map(|_| {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                (s >> 48) as u16
            })
            .collect();
        let size = round_trip(&symbols);
        // Random 16-bit symbols cost ~2 bytes each plus adaptation overhead.
        assert!(size < 5000 * 3, "size = {size}");
    }

    #[test]
    fn adaptive_model_tracks_drift() {
        // Symbol distribution shifts mid-stream; adaptation keeps both
        // halves cheap, unlike a single static table.
        let mut symbols = vec![100u16; 10_000];
        symbols.extend(vec![200u16; 10_000]);
        let size = round_trip(&symbols);
        assert!(size < 2000, "size = {size}");
    }

    #[test]
    fn truncated_streams_error_or_mismatch() {
        let symbols: Vec<u16> = (0..100).map(|i| i as u16 * 3).collect();
        let enc = encode(&symbols);
        // Cutting the body off is detected by the length framing.
        assert!(decode(&enc[..4]).is_err());
    }

    #[test]
    fn carry_propagation_is_correct() {
        // Streams engineered to produce long 0xff runs (carry stress):
        // alternate extreme symbols so low hovers near the carry boundary.
        let symbols: Vec<u16> = (0..4096)
            .map(|i| if i % 2 == 0 { 0xffff } else { 0x0000 })
            .collect();
        round_trip(&symbols);
        let symbols: Vec<u16> = (0..4096).map(|i| (i * 0x9e37) as u16).collect();
        round_trip(&symbols);
    }
}
