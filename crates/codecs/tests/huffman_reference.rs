//! The Huffman coder sizes its work by the symbols present and decodes
//! through a primary lookup table. The dense-alphabet coder it replaced —
//! heap-built lengths over a frequency array as long as the largest symbol,
//! and a decoder that reads one bit at a time — is kept verbatim below as
//! the reference: encoded bytes and code lengths must be identical, and
//! decoding any input must give the same `Ok` or `Err`.

use proptest::prelude::*;
use zmesh_bitstream::{BitReader, BitWriter};
use zmesh_codecs::lossless::huffman;
use zmesh_codecs::sz::quantizer::{ESCAPE, RADIUS};
use zmesh_codecs::CodecError;

mod reference {
    //! The previous `huffman.rs`, with the crate-private LEB128 helpers it
    //! used copied in.

    use super::*;

    pub const MAX_CODE_LEN: u32 = 32;

    mod varint {
        use super::CodecError;

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

        pub fn read_u64(buf: &[u8], pos: &mut usize) -> Result<u64, CodecError> {
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

        pub fn read_bytes<'a>(
            buf: &'a [u8],
            pos: &mut usize,
            n: usize,
        ) -> Result<&'a [u8], CodecError> {
            let bytes = buf
                .get(*pos..*pos + n)
                .ok_or(CodecError::Corrupt("bytes past end"))?;
            *pos += n;
            Ok(bytes)
        }
    }

    pub fn code_lengths(freqs: &[u64]) -> Vec<u32> {
        let mut freqs = freqs.to_vec();
        loop {
            let lens = unrestricted_code_lengths(&freqs);
            if lens.iter().all(|&l| l <= MAX_CODE_LEN) {
                return lens;
            }
            for f in freqs.iter_mut().filter(|f| **f > 0) {
                *f = (*f / 2).max(1);
            }
        }
    }

    fn unrestricted_code_lengths(freqs: &[u64]) -> Vec<u32> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        let present: Vec<usize> = (0..freqs.len()).filter(|&s| freqs[s] > 0).collect();
        let mut lens = vec![0u32; freqs.len()];
        match present.len() {
            0 => return lens,
            1 => {
                lens[present[0]] = 1;
                return lens;
            }
            _ => {}
        }

        let n = freqs.len();
        let mut parent = vec![usize::MAX; n + present.len()];
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
            present.iter().map(|&s| Reverse((freqs[s], s))).collect();
        let mut next_id = n;
        while heap.len() > 1 {
            let Reverse((fa, a)) = heap.pop().expect("heap len > 1");
            let Reverse((fb, b)) = heap.pop().expect("heap len > 1");
            parent[a] = next_id;
            parent[b] = next_id;
            heap.push(Reverse((fa + fb, next_id)));
            next_id += 1;
        }
        let root = heap.pop().expect("root").0 .1;
        for &s in &present {
            let mut depth = 0;
            let mut node = s;
            while node != root {
                node = parent[node];
                depth += 1;
            }
            lens[s] = depth;
        }
        lens
    }

    fn canonical_codes(lens: &[u32]) -> Vec<(u32, u32)> {
        let mut order: Vec<usize> = (0..lens.len()).filter(|&s| lens[s] > 0).collect();
        order.sort_by_key(|&s| (lens[s], s));
        let mut codes = vec![(0u32, 0u32); lens.len()];
        let mut code = 0u32;
        let mut prev_len = 0u32;
        for &s in &order {
            code <<= lens[s] - prev_len;
            codes[s] = (code, lens[s]);
            prev_len = lens[s];
            code += 1;
        }
        codes
    }

    fn reverse_bits(code: u32, len: u32) -> u32 {
        code.reverse_bits() >> (32 - len)
    }

    pub fn encode(symbols: &[u16]) -> Vec<u8> {
        let max_sym = symbols.iter().copied().max().map_or(0, usize::from);
        let mut freqs = vec![0u64; max_sym + 1];
        for &s in symbols {
            freqs[usize::from(s)] += 1;
        }
        let lens = code_lengths(&freqs);
        let codes = canonical_codes(&lens);

        let mut out = Vec::new();
        varint::write_u64(&mut out, symbols.len() as u64);
        let present: Vec<usize> = (0..lens.len()).filter(|&s| lens[s] > 0).collect();
        varint::write_u64(&mut out, present.len() as u64);
        let mut prev = 0u64;
        for &s in &present {
            varint::write_u64(&mut out, s as u64 - prev);
            out.push(lens[s] as u8);
            prev = s as u64;
        }

        let mut w = BitWriter::with_capacity(symbols.len() / 2);
        for &s in symbols {
            let (code, len) = codes[usize::from(s)];
            w.write_bits(u64::from(reverse_bits(code, len)), len);
        }
        let payload = w.into_bytes();
        varint::write_u64(&mut out, payload.len() as u64);
        out.extend_from_slice(&payload);
        out
    }

    struct CanonicalDecoder {
        first_code: Vec<u32>,
        first_index: Vec<u32>,
        count: Vec<u32>,
        sorted_symbols: Vec<u16>,
        max_len: u32,
    }

    impl CanonicalDecoder {
        fn new(lens_by_symbol: &[(u16, u32)]) -> Result<Self, CodecError> {
            let max_len = lens_by_symbol.iter().map(|&(_, l)| l).max().unwrap_or(0);
            if max_len > MAX_CODE_LEN {
                return Err(CodecError::Corrupt("huffman code length too large"));
            }
            let mut count = vec![0u32; (max_len + 2) as usize];
            for &(_, l) in lens_by_symbol {
                count[l as usize] += 1;
            }
            let mut sorted: Vec<(u16, u32)> = lens_by_symbol.to_vec();
            sorted.sort_by_key(|&(s, l)| (l, s));
            let sorted_symbols: Vec<u16> = sorted.iter().map(|&(s, _)| s).collect();

            let mut first_code = vec![0u32; (max_len + 2) as usize];
            let mut first_index = vec![0u32; (max_len + 2) as usize];
            let mut code = 0u32;
            let mut index = 0u32;
            for len in 1..=max_len {
                code <<= 1;
                first_code[len as usize] = code;
                first_index[len as usize] = index;
                let c = count[len as usize];
                if u64::from(code) + u64::from(c) > (1u64 << len) {
                    return Err(CodecError::Corrupt("huffman table violates Kraft"));
                }
                code += c;
                index += c;
            }
            Ok(Self {
                first_code,
                first_index,
                count,
                sorted_symbols,
                max_len,
            })
        }

        fn decode_one(&self, r: &mut BitReader<'_>) -> Result<u16, CodecError> {
            let mut code = 0u32;
            for len in 1..=self.max_len {
                code = (code << 1)
                    | (r.read_bit()
                        .map_err(|_| CodecError::Corrupt("huffman underrun"))?
                        as u32);
                let c = self.count[len as usize];
                if c > 0 {
                    let first = self.first_code[len as usize];
                    if code < first + c {
                        if code < first {
                            return Err(CodecError::Corrupt("huffman invalid code"));
                        }
                        let idx = self.first_index[len as usize] + (code - first);
                        return Ok(self.sorted_symbols[idx as usize]);
                    }
                }
            }
            Err(CodecError::Corrupt("huffman code exceeds max length"))
        }
    }

    /// As before, except that the output vector's capacity is capped: the
    /// old `Vec::with_capacity(n_symbols)` aborts the test process on a
    /// mangled count. The capacity does not change any result.
    pub fn decode(bytes: &[u8]) -> Result<Vec<u16>, CodecError> {
        let mut pos = 0;
        let n_symbols = varint::read_u64(bytes, &mut pos)? as usize;
        let n_present = varint::read_u64(bytes, &mut pos)? as usize;
        if n_symbols > 0 && n_present == 0 {
            return Err(CodecError::Corrupt("huffman empty table"));
        }
        let mut lens_by_symbol = Vec::with_capacity(n_present.min(1 << 16));
        let mut sym = 0u64;
        for i in 0..n_present {
            let delta = varint::read_u64(bytes, &mut pos)?;
            sym = if i == 0 { delta } else { sym + delta };
            if sym > u64::from(u16::MAX) {
                return Err(CodecError::Corrupt("huffman symbol out of range"));
            }
            let len = *bytes
                .get(pos)
                .ok_or(CodecError::Corrupt("huffman table past end"))?;
            pos += 1;
            if len == 0 {
                return Err(CodecError::Corrupt("huffman zero code length"));
            }
            lens_by_symbol.push((sym as u16, u32::from(len)));
        }
        let payload_len = varint::read_u64(bytes, &mut pos)? as usize;
        let payload = varint::read_bytes(bytes, &mut pos, payload_len)?;

        if n_symbols == 0 {
            return Ok(Vec::new());
        }
        let decoder = CanonicalDecoder::new(&lens_by_symbol)?;
        let mut r = BitReader::new(payload);
        let mut out = Vec::with_capacity(n_symbols.min(1 << 20));
        for _ in 0..n_symbols {
            out.push(decoder.decode_one(&mut r)?);
        }
        Ok(out)
    }
}

/// SplitMix64: the streams below are drawn from a proptest-chosen seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// SZ-like codes: `RADIUS ± g` with `g` geometric (continue with
/// probability `keep`/256), as a smooth stream quantizes.
fn geometric(seed: u64, n: usize, keep: u64) -> Vec<u16> {
    let mut rng = Mix(seed);
    (0..n)
        .map(|_| {
            let mut g = 0i64;
            while rng.next() % 256 < keep && g < 4000 {
                g += 1;
            }
            let sign = if rng.next() & 1 == 0 { 1 } else { -1 };
            (RADIUS + sign * g) as u16
        })
        .collect()
}

/// A valid stream: geometric codes, sometimes with the alphabet's extremes.
fn stream(seed: u64, n: usize, keep: u64, extremes: bool) -> Vec<u16> {
    let mut symbols = geometric(seed, n, keep);
    if extremes {
        let mut rng = Mix(!seed);
        for s in &mut symbols {
            match rng.next() % 32 {
                0 => *s = ESCAPE,
                1 => *s = u16::MAX,
                _ => {}
            }
        }
    }
    symbols
}

fn same_decode(bytes: &[u8]) -> Result<(), TestCaseError> {
    let got = huffman::decode(bytes);
    let want = reference::decode(bytes);
    prop_assert_eq!(got, want, "input {:?}", bytes);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn encode_matches_reference_on_sz_like_codes(
        seed in any::<u64>(),
        n in 0usize..6000,
        keep in 0u64..250,
        extremes in any::<bool>(),
    ) {
        let symbols = stream(seed, n, keep, extremes);
        let bytes = huffman::encode(&symbols);
        prop_assert_eq!(&bytes, &reference::encode(&symbols));
        prop_assert_eq!(huffman::decode(&bytes).unwrap(), symbols);
    }

    #[test]
    fn encode_matches_reference_on_a_wide_uniform_alphabet(
        seed in any::<u64>(),
        n in 0usize..4000,
        width in 1u64..=65536,
    ) {
        let mut rng = Mix(seed);
        let base = rng.next() % (65537 - width);
        let symbols: Vec<u16> = (0..n).map(|_| (base + rng.next() % width) as u16).collect();
        let bytes = huffman::encode(&symbols);
        prop_assert_eq!(&bytes, &reference::encode(&symbols));
        prop_assert_eq!(huffman::decode(&bytes).unwrap(), symbols);
    }

    #[test]
    fn encode_matches_reference_on_one_and_two_symbols(
        a in any::<u16>(),
        b in any::<u16>(),
        n in 1usize..3000,
        seed in any::<u64>(),
    ) {
        let mut rng = Mix(seed);
        let one = vec![a; n];
        let two: Vec<u16> = (0..n).map(|_| if rng.next() & 3 == 0 { b } else { a }).collect();
        for symbols in [one, two] {
            let bytes = huffman::encode(&symbols);
            prop_assert_eq!(&bytes, &reference::encode(&symbols));
            prop_assert_eq!(huffman::decode(&bytes).unwrap(), symbols);
        }
    }

    #[test]
    fn lengths_match_reference_through_the_length_limit(
        depth in 33usize..70,
        extra in prop::collection::vec((0usize..300, 1u64..1_000_000), 0..40),
        seed in any::<u64>(),
    ) {
        // Fibonacci weights deeper than MAX_CODE_LEN force the halving loop;
        // scattered symbols and random weights exercise its tie order.
        let offset = Mix(seed).next() as usize;
        let mut freqs = vec![0u64; 300];
        let (mut a, mut b) = (1u64, 1u64);
        for i in 0..depth {
            freqs[(offset + 7 * i) % 300] = a;
            (a, b) = (b, a + b);
        }
        for &(s, f) in &extra {
            freqs[s] = f;
        }
        let lens = huffman::code_lengths(&freqs);
        prop_assert_eq!(&lens, &reference::code_lengths(&freqs));
        prop_assert!(lens.iter().all(|&l| l <= huffman::MAX_CODE_LEN));
    }

    #[test]
    fn lengths_match_reference_on_dense_tables(
        freqs in prop::collection::vec(prop_oneof![2 => Just(0u64), 3 => 1u64..5, 1 => 1u64..1 << 40], 0..500),
    ) {
        prop_assert_eq!(huffman::code_lengths(&freqs), reference::code_lengths(&freqs));
    }

    #[test]
    fn decode_matches_reference_on_damaged_streams(
        seed in any::<u64>(),
        n in 1usize..400,
        keep in 0u64..250,
        extremes in any::<bool>(),
        flips in prop::collection::vec((any::<usize>(), 0u8..8), 1..4),
        splat in (any::<usize>(), any::<u8>()),
    ) {
        let bytes = reference::encode(&stream(seed, n, keep, extremes));
        // Every truncation.
        for cut in 0..bytes.len() {
            same_decode(&bytes[..cut])?;
        }
        // Bit flips anywhere: counts, table and payload.
        let mut flipped = bytes.clone();
        for &(at, bit) in &flips {
            let at = at % flipped.len();
            flipped[at] ^= 1 << bit;
            same_decode(&flipped)?;
        }
        // A mangled table: one length byte overwritten, which may break
        // Kraft, leave the code incomplete or exceed MAX_CODE_LEN.
        let mut mangled = bytes.clone();
        let at = splat.0 % mangled.len().min(64);
        mangled[at] = splat.1 % 40;
        same_decode(&mangled)?;
    }
}

#[test]
fn incomplete_and_overfull_tables_match_reference() {
    // Hand-built tables: 2 symbols × len 2 (incomplete: "11" is no code),
    // 3 × len 1 (violates Kraft), one len-33 code, duplicate symbols.
    let tables: [&[(u16, u8)]; 4] = [
        &[(3, 2), (9, 2)],
        &[(1, 1), (2, 1), (3, 1)],
        &[(0, 1), (5, 33)],
        &[(4, 1), (4, 1)],
    ];
    for table in tables {
        for payload in [&[0b1111_0000u8, 0x0f][..], &[0x00], &[0xff, 0xff, 0xff]] {
            let mut bytes = vec![6u8, table.len() as u8];
            let mut prev = 0;
            for &(s, len) in table {
                bytes.push((s - prev) as u8);
                bytes.push(len);
                prev = s;
            }
            bytes.push(payload.len() as u8);
            bytes.extend_from_slice(payload);
            assert_eq!(
                huffman::decode(&bytes),
                reference::decode(&bytes),
                "{bytes:?}"
            );
        }
    }
}

/// Pack-chunk-shaped codes: a narrow geometric core around `RADIUS` with
/// a wide geometric tail mixed in for `wide_in_256`/256 of the values.
fn mixed(seed: u64, n: usize, narrow: u64, wide: u64, wide_in_256: u64) -> Vec<u16> {
    let core = geometric(seed, n, narrow);
    let tail = geometric(!seed, n, wide);
    let mut rng = Mix(seed ^ 0x5555);
    core.iter()
        .zip(&tail)
        .map(|(&c, &t)| if rng.next() % 256 < wide_in_256 { t } else { c })
        .collect()
}

/// LEB128, as the stream's counts are written.
fn read_varint(bytes: &[u8], pos: &mut usize) -> u64 {
    let mut value = 0;
    for shift in (0..).step_by(7) {
        let byte = bytes[*pos];
        *pos += 1;
        value |= u64::from(byte & 0x7f) << shift;
        if byte & 0x80 == 0 {
            break;
        }
    }
    value
}

fn write_varint(out: &mut Vec<u8>, mut value: u64) {
    while value >= 0x80 {
        out.push(value as u8 | 0x80);
        value >>= 7;
    }
    out.push(value as u8);
}

/// A valid stream's bytes before its payload-length field, and its payload.
fn split_payload(bytes: &[u8]) -> (&[u8], &[u8]) {
    let mut pos = 0;
    read_varint(bytes, &mut pos);
    for _ in 0..read_varint(bytes, &mut pos) {
        read_varint(bytes, &mut pos);
        pos += 1;
    }
    let header = pos;
    let len = read_varint(bytes, &mut pos) as usize;
    (&bytes[..header], &bytes[pos..pos + len])
}

/// The stream with its payload cut to `cut` bytes and the length field
/// saying so: the decoders run out of bits mid-stream.
fn restated_cut(bytes: &[u8], cut: usize) -> Vec<u8> {
    let (header, payload) = split_payload(bytes);
    let mut out = header.to_vec();
    write_varint(&mut out, cut as u64);
    out.extend_from_slice(&payload[..cut]);
    out
}

/// Decode agrees with the reference on every truncation of `bytes`, on
/// its payload cut short at every `stride`-th byte and the last 16 with the
/// length re-stated, and on `flips` single-bit flips anywhere.
fn same_decode_under_damage(
    bytes: &[u8],
    stride: usize,
    flips: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    for cut in 0..bytes.len() {
        same_decode(&bytes[..cut])?;
    }
    let payload_len = split_payload(bytes).1.len();
    let tail = payload_len.saturating_sub(16);
    for cut in (0..tail).step_by(stride).chain(tail..payload_len) {
        same_decode(&restated_cut(bytes, cut))?;
    }
    let mut rng = Mix(seed);
    for _ in 0..flips {
        let mut flipped = bytes.to_vec();
        let at = rng.next() as usize % flipped.len();
        flipped[at] ^= 1 << (rng.next() % 8);
        same_decode(&flipped)?;
    }
    Ok(())
}

#[test]
fn pack_shaped_chunks_match_reference() {
    // 8,192 codes as a 64 KiB chunk of f64 quantizes: 500-600 symbols
    // present, codes up to 13 bits, a few percent of values coded in more
    // than 11.
    for seed in 0..3 {
        let symbols = mixed(seed, 8192, 190, 254, 40);
        let mut freqs = vec![0u64; 1 << 16];
        for &s in &symbols {
            freqs[usize::from(s)] += 1;
        }
        let lens = huffman::code_lengths(&freqs);
        let present = freqs.iter().filter(|&&f| f > 0).count();
        let long: u64 = (0..1 << 16)
            .filter(|&s| lens[s] > 11)
            .map(|s| freqs[s])
            .sum();
        assert!((500..=600).contains(&present), "{present} present");
        assert_eq!(lens.iter().max(), Some(&13));
        assert!((200..=800).contains(&long), "{long} values in long codes");

        let bytes = huffman::encode(&symbols);
        assert_eq!(bytes, reference::encode(&symbols));
        assert_eq!(huffman::decode(&bytes).unwrap(), symbols);
        same_decode_under_damage(&bytes, 97, 64, seed).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn serve_shaped_chunks_match_reference(
        seed in any::<u64>(),
        narrow in 100u64..230,
        wide_in_256 in 0u64..96,
    ) {
        // 256 codes as a 2 KiB chunk of f64 quantizes.
        let symbols = mixed(seed, 256, narrow, 254, wide_in_256);
        let bytes = huffman::encode(&symbols);
        prop_assert_eq!(&bytes, &reference::encode(&symbols));
        prop_assert_eq!(huffman::decode(&bytes).unwrap(), symbols);
        same_decode_under_damage(&bytes, 1, 32, seed)?;
    }
}

#[test]
fn tables_reaching_max_code_len_match_reference() {
    // Incomplete codes with a code of MAX_CODE_LEN bits: a one-bit code
    // and a 32-bit one, and the deepest chain (lengths 1, 2, ..., 32). Every
    // length past the primary table is present, and the bits no code
    // starts with walk to the reference's errors.
    let chain: Vec<(u16, u8)> = (0..32).map(|s| (s * 3, s as u8 + 1)).collect();
    let tables: [&[(u16, u8)]; 3] = [
        &[(0, 1), (5, 32)],
        &[(1, 2), (2, 2), (9, 3), (70, 32)],
        &chain,
    ];
    let mut rng = Mix(32);
    for table in tables {
        for n_symbols in [1u8, 2, 5, 17, 100] {
            for payload_len in 0..24 {
                let mut bytes = vec![n_symbols, table.len() as u8];
                let mut prev = 0;
                for &(s, len) in table {
                    write_varint(&mut bytes, u64::from(s - prev));
                    bytes.push(len);
                    prev = s;
                }
                bytes.push(payload_len);
                // Runs of ones reach the long codes; random bytes mix them.
                bytes.extend((0..payload_len).map(|i| match i % 3 {
                    0 => 0xff,
                    1 => 0x7f,
                    _ => rng.next() as u8,
                }));
                assert_eq!(
                    huffman::decode(&bytes),
                    reference::decode(&bytes),
                    "{bytes:?}"
                );
            }
        }
    }
}

#[test]
fn complete_codes_of_max_code_len_round_trip() {
    // Fibonacci counts over 33 symbols (9.2 million codes) give the least
    // stream whose complete code reaches MAX_CODE_LEN. Lengths and bytes
    // match the reference's. The reference decoder is not compared: its
    // u32 canonical code counter wraps past the last 32-bit code, so it
    // rejects the stream in release builds and traps in debug ones, as
    // its encoder's does after the last code in debug ones.
    let (mut a, mut b) = (1u64, 1u64);
    let mut freqs = Vec::new();
    let mut symbols = Vec::new();
    for s in 0..33u16 {
        freqs.push(a);
        symbols.extend(std::iter::repeat_n(s * 1000, a as usize));
        (a, b) = (b, a + b);
    }
    let lens = huffman::code_lengths(&freqs);
    assert_eq!(lens, reference::code_lengths(&freqs));
    assert_eq!(lens.iter().max(), Some(&huffman::MAX_CODE_LEN));
    let bytes = huffman::encode(&symbols);
    if !cfg!(debug_assertions) {
        assert_eq!(bytes, reference::encode(&symbols));
    }
    assert_eq!(huffman::decode(&bytes).unwrap(), symbols);
}
