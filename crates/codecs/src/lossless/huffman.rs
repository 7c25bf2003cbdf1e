//! Canonical Huffman coding over `u16` symbols.
//!
//! This is the entropy coder behind the SZ-style codec: quantization codes
//! concentrate on a few symbols when the stream is smooth (exactly the effect
//! zMesh's reordering amplifies), so Huffman converts smoothness into ratio.
//!
//! The table is transmitted as canonical code lengths only. Code lengths are
//! limited to [`MAX_CODE_LEN`] by iterative frequency flattening, which keeps
//! the decoder's canonical tables small.
//!
//! Both directions cost O(input + present symbols), never O(alphabet): a
//! chunk of SZ codes uses a few hundred of the 2^16 symbols. The encoder
//! counts into a pooled symbol table and clears only the entries it touched,
//! then builds lengths with a two-queue merge over the present symbols. The
//! decoder resolves codes of up to 11 bits with one table lookup and
//! walks longer codes bit by bit.

use crate::{varint, CodecError};
use std::sync::Mutex;

/// Upper limit on code length; 32 suffices for any realistic distribution.
pub const MAX_CODE_LEN: u32 = 32;

/// Stream bits the decoder's primary table resolves in one lookup.
const PRIMARY_BITS: u32 = 11;

/// Low bits of a packed code-table entry that hold the code length; the
/// bit-reversed code sits above them.
const LEN_BITS: u32 = 6;
const LEN_MASK: u64 = (1 << LEN_BITS) - 1;

/// Idle symbol tables: one `u64` per possible symbol (512 KiB), all zero.
/// [`encode`] holds one for the call: symbol counts while it builds the
/// histogram, then each present symbol's packed code. Tables are pooled
/// rather than per thread because encoders often run on short-lived scoped
/// worker threads; the pool grows to the largest number of encodes that
/// ever ran at once.
static IDLE_TABLES: Mutex<Vec<Box<[u64]>>> = Mutex::new(Vec::new());

/// A symbol table on loan from [`IDLE_TABLES`]. On drop it zeroes the
/// entries of `present` and goes back to the pool, so the pool stays clean
/// even if an encode unwinds.
struct SymbolTable {
    table: Box<[u64]>,
    present: Vec<u16>,
}

impl SymbolTable {
    fn take() -> Self {
        // Each pool update is one push or pop, so a poisoned pool is still
        // a valid list of zeroed tables.
        let idle = IDLE_TABLES.lock().unwrap_or_else(|e| e.into_inner()).pop();
        Self {
            table: idle.unwrap_or_else(|| vec![0; 1 << 16].into_boxed_slice()),
            present: Vec::new(),
        }
    }
}

impl Drop for SymbolTable {
    fn drop(&mut self) {
        for &s in &self.present {
            self.table[usize::from(s)] = 0;
        }
        let table = std::mem::take(&mut self.table);
        IDLE_TABLES
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(table);
    }
}

/// Huffman code lengths for a dense frequency table (indexed by symbol),
/// each at most [`MAX_CODE_LEN`]: the lengths [`encode`] transmits for a
/// stream with these symbol counts. Zero-frequency symbols get length 0.
pub fn code_lengths(freqs: &[u64]) -> Vec<u32> {
    let mut leaves: Vec<(u64, usize)> = (0..freqs.len())
        .filter(|&s| freqs[s] > 0)
        .map(|s| (freqs[s], s))
        .collect();
    leaves.sort_unstable();
    let mut lens = vec![0u32; freqs.len()];
    for (s, len) in limited_lengths(&mut leaves) {
        lens[s] = len;
    }
    lens
}

/// Code lengths for `leaves` — `(frequency, symbol)` pairs with distinct
/// symbols, sorted — as `(symbol, length)` pairs, each length at most
/// [`MAX_CODE_LEN`]. Over-long codes are fixed by halving every frequency
/// (keeping it nonzero) and rebuilding; this converges because repeated
/// halving drives all frequencies toward 1.
fn limited_lengths(leaves: &mut [(u64, usize)]) -> Vec<(usize, u32)> {
    loop {
        let depths = tree_depths(leaves);
        if depths.iter().all(|&d| d <= MAX_CODE_LEN) {
            return leaves.iter().map(|&(_, s)| s).zip(depths).collect();
        }
        for leaf in leaves.iter_mut() {
            leaf.0 = (leaf.0 / 2).max(1);
        }
        // Halving keeps the frequency order but can create ties, which
        // order by symbol.
        leaves.sort_unstable();
    }
}

/// Leaf depths of the Huffman tree over `leaves` (sorted by frequency, then
/// symbol), in leaf order. A lone leaf gets depth 1: a single symbol still
/// needs one bit on the wire.
///
/// Two-queue construction: sorted leaves in one queue, internal nodes in
/// creation order in the other (their weights never decrease). Each step
/// merges the two lightest fronts, a leaf winning a weight tie. That is the
/// pop order of a min-heap keyed `(weight, id)` with leaf ids (the symbols)
/// below every internal id and internal ids increasing in creation order,
/// which is how the lengths of existing streams were built: the tie rule is
/// part of the format's byte identity.
fn tree_depths(leaves: &[(u64, usize)]) -> Vec<u32> {
    let k = leaves.len();
    if k <= 1 {
        return vec![1; k];
    }
    // Nodes 0..k are the leaves, k..2k-1 the internal nodes in creation
    // order; the last one created is the root.
    let mut weight = Vec::with_capacity(k - 1);
    let mut parent = vec![0usize; 2 * k - 1];
    let (mut next_leaf, mut next_inner) = (0, 0);
    for created in 0..k - 1 {
        let mut sum = 0;
        for _ in 0..2 {
            let node = if next_leaf < k
                && (next_inner == created || leaves[next_leaf].0 <= weight[next_inner])
            {
                sum += leaves[next_leaf].0;
                next_leaf += 1;
                next_leaf - 1
            } else {
                sum += weight[next_inner];
                next_inner += 1;
                k + next_inner - 1
            };
            parent[node] = k + created;
        }
        weight.push(sum);
    }
    // Parents are created after their children, so one descending pass
    // sets every depth from the root (depth 0) down.
    let mut depth = vec![0u32; 2 * k - 1];
    for node in (0..2 * k - 2).rev() {
        depth[node] = depth[parent[node]] + 1;
    }
    depth.truncate(k);
    depth
}

/// Reverses the low `len` bits of `code` so that writing LSB-first emits the
/// canonical code MSB-first.
#[inline]
fn reverse_bits(code: u32, len: u32) -> u32 {
    code.reverse_bits() >> (32 - len)
}

/// Encodes `symbols` with a canonical Huffman code; self-describing buffer.
pub fn encode(symbols: &[u16]) -> Vec<u8> {
    let mut t = SymbolTable::take();
    for &s in symbols {
        let count = &mut t.table[usize::from(s)];
        if *count == 0 {
            t.present.push(s);
        }
        *count += 1;
    }
    t.present.sort_unstable();
    let mut leaves: Vec<(u64, usize)> = t
        .present
        .iter()
        .map(|&s| (t.table[usize::from(s)], usize::from(s)))
        .collect();
    leaves.sort_unstable();
    let lens = limited_lengths(&mut leaves);

    // Canonical codes, ordered by (length, symbol): the first code of each
    // length follows the last code of the length before, shifted left.
    let mut count_by_len = [0u32; MAX_CODE_LEN as usize + 1];
    for &(_, len) in &lens {
        count_by_len[len as usize] += 1;
    }
    let mut next_code = [0u32; MAX_CODE_LEN as usize + 1];
    for len in 1..=MAX_CODE_LEN as usize {
        next_code[len] = (next_code[len - 1] + count_by_len[len - 1]) << 1;
    }
    // Put each length in its symbol's slot, then replace it by the packed
    // code, visiting symbols in increasing order so that codes of one
    // length ascend with the symbol.
    for &(s, len) in &lens {
        t.table[s] = u64::from(len);
    }
    for &s in &t.present {
        let slot = &mut t.table[usize::from(s)];
        let len = *slot as u32;
        let code = next_code[len as usize];
        next_code[len as usize] = code.wrapping_add(1);
        *slot = u64::from(reverse_bits(code, len)) << LEN_BITS | u64::from(len);
    }

    let mut out = Vec::new();
    varint::write_u64(&mut out, symbols.len() as u64);
    // Table: count of present symbols, then (symbol, len) pairs with
    // delta-coded symbols (present symbols are emitted in increasing order).
    varint::write_u64(&mut out, t.present.len() as u64);
    let mut prev = 0u64;
    for &s in &t.present {
        varint::write_u64(&mut out, u64::from(s) - prev);
        out.push((t.table[usize::from(s)] & LEN_MASK) as u8);
        prev = u64::from(s);
    }

    // Codes go out LSB-first through a 64-bit accumulator that spills 32
    // bits at a time: it holds under 32 bits between symbols and a code
    // adds at most 32, so it never overflows.
    let mut payload = Vec::with_capacity(symbols.len() / 2 + 8);
    let (mut acc, mut nbits) = (0u64, 0u32);
    for &s in symbols {
        let packed = t.table[usize::from(s)];
        acc |= (packed >> LEN_BITS) << nbits;
        nbits += (packed & LEN_MASK) as u32;
        if nbits >= 32 {
            payload.extend_from_slice(&(acc as u32).to_le_bytes());
            acc >>= 32;
            nbits -= 32;
        }
    }
    payload.extend_from_slice(&acc.to_le_bytes()[..nbits.div_ceil(8) as usize]);
    varint::write_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(&payload);
    out
}

/// Decoder tables for a canonical code.
struct Decoder {
    /// `first_code[len]`: canonical code value of the first code of `len` bits.
    first_code: Vec<u32>,
    /// `first_index[len]`: index into `sorted_symbols` of that first code.
    first_index: Vec<u32>,
    /// `count[len]`: number of codes with this length.
    count: Vec<u32>,
    /// Symbols sorted by (length, symbol).
    sorted_symbols: Vec<u16>,
    max_len: u32,
    /// Indexed by the next `primary_bits` stream bits: `symbol << 8 | len`
    /// of the code they start with, or 0 if that code is longer.
    primary: Vec<u32>,
    primary_bits: u32,
}

impl Decoder {
    /// The decoder of a table of `(symbol, code length)` pairs, symbols in
    /// nondecreasing order as the delta-coded table delivers them. Costs
    /// O(present symbols + 2^11), never a sort.
    fn new(lens_by_symbol: &[(u16, u32)]) -> Result<Self, CodecError> {
        let max_len = lens_by_symbol.iter().map(|&(_, l)| l).max().unwrap_or(0);
        if max_len > MAX_CODE_LEN {
            return Err(CodecError::Corrupt("huffman code length too large"));
        }
        let mut count = vec![0u32; (max_len + 2) as usize];
        for &(_, l) in lens_by_symbol {
            count[l as usize] += 1;
        }

        let mut first_code = vec![0u32; (max_len + 2) as usize];
        let mut first_index = vec![0u32; (max_len + 2) as usize];
        let mut code = 0u32;
        let mut index = 0u32;
        for len in 1..=max_len {
            code <<= 1;
            first_code[len as usize] = code;
            first_index[len as usize] = index;
            let c = count[len as usize];
            // Kraft check: codes of this length must fit.
            if u64::from(code) + u64::from(c) > (1u64 << len) {
                return Err(CodecError::Corrupt("huffman table violates Kraft"));
            }
            code += c;
            index += c;
        }

        // Symbols by (length, symbol): the table lists symbols in
        // nondecreasing order, so one stable pass by length sorts them.
        debug_assert!(lens_by_symbol.windows(2).all(|w| w[0].0 <= w[1].0));
        let mut next = first_index.clone();
        let mut sorted_symbols = vec![0u16; lens_by_symbol.len()];
        for &(s, l) in lens_by_symbol {
            sorted_symbols[next[l as usize] as usize] = s;
            next[l as usize] += 1;
        }

        // Every code of at most `primary_bits` bits fills the slots whose
        // low bits are its reversed code; Kraft makes the slots disjoint.
        let primary_bits = max_len.min(PRIMARY_BITS);
        let mut primary = vec![0u32; 1 << primary_bits];
        for len in 1..=primary_bits {
            for j in 0..count[len as usize] {
                let sym = sorted_symbols[(first_index[len as usize] + j) as usize];
                let rev = reverse_bits(first_code[len as usize] + j, len) as usize;
                let entry = u32::from(sym) << 8 | len;
                for slot in primary[rev..].iter_mut().step_by(1 << len) {
                    *slot = entry;
                }
            }
        }
        Ok(Self {
            first_code,
            first_index,
            count,
            sorted_symbols,
            max_len,
            primary,
            primary_bits,
        })
    }

    /// Decodes the code starting at bit `*pos` of `payload`, advancing `*pos`.
    #[inline]
    fn decode_one(&self, payload: &[u8], pos: &mut usize) -> Result<u16, CodecError> {
        let entry = self.primary[(peek(payload, *pos) & ((1 << self.primary_bits) - 1)) as usize];
        let len = (entry & 0xff) as usize;
        if len != 0 && *pos + len <= payload.len() * 8 {
            *pos += len;
            return Ok((entry >> 8) as u16);
        }
        self.decode_serial(payload, pos)
    }

    /// Canonical bit-serial walk: the path for codes longer than the primary
    /// table and for the stream's end, where it reports the exact error.
    fn decode_serial(&self, payload: &[u8], pos: &mut usize) -> Result<u16, CodecError> {
        let mut code = 0u32;
        for len in 1..=self.max_len {
            let byte = payload
                .get(*pos / 8)
                .ok_or(CodecError::Corrupt("huffman underrun"))?;
            code = (code << 1) | u32::from((byte >> (*pos % 8)) & 1);
            *pos += 1;
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

/// The stream bits from `pos` on, LSB-first, zero past the end (at least 57
/// valid bits when the payload has them).
#[inline]
fn peek(payload: &[u8], pos: usize) -> u64 {
    let i = pos / 8;
    let word = match payload.get(i..i + 8) {
        Some(b) => u64::from_le_bytes(b.try_into().expect("8 bytes")),
        None => {
            let tail = payload.get(i..).unwrap_or_default();
            let mut b = [0u8; 8];
            b[..tail.len()].copy_from_slice(tail);
            u64::from_le_bytes(b)
        }
    };
    word >> (pos % 8)
}

/// Decodes a buffer produced by [`encode`].
pub fn decode(bytes: &[u8]) -> Result<Vec<u16>, CodecError> {
    let mut pos = 0;
    let n_symbols = varint::read_u64(bytes, &mut pos)? as usize;
    let n_present = varint::read_u64(bytes, &mut pos)? as usize;
    if n_symbols > 0 && n_present == 0 {
        return Err(CodecError::Corrupt("huffman empty table"));
    }
    // Counts are untrusted: each table entry takes at least 2 bytes and each
    // code at least 1 bit, so the bytes present bound what is allocated.
    // A count beyond that fails in the loops below, as it always did.
    let mut lens_by_symbol = Vec::with_capacity(n_present.min((bytes.len() - pos) / 2));
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
    let decoder = Decoder::new(&lens_by_symbol)?;
    let mut out = Vec::with_capacity(n_symbols.min(payload.len() * 8));
    let mut bit = 0;
    for _ in 0..n_symbols {
        out.push(decoder.decode_one(payload, &mut bit)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_round_trip() {
        assert_eq!(decode(&encode(&[])).unwrap(), Vec::<u16>::new());
    }

    #[test]
    fn single_symbol_round_trip() {
        let symbols = vec![7u16; 100];
        let enc = encode(&symbols);
        assert_eq!(decode(&enc).unwrap(), symbols);
        // 100 copies of one symbol should cost ~1 bit each plus a tiny table.
        assert!(enc.len() < 30, "len = {}", enc.len());
    }

    #[test]
    fn skewed_distribution_compresses() {
        let mut symbols = vec![0u16; 10_000];
        for (i, s) in symbols.iter_mut().enumerate() {
            if i % 100 == 0 {
                *s = (i % 7) as u16 + 1;
            }
        }
        let enc = encode(&symbols);
        assert_eq!(decode(&enc).unwrap(), symbols);
        assert!(enc.len() < 10_000 / 4, "len = {}", enc.len());
    }

    #[test]
    fn uniform_distribution_round_trips() {
        let symbols: Vec<u16> = (0..4096u32).map(|i| (i % 256) as u16).collect();
        assert_eq!(decode(&encode(&symbols)).unwrap(), symbols);
    }

    #[test]
    fn wide_alphabet_round_trips() {
        let symbols: Vec<u16> = (0..u16::MAX).step_by(7).collect();
        assert_eq!(decode(&encode(&symbols)).unwrap(), symbols);
    }

    #[test]
    fn code_lengths_are_kraft_valid() {
        let freqs: Vec<u64> = (1..=40).map(|i| 1u64 << (i % 30)).collect();
        let lens = code_lengths(&freqs);
        let kraft: f64 = lens
            .iter()
            .filter(|&&l| l > 0)
            .map(|&l| 2f64.powi(-(l as i32)))
            .sum();
        assert!(kraft <= 1.0 + 1e-12, "kraft = {kraft}");
        assert!(lens.iter().all(|&l| l <= MAX_CODE_LEN));
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let symbols: Vec<u16> = (0..100).map(|i| (i % 5) as u16).collect();
        let enc = encode(&symbols);
        for cut in [enc.len() - 1, enc.len() / 2, 3] {
            assert!(decode(&enc[..cut]).is_err(), "cut = {cut}");
        }
    }

    #[test]
    fn two_symbols_cost_one_bit_each() {
        let symbols: Vec<u16> = (0..800).map(|i| (i & 1) as u16).collect();
        let enc = encode(&symbols);
        // 800 bits = 100 bytes payload + small header.
        assert!(enc.len() < 120, "len = {}", enc.len());
        assert_eq!(decode(&enc).unwrap(), symbols);
    }

    #[test]
    fn long_codes_decode_through_the_serial_walk() {
        // Fibonacci counts give a maximally deep tree: codes far longer than
        // the primary table, all of which must still round-trip.
        let (mut a, mut b) = (1u64, 1u64);
        let mut freqs = Vec::new();
        let mut symbols = Vec::new();
        for s in 0..20u16 {
            freqs.push(a);
            symbols.extend(std::iter::repeat_n(s, a as usize));
            (a, b) = (b, a + b);
        }
        let lens = code_lengths(&freqs);
        assert!(lens.iter().any(|&l| l > PRIMARY_BITS), "{lens:?}");
        assert_eq!(decode(&encode(&symbols)).unwrap(), symbols);
    }
}
