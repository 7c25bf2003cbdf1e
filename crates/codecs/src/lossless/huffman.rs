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
//! counts into four interleaved histogram lanes, so a run of one symbol
//! does not wait on its own counter, and notes each lane's new symbols
//! without a branch. A presence bitmap gives the present symbols in
//! increasing order, one radix sort of packed `(count, symbol)` keys
//! orders the leaves, and the tree is built in place in one reused buffer.
//! Codes go out with one unaligned 8-byte store per code (per two codes
//! when no code is longer than 28 bits), straight into the output after a
//! header whose payload length is known from the counts.
//!
//! The decoder keeps a 64-bit bit buffer that refills with one 8-byte load
//! and then yields as many codes as a refill guarantees bits for. Codes of
//! up to 11 bits (12 from 4,096 codes in a stream, 13 from 8,192) resolve
//! with one table lookup; longer ones by comparing the next 32 bits
//! against the left-aligned canonical limits of each longer length, so no
//! valid code is walked bit by bit. The bit-serial canonical walk remains only for a
//! code that runs past the payload's end and for an invalid code, where it
//! reports the exact error.

use crate::{varint, CodecError};
use std::sync::Mutex;

/// Upper limit on code length; 32 suffices for any realistic distribution.
pub const MAX_CODE_LEN: u32 = 32;

/// Stream bits the decoder's primary table resolves in one lookup: 11,
/// or up to 13 for a stream of that many symbols, so that the table never
/// outgrows the stream beyond 2^11 slots.
const PRIMARY_BITS: u32 = 11;
const MAX_PRIMARY_BITS: u32 = 13;

/// Entries of the per-length canonical tables, indexed by code length.
const LENS: usize = MAX_CODE_LEN as usize + 1;

/// Histogram lanes: consecutive symbols count into different counters.
const LANES: usize = 4;

/// Words of the presence bitmap, one bit per possible symbol.
const SEEN_WORDS: usize = (1 << 16) / 64;

/// Idle encoder scratch, all of it clean (see [`Scratch`]). Scratch is
/// pooled rather than per thread because encoders often run on
/// short-lived scoped worker threads; the pool grows to the largest number
/// of encodes that ever ran at once. An encode that unwinds drops its
/// scratch instead of returning it, so the pool only ever holds clean ones.
static IDLE: Mutex<Vec<Box<Scratch>>> = Mutex::new(Vec::new());

/// What one [`encode`] works in. Between encodes `slots`, `seen` and
/// `seen_words` are all zero; the vectors are reused for their capacity.
struct Scratch {
    /// Per symbol, the four histogram lanes while counting; once the
    /// counts are summed, `[reversed code, code length, count low, count
    /// high]`. 1 MiB, of which an encode touches the lines of the symbols
    /// it sees.
    slots: Box<[[u32; LANES]; 1 << 16]>,
    /// Presence bitmap over the symbols.
    seen: [u64; SEEN_WORDS],
    /// Which words of `seen` are nonzero.
    seen_words: [u64; SEEN_WORDS / 64],
    /// One region per lane listing the symbols that lane saw first.
    firsts: Vec<u16>,
    /// Present symbols as `count << 16 | symbol`, sorted.
    keys: Vec<u64>,
    /// Tree work array; then `depths[i]` is the code length of `keys[i]`.
    depths: Vec<u64>,
    /// Present symbols in increasing order.
    present: Vec<u16>,
}

impl Scratch {
    fn take() -> Box<Self> {
        // Each pool update is one push or pop, so a poisoned pool is still
        // a valid list of clean scratch.
        let idle = IDLE.lock().unwrap_or_else(|e| e.into_inner()).pop();
        idle.unwrap_or_else(|| {
            Box::new(Self {
                slots: vec![[0; LANES]; 1 << 16]
                    .into_boxed_slice()
                    .try_into()
                    .expect("2^16 slots"),
                seen: [0; SEEN_WORDS],
                seen_words: [0; SEEN_WORDS / 64],
                firsts: Vec::new(),
                keys: Vec::new(),
                depths: Vec::new(),
                present: Vec::new(),
            })
        })
    }

    fn give_back(self: Box<Self>) {
        IDLE.lock().unwrap_or_else(|e| e.into_inner()).push(self);
    }

    /// Counts `symbols` into the lanes and lists each lane's new symbols.
    /// Returns the lanes' region length in `firsts` and each lane's number
    /// of new symbols.
    fn count(&mut self, symbols: &[u16]) -> (usize, [usize; LANES]) {
        // A lane sees at most a quarter of the input plus one symbol, and
        // lists each distinct one once. The spare slot takes the store that
        // every symbol makes one past its lane's list.
        let region = (symbols.len() / LANES + 1).min(1 << 16) + 1;
        self.firsts.clear();
        self.firsts.resize(LANES * region, 0);
        let mut regions = self.firsts.chunks_exact_mut(region);
        let mut lists: [&mut [u16]; LANES] =
            std::array::from_fn(|_| regions.next().expect("one region per lane"));
        let slots = &mut self.slots;
        let mut new = [0usize; LANES];
        let mut step = |lane: usize, s: u16| {
            let count = &mut slots[usize::from(s)][lane];
            lists[lane][new[lane]] = s;
            new[lane] += usize::from(*count == 0);
            *count += 1;
        };
        let mut quads = symbols.chunks_exact(LANES);
        for quad in &mut quads {
            for (lane, &s) in quad.iter().enumerate() {
                step(lane, s);
            }
        }
        for (lane, &s) in quads.remainder().iter().enumerate() {
            step(lane, s);
        }
        (region, new)
    }

    /// Lists the present symbols in increasing order through the bitmap,
    /// leaving it clear, and sums each one's lanes into `[0, 0, count low,
    /// count high]` and a key.
    fn gather(&mut self, region: usize, new: [usize; LANES]) {
        for (lane, &n) in new.iter().enumerate() {
            for &s in &self.firsts[lane * region..lane * region + n] {
                let word = usize::from(s >> 6);
                self.seen[word] |= 1 << (s & 63);
                self.seen_words[word >> 6] |= 1 << (word & 63);
            }
        }
        self.present.clear();
        self.keys.clear();
        for (high, summary) in self.seen_words.iter_mut().enumerate() {
            while *summary != 0 {
                let word = high * 64 + summary.trailing_zeros() as usize;
                *summary &= *summary - 1;
                let mut bits = std::mem::take(&mut self.seen[word]);
                while bits != 0 {
                    let s = word * 64 + bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    let slot = &mut self.slots[s];
                    let total: u64 = slot.iter().map(|&c| u64::from(c)).sum();
                    *slot = [0, 0, total as u32, (total >> 32) as u32];
                    self.present.push(s as u16);
                    self.keys.push(total << 16 | s as u64);
                }
            }
        }
    }

    /// Sorts `keys`, which [`Self::gather`] left in increasing symbol
    /// order, by `(count, symbol)`: a stable radix sort on the count's
    /// bytes, only as many passes as the largest count has bytes.
    fn sort_keys(&mut self) {
        let max = self.keys.iter().map(|&k| k >> 16).max().unwrap_or(0);
        let tmp = &mut self.depths;
        let mut shift = 16;
        while shift < 64 && max >> (shift - 16) != 0 {
            let mut start = [0usize; 256];
            for &k in &self.keys {
                start[(k >> shift) as usize & 255] += 1;
            }
            let mut sum = 0;
            for slot in &mut start {
                (*slot, sum) = (sum, sum + *slot);
            }
            tmp.clear();
            tmp.resize(self.keys.len(), 0);
            for &k in &self.keys {
                let digit = (k >> shift) as usize & 255;
                tmp[start[digit]] = k;
                start[digit] += 1;
            }
            std::mem::swap(&mut self.keys, tmp);
            shift += 8;
        }
    }

    fn encode(&mut self, symbols: &[u16]) -> Vec<u8> {
        // Lanes count in u32 and keys hold a count above 16 symbol bits.
        assert!(
            symbols.len() / LANES < u32::MAX as usize,
            "huffman: stream too long"
        );
        let (region, new) = self.count(symbols);
        self.gather(region, new);
        self.sort_keys();
        limited_depths(
            &mut self.keys,
            |k| k >> 16,
            |k| ((k >> 16) / 2).max(1) << 16 | (k & 0xffff),
            &mut self.depths,
        );

        // Canonical codes, ordered by (length, symbol): the first code of
        // each length follows the last code of the length before, shifted
        // left. Lengths go in their symbols' slots first, then the present
        // symbols are visited in increasing order so that codes of one
        // length ascend with the symbol.
        let mut count_by_len = [0u32; LENS];
        for (&key, &len) in self.keys.iter().zip(&self.depths) {
            count_by_len[len as usize] += 1;
            self.slots[(key & 0xffff) as usize][1] = len as u32;
        }
        let mut next_code = [0u32; LENS];
        for len in 1..LENS {
            next_code[len] = (next_code[len - 1] + count_by_len[len - 1]) << 1;
        }

        let mut out = Vec::with_capacity(16 + 4 * self.present.len() + symbols.len() / 2 + 8);
        varint::write_u64(&mut out, symbols.len() as u64);
        // Table: count of present symbols, then (symbol, len) pairs with
        // delta-coded symbols (present symbols are emitted in increasing order).
        varint::write_u64(&mut out, self.present.len() as u64);
        let (mut prev, mut payload_bits) = (0u64, 0u64);
        for &s in &self.present {
            let slot = &mut self.slots[usize::from(s)];
            let len = slot[1];
            let code = next_code[len as usize];
            next_code[len as usize] = code.wrapping_add(1);
            slot[0] = reverse_bits(code, len);
            payload_bits += (u64::from(slot[3]) << 32 | u64::from(slot[2])) * u64::from(len);
            varint::write_u64(&mut out, u64::from(s) - prev);
            out.push(len as u8);
            prev = u64::from(s);
        }
        let payload_len = payload_bits.div_ceil(8) as usize;
        varint::write_u64(&mut out, payload_len as u64);

        // Codes go out LSB-first, two at a time when any two fit the
        // 56 bits a store can take.
        let start = out.len();
        out.resize(start + payload_len + 8, 0);
        let mut sink = BitSink {
            out: &mut out[start..],
            acc: 0,
            nbits: 0,
            at: 0,
        };
        let slots = &self.slots;
        let max_len = self.depths.first().map_or(0, |&d| d as u32);
        let single = if max_len <= 28 {
            let mut pairs = symbols.chunks_exact(2);
            for pair in &mut pairs {
                let [code0, len0, ..] = slots[usize::from(pair[0])];
                let [code1, len1, ..] = slots[usize::from(pair[1])];
                sink.put(u64::from(code0) | u64::from(code1) << len0, len0 + len1);
            }
            pairs.remainder()
        } else {
            symbols
        };
        for &s in single {
            let [code, len, ..] = slots[usize::from(s)];
            sink.put(u64::from(code), len);
        }
        out.truncate(start + payload_len);

        for &s in &self.present {
            self.slots[usize::from(s)] = [0; LANES];
        }
        out
    }
}

/// LSB-first bit writer over a buffer with 8 spare bytes at its end.
struct BitSink<'a> {
    out: &'a mut [u8],
    /// The unfinished byte's bits, `nbits` (under 8) of them.
    acc: u64,
    nbits: u32,
    /// Index of the unfinished byte.
    at: usize,
}

impl BitSink<'_> {
    /// Appends the low `len` bits of `bits`, `len` at most 56: stores the
    /// accumulator whole at the unfinished byte and drops the bytes it
    /// finished. The spare bytes take the stores past the last one.
    #[inline(always)]
    fn put(&mut self, bits: u64, len: u32) {
        self.acc |= bits << self.nbits;
        self.nbits += len;
        self.out[self.at..self.at + 8].copy_from_slice(&self.acc.to_le_bytes());
        let whole = self.nbits / 8;
        self.at += whole as usize;
        self.acc >>= whole * 8;
        self.nbits %= 8;
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
    let mut depths = Vec::new();
    limited_depths(
        &mut leaves,
        |l| l.0,
        |l| ((l.0 / 2).max(1), l.1),
        &mut depths,
    );
    let mut lens = vec![0u32; freqs.len()];
    for (&(_, s), &len) in leaves.iter().zip(&depths) {
        lens[s] = len as u32;
    }
    lens
}

/// Code lengths for `leaves` — distinct-symbol leaves, sorted by
/// `(weight, symbol)` — into `depths`, `depths[i]` being the length of
/// `leaves[i]` and each at most [`MAX_CODE_LEN`]. Over-long codes are fixed
/// by halving every weight (keeping it nonzero) and rebuilding; this
/// converges because repeated halving drives all weights toward 1.
/// Halving keeps the weight order but can create ties, which order by
/// symbol, so the leaves are sorted again and come back in that order.
fn limited_depths<K: Ord + Copy>(
    leaves: &mut [K],
    weight: impl Fn(K) -> u64,
    halve: impl Fn(K) -> K,
    depths: &mut Vec<u64>,
) {
    loop {
        depths.clear();
        depths.extend(leaves.iter().map(|&l| weight(l)));
        tree_depths(depths);
        // Leaf depths never increase along the sorted leaves, so the first
        // leaf's is the longest code.
        if depths.first().is_none_or(|&d| d <= u64::from(MAX_CODE_LEN)) {
            return;
        }
        for leaf in leaves.iter_mut() {
            *leaf = halve(*leaf);
        }
        leaves.sort_unstable();
    }
}

/// Replaces the leaf weights in `a` (sorted ascending) by their depths in
/// the Huffman tree over them. A lone leaf gets depth 1: a single symbol
/// still needs one bit on the wire.
///
/// Moffat and Katajainen's in-place construction. Pass one merges the two
/// lightest of the next leaf and the oldest unmerged internal node, a leaf
/// winning a weight tie, leaving internal node `i`'s weight or its
/// parent's index in `a[i]`. That is the pop order of a min-heap keyed
/// `(weight, id)` with leaf ids (the symbols) below every internal id and
/// internal ids increasing in creation order, which is how the lengths of
/// existing streams were built: the tie rule is part of the format's byte
/// identity. Pass two turns parent indices into internal depths, root
/// first. Leaves merge in sorted order under parents created in order, so
/// leaf depths never increase along the leaves; pass three hands each
/// depth's leaf slots out from the heaviest leaf down.
fn tree_depths(a: &mut [u64]) {
    let n = a.len();
    if n <= 1 {
        a.fill(1);
        return;
    }
    a[0] += a[1];
    let (mut root, mut leaf) = (0, 2);
    for next in 1..n - 1 {
        // The node created last is unmerged, so an internal node is always
        // there to take the first child.
        if leaf >= n || a[root] < a[leaf] {
            a[next] = a[root];
            a[root] = next as u64;
            root += 1;
        } else {
            a[next] = a[leaf];
            leaf += 1;
        }
        if leaf >= n || (root < next && a[root] < a[leaf]) {
            a[next] += a[root];
            a[root] = next as u64;
            root += 1;
        } else {
            a[next] += a[leaf];
            leaf += 1;
        }
    }
    a[n - 2] = 0;
    for next in (0..n - 2).rev() {
        a[next] = a[a[next] as usize] + 1;
    }
    // `avail` nodes sit at `depth`: `used` of them are internal, the rest
    // leaves. Internal nodes are counted from the root (index n - 2) down,
    // leaf depths written from the top slot down.
    let (mut avail, mut depth) = (1usize, 0u64);
    let (mut internal, mut slot) = (n - 1, n);
    while avail > 0 {
        let mut used = 0;
        while internal > 0 && a[internal - 1] == depth {
            used += 1;
            internal -= 1;
        }
        for _ in used..avail {
            slot -= 1;
            a[slot] = depth;
        }
        avail = 2 * used;
        depth += 1;
    }
}

/// Reverses the low `len` bits of `code` so that writing LSB-first emits the
/// canonical code MSB-first.
#[inline]
fn reverse_bits(code: u32, len: u32) -> u32 {
    code.reverse_bits() >> (32 - len)
}

/// Encodes `symbols` with a canonical Huffman code; self-describing buffer.
pub fn encode(symbols: &[u16]) -> Vec<u8> {
    let mut scratch = Scratch::take();
    let out = scratch.encode(symbols);
    scratch.give_back();
    out
}

/// Decoder tables for a canonical code.
struct Decoder {
    /// `first_code[len]`: canonical code value of the first code of `len` bits.
    first_code: [u64; LENS],
    /// `first_index[len]`: index into `sorted_symbols` of that first code.
    first_index: [u32; LENS],
    /// `count[len]`: number of codes with this length.
    count: [u32; LENS],
    /// `limit[len]`: one past the last code of `len` bits, left-aligned in
    /// 32 bits. The codes in canonical order tile `[0, limit[max_len])`
    /// left-aligned, so 32 stream bits (first bit highest) start with a
    /// code of the least `len` whose limit exceeds them.
    limit: [u64; LENS],
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
    /// O(present symbols + primary slots), never a sort; `n_symbols` is how
    /// many codes it will decode at most.
    fn new(lens_by_symbol: &[(u16, u32)], n_symbols: usize) -> Result<Self, CodecError> {
        let max_len = lens_by_symbol.iter().map(|&(_, l)| l).max().unwrap_or(0);
        if max_len > MAX_CODE_LEN {
            return Err(CodecError::Corrupt("huffman code length too large"));
        }
        let mut count = [0u32; LENS];
        for &(_, l) in lens_by_symbol {
            count[l as usize] += 1;
        }

        let mut first_code = [0u64; LENS];
        let mut first_index = [0u32; LENS];
        let mut limit = [0u64; LENS];
        let mut code = 0u64;
        let mut index = 0u32;
        for len in 1..=max_len {
            code <<= 1;
            first_code[len as usize] = code;
            first_index[len as usize] = index;
            let c = count[len as usize];
            // Kraft check: codes of this length must fit.
            if code + u64::from(c) > (1u64 << len) {
                return Err(CodecError::Corrupt("huffman table violates Kraft"));
            }
            code += u64::from(c);
            index += c;
            limit[len as usize] = code << (MAX_CODE_LEN - len);
        }

        // Symbols by (length, symbol): the table lists symbols in
        // nondecreasing order, so one stable pass by length sorts them.
        debug_assert!(lens_by_symbol.windows(2).all(|w| w[0].0 <= w[1].0));
        let mut next = first_index;
        let mut sorted_symbols = vec![0u16; lens_by_symbol.len()];
        for &(s, l) in lens_by_symbol {
            sorted_symbols[next[l as usize] as usize] = s;
            next[l as usize] += 1;
        }

        // The table is indexed by reversed codes, so a code of `len` bits
        // fills every slot whose low `len` bits are its reversed code. Grown
        // one bit at a time, the table doubles (each shorter code then
        // covers its copy as well) and takes the codes of the new length,
        // whose slots prefix-freedom leaves empty.
        let wide = n_symbols
            .max(1)
            .ilog2()
            .clamp(PRIMARY_BITS, MAX_PRIMARY_BITS);
        let primary_bits = max_len.min(wide);
        let mut primary = Vec::with_capacity(1 << primary_bits);
        primary.push(0u32);
        for len in 1..=primary_bits {
            primary.extend_from_within(..);
            let first = first_index[len as usize] as usize;
            let codes = &sorted_symbols[first..first + count[len as usize] as usize];
            for (code, &sym) in (first_code[len as usize] as u32..).zip(codes) {
                primary[reverse_bits(code, len) as usize] = u32::from(sym) << 8 | len;
            }
        }
        Ok(Self {
            first_code,
            first_index,
            count,
            limit,
            sorted_symbols,
            max_len,
            primary,
            primary_bits,
        })
    }

    /// The symbol and length of the code at the front of `window` (stream
    /// bits LSB-first, as many as the code needs), or `None` if no code
    /// starts there.
    #[inline]
    fn lookup(&self, window: u64) -> Option<(u16, u32)> {
        let entry = self.primary[window as usize & (self.primary.len() - 1)];
        if entry != 0 {
            return Some(((entry >> 8) as u16, entry & 0xff));
        }
        self.long_code(window)
    }

    /// A code longer than the primary table, found by canonical length
    /// search over the next 32 stream bits. The primary table missed, so
    /// the bits are at or above `limit[primary_bits]`.
    fn long_code(&self, window: u64) -> Option<(u16, u32)> {
        let bits = u64::from((window as u32).reverse_bits());
        let len =
            (self.primary_bits + 1..=self.max_len).find(|&l| bits < self.limit[l as usize])?;
        let code = bits >> (MAX_CODE_LEN - len);
        let index =
            u64::from(self.first_index[len as usize]) + code - self.first_code[len as usize];
        Some((self.sorted_symbols[index as usize], len))
    }

    /// Decodes `out.len()` symbols from `payload`.
    fn fill(&self, payload: &[u8], out: &mut [u16]) -> Result<(), CodecError> {
        // Bit buffer: `buf` holds the stream from bit `8 * next - nbits`
        // on, LSB-first. A refill loads the 8 bytes at `next` above the
        // `nbits` bits held, then counts the whole bytes it added (the bits
        // above `nbits` are the stream's too), leaving 56 to 63 bits: as
        // many codes as that many bits are sure to hold follow.
        let per_refill = (56 / self.max_len) as usize;
        let (mut buf, mut nbits, mut next) = (0u64, 0u32, 0usize);
        let mut done = 0;
        'fast: while let Some(bytes) = payload.get(next..next + 8) {
            buf |= u64::from_le_bytes(bytes.try_into().expect("8 bytes")) << nbits;
            next += (63 - nbits as usize) / 8;
            nbits |= 56;
            for _ in 0..per_refill {
                let Some(slot) = out.get_mut(done) else {
                    break 'fast;
                };
                // An invalid code takes the exact-error path below.
                let Some((sym, len)) = self.lookup(buf) else {
                    break 'fast;
                };
                *slot = sym;
                done += 1;
                buf >>= len;
                nbits -= len;
            }
        }
        let mut pos = 8 * next - nbits as usize;
        for slot in &mut out[done..] {
            *slot = self.decode_tail(payload, &mut pos)?;
        }
        Ok(())
    }

    /// Decodes the code at bit `*pos` of `payload`, advancing `*pos`, when
    /// fewer than 8 bytes may be left: a code that runs past the payload's
    /// end, or no code at all, takes the bit-serial walk for its error.
    fn decode_tail(&self, payload: &[u8], pos: &mut usize) -> Result<u16, CodecError> {
        let left = (payload.len() * 8).saturating_sub(*pos);
        match self.lookup(peek(payload, *pos)) {
            Some((sym, len)) if len as usize <= left => {
                *pos += len as usize;
                Ok(sym)
            }
            _ => self.decode_serial(payload, pos),
        }
    }

    /// Canonical bit-serial walk: the path for the stream's end and for an
    /// invalid code, where it reports the exact error.
    fn decode_serial(&self, payload: &[u8], pos: &mut usize) -> Result<u16, CodecError> {
        let mut code = 0u64;
        for len in 1..=self.max_len {
            let byte = payload
                .get(*pos / 8)
                .ok_or(CodecError::Corrupt("huffman underrun"))?;
            code = (code << 1) | u64::from((byte >> (*pos % 8)) & 1);
            *pos += 1;
            let c = u64::from(self.count[len as usize]);
            if c > 0 {
                let first = self.first_code[len as usize];
                if code < first + c {
                    if code < first {
                        return Err(CodecError::Corrupt("huffman invalid code"));
                    }
                    let idx = u64::from(self.first_index[len as usize]) + (code - first);
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
    let word = if let Some(b) = payload.get(i..i + 8) {
        u64::from_le_bytes(b.try_into().expect("8 bytes"))
    } else if let Some(last) = payload.len().checked_sub(8).filter(|_| i < payload.len()) {
        // The payload's last 8 bytes, moved down to start at byte `i`.
        u64::from_le_bytes(payload[last..].try_into().expect("8 bytes")) >> (8 * (i - last))
    } else {
        let tail = payload.get(i..).unwrap_or_default();
        let mut b = [0u8; 8];
        b[..tail.len()].copy_from_slice(tail);
        u64::from_le_bytes(b)
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
    let mut out = vec![0u16; n_symbols.min(payload.len() * 8)];
    let decoder = Decoder::new(&lens_by_symbol, out.len())?;
    decoder.fill(payload, &mut out)?;
    if out.len() < n_symbols {
        // Every code takes at least one bit, and all of them are spent.
        return Err(CodecError::Corrupt("huffman underrun"));
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
        // the primary table, which the canonical length search resolves,
        // all of which must still round-trip.
        let (mut a, mut b) = (1u64, 1u64);
        let mut freqs = Vec::new();
        let mut symbols = Vec::new();
        for s in 0..20u16 {
            freqs.push(a);
            symbols.extend(std::iter::repeat_n(s, a as usize));
            (a, b) = (b, a + b);
        }
        let lens = code_lengths(&freqs);
        assert!(lens.iter().any(|&l| l > MAX_PRIMARY_BITS), "{lens:?}");
        assert_eq!(decode(&encode(&symbols)).unwrap(), symbols);
    }
}
