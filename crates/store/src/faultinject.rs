//! Fault injection for store bytes — the one audited way tests damage a
//! container.
//!
//! Robustness tests used to scatter ad-hoc "flip a byte at this offset"
//! code; every helper here instead locates a target through the store's
//! own (trusted, index-CRC-protected) footer and mutates exactly the bytes
//! it names, so an injected fault damages what the test *says* it damages
//! — a data chunk, a parity chunk, a trailer — and nothing else.
//!
//! Compiled only for tests and under the `testing` cargo feature; helpers
//! panic on invalid targets (they are test tooling, not production code).

use crate::format::{self, StoreError};
use crate::sink::ByteSink;
use crate::source::ByteSource;
use std::ops::Range;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Byte range of data chunk `chunk` of field `field_idx` within `bytes`.
///
/// Panics when `bytes` is not a parseable store or the indices are out of
/// range.
pub fn chunk_byte_range(bytes: &[u8], field_idx: usize, chunk: usize) -> Range<usize> {
    let (_, fields, payload) = format::open(bytes).expect("faultinject: store must parse");
    let meta = fields[field_idx].chunks[chunk];
    let lo = payload.start + meta.offset as usize;
    lo..lo + meta.len as usize
}

/// Byte range of parity chunk `group` of field `field_idx` within `bytes`.
///
/// Panics when the store parses without parity (v2 / width 0) or the
/// indices are out of range.
pub fn parity_byte_range(bytes: &[u8], field_idx: usize, group: usize) -> Range<usize> {
    let (_, fields, payload) = format::open(bytes).expect("faultinject: store must parse");
    let meta = fields[field_idx].parity[group];
    let lo = payload.start + meta.offset as usize;
    lo..lo + meta.len as usize
}

/// Corrupts data chunk `chunk` of field `field_idx` by inverting its first
/// payload byte (guaranteed to fail the chunk CRC).
pub fn flip_data_chunk(bytes: &mut [u8], field_idx: usize, chunk: usize) {
    let range = chunk_byte_range(bytes, field_idx, chunk);
    assert!(!range.is_empty(), "faultinject: empty chunk payload");
    bytes[range.start] ^= 0xff;
}

/// Corrupts parity chunk `group` of field `field_idx` by inverting its
/// first payload byte.
pub fn flip_parity_chunk(bytes: &mut [u8], field_idx: usize, group: usize) {
    let range = parity_byte_range(bytes, field_idx, group);
    assert!(!range.is_empty(), "faultinject: empty parity payload");
    bytes[range.start] ^= 0xff;
}

/// Corrupts several data chunks of field `field_idx` in one call — the
/// multi-erasure scenario Reed–Solomon groups exist for.
pub fn flip_data_chunks(bytes: &mut [u8], field_idx: usize, chunks: &[usize]) {
    for &chunk in chunks {
        flip_data_chunk(bytes, field_idx, chunk);
    }
}

/// Picks `count` *distinct* pseudo-random data chunks of field `field_idx`
/// and corrupts each, deterministically from `seed`. Returns the chosen
/// chunk indices so the test can assert exactly those were repaired.
pub fn random_chunk_flips(
    bytes: &mut [u8],
    field_idx: usize,
    seed: u64,
    count: usize,
) -> Vec<usize> {
    let n = {
        let (_, fields, _) = format::open(bytes).expect("faultinject: store must parse");
        fields[field_idx].chunks.len()
    };
    assert!(count <= n, "faultinject: more flips than chunks");
    let mut rng = Lcg::new(seed);
    let mut picked: Vec<usize> = Vec::with_capacity(count);
    while picked.len() < count {
        let chunk = rng.below(n);
        if !picked.contains(&chunk) {
            picked.push(chunk);
        }
    }
    flip_data_chunks(bytes, field_idx, &picked);
    picked
}

/// The first `cut` bytes of `bytes` — what a crash mid-write leaves on
/// disk when the `.tmp` file was flushed up to `cut` and never renamed.
/// Any proper prefix of a v4 store must open as
/// [`crate::StoreError::Torn`] (or a typed header error below the 6-byte
/// version gate), never panic.
pub fn torn_at(bytes: &[u8], cut: usize) -> Vec<u8> {
    assert!(cut <= bytes.len(), "faultinject: cut beyond buffer");
    bytes[..cut].to_vec()
}

/// Flips bit `bit` of byte `idx`.
pub fn flip_bit(bytes: &mut [u8], idx: usize, bit: u8) {
    bytes[idx] ^= 1 << (bit % 8);
}

/// Overwrites `len` bytes starting at `start` with `fill` (saturated to
/// the buffer).
pub fn splat(bytes: &mut [u8], start: usize, len: usize, fill: u8) {
    let end = start.saturating_add(len).min(bytes.len());
    if start < end {
        bytes[start..end].fill(fill);
    }
}

/// Truncates the buffer to `len` bytes.
pub fn truncate(bytes: &mut Vec<u8>, len: usize) {
    bytes.truncate(len);
}

/// A tiny deterministic PRNG (64-bit LCG, splitmix-style output) so fault
/// campaigns are reproducible from a seed without any dependency.
#[derive(Debug, Clone)]
pub struct Lcg(u64);

impl Lcg {
    /// PRNG seeded with `seed` (any value, including 0).
    pub fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_add(0x9e37_79b9_7f4a_7c15))
    }

    /// Next pseudo-random 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..bound` (`bound` must be nonzero).
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

/// A declarative, seeded fault plan for a [`FaultSource`] or [`FaultSink`].
///
/// Rates are per-mille of `read_at` / `write_all` calls; injected
/// transient failures are bounded to at most [`FaultSpec::burst`]
/// *consecutive* failures, so "transient" keeps its real-world meaning: a
/// retry loop with more attempts than `burst` always gets through.
/// Corruption is *sticky*: every read overlapping a `corrupt` range sees
/// the same inverted bytes, the way a bad sector or bit-rotted page
/// behaves. The write-side hard faults are *positional*: `enospc_at` and
/// `crash_at` trip when the running byte count crosses the threshold,
/// which is what makes kill-point matrices enumerable.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Seed for the injection rolls (deterministic campaigns).
    pub seed: u64,
    /// Per-mille of reads answered with an injected transient `EIO`.
    pub transient_per_mille: u32,
    /// Per-mille of reads answered with an injected short read (also
    /// surfaced as transient: the all-or-fail `read_at` contract makes a
    /// short read indistinguishable from an interrupted one).
    pub short_read_per_mille: u32,
    /// Per-mille of writes answered with an injected transient `EIO`
    /// (`wtransient=`). No bytes reach the inner sink, so a retry is
    /// safe — the same discipline real appenders get from
    /// write-at-tracked-offset.
    pub write_transient_per_mille: u32,
    /// Per-mille of writes answered with an injected short write
    /// (`wshort=`). Surfaced as transient for the same reason short reads
    /// are: the all-or-fail `write_all` contract makes a short write an
    /// interrupted one, and the tracked append offset only advances on
    /// success, so the retry overwrites the torn tail.
    pub short_write_per_mille: u32,
    /// Most *consecutive* injected transient failures before an operation
    /// is forced through. A retry policy with `attempts > burst` is
    /// guaranteed to succeed against a transient-only plan.
    pub burst: u32,
    /// Added latency per read (media stall simulation).
    pub latency: Duration,
    /// Absolute byte ranges whose contents are persistently inverted.
    pub corrupt: Vec<Range<u64>>,
    /// Fail every write with [`StoreError::NoSpace`] once it would push
    /// the sink past this many bytes (`enospc_at=`): the full-disk wall.
    /// Sticky — the filesystem does not grow back mid-write.
    pub enospc_at: Option<u64>,
    /// Simulate a hard crash at this byte offset (`crash_at=`): the write
    /// that crosses the threshold forwards only the prefix up to it, then
    /// this and every later operation (including `commit`) fails with a
    /// fatal error — the sink dies with a torn tail exactly `N` bytes
    /// long, like a process killed mid-`write(2)`.
    pub crash_at: Option<u64>,
    /// Only stores whose id contains this substring are wrapped; `None`
    /// wraps every store.
    pub matches: Option<String>,
}

impl Default for FaultSpec {
    fn default() -> Self {
        Self {
            seed: 0,
            transient_per_mille: 0,
            short_read_per_mille: 0,
            write_transient_per_mille: 0,
            short_write_per_mille: 0,
            burst: 2,
            latency: Duration::ZERO,
            corrupt: Vec::new(),
            enospc_at: None,
            crash_at: None,
            matches: None,
        }
    }
}

impl FaultSpec {
    /// Parses the compact CLI grammar used by `zmesh serve --fault-plan`
    /// and `zmesh pack --fault-sink`: comma-separated `key=value` pairs,
    /// e.g.
    ///
    /// ```text
    /// seed=42,transient=80,short=20,burst=2,latency_us=50,corrupt=100-200+4096-4200,match=blast
    /// seed=7,wtransient=300,wshort=100,burst=2          # write-side transients
    /// enospc_at=65536                                   # full disk after 64 KiB
    /// crash_at=4096                                     # hard death mid-write
    /// ```
    ///
    /// All keys are optional; unknown keys, repeated keys, and malformed
    /// values are errors (a typo'd chaos plan must not silently inject
    /// nothing).
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut out = Self::default();
        let mut seen: Vec<&str> = Vec::new();
        for pair in spec.split(',').filter(|p| !p.is_empty()) {
            let (key, value) = pair
                .split_once('=')
                .ok_or_else(|| format!("fault-plan entry {pair:?} is not key=value"))?;
            if seen.contains(&key) {
                return Err(format!(
                    "fault-plan key {key:?} given twice — the second value would \
                     silently win"
                ));
            }
            seen.push(key);
            let num = |what: &str| -> Result<u64, String> {
                value
                    .parse::<u64>()
                    .map_err(|_| format!("fault-plan {what}={value:?} is not a number"))
            };
            match key {
                "seed" => out.seed = num("seed")?,
                "transient" => out.transient_per_mille = num("transient")? as u32,
                "short" => out.short_read_per_mille = num("short")? as u32,
                "wtransient" => out.write_transient_per_mille = num("wtransient")? as u32,
                "wshort" => out.short_write_per_mille = num("wshort")? as u32,
                "burst" => out.burst = num("burst")? as u32,
                "latency_us" => out.latency = Duration::from_micros(num("latency_us")?),
                "enospc_at" => out.enospc_at = Some(num("enospc_at")?),
                "crash_at" => out.crash_at = Some(num("crash_at")?),
                "match" => out.matches = Some(value.to_string()),
                "corrupt" => {
                    for range in value.split('+') {
                        let (lo, hi) = range
                            .split_once('-')
                            .ok_or_else(|| format!("corrupt range {range:?} is not lo-hi"))?;
                        let lo: u64 = lo
                            .parse()
                            .map_err(|_| format!("corrupt range start {lo:?} is not a number"))?;
                        let hi: u64 = hi
                            .parse()
                            .map_err(|_| format!("corrupt range end {hi:?} is not a number"))?;
                        if lo >= hi {
                            return Err(format!("corrupt range {range:?} is empty or inverted"));
                        }
                        out.corrupt.push(lo..hi);
                    }
                }
                other => return Err(format!("unknown fault-plan key {other:?}")),
            }
        }
        if out.transient_per_mille + out.short_read_per_mille > 1000 {
            return Err("transient + short rates exceed 1000 per mille".into());
        }
        if out.write_transient_per_mille + out.short_write_per_mille > 1000 {
            return Err("wtransient + wshort rates exceed 1000 per mille".into());
        }
        Ok(out)
    }

    /// Whether this plan targets the store named `id`.
    pub fn applies_to(&self, id: &str) -> bool {
        self.matches.as_deref().is_none_or(|m| id.contains(m))
    }

    /// Whether the plan can inject anything at all.
    pub fn is_active(&self) -> bool {
        self.transient_per_mille > 0
            || self.short_read_per_mille > 0
            || !self.latency.is_zero()
            || !self.corrupt.is_empty()
            || self.is_write_active()
    }

    /// Whether the plan can inject anything on the write side.
    pub fn is_write_active(&self) -> bool {
        self.write_transient_per_mille > 0
            || self.short_write_per_mille > 0
            || self.enospc_at.is_some()
            || self.crash_at.is_some()
    }
}

/// Injection counters of one [`FaultSource`] — what the plan actually did,
/// for asserting against `/metrics` after a chaos run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Injected transient `EIO` failures.
    pub transient: u64,
    /// Injected short-read failures.
    pub short_reads: u64,
    /// Successful reads whose buffers were corrupted on the way out.
    pub corrupted_reads: u64,
    /// Reads delayed by the plan's added latency.
    pub delayed: u64,
}

/// A [`ByteSource`] wrapper that injects faults per a seeded [`FaultSpec`]
/// — the runtime complement to the at-rest helpers above, for driving a
/// *live* reader (or a whole daemon) through I/O failure scenarios.
///
/// `as_slice` deliberately stays `None` even when the inner source is
/// zero-copy, so every access funnels through `read_at` and the plan.
pub struct FaultSource<S: ByteSource> {
    inner: S,
    spec: FaultSpec,
    rng: Mutex<Lcg>,
    consecutive: AtomicU32,
    /// Reads left to answer with a panic ([`FaultSource::panic_next`]).
    panics: AtomicU32,
    transient: AtomicU64,
    short_reads: AtomicU64,
    corrupted: AtomicU64,
    delayed: AtomicU64,
}

impl<S: ByteSource> FaultSource<S> {
    /// Wraps `inner` under `spec`.
    pub fn new(inner: S, spec: FaultSpec) -> Self {
        let rng = Mutex::new(Lcg::new(spec.seed));
        Self {
            inner,
            spec,
            rng,
            consecutive: AtomicU32::new(0),
            panics: AtomicU32::new(0),
            transient: AtomicU64::new(0),
            short_reads: AtomicU64::new(0),
            corrupted: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
        }
    }

    /// Snapshot of what the plan has injected so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            transient: self.transient.load(Ordering::Relaxed),
            short_reads: self.short_reads.load(Ordering::Relaxed),
            corrupted_reads: self.corrupted.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
        }
    }

    /// Makes the next `reads` calls to `read_at` panic — a bug in the read
    /// path, for testing that a caller contains it. Armed after an open,
    /// it hits the reads of the queries that follow.
    pub fn panic_next(&self, reads: u32) {
        self.panics.store(reads, Ordering::SeqCst);
    }

    /// The plan this source injects.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// The wrapped source.
    pub fn inner(&self) -> &S {
        &self.inner
    }
}

impl<S: ByteSource> ByteSource for FaultSource<S> {
    fn len(&self) -> u64 {
        self.inner.len()
    }

    fn read_at(&self, offset: u64, buf: &mut [u8]) -> Result<(), StoreError> {
        let armed = self
            .panics
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1));
        if armed.is_ok() {
            panic!("injected panic reading {} bytes at {offset}", buf.len());
        }
        if !self.spec.latency.is_zero() {
            std::thread::sleep(self.spec.latency);
            self.delayed.fetch_add(1, Ordering::Relaxed);
        }
        let roll = (self.rng.lock().expect("fault rng poisoned").next_u64() % 1000) as u32;
        if self.consecutive.load(Ordering::Relaxed) < self.spec.burst {
            if roll < self.spec.transient_per_mille {
                self.consecutive.fetch_add(1, Ordering::Relaxed);
                self.transient.fetch_add(1, Ordering::Relaxed);
                return Err(StoreError::IoTransient(format!(
                    "injected EIO reading {} bytes at {offset}",
                    buf.len()
                )));
            }
            if roll < self.spec.transient_per_mille + self.spec.short_read_per_mille {
                self.consecutive.fetch_add(1, Ordering::Relaxed);
                self.short_reads.fetch_add(1, Ordering::Relaxed);
                return Err(StoreError::IoTransient(format!(
                    "injected short read: {} of {} bytes at {offset}",
                    buf.len() / 2,
                    buf.len()
                )));
            }
        }
        self.consecutive.store(0, Ordering::Relaxed);
        self.inner.read_at(offset, buf)?;
        let (lo, hi) = (offset, offset + buf.len() as u64);
        let mut hit = false;
        for range in &self.spec.corrupt {
            let start = range.start.max(lo);
            let end = range.end.min(hi);
            for i in start..end {
                buf[(i - lo) as usize] ^= 0xff;
                hit = true;
            }
        }
        if hit {
            self.corrupted.fetch_add(1, Ordering::Relaxed);
        }
        Ok(())
    }

    fn bytes_read(&self) -> u64 {
        self.inner.bytes_read()
    }

    fn read_calls(&self) -> u64 {
        self.inner.read_calls()
    }
}

/// Injection counters of one [`FaultSink`] — the write-side mirror of
/// [`FaultStats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SinkFaultStats {
    /// Injected transient write failures (`wtransient` + `wshort`).
    pub transient: u64,
    /// Of those, injected short writes.
    pub short_writes: u64,
    /// Whether the `enospc_at` wall has been hit.
    pub enospc: bool,
    /// Whether the `crash_at` kill point has fired.
    pub crashed: bool,
}

/// A [`ByteSink`] wrapper that injects write faults per a seeded
/// [`FaultSpec`] — the write-side complement of [`FaultSource`], for
/// driving a *live* [`crate::StoreWriter`] streaming pack through disk
/// failure and kill-point scenarios.
///
/// Injected transients never forward bytes to the inner sink, so the
/// append position only advances on success and a retry of the same
/// buffer is exact — the invariant [`ByteSink::write_all`] documents. The
/// `crash_at` fault deliberately *does* forward the prefix below the kill
/// point and then fails everything forever, reproducing a process killed
/// mid-`write(2)`: the inner sink is left holding a torn tail for the
/// atomicity harness to examine.
pub struct FaultSink<S: ByteSink> {
    inner: S,
    spec: FaultSpec,
    rng: Lcg,
    consecutive: u32,
    /// Bytes successfully forwarded — the position `enospc_at` / `crash_at`
    /// thresholds are judged against.
    forwarded: u64,
    transient: u64,
    short_writes: u64,
    enospc: bool,
    crashed: bool,
}

impl<S: ByteSink> FaultSink<S> {
    /// Wraps `inner` under `spec`.
    pub fn new(inner: S, spec: FaultSpec) -> Self {
        let rng = Lcg::new(spec.seed);
        Self {
            inner,
            spec,
            rng,
            consecutive: 0,
            forwarded: 0,
            transient: 0,
            short_writes: 0,
            enospc: false,
            crashed: false,
        }
    }

    /// Snapshot of what the plan has injected so far.
    pub fn stats(&self) -> SinkFaultStats {
        SinkFaultStats {
            transient: self.transient,
            short_writes: self.short_writes,
            enospc: self.enospc,
            crashed: self.crashed,
        }
    }

    /// The plan this sink injects.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// The wrapped sink.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The wrapped sink, mutably — the kill-point harness uses this to
    /// reach [`crate::FileSink::preserve_tmp_on_drop`] after a crash fires
    /// (a killed process never runs its cleanup).
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// Consumes the wrapper, returning the inner sink.
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// The terminal error every operation returns once the kill point has
    /// fired.
    fn crash_error(&self) -> StoreError {
        StoreError::Io(format!(
            "injected crash at byte {}",
            self.spec.crash_at.unwrap_or(self.forwarded)
        ))
    }
}

impl<S: ByteSink> ByteSink for FaultSink<S> {
    fn write_all(&mut self, buf: &[u8]) -> Result<(), StoreError> {
        if self.crashed {
            return Err(self.crash_error());
        }
        let end = self.forwarded + buf.len() as u64;
        if let Some(kill) = self.spec.crash_at {
            if end > kill {
                // Forward the prefix below the kill point, then die. Any
                // failure forwarding it is subsumed by the crash itself.
                let keep = kill.saturating_sub(self.forwarded) as usize;
                if keep > 0 {
                    let _ = self.inner.write_all(&buf[..keep]);
                }
                self.crashed = true;
                return Err(self.crash_error());
            }
        }
        if let Some(wall) = self.spec.enospc_at {
            if end > wall {
                self.enospc = true;
                return Err(StoreError::NoSpace(format!(
                    "injected ENOSPC: {} bytes would cross the {wall}-byte wall",
                    buf.len()
                )));
            }
        }
        let roll = (self.rng.next_u64() % 1000) as u32;
        if self.consecutive < self.spec.burst {
            if roll < self.spec.write_transient_per_mille {
                self.consecutive += 1;
                self.transient += 1;
                return Err(StoreError::IoTransient(format!(
                    "injected EIO writing {} bytes at {}",
                    buf.len(),
                    self.forwarded
                )));
            }
            if roll < self.spec.write_transient_per_mille + self.spec.short_write_per_mille {
                self.consecutive += 1;
                self.transient += 1;
                self.short_writes += 1;
                return Err(StoreError::IoTransient(format!(
                    "injected short write: {} of {} bytes at {}",
                    buf.len() / 2,
                    buf.len(),
                    self.forwarded
                )));
            }
        }
        self.consecutive = 0;
        self.inner.write_all(buf)?;
        self.forwarded = end;
        Ok(())
    }

    fn flush(&mut self) -> Result<(), StoreError> {
        if self.crashed {
            return Err(self.crash_error());
        }
        self.inner.flush()
    }

    fn sync(&mut self) -> Result<(), StoreError> {
        if self.crashed {
            return Err(self.crash_error());
        }
        self.inner.sync()
    }

    fn commit(&mut self) -> Result<(), StoreError> {
        if self.crashed {
            return Err(self.crash_error());
        }
        self.inner.commit()
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn write_calls(&self) -> u64 {
        self.inner.write_calls()
    }
}

/// Flips `count` pseudo-random bits anywhere in `bytes`, deterministically
/// from `seed`. Returns the flipped (byte, bit) positions.
pub fn random_flips(bytes: &mut [u8], seed: u64, count: usize) -> Vec<(usize, u8)> {
    assert!(!bytes.is_empty(), "faultinject: empty buffer");
    let mut rng = Lcg::new(seed);
    let mut flipped = Vec::with_capacity(count);
    for _ in 0..count {
        let idx = rng.below(bytes.len());
        let bit = (rng.next_u64() % 8) as u8;
        flip_bit(bytes, idx, bit);
        flipped.push((idx, bit));
    }
    flipped
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::StoreWriter;
    use zmesh::CompressionConfig;
    use zmesh_amr::{datasets, AmrField, StorageMode};

    fn store() -> Vec<u8> {
        let ds = datasets::blast2d(StorageMode::AllCells, datasets::Scale::Tiny);
        let fields: Vec<(&str, &AmrField)> =
            ds.fields.iter().map(|(n, f)| (n.as_str(), f)).collect();
        StoreWriter::new(CompressionConfig::zmesh_default())
            .with_chunk_target_bytes(512)
            .write(&fields)
            .unwrap()
            .bytes
    }

    #[test]
    fn flips_damage_exactly_the_named_target() {
        let clean = store();
        let mut bytes = clean.clone();
        flip_data_chunk(&mut bytes, 0, 1);
        let diff: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] != clean[i]).collect();
        assert_eq!(diff.len(), 1);
        assert!(chunk_byte_range(&clean, 0, 1).contains(&diff[0]));

        let mut bytes = clean.clone();
        flip_parity_chunk(&mut bytes, 1, 0);
        let diff: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] != clean[i]).collect();
        assert_eq!(diff.len(), 1);
        assert!(parity_byte_range(&clean, 1, 0).contains(&diff[0]));
    }

    #[test]
    fn multi_chunk_flips_hit_exactly_the_picked_chunks() {
        let clean = store();
        let mut bytes = clean.clone();
        let picked = random_chunk_flips(&mut bytes, 0, 7, 3);
        assert_eq!(picked.len(), 3);
        let mut sorted = picked.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3, "picks must be distinct");
        let diff: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] != clean[i]).collect();
        assert_eq!(diff.len(), 3);
        for (i, &chunk) in picked.iter().enumerate() {
            let range = chunk_byte_range(&clean, 0, chunk);
            assert!(diff.iter().any(|d| range.contains(d)), "pick {i} missed");
        }

        // Same seed, same picks.
        let mut again = clean.clone();
        assert_eq!(random_chunk_flips(&mut again, 0, 7, 3), picked);
        assert_eq!(again, bytes);
    }

    #[test]
    fn torn_at_is_a_prefix_copy() {
        let clean = store();
        let torn = torn_at(&clean, clean.len() - 5);
        assert_eq!(&torn[..], &clean[..clean.len() - 5]);
        assert_eq!(torn_at(&clean, clean.len()), clean);
    }

    #[test]
    fn fault_spec_parses_the_full_grammar() {
        let spec = FaultSpec::parse(
            "seed=42,transient=80,short=20,burst=3,latency_us=50,corrupt=100-200+4096-4200,match=blast",
        )
        .unwrap();
        assert_eq!(spec.seed, 42);
        assert_eq!(spec.transient_per_mille, 80);
        assert_eq!(spec.short_read_per_mille, 20);
        assert_eq!(spec.burst, 3);
        assert_eq!(spec.latency, Duration::from_micros(50));
        assert_eq!(spec.corrupt, vec![100..200, 4096..4200]);
        assert_eq!(spec.matches.as_deref(), Some("blast"));
        assert!(spec.is_active());
        assert!(spec.applies_to("blast2d"));
        assert!(!spec.applies_to("sedov"));
        assert_eq!(FaultSpec::parse("").unwrap(), FaultSpec::default());
        assert!(!FaultSpec::default().is_active());
        assert!(FaultSpec::default().applies_to("anything"));

        assert!(FaultSpec::parse("bogus").is_err());
        assert!(FaultSpec::parse("volume=11").is_err());
        assert!(FaultSpec::parse("seed=x").is_err());
        assert!(FaultSpec::parse("corrupt=9").is_err());
        assert!(FaultSpec::parse("corrupt=9-9").is_err());
        assert!(FaultSpec::parse("transient=600,short=600").is_err());
    }

    #[test]
    fn fault_spec_parses_the_write_side_grammar() {
        let spec =
            FaultSpec::parse("seed=9,wtransient=300,wshort=100,enospc_at=65536,crash_at=4096")
                .unwrap();
        assert_eq!(spec.write_transient_per_mille, 300);
        assert_eq!(spec.short_write_per_mille, 100);
        assert_eq!(spec.enospc_at, Some(65536));
        assert_eq!(spec.crash_at, Some(4096));
        assert!(spec.is_active());
        assert!(spec.is_write_active());
        assert!(!FaultSpec::default().is_write_active());
        // A read-only plan is not write-active.
        assert!(!FaultSpec::parse("transient=100").unwrap().is_write_active());

        assert!(FaultSpec::parse("wtransient=600,wshort=600").is_err());
        assert!(FaultSpec::parse("enospc_at=x").is_err());
        assert!(FaultSpec::parse("crash=10").is_err(), "unknown key");
    }

    #[test]
    fn fault_spec_rejects_repeated_keys() {
        assert!(FaultSpec::parse("seed=1,seed=2").is_err());
        assert!(FaultSpec::parse("crash_at=1,crash_at=2").is_err());
        // Multiple corrupt ranges go through `+`, not key repetition.
        assert!(FaultSpec::parse("corrupt=1-2,corrupt=3-4").is_err());
        assert_eq!(
            FaultSpec::parse("corrupt=1-2+3-4").unwrap().corrupt,
            vec![1..2, 3..4]
        );
    }

    #[test]
    fn fault_sink_injects_bounded_transient_bursts() {
        let spec = FaultSpec {
            seed: 7,
            write_transient_per_mille: 1000, // every eligible write fails...
            burst: 2,                        // ...but never 3 in a row
            ..FaultSpec::default()
        };
        let mut sink = FaultSink::new(crate::VecSink::new(), spec);
        let mut pattern = Vec::new();
        for _ in 0..9 {
            pattern.push(sink.write_all(b"abcd").is_ok());
        }
        assert_eq!(
            pattern,
            [false, false, true, false, false, true, false, false, true],
            "burst=2 must force every third write through"
        );
        assert_eq!(sink.stats().transient, 6);
        assert_eq!(sink.stats().short_writes, 0);
        assert!(!sink.stats().enospc);
        assert!(!sink.stats().crashed);
        // Failed writes forwarded nothing: only the successes landed.
        assert_eq!(sink.bytes_written(), 12);
        assert_eq!(sink.inner().bytes(), b"abcdabcdabcd");
        let err = {
            let mut s = FaultSink::new(
                crate::VecSink::new(),
                FaultSpec {
                    write_transient_per_mille: 1000,
                    ..FaultSpec::default()
                },
            );
            s.write_all(b"x").unwrap_err()
        };
        assert!(err.is_transient(), "{err}");
    }

    #[test]
    fn fault_sink_enospc_wall_is_positional_and_sticky() {
        let spec = FaultSpec {
            enospc_at: Some(10),
            ..FaultSpec::default()
        };
        let mut sink = FaultSink::new(crate::VecSink::new(), spec);
        sink.write_all(b"12345678").unwrap(); // 8 ≤ 10
        let err = sink.write_all(b"abc").unwrap_err(); // 11 > 10
        assert!(matches!(err, StoreError::NoSpace(_)), "{err}");
        assert!(!err.is_transient(), "ENOSPC must not be retried");
        assert!(sink.stats().enospc);
        // Sticky: the wall does not move.
        assert!(matches!(
            sink.write_all(b"abc").unwrap_err(),
            StoreError::NoSpace(_)
        ));
        // A write that fits still goes through (short tail files do).
        sink.write_all(b"ab").unwrap();
        assert_eq!(sink.inner().bytes(), b"12345678ab");
    }

    #[test]
    fn fault_sink_crash_leaves_exactly_the_prefix_and_fails_forever() {
        let spec = FaultSpec {
            crash_at: Some(6),
            ..FaultSpec::default()
        };
        let mut sink = FaultSink::new(crate::VecSink::new(), spec);
        sink.write_all(b"1234").unwrap();
        let err = sink.write_all(b"abcd").unwrap_err(); // would end at 8 > 6
        assert!(!err.is_transient(), "a crash must not be retried");
        assert!(sink.stats().crashed);
        // The torn tail is exactly the prefix below the kill point.
        assert_eq!(sink.inner().bytes(), b"1234ab");
        // Everything after death fails, including the publish.
        assert!(sink.write_all(b"x").is_err());
        assert!(sink.flush().is_err());
        assert!(sink.sync().is_err());
        assert!(sink.commit().is_err());
    }

    #[test]
    fn fault_source_injects_bounded_transient_bursts() {
        let data: Vec<u8> = (0..200u8).collect();
        let spec = FaultSpec {
            seed: 7,
            transient_per_mille: 1000, // every eligible read fails...
            burst: 2,                  // ...but never 3 in a row
            ..FaultSpec::default()
        };
        let src = FaultSource::new(crate::SliceSource::new(&data), spec);
        assert_eq!(src.len(), 200);
        assert!(src.as_slice().is_none(), "faults must not be bypassable");
        let mut buf = [0u8; 4];
        let mut pattern = Vec::new();
        for _ in 0..9 {
            pattern.push(src.read_at(8, &mut buf).is_ok());
        }
        assert_eq!(
            pattern,
            [false, false, true, false, false, true, false, false, true],
            "burst=2 must force every third read through"
        );
        assert_eq!(buf, [8, 9, 10, 11]);
        assert_eq!(src.stats().transient, 6);
        assert_eq!(src.stats().short_reads, 0);
        let err = {
            let s = FaultSource::new(
                crate::SliceSource::new(&data),
                FaultSpec {
                    transient_per_mille: 1000,
                    ..FaultSpec::default()
                },
            );
            s.read_at(0, &mut buf).unwrap_err()
        };
        assert!(err.is_transient(), "{err}");
    }

    #[test]
    fn fault_source_corruption_is_sticky_and_range_exact() {
        let data: Vec<u8> = (0..100u8).collect();
        let spec = FaultSpec {
            corrupt: vec![10..13, 50..51],
            ..FaultSpec::default()
        };
        let src = FaultSource::new(crate::SliceSource::new(&data), spec);
        let mut buf = [0u8; 20];
        src.read_at(5, &mut buf).unwrap();
        let mut want: Vec<u8> = (5..25u8).collect();
        for b in &mut want[5..8] {
            *b ^= 0xff; // bytes 10..13
        }
        assert_eq!(buf.to_vec(), want);
        // Sticky: a second read sees the identical damage.
        let mut again = [0u8; 20];
        src.read_at(5, &mut again).unwrap();
        assert_eq!(again, buf);
        // Reads not touching a corrupt range pass through clean.
        let mut clean = [0u8; 4];
        src.read_at(30, &mut clean).unwrap();
        assert_eq!(clean, [30, 31, 32, 33]);
        assert_eq!(src.stats().corrupted_reads, 2);
        // Traffic counters delegate (slice sources report full residency).
        assert_eq!(src.bytes_read(), data.len() as u64);
        assert_eq!(src.spec().corrupt.len(), 2);
    }

    #[test]
    fn random_flips_are_deterministic() {
        let clean = store();
        let (mut a, mut b) = (clean.clone(), clean.clone());
        let fa = random_flips(&mut a, 42, 16);
        let fb = random_flips(&mut b, 42, 16);
        assert_eq!(fa, fb);
        assert_eq!(a, b);
        assert_ne!(a, clean);
        let mut c = clean.clone();
        let fc = random_flips(&mut c, 43, 16);
        assert_ne!(fa, fc);
    }
}
