//! Host-speed probe for the end-to-end timings.
//!
//! On a shared host the same op runs at different speeds from one second
//! to the next: on the 2-vCPU reference host a cold open took 41 ms in
//! quiet spells and 62 ms in busy ones, for stretches of a minute, while a
//! fixed ALU loop kept its time. What tracks the slowdown is cache- and
//! branch-heavy work, so the probe sorts a fixed array. Across one run,
//! op time rose in step with the probe (a probe of 100 µs went with a 41
//! ms open, 160 µs with 62 ms), so scaling each op by `REF_PROBE_NS /
//! probe` removes most of the host's share of the spread and leaves the
//! program's.

use std::time::{Duration, Instant};

/// The probe time the adjusted timings are scaled to: about what the
/// probe takes on the reference host (Xeon, 2.1 GHz) in a quiet spell, so
/// an adjusted time reads close to a quiet-host wall time.
pub const REF_PROBE_NS: f64 = 100_000.0;
/// Values the probe sorts.
const PROBE_LEN: usize = 8192;

/// Times one sort of a fixed pseudo-random array, in nanoseconds.
pub fn probe_ns() -> f64 {
    let mut x = 0x9e37_79b9u32;
    let mut v: Vec<u32> = (0..PROBE_LEN)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x
        })
        .collect();
    let t = Instant::now();
    v.sort_unstable();
    std::hint::black_box(&v);
    (t.elapsed().as_nanos() as f64).max(1.0)
}

/// Runs `f` between two probes; returns its result and their mean, the
/// host speed over the call.
pub fn bracket<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = probe_ns();
    let out = f();
    (out, (before + probe_ns()) / 2.0)
}

/// `ns` scaled from the host speed `probe` measured to the reference one.
pub fn adjust(ns: f64, probe: f64) -> f64 {
    ns * REF_PROBE_NS / probe
}

/// A probe re-taken at most once per `every`, for loops whose ops are too
/// short to probe each one.
pub struct HostProbe {
    every: Duration,
    last: Option<(Instant, f64)>,
}

impl HostProbe {
    pub fn new(every: Duration) -> Self {
        Self { every, last: None }
    }

    /// The latest probe time, re-probing when it is older than `every`.
    pub fn current(&mut self) -> f64 {
        match self.last {
            Some((at, ns)) if at.elapsed() < self.every => ns,
            _ => {
                let ns = probe_ns();
                self.last = Some((Instant::now(), ns));
                ns
            }
        }
    }
}
