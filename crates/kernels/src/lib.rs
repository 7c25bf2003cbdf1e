//! Runtime-dispatched SIMD kernels for the workspace's three hottest byte
//! loops, each with an always-correct scalar fallback:
//!
//! * [`gf256`] — the nibble-split GF(2^8) constant-multiply / fused
//!   multiply-add behind Reed–Solomon parity encode, incremental streaming
//!   parity, and erasure recovery, as SSSE3/AVX2 `pshufb` and NEON
//!   `vqtbl1q_u8` table lookups (the ISA-L kernel shape);
//! * [`crc32`] — the CRC-32 (IEEE, reflected) walk every chunk read,
//!   scrub, and repair pays: slicing-by-8 as the scalar baseline, folded
//!   `PCLMULQDQ` on x86-64, the CRC extension on aarch64;
//! * [`sz`] — the vectorizable pieces of the SZ predict–quantize–
//!   reconstruct pipeline that stay **bit-identical** to the scalar code:
//!   the 1-D predict + quantize loop over up to eight independent streams
//!   (one per lane of two AVX2 vectors), the predictor-selection trial
//!   residual pass, and the symbol→delta precompute that lifts the
//!   int→float convert + multiply out of the sequential reconstruction
//!   chain.
//!
//! # Dispatch model
//!
//! CPU capabilities are probed **once** (first use, cached in a
//! [`std::sync::OnceLock`]) via `is_x86_feature_detected!` /
//! `is_aarch64_feature_detected!`; every kernel entry point branches on the
//! cached [`Caps`] and falls through to the scalar implementation when a
//! feature is missing. Setting the environment variable
//! **`ZMESH_FORCE_SCALAR=1`** (read at first probe) pins every kernel to
//! its scalar fallback — the verify harness re-runs the store and codec
//! suites under it so the fallback can never rot, and differential tests
//! use the per-kernel `*_scalar` exports to compare both paths inside one
//! process regardless of the environment.
//!
//! # Safety argument
//!
//! Every `unsafe` block in this crate is an intrinsics body marked
//! `#[target_feature(enable = ...)]` and is reachable only through a
//! dispatch branch that checked the exact same feature at runtime, so the
//! instructions are guaranteed to exist on the executing CPU. All memory
//! access goes through unaligned load/store intrinsics on ranges the safe
//! wrapper already bounds-checked (`i + LANES <= len` loops plus scalar
//! tails); no pointer arithmetic escapes those ranges, and `&mut`/`&`
//! aliasing rules make accumulator/source overlap impossible. Kernels are
//! pure functions of their inputs — no globals besides the read-only
//! capability cache.

pub mod crc32;
pub mod gf256;
pub mod sz;

use std::sync::OnceLock;

/// The CPU capabilities the kernels dispatch on, probed once per process.
#[derive(Debug, Clone, Copy, Default)]
pub struct Caps {
    /// `ZMESH_FORCE_SCALAR` was set: every kernel uses its scalar path.
    pub forced_scalar: bool,
    /// x86/x86-64 SSSE3 (`pshufb`).
    pub ssse3: bool,
    /// x86/x86-64 AVX2 (32-lane `pshufb`, 4-lane f64).
    pub avx2: bool,
    /// x86-64 carry-less multiply (+ SSE4.1) for folded CRC-32.
    pub pclmul: bool,
    /// aarch64 NEON (`vqtbl1q_u8`), always present on aarch64.
    pub neon: bool,
    /// aarch64 CRC32 extension (IEEE polynomial in hardware).
    pub crc: bool,
}

impl Caps {
    fn probe() -> Self {
        if force_scalar_requested() {
            return Self {
                forced_scalar: true,
                ..Self::default()
            };
        }
        #[cfg(any(target_arch = "x86", target_arch = "x86_64"))]
        {
            Self {
                forced_scalar: false,
                ssse3: std::arch::is_x86_feature_detected!("ssse3"),
                avx2: std::arch::is_x86_feature_detected!("avx2"),
                #[cfg(target_arch = "x86_64")]
                pclmul: std::arch::is_x86_feature_detected!("pclmulqdq")
                    && std::arch::is_x86_feature_detected!("sse4.1"),
                #[cfg(not(target_arch = "x86_64"))]
                pclmul: false,
                neon: false,
                crc: false,
            }
        }
        #[cfg(target_arch = "aarch64")]
        {
            Self {
                forced_scalar: false,
                ssse3: false,
                avx2: false,
                pclmul: false,
                neon: std::arch::is_aarch64_feature_detected!("neon"),
                crc: std::arch::is_aarch64_feature_detected!("crc"),
            }
        }
        #[cfg(not(any(target_arch = "x86", target_arch = "x86_64", target_arch = "aarch64")))]
        {
            Self::default()
        }
    }
}

fn force_scalar_requested() -> bool {
    match std::env::var("ZMESH_FORCE_SCALAR") {
        Ok(v) => !v.is_empty() && v != "0",
        Err(_) => false,
    }
}

/// The capability set every kernel dispatches on (cached after first use).
pub fn caps() -> &'static Caps {
    static CAPS: OnceLock<Caps> = OnceLock::new();
    CAPS.get_or_init(Caps::probe)
}

/// Human-readable description of the active dispatch, for diagnostics and
/// bench labels: e.g. `"avx2+pclmul"`, `"neon+crc"`, `"scalar"`,
/// `"scalar (forced)"`.
pub fn active() -> String {
    let c = caps();
    if c.forced_scalar {
        return "scalar (forced)".into();
    }
    let mut parts = Vec::new();
    if c.avx2 {
        parts.push("avx2");
    } else if c.ssse3 {
        parts.push("ssse3");
    }
    if c.pclmul {
        parts.push("pclmul");
    }
    if c.neon {
        parts.push("neon");
    }
    if c.crc {
        parts.push("crc");
    }
    if parts.is_empty() {
        "scalar".into()
    } else {
        parts.join("+")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn caps_probe_is_stable_and_consistent() {
        let a = *caps();
        let b = *caps();
        assert_eq!(format!("{a:?}"), format!("{b:?}"));
        if a.forced_scalar {
            assert!(!a.ssse3 && !a.avx2 && !a.pclmul && !a.neon && !a.crc);
            assert_eq!(active(), "scalar (forced)");
        }
        // AVX2 implies SSSE3 on any real CPU; the probe must agree.
        if a.avx2 {
            assert!(a.ssse3);
        }
        assert!(!active().is_empty());
    }
}
