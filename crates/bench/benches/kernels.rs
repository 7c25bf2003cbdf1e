//! Criterion bench: the three SIMD hot-loop kernels against their scalar
//! references — GF(2⁸) fused multiply-accumulate (Reed–Solomon parity),
//! the CRC-32 walk (scrub/read integrity), and the SZ predictor-selection
//! / symbol-delta loops. Run via `just bench-kernels`, which writes the
//! repository's `BENCH_kernels.json` through the CRITERION_JSON plumbing.
//!
//! Each `*_simd` entry times whatever tier the runtime probe dispatched to
//! on this machine (see `zmesh_kernels::active()`); the `*_scalar` entry
//! pins the portable fallback the differential tests compare against. The
//! headline acceptance number is `gf256/fma_simd` vs `gf256/fma_scalar`.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

/// One RS parity row's worth of work: a full chunk accumulated at a
/// representative coefficient.
const GF_LEN: usize = 64 * 1024;
/// A chunk-scale CRC walk (matches the store's default chunk target).
const CRC_LEN: usize = 1 << 20;
/// One selection block extended with its 3-value seed history.
const SZ_LEN: usize = 64 * 1024;

fn gf_tables(c: u8) -> ([u8; 16], [u8; 16]) {
    // Same construction as `zmesh_store::gf256::MulTable`: products of `c`
    // with the 16 low / 16 high nibble values. Rebuilt locally from the
    // kernel's contract (lo[s&0xf] ^ hi[s>>4]) via the scalar reference.
    let mut lo = [0u8; 16];
    let mut hi = [0u8; 16];
    for (i, slot) in lo.iter_mut().enumerate() {
        *slot = gf_mul(c, i as u8);
    }
    for (i, slot) in hi.iter_mut().enumerate() {
        *slot = gf_mul(c, (i as u8) << 4);
    }
    (lo, hi)
}

/// Schoolbook GF(2⁸) multiply (AES polynomial 0x11d), only used to build
/// the nibble tables above.
fn gf_mul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    while b != 0 {
        if b & 1 != 0 {
            p ^= a;
        }
        let hi = a & 0x80;
        a <<= 1;
        if hi != 0 {
            a ^= 0x1d;
        }
        b >>= 1;
    }
    p
}

fn fill(buf: &mut [u8], mut seed: u64) {
    for b in buf.iter_mut() {
        seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *b = (seed >> 56) as u8;
    }
}

fn bench_gf256(c: &mut Criterion) {
    let (lo, hi) = gf_tables(0x8e);
    let mut src = vec![0u8; GF_LEN];
    fill(&mut src, 1);
    let mut acc = vec![0u8; GF_LEN];
    fill(&mut acc, 2);

    let mut g = c.benchmark_group("gf256");
    g.throughput(Throughput::Bytes(GF_LEN as u64));
    g.bench_function("fma_simd", |b| {
        b.iter(|| zmesh_kernels::gf256::fma_into(&lo, &hi, black_box(&mut acc), black_box(&src)))
    });
    g.bench_function("fma_scalar", |b| {
        b.iter(|| zmesh_kernels::gf256::fma_scalar(&lo, &hi, black_box(&mut acc), black_box(&src)))
    });
    g.finish();
}

fn bench_crc32(c: &mut Criterion) {
    let mut data = vec![0u8; CRC_LEN];
    fill(&mut data, 3);

    let mut g = c.benchmark_group("crc32");
    g.throughput(Throughput::Bytes(CRC_LEN as u64));
    g.bench_function("walk_simd", |b| {
        b.iter(|| zmesh_kernels::crc32::update(0xffff_ffff, black_box(&data)))
    });
    g.bench_function("walk_scalar_slice8", |b| {
        b.iter(|| zmesh_kernels::crc32::update_scalar(0xffff_ffff, black_box(&data)))
    });
    g.bench_function("walk_bytewise", |b| {
        b.iter(|| zmesh_kernels::crc32::update_bytewise(0xffff_ffff, black_box(&data)))
    });
    g.finish();
}

fn bench_sz(c: &mut Criterion) {
    let mut seed = 42u64;
    let mut next = move || {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (seed >> 11) as f64 / (1u64 << 53) as f64
    };
    let ext: Vec<f64> = (0..SZ_LEN + 3).map(|_| next() * 100.0).collect();
    let symbols: Vec<u16> = (0..SZ_LEN).map(|i| (i % 65_535 + 1) as u16).collect();
    let mut deltas = vec![0.0f64; SZ_LEN];

    let mut g = c.benchmark_group("sz");
    g.throughput(Throughput::Elements(SZ_LEN as u64));
    g.bench_function("trial_costs_simd", |b| {
        b.iter(|| zmesh_kernels::sz::trial_costs(black_box(&ext), 3, 1e-3))
    });
    g.bench_function("trial_costs_scalar", |b| {
        b.iter(|| zmesh_kernels::sz::trial_costs_scalar(black_box(&ext), 3, 1e-3))
    });
    g.bench_function("symbol_deltas_simd", |b| {
        b.iter(|| zmesh_kernels::sz::symbol_deltas(black_box(&symbols), 1 << 15, 2e-3, &mut deltas))
    });
    g.bench_function("symbol_deltas_scalar", |b| {
        b.iter(|| {
            zmesh_kernels::sz::symbol_deltas_scalar(black_box(&symbols), 1 << 15, 2e-3, &mut deltas)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_gf256, bench_crc32, bench_sz);
criterion_main!(benches);
