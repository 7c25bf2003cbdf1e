//! GF(2^8) arithmetic and the Cauchy-matrix Reed–Solomon erasure code
//! behind v4 multi-erasure parity.
//!
//! The field is GF(2^8) with the AES-adjacent primitive polynomial
//! `x^8 + x^4 + x^3 + x^2 + 1` (0x11d), realised as compile-time exp/log
//! tables. The code is **systematic MDS**: `k` data shards are protected by
//! `m` parity shards, where parity row `j` holds
//!
//! ```text
//!   parity_j[b] = Σ_i  c[j][i] · data_i[b]        (sum over GF(2^8))
//!   c[j][i]     = 1 / (x_j ⊕ y_i),   x_j = j,  y_i = m + i
//! ```
//!
//! i.e. the generator's parity block is a Cauchy matrix over the disjoint
//! index sets `{0..m}` and `{m..m+k}` (so `k + m ≤ 256`). Every square
//! submatrix of a Cauchy matrix is invertible, which makes the full
//! generator `[I; C]` MDS: *any* `k` surviving shards determine the data,
//! so up to `m` erasures per group are recoverable. With `m = 1` the
//! coefficients are *not* all ones — XOR parity (v3) is deliberately kept
//! as its own scheme so v3 bytes stay bit-identical.
//!
//! Everything operates on untrusted lengths and returns `Option`; rebuilt
//! shards must still be verified against footer CRCs by the caller.

/// Largest supported `k + m` (the two Cauchy index sets must be disjoint
/// subsets of GF(2^8)).
pub const MAX_SHARDS: usize = 256;

const GF_POLY: u16 = 0x11d;

/// exp table doubled so `exp[log a + log b]` never needs a modulo.
const fn build_exp() -> [u8; 512] {
    let mut exp = [0u8; 512];
    let mut x: u16 = 1;
    let mut i = 0;
    while i < 255 {
        exp[i] = x as u8;
        exp[i + 255] = x as u8;
        x <<= 1;
        if x & 0x100 != 0 {
            x ^= GF_POLY;
        }
        i += 1;
    }
    exp[510] = exp[0];
    exp[511] = exp[1];
    exp
}

const fn build_log(exp: &[u8; 512]) -> [u8; 256] {
    let mut log = [0u8; 256];
    let mut i = 0;
    while i < 255 {
        log[exp[i] as usize] = i as u8;
        i += 1;
    }
    log
}

static EXP: [u8; 512] = build_exp();
static LOG: [u8; 256] = build_log(&build_exp());

/// Product in GF(2^8).
#[inline]
pub fn mul(a: u8, b: u8) -> u8 {
    if a == 0 || b == 0 {
        0
    } else {
        EXP[LOG[a as usize] as usize + LOG[b as usize] as usize]
    }
}

/// Multiplicative inverse; `None` for 0.
#[inline]
pub fn inv(a: u8) -> Option<u8> {
    if a == 0 {
        None
    } else {
        Some(EXP[255 - LOG[a as usize] as usize])
    }
}

/// Split low/high-nibble multiplication tables of a fixed coefficient.
///
/// GF(2^8) multiplication distributes over XOR, and any byte splits as
/// `b = (b & 0x0f) ⊕ (b & 0xf0)`, so `c·b = lo[b & 0xf] ⊕ hi[b >> 4]`.
/// Two 16-entry tables replace the historical flat 256-entry table: setup
/// drops from 256 field multiplications per coefficient to 32, and the 32
/// working bytes stay resident in one cache line through the whole encode
/// loop instead of streaming 256 table bytes against the shard data. The
/// two tables are exactly the operand shape of the SSSE3/AVX2 `pshufb`
/// and NEON `vqtbl1q_u8` kernels every fast RS coder uses, so the bulk
/// entry points ([`MulTable::fma_into`]) hand them straight to
/// [`zmesh_kernels::gf256`], which dispatches to real SIMD at runtime
/// (scalar fallback under `ZMESH_FORCE_SCALAR=1` or on older CPUs) with
/// bit-identical results.
pub struct MulTable {
    lo: [u8; 16],
    hi: [u8; 16],
}

impl MulTable {
    /// Tables for multiplying by `c`.
    pub fn new(c: u8) -> Self {
        let mut lo = [0u8; 16];
        let mut hi = [0u8; 16];
        let mut n = 0u8;
        while n < 16 {
            lo[n as usize] = mul(c, n);
            hi[n as usize] = mul(c, n << 4);
            n += 1;
        }
        Self { lo, hi }
    }

    /// `c · b` via two nibble lookups.
    #[inline]
    pub fn mul(&self, b: u8) -> u8 {
        self.lo[(b & 0x0f) as usize] ^ self.hi[(b >> 4) as usize]
    }

    /// XOR-accumulates `c · src[i]` into `acc[i]` over the overlap —
    /// the Reed–Solomon encode/recover/streaming-parity hot loop,
    /// SIMD-dispatched.
    #[inline]
    pub fn fma_into(&self, acc: &mut [u8], src: &[u8]) {
        zmesh_kernels::gf256::fma_into(&self.lo, &self.hi, acc, src);
    }
}

/// Cauchy coefficient `c[j][i]` tying parity shard `j` to data shard `i`
/// under `m` parity shards. `None` when the index sets would overlap
/// (`m + i ≥ 256`), which callers must rule out up front.
#[inline]
pub fn coefficient(j: usize, i: usize, m: usize) -> Option<u8> {
    let x = u8::try_from(j).ok()?;
    let y = u8::try_from(m.checked_add(i)?).ok()?;
    inv(x ^ y)
}

/// XOR-accumulates `c · src[i]` into `acc[..src.len()]`.
fn fma_into(acc: &mut [u8], src: &[u8], c: u8) {
    if c == 0 {
        return;
    }
    MulTable::new(c).fma_into(acc, src);
}

/// Encodes `m` parity shards over `members` (zero-padded to the longest
/// member) in one batch. Returns `None` when `members.len() + m > 256` or
/// `m == 0`. Stores accumulate shards member by member as chunks are laid
/// out; this batch form is their reference.
pub fn rs_encode(members: &[&[u8]], m: usize) -> Option<Vec<Vec<u8>>> {
    if m == 0 || members.len().checked_add(m)? > MAX_SHARDS {
        return None;
    }
    let shard_len = members.iter().map(|p| p.len()).max().unwrap_or(0);
    let mut shards = vec![vec![0u8; shard_len]; m];
    for (j, shard) in shards.iter_mut().enumerate() {
        for (i, member) in members.iter().enumerate() {
            let c = coefficient(j, i, m)?;
            fma_into(shard, member, c);
        }
    }
    Some(shards)
}

/// Rebuilds the missing data shards of one group from the survivors.
///
/// `members[i]` is `Some(payload)` for an intact data shard, `None` for an
/// erased one; `parity[j]` likewise for the `m` parity shards. `lens[i]`
/// gives each member's true (footer-recorded) length; present members and
/// parity shards are zero-padded to the parity shard length as during
/// encode. Returns the rebuilt members as `(index, bytes)` pairs (bytes
/// truncated to `lens[index]`), or `None` when the erasures exceed the
/// surviving parity, lengths are inconsistent with the parity invariant,
/// or the configuration is out of range. Callers must CRC-verify every
/// rebuilt shard.
pub fn rs_recover(
    members: &[Option<&[u8]>],
    parity: &[Option<&[u8]>],
    lens: &[usize],
) -> Option<Vec<(usize, Vec<u8>)>> {
    let k = members.len();
    let m = parity.len();
    if m == 0 || k != lens.len() || k.checked_add(m)? > MAX_SHARDS {
        return None;
    }
    let missing: Vec<usize> = (0..k).filter(|&i| members[i].is_none()).collect();
    if missing.is_empty() {
        return Some(Vec::new());
    }
    let avail: Vec<usize> = (0..m).filter(|&j| parity[j].is_some()).collect();
    if missing.len() > avail.len() {
        return None;
    }
    // Shard length comes from the surviving parity shards, which the
    // writer sized to the longest member; everything must fit inside it.
    let shard_len = parity[avail[0]]?.len();
    for &j in &avail {
        if parity[j]?.len() != shard_len {
            return None;
        }
    }
    for i in 0..k {
        let stored = members[i].map_or(lens[i], |p| p.len());
        if stored > shard_len {
            return None;
        }
    }

    // For each chosen parity row j:  Σ_{i missing} c[j][i]·d_i = p_j ⊕ Σ_{i present} c[j][i]·d_i.
    let e = missing.len();
    let rows = &avail[..e];
    let mut rhs: Vec<Vec<u8>> = Vec::with_capacity(e);
    let mut a = vec![vec![0u8; e]; e];
    for (r, &j) in rows.iter().enumerate() {
        let mut acc = parity[j]?.to_vec();
        for (i, member) in members.iter().enumerate() {
            if let Some(p) = member {
                fma_into(&mut acc, p, coefficient(j, i, m)?);
            }
        }
        for (s, &i) in missing.iter().enumerate() {
            a[r][s] = coefficient(j, i, m)?;
        }
        rhs.push(acc);
    }

    let inv_a = invert_matrix(a)?;
    let mut rebuilt = Vec::with_capacity(e);
    for (s, &i) in missing.iter().enumerate() {
        let mut shard = vec![0u8; shard_len];
        for (r, row_rhs) in rhs.iter().enumerate() {
            fma_into(&mut shard, row_rhs, inv_a[s][r]);
        }
        if lens[i] > shard.len() {
            return None;
        }
        shard.truncate(lens[i]);
        rebuilt.push((i, shard));
    }
    Some(rebuilt)
}

/// Gauss–Jordan inversion of a small square matrix over GF(2^8). `None`
/// when singular (cannot happen for Cauchy submatrices, but the input is
/// derived from untrusted counts, so never panic).
fn invert_matrix(mut a: Vec<Vec<u8>>) -> Option<Vec<Vec<u8>>> {
    let n = a.len();
    let mut out: Vec<Vec<u8>> = (0..n)
        .map(|r| (0..n).map(|c| u8::from(r == c)).collect())
        .collect();
    for col in 0..n {
        let pivot = (col..n).find(|&r| a[r][col] != 0)?;
        a.swap(col, pivot);
        out.swap(col, pivot);
        let piv_inv = inv(a[col][col])?;
        for c in 0..n {
            a[col][c] = mul(a[col][c], piv_inv);
            out[col][c] = mul(out[col][c], piv_inv);
        }
        for r in 0..n {
            if r != col && a[r][col] != 0 {
                let f = a[r][col];
                for c in 0..n {
                    let (ac, oc) = (mul(f, a[col][c]), mul(f, out[col][c]));
                    a[r][c] ^= ac;
                    out[r][c] ^= oc;
                }
            }
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_axioms_hold() {
        assert_eq!(mul(0, 7), 0);
        assert_eq!(mul(1, 201), 201);
        for a in 1..=255u8 {
            let ai = inv(a).unwrap();
            assert_eq!(mul(a, ai), 1, "a = {a}");
            // distributivity spot-check against a shifted partner
            let b = a.wrapping_mul(31).wrapping_add(7) | 1;
            assert_eq!(mul(a, b), mul(b, a));
        }
        assert!(inv(0).is_none());
    }

    #[test]
    fn nibble_tables_agree_with_field_mul_for_every_pair() {
        for c in 0..=255u8 {
            let t = MulTable::new(c);
            for b in 0..=255u8 {
                assert_eq!(t.mul(b), mul(c, b), "c = {c}, b = {b}");
            }
        }
    }

    #[test]
    fn nibble_fma_matches_scalar_accumulation() {
        let src: Vec<u8> = (0..=255u8).collect();
        for c in [0u8, 1, 2, 29, 142, 255] {
            let mut acc = vec![0xa5u8; src.len()];
            let expect: Vec<u8> = acc.iter().zip(&src).map(|(&a, &s)| a ^ mul(c, s)).collect();
            fma_into(&mut acc, &src, c);
            assert_eq!(acc, expect, "c = {c}");
        }
    }

    fn sample_members(k: usize, len: usize) -> Vec<Vec<u8>> {
        (0..k)
            .map(|i| {
                (0..len + i % 3)
                    .map(|b| (b as u8).wrapping_mul(17).wrapping_add(i as u8))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn recovers_every_erasure_pattern_up_to_m() {
        for (k, m) in [(1usize, 1usize), (3, 1), (4, 2), (5, 3), (8, 2)] {
            let members = sample_members(k, 29);
            let refs: Vec<&[u8]> = members.iter().map(Vec::as_slice).collect();
            let parity = rs_encode(&refs, m).unwrap();
            let lens: Vec<usize> = members.iter().map(Vec::len).collect();
            // every subset of data indices with |subset| ≤ m
            for mask in 0u32..(1 << k) {
                let erased = mask.count_ones() as usize;
                if erased == 0 || erased > m {
                    continue;
                }
                let view: Vec<Option<&[u8]>> = (0..k)
                    .map(|i| (mask >> i & 1 == 0).then_some(members[i].as_slice()))
                    .collect();
                let pview: Vec<Option<&[u8]>> = parity.iter().map(|p| Some(p.as_slice())).collect();
                let rebuilt = rs_recover(&view, &pview, &lens).unwrap();
                assert_eq!(rebuilt.len(), erased);
                for (i, bytes) in rebuilt {
                    assert_eq!(bytes, members[i], "k={k} m={m} mask={mask:b} i={i}");
                }
            }
        }
    }

    #[test]
    fn survives_parity_loss_while_erasures_fit() {
        let members = sample_members(6, 40);
        let refs: Vec<&[u8]> = members.iter().map(Vec::as_slice).collect();
        let parity = rs_encode(&refs, 3).unwrap();
        let lens: Vec<usize> = members.iter().map(Vec::len).collect();
        // 2 data erasures + 1 parity erasure: still 2 parity rows ≥ 2 missing.
        let mut view: Vec<Option<&[u8]>> = refs.iter().map(|p| Some(*p)).collect();
        view[1] = None;
        view[4] = None;
        let pview = [None, Some(parity[1].as_slice()), Some(parity[2].as_slice())];
        let rebuilt = rs_recover(&view, &pview, &lens).unwrap();
        for (i, bytes) in rebuilt {
            assert_eq!(bytes, members[i]);
        }
    }

    #[test]
    fn refuses_more_erasures_than_parity() {
        let members = sample_members(4, 16);
        let refs: Vec<&[u8]> = members.iter().map(Vec::as_slice).collect();
        let parity = rs_encode(&refs, 1).unwrap();
        let lens: Vec<usize> = members.iter().map(Vec::len).collect();
        let mut view: Vec<Option<&[u8]>> = refs.iter().map(|p| Some(*p)).collect();
        view[0] = None;
        view[2] = None;
        let pview = [Some(parity[0].as_slice())];
        assert!(rs_recover(&view, &pview, &lens).is_none());
    }

    #[test]
    fn refuses_inconsistent_lengths_and_oversize_configs() {
        let members = sample_members(3, 8);
        let refs: Vec<&[u8]> = members.iter().map(Vec::as_slice).collect();
        let parity = rs_encode(&refs, 2).unwrap();
        let mut lens: Vec<usize> = members.iter().map(Vec::len).collect();
        lens[0] = 1 << 20; // footer claims more bytes than parity carries
        let mut view: Vec<Option<&[u8]>> = refs.iter().map(|p| Some(*p)).collect();
        view[0] = None;
        let pview: Vec<Option<&[u8]>> = parity.iter().map(|p| Some(p.as_slice())).collect();
        assert!(rs_recover(&view, &pview, &lens).is_none());

        let big = vec![&[][..]; 256];
        assert!(rs_encode(&big, 1).is_none());
        assert!(rs_encode(&refs, 0).is_none());
    }

    #[test]
    fn m1_rs_differs_from_xor() {
        // Guard for the format invariant: RS with one parity shard is NOT
        // plain XOR, which is why Xor remains a distinct scheme (v3).
        let members = sample_members(4, 12);
        let refs: Vec<&[u8]> = members.iter().map(Vec::as_slice).collect();
        let rs = rs_encode(&refs, 1).unwrap();
        let xor = crate::parity::build_group_parity(refs.iter().copied());
        assert_ne!(rs[0], xor);
    }
}
