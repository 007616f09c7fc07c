//! Precomputed NTT execution plans — the hot-path replacement for the naive
//! transforms in [`crate::transform`].
//!
//! The naive loops recompute every twiddle factor on the fly: a serial modular
//! multiplication chain inside each block plus a stage-root derivation per stage.
//! That is two modular multiplications per butterfly where one suffices, and it
//! serializes work the paper distributes across CUDA threads. A plan performs all
//! of that work **once per (modulus, n)**:
//!
//! * [`NttPlan`] — the multi-word path. Precomputes the flat bit-reversed-order
//!   twiddle tables (Harvey's layout: entry `m + j` holds `ω_{2m}^j`, so every
//!   stage reads its twiddles sequentially) for the forward and inverse transforms
//!   plus `n^{-1}`, and runs butterflies with exactly one ring multiplication each.
//! * [`NttPlan64`] — the single-word path. Additionally stores a Shoup
//!   precomputed quotient per twiddle ([`SingleBarrett::shoup_precompute`]) and
//!   executes the butterfly stages with **lazy reduction**: values live in
//!   `[0, 4q)` through the stages (one conditional subtraction per butterfly
//!   instead of three) and are normalized to `[0, q)` in a single final pass.
//!   This is Harvey's butterfly, valid because the evaluation modulus has 60 bits
//!   (`4q < 2^64`).

use crate::params::NttParams;
use crate::transform::{bit_reverse_permute, stage_roots, stage_roots_u64, Ntt64};
use moma_mp::single::SingleBarrett;
use moma_mp::{ModRing, MpUint, MulAlgorithm};
use rand::SeedableRng;

/// A reusable execution plan for `n`-point transforms over `L`-limb elements.
///
/// Building a plan costs about `n` ring multiplications (one serial pass per
/// stage-aggregate table); every subsequent transform then does one multiplication
/// per butterfly instead of the naive loop's two, and no stage-root derivation.
///
/// # Example
///
/// ```
/// use moma_ntt::{NttParams, NttPlan};
/// use moma_mp::MulAlgorithm;
///
/// let params = NttParams::<2>::for_paper_modulus(16, 128, MulAlgorithm::Schoolbook);
/// let plan = NttPlan::new(&params);
/// let mut data = vec![moma_mp::U128::from_u64(7); 16];
/// let original = data.clone();
/// plan.forward(&mut data);
/// plan.inverse(&mut data);
/// assert_eq!(data, original);
/// ```
#[derive(Debug, Clone)]
pub struct NttPlan<const L: usize> {
    /// Transform size (a power of two).
    pub n: usize,
    /// The coefficient ring `Z_q`.
    pub ring: ModRing<L>,
    /// Forward twiddles in bit-reversed (Harvey) layout: `fwd[m + j] = ω_{2m}^j`
    /// for every stage half-length `m = 1, 2, …, n/2` and `0 ≤ j < m`. Entry 0 is
    /// unused padding so the table is indexed directly by `m + j`.
    fwd: Vec<MpUint<L>>,
    /// Inverse twiddles in the same layout, built from `ω^{-1}`.
    inv: Vec<MpUint<L>>,
    /// `n^{-1} mod q` for the inverse transform's final scaling.
    n_inv: MpUint<L>,
}

impl<const L: usize> NttPlan<L> {
    /// Builds a plan from existing transform parameters.
    pub fn new(params: &NttParams<L>) -> Self {
        NttPlan {
            n: params.n,
            ring: params.ring,
            fwd: build_table(&params.ring, params.omega, params.n),
            inv: build_table(&params.ring, params.omega_inv, params.n),
            n_inv: params.n_inv,
        }
    }

    /// Convenience constructor: derives parameters for the evaluation modulus of
    /// `bits`-bit kernels and builds the plan.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`NttParams::for_paper_modulus`].
    pub fn for_paper_modulus(n: usize, bits: u32, alg: MulAlgorithm) -> Self {
        Self::new(&NttParams::for_paper_modulus(n, bits, alg))
    }

    /// The twiddle factors of one butterfly stage, selected by direction and
    /// stage half-length `m` (a power of two below `n`): entry `j` is `ω_{2m}^j`.
    ///
    /// This — not the raw tables — is the interface stage-level executors (the
    /// launcher, session batching) consume plans through, so the table layout
    /// can change without breaking them.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not a power of two in `[1, n)`.
    pub fn stage(&self, forward: bool, m: usize) -> &[MpUint<L>] {
        assert!(
            m.is_power_of_two() && m < self.n,
            "stage half-length must be a power of two below n"
        );
        let table = if forward { &self.fwd } else { &self.inv };
        &table[m..2 * m]
    }

    /// `n^{-1} mod q`, the inverse transform's final scaling factor.
    pub fn n_inv(&self) -> MpUint<L> {
        self.n_inv
    }

    /// In-place forward NTT using the precomputed tables.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.n`.
    pub fn forward(&self, data: &mut [MpUint<L>]) {
        self.run(data, &self.fwd);
    }

    /// In-place inverse NTT (including the `1/n` scaling) using the precomputed
    /// tables.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.n`.
    pub fn inverse(&self, data: &mut [MpUint<L>]) {
        self.run(data, &self.inv);
        for x in data.iter_mut() {
            *x = self.ring.mul(*x, self.n_inv);
        }
    }

    fn run(&self, data: &mut [MpUint<L>], table: &[MpUint<L>]) {
        assert_eq!(
            data.len(),
            self.n,
            "data length must equal the transform size"
        );
        bit_reverse_permute(data);
        // Stage m = 1 uses only the twiddle ω^0 = 1: no multiplication needed.
        for pair in data.chunks_exact_mut(2) {
            let x = pair[0];
            let y = pair[1];
            pair[0] = self.ring.add(x, y);
            pair[1] = self.ring.sub(x, y);
        }
        let mut m = 2;
        while m < self.n {
            let twiddles = &table[m..2 * m];
            let mut start = 0;
            while start < self.n {
                for (j, &w) in twiddles.iter().enumerate() {
                    let x = data[start + j];
                    let wy = self.ring.mul(w, data[start + j + m]);
                    data[start + j] = self.ring.add(x, wy);
                    data[start + j + m] = self.ring.sub(x, wy);
                }
                start += 2 * m;
            }
            m <<= 1;
        }
    }
}

/// Builds the flat bit-reversed-layout twiddle table for `root` (a primitive `n`-th
/// root of unity): entry `m + j` is `root^{(n/2m)·j}`, i.e. `ω_{2m}^j`.
fn build_table<const L: usize>(ring: &ModRing<L>, root: MpUint<L>, n: usize) -> Vec<MpUint<L>> {
    let mut table = vec![MpUint::<L>::ONE; n.max(2)];
    // stage_roots[k] = root^(n / 2^(k+1)) = ω_{2^(k+1)}, off one squaring ladder.
    let roots = stage_roots(ring, root, n);
    let mut m = 1;
    let mut stage = 0;
    while m < n {
        let w_2m = roots[stage];
        let mut cur = MpUint::<L>::ONE;
        for j in 0..m {
            table[m + j] = cur;
            cur = ring.mul(cur, w_2m);
        }
        m <<= 1;
        stage += 1;
    }
    table
}

/// A single-machine-word plan over the 60-bit evaluation modulus, with Shoup
/// precomputed quotients and lazy reduction through the butterfly stages.
///
/// Each butterfly performs one [`SingleBarrett::mul_mod_shoup_lazy`] (one `u128`
/// high product and two wrapping word multiplications), one addition, and one
/// subtraction, with values kept in `[0, 4q)`; a single normalize pass brings the
/// result back to `[0, q)`. Compare the naive [`Ntt64`], which spends two full
/// Barrett multiplications (three `u128` products each) per butterfly on the
/// twiddle chain alone.
#[derive(Debug, Clone)]
pub struct NttPlan64 {
    /// Transform size.
    pub n: usize,
    /// Single-word Barrett context for the 60-bit modulus (used for setup and the
    /// fallback entry points; the hot loop uses the Shoup tables).
    pub ctx: SingleBarrett,
    two_q: u64,
    fwd: Vec<u64>,
    fwd_shoup: Vec<u64>,
    inv: Vec<u64>,
    inv_shoup: Vec<u64>,
    n_inv: u64,
    n_inv_shoup: u64,
    twist: Option<Twist64>,
}

/// Precomputed negacyclic twist tables: the diagonal `ψ^i` multiply of the
/// forward transform folded into the (otherwise multiplication-free) first
/// butterfly stage, and the `ψ^{-i}` untwist folded into the inverse
/// transform's scaling pass — a negacyclic ring multiply is therefore
/// transform → pointwise → inverse with **no separate twist pass**.
#[derive(Debug, Clone)]
struct Twist64 {
    /// The primitive `2n`-th root of unity (`ψ² = ω`, `ψ^n = −1`).
    psi: u64,
    /// `ψ^{rev(i)}` for `i ∈ [0, n)`: the twist factor of slot `i` *after* the
    /// bit-reverse permutation, consumed by the folded first stage.
    fwd_rev: Vec<u64>,
    fwd_rev_shoup: Vec<u64>,
    /// `ψ^{-i}·n^{-1}` in natural order: the untwist and the `1/n` scaling in
    /// one Shoup multiply per element, consumed by the inverse's final pass.
    inv_scale: Vec<u64>,
    inv_scale_shoup: Vec<u64>,
}

/// Why a restored [`NttPlan64`] table set was rejected by
/// [`NttPlan64::from_tables`]. Every variant is fail-closed: nothing about the
/// plan is usable once validation stops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NttRestoreError {
    /// The modulus is outside the supported range (`q < 2` or above 60 bits).
    BadModulus {
        /// The rejected modulus.
        q: u64,
    },
    /// `n` is not a power of two ≥ 2, or a table length does not match it.
    BadShape {
        /// The claimed transform size.
        n: usize,
        /// Length of the provided forward table.
        fwd_len: usize,
        /// Length of the provided inverse table.
        inv_len: usize,
    },
    /// A twiddle entry or `n^{-1}` is not reduced below `q`.
    Unreduced,
    /// The tables fail a structural identity (stage recurrence, root-of-unity
    /// ladder, forward·inverse ≠ 1, or `n·n^{-1} ≠ 1`). The message names the
    /// first identity that failed.
    InconsistentTables(&'static str),
}

impl std::fmt::Display for NttRestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NttRestoreError::BadModulus { q } => {
                write!(f, "modulus {q} is outside the supported 60-bit range")
            }
            NttRestoreError::BadShape {
                n,
                fwd_len,
                inv_len,
            } => write!(
                f,
                "shape mismatch: n = {n}, forward table length {fwd_len}, \
                 inverse table length {inv_len}"
            ),
            NttRestoreError::Unreduced => {
                write!(f, "a restored table entry is not reduced below the modulus")
            }
            NttRestoreError::InconsistentTables(what) => {
                write!(f, "restored twiddle tables are inconsistent: {what}")
            }
        }
    }
}

impl std::error::Error for NttRestoreError {}

/// One butterfly stage's twiddle view for [`NttPlan64`]: the twiddle factors and
/// their Shoup precomputed quotients, in lock-step order (entry `j` is
/// `ω_{2m}^j` and its quotient).
#[derive(Debug, Clone, Copy)]
pub struct Stage64<'a> {
    /// The stage's twiddle factors: entry `j` is `ω_{2m}^j`.
    pub twiddles: &'a [u64],
    /// Shoup precomputed quotients, one per twiddle.
    pub shoup: &'a [u64],
}

impl NttPlan64 {
    /// Builds the plan for an `n`-point transform over the 60-bit evaluation
    /// modulus.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two between 2 and 2^32.
    pub fn new(n: usize) -> Self {
        Self::from_ntt(&Ntt64::new(n))
    }

    /// Builds the plan for an `n`-point transform over an explicit NTT-friendly
    /// prime modulus — the `(q, n)`-keyed constructor session plan caches use.
    ///
    /// # Panics
    ///
    /// Panics under the conditions of [`Ntt64::with_modulus`] (and the `q < 2^62`
    /// lazy-reduction bound, which [`moma_mp::single::SingleBarrett`]'s 60-bit
    /// cap already implies).
    pub fn with_modulus(q: u64, n: usize) -> Self {
        Self::from_ntt(&Ntt64::with_modulus(q, n))
    }

    /// Builds the plan from an existing naive transform context (same modulus,
    /// same roots — the two paths compute identical transforms).
    ///
    /// # Panics
    ///
    /// Panics unless the modulus is below `2^62` (i.e. at 63 or more
    /// significant bits, or exactly `q = 2^62`). The Harvey lazy butterflies
    /// keep values in `[0, 4q)` between stages, so `4q` must fit a machine word;
    /// this is a real `assert!` (not a `debug_assert!`) because a violation in a
    /// release build would silently wrap the butterfly arithmetic instead of
    /// failing loudly. [`SingleBarrett::new`] already caps moduli at 60 bits, but
    /// the plan's invariant is `q < 2^62` and is enforced where the lazy
    /// discipline is entered, not inherited from a caller's context.
    pub fn from_ntt(ntt: &Ntt64) -> Self {
        let ctx = ntt.ctx;
        assert!(
            ctx.q < 1 << 62,
            "lazy-reduction NTT requires q < 2^62 so values in [0, 4q) fit a word (got {} bits)",
            64 - ctx.q.leading_zeros()
        );
        let fwd = build_table_u64(&ctx, ntt.omega, ntt.n);
        let inv = build_table_u64(&ctx, ntt.omega_inv, ntt.n);
        let fwd_shoup = fwd.iter().map(|&w| ctx.shoup_precompute(w)).collect();
        let inv_shoup = inv.iter().map(|&w| ctx.shoup_precompute(w)).collect();
        NttPlan64 {
            n: ntt.n,
            ctx,
            two_q: 2 * ctx.q,
            fwd,
            fwd_shoup,
            inv,
            inv_shoup,
            n_inv: ntt.n_inv,
            n_inv_shoup: ctx.shoup_precompute(ntt.n_inv),
            twist: None,
        }
    }

    /// Builds a **negacyclic** plan over `Z_q[X]/(X^n + 1)`: the transform pair
    /// that turns negacyclic (anti-circular) convolution into a pointwise
    /// product. Requires `q ≡ 1 (mod 2n)` so a primitive `2n`-th root of unity
    /// `ψ` exists; the cyclic stages then run over `ω = ψ²` while the `ψ^i`
    /// twist is folded into the first forward stage and the `ψ^{-i}` untwist
    /// into the inverse's scaling pass — the marginal
    /// cost over the cyclic transform is one Shoup multiply per element on each
    /// direction, with no separate pass.
    ///
    /// The search for `ψ` is deterministic (smallest generator base, as in
    /// [`Ntt64::with_modulus`]), so equal `(q, n)` always yield bit-identical
    /// plans — the property the session's negacyclic plan cache and snapshot
    /// restore rely on.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two in `[2, 2^31]`, if `q` is not an odd
    /// prime below `2^60`, or if `2n` does not divide `q − 1`.
    pub fn negacyclic(q: u64, n: usize) -> Self {
        assert!(
            n.is_power_of_two() && (2..=1 << 31).contains(&n),
            "transform size must be a power of two in [2, 2^31]"
        );
        let two_n = 2 * n as u64;
        assert!(
            (q - 1) % two_n == 0,
            "negacyclic transform requires q ≡ 1 (mod 2n): no primitive 2n-th root otherwise"
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(q);
        assert!(
            moma_bignum::prime::is_prime(&mut rng, &moma_bignum::BigUint::from(q)),
            "NTT modulus must be prime"
        );
        let ctx = SingleBarrett::new(q);
        // Deterministic ψ search: ψ = g^((q−1)/2n) is a 2n-th root; it is
        // primitive exactly when ψ^n = −1 (its order divides 2n = 2^{k+1} but
        // not 2^k, hence equals 2n).
        let cofactor = (q - 1) / two_n;
        let mut psi = 0;
        for g in 3u64..2000 {
            let candidate = ctx.pow_mod(g, cofactor);
            if ctx.pow_mod(candidate, n as u64) == q - 1 {
                psi = candidate;
                break;
            }
        }
        assert!(psi != 0, "no primitive 2n-th root found");
        let omega = ctx.mul_mod(psi, psi);
        let omega_inv = ctx.inv_mod(omega);
        let n_inv = ctx.inv_mod(n as u64 % q);
        let fwd = build_table_u64(&ctx, omega, n);
        let inv = build_table_u64(&ctx, omega_inv, n);
        let fwd_shoup = fwd.iter().map(|&w| ctx.shoup_precompute(w)).collect();
        let inv_shoup = inv.iter().map(|&w| ctx.shoup_precompute(w)).collect();
        NttPlan64 {
            n,
            ctx,
            two_q: 2 * q,
            fwd,
            fwd_shoup,
            inv,
            inv_shoup,
            n_inv,
            n_inv_shoup: ctx.shoup_precompute(n_inv),
            twist: Some(build_twist_u64(&ctx, psi, n_inv, n)),
        }
    }

    /// `true` if this plan computes the negacyclic transform pair over
    /// `Z_q[X]/(X^n + 1)` rather than the cyclic one.
    pub fn is_negacyclic(&self) -> bool {
        self.twist.is_some()
    }

    /// The primitive `2n`-th root `ψ` of a negacyclic plan (`None` for cyclic
    /// plans) — together with [`NttPlan64::twiddle_tables`] this is the full
    /// serialization view: the twist tables are derived data, rebuilt and
    /// validated on restore.
    pub fn psi(&self) -> Option<u64> {
        self.twist.as_ref().map(|t| t.psi)
    }

    /// The full forward and inverse twiddle tables in the flat Harvey layout
    /// (entry `m + j` is `ω_{2m}^j`; entry 0 is padding) — the serialization
    /// view used by session snapshots. The Shoup quotient tables are *not*
    /// exposed: they are derived data, recomputed on restore so a snapshot
    /// cannot smuggle in mismatched quotients.
    pub fn twiddle_tables(&self) -> (&[u64], &[u64]) {
        (&self.fwd, &self.inv)
    }

    /// Rebuilds a plan from snapshot data: the modulus, transform size, both
    /// twiddle tables, and `n^{-1}`. This is the warm-start constructor — it
    /// skips the primitive-root search entirely — but it does **not** trust its
    /// input: every structural identity a freshly built table satisfies is
    /// checked, and any failure rejects the whole plan with a typed error.
    ///
    /// Checks, in order: modulus range, power-of-two shape and table lengths,
    /// reduction of every entry, `n·n^{-1} ≡ 1`, `fwd[i]·inv[i] ≡ 1` for every
    /// entry, each stage's geometric recurrence `fwd[m+j+1] = fwd[m+j]·fwd[m+1]`
    /// with `fwd[m] = 1`, the squaring ladder `fwd[2m+1]² = fwd[m+1]` between
    /// stages, and the primitivity anchor `fwd[3]² = −1` (which, with the
    /// ladder, forces every stage generator to have exactly its stage's order).
    /// Shoup quotients and `2q` are recomputed, never deserialized.
    pub fn from_tables(
        q: u64,
        n: usize,
        fwd: Vec<u64>,
        inv: Vec<u64>,
        n_inv: u64,
    ) -> Result<Self, NttRestoreError> {
        if q < 2 || (64 - q.leading_zeros()) > 60 {
            return Err(NttRestoreError::BadModulus { q });
        }
        if !n.is_power_of_two() || n < 2 || fwd.len() != n.max(2) || inv.len() != n.max(2) {
            return Err(NttRestoreError::BadShape {
                n,
                fwd_len: fwd.len(),
                inv_len: inv.len(),
            });
        }
        if n_inv >= q || fwd.iter().chain(&inv).any(|&w| w >= q) {
            return Err(NttRestoreError::Unreduced);
        }
        let ctx = SingleBarrett::new(q);
        if ctx.mul_mod(n as u64 % q, n_inv) != 1 {
            return Err(NttRestoreError::InconsistentTables("n · n⁻¹ ≠ 1"));
        }
        if fwd
            .iter()
            .zip(&inv)
            .any(|(&w, &wi)| ctx.mul_mod(w, wi) != 1)
        {
            return Err(NttRestoreError::InconsistentTables(
                "forward · inverse twiddle ≠ 1",
            ));
        }
        // Per-stage geometric recurrence: entries m..2m must be the powers of
        // the stage generator fwd[m + 1], starting from fwd[m] = 1.
        let mut m = 1;
        while m < n {
            if fwd[m] != 1 {
                return Err(NttRestoreError::InconsistentTables("stage entry j = 0 ≠ 1"));
            }
            // Stage m = 1 has the single entry ω⁰ = 1 and no generator slot:
            // fwd[2] belongs to stage 2 (and is out of bounds when n = 2).
            let g = if m == 1 { 1 } else { fwd[m + 1] };
            let mut cur = 1u64;
            for j in 0..m {
                if fwd[m + j] != cur {
                    return Err(NttRestoreError::InconsistentTables(
                        "stage twiddles break the geometric recurrence",
                    ));
                }
                cur = ctx.mul_mod(cur, g);
            }
            m <<= 1;
        }
        // Squaring ladder between stages: ω_{4m}² = ω_{2m}, anchored at
        // ω_4² = −1. Together with the recurrence above this forces every
        // stage generator to be a primitive root of exactly its stage's order.
        if n >= 4 && ctx.mul_mod(fwd[3], fwd[3]) != q - 1 {
            return Err(NttRestoreError::InconsistentTables("ω₄² ≠ −1"));
        }
        let mut m = 2;
        while 2 * m < n {
            if ctx.mul_mod(fwd[2 * m + 1], fwd[2 * m + 1]) != fwd[m + 1] {
                return Err(NttRestoreError::InconsistentTables(
                    "stage generators break the squaring ladder",
                ));
            }
            m <<= 1;
        }
        let fwd_shoup = fwd.iter().map(|&w| ctx.shoup_precompute(w)).collect();
        let inv_shoup = inv.iter().map(|&w| ctx.shoup_precompute(w)).collect();
        Ok(NttPlan64 {
            n,
            ctx,
            two_q: 2 * q,
            fwd,
            fwd_shoup,
            inv,
            inv_shoup,
            n_inv,
            n_inv_shoup: ctx.shoup_precompute(n_inv),
            twist: None,
        })
    }

    /// [`NttPlan64::from_tables`] for **negacyclic** plans: validates the cyclic
    /// table set identically, then checks that `ψ` is reduced and squares to the
    /// tables' own stage root `ω` (for `n = 2`, to `−1`). Together with the
    /// cyclic identities — which force `ω` to be a primitive `n`-th root — this
    /// makes `ψ` a primitive `2n`-th root, so a tampered `ψ` cannot validate.
    /// The twist tables themselves are derived data: rebuilt from `ψ` here,
    /// never deserialized.
    pub fn from_tables_negacyclic(
        q: u64,
        n: usize,
        fwd: Vec<u64>,
        inv: Vec<u64>,
        n_inv: u64,
        psi: u64,
    ) -> Result<Self, NttRestoreError> {
        let mut plan = Self::from_tables(q, n, fwd, inv, n_inv)?;
        if psi >= q {
            return Err(NttRestoreError::Unreduced);
        }
        let ctx = plan.ctx;
        // The last stage's generator entry fwd[n/2 + 1] is ω itself; n = 2 has
        // no generator slot (its only twiddle is ω⁰ = 1) and ω₂ = −1.
        let omega = if n >= 4 { plan.fwd[n / 2 + 1] } else { q - 1 };
        if ctx.mul_mod(psi, psi) != omega {
            return Err(NttRestoreError::InconsistentTables("ψ² ≠ ω"));
        }
        plan.twist = Some(build_twist_u64(&ctx, psi, plan.n_inv, n));
        Ok(plan)
    }

    /// The twiddle factors and Shoup quotients of one butterfly stage, selected
    /// by direction and stage half-length `m` (a power of two below `n`).
    ///
    /// This is the stable interface callers read roots through (`ω_{2m}` is
    /// `stage(true, m).twiddles[1]`); the flat bit-reversed table layout stays
    /// an implementation detail.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not a power of two in `[1, n)`.
    pub fn stage(&self, forward: bool, m: usize) -> Stage64<'_> {
        assert!(
            m.is_power_of_two() && m < self.n,
            "stage half-length must be a power of two below n"
        );
        let (table, shoup) = if forward {
            (&self.fwd, &self.fwd_shoup)
        } else {
            (&self.inv, &self.inv_shoup)
        };
        Stage64 {
            twiddles: &table[m..2 * m],
            shoup: &shoup[m..2 * m],
        }
    }

    /// `n^{-1} mod q` and its Shoup precomputed quotient, the inverse
    /// transform's final scaling pair.
    pub fn n_inv_pair(&self) -> (u64, u64) {
        (self.n_inv, self.n_inv_shoup)
    }

    /// In-place forward transform. Inputs must be reduced (`< q`); outputs are
    /// reduced.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.n`.
    pub fn forward(&self, data: &mut [u64]) {
        self.run_lazy(data, true);
        let q = self.ctx.q;
        for x in data.iter_mut() {
            let mut v = *x;
            if v >= self.two_q {
                v -= self.two_q;
            }
            if v >= q {
                v -= q;
            }
            *x = v;
        }
    }

    /// In-place inverse transform (with `1/n` scaling). Inputs must be reduced;
    /// outputs are reduced.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.n`.
    pub fn inverse(&self, data: &mut [u64]) {
        self.run_lazy(data, false);
        // The scaling multiplication doubles as the normalize pass: the lazy Shoup
        // product accepts the stages' [0, 4q) values and lands in [0, 2q). On a
        // negacyclic plan the per-index factor ψ^{-i}·n^{-1} replaces the uniform
        // n^{-1}: the untwist rides the same single multiply.
        let q = self.ctx.q;
        if let Some(tw) = &self.twist {
            for (x, (&s, &ss)) in data
                .iter_mut()
                .zip(tw.inv_scale.iter().zip(&tw.inv_scale_shoup))
            {
                let t = self.ctx.mul_mod_shoup_lazy(*x, s, ss);
                *x = if t >= q { t - q } else { t };
            }
        } else {
            for x in data.iter_mut() {
                let t = self
                    .ctx
                    .mul_mod_shoup_lazy(*x, self.n_inv, self.n_inv_shoup);
                *x = if t >= q { t - q } else { t };
            }
        }
    }

    /// Runs the butterfly stages with values lazily reduced in `[0, 4q)`.
    ///
    /// Harvey's butterfly: fold `x` into `[0, 2q)` with one conditional
    /// subtraction, take the lazy Shoup product `t = w·y mod q ∈ [0, 2q)`, and emit
    /// `x + t` and `x − t + 2q`, both `< 4q`. Correct because `4q < 2^64` for the
    /// 60-bit modulus. The Shoup product is inlined (one high `u128` product, two
    /// wrapping word products) and the loops are structured as exact chunks so the
    /// compiler drops every bounds check from the inner loop.
    fn run_lazy(&self, data: &mut [u64], forward: bool) {
        assert_eq!(
            data.len(),
            self.n,
            "data length must equal the transform size"
        );
        let (table, shoup) = if forward {
            (&self.fwd, &self.fwd_shoup)
        } else {
            (&self.inv, &self.inv_shoup)
        };
        bit_reverse_permute(data);
        let q = self.ctx.q;
        let two_q = self.two_q;

        // Stage m = 1 is special-cased: its only twiddle is ω^0 = 1, so the
        // butterfly needs no multiplication at all. Inputs are reduced (< q), so
        // `x + y < 2q` and `x + 2q − y < 4q` keep the lazy invariant.
        //
        // A negacyclic forward folds the ψ twist here instead: each input is
        // multiplied by its slot's ψ^{rev(i)} (lazy Shoup product in [0, 2q)),
        // then butterflied — `t₀ + t₁ < 4q` and `t₀ + 2q − t₁ < 4q` keep the
        // same invariant at the cost of the one multiply the twist needs anyway.
        match (&self.twist, forward) {
            (Some(tw), true) => {
                for (p, pair) in data.chunks_exact_mut(2).enumerate() {
                    let t0 = self.ctx.mul_mod_shoup_lazy(
                        pair[0],
                        tw.fwd_rev[2 * p],
                        tw.fwd_rev_shoup[2 * p],
                    );
                    let t1 = self.ctx.mul_mod_shoup_lazy(
                        pair[1],
                        tw.fwd_rev[2 * p + 1],
                        tw.fwd_rev_shoup[2 * p + 1],
                    );
                    pair[0] = t0 + t1;
                    pair[1] = t0 + two_q - t1;
                }
            }
            _ => {
                for pair in data.chunks_exact_mut(2) {
                    let x = pair[0];
                    let y = pair[1];
                    pair[0] = x + y;
                    pair[1] = x + two_q - y;
                }
            }
        }

        let mut m = 2;
        while m < self.n {
            let twiddles = &table[m..2 * m];
            let quotients = &shoup[m..2 * m];
            for block in data.chunks_exact_mut(2 * m) {
                let (xs, ys) = block.split_at_mut(m);
                for (((x, y), &w), &ws) in xs
                    .iter_mut()
                    .zip(ys.iter_mut())
                    .zip(twiddles)
                    .zip(quotients)
                {
                    let mut xv = *x;
                    if xv >= two_q {
                        xv -= two_q;
                    }
                    let yv = *y;
                    let hi = ((ws as u128 * yv as u128) >> 64) as u64;
                    let t = w.wrapping_mul(yv).wrapping_sub(hi.wrapping_mul(q));
                    *x = xv + t;
                    *y = xv + two_q - t;
                }
            }
            m <<= 1;
        }
    }
}

/// Builds the negacyclic twist tables from a (validated) primitive `2n`-th root
/// `ψ`: the forward factors `ψ^{rev(i)}` (bit-reverse-permuted so the folded
/// first stage indexes them positionally) and the inverse's combined
/// `ψ^{-i}·n^{-1}` factors in natural order, each with Shoup quotients.
fn build_twist_u64(ctx: &SingleBarrett, psi: u64, n_inv: u64, n: usize) -> Twist64 {
    let psi_inv = ctx.inv_mod(psi);
    let mut fwd_rev = Vec::with_capacity(n);
    let mut p = 1u64;
    for _ in 0..n {
        fwd_rev.push(p);
        p = ctx.mul_mod(p, psi);
    }
    bit_reverse_permute(&mut fwd_rev);
    let mut inv_scale = Vec::with_capacity(n);
    let mut p = n_inv;
    for _ in 0..n {
        inv_scale.push(p);
        p = ctx.mul_mod(p, psi_inv);
    }
    let fwd_rev_shoup = fwd_rev.iter().map(|&w| ctx.shoup_precompute(w)).collect();
    let inv_scale_shoup = inv_scale.iter().map(|&w| ctx.shoup_precompute(w)).collect();
    Twist64 {
        psi,
        fwd_rev,
        fwd_rev_shoup,
        inv_scale,
        inv_scale_shoup,
    }
}

/// `u64` counterpart of [`build_table`].
fn build_table_u64(ctx: &SingleBarrett, root: u64, n: usize) -> Vec<u64> {
    let mut table = vec![1u64; n.max(2)];
    let roots = stage_roots_u64(ctx, root, n);
    let mut m = 1;
    let mut stage = 0;
    while m < n {
        let w_2m = roots[stage];
        let mut w = 1u64;
        for j in 0..m {
            table[m + j] = w;
            w = ctx.mul_mod(w, w_2m);
        }
        m <<= 1;
        stage += 1;
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::naive_dft;
    use crate::transform::{forward, inverse};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn plan_matches_naive_transform_128() {
        let params = NttParams::<2>::for_paper_modulus(64, 128, MulAlgorithm::Schoolbook);
        let plan = NttPlan::new(&params);
        let mut rng = StdRng::seed_from_u64(71);
        let data: Vec<_> = (0..64)
            .map(|_| params.ring.random_element(&mut rng))
            .collect();
        let mut a = data.clone();
        let mut b = data;
        forward(&params, &mut a);
        plan.forward(&mut b);
        assert_eq!(a, b, "planned forward must match the naive path");
        inverse(&params, &mut a);
        plan.inverse(&mut b);
        assert_eq!(a, b, "planned inverse must match the naive path");
    }

    #[test]
    fn plan_matches_dft_oracle() {
        let params = NttParams::<2>::for_paper_modulus(32, 128, MulAlgorithm::Schoolbook);
        let plan = NttPlan::new(&params);
        let mut rng = StdRng::seed_from_u64(72);
        let data: Vec<_> = (0..32)
            .map(|_| params.ring.random_element(&mut rng))
            .collect();
        let expected = naive_dft(&params, &data);
        let mut actual = data.clone();
        plan.forward(&mut actual);
        assert_eq!(actual, expected);
    }

    #[test]
    fn plan_roundtrip_at_multiple_widths() {
        fn roundtrip<const L: usize>(bits: u32, n: usize) {
            let plan = NttPlan::<L>::for_paper_modulus(n, bits, MulAlgorithm::Schoolbook);
            let mut rng = StdRng::seed_from_u64(bits as u64 + n as u64);
            let data: Vec<_> = (0..n).map(|_| plan.ring.random_element(&mut rng)).collect();
            let mut work = data.clone();
            plan.forward(&mut work);
            assert_ne!(work, data);
            plan.inverse(&mut work);
            assert_eq!(work, data, "{bits} bits, n={n}");
        }
        roundtrip::<2>(128, 64);
        roundtrip::<4>(256, 32);
        roundtrip::<6>(384, 16);
    }

    #[test]
    fn plan64_matches_naive_ntt64() {
        let ntt = Ntt64::new(512);
        let plan = NttPlan64::from_ntt(&ntt);
        let mut rng = StdRng::seed_from_u64(73);
        let data: Vec<u64> = (0..512).map(|_| rng.gen::<u64>() % ntt.ctx.q).collect();
        let mut a = data.clone();
        let mut b = data.clone();
        ntt.forward(&mut a);
        plan.forward(&mut b);
        assert_eq!(a, b, "planned u64 forward must match the naive path");
        ntt.inverse(&mut a);
        plan.inverse(&mut b);
        assert_eq!(a, b, "planned u64 inverse must match the naive path");
        assert_eq!(a, data, "inverse ∘ forward must be the identity");
    }

    #[test]
    fn plan64_outputs_are_fully_reduced() {
        let plan = NttPlan64::new(256);
        let mut rng = StdRng::seed_from_u64(74);
        let mut data: Vec<u64> = (0..256).map(|_| rng.gen::<u64>() % plan.ctx.q).collect();
        plan.forward(&mut data);
        assert!(data.iter().all(|&x| x < plan.ctx.q));
        plan.inverse(&mut data);
        assert!(data.iter().all(|&x| x < plan.ctx.q));
    }

    #[test]
    #[should_panic(expected = "q < 2^62")]
    fn plan64_rejects_moduli_at_the_lazy_reduction_boundary() {
        // Forge a context whose modulus breaks the [0, 4q) word-width invariant
        // (SingleBarrett::new itself would reject it, but the plan must not rely
        // on every caller having gone through that constructor).
        let good = Ntt64::new(4);
        let forged = Ntt64 {
            n: good.n,
            ctx: SingleBarrett {
                q: 1 << 62,
                mu: 1,
                mbits: 63,
                radix: 0,
                recip: 0,
            },
            omega: good.omega,
            omega_inv: good.omega_inv,
            n_inv: good.n_inv,
        };
        NttPlan64::from_ntt(&forged);
    }

    #[test]
    fn plan64_boundary_modulus_keeps_lazy_values_in_range() {
        // The largest modulus the stack can build is 60-bit, comfortably below
        // the 2^62 bound: 4q must fit a u64 and a forward/inverse round trip must
        // stay exact on inputs packed at the top of the reduced range.
        let plan = NttPlan64::new(64);
        assert!(plan.ctx.q < 1 << 62);
        assert_eq!(plan.two_q, 2 * plan.ctx.q); // no wrap computing 2q
        assert!(plan.two_q.checked_mul(2).is_some(), "4q must fit a u64");
        let data: Vec<u64> = (0..64).map(|i| plan.ctx.q - 1 - i as u64).collect();
        let mut work = data.clone();
        plan.forward(&mut work);
        assert!(work.iter().all(|&x| x < plan.ctx.q));
        plan.inverse(&mut work);
        assert_eq!(work, data);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn plan_wrong_length_panics() {
        let plan = NttPlan::<2>::for_paper_modulus(16, 128, MulAlgorithm::Schoolbook);
        let mut data = vec![MpUint::ZERO; 8];
        plan.forward(&mut data);
    }

    /// Serializes and restores `plan` through the snapshot accessors.
    fn roundtrip_tables(plan: &NttPlan64) -> Result<NttPlan64, NttRestoreError> {
        let (fwd, inv) = plan.twiddle_tables();
        NttPlan64::from_tables(
            plan.ctx.q,
            plan.n,
            fwd.to_vec(),
            inv.to_vec(),
            plan.n_inv_pair().0,
        )
    }

    #[test]
    fn from_tables_roundtrips_bit_for_bit() {
        for n in [2usize, 4, 64, 512] {
            let fresh = NttPlan64::new(n);
            let restored = roundtrip_tables(&fresh).expect("a fresh plan's tables must validate");
            assert_eq!(restored.twiddle_tables(), fresh.twiddle_tables());
            assert_eq!(restored.n_inv_pair(), fresh.n_inv_pair(), "n = {n}");
            assert_eq!(restored.two_q, fresh.two_q);
            let mut rng = StdRng::seed_from_u64(75);
            let data: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % fresh.ctx.q).collect();
            let mut a = data.clone();
            let mut b = data;
            fresh.forward(&mut a);
            restored.forward(&mut b);
            assert_eq!(a, b, "restored plan must transform identically (n = {n})");
        }
    }

    #[test]
    fn from_tables_rejects_tampering() {
        let plan = NttPlan64::new(64);
        let (fwd, inv) = plan.twiddle_tables();
        let (n_inv, _) = plan.n_inv_pair();
        let q = plan.ctx.q;

        // Out-of-range modulus.
        assert!(matches!(
            NttPlan64::from_tables(1 << 61, 64, fwd.to_vec(), inv.to_vec(), n_inv),
            Err(NttRestoreError::BadModulus { .. })
        ));
        // Truncated table.
        assert!(matches!(
            NttPlan64::from_tables(q, 64, fwd[..32].to_vec(), inv.to_vec(), n_inv),
            Err(NttRestoreError::BadShape { .. })
        ));
        // Unreduced entry.
        let mut big = fwd.to_vec();
        big[5] = q;
        assert!(matches!(
            NttPlan64::from_tables(q, 64, big, inv.to_vec(), n_inv),
            Err(NttRestoreError::Unreduced)
        ));
        // A flipped twiddle breaks an identity (inverse pairing or recurrence).
        let mut flipped = fwd.to_vec();
        flipped[37] ^= 1;
        assert!(matches!(
            NttPlan64::from_tables(q, 64, flipped, inv.to_vec(), n_inv),
            Err(NttRestoreError::InconsistentTables(_))
        ));
        // A consistently tampered pair (fwd and inv both changed so the product
        // stays 1) still breaks the stage recurrence.
        let mut f2 = fwd.to_vec();
        let mut i2 = inv.to_vec();
        f2[33] = plan.ctx.mul_mod(f2[33], f2[33]);
        i2[33] = plan.ctx.mul_mod(i2[33], i2[33]);
        assert!(matches!(
            NttPlan64::from_tables(q, 64, f2, i2, n_inv),
            Err(NttRestoreError::InconsistentTables(_))
        ));
        // Wrong scaling factor.
        assert!(matches!(
            NttPlan64::from_tables(q, 64, fwd.to_vec(), inv.to_vec(), n_inv ^ 1),
            Err(NttRestoreError::InconsistentTables(_))
        ));
        // Tables from a different (q, n) pair fail against this modulus: the
        // other plan's 60-bit twiddles are almost surely unreduced mod this q,
        // and whatever survives reduction cannot satisfy the identities.
        let other = NttPlan64::with_modulus(momaprime_other(), 64);
        let (ofwd, oinv) = other.twiddle_tables();
        assert!(
            NttPlan64::from_tables(q, 64, ofwd.to_vec(), oinv.to_vec(), n_inv).is_err(),
            "another modulus' tables must not validate"
        );
    }

    /// A second NTT-friendly prime (q ≡ 1 mod 2n for n = 64) distinct from the
    /// default evaluation modulus.
    fn momaprime_other() -> u64 {
        // 12289 = 3 · 2^12 + 1, the classic Falcon/NewHope modulus.
        12289
    }

    #[test]
    fn from_tables_accepts_alternate_modulus() {
        let fresh = NttPlan64::with_modulus(12289, 128);
        let restored = roundtrip_tables(&fresh).expect("alternate-modulus tables must validate");
        assert_eq!(restored.twiddle_tables(), fresh.twiddle_tables());
    }

    /// Schoolbook negacyclic convolution in `Z_q[X]/(X^n + 1)`: products that
    /// wrap past degree `n` come back negated.
    fn naive_negacyclic_mul(ctx: &SingleBarrett, a: &[u64], b: &[u64]) -> Vec<u64> {
        let n = a.len();
        let mut c = vec![0u64; n];
        for (i, &ai) in a.iter().enumerate() {
            for (j, &bj) in b.iter().enumerate() {
                let p = ctx.mul_mod(ai, bj);
                let k = (i + j) % n;
                c[k] = if i + j < n {
                    ctx.add_mod(c[k], p)
                } else {
                    ctx.sub_mod(c[k], p)
                };
            }
        }
        c
    }

    #[test]
    fn negacyclic_roundtrip_and_reduction() {
        for (q, n) in [(12289u64, 2usize), (12289, 8), (12289, 256)] {
            let plan = NttPlan64::negacyclic(q, n);
            assert!(plan.is_negacyclic());
            assert!(!NttPlan64::with_modulus(q, n).is_negacyclic());
            let psi = plan.psi().expect("negacyclic plan exposes ψ");
            assert_eq!(
                plan.ctx.pow_mod(psi, n as u64),
                q - 1,
                "ψ^n = −1 (q = {q}, n = {n})"
            );
            let mut rng = StdRng::seed_from_u64(q ^ n as u64);
            let data: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % q).collect();
            let mut work = data.clone();
            plan.forward(&mut work);
            assert!(work.iter().all(|&x| x < q), "forward outputs reduced");
            assert_ne!(work, data);
            plan.inverse(&mut work);
            assert!(work.iter().all(|&x| x < q), "inverse outputs reduced");
            assert_eq!(work, data, "inverse ∘ forward must be the identity");
        }
    }

    #[test]
    fn negacyclic_pointwise_product_matches_schoolbook_oracle() {
        for n in [4usize, 32, 128] {
            let plan = NttPlan64::negacyclic(12289, n);
            let ctx = plan.ctx;
            let mut rng = StdRng::seed_from_u64(1000 + n as u64);
            let a: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % ctx.q).collect();
            let b: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % ctx.q).collect();
            let expected = naive_negacyclic_mul(&ctx, &a, &b);
            let mut fa = a.clone();
            let mut fb = b.clone();
            plan.forward(&mut fa);
            plan.forward(&mut fb);
            let mut fc: Vec<u64> = fa
                .iter()
                .zip(&fb)
                .map(|(&x, &y)| ctx.mul_mod(x, y))
                .collect();
            plan.inverse(&mut fc);
            assert_eq!(
                fc, expected,
                "transform → pointwise → inverse must equal the X^n+1 schoolbook (n = {n})"
            );
        }
    }

    #[test]
    fn negacyclic_on_default_evaluation_modulus() {
        // The 60-bit paper modulus has the form c·2^32 + 1, so every power-of-two
        // 2n up to 2^32 divides q − 1 and the negacyclic plan exists at scale.
        let cyclic = NttPlan64::new(64);
        let q = cyclic.ctx.q;
        let plan = NttPlan64::negacyclic(q, 64);
        let ctx = plan.ctx;
        let mut rng = StdRng::seed_from_u64(77);
        let a: Vec<u64> = (0..64).map(|_| rng.gen::<u64>() % q).collect();
        let b: Vec<u64> = (0..64).map(|_| rng.gen::<u64>() % q).collect();
        let expected = naive_negacyclic_mul(&ctx, &a, &b);
        let mut fa = a.clone();
        let mut fb = b.clone();
        plan.forward(&mut fa);
        plan.forward(&mut fb);
        let mut fc: Vec<u64> = fa
            .iter()
            .zip(&fb)
            .map(|(&x, &y)| ctx.mul_mod(x, y))
            .collect();
        plan.inverse(&mut fc);
        assert_eq!(fc, expected);
    }

    #[test]
    fn negacyclic_from_tables_roundtrips_and_rejects_tampering() {
        let fresh = NttPlan64::negacyclic(12289, 64);
        let (fwd, inv) = fresh.twiddle_tables();
        let (n_inv, _) = fresh.n_inv_pair();
        let psi = fresh.psi().unwrap();
        let q = fresh.ctx.q;

        let restored =
            NttPlan64::from_tables_negacyclic(q, 64, fwd.to_vec(), inv.to_vec(), n_inv, psi)
                .expect("a fresh negacyclic plan's tables must validate");
        assert!(restored.is_negacyclic());
        assert_eq!(restored.psi(), Some(psi));
        let mut rng = StdRng::seed_from_u64(78);
        let data: Vec<u64> = (0..64).map(|_| rng.gen::<u64>() % q).collect();
        let mut a = data.clone();
        let mut b = data;
        fresh.forward(&mut a);
        restored.forward(&mut b);
        assert_eq!(a, b, "restored negacyclic plan must transform identically");
        fresh.inverse(&mut a);
        restored.inverse(&mut b);
        assert_eq!(a, b);

        // An unreduced ψ is rejected before any arithmetic.
        assert!(matches!(
            NttPlan64::from_tables_negacyclic(q, 64, fwd.to_vec(), inv.to_vec(), n_inv, q),
            Err(NttRestoreError::Unreduced)
        ));
        // A tampered ψ no longer squares to the tables' stage root.
        assert!(matches!(
            NttPlan64::from_tables_negacyclic(q, 64, fwd.to_vec(), inv.to_vec(), n_inv, psi ^ 1),
            Err(NttRestoreError::InconsistentTables(_))
        ));
        // −ψ is the other valid square root of ω: it must validate and produce
        // a plan that is its own consistent transform pair.
        let neg_psi = q - psi;
        let other =
            NttPlan64::from_tables_negacyclic(q, 64, fwd.to_vec(), inv.to_vec(), n_inv, neg_psi)
                .expect("−ψ is also a primitive 2n-th root");
        let mut rng = StdRng::seed_from_u64(79);
        let data: Vec<u64> = (0..64).map(|_| rng.gen::<u64>() % q).collect();
        let mut w = data.clone();
        other.forward(&mut w);
        other.inverse(&mut w);
        assert_eq!(w, data);
        // Tampered cyclic tables still fail closed through the base validation.
        let mut bad = fwd.to_vec();
        bad[33] ^= 1;
        assert!(NttPlan64::from_tables_negacyclic(q, 64, bad, inv.to_vec(), n_inv, psi).is_err());
    }
}
