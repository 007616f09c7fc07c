//! [`RingContext`] and [`RingElt`]: the negacyclic ring `R_Q = Z_Q[X]/(X^n+1)`
//! over an RNS moduli ladder, with every hot operation riding the planned
//! engine — every residue row's negacyclic NTT in one launch, pointwise
//! products through the RNS BLAS plan, and level drops through the fused
//! rescale-then-extend chain. All working planes come from a caller-provided
//! [`BufferPool`], so a warm ladder reports zero allocations per level.

use std::sync::Arc;

use moma_bignum::BigUint;
use moma_blas::BlasOp;
use moma_gpu::launch::LaunchStats;
use moma_gpu::pool::BufferPool;
use moma_ntt::launcher::launch_transforms;
use moma_ntt::NttPlan64;
use moma_rns::{RescaleExtendPlan, RnsContext, RnsMatrix, RnsPlan};

/// Which representation a [`RingElt`]'s residue rows currently hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Polynomial coefficients (the encode/decode and rescale domain).
    Coefficient,
    /// Negacyclic NTT evaluations (the pointwise-multiply domain).
    Evaluation,
}

/// Provider hook for the plans a [`RingContext`] is assembled from. A caching
/// session implements this over its stampede-controlled caches so every ring
/// context built for the same ladder shares one set of tables; [`ColdSource`]
/// builds everything from scratch.
pub trait RingPlanSource {
    /// A negacyclic transform plan for `Z_q`, size `n`.
    fn negacyclic_plan(&self, q: u64, n: usize) -> Arc<NttPlan64>;
    /// An RNS plan over exactly `moduli` (in order).
    fn rns_plan(&self, moduli: &[u64]) -> Arc<RnsPlan>;
    /// The fused rescale-then-extend step from `src` onto `dst`.
    fn rescale_extend_plan(&self, src: &Arc<RnsPlan>, dst: &Arc<RnsPlan>)
        -> Arc<RescaleExtendPlan>;
}

/// The no-cache [`RingPlanSource`]: every plan built on the spot.
#[derive(Debug, Default, Clone, Copy)]
pub struct ColdSource;

impl RingPlanSource for ColdSource {
    fn negacyclic_plan(&self, q: u64, n: usize) -> Arc<NttPlan64> {
        Arc::new(NttPlan64::negacyclic(q, n))
    }

    fn rns_plan(&self, moduli: &[u64]) -> Arc<RnsPlan> {
        Arc::new(RnsPlan::new(&RnsContext::with_moduli(moduli)))
    }

    fn rescale_extend_plan(
        &self,
        src: &Arc<RnsPlan>,
        dst: &Arc<RnsPlan>,
    ) -> Arc<RescaleExtendPlan> {
        Arc::new(src.rescale_extend_plan(dst))
    }
}

/// One rung of the ladder: the RNS plan over the level's basis and the fused
/// step down onto the next (one-shorter) basis, `None` at the floor.
struct RingLevel {
    rns: Arc<RnsPlan>,
    step: Option<Arc<RescaleExtendPlan>>,
}

/// A negacyclic ring over a moduli ladder `Q = q₀·…·q_L`.
///
/// Level `d` works over the basis `q₀…q_{L−d}`: level 0 is the full ladder,
/// and each [`RingContext::rescale_to_next_level`] drops the basis' last
/// modulus, so a ladder of `L + 1` moduli supports `L` multiplicative levels.
pub struct RingContext {
    n: usize,
    moduli: Vec<u64>,
    /// One negacyclic plan per ladder modulus, aligned with `moduli`.
    ntt: Vec<Arc<NttPlan64>>,
    /// `levels[d]` serves the basis `moduli[..len − d]`.
    levels: Vec<RingLevel>,
}

impl RingContext {
    /// Builds the ring cold (no caches): every plan constructed on the spot.
    pub fn new(n: usize, moduli: &[u64]) -> Self {
        Self::with_source(n, moduli, &ColdSource)
    }

    /// Builds the ring with every plan drawn from `source` — the entry point a
    /// caching session uses so rings over the same ladder share tables.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two ≥ 2, `moduli` is empty, any modulus
    /// fails the negacyclic-plan preconditions (prime, `q ≡ 1 mod 2n`), or
    /// `source` returns plans inconsistent with the request.
    pub fn with_source(n: usize, moduli: &[u64], source: &impl RingPlanSource) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "ring degree must be a power of two ≥ 2"
        );
        assert!(!moduli.is_empty(), "the moduli ladder must not be empty");
        let ntt: Vec<Arc<NttPlan64>> = moduli
            .iter()
            .map(|&q| source.negacyclic_plan(q, n))
            .collect();
        for (plan, &q) in ntt.iter().zip(moduli) {
            assert!(plan.is_negacyclic(), "plan source returned a cyclic plan");
            assert_eq!(
                plan.n, n,
                "plan source returned a mismatched transform size"
            );
            assert_eq!(plan.ctx.q, q, "plan source returned a mismatched modulus");
        }
        // One RNS plan per prefix length; `rns_plans[len − 1]` covers
        // `moduli[..len]`.
        let rns_plans: Vec<Arc<RnsPlan>> = (1..=moduli.len())
            .map(|len| {
                let p = source.rns_plan(&moduli[..len]);
                assert!(
                    p.moduli().eq(moduli[..len].iter().copied()),
                    "plan source returned a mismatched RNS basis"
                );
                p
            })
            .collect();
        let levels = (0..moduli.len())
            .map(|d| {
                let len = moduli.len() - d;
                let rns = Arc::clone(&rns_plans[len - 1]);
                let step =
                    (len >= 2).then(|| source.rescale_extend_plan(&rns, &rns_plans[len - 2]));
                RingLevel { rns, step }
            })
            .collect();
        RingContext {
            n,
            moduli: moduli.to_vec(),
            ntt,
            levels,
        }
    }

    /// The ring degree `n` (coefficients per element).
    pub fn n(&self) -> usize {
        self.n
    }

    /// The full moduli ladder, widest basis first.
    pub fn moduli(&self) -> &[u64] {
        &self.moduli
    }

    /// Number of levels (`= moduli.len()`; the floor level has one modulus).
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Number of rescale steps the ladder supports (`level_count() − 1`).
    pub fn steps(&self) -> usize {
        self.levels.len() - 1
    }

    /// The RNS basis serving `level`.
    pub fn basis(&self, level: usize) -> &[u64] {
        &self.moduli[..self.moduli.len() - level]
    }

    /// The RNS plan serving `level`.
    pub fn rns_plan(&self, level: usize) -> &Arc<RnsPlan> {
        &self.levels[level].rns
    }

    /// The negacyclic NTT plan for ladder modulus index `r`.
    pub fn ntt_plan(&self, r: usize) -> &Arc<NttPlan64> {
        &self.ntt[r]
    }

    /// The dynamic range `Q` of `level`'s basis.
    pub fn product(&self, level: usize) -> &BigUint {
        self.levels[level].rns.product()
    }

    /// Encodes `n` coefficients (each `< product(level)`) into a
    /// coefficient-domain element whose residue plane comes from `pool`.
    ///
    /// # Panics
    ///
    /// Panics if `values.len() != n` or a value exceeds the level's range.
    pub fn encode(&self, level: usize, values: &[BigUint], pool: &BufferPool) -> RingElt {
        assert_eq!(values.len(), self.n, "expected exactly n coefficients");
        RingElt {
            level,
            domain: Domain::Coefficient,
            matrix: RnsMatrix::from_biguints(&self.levels[level].rns, values, pool),
        }
    }

    /// Decodes a coefficient-domain element back to `BigUint` coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `elt` is in the evaluation domain.
    pub fn decode(&self, elt: &RingElt) -> Vec<BigUint> {
        assert_eq!(
            elt.domain,
            Domain::Coefficient,
            "decode needs the coefficient domain"
        );
        self.levels[elt.level].rns.to_biguints(&elt.matrix)
    }

    /// A pooled copy of `elt`.
    pub fn clone_elt(&self, elt: &RingElt, pool: &BufferPool) -> RingElt {
        elt.clone_with_pool(pool)
    }

    /// Raises `elt` into the evaluation domain in place: one launch over the
    /// whole residue matrix, one block per row, row `r` run by its modulus'
    /// inline negacyclic forward transform (the `ψ`-twist is folded into the
    /// transform's first stage, so this is the whole raise).
    ///
    /// # Panics
    ///
    /// Panics if `elt` is already in the evaluation domain.
    pub fn forward_ntt(&self, elt: &mut RingElt) -> LaunchStats {
        assert_eq!(elt.domain, Domain::Coefficient, "element already raised");
        let stats = launch_transforms(elt.matrix.rows_mut(), self.n, |r, row| {
            self.ntt[r].forward(row)
        });
        elt.domain = Domain::Evaluation;
        stats
    }

    /// Lowers `elt` back to the coefficient domain in place, in one launch as
    /// in [`RingContext::forward_ntt`] (the `ψ^{-i}` untwist rides each row's
    /// inverse scaling pass).
    ///
    /// # Panics
    ///
    /// Panics if `elt` is already in the coefficient domain.
    pub fn inverse_ntt(&self, elt: &mut RingElt) -> LaunchStats {
        assert_eq!(elt.domain, Domain::Evaluation, "element already lowered");
        let stats = launch_transforms(elt.matrix.rows_mut(), self.n, |r, row| {
            self.ntt[r].inverse(row)
        });
        elt.domain = Domain::Coefficient;
        stats
    }

    /// Pointwise ring multiply (both operands in the evaluation domain, same
    /// level): one fused RNS `VecMul` across all residue rows.
    ///
    /// # Panics
    ///
    /// Panics on a level or domain mismatch.
    pub fn mul(&self, a: &RingElt, b: &RingElt, pool: &BufferPool) -> (RingElt, LaunchStats) {
        assert_eq!(a.level, b.level, "ring multiply needs matching levels");
        assert_eq!(
            a.domain,
            Domain::Evaluation,
            "ring multiply is pointwise in the evaluation domain"
        );
        assert_eq!(
            b.domain,
            Domain::Evaluation,
            "ring multiply is pointwise in the evaluation domain"
        );
        let (matrix, stats) =
            self.levels[a.level]
                .rns
                .apply(BlasOp::VecMul, None, &a.matrix, &b.matrix, pool);
        (
            RingElt {
                level: a.level,
                domain: Domain::Evaluation,
                matrix,
            },
            stats,
        )
    }

    /// Coefficient-wise addition (any domain, but both operands in the same
    /// one — addition commutes with the transform).
    ///
    /// # Panics
    ///
    /// Panics on a level or domain mismatch.
    pub fn add(&self, a: &RingElt, b: &RingElt, pool: &BufferPool) -> (RingElt, LaunchStats) {
        assert_eq!(a.level, b.level, "ring add needs matching levels");
        assert_eq!(a.domain, b.domain, "ring add needs matching domains");
        let (matrix, stats) =
            self.levels[a.level]
                .rns
                .apply(BlasOp::VecAdd, None, &a.matrix, &b.matrix, pool);
        (
            RingElt {
                level: a.level,
                domain: a.domain,
                matrix,
            },
            stats,
        )
    }

    /// Drops the level's last modulus through the fused rescale-then-extend
    /// chain (two launch rounds; the extension onto the shortened basis is
    /// exact because every target modulus divides the shortened product).
    ///
    /// # Panics
    ///
    /// Panics if `elt` is in the evaluation domain or already at the floor.
    pub fn rescale_to_next_level(
        &self,
        elt: &RingElt,
        pool: &BufferPool,
    ) -> (RingElt, LaunchStats) {
        assert_eq!(
            elt.domain,
            Domain::Coefficient,
            "rescale operates on coefficients"
        );
        let lvl = &self.levels[elt.level];
        let step = lvl.step.as_ref().expect("already at the ladder floor");
        let (matrix, stats) = lvl.rns.rescale_then_extend(step, &elt.matrix, pool);
        (
            RingElt {
                level: elt.level + 1,
                domain: Domain::Coefficient,
                matrix,
            },
            stats,
        )
    }

    /// One full ladder level on coefficient-domain operands: raise → pointwise
    /// multiply → inverse → rescale onto the next level's basis. Passing the
    /// same element for `a` and `b` squares it with a single raise. All
    /// intermediates are recycled into `pool`, so a warm pool makes the whole
    /// step allocation-free.
    ///
    /// # Panics
    ///
    /// Panics on a level/domain mismatch or if `a` is at the ladder floor.
    pub fn ladder_step(
        &self,
        a: &RingElt,
        b: &RingElt,
        pool: &BufferPool,
    ) -> (RingElt, LaunchStats) {
        assert_eq!(
            a.domain,
            Domain::Coefficient,
            "ladder steps start from coefficients"
        );
        let mut stats = LaunchStats::default();
        let mut fa = self.clone_elt(a, pool);
        stats.accumulate(self.forward_ntt(&mut fa));
        let mut prod = if std::ptr::eq(a, b) {
            let (p, s) = self.mul(&fa, &fa, pool);
            stats.accumulate(s);
            p
        } else {
            assert_eq!(
                b.domain,
                Domain::Coefficient,
                "ladder steps start from coefficients"
            );
            let mut fb = self.clone_elt(b, pool);
            stats.accumulate(self.forward_ntt(&mut fb));
            let (p, s) = self.mul(&fa, &fb, pool);
            stats.accumulate(s);
            fb.recycle(pool);
            p
        };
        fa.recycle(pool);
        stats.accumulate(self.inverse_ntt(&mut prod));
        let (next, s) = self.rescale_to_next_level(&prod, pool);
        stats.accumulate(s);
        prod.recycle(pool);
        (next, stats)
    }
}

/// One element of the ring at some ladder level, tracking which domain its
/// residue rows currently hold. The residue plane is pooled: hand it back with
/// [`RingElt::recycle`] when the element is done (owners with a `Drop`-based
/// lifecycle, like `moma`'s session handles, wrap this).
pub struct RingElt {
    level: usize,
    domain: Domain,
    matrix: RnsMatrix,
}

impl RingElt {
    /// The element's ladder level.
    pub fn level(&self) -> usize {
        self.level
    }

    /// The element's current domain.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// The underlying residue matrix (rows = basis moduli, cols = n).
    pub fn matrix(&self) -> &RnsMatrix {
        &self.matrix
    }

    /// A copy of this element whose residue plane comes from `pool` — the
    /// pooled twin of `Clone`, mirroring [`RnsMatrix::clone_with_pool`].
    pub fn clone_with_pool(&self, pool: &BufferPool) -> RingElt {
        RingElt {
            level: self.level,
            domain: self.domain,
            matrix: self.matrix.clone_with_pool(pool),
        }
    }

    /// Hands the residue plane back to `pool`.
    pub fn recycle(mut self, pool: &BufferPool) {
        pool.recycle(self.matrix.take_storage());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ladder::ladder_primes;
    use crate::oracle;
    use moma_bignum::random::random_below;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_coeffs(seed: u64, ring: &RingContext, level: usize) -> Vec<BigUint> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..ring.n())
            .map(|_| random_below(&mut rng, ring.product(level)))
            .collect()
    }

    #[test]
    fn ring_multiply_matches_schoolbook_oracle() {
        let n = 16;
        let moduli = ladder_primes(n, &[50, 30, 45]);
        let ring = RingContext::new(n, &moduli);
        let pool = BufferPool::new();
        let a = random_coeffs(1, &ring, 0);
        let b = random_coeffs(2, &ring, 0);

        let mut ea = ring.encode(0, &a, &pool);
        let mut eb = ring.encode(0, &b, &pool);
        ring.forward_ntt(&mut ea);
        ring.forward_ntt(&mut eb);
        let (mut prod, _) = ring.mul(&ea, &eb, &pool);
        ring.inverse_ntt(&mut prod);
        let got = ring.decode(&prod);

        assert_eq!(got, oracle::negacyclic_mul(ring.product(0), &a, &b));
        for e in [ea, eb, prod] {
            e.recycle(&pool);
        }
    }

    #[test]
    fn raise_and_lower_are_one_launch_per_level_matching_the_inline_rows() {
        let n = 64;
        let moduli = ladder_primes(n, &[50, 30, 45, 30, 40]);
        let ring = RingContext::new(n, &moduli);
        let pool = BufferPool::new();
        let per_row = moma_ntt::transform::butterfly_count(n) as usize + n;
        for level in 0..ring.level_count() {
            let rows = ring.basis(level).len();
            let mut elt = ring.encode(
                level,
                &random_coeffs(10 + level as u64, &ring, level),
                &pool,
            );
            let coeffs = elt.matrix().clone();

            let raise = ring.forward_ntt(&mut elt);
            assert_eq!(raise.launches, 1, "level {level}: raise is one launch");
            assert_eq!(
                raise.threads,
                rows * per_row,
                "level {level}: raise threads"
            );
            for r in 0..rows {
                let mut want = coeffs.row(r).to_vec();
                ring.ntt_plan(r).forward(&mut want);
                assert_eq!(elt.matrix().row(r), want, "level {level} row {r}: raise");
            }

            let evals = elt.matrix().clone();
            let lower = ring.inverse_ntt(&mut elt);
            assert_eq!(lower.launches, 1, "level {level}: lower is one launch");
            assert_eq!(
                lower.threads,
                rows * per_row,
                "level {level}: lower threads"
            );
            for r in 0..rows {
                let mut want = evals.row(r).to_vec();
                ring.ntt_plan(r).inverse(&mut want);
                assert_eq!(elt.matrix().row(r), want, "level {level} row {r}: lower");
            }
            assert_eq!(elt.matrix(), &coeffs, "level {level}: lower ∘ raise");
            elt.recycle(&pool);
        }
    }

    #[test]
    fn add_matches_oracle_in_both_domains() {
        let n = 8;
        let moduli = ladder_primes(n, &[40, 30]);
        let ring = RingContext::new(n, &moduli);
        let pool = BufferPool::new();
        let a = random_coeffs(3, &ring, 0);
        let b = random_coeffs(4, &ring, 0);
        let want = oracle::add(ring.product(0), &a, &b);

        // Coefficient domain.
        let ea = ring.encode(0, &a, &pool);
        let eb = ring.encode(0, &b, &pool);
        let (sum, _) = ring.add(&ea, &eb, &pool);
        assert_eq!(ring.decode(&sum), want);
        sum.recycle(&pool);

        // Evaluation domain: add commutes with the transform.
        let mut fa = ring.clone_elt(&ea, &pool);
        let mut fb = ring.clone_elt(&eb, &pool);
        ring.forward_ntt(&mut fa);
        ring.forward_ntt(&mut fb);
        let (mut fsum, _) = ring.add(&fa, &fb, &pool);
        ring.inverse_ntt(&mut fsum);
        assert_eq!(ring.decode(&fsum), want);
        for e in [ea, eb, fa, fb, fsum] {
            e.recycle(&pool);
        }
    }

    #[test]
    fn full_ladder_matches_oracle_replay() {
        let n = 8;
        let moduli = ladder_primes(n, &[50, 30, 45, 30]);
        let ring = RingContext::new(n, &moduli);
        let pool = BufferPool::new();
        let a = random_coeffs(5, &ring, 0);
        let b = random_coeffs(6, &ring, 0);

        let ea = ring.encode(0, &a, &pool);
        let eb = ring.encode(0, &b, &pool);
        let (mut cur, _) = ring.ladder_step(&ea, &eb, &pool);
        ea.recycle(&pool);
        eb.recycle(&pool);
        for _ in 1..ring.steps() {
            let (next, _) = ring.ladder_step(&cur, &cur, &pool);
            cur.recycle(&pool);
            cur = next;
        }
        assert_eq!(cur.level(), ring.steps());
        assert_eq!(ring.basis(cur.level()), &moduli[..1]);
        let got = ring.decode(&cur);
        cur.recycle(&pool);

        assert_eq!(got, oracle::ladder_replay(&moduli, &a, &b, ring.steps()));
    }

    #[test]
    fn warm_pool_ladder_is_allocation_free() {
        let n = 32;
        let moduli = ladder_primes(n, &[50, 30, 45, 30, 40]);
        let ring = RingContext::new(n, &moduli);
        let pool = BufferPool::new();
        let a = random_coeffs(7, &ring, 0);

        let run = |pool: &BufferPool| -> usize {
            let ea = ring.encode(0, &a, pool);
            let mut allocs = 0;
            let (mut cur, s) = ring.ladder_step(&ea, &ea, pool);
            allocs += s.allocs;
            ea.recycle(pool);
            for _ in 1..ring.steps() {
                let (next, s) = ring.ladder_step(&cur, &cur, pool);
                allocs += s.allocs;
                cur.recycle(pool);
                cur = next;
            }
            cur.recycle(pool);
            allocs
        };

        let cold = run(&pool);
        let warm = run(&pool);
        assert!(cold > 0, "cold run must miss the empty pool");
        assert_eq!(warm, 0, "warm ladder must be allocation-free");
    }

    #[test]
    fn rescale_is_exact_division_when_divisible() {
        // A coefficient vector divisible by the last modulus rescales to the
        // exact quotient (the rounding term vanishes).
        let n = 4;
        let moduli = ladder_primes(n, &[40, 30, 30]);
        let ring = RingContext::new(n, &moduli);
        let pool = BufferPool::new();
        let last = BigUint::from(moduli[2]);
        let coeffs: Vec<BigUint> = (1..=n as u64)
            .map(|i| BigUint::from(i).mod_mul(&last, ring.product(0)))
            .collect();
        let elt = ring.encode(0, &coeffs, &pool);
        let (out, _) = ring.rescale_to_next_level(&elt, &pool);
        let got = ring.decode(&out);
        let want: Vec<BigUint> = coeffs.iter().map(|c| c / &last).collect();
        assert_eq!(got, want);
        elt.recycle(&pool);
        out.recycle(&pool);
    }
}
