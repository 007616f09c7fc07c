//! Property tests for the negacyclic ring layer: on random mixed narrow/wide
//! moduli ladders and random coefficients, the planned engine path
//! (folded-twist NTT → pointwise multiply → inverse NTT, fused
//! rescale-then-extend per ladder step) must match the schoolbook `BigUint`
//! oracle — [`moma_ring::oracle::negacyclic_mul`] for a single multiply and
//! [`moma_ring::oracle::ladder_replay`] for a full ladder — **bit for bit**.

use moma_bignum::BigUint;
use moma_gpu::pool::BufferPool;
use moma_ring::{ladder_primes, oracle, RingContext, RingElt};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A deterministic ladder of `widths.len()` primes over mixed random widths —
/// narrow slots exercise the single-word fast paths, wide slots the general
/// Barrett path — each `≡ 1 (mod 2n)` as the negacyclic transform requires.
fn mixed_ladder(n: usize, widths: &[u32]) -> Vec<u64> {
    ladder_primes(n, widths)
}

fn random_coeffs(rng: &mut StdRng, ring: &RingContext, level: usize) -> Vec<BigUint> {
    (0..ring.n())
        .map(|_| moma_bignum::random::random_below(rng, ring.product(level)))
        .collect()
}

/// Runs the engine ladder in the shape [`oracle::ladder_replay`] mirrors:
/// first step `a · b`, every later step squares the running value.
fn run_ladder(ring: &RingContext, a: &RingElt, b: &RingElt, pool: &BufferPool) -> RingElt {
    let (mut cur, _) = ring.ladder_step(a, b, pool);
    for _ in 1..ring.steps() {
        let (next, _) = ring.ladder_step(&cur, &cur, pool);
        cur.recycle(pool);
        cur = next;
    }
    cur
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One ring multiply (raise → pointwise → lower) equals the schoolbook
    /// negacyclic convolution bit for bit, at a random level of a random
    /// mixed-width ladder.
    #[test]
    fn ring_multiply_matches_schoolbook_oracle(
        seed in any::<u64>(),
        log_n in 2u32..6,
        widths in prop::collection::vec(16u32..=60, 2..6),
        level_pick in any::<usize>(),
    ) {
        let n = 1usize << log_n;
        let ring = RingContext::new(n, &mixed_ladder(n, &widths));
        let level = level_pick % ring.level_count();
        let pool = BufferPool::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let a = random_coeffs(&mut rng, &ring, level);
        let b = random_coeffs(&mut rng, &ring, level);

        let mut ea = ring.encode(level, &a, &pool);
        let mut eb = ring.encode(level, &b, &pool);
        ring.forward_ntt(&mut ea);
        ring.forward_ntt(&mut eb);
        let (mut prod, _) = ring.mul(&ea, &eb, &pool);
        ring.inverse_ntt(&mut prod);

        let want = oracle::negacyclic_mul(ring.product(level), &a, &b);
        prop_assert_eq!(ring.decode(&prod), want);
        for e in [ea, eb, prod] {
            e.recycle(&pool);
        }
    }

    /// A full ladder run — first step `a · b`, then squarings down to the
    /// floor level — lands on exactly the coefficients the `BigUint` oracle
    /// replay produces, on random mixed narrow/wide ladders.
    #[test]
    fn ladder_end_state_matches_oracle_replay(
        seed in any::<u64>(),
        log_n in 2u32..5,
        widths in prop::collection::vec(16u32..=60, 3..6),
    ) {
        let n = 1usize << log_n;
        let moduli = mixed_ladder(n, &widths);
        let ring = RingContext::new(n, &moduli);
        let pool = BufferPool::new();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1adde7);
        let a = random_coeffs(&mut rng, &ring, 0);
        let b = random_coeffs(&mut rng, &ring, 0);

        let ea = ring.encode(0, &a, &pool);
        let eb = ring.encode(0, &b, &pool);
        let floor = run_ladder(&ring, &ea, &eb, &pool);
        prop_assert_eq!(floor.level(), ring.steps());

        let want = oracle::ladder_replay(&moduli, &a, &b, ring.steps());
        prop_assert_eq!(ring.decode(&floor), want);
        for e in [ea, eb, floor] {
            e.recycle(&pool);
        }
    }
}
