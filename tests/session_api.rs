//! Cross-crate integration tests for the `moma::Session` API: plan and kernel
//! reuse is asserted through the hit counters (a second identical request must
//! build nothing), and the typed handles must agree with the low-level oracles
//! they wrap.

use moma::bignum::BigUint;
use moma::gpu::LaunchStats;
use moma::rns::{RnsContext, RnsInt};
use moma::{KernelOp, KernelSpec, RnsVec, Session};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn random_values(seed: u64, count: usize, below: &BigUint) -> Vec<BigUint> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| moma::bignum::random::random_below(&mut rng, below))
        .collect()
}

#[test]
fn second_identical_request_builds_nothing_anywhere() {
    let session = Session::default();
    let src = session.rns_with_capacity(160);
    let src_moduli = src.moduli();
    let dst = session.rns(&src_moduli[..4]);
    let values = random_values(1, 6, src.product());

    // Warm-up: every cache misses once.
    let _ = session.compile(&KernelSpec::new(KernelOp::Butterfly, 256));
    let ntt = session.ntt_default(256);
    let _ = src.conversion_to(&dst);
    let warm = src.encode(&values).mul(&src.encode(&values));
    let _ = warm.rescale_then_extend(&dst);
    let _ = warm.base_convert(&dst);
    let _ = warm.rescale();
    let baseline = session.stats();
    assert!(baseline.generated.misses > 0);
    assert!(baseline.ntt.misses > 0);
    assert!(baseline.rns.misses > 0);
    assert!(baseline.baseconv.misses > 0);
    assert!(baseline.rescale.misses > 0);
    assert!(baseline.rescale_extend.misses > 0);
    assert!(baseline.fused.misses > 0);

    // The identical second round: hits only, not a single new build.
    let _ = session.compile(&KernelSpec::new(KernelOp::Butterfly, 256));
    let ntt_again = session.ntt_default(256);
    assert!(std::ptr::eq(ntt.plan(), ntt_again.plan()));
    let _ = src.conversion_to(&dst);
    let again = src.encode(&values).mul(&src.encode(&values));
    let _ = again.rescale_then_extend(&dst);
    let _ = again.base_convert(&dst);
    let _ = again.rescale();
    let after = session.stats();

    assert_eq!(after.generated.misses, baseline.generated.misses);
    assert_eq!(after.ntt.misses, baseline.ntt.misses);
    assert_eq!(after.rns.misses, baseline.rns.misses);
    assert_eq!(after.baseconv.misses, baseline.baseconv.misses);
    assert_eq!(after.rescale.misses, baseline.rescale.misses);
    assert_eq!(after.rescale_extend.misses, baseline.rescale_extend.misses);
    assert_eq!(after.fused.misses, baseline.fused.misses);
    assert!(after.generated.hits > baseline.generated.hits);
    assert!(after.ntt.hits > baseline.ntt.hits);
    assert!(after.baseconv.hits > baseline.baseconv.hits);
    assert!(after.rescale_extend.hits > baseline.rescale_extend.hits);
    assert!(after.fused.hits > baseline.fused.hits);
}

#[test]
fn fused_chain_kernels_are_cached_once_per_shape() {
    let session = Session::default();
    let src = session.rns_with_capacity(160);
    let src_moduli = src.moduli();
    let dst = session.rns(&src_moduli[..4]);
    let x = src.encode(&random_values(7, 5, src.product()));
    let w = src.encode(&random_values(8, 5, src.product()));
    let y = src.encode(&random_values(9, 5, src.product()));
    let a = BigUint::from(0x1234_5678_9abc_u64);
    assert_eq!(session.stats().fused.misses, 0);

    // Warm-up: exactly one fused-kernel compile per chain *shape*.
    let chained = x.mul_axpy(&w, &a, &y);
    let rescaled = x.mul_rescale_then_extend(&w, &dst);
    let _ = x.base_convert(&dst);
    let baseline = session.stats();
    assert_eq!(baseline.fused.misses, 3, "one compile per chain shape");
    assert_eq!(baseline.fused.hits, 0);

    // The fused chains are bit-for-bit the unfused sequences.
    assert_eq!(chained.matrix(), x.mul(&w).axpy(&a, &y).matrix());
    assert_eq!(
        rescaled.matrix(),
        x.mul(&w).rescale_then_extend(&dst).matrix()
    );

    // The identical second round: served entirely from the fused cache.
    let _ = x.mul_axpy(&w, &a, &y);
    let _ = x.mul_rescale_then_extend(&w, &dst);
    let _ = x.base_convert(&dst);
    let after = session.stats();
    assert_eq!(after.fused.misses, baseline.fused.misses);
    assert_eq!(
        after.fused.hits, 3,
        "second identical chain hits every shape"
    );
}

#[test]
fn session_chain_matches_the_biguint_oracle() {
    let session = Session::default();
    let src = session.rns_with_capacity(128);
    let src_moduli = src.moduli();
    let dst = session.rns(&src_moduli[..4]);
    let values = random_values(2, 8, src.product());
    let out = src
        .encode(&values)
        .mul(&src.encode(&values))
        .rescale_then_extend(&dst);

    let ctx = RnsContext::with_moduli(&src_moduli);
    let dst_ctx = RnsContext::with_moduli(&dst.moduli());
    let out_ctx = ctx.without_last();
    for (c, x) in values.iter().enumerate() {
        let sq = (x * x) % src.product();
        let oracle = out_ctx.base_convert(&dst_ctx, &ctx.scale_and_round(&ctx.to_residues(&sq)));
        assert_eq!(out.matrix().element(c), oracle, "column {c}");
    }
}

#[test]
fn batched_ntt_launch_count_is_independent_of_batch_size() {
    let session = Session::default();
    let n = 256;
    let space = session.ntt_default(n);
    let expected_launches = 1; // one block per transform, one launch
    let q = BigUint::from(space.modulus());
    for batch in [1usize, 4, 16] {
        let data: Vec<u64> = random_values(batch as u64, batch * n, &q)
            .iter()
            .map(|v| v.to_u64().unwrap())
            .collect();
        let mut work = data.clone();
        let stats = space.forward_batch(&mut work);
        assert_eq!(
            stats.launches, expected_launches,
            "batch {batch}: launches must not scale with batch size"
        );
        assert_eq!(
            stats.threads,
            batch * (n / 2) * n.trailing_zeros() as usize + batch * n,
            "batch {batch}: one thread per butterfly plus the normalize pass"
        );
        // Batched execution is still the same transform.
        let mut reference = data.clone();
        for transform in reference.chunks_exact_mut(n) {
            space.forward(transform);
        }
        assert_eq!(work, reference, "batch {batch}");
        space.inverse_batch(&mut work);
        assert_eq!(work, data, "batch {batch}: inverse ∘ forward");
    }
}

/// One prime per entry of `widths`, drawn from distinct seeds.
fn basis(seed: u64, widths: &[u32]) -> Vec<u64> {
    widths
        .iter()
        .enumerate()
        .map(|(i, &bits)| RnsContext::with_random_primes(1, bits, seed + i as u64).moduli()[0])
        .collect()
}

#[test]
fn session_chains_match_the_oracle_in_pinned_launches_on_a_warm_pool() {
    let session = Session::default();
    // Moduli on both sides of the narrow (≤ 32-bit) / wide Barrett switch.
    let src_moduli = basis(0x5e55, &[31, 33, 32, 50, 31]);
    let dst_moduli = basis(0xd57, &[33, 31, 45]);
    let src_ctx = RnsContext::with_moduli(&src_moduli);
    let dst_ctx = RnsContext::with_moduli(&dst_moduli);
    let out_ctx = src_ctx.without_last();
    let src = session.rns(&src_moduli);
    let dst = session.rns(&dst_moduli);
    let r = |v: &BigUint| src_ctx.to_residues(v);
    type Run<'a> = &'a dyn Fn() -> (RnsVec, LaunchStats);
    type Oracle<'a> = &'a dyn Fn(usize) -> RnsInt;
    for len in [1usize, 16, 4096] {
        let seed = len as u64;
        let xs = random_values(seed, len, src.product());
        let ws = random_values(seed ^ 0xa, len, src.product());
        let ys = random_values(seed ^ 0xb, len, src.product());
        let a = random_values(seed ^ 0xc, 1, src.product()).remove(0);
        let (x, w, y) = (src.encode(&xs), src.encode(&ws), src.encode(&ys));
        let product = |c: usize| src_ctx.mul(&r(&xs[c]), &r(&ws[c]));
        let chains: [(&str, usize, Run, Oracle); 5] = [
            (
                "base_convert",
                1,
                &|| x.base_convert_with_stats(&dst),
                &|c| src_ctx.base_convert(&dst_ctx, &r(&xs[c])),
            ),
            ("mul_axpy", 1, &|| x.mul_axpy_with_stats(&w, &a, &y), &|c| {
                src_ctx.add(&src_ctx.mul(&r(&a), &product(c)), &r(&ys[c]))
            }),
            (
                "mul_rescale_then_extend",
                1,
                &|| x.mul_rescale_then_extend_with_stats(&w, &dst),
                &|c| out_ctx.base_convert(&dst_ctx, &src_ctx.scale_and_round(&product(c))),
            ),
            ("rescale", 1, &|| x.rescale_with_stats(), &|c| {
                src_ctx.scale_and_round(&r(&xs[c]))
            }),
            (
                "rescale_then_extend",
                2,
                &|| x.rescale_then_extend_with_stats(&dst),
                &|c| out_ctx.base_convert(&dst_ctx, &src_ctx.scale_and_round(&r(&xs[c]))),
            ),
        ];
        for (name, launches, run, oracle) in chains {
            let expect: Vec<RnsInt> = (0..len).map(oracle).collect();
            let (cold, stats) = run();
            assert_eq!(stats.launches, launches, "{name} len {len}: cold launches");
            for (c, e) in expect.iter().enumerate() {
                assert_eq!(&cold.matrix().element(c), e, "{name} len {len} col {c}");
            }
            drop(cold);
            // The second call is served entirely from the warm pool.
            let before = session.stats().pool;
            let (warm, stats) = run();
            assert_eq!(stats.launches, launches, "{name} len {len}: warm launches");
            assert_eq!(stats.allocs, 0, "{name} len {len}: warm allocs");
            assert_eq!(
                session.stats().pool.misses_since(&before),
                0,
                "{name} len {len}: warm pool misses"
            );
            for (c, e) in expect.iter().enumerate() {
                assert_eq!(&warm.matrix().element(c), e, "{name} len {len} col {c}");
            }
        }
    }
}
