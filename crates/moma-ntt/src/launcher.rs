//! NTT execution on the simulated GPU launcher.
//!
//! The inline plan paths ([`NttPlan::forward`], [`NttPlan64::forward`]) walk the
//! butterfly stages as serial host loops. This module runs the same plans
//! through the virtual-GPU launcher, with one mapping per element width:
//!
//! * **Single word** ([`NttPlan64`]): **one block per transform.** GPU FHE
//!   libraries run a small NTT (a 64-bit row of up to 2^12 words fits one
//!   block's shared memory) as one thread block per residue row, whose threads
//!   sync at a block barrier between stages, and send every row of a batch out
//!   in a single launch (Jung et al., TCHES 2021; Kim et al., IISWC 2020).
//!   [`launch_transforms`] is that launch: one [`moma_gpu::launch_chunks`]
//!   over the flat batch, each chunk one `n`-word row, each row run by a plan's
//!   inline transform — bit reversal, Harvey `[0, 4q)` lazy butterflies, the
//!   folded negacyclic twist and the normalize / `n⁻¹ψ⁻ⁱ` pass. The block's
//!   stage barriers are the inline loop's program order, so a batch of any
//!   size, and rows of different moduli (the ring layer's residue matrix),
//!   cost exactly one launch.
//! * **Multi word** ([`NttPlan`]): the paper's one CUDA thread per butterfly
//!   with a grid barrier between stages (§5.1). Each stage is a
//!   [`moma_gpu::launch_chunks`] launch in which butterfly `t` writes its
//!   output pair (one ring multiplication each) into slot `t` of a pre-sized
//!   pair plane, scattered back between stages — the double-buffered
//!   formulation, since `MpUint` values cannot be updated atomically.
//!
//! [`NttPlan64`] has two launcher entry points,
//! [`NttPlan64::forward_batch_on_launcher_pooled`] and
//! [`NttPlan64::inverse_batch_on_launcher_pooled`], each a
//! [`launch_transforms`] over `data.len() / n` transforms of the one plan; a
//! single transform is a batch of one and runs on the calling thread. Their
//! pool argument is unused: the transform runs in place and needs no working
//! plane.

use crate::plan::{NttPlan, NttPlan64};
use crate::transform::{bit_reverse_permute, butterfly_count};
use moma_gpu::launch::{launch_chunks, LaunchStats};
use moma_gpu::pool::BufferPool;
use moma_mp::MpUint;

/// Maps a butterfly index `t ∈ [0, n/2)` of a stage with half-length `m` to the
/// data index of its upper input; the lower input sits `m` slots later.
#[inline]
fn butterfly_base(t: usize, m: usize) -> usize {
    let log_m = m.trailing_zeros();
    ((t >> log_m) << (log_m + 1)) | (t & (m - 1))
}

/// Runs `transform(r, row)` on every `n`-word row `r` of `data` in **one**
/// launch, one block per row: contiguous groups of rows go to the host
/// workers, and each row is transformed in place by the caller's inline
/// plan, so rows may use different plans (moduli) of the same size.
///
/// The statistics report one launch over the paper's virtual-thread count,
/// `rows × (butterflies(n) + n)` — each row's butterflies plus its
/// element-wise normalize pass — and no allocation.
///
/// # Panics
///
/// Panics if `data.len()` is not a non-zero multiple of `n`.
pub fn launch_transforms<F>(data: &mut [u64], n: usize, transform: F) -> LaunchStats
where
    F: Fn(usize, &mut [u64]) + Sync,
{
    assert!(
        !data.is_empty() && data.len() % n == 0,
        "data length must be a non-zero multiple of the transform size"
    );
    let mut stats = launch_chunks(data, n, transform);
    stats.threads *= butterfly_count(n) as usize + n;
    stats
}

impl NttPlan64 {
    /// Forward-transforms a whole batch of `data.len() / n` transforms in
    /// place in one launch, one block per transform ([`launch_transforms`]
    /// running [`NttPlan64::forward`] on every row). The launch count is 1
    /// however large the batch is. `pool` is unused — the transform needs no
    /// working plane — so `allocs` is 0.
    ///
    /// Inputs must be reduced (`< q`); outputs are reduced.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a non-zero multiple of `self.n`.
    pub fn forward_batch_on_launcher_pooled(
        &self,
        data: &mut [u64],
        _pool: &BufferPool,
    ) -> LaunchStats {
        launch_transforms(data, self.n, |_, row| self.forward(row))
    }

    /// Inverse-transforms a whole batch of `data.len() / n` transforms in
    /// place (with `1/n` scaling, or the `n⁻¹ψ⁻ⁱ` untwist on a negacyclic
    /// plan) in one launch, one block per transform, as in
    /// [`NttPlan64::forward_batch_on_launcher_pooled`]; `pool` is unused.
    /// Inputs must be reduced; outputs are reduced.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a non-zero multiple of `self.n`.
    pub fn inverse_batch_on_launcher_pooled(
        &self,
        data: &mut [u64],
        _pool: &BufferPool,
    ) -> LaunchStats {
        launch_transforms(data, self.n, |_, row| self.inverse(row))
    }
}

impl<const L: usize> NttPlan<L> {
    /// Forward transform with every stage dispatched through [`launch_chunks`],
    /// one virtual thread per butterfly (each writing its output pair, scattered
    /// back between stages).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.n`.
    pub fn forward_on_launcher(&self, data: &mut [MpUint<L>]) -> LaunchStats {
        self.run_stages_on_launcher(data, true)
    }

    /// Inverse transform (with `1/n` scaling) with every stage dispatched through
    /// [`launch_chunks`]; the scaling pass runs in place, one thread per element.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.n`.
    pub fn inverse_on_launcher(&self, data: &mut [MpUint<L>]) -> LaunchStats {
        let mut stats = self.run_stages_on_launcher(data, false);
        let n_inv = self.n_inv();
        stats.accumulate(launch_chunks(data, 1, |_, x| {
            x[0] = self.ring.mul(x[0], n_inv);
        }));
        stats
    }

    /// Runs the butterfly stages, one launch each, through a pair plane
    /// allocated once per transform (reported as the one allocation).
    fn run_stages_on_launcher(&self, data: &mut [MpUint<L>], forward: bool) -> LaunchStats {
        assert_eq!(
            data.len(),
            self.n,
            "data length must equal the transform size"
        );
        bit_reverse_permute(data);
        let mut stats = LaunchStats::default();
        let mut pairs = vec![(MpUint::ZERO, MpUint::ZERO); self.n / 2];
        stats.allocs = 1;
        let mut m = 1;
        while m < self.n {
            let twiddles = self.stage(forward, m);
            let stage = launch_chunks(&mut pairs, 1, |t, pair| {
                let i = butterfly_base(t, m);
                let x = data[i];
                let wy = self.ring.mul(twiddles[t & (m - 1)], data[i + m]);
                pair[0] = (self.ring.add(x, wy), self.ring.sub(x, wy));
            });
            stats.accumulate(stage);
            for (t, &(hi, lo)) in pairs.iter().enumerate() {
                let i = butterfly_base(t, m);
                data[i] = hi;
                data[i + m] = lo;
            }
            m <<= 1;
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::NttParams;
    use moma_gpu::BufferPool;
    use moma_mp::MulAlgorithm;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn butterfly_index_mapping_covers_every_pair_once() {
        let n = 16;
        for m in [1usize, 2, 4, 8] {
            let mut seen = vec![0u32; n];
            for t in 0..n / 2 {
                let i = butterfly_base(t, m);
                seen[i] += 1;
                seen[i + m] += 1;
            }
            assert!(seen.iter().all(|&c| c == 1), "m = {m}: {seen:?}");
        }
    }

    #[test]
    fn launcher64_matches_inline_plan() {
        let plan = NttPlan64::new(256);
        let mut rng = StdRng::seed_from_u64(91);
        let data: Vec<u64> = (0..256).map(|_| rng.gen::<u64>() % plan.ctx.q).collect();
        let mut inline = data.clone();
        let mut launched = data.clone();
        plan.forward(&mut inline);
        let pool = BufferPool::new();
        let stats = plan.forward_batch_on_launcher_pooled(&mut launched, &pool);
        assert_eq!(launched, inline, "forward must match the inline plan");
        // (n/2)·log2 n butterflies plus the n-element normalize pass.
        assert_eq!(stats.threads as u64, butterfly_count(256) + 256);
        plan.inverse(&mut inline);
        plan.inverse_batch_on_launcher_pooled(&mut launched, &pool);
        assert_eq!(launched, inline, "inverse must match the inline plan");
        assert_eq!(launched, data, "inverse ∘ forward must be the identity");
    }

    #[test]
    fn launcher64_outputs_are_fully_reduced() {
        let plan = NttPlan64::new(128);
        let mut rng = StdRng::seed_from_u64(92);
        let mut data: Vec<u64> = (0..128).map(|_| rng.gen::<u64>() % plan.ctx.q).collect();
        let pool = BufferPool::new();
        plan.forward_batch_on_launcher_pooled(&mut data, &pool);
        assert!(data.iter().all(|&x| x < plan.ctx.q));
        plan.inverse_batch_on_launcher_pooled(&mut data, &pool);
        assert!(data.iter().all(|&x| x < plan.ctx.q));
    }

    #[test]
    fn batched_launcher_matches_per_transform_launcher() {
        let n = 128;
        let batch = 5;
        let plan = NttPlan64::new(n);
        let mut rng = StdRng::seed_from_u64(94);
        let data: Vec<u64> = (0..batch * n)
            .map(|_| rng.gen::<u64>() % plan.ctx.q)
            .collect();
        let pool = BufferPool::new();
        let mut batched = data.clone();
        let stats = plan.forward_batch_on_launcher_pooled(&mut batched, &pool);
        // One block per transform, all in one launch, independent of batch.
        assert_eq!(stats.launches, 1);
        assert_eq!(
            stats.threads as u64,
            batch as u64 * butterfly_count(n) + (batch * n) as u64
        );
        let mut single = data.clone();
        let mut single_launches = 0;
        for transform in single.chunks_exact_mut(n) {
            single_launches += plan
                .forward_batch_on_launcher_pooled(transform, &pool)
                .launches;
        }
        assert_eq!(batched, single, "batched forward must match per-transform");
        assert_eq!(single_launches, batch);
        let inv_stats = plan.inverse_batch_on_launcher_pooled(&mut batched, &pool);
        assert_eq!(inv_stats.launches, 1);
        assert_eq!(
            batched, data,
            "batched inverse ∘ forward must be the identity"
        );
    }

    #[test]
    fn launcher_multiword_matches_inline_plan() {
        let params = NttParams::<2>::for_paper_modulus(64, 128, MulAlgorithm::Schoolbook);
        let plan = NttPlan::new(&params);
        let mut rng = StdRng::seed_from_u64(93);
        let data: Vec<_> = (0..64)
            .map(|_| params.ring.random_element(&mut rng))
            .collect();
        let mut inline = data.clone();
        let mut launched = data.clone();
        plan.forward(&mut inline);
        plan.forward_on_launcher(&mut launched);
        assert_eq!(launched, inline, "forward must match the inline plan");
        plan.inverse(&mut inline);
        plan.inverse_on_launcher(&mut launched);
        assert_eq!(launched, inline, "inverse must match the inline plan");
        assert_eq!(launched, data);
    }

    #[test]
    fn negacyclic_launcher_matches_inline_plan() {
        let n = 128;
        let batch = 3;
        let plan = NttPlan64::negacyclic(12289, n);
        let mut rng = StdRng::seed_from_u64(96);
        let data: Vec<u64> = (0..batch * n)
            .map(|_| rng.gen::<u64>() % plan.ctx.q)
            .collect();
        let pool = BufferPool::new();
        let mut launched = data.clone();
        let stats = plan.forward_batch_on_launcher_pooled(&mut launched, &pool);
        // The twist is folded into each row's transform: still one launch.
        assert_eq!(stats.launches, 1);
        let mut inline = data.clone();
        for transform in inline.chunks_exact_mut(n) {
            plan.forward(transform);
        }
        assert_eq!(launched, inline, "negacyclic forward must match inline");
        let inv_stats = plan.inverse_batch_on_launcher_pooled(&mut launched, &pool);
        assert_eq!(inv_stats.launches, 1);
        assert_eq!(
            launched, data,
            "negacyclic batched inverse ∘ forward must be the identity"
        );
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn launcher_wrong_length_panics() {
        let plan = NttPlan64::new(64);
        let mut data = vec![0u64; 32];
        plan.forward_batch_on_launcher_pooled(&mut data, &BufferPool::new());
    }

    #[test]
    #[should_panic(expected = "multiple of the transform size")]
    fn batched_launcher_rejects_ragged_batches() {
        let plan = NttPlan64::new(64);
        let mut data = vec![0u64; 96];
        plan.forward_batch_on_launcher_pooled(&mut data, &BufferPool::new());
    }

    #[test]
    fn pooled_batch_matches_inline_and_is_allocation_free_when_warm() {
        let plan = NttPlan64::new(128);
        let pool = BufferPool::new();
        let mut rng = StdRng::seed_from_u64(95);
        let data: Vec<u64> = (0..3 * 128)
            .map(|_| rng.gen::<u64>() % plan.ctx.q)
            .collect();
        let mut plain = data.clone();
        let mut pooled = data.clone();
        for transform in plain.chunks_exact_mut(128) {
            plan.forward(transform);
        }
        // The transform runs in place: even a cold pool is never touched.
        let cold = plan.forward_batch_on_launcher_pooled(&mut pooled, &pool);
        assert_eq!(pooled, plain, "pooled forward must match the inline plan");
        assert_eq!(cold.allocs, 0, "an in-place launch allocates nothing");
        for transform in plain.chunks_exact_mut(128) {
            plan.inverse(transform);
        }
        let warm = plan.inverse_batch_on_launcher_pooled(&mut pooled, &pool);
        assert_eq!(pooled, plain, "pooled inverse must match the inline plan");
        assert_eq!(warm.allocs, 0);
        assert_eq!(pool.stats(), Default::default(), "the pool is unused");
        assert_eq!(
            pooled, data,
            "pooled inverse ∘ forward must be the identity"
        );
        // Steady state: many more rounds, zero further allocations.
        for _ in 0..5 {
            assert_eq!(
                plan.forward_batch_on_launcher_pooled(&mut pooled, &pool)
                    .allocs,
                0
            );
            assert_eq!(
                plan.inverse_batch_on_launcher_pooled(&mut pooled, &pool)
                    .allocs,
                0
            );
        }
        assert_eq!(pooled, data);
    }
}
