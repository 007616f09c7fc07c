//! Stage-level batched NTT execution on the simulated GPU launcher.
//!
//! The inline plan paths ([`NttPlan::forward`], [`NttPlan64::forward`]) walk the
//! butterfly stages as serial host loops. The paper instead maps **one CUDA thread
//! per butterfly** and launches each stage as a grid, with grid synchronization
//! between stages (§5.1). This module reproduces that execution shape on the
//! virtual-GPU launcher: every stage reads the plan's precomputed twiddles through
//! the [`NttPlan64::stage`] / [`NttPlan::stage`] accessors and dispatches its
//! butterflies through [`moma_gpu::launch_indexed`] / [`moma_gpu::launch_chunks`];
//! the join at the end of each launch is the stage barrier.
//!
//! Two execution strategies, chosen by element width:
//!
//! * **Single word** ([`NttPlan64`]): the data lives in an atomic working plane
//!   (`[AtomicU64]`, acquired from the caller's [`BufferPool`]) for the duration
//!   of the transform. Within one stage every butterfly reads and writes only its
//!   own pair of slots, so relaxed atomics are just the safe-Rust spelling of
//!   CUDA's disjoint global-memory accesses, and the transform stays genuinely in
//!   place. Butterflies use the same Shoup multiplication and `[0, 4q)` lazy
//!   reduction as the inline path; one final element-parallel pass normalizes.
//! * **Multi word** ([`NttPlan`]): each stage is a [`moma_gpu::launch_chunks`]
//!   launch in which butterfly `t` writes its output pair (one ring
//!   multiplication each) into slot `t` of a pre-sized pair plane, scattered back
//!   between stages — the double-buffered formulation, since `MpUint` values
//!   cannot be updated atomically.
//!
//! [`NttPlan64`] has exactly two launcher entry points,
//! [`NttPlan64::forward_batch_on_launcher_pooled`] and
//! [`NttPlan64::inverse_batch_on_launcher_pooled`]. Both run many same-size
//! transforms through *one* launch per stage with grid = batch × n/2 — the
//! paper's batched NTT; a single transform is a batch of one. The per-stage
//! barrier is thereby amortized over the whole batch: the launch count of a
//! batched transform is `log2 n + 1` regardless of the batch size (see
//! [`moma_gpu::LaunchStats::launches`]), where launching the transforms one by
//! one pays `batch × (log2 n + 1)`. Callers without a pool of their own pass a
//! fresh [`BufferPool`], whose one miss is the plane the transform allocated.
//!
//! On a many-core host the stage launches spread the butterflies across workers;
//! on a single-vCPU host they degrade to the inline loop plus launch
//! bookkeeping, which is exactly the overhead `reproduce bench` records as the
//! `ntt_launcher` entry.

use crate::plan::{NttPlan, NttPlan64};
use crate::transform::bit_reverse_permute;
use moma_gpu::launch::{launch_chunks, launch_indexed, LaunchStats};
use moma_gpu::pool::BufferPool;
use moma_mp::MpUint;
use std::sync::atomic::{AtomicU64, Ordering};

/// Maps a butterfly index `t ∈ [0, n/2)` of a stage with half-length `m` to the
/// data index of its upper input; the lower input sits `m` slots later.
#[inline]
fn butterfly_base(t: usize, m: usize) -> usize {
    let log_m = m.trailing_zeros();
    ((t >> log_m) << (log_m + 1)) | (t & (m - 1))
}

impl NttPlan64 {
    /// Forward-transforms a whole batch of `data.len() / n` transforms in place,
    /// with each butterfly stage of **all** transforms dispatched as one launch
    /// (grid = batch × n/2, one virtual thread per butterfly) — the paper's
    /// batched NTT. The per-stage grid barrier is paid once per stage, not once
    /// per transform: the returned statistics report `log2 n + 1` launches
    /// however large the batch is.
    ///
    /// The atomic working plane is acquired from (and returned to) `pool`, and
    /// the returned statistics count pool *misses* in the window as
    /// allocations, so a warm pool reports `allocs == 0`. The normalize pass
    /// writes `data` in place through [`launch_chunks`] (chunk length 1, so the
    /// thread count still equals the element count).
    ///
    /// Inputs must be reduced (`< q`); outputs are reduced.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a non-zero multiple of `self.n`.
    pub fn forward_batch_on_launcher_pooled(
        &self,
        data: &mut [u64],
        pool: &BufferPool,
    ) -> LaunchStats {
        let before = pool.misses();
        let cells = pool.acquire_cells(data.len());
        let mut stats = self.run_stages_batched(data, true, &cells);
        let q = self.ctx.q;
        let two_q = self.two_q();
        let pass = launch_chunks(data, 1, |i, out| {
            let mut v = cells[i].load(Ordering::Relaxed);
            if v >= two_q {
                v -= two_q;
            }
            if v >= q {
                v -= q;
            }
            out[0] = v;
        });
        stats.accumulate(pass);
        pool.recycle_cells(cells);
        stats.allocs += (pool.misses() - before) as usize;
        stats
    }

    /// Inverse-transforms a whole batch of `data.len() / n` transforms in place
    /// (with `1/n` scaling), one launch per butterfly stage across the whole
    /// batch; the scaling pass doubles as the normalize pass, as in the inline
    /// plan. The working plane comes from `pool` and `allocs` reports the
    /// pool-miss delta of the window, as in
    /// [`NttPlan64::forward_batch_on_launcher_pooled`]. Inputs must be reduced;
    /// outputs are reduced.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a non-zero multiple of `self.n`.
    pub fn inverse_batch_on_launcher_pooled(
        &self,
        data: &mut [u64],
        pool: &BufferPool,
    ) -> LaunchStats {
        let before = pool.misses();
        let cells = pool.acquire_cells(data.len());
        let mut stats = self.run_stages_batched(data, false, &cells);
        let q = self.ctx.q;
        let pass = if let Some(tw) = self.twist() {
            // Negacyclic: the per-index ψ^{-i}·n^{-1} factor unfolds the twist
            // inside the same scaling multiply — still one pass, one launch.
            let n = self.n;
            launch_chunks(data, 1, |i, out| {
                let j = i % n;
                let t = self.ctx.mul_mod_shoup_lazy(
                    cells[i].load(Ordering::Relaxed),
                    tw.inverse_scale.twiddles[j],
                    tw.inverse_scale.shoup[j],
                );
                out[0] = if t >= q { t - q } else { t };
            })
        } else {
            let (n_inv, n_inv_shoup) = self.n_inv_pair();
            launch_chunks(data, 1, |i, out| {
                let t = self.ctx.mul_mod_shoup_lazy(
                    cells[i].load(Ordering::Relaxed),
                    n_inv,
                    n_inv_shoup,
                );
                out[0] = if t >= q { t - q } else { t };
            })
        };
        stats.accumulate(pass);
        pool.recycle_cells(cells);
        stats.allocs += (pool.misses() - before) as usize;
        stats
    }

    /// Runs the butterfly stages of every transform in the batch on the
    /// launcher — one launch per stage covering the whole batch — leaving the
    /// results (values lazily reduced in `[0, 4q)`) in the caller-provided
    /// working plane and returning the accumulated stage statistics.
    ///
    /// # Panics
    ///
    /// Panics if `cells.len() != data.len()` or `data` is not a non-zero
    /// multiple of the transform size.
    fn run_stages_batched(
        &self,
        data: &mut [u64],
        forward: bool,
        cells: &[AtomicU64],
    ) -> LaunchStats {
        assert!(
            !data.is_empty() && data.len() % self.n == 0,
            "data length must be a non-zero multiple of the transform size"
        );
        assert_eq!(
            cells.len(),
            data.len(),
            "working plane length must equal the data length"
        );
        let batch = data.len() / self.n;
        let half = self.n / 2;
        for transform in data.chunks_exact_mut(self.n) {
            bit_reverse_permute(transform);
        }
        for (cell, &x) in cells.iter().zip(data.iter()) {
            cell.store(x, Ordering::Relaxed);
        }
        let mut stats = LaunchStats::default();
        let q = self.ctx.q;
        let two_q = self.two_q();
        let mut m = 1;
        // A negacyclic forward runs its folded first stage here: each butterfly
        // input is multiplied by its slot's ψ^{rev(i)} twist factor (lazy Shoup
        // product, [0, 2q)) before the add/sub — the same launch the plain
        // stage-1 butterflies would have used, with the twist riding along.
        if forward {
            if let Some(tw) = self.twist() {
                let round = launch_indexed(batch * half, |t| {
                    let base = (t / half) * self.n;
                    let bf = t % half;
                    let i = base + 2 * bf;
                    let k = i + 1;
                    let (j0, j1) = (2 * bf, 2 * bf + 1);
                    let x = cells[i].load(Ordering::Relaxed);
                    let y = cells[k].load(Ordering::Relaxed);
                    let hi0 = ((tw.forward.shoup[j0] as u128 * x as u128) >> 64) as u64;
                    let t0 = tw.forward.twiddles[j0]
                        .wrapping_mul(x)
                        .wrapping_sub(hi0.wrapping_mul(q));
                    let hi1 = ((tw.forward.shoup[j1] as u128 * y as u128) >> 64) as u64;
                    let t1 = tw.forward.twiddles[j1]
                        .wrapping_mul(y)
                        .wrapping_sub(hi1.wrapping_mul(q));
                    cells[i].store(t0 + t1, Ordering::Relaxed);
                    cells[k].store(t0 + two_q - t1, Ordering::Relaxed);
                });
                stats.accumulate(round);
                m = 2;
            }
        }
        while m < self.n {
            let stage = self.stage(forward, m);
            let round = launch_indexed(batch * half, |t| {
                // Thread t handles butterfly t % (n/2) of transform t / (n/2).
                let base = (t / half) * self.n;
                let bf = t % half;
                let i = base + butterfly_base(bf, m);
                let k = i + m;
                let j = bf & (m - 1);
                // Harvey's lazy butterfly, identical to the inline hot loop: fold
                // x into [0, 2q), take the lazy Shoup product t = w·y mod q in
                // [0, 2q), and emit x + t and x − t + 2q, both < 4q.
                let mut x = cells[i].load(Ordering::Relaxed);
                if x >= two_q {
                    x -= two_q;
                }
                let y = cells[k].load(Ordering::Relaxed);
                let hi = ((stage.shoup[j] as u128 * y as u128) >> 64) as u64;
                let t = stage.twiddles[j]
                    .wrapping_mul(y)
                    .wrapping_sub(hi.wrapping_mul(q));
                cells[i].store(x + t, Ordering::Relaxed);
                cells[k].store(x + two_q - t, Ordering::Relaxed);
            });
            stats.accumulate(round);
            m <<= 1;
        }
        stats
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
    use crate::transform::butterfly_count;
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
        // One launch per stage plus the normalize pass, independent of batch.
        assert_eq!(stats.launches, n.trailing_zeros() as usize + 1);
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
        assert_eq!(single_launches, batch * (n.trailing_zeros() as usize + 1));
        let inv_stats = plan.inverse_batch_on_launcher_pooled(&mut batched, &pool);
        assert_eq!(inv_stats.launches, n.trailing_zeros() as usize + 1);
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
        // The folded twist stage replaces the plain stage 1: still one launch
        // per stage plus the normalize pass.
        assert_eq!(stats.launches, n.trailing_zeros() as usize + 1);
        let mut inline = data.clone();
        for transform in inline.chunks_exact_mut(n) {
            plan.forward(transform);
        }
        assert_eq!(launched, inline, "negacyclic forward must match inline");
        let inv_stats = plan.inverse_batch_on_launcher_pooled(&mut launched, &pool);
        assert_eq!(inv_stats.launches, n.trailing_zeros() as usize + 1);
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
        // Cold pool: the first acquire misses, and the miss is the alloc count.
        let cold = plan.forward_batch_on_launcher_pooled(&mut pooled, &pool);
        assert_eq!(pooled, plain, "pooled forward must match the inline plan");
        assert_eq!(cold.allocs, 1, "a cold pool allocates the plane once");
        for transform in plain.chunks_exact_mut(128) {
            plan.inverse(transform);
        }
        let warm = plan.inverse_batch_on_launcher_pooled(&mut pooled, &pool);
        assert_eq!(pooled, plain, "pooled inverse must match the inline plan");
        assert_eq!(
            warm.allocs, 0,
            "a warm pool serves the plane without allocating"
        );
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
