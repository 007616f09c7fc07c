//! Data-parallel batch launcher: one virtual CUDA thread per element on a host thread
//! pool.
//!
//! The paper's BLAS kernels assign one CUDA thread per vector element and its NTT
//! kernels one thread per butterfly (§5.1). This module reproduces that model on the
//! host: a launch splits its units of work into at most
//! [`std::thread::available_parallelism`] contiguous spans, every unit runs the same
//! kernel, and the wall-clock time of the whole launch is reported.
//!
//! Four entry points, one per shape of work:
//!
//! * [`launch_indexed`] — a side-effecting closure per element index (the
//!   caller owns its storage and synchronization);
//! * [`launch_chunks`] — a closure per fixed-length chunk of a caller-owned slice,
//!   written in place (one RNS residue row, one 64-bit NTT row, one BLAS
//!   element);
//! * [`launch_compiled_batch`] — a compiled machine-level kernel over a flat
//!   row-major input batch, outputs returned flat in element order;
//! * [`launch_compiled_rows`] — a multi-output compiled kernel run in lane blocks,
//!   output `j` of every element scattered to row `j` — the shape fused residue
//!   kernels (one kernel computing every target row of a base conversion) need to
//!   run in a single launch.
//!
//! Each entry point carves its work into disjoint spans and hands them to one
//! private executor, `fork_join`: the first span runs on the calling thread and
//! every further span on its own scoped thread, all joined before the launch
//! returns. Both compiled launches run through the
//! lane-blocked executor ([`CompiledKernel::run_lanes`]) and take their frame
//! from one thread-local, so the steady state allocates none. The tree
//! interpreter (`moma_ir::interp`) is the correctness oracle the compiled launches
//! are tested against.

use moma_ir::compiled::{BlockScratch, CompiledKernel, LANE_BLOCK};
use std::cell::RefCell;
use std::ops::Range;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Statistics of one simulated launch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchStats {
    /// Number of virtual threads (elements) executed.
    pub threads: usize,
    /// Number of host worker threads used.
    pub workers: usize,
    /// Number of kernel launches performed (1 for a single launch; accumulated
    /// totals count one per launch). On real hardware every launch pays a fixed
    /// dispatch + grid-barrier cost, so callers that batch work care about this
    /// number staying independent of the batch size.
    pub launches: usize,
    /// Plane-sized heap buffers (output planes, working planes) the launch
    /// path allocated. In-place entry points ([`launch_indexed`],
    /// [`launch_chunks`], [`launch_compiled_rows`]) report `0` — the caller
    /// owns the output — and ops that route their planes through a
    /// [`crate::pool::BufferPool`] report the pool-miss delta, so a warm
    /// steady state reports `0` end to end. Execution frames are
    /// O(registers × [`LANE_BLOCK`]) words, not plane-sized, and are excluded
    /// (each host thread reuses one thread-local frame).
    pub allocs: usize,
    /// Wall-clock time of the launch.
    pub elapsed: Duration,
}

impl Default for LaunchStats {
    /// The statistics of a launch that had nothing to do: zero threads, one
    /// worker, zero launches, zero elapsed time — the identity for
    /// [`LaunchStats::accumulate`].
    fn default() -> Self {
        LaunchStats {
            threads: 0,
            workers: 1,
            launches: 0,
            allocs: 0,
            elapsed: Duration::ZERO,
        }
    }
}

impl LaunchStats {
    /// Wall-clock nanoseconds per element.
    pub fn nanos_per_element(&self) -> f64 {
        if self.threads == 0 {
            0.0
        } else {
            self.elapsed.as_secs_f64() * 1e9 / self.threads as f64
        }
    }

    /// Folds a subsequent (serialized) launch into this total: threads and
    /// launch counts add up, workers take the maximum, elapsed times add up.
    /// Used by callers that chain several launches into one logical operation
    /// (the multi-word NTT's stages with a barrier between them, a ring
    /// ladder step's raise → multiply → lower → rescale, …).
    pub fn accumulate(&mut self, next: LaunchStats) {
        self.threads += next.threads;
        self.workers = self.workers.max(next.workers);
        self.launches += next.launches;
        self.allocs += next.allocs;
        self.elapsed += next.elapsed;
    }
}

/// Number of host worker threads to use: [`std::thread::available_parallelism`],
/// read once per process. The query reads the affinity mask and the cgroup
/// CPU quota (~25 µs on Linux), as much as a whole n = 1024 transform, so it
/// must not run once per launch.
fn worker_count() -> usize {
    static WORKERS: OnceLock<usize> = OnceLock::new();
    *WORKERS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
    })
}

thread_local! {
    /// The reusable per-thread frame of both compiled launches. A frame
    /// reloads its constants when it moves between kernels, so one frame per
    /// thread serves every kernel that thread ever launches — the calling
    /// thread's steady state allocates no frame at all. The calling thread
    /// runs the first span of every launch on its own frame; each of the
    /// other spans runs on a scoped thread born fresh for that launch, which
    /// builds one frame. That frame is O(registers × [`LANE_BLOCK`]) words,
    /// not plane-sized, and is excluded from [`LaunchStats::allocs`].
    static BLOCK_SCRATCH: RefCell<BlockScratch> = RefCell::new(BlockScratch::default());
}

/// Length of each span when `n` units are split over `workers`: `n` divided
/// into at most `workers` spans of this length, the last one possibly shorter.
fn span_len(n: usize, workers: usize) -> usize {
    n.div_ceil(workers.max(1)).max(1)
}

/// The index ranges of `0..n` cut into spans of `len`.
fn spans(n: usize, len: usize) -> impl ExactSizeIterator<Item = Range<usize>> {
    (0..n).step_by(len).map(move |lo| lo..(lo + len).min(n))
}

/// Runs `body` once per part and reports a one-launch [`LaunchStats`] over
/// `threads` virtual threads — the one place a launch decides how it
/// executes. The parts must be disjoint (index spans, `chunks_mut` windows).
/// The first part always runs on the calling thread; a single part does so
/// with no spawn and no heap allocation, and each further part runs on one
/// scoped thread, spawned before the caller starts its own part and joined
/// before this returns.
fn fork_join<P, F>(
    threads: usize,
    mut parts: impl ExactSizeIterator<Item = P>,
    body: F,
) -> LaunchStats
where
    P: Send,
    F: Fn(P) + Sync,
{
    let start = Instant::now();
    let workers = parts.len().max(1);
    let first = parts.next();
    if parts.len() == 0 {
        first.into_iter().for_each(body);
    } else {
        std::thread::scope(|scope| {
            for part in parts {
                let body = &body;
                scope.spawn(move || body(part));
            }
            first.into_iter().for_each(&body);
        });
    }
    LaunchStats {
        threads,
        workers,
        launches: 1,
        allocs: 0,
        elapsed: start.elapsed(),
    }
}

/// Runs `kernel_fn(i)` for every `i` in `0..n` across a host thread pool and reports
/// the launch statistics.
///
/// The closure receives the element index, mirroring
/// `blockIdx.x * blockDim.x + threadIdx.x` in the generated CUDA code.
pub fn launch_indexed<F>(n: usize, kernel_fn: F) -> LaunchStats
where
    F: Fn(usize) + Sync,
{
    let len = span_len(n, worker_count());
    fork_join(n, spans(n, len), |span| span.for_each(&kernel_fn))
}

/// Runs one virtual thread per `chunk_len`-sized chunk of `out`, giving each
/// thread index-order mutable access to exactly its own chunk (the last chunk may
/// be shorter when the length does not divide evenly).
///
/// This is the in-place launch for kernels that produce values: the caller
/// sizes the flat output once, and every worker writes its disjoint chunks
/// directly, with no per-chunk collection or concatenation on the launch path.
/// With `chunk_len == 1` it is one virtual thread per element; with a row
/// length it is one virtual thread per row (one RNS residue plane).
///
/// # Panics
///
/// Panics if `chunk_len` is zero.
pub fn launch_chunks<T, F>(out: &mut [T], chunk_len: usize, f: F) -> LaunchStats
where
    T: Send,
    F: Fn(usize, &mut [T]) + Sync,
{
    assert!(chunk_len > 0, "chunk length must be positive");
    let n = out.len().div_ceil(chunk_len);
    // Each worker takes one contiguous group of `per` chunks.
    let per = span_len(n, worker_count());
    let parts = out.chunks_mut(per * chunk_len).enumerate();
    fork_join(n, parts, |(s, group)| {
        for (j, chunk) in group.chunks_mut(chunk_len).enumerate() {
            f(s * per + j, chunk);
        }
    })
}

/// Executes an already-compiled kernel over a whole row-major input batch in one
/// launch: element `i`'s parameters occupy
/// `inputs[i * param_count .. (i + 1) * param_count]`, and the outputs are
/// returned flat in the same element order (`output_count` words per element).
///
/// Contiguous element spans are split across the host workers; each worker runs
/// its span through [`CompiledKernel::run_into`] — lane blocks of up to
/// [`LANE_BLOCK`] elements on the thread's one frame — and writes its slice of
/// the flat output directly, with no per-element input `Vec` and no per-element
/// output allocation. The flat output is the launch's one allocation.
///
/// # Panics
///
/// Panics if `inputs.len()` is not a multiple of the kernel's parameter count,
/// or if execution fails on any element (an invalid generated kernel or
/// malformed inputs).
pub fn launch_compiled_batch(compiled: &CompiledKernel, inputs: &[u64]) -> (Vec<u64>, LaunchStats) {
    let p = compiled.param_count().max(1);
    assert!(
        inputs.len() % p == 0,
        "flat input length must be a multiple of the parameter count"
    );
    let n = if compiled.param_count() == 0 {
        0
    } else {
        inputs.len() / p
    };
    let oc = compiled.output_count();
    let mut out = vec![0u64; n * oc];
    let len = span_len(n, worker_count());
    let parts = out.chunks_mut((len * oc).max(1)).zip(spans(n, len));
    let mut stats = fork_join(n, parts, |(rows, span)| {
        BLOCK_SCRATCH.with(|cell| {
            compiled
                .run_into(
                    &inputs[span.start * p..span.end * p],
                    &mut cell.borrow_mut(),
                    rows,
                )
                .unwrap_or_else(|e| panic!("generated kernel failed on elements {span:?}: {e}"));
        })
    });
    stats.allocs = usize::from(n > 0);
    (out, stats)
}

/// Executes a multi-output compiled kernel over every element in a single
/// launch, scattering output `j` of element `i` to `out[j * cols + i]` — the
/// row-major matrix layout a residue-plane consumer needs.
///
/// Elements run in lane blocks through [`CompiledKernel::run_lanes`]: each
/// bytecode instruction dispatches once per block of up to [`LANE_BLOCK`]
/// elements, and parameters are loaded a whole block at a time —
/// `fill(p, lo, lanes)` must write parameter `p` for the consecutive elements
/// `lo..lo + lanes.len()` into `lanes`, which for row-major input planes is a
/// contiguous row copy rather than a per-element gather. Compared with running
/// one [`launch_compiled_batch`] per output row, this pays the fixed launch
/// cost **once** for all rows, reads each input element once instead of once
/// per row, and never materializes an element-major intermediate: every worker
/// owns a disjoint column range of each output row and writes results in place.
///
/// `out.len()` must equal `output_count() * cols`; the launch reports `cols`
/// virtual threads (one per element, each producing a full output column).
///
/// # Panics
///
/// Panics if `out.len()` is not `output_count() * cols`, or if execution fails
/// on any element (an invalid generated kernel or malformed inputs).
pub fn launch_compiled_rows<F>(
    compiled: &CompiledKernel,
    out: &mut [u64],
    cols: usize,
    fill: F,
) -> LaunchStats
where
    F: Fn(usize, usize, &mut [u64]) + Sync,
{
    let oc = compiled.output_count();
    assert_eq!(
        out.len(),
        oc * cols,
        "output length must be output_count() * cols"
    );
    // Carve every output row into the same column spans, so each part holds
    // a disjoint `&mut` window of all rows at once.
    let len = span_len(cols, worker_count());
    let mut parts: Vec<(Range<usize>, Vec<&mut [u64]>)> = spans(cols, len)
        .map(|span| (span, Vec::with_capacity(oc)))
        .collect();
    for row in out.chunks_mut(cols.max(1)) {
        for ((_, windows), window) in parts.iter_mut().zip(row.chunks_mut(len)) {
            windows.push(window);
        }
    }
    fork_join(cols, parts.into_iter(), |(span, mut rows)| {
        let (lo, hi) = (span.start, span.end);
        BLOCK_SCRATCH.with(|cell| {
            let scratch = &mut *cell.borrow_mut();
            for base in span.step_by(LANE_BLOCK) {
                let n = (hi - base).min(LANE_BLOCK);
                compiled
                    .run_lanes(
                        n,
                        scratch,
                        |p, lanes| fill(p, base, lanes),
                        |j, lanes| rows[j][base - lo..base - lo + n].copy_from_slice(lanes),
                    )
                    .unwrap_or_else(|e| {
                        panic!(
                            "generated kernel failed on elements {base}..{}: {e}",
                            base + n
                        )
                    });
            }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use moma_ir::{interp, KernelBuilder, Op, Ty};
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn launch_covers_every_index_exactly_once() {
        let hits: Vec<AtomicUsize> = (0..1000).map(|_| AtomicUsize::new(0)).collect();
        let stats = launch_indexed(1000, |i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert_eq!(stats.threads, 1000);
        assert!(stats.workers >= 1);
        assert!(stats.nanos_per_element() > 0.0);
    }

    #[test]
    fn empty_launch_is_fine() {
        let stats = launch_indexed(0, |_| panic!("must not run"));
        assert_eq!(stats.threads, 0);
        assert_eq!(stats.nanos_per_element(), 0.0);
    }

    #[test]
    fn fork_join_runs_every_unit_once_at_any_span_count() {
        for workers in [1, 2, 3, 7] {
            for n in [0usize, 1, 5, 333, 4096] {
                let len = span_len(n, workers);
                let count = n.div_ceil(len);
                assert!(count <= workers, "{n} units over {workers} workers");
                let ctx = format!("n = {n}, {workers} workers");

                // Index spans: every index exactly once; only the last span
                // may be short.
                let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
                let stats = fork_join(n, spans(n, len), |span| {
                    assert!(
                        span.len() == len || span.end == n,
                        "{ctx}: ragged inner span"
                    );
                    for i in span {
                        hits[i].fetch_add(1, Ordering::Relaxed);
                    }
                });
                assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1), "{ctx}");
                assert_eq!(stats.threads, n);
                assert_eq!(stats.workers, count.max(1), "{ctx}");

                // `chunks_mut` parts: every slot written once, by its own span.
                let mut out = vec![usize::MAX; n];
                fork_join(n, out.chunks_mut(len).enumerate(), |(s, chunk)| {
                    assert!(
                        chunk.len() == len || s + 1 == count,
                        "{ctx}: ragged inner chunk"
                    );
                    for (j, slot) in chunk.iter_mut().enumerate() {
                        assert_eq!(*slot, usize::MAX, "{ctx}: slot written twice");
                        *slot = s * len + j;
                    }
                });
                assert!(out.iter().enumerate().all(|(i, &v)| v == i), "{ctx}");
            }
        }
    }

    #[test]
    fn one_unit_launch_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let seen = std::sync::Mutex::new(Vec::new());
        let record = || seen.lock().unwrap().push(std::thread::current().id());
        let indexed = launch_indexed(1, |_| record());
        let chunks = launch_chunks(&mut [0u64; 8], 8, |_, _| record());
        assert_eq!(*seen.lock().unwrap(), [caller, caller]);
        assert_eq!((indexed.workers, chunks.workers), (1, 1));
    }

    #[test]
    fn fork_join_runs_exactly_one_part_on_the_calling_thread() {
        let caller = std::thread::current().id();
        for parts in [2, 3] {
            let ran_on = std::sync::Mutex::new(Vec::new());
            let stats = fork_join(parts, 0..parts, |part| {
                ran_on
                    .lock()
                    .unwrap()
                    .push((part, std::thread::current().id()));
            });
            let mut ran_on = ran_on.into_inner().unwrap();
            ran_on.sort_by_key(|&(part, _)| part);
            assert_eq!(
                ran_on.iter().map(|&(part, _)| part).collect::<Vec<_>>(),
                (0..parts).collect::<Vec<_>>(),
                "{parts} parts: each runs once"
            );
            let on_caller = ran_on.iter().filter(|&&(_, id)| id == caller).count();
            assert_eq!(on_caller, 1, "{parts} parts: one runs on the caller");
            assert_eq!(stats.workers, parts);
        }
    }

    #[test]
    fn chunk_launch_fills_every_chunk_in_place() {
        let mut out = vec![0u64; 1000];
        let stats = launch_chunks(&mut out, 100, |i, chunk| {
            assert_eq!(chunk.len(), 100);
            for (j, slot) in chunk.iter_mut().enumerate() {
                *slot = (i * 100 + j) as u64;
            }
        });
        assert_eq!(stats.threads, 10);
        assert!(out.iter().enumerate().all(|(k, &v)| v == k as u64));
    }

    #[test]
    fn chunk_launch_handles_ragged_tail_and_empty_output() {
        let mut out = vec![0u32; 7];
        let stats = launch_chunks(&mut out, 3, |i, chunk| {
            assert_eq!(chunk.len(), if i == 2 { 1 } else { 3 });
            chunk.fill(i as u32 + 1);
        });
        assert_eq!(stats.threads, 3);
        assert_eq!(out, [1, 1, 1, 2, 2, 2, 3]);
        let mut empty: [u8; 0] = [];
        let stats = launch_chunks(&mut empty, 4, |_, _| panic!("must not run"));
        assert_eq!(stats.threads, 0);
    }

    #[test]
    #[should_panic(expected = "chunk length")]
    fn chunk_launch_rejects_zero_chunks() {
        launch_chunks(&mut [0u8; 4], 0, |_, _| {});
    }

    #[test]
    fn kernel_launch_collects_outputs_in_order() {
        // A trivial generated kernel: out = a + b (mod 2^64) with carry.
        let mut kb = KernelBuilder::new("vecadd");
        let a = kb.param("a", Ty::UInt(64));
        let b = kb.param("b", Ty::UInt(64));
        let carry = kb.local("carry", Ty::Flag);
        let sum = kb.output("sum", Ty::UInt(64));
        kb.push(
            vec![carry, sum],
            Op::AddWide {
                a: a.into(),
                b: b.into(),
                carry_in: None,
            },
        );
        let compiled = CompiledKernel::compile(&kb.build()).unwrap();

        let inputs: Vec<u64> = (0..512u64).flat_map(|i| [i, 2 * i]).collect();
        let (outputs, stats) = launch_compiled_batch(&compiled, &inputs);
        assert_eq!(stats.threads, 512);
        assert_eq!(outputs.len(), 512);
        for (i, out) in outputs.iter().enumerate() {
            assert_eq!(*out, 3 * i as u64);
        }
    }

    #[test]
    fn compiled_batch_launch_matches_per_element_launch() {
        let mut kb = KernelBuilder::new("modmul");
        let a = kb.param("a", Ty::UInt(64));
        let b = kb.param("b", Ty::UInt(64));
        let p = kb.output("p", Ty::UInt(64));
        kb.push(
            vec![p],
            Op::MulModBarrett {
                a: a.into(),
                b: b.into(),
                q: moma_ir::Operand::Const(2_147_483_647),
                mu: moma_ir::Operand::Const(0),
                mbits: 31,
            },
        );
        let kernel = kb.build();
        let compiled = CompiledKernel::compile(&kernel).unwrap();
        let n = 333; // deliberately not a multiple of any worker count
        let flat: Vec<u64> = (0..n)
            .flat_map(|i| [i as u64 * 77, i as u64 * 131 + 5])
            .collect();
        let (batch_out, stats) = launch_compiled_batch(&compiled, &flat);
        assert_eq!(stats.threads, n);
        assert_eq!(stats.launches, 1);
        assert_eq!(
            stats.allocs, 1,
            "one flat output buffer, nothing per element"
        );
        assert_eq!(batch_out.len(), n);
        for (i, params) in flat.chunks_exact(2).enumerate() {
            let per_elt = interp::run(&kernel, params).unwrap().outputs;
            assert_eq!(per_elt, [batch_out[i]], "element {i}");
        }
        let (empty, stats) = launch_compiled_batch(&compiled, &[]);
        assert!(empty.is_empty());
        assert_eq!(stats.threads, 0);
        assert_eq!(stats.allocs, 0);
    }

    #[test]
    fn rows_launch_scatters_each_output_to_its_row() {
        // Two outputs per element: sum with carry and a shifted copy — enough
        // to see the row-major scatter (out[j * cols + i]).
        let mut kb = KernelBuilder::new("pair");
        let a = kb.param("a", Ty::UInt(64));
        let b = kb.param("b", Ty::UInt(64));
        let carry = kb.local("carry", Ty::Flag);
        let sum = kb.output("sum", Ty::UInt(64));
        let double = kb.output("double", Ty::UInt(64));
        kb.push(
            vec![carry, sum],
            Op::AddWide {
                a: a.into(),
                b: b.into(),
                carry_in: None,
            },
        );
        kb.push(
            vec![double],
            Op::MulLow {
                a: a.into(),
                b: moma_ir::Operand::Const(2),
            },
        );
        let compiled = CompiledKernel::compile(&kb.build()).unwrap();
        let cols = 333; // deliberately not a multiple of any worker count
        let inputs: Vec<[u64; 2]> = (0..cols).map(|i| [i as u64 * 3, i as u64 + 7]).collect();
        let mut out = vec![0u64; 2 * cols];
        let stats = launch_compiled_rows(&compiled, &mut out, cols, |p, lo, lanes| {
            for (e, lane) in lanes.iter_mut().enumerate() {
                *lane = inputs[lo + e][p];
            }
        });
        assert_eq!(stats.threads, cols);
        assert_eq!(stats.launches, 1);
        assert_eq!(stats.allocs, 0, "rows launches write in place");
        let flat: Vec<u64> = inputs.iter().flatten().copied().collect();
        let (oracle, _) = launch_compiled_batch(&compiled, &flat);
        for i in 0..cols {
            assert_eq!(out[i], oracle[2 * i], "row 0 element {i}");
            assert_eq!(out[cols + i], oracle[2 * i + 1], "row 1 element {i}");
        }
        let mut empty: [u64; 0] = [];
        let stats =
            launch_compiled_rows(&compiled, &mut empty, 0, |_, _, _| panic!("must not run"));
        assert_eq!(stats.threads, 0);
    }

    #[test]
    #[should_panic(expected = "output length")]
    fn rows_launch_rejects_mismatched_output_length() {
        let mut kb = KernelBuilder::new("copy");
        let a = kb.param("a", Ty::UInt(64));
        let o = kb.output("o", Ty::UInt(64));
        kb.push(vec![o], Op::Copy { src: a.into() });
        let compiled = CompiledKernel::compile(&kb.build()).unwrap();
        launch_compiled_rows(&compiled, &mut [0u64; 5], 4, |_, _, _| {});
    }

    #[test]
    fn both_compiled_launches_share_one_thread_local_frame() {
        // `times3` and `times5` have the same register layout and differ only
        // in their constant: a frame that kept the other kernel's constant
        // would show up as a wrong multiple. One-element launches run on the
        // calling thread, so they hand its one frame back and forth; the
        // larger ones cross lane blocks on every worker.
        let build = |name: &str, k: u64| {
            let mut kb = KernelBuilder::new(name);
            let a = kb.param("a", Ty::UInt(64));
            let o = kb.output("o", Ty::UInt(64));
            kb.push(
                vec![o],
                Op::MulLow {
                    a: a.into(),
                    b: moma_ir::Operand::Const(k),
                },
            );
            CompiledKernel::compile(&kb.build()).unwrap()
        };
        let (k3, k5) = (build("times3", 3), build("times5", 5));
        for n in [1, 2 * LANE_BLOCK + 3] {
            let xs: Vec<u64> = (0..n as u64).map(|i| i + 10).collect();
            for k in [3, 5, 3] {
                let out = if k == 3 {
                    launch_compiled_batch(&k3, &xs).0
                } else {
                    let mut out = vec![0; n];
                    launch_compiled_rows(&k5, &mut out, n, |_, lo, lanes| {
                        lanes.copy_from_slice(&xs[lo..lo + lanes.len()]);
                    });
                    out
                };
                let want: Vec<u64> = xs.iter().map(|x| x * k).collect();
                assert_eq!(out, want, "times{k} over {n} elements");
            }
        }
    }

    #[test]
    fn launch_stats_count_launches() {
        let mut total = LaunchStats::default();
        assert_eq!(total.launches, 0);
        total.accumulate(launch_indexed(8, |_| {}));
        total.accumulate(launch_indexed(8, |_| {}));
        assert_eq!(total.launches, 2);
        assert_eq!(total.threads, 16);
    }

    #[test]
    fn compiled_launch_matches_the_interpreter_oracle() {
        let mut kb = KernelBuilder::new("modmul");
        let a = kb.param("a", Ty::UInt(64));
        let b = kb.param("b", Ty::UInt(64));
        let q = kb.param("q", Ty::UInt(64));
        let p = kb.output("p", Ty::UInt(64));
        kb.push(
            vec![p],
            Op::MulModBarrett {
                a: a.into(),
                b: b.into(),
                q: q.into(),
                mu: moma_ir::Operand::Const(0),
                mbits: 31,
            },
        );
        let kernel = kb.build();
        let compiled = CompiledKernel::compile(&kernel).unwrap();
        let feed = |i: usize| [i as u64 * 77, i as u64 * 131 + 5, 2_147_483_647];
        let flat: Vec<u64> = (0..256).flat_map(feed).collect();
        let (outputs, _) = launch_compiled_batch(&compiled, &flat);
        for (i, out) in outputs.iter().enumerate() {
            let oracle = interp::run(&kernel, &feed(i)).unwrap();
            assert_eq!(oracle.outputs.len(), 1);
            assert_eq!(*out, oracle.outputs[0], "element {i}");
        }
    }
}
