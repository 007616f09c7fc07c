//! `Session` — one cached, typed entry point for plans, kernels, and fused RNS
//! chains, shareable across any number of threads.
//!
//! The paper's discipline is *compile once, execute many*: kernels are generated
//! per (operation, bit-width) and reused across launches, and every runtime
//! subsystem in this reproduction has its own precompute-once object —
//! [`NttPlan64`]/[`NttPlan`], [`RnsPlan`], [`BaseConvPlan`], [`RescalePlan`],
//! [`RescaleExtendPlan`], `CompiledKernel`. Before this module, callers had to
//! hand-assemble those objects and compile chain kernels by hand. A
//! [`Session`] is the one owner of all of them:
//!
//! * it owns a device ([`DeviceSpec`]) and the [`CostModel`] derived from it,
//!   which prices the modelled paper-figure estimates;
//! * it owns a *generated-kernel* cache (keyed by operation, bit-width, and
//!   multiplication algorithm) and a *fused-chain* cache of compiled all-rows
//!   RNS kernels ([`moma_ir::KernelCache`], keyed by chain shape and basis);
//! * it owns plan caches: [`NttPlan64`] keyed by `(q, n)`, multi-word
//!   [`NttPlan`] keyed by `(limbs, bits, n)`, [`RnsPlan`] keyed by basis,
//!   [`BaseConvPlan`]/[`RescaleExtendPlan`] keyed by basis pair, and
//!   [`RescalePlan`] keyed by basis.
//!
//! Every `get_or_build` is **hit-counted** ([`Session::stats`]), so reuse is a
//! testable property, not a hope: the second request for any plan or kernel
//! builds nothing.
//!
//! # Sharing and concurrency
//!
//! `Session` is a cheap handle: [`Session::clone`] shares one cache state (the
//! expensive tables live behind an internal [`Arc`]), every method takes
//! `&self`, and the session and all of its handles are `Send + Sync + 'static`
//! (statically asserted below). A warm session can therefore be hit from any
//! number of threads, and the handles it gives out — [`NttSpace`],
//! [`RnsSpace`], [`RnsVec`] — are *owned*: they can cross threads, sit in a
//! request queue, or live inside a server for as long as they like.
//!
//! Concurrent cache access is stampede-controlled: an expensive build (say, the
//! twiddle tables of an `n = 2^14` NTT plan) runs **outside** the cache map
//! lock. Concurrent requests for the *same* key still build exactly once — the
//! first requester claims the key and later ones block on that one build
//! (counted in [`CacheStats::contended`]) — while requests for *different* keys
//! build in parallel, never serializing behind each other. A builder that
//! panics unclaims its key and wakes the waiters, so one poisoned build cannot
//! wedge a long-lived serving session.
//!
//! ```
//! use moma::Session;
//!
//! let session = Session::default();
//! let worker = session.clone(); // shares the same caches
//! std::thread::spawn(move || {
//!     let ntt = worker.ntt_default(64); // an owned, Send + 'static handle
//!     assert_eq!(ntt.n(), 64);
//! })
//! .join()
//! .unwrap();
//! // The spawned thread's build is visible here: the same plan is a cache hit.
//! let _ = session.ntt_default(64);
//! assert_eq!(session.stats().ntt.misses, 1);
//! assert_eq!(session.stats().ntt.hits, 1);
//! ```
//!
//! On top of the caches sit typed handles: [`Session::rns`] yields an
//! [`RnsSpace`] whose [`RnsVec`]s chain `add`/`mul`/`axpy`/`base_convert`/
//! `rescale`/[`RnsVec::rescale_then_extend`] (the fused BEHZ `FastBConvSK`
//! chain) — each on the one production path of its [`RnsPlan`] operation — and
//! [`Session::ntt`] yields an [`NttSpace`] whose
//! [`NttSpace::forward_batch`] runs many transforms in one launch, one block
//! per transform — the GPU FHE libraries' batched NTT.
//!
//! # Example
//!
//! ```
//! use moma::bignum::BigUint;
//! use moma::Session;
//!
//! let session = Session::default();
//! let src = session.rns_with_capacity(128);
//! // Chain: elementwise multiply, then the fused rescale-and-extend.
//! let a = src.encode(&[BigUint::from(7u64), BigUint::from(11u64)]);
//! let b = src.encode(&[BigUint::from(5u64), BigUint::from(3u64)]);
//! let extended = a.mul(&b).rescale_then_extend(&src);
//! assert_eq!(extended.len(), 2);
//! // The second identical chain hits every cache.
//! let before = session.stats().rescale_extend.misses;
//! let _ = a.mul(&b).rescale_then_extend(&src);
//! assert_eq!(session.stats().rescale_extend.misses, before);
//! ```

use crate::compiler::{Compiler, GeneratedKernel};
use crate::engine::Series;
use moma_bignum::BigUint;
use moma_blas::BlasOp;
use moma_gpu::launch::LaunchStats;
use moma_gpu::pool::{BufferPool, PoolStats};
use moma_gpu::{CostModel, DeviceSpec};
use moma_ir::cache::{KernelCache, KernelCacheKey};
use moma_ir::compiled::CompiledKernel;
use moma_ir::cost::OpCounts;
use moma_ntt::plan::{NttPlan, NttPlan64};
use moma_rewrite::{KernelOp, KernelSpec, LoweringConfig, MulAlgorithm};
use moma_ring::{Domain, RingContext, RingElt, RingPlanSource};
use moma_rns::{BaseConvPlan, RescaleExtendPlan, RescalePlan, RnsContext, RnsMatrix, RnsPlan};
use std::any::Any;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Hit/miss counters of one session cache (a snapshot; see [`Session::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Requests served from the cache.
    pub hits: u64,
    /// Requests that had to build.
    pub misses: u64,
    /// Requests that blocked on another thread's in-flight build of the same
    /// key (each is also counted as a hit once the build publishes). Contention
    /// on *different* keys never happens by construction — builds run outside
    /// the map lock.
    pub contended: u64,
}

/// Snapshot of every session cache's hit/miss counters.
///
/// Tests assert reuse with these: after a warm-up call, an identical request
/// must increment only `hits`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Generated-kernel cache (op, bit-width, multiplication algorithm).
    pub generated: CacheStats,
    /// Compiled per-modulus kernel cache (op, width, modulus). No execution
    /// path fills it — the RNS chains compile into `fused` — so it always
    /// reads zero.
    pub kernels: CacheStats,
    /// Single-word NTT plans, keyed by `(q, n)`.
    pub ntt: CacheStats,
    /// Negacyclic single-word NTT plans (`ψ`-twisted), keyed by `(q, n)` —
    /// separate from `ntt` so a ladder's reuse is observable on its own
    /// counters (and the two plan shapes can never collide on a key).
    pub ntt_negacyclic: CacheStats,
    /// Multi-word NTT plans, keyed by `(limbs, bits, n)`.
    pub ntt_multiword: CacheStats,
    /// RNS plans, keyed by basis.
    pub rns: CacheStats,
    /// Base-conversion plans, keyed by basis pair.
    pub baseconv: CacheStats,
    /// Rescale plans, keyed by basis.
    pub rescale: CacheStats,
    /// Fused rescale-and-extend plans, keyed by basis pair.
    pub rescale_extend: CacheStats,
    /// Negacyclic ring contexts, keyed by `(n, moduli ladder)`. A context is
    /// assembled from the other caches, so a ring miss still reuses every
    /// shared plan underneath it.
    pub ring: CacheStats,
    /// Compiled all-rows fused chain kernels — base conversion, `mul→axpy`,
    /// `mul→rescale→extend` — keyed by basis (pair). One entry per chain
    /// *shape*: scalars and operands are kernel parameters, so a second
    /// identical chain request is all hits.
    pub fused: CacheStats,
    /// The session buffer pool's counters: once the pool is warm, a
    /// steady-state serving loop must report zero further misses — the
    /// allocation-free property tests assert.
    pub pool: PoolStats,
}

/// Locks a mutex, recovering the guard if a previous holder panicked.
///
/// Session caches only ever hold fully constructed `Arc`s, and every multi-step
/// update happens outside the lock, so the data behind a poisoned lock is
/// always valid — a panicked builder thread must not wedge a long-lived
/// serving session.
pub(crate) fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One cache slot: the in-flight or finished result of a single keyed build.
enum SlotState<V: ?Sized> {
    /// The claiming thread is running the builder outside the map lock.
    Building,
    /// The published result.
    Ready(Arc<V>),
    /// The builder panicked and unclaimed the key; waiters retry the lookup.
    Failed,
}

struct Slot<V: ?Sized> {
    state: Mutex<SlotState<V>>,
    ready: Condvar,
}

impl<V: ?Sized> Slot<V> {
    fn new() -> Self {
        Slot {
            state: Mutex::new(SlotState::Building),
            ready: Condvar::new(),
        }
    }
}

/// A hit-counted `get_or_build` map with per-key stampede control.
///
/// The map lock is held only to *find or claim* a slot — never while building.
/// Concurrent requests for the same key build exactly once (later requesters
/// block on the claimant's slot); requests for different keys build fully in
/// parallel. A panicking builder unclaims its key (the slot is removed and its
/// waiters woken to retry), so no panic leaves the cache wedged.
pub(crate) struct PlanCache<K, V: ?Sized> {
    map: Mutex<HashMap<K, Arc<Slot<V>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    contended: AtomicU64,
}

impl<K: std::hash::Hash + Eq, V: ?Sized> Default for PlanCache<K, V> {
    fn default() -> Self {
        PlanCache {
            map: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            contended: AtomicU64::new(0),
        }
    }
}

/// Removes a claimed-but-unpublished key when the builder unwinds, marking the
/// slot failed and waking its waiters so they can retry (and re-claim) instead
/// of blocking forever.
struct UnclaimOnPanic<'a, K: std::hash::Hash + Eq + Clone, V: ?Sized> {
    cache: &'a PlanCache<K, V>,
    key: &'a K,
    slot: &'a Arc<Slot<V>>,
    armed: bool,
}

impl<K: std::hash::Hash + Eq + Clone, V: ?Sized> Drop for UnclaimOnPanic<'_, K, V> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut map = lock_unpoisoned(&self.cache.map);
        if map
            .get(self.key)
            .is_some_and(|slot| Arc::ptr_eq(slot, self.slot))
        {
            map.remove(self.key);
        }
        drop(map);
        *lock_unpoisoned(&self.slot.state) = SlotState::Failed;
        self.slot.ready.notify_all();
    }
}

impl<K: std::hash::Hash + Eq + Clone, V: ?Sized> PlanCache<K, V> {
    pub(crate) fn get_or_build(&self, key: K, build: impl FnOnce() -> Arc<V>) -> Arc<V> {
        loop {
            // Hold the map lock only long enough to find or claim the slot.
            let claimed = {
                let mut map = lock_unpoisoned(&self.map);
                match map.entry(key.clone()) {
                    Entry::Occupied(entry) => Err(Arc::clone(entry.get())),
                    Entry::Vacant(entry) => Ok(Arc::clone(entry.insert(Arc::new(Slot::new())))),
                }
            };
            match claimed {
                Ok(slot) => {
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    let mut guard = UnclaimOnPanic {
                        cache: self,
                        key: &key,
                        slot: &slot,
                        armed: true,
                    };
                    let built = build();
                    guard.armed = false;
                    *lock_unpoisoned(&slot.state) = SlotState::Ready(Arc::clone(&built));
                    slot.ready.notify_all();
                    return built;
                }
                Err(slot) => {
                    let mut state = lock_unpoisoned(&slot.state);
                    if matches!(*state, SlotState::Building) {
                        self.contended.fetch_add(1, Ordering::Relaxed);
                        while matches!(*state, SlotState::Building) {
                            state = slot
                                .ready
                                .wait(state)
                                .unwrap_or_else(PoisonError::into_inner);
                        }
                    }
                    match &*state {
                        SlotState::Ready(value) => {
                            self.hits.fetch_add(1, Ordering::Relaxed);
                            return Arc::clone(value);
                        }
                        // The builder panicked; retry (possibly claiming the
                        // key ourselves this time).
                        SlotState::Failed => continue,
                        SlotState::Building => unreachable!("woken while still building"),
                    }
                }
            }
        }
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            contended: self.contended.load(Ordering::Relaxed),
        }
    }

    /// Every published entry, for snapshotting. In-flight builds are skipped —
    /// a snapshot taken mid-build simply omits that plan.
    pub(crate) fn entries(&self) -> Vec<(K, Arc<V>)> {
        let map = lock_unpoisoned(&self.map);
        map.iter()
            .filter_map(|(k, slot)| match &*lock_unpoisoned(&slot.state) {
                SlotState::Ready(value) => Some((k.clone(), Arc::clone(value))),
                _ => None,
            })
            .collect()
    }

    /// Publishes a prebuilt value under `key` unless the key is already
    /// present — the warm-start seeding path of [`Session::restore`]. Seeding
    /// counts as neither hit nor miss: the counters keep measuring what this
    /// process built or reused, not what a snapshot shipped in.
    pub(crate) fn seed(&self, key: K, value: Arc<V>) -> bool {
        let mut map = lock_unpoisoned(&self.map);
        match map.entry(key) {
            Entry::Occupied(_) => false,
            Entry::Vacant(entry) => {
                let slot = Arc::new(Slot::new());
                *lock_unpoisoned(&slot.state) = SlotState::Ready(value);
                entry.insert(slot);
                true
            }
        }
    }
}

/// Everything a session owns, shared by all of its clones. Crate-private: the
/// public surface is [`Session`], the cheap handle around it (the snapshot
/// module reaches in to serialize and seed the plan caches).
pub(crate) struct SessionState {
    device: DeviceSpec,
    compiler: Compiler,
    cost: CostModel,
    generated: PlanCache<(KernelOp, u32, MulAlgorithm), GeneratedKernel>,
    /// Compiled all-rows fused chain kernels (base conversion, `mul→axpy`,
    /// `mul→rescale→extend`), keyed by chain shape and basis.
    fused: KernelCache,
    pub(crate) ntt64: PlanCache<(u64, usize), NttPlan64>,
    /// Negacyclic (`ψ`-twisted) single-word plans — a separate cache from
    /// `ntt64` because the same `(q, n)` key legitimately names both a cyclic
    /// and a negacyclic plan.
    pub(crate) ntt64_neg: PlanCache<(u64, usize), NttPlan64>,
    pub(crate) ntt_mw: PlanCache<(u32, u32, usize), dyn Any + Send + Sync>,
    pub(crate) rns: PlanCache<Vec<u64>, RnsPlan>,
    /// Capacity-bits → deterministic basis memo, so repeated
    /// [`Session::rns_with_capacity`] calls skip the prime search (a plain memo,
    /// not a hit-counted plan cache: it holds no built plan).
    pub(crate) capacity_bases: Mutex<HashMap<u32, Vec<u64>>>,
    pub(crate) baseconv: PlanCache<(Vec<u64>, Vec<u64>), BaseConvPlan>,
    pub(crate) rescale: PlanCache<Vec<u64>, RescalePlan>,
    pub(crate) rescale_extend: PlanCache<(Vec<u64>, Vec<u64>), RescaleExtendPlan>,
    /// Negacyclic ring contexts, keyed by `(n, moduli ladder)`; the context
    /// plans are drawn from the caches above via [`RingPlanSource`].
    pub(crate) ring: PlanCache<(usize, Vec<u64>), RingContext>,
    /// Reusable residue/twiddle planes and launcher scratch, shared by every
    /// clone and every handle: hot-path operations acquire their working
    /// buffers here and recycle them on handle drop, so a warm session's
    /// steady state allocates nothing.
    pool: BufferPool,
}

/// The cached, typed entry point to the whole MoMA runtime (see the
/// [module docs](self)).
///
/// A `Session` is a cheap, clonable handle over shared cache state:
/// [`Session::clone`] gives another handle to the *same* caches, every method
/// takes `&self`, and the session and all handles it yields are
/// `Send + Sync + 'static` — one warm session serves any number of threads.
/// Construction is cheap; everything expensive is built on first use, cached,
/// and stampede-controlled (see the module docs).
#[derive(Clone)]
pub struct Session {
    pub(crate) state: Arc<SessionState>,
}

// Compile-time proof of the sharing contract: the session and every handle it
// yields cross threads and outlive any borrow.
const _: () = {
    const fn shareable<T: Send + Sync + 'static>() {}
    shareable::<Session>();
    shareable::<SessionStats>();
    shareable::<NttSpace>();
    shareable::<RnsSpace>();
    shareable::<RnsVec>();
    shareable::<RingSpace>();
    shareable::<RingVec>();
};

impl Default for Session {
    /// A session on the paper's primary device (H100) with the default
    /// lowering configuration.
    fn default() -> Self {
        Session::new(DeviceSpec::H100)
    }
}

impl Session {
    /// Creates a session for one device with the default lowering
    /// configuration.
    pub fn new(device: DeviceSpec) -> Self {
        Session::with_config(device, LoweringConfig::default())
    }

    /// Creates a session with an explicit lowering configuration (word width,
    /// multiplication algorithm, optimization switches).
    pub fn with_config(device: DeviceSpec, config: LoweringConfig) -> Self {
        Session {
            state: Arc::new(SessionState {
                device,
                compiler: Compiler::new(config),
                cost: CostModel::new(device),
                generated: PlanCache::default(),
                fused: KernelCache::new(),
                ntt64: PlanCache::default(),
                ntt64_neg: PlanCache::default(),
                ntt_mw: PlanCache::default(),
                rns: PlanCache::default(),
                capacity_bases: Mutex::new(HashMap::new()),
                baseconv: PlanCache::default(),
                rescale: PlanCache::default(),
                rescale_extend: PlanCache::default(),
                ring: PlanCache::default(),
                pool: BufferPool::new(),
            }),
        }
    }

    /// Returns `true` if `other` shares this session's cache state (i.e. one is
    /// a clone of the other).
    pub fn shares_state_with(&self, other: &Session) -> bool {
        Arc::ptr_eq(&self.state, &other.state)
    }

    /// The device this session models.
    pub fn device(&self) -> DeviceSpec {
        self.state.device
    }

    /// The cost model behind the session's modelled estimates.
    pub fn cost_model(&self) -> &CostModel {
        &self.state.cost
    }

    /// The session's shared buffer pool: residue planes and launcher scratch
    /// are acquired here by every hot-path operation and recycled when their
    /// owning handle drops. Servers can route their own transient buffers
    /// through it too, keeping the whole request path allocation-free once
    /// warm.
    pub fn pool(&self) -> &BufferPool {
        &self.state.pool
    }

    /// Snapshot of every cache's hit/miss counters.
    pub fn stats(&self) -> SessionStats {
        SessionStats {
            generated: self.state.generated.stats(),
            kernels: CacheStats::default(),
            ntt: self.state.ntt64.stats(),
            ntt_negacyclic: self.state.ntt64_neg.stats(),
            ntt_multiword: self.state.ntt_mw.stats(),
            rns: self.state.rns.stats(),
            baseconv: self.state.baseconv.stats(),
            rescale: self.state.rescale.stats(),
            rescale_extend: self.state.rescale_extend.stats(),
            ring: self.state.ring.stats(),
            fused: CacheStats {
                hits: self.state.fused.hits(),
                misses: self.state.fused.misses(),
                contended: 0,
            },
            pool: self.state.pool.stats(),
        }
    }

    // ------------------------------------------------------------------
    // Generated kernels and modelled estimates
    // ------------------------------------------------------------------

    /// Generates (or returns the cached) kernel for `spec` under the session's
    /// lowering configuration.
    pub fn compile(&self, spec: &KernelSpec) -> Arc<GeneratedKernel> {
        self.compile_with_algorithm(spec, self.state.compiler.config.mul_algorithm)
    }

    /// Like [`Session::compile`], with an explicit multiplication algorithm
    /// (the §5.4 ablation axis) — part of the generated-kernel cache key.
    pub fn compile_with_algorithm(
        &self,
        spec: &KernelSpec,
        alg: MulAlgorithm,
    ) -> Arc<GeneratedKernel> {
        let state = &self.state;
        state.generated.get_or_build((spec.op, spec.bits, alg), || {
            let compiler = Compiler::new(LoweringConfig {
                mul_algorithm: alg,
                ..state.compiler.config
            });
            Arc::new(compiler.compile(spec))
        })
    }

    /// Word-level operation counts of one generated butterfly at a bit-width
    /// (cached).
    pub fn butterfly_op_counts(&self, bits: u32, alg: MulAlgorithm) -> OpCounts {
        self.compile_with_algorithm(&KernelSpec::new(KernelOp::Butterfly, bits), alg)
            .op_counts
            .clone()
    }

    /// Word-level operation counts of one generated BLAS element kernel
    /// (cached).
    pub fn blas_op_counts(&self, op: KernelOp, bits: u32, alg: MulAlgorithm) -> OpCounts {
        self.compile_with_algorithm(&KernelSpec::new(op, bits), alg)
            .op_counts
            .clone()
    }

    /// Modelled NTT runtime per butterfly (nanoseconds) on a device — the
    /// y-axis of the paper's Figures 1, 3, and 4. The generated butterfly is
    /// compiled once per (bit-width, algorithm) and shared across devices.
    pub fn modelled_ntt_ns_per_butterfly(
        &self,
        device: DeviceSpec,
        bits: u32,
        log2_n: u32,
        alg: MulAlgorithm,
    ) -> f64 {
        let counts = self.butterfly_op_counts(bits, alg);
        CostModel::new(device).ntt_time_per_butterfly_ns(&counts, 1u64 << log2_n, bits)
    }

    /// Modelled BLAS runtime per element (nanoseconds) on a device — the
    /// y-axis of the paper's Figure 2.
    pub fn modelled_blas_ns_per_element(
        &self,
        device: DeviceSpec,
        op: KernelOp,
        bits: u32,
        elements: u64,
    ) -> f64 {
        let counts = self.blas_op_counts(op, bits, MulAlgorithm::Schoolbook);
        // Each element reads two operands and writes one result.
        let bytes = 3 * (bits as u64 / 8);
        let est = CostModel::new(device).estimate_launch(&counts, elements, bytes);
        est.nanos() / elements as f64
    }

    /// Builds the modelled MoMA series for one NTT figure panel (one bit-width,
    /// a range of transform sizes) across the three paper devices, off the
    /// shared generated-kernel cache.
    pub fn ntt_series(&self, bits: u32, log_sizes: &[u32], alg: MulAlgorithm) -> Vec<Series> {
        DeviceSpec::all()
            .iter()
            .map(|device| Series {
                system: "MoMA (modelled)".to_string(),
                platform: device.name.to_string(),
                points: log_sizes
                    .iter()
                    .map(|&log_n| {
                        (
                            log_n,
                            self.modelled_ntt_ns_per_butterfly(*device, bits, log_n, alg),
                        )
                    })
                    .collect(),
            })
            .collect()
    }

    // ------------------------------------------------------------------
    // NTT spaces
    // ------------------------------------------------------------------

    /// The `n`-point single-word NTT space over the prime modulus `q`,
    /// building (or reusing) the `(q, n)`-keyed [`NttPlan64`]. The returned
    /// handle is owned (`Send + 'static`): it can cross threads or sit in a
    /// queue, and keeps the session's caches alive.
    ///
    /// # Panics
    ///
    /// Panics under the [`moma_ntt::Ntt64::with_modulus`] conditions (n not a
    /// power of two, q not an NTT-friendly prime below `2^60`). A concurrent
    /// request that loses the build race to a panicking builder retries and
    /// panics the same way.
    pub fn ntt(&self, q: u64, n: usize) -> NttSpace {
        NttSpace {
            session: self.clone(),
            plan: self
                .state
                .ntt64
                .get_or_build((q, n), || Arc::new(NttPlan64::with_modulus(q, n))),
        }
    }

    /// The `n`-point *negacyclic* NTT space over `q` (the `X^n + 1` transform:
    /// `ψ`-twist folded into both directions), building (or reusing) the
    /// `(q, n)`-keyed plan in its own cache. The handle's batched entry points
    /// work unchanged — the twist lives entirely inside the plan.
    ///
    /// # Panics
    ///
    /// Panics under the [`NttPlan64::negacyclic`] conditions (n not a power of
    /// two, q not a prime `≡ 1 (mod 2n)` below `2^60`).
    pub fn ntt_negacyclic(&self, q: u64, n: usize) -> NttSpace {
        NttSpace {
            session: self.clone(),
            plan: self.negacyclic_plan_for(q, n),
        }
    }

    fn negacyclic_plan_for(&self, q: u64, n: usize) -> Arc<NttPlan64> {
        self.state
            .ntt64_neg
            .get_or_build((q, n), || Arc::new(NttPlan64::negacyclic(q, n)))
    }

    /// The `n`-point NTT space over the paper's 60-bit evaluation modulus.
    pub fn ntt_default(&self, n: usize) -> NttSpace {
        let q = moma_ntt::params::paper_modulus(64)
            .to_u64()
            .expect("60-bit modulus");
        self.ntt(q, n)
    }

    /// The cached `n`-point multi-word NTT plan for `bits`-bit kernels over
    /// `L` limbs, keyed by `(L, bits, n)`.
    ///
    /// # Panics
    ///
    /// Panics under the [`moma_ntt::NttParams::for_paper_modulus`] conditions.
    pub fn ntt_multiword<const L: usize>(&self, bits: u32, n: usize) -> Arc<NttPlan<L>> {
        let alg = match self.state.compiler.config.mul_algorithm {
            MulAlgorithm::Schoolbook => moma_mp::MulAlgorithm::Schoolbook,
            MulAlgorithm::Karatsuba => moma_mp::MulAlgorithm::Karatsuba,
        };
        let plan = self.state.ntt_mw.get_or_build((L as u32, bits, n), || {
            Arc::new(NttPlan::<L>::for_paper_modulus(n, bits, alg))
        });
        plan.downcast::<NttPlan<L>>()
            .unwrap_or_else(|_| unreachable!("multi-word plan cache key includes the limb count"))
    }

    // ------------------------------------------------------------------
    // RNS spaces and chain plans
    // ------------------------------------------------------------------

    /// The RNS space over an explicit basis of distinct word-sized primes,
    /// building (or reusing) the basis-keyed [`RnsPlan`]. The returned handle
    /// is owned (`Send + 'static`), like every session handle.
    ///
    /// # Panics
    ///
    /// Panics under the [`RnsContext::with_moduli`] conditions (composite,
    /// duplicate, or oversized moduli).
    pub fn rns(&self, moduli: &[u64]) -> RnsSpace {
        RnsSpace {
            plan: self.rns_plan(moduli),
            session: self.clone(),
        }
    }

    /// The RNS space over the deterministic basis covering at least `bits`
    /// bits of dynamic range (same basis as [`RnsContext::with_capacity_bits`]).
    pub fn rns_with_capacity(&self, bits: u32) -> RnsSpace {
        // Memoize capacity → basis so repeated requests skip the deterministic
        // prime search entirely; the plan itself then comes from (or seeds) the
        // basis-keyed cache.
        let mut built_ctx = None;
        let moduli = {
            let mut memo = lock_unpoisoned(&self.state.capacity_bases);
            memo.entry(bits)
                .or_insert_with(|| {
                    let ctx = RnsContext::with_capacity_bits(bits);
                    let moduli = ctx.moduli().to_vec();
                    built_ctx = Some(ctx);
                    moduli
                })
                .clone()
        };
        RnsSpace {
            plan: self.state.rns.get_or_build(moduli, || {
                let ctx = built_ctx.unwrap_or_else(|| RnsContext::with_capacity_bits(bits));
                Arc::new(RnsPlan::new(&ctx))
            }),
            session: self.clone(),
        }
    }

    fn rns_plan(&self, moduli: &[u64]) -> Arc<RnsPlan> {
        self.state.rns.get_or_build(moduli.to_vec(), || {
            Arc::new(RnsPlan::new(&RnsContext::with_moduli(moduli)))
        })
    }

    // ------------------------------------------------------------------
    // Negacyclic rings
    // ------------------------------------------------------------------

    /// The negacyclic ring `R_Q = Z_Q[X]/(X^n + 1)` over the moduli ladder
    /// `Q = q₀·…·q_L`, building (or reusing) the `(n, ladder)`-keyed
    /// [`RingContext`]. The context is assembled through the session's plan
    /// caches ([`RingPlanSource`]), so its negacyclic NTT plans, per-level RNS
    /// plans, and fused rescale steps are all shared with any other ring — or
    /// direct space — over the same parameters.
    ///
    /// # Panics
    ///
    /// Panics under the [`RingContext::with_source`] conditions (n not a power
    /// of two, a modulus not prime or not `≡ 1 (mod 2n)`).
    pub fn ring(&self, n: usize, moduli: &[u64]) -> RingSpace {
        RingSpace {
            ring: self.ring_context(n, moduli),
            session: self.clone(),
        }
    }

    pub(crate) fn ring_context(&self, n: usize, moduli: &[u64]) -> Arc<RingContext> {
        self.state.ring.get_or_build((n, moduli.to_vec()), || {
            Arc::new(RingContext::with_source(n, moduli, self))
        })
    }

    fn baseconv_plan(&self, src: &Arc<RnsPlan>, dst: &Arc<RnsPlan>) -> Arc<BaseConvPlan> {
        let key = (src.moduli().collect(), dst.moduli().collect());
        self.state
            .baseconv
            .get_or_build(key, || Arc::new(BaseConvPlan::new(src, dst)))
    }

    fn rescale_plan_for(&self, src: &Arc<RnsPlan>) -> Arc<RescalePlan> {
        self.state
            .rescale
            .get_or_build(src.moduli().collect(), || Arc::new(src.rescale_plan()))
    }

    fn rescale_extend_plan_for(
        &self,
        src: &Arc<RnsPlan>,
        dst: &Arc<RnsPlan>,
    ) -> Arc<RescaleExtendPlan> {
        let key = (src.moduli().collect(), dst.moduli().collect());
        self.state
            .rescale_extend
            .get_or_build(key, || Arc::new(src.rescale_extend_plan(dst)))
    }

    /// The compiled all-rows fused conversion kernel of `bc`
    /// ([`BaseConvPlan::fused_kernel_ir`]), served from the session's
    /// fused-chain kernel cache under a basis-pair key.
    fn baseconv_fused_kernel(&self, bc: &BaseConvPlan, src: &RnsPlan) -> Arc<CompiledKernel> {
        let op = format!(
            "baseconv_fused[{}->{}]",
            basis_key(src),
            basis_key(bc.dst_plan())
        );
        self.state
            .fused
            .get_or_compile(KernelCacheKey::new(op, 64, 0), || bc.fused_kernel_ir())
            .expect("generated fused conversion kernel compiles")
    }

    /// The compiled all-rows `mul→axpy` chain kernel of a basis
    /// ([`RnsPlan::mul_axpy_kernel_ir`]). The scalar is a kernel *parameter*,
    /// so one cache entry serves every scalar over the basis.
    fn mul_axpy_kernel(&self, plan: &RnsPlan) -> Arc<CompiledKernel> {
        let op = format!("mul_axpy_fused[{}]", basis_key(plan));
        self.state
            .fused
            .get_or_compile(KernelCacheKey::new(op, 64, 0), || plan.mul_axpy_kernel_ir())
            .expect("generated fused chain kernel compiles")
    }

    /// The compiled all-rows `mul→rescale→extend` chain kernel of a basis pair
    /// ([`RescaleExtendPlan::mul_fused_kernel_ir`]).
    fn mul_rescale_extend_kernel(
        &self,
        p: &RescaleExtendPlan,
        src: &RnsPlan,
    ) -> Arc<CompiledKernel> {
        let op = format!(
            "mul_rescale_extend_fused[{}->{}]",
            basis_key(src),
            basis_key(p.dst_plan())
        );
        self.state
            .fused
            .get_or_compile(KernelCacheKey::new(op, 64, 0), || p.mul_fused_kernel_ir())
            .expect("generated fused chain kernel compiles")
    }
}

/// Hex-joined basis moduli — the verbatim basis component of fused-kernel
/// cache keys (two bases must never share a key; a hash could collide).
fn basis_key(plan: &RnsPlan) -> String {
    plan.moduli()
        .map(|m| format!("{m:x}"))
        .collect::<Vec<_>>()
        .join(",")
}

// ----------------------------------------------------------------------
// Typed handles
// ----------------------------------------------------------------------

/// An `n`-point single-word NTT space handed out by [`Session::ntt`] — a cached
/// [`NttPlan64`] plus the batched launcher entry points.
///
/// The handle is owned (`Send + Sync + 'static`): it holds its own [`Session`]
/// clone, so it can cross threads or sit in a request queue for as long as it
/// likes.
#[derive(Clone)]
pub struct NttSpace {
    session: Session,
    plan: Arc<NttPlan64>,
}

impl NttSpace {
    /// The session this space was handed out by (shares its caches).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The underlying cached plan (for launcher-level access).
    pub fn plan(&self) -> &NttPlan64 {
        &self.plan
    }

    /// Transform size.
    pub fn n(&self) -> usize {
        self.plan.n
    }

    /// The modulus of the coefficient ring.
    pub fn modulus(&self) -> u64 {
        self.plan.ctx.q
    }

    /// In-place forward transform on the inline hot path (Shoup multiplication,
    /// lazy reduction). Inputs must be reduced; outputs are reduced.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.n()`.
    pub fn forward(&self, data: &mut [u64]) {
        self.plan.forward(data);
    }

    /// In-place inverse transform (with `1/n` scaling) on the inline hot path.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.n()`.
    pub fn inverse(&self, data: &mut [u64]) {
        self.plan.inverse(data);
    }

    /// Forward-transforms `data.len() / n` transforms in place in one launch,
    /// one block per transform, each running the plan's inline transform — the
    /// launch count of the returned statistics is 1 however large the batch
    /// is. The transform needs no working plane (`allocs == 0`).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a non-zero multiple of `self.n()`.
    pub fn forward_batch(&self, data: &mut [u64]) -> LaunchStats {
        self.plan
            .forward_batch_on_launcher_pooled(data, &self.session.state.pool)
    }

    /// Inverse counterpart of [`NttSpace::forward_batch`] (with `1/n` scaling).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a non-zero multiple of `self.n()`.
    pub fn inverse_batch(&self, data: &mut [u64]) -> LaunchStats {
        self.plan
            .inverse_batch_on_launcher_pooled(data, &self.session.state.pool)
    }
}

/// An RNS space (a basis of word-sized primes) handed out by [`Session::rns`]:
/// the factory for [`RnsVec`]s over the session's cached [`RnsPlan`].
///
/// Owned like every session handle: `Send + Sync + 'static`, cheap to clone.
#[derive(Clone)]
pub struct RnsSpace {
    session: Session,
    plan: Arc<RnsPlan>,
}

impl RnsSpace {
    /// The session this space was handed out by (shares its caches).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The underlying cached plan.
    pub fn plan(&self) -> &RnsPlan {
        &self.plan
    }

    /// The basis moduli, in basis order.
    pub fn moduli(&self) -> Vec<u64> {
        self.plan.moduli().collect()
    }

    /// The basis product (the dynamic range).
    pub fn product(&self) -> &BigUint {
        self.plan.product()
    }

    /// Encodes positional integers into a residue vector over this space. The
    /// residue plane comes from the session pool and flows back into it when
    /// the vector drops.
    ///
    /// # Panics
    ///
    /// Panics if any value is not below the dynamic range.
    pub fn encode(&self, values: &[BigUint]) -> RnsVec {
        RnsVec {
            matrix: RnsMatrix::from_biguints(&self.plan, values, &self.session.state.pool),
            session: self.session.clone(),
            plan: Arc::clone(&self.plan),
        }
    }

    /// The session-cached conversion plan from this space's basis into `dst`'s
    /// (for launcher-level measurement; [`RnsVec::base_convert`] uses it
    /// implicitly).
    pub fn conversion_to(&self, dst: &RnsSpace) -> Arc<BaseConvPlan> {
        self.session.baseconv_plan(&self.plan, &dst.plan)
    }

    /// The session-cached rescale plan for this space's basis.
    ///
    /// # Panics
    ///
    /// Panics if the basis has fewer than two moduli.
    pub fn rescale_plan(&self) -> Arc<RescalePlan> {
        self.session.rescale_plan_for(&self.plan)
    }

    /// The session-cached fused rescale-and-extend plan into `dst`'s basis.
    ///
    /// # Panics
    ///
    /// Panics if the basis has fewer than two moduli.
    pub fn rescale_extend_to(&self, dst: &RnsSpace) -> Arc<RescaleExtendPlan> {
        self.session.rescale_extend_plan_for(&self.plan, &dst.plan)
    }

    /// Wraps an existing residue matrix (over this space's basis) in a vector
    /// handle.
    ///
    /// # Panics
    ///
    /// Panics if the matrix shape does not match the basis.
    pub fn wrap(&self, matrix: RnsMatrix) -> RnsVec {
        assert_eq!(
            matrix.row_count(),
            self.plan.moduli_count(),
            "matrix basis mismatch"
        );
        RnsVec {
            session: self.session.clone(),
            plan: Arc::clone(&self.plan),
            matrix,
        }
    }
}

/// A vector of big integers in residue form over a session-cached basis, with
/// chainable operations. Every operation routes through the session's plan and
/// kernel caches to the one production entry point of its [`RnsPlan`]
/// operation.
///
/// Owned like every session handle: a vector encoded on one thread can be
/// moved to (or shared with) another and operated on there.
///
/// The residue plane lives on the session [`BufferPool`]: it was acquired
/// there (by `encode` or by the operation that produced this vector) and
/// [`Drop`] recycles it, so chained operations on a warm session allocate
/// nothing. `Clone` copies into another pooled plane.
pub struct RnsVec {
    session: Session,
    plan: Arc<RnsPlan>,
    matrix: RnsMatrix,
}

impl Clone for RnsVec {
    fn clone(&self) -> Self {
        RnsVec {
            matrix: self.matrix.clone_with_pool(&self.session.state.pool),
            session: self.session.clone(),
            plan: Arc::clone(&self.plan),
        }
    }
}

impl Drop for RnsVec {
    /// Hands the residue plane back to the session pool instead of the
    /// allocator — the recycle half of the pooled lifecycle.
    fn drop(&mut self) {
        self.session.state.pool.recycle(self.matrix.take_storage());
    }
}

impl RnsVec {
    /// Number of elements.
    pub fn len(&self) -> usize {
        self.matrix.len()
    }

    /// Returns `true` if the vector holds no elements.
    pub fn is_empty(&self) -> bool {
        self.matrix.is_empty()
    }

    /// The underlying residue matrix.
    pub fn matrix(&self) -> &RnsMatrix {
        &self.matrix
    }

    /// The space this vector lives over.
    pub fn space(&self) -> RnsSpace {
        RnsSpace {
            session: self.session.clone(),
            plan: Arc::clone(&self.plan),
        }
    }

    /// Decodes the vector back to positional integers (CRT per column).
    pub fn to_biguints(&self) -> Vec<BigUint> {
        self.plan.to_biguints(&self.matrix)
    }

    fn wrap(&self, matrix: RnsMatrix) -> RnsVec {
        self.wrap_over(&self.plan, matrix)
    }

    /// A vector over `plan`'s basis whose plane cycles through this vector's
    /// session pool (the pool the producing operation acquired it from).
    fn wrap_over(&self, plan: &Arc<RnsPlan>, matrix: RnsMatrix) -> RnsVec {
        RnsVec {
            session: self.session.clone(),
            plan: Arc::clone(plan),
            matrix,
        }
    }

    /// The session pool this vector's planes cycle through.
    fn pool(&self) -> &BufferPool {
        &self.session.state.pool
    }

    /// Element-wise `self + other`.
    ///
    /// # Panics
    ///
    /// Panics on basis or length mismatch.
    pub fn add(&self, other: &RnsVec) -> RnsVec {
        let (matrix, _) = self.plan.apply(
            BlasOp::VecAdd,
            None,
            &self.matrix,
            &other.matrix,
            self.pool(),
        );
        self.wrap(matrix)
    }

    /// Element-wise `self - other` (well-defined modulo the basis product).
    ///
    /// # Panics
    ///
    /// Panics on basis or length mismatch.
    pub fn sub(&self, other: &RnsVec) -> RnsVec {
        let (matrix, _) = self.plan.apply(
            BlasOp::VecSub,
            None,
            &self.matrix,
            &other.matrix,
            self.pool(),
        );
        self.wrap(matrix)
    }

    /// Element-wise `self * other`.
    ///
    /// # Panics
    ///
    /// Panics on basis or length mismatch.
    pub fn mul(&self, other: &RnsVec) -> RnsVec {
        self.mul_with_stats(other).0
    }

    /// Like [`RnsVec::mul`], also returning the launch statistics — the
    /// observability surface batching services aggregate launches-per-op from.
    ///
    /// # Panics
    ///
    /// Panics on basis or length mismatch.
    pub fn mul_with_stats(&self, other: &RnsVec) -> (RnsVec, LaunchStats) {
        let (matrix, stats) = self.plan.apply(
            BlasOp::VecMul,
            None,
            &self.matrix,
            &other.matrix,
            self.pool(),
        );
        (self.wrap(matrix), stats)
    }

    /// `a·self + y` with a positional scalar `a`.
    ///
    /// # Panics
    ///
    /// Panics on basis or length mismatch, or if `a` exceeds the dynamic range.
    pub fn axpy(&self, a: &BigUint, y: &RnsVec) -> RnsVec {
        let scalar = self.plan.to_residues(a);
        let (matrix, _) = self.plan.apply(
            BlasOp::Axpy,
            Some(&scalar),
            &self.matrix,
            &y.matrix,
            self.pool(),
        );
        self.wrap(matrix)
    }

    /// Fast base extension into `dst`'s basis (the approximate `x + αM`
    /// conversion), through the session-cached [`BaseConvPlan`]: one launch of
    /// the generated all-rows conversion kernel, served from the session's
    /// fused-kernel cache.
    ///
    /// # Panics
    ///
    /// Panics under the [`RnsPlan::base_convert`] conditions.
    pub fn base_convert(&self, dst: &RnsSpace) -> RnsVec {
        self.base_convert_with_stats(dst).0
    }

    /// Like [`RnsVec::base_convert`], also returning the launch statistics.
    ///
    /// # Panics
    ///
    /// Panics under the [`RnsPlan::base_convert`] conditions.
    pub fn base_convert_with_stats(&self, dst: &RnsSpace) -> (RnsVec, LaunchStats) {
        let bc = self.session.baseconv_plan(&self.plan, &dst.plan);
        let kernel = self.session.baseconv_fused_kernel(&bc, &self.plan);
        let (matrix, stats) = self
            .plan
            .base_convert(&bc, &self.matrix, &kernel, self.pool());
        (self.wrap_over(&dst.plan, matrix), stats)
    }

    /// `a·(self ∘ other) + y` — the multiply-then-axpy chain — with a
    /// positional scalar `a`.
    ///
    /// Runs as one launch of the all-rows fused chain kernel served from the
    /// session's fused-kernel cache, with the intermediate product held in
    /// registers instead of a full matrix — bit-for-bit the unfused
    /// [`RnsVec::mul`] then [`RnsVec::axpy`] sequence.
    ///
    /// # Panics
    ///
    /// Panics on basis or length mismatch, or if `a` exceeds the dynamic range.
    pub fn mul_axpy(&self, other: &RnsVec, a: &BigUint, y: &RnsVec) -> RnsVec {
        self.mul_axpy_with_stats(other, a, y).0
    }

    /// Like [`RnsVec::mul_axpy`], also returning the launch statistics.
    ///
    /// # Panics
    ///
    /// Panics under the [`RnsVec::mul_axpy`] conditions.
    pub fn mul_axpy_with_stats(
        &self,
        other: &RnsVec,
        a: &BigUint,
        y: &RnsVec,
    ) -> (RnsVec, LaunchStats) {
        let scalar = self.plan.to_residues(a);
        let kernel = self.session.mul_axpy_kernel(&self.plan);
        let (matrix, stats) = self.plan.mul_axpy(
            &self.matrix,
            &other.matrix,
            &scalar,
            &y.matrix,
            &kernel,
            self.pool(),
        );
        (self.wrap(matrix), stats)
    }

    /// The whole `mul→rescale→extend` chain: element-wise product with
    /// `other`, rounded division by the dropped modulus, re-expression in
    /// `dst`'s basis.
    ///
    /// Runs as one launch of the all-rows fused chain kernel served from the
    /// session's fused-kernel cache, every intermediate in registers —
    /// bit-for-bit the unfused [`RnsVec::mul`] then
    /// [`RnsVec::rescale_then_extend`] sequence.
    ///
    /// # Panics
    ///
    /// Panics on basis or length mismatch, if the basis has fewer than two
    /// moduli, or under the [`RnsPlan::base_convert`] accumulator conditions.
    pub fn mul_rescale_then_extend(&self, other: &RnsVec, dst: &RnsSpace) -> RnsVec {
        self.mul_rescale_then_extend_with_stats(other, dst).0
    }

    /// Like [`RnsVec::mul_rescale_then_extend`], also returning the launch
    /// statistics.
    ///
    /// # Panics
    ///
    /// Panics under the [`RnsVec::mul_rescale_then_extend`] conditions.
    pub fn mul_rescale_then_extend_with_stats(
        &self,
        other: &RnsVec,
        dst: &RnsSpace,
    ) -> (RnsVec, LaunchStats) {
        let p = self.session.rescale_extend_plan_for(&self.plan, &dst.plan);
        let kernel = self.session.mul_rescale_extend_kernel(&p, &self.plan);
        let (matrix, stats) = self.plan.mul_rescale_then_extend(
            &p,
            &self.matrix,
            &other.matrix,
            &kernel,
            self.pool(),
        );
        (self.wrap_over(&dst.plan, matrix), stats)
    }

    /// Approximate scaled rounding (the CKKS/BGV rescale): divides every
    /// element by the last basis modulus with rounding and returns the vector
    /// over the shortened basis, through the session-cached [`RescalePlan`].
    ///
    /// # Panics
    ///
    /// Panics if the basis has fewer than two moduli.
    pub fn rescale(&self) -> RnsVec {
        self.rescale_with_stats().0
    }

    /// Like [`RnsVec::rescale`], also returning the launch statistics.
    ///
    /// # Panics
    ///
    /// Panics if the basis has fewer than two moduli.
    pub fn rescale_with_stats(&self) -> (RnsVec, LaunchStats) {
        let rp = self.session.rescale_plan_for(&self.plan);
        let (matrix, stats) = self.plan.scale_and_round(&rp, &self.matrix, self.pool());
        let out_moduli: Vec<u64> = rp.output_plan().moduli().collect();
        // The rescale plan already carries a fully built plan for the shortened
        // basis; seed the basis cache with it rather than rebuilding one (the
        // rebuild would redo primality validation and all precomputed tables).
        let plan = self
            .session
            .state
            .rns
            .get_or_build(out_moduli, || Arc::new(rp.output_plan().clone()));
        (self.wrap_over(&plan, matrix), stats)
    }

    /// The fused rescale-and-extend chain (BEHZ `FastBConvSK`): drops the last
    /// basis modulus with rounding **and** re-expresses the quotient in `dst`'s
    /// basis, through the session-cached [`RescaleExtendPlan`], in two launch
    /// rounds with no intermediate rescaled matrix
    /// ([`RnsPlan::rescale_then_extend`]).
    ///
    /// # Panics
    ///
    /// Panics if the basis has fewer than two moduli, or under the
    /// [`RnsPlan::base_convert`] accumulator conditions.
    pub fn rescale_then_extend(&self, dst: &RnsSpace) -> RnsVec {
        self.rescale_then_extend_with_stats(dst).0
    }

    /// Like [`RnsVec::rescale_then_extend`], also returning the launch
    /// statistics.
    ///
    /// # Panics
    ///
    /// Panics under the [`RnsVec::rescale_then_extend`] conditions.
    pub fn rescale_then_extend_with_stats(&self, dst: &RnsSpace) -> (RnsVec, LaunchStats) {
        let p = self.session.rescale_extend_plan_for(&self.plan, &dst.plan);
        let (matrix, stats) = self.plan.rescale_then_extend(&p, &self.matrix, self.pool());
        (self.wrap_over(&dst.plan, matrix), stats)
    }
}

// ----------------------------------------------------------------------
// Negacyclic ring handles
// ----------------------------------------------------------------------

/// The session is the plan provider for every ring context it hands out:
/// contexts assemble themselves from the stampede-controlled caches, so two
/// rings over overlapping ladders share their negacyclic plans, per-level RNS
/// plans, and fused rescale steps.
impl RingPlanSource for Session {
    fn negacyclic_plan(&self, q: u64, n: usize) -> Arc<NttPlan64> {
        self.negacyclic_plan_for(q, n)
    }

    fn rns_plan(&self, moduli: &[u64]) -> Arc<RnsPlan> {
        Session::rns_plan(self, moduli)
    }

    fn rescale_extend_plan(
        &self,
        src: &Arc<RnsPlan>,
        dst: &Arc<RnsPlan>,
    ) -> Arc<RescaleExtendPlan> {
        self.rescale_extend_plan_for(src, dst)
    }
}

/// A negacyclic ring over a moduli ladder, handed out by [`Session::ring`] —
/// a cached [`RingContext`] plus the session pool, so every operation is
/// allocation-free once warm.
///
/// Owned like every session handle: `Send + Sync + 'static`, cheap to clone.
#[derive(Clone)]
pub struct RingSpace {
    session: Session,
    ring: Arc<RingContext>,
}

impl RingSpace {
    /// The session this space was handed out by (shares its caches).
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// The underlying cached ring context.
    pub fn context(&self) -> &RingContext {
        &self.ring
    }

    /// The ring degree `n`.
    pub fn n(&self) -> usize {
        self.ring.n()
    }

    /// The full moduli ladder, widest basis first.
    pub fn moduli(&self) -> &[u64] {
        self.ring.moduli()
    }

    /// Number of rescale steps the ladder supports.
    pub fn steps(&self) -> usize {
        self.ring.steps()
    }

    /// The dynamic range `Q` at `level`.
    pub fn product(&self, level: usize) -> &BigUint {
        self.ring.product(level)
    }

    /// Encodes `n` coefficients into a coefficient-domain ring element at
    /// `level`, its residue plane drawn from the session pool.
    ///
    /// # Panics
    ///
    /// Panics under the [`RingContext::encode`] conditions.
    pub fn encode(&self, level: usize, values: &[BigUint]) -> RingVec {
        self.wrap(self.ring.encode(level, values, self.session.pool()))
    }

    /// Decodes a coefficient-domain element back to `BigUint` coefficients.
    ///
    /// # Panics
    ///
    /// Panics if `v` is in the evaluation domain.
    pub fn decode(&self, v: &RingVec) -> Vec<BigUint> {
        self.ring.decode(v.elt())
    }

    /// Raises `v` into the evaluation domain in place (one launch, one
    /// negacyclic forward transform block per residue row).
    ///
    /// # Panics
    ///
    /// Panics if `v` is already raised.
    pub fn forward_ntt(&self, v: &mut RingVec) -> LaunchStats {
        self.ring.forward_ntt(v.elt.as_mut().expect("live element"))
    }

    /// Lowers `v` back to the coefficient domain in place.
    ///
    /// # Panics
    ///
    /// Panics if `v` is already lowered.
    pub fn inverse_ntt(&self, v: &mut RingVec) -> LaunchStats {
        self.ring.inverse_ntt(v.elt.as_mut().expect("live element"))
    }

    /// Pointwise ring multiply (both operands raised, same level).
    ///
    /// # Panics
    ///
    /// Panics under the [`RingContext::mul`] conditions.
    pub fn mul(&self, a: &RingVec, b: &RingVec) -> (RingVec, LaunchStats) {
        let (elt, stats) = self.ring.mul(a.elt(), b.elt(), self.session.pool());
        (self.wrap(elt), stats)
    }

    /// Coefficient-wise addition (matching levels and domains).
    ///
    /// # Panics
    ///
    /// Panics under the [`RingContext::add`] conditions.
    pub fn add(&self, a: &RingVec, b: &RingVec) -> (RingVec, LaunchStats) {
        let (elt, stats) = self.ring.add(a.elt(), b.elt(), self.session.pool());
        (self.wrap(elt), stats)
    }

    /// Drops the level's last modulus through the session-cached fused
    /// rescale-then-extend chain.
    ///
    /// # Panics
    ///
    /// Panics under the [`RingContext::rescale_to_next_level`] conditions.
    pub fn rescale_to_next_level(&self, v: &RingVec) -> (RingVec, LaunchStats) {
        let (elt, stats) = self
            .ring
            .rescale_to_next_level(v.elt(), self.session.pool());
        (self.wrap(elt), stats)
    }

    /// One full ladder level: raise → pointwise multiply → inverse → rescale
    /// onto the next level's basis. Passing the same vector for `a` and `b`
    /// squares it with a single raise.
    ///
    /// # Panics
    ///
    /// Panics under the [`RingContext::ladder_step`] conditions.
    pub fn ladder_step(&self, a: &RingVec, b: &RingVec) -> (RingVec, LaunchStats) {
        // Preserve `ladder_step`'s pointer-based squaring detection across the
        // handle indirection.
        let (elt, stats) = if std::ptr::eq(a, b) || std::ptr::eq(a.elt(), b.elt()) {
            let e = a.elt();
            self.ring.ladder_step(e, e, self.session.pool())
        } else {
            self.ring.ladder_step(a.elt(), b.elt(), self.session.pool())
        };
        (self.wrap(elt), stats)
    }

    fn wrap(&self, elt: RingElt) -> RingVec {
        RingVec {
            session: self.session.clone(),
            elt: Some(elt),
        }
    }
}

/// One ring element handed out by a [`RingSpace`]: level- and domain-aware,
/// with its residue plane recycled into the session pool on drop (the same
/// pooled lifecycle as [`RnsVec`]).
pub struct RingVec {
    session: Session,
    /// `Some` for the whole life of the handle; `Option` only so `Drop` can
    /// move the element out to recycle its plane.
    elt: Option<RingElt>,
}

impl Clone for RingVec {
    fn clone(&self) -> Self {
        RingVec {
            session: self.session.clone(),
            elt: Some(self.elt().clone_with_pool(self.session.pool())),
        }
    }
}

impl Drop for RingVec {
    /// Hands the residue plane back to the session pool.
    fn drop(&mut self) {
        if let Some(elt) = self.elt.take() {
            elt.recycle(self.session.pool());
        }
    }
}

impl RingVec {
    /// The element's ladder level.
    pub fn level(&self) -> usize {
        self.elt().level()
    }

    /// The element's current domain.
    pub fn domain(&self) -> Domain {
        self.elt().domain()
    }

    /// The underlying ring element.
    pub fn elt(&self) -> &RingElt {
        self.elt.as_ref().expect("live element")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moma_bignum::random::random_below;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::mpsc;
    use std::thread;

    #[test]
    fn generated_kernels_are_cached_per_spec_and_algorithm() {
        let session = Session::default();
        let spec = KernelSpec::new(KernelOp::ModMul, 256);
        let first = session.compile(&spec);
        let second = session.compile(&spec);
        assert!(Arc::ptr_eq(&first, &second));
        let karatsuba = session.compile_with_algorithm(&spec, MulAlgorithm::Karatsuba);
        assert!(!Arc::ptr_eq(&first, &karatsuba));
        let stats = session.stats();
        assert_eq!(stats.generated.hits, 1);
        assert_eq!(stats.generated.misses, 2);
    }

    #[test]
    fn ntt_plans_are_cached_by_modulus_and_size() {
        let session = Session::default();
        let a = session.ntt_default(64);
        let b = session.ntt_default(64);
        assert!(Arc::ptr_eq(&a.plan, &b.plan));
        let c = session.ntt_default(128);
        assert!(!Arc::ptr_eq(&a.plan, &c.plan));
        assert_eq!(
            session.stats().ntt,
            CacheStats {
                hits: 1,
                misses: 2,
                contended: 0
            }
        );
        // Round trip through the handle.
        let mut rng = StdRng::seed_from_u64(1);
        let data: Vec<u64> = (0..64)
            .map(|_| {
                random_below(&mut rng, &BigUint::from(a.modulus()))
                    .to_u64()
                    .unwrap()
            })
            .collect();
        let mut work = data.clone();
        a.forward(&mut work);
        a.inverse(&mut work);
        assert_eq!(work, data);
    }

    #[test]
    fn multiword_ntt_plans_are_cached_per_limb_count() {
        let session = Session::default();
        let a = session.ntt_multiword::<2>(128, 32);
        let b = session.ntt_multiword::<2>(128, 32);
        assert!(Arc::ptr_eq(&a, &b));
        let stats = session.stats();
        assert_eq!(
            stats.ntt_multiword,
            CacheStats {
                hits: 1,
                misses: 1,
                contended: 0
            }
        );
        let mut rng = StdRng::seed_from_u64(2);
        let data: Vec<_> = (0..32).map(|_| a.ring.random_element(&mut rng)).collect();
        let mut work = data.clone();
        a.forward(&mut work);
        a.inverse(&mut work);
        assert_eq!(work, data);
    }

    #[test]
    fn clones_share_cache_state() {
        let session = Session::default();
        let clone = session.clone();
        assert!(session.shares_state_with(&clone));
        assert!(!session.shares_state_with(&Session::default()));
        let _ = clone.ntt_default(64);
        // The clone's build is the original's cache hit.
        let _ = session.ntt_default(64);
        let stats = session.stats();
        assert_eq!((stats.ntt.misses, stats.ntt.hits), (1, 1));
    }

    #[test]
    fn plan_cache_stampede_builds_once_for_one_key() {
        let cache: PlanCache<u32, u64> = PlanCache::default();
        let builds = Arc::new(AtomicU64::new(0));
        let barrier = Arc::new(std::sync::Barrier::new(8));
        thread::scope(|s| {
            for _ in 0..8 {
                let builds = Arc::clone(&builds);
                let barrier = Arc::clone(&barrier);
                let cache = &cache;
                s.spawn(move || {
                    barrier.wait();
                    let v = cache.get_or_build(7, || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window so waiters really do contend.
                        thread::sleep(std::time::Duration::from_millis(20));
                        Arc::new(42u64)
                    });
                    assert_eq!(*v, 42);
                });
            }
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "exactly one build");
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits), (1, 7));
    }

    #[test]
    fn plan_cache_different_keys_build_in_parallel() {
        // Key 1's builder blocks until key 2's build has *completed*. If builds
        // for different keys serialized behind one lock, this would deadlock.
        let cache: Arc<PlanCache<u32, u64>> = Arc::new(PlanCache::default());
        let (unblock_tx, unblock_rx) = mpsc::channel::<()>();
        let slow = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                cache.get_or_build(1, move || {
                    unblock_rx.recv().expect("key 2 completes while we build");
                    Arc::new(100u64)
                })
            })
        };
        // Runs while key 1 is mid-build.
        let fast = cache.get_or_build(2, || Arc::new(200u64));
        assert_eq!(*fast, 200);
        unblock_tx.send(()).unwrap();
        assert_eq!(*slow.join().unwrap(), 100);
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits, stats.contended), (2, 0, 0));
    }

    #[test]
    fn plan_cache_waiters_are_counted_as_contended_hits() {
        let cache: Arc<PlanCache<u32, u64>> = Arc::new(PlanCache::default());
        let (entered_tx, entered_rx) = mpsc::channel::<()>();
        let (unblock_tx, unblock_rx) = mpsc::channel::<()>();
        let builder = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || {
                cache.get_or_build(5, move || {
                    entered_tx.send(()).unwrap();
                    unblock_rx.recv().unwrap();
                    Arc::new(55u64)
                })
            })
        };
        entered_rx.recv().unwrap(); // the build is provably in flight
        let waiter = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || cache.get_or_build(5, || unreachable!("key already claimed")))
        };
        // Give the waiter time to reach the condvar, then publish.
        while cache.stats().contended == 0 {
            thread::yield_now();
        }
        unblock_tx.send(()).unwrap();
        assert_eq!(*builder.join().unwrap(), 55);
        assert_eq!(*waiter.join().unwrap(), 55);
        let stats = cache.stats();
        assert_eq!((stats.misses, stats.hits, stats.contended), (1, 1, 1));
    }

    #[test]
    fn plan_cache_recovers_from_a_panicking_builder() {
        let cache: Arc<PlanCache<u32, u64>> = Arc::new(PlanCache::default());
        let panicked = {
            let cache = Arc::clone(&cache);
            thread::spawn(move || cache.get_or_build(9, || panic!("builder died")))
        };
        assert!(panicked.join().is_err());
        // The key was unclaimed: the next request simply builds.
        let v = cache.get_or_build(9, || Arc::new(99u64));
        assert_eq!(*v, 99);
        let stats = cache.stats();
        assert_eq!(stats.misses, 2, "the failed claim and the successful one");
    }

    #[test]
    fn session_survives_a_panicking_plan_builder() {
        let session = Session::default();
        let poisoner = session.clone();
        // q = 6 is composite: the NttPlan64 builder panics inside the cache.
        let result = thread::spawn(move || poisoner.ntt(6, 8)).join();
        assert!(result.is_err());
        // The session is not wedged: a valid request still builds and caches.
        let space = session.ntt_default(8);
        assert_eq!(space.n(), 8);
        let _ = session.ntt_default(8);
        let stats = session.stats();
        assert_eq!(stats.ntt.hits, 1);
    }

    #[test]
    fn rns_chain_matches_the_oracle_and_reuses_every_plan() {
        let session = Session::default();
        let src = session.rns_with_capacity(160);
        let src_moduli = src.moduli();
        let dst = session.rns(&src_moduli[..4]);
        let mut rng = StdRng::seed_from_u64(3);
        let values: Vec<BigUint> = (0..9)
            .map(|_| random_below(&mut rng, src.product()))
            .collect();
        let v = src.encode(&values);
        let out = v.mul(&v).rescale_then_extend(&dst);
        // Oracle: square, rescale, extend — element by element.
        let ctx = RnsContext::with_moduli(&src.moduli());
        let dst_ctx = RnsContext::with_moduli(&dst.moduli());
        let out_ctx = ctx.without_last();
        for (c, x) in values.iter().enumerate() {
            let sq = (x * x) % src.product();
            let oracle =
                out_ctx.base_convert(&dst_ctx, &ctx.scale_and_round(&ctx.to_residues(&sq)));
            assert_eq!(out.matrix().element(c), oracle, "column {c}");
        }
        let miss_baseline = session.stats();
        // The second identical chain builds nothing anywhere.
        let again = src.encode(&values).mul(&v).rescale_then_extend(&dst);
        assert_eq!(again.to_biguints(), out.to_biguints());
        let after = session.stats();
        assert_eq!(after.rns.misses, miss_baseline.rns.misses);
        assert_eq!(
            after.rescale_extend.misses,
            miss_baseline.rescale_extend.misses
        );
        assert_eq!(after.fused.misses, miss_baseline.fused.misses);
        assert!(after.rescale_extend.hits > miss_baseline.rescale_extend.hits);
    }

    #[test]
    fn rns_vec_ops_match_plan_results() {
        let session = Session::default();
        let space = session.rns_with_capacity(96);
        let mut rng = StdRng::seed_from_u64(4);
        let a: Vec<BigUint> = (0..6)
            .map(|_| random_below(&mut rng, space.product()))
            .collect();
        let b: Vec<BigUint> = (0..6)
            .map(|_| random_below(&mut rng, space.product()))
            .collect();
        let va = space.encode(&a);
        let vb = space.encode(&b);
        let scalar = BigUint::from(0x1234_5678u64);
        for (c, (x, y)) in a.iter().zip(&b).enumerate() {
            assert_eq!(
                va.add(&vb).to_biguints()[c],
                (x + y) % space.product(),
                "add {c}"
            );
            assert_eq!(
                va.mul(&vb).to_biguints()[c],
                (x * y) % space.product(),
                "mul {c}"
            );
            assert_eq!(
                va.axpy(&scalar, &vb).to_biguints()[c],
                (&(&scalar * x) + y) % space.product(),
                "axpy {c}"
            );
        }
        // rescale matches the oracle.
        let ctx = RnsContext::with_moduli(&space.moduli());
        let rescaled = va.rescale();
        for (c, x) in a.iter().enumerate() {
            assert_eq!(
                rescaled.matrix().element(c),
                ctx.scale_and_round(&ctx.to_residues(x)),
                "rescale {c}"
            );
        }
    }

    #[test]
    fn base_convert_handle_matches_the_direct_path() {
        let session = Session::default();
        let src = session.rns_with_capacity(128);
        let src_moduli = src.moduli();
        let dst = session.rns(&src_moduli[..5]);
        let mut rng = StdRng::seed_from_u64(5);
        let values: Vec<BigUint> = (0..7)
            .map(|_| random_below(&mut rng, src.product()))
            .collect();
        let converted = src.encode(&values).base_convert(&dst);
        let ctx = RnsContext::with_moduli(&src.moduli());
        let dst_ctx = RnsContext::with_moduli(&dst.moduli());
        for (c, v) in values.iter().enumerate() {
            assert_eq!(
                converted.matrix().element(c),
                ctx.base_convert(&dst_ctx, &ctx.to_residues(v)),
                "column {c}"
            );
        }
    }

    #[test]
    fn batched_ntt_space_amortizes_stage_launches() {
        let session = Session::default();
        let space = session.ntt_default(64);
        let mut rng = StdRng::seed_from_u64(6);
        let q = BigUint::from(space.modulus());
        let data: Vec<u64> = (0..8 * 64)
            .map(|_| random_below(&mut rng, &q).to_u64().unwrap())
            .collect();
        let mut batched = data.clone();
        let stats = space.forward_batch(&mut batched);
        assert_eq!(stats.launches, 1, "one block per transform, one launch");
        let inv = space.inverse_batch(&mut batched);
        assert_eq!(inv.launches, 1);
        assert_eq!(batched, data);
    }

    #[test]
    fn ring_contexts_are_cached_and_share_component_plans() {
        let session = Session::default();
        let n = 16;
        let moduli = moma_ring::ladder_primes(n, &[50, 30, 45]);
        let ring = session.ring(n, &moduli);
        let after_build = session.stats();
        assert_eq!(after_build.ring.misses, 1);
        assert_eq!(after_build.ntt_negacyclic.misses, moduli.len() as u64);
        // Same key: pure cache hit, nothing rebuilt underneath.
        let again = session.ring(n, &moduli);
        assert!(ring.context().moduli() == again.context().moduli());
        let stats = session.stats();
        assert_eq!(
            stats.ring,
            CacheStats {
                hits: 1,
                ..after_build.ring
            }
        );
        assert_eq!(
            stats.ntt_negacyclic.misses,
            after_build.ntt_negacyclic.misses
        );
        // A direct negacyclic space over a ladder modulus reuses the ring's plan.
        let _ = session.ntt_negacyclic(moduli[0], n);
        assert_eq!(session.stats().ntt_negacyclic.hits, 1);
        // The cyclic cache is untouched: the two plan shapes never collide.
        assert_eq!(session.stats().ntt.misses, 0);
    }

    #[test]
    fn ring_handles_run_the_ladder_against_the_oracle() {
        let session = Session::default();
        let n = 8;
        let moduli = moma_ring::ladder_primes(n, &[50, 30, 40]);
        let ring = session.ring(n, &moduli);
        let mut rng = StdRng::seed_from_u64(7);
        let a: Vec<BigUint> = (0..n)
            .map(|_| random_below(&mut rng, ring.product(0)))
            .collect();
        let b: Vec<BigUint> = (0..n)
            .map(|_| random_below(&mut rng, ring.product(0)))
            .collect();
        let ea = ring.encode(0, &a);
        let eb = ring.encode(0, &b);
        let (mut cur, _) = ring.ladder_step(&ea, &eb);
        for _ in 1..ring.steps() {
            let (next, _) = ring.ladder_step(&cur, &cur);
            cur = next;
        }
        assert_eq!(cur.level(), ring.steps());
        assert_eq!(
            ring.decode(&cur),
            moma_ring::oracle::ladder_replay(&moduli, &a, &b, ring.steps())
        );
    }

    #[test]
    fn warm_session_ladder_is_allocation_free() {
        let session = Session::default();
        let n = 32;
        let moduli = moma_ring::ladder_primes(n, &[50, 30, 45, 30]);
        let ring = session.ring(n, &moduli);
        let mut rng = StdRng::seed_from_u64(8);
        let a: Vec<BigUint> = (0..n)
            .map(|_| random_below(&mut rng, ring.product(0)))
            .collect();
        let run = || {
            let ea = ring.encode(0, &a);
            let mut allocs = 0;
            let (mut cur, s) = ring.ladder_step(&ea, &ea);
            allocs += s.allocs;
            for _ in 1..ring.steps() {
                let (next, s) = ring.ladder_step(&cur, &cur);
                allocs += s.allocs;
                cur = next;
            }
            allocs
        };
        let cold = run();
        assert!(cold > 0, "cold run must miss the empty pool");
        assert_eq!(run(), 0, "warm ladder must be allocation-free");
    }
}
