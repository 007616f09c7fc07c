//! The planned residue engine: precompute-once-execute-many RNS arithmetic in
//! structure-of-arrays layout on the simulated GPU launcher.
//!
//! The original [`RnsContext`]/[`RnsInt`] path is a readable oracle, but it is the
//! wrong shape for a throughput comparison against MoMA's positional kernels: every
//! element owns its own `Vec<u64>` of residues (array-of-structures), every
//! multiplication reduces through a `u128 %` division, and every conversion
//! allocates one `BigUint` per modulus. GRNS — the baseline the paper compares
//! against — stores residues *plane by plane* and runs each plane as an independent
//! data-parallel kernel. This module reproduces that organisation:
//!
//! * [`RnsPlan`] precomputes, once per basis, a [`SingleBarrett`] context per
//!   modulus (so hot-path reductions are Barrett multiplications, not `u128`
//!   divisions), the residues of every power of the limb radix `2^64` (so
//!   positional→residue conversion is a dot product over machine words with no
//!   arbitrary-precision arithmetic), and the CRT reconstruction data;
//! * [`RnsMatrix`] stores a vector of `n` big integers as a flat `#moduli × n`
//!   row-major matrix (structure-of-arrays): row `r` holds the residues of all `n`
//!   elements modulo basis prime `m_r`;
//! * element-wise operations ([`RnsPlan::apply`]) dispatch one virtual GPU thread
//!   per residue row through [`moma_gpu::launch_chunks`] (each thread filling its
//!   row of the flat output in place), and the `mul→axpy` chain
//!   ([`RnsPlan::mul_axpy`]) runs as one launch of a *generated* all-rows kernel
//!   — so GRNS vector ops and MoMA compiled kernels are measured on the same
//!   launch infrastructure.
//!
//! Every execution entry point takes the caller's [`BufferPool`] and acquires
//! its output plane there; the reported [`LaunchStats::allocs`] is the pool-miss
//! delta of the call, so a warm pool reports zero. One-shot callers pass a
//! fresh `BufferPool::new()`, whose misses are exactly the planes allocated.
//!
//! The conversion-cost trade-off the paper measures is explicit in the types:
//! everything on [`RnsMatrix`] is `BigUint`-free, while [`RnsPlan::to_biguints`]
//! and [`RnsPlan::reduce_mod`] — the operations RNS cannot do residue-locally —
//! pay the CRT reconstruction through arbitrary-precision arithmetic. Positional
//! (MoMA-style) multi-word arithmetic never pays that step, which is the heart of
//! the Figure 2 comparison.

use crate::{RnsContext, RnsInt};
use moma_bignum::BigUint;
use moma_blas::BlasOp;
use moma_gpu::launch::{launch_chunks, launch_compiled_rows, LaunchStats};
use moma_gpu::pool::BufferPool;
use moma_ir::compiled::CompiledKernel;
use moma_ir::{Kernel, KernelBuilder, Op, Operand, Ty};
use moma_mp::single::SingleBarrett;

/// Why a restored [`RnsPlan`] table set was rejected by
/// [`RnsPlan::from_tables`]. Every variant is fail-closed: nothing about the
/// plan is usable once validation stops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PlanRestoreError {
    /// A modulus is outside the supported range (`q < 2` or above 60 bits).
    BadModulus {
        /// The rejected modulus.
        q: u64,
    },
    /// The basis is empty or the CRT table length does not match it.
    ShapeMismatch,
    /// The claimed product is not the product of the moduli.
    BadProduct,
    /// A CRT entry fails its identity (`M_i · m_i ≠ product` or
    /// `y_i · M_i ≢ 1 mod m_i`).
    BadCrt {
        /// Index of the offending basis modulus.
        index: usize,
    },
}

impl std::fmt::Display for PlanRestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanRestoreError::BadModulus { q } => {
                write!(f, "modulus {q} is outside the supported 60-bit range")
            }
            PlanRestoreError::ShapeMismatch => {
                write!(f, "basis and CRT table shapes do not match")
            }
            PlanRestoreError::BadProduct => {
                write!(f, "claimed dynamic range is not the product of the moduli")
            }
            PlanRestoreError::BadCrt { index } => {
                write!(f, "CRT entry {index} fails its reconstruction identity")
            }
        }
    }
}

impl std::error::Error for PlanRestoreError {}

/// Precomputed per-basis execution data for the planned residue engine.
///
/// Built once per basis (from an existing [`RnsContext`] or directly from a
/// capacity); every subsequent element-wise operation is pure machine-word
/// arithmetic.
///
/// # Example
///
/// ```
/// use moma_bignum::BigUint;
/// use moma_blas::BlasOp;
/// use moma_gpu::BufferPool;
/// use moma_rns::{RnsContext, RnsMatrix, RnsPlan};
///
/// let ctx = RnsContext::with_capacity_bits(256);
/// let plan = RnsPlan::new(&ctx);
/// let pool = BufferPool::new();
/// let a: Vec<BigUint> = (1u64..5).map(BigUint::from).collect();
/// let b: Vec<BigUint> = (5u64..9).map(BigUint::from).collect();
/// let ma = RnsMatrix::from_biguints(&plan, &a, &pool);
/// let mb = RnsMatrix::from_biguints(&plan, &b, &pool);
/// let (prod, _) = plan.apply(BlasOp::VecMul, None, &ma, &mb, &pool);
/// assert_eq!(plan.to_biguints(&prod)[0], &a[0] * &b[0]);
/// ```
#[derive(Debug, Clone)]
pub struct RnsPlan {
    /// One Barrett context per basis modulus, in basis order.
    pub(crate) ctxs: Vec<SingleBarrett>,
    /// Narrow-path verdict per modulus, decided **once at plan construction**:
    /// `narrow[r]` is `true` iff modulus `r` has at most 32 bits, so
    /// [`SingleBarrett::mul_mod_narrow`]'s single-widening-multiplication path is
    /// valid for it. Row kernels dispatch on this precomputed flag instead of
    /// relying on every call site to re-check the precondition — on a wide
    /// modulus the narrow path silently truncates in release builds.
    pub(crate) narrow: Vec<bool>,
    /// `limb_residues[r][j] = 2^(64·j) mod m_r` for every limb position `j` the
    /// dynamic range can hold — the dot-product table for `BigUint`-free forward
    /// conversion.
    pub(crate) limb_residues: Vec<Vec<u64>>,
    /// Product of the basis (the dynamic range).
    pub(crate) product: BigUint,
    /// CRT reconstruction data per modulus: `(M_i = product / m_i, y_i =
    /// M_i^{-1} mod m_i)`.
    pub(crate) crt: Vec<(BigUint, u64)>,
}

impl RnsPlan {
    /// Builds the plan for the basis of an existing context.
    ///
    /// The plan computes the same residues and reconstructions as the context; the
    /// crosscheck tests exploit that to use [`RnsContext`] as the oracle.
    pub fn new(ctx: &RnsContext) -> Self {
        let ctxs: Vec<SingleBarrett> = ctx.moduli.iter().map(|&m| SingleBarrett::new(m)).collect();
        // The narrow-vs-wide multiplication dispatch is validated here, once per
        // basis, where the path is *selected* — not at each call site. Mixed
        // bases (narrow and wide moduli in one plan) are fully supported; each
        // residue row gets the fastest multiplication that is correct for it.
        let narrow: Vec<bool> = ctxs.iter().map(SingleBarrett::is_narrow).collect();
        let max_limbs = ctx.product.bits().div_ceil(64) as usize;
        let limb_residues = ctxs
            .iter()
            .map(|b| {
                // radix = 2^64 mod m, then successive powers by Barrett multiplication.
                let radix = b.radix_residue();
                let mut pows = Vec::with_capacity(max_limbs);
                let mut cur = 1u64;
                for _ in 0..max_limbs {
                    pows.push(cur);
                    cur = b.mul_mod(cur, radix);
                }
                pows
            })
            .collect();
        RnsPlan {
            ctxs,
            narrow,
            limb_residues,
            product: ctx.product.clone(),
            crt: ctx.crt.clone(),
        }
    }

    /// Convenience constructor: builds a deterministic basis covering at least
    /// `bits` bits of dynamic range (same basis as
    /// [`RnsContext::with_capacity_bits`]).
    pub fn with_capacity_bits(bits: u32) -> Self {
        Self::new(&RnsContext::with_capacity_bits(bits))
    }

    /// Number of basis moduli (= rows of every matrix over this plan).
    pub fn moduli_count(&self) -> usize {
        self.ctxs.len()
    }

    /// The basis moduli, in basis order.
    pub fn moduli(&self) -> impl Iterator<Item = u64> + '_ {
        self.ctxs.iter().map(|c| c.q)
    }

    /// The product of the basis (the dynamic range).
    pub fn product(&self) -> &BigUint {
        &self.product
    }

    /// The CRT reconstruction tables, `(M_i = product/m_i, y_i = M_i^{-1} mod
    /// m_i)` per basis modulus — the serialization view used by session
    /// snapshots (the `M_i` are the expensive-to-rebuild part: one
    /// arbitrary-precision division each on a cold build).
    pub fn crt_tables(&self) -> &[(BigUint, u64)] {
        &self.crt
    }

    /// Rebuilds a plan from snapshot data: the basis moduli, their product, and
    /// the CRT tables. This is the warm-start constructor — it skips the prime
    /// search and every `product / m_i` division — but it does **not** trust
    /// its input: the product is re-derived by multiplication, and each CRT
    /// entry must satisfy `M_i · m_i = product` and `y_i · M_i ≡ 1 (mod m_i)`.
    /// Together those identities force the moduli to be pairwise coprime (an
    /// inverse of `M_i = ∏_{j≠i} m_j` exists mod `m_i` only then), which is all
    /// CRT correctness needs; primality is a property of the *generated* bases,
    /// not a requirement of the arithmetic. Barrett contexts, narrow-path
    /// verdicts, and limb-radix residues are recomputed, never deserialized.
    pub fn from_tables(
        moduli: &[u64],
        product: BigUint,
        crt: Vec<(BigUint, u64)>,
    ) -> Result<Self, PlanRestoreError> {
        if let Some(&q) = moduli
            .iter()
            .find(|&&q| q < 2 || (64 - q.leading_zeros()) > 60)
        {
            return Err(PlanRestoreError::BadModulus { q });
        }
        if moduli.is_empty() || crt.len() != moduli.len() {
            return Err(PlanRestoreError::ShapeMismatch);
        }
        let mut check = BigUint::from(1u64);
        for &m in moduli {
            check = &check * &BigUint::from(m);
        }
        if check != product {
            return Err(PlanRestoreError::BadProduct);
        }
        let ctxs: Vec<SingleBarrett> = moduli.iter().map(|&m| SingleBarrett::new(m)).collect();
        for (index, ((mi, yi), ctx)) in crt.iter().zip(&ctxs).enumerate() {
            let m_big = BigUint::from(ctx.q);
            let residue = (mi % &m_big).to_u64().expect("residue fits a word");
            if *yi >= ctx.q || mi * &m_big != product || ctx.mul_mod(*yi, residue) != 1 {
                return Err(PlanRestoreError::BadCrt { index });
            }
        }
        let narrow: Vec<bool> = ctxs.iter().map(SingleBarrett::is_narrow).collect();
        let max_limbs = product.bits().div_ceil(64) as usize;
        let limb_residues = ctxs
            .iter()
            .map(|b| {
                let radix = b.radix_residue();
                let mut pows = Vec::with_capacity(max_limbs);
                let mut cur = 1u64;
                for _ in 0..max_limbs {
                    pows.push(cur);
                    cur = b.mul_mod(cur, radix);
                }
                pows
            })
            .collect();
        Ok(RnsPlan {
            ctxs,
            narrow,
            limb_residues,
            product,
            crt,
        })
    }

    /// Converts one positional integer into residues with no `BigUint`
    /// arithmetic: each residue is a Barrett dot product of the value's machine
    /// words against the precomputed limb-radix residues.
    ///
    /// # Panics
    ///
    /// Panics if `x` is not below the dynamic range.
    pub fn to_residues(&self, x: &BigUint) -> RnsInt {
        assert!(x < &self.product, "value exceeds the RNS dynamic range");
        let limbs = x.limbs();
        RnsInt {
            residues: self
                .ctxs
                .iter()
                .zip(&self.narrow)
                .zip(&self.limb_residues)
                .map(|((ctx, &narrow), pows)| residue_of(ctx, narrow, pows, limbs))
                .collect(),
        }
    }

    /// Reconstructs the positional value of one residue column via the Chinese
    /// remainder theorem — the explicit conversion path where arbitrary-precision
    /// arithmetic is allowed (and unavoidable).
    pub fn from_residues(&self, x: &RnsInt) -> BigUint {
        assert_eq!(x.residues.len(), self.moduli_count());
        self.crt_reconstruct(|r| x.residues[r])
    }

    /// Runs one BLAS operation element-wise over two matrices, one virtual GPU
    /// thread per residue row, into an output plane acquired from `pool`, and
    /// reports the launch statistics (`allocs` is the pool-miss delta).
    ///
    /// This is the planned hot path: each row runs against its own precomputed
    /// Barrett context, performs no `BigUint` arithmetic and no per-element
    /// allocation, and all rows share the same [`moma_gpu::launch_chunks`]
    /// infrastructure the positional BLAS batches use. The caller owns the
    /// result and decides when its storage flows back (see
    /// [`RnsMatrix::take_storage`]).
    ///
    /// # Panics
    ///
    /// Panics if the matrix shapes do not match the plan (or each other), or if
    /// `op` is [`BlasOp::Axpy`] and no scalar is supplied.
    pub fn apply(
        &self,
        op: BlasOp,
        scalar: Option<&RnsInt>,
        a: &RnsMatrix,
        b: &RnsMatrix,
        pool: &BufferPool,
    ) -> (RnsMatrix, LaunchStats) {
        self.check_shape(a);
        self.check_shape(b);
        assert_eq!(a.cols, b.cols, "matrix width mismatch");
        let scalar = match op {
            BlasOp::Axpy => {
                let s = scalar.expect("axpy requires an RNS scalar");
                assert_eq!(
                    s.residues.len(),
                    self.moduli_count(),
                    "scalar basis mismatch"
                );
                Some(s)
            }
            _ => None,
        };
        let cols = a.cols;
        let before = pool.misses();
        // One flat plane; every launcher thread fills its own residue row in
        // place (no per-row collection or concatenation).
        let mut data = pool.acquire(self.moduli_count() * cols);
        let mut stats = if cols == 0 {
            LaunchStats::default()
        } else {
            launch_chunks(&mut data, cols, |r, out| {
                let ctx = &self.ctxs[r];
                // Per-row dispatch recorded at plan build: the narrow
                // single-widening-multiplication path for validated ≤32-bit
                // moduli, the general Barrett path otherwise.
                let narrow = self.narrow[r];
                let ar = a.row(r);
                let br = b.row(r);
                match op {
                    BlasOp::VecMul => {
                        for (o, (&x, &y)) in out.iter_mut().zip(ar.iter().zip(br)) {
                            *o = mul_mod(ctx, narrow, x, y);
                        }
                    }
                    BlasOp::VecAdd => {
                        for (o, (&x, &y)) in out.iter_mut().zip(ar.iter().zip(br)) {
                            *o = ctx.add_mod(x, y);
                        }
                    }
                    BlasOp::VecSub => {
                        for (o, (&x, &y)) in out.iter_mut().zip(ar.iter().zip(br)) {
                            *o = ctx.sub_mod(x, y);
                        }
                    }
                    BlasOp::Axpy => {
                        let s = scalar.unwrap().residues[r];
                        for (o, (&x, &y)) in out.iter_mut().zip(ar.iter().zip(br)) {
                            *o = ctx.add_mod(mul_mod(ctx, narrow, s, x), y);
                        }
                    }
                }
            })
        };
        stats.allocs += (pool.misses() - before) as usize;
        (
            RnsMatrix {
                rows: self.moduli_count(),
                cols,
                data,
            },
            stats,
        )
    }

    /// Builds the IR of the **all-rows** fused `s·(a∘b) + y` chain kernel: one
    /// generated program computing, per element, every residue row of the
    /// multiply-then-axpy chain — four parameters (`x_r`, `w_r`, `s_r`, `z_r`)
    /// and one output per basis modulus.
    ///
    /// The kernel is generated naively (a Barrett multiplication and a
    /// multiply-accumulate per row) and handed to
    /// [`moma_rewrite::passes::optimize`], whose fusion stage collapses each
    /// row into two division-free [`Op::MacReduceMod`] accumulation loops (the
    /// product, then `t·s + z` with the addend folded as an extra pair). The
    /// scalar rides as a *parameter*, not a baked constant, so one compiled
    /// kernel serves every scalar over this basis — which is what makes the
    /// kernel worth caching under a basis-shaped key.
    pub fn mul_axpy_kernel_ir(&self) -> Kernel {
        moma_rewrite::passes::optimize(&self.mul_axpy_kernel_ir_unfused())
    }

    /// The naive (pre-fusion) form of [`RnsPlan::mul_axpy_kernel_ir`]: one
    /// Barrett multiplication and one multiply-accumulate per row, exactly the
    /// unfused `mul` → `axpy` sequence written as a single program. Kept public
    /// as the interpreter oracle for fusion cross-checks.
    pub fn mul_axpy_kernel_ir_unfused(&self) -> Kernel {
        let mut kb = KernelBuilder::new("rns_mul_axpy_fused");
        let rows: Vec<_> = (0..self.moduli_count())
            .map(|r| {
                (
                    kb.param(format!("x{r}"), Ty::UInt(64)),
                    kb.param(format!("w{r}"), Ty::UInt(64)),
                    kb.param(format!("s{r}"), Ty::UInt(64)),
                    kb.param(format!("z{r}"), Ty::UInt(64)),
                    kb.output(format!("y{r}"), Ty::UInt(64)),
                )
            })
            .collect();
        for (ctx, (x, w, s, z, out)) in self.ctxs.iter().zip(rows) {
            let t = kb.fresh("t", Ty::UInt(64));
            kb.push(
                vec![t],
                Op::MulModBarrett {
                    a: x.into(),
                    b: w.into(),
                    q: Operand::Const(ctx.q),
                    mu: Operand::Const(ctx.mu),
                    mbits: ctx.mbits,
                },
            );
            kb.push(
                vec![out],
                Op::MulAddMod {
                    a: t.into(),
                    b: s.into(),
                    c: z.into(),
                    q: Operand::Const(ctx.q),
                    mu: Operand::Const(ctx.mu),
                    mbits: ctx.mbits,
                },
            );
        }
        kb.build()
    }

    /// `s·(a∘b) + z` — the element-wise multiply immediately scaled and
    /// accumulated — in **one** launch through the compiled all-rows chain
    /// kernel ([`RnsPlan::mul_axpy_kernel_ir`]), instead of the two launches
    /// (and one full intermediate matrix) of a [`BlasOp::VecMul`] followed by a
    /// [`BlasOp::Axpy`] [`RnsPlan::apply`]. Bit-for-bit equal to that unfused
    /// sequence. Callers own the kernel (a session compiles it once per basis
    /// and reuses it across every scalar); the output plane comes from `pool`.
    ///
    /// # Panics
    ///
    /// Panics if the matrix shapes or the scalar basis do not match the plan,
    /// or if `compiled` does not take four parameters and produce one output
    /// per basis modulus.
    pub fn mul_axpy(
        &self,
        a: &RnsMatrix,
        b: &RnsMatrix,
        s: &RnsInt,
        z: &RnsMatrix,
        compiled: &CompiledKernel,
        pool: &BufferPool,
    ) -> (RnsMatrix, LaunchStats) {
        self.check_shape(a);
        self.check_shape(b);
        self.check_shape(z);
        assert_eq!(a.cols, b.cols, "matrix width mismatch");
        assert_eq!(a.cols, z.cols, "matrix width mismatch");
        assert_eq!(
            s.residues.len(),
            self.moduli_count(),
            "scalar basis mismatch"
        );
        let rows = self.moduli_count();
        let cols = a.cols;
        assert_eq!(
            (compiled.param_count(), compiled.output_count()),
            (4 * rows, rows),
            "fused chain kernel shape must match the basis"
        );
        let before = pool.misses();
        let mut data = pool.acquire(rows * cols);
        let mut stats = if cols == 0 {
            LaunchStats::default()
        } else {
            launch_compiled_rows(compiled, &mut data, cols, |p, lo, lanes| {
                let r = p / 4;
                let plane = match p % 4 {
                    0 => &a.data,
                    1 => &b.data,
                    2 => return lanes.fill(s.residues[r]),
                    _ => &z.data,
                };
                lanes.copy_from_slice(&plane[r * cols + lo..r * cols + lo + lanes.len()]);
            })
        };
        stats.allocs += (pool.misses() - before) as usize;
        (RnsMatrix { rows, cols, data }, stats)
    }

    /// Reduces every element modulo a user modulus `q` that is not the basis
    /// product: CRT reconstruction, positional reduction, forward conversion.
    /// This is the expensive round trip positional arithmetic avoids.
    pub fn reduce_mod(&self, a: &RnsMatrix, q: &BigUint) -> RnsMatrix {
        let reduced: Vec<BigUint> = self.to_biguints(a).into_iter().map(|x| &x % q).collect();
        RnsMatrix::from_biguints(self, &reduced, &BufferPool::new())
    }

    /// Converts a whole matrix back to positional integers (CRT per column).
    pub fn to_biguints(&self, a: &RnsMatrix) -> Vec<BigUint> {
        self.check_shape(a);
        (0..a.cols)
            .map(|c| self.crt_reconstruct(|r| a.data[r * a.cols + c]))
            .collect()
    }

    fn crt_reconstruct(&self, residue: impl Fn(usize) -> u64) -> BigUint {
        let mut acc = BigUint::zero();
        for (r, (ctx, (mi, yi))) in self.ctxs.iter().zip(&self.crt).enumerate() {
            let t = ctx.mul_mod(residue(r) % ctx.q, *yi);
            acc = &acc + &(mi * &BigUint::from(t));
        }
        &acc % &self.product
    }

    pub(crate) fn check_shape(&self, a: &RnsMatrix) {
        assert_eq!(a.rows, self.moduli_count(), "matrix basis mismatch");
        assert_eq!(a.data.len(), a.rows * a.cols, "matrix storage corrupt");
    }
}

/// `(a · b) mod q`, dispatching on the `narrow` verdict the plan recorded at
/// construction: the single-widening-multiplication path for validated ≤32-bit
/// moduli (always true for the 31-bit bases [`RnsContext`] constructs by
/// default), the general Barrett path for wide rows of a mixed basis.
#[inline]
pub(crate) fn mul_mod(ctx: &SingleBarrett, narrow: bool, a: u64, b: u64) -> u64 {
    if narrow {
        ctx.mul_mod_narrow(a, b)
    } else {
        ctx.mul_mod(a, b)
    }
}

/// Computes `value mod q` from little-endian machine words: a Barrett dot product
/// against the precomputed residues of the limb-radix powers.
fn residue_of(ctx: &SingleBarrett, narrow: bool, pows: &[u64], limbs: &[u64]) -> u64 {
    assert!(
        limbs.len() <= pows.len(),
        "value exceeds the RNS dynamic range"
    );
    let mut acc = 0u64;
    for (&limb, &pow) in limbs.iter().zip(pows) {
        acc = ctx.add_mod(acc, mul_mod(ctx, narrow, limb % ctx.q, pow));
    }
    acc
}

/// A vector of big integers in residue form, stored structure-of-arrays.
///
/// Row `r` of the flat row-major storage holds the residues of all `cols`
/// elements modulo basis prime `m_r` — the GRNS "residue plane" layout, which is
/// what lets one launcher thread stream a whole row with perfect locality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RnsMatrix {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) data: Vec<u64>,
}

impl RnsMatrix {
    /// Converts a slice of positional integers into SoA residue form, one
    /// launcher thread per residue row, into a plane acquired from `pool`. Apart
    /// from reading each value's machine words, the conversion performs no
    /// `BigUint` arithmetic. The matrix owns the buffer; recycle it through
    /// [`RnsMatrix::take_storage`] (or an owner's `Drop`, as `moma`'s `RnsVec`
    /// does) when the matrix is done.
    ///
    /// # Panics
    ///
    /// Panics if any value is not below the plan's dynamic range.
    pub fn from_biguints(plan: &RnsPlan, values: &[BigUint], pool: &BufferPool) -> Self {
        for v in values {
            assert!(v < &plan.product, "value exceeds the RNS dynamic range");
        }
        let cols = values.len();
        let mut data = pool.acquire(plan.moduli_count() * cols);
        if cols > 0 {
            launch_chunks(&mut data, cols, |r, out| {
                let ctx = &plan.ctxs[r];
                let narrow = plan.narrow[r];
                let pows = &plan.limb_residues[r];
                for (o, v) in out.iter_mut().zip(values) {
                    *o = residue_of(ctx, narrow, pows, v.limbs());
                }
            });
        }
        RnsMatrix {
            rows: plan.moduli_count(),
            cols,
            data,
        }
    }

    /// A copy of this matrix whose residue plane comes from `pool` instead of
    /// the allocator — the pooled twin of `Clone`, used by owners that recycle
    /// their planes on drop.
    pub fn clone_with_pool(&self, pool: &BufferPool) -> Self {
        let mut data = pool.acquire(self.data.len());
        data.copy_from_slice(&self.data);
        RnsMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Tears the matrix down to its flat storage, leaving it empty (0 × 0).
    /// This is the hand-back half of the pooled lifecycle: an owner that
    /// acquired the plane from a [`BufferPool`] takes the storage here and
    /// recycles it instead of letting the `Vec` drop to the allocator.
    pub fn take_storage(&mut self) -> Vec<u64> {
        self.rows = 0;
        self.cols = 0;
        std::mem::take(&mut self.data)
    }

    /// Number of residue rows (= basis moduli).
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// Number of elements (columns).
    pub fn len(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.cols == 0
    }

    /// One residue row: the residues of every element modulo basis prime `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row(&self, r: usize) -> &[u64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of the whole row-major plane (row `r` at
    /// `r * len() .. (r + 1) * len()`) — the in-place hook that lets ring-level
    /// callers run a per-modulus transform (e.g. a negacyclic NTT) on every
    /// row in one launch without copying the plane out and back.
    pub fn rows_mut(&mut self) -> &mut [u64] {
        &mut self.data
    }

    /// Extracts one element's residue column as an [`RnsInt`] (inspection /
    /// interop path; allocates).
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn element(&self, c: usize) -> RnsInt {
        assert!(c < self.cols, "column out of range");
        RnsInt {
            residues: (0..self.rows)
                .map(|r| self.data[r * self.cols + c])
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::RnsVector;
    use moma_bignum::random::random_bits;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A one-shot heap pool: its misses are exactly the planes allocated.
    fn heap() -> BufferPool {
        BufferPool::new()
    }

    /// Element-wise `a * b` on a one-shot pool.
    fn mul(plan: &RnsPlan, a: &RnsMatrix, b: &RnsMatrix) -> RnsMatrix {
        plan.apply(BlasOp::VecMul, None, a, b, &heap()).0
    }

    fn setup(n: usize, bits: u32) -> (RnsContext, RnsPlan, Vec<BigUint>, Vec<BigUint>) {
        let ctx = RnsContext::with_capacity_bits(2 * bits + 8);
        let plan = RnsPlan::new(&ctx);
        let mut rng = StdRng::seed_from_u64(0x504c_414e);
        let a: Vec<BigUint> = (0..n).map(|_| random_bits(&mut rng, bits)).collect();
        let b: Vec<BigUint> = (0..n).map(|_| random_bits(&mut rng, bits)).collect();
        (ctx, plan, a, b)
    }

    #[test]
    fn residues_match_context_oracle() {
        let (ctx, plan, a, _) = setup(12, 140);
        for v in a.iter().chain([&BigUint::zero(), &BigUint::one()]) {
            assert_eq!(plan.to_residues(v), ctx.to_residues(v), "value {v:?}");
        }
    }

    #[test]
    fn matrix_round_trips_through_crt() {
        let (_, plan, a, _) = setup(9, 200);
        let m = RnsMatrix::from_biguints(&plan, &a, &heap());
        assert_eq!(m.row_count(), plan.moduli_count());
        assert_eq!(m.len(), 9);
        assert_eq!(plan.to_biguints(&m), a);
    }

    #[test]
    fn elementwise_ops_match_vector_oracle() {
        let (ctx, plan, a, b) = setup(16, 120);
        let va = RnsVector::from_biguints(&ctx, &a);
        let vb = RnsVector::from_biguints(&ctx, &b);
        let ma = RnsMatrix::from_biguints(&plan, &a, &heap());
        let mb = RnsMatrix::from_biguints(&plan, &b, &heap());
        type Oracle = fn(&RnsContext, &RnsInt, &RnsInt) -> RnsInt;
        let checks: [(BlasOp, Oracle); 3] = [
            (BlasOp::VecMul, |c, x, y| c.mul(x, y)),
            (BlasOp::VecAdd, |c, x, y| c.add(x, y)),
            (BlasOp::VecSub, |c, x, y| c.sub(x, y)),
        ];
        for (op, oracle) in checks {
            let (out, stats) = plan.apply(op, None, &ma, &mb, &heap());
            assert_eq!(stats.threads, plan.moduli_count(), "{op:?}");
            for c in 0..a.len() {
                assert_eq!(
                    out.element(c),
                    oracle(&ctx, &va.elements[c], &vb.elements[c]),
                    "{op:?} column {c}"
                );
            }
        }
    }

    #[test]
    fn axpy_matches_positional() {
        let (_, plan, x, y) = setup(8, 100);
        let s = BigUint::from(0xdead_beefu64);
        let mx = RnsMatrix::from_biguints(&plan, &x, &heap());
        let my = RnsMatrix::from_biguints(&plan, &y, &heap());
        let (out, _) = plan.apply(BlasOp::Axpy, Some(&plan.to_residues(&s)), &mx, &my, &heap());
        let back = plan.to_biguints(&out);
        for c in 0..x.len() {
            assert_eq!(back[c], &(&s * &x[c]) + &y[c]);
        }
    }

    #[test]
    fn mul_axpy_kernel_collapses_to_accumulation_loops() {
        let plan = RnsPlan::with_capacity_bits(160);
        let kernel = plan.mul_axpy_kernel_ir();
        moma_ir::validate::validate(&kernel).expect("fused chain kernel validates");
        let k = plan.moduli_count() as u64;
        let counts = CompiledKernel::compile(&kernel)
            .unwrap()
            .counts_per_element()
            .clone();
        // Per row: a single-pair loop for the product and a two-pair loop for
        // `t·s + z` (the addend folded as the extra pair); nothing survives
        // unfused.
        assert_eq!(counts.get("macreduce"), 3 * k);
        assert_eq!(counts.get("reducewide"), 2 * k);
        assert_eq!(counts.get("mulmod"), 0);
        assert_eq!(counts.get("macmod"), 0);
    }

    #[test]
    fn fused_mul_axpy_matches_the_unfused_chain_in_one_launch() {
        // A mixed narrow/wide basis so both multiplication dispatches of the
        // unfused path are crosschecked against the generated kernel.
        let narrow = RnsContext::with_random_primes(2, 31, 0xa1)
            .moduli()
            .to_vec();
        let wide = RnsContext::with_random_primes(2, 52, 0xa2)
            .moduli()
            .to_vec();
        let ctx = RnsContext::with_moduli(&[narrow[0], wide[0], narrow[1], wide[1]]);
        let plan = RnsPlan::new(&ctx);
        let mut rng = StdRng::seed_from_u64(0xaf99);
        let mut draw = |n: usize| -> Vec<BigUint> {
            (0..n)
                .map(|_| moma_bignum::random::random_below(&mut rng, &plan.product))
                .collect()
        };
        let (va, vb, vz) = (draw(19), draw(19), draw(19));
        let s_val = draw(1).remove(0);
        let a = RnsMatrix::from_biguints(&plan, &va, &heap());
        let b = RnsMatrix::from_biguints(&plan, &vb, &heap());
        let z = RnsMatrix::from_biguints(&plan, &vz, &heap());
        let s = plan.to_residues(&s_val);
        let kernel = CompiledKernel::compile(&plan.mul_axpy_kernel_ir()).unwrap();
        let (prod, mul_stats) = plan.apply(BlasOp::VecMul, None, &a, &b, &heap());
        let (unfused, axpy_stats) = plan.apply(BlasOp::Axpy, Some(&s), &prod, &z, &heap());
        let (fused, stats) = plan.mul_axpy(&a, &b, &s, &z, &kernel, &heap());
        assert_eq!(fused, unfused, "fusion must not change a single bit");
        assert_eq!(mul_stats.launches + axpy_stats.launches, 2);
        assert_eq!(stats.launches, 1, "the whole chain is one launch");
        assert_eq!(stats.threads, va.len(), "one thread per element");
        // And positionally: s·(a·b mod M) + z (mod M).
        for (c, back) in plan.to_biguints(&fused).iter().enumerate() {
            let expect =
                &(&(&s_val * &(&(&va[c] * &vb[c]) % &plan.product)) + &vz[c]) % &plan.product;
            assert_eq!(back, &expect, "column {c}");
        }
        // Empty batches short-circuit.
        let empty = RnsMatrix::from_biguints(&plan, &[], &heap());
        let (out, stats) = plan.mul_axpy(&empty, &empty, &s, &empty, &kernel, &heap());
        assert!(out.is_empty());
        assert_eq!(stats.launches, 0);
    }

    #[test]
    #[should_panic(expected = "kernel shape")]
    fn fused_mul_axpy_rejects_a_mismatched_kernel() {
        let plan = RnsPlan::with_capacity_bits(96);
        let other = RnsPlan::with_capacity_bits(256);
        let m = RnsMatrix::from_biguints(&plan, &[BigUint::one()], &heap());
        let s = plan.to_residues(&BigUint::one());
        let wrong = CompiledKernel::compile(&other.mul_axpy_kernel_ir()).unwrap();
        plan.mul_axpy(&m, &m, &s, &m, &wrong, &heap());
    }

    #[test]
    fn reduce_mod_matches_oracle() {
        let (ctx, plan, a, b) = setup(4, 120);
        let q = BigUint::from_hex("ffffffffffffffffffffffffffffff61").unwrap();
        let prod = mul(
            &plan,
            &RnsMatrix::from_biguints(&plan, &a, &heap()),
            &RnsMatrix::from_biguints(&plan, &b, &heap()),
        );
        let reduced = plan.reduce_mod(&prod, &q);
        for (c, back) in plan.to_biguints(&reduced).iter().enumerate() {
            assert_eq!(back, &((&a[c] * &b[c]) % &q));
            assert_eq!(reduced.element(c), ctx.reduce_mod(&prod.element(c), &q));
        }
    }

    #[test]
    fn empty_matrix_is_fine() {
        let plan = RnsPlan::with_capacity_bits(64);
        let m = RnsMatrix::from_biguints(&plan, &[], &heap());
        assert!(m.is_empty());
        assert!(mul(&plan, &m, &m).is_empty());
        assert!(plan.to_biguints(&m).is_empty());
    }

    #[test]
    #[should_panic(expected = "dynamic range")]
    fn oversized_value_rejected() {
        let plan = RnsPlan::with_capacity_bits(64);
        RnsMatrix::from_biguints(&plan, &[BigUint::from(1u64) << 200], &heap());
    }

    #[test]
    #[should_panic(expected = "basis mismatch")]
    fn mismatched_bases_rejected() {
        let small = RnsPlan::with_capacity_bits(64);
        let large = RnsPlan::with_capacity_bits(256);
        let m = RnsMatrix::from_biguints(&large, &[BigUint::one()], &heap());
        mul(&small, &m, &m);
    }

    #[test]
    fn from_tables_roundtrips_bit_for_bit() {
        let (_, plan, a, b) = setup(11, 150);
        let moduli: Vec<u64> = plan.moduli().collect();
        let restored =
            RnsPlan::from_tables(&moduli, plan.product.clone(), plan.crt_tables().to_vec())
                .expect("fresh tables restore");
        assert_eq!(restored.moduli().collect::<Vec<u64>>(), moduli);
        assert_eq!(restored.product, plan.product);
        assert_eq!(restored.crt_tables(), plan.crt_tables());
        assert_eq!(restored.narrow, plan.narrow);
        assert_eq!(restored.limb_residues, plan.limb_residues);
        // The restored plan computes identically to the fresh one.
        let ma = RnsMatrix::from_biguints(&restored, &a, &heap());
        let mb = RnsMatrix::from_biguints(&restored, &b, &heap());
        assert_eq!(mul(&restored, &ma, &mb), mul(&plan, &ma, &mb));
        assert_eq!(plan.to_biguints(&mul(&restored, &ma, &mb)).len(), a.len());
    }

    #[test]
    fn from_tables_fails_closed() {
        let plan = RnsPlan::with_capacity_bits(128);
        let moduli: Vec<u64> = plan.moduli().collect();
        let product = plan.product.clone();
        let crt = plan.crt_tables().to_vec();

        // Modulus out of range.
        let mut bad = moduli.clone();
        bad[0] = 1;
        assert!(matches!(
            RnsPlan::from_tables(&bad, product.clone(), crt.clone()),
            Err(PlanRestoreError::BadModulus { q: 1 })
        ));
        let mut wide = moduli.clone();
        wide[0] = 1 << 61;
        assert!(matches!(
            RnsPlan::from_tables(&wide, product.clone(), crt.clone()),
            Err(PlanRestoreError::BadModulus { .. })
        ));

        // Table count disagrees with the basis.
        assert!(matches!(
            RnsPlan::from_tables(&moduli, product.clone(), crt[1..].to_vec()),
            Err(PlanRestoreError::ShapeMismatch)
        ));
        assert!(matches!(
            RnsPlan::from_tables(&[], BigUint::one(), Vec::new()),
            Err(PlanRestoreError::ShapeMismatch)
        ));

        // Product that is not the basis product.
        assert!(matches!(
            RnsPlan::from_tables(&moduli, &product + &BigUint::one(), crt.clone()),
            Err(PlanRestoreError::BadProduct)
        ));

        // A flipped inverse word.
        let mut tampered = crt.clone();
        tampered[1].1 ^= 1;
        assert!(matches!(
            RnsPlan::from_tables(&moduli, product.clone(), tampered),
            Err(PlanRestoreError::BadCrt { index: 1 })
        ));

        // A perturbed punctured product M_i.
        let mut tampered = crt.clone();
        tampered[0].0 = &tampered[0].0 + &BigUint::one();
        assert!(matches!(
            RnsPlan::from_tables(&moduli, product.clone(), tampered),
            Err(PlanRestoreError::BadCrt { index: 0 })
        ));

        // Everything intact still restores.
        assert!(RnsPlan::from_tables(&moduli, product, crt).is_ok());
    }

    #[test]
    fn ops_go_allocation_free_on_a_warm_pool() {
        let (_, plan, a, b) = setup(14, 120);
        let pool = BufferPool::new();
        let ma = RnsMatrix::from_biguints(&plan, &a, &heap());
        let mb = RnsMatrix::from_biguints(&plan, &b, &heap());
        let s = plan.to_residues(&BigUint::from(0x5eedu64));
        let kernel = CompiledKernel::compile(&plan.mul_axpy_kernel_ir()).unwrap();

        // Cold pool: each output plane misses once.
        let (mut cold_mul, cold_stats) = plan.apply(BlasOp::VecMul, None, &ma, &mb, &pool);
        assert_eq!(cold_stats.allocs, 1, "cold pool misses once");
        let (mut cold_fused, fused_stats) = plan.mul_axpy(&ma, &mb, &s, &mb, &kernel, &pool);
        assert_eq!(fused_stats.allocs, 1, "cold pool misses once");
        let mut cold_in = RnsMatrix::from_biguints(&plan, &a, &pool);
        assert_eq!(cold_in, ma);
        let (heap_mul, heap_fused) = (cold_mul.clone(), cold_fused.clone());
        pool.recycle(cold_mul.take_storage());
        pool.recycle(cold_fused.take_storage());
        pool.recycle(cold_in.take_storage());

        // Warm pool: every plane is served from the shelves, bit-identically.
        for round in 0..5 {
            let before = pool.misses();
            let (mut warm_mul, warm_stats) = plan.apply(BlasOp::VecMul, None, &ma, &mb, &pool);
            let (mut warm_fused, fused_stats) = plan.mul_axpy(&ma, &mb, &s, &mb, &kernel, &pool);
            let mut warm_in = RnsMatrix::from_biguints(&plan, &a, &pool);
            assert_eq!(warm_mul, heap_mul, "round {round}");
            assert_eq!(warm_fused, heap_fused, "round {round}");
            assert_eq!(warm_in, ma, "round {round}");
            assert_eq!(warm_stats.allocs, 0, "round {round} mul is allocation-free");
            assert_eq!(
                fused_stats.allocs, 0,
                "round {round} fused is allocation-free"
            );
            assert_eq!(pool.misses(), before, "round {round} never missed");
            pool.recycle(warm_mul.take_storage());
            pool.recycle(warm_fused.take_storage());
            pool.recycle(warm_in.take_storage());
        }
    }
}
