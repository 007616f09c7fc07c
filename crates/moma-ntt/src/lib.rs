//! Number theoretic transforms over multi-word prime fields.
//!
//! The NTT is the flagship kernel of the paper's evaluation (Figures 1, 3, 4, 5): an
//! `n`-point transform over `Z_q` built from `(n/2)·log2 n` butterflies, each of which
//! performs one modular multiplication, one modular addition, and one modular
//! subtraction. This crate provides:
//!
//! * [`params`] — NTT-friendly prime moduli of every evaluated bit-width (all of the
//!   form `c·2^32 + 1`, so every power-of-two transform size up to `2^32` is supported)
//!   and root-of-unity generation;
//! * [`transform`] — the iterative radix-2 Cooley–Tukey forward and inverse transforms
//!   over [`moma_mp::MpUint`] elements, plus a 64-bit single-word variant;
//! * [`plan`] — precomputed execution plans: bit-reversed twiddle tables built once
//!   per (modulus, n), with Shoup precomputed quotients and lazy reduction on the
//!   single-word path — the hot-path entry points for repeated transforms;
//! * [`launcher`] — execution of the plans on the simulated GPU launcher: a
//!   batch of 64-bit transforms is one launch with one block per transform
//!   (rows may use different moduli), and the multi-word plan dispatches each
//!   stage as one virtual thread per butterfly, the paper's §5.1 shape;
//! * [`mod@reference`] — the `O(n^2)` direct DFT used as a correctness oracle;
//! * [`polymul`] — NTT-based polynomial multiplication (the application motivating the
//!   kernel in FHE/ZKP workloads).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod launcher;
pub mod params;
pub mod plan;
pub mod polymul;
pub mod reference;
pub mod transform;

pub use params::NttParams;
pub use plan::{NttPlan, NttPlan64, NttRestoreError, Stage64};
pub use transform::{forward, inverse, Ntt64};
