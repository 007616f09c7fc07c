//! A GPU execution simulator.
//!
//! The paper benchmarks nvcc-compiled CUDA kernels on three NVIDIA GPUs (Table 2).
//! Neither the GPUs nor the CUDA toolchain are available in this reproduction, so this
//! crate provides the closest synthetic equivalent that exercises the same code paths:
//!
//! * [`device`] — device models for the H100, RTX 4090, and V100 with the Table 2
//!   specifications plus the public architectural figures the cost model needs;
//! * [`launch`] — a data-parallel batch launcher that executes one virtual CUDA thread
//!   per element on a host thread pool: four entry points (indexed, in-place chunks,
//!   and flat-batch / row-scatter launches of compiled generated kernels) over one
//!   fork-join executor, used both for functional execution and for wall-clock
//!   measurements of the runtime-library kernels;
//! * [`pool`] — a thread-safe buffer pool that hands out reusable plane-sized
//!   `u64` buffers keyed by size class, the host stand-in for a
//!   device memory pool: steady-state serving acquires every working plane here
//!   instead of the allocator, and the hit/miss counters make "allocation-free
//!   after warmup" a tested invariant;
//! * [`cost`] — an analytical cost model that converts per-thread word-operation counts
//!   (produced by the rewrite system / interpreter) into estimated kernel runtimes on a
//!   given device, including the shared-memory capacity cliff the paper observes for
//!   NTT sizes above 2^10.
//!
//! Absolute times are not expected to match the authors' hardware; the model is
//! calibrated so that the *shape* of the paper's figures (scaling with bit-width and
//! transform size, device ordering, memory cliffs) is preserved.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod device;
pub mod launch;
pub mod pool;

pub use cost::{CostModel, KernelCostEstimate};
pub use device::DeviceSpec;
pub use launch::{
    launch_chunks, launch_compiled_batch, launch_compiled_rows, launch_indexed, LaunchStats,
};
pub use pool::{BufferPool, PoolStats};
