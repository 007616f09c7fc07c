//! A batching service front-end over one shared [`moma::Session`].
//!
//! The paper's performance story is *wide launches over warm plans*: a batched
//! NTT runs one launch (one block per transform) however many transforms ride
//! in the batch, and an RNS chain op runs a fixed launch sequence however many
//! elements it covers. A service that executes each client request by itself
//! pays the full launch count per request; a service that **coalesces**
//! concurrent requests into one flat batch divides it by the batch size. This
//! crate is that service, built directly on the owned, `Send + 'static` session
//! handles (`NttSpace`, `RnsSpace`, `RnsVec`):
//!
//! * [`Server`] owns a shared [`moma::Session`] clone, a dispatcher thread, a
//!   pool of worker threads, and a supervisor thread that respawns any worker
//!   that dies (plain `std::thread` + `std::sync::mpsc` — no async runtime);
//! * the dispatcher collects in-flight requests for up to a batching window and
//!   groups them by compatible work — same `(q, n)` NTT direction, same tenant
//!   RNS chain — into flat batches;
//! * workers execute each batch through the session's batched launchers
//!   ([`moma::session::NttSpace::forward_batch`]) and fused RNS chains, so the
//!   plans, kernels, and twiddle tables are built once and shared across every
//!   request the server ever sees;
//! * [`Client`] handles are cheap to clone and free to cross threads; a
//!   submitted request yields a [`Ticket`] that resolves to a [`Completion`]
//!   carrying the response plus the batch observability (batch size, launches)
//!   the closed-loop bench aggregates.
//!
//! Tenants ([`Server::register_tenant`]) pin an RNS source/destination basis
//! pair once; every chain request for that tenant reuses the same cached
//! spaces and plans. Ring tenants ([`Server::register_ring_tenant`]) do the
//! same for a negacyclic ring ladder, and [`WorkItem::LadderStep`] traffic
//! for one `(tenant, level)` coalesces into a single batch over the shared
//! ring context.
//!
//! # Degraded-mode contract
//!
//! A production service is defined by how it behaves when things go wrong,
//! so every failure path here is explicit, bounded, and typed:
//!
//! * **Admission control / load shedding** — the submission queue is bounded
//!   ([`ServeConfig::queue_depth`]); when it is full, [`Client::submit`] fails
//!   *fast* with [`ServeError::Overloaded`] instead of queueing, keeping the
//!   latency of *accepted* requests flat under overload ([`ServerStats::shed`]
//!   counts the rejects).
//! * **Deadlines** — [`Client::submit_with_deadline`] attaches a per-request
//!   budget; the dispatcher drops already-expired requests before batching
//!   them and workers re-check right before executing, resolving dead requests
//!   with [`ServeError::DeadlineExceeded`] ([`ServerStats::expired`]) rather
//!   than wasting launches on them.
//! * **Retry** — [`Client::call_with_retry`] retries the transient errors
//!   (`Overloaded`, `Internal`) with deterministic jittered exponential
//!   backoff under a per-call attempt budget ([`RetryPolicy`]); terminal
//!   errors surface immediately through a [`RetryError`] whose
//!   [`source`](std::error::Error::source) is the final [`ServeError`].
//! * **Supervision** — a batch that panics fails only its own group
//!   ([`ServeError::Internal`], with the batch kind and size preserved); a
//!   worker *thread* that dies is respawned by the supervisor
//!   ([`ServerStats::restarts`]), so the pool never silently shrinks.
//! * **Graceful shutdown** — [`Server::drain`] stops admissions and waits for
//!   in-flight work; dropping the [`Server`] resolves every ticket that is
//!   still pending to [`ServeError::Shutdown`] — [`Ticket::wait`] can also be
//!   replaced with [`Ticket::wait_timeout`] when the caller wants its own
//!   bound.
//! * **Fault injection** — a seeded, deterministic [`FaultPlan`] (panics,
//!   delays, spurious batch failures, worker deaths, keyed by request
//!   sequence number) threads through [`ServeConfig::fault_plan`], so each of
//!   the above paths is reproducible in tests and the chaos soak harness.
//!
//! # Example
//!
//! ```
//! use moma::Session;
//! use moma_serve::{Response, ServeConfig, Server, WorkItem};
//!
//! let server = Server::new(Session::default(), ServeConfig::default());
//! let client = server.client();
//! let space = server.session().ntt_default(8);
//! let (q, data) = (space.modulus(), vec![1u64, 2, 3, 4, 5, 6, 7, 0]);
//!
//! let fwd = client
//!     .call(WorkItem::NttForward { q, n: 8, data: data.clone() })
//!     .unwrap();
//! let Response::Ntt(transformed) = fwd.response else { unreachable!() };
//! let inv = client
//!     .call(WorkItem::NttInverse { q, n: 8, data: transformed })
//!     .unwrap();
//! let Response::Ntt(round_trip) = inv.response else { unreachable!() };
//! assert_eq!(round_trip, data);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fault;
mod retry;
mod server;

pub use fault::{Fault, FaultPlan};
pub use retry::{RetryError, RetryPolicy};
pub use server::{
    Client, Completion, Response, RingTenantId, ServeConfig, ServeError, Server, ServerStats,
    TenantId, Ticket, WorkItem,
};
