//! Batched service example: one shared `Session` behind a `moma-serve` server,
//! hit by concurrent clients whose requests coalesce into batched
//! launches.
//!
//! Run with: `cargo run -p moma-examples --example batched_service`
//!
//! Demonstrates the PR-6 ownership model end to end: `Session` is a cheap
//! `Clone` handle over shared caches, the handles it yields are owned and
//! `Send + 'static`, and the server's coalescing batcher turns many concurrent
//! single-transform requests into one single-launch batch.
//!
//! Part two demonstrates the degraded-mode contract on a deliberately tiny
//! server: a per-request deadline missed while the worker is wedged, a
//! bounded queue shedding a flood at admission, and `call_with_retry` riding
//! out the overload with jittered exponential backoff.

use moma::bignum::BigUint;
use moma::Session;
use moma_serve::{
    Fault, FaultPlan, Response, RetryPolicy, ServeConfig, ServeError, Server, WorkItem,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

fn main() {
    let session = Session::default();
    let server = Server::new(
        session.clone(),
        ServeConfig {
            workers: 2,
            max_batch: 32,
            min_batch: 4,
            batch_window: Duration::from_millis(5),
            ..ServeConfig::default()
        },
    );

    // A tenant pins an RNS basis pair once; every chain request reuses it.
    let src_moduli = session.rns_with_capacity(128).moduli();
    let tenant = server.register_tenant(&src_moduli, &src_moduli[..4]);
    let product = session.rns(&src_moduli).product().clone();

    let n = 1024;
    let space = session.ntt_default(n);
    let q = space.modulus();

    // Eight closed-loop clients: each thread owns a Client clone and keeps one
    // request in flight. Concurrent NTT requests for the same (q, n) coalesce.
    let per_client = 16;
    std::thread::scope(|s| {
        for c in 0..8u64 {
            let client = server.client();
            let product = &product;
            s.spawn(move || {
                let mut rng = StdRng::seed_from_u64(c);
                for i in 0..per_client {
                    let done = if i % 4 == 3 {
                        let operand = |rng: &mut StdRng| -> Vec<BigUint> {
                            (0..4)
                                .map(|_| moma::bignum::random::random_below(rng, product))
                                .collect()
                        };
                        client
                            .call(WorkItem::RnsMulRescaleExtend {
                                tenant,
                                a: operand(&mut rng),
                                b: operand(&mut rng),
                            })
                            .expect("rns chain")
                    } else {
                        client
                            .call(WorkItem::NttForward {
                                q,
                                n,
                                data: (0..n).map(|_| rng.gen_range(0..q)).collect(),
                            })
                            .expect("ntt transform")
                    };
                    if i == per_client - 1 {
                        let kind = match done.response {
                            Response::Ntt(_) => "ntt",
                            Response::Rns(_) => "rns chain",
                            Response::Ladder(_) => "ladder step",
                        };
                        println!(
                            "client {c}: last request ({kind}) rode a batch of {} \
                             ({} launches for the whole batch)",
                            done.batch_size, done.batch_launches
                        );
                    }
                }
            });
        }
    });

    let stats = server.stats();
    println!(
        "\nserved {} requests in {} batches (largest {}, {} coalesced) — {} total launches",
        stats.completed,
        stats.batches,
        stats.largest_batch,
        stats.coalesced_requests,
        stats.launches
    );
    let ntt = session.stats().ntt;
    println!(
        "NTT plan cache: {} misses, {} hits ({} contended waits) — one build served everyone",
        ntt.misses, ntt.hits, ntt.contended
    );

    degraded_mode_demo(&session);
}

/// The degraded-mode contract on a deliberately tiny server: one worker, no
/// batching, a two-slot queue, and an injected 40 ms stall on the very first
/// request so the failure paths are reachable on demand.
fn degraded_mode_demo(session: &Session) {
    println!("\n-- degraded mode: deadlines, shedding, retry --");
    let server = Server::new(
        session.clone(),
        ServeConfig {
            workers: 1,
            max_batch: 1,
            min_batch: 1,
            batch_window: Duration::ZERO,
            queue_depth: 2,
            fault_plan: FaultPlan::new().with(0, Fault::Delay(Duration::from_millis(40))),
        },
    );
    let client = server.client();
    let n = 64;
    let q = session.ntt_default(n).modulus();
    let item = |seed: u64| WorkItem::NttForward {
        q,
        n,
        data: (0..n as u64).map(|j| (seed * 131 + j) % q).collect(),
    };

    // Request 0 wedges the only worker for 40 ms (the injected fault).
    let wedge = client.submit(item(0)).expect("first request is admitted");

    // A 5 ms deadline cannot survive a 40 ms wedge: the server expires the
    // request instead of wasting launches on an answer nobody is waiting for.
    let doomed = client
        .submit_with_deadline(item(1), Duration::from_millis(5))
        .expect("admitted before the queue fills");
    // A flood against the wedged worker fills the two-slot queue; the rest
    // fail fast at admission instead of queueing behind the stall.
    let flood: Vec<_> = (0..8).map(|i| client.submit(item(2 + i))).collect();
    let shed_now = flood
        .iter()
        .filter(|r| matches!(r, Err(ServeError::Overloaded)))
        .count();

    // A retrying caller rides out the overload: jittered exponential backoff
    // under an attempt budget, deterministic given the policy seed.
    let policy = RetryPolicy {
        attempts: 10,
        base_backoff: Duration::from_millis(5),
        ..RetryPolicy::default()
    };
    let retried = client
        .call_with_retry(item(99), &policy)
        .expect("retry outlasts the 40 ms wedge");

    assert!(matches!(doomed.wait(), Err(ServeError::DeadlineExceeded)));
    wedge.wait().expect("the wedged request still completes");
    for ticket in flood.into_iter().flatten() {
        ticket.wait().expect("accepted flood requests complete");
    }
    let stats = server.stats();
    println!(
        "deadline missed under a 40 ms injected stall -> DeadlineExceeded (expired {})",
        stats.expired
    );
    println!(
        "flood of 8 against a full two-slot queue -> {shed_now} rejected at admission (shed {})",
        stats.shed
    );
    println!(
        "call_with_retry rode out the overload and completed (batch of {})",
        retried.batch_size
    );
}
