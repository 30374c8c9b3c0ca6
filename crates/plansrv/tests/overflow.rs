//! One request must not hang the server for every later client. A 3×3
//! matrix whose off-diagonal cells are `1e308` passes the wire's
//! per-cell check (each cell is finite and non-negative), but its cell
//! total is not finite, so the event times of a list schedule would
//! overflow. The server refuses it at the door with a typed error, and
//! its only worker is still there for the next, ordinary request.
//! Likewise a request too big for one frame is refused by the client
//! itself, before it writes, as a typed `Oversized` error.

use adaptcomm_core::matrix::CommMatrix;
use adaptcomm_plansrv::proto::{PlanResponse, ProtocolError, QosSpec, MAX_FRAME};
use adaptcomm_plansrv::{ClientError, PlanClient, PlanServer, PlanServerConfig};
use std::sync::mpsc;
use std::time::Duration;

#[test]
fn an_overflowing_matrix_costs_one_error_reply_not_the_worker() {
    let config = PlanServerConfig {
        workers: 1,
        ..Default::default()
    };
    let server = PlanServer::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    let overflow = CommMatrix::from_fn(3, |s, d| if s == d { 0.0 } else { 1e308 });
    let ordinary = CommMatrix::from_fn(3, |s, d| if s == d { 0.0 } else { (s + 2 * d) as f64 });

    // The client runs on its own thread, so a server that never answers
    // fails this test on the timeout below instead of hanging it.
    let (replies, replied) = mpsc::channel();
    std::thread::spawn(move || {
        let mut client = PlanClient::connect(addr).expect("connect");
        for matrix in [&overflow, &ordinary] {
            let reply = client.plan("t", "greedy", matrix, QosSpec::default());
            if replies.send(reply.expect("round trip")).is_err() {
                return;
            }
        }
    });
    let next = |what: &str| {
        let reply = replied.recv_timeout(Duration::from_secs(5));
        reply.unwrap_or_else(|_| panic!("no reply to the {what} request in 5 s"))
    };
    let refused = next("overflowing");
    assert!(matches!(refused, PlanResponse::Error { .. }), "{refused:?}");
    match next("ordinary") {
        PlanResponse::Ok(ok) => assert_eq!(ok.order.processors(), 3),
        other => panic!("expected a plan, got {other:?}"),
    }
    // The refusal names its cause, and it never reached the cache.
    let PlanResponse::Error { detail } = refused else {
        unreachable!("checked above");
    };
    assert!(detail.contains("cell total"), "{detail}");
    let stats = server.service().cache_stats();
    assert_eq!((stats.misses, stats.inserts), (1, 1));
    server.shutdown();
}

/// A matrix too big for one frame (P = 1500: 18 MB of cells) is refused
/// by the client before it writes a byte, as a typed `Oversized`, and
/// the connection still serves the next request.
#[test]
fn an_oversized_request_is_refused_by_the_client_before_it_writes() {
    let server = PlanServer::bind("127.0.0.1:0", PlanServerConfig::default()).expect("bind");
    let mut client = PlanClient::connect(server.local_addr()).expect("connect");
    let big = CommMatrix::from_fn(1500, |s, d| 1.0 + (s * 1500 + d) as f64 / 7.0);
    match client.plan("t", "greedy", &big, QosSpec::default()) {
        Err(ClientError::Protocol(ProtocolError::Oversized { len, max })) => {
            assert!(len > max && max == MAX_FRAME, "{len} vs {max}");
        }
        other => panic!("expected a typed Oversized error, got {other:?}"),
    }
    drop(big);
    let small = CommMatrix::from_fn(3, |s, d| if s == d { 0.0 } else { (s + 2 * d) as f64 });
    match client.plan("t", "greedy", &small, QosSpec::default()) {
        Ok(PlanResponse::Ok(ok)) => assert_eq!(ok.order.processors(), 3),
        other => panic!("expected a plan, got {other:?}"),
    }
    server.shutdown();
}
