//! Graceful-lifecycle regression tests: ephemeral-port bind, the
//! shutdown control frame, an old client's frame, and — the
//! load-bearing one — in-flight requests completing before the server
//! stops.

use adaptcomm_core::matrix::CommMatrix;
use adaptcomm_plansrv::proto::{parse_response, FrameReader, PlanResponse, QosSpec};
use adaptcomm_plansrv::{PlanClient, PlanServer, PlanServerConfig};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

fn matrix(p: usize) -> CommMatrix {
    CommMatrix::from_fn(p, |s, d| {
        if s == d {
            0.0
        } else {
            50.0 + 40.0 * ((s as f64) * 1.37).sin() * ((d as f64) * 0.73).cos()
        }
    })
}

#[test]
fn binds_an_ephemeral_port_and_acknowledges_shutdown() {
    let server = PlanServer::bind("127.0.0.1:0", PlanServerConfig::default()).expect("bind");
    assert_ne!(server.local_addr().port(), 0, "port 0 must resolve");
    let client = PlanClient::connect(server.local_addr()).expect("connect");
    let bye = client.shutdown().expect("shutdown round-trip");
    assert!(matches!(bye, PlanResponse::Bye));
    // The control frame alone stops the server; join() must return.
    server.join();
}

#[test]
fn server_side_shutdown_joins_cleanly() {
    let server = PlanServer::bind("127.0.0.1:0", PlanServerConfig::default()).expect("bind");
    // No clients at all: shutdown must not hang on the accept loop.
    server.shutdown();
}

#[test]
fn near_requests_are_replanned_incrementally_and_match_a_cold_solve() {
    use adaptcomm_core::algorithms::{MatchingKind, MatchingScheduler, REPLAN_GAP};
    use adaptcomm_core::schedule::SendOrder;
    use adaptcomm_plansrv::proto::CacheDisposition;

    let config = PlanServerConfig {
        threads: 2,
        ..Default::default()
    };
    let server = PlanServer::bind("127.0.0.1:0", config).expect("bind");
    let mut client = PlanClient::connect(server.local_addr()).expect("connect");
    let m = matrix(12);
    let ok = |r: PlanResponse| match r {
        PlanResponse::Ok(ok) => ok,
        other => panic!("expected a plan, got {other:?}"),
    };

    let cold = ok(client
        .plan("t", "matching-max", &m, QosSpec::default())
        .expect("cold"));
    assert_eq!(cold.cache, CacheDisposition::Cold);

    // The same matrix replays verbatim.
    let hit = ok(client
        .plan("t", "matching-max", &m, QosSpec::default())
        .expect("hit"));
    assert_eq!(hit.cache, CacheDisposition::Hit);
    assert_eq!(hit.order, cold.order);

    // A small perturbation (max cell untouched) is served by §6
    // incremental rescheduling off the retained plan...
    let mut rows: Vec<Vec<f64>> = (0..12).map(|s| m.row(s).to_vec()).collect();
    rows[0][1] *= 1.03;
    rows[5][7] *= 0.97;
    let near = CommMatrix::from_rows(&rows);
    let inc = ok(client
        .plan("t", "matching-max", &near, QosSpec::default())
        .expect("incremental"));
    assert_eq!(inc.cache, CacheDisposition::Incremental);

    // ...and the kept-plus-resolved plan is exactly the in-process
    // replan of the cold plan, whose every kept round is certified
    // within `REPLAN_GAP` of its weight.
    let sched = MatchingScheduler::new(MatchingKind::Max);
    let reference = sched.replan_incremental(&sched.plan_seeded(&m, None), &near);
    assert_eq!(inc.order, SendOrder::from_steps(12, &reference.steps));
    let weight: f64 = (reference.steps[..reference.spliced_rounds].iter())
        .flat_map(|step| step.iter().enumerate())
        .map(|(s, d)| near.row(s)[d.expect("complete step")])
        .sum();
    assert!(reference.certified_gap <= REPLAN_GAP * weight);

    server.shutdown();
}

#[test]
fn in_flight_requests_complete_before_the_server_stops() {
    // One deliberately slow worker: the pace knob stretches the solve
    // so the shutdown frame provably arrives while work is in flight.
    let config = PlanServerConfig {
        workers: 1,
        pace: Some(Duration::from_millis(300)),
        ..Default::default()
    };
    let server = PlanServer::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();

    let slow = std::thread::spawn(move || {
        let mut client = PlanClient::connect(addr).expect("connect");
        client.plan(
            "tenant-slow",
            "matching-max",
            &matrix(16),
            QosSpec::default(),
        )
    });
    // Let the slow request reach the worker before asking to stop.
    std::thread::sleep(Duration::from_millis(80));

    let bye = PlanClient::connect(addr)
        .expect("connect for shutdown")
        .shutdown()
        .expect("shutdown round-trip");
    assert!(matches!(bye, PlanResponse::Bye));

    // The in-flight request must still be answered with a real plan —
    // the drain ordering (handlers join before the queue closes) is
    // exactly what this pins.
    match slow.join().expect("client thread").expect("response") {
        PlanResponse::Ok(ok) => {
            assert!(ok.completion_ms > 0.0);
            assert_eq!(ok.order.processors(), 16);
        }
        other => panic!("in-flight request was dropped: {other:?}"),
    }
    server.join();

    // And after the drain the port is actually released.
    let err = PlanClient::connect(addr);
    assert!(err.is_err(), "listener must be gone after join()");
}

#[test]
fn an_old_client_gets_a_typed_answer_naming_its_version() {
    // A version-1 client's request, as that protocol wrote it: the
    // matrix as JSON text, under frame tag 1.
    const V1_REQUEST: &str = r#"{"type":"plan","tenant":"t","algorithm":"greedy","matrix":[[0.0,0.30000000000000004],[12345678.9,0.0]],"qos":{"deadline_ms":0.0,"priority":0,"critical":[[1,0]]}}"#;
    let server = PlanServer::bind("127.0.0.1:0", PlanServerConfig::default()).expect("bind");
    let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
    // A server that neither answers nor hangs up fails here, not hangs.
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    let mut frame = 1u64.to_le_bytes().to_vec();
    frame.extend_from_slice(&(V1_REQUEST.len() as u64).to_le_bytes());
    frame.extend_from_slice(V1_REQUEST.as_bytes());
    stream.write_all(&frame).expect("write the v1 frame");

    let mut reply = Vec::new();
    stream
        .read_to_end(&mut reply)
        .expect("the server answers, then closes the connection");
    let mut reader = FrameReader::new();
    reader.push(&reply);
    let payload = reader.next_frame().expect("a v2 frame").expect("whole");
    match parse_response(&payload).expect("a well-formed reply") {
        PlanResponse::Error { detail } => {
            assert!(detail.contains("version 1"), "{detail}")
        }
        other => panic!("expected an error naming version 1, got {other:?}"),
    }
    assert_eq!(reader.next_frame(), Ok(None), "one reply, then close");
    reader.finish().expect("nothing after the reply");
    // The server is still serving other clients.
    let mut client = PlanClient::connect(server.local_addr()).expect("connect");
    let ok = client
        .plan("t", "greedy", &matrix(4), QosSpec::default())
        .expect("round trip");
    assert!(matches!(ok, PlanResponse::Ok(_)), "{ok:?}");
    server.shutdown();
}
