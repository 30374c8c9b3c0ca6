//! The exact-hit fast path, from outside: a reply served from the cache
//! on the connection thread is the reply a worker would have computed;
//! the queued path stays honest when the entry it counted on is evicted;
//! inline and queued service share one `served_seq` counter; and a
//! hostile frame costs one connection, not the server.

use adaptcomm_core::algorithms::all_schedulers;
use adaptcomm_core::analyze::quality_of;
use adaptcomm_core::execution::execute_listed;
use adaptcomm_core::matrix::CommMatrix;
use adaptcomm_core::schedule::SendOrder;
use adaptcomm_plansrv::proto::{
    parse_response, CacheDisposition, PlanOk, PlanQuality, PlanResponse, QosSpec, MAX_FRAME,
    PROTO_VERSION,
};
use adaptcomm_plansrv::{PlanClient, PlanServer, PlanServerConfig};
use adaptcomm_runtime::tcp::{read_frame, write_frame};
use proptest::prelude::*;
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::{Duration, Instant};

fn expect_ok(resp: PlanResponse) -> Box<PlanOk> {
    match resp {
        PlanResponse::Ok(ok) => ok,
        other => panic!("expected a plan, got {other:?}"),
    }
}

fn pinned(links: &[(usize, usize)]) -> QosSpec {
    QosSpec {
        critical_links: links.to_vec(),
        ..QosSpec::default()
    }
}

/// The server's pinning rule, restated: each sender's critical
/// destinations first, relative order kept within both groups.
fn pin(order: &SendOrder, links: &[(usize, usize)]) -> SendOrder {
    SendOrder::new(
        order
            .order
            .iter()
            .enumerate()
            .map(|(s, dsts)| {
                let critical = |d: &&usize| links.contains(&(s, **d));
                let mut row: Vec<usize> = dsts.iter().filter(critical).copied().collect();
                row.extend(dsts.iter().filter(|d| !critical(d)));
                row
            })
            .collect(),
    )
}

/// What executing `order` on `matrix` in process predicts.
fn executed(order: &SendOrder, matrix: &CommMatrix) -> (f64, PlanQuality) {
    let schedule = execute_listed(order, matrix);
    let q = quality_of(&schedule);
    let quality = PlanQuality {
        lb_gap_pct: q.gap_pct(),
        critical_path: q.critical_path,
    };
    (schedule.completion_time().as_ms(), quality)
}

fn wavy(p: usize, salt: f64) -> CommMatrix {
    CommMatrix::from_fn(p, |s, d| {
        if s == d {
            0.0
        } else {
            salt + 50.0 + 40.0 * ((s as f64) * 1.37).sin() * ((d as f64) * 0.73).cos()
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Cold solve, exact repeat and fingerprint-only probe give one
    /// answer — order, bit-identical completion, quality — for every
    /// scheduler; pinned links and a sub-quantum perturbation get what
    /// re-executing says, never the retained numbers of another order.
    #[test]
    fn hits_and_probes_replay_the_cold_reply(
        which in 0usize..5,
        p in 2usize..=12,
        cells in proptest::collection::vec(1.0f64..100.0, 144),
        links in proptest::collection::vec((0usize..12, 0usize..12), 3),
    ) {
        let server = PlanServer::bind("127.0.0.1:0", PlanServerConfig::default()).expect("bind");
        let mut client = PlanClient::connect(server.local_addr()).expect("connect");
        let scheduler = &all_schedulers()[which];
        let algorithm = scheduler.name();
        let m = CommMatrix::from_fn(p, |s, d| if s == d { 0.0 } else { cells[s * 12 + d] });
        // A `plan` when given the matrix, else a fingerprint-only `probe`.
        let fingerprint = m.fingerprint();
        let mut ask = |matrix: Option<&CommMatrix>, qos: QosSpec| {
            let resp = match matrix {
                Some(m) => client.plan("t", algorithm, m, qos),
                None => client.probe("t", algorithm, fingerprint, qos),
            };
            expect_ok(resp.expect("round trip"))
        };

        let cold = ask(Some(&m), QosSpec::default());
        prop_assert_eq!(cold.cache, CacheDisposition::Cold);
        prop_assert_eq!(&cold.order, &scheduler.send_order(&m));
        let (completion_ms, quality) = executed(&cold.order, &m);
        prop_assert_eq!(cold.completion_ms.to_bits(), completion_ms.to_bits());
        prop_assert_eq!(cold.quality.as_ref(), Some(&quality));

        for door in [Some(&m), None] {
            let replayed = ask(door, QosSpec::default());
            prop_assert_eq!(replayed.cache, CacheDisposition::Hit);
            prop_assert_eq!(&replayed.order, &cold.order);
            prop_assert_eq!(replayed.completion_ms.to_bits(), cold.completion_ms.to_bits());
            prop_assert_eq!(&replayed.quality, &cold.quality);
            prop_assert_eq!(replayed.epoch, cold.epoch);
        }

        // Pinned links: the cached plan, pinned, and *its* execution —
        // through the matrix-carrying and the fingerprint-only door.
        let links: Vec<(usize, usize)> = links.into_iter().map(|(s, d)| (s % p, d % p)).collect();
        let want = pin(&cold.order, &links);
        let (completion_ms, quality) = executed(&want, &m);
        for door in [Some(&m), None] {
            let replayed = ask(door, pinned(&links));
            prop_assert_eq!(replayed.cache, CacheDisposition::Hit);
            prop_assert_eq!(&replayed.order, &want);
            prop_assert_eq!(replayed.completion_ms.to_bits(), completion_ms.to_bits());
            prop_assert_eq!(replayed.quality.as_ref(), Some(&quality));
        }
        // Pinned replies left the retained numbers alone.
        let again = ask(None, QosSpec::default());
        prop_assert_eq!(again.completion_ms.to_bits(), cold.completion_ms.to_bits());

        // 1e-12 relative is far inside the 2⁻²⁰ fingerprint quantum: an
        // exact hit, reporting the cached matrix's completion.
        let nudged =
            CommMatrix::from_fn(p, |s, d| m.row(s)[d] * (1.0 + 1e-12 * ((s + d) % 3) as f64));
        if nudged.fingerprint() == fingerprint {
            let near_exact = ask(Some(&nudged), QosSpec::default());
            prop_assert_eq!(near_exact.cache, CacheDisposition::Hit);
            prop_assert_eq!(&near_exact.order, &cold.order);
            let on_sent = executed(&cold.order, &nudged).0;
            prop_assert!((near_exact.completion_ms - on_sent).abs() <= 1e-9 * on_sent);
        }
        server.shutdown();
    }
}

/// Admission prices a pinned repeat as a replay because the entry is
/// there; by the time the worker looks, a solve ahead of it in the queue
/// has evicted the entry (capacity 1). The worker must solve, say so,
/// and still pin and execute correctly.
#[test]
fn an_entry_evicted_between_admission_and_service_is_solved_honestly() {
    let config = PlanServerConfig {
        workers: 1,
        cache_capacity: 1,
        pace: Some(Duration::from_millis(400)),
        ..Default::default()
    };
    let server = PlanServer::bind("127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    // Far apart (×3 per cell), so neither is a near match of the other.
    let (a, b) = (wavy(10, 0.0), wavy(10, 400.0));
    let mut client = PlanClient::connect(addr).expect("connect");
    let first = expect_ok(
        client
            .plan("t", "matching-max", &a, QosSpec::default())
            .expect("round trip"),
    );
    assert_eq!(first.cache, CacheDisposition::Cold);

    std::thread::scope(|scope| {
        let evictor = scope.spawn(|| {
            let mut client = PlanClient::connect(addr).expect("connect");
            expect_ok(
                client
                    .plan("t", "matching-max", &b, QosSpec::default())
                    .expect("round trip"),
            )
        });
        // `b`'s lookup has missed: its solve now holds the only worker
        // for the 400 ms pace, and inserts — evicting `a` — afterwards.
        let t0 = Instant::now();
        while server.service().cache_stats().misses < 2 {
            assert!(
                t0.elapsed() < Duration::from_secs(30),
                "b never reached the worker"
            );
            std::thread::yield_now();
        }
        let links = [(0, 9), (3, 1)];
        let late = expect_ok(
            client
                .plan("t", "matching-max", &a, pinned(&links))
                .expect("round trip"),
        );
        assert_eq!(
            evictor.join().expect("evictor").cache,
            CacheDisposition::Cold
        );
        assert_eq!(
            late.cache,
            CacheDisposition::Cold,
            "the entry was gone; the reply must not call this a hit"
        );
        let want = pin(&first.order, &links);
        assert_eq!(late.order, want);
        assert_eq!(
            late.completion_ms.to_bits(),
            executed(&want, &a).0.to_bits()
        );
    });
    let stats = server.service().cache_stats();
    assert_eq!(
        (stats.inserts, stats.evictions, stats.exact_hits),
        (3, 2, 0)
    );
    server.shutdown();
}

/// Four connections replaying while a fifth solves: every reply draws
/// its `served_seq` from one counter whichever thread served it.
#[test]
fn inline_and_queued_replies_share_one_serving_sequence() {
    const CLIENTS: usize = 4;
    const HITS: usize = 200;
    const COLD: usize = 12;
    let server = PlanServer::bind("127.0.0.1:0", PlanServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let base = wavy(8, 0.0);
    let warm = expect_ok(
        PlanClient::connect(addr)
            .expect("connect")
            .plan("t", "matching-max", &base, QosSpec::default())
            .expect("round trip"),
    );
    let mut seqs = vec![warm.served_seq];

    let start = Barrier::new(CLIENTS + 1);
    std::thread::scope(|scope| {
        let replayers: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (start, base, warm) = (&start, &base, &warm);
                scope.spawn(move || {
                    let mut client = PlanClient::connect(addr).expect("connect");
                    start.wait();
                    (0..HITS)
                        .map(|i| {
                            let qos = QosSpec::default();
                            let resp = if (i + c) % 2 == 0 {
                                client.plan("t", "matching-max", base, qos)
                            } else {
                                client.probe("t", "matching-max", base.fingerprint(), qos)
                            };
                            let ok = expect_ok(resp.expect("round trip"));
                            assert_eq!(ok.cache, CacheDisposition::Hit);
                            assert_eq!(ok.order, warm.order);
                            assert_eq!(ok.completion_ms.to_bits(), warm.completion_ms.to_bits());
                            ok.served_seq
                        })
                        .collect::<Vec<u64>>()
                })
            })
            .collect();
        let solver = scope.spawn(|| {
            let mut client = PlanClient::connect(addr).expect("connect");
            start.wait();
            (1..=COLD)
                .map(|i| {
                    let fresh = wavy(8, 300.0 * i as f64);
                    let ok = expect_ok(
                        client
                            .plan("u", "matching-max", &fresh, QosSpec::default())
                            .expect("round trip"),
                    );
                    assert_ne!(ok.cache, CacheDisposition::Hit);
                    ok.served_seq
                })
                .collect::<Vec<u64>>()
        });
        for handle in replayers {
            seqs.extend(handle.join().expect("replayer"));
        }
        seqs.extend(solver.join().expect("solver"));
    });

    seqs.sort_unstable();
    let served = 1 + CLIENTS * HITS + COLD;
    assert_eq!(
        seqs,
        (1..=served as u64).collect::<Vec<_>>(),
        "unique and gap-free"
    );
    let stats = server.service().cache_stats();
    assert_eq!(stats.exact_hits, (CLIENTS * HITS) as u64);
    assert_eq!(stats.inserts, 1 + COLD as u64);
    assert_eq!(
        stats.misses + stats.warm_hits + stats.incremental_hits,
        1 + COLD as u64,
        "one lookup verdict per solve"
    );
    // And everything drains: shutdown returns with nothing in flight.
    server.shutdown();
}

/// 200 KB of `[` in one well-formed frame: an `Error` reply on that
/// connection, and a server that is still there for the next one.
#[test]
fn a_frame_of_open_brackets_costs_a_reply_not_the_server() {
    let server = PlanServer::bind("127.0.0.1:0", PlanServerConfig::default()).expect("bind");
    let addr = server.local_addr();
    let mut hostile = TcpStream::connect(addr).expect("connect");
    write_frame(&mut hostile, PROTO_VERSION, &vec![b'['; 200_000]).expect("send");
    let (tag, payload) = read_frame(&mut hostile, MAX_FRAME).expect("the server must answer");
    assert_eq!(tag, PROTO_VERSION);
    match parse_response(&payload).expect("a well-formed reply") {
        PlanResponse::Error { detail } => assert!(detail.contains("nesting"), "{detail}"),
        other => panic!("expected an error reply, got {other:?}"),
    }
    drop(hostile);

    let m = wavy(6, 0.0);
    let mut client = PlanClient::connect(addr).expect("connect afresh");
    let ok = expect_ok(
        client
            .plan("t", "greedy", &m, QosSpec::default())
            .expect("round trip"),
    );
    assert_eq!(ok.cache, CacheDisposition::Cold);
    server.shutdown();
}
