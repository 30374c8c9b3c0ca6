//! One port-model kernel (ISSUE 18): `execute_listed`, `run_static`,
//! `run_adaptive`, `run_buffered` and `run_interleaved` are five
//! policies over `adaptcomm::scheduling::kernel`. This file holds the
//! single pre-refactor executor kept as the reference — the linear-scan
//! two-event loop that used to live in `sim::executor`'s tests — and pins
//! the refactor against it:
//!
//! * `execute_listed` and `run_static` equal the reference bit for bit on
//!   random continuous instances, on GUSTO, on a 390-pair grid of
//!   quantized (all-ties) networks, and on matrices with exact-zero
//!   cells;
//! * `run_buffered` / `run_interleaved` in their non-degenerate
//!   configurations hash to digests captured at the parent commit
//!   (`de14e3c`, private event loops) on a tie-free grid;
//! * the three ways one calendar entry carrying a transfer's release
//!   and its completion can leave the tie rule each have a named
//!   instance, and the kernel's completion sequence is the `(finish,
//!   src, dst)` order up to ties at one instant on every grid above.
//!
//! `run_adaptive` is held to `run_static` by the identity (and the
//! goldens) in `tests/pricing_equiv.rs`; the degenerate §6.1
//! configurations by `crates/sim/tests/prop.rs`; the live runtime's policy
//! by `crates/runtime/tests/tied_grid.rs`.

use adaptcomm::model::cost::{BufferedModel, InterleavedModel, LinkEstimate};
use adaptcomm::prelude::*;
use adaptcomm::scheduling::execution::execute_listed;
use adaptcomm::scheduling::fingerprint::Fnv1a;
use adaptcomm::scheduling::kernel::{self, completion_order, Outcome, Policy};
use adaptcomm::sim::buffered::run_buffered;
use adaptcomm::sim::interleaved::run_interleaved;
use adaptcomm::sim::{run_static, TransferRecord};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

// ---------------------------------------------------------------------
// The reference: the pre-refactor executor, verbatim in its decisions
// ---------------------------------------------------------------------

/// `(time, class, processor id)`: arrivals (class 0) before frees
/// (class 1) at one instant, processor id on what remains.
#[derive(PartialEq)]
struct Key(f64, u8, usize);
impl Eq for Key {}
impl PartialOrd for Key {
    fn partial_cmp(&self, o: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(o))
    }
}
impl Ord for Key {
    fn cmp(&self, o: &Self) -> std::cmp::Ordering {
        (self.0.total_cmp(&o.0))
            .then(self.1.cmp(&o.1))
            .then(self.2.cmp(&o.2))
    }
}

/// One transfer as the reference reports it: `(src, dst, start, finish)`.
type Span = (usize, usize, f64, f64);

/// `(finish, src, dst)` order.
fn by_completion(mut spans: Vec<Span>) -> Vec<Span> {
    spans.sort_by(|a, b| a.3.total_cmp(&b.3).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1)));
    spans
}

/// The §3.2 execution with two calendar events per transfer (the sender
/// becomes ready; the receiver frees) and a linear `min_by` scan over the
/// waiting senders — `execute_listed` and `run_static` as they stood
/// before the kernel, differing only in where a price comes from.
fn reference(order: &[Vec<usize>], price: impl Fn(usize, usize) -> f64) -> Vec<Span> {
    const SENDER_READY: u8 = 0;
    const RECEIVER_FREE: u8 = 1;
    let p = order.len();
    let mut heap: BinaryHeap<Reverse<Key>> = (0..p)
        .map(|src| Reverse(Key(0.0, SENDER_READY, src)))
        .collect();
    let mut pending: Vec<Vec<(f64, usize)>> = vec![Vec::new(); p];
    let mut busy = vec![false; p];
    let mut next = vec![0usize; p];
    let mut spans: Vec<Span> = Vec::new();

    macro_rules! begin {
        ($src:expr, $dst:expr, $now:expr) => {{
            let (src, dst, now) = ($src, $dst, $now);
            let fin = now + price(src, dst);
            spans.push((src, dst, now, fin));
            busy[dst] = true;
            next[src] += 1;
            heap.push(Reverse(Key(fin, SENDER_READY, src)));
            heap.push(Reverse(Key(fin, RECEIVER_FREE, dst)));
        }};
    }

    while let Some(Reverse(Key(now, class, who))) = heap.pop() {
        if class == SENDER_READY {
            let src = who;
            let Some(&dst) = order[src].get(next[src]) else {
                continue;
            };
            if busy[dst] {
                pending[dst].push((now, src));
            } else {
                begin!(src, dst, now);
            }
        } else {
            let dst = who;
            busy[dst] = false;
            if let Some(k) = pending[dst]
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                .map(|(k, _)| k)
            {
                let (_, src) = pending[dst].swap_remove(k);
                begin!(src, dst, now);
            }
        }
    }
    by_completion(spans)
}

fn spans_of_records(records: &[TransferRecord]) -> Vec<Span> {
    records
        .iter()
        .map(|r| (r.src, r.dst, r.start.as_ms(), r.finish.as_ms()))
        .collect()
}

/// A schedule's events in the reference's `(finish, src, dst)` order.
fn spans_of_schedule(schedule: &Schedule) -> Vec<Span> {
    let spans: Vec<Span> = schedule
        .events()
        .iter()
        .map(|e| (e.src, e.dst, e.start.as_ms(), e.finish.as_ms()))
        .collect();
    by_completion(spans)
}

fn bits(spans: &[Span]) -> Vec<(usize, usize, u64, u64)> {
    spans
        .iter()
        .map(|&(s, d, a, b)| (s, d, a.to_bits(), b.to_bits()))
        .collect()
}

/// Both static executors against the reference, bit for bit.
fn assert_static_executors_match(
    order: &SendOrder,
    net: &NetParams,
    sizes: &[Vec<Bytes>],
    what: &str,
) {
    let matrix = CommMatrix::from_model(net, sizes);
    let want = reference(&order.order, |s, d| matrix.cost(s, d).as_ms());
    let listed = execute_listed(order, &matrix);
    assert_eq!(
        bits(&spans_of_schedule(&listed)),
        bits(&want),
        "{what}: execute_listed left the reference"
    );
    let run = run_static(order, net, sizes);
    assert_eq!(
        bits(&spans_of_records(&run.records)),
        bits(&want),
        "{what}: run_static left the reference"
    );
    let last = want.iter().map(|s| s.3).fold(0.0, f64::max);
    assert_eq!(run.makespan.as_ms().to_bits(), last.to_bits(), "{what}");
    assert_eq!(
        listed.completion_time().as_ms().to_bits(),
        last.to_bits(),
        "{what}"
    );
}

// ---------------------------------------------------------------------
// Instance grids
// ---------------------------------------------------------------------

fn uniform_sizes(p: usize, b: Bytes) -> Vec<Vec<Bytes>> {
    (0..p)
        .map(|s| {
            (0..p)
                .map(|d| if s == d { Bytes::ZERO } else { b })
                .collect()
        })
        .collect()
}

/// The quantized networks of ISSUE 18: every duration is a multiple of
/// one quantum, so equal-instant events are the rule, not a coincidence.
/// Kinds 0..4 are start-up `10 ms + 10 ms·k(s, d)` at 500 kbit/s; kind 4
/// has zero start-up; kind 5 mixes nanosecond links with 20 ms ones.
fn quantized_net(kind: usize, p: usize) -> NetParams {
    NetParams::from_fn(p, |s, d| {
        let k = match kind {
            0 => 0,
            1 => (s + d) % 2,
            2 => (3 * s + d) % 3,
            3 => (s ^ d) % 2,
            _ => 0,
        };
        match kind {
            4 => LinkEstimate::new(Millis::ZERO, Bandwidth::from_kbps(500.0)),
            5 if (s + 2 * d) % 3 == 0 => {
                LinkEstimate::new(Millis::new(1e-6), Bandwidth::from_kbps(1e15))
            }
            5 => LinkEstimate::new(Millis::new(20.0), Bandwidth::from_kbps(1e15)),
            _ => LinkEstimate::new(
                Millis::new(10.0 + 10.0 * k as f64),
                Bandwidth::from_kbps(500.0),
            ),
        }
    })
}

fn random_net(p: usize, rng: &mut StdRng) -> NetParams {
    NetParams::from_fn(p, |_, _| {
        LinkEstimate::new(
            Millis::new(rng.random_range(0.5..=40.0)),
            Bandwidth::from_kbps(rng.random_range(50.0..=5_000.0)),
        )
    })
}

fn random_sizes(p: usize, rng: &mut StdRng) -> Vec<Vec<Bytes>> {
    (0..p)
        .map(|s| {
            (0..p)
                .map(|d| {
                    if s == d {
                        Bytes::ZERO
                    } else {
                        Bytes::new(rng.random_range(1_000..=200_000u64))
                    }
                })
                .collect()
        })
        .collect()
}

/// A uniformly random valid send order.
fn random_order(p: usize, rng: &mut StdRng) -> SendOrder {
    SendOrder::new(
        (0..p)
            .map(|s| {
                let mut dsts: Vec<usize> = (0..p).filter(|&d| d != s).collect();
                for i in (1..dsts.len()).rev() {
                    dsts.swap(i, rng.random_range(0..=i));
                }
                dsts
            })
            .collect(),
    )
}

// ---------------------------------------------------------------------
// (a) execute_listed ≡ run_static ≡ the reference
// ---------------------------------------------------------------------

#[test]
fn static_executors_equal_the_reference_on_random_continuous_instances() {
    let mut rng = StdRng::seed_from_u64(0x5eed_0018);
    for p in [2usize, 3, 5, 8, 13, 21] {
        for case in 0..6 {
            let net = random_net(p, &mut rng);
            let sizes = random_sizes(p, &mut rng);
            let matrix = CommMatrix::from_model(&net, &sizes);
            let mut orders: Vec<(String, SendOrder)> = all_schedulers()
                .iter()
                .map(|s| (s.name().to_string(), s.send_order(&matrix)))
                .collect();
            orders.push(("random".into(), random_order(p, &mut rng)));
            for (name, order) in &orders {
                assert_static_executors_match(
                    order,
                    &net,
                    &sizes,
                    &format!("{name} P={p} case {case}"),
                );
            }
        }
    }
}

#[test]
fn static_executors_equal_the_reference_on_gusto() {
    let net = adaptcomm::model::gusto::gusto_params();
    let sizes = uniform_sizes(net.len(), Bytes::MB);
    let matrix = CommMatrix::from_model(&net, &sizes);
    for s in all_schedulers() {
        assert_static_executors_match(&s.send_order(&matrix), &net, &sizes, s.name());
    }
}

#[test]
fn static_executors_equal_the_reference_on_the_390_pair_tied_grid() {
    let mut pairs = 0;
    for p in 2..=14 {
        for kind in 0..6 {
            let net = quantized_net(kind, p);
            let sizes = uniform_sizes(p, Bytes::from_kb(100));
            let matrix = CommMatrix::from_model(&net, &sizes);
            for s in all_schedulers() {
                assert_static_executors_match(
                    &s.send_order(&matrix),
                    &net,
                    &sizes,
                    &format!("{} P={p} net {kind}", s.name()),
                );
                pairs += 1;
            }
        }
    }
    assert_eq!(pairs, 390);
}

#[test]
fn static_executors_equal_the_reference_when_cells_are_exactly_zero() {
    // All zero: every event of the run is at one instant.
    for p in [2usize, 4, 7] {
        let net = NetParams::uniform(p, Millis::ZERO, Bandwidth::from_kbps(500.0));
        let sizes = uniform_sizes(p, Bytes::ZERO);
        for s in all_schedulers() {
            let order = s.send_order(&CommMatrix::from_model(&net, &sizes));
            assert_static_executors_match(&order, &net, &sizes, "all-zero");
        }
    }
    // Zero cells among 10 ms ones: a sender that finishes at the instant
    // it starts re-requests *before* any receiver at that instant frees.
    // This is why a sender's release is its own class-0 event and does
    // not ride on the completion: on P = 3 with only 0→1 free of charge
    // and the caterpillar order, folding the two gives 20 ms, not 30.
    let mut rng = StdRng::seed_from_u64(0x2e70);
    for p in [3usize, 4, 6, 9, 12] {
        for density in [1u32, 2, 4] {
            let net = NetParams::uniform(p, Millis::ZERO, Bandwidth::from_kbps(8.0));
            let mut sizes = uniform_sizes(p, Bytes::new(10));
            for (s, row) in sizes.iter_mut().enumerate() {
                for (d, size) in row.iter_mut().enumerate() {
                    let forced = p == 3 && (s, d) == (0, 1);
                    if s != d && (forced || rng.random_range(0..8u32) < density) {
                        *size = Bytes::ZERO;
                    }
                }
            }
            let matrix = CommMatrix::from_model(&net, &sizes);
            let mut orders: Vec<SendOrder> = all_schedulers()
                .iter()
                .map(|s| s.send_order(&matrix))
                .collect();
            orders.push(Baseline.send_order(&matrix));
            orders.push(random_order(p, &mut rng));
            for order in &orders {
                assert_static_executors_match(
                    order,
                    &net,
                    &sizes,
                    &format!("zero cells P={p} density {density}/8"),
                );
            }
        }
    }
    let m = CommMatrix::from_rows(&[
        vec![0.0, 0.0, 10.0],
        vec![10.0, 0.0, 10.0],
        vec![10.0, 10.0, 0.0],
    ]);
    let caterpillar = SendOrder::new(vec![vec![1, 2], vec![2, 0], vec![0, 1]]);
    assert_eq!(
        execute_listed(&caterpillar, &m).completion_time().as_ms(),
        30.0
    );
}

// ---------------------------------------------------------------------
// (b) the §6.1 extensions away from their identity parameters
// ---------------------------------------------------------------------

fn fold_records(h: &mut Fnv1a, records: &[TransferRecord]) {
    for r in records {
        h.write_u64(r.src as u64);
        h.write_u64(r.dst as u64);
        h.write_u64(r.bytes.as_u64());
        h.write_u64(r.start.as_ms().to_bits());
        h.write_u64(r.finish.as_ms().to_bits());
    }
}

/// One digest per P over five schedulers + a random order on a random
/// continuous network: `run_interleaved` at `fan_in ∈ {2, 3}` with
/// `α ∈ {0.25, 0.7}`, and `run_buffered` with a buffer the size of the
/// largest message draining at 100 kbit/s (stores, drain completions and
/// both makespans; not the stall total, which the parent under-counted —
/// it missed a sender that met a busy port first and the full buffer
/// after — and `sim::buffered`'s own tests now pin).
fn extension_digests(p: usize) -> (u64, u64) {
    let mut rng = StdRng::seed_from_u64(0xb0ff + p as u64);
    let net = random_net(p, &mut rng);
    let sizes = random_sizes(p, &mut rng);
    let matrix = CommMatrix::from_model(&net, &sizes);
    let mut orders: Vec<SendOrder> = all_schedulers()
        .iter()
        .map(|s| s.send_order(&matrix))
        .collect();
    orders.push(random_order(p, &mut rng));

    let mut interleaved = Fnv1a::new();
    let mut buffered = Fnv1a::new();
    let mut stalled = 0.0;
    for order in &orders {
        for fan_in in [2usize, 3] {
            for alpha in [0.25, 0.7] {
                let model = InterleavedModel::new(net.clone(), alpha, fan_in);
                let run = run_interleaved(order, &model, &sizes);
                fold_records(&mut interleaved, &run.records);
                interleaved.write_u64(run.makespan.as_ms().to_bits());
            }
        }
        let model = BufferedModel::new(
            net.clone(),
            Bytes::new(200_000),
            Bandwidth::from_kbps(100.0),
        );
        let run = run_buffered(order, &model, &sizes);
        // `stores` is in start order, which between two stores that begin
        // at one instant is whichever the loop reached first; completion
        // order is a property of the run.
        let mut stored: Vec<(TransferRecord, Millis)> =
            run.stores.iter().copied().zip(run.drain_finish).collect();
        stored.sort_by(|(a, _), (b, _)| {
            (a.finish.as_ms().total_cmp(&b.finish.as_ms()))
                .then(a.src.cmp(&b.src))
                .then(a.dst.cmp(&b.dst))
        });
        for (store, drained) in &stored {
            fold_records(&mut buffered, std::slice::from_ref(store));
            buffered.write_u64(drained.as_ms().to_bits());
        }
        buffered.write_u64(run.network_makespan.as_ms().to_bits());
        buffered.write_u64(run.app_makespan.as_ms().to_bits());
        stalled += run.total_buffer_stall.as_ms();
    }
    assert!(stalled > 0.0, "P={p}: the buffer is meant to bind");
    (interleaved.finish(), buffered.finish())
}

/// Captured at the parent commit `de14e3c` by running
/// `extension_digests` there: `(P, interleaved, buffered)`.
const EXTENSION_GOLDEN: [(usize, u64, u64); 5] = [
    (3, 0xdfd377325e5081cd, 0xafa36d53e7a2c3b9),
    (5, 0xf509fe2a9893a4fe, 0xccefe9c1563b15c6),
    (8, 0xb0ed378484ce962f, 0xa02ab62b93299694),
    (11, 0xce6d4ce0ca670f1b, 0x1a96a2bea02616b8),
    (14, 0xb72d6b2289e6adfa, 0x011897abb94cec39),
];

#[test]
fn extensions_hash_to_the_digests_captured_at_the_parent() {
    let got: Vec<(usize, u64, u64)> = EXTENSION_GOLDEN
        .iter()
        .map(|&(p, _, _)| {
            let (i, b) = extension_digests(p);
            (p, i, b)
        })
        .collect();
    assert_eq!(
        got,
        EXTENSION_GOLDEN.to_vec(),
        "got {:#018x?}",
        got.iter().map(|g| (g.1, g.2)).collect::<Vec<_>>()
    );
}

// ---------------------------------------------------------------------
// (c) a folded release: the named hazards and the completion sequence
// ---------------------------------------------------------------------

/// `execute_listed` of `order` over `rows` against the reference, bit
/// for bit; the schedule for further checks.
fn assert_listed_matches(rows: &[Vec<f64>], order: &[Vec<usize>], what: &str) -> Schedule {
    let listed = execute_listed(
        &SendOrder::new(order.to_vec()),
        &CommMatrix::from_rows(rows),
    );
    let want = reference(order, |s, d| rows[s][d]);
    assert_eq!(bits(&spans_of_schedule(&listed)), bits(&want), "{what}");
    listed
}

fn finish_of(schedule: &Schedule, src: usize, dst: usize) -> f64 {
    let e = schedule
        .events()
        .iter()
        .find(|e| (e.src, e.dst) == (src, dst));
    e.expect("every message runs").finish.as_ms()
}

/// Two completions at one instant: under the matching-max order on
/// GUSTO, 4→0 and 0→4 finish together. Both releases pop before either
/// completion is handled; a fold that handled one completion with its
/// release, before the other's release, lost transfer 4→1.
#[test]
fn two_folded_completions_at_one_instant_release_before_either_completes() {
    let net = adaptcomm::model::gusto::gusto_params();
    let sizes = uniform_sizes(net.len(), Bytes::MB);
    let matrix = CommMatrix::from_model(&net, &sizes);
    let order = MatchingScheduler::new(MatchingKind::Max).send_order(&matrix);
    let listed = execute_listed(&order, &matrix);
    let (a, b) = (finish_of(&listed, 4, 0), finish_of(&listed, 0, 4));
    assert_eq!(
        a.to_bits(),
        b.to_bits(),
        "the two completions share an instant"
    );
    assert_eq!(a.round(), 20_502.0);
    assert_eq!(listed.events().len(), net.len() * (net.len() - 1));
    assert_static_executors_match(&order, &net, &sizes, "GUSTO matching-max");
}

/// A transfer alone at its instant (3→0 at 30 ms) whose release starts
/// a zero-cost transfer (3→1): that transfer's release pops before the
/// completion of 3→0, so sender 3 claims receiver 2 at 30 ms ahead of
/// sender 1, which the completion's grant (1→0, also free of charge)
/// releases at the same instant.
#[test]
fn a_zero_cost_start_by_a_lone_release_pops_before_the_completion() {
    let rows = vec![
        vec![0.0, 0.0, 0.0, 10.0],
        vec![0.0, 0.0, 10.0, 10.0],
        vec![30.0, 0.0, 0.0, 30.0],
        vec![30.0, 0.0, 10.0, 0.0],
    ];
    let order = [vec![2, 1, 3], vec![3, 0, 2], vec![3, 0, 1], vec![0, 1, 2]];
    let listed = assert_listed_matches(&rows, &order, "zero-cost start by a lone release");
    assert_eq!(finish_of(&listed, 3, 2), 40.0);
    assert_eq!(finish_of(&listed, 1, 2), 50.0);
}

/// Sender 2's release at 30 ms starts 2→1 before the completion of 2→0
/// is handled, so the completion must name its own transfer: read off a
/// per-sender "current transfer" it would free port 1 instead of port 0,
/// and 1→0 would never start.
#[test]
fn a_sender_starting_its_next_transfer_first_completes_the_right_one() {
    let rows = vec![
        vec![0.0, 10.0, 5.0],
        vec![5.0, 0.0, 20.0],
        vec![30.0, 5.0, 0.0],
    ];
    let caterpillar = [vec![1, 2], vec![2, 0], vec![0, 1]];
    let listed = assert_listed_matches(&rows, &caterpillar, "release before completion");
    assert_eq!(finish_of(&listed, 2, 1), 35.0);
    assert_eq!(finish_of(&listed, 1, 0), 35.0);
}

/// Two requests admitted together, priced by the slower of them: a
/// fan-in batch whose releases share a key.
struct Batched<'a>(&'a CommMatrix);

impl Policy for Batched<'_> {
    fn price(&mut self, _now: f64, senders: &[usize], dst: usize) -> f64 {
        (senders.iter()).fold(0.0, |ms, &src| f64::max(ms, self.0.cost(src, dst).as_ms()))
    }

    fn fan_in(&self) -> usize {
        2
    }
}

/// Every transfer completes once, and sorting the completion sequence
/// into `(finish, src, dst)` order moves no transfer to another instant.
fn assert_completion_sequence_is_ordered_up_to_ties(run: &Outcome, what: &str) {
    let mut seen = run.completions.clone();
    seen.sort_unstable();
    assert!(
        seen.iter().copied().eq(0..run.events.len() as u32),
        "{what}"
    );
    let key = |&k: &u32| {
        let e = &run.events[k as usize];
        (e.finish, e.src, e.dst)
    };
    let mut sorted = run.completions.clone();
    completion_order(&mut sorted, key);
    for (a, b) in run.completions.iter().zip(&sorted) {
        let (a, b) = (key(a).0.as_ms(), key(b).0.as_ms());
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: a tie left its instant");
    }
}

#[test]
fn the_completion_sequence_is_completion_order_up_to_ties_on_every_grid() {
    let mut rng = StdRng::seed_from_u64(0xc0de_0035);
    let mut instances: Vec<(String, CommMatrix)> = Vec::new();
    for p in 2..=14 {
        for kind in 0..6 {
            let sizes = uniform_sizes(p, Bytes::from_kb(100));
            let matrix = CommMatrix::from_model(&quantized_net(kind, p), &sizes);
            instances.push((format!("tied P={p} net {kind}"), matrix));
        }
    }
    for p in [3usize, 5, 8, 13] {
        let matrix = CommMatrix::from_model(&random_net(p, &mut rng), &random_sizes(p, &mut rng));
        instances.push((format!("continuous P={p}"), matrix));
        let net = NetParams::uniform(p, Millis::ZERO, Bandwidth::from_kbps(8.0));
        let sizes = (0..p)
            .map(|s| {
                (0..p)
                    .map(|d| {
                        Bytes::new(if s == d || rng.random_range(0..4u32) == 0 {
                            0
                        } else {
                            10
                        })
                    })
                    .collect()
            })
            .collect::<Vec<_>>();
        instances.push((
            format!("zero cells P={p}"),
            CommMatrix::from_model(&net, &sizes),
        ));
    }
    for (what, matrix) in &instances {
        for s in all_schedulers() {
            let order = s.send_order(matrix);
            let what = format!("{what} {}", s.name());
            let mut cell = |src: usize, dst: usize| matrix.cost(src, dst).as_ms();
            let run = kernel::run(&order.order, &mut cell).expect("finite prices");
            assert_completion_sequence_is_ordered_up_to_ties(&run, &what);
            let batched = kernel::run(&order.order, &mut Batched(matrix)).expect("finite prices");
            assert_completion_sequence_is_ordered_up_to_ties(&batched, &format!("{what} fan-in 2"));
        }
    }
}
