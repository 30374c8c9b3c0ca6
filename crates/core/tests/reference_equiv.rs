//! The large-`P` fast paths must be *exact*: warm-started matching,
//! heap-indexed open shop and the in-place greedy composition must emit
//! bit-identical schedules (same event sets, same completion times) to
//! the retained reference implementations in `reference/mod.rs` beside
//! this file, for `P ≤ 32` across random GUSTO-guided matrices.

mod reference;

use adaptcomm_core::algorithms::{Greedy, MatchingKind, MatchingScheduler, OpenShop, Scheduler};
use adaptcomm_core::matrix::CommMatrix;
use adaptcomm_model::generator::{GeneratorConfig, NetGenerator};
use adaptcomm_model::units::Bytes;
use proptest::prelude::*;

/// A random GUSTO-guided communication matrix: network parameters drawn
/// from the Table 1–2 ranges (the paper's §5 methodology), uniform 1 MB
/// messages. Symmetric, matching the GUSTO tables.
fn gusto_matrix(p: usize, seed: u64) -> CommMatrix {
    let params = NetGenerator::gusto_guided(seed).generate(p);
    CommMatrix::uniform_message(&params, Bytes::MB)
}

/// Same GUSTO ranges but each direction drawn independently. Continuous
/// *asymmetric* costs make every round's LAP optimum unique (a symmetric
/// matrix ties every cycle with its reverse), so matching step sequences
/// are comparable bit-for-bit across solver implementations.
fn asymmetric_gusto_matrix(p: usize, seed: u64) -> CommMatrix {
    let config = GeneratorConfig {
        symmetric: false,
        ..GeneratorConfig::default()
    };
    let params = NetGenerator::new(config, seed).generate(p);
    CommMatrix::uniform_message(&params, Bytes::MB)
}

/// Sum of communication costs of one matching step.
fn step_weight(m: &CommMatrix, step: &[Option<usize>]) -> f64 {
    step.iter()
        .enumerate()
        .map(|(src, dst)| m.cost(src, dst.unwrap()).as_ms())
        .sum()
}

proptest! {
    /// Open shop: the heap-indexed construction replays the reference
    /// linear scan event for event — identical `(src, dst, start,
    /// finish)` sequences, not just equal completion times.
    #[test]
    fn openshop_heap_is_bit_identical(p in 2usize..=32, seed in 0u64..10_000) {
        let m = gusto_matrix(p, seed);
        let fast = OpenShop::build(&m);
        let slow = reference::openshop_build(&m);
        prop_assert_eq!(fast.events(), slow.events());
        prop_assert!(fast.completion_time() == slow.completion_time());
    }

    /// Matching (both kinds): warm-started rounds extract the same
    /// matchings as the cold-per-round reference. Asymmetric matrices,
    /// where the per-round optimum is unique — on symmetric inputs
    /// "the" optimal matching is not well-defined (every cycle ties
    /// with its reverse), and two exact solvers may legitimately return
    /// different optimal permutations.
    #[test]
    fn matching_warm_is_bit_identical(p in 2usize..=32, seed in 0u64..10_000) {
        let m = asymmetric_gusto_matrix(p, seed);
        for kind in [MatchingKind::Max, MatchingKind::Min] {
            let fast = MatchingScheduler::new(kind).steps(&m);
            let slow = reference::matching_steps(kind, &m);
            prop_assert_eq!(&fast, &slow, "kind {:?}", kind);
            // And the executed schedules agree end to end.
            let sched = MatchingScheduler::new(kind).schedule(&m);
            sched.validate().unwrap();
        }
    }

    /// Matching on *symmetric* GUSTO matrices: LAP optima are non-unique
    /// (reversed cycles tie exactly), so cold and warm solves may pick
    /// different permutations — but both must be optimal. Walk the two
    /// step sequences in lockstep over identical remaining-edge sets:
    /// wherever they first differ, the extracted matchings must carry
    /// equal weight, and the fast path must still partition all pairs.
    #[test]
    fn matching_warm_is_optimal_under_symmetric_ties(p in 2usize..=32, seed in 0u64..10_000) {
        let m = gusto_matrix(p, seed);
        for kind in [MatchingKind::Max, MatchingKind::Min] {
            let fast = MatchingScheduler::new(kind).steps(&m);
            let slow = reference::matching_steps(kind, &m);
            prop_assert_eq!(fast.len(), slow.len());
            for (round, (f, s)) in fast.iter().zip(&slow).enumerate() {
                if f == s {
                    continue;
                }
                // First divergence: both paths solved the *same* LAP
                // instance here, so the weights must tie.
                let wf = step_weight(&m, f);
                let ws = step_weight(&m, s);
                let rel = (wf - ws).abs() / ws.abs().max(1.0);
                prop_assert!(
                    rel <= 1e-9,
                    "kind {:?} round {}: fast {} vs slow {} (rel {:e})",
                    kind, round, wf, ws, rel
                );
                break;
            }
            // The fast path still partitions all P² pairs.
            let mut seen = vec![false; p * p];
            for step in &fast {
                for (src, dst) in step.iter().enumerate() {
                    let dst = dst.unwrap();
                    prop_assert!(!seen[src * p + dst], "pair used twice");
                    seen[src * p + dst] = true;
                }
            }
            prop_assert!(seen.iter().all(|&b| b), "all pairs covered");
        }
    }

    /// Greedy: the in-place rank-list consumption composes the same
    /// steps as the bitmap-filtered reference.
    #[test]
    fn greedy_inplace_is_bit_identical(p in 2usize..=32, seed in 0u64..10_000) {
        let m = gusto_matrix(p, seed);
        prop_assert_eq!(Greedy::steps(&m), reference::greedy_steps(&m));
    }

    /// Open shop stays bit-identical even on fully degenerate all-equal
    /// matrices: the selection rule is deterministic (ties by processor
    /// id), so heap and linear scan cannot diverge.
    #[test]
    fn openshop_identical_on_all_equal_costs(p in 2usize..=24, c in 1.0f64..50.0) {
        let m = CommMatrix::from_fn(p, |s, d| if s == d { 0.0 } else { c });
        let fast = OpenShop::build(&m);
        let slow = reference::openshop_build(&m);
        prop_assert_eq!(fast.events(), slow.events());
    }
}

/// Degenerate perf-path inputs: `P ∈ {0, 1, 2}` through the warm-started
/// matching and the heap-indexed open shop.
#[test]
fn degenerate_p_through_fast_paths() {
    for p in [0usize, 1, 2] {
        let m = CommMatrix::from_fn(p, |s, d| if s == d { 0.0 } else { 3.0 });
        let os = OpenShop.schedule(&m);
        os.validate()
            .unwrap_or_else(|e| panic!("openshop P={p}: {e}"));
        assert_eq!(os.events().len(), p * p.saturating_sub(1));
        assert_eq!(os.events(), reference::openshop_build(&m).events());
        for kind in [MatchingKind::Max, MatchingKind::Min] {
            let steps = MatchingScheduler::new(kind).steps(&m);
            assert_eq!(steps.len(), p, "matching {kind:?} P={p}");
            let sched = MatchingScheduler::new(kind).schedule(&m);
            sched
                .validate()
                .unwrap_or_else(|e| panic!("matching {kind:?} P={p}: {e}"));
        }
        let g = Greedy.schedule(&m);
        g.validate().unwrap_or_else(|e| panic!("greedy P={p}: {e}"));
    }
}

/// All-equal-cost matrices through the fast paths: any permutation
/// partition is optimal for the matchings, so assert structure (each
/// step a permutation, all `P²` pairs covered once) rather than a
/// particular tie resolution; open shop ties must still resolve by
/// processor id (lowest first).
#[test]
fn all_equal_costs_through_fast_paths() {
    let p = 9;
    let m = CommMatrix::from_fn(p, |s, d| if s == d { 0.0 } else { 4.0 });

    for kind in [MatchingKind::Max, MatchingKind::Min] {
        let steps = MatchingScheduler::new(kind).steps(&m);
        assert_eq!(steps.len(), p);
        let mut seen = vec![false; p * p];
        for step in &steps {
            let mut dsts: Vec<usize> = step.iter().copied().flatten().collect();
            dsts.sort();
            assert_eq!(dsts, (0..p).collect::<Vec<_>>(), "step is a permutation");
            for (src, dst) in step.iter().enumerate() {
                let dst = dst.unwrap();
                assert!(!seen[src * p + dst], "pair used twice");
                seen[src * p + dst] = true;
            }
        }
        assert!(seen.iter().all(|&b| b), "all pairs covered");
    }

    // Open shop: the very first event must be 0 → 1 at t = 0 (earliest
    // sender tie → processor 0, earliest receiver tie → processor 1),
    // and the whole construction must match the reference scan.
    let os = OpenShop::build(&m);
    let first = os.events()[0];
    assert_eq!((first.src, first.dst), (0, 1));
    assert_eq!(first.start.as_ms(), 0.0);
    assert_eq!(os.events(), reference::openshop_build(&m).events());

    // Greedy also stays well-formed (and identical to its reference).
    assert_eq!(Greedy::steps(&m), reference::greedy_steps(&m));
}
