//! The paper's running example (Figures 3–8): one 5-processor instance,
//! scheduled by every algorithm, rendered as timing diagrams.
//!
//! ```sh
//! cargo run --example paper_example
//! ```

use adaptcomm::prelude::*;
use adaptcomm::scheduling::execution::execute_steps_pairwise;
use adaptcomm::scheduling::paper::running_example;
use adaptcomm::scheduling::{analyze, bounds, depgraph};

fn main() {
    let matrix = running_example();
    println!("Running example (representative of the paper's Figure 3):");
    println!("{matrix}");
    println!("Lower bound t_lb = {}\n", matrix.lower_bound());

    // Figure 3: the unscheduled problem.
    println!("== Figure 3: unscheduled events, stacked per sender ==");
    println!("{}", TimingDiagram::unscheduled(&matrix).render(16));

    // Figures 4, 6, 7, 8: one schedule per algorithm.
    let figures: Vec<(&str, Box<dyn Scheduler>)> = vec![
        ("Figure 4: baseline (caterpillar)", Box::new(Baseline)),
        (
            "Figure 6: series of maximum matchings",
            Box::new(MatchingScheduler::new(MatchingKind::Max)),
        ),
        ("Figure 7: greedy", Box::new(Greedy)),
        ("Figure 8: open shop heuristic", Box::new(OpenShop)),
    ];
    for (title, scheduler) in figures {
        let schedule = scheduler.schedule(&matrix);
        schedule.validate().unwrap();
        println!(
            "== {title} ==  completion {} ({:.1}% above t_lb)",
            schedule.completion_time(),
            (schedule.lb_ratio() - 1.0) * 100.0
        );
        println!("{}", TimingDiagram::of_schedule(&schedule).render(16));
    }

    // Figure 5 / Theorem 2: the dependence-graph view of the baseline.
    println!("== Figure 5: baseline dependence-graph critical path ==");
    let stepped = execute_steps_pairwise(&Baseline::steps(matrix.len()), &matrix);
    for hop in analyze::dag_of(&stepped).critical_path() {
        let (src, dst) = (hop.transfer.src, hop.transfer.dst);
        println!("  P{src} -> P{dst}  ({})", matrix.cost(src, dst));
    }
    println!(
        "  critical path total = {} (step-ordered completion)\n",
        depgraph::baseline_step_ordered_completion(&matrix)
    );

    // Theorem 2 tightness, as in the paper's proof.
    println!("== Theorem 2 tightness instance (P = 4, ratio -> P/2 = 2) ==");
    for eps in [1e-2, 1e-4, 1e-6] {
        let m = bounds::theorem2_tightness_instance(eps);
        let t = depgraph::baseline_step_ordered_completion(&m);
        println!(
            "  eps = {eps:>8.0e}: completion {:.4}, t_lb {:.4}, ratio {:.4}",
            t.as_ms(),
            m.lower_bound().as_ms(),
            t.as_ms() / m.lower_bound().as_ms()
        );
    }
}
