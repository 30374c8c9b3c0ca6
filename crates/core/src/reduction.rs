//! The Theorem-1 connection: `TOT_EXCH` ⇄ open shop scheduling.
//!
//! Theorem 1 proves `TOT_EXCH` NP-complete "by transformation from the
//! open shop scheduling problem": jobs become senders, machines become
//! receivers, task `t_{j,i}` becomes the communication event from sender
//! `j` to receiver `i`. This module makes the reduction executable:
//!
//! * [`OpenShopInstance`] — an `n × m` open shop;
//! * [`OpenShopInstance::to_comm_matrix`] — the reduction. Senders and
//!   receivers are embedded as *disjoint* processor sets (`P = n + m`)
//!   so no task lands on the schedule-exempt diagonal; every non-task
//!   pair costs zero, and zero-duration events never delay a port.
//! * [`gonzalez_sahni_two_machine`] — the classic exact optimum for
//!   `m = 2` (Gonzalez & Sahni 1976):
//!   `C*_max = max(T₁, T₂, max_j (t₁ⱼ + t₂ⱼ))` — the same paper the
//!   authors cite for NP-completeness at `m > 2`. It gives the Theorem-1
//!   claim in `tests/paper_claims.rs` an exact oracle: scheduling the
//!   reduced matrix can never beat it, and the open shop heuristic must
//!   stay within 2× of it.

use crate::matrix::CommMatrix;

/// An open shop instance: `times[job][machine]` ≥ 0.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenShopInstance {
    times: Vec<Vec<f64>>,
    machines: usize,
}

impl OpenShopInstance {
    /// Builds an instance from a jobs×machines table.
    pub fn new(times: Vec<Vec<f64>>) -> Self {
        assert!(!times.is_empty(), "need at least one job");
        let machines = times[0].len();
        assert!(machines >= 1, "need at least one machine");
        for (j, row) in times.iter().enumerate() {
            assert_eq!(row.len(), machines, "job {j} has the wrong machine count");
            for (i, &t) in row.iter().enumerate() {
                assert!(t.is_finite() && t >= 0.0, "t[{j}][{i}] = {t} invalid");
            }
        }
        OpenShopInstance { times, machines }
    }

    /// Number of jobs.
    pub fn jobs(&self) -> usize {
        self.times.len()
    }

    /// Number of machines.
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// Task time of `job` on `machine`.
    pub fn time(&self, job: usize, machine: usize) -> f64 {
        self.times[job][machine]
    }

    /// The open shop lower bound: the largest job total or machine total.
    pub fn lower_bound(&self) -> f64 {
        let job_max = self
            .times
            .iter()
            .map(|row| row.iter().sum::<f64>())
            .fold(0.0f64, f64::max);
        let machine_max = (0..self.machines)
            .map(|i| self.times.iter().map(|row| row[i]).sum::<f64>())
            .fold(0.0f64, f64::max);
        job_max.max(machine_max)
    }

    /// The Theorem-1 reduction: a `(jobs + machines)`-processor total
    /// exchange whose only non-zero transfers are `job j → machine i`
    /// with cost `t_{j,i}`. A valid total-exchange schedule restricted
    /// to those events *is* an open shop schedule (sender port = job,
    /// receiver port = machine), and the zero-cost filler events cannot
    /// delay anything, so the makespans coincide.
    pub fn to_comm_matrix(&self) -> CommMatrix {
        let n = self.jobs();
        let m = self.machines();
        CommMatrix::from_fn(n + m, |src, dst| {
            if src < n && dst >= n {
                self.times[src][dst - n]
            } else {
                0.0
            }
        })
    }
}

/// The exact optimal makespan of a **2-machine** open shop
/// (Gonzalez & Sahni 1976): `max(T₁, T₂, max_j (t₁ⱼ + t₂ⱼ))`.
pub fn gonzalez_sahni_two_machine(instance: &OpenShopInstance) -> f64 {
    assert_eq!(instance.machines(), 2, "the exact formula is for m = 2");
    let t1: f64 = (0..instance.jobs()).map(|j| instance.time(j, 0)).sum();
    let t2: f64 = (0..instance.jobs()).map(|j| instance.time(j, 1)).sum();
    let longest_job = (0..instance.jobs())
        .map(|j| instance.time(j, 0) + instance.time(j, 1))
        .fold(0.0f64, f64::max);
    t1.max(t2).max(longest_job)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{OpenShop, Scheduler};

    fn sample() -> OpenShopInstance {
        OpenShopInstance::new(vec![vec![3.0, 5.0], vec![4.0, 1.0], vec![2.0, 6.0]])
    }

    #[test]
    fn instance_accessors_and_lower_bound() {
        let i = sample();
        assert_eq!(i.jobs(), 3);
        assert_eq!(i.machines(), 2);
        assert_eq!(i.time(2, 1), 6.0);
        // Job sums: 8, 5, 8. Machine sums: 9, 12. lb = 12.
        assert_eq!(i.lower_bound(), 12.0);
    }

    #[test]
    fn gonzalez_sahni_matches_lower_bound_when_no_job_dominates() {
        let i = sample();
        // max(9, 12, max(8,5,8)) = 12: the machine bound binds and the
        // optimum achieves it.
        assert_eq!(gonzalez_sahni_two_machine(&i), 12.0);
        // A dominating job flips the binding term.
        let dom = OpenShopInstance::new(vec![vec![10.0, 10.0], vec![1.0, 1.0]]);
        assert_eq!(gonzalez_sahni_two_machine(&dom), 20.0);
    }

    #[test]
    fn reduction_preserves_the_lower_bound() {
        let i = sample();
        let c = i.to_comm_matrix();
        assert_eq!(c.len(), 5);
        // The matrix lower bound equals the open shop lower bound: send
        // totals of job rows = job sums, receive totals of machine
        // columns = machine sums, filler contributes nothing.
        assert_eq!(c.lower_bound().as_ms(), i.lower_bound());
        // Spot-check the embedding.
        assert_eq!(c.cost(0, 3).as_ms(), 3.0); // job 0 on machine 0
        assert_eq!(c.cost(2, 4).as_ms(), 6.0); // job 2 on machine 1
        assert_eq!(c.cost(3, 0).as_ms(), 0.0); // filler
    }

    #[test]
    fn square_shop_reduction_round_trip() {
        // 3 jobs × 3 machines: the NP-complete regime (m > 2).
        let i = OpenShopInstance::new(vec![
            vec![2.0, 4.0, 1.0],
            vec![3.0, 1.0, 5.0],
            vec![4.0, 2.0, 2.0],
        ]);
        let c = i.to_comm_matrix();
        assert_eq!(c.len(), 6);
        assert_eq!(c.lower_bound().as_ms(), i.lower_bound());
        let sched = OpenShop.schedule(&c);
        sched.validate().unwrap();
        assert!(sched.completion_time().as_ms() <= 2.0 * i.lower_bound() + 1e-9);
    }

    #[test]
    #[should_panic(expected = "for m = 2")]
    fn gs_formula_guards_machine_count() {
        let i = OpenShopInstance::new(vec![vec![1.0, 2.0, 3.0]]);
        let _ = gonzalez_sahni_two_machine(&i);
    }
}
