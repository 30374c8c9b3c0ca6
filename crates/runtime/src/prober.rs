//! Measuring the network from completed transfers.
//!
//! The paper's loop needs fresh `(T_ij, B_ij)` estimates between
//! checkpoints. Rather than probing with extra traffic, the
//! [`Prober`] treats every completed transfer as a free measurement:
//! a message of `m` bytes that occupied the link for `d` ms satisfies
//! `d = T + 8m/B`. With observations at two or more distinct sizes the
//! prober least-squares-fits both parameters; with one size it keeps
//! the prior startup and solves for bandwidth; a zero-byte message
//! measures startup alone. Fitted values go back into the
//! [`DirectoryService`] through `publish_measurement` — the validated
//! raw-float boundary — which refreshes the snapshot epoch so the next
//! scheduling pass sees them.

use adaptcomm_directory::{DirectoryService, PublishError};
use adaptcomm_model::params::NetParams;
use adaptcomm_model::units::Millis;
use adaptcomm_sim::executor::TransferRecord;

/// Smallest duration / bandwidth the fit will report, to keep
/// downstream cost models finite.
const EPS_MS: f64 = 1e-6;
const MIN_KBPS: f64 = 1e-3;

/// One fitted link observation, in the directory's publish units.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkMeasurement {
    /// Sending processor.
    pub src: usize,
    /// Receiving processor.
    pub dst: usize,
    /// Fitted startup cost, milliseconds.
    pub startup_ms: f64,
    /// Fitted bandwidth, kbit/s.
    pub bandwidth_kbps: f64,
    /// Transfers the fit is based on.
    pub samples: usize,
    /// Mean absolute residual of the fit, milliseconds: how far the
    /// observed durations sit from `T + bits/B` under the fitted
    /// parameters. Large residuals mean the link misbehaves (contention,
    /// drift) and the estimate should be trusted less.
    pub residual_ms: f64,
}

/// A hook between fitting and publishing: what the (possibly
/// adversarial) per-link reporting agent claims, given the honest fit.
/// The identity tamper models honest reporting; a chaos plan's lying
/// link multiplies the claimed bandwidth. The trust layer in
/// [`Prober::publish_checked`] never sees *who* tampered — it judges
/// every claim against the realized transfer times alone.
pub trait MeasurementTamper: Sync {
    /// The measurement the reporting agent publishes for this link.
    fn tamper(&self, honest: LinkMeasurement, now: Millis) -> LinkMeasurement;
}

/// Tolerance of the trust cross-check: the largest accepted ratio between
/// a *claimed* bandwidth and the bandwidth realized transfer times
/// support, applied symmetrically — a claim outside
/// `[realized/ratio, realized×ratio]` quarantines the link. 2× is generous
/// enough for measurement noise and far below the 3–5× inflation a useful
/// lie needs to distort a schedule. Honest claims equal the realized fit
/// exactly, so fault-free runs never quarantine regardless of drift.
const TRUST_RATIO: f64 = 2.0;

/// What a checked publish pass did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PublishOutcome {
    /// Links whose estimates were published (honest or claimed).
    pub published: usize,
    /// Links quarantined *by this pass* (claims outside tolerance).
    pub quarantined: Vec<(usize, usize)>,
}

/// Fits per-link estimates from observed transfers.
#[derive(Debug, Clone)]
pub struct Prober {
    prior: NetParams,
}

impl Prober {
    /// A prober whose under-determined fits fall back to `prior`.
    pub fn new(prior: NetParams) -> Self {
        Prober { prior }
    }

    /// Fits every link that appears in `records`. Records with
    /// non-finite or non-positive durations are skipped; every returned
    /// measurement is finite and positive, ready for
    /// [`DirectoryService::publish_measurement`].
    pub fn fit(&self, records: &[TransferRecord]) -> Vec<LinkMeasurement> {
        let p = self.prior.len();
        // obs[src*p + dst] = (bits, duration_ms) samples for that link.
        let mut obs: Vec<Vec<(f64, f64)>> = vec![Vec::new(); p * p];
        for r in records {
            if r.src >= p || r.dst >= p || r.src == r.dst {
                continue;
            }
            let dur = r.finish.as_ms() - r.start.as_ms();
            if !dur.is_finite() || dur <= 0.0 {
                continue;
            }
            obs[r.src * p + r.dst].push((r.bytes.bits() as f64, dur));
        }
        let mut out = Vec::new();
        for src in 0..p {
            for dst in 0..p {
                let samples = &obs[src * p + dst];
                if samples.is_empty() {
                    continue;
                }
                if let Some(m) = self.fit_link(src, dst, samples) {
                    out.push(m);
                }
            }
        }
        out
    }

    fn fit_link(&self, src: usize, dst: usize, samples: &[(f64, f64)]) -> Option<LinkMeasurement> {
        let prior = self.prior.estimate(src, dst);
        let n = samples.len() as f64;
        let distinct_sizes = {
            let first = samples[0].0;
            samples.iter().any(|&(x, _)| x != first)
        };
        let (startup_ms, bandwidth_kbps) = if distinct_sizes {
            // Least squares of duration on bits: slope = 1/B, intercept = T.
            let sx: f64 = samples.iter().map(|&(x, _)| x).sum();
            let sy: f64 = samples.iter().map(|&(_, y)| y).sum();
            let sxx: f64 = samples.iter().map(|&(x, _)| x * x).sum();
            let sxy: f64 = samples.iter().map(|&(x, y)| x * y).sum();
            let det = n * sxx - sx * sx;
            let slope = (n * sxy - sx * sy) / det;
            if slope > 0.0 && slope.is_finite() {
                let intercept = (sy - slope * sx) / n;
                (intercept.max(0.0), 1.0 / slope)
            } else {
                // Degenerate (e.g. smaller message took longer): average
                // out the noise with the single-size estimator below.
                self.single_size(prior, samples)
            }
        } else {
            self.single_size(prior, samples)
        };
        if !startup_ms.is_finite() || !bandwidth_kbps.is_finite() {
            return None;
        }
        let startup_ms = startup_ms.max(0.0);
        let bandwidth_kbps = bandwidth_kbps.max(MIN_KBPS);
        // Mean absolute residual against the fitted model. With B in
        // kbit/s (= bits/ms), predicted duration is `T + bits/B` ms.
        let residual_ms = samples
            .iter()
            .map(|&(bits, dur)| (dur - (startup_ms + bits / bandwidth_kbps)).abs())
            .sum::<f64>()
            / n;
        Some(LinkMeasurement {
            src,
            dst,
            startup_ms,
            bandwidth_kbps,
            samples: samples.len(),
            residual_ms,
        })
    }

    /// One observed size: keep the prior startup, solve for bandwidth
    /// from the mean duration. Zero-byte messages measure startup only.
    fn single_size(
        &self,
        prior: adaptcomm_model::cost::LinkEstimate,
        samples: &[(f64, f64)],
    ) -> (f64, f64) {
        let mean_bits = samples.iter().map(|&(x, _)| x).sum::<f64>() / samples.len() as f64;
        let mean_dur = samples.iter().map(|&(_, y)| y).sum::<f64>() / samples.len() as f64;
        if mean_bits <= 0.0 {
            (mean_dur, prior.bandwidth.as_kbps())
        } else {
            let t0 = prior.startup.as_ms().min(mean_dur);
            (t0, mean_bits / (mean_dur - t0).max(EPS_MS))
        }
    }

    /// Fits `records` and publishes every measurement into `directory`
    /// stamped `now`, refreshing the snapshot epoch. Each fitted
    /// measurement first passes through the link's reporting agent
    /// (`tamper`) and is then cross-checked against the realized transfer
    /// times before the directory accepts it: a claimed bandwidth outside
    /// [`TRUST_RATIO`] of what the observed durations support
    /// quarantines the link ([`DirectoryService::quarantine_link`]) and
    /// the honest realized fit is published instead — so a lying link
    /// can never price a replan, which is exactly how quarantined links
    /// are "excluded" from replanning.
    pub fn publish_checked(
        &self,
        directory: &DirectoryService,
        records: &[TransferRecord],
        now: Millis,
        tamper: Option<&dyn MeasurementTamper>,
    ) -> Result<PublishOutcome, PublishError> {
        let honest = self.fit(records);
        let mut outcome = PublishOutcome::default();
        for m in &honest {
            let claimed = match tamper {
                Some(t) => t.tamper(*m, now),
                None => *m,
            };
            let ratio = claimed.bandwidth_kbps / m.bandwidth_kbps;
            let lying = !ratio.is_finite() || ratio > TRUST_RATIO || ratio * TRUST_RATIO < 1.0;
            if lying && directory.quarantine_link(m.src, m.dst) {
                outcome.quarantined.push((m.src, m.dst));
            }
            // A quarantined link's claims are distrusted for good: only
            // the realized fit reaches the directory.
            let publish = if lying || directory.is_quarantined(m.src, m.dst) {
                m
            } else {
                &claimed
            };
            directory.publish_measurement(
                publish.src,
                publish.dst,
                publish.startup_ms,
                publish.bandwidth_kbps,
                now,
            )?;
            outcome.published += 1;
        }
        Ok(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adaptcomm_model::units::{Bandwidth, Bytes};

    fn rec(src: usize, dst: usize, bytes: u64, start: f64, finish: f64) -> TransferRecord {
        TransferRecord {
            src,
            dst,
            bytes: Bytes::new(bytes),
            start: Millis::new(start),
            finish: Millis::new(finish),
        }
    }

    fn prior(p: usize) -> NetParams {
        NetParams::uniform(p, Millis::new(10.0), Bandwidth::from_kbps(1_000.0))
    }

    #[test]
    fn two_sizes_recover_both_parameters_exactly() {
        // True link: T = 4 ms, B = 500 kbit/s.
        let t = 4.0;
        let b = 500.0;
        let d = |bytes: f64| t + bytes * 8.0 / b;
        let records = vec![
            rec(0, 1, 1_000, 0.0, d(1_000.0)),
            rec(0, 1, 100_000, 50.0, 50.0 + d(100_000.0)),
        ];
        let fits = Prober::new(prior(2)).fit(&records);
        assert_eq!(fits.len(), 1);
        let m = fits[0];
        assert_eq!((m.src, m.dst, m.samples), (0, 1, 2));
        assert!((m.startup_ms - t).abs() < 1e-6, "startup {}", m.startup_ms);
        assert!(
            (m.bandwidth_kbps - b).abs() < 1e-6,
            "bw {}",
            m.bandwidth_kbps
        );
        assert!(m.residual_ms < 1e-6, "exact fit has ~zero residual");
    }

    #[test]
    fn noisy_observations_report_a_residual() {
        // Two same-size observations with different durations cannot both
        // sit on the fitted line: the residual reflects the spread.
        let records = vec![
            rec(0, 1, 10_000, 0.0, 80.0),
            rec(0, 1, 10_000, 100.0, 200.0),
        ];
        let fits = Prober::new(prior(2)).fit(&records);
        assert_eq!(fits.len(), 1);
        // Mean duration 90 ms; observations at 80 and 100 → mean abs
        // residual exactly 10 ms.
        assert!(
            (fits[0].residual_ms - 10.0).abs() < 1e-6,
            "residual {}",
            fits[0].residual_ms
        );
    }

    #[test]
    fn single_size_keeps_prior_startup() {
        // One 10 kB observation at 90 ms on a prior (10 ms, 1000 kbps)
        // link: bandwidth becomes 80_000 bits / 80 ms = 1000 kbps.
        let records = vec![rec(0, 1, 10_000, 0.0, 90.0)];
        let fits = Prober::new(prior(2)).fit(&records);
        let m = fits[0];
        assert_eq!(m.startup_ms, 10.0);
        assert!((m.bandwidth_kbps - 1_000.0).abs() < 1e-6);
        // A slower observation reads as lower bandwidth.
        let slow = Prober::new(prior(2)).fit(&[rec(0, 1, 10_000, 0.0, 170.0)]);
        assert!((slow[0].bandwidth_kbps - 500.0).abs() < 1e-6);
    }

    #[test]
    fn zero_byte_messages_measure_startup_only() {
        let fits = Prober::new(prior(2)).fit(&[rec(1, 0, 0, 0.0, 7.5)]);
        let m = fits[0];
        assert_eq!(m.startup_ms, 7.5);
        assert_eq!(m.bandwidth_kbps, 1_000.0);
    }

    #[test]
    fn garbage_durations_never_reach_the_directory() {
        let records = vec![
            rec(0, 1, 1_000, 5.0, 5.0),       // zero duration
            rec(1, 0, 1_000, 10.0, f64::NAN), // poisoned finish
            rec(0, 0, 1_000, 0.0, 9.0),       // diagonal
        ];
        assert!(Prober::new(prior(2)).fit(&records).is_empty());
    }

    /// A reporting agent that inflates one link's bandwidth claim.
    struct Inflate {
        link: (usize, usize),
        factor: f64,
    }

    impl MeasurementTamper for Inflate {
        fn tamper(&self, mut honest: LinkMeasurement, _now: Millis) -> LinkMeasurement {
            if (honest.src, honest.dst) == self.link {
                honest.bandwidth_kbps *= self.factor;
            }
            honest
        }
    }

    #[test]
    fn inflated_claims_are_quarantined_and_replaced_by_realized_fits() {
        let dir = DirectoryService::new(prior(3));
        // Realized: 10 kB in 170 ms on a (10 ms, 1000 kbps) prior link
        // → honest bandwidth 500 kbps. The agent claims 4× that.
        let records = vec![rec(0, 2, 10_000, 0.0, 170.0), rec(2, 0, 10_000, 0.0, 170.0)];
        let tamper = Inflate {
            link: (0, 2),
            factor: 4.0,
        };
        let out = Prober::new(prior(3))
            .publish_checked(&dir, &records, Millis::new(170.0), Some(&tamper))
            .expect("valid measurements");
        assert_eq!(out.published, 2);
        assert_eq!(out.quarantined, vec![(0, 2)]);
        assert!(dir.is_quarantined(0, 2));
        assert!(!dir.is_quarantined(2, 0), "honest link stays trusted");
        // The directory holds the realized 500 kbps, not the 2000 claim.
        let snap = dir.snapshot();
        assert!((snap.params().estimate(0, 2).bandwidth.as_kbps() - 500.0).abs() < 1e-6);
        assert!((snap.params().estimate(2, 0).bandwidth.as_kbps() - 500.0).abs() < 1e-6);
        // A later pass keeps distrusting the link without re-quarantining.
        let again = Prober::new(prior(3))
            .publish_checked(&dir, &records, Millis::new(340.0), Some(&tamper))
            .unwrap();
        assert!(again.quarantined.is_empty());
        assert!(dir.is_quarantined(0, 2));
    }

    #[test]
    fn honest_claims_never_quarantine() {
        let dir = DirectoryService::new(prior(3));
        let records = vec![rec(0, 1, 10_000, 0.0, 90.0), rec(1, 0, 10_000, 0.0, 170.0)];
        let out = Prober::new(prior(3))
            .publish_checked(&dir, &records, Millis::new(170.0), None)
            .unwrap();
        assert_eq!(out.published, 2);
        assert!(out.quarantined.is_empty());
        assert!(dir.quarantined_links().is_empty());
    }

    #[test]
    fn publish_checked_updates_the_directory_epoch() {
        let dir = DirectoryService::new(prior(3));
        let before = dir.snapshot();
        let out = Prober::new(prior(3))
            .publish_checked(
                &dir,
                &[rec(0, 2, 10_000, 0.0, 170.0)],
                Millis::new(170.0),
                None,
            )
            .expect("valid measurement");
        assert_eq!(out.published, 1);
        let after = dir.snapshot();
        assert!(after.sequence() > before.sequence());
        assert_eq!(after.taken_at().as_ms(), 170.0);
        assert!((after.params().estimate(0, 2).bandwidth.as_kbps() - 500.0).abs() < 1e-6);
        // Untouched links keep the prior.
        assert_eq!(after.params().estimate(1, 0).bandwidth.as_kbps(), 1_000.0);
    }
}
