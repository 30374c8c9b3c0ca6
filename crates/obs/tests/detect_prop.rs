//! Detector properties: the CUSUM false-alarm / detection-delay
//! trade-off.
//!
//! The default CUSUM configuration (`k = 0.5σ, h = 8σ`) promises an
//! in-control average run length of thousands of samples and a
//! detection delay of roughly `h / (δ − k)` for a sustained `δσ` shift.
//! These tests hold the implementation to both sides of that bargain on
//! synthetic Gaussian data (Box–Muller over the deterministic test
//! RNG).

use adaptcomm_obs::{Cusum, CusumConfig, DriftDirection};
use proptest::prelude::*;

/// Box–Muller: two uniforms in (0, 1] → one standard normal draw.
fn gaussian(u1: f64, u2: f64) -> f64 {
    let u1 = u1.max(1e-12);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// In-control behavior: 64 samples of stationary Gaussian data
    /// around an arbitrary reference never fire the default CUSUM. The default ARL₀ is in the thousands, so over all
    /// 16 × 64 samples the expected alarm count is ≈ 0.1 — and the test
    /// RNG is deterministic, making the property pinned, not flaky.
    #[test]
    fn stationary_gaussian_never_fires(
        mean in -50.0f64..50.0,
        std in 0.1f64..5.0,
        uniforms in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 64),
    ) {
        let mut c = Cusum::with_reference(CusumConfig::default(), mean, std);
        for (u1, u2) in uniforms {
            let x = mean + std * gaussian(u1, u2);
            prop_assert_eq!(c.update(x), None, "false alarm on stationary data");
        }
    }

    /// Out-of-control behavior: once the level steps up by `δσ`
    /// (δ ≥ 1.5), the alarm arrives within a few multiples of the
    /// textbook delay `h / (δ − k)`, and it points `Up`.
    #[test]
    fn step_shift_is_detected_with_bounded_delay(
        delta in 1.5f64..4.0,
        mean in -10.0f64..10.0,
        std in 0.5f64..2.0,
        uniforms in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 160),
    ) {
        let cfg = CusumConfig::default();
        let mut c = Cusum::with_reference(cfg, mean, std);
        let (warm, shifted) = uniforms.split_at(60);
        for &(u1, u2) in warm {
            c.update(mean + std * gaussian(u1, u2));
        }
        let expected = cfg.threshold / (delta - cfg.drift);
        let budget = (3.0 * expected).ceil() as usize + 5;
        let mut fired_after = None;
        for (i, &(u1, u2)) in shifted.iter().enumerate() {
            let x = mean + std * (delta + gaussian(u1, u2));
            if let Some(dir) = c.update(x) {
                prop_assert_eq!(dir, DriftDirection::Up);
                fired_after = Some(i + 1);
                break;
            }
        }
        let delay = fired_after.expect("a sustained >=1.5 sigma step must fire");
        prop_assert!(
            delay <= budget,
            "delta={delta:.2}: fired after {delay} samples, budget {budget}"
        );
    }

    /// The same holds for downward steps, mirrored.
    #[test]
    fn downward_steps_fire_down(
        delta in 1.5f64..4.0,
        uniforms in proptest::collection::vec((0.0f64..1.0, 0.0f64..1.0), 100),
    ) {
        let mut c = Cusum::with_reference(CusumConfig::default(), 0.0, 1.0);
        let mut fired = None;
        for (u1, u2) in uniforms {
            if let Some(dir) = c.update(-delta + gaussian(u1, u2)) {
                fired = Some(dir);
                break;
            }
        }
        prop_assert_eq!(fired, Some(DriftDirection::Down));
    }
}
