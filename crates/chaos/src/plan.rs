//! Seeded, deterministic fault scenarios.
//!
//! A [`ChaosPlan`] is a list of [`ChaosEvent`]s against a fixed
//! processor count: crashes with optional restarts, partitions with
//! scheduled heal times, and lying links whose *reported* bandwidth is
//! a configured multiple of the realized one. Plans come from three
//! places — built literally in tests, parsed from the CLI's compact
//! spec DSL ([`ChaosPlan::parse`]), or generated from a named class and
//! a seed ([`ChaosPlan::generate`]) — and all three produce the same
//! structure, so every consumer (evolution, transport decorator,
//! measurement tamper, report classifier) reads one source of truth.

use adaptcomm_model::units::Millis;
use adaptcomm_runtime::prober::{LinkMeasurement, MeasurementTamper};
use adaptcomm_runtime::RuntimeError;
use std::fmt;

/// One injected fault.
#[derive(Debug, Clone, PartialEq)]
pub enum ChaosEvent {
    /// Processor `proc` crashes at `at`; every link touching it is dead
    /// until `restart_at` (forever when `None`).
    Crash {
        /// The crashing processor.
        proc: usize,
        /// Crash instant, modeled milliseconds.
        at: Millis,
        /// Restart instant, or `None` for a permanent crash.
        restart_at: Option<Millis>,
    },
    /// Every link between `group` and the rest of the machine is dead
    /// in `[at, heal_at)`, both directions.
    Partition {
        /// Processors on one side of the cut.
        group: Vec<usize>,
        /// Partition instant, modeled milliseconds.
        at: Millis,
        /// Heal instant, modeled milliseconds.
        heal_at: Millis,
    },
    /// From `from` onwards the link `src → dst` realizes only
    /// `1/factor` of its base bandwidth while its reporting agent
    /// claims the full fitted value times `factor` — the adversarial
    /// probe the trust cross-check exists to catch.
    LyingLink {
        /// Sending processor.
        src: usize,
        /// Receiving processor.
        dst: usize,
        /// Onset instant, modeled milliseconds.
        from: Millis,
        /// Ratio of reported to realized bandwidth (> 1 inflates).
        factor: f64,
    },
}

impl fmt::Display for ChaosEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosEvent::Crash {
                proc,
                at,
                restart_at,
            } => match restart_at {
                Some(r) => write!(f, "crash:{proc}@{}..{}", at.as_ms(), r.as_ms()),
                None => write!(f, "crash:{proc}@{}", at.as_ms()),
            },
            ChaosEvent::Partition { group, at, heal_at } => {
                let nodes: Vec<String> = group.iter().map(|n| n.to_string()).collect();
                write!(
                    f,
                    "partition:{}@{}..{}",
                    nodes.join(","),
                    at.as_ms(),
                    heal_at.as_ms()
                )
            }
            ChaosEvent::LyingLink {
                src,
                dst,
                from,
                factor,
            } => write!(f, "liar:{src}-{dst}@{}x{factor}", from.as_ms()),
        }
    }
}

/// A validated, deterministic fault scenario for a `p`-processor run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosPlan {
    /// Processor count the events are indexed against.
    pub p: usize,
    /// Injected faults, in no particular order.
    pub events: Vec<ChaosEvent>,
}

fn in_window(t: Millis, at: Millis, end: Option<Millis>) -> bool {
    t.as_ms() >= at.as_ms() && end.is_none_or(|e| t.as_ms() < e.as_ms())
}

impl ChaosPlan {
    /// A plan injecting nothing — the fault-free control.
    pub fn empty(p: usize) -> Self {
        ChaosPlan {
            p,
            events: Vec::new(),
        }
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Checks indices, windows and factors; returns the first problem.
    pub fn validate(&self) -> Result<(), String> {
        if self.p < 2 {
            return Err(format!("need at least 2 processors, got {}", self.p));
        }
        let time_ok = |t: Millis| t.as_ms().is_finite() && t.as_ms() >= 0.0;
        for ev in &self.events {
            match ev {
                ChaosEvent::Crash {
                    proc,
                    at,
                    restart_at,
                } => {
                    if *proc >= self.p {
                        return Err(format!("crash names processor {proc} but p = {}", self.p));
                    }
                    if !time_ok(*at) {
                        return Err(format!("crash time {at} is not a valid instant"));
                    }
                    if let Some(r) = restart_at {
                        if !time_ok(*r) || r.as_ms() <= at.as_ms() {
                            return Err(format!("crash restart {r} must come after {at}"));
                        }
                    }
                }
                ChaosEvent::Partition { group, at, heal_at } => {
                    if group.is_empty() || group.len() >= self.p {
                        return Err(
                            "a partition group must be a proper non-empty subset".to_string()
                        );
                    }
                    if let Some(n) = group.iter().find(|&&n| n >= self.p) {
                        return Err(format!("partition names processor {n} but p = {}", self.p));
                    }
                    if !time_ok(*at) || !time_ok(*heal_at) || heal_at.as_ms() <= at.as_ms() {
                        return Err(format!("partition window {at}..{heal_at} is not ordered"));
                    }
                }
                ChaosEvent::LyingLink {
                    src,
                    dst,
                    from,
                    factor,
                } => {
                    if *src >= self.p || *dst >= self.p || src == dst {
                        return Err(format!(
                            "lying link {src} -> {dst} is not a link of a {}-processor machine",
                            self.p
                        ));
                    }
                    if !time_ok(*from) {
                        return Err(format!("lying-link onset {from} is not a valid instant"));
                    }
                    if !factor.is_finite() || *factor <= 0.0 {
                        return Err(format!("lying factor must be positive, got {factor}"));
                    }
                }
            }
        }
        Ok(())
    }

    /// True when the directed link `src → dst` is dead at `t` because a
    /// crash or partition window covers it.
    pub fn link_blocked(&self, src: usize, dst: usize, t: Millis) -> bool {
        self.blocking_error(src, dst, t).is_some()
    }

    /// The typed error a transfer landing on `src → dst` at `t` dies
    /// with, if a crash or partition window covers the link (crashes
    /// take precedence — a crashed node explains more than a cut).
    pub fn blocking_error(&self, src: usize, dst: usize, t: Millis) -> Option<RuntimeError> {
        for ev in &self.events {
            if let ChaosEvent::Crash {
                proc,
                at,
                restart_at,
            } = ev
            {
                if (src == *proc || dst == *proc) && in_window(t, *at, *restart_at) {
                    return Some(RuntimeError::ProcessorCrashed {
                        proc: *proc,
                        src,
                        dst,
                        at: t,
                    });
                }
            }
        }
        for ev in &self.events {
            if let ChaosEvent::Partition { group, at, heal_at } = ev {
                if group.contains(&src) != group.contains(&dst) && in_window(t, *at, Some(*heal_at))
                {
                    return Some(RuntimeError::LinkPartitioned { src, dst, at: t });
                }
            }
        }
        None
    }

    /// The reported/realized bandwidth ratio active on `src → dst` at
    /// `t`, if a lying link covers it.
    pub fn lying_factor(&self, src: usize, dst: usize, t: Millis) -> Option<f64> {
        self.events.iter().find_map(|ev| match ev {
            ChaosEvent::LyingLink {
                src: s,
                dst: d,
                from,
                factor,
            } if *s == src && *d == dst && in_window(t, *from, None) => Some(*factor),
            _ => None,
        })
    }

    /// Reclassifies a detected fault on `link` at `t` against the
    /// injected scenario: the runtime only sees a dead link, the plan
    /// knows whether a crash, a partition or a lie caused it.
    pub fn classify(
        &self,
        link: (usize, usize),
        t: Millis,
        runtime_kind: &'static str,
    ) -> &'static str {
        match self.blocking_error(link.0, link.1, t) {
            Some(RuntimeError::ProcessorCrashed { .. }) => "crash",
            Some(RuntimeError::LinkPartitioned { .. }) => "partition",
            _ if self.lying_factor(link.0, link.1, t).is_some() => "liar",
            _ => runtime_kind,
        }
    }
}

/// Lying links tamper with the measurements their reporting agent
/// publishes: the honest fitted bandwidth is inflated by the configured
/// factor. The trust cross-check compares the claim against the same
/// realized timings the fit came from, so the inflation is exactly what
/// gets the link quarantined.
impl MeasurementTamper for ChaosPlan {
    fn tamper(&self, mut honest: LinkMeasurement, now: Millis) -> LinkMeasurement {
        if let Some(f) = self.lying_factor(honest.src, honest.dst, now) {
            honest.bandwidth_kbps *= f;
        }
        honest
    }
}

// ---------------------------------------------------------------------
// Parsing: the CLI's compact spec DSL.
// ---------------------------------------------------------------------

fn parse_ms(s: &str) -> Result<Millis, String> {
    s.trim()
        .parse::<f64>()
        .map(Millis::new)
        .map_err(|_| format!("`{s}` is not a time in milliseconds"))
}

fn parse_window(s: &str) -> Result<(Millis, Millis), String> {
    let (a, b) = s
        .split_once("..")
        .ok_or_else(|| format!("`{s}` is not a window (want START..END)"))?;
    Ok((parse_ms(a)?, parse_ms(b)?))
}

impl ChaosPlan {
    /// Parses the CLI spec DSL: `;`-separated events of the forms
    ///
    /// * `crash:PROC@AT..RESTART` or `crash:PROC@AT` (never restarts),
    /// * `partition:N,N,...@AT..HEAL`,
    /// * `liar:SRC-DST@FROMxFACTOR`,
    ///
    /// e.g. `crash:2@120..400;liar:1-3@50x4`. The result is validated.
    pub fn parse(p: usize, spec: &str) -> Result<ChaosPlan, String> {
        let mut events = Vec::new();
        for part in spec.split(';') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (kind, rest) = part
                .split_once(':')
                .ok_or_else(|| format!("`{part}` has no `kind:` prefix"))?;
            let event = match kind {
                "crash" => {
                    let (proc, when) = rest
                        .split_once('@')
                        .ok_or_else(|| format!("`{rest}` has no `@time`"))?;
                    let proc = proc
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| format!("`{proc}` is not a processor index"))?;
                    match when.split_once("..") {
                        Some((a, r)) => ChaosEvent::Crash {
                            proc,
                            at: parse_ms(a)?,
                            restart_at: Some(parse_ms(r)?),
                        },
                        None => ChaosEvent::Crash {
                            proc,
                            at: parse_ms(when)?,
                            restart_at: None,
                        },
                    }
                }
                "partition" => {
                    let (nodes, window) = rest
                        .split_once('@')
                        .ok_or_else(|| format!("`{rest}` has no `@window`"))?;
                    let group = nodes
                        .split(',')
                        .map(|n| {
                            n.trim()
                                .parse::<usize>()
                                .map_err(|_| format!("`{n}` is not a processor index"))
                        })
                        .collect::<Result<Vec<usize>, String>>()?;
                    let (at, heal_at) = parse_window(window)?;
                    ChaosEvent::Partition { group, at, heal_at }
                }
                "liar" => {
                    let (link, onset) = rest
                        .split_once('@')
                        .ok_or_else(|| format!("`{rest}` has no `@onset`"))?;
                    let (src, dst) = link
                        .split_once('-')
                        .ok_or_else(|| format!("`{link}` is not a link (want SRC-DST)"))?;
                    let src = src
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| format!("`{src}` is not a processor index"))?;
                    let dst = dst
                        .trim()
                        .parse::<usize>()
                        .map_err(|_| format!("`{dst}` is not a processor index"))?;
                    let (from, factor) = onset
                        .split_once('x')
                        .ok_or_else(|| format!("`{onset}` has no `xFACTOR`"))?;
                    ChaosEvent::LyingLink {
                        src,
                        dst,
                        from: parse_ms(from)?,
                        factor: factor
                            .trim()
                            .parse::<f64>()
                            .map_err(|_| format!("`{factor}` is not a factor"))?,
                    }
                }
                other => return Err(format!("unknown fault kind `{other}`")),
            };
            events.push(event);
        }
        let plan = ChaosPlan { p, events };
        plan.validate()?;
        Ok(plan)
    }
}

// ---------------------------------------------------------------------
// Generation: named classes, seeded and horizon-scaled.
// ---------------------------------------------------------------------

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Uniform draw in `[0, 1)` from one splitmix64 step.
fn unit(state: &mut u64) -> f64 {
    (splitmix64(state) >> 11) as f64 / (1u64 << 53) as f64
}

fn pick(state: &mut u64, p: usize, exclude: &[usize]) -> usize {
    loop {
        let n = (splitmix64(state) % p as u64) as usize;
        if !exclude.contains(&n) {
            return n;
        }
    }
}

impl ChaosPlan {
    /// Builds a named scenario class, deterministic in `(class, p,
    /// seed)` and scaled to the fault-free makespan `horizon_ms` so the
    /// faults land mid-collective and heal before the SLO window
    /// closes:
    ///
    /// * `crash` — one processor crashes at ~15 % of the horizon and
    ///   restarts at ~45 %;
    /// * `partition` — a two-node group is cut at ~10 % and heals at
    ///   ~40 %;
    /// * `liar` — one link reports 4× its realized bandwidth from the
    ///   start;
    /// * `mixed` — all three at once, on disjoint processors.
    pub fn generate(
        class: &str,
        p: usize,
        seed: u64,
        horizon_ms: f64,
    ) -> Result<ChaosPlan, String> {
        if p < 4 {
            return Err(format!("chaos scenarios need p >= 4, got {p}"));
        }
        if !horizon_ms.is_finite() || horizon_ms <= 0.0 {
            return Err(format!("horizon must be positive, got {horizon_ms} ms"));
        }
        let mut state = seed ^ 0xc2b2_ae3d_27d4_eb4f;
        let h = horizon_ms;
        let crash = |state: &mut u64, exclude: &[usize]| {
            let proc = pick(state, p, exclude);
            let at = (0.10 + 0.10 * unit(state)) * h;
            let restart = (0.40 + 0.10 * unit(state)) * h;
            (
                proc,
                ChaosEvent::Crash {
                    proc,
                    at: Millis::new(at),
                    restart_at: Some(Millis::new(restart)),
                },
            )
        };
        let partition = |state: &mut u64, exclude: &[usize]| {
            let a = pick(state, p, exclude);
            let mut ex = exclude.to_vec();
            ex.push(a);
            let b = pick(state, p, &ex);
            let at = (0.05 + 0.10 * unit(state)) * h;
            let heal = (0.35 + 0.10 * unit(state)) * h;
            (
                [a, b],
                ChaosEvent::Partition {
                    group: vec![a, b],
                    at: Millis::new(at),
                    heal_at: Millis::new(heal),
                },
            )
        };
        let liar = |state: &mut u64, exclude: &[usize]| {
            let src = pick(state, p, exclude);
            let mut ex = exclude.to_vec();
            ex.push(src);
            let dst = pick(state, p, &ex);
            ChaosEvent::LyingLink {
                src,
                dst,
                from: Millis::ZERO,
                factor: 4.0,
            }
        };
        let events = match class {
            "crash" => vec![crash(&mut state, &[]).1],
            "partition" => vec![partition(&mut state, &[]).1],
            "liar" => vec![liar(&mut state, &[])],
            "mixed" => {
                if p < 6 {
                    return Err(format!("the mixed scenario needs p >= 6, got {p}"));
                }
                let (c, crash_ev) = crash(&mut state, &[]);
                let (cut, part_ev) = partition(&mut state, &[c]);
                let liar_ev = liar(&mut state, &[c, cut[0], cut[1]]);
                vec![crash_ev, part_ev, liar_ev]
            }
            other => {
                return Err(format!(
                    "unknown scenario class `{other}` (want crash, partition, liar or mixed, \
                     or a spec like crash:2@120..400)"
                ))
            }
        };
        let plan = ChaosPlan { p, events };
        plan.validate()?;
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_through_display() {
        let plan = ChaosPlan::parse(8, "crash:2@120..400; partition:0,1@80..300; liar:1-3@50x4")
            .expect("a well-formed spec must parse");
        assert_eq!(plan.events.len(), 3);
        let rendered: Vec<String> = plan.events.iter().map(|e| e.to_string()).collect();
        let reparsed = ChaosPlan::parse(8, &rendered.join(";")).unwrap();
        assert_eq!(plan, reparsed);
    }

    #[test]
    fn malformed_specs_are_rejected_with_a_reason() {
        for bad in [
            "crash:9@10..20",     // processor out of range
            "partition:0@10..20", // group is the whole... no: singleton ok; use full set
            "liar:1-1@0x4",       // self-link
            "liar:0-1@0x-2",      // non-positive factor
            "crash:1@40..30",     // restart before crash
            "explode:1@5",        // unknown kind
            "crash:1",            // no time
        ] {
            if bad == "partition:0@10..20" {
                continue;
            }
            assert!(
                ChaosPlan::parse(4, bad).is_err(),
                "`{bad}` must be rejected"
            );
        }
        let full = "partition:0,1,2,3@10..20"; // group == whole machine
        assert!(ChaosPlan::parse(4, full).is_err());
    }

    #[test]
    fn windows_block_exactly_their_links() {
        let plan = ChaosPlan::parse(6, "crash:2@100..200;partition:0,1@300..400").unwrap();
        // Crash: every link touching 2, only inside the window.
        assert!(!plan.link_blocked(2, 4, Millis::new(99.0)));
        assert!(plan.link_blocked(2, 4, Millis::new(100.0)));
        assert!(plan.link_blocked(4, 2, Millis::new(199.9)));
        assert!(!plan.link_blocked(2, 4, Millis::new(200.0)));
        assert!(!plan.link_blocked(3, 4, Millis::new(150.0)));
        // Partition: only links crossing the cut.
        assert!(plan.link_blocked(0, 5, Millis::new(350.0)));
        assert!(plan.link_blocked(5, 1, Millis::new(350.0)));
        assert!(
            !plan.link_blocked(0, 1, Millis::new(350.0)),
            "intra-group survives"
        );
        assert!(
            !plan.link_blocked(3, 4, Millis::new(350.0)),
            "outside-group survives"
        );
        // Classification sees through the runtime's generic dead-link.
        assert_eq!(
            plan.classify((2, 4), Millis::new(150.0), "dead-link"),
            "crash"
        );
        assert_eq!(
            plan.classify((0, 5), Millis::new(350.0), "dead-link"),
            "partition"
        );
        assert_eq!(
            plan.classify((3, 4), Millis::new(350.0), "dead-link"),
            "dead-link"
        );
    }

    #[test]
    fn generation_is_deterministic_and_valid() {
        for class in ["crash", "partition", "liar", "mixed"] {
            let a = ChaosPlan::generate(class, 8, 42, 1_000.0).expect(class);
            let b = ChaosPlan::generate(class, 8, 42, 1_000.0).expect(class);
            assert_eq!(a, b, "same seed must give the same {class} plan");
            let c = ChaosPlan::generate(class, 8, 43, 1_000.0).expect(class);
            if class != "liar" {
                // Different seeds move the windows (liar only moves its
                // link, which can collide for small p — times are fixed).
                assert!(a != c || class == "liar");
            }
            a.validate().expect("generated plans validate");
            let permanent = |ev: &ChaosEvent| {
                matches!(
                    ev,
                    ChaosEvent::Crash {
                        restart_at: None,
                        ..
                    }
                )
            };
            assert!(
                !a.events.iter().any(permanent),
                "named scenarios must always heal so SLOs are checkable"
            );
        }
        assert!(ChaosPlan::generate("meteor", 8, 1, 1_000.0).is_err());
        assert!(ChaosPlan::generate("mixed", 4, 1, 1_000.0).is_err());
    }

    #[test]
    fn the_tamper_inflates_only_active_lying_links() {
        let plan = ChaosPlan::parse(4, "liar:1-3@50x4").unwrap();
        let honest = LinkMeasurement {
            src: 1,
            dst: 3,
            startup_ms: 2.0,
            bandwidth_kbps: 500.0,
            samples: 3,
            residual_ms: 0.0,
        };
        let before = plan.tamper(honest, Millis::new(40.0));
        assert_eq!(before.bandwidth_kbps, 500.0, "not yet lying");
        let after = plan.tamper(honest, Millis::new(60.0));
        assert_eq!(after.bandwidth_kbps, 2_000.0, "4x inflation once active");
        let other = LinkMeasurement { src: 0, ..honest };
        assert_eq!(
            plan.tamper(other, Millis::new(60.0)).bandwidth_kbps,
            500.0,
            "other links stay honest"
        );
    }
}
