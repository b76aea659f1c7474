//! Declarative SLOs evaluated into multi-window burn-rate alerts.
//!
//! The SRE burn-rate recipe: an objective (say 99.9% success) leaves an
//! *error budget* of `1 - target`. The **burn rate** over a window is
//! `bad_fraction / error_budget` — burn 1 spends the budget exactly at
//! the objective's horizon; burn 14 exhausts a 30-day budget in ~2
//! days. Alerting on burn over *two* windows (a short one for
//! responsiveness, a long one to reject blips) fires fast on real
//! incidents and stays quiet through noise: both windows must exceed
//! the threshold to fire, both must drop below it to resolve.
//!
//! Objectives read the flight recorder's series: success ratios from
//! counter-rate pairs, latency objectives from quantile digests (the
//! bad fraction interpolated on the digest's quantile curve). Alert
//! transitions are recorded as [`AlertEvent`]s and pushed into a
//! [`snap_health::AdvisoryLog`] — *advisory* inputs to the health
//! sweep, never automatic quarantine triggers, so the SLO layer keeps
//! the monitor's determinism contract.

use snap_health::{Advisory, AdvisoryLog, Verdict};
use snap_sim::Nanos;

use crate::recorder::{FlightRecorder, PointValue};

/// What an SLO watches.
#[derive(Debug, Clone)]
pub enum Objective {
    /// Fraction of good events: `good` and `total` are counter series
    /// (rates per tick); the bad fraction over a window is
    /// `1 - sum(good)/sum(total)`. Windows with no events are clean.
    SuccessRatio {
        /// Series counting good events.
        good: String,
        /// Series counting all events.
        total: String,
    },
    /// Latency objective: fraction of `series` samples above
    /// `threshold_ns` is the bad fraction (interpolated per digest).
    LatencyBelow {
        /// A digest series (histogram-backed).
        series: String,
        /// The objective's latency bound, in nanoseconds.
        threshold_ns: u64,
    },
}

/// One declarative objective plus its alerting policy.
#[derive(Debug, Clone)]
pub struct SloSpec {
    /// Stable name (alert labels, advisory source).
    pub name: String,
    /// What to measure.
    pub objective: Objective,
    /// The objective target in `(0, 1)`, e.g. `0.999`.
    pub target: f64,
    /// Fast window (responsiveness).
    pub short_window: Nanos,
    /// Slow window (blip rejection).
    pub long_window: Nanos,
    /// Burn-rate threshold; both windows must exceed it to fire.
    pub burn_threshold: f64,
}

/// Alert lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Within budget.
    Ok,
    /// Burning budget over both windows.
    Firing,
}

/// One alert transition.
#[derive(Debug, Clone)]
pub struct AlertEvent {
    /// Virtual time of the transition.
    pub at: Nanos,
    /// The SLO that transitioned.
    pub slo: String,
    /// New state.
    pub state: AlertState,
    /// Short-window burn rate at the transition.
    pub short_burn: f64,
    /// Long-window burn rate at the transition.
    pub long_burn: f64,
}

struct SloState {
    spec: SloSpec,
    state: AlertState,
}

/// Evaluates a set of SLOs against a flight recorder. Call
/// [`SloEngine::evaluate`] on the sampling cadence (or less often);
/// evaluation is a pure read of recorded series.
pub struct SloEngine {
    slos: Vec<SloState>,
    events: Vec<AlertEvent>,
    advisory: Option<AdvisoryLog>,
}

impl Default for SloEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl SloEngine {
    /// Creates an empty engine.
    pub fn new() -> Self {
        SloEngine {
            slos: Vec::new(),
            events: Vec::new(),
            advisory: None,
        }
    }

    /// Adds an objective.
    pub fn add(&mut self, spec: SloSpec) {
        self.slos.push(SloState {
            spec,
            state: AlertState::Ok,
        });
    }

    /// Routes alert transitions into a health advisory log.
    pub fn feed_advisories(&mut self, log: AdvisoryLog) {
        self.advisory = Some(log);
    }

    /// Burn rate of `spec`'s objective over `[now - window, now]`.
    fn burn_rate(
        recorder: &FlightRecorder,
        spec: &SloSpec,
        now: Nanos,
        window: Nanos,
    ) -> f64 {
        let from = now.saturating_sub(window);
        let bad_fraction = match &spec.objective {
            Objective::SuccessRatio { good, total } => {
                let sum = |name: &str| -> u64 {
                    recorder
                        .series(name)
                        .iter()
                        .filter(|(at, _)| *at > from)
                        .map(|(_, v)| match v {
                            PointValue::Rate(r) => *r,
                            _ => 0,
                        })
                        .sum()
                };
                let g = sum(good);
                let t = sum(total);
                if t == 0 {
                    0.0
                } else {
                    1.0 - (g.min(t) as f64 / t as f64)
                }
            }
            Objective::LatencyBelow {
                series,
                threshold_ns,
            } => {
                let mut bad = 0.0f64;
                let mut count = 0u64;
                for (at, v) in recorder.series(series) {
                    if at <= from {
                        continue;
                    }
                    if let PointValue::Digest(d) = v {
                        bad += d.fraction_above(*threshold_ns) * d.count as f64;
                        count += d.count;
                    }
                }
                if count == 0 {
                    0.0
                } else {
                    bad / count as f64
                }
            }
        };
        let budget = (1.0 - spec.target).max(f64::EPSILON);
        bad_fraction / budget
    }

    /// One evaluation pass at `now`; returns transitions made this
    /// pass (also appended to [`SloEngine::events`] and the advisory
    /// log).
    pub fn evaluate(&mut self, recorder: &FlightRecorder, now: Nanos) -> Vec<AlertEvent> {
        let mut fired = Vec::new();
        for slo in &mut self.slos {
            let short = Self::burn_rate(recorder, &slo.spec, now, slo.spec.short_window);
            let long = Self::burn_rate(recorder, &slo.spec, now, slo.spec.long_window);
            let next = if short >= slo.spec.burn_threshold && long >= slo.spec.burn_threshold
            {
                AlertState::Firing
            } else if short < slo.spec.burn_threshold && long < slo.spec.burn_threshold {
                AlertState::Ok
            } else {
                slo.state // split verdict: hold the current state
            };
            if next != slo.state {
                slo.state = next;
                let event = AlertEvent {
                    at: now,
                    slo: slo.spec.name.clone(),
                    state: next,
                    short_burn: short,
                    long_burn: long,
                };
                if let Some(log) = &self.advisory {
                    log.push(Advisory {
                        at: now,
                        source: format!("slo.{}", slo.spec.name),
                        severity: match next {
                            AlertState::Firing => Verdict::Degraded,
                            AlertState::Ok => Verdict::Healthy,
                        },
                        reason: format!(
                            "burn {short:.1}x/{long:.1}x over {}us/{}us windows",
                            slo.spec.short_window.as_nanos() / 1_000,
                            slo.spec.long_window.as_nanos() / 1_000
                        ),
                    });
                }
                fired.push(event.clone());
                self.events.push(event);
            }
        }
        fired
    }

    /// Current state of an SLO by name.
    pub fn state(&self, name: &str) -> Option<AlertState> {
        self.slos
            .iter()
            .find(|s| s.spec.name == name)
            .map(|s| s.state)
    }

    /// Every transition recorded so far, in order.
    pub fn events(&self) -> &[AlertEvent] {
        &self.events
    }

    /// Deterministic JSON dump of all alert transitions.
    pub fn events_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("[");
        for (i, e) in self.events.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "{{\"at_ns\": {}, \"slo\": \"{}\", \"state\": \"{}\", \
                 \"short_burn\": {:.3}, \"long_burn\": {:.3}}}",
                e.at.as_nanos(),
                e.slo,
                match e.state {
                    AlertState::Firing => "firing",
                    AlertState::Ok => "ok",
                },
                e.short_burn,
                e.long_burn
            );
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::RecorderConfig;
    use snap_sim::Sim;
    use snap_telemetry::{StatsConfig, StatsModule};

    fn tick(rec: &FlightRecorder, sim: &mut Sim, at: Nanos) {
        sim.schedule_at(at, |_| {});
        sim.run();
        rec.sample_once(sim);
    }

    fn success_slo() -> SloSpec {
        SloSpec {
            name: "delivery".to_string(),
            objective: Objective::SuccessRatio {
                good: "ok".to_string(),
                total: "all".to_string(),
            },
            target: 0.999,
            short_window: Nanos(2_000),
            long_window: Nanos(10_000),
            burn_threshold: 10.0,
        }
    }

    #[test]
    fn burn_rate_fires_and_resolves_on_both_windows() {
        let rec = FlightRecorder::new(
            RecorderConfig::default(),
            StatsModule::new(StatsConfig::default()),
        );
        let registry = rec.registry();
        let ok = registry.counter("ok");
        let all = registry.counter("all");
        let mut engine = SloEngine::new();
        engine.add(success_slo());
        let log = AdvisoryLog::new();
        engine.feed_advisories(log.clone());
        let mut sim = Sim::new();

        // Healthy traffic: 1000 ops/tick, all good.
        for i in 1..=10u64 {
            ok.add(1_000);
            all.add(1_000);
            tick(&rec, &mut sim, Nanos(i * 1_000));
            assert!(engine.evaluate(&rec, sim.now()).is_empty());
        }
        assert_eq!(engine.state("delivery"), Some(AlertState::Ok));

        // Outage: 10% failures — burn 100x against the 0.1% budget.
        // The short window sees it immediately; the long window needs
        // enough bad ticks to cross, then both agree and it fires once.
        let mut transitions = 0;
        for i in 11..=20u64 {
            ok.add(900);
            all.add(1_000);
            tick(&rec, &mut sim, Nanos(i * 1_000));
            transitions += engine.evaluate(&rec, sim.now()).len();
        }
        assert_eq!(engine.state("delivery"), Some(AlertState::Firing));
        assert_eq!(transitions, 1, "one firing transition, no flapping");

        // Recovery: clean traffic pushes both windows back under.
        for i in 21..=40u64 {
            ok.add(1_000);
            all.add(1_000);
            tick(&rec, &mut sim, Nanos(i * 1_000));
            engine.evaluate(&rec, sim.now());
        }
        assert_eq!(engine.state("delivery"), Some(AlertState::Ok));
        let events = engine.events();
        assert_eq!(events.len(), 2, "fire + resolve");
        assert_eq!(events[0].state, AlertState::Firing);
        assert_eq!(events[1].state, AlertState::Ok);
        // Advisories mirrored the transitions.
        let advisories = log.drain();
        assert_eq!(advisories.len(), 2);
        assert_eq!(advisories[0].source, "slo.delivery");
        assert_eq!(advisories[0].severity, Verdict::Degraded);
        assert_eq!(advisories[1].severity, Verdict::Healthy);
    }

    #[test]
    fn latency_objective_reads_digest_series() {
        let rec = FlightRecorder::new(
            RecorderConfig::default(),
            StatsModule::new(StatsConfig::default()),
        );
        let registry = rec.registry();
        let lat = registry.histogram("lat");
        let mut engine = SloEngine::new();
        engine.add(SloSpec {
            name: "p99".to_string(),
            objective: Objective::LatencyBelow {
                series: "lat".to_string(),
                threshold_ns: 100_000,
            },
            target: 0.99,
            short_window: Nanos(2_000),
            long_window: Nanos(5_000),
            burn_threshold: 5.0,
        });
        let mut sim = Sim::new();
        // Fast ticks: everything under threshold.
        for i in 1..=5u64 {
            for _ in 0..100 {
                lat.record(10_000);
            }
            tick(&rec, &mut sim, Nanos(i * 1_000));
            engine.evaluate(&rec, sim.now());
        }
        assert_eq!(engine.state("p99"), Some(AlertState::Ok));
        // Tail blowout: half the samples over threshold → bad fraction
        // ~0.5, burn ~50x against the 1% budget.
        for i in 6..=12u64 {
            for _ in 0..50 {
                lat.record(10_000);
                lat.record(1_000_000);
            }
            tick(&rec, &mut sim, Nanos(i * 1_000));
            engine.evaluate(&rec, sim.now());
        }
        assert_eq!(engine.state("p99"), Some(AlertState::Firing));
        assert!(engine.events_json().contains("\"state\": \"firing\""));
    }

    #[test]
    fn empty_windows_do_not_fire() {
        let rec = FlightRecorder::new(
            RecorderConfig::default(),
            StatsModule::new(StatsConfig::default()),
        );
        let mut engine = SloEngine::new();
        engine.add(success_slo());
        assert!(engine.evaluate(&rec, Nanos(1_000)).is_empty());
        assert_eq!(engine.state("delivery"), Some(AlertState::Ok));
    }
}
