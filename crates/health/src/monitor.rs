//! Per-target health scoring and quarantine latching.
//!
//! One [`HealthMonitor`] watches a set of [`Target`]s — fabric links
//! and engines — each fed by in-band probes. Three independent signals
//! combine into a [`Verdict`]:
//!
//! * **phi** ([`crate::phi::PhiAccrual`]) over probe *arrivals*:
//!   catches silence (blackholed link, engine that stopped completing
//!   ops) without a hard-coded timeout.
//! * **loss ratio** over a sliding outcome window: catches
//!   lossy-but-alive links, where successes keep phi calm but a
//!   fraction of probes never return.
//! * **latency degradation** — recent median against a slowly-learned
//!   baseline: catches jittery switches and slow-degrading engines,
//!   which deliver everything, just late.
//!
//! Verdicts latch: [`HealthMonitor::sweep`] reports each target's
//! transition out of health exactly once, so one degradation episode
//! triggers one reaction (a quarantine, a proactive restart), not one
//! per poll. [`HealthMonitor::reset`] re-arms a target after repair.

// Detection is control-plane machinery: it must degrade into scores
// and verdicts, never panic, no matter what the probes feed it.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use std::collections::{BTreeMap, VecDeque};

use snap_sim::Nanos;

use crate::phi::PhiAccrual;

/// Something the rack probes and may quarantine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Target {
    /// A directed fabric link.
    Link {
        /// Source host.
        from: u32,
        /// Destination host.
        to: u32,
    },
    /// An engine slot in a host's engine group.
    Engine {
        /// Host id.
        host: u32,
        /// Engine id within the host's group.
        engine: u32,
    },
}

/// Detector tuning.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// Phi above this marks the target [`Verdict::Failed`] (8 ⇒ the
    /// silence had probability 1e-8 under healthy behavior).
    pub phi_threshold: f64,
    /// Recent-median latency above `baseline × this` marks the target
    /// [`Verdict::Degraded`].
    pub degradation_ratio: f64,
    /// Probe loss fraction over the outcome window above this marks
    /// the target [`Verdict::Degraded`].
    pub loss_ratio: f64,
    /// Observations (successes + losses) before any verdict other than
    /// [`Verdict::Healthy`] — a cold detector must not quarantine.
    pub warmup: u64,
    /// Sliding window length for recent latency and loss accounting.
    pub window: usize,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            phi_threshold: 8.0,
            degradation_ratio: 3.0,
            loss_ratio: 0.08,
            warmup: 16,
            window: 32,
        }
    }
}

/// The health classification of one target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// All signals nominal (or still warming up).
    Healthy,
    /// Alive but gray: losing probes or running far above its latency
    /// baseline.
    Degraded,
    /// Probes have gone silent past the phi threshold.
    Failed,
}

/// A point-in-time score snapshot for one target.
#[derive(Debug, Clone, Copy)]
pub struct HealthScore {
    /// Accrued suspicion from probe silence.
    pub phi: f64,
    /// Recent-median latency over the learned baseline (1.0 = nominal;
    /// 0.0 while warming up).
    pub degradation: f64,
    /// Probe loss fraction over the outcome window.
    pub loss_ratio: f64,
    /// Successful probes observed in total.
    pub samples: u64,
    /// The combined classification.
    pub verdict: Verdict,
}

/// Baseline EWMA weight: slow, so a degradation episode cannot retrain
/// the notion of "normal" before the detector fires.
const BASELINE_ALPHA: f64 = 0.02;

#[derive(Debug, Clone)]
struct Tracker {
    accrual: PhiAccrual,
    /// Slow EWMA of probe latency, ns — the learned "normal".
    baseline: f64,
    /// Recent latencies, ns (median feeds the degradation ratio).
    recent: VecDeque<u64>,
    /// Recent probe outcomes (true = success) for the loss ratio.
    outcomes: VecDeque<bool>,
    successes: u64,
    losses: u64,
    /// Latched once reported by a sweep; cleared by `reset`.
    latched: bool,
}

impl Tracker {
    fn new() -> Self {
        Tracker {
            accrual: PhiAccrual::new(),
            baseline: 0.0,
            recent: VecDeque::new(),
            outcomes: VecDeque::new(),
            successes: 0,
            losses: 0,
            latched: false,
        }
    }
}

/// The rack-wide health registry. Purely passive: probers feed it,
/// a sweep loop reads verdicts and reacts. Iteration order (and hence
/// reaction order) is fixed by `Target`'s ordering — deterministic.
pub struct HealthMonitor {
    cfg: MonitorConfig,
    targets: BTreeMap<Target, Tracker>,
}

impl HealthMonitor {
    /// An empty monitor.
    pub fn new(cfg: MonitorConfig) -> Self {
        HealthMonitor {
            cfg,
            targets: BTreeMap::new(),
        }
    }

    /// Pre-registers a target (optional — recording auto-registers).
    pub fn track(&mut self, target: Target) {
        self.targets.entry(target).or_insert_with(Tracker::new);
    }

    /// Records a successful probe of `target` with round-trip (or
    /// dequeue) latency `latency`.
    pub fn record_success(&mut self, target: Target, now: Nanos, latency: Nanos) {
        let window = self.cfg.window;
        let ratio = self.cfg.degradation_ratio;
        let t = self.targets.entry(target).or_insert_with(Tracker::new);
        t.accrual.heartbeat(now);
        t.successes += 1;
        let lat = latency.as_nanos() as f64;
        // Suspicious samples (already past the degradation threshold)
        // are excluded from baseline training — otherwise a sustained
        // slowdown retrains "normal" faster than the detector fires.
        if t.successes == 1 {
            t.baseline = lat;
        } else if lat <= t.baseline * ratio {
            t.baseline = BASELINE_ALPHA * lat + (1.0 - BASELINE_ALPHA) * t.baseline;
        }
        t.recent.push_back(latency.as_nanos());
        if t.recent.len() > window {
            t.recent.pop_front();
        }
        t.outcomes.push_back(true);
        if t.outcomes.len() > window {
            t.outcomes.pop_front();
        }
    }

    /// Records a lost probe of `target` (deadline expired, no reply).
    pub fn record_loss(&mut self, target: Target, _now: Nanos) {
        let window = self.cfg.window;
        let t = self.targets.entry(target).or_insert_with(Tracker::new);
        t.losses += 1;
        t.outcomes.push_back(false);
        if t.outcomes.len() > window {
            t.outcomes.pop_front();
        }
    }

    /// The current score of `target`, or `None` if it was never fed.
    pub fn score(&self, target: Target, now: Nanos) -> Option<HealthScore> {
        let t = self.targets.get(&target)?;
        let phi = t.accrual.phi(now);
        let loss_ratio = if t.outcomes.is_empty() {
            0.0
        } else {
            t.outcomes.iter().filter(|&&ok| !ok).count() as f64 / t.outcomes.len() as f64
        };
        let degradation = if t.recent.is_empty() || t.baseline <= 0.0 {
            0.0
        } else {
            let mut v: Vec<u64> = t.recent.iter().copied().collect();
            v.sort_unstable();
            v[v.len() / 2] as f64 / t.baseline
        };
        let warm = t.successes + t.losses >= self.cfg.warmup;
        let verdict = if !warm {
            Verdict::Healthy
        } else if phi > self.cfg.phi_threshold {
            Verdict::Failed
        } else if loss_ratio > self.cfg.loss_ratio
            || degradation > self.cfg.degradation_ratio
        {
            Verdict::Degraded
        } else {
            Verdict::Healthy
        };
        Some(HealthScore {
            phi,
            degradation,
            loss_ratio,
            samples: t.successes,
            verdict,
        })
    }

    /// Classifies every target and returns those newly out of health,
    /// latching each so one degradation episode produces exactly one
    /// entry across repeated sweeps. Deterministic order.
    pub fn sweep(&mut self, now: Nanos) -> Vec<(Target, Verdict)> {
        let targets: Vec<Target> = self.targets.keys().copied().collect();
        let mut out = Vec::new();
        for target in targets {
            let already = self.targets.get(&target).map(|t| t.latched).unwrap_or(true);
            if already {
                continue;
            }
            let verdict = match self.score(target, now) {
                Some(s) => s.verdict,
                None => continue,
            };
            if verdict != Verdict::Healthy {
                if let Some(t) = self.targets.get_mut(&target) {
                    t.latched = true;
                }
                out.push((target, verdict));
            }
        }
        out
    }

    /// True once a sweep has reported `target`.
    pub fn latched(&self, target: Target) -> bool {
        self.targets.get(&target).map(|t| t.latched).unwrap_or(false)
    }

    /// Forgets everything learned about `target` and re-arms detection
    /// — used after the repair action (restart, reroute) replaces the
    /// degraded component, whose old baseline no longer applies.
    pub fn reset(&mut self, target: Target) {
        if let Some(t) = self.targets.get_mut(&target) {
            *t = Tracker::new();
        }
    }

    /// All registered targets, in deterministic order.
    pub fn targets(&self) -> Vec<Target> {
        self.targets.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINK: Target = Target::Link { from: 0, to: 1 };
    const ENGINE: Target = Target::Engine { host: 0, engine: 0 };

    fn warm(m: &mut HealthMonitor, target: Target, n: u64, latency: Nanos) -> Nanos {
        let mut now = Nanos::ZERO;
        for i in 0..n {
            now = Nanos(i * 100_000);
            m.record_success(target, now, latency);
        }
        now
    }

    #[test]
    fn healthy_feed_stays_healthy_and_never_latches() {
        let mut m = HealthMonitor::new(MonitorConfig::default());
        let now = warm(&mut m, LINK, 100, Nanos::from_micros(10));
        let s = m.score(LINK, now).expect("fed");
        assert_eq!(s.verdict, Verdict::Healthy);
        assert!(s.degradation > 0.9 && s.degradation < 1.1);
        assert!(m.sweep(now).is_empty());
        assert!(!m.latched(LINK));
    }

    #[test]
    fn cold_detector_never_quarantines() {
        let mut m = HealthMonitor::new(MonitorConfig::default());
        // 5 samples, all horribly slow — still warming up.
        for i in 0..5u64 {
            m.record_loss(LINK, Nanos(i * 100_000));
        }
        assert_eq!(
            m.score(LINK, Nanos(500_000)).expect("fed").verdict,
            Verdict::Healthy
        );
        assert!(m.sweep(Nanos(500_000)).is_empty());
    }

    #[test]
    fn probe_loss_degrades() {
        let mut m = HealthMonitor::new(MonitorConfig::default());
        let mut now = warm(&mut m, LINK, 50, Nanos::from_micros(10));
        // A lossy-but-alive link: every fourth probe vanishes.
        for i in 0..32u64 {
            now = Nanos((50 + i) * 100_000);
            if i % 4 == 0 {
                m.record_loss(LINK, now);
            } else {
                m.record_success(LINK, now, Nanos::from_micros(10));
            }
        }
        let s = m.score(LINK, now).expect("fed");
        assert_eq!(s.verdict, Verdict::Degraded);
        assert!(s.loss_ratio > 0.2, "loss ratio {}", s.loss_ratio);
        let swept = m.sweep(now);
        assert_eq!(swept, vec![(LINK, Verdict::Degraded)]);
        // Latched: the same episode never fires twice.
        assert!(m.sweep(now).is_empty());
    }

    #[test]
    fn latency_degradation_degrades_without_any_loss() {
        let mut m = HealthMonitor::new(MonitorConfig::default());
        let mut now = warm(&mut m, ENGINE, 64, Nanos::from_micros(10));
        // The engine slows 5x but still answers everything — the
        // gray case a liveness check cannot see.
        for i in 0..32u64 {
            now = Nanos((64 + i) * 100_000);
            m.record_success(ENGINE, now, Nanos::from_micros(50));
        }
        let s = m.score(ENGINE, now).expect("fed");
        assert_eq!(s.verdict, Verdict::Degraded);
        assert!(s.degradation > 3.0, "degradation {}", s.degradation);
        assert!(s.phi < 1.0, "no silence involved");
    }

    #[test]
    fn silence_fails_via_phi() {
        let mut m = HealthMonitor::new(MonitorConfig::default());
        let last = warm(&mut m, LINK, 50, Nanos::from_micros(10));
        // Blackhole: nothing arrives for 30 probe intervals.
        let now = last + Nanos(3_000_000);
        let s = m.score(LINK, now).expect("fed");
        assert_eq!(s.verdict, Verdict::Failed);
        assert_eq!(m.sweep(now), vec![(LINK, Verdict::Failed)]);
    }

    #[test]
    fn reset_rearms_detection_with_fresh_baseline() {
        let mut m = HealthMonitor::new(MonitorConfig::default());
        let last = warm(&mut m, LINK, 50, Nanos::from_micros(10));
        let now = last + Nanos(3_000_000);
        assert_eq!(m.sweep(now).len(), 1);
        m.reset(LINK);
        assert!(!m.latched(LINK));
        // Fresh tracker: healthy again, warms up from scratch.
        m.record_success(LINK, now, Nanos::from_micros(10));
        assert_eq!(m.score(LINK, now).expect("fed").verdict, Verdict::Healthy);
    }

    #[test]
    fn sweep_order_is_deterministic() {
        let mut m = HealthMonitor::new(MonitorConfig {
            warmup: 1,
            ..MonitorConfig::default()
        });
        // Feed three targets into failure in scrambled insert order.
        let t1 = Target::Engine { host: 2, engine: 0 };
        let t2 = Target::Link { from: 0, to: 1 };
        let t3 = Target::Engine { host: 1, engine: 3 };
        for t in [t1, t2, t3] {
            for i in 0..20u64 {
                m.record_success(t, Nanos(i * 100_000), Nanos::from_micros(10));
            }
        }
        let now = Nanos(100_000_000);
        let swept: Vec<Target> = m.sweep(now).into_iter().map(|(t, _)| t).collect();
        // Links sort before engines (enum declaration order), then by
        // field — the fixed reaction order.
        assert_eq!(swept, vec![t2, t3, t1]);
    }
}
