//! The flight recorder: a stats module's registry sampled on a cadence,
//! reduced into bounded ring-buffered time series.
//!
//! Each tick polls the [`StatsModule`]'s sources, takes a snapshot and
//! folds the window since the previous tick — [`Snapshot::delta`], the
//! one window rule — into the rings:
//!
//! * **counters** → the tick's increment (a registry counter only grows;
//!   sources that restart from zero are folded reset-aware before they
//!   reach it).
//! * **gauges** → the last reading.
//! * **histograms** → the window's recordings via [`Histogram::diff`],
//!   reduced to a fixed [`QuantileDigest`].
//!
//! The tick is the only clock: the recorder drives the module's poll,
//! so a caller starts, stops and flushes one loop, never two. Every
//! series is a bounded ring: at capacity the oldest point is evicted
//! and counted, so a long soak run records the recent past at full
//! resolution with constant memory — the paper's always-on monitoring
//! posture. Ticks run on *virtual* time and the sources only read
//! state, so a recorder over pure-read sources (engine groups, the
//! fabric) never perturbs the modeled schedule.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt::Write as _;
use std::rc::Rc;

use snap_sim::event::Ticker;
use snap_sim::stats::Histogram;
use snap_sim::{Nanos, Sim};
use snap_telemetry::export::{Metric, Snapshot};
use snap_telemetry::{Registry, StatsModule};

/// Recorder tuning.
#[derive(Debug, Clone, Copy)]
pub struct RecorderConfig {
    /// Sampling cadence on virtual time.
    pub cadence: Nanos,
    /// Ring capacity per series (points retained).
    pub capacity: usize,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            cadence: Nanos::from_micros(1000),
            capacity: 512,
        }
    }
}

/// A histogram window reduced to fixed quantiles (the stored form —
/// full buckets would be ~16 KiB per point).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct QuantileDigest {
    /// Recordings in the window.
    pub count: u64,
    /// Window mean.
    pub mean: f64,
    /// Window quantiles (bucket midpoints, clamped to observed range).
    pub p50: u64,
    /// 90th percentile.
    pub p90: u64,
    /// 99th percentile.
    pub p99: u64,
    /// 99.9th percentile.
    pub p999: u64,
    /// Smallest value in the window (0 when empty).
    pub min: u64,
    /// Largest value in the window (0 when empty).
    pub max: u64,
}

impl QuantileDigest {
    /// Reduces a histogram window.
    pub fn of(h: &Histogram) -> Self {
        if h.is_empty() {
            return QuantileDigest::default();
        }
        QuantileDigest {
            count: h.count(),
            mean: h.mean(),
            p50: h.median(),
            p90: h.quantile(0.90),
            p99: h.p99(),
            p999: h.p999(),
            min: h.min(),
            max: h.max(),
        }
    }
}

/// One recorded point's value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PointValue {
    /// Counter increment over the tick.
    Rate(u64),
    /// Gauge reading at the tick.
    Level(i64),
    /// Histogram window digest for the tick.
    Digest(QuantileDigest),
}

struct Series {
    points: VecDeque<(Nanos, PointValue)>,
    evicted: u64,
}

struct Inner {
    cfg: RecorderConfig,
    last: Snapshot,
    series: BTreeMap<String, Series>,
    ticks: u64,
}

/// The flight recorder; cloning shares state. See the [module
/// docs](self) for the reduction rules.
#[derive(Clone)]
pub struct FlightRecorder {
    stats: StatsModule,
    clock: Ticker,
    inner: Rc<RefCell<Inner>>,
}

impl FlightRecorder {
    /// Creates a recorder sampling `stats`: each tick polls its sources.
    /// Start this recorder's loop, not the module's.
    pub fn new(cfg: RecorderConfig, stats: StatsModule) -> Self {
        FlightRecorder {
            stats,
            clock: Ticker::default(),
            inner: Rc::new(RefCell::new(Inner {
                cfg,
                last: Snapshot::default(),
                series: BTreeMap::new(),
                ticks: 0,
            })),
        }
    }

    /// The sampled registry (for producers registering metrics).
    pub fn registry(&self) -> Registry {
        self.stats.registry()
    }

    /// Starts the sampling loop (first tick one cadence from now).
    /// Idempotent while the loop is live, a restart after
    /// [`stop`](Self::stop) included: there is only ever one loop.
    pub fn start(&self, sim: &mut Sim) {
        let this = self.clone();
        let cadence = self.inner.borrow().cfg.cadence;
        self.clock
            .start(sim, cadence, move |sim| this.sample_once(sim));
    }

    /// Stops the loop (the pending tick lapses).
    pub fn stop(&self) {
        self.clock.stop();
    }

    /// Takes one sample now: poll the sources, snapshot, push one point
    /// per metric for the window since the previous sample.
    pub fn sample_once(&self, sim: &Sim) {
        self.stats.poll_once(sim);
        let now = sim.now();
        let snap = self.stats.snapshot(now);
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let capacity = inner.cfg.capacity.max(1);
        for (name, metric) in snap.delta(&inner.last).metrics {
            let value = match metric {
                Metric::Counter(n) => PointValue::Rate(n),
                Metric::Gauge(v) => PointValue::Level(v),
                Metric::Histogram(h) => PointValue::Digest(QuantileDigest::of(&h)),
            };
            let series = inner.series.entry(name).or_insert_with(|| Series {
                points: VecDeque::with_capacity(capacity.min(1024)),
                evicted: 0,
            });
            if series.points.len() >= capacity {
                series.points.pop_front();
                series.evicted += 1;
            }
            series.points.push_back((now, value));
        }
        inner.last = snap;
        inner.ticks += 1;
    }

    /// Number of samples taken so far.
    pub fn ticks(&self) -> u64 {
        self.inner.borrow().ticks
    }

    /// Recorded series names, sorted.
    pub fn series_names(&self) -> Vec<String> {
        self.inner.borrow().series.keys().cloned().collect()
    }

    /// A series' retained points, oldest first.
    pub fn series(&self, name: &str) -> Vec<(Nanos, PointValue)> {
        self.inner
            .borrow()
            .series
            .get(name)
            .map(|s| s.points.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Points evicted from a series' ring so far.
    pub fn evicted(&self, name: &str) -> u64 {
        self.inner
            .borrow()
            .series
            .get(name)
            .map(|s| s.evicted)
            .unwrap_or(0)
    }

    /// Deterministic JSON dump: sorted series names, fixed-precision
    /// floats — same seed ⇒ byte-identical output.
    pub fn to_json(&self) -> String {
        let inner = self.inner.borrow();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"cadence_ns\": {}, \"capacity\": {}, \"ticks\": {}, \"series\": {{",
            inner.cfg.cadence.as_nanos(),
            inner.cfg.capacity,
            inner.ticks
        );
        let mut first = true;
        for (name, series) in &inner.series {
            if !first {
                out.push_str(", ");
            }
            first = false;
            let kind = match series.points.back() {
                Some((_, PointValue::Rate(_))) => "rate",
                Some((_, PointValue::Level(_))) => "level",
                Some((_, PointValue::Digest(_))) => "digest",
                None => "empty",
            };
            let _ = write!(
                out,
                "\"{name}\": {{\"kind\": \"{kind}\", \"evicted\": {}, \"points\": [",
                series.evicted
            );
            let mut p_first = true;
            for (at, value) in &series.points {
                if !p_first {
                    out.push_str(", ");
                }
                p_first = false;
                match value {
                    PointValue::Rate(v) => {
                        let _ = write!(out, "[{}, {v}]", at.as_nanos());
                    }
                    PointValue::Level(v) => {
                        let _ = write!(out, "[{}, {v}]", at.as_nanos());
                    }
                    PointValue::Digest(d) => {
                        let _ = write!(
                            out,
                            "[{}, {{\"count\": {}, \"mean\": {:.3}, \"p50\": {}, \
                             \"p90\": {}, \"p99\": {}, \"p999\": {}, \"min\": {}, \
                             \"max\": {}}}]",
                            at.as_nanos(),
                            d.count,
                            d.mean,
                            d.p50,
                            d.p90,
                            d.p99,
                            d.p999,
                            d.min,
                            d.max
                        );
                    }
                }
            }
            out.push_str("]}");
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_telemetry::StatsConfig;

    fn tick(rec: &FlightRecorder, sim: &mut Sim, at: Nanos) {
        sim.schedule_at(at, |_| {});
        sim.run();
        rec.sample_once(sim);
    }

    #[test]
    fn counters_become_window_increments() {
        let rec = FlightRecorder::new(
            RecorderConfig::default(),
            StatsModule::new(StatsConfig::default()),
        );
        let registry = rec.registry();
        let c = registry.counter("ops");
        let mut sim = Sim::new();
        c.add(10);
        tick(&rec, &mut sim, Nanos(1_000));
        c.add(5);
        tick(&rec, &mut sim, Nanos(2_000));
        let pts = rec.series("ops");
        assert_eq!(pts[0], (Nanos(1_000), PointValue::Rate(10)));
        assert_eq!(pts[1], (Nanos(2_000), PointValue::Rate(5)));
    }

    #[test]
    fn histograms_become_window_digests() {
        let rec = FlightRecorder::new(
            RecorderConfig::default(),
            StatsModule::new(StatsConfig::default()),
        );
        let registry = rec.registry();
        let h = registry.histogram("lat");
        let mut sim = Sim::new();
        h.record(100);
        tick(&rec, &mut sim, Nanos(1_000));
        h.record(1_000_000);
        tick(&rec, &mut sim, Nanos(2_000));
        let pts = rec.series("lat");
        let (_, PointValue::Digest(d0)) = pts[0] else {
            unreachable!("first point is a digest")
        };
        let (_, PointValue::Digest(d1)) = pts[1] else {
            unreachable!("second point is a digest")
        };
        assert_eq!(d0.count, 1);
        assert!(d0.max < 1_000, "first window excludes later recording");
        assert_eq!(d1.count, 1, "window isolates the tick");
        assert!(d1.min >= 990_000);
    }

    #[test]
    fn ring_bounds_memory_and_counts_evictions() {
        let rec = FlightRecorder::new(
            RecorderConfig {
                cadence: Nanos(1_000),
                capacity: 4,
            },
            StatsModule::new(StatsConfig::default()),
        );
        let c = rec.registry().counter("x");
        let mut sim = Sim::new();
        for i in 1..=10u64 {
            c.add(i);
            tick(&rec, &mut sim, Nanos(i * 1_000));
        }
        let pts = rec.series("x");
        assert_eq!(pts.len(), 4);
        assert_eq!(rec.evicted("x"), 6);
        assert_eq!(pts[0].0, Nanos(7_000), "oldest retained is tick 7");
        assert_eq!(pts[3], (Nanos(10_000), PointValue::Rate(10)));
    }

    #[test]
    fn json_is_deterministic() {
        let build = || {
            let rec = FlightRecorder::new(
                RecorderConfig::default(),
                StatsModule::new(StatsConfig::default()),
            );
            let registry = rec.registry();
            let c = registry.counter("a");
            let g = registry.gauge("b");
            let h = registry.histogram("c");
            let mut sim = Sim::new();
            for i in 1..=5u64 {
                c.add(i);
                g.set(i as i64 * -3);
                h.record(i * 100);
                tick(&rec, &mut sim, Nanos(i * 1_000));
            }
            rec.to_json()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b, "same inputs ⇒ byte-identical dump");
        assert!(a.contains("\"kind\": \"rate\""), "{a}");
        assert!(a.contains("\"kind\": \"level\""), "{a}");
        assert!(a.contains("\"kind\": \"digest\""), "{a}");
    }
}
