//! Snapshot/delta export: JSON and human-readable tables.
//!
//! A [`Snapshot`] is a point-in-time copy of a registry. Two snapshots
//! of the same registry diff into a window view ([`Snapshot::delta`]):
//! counters subtract, gauges keep the later reading, histograms use
//! [`Histogram::diff`] — so a dashboard can render "ops in the last
//! second" from two cumulative snapshots without the recording paths
//! ever resetting anything. JSON is hand-rolled (the vendored `serde`
//! is a stub); names are emitted sorted, so output is deterministic.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use snap_sim::stats::Histogram;
use snap_sim::Nanos;

/// One exported metric value.
#[derive(Clone)]
pub enum Metric {
    /// Monotonic counter.
    Counter(u64),
    /// Point-in-time value.
    Gauge(i64),
    /// Value distribution.
    Histogram(Histogram),
}

/// A point-in-time copy of a registry's metrics.
#[derive(Clone, Default)]
pub struct Snapshot {
    /// Virtual time the snapshot was taken.
    pub at: Nanos,
    /// Metric values by full dotted name (sorted).
    pub metrics: BTreeMap<String, Metric>,
}

impl Snapshot {
    /// Counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(Metric::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.metrics.get(name) {
            Some(Metric::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Histogram by name.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.metrics.get(name) {
            Some(Metric::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// The window between `earlier` and this snapshot: counters
    /// subtract (saturating — a metric born after `earlier` reports its
    /// full value), gauges keep this snapshot's reading (a gauge has no
    /// meaningful difference), histograms keep only the window's
    /// recordings via [`Histogram::diff`]. Metrics present only in
    /// `earlier` are dropped.
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let mut metrics = BTreeMap::new();
        for (name, m) in &self.metrics {
            let d = match (m, earlier.metrics.get(name)) {
                (Metric::Counter(now), Some(Metric::Counter(then))) => {
                    Metric::Counter(now.saturating_sub(*then))
                }
                (Metric::Histogram(now), Some(Metric::Histogram(then))) => {
                    Metric::Histogram(now.diff(then))
                }
                (m, _) => m.clone(),
            };
            metrics.insert(name.clone(), d);
        }
        Snapshot {
            at: self.at,
            metrics,
        }
    }

    /// JSON export: `{"at_ns": ..., "metrics": {"name": value, ...}}`.
    /// Counters/gauges are numbers; histograms are objects with count,
    /// mean and quantiles. Keys are sorted (BTreeMap), so the output is
    /// deterministic.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let _ = write!(out, "{{\"at_ns\": {}, \"metrics\": {{", self.at.as_nanos());
        let mut first = true;
        for (name, m) in &self.metrics {
            if !first {
                out.push_str(", ");
            }
            first = false;
            let _ = write!(out, "\"{name}\": ");
            match m {
                Metric::Counter(v) => {
                    let _ = write!(out, "{v}");
                }
                Metric::Gauge(v) => {
                    let _ = write!(out, "{v}");
                }
                Metric::Histogram(h) => {
                    if h.is_empty() {
                        let _ = write!(out, "{{\"count\": 0}}");
                    } else {
                        let _ = write!(
                            out,
                            "{{\"count\": {}, \"mean\": {:.1}, \"p50\": {}, \"p90\": {}, \
                             \"p99\": {}, \"p999\": {}, \"min\": {}, \"max\": {}}}",
                            h.count(),
                            h.mean(),
                            h.median(),
                            h.quantile(0.90),
                            h.p99(),
                            h.p999(),
                            h.min(),
                            h.max(),
                        );
                    }
                }
            }
        }
        out.push_str("}}");
        out
    }

    /// Human-readable table, one metric per line, sorted by name —
    /// what the examples print as their final dashboard.
    pub fn to_table(&self) -> String {
        let width = self
            .metrics
            .keys()
            .map(|n| n.len())
            .max()
            .unwrap_or(0)
            .max(6);
        let mut out = String::new();
        let _ = writeln!(out, "{:<width$}  value", "metric", width = width);
        for (name, m) in &self.metrics {
            match m {
                Metric::Counter(v) => {
                    let _ = writeln!(out, "{name:<width$}  {v}", width = width);
                }
                Metric::Gauge(v) => {
                    let _ = writeln!(out, "{name:<width$}  {v}", width = width);
                }
                Metric::Histogram(h) => {
                    let _ = writeln!(
                        out,
                        "{name:<width$}  {}",
                        h.latency_summary(),
                        width = width
                    );
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Registry;

    #[test]
    fn delta_subtracts_counters_and_keeps_gauges() {
        let r = Registry::new();
        let c = r.counter("ops");
        let g = r.gauge("depth");
        let h = r.histogram("lat");
        c.add(10);
        g.set(5);
        h.record(1_000);
        let first = r.snapshot(Nanos(100));
        c.add(3);
        g.set(9);
        h.record(2_000);
        let second = r.snapshot(Nanos(200));
        let d = second.delta(&first);
        assert_eq!(d.at, Nanos(200));
        assert_eq!(d.counter("ops"), Some(3));
        assert_eq!(d.gauge("depth"), Some(9));
        assert_eq!(d.histogram("lat").map(|h| h.count()), Some(1));
    }

    #[test]
    fn delta_handles_metrics_born_between_snapshots() {
        let r = Registry::new();
        r.counter("old").add(1);
        let first = r.snapshot(Nanos(1));
        r.counter("new").add(7);
        let second = r.snapshot(Nanos(2));
        let d = second.delta(&first);
        assert_eq!(d.counter("new"), Some(7), "new metric reports fully");
        assert_eq!(d.counter("old"), Some(0));
    }

    #[test]
    fn json_and_table_render_all_kinds() {
        let r = Registry::new();
        r.counter("a.count").add(4);
        r.gauge("b.depth").set(-2);
        r.histogram("c.lat").record(10_000);
        let snap = r.snapshot(Nanos(42));
        let json = snap.to_json();
        assert!(json.starts_with("{\"at_ns\": 42"), "{json}");
        assert!(json.contains("\"a.count\": 4"), "{json}");
        assert!(json.contains("\"b.depth\": -2"), "{json}");
        assert!(json.contains("\"c.lat\": {\"count\": 1"), "{json}");
        assert!(json.contains("\"p999\": "), "{json}");
        assert!(json.ends_with("}}"), "{json}");
        let table = snap.to_table();
        assert!(table.contains("a.count"), "{table}");
        assert!(table.contains("n=1"), "{table}");
        // Empty-histogram JSON stays well-formed.
        r.histogram("d.empty");
        assert!(r.snapshot(Nanos(43)).to_json().contains("\"d.empty\": {\"count\": 0}"));
    }
}
