//! The metrics registry: named counters, gauges, and histograms.
//!
//! Handles are `Rc`-backed cells, so recording is a pointer deref plus
//! an integer store — cheap enough to sit on control-plane poll paths —
//! and a handle stays valid (and keeps feeding the same metric) no
//! matter how many snapshots are taken. Names are hierarchical dotted
//! strings; [`Registry::scoped`] prepends a prefix so a per-engine or
//! per-host component can register `tx_packets` and have it land at
//! `engine.frontend.tx_packets` in the machine-level registry.
//!
//! Everything is single-threaded (`Rc`/`Cell`), matching the
//! simulator's event loop. The real system would use per-engine
//! cache-line-padded atomics with a control-plane aggregator; the
//! *structure* — per-engine scopes merging into one machine view — is
//! what this reproduces.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use snap_sim::stats::Histogram;
use snap_sim::Nanos;

use crate::export::{Metric, Snapshot};

/// A monotonically increasing counter handle.
#[derive(Clone)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// Adds 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get().saturating_add(n));
    }

    /// Raises the counter to `total`, the cumulative count of a source
    /// that only grows; a lower `total` leaves it alone, so the counter
    /// stays monotone. (A source that restarts from zero needs a
    /// reset-aware delta instead.)
    pub fn raise_to(&self, total: u64) {
        self.0.set(self.0.get().max(total));
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.get()
    }
}

/// A point-in-time value handle (queue depth, utilization percent).
#[derive(Clone)]
pub struct Gauge(Rc<Cell<i64>>);

impl Gauge {
    /// Sets the current value.
    pub fn set(&self, v: i64) {
        self.0.set(v);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.get()
    }
}

/// A histogram handle (reuses [`snap_sim::stats::Histogram`]).
#[derive(Clone)]
pub struct HistogramHandle(Rc<RefCell<Histogram>>);

impl HistogramHandle {
    /// Records one value.
    pub fn record(&self, v: u64) {
        self.0.borrow_mut().record(v);
    }

    /// Records a duration in nanoseconds.
    pub fn record_nanos(&self, v: Nanos) {
        self.0.borrow_mut().record_nanos(v);
    }

    /// Runs `f` against the underlying histogram (for quantile reads).
    pub fn with<R>(&self, f: impl FnOnce(&Histogram) -> R) -> R {
        f(&self.0.borrow())
    }

    /// Merges another histogram's buckets into this metric (bulk fold
    /// of an interval diff, e.g. a group's scheduling-delay window).
    pub fn merge_from(&self, other: &Histogram) {
        self.0.borrow_mut().merge(other);
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: BTreeMap<String, Rc<Cell<u64>>>,
    gauges: BTreeMap<String, Rc<Cell<i64>>>,
    histograms: BTreeMap<String, Rc<RefCell<Histogram>>>,
}

/// A machine-level metrics registry. Cloning shares the same store.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Rc<RefCell<RegistryInner>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Counter handle for `name`, creating it at zero on first use.
    /// Repeated calls with the same name share one counter.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.inner.borrow_mut();
        let cell = inner
            .counters
            .entry(name.to_string())
            .or_insert_with(|| Rc::new(Cell::new(0)))
            .clone();
        Counter(cell)
    }

    /// Gauge handle for `name`, creating it at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.inner.borrow_mut();
        let cell = inner
            .gauges
            .entry(name.to_string())
            .or_insert_with(|| Rc::new(Cell::new(0)))
            .clone();
        Gauge(cell)
    }

    /// Histogram handle for `name`, creating it empty on first use.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        let mut inner = self.inner.borrow_mut();
        let h = inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Rc::new(RefCell::new(Histogram::new())))
            .clone();
        HistogramHandle(h)
    }

    /// A view that prepends `prefix.` to every metric name — the
    /// per-engine / per-host scope that merges into this registry.
    pub fn scoped(&self, prefix: &str) -> ScopedRegistry {
        ScopedRegistry {
            registry: self.clone(),
            prefix: prefix.to_string(),
        }
    }

    /// A point-in-time copy of every metric, taken at virtual time
    /// `at`. Counters and gauges copy their integers; histograms clone
    /// their buckets (fixed ~16 KiB each), so snapshots are independent
    /// of later recording and two snapshots can be
    /// [`delta`](Snapshot::delta)-ed.
    pub fn snapshot(&self, at: Nanos) -> Snapshot {
        let inner = self.inner.borrow();
        let mut metrics = BTreeMap::new();
        for (name, c) in &inner.counters {
            metrics.insert(name.clone(), Metric::Counter(c.get()));
        }
        for (name, g) in &inner.gauges {
            metrics.insert(name.clone(), Metric::Gauge(g.get()));
        }
        for (name, h) in &inner.histograms {
            metrics.insert(name.clone(), Metric::Histogram(h.borrow().clone()));
        }
        Snapshot { at, metrics }
    }
}

/// A prefixed view of a [`Registry`]; see [`Registry::scoped`].
#[derive(Clone)]
pub struct ScopedRegistry {
    registry: Registry,
    prefix: String,
}

impl ScopedRegistry {
    fn full(&self, name: &str) -> String {
        format!("{}.{name}", self.prefix)
    }

    /// The scope prefix.
    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    /// Counter handle for `<prefix>.<name>`.
    pub fn counter(&self, name: &str) -> Counter {
        self.registry.counter(&self.full(name))
    }

    /// Gauge handle for `<prefix>.<name>`.
    pub fn gauge(&self, name: &str) -> Gauge {
        self.registry.gauge(&self.full(name))
    }

    /// Histogram handle for `<prefix>.<name>`.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        self.registry.histogram(&self.full(name))
    }

    /// A nested scope `<prefix>.<sub>`.
    pub fn scoped(&self, sub: &str) -> ScopedRegistry {
        self.registry.scoped(&self.full(sub))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_storage_by_name() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.add(2);
        assert_eq!(r.counter("x").get(), 3);
        // Distinct names are distinct metrics.
        r.counter("y").inc();
        assert_eq!(r.counter("y").get(), 1);
        assert_eq!(r.counter("x").get(), 3);
    }

    #[test]
    fn raise_to_publishes_a_total_and_never_lowers() {
        let r = Registry::new();
        let c = r.counter("bytes");
        c.raise_to(40);
        c.raise_to(40);
        assert_eq!(c.get(), 40, "the same total twice is counted once");
        c.raise_to(25);
        assert_eq!(c.get(), 40, "a lower total leaves the counter alone");
        c.raise_to(100);
        assert_eq!(r.counter("bytes").get(), 100);
    }

    #[test]
    fn scoped_names_compose() {
        let r = Registry::new();
        let engine = r.scoped("engine").scoped("frontend");
        assert_eq!(engine.prefix(), "engine.frontend");
        engine.counter("tx_packets").add(7);
        assert_eq!(r.counter("engine.frontend.tx_packets").get(), 7);
        engine.gauge("depth").set(-3);
        assert_eq!(r.gauge("engine.frontend.depth").get(), -3);
    }

    #[test]
    fn snapshot_is_independent_of_later_recording() {
        let r = Registry::new();
        let c = r.counter("c");
        let h = r.histogram("h");
        c.add(5);
        h.record(100);
        let snap = r.snapshot(Nanos(10));
        c.add(5);
        h.record(200);
        assert_eq!(snap.counter("c"), Some(5));
        assert_eq!(snap.histogram("h").map(|h| h.count()), Some(1));
        let now = r.snapshot(Nanos(20));
        assert_eq!(now.counter("c"), Some(10));
        assert_eq!(now.histogram("h").map(|h| h.count()), Some(2));
    }

    #[test]
    fn gauges_snapshot_current_value() {
        let r = Registry::new();
        let g = r.gauge("depth");
        g.set(42);
        let snap = r.snapshot(Nanos(1));
        g.set(1);
        assert_eq!(snap.gauge("depth"), Some(42));
        assert_eq!(r.snapshot(Nanos(2)).gauge("depth"), Some(1));
    }
}
