//! Per-container CPU and memory accounting (§2.5).
//!
//! "Snap maintains strong accounting and isolation by accurately
//! attributing both CPU and memory consumed on behalf of applications
//! to those applications ... to charge CPU and memory to application
//! containers." These accountants are shared (`Arc`-cloneable) and
//! thread-safe; engines charge as they allocate and process.
//!
//! Accounting is **observation**; enforcement lives one layer up in
//! `snap-isolation`, which implements the [`MemoryGate`] trait defined
//! here so pool allocations can be made fallible under a quota without
//! this crate depending on the policy layer.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

/// Why a gated memory charge was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChargeError {
    /// Admitting the charge would push the container past its
    /// (effective) hard limit.
    QuotaExceeded {
        /// Usage at the time of the refusal.
        usage: u64,
        /// Bytes that were requested.
        requested: u64,
        /// The effective hard limit that would have been exceeded.
        limit: u64,
    },
}

impl std::fmt::Display for ChargeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ChargeError::QuotaExceeded {
                usage,
                requested,
                limit,
            } => write!(
                f,
                "quota exceeded: usage {usage} + requested {requested} > limit {limit}"
            ),
        }
    }
}

/// A fallible admission point for memory charges.
///
/// [`MemoryAccountant`] implements this by always admitting (observe
/// only); `snap-isolation`'s `AdmissionController` implements it by
/// enforcing per-container quotas. Allocation sites (buffer pools)
/// take a gate so callers choose the policy.
pub trait MemoryGate {
    /// Attempts to charge `bytes` to `container`. Implementations must
    /// make the check-and-charge atomic with respect to concurrent
    /// charges.
    fn try_charge(&self, container: &str, bytes: u64) -> Result<(), ChargeError>;

    /// Releases `bytes` previously charged to `container`.
    fn release(&self, container: &str, bytes: u64);
}

#[derive(Default)]
struct MemoryInner {
    usage: Mutex<BTreeMap<String, u64>>,
    /// Releases without a matching charge (clamped to zero instead of
    /// going negative). Surfaced in telemetry; never panics.
    accounting_errors: AtomicU64,
}

/// Thread-safe per-container byte accounting.
#[derive(Clone, Default)]
pub struct MemoryAccountant {
    inner: Arc<MemoryInner>,
}

impl MemoryAccountant {
    /// Creates an accountant with no charges.
    pub fn new() -> Self {
        Self::default()
    }

    /// Charges `bytes` to `container`.
    pub fn charge(&self, container: &str, bytes: u64) {
        let mut map = self.inner.usage.lock();
        // get_mut-then-insert avoids allocating the key string on the
        // steady-state (container already known) path.
        if let Some(entry) = map.get_mut(container) {
            *entry += bytes;
        } else {
            map.insert(container.to_string(), bytes);
        }
    }

    /// Atomically charges `bytes` to `container` iff the resulting
    /// usage stays at or below `cap`. Returns whether the charge was
    /// admitted. The check and the charge happen under one lock, so
    /// concurrent callers can never jointly exceed `cap`.
    pub fn charge_capped(&self, container: &str, bytes: u64, cap: u64) -> bool {
        let mut map = self.inner.usage.lock();
        let current = map.get(container).copied().unwrap_or(0);
        match current.checked_add(bytes) {
            Some(next) if next <= cap => {
                if let Some(entry) = map.get_mut(container) {
                    *entry = next;
                } else {
                    map.insert(container.to_string(), next);
                }
                true
            }
            _ => false,
        }
    }

    /// Releases `bytes` previously charged to `container`.
    ///
    /// An unmatched release (more released than charged) clamps the
    /// container to zero and increments [`accounting_errors`]; it never
    /// panics, matching the control-plane no-panic rule.
    ///
    /// [`accounting_errors`]: MemoryAccountant::accounting_errors
    pub fn release(&self, container: &str, bytes: u64) {
        let mut map = self.inner.usage.lock();
        match map.get_mut(container) {
            Some(entry) => {
                if bytes > *entry {
                    self.inner.accounting_errors.fetch_add(1, Ordering::Relaxed);
                }
                *entry = entry.saturating_sub(bytes);
            }
            // Releasing against a container that never charged is the
            // same unmatched-release error, clamped at zero usage.
            None if bytes > 0 => {
                self.inner.accounting_errors.fetch_add(1, Ordering::Relaxed);
            }
            None => {}
        }
    }

    /// Number of unmatched releases observed (each clamped to zero
    /// instead of driving usage negative).
    pub fn accounting_errors(&self) -> u64 {
        self.inner.accounting_errors.load(Ordering::Relaxed)
    }

    /// Current usage of a container in bytes (0 if unknown).
    pub fn usage(&self, container: &str) -> u64 {
        self.inner.usage.lock().get(container).copied().unwrap_or(0)
    }

    /// Total bytes charged across all containers.
    pub fn total(&self) -> u64 {
        self.inner.usage.lock().values().sum()
    }

    /// Snapshot of (container, bytes) pairs, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let usage = self.inner.usage.lock();
        usage.iter().map(|(k, &b)| (k.clone(), b)).collect()
    }
}

/// The observe-only gate: every charge is admitted.
impl MemoryGate for MemoryAccountant {
    fn try_charge(&self, container: &str, bytes: u64) -> Result<(), ChargeError> {
        self.charge(container, bytes);
        Ok(())
    }

    fn release(&self, container: &str, bytes: u64) {
        MemoryAccountant::release(self, container, bytes);
    }
}

/// Thread-safe per-container CPU-time accounting, in nanoseconds.
///
/// Engines charge the time they spend doing work on behalf of a
/// container; the spin-poll idle loop is charged to the Snap system
/// container, mirroring how the paper separates attributable work from
/// polling overhead.
///
/// A container's counter is a [`CpuSlot`]: whoever charges the same
/// container over and over (an engine group, once per engine pass)
/// resolves the name once with [`CpuAccountant::slot`] and then
/// charges the slot, which takes no lock and hashes nothing.
#[derive(Clone, Default)]
pub struct CpuAccountant {
    inner: Arc<Mutex<BTreeMap<String, CpuSlot>>>,
}

/// One container's CPU counter, shared with its [`CpuAccountant`].
#[derive(Clone, Default)]
pub struct CpuSlot(Arc<AtomicU64>);

impl CpuSlot {
    /// Charges `nanos` of CPU time to this slot's container.
    pub fn charge(&self, nanos: u64) {
        // A statistic: it publishes no other data.
        self.0.fetch_add(nanos, Ordering::Relaxed);
    }

    fn nanos(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

impl CpuAccountant {
    /// Creates an accountant with no charges.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter of `container`, created at zero if it has none.
    pub fn slot(&self, container: &str) -> CpuSlot {
        let mut map = self.inner.lock();
        if let Some(slot) = map.get(container) {
            return slot.clone();
        }
        map.entry(container.to_string()).or_default().clone()
    }

    /// Charges `nanos` of CPU time to `container`.
    pub fn charge(&self, container: &str, nanos: u64) {
        self.slot(container).charge(nanos);
    }

    /// Total CPU nanoseconds charged to a container.
    pub fn usage(&self, container: &str) -> u64 {
        self.inner.lock().get(container).map_or(0, CpuSlot::nanos)
    }

    /// Total CPU nanoseconds across all containers.
    pub fn total(&self) -> u64 {
        self.inner.lock().values().map(CpuSlot::nanos).sum()
    }

    /// Snapshot of (container, nanos) pairs, sorted by name.
    pub fn snapshot(&self) -> Vec<(String, u64)> {
        let slots = self.inner.lock();
        slots
            .iter()
            .map(|(k, slot)| (k.clone(), slot.nanos()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_charge_release_roundtrip() {
        let a = MemoryAccountant::new();
        a.charge("alpha", 100);
        a.charge("alpha", 50);
        a.charge("beta", 10);
        assert_eq!(a.usage("alpha"), 150);
        assert_eq!(a.usage("beta"), 10);
        assert_eq!(a.total(), 160);
        a.release("alpha", 150);
        assert_eq!(a.usage("alpha"), 0);
        assert_eq!(a.total(), 10);
        assert_eq!(a.accounting_errors(), 0);
    }

    #[test]
    fn unmatched_release_saturates_and_counts() {
        let a = MemoryAccountant::new();
        a.charge("c", 10);
        a.release("c", 25);
        assert_eq!(a.usage("c"), 0, "clamped, not negative");
        assert_eq!(a.accounting_errors(), 1);
        a.release("ghost", 1);
        assert_eq!(a.usage("ghost"), 0);
        assert_eq!(a.accounting_errors(), 2);
        // Usage stays coherent afterwards.
        a.charge("c", 7);
        assert_eq!(a.usage("c"), 7);
    }

    #[test]
    fn charge_capped_is_all_or_nothing() {
        let a = MemoryAccountant::new();
        assert!(a.charge_capped("c", 60, 100));
        assert!(!a.charge_capped("c", 50, 100), "would exceed cap");
        assert_eq!(a.usage("c"), 60, "refused charge must not land");
        assert!(a.charge_capped("c", 40, 100));
        assert_eq!(a.usage("c"), 100);
        assert!(!a.charge_capped("c", 1, 100));
        // Unlimited cap admits anything, including overflow-safe math.
        assert!(a.charge_capped("c", u64::MAX - 100, u64::MAX));
        assert!(!a.charge_capped("c", u64::MAX, u64::MAX), "overflow refused");
    }

    #[test]
    fn gate_impl_always_admits() {
        let a = MemoryAccountant::new();
        let gate: &dyn MemoryGate = &a;
        assert!(gate.try_charge("g", u64::MAX / 2).is_ok());
        gate.release("g", 5);
        assert_eq!(a.usage("g"), u64::MAX / 2 - 5);
    }

    #[test]
    fn unknown_container_is_zero() {
        let a = MemoryAccountant::new();
        assert_eq!(a.usage("ghost"), 0);
    }

    #[test]
    fn snapshot_is_sorted() {
        let a = MemoryAccountant::new();
        a.charge("z", 1);
        a.charge("a", 2);
        assert_eq!(a.snapshot(), vec![("a".into(), 2), ("z".into(), 1)]);
    }

    #[test]
    fn cpu_accounting_accumulates() {
        let c = CpuAccountant::new();
        c.charge("job1", 500);
        c.charge("job1", 250);
        c.charge("snap-system", 1_000);
        assert_eq!(c.usage("job1"), 750);
        assert_eq!(c.total(), 1_750);
    }

    #[test]
    fn slot_charges_land_on_the_named_container() {
        let c = CpuAccountant::new();
        let job = c.slot("job1");
        assert_eq!(c.usage("job1"), 0);
        job.charge(500);
        c.charge("job1", 250);
        c.slot("job1").charge(1);
        c.slot("other").charge(7);
        assert_eq!(c.usage("job1"), 751);
        assert_eq!(c.total(), 758);
        assert_eq!(c.snapshot(), vec![("job1".into(), 751), ("other".into(), 7)]);
    }

    #[test]
    fn concurrent_charges_sum_exactly() {
        let a = MemoryAccountant::new();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let a = a.clone();
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    a.charge("shared", 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(a.usage("shared"), 80_000);
    }

    #[test]
    fn concurrent_capped_charges_never_exceed_cap() {
        let a = MemoryAccountant::new();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let a = a.clone();
            handles.push(std::thread::spawn(move || {
                let mut admitted = 0u64;
                for _ in 0..10_000 {
                    if a.charge_capped("capped", 3, 1_000) {
                        admitted += 3;
                    }
                }
                admitted
            }));
        }
        let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
        assert!(a.usage("capped") <= 1_000);
        assert_eq!(a.usage("capped"), total);
    }
}
