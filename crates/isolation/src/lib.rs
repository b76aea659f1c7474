//! # snap-isolation
//!
//! Quota enforcement, admission control, and memory-pressure
//! back-pressure for Snap containers (§2.5).
//!
//! The paper claims Snap "maintains strong accounting and isolation by
//! accurately attributing both CPU and memory consumed on behalf of
//! applications to those applications". `snap-shm`'s accountants do the
//! *attribution*; this crate does the *enforcement*: a [`QuotaPolicy`]
//! per container (soft/hard byte limits plus a CPU share), a shared
//! [`AdmissionController`] consulted on every buffer-pool allocation
//! and op submission, and a three-state [`PressureState`] that upper
//! layers translate into load shedding (best-effort work first) and
//! `Busy` back-pressure (transport work keeps its exactly-once
//! guarantee — pushed back, never silently dropped).
//!
//! Mid-run squeezes (`FaultEvent::MemoryPressure` in `snap-sim`)
//! temporarily scale a container's *finite* limits down by a fraction;
//! unlimited quotas are immune, so randomized fault plans stay safe for
//! workloads that never opted into a budget.
//!
//! The control-plane face of this crate is [`QuotaModule`], which sets
//! and queries quotas over the Snap module RPC surface.

pub mod module;

pub use module::QuotaModule;

use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

use parking_lot::Mutex;
use snap_shm::account::{ChargeError, CpuAccountant, MemoryAccountant, MemoryGate};

/// Maximum retained pressure transitions; older entries are dropped
/// (consumers track sequence numbers via
/// [`AdmissionController::transitions_since`]).
pub const TRANSITION_LOG_CAP: usize = 1024;

/// Per-container pressure, ordered by severity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PressureState {
    /// Under all limits: admit everything.
    #[default]
    Ok,
    /// Past the soft limit (or CPU share): shed best-effort work.
    Soft,
    /// At or past the hard limit: refuse new charges, push back on
    /// transport work with `Busy`.
    Hard,
}

impl PressureState {
    /// Stable numeric encoding (telemetry gauges, RPC wire format).
    pub fn as_u8(self) -> u8 {
        match self {
            PressureState::Ok => 0,
            PressureState::Soft => 1,
            PressureState::Hard => 2,
        }
    }

    /// Decodes [`PressureState::as_u8`].
    pub fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(PressureState::Ok),
            1 => Some(PressureState::Soft),
            2 => Some(PressureState::Hard),
            _ => None,
        }
    }

    /// Human-readable label.
    pub fn label(self) -> &'static str {
        match self {
            PressureState::Ok => "ok",
            PressureState::Soft => "soft",
            PressureState::Hard => "hard",
        }
    }
}

/// Per-container resource limits.
///
/// `u64::MAX` bytes or a CPU share of `1.0` means "unlimited" — the
/// default, so attaching an [`AdmissionController`] to an existing
/// deployment changes nothing until someone sets a budget.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QuotaPolicy {
    /// Soft memory limit: usage at or above this puts the container
    /// under [`PressureState::Soft`] (best-effort work is shed).
    pub mem_soft_bytes: u64,
    /// Hard memory limit: charges that would exceed this are refused
    /// and the container reports [`PressureState::Hard`].
    pub mem_hard_bytes: u64,
    /// Fraction of attributable host CPU (per the `CpuAccountant`)
    /// this container may consume before it counts as Soft pressure.
    /// `1.0` disables the check.
    pub cpu_share: f64,
}

impl Default for QuotaPolicy {
    fn default() -> Self {
        Self::UNLIMITED
    }
}

impl QuotaPolicy {
    /// No limits at all (the default).
    pub const UNLIMITED: QuotaPolicy = QuotaPolicy {
        mem_soft_bytes: u64::MAX,
        mem_hard_bytes: u64::MAX,
        cpu_share: 1.0,
    };

    /// Memory-only policy with the given soft and hard byte limits.
    pub fn with_mem(soft: u64, hard: u64) -> Self {
        QuotaPolicy {
            mem_soft_bytes: soft,
            mem_hard_bytes: hard,
            cpu_share: 1.0,
        }
    }

    /// True if this policy enforces nothing.
    pub fn is_unlimited(&self) -> bool {
        *self == Self::UNLIMITED
    }
}

/// One pressure-state change, in the order it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PressureTransition {
    /// Monotonic sequence number (gaps mean the log wrapped).
    pub seq: u64,
    /// Container that changed state.
    pub container: String,
    /// State before.
    pub from: PressureState,
    /// State after.
    pub to: PressureState,
}

/// Point-in-time view of one container's isolation state.
#[derive(Debug, Clone)]
pub struct ContainerSnapshot {
    /// Container name.
    pub container: String,
    /// Bytes currently charged.
    pub usage_bytes: u64,
    /// Configured policy.
    pub policy: QuotaPolicy,
    /// Active squeeze fraction (0 = none).
    pub squeeze: f64,
    /// Soft limit after the squeeze.
    pub effective_soft: u64,
    /// Hard limit after the squeeze.
    pub effective_hard: u64,
    /// Current pressure.
    pub pressure: PressureState,
    /// Charges refused because they would exceed the hard limit.
    pub denials: u64,
    /// Best-effort ops shed under pressure (reported by engines).
    pub sheds: u64,
}

#[derive(Default)]
struct ContainerState {
    policy: QuotaPolicy,
    squeeze: f64,
    denials: u64,
    sheds: u64,
    pressure: PressureState,
}

#[derive(Default)]
struct Inner {
    /// By name, ascending: the order `snapshot` refreshes them in, and
    /// so the order simultaneous transitions take their `seq`.
    containers: BTreeMap<String, ContainerState>,
    transitions: VecDeque<PressureTransition>,
    next_seq: u64,
}

/// Shared, cloneable admission controller: the enforcement layer over
/// a host's [`MemoryAccountant`]/[`CpuAccountant`] pair.
///
/// All clones share state. Check-and-charge is atomic (the usage cap
/// is enforced inside the accountant's lock), so concurrent charges
/// can never jointly exceed a container's effective hard limit.
#[derive(Clone)]
pub struct AdmissionController {
    memory: MemoryAccountant,
    cpu: CpuAccountant,
    inner: Arc<Mutex<Inner>>,
}

/// Scales a finite limit down by the squeeze fraction. Unlimited
/// quotas are immune: squeezing "no budget" must not conjure one, or
/// randomized memory-pressure faults would break workloads that never
/// opted into quotas.
fn effective(limit: u64, squeeze: f64) -> u64 {
    if limit == u64::MAX || squeeze <= 0.0 {
        limit
    } else {
        (limit as f64 * (1.0 - squeeze.clamp(0.0, 1.0))) as u64
    }
}

impl AdmissionController {
    /// Creates a controller enforcing over the given accountants
    /// (share these with the rest of the host so usage covers regions,
    /// pools, and engine state alike).
    pub fn new(memory: MemoryAccountant, cpu: CpuAccountant) -> Self {
        AdmissionController {
            memory,
            cpu,
            inner: Arc::new(Mutex::new(Inner::default())),
        }
    }

    /// The memory accountant usage is enforced against.
    pub fn memory(&self) -> &MemoryAccountant {
        &self.memory
    }

    /// The CPU accountant shares are computed from.
    pub fn cpu(&self) -> &CpuAccountant {
        &self.cpu
    }

    /// Sets (or replaces) a container's policy.
    pub fn set_policy(&self, container: &str, policy: QuotaPolicy) {
        let mut inner = self.inner.lock();
        inner
            .containers
            .entry(container.to_string())
            .or_default()
            .policy = policy;
        self.refresh_locked(&mut inner, container);
    }

    /// The container's policy (unlimited if never set).
    pub fn policy(&self, container: &str) -> QuotaPolicy {
        self.inner
            .lock()
            .containers
            .get(container)
            .map(|s| s.policy)
            .unwrap_or_default()
    }

    /// Registers a container so it shows up in [`containers`] and the
    /// pressure table even before its first charge.
    ///
    /// [`containers`]: AdmissionController::containers
    pub fn ensure_container(&self, container: &str) {
        self.inner
            .lock()
            .containers
            .entry(container.to_string())
            .or_default();
    }

    /// Known container names, sorted.
    pub fn containers(&self) -> Vec<String> {
        self.inner.lock().containers.keys().cloned().collect()
    }

    /// Attempts to charge `bytes` to `container`, refusing (and
    /// counting a denial) if that would exceed the effective hard
    /// limit. Check-and-charge is atomic.
    pub fn try_charge(&self, container: &str, bytes: u64) -> Result<(), ChargeError> {
        let mut inner = self.inner.lock();
        let hard = match inner.containers.get(container) {
            // Fast path: an unlimited, unsqueezed container admits
            // everything and its pressure is definitionally Ok, so
            // there is nothing to enforce and nothing to transition.
            Some(state) if state.policy.is_unlimited() && state.squeeze <= 0.0 => {
                self.memory.charge(container, bytes);
                return Ok(());
            }
            Some(state) => effective(state.policy.mem_hard_bytes, state.squeeze),
            None => {
                inner
                    .containers
                    .insert(container.to_string(), ContainerState::default());
                self.memory.charge(container, bytes);
                return Ok(());
            }
        };
        if self.memory.charge_capped(container, bytes, hard) {
            self.refresh_locked(&mut inner, container);
            Ok(())
        } else {
            let usage = self.memory.usage(container);
            if let Some(state) = inner.containers.get_mut(container) {
                state.denials += 1;
            }
            self.refresh_locked(&mut inner, container);
            Err(ChargeError::QuotaExceeded {
                usage,
                requested: bytes,
                limit: hard,
            })
        }
    }

    /// Unconditionally charges `bytes` to `container`, bypassing the
    /// quota. Used when re-accounting state that already exists (e.g.
    /// an engine restored from a checkpoint whose in-flight sends were
    /// admitted before the crash); may push the container into Hard
    /// pressure, which then back-pressures *new* work.
    pub fn charge(&self, container: &str, bytes: u64) {
        let mut inner = self.inner.lock();
        self.memory.charge(container, bytes);
        self.refresh_locked(&mut inner, container);
    }

    /// Releases `bytes` previously charged to `container`.
    pub fn release(&self, container: &str, bytes: u64) {
        let mut inner = self.inner.lock();
        self.memory.release(container, bytes);
        if Self::at_rest(&inner, container) {
            return;
        }
        self.refresh_locked(&mut inner, container);
    }

    /// Current pressure on a container, recomputed live (CPU usage can
    /// drift without any charge passing through this controller).
    /// Transitions observed here are logged like any other.
    pub fn pressure(&self, container: &str) -> PressureState {
        let mut inner = self.inner.lock();
        if Self::at_rest(&inner, container) {
            return PressureState::Ok;
        }
        self.refresh_locked(&mut inner, container)
    }

    /// True when the container cannot be under (or transition out of)
    /// pressure: unlimited policy, no squeeze. Every path that makes a
    /// policy finite or applies a squeeze refreshes under the lock, so
    /// an at-rest container's recorded pressure is always Ok.
    fn at_rest(inner: &Inner, container: &str) -> bool {
        inner
            .containers
            .get(container)
            .is_some_and(|s| s.policy.is_unlimited() && s.squeeze <= 0.0)
    }

    /// Applies a memory-pressure squeeze: the container's *finite*
    /// limits shrink to `limit * (1 - fraction)` until released.
    pub fn apply_pressure(&self, container: &str, fraction: f64) {
        let mut inner = self.inner.lock();
        inner
            .containers
            .entry(container.to_string())
            .or_default()
            .squeeze = fraction.clamp(0.0, 1.0);
        self.refresh_locked(&mut inner, container);
    }

    /// Lifts a squeeze applied by [`apply_pressure`].
    ///
    /// [`apply_pressure`]: AdmissionController::apply_pressure
    pub fn release_pressure(&self, container: &str) {
        self.apply_pressure(container, 0.0);
    }

    /// Records one best-effort op shed on behalf of `container`
    /// (engines call this so sheds are attributed, not silent).
    pub fn record_shed(&self, container: &str) {
        self.inner
            .lock()
            .containers
            .entry(container.to_string())
            .or_default()
            .sheds += 1;
    }

    /// Bytes currently charged to a container.
    pub fn usage(&self, container: &str) -> u64 {
        self.memory.usage(container)
    }

    /// Unmatched-release count from the underlying accountant.
    pub fn accounting_errors(&self) -> u64 {
        self.memory.accounting_errors()
    }

    /// Per-container snapshots, sorted by name.
    pub fn snapshot(&self) -> Vec<ContainerSnapshot> {
        let mut inner = self.inner.lock();
        let names: Vec<String> = inner.containers.keys().cloned().collect();
        let mut out = Vec::with_capacity(names.len());
        for name in names {
            let pressure = self.refresh_locked(&mut inner, &name);
            let Some(state) = inner.containers.get(&name) else {
                continue;
            };
            out.push(ContainerSnapshot {
                container: name.clone(),
                usage_bytes: self.memory.usage(&name),
                policy: state.policy,
                squeeze: state.squeeze,
                effective_soft: effective(state.policy.mem_soft_bytes, state.squeeze),
                effective_hard: effective(state.policy.mem_hard_bytes, state.squeeze),
                pressure,
                denials: state.denials,
                sheds: state.sheds,
            });
        }
        out
    }

    /// Pressure transitions with `seq >= since`, plus the next sequence
    /// number to poll from. Gaps below `since` mean the bounded log
    /// wrapped.
    pub fn transitions_since(&self, since: u64) -> (Vec<PressureTransition>, u64) {
        let inner = self.inner.lock();
        let out = inner
            .transitions
            .iter()
            .filter(|t| t.seq >= since)
            .cloned()
            .collect();
        (out, inner.next_seq)
    }

    /// All currently buffered pressure transitions, oldest first.
    pub fn transitions(&self) -> Vec<PressureTransition> {
        self.inner.lock().transitions.iter().cloned().collect()
    }

    /// Recomputes `container`'s pressure under the inner lock, logging
    /// a transition when the state changed. Returns the new state.
    fn refresh_locked(&self, inner: &mut Inner, container: &str) -> PressureState {
        let (now, changed_from) = {
            let Some(state) = inner.containers.get_mut(container) else {
                return PressureState::Ok;
            };
            let usage = self.memory.usage(container);
            let soft = effective(state.policy.mem_soft_bytes, state.squeeze);
            let hard = effective(state.policy.mem_hard_bytes, state.squeeze);
            let mem = if usage >= hard {
                PressureState::Hard
            } else if usage >= soft {
                PressureState::Soft
            } else {
                PressureState::Ok
            };
            let cpu = self.cpu_pressure(container, state.policy.cpu_share);
            let now = mem.max(cpu);
            if now == state.pressure {
                (now, None)
            } else {
                let from = state.pressure;
                state.pressure = now;
                (now, Some(from))
            }
        };
        if let Some(from) = changed_from {
            let seq = inner.next_seq;
            inner.next_seq += 1;
            if inner.transitions.len() == TRANSITION_LOG_CAP {
                inner.transitions.pop_front();
            }
            inner.transitions.push_back(PressureTransition {
                seq,
                container: container.to_string(),
                from,
                to: now,
            });
        }
        now
    }

    /// Soft pressure when the container's share of attributable CPU
    /// exceeds its budget. CPU cannot be un-spent, so overuse never
    /// escalates past Soft — it sheds best-effort work rather than
    /// refusing transport work.
    fn cpu_pressure(&self, container: &str, share: f64) -> PressureState {
        if share >= 1.0 {
            return PressureState::Ok;
        }
        let total = self.cpu.total();
        if total == 0 {
            return PressureState::Ok;
        }
        let used = self.cpu.usage(container);
        if used as f64 / total as f64 > share {
            PressureState::Soft
        } else {
            PressureState::Ok
        }
    }
}

/// The enforcing gate: buffer pools allocated through an
/// [`AdmissionController`] become fallible under quota.
impl MemoryGate for AdmissionController {
    fn try_charge(&self, container: &str, bytes: u64) -> Result<(), ChargeError> {
        AdmissionController::try_charge(self, container, bytes)
    }

    fn release(&self, container: &str, bytes: u64) {
        AdmissionController::release(self, container, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctl() -> AdmissionController {
        AdmissionController::new(MemoryAccountant::new(), CpuAccountant::new())
    }

    #[test]
    fn default_policy_admits_everything() {
        let c = ctl();
        assert!(c.try_charge("free", 1 << 40).is_ok());
        assert_eq!(c.pressure("free"), PressureState::Ok);
        assert!(c.policy("free").is_unlimited());
    }

    #[test]
    fn soft_and_hard_thresholds() {
        let c = ctl();
        c.set_policy("job", QuotaPolicy::with_mem(100, 200));
        assert!(c.try_charge("job", 99).is_ok());
        assert_eq!(c.pressure("job"), PressureState::Ok);
        assert!(c.try_charge("job", 1).is_ok());
        assert_eq!(c.pressure("job"), PressureState::Soft, "at soft limit");
        assert!(c.try_charge("job", 100).is_ok());
        assert_eq!(c.pressure("job"), PressureState::Hard, "at hard limit");
        let err = c.try_charge("job", 1).unwrap_err();
        assert!(matches!(err, ChargeError::QuotaExceeded { limit: 200, .. }));
        assert_eq!(c.usage("job"), 200, "refused charge never lands");
        c.release("job", 150);
        assert_eq!(c.pressure("job"), PressureState::Ok);
    }

    /// Three containers cross their soft limit behind the controller's
    /// back (charged on the accountant directly, as shared-memory
    /// regions are), so that one `snapshot` notices all three; returns
    /// the transitions it logged.
    fn transitions_of_one_snapshot() -> Vec<(u64, String)> {
        let c = ctl();
        for name in ["zeta", "alpha", "mid"] {
            c.set_policy(name, QuotaPolicy::with_mem(100, 200));
            c.memory().charge(name, 150);
        }
        assert!(c.transitions().is_empty(), "nothing has looked yet");
        c.snapshot();
        let logged = c.transitions().into_iter();
        logged.map(|t| (t.seq, t.container)).collect()
    }

    #[test]
    fn snapshot_logs_simultaneous_transitions_in_name_order() {
        let first = transitions_of_one_snapshot();
        let want = [(0, "alpha"), (1, "mid"), (2, "zeta")];
        assert_eq!(first, want.map(|(seq, name)| (seq, name.to_string())));
        // Every build draws a fresh hash key; none may show.
        for _ in 0..7 {
            assert_eq!(transitions_of_one_snapshot(), first);
        }
    }

    #[test]
    fn denials_are_counted() {
        let c = ctl();
        c.set_policy("job", QuotaPolicy::with_mem(10, 10));
        assert!(c.try_charge("job", 10).is_ok());
        assert!(c.try_charge("job", 1).is_err());
        assert!(c.try_charge("job", 5).is_err());
        let snap = c.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].denials, 2);
    }

    #[test]
    fn transitions_are_logged_in_order() {
        let c = ctl();
        c.set_policy("job", QuotaPolicy::with_mem(100, 200));
        c.charge("job", 150); // Ok -> Soft
        c.charge("job", 100); // Soft -> Hard (forced past the limit)
        c.release("job", 250); // Hard -> Ok
        let ts = c.transitions();
        let pairs: Vec<(PressureState, PressureState)> =
            ts.iter().map(|t| (t.from, t.to)).collect();
        assert_eq!(
            pairs,
            vec![
                (PressureState::Ok, PressureState::Soft),
                (PressureState::Soft, PressureState::Hard),
                (PressureState::Hard, PressureState::Ok),
            ]
        );
        assert!(ts.windows(2).all(|w| w[0].seq < w[1].seq));
        let (tail, next) = c.transitions_since(ts[2].seq);
        assert_eq!(tail.len(), 1);
        assert_eq!(next, ts[2].seq + 1);
    }

    #[test]
    fn squeeze_scales_finite_limits_only() {
        let c = ctl();
        c.set_policy("job", QuotaPolicy::with_mem(1_000, 2_000));
        c.charge("job", 500);
        assert_eq!(c.pressure("job"), PressureState::Ok);
        c.apply_pressure("job", 0.8); // soft 200, hard 400
        assert_eq!(c.pressure("job"), PressureState::Hard);
        assert!(c.try_charge("job", 1).is_err());
        c.apply_pressure("job", 0.6); // soft 400, hard 800
        assert_eq!(c.pressure("job"), PressureState::Soft);
        c.release_pressure("job");
        assert_eq!(c.pressure("job"), PressureState::Ok);
        assert!(c.try_charge("job", 1).is_ok());

        // Unlimited containers are immune even to a total squeeze.
        c.charge("unbudgeted", 1 << 30);
        c.apply_pressure("unbudgeted", 1.0);
        assert_eq!(c.pressure("unbudgeted"), PressureState::Ok);
        assert!(c.try_charge("unbudgeted", 1 << 30).is_ok());
    }

    #[test]
    fn cpu_share_overuse_is_soft_pressure() {
        let mem = MemoryAccountant::new();
        let cpu = CpuAccountant::new();
        let c = AdmissionController::new(mem, cpu.clone());
        c.set_policy(
            "greedy",
            QuotaPolicy {
                mem_soft_bytes: u64::MAX,
                mem_hard_bytes: u64::MAX,
                cpu_share: 0.25,
            },
        );
        cpu.charge("greedy", 900);
        cpu.charge("other", 100);
        assert_eq!(c.pressure("greedy"), PressureState::Soft);
        // CPU overuse never hard-blocks memory charges.
        assert!(c.try_charge("greedy", 1 << 20).is_ok());
        cpu.charge("other", 9_000);
        assert_eq!(c.pressure("greedy"), PressureState::Ok);
    }

    #[test]
    fn forced_charge_backpressures_new_work() {
        let c = ctl();
        c.set_policy("job", QuotaPolicy::with_mem(50, 100));
        // Restore path: state that predates the quota is re-accounted
        // unconditionally...
        c.charge("job", 150);
        assert_eq!(c.pressure("job"), PressureState::Hard);
        // ...and new work is refused until usage drains.
        assert!(c.try_charge("job", 1).is_err());
        c.release("job", 120);
        assert!(c.try_charge("job", 1).is_ok());
    }

    #[test]
    fn record_shed_attributes_to_container() {
        let c = ctl();
        c.ensure_container("be");
        c.record_shed("be");
        c.record_shed("be");
        assert_eq!(c.snapshot()[0].sheds, 2);
    }

    #[test]
    fn transition_log_is_bounded() {
        let c = ctl();
        c.set_policy("flap", QuotaPolicy::with_mem(10, u64::MAX));
        for _ in 0..(TRANSITION_LOG_CAP as u64) {
            c.charge("flap", 10); // -> Soft
            c.release("flap", 10); // -> Ok
        }
        let ts = c.transitions();
        assert_eq!(ts.len(), TRANSITION_LOG_CAP);
        // Oldest entries were dropped; sequence numbers keep counting.
        assert_eq!(ts.last().map(|t| t.seq), Some(2 * TRANSITION_LOG_CAP as u64 - 1));
    }

    #[test]
    fn clones_share_state() {
        let a = ctl();
        let b = a.clone();
        a.set_policy("x", QuotaPolicy::with_mem(5, 5));
        assert!(b.try_charge("x", 5).is_ok());
        assert!(a.try_charge("x", 1).is_err());
        assert_eq!(b.snapshot()[0].denials, 1);
    }
}
