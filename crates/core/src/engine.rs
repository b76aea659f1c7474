//! The engine abstraction (§2.2).
//!
//! "Engines are stateful, single-threaded tasks that are scheduled and
//! run by a Snap engine scheduling runtime." An engine's interface to
//! the runtime is deliberately small:
//!
//! * [`Engine::run`] — one bounded scheduling pass: poll inputs, advance
//!   state machines, generate output packets. Returns a [`RunReport`]
//!   with the CPU consumed and queueing statistics. To "maintain
//!   real-time properties" (§2.2) passes must be bounded; the runtime
//!   asserts a latency budget in debug builds.
//! * [`Engine::serialize_state`] / [`Engine::state_bytes`] — the
//!   intermediate-format snapshot used by transparent upgrades (§4).
//! * [`Engine::pending_work`] / [`Engine::oldest_pending_age`] — the
//!   queueing-delay estimate the compacting scheduler polls
//!   ("measured using an algorithm similar to Shenango", §2.4).

use snap_sim::{Nanos, Sim};

/// Identifies an engine within a Snap process.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EngineId(pub u32);

/// The outcome of one engine scheduling pass.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// CPU time consumed by this pass.
    pub cpu: Nanos,
    /// Whether the pass found and did any work.
    pub work_done: bool,
    /// Immediately actionable items (packets, commands, sendable
    /// frames) still pending after the pass.
    pub pending: usize,
    /// Earliest self-timer deadline (pacing, retransmission). Workers
    /// poll-wait through near deadlines instead of paying a full
    /// block/wake cycle for sub-microsecond pacing gaps.
    pub next_deadline: Option<Nanos>,
}

impl RunReport {
    /// An idle pass that only paid the polling cost.
    pub fn idle(poll_cost: Nanos) -> RunReport {
        RunReport {
            cpu: poll_cost,
            work_done: false,
            pending: 0,
            next_deadline: None,
        }
    }
}

/// A Snap engine: a single-threaded packet-processing task.
///
/// Engines never block (§2.2 prohibits blocking synchronization): the
/// datapath reaches an engine over lock-free queues serviced inside
/// [`Engine::run`], and the control plane between passes, through
/// [`GroupHandle::try_with_engine`](crate::group::GroupHandle::try_with_engine).
pub trait Engine {
    /// Engine name for dashboards and upgrade logs.
    fn name(&self) -> &str;

    /// Executes one bounded scheduling pass at virtual time `sim.now()`.
    fn run(&mut self, sim: &mut Sim) -> RunReport;

    /// Number of work items currently queued for this engine.
    fn pending_work(&self) -> usize;

    /// Age of the oldest pending work item — the engine's current
    /// queueing delay, polled by the compacting scheduler.
    fn oldest_pending_age(&self, now: Nanos) -> Nanos;

    /// Serializes all engine state into the upgrade intermediate
    /// format (§4: "the running version of Snap serializes all state to
    /// an intermediate format stored in memory shared with a new
    /// version").
    fn serialize_state(&mut self) -> Vec<u8>;

    /// Size of the serialized state, for brownout planning and
    /// blackout-duration modeling.
    fn state_bytes(&mut self) -> u64 {
        self.serialize_state().len() as u64
    }

    /// Called when the engine is suspended for upgrade: detach from
    /// NIC receive filters and cease packet processing.
    fn detach(&mut self, sim: &mut Sim);

    /// Called when the engine is resumed: re-attach NIC receive
    /// filters dropped by [`Engine::detach`]. Only an engine whose
    /// `detach` undoes nothing may keep the default no-op; one that
    /// detaches must override this, and make attachment idempotent if
    /// its constructor also attaches — a resumed successor is attached
    /// twice (constructor + resume). The upgrade rollback path relies
    /// on this hook to bring a previously detached predecessor back
    /// online.
    fn attach(&mut self, sim: &mut Sim) {
        let _ = sim;
    }

    /// The application container this engine's work is charged to.
    fn container(&self) -> &str {
        "snap-system"
    }

    /// Downcast support for module control paths that need the
    /// concrete engine type (e.g. the Pony module configuring its own
    /// engines through `GroupHandle::try_with_engine`).
    fn as_any(&mut self) -> &mut dyn std::any::Any;
}

/// A trivial engine that drains a closure-fed work counter; used by
/// framework tests and as the simplest possible example of the trait.
pub struct CountingEngine {
    name: String,
    /// Work items waiting, with their enqueue times.
    queue: std::collections::VecDeque<Nanos>,
    /// CPU cost per item processed.
    pub per_item_cost: Nanos,
    /// Items processed in total.
    pub processed: u64,
    /// Max items per pass (the bounded batch).
    pub batch: usize,
    detached: bool,
}

impl CountingEngine {
    /// Creates an engine with the given per-item CPU cost.
    pub fn new(name: impl Into<String>, per_item_cost: Nanos) -> Self {
        CountingEngine {
            name: name.into(),
            queue: std::collections::VecDeque::new(),
            per_item_cost,
            processed: 0,
            batch: 16,
            detached: false,
        }
    }

    /// Enqueues one work item at time `now`.
    pub fn inject(&mut self, now: Nanos) {
        self.queue.push_back(now);
    }

    /// True once [`Engine::detach`] ran.
    pub fn is_detached(&self) -> bool {
        self.detached
    }
}

impl Engine for CountingEngine {
    fn name(&self) -> &str {
        &self.name
    }

    fn run(&mut self, sim: &mut Sim) -> RunReport {
        let _ = sim;
        let n = self.queue.len().min(self.batch);
        for _ in 0..n {
            self.queue.pop_front();
        }
        self.processed += n as u64;
        RunReport {
            cpu: Nanos(snap_sim::costs::ENGINE_POLL_PASS_NS) + self.per_item_cost * n as u64,
            work_done: n > 0,
            pending: self.queue.len(),
            next_deadline: None,
        }
    }

    fn pending_work(&self) -> usize {
        self.queue.len()
    }

    fn oldest_pending_age(&self, now: Nanos) -> Nanos {
        self.queue
            .front()
            .map(|&t| now.saturating_sub(t))
            .unwrap_or(Nanos::ZERO)
    }

    fn serialize_state(&mut self) -> Vec<u8> {
        self.processed.to_le_bytes().to_vec()
    }

    fn detach(&mut self, _sim: &mut Sim) {
        self.detached = true;
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_engine_processes_in_batches() {
        let mut sim = Sim::new();
        let mut e = CountingEngine::new("test", Nanos(100));
        for _ in 0..20 {
            e.inject(Nanos::ZERO);
        }
        let r = e.run(&mut sim);
        assert!(r.work_done);
        assert_eq!(r.pending, 4);
        assert_eq!(e.processed, 16);
        assert_eq!(
            r.cpu,
            Nanos(snap_sim::costs::ENGINE_POLL_PASS_NS + 1_600)
        );
        let r2 = e.run(&mut sim);
        assert_eq!(r2.pending, 0);
        assert_eq!(e.processed, 20);
    }

    #[test]
    fn idle_pass_costs_poll_only() {
        let mut sim = Sim::new();
        let mut e = CountingEngine::new("idle", Nanos(100));
        let r = e.run(&mut sim);
        assert!(!r.work_done);
        assert_eq!(r.cpu, Nanos(snap_sim::costs::ENGINE_POLL_PASS_NS));
    }

    #[test]
    fn oldest_age_tracks_head_of_queue() {
        let mut e = CountingEngine::new("age", Nanos(10));
        assert_eq!(e.oldest_pending_age(Nanos(500)), Nanos::ZERO);
        e.inject(Nanos(100));
        e.inject(Nanos(400));
        assert_eq!(e.oldest_pending_age(Nanos(500)), Nanos(400));
    }

    #[test]
    fn state_roundtrip() {
        let mut sim = Sim::new();
        let mut e = CountingEngine::new("s", Nanos(1));
        e.inject(Nanos::ZERO);
        e.run(&mut sim);
        let state = e.serialize_state();
        assert_eq!(u64::from_le_bytes(state.try_into().unwrap()), 1);
    }
}
