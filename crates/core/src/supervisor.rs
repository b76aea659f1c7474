//! Engine supervision: checkpoints, liveness monitoring, and restart.
//!
//! Snap's unit of failure containment is the engine: "engines are
//! stateful, single-threaded tasks" (§2.2), so a crashed or wedged
//! engine takes down only its own sessions, and the serialization
//! machinery built for transparent upgrades (§4) doubles as a
//! checkpoint format. The [`Supervisor`] closes the loop:
//!
//! * **Checkpoints** — every `checkpoint_interval` the supervisor asks
//!   each healthy watched engine for [`Engine::serialize_state`] and
//!   keeps the latest snapshot (the same intermediate format upgrades
//!   use, so one serializer serves both paths).
//! * **Liveness** — every `health_poll` it samples
//!   [`GroupHandle::engine_health`]: a `crashed` flag means the engine
//!   process died; pending work with no completed run pass for longer
//!   than `wedge_threshold` means the engine is wedged (livelocked).
//! * **Restart** — a dead or wedged engine is rebuilt from its last
//!   checkpoint through the [`RestartFactory`] after `restart_cost` of
//!   blackout (the same detach/re-attach cost an upgrade pays), then
//!   resumed with its sessions re-injected. Anything that happened
//!   after the checkpoint is lost on the engine side; reliable
//!   transports above (Pony Express's SACK/retransmission machinery)
//!   resynchronize the flows, so applications observe a latency blip,
//!   not data loss.

use std::cell::RefCell;
use std::rc::Rc;

use snap_sim::costs;
use snap_sim::{Nanos, Sim};

use crate::engine::{Engine, EngineId};
use crate::group::GroupHandle;

/// Rebuilds an engine from checkpointed state. Unlike the upgrade
/// path's one-shot factory this is reusable: an engine may crash more
/// than once.
pub type RestartFactory = Rc<dyn Fn(Vec<u8>, &mut Sim) -> Box<dyn Engine>>;

/// Supervisor tuning knobs.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// How often healthy engines are checkpointed.
    pub checkpoint_interval: Nanos,
    /// How often engine health is sampled.
    pub health_poll: Nanos,
    /// Pending work older than this with no completed run pass marks
    /// the engine wedged.
    pub wedge_threshold: Nanos,
    /// Blackout paid to rebuild an engine from a checkpoint (detach,
    /// deserialize, re-attach) — the analogue of an upgrade blackout.
    pub restart_cost: Nanos,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            checkpoint_interval: Nanos::from_millis(10),
            health_poll: Nanos::from_millis(1),
            wedge_threshold: Nanos::from_millis(5),
            restart_cost: Nanos(costs::UPGRADE_FIXED_BLACKOUT_NS),
        }
    }
}

/// What the supervisor has done so far.
#[derive(Debug, Clone, Default)]
pub struct SupervisorReport {
    /// Checkpoints taken across all watched engines.
    pub checkpoints: u64,
    /// Restarts triggered by a crashed engine.
    pub crash_restarts: u64,
    /// Restarts triggered by wedge detection.
    pub wedge_restarts: u64,
    /// Proactive restarts requested by an external health verdict
    /// (gray-failure quarantine).
    pub quarantine_restarts: u64,
}

impl SupervisorReport {
    /// Total restarts of any kind.
    pub fn restarts(&self) -> u64 {
        self.crash_restarts + self.wedge_restarts + self.quarantine_restarts
    }
}

struct Watched {
    group: GroupHandle,
    id: EngineId,
    factory: RestartFactory,
    /// Latest checkpoint (taken at watch time, then periodically).
    checkpoint: Vec<u8>,
    /// When the checkpoint was taken.
    checkpoint_at: Nanos,
    /// A restart is in flight; don't checkpoint or re-trigger.
    restarting: bool,
    /// When the last restart completed; suppresses wedge detection
    /// until the revived engine has had a chance to run.
    last_restart: Nanos,
}

struct SupervisorInner {
    cfg: SupervisorConfig,
    watched: Vec<Watched>,
    report: SupervisorReport,
    restart_log: Vec<RestartRecord>,
    started: bool,
    stopped: bool,
}

/// Why an engine was restarted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestartKind {
    /// The engine's thread died (crash flag set).
    Crash,
    /// Pending work aged past the wedge threshold with no progress.
    Wedge,
    /// An external health monitor judged the engine gray (alive but
    /// degraded) and asked for a proactive rebuild.
    Quarantine,
}

/// One restart, with its blackout window — the supervisor-side analogue
/// of an upgrade's per-engine blackout record (Fig. 9). Telemetry polls
/// [`Supervisor::restart_log`] to build blackout histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestartRecord {
    /// The restarted engine.
    pub id: EngineId,
    /// Crash or wedge.
    pub kind: RestartKind,
    /// When the failure was detected (blackout start).
    pub detected: Nanos,
    /// When the revived engine resumed; `None` while in flight.
    pub resumed: Option<Nanos>,
}

impl RestartRecord {
    /// Blackout duration, once the restart has completed.
    pub fn blackout(&self) -> Option<Nanos> {
        self.resumed.map(|r| r.saturating_sub(self.detected))
    }
}

/// Cloneable handle to the supervision loop.
#[derive(Clone)]
pub struct Supervisor {
    inner: Rc<RefCell<SupervisorInner>>,
}

impl Supervisor {
    /// Creates a supervisor with the given tuning.
    pub fn new(cfg: SupervisorConfig) -> Self {
        Supervisor {
            inner: Rc::new(RefCell::new(SupervisorInner {
                cfg,
                watched: Vec::new(),
                report: SupervisorReport::default(),
                restart_log: Vec::new(),
                started: false,
                stopped: false,
            })),
        }
    }

    /// Registers an engine for supervision and takes its first
    /// checkpoint immediately, so a restart always has state to
    /// recover from even before the first periodic checkpoint.
    pub fn watch(&self, sim: &mut Sim, group: GroupHandle, id: EngineId, factory: RestartFactory) {
        let checkpoint = group.with_engine(id, |e| e.serialize_state());
        let mut inner = self.inner.borrow_mut();
        inner.report.checkpoints += 1;
        inner.watched.push(Watched {
            group,
            id,
            factory,
            checkpoint,
            checkpoint_at: sim.now(),
            restarting: false,
            last_restart: Nanos::ZERO,
        });
    }

    /// Starts the checkpoint and health-poll loops. Idempotent.
    pub fn start(&self, sim: &mut Sim) {
        let (ckpt, poll) = {
            let mut inner = self.inner.borrow_mut();
            if std::mem::replace(&mut inner.started, true) {
                return;
            }
            (inner.cfg.checkpoint_interval, inner.cfg.health_poll)
        };
        let handle = self.clone();
        snap_sim::event::every(sim, sim.now() + ckpt, ckpt, move |sim| {
            if handle.inner.borrow().stopped {
                return false;
            }
            handle.checkpoint_pass(sim);
            true
        });
        let handle = self.clone();
        snap_sim::event::every(sim, sim.now() + poll, poll, move |sim| {
            if handle.inner.borrow().stopped {
                return false;
            }
            handle.health_pass(sim);
            true
        });
    }

    /// Stops both loops so a drained simulation can terminate.
    pub fn stop(&self) {
        self.inner.borrow_mut().stopped = true;
    }

    /// Activity counters snapshot.
    pub fn report(&self) -> SupervisorReport {
        self.inner.borrow().report.clone()
    }

    /// Every restart so far, in detection order. Completed entries have
    /// `resumed` set; in-flight ones don't yet.
    pub fn restart_log(&self) -> Vec<RestartRecord> {
        self.inner.borrow().restart_log.clone()
    }

    /// Age of the most recent checkpoint of `id`'s watch entry, if any.
    pub fn checkpoint_age(&self, id: EngineId, now: Nanos) -> Option<Nanos> {
        let inner = self.inner.borrow();
        inner
            .watched
            .iter()
            .find(|w| w.id == id)
            .map(|w| now.saturating_sub(w.checkpoint_at))
    }

    /// Proactively restarts a watched engine on an external health
    /// verdict: the engine is alive (so the liveness loop will never
    /// act) but a gray-failure detector judged it degraded. The engine
    /// is rebuilt from its last checkpoint exactly like a wedge
    /// restart. Returns `false` if `(group, id)` is not watched, or a
    /// restart is already in flight, or the engine is suspended (an
    /// upgrade owns it).
    pub fn quarantine(&self, sim: &mut Sim, group: &GroupHandle, id: EngineId) -> bool {
        let idx = {
            let inner = self.inner.borrow();
            inner.watched.iter().position(|w| {
                w.id == id
                    && w.group.same_group(group)
                    && !w.restarting
                    && w.group
                        .engine_health(w.id)
                        .map(|h| !h.suspended)
                        .unwrap_or(false)
            })
        };
        let Some(i) = idx else { return false };
        self.restart(sim, i, RestartKind::Quarantine);
        true
    }

    /// One checkpoint pass: snapshot every healthy watched engine.
    fn checkpoint_pass(&self, sim: &mut Sim) {
        let now = sim.now();
        let count = self.inner.borrow().watched.len();
        for i in 0..count {
            let (group, id, skip) = {
                let inner = self.inner.borrow();
                let w = &inner.watched[i];
                let health = w.group.engine_health(w.id);
                let skip = w.restarting
                    || health.map(|h| h.crashed || h.suspended).unwrap_or(true);
                (w.group.clone(), w.id, skip)
            };
            if skip {
                continue;
            }
            let state = group.with_engine(id, |e| e.serialize_state());
            let mut inner = self.inner.borrow_mut();
            inner.watched[i].checkpoint = state;
            inner.watched[i].checkpoint_at = now;
            inner.report.checkpoints += 1;
        }
    }

    /// One health pass: detect dead and wedged engines, start restarts.
    fn health_pass(&self, sim: &mut Sim) {
        let now = sim.now();
        let mut actions = Vec::new();
        {
            let inner = self.inner.borrow();
            for (i, w) in inner.watched.iter().enumerate() {
                if w.restarting {
                    continue;
                }
                let Some(health) = w.group.engine_health(w.id) else {
                    continue;
                };
                if health.suspended {
                    // An upgrade (or another restart) owns the engine.
                    continue;
                }
                if health.crashed {
                    actions.push((i, RestartKind::Crash));
                    continue;
                }
                // Wedge: work is waiting but no pass has completed for
                // longer than the threshold (measured from the last
                // pass or the last restart, whichever is newer).
                let last_progress = health.last_pass.max(w.last_restart);
                if health.pending > 0
                    && now.saturating_sub(last_progress) > inner.cfg.wedge_threshold
                {
                    actions.push((i, RestartKind::Wedge));
                }
            }
        }
        for (i, kind) in actions {
            self.restart(sim, i, kind);
        }
    }

    /// Rebuilds watched engine `i` from its last checkpoint after the
    /// configured blackout.
    fn restart(&self, sim: &mut Sim, i: usize, kind: RestartKind) {
        let (group, id, restart_cost, log_idx) = {
            let mut inner = self.inner.borrow_mut();
            inner.watched[i].restarting = true;
            match kind {
                RestartKind::Crash => inner.report.crash_restarts += 1,
                RestartKind::Wedge => inner.report.wedge_restarts += 1,
                RestartKind::Quarantine => inner.report.quarantine_restarts += 1,
            }
            let w = &inner.watched[i];
            let (group, id, cost) = (w.group.clone(), w.id, inner.cfg.restart_cost);
            inner.restart_log.push(RestartRecord {
                id,
                kind,
                detected: sim.now(),
                resumed: None,
            });
            (group, id, cost, inner.restart_log.len() - 1)
        };
        if matches!(kind, RestartKind::Wedge | RestartKind::Quarantine) {
            // The wedged (or quarantined) engine is still resident:
            // suspend it (running its detach hook, dropping NIC
            // filters) and discard it — its in-memory state is not
            // trusted.
            group.suspend_engine(sim, id);
            drop(group.take_engine(id));
        }
        let handle = self.clone();
        sim.schedule_in(restart_cost, move |sim| {
            let (factory, checkpoint) = {
                let inner = handle.inner.borrow();
                let w = &inner.watched[i];
                (w.factory.clone(), w.checkpoint.clone())
            };
            let engine = factory(checkpoint, sim);
            group.resume_engine(sim, id, engine);
            let mut inner = handle.inner.borrow_mut();
            inner.watched[i].restarting = false;
            inner.watched[i].last_restart = sim.now();
            inner.restart_log[log_idx].resumed = Some(sim.now());
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CountingEngine;
    use crate::group::{GroupConfig, MachineHandle, SchedulingMode};
    use snap_sched::machine::Machine;
    use snap_shm::account::CpuAccountant;

    fn group() -> GroupHandle {
        let machine: MachineHandle = Rc::new(RefCell::new(Machine::new(4, 1)));
        GroupHandle::new(
            GroupConfig {
                name: "g".into(),
                mode: SchedulingMode::Dedicated { cores: vec![0] },
                class: None,
            },
            machine,
            CpuAccountant::new(),
        )
    }

    fn counting_factory() -> RestartFactory {
        Rc::new(|state, _sim| {
            let mut e = CountingEngine::new("revived", Nanos(100));
            e.processed = u64::from_le_bytes(state.try_into().expect("8-byte checkpoint"));
            Box::new(e)
        })
    }

    fn inject(g: &GroupHandle, id: EngineId, now: Nanos, n: usize) {
        g.with_engine(id, |e| {
            let e = e.as_any().downcast_mut::<CountingEngine>().expect("counting");
            for _ in 0..n {
                e.inject(now);
            }
        });
    }

    fn processed(g: &GroupHandle, id: EngineId) -> u64 {
        g.with_engine(id, |e| {
            e.as_any().downcast_mut::<CountingEngine>().expect("counting").processed
        })
    }

    fn sup() -> Supervisor {
        Supervisor::new(SupervisorConfig {
            checkpoint_interval: Nanos::from_millis(1),
            health_poll: Nanos::from_micros(200),
            wedge_threshold: Nanos::from_millis(1),
            restart_cost: Nanos::from_micros(50),
        })
    }

    #[test]
    fn healthy_engines_only_accumulate_checkpoints() {
        let mut sim = Sim::new();
        let g = group();
        let id = g.add_engine(Box::new(CountingEngine::new("e", Nanos(100))));
        g.start(&mut sim);
        let s = sup();
        s.watch(&mut sim, g.clone(), id, counting_factory());
        s.start(&mut sim);
        sim.run_until(Nanos::from_millis(10));
        s.stop();
        sim.run();
        let r = s.report();
        assert_eq!(r.restarts(), 0);
        assert!(r.checkpoints >= 10, "checkpoints: {}", r.checkpoints);
        assert!(s.checkpoint_age(id, Nanos::from_millis(10)).expect("watched") <= Nanos::from_millis(1));
    }

    #[test]
    fn crash_restarts_from_last_checkpoint() {
        let mut sim = Sim::new();
        let g = group();
        let id = g.add_engine(Box::new(CountingEngine::new("e", Nanos(100))));
        g.start(&mut sim);
        let s = sup();
        s.watch(&mut sim, g.clone(), id, counting_factory());
        s.start(&mut sim);
        // Do some work, let a checkpoint capture it, then crash.
        inject(&g, id, sim.now(), 7);
        g.wake(&mut sim, id);
        sim.run_until(Nanos::from_millis(2));
        assert_eq!(processed(&g, id), 7);
        g.kill_engine(id);
        sim.run_until(Nanos::from_millis(5));
        s.stop();
        sim.run();
        let r = s.report();
        assert_eq!(r.crash_restarts, 1);
        assert_eq!(r.wedge_restarts, 0);
        // The revived engine carries the checkpointed counter.
        assert_eq!(processed(&g, id), 7);
        assert_eq!(g.with_engine(id, |e| e.name().to_string()), "revived");
        assert!(!g.engine_health(id).expect("slot").crashed);
    }

    #[test]
    fn crash_before_any_periodic_checkpoint_uses_watch_snapshot() {
        let mut sim = Sim::new();
        let g = group();
        let id = g.add_engine(Box::new(CountingEngine::new("e", Nanos(100))));
        g.start(&mut sim);
        let s = sup();
        s.watch(&mut sim, g.clone(), id, counting_factory());
        s.start(&mut sim);
        // Crash immediately — only the watch-time checkpoint exists.
        g.kill_engine(id);
        sim.run_until(Nanos::from_millis(2));
        s.stop();
        sim.run();
        assert_eq!(s.report().crash_restarts, 1);
        assert_eq!(processed(&g, id), 0);
    }

    #[test]
    fn wedged_engine_is_detected_and_restarted() {
        let mut sim = Sim::new();
        let g = group();
        let id = g.add_engine(Box::new(CountingEngine::new("e", Nanos(100))));
        g.start(&mut sim);
        let s = sup();
        s.watch(&mut sim, g.clone(), id, counting_factory());
        s.start(&mut sim);
        // Wedge far longer than the threshold, with work pending.
        g.stall_engine(&mut sim, id, Nanos::from_millis(100));
        inject(&g, id, sim.now(), 3);
        g.wake(&mut sim, id);
        sim.run_until(Nanos::from_millis(10));
        s.stop();
        sim.run_until(Nanos::from_millis(12));
        let r = s.report();
        assert_eq!(r.wedge_restarts, 1, "report: {r:?}");
        assert_eq!(r.crash_restarts, 0);
        // Restart cleared the stall: new work processes immediately,
        // long before the 100ms stall would have lifted.
        inject(&g, id, sim.now(), 2);
        g.wake(&mut sim, id);
        sim.run_until(Nanos::from_millis(13));
        assert_eq!(processed(&g, id), 2);
    }

    #[test]
    fn quarantine_rebuilds_a_live_engine_and_counts_separately() {
        let mut sim = Sim::new();
        let g = group();
        let id = g.add_engine(Box::new(CountingEngine::new("e", Nanos(100))));
        g.start(&mut sim);
        let s = sup();
        s.watch(&mut sim, g.clone(), id, counting_factory());
        s.start(&mut sim);
        // Work gets checkpointed, then a health verdict quarantines the
        // (perfectly alive) engine.
        inject(&g, id, sim.now(), 5);
        g.wake(&mut sim, id);
        sim.run_until(Nanos::from_millis(2));
        assert_eq!(processed(&g, id), 5);
        // Wrong group or unknown id: refused, nothing restarted.
        let other = group();
        assert!(!s.quarantine(&mut sim, &other, id));
        assert!(!s.quarantine(&mut sim, &g, EngineId(42)));
        assert!(s.quarantine(&mut sim, &g, id));
        // Already restarting: second request refused.
        assert!(!s.quarantine(&mut sim, &g, id));
        sim.run_until(Nanos::from_millis(4));
        s.stop();
        sim.run();
        let r = s.report();
        assert_eq!(r.quarantine_restarts, 1);
        assert_eq!(r.crash_restarts + r.wedge_restarts, 0);
        assert_eq!(r.restarts(), 1);
        // Rebuilt from the checkpoint, alive and serving.
        assert_eq!(processed(&g, id), 5);
        assert_eq!(g.with_engine(id, |e| e.name().to_string()), "revived");
        let log = s.restart_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].kind, RestartKind::Quarantine);
        assert!(log[0].blackout().is_some());
    }

    #[test]
    fn restart_pays_the_configured_blackout() {
        let mut sim = Sim::new();
        let g = group();
        let id = g.add_engine(Box::new(CountingEngine::new("e", Nanos(100))));
        g.start(&mut sim);
        let s = Supervisor::new(SupervisorConfig {
            restart_cost: Nanos::from_millis(3),
            health_poll: Nanos::from_micros(100),
            ..SupervisorConfig::default()
        });
        s.watch(&mut sim, g.clone(), id, counting_factory());
        s.start(&mut sim);
        g.kill_engine(id);
        // Shortly after detection the engine is still down...
        sim.run_until(Nanos::from_millis(1));
        assert!(g.engine_health(id).expect("slot").crashed);
        // ...and alive once the blackout has elapsed.
        sim.run_until(Nanos::from_millis(5));
        assert!(!g.engine_health(id).expect("slot").crashed);
        // The restart log records the blackout window.
        let log = s.restart_log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].id, id);
        assert_eq!(log[0].kind, RestartKind::Crash);
        let blackout = log[0].blackout().expect("restart completed");
        assert!(
            blackout >= Nanos::from_millis(3),
            "blackout {blackout} below configured restart cost"
        );
        s.stop();
    }
}
