//! Transparent upgrades (§4, Fig. 5, Fig. 9).
//!
//! "During upgrades, the running version of Snap serializes all state
//! to an intermediate format stored in memory shared with a new
//! version. As with virtual machine migration techniques, the upgrade
//! is two-phased to minimize the blackout period ... Snap performs
//! upgrades incrementally, migrating engines one at a time, each in its
//! entirety."
//!
//! The [`UpgradeOrchestrator`] drives that flow over virtual time:
//!
//! 1. **Brownout** (per engine): control-plane connections and shared
//!    memory fd handles transfer in the background; the engine keeps
//!    processing packets.
//! 2. **Blackout** (per engine): the engine is suspended, its NIC
//!    receive filters detach (packets for it now drop — the loss the
//!    paper says "end-to-end transport protocols tolerate ... as if it
//!    were congestion-caused packet loss"), state is serialized,
//!    handed to the new instance, deserialized, filters re-attach, and
//!    the successor engine resumes.
//!
//! An engine that is not running when its turn comes (crashed, or
//! suspended by a supervisor restart) is passed over: there is no state
//! to migrate and nothing to roll back to.
//!
//! Blackout duration is dominated by state size (serialize +
//! deserialize at [`snap_sim::costs::UPGRADE_SERIALIZE_BYTES_PER_NS`])
//! plus a fixed detach/re-attach cost — which is exactly why Fig. 9's
//! distribution is heavy-tailed in checkpoint size.

use std::cell::RefCell;
use std::rc::Rc;

use snap_sim::costs;
use snap_sim::{Nanos, Sim};

use crate::engine::{Engine, EngineId};
use crate::group::GroupHandle;

/// Builds the new-version engine from the old engine's serialized
/// state. It may fail — bad serialized state, or a successor that
/// cannot come up — which triggers rollback to the predecessor.
pub type UpgradeFactory =
    Box<dyn FnOnce(Vec<u8>, &mut Sim) -> Result<Box<dyn Engine>, UpgradeError>>;

/// Why a migration could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpgradeError {
    /// The successor rejected the serialized state (truncated, corrupt,
    /// or from an incompatible version).
    BadState(String),
    /// The successor crashed before taking over (observed through the
    /// engine slot's crash flag during the blackout window).
    SuccessorCrashed,
}

impl std::fmt::Display for UpgradeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpgradeError::BadState(why) => write!(f, "bad serialized state: {why}"),
            UpgradeError::SuccessorCrashed => write!(f, "successor crashed during install"),
        }
    }
}

impl std::error::Error for UpgradeError {}

/// Per-engine upgrade record.
#[derive(Debug, Clone)]
pub struct EngineUpgrade {
    /// Engine name.
    pub engine: String,
    /// Bytes of state checkpointed.
    pub state_bytes: u64,
    /// Brownout (background transfer) duration.
    pub brownout: Nanos,
    /// Blackout (engine unavailable) duration.
    pub blackout: Nanos,
    /// True if the migration failed and the predecessor was resumed;
    /// `blackout` then includes the bounded rollback re-attach cost.
    pub rolled_back: bool,
}

/// Result of a full upgrade run.
#[derive(Debug, Clone, Default)]
pub struct UpgradeReport {
    /// Per-engine records, in migration order.
    pub engines: Vec<EngineUpgrade>,
    /// Time the whole upgrade took, first brownout to last resume.
    pub total: Nanos,
}

impl UpgradeReport {
    /// Median blackout across engines (Fig. 9's headline statistic).
    pub fn median_blackout(&self) -> Nanos {
        if self.engines.is_empty() {
            return Nanos::ZERO;
        }
        let mut blackouts: Vec<Nanos> = self.engines.iter().map(|e| e.blackout).collect();
        blackouts.sort();
        blackouts[blackouts.len() / 2]
    }

    /// Maximum blackout across engines.
    pub fn max_blackout(&self) -> Nanos {
        self.engines
            .iter()
            .map(|e| e.blackout)
            .max()
            .unwrap_or(Nanos::ZERO)
    }

    /// Number of engines that failed migration and were rolled back to
    /// their predecessor.
    pub fn rollbacks(&self) -> usize {
        self.engines.iter().filter(|e| e.rolled_back).count()
    }
}

struct UpgradeItem {
    group: GroupHandle,
    id: EngineId,
    /// Control-plane connections to transfer in brownout.
    connections: u32,
    factory: UpgradeFactory,
}

/// Orchestrates a transparent upgrade of a set of engines, one at a
/// time (§4).
#[derive(Default)]
pub struct UpgradeOrchestrator {
    items: Vec<UpgradeItem>,
}

impl UpgradeOrchestrator {
    /// Creates an empty orchestrator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an engine to migrate. `connections` is the number of
    /// control-plane connections (each costs
    /// [`snap_sim::costs::UPGRADE_PER_CONN_NS`] of brownout transfer);
    /// `factory` constructs the new-version engine from serialized
    /// state. If it fails (corrupt state, incompatible version) the
    /// predecessor engine — kept alive through the blackout — is
    /// resumed in place, bounding the extra outage to one more fixed
    /// re-attach cost.
    pub fn add_engine(
        &mut self,
        group: GroupHandle,
        id: EngineId,
        connections: u32,
        factory: UpgradeFactory,
    ) {
        self.items.push(UpgradeItem {
            group,
            id,
            connections,
            factory,
        });
    }

    /// Number of engines queued for migration.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Starts the upgrade; returns a slot the report appears in once
    /// every engine has migrated (drive the simulator to completion).
    pub fn start(self, sim: &mut Sim) -> Rc<RefCell<Option<UpgradeReport>>> {
        let result = Rc::new(RefCell::new(None));
        let started = sim.now();
        let report = UpgradeReport::default();
        let mut items = self.items;
        items.reverse(); // pop() from the front of the original order
        Self::migrate_next(sim, items, report, started, result.clone());
        result
    }

    fn migrate_next(
        sim: &mut Sim,
        mut items: Vec<UpgradeItem>,
        mut report: UpgradeReport,
        started: Nanos,
        result: Rc<RefCell<Option<UpgradeReport>>>,
    ) {
        let Some(item) = items.pop() else {
            report.total = sim.now() - started;
            *result.borrow_mut() = Some(report);
            return;
        };

        // Brownout: background transfer of control connections and
        // shared-memory handles while the engine keeps running.
        let brownout = Nanos(costs::UPGRADE_PER_CONN_NS) * item.connections as u64;
        sim.schedule_in(brownout, move |sim| {
            // Only a running engine has state to migrate and can serve
            // as its own rollback target. One that crashed, or that a
            // supervisor restart has suspended, belongs to whoever is
            // rebuilding it: the upgrade passes it by, unrecorded.
            let health = item.group.engine_health(item.id);
            if !health.is_some_and(|h| !h.crashed && !h.suspended) {
                Self::migrate_next(sim, items, report, started, result);
                return;
            }
            // Blackout begins: suspend, detach, serialize.
            let blackout_start = sim.now();
            item.group.suspend_engine(sim, item.id);
            let mut old = item
                .group
                .take_engine(item.id)
                .expect("suspended engine present");
            let name = old.name().to_string();
            let state = old.serialize_state();
            // Timing uses the engine's reported checkpoint size, which
            // synthetic engines may model without materializing (the
            // Fig. 9 cell has multi-hundred-MB engines).
            let state_bytes = old.state_bytes().max(state.len() as u64);
            // The predecessor stays alive (suspended, detached) until
            // the successor is confirmed up; it is the rollback target.

            let serialize =
                Nanos((state_bytes as f64 / costs::UPGRADE_SERIALIZE_BYTES_PER_NS) as u64);
            // Serialize + deserialize + fixed detach/attach cost.
            let blackout =
                serialize * 2 + Nanos(costs::UPGRADE_FIXED_BLACKOUT_NS);
            sim.schedule_in(blackout, move |sim| {
                // A crash flag raised on the slot during the blackout
                // window models the successor process dying mid-install.
                let successor_crashed = item
                    .group
                    .engine_health(item.id)
                    .map(|h| h.crashed)
                    .unwrap_or(false);
                let outcome = if successor_crashed {
                    Err(UpgradeError::SuccessorCrashed)
                } else {
                    (item.factory)(state, sim)
                };
                match outcome {
                    Ok(new_engine) => {
                        drop(old);
                        item.group.resume_engine(sim, item.id, new_engine);
                        report.engines.push(EngineUpgrade {
                            engine: name,
                            state_bytes,
                            brownout,
                            blackout: sim.now() - blackout_start,
                            rolled_back: false,
                        });
                        Self::migrate_next(sim, items, report, started, result);
                    }
                    Err(_err) => {
                        // Roll back: pay one more fixed re-attach cost,
                        // then resume the still-live predecessor. Its
                        // `attach` hook re-installs NIC filters; flows
                        // recover the blackout loss via SACK/RTO as in
                        // a successful upgrade.
                        sim.schedule_in(
                            Nanos(costs::UPGRADE_FIXED_BLACKOUT_NS),
                            move |sim| {
                                item.group.resume_engine(sim, item.id, old);
                                report.engines.push(EngineUpgrade {
                                    engine: name,
                                    state_bytes,
                                    brownout,
                                    blackout: sim.now() - blackout_start,
                                    rolled_back: true,
                                });
                                Self::migrate_next(sim, items, report, started, result);
                            },
                        );
                    }
                }
            });
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::CountingEngine;
    use crate::group::{GroupConfig, MachineHandle, SchedulingMode};
    use snap_shm::account::CpuAccountant;
    use snap_sched::machine::Machine;

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

    #[test]
    fn single_engine_upgrade_preserves_state() {
        let mut sim = Sim::new();
        let g = group();
        let id = g.add_engine(Box::new(CountingEngine::new("pony0", Nanos(100))));
        g.start(&mut sim);
        // Process some work pre-upgrade so the state is non-trivial.
        g.with_engine(id, |e| {
            let e = e.as_any().downcast_mut::<CountingEngine>().unwrap();
            for _ in 0..3 {
                e.inject(Nanos::ZERO);
            }
        });
        g.wake(&mut sim, id);
        sim.run();

        let mut orch = UpgradeOrchestrator::new();
        orch.add_engine(
            g.clone(),
            id,
            4,
            Box::new(|state, _sim| {
                // "New version" restores the processed counter.
                let restored = u64::from_le_bytes(state.try_into().unwrap());
                let mut e = CountingEngine::new("pony0-v2", Nanos(100));
                e.processed = restored;
                Ok(Box::new(e))
            }),
        );
        assert_eq!(orch.len(), 1);
        let result = orch.start(&mut sim);
        sim.run();
        let report = result.borrow().clone().expect("upgrade finished");
        assert_eq!(report.engines.len(), 1);
        assert_eq!(report.engines[0].state_bytes, 8);
        assert!(report.engines[0].blackout >= Nanos(costs::UPGRADE_FIXED_BLACKOUT_NS));
        // State survived into the new version.
        let processed = g.with_engine(id, |e| {
            e.as_any()
                .downcast_mut::<CountingEngine>()
                .unwrap()
                .processed
        });
        assert_eq!(processed, 3);
        assert_eq!(
            g.with_engine(id, |e| e.name().to_string()),
            "pony0-v2"
        );
    }

    #[test]
    fn engines_migrate_one_at_a_time() {
        let mut sim = Sim::new();
        let g = group();
        let ids: Vec<EngineId> = (0..3)
            .map(|i| g.add_engine(Box::new(CountingEngine::new(format!("e{i}"), Nanos(10)))))
            .collect();
        g.start(&mut sim);
        let mut orch = UpgradeOrchestrator::new();
        for id in &ids {
            orch.add_engine(
                g.clone(),
                *id,
                1,
                Box::new(|_, _| Ok(Box::new(CountingEngine::new("v2", Nanos(10))))),
            );
        }
        let result = orch.start(&mut sim);
        sim.run();
        let report = result.borrow().clone().unwrap();
        assert_eq!(report.engines.len(), 3);
        assert_eq!(report.engines[0].engine, "e0");
        assert_eq!(report.engines[2].engine, "e2");
        // Sequential migration: total >= sum of per-engine blackouts.
        let sum: Nanos = report.engines.iter().map(|e| e.blackout).sum();
        assert!(report.total >= sum);
        assert!(report.median_blackout() >= Nanos(costs::UPGRADE_FIXED_BLACKOUT_NS));
        assert!(report.max_blackout() >= report.median_blackout());
    }

    #[test]
    fn blackout_scales_with_state_size() {
        let mut sim = Sim::new();
        let g = group();

        struct FatEngine {
            bytes: usize,
        }
        impl Engine for FatEngine {
            fn name(&self) -> &str {
                "fat"
            }
            fn run(&mut self, _: &mut Sim) -> crate::engine::RunReport {
                crate::engine::RunReport::idle(Nanos(100))
            }
            fn pending_work(&self) -> usize {
                0
            }
            fn oldest_pending_age(&self, _: Nanos) -> Nanos {
                Nanos::ZERO
            }
            fn serialize_state(&mut self) -> Vec<u8> {
                vec![0u8; self.bytes]
            }
            fn detach(&mut self, _: &mut Sim) {}
            fn as_any(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }

        let small = g.add_engine(Box::new(FatEngine { bytes: 1_000 }));
        let large = g.add_engine(Box::new(FatEngine { bytes: 100_000_000 }));
        g.start(&mut sim);
        let mut orch = UpgradeOrchestrator::new();
        for id in [small, large] {
            orch.add_engine(
                g.clone(),
                id,
                0,
                Box::new(|state, _| Ok(Box::new(FatEngine { bytes: state.len() }))),
            );
        }
        let result = orch.start(&mut sim);
        sim.run();
        let report = result.borrow().clone().unwrap();
        let b_small = report.engines[0].blackout;
        let b_large = report.engines[1].blackout;
        assert!(
            b_large > b_small * 3,
            "100MB blackout {b_large} should dwarf 1KB blackout {b_small}"
        );
        // 100 MB at 1.5 GB/s, twice, plus 25 ms fixed: ~158 ms. The
        // paper's 200 ms goal holds for engines of this size.
        assert!(b_large < Nanos::from_millis(250), "blackout {b_large}");
    }

    #[test]
    fn failed_factory_rolls_back_to_predecessor() {
        let mut sim = Sim::new();
        let g = group();
        let id = g.add_engine(Box::new(CountingEngine::new("pony0", Nanos(100))));
        g.start(&mut sim);
        g.with_engine(id, |e| {
            let e = e.as_any().downcast_mut::<CountingEngine>().unwrap();
            for _ in 0..5 {
                e.inject(Nanos::ZERO);
            }
        });
        g.wake(&mut sim, id);
        sim.run();

        let mut orch = UpgradeOrchestrator::new();
        orch.add_engine(
            g.clone(),
            id,
            2,
            Box::new(|_state, _sim| {
                Err(UpgradeError::BadState("version skew".into()))
            }),
        );
        let result = orch.start(&mut sim);
        sim.run();
        let report = result.borrow().clone().expect("upgrade finished");
        assert_eq!(report.rollbacks(), 1);
        assert!(report.engines[0].rolled_back);
        // The predecessor came back with its state intact and keeps
        // processing work.
        assert_eq!(g.with_engine(id, |e| e.name().to_string()), "pony0");
        g.with_engine(id, |e| {
            let e = e.as_any().downcast_mut::<CountingEngine>().unwrap();
            assert_eq!(e.processed, 5);
            e.inject(Nanos::ZERO);
        });
        g.wake(&mut sim, id);
        sim.run();
        let processed = g.with_engine(id, |e| {
            e.as_any().downcast_mut::<CountingEngine>().unwrap().processed
        });
        assert_eq!(processed, 6);
        // Rollback blackout is bounded: one extra fixed re-attach on
        // top of the normal serialize + fixed cost.
        assert!(
            report.engines[0].blackout
                <= Nanos(costs::UPGRADE_FIXED_BLACKOUT_NS) * 2 + Nanos::from_millis(1),
            "rollback blackout {} not bounded",
            report.engines[0].blackout
        );
    }

    #[test]
    fn successor_crash_during_blackout_rolls_back() {
        let mut sim = Sim::new();
        let g = group();
        let id = g.add_engine(Box::new(CountingEngine::new("pony0", Nanos(100))));
        g.start(&mut sim);
        g.with_engine(id, |e| {
            let e = e.as_any().downcast_mut::<CountingEngine>().unwrap();
            for _ in 0..3 {
                e.inject(Nanos::ZERO);
            }
        });
        g.wake(&mut sim, id);
        sim.run();

        let mut orch = UpgradeOrchestrator::new();
        orch.add_engine(
            g.clone(),
            id,
            0, // no brownout: blackout starts at t=now
            Box::new(|state, _sim| {
                let restored = u64::from_le_bytes(state.try_into().unwrap());
                let mut e = CountingEngine::new("pony0-v2", Nanos(100));
                e.processed = restored;
                Ok(Box::new(e))
            }),
        );
        let result = orch.start(&mut sim);
        // Inject a successor crash mid-blackout (blackout is at least
        // the fixed 25 ms cost; 1 ms in is safely inside the window).
        let g2 = g.clone();
        sim.schedule_in(Nanos::from_millis(1), move |_sim| {
            g2.kill_engine(id);
        });
        sim.run();
        let report = result.borrow().clone().expect("upgrade finished");
        assert_eq!(report.rollbacks(), 1);
        assert!(report.engines[0].rolled_back);
        // Predecessor is back: not crashed, original name and state.
        let health = g.engine_health(id).expect("slot live");
        assert!(!health.crashed);
        assert_eq!(g.with_engine(id, |e| e.name().to_string()), "pony0");
        assert_eq!(
            g.with_engine(id, |e| {
                e.as_any().downcast_mut::<CountingEngine>().unwrap().processed
            }),
            3
        );
    }

    #[test]
    fn crashed_engine_is_passed_over_and_left_to_the_supervisor() {
        let mut sim = Sim::new();
        let g = group();
        let dead = g.add_engine(Box::new(CountingEngine::new("dead", Nanos(100))));
        let live = g.add_engine(Box::new(CountingEngine::new("live", Nanos(100))));
        g.start(&mut sim);
        g.kill_engine(dead);
        let mut orch = UpgradeOrchestrator::new();
        for id in [dead, live] {
            orch.add_engine(
                g.clone(),
                id,
                1,
                Box::new(|_, _| Ok(Box::new(CountingEngine::new("v2", Nanos(100))))),
            );
        }
        let result = orch.start(&mut sim);
        sim.run();
        let report = result.borrow().clone().expect("upgrade finished");
        // No state to migrate, no predecessor to roll back to: the slot
        // is neither suspended nor filled, so a supervisor still sees
        // the crash.
        let health = g.engine_health(dead).expect("slot kept");
        assert!(health.crashed && !health.suspended);
        assert_eq!(report.engines.len(), 1);
        assert_eq!(report.engines[0].engine, "live");
        assert_eq!(g.with_engine(live, |e| e.name().to_string()), "v2");
    }

    #[test]
    fn empty_orchestrator_completes_immediately() {
        let mut sim = Sim::new();
        let orch = UpgradeOrchestrator::new();
        assert!(orch.is_empty());
        let result = orch.start(&mut sim);
        sim.run();
        let report = result.borrow().clone().unwrap();
        assert!(report.engines.is_empty());
        assert_eq!(report.median_blackout(), Nanos::ZERO);
    }
}
