//! Per-core / per-engine CPU attribution publisher.
//!
//! The paper's efficiency results (Table 1, Fig. 5) hinge on knowing
//! *where CPU went*: which core, which engine, and whether it was
//! useful engine work, spin-polling, or wakeup overhead. The engine
//! group keeps the ground truth — every nanosecond in
//! [`snap_core::group::GroupCpu`] is simultaneously charged to exactly
//! one core ([`GroupHandle::core_cpu`]) and engine passes to exactly
//! one engine ([`GroupHandle::engine_cpu`]) — and this sampler turns it
//! into cumulative registry counters the flight recorder converts to
//! rates:
//!
//! * `cpu.<host>.core<c>.busy_ns` — engine-pass CPU on that core
//! * `cpu.<host>.core<c>.spin_ns` — spin-polling (idle spin + poll-waits)
//! * `cpu.<host>.core<c>.wake_ns` — interrupt + context-switch overhead
//! * `cpu.<host>.core<c>.idle_ns` — elapsed minus the three above
//! * `cpu.<host>.core<c>.machine_busy_ns` — the machine model's view
//!   of the core (includes non-group work, e.g. antagonists)
//! * `cpu.<host>.engine.e<id>.busy_ns` — engine-pass CPU per engine
//! * `cpu.<host>.throttled_ns` — CPU the MicroQuanta budgets deferred
//!
//! Publishing is a pure read of group/machine state into the obs
//! registry: attaching a sampler never changes modeled time. Counters
//! are published as saturating deltas against their own last registry
//! value, so they stay monotone even while a core's busy ledger runs
//! briefly ahead of virtual time (slices are charged at request time).

use snap_core::group::GroupHandle;
use snap_core::group::MachineHandle;
use snap_sim::Nanos;
use snap_telemetry::{Counter, Registry};

/// Cached counter handles for one core's five series. Built on first
/// publish so the per-tick path is pure `Cell` arithmetic — no string
/// formatting, no registry lookups.
struct CoreCounters {
    busy: Counter,
    spin: Counter,
    wake: Counter,
    idle: Counter,
    machine_busy: Counter,
}

struct HostWatch {
    label: String,
    group: GroupHandle,
    machine: MachineHandle,
    cores: Vec<CoreCounters>,
    engines: Vec<Counter>,
    throttled: Counter,
}

/// Publishes per-core/per-engine CPU attribution into a registry. One
/// sampler serves a whole testbed; register it as a flight-recorder
/// pre-sample hook so every tick carries fresh CPU series.
pub struct CpuSampler {
    registry: Registry,
    hosts: Vec<HostWatch>,
}

impl CpuSampler {
    /// Creates a sampler publishing into `registry`.
    pub fn new(registry: Registry) -> Self {
        CpuSampler {
            registry,
            hosts: Vec::new(),
        }
    }

    /// Watches one host's engine group and machine; series land under
    /// `cpu.<label>.*`.
    pub fn watch_host(&mut self, label: &str, group: GroupHandle, machine: MachineHandle) {
        let throttled = self.registry.counter(&format!("cpu.{label}.throttled_ns"));
        self.hosts.push(HostWatch {
            label: label.to_string(),
            group,
            machine,
            cores: Vec::new(),
            engines: Vec::new(),
            throttled,
        });
    }

    /// Number of watched hosts.
    pub fn num_hosts(&self) -> usize {
        self.hosts.len()
    }

    /// One publish pass at virtual time `now`.
    pub fn publish(&mut self, now: Nanos) {
        let registry = self.registry.clone();
        for host in &mut self.hosts {
            let per_core = host.group.core_cpu(now);
            let machine = host.machine.borrow();
            let num_cores = machine.num_cores();
            while host.cores.len() < num_cores {
                let scope = format!("cpu.{}.core{}", host.label, host.cores.len());
                host.cores.push(CoreCounters {
                    busy: registry.counter(&format!("{scope}.busy_ns")),
                    spin: registry.counter(&format!("{scope}.spin_ns")),
                    wake: registry.counter(&format!("{scope}.wake_ns")),
                    idle: registry.counter(&format!("{scope}.idle_ns")),
                    machine_busy: registry.counter(&format!("{scope}.machine_busy_ns")),
                });
            }
            for (core, counters) in host.cores.iter().enumerate() {
                // One row per core, in core order.
                let split = per_core.get(core).map(|(_, v)| *v).unwrap_or_default();
                counters.busy.raise_to(split.busy.as_nanos());
                counters.spin.raise_to(split.spin.as_nanos());
                counters.wake.raise_to(split.wake_overhead.as_nanos());
                counters
                    .idle
                    .raise_to(now.as_nanos().saturating_sub(split.total().as_nanos()));
                counters
                    .machine_busy
                    .raise_to(machine.core_busy_total(core).as_nanos());
            }
            drop(machine);
            let engine_cpu = host.group.engine_cpu();
            while host.engines.len() < engine_cpu.len() {
                let (id, _) = engine_cpu[host.engines.len()];
                host.engines.push(registry.counter(&format!(
                    "cpu.{}.engine.e{}.busy_ns",
                    host.label, id.0
                )));
            }
            for ((_, busy), counter) in engine_cpu.iter().zip(&host.engines) {
                counter.raise_to(busy.as_nanos());
            }
            host.throttled
                .raise_to(host.group.throttled_total().as_nanos());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_core::engine::CountingEngine;
    use snap_core::group::{GroupConfig, SchedulingMode};
    use snap_sched::machine::Machine;
    use snap_shm::account::CpuAccountant;
    use snap_sim::Sim;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn published_core_series_sum_to_group_total() {
        let mut sim = Sim::new();
        let machine: MachineHandle = Rc::new(RefCell::new(Machine::new(4, 1)));
        let group = GroupHandle::new(
            GroupConfig {
                name: "obs-test".into(),
                mode: SchedulingMode::Spreading,
                class: None,
            },
            machine.clone(),
            CpuAccountant::new(),
        );
        let id = group.add_engine(Box::new(CountingEngine::new("e0", Nanos(500))));
        group.start(&mut sim);
        group.with_engine(id, |e| {
            let e = e
                .as_any()
                .downcast_mut::<CountingEngine>()
                .expect("counting engine");
            for _ in 0..20 {
                e.inject(Nanos::ZERO);
            }
        });
        group.wake(&mut sim, id);
        sim.run();
        let now = sim.now();

        let registry = Registry::new();
        let mut sampler = CpuSampler::new(registry.clone());
        sampler.watch_host("h0", group.clone(), machine);
        sampler.publish(now);
        // Publishing twice must not double-count (saturating deltas).
        sampler.publish(now);

        let total = group.cpu(now);
        let snap = registry.snapshot(now);
        let mut sum = 0u64;
        let mut engine_sum = 0u64;
        for name in snap.names_under("cpu.h0.core") {
            if name.ends_with(".busy_ns") || name.ends_with(".spin_ns") || name.ends_with(".wake_ns")
            {
                sum += snap.counter(name).unwrap_or(0);
            }
        }
        for name in snap.names_under("cpu.h0.engine.") {
            engine_sum += snap.counter(name).unwrap_or(0);
        }
        assert_eq!(sum, total.total().as_nanos(), "core split sums to total");
        assert_eq!(engine_sum, total.engine.as_nanos());
        assert!(
            snap.counter("cpu.h0.core0.idle_ns").is_some(),
            "idle published for every core"
        );
        assert_eq!(snap.counter("cpu.h0.throttled_ns"), Some(0));
    }
}
