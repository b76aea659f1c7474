//! [`StatsModule`]: the control-plane stats exporter.
//!
//! Snap's dashboards are fed by a control-plane component that walks
//! engines and devices on a period and publishes machine-level
//! counters; this module reproduces that shape. It keeps a
//! [`Registry`] and one list of *sources*: each `watch_*` call pushes
//! one, which owns whatever it keeps between polls, and
//! [`StatsModule::poll_once`] runs every source in watch order.
//!
//! * **Engines** are sampled through their *mailboxes* — the same
//!   depth-1 control channel every other module uses — so a sample is
//!   always a coherent view taken between engine passes, never a torn
//!   read of a running engine. Polling is *ingest-then-request*: each
//!   poll first ingests whatever sample the previously-posted mailbox
//!   closure deposited, then posts a new request. A `Busy` or
//!   `Unavailable` mailbox (engine crashed, mid-upgrade) just skips a
//!   poll.
//! * Engine counters are folded in as **reset-aware deltas**: the
//!   watched counter going *backwards* means the engine restarted (or
//!   was replaced by an upgrade) and reset to zero, so the new absolute
//!   value *is* the delta. Machine-level counters therefore never
//!   double-count and never lose ops across a crash+restart or a live
//!   upgrade.
//! * **Fabric** link/host/total counters, **supervisor** restart
//!   records (blackout histograms), a pending **upgrade report** slot,
//!   **admission** state and an engine **group**'s scheduling delays and
//!   per-core CPU ledger are read directly — they live on the control
//!   plane already.
//!
//! The datapath is untouched: engines keep their plain `u64` counters
//! and all cost is concentrated here, in the periodic poll — driven by
//! [`StatsModule::start`], or by a flight recorder's own clock.

// Control-plane code must degrade into typed errors, never panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use snap_core::group::{GroupHandle, MachineHandle, MailboxWork};
use snap_core::module::{ControlCx, ControlError, Module};
use snap_core::supervisor::{RestartKind, Supervisor};
use snap_core::upgrade::UpgradeReport;
use snap_core::{Engine, EngineId};
use snap_isolation::AdmissionController;
use snap_nic::fabric::FabricHandle;
use snap_nic::{HostId, QosClass};
use snap_pony::engine::PonyStats;
use snap_pony::PonyEngine;
use snap_sim::event::Ticker;
use snap_sim::stats::Histogram;
use snap_sim::{Nanos, Sim};

use crate::export::Snapshot;
use crate::registry::{Counter, Registry, ScopedRegistry};

/// Stats-export tuning.
#[derive(Debug, Clone, Copy)]
pub struct StatsConfig {
    /// How often [`StatsModule::start`]'s loop polls the sources.
    pub poll_period: Nanos,
}

impl Default for StatsConfig {
    fn default() -> Self {
        StatsConfig {
            poll_period: Nanos::from_micros(1000),
        }
    }
}

/// What a source reads and writes on one poll.
struct Cx<'a> {
    sim: &'a mut Sim,
    registry: &'a Registry,
    /// Every watched engine's label, for supervisor records that name
    /// an engine by id only.
    engine_labels: &'a BTreeMap<EngineId, String>,
}

/// One watched thing, with its state between polls.
type Source = Box<dyn FnMut(&mut Cx<'_>)>;

#[derive(Default)]
struct Inner {
    sources: Vec<Source>,
    engine_labels: BTreeMap<EngineId, String>,
}

/// The stats-export control-plane module. Cloning shares state; see
/// the [module docs](self) for the polling and delta discipline.
#[derive(Clone)]
pub struct StatsModule {
    cfg: StatsConfig,
    registry: Registry,
    clock: Ticker,
    inner: Rc<RefCell<Inner>>,
}

/// What one mailbox round-trip brings back from a Pony engine.
struct EngineSample {
    stats: PonyStats,
    depths: Vec<(u64, usize)>,
}

impl StatsModule {
    /// Creates a stats module with its own empty registry.
    pub fn new(cfg: StatsConfig) -> Self {
        StatsModule {
            cfg,
            registry: Registry::new(),
            clock: Ticker::default(),
            inner: Rc::default(),
        }
    }

    /// The backing registry (for ad-hoc app metrics).
    pub fn registry(&self) -> Registry {
        self.registry.clone()
    }

    fn push(&self, source: impl FnMut(&mut Cx<'_>) + 'static) {
        self.inner.borrow_mut().sources.push(Box::new(source));
    }

    /// Watches a Pony engine: its op counters land under
    /// `engine.<label>.*` and its per-session command-queue depths
    /// under `shm.<label>.s<sid>.cmd_depth`.
    pub fn watch_engine(&self, label: &str, group: GroupHandle, id: EngineId) {
        self.inner
            .borrow_mut()
            .engine_labels
            .insert(id, label.to_string());
        let engine = self.registry.scoped(&format!("engine.{label}"));
        let shm = self.registry.scoped(&format!("shm.{label}"));
        // Filled by the mailbox closure, drained on the next poll.
        let slot: Rc<RefCell<Option<EngineSample>>> = Rc::default();
        let mut last = PonyStats::default();
        // Sessions with a published depth gauge (zeroed when gone).
        let mut known_sessions: Vec<u64> = Vec::new();
        self.push(move |cx| {
            let sample = slot.borrow_mut().take();
            if let Some(sample) = sample {
                let counters = sample.stats.counters().into_iter();
                for ((name, now), (_, then)) in counters.zip(last.counters()) {
                    engine.counter(name).add(delta(now, then));
                }
                last = sample.stats;
                for (sid, depth) in &sample.depths {
                    shm.gauge(&format!("s{sid}.cmd_depth"))
                        .set(as_gauge(*depth as u64));
                }
                // A closed session leaves no stale depth on the dashboard.
                for sid in &known_sessions {
                    if !sample.depths.iter().any(|(s, _)| s == sid) {
                        shm.gauge(&format!("s{sid}.cmd_depth")).set(0);
                    }
                }
                known_sessions = sample.depths.iter().map(|(s, _)| *s).collect();
            }
            let slot = slot.clone();
            let work: MailboxWork = Box::new(move |e: &mut dyn Engine| {
                if let Some(p) = e.as_any().downcast_mut::<PonyEngine>() {
                    *slot.borrow_mut() = Some(EngineSample {
                        stats: p.stats().clone(),
                        depths: p.session_depths(),
                    });
                }
            });
            // Busy (previous request still pending) or Unavailable
            // (crashed / mid-upgrade) just means this poll goes without
            // a sample.
            let _ = group.post_to_engine(cx.sim, id, work);
        });
    }

    /// Watches a fabric: totals under `fabric.*`, per-destination-host
    /// drop reasons under `fabric.host<h>.drops.*`, per-directed-link
    /// traffic/drops/utilization under `fabric.link.<a>-><b>.*`.
    pub fn watch_fabric(&self, fabric: FabricHandle) {
        let mut last_at: Option<Nanos> = None;
        self.push(move |cx| {
            let now = cx.sim.now();
            let window = last_at.map_or(0, |t| now.as_nanos().saturating_sub(t.as_nanos()));
            publish_fabric(cx.registry, &fabric, window);
            last_at = Some(now);
        });
    }

    /// Watches a supervisor: completed restarts become
    /// `engine.<label>.restarts.{crash,wedge,quarantine}` counters and an
    /// `engine.<label>.blackout` histogram. `labels` maps the
    /// supervisor's engine ids to telemetry labels; unlisted ids fall
    /// back to a watched engine's label, then to `engine<id>`.
    pub fn watch_supervisor(&self, sup: Supervisor, labels: &[(EngineId, String)]) {
        let labels: BTreeMap<EngineId, String> = labels.iter().cloned().collect();
        // Restart-log indices already folded in (records complete out
        // of order: `resumed` is stamped after the blackout ends).
        let mut ingested: Vec<bool> = Vec::new();
        self.push(move |cx| {
            let log = sup.restart_log();
            ingested.resize(log.len().max(ingested.len()), false);
            for (rec, done) in log.iter().zip(&mut ingested) {
                // Only a completed restart has a blackout to report; a
                // record still mid-restart stays pending for a later poll.
                let Some(blackout) = rec.blackout().filter(|_| !*done) else {
                    continue;
                };
                let label = labels
                    .get(&rec.id)
                    .or_else(|| cx.engine_labels.get(&rec.id))
                    .cloned()
                    .unwrap_or_else(|| format!("engine{}", rec.id.0));
                let scope = cx.registry.scoped(&format!("engine.{label}"));
                let cause = match rec.kind {
                    RestartKind::Crash => "restarts.crash",
                    RestartKind::Wedge => "restarts.wedge",
                    RestartKind::Quarantine => "restarts.quarantine",
                };
                scope.counter(cause).inc();
                scope.histogram("blackout").record_nanos(blackout);
                *done = true;
            }
        });
    }

    /// Watches an upgrade-report slot (as returned by
    /// `UpgradeOrchestrator::start`): when the report lands it is
    /// folded once into `upgrade.{blackout,brownout}` histograms and
    /// `upgrade.{engines,rollbacks}` counters.
    pub fn watch_upgrade(&self, slot: Rc<RefCell<Option<UpgradeReport>>>) {
        let mut ingested = false;
        self.push(move |cx| {
            let slot = slot.borrow();
            let Some(report) = slot.as_ref().filter(|_| !ingested) else {
                return;
            };
            let scope = cx.registry.scoped("upgrade");
            for eu in &report.engines {
                scope.histogram("blackout").record_nanos(eu.blackout);
                scope.histogram("brownout").record_nanos(eu.brownout);
                scope.counter("engines").inc();
                if eu.rolled_back {
                    scope.counter("rollbacks").inc();
                }
            }
            ingested = true;
        });
    }

    /// Watches an admission controller: per-container pressure and
    /// usage gauges under `isolation.<label>.<container>.*`, plus
    /// denial/shed counters, and label-level
    /// `isolation.<label>.{pressure_transitions,accounting_errors}`
    /// counters. Admission state is control-plane shared state (no
    /// mailbox round-trip needed), so each poll reads it directly.
    pub fn watch_admission(&self, label: &str, adm: AdmissionController) {
        let label = label.to_string();
        // Cursor into the admission controller's transition log.
        let mut next_seq = 0;
        self.push(move |cx| {
            for snap in adm.snapshot() {
                let scope = cx
                    .registry
                    .scoped(&format!("isolation.{label}.{}", snap.container));
                scope
                    .gauge("pressure")
                    .set(i64::from(snap.pressure.as_u8()));
                scope.gauge("usage_bytes").set(as_gauge(snap.usage_bytes));
                scope.counter("denials").raise_to(snap.denials);
                scope.counter("sheds").raise_to(snap.sheds);
            }
            let scope = cx.registry.scoped(&format!("isolation.{label}"));
            let (transitions, next) = adm.transitions_since(next_seq);
            if !transitions.is_empty() {
                scope
                    .counter("pressure_transitions")
                    .add(transitions.len() as u64);
            }
            next_seq = next;
            scope
                .counter("accounting_errors")
                .raise_to(adm.accounting_errors());
        });
    }

    /// Watches an engine group on its machine. Each poll folds the
    /// window's wake delays into `sched.<label>.<mode>.delay` (mode is
    /// the group's scheduling mode — `dedicated`, `spreading` or
    /// `compacting` — so Fig. 3's latency/CPU trade-off reads directly
    /// off the metric name) and publishes the group's CPU ledger under
    /// `cpu.<label>.*`: per core `busy`/`spin`/`wake` (summing exactly to
    /// the group's total), `idle` (elapsed minus those three) and
    /// `machine_busy` (the machine's view, antagonists included), per
    /// engine `busy`, and what the MicroQuanta budgets deferred.
    pub fn watch_group(&self, label: &str, group: GroupHandle, machine: MachineHandle) {
        let delay = format!("sched.{label}.{}.delay", group.mode_label());
        let mut last = Histogram::new();
        let cpu = self.registry.scoped(&format!("cpu.{label}"));
        let throttled = cpu.counter("throttled_ns");
        // Counter handles, built on first sight of a core or engine so a
        // poll formats no names.
        let mut cores: Vec<[Counter; 5]> = Vec::new();
        let mut engines: Vec<Counter> = Vec::new();
        self.push(move |cx| {
            let cur = group.sched_delay_histogram();
            let window = cur.diff(&last);
            if !window.is_empty() {
                cx.registry.histogram(&delay).merge_from(&window);
            }
            last = cur;

            // The ledger only grows: each counter is raised to its total
            // (a core's busy ledger may briefly run ahead of virtual time,
            // as slices are charged at request time).
            let now = cx.sim.now();
            let machine = machine.borrow();
            let rows = group.core_cpu(now).into_iter().zip(machine.busy_totals());
            for ((core, split), machine_busy) in rows {
                if cores.len() <= core {
                    let scope = cpu.scoped(&format!("core{core}"));
                    let names = ["busy", "spin", "wake", "idle", "machine_busy"];
                    cores.push(names.map(|name| scope.counter(&format!("{name}_ns"))));
                }
                let [busy, spin, wake, idle, on_machine] = &cores[core];
                busy.raise_to(split.busy.as_nanos());
                spin.raise_to(split.spin.as_nanos());
                wake.raise_to(split.wake_overhead.as_nanos());
                idle.raise_to(now.as_nanos().saturating_sub(split.total().as_nanos()));
                on_machine.raise_to(machine_busy.as_nanos());
            }
            for (i, (id, busy)) in group.engine_cpu().into_iter().enumerate() {
                if engines.len() <= i {
                    engines.push(cpu.counter(&format!("engine.e{}.busy_ns", id.0)));
                }
                engines[i].raise_to(busy.as_nanos());
            }
            throttled.raise_to(group.throttled_total().as_nanos());
        });
    }

    /// Starts the periodic poll loop (first poll one period from now).
    /// Idempotent while the loop is live, a restart after
    /// [`stop`](Self::stop) included: there is only ever one loop.
    pub fn start(&self, sim: &mut Sim) {
        let this = self.clone();
        self.clock
            .start(sim, self.cfg.poll_period, move |sim| this.poll_once(sim));
    }

    /// Stops the poll loop (the pending poll lapses).
    pub fn stop(&self) {
        self.clock.stop();
    }

    /// One poll pass over every source, in watch order. Driven by
    /// [`start`](Self::start) or a flight recorder, but callable
    /// directly for a final flush before reading a snapshot.
    pub fn poll_once(&self, sim: &mut Sim) {
        let mut inner = self.inner.borrow_mut();
        let Inner {
            sources,
            engine_labels,
        } = &mut *inner;
        let mut cx = Cx {
            sim,
            registry: &self.registry,
            engine_labels,
        };
        for source in sources {
            source(&mut cx);
        }
        self.registry.counter("stats.polls").inc();
    }

    /// A point-in-time snapshot of the machine-level registry.
    pub fn snapshot(&self, at: Nanos) -> Snapshot {
        self.registry.snapshot(at)
    }
}

/// Reset-aware counter delta: a counter that went backwards belonged
/// to an engine that restarted (or was replaced), so its new absolute
/// value is the whole delta.
fn delta(now: u64, last: u64) -> u64 {
    if now >= last {
        now - last
    } else {
        now
    }
}

/// Raises every counter of a table to its source's total. The fabric's
/// counters only grow, so the total is the value; a row still at zero
/// registers nothing, so a healthy fabric publishes no fault names.
fn raise_all(scope: &ScopedRegistry, counters: &[(&'static str, u64)]) {
    for &(name, total) in counters.iter().filter(|&&(_, total)| total > 0) {
        scope.counter(name).raise_to(total);
    }
}

/// A count as a gauge reading, saturating.
fn as_gauge(v: u64) -> i64 {
    i64::try_from(v).unwrap_or(i64::MAX)
}

/// Publishes each of the fabric's `counters()` tables under its scope;
/// a link's utilization is the growth of its byte counter over the
/// `window` (ns) since the last poll, an egress port's queue depth a
/// plain gauge.
fn publish_fabric(registry: &Registry, fabric: &FabricHandle, window: u64) {
    raise_all(&registry.scoped("fabric"), &fabric.stats().counters());
    for h in 0..fabric.num_hosts() as HostId {
        let scope = registry.scoped(&format!("fabric.host{h}.drops"));
        raise_all(&scope, &fabric.drop_reasons(h).counters());
    }

    // A link's utilization against `gbps` (bits per nanosecond, so
    // utilization is bits / (rate * window)), from what its published
    // byte counter has yet to see. Runs before the fold raises it.
    let publish_util = |scope: &ScopedRegistry, bytes: u64, gbps: f64| {
        if bytes > 0 && window > 0 && gbps > 0.0 {
            let d_bytes = bytes.saturating_sub(scope.counter("bytes").get());
            let pct = (d_bytes as f64 * 8.0) / (gbps * window as f64) * 100.0;
            scope.gauge("util_pct").set(pct.round() as i64);
        }
    };
    for ((from, to), link) in fabric.links() {
        let scope = registry.scoped(&format!("fabric.link.{from}->{to}"));
        publish_util(&scope, link.bytes, fabric.host_gbps(from).unwrap_or(0.0));
        raise_all(&scope, &link.counters());
    }

    // Trunk links (multi-rack topologies only; the degenerate 1-rack
    // fabric has none). Utilization is against the trunk line rate,
    // not the host NIC rate.
    let trunk_gbps = fabric.topology().spec().trunk_gbps;
    for ((from, to), trunk) in fabric.trunks() {
        let scope = registry.scoped(&format!("fabric.trunk.{from}->{to}"));
        publish_util(&scope, trunk.bytes, trunk_gbps);
        raise_all(&scope, &trunk.counters());
    }

    // Bytes standing in each egress buffer that has ever held one.
    let (host_queues, trunk_queues) = fabric.egress_queues();
    for (h, queued) in host_queues {
        let name = format!("fabric.host{h}.egress.queue_bytes");
        registry.gauge(&name).set(as_gauge(queued));
    }
    for ((from, to), queued) in trunk_queues {
        let name = format!("fabric.trunk.{from}->{to}.queue_bytes");
        registry.gauge(&name).set(as_gauge(queued));
    }

    // Per-switch, per-priority egress drop attribution (sums to the
    // rack-wide `fabric.switch_drops`).
    for ((sw, qos), total) in fabric.switch_drop_breakdown() {
        let class = match qos {
            QosClass::Transport => "transport",
            QosClass::BestEffort => "best_effort",
        };
        registry
            .scoped(&format!("fabric.switch.{sw}.drops"))
            .counter(class)
            .raise_to(total);
    }
}

impl Module for StatsModule {
    fn name(&self) -> &str {
        "stats"
    }

    fn handle(
        &mut self,
        method: &str,
        _payload: &[u8],
        cx: &mut ControlCx<'_>,
    ) -> Result<Vec<u8>, ControlError> {
        match method {
            // Force a poll pass (e.g. right before reading stats).
            "poll" => {
                self.poll_once(cx.sim);
                Ok(Vec::new())
            }
            "snapshot" => Ok(self.snapshot(cx.sim.now()).to_json().into_bytes()),
            "table" => Ok(self.snapshot(cx.sim.now()).to_table().into_bytes()),
            other => Err(ControlError::UnknownMethod(other.to_string())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_is_reset_aware() {
        assert_eq!(delta(10, 4), 6);
        assert_eq!(delta(4, 4), 0);
        // Counter went backwards: the engine restarted; its new value
        // is the whole delta.
        assert_eq!(delta(3, 100), 3);
    }

    /// The doc cannot list five counters while the code publishes
    /// eleven: each `counters()` table — the Pony engine's and the
    /// fabric's four — is one row of the metric-naming table in
    /// `lib.rs`, name for name.
    #[test]
    fn naming_table_lists_every_engine_and_fabric_counter() {
        use snap_nic::fabric::{DropReasons, FabricStats, LinkStats, TrunkStats};
        let doc = include_str!("lib.rs");
        let tables: [(&str, &[(&str, u64)]); 5] = [
            ("engine.<label>", &PonyStats::default().counters()),
            ("fabric", &FabricStats::default().counters()),
            ("fabric.host<h>.drops", &DropReasons::default().counters()),
            ("fabric.link.<a>-><b>", &LinkStats::default().counters()),
            ("fabric.trunk.<a>-><b>", &TrunkStats::default().counters()),
        ];
        for (scope, counters) in tables {
            let names: Vec<&str> = counters.iter().map(|&(name, _)| name).collect();
            let row = format!("//! | `{scope}.{{{}}}` |", names.join(","));
            assert!(doc.contains(&row), "lib.rs naming table lacks {row}");
        }
    }

    #[test]
    fn upgrade_report_is_folded_once() {
        let stats = StatsModule::new(StatsConfig::default());
        let slot = Rc::new(RefCell::new(None));
        stats.watch_upgrade(slot.clone());
        let mut sim = Sim::new();
        stats.poll_once(&mut sim);
        let snap = stats.snapshot(Nanos(1));
        assert_eq!(snap.counter("upgrade.engines"), None, "no report yet");
        let mut report = UpgradeReport::default();
        report.engines.push(snap_core::upgrade::EngineUpgrade {
            engine: "svc".to_string(),
            state_bytes: 128,
            brownout: Nanos::from_micros(50),
            blackout: Nanos::from_micros(200),
            rolled_back: false,
        });
        *slot.borrow_mut() = Some(report);
        stats.poll_once(&mut sim);
        stats.poll_once(&mut sim);
        let snap = stats.snapshot(Nanos(1));
        let engines = snap.counter("upgrade.engines");
        assert_eq!(engines, Some(1), "folded exactly once");
        assert_eq!(
            snap.histogram("upgrade.blackout").map(|h| h.count()),
            Some(1)
        );
        assert_eq!(snap.counter("upgrade.rollbacks"), None);
    }

    #[test]
    fn published_core_series_sum_to_group_total() {
        use snap_core::engine::CountingEngine;
        use snap_core::group::{GroupConfig, SchedulingMode};
        use snap_sched::machine::Machine;
        use snap_shm::account::CpuAccountant;

        let mut sim = Sim::new();
        let machine: MachineHandle = Rc::new(RefCell::new(Machine::new(4, 1)));
        let group = GroupHandle::new(
            GroupConfig {
                name: "stats-test".into(),
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

        let stats = StatsModule::new(StatsConfig::default());
        stats.watch_group("h0", group.clone(), machine);
        stats.poll_once(&mut sim);
        // Polling twice must not double-count (counters are raised to
        // the ledger's totals).
        stats.poll_once(&mut sim);

        let total = group.cpu(now);
        let snap = stats.snapshot(now);
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
