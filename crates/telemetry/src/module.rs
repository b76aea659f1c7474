//! [`StatsModule`]: the control-plane stats exporter.
//!
//! Snap's dashboards are fed by a control-plane component that walks
//! engines and devices on a period and publishes machine-level
//! counters; this module reproduces that shape. It keeps a
//! [`Registry`] and a list of watch targets:
//!
//! * **Engines** are sampled through their *mailboxes* — the same
//!   depth-1 control channel every other module uses — so a sample is
//!   always a coherent view taken between engine passes, never a torn
//!   read of a running engine. Polling is *ingest-then-request*: each
//!   tick first ingests whatever sample the previously-posted mailbox
//!   closure deposited, then posts a new request. A `Busy` or
//!   `Unavailable` mailbox (engine crashed, mid-upgrade) just skips a
//!   tick.
//! * Engine counters are folded in as **reset-aware deltas**: the
//!   watched counter going *backwards* means the engine restarted (or
//!   was replaced by an upgrade) and reset to zero, so the new absolute
//!   value *is* the delta. Machine-level counters therefore never
//!   double-count and never lose ops across a crash+restart or a live
//!   upgrade.
//! * **Fabric** link/host/total counters, **supervisor** restart
//!   records (blackout histograms), and a pending **upgrade report**
//!   slot are read directly — they live on the control plane already.
//!
//! The datapath is untouched: engines keep their plain `u64` counters
//! and all cost is concentrated here, in the periodic poll.

// Control-plane code must degrade into typed errors, never panic.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use snap_core::group::{GroupHandle, MailboxWork};
use snap_core::module::{ControlCx, ControlError, Module};
use snap_core::supervisor::{RestartKind, Supervisor};
use snap_core::upgrade::UpgradeReport;
use snap_core::{Engine, EngineId};
use snap_health::{HealthMonitor, Target, Verdict};
use snap_isolation::AdmissionController;
use snap_nic::fabric::FabricHandle;
use snap_nic::{HostId, QosClass};
use snap_pony::engine::PonyStats;
use snap_pony::PonyEngine;
use snap_sim::{event, Nanos, Sim};

use snap_sim::stats::Histogram;

use crate::export::Snapshot;
use crate::registry::{Registry, ScopedRegistry};

/// Stats-export tuning.
#[derive(Debug, Clone, Copy)]
pub struct StatsConfig {
    /// How often the module polls its watch targets.
    pub poll_period: Nanos,
}

impl Default for StatsConfig {
    fn default() -> Self {
        StatsConfig {
            poll_period: Nanos::from_micros(1000),
        }
    }
}

/// What one mailbox round-trip brings back from a Pony engine.
struct EngineSample {
    stats: PonyStats,
    depths: Vec<(u64, usize)>,
}

struct EngineWatch {
    label: String,
    group: GroupHandle,
    id: EngineId,
    /// Filled by the mailbox closure, drained on the next tick.
    slot: Rc<RefCell<Option<EngineSample>>>,
    /// Last absolute counters seen, for reset-aware deltas.
    last: PonyStats,
    /// Sessions we have published a depth gauge for (zeroed when gone).
    known_sessions: Vec<u64>,
}

struct FabricWatch {
    fabric: FabricHandle,
    last_at: Option<Nanos>,
}

struct SupervisorWatch {
    sup: Supervisor,
    labels: BTreeMap<EngineId, String>,
    /// Restart-log indices already folded in (records complete out of
    /// order: `resumed` is stamped after the blackout ends).
    ingested: Vec<bool>,
}

struct UpgradeWatch {
    slot: Rc<RefCell<Option<UpgradeReport>>>,
    ingested: bool,
}

struct AdmissionWatch {
    label: String,
    adm: AdmissionController,
    /// Cursor into the admission controller's transition log.
    next_seq: u64,
}

struct GroupWatch {
    label: String,
    group: GroupHandle,
    /// Last cumulative scheduling-delay histogram, for interval diffs.
    last: Histogram,
}

struct HealthWatch {
    label: String,
    monitor: Rc<RefCell<HealthMonitor>>,
}

struct Inner {
    cfg: StatsConfig,
    engines: Vec<EngineWatch>,
    /// Every watched engine's label, for supervisor records that name
    /// an engine by id only.
    engine_labels: BTreeMap<EngineId, String>,
    fabrics: Vec<FabricWatch>,
    supervisors: Vec<SupervisorWatch>,
    upgrades: Vec<UpgradeWatch>,
    admissions: Vec<AdmissionWatch>,
    groups: Vec<GroupWatch>,
    healths: Vec<HealthWatch>,
    running: bool,
}

/// The stats-export control-plane module. Cloning shares state; see
/// the [module docs](self) for the polling and delta discipline.
#[derive(Clone)]
pub struct StatsModule {
    registry: Registry,
    inner: Rc<RefCell<Inner>>,
}

impl StatsModule {
    /// Creates a stats module with its own empty registry.
    pub fn new(cfg: StatsConfig) -> Self {
        StatsModule {
            registry: Registry::new(),
            inner: Rc::new(RefCell::new(Inner {
                cfg,
                engines: Vec::new(),
                engine_labels: BTreeMap::new(),
                fabrics: Vec::new(),
                supervisors: Vec::new(),
                upgrades: Vec::new(),
                admissions: Vec::new(),
                groups: Vec::new(),
                healths: Vec::new(),
                running: false,
            })),
        }
    }

    /// The backing registry (for ad-hoc app metrics).
    pub fn registry(&self) -> Registry {
        self.registry.clone()
    }

    /// Watches a Pony engine: its op counters land under
    /// `engine.<label>.*` and its per-session command-queue depths
    /// under `shm.<label>.s<sid>.cmd_depth`.
    pub fn watch_engine(&self, label: &str, group: GroupHandle, id: EngineId) {
        let mut inner = self.inner.borrow_mut();
        inner.engine_labels.insert(id, label.to_string());
        inner.engines.push(EngineWatch {
            label: label.to_string(),
            group,
            id,
            slot: Rc::new(RefCell::new(None)),
            last: PonyStats::default(),
            known_sessions: Vec::new(),
        });
    }

    /// Watches a fabric: totals under `fabric.*`, per-destination-host
    /// drop reasons under `fabric.host<h>.drops.*`, per-directed-link
    /// traffic/drops/utilization under `fabric.link.<a>-><b>.*`.
    pub fn watch_fabric(&self, fabric: FabricHandle) {
        self.inner.borrow_mut().fabrics.push(FabricWatch {
            fabric,
            last_at: None,
        });
    }

    /// Watches a supervisor: completed restarts become
    /// `engine.<label>.restarts.{crash,wedge}` counters and an
    /// `engine.<label>.blackout` histogram. `labels` maps the
    /// supervisor's engine ids to telemetry labels; unlisted ids fall
    /// back to `engine<id>`.
    pub fn watch_supervisor(&self, sup: Supervisor, labels: &[(EngineId, String)]) {
        self.inner.borrow_mut().supervisors.push(SupervisorWatch {
            sup,
            labels: labels.iter().cloned().collect(),
            ingested: Vec::new(),
        });
    }

    /// Watches an upgrade-report slot (as returned by
    /// `UpgradeOrchestrator::start`): when the report lands it is
    /// folded once into `upgrade.{blackout,brownout}` histograms and
    /// `upgrade.{engines,rollbacks}` counters.
    pub fn watch_upgrade(&self, slot: Rc<RefCell<Option<UpgradeReport>>>) {
        self.inner.borrow_mut().upgrades.push(UpgradeWatch {
            slot,
            ingested: false,
        });
    }

    /// Watches an admission controller: per-container pressure and
    /// usage gauges under `isolation.<label>.<container>.*`, plus
    /// denial/shed counter deltas, and label-level
    /// `isolation.<label>.{pressure_transitions,accounting_errors}`
    /// counters. Admission state is control-plane shared state (no
    /// mailbox round-trip needed), so each poll reads it directly.
    pub fn watch_admission(&self, label: &str, adm: AdmissionController) {
        self.inner.borrow_mut().admissions.push(AdmissionWatch {
            label: label.to_string(),
            adm,
            next_seq: 0,
        });
    }

    /// Watches an engine group's scheduling-delay distribution: each
    /// poll folds the window's wake delays into
    /// `sched.<label>.<mode>.delay` (mode is the group's scheduling
    /// mode — `dedicated`, `spreading` or `compacting` — so Fig. 3's
    /// latency/CPU trade-off reads directly off the metric name).
    pub fn watch_group(&self, label: &str, group: GroupHandle) {
        self.inner.borrow_mut().groups.push(GroupWatch {
            label: label.to_string(),
            group,
            last: Histogram::new(),
        });
    }

    /// Watches a gray-failure health monitor: each poll publishes
    /// per-target gauges under `health.<label>.<target>.*` — `phi_m`
    /// (phi × 1000), `loss_m` (loss ratio × 1000), `degradation_m`
    /// (latency over baseline × 1000) and `verdict` (0 healthy /
    /// 1 degraded / 2 failed) — plus a `health.<label>.latched` gauge
    /// counting targets a sweep has quarantined. Link targets label as
    /// `link.<from>-<to>`, engines as `engine.h<host>.e<id>`.
    pub fn watch_health(&self, label: &str, monitor: Rc<RefCell<HealthMonitor>>) {
        self.inner.borrow_mut().healths.push(HealthWatch {
            label: label.to_string(),
            monitor,
        });
    }

    /// Starts the periodic poll loop (first tick one period from now).
    pub fn start(&self, sim: &mut Sim) {
        let period = {
            let mut inner = self.inner.borrow_mut();
            inner.running = true;
            inner.cfg.poll_period
        };
        let this = self.clone();
        let start = sim.now() + period;
        event::every(sim, start, period, move |sim| {
            if !this.inner.borrow().running {
                return false;
            }
            this.poll_once(sim);
            true
        });
    }

    /// Stops the poll loop (the pending tick unschedules itself).
    pub fn stop(&self) {
        self.inner.borrow_mut().running = false;
    }

    /// One poll pass over every watch target. Driven by
    /// [`start`](Self::start), but callable directly for a final
    /// flush before reading a snapshot.
    pub fn poll_once(&self, sim: &mut Sim) {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        for w in &mut inner.engines {
            ingest_engine(&self.registry, w);
            request_engine_sample(sim, w);
        }
        for w in &mut inner.fabrics {
            poll_fabric(&self.registry, w, sim.now());
        }
        for w in &mut inner.supervisors {
            poll_supervisor(&self.registry, w, &inner.engine_labels);
        }
        for w in &mut inner.upgrades {
            poll_upgrade(&self.registry, w);
        }
        for w in &mut inner.admissions {
            poll_admission(&self.registry, w);
        }
        for w in &mut inner.groups {
            poll_group(&self.registry, w);
        }
        for w in &inner.healths {
            poll_health(&self.registry, w, sim.now());
        }
        self.registry.counter("stats.polls").inc();
    }

    /// A point-in-time snapshot of the machine-level registry.
    pub fn snapshot(&self, at: Nanos) -> Snapshot {
        self.registry.snapshot(at)
    }

    /// The human-readable table of the current snapshot.
    pub fn table(&self, at: Nanos) -> String {
        self.snapshot(at).to_table()
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

fn ingest_engine(registry: &Registry, w: &mut EngineWatch) {
    let Some(sample) = w.slot.borrow_mut().take() else {
        return;
    };
    let scope = registry.scoped(&format!("engine.{}", w.label));
    for ((name, now), (_, last)) in sample.stats.counters().into_iter().zip(w.last.counters()) {
        scope.counter(name).add(delta(now, last));
    }
    w.last = sample.stats;

    let shm = registry.scoped(&format!("shm.{}", w.label));
    for (sid, depth) in &sample.depths {
        shm.gauge(&format!("s{sid}.cmd_depth"))
            .set(as_gauge(*depth as u64));
    }
    // Zero gauges for sessions that disappeared, so a closed session
    // doesn't leave a stale depth on the dashboard.
    for sid in &w.known_sessions {
        if !sample.depths.iter().any(|(s, _)| s == sid) {
            shm.gauge(&format!("s{sid}.cmd_depth")).set(0);
        }
    }
    w.known_sessions = sample.depths.iter().map(|(s, _)| *s).collect();
}

fn request_engine_sample(sim: &mut Sim, w: &mut EngineWatch) {
    let slot = w.slot.clone();
    let work: MailboxWork = Box::new(move |e: &mut dyn Engine| {
        if let Some(p) = e.as_any().downcast_mut::<PonyEngine>() {
            *slot.borrow_mut() = Some(EngineSample {
                stats: p.stats().clone(),
                depths: p.session_depths(),
            });
        }
    });
    // Busy (previous request still pending) or Unavailable (crashed /
    // mid-upgrade) just means this tick goes without a sample.
    let _ = w.group.post_to_engine(sim, w.id, work);
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
/// poll window, an egress port's queue depth a plain gauge.
fn poll_fabric(registry: &Registry, w: &mut FabricWatch, now: Nanos) {
    raise_all(&registry.scoped("fabric"), &w.fabric.stats().counters());
    for h in 0..w.fabric.num_hosts() as HostId {
        let scope = registry.scoped(&format!("fabric.host{h}.drops"));
        raise_all(&scope, &w.fabric.drop_reasons(h).counters());
    }

    let window = w
        .last_at
        .map(|t| now.as_nanos().saturating_sub(t.as_nanos()))
        .unwrap_or(0);
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
    for ((from, to), link) in w.fabric.links() {
        let scope = registry.scoped(&format!("fabric.link.{from}->{to}"));
        publish_util(&scope, link.bytes, w.fabric.host_gbps(from).unwrap_or(0.0));
        raise_all(&scope, &link.counters());
    }

    // Trunk links (multi-rack topologies only; the degenerate 1-rack
    // fabric has none). Utilization is against the trunk line rate,
    // not the host NIC rate.
    let trunk_gbps = w.fabric.topology().spec().trunk_gbps;
    for ((from, to), trunk) in w.fabric.trunks() {
        let scope = registry.scoped(&format!("fabric.trunk.{from}->{to}"));
        publish_util(&scope, trunk.bytes, trunk_gbps);
        raise_all(&scope, &trunk.counters());
    }

    // Bytes standing in each egress buffer that has ever held one.
    let (host_queues, trunk_queues) = w.fabric.egress_queues();
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
    for ((sw, qos), total) in w.fabric.switch_drop_breakdown() {
        let class = match qos {
            QosClass::Transport => "transport",
            QosClass::BestEffort => "best_effort",
        };
        registry
            .scoped(&format!("fabric.switch.{sw}.drops"))
            .counter(class)
            .raise_to(total);
    }
    w.last_at = Some(now);
}

fn poll_supervisor(
    registry: &Registry,
    w: &mut SupervisorWatch,
    engine_labels: &BTreeMap<EngineId, String>,
) {
    let log = w.sup.restart_log();
    if w.ingested.len() < log.len() {
        w.ingested.resize(log.len(), false);
    }
    for (i, rec) in log.iter().enumerate() {
        let done = w.ingested.get(i).copied().unwrap_or(true);
        if done {
            continue;
        }
        // Only a completed restart has a blackout to report; a record
        // still mid-restart stays pending for a later tick.
        let Some(blackout) = rec.blackout() else {
            continue;
        };
        let label = w
            .labels
            .get(&rec.id)
            .or_else(|| engine_labels.get(&rec.id))
            .cloned()
            .unwrap_or_else(|| format!("engine{}", rec.id.0));
        let scope = registry.scoped(&format!("engine.{label}"));
        match rec.kind {
            RestartKind::Crash => scope.counter("restarts.crash").inc(),
            RestartKind::Wedge => scope.counter("restarts.wedge").inc(),
            RestartKind::Quarantine => scope.counter("restarts.quarantine").inc(),
        }
        scope.histogram("blackout").record_nanos(blackout);
        if let Some(slot) = w.ingested.get_mut(i) {
            *slot = true;
        }
    }
}

fn target_label(t: Target) -> String {
    match t {
        Target::Link { from, to } => format!("link.{from}-{to}"),
        Target::Engine { host, engine } => format!("engine.h{host}.e{engine}"),
    }
}

fn poll_health(registry: &Registry, w: &HealthWatch, now: Nanos) {
    let monitor = w.monitor.borrow();
    let mut latched = 0i64;
    for target in monitor.targets() {
        let Some(score) = monitor.score(target, now) else {
            continue;
        };
        let scope = registry.scoped(&format!("health.{}.{}", w.label, target_label(target)));
        let milli = |v: f64| (v * 1000.0).clamp(0.0, i64::MAX as f64) as i64;
        scope.gauge("phi_m").set(milli(score.phi));
        scope.gauge("loss_m").set(milli(score.loss_ratio));
        scope.gauge("degradation_m").set(milli(score.degradation));
        scope.gauge("verdict").set(match score.verdict {
            Verdict::Healthy => 0,
            Verdict::Degraded => 1,
            Verdict::Failed => 2,
        });
        if monitor.latched(target) {
            latched += 1;
        }
    }
    registry
        .gauge(&format!("health.{}.latched", w.label))
        .set(latched);
}

fn poll_upgrade(registry: &Registry, w: &mut UpgradeWatch) {
    if w.ingested {
        return;
    }
    let slot = w.slot.borrow();
    let Some(report) = slot.as_ref() else {
        return;
    };
    let scope = registry.scoped("upgrade");
    for eu in &report.engines {
        scope.histogram("blackout").record_nanos(eu.blackout);
        scope.histogram("brownout").record_nanos(eu.brownout);
        scope.counter("engines").inc();
        if eu.rolled_back {
            scope.counter("rollbacks").inc();
        }
    }
    drop(slot);
    w.ingested = true;
}

fn poll_admission(registry: &Registry, w: &mut AdmissionWatch) {
    for snap in w.adm.snapshot() {
        let scope = registry.scoped(&format!("isolation.{}.{}", w.label, snap.container));
        scope.gauge("pressure").set(i64::from(snap.pressure.as_u8()));
        scope.gauge("usage_bytes").set(as_gauge(snap.usage_bytes));
        scope.counter("denials").raise_to(snap.denials);
        scope.counter("sheds").raise_to(snap.sheds);
    }
    let scope = registry.scoped(&format!("isolation.{}", w.label));
    let (transitions, next_seq) = w.adm.transitions_since(w.next_seq);
    if !transitions.is_empty() {
        scope
            .counter("pressure_transitions")
            .add(transitions.len() as u64);
    }
    w.next_seq = next_seq;
    scope
        .counter("accounting_errors")
        .raise_to(w.adm.accounting_errors());
}

fn poll_group(registry: &Registry, w: &mut GroupWatch) {
    let cur = w.group.sched_delay_histogram();
    let window = cur.diff(&w.last);
    if !window.is_empty() {
        let name = format!("sched.{}.{}.delay", w.label, w.group.mode_label());
        registry.histogram(&name).merge_from(&window);
    }
    w.last = cur;
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
            "table" => Ok(self.table(cx.sim.now()).into_bytes()),
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

    /// The doc cannot list five fabric counters while the code
    /// publishes eleven: each `counters()` table is one row of the
    /// metric-naming table in `lib.rs`, name for name.
    #[test]
    fn naming_table_lists_every_fabric_counter() {
        use snap_nic::fabric::{DropReasons, FabricStats, LinkStats, TrunkStats};
        let doc = include_str!("lib.rs");
        let tables: [(&str, &[(&str, u64)]); 4] = [
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
        let registry = Registry::new();
        let slot = Rc::new(RefCell::new(None));
        let mut w = UpgradeWatch {
            slot: slot.clone(),
            ingested: false,
        };
        poll_upgrade(&registry, &mut w);
        assert!(!w.ingested, "no report yet");
        let mut report = UpgradeReport::default();
        report.engines.push(snap_core::upgrade::EngineUpgrade {
            engine: "svc".to_string(),
            state_bytes: 128,
            brownout: Nanos::from_micros(50),
            blackout: Nanos::from_micros(200),
            rolled_back: false,
        });
        *slot.borrow_mut() = Some(report);
        poll_upgrade(&registry, &mut w);
        poll_upgrade(&registry, &mut w);
        let snap = registry.snapshot(Nanos(1));
        assert_eq!(snap.counter("upgrade.engines"), Some(1), "folded exactly once");
        assert_eq!(
            snap.histogram("upgrade.blackout").map(|h| h.count()),
            Some(1)
        );
        assert_eq!(snap.counter("upgrade.rollbacks"), None);
    }
}
