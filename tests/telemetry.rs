//! The telemetry subsystem end to end: a [`StatsModule`] polling a
//! live rack must expose per-engine op counters, per-session SPSC
//! queue-depth gauges, fabric per-directed-link traffic and
//! drop-reason counters, and restart/upgrade blackout histograms — and
//! its machine-level counters must stay *exact* under churn: an engine
//! crash+restart and a live upgrade both reset the engine's own
//! counters, and the module's reset-aware deltas must neither
//! double-count nor lose quiesced operations.

use std::collections::HashMap;

use snap_repro::core::module::{ControlCx, Module};
use snap_repro::core::supervisor::SupervisorConfig;
use snap_repro::core::upgrade::UpgradeOrchestrator;
use snap_repro::core::EngineId;
use snap_repro::pony::client::{PonyCommand, PonyCompletion};
use snap_repro::sim::fault::{FaultEvent, FaultPlan};
use snap_repro::sim::Nanos;
use snap_repro::telemetry::StatsConfig;
use snap_repro::testbed::{Testbed, TestbedConfig};

fn recv_msgs(client: &mut snap_repro::pony::PonyClient, out: &mut Vec<u64>) {
    for c in client.take_completions() {
        if let PonyCompletion::RecvMsg { msg, .. } = c {
            out.push(msg);
        }
    }
}

fn fast_stats() -> StatsConfig {
    StatsConfig {
        poll_period: Nanos::from_micros(500),
    }
}

/// The acceptance scenario: snapshot a running rack and find engine op
/// counters, queue-depth gauges, and per-link fabric counters — plus
/// the module's RPC surface returning the same data as a table.
#[test]
fn rack_snapshot_exposes_engine_queue_and_fabric_metrics() {
    let mut tb = Testbed::pair();
    let mut a = tb.pony_app(0, "client", |_| {});
    let _b = tb.pony_app(1, "server", |_| {});
    let conn = tb.connect(0, "client", 1, "server");
    let stats = tb.stats_module(fast_stats());
    stats.start(&mut tb.sim);

    for _ in 0..20 {
        a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 4096 });
        tb.run_ms(1);
    }
    tb.run_ms(20);
    stats.stop();

    let snap = stats.snapshot(tb.sim.now());
    assert_eq!(
        snap.counter("engine.h0.client.commands"),
        Some(20),
        "every submitted command counted exactly once"
    );
    assert!(snap.counter("engine.h0.client.tx_packets").unwrap_or(0) > 0);
    assert!(snap.counter("engine.h1.server.rx_packets").unwrap_or(0) > 0);
    assert!(snap.counter("engine.h1.server.msgs_delivered").unwrap_or(0) > 0);
    assert!(
        snap.names_under("shm.h0.client.").any(|n| n.ends_with(".cmd_depth")),
        "per-session queue-depth gauge published"
    );
    assert!(snap.counter("fabric.delivered").unwrap_or(0) > 0);
    assert!(
        snap.counter("fabric.link.0->1.bytes").unwrap_or(0) > 0,
        "directed link traffic counted"
    );
    assert!(snap.counter("fabric.link.1->0.delivered").unwrap_or(0) > 0, "acks flow back");
    assert!(snap.counter("stats.polls").unwrap_or(0) > 10);

    // The same data over the control-plane RPC surface.
    let groups = HashMap::new();
    let mut stats_rpc = stats.clone();
    let mut cx = ControlCx {
        sim: &mut tb.sim,
        groups: &groups,
        regions: &tb.hosts[0].regions,
        memory: &tb.hosts[0].memory,
        cpu: &tb.hosts[0].cpu,
        app: "ops",
    };
    let table = String::from_utf8(
        stats_rpc.handle("table", &[], &mut cx).expect("table RPC"),
    )
    .expect("utf8");
    assert!(table.contains("fabric.delivered"), "{table}");
    let json = String::from_utf8(
        stats_rpc.handle("snapshot", &[], &mut cx).expect("snapshot RPC"),
    )
    .expect("utf8");
    assert!(json.contains("\"engine.h0.client.commands\": 20"), "{json}");
}

/// Churn case 1: a supervised engine crashes and restarts (its own
/// counters reset to zero). The machine-level counter must equal the
/// true total — counted once, not twice, not partially — and the
/// restart must surface as a crash counter plus a blackout histogram.
#[test]
fn crash_restart_never_double_counts_and_records_blackout() {
    let mut tb = Testbed::pair();
    let mut a = tb.pony_app(0, "client", |_| {});
    let mut b = tb.pony_app(1, "server", |_| {});
    let conn = tb.connect(0, "client", 1, "server");
    let engine_id = tb.hosts[0].module.engine_for("client").expect("engine");
    let sup = tb.supervise_app(
        0,
        "client",
        SupervisorConfig {
            checkpoint_interval: Nanos::from_millis(1),
            ..SupervisorConfig::default()
        },
    );
    let stats = tb.stats_module(fast_stats());
    stats.watch_supervisor(sup.clone(), &[(engine_id, "h0.client".to_string())]);
    stats.start(&mut tb.sim);

    let mut got = Vec::new();
    // Phase A: quiesces before the crash, so the pre-crash counters are
    // fully sampled.
    for _ in 0..10 {
        a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 2048 });
        tb.run_ms(2);
        recv_msgs(&mut b, &mut got);
    }
    tb.hosts[0].group.kill_engine(engine_id);
    // Let the supervisor detect, restart, and the engine resume.
    while tb.sim.now() < Nanos::from_millis(100) {
        tb.run_ms(5);
    }
    // Phase B: after the restart the engine's counters restart at zero.
    for _ in 0..10 {
        a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 2048 });
        tb.run_ms(2);
        recv_msgs(&mut b, &mut got);
    }
    while tb.sim.now() < Nanos::from_millis(400) {
        tb.run_ms(10);
        recv_msgs(&mut b, &mut got);
    }
    stats.stop();

    assert_eq!(got, (0..20).collect::<Vec<u64>>(), "exactly-once across the crash");
    let snap = stats.snapshot(tb.sim.now());
    assert_eq!(
        snap.counter("engine.h0.client.commands"),
        Some(20),
        "reset-aware deltas: 10 before the crash + 10 after, never double-counted"
    );
    assert_eq!(snap.counter("engine.h0.client.restarts.crash"), Some(1));
    let blackout = snap
        .histogram("engine.h0.client.blackout")
        .expect("blackout histogram");
    assert_eq!(blackout.count(), 1, "one completed restart");
    assert!(
        blackout.max() >= Nanos::from_millis(1).as_nanos(),
        "blackout covers detection + restart cost: {}ns",
        blackout.max()
    );
}

/// Churn case 2: a live upgrade replaces the engine (counters reset
/// again) and the upgrade report must be folded in exactly once even
/// though the module keeps polling long after it lands.
#[test]
fn live_upgrade_never_double_counts_and_folds_report_once() {
    let mut tb = Testbed::pair();
    let mut a = tb.pony_app(0, "client", |_| {});
    let mut b = tb.pony_app(1, "server", |_| {});
    let conn = tb.connect(0, "client", 1, "server");
    let stats = tb.stats_module(fast_stats());
    stats.start(&mut tb.sim);

    let mut got = Vec::new();
    for _ in 0..10 {
        a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 2048 });
        tb.run_ms(2);
        recv_msgs(&mut b, &mut got);
    }

    let id = tb.hosts[0].module.engine_for("client").expect("engine");
    let factory = tb.hosts[0].module.upgrade_factory("client").expect("factory");
    let mut orch = UpgradeOrchestrator::new();
    orch.add_engine(tb.hosts[0].group.clone(), id, 2, factory);
    let report = orch.start(&mut tb.sim);
    stats.watch_upgrade(report.clone());

    while tb.sim.now() < Nanos::from_millis(100) {
        tb.run_ms(5);
    }
    assert!(report.borrow().is_some(), "upgrade completed");
    for _ in 0..10 {
        a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 2048 });
        tb.run_ms(2);
        recv_msgs(&mut b, &mut got);
    }
    while tb.sim.now() < Nanos::from_millis(400) {
        tb.run_ms(10);
        recv_msgs(&mut b, &mut got);
    }
    stats.stop();

    assert_eq!(got, (0..20).collect::<Vec<u64>>(), "exactly-once across the upgrade");
    let snap = stats.snapshot(tb.sim.now());
    assert_eq!(
        snap.counter("engine.h0.client.commands"),
        Some(20),
        "upgrade reset the engine's counters; machine total unaffected"
    );
    assert_eq!(snap.counter("upgrade.engines"), Some(1), "report folded exactly once");
    let blackout = snap.histogram("upgrade.blackout").expect("blackout histogram");
    assert_eq!(blackout.count(), 1);
    assert!(blackout.max() > 0, "blackout duration recorded");
    assert_eq!(snap.counter("upgrade.rollbacks"), None, "clean upgrade");
}

/// Asymmetric (one-direction) partitions: the scripted one-way fault
/// must black-hole exactly the `from -> to` direction, and the
/// per-directed-link drop counters must attribute every partition drop
/// to that direction only.
#[test]
fn oneway_partition_drops_are_attributed_to_one_direction() {
    let mut tb = Testbed::pair();
    let mut a = tb.pony_app(0, "client", |_| {});
    let mut b = tb.pony_app(1, "server", |_| {});
    let conn = tb.connect(0, "client", 1, "server");
    let back = tb.connect(1, "server", 0, "client");
    let stats = tb.stats_module(fast_stats());
    stats.start(&mut tb.sim);

    let plan = FaultPlan::new()
        .at(
            Nanos::from_millis(5),
            FaultEvent::PartitionOneWay { from: 0, to: 1 },
        )
        .at(
            Nanos::from_millis(120),
            FaultEvent::HealOneWay { from: 0, to: 1 },
        );
    tb.install_fault_plan(&plan);
    tb.run_ms(10);
    assert!(tb.fabric.is_partitioned_oneway(0, 1));
    assert!(!tb.fabric.is_partitioned_oneway(1, 0));

    // Traffic into the black-holed direction (and acks for the reverse
    // direction, which also travel 0 -> 1).
    let mut got_a = Vec::new();
    let mut got_b = Vec::new();
    for _ in 0..5 {
        a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 2048 });
        b.submit(&mut tb.sim, PonyCommand::Send { conn: back, stream: 0, len: 2048 });
        tb.run_ms(4);
        recv_msgs(&mut a, &mut got_a);
        recv_msgs(&mut b, &mut got_b);
    }
    // Heal at 120ms, then let retransmissions finish.
    while tb.sim.now() < Nanos::from_millis(2_000) {
        tb.run_ms(20);
        recv_msgs(&mut a, &mut got_a);
        recv_msgs(&mut b, &mut got_b);
    }
    stats.stop();

    assert_eq!(got_b, (0..5).collect::<Vec<u64>>(), "0->1 stream recovered after heal");
    assert_eq!(got_a, (0..5).collect::<Vec<u64>>(), "1->0 stream delivered");
    let snap = stats.snapshot(tb.sim.now());
    let fwd = snap.counter("fabric.link.0->1.drops.partition").unwrap_or(0);
    let rev = snap.counter("fabric.link.1->0.drops.partition").unwrap_or(0);
    assert!(fwd > 0, "one-way partition dropped 0->1 traffic");
    assert_eq!(rev, 0, "reverse direction never dropped");
    assert!(
        snap.counter("fabric.link.1->0.delivered").unwrap_or(0) > 0,
        "reverse direction kept delivering during the partition"
    );
}

/// Engines that disappear from the watch list's reach (crashed, mid
/// upgrade) must not wedge the poll loop: `Busy`/`Unavailable` mailbox
/// posts skip the tick and sampling resumes once the engine is back.
#[test]
fn polling_survives_an_unsupervised_crash() {
    let mut tb = Testbed::pair();
    let mut a = tb.pony_app(0, "client", |_| {});
    let _b = tb.pony_app(1, "server", |_| {});
    let conn = tb.connect(0, "client", 1, "server");
    let stats = tb.stats_module(fast_stats());
    stats.start(&mut tb.sim);
    for _ in 0..5 {
        a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 1024 });
        tb.run_ms(2);
    }
    // Crash with no supervisor: the engine stays dead.
    tb.hosts[0].group.kill_engine(EngineId(0));
    tb.run_ms(50);
    stats.stop();
    let snap = stats.snapshot(tb.sim.now());
    assert_eq!(snap.counter("engine.h0.client.commands"), Some(5));
    assert!(
        snap.counter("stats.polls").unwrap_or(0) > 50,
        "poll loop kept running across the dead engine"
    );
}

/// Every [`snap_repro::pony::engine::PonyStats`] counter is published,
/// the per-flow sums included: on a 5 %-lossy fabric the client's
/// retransmissions and the server's suppressed duplicates reach the
/// registry, and a crash + restart of the client engine (whose own
/// counters start again from zero) neither loses nor double-counts
/// them.
#[test]
fn lossy_fabric_retransmits_are_published_exactly_once_across_a_restart() {
    let mut tb = Testbed::new(TestbedConfig {
        loss: 0.05,
        ..TestbedConfig::default()
    });
    let mut a = tb.pony_app(0, "client", |_| {});
    let mut b = tb.pony_app(1, "server", |_| {});
    let conn = tb.connect(0, "client", 1, "server");
    b.submit(&mut tb.sim, PonyCommand::PostRecvBuffers { conn, count: 32 });
    let client_id = tb.hosts[0].module.engine_for("client").expect("engine");
    let server_id = tb.hosts[1].module.engine_for("server").expect("engine");
    let _supervisor = tb.supervise_app(
        0,
        "client",
        SupervisorConfig {
            checkpoint_interval: Nanos::from_millis(1),
            ..SupervisorConfig::default()
        },
    );
    let stats = tb.stats_module(fast_stats());
    stats.start(&mut tb.sim);
    // (retransmits, duplicates) straight from an engine's own books.
    let books = |tb: &Testbed, host: usize, id: EngineId| {
        tb.hosts[host].group.with_engine(id, |e| {
            let pe = e
                .as_any()
                .downcast_mut::<snap_repro::pony::PonyEngine>()
                .expect("a Pony engine");
            (pe.stats().retransmits, pe.stats().duplicates)
        })
    };

    let mut got = Vec::new();
    let mut epoch = |tb: &mut Testbed, until: Nanos| {
        for _ in 0..10 {
            a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 32 * 1024 });
            tb.run_ms(2);
            recv_msgs(&mut b, &mut got);
        }
        // Quiesce, so the last poll has seen the epoch's final counts.
        while tb.sim.now() < until {
            tb.run_ms(5);
            recv_msgs(&mut b, &mut got);
        }
    };
    epoch(&mut tb, Nanos::from_millis(60));
    let (before_crash, _) = books(&tb, 0, client_id);
    assert!(before_crash > 0, "5 % loss forces retransmissions");
    tb.hosts[0].group.kill_engine(client_id);
    while tb.sim.now() < Nanos::from_millis(160) {
        tb.run_ms(5);
    }
    epoch(&mut tb, Nanos::from_millis(400));
    stats.stop();

    assert_eq!(got, (0..20).collect::<Vec<u64>>(), "exactly-once across loss and the crash");
    let (after_restart, _) = books(&tb, 0, client_id);
    assert!(after_restart > 0, "the restarted engine retransmits too");
    let (_, server_dups) = books(&tb, 1, server_id);
    let snap = stats.snapshot(tb.sim.now());
    assert_eq!(
        snap.counter("engine.h0.client.retransmits"),
        Some(before_crash + after_restart),
        "both engine lifetimes, each counted once"
    );
    assert!(server_dups > 0, "a lost ack makes the retransmission a duplicate");
    assert_eq!(snap.counter("engine.h1.server.duplicates"), Some(server_dups));
}
