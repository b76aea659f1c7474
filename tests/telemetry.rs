//! The telemetry subsystem end to end: a [`StatsModule`] polling a
//! live rack must expose per-engine op counters, per-session SPSC
//! queue-depth gauges, fabric per-directed-link traffic and
//! drop-reason counters, and restart/upgrade blackout histograms — and
//! its machine-level counters must stay *exact* under churn: an engine
//! crash+restart and a live upgrade both reset the engine's own
//! counters, and the module's reset-aware deltas must neither
//! double-count nor lose quiesced operations.

use bytes::Bytes;

use snap_repro::core::supervisor::SupervisorConfig;
use snap_repro::core::upgrade::UpgradeOrchestrator;
use snap_repro::core::group::SchedulingMode;
use snap_repro::core::EngineId;
use snap_repro::nic::packet::{Packet, QosClass};
use snap_repro::pony::client::{PonyCommand, PonyCompletion};
use snap_repro::pony::PonyClient;
use snap_repro::sim::fault::{FaultEvent, FaultPlan};
use snap_repro::sim::Nanos;
use snap_repro::telemetry::{Snapshot, StatsConfig};
use snap_repro::testbed::{Testbed, TestbedConfig};

mod common;
use common::assert_snapshot;

fn recv_msgs(client: &mut PonyClient, out: &mut Vec<u64>) {
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
/// the same data rendered as a table and as JSON.
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
        snap.metrics.keys().any(|n| n.starts_with("shm.h0.client.") && n.ends_with(".cmd_depth")),
        "per-session queue-depth gauge published"
    );
    assert!(snap.counter("fabric.delivered").unwrap_or(0) > 0);
    assert!(
        snap.counter("fabric.link.0->1.bytes").unwrap_or(0) > 0,
        "directed link traffic counted"
    );
    assert!(snap.counter("fabric.link.1->0.delivered").unwrap_or(0) > 0, "acks flow back");
    assert!(snap.counter("stats.polls").unwrap_or(0) > 10);

    // The same data as a table and as JSON.
    let table = stats.snapshot(tb.sim.now()).to_table();
    assert!(table.contains("fabric.delivered"), "{table}");
    let json = stats.snapshot(tb.sim.now()).to_json();
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
    sup.start(&mut tb.sim);
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

/// A snapshot as text: its instant, then one metric per line, each as
/// [`Snapshot::to_json`] renders it. The lines joined by ", " inside
/// the JSON's head and tail are that JSON, byte for byte.
fn snapshot_lines(snap: &Snapshot) -> String {
    let head = format!("{{\"at_ns\": {}, \"metrics\": {{", snap.at.as_nanos());
    let mut out = format!("at_ns {}\n", snap.at.as_nanos());
    for (name, metric) in &snap.metrics {
        let one = Snapshot {
            at: snap.at,
            metrics: [(name.clone(), metric.clone())].into(),
        };
        let json = one.to_json();
        out.push_str(&json[head.len()..json.len() - "}}".len()]);
        out.push('\n');
    }
    out
}

/// The stats module's snapshot after a scripted crash + partition +
/// live-upgrade tour, pinned as text, one metric per line: engine
/// counters and depth gauges, fabric books, restart and upgrade
/// histograms, scheduling delays — every name but the `cpu.*` split.
#[test]
fn churn_tour_snapshot_is_pinned() {
    let mut tb = Testbed::pair();
    let mut a = tb.pony_app(0, "client", |_| {});
    let mut b = tb.pony_app(1, "server", |_| {});
    let conn = tb.connect(0, "client", 1, "server");
    b.submit(&mut tb.sim, PonyCommand::PostRecvBuffers { conn, count: 64 });
    let client = tb.hosts[0].module.engine_for("client").expect("engine");
    let sup = tb.supervise_app(
        0,
        "client",
        SupervisorConfig {
            checkpoint_interval: Nanos::from_millis(1),
            ..SupervisorConfig::default()
        },
    );
    sup.start(&mut tb.sim);
    let stats = tb.stats_module(fast_stats());
    stats.watch_supervisor(sup, &[(client, "h0.client".to_string())]);
    stats.start(&mut tb.sim);
    let plan = FaultPlan::new()
        .at(
            Nanos::from_millis(10),
            FaultEvent::EngineCrash { host: 0, engine: 0 },
        )
        .at(Nanos::from_millis(40), FaultEvent::Partition { a: 0, b: 1 })
        .at(Nanos::from_millis(60), FaultEvent::Heal { a: 0, b: 1 });
    tb.install_fault_plan(&plan);

    let mut got = Vec::new();
    for i in 0..30 {
        a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 4096 });
        tb.run_ms(3);
        recv_msgs(&mut b, &mut got);
        if i == 25 {
            let id = tb.hosts[1].module.engine_for("server").expect("engine");
            let factory = tb.hosts[1].module.upgrade_factory("server").expect("factory");
            let mut orch = UpgradeOrchestrator::new();
            orch.add_engine(tb.hosts[1].group.clone(), id, 2, factory);
            stats.watch_upgrade(orch.start(&mut tb.sim));
        }
    }
    while tb.sim.now() < Nanos::from_millis(300) {
        tb.run_ms(10);
        recv_msgs(&mut b, &mut got);
    }
    stats.stop();
    stats.poll_once(&tb.sim);

    let mut snap = stats.snapshot(tb.sim.now());
    assert_eq!(snap.counter("engine.h0.client.restarts.crash"), Some(1));
    assert_eq!(snap.counter("upgrade.engines"), Some(1));
    assert!(snap.counter("fabric.partition_drops").unwrap_or(0) > 0);
    snap.metrics.retain(|name, _| !name.starts_with("cpu."));
    assert_snapshot(
        &snapshot_lines(&snap),
        include_str!("golden/telemetry_churn_tour.txt"),
    );
}

/// Runs the simulator one event at a time until `client` holds a
/// received message (an application spinning on its completion queue)
/// and returns that instant.
fn arrival(tb: &mut Testbed, client: &mut PonyClient) -> Nanos {
    loop {
        let got = client.take_completions();
        if got.iter().any(|c| matches!(c, PonyCompletion::RecvMsg { .. })) {
            return tb.sim.now();
        }
        assert!(tb.sim.step(), "the simulator drained before the message arrived");
    }
}

/// Two hosts, engines idle between messages: `a` sends `b` 100
/// messages of 64 B, 330 µs apart, long enough for the cores to drop
/// into a deep C-state in between. Returns every message's arrival
/// instant and both hosts' CPU ledgers at the end (engine, spin and
/// wake nanoseconds). With `stats`, a stats module polls every engine,
/// the fabric and both groups each millisecond throughout.
fn sparse_sends(mode: SchedulingMode, stats: bool) -> (Vec<Nanos>, Vec<[Nanos; 3]>) {
    let mut tb = Testbed::new(TestbedConfig {
        mode,
        ..TestbedConfig::default()
    });
    let mut a = tb.pony_app(0, "a", |_| {});
    let mut b = tb.pony_app(1, "b", |_| {});
    let conn = tb.connect(0, "a", 1, "b");
    b.submit(&mut tb.sim, PonyCommand::PostRecvBuffers { conn, count: 128 });
    let module = stats.then(|| {
        let module = tb.stats_module(StatsConfig {
            poll_period: Nanos::from_millis(1),
        });
        module.start(&mut tb.sim);
        module
    });
    let mut arrivals = Vec::new();
    for i in 1..=100 {
        tb.sim.run_until(Nanos::from_micros(330 * i));
        a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 64 });
        arrivals.push(arrival(&mut tb, &mut b));
    }
    tb.sim.run_until(Nanos::from_millis(40));
    if let Some(module) = module {
        module.stop();
        let snap = module.snapshot(tb.sim.now());
        let delivered = snap.counter("engine.h1.b.msgs_delivered").unwrap_or(0);
        assert!(delivered > 0, "the module read the engines");
    }
    let ledgers = (0..2).map(|h| tb.host_cpu(h)).map(|c| [c.engine, c.spin, c.wake_overhead]);
    (arrivals, ledgers.collect())
}

/// An observer must not change what it observes: a stats module polling
/// every millisecond leaves each message's arrival instant and both
/// hosts' CPU ledgers exactly as in the bare run, in all three
/// scheduling modes, whether the engines block between messages or
/// spin. A poll that woke an engine would keep its core out of deep
/// C-states and charge passes of its own.
#[test]
fn stats_module_attached_models_the_same_run_as_bare() {
    let mut moved = Vec::new();
    for mode in [
        SchedulingMode::Spreading,
        SchedulingMode::compacting_default(),
        SchedulingMode::Dedicated { cores: vec![0] },
    ] {
        let (bare_at, bare_cpu) = sparse_sends(mode.clone(), false);
        let (stats_at, stats_cpu) = sparse_sends(mode.clone(), true);
        if stats_at != bare_at {
            let pairs = || bare_at.iter().zip(&stats_at);
            let early = pairs().filter(|(bare, stats)| stats < bare).count();
            let late = pairs().filter(|(bare, stats)| stats > bare).count();
            moved.push(format!("{mode:?}: {early} of 100 messages arrive early, {late} late"));
        }
        if stats_cpu != bare_cpu {
            moved.push(format!("{mode:?}: CPU {bare_cpu:?} bare, {stats_cpu:?} attached"));
        }
    }
    assert!(moved.is_empty(), "attaching the stats module moved the run:\n{}", moved.join("\n"));
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
/// upgrade) must not wedge the poll loop: a poll that finds the engine
/// `Unavailable` skips it, and sampling resumes once the engine is back.
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
    let supervisor = tb.supervise_app(
        0,
        "client",
        SupervisorConfig {
            checkpoint_interval: Nanos::from_millis(1),
            ..SupervisorConfig::default()
        },
    );
    supervisor.start(&mut tb.sim);
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

// ---------------------------------------------------------------------
// The fabric's books: every counter it keeps reaches the registry, and
// the counters tile the packets its hosts sent.
// ---------------------------------------------------------------------

/// Sends `n` raw packets `src -> dst` of class `qos`, one at a time.
fn send_raw(tb: &mut Testbed, src: u32, dst: u32, qos: QosClass, n: u64) {
    for i in 0..n {
        let pkt = Packet::new(src, dst, Bytes::from(vec![0u8; 1000]))
            .with_rss_hash(i)
            .with_qos(qos);
        tb.fabric
            .transmit(&mut tb.sim, 0, pkt)
            .expect("free tx slot");
    }
}

/// A tour of the fabric's fault arms over 2 racks x 3 hosts x 2 spines
/// (hosts 0-2 in rack 0, 3-5 in rack 1) with raw packets of both
/// classes; `after` runs once each phase's traffic has drained.
fn fabric_fault_tour(mut after: impl FnMut(&mut Testbed, &str)) -> Testbed {
    use QosClass::{BestEffort as BE, Transport as TP};
    let mut tb = Testbed::clos(2, 3, 2);
    let mut end_phase = |tb: &mut Testbed, name: &str| {
        tb.run_ms(2);
        after(tb, name);
    };

    send_raw(&mut tb, 0, 1, TP, 5);
    send_raw(&mut tb, 0, 1, BE, 5);
    send_raw(&mut tb, 0, 4, TP, 5);
    send_raw(&mut tb, 4, 0, BE, 5);
    end_phase(&mut tb, "healthy");

    tb.fabric.set_link_loss(0, 1, 0.5);
    send_raw(&mut tb, 0, 1, TP, 20);
    end_phase(&mut tb, "lossy link");
    tb.fabric.set_link_loss(0, 1, 0.0);

    tb.fabric.set_link_jitter(0, 4, Nanos::from_micros(20), 0.5);
    send_raw(&mut tb, 0, 4, TP, 5);
    end_phase(&mut tb, "jittery link");
    tb.fabric.set_link_jitter(0, 4, Nanos::ZERO, 0.0);

    // Rack 0 has a third host and there are two spines, so transport
    // reroutes in-rack and cross-rack; best-effort is shed.
    tb.fabric.quarantine_link(0, 1);
    tb.fabric.quarantine_link(0, 4);
    send_raw(&mut tb, 0, 1, TP, 4);
    send_raw(&mut tb, 0, 1, BE, 3);
    send_raw(&mut tb, 0, 4, TP, 2);
    end_phase(&mut tb, "quarantine");
    tb.fabric.clear_quarantine(0, 1);
    tb.fabric.clear_quarantine(0, 4);

    let storm = tb.sim.now() + Nanos::from_micros(100);
    tb.fabric.pause_host(1, storm);
    send_raw(&mut tb, 0, 1, TP, 3);
    end_phase(&mut tb, "pause storm");

    tb.fabric.set_leaf_brownout(1, 0.5, Nanos::from_micros(2));
    send_raw(&mut tb, 0, 4, TP, 20);
    send_raw(&mut tb, 4, 5, BE, 10);
    end_phase(&mut tb, "leaf brownout");
    tb.fabric.set_leaf_brownout(1, 0.0, Nanos::ZERO);

    tb.fabric.fail_trunk(0, 0);
    tb.fabric.fail_trunk(0, 1);
    send_raw(&mut tb, 0, 4, TP, 3);
    send_raw(&mut tb, 0, 2, BE, 2);
    end_phase(&mut tb, "trunks down");
    tb.fabric.restore_trunk(0, 0);
    tb.fabric.restore_trunk(0, 1);

    tb.fabric.partition(1, 3);
    tb.fabric.partition_oneway(2, 0);
    send_raw(&mut tb, 1, 3, TP, 2);
    send_raw(&mut tb, 3, 1, BE, 2);
    send_raw(&mut tb, 2, 0, TP, 2);
    send_raw(&mut tb, 0, 2, TP, 2);
    end_phase(&mut tb, "partitions");
    tb.fabric.heal(1, 3);
    tb.fabric.heal_oneway(2, 0);

    tb.fabric.set_loss_prob(0.3);
    tb.fabric.set_corrupt_prob(0.3);
    send_raw(&mut tb, 5, 2, TP, 20);
    send_raw(&mut tb, 2, 1, BE, 20);
    end_phase(&mut tb, "loss and corruption");
    tb.fabric.set_loss_prob(0.0);
    tb.fabric.set_corrupt_prob(0.0);

    // A host beyond the topology: dropped at the egress port it lacks.
    send_raw(&mut tb, 0, 99, TP, 2);
    end_phase(&mut tb, "black hole");
    tb
}

/// The tour, then one poll: the rack and its registry snapshot.
fn toured_and_polled() -> (Testbed, Snapshot) {
    let mut tb = fabric_fault_tour(|_, _| {});
    let stats = tb.stats_module(fast_stats());
    stats.poll_once(&tb.sim);
    let snap = stats.snapshot(tb.sim.now());
    (tb, snap)
}

/// Every gray-failure and topology-fault counter the fabric keeps —
/// fabric-wide, per destination host and per directed link — is on the
/// dashboard under its name with the fabric's own value, the per-link
/// and per-host shares of a reason sum to its fabric total, and a
/// healthy link publishes no drop name at all.
#[test]
fn fault_tour_puts_every_fabric_fault_counter_on_the_dashboard() {
    let (tb, snap) = toured_and_polled();
    let s = tb.fabric.stats();
    for (name, want) in [
        ("fabric.lossy_drops", s.lossy_drops),
        ("fabric.quarantine_sheds", s.quarantine_sheds),
        ("fabric.rerouted", s.rerouted),
        ("fabric.brownout_drops", s.brownout_drops),
        ("fabric.trunk_down_drops", s.trunk_down_drops),
        ("fabric.pauses", s.pauses),
    ] {
        assert!(want > 0, "the tour must move {name}");
        assert_eq!(snap.counter(name), Some(want), "{name}");
    }

    let published = |name: String| snap.counter(&name).unwrap_or(0);
    let mut by_host = [0u64; 4];
    for h in 0..tb.hosts.len() as u32 {
        let d = tb.fabric.drop_reasons(h);
        let rows = [
            ("lossy", d.lossy),
            ("quarantined", d.quarantined),
            ("brownout", d.brownout),
            ("trunk_down", d.trunk_down),
        ];
        for (sum, (reason, want)) in by_host.iter_mut().zip(rows) {
            assert_eq!(
                published(format!("fabric.host{h}.drops.{reason}")),
                want,
                "host {h} {reason}"
            );
            *sum += want;
        }
    }
    let totals = [
        s.lossy_drops,
        s.quarantine_sheds,
        s.brownout_drops,
        s.trunk_down_drops,
    ];
    assert_eq!(by_host, totals, "per-host shares sum to the fabric totals");

    let mut by_link = [0u64; 3];
    let mut jittered = 0;
    for ((a, b), l) in tb.fabric.links() {
        let rows = [
            ("drops.lossy", l.lossy_drops),
            ("drops.quarantine", l.quarantine_sheds),
            ("rerouted", l.rerouted),
            ("jittered", l.jittered),
            ("jitter_ns", l.jitter_ns),
        ];
        for (row, want) in rows {
            assert_eq!(
                published(format!("fabric.link.{a}->{b}.{row}")),
                want,
                "link {a}->{b} {row}"
            );
        }
        for (sum, (_, want)) in by_link.iter_mut().zip(rows) {
            *sum += want;
        }
        jittered += l.jittered;
    }
    assert_eq!(
        by_link,
        [s.lossy_drops, s.quarantine_sheds, s.rerouted],
        "per-link shares sum to the fabric totals"
    );
    assert_eq!(jittered, 5, "every packet of the jitter phase was delayed");

    let healthy: Vec<&str> = snap
        .metrics
        .keys()
        .map(String::as_str)
        .filter(|n| n.starts_with("fabric.link.4->0."))
        .collect();
    assert!(
        healthy.contains(&"fabric.link.4->0.delivered"),
        "{healthy:?}"
    );
    assert!(
        !healthy.iter().any(|n| n.contains(".drops.")),
        "a link that dropped nothing publishes no drop name: {healthy:?}"
    );
}

/// The stats contract: whatever rows a fabric stats struct's
/// `counters()` lists, a poll publishes under that struct's scope with
/// that value (a row at zero is absent, which reads as zero).
#[test]
fn every_row_of_every_fabric_counters_table_is_published() {
    let (tb, snap) = toured_and_polled();
    let check = |scope: String, counters: &[(&'static str, u64)]| {
        for &(name, want) in counters {
            let full = format!("{scope}.{name}");
            assert_eq!(snap.counter(&full).unwrap_or(0), want, "{full}");
            assert_eq!(
                snap.counter(&full).is_some(),
                want > 0,
                "{full} registered iff moved"
            );
        }
    };
    check("fabric".to_string(), &tb.fabric.stats().counters());
    for h in 0..tb.hosts.len() as u32 {
        check(
            format!("fabric.host{h}.drops"),
            &tb.fabric.drop_reasons(h).counters(),
        );
    }
    let links = tb.fabric.links();
    let trunks = tb.fabric.trunks();
    assert!(
        links.len() >= 10 && trunks.len() >= 8,
        "{} links, {} trunks",
        links.len(),
        trunks.len()
    );
    for ((a, b), link) in links {
        check(format!("fabric.link.{a}->{b}"), &link.counters());
    }
    for ((a, b), trunk) in trunks {
        check(format!("fabric.trunk.{a}->{b}"), &trunk.counters());
    }
}

/// Packet conservation (ROADMAP 4(a)'s first invariant), checked after
/// every phase of the tour has drained: each packet a NIC handed to
/// the fabric was delivered or is in exactly one drop counter, and the
/// per-link delivery counts tile the fabric's.
#[test]
fn fabric_books_balance_after_every_fault_phase() {
    // Rows of `FabricStats::counters` that do not count a lost packet:
    // a corrupted packet is still delivered, a reroute or a pause
    // loses nothing.
    const NOT_DROPS: [&str; 4] = ["delivered", "corrupted", "pauses", "rerouted"];
    let mut phases = 0;
    fabric_fault_tour(|tb, phase| {
        let sent: u64 = (0..tb.hosts.len() as u32)
            .map(|h| tb.fabric.with_nic(h, |nic| nic.stats().tx_packets))
            .sum();
        let s = tb.fabric.stats();
        let counters = s.counters();
        let drops = counters
            .iter()
            .filter(|(name, _)| !NOT_DROPS.contains(name));
        let dropped: u64 = drops.map(|&(_, n)| n).sum();
        assert_eq!(sent, s.delivered + dropped, "after {phase}: {s:?}");
        let by_link: u64 = tb.fabric.links().iter().map(|(_, l)| l.delivered).sum();
        assert_eq!(
            by_link, s.delivered,
            "after {phase}: links tile the deliveries"
        );
        phases += 1;
    });
    assert_eq!(phases, 10);
}
