//! Flight-recorder integration (PR 10): exact windows across
//! crash/restart and live-upgrade churn, byte-identical determinism,
//! the per-core CPU attribution invariant under property-driven
//! workloads and its pinned series, one loop however a clock is
//! started, and the gray-failure alert + timeline export.

use proptest::prelude::*;

use snap_repro::core::group::SchedulingMode;
use snap_repro::core::supervisor::SupervisorConfig;
use snap_repro::core::upgrade::UpgradeOrchestrator;
use snap_repro::obs::{
    AlertState, FlightRecorder, Objective, PointValue, RecorderConfig, SloEngine, SloSpec, Timeline,
};
use snap_repro::pony::client::{PonyCommand, PonyCompletion};
use snap_repro::sim::fault::{FaultEvent, FaultPlan};
use snap_repro::sim::Nanos;
use snap_repro::telemetry::StatsConfig;
use snap_repro::testbed::{Testbed, TestbedConfig};
use snap_repro::topo::ClosSpec;

/// Sums a rate series and checks its timestamps strictly increase.
fn rate_series_sum(rec: &FlightRecorder, name: &str) -> u64 {
    let points = rec.series(name);
    assert!(!points.is_empty(), "series {name} has points");
    let mut last = None;
    let mut sum = 0u64;
    for (at, v) in points {
        if let Some(prev) = last {
            // A manual sample may share the last periodic tick's
            // timestamp; time must never run backwards though.
            assert!(at >= prev, "series {name} timestamps never regress");
        }
        last = Some(at);
        match v {
            PointValue::Rate(r) => sum += r,
            other => panic!("series {name} is not a rate: {other:?}"),
        }
    }
    sum
}

/// Crash/restart plus a live upgrade mid-run, a recorder sampling the
/// rack's stats module the whole time (its tick is the module's only
/// poll). The recorder's windows must tile the
/// run exactly: the sum of per-window deltas equals the final
/// cumulative counter — nothing double-counted across the restart,
/// nothing lost across the upgrade.
fn churn_run() -> (String, u64, u64) {
    let mut tb = Testbed::pair();
    let mut a = tb.pony_app(0, "client", |_| {});
    let mut b = tb.pony_app(1, "server", |_| {});
    let conn = tb.connect(0, "client", 1, "server");
    b.submit(&mut tb.sim, PonyCommand::PostRecvBuffers { conn, count: 256 });

    let sup = tb.supervise_app(
        0,
        "client",
        SupervisorConfig {
            checkpoint_interval: Nanos::from_millis(1),
            ..SupervisorConfig::default()
        },
    );
    let stats = tb.stats_module(StatsConfig::default());
    let rec = FlightRecorder::new(
        RecorderConfig {
            cadence: Nanos::from_millis(1),
            capacity: 4096,
        },
        stats.clone(),
    );
    rec.start(&mut tb.sim);

    let plan = FaultPlan::new().at(
        Nanos::from_millis(30),
        FaultEvent::EngineCrash { host: 0, engine: 0 },
    );
    tb.install_fault_plan(&plan);

    let mut got = Vec::new();
    let drain = |b: &mut snap_repro::pony::PonyClient, got: &mut Vec<u64>| {
        for c in b.take_completions() {
            if let PonyCompletion::RecvMsg { msg, .. } = c {
                got.push(msg);
            }
        }
    };
    // Phase A: before the crash (quiesces by t=30ms).
    for _ in 0..10 {
        a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 8_000 });
        tb.run_ms(2);
        drain(&mut b, &mut got);
    }
    // Phase B: ride out the restart blackout, then more traffic.
    while tb.sim.now() < Nanos::from_millis(80) {
        tb.run_ms(5);
    }
    for _ in 0..10 {
        a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 8_000 });
        tb.run_ms(2);
        drain(&mut b, &mut got);
    }
    // Phase C: live-upgrade the server engine under load.
    let id = tb.hosts[1].module.engine_for("server").unwrap();
    let factory = tb.hosts[1].module.upgrade_factory("server").unwrap();
    let mut orch = UpgradeOrchestrator::new();
    orch.add_engine(tb.hosts[1].group.clone(), id, 3, factory);
    let report = orch.start(&mut tb.sim);
    for _ in 0..10 {
        a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 8_000 });
        tb.run_ms(10);
        drain(&mut b, &mut got);
    }
    tb.run_ms(500);
    drain(&mut b, &mut got);
    rec.stop();
    // One final sample so the last partial window is recorded too.
    rec.sample_once(&mut tb.sim);

    assert!(report.borrow().is_some(), "upgrade completed");
    assert_eq!(sup.report().crash_restarts, 1, "the crash actually restarted");
    got.sort_unstable();
    got.dedup();
    assert_eq!(got, (0..30).collect::<Vec<u64>>(), "exactly-once delivery");

    let final_tx = stats
        .snapshot(tb.sim.now())
        .counter("engine.h0.client.tx_packets")
        .expect("stats watched the client engine");
    let recorded_tx = rate_series_sum(&rec, "engine.h0.client.tx_packets");
    (rec.to_json(), recorded_tx, final_tx)
}

#[test]
fn recorder_windows_tile_exactly_across_restart_and_upgrade() {
    let (_, recorded_tx, final_tx) = churn_run();
    assert!(final_tx > 0, "workload generated traffic");
    assert_eq!(
        recorded_tx, final_tx,
        "recorder windows must sum to the cumulative counter: \
         no double-counting across the restart, no loss across the upgrade"
    );
}

#[test]
fn same_seed_gives_byte_identical_recorder_output() {
    let (json_a, _, _) = churn_run();
    let (json_b, _, _) = churn_run();
    assert_eq!(json_a, json_b, "same seed must replay to identical bytes");
}

/// Runs a short streaming workload in the given mode and returns the
/// testbed with its recorder after a final sample.
fn attribution_run(mode: SchedulingMode, seed: u64, msgs: usize, len: u64) -> (Testbed, FlightRecorder) {
    let mut tb = Testbed::new(TestbedConfig {
        seed,
        cores_per_host: 4,
        mode,
        ..TestbedConfig::default()
    });
    let mut a = tb.pony_app(0, "src", |_| {});
    let mut b = tb.pony_app(1, "sink", |_| {});
    let conn = tb.connect(0, "src", 1, "sink");
    let rec = tb.flight_recorder(RecorderConfig {
        cadence: Nanos::from_micros(500),
        ..RecorderConfig::default()
    });
    rec.start(&mut tb.sim);
    for _ in 0..msgs {
        a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len });
        tb.run_us(100);
        for _ in b.take_completions() {}
        for _ in a.take_completions() {}
    }
    tb.run_ms(2);
    rec.stop();
    rec.sample_once(&mut tb.sim);
    (tb, rec)
}

proptest! {
    /// The published per-core split tiles the group's CPU ledger in
    /// every scheduling mode, for arbitrary workload shapes: every
    /// nanosecond the group consumed lands on exactly one core, and
    /// busy + spin + wake + idle accounts for each core's entire
    /// elapsed virtual time.
    #[test]
    fn per_core_attribution_sums_to_total_sim_cpu(
        seed in 1u64..1000,
        mode_pick in 0usize..3,
        msgs in 1usize..24,
        len in 64u64..16_384,
    ) {
        let mode = match mode_pick {
            0 => SchedulingMode::Dedicated { cores: vec![0, 1] },
            1 => SchedulingMode::Spreading,
            _ => SchedulingMode::Compacting {
                slo: Nanos::from_micros(5),
                rebalance_poll: Nanos::from_micros(10),
                idle_block: Nanos::from_micros(100),
            },
        };
        let (tb, rec) = attribution_run(mode, seed, msgs, len);
        let now = tb.sim.now();
        let snap = rec.registry().snapshot(now);
        for (h, host) in tb.hosts.iter().enumerate() {
            let total = host.group.cpu(now);
            let mut split_sum = 0u64;
            let mut elapsed_sum = 0u64;
            let mut cores = 0u64;
            for name in snap.names_under(&format!("cpu.h{h}.core")) {
                let v = snap.counter(name).unwrap_or(0);
                if name.ends_with(".busy_ns")
                    || name.ends_with(".spin_ns")
                    || name.ends_with(".wake_ns")
                {
                    split_sum += v;
                    elapsed_sum += v;
                } else if name.ends_with(".idle_ns") {
                    elapsed_sum += v;
                    cores += 1;
                }
            }
            prop_assert_eq!(
                split_sum,
                total.total().as_nanos(),
                "host {}: per-core busy/spin/wake must sum to the group total",
                h
            );
            prop_assert_eq!(
                elapsed_sum,
                cores * now.as_nanos(),
                "host {}: busy+spin+wake+idle must tile every core's elapsed time",
                h
            );
            let mut engine_sum = 0u64;
            for name in snap.names_under(&format!("cpu.h{h}.engine.")) {
                engine_sum += snap.counter(name).unwrap_or(0);
            }
            prop_assert_eq!(engine_sum, total.engine.as_nanos());
        }
    }
}

/// Every `cpu.*` series `Testbed::flight_recorder` records over a fixed
/// compacting two-host stream, point for point (`at_us:value`): the
/// per-core and per-engine CPU split and its per-window fold are pinned.
#[test]
fn cpu_series_of_a_compacting_stream_are_pinned_point_for_point() {
    let mut tb = Testbed::new(TestbedConfig {
        cores_per_host: 2,
        mode: SchedulingMode::compacting_default(),
        ..TestbedConfig::default()
    });
    let mut a = tb.pony_app(0, "src", |_| {});
    let mut b = tb.pony_app(1, "sink", |_| {});
    let conn = tb.connect(0, "src", 1, "sink");
    b.submit(&mut tb.sim, PonyCommand::PostRecvBuffers { conn, count: 16 });
    let rec = tb.flight_recorder(RecorderConfig {
        cadence: Nanos::from_micros(250),
        capacity: 64,
    });
    rec.start(&mut tb.sim);
    for _ in 0..4 {
        a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 16 * 1024 });
        tb.run_us(250);
        for _ in b.take_completions() {}
        for _ in a.take_completions() {}
    }
    rec.stop();
    let mut got = String::new();
    for name in rec.series_names().iter().filter(|n| n.starts_with("cpu.")) {
        got.push_str(name);
        for (at, v) in rec.series(name) {
            let PointValue::Rate(r) = v else {
                panic!("{name} is a rate series: {v:?}")
            };
            got.push_str(&format!(" {}:{r}", at.as_nanos() / 1_000));
        }
        got.push('\n');
    }
    assert_eq!(got, CPU_SERIES_PIN, "\n{got}");
}

const CPU_SERIES_PIN: &str = "\
cpu.h0.core0.busy_ns 250:9509 500:5442 750:6416 1000:5442
cpu.h0.core0.idle_ns 250:119741 500:229128 750:190713 1000:224018
cpu.h0.core0.machine_busy_ns 250:9509 500:5442 750:6416 1000:5442
cpu.h0.core0.spin_ns 250:114350 500:5830 750:36871 1000:10940
cpu.h0.core0.wake_ns 250:6400 500:9600 750:16000 1000:9600
cpu.h0.core1.busy_ns 250:0 500:0 750:0 1000:0
cpu.h0.core1.idle_ns 250:250000 500:250000 750:250000 1000:250000
cpu.h0.core1.machine_busy_ns 250:0 500:0 750:0 1000:0
cpu.h0.core1.spin_ns 250:0 500:0 750:0 1000:0
cpu.h0.core1.wake_ns 250:0 500:0 750:0 1000:0
cpu.h0.engine.e0.busy_ns 250:9509 500:5442 750:6416 1000:5442
cpu.h0.throttled_ns 250:0 500:0 750:0 1000:0
cpu.h1.core0.busy_ns 250:8850 500:3093 750:4877 1000:3093
cpu.h1.core0.idle_ns 250:131023 500:243707 750:235523 1000:243707
cpu.h1.core0.machine_busy_ns 250:8850 500:3093 750:4877 1000:3093
cpu.h1.core0.spin_ns 250:110127 500:0 750:0 1000:0
cpu.h1.core0.wake_ns 250:0 500:3200 750:9600 1000:3200
cpu.h1.core1.busy_ns 250:0 500:0 750:0 1000:0
cpu.h1.core1.idle_ns 250:250000 500:250000 750:250000 1000:250000
cpu.h1.core1.machine_busy_ns 250:0 500:0 750:0 1000:0
cpu.h1.core1.spin_ns 250:0 500:0 750:0 1000:0
cpu.h1.core1.wake_ns 250:0 500:0 750:0 1000:0
cpu.h1.engine.e0.busy_ns 250:8850 500:3093 750:4877 1000:3093
cpu.h1.throttled_ns 250:0 500:0 750:0 1000:0
";

/// `start` is idempotent while a loop is live, and a restart after
/// `stop` leaves exactly one loop: a 1 ms loop run for 10 ms ticks 10
/// times however it was started.
#[test]
fn start_twice_or_restart_leaves_exactly_one_loop() {
    let period = Nanos::from_millis(1);
    let stats_polls = |restart: bool| {
        let mut tb = Testbed::pair();
        let stats = tb.stats_module(StatsConfig {
            poll_period: period,
        });
        stats.start(&mut tb.sim);
        if restart {
            stats.stop();
        }
        stats.start(&mut tb.sim);
        tb.run_ms(10);
        stats.snapshot(tb.sim.now()).counter("stats.polls")
    };
    let recorder_ticks = |restart: bool| {
        let mut tb = Testbed::pair();
        let rec = tb.flight_recorder(RecorderConfig {
            cadence: period,
            ..RecorderConfig::default()
        });
        rec.start(&mut tb.sim);
        if restart {
            rec.stop();
        }
        rec.start(&mut tb.sim);
        tb.run_ms(10);
        rec.ticks()
    };
    assert_eq!(stats_polls(false), Some(10), "stats: start; start");
    assert_eq!(stats_polls(true), Some(10), "stats: start; stop; start");
    assert_eq!(recorder_ticks(false), 10, "recorder: start; start");
    assert_eq!(recorder_ticks(true), 10, "recorder: start; stop; start");

    // A stop whose pending tick has lapsed ends the loop; the next
    // start begins a new one, one period out.
    let mut tb = Testbed::pair();
    let rec = tb.flight_recorder(RecorderConfig {
        cadence: period,
        ..RecorderConfig::default()
    });
    rec.start(&mut tb.sim);
    tb.run_ms(3);
    rec.stop();
    tb.run_ms(3);
    assert_eq!(rec.ticks(), 3, "a stopped loop does not tick");
    rec.start(&mut tb.sim);
    rec.start(&mut tb.sim);
    tb.run_ms(4);
    assert_eq!(rec.ticks(), 7, "one loop again after the restart");
}

/// A 2-rack Clos runs a cross-rack closed loop while a lossy-link gray
/// failure comes (5 ms) and goes (12 ms): the SLO burn-rate alert must
/// fire during the failure and resolve after the heal, and the
/// exported timeline must carry causal spans, CPU counter lanes and
/// the fault/alert instants on one virtual-time axis.
#[test]
fn gray_failure_fires_and_resolves_the_burn_rate_alert_on_one_timeline() {
    let fault_at = Nanos::from_millis(5);
    let heal_at = Nanos::from_millis(12);
    let lossy = |prob| FaultEvent::LinkLossy { from: 0, to: 2, prob };

    let mut tb = Testbed::new(TestbedConfig {
        hosts: 4,
        cores_per_host: 4,
        topology: Some(ClosSpec::clos(2, 2, 2)),
        trace_sample_ppm: 20_000,
        ..TestbedConfig::default()
    });
    let mut a = tb.pony_app(0, "src", |_| {});
    let mut b = tb.pony_app(2, "sink", |_| {});
    let conn = tb.connect(0, "src", 2, "sink");
    let rec = tb.flight_recorder(RecorderConfig {
        cadence: Nanos::from_micros(100),
        capacity: 1024,
    });
    rec.start(&mut tb.sim);
    let mut slo = SloEngine::new();
    slo.add(SloSpec {
        name: "xrack-latency".to_string(),
        objective: Objective::LatencyBelow {
            series: "workload.latency_ns".to_string(),
            threshold_ns: 150_000,
        },
        target: 0.99,
        short_window: Nanos::from_micros(500),
        long_window: Nanos::from_millis(2),
        burn_threshold: 5.0,
    });
    tb.install_fault_plan(&FaultPlan::new().at(fault_at, lossy(0.25)).at(heal_at, lossy(0.0)));

    // One op in flight; each completion records its latency into the
    // series the SLO watches and submits the next.
    let latency = rec.registry().histogram("workload.latency_ns");
    let send = PonyCommand::Send { conn, stream: 0, len: 2048 };
    a.submit(&mut tb.sim, send.clone());
    let mut sent_at = tb.sim.now();
    while tb.sim.now() < Nanos::from_millis(30) {
        tb.run_us(20);
        for _ in b.take_completions() {}
        for c in a.take_completions_at(tb.sim.now()) {
            if let PonyCompletion::OpDone { .. } = c {
                latency.record(tb.sim.now().saturating_sub(sent_at).as_nanos());
                a.submit(&mut tb.sim, send.clone());
                sent_at = tb.sim.now();
            }
        }
        slo.evaluate(&rec, tb.sim.now());
    }
    rec.stop();

    let transitions: Vec<_> = slo.events().iter().map(|e| (e.state, e.at)).collect();
    let fired = transitions.iter().find(|(s, _)| *s == AlertState::Firing);
    let (_, fired_at) = fired.expect("gray failure never fired the burn-rate alert");
    assert!(
        (fault_at..heal_at).contains(fired_at),
        "alert fired at {fired_at}, outside the fault window"
    );
    let resolved = transitions
        .iter()
        .find(|(s, at)| *s == AlertState::Ok && at > fired_at);
    let (_, resolved_at) = resolved.expect("healed link never resolved the alert");
    assert!(*resolved_at >= heal_at, "alert resolved at {resolved_at}, before the heal");

    let mut tl = Timeline::new();
    tl.add_traces(&tb.recorder.as_ref().expect("tracing enabled").completed());
    tl.add_series_under(&rec, "cpu.h0.core");
    tl.add_series_under(&rec, "cpu.h2.core");
    tl.add_series(&rec, "workload.latency_ns");
    tl.add_alerts(&slo);
    tl.add_instant(fault_at, "fault: link 0->2 lossy 25%");
    tl.add_instant(heal_at, "fault: link 0->2 healed");
    let json = tl.to_json();
    assert!(json.contains("\"ph\": \"X\""), "timeline lost its causal spans");
    assert!(json.contains("\"ph\": \"C\""), "timeline lost its CPU counter lanes");
    assert!(json.contains("\"ph\": \"i\""), "timeline lost its fault/alert instants");
    assert!(json.contains("cpu.h0.core"), "timeline lost host 0's cpu lanes");
    assert!(json.contains("xrack-latency"), "timeline lost the alert instants");
}

/// Four hosts of rack 1 stream into one host of rack 0 over trunks
/// oversubscribed `ratio`:1, a recorder sampling the rack's stats module
/// every 50 us. Returns the peak the
/// recorder saw on the deepest trunk egress queue, in bytes.
fn incast_peak_trunk_queue(ratio: f64) -> i64 {
    let mut tb = Testbed::new(TestbedConfig {
        hosts: 8,
        topology: Some(ClosSpec::clos(2, 4, 2).with_oversubscription(ratio, 50.0)),
        ..TestbedConfig::default()
    });
    let mut sink = tb.pony_app(0, "sink", |_| {});
    let mut sources = Vec::new();
    for h in 4..8 {
        let src = tb.pony_app(h, "src", |_| {});
        let conn = tb.connect(h, "src", 0, "sink");
        sink.submit(
            &mut tb.sim,
            PonyCommand::PostRecvBuffers { conn, count: 64 },
        );
        sources.push((src, conn));
    }
    let rec = FlightRecorder::new(
        RecorderConfig {
            cadence: Nanos::from_micros(50),
            capacity: 4096,
        },
        tb.stats_module(StatsConfig::default()),
    );
    rec.start(&mut tb.sim);
    for (src, conn) in &mut sources {
        for _ in 0..8 {
            src.submit(
                &mut tb.sim,
                PonyCommand::Send {
                    conn: *conn,
                    stream: 0,
                    len: 256 * 1024,
                },
            );
        }
    }
    tb.run_ms(20);
    let arrived = |c: &PonyCompletion| matches!(c, PonyCompletion::RecvMsg { .. });
    let delivered = sink.take_completions().into_iter().filter(arrived).count();
    assert_eq!(delivered, 32, "every message of the incast arrived");
    let trunk_queues = rec
        .series_names()
        .into_iter()
        .filter(|name| name.starts_with("fabric.trunk.") && name.ends_with(".queue_bytes"));
    let levels = trunk_queues
        .flat_map(|name| rec.series(&name))
        .map(|(_, v)| match v {
            PointValue::Level(bytes) => bytes,
            other => panic!("a queue depth is a gauge: {other:?}"),
        });
    levels
        .max()
        .expect("the trunks the incast crossed publish a queue gauge")
}

/// The per-hop queue-depth series says where an incast queues: with
/// the trunk tier oversubscribed 4:1 the deepest trunk queue the
/// recorder saw is deeper than on the same workload at 1:1, where the
/// sink's own port is the bottleneck.
#[test]
fn trunk_queue_gauge_shows_oversubscription_queueing_in_the_fabric() {
    let (at_1, at_4) = (incast_peak_trunk_queue(1.0), incast_peak_trunk_queue(4.0));
    assert!(
        at_4 > at_1,
        "peak trunk queue {at_4} B at 4:1, {at_1} B at 1:1"
    );
}
