//! Fault injection and crash recovery in ~120 lines.
//!
//! Two hosts exchange messages while a scripted [`FaultPlan`] corrupts
//! 2% of payloads, crashes the sender's engine mid-run, partitions the
//! rack for half a second, and then squeezes the sender's memory quota
//! by 90%. An engine [`Supervisor`] (periodic checkpoints + crash
//! detection) restarts the crashed engine from its last checkpoint,
//! and the transport's SACK/RTO machinery carries everything across
//! the partition — every message arrives exactly once, in order. Under
//! the squeeze, best-effort work is shed (attributed, not silently
//! dropped) while transport work keeps flowing.
//!
//! A closing *gray-failure* episode turns the link 30% lossy — alive,
//! so no liveness check ever fires — and shows the health rig's
//! in-band probes scoring and quarantining it while hedged retries
//! keep the last burst flowing, still exactly once.
//!
//! Run with: `cargo run --example fault_injection`

use snap_repro::core::supervisor::SupervisorConfig;
use snap_repro::health_rig::HealthRigConfig;
use snap_repro::isolation::QuotaPolicy;
use snap_repro::nic::packet::QosClass;
use snap_repro::obs::{FlightRecorder, RecorderConfig, Timeline};
use snap_repro::pony::client::{HedgeConfig, OpStatus, PonyCommand, PonyCompletion};
use snap_repro::shm::region::AccessMode;
use snap_repro::sim::fault::{FaultEvent, FaultPlan};
use snap_repro::sim::Nanos;
use snap_repro::telemetry::StatsConfig;
use snap_repro::testbed::{Testbed, TestbedConfig};

fn main() {
    let mut tb = Testbed::new(TestbedConfig {
        admission: true,
        ..TestbedConfig::default()
    });
    let mut app = tb.pony_app(0, "frontend", |_| {});
    let mut srv = tb.pony_app(1, "backend", |_| {});
    let conn = tb.connect(0, "frontend", 1, "backend");
    srv.submit(&mut tb.sim, PonyCommand::PostRecvBuffers { conn, count: 256 });

    // Supervise the sender's engine: checkpoint every millisecond so a
    // crash restores near-current state.
    let sup = tb.supervise_app(
        0,
        "frontend",
        SupervisorConfig {
            checkpoint_interval: Nanos::from_millis(1),
            ..SupervisorConfig::default()
        },
    );
    sup.start(&mut tb.sim);

    // The stats module watches both engines and the fabric; the final
    // accounting below is its table, not hand-rolled println!s. A
    // flight recorder polls it and folds its registry into bounded time
    // series every millisecond, so the run ends with a *timeline* of
    // the whole incident — not just a final table.
    let stats = tb.stats_module(StatsConfig::default());
    let frontend_id = tb.hosts[0].module.engine_for("frontend").expect("engine");
    stats.watch_supervisor(sup.clone(), &[(frontend_id, "h0.frontend".to_string())]);
    let rec = FlightRecorder::new(
        RecorderConfig {
            cadence: Nanos::from_millis(1),
            capacity: 4096,
        },
        stats.clone(),
    );
    rec.start(&mut tb.sim);

    // The fault script: corruption throughout, a crash at 30 ms, a
    // 500 ms partition starting at 150 ms, and a 90% memory squeeze on
    // the frontend container from 2.0 s to 2.4 s.
    let plan = FaultPlan::new()
        .at(Nanos(1), FaultEvent::CorruptRate { prob: 0.02 })
        .at(Nanos::from_millis(30), FaultEvent::EngineCrash { host: 0, engine: 0 })
        .at(Nanos::from_millis(150), FaultEvent::Partition { a: 0, b: 1 })
        .at(Nanos::from_millis(650), FaultEvent::Heal { a: 0, b: 1 })
        .at(
            Nanos::from_millis(2_000),
            FaultEvent::MemoryPressure {
                host: 0,
                container: "frontend".to_string(),
                fraction: 0.9,
            },
        )
        .at(
            Nanos::from_millis(2_400),
            FaultEvent::ReleasePressure {
                host: 0,
                container: "frontend".to_string(),
            },
        );
    tb.install_fault_plan(&plan);

    let mut got: Vec<u64> = Vec::new();
    // Only stream 0 carries the exactly-once workload; stream 1 is the
    // best-effort probe used in the memory-pressure phase below.
    let recv = |srv: &mut snap_repro::pony::PonyClient, got: &mut Vec<u64>| {
        for c in srv.take_completions() {
            if let PonyCompletion::RecvMsg { stream: 0, msg, .. } = c {
                got.push(msg);
            }
        }
    };

    // Three bursts of ten messages: before the crash, after the
    // restart, and straight into the partition.
    for burst in 0..3u64 {
        for _ in 0..10 {
            app.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 20_000 });
            tb.run_ms(2);
            recv(&mut srv, &mut got);
        }
        println!(
            "burst {} submitted (t={:.0}ms), {} delivered so far",
            burst,
            tb.sim.now().0 as f64 / 1e6,
            got.len()
        );
        // Idle past the restart blackout / into the partition window.
        while tb.sim.now() < Nanos::from_millis(80 * (burst + 1)) {
            tb.run_ms(5);
            recv(&mut srv, &mut got);
        }
    }
    // Let the heal and the retransmissions finish.
    while tb.sim.now() < Nanos::from_millis(1_900) {
        tb.run_ms(50);
        recv(&mut srv, &mut got);
    }

    // --- Memory-pressure phase -------------------------------------
    // The frontend pins a 64 KiB cache region (persistent usage) and
    // gets a 100 KB soft budget. Unsqueezed that is comfortable; the
    // scripted 90% squeeze at 2.0 s shrinks it to 10 KB, putting the
    // container under Soft pressure — best-effort work is shed,
    // transport work keeps its exactly-once guarantee.
    tb.hosts[0]
        .regions
        .register_with("frontend", vec![0u8; 64 << 10], AccessMode::ReadWrite);
    let adm = tb.hosts[0].admission.clone().expect("admission enabled");
    adm.set_policy("frontend", QuotaPolicy::with_mem(100_000, u64::MAX))
        .expect("soft <= hard");
    while tb.sim.now() < Nanos::from_millis(2_100) {
        tb.run_ms(10);
        recv(&mut srv, &mut got);
    }
    let probe = |tb: &mut Testbed, app: &mut snap_repro::pony::PonyClient| {
        let op = app.submit_with_class(
            &mut tb.sim,
            PonyCommand::Send { conn, stream: 1, len: 512 },
            QosClass::BestEffort,
        );
        tb.run_ms(5);
        app.take_completions()
            .into_iter()
            .find_map(|c| match c {
                PonyCompletion::OpDone { op: o, status, .. } if o == op => Some(status),
                _ => None,
            })
            .expect("probe completed")
    };
    let squeezed = probe(&mut tb, &mut app);
    println!("best-effort probe under 90% squeeze: {squeezed:?}");
    assert_eq!(squeezed, OpStatus::Shed, "best-effort shed under pressure");
    while tb.sim.now() < Nanos::from_millis(2_500) {
        tb.run_ms(10);
        recv(&mut srv, &mut got);
    }
    let released = probe(&mut tb, &mut app);
    println!("best-effort probe after release: {released:?}");
    assert_eq!(released, OpStatus::Ok, "pressure released");
    while tb.sim.now() < Nanos::from_millis(3_000) {
        tb.run_ms(50);
        recv(&mut srv, &mut got);
    }

    // --- Gray-failure episode --------------------------------------
    // The link goes 30% lossy but stays alive: every liveness check
    // keeps passing. The health rig's in-band RTT probes accumulate
    // loss evidence and quarantine the directed pair; hedged retries
    // on the sender retransmit stragglers early so the final burst
    // still lands exactly once without waiting out full RTOs.
    let rig = tb.health_rig(HealthRigConfig::default());
    rig.start(&mut tb.sim);
    app.enable_hedging(HedgeConfig::default());
    let gray = FaultPlan::new().at(
        tb.sim.now() + Nanos::from_millis(5),
        FaultEvent::LinkLossy { from: 0, to: 1, prob: 0.3 },
    );
    tb.install_fault_plan(&gray);
    for _ in 0..10 {
        app.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 20_000 });
        tb.run_ms(2);
        recv(&mut srv, &mut got);
    }
    while tb.sim.now() < Nanos::from_millis(3_200) {
        tb.run_ms(5);
        recv(&mut srv, &mut got);
    }
    rig.stop();
    let gray_links = rig.quarantined_links();
    println!(
        "gray episode: quarantined links {:?}, hedges fired {}",
        gray_links,
        app.hedge_stats().map(|h| h.hedges_fired).unwrap_or(0)
    );
    assert!(
        gray_links.contains(&(0, 1)),
        "the detector must quarantine the lossy-but-alive link"
    );

    rec.stop();
    rec.sample_once(&tb.sim);
    println!(
        "delivered {}/40 messages, in order: {}",
        got.len(),
        got == (0..40).collect::<Vec<u64>>()
    );

    // Export the incident as a Chrome-trace timeline: engine and
    // fault-accounting counter lanes from the recorder, with every
    // scripted fault as an instant on the same virtual-time axis.
    // Load it at chrome://tracing or ui.perfetto.dev.
    let mut tl = Timeline::new();
    tl.add_series_under(&rec, "engine.h0.frontend.");
    tl.add_series_under(&rec, "fabric.");
    tl.add_instant(Nanos(1), "fault: corruption 2%");
    tl.add_instant(Nanos::from_millis(30), "fault: engine crash h0");
    tl.add_instant(Nanos::from_millis(150), "fault: partition 0<->1");
    tl.add_instant(Nanos::from_millis(650), "fault: heal 0<->1");
    tl.add_instant(Nanos::from_millis(2_000), "fault: memory squeeze 90%");
    tl.add_instant(Nanos::from_millis(2_400), "fault: pressure released");
    tl.add_instant(Nanos::from_millis(3_005), "fault: link 0->1 lossy 30%");
    let timeline_path = "TIMELINE_fault_injection.json";
    std::fs::write(timeline_path, tl.to_json()).expect("write timeline");
    println!(
        "wrote {timeline_path}: {} events over {} recorder ticks",
        tl.len(),
        rec.ticks()
    );
    // The final dashboards: engine op counters, restart/blackout
    // telemetry, and per-link drop attribution from one stats
    // snapshot, plus the admission controller's pressure table.
    let snap = stats.snapshot(tb.sim.now());
    println!("\n{}", snap.to_table());
    println!("quota table:\n{}", adm.table());
    println!("pressure transitions:\n{}", adm.transition_log());
    assert_eq!(got, (0..40).collect::<Vec<u64>>());
    assert_eq!(snap.counter("engine.h0.frontend.restarts.crash"), Some(1));
    assert!(snap.counter("fabric.host1.drops.corruption").unwrap_or(0) > 0);
    // The gray episode's silent drops are on the dashboard too, on the
    // one direction that was lossy.
    let gray_drops = snap.counter("fabric.lossy_drops").unwrap_or(0);
    assert!(gray_drops > 0, "the lossy link dropped packets");
    assert_eq!(snap.counter("fabric.link.0->1.drops.lossy"), Some(gray_drops));
    assert_eq!(snap.counter("fabric.link.1->0.drops.lossy"), None);
    assert!(
        adm.snapshot().iter().any(|s| s.container == "frontend" && s.sheds >= 1),
        "the shed was attributed to the frontend container"
    );
    assert!(
        adm.transitions().iter().any(|t| t.container == "frontend"),
        "pressure transitions were logged"
    );
    println!(
        "recovered from crash + partition + corruption + memory squeeze + gray loss — \
         exactly once, in order"
    );
}
