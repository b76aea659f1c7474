//! Gray-failure detection end to end: a [`HealthRig`]'s in-band
//! probers must notice failures that never trip a liveness check — a
//! link that delivers most packets, a PFC pause storm, an engine that
//! is alive but pathologically slow — and quarantine each within
//! bounded sim-time, without ever firing on a healthy rack.

use snap_repro::core::supervisor::SupervisorConfig;
use snap_repro::health::Target;
use snap_repro::health_rig::HealthRigConfig;
use snap_repro::pony::client::PonyCommand;
use snap_repro::sim::fault::{FaultEvent, FaultPlan};
use snap_repro::sim::Nanos;
use snap_repro::testbed::{Testbed, TestbedConfig};

fn rig_cfg() -> HealthRigConfig {
    HealthRigConfig::default()
}

/// A 40%-lossy (but alive) link is quarantined; the healthy reverse
/// direction and the rack's other links are left alone.
#[test]
fn lossy_link_is_quarantined_within_bounded_time() {
    let mut tb = Testbed::new(TestbedConfig {
        hosts: 3,
        ..TestbedConfig::default()
    });
    let rig = tb.health_rig(rig_cfg());
    rig.start(&mut tb.sim);

    let plan = FaultPlan::new().at(
        Nanos::from_millis(10),
        FaultEvent::LinkLossy {
            from: 0,
            to: 1,
            prob: 0.4,
        },
    );
    tb.install_fault_plan(&plan);
    tb.run_ms(60);
    rig.stop();

    let links = rig.quarantined_links();
    assert!(
        links.contains(&(0, 1)),
        "lossy 0->1 link must be quarantined, got {links:?}"
    );
    // RTT probes measure the round trip, so the reverse direction may
    // legitimately fire too (its responses die on the lossy link) —
    // but detection stays specific to the faulted host pair: links
    // involving host 2 are untouched.
    assert!(
        links.iter().all(|l| matches!(l, (0, 1) | (1, 0))),
        "only the faulted pair: {links:?}"
    );
    assert!(rig.quarantined_engines().is_empty());
    // Bounded detection time: fault at 10ms, caught well within run.
    let score = rig
        .score(Target::Link { from: 0, to: 1 }, tb.sim.now())
        .expect("probed");
    assert!(score.loss_ratio > 0.0 || score.phi > 0.0);
}

/// A PFC pause storm on a host's egress stalls its outbound probes;
/// the detector quarantines a link out of the stormed host.
#[test]
fn pause_storm_triggers_quarantine() {
    let mut tb = Testbed::new(TestbedConfig {
        hosts: 3,
        ..TestbedConfig::default()
    });
    let rig = tb.health_rig(rig_cfg());
    rig.start(&mut tb.sim);

    let plan = FaultPlan::new().at(
        Nanos::from_millis(10),
        FaultEvent::PauseStorm {
            host: 1,
            duration: Nanos::from_millis(20),
        },
    );
    tb.install_fault_plan(&plan);
    tb.run_ms(60);
    rig.stop();

    let links = rig.quarantined_links();
    assert!(
        links.iter().any(|&(from, to)| from == 1 || to == 1),
        "a link touching the stormed host must be quarantined: {links:?}"
    );
}

/// An engine slowed 20x under sustained load stays alive (heartbeats,
/// completes ops) — a binary liveness check never fires. The engine
/// probe's dequeue latency balloons, the verdict goes Degraded, and the
/// supervisor proactively rebuilds the engine, which heals it.
#[test]
fn slow_engine_is_quarantined_and_restart_heals_it() {
    let mut tb = Testbed::pair();
    let mut a = tb.pony_app(0, "client", |_| {});
    let _b = tb.pony_app(1, "server", |_| {});
    let conn = tb.connect(0, "client", 1, "server");
    let sup = tb.supervise_app(
        0,
        "client",
        SupervisorConfig {
            checkpoint_interval: Nanos::from_millis(1),
            restart_cost: Nanos::from_micros(200),
            ..SupervisorConfig::default()
        },
    );
    sup.start(&mut tb.sim);
    let rig = tb.health_rig(rig_cfg());
    tb.health_watch_app(&rig, 0, "client", &sup);
    rig.start(&mut tb.sim);

    let engine = tb.hosts[0].module.engine_for("client").expect("app exists");

    let plan = FaultPlan::new().at(
        Nanos::from_millis(10),
        FaultEvent::EngineSlowdown {
            host: 0,
            engine: engine.0,
            factor: 20.0,
        },
    );
    tb.install_fault_plan(&plan);

    // Sustained streaming load: light for a healthy engine (~9% of a
    // core), saturating at 20x — the slowdown becomes real queueing
    // delay the probe's dequeue latency senses.
    let mut stream = |tb: &mut Testbed, rounds: u32| {
        for _ in 0..rounds {
            for _ in 0..4 {
                a.submit(
                    &mut tb.sim,
                    PonyCommand::Send {
                        conn,
                        stream: 0,
                        len: 2000,
                    },
                );
            }
            tb.run_us(50);
            a.poll();
            a.take_completions();
        }
    };
    // The engine's CPU over 40 rounds (2 ms) of that load.
    let engine_cpu = |tb: &Testbed| {
        let cpu = tb.hosts[0].group.engine_cpu();
        cpu.into_iter()
            .find(|&(id, _)| id == engine)
            .map_or(Nanos::ZERO, |(_, ns)| ns)
    };
    stream(&mut tb, 100);
    let before = engine_cpu(&tb);
    stream(&mut tb, 40);
    let healthy = engine_cpu(&tb) - before;
    stream(&mut tb, 260);
    rig.stop();
    sup.stop();
    tb.run_ms(5);

    assert_eq!(
        rig.quarantined_engines(),
        vec![(0, engine.0)],
        "the slowed engine must be quarantined exactly once"
    );
    assert_eq!(sup.report().quarantine_restarts, 1);
    assert!(rig.quarantined_links().is_empty(), "no link false positives");
    // The rebuild healed the slowdown: the same load costs the rebuilt
    // engine what it cost before the fault, not 20 times that.
    let before = engine_cpu(&tb);
    stream(&mut tb, 40);
    let rebuilt = engine_cpu(&tb) - before;
    assert!(
        rebuilt < healthy * 2,
        "rebuilt engine {rebuilt} vs healthy {healthy} per 2 ms of load"
    );
}

/// Negative control: a healthy rack under the same probing cadence and
/// a live workload produces zero quarantines of any kind, and the rig
/// is deterministic — two identical runs agree on every score.
#[test]
fn healthy_rack_shows_zero_false_positives_and_is_deterministic() {
    let run = || {
        let mut tb = Testbed::pair();
        let mut a = tb.pony_app(0, "client", |_| {});
        let _b = tb.pony_app(1, "server", |_| {});
        let conn = tb.connect(0, "client", 1, "server");
        let sup = tb.supervise_app(0, "client", SupervisorConfig::default());
        sup.start(&mut tb.sim);
        let rig = tb.health_rig(rig_cfg());
        tb.health_watch_app(&rig, 0, "client", &sup);
        rig.start(&mut tb.sim);
        for _ in 0..400 {
            a.submit(
                &mut tb.sim,
                PonyCommand::Send {
                    conn,
                    stream: 0,
                    len: 1000,
                },
            );
            tb.run_us(100);
            a.poll();
            a.take_completions();
        }
        rig.stop();
        sup.stop();
        tb.run_ms(2);
        let now = tb.sim.now();
        let scores: Vec<String> = [
            Target::Link { from: 0, to: 1 },
            Target::Link { from: 1, to: 0 },
        ]
        .into_iter()
        .filter_map(|t| rig.score(t, now).map(|s| format!("{t:?}:{s:?}")))
        .collect();
        (rig.quarantines(), sup.report().restarts(), scores)
    };
    let (q1, r1, s1) = run();
    let (q2, r2, s2) = run();
    assert_eq!(q1, 0, "healthy rack must see zero quarantines");
    assert_eq!(r1, 0, "healthy rack must see zero restarts");
    assert!(!s1.is_empty(), "links were probed");
    assert_eq!((q1, r1, &s1), (q2, r2, &s2), "rig must be deterministic");
}
