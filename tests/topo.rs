//! Multi-rack topology, end to end: the degenerate one-rack Clos is
//! pinned byte-identical to the legacy single-switch fabric, cross-rack
//! runs are deterministic under rerun, and randomized topology-aware
//! fault plans (trunk failures, leaf brownouts, gray faults) preserve
//! exactly-once in-order delivery across the spine layer.

use proptest::prelude::*;

use snap_repro::nic::fabric::SwitchId;
use snap_repro::pony::client::{PonyCommand, PonyCompletion};
use snap_repro::sim::fault::{FaultEvent, FaultPlan};
use snap_repro::sim::Nanos;
use snap_repro::testbed::{Testbed, TestbedConfig};
use snap_repro::topo::ClosSpec;

/// Drains `client` completions, appending `(virtual ns, msg id)` for
/// every received message.
fn recv_stamped(
    tb: &Testbed,
    client: &mut snap_repro::pony::PonyClient,
    out: &mut Vec<(u64, u64)>,
) {
    let now = tb.sim.now().as_nanos();
    for c in client.take_completions() {
        if let PonyCompletion::RecvMsg { msg, .. } = c {
            out.push((now, msg));
        }
    }
}

/// Runs a fixed src→sink echo script on a testbed with the given
/// topology and returns the full receive timeline plus the fabric
/// counters that summarize every modeled decision (delivery order,
/// loss draws, switch queueing).
fn echo_timeline(
    topology: Option<ClosSpec>,
    hosts: usize,
    seed: u64,
    loss: f64,
    msgs: u64,
) -> (Vec<(u64, u64)>, u64, u64, u64) {
    let mut tb = Testbed::new(TestbedConfig {
        hosts,
        seed,
        loss,
        topology,
        ..TestbedConfig::default()
    });
    let mut a = tb.pony_app(0, "src", |_| {});
    let mut b = tb.pony_app(hosts - 1, "sink", |_| {});
    let conn = tb.connect(0, "src", hosts - 1, "sink");
    b.submit(&mut tb.sim, PonyCommand::PostRecvBuffers { conn, count: 256 });

    let mut got = Vec::new();
    for _ in 0..msgs {
        a.submit(
            &mut tb.sim,
            PonyCommand::Send {
                conn,
                stream: 0,
                len: 8_000,
            },
        );
        tb.run_us(100);
        recv_stamped(&tb, &mut b, &mut got);
    }
    // Drain retransmissions (loss may delay the tail).
    let deadline = tb.sim.now() + Nanos::from_millis(20);
    while (got.len() as u64) < msgs && tb.sim.now() < deadline {
        tb.run_us(200);
        recv_stamped(&tb, &mut b, &mut got);
    }
    let stats = tb.fabric.stats();
    (got, stats.delivered, stats.random_drops, stats.switch_drops)
}

proptest! {
    /// The degenerate instance is not "close": a one-rack Clos — even
    /// with an (unused) spine layer configured — produces the exact
    /// receive timeline and fabric counters of the legacy
    /// single-switch fabric, message for message, nanosecond for
    /// nanosecond, across seeds and loss rates.
    #[test]
    fn one_rack_clos_is_byte_identical_to_legacy_fabric(
        hosts in 2usize..4,
        seed in 0u64..200,
        loss_pm in 0u64..80,
    ) {
        let loss = loss_pm as f64 / 1000.0;
        let legacy = echo_timeline(None, hosts, seed, loss, 8);
        let degenerate = echo_timeline(
            Some(ClosSpec::clos(1, hosts as u32, 2)),
            hosts,
            seed,
            loss,
            8,
        );
        prop_assert_eq!(&legacy, &degenerate, "degenerate topology diverged");
    }
}

/// Builds the 2-rack, 2-spine testbed (hosts 0-1 in rack 0, 2-3 in
/// rack 1) with a custom seed.
fn two_rack_testbed(seed: u64) -> Testbed {
    Testbed::new(TestbedConfig {
        hosts: 4,
        seed,
        topology: Some(ClosSpec::clos(2, 2, 2)),
        ..TestbedConfig::default()
    })
}

/// Cross-rack runs replay bit-identically: same seed, same spec, same
/// receive timeline — and the traffic demonstrably crossed the spine
/// layer.
#[test]
fn cross_rack_run_is_deterministic_under_rerun() {
    let run = || {
        let mut tb = two_rack_testbed(77);
        let mut a = tb.pony_app(0, "src", |_| {});
        let mut b = tb.pony_app(2, "sink", |_| {});
        let conn = tb.connect(0, "src", 2, "sink");
        b.submit(&mut tb.sim, PonyCommand::PostRecvBuffers { conn, count: 256 });
        let mut got = Vec::new();
        for _ in 0..12 {
            a.submit(
                &mut tb.sim,
                PonyCommand::Send {
                    conn,
                    stream: 0,
                    len: 4_000,
                },
            );
            tb.run_us(120);
            recv_stamped(&tb, &mut b, &mut got);
        }
        tb.run_ms(5);
        recv_stamped(&tb, &mut b, &mut got);
        let trunk_forwarded: u64 = tb
            .fabric
            .trunks()
            .iter()
            .map(|(_, s)| s.forwarded)
            .sum();
        (got, trunk_forwarded, tb.fabric.stats().delivered)
    };
    let (got1, fwd1, del1) = run();
    let (got2, fwd2, del2) = run();
    assert!(!got1.is_empty(), "messages arrived");
    assert!(fwd1 > 0, "cross-rack traffic rode the trunks");
    assert_eq!(got1, got2, "rerun produced a different timeline");
    assert_eq!((fwd1, del1), (fwd2, del2), "rerun produced different counters");
}

/// The pseudo-host trace ids of a multi-rack topology are stamped per
/// switch hop: a cross-rack packet's trace shows three distinct fabric
/// stamps (src leaf, spine, dst leaf).
#[test]
fn cross_rack_packets_traverse_three_switches() {
    let mut tb = two_rack_testbed(5);
    let topo = tb.fabric.topology();
    assert!(!topo.same_rack(0, 2), "hosts 0 and 2 are a spine apart");
    assert!(topo.same_rack(0, 1));
    // Distinct trace hosts per switch (stable attribution targets).
    let l0 = topo.trace_host(SwitchId::Leaf(0));
    let l1 = topo.trace_host(SwitchId::Leaf(1));
    let s0 = topo.trace_host(SwitchId::Spine(0));
    let s1 = topo.trace_host(SwitchId::Spine(1));
    assert_eq!(
        [l0, l1, s0, s1].iter().collect::<std::collections::HashSet<_>>().len(),
        4
    );
    // And the fabric actually is the one the testbed advertised.
    let mut a = tb.pony_app(0, "src", |_| {});
    let _b = tb.pony_app(2, "sink", |_| {});
    let conn = tb.connect(0, "src", 2, "sink");
    a.submit(
        &mut tb.sim,
        PonyCommand::Send {
            conn,
            stream: 0,
            len: 2_000,
        },
    );
    tb.run_ms(2);
    let up: u64 = tb
        .fabric
        .trunks()
        .iter()
        .filter(|((from, _), _)| matches!(from, SwitchId::Leaf(_)))
        .map(|(_, s)| s.forwarded)
        .sum();
    let down: u64 = tb
        .fabric
        .trunks()
        .iter()
        .filter(|((from, _), _)| matches!(from, SwitchId::Spine(_)))
        .map(|(_, s)| s.forwarded)
        .sum();
    assert!(up > 0 && down > 0, "both trunk tiers carried the flow");
}

proptest! {
    /// Randomized topology-aware fault plans — trunk failures, leaf
    /// brownouts, lossy links, jitter, pause storms — on a 2x2x2 Clos:
    /// every cross-rack message still arrives exactly once, in order.
    /// Engine crashes are filtered out (crash recovery is the
    /// supervision suite's concern; the fabric arms are under test
    /// here).
    #[test]
    fn randomized_topo_plans_preserve_exactly_once(plan_seed in 0u64..150) {
        let raw = FaultPlan::randomized_topo(
            plan_seed,
            Nanos::from_millis(10),
            4, // hosts
            1, // engines per host
            8, // fault arms
            2, // racks
            2, // spines
        );
        let mut plan = FaultPlan::new();
        for (at, ev) in raw.entries() {
            if matches!(ev, FaultEvent::EngineCrash { .. }) {
                continue;
            }
            plan = plan.at(*at, ev.clone());
        }

        let mut tb = two_rack_testbed(plan_seed ^ 0x7070);
        let mut a = tb.pony_app(0, "src", |_| {});
        let mut b = tb.pony_app(2, "sink", |_| {});
        let conn = tb.connect(0, "src", 2, "sink");
        b.submit(&mut tb.sim, PonyCommand::PostRecvBuffers { conn, count: 256 });
        tb.install_fault_plan(&plan);

        const MSGS: u64 = 20;
        let mut got = Vec::new();
        for _ in 0..MSGS {
            a.submit(
                &mut tb.sim,
                PonyCommand::Send {
                    conn,
                    stream: 0,
                    len: 1_500,
                },
            );
            tb.run_us(400);
            recv_stamped(&tb, &mut b, &mut got);
        }
        // All trunk failures and brownouts heal within the plan
        // horizon; give retransmission room to finish after it.
        let deadline = tb.sim.now() + Nanos::from_millis(200);
        while (got.len() as u64) < MSGS && tb.sim.now() < deadline {
            tb.run_ms(2);
            recv_stamped(&tb, &mut b, &mut got);
        }

        let msgs: Vec<u64> = got.iter().map(|&(_, m)| m).collect();
        prop_assert_eq!(
            msgs,
            (0..MSGS).collect::<Vec<u64>>(),
            "exactly once, in order, under plan seed {}",
            plan_seed
        );
    }
}

/// Paper-scale smoke test: the §5.2 deployment shape (7 racks x 6
/// hosts, 3 spines = 42 hosts) carries one cross-rack message per rack
/// pair and replays deterministically.
#[test]
fn forty_two_host_clos_carries_cross_rack_traffic_deterministically() {
    let run = || {
        let mut tb = Testbed::clos(7, 6, 3);
        // One sender per rack, each to the next rack's sink (hosts 0,
        // 6, 12, ... are rack-first hosts).
        let mut senders = Vec::new();
        let mut sinks = Vec::new();
        for r in 0..7usize {
            let src = r * 6;
            let dst = ((r + 1) % 7) * 6;
            let a = tb.pony_app(src, &format!("src{r}"), |_| {});
            let mut b = tb.pony_app(dst, &format!("sink{r}"), |_| {});
            let conn = tb.connect(src, &format!("src{r}"), dst, &format!("sink{r}"));
            b.submit(&mut tb.sim, PonyCommand::PostRecvBuffers { conn, count: 32 });
            senders.push((a, conn));
            sinks.push(b);
        }
        for (a, conn) in &mut senders {
            a.submit(
                &mut tb.sim,
                PonyCommand::Send {
                    conn: *conn,
                    stream: 0,
                    len: 4_000,
                },
            );
        }
        tb.run_ms(5);
        let mut got = Vec::new();
        for b in &mut sinks {
            recv_stamped(&tb, b, &mut got);
        }
        let trunk_forwarded: u64 = tb.fabric.trunks().iter().map(|(_, s)| s.forwarded).sum();
        (got.len(), trunk_forwarded, tb.fabric.stats().delivered)
    };
    let one = run();
    let two = run();
    assert_eq!(one.0, 7, "every rack's message arrived");
    assert!(one.1 > 0, "traffic crossed the spine layer");
    assert_eq!(one, two, "42-host run diverged under rerun");
}
