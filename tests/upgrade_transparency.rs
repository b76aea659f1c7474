//! Transparent upgrades under load (§4, §5.5): engines migrate one at
//! a time; applications stay connected; streams and one-sided state
//! survive; blackout stays within the paper's envelope.

use snap_repro::core::upgrade::UpgradeOrchestrator;
use snap_repro::pony::client::{OpStatus, PonyCommand, PonyCompletion};
use snap_repro::shm::region::AccessMode;
use snap_repro::sim::Nanos;
use snap_repro::testbed::Testbed;

mod common;

#[test]
fn upgrade_preserves_messaging_and_ordering() {
    let mut tb = Testbed::pair();
    let mut a = tb.pony_app(0, "a", |_| {});
    let mut b = tb.pony_app(1, "b", |_| {});
    let conn = tb.connect(0, "a", 1, "b");
    b.submit(&mut tb.sim, PonyCommand::PostRecvBuffers { conn, count: 256 });

    let mut received = Vec::new();
    let drain = |tb: &mut Testbed, b: &mut snap_repro::pony::PonyClient, out: &mut Vec<u64>| {
        let _ = tb;
        for c in b.take_completions() {
            if let PonyCompletion::RecvMsg { msg, .. } = c {
                out.push(msg);
            }
        }
    };

    for _ in 0..10 {
        a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 700 });
        tb.run_us(200);
        drain(&mut tb, &mut b, &mut received);
    }

    // Upgrade BOTH engines, sequentially (the per-engine incremental
    // migration of §4).
    let mut orch = UpgradeOrchestrator::new();
    for (host, app) in [(0usize, "a"), (1usize, "b")] {
        let id = tb.hosts[host].module.engine_for(app).unwrap();
        let factory = tb.hosts[host].module.upgrade_factory(app).unwrap();
        orch.add_engine(tb.hosts[host].group.clone(), id, 3, factory);
    }
    let report = orch.start(&mut tb.sim);

    // Traffic continues during the upgrade.
    for _ in 0..10 {
        a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 700 });
        tb.run_ms(10);
        drain(&mut tb, &mut b, &mut received);
    }
    tb.run_ms(1000);
    drain(&mut tb, &mut b, &mut received);

    let report = report.borrow().clone().expect("upgrade completed");
    assert_eq!(report.engines.len(), 2);
    for e in &report.engines {
        assert!(
            e.blackout < Nanos::from_millis(250),
            "engine {} blackout {}",
            e.engine,
            e.blackout
        );
    }
    received.sort_unstable();
    received.dedup();
    assert_eq!(received, (0..20).collect::<Vec<u64>>(), "exactly-once, in order");
}

#[test]
fn upgrade_preserves_pending_one_sided_ops() {
    let mut tb = Testbed::pair();
    let mut client = tb.pony_app(0, "client", |_| {});
    let _server = tb.pony_app(1, "server", |_| {});
    let conn = tb.connect(0, "client", 1, "server");
    let region = tb.hosts[1]
        .regions
        .register_with("server", (0u8..100).collect(), AccessMode::ReadOnly);

    // Issue reads, then immediately upgrade the CLIENT engine so the
    // pending-op table must survive serialization.
    let mut ops = Vec::new();
    for i in 0..5u64 {
        ops.push(client.submit(
            &mut tb.sim,
            PonyCommand::Read { conn, region: region.0, offset: i, len: 2 },
        ));
    }
    let id = tb.hosts[0].module.engine_for("client").unwrap();
    let factory = tb.hosts[0].module.upgrade_factory("client").unwrap();
    let mut orch = UpgradeOrchestrator::new();
    orch.add_engine(tb.hosts[0].group.clone(), id, 1, factory);
    let report = orch.start(&mut tb.sim);
    tb.run_ms(1500);
    assert!(report.borrow().is_some());

    let completions = client.take_completions();
    for op in ops {
        let ok = completions.iter().any(|c| matches!(
            c,
            PonyCompletion::OpDone { op: o, status: OpStatus::Ok, .. } if *o == op
        ));
        assert!(ok, "op {op} must complete across the upgrade");
    }
}

/// The flow mapper is derived state: a successor must map each peer to
/// the flow the predecessor used, or a connection made after the
/// upgrade rides another peer's flow.
#[test]
fn new_connection_after_upgrade_reaches_its_peer() {
    common::new_connection_after_rebuild_reaches_its_peer(|tb| {
        let host = &tb.hosts[1];
        let id = host.module.engine_for("b").unwrap();
        let factory = host.module.upgrade_factory("b").unwrap();
        let group = host.group.clone();
        let state = group.with_engine(id, |e| e.serialize_state());
        group.suspend_engine(&mut tb.sim, id);
        let engine = factory(state, &mut tb.sim).expect("checkpoint restores");
        group.resume_engine(&mut tb.sim, id, engine);
    });
}

#[test]
fn blackout_drops_packets_but_transport_recovers() {
    let mut tb = Testbed::pair();
    let mut a = tb.pony_app(0, "a", |_| {});
    let mut b = tb.pony_app(1, "b", |_| {});
    let conn = tb.connect(0, "a", 1, "b");
    b.submit(&mut tb.sim, PonyCommand::PostRecvBuffers { conn, count: 256 });
    tb.run_ms(1);

    // Start a large transfer, then upgrade the receiver mid-flight.
    a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 3_000_000 });
    tb.run_us(300);
    let id = tb.hosts[1].module.engine_for("b").unwrap();
    let factory = tb.hosts[1].module.upgrade_factory("b").unwrap();
    let mut orch = UpgradeOrchestrator::new();
    orch.add_engine(tb.hosts[1].group.clone(), id, 2, factory);
    orch.start(&mut tb.sim);

    tb.run_ms(3000);
    // NIC filter detach during blackout dropped packets...
    let drops = tb
        .fabric
        .with_nic(tb.hosts[1].id, |nic| nic.stats().rx_filter_drops);
    assert!(drops > 0, "blackout should drop packets at the detached filter");
    // ...but the transport recovered them all.
    let delivered: Vec<u64> = b
        .take_completions()
        .into_iter()
        .filter_map(|c| match c {
            PonyCompletion::RecvMsg { len, .. } => Some(len),
            _ => None,
        })
        .collect();
    assert_eq!(delivered, vec![3_000_000], "transfer completed despite blackout loss");
}

#[test]
fn weekly_release_cycle_two_upgrades_back_to_back() {
    // "a new Snap release gets deployed to our fleet on a weekly
    // basis" — state must survive repeated migrations.
    let mut tb = Testbed::pair();
    let mut a = tb.pony_app(0, "a", |_| {});
    let mut b = tb.pony_app(1, "b", |_| {});
    let conn = tb.connect(0, "a", 1, "b");
    let mut total = 0u64;
    for release in 0..2 {
        for _ in 0..5 {
            a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 300 });
            total += 1;
        }
        tb.run_ms(5);
        let id = tb.hosts[1].module.engine_for("b").unwrap();
        let factory = tb.hosts[1].module.upgrade_factory("b").unwrap();
        let mut orch = UpgradeOrchestrator::new();
        orch.add_engine(tb.hosts[1].group.clone(), id, 2, factory);
        let r = orch.start(&mut tb.sim);
        tb.run_ms(500);
        assert!(r.borrow().is_some(), "release {release} completed");
    }
    for _ in 0..5 {
        a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 300 });
        total += 1;
    }
    tb.run_ms(1000);
    let msgs: Vec<u64> = b
        .take_completions()
        .into_iter()
        .filter_map(|c| match c {
            PonyCompletion::RecvMsg { msg, .. } => Some(msg),
            _ => None,
        })
        .collect();
    let mut sorted = msgs.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len() as u64, total, "all messages across two releases");
}

#[test]
fn virt_engine_flow_table_survives_upgrade_under_traffic() {
    use bytes::Bytes;
    use snap_repro::core::engine::Engine as _;
    use snap_repro::core::virt::{Route, VirtAddr, VirtEngine};
    use snap_repro::nic::packet::Packet;
    use std::rc::Rc;

    // One host with a virt engine; a guest keeps sending while the
    // engine migrates; the flow table must survive so post-upgrade
    // packets still route without a slow-path miss.
    let mut tb = Testbed::pair();
    let fabric = tb.fabric.clone();
    let group = tb.hosts[0].group.clone();
    let engine = VirtEngine::new("virt", tb.hosts[0].id, 0xEE, 1, fabric.clone());
    let id = group.add_engine(Box::new(engine));
    let wake = group.wake_handle(id);
    fabric.with_nic(tb.hosts[0].id, |nic| {
        nic.set_irq_handler(Rc::new(move |sim, _q| wake(sim)));
    });

    let src = VirtAddr { tenant: 1, vip: 1 };
    let dst = VirtAddr { tenant: 1, vip: 2 };
    let guest_tx = group.with_engine(id, |e| {
        let ve = e.as_any().downcast_mut::<VirtEngine>().unwrap();
        let (tx, _rx) = ve.attach_guest(src, 128);
        ve.install_route(dst, Route { host: 1, engine_key: 0xEF });
        tx
    });
    let addressed = |len: usize| {
        let mut p = Packet::new(0, 0, Bytes::from(vec![1u8; len]));
        p.rss_hash = ((dst.tenant as u64) << 32) | dst.vip as u64;
        p
    };

    guest_tx.inject(tb.sim.now(), addressed(64));
    group.wake(&mut tb.sim, id);
    tb.run_ms(1);

    // Upgrade: factory rebuilds the engine, restores the flow table,
    // and re-attaches the guest ring (the shm-handle transfer).
    let host = tb.hosts[0].id;
    let fabric2 = fabric.clone();
    let guest_tx2 = guest_tx.clone();
    let mut orch = UpgradeOrchestrator::new();
    orch.add_engine(
        group.clone(),
        id,
        1,
        Box::new(move |state, _sim| {
            let mut v2 = VirtEngine::new("virt-v2", host, 0xEE, 1, fabric2);
            v2.restore_flows(&state);
            // Re-attach the guest with its PRESERVED rings (the shm
            // queues transferred during brownout).
            v2.attach_guest_with_rings(
                VirtAddr { tenant: 1, vip: 1 },
                guest_tx2.clone(),
                snap_repro::core::kernel_inject::KernelRing::new(128),
            );
            Ok(Box::new(v2))
        }),
    );
    let report = orch.start(&mut tb.sim);
    tb.run_ms(200);
    assert!(report.borrow().is_some(), "upgrade completed");

    // Post-upgrade traffic flows through the preserved ring and routes
    // from the restored table: encap proceeds with zero misses.
    guest_tx.inject(tb.sim.now(), addressed(64));
    group.wake(&mut tb.sim, id);
    tb.run_ms(2);
    group.with_engine(id, |e| {
        let ve = e.as_any().downcast_mut::<VirtEngine>().unwrap();
        assert_eq!(ve.name(), "virt-v2", "successor engine is live");
        assert_eq!(ve.flow_count(), 1, "flow table restored");
        assert_eq!(ve.stats().encapped, 1, "post-upgrade packet routed");
        assert_eq!(ve.stats().misses, 0, "no slow-path misses after upgrade");
    });
}
