//! Fault injection and recovery, end to end: a scripted [`FaultPlan`]
//! crashes engines, partitions the fabric, and corrupts packets while
//! two hosts exchange messages; engine supervision (checkpoint/restart)
//! and the transport's SACK/RTO machinery must together deliver every
//! message exactly once, in order. A negative control shows the same
//! faults are fatal without supervision, and a separate scenario drives
//! the upgrade-rollback path by crashing the successor mid-migration.

use std::sync::OnceLock;

use proptest::prelude::*;

use snap_repro::core::supervisor::SupervisorConfig;
use snap_repro::core::upgrade::UpgradeOrchestrator;
use snap_repro::nic::fabric::{FabricConfig, FabricHandle};
use snap_repro::nic::nic::NicConfig;
use snap_repro::pony::client::{PonyCommand, PonyCompletion};
use snap_repro::pony::engine::{PonyEngine, PonyEngineConfig, SessionTable};
use snap_repro::pony::flow::Flow;
use snap_repro::pony::timely::TimelyConfig;
use snap_repro::shm::account::MemoryAccountant;
use snap_repro::shm::region::RegionRegistry;
use snap_repro::sim::codec::DecodeError;
use snap_repro::sim::fault::{FaultEvent, FaultPlan};
use snap_repro::sim::Nanos;
use snap_repro::testbed::{Testbed, TestbedConfig};

mod common;

fn recv_msgs(client: &mut snap_repro::pony::PonyClient, out: &mut Vec<u64>) {
    for c in client.take_completions() {
        if let PonyCompletion::RecvMsg { msg, .. } = c {
            out.push(msg);
        }
    }
}

/// The tentpole scenario: 2% payload corruption throughout, the
/// sender engine crashes mid-run, and a 500 ms partition cuts the rack
/// in half — yet with supervision every message arrives exactly once,
/// in order.
#[test]
fn echo_survives_crash_partition_and_corruption() {
    let mut tb = Testbed::pair();
    let mut a = tb.pony_app(0, "client", |_| {});
    let mut b = tb.pony_app(1, "server", |_| {});
    let conn = tb.connect(0, "client", 1, "server");
    b.submit(&mut tb.sim, PonyCommand::PostRecvBuffers { conn, count: 256 });

    // Tight checkpoints so the crash restores near-current state; the
    // crash lands during a quiet window, so recovery is lossless.
    let sup = tb.supervise_app(
        0,
        "client",
        SupervisorConfig {
            checkpoint_interval: Nanos::from_millis(1),
            ..SupervisorConfig::default()
        },
    );
    sup.start(&mut tb.sim);

    let plan = FaultPlan::new()
        .at(Nanos(1), FaultEvent::CorruptRate { prob: 0.02 })
        .at(
            Nanos::from_millis(30),
            FaultEvent::EngineCrash { host: 0, engine: 0 },
        )
        .at(
            Nanos::from_millis(150),
            FaultEvent::Partition { a: 0, b: 1 },
        )
        .at(Nanos::from_millis(650), FaultEvent::Heal { a: 0, b: 1 });
    tb.install_fault_plan(&plan);

    let mut got = Vec::new();
    // Phase A: before the crash (quiesces by t=30ms).
    for _ in 0..10 {
        a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 20_000 });
        tb.run_ms(2);
        recv_msgs(&mut b, &mut got);
    }
    // Phase B: after the restart (restart blackout is ~25 ms).
    while tb.sim.now() < Nanos::from_millis(80) {
        tb.run_ms(5);
    }
    for _ in 0..10 {
        a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 20_000 });
        tb.run_ms(2);
        recv_msgs(&mut b, &mut got);
    }
    // Phase C: submitted into the partition; retransmission carries
    // them across once the link heals.
    while tb.sim.now() < Nanos::from_millis(200) {
        tb.run_ms(5);
    }
    for _ in 0..10 {
        a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 20_000 });
        tb.run_ms(2);
        recv_msgs(&mut b, &mut got);
    }
    // Let the heal + retransmissions finish.
    while tb.sim.now() < Nanos::from_millis(3_000) {
        tb.run_ms(50);
        recv_msgs(&mut b, &mut got);
    }

    assert_eq!(
        got,
        (0..30).collect::<Vec<u64>>(),
        "every message exactly once, in order"
    );
    let report = sup.report();
    assert_eq!(report.crash_restarts, 1, "supervisor restarted the crashed engine");
    assert!(report.checkpoints > 10, "periodic checkpoints accumulated");

    // Fault accounting: the server-side host saw both corruption drops
    // (counted at the switch) and CRC rejections (counted at the NIC),
    // and the partition dropped packets in at least one direction.
    let dr1 = tb.fabric.drop_reasons(1);
    assert!(dr1.corruption > 0, "corruption events recorded: {dr1:?}");
    assert!(dr1.crc_bad > 0, "corrupted packets rejected by CRC: {dr1:?}");
    let dr0 = tb.fabric.drop_reasons(0);
    assert!(
        dr0.partition + dr1.partition > 0,
        "partition dropped packets: {dr0:?} {dr1:?}"
    );
}

/// Burst delivery keeps per-packet fault semantics: with the batched
/// datapath (default 16-packet polling and fabric packet trains), a
/// corruption rate active for the whole run and a partition that cuts
/// the rack while trains are in flight must still yield exactly-once,
/// in-order delivery — faults hit individual packets inside a train,
/// never the train as a unit, and SACK/RTO recover the holes.
#[test]
fn burst_trains_preserve_exactly_once_under_faults() {
    let mut tb = Testbed::pair();
    let mut a = tb.pony_app(0, "src", |_| {});
    let mut b = tb.pony_app(1, "sink", |_| {});
    let conn = tb.connect(0, "src", 1, "sink");

    let plan = FaultPlan::new()
        .at(Nanos(1), FaultEvent::CorruptRate { prob: 0.05 })
        .at(Nanos::from_millis(5), FaultEvent::Partition { a: 0, b: 1 })
        .at(Nanos::from_millis(20), FaultEvent::Heal { a: 0, b: 1 });
    tb.install_fault_plan(&plan);

    // Bursts of back-to-back sends keep the tx queue deep enough that
    // multi-packet trains form; some land inside the partition window
    // and are retransmitted across the heal.
    const MSGS: u64 = 200;
    let mut submitted = 0u64;
    let mut got = Vec::new();
    while submitted < MSGS {
        for _ in 0..8 {
            a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 4096 });
            submitted += 1;
        }
        tb.run_us(500);
        recv_msgs(&mut b, &mut got);
    }
    let deadline = Nanos::from_millis(2_000);
    while (got.len() as u64) < MSGS && tb.sim.now() < deadline {
        tb.run_ms(10);
        recv_msgs(&mut b, &mut got);
    }

    assert_eq!(
        got,
        (0..MSGS).collect::<Vec<u64>>(),
        "burst delivery must be exactly once, in order"
    );
    // The faults really fired inside trains: corrupted packets were
    // rejected by the receiving NIC's CRC check and the partition
    // dropped packets at the switch.
    let dr = tb.fabric.drop_reasons(1);
    assert!(dr.corruption > 0, "corruption hit packets in-flight: {dr:?}");
    assert!(dr.crc_bad > 0, "CRC rejections recorded: {dr:?}");
    let dr0 = tb.fabric.drop_reasons(0);
    assert!(
        dr0.partition + dr.partition > 0,
        "partition dropped packets: {dr0:?} {dr:?}"
    );
}

/// Negative control: the identical crash without a supervisor is fatal
/// — the sender engine never comes back and later messages are lost.
#[test]
fn without_supervision_the_same_crash_is_fatal() {
    let mut tb = Testbed::pair();
    let mut a = tb.pony_app(0, "client", |_| {});
    let mut b = tb.pony_app(1, "server", |_| {});
    let conn = tb.connect(0, "client", 1, "server");
    b.submit(&mut tb.sim, PonyCommand::PostRecvBuffers { conn, count: 256 });

    let plan = FaultPlan::new().at(
        Nanos::from_millis(30),
        FaultEvent::EngineCrash { host: 0, engine: 0 },
    );
    tb.install_fault_plan(&plan);

    let mut got = Vec::new();
    for _ in 0..10 {
        a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 20_000 });
        tb.run_ms(2);
        recv_msgs(&mut b, &mut got);
    }
    while tb.sim.now() < Nanos::from_millis(80) {
        tb.run_ms(5);
    }
    for _ in 0..10 {
        a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 20_000 });
        tb.run_ms(2);
        recv_msgs(&mut b, &mut got);
    }
    while tb.sim.now() < Nanos::from_millis(2_000) {
        tb.run_ms(50);
        recv_msgs(&mut b, &mut got);
    }
    assert!(
        got.len() < 20,
        "without supervision the post-crash messages must be lost, got {}",
        got.len()
    );
}

/// A supervisor restart rebuilds the engine from its checkpoint the
/// same way an upgrade does; connections made afterwards must reach
/// their own peer.
#[test]
fn new_connection_after_supervisor_restart_reaches_its_peer() {
    common::new_connection_after_rebuild_reaches_its_peer(|tb| {
        let id = tb.hosts[1].module.engine_for("b").unwrap();
        let sup = tb.supervise_app(
            1,
            "b",
            SupervisorConfig {
                checkpoint_interval: Nanos::from_millis(1),
                ..SupervisorConfig::default()
            },
        );
        sup.start(&mut tb.sim);
        tb.run_ms(5);
        tb.hosts[1].group.kill_engine(id);
        tb.run_ms(60);
        assert_eq!(sup.report().crash_restarts, 1, "b's engine was restarted");
    });
}

/// A successor crash injected mid-blackout makes the upgrade roll back
/// to the still-live predecessor; the extra outage is bounded (well
/// under the paper's 250 ms envelope) and traffic continues on the
/// original engine.
#[test]
fn successor_crash_mid_upgrade_rolls_back_within_blackout_budget() {
    let mut tb = Testbed::pair();
    let mut a = tb.pony_app(0, "client", |_| {});
    let mut b = tb.pony_app(1, "server", |_| {});
    let conn = tb.connect(0, "client", 1, "server");
    b.submit(&mut tb.sim, PonyCommand::PostRecvBuffers { conn, count: 256 });

    let mut got = Vec::new();
    for _ in 0..10 {
        a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 700 });
        tb.run_ms(2);
        recv_msgs(&mut b, &mut got);
    }

    // Upgrade the server engine; crash the successor 1 ms into the
    // blackout (no brownout: connections = 0, so blackout starts now).
    let server_engine = tb.hosts[1].module.engine_for("server").unwrap();
    let factory = tb.hosts[1].module.upgrade_factory("server").unwrap();
    let mut orch = UpgradeOrchestrator::new();
    orch.add_engine(tb.hosts[1].group.clone(), server_engine, 0, factory);
    let crash_at = tb.sim.now() + Nanos::from_millis(1);
    let plan = FaultPlan::new().at(crash_at, FaultEvent::EngineCrash { host: 1, engine: 0 });
    tb.install_fault_plan(&plan);
    let result = orch.start(&mut tb.sim);

    tb.run_ms(300);
    let report = result.borrow().clone().expect("upgrade finished");
    assert_eq!(report.rollbacks(), 1, "migration rolled back");
    assert!(report.engines[0].rolled_back);
    assert!(
        report.engines[0].blackout < Nanos::from_millis(250),
        "rollback blackout {} within the SLO envelope",
        report.engines[0].blackout
    );

    // The predecessor keeps serving: the same connection and stream
    // continue, exactly once and in order.
    for _ in 0..10 {
        a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 700 });
        tb.run_ms(2);
        recv_msgs(&mut b, &mut got);
    }
    while tb.sim.now() < Nanos::from_millis(2_000) {
        tb.run_ms(50);
        recv_msgs(&mut b, &mut got);
    }
    assert_eq!(
        got,
        (0..20).collect::<Vec<u64>>(),
        "stream survived the rolled-back upgrade intact"
    );
}

// Checkpoint robustness properties: deserialization of damaged
// snapshots must fail with a typed error — the supervisor's fresh-start
// fallback and the upgrade rollback both depend on it never panicking.
proptest! {
    /// Gray faults end to end: a lossy-but-alive link plus a PFC pause
    /// storm, with hedged retries enabled on the sender and a
    /// quarantine rebuild of the sender engine mid-run. Every message
    /// must still arrive exactly once, in order — hedge duplicates are
    /// absorbed by the engine's per-session op watermark, and the
    /// watermark itself survives the checkpoint/restore cycle.
    #[test]
    fn gray_faults_with_hedging_and_quarantine_preserve_exactly_once(
        loss_pm in 20u64..250,
        storm_at_us in 500u64..3_000,
        storm_us in 200u64..2_000,
    ) {
        use snap_repro::pony::client::HedgeConfig;

        let loss = loss_pm as f64 / 1000.0;

        let mut tb = Testbed::pair();
        let mut a = tb.pony_app(0, "src", |_| {});
        a.enable_hedging(HedgeConfig::default());
        let mut b = tb.pony_app(1, "sink", |_| {});
        let conn = tb.connect(0, "src", 1, "sink");
        let sup = tb.supervise_app(
            0,
            "src",
            SupervisorConfig {
                checkpoint_interval: Nanos::from_millis(1),
                restart_cost: Nanos::from_micros(200),
                ..SupervisorConfig::default()
            },
        );
        sup.start(&mut tb.sim);
        let engine = tb.hosts[0].module.engine_for("src").expect("app exists");

        let plan = FaultPlan::new()
            .at(Nanos(1), FaultEvent::LinkLossy { from: 0, to: 1, prob: loss })
            .at(
                Nanos::from_micros(storm_at_us),
                FaultEvent::PauseStorm {
                    host: 1,
                    duration: Nanos::from_micros(storm_us),
                },
            );
        tb.install_fault_plan(&plan);

        const MSGS: u64 = 40;
        let mut got = Vec::new();
        let send_phase = |tb: &mut Testbed,
                              a: &mut snap_repro::pony::PonyClient,
                              b: &mut snap_repro::pony::PonyClient,
                              got: &mut Vec<u64>,
                              n: u64| {
            for _ in 0..n {
                a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 1500 });
                tb.run_us(150);
                let now = tb.sim.now();
                a.take_completions_at(now);
                recv_msgs(b, got);
            }
        };
        // Phase 1 under faults, then drain to a quiet window so the
        // checkpoint the quarantine rebuilds from is complete.
        send_phase(&mut tb, &mut a, &mut b, &mut got, MSGS / 2);
        let deadline = tb.sim.now() + Nanos::from_millis(200);
        while (got.len() as u64) < MSGS / 2 && tb.sim.now() < deadline {
            tb.run_ms(2);
            let now = tb.sim.now();
            a.take_completions_at(now);
            recv_msgs(&mut b, &mut got);
        }
        tb.run_ms(3); // a checkpoint pass captures the quiesced state

        // Proactive quarantine rebuild (what the health sweep does on a
        // Degraded verdict), then phase 2 under the same lossy link.
        prop_assert!(sup.quarantine(&mut tb.sim, &tb.hosts[0].group, engine));
        tb.run_ms(2);
        send_phase(&mut tb, &mut a, &mut b, &mut got, MSGS / 2);
        let deadline = tb.sim.now() + Nanos::from_millis(500);
        while (got.len() as u64) < MSGS && tb.sim.now() < deadline {
            tb.run_ms(2);
            let now = tb.sim.now();
            a.take_completions_at(now);
            recv_msgs(&mut b, &mut got);
        }

        prop_assert_eq!(
            got,
            (0..MSGS).collect::<Vec<u64>>(),
            "exactly once, in order, despite loss {} + storm + quarantine",
            loss
        );
        prop_assert_eq!(sup.report().quarantine_restarts, 1);
    }

    /// Damage to a populated flow checkpoint — a truncation, one flipped
    /// bit — is an `Err` (or, for a flip, a clean `Ok`), never a panic.
    #[test]
    fn corrupt_flow_checkpoints_never_panic(
        cut in any::<usize>(),
        flip_byte in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let snapshot = populated_flow().serialize();
        let restore = |bytes: &[u8]| Flow::deserialize(bytes, TimelyConfig::default(), Nanos(1));
        prop_assert!(restore(&snapshot).is_ok());

        let cut = cut % snapshot.len();
        prop_assert!(restore(&snapshot[..cut]).is_err(), "truncated at {cut} of {}", snapshot.len());

        let mut flipped = snapshot.clone();
        flipped[flip_byte % snapshot.len()] ^= 1 << flip_bit;
        let _ = restore(&flipped);
    }

    /// The same property for full engine checkpoints through
    /// [`PonyEngine::restore`], drawn from [`populated_checkpoints`].
    #[test]
    fn corrupt_engine_checkpoints_never_panic(
        which in 0usize..3,
        cut in any::<usize>(),
        flip_byte in any::<usize>(),
        flip_bit in 0u8..8,
    ) {
        let (engine_key, snapshot) = &populated_checkpoints()[which];
        prop_assert!(restore_engine(*engine_key, snapshot).is_ok());

        let cut = cut % snapshot.len();
        prop_assert!(
            restore_engine(*engine_key, &snapshot[..cut]).is_err(),
            "checkpoint {which} truncated at {cut} of {}",
            snapshot.len()
        );

        let mut flipped = snapshot.clone();
        flipped[flip_byte % snapshot.len()] ^= 1 << flip_bit;
        let _ = restore_engine(*engine_key, &flipped);
    }
}

/// A flow with every part of its checkpoint populated: packets in
/// flight, others expired onto the retransmit queue, frames not yet
/// sent, and a receive window with holes above the cumulative point.
fn populated_flow() -> Flow {
    let chunk = |msg| snap_repro::pony::wire::OpFrame::MsgChunk {
        conn: 1,
        stream: 0,
        msg,
        offset: 0,
        total: 64,
        len: 64,
    };
    let mut flow = Flow::new(7, 5, TimelyConfig::default());
    let mut peer = Flow::new(7, 5, TimelyConfig::default());
    for msg in 0..12 {
        flow.enqueue(chunk(msg), Nanos::ZERO);
        peer.enqueue(chunk(msg), Nanos::ZERO);
    }
    // Six packets leave and expire; two of them leave again.
    let mut now = Nanos::ZERO;
    for _ in 0..6 {
        now += Nanos::from_millis(1);
        flow.produce(now).expect("paced out by now");
    }
    now += Nanos::from_millis(100);
    assert_eq!(flow.check_rto(now), 6);
    for _ in 0..2 {
        now += Nanos::from_millis(1);
        flow.produce(now).expect("a retransmission");
    }
    assert_eq!((flow.inflight(), flow.pending_tx()), (2, 4 + 6));
    // Of the peer's first seven packets, seqs 1, 4 and 5 are lost.
    for seq in 0..7 {
        now += Nanos::from_millis(1);
        let pkt = peer.produce(now).expect("paced out by now");
        if ![1, 4, 5].contains(&seq) {
            flow.on_packet(&pkt, now);
        }
    }
    flow
}

/// Restores `state` as the engine with `engine_key` on a fresh fabric.
fn restore_engine(engine_key: u64, state: &[u8]) -> Result<PonyEngine, DecodeError> {
    let fabric = FabricHandle::new(FabricConfig::default());
    let host = fabric.add_host(NicConfig::default());
    PonyEngine::restore(
        state,
        PonyEngineConfig::new("prop", host, engine_key),
        fabric,
        RegionRegistry::new(MemoryAccountant::new()),
        SessionTable::default(),
        Nanos(1),
    )
}

/// The checkpoint of `app`'s engine on `host`, and the engine's key.
fn checkpoint_of(tb: &Testbed, host: usize, app: &str) -> (u64, Vec<u8>) {
    let id = tb.hosts[host]
        .module
        .engine_for(app)
        .expect("app has an engine");
    let state = tb.hosts[host]
        .group
        .with_engine(id, |e| e.serialize_state());
    // `PonyModule` numbers a host's engines from `host << 16 | 1`.
    ((host as u64) << 16 | 1, state)
}

/// Engine checkpoints with every record populated, as `(engine key,
/// bytes)`, built once: the sender and the receiver of
/// `tests/engine_pass_golden.rs`'s checkpointed lossy stream (partly
/// acked sends, packets in flight, on the retransmit queue and unsent;
/// two messages partly reassembled across holes, a SACK window), and an
/// engine with a send held back by flow control, a one-sided op
/// awaiting its response and a hedge watermark.
fn populated_checkpoints() -> &'static [(u64, Vec<u8>); 3] {
    static BUILT: OnceLock<[(u64, Vec<u8>); 3]> = OnceLock::new();
    BUILT.get_or_init(|| {
        let mut tb = Testbed::new(TestbedConfig {
            loss: 0.01,
            seed: 5,
            ..TestbedConfig::default()
        });
        let mut tx = tb.pony_app(0, "tx", |_| {});
        let mut rx = tb.pony_app(1, "rx", |_| {});
        let conn = tb.connect(0, "tx", 1, "rx");
        rx.submit(
            &mut tb.sim,
            PonyCommand::PostRecvBuffers { conn, count: 64 },
        );
        tb.run_us(50);
        for _ in 0..4 {
            tx.submit(
                &mut tb.sim,
                PonyCommand::Send {
                    conn,
                    stream: 0,
                    len: 500_000,
                },
            );
        }
        tb.run_us(830);
        let sender = checkpoint_of(&tb, 0, "tx");
        let receiver = checkpoint_of(&tb, 1, "rx");
        assert!(
            sender.1.len() > 30_000 && receiver.1.len() > 8_000,
            "the stream is mid-transfer on both sides"
        );

        // No buffer is posted for the large send, and the partition
        // keeps the read's response away.
        let mut tb = Testbed::pair();
        let mut app = tb.pony_app(0, "app", |_| {});
        let _peer = tb.pony_app(1, "peer", |_| {});
        let conn = tb.connect(0, "app", 1, "peer");
        tb.install_fault_plan(&FaultPlan::new().at(Nanos(1), FaultEvent::Partition { a: 0, b: 1 }));
        app.submit(
            &mut tb.sim,
            PonyCommand::Send {
                conn,
                stream: 0,
                len: 1_000_000,
            },
        );
        app.submit(
            &mut tb.sim,
            PonyCommand::Read {
                conn,
                region: 1,
                offset: 0,
                len: 8,
            },
        );
        tb.run_us(100);
        [sender, receiver, checkpoint_of(&tb, 0, "app")]
    })
}

/// Framing the random draws would rarely hit: bytes after the end of a
/// checkpoint (of the engine's, or of a flow's nested in it) and an
/// op-kind byte no version wrote are errors, not ignored.
#[test]
fn checkpoints_reject_trailing_bytes_and_unknown_op_kinds() {
    for (engine_key, snapshot) in populated_checkpoints() {
        let mut longer = snapshot.clone();
        longer.push(0);
        assert!(
            restore_engine(*engine_key, &longer).is_err(),
            "a byte past the end"
        );
    }
    let mut longer = populated_flow().serialize();
    longer.push(0);
    assert!(Flow::deserialize(&longer, TimelyConfig::default(), Nanos(1)).is_err());

    // The third checkpoint ends: one pending op (op id, kind byte, conn,
    // session as bool + u64, issued_at), then one watermark (count,
    // session, op id).
    let (engine_key, snapshot) = &populated_checkpoints()[2];
    let kind_at = snapshot.len() - (4 + 8 + 8) - (8 + 1 + 8 + 8) - 1;
    assert_eq!(snapshot[kind_at], 1, "the pending op is a Read");
    let mut unknown = snapshot.clone();
    unknown[kind_at] = 5;
    assert!(
        restore_engine(*engine_key, &unknown).is_err(),
        "kind byte 5"
    );
}

/// Negative control for gray-failure detection: a healthy rack under
/// full probing (links and a supervised workload engine) and a live
/// workload must produce zero quarantines — the detector's warmup,
/// thresholds, and latching may never fire on nominal behavior.
#[test]
fn healthy_run_produces_zero_quarantines() {
    use snap_repro::health_rig::HealthRigConfig;

    let mut tb = Testbed::pair();
    let mut a = tb.pony_app(0, "client", |_| {});
    let _b = tb.pony_app(1, "server", |_| {});
    let conn = tb.connect(0, "client", 1, "server");
    let sup = tb.supervise_app(0, "client", SupervisorConfig::default());
    sup.start(&mut tb.sim);
    let rig = tb.health_rig(HealthRigConfig::default());
    tb.health_watch_app(&rig, 0, "client", &sup);
    rig.start(&mut tb.sim);

    for _ in 0..300 {
        a.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 1000 });
        tb.run_us(100);
        a.poll();
        a.take_completions();
    }
    rig.stop();
    sup.stop();
    tb.run_ms(2);

    assert_eq!(rig.quarantines(), 0, "no false positives on a healthy rack");
    assert_eq!(sup.report().restarts(), 0);
}

/// Shared-engine supervision (§3.1's pre-loaded shared engines): when a
/// *shared* engine crashes, the restart must restore exactly the
/// sessions that engine owned — both via its own checkpoint and via the
/// module's control-plane ownership record on the corrupt-checkpoint
/// fallback path — and must never steal sessions belonging to other
/// engines on the host.
#[test]
fn shared_engine_restart_restores_only_its_own_sessions() {
    let mut tb = Testbed::pair();
    // A shared pool with two attached apps, plus an unrelated dedicated
    // engine on the same host.
    let pool_id = tb.hosts[0].module.create_shared_engine("pool", |_| {});
    tb.hosts[0]
        .module
        .attach_app_to_shared("x", "pool")
        .expect("pool exists");
    tb.hosts[0]
        .module
        .attach_app_to_shared("y", "pool")
        .expect("pool exists");
    let mut x = tb.hosts[0].module.open_session("x", 256).expect("session");
    let _y = tb.hosts[0].module.open_session("y", 256).expect("session");
    let _solo = tb.pony_app(0, "solo", |_| {});
    let solo_id = tb.hosts[0].module.engine_for("solo").expect("engine");
    assert_ne!(pool_id, solo_id);
    let mut server = tb.pony_app(1, "server", |_| {});
    let conn = tb.connect(0, "x", 1, "server");

    let mut pool_sessions = tb.hosts[0].module.sessions_for("pool");
    pool_sessions.sort_unstable();
    assert_eq!(pool_sessions.len(), 2, "both attached apps own sessions");
    let solo_sessions = tb.hosts[0].module.sessions_for("solo");
    assert_eq!(solo_sessions.len(), 1);

    let sup = tb.supervise_app(
        0,
        "pool",
        SupervisorConfig {
            checkpoint_interval: Nanos::from_millis(1),
            ..SupervisorConfig::default()
        },
    );
    sup.start(&mut tb.sim);
    tb.run_ms(5);
    tb.hosts[0].group.kill_engine(pool_id);
    tb.run_ms(60);
    assert_eq!(sup.report().crash_restarts, 1, "shared engine restarted");

    // Healthy-checkpoint path: the restored engine owns exactly the
    // pool's sessions.
    let mut owned = tb.hosts[0].group.with_engine(pool_id, |e| {
        e.as_any()
            .downcast_mut::<PonyEngine>()
            .map(|p| p.owned_sessions().to_vec())
            .unwrap_or_default()
    });
    owned.sort_unstable();
    assert_eq!(owned, pool_sessions, "restored exactly the pool's sessions");
    assert!(
        !owned.contains(&solo_sessions[0]),
        "the dedicated engine's session was not stolen"
    );

    // The pool still carries traffic after the restart.
    x.submit(&mut tb.sim, PonyCommand::Send { conn, stream: 0, len: 512 });
    tb.run_ms(30);
    assert!(
        server
            .take_completions()
            .iter()
            .any(|c| matches!(c, PonyCompletion::RecvMsg { .. })),
        "shared engine delivers after restart"
    );

    // Corrupt-checkpoint fallback path: a fresh engine is rebuilt from
    // the module's ownership record — again, only the pool's sessions.
    let factory = tb.hosts[0]
        .module
        .restart_factory("pool")
        .expect("pool registered");
    let mut rebuilt = factory(vec![0xFF; 16], &mut tb.sim);
    let mut fallback_owned = rebuilt
        .as_any()
        .downcast_mut::<PonyEngine>()
        .expect("pony engine")
        .owned_sessions()
        .to_vec();
    fallback_owned.sort_unstable();
    assert_eq!(
        fallback_owned, pool_sessions,
        "fallback restores only the crashed engine's host sessions"
    );
}
