//! Golden pins on the modelled outcome of the simulated fabric.
//!
//! Two seeded scenarios whose every counter and timestamp is pinned
//! exactly, as a text snapshot: kernel-TCP streams over a lossy,
//! corrupting two-rack Clos (the stack that sends one packet at a
//! time), and a scripted tour of every fault arm `FabricHandle`
//! exposes, driven with raw packets sent one at a time and as trains.
//! The fabric is free to change *how* it moves a packet from hop to
//! hop; it is not free to change when a packet arrives, which packets
//! are lost and why, which RNG draws are made, or how many simulator
//! events a packet costs. Any drift here is a model change and must be
//! argued as one.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;

use bytes::Bytes;

use snap_repro::nic::fabric::{FabricConfig, FabricHandle, SwitchId};
use snap_repro::nic::nic::NicConfig;
use snap_repro::nic::packet::{Packet, QosClass};
use snap_repro::sim::trace::{TraceContext, TraceRecorder, TRACE_SAMPLE_SCALE};
use snap_repro::sim::{Nanos, Rng, Sim};
use snap_repro::tcp::stack::{TcpConfig, TcpHost};
use snap_repro::testbed::{Testbed, TestbedConfig};
use snap_repro::topo::{ClosSpec, QosSchedule};

/// FNV-1a over a snapshot's text: pins a whole run in one number.
fn digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Compares snapshots line by line so a failure names the first line
/// that moved instead of printing two walls of text.
fn assert_snapshot(got: &str, want: &str) {
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        assert_eq!(g, w, "snapshot line {} differs\n--- full snapshot ---\n{got}", i + 1);
    }
    assert_eq!(
        got.lines().count(),
        want.lines().count(),
        "snapshot length differs\n--- full snapshot ---\n{got}"
    );
}

/// Everything the fabric counts, one line per table.
fn fabric_report(out: &mut String, fabric: &FabricHandle, hosts: &[u32]) {
    writeln!(out, "stats {:?}", fabric.stats()).unwrap();
    for &h in hosts {
        let nic = fabric.with_nic(h, |n| n.stats().clone());
        writeln!(out, "nic{h} {nic:?}").unwrap();
        writeln!(out, "drops{h} {:?}", fabric.drop_reasons(h)).unwrap();
    }
    for ((from, to), l) in fabric.links() {
        writeln!(out, "link {from}->{to} {l:?}").unwrap();
    }
    for ((from, to), t) in fabric.trunks() {
        writeln!(out, "trunk {from}->{to} {t:?}").unwrap();
    }
    writeln!(out, "switch_drops {:?}", fabric.switch_drop_breakdown()).unwrap();
}

// ---------------------------------------------------------------------
// (i) Kernel-TCP streams over a lossy, corrupting 2-rack 2-spine Clos.
// ---------------------------------------------------------------------

fn lossy_clos_tcp_streams() -> String {
    const SEED: u64 = 23;
    const MSGS_PER_STREAM: u64 = 8;
    const IN_FLIGHT: u64 = 2;

    let mut tb = Testbed::new(TestbedConfig {
        hosts: 4,
        seed: SEED,
        loss: 0.004,
        topology: Some(ClosSpec::clos(2, 2, 2)),
        ..TestbedConfig::default()
    });
    tb.fabric.set_corrupt_prob(0.003);
    let tcp: Vec<TcpHost> = (0..4).map(|h| tb.tcp_host(h, TcpConfig::default())).collect();
    // Two cross-rack streams in opposite directions and one in-rack
    // stream sharing host 0's uplink and host 1's downlink.
    let streams = [(0usize, 2usize), (3, 1), (0, 1)];
    let conns: Vec<u64> = streams
        .iter()
        .map(|&(from, to)| tcp[from].connect(tb.hosts[to].id))
        .collect();

    struct Loop {
        rng: Rng,
        sent: Vec<u64>,
        log: Vec<(usize, u64, u64, u64)>,
    }
    let state = Rc::new(RefCell::new(Loop {
        rng: Rng::new(SEED).stream(0x7C9),
        sent: vec![0; streams.len()],
        log: Vec::new(),
    }));
    let send_next = {
        let (state, tcp, conns) = (state.clone(), tcp.clone(), conns.clone());
        Rc::new(move |sim: &mut Sim, s: usize| {
            let (msg, len) = {
                let mut st = state.borrow_mut();
                if st.sent[s] == MSGS_PER_STREAM {
                    return;
                }
                st.sent[s] += 1;
                (st.sent[s], 150_000 + st.rng.below(100_001))
            };
            tcp[streams[s].0].send(sim, conns[s], msg, len);
        })
    };
    for host in &tcp {
        let (state, conns, send_next) = (state.clone(), conns.clone(), send_next.clone());
        host.on_message(Rc::new(move |sim, conn, msg, len| {
            let s = conns.iter().position(|&c| c == conn).expect("known connection");
            state.borrow_mut().log.push((s, msg, len, sim.now().as_nanos()));
            send_next(sim, s);
        }));
    }
    for s in 0..streams.len() {
        for _ in 0..IN_FLIGHT {
            send_next(&mut tb.sim, s);
        }
    }
    tb.sim.run_until(Nanos::from_millis(400));

    let mut out = String::new();
    writeln!(out, "now {} events {}", tb.sim.now().as_nanos(), tb.sim.events_executed()).unwrap();
    for (s, msg, len, at) in &state.borrow().log {
        writeln!(out, "stream{s} msg{msg} len{len} at{at}").unwrap();
    }
    for (h, t) in tcp.iter().enumerate() {
        writeln!(out, "tcp{h} {:?} cpu{}", t.stats(), t.cpu_busy().as_nanos()).unwrap();
    }
    let ids: Vec<u32> = tb.hosts.iter().map(|h| h.id).collect();
    fabric_report(&mut out, &tb.fabric, &ids);
    out
}

#[test]
fn lossy_clos_tcp_streams_are_pinned() {
    let got = lossy_clos_tcp_streams();
    assert_snapshot(&got, include_str!("golden/fabric_tcp_streams.txt"));
}

// ---------------------------------------------------------------------
// (ii) A scripted tour of every fault arm, with raw packets.
// ---------------------------------------------------------------------

/// The tour's rig: rack 0 holds hosts 0, 1, 2; rack 1 holds hosts 3
/// and 4 and one empty slot (host 5), so rack 1 has no in-rack
/// alternate path and a packet for host 5 is routed to a black hole.
struct Tour {
    sim: Sim,
    fabric: FabricHandle,
    recorder: TraceRecorder,
    /// Interrupt log: one line per interrupt with the packets polled.
    log: Rc<RefCell<String>>,
    traced: Vec<(u64, TraceContext)>,
    next_id: u64,
    out: String,
}

const TOUR_HOSTS: u32 = 5;

impl Tour {
    fn new(schedule: QosSchedule) -> Tour {
        let spec = ClosSpec {
            trunk_gbps: 40.0,
            trunk_buffer_bytes: 24_000,
            schedule,
            ..ClosSpec::clos(2, 3, 2)
        };
        let fabric = FabricHandle::with_topology(
            FabricConfig {
                switch_buffer_bytes: 30_000,
                seed: 0xFAB_0001,
                ..FabricConfig::default()
            },
            spec,
        );
        let recorder = TraceRecorder::new(9, TRACE_SAMPLE_SCALE, 4096);
        fabric.set_recorder(recorder.clone());
        let log = Rc::new(RefCell::new(String::new()));
        for h in 0..TOUR_HOSTS {
            // Host 2 has a shallow tx ring so the tour can run it dry.
            let id = fabric.add_host(NicConfig {
                tx_queue_depth: if h == 2 { 4 } else { 1024 },
                ..NicConfig::default()
            });
            assert_eq!(id, h);
            let (log, fabric2) = (log.clone(), fabric.clone());
            fabric.with_nic(id, |nic| {
                for q in 0..nic.config().num_queues {
                    nic.arm_irq(q, true);
                }
                nic.set_irq_handler(Rc::new(move |sim: &mut Sim, q| {
                    let mut polled = Vec::new();
                    fabric2.with_nic(id, |nic| nic.poll_rx(q, usize::MAX, &mut polled));
                    let ids: Vec<u64> = polled.iter().map(packet_id).collect();
                    writeln!(log.borrow_mut(), "  irq t{} h{id} q{q} {ids:?}", sim.now().as_nanos())
                        .unwrap();
                }));
            });
        }
        Tour {
            sim: Sim::new(),
            fabric,
            recorder,
            log,
            traced: Vec::new(),
            next_id: 0,
            out: String::new(),
        }
    }

    /// A packet whose payload starts with its id; size, rx queue and
    /// ECMP flow label all follow from the id.
    fn pkt(&mut self, src: u32, dst: u32, qos: QosClass, trace: bool) -> Packet {
        let id = self.next_id;
        self.next_id += 1;
        let len = 64 + (id * 677 % 3_900) as usize;
        let mut payload = vec![0u8; len];
        payload[..8].copy_from_slice(&id.to_le_bytes());
        let mut pkt = Packet::new(src, dst, Bytes::from(payload))
            .with_rss_hash(id)
            .with_qos(qos);
        if trace {
            let ctx = self.recorder.begin(self.sim.now(), src).expect("tracing is on");
            self.traced.push((id, ctx));
            pkt.trace = Some(ctx);
        }
        pkt
    }

    /// Sends one packet on the single-packet entry point.
    fn single(&mut self, queue: u16, src: u32, dst: u32, qos: QosClass) {
        let pkt = self.pkt(src, dst, qos, true);
        let id = packet_id(&pkt);
        if self.fabric.transmit(&mut self.sim, queue, pkt).is_err() {
            writeln!(self.out, "  busy single id{id}").unwrap();
        }
    }

    /// Sends a train from `src`, one packet per `(dst, qos)`.
    fn train(&mut self, queue: u16, src: u32, to: &[(u32, QosClass)]) {
        let mut pkts: Vec<Packet> =
            to.iter().map(|&(dst, qos)| self.pkt(src, dst, qos, true)).collect();
        let offered = pkts.len();
        let taken = self.fabric.transmit_burst(&mut self.sim, queue, &mut pkts);
        if taken != offered {
            let left: Vec<u64> = pkts.iter().map(packet_id).collect();
            writeln!(self.out, "  busy train took{taken} left{left:?}").unwrap();
        }
    }

    /// Runs to quiescence and closes the phase in the snapshot.
    fn end_phase(&mut self, name: &str) {
        self.sim.run();
        let log = std::mem::take(&mut *self.log.borrow_mut());
        writeln!(
            self.out,
            "== {name}: now {} events {} ids<{}",
            self.sim.now().as_nanos(),
            self.sim.events_executed(),
            self.next_id
        )
        .unwrap();
        self.out.push_str(&log);
    }
}

fn packet_id(pkt: &Packet) -> u64 {
    u64::from_le_bytes(pkt.payload[..8].try_into().expect("id prefix"))
}

fn fault_tour(schedule: QosSchedule) -> String {
    use QosClass::{BestEffort as BE, Transport as TP};
    let mut t = Tour::new(schedule);

    // Healthy fabric: singles in-rack and cross-rack, then trains that
    // mix destinations, racks and classes.
    t.single(0, 0, 1, BE);
    t.single(0, 0, 3, TP);
    t.single(1, 4, 3, BE);
    t.train(0, 0, &[(1, TP), (3, TP), (2, BE), (1, BE), (4, TP), (3, BE), (1, TP), (4, BE)]);
    t.train(2, 4, &[(0, TP), (3, BE), (0, TP), (2, TP)]);
    t.end_phase("healthy");

    // Gray loss on one in-rack and one cross-rack link.
    t.fabric.set_link_loss(0, 1, 0.5);
    t.fabric.set_link_loss(0, 3, 0.5);
    for _ in 0..6 {
        t.single(0, 0, 1, TP);
        t.single(0, 0, 3, BE);
    }
    t.train(1, 0, &[(1, BE), (3, TP), (1, TP), (3, BE), (2, TP), (1, BE), (3, TP), (3, TP)]);
    t.end_phase("lossy link");
    t.fabric.set_link_loss(0, 1, 0.0);
    t.fabric.set_link_loss(0, 3, 0.0);

    // Gray jitter.
    t.fabric.set_link_jitter(0, 1, Nanos::from_micros(20), 0.5);
    t.fabric.set_link_jitter(0, 4, Nanos::from_micros(10), 0.3);
    for _ in 0..3 {
        t.single(0, 0, 1, TP);
        t.single(1, 0, 4, TP);
    }
    t.train(0, 0, &[(1, TP), (4, BE), (1, BE), (2, TP), (4, TP)]);
    t.end_phase("jitter");

    // Quarantine in-rack: rack 0 has a third host, so transport
    // reroutes around the (lossy, still jittery) link and best-effort
    // is shed; rack 1 has no alternate and soldiers on.
    t.fabric.set_link_loss(0, 1, 1.0);
    t.fabric.quarantine_link(0, 1);
    t.fabric.quarantine_link(3, 4);
    t.single(0, 0, 1, TP);
    t.single(0, 0, 1, BE);
    t.single(0, 3, 4, TP);
    t.single(0, 3, 4, BE);
    t.train(0, 0, &[(1, TP), (1, BE), (2, TP), (1, TP)]);
    t.end_phase("quarantine in-rack");
    t.fabric.clear_quarantine(0, 1);
    t.fabric.clear_quarantine(3, 4);
    t.fabric.set_link_loss(0, 1, 0.0);
    t.fabric.set_link_jitter(0, 1, Nanos::ZERO, 0.0);

    // Quarantine cross-rack: a salted re-hash onto the other spine, no
    // extra hop; the link's own gray faults are skipped.
    t.fabric.set_link_loss(0, 4, 1.0);
    t.fabric.quarantine_link(0, 4);
    for _ in 0..4 {
        t.single(0, 0, 4, TP);
    }
    t.single(0, 0, 4, BE);
    t.train(1, 0, &[(4, TP), (4, BE), (3, TP), (4, TP)]);
    t.end_phase("quarantine cross-rack");
    t.fabric.clear_quarantine(0, 4);
    t.fabric.set_link_loss(0, 4, 0.0);
    t.fabric.set_link_jitter(0, 4, Nanos::ZERO, 0.0);

    // Pause storm against host 1: in-rack and cross-rack senders queue
    // at its leaf port until the buffer spills.
    let storm = t.sim.now() + Nanos::from_micros(150);
    t.fabric.pause_host(1, storm);
    t.fabric.pause_host(1, storm - Nanos::from_micros(50));
    t.single(0, 0, 1, TP);
    t.single(0, 3, 1, BE);
    t.train(0, 0, &[(1, TP); 6]);
    t.train(0, 4, &[(1, BE), (1, TP), (1, BE), (1, BE), (0, TP), (1, BE)]);
    t.end_phase("pause storm");

    // Leaf brownout on rack 1: its own traffic, traffic into it and
    // traffic out of it all draw; survivors pick up latency.
    t.fabric.set_leaf_brownout(1, 0.4, Nanos::from_micros(3));
    for _ in 0..4 {
        t.single(0, 0, 3, TP);
        t.single(0, 3, 4, TP);
        t.single(0, 4, 0, BE);
    }
    t.train(0, 0, &[(3, TP), (4, TP), (1, TP), (3, BE), (4, BE)]);
    t.train(0, 3, &[(4, TP), (0, TP), (4, BE), (1, BE)]);
    t.end_phase("leaf brownout");
    t.fabric.set_leaf_brownout(1, 0.0, Nanos::ZERO);

    // Trunk down: ECMP folds onto the surviving spine, then no spine
    // is left, then both come back.
    t.fabric.fail_trunk(0, 0);
    for _ in 0..4 {
        t.single(0, 0, 3, TP);
    }
    t.train(0, 3, &[(0, TP), (1, BE), (2, TP), (4, TP)]);
    t.end_phase("one trunk down");
    t.fabric.fail_trunk(1, 1);
    t.single(0, 0, 3, TP);
    t.single(0, 0, 1, TP);
    t.train(0, 4, &[(0, TP), (3, TP), (1, BE)]);
    t.end_phase("no path");
    t.fabric.restore_trunk(0, 0);
    t.fabric.restore_trunk(1, 1);
    t.single(0, 0, 3, TP);
    t.train(0, 4, &[(0, TP), (1, BE)]);
    t.end_phase("trunks restored");

    // A trunk that fails after ECMP committed: the packets die at the
    // spine. Untraced, so the snapshot pins the counters only.
    let committed = |f: &FabricHandle| -> u64 {
        (0..2)
            .map(|s| f.trunk_stats(SwitchId::Leaf(0), SwitchId::Spine(s)).forwarded)
            .sum()
    };
    let before = committed(&t.fabric);
    let mut doomed = vec![t.pkt(0, 3, TP, false), t.pkt(0, 4, BE, false), t.pkt(0, 1, TP, false)];
    t.fabric.transmit_burst(&mut t.sim, 0, &mut doomed);
    let lone = t.pkt(1, 4, TP, false);
    t.fabric.transmit(&mut t.sim, 0, lone).expect("free tx slot");
    while committed(&t.fabric) < before + 3 {
        assert!(t.sim.step(), "cross-rack packets reach their leaf");
    }
    t.fabric.fail_trunk(1, 0);
    t.fabric.fail_trunk(1, 1);
    t.end_phase("trunk dies mid-flight");
    t.fabric.restore_trunk(1, 0);
    t.fabric.restore_trunk(1, 1);

    // Stalled tx queue: queue 1 of host 0 hangs, queue 0 flows around.
    let lift = t.sim.now() + Nanos::from_micros(80);
    t.fabric.stall_queue_until(0, 1, lift);
    t.single(1, 0, 1, TP);
    t.single(0, 0, 1, TP);
    t.train(1, 0, &[(3, TP), (1, BE), (3, BE)]);
    t.single(0, 0, 3, TP);
    t.end_phase("stalled queue");

    // Partitions, symmetric and one-way.
    t.fabric.partition(0, 3);
    t.fabric.partition_oneway(1, 2);
    t.single(0, 0, 3, TP);
    t.single(0, 3, 0, TP);
    t.single(0, 1, 2, BE);
    t.single(0, 2, 1, BE);
    t.train(0, 0, &[(3, TP), (4, TP), (3, BE)]);
    t.end_phase("partitions");
    t.fabric.heal(0, 3);
    t.fabric.heal_oneway(1, 2);

    // Random loss and corruption, fabric-wide.
    t.fabric.set_loss_prob(0.25);
    t.fabric.set_corrupt_prob(0.25);
    for _ in 0..5 {
        t.single(0, 0, 1, TP);
        t.single(0, 3, 0, BE);
    }
    t.train(0, 0, &[(1, TP), (3, TP), (4, BE), (2, BE), (1, BE), (3, TP), (4, TP), (1, TP)]);
    t.train(0, 4, &[(3, TP), (0, BE), (3, BE), (1, TP)]);
    t.end_phase("loss and corruption");
    t.fabric.set_loss_prob(0.0);
    t.fabric.set_corrupt_prob(0.0);

    // Tx ring run dry on host 2 (four slots).
    for _ in 0..6 {
        t.single(0, 2, 0, TP);
    }
    t.end_phase("tx busy singles");
    t.train(0, 2, &[(0, TP), (3, TP), (1, BE), (0, BE), (3, TP), (4, TP)]);
    t.end_phase("tx busy train");

    // Congestion: three racks' worth of senders into host 0, enough to
    // overflow the 40G trunks and the 30 KB host port.
    for _ in 0..3 {
        t.train(0, 3, &[(0, TP), (0, BE), (0, TP), (0, BE), (0, TP), (0, BE), (0, TP), (0, BE)]);
        t.train(0, 4, &[(0, BE), (0, TP), (0, BE), (0, TP), (1, BE), (0, TP), (0, BE), (0, TP)]);
        t.train(0, 1, &[(0, TP), (0, BE), (0, TP), (0, BE), (0, TP), (0, BE)]);
        for _ in 0..4 {
            t.single(1, 3, 0, BE);
            t.single(1, 1, 0, TP);
        }
    }
    t.end_phase("congestion");

    // Black holes: the empty slot in rack 1 (from its own rack and
    // from across the fabric) and a host beyond the topology.
    t.single(0, 3, 5, TP);
    t.single(0, 0, 5, BE);
    t.single(0, 0, 99, TP);
    t.train(0, 0, &[(5, TP), (1, TP), (99, BE)]);
    t.end_phase("black holes");

    // Every traced packet's stamps, in causal order.
    let now = t.sim.now();
    for &(id, ctx) in &t.traced {
        t.recorder.finalize(ctx, now, 0);
        let trace = t.recorder.get(ctx.trace_id).expect("every trace is sampled");
        let mut line = format!("trace id{id}");
        // The closing `Complete` stamp carries no fabric information.
        for r in &trace.records[..trace.records.len() - 1] {
            let host = u32::MAX - r.host;
            if r.host > u32::MAX / 2 {
                write!(line, " {}@sw{host}:{}", r.stage.label(), r.at.as_nanos()).unwrap();
            } else {
                write!(line, " {}@h{}:{}", r.stage.label(), r.host, r.at.as_nanos()).unwrap();
            }
        }
        writeln!(t.out, "{line}").unwrap();
    }
    let hosts: Vec<u32> = (0..TOUR_HOSTS).collect();
    fabric_report(&mut t.out, &t.fabric, &hosts);
    t.out
}

#[test]
fn fault_tour_is_pinned() {
    let got = fault_tour(QosSchedule::Fifo);
    assert_snapshot(&got, include_str!("golden/fabric_fault_tour.txt"));
}

/// The same tour under weighted round-robin egress: the per-priority
/// lanes see the same admissions, pinned by digest.
#[test]
fn fault_tour_under_wrr_is_pinned() {
    let got = fault_tour(QosSchedule::Wrr { weights: [3, 1] });
    assert_eq!(digest(&got), 17_801_864_566_275_628_120, "WRR tour drifted:\n{got}");
}
