//! Golden pins on the modelled outcome of the Pony engine pass.
//!
//! Two seeded scenarios whose every modelled number is pinned exactly:
//! a small lossy Clos all-to-all (many flows and connections per
//! engine, most of them idle at any instant, compacting engines) and a
//! lossy two-host stream (RTO expiry and retransmit ordering on one
//! busy flow). An engine pass is free to change *how* it finds ready
//! work; it is not free to change which packets leave, in which order,
//! or what CPU the pass is charged. Any drift here is a model change
//! and must be argued as one.

use std::collections::{HashMap, VecDeque};

use snap_repro::core::group::SchedulingMode;
use snap_repro::pony::client::{OpStatus, PonyClient, PonyCommand, PonyCompletion};
use snap_repro::pony::engine::{PonyEngine, PonyStats};
use snap_repro::sim::codec::{DecodeError, Reader};
use snap_repro::sim::{Nanos, Rng};
use snap_repro::testbed::{Testbed, TestbedConfig};
use snap_repro::topo::ClosSpec;

/// Nearest-rank quantile of sorted samples, exact in ns.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((sorted.len() as f64) * q).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Counters of every Pony engine on `host`, summed.
fn engine_stats(tb: &Testbed, host: usize) -> PonyStats {
    let mut sum = PonyStats::default();
    for (_, id) in tb.hosts[host].module.apps() {
        tb.hosts[host].group.with_engine(id, |e| {
            let s = e
                .as_any()
                .downcast_mut::<PonyEngine>()
                .expect("testbed apps are pony engines")
                .stats()
                .clone();
            sum.tx_packets += s.tx_packets;
            sum.rx_packets += s.rx_packets;
            sum.ops_completed += s.ops_completed;
            sum.msgs_delivered += s.msgs_delivered;
            sum.commands += s.commands;
        });
    }
    sum
}

/// Per host: (engine, spin, wake) CPU ns of its Snap group.
fn group_cpu(tb: &mut Testbed) -> Vec<[u64; 3]> {
    (0..tb.hosts.len())
        .map(|h| {
            let c = tb.host_cpu(h);
            [
                c.engine.as_nanos(),
                c.spin.as_nanos(),
                c.wake_overhead.as_nanos(),
            ]
        })
        .collect()
}

#[derive(Debug, PartialEq)]
struct ClosGolden {
    probes_done: u64,
    bulk_done: u64,
    msgs_delivered: u64,
    failed: u64,
    drained_at_ns: u64,
    fabric_delivered: u64,
    fabric_random_drops: u64,
    nic_tx_packets: u64,
    nic_tx_bytes: u64,
    nic_rx_bytes: u64,
    pony_tx_packets: u64,
    pony_rx_packets: u64,
    pony_ops_completed: u64,
    probe_p50_ns: u64,
    probe_p99_ns: u64,
    group_cpu: Vec<[u64; 3]>,
}

const RACKS: u32 = 4;
const HOSTS_PER_RACK: u32 = 2;
const SPINES: u32 = 2;
const HOSTS: usize = (RACKS * HOSTS_PER_RACK) as usize;
const REQUEST: u32 = 1;
const REPLY: u32 = 0;

#[derive(Clone, Copy)]
struct Arrival {
    due: Nanos,
    host: usize,
    peer: usize,
    bulk: bool,
}

fn clos_all_to_all() -> ClosGolden {
    const SEED: u64 = 11;
    const SPAN: Nanos = Nanos::from_millis(3);
    const BULK_BYTES: u64 = 256_000;
    const PROBE_BYTES: u64 = 64;
    const POLL: Nanos = Nanos::from_micros(1);

    let mut tb = Testbed::new(TestbedConfig {
        hosts: HOSTS,
        mode: SchedulingMode::compacting_default(),
        seed: SEED,
        loss: 0.002,
        topology: Some(ClosSpec::clos(RACKS, HOSTS_PER_RACK, SPINES)),
        ..TestbedConfig::default()
    });
    let mut bulk: Vec<PonyClient> = Vec::new();
    let mut probe: Vec<PonyClient> = Vec::new();
    for h in 0..HOSTS {
        tb.hosts[h].machine.borrow_mut().set_cstates_enabled(true);
        bulk.push(tb.pony_app(h, "bulk", |_| {}));
        probe.push(tb.pony_app(h, "probe", |_| {}));
    }
    let mut bulk_conn = vec![vec![0u64; HOSTS]; HOSTS];
    let mut probe_conn = vec![vec![0u64; HOSTS]; HOSTS];
    for from in 0..HOSTS {
        for to in 0..HOSTS {
            if from == to {
                continue;
            }
            let conn = tb.connect(from, "bulk", to, "bulk");
            bulk[to].submit(&mut tb.sim, PonyCommand::PostRecvBuffers { conn, count: 64 });
            bulk_conn[from][to] = conn;
            probe_conn[from][to] = tb.connect(from, "probe", to, "probe");
        }
    }
    tb.run_us(50);
    for c in &mut bulk {
        c.take_completions();
    }

    // Open loop: per host 6 bulk sends and 60 probes at seeded uniform
    // instants to seeded uniform peers.
    let t0 = tb.sim.now();
    let mut arrivals = Vec::new();
    for host in 0..HOSTS {
        for (bulk, count) in [(true, 6u64), (false, 60u64)] {
            let mut rng = Rng::new(SEED).stream(((host as u64) << 1) | bulk as u64);
            for _ in 0..count {
                let due = t0 + Nanos(rng.below(SPAN.as_nanos()));
                let mut peer = rng.below(HOSTS as u64 - 1) as usize;
                if peer >= host {
                    peer += 1;
                }
                arrivals.push(Arrival {
                    due,
                    host,
                    peer,
                    bulk,
                });
            }
        }
    }
    arrivals.sort_by_key(|a| (a.due, a.host, a.bulk));

    let mut probes_out: HashMap<(usize, u64), VecDeque<Nanos>> = HashMap::new();
    let mut bulk_out = 0u64;
    let mut lat_ns: Vec<u64> = Vec::new();
    let (mut bulk_done, mut msgs_delivered, mut failed) = (0u64, 0u64, 0u64);
    let mut next = arrivals.iter().peekable();
    let mut next_poll = t0 + POLL;
    let deadline = t0 + SPAN + Nanos::from_millis(400);
    loop {
        let outstanding = bulk_out + probes_out.values().map(|q| q.len() as u64).sum::<u64>();
        if (next.peek().is_none() && outstanding == 0) || tb.sim.now() >= deadline {
            break;
        }
        let due = next.peek().map_or(deadline, |a| a.due);
        let stop = due.min(next_poll);
        tb.sim.run_until(stop);
        while let Some(a) = next.next_if(|a| a.due <= stop) {
            if a.bulk {
                bulk[a.host].submit(
                    &mut tb.sim,
                    PonyCommand::Send {
                        conn: bulk_conn[a.host][a.peer],
                        stream: 0,
                        len: BULK_BYTES,
                    },
                );
                bulk_out += 1;
            } else {
                let conn = probe_conn[a.host][a.peer];
                probe[a.host].submit(
                    &mut tb.sim,
                    PonyCommand::Send {
                        conn,
                        stream: REQUEST,
                        len: PROBE_BYTES,
                    },
                );
                probes_out.entry((a.host, conn)).or_default().push_back(a.due);
            }
        }
        if stop != next_poll {
            continue;
        }
        next_poll += POLL;
        let now = tb.sim.now();
        for h in 0..HOSTS {
            for c in bulk[h].take_completions() {
                match c {
                    PonyCompletion::RecvMsg { .. } => msgs_delivered += 1,
                    PonyCompletion::OpDone { status, .. } => {
                        bulk_out -= 1;
                        bulk_done += 1;
                        if status != OpStatus::Ok {
                            failed += 1;
                        }
                    }
                }
            }
            for c in probe[h].take_completions() {
                match c {
                    PonyCompletion::RecvMsg {
                        conn,
                        stream: REQUEST,
                        len,
                        ..
                    } => {
                        msgs_delivered += 1;
                        probe[h].submit(
                            &mut tb.sim,
                            PonyCommand::Send {
                                conn,
                                stream: REPLY,
                                len,
                            },
                        );
                    }
                    PonyCompletion::RecvMsg { conn, .. } => {
                        msgs_delivered += 1;
                        match probes_out.get_mut(&(h, conn)).and_then(VecDeque::pop_front) {
                            Some(due) => lat_ns.push((now - due).as_nanos()),
                            None => failed += 1,
                        }
                    }
                    PonyCompletion::OpDone { status, .. } => {
                        if status != OpStatus::Ok {
                            failed += 1;
                        }
                    }
                }
            }
        }
    }
    let drained_at_ns = (tb.sim.now() - t0).as_nanos();
    tb.stop_groups();
    tb.run_ms(1);

    lat_ns.sort_unstable();
    let f = tb.fabric.stats();
    let mut g = ClosGolden {
        probes_done: lat_ns.len() as u64,
        bulk_done,
        msgs_delivered,
        failed,
        drained_at_ns,
        fabric_delivered: f.delivered,
        fabric_random_drops: f.random_drops,
        nic_tx_packets: 0,
        nic_tx_bytes: 0,
        nic_rx_bytes: 0,
        pony_tx_packets: 0,
        pony_rx_packets: 0,
        pony_ops_completed: 0,
        probe_p50_ns: quantile(&lat_ns, 0.50),
        probe_p99_ns: quantile(&lat_ns, 0.99),
        group_cpu: group_cpu(&mut tb),
    };
    for h in 0..HOSTS {
        let nic = tb.fabric.with_nic(tb.hosts[h].id, |n| n.stats().clone());
        g.nic_tx_packets += nic.tx_packets;
        g.nic_tx_bytes += nic.tx_bytes;
        g.nic_rx_bytes += nic.rx_bytes;
        let s = engine_stats(&tb, h);
        g.pony_tx_packets += s.tx_packets;
        g.pony_rx_packets += s.rx_packets;
        g.pony_ops_completed += s.ops_completed;
    }
    g
}

#[test]
fn lossy_clos_all_to_all_is_pinned() {
    let got = clos_all_to_all();
    let want = ClosGolden {
        probes_done: 480,
        bulk_done: 48,
        msgs_delivered: 1008,
        failed: 0,
        drained_at_ns: 150_741_000,
        fabric_delivered: 15_481,
        fabric_random_drops: 32,
        nic_tx_packets: 15_513,
        nic_tx_bytes: 14_280_471,
        nic_rx_bytes: 14_248_731,
        pony_tx_packets: 15_513,
        pony_rx_packets: 15_481,
        pony_ops_completed: 1008,
        probe_p50_ns: 11_852,
        probe_p99_ns: 20_179,
        group_cpu: vec![
            [1_315_730, 2_414_243, 67_200],
            [1_226_156, 2_498_782, 80_000],
            [1_436_921, 2_454_699, 60_800],
            [1_127_425, 2_771_620, 28_800],
            [1_613_634, 2_301_094, 544_000],
            [1_632_205, 2_868_318, 860_800],
            [1_211_982, 2_619_870, 22_400],
            [1_395_331, 2_734_675, 617_600],
        ],
    };
    assert_eq!(got, want);
}

#[derive(Debug, PartialEq)]
struct StreamGolden {
    ops_done: u64,
    msgs_delivered: u64,
    finished_at_ns: u64,
    fabric_delivered: u64,
    fabric_random_drops: u64,
    /// Per host: the one flow's (sent, retransmits, delivered, duplicates).
    flow: [(u64, u64, u64, u64); 2],
    pony_tx_packets: [u64; 2],
    pony_rx_packets: [u64; 2],
    op_p50_ns: u64,
    op_p99_ns: u64,
    group_cpu: Vec<[u64; 3]>,
}

fn lossy_stream() -> StreamGolden {
    const MSGS: u64 = 20;
    const IN_FLIGHT: u64 = 4;
    const MSG_BYTES: u64 = 200_000;

    let mut tb = Testbed::new(TestbedConfig {
        loss: 0.01,
        seed: 5,
        ..TestbedConfig::default()
    });
    let mut tx = tb.pony_app(0, "tx", |_| {});
    let mut rx = tb.pony_app(1, "rx", |_| {});
    let conn = tb.connect(0, "tx", 1, "rx");
    rx.submit(&mut tb.sim, PonyCommand::PostRecvBuffers { conn, count: 64 });
    tb.run_us(50);
    rx.take_completions();

    let t0 = tb.sim.now();
    let send = PonyCommand::Send {
        conn,
        stream: 0,
        len: MSG_BYTES,
    };
    let mut submitted_at: HashMap<u64, Nanos> = HashMap::new();
    let mut lat_ns: Vec<u64> = Vec::new();
    let (mut submitted, mut msgs_delivered) = (0u64, 0u64);
    while submitted < IN_FLIGHT {
        let op = tx.submit(&mut tb.sim, send.clone());
        submitted_at.insert(op, tb.sim.now());
        submitted += 1;
    }
    let deadline = t0 + Nanos::from_millis(2_000);
    while (lat_ns.len() as u64) < MSGS && tb.sim.now() < deadline {
        tb.run_us(1);
        let now = tb.sim.now();
        for c in rx.take_completions() {
            if let PonyCompletion::RecvMsg { .. } = c {
                msgs_delivered += 1;
                // The receiver re-posts the buffer it consumed.
                rx.submit(&mut tb.sim, PonyCommand::PostRecvBuffers { conn, count: 1 });
            }
        }
        for c in tx.take_completions() {
            if let PonyCompletion::OpDone { op, status, .. } = c {
                assert_eq!(status, OpStatus::Ok);
                let at = submitted_at.remove(&op).expect("completion of a submitted op");
                lat_ns.push((now - at).as_nanos());
                if submitted < MSGS {
                    let op = tx.submit(&mut tb.sim, send.clone());
                    submitted_at.insert(op, now);
                    submitted += 1;
                }
            }
        }
    }
    let finished_at_ns = (tb.sim.now() - t0).as_nanos();
    tb.run_ms(20);

    lat_ns.sort_unstable();
    let f = tb.fabric.stats();
    let mut flow = [(0, 0, 0, 0); 2];
    let mut pony_tx_packets = [0; 2];
    let mut pony_rx_packets = [0; 2];
    for h in 0..2 {
        let (_, id) = tb.hosts[h].module.apps()[0].clone();
        flow[h] = tb.hosts[h].group.with_engine(id, |e| {
            e.as_any()
                .downcast_mut::<PonyEngine>()
                .expect("pony engine")
                .debug_flow_stats()
        });
        let s = engine_stats(&tb, h);
        pony_tx_packets[h] = s.tx_packets;
        pony_rx_packets[h] = s.rx_packets;
    }
    StreamGolden {
        ops_done: lat_ns.len() as u64,
        msgs_delivered,
        finished_at_ns,
        fabric_delivered: f.delivered,
        fabric_random_drops: f.random_drops,
        flow,
        pony_tx_packets,
        pony_rx_packets,
        op_p50_ns: quantile(&lat_ns, 0.50),
        op_p99_ns: quantile(&lat_ns, 0.99),
        group_cpu: group_cpu(&mut tb),
    }
}

#[test]
fn lossy_two_host_stream_is_pinned() {
    let got = lossy_stream();
    let want = StreamGolden {
        ops_done: 20,
        msgs_delivered: 20,
        finished_at_ns: 1_693_354_000,
        fabric_delivered: 6732,
        fabric_random_drops: 64,
        flow: [(2680, 1136, 0, 0), (21, 0, 0, 0)],
        pony_tx_packets: [3837, 2959],
        pony_rx_packets: [2936, 3796],
        op_p50_ns: 404_398_000,
        op_p99_ns: 623_656_000,
        group_cpu: vec![
            [2_709_178, 1_710_660_262, 0],
            [2_115_915, 1_711_149_205, 0],
        ],
    };
    assert_eq!(got, want);
}

/// FNV-1a, 64 bit: the pin on checkpoint bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// What a `PonyEngine::serialize_state` checkpoint holds, read back
/// with the codec the engine wrote it with.
#[derive(Debug, Default, PartialEq)]
struct Checkpoint {
    /// Received seqs above the cumulative point, over all flows.
    rcv_sacks: usize,
    /// Un-acked packets: in flight plus on the retransmit queue.
    unacked: usize,
    /// Frames queued and not yet sent.
    outq: usize,
    /// Per send in progress: (chunks, chunk offsets acked).
    sends: Vec<(u32, usize)>,
    /// Per message being reassembled: (total bytes, chunk offsets held).
    recvs: Vec<(u64, usize)>,
}

fn read_checkpoint(state: &[u8]) -> Result<Checkpoint, DecodeError> {
    let mut r = Reader::new(state);
    let mut c = Checkpoint::default();
    r.string()?;
    for _ in 0..r.u32()? {
        r.u64()?;
    }
    for _ in 0..r.u32()? {
        // id, flow, remote host, remote engine, session, posted x2, credits.
        let _ = (r.u64()?, r.u64()?, r.u32()?, r.u64()?, r.bool()?, r.u64()?);
        let _ = (r.u32()?, r.u32()?, r.u32()?);
        for _ in 0..r.u32()? {
            let _ = (r.u64()?, r.u32()?, r.u64()?); // held sends
        }
        // Pending (stream, msg), next_msg and next_deliver share a shape.
        for _ in 0..3 {
            for _ in 0..r.u32()? {
                let _ = (r.u32()?, r.u64()?);
            }
        }
        for _ in 0..r.u32()? {
            let _ = (r.u32()?, r.u64()?, r.u64()?); // reassembled, not yet deliverable
        }
    }
    for _ in 0..r.u32()? {
        let _ = (r.u32()?, r.u64()?); // peer
        let mut f = Reader::new(r.bytes()?);
        // id, version, next_seq, rcv_cum.
        let _ = (f.u64()?, f.u16()?, f.u64()?, f.u64()?);
        let sacks = f.u32()?;
        for _ in 0..sacks {
            f.u64()?;
        }
        c.rcv_sacks += sacks as usize;
        let unacked = f.u32()?;
        for _ in 0..unacked {
            let _ = (f.u64()?, f.bytes()?);
        }
        c.unacked += unacked as usize;
        let outq = f.u32()?;
        for _ in 0..outq {
            f.bytes()?;
        }
        c.outq += outq as usize;
        assert!(f.is_exhausted(), "flow checkpoint has trailing bytes");
    }
    for _ in 0..r.u32()? {
        // (conn, stream, msg), op, session, total.
        let _ = (r.u64()?, r.u32()?, r.u64()?, r.u64()?, r.bool()?, r.u64()?, r.u64()?);
        let chunks = r.u32()?;
        let _ = (r.u64()?, r.u64()?); // issued_at, next_offset
        let acked = r.u32()?;
        for _ in 0..acked {
            r.u64()?;
        }
        c.sends.push((chunks, acked as usize));
    }
    for _ in 0..r.u32()? {
        let _ = (r.u64()?, r.u32()?, r.u64()?);
        let total = r.u64()?;
        let held = r.u32()?;
        for _ in 0..held {
            r.u64()?;
        }
        c.recvs.push((total, held as usize));
    }
    Ok(c)
}

#[derive(Debug, PartialEq)]
struct RestoreGolden {
    /// FNV-1a of each engine's checkpoint bytes, sender then receiver.
    state_fnv1a: [u64; 2],
    state_len: [usize; 2],
    /// Packets in flight at the sender when the checkpoint was taken.
    tx_in_flight: usize,
    checkpoint: [Checkpoint; 2],
    finished_at_ns: u64,
    fabric_delivered: u64,
    pony_tx_packets: [u64; 2],
    pony_rx_packets: [u64; 2],
}

/// The lossy stream again, with 500 KB messages, checkpointed on both
/// hosts while the first send is partly acked, the first two messages
/// are partly reassembled across holes, and the sender has packets in
/// flight, on the retransmit queue and not yet sent. Both engines are
/// then rebuilt from exactly those bytes (the upgrade path) and the
/// stream runs to the end.
fn checkpointed_stream() -> RestoreGolden {
    const MSGS: u64 = 6;
    const IN_FLIGHT: u64 = 4;
    const MSG_BYTES: u64 = 500_000;

    let mut tb = Testbed::new(TestbedConfig {
        loss: 0.01,
        seed: 5,
        ..TestbedConfig::default()
    });
    let mut tx = tb.pony_app(0, "tx", |_| {});
    let mut rx = tb.pony_app(1, "rx", |_| {});
    let conn = tb.connect(0, "tx", 1, "rx");
    rx.submit(&mut tb.sim, PonyCommand::PostRecvBuffers { conn, count: 64 });
    tb.run_us(50);
    rx.take_completions();

    let t0 = tb.sim.now();
    let send = PonyCommand::Send {
        conn,
        stream: 0,
        len: MSG_BYTES,
    };
    let mut ops: Vec<u64> = (0..IN_FLIGHT)
        .map(|_| tx.submit(&mut tb.sim, send.clone()))
        .collect();
    // The first RTO has just fired: part of the window is back in
    // flight, the rest waits on the retransmit queue.
    tb.run_us(830);

    let apps = [(0usize, "tx"), (1usize, "rx")];
    let engine_of = |tb: &Testbed, (h, app): (usize, &str)| {
        tb.hosts[h].module.engine_for(app).expect("app has an engine")
    };
    let states = apps.map(|at| {
        tb.hosts[at.0]
            .group
            .with_engine(engine_of(&tb, at), |e| e.serialize_state())
    });
    let tx_in_flight = tb.hosts[0].group.with_engine(engine_of(&tb, apps[0]), |e| {
        let engine = e.as_any().downcast_mut::<PonyEngine>().expect("pony engine");
        engine.debug_flow_info().2
    });
    for (at, state) in apps.iter().zip(&states) {
        let id = engine_of(&tb, *at);
        let host = &tb.hosts[at.0];
        let factory = host.module.upgrade_factory(at.1).expect("app has an engine");
        let group = host.group.clone();
        group.suspend_engine(&mut tb.sim, id);
        let engine = factory(state.clone(), &mut tb.sim).expect("checkpoint restores");
        group.resume_engine(&mut tb.sim, id, engine);
    }

    // Exactly once: every op completes Ok one time, every message is
    // delivered one time and in stream order.
    let mut done: Vec<u64> = Vec::new();
    let mut delivered: Vec<u64> = Vec::new();
    let deadline = t0 + Nanos::from_millis(4_000);
    while (done.len() as u64) < MSGS && tb.sim.now() < deadline {
        tb.run_us(1);
        for c in rx.take_completions() {
            if let PonyCompletion::RecvMsg { msg, len, .. } = c {
                assert_eq!(len, MSG_BYTES);
                delivered.push(msg);
                rx.submit(&mut tb.sim, PonyCommand::PostRecvBuffers { conn, count: 1 });
            }
        }
        for c in tx.take_completions() {
            if let PonyCompletion::OpDone { op, status, .. } = c {
                assert_eq!(status, OpStatus::Ok);
                done.push(op);
                if (ops.len() as u64) < MSGS {
                    ops.push(tx.submit(&mut tb.sim, send.clone()));
                }
            }
        }
    }
    let finished_at_ns = (tb.sim.now() - t0).as_nanos();
    tb.run_ms(20);
    assert!(tx.take_completions().is_empty(), "an op completed twice");
    assert!(rx.take_completions().is_empty(), "a message was delivered twice");
    assert_eq!(done, ops, "each op completes once, in order");
    assert_eq!(delivered, (0..MSGS).collect::<Vec<u64>>());

    let stats = [engine_stats(&tb, 0), engine_stats(&tb, 1)];
    RestoreGolden {
        state_fnv1a: [fnv1a(&states[0]), fnv1a(&states[1])],
        state_len: [states[0].len(), states[1].len()],
        tx_in_flight,
        checkpoint: [&states[0], &states[1]]
            .map(|s| read_checkpoint(s).expect("checkpoint reads back")),
        finished_at_ns,
        fabric_delivered: tb.fabric.stats().delivered,
        pony_tx_packets: [stats[0].tx_packets, stats[1].tx_packets],
        pony_rx_packets: [stats[0].rx_packets, stats[1].rx_packets],
    }
}

#[test]
fn mid_stream_checkpoint_is_pinned_and_restores_exactly_once() {
    let got = checkpointed_stream();
    let want = RestoreGolden {
        state_fnv1a: [0x467b5b495f28febf, 0x4d3ce2f1023119a1],
        state_len: [39_744, 8_482],
        tx_in_flight: 231,
        checkpoint: [
            Checkpoint {
                rcv_sacks: 0,
                unacked: 406,
                outq: 64,
                sends: vec![(334, 204), (334, 0), (334, 0), (334, 0)],
                recvs: vec![],
            },
            Checkpoint {
                rcv_sacks: 417,
                unacked: 0,
                outq: 0,
                sends: vec![],
                recvs: vec![(500_000, 331), (500_000, 274)],
            },
        ],
        finished_at_ns: 1_083_000_000,
        fabric_delivered: 5450,
        pony_tx_packets: [2531, 2046],
        pony_rx_packets: [2032, 2500],
    };
    assert_eq!(got, want);
}
