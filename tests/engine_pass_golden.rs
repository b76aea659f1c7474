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
        drained_at_ns: 28_225_000,
        fabric_delivered: 15_210,
        fabric_random_drops: 30,
        nic_tx_packets: 15_240,
        nic_tx_bytes: 14_000_660,
        nic_rx_bytes: 13_973_530,
        pony_tx_packets: 15_240,
        pony_rx_packets: 15_210,
        pony_ops_completed: 1008,
        probe_p50_ns: 11_876,
        probe_p99_ns: 18_083,
        group_cpu: vec![
            [1_369_610, 2_628_061, 137_600],
            [1_263_523, 2_525_839, 25_600],
            [1_421_956, 2_624_720, 128_000],
            [1_084_336, 2_778_938, 44_800],
            [1_465_033, 2_348_247, 54_400],
            [1_648_710, 2_373_178, 195_200],
            [1_214_263, 2_644_366, 32_000],
            [1_283_814, 2_727_158, 134_400],
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
            [2_709_298, 1_710_660_062, 0],
            [2_115_915, 1_711_149_205, 0],
        ],
    };
    assert_eq!(got, want);
}
