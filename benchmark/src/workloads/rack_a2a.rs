//! `rack_a2a`: the section 5.2 rack. 42 hosts as a 7 x 6 Clos with 3
//! spines, 50 Gbps NICs, compacting engines. Per host one bulk job
//! fires Poisson 1 MB sends at 1 000 /s to uniformly random peers over a
//! full 42 x 41 connection mesh, and one prober job does 64 B
//! ping-pongs to random peers at 5 000 /s. Open loop: every arrival is
//! submitted at the instant it is due, whatever the system's state. An
//! op is one prober round trip, timed from its due instant; bulk sends
//! count toward goodput and the failure count.

use std::collections::{HashMap, HashSet, VecDeque};

use snap_repro::core::group::SchedulingMode;
use snap_repro::pony::client::{OpStatus, PonyClient, PonyCommand, PonyCompletion};
use snap_repro::sim::{Nanos, Rng};
use snap_repro::testbed::{Testbed, TestbedConfig};
use snap_repro::topo::ClosSpec;

use super::{trace_ppm, RepOpts};
use crate::harness::{Call, Extra, Latency, RepOut, SimSide, Spans, Totals};

const RACKS: u32 = 7;
const HOSTS_PER_RACK: u32 = 6;
const SPINES: u32 = 3;
const HOSTS: usize = (RACKS * HOSTS_PER_RACK) as usize;
/// Virtual length of the timed window. Frozen.
const WINDOW: Nanos = Nanos::from_millis(6);
/// Long enough for a send that hit a retransmission timeout to finish.
const DRAIN: Nanos = Nanos::from_millis(200);
const POLL: Nanos = Nanos::from_micros(1);
const BULK_PER_SEC: f64 = 1_000.0;
const BULK_BYTES: u64 = 1_000_000;
const PROBE_PER_SEC: f64 = 5_000.0;
const PROBE_BYTES: u64 = 64;
const REQUEST: u32 = 1;
const REPLY: u32 = 0;

#[derive(Clone, Copy)]
struct Arrival {
    due: Nanos,
    host: usize,
    peer: usize,
    bulk: bool,
}

/// The whole arrival schedule from the seed: per host two independent
/// Poisson processes conditioned on their count (exactly `rate x span`
/// arrivals at uniform instants), each arrival to a uniformly random
/// other host. Every seed offers exactly the nominal load; what varies
/// is when, and to whom.
fn schedule(seed: u64, from: Nanos, until: Nanos) -> Vec<Arrival> {
    let span = (until - from).as_nanos();
    let mut out = Vec::new();
    for host in 0..HOSTS {
        for (bulk, rate) in [(true, BULK_PER_SEC), (false, PROBE_PER_SEC)] {
            let mut rng = Rng::new(seed).stream(((host as u64) << 1) | bulk as u64);
            let count = (rate * span as f64 / 1e9).round() as u64;
            for _ in 0..count {
                let due = from + Nanos(rng.below(span));
                let mut peer = rng.below(HOSTS as u64 - 1) as usize;
                if peer >= host {
                    peer += 1;
                }
                out.push(Arrival {
                    due,
                    host,
                    peer,
                    bulk,
                });
            }
        }
    }
    out.sort_by_key(|a| (a.due, a.host, a.bulk));
    out
}

struct Driver {
    tb: Testbed,
    bulk: Vec<PonyClient>,
    probe: Vec<PonyClient>,
    /// Connection of the ordered pair (from, to), per job kind.
    bulk_conn: Vec<Vec<u64>>,
    probe_conn: Vec<Vec<u64>>,
    sp: Spans,
    /// Due instants of the probes in flight, FIFO per (host, conn).
    probes_out: HashMap<(usize, u64), VecDeque<Nanos>>,
    /// Bulk ops in flight per host.
    bulk_out: Vec<HashSet<u64>>,
    window: (Nanos, Nanos),
    lat_ns: Vec<u64>,
    late_ns: Vec<u64>,
    payload_bytes: u64,
    attempted: u64,
    failed: u64,
    submitted: u64,
    delivered: u64,
    pending_max: u64,
}

impl Driver {
    fn in_window(&self, t: Nanos) -> bool {
        self.window.0 <= t && t < self.window.1
    }

    fn submit(&mut self, a: Arrival) {
        let now = self.tb.sim.now();
        self.late_ns.push((now - a.due).as_nanos());
        self.attempted += 1;
        self.submitted += 1;
        if a.bulk {
            let conn = self.bulk_conn[a.host][a.peer];
            let op = self.bulk[a.host].submit(
                &mut self.tb.sim,
                PonyCommand::Send {
                    conn,
                    stream: 0,
                    len: BULK_BYTES,
                },
            );
            self.bulk_out[a.host].insert(op);
        } else {
            let conn = self.probe_conn[a.host][a.peer];
            self.probe[a.host].submit(
                &mut self.tb.sim,
                PonyCommand::Send {
                    conn,
                    stream: REQUEST,
                    len: PROBE_BYTES,
                },
            );
            self.probes_out
                .entry((a.host, conn))
                .or_default()
                .push_back(a.due);
        }
    }

    fn poll(&mut self) {
        let now = self.tb.sim.now();
        for h in 0..HOSTS {
            if self.bulk[h].completions_pending() + self.probe[h].completions_pending() == 0 {
                continue;
            }
            for c in self.bulk[h].take_completions() {
                match c {
                    PonyCompletion::RecvMsg { len, .. } => {
                        self.delivered += 1;
                        if self.in_window(now) {
                            self.payload_bytes += len;
                        }
                    }
                    PonyCompletion::OpDone { op, status, .. } => {
                        if !self.bulk_out[h].remove(&op) || status != OpStatus::Ok {
                            self.failed += 1;
                        }
                    }
                }
            }
            for c in self.probe[h].take_completions() {
                match c {
                    PonyCompletion::RecvMsg {
                        conn,
                        stream: REQUEST,
                        len,
                        ..
                    } => {
                        self.delivered += 1;
                        if self.in_window(now) {
                            self.payload_bytes += len;
                        }
                        self.probe[h].submit(
                            &mut self.tb.sim,
                            PonyCommand::Send {
                                conn,
                                stream: REPLY,
                                len,
                            },
                        );
                        self.submitted += 1;
                    }
                    PonyCompletion::RecvMsg { conn, len, .. } => {
                        self.delivered += 1;
                        if self.in_window(now) {
                            self.payload_bytes += len;
                        }
                        match self
                            .probes_out
                            .get_mut(&(h, conn))
                            .and_then(VecDeque::pop_front)
                        {
                            Some(due) if self.in_window(now) => {
                                self.lat_ns.push((now - due).as_nanos());
                            }
                            Some(_) => {}
                            None => self.failed += 1, // a reply nobody asked for
                        }
                    }
                    PonyCompletion::OpDone { status, .. } => {
                        if status != OpStatus::Ok {
                            self.failed += 1;
                        }
                    }
                }
            }
        }
    }

    fn outstanding(&self) -> usize {
        self.probes_out.values().map(VecDeque::len).sum::<usize>()
            + self.bulk_out.iter().map(HashSet::len).sum::<usize>()
    }

    /// Runs to `until`: arrivals are submitted at their due instants,
    /// completions polled every `POLL`.
    fn pump(&mut self, arrivals: &[Arrival], until: Nanos, drain: bool) {
        let mut arrivals = arrivals.iter().peekable();
        let mut next_poll = self.tb.sim.now() + POLL;
        while self.tb.sim.now() < until && !(drain && self.outstanding() == 0) {
            let due = arrivals.peek().map_or(until, |a| a.due);
            let stop = due.min(next_poll).min(until);
            let t = self.sp.tick();
            self.tb.sim.run_until(stop);
            self.sp.tock(Call::SimRun, t);
            let t = self.sp.tick();
            while let Some(a) = arrivals.next_if(|a| a.due <= stop) {
                self.submit(*a);
            }
            self.sp.tock(Call::Submit, t);
            if stop == next_poll {
                self.pending_max = self.pending_max.max(self.tb.sim.pending() as u64);
                let t = self.sp.tick();
                self.poll();
                self.sp.tock(Call::Poll, t);
                next_poll += POLL;
            }
        }
    }
}

pub fn run(o: &RepOpts) -> RepOut {
    let mut sp = Spans::new(o.traced);
    sp.open("rep");
    sp.open("testbed_build");
    let mut tb = Testbed::new(TestbedConfig {
        hosts: HOSTS,
        mode: SchedulingMode::compacting_default(),
        seed: o.seed,
        trace_sample_ppm: trace_ppm(o),
        topology: Some(ClosSpec::clos(RACKS, HOSTS_PER_RACK, SPINES)),
        ..TestbedConfig::default()
    });
    let mut bulk = Vec::with_capacity(HOSTS);
    let mut probe = Vec::with_capacity(HOSTS);
    for h in 0..HOSTS {
        tb.hosts[h].machine.borrow_mut().set_cstates_enabled(true);
        bulk.push(tb.pony_app(h, "bulk", |_| {}));
        probe.push(tb.pony_app(h, "probe", |_| {}));
    }
    sp.next("connect");
    let mut bulk_conn = vec![vec![0u64; HOSTS]; HOSTS];
    let mut probe_conn = vec![vec![0u64; HOSTS]; HOSTS];
    for from in 0..HOSTS {
        for to in 0..HOSTS {
            if from == to {
                continue;
            }
            let conn = tb.connect(from, "bulk", to, "bulk");
            bulk[to].submit(
                &mut tb.sim,
                PonyCommand::PostRecvBuffers { conn, count: 256 },
            );
            bulk_conn[from][to] = conn;
            probe_conn[from][to] = tb.connect(from, "probe", to, "probe");
        }
    }

    // Let the buffer posts land and discard their completions, so every
    // `OpDone` seen later belongs to a bulk send.
    tb.run_us(50);
    for c in &mut bulk {
        c.take_completions();
    }

    sp.next("warmup");
    let recorder = tb.recorder.clone();
    let window = WINDOW.scale(o.scale);
    let t0 = tb.sim.now();
    let w0 = t0 + window.scale(0.1);
    let w1 = w0 + window;
    let arrivals = schedule(o.seed, t0, w1);
    let split = arrivals.partition_point(|a| a.due < w0);
    let mut d = Driver {
        tb,
        bulk,
        probe,
        bulk_conn,
        probe_conn,
        sp,
        probes_out: HashMap::new(),
        bulk_out: vec![HashSet::new(); HOSTS],
        window: (w0, w1),
        lat_ns: Vec::new(),
        late_ns: Vec::new(),
        payload_bytes: 0,
        attempted: 0,
        failed: 0,
        submitted: 0,
        delivered: 0,
        pending_max: 0,
    };
    d.pump(&arrivals[..split], w0, false);

    let start = Totals::read(&mut d.tb);
    d.late_ns.clear();
    d.sp.next("window");
    d.pump(&arrivals[split..], w1, false);
    d.sp.next("drain");
    let end = Totals::read(&mut d.tb);

    d.pump(&[], w1 + DRAIN, true);
    d.tb.stop_groups();
    let t = d.tb.sim.now() + Nanos::from_millis(1);
    d.tb.sim.run_until(t);
    let drained = Totals::read(&mut d.tb);
    d.sp.close();
    d.sp.close();

    d.failed += d.outstanding() as u64;
    d.late_ns.sort_unstable();
    RepOut {
        spans: d.sp,
        recorder,
        sim: SimSide {
            // Every host sends and receives.
            sides: vec![(0..HOSTS).collect()],
            start,
            end,
            drained,
            extra: Extra {
                late_ns: d.late_ns,
                pending_max: d.pending_max,
                ..Extra::default()
            },
            payload_bytes: d.payload_bytes,
            lat: Latency::of_samples(d.lat_ns),
            attempted: d.attempted,
            failed: d.failed,
            msgs_submitted: d.submitted,
            msgs_delivered: d.delivered,
        },
    }
}
