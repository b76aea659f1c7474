//! The §5.2 rack: one all-to-all RPC workload, one driver, two stacks.
//!
//! "We schedule 10 background jobs on each machine where each job
//! communicates over RPC at a chosen rate with a Poisson distribution.
//! Each RPC chooses one of the 420 total jobs at random as the target
//! and requests a 1MB (cache resident) response ... we also schedule a
//! single latency prober job on each machine ... We report the 99th
//! percentile latency of these measurements."
//!
//! Everything a row of Fig 6(b,c,d) or Fig 7 depends on is written once
//! here: [`schedule`] draws the whole arrival list from the seed before
//! the run, the same list whatever the stack; the mesh is job *j* ↔ job
//! *j* between every ordered host pair plus one prober connection per
//! pair; a request is answered with `rpc_bytes`, a probe with a reply;
//! the application is a thread that polls every 1 µs, on both stacks;
//! and goodput, CPU and prober RTTs are taken over one window. The two
//! stacks differ only behind the message-level contract of
//! `src/stack.rs`, which §5.1's pair ([`crate::pair`]) runs on too.

use std::collections::{BTreeMap, VecDeque};
use std::convert::Infallible;

use snap_apps::workload::poll_until;
use snap_core::group::SchedulingMode;
use snap_pony::PonyEngineConfig;
use snap_sched::antagonist::{ComputeAntagonist, MmapAntagonist};
use snap_sched::classes::SchedClass;
use snap_sim::{costs, Histogram, Nanos, Rng, Sim};
use snap_tcp::stack::TcpConfig;

use crate::stack::{Message, MessageStack, PonyStack, TcpStack, POLL_US, SETTLE};
use crate::testbed::{Testbed, TestbedConfig};

/// After the window, replies and responses are collected for at most
/// this long: beyond a kernel RTO and the longest non-preemptible
/// section, so the slowest probes are counted, not censored.
const DRAIN: Nanos = Nanos::from_millis(50);
const REQUEST_BYTES: u64 = 256;
const PROBE_BYTES: u64 = 128;

/// Which transport runs the rack.
#[derive(Debug, Clone)]
pub enum Stack {
    /// Kernel TCP baseline.
    Tcp,
    /// Snap/Pony with an engine scheduling mode and optional kernel
    /// class override (Fig. 6d uses `Some(Cfs { nice: -20 })`).
    Pony(SchedulingMode, Option<SchedClass>),
}

/// Background interference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Antagonist {
    /// Idle machines.
    None,
    /// MD5-style compute hogs (Fig. 6d).
    Compute(u32),
    /// mmap/munmap non-preemptible sections (Fig. 7b).
    Mmap,
}

/// Rack workload parameters.
#[derive(Debug, Clone)]
pub struct RackParams {
    /// Hosts on the rack.
    pub hosts: usize,
    /// RPC-serving jobs per host.
    pub jobs_per_host: usize,
    /// Response size (the paper's 1 MB).
    pub rpc_bytes: u64,
    /// Offered load per host, in RPC responses per second requested by
    /// that host's jobs.
    pub rpc_per_sec_per_host: f64,
    /// Prober small-RPC rate per host.
    pub prober_qps: f64,
    /// Transport under test.
    pub stack: Stack,
    /// Background interference.
    pub antagonist: Antagonist,
    /// Deep C-states enabled on the machines.
    pub cstates: bool,
    /// Measurement window.
    pub duration: Nanos,
    /// Seed.
    pub seed: u64,
}

impl Default for RackParams {
    fn default() -> Self {
        RackParams {
            hosts: 6,
            jobs_per_host: 4,
            rpc_bytes: 1_000_000,
            rpc_per_sec_per_host: 500.0,
            prober_qps: 500.0,
            stack: Stack::Pony(SchedulingMode::compacting_default(), None),
            antagonist: Antagonist::None,
            cstates: true,
            duration: Nanos::from_millis(60),
            seed: 12345,
        }
    }
}

/// Rack measurement outcome. Rates are over the window
/// `[start, start + duration)`; counts are of the whole run.
#[derive(Debug, Clone)]
pub struct RackResult {
    /// Average cores consumed per host in the window (all Snap/TCP CPU).
    pub cpu_per_host: f64,
    /// Aggregate response goodput delivered in the window, Gbps.
    pub delivered_gbps: f64,
    /// RTTs (ns) of the answered probes, each timed from the instant it
    /// was due.
    pub prober: Histogram,
    /// Probes still unanswered when the drain ended.
    pub probes_unanswered: u64,
    /// Probes issued (the schedule's count).
    pub probes_issued: u64,
    /// RPC requests issued (the schedule's count).
    pub bulk_issued: u64,
    /// RPC responses completed by the end of the drain.
    pub rpcs: u64,
    /// Job connections in the mesh.
    pub job_conns: usize,
    /// Kernel TCP only: mean number of active streams a segment sent in
    /// the window saw at its sender — the argument of
    /// `costs::tcp_stream_cost_factor`.
    pub tcp_mean_streams: Option<f64>,
}

/// One scheduled arrival: at `due`, `host` sends to `peer`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// The instant the RPC is due, whatever the system's state.
    pub due: Nanos,
    /// Issuing host.
    pub host: usize,
    /// Target host, never `host`.
    pub peer: usize,
    /// `Some(j)`: a bulk RPC from job *j* to the peer's job *j*.
    /// `None`: a probe, prober to prober.
    pub job: Option<usize>,
}

/// The whole arrival schedule from the seed: per host a bulk and a
/// probe Poisson process, each conditioned on its count (exactly
/// `rate × duration` arrivals at uniform instants in
/// `[from, from + duration)`), each arrival to a uniformly random
/// *other* host and, for bulk, a uniformly random job. Sorted by
/// `(due, host, kind)`. Every seed offers exactly the nominal load;
/// what varies is when, and to whom.
pub fn schedule(params: &RackParams, from: Nanos) -> Vec<Arrival> {
    let span = params.duration.as_nanos();
    let mut out = Vec::new();
    for host in 0..params.hosts {
        for (bulk, rate) in [
            (true, params.rpc_per_sec_per_host),
            (false, params.prober_qps),
        ] {
            let mut rng = Rng::new(params.seed).stream(((host as u64) << 1) | bulk as u64);
            let count = (rate * span as f64 / 1e9).round() as u64;
            for _ in 0..count {
                let due = from + Nanos(rng.below(span));
                let mut peer = rng.below(params.hosts as u64 - 1) as usize;
                if peer >= host {
                    peer += 1;
                }
                let job = bulk.then(|| rng.below(params.jobs_per_host as u64) as usize);
                out.push(Arrival {
                    due,
                    host,
                    peer,
                    job,
                });
            }
        }
    }
    out.sort_by_key(|a| (a.due, a.host, a.job.is_none()));
    out
}

/// What a message is: the tag the stack carries beside its length.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Response = 0,
    Request = 1,
    Reply = 2,
    Probe = 3,
}

impl Kind {
    fn from_tag(tag: u32) -> Kind {
        [Kind::Response, Kind::Request, Kind::Reply, Kind::Probe][(tag & 3) as usize]
    }
}

/// The applications: every job and prober on the rack, as one polled
/// state machine over the stack.
struct Apps<'a> {
    params: &'a RackParams,
    stack: Box<dyn MessageStack>,
    /// `[host][peer][app]`: the connection `host`'s app dialed.
    mesh: Vec<Vec<Vec<u64>>>,
    arrivals: std::iter::Peekable<std::vec::IntoIter<Arrival>>,
    inbox: Vec<Message>,
    /// Due instants of the probes in flight, FIFO per connection (a
    /// reply comes back on the connection its probe went out on).
    probes_out: BTreeMap<(usize, u64), VecDeque<Nanos>>,
    prober: Histogram,
    probes_issued: u64,
    bulk_issued: u64,
    rpcs: u64,
    response_bytes: u64,
}

impl Apps<'_> {
    /// So far, over all hosts: the CPU the stack consumed and, where it
    /// counts them (kernel TCP), the segments it sent and their
    /// `TcpHost::stream_seg_sum`.
    fn usage(&mut self, tb: &mut Testbed) -> (Nanos, u64, u64) {
        (0..self.params.hosts).fold((Nanos::ZERO, 0, 0), |sum, host| {
            let (cpu, segs, streams) = self.stack.usage(tb, host);
            (sum.0 + cpu.total(), sum.1 + segs, sum.2 + streams)
        })
    }

    /// One poll at `sim.now()`: issue what is due, answer what arrived.
    /// Yields once nothing is left to issue or wait for.
    fn poll(&mut self, sim: &mut Sim) -> Option<()> {
        let now = sim.now();
        while let Some(a) = self.arrivals.next_if(|a| a.due <= now) {
            let conn = self.mesh[a.host][a.peer][a.job.unwrap_or(self.params.jobs_per_host)];
            if a.job.is_some() {
                self.bulk_issued += 1;
                let request = Kind::Request as u32;
                self.stack.send(sim, a.host, conn, request, REQUEST_BYTES);
            } else {
                self.probes_issued += 1;
                self.probes_out
                    .entry((a.host, conn))
                    .or_default()
                    .push_back(a.due);
                let probe = Kind::Probe as u32;
                self.stack.send(sim, a.host, conn, probe, PROBE_BYTES);
            }
        }
        self.stack.drain(&mut self.inbox);
        for (host, conn, tag, len) in self.inbox.drain(..) {
            let mut answer = |kind: Kind, len| self.stack.send(sim, host, conn, kind as u32, len);
            match Kind::from_tag(tag) {
                Kind::Request => answer(Kind::Response, self.params.rpc_bytes),
                Kind::Response => {
                    self.rpcs += 1;
                    self.response_bytes += len;
                }
                Kind::Probe => answer(Kind::Reply, PROBE_BYTES),
                Kind::Reply => {
                    let sent = self.probes_out.get_mut(&(host, conn));
                    if let Some(due) = sent.and_then(VecDeque::pop_front) {
                        self.prober.record_nanos(now.saturating_sub(due));
                    }
                }
            }
        }
        let idle = self.arrivals.peek().is_none()
            && self.rpcs == self.bulk_issued
            && self.prober.count() == self.probes_issued;
        idle.then_some(())
    }
}

/// Runs the rack on a default testbed of `params.hosts` hosts.
pub fn run(params: &RackParams) -> RackResult {
    let mut cfg = TestbedConfig {
        hosts: params.hosts,
        seed: params.seed,
        ..TestbedConfig::default()
    };
    if let Stack::Pony(mode, _) = &params.stack {
        cfg.mode = mode.clone();
    }
    run_on(&mut Testbed::new(cfg), params)
}

/// Runs the rack on `tb`, which must have `params.hosts` hosts and, for
/// a Pony stack, the scheduling mode to measure.
pub fn run_on(tb: &mut Testbed, params: &RackParams) -> RackResult {
    assert_eq!(tb.hosts.len(), params.hosts, "testbed size");
    let until = tb.sim.now() + SETTLE + params.duration + DRAIN;
    for (h, host) in tb.hosts.iter().enumerate() {
        host.machine
            .borrow_mut()
            .set_cstates_enabled(params.cstates);
        if let Stack::Pony(_, Some(class)) = params.stack {
            host.group.set_class_override(class);
        }
        let (machine, seed) = (host.machine.clone(), params.seed ^ h as u64);
        match params.antagonist {
            Antagonist::None => {}
            Antagonist::Compute(threads) => {
                let hogs = ComputeAntagonist {
                    threads,
                    ..ComputeAntagonist::default()
                };
                hogs.start(&mut tb.sim, machine, seed, until);
            }
            Antagonist::Mmap => MmapAntagonist::default().start(&mut tb.sim, machine, seed, until),
        }
    }

    // Apps `0..jobs_per_host` of a host are its jobs, app
    // `jobs_per_host` its prober.
    let mut stack: Box<dyn MessageStack> = match params.stack {
        Stack::Tcp => Box::new(TcpStack::new(tb, TcpConfig::default())),
        // "The MTU size for Snap/Pony is 5000B. For TCP, it is 4096B"
        // (§5.2) — the deployed rack configuration.
        Stack::Pony(..) => {
            let large_mtu = |cfg: &mut PonyEngineConfig| cfg.mtu = costs::PONY_LARGE_MTU;
            let apps = params.jobs_per_host + 1;
            Box::new(PonyStack::new(tb, apps, large_mtu))
        }
    };
    // Job j dials job j, the prober the prober, on every other host:
    // the dialing end is where the large responses land.
    let mut mesh = vec![vec![Vec::new(); params.hosts]; params.hosts];
    let mut job_conns = 0;
    for (h, row) in mesh.iter_mut().enumerate() {
        for app in 0..=params.jobs_per_host {
            for (peer, conns) in row.iter_mut().enumerate().filter(|(peer, _)| *peer != h) {
                conns.push(stack.connect(tb, (h, app), (peer, app)));
                job_conns += usize::from(app < params.jobs_per_host);
            }
        }
    }
    tb.sim.run_until(tb.sim.now() + SETTLE);

    let start = tb.sim.now();
    let mut apps = Apps {
        params,
        stack,
        mesh,
        arrivals: schedule(params, start).into_iter().peekable(),
        inbox: Vec::new(),
        probes_out: BTreeMap::new(),
        prober: Histogram::new(),
        probes_issued: 0,
        bulk_issued: 0,
        rpcs: 0,
        response_bytes: 0,
    };
    let (cpu0, segs0, streams0) = apps.usage(tb);
    // The window: the poll at its end still belongs to it, and yields
    // nothing, so the loop runs the full duration.
    let _ = poll_until(tb, POLL_US, params.duration, |sim| {
        apps.poll(sim);
        Ok::<Option<()>, Infallible>(None)
    });
    let (cpu1, segs1, streams1) = apps.usage(tb);
    let window_bytes = apps.response_bytes;
    // The drain: nothing new is due; ends early once all is answered.
    let _ = poll_until(tb, POLL_US, DRAIN, |sim| {
        Ok::<_, Infallible>(apps.poll(sim))
    });

    let secs = params.duration.as_secs_f64();
    RackResult {
        cpu_per_host: (cpu1 - cpu0).as_secs_f64() / secs / params.hosts as f64,
        delivered_gbps: window_bytes as f64 * 8.0 / secs / 1e9,
        probes_unanswered: apps.probes_issued - apps.prober.count(),
        prober: apps.prober,
        probes_issued: apps.probes_issued,
        bulk_issued: apps.bulk_issued,
        rpcs: apps.rpcs,
        job_conns,
        tcp_mean_streams: (segs1 > segs0)
            .then(|| (streams1 - streams0) as f64 / (segs1 - segs0) as f64),
    }
}
