//! The §5.2 rack workload: all-to-all 1 MB RPCs at a Poisson offered
//! load, plus a small-RPC latency prober per host.
//!
//! "We schedule 10 background jobs on each machine where each job
//! communicates over RPC at a chosen rate with a Poisson distribution.
//! Each RPC chooses one of the 420 total jobs at random as the target
//! and requests a 1MB (cache resident) response ... we also schedule a
//! single latency prober job on each machine ... We report the 99th
//! percentile latency of these measurements."
//!
//! The rack here is smaller (hosts × jobs configurable) but preserves
//! the workload shape. Both stacks implement the same request/response
//! protocol: a small request message answered by a `rpc_bytes` response.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use snap_repro::core::group::SchedulingMode;
use snap_repro::pony::client::{PonyCommand, PonyCompletion};
use snap_repro::sched::antagonist::{ComputeAntagonist, MmapAntagonist};
use snap_repro::sched::classes::SchedClass;
use snap_repro::sim::dist;
use snap_repro::sim::{Histogram, Nanos, Rng};
use snap_repro::tcp::stack::TcpConfig;
use snap_repro::testbed::{Testbed, TestbedConfig};

/// Which transport runs the rack.
#[derive(Clone)]
pub enum Stack {
    /// Kernel TCP baseline.
    Tcp,
    /// Snap/Pony with an engine scheduling mode and optional kernel
    /// class override (Fig. 6d uses `Some(Cfs { nice: -20 })`).
    Pony(SchedulingMode, Option<SchedClass>),
}

/// Background interference.
#[derive(Clone, Copy, PartialEq)]
pub enum Antagonist {
    /// Idle machines.
    None,
    /// MD5-style compute hogs (Fig. 6d).
    Compute(u32),
    /// mmap/munmap non-preemptible sections (Fig. 7b).
    Mmap,
}

/// Rack workload parameters.
#[derive(Clone)]
pub struct RackParams {
    /// Hosts on the rack.
    pub hosts: usize,
    /// RPC-serving jobs per host.
    pub jobs_per_host: usize,
    /// Response size (the paper's 1 MB).
    pub rpc_bytes: u64,
    /// Offered load per host, in RPC responses per second issued by
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
    /// Drive-loop step for the Pony rack (latency quantization).
    pub step: Nanos,
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
            step: Nanos::from_micros(5),
            seed: 12345,
        }
    }
}

/// Rack measurement outcome.
pub struct RackResult {
    /// Average cores consumed per host (all Snap/TCP CPU).
    pub cpu_per_host: f64,
    /// Aggregate delivered goodput across the rack, Gbps.
    pub delivered_gbps: f64,
    /// Prober RTT distribution (ns).
    pub prober: Histogram,
    /// RPC responses completed.
    pub rpcs: u64,
}

/// Runs the rack on the configured stack.
pub fn run(params: &RackParams) -> RackResult {
    match &params.stack {
        Stack::Tcp => run_tcp(params),
        Stack::Pony(mode, class) => run_pony(params, mode.clone(), *class),
    }
}

fn apply_antagonist(tb: &mut Testbed, params: &RackParams) {
    for h in 0..params.hosts {
        tb.hosts[h]
            .machine
            .borrow_mut()
            .set_cstates_enabled(params.cstates);
        match params.antagonist {
            Antagonist::None => {}
            Antagonist::Compute(threads) => {
                let machine = tb.hosts[h].machine.clone();
                ComputeAntagonist {
                    threads,
                    ..ComputeAntagonist::default()
                }
                .start(&mut tb.sim, machine, params.seed ^ h as u64, params.duration * 2);
            }
            Antagonist::Mmap => {
                let machine = tb.hosts[h].machine.clone();
                MmapAntagonist::default().start(
                    &mut tb.sim,
                    machine,
                    params.seed ^ h as u64,
                    params.duration * 2,
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Snap/Pony rack
// ---------------------------------------------------------------------------

fn run_pony(params: &RackParams, mode: SchedulingMode, class: Option<SchedClass>) -> RackResult {
    let mut tb = Testbed::new(TestbedConfig {
        hosts: params.hosts,
        mode,
        seed: params.seed,
        ..TestbedConfig::default()
    });
    if let Some(class) = class {
        for h in 0..params.hosts {
            tb.hosts[h].group.set_class_override(class);
        }
    }
    apply_antagonist(&mut tb, params);

    // Jobs: every host runs `jobs_per_host` servers; requests go to a
    // random (host, job) pair. One prober app per host.
    // "The MTU size for Snap/Pony is 5000B. For TCP, it is 4096B"
    // (§5.2) — the deployed rack configuration.
    let big_mtu = |cfg: &mut snap_repro::pony::PonyEngineConfig| {
        cfg.mtu = snap_repro::sim::costs::PONY_LARGE_MTU;
    };
    let mut clients = Vec::new(); // indexed [host][job]
    for h in 0..params.hosts {
        let mut row = Vec::new();
        for j in 0..params.jobs_per_host {
            row.push(tb.pony_app(h, &format!("job{h}_{j}"), big_mtu));
        }
        clients.push(row);
    }
    let mut probers = Vec::new();
    for h in 0..params.hosts {
        probers.push(tb.pony_app(h, &format!("prober{h}"), big_mtu));
    }

    // Full mesh of job connections (client side h,j -> server side
    // h2,j2). To bound setup cost, each job connects to ONE job on
    // every other host (j2 = j). Ordered: the buffer posts below walk
    // it, and the order they are submitted in is a modeled order.
    let mut conns: BTreeMap<(usize, usize, usize), u64> = BTreeMap::new();
    for h in 0..params.hosts {
        for j in 0..params.jobs_per_host {
            for h2 in 0..params.hosts {
                if h2 != h {
                    let c = tb.connect(h, &format!("job{h}_{j}"), h2, &format!("job{h2}_{j}"));
                    conns.insert((h, j, h2), c);
                }
            }
        }
    }
    let mut prober_conns: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    for h in 0..params.hosts {
        for h2 in 0..params.hosts {
            if h2 != h {
                let c = tb.connect(h, &format!("prober{h}"), h2, &format!("prober{h2}"));
                prober_conns.insert((h, h2), c);
            }
        }
    }
    // Post generous response buffers everywhere (both directions).
    // The server's small requests ride credits; its 1 MB responses land
    // in the buffers the client posts here.
    for ((h, j, _), &c) in &conns {
        clients[*h][*j].submit(&mut tb.sim, PonyCommand::PostRecvBuffers { conn: c, count: 8192 });
    }

    let mut rng = Rng::new(params.seed).stream(0xBEEF);
    let mut next_rpc: Vec<Nanos> = (0..params.hosts).map(|_| Nanos::ZERO).collect();
    let mut next_probe: Vec<Nanos> = (0..params.hosts).map(|_| Nanos::ZERO).collect();
    // Prober bookkeeping: submit times, FIFO per prober connection (a
    // reply comes back on the connection its probe went out on).
    let mut probe_outstanding: BTreeMap<u64, VecDeque<Nanos>> = BTreeMap::new();

    let mut prober_hist = Histogram::new();
    let mut delivered_bytes = 0u64;
    let mut rpcs = 0u64;

    let start = tb.sim.now();
    let deadline = start + params.duration;
    while tb.sim.now() < deadline {
        let now = tb.sim.now();
        for h in 0..params.hosts {
            // Issue background RPC requests.
            if now >= next_rpc[h] {
                next_rpc[h] = now + dist::poisson_gap(&mut rng, params.rpc_per_sec_per_host);
                let j = rng.below(params.jobs_per_host as u64) as usize;
                let mut h2 = rng.below(params.hosts as u64) as usize;
                if h2 == h {
                    h2 = (h2 + 1) % params.hosts;
                }
                let conn = conns[&(h, j, h2)];
                // Request: a small message; stream 1 is the request
                // channel, stream 0 carries responses.
                clients[h][j].submit(
                    &mut tb.sim,
                    PonyCommand::Send { conn, stream: 1, len: 256 },
                );
            }
            // Issue probes.
            if now >= next_probe[h] {
                next_probe[h] = now + dist::poisson_gap(&mut rng, params.prober_qps);
                let mut h2 = rng.below(params.hosts as u64) as usize;
                if h2 == h {
                    h2 = (h2 + 1) % params.hosts;
                }
                let conn = prober_conns[&(h, h2)];
                probers[h].submit(&mut tb.sim, PonyCommand::Send { conn, stream: 1, len: 128 });
                probe_outstanding.entry(conn).or_default().push_back(now);
            }
        }

        let next_deadline = tb.sim.now() + params.step;
        tb.sim.run_until(next_deadline);
        let now = tb.sim.now();

        // Service servers: answer requests.
        for h in 0..params.hosts {
            for client in &mut clients[h] {
                for c in client.take_completions() {
                    match c {
                        PonyCompletion::RecvMsg { conn, stream: 1, .. } => {
                            // A request: respond with rpc_bytes.
                            client.submit(
                                &mut tb.sim,
                                PonyCommand::Send { conn, stream: 0, len: params.rpc_bytes },
                            );
                        }
                        PonyCompletion::RecvMsg { stream: 0, len, .. } => {
                            delivered_bytes += len;
                            rpcs += 1;
                        }
                        _ => {}
                    }
                }
            }
            for c in probers[h].take_completions() {
                match c {
                    PonyCompletion::RecvMsg { conn, stream: 1, .. } => {
                        probers[h].submit(
                            &mut tb.sim,
                            PonyCommand::Send { conn, stream: 0, len: 128 },
                        );
                    }
                    PonyCompletion::RecvMsg { conn, stream: 0, .. } => {
                        // The oldest outstanding probe on this conn.
                        let sent = probe_outstanding.get_mut(&conn);
                        if let Some(t0) = sent.and_then(|q| q.pop_front()) {
                            prober_hist.record_nanos(now.saturating_sub(t0));
                        }
                    }
                    _ => {}
                }
            }
        }
    }

    let wall = (tb.sim.now() - start).as_secs_f64();
    let mut cpu_total = 0.0;
    for h in 0..params.hosts {
        cpu_total += tb.host_cpu(h).total().as_secs_f64();
    }
    RackResult {
        cpu_per_host: cpu_total / wall / params.hosts as f64,
        delivered_gbps: delivered_bytes as f64 * 8.0 / wall / 1e9,
        prober: prober_hist,
        rpcs,
    }
}

// ---------------------------------------------------------------------------
// Kernel TCP rack
// ---------------------------------------------------------------------------

fn run_tcp(params: &RackParams) -> RackResult {
    let mut tb = Testbed::new(TestbedConfig {
        hosts: params.hosts,
        seed: params.seed,
        ..TestbedConfig::default()
    });
    apply_antagonist(&mut tb, params);
    let stacks: Vec<_> = (0..params.hosts)
        .map(|h| tb.tcp_host(h, TcpConfig::default()))
        .collect();

    // Request/response protocol over message sizes: a 256 B message is
    // a request (answered with rpc_bytes), 128 B is a probe (answered
    // with 129 B), 129 B is a probe response, anything big is a
    // response.
    let delivered = Rc::new(RefCell::new((0u64, 0u64))); // (bytes, rpcs)
    let prober_hist = Rc::new(RefCell::new(Histogram::new()));
    let probe_sent: Rc<RefCell<BTreeMap<u64, VecDeque<Nanos>>>> = Rc::default();

    for stack in &stacks {
        let me = stack.clone();
        let rpc_bytes = params.rpc_bytes;
        let delivered = delivered.clone();
        let prober_hist = prober_hist.clone();
        let probe_sent = probe_sent.clone();
        stack.on_message(Rc::new(move |sim, conn, msg, len| {
            if len == 256 {
                me.send(sim, conn, msg ^ (1 << 60), rpc_bytes);
            } else if len == 128 {
                me.send(sim, conn, msg ^ (1 << 61), 129);
            } else if len == 129 {
                let mut sent = probe_sent.borrow_mut();
                if let Some(t0) = sent.get_mut(&conn).and_then(|q| q.pop_front()) {
                    prober_hist.borrow_mut().record_nanos(sim.now().saturating_sub(t0));
                }
            } else {
                let mut d = delivered.borrow_mut();
                d.0 += len;
                d.1 += 1;
            }
        }));
    }

    // Connections: job conns (one per host pair) and prober conns.
    let mut conns: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    let mut pconns: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    for (h, stack) in stacks.iter().enumerate() {
        for h2 in 0..params.hosts {
            if h2 != h {
                conns.insert((h, h2), stack.connect(tb.hosts[h2].id));
                pconns.insert((h, h2), stack.connect(tb.hosts[h2].id));
            }
        }
    }

    // Poisson generators as sim events.
    let mut rng = Rng::new(params.seed).stream(0xFACE);
    let deadline = tb.sim.now() + params.duration;
    let mut msg_id = 1u64 << 32;
    for h in 0..params.hosts {
        let mut t = tb.sim.now();
        loop {
            t += dist::poisson_gap(&mut rng, params.rpc_per_sec_per_host);
            if t >= deadline {
                break;
            }
            let mut h2 = rng.below(params.hosts as u64) as usize;
            if h2 == h {
                h2 = (h2 + 1) % params.hosts;
            }
            let stack = stacks[h].clone();
            let conn = conns[&(h, h2)];
            msg_id += 1;
            let mid = msg_id;
            tb.sim.schedule_at(t, move |sim| {
                stack.send(sim, conn, mid, 256);
            });
        }
        let mut t = tb.sim.now();
        loop {
            t += dist::poisson_gap(&mut rng, params.prober_qps);
            if t >= deadline {
                break;
            }
            let mut h2 = rng.below(params.hosts as u64) as usize;
            if h2 == h {
                h2 = (h2 + 1) % params.hosts;
            }
            let stack = stacks[h].clone();
            let conn = pconns[&(h, h2)];
            msg_id += 1;
            let mid = msg_id;
            let probe_sent = probe_sent.clone();
            tb.sim.schedule_at(t, move |sim| {
                probe_sent
                    .borrow_mut()
                    .entry(conn)
                    .or_default()
                    .push_back(sim.now());
                stack.send(sim, conn, mid, 128);
            });
        }
    }

    let start = tb.sim.now();
    tb.sim.run_until(deadline + Nanos::from_millis(5));
    let wall = (tb.sim.now() - start).as_secs_f64();
    let (bytes, rpcs) = *delivered.borrow();
    let mut cpu_total = 0.0;
    for s in &stacks {
        cpu_total += s.cpu_busy().as_secs_f64();
    }
    let prober = prober_hist.borrow().clone();
    RackResult {
        cpu_per_host: cpu_total / wall / params.hosts as f64,
        delivered_gbps: bytes as f64 * 8.0 / wall / 1e9,
        prober,
        rpcs,
    }
}
