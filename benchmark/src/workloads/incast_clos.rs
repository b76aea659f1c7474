//! `incast_clos`: the 4:1 oversubscription probe. A 4 x 4 Clos with 2
//! spines and 4:1 oversubscribed trunks; four echo servers fill rack 0
//! and twelve `ClientPool` clients on racks 1-3 keep four 64 KB
//! requests in flight each, over the Pony `SnapSocket` backend. Closed
//! loop with a fixed op count; the timed window is the pool's run. An op
//! is one request to its 128 B reply.

use snap_repro::apps::dag::ServiceTime;
use snap_repro::apps::pool::{ClientPool, PoolSpec};
use snap_repro::apps::socket::{SnapSocket, SocketHost};
use snap_repro::apps::transport::Backend;
use snap_repro::apps::SimPump;
use snap_repro::sim::Nanos;
use snap_repro::testbed::{Testbed, TestbedConfig};
use snap_repro::topo::ClosSpec;

use super::{trace_ppm, RepOpts};
use crate::harness::{Call, Extra, Latency, RepOut, SimSide, Spans, Totals};

const RACKS: u32 = 4;
const HOSTS_PER_RACK: u32 = 4;
const SPINES: u32 = 2;
const NIC_GBPS: f64 = 50.0;
const SERVERS: usize = HOSTS_PER_RACK as usize;
const CLIENTS: usize = ((RACKS - 1) * HOSTS_PER_RACK) as usize;
/// Requests per client in the timed window. Frozen.
const REQUESTS: u64 = 300;
const REQUEST_BYTES: usize = 64 * 1024;
const REPLY_BYTES: usize = 128;
const IN_FLIGHT: u32 = 4;
const PUMP_US: u64 = 5;
/// Virtual time a pool may take before its missing replies count as
/// failed.
const BUDGET: Nanos = Nanos::from_millis(4_000);

struct Run {
    completed: u64,
    expected: u64,
    p50: Nanos,
    p99: Nanos,
    max: Nanos,
}

/// Runs one closed-loop pool over `pairs` to completion (or `BUDGET`).
fn pool_run(
    tb: &mut Testbed,
    sp: &mut Spans,
    pairs: Vec<(SnapSocket, SnapSocket)>,
    requests: u64,
    seed: u64,
    pending_max: &mut u64,
) -> Run {
    let mut pool = ClientPool::new(
        PoolSpec {
            request_bytes: REQUEST_BYTES,
            reply_bytes: REPLY_BYTES,
            window: IN_FLIGHT,
            think: Nanos::ZERO,
            service: ServiceTime::Exponential { mean_us: 2.0 },
            requests_per_client: requests,
        },
        pairs,
        seed,
    );
    let deadline = tb.sim.now() + BUDGET;
    pool.begin(tb.sim.now());
    loop {
        let t = sp.tick();
        let ticked = pool.tick(&mut tb.sim);
        sp.tock(Call::Submit, t);
        if ticked.is_err() || pool.done() || tb.sim.now() >= deadline {
            break;
        }
        let t = sp.tick();
        tb.pump_us(PUMP_US);
        sp.tock(Call::SimRun, t);
        *pending_max = (*pending_max).max(tb.sim.pending() as u64);
    }
    let s = pool.summary(tb.sim.now());
    Run {
        completed: s.completed,
        expected: pool.expected(),
        p50: s.p50,
        p99: s.p99,
        max: s.max,
    }
}

pub fn run(o: &RepOpts) -> RepOut {
    let mut sp = Spans::new(o.traced);
    sp.open("rep");
    sp.open("testbed_build");
    let mut tb = Testbed::new(TestbedConfig {
        hosts: SERVERS + CLIENTS,
        nic_gbps: NIC_GBPS,
        seed: o.seed,
        trace_sample_ppm: trace_ppm(o),
        topology: Some(
            ClosSpec::clos(RACKS, HOSTS_PER_RACK, SPINES).with_oversubscription(4.0, NIC_GBPS),
        ),
        ..TestbedConfig::default()
    });
    let mut apps: Vec<SocketHost> = (0..SERVERS)
        .map(|s| tb.app(s, &format!("srv{s}"), Backend::Pony))
        .collect();
    for c in 0..CLIENTS {
        apps.push(tb.app(SERVERS + c, &format!("cli{c}"), Backend::Pony));
    }
    sp.next("connect");
    let mut pairs = Vec::with_capacity(CLIENTS);
    for c in 0..CLIENTS {
        let srv = c % SERVERS;
        let dial = tb
            .app_connect(SERVERS + c, &format!("cli{c}"), srv, &format!("srv{srv}"))
            .expect("facade endpoints wire");
        let accepted = apps[srv].listener().accept().expect("server accepts");
        pairs.push((dial, accepted));
    }

    sp.next("warmup");
    let recorder = tb.recorder.clone();
    let requests = ((REQUESTS as f64 * o.scale) as u64).max(1);
    let mut pending_max = 0;
    let warm = pool_run(
        &mut tb,
        &mut sp,
        pairs.clone(),
        (requests / 10).max(1),
        o.seed ^ 0xA11,
        &mut pending_max,
    );

    let start = Totals::read(&mut tb);
    let stats0: Vec<_> = apps.iter().map(SocketHost::stats).collect();
    pending_max = 0;
    sp.next("window");
    let timed = pool_run(&mut tb, &mut sp, pairs, requests, o.seed, &mut pending_max);
    sp.next("drain");
    let end = Totals::read(&mut tb);
    let mut extra = Extra {
        pending_max,
        ..Extra::default()
    };
    for (app, s0) in apps.iter().zip(&stats0) {
        let s = app.stats();
        extra.apps_chunks_tx += s.chunks_tx - s0.chunks_tx;
        extra.apps_busy_retries += s.busy_retries - s0.busy_retries;
        extra.apps_dup_chunks += s.dup_chunks - s0.dup_chunks;
    }

    tb.pump_us(1_000);
    let drained = Totals::read(&mut tb);
    sp.close();
    sp.close();

    let attempted = warm.expected + timed.expected;
    let completed = warm.completed + timed.completed;
    RepOut {
        spans: sp,
        recorder,
        sim: SimSide {
            sides: vec![
                (0..SERVERS).collect(),
                (SERVERS..SERVERS + CLIENTS).collect(),
            ],
            start,
            end,
            drained,
            extra,
            payload_bytes: timed.completed * (REQUEST_BYTES + REPLY_BYTES) as u64,
            lat: Latency::of_quantiles(timed.completed, timed.p50, timed.p99, timed.max),
            attempted,
            failed: attempted - completed,
            msgs_submitted: attempted,
            msgs_delivered: completed,
        },
    }
}
