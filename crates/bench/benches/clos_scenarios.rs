//! **Scenarios on a compiled spine/leaf Clos** (multi-rack topology,
//! DESIGN.md §15), kernel TCP vs Pony over the sockets facade.
//!
//! 1. **N:1 incast sweep** — a closed-loop [`ClientPool`] fans 2/6/12
//!    cross-rack clients into one server; reports tail latency and the
//!    destination-leaf drop attribution (the incast signature: drops
//!    concentrate at the victim's ToR).
//! 2. **Oversubscription** — a 12:4 cross-rack pattern (every client
//!    rack hammering rack 0's four servers) on a non-blocking (1:1) vs
//!    4:1-oversubscribed fabric. N:1 to a single server cannot expose
//!    oversubscription — at 4:1 the victim rack's trunk aggregate
//!    exactly equals one host's NIC rate, so the server link binds
//!    first either way. With four servers the rack wants 4 hosts' worth
//!    of ingress but the 4:1 trunks carry one: the trunk tier becomes
//!    the bottleneck and the tails move.
//! 3. **Diurnal fleet** — the mixed fleet (DAG + KV + streamer) placed
//!    across a 2-rack Clos with the DAG under a [`DiurnalLoad`]
//!    arrival curve.
//!
//! Sim clock only: every number printed is virtual time under the
//! fixed seed, asserted identical across a rerun and pinned in
//! `tests/golden/scenarios/clos_scenarios.txt`.
//!
//! Run: `cargo bench -p snap-bench --bench clos_scenarios`

use snap_repro::apps::dag::{OpenLoop, ServiceTime};
use snap_repro::apps::kv::KvSpec;
use snap_repro::apps::pool::{ClientPool, PoolSpec};
use snap_repro::apps::stream::StreamSpec;
use snap_repro::apps::transport::Backend;
use snap_repro::apps::workload::drive;
use snap_repro::fleet::{run_mixed_fleet, FleetSpec};
use snap_repro::nic::fabric::SwitchId;
use snap_repro::sim::dist::DiurnalLoad;
use snap_repro::sim::Nanos;
use snap_repro::testbed::{Testbed, TestbedConfig};
use snap_repro::topo::ClosSpec;

const SEED: u64 = 42;
const RACKS: u32 = 4;
const HOSTS_PER_RACK: u32 = 4;
const SPINES: u32 = 2;
const REQUESTS_PER_CLIENT: u64 = 15;

#[derive(PartialEq, Debug)]
struct PoolRun {
    completed: u64,
    p50: Nanos,
    p99: Nanos,
    rps: f64,
    dst_leaf_drops: u64,
    other_switch_drops: u64,
}

/// `fan_in` closed-loop clients, one per host of racks 1.., spread
/// round-robin over `servers` echo servers in rack 0. Request-heavy
/// (`request_bytes` up, 128 B back): the congestion point is rack 0's
/// leaf, or the trunks feeding it.
fn pool_run(
    backend: Backend,
    topology: ClosSpec,
    servers: usize,
    fan_in: usize,
    request_bytes: usize,
    window: u32,
    budget: Nanos,
) -> PoolRun {
    let hosts = (RACKS * HOSTS_PER_RACK) as usize;
    let first_client = HOSTS_PER_RACK as usize;
    assert!(servers <= first_client, "servers live in rack 0");
    assert!(
        fan_in <= hosts - first_client,
        "clients live outside rack 0"
    );
    let mut tb = Testbed::new(TestbedConfig {
        hosts,
        seed: SEED,
        topology: Some(topology),
        ..TestbedConfig::default()
    });
    let server_shs: Vec<_> = (0..servers)
        .map(|s| tb.app(s, &format!("srv{s}"), backend))
        .collect();
    let mut pairs = Vec::with_capacity(fan_in);
    for c in 0..fan_in {
        let host = first_client + c;
        let srv = c % servers;
        let name = format!("cli{c}");
        tb.app(host, &name, backend);
        let dial = tb
            .app_connect(host, &name, srv, &format!("srv{srv}"))
            .expect("facade endpoints wire");
        let accepted = server_shs[srv].listener().accept().expect("server accepts");
        pairs.push((dial, accepted));
    }
    let mut pool = ClientPool::new(
        PoolSpec {
            request_bytes,
            reply_bytes: 128,
            window,
            think: Nanos::ZERO,
            service: ServiceTime::Exponential { mean_us: 2.0 },
            requests_per_client: REQUESTS_PER_CLIENT,
        },
        pairs,
        SEED,
    );
    pool.begin(tb.sim.now());
    drive(tb.as_pump(), &mut [&mut pool], budget).expect("pool completes within budget");
    let report = pool.summary(tb.sim.now());
    assert_eq!(report.completed, fan_in as u64 * REQUESTS_PER_CLIENT);

    let mut dst_leaf_drops = 0u64;
    let mut other_switch_drops = 0u64;
    for ((sw, _class), n) in tb.fabric.switch_drop_breakdown() {
        if sw == SwitchId::Leaf(0) {
            dst_leaf_drops += n;
        } else {
            other_switch_drops += n;
        }
    }
    PoolRun {
        completed: report.completed,
        p50: report.p50,
        p99: report.p99,
        rps: report.throughput_rps(),
        dst_leaf_drops,
        other_switch_drops,
    }
}

fn pool_header(knob: &str) {
    println!(
        "{:<6} {:>6} {:>9} {:>11} {:>11} {:>12} {:>10} {:>10}",
        "stack", knob, "completed", "p50_ns", "p99_ns", "rps", "leaf0_drop", "other_drop"
    );
}

fn pool_row(backend: Backend, knob: impl std::fmt::Display, r: &PoolRun) {
    println!(
        "{:<6} {:>6} {:>9} {:>11} {:>11} {:>12.0} {:>10} {:>10}",
        backend.label(),
        knob,
        r.completed,
        r.p50.as_nanos(),
        r.p99.as_nanos(),
        r.rps,
        r.dst_leaf_drops,
        r.other_switch_drops,
    );
}

fn incast_sweep() {
    println!(
        "\n[1/3] N:1 incast on a {RACKS}x{HOSTS_PER_RACK} Clos ({SPINES} spines), \
         16 KB requests, closed loop (window 4)"
    );
    pool_header("fan_in");
    for backend in [Backend::Tcp, Backend::Pony] {
        for fan_in in [2usize, 6, 12] {
            let run = || {
                pool_run(
                    backend,
                    ClosSpec::clos(RACKS, HOSTS_PER_RACK, SPINES),
                    1,
                    fan_in,
                    16 * 1024,
                    4,
                    Nanos::from_millis(900),
                )
            };
            let r = run();
            pool_row(backend, fan_in, &r);
            assert_eq!(r, run(), "same seed must replay the incast run");
            assert!(
                r.other_switch_drops <= r.dst_leaf_drops,
                "incast drops must concentrate at the victim ToR"
            );
        }
    }
}

fn oversubscription() {
    println!("\n[2/3] oversubscription: 12:4 cross-rack pool, non-blocking (1:1) vs 4:1 trunks");
    pool_header("ratio");
    for backend in [Backend::Tcp, Backend::Pony] {
        let mut p99 = Vec::new();
        for ratio in [1.0f64, 4.0] {
            let run = || {
                pool_run(
                    backend,
                    ClosSpec::clos(RACKS, HOSTS_PER_RACK, SPINES)
                        .with_oversubscription(ratio, 50.0),
                    HOSTS_PER_RACK as usize,
                    ((RACKS - 1) * HOSTS_PER_RACK) as usize,
                    64 * 1024,
                    8,
                    Nanos::from_millis(4_000),
                )
            };
            let r = run();
            pool_row(backend, ratio, &r);
            assert_eq!(r, run(), "same seed must replay the oversubscription run");
            p99.push(r.p99);
        }
        assert!(p99[1] > p99[0], "4:1 trunks must move the tail");
    }
}

#[derive(PartialEq, Debug)]
struct DiurnalResult {
    dag_completed: u64,
    dag_p50: Nanos,
    dag_p99: Nanos,
    kv_verified: u64,
    kv_p99: Nanos,
    stream_records: u64,
    trunk_bytes: u64,
}

/// The mixed fleet placed across a 2-rack Clos: the DAG spans the
/// racks (frontend + leaf in rack 0, both mids in rack 1), the KV pair
/// and the streamer each cross racks, and the DAG's open loop follows
/// a diurnal curve — peak arrivals 60% above the trough.
fn diurnal_fleet() -> DiurnalResult {
    let mut tb = Testbed::new(TestbedConfig {
        hosts: 4,
        seed: SEED,
        topology: Some(ClosSpec::clos(2, 2, 2)),
        ..TestbedConfig::default()
    });
    let spec = FleetSpec {
        dag: snap_bench::diamond_dag([0, 2, 3, 1]),
        dag_load: OpenLoop::diurnal(
            DiurnalLoad {
                base_rate: 6_000.0,
                swing: 0.6,
                period: Nanos::from_millis(10),
                noise: 0.05,
            },
            60,
        ),
        kv: KvSpec {
            keys: 64,
            zipf_s: 1.1,
            value_bytes: 128,
            lookup: ServiceTime::Exponential { mean_us: 3.0 },
            rate_per_sec: 6_000.0,
            requests: 40,
        },
        kv_hosts: (1, 3),
        stream: StreamSpec {
            record_bytes: 8 * 1024,
            rate_per_sec: 2_000.0,
            records: 25,
        },
        stream_hosts: (2, 0),
        mem_quota: (256 * 1024, 512 * 1024),
        budget: Nanos::from_millis(500),
    };
    let report = run_mixed_fleet(&mut tb, &spec).expect("diurnal fleet completes");
    DiurnalResult {
        dag_completed: report.dag.results.len() as u64,
        dag_p50: report.dag.p50,
        dag_p99: report.dag.p99,
        kv_verified: report.kv.verified,
        kv_p99: report.kv.p99,
        stream_records: report.stream.records,
        trunk_bytes: tb.fabric.trunks().iter().map(|(_, s)| s.bytes).sum(),
    }
}

fn main() {
    snap_bench::header("Scenarios: multi-rack Clos fabric");
    incast_sweep();
    oversubscription();

    println!("\n[3/3] diurnal mixed fleet on a 2-rack Clos");
    let d = diurnal_fleet();
    assert_eq!(
        d,
        diurnal_fleet(),
        "same seed must replay the diurnal fleet"
    );
    assert!(d.trunk_bytes > 0, "fleet traffic crossed the spine layer");
    println!(
        "    dag {}/60 (p50 {} ns, p99 {} ns)  kv {}/40 (p99 {} ns)  stream {}/25  trunk {} bytes",
        d.dag_completed,
        d.dag_p50.as_nanos(),
        d.dag_p99.as_nanos(),
        d.kv_verified,
        d.kv_p99.as_nanos(),
        d.stream_records,
        d.trunk_bytes,
    );
}
