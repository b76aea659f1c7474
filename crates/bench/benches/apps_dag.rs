//! **Scenario: one microservice DAG over kernel TCP vs Pony**
//! (application workloads, DESIGN.md §14).
//!
//! One declarative DAG ([`snap_bench::diamond_dag`]) — a fan-out/fan-in
//! diamond with heavy-tailed service times under open-loop Poisson
//! load — runs unmodified over both facade backends. Reports
//! end-to-end p50/p99 per backend plus the critical-path split (queue
//! wait, handler service, wire+stack transport), both from the
//! per-request accounting (which telescopes exactly to the measured
//! latency) and from the rack's trace recorder (the `app_*` stages
//! every request stamps while tracing at 100%).
//!
//! Sim clock only: every number printed is virtual time under the
//! fixed seed, asserted identical across a rerun and pinned in
//! `tests/golden/scenarios/apps_dag.txt`.
//!
//! Run: `cargo bench -p snap-bench --bench apps_dag`

use snap_repro::apps::dag::OpenLoop;
use snap_repro::apps::transport::Backend;
use snap_repro::apps::workload::drive;
use snap_repro::sim::trace::{Stage, TRACE_SAMPLE_SCALE};
use snap_repro::sim::Nanos;
use snap_repro::testbed::{Testbed, TestbedConfig};

const REQUESTS: u64 = 300;
const RATE_PER_SEC: f64 = 20_000.0;

#[derive(PartialEq, Debug)]
struct RunResult {
    completed: u64,
    p50: Nanos,
    p99: Nanos,
    /// Mean critical-path components per request (telescope to the
    /// mean end-to-end latency).
    queue_mean: Nanos,
    service_mean: Nanos,
    transport_mean: Nanos,
    /// The trace recorder's view: (stage, count, p50, p99) for
    /// app_sched / app_service / app_transport.
    trace_stages: Vec<(&'static str, u64, Nanos, Nanos)>,
}

fn run(backend: Backend) -> RunResult {
    let mut tb = Testbed::new(TestbedConfig {
        trace_sample_ppm: TRACE_SAMPLE_SCALE,
        ..TestbedConfig::default()
    });
    let mut dag = tb
        .dag("bench", &snap_bench::diamond_dag([0, 1, 1, 0]), backend)
        .expect("spec wires");
    dag.begin(tb.sim.now(), OpenLoop::constant(RATE_PER_SEC, REQUESTS));
    drive(tb.as_pump(), &mut [&mut dag], Nanos::from_millis(500)).expect("all requests complete");
    let report = dag.report();

    let n = report.results.len().max(1) as u64;
    let app_stages = [Stage::AppSched, Stage::AppService, Stage::AppTransport];
    let trace_stages = tb
        .recorder
        .as_ref()
        .expect("tracing at 100%")
        .stage_quantiles()
        .into_iter()
        .filter(|(s, ..)| app_stages.contains(s))
        .map(|(s, count, p50, p99)| (s.label(), count, p50, p99))
        .collect();
    RunResult {
        completed: report.results.len() as u64,
        p50: report.p50,
        p99: report.p99,
        queue_mean: Nanos(report.queue.as_nanos() / n),
        service_mean: Nanos(report.service.as_nanos() / n),
        transport_mean: Nanos(report.transport.as_nanos() / n),
        trace_stages,
    }
}

fn main() {
    snap_bench::header("Scenario: application DAG over kernel TCP vs Pony");
    println!(
        "{} requests at {} rps, diamond DAG (frontend -> mid-a/mid-b -> leaf), 2 hosts",
        REQUESTS, RATE_PER_SEC
    );
    println!(
        "{:<6} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "stack", "completed", "p50_ns", "p99_ns", "queue_ns", "svc_ns", "wire_ns"
    );
    let runs = [Backend::Tcp, Backend::Pony].map(|backend| (backend, run(backend)));
    for (backend, r) in &runs {
        println!(
            "{:<6} {:>9} {:>10} {:>10} {:>10} {:>10} {:>10}",
            backend.label(),
            r.completed,
            r.p50.as_nanos(),
            r.p99.as_nanos(),
            r.queue_mean.as_nanos(),
            r.service_mean.as_nanos(),
            r.transport_mean.as_nanos(),
        );
        assert_eq!(r.completed, REQUESTS);
        assert_eq!(*r, run(*backend), "same seed must replay the run");
    }

    println!("\ntrace recorder, app stages (count, p50_ns, p99_ns):");
    for (backend, r) in &runs {
        for (label, count, p50, p99) in &r.trace_stages {
            println!(
                "{:<6} {:<14} {:>6} {:>10} {:>10}",
                backend.label(),
                label,
                count,
                p50.as_nanos(),
                p99.as_nanos()
            );
        }
    }
    // The decomposition telescopes: queue + service + transport means
    // account for the full mean latency on both stacks, so the
    // transport column is an apples-to-apples stack comparison.
    println!(
        "\ntransport (wire+stack) mean: tcp {} ns vs pony {} ns; \
         service and queue are workload-owned and stack-independent",
        runs[0].1.transport_mean.as_nanos(),
        runs[1].1.transport_mean.as_nanos()
    );
}
