//! A miniature version of the paper's all-to-all RPC benchmark (§5.2):
//! several hosts exchange 1 MB RPCs at a Poisson offered load while a
//! latency prober measures small-RPC tails. Every op is traced and the
//! run ends by printing the three slowest traced RPCs with their
//! per-stage critical-path breakdowns. The workload and its driver are
//! `snap_repro::rack`, the one the Fig 6/7 benches run; this example
//! hands it a traced testbed and prints the report.
//!
//! ```sh
//! cargo run --release --example rpc_benchmark
//! ```

use snap_repro::core::group::SchedulingMode;
use snap_repro::rack::{run_on, RackParams, Stack};
use snap_repro::sim::Nanos;
use snap_repro::testbed::{Testbed, TestbedConfig};

fn main() {
    let mode = SchedulingMode::compacting_default();
    let params = RackParams {
        hosts: 4,
        jobs_per_host: 1,
        rpc_per_sec_per_host: 125.0,
        stack: Stack::Pony(mode.clone(), None),
        duration: Nanos::from_millis(80),
        seed: 7,
        ..RackParams::default()
    };
    let mut tb = Testbed::new(TestbedConfig {
        hosts: params.hosts,
        mode,
        // Sample every op: an 80 ms run issues only dozens of 1 MB
        // RPCs, so full tracing is cheap and the top-K report is
        // ranked over the complete population.
        trace_sample_ppm: snap_repro::sim::trace::TRACE_SAMPLE_SCALE,
        ..TestbedConfig::default()
    });
    let r = run_on(&mut tb, &params);

    println!(
        "== all-to-all RPC benchmark ({} hosts, 1MB RPCs, compacting engines) ==",
        params.hosts
    );
    println!(
        "offered: {} RPC/s/host   delivered: {:.2} Gbps aggregate at {:.3} cores/host   ({} of {} RPCs answered)",
        params.rpc_per_sec_per_host, r.delivered_gbps, r.cpu_per_host, r.rpcs, r.bulk_issued
    );
    println!(
        "prober RTT: {}   ({} of {} probes unanswered)",
        r.prober.latency_summary(),
        r.probes_unanswered,
        r.probes_issued
    );
    // Whole-run CPU by kind (the report's cores/host is the window's).
    let wall = tb.sim.now().as_secs_f64();
    for h in 0..params.hosts {
        let cpu = tb.host_cpu(h);
        println!(
            "host {h}: engine {:.3} cores, spin {:.3}, wake {:.3} (total {:.3})",
            cpu.engine.as_secs_f64() / wall,
            cpu.spin.as_secs_f64() / wall,
            cpu.wake_overhead.as_secs_f64() / wall,
            cpu.total().as_secs_f64() / wall,
        );
    }
    // Where did the slow ops spend their time? The trace module ranks
    // the retained traces and breaks each down stage by stage; the
    // breakdown durations sum exactly to the end-to-end latency.
    println!();
    print!("{}", tb.trace_module().render_top(3));
}
