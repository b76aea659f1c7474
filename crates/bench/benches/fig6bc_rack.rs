//! **Fig. 6(b)+(c)** (§5.2): per-machine CPU and p99 prober latency as
//! offered all-to-all RPC load increases, for kernel TCP and the two
//! dynamic Snap engine schedulers.
//!
//! Paper shape: CPU scales with load for both Snap schedulers,
//! sublinearly (batching); at low load TCP and Snap are comparable, at
//! high load Snap is ~3x more CPU-efficient. Compacting has the best
//! CPU; spreading the best tail latency at high load.
//!
//! Run: `cargo bench -p snap-bench --bench fig6bc_rack`

use snap_repro::core::group::SchedulingMode;
use snap_repro::rack::{run, Antagonist, RackParams, Stack};
use snap_repro::sim::{costs, Nanos};

fn main() {
    snap_bench::header("Fig 6(b)/(c): rack CPU and p99 prober latency vs offered load");
    println!(
        "{:<12} {:>10} {:>12} {:>12} {:>10} {:>12} {:>6} {:>8} {:>7}",
        "stack",
        "off/host",
        "dlv/host",
        "CPU/host",
        "Gbps/core",
        "prober p99",
        "n",
        "streams",
        "factor"
    );
    // Offered load sweep: RPC responses/sec per host x 1 MB x 8 bits.
    // The paper sweeps 8 -> 80 Gbps bidirectional per machine on a
    // 42-host rack; we sweep a 6-host rack across the same ratio.
    let stacks: Vec<(&str, Stack)> = vec![
        ("tcp", Stack::Tcp),
        ("spreading", Stack::Pony(SchedulingMode::Spreading, None)),
        (
            "compacting",
            Stack::Pony(SchedulingMode::compacting_default(), None),
        ),
    ];
    for rate in [500.0, 1_000.0, 2_000.0, 4_000.0] {
        for (name, stack) in &stacks {
            let params = RackParams {
                stack: stack.clone(),
                rpc_per_sec_per_host: rate,
                prober_qps: 200.0,
                duration: Nanos::from_millis(50),
                antagonist: Antagonist::None,
                ..RackParams::default()
            };
            let r = run(&params);
            let per_host = r.delivered_gbps / params.hosts as f64;
            // Kernel TCP's per-segment cost grows with the streams a
            // segment shares the stack with; Pony's does not.
            let (streams, factor) = r.tcp_mean_streams.map_or(("-".into(), "-".into()), |s| {
                let factor = costs::tcp_stream_cost_factor(s.round() as u32);
                (format!("{s:.1}"), format!("{factor:.3}"))
            });
            println!(
                "{:<12} {:>7.1}Gbps {:>9.2}Gbps {:>12.3} {:>10.2} {:>9.1}us {:>6} {:>8} {:>7}",
                name,
                rate * 8.0 / 1e3, // 1MB RPCs issued/s -> Gbps offered per host
                per_host,
                r.cpu_per_host,
                per_host / r.cpu_per_host,
                r.prober.p99() as f64 / 1e3,
                r.prober.count(),
                streams,
                factor,
            );
        }
        println!();
    }
}
