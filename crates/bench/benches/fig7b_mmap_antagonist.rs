//! **Fig. 7(b)** (§5.3): latency impact of an mmap/munmap antagonist
//! that opens non-preemptible kernel sections.
//!
//! "Compacting engines provides the best latency because, in this
//! benchmark, engine work compacts down to a single spin-polling core
//! that does not time-share with the antagonist" — interrupt-driven
//! wakeups (spreading, TCP) land on cores stuck in non-preemptible
//! kernel code and wait the section out.
//!
//! Run: `cargo bench -p snap-bench --bench fig7b_mmap_antagonist`

use snap_repro::core::group::SchedulingMode;
use snap_repro::rack::{run, Antagonist, RackParams, Stack};
use snap_repro::sim::Nanos;

fn main() {
    snap_bench::header("Fig 7(b): latency under an mmap/munmap antagonist");
    println!("{:<26} {:>12} {:>12} {:>12}", "stack", "p50", "p99", "max");
    let compacting_sticky = SchedulingMode::Compacting {
        slo: Nanos::from_micros(50),
        rebalance_poll: Nanos::from_micros(10),
        idle_block: Nanos::from_millis(20),
    };
    let cases: Vec<(&str, Stack)> = vec![
        ("kernel TCP", Stack::Tcp),
        ("snap spreading", Stack::Pony(SchedulingMode::Spreading, None)),
        ("snap compacting", Stack::Pony(compacting_sticky, None)),
    ];
    for (name, stack) in cases {
        let params = RackParams {
            hosts: 4,
            jobs_per_host: 1,
            stack,
            rpc_per_sec_per_host: 0.001,
            prober_qps: 1_000.0,
            // 1 000/s x 4 hosts x 0.3 s = 1 200 probes: ten beyond the p99.
            duration: Nanos::from_millis(300),
            antagonist: Antagonist::Mmap,
            cstates: false, // isolate the non-preemption effect
            ..RackParams::default()
        };
        let r = run(&params);
        println!(
            "{:<26} {:>9.1}us {:>9.1}us {:>9.1}us   (n={})",
            name,
            r.prober.median() as f64 / 1e3,
            r.prober.p99() as f64 / 1e3,
            r.prober.max() as f64 / 1e3,
            r.prober.count(),
        );
    }
    println!("\npaper shape: compacting best (spin core never enters the kernel); interrupt-driven paths inherit the section delays");
}
