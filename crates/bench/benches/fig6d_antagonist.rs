//! **Fig. 6(d)** (§5.2): p99 prober latency with compute antagonists —
//! MicroQuanta vs CFS nice -20 for the Snap engine threads.
//!
//! Paper shape: antagonists hammering the scheduler inflate the CFS
//! tail enormously; MicroQuanta keeps wakeups bounded. TCP (whose
//! transport work rides softirq + CFS app wakes) sits worst.
//!
//! Run: `cargo bench -p snap-bench --bench fig6d_antagonist`

use snap_repro::core::group::SchedulingMode;
use snap_repro::rack::{run, Antagonist, RackParams, Stack};
use snap_repro::sched::classes::SchedClass;
use snap_repro::sim::Nanos;

fn main() {
    snap_bench::header("Fig 6(d): p99 prober latency under compute antagonists");
    println!(
        "{:<26} {:>12} {:>12} {:>12}",
        "stack", "p50", "p99", "max"
    );
    let cases: Vec<(&str, Stack)> = vec![
        (
            "snap spreading + MQ",
            Stack::Pony(SchedulingMode::Spreading, None),
        ),
        (
            "snap spreading + CFS -20",
            Stack::Pony(SchedulingMode::Spreading, Some(SchedClass::Cfs { nice: -20 })),
        ),
        ("kernel TCP (CFS)", Stack::Tcp),
    ];
    for (name, stack) in cases {
        let params = RackParams {
            stack,
            rpc_per_sec_per_host: 500.0,
            prober_qps: 400.0,
            // 400/s x 6 hosts x 0.5 s = 1 200 probes: ten beyond the p99.
            duration: Nanos::from_millis(500),
            antagonist: Antagonist::Compute(32),
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
    println!("\npaper shape: MicroQuanta p99 is orders of magnitude below CFS under antagonists");
}
