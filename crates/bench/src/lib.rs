//! Benchmark harness for the Snap reproduction: everything here runs
//! on the **sim clock**. Host-clock claims (packets per host second,
//! attach overheads, peak RSS) belong to `benchmark/`
//! (`python3 benchmark/run.py`), the one instrument that repeats,
//! alternates and bounds them.
//!
//! Every table and figure in the paper's evaluation (§5) has a
//! corresponding `[[bench]]` target in this crate (see `DESIGN.md` §4
//! for the index). The figure benches are plain `harness = false`
//! binaries that drive the simulator and print paper-style rows;
//! `micro` is a Criterion suite over the real lock-free data
//! structures.
//!
//! Beside the figures sit three **scenarios** the paper does not have,
//! same convention (one file, `cargo bench -p snap-bench --bench
//! <name>`), whose printed tables are pinned as golden text under
//! `tests/golden/scenarios/` and diffed by `scripts/ci.sh`:
//!
//! * `hedging` — hedged retries cutting the p99 on a 5%-lossy link;
//! * `apps_dag` — one microservice DAG over kernel TCP vs Pony, with
//!   the queue / service / transport critical-path split;
//! * `clos_scenarios` — N:1 incast sweep, 1:1 vs 4:1 oversubscription
//!   and the diurnal mixed fleet on a spine/leaf Clos.
//!
//! The §5.2 all-to-all RPC rack behind Fig. 6(b)/(c)/(d), Fig. 7 and
//! the ablations' SLO sweep is `snap_repro::rack` (`src/rack.rs`), and
//! the §5.1 two-host stream and ping-pong behind Table 1, Fig. 6(a) and
//! the ablations' batch sweep is `snap_repro::pair` (`src/pair.rs`):
//! one driver each for Snap/Pony and the kernel-TCP baseline, over one
//! message-level contract (`src/stack.rs`), reachable from here, from
//! `examples/` and from the tier-1 `tests/`. Every figure bench's table
//! is pinned under `tests/golden/experiments/`, and `scripts/ci.sh`
//! fails on a `[[bench]]` other than `micro` that has no golden.

use snap_repro::apps::dag::{DagSpec, ServiceSpec, ServiceTime};
use snap_repro::sim::Nanos;

/// Prints a bench header in a consistent format.
pub fn header(title: &str) {
    println!();
    println!("=== {title} ===");
}

/// Our signed error against a value the paper states, in percent to
/// the tenth the §5.1 tables print in their gap column (so a zero has
/// one sign).
pub fn error_pct(paper: f64, ours: f64) -> f64 {
    ((ours / paper - 1.0) * 1000.0).round() / 10.0 + 0.0
}

/// The scenarios' microservice DAG: a frontend fans out to two mid
/// tiers with heavy-tailed service times, both feed a shared leaf —
/// fan-in at the leaf and at the root. `hosts` places frontend, mid-a,
/// mid-b and leaf, in that order.
pub fn diamond_dag(hosts: [usize; 4]) -> DagSpec {
    let service = |i: usize, name: &str, time, concurrency, children| ServiceSpec {
        name: name.into(),
        host: hosts[i],
        time,
        concurrency,
        children,
    };
    let exponential = |mean_us| ServiceTime::Exponential { mean_us };
    let heavy_tail = ServiceTime::LogNormal {
        median_us: 10.0,
        sigma: 0.7,
    };
    DagSpec {
        services: vec![
            service(
                0,
                "frontend",
                ServiceTime::Constant(Nanos::from_micros(4)),
                16,
                vec![1, 2],
            ),
            service(1, "mid-a", exponential(12.0), 8, vec![3]),
            service(2, "mid-b", heavy_tail, 8, vec![3]),
            service(3, "leaf", exponential(6.0), 16, vec![]),
        ],
        request_bytes: 512,
        reply_bytes: 256,
    }
}
