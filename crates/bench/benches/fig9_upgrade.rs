//! **Fig. 9** (§5.5): transparent-upgrade blackout durations across a
//! production-like cell.
//!
//! "The median blackout duration is 250ms ... The latency distribution
//! is heavy-tailed, and strongly correlates with the amount of state
//! checkpointed." Engine checkpoint sizes are drawn log-normal (heavy
//! tail); blackout = 2x serialize time + fixed detach/attach cost.
//!
//! Run: `cargo bench -p snap-bench --bench fig9_upgrade`

use std::cell::RefCell;
use std::rc::Rc;

use snap_repro::core::engine::{Engine, RunReport};
use snap_repro::core::group::{GroupConfig, GroupHandle, SchedulingMode};
use snap_repro::core::upgrade::UpgradeOrchestrator;
use snap_repro::sched::machine::Machine;
use snap_repro::shm::account::CpuAccountant;
use snap_repro::sim::dist;
use snap_repro::sim::{Histogram, Nanos, Rng, Sim};

/// A production engine stand-in whose checkpoint size is modeled (not
/// materialized): flows, streams, op state, packet memory.
struct CellEngine {
    name: String,
    state_bytes: u64,
    #[allow(dead_code)] // carried into the v2 engine by the factory
    connections: u32,
}

impl Engine for CellEngine {
    fn name(&self) -> &str {
        &self.name
    }
    fn run(&mut self, _: &mut Sim) -> RunReport {
        RunReport::idle(Nanos(120))
    }
    fn pending_work(&self) -> usize {
        0
    }
    fn oldest_pending_age(&self, _: Nanos) -> Nanos {
        Nanos::ZERO
    }
    fn serialize_state(&mut self) -> Vec<u8> {
        // A compact real snapshot; the bulk is modeled by state_bytes.
        self.state_bytes.to_le_bytes().to_vec()
    }
    fn state_bytes(&mut self) -> u64 {
        self.state_bytes
    }
    fn detach(&mut self, _: &mut Sim) {}
    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

fn main() {
    snap_bench::header("Fig 9: transparent upgrade blackout distribution");
    let mut sim = Sim::new();
    let machine = Rc::new(RefCell::new(Machine::new(32, 7)));
    let group = GroupHandle::new(
        GroupConfig::new("cell", SchedulingMode::Dedicated { cores: vec![0, 1, 2, 3] }),
        machine,
        CpuAccountant::new(),
    );
    group.start(&mut sim);

    // A production cell: 160 engines, checkpoint sizes log-normal with
    // median ~165 MB (median blackout 25ms fixed + 2x165MB/1.5GBps
    // ≈ 245 ms) and a heavy tail, as the paper describes.
    let mut rng = Rng::new(2019);
    let mut orch = UpgradeOrchestrator::new();
    const ENGINES: usize = 160;
    for i in 0..ENGINES {
        let state_bytes = dist::log_normal(&mut rng, 165e6, 0.55) as u64;
        let connections = 2 + rng.below(30) as u32;
        let id = group.add_engine(Box::new(CellEngine {
            name: format!("engine{i}"),
            state_bytes,
            connections,
        }));
        orch.add_engine(
            group.clone(),
            id,
            connections,
            Box::new(move |state, _| {
                let bytes = u64::from_le_bytes(state.try_into().expect("8-byte snapshot"));
                Ok(Box::new(CellEngine {
                    name: format!("engine{i}-v2"),
                    state_bytes: bytes,
                    connections,
                }))
            }),
        );
    }
    let result = orch.start(&mut sim);
    sim.run();
    let report = result.borrow().clone().expect("upgrade completed");

    let mut hist = Histogram::new();
    for e in &report.engines {
        hist.record(e.blackout.as_millis());
    }
    println!("engines migrated: {}", report.engines.len());
    println!(
        "blackout: median {} ms  p90 {} ms  p99 {} ms  max {} ms   (paper median: 250 ms)",
        hist.median(),
        hist.quantile(0.90),
        hist.quantile(0.99),
        hist.max()
    );
    println!("whole-cell upgrade wall time: {}", report.total);

    // CDF rows, Fig. 9 style.
    println!("\nblackout CDF:");
    for q in [0.10, 0.25, 0.50, 0.75, 0.90, 0.99] {
        println!("  p{:<4} {:>7} ms", (q * 100.0) as u32, hist.quantile(q));
    }

    // Correlation claim: tail blackouts belong to the biggest states.
    let mut by_size: Vec<_> = report.engines.iter().collect();
    by_size.sort_by_key(|e| e.state_bytes);
    let small = &by_size[..ENGINES / 4];
    let large = &by_size[3 * ENGINES / 4..];
    let avg = |xs: &[&snap_repro::core::upgrade::EngineUpgrade]| {
        xs.iter().map(|e| e.blackout.as_millis()).sum::<u64>() / xs.len() as u64
    };
    println!(
        "\nstate-size correlation: smallest quartile avg {} ms, largest quartile avg {} ms",
        avg(small),
        avg(large)
    );
}
