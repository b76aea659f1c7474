//! **Fig. 8 + §3.2/§5.4** : one-sided operation rates on a single
//! dedicated Snap/Pony engine core.
//!
//! Fig. 8 is a production dashboard: "the rate of IOPS served by the
//! hottest machine over each minute interval. Some intervals show a
//! single Snap/Pony engine and core serving upwards of 5M IOPS", mostly
//! "a custom batched indirect read operation ... a batch of eight
//! indirections". We replay a diurnal load curve against one engine and
//! print the per-interval series, then sweep the op types: the paper's
//! claims that an indirect read doubles the rate and halves the latency
//! of a two-round-trip pointer chase, and that gRPC-style stacks sit
//! below 100k IOPS/core.
//!
//! Run: `cargo bench -p snap-bench --bench fig8_iops`

use snap_repro::pony::client::{PonyCommand, PonyCompletion};
use snap_repro::shm::region::AccessMode;
use snap_repro::sim::dist::DiurnalLoad;
use snap_repro::sim::stats::RateSeries;
use snap_repro::sim::{Nanos, Rng};
use snap_repro::testbed::Testbed;

const BUCKETS: u64 = 4096;
const VALUE_LEN: u32 = 64;
/// The analytics client batches its submits: it tops its window of 64
/// outstanding ops up, and reaps its completions, every 20 µs. Part of
/// the workload, not a look period to refine away — topped up every
/// 1 µs the sweep reads 1.41 M / 1.19 M ops/s for the plain and indirect
/// read and 5.17 M accesses/s batched, against 1.48 M / 1.21 M / 4.93 M.
const REFILL: Nanos = Nanos::from_micros(20);

struct KvWorld {
    tb: Testbed,
    client: snap_repro::pony::PonyClient,
    conn: u64,
    table: u64,
    heap: u64,
}

fn kv_world() -> KvWorld {
    let mut tb = Testbed::pair();
    let client = tb.pony_app(0, "analytics", |_| {});
    let _server = tb.pony_app(1, "kv", |_| {});
    let conn = tb.connect(0, "analytics", 1, "kv");
    let heap = tb.hosts[1].regions.register(
        "kv",
        (BUCKETS * VALUE_LEN as u64) as usize,
        AccessMode::ReadOnly,
    );
    let mut table = Vec::with_capacity((BUCKETS * 8) as usize);
    for i in 0..BUCKETS {
        table.extend_from_slice(&(((heap.0) << 32) | (i * VALUE_LEN as u64)).to_le_bytes());
    }
    let table = tb.hosts[1].regions.register_with("kv", table, AccessMode::ReadOnly);
    KvWorld {
        tb,
        client,
        conn,
        table: table.0,
        heap: heap.0,
    }
}

/// Closed-loop peak rate for one op shape; returns (ops/s, accesses/s,
/// mean latency us).
fn peak_rate(make_cmd: impl Fn(&KvWorld, &mut Rng) -> (PonyCommand, u64)) -> (f64, f64, f64) {
    let mut w = kv_world();
    let mut rng = Rng::new(99);
    const WINDOW: u32 = 64;
    let mut outstanding = 0u32;
    let mut ops = 0u64;
    let mut accesses = 0u64;
    let mut lat_sum = 0f64;
    let warmup = Nanos::from_millis(5);
    let t_end = Nanos::from_millis(45);
    let mut measured_from = None;
    while w.tb.sim.now() < t_end {
        while outstanding < WINDOW {
            let (cmd, _n) = make_cmd(&w, &mut rng);
            w.client.submit(&mut w.tb.sim, cmd);
            outstanding += 1;
        }
        let next = w.tb.sim.now() + REFILL;
        w.tb.sim.run_until(next);
        let now = w.tb.sim.now();
        for c in w.client.take_completions() {
            if let PonyCompletion::OpDone { issued_at, data, .. } = c {
                outstanding -= 1;
                if now >= warmup {
                    measured_from.get_or_insert(now);
                    ops += 1;
                    accesses += (data.len() as u64 / VALUE_LEN as u64).max(1);
                    lat_sum += (now - issued_at).as_micros_f64();
                }
            }
        }
    }
    let wall = (w.tb.sim.now() - measured_from.expect("ops completed")).as_secs_f64();
    (
        ops as f64 / wall,
        accesses as f64 / wall,
        lat_sum / ops as f64,
    )
}

fn main() {
    snap_bench::header("Fig 8: one-sided op rates on a single dedicated engine core");

    // --- Op-shape sweep -------------------------------------------
    println!(
        "{:<30} {:>12} {:>14} {:>10}",
        "operation", "ops/sec", "accesses/sec", "mean lat"
    );
    let (ops, acc, lat) = peak_rate(|w, rng| {
        let b = rng.below(BUCKETS);
        (
            PonyCommand::Read {
                conn: w.conn,
                region: w.heap,
                offset: b * VALUE_LEN as u64,
                len: VALUE_LEN,
            },
            1,
        )
    });
    println!("{:<30} {:>12.0} {:>14.0} {:>8.1}us", "plain read", ops, acc, lat);
    println!(
        "{:<30} {:>12.0} {:>14.0} {:>8.1}us",
        "pointer chase (2 reads)",
        ops / 2.0,
        acc / 2.0,
        lat * 2.0
    );
    let (ops, acc, lat) = peak_rate(|w, rng| {
        let b = rng.below(BUCKETS) as u32;
        (
            PonyCommand::IndirectRead {
                conn: w.conn,
                table: w.table,
                indices: vec![b],
                len: VALUE_LEN,
            },
            1,
        )
    });
    println!("{:<30} {:>12.0} {:>14.0} {:>8.1}us", "indirect read (batch 1)", ops, acc, lat);
    let (ops, acc, lat) = peak_rate(|w, rng| {
        let start = rng.below(BUCKETS - 8) as u32;
        (
            PonyCommand::IndirectRead {
                conn: w.conn,
                table: w.table,
                indices: (start..start + 8).collect(),
                len: VALUE_LEN,
            },
            8,
        )
    });
    println!(
        "{:<30} {:>12.0} {:>14.0} {:>8.1}us   <- the Fig. 8 production op",
        "batched indirect (batch 8)", ops, acc, lat
    );
    let (ops, acc, lat) = peak_rate(|w, rng| {
        let _ = rng;
        (
            PonyCommand::ScanRead {
                conn: w.conn,
                region: w.table, // scanned as (key, target) pairs
                key: u64::MAX,   // misses: full scan, worst case
                len: VALUE_LEN,
            },
            1,
        )
    });
    println!("{:<30} {:>12.0} {:>14.0} {:>8.1}us", "scan-and-read (miss)", ops, acc, lat);
    println!("(reference: conventional RPC stacks on TCP sockets: <100,000 IOPS/core, §5.4)");

    // --- Diurnal dashboard replay ----------------------------------
    println!("\nproduction dashboard replay (one 'minute' = 100 simulated ms):");
    let mut w = kv_world();
    let mut rng = Rng::new(5);
    let load = DiurnalLoad {
        base_rate: 350_000.0, // ops/sec, x8 accesses at peak ~5M
        swing: 0.75,
        period: Nanos::from_millis(1_600),
        noise: 0.04,
    };
    let mut series = RateSeries::new(Nanos::from_millis(100));
    let mut next_issue = Nanos::ZERO;
    let t_end = Nanos::from_millis(1_600);
    let mut outstanding = 0u32;
    while w.tb.sim.now() < t_end {
        let now = w.tb.sim.now();
        let rate = load.rate_at(now, &mut rng).max(1_000.0);
        while now >= next_issue && outstanding < 256 {
            next_issue += Nanos((1e9 / rate) as u64);
            let start = rng.below(BUCKETS - 8) as u32;
            w.client.submit(
                &mut w.tb.sim,
                PonyCommand::IndirectRead {
                    conn: w.conn,
                    table: w.table,
                    indices: (start..start + 8).collect(),
                    len: VALUE_LEN,
                },
            );
            outstanding += 1;
        }
        let step = w.tb.sim.now() + Nanos::from_micros(2);
        w.tb.sim.run_until(step);
        let now = w.tb.sim.now();
        for c in w.client.take_completions() {
            if let PonyCompletion::OpDone { data, .. } = c {
                outstanding -= 1;
                series.record_at(now, data.len() as u64 / VALUE_LEN as u64);
            }
        }
    }
    series.roll_to(w.tb.sim.now());
    for (t, rate) in series.rates_per_sec() {
        let bars = (rate / 100_000.0) as usize;
        println!(
            "  t={:>5}ms {:>10.2}M accesses/s |{}",
            t.as_millis(),
            rate / 1e6,
            "#".repeat(bars.min(60))
        );
    }
    println!(
        "peak interval: {:.2}M accesses/sec on one engine core (paper: 'upwards of 5M IOPS')",
        series.peak_rate() / 1e6
    );
}
