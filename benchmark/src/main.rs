//! The repo benchmark. One process runs one workload:
//!
//! ```text
//! snap-benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//!                [--reps <n>] [--smoke] [--out <dir>]
//! snap-benchmark kernels
//! ```
//!
//! `--trace 0` runs timed reps for `--seconds` and reports the
//! end-to-end metrics; `--trace 1` runs plain and traced reps and
//! reports the per-layer metrics, the layer kernels of this build among
//! them, and on `stream_pony` the attachment differentials.
//! Every metric is printed by name with its unit and its clock (host =
//! wall time of the simulator, sim = virtual time of the modelled
//! system); the last line of standard output is the result as JSON. The
//! exit code is non-zero when an output is incorrect.

mod harness;
mod kernels;
mod report;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use harness::{quartiles, RepOut, SimSide};
use kernels::FabricPath;
use report::{Metric, Report};
use snap_repro::sim::trace::Stage;
use workloads::{AnchorKind, Attach, RepOpts, Workload};

/// Share of the frozen virtual window a `--smoke` rep runs.
const SMOKE_SCALE: f64 = 0.05;
/// Share of the window an attachment-differential rep runs: resolution
/// comes from alternating rounds, not from long reps.
const ATTACH_SCALE: f64 = 0.5;
const ATTACH_ROUNDS: usize = 3;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    reps: Option<usize>,
    smoke: bool,
    out: Option<PathBuf>,
}

fn usage() -> ! {
    eprintln!(
        "usage: snap-benchmark --workload <{}> [--seed <n>] [--seconds <s>] [--trace <0|1>] \
         [--reps <n>] [--smoke] [--out <dir>]\n       snap-benchmark kernels",
        workloads::WORKLOADS.map(|w| w.name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 42,
        seconds: 20.0,
        trace: false,
        reps: None,
        smoke: false,
        out: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.workload = value(),
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => a.seconds = value().parse().unwrap_or_else(|_| usage()),
            "--trace" => a.trace = value() == "1",
            "--reps" => a.reps = Some(value().parse().unwrap_or_else(|_| usage())),
            "--smoke" => a.smoke = true,
            "--out" => a.out = Some(PathBuf::from(value())),
            _ => usage(),
        }
    }
    a
}

/// Reps of one configuration. The simulated side must not differ
/// between reps; the host side is one wall-clock reading per rep.
struct Reps {
    first: RepOut,
    /// `VmHWM` after the first rep. Later reps would add what the
    /// program's `Rc` cycles leak per testbed, so the reading would grow
    /// with however many reps the time box happened to hold.
    peak_rss_mb: f64,
    /// Wall seconds of the timed window, per rep.
    window_secs: Vec<f64>,
    /// Wall seconds of everything before the first timed op, per rep.
    setup_secs: Vec<f64>,
    disagree: bool,
}

impl Reps {
    fn new(first: RepOut) -> Reps {
        Reps {
            peak_rss_mb: harness::peak_rss_mb(),
            window_secs: vec![first.spans.secs("window")],
            setup_secs: vec![first.spans.setup_secs()],
            disagree: false,
            first,
        }
    }

    fn add(&mut self, out: RepOut) {
        self.disagree |= out.sim.digest() != self.first.sim.digest();
        self.window_secs.push(out.spans.secs("window"));
        self.setup_secs.push(out.spans.setup_secs());
    }

    fn count(&self) -> usize {
        self.window_secs.len()
    }

    /// Median wall seconds of the timed window.
    fn window_median(&self) -> f64 {
        quartiles(&self.window_secs).1
    }
}

/// Runs reps of `w` until `budget` of wall time is used (never starting
/// a rep that would overrun it), or exactly `fixed` reps.
fn run_reps(w: &Workload, opts: &RepOpts, budget: Duration, fixed: Option<usize>) -> Reps {
    let t0 = Instant::now();
    let mut reps = Reps::new((w.run)(opts));
    loop {
        let n = reps.count();
        let done = match fixed {
            Some(k) => n >= k,
            None => t0.elapsed() + t0.elapsed() / n as u32 > budget,
        };
        if done {
            return reps;
        }
        reps.add((w.run)(opts));
    }
}

fn sim_metrics(s: &SimSide) -> Vec<Metric> {
    vec![
        Metric::sim("sim_goodput_gbps", "Gbit/s", s.goodput_gbps()),
        Metric::sim("sim_gbps_per_core", "Gbit/s/core", s.gbps_per_core()),
        Metric::sim("sim_op_p50_us", "us", s.lat.p50_ns / 1e3),
        Metric::sim("sim_op_p99_us", "us", s.lat.p99_ns / 1e3),
    ]
}

fn timed(w: &Workload, a: &Args, report: &mut Report) {
    let opts = RepOpts {
        seed: a.seed,
        traced: false,
        scale: if a.smoke { SMOKE_SCALE } else { 1.0 },
        attach: Attach::None,
    };
    let fixed = a.reps.or(a.smoke.then_some(1));
    let reps = run_reps(w, &opts, Duration::from_secs_f64(a.seconds), fixed);
    let s = &reps.first.sim;
    report.ops(s, reps.count() as u64);
    report.gate(s, w, reps.disagree, a.smoke);

    let rates: Vec<f64> = reps
        .window_secs
        .iter()
        .map(|secs| s.pkts() as f64 / secs)
        .collect();
    let (q1, rate, q3) = quartiles(&rates);
    report.note(format!(
        "host_pkts_per_s over {} reps: q1 {q1:.0} median {rate:.0} q3 {q3:.0}",
        reps.count()
    ));
    let (q1, setup, q3) = quartiles(&reps.setup_secs);
    report.note(format!(
        "setup_s over {} reps: q1 {q1:.4} median {setup:.4} q3 {q3:.4}",
        reps.count()
    ));
    report.note(format!(
        "sim_op_p99_us over {} measured ops per rep",
        s.lat.samples
    ));
    let m = &mut report.metrics;
    m.push(Metric::host("host_pkts_per_s", "pkts/s", rate));
    m.push(Metric::host("host_peak_rss_mb", "MB", reps.peak_rss_mb));
    m.push(Metric::host("setup_s", "s", setup));
    m.extend(sim_metrics(s));
}

/// The attachment differentials: `stream_pony` bare and with one more
/// crate watching, in alternating rounds. Returns the overhead of each
/// attachment in percent of the bare window (host clock, resolution
/// +-3 % at best).
fn attach(seed: u64, scale: f64, report: &mut Report) -> Vec<Metric> {
    let w = workloads::find("stream_pony").expect("stream_pony is a workload");
    let kinds = [
        (Attach::None, ""),
        (Attach::Telemetry, "telemetry.attach_pct"),
        (Attach::Obs, "obs.attach_pct"),
        (Attach::Isolation, "isolation.attach_pct"),
        (Attach::Health, "health.attach_pct"),
    ];
    let run = |kind: Attach| {
        (w.run)(&RepOpts {
            seed,
            traced: false,
            scale,
            attach: kind,
        })
    };
    let mut runs: Vec<Reps> = kinds
        .iter()
        .map(|(kind, _)| Reps::new(run(*kind)))
        .collect();
    // Every other round runs in reverse, so no configuration always
    // follows the same neighbour.
    for round in 1..ATTACH_ROUNDS {
        let mut order: Vec<usize> = (0..kinds.len()).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for i in order {
            runs[i].add(run(kinds[i].0));
        }
    }
    let bare = &runs[0];
    let mut out = Vec::new();
    for (r, (kind, name)) in runs.iter().zip(&kinds).skip(1) {
        let sim = &r.first.sim;
        // The prober engines of the health rig share the wire and the
        // core with the workload, so its modelled run legitimately
        // differs; the others must leave the model untouched.
        let same_model = sim.digest() == bare.first.sim.digest();
        if r.disagree || sim.failed != 0 || (*kind != Attach::Health && !same_model) {
            report.violations.push(format!(
                "attachment {kind:?}: reps disagree {}, failed ops {}, digest equals bare {same_model}",
                r.disagree, sim.failed
            ));
        }
        out.push(Metric::host(
            name,
            "%",
            (r.window_median() / bare.window_median() - 1.0) * 100.0,
        ));
    }
    out
}

/// The eight non-fault stages a Pony op's latency is partitioned into.
const STAGES: [Stage; 8] = [
    Stage::EngineDequeue,
    Stage::NicTx,
    Stage::SwitchArrive,
    Stage::SwitchDepart,
    Stage::NicDeliver,
    Stage::RemoteDequeue,
    Stage::OpExecute,
    Stage::Complete,
];

fn traced(w: &Workload, a: &Args, report: &mut Report) {
    let scale = if a.smoke { SMOKE_SCALE } else { 1.0 };
    let opts = |traced| RepOpts {
        seed: a.seed,
        traced,
        scale,
        attach: Attach::None,
    };
    // Half the time box for plain reps, half for traced ones.
    let half = Duration::from_secs_f64(a.seconds / 2.0);
    let fixed = a.reps.or(a.smoke.then_some(1));
    let plain = run_reps(w, &opts(false), half, fixed);
    let with = run_reps(w, &opts(true), half, fixed);
    let s = &plain.first.sim;
    report.ops(s, (plain.count() + with.count()) as u64);
    report.gate(s, w, plain.disagree || with.disagree, a.smoke);
    report.note(format!(
        "traced model_digest {:016x} (tracing adds a wire field; never mixed into the end-to-end numbers)",
        with.first.sim.digest()
    ));

    // 1. Counters, read from public stats after the timed window.
    let wall = plain.window_median();
    let events = (s.end.events - s.start.events) as f64;
    let pkts = s.pkts() as f64;
    let tx_pkts = (s.end.nic_tx_pkts - s.start.nic_tx_pkts) as f64;
    let drops = (s.end.fabric_drops - s.start.fabric_drops + s.end.nic_rx_drops
        - s.start.nic_rx_drops) as f64;
    let pony_tx = (s.end.pony_tx_pkts - s.start.pony_tx_pkts) as f64;
    let cpu = s.group_cpu();
    let spine: Vec<f64> = s
        .end
        .spine_bytes
        .iter()
        .zip(&s.start.spine_bytes)
        .map(|(e, b)| (e - b) as f64)
        .collect();
    let spine_mean = spine.iter().sum::<f64>() / spine.len().max(1) as f64;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut notes = Vec::new();
    let m = &mut report.metrics;
    m.push(Metric::sim("sim.events", "count", events));
    m.push(Metric::sim(
        "sim.events_per_pkt",
        "ratio",
        ratio(events, pkts),
    ));
    m.push(Metric::host(
        "sim.host_ns_per_event",
        "ns",
        wall * 1e9 / events,
    ));
    m.push(Metric::sim(
        "sim.pending_max_sampled",
        "count",
        s.extra.pending_max as f64,
    ));
    m.push(Metric::sim("nic.pkts_delivered", "count", pkts));
    m.push(Metric::sim(
        "nic.tx_bytes",
        "bytes",
        (s.end.nic_tx_bytes - s.start.nic_tx_bytes) as f64,
    ));
    m.push(Metric::sim("nic.drops", "count", drops));
    m.push(Metric::sim(
        "nic.drop_ratio",
        "ratio",
        ratio(drops, tx_pkts),
    ));
    m.push(Metric::sim(
        "topo.trunk_bytes",
        "bytes",
        (s.end.trunk_bytes - s.start.trunk_bytes) as f64,
    ));
    m.push(Metric::sim(
        "topo.trunk_drops",
        "count",
        (s.end.trunk_drops - s.start.trunk_drops) as f64,
    ));
    m.push(Metric::sim(
        "topo.spine_imbalance",
        "ratio",
        ratio(spine.iter().cloned().fold(0.0, f64::max), spine_mean),
    ));
    m.push(Metric::sim("pony.tx_pkts", "count", pony_tx));
    m.push(Metric::sim(
        "tcp.segs_sent",
        "count",
        s.extra.tcp_segs_sent as f64,
    ));
    m.push(Metric::sim(
        "tcp.retransmits",
        "count",
        s.extra.tcp_retransmits as f64,
    ));
    m.push(Metric::sim("core.engine_ns", "ns", cpu[0] as f64));
    m.push(Metric::sim("core.spin_ns", "ns", cpu[1] as f64));
    m.push(Metric::sim("core.wake_ns", "ns", cpu[2] as f64));
    m.push(Metric::sim("sched.cores_used", "cores", s.cores()));
    m.push(Metric::sim(
        "apps.chunks_tx",
        "count",
        s.extra.apps_chunks_tx as f64,
    ));
    m.push(Metric::sim(
        "apps.busy_retries",
        "count",
        s.extra.apps_busy_retries as f64,
    ));
    m.push(Metric::sim(
        "apps.dup_chunks",
        "count",
        s.extra.apps_dup_chunks as f64,
    ));
    m.push(Metric::sim(
        "gen.late_p99_us",
        "us",
        harness::quantile(&s.extra.late_ns, 0.99) / 1e3,
    ));
    let err = w.anchor.map_or(0.0, |(what, paper, kind)| {
        let ours = match kind {
            AnchorKind::GoodputGbps => s.goodput_gbps(),
            AnchorKind::P50Us => s.lat.p50_ns / 1e3,
        };
        notes.push(format!("paper anchor {what}: {paper}, ours {ours:.3}"));
        (ours / paper - 1.0).abs() * 100.0
    });
    m.push(Metric::sim("model.paper_err_pct", "%", err));

    // 2. Layer kernels, and the lower-bound attribution they allow.
    let k = kernels::of_this_build(false, a.smoke);
    m.extend(
        k.0.iter()
            .map(|(name, unit, v)| Metric::host(name, unit, *v)),
    );
    let is_pony = pony_tx > 0.0;
    let path = if !spine.is_empty() {
        FabricPath::Clos
    } else if is_pony {
        FabricPath::Burst
    } else {
        FabricPath::Single
    };
    let wall_ns = wall * 1e9;
    let event_ns = k.get("sim.event_ns");
    let queue = events * event_ns / wall_ns;
    let codec = if is_pony {
        pkts * kernels::codec_crc_ns_per_pkt(&k) / wall_ns
    } else {
        0.0
    };
    // The fabric kernel's own simulator events are already in the queue
    // share.
    let fabric_ns = k.get(path.kernel()) - kernels::fabric_events_per_pkt(path) * event_ns;
    let fab = pkts * fabric_ns.max(0.0) / wall_ns;
    m.push(Metric::host("attr.sim_queue_share", "ratio", queue));
    m.push(Metric::host("attr.codec_crc_share", "ratio", codec));
    m.push(Metric::host("attr.fabric_share", "ratio", fab));
    m.push(Metric::host(
        "attr.handlers_share",
        "ratio",
        1.0 - queue - codec - fab,
    ));

    // 3. The traced reps: host spans around every call into the program,
    // the simulated stage breakdown, and what tracing itself costs.
    let t = &with.first;
    let tw = t.spans.secs("window");
    let call = |i: usize| t.spans.calls[i].1 as f64 / 1e9 / tw;
    m.push(Metric::host(
        "span.testbed_build_s",
        "s",
        t.spans.secs("testbed_build"),
    ));
    m.push(Metric::host("span.connect_s", "s", t.spans.secs("connect")));
    m.push(Metric::host("span.warmup_s", "s", t.spans.secs("warmup")));
    m.push(Metric::host("span.submit_share", "ratio", call(0)));
    m.push(Metric::host("span.sim_run_share", "ratio", call(1)));
    m.push(Metric::host("span.poll_share", "ratio", call(2)));
    m.push(Metric::host(
        "span.driver_share",
        "ratio",
        1.0 - call(0) - call(1) - call(2),
    ));
    let stages = t
        .recorder
        .as_ref()
        .map(|r| r.stage_quantiles())
        .unwrap_or_default();
    // The engines expose no retransmit count summed over flows; the
    // trace does, per op: ops whose trace carries a retransmit stamp.
    let rtx_ops = stages
        .iter()
        .find(|(s, ..)| *s == Stage::Retransmit)
        .map_or(0.0, |&(_, count, ..)| count as f64);
    let traced_ops = t.recorder.as_ref().map_or(0.0, |r| r.finalized() as f64);
    m.push(Metric::sim("pony.retransmit_ops", "count", rtx_ops));
    m.push(Metric::sim(
        "pony.retransmit_ratio",
        "ratio",
        ratio(rtx_ops, traced_ops),
    ));
    for stage in STAGES {
        let (p50, p99) = stages
            .iter()
            .find(|(s, ..)| *s == stage)
            .map_or((0.0, 0.0), |&(_, _, p50, p99)| {
                (p50.as_nanos() as f64, p99.as_nanos() as f64)
            });
        m.push(Metric::sim(
            &format!("stage.{}_p50_ns", stage.label()),
            "ns",
            p50,
        ));
        m.push(Metric::sim(
            &format!("stage.{}_p99_ns", stage.label()),
            "ns",
            p99,
        ));
    }
    m.push(Metric::host(
        "trace.overhead_pct",
        "%",
        (with.window_median() / wall - 1.0) * 100.0,
    ));
    if let Some(rec) = &t.recorder {
        let traces = rec.completed();
        let broken = traces
            .iter()
            .filter(|t| {
                t.breakdown().iter().map(|(_, d)| d.as_nanos()).sum::<u64>() != t.total().as_nanos()
            })
            .count();
        report.note(format!(
            "{} ops traced to completion, {} retained; every retained breakdown sums to its total: {}",
            rec.finalized(),
            traces.len(),
            broken == 0
        ));
        if broken > 0 {
            report.violations.push(format!(
                "{broken} trace breakdowns do not sum to their total"
            ));
        }
    }

    for n in notes {
        report.note(n);
    }

    // 4. Attachment differentials: measured on `stream_pony` and
    // reported with it, not with the other four.
    if w.name == "stream_pony" {
        let scale = if a.smoke { SMOKE_SCALE } else { ATTACH_SCALE };
        report.extras = attach(a.seed, scale, report);
    }

    if let Some(dir) = &a.out {
        let path = dir.join(format!("trace_{}.json", w.name));
        let written = std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(&path, report::trace_json(w.name, &t.spans)));
        match written {
            Ok(()) => report.note(format!("spans written to {}", path.display())),
            Err(e) => report
                .violations
                .push(format!("cannot write {}: {e}", path.display())),
        }
    }
}

fn main() -> ExitCode {
    if std::env::args().nth(1).as_deref() == Some("kernels") {
        for (name, unit, v) in kernels::of_this_build(true, false).0 {
            println!("{}", Metric::host(&name, &unit, v).line());
        }
        return ExitCode::SUCCESS;
    }
    let a = parse_args();
    let Some(w) = workloads::find(&a.workload) else {
        usage()
    };
    let mut report = Report::new(w.name, a.seed);
    if a.trace {
        traced(w, &a, &mut report);
    } else {
        timed(w, &a, &mut report);
    }
    report.print();
    if report.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
