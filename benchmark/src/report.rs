//! What a run prints: every metric by name with its unit and clock,
//! the model digest, the gate's verdict, and the result line.

use std::fmt::Write as _;

use crate::harness::{SimSide, Spans, CALL_NAMES};
use crate::workloads::Workload;

pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `host`: wall time of the simulator. `sim`: virtual time of the
    /// modelled system, repeats exactly per seed.
    pub clock: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn host(name: &str, unit: &str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            clock: "host",
            value,
        }
    }

    pub fn sim(name: &str, unit: &str, value: f64) -> Metric {
        Metric {
            clock: "sim",
            ..Metric::host(name, unit, value)
        }
    }

    pub fn line(&self) -> String {
        format!(
            "{:<32} {:>18.6} {:<12} {}",
            self.name, self.value, self.unit, self.clock
        )
    }
}

pub struct Report {
    workload: &'static str,
    seed: u64,
    pub metrics: Vec<Metric>,
    /// Printed like the metrics but left out of the result line, which
    /// holds the same metrics for every workload.
    pub extras: Vec<Metric>,
    pub violations: Vec<String>,
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
    digest: u64,
}

impl Report {
    pub fn new(workload: &'static str, seed: u64) -> Report {
        Report {
            workload,
            seed,
            metrics: Vec::new(),
            extras: Vec::new(),
            violations: Vec::new(),
            notes: Vec::new(),
            attempted: 0,
            failed: 0,
            digest: 0,
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Ops over all `reps` (every rep attempts the same ops).
    pub fn ops(&mut self, s: &SimSide, reps: u64) {
        self.attempted = s.attempted * reps;
        self.failed = s.failed * reps;
        self.digest = s.digest();
    }

    pub fn gate(&mut self, s: &SimSide, w: &Workload, reps_disagree: bool, smoke: bool) {
        // A smoke window is too short for a p99; everything else holds.
        let min_samples = if smoke { 1 } else { 1000 };
        self.violations.extend(s.violations(w.spines, min_samples));
        if reps_disagree {
            self.violations
                .push("simulated results differ between reps of one seed".to_string());
        }
    }

    pub fn print(&mut self) {
        for m in &self.metrics {
            if !m.value.is_finite() {
                self.violations.push(format!("{} is not a number", m.name));
            }
        }
        println!("workload {} seed {}", self.workload, self.seed);
        for n in &self.notes {
            println!("# {n}");
        }
        for m in self.metrics.iter().chain(&self.extras) {
            println!("{}", m.line());
        }
        println!(
            "op_fail_ratio {} ({} of {} ops)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        println!("model_digest {:016x}", self.digest);
        for v in &self.violations {
            println!("INCORRECT: {v}");
        }
        let mut json = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.violations.is_empty(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// The traced rep's spans: each phase with name, start, end, parent and
/// rep id; the calls inside the timed loop folded per name under
/// `window`.
pub fn trace_json(workload: &str, spans: &Spans) -> String {
    let mut out = format!("{{\"workload\": \"{workload}\", \"rep\": 0, \"spans\": [\n");
    let window = spans.list.iter().position(|s| s.name == "window");
    for (id, s) in spans.list.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "  {{\"id\": {id}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}},",
            s.name, s.start_ns, s.end_ns
        );
    }
    let window = window.map_or("null".to_string(), |p| p.to_string());
    let calls: Vec<String> = CALL_NAMES
        .iter()
        .zip(&spans.calls)
        .map(|(name, (count, ns))| {
            format!("  {{\"name\": \"{name}\", \"parent\": {window}, \"calls\": {count}, \"total_ns\": {ns}}}")
        })
        .collect();
    out.push_str(&calls.join(",\n"));
    out.push_str("\n]}\n");
    out
}
