//! What every workload shares: host spans, the simulated-side result
//! of one rep, counter snapshots read from the program's public stats,
//! quantiles, the model digest and the correctness gate.

use std::time::Instant;

use snap_repro::nic::fabric::SwitchId;
use snap_repro::pony::engine::PonyEngine;
use snap_repro::sim::{Nanos, TraceRecorder};
use snap_repro::testbed::Testbed;

/// The three calls into the program a workload's timed loop makes.
#[derive(Clone, Copy)]
pub enum Call {
    Submit = 0,
    SimRun = 1,
    Poll = 2,
}

pub const CALL_NAMES: [&str; 3] = ["submit", "sim_run", "poll"];

/// One host-clock span: a phase of a rep, recorded by the driver
/// around its calls into the program.
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Host spans of one rep, kept in memory. Phases (a handful per rep)
/// are always recorded because `setup_s` and the window's wall time are
/// read from them. The calls inside the timed loop run millions of
/// times, so they are timed only inside the `window` phase of a traced
/// rep, and then folded into one (count, total) pair per call name.
pub struct Spans {
    traced: bool,
    t0: Instant,
    pub list: Vec<Span>,
    open: Vec<usize>,
    pub calls: [(u64, u64); 3],
}

impl Spans {
    pub fn new(traced: bool) -> Self {
        Spans {
            traced,
            t0: Instant::now(),
            list: Vec::new(),
            open: Vec::new(),
            calls: [(0, 0); 3],
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Opens a phase span under the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        let start_ns = self.now_ns();
        self.list.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.list.len() - 1);
    }

    /// Closes the innermost open phase span.
    pub fn close(&mut self) {
        let id = self.open.pop().expect("a span is open");
        self.list[id].end_ns = self.now_ns();
    }

    /// Closes the innermost span and opens the next phase beside it.
    pub fn next(&mut self, name: &'static str) {
        self.close();
        self.open(name);
    }

    #[inline]
    pub fn tick(&self) -> Option<Instant> {
        let in_window = || {
            self.open
                .last()
                .is_some_and(|&i| self.list[i].name == "window")
        };
        (self.traced && in_window()).then(Instant::now)
    }

    #[inline]
    pub fn tock(&mut self, call: Call, t: Option<Instant>) {
        if let Some(t) = t {
            let c = &mut self.calls[call as usize];
            c.0 += 1;
            c.1 += t.elapsed().as_nanos() as u64;
        }
    }

    /// Wall seconds of the named phase (0 if it never ran).
    pub fn secs(&self, name: &str) -> f64 {
        self.list
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .sum()
    }

    /// `setup_s` of this rep: everything before the first timed op.
    pub fn setup_secs(&self) -> f64 {
        self.secs("testbed_build") + self.secs("connect") + self.secs("warmup")
    }
}

/// Running totals read from the program's public stats. Snapshots are
/// taken at the start and the end of the timed window and after the
/// drain; all fields are simulated-side and repeat exactly per seed.
#[derive(Clone, Default, Debug, PartialEq)]
pub struct Totals {
    pub at: Nanos,
    pub events: u64,
    pub delivered: u64,
    pub fabric_drops: u64,
    pub nic_rx_drops: u64,
    pub nic_tx_pkts: u64,
    pub nic_tx_bytes: u64,
    pub trunk_bytes: u64,
    pub trunk_drops: u64,
    pub spine_bytes: Vec<u64>,
    /// Packets the Pony engines transmitted, retransmits and acks
    /// included, and messages they delivered to applications.
    pub pony_tx_pkts: u64,
    pub pony_msgs_delivered: u64,
    /// Per host: (engine, spin, wake) CPU ns of the Snap group.
    pub group_cpu: Vec<[u64; 3]>,
}

impl Totals {
    /// Reads every counter the testbed exposes. Hosts without a Pony
    /// engine (the kernel-TCP hosts) contribute no group CPU: their
    /// engine group exists but carries no transport work.
    pub fn read(tb: &mut Testbed) -> Totals {
        let f = tb.fabric.stats();
        let mut t = Totals {
            at: tb.sim.now(),
            events: tb.sim.events_executed(),
            delivered: f.delivered,
            fabric_drops: f.switch_drops
                + f.random_drops
                + f.partition_drops
                + f.lossy_drops
                + f.quarantine_sheds
                + f.brownout_drops
                + f.trunk_down_drops,
            ..Totals::default()
        };
        let spines = tb.fabric.topology().spines() as usize;
        t.spine_bytes = vec![0; spines];
        for ((from, _to), s) in tb.fabric.trunks() {
            t.trunk_bytes += s.bytes;
            t.trunk_drops += s.drops;
            if let SwitchId::Spine(sp) = from {
                t.spine_bytes[sp as usize] += s.bytes;
            }
        }
        let now = tb.sim.now();
        for host in &tb.hosts {
            let nic = tb.fabric.with_nic(host.id, |n| n.stats().clone());
            t.nic_tx_pkts += nic.tx_packets;
            t.nic_tx_bytes += nic.tx_bytes;
            t.nic_rx_drops += nic.rx_overflow_drops + nic.rx_filter_drops + nic.rx_crc_drops;
            let apps = host.module.apps();
            let mut seen = Vec::new();
            for (_, id) in &apps {
                if seen.contains(id) {
                    continue;
                }
                seen.push(*id);
                host.group.with_engine(*id, |e| {
                    if let Some(pe) = e.as_any().downcast_mut::<PonyEngine>() {
                        t.pony_tx_pkts += pe.stats().tx_packets;
                        t.pony_msgs_delivered += pe.stats().msgs_delivered;
                    }
                });
            }
            let cpu = if apps.is_empty() {
                [0; 3]
            } else {
                let c = host.group.cpu(now);
                [
                    c.engine.as_nanos(),
                    c.spin.as_nanos(),
                    c.wake_overhead.as_nanos(),
                ]
            };
            t.group_cpu.push(cpu);
        }
        t
    }
}

/// Counters a workload owns itself (the kernel stack, the socket
/// facade and the open-loop generator are not reachable from the
/// testbed).
#[derive(Clone, Default, Debug, PartialEq)]
pub struct Extra {
    pub tcp_segs_sent: u64,
    pub tcp_retransmits: u64,
    /// Per host: simulated CPU ns of its kernel-TCP stack in the window
    /// (empty on the Pony workloads).
    pub tcp_cpu_ns: Vec<u64>,
    pub apps_chunks_tx: u64,
    pub apps_busy_retries: u64,
    pub apps_dup_chunks: u64,
    /// Open loop only: submit instant minus due instant, ns, sorted.
    pub late_ns: Vec<u64>,
    /// Largest `Sim::pending()` seen at a pump boundary.
    pub pending_max: u64,
}

/// The simulated side of one rep. Identical for every rep of a seed.
pub struct SimSide {
    /// The hosts of each side of the transfer (senders and receivers,
    /// clients and servers); one side when every host plays both roles.
    pub sides: Vec<Vec<usize>>,
    pub start: Totals,
    pub end: Totals,
    pub drained: Totals,
    pub extra: Extra,
    /// Application payload bytes delivered to receivers in the window.
    pub payload_bytes: u64,
    /// Latency of the ops that completed inside the window.
    pub lat: Latency,
    pub attempted: u64,
    /// Failed, timed out, shed, delivered twice, or still undelivered
    /// after the drain interval.
    pub failed: u64,
    /// Messages submitted and delivered over the whole rep (exactly-once
    /// gate); equal after the drain.
    pub msgs_submitted: u64,
    pub msgs_delivered: u64,
}

/// Op latency of one rep, simulated clock.
#[derive(Default)]
pub struct Latency {
    pub samples: u64,
    pub p50_ns: f64,
    pub p99_ns: f64,
    /// What the digest hashes: the samples, or the quantiles when the
    /// program keeps the samples to itself.
    words: Vec<u64>,
}

impl Latency {
    pub fn of_samples(mut ns: Vec<u64>) -> Latency {
        ns.sort_unstable();
        Latency {
            samples: ns.len() as u64,
            p50_ns: quantile(&ns, 0.50),
            p99_ns: quantile(&ns, 0.99),
            words: ns,
        }
    }

    pub fn of_quantiles(samples: u64, p50: Nanos, p99: Nanos, max: Nanos) -> Latency {
        Latency {
            samples,
            p50_ns: p50.as_nanos() as f64,
            p99_ns: p99.as_nanos() as f64,
            words: vec![samples, p50.as_nanos(), p99.as_nanos(), max.as_nanos()],
        }
    }
}

/// One rep: its host spans, its simulated side, and the trace recorder
/// when the rep was traced.
pub struct RepOut {
    pub spans: Spans,
    pub sim: SimSide,
    pub recorder: Option<TraceRecorder>,
}

impl SimSide {
    pub fn window_ns(&self) -> u64 {
        (self.end.at - self.start.at).as_nanos()
    }

    pub fn pkts(&self) -> u64 {
        self.end.delivered - self.start.delivered
    }

    pub fn goodput_gbps(&self) -> f64 {
        self.payload_bytes as f64 * 8.0 / self.window_ns() as f64
    }

    /// Window CPU of the Snap groups, summed by category.
    pub fn group_cpu(&self) -> [u64; 3] {
        let mut out = [0; 3];
        for (e, s) in self.end.group_cpu.iter().zip(&self.start.group_cpu) {
            for k in 0..3 {
                out[k] += e[k] - s[k];
            }
        }
        out
    }

    /// Goodput over the simulated cores the transport consumed on the
    /// busier side: Table 1's and Fig 6(b)'s efficiency.
    pub fn gbps_per_core(&self) -> f64 {
        let busier = self
            .sides
            .iter()
            .map(|side| side.iter().map(|&h| self.host_cores(h)).sum::<f64>())
            .fold(0.0, f64::max);
        self.goodput_gbps() / busier
    }

    /// Simulated cores the transport consumed on host `h`: for Pony the
    /// Snap group's CPU (engine + spin + wake) plus the paper's
    /// application-thread share; for kernel TCP the stack's `cpu_busy()`.
    fn host_cores(&self, h: usize) -> f64 {
        let pony: u64 = (0..3)
            .map(|k| self.end.group_cpu[h][k] - self.start.group_cpu[h][k])
            .sum();
        let tcp = self.extra.tcp_cpu_ns.get(h).copied().unwrap_or(0);
        let app = if pony > 0 {
            snap_repro::sim::costs::PONY_APP_CORES
        } else {
            0.0
        };
        (pony + tcp) as f64 / self.window_ns() as f64 + app
    }

    /// Simulated cores the transport consumed on all machines.
    pub fn cores(&self) -> f64 {
        (0..self.end.group_cpu.len())
            .map(|h| self.host_cores(h))
            .sum()
    }

    /// Hash of everything modelled: ops, packets, bytes, latencies and
    /// CPU ns. Two commits that claim a simulator-only change must print
    /// the same digest. Event counts and heap depth are properties of the
    /// simulator, not of the model, and stay out.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv::default();
        for t in [&self.start, &self.end, &self.drained] {
            h.words(&[
                t.at.as_nanos(),
                t.delivered,
                t.fabric_drops,
                t.nic_rx_drops,
                t.nic_tx_pkts,
                t.nic_tx_bytes,
                t.trunk_bytes,
                t.trunk_drops,
                t.pony_tx_pkts,
                t.pony_msgs_delivered,
            ]);
            h.words(&t.spine_bytes);
            for c in &t.group_cpu {
                h.words(c);
            }
        }
        let x = &self.extra;
        h.words(&[
            x.tcp_segs_sent,
            x.tcp_retransmits,
            x.apps_chunks_tx,
            x.apps_busy_retries,
            x.apps_dup_chunks,
            self.payload_bytes,
            self.attempted,
            self.failed,
            self.msgs_submitted,
            self.msgs_delivered,
        ]);
        h.words(&x.tcp_cpu_ns);
        h.words(&x.late_ns);
        h.words(&self.lat.words);
        h.0
    }

    /// The correctness gate. Returns every violated condition.
    pub fn violations(&self, clos_spines: usize, min_samples: u64) -> Vec<String> {
        let mut v = Vec::new();
        if self.failed != 0 {
            v.push(format!(
                "op_fail_ratio: {} of {} ops failed",
                self.failed, self.attempted
            ));
        }
        if self.msgs_delivered != self.msgs_submitted {
            v.push(format!(
                "exactly-once: {} messages submitted, {} delivered after the drain",
                self.msgs_submitted, self.msgs_delivered
            ));
        }
        let d = &self.drained;
        if d.nic_tx_pkts != d.delivered + d.fabric_drops {
            v.push(format!(
                "packet conservation: nic tx {} != delivered {} + drops {}",
                d.nic_tx_pkts, d.delivered, d.fabric_drops
            ));
        }
        if self.lat.samples < min_samples {
            v.push(format!(
                "only {} measured ops, p99 needs {min_samples}",
                self.lat.samples
            ));
        }
        let used = d.spine_bytes.iter().filter(|&&b| b > 0).count();
        if used != clos_spines {
            v.push(format!("{used} of {clos_spines} spines carried traffic"));
        }
        v
    }
}

#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn words(&mut self, ws: &[u64]) {
        for w in ws {
            for b in w.to_le_bytes() {
                self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
    }
}

/// Quantile of sorted integer samples, interpolated inside the 1 ns bin
/// the rank falls in (the grouped-data quantile): with `below` samples
/// under the bin's value `v` and `same` samples equal to it, the result
/// is `v - 0.5 + (rank - below) / same`. Simulated latencies pile up on a
/// few exact values; this keeps the quantile a continuous function of
/// how the samples are spread over them instead of a step.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = q * sorted.len() as f64;
    let v = sorted[(rank as usize).min(sorted.len() - 1)];
    let below = sorted.partition_point(|&x| x < v);
    let same = sorted.partition_point(|&x| x <= v) - below;
    v as f64 - 0.5 + (rank - below as f64) / same as f64
}

/// (first quartile, median, third quartile) of host-clock readings.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |q: f64| {
        let pos = q * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = (lo + 1).min(v.len() - 1);
        v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
    };
    (at(0.25), at(0.5), at(0.75))
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
