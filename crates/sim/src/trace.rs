//! Causal per-op tracing: contexts, stage records, and the recorder.
//!
//! A [`TraceContext`] is allocated when an application submits an op
//! and rides along the command tuple, the Pony wire header, and the
//! fabric [`Packet`](crate) annotations. Every hop stamps a
//! [`StageRecord`] — a pure observation of the virtual clock, never a
//! scheduled event or a cost charge — so tracing cannot perturb the
//! modeled system. When the op completes, its records assemble into a
//! [`CompletedTrace`] whose per-stage breakdown telescopes exactly to
//! the op's end-to-end modeled latency.
//!
//! Sampling is **head-based** (decided at allocation from a hash of
//! the recorder seed and the trace id — deliberately *not* from the
//! shared simulation RNG, which would perturb fault-injection draw
//! order) plus **tail-biased**: an op that experiences a fault
//! artifact (retransmit, wire corruption, drop, shed, busy-reject) is
//! always retained, whatever the head decision said. A sampling rate
//! of zero disables tracing entirely: no contexts are allocated and
//! no wire bytes are spent, so the modeled schedule is bit-identical
//! to an untraced run.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use crate::hash::IntMap;
use crate::stats::Histogram;
use crate::time::Nanos;

/// Sampling rates are expressed in parts per million of this scale.
pub const TRACE_SAMPLE_SCALE: u32 = 1_000_000;

/// Pseudo host id used for records stamped inside the switch fabric
/// (which belongs to no host).
pub const FABRIC_HOST: u32 = u32::MAX;

/// The per-op causal context carried end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Globally unique op trace id (sequential per recorder).
    pub trace_id: u64,
    /// Span id of the hop that forwarded this context (0 at the root);
    /// lets a receiver attribute its records to the sender's span.
    pub parent_span: u32,
    /// Head-sampling decision made at allocation.
    pub sampled: bool,
}

/// A stage boundary on an op's causal path. Interval semantics: when
/// records are sorted by time, the gap *ending* at a record is
/// attributed to that record's stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Stage {
    /// App pushed the command into the SPSC queue.
    ClientEnqueue,
    /// Engine drained the command (gap before = scheduling delay).
    EngineDequeue,
    /// Packet cleared the NIC tx queue (serialization + queueing).
    NicTx,
    /// Packet reached the switch ingress (link propagation).
    SwitchArrive,
    /// Packet left the switch egress (switch queueing + forwarding).
    SwitchDepart,
    /// Packet was DMA-delivered into the destination NIC.
    NicDeliver,
    /// Remote engine picked the packet off its rx ring.
    RemoteDequeue,
    /// Remote op execution finished (one-sided serve, msg reassembly).
    OpExecute,
    /// Fault artifact: a packet of this op was retransmitted.
    Retransmit,
    /// Fault artifact: a packet of this op was dropped in the fabric.
    WireDrop,
    /// Fault artifact: a packet of this op was corrupted on the wire.
    WireCorrupt,
    /// Fault artifact: the op was shed under memory pressure.
    Shed,
    /// Fault artifact: the op was busy-rejected at admission.
    Busy,
    /// App-layer: a facade frame (request, reply, or stream chunk)
    /// finished its transport leg and reached the peer application.
    AppTransport,
    /// App-layer: a request left a service's run queue and was granted
    /// a concurrency slot (gap before = app scheduling delay).
    AppSched,
    /// App-layer: service handler execution finished for this hop.
    AppService,
    /// Op completion was posted back to the app.
    Complete,
}

impl Stage {
    /// Every stage, in canonical rendering order.
    pub const ALL: [Stage; 17] = [
        Stage::ClientEnqueue,
        Stage::EngineDequeue,
        Stage::NicTx,
        Stage::SwitchArrive,
        Stage::SwitchDepart,
        Stage::NicDeliver,
        Stage::RemoteDequeue,
        Stage::OpExecute,
        Stage::Retransmit,
        Stage::WireDrop,
        Stage::WireCorrupt,
        Stage::Shed,
        Stage::Busy,
        Stage::AppTransport,
        Stage::AppSched,
        Stage::AppService,
        Stage::Complete,
    ];

    /// Stable snake_case label (wire/report format).
    pub fn label(self) -> &'static str {
        match self {
            Stage::ClientEnqueue => "client_enqueue",
            Stage::EngineDequeue => "engine_dequeue",
            Stage::NicTx => "nic_tx",
            Stage::SwitchArrive => "switch_arrive",
            Stage::SwitchDepart => "switch_depart",
            Stage::NicDeliver => "nic_deliver",
            Stage::RemoteDequeue => "remote_dequeue",
            Stage::OpExecute => "op_execute",
            Stage::Retransmit => "retransmit",
            Stage::WireDrop => "wire_drop",
            Stage::WireCorrupt => "wire_corrupt",
            Stage::Shed => "shed",
            Stage::Busy => "busy",
            Stage::AppTransport => "app_transport",
            Stage::AppSched => "app_sched",
            Stage::AppService => "app_service",
            Stage::Complete => "complete",
        }
    }

    /// True for fault-artifact stages that trigger tail-biased capture.
    pub fn is_fault(self) -> bool {
        matches!(
            self,
            Stage::Retransmit | Stage::WireDrop | Stage::WireCorrupt | Stage::Shed | Stage::Busy
        )
    }
}

/// One stamped stage boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageRecord {
    /// The stage this record ends.
    pub stage: Stage,
    /// Host the stamp was taken on ([`FABRIC_HOST`] inside the switch).
    pub host: u32,
    /// Virtual time of the stamp.
    pub at: Nanos,
    /// Global insertion index — the stable tiebreak for equal times,
    /// so assembly is deterministic.
    seq: u64,
}

/// A finished op's assembled cross-host span: its records sorted into
/// causal order plus the retained sampling verdict.
#[derive(Debug, Clone)]
pub struct CompletedTrace {
    /// The op's trace id.
    pub trace_id: u64,
    /// True if a fault artifact forced tail-biased retention.
    pub faulted: bool,
    /// Records sorted by `(at, seq)`; first is `ClientEnqueue`, last
    /// is `Complete`.
    pub records: Vec<StageRecord>,
}

impl CompletedTrace {
    /// Virtual time the op was submitted.
    pub fn begin(&self) -> Nanos {
        self.records.first().map(|r| r.at).unwrap_or(Nanos::ZERO)
    }

    /// Virtual time the op completed.
    pub fn end(&self) -> Nanos {
        self.records.last().map(|r| r.at).unwrap_or(Nanos::ZERO)
    }

    /// End-to-end modeled latency of the op.
    pub fn total(&self) -> Nanos {
        self.end().saturating_sub(self.begin())
    }

    /// Per-stage critical-path breakdown. Each consecutive record pair
    /// attributes its gap to the later record's stage, so the returned
    /// durations **telescope exactly** to [`CompletedTrace::total`].
    /// Stages appear in [`Stage::ALL`] order; absent stages are
    /// omitted, zero-duration stages that occurred are kept.
    pub fn breakdown(&self) -> Vec<(Stage, Nanos)> {
        let mut sums: BTreeMap<Stage, Nanos> = BTreeMap::new();
        for pair in self.records.windows(2) {
            let gap = pair[1].at.saturating_sub(pair[0].at);
            *sums.entry(pair[1].stage).or_insert(Nanos::ZERO) += gap;
        }
        Stage::ALL
            .iter()
            .filter_map(|s| sums.get(s).map(|d| (*s, *d)))
            .collect()
    }

    /// The hosts that contributed records, in first-touch order — the
    /// flattened span tree (client host, fabric, remote host, ...).
    pub fn hosts(&self) -> Vec<u32> {
        let mut seen = Vec::new();
        for r in &self.records {
            if !seen.contains(&r.host) {
                seen.push(r.host);
            }
        }
        seen
    }
}

#[derive(Default)]
struct Pending {
    records: Vec<StageRecord>,
    tail: bool,
}

struct RecInner {
    seed: u64,
    sample_ppm: u32,
    capacity: usize,
    next_trace: u64,
    next_seq: u64,
    pending: IntMap<u64, Pending>,
    done: VecDeque<CompletedTrace>,
    evicted: u64,
    finalized: u64,
    retained: u64,
    tail_retained: u64,
    stage_stats: BTreeMap<Stage, Histogram>,
}

/// The shared trace recorder. Cloning shares state; one recorder spans
/// every host of a simulated rack (it *is* the distributed-tracing
/// backend, with the network conveniently free).
#[derive(Clone)]
pub struct TraceRecorder {
    inner: Rc<RefCell<RecInner>>,
}

/// SplitMix64 finalizer: the head-sampling hash. Independent of the
/// simulation RNG streams by construction.
fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl TraceRecorder {
    /// A recorder sampling `sample_ppm` parts-per-million of ops
    /// (head-based, keyed by `seed`), retaining at most `capacity`
    /// completed traces (oldest evicted, counted in
    /// [`TraceRecorder::dropped`]).
    pub fn new(seed: u64, sample_ppm: u32, capacity: usize) -> Self {
        TraceRecorder {
            inner: Rc::new(RefCell::new(RecInner {
                seed,
                sample_ppm: sample_ppm.min(TRACE_SAMPLE_SCALE),
                capacity,
                next_trace: 1,
                next_seq: 0,
                pending: IntMap::default(),
                done: VecDeque::new(),
                evicted: 0,
                finalized: 0,
                retained: 0,
                tail_retained: 0,
                stage_stats: BTreeMap::new(),
            })),
        }
    }

    /// The configured head-sampling rate (parts per million).
    pub fn sample_ppm(&self) -> u32 {
        self.inner.borrow().sample_ppm
    }

    /// True when tracing is active (rate above zero). At rate zero the
    /// recorder allocates nothing and the datapath stays untouched.
    pub fn enabled(&self) -> bool {
        self.inner.borrow().sample_ppm > 0
    }

    /// Allocates a context for a newly submitted op and stamps its
    /// `ClientEnqueue` record. Returns `None` when tracing is off.
    pub fn begin(&self, now: Nanos, host: u32) -> Option<TraceContext> {
        let mut inner = self.inner.borrow_mut();
        if inner.sample_ppm == 0 {
            return None;
        }
        let trace_id = inner.next_trace;
        inner.next_trace += 1;
        let sampled = (splitmix(inner.seed ^ trace_id) % u64::from(TRACE_SAMPLE_SCALE))
            < u64::from(inner.sample_ppm);
        let ctx = TraceContext {
            trace_id,
            parent_span: 0,
            sampled,
        };
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.pending.insert(
            trace_id,
            Pending {
                records: vec![StageRecord {
                    stage: Stage::ClientEnqueue,
                    host,
                    at: now,
                    seq,
                }],
                tail: false,
            },
        );
        Some(ctx)
    }

    /// Stamps a stage record on an in-flight op. Fault-artifact stages
    /// also mark the trace for tail-biased retention. Stamps on
    /// already-finalized (or never-begun) ids are absorbed silently —
    /// late duplicate deliveries and restored-from-checkpoint ops must
    /// not grow state forever, so only known-pending ids accumulate.
    pub fn record(&self, ctx: TraceContext, stage: Stage, host: u32, at: Nanos) {
        let mut inner = self.inner.borrow_mut();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if let Some(p) = inner.pending.get_mut(&ctx.trace_id) {
            p.records.push(StageRecord {
                stage,
                host,
                at,
                seq,
            });
            if stage.is_fault() {
                p.tail = true;
            }
        }
    }

    /// Completes an op: stamps `Complete` at `now`, assembles the span
    /// (records sorted by `(at, seq)`, stamps after `now` discarded so
    /// the breakdown telescopes to the completion latency), folds the
    /// breakdown into the per-stage aggregates, and retains the trace
    /// if it was head-sampled or tail-marked.
    pub fn finalize(&self, ctx: TraceContext, now: Nanos, host: u32) {
        let mut inner = self.inner.borrow_mut();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        let Some(mut p) = inner.pending.remove(&ctx.trace_id) else {
            return;
        };
        inner.finalized += 1;
        p.records.retain(|r| r.at <= now);
        p.records.push(StageRecord {
            stage: Stage::Complete,
            host,
            at: now,
            seq,
        });
        p.records.sort_by_key(|r| (r.at, r.seq));
        let trace = CompletedTrace {
            trace_id: ctx.trace_id,
            faulted: p.tail,
            records: p.records,
        };
        for (stage, dur) in trace.breakdown() {
            inner
                .stage_stats
                .entry(stage)
                .or_default()
                .record_nanos(dur);
        }
        if !(ctx.sampled || p.tail) {
            return;
        }
        inner.retained += 1;
        if p.tail && !ctx.sampled {
            inner.tail_retained += 1;
        }
        while inner.done.len() >= inner.capacity.max(1) {
            inner.done.pop_front();
            inner.evicted += 1;
        }
        if inner.capacity > 0 {
            inner.done.push_back(trace);
        } else {
            inner.evicted += 1;
        }
    }

    /// Fetches a retained trace by id.
    pub fn get(&self, trace_id: u64) -> Option<CompletedTrace> {
        self.inner
            .borrow()
            .done
            .iter()
            .find(|t| t.trace_id == trace_id)
            .cloned()
    }

    /// All retained traces, oldest first.
    pub fn completed(&self) -> Vec<CompletedTrace> {
        self.inner.borrow().done.iter().cloned().collect()
    }

    /// The `k` slowest retained traces, slowest first (ties broken by
    /// trace id for determinism).
    pub fn top_slowest(&self, k: usize) -> Vec<CompletedTrace> {
        let mut all: Vec<CompletedTrace> = self.inner.borrow().done.iter().cloned().collect();
        all.sort_by(|a, b| b.total().cmp(&a.total()).then(a.trace_id.cmp(&b.trace_id)));
        all.truncate(k);
        all
    }

    /// Per-stage `(stage, count, p50, p99)` aggregates over every
    /// finalized op (not just retained ones), in [`Stage::ALL`] order.
    pub fn stage_quantiles(&self) -> Vec<(Stage, u64, Nanos, Nanos)> {
        let inner = self.inner.borrow();
        Stage::ALL
            .iter()
            .filter_map(|s| {
                inner
                    .stage_stats
                    .get(s)
                    .map(|h| (*s, h.count(), Nanos(h.median()), Nanos(h.p99())))
            })
            .collect()
    }

    /// Number of ops finalized (traced to completion).
    pub fn finalized(&self) -> u64 {
        self.inner.borrow().finalized
    }

    /// Number of traces retained (head-sampled or tail-marked).
    pub fn retained(&self) -> u64 {
        self.inner.borrow().retained
    }

    /// Retained traces that only survived via tail-biased capture.
    pub fn tail_retained(&self) -> u64 {
        self.inner.borrow().tail_retained
    }

    /// Retained traces evicted from the bounded ring.
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(ppm: u32) -> TraceRecorder {
        TraceRecorder::new(7, ppm, 64)
    }

    #[test]
    fn rate_zero_allocates_nothing() {
        let r = rec(0);
        assert!(!r.enabled());
        assert!(r.begin(Nanos(5), 0).is_none());
        assert!(r.inner.borrow().pending.is_empty());
    }

    #[test]
    fn breakdown_telescopes_to_total() {
        let r = rec(TRACE_SAMPLE_SCALE);
        let ctx = r.begin(Nanos(100), 0).unwrap();
        assert!(ctx.sampled, "100% sampling samples everything");
        r.record(ctx, Stage::EngineDequeue, 0, Nanos(400));
        r.record(ctx, Stage::NicTx, 0, Nanos(1_000));
        r.record(ctx, Stage::SwitchArrive, FABRIC_HOST, Nanos(1_150));
        r.record(ctx, Stage::SwitchDepart, FABRIC_HOST, Nanos(1_450));
        r.record(ctx, Stage::NicDeliver, 1, Nanos(2_900));
        r.record(ctx, Stage::RemoteDequeue, 1, Nanos(3_100));
        r.finalize(ctx, Nanos(9_000), 0);
        let t = r.get(ctx.trace_id).expect("retained");
        let sum: u64 = t.breakdown().iter().map(|(_, d)| d.as_nanos()).sum();
        assert_eq!(sum, t.total().as_nanos());
        assert_eq!(t.total(), Nanos(8_900));
        assert_eq!(t.hosts(), vec![0, FABRIC_HOST, 1]);
    }

    #[test]
    fn out_of_order_and_future_stamps_still_telescope() {
        let r = rec(TRACE_SAMPLE_SCALE);
        let ctx = r.begin(Nanos(0), 0).unwrap();
        // Eager future stamp beyond completion: discarded at finalize.
        r.record(ctx, Stage::NicTx, 0, Nanos(50_000));
        // Out-of-order stamps: sorted by time at assembly.
        r.record(ctx, Stage::SwitchDepart, FABRIC_HOST, Nanos(900));
        r.record(ctx, Stage::SwitchArrive, FABRIC_HOST, Nanos(600));
        r.finalize(ctx, Nanos(2_000), 0);
        let t = r.get(ctx.trace_id).unwrap();
        assert_eq!(t.records.first().unwrap().stage, Stage::ClientEnqueue);
        assert_eq!(t.records.last().unwrap().stage, Stage::Complete);
        assert!(t.records.iter().all(|rec| rec.at <= Nanos(2_000)));
        let sum: u64 = t.breakdown().iter().map(|(_, d)| d.as_nanos()).sum();
        assert_eq!(sum, t.total().as_nanos());
    }

    #[test]
    fn head_sampling_is_deterministic_and_roughly_proportional() {
        let a = rec(10_000); // 1%
        let b = rec(10_000);
        let mut kept = 0;
        for i in 0..10_000u64 {
            let ca = a.begin(Nanos(i), 0).unwrap();
            let cb = b.begin(Nanos(i), 0).unwrap();
            assert_eq!(ca.sampled, cb.sampled, "same seed, same decision");
            if ca.sampled {
                kept += 1;
            }
            a.finalize(ca, Nanos(i + 1), 0);
            b.finalize(cb, Nanos(i + 1), 0);
        }
        assert!((50..200).contains(&kept), "~1% of 10k, got {kept}");
    }

    #[test]
    fn tail_bias_retains_faulted_unsampled_ops() {
        let r = rec(1); // ~0% head sampling
        let mut ctx = None;
        for i in 0..100u64 {
            let c = r.begin(Nanos(i * 10), 0).unwrap();
            if !c.sampled && ctx.is_none() {
                ctx = Some(c);
                continue;
            }
            r.finalize(c, Nanos(i * 10 + 5), 0);
        }
        let c = ctx.expect("an unsampled op");
        r.record(c, Stage::Retransmit, 0, Nanos(5_000));
        r.finalize(c, Nanos(6_000), 0);
        let t = r.get(c.trace_id).expect("tail-retained");
        assert!(t.faulted);
        assert!(r.tail_retained() >= 1);
    }

    #[test]
    fn ring_is_bounded_and_counts_evictions() {
        let r = TraceRecorder::new(1, TRACE_SAMPLE_SCALE, 4);
        for i in 0..10u64 {
            let c = r.begin(Nanos(i * 100), 0).unwrap();
            r.finalize(c, Nanos(i * 100 + 10), 0);
        }
        assert_eq!(r.completed().len(), 4);
        assert_eq!(r.dropped(), 6);
        assert_eq!(r.finalized(), 10);
    }

    #[test]
    fn top_slowest_orders_by_total() {
        let r = rec(TRACE_SAMPLE_SCALE);
        for (i, dur) in [(1u64, 500u64), (2, 9_000), (3, 2_000)] {
            let c = r.begin(Nanos(i * 10_000), 0).unwrap();
            r.finalize(c, Nanos(i * 10_000 + dur), 0);
        }
        let top = r.top_slowest(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].total(), Nanos(9_000));
        assert_eq!(top[1].total(), Nanos(2_000));
    }

    #[test]
    fn stage_quantiles_cover_all_finalized_ops() {
        let r = rec(1); // nearly nothing head-sampled
        for i in 0..50u64 {
            let c = r.begin(Nanos(i * 1_000), 0).unwrap();
            r.record(c, Stage::EngineDequeue, 0, Nanos(i * 1_000 + 200));
            r.finalize(c, Nanos(i * 1_000 + 700), 0);
        }
        let q = r.stage_quantiles();
        let dequeue = q
            .iter()
            .find(|(s, ..)| *s == Stage::EngineDequeue)
            .expect("aggregates exist even for unretained traces");
        assert_eq!(dequeue.1, 50);
        assert!(dequeue.2 >= Nanos(150), "p50 {:?}", dequeue.2);
    }
}
