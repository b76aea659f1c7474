//! Click-style pluggable packet-processing elements (§2.2).
//!
//! "Snap exposes to engine developers a bare-metal programming
//! environment with libraries for OS-bypass networking, rate limiting,
//! ACL enforcement, protocol processing, tuned data structures, and
//! more, as well as a library of Click-style pluggable 'elements' to
//! construct packet processing pipelines."
//!
//! An [`Element`] consumes a packet and emits zero or more packets; a
//! [`Pipeline`] chains elements. Time-coupled elements (the token
//! bucket shaper, the delay queue) additionally release held packets
//! from [`Element::poll`], which the owning engine calls once per
//! scheduling pass.

use std::collections::VecDeque;

use snap_nic::packet::{HostId, Packet};
use snap_sim::Nanos;

/// What an element did with a packet.
#[derive(Debug)]
pub enum Verdict {
    /// Pass the packet on (possibly modified).
    Forward(Packet),
    /// Duplicate: pass all of these on (the Tee element).
    Fanout(Vec<Packet>),
    /// Drop the packet.
    Drop,
    /// Held inside the element; may emerge later from `poll`.
    Hold,
}

/// A packet-processing element.
pub trait Element {
    /// Element name for pipeline introspection.
    fn name(&self) -> &str;

    /// Processes one packet at virtual time `now`.
    fn process(&mut self, pkt: Packet, now: Nanos) -> Verdict;

    /// Releases any time-held packets due at `now`.
    fn poll(&mut self, _now: Nanos) -> Vec<Packet> {
        Vec::new()
    }

    /// Packets currently held inside the element.
    fn held(&self) -> usize {
        0
    }
}

/// Counts packets and bytes passing through.
#[derive(Debug, Default)]
pub struct Counter {
    /// Packets seen.
    pub packets: u64,
    /// Wire bytes seen.
    pub bytes: u64,
}

impl Counter {
    /// Creates a zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Element for Counter {
    fn name(&self) -> &str {
        "counter"
    }

    fn process(&mut self, pkt: Packet, _now: Nanos) -> Verdict {
        self.packets += 1;
        self.bytes += pkt.wire_size as u64;
        Verdict::Forward(pkt)
    }
}

/// Access-control list on (src, dst) host pairs.
///
/// Default-deny or default-allow with explicit exceptions.
#[derive(Debug)]
pub struct AclFilter {
    allow_by_default: bool,
    exceptions: Vec<(Option<HostId>, Option<HostId>)>,
    /// Packets denied so far.
    pub denied: u64,
}

impl AclFilter {
    /// Creates a filter with the given default policy.
    pub fn new(allow_by_default: bool) -> Self {
        AclFilter {
            allow_by_default,
            exceptions: Vec::new(),
            denied: 0,
        }
    }

    /// Adds an exception rule; `None` matches any host.
    pub fn add_rule(&mut self, src: Option<HostId>, dst: Option<HostId>) {
        self.exceptions.push((src, dst));
    }

    fn matches_exception(&self, pkt: &Packet) -> bool {
        self.exceptions.iter().any(|(s, d)| {
            s.map(|s| s == pkt.src).unwrap_or(true) && d.map(|d| d == pkt.dst).unwrap_or(true)
        })
    }
}

impl Element for AclFilter {
    fn name(&self) -> &str {
        "acl"
    }

    fn process(&mut self, pkt: Packet, _now: Nanos) -> Verdict {
        let exception = self.matches_exception(&pkt);
        let allowed = self.allow_by_default != exception;
        if allowed {
            Verdict::Forward(pkt)
        } else {
            self.denied += 1;
            Verdict::Drop
        }
    }
}

/// Token-bucket traffic shaper — the "shaping" engine building block
/// for bandwidth enforcement (BwE-style policy, §2.1).
///
/// Conforming packets pass immediately; excess packets are queued and
/// released as tokens refill, up to a bounded backlog (tail-dropped
/// beyond that).
#[derive(Debug)]
pub struct TokenBucket {
    rate_bytes_per_sec: f64,
    burst_bytes: f64,
    tokens: f64,
    last_refill: Nanos,
    backlog: VecDeque<Packet>,
    max_backlog: usize,
    /// Packets dropped due to backlog overflow.
    pub shaped_drops: u64,
}

impl TokenBucket {
    /// Creates a shaper with the given rate and burst.
    ///
    /// # Panics
    ///
    /// Panics if rate or burst is non-positive.
    pub fn new(rate_bytes_per_sec: f64, burst_bytes: f64, max_backlog: usize) -> Self {
        assert!(rate_bytes_per_sec > 0.0 && burst_bytes > 0.0);
        TokenBucket {
            rate_bytes_per_sec,
            burst_bytes,
            tokens: burst_bytes,
            last_refill: Nanos::ZERO,
            backlog: VecDeque::new(),
            max_backlog,
            shaped_drops: 0,
        }
    }

    fn refill(&mut self, now: Nanos) {
        if now > self.last_refill {
            let dt = (now - self.last_refill).as_secs_f64();
            self.tokens = (self.tokens + dt * self.rate_bytes_per_sec).min(self.burst_bytes);
            self.last_refill = now;
        }
    }
}

impl Element for TokenBucket {
    fn name(&self) -> &str {
        "token-bucket"
    }

    fn process(&mut self, pkt: Packet, now: Nanos) -> Verdict {
        self.refill(now);
        let cost = pkt.wire_size as f64;
        if self.backlog.is_empty() && self.tokens >= cost {
            self.tokens -= cost;
            return Verdict::Forward(pkt);
        }
        if self.backlog.len() >= self.max_backlog {
            self.shaped_drops += 1;
            return Verdict::Drop;
        }
        self.backlog.push_back(pkt);
        Verdict::Hold
    }

    fn poll(&mut self, now: Nanos) -> Vec<Packet> {
        self.refill(now);
        let mut out = Vec::new();
        while let Some(front) = self.backlog.front() {
            let cost = front.wire_size as f64;
            if self.tokens < cost {
                break;
            }
            self.tokens -= cost;
            out.push(self.backlog.pop_front().expect("front exists"));
        }
        out
    }

    fn held(&self) -> usize {
        self.backlog.len()
    }
}

/// Duplicates every packet to produce `copies` outputs (mirroring).
#[derive(Debug)]
pub struct Tee {
    copies: usize,
}

impl Tee {
    /// Creates a tee emitting `copies` packets per input.
    ///
    /// # Panics
    ///
    /// Panics if `copies` is zero.
    pub fn new(copies: usize) -> Self {
        assert!(copies > 0, "a zero-output tee is a drop");
        Tee { copies }
    }
}

impl Element for Tee {
    fn name(&self) -> &str {
        "tee"
    }

    fn process(&mut self, pkt: Packet, _now: Nanos) -> Verdict {
        let mut out = Vec::with_capacity(self.copies);
        for _ in 0..self.copies - 1 {
            out.push(pkt.clone());
        }
        out.push(pkt);
        Verdict::Fanout(out)
    }
}

/// Classifies packets by a predicate, rewriting their steering key so a
/// downstream stage (or NIC filter) can route them.
pub struct Classifier {
    name: String,
    classify: Box<dyn FnMut(&Packet) -> u64>,
}

impl Classifier {
    /// Creates a classifier computing a steering key per packet.
    pub fn new(name: impl Into<String>, classify: impl FnMut(&Packet) -> u64 + 'static) -> Self {
        Classifier {
            name: name.into(),
            classify: Box::new(classify),
        }
    }
}

impl Element for Classifier {
    fn name(&self) -> &str {
        &self.name
    }

    fn process(&mut self, mut pkt: Packet, _now: Nanos) -> Verdict {
        pkt.steer_key = Some((self.classify)(&pkt));
        Verdict::Forward(pkt)
    }
}

/// A fixed-delay stage (models a processing stage with latency).
#[derive(Debug)]
pub struct DelayQueue {
    delay: Nanos,
    held: VecDeque<(Nanos, Packet)>,
}

impl DelayQueue {
    /// Creates a stage that holds each packet for `delay`.
    pub fn new(delay: Nanos) -> Self {
        DelayQueue {
            delay,
            held: VecDeque::new(),
        }
    }
}

impl Element for DelayQueue {
    fn name(&self) -> &str {
        "delay"
    }

    fn process(&mut self, pkt: Packet, now: Nanos) -> Verdict {
        self.held.push_back((now + self.delay, pkt));
        Verdict::Hold
    }

    fn poll(&mut self, now: Nanos) -> Vec<Packet> {
        let mut out = Vec::new();
        while let Some((due, _)) = self.held.front() {
            if *due > now {
                break;
            }
            out.push(self.held.pop_front().expect("front exists").1);
        }
        out
    }

    fn held(&self) -> usize {
        self.held.len()
    }
}

/// A chain of elements applied in order.
///
/// `push` runs a packet through the chain from the first element;
/// `poll` releases time-held packets from every stage and runs them
/// through the *remainder* of the chain.
#[derive(Default)]
pub struct Pipeline {
    stages: Vec<Box<dyn Element>>,
}

impl Pipeline {
    /// Creates an empty pipeline (which forwards everything).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a stage (builder style).
    pub fn push_stage(mut self, e: Box<dyn Element>) -> Self {
        self.stages.push(e);
        self
    }

    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// True if the pipeline has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }

    /// Access a stage for stats readout.
    pub fn stage(&self, i: usize) -> &dyn Element {
        self.stages[i].as_ref()
    }

    fn run_from(&mut self, start: usize, pkt: Packet, now: Nanos, out: &mut Vec<Packet>) {
        let mut wave = vec![pkt];
        for i in start..self.stages.len() {
            let mut next = Vec::with_capacity(wave.len());
            for p in wave {
                match self.stages[i].process(p, now) {
                    Verdict::Forward(p) => next.push(p),
                    Verdict::Fanout(ps) => next.extend(ps),
                    Verdict::Drop | Verdict::Hold => {}
                }
            }
            wave = next;
            if wave.is_empty() {
                return;
            }
        }
        out.extend(wave);
    }

    /// Runs a packet through the whole chain; returns emitted packets.
    pub fn push(&mut self, pkt: Packet, now: Nanos) -> Vec<Packet> {
        let mut out = Vec::new();
        self.run_from(0, pkt, now, &mut out);
        out
    }

    /// Releases due packets from every stage, continuing them through
    /// the rest of the chain; returns everything that reached the end.
    pub fn poll(&mut self, now: Nanos) -> Vec<Packet> {
        let mut out = Vec::new();
        for i in 0..self.stages.len() {
            let released = self.stages[i].poll(now);
            for p in released {
                self.run_from(i + 1, p, now, &mut out);
            }
        }
        out
    }

    /// Total packets held across stages.
    pub fn held(&self) -> usize {
        self.stages.iter().map(|s| s.held()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn pkt(src: HostId, dst: HostId, len: usize) -> Packet {
        Packet::new(src, dst, Bytes::from(vec![0u8; len]))
    }

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        let p = pkt(1, 2, 100);
        let wire = p.wire_size as u64;
        match c.process(p, Nanos::ZERO) {
            Verdict::Forward(_) => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(c.packets, 1);
        assert_eq!(c.bytes, wire);
    }

    #[test]
    fn acl_default_deny_with_allow_rule() {
        let mut acl = AclFilter::new(false);
        acl.add_rule(Some(1), None); // allow anything from host 1
        assert!(matches!(acl.process(pkt(1, 9, 10), Nanos::ZERO), Verdict::Forward(_)));
        assert!(matches!(acl.process(pkt(2, 9, 10), Nanos::ZERO), Verdict::Drop));
        assert_eq!(acl.denied, 1);
    }

    #[test]
    fn acl_default_allow_with_deny_rule() {
        let mut acl = AclFilter::new(true);
        acl.add_rule(None, Some(7)); // deny anything to host 7
        assert!(matches!(acl.process(pkt(1, 7, 10), Nanos::ZERO), Verdict::Drop));
        assert!(matches!(acl.process(pkt(1, 8, 10), Nanos::ZERO), Verdict::Forward(_)));
    }

    #[test]
    fn token_bucket_conforms_then_holds() {
        // 1000 B/s, burst 200 B; packets are 142 B wire (100 + 42).
        let mut tb = TokenBucket::new(1000.0, 200.0, 10);
        assert!(matches!(tb.process(pkt(1, 2, 100), Nanos::ZERO), Verdict::Forward(_)));
        // Bucket nearly empty; second packet held.
        assert!(matches!(tb.process(pkt(1, 2, 100), Nanos::ZERO), Verdict::Hold));
        assert_eq!(tb.held(), 1);
        // 58 tokens remain; the held 142 B packet needs 84 more, i.e.
        // 84 ms of refill at 1000 B/s.
        assert!(tb.poll(Nanos::from_millis(50)).is_empty());
        let released = tb.poll(Nanos::from_millis(200));
        assert_eq!(released.len(), 1);
        assert_eq!(tb.held(), 0);
    }

    #[test]
    fn token_bucket_drops_beyond_backlog() {
        let mut tb = TokenBucket::new(1000.0, 150.0, 2);
        tb.process(pkt(1, 2, 100), Nanos::ZERO); // forwarded
        tb.process(pkt(1, 2, 100), Nanos::ZERO); // held
        tb.process(pkt(1, 2, 100), Nanos::ZERO); // held
        assert!(matches!(tb.process(pkt(1, 2, 100), Nanos::ZERO), Verdict::Drop));
        assert_eq!(tb.shaped_drops, 1);
    }

    #[test]
    fn token_bucket_rate_is_enforced_long_run() {
        // 10 KB/s shaper; offer 100 packets of 142 B wire over 1 s.
        let mut tb = TokenBucket::new(10_000.0, 500.0, 1_000);
        let mut passed = 0u64;
        for i in 0..100 {
            let now = Nanos::from_millis(i * 10);
            if let Verdict::Forward(_) = tb.process(pkt(1, 2, 100), now) {
                passed += 1;
            }
            passed += tb.poll(now).len() as u64;
        }
        let bytes = passed * 142;
        // ~10 KB allowed in 1 s (+ burst).
        assert!(bytes <= 11_000, "shaper leaked {bytes} bytes");
        assert!(bytes >= 9_000, "shaper overthrottled to {bytes} bytes");
    }

    #[test]
    fn tee_duplicates() {
        let mut tee = Tee::new(3);
        match tee.process(pkt(1, 2, 10), Nanos::ZERO) {
            Verdict::Fanout(ps) => assert_eq!(ps.len(), 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn classifier_sets_steer_key() {
        let mut c = Classifier::new("by-dst", |p| p.dst as u64 * 10);
        match c.process(pkt(1, 4, 10), Nanos::ZERO) {
            Verdict::Forward(p) => assert_eq!(p.steer_key, Some(40)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn delay_queue_releases_in_order() {
        let mut d = DelayQueue::new(Nanos::from_micros(10));
        d.process(pkt(1, 2, 1), Nanos(0));
        d.process(pkt(1, 2, 2), Nanos(5_000));
        assert_eq!(d.poll(Nanos(9_999)).len(), 0);
        assert_eq!(d.poll(Nanos(10_000)).len(), 1);
        assert_eq!(d.poll(Nanos(15_000)).len(), 1);
        assert_eq!(d.held(), 0);
    }

    #[test]
    fn pipeline_chains_and_continues_after_hold() {
        let mut pipe = Pipeline::new()
            .push_stage(Box::new(Counter::new()))
            .push_stage(Box::new(DelayQueue::new(Nanos::from_micros(5))))
            .push_stage(Box::new(Counter::new()));
        let out = pipe.push(pkt(1, 2, 10), Nanos::ZERO);
        assert!(out.is_empty(), "held in the delay stage");
        assert_eq!(pipe.held(), 1);
        let out = pipe.poll(Nanos::from_micros(5));
        assert_eq!(out.len(), 1);
        // Released packet passed through the downstream counter only.
        // (stage 0 saw it once on push).
        // Downstream counter (stage 2):
        // can't downcast trait objects here; verified by pipeline
        // emitting exactly one packet.
        assert_eq!(pipe.held(), 0);
    }

    #[test]
    fn pipeline_drop_short_circuits() {
        let mut acl = AclFilter::new(false);
        let _ = &mut acl; // default deny, no rules
        let mut pipe = Pipeline::new()
            .push_stage(Box::new(acl))
            .push_stage(Box::new(Counter::new()));
        let out = pipe.push(pkt(1, 2, 10), Nanos::ZERO);
        assert!(out.is_empty());
    }

    #[test]
    fn pipeline_tee_fanout_flows_downstream() {
        let mut pipe = Pipeline::new()
            .push_stage(Box::new(Tee::new(2)))
            .push_stage(Box::new(Counter::new()));
        let out = pipe.push(pkt(1, 2, 10), Nanos::ZERO);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn empty_pipeline_forwards() {
        let mut pipe = Pipeline::new();
        assert!(pipe.is_empty());
        let out = pipe.push(pkt(1, 2, 10), Nanos::ZERO);
        assert_eq!(out.len(), 1);
    }
}
