//! Property-based tests over the core data structures and protocol
//! invariants, per the DESIGN.md testing strategy.

use proptest::prelude::*;

use snap_repro::core::engine::{CountingEngine, Engine, EngineId};
use snap_repro::core::group::{GroupConfig, GroupHandle, SchedulingMode};
use snap_repro::core::module::ControlError;
use snap_repro::isolation::{AdmissionController, QuotaPolicy};
use snap_repro::nic::crc::{crc32c, crc32c_append};
use snap_repro::shm::account::CpuAccountant;
use snap_repro::pony::flow::{Accept, Flow};
use snap_repro::pony::timely::{Timely, TimelyConfig};
use snap_repro::pony::wire::{OpFrame, PonyPacket};
use snap_repro::sched::machine::Machine;
use snap_repro::shm::account::MemoryAccountant;
use snap_repro::shm::pool::BufferPool;
use snap_repro::shm::spsc::SpscRing;
use snap_repro::sim::codec::{Reader, Writer};
use snap_repro::sim::{EventHandle, Histogram, Nanos, Sim};

/// The event-order property's two sides run one script: top-level ops
/// schedule, cancel and run; each event, when it fires, logs itself and
/// then acts out a behaviour drawn from `pool` by its id (ids count
/// `schedule` calls): it schedules `children` events `delta` ns on
/// (0 = this very instant), every second one cancellable, and cancels
/// the handle numbered `cancel`. Events three generations deep stop
/// having children, so a chain of zero delays ends.
type Behaviour = (u8, u16, u8);
const MAX_DEPTH: u8 = 2;

/// One firing: the event's id, `now()` and `pending()` inside it.
type Fired = (u32, u64, usize);

/// The script's world on the simulator's side, shared by its closures.
struct EventWorld {
    pool: Vec<Behaviour>,
    next_id: std::cell::Cell<u32>,
    handles: std::cell::RefCell<Vec<EventHandle>>,
    log: std::cell::RefCell<Vec<Fired>>,
}

impl EventWorld {
    fn schedule(self: &std::rc::Rc<Self>, sim: &mut Sim, at: Nanos, cancellable: bool, depth: u8) {
        let id = self.next_id.get();
        self.next_id.set(id + 1);
        let world = self.clone();
        let fire = move |sim: &mut Sim| {
            let fired = (id, sim.now().as_nanos(), sim.pending());
            world.log.borrow_mut().push(fired);
            let (children, delta, cancel) = world.pool[id as usize % world.pool.len()];
            if depth < MAX_DEPTH {
                for child in 0..children {
                    let at = sim.now() + Nanos(u64::from(delta));
                    world.schedule(sim, at, child % 2 == 1, depth + 1);
                }
            }
            world.cancel(cancel);
        };
        if cancellable {
            let handle = sim.schedule_cancellable_at(at, fire);
            self.handles.borrow_mut().push(handle);
        } else {
            sim.schedule_at(at, fire);
        }
    }

    fn cancel(&self, k: u8) {
        let handles = self.handles.borrow();
        if !handles.is_empty() {
            handles[k as usize % handles.len()].cancel();
        }
    }
}

struct ModelEvent {
    at: u64,
    seq: u64,
    id: u32,
    depth: u8,
    cancelled: bool,
}

/// The reference: every pending event in a `Vec` kept sorted by
/// `(at, seq)`; cancellation marks the entry, which is skipped when it
/// reaches the head.
struct EventModel {
    pool: Vec<Behaviour>,
    now: u64,
    seq: u64,
    executed: u64,
    queue: Vec<ModelEvent>,
    /// Handle number -> id of the event it was issued for.
    handles: Vec<u32>,
    next_id: u32,
    log: Vec<Fired>,
}

impl EventModel {
    fn schedule(&mut self, at: u64, cancellable: bool, depth: u8) {
        let (id, seq) = (self.next_id, self.seq);
        self.next_id += 1;
        self.seq += 1;
        self.queue.push(ModelEvent {
            at,
            seq,
            id,
            depth,
            cancelled: false,
        });
        self.queue.sort_by_key(|e| (e.at, e.seq));
        if cancellable {
            self.handles.push(id);
        }
    }

    /// A handle whose event has fired or been skipped finds nothing.
    fn cancel(&mut self, k: u8) {
        if !self.handles.is_empty() {
            let id = self.handles[k as usize % self.handles.len()];
            if let Some(e) = self.queue.iter_mut().find(|e| e.id == id) {
                e.cancelled = true;
            }
        }
    }

    fn skip_cancelled_head(&mut self) {
        while self.queue.first().is_some_and(|e| e.cancelled) {
            self.queue.remove(0);
        }
    }

    fn fire_head(&mut self) {
        let e = self.queue.remove(0);
        self.now = e.at;
        self.executed += 1;
        self.log.push((e.id, self.now, self.queue.len()));
        let (children, delta, cancel) = self.pool[e.id as usize % self.pool.len()];
        if e.depth < MAX_DEPTH {
            for child in 0..children {
                self.schedule(self.now + u64::from(delta), child % 2 == 1, e.depth + 1);
            }
        }
        self.cancel(cancel);
    }

    fn step(&mut self) -> bool {
        self.skip_cancelled_head();
        if self.queue.is_empty() {
            return false;
        }
        self.fire_head();
        true
    }

    fn run_until(&mut self, deadline: u64) {
        loop {
            self.skip_cancelled_head();
            match self.queue.first() {
                Some(e) if e.at <= deadline => self.fire_head(),
                _ => break,
            }
        }
        self.now = self.now.max(deadline);
    }
}

/// Runs one event-order script, `(kind, delta, k)` per op, on the
/// simulator and on the sorted-`Vec` model, comparing firing order,
/// `now()`, `events_executed()` and `pending()` after every op and
/// inside every event. A schedule is `delta` ns on; a `run_until` is
/// `delta % until_span` ns on, so a small span lets the pending set
/// grow. Returns the most events pending at once.
fn event_order_case(
    ops: &[(u8, u16, u8)],
    pool: Vec<Behaviour>,
    until_span: u16,
) -> Result<usize, String> {
    let mut sim = Sim::new();
    let world = std::rc::Rc::new(EventWorld {
        pool: pool.clone(),
        next_id: Default::default(),
        handles: Default::default(),
        log: Default::default(),
    });
    let mut model = EventModel {
        pool,
        now: 0,
        seq: 0,
        executed: 0,
        queue: Vec::new(),
        handles: Vec::new(),
        next_id: 0,
        log: Vec::new(),
    };
    let mut peak = 0;
    for &(kind, delta, k) in ops {
        match kind {
            0..=2 => {
                let at = model.now + u64::from(delta);
                world.schedule(&mut sim, Nanos(at), kind == 2, 0);
                model.schedule(at, kind == 2, 0);
            }
            3 => {
                world.cancel(k);
                model.cancel(k);
            }
            4 => {
                prop_assert_eq!(sim.step(), model.step(), "step's verdict");
            }
            _ => {
                let at = model.now + u64::from(delta % until_span);
                sim.run_until(Nanos(at));
                model.run_until(at);
            }
        }
        prop_assert_eq!(&*world.log.borrow(), &model.log, "firing order");
        prop_assert_eq!(sim.now().as_nanos(), model.now);
        prop_assert_eq!(sim.events_executed(), model.executed);
        prop_assert_eq!(sim.pending(), model.queue.len());
        peak = peak.max(sim.pending());
    }
    sim.run();
    while model.step() {}
    prop_assert_eq!(
        &*world.log.borrow(),
        &model.log,
        "firing order of the drain"
    );
    prop_assert_eq!(sim.now().as_nanos(), model.now);
    prop_assert_eq!(sim.events_executed(), model.executed);
    prop_assert_eq!(sim.pending(), 0);
    prop_assert_eq!(sim.boxed_events(), 0);
    Ok(peak)
}

/// Engines in the lifecycle property's group; op targets above this
/// are ids the group never allocated.
const LIFECYCLE_ENGINES: u32 = 3;

/// What the lifecycle property believes about one engine.
#[derive(Default)]
struct EngineModel {
    suspended: bool,
    /// The engine's state is gone: nothing in the slot can be read.
    crashed: bool,
    stalled_until: Nanos,
    /// Items injected into the engine instance now in the slot.
    injected: u64,
}

fn counting(e: &mut dyn Engine) -> &mut CountingEngine {
    e.as_any()
        .downcast_mut::<CountingEngine>()
        .expect("the property only builds CountingEngines")
}

/// One observation per op: virtual time, the group's CPU books, and per
/// engine its cumulative CPU, its health flags and `processed` (while
/// there is an engine to ask).
type LifecycleObs = (u64, [u64; 3], Vec<(u64, bool, bool, Option<u64>)>);

/// Runs one script of lifecycle ops against a fresh group, checking the
/// ledger and liveness invariants after every op; returns the
/// observations so that two runs can be compared.
fn lifecycle_case(mode: u8, ops: &[(u8, u8, u8)]) -> Result<Vec<LifecycleObs>, String> {
    let mode = match mode {
        0 => SchedulingMode::Dedicated { cores: vec![0, 1] },
        1 => SchedulingMode::Spreading,
        _ => SchedulingMode::Compacting {
            slo: Nanos::from_micros(5),
            rebalance_poll: Nanos::from_micros(10),
            idle_block: Nanos::from_micros(100),
        },
    };
    let mut sim = Sim::new();
    let machine = std::rc::Rc::new(std::cell::RefCell::new(Machine::new(8, 1)));
    let g = GroupHandle::new(GroupConfig::new("lifecycle", mode), machine, CpuAccountant::new());
    for i in 0..LIFECYCLE_ENGINES {
        g.add_engine(Box::new(CountingEngine::new(format!("e{i}"), Nanos(700))));
    }
    g.start(&mut sim);
    let mut model: Vec<EngineModel> = (0..LIFECYCLE_ENGINES)
        .map(|_| EngineModel::default())
        .collect();
    let observe = |g: &GroupHandle,
                   model: &[EngineModel],
                   now: Nanos|
     -> Result<LifecycleObs, String> {
        let cpu = g.cpu(now);
        let per_core = g.core_cpu(now);
        let core_sum = per_core.iter().fold(Nanos::ZERO, |a, (_, c)| a + c.total());
        prop_assert_eq!(core_sum, cpu.total(), "per-core books must sum to the group's");
        let engine_cpu = g.engine_cpu();
        let engine_sum = engine_cpu.iter().fold(Nanos::ZERO, |a, (_, ns)| a + *ns);
        prop_assert_eq!(engine_sum, cpu.engine, "per-engine books must sum to GroupCpu::engine");
        prop_assert_eq!(engine_cpu.len(), model.len());
        let mut engines = Vec::new();
        for (i, m) in model.iter().enumerate() {
            let id = EngineId(i as u32);
            let health = g.engine_health(id).expect("allocated id");
            let flags = (health.suspended, health.crashed);
            prop_assert_eq!(flags, (m.suspended, m.crashed), "engine {i} flags");
            let reachable = g.try_with_engine(id, |_| ()).is_ok();
            prop_assert_eq!(reachable, !m.suspended && !m.crashed, "engine {i} try_with_engine");
            let processed = (!m.crashed).then(|| g.with_engine(id, |e| counting(e).processed));
            engines.push((engine_cpu[i].1.as_nanos(), m.suspended, m.crashed, processed));
        }
        let books = [cpu.engine.as_nanos(), cpu.spin.as_nanos(), cpu.wake_overhead.as_nanos()];
        Ok((now.as_nanos(), books, engines))
    };

    let mut trace = vec![observe(&g, &model, sim.now())?];
    for &(kind, target, arg) in ops {
        let id = EngineId(u32::from(target));
        let known = u32::from(target) < LIFECYCLE_ENGINES;
        let now = sim.now();
        match kind {
            0 if known => {
                let m = &mut model[target as usize];
                if !m.crashed {
                    let n = u64::from(arg % 8) + 1;
                    g.with_engine(id, |e| (0..n).for_each(|_| counting(e).inject(now)));
                    m.injected += n;
                }
                g.wake(&mut sim, id);
            }
            1 => {
                g.kill_engine(id);
                if let Some(m) = model.get_mut(target as usize) {
                    m.crashed = true;
                }
            }
            2 => {
                let duration = Nanos::from_micros(u64::from(arg) * 2);
                g.stall_engine(&mut sim, id, duration);
                if let Some(m) = model.get_mut(target as usize) {
                    m.stalled_until = m.stalled_until.max(now + duration);
                }
            }
            3 => {
                let factor = f64::from(arg % 4) * 0.75 + 0.5;
                g.slow_engine(id, factor);
            }
            4 if known => {
                g.suspend_engine(&mut sim, id);
                model[target as usize].suspended = true;
            }
            5 if known => {
                let mut fresh = CountingEngine::new(format!("e{target}-r"), Nanos(700));
                let n = u64::from(arg % 5);
                (0..n).for_each(|_| fresh.inject(now));
                g.resume_engine(&mut sim, id, Box::new(fresh));
                let m = &mut model[target as usize];
                (m.suspended, m.crashed) = (false, false);
                (m.stalled_until, m.injected) = (Nanos::ZERO, n);
            }
            6 => {
                let probed = g.try_with_engine(id, |e| counting(e).processed);
                let running = model
                    .get(target as usize)
                    .is_some_and(|m| !m.suspended && !m.crashed);
                match probed {
                    Ok(_) => prop_assert!(running, "engine {target} reached while stopped"),
                    Err(ControlError::Unavailable(_)) => {
                        prop_assert!(!running, "running engine {target} refused")
                    }
                    Err(e) => return Err(format!("engine {target}: {e:?}")),
                }
            }
            7 | 8 => {
                let until = now + Nanos::from_micros(u64::from(arg));
                sim.run_until(until);
                let before = trace.last().expect("seeded");
                let after = observe(&g, &model, sim.now())?;
                for (i, m) in model.iter().enumerate() {
                    if m.suspended || m.crashed || m.stalled_until > until {
                        prop_assert_eq!(&after.2[i], &before.2[i], "engine {i} ran while stopped");
                    }
                }
            }
            // Wake, suspend and resume take allocated ids only.
            _ => {}
        }
        trace.push(observe(&g, &model, sim.now())?);
    }

    // Every engine comes back, whatever state the script left it in,
    // and drains what its current instance was given.
    for (i, m) in model.iter_mut().enumerate() {
        let id = EngineId(i as u32);
        if m.suspended || m.crashed {
            let mut fresh = CountingEngine::new(format!("e{i}-final"), Nanos(700));
            fresh.inject(sim.now());
            g.resume_engine(&mut sim, id, Box::new(fresh));
            (m.suspended, m.crashed, m.injected) = (false, false, 1);
        } else {
            g.wake(&mut sim, id);
        }
    }
    g.stop();
    sim.run();
    let end = observe(&g, &model, sim.now())?;
    for (i, m) in model.iter().enumerate() {
        prop_assert_eq!(end.2[i].3, Some(m.injected), "engine {i} did not drain");
    }
    trace.push(end);
    Ok(trace)
}

proptest! {
    /// The SPSC ring behaves exactly like a bounded FIFO queue.
    #[test]
    fn spsc_ring_matches_model(
        capacity in 1usize..64,
        ops in proptest::collection::vec(proptest::option::of(0u64..1000), 1..200)
    ) {
        let (p, c) = SpscRing::with_capacity::<u64>(capacity);
        let real_cap = capacity.max(2).next_power_of_two();
        let mut model = std::collections::VecDeque::new();
        for op in ops {
            match op {
                Some(v) => {
                    let pushed = p.push(v).is_ok();
                    let model_pushed = model.len() < real_cap;
                    prop_assert_eq!(pushed, model_pushed, "push acceptance diverged");
                    if model_pushed {
                        model.push_back(v);
                    }
                }
                None => {
                    prop_assert_eq!(c.pop(), model.pop_front(), "pop diverged");
                }
            }
            prop_assert_eq!(c.len(), model.len());
        }
        // Drain: order fully preserved.
        while let Some(expected) = model.pop_front() {
            prop_assert_eq!(c.pop(), Some(expected));
        }
        prop_assert_eq!(c.pop(), None);
    }

    /// The buffer pool never double-allocates a slot and never loses
    /// one.
    #[test]
    fn buffer_pool_slots_are_exclusive(
        count in 1usize..32,
        ops in proptest::collection::vec(any::<bool>(), 1..200)
    ) {
        let pool = BufferPool::new(count, 16, &MemoryAccountant::new(), "prop");
        let mut held = Vec::new();
        for alloc in ops {
            if alloc {
                if let Some(buf) = pool.alloc() {
                    prop_assert!(
                        held.iter().all(|b: &snap_repro::shm::pool::PooledBuf| b.index() != buf.index()),
                        "slot {} handed out twice", buf.index()
                    );
                    held.push(buf);
                }
            } else {
                held.pop();
            }
            prop_assert_eq!(held.len() + pool.available(), count);
        }
    }

    /// CRC32C streaming equals one-shot for every split point.
    #[test]
    fn crc32c_append_equals_whole(data in proptest::collection::vec(any::<u8>(), 0..300)) {
        let whole = crc32c(&data);
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            prop_assert_eq!(crc32c_append(crc32c(a), b), whole);
        }
    }

    /// Wire packets decode back to themselves for arbitrary field
    /// values.
    #[test]
    fn wire_roundtrip(
        flow in any::<u64>(),
        seq in any::<u64>(),
        cum in any::<u64>(),
        conn in any::<u64>(),
        stream in any::<u32>(),
        msg in any::<u64>(),
        offset in any::<u64>(),
        total in any::<u64>(),
        len in any::<u32>(),
        sacks in proptest::collection::vec(any::<u64>(), 0..16),
        trace in proptest::option::of((any::<u64>(), any::<u32>(), any::<bool>())),
    ) {
        // Trace contexts ride the v6 header; v5 has no field for them.
        let trace = trace.map(|(trace_id, parent_span, sampled)| {
            snap_repro::sim::trace::TraceContext { trace_id, parent_span, sampled }
        });
        let pkt = PonyPacket {
            version: if trace.is_some() { 6 } else { 5 },
            flow,
            seq,
            cum_ack: cum,
            sacks,
            trace,
            frame: OpFrame::MsgChunk { conn, stream, msg, offset, total, len },
        };
        prop_assert_eq!(PonyPacket::decode(&pkt.encode()).unwrap(), pkt);
    }

    /// Decoding arbitrary garbage never panics.
    #[test]
    fn wire_decode_never_panics(garbage in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = PonyPacket::decode(&garbage);
    }

    /// The codec reader rejects or exactly reproduces; never panics.
    #[test]
    fn codec_roundtrip(vals in proptest::collection::vec(any::<u64>(), 0..50)) {
        let mut w = Writer::new();
        for v in &vals {
            w.u64(*v);
        }
        let buf = w.finish();
        let mut r = Reader::new(&buf);
        for v in &vals {
            prop_assert_eq!(r.u64().unwrap(), *v);
        }
        prop_assert!(r.is_exhausted());
    }

    /// Reliable-flow invariant: under ANY pattern of packet loss and
    /// reordering, every enqueued frame is delivered to the receiver's
    /// upper layer at least once and duplicates are bounded by the
    /// retransmission count.
    #[test]
    fn flow_delivers_everything_under_loss(
        nframes in 1usize..30,
        drop_pattern in proptest::collection::vec(any::<bool>(), 0..200),
    ) {
        let mut tx = Flow::new(1, 5, TimelyConfig::default());
        let mut rx = Flow::new(1, 5, TimelyConfig::default());
        for i in 0..nframes {
            tx.enqueue(
                OpFrame::MsgChunk {
                    conn: 1,
                    stream: 0,
                    msg: i as u64,
                    offset: 0,
                    total: 10,
                    len: 10,
                },
                Nanos::ZERO,
            );
        }
        let mut delivered = std::collections::HashSet::new();
        let mut drops = drop_pattern.into_iter();
        let mut now = Nanos::ZERO;
        // Drive for bounded virtual time: produce, maybe drop, deliver,
        // ack back, check RTOs.
        for _round in 0..2000 {
            now += Nanos::from_micros(50);
            while let Some(pkt) = tx.produce(now) {
                let dropped = drops.next().unwrap_or(false);
                if dropped {
                    continue;
                }
                if let Accept::Deliver(OpFrame::MsgChunk { msg, .. }) = rx.on_packet(&pkt, now) {
                    delivered.insert(msg);
                }
            }
            // Receiver acks (acks can also be dropped).
            while let Some(ack) = rx.produce(now) {
                if drops.next().unwrap_or(false) {
                    continue;
                }
                tx.on_packet(&ack, now);
            }
            tx.check_rto(now);
            if delivered.len() == nframes && tx.inflight() == 0 && tx.pending_tx() == 0 {
                break;
            }
        }
        prop_assert_eq!(delivered.len(), nframes, "not all frames delivered");
    }

    /// Timely's rate stays within its configured bounds for any RTT
    /// sample sequence.
    #[test]
    fn timely_rate_bounded(rtts in proptest::collection::vec(1_000u64..10_000_000, 1..200)) {
        let cfg = TimelyConfig::default();
        let (min, max) = (cfg.min_rate, cfg.max_rate);
        let mut t = Timely::new(cfg);
        for rtt in rtts {
            t.on_rtt_sample(Nanos(rtt));
            prop_assert!(t.rate() >= min && t.rate() <= max);
        }
    }

    /// Histogram quantiles are monotone and bracketed by min/max for
    /// arbitrary data.
    #[test]
    fn histogram_quantiles_sane(values in proptest::collection::vec(any::<u32>(), 1..300)) {
        let mut h = Histogram::new();
        for v in &values {
            h.record(*v as u64);
        }
        let mut last = 0u64;
        for i in 0..=20 {
            let q = h.quantile(i as f64 / 20.0);
            prop_assert!(q >= last, "quantile not monotone");
            prop_assert!(q >= h.min() && q <= h.max());
            last = q;
        }
        prop_assert_eq!(h.count(), values.len() as u64);
    }

    /// Flow upgrade serialization round-trips: a restored flow
    /// retransmits everything unacked and continues the sequence space
    /// without collision.
    #[test]
    fn flow_snapshot_roundtrip(
        nsend in 0usize..20,
        nproduce in 0usize..20,
    ) {
        let mut f = Flow::new(9, 4, TimelyConfig::default());
        for i in 0..nsend {
            f.enqueue(
                OpFrame::MsgChunk {
                    conn: 2,
                    stream: 1,
                    msg: i as u64,
                    offset: 0,
                    total: 5,
                    len: 5,
                },
                Nanos::ZERO,
            );
        }
        let mut produced = 0;
        let mut t = Nanos::ZERO;
        for _ in 0..nproduce.min(nsend) {
            t += Nanos::from_millis(1);
            if f.produce(t).is_some() {
                produced += 1;
            }
        }
        let restored = Flow::deserialize(&f.serialize(), TimelyConfig::default(), t).expect("well-formed snapshot restores");
        // Everything unacked (all produced) + queued is pending again.
        prop_assert_eq!(restored.pending_tx(), nsend);
        prop_assert_eq!(restored.id, 9);
        prop_assert_eq!(restored.version, 4);
        let _ = produced;
    }

    /// Quota invariant: under arbitrary interleavings of charges,
    /// releases, policy resizes and pressure squeezes across several
    /// containers, an admitted charge NEVER pushes usage past the
    /// container's effective hard limit at that moment, the
    /// controller's usage always matches an exact model, and matched
    /// charge/release traffic never trips the accounting-error counter.
    #[test]
    fn admission_never_exceeds_quota(
        ops in proptest::collection::vec(
            (0u8..4, 0usize..3, 1u64..100_000, 0u64..100),
            1..300
        )
    ) {
        let adm = AdmissionController::new(
            snap_repro::shm::account::MemoryAccountant::new(),
            CpuAccountant::new(),
        );
        let names = ["a", "b", "c"];
        // Model state per container: usage, (soft, hard), squeeze.
        let mut usage = [0u64; 3];
        let mut policy = [(u64::MAX, u64::MAX); 3];
        let mut squeeze = [0.0f64; 3];
        // Mirror of the crate's `effective` clamp.
        let eff = |limit: u64, sq: f64| -> u64 {
            if limit == u64::MAX || sq <= 0.0 {
                limit
            } else {
                (limit as f64 * (1.0 - sq.clamp(0.0, 1.0))) as u64
            }
        };
        for (kind, c, bytes, pct) in ops {
            let name = names[c];
            match kind {
                0 => {
                    let admitted = adm.try_charge(name, bytes).is_ok();
                    let hard = eff(policy[c].1, squeeze[c]);
                    if admitted {
                        usage[c] += bytes;
                        prop_assert!(
                            usage[c] <= hard,
                            "admitted past the effective hard limit: {} > {}",
                            usage[c],
                            hard
                        );
                    } else {
                        // A refusal must have been justified.
                        prop_assert!(
                            usage[c].checked_add(bytes).map(|n| n > hard).unwrap_or(true),
                            "refused a charge that fit: {} + {} <= {}",
                            usage[c],
                            bytes,
                            hard
                        );
                    }
                }
                1 => {
                    // Only release what the model knows was charged, so
                    // the accountant never sees an unmatched release.
                    let r = bytes.min(usage[c]);
                    if r > 0 {
                        adm.release(name, r);
                        usage[c] -= r;
                    }
                }
                2 => {
                    let hard = bytes.saturating_mul(2);
                    adm.set_policy(name, QuotaPolicy::with_mem(bytes, hard)).unwrap();
                    policy[c] = (bytes, hard);
                }
                _ => {
                    let f = pct as f64 / 100.0;
                    adm.apply_pressure(name, f);
                    squeeze[c] = f.clamp(0.0, 1.0);
                }
            }
            prop_assert_eq!(adm.usage(name), usage[c], "usage diverged from model");
        }
        prop_assert_eq!(adm.accounting_errors(), 0);
    }

    /// The event store fires in exactly `(at, seq)` order: random
    /// scripts of plain and cancellable scheduling, cancels (of live,
    /// fired and already-cancelled events), `step`, `run_until` and
    /// scheduling from inside events, with delays of 0-3 ns so most
    /// events tie with others, against a sorted `Vec`. Firing order,
    /// `now()`, `events_executed()` and `pending()` agree after every
    /// op and inside every event.
    #[test]
    fn event_order_matches_sorted_vec_model(
        ops in proptest::collection::vec((0u8..7, 0u16..4, any::<u8>()), 1..120),
        pool in proptest::collection::vec((0u8..4, 0u16..3, any::<u8>()), 1..12)
    ) {
        event_order_case(&ops, pool, 4)?;
    }

    /// The same property over a deep heap: 500-700 ops with delays of
    /// 0-1 000 ns, while each `run_until` moves the clock 0-7 ns, so
    /// the pending set grows to hundreds of keys (a median peak of 265
    /// over 1 000 cases, where the scripts above peak at 10) and the
    /// heap's walk meets every shape of partial last group at several
    /// depths.
    #[test]
    fn event_order_matches_sorted_vec_model_deep(
        ops in proptest::collection::vec((0u8..7, 0u16..1001, any::<u8>()), 500..700),
        pool in proptest::collection::vec((0u8..4, 0u16..1001, any::<u8>()), 1..12)
    ) {
        let peak = event_order_case(&ops, pool, 8)?;
        prop_assert!(peak >= 64, "the script stayed shallow: {peak} keys at most");
    }

    /// The engine lifecycle under random operator, fault-plan and
    /// supervisor moves, in all three scheduling modes: nothing
    /// panics, the CPU books agree after every op (per-core and
    /// per-engine both sum to the group's), an engine that is
    /// suspended, crashed or stalled neither runs nor is charged,
    /// control work reaches an engine exactly when it is allocated and
    /// running, ids the group never allocated are absorbed, every engine
    /// can be revived and then drains, and the same script gives the
    /// same observations twice.
    #[test]
    fn engine_lifecycle_keeps_books_and_liveness(
        mode in 0u8..3,
        ops in proptest::collection::vec((0u8..9, 0u8..5, any::<u8>()), 1..80)
    ) {
        let first = lifecycle_case(mode, &ops)?;
        prop_assert_eq!(first, lifecycle_case(mode, &ops)?, "rerun diverged");
    }
}
