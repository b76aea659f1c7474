//! The Pony Express engine (§3.1).
//!
//! "A Pony Express engine services incoming packets, interacts with
//! applications, runs state machines to advance messaging and one-sided
//! operations, and generates outgoing packets. ... This just-in-time
//! generation of packets based on slot availability ensures we generate
//! packets only when the NIC can transmit them."
//!
//! The engine implements [`snap_core::Engine`]: a bounded pass polls
//! the NIC rx ring (default 16-packet batch), polls application command
//! queues, advances op state machines, and produces packets while NIC
//! tx slots and Timely pacing allow. All state lives inside the engine
//! (single-threaded, no locks); control reaches it between passes
//! through `GroupHandle::try_with_engine`; applications reach it
//! through shared-memory queue pairs.
//!
//! The pass is [`Engine::run`], below; each of its steps lives in the
//! file of the seam it belongs to:
//!
//! * this file — configuration, counters, the state records, the pass,
//!   the ready sets with their full-scan invariant, the timer;
//! * `command` — application commands: hedge dedup, the pressure gate,
//!   send admission (memory quota, then flow control), one-sided
//!   initiation, and the one routine that concludes an op;
//! * `tx` — the send scheduler, just-in-time packet generation, and
//!   what an acknowledgement completes;
//! * `rx` — the rx poll, frame handling, in-order message delivery and
//!   one-sided service against local regions;
//! * `checkpoint` — [`Engine::serialize_state`] and
//!   [`PonyEngine::restore`]: each record's `write` beside its `read`,
//!   and the one place that rebuilds what a checkpoint does not store.
//!
//! Upgrade support: the checkpoint holds connections, flows (including
//! queued and unacked frames), send/recv message state and pending
//! one-sided ops in the codec format; [`PonyEngine::restore`] rebuilds a
//! new-version engine from it plus the re-injected runtime handles
//! (fabric, regions, session table) — mirroring how the real Snap
//! transfers fds and shared memory in brownout and state in blackout
//! (§4).

mod checkpoint;
mod command;
mod rx;
mod tx;

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use snap_core::engine::{Engine, EngineId, RunReport};
use snap_core::group::WeakGroupHandle;
use snap_isolation::AdmissionController;
use snap_nic::fabric::FabricHandle;
use snap_nic::packet::{HostId, Packet};
use snap_shm::queue_pair::EngineEndpoint;
use snap_shm::region::RegionRegistry;
use snap_sim::codec::Writer;
use snap_sim::costs;
use snap_sim::hash::IntMap;
use snap_sim::trace::{Stage, TraceContext, TraceRecorder};
use snap_sim::{Nanos, Sim};

use crate::client::{PonyCommandTuple, PonyCompletion};
use crate::flow::{AckedChunk, Flow, FlowMapper};
use crate::timely::TimelyConfig;
use crate::wire::OpFrame;

/// Messages at or below this size use the shared credit pool instead of
/// posted buffers (§3.3).
pub const SMALL_MSG_BYTES: u64 = 4096;

/// Initial small-message credits per connection.
pub const INITIAL_CREDITS: u32 = 64;

/// Shared table of application sessions (command/completion queue
/// endpoints). Lives outside the engine so transparent upgrades can
/// hand the same sessions to the successor engine — the analogue of
/// transferring fds over the control channel during brownout.
pub type SessionTable = Rc<RefCell<SessionMap>>;

type SessionMap = IntMap<u64, EngineEndpoint<PonyCommandTuple, PonyCompletion>>;

/// Static engine configuration.
#[derive(Debug, Clone)]
pub struct PonyEngineConfig {
    /// Engine name.
    pub name: String,
    /// Host this engine runs on.
    pub host: HostId,
    /// Unique engine key: NIC receive filters steer on it.
    pub engine_key: u64,
    /// The NIC rx/tx queue this engine owns: the one its module
    /// claimed for it.
    pub queue: u16,
    /// MTU for chunking messages.
    pub mtu: u32,
    /// NIC rx polling batch (§3.1 default: 16).
    pub poll_batch: usize,
    /// Offload receive copies to the I/OAT engine (Table 1).
    pub use_ioat: bool,
    /// Congestion-control parameters.
    pub cc: TimelyConfig,
    /// Application container charged for this engine's CPU.
    pub container: String,
}

impl PonyEngineConfig {
    /// A reasonable default configuration for `host`/`engine_key`.
    pub fn new(name: impl Into<String>, host: HostId, engine_key: u64) -> Self {
        PonyEngineConfig {
            name: name.into(),
            host,
            engine_key,
            queue: 0,
            mtu: costs::PONY_DEFAULT_MTU,
            poll_batch: costs::DEFAULT_POLL_BATCH,
            use_ioat: false,
            cc: TimelyConfig::default(),
            container: "pony".to_string(),
        }
    }

    /// The low half of the engine key: what [`FlowMapper`] puts in the
    /// high 32 bits of every flow id this engine allocates.
    fn uid(&self) -> u32 {
        (self.engine_key & 0xFFFF_FFFF) as u32
    }
}

snap_sim::counter_table! {
    /// Engine counters, published as `engine.<label>.<name>`.
    #[derive(Debug, Clone, Default)]
    pub struct PonyStats {
        /// Packets received and processed.
        pub rx_packets: u64,
        /// Packets transmitted (incl. retransmits and acks).
        pub tx_packets: u64,
        /// Application commands admitted.
        pub commands: u64,
        /// One-sided operations served for remote initiators.
        pub onesided_served: u64,
        /// Two-sided messages fully delivered to local applications.
        pub msgs_delivered: u64,
        /// Operations completed for local initiators.
        pub ops_completed: u64,
        /// Completions dropped because a session queue was full or gone.
        pub completions_dropped: u64,
        /// Best-effort ops shed under Soft/Hard memory pressure (§2.5).
        pub ops_shed: u64,
        /// Transport-class ops refused with `Busy` under Hard pressure or a
        /// denied per-send quota charge (back-pressure, never silent drop).
        pub busy_rejected: u64,
        /// Hedge duplicates recognized by the per-session op watermark and
        /// absorbed without re-execution (exactly-once).
        pub hedge_dups: u64,
        /// Early retransmits triggered by hedge duplicates (the hedge's
        /// actual recovery action on the wire).
        pub hedge_retransmits: u64,
        /// Retransmissions, summed over this engine's flows.
        pub retransmits: u64,
        /// Duplicate packets suppressed, summed over this engine's flows.
        pub duplicates: u64,
    }
}

/// Adds `id` to an ascending, duplicate-free list — a ready set, or
/// the chunk offsets of one message (which mostly arrive in order, so
/// the common insert is a push). Returns whether `id` was absent.
fn insert_sorted(set: &mut Vec<u64>, id: u64) -> bool {
    if set.last().is_none_or(|&last| last < id) {
        set.push(id);
        return true;
    }
    match set.binary_search(&id) {
        Ok(_) => false,
        Err(at) => {
            set.insert(at, id);
            true
        }
    }
}

/// [`PonyEngine::stamp`] over the two fields it reads, for callers that
/// hold another part of the engine borrowed.
fn stamp_on(
    recorder: Option<&TraceRecorder>,
    host: HostId,
    trace: Option<TraceContext>,
    stage: Stage,
    at: Nanos,
) {
    if let (Some(ctx), Some(rec)) = (trace, recorder) {
        rec.record(ctx, stage, host, at);
    }
}

/// A flow and the peer it leads to.
struct PeerFlow {
    flow: Flow,
    remote_host: HostId,
    /// The peer's engine key: what its NIC steers this flow's packets by.
    remote_engine: u64,
}

struct ConnState {
    id: u64,
    flow: u64,
    remote_host: HostId,
    remote_engine: u64,
    /// Local session receiving completions for this connection.
    session: Option<u64>,
    /// Our view of the peer's posted receive buffers (large messages).
    remote_posted: u32,
    /// Buffers the local app has posted.
    local_posted: u32,
    /// Small-message credits available to us as a sender.
    small_credits: u32,
    /// Sends held back by flow control: (op, stream, len, trace).
    /// Trace contexts are in-memory only — they do not survive
    /// checkpoint/restore (a restored op's trace is simply dropped).
    held: VecDeque<(u64, u32, u64, Option<TraceContext>)>,
    /// Streams with admitted sends outstanding, serviced round-robin
    /// so streams do not head-of-line block each other (§3.3).
    stream_queue: VecDeque<u32>,
    /// Per-stream FIFO of admitted message ids (messages within one
    /// stream are ordered, so they proceed strictly in order).
    per_stream: IntMap<u32, VecDeque<u64>>,
    /// Next message id per stream (sender side).
    next_msg: IntMap<u32, u64>,
    /// Next message to deliver per stream (receiver side, in-order).
    next_deliver: IntMap<u32, u64>,
    /// Completed but not yet deliverable messages: (stream, msg) -> len.
    ready: IntMap<(u32, u64), u64>,
}

/// A local application's op on its way through the engine: its id, the
/// session its completion goes to, and the causal trace context stamped
/// onto its packets and finalized when it concludes. The context is
/// in-memory only (a restored op continues untraced).
#[derive(Clone, Copy)]
struct Op {
    id: u64,
    session: Option<u64>,
    trace: Option<TraceContext>,
}

struct SendMsg {
    op: Op,
    total: u64,
    chunks: u32,
    /// Offsets of the chunks the peer has acknowledged, ascending. The
    /// send is done when there are `chunks` of them. Keyed by offset,
    /// not by seq: a chunk re-queued across an upgrade goes out again
    /// under a new seq, and both copies may be acked.
    acked_offsets: Vec<u64>,
    issued_at: Nanos,
    /// Next chunk offset to enqueue; the send scheduler advances this
    /// one chunk at a time, interleaving streams.
    next_offset: u64,
}

struct RecvMsg {
    total: u64,
    received: u64,
    /// Offsets of the chunks received, ascending; a retransmitted chunk
    /// whose first copy arrived is recognised by its offset.
    offsets: Vec<u64>,
}

/// The checkpoint's op-kind byte. Nothing constructs `Send` (a
/// two-sided send is a `SendMsg`, not a pending op); the value stays
/// reserved because kind bytes are on disk.
#[derive(Clone, Copy, Debug, PartialEq)]
#[repr(u8)]
enum OpKind {
    Send = 0,
    Read = 1,
    Write = 2,
    IndirectRead = 3,
    ScanRead = 4,
}

/// A one-sided op awaiting its response, keyed by op id.
struct PendingOp {
    op: Op,
    kind: OpKind,
    conn: u64,
    issued_at: Nanos,
}

/// The Pony Express engine.
pub struct PonyEngine {
    cfg: PonyEngineConfig,
    fabric: FabricHandle,
    regions: RegionRegistry,
    sessions: SessionTable,
    mapper: FlowMapper,
    flows: IntMap<u64, PeerFlow>,
    conns: IntMap<u64, ConnState>,
    /// The ready sets, ascending by id: flows for which
    /// [`Flow::is_active`] holds and connections whose `stream_queue`
    /// is non-empty. Every per-pass walk (RTO checks, send scheduler,
    /// packet generation, deadlines, pending work) covers these instead
    /// of `flows`/`conns`: an id outside them is inert in all of those
    /// walks, so a pass costs what the ready work costs however many
    /// idle peers the engine has. Ids are added where the state changes
    /// (`insert_sorted`) and pruned at the end of the pass; between those
    /// points each set is a superset of the truth, and after the prune
    /// it is exact (checked against a full scan in debug builds).
    ready_flows: Vec<u64>,
    ready_conns: Vec<u64>,
    send_msgs: IntMap<(u64, u32, u64), SendMsg>,
    recv_msgs: IntMap<(u64, u32, u64), RecvMsg>,
    pending_ops: IntMap<u64, PendingOp>,
    /// Sessions bootstrapped against THIS engine; the shared table may
    /// hold other engines' sessions too.
    owned_sessions: Vec<u64>,
    /// Highest op id seen per session. Client op ids are strictly
    /// increasing over the (FIFO) command queue, so a non-fresh id can
    /// only be a hedge resubmit: it is absorbed without re-execution,
    /// preserving exactly-once under hedging. Checkpointed so the
    /// guarantee survives a restart with hedges still in flight.
    session_watermarks: IntMap<u64, u64>,
    stats: PonyStats,
    /// Whom a self-armed timer (pacing/RTO) wakes: this engine's group
    /// and its id there; set by the module after registration.
    wake: Option<(WeakGroupHandle, EngineId)>,
    timer: Option<(Nanos, snap_sim::EventHandle)>,
    /// Admission controller enforcing this container's memory quota on
    /// the datapath; `None` keeps the quota-free fast path.
    admission: Option<AdmissionController>,
    /// Bytes currently charged to the admission controller for
    /// in-flight sends (held + chunking + unacked). Released as sends
    /// complete, and wholesale on drop (crash/kill path).
    charged_bytes: u64,
    /// Trace recorder for causal op tracing; shared with clients and
    /// the fabric. Observation-only — never affects engine behavior.
    recorder: Option<TraceRecorder>,
    /// Trace contexts of one-sided responses awaiting transmission:
    /// op id -> the request's context, consumed when the response
    /// packet is first generated (a retransmitted response travels
    /// untraced, which only truncates that op's span tree).
    resp_traces: IntMap<u64, TraceContext>,
    rx_buf: Vec<Packet>,
    cmd_buf: Vec<PonyCommandTuple>,
    /// Chunks acknowledged by the packet being received: filled by the
    /// flow, drained by `process_acked`, capacity kept.
    acked_buf: Vec<AckedChunk>,
    /// Reusable wire-encode scratch: frames encode into this buffer
    /// (capacity persists across packets) and CRC32C is computed over
    /// it before the payload is materialized, so the tx path does no
    /// growth reallocations and no second CRC scan per frame.
    tx_scratch: Writer,
    /// Reusable tx staging for burst transmission.
    tx_batch: Vec<Packet>,
}

impl PonyEngine {
    /// Creates an engine and attaches its NIC receive filter.
    pub fn new(
        cfg: PonyEngineConfig,
        fabric: FabricHandle,
        regions: RegionRegistry,
        sessions: SessionTable,
    ) -> Self {
        fabric.with_nic(cfg.host, |nic| nic.attach_filter(cfg.engine_key, cfg.queue));
        PonyEngine {
            mapper: FlowMapper::new(cfg.uid()),
            cfg,
            fabric,
            regions,
            sessions,
            flows: IntMap::default(),
            conns: IntMap::default(),
            ready_flows: Vec::new(),
            ready_conns: Vec::new(),
            send_msgs: IntMap::default(),
            recv_msgs: IntMap::default(),
            pending_ops: IntMap::default(),
            owned_sessions: Vec::new(),
            session_watermarks: IntMap::default(),
            stats: PonyStats::default(),
            wake: None,
            timer: None,
            admission: None,
            charged_bytes: 0,
            recorder: None,
            resp_traces: IntMap::default(),
            rx_buf: Vec::new(),
            cmd_buf: Vec::new(),
            acked_buf: Vec::new(),
            tx_scratch: Writer::new(),
            tx_batch: Vec::new(),
        }
    }

    /// Tells the engine whom its pacing/RTO timers wake: itself, as
    /// engine `id` of `group`. A timer event is never inside a pass, so
    /// it calls [`GroupHandle::wake`](snap_core::group::GroupHandle::wake)
    /// itself instead of deferring through
    /// [`GroupHandle::wake_handle`](snap_core::group::GroupHandle::wake_handle).
    pub fn set_wake(&mut self, group: WeakGroupHandle, id: EngineId) {
        self.wake = Some((group, id));
    }

    /// Installs the trace recorder this engine stamps stage records
    /// into (engine dequeue, op execution, retransmits, shed/busy
    /// refusals) and finalizes completed ops against.
    pub fn set_recorder(&mut self, recorder: TraceRecorder) {
        self.recorder = Some(recorder);
    }

    /// Stamps one stage record, if the op is traced and a recorder is
    /// installed. Pure observation.
    fn stamp(&self, trace: Option<TraceContext>, stage: Stage, at: Nanos) {
        stamp_on(self.recorder.as_ref(), self.cfg.host, trace, stage, at);
    }

    /// Finalizes a traced op: appends the Complete record and assembles
    /// the span tree. No-op for untraced ops.
    fn finish_trace(&self, trace: Option<TraceContext>, now: Nanos) {
        if let (Some(ctx), Some(rec)) = (trace, self.recorder.as_ref()) {
            rec.finalize(ctx, now, self.cfg.host);
        }
    }

    /// Claims a session: this engine will poll its command queue.
    pub fn add_session(&mut self, sid: u64) {
        if !self.owned_sessions.contains(&sid) {
            self.owned_sessions.push(sid);
        }
    }

    /// Engine counters.
    pub fn stats(&self) -> &PonyStats {
        &self.stats
    }

    /// Sessions this engine owns (polls). A shared engine owns every
    /// session bootstrapped against it; the shared [`SessionTable`] may
    /// hold other engines' sessions too.
    pub fn owned_sessions(&self) -> &[u64] {
        &self.owned_sessions
    }

    /// `(session id, commands waiting)` per owned session: the SPSC
    /// consumer length, sampled without draining. Other engines'
    /// sessions live in the same table but are not ours to count.
    fn depths<'a>(&'a self, table: &'a SessionMap) -> impl Iterator<Item = (u64, usize)> + 'a {
        self.owned_sessions
            .iter()
            .map(|sid| (*sid, table.get(sid).map_or(0, |ep| ep.commands_pending())))
    }

    /// Pending command-queue depth per owned session — the telemetry
    /// queue-depth gauge source.
    pub fn session_depths(&self) -> Vec<(u64, usize)> {
        self.depths(&self.sessions.borrow()).collect()
    }

    /// Commands waiting over all owned sessions.
    fn queued_commands(&self) -> usize {
        self.depths(&self.sessions.borrow()).map(|(_, n)| n).sum()
    }

    /// The flow with the most RTT samples; ties go to the lowest flow
    /// id, so the pick does not depend on hash order.
    fn most_active_flow(&self) -> Option<&Flow> {
        self.flows
            .values()
            .map(|p| &p.flow)
            .max_by_key(|f| (f.cc().samples, std::cmp::Reverse(f.id)))
    }

    /// Debug: (the most active flow's Timely rate B/s, RTT samples over
    /// all flows, packets in flight over all flows).
    pub fn debug_flow_info(&self) -> (f64, u64, usize) {
        let rate = self.most_active_flow().map_or(0.0, |f| f.cc().rate());
        let samples = self.flows.values().map(|p| p.flow.cc().samples).sum();
        let infl = self.flows.values().map(|p| p.flow.inflight()).sum();
        (rate, samples, infl)
    }

    /// Debug: (sent, retransmits, delivered, duplicates) of the most
    /// active flow. [`PonyStats`] carries `retransmits` and
    /// `duplicates` summed over all flows.
    pub fn debug_flow_stats(&self) -> (u64, u64, u64, u64) {
        self.most_active_flow()
            .map(|f| {
                let s = f.stats();
                (s.sent, s.retransmits, s.delivered, s.duplicates)
            })
            .unwrap_or((0, 0, 0, 0))
    }

    /// Establishes a connection created by the control plane (the Pony
    /// module calls this through `GroupHandle::try_with_engine` on both
    /// endpoints).
    pub fn establish_conn(
        &mut self,
        conn: u64,
        remote_host: HostId,
        remote_engine: u64,
        version: u16,
        session: Option<u64>,
    ) {
        let (flow, fresh) = self.mapper.flow_for(remote_host, remote_engine);
        if fresh {
            self.flows.insert(
                flow,
                PeerFlow {
                    flow: Flow::new(flow, version, self.cfg.cc.clone()),
                    remote_host,
                    remote_engine,
                },
            );
        }
        let state = ConnState::new(conn, flow, remote_host, remote_engine, session);
        self.conns.insert(conn, state);
    }

    /// Queues `frame` on a flow and marks the flow ready.
    fn enqueue(&mut self, flow_id: u64, frame: OpFrame, now: Nanos) {
        self.flows
            .get_mut(&flow_id)
            .expect("a connection's or a request's flow exists")
            .flow
            .enqueue(frame, now);
        insert_sorted(&mut self.ready_flows, flow_id);
    }

    /// Closes a pass: prunes the ready sets back to exactly the active
    /// flows and the connections with streams to schedule, and in the
    /// same walk finds the earliest pacing/RTO deadline and the frames
    /// that could leave right now. Returns `(deadline, sendable)`.
    fn settle_ready(&mut self, now: Nanos) -> (Option<Nanos>, usize) {
        let conns = &self.conns;
        self.ready_conns
            .retain(|id| conns.get(id).is_some_and(|c| !c.stream_queue.is_empty()));
        let flows = &self.flows;
        let mut earliest: Option<Nanos> = None;
        let mut sendable = 0;
        self.ready_flows.retain(|fid| {
            let Some(flow) = flows.get(fid).map(|p| &p.flow).filter(|f| f.is_active()) else {
                return false;
            };
            let pacing = flow.next_pacing_deadline(now);
            if pacing.is_some_and(|d| d <= now) {
                sendable += flow.pending_tx();
            }
            for d in pacing.into_iter().chain(flow.next_rto_deadline()) {
                earliest = Some(earliest.map_or(d, |e| e.min(d)));
            }
            true
        });
        debug_assert!(self.ready_sets_match_full_scan());
        (earliest, sendable)
    }

    /// The ready sets the slow way, by scanning every flow and
    /// connection: `(flows, conns)`, ascending.
    fn scan_ready(&self) -> (Vec<u64>, Vec<u64>) {
        let mut flows: Vec<u64> = self
            .flows
            .values()
            .filter(|p| p.flow.is_active())
            .map(|p| p.flow.id)
            .collect();
        flows.sort_unstable();
        let mut conns: Vec<u64> = self
            .conns
            .values()
            .filter(|c| !c.stream_queue.is_empty())
            .map(|c| c.id)
            .collect();
        conns.sort_unstable();
        (flows, conns)
    }

    /// The invariant behind the pass, checked the slow way: after the
    /// end-of-pass prune the ready sets hold exactly the ids a full
    /// scan picks, every flow's O(1) RTO deadline equals the minimum
    /// over its in-flight packets, and the per-flow counters summed
    /// into [`PonyStats`] equal the sums over flows.
    fn ready_sets_match_full_scan(&self) -> bool {
        let (flows, conns) = self.scan_ready();
        let (mut retransmits, mut duplicates) = (0, 0);
        for p in self.flows.values() {
            retransmits += p.flow.stats().retransmits;
            duplicates += p.flow.stats().duplicates;
        }
        flows == self.ready_flows
            && conns == self.ready_conns
            && self
                .flows
                .values()
                .all(|p| p.flow.next_rto_deadline() == p.flow.rto_deadline_by_scan())
            && retransmits == self.stats.retransmits
            && duplicates == self.stats.duplicates
    }

    /// Arms a timer at `deadline`, the earliest pacing/RTO deadline
    /// across flows, unless an earlier-or-equal one is already armed.
    fn arm_timer(&mut self, sim: &mut Sim, deadline: Option<Nanos>) {
        let now = sim.now();
        let Some(deadline) = deadline else { return };
        let deadline = deadline.max(now + Nanos(1));
        if let Some((at, handle)) = &self.timer {
            if *at <= deadline {
                return; // an earlier-or-equal timer is already armed
            }
            handle.cancel();
        }
        let Some((group, id)) = self.wake.clone() else {
            return;
        };
        let handle = sim.schedule_cancellable_at(deadline, move |sim| group.wake(sim, id));
        self.timer = Some((deadline, handle));
    }
}

impl Drop for PonyEngine {
    /// Crash/kill path: the supervisor drops the engine box, and every
    /// byte this engine had charged is returned to its container so a
    /// crashed engine cannot leak quota (the restarted engine
    /// re-charges its restored in-flight state via `set_admission`).
    fn drop(&mut self) {
        if let Some(adm) = &self.admission {
            adm.release(&self.cfg.container, self.charged_bytes);
        }
    }
}

impl Engine for PonyEngine {
    fn name(&self) -> &str {
        &self.cfg.name
    }

    fn run(&mut self, sim: &mut Sim) -> RunReport {
        let now = sim.now();
        if self.timer.as_ref().is_some_and(|(at, _)| *at <= now) {
            self.timer = None;
        }

        // 1. Poll NIC rx (bounded batch, §3.1).
        let (rx_cpu, received) = self.poll_rx(now);

        // 2. Poll this engine's application command queues (bounded
        // batch).
        let (cmd_cpu, commands) = self.poll_commands(now);

        // 3. RTO checks.
        let mut expired = 0;
        for i in 0..self.ready_flows.len() {
            let peer = self
                .flows
                .get_mut(&self.ready_flows[i])
                .expect("ready flows exist");
            expired += peer.flow.check_rto(now);
        }

        // 4. Send scheduler + just-in-time packet generation.
        self.fill_flows(now);
        let (tx_cpu, sent) = self.generate_packets(sim);

        // 5. Arm pacing/RTO timers for future work.
        let (next_deadline, sendable) = self.settle_ready(now);
        self.arm_timer(sim, next_deadline);

        // Report only *actionable* work: frames held back by pacing or
        // RTO wait on their timers and must not busy-loop the worker
        // (the armed timer wakes us; rx/commands/sendable frames do
        // warrant an immediate next pass).
        let rx = self
            .fabric
            .with_nic(self.cfg.host, |nic| nic.rx_pending(self.cfg.queue));
        RunReport {
            cpu: Nanos(costs::ENGINE_POLL_PASS_NS) + rx_cpu + cmd_cpu + tx_cpu,
            work_done: received + commands + expired + sent > 0,
            pending: rx + self.queued_commands() + sendable,
            next_deadline,
        }
    }

    fn pending_work(&self) -> usize {
        let rx = self
            .fabric
            .with_nic(self.cfg.host, |nic| nic.rx_pending(self.cfg.queue));
        // Idle flows queue nothing, and a connection with an admitted
        // send has its stream on `stream_queue`.
        let tx: usize = self
            .ready_flows
            .iter()
            .map(|fid| self.flows[fid].flow.pending_tx())
            .sum();
        let sends: usize = self
            .ready_conns
            .iter()
            .flat_map(|id| self.conns[id].per_stream.values())
            .map(|q| q.len())
            .sum();
        rx + tx + sends + self.queued_commands()
    }

    fn oldest_pending_age(&self, now: Nanos) -> Nanos {
        self.ready_flows
            .iter()
            .map(|fid| self.flows[fid].flow.oldest_pending_age(now))
            .max()
            .unwrap_or(Nanos::ZERO)
    }

    fn serialize_state(&mut self) -> Vec<u8> {
        self.checkpoint()
    }

    fn detach(&mut self, _sim: &mut Sim) {
        if let Some((_, h)) = self.timer.take() {
            h.cancel();
        }
        self.fabric.with_nic(self.cfg.host, |nic| {
            nic.detach_filter(self.cfg.engine_key);
        });
    }

    /// Idempotent: re-inserting the filter is an upsert, so a freshly
    /// constructed successor (already attached by its constructor) is
    /// unaffected, while a rolled-back predecessor gets its receive
    /// path back.
    fn attach(&mut self, _sim: &mut Sim) {
        let (key, queue) = (self.cfg.engine_key, self.cfg.queue);
        self.fabric.with_nic(self.cfg.host, |nic| nic.attach_filter(key, queue));
    }

    fn container(&self) -> &str {
        &self.cfg.container
    }

    fn as_any(&mut self) -> &mut dyn std::any::Any {
        self
    }
}
