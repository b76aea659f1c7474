//! The command seam: what an application's command does on arrival —
//! hedge dedup, the pressure gate and the memory quota (§2.5), flow
//! control (§3.3), one-sided initiation (§3.2) — and the one routine
//! through which every op of a local application concludes.

use std::collections::VecDeque;

use snap_isolation::{AdmissionController, PressureState};
use snap_nic::packet::{HostId, QosClass};
use snap_sim::costs;
use snap_sim::hash::IntMap;
use snap_sim::trace::{Stage, TraceContext};
use snap_sim::Nanos;

use super::{
    insert_sorted, ConnState, Op, OpKind, PendingOp, PonyEngine, SendMsg, INITIAL_CREDITS,
    SMALL_MSG_BYTES,
};
use crate::client::{OpStatus, PonyCommand, PonyCommandTuple, PonyCompletion};
use crate::wire::OpFrame;

/// The connection an application command targets (every command names
/// one).
fn cmd_conn(cmd: &PonyCommand) -> u64 {
    match cmd {
        PonyCommand::Send { conn, .. }
        | PonyCommand::Read { conn, .. }
        | PonyCommand::Write { conn, .. }
        | PonyCommand::IndirectRead { conn, .. }
        | PonyCommand::ScanRead { conn, .. }
        | PonyCommand::PostRecvBuffers { conn, .. } => *conn,
    }
}

impl ConnState {
    /// A connection as the control plane establishes it: nothing
    /// posted, nothing in progress, the initial small-message credits.
    pub(super) fn new(
        id: u64,
        flow: u64,
        remote_host: HostId,
        remote_engine: u64,
        session: Option<u64>,
    ) -> Self {
        ConnState {
            id,
            flow,
            remote_host,
            remote_engine,
            session,
            remote_posted: 0,
            local_posted: 0,
            small_credits: INITIAL_CREDITS,
            held: VecDeque::new(),
            stream_queue: VecDeque::new(),
            per_stream: IntMap::default(),
            next_msg: IntMap::default(),
            next_deliver: IntMap::default(),
            ready: IntMap::default(),
        }
    }

    /// The flow-control gate (§3.3): takes what a `len`-byte send needs
    /// — one of the shared credits for a small message, one of the
    /// peer's posted buffers for a large one — or reports there is none
    /// and the send must be held.
    fn try_admit(&mut self, len: u64) -> bool {
        if len <= SMALL_MSG_BYTES {
            if self.small_credits == 0 {
                return false;
            }
            self.small_credits -= 1;
        } else {
            if self.remote_posted == 0 {
                return false;
            }
            self.remote_posted -= 1;
        }
        true
    }
}

impl PonyEngine {
    /// Step 2 of the pass: drains this engine's application command
    /// queues (a bounded batch per session) and handles each command.
    /// Returns the CPU charged and the number of commands handled.
    pub(super) fn poll_commands(&mut self, now: Nanos) -> (Nanos, usize) {
        let mut handled = 0;
        let mut cmds = std::mem::take(&mut self.cmd_buf);
        for i in 0..self.owned_sessions.len() {
            let sid = self.owned_sessions[i];
            cmds.clear();
            if let Some(ep) = self.sessions.borrow().get(&sid) {
                ep.poll_commands(&mut cmds, self.cfg.poll_batch);
            }
            handled += cmds.len();
            for cmd in cmds.drain(..) {
                self.handle_command(now, sid, cmd);
            }
        }
        self.cmd_buf = cmds;
        (Nanos(costs::PONY_PER_OP_NS) * handled as u64, handled)
    }

    /// Concludes an op of a local application, however it ended:
    /// finalizes its trace (the Complete record closes the span tree)
    /// and queues the `OpDone` on its session.
    pub(super) fn conclude(
        &mut self,
        now: Nanos,
        op: Op,
        status: OpStatus,
        data: Vec<u8>,
        issued_at: Nanos,
    ) {
        self.finish_trace(op.trace, now);
        let done = PonyCompletion::OpDone {
            op: op.id,
            status,
            data,
            issued_at,
        };
        self.complete(op.session, done);
    }

    /// Queues a completion on an application session.
    pub(super) fn complete(&mut self, session: Option<u64>, completion: PonyCompletion) {
        let Some(sid) = session else {
            return;
        };
        let sessions = self.sessions.borrow();
        let delivered = sessions
            .get(&sid)
            .map(|endpoint| endpoint.complete(completion).is_ok())
            .unwrap_or(false);
        if !delivered {
            // Completion-queue overflow drops the completion; bounded
            // queues are part of the contract and callers size their
            // outstanding-op windows accordingly. The counter makes
            // sizing mistakes loud.
            self.stats.completions_dropped += 1;
        }
    }

    fn handle_command(&mut self, now: Nanos, sid: u64, (id, class, trace, cmd): PonyCommandTuple) {
        self.stats.commands += 1;
        let conn = cmd_conn(&cmd);
        // Hedge dedup: op ids are strictly increasing per session, so
        // an id at or below the watermark is a client hedge resubmit of
        // an op this engine already accepted. Exactly-once demands it
        // never re-execute; instead the duplicate carries a signal —
        // the client thinks the op is slow — so nudge its flow into an
        // early retransmit of the oldest unacked frame.
        let wm = self.session_watermarks.entry(sid).or_insert(0);
        if id <= *wm {
            self.stats.hedge_dups += 1;
            self.finish_trace(trace, now);
            let flow_id = self.conns.get(&conn).map(|c| c.flow);
            if let Some(peer) = flow_id.and_then(|fid| self.flows.get_mut(&fid)) {
                self.stats.hedge_retransmits += peer.flow.hedge_retransmit(now) as u64;
            }
            return;
        }
        *wm = id;
        let op = Op {
            id,
            session: Some(sid),
            trace,
        };
        // The gap from the client-enqueue stamp to this one is the op's
        // engine scheduling delay — the quantity §5's modes trade off.
        self.stamp(trace, Stage::EngineDequeue, now);
        // PostRecvBuffers is exempt from the pressure gate: posting
        // receive buffers *relieves* pressure by letting the peer
        // drain, and refusing it could deadlock both sides of a
        // connection.
        if !matches!(cmd, PonyCommand::PostRecvBuffers { .. }) {
            if let Some(status) = self.pressure_refusal(now, class, trace) {
                return self.conclude(now, op, status, vec![], now);
            }
        }
        // A one-sided command becomes its request frame; the two-sided
        // ones are handled here.
        let (kind, frame) = match cmd {
            PonyCommand::Send { stream, len, .. } => {
                return self.admit_send(now, op, conn, stream, len);
            }
            PonyCommand::PostRecvBuffers { count, .. } => {
                if let Some(c) = self.conns.get_mut(&conn) {
                    c.local_posted += count;
                    let flow_id = c.flow;
                    self.enqueue(flow_id, OpFrame::BufferPost { conn, count }, now);
                }
                // Buffer posts complete immediately.
                return self.conclude(now, op, OpStatus::Ok, vec![], now);
            }
            PonyCommand::Read {
                region,
                offset,
                len,
                ..
            } => (
                OpKind::Read,
                OpFrame::ReadReq {
                    op: id,
                    region,
                    offset,
                    len,
                },
            ),
            // Vec -> Bytes is zero-copy: the command's buffer becomes
            // the frame's refcounted payload.
            PonyCommand::Write {
                region,
                offset,
                data,
                ..
            } => (
                OpKind::Write,
                OpFrame::WriteReq {
                    op: id,
                    region,
                    offset,
                    data: data.into(),
                },
            ),
            PonyCommand::IndirectRead {
                table,
                indices,
                len,
                ..
            } => (
                OpKind::IndirectRead,
                OpFrame::IndirectReadReq {
                    op: id,
                    table,
                    indices,
                    len,
                },
            ),
            PonyCommand::ScanRead {
                region, key, len, ..
            } => (
                OpKind::ScanRead,
                OpFrame::ScanReadReq {
                    op: id,
                    region,
                    key,
                    len,
                },
            ),
        };
        self.initiate(now, op, conn, kind, frame);
    }

    /// Starts a one-sided op: it waits in `pending_ops` while its
    /// request travels on the connection's flow.
    fn initiate(&mut self, now: Nanos, op: Op, conn: u64, kind: OpKind, frame: OpFrame) {
        let Some(flow_id) = self.conns.get(&conn).map(|c| c.flow) else {
            return self.conclude(now, op, OpStatus::Error, vec![], now);
        };
        let pending = PendingOp {
            op,
            kind,
            conn,
            issued_at: now,
        };
        self.pending_ops.insert(op.id, pending);
        self.enqueue(flow_id, frame, now);
    }

    /// The pressure gate (§2.5): under Soft pressure best-effort work is
    /// shed; under Hard pressure transport-class work is refused with
    /// Busy (back-pressure — the op never entered the transport, so
    /// exactly-once is untouched). Counts and stamps the refusal it
    /// returns.
    fn pressure_refusal(
        &mut self,
        now: Nanos,
        class: QosClass,
        trace: Option<TraceContext>,
    ) -> Option<OpStatus> {
        let adm = self.admission.as_ref()?;
        match (adm.pressure(&self.cfg.container), class) {
            (PressureState::Ok, _) | (PressureState::Soft, QosClass::Transport) => None,
            (_, QosClass::BestEffort) => {
                self.stats.ops_shed += 1;
                adm.record_shed(&self.cfg.container);
                self.stamp(trace, Stage::Shed, now);
                Some(OpStatus::Shed)
            }
            (PressureState::Hard, QosClass::Transport) => {
                self.stats.busy_rejected += 1;
                self.stamp(trace, Stage::Busy, now);
                Some(OpStatus::Busy)
            }
        }
    }

    /// Installs the admission controller that gates this engine's
    /// datapath (per-send quota charges and pressure-based shedding).
    ///
    /// Safe to call on a freshly restored engine: sends already in
    /// flight (held or mid-transfer) are force-charged so usage
    /// accounting stays truthful even if the charge lands over quota —
    /// restored state is never dropped, new admissions pay it back.
    pub fn set_admission(&mut self, admission: AdmissionController) {
        if let Some(old) = self.admission.take() {
            old.release(&self.cfg.container, self.charged_bytes);
        }
        let outstanding: u64 = self
            .send_msgs
            .values()
            .map(|s| s.total)
            .chain(
                self.conns
                    .values()
                    .flat_map(|c| c.held.iter().map(|&(_, _, len, _)| len)),
            )
            .sum();
        admission.ensure_container(&self.cfg.container);
        if outstanding > 0 {
            admission.charge(&self.cfg.container, outstanding);
        }
        self.charged_bytes = outstanding;
        self.admission = Some(admission);
    }

    /// Admits a Send command, applying the memory quota (§2.5) and then
    /// flow control (§3.3).
    fn admit_send(&mut self, now: Nanos, op: Op, conn_id: u64, stream: u32, len: u64) {
        if !self.conns.contains_key(&conn_id) {
            return self.conclude(now, op, OpStatus::Error, vec![], now);
        }
        // Quota charge precedes flow-control admission so a held send
        // is accounted from the moment the engine buffers it. The
        // charge is released when the send fully completes (or on
        // engine drop). Refusal is back-pressure, not loss: nothing
        // was sent, the app retries.
        if let Some(adm) = &self.admission {
            if adm.try_charge(&self.cfg.container, len).is_err() {
                self.stats.busy_rejected += 1;
                self.stamp(op.trace, Stage::Busy, now);
                return self.conclude(now, op, OpStatus::Busy, vec![], now);
            }
            self.charged_bytes += len;
        }
        let conn = self.conns.get_mut(&conn_id).expect("checked above");
        if conn.try_admit(len) {
            self.start_send(now, op, conn_id, stream, len);
        } else {
            conn.held.push_back((op.id, stream, len, op.trace));
        }
    }

    fn start_send(&mut self, now: Nanos, op: Op, conn_id: u64, stream: u32, len: u64) {
        let mtu = self.cfg.mtu as u64;
        let conn = self.conns.get_mut(&conn_id).expect("admitted conn exists");
        let msg = *conn
            .next_msg
            .entry(stream)
            .and_modify(|m| *m += 1)
            .or_insert(0);
        self.send_msgs.insert(
            (conn_id, stream, msg),
            SendMsg {
                op,
                total: len,
                chunks: len.div_ceil(mtu) as u32,
                acked_offsets: Vec::new(),
                issued_at: now,
                next_offset: 0,
            },
        );
        // Chunks are enqueued lazily by the round-robin send scheduler
        // (fill_flows), so a large message cannot monopolize the flow.
        let q = conn.per_stream.entry(stream).or_default();
        q.push_back(msg);
        if q.len() == 1 && !conn.stream_queue.contains(&stream) {
            conn.stream_queue.push_back(stream);
        }
        insert_sorted(&mut self.ready_conns, conn_id);
    }

    /// Retries held sends after flow-control state improved.
    pub(super) fn retry_held(&mut self, now: Nanos, conn_id: u64) {
        loop {
            let Some(conn) = self.conns.get_mut(&conn_id) else {
                return;
            };
            let Some(&(id, stream, len, trace)) = conn.held.front() else {
                return;
            };
            if !conn.try_admit(len) {
                return;
            }
            let session = conn.session;
            conn.held.pop_front();
            self.start_send(now, Op { id, session, trace }, conn_id, stream, len);
        }
    }
}
