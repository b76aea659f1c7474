//! The lower transport layer: reliable flows between engine pairs.
//!
//! "Pony Express separates its transport logic into two layers: an
//! upper layer implements the state machines for application-level
//! operations and a lower layer implements reliability and congestion
//! control. The lower layer implements reliable flows between a pair of
//! engines across the network and a flow mapper maps application-level
//! connections to flows. This lower layer is only responsible for
//! reliably delivering individual packets whereas the upper layer
//! handles reordering, reassembly, and semantics associated with
//! specific operations." (§3.1)
//!
//! Accordingly, a [`Flow`] delivers each accepted frame upward exactly
//! once, in arrival order (NOT sequence order — reordering is the upper
//! layer's job), retransmits unacked packets after an RTO derived from
//! Timely's RTT estimate, and paces transmission at the Timely rate.

use std::collections::VecDeque;

use snap_sim::codec::{DecodeError, Reader, Writer};
use snap_sim::hash::IntMap;
use snap_sim::Nanos;

use crate::timely::{Timely, TimelyConfig};
use crate::wire::{OpFrame, PonyPacket};

/// An outbound frame queued on a flow, waiting for a tx slot + pacing.
#[derive(Debug, Clone)]
pub struct Outbound {
    /// The frame to carry.
    pub frame: OpFrame,
    /// Time the frame was enqueued (queueing-delay estimation).
    pub enqueued: Nanos,
}

/// Reliability bookkeeping for one in-flight packet.
#[derive(Debug, Clone)]
struct InFlight {
    frame: OpFrame,
    sent_at: Nanos,
    retransmits: u32,
}

/// Counters for one flow.
#[derive(Debug, Clone, Default)]
pub struct FlowStats {
    /// Data packets sent (first transmissions).
    pub sent: u64,
    /// Retransmissions.
    pub retransmits: u64,
    /// Frames delivered upward.
    pub delivered: u64,
    /// Duplicate packets suppressed.
    pub duplicates: u64,
}

/// A two-sided message chunk whose packet the peer has just
/// acknowledged: what the upper layer needs to credit the send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckedChunk {
    /// Application connection id.
    pub conn: u64,
    /// Stream within the connection.
    pub stream: u32,
    /// Message id within the stream.
    pub msg: u64,
    /// Chunk offset within the message.
    pub offset: u64,
}

/// Bound on the span of sequence numbers a [`SeqWindow`] is asked to
/// cover: how far above the cumulative point a received seq is
/// tracked, and how far below `next_seq` a checkpointed un-acked seq
/// may lie. A sender's un-acked window is a few thousand packets (a
/// full RTO at line rate is under 100 000); a seq further out came off
/// the wire or out of a checkpoint damaged, and the ring is sized by
/// the span it covers.
const MAX_SEQ_WINDOW: u64 = 1 << 20;

/// A map from sequence number to `T` for keys that cluster in a moving
/// window: slot `i` of the ring holds sequence `base + i`. The front
/// and back slots are occupied whenever the window is non-empty, so
/// `base` is the lowest sequence present and the ring spans exactly
/// lowest..=highest. Lookups index; nothing is hashed or rebalanced,
/// and a steady window reuses the ring's buffer.
#[derive(Debug)]
struct SeqWindow<T> {
    base: u64,
    slots: VecDeque<Option<T>>,
    len: usize,
}

impl<T> SeqWindow<T> {
    fn new() -> Self {
        SeqWindow {
            base: 0,
            slots: VecDeque::new(),
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Lowest sequence present.
    fn first(&self) -> Option<u64> {
        (!self.slots.is_empty()).then_some(self.base)
    }

    fn get(&self, seq: u64) -> Option<&T> {
        let at = usize::try_from(seq.checked_sub(self.base)?).ok()?;
        self.slots.get(at)?.as_ref()
    }

    fn contains(&self, seq: u64) -> bool {
        self.get(seq).is_some()
    }

    /// Inserts, returning whether `seq` was absent.
    fn insert(&mut self, seq: u64, value: T) -> bool {
        if self.slots.is_empty() {
            self.base = seq;
        }
        while seq < self.base {
            self.slots.push_front(None);
            self.base -= 1;
        }
        let at = (seq - self.base) as usize;
        while self.slots.len() <= at {
            self.slots.push_back(None);
        }
        let fresh = self.slots[at].replace(value).is_none();
        self.len += fresh as usize;
        fresh
    }

    fn remove(&mut self, seq: u64) -> Option<T> {
        let at = usize::try_from(seq.checked_sub(self.base)?).ok()?;
        let value = self.slots.get_mut(at)?.take()?;
        self.len -= 1;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
        while let Some(None) = self.slots.back() {
            self.slots.pop_back();
        }
        Some(value)
    }

    /// Entries in ascending sequence order.
    fn iter(&self) -> impl Iterator<Item = (u64, &T)> {
        let seqs = self.base..;
        seqs.zip(&self.slots)
            .filter_map(|(seq, slot)| Some((seq, slot.as_ref()?)))
    }
}

/// A reliable, congestion-controlled flow to one remote engine.
pub struct Flow {
    /// Flow id carried on the wire.
    pub id: u64,
    /// Negotiated wire version for this peer.
    pub version: u16,
    cc: Timely,
    next_seq: u64,
    /// Un-acked packets by seq.
    inflight: SeqWindow<InFlight>,
    /// `(sent_at, seq)` of every transmission, in send order. An entry
    /// is live while `inflight[seq].sent_at == sent_at`; acked, expired
    /// and re-sent packets leave dead entries behind, which are
    /// discarded when they reach the front. Invariant: the front is
    /// live (or the queue is empty), so the oldest un-acked
    /// transmission — the only one the RTO deadline depends on — is an
    /// O(1) read. Relies on `produce` being called with non-decreasing
    /// `now`, which virtual time guarantees.
    sent_order: VecDeque<(Nanos, u64)>,
    /// Frames waiting to become packets (just-in-time generation pulls
    /// from here when NIC slots and pacing allow).
    outq: VecDeque<Outbound>,
    /// Expired packets awaiting retransmission with their original
    /// sequence numbers (same-seq retransmit keeps cumulative acks
    /// meaningful at the receiver).
    rtxq: VecDeque<(u64, OpFrame, u32)>,
    // Receive side.
    /// All seqs below this have been received.
    rcv_cum: u64,
    /// Received seqs above `rcv_cum` (bounded by the reorder window).
    rcv_sacks: SeqWindow<()>,
    /// Latest acks to piggyback/emit.
    ack_dirty: bool,
    /// The selective-ack list of the next packet: [`Flow::reclaim_sacks`]
    /// hands a sent packet's list back, so building one allocates only
    /// until the first has come home.
    sack_buf: Vec<u64>,
    stats: FlowStats,
}

/// Result of accepting an inbound packet.
#[derive(Debug, PartialEq, Eq)]
pub enum Accept {
    /// Fresh packet: deliver its frame upward.
    Deliver(OpFrame),
    /// Duplicate (already received); dropped.
    Duplicate,
}

impl Flow {
    /// Creates a flow with the given wire id and negotiated version.
    pub fn new(id: u64, version: u16, cc_cfg: TimelyConfig) -> Self {
        Flow {
            id,
            version,
            cc: Timely::new(cc_cfg),
            next_seq: 0,
            inflight: SeqWindow::new(),
            sent_order: VecDeque::new(),
            outq: VecDeque::new(),
            rtxq: VecDeque::new(),
            rcv_cum: 0,
            rcv_sacks: SeqWindow::new(),
            ack_dirty: false,
            sack_buf: Vec::new(),
            stats: FlowStats::default(),
        }
    }

    /// Queues a frame for transmission.
    pub fn enqueue(&mut self, frame: OpFrame, now: Nanos) {
        self.outq.push_back(Outbound {
            frame,
            enqueued: now,
        });
    }

    /// Frames waiting to be sent (fresh and retransmissions).
    pub fn pending_tx(&self) -> usize {
        self.outq.len() + self.rtxq.len()
    }

    /// Age of the oldest queued frame.
    pub fn oldest_pending_age(&self, now: Nanos) -> Nanos {
        self.outq
            .front()
            .map(|o| now.saturating_sub(o.enqueued))
            .unwrap_or(Nanos::ZERO)
    }

    /// True if the flow needs anything from an engine pass: frames to
    /// send, un-acked packets whose RTO must be watched, or an ack owed
    /// to the peer. A flow for which this is false is inert: `produce`
    /// returns `None`, `check_rto` returns 0 and both deadlines are
    /// `None`, all without side effects.
    pub fn is_active(&self) -> bool {
        self.ack_dirty
            || !self.outq.is_empty()
            || !self.rtxq.is_empty()
            || !self.inflight.is_empty()
    }

    /// Congestion-control state (read-only view).
    pub fn cc(&self) -> &Timely {
        &self.cc
    }

    /// Counters.
    pub fn stats(&self) -> &FlowStats {
        &self.stats
    }

    /// Un-acked packet count.
    pub fn inflight(&self) -> usize {
        self.inflight.len()
    }

    /// Attempts to produce the next packet for transmission at `now`.
    ///
    /// Returns `None` if nothing is queued, or if pacing forbids
    /// sending yet (in which case [`Flow::next_pacing_deadline`] says
    /// when to retry). Acks are always allowed out (they are tiny and
    /// keep the control loop alive).
    pub fn produce(&mut self, now: Nanos) -> Option<PonyPacket> {
        // Retransmissions first, reusing the original sequence number
        // so the receiver's cumulative ack can advance over the hole.
        if let Some((_, frame, _)) = self.rtxq.front() {
            let bytes = frame.payload_len().max(64);
            if self.cc.next_send_at(now) <= now {
                let (seq, frame, rtx) = self.rtxq.pop_front().expect("front exists");
                self.cc.pace(now, bytes);
                self.track_sent(
                    seq,
                    InFlight {
                        frame: frame.clone(),
                        sent_at: now,
                        retransmits: rtx + 1,
                    },
                );
                self.stats.retransmits += 1;
                return Some(self.packet(seq, frame));
            }
            return self.produce_ack();
        }
        if let Some(front) = self.outq.front() {
            let bytes = front.frame.payload_len().max(64);
            if self.cc.next_send_at(now) <= now {
                let out = self.outq.pop_front().expect("front exists");
                self.cc.pace(now, bytes);
                let seq = self.next_seq;
                self.next_seq += 1;
                self.track_sent(
                    seq,
                    InFlight {
                        frame: out.frame.clone(),
                        sent_at: now,
                        retransmits: 0,
                    },
                );
                self.stats.sent += 1;
                return Some(self.packet(seq, out.frame));
            }
        }
        self.produce_ack()
    }

    /// Records a transmission as in flight.
    fn track_sent(&mut self, seq: u64, inf: InFlight) {
        debug_assert!(
            self.sent_order.back().is_none_or(|&(at, _)| at <= inf.sent_at),
            "produce() called with time running backwards"
        );
        self.sent_order.push_back((inf.sent_at, seq));
        self.inflight.insert(seq, inf);
    }

    /// Whether a `sent_order` entry still describes an un-acked packet.
    fn sent_is_live(&self, (at, seq): (Nanos, u64)) -> bool {
        self.inflight.get(seq).is_some_and(|i| i.sent_at == at)
    }

    /// Restores the `sent_order` invariant after packets left
    /// `inflight`: drops dead entries until the front is live.
    fn discard_dead_sends(&mut self) {
        while self.sent_order.front().is_some_and(|&e| !self.sent_is_live(e)) {
            self.sent_order.pop_front();
        }
    }

    fn produce_ack(&mut self) -> Option<PonyPacket> {
        if self.ack_dirty {
            // Pure ack: unsequenced (AckOnly frames are not themselves
            // acked). Uses the current seq without consuming it.
            let seq = self.next_seq;
            return Some(self.packet(seq, OpFrame::AckOnly));
        }
        None
    }

    /// Wraps `frame` in this flow's header. Every packet carries the
    /// current cumulative ack and the lowest selective acks, so once
    /// one is built no ack is owed.
    fn packet(&mut self, seq: u64, frame: OpFrame) -> PonyPacket {
        self.ack_dirty = false;
        let mut sacks = std::mem::take(&mut self.sack_buf);
        sacks.clear();
        sacks.extend(self.rcv_sacks.iter().take(16).map(|(seq, ())| seq));
        PonyPacket {
            version: self.version,
            flow: self.id,
            seq,
            cum_ack: self.rcv_cum,
            sacks,
            trace: None,
            frame,
        }
    }

    /// Takes back the selective-ack list of a packet this flow
    /// produced, once the packet has been encoded, for the next one.
    pub fn reclaim_sacks(&mut self, sacks: Vec<u64>) {
        self.sack_buf = sacks;
    }

    /// When pacing next allows a data send (now if idle/unpaced).
    pub fn next_pacing_deadline(&self, now: Nanos) -> Option<Nanos> {
        if self.outq.is_empty() && self.rtxq.is_empty() {
            return None;
        }
        Some(self.cc.next_send_at(now))
    }

    /// Processes an inbound packet's *reliability* fields and returns
    /// whether its frame is fresh (deliver) or a duplicate.
    pub fn on_packet(&mut self, pkt: &PonyPacket, now: Nanos) -> Accept {
        self.receive(pkt, now, None)
    }

    /// Like [`Flow::on_packet`], additionally appending to `acked` the
    /// message chunks this packet newly acknowledged, in ack order (the
    /// upper layer uses them to complete send operations and return
    /// credits). The caller owns the buffer so a packet allocates
    /// nothing for it.
    pub fn on_packet_tracked(
        &mut self,
        pkt: &PonyPacket,
        now: Nanos,
        acked: &mut Vec<AckedChunk>,
    ) -> Accept {
        self.receive(pkt, now, Some(acked))
    }

    fn receive(
        &mut self,
        pkt: &PonyPacket,
        now: Nanos,
        acked: Option<&mut Vec<AckedChunk>>,
    ) -> Accept {
        // Ack processing (every packet carries acks).
        self.apply_acks(pkt.cum_ack, &pkt.sacks, now, acked);

        if matches!(pkt.frame, OpFrame::AckOnly) {
            return Accept::Duplicate; // nothing to deliver
        }

        // Receive-side dedup.
        let seq = pkt.seq;
        if seq < self.rcv_cum || self.rcv_sacks.contains(seq) {
            self.stats.duplicates += 1;
            // Re-ack: our previous ack may have been lost.
            self.ack_dirty = true;
            return Accept::Duplicate;
        }
        if seq - self.rcv_cum >= MAX_SEQ_WINDOW {
            // Not tracked, so not acked: to the sender it was lost.
            return Accept::Duplicate;
        }
        self.rcv_sacks.insert(seq, ());
        // Advance the cumulative point.
        while self.rcv_sacks.remove(self.rcv_cum).is_some() {
            self.rcv_cum += 1;
        }
        self.ack_dirty = true;
        self.stats.delivered += 1;
        Accept::Deliver(pkt.frame.clone())
    }

    /// Retires the in-flight packets the peer acknowledged: everything
    /// below `cum`, lowest first, then `sacks` as listed.
    fn apply_acks(
        &mut self,
        cum: u64,
        sacks: &[u64],
        now: Nanos,
        mut acked: Option<&mut Vec<AckedChunk>>,
    ) {
        let mut any = false;
        while let Some(seq) = self.inflight.first().filter(|&first| first < cum) {
            any |= self.retire(seq, now, &mut acked);
        }
        for &seq in sacks {
            any |= self.retire(seq, now, &mut acked);
        }
        if any {
            self.discard_dead_sends();
        }
    }

    /// Takes `seq` out of flight if it is there: feeds its RTT to
    /// congestion control and reports a message chunk upward.
    fn retire(&mut self, seq: u64, now: Nanos, acked: &mut Option<&mut Vec<AckedChunk>>) -> bool {
        let Some(inf) = self.inflight.remove(seq) else {
            return false;
        };
        // Only first-transmission RTTs feed Timely (Karn's rule).
        if inf.retransmits == 0 {
            self.cc.on_rtt_sample(now.saturating_sub(inf.sent_at));
        }
        if let (Some(acked), OpFrame::MsgChunk { conn, stream, msg, offset, .. }) =
            (acked, inf.frame)
        {
            acked.push(AckedChunk { conn, stream, msg, offset });
        }
        true
    }

    /// The RTO: a multiple of the *smoothed* RTT (so receive-side
    /// queueing under load does not fire spurious retransmissions),
    /// floored and capped.
    pub fn rto(&self) -> Nanos {
        let srtt = self.cc.srtt();
        let base = if srtt.is_zero() {
            Nanos::from_micros(500)
        } else {
            srtt * 4
        };
        base.clamp(Nanos::from_micros(200), Nanos::from_millis(10))
    }

    /// Earliest retransmit deadline among in-flight packets: every
    /// packet shares one RTO, so it is the oldest transmission's.
    pub fn next_rto_deadline(&self) -> Option<Nanos> {
        self.sent_order.front().map(|&(at, _)| at + self.rto())
    }

    /// [`Flow::next_rto_deadline`] the slow way, by scanning `inflight`:
    /// the reference the O(1) answer is checked against in debug
    /// builds and tests.
    pub(crate) fn rto_deadline_by_scan(&self) -> Option<Nanos> {
        self.inflight
            .iter()
            .map(|(_, i)| i.sent_at + self.rto())
            .min()
    }

    /// Moves packets whose RTO expired onto the retransmit queue
    /// (keeping their sequence numbers, lowest first); returns how
    /// many. Expiry is a loss signal to congestion control, counted
    /// once per check.
    pub fn check_rto(&mut self, now: Nanos) -> usize {
        let rto = self.rto();
        // Expired transmissions are a prefix of the send order.
        let mut expired: Vec<u64> = Vec::new();
        while let Some(&(at, seq)) = self.sent_order.front() {
            let live = self.sent_is_live((at, seq));
            if live && now.saturating_sub(at) < rto {
                break;
            }
            self.sent_order.pop_front();
            if live {
                expired.push(seq);
            }
        }
        let n = expired.len();
        if n > 0 {
            self.cc.on_loss();
        }
        // Send order differs from seq order once retransmissions are
        // in flight; the retransmit queue is filled lowest seq first.
        expired.sort_unstable();
        for seq in expired {
            let inf = self.inflight.remove(seq).expect("listed above");
            self.rtxq.push_back((seq, inf.frame, inf.retransmits));
        }
        n
    }

    /// Hedge nudge: re-queues the oldest unacked in-flight frame
    /// immediately, without waiting for its RTO and — unlike
    /// [`Flow::check_rto`] — without a loss signal to congestion
    /// control: the hedge is speculative (the packet may merely be
    /// jittered), and halving cwnd on every hedge would turn a
    /// lossy-but-alive link into a throughput collapse. Frames younger
    /// than a quarter RTO are left alone (their first copy is still
    /// plausibly in flight). Returns how many frames were re-queued
    /// (0 or 1).
    pub fn hedge_retransmit(&mut self, now: Nanos) -> usize {
        let min_age = Nanos(self.rto().as_nanos() / 4);
        let victim = self
            .inflight
            .iter()
            .find(|(_, i)| now.saturating_sub(i.sent_at) >= min_age)
            .map(|(s, _)| s);
        let Some(seq) = victim else { return 0 };
        if let Some(inf) = self.inflight.remove(seq) {
            self.rtxq.push_back((seq, inf.frame, inf.retransmits));
            self.discard_dead_sends();
            1
        } else {
            0
        }
    }

    /// Serializes flow state for transparent upgrade: sequence state,
    /// receive window, and all queued/unacked frames (which re-enter
    /// the outq in the new version — retransmission semantics make
    /// duplicates safe).
    pub fn serialize(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(256);
        w.u64(self.id)
            .u16(self.version)
            .u64(self.next_seq)
            .u64(self.rcv_cum);
        w.seq(self.rcv_sacks.iter(), |w, (seq, ())| {
            w.u64(seq);
        });
        // Unacked packets keep their sequence numbers across the
        // upgrade (they re-enter the retransmit queue); fresh frames
        // keep only their content.
        let in_flight = self.inflight.iter().map(|(seq, i)| (seq, &i.frame));
        let expired = self.rtxq.iter().map(|(seq, frame, _)| (*seq, frame));
        w.seq(in_flight.chain(expired), |w, (seq, frame)| {
            w.u64(seq).bytes(&self.encode_frame(frame));
        });
        w.seq(&self.outq, |w, out| {
            w.bytes(&self.encode_frame(&out.frame));
        });
        w.finish()
    }

    /// Restores a flow from [`Flow::serialize`] output.
    ///
    /// Returns an error — never panics — on a snapshot that is
    /// truncated, runs past its last field, holds a frame the wire
    /// decoder rejects, or names a sequence number outside the window
    /// its counters allow (a received seq not within `MAX_SEQ_WINDOW`
    /// above the cumulative point, an un-acked one not within it below
    /// `next_seq`), so a bad checkpoint surfaces as a typed failure the
    /// upgrade rollback and supervisor paths can act on.
    pub fn deserialize(buf: &[u8], cc_cfg: TimelyConfig, now: Nanos) -> Result<Flow, DecodeError> {
        let mut r = Reader::new(buf);
        let (id, version, next_seq, rcv_cum) = (r.u64()?, r.u16()?, r.u64()?, r.u64()?);
        let mut rcv_sacks = SeqWindow::new();
        for seq in r.seq::<_, Vec<u64>>(Reader::u64)? {
            // The same bound `receive` applies to a seq off the wire.
            if seq.checked_sub(rcv_cum).is_none_or(|ahead| ahead >= MAX_SEQ_WINDOW) {
                return Err(DecodeError);
            }
            rcv_sacks.insert(seq, ());
        }
        let frame = |r: &mut Reader| Ok(PonyPacket::decode(r.bytes()?)?.frame);
        let rtxq = r.seq(|r| {
            let seq = r.u64()?;
            if next_seq.checked_sub(seq).is_none_or(|behind| behind == 0 || behind > MAX_SEQ_WINDOW) {
                return Err(DecodeError);
            }
            Ok((seq, frame(r)?, 0))
        })?;
        let outq = r.seq(|r| {
            Ok(Outbound {
                frame: frame(r)?,
                enqueued: now,
            })
        })?;
        if !r.is_exhausted() {
            return Err(DecodeError);
        }
        Ok(Flow {
            id,
            version,
            cc: Timely::new(cc_cfg),
            next_seq,
            inflight: SeqWindow::new(),
            sent_order: VecDeque::new(),
            outq,
            rtxq,
            rcv_cum,
            rcv_sacks,
            ack_dirty: false,
            sack_buf: Vec::new(),
            stats: FlowStats::default(),
        })
    }

    fn encode_frame(&self, f: &OpFrame) -> Vec<u8> {
        // Reuse the packet encoding for the frame body.
        PonyPacket {
            version: self.version,
            flow: self.id,
            seq: 0,
            cum_ack: 0,
            sacks: vec![],
            trace: None,
            frame: f.clone(),
        }
        .encode()
    }
}

/// Maps application-level connections to flows (§3.1): connections to
/// the same remote engine share one flow.
#[derive(Debug, Default)]
pub struct FlowMapper {
    /// (remote host, remote engine key) -> flow id.
    map: IntMap<(u32, u64), u64>,
    next_flow: u64,
}

impl FlowMapper {
    /// Creates an empty mapper seeded so flow ids are unique per
    /// engine (the engine uid occupies the high bits).
    pub fn new(engine_uid: u32) -> Self {
        FlowMapper {
            map: Default::default(),
            next_flow: (engine_uid as u64) << 32,
        }
    }

    /// Returns the flow id for a remote engine, allocating one if new.
    /// The bool is true if the flow is newly allocated.
    pub fn flow_for(&mut self, remote_host: u32, remote_engine: u64) -> (u64, bool) {
        if let Some(&f) = self.map.get(&(remote_host, remote_engine)) {
            return (f, false);
        }
        let f = self.next_flow;
        self.next_flow += 1;
        self.map.insert((remote_host, remote_engine), f);
        (f, true)
    }

    /// The mapper of engine `engine_uid` as a checkpoint implies it,
    /// from `(flow id, remote host, remote engine)` of every flow the
    /// engine holds. Its own flows — the ones with its uid in their
    /// high 32 bits — keep the ids they had; a peer's flow was named by
    /// the peer and maps nothing here. The next id handed out is one
    /// past the highest of its own.
    pub(crate) fn rebuilt(engine_uid: u32, flows: impl Iterator<Item = (u64, u32, u64)>) -> Self {
        let mut mapper = FlowMapper::new(engine_uid);
        for (id, remote_host, remote_engine) in flows {
            if id >> 32 == u64::from(engine_uid) {
                mapper.map.insert((remote_host, remote_engine), id);
                mapper.next_flow = mapper.next_flow.max(id.saturating_add(1));
            }
        }
        mapper
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> Flow {
        Flow::new(1, 5, TimelyConfig::default())
    }

    fn msg_frame(n: u64) -> OpFrame {
        OpFrame::MsgChunk {
            conn: 1,
            stream: 0,
            msg: n,
            offset: 0,
            total: 100,
            len: 100,
        }
    }

    #[test]
    fn produce_assigns_sequential_seqs() {
        let mut f = flow();
        f.enqueue(msg_frame(1), Nanos::ZERO);
        f.enqueue(msg_frame(2), Nanos::ZERO);
        let p1 = f.produce(Nanos::ZERO).unwrap();
        // Pacing may delay the second; jump time far enough.
        let p2 = f.produce(Nanos::from_millis(1)).unwrap();
        assert_eq!(p1.seq, 0);
        assert_eq!(p2.seq, 1);
        assert_eq!(f.inflight(), 2);
    }

    #[test]
    fn pacing_delays_production() {
        let mut f = flow();
        for n in 0..10 {
            f.enqueue(msg_frame(n), Nanos::ZERO);
        }
        let _first = f.produce(Nanos::ZERO).unwrap();
        // Immediately after, pacing forbids the next large frame.
        assert!(f.produce(Nanos(1)).is_none());
        let deadline = f.next_pacing_deadline(Nanos(1)).unwrap();
        assert!(deadline > Nanos(1));
        assert!(f.produce(deadline).is_some());
    }

    #[test]
    fn receiver_delivers_fresh_and_suppresses_dups() {
        let mut tx = flow();
        let mut rx = Flow::new(1, 5, TimelyConfig::default());
        tx.enqueue(msg_frame(7), Nanos::ZERO);
        let pkt = tx.produce(Nanos::ZERO).unwrap();
        match rx.on_packet(&pkt, Nanos(1000)) {
            Accept::Deliver(OpFrame::MsgChunk { msg, .. }) => assert_eq!(msg, 7),
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(rx.on_packet(&pkt, Nanos(2000)), Accept::Duplicate);
        assert_eq!(rx.stats().duplicates, 1);
        // The receiver owes its peer an ack: its pass emits one.
        assert!(rx.is_active());
        assert!(rx.produce(Nanos(3000)).is_some_and(|p| p.frame == OpFrame::AckOnly));
    }

    #[test]
    fn acks_clear_inflight_and_feed_rtt() {
        let mut tx = flow();
        let mut rx = Flow::new(1, 5, TimelyConfig::default());
        tx.enqueue(msg_frame(1), Nanos::ZERO);
        let pkt = tx.produce(Nanos::ZERO).unwrap();
        rx.on_packet(&pkt, Nanos(10_000));
        let ack = rx.produce(Nanos(10_000)).expect("ack pending");
        assert_eq!(ack.frame, OpFrame::AckOnly);
        assert_eq!(ack.cum_ack, 1);
        tx.on_packet(&ack, Nanos(20_000));
        assert_eq!(tx.inflight(), 0);
        assert_eq!(tx.cc().min_rtt(), Nanos(20_000));
    }

    #[test]
    fn out_of_order_arrivals_deliver_immediately() {
        // Lower layer does NOT reorder: each fresh packet delivers.
        let mut tx = flow();
        let mut rx = Flow::new(1, 5, TimelyConfig::default());
        tx.enqueue(msg_frame(1), Nanos::ZERO);
        tx.enqueue(msg_frame(2), Nanos::ZERO);
        let p1 = tx.produce(Nanos::ZERO).unwrap();
        let p2 = tx.produce(Nanos::from_millis(1)).unwrap();
        // Deliver in reverse order.
        assert!(matches!(rx.on_packet(&p2, Nanos(1)), Accept::Deliver(_)));
        assert!(matches!(rx.on_packet(&p1, Nanos(2)), Accept::Deliver(_)));
        assert_eq!(rx.stats().delivered, 2);
        // Cumulative ack advanced over both.
        let ack = rx.produce(Nanos(10)).unwrap();
        assert_eq!(ack.cum_ack, 2);
    }

    #[test]
    fn rto_requeues_unacked_and_signals_loss() {
        let mut tx = flow();
        tx.enqueue(msg_frame(1), Nanos::ZERO);
        let _pkt = tx.produce(Nanos::ZERO).unwrap();
        let rate_before = tx.cc().rate();
        let deadline = tx.next_rto_deadline().unwrap();
        assert_eq!(tx.check_rto(deadline - Nanos(1)), 0, "not yet expired");
        assert_eq!(tx.check_rto(deadline), 1);
        assert_eq!(tx.inflight(), 0);
        assert_eq!(tx.pending_tx(), 1, "waiting on the retransmit queue");
        assert!(tx.cc().rate() < rate_before, "loss halves the rate");
        let retx = tx.produce(deadline).unwrap();
        assert_eq!(retx.seq, 0, "retransmission reuses the sequence number");
        assert_eq!(tx.stats().retransmits, 1);
        assert_eq!(tx.inflight(), 1, "back in flight");
    }

    #[test]
    fn hedge_retransmit_requeues_early_without_loss_signal() {
        let mut tx = flow();
        tx.enqueue(msg_frame(1), Nanos::ZERO);
        let _pkt = tx.produce(Nanos::ZERO).unwrap();
        let rate_before = tx.cc().rate();
        // Too young: the first copy is still plausibly in flight.
        assert_eq!(tx.hedge_retransmit(Nanos(1)), 0);
        // Old enough (past a quarter RTO) but well before the RTO
        // itself: the hedge requeues it...
        let rto = tx.rto();
        let mid = Nanos(rto.as_nanos() / 2);
        assert!(mid < tx.next_rto_deadline().unwrap());
        assert_eq!(tx.hedge_retransmit(mid), 1);
        assert_eq!(tx.inflight(), 0);
        assert_eq!(tx.pending_tx(), 1, "waiting on the retransmit queue");
        // ...without punishing congestion control (speculative, not a
        // confirmed loss).
        assert_eq!(tx.cc().rate(), rate_before, "no loss signal");
        let retx = tx.produce(mid).unwrap();
        assert_eq!(retx.seq, 0, "hedge reuses the sequence number");
        // Nothing left in flight old enough: further hedges are no-ops.
        assert_eq!(tx.hedge_retransmit(mid), 0);
    }

    #[test]
    fn retransmission_fills_receiver_hole() {
        let mut tx = flow();
        let mut rx = Flow::new(1, 5, TimelyConfig::default());
        tx.enqueue(msg_frame(9), Nanos::ZERO);
        tx.enqueue(msg_frame(10), Nanos::ZERO);
        let lost = tx.produce(Nanos::ZERO).unwrap(); // seq 0, lost
        let second = tx.produce(Nanos::from_millis(1)).unwrap(); // seq 1
        drop(lost);
        assert!(matches!(rx.on_packet(&second, Nanos(1)), Accept::Deliver(_)));
        // Hole at seq 0: cumulative ack stuck at 0.
        assert_eq!(rx.produce(Nanos(2)).unwrap().cum_ack, 0);
        let deadline = tx.next_rto_deadline().unwrap();
        tx.check_rto(deadline);
        // Past any pacing delay left over from the second send.
        let later = deadline.max(Nanos::from_millis(2));
        let retx = tx.produce(later).unwrap();
        assert_eq!(retx.seq, 0);
        assert!(matches!(rx.on_packet(&retx, later), Accept::Deliver(_)));
        // Hole filled: cumulative ack advances over both.
        assert_eq!(rx.produce(later + Nanos(1)).unwrap().cum_ack, 2);
        assert_eq!(rx.stats().delivered, 2);
    }

    #[test]
    fn duplicate_retransmission_is_suppressed() {
        let mut tx = flow();
        let mut rx = Flow::new(1, 5, TimelyConfig::default());
        tx.enqueue(msg_frame(9), Nanos::ZERO);
        let pkt = tx.produce(Nanos::ZERO).unwrap();
        assert!(matches!(rx.on_packet(&pkt, Nanos(1)), Accept::Deliver(_)));
        // Spurious retransmit of the same seq (ack was slow).
        let deadline = tx.next_rto_deadline().unwrap();
        tx.check_rto(deadline);
        let retx = tx.produce(deadline).unwrap();
        assert_eq!(rx.on_packet(&retx, deadline), Accept::Duplicate);
        assert_eq!(rx.stats().delivered, 1);
    }

    #[test]
    fn oldest_age_reflects_queue_head() {
        let mut f = flow();
        assert_eq!(f.oldest_pending_age(Nanos(100)), Nanos::ZERO);
        f.enqueue(msg_frame(1), Nanos(40));
        f.enqueue(msg_frame(2), Nanos(90));
        assert_eq!(f.oldest_pending_age(Nanos(100)), Nanos(60));
    }

    #[test]
    fn serialize_roundtrip_preserves_sequencing_and_frames() {
        let mut f = flow();
        f.enqueue(msg_frame(1), Nanos::ZERO);
        f.enqueue(msg_frame(2), Nanos::ZERO);
        let _sent = f.produce(Nanos::ZERO).unwrap(); // one inflight
        let snapshot = f.serialize();
        let restored =
            Flow::deserialize(&snapshot, TimelyConfig::default(), Nanos(5)).expect("restores");
        assert_eq!(restored.id, f.id);
        assert_eq!(restored.version, 5);
        // The inflight frame re-enters the retransmit queue (with its
        // original seq) plus the still-queued frame.
        assert_eq!(restored.pending_tx(), 2);
        let mut restored = restored;
        let first = restored.produce(Nanos(5)).unwrap();
        assert_eq!(first.seq, 0, "unacked packet keeps its seq across upgrade");
        let second = restored.produce(Nanos::from_millis(10)).unwrap();
        assert_eq!(second.seq, 1, "fresh frames continue the seq space");
    }

    #[test]
    fn receive_state_survives_serialization() {
        let mut tx = flow();
        let mut rx = Flow::new(1, 5, TimelyConfig::default());
        tx.enqueue(msg_frame(1), Nanos::ZERO);
        let pkt = tx.produce(Nanos::ZERO).unwrap();
        rx.on_packet(&pkt, Nanos(1));
        let restored = Flow::deserialize(&rx.serialize(), TimelyConfig::default(), Nanos(2))
            .expect("restores");
        let mut restored = restored;
        // The duplicate of the already-received packet is suppressed.
        assert_eq!(restored.on_packet(&pkt, Nanos(3)), Accept::Duplicate);
    }

    /// What `check_rto` must move at `now`, the slow way: a scan of
    /// `inflight` in sequence order.
    fn expired_by_scan(f: &Flow, now: Nanos) -> Vec<u64> {
        let rto = f.rto();
        f.inflight
            .iter()
            .filter(|(_, i)| now.saturating_sub(i.sent_at) >= rto)
            .map(|(s, _)| s)
            .collect()
    }

    fn ack(f: &Flow, cum_ack: u64, sacks: Vec<u64>) -> PonyPacket {
        PonyPacket {
            version: f.version,
            flow: f.id,
            seq: 0,
            cum_ack,
            sacks,
            trace: None,
            frame: OpFrame::AckOnly,
        }
    }

    proptest::proptest! {
        /// The send-ordered queue answers exactly what a scan of
        /// `inflight` answers — the RTO deadline after every step, and
        /// the set and order of expiries at every check — under any
        /// interleaving of sends, cumulative and selective acks, RTO
        /// expiry, hedge nudges and retransmission.
        #[test]
        fn rto_queue_matches_scan_of_inflight(
            ops in proptest::collection::vec((0u8..16, 0u64..1_000_000), 1..400),
        ) {
            let mut f = flow();
            let mut now = Nanos::ZERO;
            for (n, (op, arg)) in ops.into_iter().enumerate() {
                match op {
                    0..=5 => {
                        f.enqueue(msg_frame(n as u64), now);
                        f.produce(now);
                    }
                    // Whatever is due: a retransmission, a fresh frame.
                    6 => {
                        f.produce(now);
                    }
                    7 => {
                        // Cumulative ack somewhere in the sent range.
                        let cum = arg % (f.next_seq + 1);
                        let pkt = ack(&f, cum, vec![]);
                        f.on_packet(&pkt, now);
                    }
                    8 => {
                        // Selective ack of one in-flight packet.
                        let pick = f.inflight.iter().nth(arg as usize % f.inflight.len().max(1));
                        if let Some((seq, _)) = pick {
                            let pkt = ack(&f, 0, vec![seq]);
                            f.on_packet(&pkt, now);
                        }
                    }
                    9 | 10 => {
                        let want = expired_by_scan(&f, now);
                        let queued = f.rtxq.len();
                        proptest::prop_assert_eq!(f.check_rto(now), want.len());
                        let got: Vec<u64> = f.rtxq.iter().skip(queued).map(|r| r.0).collect();
                        proptest::prop_assert_eq!(got, want);
                    }
                    11 => {
                        f.hedge_retransmit(now);
                    }
                    // Mostly small steps, so sends pile up inside one
                    // RTO; sometimes one long enough to expire a batch.
                    12..=14 => now += Nanos(arg % 20_000),
                    _ => now += Nanos(100_000 + arg),
                }
                proptest::prop_assert_eq!(f.next_rto_deadline(), f.rto_deadline_by_scan());
            }
        }
    }

    proptest::proptest! {
        /// The ring answers what an ordered map answers, under inserts
        /// above, inside and below the window and removals anywhere,
        /// and never spans more than lowest..=highest.
        #[test]
        fn seq_window_matches_an_ordered_map(
            ops in proptest::collection::vec((0u8..8, 0u64..48), 1..300),
        ) {
            let mut ring: SeqWindow<u64> = SeqWindow::new();
            let mut map = std::collections::BTreeMap::new();
            for (n, (op, key)) in ops.into_iter().enumerate() {
                // Keys wander upward, like sequence numbers.
                let seq = 1000 + n as u64 / 4 + key;
                if op < 5 {
                    let fresh = ring.insert(seq, n as u64);
                    proptest::prop_assert_eq!(fresh, map.insert(seq, n as u64).is_none());
                } else {
                    proptest::prop_assert_eq!(ring.remove(seq), map.remove(&seq));
                }
                proptest::prop_assert_eq!(ring.len(), map.len());
                proptest::prop_assert_eq!(ring.is_empty(), map.is_empty());
                proptest::prop_assert_eq!(ring.first(), map.keys().next().copied());
                proptest::prop_assert_eq!(ring.get(seq), map.get(&seq));
                proptest::prop_assert_eq!(ring.contains(seq + 1), map.contains_key(&(seq + 1)));
                let got: Vec<(u64, u64)> = ring.iter().map(|(s, v)| (s, *v)).collect();
                let want: Vec<(u64, u64)> = map.iter().map(|(s, v)| (*s, *v)).collect();
                proptest::prop_assert_eq!(got, want);
                let span = map.keys().next_back().zip(map.keys().next()).map_or(0, |(hi, lo)| hi - lo + 1);
                proptest::prop_assert_eq!(ring.slots.len() as u64, span);
            }
        }
    }

    #[test]
    fn receiver_ignores_a_seq_beyond_the_window() {
        let mut tx = flow();
        let mut rx = Flow::new(1, 5, TimelyConfig::default());
        tx.enqueue(msg_frame(1), Nanos::ZERO);
        let mut pkt = tx.produce(Nanos::ZERO).unwrap();
        pkt.seq = MAX_SEQ_WINDOW;
        assert_eq!(rx.on_packet(&pkt, Nanos(1)), Accept::Duplicate);
        assert!(!rx.is_active(), "an untracked packet is not acked");
        assert_eq!(rx.rcv_sacks.len(), 0);
        pkt.seq = MAX_SEQ_WINDOW - 1;
        assert!(matches!(rx.on_packet(&pkt, Nanos(2)), Accept::Deliver(_)));
    }

    #[test]
    fn acked_chunks_are_reported_in_ack_order_once() {
        let mut tx = flow();
        for n in 0..4 {
            tx.enqueue(msg_frame(n), Nanos::ZERO);
            tx.produce(Nanos::from_millis(n)).unwrap();
        }
        // Cumulative ack over seqs 0 and 1; selective acks list 3, then
        // 1 again (already covered) and 3 again (a repeat).
        let pkt = ack(&tx, 2, vec![3, 1, 3]);
        let mut acked = Vec::new();
        tx.on_packet_tracked(&pkt, Nanos::from_millis(10), &mut acked);
        let msgs: Vec<u64> = acked.iter().map(|a| a.msg).collect();
        assert_eq!(msgs, vec![0, 1, 3]);
        assert_eq!(tx.inflight(), 1);
    }

    #[test]
    fn flow_mapper_shares_flows_per_engine_pair() {
        let mut m = FlowMapper::new(3);
        let (f1, new1) = m.flow_for(10, 77);
        let (f2, new2) = m.flow_for(10, 77);
        let (f3, _) = m.flow_for(10, 78);
        assert!(new1);
        assert!(!new2);
        assert_eq!(f1, f2);
        assert_ne!(f1, f3);
        // Engine uid in the high bits keeps ids globally unique.
        assert_eq!(f1 >> 32, 3);
    }

    #[test]
    fn rebuilt_mapper_recovers_its_own_ids_and_skips_peer_flows() {
        // Engine 3 dialled three peers; engines 2 and 5 (one of them a
        // peer it also dialled) opened flows towards it. Sorted by id,
        // as a checkpoint lists them, own and peer flows interleave.
        let mut before = FlowMapper::new(3);
        let own: Vec<(u64, u32, u64)> = [(10, 77), (11, 5), (12, 2)]
            .map(|(host, engine)| (before.flow_for(host, engine).0, host, engine))
            .to_vec();
        let mut held = own.clone();
        held.extend([(2 << 32, 12, 2), (5 << 32 | 1, 11, 5)]);
        held.sort_unstable();

        let mut after = FlowMapper::rebuilt(3, held.iter().copied());
        for &(id, host, engine) in &own {
            assert_eq!(after.flow_for(host, engine), (id, false));
        }
        let (next, fresh) = after.flow_for(13, 9);
        assert!(fresh);
        assert_eq!(
            next,
            before.flow_for(13, 9).0,
            "continues where the old mapper would"
        );
        assert!(
            held.iter().all(|&(id, ..)| id != next),
            "an id nothing holds"
        );
    }
}
