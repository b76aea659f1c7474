//! The engine checkpoint (§4): the bytes [`Engine::serialize_state`]
//! emits and [`PonyEngine::restore`] reads back.
//!
//! The format is described once: every record has its `write` directly
//! above its `read`, field for field, and [`PonyEngine::checkpoint`] /
//! [`PonyEngine::restore`] list the sections in file order. Sequences
//! are `u32` counts followed by the items in ascending key order
//! (`Writer::seq` / `Reader::seq`); an absent session is a zero behind
//! a `false` byte (`opt_u64`). Trace contexts are deliberately not
//! checkpointed: a restored op continues untraced.
//!
//! Whatever can be worked out from those records is not stored; it is
//! rebuilt in one place, [`PonyEngine::rebuild_derived`].
//!
//! [`Engine::serialize_state`]: snap_core::Engine::serialize_state

use std::collections::VecDeque;

use snap_nic::fabric::FabricHandle;
use snap_shm::region::RegionRegistry;
use snap_sim::codec::{DecodeError, Reader, Writer};
use snap_sim::hash::IntMap;
use snap_sim::Nanos;

use super::{
    ConnState, Op, OpKind, PeerFlow, PendingOp, PonyEngine, PonyEngineConfig, RecvMsg, SendMsg,
    SessionTable,
};
use crate::flow::{Flow, FlowMapper};
use crate::timely::TimelyConfig;

/// A map's entries in ascending key order: the order sequences are
/// written in, so the same state always gives the same bytes.
fn sorted<K: Copy + Ord, V>(map: &IntMap<K, V>) -> Vec<(K, &V)> {
    let mut entries: Vec<(K, &V)> = map.iter().map(|(k, v)| (*k, v)).collect();
    entries.sort_unstable_by_key(|&(k, _)| k);
    entries
}

/// A `(stream, next message id)` pair: the item of `next_msg`,
/// `next_deliver` and the pending-send list.
fn write_stream_msg(w: &mut Writer, (stream, msg): (u32, &u64)) {
    w.u32(stream).u64(*msg);
}

fn read_stream_msg(r: &mut Reader) -> Result<(u32, u64), DecodeError> {
    Ok((r.u32()?, r.u64()?))
}

/// The `(conn, stream, msg)` key of a send or a reassembly.
fn write_msg_key(w: &mut Writer, (conn, stream, msg): (u64, u32, u64)) {
    w.u64(conn).u32(stream).u64(msg);
}

fn read_msg_key(r: &mut Reader) -> Result<(u64, u32, u64), DecodeError> {
    Ok((r.u64()?, r.u32()?, r.u64()?))
}

/// Chunk offsets, ascending and duplicate-free as `insert_sorted`
/// keeps them (it binary-searches the list, so disorder is damage).
fn write_offsets(w: &mut Writer, offsets: &[u64]) {
    w.seq(offsets, |w, &offset| {
        w.u64(offset);
    });
}

fn read_offsets(r: &mut Reader) -> Result<Vec<u64>, DecodeError> {
    let offsets: Vec<u64> = r.seq(Reader::u64)?;
    if offsets.windows(2).any(|pair| pair[0] >= pair[1]) {
        return Err(DecodeError);
    }
    Ok(offsets)
}

impl TryFrom<u8> for OpKind {
    type Error = DecodeError;

    fn try_from(byte: u8) -> Result<OpKind, DecodeError> {
        use OpKind::*;
        [Send, Read, Write, IndirectRead, ScanRead]
            .into_iter()
            .find(|kind| *kind as u8 == byte)
            .ok_or(DecodeError)
    }
}

impl ConnState {
    fn write(&self, w: &mut Writer) {
        w.u64(self.id)
            .u64(self.flow)
            .u32(self.remote_host)
            .u64(self.remote_engine)
            .opt_u64(self.session)
            .u32(self.remote_posted)
            .u32(self.local_posted)
            .u32(self.small_credits);
        w.seq(&self.held, |w, &(op, stream, len, _trace)| {
            w.u64(op).u32(stream).u64(len);
        });
        // Pending sends, flattened as (stream, msg) pairs; message ids
        // ascend within a stream, so sorting keeps each FIFO's order.
        let mut pending: Vec<(u32, &u64)> = self
            .per_stream
            .iter()
            .flat_map(|(stream, msgs)| msgs.iter().map(move |msg| (*stream, msg)))
            .collect();
        pending.sort_unstable();
        w.seq(pending, write_stream_msg);
        w.seq(sorted(&self.next_msg), write_stream_msg);
        w.seq(sorted(&self.next_deliver), write_stream_msg);
        w.seq(sorted(&self.ready), |w, ((stream, msg), len)| {
            w.u32(stream).u64(msg).u64(*len);
        });
    }

    fn read(r: &mut Reader) -> Result<ConnState, DecodeError> {
        let mut conn = ConnState {
            id: r.u64()?,
            flow: r.u64()?,
            remote_host: r.u32()?,
            remote_engine: r.u64()?,
            session: r.opt_u64()?,
            remote_posted: r.u32()?,
            local_posted: r.u32()?,
            small_credits: r.u32()?,
            held: r.seq(|r| Ok((r.u64()?, r.u32()?, r.u64()?, None)))?,
            stream_queue: VecDeque::new(),
            per_stream: IntMap::default(),
            next_msg: IntMap::default(),
            next_deliver: IntMap::default(),
            ready: IntMap::default(),
        };
        for (stream, msg) in r.seq::<_, Vec<_>>(read_stream_msg)? {
            conn.per_stream.entry(stream).or_default().push_back(msg);
        }
        conn.next_msg = r.seq(read_stream_msg)?;
        conn.next_deliver = r.seq(read_stream_msg)?;
        conn.ready = r.seq(|r| Ok(((r.u32()?, r.u64()?), r.u64()?)))?;
        Ok(conn)
    }
}

impl PeerFlow {
    fn write(&self, w: &mut Writer) {
        w.u32(self.remote_host)
            .u64(self.remote_engine)
            .bytes(&self.flow.serialize());
    }

    fn read(r: &mut Reader, cc: &TimelyConfig, now: Nanos) -> Result<PeerFlow, DecodeError> {
        Ok(PeerFlow {
            remote_host: r.u32()?,
            remote_engine: r.u64()?,
            flow: Flow::deserialize(r.bytes()?, cc.clone(), now)?,
        })
    }
}

impl SendMsg {
    fn write(&self, w: &mut Writer) {
        w.u64(self.op.id)
            .opt_u64(self.op.session)
            .u64(self.total)
            .u32(self.chunks)
            .u64(self.issued_at.as_nanos())
            .u64(self.next_offset);
        write_offsets(w, &self.acked_offsets);
    }

    fn read(r: &mut Reader) -> Result<SendMsg, DecodeError> {
        let (id, session) = (r.u64()?, r.opt_u64()?);
        Ok(SendMsg {
            op: Op {
                id,
                session,
                trace: None,
            },
            total: r.u64()?,
            chunks: r.u32()?,
            issued_at: Nanos(r.u64()?),
            next_offset: r.u64()?,
            acked_offsets: read_offsets(r)?,
        })
    }
}

impl RecvMsg {
    fn write(&self, w: &mut Writer) {
        w.u64(self.total);
        write_offsets(w, &self.offsets);
    }

    fn read(r: &mut Reader) -> Result<RecvMsg, DecodeError> {
        Ok(RecvMsg {
            total: r.u64()?,
            offsets: read_offsets(r)?,
            received: 0,
        })
    }
}

impl PendingOp {
    /// The op id leads the record: it is the map key.
    fn write(&self, w: &mut Writer) {
        w.u64(self.op.id)
            .u8(self.kind as u8)
            .u64(self.conn)
            .opt_u64(self.op.session)
            .u64(self.issued_at.as_nanos());
    }

    fn read(r: &mut Reader) -> Result<PendingOp, DecodeError> {
        let (id, kind, conn) = (r.u64()?, OpKind::try_from(r.u8()?)?, r.u64()?);
        let op = Op {
            id,
            session: r.opt_u64()?,
            trace: None,
        };
        let issued_at = Nanos(r.u64()?);
        Ok(PendingOp {
            op,
            kind,
            conn,
            issued_at,
        })
    }
}

impl PonyEngine {
    /// The engine's state as checkpoint bytes.
    pub(super) fn checkpoint(&self) -> Vec<u8> {
        let mut w = Writer::with_capacity(4096);
        w.string(&self.cfg.name);
        w.seq(&self.owned_sessions, |w, &sid| {
            w.u64(sid);
        });
        w.seq(sorted(&self.conns), |w, (_, conn)| conn.write(w));
        w.seq(sorted(&self.flows), |w, (_, peer)| peer.write(w));
        w.seq(sorted(&self.send_msgs), |w, (key, send)| {
            write_msg_key(w, key);
            send.write(w);
        });
        w.seq(sorted(&self.recv_msgs), |w, (key, recv)| {
            write_msg_key(w, key);
            recv.write(w);
        });
        w.seq(sorted(&self.pending_ops), |w, (_, pending)| {
            pending.write(w)
        });
        // Per-session hedge-dedup watermarks: without them a hedge
        // duplicate arriving after a restart would re-execute its op.
        w.seq(sorted(&self.session_watermarks), |w, (sid, op)| {
            w.u64(sid).u64(*op);
        });
        w.finish()
    }

    /// Restores an engine from [`Engine::serialize_state`] output plus
    /// re-injected runtime handles (the new Snap instance's fabric,
    /// regions and sessions — transferred during brownout).
    ///
    /// Returns an error — never panics — on a snapshot that is
    /// truncated or runs past its last section; that holds a flow body
    /// [`Flow::deserialize`] rejects, an op-kind byte no version wrote
    /// or a chunk-offset list out of order; or whose records contradict
    /// each other (a connection on a flow the snapshot lacks, a send
    /// scheduled past its length, a chunk offset beyond its message).
    /// Callers (upgrade factories, supervisor restart) map the error
    /// into a typed failure that triggers rollback or a fresh start.
    ///
    /// [`Engine::serialize_state`]: snap_core::Engine::serialize_state
    pub fn restore(
        state: &[u8],
        mut cfg: PonyEngineConfig,
        fabric: FabricHandle,
        regions: RegionRegistry,
        sessions: SessionTable,
        now: Nanos,
    ) -> Result<PonyEngine, DecodeError> {
        let mut r = Reader::new(state);
        cfg.name = r.string()?;
        let mut engine = PonyEngine::new(cfg, fabric, regions, sessions);
        engine.owned_sessions = r.seq(Reader::u64)?;
        engine.conns = r.seq(|r| ConnState::read(r).map(|conn| (conn.id, conn)))?;
        let cc = &engine.cfg.cc;
        engine.flows = r.seq(|r| PeerFlow::read(r, cc, now).map(|peer| (peer.flow.id, peer)))?;
        engine.send_msgs = r.seq(|r| Ok((read_msg_key(r)?, SendMsg::read(r)?)))?;
        engine.recv_msgs = r.seq(|r| Ok((read_msg_key(r)?, RecvMsg::read(r)?)))?;
        engine.pending_ops =
            r.seq(|r| PendingOp::read(r).map(|pending| (pending.op.id, pending)))?;
        engine.session_watermarks = r.seq(|r| Ok((r.u64()?, r.u64()?)))?;
        if !r.is_exhausted() {
            return Err(DecodeError);
        }
        engine.rebuild_derived()?;
        Ok(engine)
    }

    /// Rebuilds everything a checkpoint leaves out because the records
    /// imply it, checking on the way that they do:
    ///
    /// * the flow mapper, from the flows this engine allocated (a
    ///   peer's flow never enters it);
    /// * each connection's `stream_queue`, from its per-stream FIFOs;
    /// * each reassembly's `received` byte count, from its chunk
    ///   offsets and the MTU chunking rule;
    /// * the ready sets, by full scan: restored flows re-enter with
    ///   queued frames, restored connections with streams to schedule.
    ///
    /// The quota charge for restored in-flight sends is derived too, in
    /// [`PonyEngine::set_admission`], once a controller is attached.
    fn rebuild_derived(&mut self) -> Result<(), DecodeError> {
        let held = self
            .flows
            .values()
            .map(|p| (p.flow.id, p.remote_host, p.remote_engine));
        self.mapper = FlowMapper::rebuilt(self.cfg.uid(), held);
        for conn in self.conns.values_mut() {
            if !self.flows.contains_key(&conn.flow) {
                return Err(DecodeError);
            }
            let mut streams: Vec<u32> = conn.per_stream.keys().copied().collect();
            streams.sort_unstable();
            conn.stream_queue = streams.into();
        }
        if self.send_msgs.values().any(|s| s.next_offset > s.total) {
            return Err(DecodeError);
        }
        let mtu = u64::from(self.cfg.mtu);
        for recv in self.recv_msgs.values_mut() {
            for &offset in &recv.offsets {
                recv.received += recv.total.checked_sub(offset).ok_or(DecodeError)?.min(mtu);
            }
        }
        (self.ready_flows, self.ready_conns) = self.scan_ready();
        Ok(())
    }
}
