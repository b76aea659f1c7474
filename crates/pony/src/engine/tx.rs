//! The transmit seam: the round-robin send scheduler that tops flows
//! up with message chunks, just-in-time packet generation (§3.1), and
//! what the peer's acknowledgements complete.

use bytes::Bytes;

use snap_nic::packet::{Packet, QosClass};
use snap_sim::costs;
use snap_sim::trace::Stage;
use snap_sim::{Nanos, Sim};

use super::{insert_sorted, stamp_on, PonyEngine, SMALL_MSG_BYTES};
use crate::client::OpStatus;
use crate::wire::OpFrame;

impl PonyEngine {
    /// The send scheduler: tops up each flow's outbound queue from its
    /// connections' pending sends — one chunk per *stream* per round,
    /// FIFO within a stream — so concurrent streams interleave without
    /// head-of-line blocking each other (§3.3).
    pub(super) fn fill_flows(&mut self, now: Nanos) {
        const OUTQ_TARGET: usize = 64;
        let mtu = self.cfg.mtu as u64;
        // Ascending connection id, so the top-up order (and hence
        // intra-train packet order) is identical across same-seed
        // runs. Nothing in the loop adds to `ready_conns`.
        for i in 0..self.ready_conns.len() {
            let conn_id = self.ready_conns[i];
            // The connection and its flow are resolved once per pass,
            // the stream's FIFO and the send once per chunk.
            let Some(conn) = self.conns.get_mut(&conn_id) else {
                continue;
            };
            let Some(peer) = self.flows.get_mut(&conn.flow) else {
                continue;
            };
            let queued_before = peer.flow.pending_tx();
            while peer.flow.pending_tx() < OUTQ_TARGET {
                let Some(stream) = conn.stream_queue.pop_front() else {
                    break;
                };
                let Some(msgs) = conn.per_stream.get_mut(&stream) else {
                    continue;
                };
                let Some(&msg) = msgs.front() else {
                    conn.per_stream.remove(&stream);
                    continue;
                };
                let Some(send) = self.send_msgs.get_mut(&(conn_id, stream, msg)) else {
                    msgs.pop_front();
                    if !msgs.is_empty() {
                        conn.stream_queue.push_back(stream);
                    }
                    continue;
                };
                let offset = send.next_offset;
                let chunk = (send.total - offset).min(mtu) as u32;
                send.next_offset += chunk as u64;
                peer.flow.enqueue(
                    OpFrame::MsgChunk {
                        conn: conn_id,
                        stream,
                        msg,
                        offset,
                        total: send.total,
                        len: chunk,
                    },
                    now,
                );
                if send.next_offset >= send.total {
                    msgs.pop_front();
                }
                if msgs.is_empty() {
                    conn.per_stream.remove(&stream);
                } else {
                    // Back of the round-robin: other streams get a turn.
                    conn.stream_queue.push_back(stream);
                }
            }
            if peer.flow.pending_tx() > queued_before {
                insert_sorted(&mut self.ready_flows, conn.flow);
            }
        }
    }

    /// Processes the chunks the peer newly acked (`acked_buf`, as the
    /// flow left them): completes sends whose chunks are all
    /// acknowledged, returning small-message credits.
    pub(super) fn process_acked(&mut self, now: Nanos) {
        let mut acked = std::mem::take(&mut self.acked_buf);
        for chunk in acked.drain(..) {
            let key = (chunk.conn, chunk.stream, chunk.msg);
            let Some(send) = self.send_msgs.get_mut(&key) else {
                continue;
            };
            insert_sorted(&mut send.acked_offsets, chunk.offset);
            if send.next_offset < send.total || (send.acked_offsets.len() as u32) < send.chunks {
                continue;
            }
            let send = self.send_msgs.remove(&key).expect("just looked up");
            self.stats.ops_completed += 1;
            // The send's quota charge is returned now that every chunk
            // is acknowledged and its memory is reclaimable.
            if let Some(adm) = &self.admission {
                adm.release(&self.cfg.container, send.total);
                self.charged_bytes = self.charged_bytes.saturating_sub(send.total);
            }
            if send.total <= SMALL_MSG_BYTES {
                if let Some(c) = self.conns.get_mut(&chunk.conn) {
                    c.small_credits += 1;
                }
                self.retry_held(send.issued_at, chunk.conn);
            }
            // All chunks acked: the send op is done. The trailing
            // interval (last data tx to the ack's arrival) lands in the
            // Complete stage since acks travel untraced.
            self.conclude(now, send.op, OpStatus::Ok, vec![], send.issued_at);
        }
        self.acked_buf = acked;
    }

    /// Just-in-time packet generation: drain flows while tx descriptor
    /// slots and pacing allow (§3.1), staging a packet train and handing
    /// it to the fabric as ONE burst so fixed per-transmit costs (event
    /// scheduling, doorbell) amortize across the train.
    pub(super) fn generate_packets(&mut self, sim: &mut Sim) -> (Nanos, usize) {
        let now = sim.now();
        let budget = self.cfg.poll_batch * 2;
        let slots = self
            .fabric
            .with_nic(self.cfg.host, |nic| nic.tx_slots_available(self.cfg.queue));
        let max = budget.min(slots);
        let mut batch = std::mem::take(&mut self.tx_batch);
        batch.clear();
        // Ascending flow id: per-packet positions inside the staged
        // train are observable (per-packet uplink/egress serialization
        // stamps), even though train-level event times only depend on
        // the max. Nothing in the loop adds to `ready_flows`.
        'outer: for i in 0..self.ready_flows.len() {
            let fid = self.ready_flows[i];
            let peer = self.flows.get_mut(&fid).expect("listed");
            loop {
                if batch.len() >= max {
                    break 'outer;
                }
                let rtx_before = peer.flow.stats().retransmits;
                let Some(mut pkt) = peer.flow.produce(now) else {
                    break;
                };
                // A retransmit counter bump during this produce() call
                // means THIS packet is the retransmission.
                let is_rtx = peer.flow.stats().retransmits > rtx_before;
                // Attribute the packet to the op it carries and stamp
                // the context into the wire header (v6 flows only).
                pkt.trace = match &pkt.frame {
                    OpFrame::MsgChunk {
                        conn, stream, msg, ..
                    } => self
                        .send_msgs
                        .get(&(*conn, *stream, *msg))
                        .and_then(|s| s.op.trace),
                    OpFrame::ReadReq { op, .. }
                    | OpFrame::WriteReq { op, .. }
                    | OpFrame::IndirectReadReq { op, .. }
                    | OpFrame::ScanReadReq { op, .. } => {
                        self.pending_ops.get(op).and_then(|p| p.op.trace)
                    }
                    // Consumed on first generation; a retransmitted
                    // response travels untraced.
                    OpFrame::OneSidedResp { op, .. } => self.resp_traces.remove(op),
                    OpFrame::BufferPost { .. } | OpFrame::AckOnly => None,
                };
                if is_rtx {
                    self.stats.retransmits += 1;
                    stamp_on(
                        self.recorder.as_ref(),
                        self.cfg.host,
                        pkt.trace,
                        Stage::Retransmit,
                        now,
                    );
                }
                // Encode into the engine scratch (no growth reallocs
                // once warm) and CRC the encoded bytes right here, so
                // Packet construction skips its own CRC pass.
                self.tx_scratch.clear();
                pkt.encode_into(&mut self.tx_scratch);
                let crc = snap_nic::crc::crc32c(self.tx_scratch.as_slice());
                let payload = Bytes::copy_from_slice(self.tx_scratch.as_slice());
                let mut nic_pkt =
                    Packet::with_precomputed_crc(self.cfg.host, peer.remote_host, payload, crc);
                nic_pkt.wire_size = pkt.wire_size() + Packet::HEADER_OVERHEAD;
                // The fabric stamps its hop records against this.
                nic_pkt.trace = pkt.trace;
                // Encoded: the ack list goes back for the next packet.
                peer.flow.reclaim_sacks(pkt.sacks);
                batch.push(
                    nic_pkt
                        .with_qos(QosClass::Transport)
                        .with_steer_key(peer.remote_engine)
                        .with_rss_hash(fid),
                );
            }
        }
        let staged = batch.len();
        // Per-burst fixed cost + per-packet marginal cost (batch of one
        // costs exactly what the unbatched path charged).
        let cpu = costs::pony_batch_cost(staged);
        let sent = if staged > 0 {
            self.fabric.transmit_burst(sim, self.cfg.queue, &mut batch)
        } else {
            0
        };
        // `max` was bounded by the slots available, so the whole train
        // is normally accepted; any leftover (slot raced away) is
        // dropped here and recovered by RTO, exactly like the TxBusy
        // path of single-packet transmit.
        batch.clear();
        self.tx_batch = batch;
        self.stats.tx_packets += sent as u64;
        (cpu, sent)
    }
}
