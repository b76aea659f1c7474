//! The receive seam: the NIC rx poll, what each delivered frame does —
//! reassembly and in-order delivery of two-sided messages (§3.3),
//! completion of one-sided ops — and one-sided service against local
//! regions (§3.2).

use snap_shm::region::RegionId;
use snap_sim::costs;
use snap_sim::trace::{Stage, TraceContext};
use snap_sim::Nanos;

use super::{insert_sorted, PeerFlow, PonyEngine, RecvMsg, SMALL_MSG_BYTES};
use crate::client::{OpStatus, PonyCompletion};
use crate::flow::{Accept, Flow};
use crate::wire::{OpFrame, PonyPacket};

impl PonyEngine {
    /// Step 1 of the pass: polls the NIC rx ring (bounded batch, §3.1)
    /// and takes every packet through its flow and, if it is fresh, its
    /// frame handler. Returns the CPU charged and the packets polled.
    pub(super) fn poll_rx(&mut self, now: Nanos) -> (Nanos, usize) {
        let mut rx = std::mem::take(&mut self.rx_buf);
        rx.clear();
        let (queue, batch) = (self.cfg.queue, self.cfg.poll_batch);
        self.fabric.with_nic(self.cfg.host, |nic| {
            nic.poll_rx(queue, batch, &mut rx);
        });
        let polled = rx.len();
        // Per-burst fixed cost + per-packet marginal cost for the whole
        // rx train (frame handling costs are still charged per frame).
        let mut cpu = costs::pony_batch_cost(polled);
        for pkt in rx.drain(..) {
            self.stats.rx_packets += 1;
            // Decode straight out of the refcounted packet payload:
            // data-carrying frames slice it instead of copying.
            let Ok(ppkt) = PonyPacket::decode_bytes(&pkt.payload) else {
                continue;
            };
            let flow_id = ppkt.flow;
            // Remote-initiated flows materialize on first packet. The
            // reverse path steers by the *source* engine key, which the
            // wire protocol encodes in the flow id's high bits
            // (FlowMapper layout).
            let flow = &mut self
                .flows
                .entry(flow_id)
                .or_insert_with(|| PeerFlow {
                    flow: Flow::new(flow_id, ppkt.version, self.cfg.cc.clone()),
                    remote_host: pkt.src,
                    remote_engine: flow_id >> 32,
                })
                .flow;
            let dups_before = flow.stats().duplicates;
            let accept = flow.on_packet_tracked(&ppkt, now, &mut self.acked_buf);
            self.stats.duplicates += flow.stats().duplicates - dups_before;
            // The packet may have left an ack owed.
            if flow.is_active() {
                insert_sorted(&mut self.ready_flows, flow_id);
            }
            self.process_acked(now);
            if let Accept::Deliver(frame) = accept {
                // A traced packet reached this engine's poll loop: the
                // remote-dequeue stamp (NIC delivery -> engine pickup).
                self.stamp(ppkt.trace, Stage::RemoteDequeue, now);
                cpu += self.handle_frame(now, flow_id, frame, ppkt.trace);
            }
        }
        self.rx_buf = rx;
        (cpu, polled)
    }

    /// The cost of landing `bytes` received bytes in application
    /// memory: an inline per-byte copy, or its hand-off to the I/OAT
    /// engine (Table 1).
    fn rx_copy_cost(&self, bytes: u64) -> Nanos {
        if self.cfg.use_ioat {
            Nanos(costs::IOAT_SETUP_NS)
        } else {
            costs::copy_cost(bytes)
        }
    }

    /// Handles a frame delivered by the flow layer; returns CPU charged.
    /// `trace` is the wire-carried context of the packet that delivered
    /// the frame (present only on v6 flows with tracing enabled).
    fn handle_frame(
        &mut self,
        now: Nanos,
        flow_id: u64,
        frame: OpFrame,
        trace: Option<TraceContext>,
    ) -> Nanos {
        match frame {
            OpFrame::MsgChunk {
                conn,
                stream,
                msg,
                offset,
                total,
                len,
            } => {
                let entry = self
                    .recv_msgs
                    .entry((conn, stream, msg))
                    .or_insert(RecvMsg {
                        total,
                        received: 0,
                        offsets: Vec::new(),
                    });
                if insert_sorted(&mut entry.offsets, offset) {
                    entry.received += len as u64;
                }
                if entry.received >= entry.total {
                    self.recv_msgs.remove(&(conn, stream, msg));
                    self.msg_complete(conn, stream, msg, total);
                }
                self.rx_copy_cost(len as u64)
            }
            OpFrame::BufferPost { conn, count } => {
                if let Some(c) = self.conns.get_mut(&conn) {
                    c.remote_posted += count;
                }
                self.retry_held(now, conn);
                Nanos(50)
            }
            OpFrame::OneSidedResp { op, status, data } => {
                if let Some(pending) = self.pending_ops.remove(&op) {
                    self.stats.ops_completed += 1;
                    let status = if status == 0 {
                        OpStatus::Ok
                    } else {
                        OpStatus::RemoteAccessError
                    };
                    // The completion queue models the copy into
                    // app-owned shared memory, so this boundary copies
                    // by design.
                    self.conclude(now, pending.op, status, data.to_vec(), pending.issued_at);
                }
                self.rx_copy_cost(data.len() as u64)
            }
            req @ (OpFrame::ReadReq { .. }
            | OpFrame::WriteReq { .. }
            | OpFrame::IndirectReadReq { .. }
            | OpFrame::ScanReadReq { .. }) => self.serve_onesided(now, flow_id, req, trace),
            OpFrame::AckOnly => Nanos::ZERO,
        }
    }

    /// A fully reassembled message: deliver in per-stream order.
    fn msg_complete(&mut self, conn_id: u64, stream: u32, msg: u64, total: u64) {
        let Some(conn) = self.conns.get_mut(&conn_id) else {
            return;
        };
        conn.ready.insert((stream, msg), total);
        let mut deliveries = Vec::new();
        let next = conn.next_deliver.entry(stream).or_insert(0);
        while let Some(len) = conn.ready.remove(&(stream, *next)) {
            deliveries.push((conn_id, stream, *next, len));
            *next += 1;
            if len > SMALL_MSG_BYTES {
                conn.local_posted = conn.local_posted.saturating_sub(1);
            }
        }
        let session = conn.session;
        for (conn, stream, msg, len) in deliveries {
            self.stats.msgs_delivered += 1;
            self.complete(
                session,
                PonyCompletion::RecvMsg {
                    conn,
                    stream,
                    msg,
                    len,
                },
            );
        }
    }

    /// Reads `len` bytes of a local region on a remote initiator's
    /// behalf; `None` is any refusal (unknown region, out of bounds).
    fn read_region(&self, region: u64, offset: u64, len: u32) -> Option<Vec<u8>> {
        self.regions
            .read(RegionId(region), offset as usize, len as usize)
            .ok()
    }

    /// [`PonyEngine::read_region`] at a packed target, as indirection
    /// tables and scan entries store them: region id in the high 32
    /// bits, byte offset in the low.
    fn read_target(&self, target: u64, len: u32) -> Option<Vec<u8>> {
        self.read_region(target >> 32, target & 0xFFFF_FFFF, len)
    }

    /// Executes a one-sided request against local regions, entirely in
    /// the engine (§3.2: "one-sided operations do not involve any
    /// application code on the destination"). Returns the CPU charged.
    fn serve_onesided(
        &mut self,
        now: Nanos,
        flow_id: u64,
        frame: OpFrame,
        trace: Option<TraceContext>,
    ) -> Nanos {
        let mut cpu = Nanos(costs::PONY_ONESIDED_READ_NS);
        // What the response carries; `None` is a refused access.
        let (op, result) = match frame {
            OpFrame::ReadReq {
                op,
                region,
                offset,
                len,
            } => (op, self.read_region(region, offset, len)),
            OpFrame::WriteReq {
                op,
                region,
                offset,
                data,
            } => {
                let written = self.regions.write(RegionId(region), offset as usize, &data);
                (op, written.ok().map(|()| Vec::new()))
            }
            OpFrame::IndirectReadReq {
                op,
                table,
                indices,
                len,
            } => {
                cpu += Nanos(costs::PONY_INDIRECTION_NS) * indices.len() as u64;
                let mut out = Vec::with_capacity(indices.len() * len as usize);
                let all_read = indices.iter().try_for_each(|&index| {
                    let entry = self.regions.read_u64(RegionId(table), index as usize * 8);
                    out.append(&mut self.read_target(entry.ok()?, len)?);
                    Some(())
                });
                (op, all_read.map(|()| out))
            }
            OpFrame::ScanReadReq {
                op,
                region,
                key,
                len,
            } => {
                // Scan a small region of 16-byte (key, target) entries.
                let found = self.regions.with_data(RegionId(region), |data| {
                    let word = |at: usize| {
                        u64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes"))
                    };
                    let entries = data.len() / 16;
                    cpu += Nanos(5) * entries as u64;
                    (0..entries)
                        .find(|i| word(i * 16) == key)
                        .map(|i| word(i * 16 + 8))
                });
                let target = found.ok().flatten();
                (op, target.and_then(|t| self.read_target(t, len)))
            }
            _ => unreachable!("serve_onesided called with non-request frame"),
        };
        self.stats.onesided_served += 1;
        // The execution stamp closes the remote-dequeue interval; the
        // context is parked for the response packet's return-path
        // stamps.
        self.stamp(trace, Stage::OpExecute, now);
        if let Some(ctx) = trace {
            self.resp_traces.insert(op, ctx);
        }
        let resp = OpFrame::OneSidedResp {
            op,
            status: u8::from(result.is_none()),
            data: result.unwrap_or_default().into(),
        };
        self.enqueue(flow_id, resp, now);
        cpu
    }
}
