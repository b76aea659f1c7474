//! The packet type moved across the simulated fabric.
//!
//! A [`Packet`] separates what the *NIC and fabric* look at (addresses,
//! steering key, QoS class, wire size) from the *protocol payload*
//! (opaque bytes produced by Pony Express or the TCP model). The fabric
//! never interprets payloads; protocols never see fabric internals —
//! the same layering the paper's stack has.

use bytes::Bytes;
use snap_sim::trace::TraceContext;

use crate::crc::crc32c;

/// Identifies a host (and its NIC) on the fabric.
pub type HostId = u32;

/// Fabric quality-of-service class.
///
/// "The congestion control algorithm we deploy with Pony Express ...
/// runs on dedicated fabric QoS classes" (§3.1); the switch model keeps
/// one egress queue per class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum QosClass {
    /// Latency-sensitive datacenter transport traffic (Pony Express).
    Transport,
    /// Default class for kernel TCP and everything else.
    #[default]
    BestEffort,
}

impl QosClass {
    /// All classes, in strict priority order (highest first).
    pub const ALL: [QosClass; 2] = [QosClass::Transport, QosClass::BestEffort];
}

/// A packet in flight.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Sending host.
    pub src: HostId,
    /// Destination host.
    pub dst: HostId,
    /// Steering key consumed by receive-side filters; `None` falls back
    /// to RSS hashing. Pony Express sets this to the destination engine
    /// id so upgrades can detach/attach exactly one engine's traffic.
    pub steer_key: Option<u64>,
    /// Hash used for RSS queue selection when no filter matches.
    pub rss_hash: u64,
    /// QoS class for switch queueing.
    pub qos: QosClass,
    /// Total size on the wire in bytes (headers + payload), which
    /// drives serialization delay and switch buffer occupancy.
    pub wire_size: u32,
    /// Opaque protocol bytes.
    pub payload: Bytes,
    /// NIC-computed end-to-end CRC32C of the payload (offload, §3.4).
    pub crc: u32,
    /// Causal trace context of the op this packet belongs to, if the
    /// op is being traced. Observation-only: the fabric stamps stage
    /// records against it but never branches on it.
    pub trace: Option<TraceContext>,
}

impl Packet {
    /// Builds a packet, computing the offloaded CRC and a default wire
    /// size of payload length + [`Packet::HEADER_OVERHEAD`].
    pub fn new(src: HostId, dst: HostId, payload: Bytes) -> Packet {
        let crc = crc32c(&payload);
        Packet::with_precomputed_crc(src, dst, payload, crc)
    }

    /// Builds a packet from a payload whose CRC32C the caller already
    /// computed (e.g. fused into the wire-encode pass), skipping the
    /// second scan over the bytes that [`Packet::new`] would do.
    pub fn with_precomputed_crc(src: HostId, dst: HostId, payload: Bytes, crc: u32) -> Packet {
        debug_assert_eq!(crc, crc32c(&payload), "precomputed CRC mismatch");
        Packet {
            src,
            dst,
            steer_key: None,
            rss_hash: 0,
            qos: QosClass::BestEffort,
            wire_size: payload.len() as u32 + Self::HEADER_OVERHEAD,
            payload,
            crc,
            trace: None,
        }
    }

    /// Bytes of link/IP-level framing added to every payload.
    pub const HEADER_OVERHEAD: u32 = 42;

    /// Sets the QoS class (builder style).
    pub fn with_qos(mut self, qos: QosClass) -> Packet {
        self.qos = qos;
        self
    }

    /// Sets the steering key (builder style).
    pub fn with_steer_key(mut self, key: u64) -> Packet {
        self.steer_key = Some(key);
        self
    }

    /// Sets the RSS hash (builder style).
    pub fn with_rss_hash(mut self, hash: u64) -> Packet {
        self.rss_hash = hash;
        self
    }

    /// Verifies the payload against the carried CRC, as the receiving
    /// NIC does. False indicates corruption in flight.
    pub fn crc_ok(&self) -> bool {
        crc32c(&self.payload) == self.crc
    }

    /// Flips one bit of the payload — models in-flight corruption.
    ///
    /// Mutates in place when this packet uniquely owns its payload
    /// buffer (the common case for a packet in flight); falls back to
    /// copy-on-write when the buffer is shared so other holders never
    /// observe the flip.
    pub fn corrupt(&mut self, byte: usize, bit: u8) {
        let len = self.payload.len();
        if len == 0 {
            return;
        }
        let idx = byte % len;
        let mask = 1 << (bit % 8);
        if let Some(data) = self.payload.try_mut() {
            data[idx] ^= mask;
        } else {
            let mut data = self.payload.to_vec();
            data[idx] ^= mask;
            self.payload = Bytes::from(data);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_packet_carries_valid_crc() {
        let p = Packet::new(1, 2, Bytes::from_static(b"hello fabric"));
        assert!(p.crc_ok());
        assert_eq!(p.wire_size, 12 + Packet::HEADER_OVERHEAD);
        assert_eq!(p.src, 1);
        assert_eq!(p.dst, 2);
    }

    #[test]
    fn corruption_is_detected() {
        let mut p = Packet::new(1, 2, Bytes::from_static(b"payload bytes"));
        p.corrupt(5, 3);
        assert!(!p.crc_ok());
    }

    #[test]
    fn builders_set_fields() {
        let p = Packet::new(1, 2, Bytes::new())
            .with_qos(QosClass::Transport)
            .with_steer_key(77)
            .with_rss_hash(123);
        assert_eq!(p.qos, QosClass::Transport);
        assert_eq!(p.steer_key, Some(77));
        assert_eq!(p.rss_hash, 123);
    }

    #[test]
    fn qos_priority_order() {
        assert_eq!(QosClass::ALL[0], QosClass::Transport);
        assert!(QosClass::Transport < QosClass::BestEffort);
    }

    #[test]
    fn corrupt_shared_payload_copies_on_write() {
        let shared = Bytes::from(vec![0u8; 16]);
        let mut p = Packet::new(1, 2, shared.clone());
        p.corrupt(3, 1);
        assert!(!p.crc_ok());
        assert_eq!(shared, vec![0u8; 16], "other holders are unaffected");
    }

    #[test]
    fn precomputed_crc_constructor_matches_new() {
        let payload = Bytes::from_static(b"fused crc path");
        let crc = crate::crc::crc32c(&payload);
        let p = Packet::with_precomputed_crc(1, 2, payload.clone(), crc);
        let q = Packet::new(1, 2, payload);
        assert_eq!(p.crc, q.crc);
        assert_eq!(p.wire_size, q.wire_size);
        assert!(p.crc_ok());
    }

    #[test]
    fn corrupt_empty_payload_is_noop() {
        let mut p = Packet::new(1, 2, Bytes::new());
        p.corrupt(0, 0);
        assert!(p.crc_ok());
    }
}
