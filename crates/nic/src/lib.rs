//! Virtual NIC and fabric substrate.
//!
//! The paper's evaluation runs on 50 and 100 Gbps NICs attached to a
//! datacenter fabric. This crate provides the simulated stand-ins:
//!
//! * [`packet::Packet`] — the unit moved through the system, carrying
//!   an opaque protocol payload (Pony Express wire bytes, TCP-model
//!   segments) plus the fields the NIC itself looks at (steering key,
//!   QoS class, wire size).
//! * [`crc::crc32c`] — the end-to-end invariant CRC32 the paper
//!   offloads to the NIC ("an end-to-end invariant CRC32 calculation
//!   over each packet", §3.4), implemented and verified against
//!   published test vectors.
//! * [`nic::VirtNic`] — a multi-queue NIC with bounded rx descriptor
//!   rings, RSS steering, attachable receive filters (the unit the
//!   transparent-upgrade flow detaches and re-attaches, §4), tx
//!   descriptor slot accounting (driving just-in-time packet
//!   generation, §3.1), and queue ownership: each queue claimed by one
//!   owner, whose interrupt handler a delivery into the queue raises.
//! * [`fabric::Fabric`] — links + a top-of-rack switch with per-QoS
//!   egress queues, serialization/propagation delays, bounded buffers
//!   with tail drop, and injectable random loss.
//!
//! Everything here is driven by the single-threaded [`snap_sim::Sim`]
//! event loop; handles are `Rc`-based by design.

// The crate's only `unsafe` is the CRC's call of the CPU's `crc32`
// instruction (`crc::crc32c_append`), which states why it is sound.
#![deny(unsafe_op_in_unsafe_fn, clippy::undocumented_unsafe_blocks)]

pub mod crc;
pub mod fabric;
pub mod nic;
pub mod packet;

pub use fabric::{
    ClosSpec, DropReasons, Fabric, FabricConfig, FabricHandle, FabricStats, LinkStats, SwitchId,
    TrunkStats,
};
pub use nic::{NicConfig, NicStats, VirtNic};
pub use packet::{HostId, Packet, QosClass};
