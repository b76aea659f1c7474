//! What the fabric counts: four structs of plain `u64` counters. Each
//! is declared through [`snap_sim::counter_table!`], which also gives it
//! the one `counters()` table a consumer (telemetry, a conservation
//! check) walks instead of naming fields — so a counter added to a
//! struct is published from the line that declares it, under the
//! field's own name unless that line says otherwise.

use snap_sim::counter_table;

counter_table! {
    /// Fabric counters, published as `fabric.<name>`. Every row but
    /// `delivered`, `corrupted` (delivered, then CRC-rejected), `pauses`
    /// and `rerouted` counts packets the fabric dropped.
    #[derive(Debug, Clone, Default)]
    pub struct FabricStats {
        /// Packets delivered to a destination NIC.
        pub delivered: u64,
        /// Packets dropped at a full switch egress buffer.
        pub switch_drops: u64,
        /// Packets dropped by random loss injection.
        pub random_drops: u64,
        /// Packets dropped at the switch because their src/dst pair was
        /// partitioned.
        pub partition_drops: u64,
        /// Packets whose payload was corrupted in flight (they continue to
        /// the destination, where the CRC check rejects them).
        pub corrupted: u64,
        /// Packets silently dropped by a per-link gray loss fault.
        pub lossy_drops: u64,
        /// PFC pause storms injected against egress ports.
        pub pauses: u64,
        /// Packets rerouted around a quarantined link via an alternate path.
        pub rerouted: u64,
        /// Best-effort packets shed on a quarantined link (degraded mode
        /// sheds the best-effort class first, §2.5).
        pub quarantine_sheds: u64,
        /// Packets dropped by a browned-out leaf switch (topology fault).
        pub brownout_drops: u64,
        /// Cross-rack packets dropped because no spine with live trunks to
        /// both leaves remained (topology fault).
        pub trunk_down_drops: u64,
    }
}

counter_table! {
    /// Why packets destined to one host were lost — the per-host drop
    /// breakdown surfaced through
    /// [`FabricHandle::drop_reasons`](super::FabricHandle::drop_reasons).
    /// Combines switch-side fault-injection counters with the destination
    /// NIC's own receive-path drop counters. Published as
    /// `fabric.host<h>.drops.<name>`.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct DropReasons {
        /// Packets the NIC rejected because the end-to-end CRC failed.
        pub crc_bad: u64,
        /// Packets dropped at the switch by an active fabric partition.
        pub partition: u64,
        /// Packets whose payload the fabric corrupted in flight.
        pub corruption: u64,
        /// Packets dropped because the target rx ring was full.
        pub no_buffer: u64,
        /// Packets silently dropped by a gray lossy-link fault. No CRC
        /// evidence reaches the receiver — only probing or retransmit
        /// telemetry surfaces these.
        pub lossy: u64,
        /// Best-effort packets shed because their link was quarantined.
        pub quarantined: u64,
        /// Packets dropped by a browned-out leaf switch on the path.
        pub brownout: u64,
        /// Cross-rack packets dropped for want of a live trunk path.
        pub trunk_down: u64,
    }
}

impl DropReasons {
    /// Total drops across all reasons.
    pub fn total(&self) -> u64 {
        self.counters().iter().map(|&(_, n)| n).sum()
    }
}

counter_table! {
    /// Per-directed-link (`src -> dst`) traffic and drop counters, surfaced
    /// through [`FabricHandle::links`](super::FabricHandle::links).
    /// Directed so telemetry can tell which side of an asymmetric partition
    /// is black-holing traffic. Published as `fabric.link.<a>-><b>.<name>`,
    /// the link's share of a drop reason as `drops.<reason>`.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct LinkStats {
        /// Wire bytes delivered `src -> dst` (for utilization gauges).
        pub bytes: u64,
        /// Packets delivered `src -> dst`.
        pub delivered: u64,
        /// Packets `src -> dst` dropped by a partition (symmetric or
        /// one-way) at the switch.
        pub partition_drops: u64 = "drops.partition",
        /// Packets `src -> dst` corrupted in flight (they still burn
        /// bandwidth; the destination NIC CRC-rejects them).
        pub corrupted: u64 = "drops.corruption",
        /// Packets `src -> dst` silently dropped by a gray lossy-link
        /// fault (no CRC evidence at the receiver).
        pub lossy_drops: u64 = "drops.lossy",
        /// Packets `src -> dst` delayed by an injected jitter fault.
        pub jittered: u64,
        /// Total extra delay (ns) the jitter fault added on this link —
        /// `jitter_ns / jittered` is the mean injected delay.
        pub jitter_ns: u64,
        /// Packets rerouted around this link while it was quarantined.
        pub rerouted: u64,
        /// Best-effort packets shed on this link while quarantined.
        pub quarantine_sheds: u64 = "drops.quarantine",
    }
}

counter_table! {
    /// Per-directed-trunk (`leaf -> spine` or `spine -> leaf`) traffic and
    /// drop counters, surfaced through
    /// [`FabricHandle::trunks`](super::FabricHandle::trunks). Every egress
    /// port keeps one, host-facing ports included. Published as
    /// `fabric.trunk.<a>-><b>.<name>`.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct TrunkStats {
        /// Wire bytes forwarded over the trunk (for utilization gauges).
        pub bytes: u64,
        /// Packets forwarded over the trunk.
        pub forwarded: u64,
        /// Packets tail-dropped at the trunk's egress buffer.
        pub drops: u64,
    }
}
