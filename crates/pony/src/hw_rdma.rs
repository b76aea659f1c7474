//! Hardware RDMA NIC model — the §5.4 comparison point.
//!
//! "Hardware RDMA implementations typically implement small caches of
//! connection and RDMA permission state, and access patterns that spill
//! out of the cache result in significant performance cliffs. A
//! 'thrashing' RDMA NIC emits fabric pauses, which can quickly spread
//! to other switches and servers. This led us to implement a cap of 1M
//! RDMAs/sec per machine and credits were statically allocated to each
//! client."
//!
//! The model: an LRU cache of connection state, a hit/miss latency
//! cliff, pause emission proportional to the miss backlog, and the
//! operational mitigations (static cap, per-client credits) the paper
//! says Snap/Pony made unnecessary.

use snap_sim::costs;
use snap_sim::hash::IntMap;
use snap_sim::Nanos;

/// Counters from a served workload.
#[derive(Debug, Clone, Default)]
pub struct RdmaStats {
    /// Operations served.
    pub ops: u64,
    /// Connection-cache hits.
    pub hits: u64,
    /// Connection-cache misses (state fetched over PCIe).
    pub misses: u64,
    /// Operations rejected by the static per-machine cap.
    pub cap_rejections: u64,
    /// Pause frames emitted while thrashing.
    pub pauses: u64,
    /// Busy time accumulated by the NIC pipeline.
    pub busy: Nanos,
}

impl RdmaStats {
    /// Cache hit rate in [0, 1].
    pub fn hit_rate(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.hits as f64 / self.ops as f64
        }
    }
}

/// Configuration for the modeled NIC.
#[derive(Debug, Clone)]
pub struct RdmaNicConfig {
    /// Connection/permission cache entries.
    pub cache_entries: usize,
    /// Latency of a cache-hit op.
    pub hit_ns: u64,
    /// Latency of a cache-miss op (PCIe round trip to host memory).
    pub miss_ns: u64,
    /// Enforce the operational 1M ops/sec machine cap.
    pub machine_cap: Option<f64>,
    /// Misses-in-window threshold beyond which the NIC emits pauses.
    pub pause_threshold: u32,
}

impl Default for RdmaNicConfig {
    fn default() -> Self {
        RdmaNicConfig {
            cache_entries: costs::RDMA_NIC_CACHE_ENTRIES,
            hit_ns: costs::RDMA_HIT_NS,
            miss_ns: costs::RDMA_MISS_NS,
            machine_cap: Some(costs::RDMA_MACHINE_CAP_OPS),
            pause_threshold: 8,
        }
    }
}

/// The modeled RDMA NIC: serve ops against it and observe the cliff.
pub struct RdmaNic {
    cfg: RdmaNicConfig,
    /// Connection id -> last-use tick (simple exact LRU).
    cache: IntMap<u64, u64>,
    tick: u64,
    /// Sliding miss counter driving pause emission.
    recent_misses: u32,
    stats: RdmaStats,
    /// Pipeline availability (ops serialize through the NIC).
    busy_until: Nanos,
    /// Cap accounting: window start + ops admitted in the window.
    cap_window_start: Nanos,
    cap_ops_in_window: u64,
}

impl RdmaNic {
    /// Creates an idle NIC.
    pub fn new(cfg: RdmaNicConfig) -> Self {
        RdmaNic {
            cfg,
            cache: IntMap::default(),
            tick: 0,
            recent_misses: 0,
            stats: RdmaStats::default(),
            busy_until: Nanos::ZERO,
            cap_window_start: Nanos::ZERO,
            cap_ops_in_window: 0,
        }
    }

    /// Counters.
    pub fn stats(&self) -> &RdmaStats {
        &self.stats
    }

    fn lru_touch(&mut self, conn: u64) -> bool {
        self.tick += 1;
        if self.cache.contains_key(&conn) {
            self.cache.insert(conn, self.tick);
            return true;
        }
        if self.cache.len() >= self.cfg.cache_entries {
            // Evict the least-recently used entry. O(n) is fine at the
            // modeled cache sizes (hundreds of entries).
            let victim = self
                .cache
                .iter()
                .min_by_key(|(_, &t)| t)
                .map(|(&c, _)| c)
                .expect("cache non-empty");
            self.cache.remove(&victim);
        }
        self.cache.insert(conn, self.tick);
        false
    }

    /// Serves one operation on `conn` arriving at `at`.
    ///
    /// Returns the completion time, or `None` if the machine cap
    /// rejected the op (the initiator must back off).
    pub fn serve(&mut self, at: Nanos, conn: u64) -> Option<Nanos> {
        // Static machine cap, evaluated over 1 ms windows.
        if let Some(cap) = self.cfg.machine_cap {
            let window = Nanos::from_millis(1);
            if at >= self.cap_window_start + window {
                self.cap_window_start = at - (at - self.cap_window_start) % window;
                self.cap_ops_in_window = 0;
            }
            let per_window = cap / 1_000.0;
            if (self.cap_ops_in_window as f64) >= per_window {
                self.stats.cap_rejections += 1;
                return None;
            }
            self.cap_ops_in_window += 1;
        }

        let hit = self.lru_touch(conn);
        let service = if hit {
            self.stats.hits += 1;
            self.recent_misses = self.recent_misses.saturating_sub(1);
            Nanos(self.cfg.hit_ns)
        } else {
            self.stats.misses += 1;
            self.recent_misses += 2;
            if self.recent_misses > self.cfg.pause_threshold {
                // Thrashing: emit a fabric pause (PFC), the contagion
                // §5.4 describes.
                self.stats.pauses += 1;
            }
            Nanos(self.cfg.miss_ns)
        };
        self.stats.ops += 1;
        self.stats.busy += service;
        let start = self.busy_until.max(at);
        self.busy_until = start + service;
        Some(self.busy_until)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nic(cache: usize, cap: Option<f64>) -> RdmaNic {
        RdmaNic::new(RdmaNicConfig {
            cache_entries: cache,
            machine_cap: cap,
            ..RdmaNicConfig::default()
        })
    }

    #[test]
    fn working_set_within_cache_hits() {
        let mut n = nic(16, None);
        for round in 0..100u64 {
            for conn in 0..8 {
                n.serve(Nanos(round * 1000), conn);
            }
        }
        let s = n.stats();
        // First touch of each conn misses; everything else hits.
        assert_eq!(s.misses, 8);
        assert!(s.hit_rate() > 0.98);
        // Only the cold-start transient may pause; steady state never
        // does (the hits drain the miss counter immediately).
        assert!(s.pauses <= 8, "steady-state pauses: {}", s.pauses);
    }

    #[test]
    fn working_set_beyond_cache_thrashes() {
        let mut n = nic(16, None);
        // Round-robin over 64 connections with a 16-entry LRU: every
        // access misses (the canonical LRU-thrash pattern).
        for round in 0..50u64 {
            for conn in 0..64 {
                n.serve(Nanos(round * 10_000), conn);
            }
        }
        let s = n.stats();
        assert!(s.hit_rate() < 0.05, "hit rate {}", s.hit_rate());
        assert!(s.pauses > 0, "thrash must emit pauses");
    }

    #[test]
    fn miss_latency_cliff() {
        let mut n = nic(4, None);
        let hit_done = {
            n.serve(Nanos::ZERO, 1);
            // Well past the warmup miss's service time: pure hit cost.
            n.serve(Nanos(20_000), 1).unwrap() - Nanos(20_000)
        };
        let mut n2 = nic(4, None);
        for c in 0..8 {
            n2.serve(Nanos::ZERO, c);
        }
        // A fresh conn always misses.
        let t0 = Nanos(1_000_000);
        let miss_done = n2.serve(t0, 99).unwrap() - t0;
        assert!(
            miss_done >= hit_done * 10,
            "miss {miss_done} should dwarf hit {hit_done}"
        );
    }

    #[test]
    fn machine_cap_rejects_excess() {
        let mut n = nic(1024, Some(1_000_000.0));
        // Offer 5000 ops within one 1 ms window: cap admits ~1000.
        let mut admitted = 0;
        for i in 0..5_000u64 {
            if n.serve(Nanos(i * 100), i % 4).is_some() {
                admitted += 1;
            }
        }
        assert!(admitted <= 1_001, "admitted {admitted}");
        assert_eq!(n.stats().cap_rejections, 5_000 - admitted);
    }

    #[test]
    fn uncapped_nic_admits_everything() {
        let mut n = nic(1024, None);
        for i in 0..5_000u64 {
            assert!(n.serve(Nanos(i * 100), i % 4).is_some());
        }
        assert_eq!(n.stats().cap_rejections, 0);
    }

    #[test]
    fn pipeline_serializes_ops() {
        let mut n = nic(16, None);
        n.serve(Nanos::ZERO, 1);
        let second = n.serve(Nanos::ZERO, 1).unwrap();
        // First op: miss (12us); second op queued behind it: +0.7us.
        assert_eq!(
            second,
            Nanos(costs::RDMA_MISS_NS + costs::RDMA_HIT_NS)
        );
    }
}
