//! Registered shared-memory regions for one-sided operations (§3.2).
//!
//! "Since the one-sided logic executes in the address space of Snap,
//! applications must explicitly share remotely-accessible memory even
//! though their threads do not execute the logic." A [`RegionRegistry`]
//! plays the role of the Snap-side mapping table: applications register
//! regions (the stand-in for passing tmpfs-backed fds over a domain
//! socket), and engines execute one-sided reads/writes against them
//! with bounds and permission checks.
//!
//! Registered memory is charged to the owning application's container
//! (§2.5).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;

use crate::account::MemoryAccountant;

/// Identifier of a registered region; analogous to an RDMA rkey.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u64);

/// Access permitted on a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessMode {
    /// Remote reads only.
    ReadOnly,
    /// Remote reads and writes.
    ReadWrite,
}

/// Errors from one-sided access attempts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionError {
    /// The region id is not registered (stale or forged key).
    Unknown,
    /// Access extends past the end of the region.
    OutOfBounds,
    /// A write was attempted on a read-only region.
    Denied,
}

impl std::fmt::Display for RegionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegionError::Unknown => write!(f, "unknown region"),
            RegionError::OutOfBounds => write!(f, "access out of bounds"),
            RegionError::Denied => write!(f, "permission denied"),
        }
    }
}

impl std::error::Error for RegionError {}

struct Region {
    data: RwLock<Vec<u8>>,
    mode: AccessMode,
    owner: String,
}

/// A registry of application-shared memory regions.
#[derive(Clone)]
pub struct RegionRegistry {
    regions: Arc<RwLock<BTreeMap<RegionId, Arc<Region>>>>,
    next_id: Arc<AtomicU64>,
    accountant: MemoryAccountant,
}

impl RegionRegistry {
    /// Creates an empty registry charging to `accountant`.
    pub fn new(accountant: MemoryAccountant) -> Self {
        RegionRegistry {
            regions: Arc::new(RwLock::new(BTreeMap::new())),
            next_id: Arc::new(AtomicU64::new(1)),
            accountant,
        }
    }

    /// Registers a region of `size` zeroed bytes owned by `owner`.
    pub fn register(&self, owner: &str, size: usize, mode: AccessMode) -> RegionId {
        self.register_with(owner, vec![0u8; size], mode)
    }

    /// Registers a region with initial contents.
    pub fn register_with(&self, owner: &str, data: Vec<u8>, mode: AccessMode) -> RegionId {
        let id = RegionId(self.next_id.fetch_add(1, Ordering::Relaxed));
        self.accountant.charge(owner, data.len() as u64);
        self.regions.write().insert(
            id,
            Arc::new(Region {
                data: RwLock::new(data),
                mode,
                owner: owner.to_string(),
            }),
        );
        id
    }

    /// Removes a region, releasing its memory charge.
    ///
    /// Returns whether the region existed.
    pub fn deregister(&self, id: RegionId) -> bool {
        if let Some(region) = self.regions.write().remove(&id) {
            self.accountant
                .release(&region.owner, region.data.read().len() as u64);
            true
        } else {
            false
        }
    }

    fn get(&self, id: RegionId) -> Result<Arc<Region>, RegionError> {
        self.regions
            .read()
            .get(&id)
            .cloned()
            .ok_or(RegionError::Unknown)
    }

    /// One-sided read of `len` bytes at `offset`.
    pub fn read(&self, id: RegionId, offset: usize, len: usize) -> Result<Vec<u8>, RegionError> {
        let region = self.get(id)?;
        let data = region.data.read();
        let end = offset.checked_add(len).ok_or(RegionError::OutOfBounds)?;
        if end > data.len() {
            return Err(RegionError::OutOfBounds);
        }
        Ok(data[offset..end].to_vec())
    }

    /// One-sided read of a little-endian u64 at `offset`; convenience
    /// for indirection tables.
    pub fn read_u64(&self, id: RegionId, offset: usize) -> Result<u64, RegionError> {
        let bytes = self.read(id, offset, 8)?;
        Ok(u64::from_le_bytes(bytes.try_into().expect("read(8) returned 8 bytes")))
    }

    /// One-sided write of `data` at `offset`.
    pub fn write(&self, id: RegionId, offset: usize, data: &[u8]) -> Result<(), RegionError> {
        let region = self.get(id)?;
        if region.mode != AccessMode::ReadWrite {
            return Err(RegionError::Denied);
        }
        let mut dst = region.data.write();
        let end = offset
            .checked_add(data.len())
            .ok_or(RegionError::OutOfBounds)?;
        if end > dst.len() {
            return Err(RegionError::OutOfBounds);
        }
        dst[offset..end].copy_from_slice(data);
        Ok(())
    }

    /// Runs `f` with a read view of the whole region (no copy). Used by
    /// scan-style one-sided operations.
    pub fn with_data<R>(
        &self,
        id: RegionId,
        f: impl FnOnce(&[u8]) -> R,
    ) -> Result<R, RegionError> {
        let region = self.get(id)?;
        let data = region.data.read();
        Ok(f(&data))
    }

    /// Size of a region in bytes.
    pub fn size(&self, id: RegionId) -> Result<usize, RegionError> {
        Ok(self.get(id)?.data.read().len())
    }

    /// Owner container of a region.
    pub fn owner(&self, id: RegionId) -> Result<String, RegionError> {
        Ok(self.get(id)?.owner.clone())
    }

    /// Number of registered regions.
    pub fn len(&self) -> usize {
        self.regions.read().len()
    }

    /// True if no regions are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn registry() -> RegionRegistry {
        RegionRegistry::new(MemoryAccountant::new())
    }

    #[test]
    fn register_read_write() {
        let r = registry();
        let id = r.register("app", 64, AccessMode::ReadWrite);
        r.write(id, 8, b"payload").unwrap();
        assert_eq!(r.read(id, 8, 7).unwrap(), b"payload");
        assert_eq!(r.read(id, 0, 4).unwrap(), vec![0; 4]);
        assert_eq!(r.size(id).unwrap(), 64);
        assert_eq!(r.owner(id).unwrap(), "app");
    }

    #[test]
    fn read_only_denies_writes() {
        let r = registry();
        let id = r.register_with("app", vec![1, 2, 3], AccessMode::ReadOnly);
        assert_eq!(r.write(id, 0, b"x"), Err(RegionError::Denied));
        assert_eq!(r.read(id, 0, 3).unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn bounds_are_enforced() {
        let r = registry();
        let id = r.register("app", 10, AccessMode::ReadWrite);
        assert_eq!(r.read(id, 8, 4), Err(RegionError::OutOfBounds));
        assert_eq!(r.read(id, usize::MAX, 2), Err(RegionError::OutOfBounds));
        assert_eq!(r.write(id, 9, b"ab"), Err(RegionError::OutOfBounds));
    }

    #[test]
    fn unknown_region() {
        let r = registry();
        assert_eq!(r.read(RegionId(999), 0, 1), Err(RegionError::Unknown));
        assert!(!r.deregister(RegionId(999)));
    }

    #[test]
    fn deregister_releases_memory() {
        let acct = MemoryAccountant::new();
        let r = RegionRegistry::new(acct.clone());
        let id = r.register("app", 1000, AccessMode::ReadOnly);
        assert_eq!(acct.usage("app"), 1000);
        assert!(r.deregister(id));
        assert_eq!(acct.usage("app"), 0);
        assert!(r.is_empty());
    }

    #[test]
    fn read_u64_roundtrip() {
        let r = registry();
        let id = r.register("app", 16, AccessMode::ReadWrite);
        r.write(id, 4, &0xDEAD_BEEF_u64.to_le_bytes()).unwrap();
        assert_eq!(r.read_u64(id, 4).unwrap(), 0xDEAD_BEEF);
    }

    #[test]
    fn with_data_scans_without_copy() {
        let r = registry();
        let id = r.register_with("app", (0u8..100).collect(), AccessMode::ReadOnly);
        let found = r
            .with_data(id, |d| d.iter().position(|&b| b == 42))
            .unwrap();
        assert_eq!(found, Some(42));
    }

    #[test]
    fn ids_are_unique_across_threads() {
        let r = registry();
        let mut handles = Vec::new();
        for _ in 0..4 {
            let r = r.clone();
            handles.push(std::thread::spawn(move || {
                (0..250)
                    .map(|_| r.register("app", 1, AccessMode::ReadOnly))
                    .collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<RegionId> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), 1000);
    }
}
