//! CRC32C (Castagnoli) — the NIC's end-to-end invariant checksum.
//!
//! "Pony Express also exploits other stateless NIC offloads; one
//! example is an end-to-end invariant CRC32 calculation over each
//! packet" (§3.4). The simulated NIC stamps packets with this CRC on
//! transmit and verifies on receive; the transport treats a mismatch as
//! corruption and drops the packet, relying on retransmission.
//!
//! CRC-32C with the Castagnoli polynomial 0x1EDC6F41 (reflected
//! 0x82F63B78), computed one of two ways. An x86-64 CPU with SSE4.2 has
//! the polynomial in silicon: its `crc32` instruction folds eight input
//! bytes per step and one byte per step for the tail. Every other CPU
//! runs slice-by-8: eight 256-entry tables built at compile time (8 KB
//! of static data), eight input bytes folded per step and a
//! byte-at-a-time tail. [`crc32c_append`] asks the CPU on each call
//! (`is_x86_feature_detected!` reads a cached flag), and that check is
//! the crate's one `unsafe` call. Both paths are checked against the
//! RFC 3720 test vectors and, length by length and split by split,
//! against the plain byte-wise loop.

/// Reflected CRC-32C polynomial.
const POLY: u32 = 0x82F6_3B78;

/// `TABLES[0]` is the classic byte-wise table; `TABLES[k][b]` is the
/// CRC of byte `b` followed by `k` zero bytes, which is what lets
/// eight bytes be folded in one step.
const TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ POLY } else { crc >> 1 };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// Computes the CRC32C of `data`.
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_append(0, data)
}

/// Continues a CRC32C computation: `crc` is the digest so far (0 to
/// start), `data` the next chunk.
pub fn crc32c_append(crc: u32, data: &[u8]) -> u32 {
    match append_by_instruction(crc, data) {
        Some(c) => c,
        None => append_by_table(crc, data),
    }
}

/// The `crc32` instruction's result, or `None` on a CPU without it.
#[cfg(target_arch = "x86_64")]
fn append_by_instruction(crc: u32, data: &[u8]) -> Option<u32> {
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `append_sse42` enables SSE4.2 and nothing else, and
        // the line above has just found it on this CPU.
        Some(unsafe { append_sse42(crc, data) })
    } else {
        None
    }
}

/// The `crc32` instruction's result, or `None` on a CPU without it.
#[cfg(not(target_arch = "x86_64"))]
fn append_by_instruction(_crc: u32, _data: &[u8]) -> Option<u32> {
    None
}

/// Eight bytes per `crc32` instruction, then one per byte of the tail.
///
/// # Safety
///
/// A `target_feature` function: a caller outside SSE4.2 code must have
/// found SSE4.2 on the CPU it runs on.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn append_sse42(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let (words, tail) = data.as_chunks::<8>();
    let mut c = u64::from(!crc);
    for w in words {
        c = _mm_crc32_u64(c, u64::from_le_bytes(*w));
    }
    // The instruction leaves a 32-bit CRC in the low half.
    let mut c = c as u32;
    for &b in tail {
        c = _mm_crc32_u8(c, b);
    }
    !c
}

/// Slice-by-8: the path of a CPU without the instruction.
fn append_by_table(crc: u32, data: &[u8]) -> u32 {
    let mut c = !crc;
    let (words, tail) = data.as_chunks::<8>();
    for w in words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        c = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][w[4] as usize]
            ^ TABLES[2][w[5] as usize]
            ^ TABLES[1][w[6] as usize]
            ^ TABLES[0][w[7] as usize];
    }
    for &b in tail {
        c = (c >> 8) ^ TABLES[0][((c ^ b as u32) & 0xFF) as usize];
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;
    use snap_sim::Rng;

    /// The byte-at-a-time loop slice-by-8 replaced, kept as the
    /// reference both paths are checked against.
    fn crc32c_append_bytewise(crc: u32, data: &[u8]) -> u32 {
        let mut c = !crc;
        for &b in data {
            c = (c >> 8) ^ TABLES[0][((c ^ b as u32) & 0xFF) as usize];
        }
        !c
    }

    type Append = fn(u32, &[u8]) -> u32;

    /// Every path this CPU can run: the table always, so the fallback
    /// stays tested on CPUs that never take it, and the instruction
    /// when the CPU has it.
    fn paths() -> Vec<(&'static str, Append)> {
        let mut paths: Vec<(&'static str, Append)> = vec![("table", append_by_table)];
        if append_by_instruction(0, &[]).is_some() {
            paths.push(("instruction", |crc, data| {
                append_by_instruction(crc, data).expect("the CPU had the instruction a moment ago")
            }));
        }
        paths
    }

    #[test]
    fn matches_bytewise_reference_at_every_length_and_split() {
        for (path, append) in paths() {
            let mut rng = Rng::new(0x0C4C_32C0);
            for len in 0..=300usize {
                // The all-ones and all-zeroes inputs show a wrong shift first.
                for fill in [0xFFu8, 0] {
                    let data = vec![fill; len];
                    let want = crc32c_append_bytewise(0, &data);
                    assert_eq!(append(0, &data), want, "{path}: len {len}");
                }
                let data: Vec<u8> = (0..len).map(|_| rng.below(256) as u8).collect();
                let want = crc32c_append_bytewise(0, &data);
                assert_eq!(append(0, &data), want, "{path}: len {len}");
                for split in 0..=len {
                    let (a, b) = data.split_at(split);
                    let prefix = crc32c_append_bytewise(0, a);
                    assert_eq!(
                        append(prefix, b),
                        want,
                        "{path}: len {len} split at {split}"
                    );
                }
            }
        }
    }

    #[test]
    fn rfc3720_vectors() {
        // Test vectors from RFC 3720 (iSCSI), Appendix B.4.
        let ascending: Vec<u8> = (0..32).collect();
        let descending: Vec<u8> = (0..32).rev().collect();
        for (path, append) in paths() {
            assert_eq!(
                append(0, &[0u8; 32]),
                0x8A91_36AA,
                "{path}: 32 bytes of zeroes"
            );
            assert_eq!(
                append(0, &[0xFFu8; 32]),
                0x62A8_AB43,
                "{path}: 32 bytes of ones"
            );
            assert_eq!(append(0, &ascending), 0x46DD_794E, "{path}: ascending");
            assert_eq!(append(0, &descending), 0x113F_DB5C, "{path}: descending");
        }
    }

    #[test]
    fn check_value() {
        // The standard "check" input for CRC catalogs.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
    }

    #[test]
    fn empty_input() {
        assert_eq!(crc32c(&[]), 0);
    }

    #[test]
    fn append_equals_whole() {
        let data = b"the quick brown fox jumps over the lazy dog";
        let whole = crc32c(data);
        let (a, b) = data.split_at(17);
        let partial = crc32c_append(crc32c(a), b);
        assert_eq!(whole, partial);
    }

    #[test]
    fn detects_single_bit_flips() {
        for (path, append) in paths() {
            let mut data = vec![0xA5u8; 64];
            let clean = append(0, &data);
            for byte in 0..64 {
                for bit in 0..8 {
                    data[byte] ^= 1 << bit;
                    assert_ne!(
                        append(0, &data),
                        clean,
                        "{path}: flip at {byte}.{bit} undetected"
                    );
                    data[byte] ^= 1 << bit;
                }
            }
        }
    }
}
