//! Sparse paged byte-addressed memory.
//!
//! Pages are allocated lazily on first touch, so programs can scatter data
//! across a 64-bit address space (stack near the top, data low) without the
//! simulator paying for the gaps. Reads of untouched memory return zero,
//! matching the zero-initialized BSS semantics workloads rely on.

use std::collections::HashMap;

/// Log2 of the page size.
const PAGE_SHIFT: u32 = 12;
/// Page size in bytes (4 KiB).
pub const PAGE_SIZE: usize = 1 << PAGE_SHIFT;

/// Sparse byte-addressed memory backed by lazily allocated 4 KiB pages.
#[derive(Clone, Default)]
pub struct Memory {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>>,
}

impl std::fmt::Debug for Memory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memory")
            .field("resident_pages", &self.pages.len())
            .finish()
    }
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Number of resident (touched) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_SHIFT)) {
            Some(page) => page[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, value: u8) {
        let page = self
            .pages
            .entry(addr >> PAGE_SHIFT)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
        page[(addr as usize) & (PAGE_SIZE - 1)] = value;
    }

    /// Reads a little-endian 64-bit word (no alignment requirement).
    pub fn read_u64(&self, addr: u64) -> u64 {
        let offset = (addr as usize) & (PAGE_SIZE - 1);
        if offset + 8 <= PAGE_SIZE {
            if let Some(page) = self.pages.get(&(addr >> PAGE_SHIFT)) {
                let b: [u8; 8] = page[offset..offset + 8].try_into().expect("8-byte slice");
                return u64::from_le_bytes(b);
            }
            if !self.pages.contains_key(&(addr >> PAGE_SHIFT)) {
                return 0;
            }
        }
        let mut b = [0u8; 8];
        for (i, byte) in b.iter_mut().enumerate() {
            *byte = self.read_u8(addr.wrapping_add(i as u64));
        }
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian 64-bit word (no alignment requirement).
    pub fn write_u64(&mut self, addr: u64, value: u64) {
        let offset = (addr as usize) & (PAGE_SIZE - 1);
        let bytes = value.to_le_bytes();
        if offset + 8 <= PAGE_SIZE {
            let page = self
                .pages
                .entry(addr >> PAGE_SHIFT)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            page[offset..offset + 8].copy_from_slice(&bytes);
        } else {
            for (i, byte) in bytes.iter().enumerate() {
                self.write_u8(addr.wrapping_add(i as u64), *byte);
            }
        }
    }

    /// Reads an `f64` stored at `addr`.
    pub fn read_f64(&self, addr: u64) -> f64 {
        f64::from_bits(self.read_u64(addr))
    }

    /// Writes an `f64` at `addr`.
    pub fn write_f64(&mut self, addr: u64, value: f64) {
        self.write_u64(addr, value.to_bits());
    }

    /// Copies `bytes` into memory starting at `base`, one page-sized
    /// chunk at a time. Touches exactly the pages byte-wise writes would.
    pub fn load_bytes(&mut self, base: u64, bytes: &[u8]) {
        let mut addr = base;
        let mut rest = bytes;
        while !rest.is_empty() {
            let offset = (addr as usize) & (PAGE_SIZE - 1);
            let (chunk, tail) = rest.split_at(rest.len().min(PAGE_SIZE - offset));
            let page = self
                .pages
                .entry(addr >> PAGE_SHIFT)
                .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
            page[offset..offset + chunk.len()].copy_from_slice(chunk);
            addr = addr.wrapping_add(chunk.len() as u64);
            rest = tail;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn untouched_memory_reads_zero() {
        let m = Memory::new();
        assert_eq!(m.read_u8(0xDEAD_BEEF), 0);
        assert_eq!(m.read_u64(0xDEAD_BEEF), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn byte_round_trip() {
        let mut m = Memory::new();
        m.write_u8(5, 0xAB);
        assert_eq!(m.read_u8(5), 0xAB);
        assert_eq!(m.read_u8(6), 0);
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn word_round_trip_aligned_and_unaligned() {
        let mut m = Memory::new();
        m.write_u64(0x1000, 0x0123_4567_89AB_CDEF);
        assert_eq!(m.read_u64(0x1000), 0x0123_4567_89AB_CDEF);
        // Straddles a page boundary.
        m.write_u64(0x1FFC, u64::MAX - 3);
        assert_eq!(m.read_u64(0x1FFC), u64::MAX - 3);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn float_round_trip() {
        let mut m = Memory::new();
        m.write_f64(64, -2.75);
        assert_eq!(m.read_f64(64), -2.75);
    }

    #[test]
    fn load_bytes_bulk() {
        let mut m = Memory::new();
        let data: Vec<u8> = (0..=255).collect();
        m.load_bytes(0x2000 - 100, &data);
        for (i, &b) in data.iter().enumerate() {
            assert_eq!(m.read_u8(0x2000 - 100 + i as u64), b);
        }
    }

    #[test]
    fn paged_load_matches_byte_wise_writes() {
        // Unaligned start, several page crossings, and a ragged end; the
        // last case wraps around the top of the address space.
        let data: Vec<u8> = (0..3 * PAGE_SIZE + 123).map(|i| (i * 7 + 3) as u8).collect();
        for base in [0x3000 - 17, 0x7_0000, u64::MAX - 100] {
            let mut paged = Memory::new();
            paged.load_bytes(base, &data);
            let mut bytewise = Memory::new();
            for (i, &b) in data.iter().enumerate() {
                bytewise.write_u8(base.wrapping_add(i as u64), b);
            }
            assert_eq!(paged.resident_pages(), bytewise.resident_pages(), "base {base:#x}");
            let mut keys: Vec<_> = paged.pages.keys().collect();
            let mut want: Vec<_> = bytewise.pages.keys().collect();
            keys.sort();
            want.sort();
            assert_eq!(keys, want, "base {base:#x}");
            for i in 0..data.len() as u64 + 16 {
                let a = base.wrapping_add(i).wrapping_sub(8);
                assert_eq!(paged.read_u8(a), bytewise.read_u8(a), "base {base:#x} addr {a:#x}");
            }
        }
        let mut empty = Memory::new();
        empty.load_bytes(0x1234, &[]);
        assert_eq!(empty.resident_pages(), 0);
    }

    #[test]
    fn sparse_pages_stay_sparse() {
        let mut m = Memory::new();
        m.write_u8(0, 1);
        m.write_u8(1 << 40, 2);
        assert_eq!(m.resident_pages(), 2);
    }
}
