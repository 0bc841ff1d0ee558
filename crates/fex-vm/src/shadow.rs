//! AddressSanitizer-style shadow memory.
//!
//! One shadow byte covers one 8-byte granule of application memory, like
//! real ASan's 1:8 mapping. The compiler's instrumentation pass aligns all
//! redzones to 8 bytes, so granule-level poisoning loses no precision.
//!
//! Checks performed by [`Instr::AsanCheck`] consult this map *and* send a
//! shadow-byte access through the cache hierarchy, so instrumented builds
//! pay a realistic extra memory-traffic cost, not just extra ALU work.
//!
//! Shadow bytes exist only where something was poisoned: the map is a
//! table of 4 KiB shadow pages (each covering 32 KiB of application
//! memory), and a page is allocated by the first poison that lands in
//! it. A granule without a page reads as clean, and unpoisoning one
//! allocates nothing, so an uninstrumented program, which never poisons,
//! holds no shadow at all. Granules are aligned to absolute addresses, as
//! in real ASan; with heap and stack sizes that are multiples of 16 (the
//! defaults are), the loader's segments start and end on 16-byte
//! boundaries, so each granule lies in one segment.
//!
//! [`Instr::AsanCheck`]: crate::Instr::AsanCheck

use crate::memory::Memory;

/// Granule size: one shadow byte per this many application bytes.
pub const GRANULE: u64 = 8;

/// Synthetic base address of the shadow region (used only so shadow
/// accesses occupy distinct cache lines from application data).
pub const SHADOW_BASE: u64 = 0x7000_0000;

/// Why a granule is poisoned.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PoisonKind {
    /// Redzone around a global object.
    GlobalRedzone,
    /// Redzone around a stack array.
    StackRedzone,
    /// Redzone around a heap allocation.
    HeapRedzone,
    /// Freed heap memory (use-after-free).
    HeapFreed,
}

impl std::fmt::Display for PoisonKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            PoisonKind::GlobalRedzone => "global-buffer-overflow",
            PoisonKind::StackRedzone => "stack-buffer-overflow",
            PoisonKind::HeapRedzone => "heap-buffer-overflow",
            PoisonKind::HeapFreed => "heap-use-after-free",
        };
        f.write_str(s)
    }
}

fn encode(kind: Option<PoisonKind>) -> u8 {
    match kind {
        None => 0,
        Some(PoisonKind::GlobalRedzone) => 1,
        Some(PoisonKind::StackRedzone) => 2,
        Some(PoisonKind::HeapRedzone) => 3,
        Some(PoisonKind::HeapFreed) => 4,
    }
}

fn decode(b: u8) -> Option<PoisonKind> {
    match b {
        0 => None,
        1 => Some(PoisonKind::GlobalRedzone),
        2 => Some(PoisonKind::StackRedzone),
        3 => Some(PoisonKind::HeapRedzone),
        4 => Some(PoisonKind::HeapFreed),
        _ => unreachable!("invalid shadow encoding"),
    }
}

/// Shadow bytes per shadow page.
const PAGE_GRANULES: u64 = 4096;

/// The shadow map over the application memory's mapped segments.
#[derive(Debug, Clone, Default)]
pub struct ShadowMemory {
    /// `[base, end)` of every mapped segment, sorted; poison outside them
    /// is dropped.
    mapped: Vec<(u64, u64)>,
    /// Page `i` holds the shadow bytes of granules
    /// `[i * PAGE_GRANULES, (i + 1) * PAGE_GRANULES)`. The table grows
    /// only as far as the highest poisoned page, and a missing page is
    /// all clean.
    pages: Vec<Option<Box<[u8]>>>,
}

impl ShadowMemory {
    /// Builds a fully-unpoisoned shadow map over `memory`'s segments. It
    /// holds no shadow bytes until the first [`poison`](Self::poison).
    pub fn mirroring(memory: &Memory) -> Self {
        let mapped = memory.segments().iter().map(|s| (s.base, s.end())).collect();
        ShadowMemory { mapped, pages: Vec::new() }
    }

    /// Shadow-byte address for an application address (for cache modelling).
    pub fn shadow_addr(addr: u64) -> u64 {
        SHADOW_BASE + addr / GRANULE
    }

    /// Bytes of shadow allocated so far (whole pages).
    #[cfg(test)]
    pub(crate) fn resident_bytes(&self) -> usize {
        self.pages.iter().flatten().map(|p| p.len()).sum()
    }

    /// Poisons `[addr, addr+len)` with `kind`. Unmapped parts are ignored
    /// (the loader only poisons mapped redzones; tolerance keeps the
    /// allocator simple at segment edges).
    pub fn poison(&mut self, addr: u64, len: u64, kind: PoisonKind) {
        self.set_range(addr, len, encode(Some(kind)));
    }

    /// Clears poison on `[addr, addr+len)`.
    pub fn unpoison(&mut self, addr: u64, len: u64) {
        self.set_range(addr, len, 0);
    }

    fn set_range(&mut self, addr: u64, len: u64, code: u8) {
        if len == 0 {
            return;
        }
        let end = addr + len;
        for i in 0..self.mapped.len() {
            let (base, seg_end) = self.mapped[i];
            let (lo, hi) = (addr.max(base), end.min(seg_end));
            if lo < hi {
                self.fill(lo / GRANULE, (hi - 1) / GRANULE + 1, code);
            }
        }
    }

    /// Sets granules `[first, end)` to `code`, page by page. Clearing
    /// skips pages that do not exist: they are clean already.
    fn fill(&mut self, first: u64, end: u64, code: u8) {
        let mut g = first;
        while g < end {
            let page = (g / PAGE_GRANULES) as usize;
            let off = (g % PAGE_GRANULES) as usize;
            let n = (PAGE_GRANULES - g % PAGE_GRANULES).min(end - g) as usize;
            if code != 0 {
                if self.pages.len() <= page {
                    self.pages.resize_with(page + 1, || None);
                }
                let bytes = self.pages[page]
                    .get_or_insert_with(|| vec![0u8; PAGE_GRANULES as usize].into_boxed_slice());
                bytes[off..off + n].fill(code);
            } else if let Some(Some(bytes)) = self.pages.get_mut(page) {
                bytes[off..off + n].fill(0);
            }
            g += n as u64;
        }
    }

    /// The shadow byte of the granule holding `addr`.
    #[inline]
    fn byte(&self, addr: u64) -> u8 {
        let g = addr / GRANULE;
        match self.pages.get((g / PAGE_GRANULES) as usize) {
            Some(Some(bytes)) => bytes[(g % PAGE_GRANULES) as usize],
            _ => 0,
        }
    }

    /// Checks an access of `width` bytes at `addr`; returns the poison kind
    /// if any touched granule is poisoned.
    #[inline]
    pub fn check(&self, addr: u64, width: u64) -> Option<PoisonKind> {
        let mut a = addr;
        let end = addr + width.max(1);
        while a < end {
            // A clean granule (the common case) skips the decode.
            let b = self.byte(a);
            if b != 0 {
                return decode(b);
            }
            a += GRANULE - (a % GRANULE);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memory::{Perm, SegmentKind};

    fn shadow() -> ShadowMemory {
        let mut m = Memory::new();
        m.map(0x1000, 0x1000, Perm::RW, SegmentKind::Heap);
        ShadowMemory::mirroring(&m)
    }

    #[test]
    fn fresh_shadow_is_clean() {
        let s = shadow();
        assert_eq!(s.check(0x1000, 8), None);
        assert_eq!(s.check(0x1ff8, 8), None);
    }

    #[test]
    fn poison_and_unpoison() {
        let mut s = shadow();
        s.poison(0x1100, 32, PoisonKind::HeapRedzone);
        assert_eq!(s.check(0x1100, 8), Some(PoisonKind::HeapRedzone));
        assert_eq!(s.check(0x1118, 1), Some(PoisonKind::HeapRedzone));
        assert_eq!(s.check(0x1120, 8), None);
        // An 8-byte access ending inside the redzone is caught.
        assert_eq!(s.check(0x10f8, 16), Some(PoisonKind::HeapRedzone));
        s.unpoison(0x1100, 32);
        assert_eq!(s.check(0x1100, 32), None);
    }

    #[test]
    fn unmapped_addresses_are_not_poisoned() {
        let mut s = shadow();
        s.poison(0x9000, 8, PoisonKind::GlobalRedzone);
        assert_eq!(s.check(0x9000, 8), None);
    }

    #[test]
    fn shadow_addresses_are_distinct_per_granule() {
        assert_ne!(ShadowMemory::shadow_addr(0x1000), ShadowMemory::shadow_addr(0x1008));
        assert_eq!(ShadowMemory::shadow_addr(0x1000), ShadowMemory::shadow_addr(0x1007));
    }

    /// A map over one default-sized 64 MiB heap segment.
    fn heap_shadow() -> (ShadowMemory, u64, u64) {
        let (base, size) = (0x0100_0000, 64 * 1024 * 1024);
        let mut m = Memory::new();
        m.map(base, size, Perm::RW, SegmentKind::Heap);
        (ShadowMemory::mirroring(&m), base, size)
    }

    #[test]
    fn a_fresh_map_holds_no_shadow_bytes() {
        let (s, base, size) = heap_shadow();
        assert_eq!(s.resident_bytes(), 0);
        assert_eq!(s.check(base, 8), None);
        assert_eq!(s.check(base + size - 8, 8), None);
    }

    #[test]
    fn a_poison_at_the_far_end_of_the_heap_is_caught() {
        let (mut s, base, size) = heap_shadow();
        let end = base + size;
        s.poison(end - 32, 32, PoisonKind::HeapRedzone);
        assert_eq!(s.check(end - 8, 8), Some(PoisonKind::HeapRedzone));
        assert_eq!(s.check(end - 40, 16), Some(PoisonKind::HeapRedzone));
        assert_eq!(s.check(end - 40, 8), None);
        // One shadow page, not a shadow byte per granule below it.
        assert_eq!(s.resident_bytes(), PAGE_GRANULES as usize);
    }

    #[test]
    fn checks_beyond_the_existing_shadow_read_clean() {
        let (mut s, base, size) = heap_shadow();
        s.poison(base, 16, PoisonKind::HeapRedzone);
        assert_eq!(s.check(base + 8, 8), Some(PoisonKind::HeapRedzone));
        for addr in [base + 16, base + size / 2, base + size - 8, base + size, u64::MAX - 64] {
            assert_eq!(s.check(addr, 8), None, "{addr:#x}");
        }
    }

    #[test]
    fn unpoisoning_past_the_existing_shadow_creates_nothing() {
        let (mut s, base, size) = heap_shadow();
        s.unpoison(base, size);
        assert_eq!(s.resident_bytes(), 0);
        s.poison(base, 8, PoisonKind::HeapFreed);
        s.unpoison(base + 8 * PAGE_GRANULES, size - 8 * PAGE_GRANULES);
        assert_eq!(s.resident_bytes(), PAGE_GRANULES as usize);
        s.unpoison(base, 8);
        assert_eq!(s.check(base, 8), None);
    }

    #[test]
    fn poison_spanning_pages_and_segments_stays_inside_the_segments() {
        let mut m = Memory::new();
        m.map(0x1000, 0x10000, Perm::RW, SegmentKind::Heap);
        m.map(0x12000, 0x1000, Perm::RW, SegmentKind::Stack(0));
        let mut s = ShadowMemory::mirroring(&m);
        // Covers the end of the first segment, the gap and the second.
        s.poison(0x0800, 0x13000, PoisonKind::StackRedzone);
        assert_eq!(s.check(0x1000, 1), Some(PoisonKind::StackRedzone));
        assert_eq!(s.check(0x8ff8, 8), Some(PoisonKind::StackRedzone));
        assert_eq!(s.check(0x10ff8, 8), Some(PoisonKind::StackRedzone));
        assert_eq!(s.check(0x11000, 8), None, "the gap is unmapped");
        assert_eq!(s.check(0x0ff8, 8), None, "below the first segment");
        assert_eq!(s.check(0x12ff8, 8), Some(PoisonKind::StackRedzone));
    }

    #[test]
    fn poison_kinds_display_like_asan_reports() {
        assert_eq!(PoisonKind::HeapFreed.to_string(), "heap-use-after-free");
        assert_eq!(PoisonKind::StackRedzone.to_string(), "stack-buffer-overflow");
    }
}
