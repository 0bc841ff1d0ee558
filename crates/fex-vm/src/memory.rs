//! Flat simulated memory: segments, permissions and the address-space
//! layout.
//!
//! The VM keeps *all* addressable program state — read-only data, globals,
//! the heap and one stack per core — in a single sparse address space made
//! of [`Segment`]s. Loads and stores perform permission checks and trap on
//! unmapped addresses, which is what turns stray pointer arithmetic into
//! observable faults instead of silent corruption of the host.
//!
//! Stack segments can be marked executable (the paper's RIPE configuration
//! runs with an executable stack) and every base address can be perturbed
//! by ASLR.

use crate::trap::Trap;
use crate::Width;

/// Memory permission bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Perm {
    /// Readable.
    pub r: bool,
    /// Writable.
    pub w: bool,
    /// Executable (data regions may be executable when NX is disabled).
    pub x: bool,
}

impl Perm {
    /// Read-only.
    pub const R: Perm = Perm { r: true, w: false, x: false };
    /// Read-write.
    pub const RW: Perm = Perm { r: true, w: true, x: false };
    /// Read-write-execute.
    pub const RWX: Perm = Perm { r: true, w: true, x: true };
}

/// What role a segment plays (reported in faults and used by the security
/// analysis to classify attack locations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegmentKind {
    /// String literals and other read-only data.
    Rodata,
    /// Initialised + zero-initialised globals (DATA and BSS).
    Globals,
    /// The heap.
    Heap,
    /// The stack of core `n`.
    Stack(usize),
}

/// Canonical (pre-ASLR) layout constants.
pub mod layout {
    /// Base of the read-only data segment.
    pub const RODATA_BASE: u64 = 0x0000_1000;
    /// Base of the globals (DATA/BSS) segment.
    pub const GLOBALS_BASE: u64 = 0x0010_0000;
    /// Base of the heap.
    pub const HEAP_BASE: u64 = 0x0100_0000;
    /// Base of the stack region; each core's stack lives at a fixed stride
    /// above this.
    pub const STACK_REGION_BASE: u64 = 0x2000_0000;
    /// Unmapped guard gap between per-core stacks.
    pub const STACK_GUARD: u64 = 0x1000;
}

/// One contiguous mapped region.
#[derive(Debug, Clone)]
pub struct Segment {
    /// First mapped address.
    pub base: u64,
    /// Backing bytes.
    pub data: Vec<u8>,
    /// Permissions.
    pub perm: Perm,
    /// Role.
    pub kind: SegmentKind,
}

impl Segment {
    /// Whether `addr` falls inside this segment.
    pub fn contains(&self, addr: u64) -> bool {
        addr >= self.base && addr < self.base + self.data.len() as u64
    }

    /// One-past-the-end address.
    pub fn end(&self) -> u64 {
        self.base + self.data.len() as u64
    }
}

/// The simulated flat memory.
#[derive(Debug, Clone)]
pub struct Memory {
    segments: Vec<Segment>,
    /// `segments[i].base`, in the same (ascending) order: the array the
    /// hot lookup scans.
    bases: Vec<u64>,
}

impl Memory {
    /// Creates an empty memory (segments are added by the machine loader).
    pub fn new() -> Self {
        Memory { segments: Vec::new(), bases: Vec::new() }
    }

    /// Maps a new segment. Panics if it overlaps an existing one — the
    /// loader controls layout, so an overlap is a bug, not a runtime error.
    pub fn map(&mut self, base: u64, size: u64, perm: Perm, kind: SegmentKind) {
        let new_end = base + size;
        for s in &self.segments {
            assert!(
                new_end <= s.base || base >= s.end(),
                "segment overlap: [{base:#x},{new_end:#x}) vs [{:#x},{:#x})",
                s.base,
                s.end()
            );
        }
        self.segments.push(Segment { base, data: vec![0u8; size as usize], perm, kind });
        self.segments.sort_by_key(|s| s.base);
        self.bases = self.segments.iter().map(|s| s.base).collect();
    }

    /// All segments, ordered by base address.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// The index of the last segment whose base is at or below `addr`:
    /// the only one that can contain it. A branch-free count over the
    /// few sorted bases (rodata, globals, heap, one stack per core).
    #[inline(always)]
    fn candidate(&self, addr: u64) -> Option<usize> {
        self.bases.iter().map(|&b| usize::from(b <= addr)).sum::<usize>().checked_sub(1)
    }

    fn seg_index(&self, addr: u64) -> Option<usize> {
        self.candidate(addr).filter(|&i| self.segments[i].contains(addr))
    }

    /// The segment containing `addr`, if mapped.
    pub fn segment_at(&self, addr: u64) -> Option<&Segment> {
        self.seg_index(addr).map(|i| &self.segments[i])
    }

    /// Permissions at `addr`, if mapped.
    pub fn perm_at(&self, addr: u64) -> Option<Perm> {
        self.segment_at(addr).map(|s| s.perm)
    }

    /// Segment kind at `addr`, if mapped.
    pub fn kind_at(&self, addr: u64) -> Option<SegmentKind> {
        self.segment_at(addr).map(|s| s.kind)
    }

    /// The segment index and offset of a `len`-byte access at `addr` that
    /// lies inside one segment whose permissions allow it; anything else
    /// takes [`Self::access_trap`].
    #[inline(always)]
    fn check_range(&self, addr: u64, len: u64, write: bool) -> Result<(usize, usize), Trap> {
        if let Some(i) = self.candidate(addr) {
            let s = &self.segments[i];
            let (off, size) = (addr - s.base, s.data.len() as u64);
            if off < size && len <= size - off && if write { s.perm.w } else { s.perm.r } {
                return Ok((i, off as usize));
            }
        }
        Err(self.access_trap(addr, len, write))
    }

    /// The trap for an access [`Self::check_range`] refuses.
    #[cold]
    #[inline(never)]
    fn access_trap(&self, addr: u64, len: u64, write: bool) -> Trap {
        let Some(s) = self.segment_at(addr) else {
            return Trap::Unmapped { addr, write };
        };
        if addr + len > s.end() {
            // Accesses may not straddle a segment boundary: the gap beyond
            // is unmapped by construction.
            Trap::Unmapped { addr: s.end(), write }
        } else {
            Trap::PermViolation { addr, write }
        }
    }

    /// Loads an integer of the given width (1-byte loads zero-extend).
    ///
    /// # Errors
    ///
    /// Returns [`Trap::Unmapped`] or [`Trap::PermViolation`] on bad
    /// accesses.
    #[inline(always)]
    pub fn load(&self, addr: u64, width: Width) -> Result<i64, Trap> {
        let (i, off) = self.check_range(addr, width.bytes(), false)?;
        let s = &self.segments[i];
        Ok(match width {
            Width::B1 => s.data[off] as i64,
            Width::B8 => {
                let mut b = [0u8; 8];
                b.copy_from_slice(&s.data[off..off + 8]);
                i64::from_le_bytes(b)
            }
        })
    }

    /// Stores an integer of the given width (1-byte stores truncate).
    ///
    /// # Errors
    ///
    /// Returns [`Trap::Unmapped`] or [`Trap::PermViolation`] on bad
    /// accesses.
    #[inline(always)]
    pub fn store(&mut self, addr: u64, val: i64, width: Width) -> Result<(), Trap> {
        let (i, off) = self.check_range(addr, width.bytes(), true)?;
        let s = &mut self.segments[i];
        match width {
            Width::B1 => s.data[off] = val as u8,
            Width::B8 => s.data[off..off + 8].copy_from_slice(&val.to_le_bytes()),
        }
        Ok(())
    }

    /// Reads `len` bytes starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns a trap if any byte of the range is unmapped or unreadable.
    pub fn read_bytes(&self, addr: u64, len: u64) -> Result<&[u8], Trap> {
        let (i, off) = self.check_range(addr, len, false)?;
        Ok(&self.segments[i].data[off..off + len as usize])
    }

    /// Writes `bytes` starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns a trap if any byte of the range is unmapped or unwritable.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) -> Result<(), Trap> {
        let (i, off) = self.check_range(addr, bytes.len() as u64, true)?;
        self.segments[i].data[off..off + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Writes `bytes` at `addr` ignoring permissions. Loader-only: used to
    /// initialise read-only segments before execution starts.
    pub(crate) fn write_bytes_raw(&mut self, addr: u64, bytes: &[u8]) -> Result<(), Trap> {
        if bytes.is_empty() {
            return Ok(());
        }
        let i = self.seg_index(addr).ok_or(Trap::Unmapped { addr, write: true })?;
        let s = &mut self.segments[i];
        let off = (addr - s.base) as usize;
        if off + bytes.len() > s.data.len() {
            return Err(Trap::Unmapped { addr: s.end(), write: true });
        }
        s.data[off..off + bytes.len()].copy_from_slice(bytes);
        Ok(())
    }

    /// Reads a NUL-terminated string (at most `max` bytes) at `addr`.
    ///
    /// # Errors
    ///
    /// Traps if the string runs off the end of mapped memory before a NUL
    /// is found.
    pub fn read_cstr(&self, addr: u64, max: u64) -> Result<Vec<u8>, Trap> {
        let mut out = Vec::new();
        let mut a = addr;
        while (a - addr) < max {
            let b = self.load(a, Width::B1)? as u8;
            if b == 0 {
                return Ok(out);
            }
            out.push(b);
            a += 1;
        }
        Err(Trap::StringTooLong { addr })
    }
}

impl Default for Memory {
    fn default() -> Self {
        Memory::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mem() -> Memory {
        let mut m = Memory::new();
        m.map(0x1000, 0x1000, Perm::RW, SegmentKind::Heap);
        m.map(0x4000, 0x1000, Perm::R, SegmentKind::Rodata);
        m
    }

    #[test]
    fn load_store_roundtrip() {
        let mut m = mem();
        m.store(0x1008, -12345, Width::B8).unwrap();
        assert_eq!(m.load(0x1008, Width::B8).unwrap(), -12345);
        m.store(0x1000, 0x1FF, Width::B1).unwrap();
        assert_eq!(m.load(0x1000, Width::B1).unwrap(), 0xFF);
    }

    #[test]
    fn unmapped_access_traps() {
        let m = mem();
        assert!(matches!(m.load(0x0, Width::B8), Err(Trap::Unmapped { .. })));
        assert!(matches!(m.load(0x3000, Width::B8), Err(Trap::Unmapped { .. })));
    }

    #[test]
    fn straddling_access_traps() {
        let m = mem();
        // Last valid 8-byte load is at 0x1ff8; 0x1ffc straddles the end.
        assert!(m.load(0x1ff8, Width::B8).is_ok());
        assert!(matches!(m.load(0x1ffc, Width::B8), Err(Trap::Unmapped { .. })));
    }

    #[test]
    fn write_to_rodata_traps() {
        let mut m = mem();
        assert!(matches!(
            m.store(0x4000, 1, Width::B8),
            Err(Trap::PermViolation { write: true, .. })
        ));
        assert!(m.load(0x4000, Width::B8).is_ok());
    }

    #[test]
    fn cstr_reading() {
        let mut m = mem();
        m.write_bytes(0x1100, b"hello\0").unwrap();
        assert_eq!(m.read_cstr(0x1100, 64).unwrap(), b"hello");
        // Unterminated string within budget -> error.
        m.write_bytes(0x1200, &[b'x'; 16]).unwrap();
        assert!(m.read_cstr(0x1200, 8).is_err());
    }

    #[test]
    #[should_panic(expected = "segment overlap")]
    fn overlapping_map_panics() {
        let mut m = mem();
        m.map(0x1800, 0x1000, Perm::RW, SegmentKind::Heap);
    }

    /// The reference lookup: a linear scan for the segment containing
    /// `addr`, then the straddle and permission checks in that order.
    fn naive_check(m: &Memory, addr: u64, len: u64, write: bool) -> Result<(usize, usize), Trap> {
        let Some(i) = m.segments().iter().position(|s| s.contains(addr)) else {
            return Err(Trap::Unmapped { addr, write });
        };
        let s = &m.segments()[i];
        if addr + len > s.end() {
            return Err(Trap::Unmapped { addr: s.end(), write });
        }
        if (write && !s.perm.w) || (!write && !s.perm.r) {
            return Err(Trap::PermViolation { addr, write });
        }
        Ok((i, (addr - s.base) as usize))
    }

    /// A loader-shaped layout: slid rodata (read-only), globals and heap,
    /// then 1–8 stacks separated by guard gaps.
    fn seeded_layout(next: &mut impl FnMut() -> u64) -> Memory {
        let slide = |n: u64| if n.is_multiple_of(4) { 0 } else { (n % 4096) * 16 };
        let (ro, gl, hp, st) = (slide(next()), slide(next()), slide(next()), slide(next()));
        let size = |n: u64, max: u64| (n % max + 1) * 16;
        let data = if next().is_multiple_of(2) { Perm::RW } else { Perm::RWX };
        let mut m = Memory::new();
        m.map(layout::RODATA_BASE + ro, size(next(), 64), Perm::R, SegmentKind::Rodata);
        m.map(layout::GLOBALS_BASE + gl, size(next(), 256), data, SegmentKind::Globals);
        m.map(layout::HEAP_BASE + hp, size(next(), 1024), data, SegmentKind::Heap);
        let stack = size(next(), 256);
        for c in 0..(next() % 8 + 1) as usize {
            let base = layout::STACK_REGION_BASE + st + c as u64 * (stack + layout::STACK_GUARD);
            m.map(base, stack, data, SegmentKind::Stack(c));
        }
        m
    }

    fn decode(data: &[u8], width: Width) -> i64 {
        match width {
            Width::B1 => i64::from(data[0]),
            Width::B8 => i64::from_le_bytes(data[..8].try_into().unwrap()),
        }
    }

    /// Loads and stores at every segment's edges, in the guard gaps and
    /// past the last segment give what the reference lookup gives, over
    /// seeded loader-shaped layouts.
    #[test]
    fn segment_resolution_matches_a_linear_scan() {
        let mut state = 0x5eed_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        for layout_no in 0..200 {
            let mut m = seeded_layout(&mut next);
            let mut probes = vec![0, u64::MAX, u64::MAX - 7];
            for s in m.segments() {
                let (base, end) = (s.base, s.end());
                probes.extend([base - 1, base, base + 1, end - 8, end - 1, end, end + 1]);
                probes.extend([end + layout::STACK_GUARD / 2, base + next() % (end - base)]);
            }
            let last = m.segments().last().unwrap().end();
            probes.extend([last + 8, last + 0x10_0000]);
            for addr in probes {
                for width in [Width::B1, Width::B8] {
                    let len = width.bytes();
                    let at = format!("layout {layout_no}, {addr:#x}, {len} bytes");
                    let want = naive_check(&m, addr, len, false)
                        .map(|(i, off)| decode(&m.segments()[i].data[off..], width));
                    assert_eq!(m.load(addr, width), want, "load at {at}");
                    let val = next() as i64 * 0x1_0001;
                    let want = naive_check(&m, addr, len, true);
                    assert_eq!(m.store(addr, val, width), want.clone().map(|_| ()), "at {at}");
                    if let Ok((i, off)) = want {
                        let stored = decode(&m.segments()[i].data[off..], width);
                        let expect = if width == Width::B1 { val & 0xff } else { val };
                        assert_eq!(stored, expect, "store at {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn kind_and_perm_queries() {
        let m = mem();
        assert_eq!(m.kind_at(0x1000), Some(SegmentKind::Heap));
        assert_eq!(m.kind_at(0x4000), Some(SegmentKind::Rodata));
        assert_eq!(m.kind_at(0x9000), None);
        assert_eq!(m.perm_at(0x4000), Some(Perm::R));
    }
}
