//! Set-associative cache hierarchy simulator.
//!
//! Models a three-level hierarchy (per-core L1D and L2, shared LLC) with
//! LRU replacement. Every simulated load and store is pushed through
//! [`CacheHierarchy::access`], which returns where the access hit so the
//! cost model can charge the right latency; per-level hit/miss counters
//! feed the `perf stat -e cache-…` reproduction (experiment X3).
//!
//! The model is deliberately simple — physical indexing, no coherence
//! traffic, write-allocate/write-back — which is sufficient for the
//! *relative* comparisons the paper's plots make.

/// Configuration of a single cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total size in bytes.
    pub size: u64,
    /// Associativity (ways per set).
    pub ways: u64,
    /// Line size in bytes.
    pub line: u64,
    /// Hit latency in cycles.
    pub latency: u64,
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> u64 {
        self.size / (self.ways * self.line)
    }
}

/// Identifies a cache level in results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CacheLevel {
    /// First-level data cache.
    L1,
    /// Second-level cache.
    L2,
    /// Last-level cache.
    Llc,
}

/// Where an access was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HitLevel {
    /// Hit in L1.
    L1,
    /// Missed L1, hit L2.
    L2,
    /// Missed L2, hit LLC.
    Llc,
    /// Missed everywhere — served from memory.
    Memory,
}

/// Per-level access statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that reached this level.
    pub accesses: u64,
    /// Lookups satisfied at this level.
    pub hits: u64,
}

impl CacheStats {
    /// Misses at this level.
    pub fn misses(&self) -> u64 {
        self.accesses - self.hits
    }

    /// Miss ratio in `[0, 1]`; zero when there were no accesses.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses() as f64 / self.accesses as f64
        }
    }
}

/// A way holds the bitwise complement of its line's tag, so that an
/// invalid (never filled or flushed) way is zero and a fresh tag array
/// is a zeroed allocation the host maps lazily. No real line has tag
/// `u64::MAX`: a tag is `addr / line`, and an address high enough to
/// produce it is not representable.
const INVALID_WAY: u64 = 0;

/// One set-associative cache with LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `config.ways`, pre-widened for slice indexing.
    ways: usize,
    /// `config.sets()`, precomputed so the hot lookup never divides to
    /// re-derive the geometry.
    sets_count: u64,
    /// `log2(line)` when the line size is a power of two (it always is
    /// for realistic geometries): tag extraction becomes a shift.
    line_shift: Option<u32>,
    /// `sets - 1` when the set count is a power of two: set selection
    /// becomes a mask.
    set_mask: Option<u64>,
    /// `sets × ways` complemented tags in one flat row-major allocation;
    /// [`INVALID_WAY`] = invalid line. Within each set's row, index 0 is
    /// the most recently used way.
    tags: Vec<u64>,
    /// Lookups so far.
    accesses: u64,
    /// Lookups that missed. Only [`Cache::walk`]'s miss arm counts, so a
    /// way-0 hit touches one counter; [`Cache::stats`] derives the hits.
    misses: u64,
}

impl Cache {
    /// Creates an empty (cold) cache.
    pub fn new(config: CacheConfig) -> Self {
        assert!(
            config.size.is_multiple_of(config.ways * config.line),
            "size must be sets*ways*line"
        );
        let sets_count = config.sets();
        let ways = config.ways as usize;
        Cache {
            config,
            ways,
            sets_count,
            line_shift: config.line.is_power_of_two().then(|| config.line.trailing_zeros()),
            set_mask: sets_count.is_power_of_two().then(|| sets_count - 1),
            tags: vec![INVALID_WAY; sets_count as usize * ways],
            accesses: 0,
            misses: 0,
        }
    }

    /// This cache's configuration.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Access statistics so far.
    pub fn stats(&self) -> CacheStats {
        CacheStats { accesses: self.accesses, hits: self.accesses - self.misses }
    }

    /// Looks up `addr`; on miss the line is filled. Returns `true` on hit.
    ///
    /// Way 0 of a set holds its most recently used line, and a re-touch
    /// of that line leaves the LRU order as it is, so the common repeat
    /// hit is one compare; every other access takes `Cache::walk`.
    #[inline(always)]
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let tag = match self.line_shift {
            Some(s) => addr >> s,
            None => addr / self.config.line,
        };
        let set_idx = match self.set_mask {
            Some(m) => (tag & m) as usize,
            None => (tag % self.sets_count) as usize,
        };
        let base = set_idx * self.ways;
        let way = !tag;
        if self.tags[base] == way {
            return true;
        }
        self.walk(base, way)
    }

    /// The LRU walk of the set starting at `base` for a line (stored form
    /// `way`) that is not in way 0: a hit moves the line to way 0, a miss
    /// evicts the last way and fills way 0.
    #[inline(never)]
    fn walk(&mut self, base: usize, way: u64) -> bool {
        // Way 0 takes the line, and each way down to the line's own (a
        // hit) or past the last (a miss, which evicts it) takes its
        // predecessor's line: one pass, with the order of the rest kept.
        let mut carry = way;
        for slot in &mut self.tags[base..base + self.ways] {
            let old = std::mem::replace(slot, carry);
            if old == way {
                return true;
            }
            carry = old;
        }
        self.misses += 1;
        false
    }

    /// Invalidates all lines and keeps statistics (used between parfor
    /// chunks to model cold per-core caches).
    pub fn flush(&mut self) {
        self.tags.fill(INVALID_WAY);
    }

    /// Resets statistics to zero.
    pub fn reset_stats(&mut self) {
        (self.accesses, self.misses) = (0, 0);
    }
}

/// A full hierarchy: per-core L1 and L2, one shared LLC.
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    llc: Cache,
    /// Per-core count of accesses served from memory (the shared LLC's
    /// own statistics do not say which core missed).
    llc_misses: Vec<u64>,
    mem_latency: u64,
}

/// One core's view of the hierarchy: its private levels' statistics and
/// its misses in the shared LLC.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreCacheStats {
    /// This core's L1 statistics; every access reaches L1.
    pub l1: CacheStats,
    /// This core's L2 statistics.
    pub l2: CacheStats,
    /// This core's accesses that missed the LLC too.
    pub llc_misses: u64,
}

/// Default L1D: 32 KiB, 8-way, 64 B lines, 4-cycle hit.
pub const DEFAULT_L1: CacheConfig = CacheConfig { size: 32 * 1024, ways: 8, line: 64, latency: 4 };
/// Default L2: 256 KiB, 8-way, 64 B lines, 12-cycle hit.
pub const DEFAULT_L2: CacheConfig =
    CacheConfig { size: 256 * 1024, ways: 8, line: 64, latency: 12 };
/// Default LLC: 8 MiB, 16-way, 64 B lines, 40-cycle hit.
pub const DEFAULT_LLC: CacheConfig =
    CacheConfig { size: 8 * 1024 * 1024, ways: 16, line: 64, latency: 40 };
/// Default main-memory latency in cycles.
pub const DEFAULT_MEM_LATENCY: u64 = 200;

impl CacheHierarchy {
    /// Builds a hierarchy for `cores` cores.
    pub fn new(
        cores: usize,
        l1: CacheConfig,
        l2: CacheConfig,
        llc: CacheConfig,
        mem_latency: u64,
    ) -> Self {
        CacheHierarchy {
            l1: (0..cores).map(|_| Cache::new(l1)).collect(),
            l2: (0..cores).map(|_| Cache::new(l2)).collect(),
            llc: Cache::new(llc),
            llc_misses: vec![0; cores],
            mem_latency,
        }
    }

    /// Builds a hierarchy with the default geometry.
    pub fn with_defaults(cores: usize) -> Self {
        Self::new(cores, DEFAULT_L1, DEFAULT_L2, DEFAULT_LLC, DEFAULT_MEM_LATENCY)
    }

    /// Number of cores this hierarchy serves.
    pub fn cores(&self) -> usize {
        self.l1.len()
    }

    /// Performs one access from `core` and returns `(where it hit, cycles)`.
    /// An L1 way-0 hit inlines into the caller; everything past it runs
    /// out of line.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    #[inline(always)]
    pub fn access(&mut self, core: usize, addr: u64) -> (HitLevel, u64) {
        let l1 = &mut self.l1[core];
        if l1.access(addr) {
            return (HitLevel::L1, l1.config.latency);
        }
        self.beyond_l1(core, addr)
    }

    /// The L2 and LLC lookups of an access that missed L1.
    #[inline(never)]
    fn beyond_l1(&mut self, core: usize, addr: u64) -> (HitLevel, u64) {
        if self.l2[core].access(addr) {
            return (HitLevel::L2, self.l2[core].config.latency);
        }
        if self.llc.access(addr) {
            return (HitLevel::Llc, self.llc.config.latency);
        }
        self.llc_misses[core] += 1;
        (HitLevel::Memory, self.mem_latency)
    }

    /// Statistics of `core`'s private levels and its LLC misses.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_stats(&self, core: usize) -> CoreCacheStats {
        CoreCacheStats {
            l1: self.l1[core].stats(),
            l2: self.l2[core].stats(),
            llc_misses: self.llc_misses[core],
        }
    }

    /// Statistics for one level; per-core levels are summed across cores.
    pub fn stats(&self, level: CacheLevel) -> CacheStats {
        match level {
            CacheLevel::L1 => sum_stats(&self.l1),
            CacheLevel::L2 => sum_stats(&self.l2),
            CacheLevel::Llc => self.llc.stats(),
        }
    }

    /// Flushes the private caches of `core` (cold-start for a parfor chunk).
    pub fn flush_core(&mut self, core: usize) {
        self.l1[core].flush();
        self.l2[core].flush();
    }
}

fn sum_stats(caches: &[Cache]) -> CacheStats {
    let mut s = CacheStats::default();
    for c in caches {
        s.accesses += c.stats().accesses;
        s.hits += c.stats().hits;
    }
    s
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;

    fn tiny() -> Cache {
        // 2 sets × 2 ways × 64 B = 256 B.
        Cache::new(CacheConfig { size: 256, ways: 2, line: 64, latency: 1 })
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = tiny();
        assert!(!c.access(0));
        assert!(c.access(0));
        assert!(c.access(63)); // same line
        assert!(!c.access(64)); // next line, other set
        assert_eq!(c.stats().accesses, 4);
        assert_eq!(c.stats().hits, 2);
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Lines 0, 128, 256 all map to set 0 (line/sets: tag%2==0).
        assert!(!c.access(0));
        assert!(!c.access(128));
        // Touch 0 again so 128 is LRU.
        assert!(c.access(0));
        // 256 evicts 128.
        assert!(!c.access(256));
        assert!(c.access(0));
        assert!(!c.access(128));
    }

    #[test]
    fn flush_keeps_stats_but_clears_lines() {
        let mut c = tiny();
        c.access(0);
        c.flush();
        assert!(!c.access(0));
        assert_eq!(c.stats().accesses, 2);
        assert_eq!(c.stats().hits, 0);
    }

    #[test]
    fn hierarchy_miss_then_faster_levels() {
        let mut h = CacheHierarchy::with_defaults(2);
        let (lvl, lat) = h.access(0, 0x1000);
        assert_eq!(lvl, HitLevel::Memory);
        assert_eq!(lat, DEFAULT_MEM_LATENCY);
        let (lvl, lat) = h.access(0, 0x1000);
        assert_eq!(lvl, HitLevel::L1);
        assert_eq!(lat, DEFAULT_L1.latency);
        // Other core misses its private caches but hits the shared LLC.
        let (lvl, _) = h.access(1, 0x1000);
        assert_eq!(lvl, HitLevel::Llc);
    }

    #[test]
    fn stats_aggregate_across_cores() {
        let mut h = CacheHierarchy::with_defaults(2);
        h.access(0, 0);
        h.access(1, 0);
        assert_eq!(h.stats(CacheLevel::L1).accesses, 2);
        assert_eq!(h.stats(CacheLevel::Llc).accesses, 2);
        assert_eq!(h.stats(CacheLevel::Llc).hits, 1);
    }

    /// The reference model: one `VecDeque` of lines per set, most recent
    /// first, searched and reordered naively.
    struct RefCache {
        config: CacheConfig,
        sets: Vec<VecDeque<u64>>,
        stats: CacheStats,
    }

    impl RefCache {
        fn new(config: CacheConfig) -> Self {
            RefCache {
                config,
                sets: vec![VecDeque::new(); config.sets() as usize],
                stats: CacheStats::default(),
            }
        }

        fn access(&mut self, addr: u64) -> bool {
            self.stats.accesses += 1;
            let line = addr / self.config.line;
            let set = &mut self.sets[(line % self.config.sets()) as usize];
            let hit = match set.iter().position(|l| *l == line) {
                Some(pos) => {
                    set.remove(pos);
                    true
                }
                None => {
                    if set.len() as u64 == self.config.ways {
                        set.pop_back();
                    }
                    false
                }
            };
            set.push_front(line);
            self.stats.hits += u64::from(hit);
            hit
        }

        fn flush(&mut self) {
            self.sets.iter_mut().for_each(VecDeque::clear);
        }
    }

    struct RefHierarchy {
        l1: Vec<RefCache>,
        l2: Vec<RefCache>,
        llc: RefCache,
        llc_misses: Vec<u64>,
        mem_latency: u64,
    }

    impl RefHierarchy {
        fn new(cores: usize, l1: CacheConfig, l2: CacheConfig, llc: CacheConfig) -> Self {
            RefHierarchy {
                l1: (0..cores).map(|_| RefCache::new(l1)).collect(),
                l2: (0..cores).map(|_| RefCache::new(l2)).collect(),
                llc: RefCache::new(llc),
                llc_misses: vec![0; cores],
                mem_latency: 100,
            }
        }

        fn access(&mut self, core: usize, addr: u64) -> (HitLevel, u64) {
            if self.l1[core].access(addr) {
                (HitLevel::L1, self.l1[core].config.latency)
            } else if self.l2[core].access(addr) {
                (HitLevel::L2, self.l2[core].config.latency)
            } else if self.llc.access(addr) {
                (HitLevel::Llc, self.llc.config.latency)
            } else {
                self.llc_misses[core] += 1;
                (HitLevel::Memory, self.mem_latency)
            }
        }

        fn core_stats(&self, core: usize) -> CoreCacheStats {
            CoreCacheStats {
                l1: self.l1[core].stats,
                l2: self.l2[core].stats,
                llc_misses: self.llc_misses[core],
            }
        }
    }

    fn geometry(sets: u64, ways: u64, line: u64, latency: u64) -> CacheConfig {
        CacheConfig { size: sets * ways * line, ways, line, latency }
    }

    /// Drives `CacheHierarchy` and the reference model with one seeded
    /// stream on two cores: repeats of the last address, hops within a
    /// window a few times the L1's size, and far jumps, with a
    /// `flush_core` now and then.
    fn check_against_reference(l1: CacheConfig, l2: CacheConfig, llc: CacheConfig, seed: u64) {
        const CORES: usize = 2;
        let mut model = RefHierarchy::new(CORES, l1, l2, llc);
        let mut real = CacheHierarchy::new(CORES, l1, l2, llc, model.mem_latency);
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            state >> 33
        };
        let window = 4 * l1.size;
        let mut last = [0u64; CORES];
        for i in 0..20_000 {
            let core = (next() % CORES as u64) as usize;
            let addr = match next() % 8 {
                0..=2 => last[core],
                3..=6 => next() % window,
                _ => next() % (64 * llc.size),
            };
            last[core] = addr;
            assert_eq!(real.access(core, addr), model.access(core, addr), "access {i} at {addr}");
            if next() % 1000 == 0 {
                let core = (next() % CORES as u64) as usize;
                real.flush_core(core);
                model.l1[core].flush();
                model.l2[core].flush();
            }
        }
        for core in 0..CORES {
            assert_eq!(real.core_stats(core), model.core_stats(core), "core {core}");
        }
        let sum = |caches: &[RefCache]| CacheStats {
            accesses: caches.iter().map(|c| c.stats.accesses).sum(),
            hits: caches.iter().map(|c| c.stats.hits).sum(),
        };
        assert_eq!(real.stats(CacheLevel::L1), sum(&model.l1));
        assert_eq!(real.stats(CacheLevel::L2), sum(&model.l2));
        assert_eq!(real.stats(CacheLevel::Llc), model.llc.stats);
    }

    #[test]
    fn hierarchy_matches_a_naive_lru_model() {
        let geometries = [
            // The default machine's shape, scaled down so evictions happen.
            (geometry(8, 8, 64, 4), geometry(16, 8, 64, 12), geometry(64, 16, 64, 40)),
            // Direct-mapped L1: every hit is a way-0 hit.
            (geometry(4, 1, 64, 4), geometry(8, 2, 64, 12), geometry(32, 4, 64, 40)),
            // Set counts that are not powers of two.
            (geometry(3, 2, 64, 4), geometry(5, 4, 64, 12), geometry(7, 4, 64, 40)),
            // A line size that is not a power of two.
            (geometry(4, 2, 48, 4), geometry(6, 4, 48, 12), geometry(10, 8, 48, 40)),
        ];
        for (i, (l1, l2, llc)) in geometries.into_iter().enumerate() {
            for seed in [1, 42, 0x9e37_79b9] {
                check_against_reference(l1, l2, llc, seed + i as u64);
            }
        }
    }

    #[test]
    fn miss_ratio_bounds() {
        let s = CacheStats { accesses: 0, hits: 0 };
        assert_eq!(s.miss_ratio(), 0.0);
        let s = CacheStats { accesses: 10, hits: 4 };
        assert!((s.miss_ratio() - 0.6).abs() < 1e-12);
    }
}
