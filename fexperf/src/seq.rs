//! Seeded op sequences: every input a run feeds fex comes from its
//! `--seed`.

/// SplitMix64: small, seedable, and the same on every platform.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one stream of a seed.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03))
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The `edit_loop` order of one permutation cycle over `n` benchmarks:
/// cycle `c` of a run is a fresh permutation, so a run that covers whole
/// cycles edits every benchmark equally often.
pub fn edit_cycle(seed: u64, cycle: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    Rng::new(seed, 0x0ed1_7000 + cycle).shuffle(&mut order);
    order
}

/// The three `serve_mix` submission classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// An earlier key resubmitted by another tenant.
    Dup,
    /// An unseen key whose every run unit is in the artifact graph.
    Warm,
    /// Never-seen inline programs: compiled and executed.
    Dirty,
}

impl Class {
    /// The class name used in metric names.
    pub fn name(self) -> &'static str {
        match self {
            Class::Dup => "dup",
            Class::Warm => "warm",
            Class::Dirty => "dirty",
        }
    }
}

/// One block of a class stream: exactly 40% dup, 45% warm, 15% dirty.
/// Drawing each op's class independently would let the realized mix, and
/// with it the quantile of the warm latencies that `op_p50_ms` lands on,
/// vary from seed to seed.
const BLOCK: [(Class, usize); 3] = [(Class::Dup, 8), (Class::Warm, 9), (Class::Dirty, 3)];

/// One `serve_mix` client's class stream: seeded shuffles of [`BLOCK`].
#[derive(Debug, Clone)]
pub struct ClassStream {
    rng: Rng,
    block: Vec<Class>,
}

impl ClassStream {
    /// The stream of client `client` under `seed`.
    pub fn new(seed: u64, client: u64) -> ClassStream {
        ClassStream { rng: Rng::new(seed, 0x5e7e_0000 + client), block: Vec::new() }
    }
}

impl Iterator for ClassStream {
    type Item = Class;

    fn next(&mut self) -> Option<Class> {
        if self.block.is_empty() {
            self.block = BLOCK.iter().flat_map(|&(c, n)| std::iter::repeat_n(c, n)).collect();
            self.rng.shuffle(&mut self.block);
        }
        self.block.pop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_cycles_are_seeded_permutations() {
        let a = edit_cycle(7, 0, 19);
        assert_eq!(a, edit_cycle(7, 0, 19));
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..19).collect::<Vec<_>>());
        assert_ne!(a, edit_cycle(8, 0, 19));
        assert_ne!(a, edit_cycle(7, 1, 19));
    }

    #[test]
    fn class_streams_are_seeded_and_mixed_40_45_15() {
        let take = |seed, client| ClassStream::new(seed, client).take(200).collect::<Vec<_>>();
        assert_eq!(take(1, 0), take(1, 0));
        assert_ne!(take(1, 0), take(2, 0));
        assert_ne!(take(1, 0), take(1, 1));
        // Every block of 20 holds exactly 8 dup, 9 warm and 3 dirty.
        for block in take(5, 1).chunks(20) {
            let count = |c| block.iter().filter(|x| **x == c).count();
            assert_eq!((count(Class::Dup), count(Class::Warm), count(Class::Dirty)), (8, 9, 3));
        }
    }

    #[test]
    fn shuffles_depend_on_the_seed() {
        let shuffled = |seed| {
            let mut v: Vec<u32> = (0..50).collect();
            Rng::new(seed, 9).shuffle(&mut v);
            v
        };
        assert_eq!(shuffled(1), shuffled(1));
        assert_ne!(shuffled(1), shuffled(2));
    }
}
