//! Simulated host fleets for `fex serve` — a deterministic
//! discrete-event failure timeline over a homogeneous cluster.
//!
//! The serve daemon's fleet mode shards a submission's benchmarks across
//! these simulated hosts via `fex_core::distributed`'s partitioner. This
//! module supplies the *failure model*: given a fleet and a seeded mean
//! time between failures, it plays a discrete-event timeline (exponential
//! inter-arrival draws against a fixed tick horizon) and reports which
//! hosts went down and when. The same seed always produces the same
//! casualty list, so a host-loss campaign is exactly reproducible — the
//! property the serve fault-tolerance tests lean on.
//!
//! At least one host always survives: a fleet that loses every member
//! cannot re-distribute work anywhere, so the simulation stops injecting
//! failures once a single survivor remains (mirroring
//! `DistributedRun::effective_partition`'s every-host-dead error).

use std::collections::BinaryHeap;

/// One simulated host: a name plus the machine shape its share of a
/// distributed run executes under (`fex_core::distributed` takes these
/// directly). Serve fleets are homogeneous by construction
/// ([`Fleet::homogeneous`]) so results are byte-identical no matter
/// which survivor a benchmark lands on.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetHost {
    /// Host name (`node0`, `node1`, …).
    pub name: String,
    /// Cores available to `parfor`.
    pub cores: usize,
    /// Clock frequency in Hz.
    pub freq_hz: f64,
}

impl FleetHost {
    /// Creates a host with at least one core.
    pub fn new(name: impl Into<String>, cores: usize, freq_hz: f64) -> Self {
        FleetHost { name: name.into(), cores: cores.max(1), freq_hz }
    }
}

/// A simulated cluster.
#[derive(Debug, Clone, PartialEq)]
pub struct Fleet {
    /// Member hosts, in partition order.
    pub hosts: Vec<FleetHost>,
}

impl Fleet {
    /// A homogeneous fleet of `n` identical hosts named `node0..`.
    /// Identical machine shapes are what make fleet campaigns
    /// byte-reproducible under any re-distribution.
    pub fn homogeneous(n: usize, cores: usize, freq_hz: f64) -> Fleet {
        let hosts =
            (0..n.max(1)).map(|i| FleetHost::new(format!("node{i}"), cores, freq_hz)).collect();
        Fleet { hosts }
    }

    /// Number of hosts.
    pub fn len(&self) -> usize {
        self.hosts.len()
    }

    /// Whether the fleet has no hosts (never true for
    /// [`Fleet::homogeneous`], which floors at one).
    pub fn is_empty(&self) -> bool {
        self.hosts.is_empty()
    }
}

/// The failure model: seeded, with a mean time between failures in
/// simulation ticks. `mtbf_ticks == 0` disables failures entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureModel {
    /// Mean ticks between host failures across the whole fleet.
    pub mtbf_ticks: u64,
    /// Seed for the failure timeline.
    pub seed: u64,
}

/// One host loss on the timeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HostLoss {
    /// Simulation tick of the failure.
    pub tick: u64,
    /// Index into [`Fleet::hosts`].
    pub host: usize,
}

/// The played-out timeline: host losses in tick order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FleetTimeline {
    /// Losses in increasing tick order.
    pub losses: Vec<HostLoss>,
}

impl FleetTimeline {
    /// Names of the downed hosts, in loss order.
    pub fn downed<'f>(&self, fleet: &'f Fleet) -> Vec<&'f str> {
        self.losses
            .iter()
            .filter_map(|l| fleet.hosts.get(l.host))
            .map(|h| h.name.as_str())
            .collect()
    }
}

/// Splitmix64 — the same tiny deterministic generator the fuzzing layer
/// uses; re-implemented locally so netsim stays dependency-free.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// An exponential-ish inter-arrival draw in ticks: uniform over
/// `[mtbf/2, 3*mtbf/2)`, which keeps the mean at `mtbf` without floating
/// point (the timeline must be bit-stable across platforms).
fn next_gap(state: &mut u64, mtbf: u64) -> u64 {
    let span = mtbf.max(1);
    span / 2 + splitmix64(state) % span + 1
}

/// Plays the failure timeline over `horizon` ticks.
///
/// Failure events are queued discrete-event style (a min-ordered heap of
/// pending arrivals) and applied in tick order; each arrival downs a
/// pseudo-randomly chosen *live* host. Injection stops when one survivor
/// remains — a fully dead fleet cannot host re-distributed work.
pub fn simulate(fleet: &Fleet, model: &FailureModel, horizon: u64) -> FleetTimeline {
    let mut timeline = FleetTimeline::default();
    if model.mtbf_ticks == 0 || fleet.len() <= 1 {
        return timeline;
    }
    let mut state = model.seed ^ 0x000f_1ee7_0000_0000 ^ fleet.len() as u64;
    // Min-heap of pending failure arrivals (Reverse for min ordering).
    let mut pending: BinaryHeap<std::cmp::Reverse<u64>> = BinaryHeap::new();
    pending.push(std::cmp::Reverse(next_gap(&mut state, model.mtbf_ticks)));
    let mut alive: Vec<usize> = (0..fleet.len()).collect();
    while let Some(std::cmp::Reverse(tick)) = pending.pop() {
        if tick > horizon || alive.len() <= 1 {
            break;
        }
        let victim = alive.remove((splitmix64(&mut state) % alive.len() as u64) as usize);
        timeline.losses.push(HostLoss { tick, host: victim });
        pending.push(std::cmp::Reverse(tick + next_gap(&mut state, model.mtbf_ticks)));
    }
    timeline
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_fleets_share_one_machine_shape() {
        let fleet = Fleet::homogeneous(4, 2, 3.0e9);
        assert_eq!(fleet.len(), 4);
        assert!(fleet.hosts.iter().all(|h| h.cores == 2 && h.freq_hz == 3.0e9));
        assert_eq!(fleet.hosts[0].name, "node0");
        assert_eq!(fleet.hosts[3].name, "node3");
        // Degenerate sizes floor at one host with at least one core.
        assert_eq!(Fleet::homogeneous(0, 0, 1.0e9).len(), 1);
        assert_eq!(Fleet::homogeneous(0, 0, 1.0e9).hosts[0].cores, 1);
    }

    #[test]
    fn timelines_are_deterministic_per_seed() {
        let fleet = Fleet::homogeneous(5, 2, 3.0e9);
        let model = FailureModel { mtbf_ticks: 100, seed: 7 };
        let a = simulate(&fleet, &model, 1_000);
        let b = simulate(&fleet, &model, 1_000);
        assert_eq!(a, b);
        let c = simulate(&fleet, &FailureModel { mtbf_ticks: 100, seed: 8 }, 1_000);
        assert!(!a.losses.is_empty());
        // A different seed reorders or re-targets the casualty list.
        assert_ne!(a, c);
    }

    #[test]
    fn losses_are_tick_ordered_and_distinct() {
        let fleet = Fleet::homogeneous(6, 1, 2.0e9);
        let t = simulate(&fleet, &FailureModel { mtbf_ticks: 50, seed: 3 }, 10_000);
        let ticks: Vec<u64> = t.losses.iter().map(|l| l.tick).collect();
        let mut sorted = ticks.clone();
        sorted.sort_unstable();
        assert_eq!(ticks, sorted);
        let mut hosts: Vec<usize> = t.losses.iter().map(|l| l.host).collect();
        hosts.sort_unstable();
        hosts.dedup();
        assert_eq!(hosts.len(), t.losses.len(), "a host fails at most once");
    }

    #[test]
    fn at_least_one_host_survives() {
        let fleet = Fleet::homogeneous(4, 1, 2.0e9);
        // Aggressive failure rate over a long horizon: still never a
        // full wipe-out.
        for seed in 0..32 {
            let t = simulate(&fleet, &FailureModel { mtbf_ticks: 1, seed }, u64::MAX / 2);
            assert!(t.losses.len() < fleet.len(), "seed {seed} wiped the fleet");
        }
    }

    #[test]
    fn zero_mtbf_and_single_host_fleets_never_fail() {
        let fleet = Fleet::homogeneous(4, 1, 2.0e9);
        assert!(simulate(&fleet, &FailureModel { mtbf_ticks: 0, seed: 1 }, 1_000)
            .losses
            .is_empty());
        let solo = Fleet::homogeneous(1, 1, 2.0e9);
        assert!(simulate(&solo, &FailureModel { mtbf_ticks: 5, seed: 1 }, 1_000).losses.is_empty());
    }

    #[test]
    fn downed_resolves_names_in_loss_order() {
        let fleet = Fleet::homogeneous(5, 2, 3.0e9);
        let t = simulate(&fleet, &FailureModel { mtbf_ticks: 40, seed: 11 }, 5_000);
        let names = t.downed(&fleet);
        assert_eq!(names.len(), t.losses.len());
        for (name, loss) in names.iter().zip(&t.losses) {
            assert_eq!(*name, fleet.hosts[loss.host].name);
        }
    }
}
