//! Machine configuration and program loading.

use std::sync::Arc;

use crate::bytecode::{GlobalDef, Instr, Program, SysCall};
use crate::cache::{CacheConfig, DEFAULT_L1, DEFAULT_L2, DEFAULT_LLC, DEFAULT_MEM_LATENCY};
use crate::cost::CostModel;
use crate::decode::{DecodedProgram, PassMask};
use crate::fault::FaultPlan;
use crate::interp::{Instance, RunResult};
use crate::memory::layout;
use crate::trap::VmError;

/// Exploit mitigations, matching the knobs the paper's RIPE experiment
/// turns off ("Ubuntu 16.04 with disabled ASLR, disabled stack canaries and
/// enabled executable stack").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mitigations {
    /// Non-executable data (NX): when `true`, control transfer into any
    /// data segment traps; when `false`, data segments are executable
    /// (the paper's "executable stack" configuration, generalised).
    pub nx: bool,
    /// Stack canaries checked before every return.
    pub canaries: bool,
    /// Randomise segment base addresses at load time.
    pub aslr: bool,
}

impl Mitigations {
    /// The paper's deliberately insecure RIPE configuration.
    pub fn insecure() -> Self {
        Mitigations { nx: false, canaries: false, aslr: false }
    }

    /// A modern hardened configuration.
    pub fn hardened() -> Self {
        Mitigations { nx: true, canaries: true, aslr: true }
    }
}

impl Default for Mitigations {
    /// Deterministic, canary-free configuration used for performance runs.
    fn default() -> Self {
        Mitigations { nx: true, canaries: false, aslr: false }
    }
}

/// Full machine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MachineConfig {
    /// Number of cores available to `parfor`.
    pub cores: usize,
    /// Clock frequency used to convert cycles to seconds.
    pub freq_hz: f64,
    /// Heap segment size in bytes.
    pub heap_size: u64,
    /// Per-core stack size in bytes.
    pub stack_size: u64,
    /// L1D geometry.
    pub l1: CacheConfig,
    /// L2 geometry.
    pub l2: CacheConfig,
    /// LLC geometry.
    pub llc: CacheConfig,
    /// Main-memory latency in cycles.
    pub mem_latency: u64,
    /// Instruction cost model.
    pub cost: CostModel,
    /// Exploit mitigations.
    pub mitigations: Mitigations,
    /// Seed for ASLR, canary values and the `rand` syscall.
    pub seed: u64,
    /// Instruction budget; exceeding it traps (runaway backstop).
    pub max_instructions: u64,
    /// Deterministic fault injection (disabled by default).
    pub fault_plan: FaultPlan,
    /// Whether decoding runs its `fuse` stage (the equivalence checks
    /// and benches switch it off; measured results are identical
    /// either way).
    pub passes: PassMask,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            cores: 1,
            freq_hz: 3.0e9,
            heap_size: 64 * 1024 * 1024,
            stack_size: 1024 * 1024,
            l1: DEFAULT_L1,
            l2: DEFAULT_L2,
            llc: DEFAULT_LLC,
            mem_latency: DEFAULT_MEM_LATENCY,
            cost: CostModel::default(),
            mitigations: Mitigations::default(),
            seed: 42,
            max_instructions: 20_000_000_000,
            fault_plan: FaultPlan::default(),
            passes: PassMask::all(),
        }
    }
}

impl MachineConfig {
    /// Convenience: default config with `cores` cores.
    pub fn with_cores(cores: usize) -> Self {
        MachineConfig { cores: cores.max(1), ..Default::default() }
    }

    /// Whether running `program` under this configuration can observe
    /// [`seed`](Self::seed). When it is `false`, the [`RunResult`] is the
    /// same for every seed, so runs that differ only in their seed can
    /// share one execution.
    ///
    /// The seed reaches a run only through the ASLR slides and the canary
    /// value drawn at load time, the canary stored in every frame, and the
    /// `rand` syscall (see `Instance::with_decoded`, `push_frame` and
    /// `syscall`). The predicate is conservative: an executable data
    /// segment (`nx` off) lets injected code do anything, and an enabled
    /// fault plan carries a seed of its own that callers derive from the
    /// run's seed.
    pub fn seed_observable(&self, program: &Program) -> bool {
        let m = self.mitigations;
        m.aslr
            || m.canaries
            || !m.nx
            || self.fault_plan.enabled()
            || program
                .functions
                .iter()
                .flat_map(|f| &f.code)
                .any(|i| matches!(i, Instr::Syscall { code: SysCall::Rand, .. }))
    }
}

/// Computed load-time addresses of the data segments.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadBases {
    /// Read-only data base.
    pub rodata: u64,
    /// Globals base.
    pub globals: u64,
    /// Heap base.
    pub heap: u64,
    /// Stack-region base (core `i` stack at `stack + i * stride`).
    pub stack: u64,
}

/// Offsets of global payloads relative to the globals base, plus the total
/// segment size. The layout is deterministic: objects are placed in the
/// order the compiler's layout policy emitted them, each padded to 16 bytes
/// with its redzones around it.
pub fn global_offsets(globals: &[GlobalDef]) -> (Vec<u64>, u64) {
    let mut offsets = Vec::with_capacity(globals.len());
    let mut cur = 0u64;
    for g in globals {
        cur += g.redzone;
        offsets.push(cur);
        cur += g.size;
        cur += g.redzone;
        cur = cur.div_ceil(16) * 16;
    }
    (offsets, cur.max(16))
}

/// The machine: a configuration from which program instances are loaded.
///
/// See the [crate-level documentation](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Machine {
    config: MachineConfig,
}

impl Machine {
    /// Creates a machine with the given configuration.
    pub fn new(config: MachineConfig) -> Self {
        assert!(config.cores >= 1, "a machine needs at least one core");
        Machine { config }
    }

    /// This machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Loads `program` into a fresh instance (memory initialised, shadow
    /// poisoned, caches cold). Loading also pre-decodes the program into
    /// its hot-loop form (see [`crate::decode_program`]).
    ///
    /// # Errors
    ///
    /// Returns [`VmError::NoEntry`] only from [`Instance::run_entry`]; the
    /// load itself cannot fail for well-formed programs.
    ///
    /// # Panics
    ///
    /// Panics if the program contains a jump or branch past the end of
    /// its function (compiler-emitted code never does; hand-assembled
    /// programs can pre-validate with [`crate::decode_program`]).
    pub fn load<'p>(&self, program: &'p Program) -> Instance<'p> {
        Instance::new(program, self.config.clone())
    }

    /// Like [`Machine::load`], but reuses a pre-decoded form of the
    /// *same* `program` (from the decoded-artifact cache) instead of
    /// decoding again. If `decoded` was produced under a different cost
    /// model or pass subset than this machine's config, the program is
    /// silently decoded fresh — reuse is an optimisation, never a
    /// semantic change.
    ///
    /// # Panics
    ///
    /// As [`Machine::load`]. Passing the decoded form of a *different*
    /// program is a logic error with unspecified (but safe) behaviour.
    pub fn load_with<'p>(
        &self,
        program: &'p Program,
        decoded: &Arc<DecodedProgram>,
    ) -> Instance<'p> {
        Instance::with_decoded(program, self.config.clone(), Some(Arc::clone(decoded)))
    }

    /// Loads and runs `program`'s entry function with `args`.
    ///
    /// # Errors
    ///
    /// Returns [`VmError::NoEntry`] if the program has no `main`,
    /// [`VmError::BadArity`] on an argument-count mismatch, or
    /// [`VmError::Trap`] if execution faults.
    pub fn run(&mut self, program: &Program, args: &[i64]) -> Result<RunResult, VmError> {
        self.load(program).run_entry(args)
    }

    /// Canonical (no-ASLR) load bases for this configuration.
    pub fn canonical_bases() -> LoadBases {
        LoadBases {
            rodata: layout::RODATA_BASE,
            globals: layout::GLOBALS_BASE,
            heap: layout::HEAP_BASE,
            stack: layout::STACK_REGION_BASE,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn global_offsets_respect_redzones_and_alignment() {
        let mk = |size, redzone| GlobalDef {
            name: "g".into(),
            size,
            init: Vec::new(),
            is_code_ptr: false,
            redzone,
        };
        let (offs, total) = global_offsets(&[mk(8, 0), mk(8, 32), mk(24, 0)]);
        assert_eq!(offs[0], 0);
        // Second object starts after its left redzone, 16-aligned start.
        assert_eq!(offs[1], 16 + 32);
        // Third starts after second's right redzone, aligned.
        assert_eq!(offs[2], 96);
        assert_eq!(total, 128);
    }

    #[test]
    fn empty_globals_have_nonzero_segment() {
        let (offs, total) = global_offsets(&[]);
        assert!(offs.is_empty());
        assert!(total >= 16);
    }

    #[test]
    fn mitigations_presets() {
        let i = Mitigations::insecure();
        assert!(!i.nx && !i.canaries && !i.aslr);
        let h = Mitigations::hardened();
        assert!(h.nx && h.canaries && h.aslr);
    }

    #[test]
    fn default_config_is_single_core() {
        let c = MachineConfig::default();
        assert_eq!(c.cores, 1);
        assert!(c.freq_hz > 0.0);
        assert_eq!(MachineConfig::with_cores(0).cores, 1);
    }
}
