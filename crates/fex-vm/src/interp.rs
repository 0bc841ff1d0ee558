//! The bytecode interpreter.
//!
//! An [`Instance`] is one loaded program: initialised memory and shadow,
//! cold caches, per-core stacks. Calls push frames whose bookkeeping words
//! (return address, saved frame pointer, optional canary) live in simulated
//! memory, so memory-corrupting programs corrupt *their own* control state
//! — exactly the behaviour the RIPE reproduction needs.

use std::sync::Arc;

use crate::branch::BranchPredictor;
use crate::bytecode::{
    code_addr, decode_code_addr, BinOp, FBinOp, FCmpOp, FuncId, Program, Reg, SysCall, UnOp, Width,
};
use crate::cache::{CacheHierarchy, CacheLevel, CacheStats};
use crate::counters::PerfCounters;
use crate::decode::{decode_program_passes, DecodedInstr, DecodedProgram};
use crate::heap::{Heap, HeapStats};
use crate::machine::{global_offsets, LoadBases, MachineConfig};
use crate::memory::{layout, Memory, Perm, SegmentKind};
use crate::shadow::{PoisonKind, ShadowMemory};
use crate::trap::{Trap, VmError};

/// The 16-byte marker the security experiments plant as "shellcode".
///
/// When control is transferred to a data address whose bytes start with
/// this sequence *and* the containing segment is executable, the VM treats
/// it as successful shellcode execution (the RIPE shellcode's observable
/// behaviour — creating a dummy file — is recorded as an
/// [`AttackEvent::CreatFile`]).
pub const SHELLCODE: [u8; 16] = *b"\x90\x90SHELLCODE!!\xCC\xCC\xCC";

/// Security-relevant events observed during a run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AttackEvent {
    /// Shellcode bytes were executed at the given address.
    ShellcodeExecuted {
        /// Address the shellcode ran at.
        addr: u64,
    },
    /// The `creat_file` libc stand-in ran (return-into-libc success when
    /// reached via a hijack).
    CreatFile {
        /// First argument passed to the call.
        arg: i64,
    },
    /// The program's own `attack_success` marker syscall ran.
    Marker,
}

/// Result of one run (or one [`Instance::call`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Value returned by the entry function.
    pub exit: i64,
    /// Captured standard output.
    pub stdout: String,
    /// Aggregated counters across all cores.
    pub counters: PerfCounters,
    /// Per-core counters.
    pub per_core: Vec<PerfCounters>,
    /// Elapsed cycles on the main timeline (serial time + per-parfor
    /// maximum across cores + barrier costs).
    pub elapsed_cycles: u64,
    /// `elapsed_cycles / freq_hz`.
    pub wall_seconds: f64,
    /// Heap statistics.
    pub heap: HeapStats,
    /// Estimated resident set size: globals + peak heap reservation +
    /// nominal per-core stack, plus (for ASan builds) the 1:8 shadow of
    /// all of it — the terms that dominate real ASan RSS overheads.
    pub maxrss_bytes: u64,
    /// L1 statistics.
    pub l1: CacheStats,
    /// L2 statistics.
    pub l2: CacheStats,
    /// LLC statistics.
    pub llc: CacheStats,
    /// Security events, in order of occurrence.
    pub attack_events: Vec<AttackEvent>,
    /// Control-flow hijacks detected (target addresses), whether or not
    /// they led to a successful attack.
    pub hijacks: Vec<i64>,
}

struct Frame {
    func: FuncId,
    pc: usize,
    regs: Vec<i64>,
    /// Register in the *caller's* frame receiving the return value.
    ret_dst: Option<Reg>,
    /// Memory slot holding the return address.
    ret_slot: u64,
    canary_slot: Option<u64>,
    /// Addresses of the function's stack array slots.
    slot_addrs: Vec<u64>,
    /// The return-address value written at call time.
    expected_ret: i64,
    /// Stack pointer to restore on return.
    prev_sp: u64,
    /// `[start, len)` covering arrays + redzones, for ASan (un)poisoning.
    array_region: (u64, u64),
}

enum Flow {
    /// Keep running the top frame.
    Continue,
    /// Push this callee frame and run it.
    Call(Frame),
    Exit(i64),
}

/// A loaded program with live memory, ready to run.
///
/// Create via [`Machine::load`](crate::Machine::load). An instance may be
/// [`run_entry`](Instance::run_entry) once or [`call`](Instance::call)ed
/// repeatedly (memory state persists across calls, counters are reported
/// per call).
pub struct Instance<'p> {
    program: &'p Program,
    /// Hot-loop form of `program`: validated jump targets and pre-summed
    /// per-block costs (see [`crate::decode`]). Behind an `Arc` so the
    /// execution loop can hold the instruction stream while `&mut self`
    /// methods run.
    decoded: Arc<DecodedProgram>,
    config: MachineConfig,
    mem: Memory,
    shadow: ShadowMemory,
    caches: CacheHierarchy,
    heap: Heap,
    bases: LoadBases,
    global_addrs: Vec<u64>,
    stdout: String,
    per_core: Vec<PerfCounters>,
    timeline_cycles: u64,
    /// Cycles and instructions the running core has accrued since the
    /// last [`Self::flush`], which folds them into `per_core[core]` (and
    /// the cycles into `timeline_cycles` outside a `parfor`).
    acc_cycles: u64,
    acc_instrs: u64,
    core: usize,
    in_parfor: bool,
    rng: u64,
    canary: i64,
    attack_events: Vec<AttackEvent>,
    hijacks: Vec<i64>,
    sp: Vec<u64>,
    stack_floor: Vec<u64>,
    instr_budget_used: u64,
    /// `min(max_instructions + 1, pending fault's instruction)`: the
    /// budget at which [`Self::count_instr`] leaves its fast path.
    instr_threshold: u64,
    /// Pending fault from the config's `FaultPlan`, decided at load time
    /// and fired at most once.
    fault: Option<crate::fault::FaultDecision>,
    /// ASan quarantine: freed blocks (payload addr, bytes) held poisoned
    /// before really returning to the allocator, FIFO.
    quarantine: std::collections::VecDeque<(u64, u64)>,
    quarantine_bytes: u64,
    predictors: Vec<BranchPredictor>,
}

/// ASan quarantine capacity before the oldest blocks are recycled.
const QUARANTINE_CAP: u64 = 256 * 1024;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl<'p> Instance<'p> {
    pub(crate) fn new(program: &'p Program, config: MachineConfig) -> Self {
        Self::with_decoded(program, config, None)
    }

    /// Like [`Instance::new`], but reuses `predecoded` — which **must**
    /// be the decoded form of this `program` — when it matches the
    /// config's cost model and pass subset; otherwise the program is
    /// decoded fresh. This is the decoded-artifact cache entry point: a
    /// shared `Arc<DecodedProgram>` makes loading free of decode work.
    pub(crate) fn with_decoded(
        program: &'p Program,
        config: MachineConfig,
        predecoded: Option<Arc<DecodedProgram>>,
    ) -> Self {
        // Seed reader 1 of 3 (see `MachineConfig::seed_observable`): the
        // ASLR slides and the canary value are drawn from the seed here,
        // and what is left of the stream seeds the `rand` syscall.
        let mut seed = config.seed ^ 0xF3E5_D00D;
        let slide = |rng: &mut u64, on: bool| {
            if on {
                (splitmix(rng) % 4096) * 16
            } else {
                0
            }
        };
        let mut rng_state = seed;
        let aslr = config.mitigations.aslr;
        let bases = LoadBases {
            rodata: layout::RODATA_BASE + slide(&mut rng_state, aslr),
            globals: layout::GLOBALS_BASE + slide(&mut rng_state, aslr),
            heap: layout::HEAP_BASE + slide(&mut rng_state, aslr),
            stack: layout::STACK_REGION_BASE + slide(&mut rng_state, aslr),
        };
        seed = rng_state;

        let data_perm = if config.mitigations.nx { Perm::RW } else { Perm::RWX };
        let mut mem = Memory::new();
        // Read-only data.
        let ro_size = (program.rodata.len() as u64).max(8).div_ceil(16) * 16;
        mem.map(bases.rodata, ro_size, Perm::R, SegmentKind::Rodata);
        mem.write_bytes_raw(bases.rodata, &program.rodata).expect("rodata fits its segment");
        // Globals. Real data segments end with page slack, so a small
        // overflow past the last object corrupts padding instead of
        // faulting — required for RIPE's overflows to behave like C.
        const DATA_TAIL: u64 = 4096;
        let (offsets, total) = global_offsets(&program.globals);
        mem.map(bases.globals, total + DATA_TAIL, data_perm, SegmentKind::Globals);
        let global_addrs: Vec<u64> = offsets.iter().map(|o| bases.globals + o).collect();
        for (g, addr) in program.globals.iter().zip(&global_addrs) {
            mem.write_bytes(*addr, &g.init).expect("global init fits its object");
        }
        // Heap.
        mem.map(bases.heap, config.heap_size, data_perm, SegmentKind::Heap);
        // Stacks.
        let stride = config.stack_size + layout::STACK_GUARD;
        let mut sp = Vec::new();
        let mut stack_floor = Vec::new();
        for c in 0..config.cores {
            let base = bases.stack + c as u64 * stride;
            mem.map(base, config.stack_size, data_perm, SegmentKind::Stack(c));
            stack_floor.push(base);
            sp.push(base + config.stack_size);
        }

        let mut shadow = ShadowMemory::mirroring(&mem);
        if program.asan {
            for (g, addr) in program.globals.iter().zip(&global_addrs) {
                if g.redzone > 0 {
                    shadow.poison(addr - g.redzone, g.redzone, PoisonKind::GlobalRedzone);
                    shadow.poison(addr + g.size, g.redzone, PoisonKind::GlobalRedzone);
                }
            }
        }

        let caches =
            CacheHierarchy::new(config.cores, config.l1, config.l2, config.llc, config.mem_latency);
        let heap = Heap::new(bases.heap, config.heap_size);
        let canary = splitmix(&mut seed) as i64 | 0x0100; // never a plausible code addr
        let cores = config.cores;
        let fault = config.fault_plan.decide();
        let decoded = match predecoded {
            Some(d) if d.cost == config.cost && d.passes == config.passes => d,
            _ => Arc::new(
                decode_program_passes(program, &config.cost, config.passes)
                    .unwrap_or_else(|e| panic!("program does not decode: {e}")),
            ),
        };
        let mut instance = Instance {
            program,
            decoded,
            config,
            mem,
            shadow,
            caches,
            heap,
            bases,
            global_addrs,
            stdout: String::new(),
            per_core: vec![PerfCounters::default(); cores],
            timeline_cycles: 0,
            acc_cycles: 0,
            acc_instrs: 0,
            core: 0,
            in_parfor: false,
            rng: seed,
            canary,
            attack_events: Vec::new(),
            hijacks: Vec::new(),
            sp,
            stack_floor,
            instr_budget_used: 0,
            instr_threshold: 0,
            fault,
            quarantine: std::collections::VecDeque::new(),
            quarantine_bytes: 0,
            predictors: vec![BranchPredictor::new(); cores],
        };
        instance.instr_threshold = instance.next_instr_threshold();
        instance
    }

    /// The load bases chosen for this instance (differs from
    /// [`Machine::canonical_bases`](crate::Machine::canonical_bases) when
    /// ASLR is enabled).
    pub fn bases(&self) -> LoadBases {
        self.bases
    }

    /// Address of global `index` in this instance.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn global_addr(&self, index: usize) -> u64 {
        self.global_addrs[index]
    }

    /// Direct read access to simulated memory (for harnesses and tests).
    pub fn memory(&self) -> &Memory {
        &self.mem
    }

    /// Security events observed so far — available even after a trap, so
    /// harnesses can classify attacks that succeed and *then* crash.
    pub fn attack_events(&self) -> &[AttackEvent] {
        &self.attack_events
    }

    /// Control-flow hijacks observed so far (target addresses).
    pub fn hijacks(&self) -> &[i64] {
        &self.hijacks
    }

    /// Direct write access to simulated memory (for harnesses seeding
    /// inputs). Does not charge cycles.
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Runs the program's entry function.
    ///
    /// # Errors
    ///
    /// [`VmError::NoEntry`] if there is no entry function,
    /// [`VmError::BadArity`] if `args` does not match its parameter count,
    /// or [`VmError::Trap`] if execution faults.
    pub fn run_entry(&mut self, args: &[i64]) -> Result<RunResult, VmError> {
        let entry = self.program.entry.ok_or(VmError::NoEntry)?;
        self.call_id(entry, args)
    }

    /// Runs the named function. Memory state persists across calls;
    /// counters in the returned result cover only this call.
    ///
    /// # Errors
    ///
    /// [`VmError::NoEntry`] if no function has that name, otherwise as
    /// [`Instance::run_entry`].
    pub fn call(&mut self, name: &str, args: &[i64]) -> Result<RunResult, VmError> {
        let id = self.program.function_by_name(name).ok_or(VmError::NoEntry)?;
        self.call_id(id, args)
    }

    fn call_id(&mut self, id: FuncId, args: &[i64]) -> Result<RunResult, VmError> {
        let f = &self.program.functions[id.0 as usize];
        if f.param_count as usize != args.len() {
            return Err(VmError::BadArity {
                function: f.name.clone(),
                expected: f.param_count,
                got: args.len(),
            });
        }
        // Snapshot counters so `call` reports per-call deltas.
        self.flush();
        self.sync_cache_counters();
        let before: Vec<PerfCounters> = self.per_core.clone();
        let timeline_before = self.timeline_cycles;
        let stdout_before = self.stdout.len();
        let events_before = self.attack_events.len();
        let hijacks_before = self.hijacks.len();

        let sentinel = code_addr(FuncId(u32::MAX), 0);
        let mut frames = Vec::new();
        let exit = self.push_frame(id, args.iter().copied(), None, sentinel).and_then(|root| {
            frames.push(root);
            self.exec(&mut frames)
        });
        self.unwind(&mut frames);
        // A trapping call's accruals count too: the next call's snapshot
        // must include them.
        self.flush();
        let exit = exit?;
        self.sync_cache_counters();

        let mut per_core: Vec<PerfCounters> = Vec::with_capacity(self.per_core.len());
        for (now, then) in self.per_core.iter().zip(&before) {
            let mut d = *now;
            d.instructions -= then.instructions;
            d.cycles -= then.cycles;
            d.loads -= then.loads;
            d.stores -= then.stores;
            d.branches -= then.branches;
            d.branch_mispredicts -= then.branch_mispredicts;
            d.l1_misses -= then.l1_misses;
            d.l2_misses -= then.l2_misses;
            d.llc_misses -= then.llc_misses;
            d.l1_accesses -= then.l1_accesses;
            d.calls -= then.calls;
            d.allocs -= then.allocs;
            d.alloc_bytes -= then.alloc_bytes;
            d.asan_checks -= then.asan_checks;
            per_core.push(d);
        }
        let mut counters = PerfCounters::default();
        for c in &per_core {
            counters.merge(c);
        }
        let elapsed = self.timeline_cycles - timeline_before;
        counters.cycles = elapsed.max(counters.cycles.min(elapsed));
        // RSS estimate: data segment + peak heap + touched stack (nominal
        // 64 KiB per core); ASan builds additionally keep the 1:8 shadow
        // of everything resident.
        let globals_size = self
            .mem
            .segments()
            .iter()
            .find(|s| s.kind == SegmentKind::Globals)
            .map(|s| s.data.len() as u64)
            .unwrap_or(0);
        let touched_stack = 64 * 1024 * self.config.cores as u64;
        let base_rss = globals_size + self.heap.stats().peak_reserved + touched_stack;
        let maxrss_bytes = if self.program.asan { base_rss + base_rss / 8 } else { base_rss };
        Ok(RunResult {
            exit,
            stdout: self.stdout[stdout_before..].to_string(),
            counters: PerfCounters { cycles: elapsed, ..counters },
            per_core,
            elapsed_cycles: elapsed,
            wall_seconds: elapsed as f64 / self.config.freq_hz,
            heap: self.heap.stats(),
            maxrss_bytes,
            l1: self.caches.stats(CacheLevel::L1),
            l2: self.caches.stats(CacheLevel::L2),
            llc: self.caches.stats(CacheLevel::Llc),
            attack_events: self.attack_events[events_before..].to_vec(),
            hijacks: self.hijacks[hijacks_before..].to_vec(),
        })
    }

    // ------------------------------------------------------------------
    // Accounting helpers
    // ------------------------------------------------------------------

    fn charge(&mut self, cycles: u64) {
        self.acc_cycles += cycles;
    }

    /// Folds the running core's accrued cycles and instructions into its
    /// counters, and the cycles into the main timeline outside a
    /// `parfor`. Runs wherever counters are read or the core changes.
    fn flush(&mut self) {
        let c = &mut self.per_core[self.core];
        c.cycles += self.acc_cycles;
        c.instructions += self.acc_instrs;
        if !self.in_parfor {
            self.timeline_cycles += self.acc_cycles;
        }
        self.acc_cycles = 0;
        self.acc_instrs = 0;
    }

    fn count_instr(&mut self, n: u64) -> Result<(), Trap> {
        self.acc_instrs += n;
        self.instr_budget_used += n;
        if self.instr_budget_used >= self.instr_threshold {
            return self.instr_threshold_reached();
        }
        Ok(())
    }

    /// The budget at which the instruction limit or the pending fault
    /// fires first.
    fn next_instr_threshold(&self) -> u64 {
        let limit = self.config.max_instructions.saturating_add(1);
        self.fault.map_or(limit, |d| limit.min(d.at_instruction))
    }

    /// `count_instr`'s slow path: the exact limit and fault checks. Only a
    /// fired fault moves the threshold (to the limit alone).
    #[cold]
    #[inline(never)]
    fn instr_threshold_reached(&mut self) -> Result<(), Trap> {
        if self.instr_budget_used > self.config.max_instructions {
            return Err(Trap::InstructionLimit { limit: self.config.max_instructions });
        }
        if let Some(d) = self.fault {
            if self.instr_budget_used >= d.at_instruction {
                self.fault = None;
                self.instr_threshold = self.next_instr_threshold();
                return Err(match d.kind {
                    crate::fault::FaultKind::Trap => {
                        Trap::Injected { attempt: self.config.fault_plan.attempt }
                    }
                    // A hang burns the whole budget; what the harness
                    // observes is its watchdog firing.
                    crate::fault::FaultKind::Hang => {
                        self.instr_budget_used = self.config.max_instructions;
                        Trap::InstructionLimit { limit: self.config.max_instructions }
                    }
                });
            }
        }
        Ok(())
    }

    /// Sends one access through the core's caches and charges its
    /// latency. The hierarchy counts it; [`Self::sync_cache_counters`]
    /// turns those counts into the per-core cache counters.
    #[inline(always)]
    fn cache_access(&mut self, addr: u64) {
        let (_, lat) = self.caches.access(self.core, addr);
        self.charge(lat);
    }

    /// Copies each core's cache counts from the hierarchy into its
    /// counters: every access reaches L1 and is a store or a load (ASan
    /// shadow reads are loads), L2 sees exactly L1's misses, and the
    /// hierarchy keeps each core's LLC misses. Called at `call_id`'s
    /// boundaries, where the per-call deltas are taken.
    fn sync_cache_counters(&mut self) {
        for (core, c) in self.per_core.iter_mut().enumerate() {
            let s = self.caches.core_stats(core);
            c.l1_accesses = s.l1.accesses;
            c.loads = s.l1.accesses - c.stores;
            c.l1_misses = s.l1.misses();
            c.l2_misses = s.l2.misses();
            c.llc_misses = s.llc_misses;
        }
    }

    #[inline]
    fn mem_load(&mut self, addr: u64, width: Width) -> Result<i64, Trap> {
        self.cache_access(addr);
        self.mem.load(addr, width)
    }

    #[inline]
    fn mem_store(&mut self, addr: u64, val: i64, width: Width) -> Result<(), Trap> {
        self.per_core[self.core].stores += 1;
        self.cache_access(addr);
        self.mem.store(addr, val, width)
    }

    #[inline]
    fn shadow_touch(&mut self, app_addr: u64) {
        // The shadow byte itself travels through the cache hierarchy.
        self.cache_access(ShadowMemory::shadow_addr(app_addr));
    }

    // ------------------------------------------------------------------
    // Frames
    // ------------------------------------------------------------------

    /// Pushes a frame for `id` with `args` in its first registers (missing
    /// arguments read as 0, extra ones are dropped).
    fn push_frame(
        &mut self,
        id: FuncId,
        args: impl IntoIterator<Item = i64>,
        ret_dst: Option<Reg>,
        ret_code_addr: i64,
    ) -> Result<Frame, Trap> {
        // Through a copy of the `&'p Program`, so `f` does not borrow `self`.
        let program = self.program;
        let f = &program.functions[id.0 as usize];
        let body = f.frame_array_bytes();
        let canary_sz: u64 = if self.config.mitigations.canaries { 8 } else { 0 };
        let sp_old = self.sp[self.core];
        let ret_slot = sp_old - 8;
        let fp_slot = sp_old - 16;
        let canary_slot = if canary_sz > 0 { Some(sp_old - 24) } else { None };
        let arrays_end = sp_old - 16 - canary_sz;
        let arrays_start = arrays_end - body;
        let new_sp = arrays_start / 16 * 16;
        if new_sp < self.stack_floor[self.core] || new_sp > sp_old {
            return Err(Trap::StackOverflow);
        }

        // Lay out slots bottom-up so overflowing slot 0 walks over later
        // slots, then the canary, saved FP and return address.
        let asan = self.program.asan;
        let mut slot_addrs = Vec::with_capacity(f.stack_slots.len());
        let mut cur = arrays_start;
        let slots = &f.stack_slots;
        for s in slots {
            cur += s.redzone;
            slot_addrs.push(cur);
            cur += s.size + s.redzone;
        }
        // A push that traps after poisoning clears the region it poisoned,
        // as popping the frame would have.
        let laid = (|| -> Result<(), Trap> {
            if asan {
                let mut cur = arrays_start;
                for s in slots {
                    if s.redzone > 0 {
                        self.shadow.poison(cur, s.redzone, PoisonKind::StackRedzone);
                        self.shadow.unpoison(cur + s.redzone, s.size);
                        self.shadow.poison(
                            cur + s.redzone + s.size,
                            s.redzone,
                            PoisonKind::StackRedzone,
                        );
                        // Poisoning costs real work: ~1 alu op per granule.
                        let granules = (2 * s.redzone + s.size) / 8;
                        self.charge(granules.max(1));
                        self.count_instr(granules.max(1))?;
                    } else {
                        self.shadow.unpoison(cur, s.size);
                    }
                    cur += s.size + 2 * s.redzone;
                }
            }

            // Frame bookkeeping words live in simulated memory.
            self.mem_store(ret_slot, ret_code_addr, Width::B8)?;
            self.mem_store(fp_slot, sp_old as i64, Width::B8)?;
            // Seed reader 2 of 3: the seed-drawn canary lands in simulated
            // memory, where an out-of-bounds read can see it.
            if let Some(cs) = canary_slot {
                self.mem_store(cs, self.canary, Width::B8)?;
            }
            self.charge(self.config.cost.call);
            self.count_instr(1)?;
            Ok(())
        })();
        if let Err(trap) = laid {
            if asan && body > 0 {
                self.shadow.unpoison(arrays_start, body);
            }
            return Err(trap);
        }
        self.per_core[self.core].calls += 1;
        self.sp[self.core] = new_sp;

        let mut regs = vec![0i64; f.reg_count.max(f.param_count) as usize];
        for (r, a) in regs.iter_mut().zip(args) {
            *r = a;
        }
        Ok(Frame {
            func: id,
            pc: 0,
            regs,
            ret_dst,
            ret_slot,
            canary_slot,
            slot_addrs,
            expected_ret: ret_code_addr,
            prev_sp: sp_old,
            array_region: (arrays_start, body),
        })
    }

    fn pop_frame_cleanup(&mut self, frame: &Frame) {
        if self.program.asan {
            let (start, len) = frame.array_region;
            if len > 0 {
                self.shadow.unpoison(start, len);
            }
        }
        self.sp[self.core] = frame.prev_sp;
    }

    /// Pops every frame left on `frames`, top first. A trap leaves its
    /// frames there (and a shellcode exit the frames below it); popping
    /// them gives the running core back its stack pointer from before
    /// the call and unpoisons the frames' arrays, so a later call on the
    /// same instance starts from a clean stack.
    fn unwind(&mut self, frames: &mut Vec<Frame>) {
        while let Some(frame) = frames.pop() {
            self.pop_frame_cleanup(&frame);
        }
    }

    // ------------------------------------------------------------------
    // Main loop
    // ------------------------------------------------------------------

    fn exec(&mut self, frames: &mut Vec<Frame>) -> Result<i64, Trap> {
        // A second owner of the decoded program, so instruction borrows
        // stay independent of the `&mut self` the handlers need.
        let decoded = Arc::clone(&self.decoded);
        loop {
            // Borrow the top frame and its code once, and run it in place
            // until an instruction needs the frame stack or the code ends.
            let fr = frames.last_mut().expect("exec frame stack never empty");
            let func = &decoded.functions[fr.func.0 as usize];
            let code = &func.code[..];
            let accrual = &func.accrual[..code.len()];
            let stack_instr = loop {
                let pc = fr.pc;
                let Some(instr) = code.get(pc) else { break None };
                fr.pc = pc + 1;
                // Entering a basic block: accrue its whole static cost at
                // once. Non-leader pcs carry a zero accrual.
                let (instrs, cycles) = accrual[pc];
                if instrs != 0 {
                    self.count_instr(u64::from(instrs))?;
                    self.charge(cycles);
                }
                if !self.exec_local(instr, fr)? {
                    break Some(instr);
                }
            };
            let flow = match stack_instr {
                Some(instr) => self.step(instr, frames)?,
                // Fell off the end: implicit `return 0`.
                None => self.do_ret(frames, None)?,
            };
            match flow {
                Flow::Continue => {}
                Flow::Call(callee) => frames.push(callee),
                Flow::Exit(v) => return Ok(v),
            }
        }
    }

    /// Executes one instruction against the current frame. Returns
    /// `false`, having done nothing, for the three instructions that
    /// change the frame stack (`Call`, `CallInd`, `Ret`): [`Self::step`]
    /// runs those.
    #[inline]
    fn exec_local(&mut self, instr: &DecodedInstr, fr: &mut Frame) -> Result<bool, Trap> {
        macro_rules! r {
            ($reg:expr) => {
                fr.regs[$reg.0 as usize]
            };
        }
        match instr {
            DecodedInstr::Imm { dst, val } => r!(dst) = *val,
            DecodedInstr::FImm { dst, val } => r!(dst) = val.to_bits() as i64,
            DecodedInstr::Mov { dst, src } => {
                let v = r!(src);
                r!(dst) = v;
            }
            DecodedInstr::Un { op, dst, a } => {
                let x = r!(a);
                r!(dst) = un_op(*op, x);
            }
            DecodedInstr::Bin { op, dst, a, b } => {
                let (x, y) = (r!(a), r!(b));
                r!(dst) = int_bin(*op, x, y)?;
            }
            DecodedInstr::Load { dst, addr, off, width } => {
                let a = (r!(addr)).wrapping_add(*off) as u64;
                let v = self.mem_load(a, *width)?;
                r!(dst) = v;
            }
            DecodedInstr::Store { src, addr, off, width } => {
                let a = (r!(addr)).wrapping_add(*off) as u64;
                let v = r!(src);
                self.mem_store(a, v, *width)?;
            }
            DecodedInstr::FrameAddr { dst, index } => {
                let a = fr.slot_addrs[*index];
                r!(dst) = a as i64;
            }
            DecodedInstr::GlobalAddr { dst, index } => {
                let a = self.global_addrs[*index];
                r!(dst) = a as i64;
            }
            DecodedInstr::RodataAddr { dst, offset } => {
                let a = self.bases.rodata + offset;
                r!(dst) = a as i64;
            }
            DecodedInstr::FBin { op, dst, a, b } => {
                let (x, y) = (f64::from_bits(r!(a) as u64), f64::from_bits(r!(b) as u64));
                let v = match op {
                    FBinOp::Add => x + y,
                    FBinOp::Sub => x - y,
                    FBinOp::Mul => x * y,
                    FBinOp::Div => x / y,
                };
                r!(dst) = v.to_bits() as i64;
            }
            DecodedInstr::FMulAdd { dst, a, b, c } => {
                let x = f64::from_bits(r!(a) as u64);
                let y = f64::from_bits(r!(b) as u64);
                let z = f64::from_bits(r!(c) as u64);
                // Deliberately NOT f64::mul_add: fused rounding would make
                // gcc- and clang-profile builds produce different bits,
                // breaking the framework's cross-build validation. The
                // *cost* of the fusion is still modelled (one fma-latency
                // instruction instead of mul + add).
                r!(dst) = (x * y + z).to_bits() as i64;
            }
            DecodedInstr::FMulSub { dst, a, b, c } => {
                let x = f64::from_bits(r!(a) as u64);
                let y = f64::from_bits(r!(b) as u64);
                let z = f64::from_bits(r!(c) as u64);
                r!(dst) = (x * y - z).to_bits() as i64;
            }
            DecodedInstr::FNegMulAdd { dst, a, b, c } => {
                let x = f64::from_bits(r!(a) as u64);
                let y = f64::from_bits(r!(b) as u64);
                let z = f64::from_bits(r!(c) as u64);
                r!(dst) = (z - x * y).to_bits() as i64;
            }
            DecodedInstr::FCmp { op, dst, a, b } => {
                let (x, y) = (f64::from_bits(r!(a) as u64), f64::from_bits(r!(b) as u64));
                let v = match op {
                    FCmpOp::Eq => x == y,
                    FCmpOp::Ne => x != y,
                    FCmpOp::Lt => x < y,
                    FCmpOp::Le => x <= y,
                    FCmpOp::Gt => x > y,
                    FCmpOp::Ge => x >= y,
                };
                r!(dst) = v as i64;
            }
            DecodedInstr::AsanCheck { addr, off, width, is_write } => {
                let a = (r!(addr)).wrapping_add(*off) as u64;
                self.asan_check(a, *width, *is_write)?;
            }
            DecodedInstr::Jmp { target } => fr.pc = *target as usize,
            // `pc` was already advanced past a branch; -1 is its site.
            DecodedInstr::BrZero { cond, target } => {
                let taken = r!(cond) == 0;
                self.observe_branch_at(fr.func, fr.pc - 1, taken);
                if taken {
                    fr.pc = *target as usize;
                }
            }
            DecodedInstr::BrNonZero { cond, target } => {
                let taken = r!(cond) != 0;
                self.observe_branch_at(fr.func, fr.pc - 1, taken);
                if taken {
                    fr.pc = *target as usize;
                }
            }
            DecodedInstr::Call { .. } | DecodedInstr::CallInd { .. } | DecodedInstr::Ret { .. } => {
                return Ok(false)
            }
            DecodedInstr::ParFor { func, lo, hi, args } => {
                let (lo, hi) = (r!(lo), r!(hi));
                self.par_for(*func, lo, hi, args, &fr.regs)?;
            }
            DecodedInstr::Syscall { code, args, dst } => {
                let out = self.syscall(*code, args, &fr.regs)?;
                if let (Some(d), Some(v)) = (dst, out) {
                    r!(d) = v;
                }
            }
            DecodedInstr::Nop => {}
            // Fused superinstructions: both constituents execute in
            // program order with identical trap, aliasing and predictor
            // behaviour; the second constituent's shadow slot is stepped
            // over (block accrual already counted both — see decode).
            DecodedInstr::CmpBr { op, dst, a, b, neg, target, site } => {
                let (x, y) = (r!(a), r!(b));
                let v = int_bin(*op, x, y)?;
                r!(dst) = v;
                let taken = if *neg { v == 0 } else { v != 0 };
                // The predictor site is the *original branch* pc, so a
                // fused and an unfused run train identical tables.
                self.observe_branch_at(fr.func, *site as usize, taken);
                if taken {
                    fr.pc = *target as usize;
                } else {
                    fr.pc += 1; // step over the shadow slot
                }
            }
            DecodedInstr::LoadBin { ld, addr, off, width, op, dst, a, b } => {
                let ad = (r!(addr)).wrapping_add(*off) as u64;
                let v = self.mem_load(ad, *width)?;
                r!(ld) = v;
                let (x, y) = (r!(a), r!(b));
                r!(dst) = int_bin(*op, x, y)?;
                fr.pc += 1;
            }
            DecodedInstr::BinBin { op1, dst1, a1, b1, op2, dst2, a2, b2 } => {
                let (x, y) = (r!(a1), r!(b1));
                r!(dst1) = int_bin(*op1, x, y)?;
                let (x, y) = (r!(a2), r!(b2));
                r!(dst2) = int_bin(*op2, x, y)?;
                fr.pc += 1;
            }
            DecodedInstr::ChkLoad { dst, addr, off, width } => {
                // The check never writes a register, so the shared
                // address operands evaluate identically in both halves.
                let a = (r!(addr)).wrapping_add(*off) as u64;
                self.asan_check(a, *width, false)?;
                let v = self.mem_load(a, *width)?;
                r!(dst) = v;
                fr.pc += 1;
            }
            DecodedInstr::BinMovJmp { op, dst, a, b, mdst, msrc, target } => {
                let (x, y) = (r!(a), r!(b));
                r!(dst) = int_bin(*op, x, y)?;
                // The copy source is read *after* the binop's write,
                // exactly as the unfused sequence would (msrc is usually
                // the binop's dst).
                let v = r!(msrc);
                r!(mdst) = v;
                fr.pc = *target as usize;
            }
        }
        Ok(true)
    }

    /// Executes one of the instructions that change the frame stack:
    /// `Call`, `CallInd` and `Ret`.
    fn step(&mut self, instr: &DecodedInstr, frames: &mut Vec<Frame>) -> Result<Flow, Trap> {
        let fr = frames.last().expect("frame stack nonempty");
        let regs = &fr.regs;
        match instr {
            DecodedInstr::Call { func, args, dst } => {
                let ret = code_addr(fr.func, fr.pc);
                let argv = args.iter().map(|a| regs[a.0 as usize]);
                Ok(Flow::Call(self.push_frame(*func, argv, *dst, ret)?))
            }
            DecodedInstr::CallInd { addr, args, dst } => {
                let target = regs[addr.0 as usize];
                let ret = code_addr(fr.func, fr.pc);
                self.transfer_to(target, args.iter().map(|a| regs[a.0 as usize]), *dst, ret)
            }
            DecodedInstr::Ret { src } => {
                let v = src.map(|s| regs[s.0 as usize]);
                self.do_ret(frames, v)
            }
            other => unreachable!("frame-local instruction outside the frame loop: {other:?}"),
        }
    }

    /// The ASan shadow check on a resolved address: accounting, the
    /// shadow lookup, and the violation trap. Shared by the plain
    /// `AsanCheck` step and the fused `ChkLoad` handler.
    fn asan_check(&mut self, a: u64, width: Width, is_write: bool) -> Result<(), Trap> {
        // The check is ~3 dynamic instructions in real ASan.
        self.count_instr(2)?;
        self.per_core[self.core].asan_checks += 1;
        self.shadow_touch(a);
        if let Some(kind) = self.shadow.check(a, width.bytes()) {
            return Err(Trap::AsanViolation {
                addr: a,
                write: is_write,
                kind,
                segment: self.mem.kind_at(a),
            });
        }
        Ok(())
    }

    /// Runs a conditional branch at `site_pc` through the core's
    /// predictor, charging the flush penalty on mispredicts. Fused
    /// branches pass the original branch index.
    fn observe_branch_at(&mut self, func: FuncId, site_pc: usize, taken: bool) {
        let site = code_addr(func, site_pc);
        self.per_core[self.core].branches += 1;
        if self.predictors[self.core].observe(site, taken) {
            self.per_core[self.core].branch_mispredicts += 1;
            self.charge(self.config.cost.branch_mispredict);
        }
    }

    /// Handles a `ret`: reads the return address *from simulated memory*
    /// and follows it, detecting hijacks.
    fn do_ret(&mut self, frames: &mut Vec<Frame>, value: Option<i64>) -> Result<Flow, Trap> {
        let frame = frames.last().expect("ret with no frame");
        if let Some(cs) = frame.canary_slot {
            let v = self.mem_load(cs, Width::B8)?;
            if v != self.canary {
                let name = self.program.functions[frame.func.0 as usize].name.clone();
                return Err(Trap::CanarySmashed { function: name });
            }
        }
        let ret_val = self.mem_load(frame.ret_slot, Width::B8)?;
        let expected = frame.expected_ret;
        let ret_dst = frame.ret_dst;
        let frame = frames.pop().expect("ret pops a frame");
        self.pop_frame_cleanup(&frame);

        if ret_val == expected {
            if frames.is_empty() {
                return Ok(Flow::Exit(value.unwrap_or(0)));
            }
            if let (Some(dst), Some(v)) = (ret_dst, value) {
                frames.last_mut().expect("caller frame").regs[dst.0 as usize] = v;
            }
            return Ok(Flow::Continue);
        }

        // Return address was overwritten: control-flow hijack. Arguments
        // for the hijack target are read from where the attacker placed
        // them — just above the smashed return slot, cdecl style.
        self.hijacks.push(ret_val);
        let mut argv = Vec::new();
        if let Some((f, _)) = decode_code_addr(ret_val) {
            if let Some(func) = self.program.functions.get(f.0 as usize) {
                for i in 0..func.param_count as u64 {
                    argv.push(self.mem.load(frame.ret_slot + 8 + 8 * i, Width::B8).unwrap_or(0));
                }
            }
        }
        self.transfer_to(ret_val, argv, None, code_addr(FuncId(u32::MAX), 1))
    }

    /// Transfers control to an arbitrary address: a valid function entry, a
    /// shellcode region, or garbage.
    fn transfer_to(
        &mut self,
        target: i64,
        args: impl IntoIterator<Item = i64>,
        dst: Option<Reg>,
        ret_code_addr: i64,
    ) -> Result<Flow, Trap> {
        if let Some((f, pc)) = decode_code_addr(target) {
            let Some(func) = self.program.functions.get(f.0 as usize) else {
                return Err(Trap::BadCodeAddress { addr: target as u64 });
            };
            if pc != 0 {
                // Mid-function gadget jumps are out of scope for the model.
                return Err(Trap::BadCodeAddress { addr: target as u64 });
            }
            let args = args.into_iter().take(func.param_count as usize);
            return Ok(Flow::Call(self.push_frame(f, args, dst, ret_code_addr)?));
        }
        // Data address: executable only if the segment allows it.
        let addr = target as u64;
        match self.mem.perm_at(addr) {
            Some(p) if p.x => {
                let bytes = self.mem.read_bytes(addr, SHELLCODE.len() as u64).ok();
                if bytes.map(|b| b == SHELLCODE).unwrap_or(false) {
                    self.attack_events.push(AttackEvent::ShellcodeExecuted { addr });
                    // The RIPE shellcode's observable action: creat() of a
                    // dummy file, then exit.
                    self.attack_events.push(AttackEvent::CreatFile { arg: 0 });
                    return Ok(Flow::Exit(0));
                }
                Err(Trap::BadCodeAddress { addr })
            }
            Some(_) => Err(Trap::ExecViolation { addr }),
            None => Err(Trap::BadCodeAddress { addr }),
        }
    }

    /// Runs `func(i, args...)` for `i` in `lo..hi`, split into one chunk
    /// per core; `args` are registers of `regs`, the caller's frame.
    fn par_for(
        &mut self,
        func: FuncId,
        lo: i64,
        hi: i64,
        args: &[Reg],
        regs: &[i64],
    ) -> Result<(), Trap> {
        if self.in_parfor {
            return Err(Trap::NestedParFor);
        }
        let cores = self.config.cores;
        let total = (hi - lo).max(0) as u64;
        if total == 0 {
            return Ok(());
        }
        // The serial cycles so far belong to the timeline.
        self.flush();
        self.in_parfor = true;
        let saved_core = self.core;
        let mut max_delta = 0u64;
        let chunk = total.div_ceil(cores as u64);
        let mut result = Ok(());
        let mut frames = Vec::new();
        for c in 0..cores {
            let start = lo + (c as u64 * chunk) as i64;
            let end = (start + chunk as i64).min(hi);
            if start >= end {
                continue;
            }
            self.core = c;
            self.caches.flush_core(c);
            self.predictors[c].flush();
            let before = self.per_core[c].cycles;
            for i in start..end {
                let argv = std::iter::once(i).chain(args.iter().map(|a| regs[a.0 as usize]));
                let sentinel = code_addr(FuncId(u32::MAX), 2 + c);
                let frame = match self.push_frame(func, argv, None, sentinel) {
                    Ok(f) => f,
                    Err(t) => {
                        result = Err(t);
                        break;
                    }
                };
                frames.push(frame);
                let out = self.exec(&mut frames);
                // On this core, before the next iteration or the core
                // switch below.
                self.unwind(&mut frames);
                if let Err(t) = out {
                    result = Err(t);
                    break;
                }
            }
            // This core's chunk is done: its cycles are read just below.
            self.flush();
            let delta = self.per_core[c].cycles - before;
            max_delta = max_delta.max(delta);
            if result.is_err() {
                break;
            }
        }
        self.core = saved_core;
        self.in_parfor = false;
        // The main timeline advances by the slowest core plus a barrier.
        self.timeline_cycles += max_delta + self.config.cost.barrier_per_core * cores as u64;
        result
    }

    // ------------------------------------------------------------------
    // Syscalls
    // ------------------------------------------------------------------

    /// Runs syscall `code` with `args`, registers of `regs` (the
    /// caller's frame); a missing argument reads as 0.
    fn syscall(&mut self, code: SysCall, args: &[Reg], regs: &[i64]) -> Result<Option<i64>, Trap> {
        use std::fmt::Write as _;
        let arg = |i: usize| -> i64 { args.get(i).map_or(0, |a| regs[a.0 as usize]) };
        match code {
            SysCall::PrintI64 => {
                let _ = writeln!(self.stdout, "{}", arg(0));
                Ok(None)
            }
            SysCall::PrintF64 => {
                let _ = writeln!(self.stdout, "{:.6}", f64::from_bits(arg(0) as u64));
                Ok(None)
            }
            SysCall::PrintStr => {
                let s = self.mem.read_cstr(arg(0) as u64, 1 << 20)?;
                self.stdout.push_str(&String::from_utf8_lossy(&s));
                self.stdout.push('\n');
                Ok(None)
            }
            SysCall::MemCpy => {
                let (dst, src, n) = (arg(0) as u64, arg(1) as u64, arg(2).max(0) as u64);
                self.asan_range_check(src, n, false)?;
                self.asan_range_check(dst, n, true)?;
                let mut i = 0u64;
                while i + 8 <= n {
                    let v = self.mem_load(src + i, Width::B8)?;
                    self.mem_store(dst + i, v, Width::B8)?;
                    self.count_instr(3)?;
                    i += 8;
                }
                while i < n {
                    let v = self.mem_load(src + i, Width::B1)?;
                    self.mem_store(dst + i, v, Width::B1)?;
                    self.count_instr(3)?;
                    i += 1;
                }
                Ok(Some(dst as i64))
            }
            SysCall::MemSet => {
                let (dst, byte, n) = (arg(0) as u64, arg(1) as u8, arg(2).max(0) as u64);
                self.asan_range_check(dst, n, true)?;
                let word = i64::from_le_bytes([byte; 8]);
                let mut i = 0u64;
                while i + 8 <= n {
                    self.mem_store(dst + i, word, Width::B8)?;
                    self.count_instr(2)?;
                    i += 8;
                }
                while i < n {
                    self.mem_store(dst + i, byte as i64, Width::B1)?;
                    self.count_instr(2)?;
                    i += 1;
                }
                Ok(Some(dst as i64))
            }
            SysCall::StrCpy => {
                let (dst, src) = (arg(0) as u64, arg(1) as u64);
                let mut i = 0u64;
                loop {
                    if self.program.asan {
                        if i.is_multiple_of(8) {
                            self.shadow_touch(src + i);
                            self.shadow_touch(dst + i);
                            self.count_instr(4)?;
                            self.per_core[self.core].asan_checks += 2;
                        }
                        if let Some(kind) = self.shadow.check(dst + i, 1) {
                            return Err(Trap::AsanViolation {
                                addr: dst + i,
                                write: true,
                                kind,
                                segment: self.mem.kind_at(dst + i),
                            });
                        }
                    }
                    let v = self.mem_load(src + i, Width::B1)?;
                    self.mem_store(dst + i, v, Width::B1)?;
                    self.count_instr(3)?;
                    if v == 0 {
                        break;
                    }
                    i += 1;
                    if i > (1 << 24) {
                        return Err(Trap::StringTooLong { addr: src });
                    }
                }
                Ok(Some(dst as i64))
            }
            SysCall::StrLen => {
                let src = arg(0) as u64;
                let mut i = 0u64;
                loop {
                    let v = self.mem_load(src + i, Width::B1)?;
                    self.count_instr(2)?;
                    if v == 0 {
                        return Ok(Some(i as i64));
                    }
                    i += 1;
                    if i > (1 << 24) {
                        return Err(Trap::StringTooLong { addr: src });
                    }
                }
            }
            SysCall::Alloc => {
                let n = arg(0).max(0) as u64;
                // ASan scales redzones with allocation size (min 16,
                // capped), like the real allocator.
                let redzone = if self.program.asan { (n / 8).clamp(16, 2048) / 8 * 8 } else { 0 };
                let addr = self.heap.alloc(n, redzone)?;
                self.per_core[self.core].allocs += 1;
                self.per_core[self.core].alloc_bytes += n;
                if self.program.asan {
                    self.shadow.unpoison(addr, n);
                    self.shadow.poison(addr - redzone, redzone, PoisonKind::HeapRedzone);
                    self.shadow.poison(addr + n, redzone, PoisonKind::HeapRedzone);
                }
                Ok(Some(addr as i64))
            }
            SysCall::Free => {
                let addr = arg(0) as u64;
                if self.program.asan {
                    // Quarantine: keep the block poisoned (use-after-free
                    // stays detectable) and only recycle once the
                    // quarantine overflows — matching ASan's allocator and
                    // its memory overhead.
                    if self.quarantine.iter().any(|(a, _)| *a == addr) {
                        return Err(Trap::InvalidFree { addr });
                    }
                    let payload = self.heap.live_payload(addr).ok_or(Trap::InvalidFree { addr })?;
                    self.shadow.poison(addr, payload.max(1), PoisonKind::HeapFreed);
                    self.quarantine.push_back((addr, payload));
                    self.quarantine_bytes += payload;
                    while self.quarantine_bytes > QUARANTINE_CAP {
                        let Some((old, bytes)) = self.quarantine.pop_front() else { break };
                        self.quarantine_bytes -= bytes;
                        let (start, reserved, _) = self.heap.free(old)?;
                        self.shadow.poison(start, reserved, PoisonKind::HeapFreed);
                    }
                } else {
                    self.heap.free(addr)?;
                }
                Ok(None)
            }
            // Seed reader 3 of 3: the program draws from the seed directly.
            SysCall::Rand => {
                let v = splitmix(&mut self.rng) as i64;
                let bound = arg(0);
                Ok(Some(if bound > 0 { v.rem_euclid(bound) } else { v }))
            }
            SysCall::AttackSuccess => {
                self.attack_events.push(AttackEvent::Marker);
                Ok(None)
            }
            SysCall::CreatFile => {
                self.attack_events.push(AttackEvent::CreatFile { arg: arg(0) });
                Ok(Some(0))
            }
            SysCall::Abort => Err(Trap::Abort { code: arg(0) }),
            SysCall::Cycles => {
                self.flush();
                Ok(Some(self.per_core[self.core].cycles as i64))
            }
            SysCall::NumCores => Ok(Some(self.config.cores as i64)),
        }
    }

    fn asan_range_check(&mut self, addr: u64, len: u64, write: bool) -> Result<(), Trap> {
        if !self.program.asan || len == 0 {
            return Ok(());
        }
        let granules = len / 8 + 1;
        self.count_instr(granules)?;
        self.per_core[self.core].asan_checks += granules;
        for g in 0..granules {
            self.shadow_touch(addr + g * 8);
        }
        if let Some(kind) = self.shadow.check(addr, len) {
            return Err(Trap::AsanViolation { addr, write, kind, segment: self.mem.kind_at(addr) });
        }
        Ok(())
    }
}

fn int_bin(op: BinOp, x: i64, y: i64) -> Result<i64, Trap> {
    Ok(match op {
        BinOp::Add => x.wrapping_add(y),
        BinOp::Sub => x.wrapping_sub(y),
        BinOp::Mul => x.wrapping_mul(y),
        BinOp::Div => {
            if y == 0 {
                return Err(Trap::DivByZero);
            }
            x.wrapping_div(y)
        }
        BinOp::Rem => {
            if y == 0 {
                return Err(Trap::DivByZero);
            }
            x.wrapping_rem(y)
        }
        BinOp::And => x & y,
        BinOp::Or => x | y,
        BinOp::Xor => x ^ y,
        BinOp::Shl => x.wrapping_shl(y as u32),
        BinOp::Shr => x.wrapping_shr(y as u32),
        BinOp::Eq => (x == y) as i64,
        BinOp::Ne => (x != y) as i64,
        BinOp::Lt => (x < y) as i64,
        BinOp::Le => (x <= y) as i64,
        BinOp::Gt => (x > y) as i64,
        BinOp::Ge => (x >= y) as i64,
    })
}

fn un_op(op: UnOp, x: i64) -> i64 {
    match op {
        UnOp::Neg => x.wrapping_neg(),
        UnOp::Not => (x == 0) as i64,
        UnOp::BitNot => !x,
        UnOp::I2F => (x as f64).to_bits() as i64,
        UnOp::F2I => f64::from_bits(x as u64) as i64,
        UnOp::FNeg => (-f64::from_bits(x as u64)).to_bits() as i64,
        UnOp::FSqrt => f64::from_bits(x as u64).sqrt().to_bits() as i64,
        UnOp::FExp => f64::from_bits(x as u64).exp().to_bits() as i64,
        UnOp::FLog => f64::from_bits(x as u64).ln().to_bits() as i64,
        UnOp::FAbs => f64::from_bits(x as u64).abs().to_bits() as i64,
        UnOp::FSin => f64::from_bits(x as u64).sin().to_bits() as i64,
        UnOp::FCos => f64::from_bits(x as u64).cos().to_bits() as i64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{Function, GlobalDef, Instr, StackSlot};
    use crate::machine::Machine;

    fn machine() -> Machine {
        Machine::new(MachineConfig::default())
    }

    fn run(p: &Program, args: &[i64]) -> RunResult {
        machine().run(p, args).expect("program runs")
    }

    fn simple_fn(name: &str, params: u16, regs: u16, code: Vec<Instr>) -> Function {
        let mut f = Function::new(name, params);
        f.reg_count = regs;
        f.code = code;
        f
    }

    #[test]
    fn arithmetic_and_exit_code() {
        let mut p = Program::new();
        p.push_function(simple_fn(
            "main",
            0,
            3,
            vec![
                Instr::Imm { dst: Reg(0), val: 6 },
                Instr::Imm { dst: Reg(1), val: 7 },
                Instr::Bin { op: BinOp::Mul, dst: Reg(2), a: Reg(0), b: Reg(1) },
                Instr::Ret { src: Some(Reg(2)) },
            ],
        ));
        assert_eq!(run(&p, &[]).exit, 42);
    }

    #[test]
    fn float_ops_roundtrip() {
        let mut p = Program::new();
        p.push_function(simple_fn(
            "main",
            0,
            3,
            vec![
                Instr::FImm { dst: Reg(0), val: 1.5 },
                Instr::FImm { dst: Reg(1), val: 2.25 },
                Instr::FBin { op: FBinOp::Mul, dst: Reg(2), a: Reg(0), b: Reg(1) },
                Instr::Syscall { code: SysCall::PrintF64, args: vec![Reg(2)], dst: None },
                Instr::Ret { src: None },
            ],
        ));
        assert_eq!(run(&p, &[]).stdout.trim(), "3.375000");
    }

    #[test]
    fn calls_pass_args_and_return_values() {
        let mut p = Program::new();
        p.push_function(simple_fn(
            "double",
            1,
            2,
            vec![
                Instr::Bin { op: BinOp::Add, dst: Reg(1), a: Reg(0), b: Reg(0) },
                Instr::Ret { src: Some(Reg(1)) },
            ],
        ));
        p.push_function(simple_fn(
            "main",
            1,
            2,
            vec![
                Instr::Call { func: FuncId(0), args: vec![Reg(0)], dst: Some(Reg(1)) },
                Instr::Ret { src: Some(Reg(1)) },
            ],
        ));
        assert_eq!(run(&p, &[21]).exit, 42);
    }

    #[test]
    fn globals_load_store() {
        let mut p = Program::new();
        p.globals.push(GlobalDef {
            name: "g".into(),
            size: 16,
            init: 7i64.to_le_bytes().to_vec(),
            is_code_ptr: false,
            redzone: 0,
        });
        p.push_function(simple_fn(
            "main",
            0,
            3,
            vec![
                Instr::GlobalAddr { dst: Reg(0), index: 0 },
                Instr::Load { dst: Reg(1), addr: Reg(0), off: 0, width: Width::B8 },
                Instr::Imm { dst: Reg(2), val: 35 },
                Instr::Bin { op: BinOp::Add, dst: Reg(1), a: Reg(1), b: Reg(2) },
                Instr::Store { src: Reg(1), addr: Reg(0), off: 8, width: Width::B8 },
                Instr::Load { dst: Reg(2), addr: Reg(0), off: 8, width: Width::B8 },
                Instr::Ret { src: Some(Reg(2)) },
            ],
        ));
        assert_eq!(run(&p, &[]).exit, 42);
    }

    #[test]
    fn stack_slot_addressing() {
        let mut p = Program::new();
        let mut f = simple_fn(
            "main",
            0,
            3,
            vec![
                Instr::FrameAddr { dst: Reg(0), index: 0 },
                Instr::Imm { dst: Reg(1), val: 42 },
                Instr::Store { src: Reg(1), addr: Reg(0), off: 24, width: Width::B8 },
                Instr::Load { dst: Reg(2), addr: Reg(0), off: 24, width: Width::B8 },
                Instr::Ret { src: Some(Reg(2)) },
            ],
        );
        f.stack_slots.push(StackSlot { size: 64, redzone: 0 });
        p.push_function(f);
        assert_eq!(run(&p, &[]).exit, 42);
    }

    #[test]
    fn div_by_zero_traps() {
        let mut p = Program::new();
        p.push_function(simple_fn(
            "main",
            0,
            2,
            vec![
                Instr::Imm { dst: Reg(0), val: 1 },
                Instr::Imm { dst: Reg(1), val: 0 },
                Instr::Bin { op: BinOp::Div, dst: Reg(0), a: Reg(0), b: Reg(1) },
                Instr::Ret { src: None },
            ],
        ));
        let err = machine().run(&p, &[]).unwrap_err();
        assert_eq!(err, VmError::Trap(Trap::DivByZero));
    }

    #[test]
    fn heap_alloc_free_and_uaf_detection_under_asan() {
        let code = vec![
            Instr::Imm { dst: Reg(0), val: 64 },
            Instr::Syscall { code: SysCall::Alloc, args: vec![Reg(0)], dst: Some(Reg(1)) },
            Instr::Imm { dst: Reg(2), val: 9 },
            Instr::Store { src: Reg(2), addr: Reg(1), off: 0, width: Width::B8 },
            Instr::Syscall { code: SysCall::Free, args: vec![Reg(1)], dst: None },
            Instr::AsanCheck { addr: Reg(1), off: 0, width: Width::B8, is_write: false },
            Instr::Load { dst: Reg(2), addr: Reg(1), off: 0, width: Width::B8 },
            Instr::Ret { src: Some(Reg(2)) },
        ];
        let mut p = Program::new();
        p.asan = true;
        p.push_function(simple_fn("main", 0, 3, code));
        let err = machine().run(&p, &[]).unwrap_err();
        assert!(matches!(
            err,
            VmError::Trap(Trap::AsanViolation { kind: PoisonKind::HeapFreed, .. })
        ));
    }

    #[test]
    fn counters_track_memory_traffic() {
        let mut p = Program::new();
        p.globals.push(GlobalDef {
            name: "g".into(),
            size: 8,
            init: vec![],
            is_code_ptr: false,
            redzone: 0,
        });
        p.push_function(simple_fn(
            "main",
            0,
            2,
            vec![
                Instr::GlobalAddr { dst: Reg(0), index: 0 },
                Instr::Load { dst: Reg(1), addr: Reg(0), off: 0, width: Width::B8 },
                Instr::Load { dst: Reg(1), addr: Reg(0), off: 0, width: Width::B8 },
                Instr::Ret { src: None },
            ],
        ));
        let r = run(&p, &[]);
        assert!(r.counters.loads >= 2);
        assert!(r.counters.instructions >= 4);
        assert!(r.elapsed_cycles > 0);
        assert!(r.wall_seconds > 0.0);
        // Second load of the same address must hit L1.
        assert!(r.l1.hits >= 1);
    }

    #[test]
    fn parfor_distributes_and_is_deterministic() {
        // worker(i, base): mem[base + i*8] = i*i
        let worker = simple_fn(
            "worker",
            2,
            4,
            vec![
                Instr::Imm { dst: Reg(2), val: 8 },
                Instr::Bin { op: BinOp::Mul, dst: Reg(2), a: Reg(0), b: Reg(2) },
                Instr::Bin { op: BinOp::Add, dst: Reg(2), a: Reg(1), b: Reg(2) },
                Instr::Bin { op: BinOp::Mul, dst: Reg(3), a: Reg(0), b: Reg(0) },
                Instr::Store { src: Reg(3), addr: Reg(2), off: 0, width: Width::B8 },
                Instr::Ret { src: None },
            ],
        );
        let main = simple_fn(
            "main",
            0,
            4,
            vec![
                Instr::GlobalAddr { dst: Reg(0), index: 0 },
                Instr::Imm { dst: Reg(1), val: 0 },
                Instr::Imm { dst: Reg(2), val: 16 },
                Instr::ParFor { func: FuncId(0), lo: Reg(1), hi: Reg(2), args: vec![Reg(0)] },
                Instr::Load { dst: Reg(3), addr: Reg(0), off: 15 * 8, width: Width::B8 },
                Instr::Ret { src: Some(Reg(3)) },
            ],
        );
        let mut p = Program::new();
        p.globals.push(GlobalDef {
            name: "out".into(),
            size: 16 * 8,
            init: vec![],
            is_code_ptr: false,
            redzone: 0,
        });
        p.push_function(worker);
        p.push_function(main);

        let r1 = Machine::new(MachineConfig::with_cores(1)).run(&p, &[]).unwrap();
        let r4 = Machine::new(MachineConfig::with_cores(4)).run(&p, &[]).unwrap();
        assert_eq!(r1.exit, 225);
        assert_eq!(r4.exit, 225);
        // Runs are deterministic.
        let r4b = Machine::new(MachineConfig::with_cores(4)).run(&p, &[]).unwrap();
        assert_eq!(r4.elapsed_cycles, r4b.elapsed_cycles);
    }

    #[test]
    fn ret_addr_overwrite_hijacks_control() {
        // libc-like target.
        let libc = simple_fn(
            "creat",
            1,
            1,
            vec![
                Instr::Syscall { code: SysCall::CreatFile, args: vec![Reg(0)], dst: None },
                Instr::Ret { src: None },
            ],
        );
        // victim(): overwrite own return address with &creat, arg planted
        // above the ret slot.
        // Frame layout: slot(8 bytes), [saved fp], [ret] — slot base + 8 = fp
        // slot? No: ret_slot = slot_addr + 8 + 8? We compute it directly:
        // arrays_end = sp_old-16, slot at arrays_end-8, so ret_slot = slot+16.
        let victim = simple_fn(
            "victim",
            0,
            4,
            vec![
                Instr::FrameAddr { dst: Reg(0), index: 0 },
                // r1 = &creat (FuncId 0)
                Instr::Imm { dst: Reg(1), val: code_addr(FuncId(0), 0) },
                Instr::Store { src: Reg(1), addr: Reg(0), off: 16, width: Width::B8 },
                // plant argument 777 above ret slot
                Instr::Imm { dst: Reg(2), val: 777 },
                Instr::Store { src: Reg(2), addr: Reg(0), off: 24, width: Width::B8 },
                Instr::Ret { src: None },
            ],
        );
        let mut victim = victim;
        victim.stack_slots.push(StackSlot { size: 8, redzone: 0 });
        let main = simple_fn(
            "main",
            0,
            1,
            vec![
                Instr::Call { func: FuncId(1), args: vec![], dst: None },
                Instr::Ret { src: None },
            ],
        );
        let mut p = Program::new();
        p.push_function(libc);
        p.push_function(victim);
        p.push_function(main);

        let cfg = MachineConfig {
            mitigations: crate::Mitigations::insecure(),
            ..MachineConfig::default()
        };
        let r = Machine::new(cfg).run(&p, &[]);
        // Whether or not execution later traps, the hijack must be recorded
        // and creat() must have run with the planted argument.
        let (hijacks, events) = match r {
            Ok(res) => (res.hijacks, res.attack_events),
            Err(_) => panic!("hijacked run should terminate cleanly here"),
        };
        assert_eq!(hijacks.len(), 1);
        assert!(events.contains(&AttackEvent::CreatFile { arg: 777 }));
    }

    #[test]
    fn canary_detects_the_same_attack() {
        let victim = {
            let mut f = simple_fn(
                "victim",
                0,
                2,
                vec![
                    Instr::FrameAddr { dst: Reg(0), index: 0 },
                    Instr::Imm { dst: Reg(1), val: 0x4141_4141 },
                    // With canaries on, the canary sits between the array
                    // and the ret slot; clobber everything above the array.
                    Instr::Store { src: Reg(1), addr: Reg(0), off: 8, width: Width::B8 },
                    Instr::Store { src: Reg(1), addr: Reg(0), off: 16, width: Width::B8 },
                    Instr::Store { src: Reg(1), addr: Reg(0), off: 24, width: Width::B8 },
                    Instr::Ret { src: None },
                ],
            );
            f.stack_slots.push(StackSlot { size: 8, redzone: 0 });
            f
        };
        let main = simple_fn(
            "main",
            0,
            1,
            vec![
                Instr::Call { func: FuncId(0), args: vec![], dst: None },
                Instr::Ret { src: None },
            ],
        );
        let mut p = Program::new();
        p.push_function(victim);
        p.push_function(main);
        let mut cfg = MachineConfig::default();
        cfg.mitigations.canaries = true;
        let err = Machine::new(cfg).run(&p, &[]).unwrap_err();
        assert!(matches!(err, VmError::Trap(Trap::CanarySmashed { .. })));
    }

    #[test]
    fn shellcode_on_executable_stack_runs() {
        // Write the shellcode marker into a stack buffer, then "return" to it.
        let mut code = vec![Instr::FrameAddr { dst: Reg(0), index: 0 }];
        for (i, chunk) in SHELLCODE.chunks(8).enumerate() {
            let mut b = [0u8; 8];
            b.copy_from_slice(chunk);
            code.push(Instr::Imm { dst: Reg(1), val: i64::from_le_bytes(b) });
            code.push(Instr::Store {
                src: Reg(1),
                addr: Reg(0),
                off: (i * 8) as i64,
                width: Width::B8,
            });
        }
        // Overwrite ret slot (array is 32 bytes; ret at +40) with &buf.
        code.push(Instr::Store { src: Reg(0), addr: Reg(0), off: 40, width: Width::B8 });
        code.push(Instr::Ret { src: None });
        let mut victim = simple_fn("victim", 0, 2, code);
        victim.stack_slots.push(StackSlot { size: 32, redzone: 0 });
        let main = simple_fn(
            "main",
            0,
            1,
            vec![
                Instr::Call { func: FuncId(0), args: vec![], dst: None },
                Instr::Ret { src: None },
            ],
        );
        let mut p = Program::new();
        p.push_function(victim);
        p.push_function(main);

        // Insecure machine: executable stack — shellcode runs.
        let cfg = MachineConfig {
            mitigations: crate::Mitigations::insecure(),
            ..MachineConfig::default()
        };
        let r = Machine::new(cfg).run(&p, &[]).unwrap();
        assert!(r.attack_events.iter().any(|e| matches!(e, AttackEvent::ShellcodeExecuted { .. })));

        // NX machine: same program traps with an exec violation.
        let mut cfg = MachineConfig::default();
        cfg.mitigations.nx = true;
        let err = Machine::new(cfg).run(&p, &[]).unwrap_err();
        assert!(matches!(err, VmError::Trap(Trap::ExecViolation { .. })));
    }

    #[test]
    fn aslr_moves_bases() {
        let mut p = Program::new();
        p.push_function(simple_fn("main", 0, 1, vec![Instr::Ret { src: None }]));
        let m_plain = Machine::new(MachineConfig::default());
        let mut cfg = MachineConfig::default();
        cfg.mitigations.aslr = true;
        let m_aslr = Machine::new(cfg);
        let plain = m_plain.load(&p).bases();
        let slid = m_aslr.load(&p).bases();
        assert_eq!(plain.globals, layout::GLOBALS_BASE);
        assert_ne!(
            (slid.rodata, slid.globals, slid.heap, slid.stack),
            (plain.rodata, plain.globals, plain.heap, plain.stack)
        );
    }

    #[test]
    fn instruction_limit_stops_runaway_loops() {
        let mut p = Program::new();
        p.push_function(simple_fn("main", 0, 1, vec![Instr::Jmp { target: 0 }]));
        let cfg = MachineConfig { max_instructions: 10_000, ..MachineConfig::default() };
        let err = Machine::new(cfg).run(&p, &[]).unwrap_err();
        assert!(matches!(err, VmError::Trap(Trap::InstructionLimit { .. })));
    }

    #[test]
    fn strcpy_overflow_is_caught_by_asan_redzone() {
        // src: a 32-byte global string; dst: an 8-byte stack array with
        // redzones under ASan.
        let mut src_init = vec![b'A'; 24];
        src_init.push(0);
        let mut p = Program::new();
        p.asan = true;
        p.globals.push(GlobalDef {
            name: "src".into(),
            size: 32,
            init: src_init,
            is_code_ptr: false,
            redzone: 32,
        });
        let mut victim = simple_fn(
            "main",
            0,
            2,
            vec![
                Instr::FrameAddr { dst: Reg(0), index: 0 },
                Instr::GlobalAddr { dst: Reg(1), index: 0 },
                Instr::Syscall { code: SysCall::StrCpy, args: vec![Reg(0), Reg(1)], dst: None },
                Instr::Ret { src: None },
            ],
        );
        victim.stack_slots.push(StackSlot { size: 8, redzone: 32 });
        p.push_function(victim);
        let err = machine().run(&p, &[]).unwrap_err();
        assert!(matches!(
            err,
            VmError::Trap(Trap::AsanViolation { kind: PoisonKind::StackRedzone, .. })
        ));
    }

    #[test]
    fn repeated_calls_report_per_call_counters() {
        let mut p = Program::new();
        p.push_function(simple_fn(
            "work",
            1,
            2,
            vec![
                Instr::Bin { op: BinOp::Add, dst: Reg(1), a: Reg(0), b: Reg(0) },
                Instr::Ret { src: Some(Reg(1)) },
            ],
        ));
        let m = machine();
        let mut inst = m.load(&p);
        let r1 = inst.call("work", &[5]).unwrap();
        let r2 = inst.call("work", &[6]).unwrap();
        assert_eq!(r1.exit, 10);
        assert_eq!(r2.exit, 12);
        // Second call should be comparable, not cumulative.
        assert!(r2.counters.instructions <= r1.counters.instructions * 2);
        assert!(r2.counters.instructions > 0);
    }

    /// `sweep(n)` stores to and reloads `n` lines of a global array, one
    /// 64-byte line apart.
    fn sweep_program(asan: bool) -> Program {
        let mut p = Program::new();
        p.asan = asan;
        p.globals.push(GlobalDef {
            name: "a".into(),
            size: 1024 * 64,
            init: vec![],
            is_code_ptr: false,
            redzone: if asan { 32 } else { 0 },
        });
        let code = vec![
            Instr::GlobalAddr { dst: Reg(1), index: 0 },
            Instr::Imm { dst: Reg(2), val: 0 },
            Instr::Imm { dst: Reg(3), val: 64 },
            Instr::Imm { dst: Reg(7), val: 1 },
            Instr::Bin { op: BinOp::Lt, dst: Reg(4), a: Reg(2), b: Reg(0) },
            Instr::BrZero { cond: Reg(4), target: 12 },
            Instr::Bin { op: BinOp::Mul, dst: Reg(5), a: Reg(2), b: Reg(3) },
            Instr::Bin { op: BinOp::Add, dst: Reg(5), a: Reg(5), b: Reg(1) },
            Instr::Store { src: Reg(2), addr: Reg(5), off: 0, width: Width::B8 },
            Instr::Load { dst: Reg(6), addr: Reg(5), off: 0, width: Width::B8 },
            Instr::Bin { op: BinOp::Add, dst: Reg(2), a: Reg(2), b: Reg(7) },
            Instr::Jmp { target: 4 },
            Instr::Ret { src: None },
        ];
        p.push_function(simple_fn("sweep", 1, 8, code));
        p
    }

    #[test]
    fn each_call_reports_only_its_own_cache_counters() {
        let p = sweep_program(false);
        let m = machine();
        let mut inst = m.load(&p);
        let first = inst.call("sweep", &[4]).unwrap().counters;
        let second = inst.call("sweep", &[2]).unwrap().counters;
        // Each call also stores its return address and saved frame
        // pointer (one stack line) and reloads the return address.
        assert_eq!((first.loads, first.stores), (4 + 1, 4 + 2));
        assert_eq!((second.loads, second.stores), (2 + 1, 2 + 2));
        for c in [first, second] {
            assert_eq!(c.l1_accesses, c.loads + c.stores);
        }
        // The first call misses on four array lines and the stack line,
        // all the way to memory; the second finds them all in L1.
        assert_eq!((first.l1_misses, first.l2_misses, first.llc_misses), (5, 5, 5));
        assert_eq!((second.l1_misses, second.l2_misses, second.llc_misses), (0, 0, 0));
        // The cumulative per-level statistics cover both calls.
        let run = inst.call("sweep", &[0]).unwrap();
        assert_eq!(run.l1.accesses, first.l1_accesses + second.l1_accesses + 3);
        assert_eq!(run.counters.l1_misses, 0);
        // 640 lines overflow the 32 KiB L1 but fit in L2. The first sweep
        // misses to memory on the 636 new lines (the stack line's reload
        // misses only L1); a repeat misses L1 on every access and L2 on
        // none.
        let cold = inst.call("sweep", &[640]).unwrap().counters;
        let warm = inst.call("sweep", &[640]).unwrap().counters;
        assert_eq!((cold.l1_misses, cold.l2_misses, cold.llc_misses), (637, 636, 636));
        assert_eq!((warm.l1_misses, warm.l2_misses, warm.llc_misses), (641, 0, 0));
        assert_eq!(warm.l1_accesses, warm.loads + warm.stores);
    }

    #[test]
    fn a_native_instance_holds_no_shadow() {
        let native = sweep_program(false);
        let mut inst = machine().load(&native);
        inst.call("sweep", &[64]).unwrap();
        assert_eq!(inst.shadow.resident_bytes(), 0);
        // The ASan build's global redzones are poisoned at load time.
        let asan = sweep_program(true);
        assert!(machine().load(&asan).shadow.resident_bytes() > 0);
    }

    #[test]
    fn branch_mispredicts_are_counted_and_cost_cycles() {
        // A data-dependent unpredictable branch pattern vs a steady loop.
        let src_steady = vec![
            Instr::Imm { dst: Reg(0), val: 0 },
            Instr::Imm { dst: Reg(1), val: 1000 },
            Instr::Imm { dst: Reg(2), val: 1 },
            // loop: r0 += 1; if r0 < r1 goto loop
            Instr::Bin { op: BinOp::Add, dst: Reg(0), a: Reg(0), b: Reg(2) },
            Instr::Bin { op: BinOp::Lt, dst: Reg(3), a: Reg(0), b: Reg(1) },
            Instr::BrNonZero { cond: Reg(3), target: 3 },
            Instr::Ret { src: None },
        ];
        let mut p = Program::new();
        p.push_function(simple_fn("main", 0, 4, src_steady));
        let r = machine().run(&p, &[]).unwrap();
        assert_eq!(r.counters.branches, 1000);
        // A steady loop branch mispredicts only at warm-up and exit.
        assert!(
            r.counters.branch_mispredicts <= 4,
            "steady loop mispredicted {} times",
            r.counters.branch_mispredicts
        );

        // Alternating branch: r3 = r0 & 1, branch on it every iteration.
        let src_alt = vec![
            Instr::Imm { dst: Reg(0), val: 0 },
            Instr::Imm { dst: Reg(1), val: 1000 },
            Instr::Imm { dst: Reg(2), val: 1 },
            Instr::Bin { op: BinOp::Add, dst: Reg(0), a: Reg(0), b: Reg(2) },
            Instr::Bin { op: BinOp::And, dst: Reg(3), a: Reg(0), b: Reg(2) },
            Instr::BrNonZero { cond: Reg(3), target: 7 }, // skip the nop-ish op
            Instr::Bin { op: BinOp::Add, dst: Reg(4), a: Reg(0), b: Reg(2) },
            Instr::Bin { op: BinOp::Lt, dst: Reg(5), a: Reg(0), b: Reg(1) },
            Instr::BrNonZero { cond: Reg(5), target: 3 },
            Instr::Ret { src: None },
        ];
        let mut p2 = Program::new();
        p2.push_function(simple_fn("main", 0, 6, src_alt));
        let r2 = machine().run(&p2, &[]).unwrap();
        assert!(
            r2.counters.branch_mispredicts > 200,
            "alternating branch should defeat the bimodal predictor ({})",
            r2.counters.branch_mispredicts
        );
    }

    /// ASan build: `main` stores 7 to global `g`, checks it and loads it
    /// back. One block of six instructions, so the run counts 1 (the
    /// call) + 6 (the block) + 2 (the check) = 9 instructions.
    fn checked_store_program() -> Program {
        let mut p = Program::new();
        p.asan = true;
        p.globals.push(GlobalDef {
            name: "g".into(),
            size: 8,
            init: vec![],
            is_code_ptr: false,
            redzone: 32,
        });
        p.push_function(simple_fn(
            "main",
            0,
            3,
            vec![
                Instr::GlobalAddr { dst: Reg(0), index: 0 },
                Instr::Imm { dst: Reg(1), val: 7 },
                Instr::Store { src: Reg(1), addr: Reg(0), off: 0, width: Width::B8 },
                Instr::AsanCheck { addr: Reg(0), off: 0, width: Width::B8, is_write: false },
                Instr::Load { dst: Reg(2), addr: Reg(0), off: 0, width: Width::B8 },
                Instr::Ret { src: Some(Reg(2)) },
            ],
        ));
        p
    }

    /// ASan build: `main` calls `f`, whose two stack arrays have
    /// redzones. `f`'s frame push counts 5 then 12 instructions for
    /// poisoning the two arrays and 1 for the call; with `main`'s call
    /// (1), `main`'s block (2) and `f`'s block (1) the run counts 22.
    fn poisoned_frame_program() -> Program {
        let mut f = simple_fn("f", 0, 1, vec![Instr::Ret { src: None }]);
        f.stack_slots.push(StackSlot { size: 8, redzone: 16 });
        f.stack_slots.push(StackSlot { size: 32, redzone: 32 });
        let main = simple_fn(
            "main",
            0,
            1,
            vec![
                Instr::Call { func: FuncId(0), args: vec![], dst: None },
                Instr::Ret { src: None },
            ],
        );
        let mut p = Program::new();
        p.asan = true;
        p.push_function(f);
        p.push_function(main);
        p
    }

    fn fault_config(kind: crate::FaultKind, at: u64) -> MachineConfig {
        let plan =
            crate::FaultPlan::persistent(kind).at(crate::fault::FaultSite::AfterInstructions(at));
        MachineConfig { fault_plan: plan, ..MachineConfig::default() }
    }

    /// Core 0's top `len` stack bytes as `(poisoned granules, nonzero
    /// words)`: how far the frame pushes got.
    fn stack_top_state(inst: &Instance<'_>, len: u64) -> (usize, usize) {
        let top = inst.bases.stack + inst.config.stack_size;
        let granules: Vec<u64> = (top - len..top).step_by(8).collect();
        let poisoned = granules.iter().filter(|a| inst.shadow.check(**a, 8).is_some()).count();
        let nonzero = granules.iter().filter(|a| inst.mem.load(**a, Width::B8) != Ok(0)).count();
        (poisoned, nonzero)
    }

    #[test]
    fn instruction_limit_admits_exactly_the_programs_count() {
        for p in [checked_store_program(), poisoned_frame_program()] {
            let n = run(&p, &[]).counters.instructions;
            let at = |max| MachineConfig { max_instructions: max, ..MachineConfig::default() };
            assert_eq!(Machine::new(at(n)).run(&p, &[]).unwrap(), run(&p, &[]));
            assert_eq!(
                Machine::new(at(n - 1)).run(&p, &[]).unwrap_err(),
                VmError::Trap(Trap::InstructionLimit { limit: n - 1 })
            );
        }
        assert_eq!(run(&checked_store_program(), &[]).counters.instructions, 9);
        assert_eq!(run(&poisoned_frame_program(), &[]).counters.instructions, 22);
    }

    #[test]
    fn a_fault_inside_an_asan_check_fires_at_the_check() {
        let p = checked_store_program();
        let g = |inst: &Instance<'_>| inst.mem.load(inst.global_addr(0), Width::B8).unwrap();
        for kind in [crate::FaultKind::Trap, crate::FaultKind::Hang] {
            let trap = match kind {
                crate::FaultKind::Trap => Trap::Injected { attempt: 0 },
                crate::FaultKind::Hang => {
                    Trap::InstructionLimit { limit: MachineConfig::default().max_instructions }
                }
            };
            for at in 1..=10 {
                let m = Machine::new(fault_config(kind, at));
                let mut inst = m.load(&p);
                let out = inst.run_entry(&[]);
                // 1: the call; 2..=7: the block, before the store; 8..=9:
                // the check's two instructions, after the store.
                let expected_g = if at >= 8 { 7 } else { 0 };
                if at <= 9 {
                    assert_eq!(out.unwrap_err(), VmError::Trap(trap.clone()), "{kind} at {at}");
                } else {
                    assert_eq!(out.unwrap().exit, 7, "{kind} at {at}");
                }
                assert_eq!(g(&inst), expected_g, "{kind} at {at}");
            }
        }
    }

    #[test]
    fn a_fault_inside_a_frame_push_fires_where_it_lands() {
        let p = poisoned_frame_program();
        for kind in [crate::FaultKind::Trap, crate::FaultKind::Hang] {
            for at in 1..=23 {
                let m = Machine::new(fault_config(kind, at));
                let mut inst = m.load(&p);
                let out = inst.run_entry(&[]);
                // `main`'s frame words are stored before its call counts
                // (at 1); `f`'s first array is poisoned before its 5
                // (4..=8), the second before its 12 (9..=20), and `f`'s
                // frame words before its call counts (21). A push that
                // traps unpoisons what it poisoned; at 22 `f`'s frame is
                // pushed, so the trap pops it and unpoisons its arrays.
                let words = match at {
                    1..=20 => 2,
                    _ => 4,
                };
                assert_eq!(out.is_err(), at <= 22, "{kind} at {at}");
                if at <= 22 {
                    assert_eq!(stack_top_state(&inst, 512), (0, words), "{kind} at {at}");
                }
            }
        }
    }

    /// `main` reads `cycles`, loads a cold global (its latency accrues
    /// after the read) and runs a four-iteration `parfor`, then reads
    /// `cycles` again and prints both readings. `worker(i)` spins `i`
    /// times, so on two cores the second core's chunk is the longer one,
    /// and prints its core's `cycles`.
    fn cycles_around_parfor_program() -> Program {
        let worker = simple_fn(
            "worker",
            1,
            5,
            vec![
                Instr::Imm { dst: Reg(1), val: 0 },
                Instr::Imm { dst: Reg(2), val: 1 },
                Instr::Bin { op: BinOp::Lt, dst: Reg(3), a: Reg(1), b: Reg(0) },
                Instr::BrZero { cond: Reg(3), target: 6 },
                Instr::Bin { op: BinOp::Add, dst: Reg(1), a: Reg(1), b: Reg(2) },
                Instr::Jmp { target: 2 },
                Instr::Syscall { code: SysCall::Cycles, args: vec![], dst: Some(Reg(4)) },
                Instr::Syscall { code: SysCall::PrintI64, args: vec![Reg(4)], dst: None },
                Instr::Ret { src: None },
            ],
        );
        let main = simple_fn(
            "main",
            0,
            7,
            vec![
                Instr::Syscall { code: SysCall::Cycles, args: vec![], dst: Some(Reg(0)) },
                Instr::GlobalAddr { dst: Reg(5), index: 0 },
                Instr::Load { dst: Reg(6), addr: Reg(5), off: 0, width: Width::B8 },
                Instr::Imm { dst: Reg(1), val: 0 },
                Instr::Imm { dst: Reg(2), val: 4 },
                Instr::ParFor { func: FuncId(0), lo: Reg(1), hi: Reg(2), args: vec![] },
                Instr::Syscall { code: SysCall::Cycles, args: vec![], dst: Some(Reg(3)) },
                Instr::Syscall { code: SysCall::PrintI64, args: vec![Reg(0)], dst: None },
                Instr::Syscall { code: SysCall::PrintI64, args: vec![Reg(3)], dst: None },
                Instr::Bin { op: BinOp::Sub, dst: Reg(4), a: Reg(3), b: Reg(0) },
                Instr::Ret { src: Some(Reg(4)) },
            ],
        );
        let mut p = Program::new();
        p.globals.push(GlobalDef {
            name: "g".into(),
            size: 8,
            init: vec![],
            is_code_ptr: false,
            redzone: 0,
        });
        p.push_function(worker);
        p.push_function(main);
        p
    }

    #[test]
    fn cycles_read_around_a_parfor_match_the_timeline() {
        let p = cycles_around_parfor_program();
        let check = |cores, exit, stdout: &str, elapsed, per_core: &[(u64, u64)]| {
            let r = Machine::new(MachineConfig::with_cores(cores)).run(&p, &[]).unwrap();
            assert_eq!((r.exit, r.stdout.as_str()), (exit, stdout), "{cores} cores");
            assert_eq!((r.elapsed_cycles, r.counters.cycles), (elapsed, elapsed), "{cores} cores");
            let got: Vec<(u64, u64)> =
                r.per_core.iter().map(|c| (c.cycles, c.instructions)).collect();
            assert_eq!(got, per_core, "{cores} cores");
        };
        // Per core: (cycles, instructions).
        check(1, 652, "659\n767\n879\n983\n335\n987\n", 1051, &[(991, 68)]);
        check(2, 436, "659\n767\n292\n396\n335\n771\n", 1059, &[(775, 32), (400, 36)]);
    }

    #[test]
    fn a_call_after_a_trapping_call_reports_only_its_own_counters() {
        let p = checked_store_program();
        // The first call traps inside its ASan check, after the store.
        let m = Machine::new(fault_config(crate::FaultKind::Trap, 8));
        let mut inst = m.load(&p);
        assert_eq!(inst.run_entry(&[]).unwrap_err(), VmError::Trap(Trap::Injected { attempt: 0 }));
        let r = inst.run_entry(&[]).unwrap();
        let c = r.per_core[0];
        assert_eq!(r.exit, 7);
        assert_eq!((c.instructions, c.cycles, r.elapsed_cycles), (9, 230, 230));
        assert_eq!((c.loads, c.stores, c.asan_checks), (3, 3, 1));
    }

    /// ASan build. `leaf(x)` holds a 1 KiB stack array and returns
    /// `1 / (1 - x)`, so `leaf(1)` traps with its frame pushed; `mid(x)`
    /// holds an array too and returns `leaf(x)`; `par` runs `leaf(i)` for
    /// `i` in `0..2`, so on two cores the worker on core 1 traps.
    fn trapping_frames_program() -> Program {
        let mut leaf = simple_fn(
            "leaf",
            1,
            4,
            vec![
                Instr::Imm { dst: Reg(1), val: 1 },
                Instr::Bin { op: BinOp::Sub, dst: Reg(2), a: Reg(1), b: Reg(0) },
                Instr::Bin { op: BinOp::Div, dst: Reg(3), a: Reg(1), b: Reg(2) },
                Instr::Ret { src: Some(Reg(3)) },
            ],
        );
        leaf.stack_slots.push(StackSlot { size: 1024, redzone: 32 });
        let mut mid = simple_fn(
            "mid",
            1,
            2,
            vec![
                Instr::Call { func: FuncId(0), args: vec![Reg(0)], dst: Some(Reg(1)) },
                Instr::Ret { src: Some(Reg(1)) },
            ],
        );
        mid.stack_slots.push(StackSlot { size: 8, redzone: 16 });
        let par = simple_fn(
            "par",
            0,
            2,
            vec![
                Instr::Imm { dst: Reg(0), val: 0 },
                Instr::Imm { dst: Reg(1), val: 2 },
                Instr::ParFor { func: FuncId(0), lo: Reg(0), hi: Reg(1), args: vec![] },
                Instr::Ret { src: None },
            ],
        );
        let mut p = Program::new();
        p.asan = true;
        p.push_function(leaf);
        p.push_function(mid);
        p.push_function(par);
        p
    }

    /// Asserts that every core's stack pointer equals `sp`'s, and that no
    /// granule of the 4 KiB below it is poisoned.
    fn assert_stacks_restored(inst: &Instance<'_>, sp: &[u64]) {
        assert_eq!(inst.sp, sp, "stack pointers");
        for (core, &top) in sp.iter().enumerate() {
            let poisoned =
                (top - 4096..top).step_by(8).filter(|&a| inst.shadow.check(a, 8).is_some()).count();
            assert_eq!(poisoned, 0, "poisoned granules on core {core}'s stack");
        }
    }

    #[test]
    fn a_trapping_call_pops_its_frames() {
        let p = trapping_frames_program();
        // One frame (`leaf`), then a trap two calls deep (`mid`, `leaf`).
        for entry in ["leaf", "mid"] {
            let mut inst = machine().load(&p);
            let sp = inst.sp.clone();
            assert_eq!(inst.call(entry, &[1]).unwrap_err(), VmError::Trap(Trap::DivByZero));
            assert_stacks_restored(&inst, &sp);
            assert_eq!(inst.call(entry, &[0]).unwrap().exit, 1, "{entry}");
            assert_stacks_restored(&inst, &sp);
        }
    }

    #[test]
    fn a_trap_in_a_parfor_worker_pops_the_workers_frames() {
        let p = trapping_frames_program();
        let mut inst = Machine::new(MachineConfig::with_cores(2)).load(&p);
        let sp = inst.sp.clone();
        assert_eq!(inst.call("par", &[]).unwrap_err(), VmError::Trap(Trap::DivByZero));
        assert_stacks_restored(&inst, &sp);
        assert_eq!((inst.core, inst.in_parfor), (0, false));
    }

    #[test]
    fn back_to_back_trapping_calls_never_overflow_the_stack() {
        // Each `leaf` frame takes over 1 KiB of the 1 MiB stack, so 1,000
        // frames left behind would overflow it.
        let p = trapping_frames_program();
        let mut inst = machine().load(&p);
        let sp = inst.sp.clone();
        for i in 0..1000 {
            let err = inst.call("leaf", &[1]).unwrap_err();
            assert_eq!(err, VmError::Trap(Trap::DivByZero), "call {i}");
        }
        assert_stacks_restored(&inst, &sp);
    }

    #[test]
    fn bad_arity_is_reported() {
        let mut p = Program::new();
        p.push_function(simple_fn("main", 2, 2, vec![Instr::Ret { src: None }]));
        let err = machine().run(&p, &[1]).unwrap_err();
        assert!(matches!(err, VmError::BadArity { expected: 2, got: 1, .. }));
    }

    #[test]
    fn no_entry_is_reported() {
        let mut p = Program::new();
        p.push_function(simple_fn("not_main", 0, 1, vec![Instr::Ret { src: None }]));
        assert_eq!(machine().run(&p, &[]).unwrap_err(), VmError::NoEntry);
    }
}
