//! Pre-decoded program representation: the interpreter's hot-loop format.
//!
//! [`decode_program`] lowers a [`Program`] into a dense, index-threaded
//! form once per load, so the execution loop never re-derives anything
//! per step:
//!
//! * every [`Instr`] becomes a flat [`DecodedInstr`] whose jump targets
//!   are **validated** (out-of-range labels are a [`DecodeError`], not a
//!   runtime surprise) and stored as plain indices;
//! * function bodies are partitioned into **basic blocks** whose static
//!   instruction count and cycle cost (from the instance's
//!   [`CostModel`]) are pre-summed, so the interpreter accrues counters
//!   and checks the instruction budget once per block instead of once
//!   per instruction.
//!
//! Block leaders are: instruction 0, every jump/branch target, and the
//! instruction after any `Jmp`/`BrZero`/`BrNonZero`/`Ret` (the places
//! where straight-line execution can end without reaching the next
//! instruction). `Call`/`CallInd`/`ParFor` do *not* end a block: control
//! returns to the next instruction, so the whole surrounding block still
//! executes exactly once per entry and its pre-summed accrual stays
//! exact. A branch target equal to the code length is legal — it is the
//! "fall off the end" implicit return.
//!
//! # The `fuse` stage
//!
//! Decoding's last stage is one optional peephole, `fuse` (on unless a
//! [`PassMask`] switches it off). It rewrites dispatch-dominant pairs
//! and one triple into single fused variants: integer compare +
//! conditional branch ([`DecodedInstr::CmpBr`]), load + integer binop
//! ([`DecodedInstr::LoadBin`]), back-to-back integer binops
//! ([`DecodedInstr::BinBin`]), ASan shadow check + the load it guards
//! ([`DecodedInstr::ChkLoad`]), and integer binop + register copy + jump
//! ([`DecodedInstr::BinMovJmp`]), the canonical loop latch. Each carries
//! 2–18% of the dispatches of the micro, Phoenix, SPLASH and PARSEC
//! suites (DESIGN.md §12.1 has the table).
//! Fusion is a pure dispatch-count optimisation — measured numbers
//! cannot change:
//!
//! * instruction and cycle accrual stays pre-summed **from the source
//!   stream per basic block**, so counters, the instruction budget and
//!   fault-injection trigger points see both constituents exactly as
//!   before;
//! * the fused variant carries every constituent's payload and lives at
//!   the first constituent's index; each later constituent keeps its
//!   ordinary decoded form at its own index as a *shadow slot*. The
//!   fused handler steps over them (or branches away), and no control
//!   flow can enter one: a window never has a block leader inside it,
//!   the greedy left-to-right walk never revisits a fused slot, so
//!   windows never overlap, and calls — whose return lands at
//!   `call_pc + 1` — are never a constituent;
//! * [`DecodedInstr::undecode`] of a fused variant reconstructs the
//!   first constituent, and each shadow slot undecodes to its own
//!   constituent, so per-index round-tripping still holds for the whole
//!   body.
//!
//! Only trap-free integer binops (everything but `Div`/`Rem`) are fused
//! as an *earlier* constituent of `CmpBr`/`BinMovJmp`, keeping
//! "an earlier constituent cannot fail after a control transfer was
//! dispatched" trivially true (`Mov` cannot trap at all); every other
//! fused window executes its constituents strictly in program order
//! inside one handler, so trap order and register/memory aliasing
//! (including `load.addr == bin.dst` and `mov.src == bin.dst`) are
//! preserved exactly.

use crate::bytecode::{
    BinOp, FBinOp, FCmpOp, FuncId, Function, Instr, Program, Reg, SysCall, UnOp, Width,
};
use crate::cost::CostModel;

/// A decoding failure: a control-transfer target outside the function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Name of the offending function.
    pub function: String,
    /// Instruction index of the offending jump or branch.
    pub pc: usize,
    /// The out-of-range target.
    pub target: usize,
    /// The function's code length (targets up to and including this are
    /// valid).
    pub len: usize,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "function `{}`: instruction {} targets {}, past the end of its {}-instruction body",
            self.function, self.pc, self.target, self.len
        )
    }
}

impl std::error::Error for DecodeError {}

/// One instruction in decoded form.
///
/// Mirrors [`Instr`] variant-for-variant; the only representational
/// change is that jump targets are pre-validated `u32` indices. Keeping
/// the payloads identical makes [`DecodedInstr::undecode`] a total
/// inverse, which the round-trip tests rely on.
#[derive(Debug, Clone, PartialEq)]
pub enum DecodedInstr {
    /// `dst <- val`
    Imm { dst: Reg, val: i64 },
    /// `dst <- val` (float immediate)
    FImm { dst: Reg, val: f64 },
    /// `dst <- src`
    Mov { dst: Reg, src: Reg },
    /// `dst <- a op b` (integer)
    Bin { op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// `dst <- a op b` (float)
    FBin { op: FBinOp, dst: Reg, a: Reg, b: Reg },
    /// `dst <- a * b + c`
    FMulAdd { dst: Reg, a: Reg, b: Reg, c: Reg },
    /// `dst <- a * b - c`
    FMulSub { dst: Reg, a: Reg, b: Reg, c: Reg },
    /// `dst <- c - a * b`
    FNegMulAdd { dst: Reg, a: Reg, b: Reg, c: Reg },
    /// `dst <- a cmp b` (float compare, integer result)
    FCmp { op: FCmpOp, dst: Reg, a: Reg, b: Reg },
    /// `dst <- op a`
    Un { op: UnOp, dst: Reg, a: Reg },
    /// `dst <- mem[addr + off]`
    Load { dst: Reg, addr: Reg, off: i64, width: Width },
    /// `mem[addr + off] <- src`
    Store { src: Reg, addr: Reg, off: i64, width: Width },
    /// ASan shadow check for `mem[addr + off]`.
    AsanCheck { addr: Reg, off: i64, width: Width, is_write: bool },
    /// Unconditional jump to a validated instruction index.
    Jmp { target: u32 },
    /// Jump if `cond` is zero.
    BrZero { cond: Reg, target: u32 },
    /// Jump if `cond` is nonzero.
    BrNonZero { cond: Reg, target: u32 },
    /// Direct call.
    Call { func: FuncId, args: Vec<Reg>, dst: Option<Reg> },
    /// Indirect call through a code address in a register.
    CallInd { addr: Reg, args: Vec<Reg>, dst: Option<Reg> },
    /// Data-parallel loop.
    ParFor { func: FuncId, lo: Reg, hi: Reg, args: Vec<Reg> },
    /// Return.
    Ret { src: Option<Reg> },
    /// System call.
    Syscall { code: SysCall, args: Vec<Reg>, dst: Option<Reg> },
    /// `dst <- address of stack array slot `index``.
    FrameAddr { dst: Reg, index: usize },
    /// `dst <- load-time address of global `index``.
    GlobalAddr { dst: Reg, index: usize },
    /// `dst <- load-time address of read-only data at `offset``.
    RodataAddr { dst: Reg, offset: u64 },
    /// No operation.
    Nop,
    /// Fused `Bin` + `BrZero`/`BrNonZero` on the binop's result
    /// (`neg` = true for `BrZero`). `site` is the original branch's
    /// instruction index — the branch-predictor key must stay the
    /// unfused branch pc, not the fused slot.
    CmpBr { op: BinOp, dst: Reg, a: Reg, b: Reg, neg: bool, target: u32, site: u32 },
    /// Fused `Load` into `ld` + integer `Bin` reading `ld`.
    LoadBin { ld: Reg, addr: Reg, off: i64, width: Width, op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// Fused integer `Bin` + integer `Bin` (straight-line ALU chains).
    BinBin { op1: BinOp, dst1: Reg, a1: Reg, b1: Reg, op2: BinOp, dst2: Reg, a2: Reg, b2: Reg },
    /// Fused `AsanCheck` + the `Load` it guards (same address operands
    /// by construction of the instrumentation pass).
    ChkLoad { dst: Reg, addr: Reg, off: i64, width: Width },
    /// Fused three-wide `Bin` + `Mov` + `Jmp`: the canonical loop latch
    /// (`tmp = i + 1; i = tmp; jmp header`) or a diamond arm's exit.
    /// Two shadow slots follow.
    BinMovJmp { op: BinOp, dst: Reg, a: Reg, b: Reg, mdst: Reg, msrc: Reg, target: u32 },
}

impl DecodedInstr {
    /// Reconstructs the original bytecode instruction (exact inverse of
    /// decoding; used by tests and disassembly tooling).
    ///
    /// A fused variant reconstructs its **first** constituent; the
    /// second constituent is still present, unfused, in the shadow slot
    /// at the following index — so mapping `undecode` over a decoded
    /// body reproduces the source stream index for index even with
    /// fusion enabled.
    pub fn undecode(&self) -> Instr {
        match self.clone() {
            DecodedInstr::Imm { dst, val } => Instr::Imm { dst, val },
            DecodedInstr::FImm { dst, val } => Instr::FImm { dst, val },
            DecodedInstr::Mov { dst, src } => Instr::Mov { dst, src },
            DecodedInstr::Bin { op, dst, a, b } => Instr::Bin { op, dst, a, b },
            DecodedInstr::FBin { op, dst, a, b } => Instr::FBin { op, dst, a, b },
            DecodedInstr::FMulAdd { dst, a, b, c } => Instr::FMulAdd { dst, a, b, c },
            DecodedInstr::FMulSub { dst, a, b, c } => Instr::FMulSub { dst, a, b, c },
            DecodedInstr::FNegMulAdd { dst, a, b, c } => Instr::FNegMulAdd { dst, a, b, c },
            DecodedInstr::FCmp { op, dst, a, b } => Instr::FCmp { op, dst, a, b },
            DecodedInstr::Un { op, dst, a } => Instr::Un { op, dst, a },
            DecodedInstr::Load { dst, addr, off, width } => Instr::Load { dst, addr, off, width },
            DecodedInstr::Store { src, addr, off, width } => Instr::Store { src, addr, off, width },
            DecodedInstr::AsanCheck { addr, off, width, is_write } => {
                Instr::AsanCheck { addr, off, width, is_write }
            }
            DecodedInstr::Jmp { target } => Instr::Jmp { target: target as usize },
            DecodedInstr::BrZero { cond, target } => {
                Instr::BrZero { cond, target: target as usize }
            }
            DecodedInstr::BrNonZero { cond, target } => {
                Instr::BrNonZero { cond, target: target as usize }
            }
            DecodedInstr::Call { func, args, dst } => Instr::Call { func, args, dst },
            DecodedInstr::CallInd { addr, args, dst } => Instr::CallInd { addr, args, dst },
            DecodedInstr::ParFor { func, lo, hi, args } => Instr::ParFor { func, lo, hi, args },
            DecodedInstr::Ret { src } => Instr::Ret { src },
            DecodedInstr::Syscall { code, args, dst } => Instr::Syscall { code, args, dst },
            DecodedInstr::FrameAddr { dst, index } => Instr::FrameAddr { dst, index },
            DecodedInstr::GlobalAddr { dst, index } => Instr::GlobalAddr { dst, index },
            DecodedInstr::RodataAddr { dst, offset } => Instr::RodataAddr { dst, offset },
            DecodedInstr::Nop => Instr::Nop,
            DecodedInstr::CmpBr { op, dst, a, b, .. } => Instr::Bin { op, dst, a, b },
            DecodedInstr::LoadBin { ld, addr, off, width, .. } => {
                Instr::Load { dst: ld, addr, off, width }
            }
            DecodedInstr::BinBin { op1, dst1, a1, b1, .. } => {
                Instr::Bin { op: op1, dst: dst1, a: a1, b: b1 }
            }
            DecodedInstr::ChkLoad { addr, off, width, .. } => {
                Instr::AsanCheck { addr, off, width, is_write: false }
            }
            DecodedInstr::BinMovJmp { op, dst, a, b, .. } => Instr::Bin { op, dst, a, b },
        }
    }
}

/// A basic block: a maximal straight-line run of instructions that is
/// always entered at its first instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BasicBlock {
    /// Instruction index of the block leader.
    pub start: u32,
    /// Number of instructions in the block.
    pub instrs: u32,
    /// Pre-summed static cycle cost of the whole block (memory
    /// instructions contribute only their base cost; cache latency is
    /// dynamic).
    pub cycles: u64,
}

/// One function in hot-loop form.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedFunction {
    /// The decoded instruction stream, same indices as the source.
    pub code: Vec<DecodedInstr>,
    /// The basic-block partition of `code`, in `start` order.
    pub blocks: Vec<BasicBlock>,
    /// Per-pc accrual `(instructions, cycles)`: the block totals at each
    /// leader, `(0, 0)` everywhere else. Same length as `code`.
    pub accrual: Vec<(u32, u64)>,
}

/// A whole program in hot-loop form; `FuncId(i)` indexes `functions`.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodedProgram {
    /// Decoded functions, parallel to [`Program::functions`].
    pub functions: Vec<DecodedFunction>,
    /// The cost model the block accrual was pre-summed under. A cached
    /// decoded program is only reusable by an instance whose config
    /// carries the same model.
    pub cost: CostModel,
    /// Whether the `fuse` stage ran over the bodies (part of the
    /// decode-cache key, like `cost`).
    pub passes: PassMask,
}

/// `fuse`'s bit in a [`PassMask`]. Bit 0 belonged to a retired `trace`
/// pass; `fuse` keeps `1 << 1`, so `from_bits` of an old mask still
/// reads the `fuse` setting it carried.
const FUSE: u8 = 1 << 1;

/// Whether decoding runs its `fuse` stage: [`PassMask::all`] (the
/// default) or [`PassMask::none`] (the plain one-to-one translation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PassMask(u8);

impl PassMask {
    /// `fuse` on (the standard decode).
    pub fn all() -> Self {
        PassMask(FUSE)
    }

    /// `fuse` off: structural decode only, no rewrites.
    pub fn none() -> Self {
        PassMask(0)
    }

    /// The raw bitset (used as a cache-key byte).
    pub fn bits(self) -> u8 {
        self.0
    }

    /// A mask from raw bits; every bit but `fuse`'s is dropped.
    pub fn from_bits(bits: u8) -> Self {
        PassMask(bits & FUSE)
    }
}

impl Default for PassMask {
    fn default() -> Self {
        Self::all()
    }
}

impl std::fmt::Display for PassMask {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(if *self == Self::all() { "fuse" } else { "none" })
    }
}

/// Lowers `program` for execution under `cost` with the `fuse` stage on.
///
/// # Errors
///
/// [`DecodeError`] if any jump or branch targets an index strictly
/// greater than its function's code length (a target *equal* to the
/// length is the implicit-return exit and is allowed).
pub fn decode_program(program: &Program, cost: &CostModel) -> Result<DecodedProgram, DecodeError> {
    decode_program_passes(program, cost, PassMask::all())
}

/// Lowers `program` for execution under `cost`, running the `fuse`
/// stage if `mask` enables it. Structural decoding — translation,
/// jump-target validation, block accrual — is unconditional;
/// [`PassMask::none`] yields the plain unfused stream.
///
/// # Errors
///
/// [`DecodeError`] under the same conditions as [`decode_program`].
pub fn decode_program_passes(
    program: &Program,
    cost: &CostModel,
    mask: PassMask,
) -> Result<DecodedProgram, DecodeError> {
    let functions = program
        .functions
        .iter()
        .map(|f| decode_function(f, cost, mask))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(DecodedProgram { functions, cost: *cost, passes: mask })
}

fn decode_function(
    f: &Function,
    cost: &CostModel,
    mask: PassMask,
) -> Result<DecodedFunction, DecodeError> {
    let len = f.code.len();
    // Pass 1: validate targets and mark block leaders.
    let mut leader = vec![false; len];
    if len > 0 {
        leader[0] = true;
    }
    for (pc, instr) in f.code.iter().enumerate() {
        let target = match instr {
            Instr::Jmp { target }
            | Instr::BrZero { target, .. }
            | Instr::BrNonZero { target, .. } => Some(*target),
            Instr::Ret { .. } => None,
            _ => continue,
        };
        if let Some(t) = target {
            if t > len {
                return Err(DecodeError { function: f.name.clone(), pc, target: t, len });
            }
            if t < len {
                leader[t] = true;
            }
        }
        if pc + 1 < len {
            leader[pc + 1] = true;
        }
    }

    // Pass 2: translate instructions and pre-sum block costs.
    let mut code = Vec::with_capacity(len);
    let mut blocks: Vec<BasicBlock> = Vec::new();
    let mut accrual = vec![(0u32, 0u64); len];
    for (pc, instr) in f.code.iter().enumerate() {
        if leader[pc] {
            blocks.push(BasicBlock { start: pc as u32, instrs: 0, cycles: 0 });
        }
        let block = blocks.last_mut().expect("pc 0 is always a leader");
        block.instrs += 1;
        block.cycles += cost.instr_cycles(instr);
        code.push(decode_instr(instr));
    }
    for b in &blocks {
        accrual[b.start as usize] = (b.instrs, b.cycles);
    }
    // Pass 3: window fusion.
    if mask == PassMask::all() {
        fuse(&f.code, &mut code, &leader);
    }
    Ok(DecodedFunction { code, blocks, accrual })
}

/// The `fuse` stage: rewrites windows of `src` into fused variants in
/// `code`, greedily left to right, trying the three-wide latch before a
/// pair at each pc. A window never has a block leader inside it (its
/// head may be one: entering a window at its head is the normal case),
/// and the walk resumes after each fused window, so windows never
/// overlap.
fn fuse(src: &[Instr], code: &mut [DecodedInstr], leader: &[bool]) {
    let fits =
        |pc: usize, len: usize| pc + len <= src.len() && !leader[pc + 1..pc + len].contains(&true);
    let mut pc = 0;
    while pc + 1 < src.len() {
        let mut window = None;
        if fits(pc, 3) {
            window = fuse_triple(&src[pc], &src[pc + 1], &src[pc + 2]).map(|f| (f, 3));
        }
        if window.is_none() && fits(pc, 2) {
            window = fuse_pair(&src[pc], &src[pc + 1], pc).map(|f| (f, 2));
        }
        match window {
            Some((fused, len)) => {
                code[pc] = fused;
                pc += len;
            }
            None => pc += 1,
        }
    }
}

/// Integer binops that cannot trap (everything but `Div`/`Rem`): safe as
/// an earlier constituent of a window whose last constituent transfers
/// control. Windows that end in a plain register/memory write need no
/// such guard — they execute in order and a trap simply surfaces
/// mid-window, exactly as the unfused sequence would.
fn trap_free(op: BinOp) -> bool {
    !matches!(op, BinOp::Div | BinOp::Rem)
}

/// Three-wide fusion: `tmp = i op k; i = tmp; jmp target` — the
/// canonical loop latch when the jump is a backedge, a diamond arm's
/// exit when it is forward. The binop must be trap-free because the
/// handler ends in a control transfer (`Mov` cannot trap at all).
fn fuse_triple(first: &Instr, second: &Instr, third: &Instr) -> Option<DecodedInstr> {
    match (first, second, third) {
        (
            &Instr::Bin { op, dst, a, b },
            &Instr::Mov { dst: mdst, src: msrc },
            &Instr::Jmp { target },
        ) if trap_free(op) => {
            Some(DecodedInstr::BinMovJmp { op, dst, a, b, mdst, msrc, target: target as u32 })
        }
        _ => None,
    }
}

fn fuse_pair(first: &Instr, second: &Instr, pc: usize) -> Option<DecodedInstr> {
    match (first, second) {
        // Compare (or any trap-free binop) + conditional branch on its
        // result: the dominant loop-header pattern.
        (&Instr::Bin { op, dst, a, b }, &Instr::BrZero { cond, target })
            if cond == dst && trap_free(op) =>
        {
            Some(DecodedInstr::CmpBr {
                op,
                dst,
                a,
                b,
                neg: true,
                target: target as u32,
                site: (pc + 1) as u32,
            })
        }
        (&Instr::Bin { op, dst, a, b }, &Instr::BrNonZero { cond, target })
            if cond == dst && trap_free(op) =>
        {
            Some(DecodedInstr::CmpBr {
                op,
                dst,
                a,
                b,
                neg: false,
                target: target as u32,
                site: (pc + 1) as u32,
            })
        }
        // Load + integer binop (usually consuming the loaded value).
        (&Instr::Load { dst: ld, addr, off, width }, &Instr::Bin { op, dst, a, b }) => {
            Some(DecodedInstr::LoadBin { ld, addr, off, width, op, dst, a, b })
        }
        // Binop + binop: straight-line ALU chains.
        (
            &Instr::Bin { op: op1, dst: dst1, a: a1, b: b1 },
            &Instr::Bin { op: op2, dst: dst2, a: a2, b: b2 },
        ) => Some(DecodedInstr::BinBin { op1, dst1, a1, b1, op2, dst2, a2, b2 }),
        // ASan shadow check + the access it guards: the instrumented
        // memory-access pattern. The check never writes a register, so
        // the shared address operands evaluate identically in both
        // halves; fusing only when they match keeps that trivially true.
        (
            &Instr::AsanCheck { addr: caddr, off: coff, width: cwidth, is_write: false },
            &Instr::Load { dst, addr, off, width },
        ) if caddr == addr && coff == off && cwidth == width => {
            Some(DecodedInstr::ChkLoad { dst, addr, off, width })
        }
        _ => None,
    }
}

fn decode_instr(instr: &Instr) -> DecodedInstr {
    match instr.clone() {
        Instr::Imm { dst, val } => DecodedInstr::Imm { dst, val },
        Instr::FImm { dst, val } => DecodedInstr::FImm { dst, val },
        Instr::Mov { dst, src } => DecodedInstr::Mov { dst, src },
        Instr::Bin { op, dst, a, b } => DecodedInstr::Bin { op, dst, a, b },
        Instr::FBin { op, dst, a, b } => DecodedInstr::FBin { op, dst, a, b },
        Instr::FMulAdd { dst, a, b, c } => DecodedInstr::FMulAdd { dst, a, b, c },
        Instr::FMulSub { dst, a, b, c } => DecodedInstr::FMulSub { dst, a, b, c },
        Instr::FNegMulAdd { dst, a, b, c } => DecodedInstr::FNegMulAdd { dst, a, b, c },
        Instr::FCmp { op, dst, a, b } => DecodedInstr::FCmp { op, dst, a, b },
        Instr::Un { op, dst, a } => DecodedInstr::Un { op, dst, a },
        Instr::Load { dst, addr, off, width } => DecodedInstr::Load { dst, addr, off, width },
        Instr::Store { src, addr, off, width } => DecodedInstr::Store { src, addr, off, width },
        Instr::AsanCheck { addr, off, width, is_write } => {
            DecodedInstr::AsanCheck { addr, off, width, is_write }
        }
        Instr::Jmp { target } => DecodedInstr::Jmp { target: target as u32 },
        Instr::BrZero { cond, target } => DecodedInstr::BrZero { cond, target: target as u32 },
        Instr::BrNonZero { cond, target } => {
            DecodedInstr::BrNonZero { cond, target: target as u32 }
        }
        Instr::Call { func, args, dst } => DecodedInstr::Call { func, args, dst },
        Instr::CallInd { addr, args, dst } => DecodedInstr::CallInd { addr, args, dst },
        Instr::ParFor { func, lo, hi, args } => DecodedInstr::ParFor { func, lo, hi, args },
        Instr::Ret { src } => DecodedInstr::Ret { src },
        Instr::Syscall { code, args, dst } => DecodedInstr::Syscall { code, args, dst },
        Instr::FrameAddr { dst, index } => DecodedInstr::FrameAddr { dst, index },
        Instr::GlobalAddr { dst, index } => DecodedInstr::GlobalAddr { dst, index },
        Instr::RodataAddr { dst, offset } => DecodedInstr::RodataAddr { dst, offset },
        Instr::Nop => DecodedInstr::Nop,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn func(code: Vec<Instr>) -> Function {
        let mut f = Function::new("t", 0);
        f.reg_count = 8;
        f.code = code;
        f
    }

    /// One instance of every `Instr` variant (targets valid for a body
    /// of this length).
    fn every_variant() -> Vec<Instr> {
        let r = Reg(0);
        vec![
            Instr::Imm { dst: r, val: -7 },
            Instr::FImm { dst: r, val: 2.5 },
            Instr::Mov { dst: Reg(1), src: r },
            Instr::Bin { op: BinOp::Xor, dst: r, a: r, b: Reg(1) },
            Instr::FBin { op: FBinOp::Div, dst: r, a: r, b: Reg(1) },
            Instr::FMulAdd { dst: r, a: r, b: Reg(1), c: Reg(2) },
            Instr::FMulSub { dst: r, a: r, b: Reg(1), c: Reg(2) },
            Instr::FNegMulAdd { dst: r, a: r, b: Reg(1), c: Reg(2) },
            Instr::FCmp { op: FCmpOp::Le, dst: r, a: r, b: Reg(1) },
            Instr::Un { op: UnOp::FSqrt, dst: r, a: Reg(1) },
            Instr::Load { dst: r, addr: Reg(1), off: -8, width: Width::B1 },
            Instr::Store { src: r, addr: Reg(1), off: 16, width: Width::B8 },
            Instr::AsanCheck { addr: r, off: 4, width: Width::B8, is_write: true },
            Instr::Jmp { target: 14 },
            Instr::BrZero { cond: r, target: 15 },
            Instr::BrNonZero { cond: r, target: 16 },
            Instr::Call { func: FuncId(0), args: vec![r, Reg(1)], dst: Some(Reg(2)) },
            Instr::CallInd { addr: r, args: vec![Reg(1)], dst: None },
            Instr::ParFor { func: FuncId(0), lo: r, hi: Reg(1), args: vec![Reg(2)] },
            Instr::Ret { src: Some(r) },
            Instr::Syscall { code: SysCall::MemCpy, args: vec![r, Reg(1), Reg(2)], dst: Some(r) },
            Instr::FrameAddr { dst: r, index: 3 },
            Instr::GlobalAddr { dst: r, index: 5 },
            Instr::RodataAddr { dst: r, offset: 96 },
            Instr::Nop,
        ]
    }

    #[test]
    fn mask_roundtrips_names_and_bits() {
        let all = PassMask::all();
        assert_eq!(all.to_string(), "fuse");
        assert_eq!(PassMask::none().to_string(), "none");
        assert_eq!(PassMask::from_bits(all.bits()), all);
        // Unknown bits are dropped.
        assert_eq!(PassMask::from_bits(0xFF), all);
        assert_eq!(PassMask::from_bits(1), PassMask::none());
        assert_eq!(PassMask::default(), all);
    }

    #[test]
    fn every_instr_round_trips_through_the_decoder() {
        let original = every_variant();
        let mut p = Program::new();
        p.push_function(func(original.clone()));
        let d = decode_program(&p, &CostModel::default()).expect("valid program decodes");
        let back: Vec<Instr> = d.functions[0].code.iter().map(|i| i.undecode()).collect();
        assert_eq!(back, original);
    }

    #[test]
    fn decoded_semantics_match_the_source_costs() {
        // Block cycle sums must equal the per-instruction cost model
        // applied to the source stream, instruction by instruction.
        let cost = CostModel::default();
        let original = every_variant();
        let mut p = Program::new();
        p.push_function(func(original.clone()));
        let d = decode_program(&p, &cost).expect("valid program decodes");
        let f = &d.functions[0];
        let block_total: u64 = f.blocks.iter().map(|b| b.cycles).sum();
        let instr_total: u64 = original.iter().map(|i| cost.instr_cycles(i)).sum();
        assert_eq!(block_total, instr_total);
        let block_instrs: u64 = f.blocks.iter().map(|b| u64::from(b.instrs)).sum();
        assert_eq!(block_instrs, original.len() as u64);
        // Accrual is the block table flattened onto leader pcs.
        for b in &f.blocks {
            assert_eq!(f.accrual[b.start as usize], (b.instrs, b.cycles));
        }
        let accrued: u32 = f.accrual.iter().map(|(i, _)| i).sum();
        assert_eq!(u64::from(accrued), block_instrs);
    }

    #[test]
    fn straight_line_code_is_one_block() {
        let cost = CostModel::default();
        let code = vec![
            Instr::Imm { dst: Reg(0), val: 1 },
            Instr::Imm { dst: Reg(1), val: 2 },
            Instr::Bin { op: BinOp::Add, dst: Reg(2), a: Reg(0), b: Reg(1) },
            Instr::Ret { src: Some(Reg(2)) },
        ];
        let mut p = Program::new();
        p.push_function(func(code));
        let d = decode_program(&p, &cost).expect("decodes");
        let f = &d.functions[0];
        assert_eq!(f.blocks.len(), 1);
        assert_eq!(
            f.blocks[0],
            BasicBlock { start: 0, instrs: 4, cycles: cost.alu * 3 + cost.call }
        );
    }

    #[test]
    fn branch_targets_and_fallthroughs_split_blocks() {
        // 0: imm            <- leader (entry)
        // 1: imm            <- leader (target of 3's fallthrough? no: of branch)
        // 2: bin
        // 3: brnz -> 1      (1 becomes a leader; 4 is the fallthrough leader)
        // 4: ret            <- leader
        let code = vec![
            Instr::Imm { dst: Reg(0), val: 0 },
            Instr::Imm { dst: Reg(1), val: 1 },
            Instr::Bin { op: BinOp::Sub, dst: Reg(0), a: Reg(0), b: Reg(1) },
            Instr::BrNonZero { cond: Reg(0), target: 1 },
            Instr::Ret { src: None },
        ];
        let mut p = Program::new();
        p.push_function(func(code));
        let d = decode_program(&p, &CostModel::default()).expect("decodes");
        let starts: Vec<u32> = d.functions[0].blocks.iter().map(|b| b.start).collect();
        assert_eq!(starts, vec![0, 1, 4]);
        // The loop body block covers pcs 1..=3.
        assert_eq!(d.functions[0].blocks[1].instrs, 3);
    }

    #[test]
    fn out_of_range_targets_are_rejected() {
        for bad in [
            Instr::Jmp { target: 3 },
            Instr::BrZero { cond: Reg(0), target: 9 },
            Instr::BrNonZero { cond: Reg(0), target: 100 },
        ] {
            let code = vec![Instr::Imm { dst: Reg(0), val: 0 }, bad.clone()];
            let mut p = Program::new();
            p.push_function(func(code));
            let err = decode_program(&p, &CostModel::default())
                .expect_err("out-of-range target must be rejected");
            assert_eq!(err.pc, 1);
            assert_eq!(err.len, 2);
            assert!(err.to_string().contains("past the end"), "{err}");
        }
    }

    #[test]
    fn target_equal_to_length_is_the_implicit_return() {
        // Jumping to `len` falls off the end: legal, and its own exit —
        // no block accrues for it.
        let code = vec![Instr::Jmp { target: 1 }];
        let mut p = Program::new();
        p.push_function(func(code));
        let d = decode_program(&p, &CostModel::default()).expect("target == len decodes");
        assert_eq!(d.functions[0].blocks.len(), 1);
    }

    #[test]
    fn empty_functions_decode_to_empty_bodies() {
        let mut p = Program::new();
        p.push_function(func(vec![]));
        let d = decode_program(&p, &CostModel::default()).expect("empty body decodes");
        assert!(d.functions[0].code.is_empty());
        assert!(d.functions[0].blocks.is_empty());
    }

    /// A body exercising all four non-ASan fusion patterns: load+bin,
    /// bin+bin, the bin+mov+jmp latch, cmp+branch.
    fn fusable_code() -> Vec<Instr> {
        vec![
            Instr::Imm { dst: Reg(1), val: 0 },
            Instr::Load { dst: Reg(2), addr: Reg(1), off: 0, width: Width::B8 },
            Instr::Bin { op: BinOp::Add, dst: Reg(3), a: Reg(2), b: Reg(0) },
            Instr::Bin { op: BinOp::Add, dst: Reg(4), a: Reg(3), b: Reg(0) },
            Instr::Bin { op: BinOp::Mul, dst: Reg(5), a: Reg(4), b: Reg(3) },
            Instr::Store { src: Reg(5), addr: Reg(1), off: 8, width: Width::B8 },
            Instr::Bin { op: BinOp::Add, dst: Reg(6), a: Reg(0), b: Reg(1) },
            Instr::Mov { dst: Reg(0), src: Reg(6) },
            Instr::Jmp { target: 1 },
            Instr::Bin { op: BinOp::Lt, dst: Reg(7), a: Reg(0), b: Reg(1) },
            Instr::BrZero { cond: Reg(7), target: 12 },
            Instr::Nop,
            Instr::Ret { src: None },
        ]
    }

    #[test]
    fn all_four_fusion_patterns_fire() {
        let original = fusable_code();
        let mut p = Program::new();
        p.push_function(func(original.clone()));
        let d = decode_program(&p, &CostModel::default()).expect("decodes");
        assert_eq!(d.passes, PassMask::all());
        assert_eq!(d.cost, CostModel::default());
        let code = &d.functions[0].code;
        assert!(matches!(code[1], DecodedInstr::LoadBin { .. }), "{:?}", code[1]);
        assert!(matches!(code[3], DecodedInstr::BinBin { .. }), "{:?}", code[3]);
        assert!(matches!(code[6], DecodedInstr::BinMovJmp { target: 1, .. }), "{:?}", code[6]);
        assert!(
            matches!(code[9], DecodedInstr::CmpBr { neg: true, target: 12, site: 10, .. }),
            "{:?}",
            code[9]
        );
        // Shadow slots keep the ordinary decoded second constituent, so
        // the whole body still round-trips index for index.
        let back: Vec<Instr> = code.iter().map(|i| i.undecode()).collect();
        assert_eq!(back, original);
        // Block accrual is computed from the source stream and must be
        // untouched by fusion.
        let unfused = decode_program_passes(&p, &CostModel::default(), PassMask::none()).unwrap();
        assert_eq!(d.functions[0].blocks, unfused.functions[0].blocks);
        assert_eq!(d.functions[0].accrual, unfused.functions[0].accrual);
    }

    fn is_fused(i: &DecodedInstr) -> bool {
        matches!(
            i,
            DecodedInstr::CmpBr { .. }
                | DecodedInstr::LoadBin { .. }
                | DecodedInstr::BinBin { .. }
                | DecodedInstr::ChkLoad { .. }
                | DecodedInstr::BinMovJmp { .. }
        )
    }

    #[test]
    fn fusion_off_produces_no_fused_variants() {
        let mut p = Program::new();
        p.push_function(func(fusable_code()));
        let d = decode_program_passes(&p, &CostModel::default(), PassMask::none()).unwrap();
        assert_eq!(d.passes, PassMask::none());
        assert!(!d.functions[0].code.iter().any(is_fused));
        // The `fuse` stage does fuse the same body.
        let all = decode_program(&p, &CostModel::default()).unwrap();
        assert!(all.functions[0].code.iter().any(is_fused));
    }

    #[test]
    fn empty_pipeline_is_the_plain_translation() {
        // With `fuse` off every slot holds its own instruction's decoded
        // form, and blocks and accrual match the fused decode.
        let mut p = Program::new();
        p.push_function(func(fusable_code()));
        p.push_function(func(every_variant()));
        let none = decode_program_passes(&p, &CostModel::default(), PassMask::none()).unwrap();
        let all = decode_program(&p, &CostModel::default()).unwrap();
        for ((f, n), a) in p.functions.iter().zip(&none.functions).zip(&all.functions) {
            let plain: Vec<DecodedInstr> = f.code.iter().map(decode_instr).collect();
            assert_eq!(n.code, plain);
            assert_eq!((&n.blocks, &n.accrual), (&a.blocks, &a.accrual));
        }
    }

    /// The `a[k] = a[k] op x` shape: address calc, load, modify, store —
    /// plus a trailing read-modify-write without the address binop.
    fn read_modify_write_code() -> Vec<Instr> {
        vec![
            Instr::Bin { op: BinOp::Add, dst: Reg(1), a: Reg(0), b: Reg(2) },
            Instr::Load { dst: Reg(3), addr: Reg(1), off: 0, width: Width::B8 },
            Instr::Bin { op: BinOp::Add, dst: Reg(4), a: Reg(3), b: Reg(5) },
            Instr::Store { src: Reg(4), addr: Reg(1), off: 0, width: Width::B8 },
            Instr::Load { dst: Reg(6), addr: Reg(2), off: 8, width: Width::B1 },
            Instr::Bin { op: BinOp::Xor, dst: Reg(6), a: Reg(6), b: Reg(5) },
            Instr::Store { src: Reg(6), addr: Reg(2), off: 8, width: Width::B1 },
            Instr::Ret { src: None },
        ]
    }

    #[test]
    fn extended_fusion_patterns_fire() {
        // load+bin, and bin+bin (ALU chain, both halves may trap —
        // in-order execution keeps the trap order exact).
        let original = vec![
            Instr::Bin { op: BinOp::Add, dst: Reg(1), a: Reg(0), b: Reg(2) },
            Instr::Load { dst: Reg(3), addr: Reg(1), off: 0, width: Width::B8 },
            Instr::Bin { op: BinOp::Mul, dst: Reg(4), a: Reg(3), b: Reg(3) },
            Instr::Mov { dst: Reg(5), src: Reg(4) },
            Instr::Bin { op: BinOp::Div, dst: Reg(6), a: Reg(5), b: Reg(2) },
            Instr::Bin { op: BinOp::Rem, dst: Reg(7), a: Reg(6), b: Reg(2) },
            Instr::Ret { src: Some(Reg(7)) },
        ];
        let mut p = Program::new();
        p.push_function(func(original.clone()));
        p.push_function(func(read_modify_write_code()));
        let d = decode_program(&p, &CostModel::default()).expect("decodes");
        let code = &d.functions[0].code;
        assert!(matches!(code[0], DecodedInstr::Bin { .. }), "{:?}", code[0]);
        assert!(matches!(code[1], DecodedInstr::LoadBin { .. }), "{:?}", code[1]);
        assert!(matches!(code[4], DecodedInstr::BinBin { .. }), "{:?}", code[4]);
        // Both read-modify-writes fuse their load with the binop.
        let rmw = &d.functions[1].code;
        assert!(matches!(rmw[1], DecodedInstr::LoadBin { .. }), "{:?}", rmw[1]);
        assert!(matches!(rmw[4], DecodedInstr::LoadBin { .. }), "{:?}", rmw[4]);
        // Shadow slots still make the bodies round-trip index for index.
        for (f, decoded) in p.functions.iter().zip(&d.functions) {
            let back: Vec<Instr> = decoded.code.iter().map(|i| i.undecode()).collect();
            assert_eq!(back, f.code);
        }
    }

    #[test]
    fn loop_latches_fuse_three_wide() {
        // The canonical latch `tmp = i + 1; i = tmp; jmp header` becomes
        // one BinMovJmp with two shadow slots; a bare `mov; jmp` pair
        // (no preceding binop) stays unfused, as does a latch whose
        // binop may trap.
        let original = vec![
            Instr::Imm { dst: Reg(1), val: 0 },
            Instr::Bin { op: BinOp::Add, dst: Reg(2), a: Reg(1), b: Reg(0) },
            Instr::Mov { dst: Reg(1), src: Reg(2) },
            Instr::Jmp { target: 1 },
            Instr::Mov { dst: Reg(3), src: Reg(1) },
            Instr::Jmp { target: 8 },
            Instr::Bin { op: BinOp::Div, dst: Reg(4), a: Reg(1), b: Reg(0) },
            Instr::Mov { dst: Reg(5), src: Reg(4) },
            Instr::Jmp { target: 6 },
            Instr::Ret { src: None },
        ];
        let mut p = Program::new();
        p.push_function(func(original.clone()));
        let d = decode_program(&p, &CostModel::default()).expect("decodes");
        let code = &d.functions[0].code;
        assert!(matches!(code[1], DecodedInstr::BinMovJmp { target: 1, .. }), "{:?}", code[1]);
        // Both shadow slots keep their ordinary decoded forms.
        assert!(matches!(code[2], DecodedInstr::Mov { .. }), "{:?}", code[2]);
        assert!(matches!(code[3], DecodedInstr::Jmp { .. }), "{:?}", code[3]);
        assert!(matches!(code[4], DecodedInstr::Mov { .. }), "{:?}", code[4]);
        // Div may trap: the triple must not fire; the jump stays unfused.
        assert!(matches!(code[6], DecodedInstr::Bin { .. }), "{:?}", code[6]);
        assert!(matches!(code[8], DecodedInstr::Jmp { .. }), "{:?}", code[8]);
        let back: Vec<Instr> = code.iter().map(|i| i.undecode()).collect();
        assert_eq!(back, original);
    }

    #[test]
    fn asan_checks_fuse_with_the_access_they_guard() {
        let original = vec![
            Instr::AsanCheck { addr: Reg(1), off: 8, width: Width::B8, is_write: false },
            Instr::Load { dst: Reg(2), addr: Reg(1), off: 8, width: Width::B8 },
            // Mismatched address operands must not fuse: this check does
            // not guard the access that follows it.
            Instr::AsanCheck { addr: Reg(1), off: 0, width: Width::B8, is_write: false },
            Instr::Load { dst: Reg(4), addr: Reg(5), off: 0, width: Width::B8 },
            Instr::Ret { src: None },
        ];
        let mut p = Program::new();
        p.push_function(func(original.clone()));
        let d = decode_program(&p, &CostModel::default()).expect("decodes");
        let code = &d.functions[0].code;
        assert!(matches!(code[0], DecodedInstr::ChkLoad { .. }), "{:?}", code[0]);
        assert!(matches!(code[2], DecodedInstr::AsanCheck { .. }), "{:?}", code[2]);
        let back: Vec<Instr> = code.iter().map(|i| i.undecode()).collect();
        assert_eq!(back, original);
    }

    #[test]
    fn fusion_never_crosses_a_block_leader() {
        // The BrZero at 2 is itself a branch target: entering it directly
        // must not land inside a fused pair, so the pair (1, 2) stays
        // unfused.
        let code = vec![
            Instr::Jmp { target: 2 },
            Instr::Bin { op: BinOp::Lt, dst: Reg(2), a: Reg(0), b: Reg(1) },
            Instr::BrZero { cond: Reg(2), target: 1 },
            Instr::Ret { src: None },
        ];
        let mut p = Program::new();
        p.push_function(func(code));
        let d = decode_program(&p, &CostModel::default()).expect("decodes");
        assert!(matches!(d.functions[0].code[1], DecodedInstr::Bin { .. }));
        assert!(matches!(d.functions[0].code[2], DecodedInstr::BrZero { .. }));
    }

    #[test]
    fn trapping_binops_never_fuse_with_control_transfers() {
        // Div may trap; the pair must stay unfused so the trap surfaces
        // from a plain Bin step.
        let code = vec![
            Instr::Bin { op: BinOp::Div, dst: Reg(2), a: Reg(0), b: Reg(1) },
            Instr::BrZero { cond: Reg(2), target: 4 },
            Instr::Bin { op: BinOp::Rem, dst: Reg(3), a: Reg(0), b: Reg(1) },
            Instr::Jmp { target: 0 },
            Instr::Ret { src: None },
        ];
        let mut p = Program::new();
        p.push_function(func(code));
        let d = decode_program(&p, &CostModel::default()).expect("decodes");
        assert!(matches!(d.functions[0].code[0], DecodedInstr::Bin { .. }));
        assert!(matches!(d.functions[0].code[2], DecodedInstr::Bin { .. }));
    }
}
