//! Bytecode definitions: instructions, functions and whole programs.
//!
//! The VM is a register machine with an unbounded per-function virtual
//! register file (the compiler does not spill). Scalars live in registers;
//! everything addressable — globals, stack arrays, heap blocks, saved frame
//! pointers and return addresses — lives in simulated [`Memory`].
//!
//! Code addresses are first-class 64-bit values (see [`code_addr`]) so that
//! function pointers can be stored in data memory and, crucially for the
//! RIPE reproduction, be overwritten by buffer overflows.
//!
//! [`Memory`]: crate::Memory

use std::fmt;

/// A virtual register index, local to one stack frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg(pub u16);

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Index of a function within a [`Program`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

impl fmt::Display for FuncId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Each function occupies a 4 GiB-aligned slice of a synthetic code address
/// space; instruction `pc` of function `id` has the flat code address
/// `CODE_SPACE_BASE + id * CODE_SPACE_STRIDE + pc`.
pub const CODE_SPACE_BASE: u64 = 0x4000_0000_0000;
/// Address stride between consecutive functions in the code address space.
pub const CODE_SPACE_STRIDE: u64 = 0x1_0000;

/// Flat code address of instruction `pc` in function `func`.
///
/// The result can be stored in simulated memory like any integer, which is
/// what makes indirect calls — and control-flow hijacking attacks against
/// them — possible.
pub fn code_addr(func: FuncId, pc: usize) -> i64 {
    (CODE_SPACE_BASE + func.0 as u64 * CODE_SPACE_STRIDE + pc as u64) as i64
}

/// Inverse of [`code_addr`]. Returns `None` if `addr` does not point into
/// the code address space.
pub fn decode_code_addr(addr: i64) -> Option<(FuncId, usize)> {
    let a = addr as u64;
    if a < CODE_SPACE_BASE {
        return None;
    }
    let rel = a - CODE_SPACE_BASE;
    let func = rel / CODE_SPACE_STRIDE;
    let pc = rel % CODE_SPACE_STRIDE;
    if func > u32::MAX as u64 {
        return None;
    }
    Some((FuncId(func as u32), pc as usize))
}

/// Integer binary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    And,
    Or,
    Xor,
    Shl,
    Shr,
    /// Signed comparison producing 0 or 1.
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl BinOp {
    /// Evaluates the operation on two integers: wrapping arithmetic,
    /// shift counts taken modulo 64, comparisons as 0 or 1. `None` for a
    /// zero divisor, where execution traps
    /// [`Trap::DivByZero`](crate::Trap::DivByZero). The interpreter and
    /// the compiler's constant folder both evaluate through this, so a
    /// folded expression computes what its execution would.
    #[inline(always)]
    pub fn eval(self, x: i64, y: i64) -> Option<i64> {
        Some(match self {
            BinOp::Add => x.wrapping_add(y),
            BinOp::Sub => x.wrapping_sub(y),
            BinOp::Mul => x.wrapping_mul(y),
            BinOp::Div if y == 0 => return None,
            BinOp::Div => x.wrapping_div(y),
            BinOp::Rem if y == 0 => return None,
            BinOp::Rem => x.wrapping_rem(y),
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
}

/// Floating-point binary operations (operands are f64 bit patterns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FBinOp {
    Add,
    Sub,
    Mul,
    Div,
}

/// Floating-point comparisons producing integer 0 or 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FCmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// Unary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// Integer negation.
    Neg,
    /// Logical not (0 -> 1, nonzero -> 0).
    Not,
    /// Bitwise not.
    BitNot,
    /// Integer to float conversion.
    I2F,
    /// Float to integer conversion (truncating).
    F2I,
    /// Float negation.
    FNeg,
    /// Float square root.
    FSqrt,
    /// Float natural exponential.
    FExp,
    /// Float natural logarithm.
    FLog,
    /// Float absolute value.
    FAbs,
    /// Float sine.
    FSin,
    /// Float cosine.
    FCos,
}

/// Memory access width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Width {
    /// One byte (zero-extended on load).
    B1,
    /// Eight bytes.
    B8,
}

impl Width {
    /// Size of the access in bytes.
    pub fn bytes(self) -> u64 {
        match self {
            Width::B1 => 1,
            Width::B8 => 8,
        }
    }
}

/// System calls: the VM's tiny "libc + kernel" surface.
///
/// Bulk-copy calls model their memory traffic through the cache hierarchy,
/// so instrumentation overheads and cache statistics stay faithful.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SysCall {
    /// Print an integer followed by a newline.
    PrintI64,
    /// Print a float followed by a newline.
    PrintF64,
    /// Print a NUL-terminated string at the given address.
    PrintStr,
    /// `memcpy(dst, src, n)`.
    MemCpy,
    /// `memset(dst, byte, n)`.
    MemSet,
    /// `strcpy(dst, src)` — copies until NUL, the classic overflow vector.
    StrCpy,
    /// `strlen(s) -> n`.
    StrLen,
    /// Heap allocation: `alloc(n) -> ptr`.
    Alloc,
    /// Heap free: `free(ptr)`.
    Free,
    /// Deterministic pseudo-random i64 in `[0, bound)`.
    Rand,
    /// Marks a successful control-flow hijack (used by RIPE payloads).
    AttackSuccess,
    /// "Create a dummy file" — RIPE's return-into-libc target. Records the
    /// call; if reached with attacker-controlled arguments the attack
    /// counts as successful.
    CreatFile,
    /// Abort execution with the given code.
    Abort,
    /// Current simulated cycle count on this core (for in-program timing).
    Cycles,
    /// Number of cores the machine is configured with.
    NumCores,
}

/// A single bytecode instruction.
#[derive(Debug, Clone, PartialEq)]
pub enum Instr {
    /// `dst <- val`
    Imm { dst: Reg, val: i64 },
    /// `dst <- val` (float immediate, stored as bits)
    FImm { dst: Reg, val: f64 },
    /// `dst <- src`
    Mov { dst: Reg, src: Reg },
    /// `dst <- a op b` (integer)
    Bin { op: BinOp, dst: Reg, a: Reg, b: Reg },
    /// `dst <- a op b` (float)
    FBin { op: FBinOp, dst: Reg, a: Reg, b: Reg },
    /// `dst <- a * b + c` fused multiply-add (emitted by the gcc backend).
    FMulAdd { dst: Reg, a: Reg, b: Reg, c: Reg },
    /// `dst <- a * b - c` fused multiply-subtract.
    FMulSub { dst: Reg, a: Reg, b: Reg, c: Reg },
    /// `dst <- c - a * b` fused negate-multiply-add.
    FNegMulAdd { dst: Reg, a: Reg, b: Reg, c: Reg },
    /// `dst <- a cmp b` (float compare, integer result)
    FCmp { op: FCmpOp, dst: Reg, a: Reg, b: Reg },
    /// `dst <- op a`
    Un { op: UnOp, dst: Reg, a: Reg },
    /// `dst <- mem[addr + off]`
    Load { dst: Reg, addr: Reg, off: i64, width: Width },
    /// `mem[addr + off] <- src`
    Store { src: Reg, addr: Reg, off: i64, width: Width },
    /// AddressSanitizer shadow check for the access `mem[addr + off]`.
    ///
    /// Inserted by the compiler's ASan pass. Performs a real shadow-memory
    /// consultation (which also goes through the cache hierarchy) and traps
    /// on poisoned bytes.
    AsanCheck { addr: Reg, off: i64, width: Width, is_write: bool },
    /// Unconditional jump to instruction index `target`.
    Jmp { target: usize },
    /// Jump to `target` if `cond` is zero.
    BrZero { cond: Reg, target: usize },
    /// Jump to `target` if `cond` is nonzero.
    BrNonZero { cond: Reg, target: usize },
    /// Direct call.
    Call { func: FuncId, args: Vec<Reg>, dst: Option<Reg> },
    /// Indirect call through a code address in a register.
    CallInd { addr: Reg, args: Vec<Reg>, dst: Option<Reg> },
    /// Data-parallel loop: for `i` in `[lo, hi)` call `func(i, args...)`,
    /// iterations partitioned across the machine's cores.
    ParFor { func: FuncId, lo: Reg, hi: Reg, args: Vec<Reg> },
    /// Return, optionally with a value.
    Ret { src: Option<Reg> },
    /// System call.
    Syscall { code: SysCall, args: Vec<Reg>, dst: Option<Reg> },
    /// `dst <- address of the current frame's stack array slot `index``.
    ///
    /// Frames carry their array slots in simulated memory; this instruction
    /// materialises a pointer to one of them.
    FrameAddr { dst: Reg, index: usize },
    /// `dst <- load-time address of global object `index``.
    ///
    /// Globals are addressed symbolically so programs stay position
    /// independent and ASLR needs no relocation step.
    GlobalAddr { dst: Reg, index: usize },
    /// `dst <- load-time address of read-only data at `offset``.
    RodataAddr { dst: Reg, offset: u64 },
    /// No operation (used by passes to blank out dead instructions before
    /// compaction).
    Nop,
}

/// A stack array slot declared by a function (a `local buf[n]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StackSlot {
    /// Size in bytes (always a multiple of 8 from the compiler).
    pub size: u64,
    /// Bytes of ASan redzone to place on each side (0 when not
    /// instrumented).
    pub redzone: u64,
}

/// A compiled function.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    /// Symbolic name (for diagnostics and disassembly).
    pub name: String,
    /// Number of parameters; arguments arrive in registers `r0..rn`.
    pub param_count: u16,
    /// Size of the virtual register file.
    pub reg_count: u16,
    /// Stack array slots, addressed by [`Instr::FrameAddr`].
    pub stack_slots: Vec<StackSlot>,
    /// The instruction stream.
    pub code: Vec<Instr>,
}

impl Function {
    /// Creates an empty function with the given name and parameter count.
    pub fn new(name: impl Into<String>, param_count: u16) -> Self {
        Function {
            name: name.into(),
            param_count,
            reg_count: param_count,
            stack_slots: Vec::new(),
            code: Vec::new(),
        }
    }

    /// Total bytes of stack-array storage (including redzones) this
    /// function's frame needs, in addition to its bookkeeping words.
    pub fn frame_array_bytes(&self) -> u64 {
        self.stack_slots.iter().map(|s| s.size + 2 * s.redzone).sum()
    }
}

/// An initialised global data object.
#[derive(Debug, Clone, PartialEq)]
pub struct GlobalDef {
    /// Symbolic name.
    pub name: String,
    /// Size in bytes.
    pub size: u64,
    /// Initial contents; shorter than `size` means the rest is
    /// zero-initialised (BSS-like).
    pub init: Vec<u8>,
    /// Whether this object holds code pointers (used by layout policies and
    /// by the RIPE analysis).
    pub is_code_ptr: bool,
    /// Bytes of ASan redzone on each side.
    pub redzone: u64,
}

/// A complete program: functions, globals and read-only data.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Program {
    /// All functions; `FuncId(i)` indexes this vector.
    pub functions: Vec<Function>,
    /// Entry function (defaults to the function named `main`).
    pub entry: Option<FuncId>,
    /// Global data objects, in final layout order.
    pub globals: Vec<GlobalDef>,
    /// Read-only data (string literals), concatenated; offsets are recorded
    /// by the compiler at emission time.
    pub rodata: Vec<u8>,
    /// Whether the program was built with ASan instrumentation (enables
    /// heap redzones and shadow poisoning at load time).
    pub asan: bool,
    /// Human-readable provenance: compiler profile and flags.
    pub build_info: String,
}

impl Program {
    /// Creates an empty program.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a function and returns its id. If the function is named
    /// `main` and no entry is set, it becomes the entry point.
    pub fn push_function(&mut self, f: Function) -> FuncId {
        let id = FuncId(self.functions.len() as u32);
        if self.entry.is_none() && f.name == "main" {
            self.entry = Some(id);
        }
        self.functions.push(f);
        id
    }

    /// Looks up a function by name.
    pub fn function_by_name(&self, name: &str) -> Option<FuncId> {
        self.functions.iter().position(|f| f.name == name).map(|i| FuncId(i as u32))
    }

    /// Total static instruction count across all functions.
    pub fn static_instruction_count(&self) -> usize {
        self.functions.iter().map(|f| f.code.len()).sum()
    }

    /// Renders a textual disassembly of the whole program.
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, f) in self.functions.iter().enumerate() {
            let _ = writeln!(
                out,
                "fn {} (f{}) params={} regs={}:",
                f.name, i, f.param_count, f.reg_count
            );
            for (slot, s) in f.stack_slots.iter().enumerate() {
                let _ = writeln!(out, "  slot{}: {} bytes (redzone {})", slot, s.size, s.redzone);
            }
            for (pc, ins) in f.code.iter().enumerate() {
                let _ = writeln!(out, "  {:4}: {:?}", pc, ins);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_addr_roundtrip() {
        for func in [0u32, 1, 7, 4096] {
            for pc in [0usize, 1, 17, 60_000] {
                let a = code_addr(FuncId(func), pc);
                assert_eq!(decode_code_addr(a), Some((FuncId(func), pc)));
            }
        }
    }

    #[test]
    fn data_addresses_do_not_decode_as_code() {
        assert_eq!(decode_code_addr(0), None);
        assert_eq!(decode_code_addr(0x1000), None);
        assert_eq!(decode_code_addr(CODE_SPACE_BASE as i64 - 1), None);
    }

    #[test]
    fn main_becomes_entry() {
        let mut p = Program::new();
        p.push_function(Function::new("helper", 1));
        let main = p.push_function(Function::new("main", 0));
        assert_eq!(p.entry, Some(main));
        assert_eq!(p.function_by_name("helper"), Some(FuncId(0)));
        assert_eq!(p.function_by_name("nope"), None);
    }

    #[test]
    fn frame_array_bytes_includes_redzones() {
        let mut f = Function::new("g", 0);
        f.stack_slots.push(StackSlot { size: 64, redzone: 32 });
        f.stack_slots.push(StackSlot { size: 8, redzone: 0 });
        assert_eq!(f.frame_array_bytes(), 64 + 64 + 8);
    }

    #[test]
    fn disassembly_is_nonempty() {
        let mut p = Program::new();
        let mut f = Function::new("main", 0);
        f.code.push(Instr::Ret { src: None });
        p.push_function(f);
        let d = p.disassemble();
        assert!(d.contains("fn main"));
        assert!(d.contains("Ret"));
    }
}
