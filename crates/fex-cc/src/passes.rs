//! Optimisation passes over the linear IR.
//!
//! The two backend profiles run different pass pipelines (see
//! [`BackendProfile`]); this is what makes the
//!
//! [`BackendProfile`]: crate::BackendProfile
//! "GCC vs Clang" comparisons in the reproduced figures mechanistic rather
//! than fudge factors:
//!
//! * **const-fold + copy-prop** — run by both profiles,
//! * **strength reduction** (multiply-by-power-of-two → shift) — gcc only,
//! * **loop-invariant code motion** — gcc only,
//! * **FMA fusion** (`a*b+c` → fused multiply-add) — gcc only; this is the
//!   dominant term on FP-heavy kernels (FFT, LU, matrices), reproducing
//!   Fig 6's outlier,
//! * **dead-code elimination** — run by both profiles.

use std::collections::{HashMap, HashSet};

use fex_vm::{BinOp, FBinOp, Instr, Reg, UnOp};

use crate::backend::BackendProfile;
use crate::ir::{Ir, IrFunction};

/// Runs the profile's pass pipeline at the given optimisation level.
///
/// * `-O0`: nothing.
/// * `-O1`: const-fold/copy-prop + DCE.
/// * `-O2`: the full profile pipeline.
pub fn run(f: &mut IrFunction, profile: &BackendProfile, opt_level: u8) {
    if opt_level == 0 {
        return;
    }
    let strength = opt_level >= 2 && profile.strength_reduction;
    const_fold(f, strength);
    if opt_level >= 2 {
        if profile.licm {
            licm(f);
        }
        if profile.fma_fusion {
            fma_fuse(f);
        }
    }
    dce(f);
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Const {
    Int(i64),
    Float(f64),
}

/// Forward, block-local constant folding, copy propagation and (optionally)
/// strength reduction. State is discarded at every label, which keeps the
/// analysis sound across join points and loop back edges.
pub fn const_fold(f: &mut IrFunction, strength_reduction: bool) {
    let body = std::mem::take(&mut f.body);
    let mut out: Vec<Ir> = Vec::with_capacity(body.len());
    let mut consts: HashMap<Reg, Const> = HashMap::new();
    let mut copies: HashMap<Reg, Reg> = HashMap::new();
    let mut next_reg = f.reg_count;

    // Invalidate knowledge about a just-overwritten register.
    fn clobber(consts: &mut HashMap<Reg, Const>, copies: &mut HashMap<Reg, Reg>, dst: Reg) {
        consts.remove(&dst);
        copies.remove(&dst);
        copies.retain(|_, v| *v != dst);
    }

    for ir in body {
        match ir {
            Ir::Label(l) => {
                consts.clear();
                copies.clear();
                out.push(Ir::Label(l));
            }
            Ir::Jmp(l) => out.push(Ir::Jmp(l)),
            Ir::BrZero(mut c, l) => {
                c = *copies.get(&c).unwrap_or(&c);
                match consts.get(&c) {
                    Some(Const::Int(0)) => out.push(Ir::Jmp(l)),
                    Some(Const::Int(_)) => {} // never taken
                    _ => out.push(Ir::BrZero(c, l)),
                }
            }
            Ir::BrNonZero(mut c, l) => {
                c = *copies.get(&c).unwrap_or(&c);
                match consts.get(&c) {
                    Some(Const::Int(0)) => {} // never taken
                    Some(Const::Int(_)) => out.push(Ir::Jmp(l)),
                    _ => out.push(Ir::BrNonZero(c, l)),
                }
            }
            Ir::Op(mut instr) => {
                // Rewrite operand registers through the copy map.
                rewrite_operands(&mut instr, &copies);
                // Try to fold.
                match &instr {
                    Instr::Imm { dst, val } => {
                        clobber(&mut consts, &mut copies, *dst);
                        consts.insert(*dst, Const::Int(*val));
                        out.push(Ir::Op(instr));
                    }
                    Instr::FImm { dst, val } => {
                        clobber(&mut consts, &mut copies, *dst);
                        consts.insert(*dst, Const::Float(*val));
                        out.push(Ir::Op(instr));
                    }
                    Instr::Mov { dst, src } => {
                        let known = consts.get(src).copied();
                        clobber(&mut consts, &mut copies, *dst);
                        if let Some(c) = known {
                            consts.insert(*dst, c);
                            match c {
                                Const::Int(v) => out.push(Ir::Op(Instr::Imm { dst: *dst, val: v })),
                                Const::Float(v) => {
                                    out.push(Ir::Op(Instr::FImm { dst: *dst, val: v }))
                                }
                            }
                        } else {
                            copies.insert(*dst, *src);
                            out.push(Ir::Op(instr));
                        }
                    }
                    Instr::Bin { op, dst, a, b } => {
                        let (op, dst, a, b) = (*op, *dst, *a, *b);
                        let ca = consts.get(&a).copied();
                        let cb = consts.get(&b).copied();
                        clobber(&mut consts, &mut copies, dst);
                        if let (Some(Const::Int(x)), Some(Const::Int(y))) = (ca, cb) {
                            if let Some(v) = op.eval(x, y) {
                                consts.insert(dst, Const::Int(v));
                                out.push(Ir::Op(Instr::Imm { dst, val: v }));
                                continue;
                            }
                        }
                        // Algebraic identities and strength reduction.
                        if let Some(folded) =
                            simplify_bin(op, dst, a, b, ca, cb, strength_reduction, &mut next_reg)
                        {
                            for i in folded {
                                if let Instr::Imm { dst, val } = i {
                                    consts.insert(dst, Const::Int(val));
                                }
                                out.push(Ir::Op(i));
                            }
                            continue;
                        }
                        out.push(Ir::Op(Instr::Bin { op, dst, a, b }));
                    }
                    Instr::FBin { op, dst, a, b } => {
                        let (op, dst, a, b) = (*op, *dst, *a, *b);
                        let ca = consts.get(&a).copied();
                        let cb = consts.get(&b).copied();
                        clobber(&mut consts, &mut copies, dst);
                        if let (Some(Const::Float(x)), Some(Const::Float(y))) = (ca, cb) {
                            let v = match op {
                                FBinOp::Add => x + y,
                                FBinOp::Sub => x - y,
                                FBinOp::Mul => x * y,
                                FBinOp::Div => x / y,
                            };
                            consts.insert(dst, Const::Float(v));
                            out.push(Ir::Op(Instr::FImm { dst, val: v }));
                            continue;
                        }
                        out.push(Ir::Op(Instr::FBin { op, dst, a, b }));
                    }
                    Instr::Un { op, dst, a } => {
                        let (op, dst, a) = (*op, *dst, *a);
                        let ca = consts.get(&a).copied();
                        clobber(&mut consts, &mut copies, dst);
                        if let Some(v) = ca.and_then(|c| fold_un(op, c)) {
                            consts.insert(dst, v);
                            match v {
                                Const::Int(x) => out.push(Ir::Op(Instr::Imm { dst, val: x })),
                                Const::Float(x) => out.push(Ir::Op(Instr::FImm { dst, val: x })),
                            }
                            continue;
                        }
                        out.push(Ir::Op(Instr::Un { op, dst, a }));
                    }
                    other => {
                        if let Some(dst) = instr_dst(other) {
                            clobber(&mut consts, &mut copies, dst);
                        }
                        out.push(Ir::Op(instr));
                    }
                }
            }
        }
    }
    f.body = out;
    f.reg_count = next_reg;
}

#[allow(clippy::too_many_arguments)]
fn simplify_bin(
    op: BinOp,
    dst: Reg,
    a: Reg,
    b: Reg,
    ca: Option<Const>,
    cb: Option<Const>,
    strength_reduction: bool,
    next_reg: &mut u16,
) -> Option<Vec<Instr>> {
    let int_of = |c: Option<Const>| match c {
        Some(Const::Int(v)) => Some(v),
        _ => None,
    };
    let (xa, xb) = (int_of(ca), int_of(cb));
    match op {
        BinOp::Add => {
            if xb == Some(0) {
                return Some(vec![Instr::Mov { dst, src: a }]);
            }
            if xa == Some(0) {
                return Some(vec![Instr::Mov { dst, src: b }]);
            }
        }
        BinOp::Sub if xb == Some(0) => {
            return Some(vec![Instr::Mov { dst, src: a }]);
        }
        BinOp::Div => {
            if xb == Some(1) {
                return Some(vec![Instr::Mov { dst, src: a }]);
            }
            if strength_reduction {
                if let Some(k) = xb.filter(|k| *k > 1 && (*k & (*k - 1)) == 0) {
                    return Some(div_pow2_sequence(dst, a, k, next_reg, false));
                }
            }
        }
        BinOp::Rem => {
            if xb == Some(1) {
                return Some(vec![Instr::Imm { dst, val: 0 }]);
            }
            if strength_reduction {
                if let Some(k) = xb.filter(|k| *k > 1 && (*k & (*k - 1)) == 0) {
                    return Some(div_pow2_sequence(dst, a, k, next_reg, true));
                }
            }
        }
        BinOp::Mul => {
            if xb == Some(1) {
                return Some(vec![Instr::Mov { dst, src: a }]);
            }
            if xa == Some(1) {
                return Some(vec![Instr::Mov { dst, src: b }]);
            }
            if xb == Some(0) || xa == Some(0) {
                return Some(vec![Instr::Imm { dst, val: 0 }]);
            }
            if strength_reduction {
                // Multiply by a power of two becomes a shift.
                let mut try_shift = |konst: Option<i64>, other: Reg| -> Option<Vec<Instr>> {
                    let k = konst?;
                    if k > 0 && (k & (k - 1)) == 0 {
                        let sh = k.trailing_zeros() as i64;
                        let tmp = Reg(*next_reg);
                        *next_reg = next_reg.saturating_add(1);
                        return Some(vec![
                            Instr::Imm { dst: tmp, val: sh },
                            Instr::Bin { op: BinOp::Shl, dst, a: other, b: tmp },
                        ]);
                    }
                    None
                };
                if let Some(v) = try_shift(xb, a) {
                    return Some(v);
                }
                if let Some(v) = try_shift(xa, b) {
                    return Some(v);
                }
            }
        }
        _ => {}
    }
    None
}

/// Exact signed division/remainder by a power of two, the way real
/// compilers lower it: bias negative dividends so the arithmetic shift
/// rounds toward zero.
///
/// ```text
/// s    = x >> 63                  (all ones when negative)
/// bias = s & (2^k - 1)
/// q    = (x + bias) >> log2(k)
/// r    = x - (q << log2(k))       (remainder only)
/// ```
fn div_pow2_sequence(dst: Reg, a: Reg, divisor: i64, next_reg: &mut u16, rem: bool) -> Vec<Instr> {
    let mut fresh = || {
        let r = Reg(*next_reg);
        *next_reg = next_reg.saturating_add(1);
        r
    };
    let sh = divisor.trailing_zeros() as i64;
    let (c63, mask, csh, sign, bias, sum, quot) =
        (fresh(), fresh(), fresh(), fresh(), fresh(), fresh(), fresh());
    let mut seq = vec![
        Instr::Imm { dst: c63, val: 63 },
        Instr::Bin { op: BinOp::Shr, dst: sign, a, b: c63 },
        Instr::Imm { dst: mask, val: divisor - 1 },
        Instr::Bin { op: BinOp::And, dst: bias, a: sign, b: mask },
        Instr::Bin { op: BinOp::Add, dst: sum, a, b: bias },
        Instr::Imm { dst: csh, val: sh },
        Instr::Bin { op: BinOp::Shr, dst: if rem { quot } else { dst }, a: sum, b: csh },
    ];
    if rem {
        let scaled = fresh();
        seq.push(Instr::Bin { op: BinOp::Shl, dst: scaled, a: quot, b: csh });
        seq.push(Instr::Bin { op: BinOp::Sub, dst, a, b: scaled });
    }
    seq
}

fn fold_un(op: UnOp, c: Const) -> Option<Const> {
    Some(match (op, c) {
        (UnOp::Neg, Const::Int(v)) => Const::Int(v.wrapping_neg()),
        (UnOp::Not, Const::Int(v)) => Const::Int((v == 0) as i64),
        (UnOp::BitNot, Const::Int(v)) => Const::Int(!v),
        (UnOp::I2F, Const::Int(v)) => Const::Float(v as f64),
        (UnOp::F2I, Const::Float(v)) => Const::Int(v as i64),
        (UnOp::FNeg, Const::Float(v)) => Const::Float(-v),
        (UnOp::FAbs, Const::Float(v)) => Const::Float(v.abs()),
        // Transcendentals are left to the runtime (keeps backends'
        // libm-equivalence trivially true).
        _ => return None,
    })
}

fn rewrite_operands(instr: &mut Instr, copies: &HashMap<Reg, Reg>) {
    let m = |r: &mut Reg| {
        if let Some(s) = copies.get(r) {
            *r = *s;
        }
    };
    match instr {
        Instr::Mov { src, .. } => m(src),
        Instr::Bin { a, b, .. } | Instr::FBin { a, b, .. } | Instr::FCmp { a, b, .. } => {
            m(a);
            m(b);
        }
        Instr::FMulAdd { a, b, c, .. }
        | Instr::FMulSub { a, b, c, .. }
        | Instr::FNegMulAdd { a, b, c, .. } => {
            m(a);
            m(b);
            m(c);
        }
        Instr::Un { a, .. } => m(a),
        Instr::Load { addr, .. } => m(addr),
        Instr::Store { src, addr, .. } => {
            m(src);
            m(addr);
        }
        Instr::AsanCheck { addr, .. } => m(addr),
        Instr::Call { args, .. } | Instr::Syscall { args, .. } => {
            for a in args {
                m(a);
            }
        }
        Instr::CallInd { addr, args, .. } => {
            m(addr);
            for a in args {
                m(a);
            }
        }
        Instr::ParFor { lo, hi, args, .. } => {
            m(lo);
            m(hi);
            for a in args {
                m(a);
            }
        }
        Instr::Ret { src: Some(s) } => m(s),
        _ => {}
    }
}

fn instr_dst(instr: &Instr) -> Option<Reg> {
    match instr {
        Instr::Imm { dst, .. }
        | Instr::FImm { dst, .. }
        | Instr::Mov { dst, .. }
        | Instr::Bin { dst, .. }
        | Instr::FBin { dst, .. }
        | Instr::FMulAdd { dst, .. }
        | Instr::FMulSub { dst, .. }
        | Instr::FNegMulAdd { dst, .. }
        | Instr::FCmp { dst, .. }
        | Instr::Un { dst, .. }
        | Instr::Load { dst, .. }
        | Instr::FrameAddr { dst, .. }
        | Instr::GlobalAddr { dst, .. }
        | Instr::RodataAddr { dst, .. } => Some(*dst),
        Instr::Call { dst, .. } | Instr::CallInd { dst, .. } | Instr::Syscall { dst, .. } => *dst,
        _ => None,
    }
}

fn instr_operands(instr: &Instr, out: &mut Vec<Reg>) {
    match instr {
        Instr::Mov { src, .. } => out.push(*src),
        Instr::Bin { a, b, .. } | Instr::FBin { a, b, .. } | Instr::FCmp { a, b, .. } => {
            out.extend([*a, *b])
        }
        Instr::FMulAdd { a, b, c, .. }
        | Instr::FMulSub { a, b, c, .. }
        | Instr::FNegMulAdd { a, b, c, .. } => out.extend([*a, *b, *c]),
        Instr::Un { a, .. } => out.push(*a),
        Instr::Load { addr, .. } => out.push(*addr),
        Instr::Store { src, addr, .. } => out.extend([*src, *addr]),
        Instr::AsanCheck { addr, .. } => out.push(*addr),
        Instr::Call { args, .. } | Instr::Syscall { args, .. } => out.extend(args.iter().copied()),
        Instr::CallInd { addr, args, .. } => {
            out.push(*addr);
            out.extend(args.iter().copied());
        }
        Instr::ParFor { lo, hi, args, .. } => {
            out.extend([*lo, *hi]);
            out.extend(args.iter().copied());
        }
        Instr::Ret { src: Some(s) } => out.push(*s),
        _ => {}
    }
}

fn is_pure(instr: &Instr) -> bool {
    matches!(
        instr,
        Instr::Imm { .. }
            | Instr::FImm { .. }
            | Instr::Mov { .. }
            | Instr::Bin { .. }
            | Instr::FBin { .. }
            | Instr::FMulAdd { .. }
            | Instr::FMulSub { .. }
            | Instr::FNegMulAdd { .. }
            | Instr::FCmp { .. }
            | Instr::Un { .. }
            | Instr::FrameAddr { .. }
            | Instr::GlobalAddr { .. }
            | Instr::RodataAddr { .. }
            | Instr::Load { .. }
    )
}

/// Whether a pure instruction can be speculated (executed even when the
/// original program would not have reached it). Excludes trapping ops.
fn is_speculatable(instr: &Instr) -> bool {
    match instr {
        Instr::Load { .. } => false, // may fault
        Instr::Bin { op: BinOp::Div | BinOp::Rem, .. } => false,
        other => is_pure(other),
    }
}

/// Flow-insensitive dead-code elimination: repeatedly removes pure
/// instructions whose destination register is never read anywhere.
pub fn dce(f: &mut IrFunction) {
    loop {
        let mut used: HashSet<Reg> = HashSet::new();
        let mut ops = Vec::new();
        for ir in &f.body {
            match ir {
                Ir::Op(i) => {
                    ops.clear();
                    instr_operands(i, &mut ops);
                    used.extend(ops.iter().copied());
                }
                Ir::BrZero(c, _) | Ir::BrNonZero(c, _) => {
                    used.insert(*c);
                }
                _ => {}
            }
        }
        let before = f.body.len();
        f.body.retain(|ir| match ir {
            Ir::Op(i) => {
                if !is_pure(i) {
                    return true;
                }
                match instr_dst(i) {
                    Some(d) => used.contains(&d),
                    None => true,
                }
            }
            _ => true,
        });
        if f.body.len() == before {
            return;
        }
    }
}

/// Fuses `t = a *. b; d = t +. c` into `d = fma(a, b, c)` when `t` has a
/// single use within the same basic block and no operand is redefined in
/// between.
pub fn fma_fuse(f: &mut IrFunction) {
    // Use counts across the whole function.
    let mut use_count: HashMap<Reg, usize> = HashMap::new();
    let mut ops = Vec::new();
    for ir in &f.body {
        match ir {
            Ir::Op(i) => {
                ops.clear();
                instr_operands(i, &mut ops);
                for r in &ops {
                    *use_count.entry(*r).or_insert(0) += 1;
                }
            }
            Ir::BrZero(c, _) | Ir::BrNonZero(c, _) => {
                *use_count.entry(*c).or_insert(0) += 1;
            }
            _ => {}
        }
    }

    let mut i = 0;
    while i < f.body.len() {
        let Ir::Op(Instr::FBin { op: FBinOp::Mul, dst: t, a, b }) = f.body[i] else {
            i += 1;
            continue;
        };
        if use_count.get(&t).copied().unwrap_or(0) != 1 {
            i += 1;
            continue;
        }
        // Scan forward within the block for the single use.
        let mut j = i + 1;
        let mut fused = false;
        while j < f.body.len() {
            match &f.body[j] {
                Ir::Label(_) | Ir::Jmp(_) | Ir::BrZero(..) | Ir::BrNonZero(..) => break,
                Ir::Op(instr) => {
                    // The fusion candidates come first: the fusing add/sub
                    // may legitimately write back into one of the
                    // product's operands, so it must be recognised before
                    // the redefinition check below.
                    if let Instr::FBin { op: FBinOp::Add, dst: d, a: x, b: y } = *instr {
                        if x == t && y != t {
                            f.body[j] = Ir::Op(Instr::FMulAdd { dst: d, a, b, c: y });
                            fused = true;
                            break;
                        }
                        if y == t && x != t {
                            f.body[j] = Ir::Op(Instr::FMulAdd { dst: d, a, b, c: x });
                            fused = true;
                            break;
                        }
                    }
                    if let Instr::FBin { op: FBinOp::Sub, dst: d, a: x, b: y } = *instr {
                        // t - c  →  fused multiply-subtract.
                        if x == t && y != t {
                            f.body[j] = Ir::Op(Instr::FMulSub { dst: d, a, b, c: y });
                            fused = true;
                            break;
                        }
                        // c - t  →  fused negate-multiply-add.
                        if y == t && x != t {
                            f.body[j] = Ir::Op(Instr::FNegMulAdd { dst: d, a, b, c: x });
                            fused = true;
                            break;
                        }
                    }
                    // Stop if a or b is redefined before the use.
                    if let Some(d) = instr_dst(instr) {
                        if d == a || d == b {
                            break;
                        }
                    }
                    // Any other use of t ends the search.
                    ops.clear();
                    instr_operands(instr, &mut ops);
                    if ops.contains(&t) {
                        break;
                    }
                }
            }
            j += 1;
        }
        if fused {
            f.body.remove(i);
        } else {
            i += 1;
        }
    }
}

/// Loop-invariant code motion over the lowering's structured loop shape
/// (`Label(head) … Jmp(head)`): speculatable instructions whose operands
/// are not defined inside the loop, and whose destination is defined
/// exactly once in it, are hoisted to just before the loop head.
pub fn licm(f: &mut IrFunction) {
    // Function-wide def counts: a register defined exactly once in the
    // whole function computes a path-independent value (given invariant
    // operands), so executing its definition early — even when the
    // original definition sat behind a branch — cannot change any use.
    // Registers with several defs (`m = 1; if (c) { m = 0; }`) must never
    // be hoisted.
    let mut fn_defs: HashMap<Reg, usize> = HashMap::new();
    for ir in &f.body {
        if let Ir::Op(i) = ir {
            if let Some(d) = instr_dst(i) {
                *fn_defs.entry(d).or_insert(0) += 1;
            }
        }
    }
    // Find loop spans: Jmp(L) at index j where Label(L) occurs at i < j.
    let mut label_pos: HashMap<u32, usize> = HashMap::new();
    for (i, ir) in f.body.iter().enumerate() {
        if let Ir::Label(l) = ir {
            label_pos.insert(l.0, i);
        }
    }
    // Collect spans innermost-last; hoist iteratively until fixpoint per span.
    let mut spans: Vec<(usize, usize)> = Vec::new();
    for (j, ir) in f.body.iter().enumerate() {
        if let Ir::Jmp(l) = ir {
            if let Some(&i) = label_pos.get(&l.0) {
                if i < j {
                    spans.push((i, j));
                }
            }
        }
    }
    // Hoist from innermost (smallest) spans first.
    spans.sort_by_key(|(i, j)| j - i);

    for (start, end) in spans {
        let Ir::Jmp(label) =
            f.body.get(end).cloned().unwrap_or(Ir::Jmp(crate::ir::Label(u32::MAX)))
        else {
            continue;
        };
        let _ = start;
        // Recompute the span every iteration: hoisting shifts indices,
        // and scanning with stale bounds would re-hoist already-hoisted
        // instructions forever.
        while let Some(head) =
            f.body.iter().position(|ir| matches!(ir, Ir::Label(l) if *l == label))
        {
            let Some(back) = f
                .body
                .iter()
                .enumerate()
                .skip(head)
                .position(|(_, ir)| matches!(ir, Ir::Jmp(l) if *l == label))
                .map(|p| p + head)
            else {
                break;
            };
            // Registers defined in the span, with def counts.
            let mut defs: HashMap<Reg, usize> = HashMap::new();
            for ir in &f.body[head..=back] {
                if let Ir::Op(i) = ir {
                    if let Some(d) = instr_dst(i) {
                        *defs.entry(d).or_insert(0) += 1;
                    }
                }
            }
            let mut hoist_idx = None;
            let mut ops = Vec::new();
            for (k, ir) in f.body.iter().enumerate().take(back + 1).skip(head + 1) {
                let Ir::Op(instr) = ir else { continue };
                if !is_speculatable(instr) {
                    continue;
                }
                let Some(d) = instr_dst(instr) else { continue };
                if defs.get(&d).copied().unwrap_or(0) != 1
                    || fn_defs.get(&d).copied().unwrap_or(0) != 1
                {
                    continue;
                }
                ops.clear();
                instr_operands(instr, &mut ops);
                if ops.iter().any(|r| defs.contains_key(r)) {
                    continue;
                }
                hoist_idx = Some(k);
                break;
            }
            match hoist_idx {
                Some(k) => {
                    let instr = f.body.remove(k);
                    f.body.insert(head, instr);
                    // `head` moved one to the right; the span end also
                    // shifted, but relative structure is preserved because
                    // we inserted before the label.
                }
                None => break,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::Label;

    fn func(body: Vec<Ir>, regs: u16) -> IrFunction {
        IrFunction {
            name: "t".into(),
            param_count: 0,
            ret: None,
            reg_count: regs,
            stack_slots: vec![],
            body,
        }
    }

    #[test]
    fn const_folding_collapses_arithmetic() {
        let mut f = func(
            vec![
                Ir::Op(Instr::Imm { dst: Reg(0), val: 6 }),
                Ir::Op(Instr::Imm { dst: Reg(1), val: 7 }),
                Ir::Op(Instr::Bin { op: BinOp::Mul, dst: Reg(2), a: Reg(0), b: Reg(1) }),
                Ir::Op(Instr::Ret { src: Some(Reg(2)) }),
            ],
            3,
        );
        const_fold(&mut f, false);
        dce(&mut f);
        assert_eq!(
            f.body,
            vec![
                Ir::Op(Instr::Imm { dst: Reg(2), val: 42 }),
                Ir::Op(Instr::Ret { src: Some(Reg(2)) }),
            ]
        );
    }

    #[test]
    fn copies_propagate_and_die() {
        let mut f = func(
            vec![
                Ir::Op(Instr::Syscall {
                    code: fex_vm::SysCall::Cycles,
                    args: vec![],
                    dst: Some(Reg(0)),
                }),
                Ir::Op(Instr::Mov { dst: Reg(1), src: Reg(0) }),
                Ir::Op(Instr::Ret { src: Some(Reg(1)) }),
            ],
            2,
        );
        const_fold(&mut f, false);
        dce(&mut f);
        assert_eq!(f.body.len(), 2);
        assert!(matches!(f.body[1], Ir::Op(Instr::Ret { src: Some(Reg(0)) })));
    }

    #[test]
    fn strength_reduction_replaces_mul_with_shift() {
        let mk = || {
            func(
                vec![
                    Ir::Op(Instr::Syscall {
                        code: fex_vm::SysCall::Cycles,
                        args: vec![],
                        dst: Some(Reg(0)),
                    }),
                    Ir::Op(Instr::Imm { dst: Reg(1), val: 8 }),
                    Ir::Op(Instr::Bin { op: BinOp::Mul, dst: Reg(2), a: Reg(0), b: Reg(1) }),
                    Ir::Op(Instr::Ret { src: Some(Reg(2)) }),
                ],
                3,
            )
        };
        let mut with = mk();
        const_fold(&mut with, true);
        assert!(with.body.iter().any(|i| matches!(i, Ir::Op(Instr::Bin { op: BinOp::Shl, .. }))));
        let mut without = mk();
        const_fold(&mut without, false);
        assert!(without
            .body
            .iter()
            .any(|i| matches!(i, Ir::Op(Instr::Bin { op: BinOp::Mul, .. }))));
    }

    #[test]
    fn dce_keeps_side_effects() {
        let mut f = func(
            vec![
                Ir::Op(Instr::Imm { dst: Reg(0), val: 1 }), // dead
                Ir::Op(Instr::Imm { dst: Reg(1), val: 2 }),
                Ir::Op(Instr::Syscall {
                    code: fex_vm::SysCall::PrintI64,
                    args: vec![Reg(1)],
                    dst: None,
                }),
                Ir::Op(Instr::Ret { src: None }),
            ],
            2,
        );
        dce(&mut f);
        assert_eq!(f.body.len(), 3);
    }

    #[test]
    fn fma_fusion_requires_single_use() {
        let mul = Instr::FBin { op: FBinOp::Mul, dst: Reg(2), a: Reg(0), b: Reg(1) };
        let add = Instr::FBin { op: FBinOp::Add, dst: Reg(4), a: Reg(2), b: Reg(3) };
        let mut f = func(
            vec![
                Ir::Op(mul.clone()),
                Ir::Op(add.clone()),
                Ir::Op(Instr::Ret { src: Some(Reg(4)) }),
            ],
            5,
        );
        fma_fuse(&mut f);
        assert_eq!(f.body.len(), 2);
        assert!(matches!(
            f.body[0],
            Ir::Op(Instr::FMulAdd { dst: Reg(4), a: Reg(0), b: Reg(1), c: Reg(3) })
        ));

        // Two uses of the product: no fusion.
        let mut g = func(
            vec![
                Ir::Op(mul),
                Ir::Op(add),
                Ir::Op(Instr::Mov { dst: Reg(5), src: Reg(2) }),
                Ir::Op(Instr::Ret { src: Some(Reg(5)) }),
            ],
            6,
        );
        fma_fuse(&mut g);
        assert!(g.body.iter().any(|i| matches!(i, Ir::Op(Instr::FBin { op: FBinOp::Mul, .. }))));
    }

    #[test]
    fn fma_fusion_stops_at_block_boundaries() {
        let mut f = func(
            vec![
                Ir::Op(Instr::FBin { op: FBinOp::Mul, dst: Reg(2), a: Reg(0), b: Reg(1) }),
                Ir::Label(Label(0)),
                Ir::Op(Instr::FBin { op: FBinOp::Add, dst: Reg(4), a: Reg(2), b: Reg(3) }),
                Ir::Op(Instr::Ret { src: Some(Reg(4)) }),
            ],
            5,
        );
        fma_fuse(&mut f);
        assert!(f.body.iter().any(|i| matches!(i, Ir::Op(Instr::FBin { op: FBinOp::Mul, .. }))));
    }

    #[test]
    fn licm_hoists_invariant_imm_out_of_loop() {
        // loop: head; r1=8 (invariant); r2 = r0 < r1...; jmp head
        let l = Label(0);
        let mut f = func(
            vec![
                Ir::Op(Instr::Imm { dst: Reg(0), val: 0 }),
                Ir::Label(l),
                Ir::Op(Instr::Imm { dst: Reg(1), val: 8 }),
                Ir::Op(Instr::Bin { op: BinOp::Add, dst: Reg(0), a: Reg(0), b: Reg(1) }),
                Ir::Jmp(l),
            ],
            3,
        );
        licm(&mut f);
        // The Imm moved before the label.
        let label_idx = f.body.iter().position(|i| matches!(i, Ir::Label(_))).unwrap();
        assert!(f.body[..label_idx]
            .iter()
            .any(|i| matches!(i, Ir::Op(Instr::Imm { dst: Reg(1), val: 8 }))));
        // The loop-varying add stayed inside.
        assert!(f.body[label_idx..]
            .iter()
            .any(|i| matches!(i, Ir::Op(Instr::Bin { op: BinOp::Add, .. }))));
    }

    #[test]
    fn licm_does_not_hoist_conditional_redefinitions() {
        // m = 1; loop { if (c) m = 0; }  — the `m = 0` must stay put even
        // though it is the only def *inside* the loop.
        let (head, skip) = (Label(0), Label(1));
        let body = vec![
            Ir::Op(Instr::Imm { dst: Reg(0), val: 1 }), // m = 1
            Ir::Label(head),
            Ir::BrZero(Reg(1), skip),
            Ir::Op(Instr::Imm { dst: Reg(0), val: 0 }), // m = 0 (conditional)
            Ir::Label(skip),
            Ir::Jmp(head),
        ];
        let mut f = func(body.clone(), 2);
        licm(&mut f);
        assert_eq!(f.body, body);
    }

    #[test]
    fn licm_does_not_hoist_loads_or_varying_ops() {
        let l = Label(0);
        let mut f = func(
            vec![
                Ir::Label(l),
                Ir::Op(Instr::Load { dst: Reg(1), addr: Reg(0), off: 0, width: fex_vm::Width::B8 }),
                Ir::Jmp(l),
            ],
            2,
        );
        let before = f.body.clone();
        licm(&mut f);
        assert_eq!(f.body, before);
    }

    #[test]
    fn branch_on_known_constant_simplifies() {
        let l = Label(0);
        let mut f = func(
            vec![
                Ir::Op(Instr::Imm { dst: Reg(0), val: 0 }),
                Ir::BrZero(Reg(0), l),
                Ir::Op(Instr::Ret { src: None }),
                Ir::Label(l),
                Ir::Op(Instr::Ret { src: None }),
            ],
            1,
        );
        const_fold(&mut f, false);
        assert!(f.body.iter().any(|i| matches!(i, Ir::Jmp(_))));
        assert!(!f.body.iter().any(|i| matches!(i, Ir::BrZero(..))));
    }
}
