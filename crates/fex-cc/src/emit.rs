//! AST → Cmm source emitter: the inverse of [`parser::parse`](crate::parser::parse).
//!
//! Renders a [`Unit`] back into concrete syntax the parser accepts. The
//! output is canonical — binary and unary expressions are fully
//! parenthesised, negations of literals are folded — so emission is a
//! fixpoint: `emit(parse(emit(u))) == emit(u)`. The fuzzer in `fex-core`
//! builds scenario programs at the AST level (where termination and
//! well-formedness are easy to guarantee by construction) and relies on
//! this module to turn them into benchmark sources for the ordinary
//! build pipeline.
//!
//! Only parseable shapes are representable: a `for` initialiser or step
//! must be an assignment or expression statement (the grammar has no
//! `var` there), which the AST builder has to respect.

use std::fmt::Write as _;

use crate::ast::*;

/// Renders a complete unit as Cmm source.
pub fn emit_unit(unit: &Unit) -> String {
    let mut out = String::new();
    for g in &unit.globals {
        emit_global(g, &mut out);
    }
    if !unit.globals.is_empty() && !unit.funcs.is_empty() {
        out.push('\n');
    }
    for (i, f) in unit.funcs.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        emit_func(f, &mut out);
    }
    out
}

fn emit_global(g: &GlobalDecl, out: &mut String) {
    out.push_str("global ");
    out.push_str(&g.name);
    if let Some(len) = g.len {
        let _ = write!(out, "[{len}]");
    }
    match (&g.init, g.is_code_ptr, g.ty) {
        (GlobalInit::Zero, true, _) => out.push_str(" : fnptr"),
        (GlobalInit::Zero, false, Ty::Float) => out.push_str(" : float"),
        (GlobalInit::Float(_), _, _) => out.push_str(" : float"),
        _ => {}
    }
    match &g.init {
        GlobalInit::Zero => {}
        GlobalInit::Int(v) => {
            let _ = write!(out, " = {v}");
        }
        GlobalInit::Float(v) => {
            let _ = write!(out, " = {}", float_literal(*v));
        }
        GlobalInit::Str(s) => {
            out.push_str(" = ");
            emit_str(s, out);
        }
        GlobalInit::FnAddr(f) => {
            let _ = write!(out, " = @{f}");
        }
        GlobalInit::List(items) => {
            out.push_str(" = { ");
            for (i, e) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                emit_expr(e, out);
            }
            out.push_str(" }");
        }
    }
    out.push_str(";\n");
}

fn emit_func(f: &FuncDecl, out: &mut String) {
    out.push_str("fn ");
    out.push_str(&f.name);
    out.push('(');
    for (i, (name, ty)) in f.params.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(name);
        if *ty == Ty::Float {
            out.push_str(": float");
        }
    }
    out.push(')');
    if let Some(ret) = f.ret {
        let _ = write!(out, " -> {ret}");
    }
    out.push_str(" {\n");
    for s in &f.body {
        emit_stmt(s, 1, out);
    }
    out.push_str("}\n");
}

fn indent(level: usize, out: &mut String) {
    for _ in 0..level {
        out.push_str("    ");
    }
}

fn emit_stmt(s: &Stmt, level: usize, out: &mut String) {
    indent(level, out);
    match s {
        Stmt::Var { name, ty, init, .. } => {
            out.push_str("var ");
            out.push_str(name);
            if let Some(ty) = ty {
                let _ = write!(out, ": {ty}");
            }
            if let Some(e) = init {
                out.push_str(" = ");
                emit_expr(e, out);
            }
            out.push_str(";\n");
        }
        Stmt::Local { name, len, ty, .. } => {
            let _ = write!(out, "local {name}[{len}]");
            if *ty == Ty::Float {
                out.push_str(": float");
            }
            out.push_str(";\n");
        }
        Stmt::Assign { .. } | Stmt::Expr(_) => {
            emit_simple_stmt(s, out);
            out.push_str(";\n");
        }
        Stmt::If { cond, then_body, else_body } => {
            out.push_str("if (");
            emit_expr(cond, out);
            out.push_str(") {\n");
            for s in then_body {
                emit_stmt(s, level + 1, out);
            }
            indent(level, out);
            if else_body.is_empty() {
                out.push_str("}\n");
            } else {
                out.push_str("} else {\n");
                for s in else_body {
                    emit_stmt(s, level + 1, out);
                }
                indent(level, out);
                out.push_str("}\n");
            }
        }
        Stmt::While { cond, body } => {
            out.push_str("while (");
            emit_expr(cond, out);
            out.push_str(") {\n");
            for s in body {
                emit_stmt(s, level + 1, out);
            }
            indent(level, out);
            out.push_str("}\n");
        }
        Stmt::For { init, cond, step, body } => {
            out.push_str("for (");
            if let Some(init) = init {
                emit_simple_stmt(init, out);
            }
            out.push_str("; ");
            if let Some(cond) = cond {
                emit_expr(cond, out);
            }
            out.push_str("; ");
            if let Some(step) = step {
                emit_simple_stmt(step, out);
            }
            out.push_str(") {\n");
            for s in body {
                emit_stmt(s, level + 1, out);
            }
            indent(level, out);
            out.push_str("}\n");
        }
        Stmt::Break(_) => out.push_str("break;\n"),
        Stmt::Continue(_) => out.push_str("continue;\n"),
        Stmt::Return(e, _) => {
            out.push_str("return");
            if let Some(e) = e {
                out.push(' ');
                emit_expr(e, out);
            }
            out.push_str(";\n");
        }
        Stmt::ParFor { worker, lo, hi, args, .. } => {
            let _ = write!(out, "parfor {worker}(");
            emit_expr(lo, out);
            out.push_str(", ");
            emit_expr(hi, out);
            for a in args {
                out.push_str(", ");
                emit_expr(a, out);
            }
            out.push_str(");\n");
        }
    }
}

/// A `for` initialiser/step or a bare statement body, without the
/// trailing semicolon. Only assignment and expression statements exist
/// in that grammar position.
fn emit_simple_stmt(s: &Stmt, out: &mut String) {
    match s {
        Stmt::Assign { target, op, value, .. } => {
            match target {
                LValue::Name(name, _) => out.push_str(name),
                LValue::Index { name, index, .. } => {
                    out.push_str(name);
                    out.push('[');
                    emit_expr(index, out);
                    out.push(']');
                }
            }
            out.push_str(match op {
                AssignOp::Set => " = ",
                AssignOp::Add => " += ",
                AssignOp::Sub => " -= ",
                AssignOp::Mul => " *= ",
            });
            emit_expr(value, out);
        }
        Stmt::Expr(e) => emit_expr(e, out),
        other => unreachable!("not a simple statement: {other:?}"),
    }
}

fn emit_expr(e: &Expr, out: &mut String) {
    match e {
        Expr::Int(v) => {
            let _ = write!(out, "{v}");
        }
        Expr::Float(v) => out.push_str(&float_literal(*v)),
        Expr::Str(s) => emit_str(s, out),
        Expr::Name(name, _) => out.push_str(name),
        Expr::Index { name, index, .. } => {
            out.push_str(name);
            out.push('[');
            emit_expr(index, out);
            out.push(']');
        }
        Expr::AddrOf(name, _) => {
            let _ = write!(out, "&{name}");
        }
        Expr::FnAddr(name, _) => {
            let _ = write!(out, "@{name}");
        }
        Expr::Call { name, args, .. } => {
            out.push_str(name);
            out.push('(');
            for (i, a) in args.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                emit_expr(a, out);
            }
            out.push(')');
        }
        Expr::Bin { op, lhs, rhs, .. } => {
            out.push('(');
            emit_expr(lhs, out);
            let _ = write!(out, " {} ", bin_op_token(*op));
            emit_expr(rhs, out);
            out.push(')');
        }
        // The parser folds `-<literal>` into the literal, so the emitter
        // must too, or emission would not be a fixpoint.
        Expr::Un { op: UnOp::Neg, expr, .. } => match expr.as_ref() {
            Expr::Int(v) => {
                let _ = write!(out, "{}", v.wrapping_neg());
            }
            Expr::Float(v) => out.push_str(&float_literal(-v)),
            inner => {
                out.push_str("(-");
                emit_expr(inner, out);
                out.push(')');
            }
        },
        Expr::Un { op, expr, .. } => {
            out.push('(');
            out.push_str(match op {
                UnOp::Not => "!",
                UnOp::BitNot => "~",
                UnOp::Neg => unreachable!("handled above"),
            });
            emit_expr(expr, out);
            out.push(')');
        }
    }
}

fn bin_op_token(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Rem => "%",
        BinOp::And => "&",
        BinOp::Or => "|",
        BinOp::Xor => "^",
        BinOp::Shl => "<<",
        BinOp::Shr => ">>",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::Lt => "<",
        BinOp::Le => "<=",
        BinOp::Gt => ">",
        BinOp::Ge => ">=",
        BinOp::LAnd => "&&",
        BinOp::LOr => "||",
    }
}

/// A float literal that lexes back to exactly the same `f64`. The
/// shortest round-trip form works except when it uses exponent notation,
/// which the lexer does not know; fall back to a long fixed form then.
fn float_literal(v: f64) -> String {
    let s = format!("{v:?}");
    if s.contains('e') || s.contains('E') || s.contains("inf") || s.contains("NaN") {
        format!("{v:.32}")
    } else if s.contains('.') {
        s
    } else {
        format!("{s}.0")
    }
}

fn emit_str(bytes: &[u8], out: &mut String) {
    out.push('"');
    for &b in bytes {
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            other => out.push(other as char),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use crate::{compile, BuildOptions};

    /// A source covering every statement and expression form the
    /// emitter handles.
    const KITCHEN_SINK: &str = r#"
global n = 10;
global arr[4] = { 1, 2, 3, 4 };
global f : float = 2.5;
global s = "hi\n";
global handler : fnptr;
global cb = @main;

fn helper(a, b: float) -> int {
    var x = (a * 2);
    var y: float = (b + 0.5);
    x += int(y);
    if ((x > 3) && (!(x == 7))) {
        x -= 1;
    } else {
        x *= 2;
    }
    for (x = 0; (x < 4); x = (x + 1)) {
        arr[x] = (arr[x] ^ 3);
    }
    return (x % 1000000007);
}

fn worker(i, base) {
    storeb((base + i), (i & 255));
}

fn main() -> int {
    local buf[8];
    var t = 0;
    var p = alloc(64);
    while ((t < 8) || (t == -1)) {
        buf[t] = (~t);
        t = (t + 1);
        if ((t >> 2) >= 2) {
            continue;
        }
        if ((t << 1) != 6) {
            break;
        }
    }
    parfor worker(0, 8, p);
    print_int(helper(n, f));
    return (t / 2);
}
"#;

    #[test]
    fn emission_is_a_parse_fixpoint() {
        let unit = parse(KITCHEN_SINK).unwrap();
        let emitted = emit_unit(&unit);
        let reparsed = parse(&emitted).unwrap_or_else(|e| panic!("{e}\n---\n{emitted}"));
        assert_eq!(emit_unit(&reparsed), emitted, "emit must be a fixpoint");
    }

    #[test]
    fn emitted_source_compiles_under_all_profiles() {
        let unit = parse(KITCHEN_SINK).unwrap();
        let emitted = emit_unit(&unit);
        for opts in [
            BuildOptions::gcc(),
            BuildOptions::clang(),
            BuildOptions::gcc().with_asan(),
            BuildOptions::clang().with_asan(),
        ] {
            compile(&emitted, &opts).unwrap_or_else(|e| panic!("{e}\n---\n{emitted}"));
        }
    }

    #[test]
    fn negated_literals_fold_like_the_parser() {
        let unit = parse("fn main() -> int { var x = -5; var y = -2.5; return x; }").unwrap();
        let emitted = emit_unit(&unit);
        assert!(emitted.contains("var x = -5;"), "{emitted}");
        assert!(emitted.contains("var y = -2.5;"), "{emitted}");
        assert_eq!(emit_unit(&parse(&emitted).unwrap()), emitted);
    }

    #[test]
    fn float_literals_round_trip_exactly() {
        for v in [0.1, 2.5, 0.125, 1.0, 1234.5678, -0.75] {
            let lit = float_literal(v);
            assert_eq!(lit.parse::<f64>().unwrap(), v, "{lit}");
        }
    }

    #[test]
    fn else_if_chains_survive_round_trips() {
        let src = "fn main() { if (1) { } else if (2) { } else { } }";
        let emitted = emit_unit(&parse(src).unwrap());
        assert_eq!(emit_unit(&parse(&emitted).unwrap()), emitted);
    }
}
