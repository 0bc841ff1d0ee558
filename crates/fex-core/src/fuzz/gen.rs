//! Seeded scenario generation for `fex fuzz`.
//!
//! Everything here is a pure function of a 64-bit seed. A scenario is a
//! random-but-*valid* experiment: a handful of generated Cmm programs
//! (built at the AST level and emitted through [`fex_cc::emit`], so they
//! parse by construction), a build-type subset, a thread sweep, a
//! repetition policy, a scheduler width, a measurement tool and an
//! optional fault plan. Programs terminate by construction — every loop
//! bound is a literal, nesting is capped, and division/remainder only
//! ever use positive literal divisors — so the whole scenario completes
//! well inside the configured instruction budget.
//!
//! Program ASTs are kept on the scenario (not just source text) so the
//! shrinker in [`super`] can drop whole statement blocks and helper
//! functions structurally and re-emit.

use fex_cc::ast::{
    AssignOp, BinOp, Expr, FuncDecl, GlobalDecl, GlobalInit, LValue, Stmt, Ty, UnOp, Unit,
};
use fex_cc::Pos;
use fex_suites::{BenchProgram, Suite};
use fex_vm::{FaultKind, FaultPlan, MeasureTool, PassMask};

use crate::config::{ExperimentConfig, FaultInjection, Repetitions};
use crate::resilience::RunPolicy;

/// Instruction budget armed on every fuzzed run: orders of magnitude
/// above what a generated program can legally execute, so a breached
/// budget means the termination guarantee itself broke (or a `Hang`
/// fault fired, which charges the budget instantly by design).
pub const FUZZ_INSTRUCTION_BUDGET: u64 = 4_000_000;

/// splitmix64: the same mixing the framework uses for unit seeds — tiny,
/// deterministic, dependency-free.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng { state: seed }
    }

    /// The next 64 random bits.
    #[allow(clippy::should_implement_trait)] // not an iterator: never exhausts
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo)
    }

    /// True with probability `num`/`den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// A uniformly random element of `xs`.
    pub fn pick<'a, T>(&mut self, xs: &'a [T]) -> &'a T {
        &xs[self.below(xs.len() as u64) as usize]
    }
}

/// The per-case seed: independently regenerable, so a failing case can be
/// replayed alone from `(fuzz seed, case index)` without re-running the
/// cases before it.
pub fn case_seed(seed: u64, index: usize) -> u64 {
    let mut r = Rng::new(seed ^ (index as u64).wrapping_mul(0x2545_f491_4f6c_dd1d));
    r.next()
}

/// One generated benchmark program, kept as an AST for structural
/// shrinking.
#[derive(Debug, Clone)]
pub struct GenProgram {
    /// Benchmark name (`gen0`, `gen1`, …).
    pub name: String,
    /// The program AST.
    pub unit: Unit,
}

impl GenProgram {
    /// Emits the program's Cmm source.
    pub fn source(&self) -> String {
        fex_cc::emit::emit_unit(&self.unit)
    }

    /// Statements in `main`'s body that may be shrunk away (everything
    /// before the fixed checksum/print/return tail).
    pub fn shrinkable_stmts(&self) -> usize {
        self.unit
            .funcs
            .iter()
            .find(|f| f.name == "main")
            .map_or(0, |f| f.body.len().saturating_sub(MAIN_TAIL))
    }
}

/// One fuzzed experiment: programs plus the full configuration axis roll.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// The per-case seed this scenario was generated from.
    pub case_seed: u64,
    /// Generated benchmark programs.
    pub programs: Vec<GenProgram>,
    /// Build types under test (non-empty subset of the standard four).
    pub build_types: Vec<&'static str>,
    /// Thread sweep.
    pub threads: Vec<usize>,
    /// Repetition policy.
    pub repetitions: Repetitions,
    /// Scheduler width of the base run (always ≥ 2; the jobs oracle
    /// compares it against a `--jobs 1` rerun).
    pub jobs: usize,
    /// Measurement tool.
    pub tool: MeasureTool,
    /// Optional fault plan, scoped to one generated benchmark.
    pub fault: Option<FaultInjection>,
    /// The experiment seed fed to the framework.
    pub experiment_seed: u64,
    /// Decode pass subset of the base run (any of the 8 combinations;
    /// the toggles oracle compares against an everything-off rerun).
    pub passes: PassMask,
    /// Whether the `warm` oracle also replays a dirtied suite (one
    /// program's source gets a semantically neutral trailing newline)
    /// against the populated artifact graph.
    pub dirty_rerun: bool,
    /// Whether the `serve` oracle also pushes the scenario through an
    /// in-process `fex serve` daemon twice (two tenants) and compares
    /// against the direct pipeline output.
    pub serve: bool,
}

/// All standard build types the generator samples from.
pub const BUILD_TYPES: [&str; 4] = ["gcc_native", "clang_native", "gcc_asan", "clang_asan"];

impl Scenario {
    /// Generates case `index` of a fuzzing run seeded with `seed`.
    pub fn generate(seed: u64, index: usize) -> Scenario {
        let cs = case_seed(seed, index);
        let mut r = Rng::new(cs);

        let n_programs = r.range(1, 4) as usize;
        let programs = (0..n_programs)
            .map(|i| GenProgram { name: format!("gen{i}"), unit: gen_unit(&mut r) })
            .collect::<Vec<_>>();

        let mut build_types: Vec<&'static str> =
            BUILD_TYPES.iter().copied().filter(|_| r.chance(1, 2)).collect();
        if build_types.is_empty() {
            build_types.push(*r.pick(&BUILD_TYPES));
        }

        let threads = r.pick(&[vec![1], vec![2], vec![1, 2]]).clone();
        let repetitions = if r.chance(1, 4) {
            Repetitions::Adaptive {
                min: 2,
                max: r.range(2, 5) as usize,
                rel_precision: 0.05 + 0.1 * r.below(4) as f64,
            }
        } else {
            Repetitions::Fixed(r.range(1, 3) as usize)
        };
        let jobs = r.range(2, 5) as usize;
        let tool = *r.pick(&MeasureTool::all());
        let fault = if r.chance(1, 4) {
            let target = r.pick(&programs).name.clone();
            let plan = match r.below(3) {
                0 => FaultPlan::persistent(FaultKind::Trap),
                1 => FaultPlan::persistent(FaultKind::Hang),
                _ => FaultPlan::spurious(0.2 + 0.15 * r.below(5) as f64, FaultKind::Trap, r.next()),
            };
            Some(FaultInjection::for_benchmark(target, plan))
        } else {
            None
        };
        let experiment_seed = r.below(1000);
        // Drawn last so older case seeds regenerate the same programs.
        // The range stays 8, from when decode had two passes, and `fuse`
        // kept its bit (`from_bits` drops the rest): every pinned seed
        // keeps its programs and its `fuse` setting.
        let passes = PassMask::from_bits(r.below(8) as u8);
        // The retired claim-chunk axis: still drawn, so the draws after
        // it, and every pinned seed, stay where they were.
        let _ = r.below(5);
        let dirty_rerun = r.chance(1, 3);
        let serve = r.chance(1, 4);

        Scenario {
            case_seed: cs,
            programs,
            build_types,
            threads,
            repetitions,
            jobs,
            tool,
            fault,
            experiment_seed,
            passes,
            dirty_rerun,
            serve,
        }
    }

    /// The base [`ExperimentConfig`] of this scenario: toggles on, journal
    /// on, no lab. Oracle variants derive from it with the builders.
    pub fn config(&self) -> ExperimentConfig {
        let mut cfg = ExperimentConfig::new("fuzz")
            .types(self.build_types.clone())
            .threads(self.threads.clone())
            .input(fex_suites::InputSize::Test)
            .tool(self.tool)
            .seed(self.experiment_seed)
            .jobs(self.jobs)
            .passes(self.passes)
            .resilience(RunPolicy::default().budget(FUZZ_INSTRUCTION_BUDGET));
        cfg.repetitions = self.repetitions;
        if let Some(f) = &self.fault {
            cfg = cfg.fault(f.clone());
        }
        cfg
    }

    /// Materialises the scenario as a runnable [`Suite`]. Sources are
    /// emitted from the ASTs and leaked (suite programs carry `'static`
    /// strings); call once per scenario evaluation and clone the result.
    pub fn suite(&self) -> Suite {
        let programs = self
            .programs
            .iter()
            .map(|p| BenchProgram {
                name: Box::leak(p.name.clone().into_boxed_str()),
                description: "fuzz-generated",
                source: Box::leak(p.source().into_boxed_str()),
                test_args: vec![],
                small_args: vec![],
                native_args: vec![],
                dry_run: false,
            })
            .collect();
        Suite {
            name: "fuzz",
            description: "seeded fuzz scenario",
            programs,
            multithreaded: self.threads.iter().any(|&m| m > 1),
            proprietary: false,
        }
    }

    /// One-paragraph human description, used in repro bundles and the
    /// fuzz report. Deterministic — no wall-clock, no paths.
    pub fn describe(&self) -> String {
        let mut s = format!(
            "case seed {:#018x}: {} program(s), types {:?}, threads {:?}, reps {:?}, \
             jobs {}, passes {}, tool {}, experiment seed {}, dirty rerun {}, \
             serve {}\n",
            self.case_seed,
            self.programs.len(),
            self.build_types,
            self.threads,
            self.repetitions,
            self.jobs,
            self.passes,
            self.tool,
            self.experiment_seed,
            self.dirty_rerun,
            self.serve,
        );
        match &self.fault {
            Some(f) => s.push_str(&format!(
                "fault: persistent={:?} spurious_rate={:.2} on `{}`\n",
                f.plan.persistent,
                f.plan.spurious_rate,
                f.benchmark.as_deref().unwrap_or("*")
            )),
            None => s.push_str("fault: none\n"),
        }
        for p in &self.programs {
            s.push_str(&format!(
                "program `{}`: {} line(s), {} function(s), {} global(s)\n",
                p.name,
                p.source().lines().count(),
                p.unit.funcs.len(),
                p.unit.globals.len(),
            ));
        }
        s
    }
}

// ---------------------------------------------------------------------
// Program generation
// ---------------------------------------------------------------------

/// Fixed statements at the end of `main` (checksum fold, sign clamp,
/// print, return) that the shrinker must preserve.
pub const MAIN_TAIL: usize = 4;

const P: Pos = Pos { line: 1, col: 1 };

fn name(n: &str) -> Expr {
    Expr::Name(n.to_string(), P)
}

fn int(v: i64) -> Expr {
    Expr::Int(v)
}

fn bin(op: BinOp, lhs: Expr, rhs: Expr) -> Expr {
    Expr::Bin { op, lhs: Box::new(lhs), rhs: Box::new(rhs), pos: P }
}

fn call(n: &str, args: Vec<Expr>) -> Expr {
    Expr::Call { name: n.to_string(), args, pos: P }
}

fn index(n: &str, idx: Expr) -> Expr {
    Expr::Index { name: n.to_string(), index: Box::new(idx), pos: P }
}

fn var(n: &str, ty: Option<Ty>, init: Expr) -> Stmt {
    Stmt::Var { ty, name: n.to_string(), init: Some(init), pos: P }
}

fn assign(n: &str, value: Expr) -> Stmt {
    Stmt::Assign { target: LValue::Name(n.to_string(), P), op: AssignOp::Set, value, pos: P }
}

fn assign_op(n: &str, op: AssignOp, value: Expr) -> Stmt {
    Stmt::Assign { target: LValue::Name(n.to_string(), P), op, value, pos: P }
}

fn assign_idx(n: &str, idx: Expr, value: Expr) -> Stmt {
    Stmt::Assign {
        target: LValue::Index { name: n.to_string(), index: idx, pos: P },
        op: AssignOp::Set,
        value,
        pos: P,
    }
}

/// `for (i = 0; i < bound; i = i + 1) { body }` with a literal bound —
/// the only loop shape the generator emits, so termination is free.
fn counted_for(i: &str, bound: i64, body: Vec<Stmt>) -> Stmt {
    Stmt::For {
        init: Some(Box::new(assign(i, int(0)))),
        cond: Some(bin(BinOp::Lt, name(i), int(bound))),
        step: Some(Box::new(assign(i, bin(BinOp::Add, name(i), int(1))))),
        body,
    }
}

/// Layout of the generated unit's shared state, decided up front.
struct Shape {
    gdata_len: Option<i64>,
    has_gacc: bool,
    helpers: usize,
}

/// Generates one terminating Cmm program.
fn gen_unit(r: &mut Rng) -> Unit {
    let shape = Shape {
        gdata_len: r.chance(1, 2).then(|| r.range(8, 33) as i64),
        has_gacc: r.chance(1, 3),
        helpers: r.below(3) as usize,
    };
    let mut unit = Unit::default();

    if let Some(len) = shape.gdata_len {
        unit.globals.push(GlobalDecl {
            name: "gdata".into(),
            ty: Ty::Int,
            len: Some(len as u64),
            init: GlobalInit::Zero,
            is_code_ptr: false,
            pos: P,
        });
    }
    if shape.has_gacc {
        unit.globals.push(GlobalDecl {
            name: "gacc".into(),
            ty: Ty::Int,
            len: None,
            init: GlobalInit::Int(r.range(1, 20) as i64),
            is_code_ptr: false,
            pos: P,
        });
    }

    for h in 0..shape.helpers {
        unit.funcs.push(gen_helper(r, h));
    }
    if shape.gdata_len.is_some() && r.chance(1, 4) {
        unit.funcs.push(parfor_worker(r, shape.gdata_len.unwrap_or(8)));
    }

    let mut body = vec![var("acc", None, int(r.range(1, 1000) as i64))];
    let blocks = r.range(1, 6) as usize;
    for k in 0..blocks {
        body.extend(gen_block(r, k, &shape, &unit));
    }
    // The fixed tail: fold, clamp, print, return — the program's
    // observable checksum across build types and schedules.
    body.push(assign("acc", bin(BinOp::Rem, name("acc"), int(1_000_000_007))));
    body.push(Stmt::If {
        cond: bin(BinOp::Lt, name("acc"), int(0)),
        then_body: vec![assign("acc", bin(BinOp::Sub, int(0), name("acc")))],
        else_body: vec![],
    });
    body.push(Stmt::Expr(call("print_int", vec![name("acc")])));
    body.push(Stmt::Return(Some(bin(BinOp::Rem, name("acc"), int(127))), P));

    unit.funcs.push(FuncDecl {
        name: "main".into(),
        params: vec![],
        ret: Some(Ty::Int),
        body,
        pos: P,
    });
    unit
}

/// `fn helper<h>(a, b) -> int { bounded loop; return folded; }`
fn gen_helper(r: &mut Rng, h: usize) -> FuncDecl {
    let bound = r.range(2, 25) as i64;
    let c = r.range(1, 13) as i64;
    FuncDecl {
        name: format!("helper{h}"),
        params: vec![("a".into(), Ty::Int), ("b".into(), Ty::Int)],
        ret: Some(Ty::Int),
        body: vec![
            var("s", None, int(0)),
            var("i", None, int(0)),
            Stmt::While {
                cond: bin(BinOp::Lt, name("i"), int(bound)),
                body: vec![
                    assign_op(
                        "s",
                        AssignOp::Add,
                        bin(
                            BinOp::Add,
                            bin(BinOp::Rem, name("a"), int(13)),
                            bin(BinOp::Mul, name("b"), name("i")),
                        ),
                    ),
                    assign_op("i", AssignOp::Add, int(1)),
                ],
            },
            Stmt::Return(Some(bin(BinOp::Rem, bin(BinOp::Mul, name("s"), int(c)), int(65521))), P),
        ],
        pos: P,
    }
}

/// `fn pw(i) { gdata[i] = …; }` — the data-parallel worker. Each
/// invocation writes a *distinct* slot, so the parfor is race-free and
/// its result independent of worker interleaving.
fn parfor_worker(r: &mut Rng, _len: i64) -> FuncDecl {
    let c = r.range(1, 9) as i64;
    FuncDecl {
        name: "pw".into(),
        params: vec![("i".into(), Ty::Int)],
        ret: None,
        body: vec![assign_idx(
            "gdata",
            name("i"),
            bin(BinOp::Add, bin(BinOp::Mul, name("i"), int(c)), int(3)),
        )],
        pos: P,
    }
}

/// One self-contained statement block for `main`, accumulating into
/// `acc`. Block kind availability depends on the unit's shape (globals,
/// helpers, parfor worker).
fn gen_block(r: &mut Rng, k: usize, shape: &Shape, unit: &Unit) -> Vec<Stmt> {
    let has_pw = unit.funcs.iter().any(|f| f.name == "pw");
    let mut kinds: Vec<u64> = vec![0, 1, 2, 3, 4];
    if shape.helpers > 0 {
        kinds.push(5);
    }
    if shape.has_gacc {
        kinds.push(6);
    }
    if let Some(len) = shape.gdata_len {
        kinds.push(7);
        if has_pw && len > 0 {
            kinds.push(8);
        }
    }
    let i = format!("i{k}");
    match *r.pick(&kinds) {
        // for-accumulate: acc += i*c1 + c2 over a literal range.
        0 => {
            let bound = r.range(2, 49) as i64;
            let (c1, c2) = (r.range(1, 9) as i64, r.range(0, 17) as i64);
            vec![
                var(&i, None, int(0)),
                counted_for(
                    &i,
                    bound,
                    vec![assign_op(
                        "acc",
                        AssignOp::Add,
                        bin(BinOp::Add, bin(BinOp::Mul, name(&i), int(c1)), int(c2)),
                    )],
                ),
            ]
        }
        // nested while: bit-mixing with xor/shift, bounded both levels.
        1 => {
            let (outer, inner) = (r.range(2, 17) as i64, r.range(2, 9) as i64);
            let j = format!("j{k}");
            vec![
                var(&i, None, int(0)),
                Stmt::While {
                    cond: bin(BinOp::Lt, name(&i), int(outer)),
                    body: vec![
                        var(&j, None, int(0)),
                        Stmt::While {
                            cond: bin(BinOp::Lt, name(&j), int(inner)),
                            body: vec![
                                assign_op(
                                    "acc",
                                    AssignOp::Add,
                                    bin(BinOp::Xor, bin(BinOp::Shl, name(&i), int(2)), name(&j)),
                                ),
                                assign_op(&j, AssignOp::Add, int(1)),
                            ],
                        },
                        assign_op(&i, AssignOp::Add, int(1)),
                    ],
                },
            ]
        }
        // if/else-if chain on the accumulator's parity/magnitude.
        2 => {
            let c = r.range(1, 100) as i64;
            vec![Stmt::If {
                cond: bin(BinOp::Eq, bin(BinOp::Rem, name("acc"), int(2)), int(0)),
                then_body: vec![assign_op("acc", AssignOp::Add, int(c))],
                else_body: vec![Stmt::If {
                    cond: bin(BinOp::Gt, name("acc"), int(500)),
                    then_body: vec![assign_op("acc", AssignOp::Sub, int(c))],
                    else_body: vec![assign_op("acc", AssignOp::Mul, int(3))],
                }],
            }]
        }
        // local stack array: write then read back in one bounded loop.
        3 => {
            let len = r.range(4, 17) as i64;
            let buf = format!("buf{k}");
            vec![
                Stmt::Local { name: buf.clone(), len: len as u64, ty: Ty::Int, pos: P },
                var(&i, None, int(0)),
                counted_for(
                    &i,
                    len,
                    vec![
                        assign_idx(&buf, name(&i), bin(BinOp::Mul, name(&i), name(&i))),
                        assign_op("acc", AssignOp::Add, index(&buf, name(&i))),
                    ],
                ),
            ]
        }
        // float math through the libm builtins, cast back to int.
        4 => {
            let f = format!("f{k}");
            let lit = 0.5 + r.below(8) as f64 * 0.25;
            vec![
                var(&f, Some(Ty::Float), Expr::Float(lit)),
                assign(
                    &f,
                    bin(
                        BinOp::Add,
                        call("sqrt", vec![call("fabs", vec![name(&f)])]),
                        call("float", vec![bin(BinOp::Rem, name("acc"), int(97))]),
                    ),
                ),
                assign_op("acc", AssignOp::Add, call("int", vec![name(&f)])),
            ]
        }
        // call a generated helper.
        5 => {
            let h = r.below(shape.helpers as u64);
            vec![assign_op(
                "acc",
                AssignOp::Add,
                call(
                    &format!("helper{h}"),
                    vec![bin(BinOp::Rem, name("acc"), int(50)), int(r.range(1, 7) as i64)],
                ),
            )]
        }
        // mix through the global scalar.
        6 => vec![
            assign_op("gacc", AssignOp::Add, bin(BinOp::Rem, name("acc"), int(11))),
            assign_op("acc", AssignOp::Add, name("gacc")),
        ],
        // sequential global-array fill + sum.
        7 => {
            let len = shape.gdata_len.unwrap_or(8);
            let c = r.range(1, 6) as i64;
            vec![
                var(&i, None, int(0)),
                counted_for(
                    &i,
                    len,
                    vec![
                        assign_idx("gdata", name(&i), bin(BinOp::Mul, name(&i), int(c))),
                        assign_op("acc", AssignOp::Add, index("gdata", name(&i))),
                    ],
                ),
            ]
        }
        // parfor over disjoint slots, then a sequential sum.
        _ => {
            let len = shape.gdata_len.unwrap_or(8);
            vec![
                Stmt::ParFor {
                    worker: "pw".into(),
                    lo: int(0),
                    hi: int(len),
                    args: vec![],
                    pos: P,
                },
                var(&i, None, int(0)),
                counted_for(
                    &i,
                    len,
                    vec![assign_op("acc", AssignOp::Add, index("gdata", name(&i)))],
                ),
            ]
        }
    }
}

/// A negation the emitter folds like the parser (kept for generator
/// variety without breaking the fixpoint property).
#[allow(dead_code)]
fn neg(e: Expr) -> Expr {
    Expr::Un { op: UnOp::Neg, expr: Box::new(e), pos: P }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_spread() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        let xs: Vec<u64> = (0..16).map(|_| a.next()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next()).collect();
        assert_eq!(xs, ys);
        assert!(xs.windows(2).any(|w| w[0] != w[1]));
        let mut r = Rng::new(1);
        for _ in 0..100 {
            let v = r.range(3, 9);
            assert!((3..9).contains(&v));
        }
    }

    #[test]
    fn case_seeds_are_independent_of_order() {
        assert_eq!(case_seed(42, 7), case_seed(42, 7));
        assert_ne!(case_seed(42, 7), case_seed(42, 8));
        assert_ne!(case_seed(42, 7), case_seed(43, 7));
    }

    #[test]
    fn scenarios_regenerate_identically() {
        let a = Scenario::generate(42, 3);
        let b = Scenario::generate(42, 3);
        assert_eq!(a.describe(), b.describe());
        assert_eq!(
            a.programs.iter().map(GenProgram::source).collect::<Vec<_>>(),
            b.programs.iter().map(GenProgram::source).collect::<Vec<_>>()
        );
    }

    #[test]
    fn generated_programs_parse_and_are_emit_fixpoints() {
        for index in 0..40 {
            let scenario = Scenario::generate(1234, index);
            for p in &scenario.programs {
                let src = p.source();
                let unit = fex_cc::parser::parse(&src).unwrap_or_else(|e| {
                    panic!("case {index} `{}` does not parse: {e}\n{src}", p.name)
                });
                assert_eq!(
                    fex_cc::emit::emit_unit(&unit),
                    src,
                    "case {index} `{}` is not an emit fixpoint",
                    p.name
                );
            }
        }
    }

    #[test]
    fn generator_exercises_pass_dirty_and_serve_axes() {
        let scenarios: Vec<Scenario> = (0..40).map(|i| Scenario::generate(42, i)).collect();
        assert!(scenarios.iter().any(|s| s.passes == PassMask::all()));
        assert!(scenarios.iter().any(|s| s.passes == PassMask::none()));
        assert!(scenarios.iter().any(|s| s.dirty_rerun));
        assert!(scenarios.iter().any(|s| !s.dirty_rerun));
        assert!(scenarios.iter().any(|s| s.serve));
        assert!(scenarios.iter().any(|s| !s.serve));
    }

    #[test]
    fn scenario_configs_validate() {
        for index in 0..40 {
            let scenario = Scenario::generate(99, index);
            scenario.config().validate().unwrap();
            assert!(scenario.jobs >= 2, "the jobs oracle needs a parallel base run");
            assert!(!scenario.build_types.is_empty());
            let suite = scenario.suite();
            assert_eq!(suite.programs.len(), scenario.programs.len());
        }
    }
}
