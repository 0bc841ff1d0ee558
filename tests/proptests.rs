//! Property-based tests on the core invariants: compiler correctness
//! against a reference evaluator, environment layering, the cache model,
//! the data frame, the heap allocator, and decode passes that leave
//! every run's result unchanged.

use proptest::prelude::*;

use fex_cc::{compile, BuildOptions};
use fex_core::collect::{stats, DataFrame};
use fex_core::env::EnvSpec;
use fex_vm::{Cache, CacheConfig, Machine, MachineConfig};

// ---------------------------------------------------------------------
// Compiler vs reference evaluator
// ---------------------------------------------------------------------

/// A tiny random expression tree over one integer variable.
#[derive(Debug, Clone)]
enum Expr {
    Var,
    Const(i64),
    Add(Box<Expr>, Box<Expr>),
    Sub(Box<Expr>, Box<Expr>),
    Mul(Box<Expr>, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
}

impl Expr {
    fn eval(&self, x: i64) -> i64 {
        match self {
            Expr::Var => x,
            Expr::Const(c) => *c,
            Expr::Add(a, b) => a.eval(x).wrapping_add(b.eval(x)),
            Expr::Sub(a, b) => a.eval(x).wrapping_sub(b.eval(x)),
            Expr::Mul(a, b) => a.eval(x).wrapping_mul(b.eval(x)),
            Expr::And(a, b) => a.eval(x) & b.eval(x),
            Expr::Xor(a, b) => a.eval(x) ^ b.eval(x),
        }
    }

    fn to_source(&self) -> String {
        match self {
            Expr::Var => "x".into(),
            Expr::Const(c) => {
                if *c < 0 {
                    format!("(0 - {})", -c)
                } else {
                    format!("{c}")
                }
            }
            Expr::Add(a, b) => format!("({} + {})", a.to_source(), b.to_source()),
            Expr::Sub(a, b) => format!("({} - {})", a.to_source(), b.to_source()),
            Expr::Mul(a, b) => format!("({} * {})", a.to_source(), b.to_source()),
            Expr::And(a, b) => format!("({} & {})", a.to_source(), b.to_source()),
            Expr::Xor(a, b) => format!("({} ^ {})", a.to_source(), b.to_source()),
        }
    }
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![Just(Expr::Var), (-1000i64..1000).prop_map(Expr::Const)];
    leaf.prop_recursive(4, 24, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Add(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Sub(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::Mul(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::And(a.into(), b.into())),
            (inner.clone(), inner).prop_map(|(a, b)| Expr::Xor(a.into(), b.into())),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both backend profiles, at every optimisation level, must compute
    /// exactly what a reference evaluator computes.
    #[test]
    fn compiled_expressions_match_reference(expr in arb_expr(), x in -10_000i64..10_000) {
        let src = format!("fn main(x) -> int {{ return {}; }}", expr.to_source());
        let expected = expr.eval(x);
        for opts in [
            BuildOptions::gcc(),
            BuildOptions::clang(),
            BuildOptions::gcc().with_opt_level(0),
            BuildOptions::gcc().with_asan(),
        ] {
            let p = compile(&src, &opts).expect("generated program compiles");
            let r = Machine::new(MachineConfig::default()).run(&p, &[x]).expect("runs");
            prop_assert_eq!(r.exit, expected, "mismatch under {}", opts.build_info());
        }
    }

    /// Optimised and unoptimised builds agree on loop-and-array programs.
    #[test]
    fn loops_agree_across_opt_levels(n in 1i64..48, stride in 1i64..7, bias in 0i64..100) {
        let src = format!(
            "global a[64];\n\
             fn main() -> int {{\n\
               var i = 0;\n\
               while (i < {n}) {{ a[i] = i * {stride} + {bias}; i += 1; }}\n\
               var s = 0;\n\
               for (j = 0; j < {n}; j += 1) {{ s += a[j]; }}\n\
               return s;\n\
             }}"
        );
        let mut results = Vec::new();
        for opts in [BuildOptions::gcc(), BuildOptions::gcc().with_opt_level(0), BuildOptions::clang()] {
            let p = compile(&src, &opts).unwrap();
            results.push(Machine::new(MachineConfig::default()).run(&p, &[]).unwrap().exit);
        }
        prop_assert!(results.windows(2).all(|w| w[0] == w[1]), "{results:?}");
        // And the reference: sum of i*stride+bias for i in 0..n.
        let expected: i64 = (0..n).map(|i| i * stride + bias).sum();
        prop_assert_eq!(results[0], expected);
    }

    // -----------------------------------------------------------------
    // Environment layering
    // -----------------------------------------------------------------

    /// Forced values always win over default/updated; debug wins over all
    /// in debug mode and is absent otherwise.
    #[test]
    fn env_layer_priority_holds(
        key in "[A-Z]{1,8}",
        default in "[a-z]{0,6}",
        updated in "[a-z]{0,6}",
        forced in "[a-z]{1,6}",
        debug in "[a-z]{1,6}",
    ) {
        let spec = EnvSpec {
            default: vec![(key.clone(), default.clone())],
            updated: vec![(key.clone(), updated.clone())],
            forced: vec![(key.clone(), forced.clone())],
            debug: vec![(key.clone(), debug.clone())],
        };
        prop_assert_eq!(&spec.resolve(false)[&key], &forced);
        prop_assert_eq!(&spec.resolve(true)[&key], &debug);
        // Without forced/debug, updated appends to default.
        let spec2 = EnvSpec {
            default: vec![(key.clone(), default.clone())],
            updated: vec![(key.clone(), updated.clone())],
            ..EnvSpec::default()
        };
        let resolved = spec2.resolve(false)[&key].clone();
        prop_assert_eq!(resolved, format!("{default} {updated}"));
    }

    // -----------------------------------------------------------------
    // Cache model
    // -----------------------------------------------------------------

    /// Hits never exceed accesses, and a repeated access pattern that fits
    /// in the cache eventually hits every time.
    #[test]
    fn cache_invariants(addrs in prop::collection::vec(0u64..4096, 1..200)) {
        let mut c = Cache::new(CacheConfig { size: 8192, ways: 4, line: 64, latency: 1 });
        for a in &addrs {
            c.access(*a);
        }
        let s = c.stats();
        prop_assert!(s.hits <= s.accesses);
        prop_assert_eq!(s.accesses, addrs.len() as u64);
        // Working set (≤ 4 KiB) fits in the 8 KiB cache: a second pass
        // over the same addresses must hit on every access.
        let before = c.stats().hits;
        for a in &addrs {
            prop_assert!(c.access(*a), "second pass must hit");
        }
        prop_assert_eq!(c.stats().hits, before + addrs.len() as u64);
    }

    // -----------------------------------------------------------------
    // DataFrame
    // -----------------------------------------------------------------

    /// CSV serialisation round-trips arbitrary string/number tables.
    #[test]
    fn dataframe_csv_roundtrip(
        cells in prop::collection::vec(
            prop::collection::vec(
                prop_oneof![
                    "[ -~]{0,12}".prop_map(CellSeed::Str),
                    (-1_000_000i64..1_000_000).prop_map(CellSeed::Int),
                ],
                3,
            ),
            0..20,
        )
    ) {
        let mut df = DataFrame::new(vec!["a", "b", "c"]);
        for row in &cells {
            df.push(row.iter().map(|c| c.to_value()).collect());
        }
        let parsed = DataFrame::from_csv(&df.to_csv()).unwrap();
        prop_assert_eq!(parsed.len(), df.len());
        // Numbers survive exactly; strings survive verbatim unless they
        // happen to parse as numbers, in which case CSV erases the
        // distinction (as in pandas) and only numeric equality holds.
        for (orig, new) in df.iter().zip(parsed.iter()) {
            for (o, n) in orig.iter().zip(new.iter()) {
                let (os, ns) = (o.to_cell_string(), n.to_cell_string());
                if os != ns {
                    let (of, nf) = (os.parse::<f64>(), ns.parse::<f64>());
                    prop_assert!(
                        matches!((of, nf), (Ok(a), Ok(b)) if a == b),
                        "cells diverged: {os:?} vs {ns:?}"
                    );
                }
            }
        }
    }

    /// The mean of a group aggregation lies within [min, max].
    #[test]
    fn group_mean_is_bounded(values in prop::collection::vec(-1e6f64..1e6, 1..50)) {
        let mut df = DataFrame::new(vec!["k", "v"]);
        for v in &values {
            df.push(vec!["g".into(), (*v).into()]);
        }
        let agg = df.group_agg(&["k"], "v", stats::mean).unwrap();
        let mean = agg.iter().next().unwrap()[1].as_num().unwrap();
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(mean >= lo - 1e-9 && mean <= hi + 1e-9);
    }
}

// ---------------------------------------------------------------------
// Statement-level differential testing: random programs with loops,
// branches and array writes, compared against a reference interpreter
// under every backend profile and optimisation level. This is the class
// of test that catches unsound optimisation passes (an early LICM bug
// hoisted conditional definitions; this generator would have found it).
// ---------------------------------------------------------------------

const NVARS: usize = 4;
const ARR: usize = 8;

#[derive(Debug, Clone)]
enum SExpr {
    Var(usize),
    Arr(usize),
    Const(i64),
    Add(Box<SExpr>, Box<SExpr>),
    Sub(Box<SExpr>, Box<SExpr>),
    Mul(Box<SExpr>, Box<SExpr>),
    Xor(Box<SExpr>, Box<SExpr>),
    // Multiply by a power of two — targets the strength-reduction path.
    MulPow2(Box<SExpr>, u32),
    // Modulo by a power of two — targets the div/rem lowering (signed!).
    RemPow2(Box<SExpr>, u32),
    Lt(Box<SExpr>, Box<SExpr>),
}

impl SExpr {
    fn eval(&self, vars: &[i64; NVARS], arr: &[i64; ARR]) -> i64 {
        match self {
            SExpr::Var(i) => vars[*i],
            SExpr::Arr(i) => arr[*i],
            SExpr::Const(c) => *c,
            SExpr::Add(a, b) => a.eval(vars, arr).wrapping_add(b.eval(vars, arr)),
            SExpr::Sub(a, b) => a.eval(vars, arr).wrapping_sub(b.eval(vars, arr)),
            SExpr::Mul(a, b) => a.eval(vars, arr).wrapping_mul(b.eval(vars, arr)),
            SExpr::Xor(a, b) => a.eval(vars, arr) ^ b.eval(vars, arr),
            SExpr::MulPow2(a, k) => a.eval(vars, arr).wrapping_mul(1i64 << k),
            SExpr::RemPow2(a, k) => a.eval(vars, arr).wrapping_rem(1i64 << k),
            SExpr::Lt(a, b) => (a.eval(vars, arr) < b.eval(vars, arr)) as i64,
        }
    }

    fn to_source(&self) -> String {
        match self {
            SExpr::Var(i) => format!("v{i}"),
            SExpr::Arr(i) => format!("a[{i}]"),
            SExpr::Const(c) => {
                if *c < 0 {
                    format!("(0 - {})", -c)
                } else {
                    format!("{c}")
                }
            }
            SExpr::Add(a, b) => format!("({} + {})", a.to_source(), b.to_source()),
            SExpr::Sub(a, b) => format!("({} - {})", a.to_source(), b.to_source()),
            SExpr::Mul(a, b) => format!("({} * {})", a.to_source(), b.to_source()),
            SExpr::Xor(a, b) => format!("({} ^ {})", a.to_source(), b.to_source()),
            SExpr::MulPow2(a, k) => format!("({} * {})", a.to_source(), 1i64 << k),
            SExpr::RemPow2(a, k) => format!("({} % {})", a.to_source(), 1i64 << k),
            SExpr::Lt(a, b) => format!("({} < {})", a.to_source(), b.to_source()),
        }
    }
}

#[derive(Debug, Clone)]
enum SStmt {
    AssignVar(usize, SExpr),
    AssignArr(usize, SExpr),
    If(SExpr, Vec<SStmt>, Vec<SStmt>),
    /// `for (li = 0; li < n; li += 1) body` with a fresh loop variable the
    /// body cannot touch.
    Loop(u8, Vec<SStmt>),
}

impl SStmt {
    fn exec(&self, vars: &mut [i64; NVARS], arr: &mut [i64; ARR]) {
        match self {
            SStmt::AssignVar(i, e) => vars[*i] = e.eval(vars, arr),
            SStmt::AssignArr(i, e) => arr[*i] = e.eval(vars, arr),
            SStmt::If(c, t, f) => {
                let body = if c.eval(vars, arr) != 0 { t } else { f };
                for s in body {
                    s.exec(vars, arr);
                }
            }
            SStmt::Loop(n, body) => {
                for _ in 0..*n {
                    for s in body {
                        s.exec(vars, arr);
                    }
                }
            }
        }
    }

    fn to_source(&self, out: &mut String, depth: usize, loop_id: &mut usize) {
        let pad = "  ".repeat(depth + 1);
        match self {
            SStmt::AssignVar(i, e) => out.push_str(&format!("{pad}v{i} = {};\n", e.to_source())),
            SStmt::AssignArr(i, e) => out.push_str(&format!("{pad}a[{i}] = {};\n", e.to_source())),
            SStmt::If(c, t, f) => {
                out.push_str(&format!("{pad}if ({} != 0) {{\n", c.to_source()));
                for s in t {
                    s.to_source(out, depth + 1, loop_id);
                }
                if f.is_empty() {
                    out.push_str(&format!("{pad}}}\n"));
                } else {
                    out.push_str(&format!("{pad}}} else {{\n"));
                    for s in f {
                        s.to_source(out, depth + 1, loop_id);
                    }
                    out.push_str(&format!("{pad}}}\n"));
                }
            }
            SStmt::Loop(n, body) => {
                let li = *loop_id;
                *loop_id += 1;
                out.push_str(&format!("{pad}for (li{li} = 0; li{li} < {n}; li{li} += 1) {{\n"));
                for s in body {
                    s.to_source(out, depth + 1, loop_id);
                }
                out.push_str(&format!("{pad}}}\n"));
            }
        }
    }
}

fn arb_sexpr() -> impl Strategy<Value = SExpr> {
    let leaf = prop_oneof![
        (0..NVARS).prop_map(SExpr::Var),
        (0..ARR).prop_map(SExpr::Arr),
        (-100i64..100).prop_map(SExpr::Const),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| SExpr::Add(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| SExpr::Sub(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| SExpr::Mul(a.into(), b.into())),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| SExpr::Xor(a.into(), b.into())),
            (inner.clone(), 1u32..6).prop_map(|(a, k)| SExpr::MulPow2(a.into(), k)),
            (inner.clone(), 1u32..6).prop_map(|(a, k)| SExpr::RemPow2(a.into(), k)),
            (inner.clone(), inner).prop_map(|(a, b)| SExpr::Lt(a.into(), b.into())),
        ]
    })
}

fn arb_sstmt() -> impl Strategy<Value = SStmt> {
    let assign = prop_oneof![
        ((0..NVARS), arb_sexpr()).prop_map(|(i, e)| SStmt::AssignVar(i, e)),
        ((0..ARR), arb_sexpr()).prop_map(|(i, e)| SStmt::AssignArr(i, e)),
    ];
    assign.prop_recursive(2, 12, 3, |inner| {
        prop_oneof![
            (
                arb_sexpr(),
                prop::collection::vec(inner.clone(), 1..3),
                prop::collection::vec(inner.clone(), 0..2)
            )
                .prop_map(|(c, t, f)| SStmt::If(c, t, f)),
            ((1u8..6), prop::collection::vec(inner, 1..3)).prop_map(|(n, b)| SStmt::Loop(n, b)),
        ]
    })
}

fn program_source(stmts: &[SStmt], x: i64) -> String {
    let mut src = String::from("global a[8];\nfn main(x) -> int {\n");
    for i in 0..NVARS {
        src.push_str(&format!(
            "  var v{i} = {};\n",
            if i == 0 { "x".to_string() } else { i.to_string() }
        ));
    }
    let mut loop_id = 0usize;
    for s in stmts {
        s.to_source(&mut src, 0, &mut loop_id);
    }
    src.push_str("  var acc = v0;\n");
    for i in 1..NVARS {
        src.push_str(&format!("  acc = acc ^ (v{i} * {});\n", 2 * i + 1));
    }
    for i in 0..ARR {
        src.push_str(&format!("  acc = acc ^ (a[{i}] * {});\n", 3 * i + 2));
    }
    src.push_str("  return acc;\n}\n");
    let _ = x;
    src
}

fn reference_result(stmts: &[SStmt], x: i64) -> i64 {
    let mut vars = [x, 1, 2, 3];
    let mut arr = [0i64; ARR];
    for s in stmts {
        s.exec(&mut vars, &mut arr);
    }
    let mut acc = vars[0];
    for (i, v) in vars.iter().enumerate().skip(1) {
        acc ^= v.wrapping_mul(2 * i as i64 + 1);
    }
    for (i, a) in arr.iter().enumerate() {
        acc ^= a.wrapping_mul(3 * i as i64 + 2);
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whole random programs agree with the reference interpreter under
    /// every backend profile and optimisation level (differential
    /// testing of the optimisation pipeline).
    #[test]
    fn random_programs_match_reference(
        stmts in prop::collection::vec(arb_sstmt(), 1..6),
        x in -1000i64..1000,
    ) {
        let src = program_source(&stmts, x);
        let expected = reference_result(&stmts, x);
        for opts in [
            BuildOptions::gcc(),
            BuildOptions::clang(),
            BuildOptions::gcc().with_opt_level(0),
            BuildOptions::gcc().with_opt_level(1),
            BuildOptions::clang().with_asan(),
        ] {
            let p = compile(&src, &opts)
                .unwrap_or_else(|e| panic!("compile failed under {}: {e}\n{src}", opts.build_info()));
            let r = Machine::new(MachineConfig::default())
                .run(&p, &[x])
                .unwrap_or_else(|e| panic!("run failed under {}: {e}\n{src}", opts.build_info()));
            prop_assert_eq!(
                r.exit,
                expected,
                "mismatch under {}\n{}",
                opts.build_info(),
                src
            );
        }
    }
}

// ---------------------------------------------------------------------
// Resilience: with the fault rate at zero, the resilient experiment loop
// must be an exact no-op wrapper around the original Fig 4 loop.
// ---------------------------------------------------------------------

fn run_micro(config: &fex_core::ExperimentConfig) -> (String, bool) {
    use fex_core::build::MakefileSet;
    use fex_core::runner::{RunContext, Runner, SuiteRunner};

    let makefiles = MakefileSet::standard();
    let mut log = Vec::new();
    let mut ctx = RunContext::new(config, &makefiles, &mut log);
    let mut runner = SuiteRunner::new(fex_suites::micro(), config);
    let df = runner.run(&mut ctx).unwrap();
    (df.to_csv(), ctx.failures.is_clean())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Arming a fault plan with rate 0 (and any retry budget) must leave
    /// the result frame byte-identical to a plain, injection-free run,
    /// with a clean failure report.
    #[test]
    fn zero_fault_rate_reproduces_the_plain_loop(
        types_pick in 0usize..3,
        reps in 1usize..3,
        fault_seed in 0u64..1000,
        retries in 0usize..6,
    ) {
        use fex_core::config::FaultInjection;
        use fex_core::{ExperimentConfig, RunPolicy};
        use fex_suites::InputSize;
        use fex_vm::{FaultKind, FaultPlan};

        let types = match types_pick {
            0 => vec!["gcc_native"],
            1 => vec!["clang_native"],
            _ => vec!["gcc_native", "clang_native"],
        };
        let base = ExperimentConfig::new("micro")
            .types(types)
            .input(InputSize::Test)
            .repetitions(reps);
        let (plain_csv, plain_clean) = run_micro(&base);

        let armed = base
            .clone()
            .fault(FaultInjection::everywhere(FaultPlan::spurious(
                0.0,
                FaultKind::Trap,
                fault_seed,
            )))
            .resilience(RunPolicy::default().retries(retries));
        let (armed_csv, armed_clean) = run_micro(&armed);

        prop_assert!(plain_clean && armed_clean);
        prop_assert_eq!(plain_csv, armed_csv);
    }
}

// ---------------------------------------------------------------------
// Scheduler: a parallel run must be observationally identical to a
// sequential one — same results CSV, same failures CSV, byte for byte —
// because every run unit derives its seeds from its own coordinates and
// quarantine is decided at merge time in matrix order.
// ---------------------------------------------------------------------

fn run_micro_with_failures(config: &fex_core::ExperimentConfig) -> (String, String) {
    use fex_core::build::MakefileSet;
    use fex_core::runner::{RunContext, Runner, SuiteRunner};

    let makefiles = MakefileSet::standard();
    let mut log = Vec::new();
    let mut ctx = RunContext::new(config, &makefiles, &mut log);
    let mut runner = SuiteRunner::new(fex_suites::micro(), config);
    let df = runner.run(&mut ctx).unwrap();
    (df.to_csv(), ctx.failures.to_csv())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `--jobs 8` produces byte-identical results and failures CSVs to
    /// `--jobs 1`, with and without fault injection, whatever the
    /// transient-fault rate, seed and retry budget.
    #[test]
    fn parallel_runs_are_byte_identical_to_sequential(
        types_pick in 0usize..3,
        reps in 1usize..3,
        inject in 0usize..2,
        rate in 0.0f64..0.8,
        fault_seed in 0u64..1000,
        retries in 0usize..4,
        experiment_seed in 0u64..1000,
    ) {
        use fex_core::config::FaultInjection;
        use fex_core::{ExperimentConfig, RunPolicy};
        use fex_suites::InputSize;
        use fex_vm::{FaultKind, FaultPlan};

        let types = match types_pick {
            0 => vec!["gcc_native"],
            1 => vec!["clang_native"],
            _ => vec!["gcc_native", "clang_native"],
        };
        let mut base = ExperimentConfig::new("micro")
            .types(types)
            .input(InputSize::Test)
            .repetitions(reps)
            .resilience(RunPolicy::default().retries(retries));
        base.seed = experiment_seed;
        if inject == 1 {
            base = base.fault(FaultInjection::everywhere(FaultPlan::spurious(
                rate,
                FaultKind::Trap,
                fault_seed,
            )));
        }
        let (seq_csv, seq_failures) = run_micro_with_failures(&base.clone().jobs(1));
        let (par_csv, par_failures) = run_micro_with_failures(&base.jobs(8));
        prop_assert_eq!(seq_csv, par_csv);
        prop_assert_eq!(seq_failures, par_failures);
    }
}

// ---------------------------------------------------------------------
// Measurement hot path: superinstruction fusion and the decoded-artifact
// cache are pure speed — every observable
// artifact (results CSV, failures CSV, clean/quarantine status) must be
// byte-identical with the optimisations on and off, under fault
// injection, at any worker count.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// `fuse` on or off (plus the decoded-artifact cache off) vs
    /// all hot-path optimisations ON: the suite matrix must
    /// produce byte-identical results and failures CSVs, with and
    /// without fault injection, sequentially and with `--jobs 8`.
    #[test]
    fn hot_path_optimisations_never_change_measured_numbers(
        types_pick in 0usize..3,
        reps in 1usize..3,
        inject in 0usize..2,
        rate in 0.0f64..0.8,
        fault_seed in 0u64..1000,
        retries in 0usize..4,
        experiment_seed in 0u64..1000,
        jobs_pick in 0usize..2,
        fuse_pick in 0usize..2,
    ) {
        use fex_core::config::FaultInjection;
        use fex_core::{ExperimentConfig, RunPolicy};
        use fex_suites::InputSize;
        use fex_vm::{FaultKind, FaultPlan, PassMask};

        let types = match types_pick {
            0 => vec!["gcc_native"],
            1 => vec!["clang_native", "gcc_asan"],
            _ => vec!["gcc_native", "clang_native"],
        };
        let mut base = ExperimentConfig::new("micro")
            .types(types)
            .input(InputSize::Test)
            .repetitions(reps)
            .resilience(RunPolicy::default().retries(retries))
            .jobs(if jobs_pick == 0 { 1 } else { 8 });
        base.seed = experiment_seed;
        if inject == 1 {
            base = base.fault(FaultInjection::everywhere(FaultPlan::spurious(
                rate,
                FaultKind::Trap,
                fault_seed,
            )));
        }
        let (on_csv, on_failures) = run_micro_with_failures(&base.clone());
        let (off_csv, off_failures) = run_micro_with_failures(
            &base
                .passes(if fuse_pick == 0 { PassMask::all() } else { PassMask::none() })
                .decode_cache(false),
        );
        prop_assert_eq!(on_csv, off_csv);
        prop_assert_eq!(on_failures, off_failures);
    }
}

#[derive(Debug, Clone)]
enum CellSeed {
    Str(String),
    Int(i64),
}

impl CellSeed {
    fn to_value(&self) -> fex_core::collect::Value {
        match self {
            CellSeed::Str(s) => s.as_str().into(),
            CellSeed::Int(v) => (*v).into(),
        }
    }
}

// ---------------------------------------------------------------------
// Pass equivalence at the `RunResult` level
//
// Decode's `fuse` stage changes how the interpreter dispatches, never
// what a run observes: on one and two cores, a program's whole
// `RunResult` (exit, stdout, every counter, the cache and heap
// statistics, attack events, hijacks) or its trap must be the same with
// `fuse` on and off.
// ---------------------------------------------------------------------

/// The four standard build profiles: native and ASan, gcc and clang.
fn build_profiles() -> [(&'static str, BuildOptions); 4] {
    [
        ("gcc_native", BuildOptions::gcc()),
        ("clang_native", BuildOptions::clang()),
        ("gcc_asan", BuildOptions::gcc().with_asan()),
        ("clang_asan", BuildOptions::clang().with_asan()),
    ]
}

/// Runs `program` with `fuse` on and off on one and two cores and checks
/// that both outcomes agree on each core count. Returns the `fuse`-off
/// outcomes, one per core count.
fn assert_pass_equivalent(
    label: &str,
    program: &fex_vm::Program,
    args: &[i64],
) -> Vec<Result<fex_vm::RunResult, fex_vm::VmError>> {
    use fex_vm::PassMask;

    let mut baselines = Vec::new();
    for cores in [1, 2] {
        let run = |passes: PassMask| {
            let config = MachineConfig { cores, passes, ..MachineConfig::default() };
            Machine::new(config).run(program, args)
        };
        let baseline = run(PassMask::none());
        assert_eq!(run(PassMask::all()), baseline, "{label}, {cores} core(s)");
        baselines.push(baseline);
    }
    baselines
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fuzz-generated programs (helper calls, loops, parfor workers,
    /// global and heap traffic) in every build profile.
    #[test]
    fn pass_subsets_leave_every_run_result_unchanged(seed in 0u64..1_000_000) {
        let scenario = fex_core::fuzz::Scenario::generate(seed, 0);
        for gen in &scenario.programs {
            let source = gen.source();
            for (build, opts) in build_profiles() {
                let program = compile(&source, &opts).expect("generated programs compile");
                assert_pass_equivalent(&format!("seed {seed} {} {build}", gen.name), &program, &[]);
            }
        }
    }
}

/// A program whose hot path leaves the frame-local dispatch loop in every
/// way it can: nested and recursive calls, an indirect call, a `parfor`
/// whose worker calls further functions, a return past the end of a
/// function's code (`bump` loses its final `ret` below) and a return
/// whose address the callee overwrote (`smash`, given the distance from
/// its buffer to its return slot).
const EXITS_SOURCE: &str = r#"
global acc[8];

fn leaf(x) -> int { return x * 3 + 1; }
fn fib(n) -> int {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
fn twice(x) -> int { return leaf(leaf(x)); }
fn bump(x) { acc[0] = acc[0] + x; }
fn landing() { acc[1] = acc[1] + 1000; }
fn smash(d) -> int {
  local buf[2];
  buf[0] = 7;
  store(&buf + d, @landing);
  return 0;
}
fn worker(i, base) { acc[2 + i % 4] += twice(i + base) + fib(i % 7); }
fn main(n, d) -> int {
  var f = @leaf;
  var s = 0;
  for (i = 0; i < n; i += 1) {
    s += icall(f, i) + fib(i % 9);
    bump(i);
  }
  parfor worker(0, 8, n);
  smash(d);
  print_int(s);
  return s + acc[0] + acc[1] + acc[2] + acc[3] + acc[4] + acc[5];
}
"#;

#[test]
fn pass_subsets_agree_on_every_way_out_of_a_frame() {
    for (build, opts) in build_profiles() {
        let mut program = compile(EXITS_SOURCE, &opts).expect("the exits program compiles");
        let bump = program.function_by_name("bump").expect("bump is defined");
        let code = &mut program.functions[bump.0 as usize].code;
        assert!(
            matches!(code.pop(), Some(fex_vm::Instr::Ret { src: None })),
            "{build}: bump ends in a plain ret"
        );
        // The 16-byte buffer, its right redzone and the saved frame
        // pointer lie between the buffer and the return slot.
        let redzone = if opts.asan { fex_cc::asan::REDZONE as i64 } else { 0 };
        for outcome in assert_pass_equivalent(build, &program, &[12, 16 + redzone + 8]) {
            let run = outcome.unwrap_or_else(|e| panic!("{build}: the exits program runs: {e}"));
            assert!(run.counters.calls > 100, "{build}: {} calls", run.counters.calls);
            assert_eq!(run.hijacks.len(), 1, "{build}: hijacks");
        }
    }
}

/// A loop over 400 `if`s: enough branch sites that many share a counter
/// in the predictor's 4096-entry table, so a branch recorded at the
/// wrong site changes which branches alias and moves the mispredict
/// count. (With few sites, shifting every site by the same amount is
/// invisible.)
#[test]
fn pass_subsets_agree_on_a_branch_dense_loop() {
    let mut source = String::from("fn main(n) -> int {\n  var s = 0;\n");
    source.push_str("  for (i = 0; i < n; i += 1) {\n");
    for k in 0..400 {
        let (m, r) = (2 + k % 7, k % 3);
        source.push_str(&format!("    if (i % {m} == {r}) {{ s += {k}; }}\n"));
    }
    source.push_str("  }\n  return s;\n}\n");
    for (build, opts) in build_profiles() {
        let program = compile(&source, &opts).expect("the branch-dense program compiles");
        for outcome in assert_pass_equivalent(build, &program, &[40]) {
            let run = outcome.unwrap_or_else(|e| panic!("{build}: the loop runs: {e}"));
            assert!(run.counters.branches > 16_000, "{build}: {} branches", run.counters.branches);
        }
    }
}

// ---------------------------------------------------------------------
// Plots: any frame that reaches `fex plot` renders or fails with an
// error, never a panic. Frames may be empty or hold one row, NaN, ±inf,
// negative and huge numbers, and long or non-ASCII labels; each goes
// through every plot request and both renderers.
// ---------------------------------------------------------------------

/// The columns every plot request reads.
const PLOT_COLUMNS: [&str; 10] = [
    "benchmark",
    "type",
    "threads",
    "time",
    "throughput",
    "mean_ms",
    "l1_misses",
    "l2_misses",
    "llc_misses",
    "maxrss_bytes",
];

/// A label without line breaks that no CSV reader takes for a number: it
/// starts with a letter that begins neither `inf` nor `nan`.
fn plot_label(rng: &mut TestRng) -> String {
    const FIRST: &str = "abcdefghjklmopqrstuvwxyzABCDEFGHJKLMOPQRSTUVWXYZéß日";
    const REST: &str = " !\"#$%&'()*+,-./0123456789:;<=>?@AZaz[\\]^_`{|}~éßü日本語\u{200b}";
    let first: Vec<char> = FIRST.chars().collect();
    let rest: Vec<char> = REST.chars().collect();
    let len = if rng.chance(0.2) { 100 + rng.below(200) } else { rng.below(12) };
    let mut s = String::from(first[rng.below(first.len() as u64) as usize]);
    s.extend((0..len).map(|_| rest[rng.below(rest.len() as u64) as usize]));
    s
}

/// A plotted number: ordinary, negative, huge, tiny or not finite.
fn plot_number(rng: &mut TestRng) -> f64 {
    match rng.below(10) {
        0 => f64::NAN,
        1 => [f64::INFINITY, f64::NEG_INFINITY][rng.below(2) as usize],
        2 => [f64::MAX, -f64::MAX, 1e300, 1e-300][rng.below(4) as usize],
        3 => -(rng.below(1_000) as f64),
        4 => 0.0,
        5 => rng.below(9) as f64,
        _ => (rng.unit_f64() - 0.2) * 1e6,
    }
}

/// A frame over [`PLOT_COLUMNS`]: up to 12 rows over a few benchmarks
/// and types, so groups and baselines overlap.
fn arb_plot_frame() -> BoxedStrategy<DataFrame> {
    BoxedStrategy::from_fn(|rng| {
        let benches: Vec<String> = (0..1 + rng.below(3)).map(|_| plot_label(rng)).collect();
        let types: Vec<String> = (0..1 + rng.below(3)).map(|_| plot_label(rng)).collect();
        let mut df = DataFrame::new(PLOT_COLUMNS.to_vec());
        for _ in 0..[0, 1, rng.below(13)][rng.below(3) as usize] {
            let mut row = vec![
                benches[rng.below(benches.len() as u64) as usize].as_str().into(),
                types[rng.below(types.len() as u64) as usize].as_str().into(),
            ];
            row.extend((2..PLOT_COLUMNS.len()).map(|_| plot_number(rng).into()));
            df.push(row);
        }
        df
    })
}

/// Whether every SVG element closes: each `<name ...>` has its
/// `</name>`, in order, or closes itself (`<name .../>`).
fn svg_tags_balance(svg: &str) -> bool {
    let mut open: Vec<&str> = Vec::new();
    let mut rest = svg;
    while let Some(start) = rest.find('<') {
        let Some(len) = rest[start..].find('>') else { return false };
        let tag = &rest[start + 1..start + len];
        rest = &rest[start + len + 1..];
        if let Some(name) = tag.strip_prefix('/') {
            if open.pop() != Some(name) {
                return false;
            }
        } else if !tag.ends_with('/') {
            open.push(tag.split_whitespace().next().unwrap_or(""));
        }
    }
    open.is_empty()
}

/// The plot oracle: `df`'s CSV reads back to the same text, and every
/// plot request over the parsed frame renders to balanced SVG and to
/// ASCII, or fails with an error. A panic anywhere fails the test.
/// Returns each request's outcome.
fn check_plots(what: &str, df: &DataFrame) -> Vec<Result<String, String>> {
    use fex_core::PlotRequest;
    let csv = df.to_csv();
    let parsed = DataFrame::from_csv(&csv).expect("a frame's own CSV parses");
    assert_eq!(parsed.to_csv(), csv, "{what}: the CSV is not a fixpoint");
    ["perf", "tlat", "scaling", "cache", "mem"]
        .into_iter()
        .map(|name| {
            let request = PlotRequest::parse(name).expect("a plot request");
            let plot = request.render("x", &parsed).map_err(|e| e.to_string())?;
            let svg = plot.to_svg();
            assert!(svg_tags_balance(&svg), "{what}: `{name}` SVG tags do not balance:\n{svg}");
            Ok(plot.to_ascii())
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn plots_never_panic_and_their_svg_balances(df in arb_plot_frame()) {
        check_plots(&df.to_csv(), &df);
    }
}

/// Two frames that panicked `fex plot`: a NaN thread count (the scaling
/// plot's sort) and a negative miss count (a bar longer than the ASCII
/// bar width).
#[test]
fn plot_regressions_render_or_name_the_bad_cell() {
    let nan_threads = "benchmark,type,threads,time\nfft,gcc_native,1,2\nfft,gcc_native,nan,1\n";
    let df = DataFrame::from_csv(nan_threads).unwrap();
    let scaling = check_plots("nan threads", &df).swap_remove(2);
    assert_eq!(
        scaling.unwrap_err(),
        "data error: column `threads`, row 2: `NaN` is not a number",
        "the error names the column and the row"
    );

    let negative_misses = "benchmark,type,l1_misses,l2_misses,llc_misses\nfft,gcc_native,5,-4,0\n";
    let df = DataFrame::from_csv(negative_misses).unwrap();
    let cache = check_plots("negative misses", &df).swap_remove(3);
    assert!(cache.expect("the cache plot renders").contains("fft"));
}
