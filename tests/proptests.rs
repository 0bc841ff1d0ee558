//! Property-based tests on the core invariants: compiler correctness
//! against a reference evaluator, environment layering, the cache model,
//! the data frame and the heap allocator.

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
// Measurement hot path: superinstruction fusion, the MRU cache fast path
// and the decoded-artifact cache are pure speed — every observable
// artifact (results CSV, failures CSV, clean/quarantine status) must be
// byte-identical with the optimisations on and off, under fault
// injection, at any worker count.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any decode pass subset (plus the MRU and decoded-artifact caches
    /// off) vs all hot-path optimisations ON: the suite matrix must
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
        mask_bits in 0u8..8,
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
                .passes(PassMask::from_bits(mask_bits))
                .mru(false)
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
