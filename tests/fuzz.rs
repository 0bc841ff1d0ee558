//! Integration tests for `fex fuzz` and `fex lab fsck`: generator
//! validity, oracle soundness (clean runs pass) and sensitivity (armed
//! `FEX_FUZZ_BREAK` mutations are caught *and* shrunk), corruption
//! detection/recovery, and the binary's exit-code contract.
//!
//! The generator-validity sweep is the satellite's 200-seed guarantee:
//! every generated Cmm program must parse, compile under **all** build
//! types and terminate within the instruction budget — scenario validity
//! is by construction, so a pipeline error on a generated scenario is
//! always a finding.

use std::path::Path;

mod common;
use common::{CommandIn, TempDir};

use fex_core::fuzz::{self, BreakMode, FuzzOptions, Scenario};
use fex_core::lab::{fsck, Corruption, RunArtifacts, RunStore};
use fex_core::{ExperimentConfig, Repetitions};

fn temp_dir(tag: &str) -> TempDir {
    TempDir::new("fex-fuzz-it", tag)
}

/// Fuzz options whose bundle directory is the returned guard's.
fn small_opts(tag: &str) -> (TempDir, FuzzOptions) {
    let dir = temp_dir(tag);
    let opts = FuzzOptions { bundle_dir: dir.to_path_buf(), ..FuzzOptions::default() };
    (dir, opts)
}

// --- satellite: generator coverage across 200 seeds ---

/// Every generated program parses, compiles under every build type, and
/// terminates within the fuzz instruction budget. Runs the build+execute
/// stack directly (no oracle overhead) so 200 seeds stay cheap.
#[test]
fn two_hundred_seeds_of_generated_programs_compile_and_terminate() {
    use fex_core::build::MakefileSet;
    use fex_core::runner::{RunContext, Runner, SuiteRunner};

    for index in 0..200 {
        let scenario = Scenario::generate(0xC0FFEE, index);
        for program in &scenario.programs {
            let src = program.source();
            fex_cc::parser::parse(&src).unwrap_or_else(|e| {
                panic!("seed 0xC0FFEE case {index} `{}` does not parse: {e}\n{src}", program.name)
            });
        }
        // All four build types, not just the scenario's sample.
        let cfg = scenario.config().types(gen_all_types()).jobs(1).fault_cleared().repetitions(1);
        let makefiles = MakefileSet::standard();
        let mut log = Vec::new();
        let mut ctx = RunContext::new(&cfg, &makefiles, &mut log);
        let mut runner = SuiteRunner::new(scenario.suite(), &cfg);
        let df = runner
            .run(&mut ctx)
            .unwrap_or_else(|e| panic!("seed 0xC0FFEE case {index} failed the pipeline: {e}"));
        assert!(!df.is_empty(), "seed 0xC0FFEE case {index}: no rows collected");
        assert_eq!(
            ctx.failures.to_csv().lines().count(),
            1,
            "seed 0xC0FFEE case {index}: unexpected failures (budget exhausted?):\n{}",
            ctx.failures.to_csv()
        );
    }
}

fn gen_all_types() -> Vec<&'static str> {
    fuzz::gen::BUILD_TYPES.to_vec()
}

trait ConfigExt {
    fn fault_cleared(self) -> Self;
}
impl ConfigExt for ExperimentConfig {
    fn fault_cleared(mut self) -> Self {
        self.fault = None;
        self
    }
}

// --- oracle soundness and sensitivity ---

/// The CI smoke configuration passes cleanly, and its report renders
/// identically when run twice (determinism).
#[test]
fn seed_42_smoke_cases_pass_all_oracles_deterministically() {
    let (_dir, opts) = small_opts("smoke");
    let opts = FuzzOptions { cases: 6, ..opts };
    let a = fuzz::fuzz(&opts).unwrap();
    assert!(a.ok(), "{}", a.render());
    let b = fuzz::fuzz(&opts).unwrap();
    assert_eq!(a.render(), b.render());
}

/// An armed break-mode mutation is caught by the matching oracle and
/// shrunk to a minimal scenario: one program, one build type, no fault,
/// no thread sweep, fixed single repetition.
#[test]
fn break_mode_is_caught_and_shrunk_minimal() {
    let (_dir, opts) = small_opts("break");
    let opts =
        FuzzOptions { cases: 1, max_shrink: 64, break_mode: Some(BreakMode::Fusion), ..opts };
    let report = fuzz::fuzz(&opts).unwrap();
    assert_eq!(report.failures.len(), 1, "{}", report.render());
    let failure = &report.failures[0];
    assert_eq!(failure.failure.oracle, "toggles", "{}", report.render());
    let shrunk = &failure.shrunk;
    assert_eq!(shrunk.programs.len(), 1, "shrinker should drop extra programs");
    assert_eq!(shrunk.build_types.len(), 1, "shrinker should drop extra build types");
    assert_eq!(shrunk.threads, vec![1], "shrinker should flatten the thread sweep");
    assert_eq!(shrunk.repetitions, Repetitions::Fixed(1));
    assert!(shrunk.fault.is_none(), "shrinker should disarm the fault plan");

    // The repro bundle landed with coordinates and sources.
    let bundle = failure.bundle.as_ref().expect("bundle written");
    let repro = std::fs::read_to_string(bundle.join("repro.txt")).unwrap();
    assert!(repro.contains("oracle: toggles"), "{repro}");
    assert!(repro.contains("fex fuzz --seed 42"), "{repro}");
    let cmm = bundle.join(format!("{}.cmm", shrunk.programs[0].name));
    assert!(cmm.is_file(), "missing {}", cmm.display());
}

/// The jobs break-mode is attributed to the `jobs` oracle, not `toggles`.
#[test]
fn jobs_break_mode_hits_the_jobs_oracle() {
    let (_dir, opts) = small_opts("jobsbreak");
    let opts = FuzzOptions {
        cases: 1,
        max_shrink: 4, // attribution is the point; minimality is covered above
        break_mode: Some(BreakMode::Jobs),
        ..opts
    };
    let report = fuzz::fuzz(&opts).unwrap();
    assert_eq!(report.failures.len(), 1, "{}", report.render());
    assert_eq!(report.failures[0].failure.oracle, "jobs", "{}", report.render());
}

/// The committed regression seeds replay clean — fixed bugs stay fixed.
#[test]
fn committed_regression_seeds_replay_clean() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fuzz_regressions.txt");
    let (_dir, opts) = small_opts("regress");
    let report = fuzz::replay_regressions(&path, &opts).unwrap();
    assert!(report.cases >= 2, "expected the seeded regression entries");
    assert!(report.ok(), "{}", report.render());

    // Malformed files are a data error, not a panic.
    let bad = opts.bundle_dir.join("bad.txt");
    std::fs::write(&bad, "42 not-a-case\n").unwrap();
    assert!(fuzz::replay_regressions(&bad, &opts).is_err());
}

// --- corruption detection / recovery (library level) ---

fn seeded_store(dir: &Path) -> RunStore {
    let store = RunStore::open(dir).unwrap();
    for seed in [1u64, 2] {
        let cfg = ExperimentConfig::new("micro").seed(seed);
        let art = RunArtifacts {
            results_csv:
                "suite,benchmark,type,threads,input,rep,time\nmicro,a,gcc_native,1,test,0,1.5\n",
            failures_csv: "benchmark,type,threads,rep,error,attempts,outcome\n",
            metrics_json: Some("{}"),
            journal_digest: Some(
                "fex256:0000000000000000000000000000000000000000000000000000000000000000",
            ),
        };
        store.save(&cfg, &art).unwrap();
    }
    store
}

/// Every corruption the injector can produce is detected by `check`, and
/// `fsck --quarantine` restores a clean store — without ever panicking
/// the hardened read paths.
#[test]
fn fsck_detects_and_recovers_from_every_injected_corruption() {
    for corruption in Corruption::ALL {
        let dir = temp_dir(&format!("fsck-{corruption}"));
        let store = seeded_store(&dir);
        fsck::inject(&store, corruption).unwrap();

        let report = fsck::check(&store);
        assert!(!report.clean(), "{corruption}: injected damage went undetected");

        // Hardened readers shrug, never panic or hard-fail.
        let (_entries, _warnings) = store.scan();
        store.list().unwrap();

        let repaired = fsck::fsck(&store, true).unwrap();
        assert!(!repaired.clean(), "{corruption}: repair lost the issue report");
        let after = fsck::check(&store);
        assert!(
            after.clean(),
            "{corruption}: store still dirty after quarantine:\n{}",
            after.render()
        );
    }
}

// --- binary exit codes and messages ---

/// The `fex` binary, run in a fresh temp directory unless the test sets
/// its own, so what a command writes under `target/fex-results/` stays
/// out of the source tree and out of the other tests' way.
fn fex_bin() -> CommandIn {
    let mut cmd = CommandIn::new(env!("CARGO_BIN_EXE_fex"), fresh_dir());
    cmd.env_remove("FEX_FUZZ_BREAK");
    cmd
}

/// A new empty directory per call.
fn fresh_dir() -> TempDir {
    static NEXT: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    temp_dir(&format!("cwd-{}", NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)))
}

#[test]
fn fuzz_binary_smoke_is_clean_and_break_mode_fails_with_bundle() {
    let bundle = temp_dir("bin-bundle");
    let bundle_arg = bundle.to_string_lossy().to_string();

    let out = fex_bin()
        .args(["fuzz", "--seed", "42", "--cases", "4", "--bundle", &bundle_arg])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));
    assert!(String::from_utf8_lossy(&out.stdout).contains("passed all oracles"));

    let out = fex_bin()
        .args(["fuzz", "--seed", "42", "--cases", "1", "--bundle", &bundle_arg])
        .env("FEX_FUZZ_BREAK", "fusion")
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stdout));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("FAILED oracle `toggles`"), "{stdout}");
    assert!(stdout.contains("shrunk repro:"), "{stdout}");
    assert!(bundle.join("seed42-case0/repro.txt").is_file(), "{stdout}");
}

/// The VM debug switches and the claim size are library settings, not
/// `fex run` flags: each is a clean configuration error (exit code 1, a
/// message naming the flag, no panic, no partial run).
#[test]
fn removed_debug_flags_exit_one_with_a_clean_message() {
    let cases: [&[&str]; 5] = [
        &["--passes", "none"],
        &["--no-pass", "fuse"],
        &["--no-mru"],
        &["--no-decode-cache"],
        &["--chunk", "8"],
    ];
    for flag in cases {
        let out = fex_bin().args(["run", "-n", "micro"]).args(flag).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{flag:?}: {stderr}");
        let needle = format!("unknown run flag `{}`", flag[0]);
        assert!(stderr.contains(&needle), "{flag:?} stderr missing `{needle}`:\n{stderr}");
    }
}

#[test]
fn fuzz_binary_replays_regressions() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/fuzz_regressions.txt");
    let out = fex_bin().args(["fuzz", "--regressions", path.to_str().unwrap()]).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));
}

/// Satellite 2: `fex compare` against a store whose artifacts were
/// corrupted exits 1 with a message naming the damaged run id.
#[test]
fn compare_against_corrupted_store_exits_one_and_names_the_run() {
    let dir = temp_dir("cmp-corrupt");
    let store = seeded_store(&dir);
    let victim = store.resolve("latest").unwrap();
    fsck::inject(&store, Corruption::TornPack).unwrap();
    let lab = dir.to_string_lossy().to_string();

    let out = fex_bin().args(["compare", "prev", "latest", "--lab", &lab]).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    let short = victim.run_id.trim_start_matches("fex256:");
    assert!(
        stderr.contains(short) || stderr.contains(&victim.run_id),
        "stderr should name the corrupt run id {short}: {stderr}"
    );
    assert!(stderr.contains("fsck"), "stderr should point at fsck: {stderr}");
}

#[test]
fn lab_fsck_binary_detects_and_quarantines() {
    let dir = temp_dir("fsck-bin");
    let store = seeded_store(&dir);
    fsck::inject(&store, Corruption::FlippedPackByte).unwrap();
    let lab = dir.to_string_lossy().to_string();

    let out = fex_bin().args(["lab", "fsck", "--lab", &lab]).output().unwrap();
    assert_eq!(out.status.code(), Some(1), "{}", String::from_utf8_lossy(&out.stdout));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("digest-mismatch"), "{stdout}");
    assert!(String::from_utf8_lossy(&out.stderr).contains("--quarantine"));

    let out = fex_bin().args(["lab", "fsck", "--quarantine", "--lab", &lab]).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stdout));

    let out = fex_bin().args(["lab", "fsck", "--lab", &lab]).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "store should be clean after quarantine");
    assert!(String::from_utf8_lossy(&out.stdout).contains("store is clean"));
}

/// A corrupted index never breaks `fex lab list` — damaged lines are
/// warnings on stderr, survivors still render.
#[test]
fn lab_list_survives_a_corrupted_index() {
    let dir = temp_dir("list-corrupt");
    let store = seeded_store(&dir);
    fsck::inject(&store, Corruption::GarbageIndexLine).unwrap();
    let lab = dir.to_string_lossy().to_string();

    let out = fex_bin().args(["lab", "list", "--lab", &lab]).output().unwrap();
    assert_eq!(out.status.code(), Some(0), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stderr).contains("warning"), "warning surfaced");
    assert_eq!(String::from_utf8_lossy(&out.stdout).matches("fex256:").count(), 2);
}
