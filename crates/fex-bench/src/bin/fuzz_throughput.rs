//! Throughput of the `fex fuzz` oracle harness: how many full
//! generate→run×5→check cases the fuzzer clears per second, and how the
//! time splits between a plain pipeline run and the full oracle stack.
//! This bounds what a CI smoke budget buys (cases per minute) and guards
//! against the oracle harness itself regressing into the noise floor.
//!
//! `cargo run --release -p fex-bench --bin fuzz_throughput [-- --smoke]`

use std::time::Instant;

use fex_bench::write_artifact;
use fex_core::fuzz::{self, FuzzOptions, Scenario};

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let cases = if smoke { 5 } else { 50 };

    // Generation alone: scenarios per second (no pipeline).
    let t0 = Instant::now();
    let gen_n = if smoke { 1_000 } else { 20_000 };
    let mut stmts = 0usize;
    for i in 0..gen_n {
        let s = Scenario::generate(7, i);
        stmts += s.programs.iter().map(|p| p.source().lines().count()).sum::<usize>();
    }
    let gen_secs = t0.elapsed().as_secs_f64();
    println!(
        "generate: {gen_n} scenarios in {gen_secs:.3}s ({:.0}/s, {stmts} source lines)",
        gen_n as f64 / gen_secs
    );

    // Full oracle harness: cases per second end to end.
    let opts = FuzzOptions {
        seed: 42,
        cases,
        bundle_dir: std::env::temp_dir().join(format!("fex-fuzz-bench-{}", std::process::id())),
        ..FuzzOptions::default()
    };
    let t1 = Instant::now();
    let report = fuzz::fuzz(&opts).expect("fuzz run");
    let oracle_secs = t1.elapsed().as_secs_f64();
    assert!(report.ok(), "bench seed must be clean:\n{}", report.render());
    let per_sec = cases as f64 / oracle_secs;
    println!(
        "oracle harness: {cases} cases in {oracle_secs:.3}s ({per_sec:.1} cases/s, \
         ~{:.0} cases/min of CI budget)",
        per_sec * 60.0
    );
    let _ = std::fs::remove_dir_all(&opts.bundle_dir);

    write_artifact(
        "BENCH_fuzz.json",
        &format!(
            "{{\"generate_per_sec\": {:.1}, \"oracle_cases\": {cases}, \
             \"oracle_secs\": {oracle_secs:.4}, \"oracle_cases_per_sec\": {per_sec:.2}}}\n",
            gen_n as f64 / gen_secs
        ),
    )
    .expect("can write artifact");
    println!("fuzz throughput: OK");
}
