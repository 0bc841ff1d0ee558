//! Runs the paper plan — every table/figure regenerator, in order, on one
//! `Fex` — the one-shot reproduction driver referenced by EXPERIMENTS.md.
//! Entry names given as arguments run only those entries (still in plan
//! order); an unknown name exits 1 before anything runs.
//!
//! `cargo run --release -p fex-bench --bin all_experiments [-- <entry>...]`

use fex_bench::fex_with_standard_setup;
use fex_bench::plan::PLAN;

fn main() {
    let names: Vec<String> = std::env::args().skip(1).collect();
    if let Some(unknown) = names.iter().find(|n| PLAN.iter().all(|(name, _)| name != n)) {
        let valid = PLAN.map(|(name, _)| name).join(" ");
        eprintln!("all_experiments: unknown entry `{unknown}`; valid: {valid}");
        std::process::exit(1);
    }
    let mut fex = fex_with_standard_setup();
    let mut failures = Vec::new();
    for (name, run) in PLAN {
        if !names.is_empty() && !names.iter().any(|n| n == name) {
            continue;
        }
        println!("\n################################################################");
        println!("### {name}");
        println!("################################################################\n");
        if let Err(e) = run(&mut fex) {
            eprintln!("{name}: {e}");
            failures.push(name);
        }
    }
    if failures.is_empty() {
        let which = if names.is_empty() { "all" } else { "selected" };
        println!("\n{which} experiments regenerated; artifacts in target/fex-results/");
    } else {
        eprintln!("\nFAILED: {failures:?}");
        std::process::exit(1);
    }
}
