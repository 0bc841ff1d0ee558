//! Fault injection and resilient execution: a persistently-trapping
//! benchmark is quarantined while the rest of the suite completes, a
//! transient fault is absorbed by retries, and disabled injection is
//! byte-identical to a plain run.
//!
//! ```text
//! cargo run --example fault_injection
//! ```

use fex_core::config::{ExperimentConfig, FaultInjection};
use fex_core::diag::{run_diag, JournalSource};
use fex_core::{DiagConfig, DiagCtx, Fex, RunPolicy};
use fex_vm::{FaultKind, FaultPlan};

fn main() {
    // 1. Clean baseline run.
    let mut fex = Fex::new();
    fex.install("gcc-6.1").unwrap();
    fex.install("phoenix_inputs").unwrap();
    let clean = ExperimentConfig::new("phoenix").types(vec!["gcc_native"]);
    let df = fex.run(&clean).unwrap();
    println!("clean: {} rows", df.len());
    let clean_csv = fex.result_csv("phoenix").unwrap();
    println!("clean failure report: {}", fex.failure_report("phoenix").unwrap().summary());

    // 2. Same experiment with kmeans persistently trapping.
    let mut fex2 = Fex::new();
    fex2.install("gcc-6.1").unwrap();
    fex2.install("phoenix_inputs").unwrap();
    let faulty = ExperimentConfig::new("phoenix")
        .types(vec!["gcc_native"])
        .fault(FaultInjection::for_benchmark("kmeans", FaultPlan::persistent(FaultKind::Trap)));
    let df = fex2.run(&faulty).unwrap();
    println!("faulty: {} rows (partial frame, run did NOT abort)", df.len());
    let report = fex2.failure_report("phoenix").unwrap();
    println!("faulty failure report: {}", report.summary());
    println!("quarantined: {:?}", report.quarantined_benchmarks());
    println!("--- failures.csv ---");
    print!("{}", fex2.failure_csv("phoenix").unwrap());
    println!("--------------------");
    // The CI gate: `fex diag`'s flakiness rule at its fixed thresholds.
    let journal = JournalSource::parse("phoenix", &fex2.journal_jsonl("phoenix").unwrap());
    let ctx = DiagCtx { journal: Some(journal), store: None, config: DiagConfig::default() };
    for finding in run_diag(&ctx).findings.iter().filter(|f| f.rule == "flakiness") {
        println!("strict CI gate: {}", finding.message);
    }

    // 3. Injection disabled must be byte-identical to no injection.
    let mut fex3 = Fex::new();
    fex3.install("gcc-6.1").unwrap();
    fex3.install("phoenix_inputs").unwrap();
    let disabled = ExperimentConfig::new("phoenix")
        .types(vec!["gcc_native"])
        .fault(FaultInjection::everywhere(FaultPlan::none()))
        .resilience(RunPolicy::default().retries(5));
    fex3.run(&disabled).unwrap();
    let disabled_csv = fex3.result_csv("phoenix").unwrap();
    println!("disabled injection byte-identical to clean: {}", disabled_csv == clean_csv);

    // 4. Transient fault: recovers via retry, numbers intact.
    let mut fex4 = Fex::new();
    fex4.install("gcc-6.1").unwrap();
    fex4.install("phoenix_inputs").unwrap();
    let transient = ExperimentConfig::new("phoenix")
        .types(vec!["gcc_native"])
        .fault(FaultInjection::everywhere(FaultPlan::spurious(0.5, FaultKind::Trap, 4)));
    let rows = fex4.run(&transient).unwrap().len();
    let report = fex4.failure_report("phoenix").unwrap();
    println!(
        "transient: {} rows, retry_rate {:.2}, quarantined {:?}",
        rows,
        report.retry_rate(),
        report.quarantined_benchmarks()
    );
}
