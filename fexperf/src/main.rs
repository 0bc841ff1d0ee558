//! fex's end-to-end benchmark.
//!
//! ```text
//! cargo run --release --manifest-path fexperf/Cargo.toml -- \
//!     --workload <cold_matrix|edit_loop|serve_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints diagnostics to stderr and, as the last line of stdout, one JSON
//! object: `correct`, `attempted`, `failed` and `metrics` (the end-to-end
//! metrics, or with `--trace 1` the per-layer ones). See `README.md`.

mod calib;
mod matrix;
mod seq;
mod serve_mix;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};

use stats::median;
use workloads::{Args, Metric, Run};

/// Scratch root, relative to the working directory; each run uses a
/// subdirectory named after its process id and removes it.
const WORK_ROOT: &str = ".fexperf-work";

/// Period of the background calibration samples.
const SAMPLE_PERIOD: std::time::Duration = std::time::Duration::from_millis(50);

fn main() {
    if let Err(e) = run() {
        eprintln!("fexperf: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    // Flush what earlier runs left for writeback, so it does not compete
    // with this run's I/O: serve_mix writes thousands of lab files a run.
    let _ = std::process::Command::new("sync").status();
    let work = Path::new(WORK_ROOT).join(std::process::id().to_string());
    matrix::reset(&work).map_err(|e| e.to_string())?;
    let a = Args { seed, seconds, trace, work: work.clone() };
    let sampler = calib::Sampler::start(SAMPLE_PERIOD);
    let result = match workload.as_str() {
        "cold_matrix" => workloads::cold_matrix(&a),
        "edit_loop" => workloads::edit_loop(&a),
        "serve_mix" => workloads::serve_mix(&a),
        other => Err(format!("unknown workload {other}")),
    };
    drop(sampler);
    cleanup(&work);
    let run = result?;
    report(&workload, &run)
}

fn cleanup(work: &PathBuf) {
    let _ = std::fs::remove_dir_all(work);
    // Removes the root only when no other run is using it.
    let _ = std::fs::remove_dir(WORK_ROOT);
}

/// `VmHWM` of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn report(workload: &str, run: &Run) -> Result<(), String> {
    if run.ops.is_empty() {
        return Err("no op completed".into());
    }
    let calibrated: Vec<f64> = run.ops.iter().map(calib::Timed::ms).collect();
    let raw: Vec<f64> = run.ops.iter().map(|t| t.raw_ms).collect();
    let kernel: Vec<f64> = run.ops.iter().map(|t| t.calib_ms).collect();
    let setup_s: Vec<f64> = run.setup.iter().map(|t| t.ms() / 1e3).collect();
    let end_to_end: Vec<Metric> = vec![
        ("setup_s", median(&setup_s), "s"),
        ("op_p50_ms", median(&calibrated), "ms"),
        ("ops_per_s", run.ops_per_s, "1/s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
    ];
    eprintln!(
        "{workload}: {} ops, op_p50_ms {:.3} calibrated / {:.3} raw (host.op_raw_p50_ms), \
         host.calib_ms {:.4}, setup_s raw {:.3}",
        run.ops.len(),
        median(&calibrated),
        median(&raw),
        median(&kernel),
        median(&run.setup.iter().map(|t| t.raw_ms / 1e3).collect::<Vec<_>>()),
    );
    if let Some(p) = stats::tail_percentile(calibrated.len()) {
        eprintln!("{workload}: op p{p} {:.3} ms", stats::percentile(&calibrated, p));
    }
    let first: Vec<String> =
        run.ops.iter().take(12).map(|t| format!("{:.1}/{:.3}", t.raw_ms, t.calib_ms)).collect();
    eprintln!("{workload}: first ops raw_ms/calib_ms: {}", first.join(" "));
    for problem in &run.problems {
        eprintln!("{workload}: FAILED {problem}");
    }
    let metrics = if run.layers.is_empty() { &end_to_end } else { &run.layers };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed == 0,
        run.attempted,
        run.failed,
        body.join(", ")
    );
    Ok(())
}
