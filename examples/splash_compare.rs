//! The §IV-A case study: compare Clang against GCC on SPLASH-3 (Fig 6).
//!
//! ```text
//! >> fex.py run -n splash -t gcc_native clang_native
//! ```
//!
//! Prints the normalized-runtime table and writes the Fig 6 barplot to
//! `target/fex-results/splash_compare.svg`, beside the paper plan's
//! `fig6_splash.svg` (native inputs, 3 repetitions) rather than over it.
//! Run with: `cargo run --release --example splash_compare`

use fex_core::collect::stats;
use fex_core::plot::normalize_against;
use fex_core::{ExperimentConfig, Fex, PlotRequest};
use fex_suites::InputSize;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut fex = Fex::new();
    fex.install("gcc-6.1")?;
    fex.install("clang-3.8")?;
    fex.install("splash_inputs")?;

    let config = ExperimentConfig::new("splash")
        .types(vec!["gcc_native", "clang_native"])
        .input(InputSize::Small)
        .repetitions(2);
    let frame = fex.run(&config)?;

    // Normalised runtimes, Fig 6 style.
    let norm = normalize_against(frame, "benchmark", "type", "time", "gcc_native")?;
    println!("normalized runtime w.r.t. native GCC:");
    let clang = norm.filter_eq("type", "clang_native")?;
    let mut ratios = Vec::new();
    for row in clang.iter() {
        let bench = row[0].to_cell_string();
        let ratio = row[2].as_num().unwrap_or(0.0);
        ratios.push(ratio);
        println!("  {bench:<16} {ratio:>6.3}x");
    }
    println!(
        "  {:<16} {:>6.3}x  (geometric mean, the paper's `All` bar)",
        "All",
        stats::geomean(&ratios)
    );

    let plot = fex.plot("splash", PlotRequest::Perf)?;
    println!("\n{}", plot.to_ascii());
    let out = std::path::Path::new("target/fex-results");
    std::fs::create_dir_all(out)?;
    std::fs::write(out.join("splash_compare.svg"), plot.to_svg())?;
    println!("wrote target/fex-results/splash_compare.svg");
    Ok(())
}
