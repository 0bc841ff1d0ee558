//! Fig 6: "Example of Clang-GCC comparison produced by FEX and tested on
//! SPLASH-3" — normalized runtime of Clang builds w.r.t. native GCC, one
//! bar per benchmark plus the `All` geometric mean.

use fex_core::collect::stats;
use fex_core::plot::normalize_against;
use fex_core::{ExperimentConfig, Fex, PlotRequest, Result};
use fex_suites::InputSize;

use super::result_csv;
use crate::{print_frame, write_artifact};

pub(super) fn run(fex: &mut Fex) -> Result<()> {
    // `fex.py run -n splash -t gcc_native clang_native`
    let config = ExperimentConfig::new("splash")
        .types(vec!["gcc_native", "clang_native"])
        .input(InputSize::Native)
        .repetitions(3);
    let frame = fex.run(&config)?.clone();

    println!("FIG 6: SPLASH-3 normalized runtime (w.r.t. native GCC)\n");
    let norm = normalize_against(&frame, "benchmark", "type", "time", "gcc_native")?;
    let clang = norm.filter_eq("type", "clang_native")?;
    print_frame(&clang);
    let ratios: Vec<f64> = clang.iter().filter_map(|r| r[2].as_num()).collect();
    println!(
        "{:<16} {:>10.3}   <- the paper's `All` bar (geometric mean)",
        "All",
        stats::geomean(&ratios)
    );

    let plot = fex.plot("splash", PlotRequest::Perf)?;
    println!("\n{}", plot.to_ascii());
    write_artifact("fig6_splash.svg", &plot.to_svg())?;
    write_artifact("fig6_splash.csv", &result_csv(fex, "splash")?)
}
