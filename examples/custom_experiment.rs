//! Extensibility walkthrough (§III-A): add a brand-new benchmark, a new
//! build type and a custom experiment — the end-user effort the paper's
//! case studies quantify in LoC.
//!
//! Everything here is ordinary user code against the public API:
//!   1. a new benchmark program (Cmm source),
//!   2. a new type-specific "makefile" layer (`gcc_o0`, ~6 lines),
//!   3. a custom runner usage via the library's building blocks.
//!
//! Run with: `cargo run --release --example custom_experiment`

use fex_core::build::{Assign, MakeLayer, MakefileSet};
use fex_core::collect::{stats, DataFrame};
use fex_core::plot::{barplot_from_frame, normalize_against};
use fex_vm::{Machine, MachineConfig, MeasureTool, Measurement, PassMask};

/// (1) The new benchmark: a string-reversal microbenchmark.
const REVERSE: &str = r#"
global buf;

fn main(n) -> int {
  buf = alloc(n + 8);
  var i = 0;
  while (i < n) { storeb(buf + i, 97 + i % 26); i += 1; }
  storeb(buf + n, 0);
  var passes = 0;
  while (passes < 8) {
    var lo = 0;
    var hi = n - 1;
    while (lo < hi) {
      var t = loadb(buf + lo);
      storeb(buf + lo, loadb(buf + hi));
      storeb(buf + hi, t);
      lo += 1;
      hi -= 1;
    }
    passes += 1;
  }
  var check = loadb(buf) * 256 + loadb(buf + n - 1);
  print_int(check);
  return check;
}
"#;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // (2) Register a new build type: unoptimised gcc. This is the whole
    // "compiler-specific makefile" of the paper's case studies.
    let mut makefiles = MakefileSet::standard();
    makefiles.add(MakeLayer {
        name: "gcc_o0".into(),
        include: Some("gcc_native".into()),
        vars: vec![("CFLAGS".into(), Assign::Set, "-O0".into())],
    });

    // (3) A hand-rolled experiment loop over the new benchmark.
    let mut df = DataFrame::new(vec!["benchmark", "type", "time"]);
    for ty in ["gcc_native", "gcc_o0", "clang_native"] {
        let debug = ty.ends_with("_o0");
        let artifact = makefiles.build("reverse", REVERSE, ty, debug, PassMask::all())?;
        for _rep in 0..3 {
            let machine = Machine::new(MachineConfig::default());
            let run = machine.load(&artifact.program).run_entry(&[20_000])?;
            let m = Measurement::extract(MeasureTool::PerfStat, &run);
            df.push(vec!["reverse".into(), ty.into(), m.get("time").unwrap_or(0.0).into()]);
        }
    }

    let norm = normalize_against(&df, "benchmark", "type", "time", "gcc_native")?;
    println!("custom benchmark, normalized runtime w.r.t. gcc -O2:");
    for row in norm.iter() {
        println!("  {:<14} {:>7.3}x", row[1].to_cell_string(), row[2].as_num().unwrap_or(0.0));
    }

    let agg = df.group_agg(&["type"], "time", stats::mean)?;
    let plot = barplot_from_frame(&agg, "type", "type", "time", "custom experiment")?;
    println!("\n{}", plot.to_ascii());
    Ok(())
}
