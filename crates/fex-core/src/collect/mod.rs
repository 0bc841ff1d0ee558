//! The collect subsystem: turn run results into tabular data.
//!
//! The paper's collect step "parses the log, extracts the measurement
//! results, processes them in a user-specified way, and stores into a CSV
//! table"; [`Collector`] does exactly that over the VM's structured run
//! results, and [`DataFrame`] plays the role of the pandas table.

pub mod frame;
pub mod stats;

pub use frame::{DataFrame, Value};

use fex_vm::{MeasureTool, Measurement, RunResult};

/// Accumulates measurement rows during an experiment.
#[derive(Debug)]
pub struct Collector {
    tool: MeasureTool,
    frame: DataFrame,
}

impl Collector {
    /// Standard experiment columns preceding the metric columns.
    pub const KEY_COLUMNS: [&'static str; 6] =
        ["suite", "benchmark", "type", "threads", "input", "rep"];

    /// Creates a collector for one measurement tool.
    pub fn new(tool: MeasureTool) -> Self {
        let mut columns: Vec<String> = Self::KEY_COLUMNS.iter().map(|s| s.to_string()).collect();
        // Metric columns are fixed per tool so every row has the same
        // shape; probe them from a default measurement.
        columns.extend(metric_names(tool));
        Collector { tool, frame: DataFrame::new(columns) }
    }

    /// The tool this collector extracts with.
    pub fn tool(&self) -> MeasureTool {
        self.tool
    }

    /// Records one run.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &mut self,
        suite: &str,
        benchmark: &str,
        build_type: &str,
        threads: usize,
        input: &str,
        rep: usize,
        run: &RunResult,
    ) {
        let m = Measurement::extract(self.tool, run);
        let mut row: Vec<Value> = vec![
            suite.into(),
            benchmark.into(),
            build_type.into(),
            (threads as i64).into(),
            input.into(),
            (rep as i64).into(),
        ];
        for name in metric_names(self.tool) {
            row.push(Value::Num(m.get(&name).unwrap_or(0.0)));
        }
        self.frame.push(row);
    }

    /// Consumes the collector, returning the assembled frame.
    pub fn into_frame(self) -> DataFrame {
        self.frame
    }

    /// Borrowed view of the frame so far.
    pub fn frame(&self) -> &DataFrame {
        &self.frame
    }
}

/// The canonical scalar sample of one run: the `time` metric as the
/// collector would record it (every tool reports `time`; a missing value
/// records as 0, exactly like [`Collector::record`]).
///
/// The adaptive repetition controller derives its convergence decisions
/// from this one function.
pub fn run_sample(tool: MeasureTool, run: &RunResult) -> f64 {
    Measurement::extract(tool, run).get("time").unwrap_or(0.0)
}

/// Per-group summary statistics of `metric`: one row per distinct key
/// combination (first-appearance order, like
/// [`DataFrame::group_agg`]) with `n`, `mean`, `stddev`, and `ci95`
/// (half-width) columns appended after the keys.
///
/// # Errors
///
/// [`FexError`](crate::FexError) on unknown columns or non-numeric
/// metric cells.
pub fn summarize(df: &DataFrame, keys: &[&str], metric: &str) -> crate::Result<DataFrame> {
    let key_idx: Vec<usize> = keys.iter().map(|k| df.col(k)).collect::<crate::Result<_>>()?;
    let vi = df.col(metric)?;
    let mut groups: std::collections::BTreeMap<Vec<String>, Vec<f64>> =
        std::collections::BTreeMap::new();
    let mut order: Vec<Vec<String>> = Vec::new();
    for r in df.iter() {
        let key: Vec<String> = key_idx.iter().map(|i| r[*i].to_cell_string()).collect();
        let v = r[vi]
            .as_num()
            .ok_or_else(|| crate::FexError::Data(format!("non-numeric `{metric}`")))?;
        if !groups.contains_key(&key) {
            order.push(key.clone());
        }
        groups.entry(key).or_default().push(v);
    }
    let columns: Vec<String> = keys
        .iter()
        .map(|k| k.to_string())
        .chain(["n".into(), "mean".into(), "stddev".into(), "ci95".into()])
        .collect();
    let mut out = DataFrame::new(columns);
    for key in order {
        let vals = &groups[&key];
        let mut row: Vec<Value> = key.into_iter().map(Value::Str).collect();
        row.push(Value::Num(vals.len() as f64));
        row.push(Value::Num(stats::mean(vals)));
        row.push(Value::Num(stats::stddev(vals)));
        row.push(Value::Num(stats::ci95_half_width(vals)));
        out.push(row);
    }
    Ok(out)
}

fn metric_names(tool: MeasureTool) -> Vec<String> {
    match tool {
        MeasureTool::PerfStat => {
            ["instructions", "cycles", "ipc", "branches", "branch_misses", "calls", "time"]
                .iter()
                .map(|s| s.to_string())
                .collect()
        }
        MeasureTool::PerfStatMemory => [
            "loads",
            "stores",
            "l1_accesses",
            "l1_misses",
            "l2_misses",
            "llc_misses",
            "l1_miss_ratio",
            "llc_miss_ratio",
            "time",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect(),
        MeasureTool::Time => {
            ["time", "maxrss_bytes", "heap_allocs", "heap_payload_bytes", "heap_redzone_bytes"]
                .iter()
                .map(|s| s.to_string())
                .collect()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fex_cc::{compile, BuildOptions};
    use fex_vm::{Machine, MachineConfig};

    fn run_trivial() -> RunResult {
        let p = compile("fn main() -> int { return 0; }", &BuildOptions::gcc()).unwrap();
        Machine::new(MachineConfig::default()).run(&p, &[]).unwrap()
    }

    #[test]
    fn collector_builds_well_formed_frames() {
        let mut c = Collector::new(MeasureTool::PerfStat);
        let run = run_trivial();
        c.record("micro", "noop", "gcc_native", 1, "test", 0, &run);
        c.record("micro", "noop", "gcc_native", 1, "test", 1, &run);
        let df = c.into_frame();
        assert_eq!(df.len(), 2);
        assert!(df.columns().iter().any(|c| c == "time"));
        assert!(df.columns().iter().any(|c| c == "instructions"));
        // Keys come first.
        assert_eq!(&df.columns()[..6], &Collector::KEY_COLUMNS);
    }

    #[test]
    fn summarize_appends_group_statistics() {
        let mut df = DataFrame::new(vec!["bench", "type", "time"]);
        for (b, t, v) in
            [("a", "gcc", 1.0), ("a", "gcc", 3.0), ("b", "gcc", 5.0), ("a", "clang", 2.0)]
        {
            df.push(vec![b.into(), t.into(), Value::Num(v)]);
        }
        let s = summarize(&df, &["bench", "type"], "time").unwrap();
        assert_eq!(s.columns(), &["bench", "type", "n", "mean", "stddev", "ci95"]);
        assert_eq!(s.len(), 3, "one row per distinct group");
        let first: Vec<Value> = s.iter().next().unwrap().to_vec();
        assert_eq!(first[2].as_num(), Some(2.0));
        assert_eq!(first[3].as_num(), Some(2.0));
        assert!(summarize(&df, &["bench"], "no_such").is_err());
    }

    #[test]
    fn tools_have_distinct_metric_sets() {
        let perf = Collector::new(MeasureTool::PerfStat);
        let mem = Collector::new(MeasureTool::PerfStatMemory);
        let time = Collector::new(MeasureTool::Time);
        assert!(perf.frame().columns().iter().any(|c| c == "ipc"));
        assert!(mem.frame().columns().iter().any(|c| c == "llc_misses"));
        assert!(time.frame().columns().iter().any(|c| c == "maxrss_bytes"));
    }
}
