//! The plot subsystem — the framework's matplotlib substitute.
//!
//! Provides the five generic plot kinds Table I lists (lineplot, regular /
//! stacked / grouped / stacked-grouped barplot) plus the throughput-latency
//! scatterline of Fig 7, each renderable to SVG (for files) and ASCII (for
//! terminals). Like the paper's plot stage, input is the collected
//! [`DataFrame`] and per-plot hooks are just ordinary Rust: build the
//! [`Plot`] value however you like before rendering.
//!
//! [`DataFrame`]: crate::collect::DataFrame

mod ascii;
mod svg;

use crate::collect::{stats, DataFrame, Value};
use crate::error::{FexError, Result};

/// Plot flavours (Table I row "Plots", plus the Fig 7 scatterline).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlotKind {
    /// One bar per category per series, side by side.
    Bar,
    /// Series stacked on top of each other per category.
    StackedBar,
    /// Series grouped per category (synonym of `Bar` with >1 series, kept
    /// as a distinct kind to mirror Table I).
    GroupedBar,
    /// Groups of stacks: series carry a `stack` label; stacks are grouped
    /// per category.
    StackedGroupedBar,
    /// X-Y lines (e.g. thread-count scaling).
    Line,
    /// X-Y lines with point markers (throughput-latency curves).
    ScatterLine,
    /// Grouped bars with 95% CI whiskers — the `fex compare`
    /// baseline-vs-candidate comparison plot.
    GroupedBarCi,
}

/// One plotted series.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// Y values (per category for bar kinds, per x for line kinds).
    pub values: Vec<f64>,
    /// X values for line kinds (`None` for bar kinds).
    pub xs: Option<Vec<f64>>,
    /// Stack group for [`PlotKind::StackedGroupedBar`].
    pub stack: Option<String>,
    /// Per-value error-bar half-widths (e.g. 95% CI) for
    /// [`PlotKind::GroupedBarCi`]; `None` draws no whiskers.
    pub whiskers: Option<Vec<f64>>,
}

impl Series {
    /// A bar series.
    pub fn bars(name: impl Into<String>, values: Vec<f64>) -> Self {
        Series { name: name.into(), values, xs: None, stack: None, whiskers: None }
    }

    /// A bar series with error-bar half-widths per value.
    pub fn bars_with_ci(name: impl Into<String>, values: Vec<f64>, whiskers: Vec<f64>) -> Self {
        Series { name: name.into(), values, xs: None, stack: None, whiskers: Some(whiskers) }
    }

    /// A line series.
    pub fn line(name: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        let (xs, values) = points.into_iter().unzip();
        Series { name: name.into(), values, xs: Some(xs), stack: None, whiskers: None }
    }
}

/// A complete plot description.
#[derive(Debug, Clone, PartialEq)]
pub struct Plot {
    /// Title.
    pub title: String,
    /// X axis label.
    pub xlabel: String,
    /// Y axis label.
    pub ylabel: String,
    /// Kind.
    pub kind: PlotKind,
    /// Category labels (bar kinds).
    pub categories: Vec<String>,
    /// The series.
    pub series: Vec<Series>,
    /// Optional horizontal reference line (e.g. 1.0 for normalised plots).
    pub hline: Option<f64>,
}

impl Plot {
    /// Creates an empty plot of a kind.
    pub fn new(kind: PlotKind, title: impl Into<String>) -> Self {
        Plot {
            title: title.into(),
            xlabel: String::new(),
            ylabel: String::new(),
            kind,
            categories: Vec::new(),
            series: Vec::new(),
            hline: None,
        }
    }

    /// Renders to SVG.
    pub fn to_svg(&self) -> String {
        svg::render(self, 760, 420)
    }

    /// Renders to terminal-friendly ASCII.
    pub fn to_ascii(&self) -> String {
        ascii::render(self)
    }

    /// Largest plotted value (for scaling); 0 for empty plots.
    pub(crate) fn max_value(&self) -> f64 {
        match self.kind {
            PlotKind::StackedBar | PlotKind::StackedGroupedBar => {
                // Height of the tallest stack.
                let mut totals = std::collections::BTreeMap::new();
                for s in &self.series {
                    for (i, v) in s.values.iter().enumerate() {
                        let key = (s.stack.clone().unwrap_or_default(), i);
                        *totals.entry(key).or_insert(0.0) += *v;
                    }
                }
                totals.values().copied().fold(0.0, f64::max)
            }
            PlotKind::GroupedBarCi => {
                // Whiskers must fit inside the plot area.
                self.series
                    .iter()
                    .flat_map(|s| {
                        s.values.iter().enumerate().map(move |(i, v)| {
                            v + s.whiskers.as_ref().and_then(|w| w.get(i)).copied().unwrap_or(0.0)
                        })
                    })
                    .fold(0.0, f64::max)
            }
            _ => self.series.iter().flat_map(|s| s.values.iter().copied()).fold(0.0, f64::max),
        }
        .max(self.hline.unwrap_or(0.0))
    }
}

/// Builds a bar plot from a frame: one category per distinct
/// `category_col` value, one series per distinct `series_col` value, bar
/// heights from the mean of `value_col`.
///
/// # Errors
///
/// [`FexError::Data`] for unknown columns, an empty frame, or a bar
/// height that is negative or not finite.
pub fn barplot_from_frame(
    df: &DataFrame,
    category_col: &str,
    series_col: &str,
    value_col: &str,
    title: &str,
) -> Result<Plot> {
    if df.is_empty() {
        return Err(FexError::Data("cannot plot an empty frame".into()));
    }
    let categories = df.distinct(category_col)?;
    let series_names = df.distinct(series_col)?;
    let agg = df.group_agg(&[category_col, series_col], value_col, stats::mean)?;
    let mut plot =
        Plot::new(if series_names.len() > 1 { PlotKind::GroupedBar } else { PlotKind::Bar }, title);
    plot.categories = categories.clone();
    plot.xlabel = category_col.to_string();
    plot.ylabel = value_col.to_string();
    for sname in &series_names {
        let mut values = Vec::with_capacity(categories.len());
        for cat in &categories {
            let cell = agg.filter_eq(category_col, cat)?.filter_eq(series_col, sname)?;
            let v = cell.iter().next().and_then(|r| r[2].as_num()).unwrap_or(0.0);
            values.push(bar_height(v, cat, sname)?);
        }
        plot.series.push(Series::bars(sname.clone(), values));
    }
    Ok(plot)
}

/// Refuses a frame whose `col` holds a cell no bar can show — a negative
/// number, NaN or ±inf — naming the column and the row.
pub(crate) fn check_bar_cells(df: &DataFrame, col: &str) -> Result<()> {
    let ci = df.col(col)?;
    let drawable = |v: f64| v.is_finite() && v >= 0.0;
    match df.iter().map(|r| &r[ci]).enumerate().find(|(_, c)| !c.as_num().is_none_or(drawable)) {
        Some((row, cell)) => Err(FexError::Data(format!(
            "column `{col}`, row {}: `{cell}` cannot be drawn as a bar",
            row + 1
        ))),
        None => Ok(()),
    }
}

/// A bar's height, refused when negative or not finite (a mean or ratio
/// of huge cells can overflow).
pub(crate) fn bar_height(v: f64, category: &str, series: &str) -> Result<f64> {
    if v.is_finite() && v >= 0.0 {
        Ok(v)
    } else {
        Err(FexError::Data(format!("the `{series}` bar of `{category}` has height `{v}`")))
    }
}

/// The x coordinate of a line plot's cell: its number, or a string cell
/// parsed as one (0 when it is not a number).
fn x_value(cell: &Value) -> f64 {
    cell.as_num().unwrap_or_else(|| cell.to_cell_string().parse().unwrap_or(0.0))
}

/// Builds a line plot (x = `x_col`, one line per `series_col`, y = mean of
/// `value_col`).
///
/// # Errors
///
/// [`FexError::Data`] for unknown columns, an empty frame, or an `x_col`
/// cell that is NaN (the error names the column and the 1-based row).
pub fn lineplot_from_frame(
    df: &DataFrame,
    x_col: &str,
    series_col: &str,
    value_col: &str,
    title: &str,
) -> Result<Plot> {
    if df.is_empty() {
        return Err(FexError::Data("cannot plot an empty frame".into()));
    }
    let xi = df.col(x_col)?;
    if let Some((row, cell)) =
        df.iter().map(|r| &r[xi]).enumerate().find(|(_, c)| x_value(c).is_nan())
    {
        return Err(FexError::Data(format!(
            "column `{x_col}`, row {}: `{cell}` is not a number",
            row + 1
        )));
    }
    let series_names = df.distinct(series_col)?;
    let agg = df.group_agg(&[series_col, x_col], value_col, stats::mean)?;
    let mut plot = Plot::new(PlotKind::Line, title);
    plot.xlabel = x_col.to_string();
    plot.ylabel = value_col.to_string();
    for sname in &series_names {
        let sub = agg.filter_eq(series_col, sname)?;
        let mut pts: Vec<(f64, f64)> =
            sub.iter().map(|r| (x_value(&r[1]), r[2].as_num().unwrap_or(0.0))).collect();
        pts.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("NaN x values are rejected above"));
        plot.series.push(Series::line(sname.clone(), pts));
    }
    Ok(plot)
}

/// Normalises `value_col` of every row against the per-category value of
/// the `baseline` series (the paper's "normalized runtime w.r.t. native
/// GCC" transformation for Fig 6). Returns a new frame with the same key
/// columns and a normalised value column.
///
/// # Errors
///
/// [`FexError::Data`] if columns are missing, a `value_col` cell cannot
/// be drawn as a bar (see [`barplot_from_frame`]), or the baseline has no
/// value for some category.
pub fn normalize_against(
    df: &DataFrame,
    category_col: &str,
    series_col: &str,
    value_col: &str,
    baseline: &str,
) -> Result<DataFrame> {
    check_bar_cells(df, value_col)?;
    let agg = df.group_agg(&[category_col, series_col], value_col, stats::mean)?;
    let base = agg.filter_eq(series_col, baseline)?;
    let mut base_by_cat = std::collections::BTreeMap::new();
    for r in base.iter() {
        base_by_cat.insert(r[0].to_cell_string(), r[2].as_num().unwrap_or(0.0));
    }
    let mut out = DataFrame::new(vec![
        category_col.to_string(),
        series_col.to_string(),
        format!("normalized_{value_col}"),
    ]);
    for r in agg.iter() {
        let cat = r[0].to_cell_string();
        let b = *base_by_cat
            .get(&cat)
            .ok_or_else(|| FexError::Data(format!("no baseline value for `{cat}`")))?;
        if b == 0.0 {
            return Err(FexError::Data(format!("zero baseline for `{cat}`")));
        }
        let v = r[2].as_num().unwrap_or(0.0) / b;
        out.push(vec![r[0].clone(), r[1].clone(), v.into()]);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::Value;

    fn perf_frame() -> DataFrame {
        let mut df = DataFrame::new(vec!["benchmark", "type", "time"]);
        for (b, t, v) in [
            ("fft", "gcc_native", 1.0),
            ("fft", "clang_native", 2.0),
            ("lu", "gcc_native", 2.0),
            ("lu", "clang_native", 2.2),
        ] {
            df.push(vec![b.into(), t.into(), v.into()]);
        }
        df
    }

    #[test]
    fn barplot_builder_shapes_series() {
        let p = barplot_from_frame(&perf_frame(), "benchmark", "type", "time", "t").unwrap();
        assert_eq!(p.kind, PlotKind::GroupedBar);
        assert_eq!(p.categories, vec!["fft", "lu"]);
        assert_eq!(p.series.len(), 2);
        assert_eq!(p.series[0].values, vec![1.0, 2.0]);
    }

    #[test]
    fn normalisation_reproduces_fig6_semantics() {
        let n =
            normalize_against(&perf_frame(), "benchmark", "type", "time", "gcc_native").unwrap();
        // gcc rows normalise to 1.0; clang fft to 2.0.
        let clang_fft =
            n.filter_eq("type", "clang_native").unwrap().filter_eq("benchmark", "fft").unwrap();
        assert_eq!(clang_fft.iter().next().unwrap()[2], Value::Num(2.0));
        let gcc_lu =
            n.filter_eq("type", "gcc_native").unwrap().filter_eq("benchmark", "lu").unwrap();
        assert_eq!(gcc_lu.iter().next().unwrap()[2], Value::Num(1.0));
    }

    #[test]
    fn lineplot_sorts_points_by_x() {
        let mut df = DataFrame::new(vec!["threads", "type", "time"]);
        for (m, v) in [(4i64, 0.3), (1, 1.0), (2, 0.55)] {
            df.push(vec![m.into(), "gcc".into(), v.into()]);
        }
        let p = lineplot_from_frame(&df, "threads", "type", "time", "scaling").unwrap();
        assert_eq!(p.series[0].xs.as_ref().unwrap(), &vec![1.0, 2.0, 4.0]);
        assert_eq!(p.series[0].values, vec![1.0, 0.55, 0.3]);
    }

    #[test]
    fn stacked_max_is_stack_height() {
        let mut p = Plot::new(PlotKind::StackedBar, "s");
        p.categories = vec!["a".into()];
        p.series.push(Series::bars("l1", vec![2.0]));
        p.series.push(Series::bars("l2", vec![3.0]));
        assert_eq!(p.max_value(), 5.0);
    }

    #[test]
    fn ci_whiskers_extend_the_value_range() {
        let mut p = Plot::new(PlotKind::GroupedBarCi, "c");
        p.categories = vec!["a".into(), "b".into()];
        p.series.push(Series::bars_with_ci("base", vec![2.0, 4.0], vec![0.5, 1.5]));
        p.series.push(Series::bars("cand", vec![3.0]));
        assert_eq!(p.max_value(), 5.5, "value + whisker half-width");
    }

    #[test]
    fn empty_frames_are_rejected() {
        let df = DataFrame::new(vec!["benchmark", "type", "time"]);
        assert!(barplot_from_frame(&df, "benchmark", "type", "time", "t").is_err());
        assert!(lineplot_from_frame(&df, "benchmark", "type", "time", "t").is_err());
    }
}
