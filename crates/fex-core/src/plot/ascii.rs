//! ASCII rendering, for watching intermediate results in a terminal (the
//! paper lists a GUI as future work; a terminal renderer is the pragmatic
//! equivalent).

use std::fmt::Write as _;

use super::{Plot, PlotKind};

const BAR_WIDTH: usize = 44;
const GRID_W: usize = 60;
const GRID_H: usize = 16;

/// Renders a plot as monospace text.
pub fn render(plot: &Plot) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "== {} ==", plot.title);
    if !plot.ylabel.is_empty() {
        let _ = writeln!(s, "   ({})", plot.ylabel);
    }
    match plot.kind {
        PlotKind::Line | PlotKind::ScatterLine => render_grid(&mut s, plot),
        _ => render_bars(&mut s, plot),
    }
    s
}

fn render_bars(s: &mut String, plot: &Plot) {
    let max = plot.max_value().max(1e-12);
    let label_w = plot
        .categories
        .iter()
        .map(|c| c.len())
        .chain(plot.series.iter().map(|x| x.name.len()))
        .max()
        .unwrap_or(8)
        .min(24);
    for (ci, cat) in plot.categories.iter().enumerate() {
        for series in &plot.series {
            let v = series.values.get(ci).copied().unwrap_or(0.0);
            // A bar can outgrow the scale when other values are negative
            // (a stack's total, the scale, is then below its parts).
            let n = (((v / max) * BAR_WIDTH as f64).round() as usize).min(BAR_WIDTH);
            let tag = if plot.series.len() > 1 {
                format!("{cat:label_w$} {:label_w$}", series.name)
            } else {
                format!("{cat:label_w$}")
            };
            let whisker = series
                .whiskers
                .as_ref()
                .and_then(|w| w.get(ci))
                .copied()
                .filter(|hw| plot.kind == PlotKind::GroupedBarCi && *hw > 0.0)
                .map(|hw| format!(" ±{hw:.4}"))
                .unwrap_or_default();
            let _ = writeln!(
                s,
                "{tag} |{}{} {v:.4}{whisker}",
                "#".repeat(n),
                " ".repeat(BAR_WIDTH - n)
            );
        }
    }
    if let Some(hl) = plot.hline {
        let _ = writeln!(s, "(reference line at {hl})");
    }
}

fn render_grid(s: &mut String, plot: &Plot) {
    let mut grid = vec![vec![' '; GRID_W]; GRID_H];
    let xs: Vec<f64> = plot.series.iter().flat_map(|x| x.xs.clone().unwrap_or_default()).collect();
    if xs.is_empty() {
        let _ = writeln!(s, "(no data)");
        return;
    }
    let min_x = xs.iter().copied().fold(f64::INFINITY, f64::min);
    let max_x = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let span = (max_x - min_x).max(1e-12);
    let max_y = plot.max_value().max(1e-12);
    let marks = ['*', 'o', '+', 'x', '@', '%'];
    for (si, series) in plot.series.iter().enumerate() {
        let Some(sxs) = &series.xs else { continue };
        for (x, y) in sxs.iter().zip(&series.values) {
            let gx = (((x - min_x) / span) * (GRID_W - 1) as f64).round() as usize;
            let gy = ((y / max_y) * (GRID_H - 1) as f64).round() as usize;
            let row = GRID_H - 1 - gy.min(GRID_H - 1);
            grid[row][gx.min(GRID_W - 1)] = marks[si % marks.len()];
        }
    }
    for row in &grid {
        let _ = writeln!(s, "|{}", row.iter().collect::<String>());
    }
    let _ = writeln!(s, "+{}", "-".repeat(GRID_W));
    let _ = writeln!(s, " {:<.3} .. {:<.3}  ({})", min_x, max_x, plot.xlabel);
    for (si, series) in plot.series.iter().enumerate() {
        let _ = writeln!(s, "  {} = {}", marks[si % marks.len()], series.name);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plot::Series;

    #[test]
    fn bar_render_scales_to_max() {
        let mut p = Plot::new(PlotKind::Bar, "t");
        p.categories = vec!["aa".into(), "bb".into()];
        p.series.push(Series::bars("s", vec![1.0, 2.0]));
        let out = render(&p);
        assert!(out.contains("== t =="));
        let lines: Vec<&str> = out.lines().filter(|l| l.contains('|')).collect();
        let count = |l: &str| l.chars().filter(|c| *c == '#').count();
        assert_eq!(count(lines[1]), BAR_WIDTH);
        assert_eq!(count(lines[0]), BAR_WIDTH / 2);
    }

    #[test]
    fn line_render_draws_markers() {
        let mut p = Plot::new(PlotKind::Line, "l");
        p.series.push(Series::line("a", vec![(0.0, 1.0), (1.0, 2.0)]));
        p.series.push(Series::line("b", vec![(0.0, 2.0), (1.0, 1.0)]));
        let out = render(&p);
        assert!(out.contains('*'));
        assert!(out.contains('o'));
        assert!(out.contains("= a"));
    }

    #[test]
    fn comparison_bars_annotate_whiskers() {
        let mut p = Plot::new(PlotKind::GroupedBarCi, "cmp");
        p.categories = vec!["fft [gcc]".into()];
        p.series.push(Series::bars_with_ci("baseline", vec![2.0], vec![0.5]));
        p.series.push(Series::bars_with_ci("candidate", vec![1.0], vec![0.0]));
        let out = render(&p);
        assert!(out.contains("±0.5000"), "nonzero whisker annotated:\n{out}");
        assert_eq!(out.matches('±').count(), 1, "zero whiskers are omitted");
    }

    #[test]
    fn empty_line_plot_is_graceful() {
        let p = Plot::new(PlotKind::Line, "e");
        assert!(render(&p).contains("(no data)"));
    }
}
