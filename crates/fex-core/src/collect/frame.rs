//! A small column-typed data frame — the framework's pandas substitute.
//!
//! Holds the rows the collect stage extracts from runs, supports group-by
//! aggregation and pivoting for the plot stage, and round-trips through
//! CSV (the artifact the paper stores per experiment).

use std::collections::BTreeMap;
use std::fmt;

use crate::error::{FexError, Result};

/// A cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string cell.
    Str(String),
    /// A numeric cell.
    Num(f64),
}

impl Value {
    /// Numeric view; `None` for strings.
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Value::Num(v) => Some(*v),
            Value::Str(_) => None,
        }
    }

    /// String view. Numbers use shortest round-trip formatting so CSV
    /// persistence is lossless (`fex compare` re-reads archived CSVs).
    pub fn to_cell_string(&self) -> String {
        match self {
            Value::Str(s) => s.clone(),
            Value::Num(v) => {
                if v.fract() == 0.0 && v.abs() < 1e15 {
                    format!("{}", *v as i64)
                } else {
                    format!("{v}")
                }
            }
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Self {
        Value::Str(s)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Num(v)
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Num(v as f64)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_cell_string())
    }
}

/// The data frame.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DataFrame {
    columns: Vec<String>,
    rows: Vec<Vec<Value>>,
}

impl DataFrame {
    /// Creates an empty frame with the given columns.
    pub fn new<S: Into<String>>(columns: Vec<S>) -> Self {
        DataFrame { columns: columns.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the frame has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Index of a column.
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] if the column does not exist.
    pub fn col(&self, name: &str) -> Result<usize> {
        self.columns
            .iter()
            .position(|c| c == name)
            .ok_or_else(|| FexError::Data(format!("no column `{name}`")))
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the arity does not match the columns — pushing rows is
    /// always framework code, so a mismatch is a bug, not input error.
    pub fn push(&mut self, row: Vec<Value>) {
        assert_eq!(row.len(), self.columns.len(), "row arity mismatch");
        self.rows.push(row);
    }

    /// Iterates rows.
    pub fn iter(&self) -> impl Iterator<Item = &[Value]> {
        self.rows.iter().map(Vec::as_slice)
    }

    /// The values of one column.
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] if the column does not exist.
    pub fn column_values(&self, name: &str) -> Result<Vec<&Value>> {
        let i = self.col(name)?;
        Ok(self.rows.iter().map(|r| &r[i]).collect())
    }

    /// Distinct string values of a column, in first-appearance order.
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] if the column does not exist.
    pub fn distinct(&self, name: &str) -> Result<Vec<String>> {
        let i = self.col(name)?;
        let mut seen = Vec::new();
        for r in &self.rows {
            let s = r[i].to_cell_string();
            if !seen.contains(&s) {
                seen.push(s);
            }
        }
        Ok(seen)
    }

    /// Keeps only rows where `column == value` (string comparison).
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] if the column does not exist.
    pub fn filter_eq(&self, column: &str, value: &str) -> Result<DataFrame> {
        let i = self.col(column)?;
        let rows = self.rows.iter().filter(|r| r[i].to_cell_string() == value).cloned().collect();
        Ok(DataFrame { columns: self.columns.clone(), rows })
    }

    /// Groups by the given key columns and aggregates `value_column` with
    /// `agg` (applied to the numeric values of each group). The result has
    /// the key columns plus one `value_column` column.
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] for unknown columns or non-numeric values.
    pub fn group_agg(
        &self,
        keys: &[&str],
        value_column: &str,
        agg: fn(&[f64]) -> f64,
    ) -> Result<DataFrame> {
        let key_idx: Vec<usize> = keys.iter().map(|k| self.col(k)).collect::<Result<_>>()?;
        let vi = self.col(value_column)?;
        let mut groups: BTreeMap<Vec<String>, Vec<f64>> = BTreeMap::new();
        let mut order: Vec<Vec<String>> = Vec::new();
        for r in &self.rows {
            let key: Vec<String> = key_idx.iter().map(|i| r[*i].to_cell_string()).collect();
            let v = r[vi]
                .as_num()
                .ok_or_else(|| FexError::Data(format!("non-numeric `{value_column}`")))?;
            if !groups.contains_key(&key) {
                order.push(key.clone());
            }
            groups.entry(key).or_default().push(v);
        }
        let mut out = DataFrame::new(
            keys.iter().map(|k| k.to_string()).chain([value_column.to_string()]).collect(),
        );
        for key in order {
            let vals = &groups[&key];
            let mut row: Vec<Value> = key.into_iter().map(Value::Str).collect();
            row.push(Value::Num(agg(vals)));
            out.push(row);
        }
        Ok(out)
    }

    /// Serialises to CSV (header + rows; commas and quotes escaped).
    pub fn to_csv(&self) -> String {
        let mut s = String::new();
        s.push_str(&self.columns.iter().map(|c| csv_escape(c)).collect::<Vec<_>>().join(","));
        s.push('\n');
        for r in &self.rows {
            s.push_str(
                &r.iter().map(|v| csv_escape(&v.to_cell_string())).collect::<Vec<_>>().join(","),
            );
            s.push('\n');
        }
        s
    }

    /// Parses CSV produced by [`DataFrame::to_csv`]. Numeric-looking cells
    /// become numbers.
    ///
    /// # Errors
    ///
    /// [`FexError::Data`] on ragged rows or missing header.
    pub fn from_csv(text: &str) -> Result<DataFrame> {
        let mut lines = text.lines();
        let header = lines.next().ok_or_else(|| FexError::Data("empty csv".into()))?;
        let columns = parse_csv_line(header);
        let mut df = DataFrame::new(columns.clone());
        for (lineno, line) in lines.enumerate() {
            if line.is_empty() {
                continue;
            }
            let cells = parse_csv_line(line);
            if cells.len() != columns.len() {
                return Err(FexError::Data(format!(
                    "csv row {} has {} cells, expected {}",
                    lineno + 2,
                    cells.len(),
                    columns.len()
                )));
            }
            df.push(
                cells
                    .into_iter()
                    .map(|c| match c.parse::<f64>() {
                        Ok(v) if !c.is_empty() => Value::Num(v),
                        _ => Value::Str(c),
                    })
                    .collect(),
            );
        }
        Ok(df)
    }
}

fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn parse_csv_line(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    let mut quoted = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    quoted = false;
                }
            }
            '"' => quoted = true,
            ',' if !quoted => {
                out.push(std::mem::take(&mut cur));
            }
            other => cur.push(other),
        }
    }
    out.push(cur);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::collect::stats;

    fn sample() -> DataFrame {
        let mut df = DataFrame::new(vec!["bench", "type", "time"]);
        df.push(vec!["fft".into(), "gcc".into(), 1.0.into()]);
        df.push(vec!["fft".into(), "gcc".into(), 3.0.into()]);
        df.push(vec!["fft".into(), "clang".into(), 4.0.into()]);
        df.push(vec!["lu".into(), "gcc".into(), 2.0.into()]);
        df
    }

    #[test]
    fn group_agg_means_per_key() {
        let df = sample();
        let g = df.group_agg(&["bench", "type"], "time", stats::mean).unwrap();
        assert_eq!(g.len(), 3);
        let fft_gcc = g.filter_eq("bench", "fft").unwrap().filter_eq("type", "gcc").unwrap();
        assert_eq!(fft_gcc.iter().next().unwrap()[2], Value::Num(2.0));
    }

    #[test]
    fn filter_and_distinct() {
        let df = sample();
        assert_eq!(df.filter_eq("type", "gcc").unwrap().len(), 3);
        assert_eq!(df.distinct("bench").unwrap(), vec!["fft", "lu"]);
    }

    #[test]
    fn csv_roundtrip() {
        let df = sample();
        let parsed = DataFrame::from_csv(&df.to_csv()).unwrap();
        assert_eq!(parsed.len(), df.len());
        assert_eq!(parsed.columns(), df.columns());
        assert_eq!(parsed.column_values("time").unwrap()[1], &Value::Num(3.0));
    }

    #[test]
    fn csv_escaping() {
        let mut df = DataFrame::new(vec!["a"]);
        df.push(vec!["x,y \"z\"".into()]);
        let parsed = DataFrame::from_csv(&df.to_csv()).unwrap();
        assert_eq!(parsed.iter().next().unwrap()[0], Value::Str("x,y \"z\"".into()));
    }

    #[test]
    fn errors_on_missing_columns_and_ragged_rows() {
        let df = sample();
        assert!(df.col("nope").is_err());
        assert!(DataFrame::from_csv("a,b\n1\n").is_err());
        assert!(DataFrame::from_csv("").is_err());
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        let mut df = DataFrame::new(vec!["a", "b"]);
        df.push(vec![1i64.into()]);
    }
}
