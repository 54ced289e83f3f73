//! Plain-text table rendering for the experiment harnesses.
//!
//! Every experiment can render its results as an aligned text table so that
//! `run_sweep --format table` and the example binaries print output directly
//! comparable to the paper's tables and figures.

use std::fmt::Write as _;

/// A simple aligned text table.
///
/// # Example
///
/// ```
/// use gpreempt::report::TextTable;
///
/// let mut t = TextTable::new(vec!["policy".into(), "ANTT".into()]);
/// t.add_row(vec!["FCFS".into(), "3.21".into()]);
/// t.add_row(vec!["DSS".into(), "1.75".into()]);
/// let text = t.render();
/// assert!(text.contains("FCFS"));
/// assert!(text.lines().count() >= 4);
/// ```
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
    title: Option<String>,
}

impl TextTable {
    /// Creates a table with the given column headers.
    pub fn new(header: Vec<String>) -> Self {
        TextTable {
            header,
            rows: Vec::new(),
            title: None,
        }
    }

    /// Sets a title printed above the table.
    #[must_use]
    pub fn with_title(mut self, title: impl Into<String>) -> Self {
        self.title = Some(title.into());
        self
    }

    /// Appends a row. Rows shorter than the header are padded with blanks.
    ///
    /// Rows *longer* than the header indicate a bug in the caller (the
    /// extra cells would silently disappear), so debug builds assert on
    /// them; release builds truncate as before.
    pub fn add_row(&mut self, mut row: Vec<String>) {
        debug_assert!(
            row.len() <= self.header.len(),
            "TextTable::add_row: row has {} cells but the header has only {} columns: {row:?}",
            row.len(),
            self.header.len(),
        );
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
    }

    /// Appends every row of an iterator (see [`add_row`](Self::add_row)).
    ///
    /// This is the streaming entry point used by the folded-record report
    /// paths: rows are produced one at a time from per-scenario records —
    /// never from a materialised vector of simulation runs.
    pub fn extend_rows<I: IntoIterator<Item = Vec<String>>>(&mut self, rows: I) {
        for row in rows {
            self.add_row(row);
        }
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let n_cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate().take(n_cols) {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        if let Some(title) = &self.title {
            let _ = writeln!(out, "{title}");
        }
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    line.push_str("  ");
                }
                let _ = write!(line, "{:<width$}", cell, width = widths[i]);
            }
            line.trim_end().to_string()
        };
        let _ = writeln!(out, "{}", render_row(&self.header, &widths));
        let total: usize = widths.iter().sum::<usize>() + 2 * (n_cols.saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            let _ = writeln!(out, "{}", render_row(row, &widths));
        }
        out
    }
}

/// Formats a ratio as the paper prints them (e.g. `"15.6x"`). Non-finite
/// values (the empty-input statistic sentinel) render as `-`.
pub fn times(value: f64) -> String {
    if value.is_finite() {
        format!("{value:.2}x")
    } else {
        "-".to_string()
    }
}

/// Formats a fraction as a percentage. Non-finite values render as `-`.
pub fn percent(value: f64) -> String {
    if value.is_finite() {
        format!("{:.1}%", value * 100.0)
    } else {
        "-".to_string()
    }
}

/// Formats a simulated time in microseconds.
pub fn micros(value: gpreempt_types::SimTime) -> String {
    format!("{:.2}us", value.as_micros_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpreempt_types::SimTime;

    #[test]
    fn table_renders_aligned_columns() {
        let mut t = TextTable::new(vec!["a".into(), "value".into()]).with_title("demo");
        t.add_row(vec!["longer-name".into(), "1".into()]);
        t.add_row(vec!["x".into()]); // short row gets padded
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
        let text = t.render();
        assert!(text.starts_with("demo\n"));
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[1].contains("a"));
        assert!(lines[2].starts_with("---"));
        assert!(lines[3].contains("longer-name"));
    }

    #[test]
    fn short_rows_are_padded_to_the_header_width() {
        let mut t = TextTable::new(vec!["a".into(), "b".into(), "c".into()]);
        t.add_row(vec!["x".into()]);
        t.add_row(vec!["y".into(), "z".into()]);
        let text = t.render();
        // Every rendered data line has the padded cells, so the column
        // separator logic never panics and alignment holds.
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[2].starts_with('x'));
        assert!(lines[3].contains('z'));
        // The stored rows really were padded, not left ragged.
        assert!(t.rows.iter().all(|r| r.len() == 3));
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "row has 3 cells"))]
    fn long_rows_assert_in_debug_builds() {
        let mut t = TextTable::new(vec!["a".into(), "b".into()]);
        t.add_row(vec!["1".into(), "2".into(), "3".into()]);
        // In release builds the extra cell is truncated (legacy behaviour).
        #[cfg(not(debug_assertions))]
        assert_eq!(t.rows[0].len(), 2);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(times(15.63), "15.63x");
        assert_eq!(percent(0.123), "12.3%");
        assert_eq!(micros(SimTime::from_micros(5)), "5.00us");
        assert_eq!(times(f64::NAN), "-");
        assert_eq!(percent(f64::NAN), "-");
    }
}
