//! Result presentation: aligned console tables and CSV files.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

/// A simple column-aligned table.
#[derive(Clone, Debug, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width {} != header width {}",
            cells.len(),
            self.headers.len()
        );
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with padded columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let render_row = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "{:<width$}", c, width = widths[i] + 2);
                let _ = i;
            }
            out.push('\n');
        };
        render_row(&mut out, &self.headers);
        let total: usize = widths.iter().map(|w| w + 2).sum();
        out.push_str(&"-".repeat(total.min(120)));
        out.push('\n');
        for row in &self.rows {
            render_row(&mut out, row);
        }
        let _ = ncols;
        out
    }

    /// Writes the table as CSV (RFC-4180 quoting for commas/quotes).
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        let mut out = String::new();
        let quote = |c: &str| -> String {
            if c.contains(',') || c.contains('"') || c.contains('\n') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        out.push_str(
            &self
                .headers
                .iter()
                .map(|h| quote(h))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        fs::write(path, out)
    }
}

/// Formats a float with 4 significant decimals, or "—" for NaN (a cell
/// with no value, such as a method that found no team for any project).
pub fn fmt_val(v: f64) -> String {
    if v.is_nan() {
        "—".to_string()
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(&["method", "score"]);
        t.row(vec!["CC".into(), "1.25".into()]);
        t.row(vec!["SA-CA-CC".into(), "0.87".into()]);
        t
    }

    #[test]
    fn render_aligns_columns() {
        let text = sample().render();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines[0].starts_with("method"));
        assert!(lines[2].starts_with("CC"));
        assert!(lines[3].starts_with("SA-CA-CC"));
        // Columns align: "score" header and values start at same offset.
        let off = lines[0].find("score").unwrap();
        assert_eq!(&lines[2][off..off + 4], "1.25");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn row_width_is_enforced() {
        let mut t = Table::new(&["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_quotes_specials() {
        let mut t = Table::new(&["name", "note"]);
        t.row(vec!["a,b".into(), "say \"hi\"".into()]);
        let dir = std::env::temp_dir().join("atd_eval_test_csv");
        let path = dir.join("t.csv");
        t.write_csv(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"a,b\""));
        assert!(text.contains("\"say \"\"hi\"\"\""));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fmt_val_handles_nan() {
        assert_eq!(fmt_val(f64::NAN), "—");
        assert_eq!(fmt_val(1.23456), "1.2346");
    }

    #[test]
    fn len_and_empty() {
        assert!(Table::new(&["x"]).is_empty());
        assert_eq!(sample().len(), 2);
    }
}
