//! Aligned text tables.

use std::fmt::Write as _;

/// Column alignment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Align {
    Left,
    Right,
}

/// A simple monospace table builder.
#[derive(Clone, Debug)]
pub struct TextTable {
    title: Option<String>,
    headers: Vec<String>,
    aligns: Vec<Align>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Create a table with the given column headers (all left-aligned).
    pub fn new<I, S>(headers: I) -> TextTable
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let headers: Vec<String> = headers.into_iter().map(Into::into).collect();
        let aligns = vec![Align::Left; headers.len()];
        TextTable {
            title: None,
            headers,
            aligns,
            rows: Vec::new(),
        }
    }

    /// Set a title printed above the table.
    pub fn with_title(mut self, title: impl Into<String>) -> TextTable {
        self.title = Some(title.into());
        self
    }

    /// Right-align the given column indices (numbers usually).
    pub fn right_align(mut self, columns: &[usize]) -> TextTable {
        for &c in columns {
            if c < self.aligns.len() {
                self.aligns[c] = Align::Right;
            }
        }
        self
    }

    /// Append a row; short rows are padded with empty cells, long rows
    /// truncated to the header width.
    pub fn row<I, S>(&mut self, cells: I) -> &mut TextTable
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        row.resize(self.headers.len(), String::new());
        row.truncate(self.headers.len());
        self.rows.push(row);
        self
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let cols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        if let Some(t) = &self.title {
            let _ = writeln!(out, "{t}");
        }
        let render_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                let pad = widths[i] - cell.chars().count();
                match self.aligns[i] {
                    Align::Left => {
                        out.push_str(cell);
                        out.extend(std::iter::repeat_n(' ', pad));
                    }
                    Align::Right => {
                        out.extend(std::iter::repeat_n(' ', pad));
                        out.push_str(cell);
                    }
                }
                if i + 1 < cells.len() {
                    out.push_str("  ");
                }
            }
            while out.ends_with(' ') {
                out.pop();
            }
            out.push('\n');
        };
        render_row(&mut out, &self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * (cols.saturating_sub(1));
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            render_row(&mut out, row);
        }
        out
    }
}

/// Format a fraction as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Format a fraction as a percentage with two decimals (for small rates).
pub fn pct2(x: f64) -> String {
    format!("{:.2}%", x * 100.0)
}

/// Thousands-separated integer.
pub fn count(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::new();
    for (i, ch) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut t = TextTable::new(["name", "value"])
            .with_title("Demo")
            .right_align(&[1]);
        t.row(["alpha", "1"]);
        t.row(["b", "10000"]);
        let s = t.render();
        assert!(s.starts_with("Demo\n"));
        assert!(s.contains("name   value"));
        assert!(s.contains("alpha      1"));
        assert!(s.contains("b      10000"));
    }

    #[test]
    fn pads_and_truncates_rows() {
        let mut t = TextTable::new(["a", "b"]);
        t.row(["only"]);
        t.row(["x", "y", "z-dropped"]);
        let s = t.render();
        assert!(!s.contains("z-dropped"));
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.0147), "1.5%");
        assert_eq!(pct2(0.0147), "1.47%");
        assert_eq!(count(0), "0");
        assert_eq!(count(999), "999");
        assert_eq!(count(16_605_281), "16,605,281");
    }

    #[test]
    fn no_trailing_spaces() {
        let mut t = TextTable::new(["col1", "c2"]);
        t.row(["x", ""]);
        for line in t.render().lines() {
            assert_eq!(line, line.trim_end());
        }
    }
}
