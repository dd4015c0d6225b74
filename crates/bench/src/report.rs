//! Minimal plain-text table rendering for the experiment binaries.
//!
//! Every `exp_*` binary prints its results as aligned text tables with a
//! `paper` column next to the `measured` column, so the paper-vs-measured
//! comparison is regenerated by running the binaries (see the README's
//! "Reproducing the paper's tables and figures").

/// A simple column-aligned text table.
#[derive(Debug, Default)]
pub struct Table {
    title: String,
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with a title and column headers.
    pub fn new(title: impl Into<String>, header: &[&str]) -> Self {
        Self {
            title: title.into(),
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (stringified cells).
    pub fn row(&mut self, cells: &[String]) -> &mut Self {
        self.rows.push(cells.to_vec());
        self
    }

    /// Render the table as aligned plain text.
    pub fn render(&self) -> String {
        let ncols = self.header.len().max(
            self.rows.iter().map(Vec::len).max().unwrap_or(0),
        );
        let mut widths = vec![0usize; ncols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        out.push_str(&format!("== {} ==\n", self.title));
        let render_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for (i, w) in widths.iter().enumerate() {
                let cell = cells.get(i).map(String::as_str).unwrap_or("");
                line.push_str(&format!("{cell:<w$}  ", w = w));
            }
            line.trim_end().to_string()
        };
        out.push_str(&render_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&render_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print the table to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }
}

/// Format a fraction as a percentage with one decimal.
pub fn format_percent(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_rows() {
        let mut t = Table::new("Demo", &["name", "value"]);
        t.row(&["alpha".to_string(), "1".to_string()]);
        t.row(&["b".to_string(), "22222".to_string()]);
        let s = t.render();
        assert!(s.contains("== Demo =="));
        assert!(s.contains("alpha"));
        assert!(s.contains("22222"));
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn percent_formatting() {
        assert_eq!(format_percent(0.9081), "90.8%");
        assert_eq!(format_percent(1.0), "100.0%");
    }
}
