//! Paper figure reproduction for the RUBIC reproduction.
//!
//! Every table and figure of the paper's evaluation section has a
//! regenerator in [`figures`], keyed by the paper's numbering; the
//! `figures` binary drives them (`cargo run -p rubic-bench --bin
//! figures -- --all`) and writes CSV series plus readable text tables.
//! Design-choice ablations live in [`ablations`], experiments beyond
//! the paper in [`extensions`], and real-pool measurements in
//! [`invivo`]. Performance is measured by the whole-stack benchmark
//! under `benchmark/` (see its README), not here.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ablations;
pub mod extensions;
pub mod figures;
pub mod invivo;

/// A renderable figure/table: labelled rows of numeric columns.
#[derive(Debug, Clone)]
pub struct Figure {
    /// Identifier matching the paper ("fig7a", "fig10c", ...).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Column headers; `rows[i].1.len() == columns.len()` for all rows.
    pub columns: Vec<String>,
    /// `(row label, values)` pairs.
    pub rows: Vec<(String, Vec<f64>)>,
    /// Free-form notes (expected paper shape, measured summary, ...).
    pub notes: Vec<String>,
}

impl Figure {
    /// Creates an empty figure.
    #[must_use]
    pub fn new(id: impl Into<String>, title: impl Into<String>, columns: Vec<String>) -> Self {
        Figure {
            id: id.into(),
            title: title.into(),
            columns,
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    /// Panics if the value count does not match the column count.
    pub fn push_row(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "row width mismatch in {}",
            self.id
        );
        self.rows.push((label.into(), values));
    }

    /// Appends a note.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Looks up a value by row label and column header.
    #[must_use]
    pub fn value(&self, row: &str, column: &str) -> Option<f64> {
        let c = self.columns.iter().position(|x| x == column)?;
        let (_, values) = self.rows.iter().find(|(label, _)| label == row)?;
        values.get(c).copied()
    }

    /// Renders an aligned text table with the notes below.
    #[must_use]
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.title));
        let label_w = self
            .rows
            .iter()
            .map(|(l, _)| l.len())
            .chain([8])
            .max()
            .unwrap_or(8);
        let col_w = 12usize;
        out.push_str(&format!("{:label_w$}", ""));
        for c in &self.columns {
            out.push_str(&format!(" {c:>col_w$}"));
        }
        out.push('\n');
        for (label, values) in &self.rows {
            out.push_str(&format!("{label:label_w$}"));
            for v in values {
                out.push_str(&format!(" {v:>col_w$.4}"));
            }
            out.push('\n');
        }
        for n in &self.notes {
            out.push_str(&format!("  note: {n}\n"));
        }
        out
    }

    /// Renders RFC-4180-ish CSV (label column first).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str("label");
        for c in &self.columns {
            out.push(',');
            out.push_str(&csv_escape(c));
        }
        out.push('\n');
        for (label, values) in &self.rows {
            out.push_str(&csv_escape(label));
            for v in values {
                out.push_str(&format!(",{v}"));
            }
            out.push('\n');
        }
        out
    }
}

fn csv_escape(s: &str) -> String {
    if s.contains([',', '"', '\n']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Figure {
        let mut f = Figure::new("figX", "test", vec!["a".into(), "b".into()]);
        f.push_row("r1", vec![1.0, 2.0]);
        f.push_row("r2", vec![3.5, 4.25]);
        f.note("hello");
        f
    }

    #[test]
    fn value_lookup() {
        let f = sample();
        assert_eq!(f.value("r1", "b"), Some(2.0));
        assert_eq!(f.value("r2", "a"), Some(3.5));
        assert_eq!(f.value("r3", "a"), None);
        assert_eq!(f.value("r1", "c"), None);
    }

    #[test]
    fn text_contains_everything() {
        let t = sample().render_text();
        assert!(t.contains("figX"));
        assert!(t.contains("r2"));
        assert!(t.contains("4.2500"));
        assert!(t.contains("note: hello"));
    }

    #[test]
    fn csv_shape() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "label,a,b");
        assert_eq!(lines[1], "r1,1,2");
        assert_eq!(lines.len(), 3);
    }

    #[test]
    fn csv_escaping() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("q\"q"), "\"q\"\"q\"");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut f = Figure::new("f", "t", vec!["a".into()]);
        f.push_row("r", vec![1.0, 2.0]);
    }
}
