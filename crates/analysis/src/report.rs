//! Findings, rule identities, and the human/JSON renderers.

use std::fmt;
use std::path::PathBuf;

/// Every rule the analyzer can report, with a stable ID that escapes,
/// CI greps, and the mutation self-test key off.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Transaction purity: irrevocable effect inside a retry-able body.
    A1,
    /// Feature-gate integrity: `cfg(feature = "…")` names an undeclared
    /// feature, or an unknown custom cfg ident.
    A2,
    /// Trace-schema consistency: `EventKind` drifted from its decode
    /// table, doc table, or the README event table.
    A3,
    /// Escape hygiene: a `txn: allow-effect(…)` escape with an empty
    /// reason (an escape must argue, not just silence).
    E1,
    /// Sync-facade discipline (re-hosted lexical rule).
    R1,
    /// SeqCst/Relaxed ordering justification (re-hosted lexical rule).
    R2,
    /// `unsafe` SAFETY comment (re-hosted lexical rule).
    R3,
    /// Hot-path `Instant::now` ban (re-hosted lexical rule).
    R4,
    /// Fence justification at any ordering (re-hosted lexical rule).
    R5,
}

impl Rule {
    /// The stable ID string.
    #[must_use]
    pub fn id(self) -> &'static str {
        match self {
            Rule::A1 => "A1",
            Rule::A2 => "A2",
            Rule::A3 => "A3",
            Rule::E1 => "E1",
            Rule::R1 => "R1",
            Rule::R2 => "R2",
            Rule::R3 => "R3",
            Rule::R4 => "R4",
            Rule::R5 => "R5",
        }
    }
}

/// One reported violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: PathBuf,
    /// 1-based line.
    pub line: u32,
    pub rule: Rule,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule.id(),
            self.message
        )
    }
}

/// Counters for the success report (and the JSON `stats` block).
#[derive(Debug, Default, Clone)]
pub struct Stats {
    /// Rust files lexed.
    pub files: usize,
    /// Transaction contexts (closures into `atomically`/`read_only`
    /// plus `&mut Transaction`-taking fns) analyzed by A1.
    pub txn_contexts: usize,
    /// `cfg`/`cfg_attr`/`cfg!` feature names checked by A2.
    pub cfg_sites: usize,
    /// `EventKind` variants cross-checked by A3.
    pub event_kinds: usize,
    /// SeqCst/Relaxed/fence sites audited (R2 + R5).
    pub ordering_sites: usize,
    /// `unsafe` sites audited (R3).
    pub unsafe_sites: usize,
    /// `txn: allow-effect` escapes honoured (each carries a reason).
    pub escapes: usize,
}

/// A full analysis result.
#[derive(Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    pub stats: Stats,
}

impl Report {
    /// Sorts findings by (file, line, rule) for stable output.
    pub fn sort(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    }

    /// Renders the machine-readable report. Hand-rolled JSON (the crate
    /// is zero-dependency); all strings pass through [`json_escape`].
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\n  \"schema\": \"rubic-analyze/v1\",\n  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\n    {{\"file\": \"{}\", \"line\": {}, \"rule\": \"{}\", \"message\": \"{}\"}}",
                json_escape(&f.file.display().to_string()),
                f.line,
                f.rule.id(),
                json_escape(&f.message)
            ));
        }
        if !self.findings.is_empty() {
            s.push_str("\n  ");
        }
        let st = &self.stats;
        s.push_str(&format!(
            "],\n  \"stats\": {{\"files\": {}, \"txn_contexts\": {}, \"cfg_sites\": {}, \
             \"event_kinds\": {}, \"ordering_sites\": {}, \"unsafe_sites\": {}, \
             \"escapes\": {}}}\n}}\n",
            st.files,
            st.txn_contexts,
            st.cfg_sites,
            st.event_kinds,
            st.ordering_sites,
            st.unsafe_sites,
            st.escapes
        ));
        s
    }
}

/// Escapes a string for a JSON value position.
#[must_use]
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_is_escaped_and_parsable_shape() {
        let mut r = Report::default();
        r.findings.push(Finding {
            file: PathBuf::from("a/b.rs"),
            line: 3,
            rule: Rule::A1,
            message: "say \"no\"\nplease".into(),
        });
        let j = r.to_json();
        assert!(j.contains("\\\"no\\\""));
        assert!(j.contains("\\n"));
        assert!(j.contains("\"rule\": \"A1\""));
        assert!(j.contains("rubic-analyze/v1"));
    }

    #[test]
    fn sort_is_stable_by_file_line_rule() {
        let mut r = Report::default();
        for (f, l) in [("b.rs", 1), ("a.rs", 9), ("a.rs", 2)] {
            r.findings.push(Finding {
                file: PathBuf::from(f),
                line: l,
                rule: Rule::R2,
                message: String::new(),
            });
        }
        r.sort();
        let order: Vec<(String, u32)> = r
            .findings
            .iter()
            .map(|f| (f.file.display().to_string(), f.line))
            .collect();
        assert_eq!(
            order,
            [("a.rs".into(), 2), ("a.rs".into(), 9), ("b.rs".into(), 1)]
        );
    }
}
