//! Lint findings: the report records, text rendering, and JSONL export.
//!
//! JSONL output reuses the `omnc-telemetry` sink conventions (one
//! serde-serialized object per line via [`telemetry::EventSink`]) so
//! findings can be post-processed with the same tooling as simulation
//! traces, and read back with serde.

use serde::{Deserialize, Serialize};
use telemetry::EventSink;

use crate::rules::{Rule, Severity};

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Finding {
    /// Workspace-relative file path (`/`-separated).
    pub path: String,
    /// 1-based line number (0 for file-level findings).
    pub line: usize,
    /// The violated rule's stable name.
    pub rule: String,
    /// `warn` or `deny`.
    pub severity: Severity,
    /// Human-readable explanation.
    pub message: String,
    /// The offending source line, trimmed (empty for file-level findings).
    pub snippet: String,
    /// For obligations inherited through the call graph: the blame chain
    /// `entry → … → offender` that made this line hot-path code. `None`
    /// for findings produced by the static path scopes.
    pub chain: Option<String>,
}

impl Finding {
    /// Builds a finding, trimming the snippet.
    pub fn new(
        path: &str,
        line: usize,
        rule: Rule,
        severity: Severity,
        message: String,
        snippet: &str,
    ) -> Self {
        Finding {
            path: path.to_owned(),
            line,
            rule: rule.name().to_owned(),
            severity,
            message,
            snippet: snippet.trim().to_owned(),
            chain: None,
        }
    }

    /// Builds a file-level finding for a scenario model-invariant check
    /// (no source line or snippet; `rule` is one of the `scenario-*` names).
    pub fn scenario(path: &str, rule: &'static str, severity: Severity, message: String) -> Self {
        Finding {
            path: path.to_owned(),
            line: 0,
            rule: rule.to_owned(),
            severity,
            message,
            snippet: String::new(),
            chain: None,
        }
    }

    /// `path:line: severity[rule] message` with the snippet indented below
    /// and, for propagated obligations, the blame chain.
    pub fn render(&self) -> String {
        let mut s = format!(
            "{}:{}: {}[{}] {}",
            self.path, self.line, self.severity, self.rule, self.message
        );
        if let Some(chain) = &self.chain {
            s.push_str("\n    | hot path: ");
            s.push_str(chain);
        }
        if !self.snippet.is_empty() {
            s.push_str("\n    | ");
            s.push_str(&self.snippet);
        }
        s
    }
}

/// A finished lint run.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, sorted by (path, line, rule).
    pub findings: Vec<Finding>,
    /// Number of files analyzed.
    pub files_checked: usize,
}

impl Report {
    /// Sorts findings into the deterministic reporting order.
    pub fn finish(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    }

    /// Count at `severity`.
    pub fn count(&self, severity: Severity) -> usize {
        self.findings
            .iter()
            .filter(|f| f.severity == severity)
            .count()
    }

    /// `true` when no deny-level findings exist (the run passes).
    pub fn is_clean(&self) -> bool {
        self.count(Severity::Deny) == 0
    }

    /// Writes all findings as JSONL through a telemetry sink.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error from the sink.
    pub fn write_jsonl(&self, sink: &EventSink) -> std::io::Result<()> {
        for f in &self.findings {
            sink.emit(f)?;
        }
        sink.flush()
    }

    /// Renders the human-readable report, findings then a summary line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            out.push_str(&f.render());
            out.push('\n');
        }
        out.push_str(&format!(
            "{} file(s) checked: {} deny, {} warn\n",
            self.files_checked,
            self.count(Severity::Deny),
            self.count(Severity::Warn)
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_sorts_and_counts() {
        let mut r = Report::default();
        r.findings.push(Finding::new(
            "b.rs",
            3,
            Rule::Unwrap,
            Severity::Deny,
            "x".into(),
            "  a.unwrap()  ",
        ));
        r.findings.push(Finding::new(
            "a.rs",
            9,
            Rule::FloatEq,
            Severity::Warn,
            "y".into(),
            "",
        ));
        r.finish();
        assert_eq!(r.findings[0].path, "a.rs");
        assert_eq!(r.count(Severity::Deny), 1);
        assert_eq!(r.count(Severity::Warn), 1);
        assert!(!r.is_clean());
        assert_eq!(r.findings[1].snippet, "a.unwrap()");
    }

    #[test]
    fn jsonl_round_trips_through_sink() {
        let mut r = Report::default();
        r.findings.push(Finding::new(
            "crates/x/src/lib.rs",
            1,
            Rule::WallClock,
            Severity::Deny,
            "wall clock".into(),
            "Instant::now()",
        ));
        let sink = EventSink::in_memory();
        r.write_jsonl(&sink).unwrap();
        let lines = sink.lines();
        assert_eq!(lines.len(), 1);
        let v: serde_json::Value = serde_json::from_str(&lines[0]).unwrap();
        assert_eq!(v.get("rule").and_then(|r| r.as_str()), Some("wall-clock"));
        assert_eq!(v.get("severity").and_then(|s| s.as_str()), Some("Deny"));
    }

    #[test]
    fn finding_round_trips_through_serde_with_chain() {
        let mut f = Finding::new(
            "crates/x/src/lib.rs",
            7,
            Rule::Unwrap,
            Severity::Deny,
            "unchecked unwrap".into(),
            "x.unwrap()",
        );
        f.chain = Some("Encoder::emit → helper".into());
        let text = serde_json::to_string(&f).unwrap();
        let back: Finding = serde_json::from_str(&text).unwrap();
        assert_eq!(back, f);

        // A chain-free finding survives the round trip too.
        let plain = Finding::new("a.rs", 1, Rule::FloatEq, Severity::Warn, "m".into(), "s");
        let text = serde_json::to_string(&plain).unwrap();
        let back: Finding = serde_json::from_str(&text).unwrap();
        assert_eq!(back, plain);
    }

    #[test]
    fn chain_is_rendered() {
        let mut f = Finding::new(
            "crates/gf256/src/helper.rs",
            3,
            Rule::Unwrap,
            Severity::Deny,
            "unchecked unwrap in hot path".into(),
            "x.unwrap()",
        );
        f.chain = Some("Encoder::emit → lead".into());
        let text = f.render();
        assert!(text.contains("hot path: Encoder::emit → lead"), "{text}");
    }
}
