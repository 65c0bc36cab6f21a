//! Experiment reports: tabular results with paper context, renderable as
//! console text or `EXPERIMENTS.md` sections.

use crate::workload::LatencyStats;

/// One row of an experiment table: a label plus numeric cells.
#[derive(Debug, Clone)]
pub struct Row {
    /// Row label (e.g. "n=10", "bucket=13").
    pub label: String,
    /// Cell values aligned with [`Report::columns`].
    pub cells: Vec<String>,
}

impl Row {
    /// Build a row from a label and formatted cells.
    pub fn new(label: impl Into<String>, cells: Vec<String>) -> Self {
        Row {
            label: label.into(),
            cells,
        }
    }
}

/// A reproduced table/figure.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id ("fig3", "tab5", ...).
    pub id: String,
    /// Human title.
    pub title: String,
    /// What the paper reports for this artifact (the expectation the
    /// measurement is checked against).
    pub paper_expectation: String,
    /// What we measured / how to read the table.
    pub commentary: String,
    /// Column headers (first column is the row label).
    pub columns: Vec<String>,
    /// Data rows.
    pub rows: Vec<Row>,
    /// Optional free-form preformatted block (e.g. Figure 1's access
    /// strips, Table 4/5 listings).
    pub preformatted: Option<String>,
    /// Optional headline latency percentiles (experiments that measure
    /// per-query latency set this; throughput-only reports leave it
    /// `None`). Every form renders p50/p95/p99 only.
    pub latency: Option<LatencyStats>,
}

impl Report {
    /// A new empty report.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        paper_expectation: impl Into<String>,
        columns: Vec<&str>,
    ) -> Self {
        Report {
            id: id.into(),
            title: title.into(),
            paper_expectation: paper_expectation.into(),
            commentary: String::new(),
            columns: columns.into_iter().map(String::from).collect(),
            rows: Vec::new(),
            preformatted: None,
            latency: None,
        }
    }

    /// Append a data row.
    pub fn push(&mut self, label: impl Into<String>, cells: Vec<String>) {
        self.rows.push(Row::new(label, cells));
    }

    /// Render as console text.
    pub fn to_text(&self) -> String {
        let mut out = format!("== {} — {} ==\n", self.id, self.title);
        out.push_str(&format!("paper: {}\n", self.paper_expectation));
        if !self.commentary.is_empty() {
            out.push_str(&format!("measured: {}\n", self.commentary));
        }
        if let Some(l) = &self.latency {
            out.push_str(&format!(
                "latency: p50 {} / p95 {} / p99 {}\n",
                ms(l.p50_ms),
                ms(l.p95_ms),
                ms(l.p99_ms)
            ));
        }
        out.push('\n');
        if let Some(pre) = &self.preformatted {
            out.push_str(pre);
            out.push('\n');
        }
        if !self.columns.is_empty() && !self.rows.is_empty() {
            out.push_str(&self.render_table());
        }
        out
    }

    /// Render as a Markdown section for `EXPERIMENTS.md`.
    pub fn to_markdown(&self) -> String {
        let mut out = format!("## {} — {}\n\n", self.id, self.title);
        out.push_str(&format!("**Paper:** {}\n\n", self.paper_expectation));
        if !self.commentary.is_empty() {
            out.push_str(&format!("**Measured:** {}\n\n", self.commentary));
        }
        if let Some(l) = &self.latency {
            out.push_str(&format!(
                "**Latency:** p50 {} / p95 {} / p99 {}\n\n",
                ms(l.p50_ms),
                ms(l.p95_ms),
                ms(l.p99_ms)
            ));
        }
        if let Some(pre) = &self.preformatted {
            out.push_str("```text\n");
            out.push_str(pre);
            if !pre.ends_with('\n') {
                out.push('\n');
            }
            out.push_str("```\n\n");
        }
        if !self.columns.is_empty() && !self.rows.is_empty() {
            out.push_str(&format!("| {} |\n", self.columns.join(" | ")));
            out.push_str(&format!(
                "|{}\n",
                self.columns.iter().map(|_| "---|").collect::<String>()
            ));
            for r in &self.rows {
                out.push_str(&format!("| {} | {} |\n", r.label, r.cells.join(" | ")));
            }
            out.push('\n');
        }
        out
    }

    /// Render as a JSON object (hand-rolled: the workspace is built
    /// offline, so no serde). Shape:
    /// `{"id", "title", "paper", "measured", "columns": [...],
    ///   "rows": [{"label", "cells": [...]}, ...]}`.
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len() + 2);
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
        fn arr(items: impl Iterator<Item = String>) -> String {
            format!("[{}]", items.collect::<Vec<_>>().join(","))
        }
        let rows = arr(self.rows.iter().map(|r| {
            format!(
                "{{\"label\":\"{}\",\"cells\":{}}}",
                esc(&r.label),
                arr(r.cells.iter().map(|c| format!("\"{}\"", esc(c))))
            )
        }));
        let latency = match &self.latency {
            Some(l) => format!(
                ",\"latency\":{{\"p50_ms\":{:.3},\"p95_ms\":{:.3},\"p99_ms\":{:.3}}}",
                l.p50_ms, l.p95_ms, l.p99_ms
            ),
            None => String::new(),
        };
        format!(
            "{{\"id\":\"{}\",\"title\":\"{}\",\"paper\":\"{}\",\"measured\":\"{}\",\
             \"columns\":{},\"rows\":{}{}}}",
            esc(&self.id),
            esc(&self.title),
            esc(&self.paper_expectation),
            esc(&self.commentary),
            arr(self.columns.iter().map(|c| format!("\"{}\"", esc(c)))),
            rows,
            latency
        )
    }

    fn render_table(&self) -> String {
        // Column widths from headers and cells.
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        for r in &self.rows {
            widths[0] = widths[0].max(r.label.len());
            for (i, c) in r.cells.iter().enumerate() {
                if i + 1 < widths.len() {
                    widths[i + 1] = widths[i + 1].max(c.len());
                }
            }
        }
        let mut out = String::new();
        for (i, h) in self.columns.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", h, w = widths[i]));
        }
        out.push('\n');
        for (i, _) in self.columns.iter().enumerate() {
            out.push_str(&format!("{:-<w$}  ", "", w = widths[i]));
        }
        out.push('\n');
        for r in &self.rows {
            out.push_str(&format!("{:<w$}  ", r.label, w = widths[0]));
            for (i, c) in r.cells.iter().enumerate() {
                if i + 1 < widths.len() {
                    out.push_str(&format!("{:<w$}  ", c, w = widths[i + 1]));
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Format milliseconds with sensible precision.
pub fn ms(v: f64) -> String {
    if v >= 1000.0 {
        format!("{:.2} s", v / 1000.0)
    } else {
        format!("{v:.1} ms")
    }
}

/// Format bytes as KB/MB.
pub fn bytes(v: u64) -> String {
    if v >= 1 << 20 {
        format!("{:.2} MB", v as f64 / (1 << 20) as f64)
    } else if v >= 1 << 10 {
        format!("{:.1} KB", v as f64 / 1024.0)
    } else {
        format!("{v} B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let mut r = Report::new("figX", "demo", "expected shape", vec!["n", "a", "b"]);
        r.push("1", vec!["10.0".into(), "20.0".into()]);
        r.push("2", vec!["11.0".into(), "21.0".into()]);
        r.commentary = "measured shape".into();
        r
    }

    #[test]
    fn text_render_contains_everything() {
        let t = sample().to_text();
        assert!(t.contains("figX"));
        assert!(t.contains("expected shape"));
        assert!(t.contains("measured shape"));
        assert!(t.contains("21.0"));
    }

    #[test]
    fn markdown_render_is_a_table() {
        let md = sample().to_markdown();
        assert!(md.starts_with("## figX"));
        assert!(md.contains("| n | a | b |"));
        assert!(md.contains("| 2 | 11.0 | 21.0 |"));
    }

    #[test]
    fn preformatted_block_rendered_fenced() {
        let mut r = sample();
        r.preformatted = Some("###..##".into());
        let md = r.to_markdown();
        assert!(md.contains("```text\n###..##\n```"));
    }

    #[test]
    fn json_render_is_well_formed() {
        let mut r = sample();
        r.commentary = "has \"quotes\" and\nnewlines".into();
        let j = r.to_json();
        assert!(j.starts_with("{\"id\":\"figX\""));
        assert!(j.contains("\"columns\":[\"n\",\"a\",\"b\"]"));
        assert!(j.contains("{\"label\":\"2\",\"cells\":[\"11.0\",\"21.0\"]}"));
        assert!(j.contains("has \\\"quotes\\\" and\\nnewlines"));
        assert_eq!(j.matches('{').count(), j.matches('}').count());
    }

    #[test]
    fn latency_summary_rendered_everywhere() {
        let mut r = sample();
        r.latency = Some(LatencyStats {
            p50_ms: 12.5,
            p95_ms: 40.0,
            p99_ms: 55.25,
            ..LatencyStats::default()
        });
        let t = r.to_text();
        assert!(
            t.contains("latency: p50 12.5 ms / p95 40.0 ms / p99 55.2 ms"),
            "{t}"
        );
        let md = r.to_markdown();
        assert!(md.contains("**Latency:**"), "{md}");
        let j = r.to_json();
        assert!(
            j.contains("\"latency\":{\"p50_ms\":12.500,\"p95_ms\":40.000,\"p99_ms\":55.250}"),
            "{j}"
        );
        assert_eq!(j.matches('{').count(), j.matches('}').count());
        // Throughput-only reports stay latency-free.
        assert!(!sample().to_json().contains("latency"));
    }

    #[test]
    fn unit_formatting() {
        assert_eq!(ms(12.34), "12.3 ms");
        assert_eq!(ms(2500.0), "2.50 s");
        assert_eq!(bytes(512), "512 B");
        assert_eq!(bytes(2048), "2.0 KB");
        assert_eq!(bytes(3 << 20), "3.00 MB");
    }
}
