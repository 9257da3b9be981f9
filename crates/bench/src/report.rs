//! Plain-text experiment tables, the one row renderer every measured
//! cell goes through ([`Report::stats_row`]), and a machine-readable
//! [`Value`] form for the harness's `--json` output.

use std::fmt::Write as _;

use udbms_core::Value;
use udbms_driver::ConcurrentStats;

/// One experiment's tabular output.
#[derive(Debug, Clone)]
pub struct Report {
    /// Experiment id + title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Data rows (already formatted).
    pub rows: Vec<Vec<String>>,
    /// Free-text notes under the table.
    pub notes: Vec<String>,
}

/// The latency columns of a measured row, in [`latency_cells`] order.
const LATENCY_COLS: [&str; 5] = ["p50", "p90", "p95", "p99", "max"];

/// The names a measured row's rate column goes by.
const RATE_COLS: [&str; 3] = ["ops/s", "txn/s", "rate"];

impl Report {
    /// Start a report.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Report {
        Report {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
        }
    }

    /// Append the row of one measured cell. `identity` fills the leading
    /// columns in order and `extras` the experiment's own columns by
    /// header name; every other column is a standard measurement cell:
    /// `elapsed`, the latency percentiles, the operation count (`ops`,
    /// `txns` or `commits`) and the rate `ops / elapsed` (`ops/s`,
    /// `txn/s` or `rate`).
    pub fn stats_row(
        &mut self,
        identity: &[String],
        stats: &ConcurrentStats,
        extras: &[(&str, String)],
    ) {
        let ops = stats.total_ops;
        let latency = latency_cells(&stats.latency_histogram(), stats.percentile_us(95.0));
        let cells = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, header)| {
                let header = header.as_str();
                if let Some(cell) = identity.get(i) {
                    cell.clone()
                } else if let Some((_, cell)) = extras.iter().find(|(name, _)| *name == header) {
                    cell.clone()
                } else if let Some(k) = LATENCY_COLS.iter().position(|c| *c == header) {
                    latency[k].clone()
                } else if RATE_COLS.contains(&header) {
                    per_sec(ops, stats.elapsed.as_secs_f64())
                } else if header == "elapsed" {
                    format!("{:?}", stats.elapsed)
                } else if matches!(header, "ops" | "txns" | "commits") {
                    ops.to_string()
                } else {
                    panic!("no cell for column `{header}` in {}", self.title)
                }
            })
            .collect();
        self.row(cells);
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(
            cells.len(),
            self.headers.len(),
            "row width mismatch in {}",
            self.title
        );
        self.rows.push(cells);
    }

    /// Append a note line.
    pub fn note(&mut self, text: impl Into<String>) {
        self.notes.push(text.into());
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let mut line = String::new();
        for (h, w) in self.headers.iter().zip(&widths) {
            let _ = write!(line, "{h:>w$}  ");
        }
        let _ = writeln!(out, "{}", line.trim_end());
        let _ = writeln!(out, "{}", "-".repeat(line.trim_end().len()));
        for row in &self.rows {
            let mut line = String::new();
            for (cell, w) in row.iter().zip(&widths) {
                let _ = write!(line, "{cell:>w$}  ");
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        out
    }

    /// The report as a structured [`Value`]: rows become objects keyed
    /// by header, so `--json` output is self-describing.
    pub fn to_value(&self) -> Value {
        let rows: Vec<Value> = self
            .rows
            .iter()
            .map(|row| {
                Value::Object(
                    self.headers
                        .iter()
                        .zip(row)
                        .map(|(h, cell)| (h.clone(), Value::from(cell.clone())))
                        .collect(),
                )
            })
            .collect();
        Value::Object(
            [
                ("title".to_string(), Value::from(self.title.clone())),
                (
                    "headers".to_string(),
                    Value::Array(
                        self.headers
                            .iter()
                            .map(|h| Value::from(h.clone()))
                            .collect(),
                    ),
                ),
                ("rows".to_string(), Value::Array(rows)),
                (
                    "notes".to_string(),
                    Value::Array(self.notes.iter().map(|n| Value::from(n.clone())).collect()),
                ),
            ]
            .into_iter()
            .collect(),
        )
    }
}

/// The five latency cells every throughput table carries, in header
/// order `p50, p90, p95, p99, max`: four come from one mergeable
/// histogram snapshot (µs units), while `p95_exact` is the exact-sample
/// percentile passed through unchanged.
fn latency_cells(h: &udbms_obs::HistSnapshot, p95_exact: u64) -> [String; 5] {
    [
        us(h.p50() as u128),
        us(h.p90() as u128),
        us(p95_exact as u128),
        us(h.p99() as u128),
        us(h.max as u128),
    ]
}

/// Format microseconds compactly.
pub fn us(micros: u128) -> String {
    if micros >= 10_000 {
        format!("{:.1}ms", micros as f64 / 1000.0)
    } else {
        format!("{micros}µs")
    }
}

/// Format a rate.
pub fn per_sec(count: usize, secs: f64) -> String {
    format!("{:.0}/s", count as f64 / secs.max(1e-9))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_table() {
        let mut r = Report::new("T1 — demo", &["id", "value"]);
        r.row(vec!["a".into(), "1".into()]);
        r.row(vec!["long-id".into(), "22222".into()]);
        r.note("a note");
        let s = r.render();
        assert!(s.contains("== T1 — demo =="));
        assert!(s.contains("long-id"));
        assert!(s.contains("note: a note"));
        // columns right-aligned to the widest cell
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[2].ends_with('1') || lines[3].ends_with('1'));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut r = Report::new("x", &["a", "b"]);
        r.row(vec!["only-one".into()]);
    }

    #[test]
    fn to_value_is_self_describing() {
        let mut r = Report::new("E9 — demo", &["id", "value"]);
        r.row(vec!["a".into(), "1".into()]);
        r.note("n1");
        let v = r.to_value();
        assert_eq!(v.get_field("title"), &Value::from("E9 — demo"));
        let rows = v.get_field("rows").as_array().unwrap();
        assert_eq!(rows[0].get_field("id"), &Value::from("a"));
        assert_eq!(rows[0].get_field("value"), &Value::from("1"));
        // and it serializes to JSON cleanly
        let json = udbms_json::to_string(&v);
        assert!(json.contains("\"rows\""), "{json}");
        assert_eq!(udbms_json::parse(&json).unwrap(), v);
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(us(900), "900µs");
        assert_eq!(us(25_000), "25.0ms");
        assert_eq!(per_sec(500, 2.0), "250/s");
    }

    fn two_second_run(ops: usize) -> ConcurrentStats {
        ConcurrentStats {
            clients: 1,
            total_ops: ops,
            elapsed: std::time::Duration::from_secs(2),
            latencies_us: (1..=100).collect(),
            mode: udbms_driver::RunMode::Closed,
        }
    }

    #[test]
    fn stats_row_fills_identity_then_measurements_by_name() {
        let stats = two_second_run(500);
        let latency = latency_cells(&stats.latency_histogram(), stats.percentile_us(95.0));
        for (count, rate) in [("ops", "ops/s"), ("txns", "txn/s"), ("commits", "rate")] {
            let headers = [
                "op", "clients", count, "elapsed", "p50", "p90", "p95", "p99", "max", "note", rate,
            ];
            let mut r = Report::new("demo", &headers);
            r.stats_row(
                &["read".into(), "4".into()],
                &stats,
                &[("note", "hot".into())],
            );
            let mut expected = vec!["read", "4", "500", "2s"];
            expected.extend(latency.iter().map(String::as_str));
            expected.extend(["hot", "250/s"]);
            assert_eq!(r.rows, [expected], "{count} / {rate}");
        }
    }

    #[test]
    #[should_panic(expected = "no cell for column `bogus` in demo")]
    fn stats_row_panics_naming_an_unfillable_column() {
        let mut r = Report::new("demo", &["op", "bogus", "ops/s"]);
        r.stats_row(&["read".into()], &two_second_run(1), &[]);
    }

    #[test]
    fn latency_cells_carry_the_full_percentile_set() {
        let h = udbms_obs::Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let cells = latency_cells(&h.snapshot(), 95);
        // p95 is the exact-sample passthrough, the rest are histogram
        // percentiles (bucket upper bounds, clamped to the true max)
        assert_eq!(cells[2], "95µs");
        assert_eq!(cells[4], "100µs");
        for cell in &cells {
            assert!(cell.ends_with("µs"), "{cell}");
        }
    }
}
