//! Plain-text experiment tables, the one row renderer every measured
//! cell goes through ([`Report::stats_row`]), and a machine-readable
//! [`Value`] form for the harness's `--json` output.

use std::fmt::Write as _;

use udbms_core::Value;
use udbms_driver::ConcurrentStats;

use crate::gate::Gate;

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
    /// The gate spec of a gated experiment's report: its leading
    /// columns are the spec's identity columns.
    pub gate: Option<Gate>,
}

/// The latency columns of a measured row, in [`latency_cells`] order.
const LATENCY_COLS: [&str; 5] = ["p50", "p90", "p95", "p99", "max"];

impl Report {
    /// Start a report.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Report {
        Report {
            title: title.into(),
            headers: headers.iter().map(|h| h.to_string()).collect(),
            rows: Vec::new(),
            notes: Vec::new(),
            gate: None,
        }
    }

    /// Start a gated experiment's report: the headers are the gate's
    /// identity columns followed by `rest`, which names the metric
    /// column — so the table cannot disagree with the spec the
    /// regression gate and the results matrix key on.
    pub fn gated(title: impl Into<String>, gate: Gate, rest: &[&str]) -> Report {
        assert!(rest.contains(&gate.metric), "no `{}` column", gate.metric);
        let headers: Vec<&str> = gate.identity.iter().chain(rest).copied().collect();
        Report {
            gate: Some(gate),
            ..Report::new(title, &headers)
        }
    }

    /// Append the row of one measured cell of a [`Report::gated`]
    /// table. `identity` fills the gate's identity columns in spec
    /// order and `extras` the experiment's own columns by header name;
    /// every other column is a standard measurement cell: `elapsed`,
    /// the latency percentiles, the operation count (`ops`, `txns` or
    /// `commits`) and the gated rate `ops / elapsed`.
    pub fn stats_row(
        &mut self,
        identity: &[String],
        ops: usize,
        stats: &ConcurrentStats,
        extras: &[(&str, String)],
    ) {
        let gate = self.gate.expect("stats_row needs a gated report");
        assert_eq!(identity.len(), gate.identity.len(), "{}", self.title);
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
                } else if header == gate.metric {
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
/// percentile passed through unchanged — the legacy column older
/// baselines keyed on stays byte-comparable across this change.
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

/// One cell of the cross-experiment results matrix: the identity of a
/// gated row plus its headline metrics. Built from the same [`Gate`]
/// spec the regression gate keys on, so the matrix and the gate always
/// agree about which rows are load-bearing.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixRow {
    /// Gated experiment id (`e2`, `e6`, `e11`, …).
    pub experiment: String,
    /// The row's gate identity minus the dedicated dist/mode/clients
    /// fields: operation/query/arm names verbatim, any other identity
    /// column as `name:value` (e.g. `read shards:8`).
    pub op: String,
    /// Key distribution label (`uniform`, `zipf(0.99)`) or `-` when the
    /// experiment has no distribution dimension.
    pub dist: String,
    /// Issue mode (`closed` / `open`). Experiments without a mode
    /// column ran closed-loop by construction.
    pub mode: String,
    /// Client thread count (`1` when the experiment is single-client).
    pub clients: String,
    /// The gated throughput cell, verbatim (e.g. `5000/s`).
    pub throughput: String,
    /// p50 latency cell, `-` if the row carries no latency columns.
    pub p50: String,
    /// p99 latency cell, `-` if absent.
    pub p99: String,
    /// Max latency cell, `-` if absent.
    pub max: String,
    /// OCC abort rate cell (`abort%`), `-` if absent.
    pub abort_pct: String,
}

impl MatrixRow {
    /// The row as a structured [`Value`] object for the BENCH JSON.
    pub fn to_value(&self) -> Value {
        Value::Object(
            [
                ("experiment", &self.experiment),
                ("op", &self.op),
                ("dist", &self.dist),
                ("mode", &self.mode),
                ("clients", &self.clients),
                ("throughput", &self.throughput),
                ("p50", &self.p50),
                ("p99", &self.p99),
                ("max", &self.max),
                ("abort%", &self.abort_pct),
            ]
            .into_iter()
            .map(|(k, v)| (k.to_string(), Value::from(v.clone())))
            .collect(),
        )
    }
}

/// A row cell as text, `-` when the column is absent.
fn cell(row: &Value, col: &str) -> String {
    match row.get_field(col) {
        Value::Null => "-".to_string(),
        v => v.display_plain().into_owned(),
    }
}

/// Identity columns that read as an operation name on their own; any
/// other identity column is rendered `name:value` so e.g. E6's shard
/// count or E10's obs toggle stays distinguishable in the flat matrix.
const PRIMARY_ID_COLS: &[&str] = &["op", "query", "arm", "subject"];

/// The row's operation label: every gate-identity column except the
/// ones the matrix carries as dedicated fields, joined in spec order.
fn op_label(row: &Value, identity: &[&str]) -> String {
    let parts: Vec<String> = identity
        .iter()
        .filter(|c| !matches!(**c, "dist" | "mode" | "clients"))
        .filter_map(|c| match row.get_field(c) {
            Value::Null => None,
            v => {
                let text = v.display_plain().into_owned();
                // `-` is the table's explicit "not applicable" cell
                // (e.g. the durability column of E8's recovery rows)
                if text == "-" {
                    return None;
                }
                Some(if PRIMARY_ID_COLS.contains(c) {
                    text
                } else {
                    format!("{c}:{text}")
                })
            }
        })
        .collect();
    if parts.is_empty() {
        "-".to_string()
    } else {
        parts.join(" ")
    }
}

/// Flatten a harness `--json` document into the results matrix: one
/// [`MatrixRow`] per gated report row, in report order. Rows whose
/// throughput cell is missing are skipped (separator/annotation rows).
pub fn matrix_rows(doc: &Value) -> Vec<MatrixRow> {
    let mut out = Vec::new();
    let Some(reports) = doc.get_field("reports").as_array() else {
        return out;
    };
    for report in reports {
        let Some(id) = report.get_field("id").as_str() else {
            continue;
        };
        let Some(Gate { identity, metric }) = Gate::of(id) else {
            continue;
        };
        let Some(rows) = report.get_field("rows").as_array() else {
            continue;
        };
        for row in rows {
            let throughput = match row.get_field(metric) {
                Value::Null => continue,
                v => v.display_plain().into_owned(),
            };
            out.push(MatrixRow {
                experiment: id.to_string(),
                op: op_label(row, identity),
                dist: cell(row, "dist"),
                mode: match row.get_field("mode") {
                    // every experiment without a mode column drives its
                    // subject closed-loop
                    Value::Null => "closed".to_string(),
                    v => v.display_plain().into_owned(),
                },
                clients: match row.get_field("clients") {
                    Value::Null => "1".to_string(),
                    v => v.display_plain().into_owned(),
                },
                throughput,
                p50: cell(row, "p50"),
                p99: cell(row, "p99"),
                max: cell(row, "max"),
                abort_pct: cell(row, "abort%"),
            });
        }
    }
    out
}

/// Render the matrix as a GitHub-flavored markdown table (the shape
/// `$GITHUB_STEP_SUMMARY` consumes). Empty input renders a stub line so
/// the summary never shows a headless table.
pub fn matrix_markdown(rows: &[MatrixRow]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "### Benchmark matrix");
    let _ = writeln!(out);
    if rows.is_empty() {
        let _ = writeln!(out, "_no gated rows in this report_");
        return out;
    }
    let _ = writeln!(
        out,
        "| experiment | op | dist | mode | clients | throughput | p50 | p99 | max | abort% |"
    );
    let _ = writeln!(out, "|---|---|---|---|---|---|---|---|---|---|");
    for r in rows {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {} | {} | {} | {} | {} | {} |",
            r.experiment,
            r.op,
            r.dist,
            r.mode,
            r.clients,
            r.throughput,
            r.p50,
            r.p99,
            r.max,
            r.abort_pct
        );
    }
    out
}

/// Compute the matrix for `doc` and attach it under a top-level
/// `"matrix"` key (replacing any stale one — callers re-attach after
/// merging baselines). No-op if `doc` is not an object.
pub fn attach_matrix(doc: &mut Value) {
    let rows: Vec<Value> = matrix_rows(doc).iter().map(MatrixRow::to_value).collect();
    if let Some(obj) = doc.as_object_mut() {
        obj.insert("matrix".to_string(), Value::Array(rows));
    }
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

    #[test]
    fn matrix_flattens_gated_rows_and_renders_markdown() {
        let doc = udbms_core::obj! {
            "reports" => Value::Array(vec![
                udbms_core::obj! {"id" => "e6", "rows" => Value::Array(vec![
                    udbms_core::obj! {"op" => "read", "dist" => "uniform",
                          "shards" => "8", "clients" => "8", "p50" => "12µs",
                          "p99" => "40µs", "max" => "90µs", "ops/s" => "5000/s"},
                ])},
                udbms_core::obj! {"id" => "e11", "rows" => Value::Array(vec![
                    udbms_core::obj! {"op" => "update", "dist" => "zipf(0.99)",
                          "mode" => "open", "clients" => "8", "p50" => "30µs",
                          "p99" => "2.1ms", "max" => "5.0ms", "abort%" => "12.5%",
                          "rate" => "2500/s"},
                ])},
                // not in GATED → not in the matrix
                udbms_core::obj! {"id" => "e5", "rows" => Value::Array(vec![
                    udbms_core::obj! {"task" => "x", "records/s" => "1/s"},
                ])},
            ])
        };
        let rows = matrix_rows(&doc);
        assert_eq!(rows.len(), 2);
        // experiments without dist/mode columns get the closed-loop
        // defaults; latency and abort cells pass through verbatim
        assert_eq!(rows[0].experiment, "e6");
        // non-primary identity columns (here the shard count) fold into
        // the op label name-prefixed, so 1-shard and 8-shard cells stay
        // distinguishable in the flat matrix
        assert_eq!(rows[0].op, "read shards:8");
        assert_eq!(rows[0].mode, "closed");
        assert_eq!(rows[0].throughput, "5000/s");
        assert_eq!(rows[0].abort_pct, "-");
        assert_eq!(rows[1].experiment, "e11");
        assert_eq!(rows[1].mode, "open");
        assert_eq!(rows[1].throughput, "2500/s");
        assert_eq!(rows[1].abort_pct, "12.5%");

        let md = matrix_markdown(&rows);
        assert!(md.starts_with("### Benchmark matrix"));
        assert!(md.contains("| e6 | read shards:8 | uniform | closed | 8 | 5000/s |"));
        assert!(md.contains("| e11 | update | zipf(0.99) | open | 8 | 2500/s |"));
        assert!(!md.contains("e5"));
        assert!(matrix_markdown(&[]).contains("no gated rows"));
    }

    #[test]
    fn attach_matrix_embeds_rows_in_the_doc() {
        let mut doc = udbms_core::obj! {
            "reports" => Value::Array(vec![
                udbms_core::obj! {"id" => "e9", "rows" => Value::Array(vec![
                    udbms_core::obj! {"op" => "point-get", "arm" => "lane-arc",
                          "clients" => "4", "rate" => "90000/s"},
                ])},
            ])
        };
        attach_matrix(&mut doc);
        let matrix = doc.get_field("matrix").as_array().expect("matrix array");
        assert_eq!(matrix.len(), 1);
        assert_eq!(matrix[0].get_field("experiment"), &Value::from("e9"));
        assert_eq!(
            matrix[0].get_field("op"),
            &Value::from("point-get lane-arc")
        );
        assert_eq!(matrix[0].get_field("throughput"), &Value::from("90000/s"));
        // re-attach replaces, never duplicates
        attach_matrix(&mut doc);
        assert_eq!(doc.get_field("matrix").as_array().map(|a| a.len()), Some(1));
        // and the doc still serializes
        let json = udbms_json::to_string(&doc);
        assert_eq!(udbms_json::parse(&json).unwrap(), doc);
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
