//! The CI bench-regression gate: compares a `harness --json` report
//! against the committed `bench/baseline.json` and fails when any gated
//! throughput metric regresses beyond tolerance.
//!
//! CI machines differ in absolute speed, so raw ops/s comparisons
//! against a baseline recorded elsewhere would gate on hardware, not on
//! code. The gate therefore normalizes by the **median ratio**: for
//! every metric shared by both reports it computes `current/baseline`,
//! takes the median of those ratios as the machine-speed factor, and
//! fails a metric only when its ratio falls more than `tolerance`
//! (default 20%) below that median — i.e. when *that* metric regressed
//! relative to everything else, which a uniformly slower runner cannot
//! cause.
//!
//! Scheduler noise on small cells is tamed by **best-of-N**: the gate
//! accepts several current reports (CI runs the harness three times)
//! and scores each metric by its best observed throughput — a real
//! regression depresses every run, while a noise spike depresses one.

use udbms_core::Value;

/// What makes an experiment's rows gate metrics. A metric key is the
/// report id plus the identity cells; the metric is the throughput
/// cell parsed from its `"123/s"` form. Each gated experiment declares
/// its spec once, in [`crate::experiments::EXPERIMENTS`]: its table
/// header ([`crate::Report::gated`]), this gate and the matrix renderer
/// ([`crate::report::matrix_rows`]) all read that one declaration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gate {
    /// The columns whose cells identify a row across runs.
    pub identity: &'static [&'static str],
    /// The throughput column.
    pub metric: &'static str,
}

impl Gate {
    /// The spec of experiment `id`; `None` when it is unknown or not gated.
    pub fn of(id: &str) -> Option<Gate> {
        let (_, _, gate) = crate::experiments::EXPERIMENTS
            .iter()
            .find(|(eid, _, _)| *eid == id)?;
        *gate
    }

    /// The metric key of one `--json` row of report `id`.
    pub fn key(&self, id: &str, row: &Value) -> String {
        let mut key = String::from(id);
        for col in self.identity {
            key.push(':');
            key.push_str(&row.get_field(col).display_plain());
        }
        key
    }
}

/// The fraction of the obs-off rate the obs-on filter-scan arm must
/// keep: recording may cost at most 5% on the E10 hot-scan cells.
const OBS_OVERHEAD_FLOOR: f64 = 0.95;

/// The E10 obs-overhead hard check: within the *current* reports (no
/// baseline involved — both arms ran on the same machine seconds
/// apart), the obs-enabled filter-scan rate must stay within
/// [`OBS_OVERHEAD_FLOOR`] of the obs-disabled rate at every client
/// count. Returns one failure string per violated cell.
pub fn obs_overhead_failures(current: &[Value]) -> Vec<String> {
    let best: std::collections::HashMap<String, f64> = best_metrics(current).into_iter().collect();
    let mut out = Vec::new();
    for (key, on_rate) in &best {
        let Some(clients) = key.strip_prefix("e10:filter-scan:on:") else {
            continue;
        };
        let off_key = format!("e10:filter-scan:off:{clients}");
        let Some(off_rate) = best.get(&off_key) else {
            continue;
        };
        if *on_rate < OBS_OVERHEAD_FLOOR * off_rate {
            out.push(format!(
                "obs overhead on filter-scan @ {clients} client(s): enabled {on_rate:.0}/s is \
                 {:.1}% of disabled {off_rate:.0}/s (floor {:.0}%)",
                100.0 * on_rate / off_rate,
                100.0 * OBS_OVERHEAD_FLOOR
            ));
        }
    }
    out.sort();
    out
}

/// Result of one gate comparison.
#[derive(Debug)]
pub struct GateOutcome {
    /// Metrics compared (shared between baseline and current).
    pub checked: usize,
    /// Median `current/baseline` ratio across the compared metrics (the
    /// machine-speed normalization factor); 1.0 when nothing compared.
    pub median_ratio: f64,
    /// Human-readable failures (empty = gate passed).
    pub failures: Vec<String>,
    /// Informational notes (new metrics, skipped cells…).
    pub notes: Vec<String>,
}

impl GateOutcome {
    /// Whether the gate passed.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Parse a `"1234/s"` throughput cell.
fn parse_rate(cell: &str) -> Option<f64> {
    cell.trim().strip_suffix("/s")?.trim().parse().ok()
}

/// Best-of merge: `key → max throughput` across several harness `--json`
/// documents (one entry per key, in first-seen order).
pub fn best_metrics(docs: &[Value]) -> Vec<(String, f64)> {
    let mut order: Vec<String> = Vec::new();
    let mut best: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
    for doc in docs {
        for (key, rate) in metrics_of(doc) {
            match best.get_mut(&key) {
                Some(cur) => *cur = cur.max(rate),
                None => {
                    order.push(key.clone());
                    best.insert(key, rate);
                }
            }
        }
    }
    order
        .into_iter()
        .map(|k| (best[&k], k))
        .map(|(v, k)| (k, v))
        .collect()
}

/// Extract `key → throughput` for every gated row of a harness `--json`
/// document.
pub fn metrics_of(doc: &Value) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let Some(reports) = doc.get_field("reports").as_array() else {
        return out;
    };
    for report in reports {
        let id = report.get_field("id");
        let Some(id) = id.as_str() else { continue };
        let Some(gate) = Gate::of(id) else { continue };
        let Some(rows) = report.get_field("rows").as_array() else {
            continue;
        };
        for row in rows {
            if let Some(rate) = row.get_field(gate.metric).as_str().and_then(parse_rate) {
                out.push((gate.key(id, row), rate));
            }
        }
    }
    out
}

/// Merge several harness `--json` documents into one baseline document:
/// the first document's structure with every gated throughput cell
/// replaced by the best rate observed for its metric across all
/// documents. Committing a merged baseline keeps single-run scheduler
/// stalls out of the reference — a spike recorded into the baseline
/// would depress that metric's future ratios and fail the gate on
/// healthy code.
pub fn merged_baseline(docs: &[Value]) -> Option<Value> {
    let first = docs.first()?;
    let best: std::collections::HashMap<String, f64> = best_metrics(docs).into_iter().collect();
    let mut out = first.clone();
    let reports = out.as_object_mut()?.get_mut("reports")?.as_array_mut()?;
    for report in reports {
        let Some((id, gate)) = report
            .get_field("id")
            .as_str()
            .and_then(|id| Some((id.to_string(), Gate::of(id)?)))
        else {
            continue;
        };
        let Some(rows) = report
            .as_object_mut()
            .and_then(|o| o.get_mut("rows"))
            .and_then(Value::as_array_mut)
        else {
            continue;
        };
        for row in rows {
            let key = gate.key(&id, row);
            if let (Some(rate), Some(obj)) = (best.get(&key), row.as_object_mut()) {
                obj.insert(gate.metric.to_string(), Value::from(format!("{rate:.0}/s")));
            }
        }
    }
    Some(out)
}

/// Compare current harness `--json` documents (scored best-of when more
/// than one) against a baseline one. `tolerance` is the allowed
/// fractional shortfall below the median ratio (0.2 = a metric may run
/// 20% worse than the machine-speed normalized expectation before the
/// gate fails).
pub fn compare_reports(baseline: &Value, current: &[Value], tolerance: f64) -> GateOutcome {
    let base = metrics_of(baseline);
    let cur = best_metrics(current);
    let cur_map: std::collections::HashMap<&str, f64> =
        cur.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    let base_keys: std::collections::HashSet<&str> = base.iter().map(|(k, _)| k.as_str()).collect();

    let mut outcome = GateOutcome {
        checked: 0,
        median_ratio: 1.0,
        failures: Vec::new(),
        notes: Vec::new(),
    };
    // one-pass key census: every extra and missing key is collected and
    // reported as one consolidated line each. A renamed experiment then
    // reads as "N disappeared: [old keys]" next to "N new: [new keys]"
    // in a single gate run, instead of surfacing one confusing
    // note-per-key drip across reruns.
    let extra: Vec<&str> = cur
        .iter()
        .map(|(k, _)| k.as_str())
        .filter(|k| !base_keys.contains(k))
        .collect();
    if !extra.is_empty() {
        outcome.notes.push(format!(
            "{} new metric(s) not in baseline: {}",
            extra.len(),
            extra.join(", ")
        ));
    }
    let missing: Vec<&str> = base
        .iter()
        .map(|(k, _)| k.as_str())
        .filter(|k| !cur_map.contains_key(k))
        .collect();
    if !missing.is_empty() {
        outcome.failures.push(format!(
            "{} baseline metric(s) disappeared from report (renamed or removed?): {}",
            missing.len(),
            missing.join(", ")
        ));
    }

    // ratios for metrics present in both documents; a zero or
    // non-finite baseline rate (a stalled run committed into the
    // baseline, or a hand-edited cell) must be skipped with a named
    // warning, not divided by — the ratio would be NaN/∞ and poison the
    // median (this used to panic the whole gate)
    let mut shared: Vec<(&str, f64, f64)> = Vec::new(); // (key, base, ratio)
    for (key, base_rate) in &base {
        let Some(&cur_rate) = cur_map.get(key.as_str()) else {
            continue; // already reported in the consolidated census
        };
        if !base_rate.is_finite() || *base_rate <= 0.0 {
            outcome.notes.push(format!(
                "skipped zero/non-finite baseline rate ({base_rate}/s): {key}"
            ));
            continue;
        }
        let ratio = cur_rate / base_rate;
        if !ratio.is_finite() {
            outcome.notes.push(format!(
                "skipped non-finite current/baseline ratio ({cur_rate}/s vs {base_rate}/s): {key}"
            ));
            continue;
        }
        shared.push((key, *base_rate, ratio));
    }
    if shared.is_empty() {
        if outcome.failures.is_empty() {
            outcome.notes.push("no shared metrics to compare".into());
        }
        return outcome;
    }
    let mut ratios: Vec<f64> = shared.iter().map(|(_, _, r)| *r).collect();
    ratios.sort_by(f64::total_cmp);
    let median = ratios[ratios.len() / 2];
    outcome.median_ratio = median;
    outcome.checked = shared.len();

    let floor = median * (1.0 - tolerance);
    for (key, base_rate, ratio) in shared {
        if ratio < floor {
            outcome.failures.push(format!(
                "{key}: {:.0}% of machine-normalized baseline (ratio {ratio:.3} vs median {median:.3}, floor {floor:.3}; baseline {base_rate:.0}/s)",
                100.0 * ratio / median
            ));
        }
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use udbms_core::obj;

    fn doc(id: &str, rows: Vec<Value>) -> Value {
        obj! {
            "reports" => Value::Array(vec![obj! {
                "id" => id,
                "rows" => Value::Array(rows),
            }]),
        }
    }

    fn e2_row(query: &str, subject: &str, rate: &str) -> Value {
        obj! {"query" => query, "subject" => subject, "ops/s" => rate}
    }

    #[test]
    fn parses_rates() {
        assert_eq!(parse_rate("1234/s"), Some(1234.0));
        assert_eq!(parse_rate(" 12.5/s "), Some(12.5));
        assert_eq!(parse_rate("-"), None);
        assert_eq!(parse_rate("12ms"), None);
    }

    #[test]
    fn identical_reports_pass() {
        let d = doc(
            "e2",
            vec![
                e2_row("Q1", "unified", "1000/s"),
                e2_row("Q2", "unified", "500/s"),
            ],
        );
        let out = compare_reports(&d, std::slice::from_ref(&d), 0.2);
        assert!(out.passed(), "{:?}", out.failures);
        assert_eq!(out.checked, 2);
        assert!((out.median_ratio - 1.0).abs() < 1e-9);
    }

    #[test]
    fn uniformly_slower_machine_passes() {
        let base = doc(
            "e2",
            vec![
                e2_row("Q1", "unified", "1000/s"),
                e2_row("Q2", "unified", "500/s"),
            ],
        );
        // everything exactly 3x slower: a slower runner, not a regression
        let cur = doc(
            "e2",
            vec![
                e2_row("Q1", "unified", "333/s"),
                e2_row("Q2", "unified", "167/s"),
            ],
        );
        let out = compare_reports(&base, std::slice::from_ref(&cur), 0.2);
        assert!(out.passed(), "{:?}", out.failures);
    }

    #[test]
    fn single_metric_regression_fails() {
        let rows = |q3: &str| {
            vec![
                e2_row("Q1", "unified", "1000/s"),
                e2_row("Q2", "unified", "1000/s"),
                e2_row("Q3", "unified", q3),
                e2_row("Q4", "unified", "1000/s"),
                e2_row("Q5", "unified", "1000/s"),
            ]
        };
        let base = doc("e2", rows("1000/s"));
        let cur = doc("e2", rows("100/s"));
        let out = compare_reports(&base, std::slice::from_ref(&cur), 0.2);
        assert!(!out.passed());
        assert_eq!(out.failures.len(), 1);
        assert!(
            out.failures[0].contains("e2:Q3:unified"),
            "{:?}",
            out.failures
        );
    }

    #[test]
    fn missing_metric_fails_and_new_metric_notes() {
        let base = doc(
            "e2",
            vec![
                e2_row("Q1", "unified", "1000/s"),
                e2_row("Q2", "unified", "900/s"),
            ],
        );
        let cur = doc(
            "e2",
            vec![
                e2_row("Q1", "unified", "1000/s"),
                e2_row("Q9", "unified", "900/s"),
            ],
        );
        let out = compare_reports(&base, std::slice::from_ref(&cur), 0.2);
        assert!(!out.passed());
        assert!(out.failures[0].contains("disappeared"));
        assert!(out.notes.iter().any(|n| n.contains("new metric")));
    }

    #[test]
    fn non_gated_reports_are_ignored() {
        let base = doc("e1", vec![obj! {"scale" => "0.1", "entities/s" => "100/s"}]);
        let out = compare_reports(&base, std::slice::from_ref(&base), 0.2);
        assert_eq!(out.checked, 0);
        assert!(out.passed());
    }

    #[test]
    fn e4a_e6_and_e8_rows_are_gated() {
        let d = obj! {
            "reports" => Value::Array(vec![
                obj! {"id" => "e4a", "rows" => Value::Array(vec![
                    obj! {"subject" => "unified", "iso" => "SI", "clients" => "4",
                          "theta" => "0.9", "txn/s" => "250/s"},
                ])},
                obj! {"id" => "e6", "rows" => Value::Array(vec![
                    obj! {"op" => "read", "dist" => "uniform", "shards" => "8",
                          "clients" => "8", "ops/s" => "5000/s"},
                ])},
                obj! {"id" => "e8", "rows" => Value::Array(vec![
                    obj! {"arm" => "group-commit", "durability" => "flush",
                          "clients" => "8", "rate" => "4000/s"},
                ])},
            ]),
        };
        let out = compare_reports(&d, std::slice::from_ref(&d), 0.2);
        assert_eq!(out.checked, 3);
        assert!(out.passed());
    }

    #[test]
    fn zero_and_non_finite_baselines_skip_with_warning_instead_of_panicking() {
        // a stalled run recorded a 0/s cell and a hand-edited baseline
        // carries a nan cell: both used to reach the median sort (nan
        // via `NaN <= 0.0` being false) and panic the gate binary
        let base = doc(
            "e2",
            vec![
                e2_row("Q1", "unified", "1000/s"),
                e2_row("Q2", "unified", "0/s"),
                e2_row("Q3", "unified", "nan/s"),
                e2_row("Q4", "unified", "inf/s"),
            ],
        );
        let cur = doc(
            "e2",
            vec![
                e2_row("Q1", "unified", "1000/s"),
                e2_row("Q2", "unified", "500/s"),
                e2_row("Q3", "unified", "500/s"),
                e2_row("Q4", "unified", "500/s"),
            ],
        );
        let out = compare_reports(&base, std::slice::from_ref(&cur), 0.2);
        assert!(out.passed(), "{:?}", out.failures);
        assert_eq!(out.checked, 1, "only the finite positive baseline counts");
        let skips: Vec<&String> = out
            .notes
            .iter()
            .filter(|n| n.contains("zero/non-finite baseline"))
            .collect();
        assert_eq!(skips.len(), 3, "{:?}", out.notes);
        assert!(skips.iter().any(|n| n.contains("e2:Q2:unified")));
    }

    #[test]
    fn non_finite_current_ratio_skips_with_warning() {
        let base = doc("e2", vec![e2_row("Q1", "unified", "1000/s")]);
        let cur = doc("e2", vec![e2_row("Q1", "unified", "inf/s")]);
        let out = compare_reports(&base, std::slice::from_ref(&cur), 0.2);
        assert!(out.passed(), "{:?}", out.failures);
        assert_eq!(out.checked, 0);
        assert!(out
            .notes
            .iter()
            .any(|n| n.contains("non-finite current/baseline ratio")));
    }

    #[test]
    fn renamed_experiment_reports_every_key_in_one_pass() {
        let base = doc(
            "e2",
            vec![
                e2_row("Q1", "unified", "1000/s"),
                e2_row("Q2", "unified", "900/s"),
                e2_row("Q3", "unified", "800/s"),
            ],
        );
        // every key renamed (say the experiment's identity column moved)
        let cur = doc(
            "e2",
            vec![
                e2_row("R1", "unified", "1000/s"),
                e2_row("R2", "unified", "900/s"),
                e2_row("R3", "unified", "800/s"),
            ],
        );
        let out = compare_reports(&base, std::slice::from_ref(&cur), 0.2);
        assert!(!out.passed());
        // ONE failure naming all three missing keys, ONE note naming
        // all three new keys — not a drip of one line per key
        assert_eq!(out.failures.len(), 1, "{:?}", out.failures);
        for old in ["e2:Q1:unified", "e2:Q2:unified", "e2:Q3:unified"] {
            assert!(out.failures[0].contains(old), "{:?}", out.failures);
        }
        assert!(out.failures[0].contains("3 baseline metric(s)"));
        let new_notes: Vec<&String> = out
            .notes
            .iter()
            .filter(|n| n.contains("new metric"))
            .collect();
        assert_eq!(new_notes.len(), 1, "{:?}", out.notes);
        for new in ["e2:R1:unified", "e2:R2:unified", "e2:R3:unified"] {
            assert!(new_notes[0].contains(new), "{:?}", out.notes);
        }
    }

    #[test]
    fn e11_rows_are_gated_by_op_dist_mode_clients() {
        let d = doc(
            "e11",
            vec![
                obj! {"op" => "update", "dist" => "zipf(0.99)", "mode" => "closed",
                "clients" => "8", "rate" => "4000/s"},
                obj! {"op" => "read", "dist" => "zipf(0.99)", "mode" => "open",
                "clients" => "8", "rate" => "2000/s"},
            ],
        );
        let out = compare_reports(&d, std::slice::from_ref(&d), 0.2);
        assert_eq!(out.checked, 2);
        assert!(out.passed());
        let keys: Vec<String> = metrics_of(&d).into_iter().map(|(k, _)| k).collect();
        assert!(keys.contains(&"e11:update:zipf(0.99):closed:8".to_string()));
        assert!(keys.contains(&"e11:read:zipf(0.99):open:8".to_string()));
    }

    fn e10_row(op: &str, obs: &str, clients: &str, rate: &str) -> Value {
        obj! {"op" => op, "obs" => obs, "clients" => clients, "rate" => rate}
    }

    #[test]
    fn e10_rows_are_gated() {
        let d = doc(
            "e10",
            vec![
                e10_row("filter-scan", "on", "2", "1000/s"),
                e10_row("filter-scan", "off", "2", "1000/s"),
            ],
        );
        let out = compare_reports(&d, std::slice::from_ref(&d), 0.2);
        assert_eq!(out.checked, 2);
        assert!(out.passed());
    }

    #[test]
    fn obs_overhead_within_five_percent_passes() {
        let d = doc(
            "e10",
            vec![
                e10_row("filter-scan", "on", "1", "970/s"),
                e10_row("filter-scan", "off", "1", "1000/s"),
                e10_row("point-get", "on", "1", "500/s"),
                e10_row("point-get", "off", "1", "1000/s"), // point-get is not hard-checked
            ],
        );
        assert!(obs_overhead_failures(std::slice::from_ref(&d)).is_empty());
    }

    #[test]
    fn obs_overhead_beyond_five_percent_fails_per_client_arm() {
        let d = doc(
            "e10",
            vec![
                e10_row("filter-scan", "on", "1", "800/s"),
                e10_row("filter-scan", "off", "1", "1000/s"),
                e10_row("filter-scan", "on", "8", "990/s"),
                e10_row("filter-scan", "off", "8", "1000/s"),
            ],
        );
        let fails = obs_overhead_failures(std::slice::from_ref(&d));
        assert_eq!(fails.len(), 1, "{fails:?}");
        assert!(fails[0].contains("@ 1 client(s)"), "{fails:?}");
        assert!(fails[0].contains("80.0%"), "{fails:?}");
    }

    #[test]
    fn obs_overhead_check_scores_best_of_runs() {
        // run A's on-arm stalled; run B's is healthy — best-of passes
        let run_a = doc(
            "e10",
            vec![
                e10_row("filter-scan", "on", "1", "700/s"),
                e10_row("filter-scan", "off", "1", "1000/s"),
            ],
        );
        let run_b = doc(
            "e10",
            vec![
                e10_row("filter-scan", "on", "1", "990/s"),
                e10_row("filter-scan", "off", "1", "1000/s"),
            ],
        );
        assert!(obs_overhead_failures(std::slice::from_ref(&run_a)).len() == 1);
        assert!(obs_overhead_failures(&[run_a, run_b]).is_empty());
    }

    #[test]
    fn merged_baseline_takes_best_per_metric() {
        let run_a = doc(
            "e2",
            vec![
                e2_row("Q1", "unified", "400/s"),
                e2_row("Q2", "unified", "1000/s"),
            ],
        );
        let run_b = doc(
            "e2",
            vec![
                e2_row("Q1", "unified", "1000/s"),
                e2_row("Q2", "unified", "400/s"),
            ],
        );
        let merged = merged_baseline(&[run_a.clone(), run_b.clone()]).unwrap();
        let rates: std::collections::HashMap<String, f64> =
            metrics_of(&merged).into_iter().collect();
        assert_eq!(rates["e2:Q1:unified"], 1000.0);
        assert_eq!(rates["e2:Q2:unified"], 1000.0);
        // both noisy runs pass against the merged reference
        assert!(compare_reports(&merged, &[run_a, run_b], 0.2).passed());
        assert!(merged_baseline(&[]).is_none());
    }

    #[test]
    fn best_of_runs_shields_noise_spikes() {
        let base = doc(
            "e2",
            vec![
                e2_row("Q1", "unified", "1000/s"),
                e2_row("Q2", "unified", "1000/s"),
            ],
        );
        // run A: Q1 hit a scheduler stall; run B: Q2 did — best-of passes
        let run_a = doc(
            "e2",
            vec![
                e2_row("Q1", "unified", "400/s"),
                e2_row("Q2", "unified", "1000/s"),
            ],
        );
        let run_b = doc(
            "e2",
            vec![
                e2_row("Q1", "unified", "1000/s"),
                e2_row("Q2", "unified", "400/s"),
            ],
        );
        let out = compare_reports(&base, &[run_a.clone(), run_b.clone()], 0.2);
        assert!(out.passed(), "{:?}", out.failures);
        // a single depressed run alone would fail
        let out = compare_reports(&base, std::slice::from_ref(&run_a), 0.2);
        assert!(!out.passed());
    }
}
