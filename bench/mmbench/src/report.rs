//! Metric names and units, the result line, and `BENCHMARK.json`.
//!
//! The names here and in `BENCHMARK.json` at the repository root must
//! agree; a unit test holds them together.

use std::path::Path;

use udbms_core::{Error, Result, Value};
use udbms_datagen::workload;

use crate::trace::STAGES;

/// End-to-end metrics `(name, unit)`, printed by a measured run.
const END_TO_END: [(&str, &str); 5] = [
    ("throughput_ops_s", "1/s"),
    ("latency_p50_us", "us"),
    ("latency_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics whose names are not generated, `(name, unit)`.
const PER_LAYER_FIXED: [(&str, &str); 50] = [
    ("json.print_ns_per_kb", "ns/KB"),
    ("json.parse_ns_per_kb", "ns/KB"),
    ("xml.parse_us", "us"),
    ("xml.xpath_first_us", "us"),
    ("wal.append_ns", "ns"),
    ("wal.flush_us", "us"),
    ("wal.bytes_per_record", "B"),
    ("wal.recover_records_s", "1/s"),
    ("group.records_per_batch", "count"),
    ("storage.get_ns.chain1", "ns"),
    ("storage.get_ns.chain16", "ns"),
    ("storage.install_ns", "ns"),
    ("storage.scan_ns_per_row", "ns"),
    ("storage.shard_lock_ns", "ns"),
    ("txn.begin_read_ns", "ns"),
    ("txn.get_shared_ns", "ns"),
    ("txn.put_commit_mem_us", "us"),
    ("txn.put_commit_wal_us", "us"),
    ("txn.order_update_mem_us", "us"),
    ("query.lex_us", "us"),
    ("query.parse_us", "us"),
    ("query.cache_miss_us", "us"),
    ("query.cache_hit_ns", "ns"),
    ("query.bind_us", "us"),
    ("pred.compiled_ns_per_row", "ns"),
    ("pred.interp_ns_per_row", "ns"),
    ("driver.dispatch_ns", "ns"),
    ("driver.transact_us", "us"),
    ("count.commits", "count"),
    ("count.aborts", "count"),
    ("count.txn_retries", "count"),
    ("count.wal_records", "count"),
    ("count.wal_batches", "count"),
    ("count.plan_hits", "count"),
    ("count.plan_misses", "count"),
    ("count.read_txns", "count"),
    ("count.versions", "count"),
    ("count.max_chain_len", "count"),
    ("durable.recovery_s", "s"),
    ("durable.wal_bytes_per_commit", "B"),
    ("client1.throughput_ops_s", "1/s"),
    ("client1.latency_p50_us", "us"),
    ("clients2.throughput_ops_s", "1/s"),
    ("clients2.latency_p50_us", "us"),
    ("tail.pmax_us", "us"),
    ("tail.pmax_percentile", "%"),
    ("attributed_share", "share"),
    ("unattributed_us", "us"),
    ("trace.overhead_share", "share"),
    ("trace.spans", "count"),
];

/// Every end-to-end metric `(name, unit)`, printed by a measured run.
pub fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect()
}

/// Every per-layer metric `(name, unit)`, printed by a traced run.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut all: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect();
    for q in workload::queries() {
        let id = q.id.to_lowercase();
        all.push((format!("query.exec_us.{id}"), "us"));
        all.push((format!("driver.execute_us.{id}"), "us"));
    }
    for stage in STAGES {
        all.push((format!("stage.{}.self_us", stage.name()), "us"));
    }
    all
}

/// The unit `units` gives `name`, or none.
pub fn unit_of(units: &[(String, &'static str)], name: &str) -> &'static str {
    units
        .iter()
        .find(|(n, _)| n == name)
        .map_or("", |(_, unit)| unit)
}

/// What one run found, as the driver reads it.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(String, f64)>,
    /// Why `correct` is false.
    pub error: Option<String>,
}

impl Outcome {
    /// The one JSON object a run prints last. Each metric takes its
    /// unit from `units`, which must name it.
    pub fn to_json(&self, units: &[(String, &'static str)]) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = unit_of(units, name);
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// An end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    /// Share of the median the metric may worsen by.
    pub bound: f64,
}

/// What `mmbench repeat` reads of `BENCHMARK.json`.
#[derive(Debug)]
pub struct Spec {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricSpec>,
}

fn invalid(what: &str) -> Error {
    Error::Invalid(format!("BENCHMARK.json: {what}"))
}

fn list<'a>(doc: &'a Value, key: &str) -> Result<&'a [Value]> {
    doc.get_field(key)
        .as_array()
        .ok_or_else(|| invalid(&format!("`{key}` is not a list")))
}

fn text(v: &Value, key: &str) -> Result<String> {
    Ok(v.get_field(key)
        .as_str()
        .ok_or_else(|| invalid(&format!("`{key}` is not a string")))?
        .to_string())
}

pub fn load_spec(path: &Path) -> Result<Spec> {
    let doc = udbms_json::parse(&std::fs::read_to_string(path)?)?;
    Ok(Spec {
        run_seconds: doc
            .get_field("run_seconds")
            .as_int()
            .ok_or_else(|| invalid("`run_seconds` is not a whole number"))?
            as u64,
        workloads: list(&doc, "workloads")?
            .iter()
            .map(|w| text(w, "name"))
            .collect::<Result<_>>()?,
        end_to_end: list(&doc, "end_to_end")?
            .iter()
            .map(|m| {
                Ok(MetricSpec {
                    name: text(m, "name")?,
                    bound: m
                        .get_field("bound")
                        .as_float()
                        .ok_or_else(|| invalid("`bound` is not a number"))?,
                })
            })
            .collect::<Result<_>>()?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{AdhocParse, PointRw, QueryMix, TxnDurable, Workload};

    /// The names and units the runs print are exactly those
    /// `BENCHMARK.json` lists; the smoke test holds the runs to them.
    #[test]
    fn output_carries_every_name_in_benchmark_json_and_no_other() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
        let doc = udbms_json::parse(&std::fs::read_to_string(&path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let declared = |key: &str| {
            let mut pairs: Vec<(String, String)> = list(&doc, key)
                .expect("a list")
                .iter()
                .map(|m| (text(m, "name").unwrap(), text(m, "unit").unwrap()))
                .collect();
            pairs.sort();
            pairs
        };
        let printed = |units: Vec<(String, &'static str)>| {
            let mut pairs: Vec<(String, String)> =
                units.into_iter().map(|(n, u)| (n, u.to_string())).collect();
            pairs.sort();
            pairs
        };
        assert_eq!(declared("end_to_end"), printed(end_to_end()));
        assert_eq!(declared("per_layer"), printed(per_layer()));

        let spec = load_spec(&path).expect("BENCHMARK.json loads");
        assert_eq!(
            spec.workloads,
            [
                QueryMix::NAME,
                AdhocParse::NAME,
                PointRw::NAME,
                TxnDurable::NAME
            ]
        );
        assert_eq!(spec.end_to_end.len(), END_TO_END.len());
        assert!(spec
            .end_to_end
            .iter()
            .all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    #[test]
    fn result_line_is_one_json_object_with_units() {
        let outcome = Outcome {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics: vec![
                ("setup_s".into(), 0.25),
                ("latency_p50_us".into(), f64::NAN),
            ],
            error: None,
        };
        let parsed = udbms_json::parse(&outcome.to_json(&end_to_end())).expect("valid JSON");
        assert_eq!(parsed.get_field("correct").as_bool(), Some(true));
        assert_eq!(parsed.get_field("attempted").as_int(), Some(10));
        let setup = parsed.get_field("metrics").get_field("setup_s");
        assert_eq!(setup.get_field("value").as_float(), Some(0.25));
        assert_eq!(setup.get_field("unit").as_str(), Some("s"));
    }
}
