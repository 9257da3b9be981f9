//! `mmbench repeat --sets K`: whole sets of measured runs back to back,
//! and how far each end-to-end metric moves between them.
//!
//! A set is one measured run of every workload, each in a process of
//! its own, with the set's seed. The report goes to standard output as
//! JSON (committed as `REPEATABILITY.json`); the run fails if a spread
//! exceeds the bound `BENCHMARK.json` gives the metric.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use udbms_core::{obj, Error, Result, Value};

use crate::measure::median;
use crate::report::{load_spec, MetricSpec};

/// Python's `statistics.quantiles(values, n=4)`: the three quartiles by
/// the exclusive method. `sorted` is ascending and holds two or more.
pub fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// How far `values` spread, as shares of their median: `(max − min)`
/// and, from four values up, the distance between the quartiles.
pub fn spreads(values: &[f64]) -> (f64, f64, Option<f64>) {
    let mut sorted = values.to_vec();
    let mid = median(&mut sorted);
    let range = (sorted[sorted.len() - 1] - sorted[0]) / mid;
    let iqr = (sorted.len() >= 4).then(|| {
        let [q1, _, q3] = quartiles(&sorted);
        (q3 - q1) / mid
    });
    (mid, range, iqr)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// What the numbers were taken on.
fn fingerprint() -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split(':').nth(1)?.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    obj! {
        "nproc" => std::thread::available_parallelism().map_or(0, |n| n.get()),
        "cpu_model" => cpu,
        "rustc" => command_line("rustc", &["--version"]),
        "git_sha" => command_line("git", &["rev-parse", "HEAD"]),
    }
}

/// One measured run in a process of its own; its metrics by name.
fn run_once(workload: &str, seed: u64, seconds: f64) -> Result<BTreeMap<String, f64>> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .stderr(std::process::Stdio::null())
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result = udbms_json::parse(last)?;
    if !output.status.success() || result.get_field("correct").as_bool() != Some(true) {
        return Err(Error::Invalid(format!(
            "{workload} seed {seed} was not correct: {last}"
        )));
    }
    let metrics = result
        .get_field("metrics")
        .as_object()
        .ok_or_else(|| Error::Invalid(format!("{workload}: no metrics in `{last}`")))?;
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), m.get_field("value").as_float()?)))
        .collect())
}

/// Run `sets` sets and print the report. `Ok(false)` if any end-to-end
/// metric spread beyond its bound (`setup_s` is reported, not judged:
/// its median is what a later change is held to).
pub fn run(sets: usize, seconds: Option<f64>) -> Result<bool> {
    let spec = load_spec(Path::new("BENCHMARK.json"))?;
    let seconds = seconds.unwrap_or(spec.run_seconds as f64);
    let sets = sets.max(2);
    // values[workload][metric] over the sets
    let mut values: BTreeMap<&str, BTreeMap<String, Vec<f64>>> = BTreeMap::new();
    for set in 0..sets {
        for workload in &spec.workloads {
            eprintln!("set {}/{sets}: {workload}", set + 1);
            for (name, value) in run_once(workload, set as u64 + 1, seconds)? {
                values
                    .entry(workload)
                    .or_default()
                    .entry(name)
                    .or_default()
                    .push(value);
            }
        }
    }

    let mut within = true;
    let mut rows = Vec::new();
    for (workload, metrics) in &values {
        for MetricSpec { name, bound, .. } in &spec.end_to_end {
            let observed = metrics
                .get(name)
                .ok_or_else(|| Error::Invalid(format!("{workload} did not print {name}")))?;
            let (mid, range, iqr) = spreads(observed);
            let bound = *bound;
            let ok = name == "setup_s" || iqr.unwrap_or(range) <= bound;
            within &= ok;
            eprintln!(
                "{workload:<12} {name:<18} median {mid:>14.4}  (max-min)/median {range:>7.4}  \
                 iqr/median {:>7.4}  bound {bound:.2}  {}",
                iqr.unwrap_or(f64::NAN),
                if ok { "ok" } else { "EXCEEDED" }
            );
            rows.push(obj! {
                "workload" => *workload,
                "metric" => name.as_str(),
                "median" => mid,
                "range_share" => range,
                "iqr_share" => iqr.map_or(Value::Null, Value::from),
                "bound" => bound,
                "within_bound" => ok,
                "values" => observed.iter().copied().map(Value::from).collect::<Vec<_>>(),
            });
        }
    }
    let report = obj! {
        "sets" => sets,
        "seconds" => seconds,
        "seeds" => format!("1..={sets}"),
        "machine" => fingerprint(),
        "within_bounds" => within,
        "spreads" => rows,
    };
    println!("{}", udbms_json::to_string_pretty(&report));
    Ok(within)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 3, 4, 10], n=4)
        assert_eq!(quartiles(&[1.0, 3.0, 4.0, 10.0]), [1.5, 3.5, 8.5]);
        // statistics.quantiles([2, 8], n=4)
        assert_eq!(quartiles(&[2.0, 8.0]), [0.5, 5.0, 9.5]);
    }

    #[test]
    fn spreads_are_shares_of_the_median() {
        let (mid, range, iqr) = spreads(&[110.0, 90.0]);
        assert_eq!((mid, range, iqr), (100.0, 0.2, None));
        let (mid, range, iqr) = spreads(&[4.0, 1.0, 10.0, 3.0]);
        assert_eq!(mid, 3.5);
        assert_eq!(range, 9.0 / 3.5);
        assert_eq!(iqr, Some(7.0 / 3.5));
    }
}
