//! The experiment harness: runs the experiments of
//! [`udbms_bench::EXPERIMENTS`] and prints their tables.
//!
//! ```sh
//! cargo run --release -p udbms-bench --bin harness            # everything, full profile
//! cargo run --release -p udbms-bench --bin harness -- --quick # CI-sized
//! cargo run --release -p udbms-bench --bin harness -- e2 e4a  # selected experiments
//! cargo run --release -p udbms-bench --bin harness -- --clients 8 --shards 8 e2
//! cargo run --release -p udbms-bench --bin harness -- --json out.json e2 e4a
//! cargo run --release -p udbms-bench --bin harness -- --durability flush e8
//! cargo run --release -p udbms-bench --bin harness -- e8 --json
//! ```
//!
//! `--clients N` sets the concurrent client threads the client-driven
//! experiments (E2, E4a, E8, E10, E11, E12) use; `--shards N` sets the
//! storage shard count of every engine they construct; `--durability
//! LEVEL` (buffered/flush/fsync) restricts the E8 durability sweep to
//! one level (default: all three); `--mode open|closed` restricts E11
//! to one issue mode (default: both arms); `--json [path]`
//! additionally writes every produced report as machine-readable JSON
//! under a `"reports"` key, next to the whole run profile as top-level
//! keys, so a report can be reproduced from itself (an explicit path
//! must end in `.json` — that suffix is what tells a path apart from an
//! experiment id; default `bench-report.json`). Experiments select by
//! bare id. E11's open-loop target (half the matching closed cell's
//! measured rate) and E12's fault seed and retry budget are fixed; E12's
//! title prints the last two.
//!
//! The experiments check their own results as they run (E8's exact
//! recovery prefix, E12's fault story); a failed check panics the run,
//! so a zero exit status means every selected experiment held.

use udbms_bench::{select, ModeFilter, RunScale};
use udbms_core::Value;
use udbms_driver::Durability;

/// The value of the flag at `args[*i]`: the next argument, through
/// `parse`. A missing, flag-like or unparseable value exits 2 saying
/// what the flag `needs`.
fn flag_value<T>(
    args: &[String],
    i: &mut usize,
    needs: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> T {
    let flag = &args[*i];
    *i += 1;
    args.get(*i)
        .filter(|v| !v.starts_with("--"))
        .and_then(|v| parse(v))
        .unwrap_or_else(|| die(&format!("{flag} needs {needs}")))
}

/// The run profile, one `(name, value)` per setting: the banner and the
/// `--json` header both print this list, so neither can omit a setting
/// the other shows.
fn profile(quick: bool, scale: &RunScale) -> Vec<(&'static str, Value)> {
    let int = |n: usize| Value::Int(n as i64);
    vec![
        ("profile", Value::from(if quick { "quick" } else { "full" })),
        ("sf", Value::Float(scale.sf)),
        ("reps", int(scale.reps)),
        ("trials", int(scale.trials)),
        ("clients", int(scale.clients)),
        ("shards", int(scale.shards)),
        (
            "durability",
            Value::from(
                scale
                    .durability
                    .map_or("all".to_string(), |d| d.to_string()),
            ),
        ),
        (
            "mode",
            Value::from(match scale.mode {
                None => "both",
                Some(ModeFilter::Closed) => "closed",
                Some(ModeFilter::Open) => "open",
            }),
        ),
    ]
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut scale = if quick {
        RunScale::quick()
    } else {
        RunScale::full()
    };

    let positive = |v: &str| v.parse::<usize>().ok().filter(|n| *n > 0);
    let mut wanted: Vec<&str> = Vec::new();
    let mut json_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => {}
            "--clients" => {
                scale.clients = flag_value(&args, &mut i, "a positive integer", positive)
            }
            "--shards" => scale.shards = flag_value(&args, &mut i, "a positive integer", positive),
            "--durability" => {
                let needs = "one of: buffered, flush, fsync";
                scale.durability = Some(flag_value(&args, &mut i, needs, Durability::parse));
            }
            "--mode" => {
                scale.mode = Some(flag_value(
                    &args,
                    &mut i,
                    "`open` or `closed`",
                    ModeFilter::parse,
                ));
            }
            "--json" => {
                // the path is optional, disambiguated from experiment
                // ids by its `.json` suffix; a bare `--json` (or one
                // followed by a flag / an experiment id) writes the
                // default path — a non-`.json` token after `--json`
                // falls through to id validation and errors loudly
                match args.get(i + 1).filter(|v| v.ends_with(".json")) {
                    Some(path) => {
                        json_path = Some(path.clone());
                        i += 1;
                    }
                    None => json_path = Some("bench-report.json".to_string()),
                }
            }
            flag if flag.starts_with("--") => die(&format!(
                "unknown flag `{flag}` (known: --quick, --clients N, --shards N, \
                 --durability LEVEL, --mode open|closed, --json [PATH])"
            )),
            id => wanted.push(id),
        }
        i += 1;
    }
    let selected = select(&wanted).unwrap_or_else(|e| die(&e));

    let profile = profile(quick, &scale);
    let settings: Vec<String> = profile
        .iter()
        .map(|(name, value)| format!("{name} {}", value.display_plain()))
        .collect();
    println!("UDBMS-Bench harness — {}\n", settings.join(", "));
    let mut json_reports: Vec<Value> = Vec::new();
    for (id, run) in selected {
        let t0 = std::time::Instant::now();
        let report = run(scale);
        println!("{}", report.render());
        println!("[{} completed in {:?}]\n", id, t0.elapsed());
        if json_path.is_some() {
            let mut v = report.to_value();
            if let Some(obj) = v.as_object_mut() {
                obj.insert("id".to_string(), Value::from(id.to_string()));
                obj.insert(
                    "elapsed_ms".to_string(),
                    Value::Int(t0.elapsed().as_millis() as i64),
                );
            }
            json_reports.push(v);
        }
    }

    if let Some(path) = json_path {
        let doc = Value::Object(
            profile
                .into_iter()
                .chain([("reports", Value::Array(json_reports))])
                .map(|(name, value)| (name.to_string(), value))
                .collect(),
        );
        if let Err(e) = std::fs::write(&path, udbms_json::to_string_pretty(&doc)) {
            eprintln!("failed to write {path}: {e}");
            std::process::exit(1);
        }
        println!("machine-readable reports written to {path}");
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}
