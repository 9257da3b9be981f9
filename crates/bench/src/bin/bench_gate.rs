//! CI bench-regression gate.
//!
//! ```sh
//! cargo run --release -p udbms-bench --bin bench_gate -- \
//!     bench-report.json bench/baseline.json            # default 20% tolerance
//! cargo run --release -p udbms-bench --bin bench_gate -- \
//!     run1.json run2.json run3.json bench/baseline.json --tolerance 0.3
//! ```
//!
//! The **last** positional path is the baseline; every earlier one is a
//! current `harness --json` report. With several current reports each
//! metric is scored by its best run (best-of-N shields scheduler-noise
//! spikes; a real regression depresses every run).
//!
//! Compares the gated throughput metrics (the rows of every experiment
//! `udbms_bench::EXPERIMENTS` gives a `Gate`: E2, E4a, E6, E8–E12)
//! against the committed baseline, normalized by the median
//! current/baseline ratio
//! so machine speed cancels out (see `udbms_bench::gate`). Exits
//! non-zero when any metric regresses more than the tolerance below
//! that normalized expectation, or when a baseline metric disappeared
//! from the report.
//!
//! To refresh the baseline after an intentional perf change, rerun the
//! CI harness invocation a few times on a quiet machine and commit
//! their best-of merge (a single noisy run committed as-is would bake
//! its stalls into the reference and fail future healthy runs):
//!
//! ```sh
//! cargo run --release -p udbms-bench --bin bench_gate -- \
//!     --write-merged bench/baseline.json run1.json run2.json run3.json
//! ```
//!
//! In `--write-merged` mode every positional path is a current report
//! (no comparison happens): the gated throughput cells are merged
//! best-of across the runs and written to the given path, with the
//! embedded results matrix rebuilt from the merged cells.
//!
//! `--summary-md PATH` (either mode) additionally writes the
//! cross-experiment results matrix of the best-of-merged current runs
//! as a GitHub-flavored markdown table — CI appends it to
//! `$GITHUB_STEP_SUMMARY`.

use udbms_bench::{
    attach_matrix, compare_reports, matrix_markdown, matrix_rows, merged_baseline,
    obs_overhead_failures,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<&str> = Vec::new();
    let mut tolerance = 0.2f64;
    let mut write_merged: Option<&str> = None;
    let mut summary_md: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--tolerance" => {
                i += 1;
                tolerance = args
                    .get(i)
                    .and_then(|v| v.parse::<f64>().ok())
                    .filter(|t| (0.0..1.0).contains(t))
                    .unwrap_or_else(|| die("--tolerance needs a fraction in [0, 1)"));
            }
            "--write-merged" => {
                i += 1;
                write_merged = Some(
                    args.get(i)
                        .map(String::as_str)
                        .unwrap_or_else(|| die("--write-merged needs an output path")),
                );
            }
            "--summary-md" => {
                i += 1;
                summary_md = Some(
                    args.get(i)
                        .map(String::as_str)
                        .unwrap_or_else(|| die("--summary-md needs an output path")),
                );
            }
            flag if flag.starts_with("--") => die(&format!(
                "unknown flag `{flag}` (known: --tolerance F, --write-merged PATH, \
                 --summary-md PATH)"
            )),
            path => paths.push(path),
        }
        i += 1;
    }
    if let Some(out_path) = write_merged {
        if paths.is_empty() {
            die("usage: bench_gate --write-merged <baseline-out.json> <run.json>...");
        }
        let runs: Vec<udbms_core::Value> = paths.iter().map(|p| load(p)).collect();
        let mut merged = merged_baseline(&runs).unwrap_or_else(|| die("no runs to merge"));
        // the merge rewrote throughput cells, so the embedded matrix
        // must be rebuilt — carrying run 1's matrix would be stale
        attach_matrix(&mut merged);
        std::fs::write(out_path, udbms_json::to_string_pretty(&merged))
            .unwrap_or_else(|e| die(&format!("cannot write {out_path}: {e}")));
        println!("wrote best-of-{} merged baseline to {out_path}", runs.len());
        write_summary(summary_md, &merged);
        return;
    }
    if paths.len() < 2 {
        die("usage: bench_gate <current.json>... <baseline.json> [--tolerance F]");
    }
    let baseline_path = paths.pop().expect("checked length");
    let current: Vec<udbms_core::Value> = paths.iter().map(|p| load(p)).collect();
    let baseline = load(baseline_path);
    if current.len() > 1 {
        println!("scoring best-of-{} current runs", current.len());
    }
    let mut outcome = compare_reports(&baseline, &current, tolerance);
    // the E10 hard check compares obs-on vs obs-off within the current
    // reports themselves (same machine, seconds apart) — no baseline or
    // normalization involved
    outcome.failures.extend(obs_overhead_failures(&current));
    if summary_md.is_some() {
        // the summary matrix scores each cell best-of across the
        // current runs, exactly like the gate does
        let merged = merged_baseline(&current).unwrap_or_else(|| die("no current runs"));
        write_summary(summary_md, &merged);
    }

    for note in &outcome.notes {
        println!("note: {note}");
    }
    println!(
        "bench gate: {} metric(s) compared, median current/baseline ratio {:.3}, tolerance {:.0}%",
        outcome.checked,
        outcome.median_ratio,
        tolerance * 100.0
    );
    if outcome.passed() {
        println!("bench gate: PASS");
    } else {
        for failure in &outcome.failures {
            eprintln!("REGRESSION: {failure}");
        }
        eprintln!(
            "bench gate: FAIL ({} metric(s) regressed > {:.0}% vs machine-normalized baseline)",
            outcome.failures.len(),
            tolerance * 100.0
        );
        std::process::exit(1);
    }
}

fn write_summary(summary_md: Option<&str>, doc: &udbms_core::Value) {
    let Some(path) = summary_md else { return };
    let md = matrix_markdown(&matrix_rows(doc));
    std::fs::write(path, &md).unwrap_or_else(|e| die(&format!("cannot write {path}: {e}")));
    println!("wrote benchmark matrix markdown to {path}");
}

fn load(path: &str) -> udbms_core::Value {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("cannot read {path}: {e}")));
    udbms_json::parse(&text).unwrap_or_else(|e| die(&format!("cannot parse {path}: {e}")))
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}
