//! mmbench: end-to-end and per-layer benchmark of the unified engine.
//!
//! ```text
//! mmbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! mmbench repeat --sets <k> [--seconds <s>]
//! ```
//!
//! `--trace 0` is the measured run: one closed-loop client for
//! `--seconds`, tracing off, every end-to-end metric. `--trace 1` is
//! the traced run: a fixed op count, plain and then stage by stage
//! under the tracer, and the layer timings; every per-layer metric.
//! The last line of standard output is the result as one JSON object;
//! the tables go to standard error. See README.md.

mod layers;
mod measure;
mod repeat;
mod report;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use udbms_core::Result;

use measure::{better_half_median, percentile, pmax, run_clients, Limit, Plan, RunStats};
use report::Outcome;
use trace::{Stage, Tracer, STAGES};
use workloads::{AdhocParse, PointRw, QueryMix, Size, TxnDurable, Workload};

/// Engines a measured run sets up and measures one after the other.
/// `setup_s` is the better-half median of their set-ups, and how one
/// instance's hash maps and heap happen to fall, which moves its speed
/// by up to a tenth, is drawn this many times within one run.
const ENGINES: usize = 5;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
}

/// Where WAL files and traces go: `out/` beside the manifest, inside
/// the checkout and ignored by git.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One closed-loop client with tracing off, `--seconds` in all: the
/// end-to-end metrics. One client, because two on this two-core box
/// contend with the log writer and each other's locks so unevenly that
/// no bound under a quarter holds; the traced run reports them.
fn measured<W: Workload>(o: &Options, size: &Size) -> Result<Outcome> {
    let dir = out_dir();
    let mut setup_s = Vec::with_capacity(ENGINES);
    let mut rss_mb = 0.0;
    let mut total = RunStats::default();
    let mut check_error = None;
    for n in 0..ENGINES {
        let started = Instant::now();
        let workload = W::setup(o.seed, size, &dir)?;
        setup_s.push(started.elapsed().as_secs_f64());
        let mut clients = vec![workload.client(0, 1)];
        let run = run_clients(
            &workload,
            &mut clients,
            plan::<W>(size, Limit::Seconds(o.seconds / ENGINES as f64)),
            // read once, after a fixed amount of work, so a faster
            // engine, which gets more done in the timed run, does not
            // read as bigger
            || {
                if n == 0 {
                    rss_mb = peak_rss_mb();
                }
            },
        );
        let checked = workload.finish(clients, 1);
        check_error = check_error.or(checked.err().map(|e| e.to_string()));
        total.absorb(run);
    }

    let error = total.first_error.clone().or(check_error);
    Ok(Outcome {
        correct: total.failed == 0 && error.is_none(),
        attempted: total.attempted,
        failed: total.failed,
        metrics: vec![
            ("throughput_ops_s".into(), total.throughput_ops_s()),
            ("latency_p50_us".into(), total.latency_us(50.0)),
            ("latency_p99_us".into(), total.latency_us(99.0)),
            ("setup_s".into(), better_half_median(&mut setup_s, false)),
            ("peak_rss_mb".into(), rss_mb),
        ],
        error,
    })
}

/// The workload's frozen op counts at this size.
fn plan<W: Workload>(size: &Size, limit: Limit) -> Plan {
    let slice_ops = (W::SLICE_OPS / size.ops_divisor).max(1);
    Plan {
        warmup_ops: slice_ops,
        slice_ops,
        limit,
    }
}

/// One client, a fixed op count, first plain and then stage by stage
/// under the tracer, each pass in a thread of its own after the same
/// warm-up: the per-layer metrics.
fn traced<W: Workload>(o: &Options, size: &Size) -> Result<Outcome> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir)?;
    let workload = W::setup(o.seed, size, &dir)?;
    let ops = ((W::TRACE_OPS_PER_SECOND as f64 * o.seconds) as u64 / size.ops_divisor).max(20);
    let engine = workload.engine();
    let (stats0, plans0, wal0) = (
        engine.stats(),
        workload.plan_counts(),
        workload.wal_valid_bytes()?,
    );

    let plan = plan::<W>(size, Limit::Ops(ops));
    let warm = plan.warmup_ops;
    let mut clients = vec![workload.client(0, 1)];
    let plain = run_clients(&workload, &mut clients, plan, || ());
    let mut tracer = Tracer::with_capacity(ops as usize * 8);
    let (mut failed, mut error) = (plain.failed, plain.first_error.clone());
    std::thread::scope(|scope| {
        let traced_pass = scope.spawn(|| {
            let mut note = |result: Result<()>| {
                if let Err(e) = result {
                    failed += 1;
                    error.get_or_insert_with(|| e.to_string());
                }
            };
            for i in 0..warm + ops {
                if i < warm {
                    note(workload.op(&mut clients[0], i));
                } else {
                    let op = workload.next_op(&mut clients[0], i);
                    note(workload.exec_traced(&mut clients[0], op, i, &mut tracer));
                }
                if (i + 1).is_multiple_of(plan.slice_ops) {
                    tracer.span(Stage::Maintain, |_| workload.maintain());
                }
            }
        });
        traced_pass.join().expect("traced pass panicked");
    });

    let (stats1, plans1, wal1) = (
        engine.stats(),
        workload.plan_counts(),
        workload.wal_valid_bytes()?,
    );
    let commits = stats1.commits - stats0.commits;
    let grown = [
        ("commits", commits),
        ("aborts", stats1.aborts - stats0.aborts),
        ("txn_retries", stats1.txn_retries - stats0.txn_retries),
        ("wal_records", stats1.wal_records - stats0.wal_records),
        ("wal_batches", stats1.wal_batches - stats0.wal_batches),
        ("plan_hits", plans1.0 - plans0.0),
        ("plan_misses", plans1.1 - plans0.1),
        ("read_txns", stats1.read_txns - stats0.read_txns),
        ("versions", stats1.versions as u64),
        ("max_chain_len", stats1.max_chain_len as u64),
    ];
    let mut metrics: Vec<(String, f64)> = grown
        .iter()
        .map(|(name, count)| (format!("count.{name}"), *count as f64))
        .collect();
    metrics.push((
        "durable.wal_bytes_per_commit".into(),
        match (wal0, wal1) {
            (Some(before), Some(after)) => (after - before) as f64 / commits.max(1) as f64,
            _ => 0.0,
        },
    ));

    // the plain run is the base the spans are set against
    let latencies = plain.sorted_latencies();
    let plain_p50_ns = f64::from(percentile(&latencies, 50.0));
    let (tail_p, tail_ns) = pmax(&latencies).unwrap_or((50.0, percentile(&latencies, 50.0)));
    metrics.push(("client1.throughput_ops_s".into(), plain.throughput_ops_s()));
    metrics.push(("client1.latency_p50_us".into(), plain_p50_ns / 1e3));
    metrics.push(("tail.pmax_us".into(), f64::from(tail_ns) / 1e3));
    metrics.push(("tail.pmax_percentile".into(), tail_p));

    let spans = tracer.spans();
    let own = trace::self_times_ns(spans);
    let mut roots: Vec<u64> = spans
        .iter()
        .filter(|s| s.stage == Stage::Op)
        .map(trace::Span::duration_ns)
        .collect();
    roots.sort_unstable();
    let mut attributed_ns = 0.0;
    for stage in STAGES {
        let (self_ns, reached) = trace::stage_self_median_ns(spans, &own, stage);
        // upkeep runs between ops, so it is no part of an op's latency;
        // a stage only some ops reach counts by the share that do
        if stage != Stage::Maintain {
            attributed_ns += self_ns * reached as f64 / ops as f64;
        }
        metrics.push((format!("stage.{}.self_us", stage.name()), self_ns / 1e3));
    }
    metrics.push(("attributed_share".into(), attributed_ns / plain_p50_ns));
    metrics.push((
        "unattributed_us".into(),
        (plain_p50_ns - attributed_ns) / 1e3,
    ));
    metrics.push((
        "trace.overhead_share".into(),
        percentile(&roots, 50.0) as f64 / plain_p50_ns - 1.0,
    ));
    metrics.push(("trace.spans".into(), spans.len() as f64));
    trace::write_json(&dir.join(format!("trace-{}.json", W::NAME)), spans)?;

    let checked = workload.finish(clients, workloads::RECOVERY_REOPENS);
    let recovery_s = checked.as_ref().ok().copied().flatten();
    metrics.push(("durable.recovery_s".into(), recovery_s.unwrap_or(0.0)));
    error = error.or(checked.err().map(|e| e.to_string()));

    // Two clients on a fresh engine, the same op count between them:
    // what contention costs. Reported here and not end to end, because
    // on two cores it does not repeat within any bound.
    let shared = W::setup(o.seed, size, &dir)?;
    let mut pair = vec![shared.client(0, 2), shared.client(1, 2)];
    let halved = Plan {
        warmup_ops: warm / 2,
        limit: Limit::Ops((ops / 2).max(1)),
        ..plan
    };
    let contended = run_clients(&shared, &mut pair, halved, || ());
    metrics.push((
        "clients2.throughput_ops_s".into(),
        contended.throughput_ops_s(),
    ));
    metrics.push(("clients2.latency_p50_us".into(), contended.latency_us(50.0)));
    failed += contended.failed;
    error = error
        .or(contended.first_error)
        .or(shared.finish(pair, 1).err().map(|e| e.to_string()));

    metrics.extend(layers::measure(o.seed, size, &dir)?);
    Ok(Outcome {
        correct: failed == 0 && error.is_none(),
        attempted: plain.attempted + warm + ops + contended.attempted,
        failed,
        metrics,
        error,
    })
}

fn dispatch<W: Workload>(o: &Options) -> Result<Outcome> {
    let size = if o.smoke { Size::smoke() } else { Size::full() };
    if o.trace {
        traced::<W>(o, &size)
    } else {
        measured::<W>(o, &size)
    }
}

/// Run one workload in this process.
pub fn run(o: &Options) -> Result<Outcome> {
    match o.workload.as_str() {
        QueryMix::NAME => dispatch::<QueryMix>(o),
        AdhocParse::NAME => dispatch::<AdhocParse>(o),
        PointRw::NAME => dispatch::<PointRw>(o),
        TxnDurable::NAME => dispatch::<TxnDurable>(o),
        other => Err(udbms_core::Error::Invalid(format!(
            "unknown workload `{other}`"
        ))),
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: mmbench --workload <query_mix|adhoc_parse|point_rw|txn_durable> \
         --seed <n> --seconds <s> --trace <0|1> [--smoke]\n       \
         mmbench repeat --sets <k> [--seconds <s>]"
    );
    ExitCode::from(2)
}

/// `--name value` pairs after the optional subcommand.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.windows(2)
        .find(|pair| pair[0] == name)
        .map(|pair| pair[1].as_str())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("repeat") {
        let Some(sets) = flag(&args, "--sets").and_then(|v| v.parse().ok()) else {
            return usage();
        };
        let seconds = flag(&args, "--seconds").and_then(|v| v.parse().ok());
        return match repeat::run(sets, seconds) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("mmbench repeat: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let parsed = (|| {
        Some(Options {
            workload: flag(&args, "--workload")?.to_string(),
            seed: flag(&args, "--seed")?.parse().ok()?,
            seconds: flag(&args, "--seconds")?
                .parse()
                .ok()
                .filter(|s| *s > 0.0)?,
            trace: match flag(&args, "--trace")? {
                "0" => false,
                "1" => true,
                _ => return None,
            },
            smoke: args.iter().any(|a| a == "--smoke"),
        })
    })();
    let Some(options) = parsed else {
        return usage();
    };
    match run(&options) {
        Ok(outcome) => {
            let units = if options.trace {
                report::per_layer()
            } else {
                report::end_to_end()
            };
            for (name, value) in &outcome.metrics {
                eprintln!("{name:<32} {value:>16.4} {}", report::unit_of(&units, name));
            }
            if let Some(e) = &outcome.error {
                eprintln!("mmbench: {}: {e}", options.workload);
            }
            println!("{}", outcome.to_json(&units));
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("mmbench: {}: {e}", options.workload);
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload, measured and traced, at smoke size: all paths
    /// run, outputs check out and every declared metric is printed.
    #[test]
    fn smoke_runs_every_workload_and_the_trace_path() {
        for workload in [
            QueryMix::NAME,
            AdhocParse::NAME,
            PointRw::NAME,
            TxnDurable::NAME,
        ] {
            for trace in [false, true] {
                let outcome = run(&Options {
                    workload: workload.to_string(),
                    seed: 1,
                    seconds: 0.2,
                    trace,
                    smoke: true,
                })
                .unwrap_or_else(|e| panic!("{workload} trace={trace}: {e}"));
                assert!(outcome.correct, "{workload}: {:?}", outcome.error);
                assert_eq!(outcome.failed, 0);
                assert!(outcome.attempted >= 1);
                let mut printed: Vec<&str> =
                    outcome.metrics.iter().map(|(n, _)| n.as_str()).collect();
                let units = if trace {
                    report::per_layer()
                } else {
                    report::end_to_end()
                };
                let mut declared: Vec<&str> = units.iter().map(|(n, _)| n.as_str()).collect();
                printed.sort_unstable();
                declared.sort_unstable();
                assert_eq!(printed, declared, "{workload} trace={trace}");
                if !trace {
                    assert!(
                        outcome.metrics.iter().all(|(_, v)| *v > 0.0),
                        "end-to-end metrics are never 0: {:?}",
                        outcome.metrics
                    );
                }
            }
        }
    }
}
