//! The closed-loop client runner and the statistics over raw samples.
//!
//! Latencies are kept as raw nanosecond samples; percentiles are
//! nearest-rank over the sorted samples, never histogram buckets.

use std::sync::Barrier;
use std::time::Instant;

use crate::workloads::Workload;

/// Nearest-rank percentile (`p` in 0..=100) of ascending `sorted`.
pub fn percentile<T: Copy>(sorted: &[T], p: f64) -> T {
    assert!(!sorted.is_empty(), "percentile of no samples");
    // the epsilon keeps 99.9 % of 10 000 at rank 9990 despite rounding
    let rank = ((p / 100.0) * sorted.len() as f64 - 1e-9).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `values` (mean of the middle two when even); sorts them.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Median of the better half of `values`. Interference from the host
/// only ever slows a slice down, so the slower half is set aside and
/// the median of the rest is reported: steady while fewer than half the
/// slices are disturbed, and no single lucky slice decides it.
pub fn better_half_median(values: &mut [f64], higher_is_better: bool) -> f64 {
    values.sort_by(f64::total_cmp);
    let keep = values.len().div_ceil(2);
    if higher_is_better {
        let from = values.len() - keep;
        median(&mut values[from..])
    } else {
        median(&mut values[..keep])
    }
}

/// The highest of p50, p90, p99, p99.9 … that still has at least ten
/// samples beyond it, as `(percentile, value)`. With fewer than twenty
/// samples even the median has no such support and `None` is returned.
pub fn pmax<T: Copy>(sorted: &[T]) -> Option<(f64, T)> {
    let n = sorted.len() as f64;
    let mut best = None;
    let mut beyond_share = 0.5;
    let mut p = 50.0;
    while n * beyond_share >= 10.0 {
        best = Some((p, percentile(sorted, p)));
        // 50 → 90 → 99 → 99.9 → …
        beyond_share = if p == 50.0 { 0.1 } else { beyond_share / 10.0 };
        p = 100.0 - beyond_share * 100.0;
    }
    best
}

/// When a client loop stops.
#[derive(Debug, Clone, Copy)]
pub enum Limit {
    /// At the first slice boundary after this many seconds.
    Seconds(f64),
    /// After this many ops per client.
    Ops(u64),
}

/// How the clients of one run are driven.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Ops each client runs untimed before the line.
    pub warmup_ops: u64,
    /// Ops in a slice. A client calls `Workload::maintain` after every
    /// slice, inside the slice's time, so all slices hold the same work.
    pub slice_ops: u64,
    pub limit: Limit,
}

/// What one client did in one slice of the run.
#[derive(Debug, Default, Clone)]
pub struct Slice {
    pub ops: u64,
    pub elapsed_ns: u64,
    pub latency_ns: Vec<u32>,
}

#[derive(Debug, Default)]
pub struct RunStats {
    pub slices: Vec<Slice>,
    /// Ops issued, the warm-up's included; `failed` likewise.
    pub attempted: u64,
    pub failed: u64,
    /// First error text, for the report.
    pub first_error: Option<String>,
}

impl RunStats {
    /// Add another run's slices and counts to this one's.
    pub fn absorb(&mut self, other: RunStats) {
        self.slices.extend(other.slices);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.first_error = self.first_error.take().or(other.first_error);
    }

    /// All latency samples of the run, ascending.
    pub fn sorted_latencies(&self) -> Vec<u32> {
        let mut all: Vec<u32> = self
            .slices
            .iter()
            .flat_map(|s| s.latency_ns.iter().copied())
            .collect();
        all.sort_unstable();
        all
    }

    /// Ops completed per second: the better-half median over slices.
    pub fn throughput_ops_s(&self) -> f64 {
        let mut per_slice: Vec<f64> = self
            .slices
            .iter()
            .map(|s| s.ops as f64 * 1e9 / s.elapsed_ns.max(1) as f64)
            .collect();
        better_half_median(&mut per_slice, true)
    }

    /// The `p`-th latency percentile in µs: the better-half median over
    /// slices of each slice's own percentile.
    pub fn latency_us(&self, p: f64) -> f64 {
        let mut per_slice: Vec<f64> = self
            .slices
            .iter()
            .map(|s| {
                let mut sorted = s.latency_ns.clone();
                sorted.sort_unstable();
                f64::from(percentile(&sorted, p)) / 1e3
            })
            .collect();
        better_half_median(&mut per_slice, false)
    }
}

/// Drive `workload` with one closed-loop thread per client: each client
/// issues its next op only when the previous one returned. Every client
/// first runs the warm-up untimed, in the thread that then measures;
/// `after_warmup` runs while the clients wait at the line. Then they
/// run slice after slice until the limit. One op in `W::SAMPLE_EVERY`
/// is timed, so the two clock reads stay below 2 % of the shortest op.
/// The slices of all clients are returned together.
pub fn run_clients<W: Workload>(
    workload: &W,
    clients: &mut [W::Client],
    plan: Plan,
    after_warmup: impl FnOnce(),
) -> RunStats {
    let slice_ops = plan.slice_ops.max(1);
    let line = Barrier::new(clients.len() + 1);
    let per_client: Vec<RunStats> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .map(|client| {
                let line = &line;
                scope.spawn(move || {
                    let mut run = RunStats::default();
                    let note = |run: &mut RunStats, result: udbms_core::Result<()>| {
                        run.attempted += 1;
                        if let Err(e) = result {
                            run.failed += 1;
                            run.first_error.get_or_insert_with(|| e.to_string());
                        }
                    };
                    for i in 0..plan.warmup_ops {
                        note(&mut run, workload.op(client, i));
                        if (i + 1).is_multiple_of(slice_ops) {
                            workload.maintain();
                        }
                    }
                    line.wait();
                    line.wait();
                    let started = Instant::now();
                    let mut i = plan.warmup_ops;
                    let end = match plan.limit {
                        Limit::Ops(n) => i + n,
                        Limit::Seconds(_) => u64::MAX,
                    };
                    while i < end {
                        if let Limit::Seconds(s) = plan.limit {
                            if started.elapsed().as_secs_f64() >= s {
                                break;
                            }
                        }
                        let slice_end = end.min((i / slice_ops + 1) * slice_ops);
                        let mut slice = Slice {
                            latency_ns: Vec::with_capacity(
                                (slice_ops / W::SAMPLE_EVERY) as usize + 1,
                            ),
                            ..Slice::default()
                        };
                        let (slice_started, first) = (Instant::now(), i);
                        while i < slice_end {
                            let sampled = (i - plan.warmup_ops).is_multiple_of(W::SAMPLE_EVERY);
                            let t0 = sampled.then(Instant::now);
                            let result = workload.op(client, i);
                            if let Some(t0) = t0 {
                                let ns = t0.elapsed().as_nanos().min(u128::from(u32::MAX));
                                slice.latency_ns.push(ns as u32);
                            }
                            note(&mut run, result);
                            i += 1;
                        }
                        if i.is_multiple_of(slice_ops) {
                            workload.maintain();
                        }
                        slice.ops = i - first;
                        slice.elapsed_ns = slice_started.elapsed().as_nanos() as u64;
                        run.slices.push(slice);
                    }
                    run
                })
            })
            .collect();
        line.wait();
        after_warmup();
        line.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    let mut stats = RunStats::default();
    per_client.into_iter().for_each(|run| stats.absorb(run));
    stats
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank_over_raw_samples() {
        let samples: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&samples, 50.0), 50);
        assert_eq!(percentile(&samples, 99.0), 99);
        assert_eq!(percentile(&samples, 100.0), 100);
        assert_eq!(percentile(&samples, 0.0), 1);
        // raw samples, not buckets: 63 and 64 stay apart
        assert_eq!(percentile(&[63u32, 64], 50.0), 63);
        assert_eq!(percentile(&[7u32], 99.0), 7);
        assert_eq!(median(&mut [10.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [10.0, 1.0, 2.0]), 2.0);
        // the better half of 1..=8 is 5..=8 when higher is better
        let mut slices = [3.0, 8.0, 1.0, 6.0, 2.0, 7.0, 4.0, 5.0];
        assert_eq!(better_half_median(&mut slices, true), 6.5);
        assert_eq!(better_half_median(&mut slices, false), 2.5);
        assert_eq!(better_half_median(&mut [9.0, 1.0, 5.0], false), 3.0);
        assert_eq!(better_half_median(&mut [4.0], true), 4.0);
    }

    #[test]
    fn pmax_is_the_highest_percentile_with_ten_samples_beyond() {
        let of = |n: u32| pmax(&(1..=n).collect::<Vec<u32>>());
        assert_eq!(of(19), None, "nine beyond the median is too few");
        assert_eq!(of(20), Some((50.0, 10)));
        assert_eq!(of(99), Some((50.0, 50)));
        assert_eq!(of(100), Some((90.0, 90)));
        assert_eq!(of(999), Some((90.0, 900)));
        assert_eq!(of(1000), Some((99.0, 990)));
        let (p, v) = of(10_000).expect("supported");
        assert!((p - 99.9).abs() < 1e-9);
        assert_eq!(v, 9990);
    }
}
