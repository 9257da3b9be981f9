//! The shared multi-client measurement loop: N client threads drive one
//! subject; the runner aggregates throughput and latency percentiles.
//! Every backend is measured by exactly this code, so reported numbers
//! differ only by what the backend does, never by how it was driven.

use std::time::{Duration, Instant};

use udbms_core::Result;

/// How the measurement loop issues operations.
///
/// The closed loop issues the next operation the instant the previous
/// one returns: a stalled operation silently pauses the *request
/// stream*, so the latency sample never contains the requests that
/// would have queued behind the stall — the classic **coordinated
/// omission** trap. The open loop instead fixes intended start times on
/// a wall-clock schedule and measures each operation *from its intended
/// start*: if the system falls behind, the queueing delay lands in the
/// recorded latencies, where it belongs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RunMode {
    /// Issue the next operation as soon as the previous one completes.
    Closed,
    /// Issue operations on a fixed schedule totalling `rate` ops/sec
    /// across all clients; latency is measured from the intended start.
    Open {
        /// Total intended operations per second across all clients.
        rate: f64,
    },
}

impl RunMode {
    /// Stable label for report rows (`closed` / `open`).
    pub fn label(&self) -> &'static str {
        match self {
            RunMode::Closed => "closed",
            RunMode::Open { .. } => "open",
        }
    }
}

/// Aggregated results of one concurrent run.
#[derive(Debug, Clone)]
pub struct ConcurrentStats {
    /// Client threads used.
    pub clients: usize,
    /// Total operations completed across all clients.
    pub total_ops: usize,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Per-operation latencies in microseconds, unsorted. Closed-loop
    /// runs measure service time; open-loop runs measure from the
    /// operation's *intended* start, so queueing delay is included.
    pub latencies_us: Vec<u64>,
    /// The issue mode the run used.
    pub mode: RunMode,
}

impl ConcurrentStats {
    /// Operations per second over the wall clock.
    pub fn throughput(&self) -> f64 {
        self.total_ops as f64 / self.elapsed.as_secs_f64().max(1e-9)
    }

    /// The p-th latency percentile in microseconds (p in 0..=100).
    pub fn percentile_us(&self, p: f64) -> u64 {
        percentile_us(&self.latencies_us, p)
    }

    /// The latency sample as a mergeable log2 histogram snapshot (µs
    /// units) — the shape reports carry so per-run percentile sets
    /// (p50/p90/p99/max) come from one representation everywhere.
    pub fn latency_histogram(&self) -> udbms_obs::HistSnapshot {
        let h = udbms_obs::Histogram::new();
        for &us in &self.latencies_us {
            h.record(us);
        }
        h.snapshot()
    }
}

/// Percentile over a latency sample (nearest-rank); 0 for empty input.
pub fn percentile_us(samples: &[u64], p: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    // classic nearest-rank: the smallest value with at least p% of the
    // sample at or below it
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.saturating_sub(1).min(sorted.len() - 1)]
}

/// Drive `subject` with `clients` concurrent threads, each executing
/// `ops_per_client` operations in a closed loop. The `op` closure
/// receives the client id and the per-client operation index and
/// performs one operation (a prepared-query execution, a transaction,
/// …); its latency is recorded.
///
/// Clients run to completion independently; if any client errored, the
/// first error (in client order) is returned instead of stats.
pub fn run_concurrent<F>(clients: usize, ops_per_client: usize, op: F) -> Result<ConcurrentStats>
where
    F: Fn(usize, usize) -> Result<()> + Sync,
{
    run_concurrent_mode(clients, ops_per_client, RunMode::Closed, op)
}

/// [`run_concurrent`] with an explicit issue mode.
///
/// `RunMode::Open { rate }` spreads the total rate evenly across
/// clients and staggers client schedules by a fraction of the
/// per-client interval so intended starts interleave instead of
/// arriving in lockstep bursts. An operation whose intended start has
/// already passed runs immediately — the schedule never skips — and its
/// latency is measured from the intended start, so falling behind shows
/// up as queueing delay in the tail percentiles rather than vanishing
/// from the sample.
pub fn run_concurrent_mode<F>(
    clients: usize,
    ops_per_client: usize,
    mode: RunMode,
    op: F,
) -> Result<ConcurrentStats>
where
    F: Fn(usize, usize) -> Result<()> + Sync,
{
    let clients = clients.max(1);
    // per-client intended-start interval, None for the closed loop
    let interval = match mode {
        RunMode::Closed => None,
        RunMode::Open { rate } => {
            if !(rate.is_finite() && rate > 0.0) {
                return Err(udbms_core::Error::Invalid(format!(
                    "open-loop rate must be a positive finite ops/sec, got {rate}"
                )));
            }
            Some(Duration::from_secs_f64(clients as f64 / rate))
        }
    };
    let t0 = Instant::now();
    let results: Vec<Result<Vec<u64>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|client| {
                let op = &op;
                scope.spawn(move || {
                    let mut latencies = Vec::with_capacity(ops_per_client);
                    match interval {
                        None => {
                            for i in 0..ops_per_client {
                                let t = Instant::now();
                                op(client, i)?;
                                latencies.push(t.elapsed().as_micros() as u64);
                            }
                        }
                        Some(interval) => {
                            // stagger clients across one interval so the
                            // fleet's intended starts interleave evenly
                            let offset = interval.mul_f64(client as f64 / clients as f64);
                            for i in 0..ops_per_client {
                                let intended = t0 + offset + interval.mul_f64(i as f64);
                                let now = Instant::now();
                                if let Some(wait) = intended.checked_duration_since(now) {
                                    std::thread::sleep(wait);
                                }
                                op(client, i)?;
                                latencies.push(intended.elapsed().as_micros() as u64);
                            }
                        }
                    }
                    Ok(latencies)
                })
            })
            .collect();
        #[expect(
            clippy::expect_used,
            reason = "a panicked client thread must fail the run loudly"
        )]
        let join =
            |h: std::thread::ScopedJoinHandle<'_, _>| h.join().expect("client thread panicked");
        handles.into_iter().map(join).collect()
    });
    let elapsed = t0.elapsed();
    let mut latencies_us = Vec::with_capacity(clients * ops_per_client);
    for r in results {
        latencies_us.extend(r?);
    }
    Ok(ConcurrentStats {
        clients,
        total_ops: latencies_us.len(),
        elapsed,
        latencies_us,
        mode,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{registry, TxnOp};
    use udbms_core::Key;
    use udbms_datagen::{generate, workload, GenConfig};

    #[test]
    fn percentiles_nearest_rank() {
        let s: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_us(&s, 50.0), 50);
        assert_eq!(percentile_us(&s, 95.0), 95);
        assert_eq!(percentile_us(&s, 100.0), 100);
        assert_eq!(percentile_us(&s, 0.0), 1);
        assert_eq!(percentile_us(&[], 50.0), 0);
        assert_eq!(percentile_us(&[7], 99.0), 7);
    }

    #[test]
    fn concurrent_runner_counts_every_op() {
        let counter = std::sync::atomic::AtomicUsize::new(0);
        let stats = run_concurrent(4, 25, |_, _| {
            counter.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            Ok(())
        })
        .unwrap();
        assert_eq!(stats.total_ops, 100);
        assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 100);
        assert_eq!(stats.latencies_us.len(), 100);
        assert!(stats.throughput() > 0.0);
    }

    #[test]
    fn open_loop_paces_to_the_target_rate() {
        // 2 clients, 40 ops total at 400/s → the schedule spans ~100 ms
        // even though each op is instantaneous
        let stats =
            run_concurrent_mode(2, 20, RunMode::Open { rate: 400.0 }, |_, _| Ok(())).unwrap();
        assert_eq!(stats.total_ops, 40);
        assert_eq!(stats.mode.label(), "open");
        assert!(
            stats.elapsed >= Duration::from_millis(80),
            "schedule must pace the run: {:?}",
            stats.elapsed
        );
        // the loop keeps to the schedule, so throughput ≈ rate (generous
        // bounds: shared CI runners sleep long)
        assert!(
            stats.throughput() <= 520.0,
            "throughput {} must not exceed the schedule",
            stats.throughput()
        );
    }

    #[test]
    fn open_loop_rejects_nonsense_rates() {
        assert!(run_concurrent_mode(1, 1, RunMode::Open { rate: 0.0 }, |_, _| Ok(())).is_err());
        assert!(run_concurrent_mode(1, 1, RunMode::Open { rate: -5.0 }, |_, _| Ok(())).is_err());
        assert!(run_concurrent_mode(
            1,
            1,
            RunMode::Open {
                rate: f64::INFINITY
            },
            |_, _| Ok(())
        )
        .is_err());
    }

    #[test]
    fn closed_loop_stats_carry_their_mode() {
        let stats = run_concurrent(1, 3, |_, _| Ok(())).unwrap();
        assert_eq!(stats.mode, RunMode::Closed);
        assert_eq!(stats.mode.label(), "closed");
    }

    #[test]
    fn errors_propagate_from_clients() {
        let r = run_concurrent(2, 10, |client, i| {
            if client == 1 && i == 5 {
                Err(udbms_core::Error::Invalid("boom".into()))
            } else {
                Ok(())
            }
        });
        assert!(r.is_err());
    }

    #[test]
    fn four_clients_drive_every_subject() {
        let cfg = GenConfig {
            scale_factor: 0.01,
            ..Default::default()
        };
        let data = generate(&cfg);
        let q1 = workload::queries()[0];
        let draws: Vec<_> = (1..=3)
            .map(|w| workload::QueryParams::draw(&data, w).bindings())
            .collect();
        for subject in registry() {
            subject.load(&data).unwrap();
            let prepared = subject.prepare(&q1).unwrap();
            let stats = run_concurrent(4, 10, |client, i| {
                let params = &draws[(client + i) % draws.len()];
                subject.execute(&prepared, params).map(drop)
            })
            .unwrap();
            assert_eq!(stats.total_ops, 40, "{}", subject.name());
            assert!(stats.percentile_us(95.0) >= stats.percentile_us(50.0));

            // transactions under concurrency, at every isolation the
            // subject offers
            let order = Key::str(data.orders[0].get_field("_id").as_str().unwrap());
            for iso in subject.isolations() {
                let op = TxnOp::OrderUpdate {
                    order: order.clone(),
                };
                let stats = run_concurrent(4, 5, |_, _| subject.transact(&op, iso)).unwrap();
                assert_eq!(stats.total_ops, 20);
            }
        }
    }
}
