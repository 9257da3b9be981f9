//! # udbms-obs — engine-wide observability
//!
//! Std-only instrumentation substrate for the engine, driver, and
//! harness: a [`Registry`] of lock-free [`Counter`]s/[`Gauge`]s and
//! log2-bucketed [`Histogram`]s, a per-thread [`SpanRing`] event trace,
//! and a bounded [`SlowLog`] — all bundled behind one [`Obs`] handle
//! that can be disabled at construction for a near-zero-cost off mode.
//!
//! ## Design rules
//!
//! - **Zero allocation on the record path.** Handles are `Arc`s fetched
//!   once at subsystem construction; recording is a few relaxed atomics.
//! - **Branch-on-disabled.** Every timing site starts with
//!   [`Obs::start`], which returns `Stamp(None)` when disabled — the
//!   `Instant::now()` call itself is skipped, so the disabled cost is
//!   one predictable branch.
//! - **Mergeable.** [`HistSnapshot`]s from different shards/clients
//!   merge losslessly; percentiles over the merged histogram land in
//!   the same log2 bucket a sorted-vector oracle would pick.

#![warn(missing_docs)]

mod metrics;
mod ring;
mod slow;
mod snapshot;

pub use metrics::{
    bucket_of, bucket_upper, Counter, Gauge, HistSnapshot, Histogram, Registry, BUCKETS,
};
pub use ring::{Event, SpanRing};
pub use slow::{SlowLog, SlowQuery};
pub use snapshot::ObsSnapshot;

use std::sync::Arc;
use std::time::Instant;

/// Default per-thread trace-ring capacity.
pub const DEFAULT_RING_CAPACITY: usize = 256;
/// Default slow-query log capacity.
pub const DEFAULT_SLOW_CAPACITY: usize = 64;

/// A started (or skipped) timing measurement. `Copy`-cheap; call
/// [`Stamp::elapsed_ns`]/[`Stamp::elapsed_us`] at the end of the timed
/// region and feed the result to a histogram — when obs was disabled
/// the stamp is empty and reading it returns `None`, so the histogram
/// record is skipped by the same branch.
#[derive(Debug, Clone, Copy)]
pub struct Stamp(Option<Instant>);

impl Stamp {
    /// An empty stamp (what [`Obs::start`] returns when disabled).
    pub const NONE: Stamp = Stamp(None);

    /// Nanoseconds since the stamp was taken, saturated to `u64`.
    pub fn elapsed_ns(&self) -> Option<u64> {
        self.0
            .map(|t| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX))
    }

    /// Microseconds since the stamp was taken, saturated to `u64`.
    pub fn elapsed_us(&self) -> Option<u64> {
        self.0
            .map(|t| u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX))
    }
}

/// The engine-wide observability handle: one registry + trace ring +
/// slow-query log, shareable via `Arc` across every subsystem.
#[derive(Debug)]
pub struct Obs {
    enabled: bool,
    registry: Registry,
    ring: SpanRing,
    slow: SlowLog,
}

impl Default for Obs {
    fn default() -> Self {
        Obs::new(true)
    }
}

impl Obs {
    /// A fresh obs handle with default ring/slow-log capacities.
    pub fn new(enabled: bool) -> Obs {
        Obs {
            enabled,
            registry: Registry::new(),
            ring: SpanRing::new(DEFAULT_RING_CAPACITY),
            slow: SlowLog::new(DEFAULT_SLOW_CAPACITY, u64::MAX),
        }
    }

    /// A disabled handle: every record call reduces to one branch.
    pub fn disabled() -> Arc<Obs> {
        Arc::new(Obs::new(false))
    }

    /// Whether recording is on.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// The metric registry (fetch handles once, at construction).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The counter named `name` (interned).
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        self.registry.counter(name)
    }

    /// The gauge named `name` (interned).
    pub fn gauge(&self, name: &'static str) -> Arc<Gauge> {
        self.registry.gauge(name)
    }

    /// The histogram named `name` (interned).
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        self.registry.histogram(name)
    }

    /// Start timing a region — `Stamp::NONE` (no clock read) when
    /// disabled. This is the only sanctioned way to read the clock on
    /// an engine hot path (lint rule L5 enforces it).
    pub fn start(&self) -> Stamp {
        if self.is_enabled() {
            Stamp(Some(Instant::now()))
        } else {
            Stamp::NONE
        }
    }

    /// Finish a timed region: record `stamp`'s elapsed nanoseconds into
    /// `hist`. No-op for an empty stamp.
    pub fn record_ns(&self, hist: &Histogram, stamp: Stamp) {
        if let Some(ns) = stamp.elapsed_ns() {
            hist.record(ns);
        }
    }

    /// Record a trace event (skipped when disabled).
    pub fn event(&self, kind: &'static str, a: u64, b: u64) {
        if self.is_enabled() {
            self.ring.event(kind, a, b);
        }
    }

    /// The slow-query log.
    pub fn slow(&self) -> &SlowLog {
        &self.slow
    }

    /// Snapshot everything: metric values, trace events (drained), and
    /// slow queries (drained).
    pub fn snapshot(&self) -> ObsSnapshot {
        let (counters, gauges, histograms) = self.registry.snapshot();
        ObsSnapshot {
            enabled: self.is_enabled(),
            counters,
            gauges,
            histograms,
            events: self.ring.drain(),
            events_dropped: self.ring.overwritten(),
            slow_queries: self.slow.drain(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_obs_skips_everything() {
        let obs = Obs::disabled();
        let h = obs.histogram("h");
        let stamp = obs.start();
        assert!(stamp.elapsed_ns().is_none(), "no clock read when off");
        obs.record_ns(&h, stamp);
        obs.event("e", 1, 2);
        let snap = obs.snapshot();
        assert!(!snap.enabled);
        assert_eq!(snap.histogram("h").map(|s| s.count), Some(0));
        assert!(snap.events.is_empty());
    }

    #[test]
    fn enabled_obs_records_end_to_end() {
        let obs = Obs::new(true);
        let h = obs.histogram("stage_ns");
        let stamp = obs.start();
        std::thread::sleep(std::time::Duration::from_micros(50));
        obs.record_ns(&h, stamp);
        obs.counter("hits").inc();
        obs.event("commit", 7, 0);
        obs.slow().set_threshold_us(0);
        obs.slow().push(SlowQuery {
            statement: "q".into(),
            plan: "p".into(),
            total_us: 9,
            stages: vec![],
        });
        let snap = obs.snapshot();
        assert!(snap.enabled);
        let hs = snap.histogram("stage_ns").expect("histogram present");
        assert_eq!(hs.count, 1);
        assert!(hs.max >= 50_000, "slept ≥50µs, recorded in ns");
        assert_eq!(snap.counter("hits"), 1);
        assert_eq!(snap.events.len(), 1);
        assert_eq!(snap.slow_queries.len(), 1);
        // drained: a second snapshot sees no stale events/slow entries
        let again = obs.snapshot();
        assert!(again.events.is_empty());
        assert!(again.slow_queries.is_empty());
        assert_eq!(again.counter("hits"), 1, "metrics persist across snapshots");
    }
}
