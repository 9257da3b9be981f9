//! Construction-time tuning ([`EngineConfig`]), the engine's counters
//! and timing sites (`Metrics`, declared once against the obs registry)
//! and the typed views reports read them through ([`EngineStats`],
//! [`GcStats`]).

use std::sync::Arc;

use udbms_core::Ts;
use udbms_obs::{Counter, Histogram, Obs};

use crate::txn::Durability;

/// Default storage shard count (see [`EngineConfig::shards`]).
pub const DEFAULT_SHARDS: usize = 8;

/// Construction-time engine tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Storage shard count: the key space is hash-partitioned into this
    /// many independently locked shards. `1` reproduces the pre-shard
    /// single-lock engine.
    pub shards: usize,
    /// How durable a commit is when it returns, for WAL-backed engines
    /// (see [`Durability`]). Default: [`Durability::Flush`].
    pub durability: Durability,
    /// Whether commits go through the group-commit log writer (default)
    /// or write + flush the WAL synchronously under `commit_lock` — the
    /// engine's historical per-commit path, kept as the E8 comparison
    /// arm.
    pub group_commit: bool,
    /// Whether observability recording (stage histograms, trace events,
    /// slow-query log) is on. Disabled, every timing site reduces to one
    /// branch — the E10 experiment measures the difference.
    pub obs: bool,
}

impl Default for EngineConfig {
    fn default() -> EngineConfig {
        EngineConfig {
            shards: DEFAULT_SHARDS,
            durability: Durability::default(),
            group_commit: true,
            obs: true,
        }
    }
}

impl EngineConfig {
    /// Override the storage shard count (builder-style, clamped to ≥ 1).
    pub fn with_shards(mut self, shards: usize) -> EngineConfig {
        self.shards = shards.max(1);
        self
    }

    /// Override the durability level (builder-style).
    pub fn with_durability(mut self, durability: Durability) -> EngineConfig {
        self.durability = durability;
        self
    }

    /// Enable/disable group commit (builder-style).
    pub fn with_group_commit(mut self, group_commit: bool) -> EngineConfig {
        self.group_commit = group_commit;
        self
    }

    /// Enable/disable observability recording (builder-style).
    pub fn with_obs(mut self, obs: bool) -> EngineConfig {
        self.obs = obs;
        self
    }
}

/// The engine's own counters and timing sites, declared once: registry
/// handles grabbed at construction so the hot paths never touch the
/// registry (one relaxed add per count, zero allocation, no interning
/// lock) and every count reaches the Prometheus/JSON export. Counters
/// count whether or not obs recording is on; [`EngineStats`] is a typed
/// view of them and of the ones the WAL pipeline and the plan cache
/// declare.
pub(crate) struct Metrics {
    /// Commit validation (write-write + OCC), per writing commit.
    pub(crate) validate_ns: Arc<Histogram>,
    /// Version + index-posting install, per writing commit.
    pub(crate) install_ns: Arc<Histogram>,
    /// Checkpoint end-to-end.
    pub(crate) checkpoint_ns: Arc<Histogram>,
    pub(crate) commits: Arc<Counter>,
    pub(crate) aborts: Arc<Counter>,
    pub(crate) ww_conflicts: Arc<Counter>,
    pub(crate) read_conflicts: Arc<Counter>,
    pub(crate) read_txns: Arc<Counter>,
    /// Read-lane transactions served while the engine was degraded to
    /// read-only (the E12 "reads keep flowing under ENOSPC" evidence).
    pub(crate) degraded_reads: Arc<Counter>,
    /// Conflict retries inside [`crate::Engine::run`] (reported separately
    /// from aborts: a retried transaction eventually commits).
    pub(crate) txn_retries: Arc<Counter>,
}

impl Metrics {
    pub(crate) fn new(obs: &Obs) -> Metrics {
        Metrics {
            validate_ns: obs.histogram("commit_validate_ns"),
            install_ns: obs.histogram("commit_install_ns"),
            checkpoint_ns: obs.histogram("checkpoint_ns"),
            commits: obs.counter("commits"),
            aborts: obs.counter("aborts"),
            ww_conflicts: obs.counter("ww_conflicts"),
            read_conflicts: obs.counter("read_conflicts"),
            read_txns: obs.counter("read_txns"),
            degraded_reads: obs.counter("degraded_reads"),
            txn_retries: obs.counter("txn_retries"),
        }
    }
}

/// Counters and storage shape, for reports and mmbench's `count.*`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EngineStats {
    /// Committed transactions.
    pub commits: u64,
    /// Aborted transactions (explicit aborts + validation failures).
    pub aborts: u64,
    /// Commit-time write-write conflicts.
    pub ww_conflicts: u64,
    /// Commit-time read-validation (OCC) conflicts.
    pub read_conflicts: u64,
    /// Read-lane transactions begun via [`crate::Engine::begin_read`].
    pub read_txns: u64,
    /// Storage shard count.
    pub shards: usize,
    /// Stored versions across all chains.
    pub versions: usize,
    /// Record chains.
    pub chains: usize,
    /// Longest chain.
    pub max_chain_len: usize,
    /// Currently open transactions.
    pub active_txns: usize,
    /// WAL batches written (group commit efficiency =
    /// `wal_records / wal_batches`); 0 without a WAL.
    pub wal_batches: u64,
    /// WAL records written; 0 without a WAL.
    pub wal_records: u64,
    /// Plan-cache hits (0 until a plan cache attaches to this engine's
    /// obs registry — see `PlanCache::attach_obs` in `udbms-query`).
    pub plan_hits: u64,
    /// Plan-cache misses (compiled plans); 0 until a cache attaches.
    pub plan_misses: u64,
    /// Times the WAL transitioned to a failed state (0 or 1): a failed
    /// flush/fsync (poison) or ENOSPC (read-only degraded mode).
    pub wal_poisoned: u64,
    /// Read-lane transactions served while the engine was read-only.
    pub degraded_reads: u64,
    /// Writes rejected fast because the WAL had already failed.
    pub write_rejected: u64,
    /// Conflict retries inside [`crate::Engine::run`] (distinct from aborts:
    /// a retried transaction may still commit).
    pub txn_retries: u64,
}

/// Result of a garbage-collection pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GcStats {
    /// Watermark used (oldest snapshot that must stay readable).
    pub watermark: Ts,
    /// Versions pruned.
    pub versions_removed: usize,
    /// Whole chains removed (tombstoned records nobody can see).
    pub chains_removed: usize,
}
