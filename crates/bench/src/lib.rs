#![warn(missing_docs)]

//! # udbms-bench
//!
//! The benchmark harness: the experiment suite (F1, E1–E12) mapped in
//! DESIGN.md §7 — one [`EXPERIMENTS`] table, one cell runner — a
//! plain-text [`Report`] renderer, the `harness` binary that runs the
//! experiments and prints their tables, and the `bench_gate` binary
//! that compares `--json` reports against `bench/baseline.json` for CI
//! regression gating.

pub mod experiments;
pub mod gate;
pub mod report;

pub use experiments::{select, Experiment, ModeFilter, RunScale, DEFAULT_FAULT_SEED, EXPERIMENTS};
pub use gate::{compare_reports, merged_baseline, obs_overhead_failures, Gate, GateOutcome};
pub use report::{attach_matrix, matrix_markdown, matrix_rows, per_sec, us, MatrixRow, Report};
