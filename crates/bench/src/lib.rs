#![warn(missing_docs)]

//! # udbms-bench
//!
//! The benchmark harness: the experiment suite (F1, E1–E5, E8,
//! E10–E12) mapped in DESIGN.md §7 — one [`EXPERIMENTS`] table, one
//! cell runner — a
//! plain-text [`Report`] renderer, and the `harness` binary that runs the
//! experiments and prints their tables (optionally as `--json`).

pub mod experiments;
pub mod report;

pub use experiments::{select, Experiment, ModeFilter, RunScale, EXPERIMENTS};
pub use report::{per_sec, us, Report};
