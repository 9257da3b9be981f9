#![warn(missing_docs)]

//! # UDBMS-Bench
//!
//! A benchmark system for **unified (multi-model) database management
//! systems**, reproducing the system envisioned in *"Towards Benchmarking
//! Multi-Model Databases"* (Jiaheng Lu, CIDR 2017).
//!
//! This facade crate re-exports every subsystem. See the README for the
//! architecture overview, `DESIGN.md` for the crate map, and the
//! `examples/` directory for runnable entry points:
//!
//! * `quickstart` — create an engine, load multi-model data, run MMQL.
//! * `social_commerce` — the paper's motivating workload end-to-end,
//!   including the Orders/Product/Feedback/Invoice cross-model transaction.
//! * `schema_evolution` — evolve a multi-model schema and measure history
//!   query usability.
//! * `consistency_audit` — eventual-consistency metrics on a replicated
//!   store and an ACID anomaly census on the engine.
//! * `conversion` — model-conversion tasks scored against gold standards.

pub use udbms_consistency as consistency;
pub use udbms_convert as convert;
pub use udbms_core as core;
pub use udbms_datagen as datagen;
pub use udbms_driver as driver;
pub use udbms_engine as engine;
pub use udbms_evolution as evolution;
pub use udbms_json as json;
pub use udbms_polyglot as polyglot;
pub use udbms_query as query;
pub use udbms_xml as xml;

pub use udbms_core::{Error, Params, Result, Value};
pub use udbms_driver::{Subject, TxnOp};
