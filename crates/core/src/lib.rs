#![warn(missing_docs)]

//! # udbms-core
//!
//! Foundation types shared by every UDBMS-Bench crate:
//!
//! * [`Value`] — the unified multi-model value: one representation that can
//!   hold a relational cell or row, a JSON document, a key-value payload, a
//!   graph property map, or a bridged XML tree. A single value type is what
//!   lets the engine keep *one* integrated backend behind five model
//!   facades, which is the defining property of a multi-model database in
//!   the CIDR'17 vision paper this project reproduces.
//! * [`Object`] — what a [`Value::Object`] holds: a document's fields in
//!   key order, with the surface of a map — the values in one slice beside
//!   a key list shared by every object with the same names ([`shape`] has
//!   that interner and its bounds).
//!
//!   ```
//!   use udbms_core::{obj, Object, Value};
//!
//!   // field order is by name, however the object was built
//!   let mut order = obj! { "total" => 99.5, "customer" => 7 };
//!   assert_eq!(order.to_string(), r#"{"customer":7,"total":99.5}"#);
//!   let fields: &mut Object = order.as_object_mut().unwrap();
//!   fields.insert("status".into(), Value::from("open"));
//!   assert_eq!(fields.get("customer"), Some(&Value::Int(7)));
//!   assert_eq!(fields.keys().collect::<Vec<_>>(), ["customer", "status", "total"]);
//!   assert_eq!(order.get_field("status"), &Value::from("open"));
//!   ```
//! * [`Symbol`] — a field name as an [`Object`] stores it: the one
//!   interned copy of the name, so objects share it and compare it by
//!   pointer ([`symbol`] has the interner and its bounds).
//! * [`Key`] — a scalar [`Value`] usable as a record key (totally ordered,
//!   hashable).
//! * [`FieldPath`] — dotted-path navigation (`a.b[2].c`) into nested
//!   values, shared by the document store, the query language, schema
//!   evolution and conversion tasks.
//! * [`Error`] / [`Result`] — the workspace-wide error type.
//! * [`schema`] — model-agnostic schema descriptions (collections, fields,
//!   types) used for generation, validation and evolution.
//! * [`rng`] — deterministic pseudo-randomness (SplitMix64, Zipf) so every
//!   benchmark run is exactly reproducible from a seed.
//! * The query vocabulary both benchmark subjects share, so each gives a
//!   query one meaning: the [`Predicate`] filter language with
//!   [`like_match`], secondary [`Index`]es of an [`IndexKind`] — with the
//!   one rule for what an index posts ([`Index::post`]) and the one rule
//!   for what it may answer ([`Predicate::probe`]) — and the traversal
//!   [`Direction`].

pub mod direction;
pub mod error;
pub mod ids;
pub mod index;
pub mod object;
pub mod params;
pub mod path;
pub mod predicate;
pub mod rng;
pub mod schema;
pub mod shape;
pub mod symbol;
pub mod value;

pub use direction::Direction;
pub use error::{Error, Result};
pub use ids::{CollectionId, Ts, TxnId};
pub use index::{Index, IndexKind};
pub use object::Object;
pub use params::Params;
pub use path::{FieldPath, PathStep};
pub use predicate::{like_match, Predicate, Probe};
pub use rng::{SplitMix64, Zipf};
pub use schema::{CollectionSchema, FieldDef, FieldType, ModelKind};
pub use symbol::Symbol;
pub use value::{Key, Value};
