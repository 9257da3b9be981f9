#![warn(missing_docs)]

//! # udbms-polyglot
//!
//! The **polyglot-persistence baseline**: five independent single-model
//! stores (relational, document, key-value, graph, XML) glued together by
//! application code — per-store locks, a client-side cross-store
//! coordinator, wire (de)serialization at every boundary, and hand-written
//! implementations of the Q1–Q10 workload.
//!
//! This is the architecture the CIDR'17 paper positions multi-model
//! databases *against*; benchmarking it next to the unified engine is what
//! gives experiments E2 and E4a their comparison column. The equivalence
//! tests below pin the two subjects to identical query semantics, so the
//! benches measure architecture, not answer drift.
//!
//! The stores are private modules; callers get [`PolyglotDb`],
//! [`load_into_polyglot`], [`run_query`] and [`order_update_polyglot`].
//! Filters, indexes and traversal directions are `udbms-core`'s
//! `Predicate`, `Index` and `Direction` — the engine's too — so the two
//! subjects share what a filter matches, what an index posts and when
//! an index may answer a filter.

mod database;
mod document;
mod graph;
mod kv;
mod load;
mod queries;
mod stores;
mod table;
mod traverse;
mod wire;

pub use load::load_into_polyglot;
pub use queries::{order_update_polyglot, run_query};
pub use stores::PolyglotDb;

#[cfg(test)]
mod equivalence {
    //! The polyglot and unified implementations must agree on every
    //! workload query, record for record (order-insensitive).

    use super::*;
    use crate::wire::json_hop;
    use udbms_core::Value;
    use udbms_datagen::{build_engine, workload, GenConfig};
    use udbms_engine::Isolation;

    fn sorted(mut v: Vec<Value>) -> Vec<Value> {
        v.sort();
        v
    }

    #[test]
    fn polyglot_matches_unified_engine_on_the_whole_workload() {
        let cfg = GenConfig {
            scale_factor: 0.02,
            ..Default::default()
        };
        let (engine, data) = build_engine(&cfg).unwrap();
        let db = PolyglotDb::new();
        load_into_polyglot(&db, &data).unwrap();

        let mut draws: Vec<_> = (1..=3u64)
            .map(|which| workload::QueryParams::draw(&data, which))
            .collect();
        // Q9's price band upside down selects nothing on both subjects
        let (price_lo, price_hi) = (draws[0].price_hi, draws[0].price_lo);
        draws.push(workload::QueryParams {
            price_lo,
            price_hi,
            ..draws[0].clone()
        });
        for (which, params) in draws.iter().enumerate() {
            for (q, bound) in workload::bound_queries(params).unwrap() {
                let unified = engine
                    .run(Isolation::Snapshot, |t| bound.execute(t))
                    .unwrap_or_else(|e| panic!("{} (engine): {e}", q.id));
                let poly = run_query(&db, q.id, params)
                    .unwrap_or_else(|e| panic!("{} (polyglot): {e}", q.id));
                assert_eq!(
                    sorted(unified.clone()),
                    sorted(poly.clone()),
                    "{} diverged (params {which}):\nengine={unified:?}\npolyglot={poly:?}\nmmql={}",
                    q.id,
                    q.mmql
                );
            }
        }
    }

    #[test]
    fn order_update_semantics_agree() {
        let cfg = GenConfig {
            scale_factor: 0.01,
            ..Default::default()
        };
        let (engine, data) = build_engine(&cfg).unwrap();
        let db = PolyglotDb::new();
        load_into_polyglot(&db, &data).unwrap();

        let okey = udbms_core::Key::str(data.orders[0].get_field("_id").as_str().unwrap());
        engine
            .run(Isolation::Snapshot, |t| {
                udbms_datagen::workload::order_update(t, &okey)
            })
            .unwrap();
        order_update_polyglot(&db, &okey).unwrap();

        // both subjects end with the same order status and product stocks
        let engine_order = engine
            .run(Isolation::Snapshot, |t| {
                Ok(t.get("orders", &okey)?.unwrap())
            })
            .unwrap();
        let poly_order = {
            let docs = db.documents.lock();
            json_hop(docs.get_collection("orders").unwrap().get(&okey).unwrap())
        };
        assert_eq!(
            engine_order.get_field("status"),
            poly_order.get_field("status")
        );
        for item in engine_order.get_field("items").as_array().unwrap() {
            let pid = item.get_field("product").as_str().unwrap();
            let pkey = udbms_core::Key::str(pid);
            let engine_stock = engine
                .run(Isolation::Snapshot, |t| {
                    Ok(t.get("products", &pkey)?
                        .unwrap()
                        .get_field("stock")
                        .clone())
                })
                .unwrap();
            let poly_stock = {
                let docs = db.documents.lock();
                json_hop(docs.get_collection("products").unwrap().get(&pkey).unwrap())
                    .get_field("stock")
                    .clone()
            };
            assert_eq!(engine_stock, poly_stock, "stock diverged for {pid}");
        }
    }
}
