#![warn(missing_docs)]

//! # udbms-evolution
//!
//! Multi-model **schema evolution** — the paper's second pillar:
//! "UDBMS-benchmark automates the schema evolution process for
//! multi-model data. The change of schema can affect the usability of
//! history queries."
//!
//! * [`EvolutionOp`] — the operation catalogue (add/drop/rename/retype/
//!   nest/flatten), each with schema rewriting, forward data migration,
//!   path mapping and a compatibility class.
//! * [`apply`] / [`apply_chain`] — run migrations against a live engine.
//! * [`analyze_workload`] — classify historical MMQL queries as
//!   valid / adaptable / broken under a chain, and rewrite the adaptable
//!   ones automatically.
//! * [`standard_chain`] — the deterministic 12-step chain experiment E3
//!   sweeps.

mod migrate;
mod ops;
mod usability;

pub use migrate::{apply, apply_chain, MigrationStats};
pub use ops::{Compat, EvolutionOp, PathOutcome};
pub use usability::{
    accessed_paths, adapt_statement, analyze_workload, classify, QueryFate, UsabilityReport,
};

use udbms_core::{FieldDef, FieldType, Value};

/// The canonical E3 evolution chain over the benchmark's collections.
/// Prefixes of this chain (`&standard_chain()[..n]`) give the x-axis of
/// the usability-degradation experiment: early steps are compatible,
/// the middle is adaptable, the tail is destructive.
pub fn standard_chain() -> Vec<EvolutionOp> {
    vec![
        // 1-2: purely additive — history queries untouched
        EvolutionOp::AddField {
            collection: "orders".into(),
            field: FieldDef::optional("channel", FieldType::Str).with_default(Value::from("web")),
        },
        EvolutionOp::AddField {
            collection: "products".into(),
            field: FieldDef::optional("ean", FieldType::Str),
        },
        // 3-6: refactorings — adaptable via path mappings
        EvolutionOp::RenameField {
            collection: "orders".into(),
            from: "status".into(),
            to: "state".into(),
        },
        EvolutionOp::NestFields {
            collection: "customers".into(),
            fields: vec!["country".into(), "city".into()],
            into: "address".into(),
        },
        EvolutionOp::RenameField {
            collection: "products".into(),
            from: "title".into(),
            to: "name".into(),
        },
        EvolutionOp::FlattenField {
            collection: "orders".into(),
            field: "shipping".into(),
        },
        // 7-8: silent cleanups — break only queries using exotic fields
        EvolutionOp::DropField {
            collection: "orders".into(),
            field: "note".into(),
        },
        EvolutionOp::ChangeType {
            collection: "customers".into(),
            field: "score".into(),
            to: FieldType::Any,
        },
        // 9-12: destructive — history queries on these paths are lost
        EvolutionOp::DropField {
            collection: "orders".into(),
            field: "state".into(),
        },
        EvolutionOp::NestFields {
            collection: "orders".into(),
            fields: vec!["customer".into()],
            into: "buyer".into(),
        },
        EvolutionOp::ChangeType {
            collection: "products".into(),
            field: "price".into(),
            to: FieldType::Int,
        },
        EvolutionOp::DropField {
            collection: "customers".into(),
            field: "email".into(),
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use udbms_datagen::{build_engine, workload, GenConfig};
    use udbms_engine::Isolation;
    use udbms_query::Statement;

    #[test]
    fn standard_chain_applies_end_to_end_on_generated_data() {
        let (engine, _data) = build_engine(&GenConfig {
            scale_factor: 0.01,
            ..Default::default()
        })
        .unwrap();
        let stats = apply_chain(&engine, &standard_chain()).unwrap();
        assert_eq!(stats.len(), 12);
        assert!(stats.iter().all(|s| s.migrated > 0));
        // final schema versions reflect the per-collection op counts
        assert_eq!(engine.schema_of("orders").unwrap().version, 1 + 6);
        assert_eq!(engine.schema_of("customers").unwrap().version, 1 + 3);
        assert_eq!(engine.schema_of("products").unwrap().version, 1 + 3);
    }

    #[test]
    fn workload_usability_degrades_monotonically() {
        let data = udbms_datagen::generate(&GenConfig {
            scale_factor: 0.01,
            ..Default::default()
        });
        let params = workload::QueryParams::draw(&data, 1);
        let stmts: Vec<Statement> = workload::bound_queries(&params)
            .unwrap()
            .into_iter()
            .map(|(_, q)| q.statement().clone())
            .collect();
        let chain = standard_chain();
        let mut last_strict = f64::INFINITY;
        let mut strict_scores = Vec::new();
        for n in 0..=chain.len() {
            let (report, _) = analyze_workload(&stmts, &chain[..n]);
            assert!(
                report.strict_score <= last_strict + 1e-9,
                "strict usability can only fall"
            );
            last_strict = report.strict_score;
            strict_scores.push(report.strict_score);
        }
        assert_eq!(strict_scores[0], 1.0, "no evolution, all queries valid");
        assert!(
            *strict_scores.last().unwrap() < 1.0,
            "the full chain must invalidate some verbatim queries"
        );
        let (final_report, _) = analyze_workload(&stmts, &chain);
        assert!(
            final_report.broken > 0,
            "the destructive tail breaks something"
        );
        assert!(
            final_report.adapted_score >= final_report.strict_score,
            "adaptation can only help"
        );
    }

    #[test]
    fn adapted_queries_actually_run_after_migration() {
        let (engine, data) = build_engine(&GenConfig {
            scale_factor: 0.02,
            ..Default::default()
        })
        .unwrap();
        let params = workload::QueryParams::draw(&data, 1);
        let stmts: Vec<Statement> = workload::bound_queries(&params)
            .unwrap()
            .into_iter()
            .map(|(_, q)| q.statement().clone())
            .collect();
        // every prefix of the chain, migrating the engine one step at a time
        let chain = standard_chain();
        for n in 0..=chain.len() {
            if n > 0 {
                apply_chain(&engine, &chain[n - 1..n]).unwrap();
            }
            let prefix = &chain[..n];
            let (report, fates) = analyze_workload(&stmts, prefix);
            if n == 6 {
                assert_eq!(report.broken, 0, "steps 1..=6 are non-destructive");
                assert!(report.adaptable > 0, "steps 1..=6 force some rewrites");
            }
            for (i, (stmt, (fate, adapted))) in stmts.iter().zip(&fates).enumerate() {
                if *fate == QueryFate::Adaptable {
                    // one scope rule: the rewrite touched exactly the
                    // paths the classification folded, in order
                    let folded: Vec<_> = accessed_paths(stmt)
                        .into_iter()
                        .map(|(coll, path)| {
                            let path = usability::fold_path(&coll, &path, prefix).unwrap();
                            (coll, path)
                        })
                        .collect();
                    assert_eq!(accessed_paths(adapted), folded, "Q{} at {n}", i + 1);
                }
                // both valid and adapted statements must execute cleanly
                if *fate != QueryFate::Broken {
                    engine
                        .run(Isolation::Snapshot, |t| udbms_query::execute(adapted, t))
                        .unwrap_or_else(|e| panic!("Q{} ({fate:?}) at {n}: {e}", i + 1));
                }
            }
        }
    }

    #[test]
    fn verbatim_queries_break_at_runtime_exactly_when_classified_broken() {
        let (engine, data) = build_engine(&GenConfig {
            scale_factor: 0.01,
            ..Default::default()
        })
        .unwrap();
        let params = workload::QueryParams::draw(&data, 1);
        let chain = standard_chain();
        apply_chain(&engine, &chain).unwrap();
        // Q2 returns o.status which was renamed then dropped: classified broken
        let (_, q2) = workload::bound_queries(&params).unwrap().swap_remove(1);
        let (fate, _) = classify(q2.statement(), &chain);
        assert_eq!(fate, QueryFate::Broken);
        // verbatim execution still *runs* (schemaless reads yield nulls) —
        // usability is a semantic notion, which is exactly why the
        // benchmark must track it (silent nulls, not crashes)
        let out = engine.run(Isolation::Snapshot, |t| q2.execute(t)).unwrap();
        for row in &out {
            assert!(
                row.get_field("status").is_null(),
                "history query silently degrades"
            );
        }
    }
}
