//! Crash-recovery integration: multi-model state must survive WAL replay
//! and checkpointing, including the Figure-1 workload's data, and every
//! value the engine stores must come back from the log bit for bit.

use std::path::PathBuf;

use proptest::prelude::*;
use udbms::core::{obj, CollectionSchema, Key, Value};
use udbms::datagen::{create_collections, generate, load_into_engine, workload, GenConfig};
use udbms::engine::{Engine, EngineConfig, Isolation};

fn temp_wal(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("udbms-it-{}-{name}.wal", std::process::id()));
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn multi_model_state_survives_recovery() {
    let path = temp_wal("multimodel");
    let cfg = GenConfig {
        scale_factor: 0.01,
        ..Default::default()
    };
    let data = generate(&cfg);
    let params = workload::QueryParams::draw(&data, 1);
    let queries = workload::bound_queries(&params).expect("workload binds");

    let before: Vec<Vec<Value>> = {
        let engine = Engine::with_wal(&path).expect("fresh wal engine");
        create_collections(&engine).unwrap();
        load_into_engine(&engine, &data).unwrap();
        // a cross-model update in the log too
        let okey = Key::str(data.orders[0].get_field("_id").as_str().unwrap());
        engine
            .run(Isolation::Snapshot, |t| workload::order_update(t, &okey))
            .unwrap();
        queries
            .iter()
            .map(|(_, q)| engine.run(Isolation::Snapshot, |t| q.execute(t)).unwrap())
            .collect()
        // engine dropped = crash
    };

    // recover into a fresh engine with the same schemas
    let engine = Engine::new();
    create_collections(&engine).unwrap();
    engine.replay_wal(&path).expect("replay");
    let after: Vec<Vec<Value>> = queries
        .iter()
        .map(|(_, q)| engine.run(Isolation::Snapshot, |t| q.execute(t)).unwrap())
        .collect();
    for (i, (b, a)) in before.iter().zip(&after).enumerate() {
        assert_eq!(b, a, "{} diverged after recovery", queries[i].0.id);
    }
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn checkpoint_compacts_without_losing_state() {
    let path = temp_wal("checkpoint");
    {
        let engine = Engine::with_wal(&path).unwrap();
        engine
            .create_collection(udbms::core::CollectionSchema::key_value("ns"))
            .unwrap();
        // 50 overwrites of one key → 50 WAL records
        for i in 0..50 {
            engine
                .run(Isolation::Snapshot, |t| {
                    t.put("ns", Key::int(1), Value::Int(i))
                })
                .unwrap();
        }
        let size_before = std::fs::metadata(&path).unwrap().len();
        engine.checkpoint().unwrap();
        let size_after = std::fs::metadata(&path).unwrap().len();
        assert!(
            size_after < size_before / 5,
            "checkpoint should collapse 50 records to 1 ({size_before} -> {size_after})"
        );
    }
    let engine = Engine::with_wal(&path).unwrap();
    let v = engine
        .run(Isolation::Snapshot, |t| t.get("ns", &Key::int(1)))
        .unwrap();
    assert_eq!(v, Some(Value::Int(49)));
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn recovery_preserves_commit_order_semantics() {
    let path = temp_wal("order");
    {
        let engine = Engine::with_wal(&path).unwrap();
        engine
            .create_collection(udbms::core::CollectionSchema::document("d", "_id", vec![]))
            .unwrap();
        engine
            .run(Isolation::Snapshot, |t| {
                t.insert("d", obj! {"_id" => "x", "v" => 1})?;
                Ok(())
            })
            .unwrap();
        engine
            .run(Isolation::Snapshot, |t| {
                t.merge("d", &Key::str("x"), obj! {"v" => 2})
            })
            .unwrap();
        engine
            .run(Isolation::Snapshot, |t| {
                t.delete("d", &Key::str("x"))?;
                t.insert("d", obj! {"_id" => "y", "v" => 3})?;
                Ok(())
            })
            .unwrap();
    }
    let engine = Engine::with_wal(&path).unwrap();
    engine
        .run(Isolation::Snapshot, |t| {
            assert_eq!(t.get("d", &Key::str("x"))?, None, "delete wins");
            assert_eq!(
                t.get("d", &Key::str("y"))?.unwrap().get_field("v"),
                &Value::Int(3)
            );
            Ok(())
        })
        .unwrap();
    // post-recovery writes continue with monotone timestamps (note: the
    // recovered engine auto-registered `d` as an open collection, so we
    // write by explicit key)
    engine
        .run(Isolation::Snapshot, |t| {
            t.put("d", Key::str("z"), obj! {"_id" => "z", "v" => 4})
        })
        .unwrap();
    assert!(engine.stats().versions >= 3);
    std::fs::remove_file(&path).unwrap();
}

/// Scalars, with the edges a text codec gets wrong over-represented:
/// `Null`, non-finite and negative-zero floats, bytes, 64-bit extremes.
fn scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        prop_oneof![
            Just(i64::MAX),
            Just(i64::MIN),
            Just(i64::MAX - 1),
            Just(i64::MIN + 1),
            Just((1 << 53) + 1),
        ]
        .prop_map(Value::Int),
        // arbitrary bit patterns: NaNs with payloads, subnormals
        any::<u64>().prop_map(|bits| Value::Float(f64::from_bits(bits))),
        prop_oneof![
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(f64::NEG_INFINITY),
            Just(-0.0),
            Just(0.1),
        ]
        .prop_map(Value::Float),
        "\\PC{0,12}".prop_map(Value::Str),
        prop::collection::vec(any::<u8>(), 0..16).prop_map(Value::Bytes),
    ]
}

/// Arbitrary trees of all eight variants, a few levels deep.
fn value() -> impl Strategy<Value = Value> {
    scalar().prop_recursive(5, 64, 5, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..5).prop_map(Value::Array),
            prop::collection::vec(("[a-z]{0,5}", inner), 0..5)
                .prop_map(|fields| Value::Object(fields.into_iter().collect())),
        ]
    })
}

/// `leaf` under `levels` containers, alternately arrays and objects.
fn nested(leaf: Value, levels: usize) -> Value {
    (0..levels).fold(leaf, |v, level| {
        if level % 2 == 0 {
            Value::Array(vec![v])
        } else {
            Value::Object([("n".to_string(), v)].into_iter().collect())
        }
    })
}

/// Equality that tells `Int(2)` from `Float(2.0)` and compares floats by
/// their bits, so `NaN` must come back as the same `NaN` and `-0.0` as
/// `-0.0`.
fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Array(x), Value::Array(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(x, y)| same_bits(x, y))
        }
        (Value::Object(x), Value::Object(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y.iter())
                    .all(|((kx, vx), (ky, vy))| kx == ky && same_bits(vx, vy))
        }
        _ => std::mem::discriminant(a) == std::mem::discriminant(b) && a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever a transaction stores survives the log: commit each value
    /// in a transaction of its own, reopen the engine on the log, and
    /// `get` returns the same value — at 1, 3 and 8 shards.
    #[test]
    fn every_value_survives_the_log(
        values in prop::collection::vec(value(), 1..8),
        deep_leaf in scalar(),
        levels in 0usize..129,
    ) {
        let mut values = values;
        values.push(nested(deep_leaf, levels));
        for shards in [1usize, 3, 8] {
            let path = temp_wal(&format!("every-value-{shards}"));
            let config = EngineConfig::default().with_shards(shards);
            {
                let engine = Engine::with_wal_config(&path, config).unwrap();
                engine.create_collection(CollectionSchema::key_value("kv")).unwrap();
                for (i, v) in values.iter().enumerate() {
                    engine
                        .run(Isolation::Snapshot, |t| t.put("kv", Key::int(i as i64), v.clone()))
                        .unwrap();
                }
            }
            let engine = Engine::with_wal_config(&path, config).unwrap();
            let mut t = engine.begin_read();
            for (i, v) in values.iter().enumerate() {
                let got = t.get("kv", &Key::int(i as i64)).unwrap();
                prop_assert!(
                    got.as_ref().is_some_and(|got| same_bits(got, v)),
                    "value {} came back as {:?}, was {:?} ({} shards)", i, got, v, shards
                );
            }
            drop(t);
            drop(engine);
            std::fs::remove_file(&path).unwrap();
        }
    }
}
