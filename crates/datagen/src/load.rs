//! Loading a generated [`Dataset`] into the unified engine, and the
//! canonical collection schemas shared by every benchmark subject.

use udbms_core::{
    obj, CollectionSchema, FieldDef, FieldPath, FieldType, IndexKind, Key, Result, Value,
};
use udbms_engine::{Engine, Isolation};

use crate::dataset::Dataset;

/// The canonical schemas of the benchmark's collections (used by both the
/// unified engine and the polyglot baseline, so the subjects agree on
/// validation rules).
pub fn schemas() -> Vec<CollectionSchema> {
    vec![
        CollectionSchema::relational(
            "customers",
            "id",
            vec![
                FieldDef::required("id", FieldType::Int),
                FieldDef::required("name", FieldType::Str),
                FieldDef::required("email", FieldType::Str),
                FieldDef::required("country", FieldType::Str),
                FieldDef::required("city", FieldType::Str),
                FieldDef::required("segment", FieldType::Str),
                FieldDef::required("registered", FieldType::Int),
                FieldDef::optional("score", FieldType::Float),
            ],
        ),
        CollectionSchema::document(
            "orders",
            "_id",
            vec![
                FieldDef::required("_id", FieldType::Str),
                FieldDef::required("customer", FieldType::Int),
                FieldDef::required("status", FieldType::Str),
                FieldDef::required("total", FieldType::Float),
            ],
        ),
        CollectionSchema::document(
            "products",
            "_id",
            vec![
                FieldDef::required("_id", FieldType::Str),
                FieldDef::required("title", FieldType::Str),
                FieldDef::required("price", FieldType::Float),
            ],
        ),
        CollectionSchema::key_value("feedback"),
        CollectionSchema::xml("invoices"),
    ]
}

/// Create the benchmark collections, graph and default secondary indexes
/// on an engine.
pub fn create_collections(engine: &Engine) -> Result<()> {
    for schema in schemas() {
        engine.create_collection(schema)?;
    }
    engine.create_graph("social")?;
    engine.create_index("orders", FieldPath::key("customer"), IndexKind::Hash)?;
    engine.create_index("orders", FieldPath::key("status"), IndexKind::Hash)?;
    engine.create_index("products", FieldPath::key("price"), IndexKind::BTree)?;
    engine.create_index("customers", FieldPath::key("country"), IndexKind::Hash)?;
    engine.create_index("feedback", FieldPath::key("product"), IndexKind::Hash)?;
    Ok(())
}

/// Load a dataset into an engine (collections must exist; see
/// [`create_collections`]). Loads in batched transactions to keep version
/// chains short. Returns the number of records written.
pub fn load_into_engine(engine: &Engine, data: &Dataset) -> Result<usize> {
    const BATCH: usize = 512;
    let mut written = 0usize;

    // relational customers + graph vertices
    for chunk in data.customers.chunks(BATCH) {
        engine.run(Isolation::Snapshot, |t| {
            for c in chunk {
                t.insert("customers", c.clone())?;
                let id = c.get_field("id").as_int().expect("customer id");
                t.add_vertex(
                    "social",
                    Key::int(id),
                    "customer",
                    obj! {"cid" => id, "country" => c.get_field("country").clone()},
                )?;
            }
            Ok(())
        })?;
        written += chunk.len() * 2;
    }
    for chunk in data.products.chunks(BATCH) {
        engine.run(Isolation::Snapshot, |t| {
            for p in chunk {
                t.insert("products", p.clone())?;
                let pid = p.get_field("_id").as_str().expect("product id");
                t.add_vertex(
                    "social",
                    Key::str(pid),
                    "product",
                    obj! {"pid" => pid, "category" => p.get_field("category").clone()},
                )?;
            }
            Ok(())
        })?;
        written += chunk.len() * 2;
    }
    // pure record streams load through the batched write APIs: one
    // catalog consultation and one shard-lock acquisition per shard per
    // chunk, instead of per record
    for chunk in data.orders.chunks(BATCH) {
        engine.run(Isolation::Snapshot, |t| {
            t.insert_many("orders", chunk.to_vec()).map(|_| ())
        })?;
        written += chunk.len();
    }
    for chunk in data.feedback.chunks(BATCH) {
        engine.run(Isolation::Snapshot, |t| {
            t.put_many("feedback", chunk.to_vec())
        })?;
        written += chunk.len();
    }
    for chunk in data.invoices.chunks(BATCH) {
        engine.run(Isolation::Snapshot, |t| {
            t.put_many(
                "invoices",
                chunk
                    .iter()
                    .map(|(k, x)| (k.clone(), udbms_xml::xml_to_value(x)))
                    .collect(),
            )
        })?;
        written += chunk.len();
    }
    for chunk in data.knows.chunks(BATCH) {
        engine.run(Isolation::Snapshot, |t| {
            for (src, dst) in chunk {
                t.add_edge(
                    "social",
                    &Key::int(*src),
                    &Key::int(*dst),
                    "knows",
                    Value::Null,
                )?;
            }
            Ok(())
        })?;
        written += chunk.len();
    }
    for chunk in data.bought.chunks(BATCH) {
        engine.run(Isolation::Snapshot, |t| {
            for (cust, pid) in chunk {
                t.add_edge(
                    "social",
                    &Key::int(*cust),
                    &Key::str(pid.clone()),
                    "bought",
                    Value::Null,
                )?;
            }
            Ok(())
        })?;
        written += chunk.len();
    }
    Ok(written)
}

/// Convenience: generate + create collections + load, returning the
/// ready engine and the dataset.
pub fn build_engine(cfg: &crate::GenConfig) -> Result<(Engine, Dataset)> {
    let data = crate::generate(cfg);
    let engine = Engine::new();
    create_collections(&engine)?;
    load_into_engine(&engine, &data)?;
    Ok((engine, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GenConfig;
    use udbms_core::Direction;

    #[test]
    fn load_roundtrips_every_model() {
        let cfg = GenConfig {
            scale_factor: 0.02,
            ..Default::default()
        };
        let (engine, data) = build_engine(&cfg).unwrap();

        let mut t = engine.begin(Isolation::Snapshot);
        assert_eq!(
            t.scan_shared("customers").unwrap().len(),
            data.customers.len()
        );
        assert_eq!(t.scan_shared("orders").unwrap().len(), data.orders.len());
        assert_eq!(
            t.scan_shared("products").unwrap().len(),
            data.products.len()
        );
        assert_eq!(
            t.scan_shared("feedback").unwrap().len(),
            data.feedback.len()
        );
        assert_eq!(
            t.scan_shared("invoices").unwrap().len(),
            data.invoices.len()
        );
        assert_eq!(
            t.scan_shared("social#v").unwrap().len(),
            data.customers.len() + data.products.len()
        );
        assert_eq!(
            t.scan_shared("social#e").unwrap().len(),
            data.knows.len() + data.bought.len()
        );

        // spot-check one invoice through XPath
        let (k, x) = &data.invoices[0];
        let total = t.xpath("invoices", k, "/Invoice/Total/text()").unwrap();
        assert_eq!(
            total,
            vec![Value::from(
                x.child_element("Total").unwrap().text_content()
            )]
        );

        // graph reachable
        let first = data.customers[0].get_field("id").as_int().unwrap();
        let n = t
            .neighbors("social", &Key::int(first), Direction::Out, None)
            .unwrap();
        assert!(!n.is_empty(), "first customer has some edge");
    }

    #[test]
    fn schemas_cover_figure_one_models() {
        use udbms_core::ModelKind;
        let kinds: Vec<ModelKind> = schemas().iter().map(|s| s.model).collect();
        assert!(kinds.contains(&ModelKind::Relational));
        assert!(kinds.contains(&ModelKind::Document));
        assert!(kinds.contains(&ModelKind::KeyValue));
        assert!(kinds.contains(&ModelKind::Xml));
        // graph collections are created by create_graph
        let e = Engine::new();
        create_collections(&e).unwrap();
        assert!(e.collection_names().contains(&"social#v".to_string()));
    }
}
