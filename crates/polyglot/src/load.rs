//! Loading the generated dataset into the polyglot deployment. Writes pay
//! the wire codec, as they would through real drivers.

use udbms_core::{obj, FieldPath, IndexKind, Key, Result, Value};
use udbms_datagen::Dataset;

use crate::stores::PolyglotDb;
use crate::wire::{json_hop, xml_hop};

/// Create schemas/indexes and load a dataset. Returns records written.
pub fn load_into_polyglot(db: &PolyglotDb, data: &Dataset) -> Result<usize> {
    let mut written = 0usize;

    {
        let mut rel = db.relational.lock();
        let schemas = udbms_datagen::schemas();
        let customers_schema = schemas
            .iter()
            .find(|s| s.name == "customers")
            .expect("canonical schema")
            .clone();
        rel.create_table(customers_schema)?;
        rel.table_mut("customers")?
            .create_index("country", IndexKind::Hash)?;
        for c in &data.customers {
            rel.insert("customers", json_hop(c))?;
            written += 1;
        }
    }
    {
        let mut docs = db.documents.lock();
        let orders = docs.collection("orders");
        orders.create_index(FieldPath::key("customer"), IndexKind::Hash)?;
        orders.create_index(FieldPath::key("status"), IndexKind::Hash)?;
        for o in &data.orders {
            orders.insert(json_hop(o))?;
            written += 1;
        }
        let products = docs.collection("products");
        products.create_index(FieldPath::key("price"), IndexKind::BTree)?;
        for p in &data.products {
            products.insert(json_hop(p))?;
            written += 1;
        }
    }
    {
        let mut kv = db.kv.lock();
        let ns = kv.namespace("feedback");
        for (k, v) in &data.feedback {
            ns.put(k.clone(), json_hop(v));
            written += 1;
        }
    }
    {
        let mut graph = db.graph.lock();
        for c in &data.customers {
            let id = c.get_field("id").as_int().expect("customer id");
            graph.add_vertex(
                Key::int(id),
                "customer",
                json_hop(&obj! {"cid" => id, "country" => c.get_field("country").clone()}),
            )?;
            written += 1;
        }
        for p in &data.products {
            let pid = p.get_field("_id").as_str().expect("product id");
            graph.add_vertex(
                Key::str(pid),
                "product",
                json_hop(&obj! {"pid" => pid, "category" => p.get_field("category").clone()}),
            )?;
            written += 1;
        }
        for (src, dst) in &data.knows {
            graph.add_edge(Key::int(*src), Key::int(*dst), "knows", Value::Null)?;
            written += 1;
        }
        for (cust, pid) in &data.bought {
            graph.add_edge(
                Key::int(*cust),
                Key::str(pid.clone()),
                "bought",
                Value::Null,
            )?;
            written += 1;
        }
    }
    {
        let mut xml = db.xml.lock();
        for (k, tree) in &data.invoices {
            xml.insert(k.clone(), xml_hop(tree)?);
            written += 1;
        }
    }
    Ok(written)
}

#[cfg(test)]
mod tests {
    use super::*;
    use udbms_core::{Direction, Predicate};
    use udbms_datagen::GenConfig;

    #[test]
    fn loads_every_model() {
        let data = udbms_datagen::generate(&GenConfig {
            scale_factor: 0.02,
            ..Default::default()
        });
        let db = PolyglotDb::new();
        load_into_polyglot(&db, &data).unwrap();
        let every_row = Predicate::and([]);
        let rows = db
            .relational
            .lock()
            .select("customers", &every_row)
            .unwrap();
        assert_eq!(rows.len(), data.customers.len());
        let docs = db.documents.lock();
        let count = |name| docs.get_collection(name).unwrap().scan().count();
        assert_eq!(count("orders"), data.orders.len());
        assert_eq!(count("products"), data.products.len());
        let kv = db.kv.lock();
        let feedback = kv.get_namespace("feedback").unwrap().scan_prefix("");
        assert_eq!(feedback.count(), data.feedback.len());
        let graph = db.graph.lock();
        let customers = data
            .customers
            .iter()
            .map(|c| Key::new(c.get_field("id").clone()).unwrap());
        let products = data
            .products
            .iter()
            .map(|p| Key::new(p.get_field("_id").clone()).unwrap());
        let vertices: Vec<Key> = customers.chain(products).collect();
        assert!(vertices.iter().all(|v| graph.vertex(v).is_some()));
        let edges: usize = vertices
            .iter()
            .map(|v| graph.incident(v, Direction::Out, None).len())
            .sum();
        assert_eq!(edges, data.knows.len() + data.bought.len());
        assert_eq!(db.xml.lock().len(), data.invoices.len());
    }
}
