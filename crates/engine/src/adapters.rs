//! Graph and XML helpers on [`Txn`]: thin adapters that phrase a model's
//! operations as reads and writes of the one record store — a graph is
//! two collections (`{name}#v`, `{name}#e`), an XML document a bridge-
//! encoded value. The write helpers take the write path of `writes.rs`.

use udbms_core::{Direction, Error, FieldPath, Key, Predicate, Result, Value};
use udbms_xml::{XPath, XmlDocument};

use crate::reads::{read_one, Txn};
use crate::storage::RecordId;
use crate::writes::store;

impl Txn {
    /// Add a vertex to a graph created with [`crate::Engine::create_graph`].
    pub fn add_vertex(&mut self, graph: &str, key: Key, label: &str, props: Value) -> Result<()> {
        let (inner, state) = self.write_parts()?;
        let mut v = match props {
            Value::Object(_) => props,
            Value::Null => Value::Object(Default::default()),
            other => return Err(Error::type_err("Object (vertex props)", other.type_name())),
        };
        if let Some(obj) = v.as_object_mut() {
            obj.insert("_label".into(), Value::from(label));
        }
        let catalog = inner.catalog.read();
        let vertices = catalog.get(&format!("{graph}#v"))?;
        if read_one(inner, state, RecordId::new(vertices.id, key.clone())).is_some() {
            return Err(Error::AlreadyExists(format!(
                "vertex {key} in graph `{graph}`"
            )));
        }
        store(vertices.id, &vertices.schema, state, [(key, v)])
    }

    /// Fetch a vertex's properties (including `_label`).
    pub fn vertex(&mut self, graph: &str, key: &Key) -> Result<Option<Value>> {
        self.get(&format!("{graph}#v"), key)
    }

    /// Add an edge between existing vertices; returns the edge key.
    pub fn add_edge(
        &mut self,
        graph: &str,
        src: &Key,
        dst: &Key,
        label: &str,
        props: Value,
    ) -> Result<Key> {
        let (inner, state) = self.write_parts()?;
        let catalog = inner.catalog.read();
        let vertices = catalog.get(&format!("{graph}#v"))?.id;
        for (end, key) in [("source", src), ("destination", dst)] {
            if read_one(inner, state, RecordId::new(vertices, key.clone())).is_none() {
                return Err(Error::NotFound(format!(
                    "{end} vertex {key} in graph `{graph}`"
                )));
            }
        }
        let edge = udbms_core::obj! {
            "_src" => src.value().clone(),
            "_dst" => dst.value().clone(),
            "_label" => label,
            "props" => props,
        };
        let edges = catalog.get(&format!("{graph}#e"))?;
        let ekey = Key::int(edges.next_auto_id());
        store(edges.id, &edges.schema, state, [(ekey.clone(), edge)])?;
        Ok(ekey)
    }

    /// Neighbor vertex keys along `dir`, optionally filtered by edge
    /// label. Deduplicated, sorted by key.
    pub fn neighbors(
        &mut self,
        graph: &str,
        key: &Key,
        dir: Direction,
        label: Option<&str>,
    ) -> Result<Vec<Key>> {
        let ecoll = format!("{graph}#e");
        let mut out: std::collections::BTreeSet<Key> = Default::default();
        let mut probe = |field: &str, other: &str, me: &mut Self| -> Result<()> {
            let mut pred = Predicate::Eq(FieldPath::key(field), key.value().clone());
            if let Some(l) = label {
                pred = Predicate::And(vec![
                    pred,
                    Predicate::Eq(FieldPath::key("_label"), Value::from(l)),
                ]);
            }
            for (_, edge) in me.rows(&ecoll, Some(&pred), None)? {
                out.insert(Key::new(edge.get_field(other).clone())?);
            }
            Ok(())
        };
        match dir {
            Direction::Out => probe("_src", "_dst", self)?,
            Direction::In => probe("_dst", "_src", self)?,
            Direction::Both => {
                probe("_src", "_dst", self)?;
                probe("_dst", "_src", self)?;
            }
        }
        Ok(out.into_iter().collect())
    }

    /// Parse XML text and store it under `key` (bridge-encoded).
    pub fn put_xml(&mut self, collection: &str, key: Key, xml_text: &str) -> Result<()> {
        self.write_parts()?;
        let doc = udbms_xml::parse(xml_text)?;
        let value = udbms_xml::xml_to_value(doc.root());
        self.put(collection, key, value)
    }

    /// Fetch a stored XML document.
    pub fn get_xml(&mut self, collection: &str, key: &Key) -> Result<Option<XmlDocument>> {
        match self.get_shared(collection, key)? {
            None => Ok(None),
            Some(v) => Ok(Some(XmlDocument::new(udbms_xml::value_to_xml(&v)?))),
        }
    }

    /// Evaluate an XPath-lite expression against a stored XML document.
    /// Returns `[]` when the document is absent.
    pub fn xpath(&mut self, collection: &str, key: &Key, expr: &str) -> Result<Vec<Value>> {
        let compiled = XPath::parse(expr)?;
        match self.get_xml(collection, key)? {
            None => Ok(Vec::new()),
            Some(doc) => Ok(compiled.values(doc.root())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::tests::engine;
    use crate::Isolation;
    use udbms_core::obj;

    #[test]
    fn graph_facade_traversals_in_txn() {
        let e = engine();
        e.run(Isolation::Snapshot, |t| {
            for i in 1..=4 {
                t.add_vertex("social", Key::int(i), "customer", obj! {"n" => i})?;
            }
            t.add_edge("social", &Key::int(1), &Key::int(2), "knows", Value::Null)?;
            t.add_edge("social", &Key::int(2), &Key::int(3), "knows", Value::Null)?;
            t.add_edge("social", &Key::int(3), &Key::int(4), "follows", Value::Null)?;
            Ok(())
        })
        .unwrap();
        let mut t = e.begin(Isolation::Snapshot);
        assert_eq!(
            t.neighbors("social", &Key::int(1), Direction::Out, None)
                .unwrap(),
            vec![Key::int(2)]
        );
        assert_eq!(
            t.neighbors("social", &Key::int(2), Direction::Both, Some("knows"))
                .unwrap(),
            vec![Key::int(1), Key::int(3)]
        );
        assert!(
            t.add_edge("social", &Key::int(1), &Key::int(99), "knows", Value::Null)
                .is_err(),
            "dangling endpoints rejected"
        );
        assert!(t.add_vertex("social", Key::int(1), "dup", obj! {}).is_err());
    }

    #[test]
    fn xml_facade_validates_and_queries() {
        let e = engine();
        let mut t = e.begin(Isolation::Snapshot);
        assert!(t.put_xml("invoices", Key::int(1), "<broken").is_err());
        assert!(
            t.put("invoices", Key::int(1), obj! {"not" => "xml bridge"})
                .is_err(),
            "raw puts to xml collections must be valid bridge values"
        );
        t.put_xml(
            "invoices",
            Key::int(1),
            r#"<Invoice><Items><Item qty="2"/><Item qty="5"/></Items></Invoice>"#,
        )
        .unwrap();
        let qtys = t.xpath("invoices", &Key::int(1), "//Item/@qty").unwrap();
        assert_eq!(qtys, vec![Value::from("2"), Value::from("5")]);
        assert!(t.xpath("invoices", &Key::int(9), "//x").unwrap().is_empty());
        let doc = t.get_xml("invoices", &Key::int(1)).unwrap().unwrap();
        assert_eq!(doc.root().name(), Some("Invoice"));
        t.commit().unwrap();
    }
}
