//! A named collection of tables — the standalone relational store used by
//! the polyglot-persistence baseline.

use std::collections::BTreeMap;

use udbms_core::{CollectionSchema, Error, Key, Predicate, Result, Value};

use crate::table::Table;

/// An in-memory relational database: tables addressed by name.
#[derive(Debug, Default, Clone)]
pub(crate) struct RelationalDb {
    tables: BTreeMap<String, Table>,
}

impl RelationalDb {
    /// Create a table from a schema.
    pub(crate) fn create_table(&mut self, schema: CollectionSchema) -> Result<()> {
        let name = schema.name.clone();
        if self.tables.contains_key(&name) {
            return Err(Error::AlreadyExists(format!("table `{name}`")));
        }
        self.tables.insert(name, Table::new(schema));
        Ok(())
    }

    /// Borrow a table.
    fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(name)
            .ok_or_else(|| Error::NotFound(format!("table `{name}`")))
    }

    /// Mutably borrow a table.
    pub(crate) fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| Error::NotFound(format!("table `{name}`")))
    }

    /// Insert into a named table.
    pub(crate) fn insert(&mut self, table: &str, row: Value) -> Result<Key> {
        self.table_mut(table)?.insert(row)
    }

    /// Fetch by primary key from a named table.
    pub(crate) fn get(&self, table: &str, key: &Key) -> Result<Option<Value>> {
        Ok(self.table(table)?.get(key).cloned())
    }

    /// Select matching rows from a named table.
    pub(crate) fn select(&self, table: &str, pred: &Predicate) -> Result<Vec<Value>> {
        Ok(self.table(table)?.select(pred))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udbms_core::{obj, FieldDef, FieldType};

    fn db() -> RelationalDb {
        let mut db = RelationalDb::default();
        db.create_table(CollectionSchema::relational(
            "customers",
            "id",
            vec![
                FieldDef::required("id", FieldType::Int),
                FieldDef::required("name", FieldType::Str),
            ],
        ))
        .unwrap();
        db.insert("customers", obj! {"id" => 1, "name" => "Ada"})
            .unwrap();
        db
    }

    #[test]
    fn create_insert_get() {
        let db = db();
        let row = db.get("customers", &Key::int(1)).unwrap().unwrap();
        assert_eq!(row.get_field("name"), &Value::from("Ada"));
        assert!(db.get("customers", &Key::int(2)).unwrap().is_none());
        let every_row = Predicate::and([]);
        assert_eq!(db.select("customers", &every_row).unwrap(), [row]);
    }

    #[test]
    fn unknown_table_errors() {
        let mut db = db();
        assert!(db.get("nope", &Key::int(1)).is_err());
        assert!(db.insert("nope", obj! {"id" => 1}).is_err());
        assert!(db.select("nope", &Predicate::and([])).is_err());
    }

    #[test]
    fn duplicate_table_rejected_and_drop() {
        let mut db = db();
        assert!(db
            .create_table(CollectionSchema::relational("customers", "id", vec![]))
            .is_err());
    }

    #[test]
    fn select_via_db() {
        let db = db();
        let rows = db
            .select("customers", &Predicate::eq("name", Value::from("Ada")))
            .unwrap();
        assert_eq!(rows.len(), 1);
    }
}
