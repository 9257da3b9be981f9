//! Model-agnostic schema descriptions.
//!
//! The paper's second pillar demands that a multi-model benchmark "control
//! (and systematically vary) input schema and the complexity of a schema
//! evolution". These types are that control surface: every collection the
//! generator emits — relational table, document collection, KV namespace,
//! graph vertex/edge set, XML document store — is described by a
//! [`CollectionSchema`], which the evolution crate then rewrites version by
//! version. NoSQL collections may of course hold values *beyond* their
//! declared schema ("data first, schema later or never"); validation is
//! strict only for the relational model.

use std::fmt;

use crate::error::{Error, Result};
use crate::object::Object;
use crate::value::Value;

/// The five data models of the UDBMS benchmark (paper Figure 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ModelKind {
    /// Schema-first tables with typed columns.
    Relational,
    /// JSON document collections.
    Document,
    /// Opaque key → value pairs.
    KeyValue,
    /// Property graph (vertices + edges).
    Graph,
    /// XML documents.
    Xml,
}

impl ModelKind {
    /// All models, in Figure-1 order.
    pub const ALL: [ModelKind; 5] = [
        ModelKind::Relational,
        ModelKind::Document,
        ModelKind::KeyValue,
        ModelKind::Graph,
        ModelKind::Xml,
    ];

    /// Short lowercase label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            ModelKind::Relational => "relational",
            ModelKind::Document => "document",
            ModelKind::KeyValue => "key-value",
            ModelKind::Graph => "graph",
            ModelKind::Xml => "xml",
        }
    }
}

impl fmt::Display for ModelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The type of a field in a schema.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldType {
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// IEEE-754 double.
    Float,
    /// UTF-8 string.
    Str,
    /// Raw bytes.
    Bytes,
    /// Homogeneous array of the element type.
    Array(Box<FieldType>),
    /// Nested object with its own fields.
    Object(Vec<FieldDef>),
    /// Any value accepted (schemaless slot).
    Any,
}

impl FieldType {
    /// Does `v` conform to this type? `Null` never conforms — nullability
    /// is a property of the [`FieldDef`].
    pub fn admits(&self, v: &Value) -> bool {
        match (self, v) {
            (FieldType::Any, _) => !v.is_null(),
            (FieldType::Bool, Value::Bool(_)) => true,
            (FieldType::Int, Value::Int(_)) => true,
            // Relational practice: an Int is acceptable where a Float is
            // declared (implicit widening), not vice versa.
            (FieldType::Float, Value::Float(_) | Value::Int(_)) => true,
            (FieldType::Str, Value::Str(_)) => true,
            (FieldType::Bytes, Value::Bytes(_)) => true,
            (FieldType::Array(elem), Value::Array(items)) => {
                items.iter().all(|i| elem.admits(i) || i.is_null())
            }
            (FieldType::Object(fields), Value::Object(_)) => validate_fields(fields, v).is_ok(),
            _ => false,
        }
    }

    /// Can a value of type `self` always be represented as `wider` without
    /// loss? (Used to classify evolution type changes as compatible.)
    pub fn widens_to(&self, wider: &FieldType) -> bool {
        self == wider
            || matches!((self, wider), (FieldType::Int, FieldType::Float))
            || matches!(wider, FieldType::Any)
            || matches!((self, wider), (FieldType::Array(a), FieldType::Array(b)) if a.widens_to(b))
    }

    /// Compact display name.
    pub fn name(&self) -> String {
        match self {
            FieldType::Bool => "bool".into(),
            FieldType::Int => "int".into(),
            FieldType::Float => "float".into(),
            FieldType::Str => "str".into(),
            FieldType::Bytes => "bytes".into(),
            FieldType::Array(e) => format!("array<{}>", e.name()),
            FieldType::Object(fs) => format!("object<{} fields>", fs.len()),
            FieldType::Any => "any".into(),
        }
    }
}

impl fmt::Display for FieldType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name())
    }
}

/// A named, typed field of a collection schema.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDef {
    /// Field / column name.
    pub name: String,
    /// Declared type.
    pub ftype: FieldType,
    /// Whether `Null` / absence is allowed.
    pub nullable: bool,
    /// Default applied by migrations and relaxed inserts.
    pub default: Option<Value>,
}

impl FieldDef {
    /// A required (non-null, no default) field.
    pub fn required(name: impl Into<String>, ftype: FieldType) -> FieldDef {
        FieldDef {
            name: name.into(),
            ftype,
            nullable: false,
            default: None,
        }
    }

    /// An optional (nullable) field.
    pub fn optional(name: impl Into<String>, ftype: FieldType) -> FieldDef {
        FieldDef {
            name: name.into(),
            ftype,
            nullable: true,
            default: None,
        }
    }

    /// Attach a default value, builder-style.
    #[must_use]
    pub fn with_default(mut self, v: Value) -> FieldDef {
        self.default = Some(v);
        self
    }
}

fn validate_fields(fields: &[FieldDef], v: &Value) -> Result<()> {
    let obj = v.expect_object("schema validation")?;
    for fd in fields {
        match obj.get(&fd.name) {
            None | Some(Value::Null) => {
                if !fd.nullable && fd.default.is_none() {
                    return Err(Error::Constraint(format!(
                        "missing required field `{}`",
                        fd.name
                    )));
                }
            }
            Some(val) => {
                if !fd.ftype.admits(val) {
                    return Err(Error::Constraint(format!(
                        "field `{}` expects {}, found {}",
                        fd.name,
                        fd.ftype,
                        val.type_name()
                    )));
                }
            }
        }
    }
    Ok(())
}

/// Schema of one collection in one model.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectionSchema {
    /// Collection name, unique within an engine catalog.
    pub name: String,
    /// Which of the five models the collection belongs to.
    pub model: ModelKind,
    /// Monotonically increasing schema version (bumped by evolution).
    pub version: u32,
    /// Declared fields. For KV namespaces this is typically empty; for
    /// graph sets it describes the property object.
    pub fields: Vec<FieldDef>,
    /// Name of the primary-key field, when the model has one.
    pub primary_key: Option<String>,
    /// Whether values beyond the declared fields are permitted
    /// (true for every NoSQL model; false for relational).
    pub open: bool,
}

impl CollectionSchema {
    /// A schema-first relational table (closed; extra columns rejected).
    pub fn relational(
        name: impl Into<String>,
        pk: impl Into<String>,
        fields: Vec<FieldDef>,
    ) -> Self {
        CollectionSchema {
            name: name.into(),
            model: ModelKind::Relational,
            version: 1,
            fields,
            primary_key: Some(pk.into()),
            open: false,
        }
    }

    /// A document collection (open; fields describe the *expected* shape).
    pub fn document(name: impl Into<String>, pk: impl Into<String>, fields: Vec<FieldDef>) -> Self {
        CollectionSchema {
            name: name.into(),
            model: ModelKind::Document,
            version: 1,
            fields,
            primary_key: Some(pk.into()),
            open: true,
        }
    }

    /// A key-value namespace (no declared fields).
    pub fn key_value(name: impl Into<String>) -> Self {
        CollectionSchema {
            name: name.into(),
            model: ModelKind::KeyValue,
            version: 1,
            fields: Vec::new(),
            primary_key: None,
            open: true,
        }
    }

    /// A graph vertex or edge set whose property object follows `fields`.
    pub fn graph(name: impl Into<String>, fields: Vec<FieldDef>) -> Self {
        CollectionSchema {
            name: name.into(),
            model: ModelKind::Graph,
            version: 1,
            fields,
            primary_key: None,
            open: true,
        }
    }

    /// An XML document store.
    pub fn xml(name: impl Into<String>) -> Self {
        CollectionSchema {
            name: name.into(),
            model: ModelKind::Xml,
            version: 1,
            fields: Vec::new(),
            primary_key: None,
            open: true,
        }
    }

    /// Look up a field definition by name.
    pub fn field(&self, name: &str) -> Option<&FieldDef> {
        self.fields.iter().find(|f| f.name == name)
    }

    /// Validate a value against the schema. Open collections only check
    /// declared fields; closed ones also reject undeclared members.
    pub fn validate(&self, v: &Value) -> Result<()> {
        if self.fields.is_empty() && self.open {
            return Ok(()); // fully schemaless
        }
        validate_fields(&self.fields, v)?;
        if !self.open {
            let obj = v.expect_object("closed-schema validation")?;
            for k in obj.keys() {
                if self.field(k).is_none() {
                    return Err(Error::Constraint(format!(
                        "undeclared column `{k}` in closed collection `{}`",
                        self.name
                    )));
                }
            }
        }
        Ok(())
    }

    /// Apply declared defaults to missing fields, in place.
    pub fn apply_defaults(&self, v: &mut Value) {
        if let Value::Object(obj) = v {
            for fd in &self.fields {
                if let Some(default) = &fd.default {
                    obj.entry(fd.name.clone())
                        .or_insert_with(|| default.clone());
                }
            }
        }
    }

    /// Summary map used by the F1 (Figure 1) inventory report.
    pub fn describe(&self) -> Object {
        let mut m = Object::new();
        m.insert("name".into(), Value::from(self.name.clone()));
        m.insert("model".into(), Value::from(self.model.label()));
        m.insert("version".into(), Value::from(i64::from(self.version)));
        m.insert("fields".into(), Value::from(self.fields.len()));
        m.insert(
            "primary_key".into(),
            self.primary_key
                .clone()
                .map(Value::from)
                .unwrap_or(Value::Null),
        );
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obj;

    fn customer_schema() -> CollectionSchema {
        CollectionSchema::relational(
            "customers",
            "id",
            vec![
                FieldDef::required("id", FieldType::Int),
                FieldDef::required("name", FieldType::Str),
                FieldDef::optional("country", FieldType::Str),
                FieldDef::optional("score", FieldType::Float).with_default(Value::Float(0.0)),
            ],
        )
    }

    #[test]
    fn relational_schema_validates_rows() {
        let s = customer_schema();
        assert!(s.validate(&obj! {"id" => 1, "name" => "Ada"}).is_ok());
        assert!(
            s.validate(&obj! {"id" => 1}).is_err(),
            "missing required name"
        );
        assert!(
            s.validate(&obj! {"id" => "x", "name" => "Ada"}).is_err(),
            "id type"
        );
        assert!(
            s.validate(&obj! {"id" => 1, "name" => "Ada", "extra" => 1})
                .is_err(),
            "closed schema rejects undeclared columns"
        );
    }

    #[test]
    fn open_document_schema_allows_extra_fields() {
        let s = CollectionSchema::document(
            "orders",
            "order_id",
            vec![FieldDef::required("order_id", FieldType::Str)],
        );
        assert!(s
            .validate(&obj! {"order_id" => "o1", "anything" => arr_like()})
            .is_ok());
        assert!(
            s.validate(&obj! {"whatever" => 1}).is_err(),
            "declared required still enforced"
        );
    }

    fn arr_like() -> Value {
        Value::Array(vec![Value::Int(1)])
    }

    #[test]
    fn int_widens_into_float_column() {
        let s = customer_schema();
        assert!(s
            .validate(&obj! {"id" => 1, "name" => "A", "score" => 3})
            .is_ok());
    }

    #[test]
    fn defaults_fill_missing_fields() {
        let s = customer_schema();
        let mut row = obj! {"id" => 1, "name" => "Ada"};
        s.apply_defaults(&mut row);
        assert_eq!(row.get_field("score"), &Value::Float(0.0));
    }

    #[test]
    fn widening_rules() {
        assert!(FieldType::Int.widens_to(&FieldType::Float));
        assert!(!FieldType::Float.widens_to(&FieldType::Int));
        assert!(FieldType::Str.widens_to(&FieldType::Any));
        assert!(FieldType::Array(Box::new(FieldType::Int))
            .widens_to(&FieldType::Array(Box::new(FieldType::Float))));
        assert!(FieldType::Int.widens_to(&FieldType::Int));
    }

    #[test]
    fn nested_object_types_validate_recursively() {
        let t = FieldType::Object(vec![
            FieldDef::required("city", FieldType::Str),
            FieldDef::optional("zip", FieldType::Str),
        ]);
        assert!(t.admits(&obj! {"city" => "Helsinki"}));
        assert!(!t.admits(&obj! {"zip" => "00100"}), "missing required city");
        assert!(!t.admits(&Value::Int(1)));
    }

    #[test]
    fn kv_namespace_is_fully_schemaless() {
        let s = CollectionSchema::key_value("feedback");
        assert!(s.validate(&Value::Bytes(vec![1, 2, 3])).is_ok());
        assert!(s.validate(&Value::Int(5)).is_ok());
    }

    #[test]
    fn model_labels_cover_figure_1() {
        let labels: Vec<&str> = ModelKind::ALL.iter().map(|m| m.label()).collect();
        assert_eq!(
            labels,
            ["relational", "document", "key-value", "graph", "xml"]
        );
    }

    #[test]
    fn array_fields_admit_nullable_elements() {
        let t = FieldType::Array(Box::new(FieldType::Int));
        assert!(t.admits(&Value::Array(vec![Value::Int(1), Value::Null])));
        assert!(!t.admits(&Value::Array(vec![Value::Str("x".into())])));
    }
}
