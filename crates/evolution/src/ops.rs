//! The schema-evolution operation catalogue.
//!
//! Each operation knows how to (1) rewrite a collection schema, (2)
//! migrate existing values forward, (3) rewrite an access path used by an
//! old query, and (4) classify its own compatibility — the ingredients
//! the paper's "multi-model schema evolution" pillar requires ("the
//! change of schema can affect the usability of history queries").

use udbms_core::{CollectionSchema, Error, FieldDef, FieldPath, FieldType, Result, Value};

/// Compatibility class of an evolution operation with respect to queries
/// written against the *previous* schema version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Compat {
    /// Old queries keep working untouched (e.g. adding an optional field).
    BackwardCompatible,
    /// Old queries break as written but can be rewritten mechanically
    /// (e.g. renames, nest/flatten — the path mapping is known).
    Adaptable,
    /// Old queries touching the affected paths cannot be saved
    /// (e.g. dropped fields, narrowing type changes).
    Breaking,
}

impl Compat {
    /// Report label.
    pub fn label(self) -> &'static str {
        match self {
            Compat::BackwardCompatible => "compatible",
            Compat::Adaptable => "adaptable",
            Compat::Breaking => "breaking",
        }
    }
}

/// What happens to an access path under an evolution operation.
#[derive(Debug, Clone, PartialEq)]
pub enum PathOutcome {
    /// Path unaffected.
    Unchanged,
    /// Path must be rewritten to the given new path.
    Rewritten(FieldPath),
    /// Path no longer exists.
    Dropped,
}

/// One schema-evolution operation on one collection.
#[derive(Debug, Clone, PartialEq)]
pub enum EvolutionOp {
    /// Add a field (with optional default backfilled into existing data).
    AddField {
        /// Target collection.
        collection: String,
        /// The new field.
        field: FieldDef,
    },
    /// Remove a field and delete it from existing data.
    DropField {
        /// Target collection.
        collection: String,
        /// Field to drop.
        field: String,
    },
    /// Rename a field, moving existing data.
    RenameField {
        /// Target collection.
        collection: String,
        /// Old name.
        from: String,
        /// New name.
        to: String,
    },
    /// Change a field's declared type, casting existing values where
    /// possible (widening is compatible; narrowing is breaking and
    /// non-castable values become `Null`).
    ChangeType {
        /// Target collection.
        collection: String,
        /// Field to retype.
        field: String,
        /// New type.
        to: FieldType,
    },
    /// Move top-level fields into a new nested object.
    NestFields {
        /// Target collection.
        collection: String,
        /// Fields to move.
        fields: Vec<String>,
        /// Name of the new sub-object.
        into: String,
    },
    /// Inverse of [`EvolutionOp::NestFields`]: lift a sub-object's members
    /// to the top level.
    FlattenField {
        /// Target collection.
        collection: String,
        /// Sub-object to dissolve.
        field: String,
    },
}

impl EvolutionOp {
    /// The collection this operation touches.
    pub fn collection(&self) -> &str {
        match self {
            EvolutionOp::AddField { collection, .. }
            | EvolutionOp::DropField { collection, .. }
            | EvolutionOp::RenameField { collection, .. }
            | EvolutionOp::ChangeType { collection, .. }
            | EvolutionOp::NestFields { collection, .. }
            | EvolutionOp::FlattenField { collection, .. } => collection,
        }
    }

    /// Compatibility class (see [`Compat`]).
    pub fn compatibility(&self) -> Compat {
        match self {
            EvolutionOp::AddField { .. } => Compat::BackwardCompatible,
            EvolutionOp::DropField { .. } => Compat::Breaking,
            EvolutionOp::RenameField { .. } => Compat::Adaptable,
            EvolutionOp::ChangeType {
                collection: _,
                field: _,
                to,
            } => {
                // we cannot see the old type here; apply_schema() checks it.
                // Widening to Any/Float is the common compatible case.
                match to {
                    FieldType::Any | FieldType::Float => Compat::BackwardCompatible,
                    _ => Compat::Breaking,
                }
            }
            EvolutionOp::NestFields { .. } | EvolutionOp::FlattenField { .. } => Compat::Adaptable,
        }
    }

    /// Produce the next schema version.
    pub fn apply_schema(&self, schema: &CollectionSchema) -> Result<CollectionSchema> {
        let mut next = schema.clone();
        next.version += 1;
        match self {
            EvolutionOp::AddField { field, .. } => {
                if next.field(&field.name).is_some() {
                    return Err(Error::AlreadyExists(format!("field `{}`", field.name)));
                }
                if !field.nullable && field.default.is_none() {
                    return Err(Error::Constraint(
                        "a new required field needs a default to backfill".into(),
                    ));
                }
                next.fields.push(field.clone());
            }
            EvolutionOp::DropField { field, .. } => {
                if schema.primary_key.as_deref() == Some(field.as_str()) {
                    return Err(Error::Constraint("cannot drop the primary key".into()));
                }
                let before = next.fields.len();
                next.fields.retain(|f| f.name != *field);
                if before == next.fields.len() && !schema.open {
                    return Err(Error::NotFound(format!("field `{field}`")));
                }
            }
            EvolutionOp::RenameField { from, to, .. } => {
                if schema.primary_key.as_deref() == Some(from.as_str()) {
                    return Err(Error::Constraint("cannot rename the primary key".into()));
                }
                if next.field(to).is_some() {
                    return Err(Error::AlreadyExists(format!("field `{to}`")));
                }
                let mut found = false;
                for f in &mut next.fields {
                    if f.name == *from {
                        f.name = to.clone();
                        found = true;
                    }
                }
                if !found && !schema.open {
                    return Err(Error::NotFound(format!("field `{from}`")));
                }
            }
            EvolutionOp::ChangeType { field, to, .. } => {
                let mut found = false;
                for f in &mut next.fields {
                    if f.name == *field {
                        f.ftype = to.clone();
                        found = true;
                    }
                }
                if !found && !schema.open {
                    return Err(Error::NotFound(format!("field `{field}`")));
                }
            }
            EvolutionOp::NestFields { fields, into, .. } => {
                let moved: Vec<FieldDef> = next
                    .fields
                    .iter()
                    .filter(|f| fields.contains(&f.name))
                    .cloned()
                    .collect();
                next.fields.retain(|f| !fields.contains(&f.name));
                next.fields
                    .push(FieldDef::optional(into.clone(), FieldType::Object(moved)));
            }
            EvolutionOp::FlattenField { field, .. } => {
                let mut lifted: Vec<FieldDef> = Vec::new();
                if let Some(def) = next.field(field) {
                    if let FieldType::Object(children) = &def.ftype {
                        lifted = children.clone();
                    }
                }
                next.fields.retain(|f| f.name != *field);
                next.fields.extend(lifted);
            }
        }
        Ok(next)
    }

    /// Migrate one stored value forward.
    pub fn migrate_value(&self, value: &mut Value) {
        let Some(obj) = value.as_object_mut() else {
            return;
        };
        match self {
            EvolutionOp::AddField { field, .. } => {
                if let Some(default) = &field.default {
                    obj.entry(field.name.clone())
                        .or_insert_with(|| default.clone());
                }
            }
            EvolutionOp::DropField { field, .. } => {
                obj.remove(field);
            }
            EvolutionOp::RenameField { from, to, .. } => {
                if let Some(v) = obj.remove(from) {
                    obj.insert(to.clone(), v);
                }
            }
            EvolutionOp::ChangeType { field, to, .. } => {
                if let Some(v) = obj.get_mut(field) {
                    *v = cast_value(v, to);
                }
            }
            EvolutionOp::NestFields { fields, into, .. } => {
                let mut nested = udbms_core::Object::new();
                for f in fields {
                    if let Some(v) = obj.remove(f) {
                        nested.insert(f.clone(), v);
                    }
                }
                obj.insert(into.clone(), Value::Object(nested));
            }
            EvolutionOp::FlattenField { field, .. } => {
                if let Some(Value::Object(children)) = obj.remove(field) {
                    for (k, v) in children {
                        obj.entry(k).or_insert(v);
                    }
                }
            }
        }
    }

    /// How an old access path into this collection fares.
    pub fn rewrite_path(&self, path: &FieldPath) -> PathOutcome {
        match self {
            EvolutionOp::AddField { .. } => PathOutcome::Unchanged,
            EvolutionOp::DropField { field, .. } => {
                if path.starts_with(&FieldPath::key(field.clone())) {
                    PathOutcome::Dropped
                } else {
                    PathOutcome::Unchanged
                }
            }
            EvolutionOp::RenameField { from, to, .. } => {
                match path
                    .replace_prefix(&FieldPath::key(from.clone()), &FieldPath::key(to.clone()))
                {
                    Some(p) => PathOutcome::Rewritten(p),
                    None => PathOutcome::Unchanged,
                }
            }
            EvolutionOp::ChangeType { field, to, .. } => {
                if path.head_key() == Some(field.as_str()) {
                    match to {
                        // widening keeps values readable
                        FieldType::Any | FieldType::Float => PathOutcome::Unchanged,
                        _ => PathOutcome::Dropped,
                    }
                } else {
                    PathOutcome::Unchanged
                }
            }
            EvolutionOp::NestFields { fields, into, .. } => match path.head_key() {
                Some(h) if fields.iter().any(|f| f == h) => {
                    let rewritten = FieldPath::key(into.clone());
                    PathOutcome::Rewritten(
                        path.replace_prefix(&FieldPath::root(), &rewritten)
                            .expect("root prefix always matches"),
                    )
                }
                _ => PathOutcome::Unchanged,
            },
            EvolutionOp::FlattenField { field, .. } => {
                let prefix = FieldPath::key(field.clone());
                if path == &prefix {
                    PathOutcome::Dropped // the object itself is gone
                } else {
                    match path.replace_prefix(&prefix, &FieldPath::root()) {
                        Some(p) => PathOutcome::Rewritten(p),
                        None => PathOutcome::Unchanged,
                    }
                }
            }
        }
    }

    /// Short description for reports.
    pub fn describe(&self) -> String {
        match self {
            EvolutionOp::AddField { collection, field } => {
                format!("add `{}`.`{}` : {}", collection, field.name, field.ftype)
            }
            EvolutionOp::DropField { collection, field } => {
                format!("drop `{collection}`.`{field}`")
            }
            EvolutionOp::RenameField {
                collection,
                from,
                to,
            } => {
                format!("rename `{collection}`.`{from}` -> `{to}`")
            }
            EvolutionOp::ChangeType {
                collection,
                field,
                to,
            } => {
                format!("retype `{collection}`.`{field}` to {to}")
            }
            EvolutionOp::NestFields {
                collection,
                fields,
                into,
            } => {
                format!("nest `{collection}`.{fields:?} into `{into}`")
            }
            EvolutionOp::FlattenField { collection, field } => {
                format!("flatten `{collection}`.`{field}`")
            }
        }
    }
}

/// Best-effort cast used by `ChangeType` migrations; uncastable values
/// become `Null` (the "data first, schema later" reality the paper
/// highlights).
fn cast_value(v: &Value, to: &FieldType) -> Value {
    match to {
        FieldType::Any => v.clone(),
        FieldType::Float => v.as_float().map(Value::Float).unwrap_or(Value::Null),
        FieldType::Int => match v {
            Value::Int(i) => Value::Int(*i),
            // narrowing truncates, like SQL CAST
            Value::Float(f) if f.is_finite() => Value::Int(*f as i64),
            _ => Value::Null,
        },
        FieldType::Str => match v {
            Value::Str(s) => Value::Str(s.clone()),
            Value::Null => Value::Null,
            other => Value::Str(other.to_string()),
        },
        FieldType::Bool => match v {
            Value::Bool(b) => Value::Bool(*b),
            _ => Value::Null,
        },
        _ => Value::Null,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use udbms_core::obj;

    fn schema() -> CollectionSchema {
        CollectionSchema::document(
            "orders",
            "_id",
            vec![
                FieldDef::required("_id", FieldType::Str),
                FieldDef::required("total", FieldType::Float),
                FieldDef::optional("status", FieldType::Str),
                FieldDef::optional("city", FieldType::Str),
                FieldDef::optional("zip", FieldType::Str),
            ],
        )
    }

    #[test]
    fn add_field_backfills_default() {
        let op = EvolutionOp::AddField {
            collection: "orders".into(),
            field: FieldDef::required("channel", FieldType::Str).with_default(Value::from("web")),
        };
        let next = op.apply_schema(&schema()).unwrap();
        assert_eq!(next.version, 2);
        assert!(next.field("channel").is_some());
        let mut v = obj! {"_id" => "o1", "total" => 5.0};
        op.migrate_value(&mut v);
        assert_eq!(v.get_field("channel"), &Value::from("web"));
        assert_eq!(op.compatibility(), Compat::BackwardCompatible);
        assert_eq!(
            op.rewrite_path(&FieldPath::key("total")),
            PathOutcome::Unchanged
        );

        // duplicate & default-less required adds are rejected
        let dup = EvolutionOp::AddField {
            collection: "orders".into(),
            field: FieldDef::optional("total", FieldType::Float),
        };
        assert!(dup.apply_schema(&schema()).is_err());
        let nodefault = EvolutionOp::AddField {
            collection: "orders".into(),
            field: FieldDef::required("x", FieldType::Int),
        };
        assert!(nodefault.apply_schema(&schema()).is_err());
    }

    #[test]
    fn drop_field_breaks_paths() {
        let op = EvolutionOp::DropField {
            collection: "orders".into(),
            field: "status".into(),
        };
        let next = op.apply_schema(&schema()).unwrap();
        assert!(next.field("status").is_none());
        let mut v = obj! {"_id" => "o1", "status" => "open", "total" => 1.0};
        op.migrate_value(&mut v);
        assert!(v.get_field("status").is_null());
        assert_eq!(op.compatibility(), Compat::Breaking);
        assert_eq!(
            op.rewrite_path(&FieldPath::key("status")),
            PathOutcome::Dropped
        );
        assert_eq!(
            op.rewrite_path(&FieldPath::parse("status.sub").unwrap()),
            PathOutcome::Dropped
        );
        assert_eq!(
            op.rewrite_path(&FieldPath::key("total")),
            PathOutcome::Unchanged
        );

        let pk = EvolutionOp::DropField {
            collection: "orders".into(),
            field: "_id".into(),
        };
        assert!(pk.apply_schema(&schema()).is_err());
    }

    #[test]
    fn rename_rewrites_paths_and_data() {
        let op = EvolutionOp::RenameField {
            collection: "orders".into(),
            from: "status".into(),
            to: "state".into(),
        };
        let next = op.apply_schema(&schema()).unwrap();
        assert!(next.field("state").is_some());
        assert!(next.field("status").is_none());
        let mut v = obj! {"_id" => "o1", "status" => "open"};
        op.migrate_value(&mut v);
        assert_eq!(v.get_field("state"), &Value::from("open"));
        assert!(v.get_field("status").is_null());
        assert_eq!(op.compatibility(), Compat::Adaptable);
        match op.rewrite_path(&FieldPath::key("status")) {
            PathOutcome::Rewritten(p) => assert_eq!(p.to_string(), "state"),
            other => panic!("{other:?}"),
        }
        // rename onto an existing field is rejected
        let clash = EvolutionOp::RenameField {
            collection: "orders".into(),
            from: "status".into(),
            to: "total".into(),
        };
        assert!(clash.apply_schema(&schema()).is_err());
    }

    #[test]
    fn change_type_widening_vs_narrowing() {
        let widen = EvolutionOp::ChangeType {
            collection: "orders".into(),
            field: "total".into(),
            to: FieldType::Any,
        };
        assert_eq!(widen.compatibility(), Compat::BackwardCompatible);
        assert_eq!(
            widen.rewrite_path(&FieldPath::key("total")),
            PathOutcome::Unchanged
        );

        let narrow = EvolutionOp::ChangeType {
            collection: "orders".into(),
            field: "total".into(),
            to: FieldType::Int,
        };
        assert_eq!(narrow.compatibility(), Compat::Breaking);
        let mut v = obj! {"total" => 9.5};
        narrow.migrate_value(&mut v);
        assert_eq!(
            v.get_field("total"),
            &Value::Int(9),
            "float truncates to int"
        );
        let mut bad = obj! {"total" => "not a number"};
        narrow.migrate_value(&mut bad);
        assert!(bad.get_field("total").is_null(), "uncastable becomes null");
    }

    #[test]
    fn nest_and_flatten_are_inverse() {
        let nest = EvolutionOp::NestFields {
            collection: "orders".into(),
            fields: vec!["city".into(), "zip".into()],
            into: "address".into(),
        };
        let s2 = nest.apply_schema(&schema()).unwrap();
        assert!(s2.field("city").is_none());
        let addr = s2.field("address").unwrap();
        assert!(matches!(&addr.ftype, FieldType::Object(children) if children.len() == 2));

        let mut v = obj! {"_id" => "o1", "city" => "Helsinki", "zip" => "00100", "total" => 1.0};
        nest.migrate_value(&mut v);
        assert_eq!(
            v.get_dotted("address.city").unwrap(),
            &Value::from("Helsinki")
        );
        assert!(v.get_field("city").is_null());

        match nest.rewrite_path(&FieldPath::key("city")) {
            PathOutcome::Rewritten(p) => assert_eq!(p.to_string(), "address.city"),
            other => panic!("{other:?}"),
        }

        let flatten = EvolutionOp::FlattenField {
            collection: "orders".into(),
            field: "address".into(),
        };
        let s3 = flatten.apply_schema(&s2).unwrap();
        assert!(s3.field("city").is_some());
        assert!(s3.field("address").is_none());
        flatten.migrate_value(&mut v);
        assert_eq!(v.get_field("city"), &Value::from("Helsinki"));
        match flatten.rewrite_path(&FieldPath::parse("address.zip").unwrap()) {
            PathOutcome::Rewritten(p) => assert_eq!(p.to_string(), "zip"),
            other => panic!("{other:?}"),
        }
        assert_eq!(
            flatten.rewrite_path(&FieldPath::key("address")),
            PathOutcome::Dropped
        );
    }

    #[test]
    fn versions_increment_per_op() {
        let s = schema();
        let op = EvolutionOp::DropField {
            collection: "orders".into(),
            field: "zip".into(),
        };
        let s2 = op.apply_schema(&s).unwrap();
        assert_eq!(s2.version, s.version + 1);
    }
}
