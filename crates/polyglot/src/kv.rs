//! The key-value store: named namespaces of ordered keys with prefix
//! scans.
//!
//! In the benchmark's social-commerce domain this store holds the
//! *Feedback* messages ("key-value messages (Feedback)" in the paper's
//! transaction example); Q4 reads them with a prefix scan.

use std::collections::BTreeMap;

use udbms_core::{Error, Key, Result, Value};

/// One namespace of keys — an independent ordered map.
#[derive(Debug, Clone, Default)]
pub(crate) struct KvNamespace(BTreeMap<Key, Value>);

impl KvNamespace {
    /// Store a value, overwriting any previous one.
    pub(crate) fn put(&mut self, key: Key, value: Value) {
        self.0.insert(key, value);
    }

    /// Fetch a value.
    pub(crate) fn get(&self, key: &Key) -> Option<&Value> {
        self.0.get(key)
    }

    /// Iterate entries whose *string* keys start with `prefix`, in key
    /// order.
    pub(crate) fn scan_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a Key, &'a Value)> + 'a {
        self.0
            .iter()
            .filter(move |(k, _)| k.value().as_str().is_some_and(|s| s.starts_with(prefix)))
    }
}

/// A store of named namespaces — the standalone KV database used by the
/// polyglot baseline.
#[derive(Debug, Clone, Default)]
pub(crate) struct KvStore {
    namespaces: BTreeMap<String, KvNamespace>,
}

impl KvStore {
    /// Get or create a namespace.
    pub(crate) fn namespace(&mut self, name: &str) -> &mut KvNamespace {
        self.namespaces.entry(name.to_string()).or_default()
    }

    /// Borrow an existing namespace.
    pub(crate) fn get_namespace(&self, name: &str) -> Result<&KvNamespace> {
        self.namespaces
            .get(name)
            .ok_or_else(|| Error::NotFound(format!("kv namespace `{name}`")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// put/get behaves like a model BTreeMap.
        #[test]
        fn behaves_like_a_map(ops in prop::collection::vec(
            (0u8..2, 0i64..20, any::<i64>()), 1..100)
        ) {
            let mut ns = KvNamespace::default();
            let mut model = std::collections::BTreeMap::new();
            for (op, k, v) in ops {
                let key = Key::int(k);
                match op {
                    0 => {
                        ns.put(key.clone(), Value::Int(v));
                        model.insert(k, v);
                    }
                    _ => {
                        let got = ns.get(&key).cloned();
                        prop_assert_eq!(got, model.get(&k).map(|v| Value::Int(*v)));
                    }
                }
            }
            prop_assert_eq!(ns.0.len(), model.len());
        }
    }

    #[test]
    fn prefix_scans() {
        let mut ns = KvNamespace::default();
        for (k, v) in [
            ("fb:p1:u1", 5),
            ("fb:p1:u2", 4),
            ("fb:p2:u1", 3),
            ("other", 1),
        ] {
            ns.put(Key::str(k), Value::Int(v));
        }
        let p1: Vec<&Key> = ns.scan_prefix("fb:p1:").map(|(k, _)| k).collect();
        assert_eq!(p1, vec![&Key::str("fb:p1:u1"), &Key::str("fb:p1:u2")]);
        assert_eq!(ns.scan_prefix("fb:").count(), 3);
        assert_eq!(ns.scan_prefix("zzz").count(), 0);
    }

    #[test]
    fn store_namespaces_are_independent() {
        let mut store = KvStore::default();
        store
            .namespace("feedback")
            .put(Key::str("x"), Value::Int(1));
        store
            .namespace("sessions")
            .put(Key::str("x"), Value::Int(2));
        assert_eq!(
            store.get_namespace("feedback").unwrap().get(&Key::str("x")),
            Some(&Value::Int(1))
        );
        assert_eq!(
            store.get_namespace("sessions").unwrap().get(&Key::str("x")),
            Some(&Value::Int(2))
        );
        assert!(store.get_namespace("missing").is_err());
    }
}
