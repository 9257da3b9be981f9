//! Hand-written polyglot implementations of the Q1–Q10 workload.
//!
//! This is what the paper means by "publicly available implementations of
//! benchmarking data and queries for different systems should be
//! developed, shared, unified and optimized": without a unified query
//! language, every polyglot deployment re-implements each multi-model
//! query as application code — per-store calls, wire hops and client-side
//! joins. Output shapes match the MMQL versions record for record, which
//! the equivalence tests in `lib.rs` verify.

use std::collections::BTreeMap;

use udbms_core::{obj, Direction, Error, Key, Predicate, Result, Value};
use udbms_datagen::workload::QueryParams;
use udbms_xml::XPath;

use crate::stores::PolyglotDb;
use crate::traverse::k_hop_neighbors;
use crate::wire::{json_hop, xml_hop};

/// Dispatch a workload query by id.
pub fn run_query(db: &PolyglotDb, id: &str, p: &QueryParams) -> Result<Vec<Value>> {
    match id {
        "Q1" => q1(db, p),
        "Q2" => q2(db, p),
        "Q3" => q3(db, p),
        "Q4" => q4(db, p),
        "Q5" => q5(db, p),
        "Q6" => q6(db, p),
        "Q7" => q7(db, p),
        "Q8" => q8(db, p),
        "Q9" => q9(db, p),
        "Q10" => q10(db, p),
        other => Err(Error::NotFound(format!("workload query `{other}`"))),
    }
}

/// Q1: relational point lookup (primary-key get, as a real client would).
pub fn q1(db: &PolyglotDb, p: &QueryParams) -> Result<Vec<Value>> {
    let rel = db.relational.lock();
    Ok(rel
        .get("customers", &Key::int(p.customer))?
        .map(|row| json_hop(&row))
        .into_iter()
        .collect())
}

/// Q2: order history (relational ⋈ document, client-side).
pub fn q2(db: &PolyglotDb, p: &QueryParams) -> Result<Vec<Value>> {
    let name = {
        let rel = db.relational.lock();
        match rel.get("customers", &Key::int(p.customer))? {
            Some(c) => json_hop(&c).get_field("name").clone(),
            None => return Ok(Vec::new()),
        }
    };
    let mut orders: Vec<Value> = {
        let docs = db.documents.lock();
        docs.get_collection("orders")?
            .find(&Predicate::eq("customer", Value::Int(p.customer)))
            .iter()
            .map(json_hop)
            .collect()
    };
    orders.sort_by(|a, b| b.get_field("date").cmp(a.get_field("date")));
    Ok(orders
        .into_iter()
        .map(|o| {
            obj! {
                "name" => name.clone(),
                "order" => o.get_field("_id").clone(),
                "total" => o.get_field("total").clone(),
                "status" => o.get_field("status").clone(),
            }
        })
        .collect())
}

/// Q3: products bought by friends (graph hop, then per-friend document
/// queries).
pub fn q3(db: &PolyglotDb, p: &QueryParams) -> Result<Vec<Value>> {
    let mut friends: Vec<Key> = {
        let graph = db.graph.lock();
        graph.neighbors(&Key::int(p.customer), Direction::Out, Some("knows"))
    };
    friends.sort(); // match the engine's sorted-neighbor semantics
    let docs = db.documents.lock();
    let orders = docs.get_collection("orders")?;
    let mut seen = Vec::new();
    for friend in friends {
        let Some(cid) = friend.value().as_int() else {
            continue;
        };
        for o in orders.find(&Predicate::eq("customer", Value::Int(cid))) {
            let o = json_hop(&o);
            if let Some(items) = o.get_field("items").as_array() {
                for item in items {
                    let product = item.get_field("product").clone();
                    if !seen.contains(&product) {
                        seen.push(product);
                    }
                }
            }
        }
    }
    Ok(seen)
}

/// Q4: feedback for a product joined with its catalog entry (kv prefix
/// scan — the polyglot deployment's structural advantage — plus one
/// document get).
pub fn q4(db: &PolyglotDb, p: &QueryParams) -> Result<Vec<Value>> {
    let title = {
        let docs = db.documents.lock();
        docs.get_collection("products")?
            .get(&Key::str(&p.product))
            .map(|d| json_hop(d).get_field("title").clone())
            .unwrap_or(Value::Null)
    };
    let kv = db.kv.lock();
    let ns = kv.get_namespace("feedback")?;
    let prefix = format!("fb:{}:", p.product);
    let mut out = Vec::new();
    for (_, value) in ns.scan_prefix(&prefix) {
        let v = json_hop(value);
        out.push(obj! {
            "title" => title.clone(),
            "rating" => v.get_field("rating").clone(),
            "customer" => v.get_field("customer").clone(),
        });
    }
    Ok(out)
}

/// Q5: invoiced totals from XML (document store + XML store + XPath).
pub fn q5(db: &PolyglotDb, p: &QueryParams) -> Result<Vec<Value>> {
    let orders: Vec<Value> = {
        let docs = db.documents.lock();
        docs.get_collection("orders")?
            .find(&Predicate::eq("customer", Value::Int(p.customer)))
            .iter()
            .map(json_hop)
            .collect()
    };
    let xpath = XPath::parse("/Invoice/Total/text()")?;
    let xml = db.xml.lock();
    let mut out = Vec::with_capacity(orders.len());
    for o in orders {
        let oid = o.get_field("_id").expect_str("order id")?.to_string();
        let invoiced = match xml.get(&Key::str(udbms_datagen::invoice_key(&oid))) {
            Some(tree) => {
                let tree = xml_hop(tree)?;
                xpath
                    .first_string(&tree)
                    .and_then(|s| s.parse::<f64>().ok())
                    .map(Value::Float)
                    .unwrap_or(Value::Null)
            }
            None => Value::Null,
        };
        out.push(obj! {"order" => oid, "invoiced" => invoiced});
    }
    Ok(out)
}

/// Q6: top-10 spenders (full document scan + client-side aggregation +
/// per-winner relational lookups).
pub fn q6(db: &PolyglotDb, _p: &QueryParams) -> Result<Vec<Value>> {
    let mut spend: BTreeMap<i64, f64> = BTreeMap::new();
    {
        let docs = db.documents.lock();
        for o in docs.get_collection("orders")?.scan() {
            let o = json_hop(o);
            if let (Some(c), Some(t)) = (
                o.get_field("customer").as_int(),
                o.get_field("total").as_float(),
            ) {
                *spend.entry(c).or_insert(0.0) += t;
            }
        }
    }
    let mut ranked: Vec<(i64, f64)> = spend.into_iter().collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    ranked.truncate(10);
    let rel = db.relational.lock();
    let mut out = Vec::with_capacity(ranked.len());
    for (customer, spent) in ranked {
        let name = rel
            .get("customers", &Key::int(customer))?
            .map(|c| json_hop(&c).get_field("name").clone())
            .unwrap_or(Value::Null);
        out.push(obj! {"customer" => customer, "name" => name, "spent" => spent});
    }
    Ok(out)
}

/// Q7: friends-of-friends in the same country (graph 2-hop + relational
/// filter, client-side).
pub fn q7(db: &PolyglotDb, p: &QueryParams) -> Result<Vec<Value>> {
    let my_country = {
        let rel = db.relational.lock();
        match rel.get("customers", &Key::int(p.customer))? {
            Some(c) => json_hop(&c).get_field("country").clone(),
            None => return Ok(Vec::new()),
        }
    };
    let mut fof = {
        let graph = db.graph.lock();
        k_hop_neighbors(
            &graph,
            &Key::int(p.customer),
            2,
            Direction::Out,
            Some("knows"),
        )
    };
    fof.sort();
    let rel = db.relational.lock();
    let mut out = Vec::new();
    for k in fof {
        let Some(id) = k.value().as_int() else {
            continue;
        };
        if let Some(c) = rel.get("customers", &Key::int(id))? {
            let c = json_hop(&c);
            if c.get_field("country") == &my_country {
                out.push(obj! {"id" => id, "name" => c.get_field("name").clone()});
            }
        }
    }
    Ok(out)
}

/// Q8: the order-360 view — five stores, five round trips.
pub fn q8(db: &PolyglotDb, p: &QueryParams) -> Result<Vec<Value>> {
    let order = {
        let docs = db.documents.lock();
        match docs.get_collection("orders")?.get(&Key::str(&p.order)) {
            Some(o) => json_hop(o),
            None => return Ok(vec![]),
        }
    };
    let customer_id = order.get_field("customer").expect_int("order customer")?;
    let customer = {
        let rel = db.relational.lock();
        rel.get("customers", &Key::int(customer_id))?
            .map(|c| json_hop(&c))
    };
    let invoiced = {
        let xml = db.xml.lock();
        match xml.get(&Key::str(udbms_datagen::invoice_key(&p.order))) {
            Some(tree) => XPath::parse("/Invoice/Total/text()")?
                .first_string(&xml_hop(tree)?)
                .map(Value::from)
                .unwrap_or(Value::Null),
            None => Value::Null,
        }
    };
    let ratings = {
        let kv = db.kv.lock();
        let ns = kv.get_namespace("feedback")?;
        let mut ratings = Vec::new();
        if let Some(items) = order.get_field("items").as_array() {
            for item in items {
                let pid = item.get_field("product").expect_str("item product")?;
                let key = Key::str(udbms_datagen::feedback_key(pid, customer_id));
                if let Some(v) = ns.get(&key) {
                    ratings.push(json_hop(v).get_field("rating").clone());
                }
            }
        }
        ratings
    };
    let friends = {
        let graph = db.graph.lock();
        graph
            .neighbors(&Key::int(customer_id), Direction::Out, Some("knows"))
            .len()
    };
    Ok(vec![obj! {
        "order" => order.get_field("_id").clone(),
        "customer" => customer.as_ref().map(|c| c.get_field("name").clone()).unwrap_or(Value::Null),
        "country" => customer.as_ref().map(|c| c.get_field("country").clone()).unwrap_or(Value::Null),
        "invoiced" => invoiced,
        "items" => order.get_field("items").as_array().map_or(0, |a| a.len()),
        "ratings" => Value::Array(ratings),
        "friends" => friends,
    }])
}

/// Q9: product price-range scan (document B-tree path index).
pub fn q9(db: &PolyglotDb, p: &QueryParams) -> Result<Vec<Value>> {
    let docs = db.documents.lock();
    let mut hits: Vec<Value> = docs
        .get_collection("products")?
        .find(&Predicate::between(
            "price",
            Value::Float(p.price_lo),
            Value::Float(p.price_hi),
        ))
        .iter()
        .map(json_hop)
        .collect();
    hits.sort_by(|a, b| a.get_field("price").cmp(b.get_field("price")));
    Ok(hits
        .into_iter()
        .map(|h| obj! {"id" => h.get_field("_id").clone(), "price" => h.get_field("price").clone()})
        .collect())
}

/// Q10: customers of a country without orders (client-side anti-join).
pub fn q10(db: &PolyglotDb, p: &QueryParams) -> Result<Vec<Value>> {
    let customers: Vec<Value> = {
        let rel = db.relational.lock();
        rel.select(
            "customers",
            &Predicate::eq("country", Value::from(p.country.clone())),
        )?
        .iter()
        .map(json_hop)
        .collect()
    };
    let docs = db.documents.lock();
    let orders = docs.get_collection("orders")?;
    let mut out = Vec::new();
    for c in customers {
        let Some(id) = c.get_field("id").as_int() else {
            continue;
        };
        let n = orders
            .find(&Predicate::eq("customer", Value::Int(id)))
            .len();
        if n == 0 {
            out.push(Value::Int(id));
        }
    }
    Ok(out)
}

/// The polyglot implementation of the paper's cross-model `order_update`
/// transaction: requires the global coordinator (all five locks) to be
/// atomic, which is the measured coordination cost in E4a.
pub fn order_update_polyglot(db: &PolyglotDb, order_key: &Key) -> Result<()> {
    db.transact(|s| {
        let order = {
            let coll = s.documents.get_collection("orders")?;
            match coll.get(order_key) {
                Some(o) => json_hop(o),
                None => return Err(Error::NotFound(format!("order {order_key}"))),
            }
        };
        let oid = order.get_field("_id").expect_str("order id")?.to_string();
        let customer = order.get_field("customer").expect_int("order customer")?;

        s.documents
            .collection("orders")
            .merge(order_key, json_hop(&obj! {"status" => "shipped"}))?;

        if let Some(items) = order.get_field("items").as_array() {
            for item in items {
                let pid = item.get_field("product").expect_str("item product")?;
                let qty = item.get_field("qty").expect_int("item qty")?;
                let pkey = Key::str(pid);
                let stock = s
                    .documents
                    .get_collection("products")?
                    .get(&pkey)
                    .map(|p| json_hop(p).get_field("stock").as_int().unwrap_or(0));
                if let Some(stock) = stock {
                    s.documents
                        .collection("products")
                        .merge(&pkey, json_hop(&obj! {"stock" => (stock - qty).max(0)}))?;
                }
                s.kv.namespace("feedback").put(
                    Key::str(udbms_datagen::feedback_key(pid, customer)),
                    json_hop(&obj! {
                        "product" => pid,
                        "customer" => customer,
                        "order" => oid.clone(),
                        "rating" => Value::Null,
                        "text" => "shipped",
                        "date" => order.get_field("date").clone(),
                    }),
                );
            }
        }

        let ikey = Key::str(udbms_datagen::invoice_key(&oid));
        if let Some(tree) = s.xml.get(&ikey) {
            let mut tree = xml_hop(tree)?;
            tree.set_attr("status", "shipped");
            s.xml.insert(ikey, xml_hop(&tree)?);
        }
        Ok(())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use udbms_datagen::GenConfig;

    fn setup() -> (PolyglotDb, udbms_datagen::Dataset, QueryParams) {
        let data = udbms_datagen::generate(&GenConfig {
            scale_factor: 0.02,
            ..Default::default()
        });
        let db = PolyglotDb::new();
        crate::load_into_polyglot(&db, &data).unwrap();
        let params = QueryParams::draw(&data, 1);
        (db, data, params)
    }

    #[test]
    fn all_queries_run() {
        let (db, _, params) = setup();
        for id in ["Q1", "Q2", "Q3", "Q4", "Q5", "Q6", "Q7", "Q8", "Q9", "Q10"] {
            run_query(&db, id, &params).unwrap_or_else(|e| panic!("{id}: {e}"));
        }
        assert!(run_query(&db, "Q99", &params).is_err());
    }

    #[test]
    fn q1_finds_the_customer() {
        let (db, _, params) = setup();
        let out = q1(&db, &params).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get_field("id"), &Value::Int(params.customer));
    }

    #[test]
    fn q8_has_the_full_shape() {
        let (db, _, params) = setup();
        let out = q8(&db, &params).unwrap();
        assert_eq!(out.len(), 1);
        for f in [
            "order", "customer", "country", "invoiced", "items", "ratings", "friends",
        ] {
            assert!(
                out[0].as_object().unwrap().contains_key(f),
                "missing field {f}: {}",
                out[0]
            );
        }
    }

    #[test]
    fn order_update_polyglot_flips_all_models() {
        let (db, data, _) = setup();
        let okey = Key::str(data.orders[0].get_field("_id").as_str().unwrap());
        let oid = data.orders[0].get_field("_id").as_str().unwrap();
        order_update_polyglot(&db, &okey).unwrap();
        let status = {
            let docs = db.documents.lock();
            json_hop(docs.get_collection("orders").unwrap().get(&okey).unwrap())
                .get_field("status")
                .clone()
        };
        assert_eq!(status, Value::from("shipped"));
        let xml = db.xml.lock();
        let inv = xml.get(&Key::str(udbms_datagen::invoice_key(oid))).unwrap();
        assert_eq!(inv.attr("status"), Some("shipped"));
    }
}
