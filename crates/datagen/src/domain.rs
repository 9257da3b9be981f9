//! The social-commerce domain vocabulary and per-entity generators.
//!
//! Entities follow the paper's Figure 1: Customers (relational), Orders
//! and Products (JSON), Feedback (key-value), Invoices (XML), and the
//! social/purchase network (graph). Cross-model references use stable
//! ids: customer ids are integers, product ids `P-xxxx`, order ids
//! `O-xxxxxx`, invoice keys `inv:O-xxxxxx`, feedback keys
//! `fb:P-xxxx:C<id>`.

use udbms_core::{obj, Object, SplitMix64, Value, Zipf};
use udbms_xml::XmlNode;

use crate::config::GenConfig;

pub(crate) const FIRST_NAMES: &[&str] = &[
    "Ada", "Alan", "Barbara", "Edsger", "Grace", "Donald", "Leslie", "Tim", "Linus", "Margaret",
    "John", "Dennis", "Ken", "Bjarne", "Guido", "Brian", "Frances", "Radia", "Shafi", "Adele",
];

pub(crate) const LAST_NAMES: &[&str] = &[
    "Lovelace",
    "Turing",
    "Liskov",
    "Dijkstra",
    "Hopper",
    "Knuth",
    "Lamport",
    "Berners-Lee",
    "Torvalds",
    "Hamilton",
    "McCarthy",
    "Ritchie",
    "Thompson",
    "Stroustrup",
    "Rossum",
    "Kernighan",
    "Allen",
    "Perlman",
    "Goldwasser",
    "Goldberg",
];

pub(crate) const COUNTRIES: &[&str] = &["FI", "SE", "NO", "DK", "DE", "FR", "NL", "US", "GB", "JP"];

pub(crate) const CITIES: &[&str] = &[
    "Helsinki",
    "Stockholm",
    "Oslo",
    "Copenhagen",
    "Berlin",
    "Paris",
    "Amsterdam",
    "Boston",
    "London",
    "Tokyo",
];

pub(crate) const SEGMENTS: &[&str] = &["consumer", "corporate", "smb"];

pub(crate) const CATEGORIES: &[&str] = &[
    "books",
    "electronics",
    "garden",
    "toys",
    "grocery",
    "sports",
    "office",
];

pub(crate) const BRANDS: &[&str] = &[
    "Acme", "Globex", "Initech", "Umbrella", "Hooli", "Stark", "Wayne", "Tyrell",
];

pub(crate) const TAGS: &[&str] = &[
    "new",
    "sale",
    "eco",
    "premium",
    "clearance",
    "bestseller",
    "limited",
    "refurb",
];

pub(crate) const ORDER_STATUS: &[&str] = &["open", "paid", "shipped", "cancelled"];

pub(crate) const EXTRA_ATTRS: &[(&str, &[&str])] = &[
    ("color", &["red", "blue", "green", "black", "white"]),
    ("size", &["xs", "s", "m", "l", "xl"]),
    ("material", &["wood", "steel", "plastic", "cotton"]),
    ("origin", &["FI", "DE", "CN", "US"]),
    ("warranty", &["1y", "2y", "5y"]),
    ("energy", &["A", "B", "C"]),
];

/// Stable customer id (integer key, relational primary key).
pub fn customer_id(i: usize) -> i64 {
    i as i64 + 1
}

/// Stable product id.
pub fn product_id(i: usize) -> String {
    format!("P-{:04}", i + 1)
}

/// Stable order id.
pub fn order_id(i: usize) -> String {
    format!("O-{:06}", i + 1)
}

/// Key of the invoice belonging to an order.
pub fn invoice_key(order: &str) -> String {
    format!("inv:{order}")
}

/// Key of a feedback entry.
pub fn feedback_key(product: &str, customer: i64) -> String {
    format!("fb:{product}:C{customer}")
}

/// Generate one customer row (relational, closed schema).
pub fn gen_customer(rng: &mut SplitMix64, i: usize) -> Value {
    let first = rng.pick(FIRST_NAMES);
    let last = rng.pick(LAST_NAMES);
    let country_ix = rng.index(COUNTRIES.len());
    obj! {
        "id" => customer_id(i),
        "name" => format!("{first} {last}"),
        "email" => format!("{}.{}.{}@example.com", first.to_lowercase(), last.to_lowercase().replace('-', ""), i),
        "country" => COUNTRIES[country_ix],
        "city" => CITIES[country_ix],
        "segment" => *rng.pick(SEGMENTS),
        "registered" => rng.range_i64(15000, 20500), // days since epoch
        "score" => (rng.range_f64(0.0, 5.0) * 10.0).round() / 10.0,
    }
}

/// Generate one product document (open schema, varied attributes).
pub fn gen_product(rng: &mut SplitMix64, i: usize, cfg: &GenConfig) -> Value {
    let mut doc = obj! {
        "_id" => product_id(i),
        "title" => format!("{} {} {}", rng.pick(BRANDS), rng.pick(CATEGORIES), rng.ident(4)),
        "brand" => *rng.pick(BRANDS),
        "category" => *rng.pick(CATEGORIES),
        "price" => (rng.range_f64(1.0, 500.0) * 100.0).round() / 100.0,
        "stock" => rng.range_i64(0, 1000),
    };
    let o = doc.as_object_mut().expect("object literal");
    if rng.chance(cfg.variation.optional_field_prob) {
        let n_tags = 1 + rng.index(3);
        let mut tags: Vec<Value> = Vec::with_capacity(n_tags);
        for _ in 0..n_tags {
            let t = Value::from(*rng.pick(TAGS));
            if !tags.contains(&t) {
                tags.push(t);
            }
        }
        o.insert("tags".into(), Value::Array(tags));
    }
    if cfg.variation.extra_attr_count > 0 {
        let mut attrs = Object::new();
        let picks = rng.sample_indexes(EXTRA_ATTRS.len(), cfg.variation.extra_attr_count);
        for ix in picks {
            let (name, values) = EXTRA_ATTRS[ix];
            attrs.insert(name.to_string(), Value::from(*rng.pick(values)));
        }
        o.insert("attributes".into(), Value::Object(attrs));
    }
    doc
}

/// Generate one order document referencing customers and products.
/// Returns the document plus its line items `(product_ix, qty)` (the graph
/// generator reuses them for `bought` edges).
pub fn gen_order(
    rng: &mut SplitMix64,
    i: usize,
    customer: i64,
    product_prices: &[f64],
    product_zipf: &Zipf,
    cfg: &GenConfig,
) -> (Value, Vec<(usize, i64)>) {
    let n_items = 1 + rng.index(4);
    let mut items = Vec::with_capacity(n_items);
    let mut lines: Vec<(usize, i64)> = Vec::with_capacity(n_items);
    let mut total = 0.0f64;
    for _ in 0..n_items {
        let p = product_zipf.sample(rng);
        let qty = rng.range_i64(1, 5);
        let price = product_prices[p];
        total += price * qty as f64;
        lines.push((p, qty));
        items.push(obj! {
            "product" => product_id(p),
            "qty" => qty,
            "price" => price,
        });
    }
    total = (total * 100.0).round() / 100.0;
    let mut doc = obj! {
        "_id" => order_id(i),
        "customer" => customer,
        "date" => rng.range_i64(19000, 20600),
        "status" => *rng.pick(ORDER_STATUS),
        "items" => Value::Array(items),
        "total" => total,
    };
    let o = doc.as_object_mut().expect("object literal");
    if rng.chance(cfg.variation.optional_field_prob) {
        o.insert(
            "shipping".into(),
            gen_shipping(rng, cfg.variation.nesting_depth),
        );
    }
    if rng.chance(cfg.variation.optional_field_prob * 0.5) {
        o.insert("note".into(), Value::from(format!("note {}", rng.ident(6))));
    }
    (doc, lines)
}

fn gen_shipping(rng: &mut SplitMix64, depth: usize) -> Value {
    let ci = rng.index(CITIES.len());
    let mut node = obj! {
        "city" => CITIES[ci],
        "country" => COUNTRIES[ci],
        "zip" => format!("{:05}", rng.range_i64(0, 99999)),
    };
    // deeper nesting per the schema-variation knob
    let mut current = &mut node;
    for level in 1..depth {
        let child = obj! {
            "carrier" => *rng.pick(&["dhl", "ups", "posti", "fedex"][..]),
            "level" => level as i64,
        };
        current
            .as_object_mut()
            .expect("object")
            .insert("handling".into(), child);
        current = current
            .as_object_mut()
            .expect("object")
            .get_mut("handling")
            .expect("inserted");
    }
    node
}

/// Generate one feedback value (the key-value payload).
pub fn gen_feedback(rng: &mut SplitMix64, product: &str, customer: i64, order: &str) -> Value {
    obj! {
        "product" => product,
        "customer" => customer,
        "order" => order,
        "rating" => rng.range_i64(1, 5),
        "text" => format!("{} {} {}", rng.ident(5), rng.ident(7), rng.ident(4)),
        "date" => rng.range_i64(19000, 20600),
    }
}

/// Generate the XML invoice of an order (the paper's Invoice entity).
pub fn gen_invoice(order: &Value) -> XmlNode {
    let oid = order.get_field("_id").as_str().unwrap_or("?").to_string();
    let mut inv = XmlNode::element("Invoice")
        .with_attr("id", invoice_key(&oid))
        .with_attr(
            "status",
            order.get_field("status").as_str().unwrap_or("open"),
        );
    inv.push_child(XmlNode::leaf("OrderId", oid));
    inv.push_child(XmlNode::leaf(
        "CustomerId",
        order
            .get_field("customer")
            .as_int()
            .unwrap_or(0)
            .to_string(),
    ));
    inv.push_child(XmlNode::leaf(
        "Date",
        order.get_field("date").as_int().unwrap_or(0).to_string(),
    ));
    let mut items_el = XmlNode::element("Items");
    if let Some(items) = order.get_field("items").as_array() {
        for item in items {
            let el = XmlNode::element("Item")
                .with_attr(
                    "productId",
                    item.get_field("product").as_str().unwrap_or("?"),
                )
                .with_attr(
                    "qty",
                    item.get_field("qty").as_int().unwrap_or(0).to_string(),
                )
                .with_child(XmlNode::leaf(
                    "Price",
                    format!("{:.2}", item.get_field("price").as_float().unwrap_or(0.0)),
                ));
            items_el.push_child(el);
        }
    }
    inv.push_child(items_el);
    inv.push_child(
        XmlNode::element("Total")
            .with_attr("currency", "EUR")
            .with_child(XmlNode::text(format!(
                "{:.2}",
                order.get_field("total").as_float().unwrap_or(0.0)
            ))),
    );
    inv
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_stable_and_unique() {
        assert_eq!(customer_id(0), 1);
        assert_eq!(product_id(0), "P-0001");
        assert_eq!(order_id(41), "O-000042");
        assert_eq!(invoice_key("O-000001"), "inv:O-000001");
        assert_eq!(feedback_key("P-0001", 7), "fb:P-0001:C7");
    }

    #[test]
    fn customers_have_closed_schema_shape() {
        let mut rng = SplitMix64::new(1);
        let c = gen_customer(&mut rng, 0);
        for field in [
            "id",
            "name",
            "email",
            "country",
            "city",
            "segment",
            "registered",
            "score",
        ] {
            assert!(!c.get_field(field).is_null(), "missing {field}");
        }
        // country and city stay aligned
        let country = c.get_field("country").as_str().unwrap();
        let ix = COUNTRIES.iter().position(|c| *c == country).unwrap();
        assert_eq!(c.get_field("city").as_str().unwrap(), CITIES[ix]);
    }

    #[test]
    fn products_vary_their_schema() {
        let cfg = GenConfig::default();
        let mut rng = SplitMix64::new(2);
        let mut with_tags = 0;
        for i in 0..200 {
            let p = gen_product(&mut rng, i, &cfg);
            assert!(p.get_field("price").as_float().unwrap() >= 1.0);
            if !p.get_field("tags").is_null() {
                with_tags += 1;
            }
            assert_eq!(
                p.get_field("attributes").as_object().map(|m| m.len()),
                Some(cfg.variation.extra_attr_count)
            );
        }
        assert!(
            with_tags > 100 && with_tags < 200,
            "optional fields appear probabilistically"
        );
    }

    #[test]
    fn regular_schema_at_prob_one() {
        let mut cfg = GenConfig::default();
        cfg.variation.optional_field_prob = 1.0;
        cfg.variation.extra_attr_count = 0;
        let mut rng = SplitMix64::new(3);
        for i in 0..50 {
            let p = gen_product(&mut rng, i, &cfg);
            assert!(!p.get_field("tags").is_null());
            assert!(p.get_field("attributes").is_null());
        }
    }

    #[test]
    fn orders_reference_products_and_sum_totals() {
        let cfg = GenConfig::default();
        let mut rng = SplitMix64::new(4);
        let prices = vec![10.0, 20.0, 30.0];
        let zipf = Zipf::new(3, 0.5);
        let (order, lines) = gen_order(&mut rng, 0, 7, &prices, &zipf, &cfg);
        assert_eq!(order.get_field("customer"), &Value::Int(7));
        let items = order.get_field("items").as_array().unwrap();
        assert_eq!(items.len(), lines.len());
        let expected: f64 = lines.iter().map(|(p, q)| prices[*p] * *q as f64).sum();
        let total = order.get_field("total").as_float().unwrap();
        assert!((total - expected).abs() < 0.01);
    }

    #[test]
    fn nesting_depth_is_respected() {
        let mut cfg = GenConfig::default();
        cfg.variation.optional_field_prob = 1.0;
        cfg.variation.nesting_depth = 4;
        let mut rng = SplitMix64::new(5);
        let prices = vec![10.0];
        let zipf = Zipf::new(1, 0.0);
        let (order, _) = gen_order(&mut rng, 0, 1, &prices, &zipf, &cfg);
        let d1 = order.get_dotted("shipping.handling").unwrap();
        assert!(!d1.is_null());
        let d3 = order
            .get_dotted("shipping.handling.handling.handling")
            .unwrap();
        assert!(!d3.is_null(), "depth 4 yields three nested handling levels");
    }

    #[test]
    fn invoice_mirrors_its_order() {
        let cfg = GenConfig::default();
        let mut rng = SplitMix64::new(6);
        let prices = vec![10.0, 20.0];
        let zipf = Zipf::new(2, 0.0);
        let (order, _) = gen_order(&mut rng, 3, 9, &prices, &zipf, &cfg);
        let inv = gen_invoice(&order);
        assert_eq!(
            inv.child_element("OrderId").unwrap().text_content(),
            "O-000004"
        );
        assert_eq!(inv.child_element("CustomerId").unwrap().text_content(), "9");
        let n_items = inv.child_element("Items").unwrap().children().len();
        assert_eq!(n_items, order.get_field("items").as_array().unwrap().len());
        let total = inv.child_element("Total").unwrap().text_content();
        assert_eq!(
            total,
            format!("{:.2}", order.get_field("total").as_float().unwrap())
        );
    }

    #[test]
    fn feedback_links_models() {
        let mut rng = SplitMix64::new(7);
        let fb = gen_feedback(&mut rng, "P-0001", 3, "O-000001");
        assert_eq!(fb.get_field("product"), &Value::from("P-0001"));
        assert_eq!(fb.get_field("customer"), &Value::Int(3));
        let rating = fb.get_field("rating").as_int().unwrap();
        assert!((1..=5).contains(&rating));
    }
}
