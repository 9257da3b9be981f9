//! MMQL bind-parameter coverage: error positions, index pushdown through
//! `@params`, and a golden equivalence against the seed's
//! string-interpolated query texts (the pre-parameterization form of the
//! Q1–Q10 workload).

use udbms::core::{Params, Value};
use udbms::datagen::{build_engine, workload, GenConfig};
use udbms::engine::Isolation;
use udbms::query::Query;

fn small_cfg() -> GenConfig {
    GenConfig {
        scale_factor: 0.02,
        ..Default::default()
    }
}

#[test]
fn missing_param_errors_carry_positions() {
    let q = Query::parse("FOR c IN customers\n  FILTER c.id == @customer\n  RETURN c").unwrap();
    assert_eq!(q.parameters(), vec!["customer"]);
    let err = q.bind(&Params::new()).unwrap_err().to_string();
    assert!(err.contains("@customer"), "{err}");
    // the `@` sits at line 2, column 18
    assert!(
        err.contains("2") && err.contains("18"),
        "position missing: {err}"
    );
}

#[test]
fn extra_param_detection_is_strict_only() {
    let q = Query::parse("FOR c IN customers FILTER c.id == @customer RETURN c").unwrap();
    // note the typo in the second name
    let params = Params::new().with("customer", 1).with("customr", 2);
    // lenient bind succeeds (workloads share one map across queries)
    assert!(q.bind(&params).is_ok());
    // the strict check names the typo
    let err = q.check_extra_params(&params).unwrap_err();
    assert!(err.to_string().contains("@customr"), "{err}");
}

#[test]
fn params_in_pushdown_position_still_use_the_index() {
    // orders.customer has a hash index (created by create_collections);
    // a bound @param must plan exactly like an inline constant
    let q = Query::parse("FOR o IN orders FILTER o.customer == @customer RETURN o._id").unwrap();
    let bound = q.bind(&Params::new().with("customer", 7)).unwrap();
    let plan = bound.explain();
    assert!(plan.contains("pushdown"), "no pushdown in plan:\n{plan}");
    assert!(
        plan.contains("Int(7)"),
        "bound value missing from plan:\n{plan}"
    );
    // and the unbound text itself reports its parameters
    assert_eq!(q.parameters(), vec!["customer"]);

    // a range predicate over an indexed path also pushes down when bound
    let q9 = Query::parse(
        "FOR p IN products FILTER p.price >= @price_lo AND p.price <= @price_hi RETURN p._id",
    )
    .unwrap();
    let plan = q9
        .bind(&Params::new().with("price_lo", 10.0).with("price_hi", 20.0))
        .unwrap()
        .explain();
    assert!(plan.contains("pushdown"), "range pushdown lost:\n{plan}");
}

#[test]
fn pushdown_and_scan_agree_for_bound_params() {
    let (engine, data) = build_engine(&small_cfg()).unwrap();
    let params = workload::QueryParams::draw(&data, 1);
    let binds = params.bindings();
    // pushdown path (index) vs pushdown-defeated path (TO_NUMBER wrapper)
    let indexed =
        Query::parse("FOR o IN orders FILTER o.customer == @customer RETURN o._id").unwrap();
    let scanned =
        Query::parse("FOR o IN orders FILTER TO_NUMBER(o.customer) == @customer RETURN o._id")
            .unwrap();
    let run = |q: &Query| {
        let bound = q.bind(&binds).unwrap();
        engine
            .run(Isolation::Snapshot, |t| bound.execute(t))
            .unwrap()
    };
    let (a, b) = (run(&indexed), run(&scanned));
    assert_eq!(a, b, "index pushdown must not change answers");
}

/// The seed's original `format!`-interpolated Q1–Q10 texts, kept here as
/// the golden reference for the parameterized workload.
fn interpolated_queries(p: &workload::QueryParams) -> Vec<(&'static str, String)> {
    let workload::QueryParams {
        customer,
        product,
        order,
        price_lo,
        price_hi,
        country,
    } = p;
    vec![
        (
            "Q1",
            format!(r#"FOR c IN customers FILTER c.id == {customer} RETURN c"#),
        ),
        (
            "Q2",
            format!(
                r#"FOR c IN customers FILTER c.id == {customer}
                   FOR o IN orders FILTER o.customer == c.id
                   SORT o.date DESC
                   RETURN {{ name: c.name, order: o._id, total: o.total, status: o.status }}"#
            ),
        ),
        (
            "Q3",
            format!(
                r#"FOR friend IN 1..1 OUTBOUND {customer} GRAPH social LABEL "knows"
                   FOR o IN orders FILTER o.customer == friend.cid
                   FOR item IN o.items
                   RETURN DISTINCT item.product"#
            ),
        ),
        (
            "Q4",
            format!(
                r#"LET prod = DOCUMENT("products", "{product}")
                   FOR fb IN feedback
                     FILTER fb.product == "{product}"
                     RETURN {{ title: prod.title, rating: fb.rating, customer: fb.customer }}"#
            ),
        ),
        (
            "Q5",
            format!(
                r#"FOR o IN orders FILTER o.customer == {customer}
                   LET inv = DOCUMENT("invoices", CONCAT("inv:", o._id))
                   RETURN {{ order: o._id,
                             invoiced: TO_NUMBER(XPATH_FIRST(inv, "/Invoice/Total/text()")) }}"#
            ),
        ),
        (
            "Q6",
            r#"FOR o IN orders
               COLLECT customer = o.customer AGGREGATE spent = SUM(o.total)
               SORT spent DESC
               LIMIT 10
               LET c = DOCUMENT("customers", customer)
               RETURN { customer, name: c.name, spent }"#
                .to_string(),
        ),
        (
            "Q7",
            format!(
                r#"LET me = DOCUMENT("customers", {customer})
                   FOR v IN 2..2 OUTBOUND {customer} GRAPH social LABEL "knows"
                   LET other = DOCUMENT("customers", v.cid)
                   FILTER other.country == me.country
                   RETURN {{ id: v.cid, name: other.name }}"#
            ),
        ),
        (
            "Q8",
            format!(
                r#"LET o = DOCUMENT("orders", "{order}")
                   LET c = DOCUMENT("customers", o.customer)
                   LET inv = DOCUMENT("invoices", CONCAT("inv:", o._id))
                   LET ratings = (FOR item IN o.items
                                    LET fb = DOCUMENT("feedback", CONCAT("fb:", item.product, ":C", TO_STRING(o.customer)))
                                    FILTER fb != NULL
                                    RETURN fb.rating)
                   LET friends = LENGTH(NEIGHBORS("social", o.customer, "OUT", "knows"))
                   RETURN {{ order: o._id, customer: c.name, country: c.country,
                             invoiced: XPATH_FIRST(inv, "/Invoice/Total/text()"),
                             items: LENGTH(o.items), ratings, friends }}"#
            ),
        ),
        (
            "Q9",
            format!(
                r#"FOR p IN products
                   FILTER p.price >= {price_lo} AND p.price <= {price_hi}
                   SORT p.price
                   RETURN {{ id: p._id, price: p.price }}"#
            ),
        ),
        (
            "Q10",
            format!(
                r#"FOR c IN customers FILTER c.country == "{country}"
                   LET n = LENGTH((FOR o IN orders FILTER o.customer == c.id RETURN 1))
                   FILTER n == 0
                   RETURN c.id"#
            ),
        ),
    ]
}

#[test]
fn golden_parameterized_workload_matches_interpolated_texts() {
    let (engine, data) = build_engine(&small_cfg()).unwrap();
    for which in 1..=3u64 {
        let params = workload::QueryParams::draw(&data, which);
        let golden = interpolated_queries(&params);
        let bound = workload::bound_queries(&params).unwrap();
        assert_eq!(golden.len(), bound.len());
        for ((gid, gtext), (q, bq)) in golden.iter().zip(&bound) {
            assert_eq!(*gid, q.id);
            let expected: Vec<Value> = udbms::query::run(&engine, Isolation::Snapshot, gtext)
                .unwrap_or_else(|e| panic!("{gid} interpolated: {e}"));
            let got: Vec<Value> = engine
                .run(Isolation::Snapshot, |t| bq.execute(t))
                .unwrap_or_else(|e| panic!("{gid} parameterized: {e}"));
            assert_eq!(
                expected, got,
                "{gid} (draw {which}): parameterized text diverged from the seed's interpolation"
            );
        }
    }
}

#[test]
fn bind_rejects_unbound_execution() {
    let (engine, _) = build_engine(&GenConfig {
        scale_factor: 0.01,
        ..Default::default()
    })
    .unwrap();
    let q = Query::parse("FOR c IN customers FILTER c.id == @customer RETURN c").unwrap();
    // plain execute of a parameterized statement fails at eval time
    let err = engine
        .run(Isolation::Snapshot, |t| q.execute(t))
        .unwrap_err();
    assert!(err.to_string().contains("@customer"), "{err}");
    // binding an empty map fails, also naming the param
    let err = q.bind(&Params::new()).unwrap_err();
    assert!(err.to_string().contains("missing bind parameter"), "{err}");
}
