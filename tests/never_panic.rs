//! No input may panic: seeded mutation loops over the four text decoders
//! — MMQL (parse, `explain`, bind and execute on a small engine), JSON,
//! XML and XPath — starting from the texts the workload itself uses: the
//! paper's Q1–Q10 and the DML statements, generated customer and order
//! documents, generated invoices, and the XPath expressions the queries
//! and `order_update` evaluate.
//!
//! Mutations: byte flips, truncation, duplication of a token, a token
//! repeated tens of thousands of times (long), and an opening token
//! repeated that often around or in front of the text (deep). Everything
//! derives from one `SplitMix64` seed and runs on a 2 MB thread, so a
//! decoder whose recursion follows its input aborts the test; any other
//! outcome — `Ok` or `Err` — passes.

use udbms::core::{Params, SplitMix64};
use udbms::datagen::{build_engine, workload, GenConfig};
use udbms::engine::{Engine, Isolation};
use udbms::query::Query;
use udbms::xml::XPath;

const SEED: u64 = 0x5EED_C0DE;
/// Repetitions of a "long" or "deep" mutation: past every depth bound in
/// the tree, and what used to overflow when a chain was dropped.
const MANY: usize = 100_000;

/// One mutation of `text`, chosen and placed by `rng`. `long` and `deep`
/// are the format's repeatable link and opening tokens.
fn mutate(rng: &mut SplitMix64, text: &str, long: &[&str], deep: &[(&str, &str)]) -> String {
    let bytes = text.as_bytes();
    let at = rng.index(bytes.len().max(1));
    let lossy = |b: Vec<u8>| String::from_utf8_lossy(&b).into_owned();
    match rng.below(8) {
        0 | 1 => {
            let mut b = bytes.to_vec();
            for _ in 0..1 + rng.below(3) {
                let i = rng.index(b.len().max(1));
                if let Some(byte) = b.get_mut(i) {
                    *byte ^= 1 << rng.below(8);
                }
            }
            lossy(b)
        }
        2 => lossy(bytes[..at].to_vec()),
        3 => lossy(bytes[at..].to_vec()),
        4 | 5 => {
            // a whitespace-delimited token, two to five times over
            let tokens: Vec<&str> = text.split_inclusive(char::is_whitespace).collect();
            let pick = rng.index(tokens.len().max(1));
            let times = 2 + rng.index(4);
            let dup = |(i, t): (usize, &&str)| {
                if i == pick {
                    t.repeat(times)
                } else {
                    t.to_string()
                }
            };
            tokens.iter().enumerate().map(dup).collect()
        }
        6 => {
            let link = rng.pick(long);
            let n = if rng.chance(0.2) {
                MANY
            } else {
                1 + rng.index(300)
            };
            match rng.below(3) {
                0 => format!("{text}{}", link.repeat(n)),
                1 => format!("{}{text}", link.repeat(n)),
                _ => lossy([&bytes[..at], link.repeat(n).as_bytes(), &bytes[at..]].concat()),
            }
        }
        _ => {
            let (open, close) = rng.pick(deep);
            let n = if rng.chance(0.2) {
                MANY
            } else {
                1 + rng.index(300)
            };
            match rng.below(3) {
                0 => format!("{}{text}{}", open.repeat(n), close.repeat(n)),
                1 => format!("{}{text}", open.repeat(n)),
                _ => lossy([&bytes[..at], open.repeat(n).as_bytes(), &bytes[at..]].concat()),
            }
        }
    }
}

/// Parse, explain, bind and — unless the mutation multiplied the loops —
/// execute; the transaction is dropped, so DML changes nothing.
fn mmql(engine: &Engine, params: &Params, text: &str) {
    let Ok(parsed) = Query::parse(text) else {
        return;
    };
    let _ = parsed.explain();
    let _ = parsed.parameters();
    let Ok(bound) = parsed.bind(params) else {
        return;
    };
    let _ = bound.explain();
    let upper = text.to_ascii_uppercase();
    if upper.matches("FOR").count() <= 3 && !upper.contains("RANGE") {
        let mut txn = engine.begin(Isolation::Snapshot);
        let _ = bound.execute(&mut txn);
    }
}

#[test]
fn mutated_inputs_never_panic() {
    let run = || {
        let config = GenConfig {
            scale_factor: 0.01,
            ..Default::default()
        };
        let (engine, data) = build_engine(&config).unwrap();
        let params = workload::QueryParams::draw(&data, 1).bindings();
        let root = SplitMix64::new(SEED);

        // --- MMQL ---
        let mut texts: Vec<String> = workload::queries()
            .iter()
            .map(|q| q.mmql.to_string())
            .collect();
        texts.extend(
            [
                r#"INSERT {_id: "o-new", customer: @customer, total: 1.5} INTO orders"#,
                r#"UPDATE @order WITH {status: "shipped"} IN orders"#,
                "REMOVE @order IN orders",
                "FOR o IN orders FILTER o.total > 10 AND o.status != \"x\" OR NOT (o.customer IN [1, 2]) \
                 SORT o.total DESC LIMIT 1, 3 RETURN DISTINCT {id: o._id, n: LENGTH(o.items), t: -o.total * 2 % 7}",
                "FOR o IN orders COLLECT c = o.customer AGGREGATE s = SUM(o.total), n = COUNT() INTO g \
                 RETURN [c, s, n, (FOR m IN g RETURN m.o._id)[0]]",
                "RETURN 1 + 2 - 3 * 4 / 5 == 6 AND \"a\" + \"b\" LIKE \"a%\" OR [1, [2]][1][0] >= 2",
            ]
            .map(String::from),
        );
        let long = [
            " + 1",
            " - 1",
            " * 2",
            " AND true",
            " OR false",
            " + \"s\"",
            ", 1",
            ".a",
            "[0]",
            " FILTER true",
            " LET z = 1",
            " SORT 1",
        ];
        let deep = [
            ("(", ")"),
            ("[", "]"),
            ("{a: ", "}"),
            ("NOT ", ""),
            ("-", ""),
            ("LENGTH(", ")"),
            ("(FOR z IN [1] RETURN ", ")"),
            ("FOR z IN [1] ", ""),
        ];
        let mut rng = root.substream("mmql");
        for text in &texts {
            mmql(&engine, &params, text);
            for _ in 0..40 {
                mmql(&engine, &params, &mutate(&mut rng, text, &long, &deep));
            }
        }

        // --- JSON ---
        let docs = (data.orders.iter().take(6)).chain(data.customers.iter().take(6));
        let long = [",1", ",\"k\":1", " ", "0", "\\u0041", "e9", ",[]", ",{}"];
        let deep = [
            ("[", "]"),
            ("{\"a\":", "}"),
            ("[{\"a\":", "}]"),
            ("\"", ""),
            ("-", ""),
        ];
        let mut rng = root.substream("json");
        for doc in docs {
            let text = udbms::json::to_string(doc);
            assert_eq!(&udbms::json::parse(&text).unwrap(), doc);
            for _ in 0..60 {
                let _ = udbms::json::parse(&mutate(&mut rng, &text, &long, &deep));
            }
        }

        // --- XML, and XPath over what still parses ---
        let paths = [
            "/Invoice/Total/text()",
            "/Invoice/@status",
            "//Item/@qty",
            "/Invoice/Items/Item[2]/@product",
            "//Item[@qty=\"2\"]/text()",
        ];
        let xml_long = ["<a/>", " x=\"1\"", "text", "&amp;", "<!--c-->", "<a>t</a>"];
        let xml_deep = [
            ("<a>", "</a>"),
            ("<a b=\"", "\">"),
            ("<!--", "-->"),
            ("<", ">"),
            ("&", ";"),
        ];
        let path_long = ["/a", "//a", "/@a", "/text()", "[1]", "/*", "/.."];
        let path_deep = [
            ("/a[", "]"),
            ("[", "]"),
            ("//", ""),
            ("(", ")"),
            ("/a[b[", "]]"),
        ];
        let mut rng = root.substream("xml");
        for (_, invoice) in data.invoices.iter().take(6) {
            let text = udbms::xml::to_string(&udbms::xml::XmlDocument::new(invoice.clone()));
            let parsed = udbms::xml::parse(&text).unwrap();
            for _ in 0..60 {
                let mutant = udbms::xml::parse(&mutate(&mut rng, &text, &xml_long, &xml_deep));
                let doc = mutant.as_ref().unwrap_or(&parsed);
                let path = paths[rng.index(paths.len())];
                let path = mutate(&mut rng, path, &path_long, &path_deep);
                if let Ok(path) = XPath::parse(&path) {
                    let _ = path.values(doc.root());
                }
            }
        }
        for path in paths {
            assert!(XPath::parse(path).is_ok(), "{path}");
        }
    };
    let walk = std::thread::Builder::new().stack_size(2 << 20).spawn(run);
    walk.unwrap()
        .join()
        .expect("a decoder panicked on a mutated input");
}
