//! No input may panic: seeded mutation loops over the four text decoders
//! — MMQL (parse, `explain`, E3's path classifier and rewriter, bind and
//! execute on a small engine), JSON, XML and XPath — starting from the
//! texts the workload itself uses: the paper's Q1–Q10 and the DML
//! statements, generated customer and order documents, generated
//! invoices, and the XPath expressions the queries and `order_update`
//! evaluate; and over the WAL's frame decoder, starting from a real log
//! of that workload.
//!
//! Text mutations: byte flips, truncation, duplication of a token, a
//! token repeated tens of thousands of times (long), and an opening token
//! repeated that often around or in front of the text (deep). Log
//! mutations: byte flips, truncation, a duplicated frame, a length field
//! near 4 GiB, and a frame with a valid checksum whose value nests
//! 100 000 deep or claims 2^40 elements. Each MMQL text also runs bound
//! to a parameter set whose price band is upside down (`@price_lo` above
//! `@price_hi`, an empty range for Q9). Everything derives from one
//! `SplitMix64` seed and runs on a 2 MB thread, so a decoder whose
//! recursion follows its input aborts the test; any other outcome — `Ok`
//! or `Err` — passes.
//!
//! A second arm feeds objects with random field names — short and long,
//! escaped and non-ASCII — through the JSON parser and the WAL decoder:
//! each comes back equal, and the field-name interner stops growing at
//! its cap, after which a new name is stored inline and an interned one
//! is still the one shared copy. It goes on with objects over random
//! *sets* of those names, through the same two decoders, until the shape
//! interner stops growing at its cap too; every object still comes back
//! equal.

use std::collections::BTreeMap;

use udbms::core::shape::interned_shapes;
use udbms::core::symbol::interned_names;
use udbms::core::{CollectionSchema, Key, Params, SplitMix64, Symbol, Value};
use udbms::datagen::{build_engine, create_collections, load_into_engine, workload, GenConfig};
use udbms::engine::{Engine, Isolation, Wal};
use udbms::evolution::{accessed_paths, classify, standard_chain};
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

/// Parse, explain, classify and adapt against E3's evolution chain,
/// bind and — unless the mutation multiplied the loops — execute; the
/// transaction is dropped, so DML changes nothing.
fn mmql(engine: &Engine, params: &Params, text: &str) {
    let Ok(parsed) = Query::parse(text) else {
        return;
    };
    let _ = parsed.explain();
    let (_, adapted) = classify(parsed.statement(), &standard_chain());
    let _ = accessed_paths(&adapted);
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

/// CRC-32 (IEEE), bit by bit: the WAL frame checksum.
fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for b in bytes {
        c ^= u32::from(*b);
        for _ in 0..8 {
            c = if c & 1 == 1 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}

/// Where each frame of a well-formed log starts. The layout (DESIGN.md
/// §3): a 12-byte header, then frames of `[len u32][crc32 u32]` and
/// `len` payload bytes, the checksum covering the length and payload.
fn frame_starts(log: &[u8]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut pos = 12;
    while pos + 8 <= log.len() {
        starts.push(pos);
        pos += 8 + u32::from_le_bytes(log[pos..pos + 4].try_into().unwrap()) as usize;
    }
    starts
}

/// A frame with a valid checksum around one write whose value is
/// `value` (encoded bytes): collection `ns`, key `Int(0)`.
fn frame_around(value: &[u8]) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend(u64::MAX.to_le_bytes()); // commit ts
    payload.extend(0u64.to_le_bytes()); // txn
    payload.push(1); // one write
    payload.extend(b"\x02ns"); // collection
    payload.push(3); // key: INT ...
    payload.extend(0i64.to_le_bytes());
    payload.push(1); // ... written, not deleted
    payload.extend(value);
    let len = (payload.len() as u32).to_le_bytes();
    let crc = crc32(&[&len[..], &payload].concat());
    [&len[..], &crc.to_le_bytes(), &payload].concat()
}

/// One mutation of `log`, chosen and placed by `rng`.
fn mutate_log(rng: &mut SplitMix64, log: &[u8], starts: &[usize]) -> Vec<u8> {
    let mut b = log.to_vec();
    let frame = rng.index(starts.len());
    let (start, end) = (starts[frame], *starts.get(frame + 1).unwrap_or(&log.len()));
    match rng.below(6) {
        0 | 1 => {
            for _ in 0..1 + rng.below(3) {
                let i = rng.index(b.len());
                b[i] ^= 1 << rng.below(8);
            }
        }
        2 => b.truncate(rng.index(b.len())),
        3 => b = [&log[..end], &log[start..]].concat(),
        4 => {
            let len = u32::MAX - rng.below(16) as u32;
            b[start..start + 4].copy_from_slice(&len.to_le_bytes());
        }
        _ => {
            let value = if rng.chance(0.5) {
                // ARRAY of one, MANY times over, around a NULL
                let mut v = [7u8, 1].repeat(MANY);
                v.push(0);
                v
            } else {
                // an ARRAY or STR that claims 2^40 elements
                let mut v = vec![if rng.chance(0.5) { 7 } else { 5 }];
                v.extend([0x80, 0x80, 0x80, 0x80, 0x80, 0x20]);
                v
            };
            b = [&log[..end], &frame_around(&value), &log[end..]].concat();
        }
    }
    b
}

#[test]
fn mutated_inputs_never_panic() {
    let run = || {
        let config = GenConfig {
            scale_factor: 0.01,
            ..Default::default()
        };
        let (engine, data) = build_engine(&config).unwrap();
        let draw = workload::QueryParams::draw(&data, 1);
        let params = draw.bindings();
        // Q9's price band upside down: an empty range, not a panic
        let (price_lo, price_hi) = (draw.price_hi, draw.price_lo);
        let swapped = workload::QueryParams {
            price_lo,
            price_hi,
            ..draw
        }
        .bindings();
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
            mmql(&engine, &swapped, text);
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

        // --- WAL: the log of a load and a few order updates ---
        let wal =
            std::env::temp_dir().join(format!("udbms-never-panic-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&wal);
        {
            let logged = Engine::with_wal(&wal).unwrap();
            create_collections(&logged).unwrap();
            load_into_engine(&logged, &data).unwrap();
            for order in data.orders.iter().take(8) {
                let key = Key::str(order.get_field("_id").as_str().unwrap());
                logged
                    .run(Isolation::Snapshot, |t| workload::order_update(t, &key))
                    .unwrap();
            }
        }
        let log = std::fs::read(&wal).unwrap();
        let starts = frame_starts(&log);
        assert_eq!(Wal::scan(&wal).unwrap().records.len(), starts.len());
        // the checksum is right, so the decoder itself must refuse these
        for value in [
            [7u8, 1].repeat(MANY),
            vec![5, 0x80, 0x80, 0x80, 0x80, 0x80, 0x20],
        ] {
            std::fs::write(&wal, [&log[..], &frame_around(&value)].concat()).unwrap();
            assert!(
                Wal::scan(&wal).is_err(),
                "a malformed frame behind a valid checksum"
            );
        }
        // each mutant is scanned, then opened by an engine, which
        // replays it (and may truncate it — the next mutant is written
        // afresh)
        let mut rng = root.substream("wal");
        for _ in 0..200 {
            std::fs::write(&wal, mutate_log(&mut rng, &log, &starts)).unwrap();
            let _ = Wal::scan(&wal);
            let _ = Engine::with_wal(&wal);
        }
        std::fs::remove_file(&wal).unwrap();
    };
    let walk = std::thread::Builder::new().stack_size(2 << 20).spawn(run);
    walk.unwrap()
        .join()
        .expect("a decoder panicked on a mutated input");
}

/// A random field name: mostly a few letters, sometimes a character JSON
/// must escape or a non-ASCII one, sometimes too long to intern.
fn random_name(rng: &mut SplitMix64) -> String {
    const CHARS: [char; 8] = ['a', 'k', 'z', '_', '"', '\\', '\n', 'é'];
    let len = if rng.chance(0.05) {
        65 + rng.index(40)
    } else {
        1 + rng.index(12)
    };
    (0..len)
        .map(|_| {
            if rng.chance(0.9) {
                char::from(b'a' + rng.below(26) as u8)
            } else {
                CHARS[rng.index(CHARS.len())]
            }
        })
        .collect()
}

/// Both keys of a two-field object, in order.
fn keys(v: &Value) -> Vec<&String> {
    v.as_object().unwrap().keys().collect()
}

#[test]
fn random_field_names_keep_the_interner_bounded() {
    const NAMES: usize = 4096;
    let wal = std::env::temp_dir().join(format!("udbms-names-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&wal);
    let engine = Engine::with_wal(&wal).unwrap();
    engine
        .create_collection(CollectionSchema::key_value("ns"))
        .unwrap();
    let parse = |text: &str| udbms::json::parse(text).unwrap();
    let known = parse(r#"{"customer":1}"#);
    let mut rng = SplitMix64::new(SEED).substream("names");
    let mut counts = vec![interned_names()];
    let mut docs = Vec::new();
    // rounds of fresh names until one leaves the interner as it was
    for round in 0..64 {
        let doc: Value = (0..NAMES)
            .map(|i| (random_name(&mut rng), Value::Int(i as i64)))
            .collect();
        assert_eq!(parse(&udbms::json::to_string(&doc)), doc);
        engine
            .run(Isolation::Snapshot, |t| {
                t.put("ns", Key::int(round), doc.clone())
            })
            .unwrap();
        docs.push(doc);
        counts.push(interned_names());
        if counts[counts.len() - 2] == counts[counts.len() - 1] {
            break;
        }
    }
    let (first, last) = (counts[0], counts[counts.len() - 1]);
    assert!(
        counts.len() > 2 && last > first && counts.ends_with(&[last, last]),
        "the interner must fill and then stop growing: {counts:?}"
    );
    // full: a name interned before is the shared copy, a new one is
    // inline in each object that holds it, now and afterwards
    for _ in 0..2 {
        let again = parse(r#"{"customer":2,"zz-never-seen-before":3}"#);
        assert!(std::ptr::eq(keys(&known)[0], keys(&again)[0]));
        let other = parse(r#"{"zz-never-seen-before":4}"#);
        assert!(!std::ptr::eq(keys(&again)[1], keys(&other)[0]));
    }
    // the log decodes every document, the last ones with the interner full
    drop(engine);
    let logged = Wal::scan(&wal).unwrap().records;
    let values = logged.iter().map(|r| r.writes[0].2.as_ref());
    assert!(values.eq(docs.iter().map(Some)));
    assert_eq!(interned_names(), last);
    std::fs::remove_file(&wal).unwrap();
    random_key_sets_keep_the_shape_interner_bounded(&docs[0]);
}

/// Documents over random sets of interned names — now and then one too
/// wide to shape, or with a name stored inline — through the JSON parser
/// and the WAL decoder, in rounds until the shape interner stops growing
/// at its cap: every document comes back equal, before and after.
fn random_key_sets_keep_the_shape_interner_bounded(named: &Value) {
    const DOCS: usize = 2048;
    let pool: Vec<&String> = keys(named)
        .into_iter()
        .filter(|k| Symbol::lookup(k).is_some())
        .take(48)
        .collect();
    assert_eq!(pool.len(), 48);
    let wal = std::env::temp_dir().join(format!("udbms-shapes-{}.wal", std::process::id()));
    let _ = std::fs::remove_file(&wal);
    let engine = Engine::with_wal(&wal).unwrap();
    engine
        .create_collection(CollectionSchema::key_value("sets"))
        .unwrap();
    let mut rng = SplitMix64::new(SEED).substream("key sets");
    let mut counts = vec![interned_shapes()];
    let mut docs = BTreeMap::new();
    for round in 0..64 {
        let batch: Vec<(Key, Value)> = (0..DOCS)
            .map(|i| {
                let n = if rng.chance(0.05) {
                    33 + rng.index(8)
                } else {
                    1 + rng.index(8)
                };
                let mut doc: Vec<(String, Value)> = (0..n)
                    .map(|j| (pool[rng.index(pool.len())].clone(), Value::Int(j as i64)))
                    .collect();
                if rng.chance(0.05) {
                    doc.push((random_name(&mut rng), Value::Null));
                }
                let doc: Value = doc.into_iter().collect();
                assert_eq!(
                    udbms::json::parse(&udbms::json::to_string(&doc)).unwrap(),
                    doc
                );
                (Key::int((round * DOCS + i) as i64), doc)
            })
            .collect();
        engine
            .run(Isolation::Snapshot, |t| {
                for (key, doc) in &batch {
                    t.put("sets", key.clone(), doc.clone())?;
                }
                Ok(())
            })
            .unwrap();
        docs.extend(batch);
        counts.push(interned_shapes());
        if counts[counts.len() - 2] == counts[counts.len() - 1] {
            break;
        }
    }
    let (first, last) = (counts[0], counts[counts.len() - 1]);
    assert!(
        counts.len() > 2 && last > first && counts.ends_with(&[last, last]),
        "the shape interner must fill and then stop growing: {counts:?}"
    );
    // the log decodes every document, the last ones with the interner full
    drop(engine);
    let logged = Wal::scan(&wal).unwrap().records;
    let decoded: BTreeMap<Key, Value> = (logged.iter())
        .flat_map(|r| &r.writes)
        .map(|(_, key, doc)| (key.clone(), doc.clone().unwrap()))
        .collect();
    assert!(decoded == docs);
    assert_eq!(interned_shapes(), last);
    std::fs::remove_file(&wal).unwrap();
}
