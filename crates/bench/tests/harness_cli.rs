//! The `harness` binary end to end: what it rejects, and that a
//! `--json` report records the whole profile it ran under.

use std::process::Command;

fn harness(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_harness"))
        .args(args)
        .output()
        .expect("harness runs")
}

#[test]
fn unknown_ids_and_removed_flags_exit_2() {
    let out = harness(&["--quick", "f1", "e13"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown experiment(s) [\"e13\"]"), "{err}");
    assert!(err.contains("available: f1, e1, e2"), "{err}");
    assert!(out.stdout.is_empty(), "nothing may run before the id check");

    // the experiments mmbench's per-layer table answers are gone
    for id in ["e6", "e7", "e9"] {
        let out = harness(&["--quick", id]);
        assert_eq!(out.status.code(), Some(2), "{id}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("available: f1, e1, e2, e3, e4a, e4b, e4c, e5, e8, e10, e11, e12"),
            "{err}"
        );
    }

    for flag in [
        "--obs-check",
        "--experiments",
        "--slow-query-ms",
        "--obs",
        "--key-dist",
        "--value-shape",
        "--rate",
        "--faults",
        "--retries",
    ] {
        let out = harness(&["--quick", flag, "f1"]);
        assert_eq!(out.status.code(), Some(2), "{flag}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown flag `{flag}`")), "{err}");
    }
    let out = harness(&["--quick", "--clients", "0", "f1"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--clients needs a positive integer"), "{err}");
}

#[test]
fn json_header_records_the_whole_profile() {
    let path = std::env::temp_dir().join(format!("udbms-harness-cli-{}.json", std::process::id()));
    let path_arg = path.to_str().expect("utf-8 temp path");
    let out = harness(&[
        "--quick",
        "--clients",
        "3",
        "--mode",
        "open",
        "--json",
        path_arg,
        "f1",
    ]);
    assert!(out.status.success(), "{out:?}");
    let text = std::fs::read_to_string(&path).expect("report written");
    let _ = std::fs::remove_file(&path);
    let doc = udbms_json::parse(&text).expect("report parses");
    let field = |name: &str| doc.get_field(name).display_plain().into_owned();
    for (name, value) in [
        ("profile", "quick"),
        ("clients", "3"),
        ("durability", "all"),
        ("mode", "open"),
    ] {
        assert_eq!(field(name), value, "`{name}`");
    }
    // the banner prints the same list
    let banner = String::from_utf8_lossy(&out.stdout);
    assert!(
        banner.contains("clients 3, shards 8, durability all, mode open\n"),
        "{banner}"
    );
    let reports = doc.get_field("reports").as_array().expect("reports");
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].get_field("id").display_plain(), "f1");
    // the profile and the reports are the whole document
    for gone in [
        "matrix",
        "obs",
        "key_dist",
        "value_shape",
        "rate",
        "fault_seed",
        "retries",
    ] {
        assert_eq!(doc.get_field(gone), &udbms_core::Value::Null, "`{gone}`");
    }
}
