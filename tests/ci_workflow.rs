//! The CI workflows must parse. This is deliberately not a YAML parser:
//! it rejects the few ways the shapes `.github/workflows/*.yml` uses can
//! go wrong without anyone running the file — a `run:`/`name:` plain
//! scalar holding `: ` (a mapping inside a scalar: the file stops
//! parsing) or ` #` (a comment that silently cuts the command short), a
//! tab in the indentation, and a `needs:` naming a job the file does not
//! define. Quoted scalars and `|`/`>` block scalars are skipped.

use std::path::Path;

/// Width of `line`'s leading whitespace.
fn indent(line: &str) -> usize {
    line.len() - line.trim_start().len()
}

/// `key` and its value when `line` is a `key: value` mapping entry,
/// with an optional `- ` sequence marker in front.
fn entry(line: &str) -> Option<(&str, &str)> {
    let body = line.trim_start();
    let body = body.strip_prefix("- ").unwrap_or(body);
    let (key, value) = body.split_once(':')?;
    let plain_key = !key.is_empty()
        && key
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
    (plain_key && (value.is_empty() || value.starts_with(' '))).then(|| (key, value.trim()))
}

/// Every problem in one workflow file, as `file:line: message`.
fn problems(file: &str, text: &str) -> Vec<String> {
    let lines: Vec<&str> = text.lines().collect();
    let mut found = Vec::new();
    let mut report = |n: usize, msg: String| found.push(format!("{file}:{}: {msg}", n + 1));

    // the jobs: the keys one level under a top-level `jobs:`
    let mut jobs: Vec<&str> = Vec::new();
    if let Some(start) = lines.iter().position(|l| *l == "jobs:") {
        let mut level = None;
        for line in &lines[start + 1..] {
            if line.trim().is_empty() || line.trim_start().starts_with('#') {
                continue;
            }
            if indent(line) == 0 {
                break;
            }
            if *level.get_or_insert(indent(line)) == indent(line) {
                jobs.extend(entry(line).map(|(key, _)| key));
            }
        }
    }

    // the indentation of the key whose block scalar is being skipped
    let mut block: Option<usize> = None;
    for (n, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        if let Some(level) = block {
            if indent(line) > level {
                continue;
            }
            block = None;
        }
        if line[..indent(line)].contains('\t') {
            report(n, "tab in indentation".into());
        }
        if line.trim_start().starts_with('#') {
            continue;
        }
        let Some((key, value)) = entry(line) else {
            continue;
        };
        if value.starts_with('|') || value.starts_with('>') {
            block = Some(indent(line));
            continue;
        }
        let quoted = value.starts_with('"') || value.starts_with('\'');
        if (key == "run" || key == "name") && !quoted {
            if value.contains(": ") {
                report(
                    n,
                    format!("unquoted `{key}:` value contains `: `; quote it"),
                );
            }
            if value.contains(" #") {
                report(
                    n,
                    format!("unquoted `{key}:` value contains ` #`; quote it"),
                );
            }
        }
        if key == "needs" {
            let names = value.trim_start_matches('[').trim_end_matches(']');
            for need in names.split(',').map(str::trim) {
                if !jobs.contains(&need) {
                    report(n, format!("`needs: {need}` names no job in this file"));
                }
            }
        }
    }
    found
}

#[test]
fn every_workflow_parses_in_the_shapes_it_uses() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join(".github/workflows");
    let mut checked = 0;
    let mut found = Vec::new();
    for entry in std::fs::read_dir(&dir).expect("workflow directory") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_some_and(|e| e == "yml" || e == "yaml") {
            let text = std::fs::read_to_string(&path).expect("workflow text");
            let name = path.file_name().expect("file name").to_string_lossy();
            found.extend(problems(&name, &text));
            checked += 1;
        }
    }
    assert!(checked > 0, "no workflow under {}", dir.display());
    assert!(found.is_empty(), "{}", found.join("\n"));
}

#[test]
fn the_checker_names_each_mistake_by_line() {
    let text = "\
jobs:
  lint:
    steps:
      - name: fine, quoted below
        run: \"cargo test -- wal:: group::\"
  test:
    needs: lint
    steps:
      - name: script
        run: |
          echo a: b # block scalars are not plain scalars
      - run: cargo test -- wal:: group::
      - run: cargo test # all of it
\t  - run: ok
  docs:
    needs: [lint, tset]
";
    assert_eq!(
        problems("ci.yml", text),
        [
            "ci.yml:12: unquoted `run:` value contains `: `; quote it",
            "ci.yml:13: unquoted `run:` value contains ` #`; quote it",
            "ci.yml:14: tab in indentation",
            "ci.yml:16: `needs: tset` names no job in this file",
        ]
    );
}
