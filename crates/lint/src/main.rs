#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented
    )
)]

//! `udbms-lint` CLI: lint the workspace tree.
//!
//! ```text
//! cargo run -p udbms-lint --             # report findings, exit 0
//! cargo run -p udbms-lint -- --deny     # exit 1 on any finding (CI)
//! cargo run -p udbms-lint -- --root DIR # lint another tree
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use udbms_lint::lint_workspace;

fn main() -> ExitCode {
    let mut deny = false;
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--root" => match args.next() {
                Some(dir) => root = PathBuf::from(dir),
                None => {
                    eprintln!("udbms-lint: --root requires a directory");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("usage: udbms-lint [--deny] [--root DIR]");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("udbms-lint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    // When invoked via `cargo run` the cwd is the workspace root; fall
    // back from an explicit root that has no Cargo.toml with a hint
    // rather than silently linting nothing.
    let findings = match lint_workspace(&root) {
        Ok(findings) => findings,
        Err(e) => {
            eprintln!("udbms-lint: failed to walk `{}`: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    for f in &findings {
        println!("{f}");
    }
    if findings.is_empty() {
        eprintln!("udbms-lint: clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("udbms-lint: {} finding(s)", findings.len());
        if deny {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        }
    }
}
