//! `nvt-lint` — source-level persistency-protocol and public-surface lints,
//! CI gate.
//!
//! Usage: `nvt-lint [WORKSPACE_ROOT]` (default: current directory).
//! Prints one `path:line: rule: message` per violation and exits non-zero
//! if any were found. See `nvtraverse_vet::lint` for the rule table and
//! the allow-annotation syntax.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let root = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    if !root.join("Cargo.toml").exists() {
        eprintln!(
            "nvt-lint: {} does not look like a workspace root (no Cargo.toml)",
            root.display()
        );
        return ExitCode::from(2);
    }
    match nvtraverse_vet::lint_workspace(&root) {
        Ok(violations) => {
            for v in &violations {
                println!("{v}");
            }
            if violations.is_empty() {
                eprintln!("nvt-lint: clean");
                ExitCode::SUCCESS
            } else {
                eprintln!("nvt-lint: {} violation(s)", violations.len());
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("nvt-lint: I/O error: {e}");
            ExitCode::from(2)
        }
    }
}
