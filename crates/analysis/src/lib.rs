//! `rubic-analyze` — token-level static analysis for the RUBIC
//! workspace. Zero dependencies, offline-buildable: a hand-rolled
//! lexer ([`lexer`]) feeds a delimiter tree ([`tree`]), and the passes
//! ([`passes`]) walk those instead of raw line text, so strings and
//! comments can never false-positive and real sites can never hide in
//! odd formatting.
//!
//! It checks only what no compiler lint can:
//! - **A1** transaction purity — no irrevocable effects inside
//!   retry-able transaction bodies, and no empty escape (**E1**)
//!   ([`passes::purity`]).
//! - **R1, R2, R4, R5** the concurrency hygiene rules: the sync facade,
//!   ordering and fence justifications, no OS clock on the STM hot path
//!   ([`passes::lexical`]).
//!
//! Undeclared cfgs are rustc's `unexpected_cfgs` and undocumented
//! `unsafe` is clippy's `undocumented_unsafe_blocks`, both set in the
//! root `[workspace.lints]` table.
//!
//! One entry point: [`analyze`] — everything, what `cargo xtask
//! analyze` runs.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod passes;
pub mod report;
pub mod tree;

use std::path::{Path, PathBuf};

use report::Report;

/// Directory names never descended into. `tests`, `benches` and
/// `examples` hold test-harness code; `fixtures` holds deliberately
/// broken inputs for the mutation self-test; `target` and `vendor` are
/// not this workspace's code.
const SKIP_DIRS: [&str; 6] = [
    "tests", "benches", "examples", "fixtures", "target", "vendor",
];

/// Runs every pass over the production sources of the workspace at
/// `root`. Finding paths are root-relative; the report comes back
/// sorted.
#[must_use]
pub fn analyze(root: &Path) -> Report {
    let mut rep = Report::default();
    let files = production_files(root);
    for rel in &files {
        let Ok(src) = std::fs::read_to_string(root.join(rel)) else {
            continue;
        };
        let lexed = lexer::lex(&src);
        let trees = tree::parse(&lexed.tokens);
        passes::lexical::check_file(rel, &lexed, &mut rep.stats, &mut rep.findings);
        passes::purity::check_file(rel, &lexed, &trees, &mut rep.stats, &mut rep.findings);
    }
    rep.stats.files = files.len();
    rep.sort();
    rep
}

/// Production `.rs` files (root-relative, sorted): the `crates` and
/// `suite` trees minus test/bench/example/fixture directories.
#[must_use]
pub fn production_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for dir in ["crates", "suite"] {
        collect_rs(root, &PathBuf::from(dir), &mut out);
    }
    out.sort();
    out
}

/// Recursive `.rs` collection under `root/rel`, skipping [`SKIP_DIRS`].
fn collect_rs(root: &Path, rel: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(root.join(rel)) else {
        return;
    };
    for e in entries.flatten() {
        let name = e.file_name();
        let name_str = name.to_string_lossy().into_owned();
        let child = rel.join(&name);
        let path = e.path();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name_str.as_str()) {
                continue;
            }
            collect_rs(root, &child, out);
        } else if name_str.ends_with(".rs") {
            out.push(child);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn workspace_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root")
            .to_path_buf()
    }

    #[test]
    fn production_walk_skips_tests_and_fixtures() {
        let files = production_files(&workspace_root());
        assert!(files.iter().any(|f| f.ends_with("stm.rs")));
        assert!(files.iter().all(|f| {
            f.components().all(|c| {
                let c = c.as_os_str();
                c != "tests" && c != "benches" && c != "examples" && c != "fixtures"
            })
        }));
    }
}
