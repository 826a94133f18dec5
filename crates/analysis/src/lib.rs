//! `rubic-analyze` — token-level static analysis for the RUBIC
//! workspace. Zero dependencies, offline-buildable: a hand-rolled
//! lexer ([`lexer`]) feeds a delimiter tree ([`tree`]), and the passes
//! ([`passes`]) walk those instead of raw line text, so strings and
//! comments can never false-positive and real sites can never hide in
//! odd formatting.
//!
//! Passes:
//! - **A1** transaction purity — no irrevocable effects inside
//!   retry-able transaction bodies ([`passes::purity`]).
//! - **A2** feature-gate integrity — every `cfg(feature = "…")` names
//!   a declared feature ([`passes::features`]).
//! - **A3** trace-schema consistency — `EventKind` agrees with its
//!   decode table, doc table, and the README ([`passes::schema`]).
//! - **R1–R5** the hygiene rules of the former line-based lint,
//!   re-hosted on the token stream ([`passes::lexical`]).
//!
//! One entry point: [`analyze`] — everything, what `cargo xtask
//! analyze` runs.

pub mod lexer;
pub mod manifest;
pub mod passes;
pub mod report;
pub mod tree;

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use report::Report;

/// Directory names never descended into. `fixtures` holds deliberately
/// broken inputs for the mutation self-test; `target` and `vendor` are
/// not this workspace's code.
const SKIP_DIRS: [&str; 3] = ["target", "fixtures", "vendor"];

/// Directory names that hold test-harness (non-production) code, for
/// the production walk (A1 + R1–R5 scan crate `src` trees and the
/// suite library only).
const NON_PRODUCTION_DIRS: [&str; 3] = ["tests", "benches", "examples"];

/// Runs every pass over the workspace at `root`. Finding paths are
/// root-relative; the report comes back sorted.
#[must_use]
pub fn analyze(root: &Path) -> Report {
    let mut rep = Report::default();
    let mut scanned: BTreeSet<PathBuf> = BTreeSet::new();

    // A1 + R1–R5 over production sources (crate `src` trees + the
    // suite library).
    for rel in production_files(root) {
        let Ok(src) = std::fs::read_to_string(root.join(&rel)) else {
            continue;
        };
        let lexed = lexer::lex(&src);
        let trees = tree::parse(&lexed.tokens);
        passes::lexical::check_file(&rel, &lexed, &mut rep.stats, &mut rep.findings);
        passes::purity::check_file(&rel, &lexed, &trees, &mut rep.stats, &mut rep.findings);
        scanned.insert(rel);
    }

    // A2 over every package's full source set (tests and examples gate
    // on features too, and a typo there dead-codes them just as
    // silently).
    for pkg_dir in package_dirs(root) {
        let manifest = manifest::read(&root.join(&pkg_dir).join("Cargo.toml"));
        let pkg = manifest
            .name
            .clone()
            .unwrap_or_else(|| pkg_dir.display().to_string());
        for rel in package_files(root, &pkg_dir) {
            let Ok(src) = std::fs::read_to_string(root.join(&rel)) else {
                continue;
            };
            let lexed = lexer::lex(&src);
            let trees = tree::parse(&lexed.tokens);
            passes::features::check_file(
                &rel,
                &trees,
                &manifest.features,
                &pkg,
                &mut rep.stats,
                &mut rep.findings,
            );
            scanned.insert(rel);
        }
    }

    // A3 over the trace schema's two surfaces.
    let event_rs_rel = PathBuf::from("crates/trace/src/event.rs");
    let readme_rel = PathBuf::from("README.md");
    if let (Ok(event_src), Ok(readme_src)) = (
        std::fs::read_to_string(root.join(&event_rs_rel)),
        std::fs::read_to_string(root.join(&readme_rel)),
    ) {
        passes::schema::check(
            &passes::schema::SchemaInput {
                event_rs_rel: &event_rs_rel,
                event_rs_src: &event_src,
                readme_rel: &readme_rel,
                readme_src: &readme_src,
            },
            &mut rep.stats,
            &mut rep.findings,
        );
        scanned.insert(event_rs_rel);
    }

    rep.stats.files = scanned.len();
    rep.sort();
    rep
}

/// Production `.rs` files (root-relative, sorted): the `crates` and
/// `suite` trees minus test/bench/example/fixture directories.
#[must_use]
pub fn production_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for dir in ["crates", "suite"] {
        collect_rs(root, &PathBuf::from(dir), true, &mut out);
    }
    out.sort();
    out
}

/// Package directories (root-relative): each `crates/*` with a
/// manifest, `xtask`, and the workspace root itself (the `rubic-suite`
/// package: `suite/`, `tests/`, `examples/`).
fn package_dirs(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    if let Ok(entries) = std::fs::read_dir(root.join("crates")) {
        for e in entries.flatten() {
            let p = e.path();
            if p.join("Cargo.toml").is_file() {
                out.push(PathBuf::from("crates").join(e.file_name()));
            }
        }
    }
    if root.join("xtask/Cargo.toml").is_file() {
        out.push(PathBuf::from("xtask"));
    }
    if root.join("Cargo.toml").is_file() {
        out.push(PathBuf::new());
    }
    out.sort();
    out
}

/// All `.rs` files belonging to one package (root-relative, sorted).
/// For the workspace-root package only its own source dirs are walked,
/// not the whole tree (member crates are their own packages).
fn package_files(root: &Path, pkg_dir: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    if pkg_dir.as_os_str().is_empty() {
        for dir in ["suite", "tests", "examples"] {
            collect_rs(root, &PathBuf::from(dir), false, &mut out);
        }
    } else {
        collect_rs(root, pkg_dir, false, &mut out);
    }
    out.sort();
    out
}

/// Recursive `.rs` collection under `root/rel`. `production` also
/// skips test/bench/example subdirectories; fixtures/target/vendor are always skipped.
fn collect_rs(root: &Path, rel: &Path, production: bool, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(root.join(rel)) else {
        return;
    };
    for e in entries.flatten() {
        let name = e.file_name();
        let name_str = name.to_string_lossy().into_owned();
        let child = rel.join(&name);
        let path = e.path();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name_str.as_str())
                || (production && NON_PRODUCTION_DIRS.contains(&name_str.as_str()))
            {
                continue;
            }
            collect_rs(root, &child, production, out);
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

    #[test]
    fn package_dirs_cover_crates_xtask_and_root() {
        let dirs = package_dirs(&workspace_root());
        assert!(dirs.iter().any(|d| d.ends_with("crates/stm")));
        assert!(dirs.iter().any(|d| d.as_os_str() == "xtask"));
        assert!(dirs.iter().any(|d| d.as_os_str().is_empty()));
    }
}
