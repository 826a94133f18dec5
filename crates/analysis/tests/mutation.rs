//! Mutation self-test: every fixture under `tests/fixtures/bad/` seeds
//! a known violation, and the analyzer must catch each one with the
//! right rule ID at the right line. This is the proof that the passes
//! actually detect what they claim to — a pass that silently matched
//! nothing would sail through the workspace-clean gate.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use rubic_analyze::{lexer, passes, report, tree};

fn fixture(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/bad")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Runs the production-file passes (R1/R2/R4/R5 + A1) on one fixture as if it
/// lived at `rel` in the tree, returning (rule, line) verdicts.
fn production_verdicts(rel: &str, src: &str) -> BTreeSet<(String, u32)> {
    let lexed = lexer::lex(src);
    let trees = tree::parse(&lexed.tokens);
    let mut stats = report::Stats::default();
    let mut out = Vec::new();
    let rel = PathBuf::from(rel);
    passes::lexical::check_file(&rel, &lexed, &mut stats, &mut out);
    passes::purity::check_file(&rel, &lexed, &trees, &mut stats, &mut out);
    out.iter()
        .map(|f| (f.rule.id().to_string(), f.line))
        .collect()
}

fn ids(v: &BTreeSet<(String, u32)>) -> BTreeSet<(&str, u32)> {
    v.iter().map(|(r, l)| (r.as_str(), *l)).collect()
}

#[test]
fn effectful_txn_caught() {
    let v = production_verdicts("crates/x/src/lib.rs", &fixture("effectful_txn.rs"));
    // println! and the captured-state mutation in the closure, plus
    // thread::sleep in the one-hop Transaction-taking helper — which
    // is also a direct `std::thread` use, so R1 fires there too.
    assert_eq!(
        ids(&v),
        BTreeSet::from([("A1", 8), ("A1", 9), ("A1", 15), ("R1", 15)]),
        "{v:?}"
    );
}

#[test]
fn unjustified_seqcst_caught() {
    let v = production_verdicts(
        "crates/runtime/src/lib.rs",
        &fixture("unjustified_seqcst.rs"),
    );
    assert_eq!(
        ids(&v),
        BTreeSet::from([("R2", 16), ("R2", 17), ("R5", 18)]),
        "{v:?}"
    );
}

#[test]
fn empty_escape_caught() {
    let v = production_verdicts("crates/x/src/lib.rs", &fixture("empty_escape.rs"));
    // E1 for the empty escape, and the A1 it failed to suppress.
    assert_eq!(ids(&v), BTreeSet::from([("E1", 7), ("A1", 8)]), "{v:?}");
}

/// The bad fixtures must be invisible to the real tree walks — the
/// workspace-clean gate only means something if these seeded
/// violations are excluded by directory policy, not by accident.
#[test]
fn fixtures_excluded_from_walks() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root");
    let files = rubic_analyze::production_files(root);
    assert!(
        files
            .iter()
            .all(|f| !f.components().any(|c| c.as_os_str() == "fixtures")),
        "fixtures leaked into the production walk"
    );
}
