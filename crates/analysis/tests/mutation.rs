//! Mutation self-test: every fixture under `tests/fixtures/bad/` seeds
//! a known violation, and the analyzer must catch each one with the
//! right rule ID at the right line. This is the proof that the passes
//! actually detect what they claim to — a pass that silently matched
//! nothing would sail through the workspace-clean gate.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

use rubic_analyze::{lexer, manifest, passes, report, tree};

fn fixture(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/bad")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// Runs the production-file passes (R1–R5 + A1) on one fixture as if it
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
fn typo_feature_caught() {
    let m = manifest::parse(&fixture("typo_feature/Cargo.toml"));
    assert_eq!(m.name.as_deref(), Some("typo-feature-fixture"));
    let lexed = lexer::lex(&fixture("typo_feature/src/lib.rs"));
    let trees = tree::parse(&lexed.tokens);
    let mut stats = report::Stats::default();
    let mut out = Vec::new();
    passes::features::check_file(
        &PathBuf::from("crates/x/src/lib.rs"),
        &trees,
        &m.features,
        "typo-feature-fixture",
        &mut stats,
        &mut out,
    );
    let v: BTreeSet<(String, u32)> = out
        .iter()
        .map(|f| (f.rule.id().to_string(), f.line))
        .collect();
    // The typo'd feature gate and the typo'd custom cfg; the declared
    // feature, the implicit optional-dep feature, and the built-in
    // bare cfgs all pass.
    assert_eq!(ids(&v), BTreeSet::from([("A2", 6), ("A2", 9)]), "{v:?}");
}

#[test]
fn undecoded_event_caught() {
    let event_src = fixture("undecoded_event/event.rs");
    let readme_src = fixture("undecoded_event/README.md");
    let mut stats = report::Stats::default();
    let mut out = Vec::new();
    passes::schema::check(
        &passes::schema::SchemaInput {
            event_rs_rel: Path::new("event.rs"),
            event_rs_src: &event_src,
            readme_rel: Path::new("README.md"),
            readme_src: &readme_src,
        },
        &mut stats,
        &mut out,
    );
    assert_eq!(stats.event_kinds, 3);
    let msgs: Vec<String> = out.iter().map(ToString::to_string).collect();
    assert!(out.iter().all(|f| f.rule.id() == "A3"), "{msgs:?}");
    // `ALL` is both one short in declared length and missing `Gamma`,
    // both anchored at the `ALL` declaration.
    assert!(
        msgs.iter()
            .any(|m| m.contains("event.rs:19") && m.contains("declared `[EventKind; 2]`")),
        "{msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("event.rs:19") && m.contains("`Gamma` is missing from the `ALL`")),
        "{msgs:?}"
    );
    // No doc-table row for the new variant (anchored at the variant).
    assert!(
        msgs.iter().any(|m| m.contains("event.rs:15")
            && m.contains("no row in the `EventKind` payload doc table")),
        "{msgs:?}"
    );
    // README copy: drifted `b` cell for `beta`, no row for `gamma`.
    assert!(
        msgs.iter()
            .any(|m| m.contains("README.md:9") && m.contains("`b` column")),
        "{msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("gamma") && m.contains("no row in the README")),
        "{msgs:?}"
    );
    assert_eq!(out.len(), 5, "{msgs:?}");
}

#[test]
fn stale_schema_row_caught() {
    let event_src = fixture("stale_row/event.rs");
    let readme_src = fixture("stale_row/README.md");
    let mut stats = report::Stats::default();
    let mut out = Vec::new();
    passes::schema::check(
        &passes::schema::SchemaInput {
            event_rs_rel: Path::new("event.rs"),
            event_rs_src: &event_src,
            readme_rel: Path::new("README.md"),
            readme_src: &readme_src,
        },
        &mut stats,
        &mut out,
    );
    let msgs: Vec<String> = out.iter().map(ToString::to_string).collect();
    // The enum, `ALL`, `name()` and the doc table agree; only the README
    // row that outlived its variant is reported, at its own line.
    assert_eq!(out.len(), 1, "{msgs:?}");
    assert_eq!(out[0].rule.id(), "A3");
    assert!(
        msgs[0].contains("README.md:10") && msgs[0].contains("row for `gamma`"),
        "{msgs:?}"
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
fn string_unsafe_caught_exactly_once() {
    let v = production_verdicts("crates/stm/src/lib.rs", &fixture("string_unsafe.rs"));
    // The real unsafe block fires; the string mention must not.
    assert_eq!(ids(&v), BTreeSet::from([("R3", 9)]), "{v:?}");
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
