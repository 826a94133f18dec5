//! Regression gate: the real workspace analyzes clean. Any future
//! change that introduces an impure transaction body or an unjustified
//! ordering fails this test (and `cargo xtask analyze`, and CI).

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("workspace root")
        .to_path_buf()
}

#[test]
fn workspace_analyzes_clean() {
    let rep = rubic_analyze::analyze(&workspace_root());
    let rendered: Vec<String> = rep.findings.iter().map(ToString::to_string).collect();
    assert!(
        rep.findings.is_empty(),
        "workspace has analyzer findings:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn workspace_stats_are_plausible() {
    let rep = rubic_analyze::analyze(&workspace_root());
    // The workspace has over a hundred production Rust files, dozens
    // of transaction contexts and dozens of audited ordering sites;
    // zeros here mean a walk or pass silently matched nothing.
    assert!(rep.stats.files > 50, "files: {}", rep.stats.files);
    assert!(
        rep.stats.txn_contexts > 20,
        "txn_contexts: {}",
        rep.stats.txn_contexts
    );
    assert!(
        rep.stats.ordering_sites > 20,
        "ordering_sites: {}",
        rep.stats.ordering_sites
    );
}
