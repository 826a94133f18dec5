//! `cargo xtask lint` — thin shim over `rubic-analyze`'s re-hosted
//! R1–R5 lexical rules. The rules themselves (sync-facade discipline,
//! ordering justifications, SAFETY comments, hot-path timing, fence
//! justifications) run on the analyzer's token stream; the mutation
//! fixtures in `crates/analysis/tests/mutation.rs` are their oracle.

use std::path::Path;

/// Counters for the success report (historical field names).
#[derive(Default)]
pub struct Stats {
    pub files: usize,
    pub ordering_sites: usize,
    pub unsafe_blocks: usize,
}

/// Runs R1–R5 over the workspace rooted at `root`.
///
/// # Errors
/// Returns every violation, rendered, for the caller to print and fail.
pub fn run(root: &Path) -> Result<Stats, Vec<String>> {
    let rep = rubic_analyze::analyze_lexical(root);
    if rep.findings.is_empty() {
        Ok(Stats {
            files: rep.stats.files,
            ordering_sites: rep.stats.ordering_sites,
            unsafe_blocks: rep.stats.unsafe_sites,
        })
    } else {
        Err(rep.findings.iter().map(ToString::to_string).collect())
    }
}
