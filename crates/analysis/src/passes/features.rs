//! A2 — feature-gate integrity. Every `cfg(feature = "…")` /
//! `cfg_attr(feature = "…", …)` / `cfg!(feature = "…")` site must name
//! a feature its package's `Cargo.toml` declares — a typo (`tracing`
//! for `trace`) compiles fine and silently dead-codes the gated block
//! forever. Bare predicate identifiers are validated against the known
//! built-in cfgs plus this workspace's registered custom cfg
//! (`rubic_check`), catching `cfg(rubic_chek)` the same way.

use std::collections::BTreeSet;
use std::path::Path;

use crate::lexer::TokKind;
use crate::report::{Finding, Rule, Stats};
use crate::tree::Tree;

/// Built-in value-less cfg predicates, plus the workspace's registered
/// custom cfgs. Anything else as a bare ident inside `cfg(…)` is a
/// finding.
pub const KNOWN_BARE_CFGS: [&str; 11] = [
    "test",
    "doctest",
    "doc",
    "docsrs",
    "debug_assertions",
    "miri",
    "unix",
    "windows",
    "fuzzing",
    // The model-checker cfg: `RUSTFLAGS: --cfg rubic_check` swaps the
    // sync facade onto the controlled scheduler (DESIGN.md §13).
    "rubic_check",
    "loom",
];

/// Built-in `key = "value"` cfg keys. `feature` is handled separately.
pub const KNOWN_KV_CFGS: [&str; 10] = [
    "feature",
    "target_os",
    "target_arch",
    "target_family",
    "target_env",
    "target_endian",
    "target_pointer_width",
    "target_vendor",
    "target_feature",
    "panic",
];

/// Combinators whose argument lists we recurse into.
const COMBINATORS: [&str; 3] = ["all", "any", "not"];

/// Scans one file's trees for cfg sites and validates feature names
/// against `declared` (the package's `[features]` keys plus implicit
/// optional-dependency features).
pub fn check_file(
    rel: &Path,
    trees: &[Tree],
    declared: &BTreeSet<String>,
    pkg: &str,
    stats: &mut Stats,
    out: &mut Vec<Finding>,
) {
    for (i, t) in trees.iter().enumerate() {
        if let Tree::Group(g) = t {
            let is_cfg_call = i > 0
                && (trees[i - 1].is_ident("cfg") || trees[i - 1].is_ident("cfg_attr")
                    // `cfg!` lexes as ident `cfg` + punct `!`; the ident
                    // check above already matched position i-1 when the
                    // `!` sits between — handle that spelling too:
                    || (i > 1 && trees[i - 1].is_punct("!") && trees[i - 2].is_ident("cfg")));
            if g.delim == '(' && is_cfg_call {
                let is_cfg_attr = trees[i - 1].is_ident("cfg_attr");
                check_predicate(rel, &g.children, declared, pkg, is_cfg_attr, stats, out);
            }
            check_file(rel, &g.children, declared, pkg, stats, out);
        }
    }
}

/// Validates one cfg predicate token list (recursing into `all`/`any`/
/// `not`). For `cfg_attr` the scan naturally covers the attribute tail
/// too, which is what we want: `doc(cfg(feature = "…"))` inside it
/// also names a feature that must exist.
#[allow(clippy::too_many_arguments)]
fn check_predicate(
    rel: &Path,
    kids: &[Tree],
    declared: &BTreeSet<String>,
    pkg: &str,
    is_cfg_attr: bool,
    stats: &mut Stats,
    out: &mut Vec<Finding>,
) {
    // In `cfg_attr(pred, attr…)` only the first top-level arm is a cfg
    // predicate; past that comma, idents are attribute names. (Nested
    // `cfg(…)` groups in the tail are found by the outer group walk.)
    let mut in_predicate = true;
    let mut i = 0usize;
    while i < kids.len() {
        let t = &kids[i];
        if is_cfg_attr && t.is_punct(",") {
            in_predicate = false;
        }
        let next_group = kids.get(i + 1).and_then(Tree::group);
        if let Some(leaf) = t.leaf().filter(|l| l.kind == TokKind::Ident) {
            let name = leaf.text.as_str();
            if !in_predicate {
                i += 1;
                continue;
            }
            if COMBINATORS.contains(&name) {
                if let Some(g) = next_group {
                    check_predicate(rel, &g.children, declared, pkg, false, stats, out);
                    i += 2;
                    continue;
                }
            }
            // `key = "value"` predicate.
            if kids.get(i + 1).is_some_and(|n| n.is_punct("=")) {
                let value = kids
                    .get(i + 2)
                    .and_then(Tree::leaf)
                    .filter(|l| l.kind == TokKind::Str);
                if let Some(value) = value {
                    if name == "feature" {
                        stats.cfg_sites += 1;
                        if !declared.contains(&value.text) {
                            out.push(Finding {
                                file: rel.to_path_buf(),
                                line: value.line,
                                rule: Rule::A2,
                                message: format!(
                                    "cfg names feature \"{}\" which `{}`'s Cargo.toml does not \
                                     declare (declared: {}) — the gated code is silently dead",
                                    value.text,
                                    pkg,
                                    declared
                                        .iter()
                                        .map(String::as_str)
                                        .collect::<Vec<_>>()
                                        .join(", ")
                                ),
                            });
                        }
                    } else if !KNOWN_KV_CFGS.contains(&name) {
                        out.push(Finding {
                            file: rel.to_path_buf(),
                            line: leaf.line,
                            rule: Rule::A2,
                            message: format!("unknown cfg key `{name}`"),
                        });
                    }
                    i += 3;
                    continue;
                }
            }
            // Bare predicate ident: a leaf predicate stands alone
            // (next token is `,` or the end of the list) and sits in
            // predicate position (start of the list or right after a
            // comma).
            let at_predicate_position = i == 0 || kids.get(i - 1).is_some_and(|p| p.is_punct(","));
            let terminated = kids.get(i + 1).is_none_or(|n| n.is_punct(","));
            if at_predicate_position && terminated && !KNOWN_BARE_CFGS.contains(&name) {
                out.push(Finding {
                    file: rel.to_path_buf(),
                    line: leaf.line,
                    rule: Rule::A2,
                    message: format!(
                        "unknown cfg predicate `{name}` — not a built-in cfg and not this \
                         workspace's registered custom cfg (`rubic_check`); a typo here \
                         silently dead-codes the gated item"
                    ),
                });
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::tree::parse;
    use std::path::PathBuf;

    fn run(src: &str, declared: &[&str]) -> Vec<String> {
        let lexed = lex(src);
        let trees = parse(&lexed.tokens);
        let declared: BTreeSet<String> = declared.iter().map(ToString::to_string).collect();
        let mut stats = Stats::default();
        let mut out = Vec::new();
        check_file(
            &PathBuf::from("crates/x/src/lib.rs"),
            &trees,
            &declared,
            "x",
            &mut stats,
            &mut out,
        );
        out.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn declared_features_pass_typos_flagged() {
        assert!(run("#[cfg(feature = \"trace\")]\nfn f() {}", &["trace"]).is_empty());
        let v = run("#[cfg(feature = \"tracing\")]\nfn f() {}", &["trace"]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("[A2]") && v[0].contains("tracing"));
    }

    #[test]
    fn nested_combinators_checked() {
        let v = run(
            "#[cfg(all(feature = \"trace\", any(feature = \"chaso\", test)))]\nfn f() {}",
            &["trace", "chaos"],
        );
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("chaso"));
    }

    #[test]
    fn cfg_attr_and_cfg_macro_checked() {
        let v = run(
            "#[cfg_attr(feature = \"serd\", derive(Serialize))]\nstruct S;\nfn f() { if cfg!(feature = \"chaso\") {} }",
            &["serde", "chaos"],
        );
        assert_eq!(v.len(), 2, "{v:?}");
    }

    #[test]
    fn custom_cfg_allowlist() {
        assert!(run("#[cfg(rubic_check)]\nfn f() {}", &[]).is_empty());
        let v = run("#[cfg(rubic_chek)]\nfn f() {}", &[]);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("rubic_chek"));
    }

    #[test]
    fn not_combinator_and_bare_builtin() {
        assert!(run("#[cfg(not(test))]\nfn f() {}", &[]).is_empty());
        assert!(run("#[cfg(all(test, debug_assertions))]\nfn f() {}", &[]).is_empty());
    }
}
