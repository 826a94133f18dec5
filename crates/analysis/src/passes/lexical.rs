//! R1, R2, R4 and R5, the concurrency hygiene rules, on the token
//! stream: string literals and comments cannot produce false positives,
//! because they are single tokens / comment-map entries rather than raw
//! line text. (`// SAFETY:` at every `unsafe` is clippy's
//! `undocumented_unsafe_blocks`, set in the workspace lint table.)

use std::collections::BTreeSet;
use std::path::Path;

use crate::lexer::{LexOut, Tok, TokKind};
use crate::report::{Finding, Rule, Stats};

/// How far above a site a justification comment may sit.
pub const COMMENT_WINDOW: u32 = 10;

/// Crates whose `src` trees are exempt from R1/R2/R5: they *implement*
/// the sync facade and the model checker, so they necessarily name the
/// raw primitives and match on orderings.
pub const FACADE_CRATES: [&str; 2] = ["crates/sync", "crates/check"];

/// STM files on the per-access hot path (R4).
pub const HOT_PATH_FILES: [&str; 5] = [
    "crates/stm/src/txn.rs",
    "crates/stm/src/vlock.rs",
    "crates/stm/src/clock.rs",
    "crates/stm/src/tvar.rs",
    "crates/stm/src/index.rs",
];

/// True when `rel` starts with the path `prefix` (component-wise).
#[must_use]
pub fn rel_starts_with(rel: &Path, prefix: &str) -> bool {
    let mut comps = rel.components();
    prefix
        .split('/')
        .all(|p| comps.next().is_some_and(|c| c.as_os_str() == p))
}

/// First line of the trailing `#[cfg(test)] mod …` (or
/// `#[cfg(all(test, …))] mod …`), if any; tokens at or after that line
/// are test-harness code and exempt from production rules. An inline
/// `#[cfg(test)]` on a single helper fn does not start the tail — only
/// an attribute whose next item is a `mod` does.
#[must_use]
pub fn test_tail_line(tokens: &[Tok]) -> u32 {
    let is = |i: usize, text: &str| tokens.get(i).is_some_and(|t| t.text == text);
    let mut i = 0usize;
    while i < tokens.len() {
        if is(i, "#") && is(i + 1, "[") && is(i + 2, "cfg") && is(i + 3, "(") {
            let test_attr =
                is(i + 4, "test") || (is(i + 4, "all") && is(i + 5, "(") && is(i + 6, "test"));
            if test_attr {
                // Skip to the attribute's closing `]` (depth-counted
                // from the `[`), then past any further attributes.
                let mut j = i + 1;
                let mut depth = 0i32;
                while j < tokens.len() {
                    match tokens[j].text.as_str() {
                        "[" | "(" | "{" => depth += 1,
                        "]" | ")" | "}" => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
                let mut k = j + 1;
                while is(k, "#") && is(k + 1, "[") {
                    let mut d = 0i32;
                    k += 1;
                    while k < tokens.len() {
                        match tokens[k].text.as_str() {
                            "[" | "(" | "{" => d += 1,
                            "]" | ")" | "}" => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    k += 1;
                }
                if is(k, "pub") {
                    k += 1;
                }
                if is(k, "mod") {
                    return tokens[i].line;
                }
            }
        }
        i += 1;
    }
    u32::MAX
}

/// True when the comment on `line` itself carries `escape`.
fn escaped_on(lex: &LexOut, line: u32, escape: &str) -> bool {
    lex.comment_on(line).is_some_and(|c| c.contains(escape))
}

/// Runs R1, R2, R4 and R5 over one production file's token stream.
pub fn check_file(rel: &Path, lex: &LexOut, stats: &mut Stats, out: &mut Vec<Finding>) {
    let tail = test_tail_line(&lex.tokens);
    let facade_exempt = FACADE_CRATES.iter().any(|c| rel_starts_with(rel, c));
    let hot_path = HOT_PATH_FILES.iter().any(|f| rel_starts_with(rel, f));
    let toks = &lex.tokens;

    // Per-line extreme-ordering presence (R5 must not double-report a
    // line R2 already covers).
    let extreme_lines: BTreeSet<u32> = toks
        .iter()
        .filter(|t| t.kind == TokKind::Ident && (t.text == "SeqCst" || t.text == "Relaxed"))
        .map(|t| t.line)
        .collect();

    // Dedup: one finding per (rule, line).
    let mut seen: BTreeSet<(&'static str, u32)> = BTreeSet::new();
    let mut report = |out: &mut Vec<Finding>, rule: Rule, line: u32, message: &str| {
        if seen.insert((rule.id(), line)) {
            out.push(Finding {
                file: rel.to_path_buf(),
                line,
                rule,
                message: message.to_string(),
            });
        }
    };

    // Counted lines, so stats match the one-site-per-line convention.
    let mut ordering_lines: BTreeSet<u32> = BTreeSet::new();

    let ident = |i: usize, name: &str| {
        toks.get(i)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == name)
    };
    let punct = |i: usize, p: &str| {
        toks.get(i)
            .is_some_and(|t| t.kind == TokKind::Punct && t.text == p)
    };

    for (i, t) in toks.iter().enumerate() {
        if t.line >= tail {
            break;
        }
        let line = t.line;

        // R1: facade discipline.
        if !facade_exempt && t.kind == TokKind::Ident {
            let std_path = t.text == "std"
                && punct(i + 1, "::")
                && ((ident(i + 2, "sync")
                    && punct(i + 3, "::")
                    && (ident(i + 4, "atomic")
                        || ident(i + 4, "Mutex")
                        || ident(i + 4, "RwLock")
                        || ident(i + 4, "Condvar")))
                    || ident(i + 2, "thread"));
            let pl = t.text == "parking_lot";
            if (std_path || pl) && !escaped_on(lex, line, "lint: allow-std-sync") {
                report(
                    out,
                    Rule::R1,
                    line,
                    "direct sync primitive; import from rubic_sync so `--cfg rubic_check` can \
                     swap in the model checker (or `// lint: allow-std-sync` with a reason)",
                );
            }
        }

        // R2: extreme orderings must be argued.
        if !facade_exempt && t.kind == TokKind::Ident && (t.text == "SeqCst" || t.text == "Relaxed")
        {
            ordering_lines.insert(line);
            if !escaped_on(lex, line, "lint: allow-ordering")
                && !lex.comment_nearby(line, "ordering:", COMMENT_WINDOW)
            {
                report(
                    out,
                    Rule::R2,
                    line,
                    "SeqCst/Relaxed site without a `// ordering:` justification within the \
                     comment window",
                );
            }
        }

        // R4: hot path must not read the OS clock.
        if hot_path
            && t.kind == TokKind::Ident
            && t.text == "Instant"
            && punct(i + 1, "::")
            && ident(i + 2, "now")
            && !escaped_on(lex, line, "lint: allow-instant")
        {
            report(
                out,
                Rule::R4,
                line,
                "Instant::now() on the STM per-access hot path; use the global version clock \
                 or hoist timing to transaction boundaries",
            );
        }

        // R5: fences must be argued at any ordering. Lines with an
        // extreme spelling are already R2 sites; R5 covers the rest
        // (e.g. an unjustified downgrade to `fence(Ordering::AcqRel)`).
        if !facade_exempt
            && t.kind == TokKind::Ident
            && t.text == "fence"
            && punct(i + 1, "(")
            && !extreme_lines.contains(&line)
            && !escaped_on(lex, line, "lint: allow-ordering")
            && !lex.comment_nearby(line, "ordering:", COMMENT_WINDOW)
        {
            ordering_lines.insert(line);
            report(
                out,
                Rule::R5,
                line,
                "fence without a `// ordering:` justification; fences carry the version-chain \
                 / snapshot-registry handshake arguments",
            );
        }
    }

    stats.ordering_sites += ordering_lines.len();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use std::path::PathBuf;

    fn run(rel: &str, src: &str) -> Vec<String> {
        let lexed = lex(src);
        let mut stats = Stats::default();
        let mut out = Vec::new();
        check_file(&PathBuf::from(rel), &lexed, &mut stats, &mut out);
        out.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn flags_raw_std_sync_import() {
        let v = run("crates/stm/src/x.rs", "use std::sync::Mutex;\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("[R1]"));
    }

    #[test]
    fn strings_and_comments_never_fire() {
        let src = "// std::sync::Mutex is banned here\n\
                   let s = \"std::sync::Mutex\";\n\
                   let r = r#\"unsafe { fence(Ordering::SeqCst) }\"#;\n";
        assert!(run("crates/stm/src/x.rs", src).is_empty());
    }

    #[test]
    fn facade_crates_exempt_from_r1_r2_r5() {
        let src =
            "use std::sync::Mutex;\nlet x = a.load(Ordering::SeqCst);\nfence(Ordering::AcqRel);\n";
        assert!(run("crates/sync/src/lib.rs", src).is_empty());
        assert!(run("crates/check/src/engine.rs", src).is_empty());
    }

    #[test]
    fn test_tail_exempt_but_inline_cfg_test_is_not() {
        let tail = "fn f() {}\n#[cfg(test)]\nmod tests {\n    use std::sync::Mutex;\n}\n";
        assert!(run("crates/stm/src/x.rs", tail).is_empty());
        let inline = "#[cfg(test)]\nfn helper() {}\nuse std::sync::Mutex;\n";
        let v = run("crates/stm/src/x.rs", inline);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("[R1]"));
    }

    #[test]
    fn ordering_and_fence_justifications() {
        assert_eq!(
            run(
                "crates/runtime/src/x.rs",
                "let x = a.load(Ordering::SeqCst);\n"
            )
            .len(),
            1
        );
        assert!(run(
            "crates/runtime/src/x.rs",
            "// ordering: total order with producer increments\nlet x = a.load(Ordering::SeqCst);\n"
        )
        .is_empty());
        let v = run("crates/stm/src/clock.rs", "fence(Ordering::AcqRel);\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("[R5]"));
        // SeqCst fence without a comment: exactly one report (R2).
        let v = run("crates/stm/src/clock.rs", "fence(Ordering::SeqCst);\n");
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("[R2]"));
    }

    #[test]
    fn hot_path_instant_flagged_only_on_hot_files() {
        let src = "let t = Instant::now();\n";
        assert_eq!(run("crates/stm/src/vlock.rs", src).len(), 1);
        assert_eq!(run("crates/stm/src/clock.rs", src).len(), 1);
        assert!(run("crates/stm/src/stats.rs", src).is_empty());
        assert!(run("crates/runtime/src/pool.rs", src).is_empty());
    }

    #[test]
    fn escapes_suppress() {
        let src = "use std::sync::Mutex; // lint: allow-std-sync — poison-test fixture\n\
                   let x = a.load(Ordering::SeqCst); // lint: allow-ordering\n";
        assert!(run("crates/stm/src/x.rs", src).is_empty());
    }
}
