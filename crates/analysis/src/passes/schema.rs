//! A3 — trace-schema consistency. `rubic-trace`'s `EventKind` is the
//! contract between emitters, the binary decoder, and every exporter;
//! a variant added without updating the decode table (`ALL`), the
//! payload doc table, or the README event table ships half-decoded:
//! `from_u8` returns `None` for it (the ring drops it as "corrupt") and
//! operators have no schema row to read dumps with. This pass parses
//! the enum and cross-checks all four surfaces in both directions — a
//! table row that names no variant documents an event nothing can emit
//! — including cell-level drift between the rustdoc payload table and
//! the README copy.

use std::collections::BTreeMap;
use std::path::Path;

use crate::lexer::{lex, LexOut, TokKind};
use crate::report::{Finding, Rule, Stats};
use crate::tree::{parse, Group, Tree};

/// The inputs, as text, so the mutation self-test can feed fixtures.
pub struct SchemaInput<'a> {
    pub event_rs_rel: &'a Path,
    pub event_rs_src: &'a str,
    pub readme_rel: &'a Path,
    pub readme_src: &'a str,
}

/// The table header that anchors both payload tables.
const TABLE_HEADER: [&str; 5] = ["kind", "code", "a", "b", "c"];

/// One markdown table row: the payload cells after the key column,
/// normalized, plus the source line.
#[derive(Debug)]
struct Row {
    cells: Vec<String>,
    line: u32,
}

pub fn check(input: &SchemaInput<'_>, stats: &mut Stats, out: &mut Vec<Finding>) {
    let lexed = lex(input.event_rs_src);
    let trees = parse(&lexed.tokens);

    let Some((variants, enum_line)) = find_enum_variants(&trees, "EventKind") else {
        out.push(Finding {
            file: input.event_rs_rel.to_path_buf(),
            line: 1,
            rule: Rule::A3,
            message: "no `enum EventKind` found to cross-check".into(),
        });
        return;
    };
    stats.event_kinds += variants.len();

    // Discriminants, where written, must be their declaration index —
    // exported data freezes them.
    for (idx, (name, disc, line)) in variants.iter().enumerate() {
        if disc.is_some_and(|d| d != idx as u64) {
            out.push(Finding {
                file: input.event_rs_rel.to_path_buf(),
                line: *line,
                rule: Rule::A3,
                message: format!(
                    "variant `{name}` has discriminant {} but declaration index {idx} — \
                     `ALL`-based decode assumes they agree",
                    disc.unwrap_or_default()
                ),
            });
        }
    }

    check_all_array(input, &trees, &variants, out);
    let names = check_name_match(input, &trees, &variants, enum_line, out);
    let doc_rows = doc_table_rows(&lexed);
    let readme_rows = readme_table_rows(input.readme_src);

    for (variant, _, line) in &variants {
        let doc = doc_rows.get(variant);
        if doc.is_none() {
            out.push(Finding {
                file: input.event_rs_rel.to_path_buf(),
                line: *line,
                rule: Rule::A3,
                message: format!(
                    "variant `{variant}` has no row in the `EventKind` payload doc table"
                ),
            });
        }
        let Some(name) = names.get(variant) else {
            continue; // missing name() arm already reported
        };
        let Some(readme) = readme_rows.get(name) else {
            out.push(Finding {
                file: input.readme_rel.to_path_buf(),
                line: 1,
                rule: Rule::A3,
                message: format!(
                    "event kind `{name}` (variant `{variant}`) has no row in the README \
                     event-schema table"
                ),
            });
            continue;
        };
        // Cell-level drift between the two copies of the schema.
        if let Some(doc) = doc {
            for (i, (d, r)) in doc.cells.iter().zip(readme.cells.iter()).enumerate() {
                if d != r {
                    out.push(Finding {
                        file: input.readme_rel.to_path_buf(),
                        line: readme.line,
                        rule: Rule::A3,
                        message: format!(
                            "README row for `{name}` drifted from the `EventKind` doc table in \
                             the `{}` column: doc says \"{d}\", README says \"{r}\"",
                            TABLE_HEADER.get(i + 1).unwrap_or(&"?")
                        ),
                    });
                }
            }
            if doc.cells.len() != readme.cells.len() {
                out.push(Finding {
                    file: input.readme_rel.to_path_buf(),
                    line: readme.line,
                    rule: Rule::A3,
                    message: format!(
                        "README row for `{name}` has {} payload cells, doc table has {}",
                        readme.cells.len(),
                        doc.cells.len()
                    ),
                });
            }
        }
    }

    // The other direction: a row that outlived its variant.
    for (key, row) in &doc_rows {
        if !variants.iter().any(|(variant, _, _)| variant == key) {
            out.push(Finding {
                file: input.event_rs_rel.to_path_buf(),
                line: row.line,
                rule: Rule::A3,
                message: format!(
                    "`EventKind` payload doc table has a row for `{key}`, which is not a variant"
                ),
            });
        }
    }
    for (key, row) in &readme_rows {
        if !names.values().any(|name| name == key) {
            out.push(Finding {
                file: input.readme_rel.to_path_buf(),
                line: row.line,
                rule: Rule::A3,
                message: format!(
                    "README event-schema table has a row for `{key}`, which no `EventKind` \
                     variant is exported as"
                ),
            });
        }
    }
}

/// (variant name, explicit discriminant, line) in declaration order.
type Variant = (String, Option<u64>, u32);

/// Finds `enum <name> { … }` and returns its variants plus the enum's line.
fn find_enum_variants(trees: &[Tree], name: &str) -> Option<(Vec<Variant>, u32)> {
    for (i, t) in trees.iter().enumerate() {
        if t.is_ident("enum") && trees.get(i + 1).is_some_and(|n| n.is_ident(name)) {
            let body = trees
                .get(i + 2)
                .and_then(Tree::group)
                .filter(|g| g.delim == '{')?;
            return Some((enum_variants(body), t.line()));
        }
        if let Tree::Group(g) = t {
            if let Some(found) = find_enum_variants(&g.children, name) {
                return Some(found);
            }
        }
    }
    None
}

fn enum_variants(body: &Group) -> Vec<(String, Option<u64>, u32)> {
    let mut out = Vec::new();
    let kids = &body.children;
    let mut i = 0usize;
    while i < kids.len() {
        // Skip attributes.
        if kids[i].is_punct("#") {
            i += 2; // `#` + `[…]` group
            continue;
        }
        if let Some(leaf) = kids[i].leaf().filter(|l| l.kind == TokKind::Ident) {
            let mut disc = None;
            if kids.get(i + 1).is_some_and(|n| n.is_punct("=")) {
                disc = kids
                    .get(i + 2)
                    .and_then(Tree::leaf)
                    .filter(|l| l.kind == TokKind::Num)
                    .and_then(|l| l.text.parse().ok());
            }
            out.push((leaf.text.clone(), disc, leaf.line));
            // Skip to the comma.
            while i < kids.len() && !kids[i].is_punct(",") {
                i += 1;
            }
        }
        i += 1;
    }
    out
}

/// Checks `ALL`: declared length and entry list against the variants.
fn check_all_array(
    input: &SchemaInput<'_>,
    trees: &[Tree],
    variants: &[(String, Option<u64>, u32)],
    out: &mut Vec<Finding>,
) {
    let Some((ty, value, line)) = find_all_const(trees) else {
        out.push(Finding {
            file: input.event_rs_rel.to_path_buf(),
            line: 1,
            rule: Rule::A3,
            message: "no `ALL: [EventKind; N]` decode table found".into(),
        });
        return;
    };
    let declared_len: Option<usize> = ty.children.iter().find_map(|t| {
        t.leaf()
            .filter(|l| l.kind == TokKind::Num)
            .and_then(|l| l.text.parse().ok())
    });
    if declared_len.is_some_and(|n| n != variants.len()) {
        out.push(Finding {
            file: input.event_rs_rel.to_path_buf(),
            line,
            rule: Rule::A3,
            message: format!(
                "`ALL` is declared `[EventKind; {}]` but the enum has {} variants — \
                 `from_u8` will silently drop the tail kinds as corrupt slots",
                declared_len.unwrap_or_default(),
                variants.len()
            ),
        });
    }
    // Entries: idents following `::` inside the value group.
    let mut entries = Vec::new();
    let kids = &value.children;
    for (i, t) in kids.iter().enumerate() {
        if t.is_punct("::") {
            if let Some(l) = kids.get(i + 1).and_then(Tree::leaf) {
                if l.kind == TokKind::Ident {
                    entries.push(l.text.clone());
                }
            }
        }
    }
    let names: Vec<&str> = variants.iter().map(|(n, _, _)| n.as_str()).collect();
    if entries != names {
        for n in &names {
            if !entries.iter().any(|e| e == n) {
                out.push(Finding {
                    file: input.event_rs_rel.to_path_buf(),
                    line,
                    rule: Rule::A3,
                    message: format!(
                        "variant `{n}` is missing from the `ALL` decode table — events of \
                         this kind decode to `None` and are dropped as corrupt"
                    ),
                });
            }
        }
        for e in &entries {
            if !names.contains(&e.as_str()) {
                out.push(Finding {
                    file: input.event_rs_rel.to_path_buf(),
                    line,
                    rule: Rule::A3,
                    message: format!("`ALL` names `{e}`, which is not an `EventKind` variant"),
                });
            }
        }
        if entries
            .iter()
            .collect::<std::collections::BTreeSet<_>>()
            .len()
            == entries.len()
            && names.iter().all(|n| entries.iter().any(|e| e == n))
            && entries.iter().all(|e| names.contains(&e.as_str()))
        {
            out.push(Finding {
                file: input.event_rs_rel.to_path_buf(),
                line,
                rule: Rule::A3,
                message: "`ALL` lists every variant but not in declaration order — \
                          `from_u8` indexes by discriminant, so order is the contract"
                    .into(),
            });
        }
    }
}

/// Finds `ALL : [type] = [value]` anywhere in the forest.
fn find_all_const(trees: &[Tree]) -> Option<(&Group, &Group, u32)> {
    for (i, t) in trees.iter().enumerate() {
        if t.is_ident("ALL") && trees.get(i + 1).is_some_and(|n| n.is_punct(":")) {
            let ty = trees
                .get(i + 2)
                .and_then(Tree::group)
                .filter(|g| g.delim == '[');
            let value = trees
                .get(i + 4)
                .and_then(Tree::group)
                .filter(|g| g.delim == '[');
            if let (Some(ty), Some(value)) = (ty, value) {
                return Some((ty, value, t.line()));
            }
        }
        if let Tree::Group(g) = t {
            if let Some(found) = find_all_const(&g.children) {
                return Some(found);
            }
        }
    }
    None
}

/// Collects `EventKind::X => "name"` arms; reports variants without
/// one. Returns variant -> exporter name.
fn check_name_match(
    input: &SchemaInput<'_>,
    trees: &[Tree],
    variants: &[(String, Option<u64>, u32)],
    enum_line: u32,
    out: &mut Vec<Finding>,
) -> BTreeMap<String, String> {
    let mut names = BTreeMap::new();
    collect_name_arms(trees, &mut names);
    for (variant, _, _) in variants {
        if !names.contains_key(variant) {
            out.push(Finding {
                file: input.event_rs_rel.to_path_buf(),
                line: enum_line,
                rule: Rule::A3,
                message: format!(
                    "variant `{variant}` has no `EventKind::{variant} => \"…\"` arm in \
                     `name()` — exporters cannot label it"
                ),
            });
        }
    }
    let mut seen: BTreeMap<&str, &str> = BTreeMap::new();
    for (variant, name) in &names {
        if let Some(prev) = seen.insert(name.as_str(), variant.as_str()) {
            out.push(Finding {
                file: input.event_rs_rel.to_path_buf(),
                line: enum_line,
                rule: Rule::A3,
                message: format!(
                    "variants `{prev}` and `{variant}` share the exporter name \"{name}\""
                ),
            });
        }
    }
    names
}

fn collect_name_arms(trees: &[Tree], out: &mut BTreeMap<String, String>) {
    for (i, t) in trees.iter().enumerate() {
        if let Tree::Group(g) = t {
            collect_name_arms(&g.children, out);
            continue;
        }
        if t.is_ident("EventKind")
            && trees.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && trees.get(i + 3).is_some_and(|n| n.is_punct("=>"))
        {
            let variant = trees.get(i + 2).and_then(Tree::leaf);
            let name = trees
                .get(i + 4)
                .and_then(Tree::leaf)
                .filter(|l| l.kind == TokKind::Str);
            if let (Some(v), Some(n)) = (variant, name) {
                out.insert(v.text.clone(), n.text.clone());
            }
        }
    }
}

/// Payload rows from the enum's doc comments (the `///` table).
fn doc_table_rows(lexed: &LexOut) -> BTreeMap<String, Row> {
    let text: Vec<(u32, String)> = lexed
        .comments
        .iter()
        .map(|(l, t)| (*l, t.trim_start_matches('/').trim().to_string()))
        .collect();
    rows_after_header(text.iter().map(|(l, t)| (*l, t.as_str())))
}

/// Payload rows from the README's event table.
fn readme_table_rows(src: &str) -> BTreeMap<String, Row> {
    rows_after_header(
        src.lines()
            .enumerate()
            .map(|(i, l)| (u32::try_from(i).unwrap_or(u32::MAX).saturating_add(1), l)),
    )
}

/// Scans lines for the `| kind | code | a | b | c |` header, then
/// collects subsequent backtick-keyed rows until the table ends.
fn rows_after_header<'a>(lines: impl Iterator<Item = (u32, &'a str)>) -> BTreeMap<String, Row> {
    let mut out = BTreeMap::new();
    let mut in_table = false;
    for (lineno, line) in lines {
        let trimmed = line.trim();
        if !in_table {
            let cells = split_row(trimmed);
            if cells.len() == TABLE_HEADER.len()
                && cells.iter().zip(TABLE_HEADER).all(|(c, h)| c == h)
            {
                in_table = true;
            }
            continue;
        }
        if !trimmed.starts_with('|') {
            in_table = false;
            continue;
        }
        let cells = split_row(trimmed);
        let Some(first) = cells.first() else {
            continue;
        };
        // Skip the |---|---| separator row.
        if first.chars().all(|c| c == '-' || c == ' ') {
            continue;
        }
        let key = first.trim_matches('`').to_string();
        out.entry(key).or_insert(Row {
            cells: cells[1..].to_vec(),
            line: lineno,
        });
    }
    out
}

/// Splits a markdown row on unescaped `|`, normalizing each cell
/// (trim, collapse inner whitespace, unescape `\|`).
fn split_row(line: &str) -> Vec<String> {
    let mut cells = Vec::new();
    let mut cur = String::new();
    let mut chars = line.trim().trim_start_matches('|').chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '\\' if chars.peek() == Some(&'|') => {
                cur.push('|');
                chars.next();
            }
            '|' => {
                cells.push(normalize(&cur));
                cur.clear();
            }
            _ => cur.push(c),
        }
    }
    if !cur.trim().is_empty() {
        cells.push(normalize(&cur));
    }
    cells
}

fn normalize(s: &str) -> String {
    s.split_whitespace().collect::<Vec<_>>().join(" ")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const GOOD: &str = r#"
/// | kind | code | a | b | c |
/// |---|---|---|---|---|
/// | `Alpha` | 0 | x | y | z |
/// | `Beta` | 1 | p \| q | r | s |
pub enum EventKind {
    Alpha = 0,
    Beta = 1,
}
impl EventKind {
    pub const ALL: [EventKind; 2] = [EventKind::Alpha, EventKind::Beta];
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Alpha => "alpha",
            EventKind::Beta => "beta",
        }
    }
}
"#;

    const GOOD_README: &str = "\
| kind | code | a | b | c |
|---|---|---|---|---|
| `alpha` | 0 | x | y | z |
| `beta` | 1 | p \\| q | r | s |
";

    fn run(event_rs: &str, readme: &str) -> Vec<String> {
        let mut stats = Stats::default();
        let mut out = Vec::new();
        check(
            &SchemaInput {
                event_rs_rel: &PathBuf::from("src/event.rs"),
                event_rs_src: event_rs,
                readme_rel: &PathBuf::from("README.md"),
                readme_src: readme,
            },
            &mut stats,
            &mut out,
        );
        out.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn consistent_schema_passes() {
        let v = run(GOOD, GOOD_README);
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn missing_all_entry_flagged() {
        let bad = GOOD
            .replace(", EventKind::Beta", "")
            .replace("[EventKind; 2]", "[EventKind; 1]");
        let v = run(&bad, GOOD_README);
        assert!(
            v.iter()
                .any(|f| f.contains("missing from the `ALL`") && f.contains("Beta")),
            "{v:?}"
        );
    }

    #[test]
    fn declared_length_mismatch_flagged() {
        let bad = GOOD.replace("[EventKind; 2]", "[EventKind; 3]");
        let v = run(&bad, GOOD_README);
        assert!(
            v.iter().any(|f| f.contains("declared `[EventKind; 3]`")),
            "{v:?}"
        );
    }

    #[test]
    fn missing_name_arm_flagged() {
        let bad = GOOD.replace("EventKind::Beta => \"beta\",", "");
        let v = run(&bad, GOOD_README);
        assert!(v.iter().any(|f| f.contains("no `EventKind::Beta")), "{v:?}");
    }

    #[test]
    fn missing_doc_and_readme_rows_flagged() {
        let no_doc_row = GOOD.replace("/// | `Beta` | 1 | p \\| q | r | s |\n", "");
        let v = run(&no_doc_row, GOOD_README);
        assert!(
            v.iter()
                .any(|f| f.contains("no row in the `EventKind` payload doc table")),
            "{v:?}"
        );
        let no_readme_row = GOOD_README.replace("| `beta` | 1 | p \\| q | r | s |\n", "");
        let v = run(GOOD, &no_readme_row);
        assert!(
            v.iter().any(|f| f.contains("no row in the README")),
            "{v:?}"
        );
    }

    #[test]
    fn stale_doc_and_readme_rows_flagged() {
        let stale_doc = GOOD.replace(
            "pub enum EventKind {",
            "/// | `Gone` | 2 | x | y | z |\npub enum EventKind {",
        );
        let v = run(&stale_doc, GOOD_README);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("row for `Gone`, which is not a variant"));
        let stale_readme = format!("{GOOD_README}| `gone` | 2 | x | y | z |\n");
        let v = run(GOOD, &stale_readme);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("README.md:5") && v[0].contains("row for `gone`"));
    }

    #[test]
    fn cell_drift_flagged_with_column_name() {
        let drifted = GOOD_README.replace(
            "| `beta` | 1 | p \\| q | r | s |",
            "| `beta` | 1 | p \\| q | r | DRIFT |",
        );
        let v = run(GOOD, &drifted);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("drifted") && v[0].contains("`c` column") && v[0].contains("DRIFT"));
    }

    #[test]
    fn out_of_order_all_flagged() {
        let bad = GOOD.replace(
            "[EventKind::Alpha, EventKind::Beta]",
            "[EventKind::Beta, EventKind::Alpha]",
        );
        let v = run(&bad, GOOD_README);
        assert!(
            v.iter().any(|f| f.contains("not in declaration order")),
            "{v:?}"
        );
    }
}
