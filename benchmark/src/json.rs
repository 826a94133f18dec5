//! A JSON value and writer — the result line, `BENCHMARK.json` and the
//! trace files are all written through it, so their escaping and number
//! formatting cannot drift apart.

use std::fmt::Write as _;

/// A JSON value. Objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Printed with every digit Rust's shortest round-trip formatting
    /// gives; non-finite values have no JSON spelling and print as `null`.
    Num(f64),
    /// Counts, printed without a fraction or exponent.
    Int(u64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Compact single-line rendering.
    #[must_use]
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented rendering (two spaces per level) with a trailing newline.
    #[must_use]
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if n.is_finite() => {
                let _ = write!(out, "{n}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(n) => {
                let _ = write!(out, "{n}");
            }
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                let inner = nested_indent(indent, items.iter());
                out.push('[');
                for (n, item) in items.iter().enumerate() {
                    separator(out, n, indent, inner, depth + 1);
                    item.write(out, inner, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, inner, depth);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                let inner = nested_indent(indent, pairs.iter().map(|(_, v)| v));
                out.push('{');
                for (n, (key, value)) in pairs.iter().enumerate() {
                    separator(out, n, indent, inner, depth + 1);
                    write_str(out, key);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    value.write(out, inner, depth + 1);
                }
                if !pairs.is_empty() {
                    newline(out, inner, depth);
                }
                out.push('}');
            }
        }
    }
}

/// Containers of scalars stay on one line even when indenting: a command
/// line, a span or a metric definition reads better that way.
fn nested_indent<'a>(
    indent: Option<usize>,
    mut children: impl Iterator<Item = &'a Json>,
) -> Option<usize> {
    if children.any(|c| matches!(c, Json::Arr(_) | Json::Obj(_))) {
        indent
    } else {
        None
    }
}

/// Writes what goes before element `n`: the comma, then either a line
/// break (indenting) or, inside a flattened container of an indented
/// document, a space.
fn separator(
    out: &mut String,
    n: usize,
    indent: Option<usize>,
    inner: Option<usize>,
    depth: usize,
) {
    if n > 0 {
        out.push(',');
        if indent.is_some() && inner.is_none() {
            out.push(' ');
        }
    }
    newline(out, inner, depth);
}

fn newline(out: &mut String, indent: Option<usize>, depth: usize) {
    if let Some(width) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', width * depth));
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compact_rendering_of_every_variant() {
        let v = Json::obj([
            ("n", Json::Null),
            ("b", Json::Bool(true)),
            ("x", Json::Num(1.25)),
            ("i", Json::Int(7)),
            ("s", Json::str("a\"b\\c\n\u{1}")),
            ("a", Json::Arr(vec![Json::Int(1), Json::Int(2)])),
            ("e", Json::Arr(vec![])),
            ("o", Json::obj::<&str>([])),
        ]);
        assert_eq!(
            v.compact(),
            r#"{"n":null,"b":true,"x":1.25,"i":7,"s":"a\"b\\c\n\u0001","a":[1,2],"e":[],"o":{}}"#
        );
    }

    #[test]
    fn numbers_keep_all_digits_and_non_finite_is_null() {
        assert_eq!(Json::Num(0.1 + 0.2).compact(), "0.30000000000000004");
        assert_eq!(Json::Num(2_000_000.0).compact(), "2000000");
        assert_eq!(Json::Num(f64::NAN).compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).compact(), "null");
    }

    #[test]
    fn pretty_indents_nested_containers_and_keeps_scalar_ones_flat() {
        let v = Json::obj([
            ("cmd", Json::Arr(vec![Json::str("a"), Json::str("b")])),
            (
                "list",
                Json::Arr(vec![Json::obj([
                    ("k", Json::Int(1)),
                    ("u", Json::str("s")),
                ])]),
            ),
        ]);
        assert_eq!(
            v.pretty(),
            "{\n  \"cmd\": [\"a\", \"b\"],\n  \"list\": [\n    {\"k\": 1, \"u\": \"s\"}\n  ]\n}\n"
        );
    }
}
