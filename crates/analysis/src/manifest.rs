//! Minimal `Cargo.toml` reader — just enough TOML to answer one
//! question: which feature names may a `cfg(feature = "…")` in this
//! package legally test? That is the `[features]` keys plus the
//! implicit features Cargo derives from optional dependencies.

use std::collections::BTreeSet;
use std::path::Path;

/// The feature-relevant slice of one package manifest.
#[derive(Debug, Default)]
pub struct Manifest {
    /// `package.name`, if present (workspace-root virtual tables lack it).
    pub name: Option<String>,
    /// Keys of `[features]` plus optional-dependency implicit features.
    pub features: BTreeSet<String>,
}

/// Parses the manifest at `path`. Line-oriented: section headers,
/// `key = value` pairs, and inline-table `optional = true` detection —
/// the subset this workspace's manifests actually use.
#[must_use]
pub fn read(path: &Path) -> Manifest {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Manifest::default();
    };
    parse(&text)
}

/// Section-aware line scan of manifest `text`.
#[must_use]
pub fn parse(text: &str) -> Manifest {
    let mut m = Manifest::default();
    let mut section = String::new();
    for raw in text.lines() {
        let line = strip_toml_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') && line.ends_with(']') {
            section = line.trim_matches(['[', ']']).to_string();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            continue;
        };
        let key = key.trim().trim_matches('"').to_string();
        let value = value.trim();
        if section == "package" && key == "name" {
            m.name = Some(value.trim_matches('"').to_string());
        } else if section == "features" {
            m.features.insert(key);
        } else if section.ends_with("dependencies") && value.contains("optional") {
            // `dep = { …, optional = true }`: the dependency name is an
            // implicit feature (Cargo 2021 resolver without `dep:` use).
            if value.contains("optional = true") || value.contains("optional=true") {
                m.features.insert(key);
            }
        }
    }
    m
}

/// Drops a `#` comment — unless the `#` is inside a quoted string.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn features_and_optional_deps() {
        let m = parse(
            r#"
[package]
name = "demo"

[dependencies]
serde = { workspace = true, optional = true }
rand = { workspace = true }

[features]
trace = ["dep:serde"]
extra = []

[dev-dependencies]
helper = { path = "x", optional = true }
"#,
        );
        assert_eq!(m.name.as_deref(), Some("demo"));
        let want: BTreeSet<String> = ["trace", "extra", "serde", "helper"]
            .into_iter()
            .map(String::from)
            .collect();
        assert_eq!(m.features, want);
    }

    #[test]
    fn comments_and_hash_in_strings() {
        let m = parse("[features]\ntrace = [] # enables tracing\n# extra = []\n");
        assert!(m.features.contains("trace"));
        assert!(!m.features.contains("extra"));
        assert_eq!(strip_toml_comment(r#"x = "a#b""#), r#"x = "a#b""#);
    }
}
