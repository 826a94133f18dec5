//! Workspace automation.
//!
//! * `cargo xtask analyze [--json [FILE]]` — full static analysis
//!   (transaction purity A1, feature-gate integrity A2, trace-schema
//!   consistency A3, plus the R1–R5 hygiene rules). Exits non-zero on
//!   any finding. `--json` writes the machine-readable report
//!   (`rubic-analyze/v1`) to FILE, or stdout when FILE is omitted.

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("analyze") => analyze(&mut args),
        other => {
            eprintln!(
                "usage: cargo xtask <command>\n\ncommands:\n  analyze  full static analysis \
                 (txn purity, feature gates, trace schema, hygiene rules)\n           \
                 options: --json [FILE] machine-readable report"
            );
            if let Some(o) = other {
                eprintln!("\nunknown command: {o}");
            }
            std::process::exit(2);
        }
    }
}

/// `cargo xtask analyze`: run every pass, report, and gate.
fn analyze(args: &mut impl Iterator<Item = String>) {
    let mut json_to: Option<Option<String>> = None;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json_to = Some(args.next()),
            other => {
                eprintln!("xtask analyze: unknown option `{other}`");
                std::process::exit(2);
            }
        }
    }

    let root = workspace_root();
    let rep = rubic_analyze::analyze(&root);

    if let Some(dest) = json_to {
        let json = rep.to_json();
        match dest {
            Some(path) => {
                if let Err(e) = std::fs::write(&path, &json) {
                    eprintln!("xtask analyze: cannot write {path}: {e}");
                    std::process::exit(2);
                }
                eprintln!("xtask analyze: JSON report written to {path}");
            }
            None => print!("{json}"),
        }
    }

    for f in &rep.findings {
        eprintln!("{f}");
    }
    let s = &rep.stats;
    if rep.findings.is_empty() {
        println!(
            "xtask analyze: OK ({} files; {} txn contexts, {} cfg sites, {} event kinds, \
             {} ordering sites, {} unsafe sites checked; {} escapes honoured)",
            s.files,
            s.txn_contexts,
            s.cfg_sites,
            s.event_kinds,
            s.ordering_sites,
            s.unsafe_sites,
            s.escapes
        );
    } else {
        eprintln!("xtask analyze: {} finding(s)", rep.findings.len());
        std::process::exit(1);
    }
}

/// The manifest dir of this crate is `<root>/xtask`.
fn workspace_root() -> std::path::PathBuf {
    let manifest = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest
        .parent()
        .expect("xtask lives one level below the workspace root")
        .to_path_buf()
}
