//! vxlint — the workspace's own lint pass. Pure `std`, token/line-level; no
//! crates.io dependencies, so it runs anywhere the toolchain does.
//!
//! Rules (all CI-fatal — the `vxlint` CI job runs this binary and fails on
//! any diagnostic):
//!
//! * **sync-seam** — no `std::sync::{Mutex, RwLock, Condvar, atomic}` and no
//!   `parking_lot::` references in any `.rs` file under `crates/` outside
//!   the seam (`crates/common/src/sync/`) and the shims (`crates/shims/`).
//!   Every lock, condvar, atomic, and fence must come from
//!   `vertexica_common::sync`, the single instrumentation point the model
//!   checker relies on. Brace imports (`use std::sync::{Mutex, ...}`) are
//!   caught too; `Arc`, `Weak`, `OnceLock`, and `mpsc` are out of scope.
//! * **no-unwrap-recovery** — no `.unwrap()` / `.expect(` in non-test code
//!   of the recovery-critical files (`storage/src/wal.rs`, `persist.rs`,
//!   `catalog.rs`, `buffer_pool.rs`, whose segment reload parses spill
//!   bytes from disk, `core/src/shard.rs`, which reads the superstep
//!   stamp a resume or a repair starts from, `core/src/apply.rs`, which
//!   builds every superstep commit, and `sql/src/parser.rs`, `physical.rs`
//!   and `expr.rs`, which take hostile SQL text and any table's rows).
//!   Crash recovery, reload, resume and query execution must degrade to
//!   typed errors, never panic on bad input. `self.expect(` is not flagged:
//!   it is the parser's own token check, not `Option::expect`.
//!   `#[cfg(test)]` regions are exempt (tracked by brace depth).
//! * **env-var-docs** — two-way: every `VERTEXICA_*` environment variable
//!   referenced anywhere under `crates/` must be documented in both the
//!   README configuration table and `docs/ARCHITECTURE.md`; and every
//!   `VERTEXICA_*` name those two documents or `.github/workflows/ci.yml`
//!   mention must still be read by some crate — a CI job that sets a deleted
//!   variable silently tests the default under a misleading name.
//! * **exp-ci-smoke** — every `--exp` ablation mode the bench binary
//!   dispatches on must have a smoke invocation (`--exp <mode>`) in
//!   `.github/workflows/ci.yml`, so no experiment can silently rot.
//! * **config-docs** — two-way: every `pub` field of `VertexicaConfig`
//!   (`crates/core/src/config.rs`) must have a row in the first table under
//!   the README's `## Configuration` heading, and every row there must name
//!   a live field.
//!
//! Line-level suppression (first two rules only), reason mandatory:
//!
//! ```text
//! // vxlint: allow(<rule>) -- <why this occurrence is sound>
//! ```
//!
//! on the offending line or the line directly above it. An `allow` without
//! a ` -- reason` is itself a diagnostic.
//!
//! Usage: `cargo run -p vxlint [-- --root <repo-root>]`. Exits 1 on any
//! diagnostic. Known limits (accepted for a zero-dependency linter): matching
//! is per line, so a multi-line `use` statement or a brace inside a string
//! literal can confuse region tracking; neither occurs in this workspace.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

const RULE_SYNC_SEAM: &str = "sync-seam";
const RULE_NO_UNWRAP: &str = "no-unwrap-recovery";
const RULE_ENV_DOCS: &str = "env-var-docs";
const RULE_EXP_SMOKE: &str = "exp-ci-smoke";
const RULE_CONFIG_DOCS: &str = "config-docs";

/// Paths (relative, `/`-separated) whose files the sync-seam rule skips.
const SEAM_ALLOWED: &[&str] = &["crates/shims/", "crates/common/src/sync/"];

/// The recovery-critical files for no-unwrap-recovery.
const RECOVERY_FILES: &[&str] = &[
    "crates/storage/src/wal.rs",
    "crates/storage/src/persist.rs",
    "crates/storage/src/catalog.rs",
    "crates/storage/src/buffer_pool.rs",
    "crates/core/src/shard.rs",
    "crates/core/src/apply.rs",
    "crates/core/src/projection.rs",
    "crates/sql/src/parser.rs",
    "crates/sql/src/physical.rs",
    "crates/sql/src/expr.rs",
];

/// `std::sync::` items that must come from the seam instead.
const SEALED_STD_SYNC: &[&str] = &["Mutex", "RwLock", "Condvar", "atomic"];

#[derive(Debug, PartialEq, Eq)]
struct Diagnostic {
    rule: &'static str,
    file: String,
    line: usize,
    message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.line > 0 {
            write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule, self.message)
        } else {
            write!(f, "{}: [{}] {}", self.file, self.rule, self.message)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let root = args
        .iter()
        .position(|a| a == "--root")
        .and_then(|i| args.get(i + 1))
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));

    let mut diags = Vec::new();
    let mut checked = 0usize;
    diags.extend(check_sync_seam(&root, &mut checked));
    diags.extend(check_no_unwrap_recovery(&root));
    diags.extend(check_env_var_docs(&root));
    diags.extend(check_exp_ci_smoke(&root));
    diags.extend(check_config_docs(&root));

    for d in &diags {
        println!("{d}");
    }
    if diags.is_empty() {
        println!("vxlint: {checked} source files checked, 0 diagnostics");
        ExitCode::SUCCESS
    } else {
        println!("vxlint: {} diagnostic(s)", diags.len());
        ExitCode::FAILURE
    }
}

/// Recursively collects `.rs` files under `dir`, skipping build output and
/// VCS internals.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            rs_files(&path, out);
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    out.sort();
}

/// The repo-relative, `/`-separated form of `path` used in diagnostics and
/// allow-list matching.
fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root).unwrap_or(path).to_string_lossy().replace('\\', "/")
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

/// Whether line `idx` (0-based) carries a well-formed suppression for `rule`
/// on itself or on the line directly above.
fn is_suppressed(lines: &[&str], idx: usize, rule: &str) -> bool {
    let hit = |line: &str| {
        parse_allow(line).is_some_and(|(r, reason)| r == rule && !reason.trim().is_empty())
    };
    hit(lines[idx]) || (idx > 0 && hit(lines[idx - 1]))
}

/// Parses `// vxlint: allow(<rule>) -- <reason>` out of a line, returning
/// the rule name and the (possibly empty) reason.
fn parse_allow(line: &str) -> Option<(&str, &str)> {
    let start = line.find("vxlint: allow(")?;
    let rest = &line[start + "vxlint: allow(".len()..];
    let close = rest.find(')')?;
    let rule = &rest[..close];
    let reason = rest[close + 1..].trim_start().strip_prefix("--").unwrap_or("").trim();
    Some((rule, reason))
}

/// Diagnostics for malformed suppressions: an `allow` missing its mandatory
/// ` -- reason` justification.
fn check_allow_syntax(file: &str, lines: &[&str]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if let Some((rule, reason)) = parse_allow(line) {
            if reason.trim().is_empty() {
                diags.push(Diagnostic {
                    rule: RULE_NO_UNWRAP,
                    file: file.to_string(),
                    line: i + 1,
                    message: format!(
                        "suppression for `{rule}` is missing its justification \
                         (`// vxlint: allow({rule}) -- <reason>`)"
                    ),
                });
            }
        }
    }
    diags
}

// ---------------------------------------------------------------------------
// #[cfg(test)] region tracking
// ---------------------------------------------------------------------------

/// A per-line mask: `true` where the line is inside a `#[cfg(test)]`- or
/// `#[cfg(all(test, ...))]`-gated item, tracked by brace depth from the
/// item's opening brace.
fn test_region_mask(lines: &[&str]) -> Vec<bool> {
    let mut mask = vec![false; lines.len()];
    let mut pending = false; // saw the attribute, waiting for the opening brace
    let mut depth = 0usize; // brace depth inside the gated item (0 = outside)
    for (i, line) in lines.iter().enumerate() {
        let trimmed = line.trim_start();
        if depth == 0 && !pending {
            if trimmed.starts_with("#[cfg(test)]") || trimmed.starts_with("#[cfg(all(test") {
                pending = true;
                mask[i] = true;
            }
            continue;
        }
        mask[i] = true;
        let opens = line.matches('{').count();
        let closes = line.matches('}').count();
        if pending && opens > 0 {
            pending = false;
        }
        depth += opens;
        depth = depth.saturating_sub(closes);
        if !pending && depth == 0 {
            // Item closed on this line; subsequent lines are live again.
        }
    }
    mask
}

// ---------------------------------------------------------------------------
// Rule: sync-seam
// ---------------------------------------------------------------------------

/// Whether `line` references a sealed `std::sync` item or `parking_lot`.
/// Catches both path references (`std::sync::Mutex`, `std::sync::atomic::…`)
/// and brace imports (`use std::sync::{Mutex, Arc}`).
fn sync_seam_hit(line: &str) -> Option<String> {
    if line.contains("parking_lot::") {
        return Some("`parking_lot::` reference".into());
    }
    let mut rest = line;
    while let Some(pos) = rest.find("std::sync::") {
        let after = &rest[pos + "std::sync::".len()..];
        for item in SEALED_STD_SYNC {
            if after.starts_with(item) {
                return Some(format!("`std::sync::{item}` reference"));
            }
        }
        if let Some(brace) = after.strip_prefix('{') {
            let list = brace.split('}').next().unwrap_or(brace);
            for part in list.split(',') {
                let tok = part.trim().split("::").next().unwrap_or("").trim();
                if SEALED_STD_SYNC.contains(&tok) {
                    return Some(format!("`std::sync::{{… {tok} …}}` import"));
                }
            }
        }
        rest = after;
    }
    None
}

fn check_sync_seam(root: &Path, checked: &mut usize) -> Vec<Diagnostic> {
    // Only `crates/` is product code; the linter's own source (pattern
    // fixtures, this doc text) would be full of false positives.
    let mut files = Vec::new();
    rs_files(&root.join("crates"), &mut files);
    let mut diags = Vec::new();
    for path in files {
        let file = rel(root, &path);
        if SEAM_ALLOWED.iter().any(|p| file.starts_with(p)) {
            continue;
        }
        let Ok(src) = fs::read_to_string(&path) else { continue };
        *checked += 1;
        let lines: Vec<&str> = src.lines().collect();
        diags.extend(check_allow_syntax(&file, &lines));
        for (i, line) in lines.iter().enumerate() {
            if let Some(what) = sync_seam_hit(line) {
                if !is_suppressed(&lines, i, RULE_SYNC_SEAM) {
                    diags.push(Diagnostic {
                        rule: RULE_SYNC_SEAM,
                        file: file.clone(),
                        line: i + 1,
                        message: format!("{what}; use `vertexica_common::sync` instead"),
                    });
                }
            }
        }
    }
    diags
}

// ---------------------------------------------------------------------------
// Rule: no-unwrap-recovery
// ---------------------------------------------------------------------------

fn check_no_unwrap_recovery(root: &Path) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for file in RECOVERY_FILES {
        let Ok(src) = fs::read_to_string(root.join(file)) else {
            diags.push(Diagnostic {
                rule: RULE_NO_UNWRAP,
                file: (*file).to_string(),
                line: 0,
                message: "recovery-critical file missing (update RECOVERY_FILES?)".into(),
            });
            continue;
        };
        let lines: Vec<&str> = src.lines().collect();
        let in_test = test_region_mask(&lines);
        for (i, line) in lines.iter().enumerate() {
            if in_test[i] {
                continue;
            }
            let Some(what) = unwrap_hit(line) else { continue };
            if !is_suppressed(&lines, i, RULE_NO_UNWRAP) {
                diags.push(Diagnostic {
                    rule: RULE_NO_UNWRAP,
                    file: (*file).to_string(),
                    line: i + 1,
                    message: format!(
                        "{what} on a recovery-critical path; return a typed error \
                         (or justify with a vxlint allow comment)"
                    ),
                });
            }
        }
    }
    diags
}

/// What `line` calls that the rule flags: `.unwrap()`, or `.expect(` on any
/// receiver but a bare `self` — `self.expect(` is a method of the file's own
/// type (the SQL parser's token check, which returns a `SqlResult`), not
/// `Option::expect` / `Result::expect`.
fn unwrap_hit(line: &str) -> Option<&'static str> {
    if line.contains(".unwrap()") {
        return Some(".unwrap()");
    }
    let on_self = |before: &str| {
        let rest = before.trim_end_matches(|c: char| c.is_alphanumeric() || c == '_');
        &before[rest.len()..] == "self"
    };
    line.match_indices(".expect(").any(|(at, _)| !on_self(&line[..at])).then_some(".expect(…)")
}

// ---------------------------------------------------------------------------
// Rule: env-var-docs
// ---------------------------------------------------------------------------

/// Extracts every `VERTEXICA_[A-Z0-9_]+` token from `src`.
fn scan_env_vars(src: &str, out: &mut BTreeSet<String>) {
    let mut rest = src;
    while let Some(pos) = rest.find("VERTEXICA_") {
        let tail = &rest[pos..];
        let len = tail
            .char_indices()
            .find(|(_, c)| !(c.is_ascii_uppercase() || c.is_ascii_digit() || *c == '_'))
            .map(|(i, _)| i)
            .unwrap_or(tail.len());
        // A bare "VERTEXICA_" prefix (e.g. in prose) is not a variable.
        if len > "VERTEXICA_".len() {
            out.insert(tail[..len].trim_end_matches('_').to_string());
        }
        rest = &tail[len.max(1)..];
    }
}

fn check_env_var_docs(root: &Path) -> Vec<Diagnostic> {
    let mut files = Vec::new();
    rs_files(&root.join("crates"), &mut files);
    let mut vars = BTreeSet::new();
    for path in &files {
        if let Ok(src) = fs::read_to_string(path) {
            scan_env_vars(&src, &mut vars);
        }
    }
    let docs = ENV_VAR_DOCS.map(|(doc, documents_all)| {
        (doc, documents_all, fs::read_to_string(root.join(doc)).unwrap_or_default())
    });
    env_var_diagnostics(&vars, &docs)
}

/// The documents env-var-docs reads, and whether each must document every
/// variable the crates read (CI only has to name live ones).
const ENV_VAR_DOCS: [(&str, bool); 3] =
    [("README.md", true), ("docs/ARCHITECTURE.md", true), (".github/workflows/ci.yml", false)];

/// The env-var-docs findings for the variables the crates read (`vars`)
/// against `(path, documents_all, content)` documents: one flagged
/// `documents_all` must name every variable, and none may name a variable no
/// crate reads.
fn env_var_diagnostics(vars: &BTreeSet<String>, docs: &[(&str, bool, String)]) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    for (doc, documents_all, content) in docs {
        if *documents_all {
            for var in vars.iter().filter(|var| !content.contains(var.as_str())) {
                diags.push(Diagnostic {
                    rule: RULE_ENV_DOCS,
                    file: doc.to_string(),
                    line: 0,
                    message: format!("`{var}` is read by the code but undocumented in {doc}"),
                });
            }
        }
        let mut named = BTreeSet::new();
        scan_env_vars(content, &mut named);
        for var in named.difference(vars) {
            diags.push(Diagnostic {
                rule: RULE_ENV_DOCS,
                file: doc.to_string(),
                line: 0,
                message: format!("`{var}` is named in {doc} but no crate reads it"),
            });
        }
    }
    diags
}

// ---------------------------------------------------------------------------
// Rule: exp-ci-smoke
// ---------------------------------------------------------------------------

/// Extracts the ablation mode names the bench binary dispatches on
/// (`exp == "<mode>"` comparisons), excluding the `all` meta-mode.
fn scan_exp_modes(src: &str) -> BTreeSet<String> {
    let mut modes = BTreeSet::new();
    let mut rest = src;
    while let Some(pos) = rest.find("exp == \"") {
        let tail = &rest[pos + "exp == \"".len()..];
        if let Some(end) = tail.find('"') {
            let mode = &tail[..end];
            if mode != "all" && !mode.is_empty() {
                modes.insert(mode.to_string());
            }
            rest = &tail[end..];
        } else {
            break;
        }
    }
    modes
}

fn check_exp_ci_smoke(root: &Path) -> Vec<Diagnostic> {
    let bench = root.join("crates/bench/src/bin/ablation.rs");
    let Ok(src) = fs::read_to_string(&bench) else { return Vec::new() };
    let ci = fs::read_to_string(root.join(".github/workflows/ci.yml")).unwrap_or_default();
    let mut diags = Vec::new();
    for mode in scan_exp_modes(&src) {
        if !ci.contains(&format!("--exp {mode}")) {
            diags.push(Diagnostic {
                rule: RULE_EXP_SMOKE,
                file: ".github/workflows/ci.yml".to_string(),
                line: 0,
                message: format!(
                    "ablation mode `--exp {mode}` has no CI smoke invocation; \
                     add a job step running it at a tiny scale"
                ),
            });
        }
    }
    diags
}

// ---------------------------------------------------------------------------
// Rule: config-docs
// ---------------------------------------------------------------------------

/// The `pub` field names of `struct VertexicaConfig` in `src`.
fn scan_config_fields(src: &str) -> BTreeSet<String> {
    let body = src.split("pub struct VertexicaConfig {").nth(1).unwrap_or("");
    let body = body.split("\n}").next().unwrap_or("");
    body.lines()
        .filter_map(|line| line.trim().strip_prefix("pub ")?.split_once(':'))
        .map(|(name, _)| name.trim().to_string())
        .collect()
}

/// The knob each row of the first table under the README's
/// `## Configuration` heading names: the row's first backquoted word.
fn scan_config_rows(readme: &str) -> BTreeSet<String> {
    let section = readme.split("\n## Configuration\n").nth(1).unwrap_or("");
    section
        .lines()
        .skip_while(|line| !line.starts_with('|'))
        .take_while(|line| line.starts_with('|'))
        .filter_map(|line| line.strip_prefix("| `")?.split('`').next())
        .map(str::to_string)
        .collect()
}

fn check_config_docs(root: &Path) -> Vec<Diagnostic> {
    let read = |file: &str| fs::read_to_string(root.join(file)).unwrap_or_default();
    let fields = scan_config_fields(&read("crates/core/src/config.rs"));
    config_docs_diagnostics(&fields, &scan_config_rows(&read("README.md")))
}

/// The config-docs findings: a field without a README row, and a row naming
/// no field.
fn config_docs_diagnostics(fields: &BTreeSet<String>, rows: &BTreeSet<String>) -> Vec<Diagnostic> {
    let diag = |message: String| Diagnostic {
        rule: RULE_CONFIG_DOCS,
        file: "README.md".to_string(),
        line: 0,
        message,
    };
    let undocumented = fields.difference(rows).map(|f| {
        diag(format!("`VertexicaConfig::{f}` has no row in the README's configuration table"))
    });
    let stale = rows.difference(fields).map(|r| {
        diag(format!("the README's configuration table names `{r}`, which is no config field"))
    });
    undocumented.chain(stale).collect()
}

// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sync_seam_matcher_hits_paths_and_brace_imports() {
        assert!(sync_seam_hit("let m = std::sync::Mutex::new(0);").is_some());
        assert!(sync_seam_hit("use std::sync::RwLock;").is_some());
        assert!(sync_seam_hit("use std::sync::Condvar;").is_some());
        assert!(sync_seam_hit("use std::sync::atomic::{AtomicU64, Ordering};").is_some());
        assert!(sync_seam_hit("use parking_lot::Mutex;").is_some());
        assert!(sync_seam_hit("use std::sync::{Arc, Mutex};").is_some());
        assert!(sync_seam_hit("use std::sync::{Arc, atomic::AtomicU64};").is_some());
        // Out-of-scope std::sync items stay allowed.
        assert!(sync_seam_hit("use std::sync::{Arc, Weak};").is_none());
        assert!(sync_seam_hit("use std::sync::Arc;").is_none());
        assert!(sync_seam_hit("use std::sync::OnceLock;").is_none());
        assert!(sync_seam_hit("use std::sync::mpsc;").is_none());
        assert!(sync_seam_hit("let x = 1; // prose about parking lots").is_none());
    }

    #[test]
    fn suppression_requires_rule_match_and_reason() {
        let lines = vec![
            "// vxlint: allow(sync-seam) -- shim-internal fallback",
            "use parking_lot::Mutex;",
            "use parking_lot::RwLock; // vxlint: allow(sync-seam) -- same line works",
            "// vxlint: allow(sync-seam)",
            "use parking_lot::Condvar;",
            "// vxlint: allow(no-unwrap-recovery) -- wrong rule",
            "use parking_lot::Once;",
        ];
        assert!(is_suppressed(&lines, 1, RULE_SYNC_SEAM));
        assert!(is_suppressed(&lines, 2, RULE_SYNC_SEAM));
        // Missing reason: not a valid suppression…
        assert!(!is_suppressed(&lines, 4, RULE_SYNC_SEAM));
        // …and it is reported as malformed.
        let diags = check_allow_syntax("f.rs", &lines);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 4);
        // A suppression for a different rule does not apply.
        assert!(!is_suppressed(&lines, 6, RULE_SYNC_SEAM));
    }

    #[test]
    fn test_region_mask_tracks_braces() {
        let src = vec![
            "fn live() {",                         // 0: live
            "    x.unwrap();",                     // 1: live
            "}",                                   // 2
            "#[cfg(test)]",                        // 3: test region starts
            "mod tests {",                         // 4
            "    fn t() { x.unwrap(); }",          // 5: inside
            "    struct S { a: u32 }",             // 6: inside (nested braces)
            "}",                                   // 7: region ends here
            "fn live_again() { y.expect(\"\"); }", // 8: live
            "#[cfg(all(test, vertexica_model))]",  // 9: also a test region
            "mod model_tests {}",                  // 10
            "fn tail() {}",                        // 11: live
        ];
        let mask = test_region_mask(&src);
        assert!(!mask[0] && !mask[1] && !mask[2]);
        assert!(mask[3] && mask[4] && mask[5] && mask[6] && mask[7]);
        assert!(!mask[8]);
        assert!(mask[9] && mask[10]);
        assert!(!mask[11]);
    }

    #[test]
    fn expect_is_flagged_by_receiver() {
        // The parser's own `self.expect(token)` returns a typed error.
        assert_eq!(unwrap_hit("        self.expect(&TokenKind::LParen)?;"), None);
        assert_eq!(unwrap_hit("x.expect(\"checked\")"), Some(".expect(…)"));
        assert_eq!(unwrap_hit("self.x.expect(\"checked\")"), Some(".expect(…)"));
        assert_eq!(unwrap_hit("myself.expect(\"checked\")"), Some(".expect(…)"));
        assert_eq!(unwrap_hit("self.expect(a)?; y.expect(b)"), Some(".expect(…)"));
        assert_eq!(unwrap_hit("self.unwrap()"), Some(".unwrap()"));
        assert_eq!(unwrap_hit("let e = expected(x);"), None);
    }

    #[test]
    fn env_var_scanner_extracts_names() {
        let mut vars = BTreeSet::new();
        scan_env_vars(
            "std::env::var(\"VERTEXICA_SCALE\") VERTEXICA_MEMORY_BUDGET=64m \
             and the bare VERTEXICA_ prefix is prose",
            &mut vars,
        );
        assert_eq!(
            vars.into_iter().collect::<Vec<_>>(),
            vec!["VERTEXICA_MEMORY_BUDGET".to_string(), "VERTEXICA_SCALE".to_string()]
        );
    }

    #[test]
    fn env_var_docs_is_two_way() {
        let vars: BTreeSet<String> = ["VERTEXICA_SCALE".to_string()].into();
        let docs = [
            ("README.md", true, "`VERTEXICA_SCALE` | dataset scale".to_string()),
            ("docs/ARCHITECTURE.md", true, "nothing here".to_string()),
            ("ci.yml", false, "env: { VERTEXICA_GONE: 0 }".to_string()),
        ];
        let found: Vec<(String, String)> =
            env_var_diagnostics(&vars, &docs).into_iter().map(|d| (d.file, d.message)).collect();
        assert_eq!(
            found,
            vec![
                (
                    "docs/ARCHITECTURE.md".to_string(),
                    "`VERTEXICA_SCALE` is read by the code but undocumented in \
                     docs/ARCHITECTURE.md"
                        .to_string()
                ),
                (
                    "ci.yml".to_string(),
                    "`VERTEXICA_GONE` is named in ci.yml but no crate reads it".to_string()
                ),
            ]
        );
    }

    #[test]
    fn config_docs_is_two_way() {
        let fields = scan_config_fields(
            "/// Knobs.\npub struct VertexicaConfig {\n    /// Workers.\n    pub num_workers: usize,\n    \
             pub durable: bool,\n}\n\nimpl VertexicaConfig {\n    pub fn x(self) {}\n}\n",
        );
        let rows = scan_config_rows(
            "# T\n\n## Configuration\n\n| Knob | Default |\n|---|---|\n\
             | `num_workers` | cores |\n| `input_mode` | `TableUnion` |\n\n\
             | `VERTEXICA_SCALE` | 0.01 |\n\n## Next\n\n| `durable` | off |\n",
        );
        assert_eq!(fields.iter().collect::<Vec<_>>(), ["durable", "num_workers"]);
        assert_eq!(rows.iter().collect::<Vec<_>>(), ["input_mode", "num_workers"]);
        let found: Vec<String> =
            config_docs_diagnostics(&fields, &rows).into_iter().map(|d| d.message).collect();
        assert_eq!(
            found,
            [
                "`VertexicaConfig::durable` has no row in the README's configuration table",
                "the README's configuration table names `input_mode`, which is no config field",
            ]
        );
    }

    #[test]
    fn exp_mode_scanner_extracts_dispatch_arms() {
        let modes = scan_exp_modes(
            r#"if exp == "wal" || exp == "all" {} if exp == "pool-size" || exp == "all" {}"#,
        );
        assert_eq!(
            modes.into_iter().collect::<Vec<_>>(),
            vec!["pool-size".to_string(), "wal".to_string()]
        );
    }

    #[test]
    fn allow_parser_shapes() {
        assert_eq!(
            parse_allow("// vxlint: allow(sync-seam) -- because"),
            Some(("sync-seam", "because"))
        );
        assert_eq!(parse_allow("// vxlint: allow(x)"), Some(("x", "")));
        assert_eq!(parse_allow("no suppression here"), None);
    }
}
