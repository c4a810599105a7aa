//! Lints the prose documentation: every relative markdown link in
//! `README.md` and `docs/*.md` must point at a file (or directory) that
//! exists in the repository, and the three architecture/reference docs the
//! README promises must actually be there and linked. Also lints where the
//! code may touch the process environment (see
//! `environment_is_read_only_by_the_config_parse`).
//!
//! Absolute `http(s)://` links are out of scope (no network in CI or this
//! container); intra-crate rustdoc links are checked separately by the
//! `cargo doc -D warnings` CI job.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The markdown files the checker lints: the README plus everything
/// directly under `docs/`.
fn doc_files() -> Vec<PathBuf> {
    let root = repo_root();
    let mut files = vec![root.join("README.md")];
    let docs = root.join("docs");
    let entries = std::fs::read_dir(&docs).expect("docs/ directory must exist");
    for entry in entries {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "md") {
            files.push(path);
        }
    }
    files.sort();
    files
}

/// Extracts the `(target)` of every inline markdown link `[text](target)`
/// in `text`, skipping fenced code blocks (protocol examples contain
/// bracketed JSON that is not a link).
fn link_targets(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut in_fence = false;
    for line in text.lines() {
        if line.trim_start().starts_with("```") {
            in_fence = !in_fence;
            continue;
        }
        if in_fence {
            continue;
        }
        let bytes = line.as_bytes();
        let mut i = 0;
        while i < bytes.len() {
            // A link target is the parenthesized span immediately after a
            // closing bracket: ...](target)
            if bytes[i] == b']' && i + 1 < bytes.len() && bytes[i + 1] == b'(' {
                if let Some(end) = line[i + 2..].find(')') {
                    out.push(line[i + 2..i + 2 + end].to_string());
                    i += 2 + end;
                    continue;
                }
            }
            i += 1;
        }
    }
    out
}

/// True for link targets the filesystem check does not apply to.
fn external(target: &str) -> bool {
    target.starts_with("http://")
        || target.starts_with("https://")
        || target.starts_with("mailto:")
        || target.starts_with('#')
}

#[test]
fn no_dangling_relative_links() {
    let mut dangling: Vec<String> = Vec::new();
    for file in doc_files() {
        let text = std::fs::read_to_string(&file).unwrap();
        let base = file.parent().unwrap();
        for target in link_targets(&text) {
            if external(&target) || target.is_empty() {
                continue;
            }
            // Strip a trailing #fragment; the file part must exist.
            let path_part = target.split('#').next().unwrap();
            if path_part.is_empty() {
                continue;
            }
            let resolved = base.join(path_part);
            if !resolved.exists() {
                dangling.push(format!(
                    "{}: [..]({target}) -> {}",
                    file.strip_prefix(repo_root()).unwrap().display(),
                    resolved.display()
                ));
            }
        }
    }
    assert!(dangling.is_empty(), "dangling relative links:\n{}", dangling.join("\n"));
}

/// The README must link out to each of the three reference docs, and the
/// docs must cross-link without rot.
#[test]
fn readme_links_the_reference_docs() {
    let root = repo_root();
    let readme = std::fs::read_to_string(root.join("README.md")).unwrap();
    let targets: BTreeSet<String> = link_targets(&readme)
        .into_iter()
        .map(|t| t.split('#').next().unwrap().to_string())
        .collect();
    for doc in ["docs/ARCHITECTURE.md", "docs/PROTOCOL.md", "docs/TUNING.md"] {
        assert!(Path::new(&root.join(doc)).exists(), "{doc} is missing — the README promises it");
        assert!(targets.contains(doc), "README.md does not link to {doc}");
    }
}

/// Every `.rs` file under `dir`, recursively.
fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The server reads its knobs once, in `ServerConfig::parse`'s process
/// entry point; `core::parallel` reads `DBWIPES_THREADS` for library
/// callers without a server. Nothing else may read the environment, and
/// nothing may mutate it: concurrent setenv/getenv is undefined behaviour
/// on glibc, and test binaries are multithreaded.
#[test]
fn environment_is_read_only_by_the_config_parse() {
    const ALLOWED: [&str; 2] = ["crates/server/src/config.rs", "crates/core/src/parallel.rs"];
    let root = repo_root();
    let mut files = Vec::new();
    rust_files(&root.join("tests"), &mut files);
    for krate in std::fs::read_dir(root.join("crates")).unwrap() {
        let krate = krate.unwrap().path();
        rust_files(&krate.join("src"), &mut files);
        rust_files(&krate.join("tests"), &mut files);
    }
    assert!(files.len() > 50, "the lint found only {} files", files.len());
    let needles = ["var", "set_var", "remove_var"].map(|f| format!("env::{f}"));
    let mut offenders = Vec::new();
    for file in files {
        let relative = file.strip_prefix(&root).unwrap().to_string_lossy().replace('\\', "/");
        if ALLOWED.contains(&relative.as_str()) {
            continue;
        }
        let text = std::fs::read_to_string(&file).unwrap();
        for (n, line) in text.lines().enumerate() {
            if needles.iter().any(|needle| line.contains(needle.as_str())) {
                offenders.push(format!("{relative}:{}: {}", n + 1, line.trim()));
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "environment access outside the config parse:\n{}",
        offenders.join("\n")
    );
}
