//! Panic-sweep audit: no `.unwrap()` / `.expect(` on request-reachable
//! paths.
//!
//! Every op the query service exposes (`run`, `compare`, `whatif`,
//! `advisor`, `sweep`, `steer.*`) executes inside `crates/core` and
//! `crates/serve`; a panic there tears down a worker mid-request instead of
//! producing a structured error envelope. This test walks the non-test
//! source of both crates and fails on any surviving panic site, so a
//! future `.unwrap()` cannot sneak back in without showing up here. There
//! is no allowlist: the CLI-only grids (`greenness cluster` / `greenness
//! placement`) report their failures as `SweepError::JobFailed` too, and
//! `crates/cluster` — whose runs reject a bad `ClusterConfig` as
//! `ClusterError::Config` before building a node — is walked as well, and
//! so is `crates/trace`: `greenness trace summarize <file>` parses whatever
//! file it is handed, and every traced run writes through its sink and
//! registry locks. `crates/viz` renders every frame a request, a steering
//! session or a cluster run asks for, and decodes PPM bytes.
//! `crates/storage` holds every byte a single-node run writes and reads
//! back, so its filesystem, page cache, allocator and tier stack report
//! what goes wrong as values too. `crates/steer` is the session engine
//! behind every `steer.*` op, and `crates/fleet` the router that answers
//! each line `greenness fleet` accepts. `crates/platform` charges the node
//! every run advances, and `crates/power` meters the timeline every
//! reply's metrics come from. `crates/pool` runs a `sweep` op's grid cells
//! and every stencil step's row bands on its workers. `crates/codec`
//! decodes every in-transit wire slab a cluster run stages and the
//! compressed variants' read-back of every snapshot they stored.
//! `crates/faults` draws every injected fault and computes the checksum
//! every cluster slab and every snapshot read back is verified against.
//! That is 13 of the 15 crates; `heatsim` and `bench` are not walked yet.

use std::path::{Path, PathBuf};

fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.expect("dir entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

/// Panic sites in the non-test, non-comment portion of `path`, as
/// `line_number: line` strings.
fn panic_sites(path: &Path) -> Vec<String> {
    let src =
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    let mut hits = Vec::new();
    for (i, line) in src.lines().enumerate() {
        // Everything below the first `#[cfg(test)]` is test code; these
        // crates keep their test modules at the bottom of each file.
        if line.contains("#[cfg(test)]") {
            break;
        }
        let trimmed = line.trim_start();
        if trimmed.starts_with("//") {
            continue;
        }
        if trimmed.contains(".unwrap()") || trimmed.contains(".expect(") {
            hits.push(format!("{}: {}", i + 1, trimmed));
        }
    }
    hits
}

#[test]
fn no_unwrap_or_expect_on_request_reachable_paths() {
    // CARGO_MANIFEST_DIR is crates/serve (this test is attached there), so
    // the workspace crates live one directory up.
    let crates = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("crates dir");
    let mut files = Vec::new();
    for name in [
        "core", "serve", "cluster", "trace", "viz", "storage", "steer", "fleet", "platform",
        "power", "pool", "codec", "faults",
    ] {
        rs_files(&crates.join(name).join("src"), &mut files);
    }
    assert!(
        files.len() >= 10,
        "suspiciously few source files ({}) — did the layout move?",
        files.len()
    );
    let mut violations = Vec::new();
    for path in &files {
        for site in panic_sites(path) {
            violations.push(format!("{}:{site}", path.display()));
        }
    }
    assert!(
        violations.is_empty(),
        "panic sites on request-reachable paths (return a structured error \
         instead, or move the code under #[cfg(test)]):\n{}",
        violations.join("\n")
    );
}
