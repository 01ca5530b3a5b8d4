//! Workspace-hygiene audit: each job is done exactly once.
//!
//! PR 12 deleted five do-nothing dependency shims, the second and third
//! bench systems, and four private copies of the FNV-1a / splitmix64 hashes;
//! PR 13 folded ten copies of the single-node simulate/store/read-back loop
//! into `crates/core/src/driver.rs`; PR 15 folded three copies of the keyed
//! grid runner into `crates/core/src/grid.rs` and four flag-parsing styles
//! into `crates/bench/src/cli.rs`; PR 17 replaced the owned journal parser
//! with a borrowed scanner and the three event renderers with one writer;
//! PR 19 put the two free-run allocators on one `storage::free::FreeRuns`;
//! PR 20 put serve's JSON tree on the journal scanner's lexer and handed the
//! fleet's shards the `Request` the router already parsed; PR 21 made that
//! `Request` a borrowed view validated by `skip_value` on the same lexer, and
//! the result cache's recency an index-linked slab; PR 22 made the cluster's
//! `DecomposedSolver` a row view over the one `HeatSolver` and folded the
//! fabric's twin fault loops and serve's twin `scale` ladders; PR 23 wrote
//! serve's request lifecycle once (`Outcome::new`, `fault_drops`, `settle`,
//! `opt`/`required`) and gave the fleet `routed` and `Request::session`.
//! Later, the cluster's one-function driver became stage methods on a
//! private `Run`, and sixteen `pub` functions nothing reached were deleted.
//! The frame memo and the field memo became one `core::memo`.
//! The tier-placement policies became one `PolicyKind` enum in
//! `greenness-storage`, which alone spells their labels.
//! The cluster's run moved into `core::pipeline::cluster`, on the driver's
//! one render charge, and `greenness-cluster` kept only the substrate.
//! This test walks the tree and fails if any of them grows back, so "add a
//! quick local copy" shows up in review instead of in the next inventory.

use std::path::{Path, PathBuf};

fn repo_root() -> PathBuf {
    // CARGO_MANIFEST_DIR is crates/bench (this test is attached there).
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("repo root")
        .to_path_buf()
}

fn sorted_entries(dir: &Path) -> Vec<PathBuf> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| entry.expect("dir entry").path())
        .collect();
    entries.sort();
    entries
}

fn file_name(path: &Path) -> String {
    path.file_name()
        .expect("file name")
        .to_string_lossy()
        .into_owned()
}

/// Every `.rs` file under `dir`, recursively.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for path in sorted_entries(dir) {
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|ext| ext == "rs") {
            out.push(path);
        }
    }
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn only_the_proptest_shim_remains() {
    let names: Vec<String> = sorted_entries(&repo_root().join("shims"))
        .iter()
        .map(|p| file_name(p))
        .collect();
    assert_eq!(names, ["README.md", "proptest"]);
}

#[test]
fn no_crate_manifest_names_a_deleted_dependency() {
    let root = repo_root();
    let mut manifests = vec![root.join("Cargo.toml")];
    for dir in ["crates", "shims"] {
        for member in sorted_entries(&root.join(dir)) {
            if member.is_dir() {
                manifests.push(member.join("Cargo.toml"));
            }
        }
    }
    assert!(manifests.len() >= 17, "found {} manifests", manifests.len());
    for path in manifests {
        for (i, line) in read(&path).lines().enumerate() {
            for dep in ["serde", "rayon", "bytes", "criterion"] {
                assert!(
                    !line.contains(dep),
                    "{}:{}: names `{dep}`: {line}",
                    path.display(),
                    i + 1
                );
            }
            // The generator is `greenness_faults::Rng`.
            let key = line.split('=').next().unwrap_or("").trim();
            assert_ne!(key, "rand", "{}:{}: {line}", path.display(), i + 1);
        }
    }
}

#[test]
fn fnv1a_and_splitmix64_are_defined_only_in_greenness_faults() {
    let root = repo_root();
    let mut sources = Vec::new();
    rs_files(&root.join("crates"), &mut sources);
    rs_files(&root.join("shims"), &mut sources);
    assert!(sources.len() >= 80, "found {} sources", sources.len());
    let faults = root.join("crates/faults");
    let mut in_faults = 0;
    for path in sources {
        for (i, line) in read(&path).lines().enumerate() {
            // The offset basis spelled out is a copy a `fn` grep cannot see;
            // the xoshiro256++ output rotation is the generator's step.
            let inlined = line.contains("cbf2_9ce4_8422_2325");
            let xoshiro = line.contains("rotate_left(23)");
            if !line.contains("fn fnv1a") && !line.contains("fn splitmix64") && !inlined && !xoshiro
            {
                continue;
            }
            assert!(
                path.starts_with(&faults),
                "{}:{}: private hash or generator copy: {line}",
                path.display(),
                i + 1
            );
            in_faults += usize::from(!inlined);
        }
    }
    assert_eq!(
        in_faults, 4,
        "fnv1a64, fnv1a64_extend, splitmix64, the xoshiro256++ step"
    );
}

#[test]
fn checksum64_never_leaves_the_process() {
    // `checksum64` is compare-and-discard (its lanes are not FNV-1a): no
    // non-test line may put it into an emitted value or formatted text.
    let crates = repo_root().join("crates");
    let mut sources = Vec::new();
    rs_files(&crates, &mut sources);
    let mut calls = 0;
    for path in sources {
        let src = read(&path);
        for (i, line) in non_test(&src).lines().enumerate() {
            if !line.contains("checksum64(") || line.contains("fn checksum64(") {
                continue;
            }
            calls += 1;
            for sink in ["Value::from", "format!", "write!", "writeln!"] {
                assert!(
                    !line.contains(sink),
                    "{}:{}: checksum64 flows into `{sink}`: {line}",
                    path.display(),
                    i + 1
                );
            }
        }
    }
    assert!(calls >= 10, "found {calls} checksum64 calls");
}

#[test]
fn no_committed_bench_json_at_the_repo_root() {
    let stale: Vec<String> = sorted_entries(&repo_root())
        .iter()
        .map(|p| file_name(p))
        .filter(|name| name.starts_with("BENCH_") && name.ends_with(".json"))
        .collect();
    assert!(
        stale.is_empty(),
        "benchmark/ is the one bench system: {stale:?}"
    );
}

/// The part of a source file above its `#[cfg(test)]` module.
fn non_test(src: &str) -> &str {
    src.split_once("#[cfg(test)]").map_or(src, |(code, _)| code)
}

/// The top-level lines of `src`, from its first `#[cfg(test)]` on, that are
/// neither a `#[cfg(test)]` nor a module it gates (blank lines, comments,
/// attributes and closing braces aside).
fn stray_test_tail(src: &str) -> Vec<&str> {
    let Some(start) = src.find("#[cfg(test)]") else {
        return Vec::new();
    };
    let mut gated = false;
    let mut stray = Vec::new();
    for line in src[start..].lines() {
        if line == "#[cfg(test)]" {
            gated = true;
        } else if line.starts_with("#[") {
            // Another attribute on the same item.
        } else if !(line.is_empty() || line.starts_with([' ', '}']) || line.starts_with("//")) {
            let item = line.strip_prefix("pub(crate) ").unwrap_or(line);
            if !(gated && item.starts_with("mod ")) {
                stray.push(line);
            }
            gated = false;
        }
    }
    stray
}

#[test]
fn a_files_first_cfg_test_opens_its_test_code() {
    // `non_test`, `production` and tools/loc.sh cut each file at its first
    // `#[cfg(test)]`. That is right only when everything from there on is
    // test code: so the first one opens a module, and every top-level item
    // after it is a `#[cfg(test)]` module. A test-only impl, const or field
    // above the tests goes inside a test module instead.
    let mut sources = Vec::new();
    rs_files(&repo_root().join("crates"), &mut sources);
    let mut gated = 0;
    for path in &sources {
        let src = read(path);
        gated += usize::from(src.contains("#[cfg(test)]"));
        let stray = stray_test_tail(&src);
        assert!(stray.is_empty(), "{}: {stray:?}", path.display());
    }
    assert!(gated >= 80, "{gated} files hold tests");
}

#[test]
fn steering_sessions_share_only_the_stamp_book() {
    // A what-if is two projections through `core::steering`'s book, which
    // holds everything engines share. The steer crate kept a second,
    // unbounded what-if cache keyed by a BLAKE2s of each session's history,
    // behind a `Mutex` of its own; neither may grow back.
    let mut sources = Vec::new();
    rs_files(
        &repo_root().join("crates").join("steer").join("src"),
        &mut sources,
    );
    assert!(!sources.is_empty());
    for path in &sources {
        let src = read(path);
        for needle in ["Mutex", "HashMap<[u8; 32]"] {
            assert!(!src.contains(needle), "{}: `{needle}`", path.display());
        }
    }
}

#[test]
fn the_single_node_loop_lives_only_in_the_core_driver() {
    let crates = repo_root().join("crates");
    let core = crates.join("core").join("src");

    // One solver and one run device, both built by the driver.
    let built_once = ["HeatSolver::new(", "with_capacity_bytes(cfg.device_bytes)"];
    let mut sources = Vec::new();
    rs_files(&core, &mut sources);
    for path in sources {
        let src = read(&path);
        for needle in built_once {
            let hits = non_test(&src).matches(needle).count();
            let want = usize::from(file_name(&path) == "driver.rs");
            assert_eq!(hits, want, "{}: `{needle}`", path.display());
        }
    }

    // The pipelines compose driver stages; none steps a solver, formats a
    // filesystem, or spells the fsync'd write or the sync/drop tail itself.
    // (`probes.rs` and `placement.rs` drive their own devices.)
    for name in [
        "pipeline.rs",
        "variants.rs",
        "adaptive.rs",
        "capping.rs",
        "steering.rs",
    ] {
        let src = read(&core.join(name));
        for needle in [
            "solver.step()",
            "FileSystem::format(",
            "fsync_with_retry(",
            ".drop_caches()",
        ] {
            assert!(
                !non_test(&src).contains(needle),
                "{name}: `{needle}` belongs in driver.rs"
            );
        }
    }

    // One initial condition in the workspace: `Grid::warm_patch`.
    let mut sources = Vec::new();
    rs_files(&crates, &mut sources);
    let heatsim = crates.join("heatsim");
    for path in sources {
        assert!(
            path.starts_with(&heatsim) || !read(&path).contains("* 40.0).exp()"),
            "{}: private copy of the initial field",
            path.display()
        );
    }
}

#[test]
fn the_grid_runner_lives_only_in_core_grid() {
    let root = repo_root();

    // One pool call and one `job` span frame in core: grid.rs.
    let core = root.join("crates").join("core").join("src");
    let mut sources = Vec::new();
    rs_files(&core, &mut sources);
    for path in sources {
        let src = read(&path);
        for needle in ["run_pool(", r#"\"ev\":\"begin\",\"name\":\"job\""#] {
            let found = non_test(&src).contains(needle);
            assert_eq!(
                found,
                file_name(&path) == "grid.rs",
                "{}: `{needle}`",
                path.display()
            );
        }
    }

    // One flag path in the binaries: `greenness_bench::cli`.
    for path in sorted_entries(&root.join("crates/bench/src/bin")) {
        let src = read(&path);
        for needle in ["strip_prefix(\"--", "fn parse<"] {
            assert!(
                !non_test(&src).contains(needle),
                "{}: `{needle}` belongs in cli.rs",
                path.display()
            );
        }
    }
}

#[test]
fn the_journal_has_one_reader_and_one_writer() {
    let crates = repo_root().join("crates");

    // The owned parser survives only as a test oracle.
    let mut sources = Vec::new();
    rs_files(&crates, &mut sources);
    for path in &sources {
        let src = read(path);
        for needle in ["parse_flat_object", "JsonValue"] {
            assert!(
                !non_test(&src).contains(needle),
                "{}: `{needle}` outside test code; the journal reader is `scan_flat_object`",
                path.display()
            );
        }
    }

    // One function in `greenness-trace` spells the head of an event line:
    // `TraceEvent::write_jsonl`, which the tracer's JSONL sink calls.
    let writers: Vec<String> = sources
        .iter()
        .filter(|path| path.starts_with(crates.join("trace")))
        .flat_map(|path| {
            let hits = non_test(&read(path)).matches(r#"\"t_ns\":"#).count();
            std::iter::repeat(file_name(path)).take(hits)
        })
        .collect();
    assert_eq!(writers, ["sink.rs"], "event-to-JSONL renderers");
}

#[test]
fn the_tracer_writes_its_journal_with_no_trait_object() {
    // One recording path: the tracer holds the concrete JSONL sink, and
    // tests read the journal a user gets.
    let mut sources = Vec::new();
    rs_files(&repo_root().join("crates/trace/src"), &mut sources);
    for path in &sources {
        assert!(
            !non_test(&read(path)).contains("dyn "),
            "{}: a trait object in greenness-trace",
            path.display()
        );
    }
}

#[test]
fn json_has_one_lexer_and_a_request_line_one_parse() {
    let crates = repo_root().join("crates");
    let mut sources = Vec::new();
    rs_files(&crates, &mut sources);
    // Every non-test occurrence of `needle` under `crates/`, by file.
    let sites = |needle: &str| -> Vec<String> {
        let hits = |path: &PathBuf| non_test(&read(path)).matches(needle).count();
        sources
            .iter()
            .flat_map(|path| {
                let name = path.strip_prefix(&crates).expect("under crates/");
                std::iter::repeat(name.display().to_string()).take(hits(path))
            })
            .collect()
    };

    // One string-literal decoder (the `\u` arm), one escaper (the `\u00XX`
    // format), one number validator, one whitespace skipper.
    for needle in ["b'u') =>", "\\\\u{", "fn json_number_end", "fn skip_ws"] {
        assert_eq!(sites(needle), ["trace/src/json.rs"], "`{needle}`");
    }
    // Serve keeps the `greenness_serve::json` path and nothing behind it.
    let serve_json = read(&crates.join("serve/src/json.rs"));
    assert!(non_test(&serve_json).lines().count() <= 15);
    assert!(
        !serve_json.contains("fn "),
        "a JSON function is back in serve"
    );

    // A line is parsed where it enters, a front end each: a `Service`
    // through `parse_request`, the fleet router only through its content
    // address memo (each line as it arrives, and a re-homed session's acked
    // ops). The fleet's shards get the router's `Request`, the replay
    // included.
    assert_eq!(sites("protocol::parse_request("), ["serve/src/service.rs"]);
    assert_eq!(sites("parse_request(").len(), 2, "the one call and the fn");
    assert_eq!(sites("KeyMemo::default()"), ["fleet/src/fleet.rs"]);
    assert_eq!(
        sites("self.keys.parse("),
        ["fleet/src/fleet.rs", "fleet/src/fleet.rs"]
    );
    let fleet = read(&crates.join("fleet/src/fleet.rs"));
    let fleet = non_test(&fleet);
    let on_a_shard =
        fleet.matches(".handle_line(").count() - fleet.matches("self.handle_line(").count();
    assert_eq!(on_a_shard, 0, "shard-side `handle_line` calls");

    // The memo is invisible in artifacts: the `serve` and `fleet` crates
    // name the metrics (and the two seed labels) they named before it.
    let mut named = std::collections::BTreeSet::new();
    for path in &sources {
        let rel = path.strip_prefix(&crates).expect("under crates/");
        if !(rel.starts_with("serve") || rel.starts_with("fleet")) {
            continue;
        }
        let src = read(path);
        let code = non_test(&src);
        for layer in ["\"serve.", "\"fleet.", "\"retries."] {
            for (at, _) in code.match_indices(layer) {
                let quoted = code[at + 1..].split('"').next().unwrap_or_default();
                let name = |b: u8| b.is_ascii_lowercase() || b"._0123456789".contains(&b);
                if quoted.bytes().all(name) {
                    named.insert(quoted.to_string());
                }
            }
        }
    }
    let want = [
        "fleet.bad_request",
        "fleet.control",
        "fleet.err",
        "fleet.hits",
        "fleet.misses",
        "fleet.ok",
        "fleet.rebalance.moved",
        "fleet.replica.fills",
        "fleet.replica.reads",
        "fleet.requests",
        "fleet.ring",
        "fleet.session.rehomed",
        "fleet.session.replayed",
        "fleet.shard.joined",
        "fleet.shard.lost",
        "fleet.virtual_s",
        "fleet.zipf",
        "retries.fleet.reroute",
        "retries.fleet.session.resume",
        "serve.bad_request",
        "serve.cache.corrupt",
        "serve.cache.evictions",
        "serve.cache.hits",
        "serve.cache.misses",
        "serve.cache.rejected",
        "serve.err",
        "serve.ok",
        "serve.requests",
        "serve.shed.deadline",
        "serve.shed.overloaded",
        "serve.shed.shutting_down",
        "serve.virtual_s",
    ];
    assert_eq!(named.iter().map(String::as_str).collect::<Vec<_>>(), want);

    // The request view validates through the lexer's own `skip_value`, not a
    // private copy of the walk, and the cache's recency queue stays retired
    // to its test-only reference.
    let skippers: std::collections::BTreeSet<String> = sites("skip_value(").into_iter().collect();
    assert_eq!(
        skippers.into_iter().collect::<Vec<_>>(),
        ["trace/src/json.rs"]
    );
    let cache = read(&crates.join("serve/src/cache.rs"));
    assert!(!non_test(&cache).contains("VecDeque"));
    assert!(cache.contains("VecDeque"), "the reference cache is kept");
}

#[test]
fn one_stencil_one_fabric_fault_loop_one_scale_ladder() {
    let crates = repo_root().join("crates");
    let mut sources = Vec::new();
    rs_files(&crates, &mut sources);

    // The 5-point update and the second time level it writes into exist in
    // `greenness-heatsim` and nowhere else: the cluster's slabs are row
    // ranges of that solver's field, not fields of their own.
    let heatsim = crates.join("heatsim");
    for path in &sources {
        let src = read(path);
        for needle in ["- 2.0 * u", "scratch: Vec<f64>", "scratch: Grid"] {
            assert!(
                path.starts_with(&heatsim) || !non_test(&src).contains(needle),
                "{}: `{needle}`: a second stencil or field copy",
                path.display()
            );
        }
    }

    // `transfer_reliable` and `send_reliable` draw their fault slots in one
    // loop; `run` and `sweep` read `scale` through one ladder.
    let fabric = read(&crates.join("cluster/src/fabric.rs"));
    assert_eq!(non_test(&fabric).matches("inj.next()").count(), 1);
    let service = read(&crates.join("serve/src/service.rs"));
    assert_eq!(non_test(&service).matches("unknown scale").count(), 1);
}

#[test]
fn a_request_lifecycle_is_spelled_once() {
    let crates = repo_root().join("crates");
    let service = read(&crates.join("serve/src/service.rs"));
    let service = non_test(&service);
    let fleet = read(&crates.join("fleet/src/fleet.rs"));
    let fleet = non_test(&fleet);

    // `Outcome::new` builds the struct and a granted `shutdown` updates it;
    // `router_reply` is the fleet's one full `FleetOutcome` (the others
    // update it), and a full literal has to spell `shutdown: false`.
    let literals = service
        .match_indices("Outcome {")
        .filter(|(at, _)| {
            let before = &service[..*at];
            !["struct ", "impl ", "-> "]
                .iter()
                .any(|decl| before.ends_with(decl))
        })
        .count();
    assert!(literals <= 2, "{literals} `Outcome {{ .. }}` literals");
    for (file, src) in [("service.rs", service), ("fleet.rs", fleet)] {
        assert_eq!(src.matches("shutdown: false").count(), 1, "{file}");
    }
    assert!(!service.contains("pub dropped"));
    // The accept loop's connection list is its own: no lock to poison.
    let server = read(&crates.join("serve/src/server.rs"));
    assert!(!non_test(&server).contains("Mutex"));

    // Both fault injectors are drawn in `fault_drops` and nowhere else.
    let (_, rest) = service.split_once("fn fault_drops(").expect("fault_drops");
    let (body, _) = rest.split_once("\n    }\n").expect("its closing brace");
    assert_eq!(body.matches(".next().is_some()").count(), 2);
    assert_eq!(service.matches(".next().is_some()").count(), 2);

    // Parameter refusals go through `opt` / `required` (21 hand-written
    // ladders on PR 22's tree), and one accessor reads the session name.
    let ladders = service.matches("ok_or_else(|| bad(").count();
    assert!(ladders <= 6, "{ladders} hand-written refusals");
    let mut sources = Vec::new();
    rs_files(&crates, &mut sources);
    for path in &sources {
        assert!(
            path.ends_with("serve/src/protocol.rs")
                || !non_test(&read(path)).contains("get(\"session\")"),
            "{}: read the session through `Request::session`",
            path.display()
        );
    }
}

#[test]
fn free_runs_are_kept_and_coalesced_only_in_storage_free() {
    // The filesystem's extent allocator and every tier's block allocator sit
    // on `free::FreeRuns`: one free-run map, one function that merges a
    // returned run with its neighbours. Both used to carry their own map and
    // their own rebuild-the-whole-map coalescing loop.
    let mut sources = Vec::new();
    rs_files(&repo_root().join("crates/storage/src"), &mut sources);
    assert!(sources.len() >= 10, "found {} sources", sources.len());
    for path in sources {
        let src = read(&path);
        for needle in ["BTreeMap<u64, u64>", "fn release("] {
            let hits = non_test(&src).matches(needle).count();
            let want = usize::from(file_name(&path) == "free.rs");
            assert_eq!(hits, want, "{}: `{needle}`", path.display());
        }
    }
}

#[test]
fn a_grid_shares_frames_and_fields_through_one_memo() {
    // Frames and fields are keyed by one trajectory, spelled once in
    // `core::memo::trajectory`; the frame memo and the field memo used to
    // spell it each, and were built side by side wherever a grid ran, and
    // steering's stamp book keys its frames by it too. Only `run_sweep` and
    // `CaseComparison::run_config` build a memo.
    let crates = repo_root().join("crates");
    let core = crates.join("core").join("src");
    let fields = trajectory_fields(&read(&core.join("memo.rs")));
    assert_eq!(fields, ["grid_nx", "grid_ny", "solver"]);
    let mut sources = Vec::new();
    rs_files(&crates, &mut sources);
    for path in &sources {
        let src = read(path);
        let spelled = spells_tuple_of(&src, &fields);
        let key = *path == core.join("memo.rs");
        assert_eq!(spelled, key, "{}: the trajectory key", path.display());
        let built = non_test(&src).contains("GridMemo::");
        let grid = [core.join("sweep.rs"), core.join("compare.rs")].contains(path);
        assert_eq!(built, grid, "{}: `GridMemo::`", path.display());
    }
}

/// The fields `core::memo::trajectory` puts in its key, in order: its body
/// is one tuple of `receiver.field` items, each maybe with a method call.
fn trajectory_fields(memo: &str) -> Vec<String> {
    let (_, body) = memo
        .split_once("fn trajectory(")
        .and_then(|(_, rest)| rest.split_once('{'))
        .expect("memo.rs declares `fn trajectory`");
    let (tuple, _) = body.split_once('}').expect("a one-tuple body");
    let tuple = tuple
        .trim()
        .strip_prefix('(')
        .and_then(|t| t.strip_suffix(')'));
    let items = tuple.expect("a tuple").split(',');
    let field = |item: &str| {
        let mut parts = item.trim().split('.').filter(|part| !part.ends_with(')'));
        parts.next_back().map(str::to_string)
    };
    items
        .map(|item| field(item).expect("a `receiver.field` item"))
        .collect()
}

/// Whether `src` holds a tuple whose items read `fields` in order, off any
/// receiver and whatever the whitespace: `(cfg.grid_nx, cfg.grid_ny, …` as
/// well as `(self.cfg.grid_nx,\n self.cfg.grid_ny, …`.
fn spells_tuple_of(src: &str, fields: &[String]) -> bool {
    let squeezed: String = src.chars().filter(|c| !c.is_whitespace()).collect();
    let path = |item: &str, field: &str| {
        item.starts_with(|c: char| c.is_ascii_alphabetic() || c == '_')
            && item.split('.').skip(1).any(|part| part == field)
    };
    squeezed.split('(').skip(1).any(|open| {
        let mut items = open.split([',', ')']);
        fields
            .iter()
            .all(|field| items.next().is_some_and(|item| path(item, field)))
    })
}

#[test]
fn placement_policy_labels_are_spelled_only_in_storage_placement() {
    // The store, the placement grid, its CLI and the benchmark all hold a
    // `PolicyKind` and ask it for `label()`; the grid used to keep its own
    // enum and label table, and the CLI its own list of names.
    let crates = repo_root().join("crates");
    let mut sources = Vec::new();
    rs_files(&crates, &mut sources);
    sources.retain(|path| !path.components().any(|c| c.as_os_str() == "tests"));
    for needle in ["\"freq-recency\"", "\"energy-greedy\""] {
        let spelled: Vec<&Path> = sources
            .iter()
            .filter(|path| non_test(&read(path)).contains(needle))
            .map(|path| path.strip_prefix(&crates).expect("under crates/"))
            .collect();
        assert_eq!(
            spelled,
            [Path::new("storage/src/placement.rs")],
            "`{needle}`"
        );
    }
}

/// Every `"--flag"` string literal in `src`.
fn flag_literals(src: &str) -> Vec<&str> {
    src.split('"')
        .filter(|lit| {
            lit.strip_prefix("--").is_some_and(|name| {
                !name.is_empty() && name.bytes().all(|b| b.is_ascii_lowercase() || b == b'-')
            })
        })
        .collect()
}

#[test]
fn every_flag_the_binaries_match_on_is_documented() {
    let bench = repo_root().join("crates/bench/src");
    let repro_src = read(&bench.join("bin/repro.rs"));
    let repro_doc: String = repro_src
        .lines()
        .take_while(|line| line.starts_with("//!"))
        .collect();
    let usage = std::process::Command::new(env!("CARGO_BIN_EXE_greenness"))
        .output()
        .expect("greenness runs");
    assert_eq!(usage.status.code(), Some(2), "no command is a usage error");
    let usage = String::from_utf8_lossy(&usage.stderr);

    let mut checked = 0;
    for file in ["bin/greenness.rs", "bin/repro.rs", "cli.rs"] {
        let src = read(&bench.join(file));
        for flag in flag_literals(non_test(&src)) {
            // Whole-word match: `--metrics` must not pass on `--metrics-out`.
            let documented = |text: &str| {
                text.match_indices(flag).any(|(at, _)| {
                    !text[at + flag.len()..]
                        .starts_with(|c: char| c.is_ascii_lowercase() || c == '-')
                })
            };
            assert!(
                documented(&usage) || documented(&repro_doc),
                "{file}: `{flag}` is matched on but neither `greenness` usage \
                 nor repro.rs's module doc mentions it"
            );
            checked += 1;
        }
    }
    assert!(checked >= 40, "only {checked} flag literals found");
}

/// Every non-test `fn` in `src` (signature line through its closing brace
/// at the same indentation), as `(signature line, line count)`.
fn fn_lengths(src: &str) -> Vec<(&str, usize)> {
    let lines: Vec<&str> = non_test(src).lines().collect();
    let mut out = Vec::new();
    for (at, line) in lines.iter().enumerate() {
        let code = line.trim_start();
        let decl = ["fn ", "pub fn ", "pub(crate) fn "];
        if !decl.iter().any(|d| code.starts_with(d)) || code.ends_with(';') {
            continue;
        }
        let close = format!("{}}}", &line[..line.len() - code.len()]);
        let len = lines[at..]
            .iter()
            .position(|l| *l == close)
            .unwrap_or_else(|| panic!("no closing brace for `{code}`"));
        out.push((code, len + 1));
    }
    out
}

#[test]
fn the_cluster_driver_is_a_short_composition_of_stages() {
    // `run_cluster_traced` was one 381-line function with an inline arm per
    // kind; each stage is now a `Run` method and each kind a composition.
    let pipeline = read(&repo_root().join("crates/core/src/pipeline/cluster.rs"));
    let fns = fn_lengths(&pipeline);
    assert!(fns.len() >= 15, "found {} fns", fns.len());
    for (decl, len) in &fns {
        assert!(*len <= 70, "{len} lines: {decl}");
    }
    let (_, driver) = fns
        .iter()
        .find(|(decl, _)| decl.starts_with("pub fn run_cluster_traced("))
        .expect("the driver");
    assert!(*driver <= 30, "run_cluster_traced is {driver} lines");
    // The slabs are decoded into a field in `assemble`, and a frame is
    // rendered (and hashed) in `render_frame`, only.
    for needle in ["from_byte_parts(", "render_field_hashed("] {
        assert_eq!(non_test(&pipeline).matches(needle).count(), 1, "`{needle}`");
    }
}

#[test]
fn the_cluster_substrate_moves_and_stores_bytes_and_renders_nothing() {
    // `greenness-cluster` holds the fabric, the parallel filesystem, the row
    // slabs and the run's configuration; the distributed pipelines are
    // `core::pipeline::cluster`, on the engine's one render charge. A render
    // or a visualization charge back in the substrate is a second engine.
    let crates = repo_root().join("crates");
    let mut substrate = Vec::new();
    rs_files(&crates.join("cluster/src"), &mut substrate);
    assert!(substrate.len() >= 5, "found {} sources", substrate.len());
    for path in &substrate {
        let src = read(path);
        for needle in ["render_field", "Phase::Visualization"] {
            assert!(
                !production(&src).contains(needle),
                "{}: `{needle}` belongs in the core engine",
                path.display()
            );
        }
    }
    // Every pipeline, on one node or many, charges a frame through
    // `driver::charge_render`.
    let mut sources = Vec::new();
    rs_files(&crates, &mut sources);
    let charges: Vec<String> = sources
        .iter()
        .flat_map(|path| {
            let src = read(path);
            let hits = production(&src)
                .lines()
                .filter(|line| line.contains(".activity(") && line.contains("Phase::Visualization"))
                .count();
            std::iter::repeat(file_name(path)).take(hits)
        })
        .collect();
    assert_eq!(charges, ["driver.rs"], "render charges");
}

/// `src` with comments and `use` statements dropped: what is left is what
/// the reachability rule counts as naming a function.
fn without_comments_and_uses(src: &str) -> String {
    let mut out = String::with_capacity(src.len());
    let mut in_use = false;
    for line in src.lines() {
        let code = line.split("//").next().unwrap_or_default();
        let stmt = code.trim_start();
        let stmt = stmt
            .strip_prefix("pub(crate) ")
            .or_else(|| stmt.strip_prefix("pub "))
            .unwrap_or(stmt);
        in_use |= stmt.starts_with("use ");
        if in_use {
            in_use = !code.trim_end().ends_with(';');
            continue;
        }
        out.push_str(code);
        out.push('\n');
    }
    out
}

/// True if `text` contains `name` as a whole identifier.
fn names(text: &str, name: &str) -> bool {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    text.match_indices(name)
        .any(|(at, _)| !text[..at].ends_with(ident) && !text[at + name.len()..].starts_with(ident))
}

/// True if `text` names `name` the way a method or associated function is
/// named: `.name` or `::name`, as a whole identifier.
fn names_method(text: &str, name: &str) -> bool {
    let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
    text.match_indices(name).any(|(at, _)| {
        let before = &text[..at];
        (before.ends_with('.') || before.ends_with("::"))
            && !text[at + name.len()..].starts_with(ident)
    })
}

/// The part of a source file a run compiles: above its `#[cfg(test)]`
/// module and above its retained oracles (see tools/loc.sh).
fn production(src: &str) -> &str {
    let code = non_test(src);
    code.split_once("\n#[cfg(any(test, feature = \"reference\"))]")
        .map_or(code, |(code, _)| code)
}

/// `pub` items no run reaches that another file's tests need, each as
/// `file: name` (the file under `crates/` that declares it) with the reason.
/// `unreached_pub_fns_stay_deleted` fails when an entry is no longer
/// declared there, gains a production caller, or is no longer named by a
/// test outside its own file, so the list cannot outlive its reasons.
const TEST_SUPPORT: [&str; 17] = [
    "core/src/steering.rs: full_recompute_remaining_j", // steering what-if oracle
    "faults/src/lib.rs: quiet", // chaos tests: a zero-rate plan changes nothing
    "storage/src/fs.rs: crash_and_recover", // chaos and tier tests cut the power
    "storage/src/fs.rs: set_alloc_mode", // fragmented layouts behind the §V-D claim
    "storage/src/fs.rs: delete", // the storage cost transcripts script deletes
    "storage/src/fs.rs: list",  // storage and placement tests list a volume
    "trace/src/json.rs: to_string_raw", // serve's reference parser echoes ids
    "trace/src/json.rs: as_arr", // the benchmark's contract test reads its lists
    "platform/src/units.rs: KIB", // unit vocabulary for test sizes
    "platform/src/units.rs: MIB", // unit vocabulary for test sizes
    "platform/src/time.rs: from_nanos", // unit vocabulary for test instants
    "platform/src/time.rs: from_secs", // unit vocabulary for test durations
    "platform/src/timeline.rs: draw_at", // timeline properties read one instant
    "power/src/profile.rs: rest_w", // power properties check the rest channel
    "power/src/wattsup.rs: sample", // meter tests sample without a tracer
    "core/src/config.rs: default_solver", // tests size a solver to other grids
    "core/src/experiment.rs: noiseless", // tests pin energies free of meter noise
];

#[test]
fn unreached_pub_fns_stay_deleted() {
    // Every `pub fn`, `pub const fn` and `pub const` in the production code
    // of `crates/*/src` is named in the production code of another file: a
    // library, the `repro`/`greenness` binaries, or `benchmark/src`. Tests
    // are not callers, and comments and `use` statements (re-exports
    // included) are stripped. An item only its own file names is private,
    // where rustc's `dead_code` lint guards it; one only its own unit tests
    // name is `#[cfg(test)]`; one nothing names is deleted. `TEST_SUPPORT`
    // holds the exceptions. The rule is a name match: an indented `pub fn`
    // (a method or associated function) counts only where it is named as
    // `.name` or `::name`, and it still misses a dead item whose name some
    // other file spells that way for something else.
    let root = repo_root();
    let mut sources = Vec::new();
    for dir in ["crates", "benchmark/src", "tests"] {
        rs_files(&root.join(dir), &mut sources);
    }
    let rels: Vec<&Path> = sources
        .iter()
        .map(|path| path.strip_prefix(&root).expect("under the root"))
        .collect();
    // Each file as (what a run compiles, what only tests compile).
    let texts: Vec<(String, String)> = sources
        .iter()
        .zip(&rels)
        .map(|(path, rel)| {
            let src = read(path);
            if rel.ends_with("workspace_hygiene.rs") {
                // This file spells every `TEST_SUPPORT` name; it calls none.
                return (String::new(), String::new());
            }
            if rel.components().any(|c| c.as_os_str() == "tests") {
                return (String::new(), without_comments_and_uses(&src));
            }
            let code = production(&src);
            (
                without_comments_and_uses(code),
                without_comments_and_uses(&src[code.len()..]),
            )
        })
        .collect();
    let mut declared = 0;
    let mut unreached = Vec::new();
    let mut support_seen = Vec::new();
    for (at, rel) in rels.iter().enumerate() {
        let parts: Vec<_> = rel.iter().collect();
        if parts.len() < 3 || parts[0] != "crates" || parts[2] != "src" {
            continue;
        }
        for line in production(&read(&sources[at])).lines() {
            let decl = line.trim_start();
            let Some(sig) = ["pub fn ", "pub const fn ", "pub const "]
                .iter()
                .find_map(|prefix| decl.strip_prefix(prefix))
            else {
                continue;
            };
            let name = &sig[..sig.find(['(', '<', ':']).expect("a signature")];
            declared += 1;
            // A method is named through a receiver or a path, so a free
            // function or a local that shares its name does not reach it.
            let method = line.starts_with(' ') && !decl.starts_with("pub const ");
            let matches = if method { names_method } else { names };
            let named_elsewhere = |text: fn(&(String, String)) -> &String| {
                (0..texts.len()).any(|other| other != at && matches(text(&texts[other]), name))
            };
            let key = format!(
                "{}: {name}",
                rel.strip_prefix("crates").unwrap_or(rel).display()
            );
            let support = TEST_SUPPORT.contains(&key.as_str());
            let why = match (support, named_elsewhere(|(code, _)| code)) {
                (false, false) => "unreached",
                (true, true) => "on TEST_SUPPORT, but a run reaches it",
                (true, false) if !named_elsewhere(|(_, tests)| tests) => {
                    "on TEST_SUPPORT, but no other file's test names it"
                }
                _ => "",
            };
            if support {
                support_seen.push(key);
            }
            if !why.is_empty() {
                unreached.push(format!("{}: {name}: {why}", rel.display()));
            }
        }
    }
    assert!(declared >= 400, "found {declared} pub fns and consts");
    for item in TEST_SUPPORT {
        assert!(
            support_seen.iter().any(|seen| seen == item),
            "TEST_SUPPORT names `{item}`, which that file does not declare `pub`"
        );
    }
    assert!(
        unreached.is_empty(),
        "unreached pub fns and consts: {unreached:#?}"
    );
}
