//! `greenness` — the lab CLI: everything beyond the paper's tables and
//! figures, which only the `repro` binary regenerates.
//!
//! ```text
//! greenness placement [--scale S]       tiered-storage policy grid
//! greenness trace summarize <journal>   reconstruct + audit a trace journal
//! greenness cluster [--kind K] [...]    case-study grid over the distributed pipelines
//! greenness cap <watts> [watts...]      power-cap sweep (in-situ)
//! greenness adaptive [threshold]        adaptive runtime demo
//! greenness advisor <bytes> <passes> <seq|rand> <explore|no-explore>
//! greenness serve [--addr A]            NDJSON query server (greenness-serve/v1)
//! greenness steer [--shards N]          scripted interactive steering session
//! greenness fleet [--shards N]          sharded fleet router over in-process shards
//! greenness query <addr> <json>         one request against a running server
//! greenness bench-serve [...]           deterministic replay: serve, --shards, --sessions
//! ```
//!
//! Everything prints fixed-width tables.

use greenness_bench::cli::{parse, Args, GridFlags};
use greenness_cluster::{ClusterKind, StagingConfig, WireCodec};
use greenness_core::adaptive::{run_adaptive, AdaptivePolicy};
use greenness_core::advisor::{recommend, IoBehavior, Technique, WorkloadProfile};
use greenness_core::capping::cap_sweep;
use greenness_core::cluster_sweep;
use greenness_core::placement::{self, PolicyKind};
use greenness_core::sweep;
use greenness_core::{report, PipelineConfig};
use greenness_faults::FaultPlan;
use greenness_fleet::{Fleet, FleetConfig};
use greenness_platform::{HardwareSpec, Node};
use greenness_serve::{Server, ServiceConfig};

/// The single usage block every argument error funnels into; all paths
/// exit 2.
fn usage() -> ! {
    eprintln!(
        "usage: greenness <command>\n\
         \n\
         commands:\n\
         \x20 placement [--jobs N] [--scale S]     tiered-storage policy grid (S: small|paper)\n\
         \x20 cluster [--kind post|insitu|intransit] [--staging-nodes N]\n\
         \x20         [--queue-depth D] [--wire-codec none|delta-rle|quant8]\n\
         \x20         [--jobs N]                   case-study grid over the distributed pipelines\n\
         \x20 cap <watts> [watts ...]              power-cap sweep (in-situ)\n\
         \x20 adaptive [io-energy-threshold]       adaptive runtime demo\n\
         \x20 advisor <bytes> <passes> <seq|rand> <explore|no-explore>\n\
         \x20 trace summarize <journal>            reconstruct + audit a trace journal\n\
         \x20 serve [--addr A] [--jobs N]          NDJSON query server (greenness-serve/v1)\n\
         \x20 steer [--shards N] [--jobs N]        scripted steering session through the fleet\n\
         \x20       [--session NAME] [--fault-seed N] [--out FILE]\n\
         \x20 fleet [--shards N] [--replicas K]    consistent-hash fleet router (greenness fleet)\n\
         \x20 query <addr> <json-request>          one request against a running server\n\
         \x20 bench-serve [...]                    deterministic in-process replay\n\
         \n\
         placement and cluster also accept --trace PATH / --metrics PATH (event\n\
         journal + metrics registry; byte-identical for every --jobs value)\n\
         serve also accepts --cache-bytes B / --slots S / --queue-depth Q\n\
         fleet also accepts --addr A --ring-seed S --vnodes V --hot-threshold H\n\
         --shard-addrs (debug listeners) plus the serve tuning flags, applied per shard\n\
         bench-serve accepts --requests N --jobs J --out FILE --metrics-out FILE;\n\
         --shards N runs the open-loop fleet replay instead (--replicas K --rate R\n\
         --ring-seed S --universe U --zipf S --report-out FILE --shard-metrics-out\n\
         FILE), and --sessions N interleaves N scripted steering sessions (through\n\
         a fleet of --shards N shards, when given: the same response log)\n\
         placement, cluster, serve, fleet, steer and bench-serve accept\n\
         --fault-seed N (seeded fault injection with retry/recovery; deterministic\n\
         per seed — for fleet this includes shard churn)\n\
         every valued flag may also be spelled --flag=value"
    );
    std::process::exit(2);
}

/// Run one grid with `[tag] n/N done` progress lines and the wall-clock
/// footer; a failed grid exits 1.
fn timed_grid<R>(
    tag: &str,
    name: &str,
    run: impl FnOnce(sweep::Progress<'_>) -> Result<Vec<R>, sweep::SweepError>,
) -> Vec<R> {
    let t0 = std::time::Instant::now();
    let results = run(&|done, total, key| eprintln!("[{tag}] {done}/{total} done: {key}"))
        .unwrap_or_else(|e| {
            eprintln!("{name} grid failed: {e}");
            std::process::exit(1);
        });
    eprintln!(
        "grid finished in {:.2} s host wall-clock",
        t0.elapsed().as_secs_f64()
    );
    results
}

fn cmd_placement(mut args: Args) {
    let mut flags = GridFlags::default();
    let mut scale = placement::PlacementScale::Small;
    while let Some(a) = args.next_arg() {
        if flags.take(&a, &mut args) {
            continue;
        }
        match a.as_str() {
            "--scale" => {
                scale = args.choice("scale", "small|paper", placement::PlacementScale::parse)
            }
            _ => usage(),
        }
    }
    let setup = placement::PlacementSetup {
        scale,
        trace: flags.traced(),
        faults: flags.fault_seed.map(FaultPlan::with_seed),
    };
    eprintln!(
        "running the placement grid ({} scale) on {} worker(s)...",
        scale.label(),
        flags.jobs
    );
    let results = timed_grid("placement", "placement", |progress| {
        placement::run_placement(placement::placement_grid(), &setup, flags.jobs, progress)
    });
    flags.write_artifacts(
        "",
        "repro_out/placement.json",
        placement::placement_manifest_json(scale, &results),
        || placement::placement_journal(&results),
        || placement::placement_metrics_json(&results),
    );
    let mut rows = Vec::new();
    for r in &results {
        rows.push(vec![
            r.key.clone(),
            report::f(r.time_s, 2),
            report::f(r.energy_j, 1),
            report::f(r.read_energy_j, 1),
            format!("{}", r.promotes),
            format!("{}", r.demotes),
            if r.verified {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    print!(
        "{}",
        report::render_table(
            &format!("Placement grid ({} scale)", scale.label()),
            &[
                "workload/policy",
                "Time (s)",
                "Energy (J)",
                "Read (J)",
                "Promo",
                "Demo",
                "Verified"
            ],
            &rows
        )
    );
    if let Some(noop) = placement::gap_ratio_under(&results, PolicyKind::Noop) {
        println!(
            "random/sequential read-energy ratio under noop: {noop:.1}x (the Table III cliff)"
        );
        for policy in [PolicyKind::FreqRecency, PolicyKind::EnergyGreedy] {
            if let Some(r) = placement::gap_ratio_under(&results, policy) {
                println!("  under {}: {r:.1}x", policy.label());
            }
        }
    }
}

fn cmd_cluster(mut args: Args) {
    let mut flags = GridFlags::default();
    let mut kind: Option<ClusterKind> = None;
    let mut staging = StagingConfig::default();
    while let Some(a) = args.next_arg() {
        if flags.take(&a, &mut args) {
            continue;
        }
        match a.as_str() {
            "--kind" => {
                kind = Some(args.choice("kind", "post|insitu|intransit", ClusterKind::parse))
            }
            "--staging-nodes" => staging.staging_nodes = args.value("staging node count"),
            "--queue-depth" => staging.queue_depth = args.value("queue depth"),
            "--wire-codec" => {
                staging.wire_codec =
                    args.choice("wire codec", "none|delta-rle|quant8", WireCodec::parse)
            }
            _ => usage(),
        }
    }
    let setup = cluster_sweep::ClusterSetup {
        staging,
        faults: flags.fault_seed.map(FaultPlan::with_seed),
        trace: flags.traced(),
    };
    let grid = cluster_sweep::cluster_jobs(kind);
    eprintln!(
        "running the cluster grid ({} cell(s), staging {} node(s), depth {}, wire {}) on \
         {} worker(s)...",
        grid.len(),
        staging.staging_nodes,
        staging.queue_depth,
        staging.wire_codec.label(),
        flags.jobs
    );
    let results = timed_grid("cluster", "cluster", |progress| {
        cluster_sweep::run_cluster_sweep(grid, &setup, flags.jobs, progress)
    });
    flags.write_artifacts(
        "",
        "repro_out/cluster.json",
        cluster_sweep::cluster_manifest_json(&setup, &results),
        || cluster_sweep::cluster_journal(&results),
        || cluster_sweep::cluster_metrics_json(&results),
    );
    let mut rows = Vec::new();
    for r in &results {
        if r.summary.total_faults() > 0 {
            eprintln!("{} ran degraded: {}", r.key, r.summary.describe());
        }
        rows.push(vec![
            r.key.clone(),
            report::f(r.report.makespan_s, 2),
            report::f(r.report.total_energy_j / 1000.0, 2),
            report::f(r.report.average_power_w, 0),
            format!("{}", r.report.fabric_bytes),
            format!("{}", r.report.pfs_bytes),
            if r.report.verified {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    print!(
        "{}",
        report::render_table(
            "Distributed pipelines (case-study grid)",
            &[
                "case/kind",
                "Makespan (s)",
                "Energy (kJ)",
                "Avg W",
                "Fabric B",
                "PFS B",
                "Verified"
            ],
            &rows
        )
    );
}

fn cmd_cap(args: &[String]) {
    if args.is_empty() {
        usage();
    }
    let caps: Vec<f64> = args.iter().map(|s| parse(s, "cap in watts")).collect();
    let cfg = PipelineConfig::case_study(1);
    eprintln!(
        "sweeping {} power caps over the in-situ pipeline...",
        caps.len()
    );
    let runs = cap_sweep(&cfg, &caps).unwrap_or_else(|e| {
        eprintln!("capped run failed: {e}");
        std::process::exit(2);
    });
    if runs.is_empty() {
        println!("no feasible cap (the node's floor is ~123.5 W)");
        return;
    }
    let mut rows = Vec::new();
    for r in &runs {
        rows.push(vec![
            report::f(r.cap_w, 0),
            format!("{:.0}%", r.freq_scale * 100.0),
            report::f(r.execution_time_s, 1),
            report::f(r.energy_j / 1000.0, 1),
            report::f(r.peak_power_w, 1),
        ]);
    }
    print!(
        "{}",
        report::render_table(
            "Power-cap sweep (in-situ)",
            &["Cap (W)", "Clock", "Time (s)", "Energy (kJ)", "Peak (W)"],
            &rows
        )
    );
}

fn cmd_adaptive(args: &[String]) {
    let threshold: f64 = args.first().map(|s| parse(s, "threshold")).unwrap_or(0.15);
    let cfg = PipelineConfig::case_study(1);
    let policy = AdaptivePolicy {
        window_steps: 5,
        io_energy_threshold: threshold,
    };
    eprintln!("running the adaptive runtime (threshold {threshold})...");
    let mut node = Node::new(HardwareSpec::table1());
    let r = run_adaptive(&mut node, &cfg, &policy).unwrap_or_else(|e| {
        eprintln!("adaptive run failed: {e}");
        std::process::exit(2);
    });
    match r.switched_at_step {
        Some(step) => println!("switched to in-situ after step {step}"),
        None => println!("stayed in post-processing for the whole run"),
    }
    println!(
        "time {:.1} s, energy {:.1} kJ, {} raw snapshots kept, {} images written",
        r.execution_time_s,
        r.energy_j / 1000.0,
        r.snapshots_kept,
        r.images_written
    );
}

fn cmd_trace(args: &[String]) {
    let (Some(verb), Some(path)) = (args.first(), args.get(1)) else {
        usage()
    };
    if verb != "summarize" {
        usage();
    }
    let journal = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        std::process::exit(1);
    });
    let summary = match greenness_trace::summarize::summarize(&journal) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot parse {path}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "{} event(s), {} job(s), {} span(s) checked, {} phase cross-check(s)",
        summary.events, summary.jobs, summary.spans_checked, summary.phases_checked
    );
    print!("{}", summary.table());
    if summary.audit_ok() {
        println!("audit: OK");
    } else {
        eprintln!("audit: {} violation(s)", summary.audit_errors.len());
        for e in &summary.audit_errors {
            eprintln!("  - {e}");
        }
        std::process::exit(1);
    }
}

fn cmd_advisor(args: &[String]) {
    if args.len() < 4 {
        usage();
    }
    let bytes: u64 = parse(&args[0], "byte count");
    let passes: u32 = parse(&args[1], "pass count");
    let behavior = match args[2].as_str() {
        "seq" => IoBehavior::Sequential,
        "rand" => IoBehavior::Random { op_bytes: 4096 },
        other => {
            eprintln!("expected seq|rand, got {other}");
            std::process::exit(2);
        }
    };
    let needs_exploration = match args[3].as_str() {
        "explore" => true,
        "no-explore" => false,
        other => {
            eprintln!("expected explore|no-explore, got {other}");
            std::process::exit(2);
        }
    };
    let w = WorkloadProfile {
        pass_bytes: bytes,
        passes,
        behavior,
        needs_exploration,
        min_keep_fraction: 1.0,
    };
    let a = recommend(&HardwareSpec::table1(), &w);
    println!("current I/O energy : {:.2} kJ", a.current_io_j / 1000.0);
    println!("in-situ            : {:.2} kJ", a.insitu_io_j / 1000.0);
    println!(
        "reorganized        : {:.2} kJ (one-time {:.2} kJ)",
        (a.reorg_cost_j + a.reorg_pass_j * passes.max(1) as f64) / 1000.0,
        a.reorg_cost_j / 1000.0
    );
    let verdict = match a.technique {
        Technique::InSitu => "go in-situ".to_string(),
        Technique::Reorganize => "reorganize the data layout".to_string(),
        Technique::DataSampling { keep_fraction } => {
            format!("sample (keep {:.0}%)", keep_fraction * 100.0)
        }
        Technique::KeepPostProcessing => "keep post-processing".to_string(),
    };
    println!("recommendation     : {verdict}");
}

fn cmd_serve(mut args: Args) {
    let mut addr = "127.0.0.1:0".to_string();
    let mut config = ServiceConfig::default();
    while let Some(a) = args.next_arg() {
        match a.as_str() {
            "--addr" => addr = args.text(),
            "--jobs" | "-j" => config.jobs = args.value("worker count"),
            "--cache-bytes" => config.cache_bytes = args.value("cache budget"),
            "--slots" => config.slots = args.value("slot count"),
            "--queue-depth" => config.queue_depth = args.value("queue depth"),
            "--fault-seed" => config.faults = Some(FaultPlan::with_seed(args.value("fault seed"))),
            _ => usage(),
        }
    }
    let server = Server::start(&addr, config).unwrap_or_else(|e| {
        eprintln!("cannot bind {addr}: {e}");
        std::process::exit(1);
    });
    // The smoke harness greps this exact line for the ephemeral port.
    println!("listening on {}", server.addr());
    use std::io::Write as _;
    std::io::stdout().flush().expect("flush stdout");
    eprintln!("serving greenness-serve/v1; send {{\"op\":\"shutdown\"}} to drain");
    server.run_to_completion();
    eprintln!("drained; bye");
}

/// The value of `--shards`: a fleet needs a shard, so 0 exits 2.
fn shard_count(args: &mut Args) -> u32 {
    let shards = args.value("shard count");
    if shards == 0 {
        eprintln!("--shards must be at least 1");
        std::process::exit(2);
    }
    shards
}

fn cmd_fleet(mut args: Args) {
    let mut addr = "127.0.0.1:0".to_string();
    let mut config = FleetConfig::default();
    let mut shard_addrs = false;
    while let Some(a) = args.next_arg() {
        match a.as_str() {
            "--addr" => addr = args.text(),
            "--shards" => config.shards = shard_count(&mut args),
            "--replicas" => config.replicas = args.value("replica count"),
            "--ring-seed" => config.ring_seed = args.value("ring seed"),
            "--vnodes" => config.vnodes = args.value("vnode count"),
            "--jobs" | "-j" => config.jobs = args.value("worker count"),
            "--cache-bytes" => config.cache_bytes = args.value("cache budget"),
            "--slots" => config.slots = args.value("slot count"),
            "--queue-depth" => config.queue_depth = args.value("queue depth"),
            "--hot-threshold" => config.hot_threshold = args.value("hot threshold"),
            "--fault-seed" => config.faults = Some(FaultPlan::with_seed(args.value("fault seed"))),
            "--shard-addrs" => shard_addrs = true,
            _ => usage(),
        }
    }
    let fleet = std::sync::Arc::new(Fleet::new(config));
    let server =
        Server::start_with_service(&addr, std::sync::Arc::clone(&fleet)).unwrap_or_else(|e| {
            eprintln!("cannot bind {addr}: {e}");
            std::process::exit(1);
        });
    // The smoke harness greps this exact line for the ephemeral port.
    println!("listening on {}", server.addr());
    // Optional per-shard debug listeners: a direct window onto one shard's
    // cache and metrics, bypassing the router. Churn only removes a shard
    // from the *ring*; its debug port stays up until drain.
    let mut shard_servers = Vec::new();
    if shard_addrs {
        for id in 0..config.shards {
            let service = fleet.shard_service(id).expect("shard exists at boot");
            let shard = Server::start_with_service("127.0.0.1:0", service).unwrap_or_else(|e| {
                eprintln!("cannot bind shard {id} listener: {e}");
                std::process::exit(1);
            });
            println!("shard {id} listening on {}", shard.addr());
            shard_servers.push(shard);
        }
    }
    use std::io::Write as _;
    std::io::stdout().flush().expect("flush stdout");
    eprintln!(
        "routing over {} shard(s), {}-way replication, ring seed {}; send {{\"op\":\"shutdown\"}} to drain",
        config.shards, config.replicas, config.ring_seed
    );
    server.run_to_completion();
    for shard in shard_servers {
        shard.shutdown();
        shard.join();
    }
    eprintln!("drained; bye");
}

fn cmd_query(args: &[String]) {
    let (Some(addr), Some(request)) = (args.first(), args.get(1)) else {
        usage()
    };
    let response = greenness_serve::query(addr, request).unwrap_or_else(|e| {
        eprintln!("query to {addr} failed: {e}");
        std::process::exit(1);
    });
    println!("{response}");
    // Exit nonzero on a protocol-level error so shell callers can assert.
    let ok = greenness_serve::json::Json::parse(&response)
        .ok()
        .and_then(|doc| doc.get("ok").and_then(|v| v.as_bool()))
        .unwrap_or(false);
    if !ok {
        std::process::exit(1);
    }
}

/// The fixed scripted steering session used by `greenness steer`, the
/// `bench-serve --sessions` harness, and CI's byte-compare smoke: attach,
/// three adjust/render rounds (I/O cadence, resolution, camera), a
/// mid-session re-attach (the resume path), a final render, detach. `id0`
/// offsets request ids so interleaved sessions stay globally unique.
fn steer_script(session: &str, id0: u64) -> Vec<String> {
    let ops = [
        format!(
            r#""op":"steer.attach","params":{{"session":"{session}","interval":2,"timesteps":12}}"#
        ),
        format!(r#""op":"steer.render","params":{{"session":"{session}","seq":1,"steps":3}}"#),
        format!(
            r#""op":"steer.adjust","params":{{"session":"{session}","seq":2,"kind":"io_interval","io_interval":3}}"#
        ),
        format!(r#""op":"steer.render","params":{{"session":"{session}","seq":3,"steps":3}}"#),
        format!(
            r#""op":"steer.adjust","params":{{"session":"{session}","seq":4,"kind":"resolution","width":96,"height":96}}"#
        ),
        format!(r#""op":"steer.render","params":{{"session":"{session}","seq":5,"steps":2}}"#),
        format!(
            r#""op":"steer.adjust","params":{{"session":"{session}","seq":6,"kind":"camera","colormap":"viridis","range":[0.0,0.3]}}"#
        ),
        format!(
            r#""op":"steer.attach","params":{{"session":"{session}","interval":2,"timesteps":12}}"#
        ),
        format!(r#""op":"steer.render","params":{{"session":"{session}","seq":7,"steps":4}}"#),
        format!(r#""op":"steer.detach","params":{{"session":"{session}","seq":8}}"#),
    ];
    ops.iter()
        .enumerate()
        .map(|(i, body)| {
            format!(
                "{{\"schema\":\"{}\",\"id\":{},{body}}}",
                greenness_serve::SCHEMA,
                id0 + i as u64 + 1
            )
        })
        .collect()
}

fn cmd_steer(mut args: Args) {
    let mut shards = 4u32;
    let mut jobs = 1usize;
    let mut session = String::from("s1");
    let mut fault_seed: Option<u64> = None;
    let mut out: Option<String> = None;
    while let Some(a) = args.next_arg() {
        match a.as_str() {
            "--shards" => shards = shard_count(&mut args),
            "--jobs" | "-j" => jobs = args.value("worker count"),
            "--session" => session = args.text(),
            "--fault-seed" => fault_seed = Some(args.value("fault seed")),
            "--out" => out = Some(args.text()),
            _ => usage(),
        }
    }
    // The scripted session runs through the fleet router so churn and
    // connection drops exercise the re-home/replay machinery; the reply
    // transcript is byte-identical across --jobs, across reruns, and across
    // fault seeds (the router absorbs every fault before replying).
    let fleet = Fleet::new(FleetConfig {
        shards,
        jobs,
        faults: fault_seed.map(FaultPlan::with_seed),
        ..FleetConfig::default()
    });
    let mut transcript = String::new();
    for line in steer_script(&session, 0) {
        let outcome = fleet.handle_line(&line);
        transcript.push_str(&outcome.line);
        transcript.push('\n');
        if !outcome.line.contains("\"ok\":true") {
            eprint!("{transcript}");
            eprintln!("steering script failed on: {line}");
            std::process::exit(1);
        }
    }
    match &out {
        Some(path) => {
            std::fs::write(path, &transcript).expect("write steering transcript");
            eprintln!("wrote {path}");
        }
        None => print!("{transcript}"),
    }
    let m = fleet.metrics_clone();
    eprintln!(
        "session '{session}': {} op(s) ok, {} rehome(s), {} op(s) replayed, {} drop-resume retr(ies)",
        m.counter("fleet.ok"),
        m.counter("fleet.session.rehomed"),
        m.counter("fleet.session.replayed"),
        m.counter("retries.fleet.session.resume"),
    );
}

fn cmd_bench_serve(mut args: Args) {
    let mut requests = 20usize;
    let mut jobs = greenness_bench::default_jobs();
    let mut rate = greenness_fleet::DEFAULT_RATE_RPS;
    let mut out: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut fault_seed: Option<u64> = None;
    let mut shards: Option<u32> = None;
    let mut replicas = 2usize;
    let mut ring_seed = 42u64;
    let mut universe = greenness_fleet::DEFAULT_UNIVERSE;
    let mut zipf = greenness_fleet::DEFAULT_ZIPF_S;
    let mut report_out: Option<String> = None;
    let mut shard_metrics_out: Option<String> = None;
    let mut sessions = 0usize;
    while let Some(a) = args.next_arg() {
        match a.as_str() {
            "--requests" | "-n" => requests = args.value("request count"),
            "--jobs" | "-j" => jobs = args.value("worker count"),
            "--rate" => rate = args.value("request rate"),
            "--out" => out = Some(args.text()),
            "--metrics-out" => metrics_out = Some(args.text()),
            "--fault-seed" => fault_seed = Some(args.value("fault seed")),
            "--shards" => shards = Some(shard_count(&mut args)),
            "--replicas" => replicas = args.value("replica count"),
            "--ring-seed" => ring_seed = args.value("ring seed"),
            "--universe" => universe = args.value("key universe"),
            "--zipf" => zipf = args.value("zipf exponent"),
            "--report-out" => report_out = Some(args.text()),
            "--shard-metrics-out" => shard_metrics_out = Some(args.text()),
            "--sessions" => sessions = args.value("session count"),
            _ => usage(),
        }
    }
    let faults = fault_seed.map(FaultPlan::with_seed);
    // Every replay's response log goes to --out (stdout without it) and its
    // metrics to --metrics-out.
    let emit = |responses: &str, metrics: &str| {
        match &out {
            Some(path) => {
                std::fs::write(path, responses).expect("write response log");
                eprintln!("wrote {path}");
            }
            None => print!("{responses}"),
        }
        if let Some(path) = &metrics_out {
            std::fs::write(path, metrics).expect("write metrics snapshot");
            eprintln!("wrote {path}");
        }
    };
    // Each shard's metrics, from either fleet replay, to --shard-metrics-out.
    let emit_shards = |shard_metrics: &str| {
        if let Some(path) = &shard_metrics_out {
            std::fs::write(path, shard_metrics).expect("write shard metrics");
            eprintln!("wrote {path}");
        }
    };
    if sessions > 0 {
        // Steering-session harness: N scripted sessions interleaved
        // round-robin against one in-process service, or a fleet of
        // `--shards` shards. Injected connection drops are retried like the
        // stateless replay harness — the drop fires *after* the op commits,
        // so the retry hits the engine's sequence-replay path — and the
        // fleet's router absorbs drops and churn itself, so the response log
        // is byte-identical either way.
        let scripts: Vec<Vec<String>> = (0..sessions)
            .map(|s| steer_script(&format!("s{s}"), (s as u64) * 100))
            .collect();
        let interleaved: Vec<&String> = (0..scripts[0].len())
            .flat_map(|phase| scripts.iter().map(move |script| &script[phase]))
            .collect();
        if let Some(shards) = shards {
            bench_fleet_sessions(
                FleetConfig {
                    shards,
                    replicas,
                    ring_seed,
                    jobs,
                    session_slots: sessions.max(8),
                    faults,
                    ..FleetConfig::default()
                },
                &interleaved,
                emit,
                emit_shards,
            );
            return;
        }
        let config = ServiceConfig {
            jobs,
            session_slots: sessions.max(8),
            faults,
            ..ServiceConfig::default()
        };
        let result = greenness_serve::run_replay(config, &interleaved);
        let (responses, retries, m) = (result.responses, result.retries, result.registry);
        let failed = interleaved
            .iter()
            .zip(responses.lines())
            .find(|(_, reply)| !reply.contains("\"ok\":true"));
        if let Some((line, reply)) = failed {
            eprintln!("session harness failed on: {line}\n  reply: {reply}");
            std::process::exit(1);
        }
        if retries > 0 {
            eprintln!(
                "session replay ran degraded: {retries} dropped op(s) retried via seq-replay"
            );
        }
        emit(&responses, &m.to_json());
        eprintln!(
            "{sessions} session(s): {} attach(es), {} adjust(s), {} incremental render(s), {} cached delta(s), {} computed delta(s), {} seq-replay(s)",
            m.counter("steer.attach"),
            m.counter("steer.adjust"),
            m.counter("steer.render.incremental"),
            m.counter("steer.delta.cached"),
            m.counter("steer.delta.computed"),
            m.counter("steer.replayed"),
        );
    } else if let Some(shards) = shards {
        // Fleet replay: open-loop on the virtual clock, Zipfian keys. The
        // response log and the fleet metrics are byte-identical across
        // --jobs always, and across --shards in the fault-free regime.
        let workload = greenness_fleet::fleet_workload(requests, universe, zipf, ring_seed);
        let result = greenness_fleet::run_fleet_replay(
            FleetConfig {
                shards,
                replicas,
                ring_seed,
                jobs,
                faults,
                ..FleetConfig::default()
            },
            &workload,
            rate,
        );
        if result.reroutes > 0 {
            eprintln!(
                "fleet replay ran degraded: {} reroute hop(s) around dropped shard connections",
                result.reroutes
            );
        }
        emit(&result.responses, &result.fleet_metrics);
        emit_shards(&result.shard_metrics);
        match &report_out {
            Some(path) => {
                std::fs::write(path, &result.report).expect("write fleet report");
                eprintln!("wrote {path}");
            }
            None => eprintln!("{}", result.report),
        }
    } else {
        let workload = greenness_serve::replay_workload(requests);
        let result = greenness_serve::run_replay(
            ServiceConfig {
                jobs,
                faults,
                ..ServiceConfig::default()
            },
            &workload,
        );
        if result.retries > 0 {
            eprintln!(
                "replay ran degraded: {} dropped request(s) retried to completion",
                result.retries
            );
        }
        emit(&result.responses, &result.metrics);
    }
}

/// `bench-serve --sessions N --shards M`: the interleaved session scripts
/// through a fleet, one line at a time. Emits the response log and the
/// router's metrics, then each shard's; exits 1 on the first reply that is
/// not ok.
fn bench_fleet_sessions(
    config: FleetConfig,
    lines: &[&String],
    emit: impl Fn(&str, &str),
    emit_shards: impl Fn(&str),
) {
    let fleet = Fleet::new(config);
    let mut responses = String::new();
    for line in lines {
        let reply = fleet.handle_line(line).line;
        if !reply.contains("\"ok\":true") {
            eprintln!("session harness failed on: {line}\n  reply: {reply}");
            std::process::exit(1);
        }
        responses.push_str(&reply);
        responses.push('\n');
    }
    let m = fleet.metrics_clone();
    emit(
        &responses,
        &greenness_trace::metrics_file_json(&[("fleet".to_string(), m.clone())]),
    );
    emit_shards(&greenness_trace::metrics_file_json(&fleet.shard_metrics()));
    eprintln!(
        "{} session op(s) through {} shard(s): {} ok, {} re-home(s), {} op(s) replayed, {} drop-resume retr(ies)",
        lines.len(),
        config.shards,
        m.counter("fleet.ok"),
        m.counter("fleet.session.rehomed"),
        m.counter("fleet.session.replayed"),
        m.counter("retries.fleet.session.resume"),
    );
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let Some(cmd) = argv.next() else { usage() };
    let rest: Vec<String> = argv.collect();
    match cmd.as_str() {
        "placement" => cmd_placement(Args::new(rest)),
        "cluster" => cmd_cluster(Args::new(rest)),
        "cap" => cmd_cap(&rest),
        "adaptive" => cmd_adaptive(&rest),
        "advisor" => cmd_advisor(&rest),
        "trace" => cmd_trace(&rest),
        "serve" => cmd_serve(Args::new(rest)),
        "steer" => cmd_steer(Args::new(rest)),
        "fleet" => cmd_fleet(Args::new(rest)),
        "query" => cmd_query(&rest),
        "bench-serve" => cmd_bench_serve(Args::new(rest)),
        _ => usage(),
    }
}
