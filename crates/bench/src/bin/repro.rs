//! Regenerate every table and figure of the paper.
//!
//! ```sh
//! cargo run --release -p greenness-bench --bin repro            # everything
//! cargo run --release -p greenness-bench --bin repro fig10 table3
//! cargo run --release -p greenness-bench --bin repro --jobs 8   # parallel grid
//! ```
//!
//! Artifacts: `table1 fig4 fig5 fig6 table2 fig7 fig8 fig9 fig10 fig11
//! breakdown table3 whatif ext`. Figure time-series (5, 6) are additionally
//! written as CSV under `./repro_out/`, and every grid run writes the
//! per-job results manifest `./repro_out/manifest.json`.
//!
//! `--jobs N` sets the worker-thread count of the sweep executor (default:
//! all cores). Artifacts and the manifest are **byte-identical for every
//! `--jobs` value**: each grid job derives its RNG seed from its job key,
//! never from scheduling (see `greenness_core::sweep`).
//!
//! `--trace PATH` writes the grid's `greenness-trace/v1` event journal and
//! `--metrics PATH` its `greenness-metrics/v1` counter/gauge registry when
//! the case-study grid runs (both are byte-identical across `--jobs`
//! values; inspect a journal with `greenness trace summarize PATH`).
//!
//! `--fault-seed N` turns on seeded fault injection with retry/recovery
//! (deterministic per seed). Every valued flag may also be spelled
//! `--flag=value`.
//!
//! `--alpha A` / `--dt D` override the solver's diffusivity and timestep on
//! every case-study config; overrides are validated up front and a config
//! that fails [`greenness_heatsim::SolverConfig::validate`] (non-finite,
//! negative, or CFL-unstable) exits 2 with a structured message.

use std::collections::BTreeSet;

use greenness_bench::cli::{Args, GridFlags};
use greenness_core::breakdown::case_savings;
use greenness_core::sweep::{self, SweepJob};
use greenness_core::whatif::WhatIfAnalysis;
use greenness_core::{
    probes, report, CaseComparison, ExperimentSetup, PipelineConfig, PipelineKind,
};
use greenness_platform::{HardwareSpec, Phase};
use greenness_power::PowerProfile;

const ARTIFACTS: &[&str] = &[
    "table1",
    "fig4",
    "fig5",
    "fig6",
    "table2",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "breakdown",
    "table3",
    "whatif",
    "ext",
];

struct Lazy {
    setup: ExperimentSetup,
    flags: GridFlags,
    alpha: Option<f64>,
    dt: Option<f64>,
    cases: Option<Vec<CaseComparison>>,
    nnprobes: Option<(probes::ProbeResult, probes::ProbeResult)>,
}

impl Lazy {
    fn cases(&mut self) -> &[CaseComparison] {
        if self.cases.is_none() {
            eprintln!(
                "[repro] running all case studies (both pipelines x 3) on {} worker(s)...",
                self.flags.jobs
            );
            let t0 = std::time::Instant::now();
            let mut grid = sweep::case_grid(&self.setup, &[1, 2, 3]);
            for job in &mut grid {
                if let Some(a) = self.alpha {
                    job.cfg.solver.alpha = a;
                }
                if let Some(d) = self.dt {
                    job.cfg.solver.dt = d;
                }
            }
            let results = sweep::run_sweep(grid, self.flags.jobs, &|done, total, key| {
                eprintln!("[sweep] {done}/{total} done: {key}");
            })
            .unwrap_or_else(|e| {
                eprintln!("[repro] case-study grid failed: {e}");
                std::process::exit(1);
            });
            eprintln!(
                "[repro] grid finished in {:.2} s host wall-clock ({} jobs, {} workers)",
                t0.elapsed().as_secs_f64(),
                results.len(),
                self.flags.jobs
            );
            self.flags.write_artifacts(
                "[repro] ",
                "repro_out/manifest.json",
                sweep::manifest_json(&results),
                || sweep::sweep_journal(&results),
                || sweep::sweep_metrics_json(&results),
            );
            self.cases = Some(sweep::comparisons(&results));
        }
        self.cases.as_ref().expect("just computed")
    }

    fn nnprobes(&mut self) -> &(probes::ProbeResult, probes::ProbeResult) {
        if self.nnprobes.is_none() {
            eprintln!("[repro] running nnread/nnwrite probes (50 s each)...");
            let probe = |r: Result<probes::ProbeResult, _>| {
                r.unwrap_or_else(|e| {
                    eprintln!("[repro] probe failed: {e}");
                    std::process::exit(1);
                })
            };
            self.nnprobes = Some((
                probe(probes::nnread(&self.setup, 128 * 1024, 50.0)),
                probe(probes::nnwrite(&self.setup, 128 * 1024, 50.0)),
            ));
        }
        self.nnprobes.as_ref().expect("just computed")
    }
}

fn pair_rows(
    cases: &[CaseComparison],
    f: impl Fn(&CaseComparison) -> (f64, f64),
    prec: usize,
) -> Vec<Vec<String>> {
    cases
        .iter()
        .map(|c| {
            let (insitu, post) = f(c);
            vec![
                format!("Case study {}", c.case),
                report::f(insitu, prec),
                report::f(post, prec),
            ]
        })
        .collect()
}

fn emit_pair_table(
    title: &str,
    cases: &[CaseComparison],
    f: impl Fn(&CaseComparison) -> (f64, f64),
    prec: usize,
) {
    print!(
        "\n{}",
        report::render_table(
            title,
            &["", "In-situ", "Traditional"],
            &pair_rows(cases, f, prec)
        )
    );
}

fn main() {
    let mut flags = GridFlags::default();
    let (mut alpha, mut dt): (Option<f64>, Option<f64>) = (None, None);
    let mut names: Vec<String> = Vec::new();
    let mut args = Args::new(std::env::args().skip(1).collect());
    while let Some(a) = args.next_arg() {
        if flags.take(&a, &mut args) {
            continue;
        }
        match a.as_str() {
            "--alpha" => alpha = Some(args.value("alpha")),
            "--dt" => dt = Some(args.value("dt")),
            _ => names.push(a),
        }
    }
    flags.jobs = flags.jobs.max(1);
    // Solver overrides are usage input: validate them against every case
    // config up front so a bad --alpha/--dt exits 2 before any work runs.
    if alpha.is_some() || dt.is_some() {
        for n in [1, 2, 3] {
            let mut cfg = PipelineConfig::case_study(n);
            if let Some(a) = alpha {
                cfg.solver.alpha = a;
            }
            if let Some(d) = dt {
                cfg.solver.dt = d;
            }
            if let Err(e) = cfg.solver.validate(cfg.grid_nx, cfg.grid_ny) {
                eprintln!("invalid solver config for case {n}: {e}");
                std::process::exit(2);
            }
        }
    }
    let wanted: BTreeSet<String> = if names.is_empty() || names.iter().any(|a| a == "all") {
        ARTIFACTS.iter().map(|s| s.to_string()).collect()
    } else {
        if let Some(a) = names.iter().find(|a| !ARTIFACTS.contains(&a.as_str())) {
            eprintln!("unknown artifact '{a}'; available: {ARTIFACTS:?}");
            std::process::exit(2);
        }
        names.into_iter().collect()
    };
    let jobs = flags.jobs;
    // Either observability flag turns on the event journal + metrics
    // registry for every grid job (deterministic: byte-identical output
    // for every --jobs value).
    let setup = ExperimentSetup {
        trace: flags.traced(),
        // Seeded fault injection: each grid job derives its own fault
        // schedule from this base plan and its job key, so artifacts stay
        // byte-identical for every --jobs value.
        faults: flags.fault_seed.map(greenness_faults::FaultPlan::with_seed),
        ..ExperimentSetup::default()
    };
    let mut lazy = Lazy {
        setup,
        flags,
        alpha,
        dt,
        cases: None,
        nnprobes: None,
    };
    std::fs::create_dir_all("repro_out").expect("create ./repro_out");

    if wanted.contains("table1") {
        let rows: Vec<Vec<String>> = HardwareSpec::table1()
            .table1_rows()
            .into_iter()
            .map(|(k, v)| vec![k.to_string(), v])
            .collect();
        print!(
            "\n{}",
            report::render_table(
                "Table I — hardware specification",
                &["H/W Type", "H/W Detail"],
                &rows
            )
        );
    }

    if wanted.contains("fig4") {
        let rows: Vec<Vec<String>> = lazy
            .cases()
            .iter()
            .map(|c| {
                vec![
                    format!("Case study {}", c.case),
                    report::pct(c.post.time_pct(Phase::Simulation)),
                    report::pct(c.post.time_pct(Phase::Write)),
                    report::pct(c.post.time_pct(Phase::Read)),
                    report::pct(c.post.time_pct(Phase::Visualization)),
                ]
            })
            .collect();
        print!(
            "\n{}",
            report::render_table(
                "Figure 4 — % execution time per stage (post-processing)",
                &["", "Simulation", "Write", "Read", "Visualization"],
                &rows
            )
        );
        println!("(paper: 33/30/27/10, 50/22/21/7, 80/9/8/3)");
    }

    if wanted.contains("fig5") {
        println!("\nFigure 5 — power profiles (system channel sparklines; CSVs in ./repro_out/)");
        let panels = "abcdef".as_bytes();
        // Recompute profiles noiselessly? No: use the measured (noisy) ones,
        // as the paper's plots come from the real meters.
        let cases: Vec<(u32, String, PowerProfile)> = lazy
            .cases()
            .iter()
            .flat_map(|c| {
                [
                    (
                        c.case,
                        "post-processing".to_string(),
                        c.post.profile.clone(),
                    ),
                    (c.case, "in-situ".to_string(), c.insitu.profile.clone()),
                ]
            })
            .collect();
        for (k, (case, kind, profile)) in cases.into_iter().enumerate() {
            let panel = panels[k] as char;
            let path = format!("repro_out/fig5{panel}_{kind}_case{case}.csv");
            std::fs::write(&path, profile.to_csv()).expect("write CSV");
            println!(
                "  5{panel} {kind:>16} case {case}: {:>4} samples, avg {:>5.1} W  {}",
                profile.len(),
                profile.average_system_w(),
                profile.ascii_sparkline(48),
            );
        }
    }

    if wanted.contains("fig6") {
        let (read, write) = lazy.nnprobes().clone();
        println!("\nFigure 6 — nnread/nnwrite stage power profiles (CSVs in ./repro_out/)");
        for p in [&read, &write] {
            let profile = PowerProfile::measure(&p.timeline, &lazy.setup.meter);
            std::fs::write(format!("repro_out/fig6_{}.csv", p.name), profile.to_csv())
                .expect("write CSV");
            println!(
                "  {:>7}: avg {:>5.1} W over {:>4.0} s  {}",
                p.name,
                p.avg_total_w,
                p.timeline.end().as_secs_f64(),
                profile.ascii_sparkline(48),
            );
        }
    }

    if wanted.contains("table2") {
        let (read, write) = lazy.nnprobes().clone();
        let rows = vec![
            vec![
                "Avg. Power (Total)".to_string(),
                report::f(read.avg_total_w, 1),
                report::f(write.avg_total_w, 1),
            ],
            vec![
                "Avg. Power (Dynamic)".to_string(),
                report::f(read.avg_dynamic_w, 1),
                report::f(write.avg_dynamic_w, 1),
            ],
        ];
        print!(
            "\n{}",
            report::render_table(
                "Table II — properties of nnread and nnwrite stages",
                &["Metric", "nnread", "nnwrite"],
                &rows
            )
        );
        println!("(paper: 115.1/114.8 total, 10.3/10.0 dynamic)");
    }

    if wanted.contains("fig7") {
        emit_pair_table(
            "Figure 7 — execution time (s)",
            lazy.cases(),
            CaseComparison::execution_times_s,
            1,
        );
        let reductions: Vec<String> = lazy
            .cases()
            .iter()
            .map(|c| report::pct(c.time_reduction_pct()))
            .collect();
        println!("in-situ time reduction: {}", reductions.join(", "));
        println!("(the paper's text claims 92/52/26% here, inconsistent with its Figs 8-10; see EXPERIMENTS.md)");
    }

    if wanted.contains("fig8") {
        emit_pair_table(
            "Figure 8 — average power (W)",
            lazy.cases(),
            CaseComparison::average_powers_w,
            1,
        );
        let incs: Vec<String> = lazy
            .cases()
            .iter()
            .map(|c| report::pct(c.power_increase_pct()))
            .collect();
        println!(
            "in-situ power increase: {} (paper: 8/5/3%)",
            incs.join(", ")
        );
    }

    if wanted.contains("fig9") {
        emit_pair_table(
            "Figure 9 — peak power (W)",
            lazy.cases(),
            CaseComparison::peak_powers_w,
            1,
        );
        println!("(paper: no significant difference)");
    }

    if wanted.contains("fig10") {
        emit_pair_table(
            "Figure 10 — energy (J)",
            lazy.cases(),
            |c| c.energies_j(),
            0,
        );
        let savings: Vec<String> = lazy
            .cases()
            .iter()
            .map(|c| report::pct(c.energy_savings_pct()))
            .collect();
        println!(
            "in-situ energy savings: {} (paper: 43/30/18%)",
            savings.join(", ")
        );
    }

    if wanted.contains("fig11") {
        emit_pair_table(
            "Figure 11 — energy efficiency (normalized)",
            lazy.cases(),
            CaseComparison::normalized_efficiencies,
            2,
        );
        let gains: Vec<String> = lazy
            .cases()
            .iter()
            .map(|c| report::pct(c.efficiency_improvement_pct()))
            .collect();
        println!(
            "in-situ efficiency improvement: {} (paper: 22% to 72%)",
            gains.join(", ")
        );
    }

    if wanted.contains("breakdown") {
        // §V-C for case study 1, priced at Table II's probes.
        let case1 = lazy
            .cases()
            .iter()
            .find(|c| c.case == 1)
            .expect("case 1 ran")
            .clone();
        let (read, write) = lazy.nnprobes();
        let b = case_savings(&case1, read, write);
        println!("\nSection V-C — energy savings breakdown (case study 1)");
        println!("  total savings : {:>7.2} kJ", b.total_j / 1000.0);
        println!(
            "  static (idle-time) : {:>7.2} kJ  ({:.0}%)   [paper: 12.8 kJ, 91%]",
            b.static_j / 1000.0,
            b.static_pct()
        );
        println!(
            "  dynamic (data mvmt): {:>7.2} kJ  ({:.0}%)   [paper:  1.2 kJ,  9%]",
            b.dynamic_j / 1000.0,
            b.dynamic_pct()
        );
    }

    if wanted.contains("table3") || wanted.contains("whatif") {
        eprintln!("[repro] running the four 4 GiB fio jobs...");
        let analysis = match WhatIfAnalysis::run(&lazy.setup, 4 * 1024 * 1024 * 1024) {
            Ok(a) => a,
            Err(e) => {
                eprintln!("[repro] fio matrix failed: {e}");
                std::process::exit(1);
            }
        };
        if wanted.contains("table3") {
            let headers = ["Metric", "Seq Read", "Rand Read", "Seq Write", "Rand Write"];
            let col = |f: &dyn Fn(&greenness_storage::FioResult) -> String| -> Vec<String> {
                analysis.fio.iter().map(f).collect()
            };
            let mut rows = Vec::new();
            for (name, vals) in [
                (
                    "Execution time (s)",
                    col(&|r| report::f(r.execution_time_s, 1)),
                ),
                (
                    "Full-system power (W)",
                    col(&|r| report::f(r.full_system_power_w, 1)),
                ),
                (
                    "Disk dynamic power (W)",
                    col(&|r| report::f(r.disk_dyn_power_w, 1)),
                ),
                (
                    "Disk dynamic energy (kJ)",
                    col(&|r| report::f(r.disk_dyn_energy_kj, 2)),
                ),
                (
                    "Full-system energy (kJ)",
                    col(&|r| report::f(r.full_system_energy_kj, 1)),
                ),
            ] {
                let mut row = vec![name.to_string()];
                row.extend(vals);
                rows.push(row);
            }
            print!(
                "\n{}",
                report::render_table("Table III — fio tests", &headers, &rows)
            );
            println!("(paper rows: 35.9/2230.0/27.0/31.0 s; 118/107/115.4/117.9 W; 13.5/2.5/10.9/13.4 W)");
        }
        if wanted.contains("whatif") {
            println!("\nSection V-D — what-if for a random-I/O application");
            println!(
                "  adopt in-situ        : saves {:>6.1} kJ per pass pair   [paper: 242.2 kJ]",
                analysis.random_io_energy_kj
            );
            println!(
                "  adopt reorganization : loses only {:>5.1} kJ ({:.1}%)      [paper: 7.3 kJ]",
                analysis.reorganized_io_energy_kj,
                analysis.retained_fraction() * 100.0
            );
        }
    }
    if wanted.contains("ext") {
        print_extensions(&lazy.setup, jobs);
    }
    println!();
}

/// Future-work extension studies (not in the paper's evaluation): storage
/// technologies, distributed pipelines, data-reduction variants and DVFS.
fn print_extensions(setup: &ExperimentSetup, jobs: usize) {
    use greenness_cluster::{ClusterConfig, ClusterKind};
    use greenness_core::pipeline::cluster::run_cluster;
    use greenness_core::variants::{run_variant, CodecChoice, Variant};
    use greenness_core::PipelineConfig;
    use greenness_platform::Node;

    eprintln!("[repro] running extension studies...");

    // Storage technologies (§VI-A: SSD / NVRAM / RAID) — an 8-job grid
    // (4 specs × both pipelines) submitted through the sweep executor.
    let cfg = PipelineConfig::case_study(1);
    let mut raid_spec = HardwareSpec::table1();
    raid_spec.disk = raid_spec.disk.raid0(4);
    raid_spec.name = "Table I node with 4x RAID-0 HDDs".into();
    let specs = [
        HardwareSpec::table1(),
        raid_spec,
        HardwareSpec::table1_with_ssd(),
        HardwareSpec::table1_with_nvram(),
    ];
    let grid: Vec<SweepJob> = specs
        .iter()
        .flat_map(|spec| {
            [PipelineKind::PostProcessing, PipelineKind::InSitu].map(|kind| SweepJob {
                case: 1,
                kind,
                cfg: cfg.clone(),
                setup: ExperimentSetup {
                    spec: spec.clone(),
                    ..setup.clone()
                },
            })
        })
        .collect();
    let results = sweep::run_sweep(grid, jobs, &|done, total, key| {
        eprintln!("[sweep] {done}/{total} done: {key}");
    })
    .unwrap_or_else(|e| {
        eprintln!("[repro] storage-technology grid failed: {e}");
        std::process::exit(1);
    });
    let mut rows = Vec::new();
    for (spec, cmp) in specs.iter().zip(sweep::comparisons(&results)) {
        rows.push(vec![
            spec.name
                .split(',')
                .next()
                .unwrap_or(&spec.name)
                .to_string(),
            report::f(cmp.post.metrics.execution_time_s, 1),
            report::f(cmp.post.metrics.energy_j / 1000.0, 1),
            report::pct(cmp.energy_savings_pct()),
        ]);
    }
    print!(
        "\n{}",
        report::render_table(
            "Extension — case study 1 across storage technologies",
            &["Device", "T_post (s)", "E_post (kJ)", "In-situ savings"],
            &rows
        )
    );

    // Distributed pipelines.
    let ccfg = ClusterConfig::small(4, 2);
    let mut rows = Vec::new();
    for kind in [
        ClusterKind::PostProcessing,
        ClusterKind::InSitu,
        ClusterKind::InTransit,
    ] {
        let r = run_cluster(kind, &ccfg).unwrap_or_else(|e| {
            eprintln!("[repro] cluster {kind:?} failed: {e}");
            std::process::exit(1);
        });
        rows.push(vec![
            format!("{kind:?}"),
            report::f(r.makespan_s, 2),
            report::f(r.total_energy_j / 1000.0, 2),
            report::f(r.average_power_w, 0),
        ]);
    }
    print!(
        "\n{}",
        report::render_table(
            "Extension — distributed pipelines (4 compute + 2 PFS + 1 viz)",
            &["Pipeline", "Makespan (s)", "Energy (kJ)", "Avg W"],
            &rows
        )
    );

    // Data-reduction variants on the case-1 workload.
    let mut rows = Vec::new();
    for (name, v) in [
        ("sampled (stride 4)", Variant::SampledPost { stride: 4 }),
        (
            "compressed lossless",
            Variant::CompressedPost {
                codec: CodecChoice::Lossless,
            },
        ),
        (
            "compressed quant16",
            Variant::CompressedPost {
                codec: CodecChoice::Quantized,
            },
        ),
        ("image DB (3 views)", Variant::ImageDatabase { views: 3 }),
    ] {
        let mut node = Node::new(setup.spec.clone());
        let out = run_variant(v, &mut node, &cfg).unwrap_or_else(|e| {
            eprintln!("[repro] variant '{name}' failed: {e}");
            std::process::exit(1);
        });
        rows.push(vec![
            name.to_string(),
            report::f(out.execution_time_s, 1),
            report::f(out.energy_j / 1000.0, 1),
            format!("{:.1}x", out.reduction_factor()),
            if out.verified {
                "yes".into()
            } else {
                "NO".into()
            },
        ]);
    }
    print!(
        "\n{}",
        report::render_table(
            "Extension — pipeline variants (case-1 workload)",
            &[
                "Variant",
                "Time (s)",
                "Energy (kJ)",
                "Reduction",
                "Verified"
            ],
            &rows
        )
    );

    // DVFS sweep on the in-situ pipeline.
    let mut rows = Vec::new();
    for scale in [1.0, 0.8, 0.6, 0.5] {
        let mut node = Node::new(setup.spec.clone());
        let out = run_variant(Variant::DvfsSim { freq_scale: scale }, &mut node, &cfg)
            .unwrap_or_else(|e| {
                eprintln!("[repro] DVFS sweep at {scale} failed: {e}");
                std::process::exit(1);
            });
        rows.push(vec![
            format!("{:.0}%", scale * 100.0),
            report::f(out.execution_time_s, 1),
            report::f(out.energy_j / 1000.0, 1),
            report::f(out.energy_j / out.execution_time_s, 1),
        ]);
    }
    print!(
        "\n{}",
        report::render_table(
            "Extension — DVFS sweep (in-situ, simulation clock)",
            &["Clock", "Time (s)", "Energy (kJ)", "Avg W"],
            &rows
        )
    );
}
