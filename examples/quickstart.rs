//! Quickstart: reproduce the paper's headline result.
//!
//! Runs case study 1 (I/O + visualization every iteration, §IV-C) with both
//! pipelines on the simulated Table I node and prints the Figure 7–11
//! quantities plus the headline energy saving (paper: 43%).
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use greenness_core::{report, CaseComparison, ExperimentSetup, PipelineConfig};

fn main() {
    let setup = ExperimentSetup::default();
    println!("node under test : {}", setup.spec.name);
    println!("static power    : {:.1} W", setup.spec.static_w());
    println!();

    println!("running case study 1 (50 timesteps, 2 MiB snapshots, I/O every step)...");
    let cmp =
        CaseComparison::run_config(1, &PipelineConfig::case_study(1), &setup).expect("case runs");

    let rows = vec![
        vec![
            "Execution time (s)".to_string(),
            report::f(cmp.insitu.metrics.execution_time_s, 1),
            report::f(cmp.post.metrics.execution_time_s, 1),
        ],
        vec![
            "Average power (W)".to_string(),
            report::f(cmp.insitu.metrics.average_power_w, 1),
            report::f(cmp.post.metrics.average_power_w, 1),
        ],
        vec![
            "Peak power (W)".to_string(),
            report::f(cmp.insitu.metrics.peak_power_w, 1),
            report::f(cmp.post.metrics.peak_power_w, 1),
        ],
        vec![
            "Energy (kJ)".to_string(),
            report::f(cmp.insitu.metrics.energy_j / 1000.0, 1),
            report::f(cmp.post.metrics.energy_j / 1000.0, 1),
        ],
        vec![
            "Efficiency (normalized)".to_string(),
            report::f(1.0, 2),
            report::f(
                cmp.post.metrics.normalized_efficiency(&cmp.insitu.metrics),
                2,
            ),
        ],
    ];
    println!();
    print!(
        "{}",
        report::render_table(
            "Case study 1 — in-situ vs post-processing",
            &["Metric", "In-situ", "Traditional"],
            &rows
        )
    );
    println!();
    println!(
        "in-situ saves {} energy while drawing {} more average power",
        report::pct(cmp.energy_savings_pct()),
        report::pct(cmp.power_increase_pct()),
    );
    println!("(the paper reports 43% energy savings at ~8% higher average power)");
    println!();
    println!("post-processing time split (Figure 4):");
    for row in cmp.post.phase_rows() {
        println!(
            "  {:<14} {:>5.1}%  ({})",
            row.phase.to_string(),
            row.time_pct,
            row.duration
        );
    }
}
