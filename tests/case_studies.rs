//! End-to-end reproduction of the paper's three case studies
//! (Figures 4, 7, 8, 9, 10, 11).
//!
//! Case study 1 runs at full §IV-C scale and is checked against the paper's
//! published values; the cross-case orderings are checked at reduced scale
//! (identical structure and calibration, faster to run).

use greenness_core::{CaseComparison, ExperimentSetup, PipelineConfig};
use greenness_platform::Phase;

fn small_cases() -> Vec<CaseComparison> {
    let setup = ExperimentSetup::noiseless();
    [(1u32, 1u64), (2, 2), (3, 8)]
        .into_iter()
        .map(|(n, interval)| {
            let mut cfg = PipelineConfig::small(interval);
            cfg.timesteps = 16;
            CaseComparison::run_config(n, &cfg, &setup).expect("case runs")
        })
        .collect()
}

#[test]
fn full_scale_case_study_1_matches_the_paper() {
    let cmp = CaseComparison::run_config(
        1,
        &PipelineConfig::case_study(1),
        &ExperimentSetup::noiseless(),
    )
    .expect("case runs");

    // Figure 4: time split ≈ 33 / 30 / 27 / 10 % (sim/write/read/viz).
    let sim = cmp.post.time_pct(Phase::Simulation);
    let write = cmp.post.time_pct(Phase::Write);
    let read = cmp.post.time_pct(Phase::Read);
    let viz = cmp.post.time_pct(Phase::Visualization);
    assert!((sim - 33.0).abs() < 2.0, "sim {sim}%");
    assert!((write - 30.0).abs() < 2.0, "write {write}%");
    assert!((read - 27.0).abs() < 2.0, "read {read}%");
    assert!((viz - 10.0).abs() < 2.0, "viz {viz}%");

    // Figure 10: post-processing energy ≈ 30 kJ; savings ≈ 43% (we measure
    // ≈41%, see EXPERIMENTS.md).
    assert!((cmp.post.metrics.energy_j / 1000.0 - 30.0).abs() < 2.0);
    let savings = cmp.energy_savings_pct();
    assert!((38.0..=46.0).contains(&savings), "savings {savings}%");

    // Figure 8: in-situ draws a few percent more average power (paper: 8%).
    let dp = cmp.power_increase_pct();
    assert!((3.0..=10.0).contains(&dp), "power increase {dp}%");

    // Figure 9: peak power essentially equal.
    let (pi, pt) = cmp.peak_powers_w();
    assert!((pi - pt).abs() < 1.0, "{pi} vs {pt}");

    // Figure 11: case-1 efficiency improvement near the paper's 72%.
    let eff = cmp.efficiency_improvement_pct();
    assert!(
        (60.0..=80.0).contains(&eff),
        "case-1 efficiency gain {eff}% (paper: 72%)"
    );

    // Average power levels are in the Figure 8 axis range (125–150 W).
    for m in [&cmp.post.metrics, &cmp.insitu.metrics] {
        assert!(
            (120.0..=150.0).contains(&m.average_power_w),
            "{}",
            m.average_power_w
        );
    }

    // The storage stack really round-tripped every snapshot.
    assert!(cmp.post.output.verified);
    assert_eq!(cmp.post.output.bytes_written, 50 * 2 * 1024 * 1024);
    assert_eq!(cmp.post.output.bytes_read, cmp.post.output.bytes_written);
}

#[test]
fn savings_ordering_across_case_studies() {
    let cases = small_cases();
    // Figure 10: savings shrink monotonically as I/O thins (43 > 30 > 18).
    assert!(cases[0].energy_savings_pct() > cases[1].energy_savings_pct());
    assert!(cases[1].energy_savings_pct() > cases[2].energy_savings_pct());
    // In-situ wins energy in every case.
    for c in &cases {
        assert!(c.energy_savings_pct() > 0.0, "case {}", c.case);
    }
}

#[test]
fn power_increase_ordering_across_case_studies() {
    let cases = small_cases();
    // Figure 8: the in-situ power premium also shrinks (8 > 5 > 3 %).
    assert!(cases[0].power_increase_pct() >= cases[1].power_increase_pct());
    assert!(cases[1].power_increase_pct() >= cases[2].power_increase_pct());
    for c in &cases {
        assert!(c.power_increase_pct() > 0.0, "case {}", c.case);
    }
}

#[test]
fn execution_time_ordering_across_case_studies() {
    let cases = small_cases();
    for c in &cases {
        let (ti, tp) = c.execution_times_s();
        assert!(ti < tp, "case {}: in-situ {ti}s vs post {tp}s", c.case);
    }
    // Less I/O ⇒ shorter post-processing runs.
    assert!(cases[0].post.metrics.execution_time_s > cases[1].post.metrics.execution_time_s);
    assert!(cases[1].post.metrics.execution_time_s > cases[2].post.metrics.execution_time_s);
}

#[test]
fn peak_power_is_io_frequency_invariant() {
    // Figure 9: peaks come from the (identical) simulation phase everywhere.
    let cases = small_cases();
    let p0 = cases[0].post.metrics.peak_power_w;
    for c in &cases {
        for m in [&c.post.metrics, &c.insitu.metrics] {
            assert!(
                (m.peak_power_w - p0).abs() < 1.0,
                "case {}: {}",
                c.case,
                m.peak_power_w
            );
        }
    }
}

#[test]
fn post_processing_profile_has_two_power_phases() {
    // Figure 5a: a high-power sim+write phase followed by a lower-power
    // read+viz phase; in-situ (Fig. 5b) has no such phase structure.
    let cmp = {
        let mut cfg = PipelineConfig::small(1);
        cfg.timesteps = 16;
        CaseComparison::run_config(1, &cfg, &ExperimentSetup::noiseless()).expect("case runs")
    };
    let post = &cmp.post.timeline;
    let phase_avg = |phases: [Phase; 2]| {
        let e: f64 = phases
            .iter()
            .map(|&p| post.phase_energy(p).system_j())
            .sum();
        let t: f64 = phases
            .iter()
            .map(|&p| post.phase_duration(p).as_secs_f64())
            .sum();
        e / t
    };
    let phase1_w = phase_avg([Phase::Simulation, Phase::Write]);
    let phase2_w = phase_avg([Phase::Read, Phase::Visualization]);
    assert!(
        phase1_w > phase2_w + 5.0,
        "phase 1 ({phase1_w:.1} W) should clearly exceed phase 2 ({phase2_w:.1} W)"
    );
}
