//! The §V-C analysis end-to-end: Table II probes + the static/dynamic
//! savings decomposition, at full §IV-C scale.

use greenness_core::breakdown::case_savings;
use greenness_core::probes;
use greenness_core::{CaseComparison, ExperimentSetup, PipelineConfig};

/// Table II's two probes at the paper's 128 KiB / 50 s.
fn table2_probes() -> (probes::ProbeResult, probes::ProbeResult) {
    let setup = ExperimentSetup::noiseless();
    (
        probes::nnread(&setup, 128 * 1024, 50.0).expect("probe ok"),
        probes::nnwrite(&setup, 128 * 1024, 50.0).expect("probe ok"),
    )
}

#[test]
fn table2_probe_powers_match_the_paper() {
    let (read, write) = table2_probes();
    // Table II: nnread 115.1 W total / 10.3 W dynamic;
    //           nnwrite 114.8 W total / 10.0 W dynamic.
    assert!(
        (read.avg_total_w - 115.1).abs() < 0.7,
        "nnread total {}",
        read.avg_total_w
    );
    assert!(
        (read.avg_dynamic_w - 10.3).abs() < 0.7,
        "nnread dyn {}",
        read.avg_dynamic_w
    );
    assert!(
        (write.avg_total_w - 114.8).abs() < 0.7,
        "nnwrite total {}",
        write.avg_total_w
    );
    assert!(
        (write.avg_dynamic_w - 10.0).abs() < 0.7,
        "nnwrite dyn {}",
        write.avg_dynamic_w
    );
}

#[test]
fn case1_savings_are_mostly_static() {
    // §V-C headline: ≈12.8 kJ static vs ≈1.2 kJ dynamic — 91% / 9%.
    let cmp = CaseComparison::run_config(
        1,
        &PipelineConfig::case_study(1),
        &ExperimentSetup::noiseless(),
    )
    .expect("case runs");
    let (read, write) = table2_probes();
    let b = case_savings(&cmp, &read, &write);

    let static_kj = b.static_j / 1000.0;
    let dynamic_kj = b.dynamic_j / 1000.0;
    assert!(
        (85.0..=95.0).contains(&b.static_pct()),
        "static share {:.1}% (paper: 91%)",
        b.static_pct()
    );
    assert!(
        (0.8..=1.6).contains(&dynamic_kj),
        "dynamic {dynamic_kj:.2} kJ (paper: 1.2)"
    );
    assert!(
        (10.0..=14.0).contains(&static_kj),
        "static {static_kj:.2} kJ (paper: 12.8)"
    );
}

#[test]
fn probe_profiles_look_like_figure6() {
    // Figure 6 shows flat ≈115 W traces for both probes over ~50 s.
    let setup = ExperimentSetup::noiseless();
    let read = probes::nnread(&setup, 128 * 1024, 30.0).expect("probe ok");
    let profile = greenness_power::PowerProfile::measure(
        &read.timeline,
        &greenness_power::WattsupMeter::noiseless(),
    );
    assert!(profile.len() >= 29);
    for s in &profile.samples {
        assert!(
            (105.0..=125.0).contains(&s.system_w),
            "sample at {}s: {} W outside the Fig. 6 band",
            s.t_s,
            s.system_w
        );
    }
}
