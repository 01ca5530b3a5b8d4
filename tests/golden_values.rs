//! Golden-value regression suite: pins the simulator's headline numbers to
//! the paper's published tables so calibration drift is caught immediately.
//!
//! Tolerances are explicit and deliberately tight — tighter than the
//! behavioural tests elsewhere. If one of these trips after an intentional
//! recalibration, update the pinned value *and* EXPERIMENTS.md together.

use greenness_core::breakdown::case_savings;
use greenness_core::{probes, CaseComparison, ExperimentSetup, PipelineConfig};
use greenness_platform::Node;
use greenness_storage::{fio, FioJob, FioKind, NullBlockDevice};

/// Relative error, guarded for small denominators.
fn rel(got: f64, want: f64) -> f64 {
    (got - want).abs() / want.abs().max(1e-9)
}

// ---------------------------------------------------------------- Table II

#[test]
fn golden_table2_nnread_power() {
    // Table II, nnread column: 115.1 W total, 10.3 W dynamic. Pinned to
    // ±0.5 % — the probe is deterministic, so any drift is a real
    // calibration change, not noise.
    let r = probes::nnread(&ExperimentSetup::noiseless(), 128 * 1024, 50.0).expect("probe ok");
    assert!(
        rel(r.avg_total_w, 115.1) < 0.005,
        "nnread total {:.2} W (paper 115.1)",
        r.avg_total_w
    );
    assert!(
        rel(r.avg_dynamic_w, 10.3) < 0.05,
        "nnread dyn {:.2} W (paper 10.3)",
        r.avg_dynamic_w
    );
}

#[test]
fn golden_table2_nnwrite_power() {
    // Table II, nnwrite column: 114.8 W total, 10.0 W dynamic.
    let r = probes::nnwrite(&ExperimentSetup::noiseless(), 128 * 1024, 50.0).expect("probe ok");
    assert!(
        rel(r.avg_total_w, 114.8) < 0.005,
        "nnwrite total {:.2} W (paper 114.8)",
        r.avg_total_w
    );
    assert!(
        rel(r.avg_dynamic_w, 10.0) < 0.05,
        "nnwrite dyn {:.2} W (paper 10.0)",
        r.avg_dynamic_w
    );
}

#[test]
fn golden_section5c_energy_split() {
    // §V-C: in-situ's case-1 saving decomposes into static and dynamic
    // parts. Paper: 12.8 kJ + 1.2 kJ; our reproduction measures 11.26 kJ +
    // 1.09 kJ (EXPERIMENTS.md) — the 91 % / 9 % *split*, the paper's
    // headline, matches exactly. Pin the reproduced values at ±2 % and the
    // share at ±1 point.
    let setup = ExperimentSetup::noiseless();
    let cmp =
        CaseComparison::run_config(1, &PipelineConfig::case_study(1), &setup).expect("case runs");
    let read = probes::nnread(&setup, 128 * 1024, 50.0).expect("probe ok");
    let write = probes::nnwrite(&setup, 128 * 1024, 50.0).expect("probe ok");
    let b = case_savings(&cmp, &read, &write);
    let static_kj = b.static_j / 1000.0;
    let dynamic_kj = b.dynamic_j / 1000.0;
    assert!(
        rel(static_kj, 11.26) < 0.02,
        "static {static_kj:.2} kJ (measured 11.26, paper 12.8)"
    );
    assert!(
        rel(dynamic_kj, 1.09) < 0.02,
        "dynamic {dynamic_kj:.2} kJ (measured 1.09, paper 1.2)"
    );
    assert!(
        (b.static_pct() - 91.0).abs() < 1.0,
        "static share {:.1} % (paper 91 %)",
        b.static_pct()
    );
}

// --------------------------------------------------------------- Table III

fn table3(kind: FioKind) -> greenness_storage::FioResult {
    let setup = ExperimentSetup::noiseless();
    let mut node = Node::new(setup.spec.clone());
    let mut dev = NullBlockDevice::with_capacity_bytes(4 * 1024 * 1024 * 1024);
    fio::run(&mut node, &mut dev, &FioJob::table3(kind)).unwrap()
}

#[test]
fn golden_table3_sequential_vs_random_energy() {
    // Table III full-system energies: sequential read 4.2 kJ vs random
    // read 238.6 kJ; sequential write 3.1 kJ vs random write 3.6 kJ.
    // The read-side gap (≈57×) is the paper's central §V-D argument.
    let sr = table3(FioKind::SequentialRead);
    let rr = table3(FioKind::RandomRead);
    let sw = table3(FioKind::SequentialWrite);
    let rw = table3(FioKind::RandomWrite);
    assert!(
        rel(sr.full_system_energy_kj, 4.2) < 0.03,
        "seq read {:.2} kJ",
        sr.full_system_energy_kj
    );
    assert!(
        rel(rr.full_system_energy_kj, 238.6) < 0.03,
        "rand read {:.1} kJ",
        rr.full_system_energy_kj
    );
    assert!(
        rel(sw.full_system_energy_kj, 3.1) < 0.03,
        "seq write {:.2} kJ",
        sw.full_system_energy_kj
    );
    assert!(
        rel(rw.full_system_energy_kj, 3.6) < 0.03,
        "rand write {:.2} kJ",
        rw.full_system_energy_kj
    );
    let ratio = rr.full_system_energy_kj / sr.full_system_energy_kj;
    assert!(
        (50.0..=65.0).contains(&ratio),
        "random/sequential read ratio {ratio:.1} (paper ≈57)"
    );
}

#[test]
fn golden_table3_sequential_write_typo_correction() {
    // The paper prints the sequential-write disk dynamic energy as
    // "2.9 kJ", but its own row arithmetic gives 10.9 W × 27.0 s ≈ 0.29 kJ
    // — a factor-of-10 typo (EXPERIMENTS.md, inconsistency #2). We pin the
    // *corrected* value and assert the row stays self-consistent.
    let r = table3(FioKind::SequentialWrite);
    assert!(
        rel(r.disk_dyn_energy_kj, 0.29) < 0.10,
        "seq write disk energy {:.3} kJ (corrected paper value 0.29, printed as 2.9)",
        r.disk_dyn_energy_kj
    );
    // Self-consistency: energy column == power column × time column.
    let implied_kj = r.disk_dyn_power_w * r.execution_time_s / 1000.0;
    assert!(
        rel(r.disk_dyn_energy_kj, implied_kj) < 0.02,
        "row arithmetic broken"
    );
    // And the printed 2.9 kJ is definitively NOT what the model produces.
    assert!(
        rel(r.disk_dyn_energy_kj, 2.9) > 0.5,
        "typo value should not reproduce"
    );
}

#[test]
fn golden_table3_times_and_powers() {
    // Time and full-system power columns, all four rows, ±2 %.
    let expect = [
        (FioKind::SequentialRead, 35.9, 118.0),
        (FioKind::RandomRead, 2230.0, 107.0),
        (FioKind::SequentialWrite, 27.0, 115.4),
        (FioKind::RandomWrite, 31.0, 117.9),
    ];
    for (kind, t_s, sys_w) in expect {
        let r = table3(kind);
        assert!(
            rel(r.execution_time_s, t_s) < 0.02,
            "{kind:?} time {:.1} s",
            r.execution_time_s
        );
        assert!(
            rel(r.full_system_power_w, sys_w) < 0.01,
            "{kind:?} power {:.1} W",
            r.full_system_power_w
        );
    }
}

// -------------------------------------------------- headline case studies

#[test]
fn golden_case1_headline_numbers() {
    // Figure 10 / §V-A: case 1 post-processing burns ≈30 kJ and in-situ
    // saves ≈43 % (we reproduce ≈41 %, see EXPERIMENTS.md).
    let cmp = CaseComparison::run_config(
        1,
        &PipelineConfig::case_study(1),
        &ExperimentSetup::noiseless(),
    )
    .expect("case runs");
    assert!(
        rel(cmp.post.metrics.energy_j, 30_000.0) < 0.07,
        "post energy {:.1} kJ (paper ≈30)",
        cmp.post.metrics.energy_j / 1000.0
    );
    let savings = cmp.energy_savings_pct();
    assert!(
        (39.0..=45.0).contains(&savings),
        "savings {savings:.1} % (paper 43 %)"
    );
}

// ------------------------------------------------- Placement sweep goldens

/// Run the full placement grid once and index results by key.
fn placement_by_key(
) -> std::collections::BTreeMap<String, greenness_core::placement::PlacementResult> {
    use greenness_core::{placement, sweep};
    placement::run_placement(
        placement::placement_grid(),
        &placement::PlacementSetup::default(),
        8,
        &sweep::silent_progress(),
    )
    .expect("placement grid runs")
    .into_iter()
    .map(|r| (r.key.clone(), r))
    .collect()
}

#[test]
fn golden_placement_grid_values() {
    // Pinned from the committed small-scale run (see EXPERIMENTS.md,
    // "Placement and the reorganization argument"): (virtual seconds,
    // total joules, read-phase joules) per grid cell, ±2 %. The runs are
    // deterministic, so any drift is a real cost-model change.
    let want: &[(&str, f64, f64, f64)] = &[
        ("case1/noop", 3.541, 421.57, 199.648),
        ("case1/freq-recency", 3.548, 422.42, 0.705),
        ("case1/energy-greedy", 3.541, 421.57, 199.648),
        ("case2/noop", 1.809, 215.31, 99.824),
        ("case2/freq-recency", 1.812, 215.67, 0.326),
        ("case2/energy-greedy", 1.809, 215.31, 99.824),
        ("case3/noop", 0.769, 91.56, 39.93),
        ("case3/freq-recency", 0.769, 91.57, 0.008),
        ("case3/energy-greedy", 0.769, 91.56, 39.93),
        ("seqscan/noop", 3.283, 392.12, 42.48),
        ("seqscan/freq-recency", 5.652, 672.99, 3.659),
        ("seqscan/energy-greedy", 3.283, 392.12, 42.48),
        ("random/noop", 13.662, 1627.39, 1277.748),
        ("random/freq-recency", 5.637, 671.07, 1.737),
        ("random/energy-greedy", 7.491, 891.94, 542.291),
    ];
    let got = placement_by_key();
    assert_eq!(got.len(), want.len(), "grid changed shape");
    for &(key, time_s, energy_j, read_j) in want {
        let r = got.get(key).unwrap_or_else(|| panic!("missing {key}"));
        assert!(r.verified, "{key}: read-back verification failed");
        assert!(
            rel(r.time_s, time_s) < 0.02,
            "{key}: time {:.3} s (golden {time_s})",
            r.time_s
        );
        assert!(
            rel(r.energy_j, energy_j) < 0.02,
            "{key}: energy {:.1} J (golden {energy_j})",
            r.energy_j
        );
        // Near-zero read energies (a fully promoted working set) get an
        // absolute floor instead of a relative one.
        assert!(
            rel(r.read_energy_j, read_j) < 0.05 || (r.read_energy_j - read_j).abs() < 0.02,
            "{key}: read energy {:.3} J (golden {read_j})",
            r.read_energy_j
        );
    }
}

#[test]
fn golden_placement_cliff_ratios() {
    // The Table III sequential-vs-random cliff, restated as read-phase
    // energy on equal byte volumes: ~30x under noop (nothing reorganized),
    // collapsing below 1x under freq-recency and to ~13x under the more
    // conservative energy-greedy policy. The noop ratio is the regression
    // anchor — the cliff must survive unchanged when no policy intervenes.
    use greenness_core::placement::{gap_ratio_under, PolicyKind};
    let results: Vec<_> = placement_by_key().into_values().collect();
    let noop = gap_ratio_under(&results, PolicyKind::Noop).expect("noop ratio");
    assert!(
        (25.0..35.0).contains(&noop),
        "noop cliff ratio {noop:.1}x drifted (golden 30.1x)"
    );
    let freq = gap_ratio_under(&results, PolicyKind::FreqRecency).expect("freq ratio");
    assert!(
        freq < 1.5,
        "freq-recency must close the cliff, got {freq:.1}x"
    );
    let greedy = gap_ratio_under(&results, PolicyKind::EnergyGreedy).expect("greedy ratio");
    assert!(
        greedy < noop * 0.6,
        "energy-greedy must narrow the cliff: {greedy:.1}x vs noop {noop:.1}x"
    );
}

#[test]
fn golden_placement_energy_greedy_is_conservative() {
    // Energy-greedy only moves blocks when projected savings beat the
    // migration cost with hysteresis — on the sequential case studies it
    // must be bit-identical to doing nothing at all.
    let got = placement_by_key();
    for case in ["case1", "case2", "case3", "seqscan"] {
        let noop = &got[&format!("{case}/noop")];
        let greedy = &got[&format!("{case}/energy-greedy")];
        assert_eq!(
            greedy.energy_j.to_bits(),
            noop.energy_j.to_bits(),
            "{case}: energy-greedy should not have intervened"
        );
        assert_eq!(greedy.promotes, 0, "{case}: unexpected promotions");
    }
}

// --------------------------------------------------- cluster case studies

/// Run one full-scale cluster case study.
fn cluster_case(
    kind: greenness_cluster::ClusterKind,
    case: u32,
    tweak: impl FnOnce(&mut greenness_cluster::ClusterConfig),
) -> greenness_core::pipeline::cluster::ClusterReport {
    let mut cfg = greenness_cluster::ClusterConfig::case_study(case);
    tweak(&mut cfg);
    greenness_core::pipeline::cluster::run_cluster(kind, &cfg).expect("case study runs")
}

#[test]
fn golden_cluster_three_way_case_studies() {
    // Pinned from the committed case-study sweep (see EXPERIMENTS.md,
    // "In-transit staging and the overlap argument"): (virtual seconds,
    // total joules) per (case, pipeline) at the default staging config
    // (1 staging node, queue depth 2, no wire codec), ±2 %. The runs are
    // deterministic, so any drift is a real cost-model change. The ordering
    // insitu < intransit < post must hold on every case study: staging
    // overlaps the transfer but still ships full snapshots over the NIC.
    use greenness_cluster::ClusterKind::{InSitu, InTransit, PostProcessing};
    let want: &[(u32, greenness_cluster::ClusterKind, f64, f64, u64)] = &[
        (1, PostProcessing, 39.253, 30403.45, 0),
        (1, InSitu, 13.481, 11115.06, 0),
        (1, InTransit, 25.088, 19801.01, 8_388_608),
        (2, PostProcessing, 22.941, 18116.98, 0),
        (2, InSitu, 10.054, 8472.78, 0),
        (2, InTransit, 13.284, 10925.35, 4_194_304),
        (3, PostProcessing, 10.706, 8902.12, 0),
        (3, InSitu, 7.485, 6491.07, 0),
        (3, InTransit, 8.505, 7260.31, 1_048_576),
    ];
    for &(case, kind, makespan_s, energy_j, fabric_bytes) in want {
        let r = cluster_case(kind, case, |_| {});
        assert!(r.verified, "case{case}/{kind:?}: verification failed");
        assert!(
            rel(r.makespan_s, makespan_s) < 0.02,
            "case{case}/{kind:?}: makespan {:.3} s (golden {makespan_s})",
            r.makespan_s
        );
        assert!(
            rel(r.total_energy_j, energy_j) < 0.02,
            "case{case}/{kind:?}: energy {:.1} J (golden {energy_j})",
            r.total_energy_j
        );
        assert_eq!(
            r.fabric_bytes, fabric_bytes,
            "case{case}/{kind:?}: staged wire bytes changed"
        );
        assert_eq!(
            r.bytes_out,
            r.fabric_bytes + r.pfs_bytes,
            "case{case}/{kind:?}: bytes_out must stay the documented sum"
        );
    }
}

#[test]
fn golden_cluster_overlap_beats_serialized_staging() {
    // The tentpole claim, pinned: on case study 1 the overlapped in-transit
    // path (queue depth 2) finishes in 25.09 virtual seconds where the
    // serialized implementation (queue depth 0: every compute node blocks
    // until its snapshot is staged, decoded, and rendered) takes 33.85 s.
    // Overlap must stay a strict win, and must not change the images.
    use greenness_cluster::ClusterKind::InTransit;
    let overlapped = cluster_case(InTransit, 1, |c| c.staging.queue_depth = 2);
    let serialized = cluster_case(InTransit, 1, |c| c.staging.queue_depth = 0);
    assert!(
        rel(overlapped.makespan_s, 25.088) < 0.02,
        "overlapped makespan {:.3} s (golden 25.088)",
        overlapped.makespan_s
    );
    assert!(
        rel(serialized.makespan_s, 33.854) < 0.02,
        "serialized makespan {:.3} s (golden 33.854)",
        serialized.makespan_s
    );
    assert!(
        overlapped.makespan_s < serialized.makespan_s,
        "overlap must be a strict makespan win: {:.3} vs {:.3}",
        overlapped.makespan_s,
        serialized.makespan_s
    );
    assert_eq!(
        overlapped.image_hash, serialized.image_hash,
        "queue depth is a scheduling knob, not an image knob"
    );
}

#[test]
fn golden_cluster_wire_compression_flips_case2() {
    // Compression-on-the-wire changes the pipeline *ordering*, not just the
    // margins: on case study 2 uncompressed in-transit loses to in-situ
    // (10925 J vs 8473 J), but the 8:1 quantizing codec drops the staged
    // traffic enough that in-transit wins (7142 J). Pinned ±2 %.
    use greenness_cluster::{ClusterKind, WireCodec};
    let insitu = cluster_case(ClusterKind::InSitu, 2, |_| {});
    let raw = cluster_case(ClusterKind::InTransit, 2, |_| {});
    let packed = cluster_case(ClusterKind::InTransit, 2, |c| {
        c.staging.wire_codec = WireCodec::Quant8;
    });
    assert!(
        rel(packed.total_energy_j, 7141.63) < 0.02,
        "quant8 in-transit energy {:.1} J (golden 7141.63)",
        packed.total_energy_j
    );
    assert!(
        raw.total_energy_j > insitu.total_energy_j,
        "uncompressed in-transit must lose to in-situ on case 2: {:.1} vs {:.1} J",
        raw.total_energy_j,
        insitu.total_energy_j
    );
    assert!(
        packed.total_energy_j < insitu.total_energy_j,
        "compressed in-transit must beat in-situ on case 2: {:.1} vs {:.1} J",
        packed.total_energy_j,
        insitu.total_energy_j
    );
    assert_eq!(
        packed.fabric_bytes, 525_072,
        "quant8 staged wire volume drifted"
    );
    assert!(
        packed.fabric_bytes * 7 < raw.fabric_bytes,
        "the quantizer must stay better than 7:1 on the smooth heat field"
    );
}
