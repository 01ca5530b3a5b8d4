//! End-to-end tests of the future-work extensions: cluster pipelines,
//! pipeline variants, storage technologies and RAID.

use greenness_cluster::{ClusterConfig, ClusterKind};
use greenness_core::pipeline::cluster::run_cluster;
use greenness_core::variants::{run_variant, CodecChoice, Variant};
use greenness_core::{experiment, pipeline::PipelineKind, ExperimentSetup, PipelineConfig};
use greenness_platform::{AccessPattern, Activity, HardwareSpec, Node};

#[test]
fn cluster_reproduces_the_single_node_conclusion() {
    // The paper's headline survives distribution: in-situ saves energy on a
    // 4-node cluster with a 2-server PFS.
    let mut cfg = ClusterConfig::small(4, 2);
    cfg.timesteps = 8;
    let post = run_cluster(ClusterKind::PostProcessing, &cfg).unwrap();
    let insitu = run_cluster(ClusterKind::InSitu, &cfg).unwrap();
    assert!(post.verified);
    let savings = (1.0 - insitu.total_energy_j / post.total_energy_j) * 100.0;
    assert!(savings > 10.0, "cluster in-situ saved only {savings:.1}%");
    // The network becomes a real cost: compute nodes spent energy on NICs.
    assert!(insitu.compute_energy_j > 0.0 && post.io_energy_j > 0.0);
}

#[test]
fn cluster_scaling_shifts_energy_to_static_overheads() {
    // More compute nodes: faster makespan, but more hardware idling behind
    // the same I/O — aggregate energy rises.
    let mut small = ClusterConfig::small(2, 2);
    small.timesteps = 6;
    let mut large = ClusterConfig::small(8, 2);
    large.timesteps = 6;
    let two = run_cluster(ClusterKind::PostProcessing, &small).unwrap();
    let eight = run_cluster(ClusterKind::PostProcessing, &large).unwrap();
    assert!(
        eight.makespan_s < two.makespan_s,
        "{} vs {}",
        eight.makespan_s,
        two.makespan_s
    );
    assert!(eight.total_energy_j > two.total_energy_j);
}

#[test]
fn variants_rank_sensibly_against_the_baselines() {
    let mut cfg = PipelineConfig::small(1);
    cfg.timesteps = 8;
    let setup = ExperimentSetup {
        monitoring_overhead_w: 0.0,
        ..ExperimentSetup::noiseless()
    };
    let post = experiment::run(PipelineKind::PostProcessing, &cfg, &setup).expect("run ok");
    let insitu = experiment::run(PipelineKind::InSitu, &cfg, &setup).expect("run ok");

    let mut node = Node::new(HardwareSpec::table1());
    let sampled =
        run_variant(Variant::SampledPost { stride: 4 }, &mut node, &cfg).expect("variant runs");
    let mut node = Node::new(HardwareSpec::table1());
    let quant = run_variant(
        Variant::CompressedPost {
            codec: CodecChoice::Quantized,
        },
        &mut node,
        &cfg,
    )
    .expect("variant runs");

    // Both data-reduction variants keep exploration and beat raw
    // post-processing. Note that aggressive sampling can even undercut
    // in-situ — a stride-4 snapshot (1/16 of the data) is smaller than the
    // rendered images in-situ must write — so we only bound them against
    // the raw baseline and sanity-check proximity to in-situ.
    for (name, v) in [("sampled", &sampled), ("quantized", &quant)] {
        assert!(v.verified, "{name} failed verification");
        assert!(
            v.energy_j < post.metrics.energy_j,
            "{name}: {} !< {}",
            v.energy_j,
            post.metrics.energy_j
        );
        let ratio = v.energy_j / insitu.metrics.energy_j;
        assert!(
            (0.8..=1.5).contains(&ratio),
            "{name}: ratio to in-situ {ratio}"
        );
    }
}

#[test]
fn dvfs_sweep_has_an_interior_energy_optimum_or_monotone_gain() {
    // Slowing the clock cuts dynamic power cubically but stretches static
    // time; the energy curve over the sweep must not be flat.
    let mut cfg = PipelineConfig::small(1);
    cfg.timesteps = 6;
    let energies: Vec<f64> = [1.0, 0.8, 0.6, 0.4]
        .iter()
        .map(|&s| {
            let mut node = Node::new(HardwareSpec::table1());
            run_variant(Variant::DvfsSim { freq_scale: s }, &mut node, &cfg)
                .expect("variant runs")
                .energy_j
        })
        .collect();
    let spread = energies.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - energies.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(
        spread > 0.01 * energies[0],
        "DVFS sweep is flat: {energies:?}"
    );
    // At very low clocks static time dominates: 0.4 must be worse than 0.8.
    assert!(energies[3] > energies[1], "{energies:?}");
}

#[test]
fn raid0_speeds_streaming_but_not_fsync_bound_pipelines() {
    let mut spec = HardwareSpec::table1();
    spec.disk = spec.disk.raid0(4);

    // Streaming benefits ~4x...
    let base = Node::new(HardwareSpec::table1());
    let raid_node = Node::new(spec.clone());
    let act = Activity::DiskRead {
        bytes: 1024 * 1024 * 1024,
        pattern: AccessPattern::Sequential,
        buffered: false,
    };
    let (t_base, _) = base.cost_of(act);
    let (t_raid, _) = raid_node.cost_of(act);
    assert!(t_raid < t_base / 3.0, "{t_raid} vs {t_base}");

    // ...but the pipeline's chunked-fsync I/O is positioning-bound, so the
    // in-situ advantage barely moves (a finding, not a bug: RAID-0 does not
    // help journal-commit-dominated workloads).
    let cfg = PipelineConfig::small(1);
    let hdd = greenness_core::CaseComparison::run_config(1, &cfg, &ExperimentSetup::noiseless())
        .expect("case runs");
    let raid = greenness_core::CaseComparison::run_config(
        1,
        &cfg,
        &ExperimentSetup {
            spec,
            ..ExperimentSetup::noiseless()
        },
    )
    .expect("case runs");
    let delta = (raid.energy_savings_pct() - hdd.energy_savings_pct()).abs();
    assert!(delta < 3.0, "savings moved by {delta} points");
}

#[test]
fn full_scale_burst_buffer_beats_even_insitu_while_keeping_raw_data() {
    // The ref-[26] headline at §IV-C scale: staging snapshots in NVRAM and
    // draining sequentially removes both the fsync storm and the cold
    // chunked reads — post-processing keeps all raw data yet lands *below*
    // in-situ energy.
    let cfg = PipelineConfig::case_study(1);
    let setup = ExperimentSetup {
        monitoring_overhead_w: 0.0,
        ..ExperimentSetup::noiseless()
    };
    let insitu = experiment::run(PipelineKind::InSitu, &cfg, &setup).expect("run ok");
    let mut node = Node::new(HardwareSpec::table1());
    let bb = run_variant(
        Variant::BurstBufferPost {
            buffer_bytes: 256 * 1024 * 1024,
        },
        &mut node,
        &cfg,
    )
    .expect("variant runs");
    assert!(bb.verified);
    assert_eq!(bb.bytes_written, bb.raw_bytes);
    assert!(
        bb.energy_j < insitu.metrics.energy_j,
        "burst-buffered post {} J vs in-situ {} J",
        bb.energy_j,
        insitu.metrics.energy_j
    );
}
