//! Properties that hold only because every single-node entry point is a
//! composition of the one driver in `greenness_core` (same solver, same
//! store, same phase order): drivers that plan the same stages land on the
//! same bits, and every one of them conserves energy phase by phase.

use greenness_core::adaptive::{run_adaptive, AdaptivePolicy};
use greenness_core::capping::cap_sweep;
use greenness_core::pipeline::{self, PipelineKind};
use greenness_core::variants::{run_variant, CodecChoice, Variant};
use greenness_core::PipelineConfig;
use greenness_platform::{HardwareSpec, Node, Phase};

fn cfg(io_interval: u64) -> PipelineConfig {
    let mut c = PipelineConfig::small(io_interval);
    c.timesteps = 12;
    c
}

fn fresh() -> Node {
    Node::new(HardwareSpec::table1())
}

#[test]
fn never_switching_adaptive_is_post_processing_bit_for_bit() {
    // A share can never exceed 1.0, so this policy never switches.
    let never = AdaptivePolicy {
        window_steps: 4,
        io_energy_threshold: 1.0,
    };
    for interval in [1, 3] {
        let cfg = cfg(interval);
        let mut post = fresh();
        pipeline::run(PipelineKind::PostProcessing, &mut post, &cfg).expect("post runs");
        let mut adaptive = fresh();
        let report = run_adaptive(&mut adaptive, &cfg, &never).expect("adaptive runs");
        assert_eq!(report.switched_at_step, None);
        assert_eq!(adaptive.now(), post.now(), "interval {interval}");
        assert_eq!(
            adaptive.timeline().total_energy_j().to_bits(),
            post.timeline().total_energy_j().to_bits(),
            "interval {interval}"
        );
    }
}

#[test]
fn capped_insitu_is_the_dvfs_variant_at_the_governors_clock() {
    let cfg = cfg(1);
    let caps = [143.0, 135.0, 128.0];
    let runs = cap_sweep(&cfg, &caps).expect("capped runs ok");
    assert_eq!(runs.len(), caps.len(), "every cap is feasible");
    for capped in runs {
        let cap = capped.cap_w;
        let dvfs = run_variant(
            Variant::DvfsSim {
                freq_scale: capped.freq_scale,
            },
            &mut fresh(),
            &cfg,
        )
        .expect("variant runs");
        assert_eq!(
            dvfs.execution_time_s.to_bits(),
            capped.execution_time_s.to_bits(),
            "cap {cap}"
        );
        assert_eq!(
            dvfs.energy_j.to_bits(),
            capped.energy_j.to_bits(),
            "cap {cap}"
        );
    }
}

/// Σ per-phase energy must equal the timeline total.
fn assert_conserved(label: &str, node: &Node) {
    let total = node.timeline().total_energy_j();
    let by_phase: f64 = Phase::ALL
        .iter()
        .map(|&p| node.timeline().phase_energy(p).system_j())
        .sum();
    assert!(total > 0.0, "{label}: ran nothing");
    assert!(
        (by_phase - total).abs() <= 1e-9 + 1e-12 * total,
        "{label}: phases sum to {by_phase} J, timeline total {total} J"
    );
}

#[test]
fn every_single_node_entry_point_conserves_energy_across_phases() {
    // The capped governor and a steering session own their node; the capped
    // run is covered through its bit-identical DVFS twin above, the steering
    // session by a unit test next to `SteeringPipeline`.
    for interval in [1, 3] {
        let cfg = cfg(interval);
        for kind in [
            PipelineKind::PostProcessing,
            PipelineKind::InSitu,
            PipelineKind::InTransit,
        ] {
            let mut node = fresh();
            pipeline::run(kind, &mut node, &cfg).expect("pipeline runs");
            assert_conserved(&format!("{kind:?}/{interval}"), &node);
        }
        for variant in [
            Variant::SampledPost { stride: 4 },
            Variant::CompressedPost {
                codec: CodecChoice::Quantized,
            },
            Variant::DvfsSim { freq_scale: 0.6 },
            Variant::ImageDatabase { views: 3 },
            Variant::BurstBufferPost {
                buffer_bytes: 64 * 1024,
            },
        ] {
            let mut node = fresh();
            run_variant(variant, &mut node, &cfg).expect("variant runs");
            assert_conserved(&format!("{variant:?}/{interval}"), &node);
        }
        let mut node = fresh();
        let eager = AdaptivePolicy {
            window_steps: 4,
            io_energy_threshold: 0.05,
        };
        run_adaptive(&mut node, &cfg, &eager).expect("adaptive runs");
        assert_conserved(&format!("adaptive/{interval}"), &node);
    }
}
