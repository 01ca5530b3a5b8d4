//! Determinism suite for the placement sweep: the journal, the metrics
//! file, and the manifest are *byte-identical* regardless of worker count,
//! and repeated runs under the same fault seed reproduce exactly. This is
//! the property that makes the committed placement goldens meaningful —
//! any nondeterminism (thread scheduling, ambient randomness, wall-clock
//! leakage) would show up here as a single flipped byte.

use greenness_core::placement::{
    self, PlacementJob, PlacementScale, PlacementSetup, PlacementWorkload, PolicyKind,
};
use greenness_core::sweep;
use greenness_faults::FaultPlan;

fn traced_setup(fault_seed: Option<u64>) -> PlacementSetup {
    PlacementSetup {
        trace: true,
        faults: fault_seed.map(FaultPlan::with_seed),
        ..PlacementSetup::default()
    }
}

fn artifacts(setup: &PlacementSetup, workers: usize) -> (String, String, String) {
    let results = placement::run_placement(
        placement::placement_grid(),
        setup,
        workers,
        &sweep::silent_progress(),
    )
    .expect("placement grid runs");
    (
        placement::placement_journal(&results).expect("journal recorded"),
        placement::placement_metrics_json(&results).expect("metrics recorded"),
        placement::placement_manifest_json(PlacementScale::Small, &results),
    )
}

/// Worker-count invariance: `--jobs 1` and `--jobs 8` produce the same
/// journal, metrics, and manifest, byte for byte.
#[test]
fn artifacts_are_worker_count_invariant() {
    let setup = traced_setup(None);
    let (j1, m1, man1) = artifacts(&setup, 1);
    let (j8, m8, man8) = artifacts(&setup, 8);
    assert_eq!(j1, j8, "journal must not depend on worker count");
    assert_eq!(m1, m8, "metrics must not depend on worker count");
    assert_eq!(man1, man8, "manifest must not depend on worker count");
}

/// Fault-seed reproducibility: the same seed gives byte-identical
/// artifacts across repeated runs *and* across worker counts, and a
/// different seed genuinely changes the outcome (the suite would be
/// vacuous if the injectors never fired).
#[test]
fn fault_seeded_runs_reproduce_exactly() {
    let setup = traced_setup(Some(42));
    let (j_a, m_a, man_a) = artifacts(&setup, 8);
    let (j_b, m_b, man_b) = artifacts(&setup, 3);
    assert_eq!(j_a, j_b, "same seed, different schedule: journal diverged");
    assert_eq!(m_a, m_b, "same seed, different schedule: metrics diverged");
    assert_eq!(
        man_a, man_b,
        "same seed, different schedule: manifest diverged"
    );

    let (_, _, man_other) = artifacts(&traced_setup(Some(43)), 8);
    assert_ne!(
        man_a, man_other,
        "a different fault seed must perturb the run"
    );
}

/// Tracing is observation, not perturbation: energies and virtual times
/// are bit-identical with and without the tracer attached.
#[test]
fn tracing_does_not_perturb_the_run() {
    let jobs = vec![
        PlacementJob {
            workload: PlacementWorkload::RandomAccess,
            policy: PolicyKind::FreqRecency,
        },
        PlacementJob {
            workload: PlacementWorkload::SeqScan,
            policy: PolicyKind::Noop,
        },
    ];
    let traced = placement::run_placement(
        jobs.clone(),
        &traced_setup(None),
        2,
        &sweep::silent_progress(),
    )
    .expect("traced run");
    let untraced = placement::run_placement(
        jobs,
        &PlacementSetup::default(),
        2,
        &sweep::silent_progress(),
    )
    .expect("untraced run");
    for (t, u) in traced.iter().zip(untraced.iter()) {
        assert_eq!(t.key, u.key);
        assert_eq!(
            t.energy_j.to_bits(),
            u.energy_j.to_bits(),
            "{}: tracing changed the energy",
            t.key
        );
        assert_eq!(
            t.end_ns, u.end_ns,
            "{}: tracing changed virtual time",
            t.key
        );
        assert_eq!(
            t.read_energy_j.to_bits(),
            u.read_energy_j.to_bits(),
            "{}: tracing changed read-phase energy",
            t.key
        );
    }
}

/// Per-job seeds depend on the workload only, never the policy: every
/// policy must face the identical access stream, or the policy comparison
/// measures luck instead of placement.
#[test]
fn access_seed_is_policy_blind() {
    let results = placement::run_placement(
        placement::placement_grid(),
        &PlacementSetup::default(),
        1,
        &sweep::silent_progress(),
    )
    .expect("placement grid runs");
    for w in PlacementWorkload::ALL {
        let seeds: Vec<u64> = results
            .iter()
            .filter(|r| r.workload == w.label())
            .map(|r| r.seed)
            .collect();
        assert_eq!(seeds.len(), PolicyKind::ALL.len(), "{}", w.label());
        assert!(
            seeds.windows(2).all(|s| s[0] == s[1]),
            "{}: access seed varies by policy",
            w.label()
        );
    }
}
