//! Steering-session regression suite: the 24-seed chaos sweep, the
//! cached-delta exactness audit, the drain/resume guarantee, and the bound
//! on wire-supplied resolutions.
//!
//! These pin the four behaviors the steering subsystem promises:
//!
//! 1. A scripted attach/adjust/render/detach session routed through the
//!    fleet converges to bit-identical reply bytes under connection drops
//!    and shard churn, for every fault seed — the client never observes a
//!    fault, only the clean transcript.
//! 2. What-if deltas answered from the stamp book's projections (or from
//!    schedule replay) match a full recompute — real stencil, real
//!    renderer — to within 1e-9 J, while doing zero additional solver
//!    work.
//! 3. A drain mid-session refuses the op *before* mutating anything,
//!    hands back a resume token instead of a torn frame, and the session
//!    re-derived on another instance reproduces the clean transcript.
//! 4. A resolution adjustment whose pixel count is over the cap, or
//!    overflows `usize`, is refused as a structured `bad_request` before
//!    anything is sized from it, and the session carries on.
//! 5. A shard handed the router's parsed `Request` behaves exactly like a
//!    shard handed the line — steering ops (fault slot *after* the commit)
//!    and stateless ops (fault slot before) alike.
//! 6. A steering op never enters the result cache: it is neither looked up
//!    nor stored, retried or not.
//! 7. Sixteen interleaved sessions through a 4-shard fleet, clean and under
//!    every fault seed of the sweep, answer what one service answers, byte
//!    for byte: a reply depends on its session's ops alone, not on where
//!    the session lives.

use greenness_core::steering::Adjustment;
use greenness_faults::FaultPlan;
use greenness_fleet::{fleet_workload, Fleet, FleetConfig};
use greenness_serve::protocol::parse_request;
use greenness_serve::{replay_workload, Service, ServiceConfig, SCHEMA};
use greenness_steer::{AttachSpec, EngineConfig, SessionEngine};

/// The scripted session: attach, three adjust/render rounds, a mid-session
/// re-attach (resume), a final render, detach. Mirrors `greenness steer`.
fn script(session: &str) -> Vec<String> {
    [
        format!(r#""op":"steer.attach","params":{{"session":"{session}","interval":2,"timesteps":12}}"#),
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
        format!(r#""op":"steer.attach","params":{{"session":"{session}","interval":2,"timesteps":12}}"#),
        format!(r#""op":"steer.render","params":{{"session":"{session}","seq":7,"steps":4}}"#),
        format!(r#""op":"steer.detach","params":{{"session":"{session}","seq":8}}"#),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, body)| format!("{{\"schema\":\"{SCHEMA}\",\"id\":{},{body}}}", i + 1))
    .collect()
}

fn run_script_through(fleet: &Fleet, session: &str) -> Vec<String> {
    script(session)
        .iter()
        .map(|line| {
            let out = fleet.handle_line(line);
            assert!(
                out.line.contains("\"ok\":true"),
                "script op failed\n  request: {line}\n  reply:   {}",
                out.line
            );
            out.line
        })
        .collect()
}

#[test]
fn chaos_sweep_converges_to_clean_transcripts_for_24_seeds() {
    let clean = run_script_through(&Fleet::new(FleetConfig::default()), "chaos");
    for seed in 0..24 {
        let fleet = Fleet::new(FleetConfig {
            faults: Some(FaultPlan {
                serve_drop_rate: 0.25,
                fleet_churn_rate: 0.35,
                ..FaultPlan::quiet(seed)
            }),
            ..FleetConfig::default()
        });
        let faulted = run_script_through(&fleet, "chaos");
        assert_eq!(
            clean, faulted,
            "seed {seed}: faulted session diverged from the clean transcript"
        );
        // The sweep is only meaningful if the fault machinery actually
        // fired somewhere across the sweep; check per-seed activity via
        // the router registry (drops retried, shards re-homed).
        let m = fleet.metrics_clone();
        let exercised =
            m.counter("retries.fleet.session.resume") + m.counter("fleet.session.rehomed");
        if seed == 0 {
            // Deterministic per seed: seed 0 is known-active at these
            // rates; a rate regression that silences it should fail loud.
            assert!(exercised > 0, "seed 0 no longer exercises any fault");
        }
    }
}

#[test]
fn cached_deltas_match_full_recompute_within_1e9_joules() {
    let mut engine = SessionEngine::new(EngineConfig::default());
    let spec = AttachSpec {
        interval: 2,
        timesteps: 12,
    };
    engine.attach("a", &spec).expect("attach a");
    engine.attach("b", &spec).expect("attach b");
    engine.render("a", 1, 3).expect("render a");
    engine.render("b", 1, 3).expect("render b");

    let adj = Adjustment::IoInterval(4);
    // Ground truth *before* anything is applied: clone the live pipeline
    // and actually run the remaining steps — real stencil, real
    // rasterization — under both configurations.
    let pipe = engine.pipeline("b").expect("live session").clone();
    let solver_steps_before = pipe.solver_steps();
    let baseline_truth = pipe.full_recompute_remaining_j(pipe.config());
    let adjusted_truth = {
        let mut trial = pipe.clone();
        trial.adjust(&adj).expect("valid adjustment");
        pipe.full_recompute_remaining_j(trial.config())
    };

    let deltas = |engine: &SessionEngine| {
        let counters = engine.counters();
        let count = |name| counters.iter().find(|(n, _)| *n == name).map(|c| c.1);
        (count("steer.delta.cached"), count("steer.delta.computed"))
    };
    // `a` replays the adjusted schedule; `b` finds both projections held.
    let computed = engine.adjust("a", 2, &adj).expect("adjust a");
    assert_eq!(deltas(&engine), (Some(0), Some(1)));
    let cached = engine.adjust("b", 2, &adj).expect("adjust b");
    assert_eq!(deltas(&engine), (Some(1), Some(1)));

    let field = |line: &str, key: &str| -> f64 {
        line.split(&format!(" {key}="))
            .nth(1)
            .and_then(|rest| rest.split(' ').next())
            .unwrap_or_else(|| panic!("missing {key} in: {line}"))
            .parse()
            .unwrap_or_else(|e| panic!("bad {key} in: {line}: {e}"))
    };
    for reply in [&computed.0, &cached.0] {
        assert!(
            (field(reply, "baseline_j") - baseline_truth).abs() <= 1e-9,
            "baseline drifted from full recompute: {reply}\n  truth: {baseline_truth}"
        );
        assert!(
            (field(reply, "adjusted_j") - adjusted_truth).abs() <= 1e-9,
            "adjusted drifted from full recompute: {reply}\n  truth: {adjusted_truth}"
        );
    }
    // The live answer cost no solver work: session b's solver has not
    // advanced a single step for either what-if.
    let after = engine.pipeline("b").expect("live session").solver_steps();
    assert_eq!(solver_steps_before, after, "what-if ran the solver");
}

#[test]
fn drain_mid_session_hands_back_a_resume_token_then_reattach_elsewhere_converges() {
    let lines = script("d");
    let run_all = |svc: &Service| -> Vec<String> {
        lines
            .iter()
            .map(|l| {
                let out = svc.handle_line(l);
                assert!(out.line().contains("\"ok\":true"), "{}", out.line());
                out.line()
            })
            .collect()
    };
    let clean = run_all(&Service::new(ServiceConfig::default()));

    // A second instance drains halfway through the same session.
    let draining = Service::new(ServiceConfig::default());
    for l in &lines[..5] {
        assert!(draining.handle_line(l).line().contains("\"ok\":true"));
    }
    let down = draining.handle_line(&format!(
        "{{\"schema\":\"{SCHEMA}\",\"id\":90,\"op\":\"shutdown\"}}"
    ));
    assert!(down.shutdown, "shutdown op must be granted");
    let refused = draining.handle_line(&lines[5]).line();
    assert!(
        refused.contains("\"code\":\"shutting_down\""),
        "steer op during drain must be refused: {refused}"
    );
    assert!(
        refused.contains("token "),
        "the refusal must carry a resume token: {refused}"
    );
    assert!(
        !refused.contains("frame "),
        "a drained render must never emit a (torn) frame: {refused}"
    );

    // "Elsewhere": a fresh instance. Re-deriving the session from the
    // client's op log converges to the clean transcript, byte for byte —
    // including the ops the drained instance had already applied.
    let elsewhere = run_all(&Service::new(ServiceConfig::default()));
    assert_eq!(clean, elsewhere, "re-derived session diverged");
}

#[test]
fn oversized_resolution_is_a_structured_error_and_the_session_stays_usable() {
    let svc = Service::new(ServiceConfig::default());
    let send = |id: u32, body: &str| {
        svc.handle_line(&format!("{{\"schema\":\"{SCHEMA}\",\"id\":{id},{body}}}"))
            .line()
    };
    let adjust = |id: u32, width: u64, height: u64| {
        send(
            id,
            &format!(
                r#""op":"steer.adjust","params":{{"session":"r","seq":2,"kind":"resolution","width":{width},"height":{height}}}"#
            ),
        )
    };
    let attach = send(
        1,
        r#""op":"steer.attach","params":{"session":"r","interval":2,"timesteps":12}"#,
    );
    assert!(attach.contains("\"ok\":true"), "{attach}");
    let render = |id: u32, seq: u32| {
        send(
            id,
            &format!(r#""op":"steer.render","params":{{"session":"r","seq":{seq},"steps":2}}"#),
        )
    };
    assert!(render(2, 1).contains("\"ok\":true"));

    // One pixel row over the 16 Mpx cap; a product that overflows usize;
    // and one factor that alone is past any allocation.
    for (id, width, height) in [(3, 4096, 4097), (4, 1 << 32, 1 << 32), (5, u64::MAX, 1)] {
        let refused = adjust(id, width, height);
        assert!(
            refused.contains("\"code\":\"bad_request\"") && refused.contains("at most"),
            "{width}x{height} must be refused as a bad request: {refused}"
        );
    }

    // The refusals consumed no sequence number and changed nothing: the
    // same seq with a legal size applies, and rendering carries on.
    let applied = adjust(6, 4096, 4096);
    assert!(
        applied.contains("\"ok\":true") && applied.contains("resolution=4096x4096"),
        "{applied}"
    );
    let shrunk = send(
        7,
        r#""op":"steer.adjust","params":{"session":"r","seq":3,"kind":"resolution","width":48,"height":32}"#,
    );
    assert!(shrunk.contains("\"ok\":true"), "{shrunk}");
    let frame = render(8, 4);
    assert!(
        frame.contains("\"ok\":true") && frame.contains("48x32"),
        "{frame}"
    );
}

#[test]
fn a_parsed_request_is_handled_exactly_like_its_line() {
    let workloads = [
        replay_workload(40),
        fleet_workload(400, 32, 1.1, 7),
        script("twin"),
    ];
    for faults in [None, Some(FaultPlan::with_seed(7))] {
        for lines in &workloads {
            let config = ServiceConfig {
                jobs: 1,
                faults,
                ..ServiceConfig::default()
            };
            let (by_line, by_request) = (Service::new(config), Service::new(config));
            for line in lines {
                let a = by_line.handle_line(line);
                let b = by_request.handle(&parse_request(line).expect("well-formed"));
                assert_eq!(a.line(), b.line(), "{line}");
                assert_eq!(
                    (a.disposition, a.shutdown, a.virtual_s.to_bits()),
                    (b.disposition, b.shutdown, b.virtual_s.to_bits()),
                    "{line}"
                );
            }
            assert_eq!(
                by_line.metrics_clone().to_json(),
                by_request.metrics_clone().to_json()
            );
        }
    }
}

#[test]
fn steering_ops_never_enter_the_result_cache() {
    let service = Service::new(ServiceConfig {
        jobs: 1,
        ..ServiceConfig::default()
    });
    let scripts: Vec<Vec<String>> = ["a", "b", "c", "d"].into_iter().map(script).collect();
    for phase in 0..10 {
        for lines in &scripts {
            // Every op twice: the second is a retry the engine replays.
            for _ in 0..2 {
                let reply = service.handle_line(&lines[phase]).line();
                assert!(reply.contains("\"ok\":true"), "{reply}");
            }
        }
    }
    let m = service.metrics_clone();
    assert_eq!(m.counter("serve.requests"), 80);
    assert_eq!(
        (
            m.counter("serve.cache.hits"),
            m.counter("serve.cache.misses")
        ),
        (0, 0)
    );
    assert!(service.cache_keys().is_empty());
}

/// Sixteen CLI-script sessions, phase by phase, their request ids distinct.
fn interleaved_scripts() -> Vec<String> {
    let scripts: Vec<Vec<String>> = (0..16).map(|s| script(&format!("m{s}"))).collect();
    (0..scripts[0].len())
        .flat_map(|phase| scripts.iter().map(move |lines| (phase, &lines[phase])))
        .enumerate()
        .map(|(i, (phase, line))| {
            let id = |n: usize| format!("\"id\":{n},");
            line.replacen(&id(phase + 1), &id(i + 1), 1)
        })
        .collect()
}

#[test]
fn interleaved_sessions_through_a_fleet_answer_like_one_service() {
    let lines = interleaved_scripts();
    let service = Service::new(ServiceConfig {
        jobs: 1,
        session_slots: 16,
        ..ServiceConfig::default()
    });
    let alone: Vec<String> = lines
        .iter()
        .map(|line| service.handle_line(line).line())
        .collect();
    assert!(alone.iter().all(|reply| reply.contains("\"ok\":true")));
    let through = |faults: Option<FaultPlan>| {
        let fleet = Fleet::new(FleetConfig {
            jobs: 1,
            session_slots: 16,
            faults,
            ..FleetConfig::default()
        });
        let replies: Vec<String> = lines
            .iter()
            .map(|line| fleet.handle_line(line).line)
            .collect();
        (replies, fleet.metrics_clone())
    };
    let (clean, _) = through(None);
    assert_eq!(clean, alone, "a clean fleet answers like one service");
    let mut rehomed = 0;
    for seed in 0..24 {
        let (faulted, m) = through(Some(FaultPlan {
            serve_drop_rate: 0.25,
            fleet_churn_rate: 0.35,
            ..FaultPlan::quiet(seed)
        }));
        assert_eq!(faulted, alone, "seed {seed}");
        rehomed += m.counter("fleet.session.rehomed");
    }
    assert!(rehomed > 0, "churn re-homed no session across the sweep");
}
