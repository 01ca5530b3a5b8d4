//! Allocation-count guard for the request path: what a request line costs in
//! heap allocations between socket and reply, counted exactly.
//!
//! The benchmark's timing bound (25 %) cannot see one `Vec` or `String`
//! creeping back onto a 1.5 µs path; a count can, because it repeats exactly.
//! The ceilings leave a little headroom over what the tree does today (a
//! parse 4, a service hit 1), or hold it exactly (a parse through a warm
//! memo 1, a routed hit 5, which was 8 while the router canonicalized every
//! line); the tree before the borrowed request view did 23 / 27 / 1.
//!
//! A steering op is counted per layer instead: the engine alone, a service
//! around it, a fleet around that, one session through `greenness steer`'s
//! script. A steering line is parsed without a content address, its
//! parameters read in place and its reply written once, so the layers
//! around the engine add at most 4 and 2.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use greenness_core::steering::Adjustment;
use greenness_fleet::{fleet_workload, Fleet, FleetConfig};
use greenness_serve::protocol::{parse_request, KeyMemo};
use greenness_serve::{Disposition, Service, ServiceConfig};
use greenness_steer::{AttachSpec, EngineConfig, SessionEngine};
use greenness_viz::Colormap;

thread_local! {
    /// `Some(n)` while this thread is counting: `n` allocations so far.
    static ALLOCATIONS: Cell<Option<u64>> = const { Cell::new(None) };
}

/// `System`, counting the allocations of threads that asked for it.
struct Counting;

fn note_allocation() {
    // `try_with`: a thread may allocate while its locals are being torn down.
    let _ = ALLOCATIONS.try_with(|count| count.set(count.get().map(|n| n + 1)));
}

// SAFETY: every operation is `System`'s, unchanged. The counter is a
// const-initialised thread-local `Cell` with no destructor, so reading and
// writing it neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        // SAFETY: the caller's contract, passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f` and return how many times this thread allocated meanwhile.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (u64, T) {
    ALLOCATIONS.with(|count| count.set(Some(0)));
    let out = f();
    let n = ALLOCATIONS.with(|count| count.replace(None));
    (n.expect("still counting"), out)
}

/// The most allocations `f` makes over `lines`; asked twice, because the
/// point of a count is that it repeats.
fn worst_over(lines: &[String], mut f: impl FnMut(&str) -> u64) -> u64 {
    let mut pass = || lines.iter().map(|l| f(l)).collect::<Vec<u64>>();
    let first = pass();
    assert_eq!(first, pass(), "allocation counts must repeat exactly");
    first.into_iter().max().expect("at least one line")
}

/// Escape-free lines over all five cached ops.
fn lines() -> Vec<String> {
    fleet_workload(64, 16, 1.1, 42)
}

#[test]
fn parsing_an_escape_free_line_allocates_at_most_five_times() {
    let worst = worst_over(&lines(), |line| {
        let (n, request) = allocations_in(|| parse_request(line));
        assert!(request.is_ok(), "{line}");
        n
    });
    assert!(worst <= 5, "parse_request: {worst} allocations");
}

#[test]
fn parsing_through_a_warm_memo_allocates_once() {
    let memo = KeyMemo::default();
    let lines = lines();
    for line in &lines {
        memo.parse(line).expect("well-formed");
    }
    // The member list alone: no canonical form, no nested member list.
    let worst = worst_over(&lines, |line| {
        let (n, request) = allocations_in(|| memo.parse(line));
        assert!(request.is_ok(), "{line}");
        n
    });
    assert!(worst <= 1, "KeyMemo::parse: {worst} allocations");
}

#[test]
fn a_warm_service_hit_allocates_at_most_twice() {
    let service = Service::new(ServiceConfig {
        jobs: 1,
        ..ServiceConfig::default()
    });
    let lines = lines();
    for line in &lines {
        service.handle_line(line);
    }
    let worst = worst_over(&lines, |line| {
        let request = parse_request(line).expect("well-formed");
        let (n, outcome) = allocations_in(|| service.handle(&request));
        assert_eq!(outcome.disposition, Disposition::Hit, "{line}");
        n
    });
    assert!(worst <= 2, "Service::handle: {worst} allocations");
}

#[test]
fn a_routed_warm_hit_allocates_at_most_five_times() {
    let fleet = Fleet::new(FleetConfig {
        jobs: 1,
        ..FleetConfig::default()
    });
    let lines = lines();
    // Past the hot threshold on every key, so replicas are filled and reads
    // rotate over them: the steady state of a Zipfian replay.
    for _ in 0..6 {
        for line in &lines {
            fleet.handle_line(line);
        }
    }
    let worst = worst_over(&lines, |line| {
        let (n, outcome) = allocations_in(|| fleet.handle_line(line));
        assert_eq!(outcome.disposition, Disposition::Hit, "{line}");
        n
    });
    assert!(worst <= 5, "Fleet::handle_line: {worst} allocations");
}

/// One op of `greenness steer`'s script, for a `SessionEngine` directly.
enum SteerOp {
    Attach,
    Render { seq: u64, steps: u64 },
    Adjust { seq: u64, adj: Adjustment },
    Detach { seq: u64 },
}

/// `greenness steer`'s script for `session`: each op's kind, its request
/// line, and the op as the engine takes it.
fn steer_script(session: &str) -> Vec<(&'static str, String, SteerOp)> {
    let line = |op: &str, params: &str| {
        format!(
            r#"{{"schema":"greenness-serve/v1","id":1,"op":"steer.{op}","params":{{"session":"{session}",{params}}}}}"#
        )
    };
    let attach = |kind| {
        (
            kind,
            line("attach", r#""interval":2,"timesteps":12"#),
            SteerOp::Attach,
        )
    };
    let render = |seq, steps| {
        let params = format!(r#""seq":{seq},"steps":{steps}"#);
        (
            "render",
            line("render", &params),
            SteerOp::Render { seq, steps },
        )
    };
    let adjust = |seq, detail: &str, adj| {
        let params = format!(r#""seq":{seq},{detail}"#);
        (
            "adjust",
            line("adjust", &params),
            SteerOp::Adjust { seq, adj },
        )
    };
    vec![
        attach("attach"),
        render(1, 3),
        adjust(
            2,
            r#""kind":"io_interval","io_interval":3"#,
            Adjustment::IoInterval(3),
        ),
        render(3, 3),
        adjust(
            4,
            r#""kind":"resolution","width":96,"height":96"#,
            Adjustment::Resolution {
                width: 96,
                height: 96,
            },
        ),
        render(5, 2),
        adjust(
            6,
            r#""kind":"camera","colormap":"viridis","range":[0.0,0.3]"#,
            Adjustment::Camera {
                colormap: Colormap::Viridis,
                range: Some((0.0, 0.3)),
            },
        ),
        attach("re-attach"),
        render(7, 4),
        (
            "detach",
            line("detach", r#""seq":8"#),
            SteerOp::Detach { seq: 8 },
        ),
    ]
}

/// Allocations of each op of the script for session `s1`, through a
/// `SessionEngine`, a `Service` and a one-shard `Fleet`: `[engine, service,
/// fleet]` per op. Service and fleet take the same line, so each layer's
/// count holds the one below it and the parse is the service's; the fleet's
/// one shard sees exactly the engine calls the other two do. Session `s0`
/// runs the script through all three first, as a first session would: what
/// an instance makes once (counter slots, table storage, the renderer's
/// colour tables) is not a cost of `s1`'s ops.
fn steer_allocations() -> Vec<(&'static str, [u64; 3])> {
    let mut engine = SessionEngine::new(EngineConfig {
        jobs: 1,
        ..EngineConfig::default()
    });
    let service = Service::new(ServiceConfig {
        jobs: 1,
        ..ServiceConfig::default()
    });
    let fleet = Fleet::new(FleetConfig {
        shards: 1,
        jobs: 1,
        ..FleetConfig::default()
    });
    let attach = AttachSpec {
        interval: 2,
        timesteps: 12,
    };
    let mut run = |session: &str| -> Vec<(&'static str, [u64; 3])> {
        steer_script(session)
            .into_iter()
            .map(|(kind, line, op)| {
                let (in_engine, reply) = allocations_in(|| match &op {
                    SteerOp::Attach => engine.attach(session, &attach),
                    SteerOp::Render { seq, steps } => engine.render(session, *seq, *steps),
                    SteerOp::Adjust { seq, adj } => engine.adjust(session, *seq, adj),
                    SteerOp::Detach { seq } => engine.detach(session, *seq),
                });
                assert!(reply.is_ok(), "{line}");
                let (in_service, outcome) = allocations_in(|| service.handle_line(&line));
                assert_eq!(outcome.disposition, Disposition::Session, "{line}");
                let (in_fleet, outcome) = allocations_in(|| fleet.handle_line(&line));
                assert_eq!(outcome.disposition, Disposition::Session, "{line}");
                (kind, [in_engine, in_service, in_fleet])
            })
            .collect()
    };
    run("s0");
    run("s1")
}

/// Allocations the service may add to an op over the engine's: the parse's
/// member list, the parameter object's, a camera range's items and the
/// reply line. Before steering lines skipped the content address and the
/// parameter tree, it added 20-30.
const SERVICE_OVER_ENGINE: u64 = 4;

/// Allocations the fleet may add to an op over the service's: the session's
/// name and log when it first homes, one log append after. It added 4-5
/// before.
const FLEET_OVER_SERVICE: u64 = 2;

/// The engine's own allocations, worst op of each kind (2-26 before).
const ENGINE_CEILINGS: [(&str, u64); 5] = [
    ("attach", 11),
    ("render", 14),
    ("adjust", 5),
    ("re-attach", 1),
    ("detach", 2),
];

#[test]
fn each_steering_layer_allocates_within_its_ceiling() {
    let counts = steer_allocations();
    assert_eq!(
        counts,
        steer_allocations(),
        "allocation counts must repeat exactly"
    );
    for (kind, ceiling) in ENGINE_CEILINGS {
        let ops = counts.iter().filter(|(k, _)| *k == kind);
        let worst = |layer: fn(&[u64; 3]) -> u64| ops.clone().map(|(_, c)| layer(c)).max();
        let engine = worst(|c| c[0]).expect("the script has this kind");
        let service = worst(|c| c[1] - c[0]).expect("the script has this kind");
        let fleet = worst(|c| c[2] - c[1]).expect("the script has this kind");
        let table = format!("{kind}: {counts:?}");
        assert!(engine <= ceiling, "engine: {table}");
        assert!(
            service <= SERVICE_OVER_ENGINE,
            "service over engine: {table}"
        );
        assert!(fleet <= FLEET_OVER_SERVICE, "fleet over service: {table}");
    }
}

/// The request line of `steer.render` for `session` at `seq`, `steps` ahead.
fn render_line(session: &str, seq: u64, steps: u64) -> String {
    format!(
        r#"{{"schema":"greenness-serve/v1","id":1,"op":"steer.render","params":{{"session":"{session}","seq":{seq},"steps":{steps}}}}}"#
    )
}

/// Allocations of one `steer.render` of three steps, by a fresh session
/// homed on the shard of session `a`, which has already rendered those
/// steps, and by one homed on another shard: `(same shard, other shard)`.
fn cross_shard_render_allocations() -> (u64, u64) {
    let fleet = Fleet::new(FleetConfig {
        jobs: 1,
        ..FleetConfig::default()
    });
    let attach = |session: &str| {
        let line = format!(
            r#"{{"schema":"greenness-serve/v1","id":1,"op":"steer.attach","params":{{"session":"{session}","interval":2,"timesteps":12}}}}"#
        );
        let outcome = fleet.handle_line(&line);
        assert_eq!(outcome.disposition, Disposition::Session, "{line}");
        outcome.shard.expect("a session has a home")
    };
    let home = attach("a");
    let rendered = fleet.handle_line(&render_line("a", 1, 3));
    assert_eq!(rendered.disposition, Disposition::Session);
    let (mut same, mut other) = (None, None);
    for name in (0..32).map(|k| format!("b{k}")) {
        let slot = if attach(&name) == home {
            &mut same
        } else {
            &mut other
        };
        slot.get_or_insert(name);
        if same.is_some() && other.is_some() {
            break;
        }
    }
    let count = |session: Option<String>| {
        let line = render_line(&session.expect("a session on that side"), 1, 3);
        let (n, outcome) = allocations_in(|| fleet.handle_line(&line));
        assert_eq!(outcome.disposition, Disposition::Session, "{line}");
        assert_eq!(
            outcome.line.split(" step=").nth(1).map(|s| &s[..2]),
            Some("3 "),
            "{}",
            outcome.line
        );
        n
    };
    (count(same), count(other))
}

#[test]
fn a_steer_render_on_another_shard_allocates_as_recorded() {
    let counts = cross_shard_render_allocations();
    assert_eq!(
        counts,
        cross_shard_render_allocations(),
        "allocation counts must repeat exactly"
    );
    // The shards share one memo, so the other shard's engine takes both
    // frames and the projection from it, as the first shard's does: no
    // framebuffer, no stencil, no replay. With a memo per shard this read
    // (18, 31): a projection replay on both, and on the other shard two
    // frames rasterised and a stencil started.
    assert_eq!(counts, (12, 12), "(same shard, other shard)");
}
