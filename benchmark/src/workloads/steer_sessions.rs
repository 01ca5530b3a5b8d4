//! `steer_sessions` — 256 scripted steering sessions (the CLI's
//! attach / render / adjust×3 / re-attach / render / detach script)
//! interleaved through `Fleet::handle_line`, every session once per script
//! phase in seeded shuffled order. Each iteration gets a fresh 4-shard fleet,
//! built outside the timed region.
//!
//! Why: stateful ops, the op log, schedule replay and the what-if delta
//! cache — the `steer` / `core::steering` path no stateless workload enters.

use std::time::Instant;

use greenness_core::steering::{Adjustment, SteeringPipeline};
use greenness_core::PipelineConfig;
use greenness_fleet::{Fleet, FleetConfig};
use greenness_serve::{Service, ServiceConfig};
use greenness_steer::{EngineConfig, SessionEngine};

use super::{digest_str, keep_going, Checks, Ctx, Iter, Untraced, Workload};
use crate::gen::{steer_interleave, steer_script, SteerOp};
use crate::report::Values;
use crate::spans::Recorder;
use crate::stats::median;

#[derive(Default)]
pub struct SteerSessions {
    sessions: usize,
    script: Vec<SteerOp>,
    /// `(session, phase)` in send order.
    order: Vec<(usize, usize)>,
    /// The request line of each entry of `order`.
    lines: Vec<String>,
}

fn fleet(sessions: usize) -> Fleet {
    Fleet::new(FleetConfig {
        shards: 4,
        jobs: 1,
        session_slots: sessions,
        faults: None,
        ..FleetConfig::default()
    })
}

fn service(sessions: usize) -> Service {
    Service::new(ServiceConfig {
        jobs: 1,
        session_slots: sessions,
        ..ServiceConfig::default()
    })
}

/// Send every line through `handle`, returning the transcript and how many
/// replies were not ok.
fn drive(lines: &[String], mut handle: impl FnMut(&str) -> String) -> (String, u64) {
    let mut transcript = String::with_capacity(lines.len() * 160);
    let mut bad = 0u64;
    for line in lines {
        let reply = handle(line);
        bad += u64::from(!reply.contains("\"ok\":true"));
        transcript.push_str(&reply);
        transcript.push('\n');
    }
    (transcript, bad)
}

impl SteerSessions {
    /// The same ops applied to a `SessionEngine` directly: host seconds.
    fn through_engine(&self, checks: &mut Checks) -> (f64, SessionEngine) {
        let mut engine = SessionEngine::new(EngineConfig {
            session_slots: self.sessions,
            jobs: 1,
            ..EngineConfig::default()
        });
        let names: Vec<String> = (0..self.sessions).map(|s| format!("s{s}")).collect();
        let t = Instant::now();
        let mut bad = 0u64;
        for &(s, phase) in &self.order {
            let name = &names[s];
            let reply = match &self.script[phase] {
                SteerOp::Attach(spec) => engine.attach(name, spec),
                SteerOp::Render { seq, steps } => engine.render(name, *seq, *steps),
                SteerOp::Adjust { seq, adj } => engine.adjust(name, *seq, adj),
                SteerOp::Detach { seq } => engine.detach(name, *seq),
            };
            bad += u64::from(reply.is_err());
        }
        let seconds = t.elapsed().as_secs_f64();
        checks.bulk(self.order.len() as u64, bad, "engine ops refused");
        (seconds, engine)
    }
}

impl Workload for SteerSessions {
    fn setup(&mut self, ctx: &Ctx) {
        self.sessions = if ctx.smoke { 24 } else { 256 };
        self.script = steer_script();
        self.order = steer_interleave(self.sessions, self.script.len(), ctx.seed);
        self.lines = self
            .order
            .iter()
            .enumerate()
            .map(|(i, &(s, phase))| self.script[phase].line(&format!("s{s}"), i as u64 + 1))
            .collect();
        // Warm-up: the first eighth of the sessions, start to finish.
        let few = self.sessions / 8;
        let warm: Vec<String> = self
            .order
            .iter()
            .zip(&self.lines)
            .filter(|((s, _), _)| *s < few)
            .map(|(_, line)| line.clone())
            .collect();
        let f = fleet(self.sessions);
        std::hint::black_box(drive(&warm, |l| f.handle_line(l).line));
    }

    fn iterate(&mut self, checks: &mut Checks) -> Iter {
        let f = fleet(self.sessions);
        let t = Instant::now();
        let (transcript, bad) = drive(&self.lines, |l| f.handle_line(l).line);
        let wall_s = t.elapsed().as_secs_f64();
        let ops = self.lines.len() as u64;
        checks.bulk(ops, bad, "steering replies without \"ok\":true");
        let m = f.metrics_clone();
        Iter {
            wall_s,
            items: ops,
            items_s: wall_s,
            digest: digest_str(&transcript),
            note: format!(
                "{} sessions, {ops} ops ok {}, {} re-homed",
                self.sessions,
                m.counter("fleet.ok"),
                m.counter("fleet.session.rehomed")
            ),
        }
    }

    fn traced(
        &mut self,
        ctx: &Ctx,
        baseline: &Untraced,
        rec: &mut Recorder,
        checks: &mut Checks,
        out: &mut Values,
    ) {
        let ops = self.lines.len() as f64;
        // The very same calls, one span per op, paired with a bare pass.
        let started = Instant::now();
        let (mut bare, mut traced) = (Vec::new(), Vec::new());
        while keep_going(started, bare.len(), 2, ctx.seconds / 2.0) {
            let f = fleet(self.sessions);
            let t = Instant::now();
            let (transcript, _) = drive(&self.lines, |l| f.handle_line(l).line);
            bare.push(t.elapsed().as_secs_f64());
            checks.check(digest_str(&transcript) == baseline.digest, || {
                "bare pass transcript differs from the untraced pass".to_string()
            });

            let f = fleet(self.sessions);
            let it = rec.enter("iteration");
            let t = Instant::now();
            let (transcript, bad) = drive(&self.lines, |l| {
                let id = rec.enter("fleet.handle");
                let reply = f.handle_line(l).line;
                rec.exit(id);
                reply
            });
            traced.push(t.elapsed().as_secs_f64());
            rec.exit(it);
            checks.bulk(
                self.lines.len() as u64,
                bad,
                "traced steering replies not ok",
            );
            checks.check(digest_str(&transcript) == baseline.digest, || {
                "traced pass transcript differs from the untraced pass".to_string()
            });
        }
        let (bare_s, traced_s) = (median(&bare), median(&traced));
        out.set("bench.trace_overhead_share", (traced_s - bare_s) / bare_s);
        let fleet_us = bare_s / ops * 1e6;
        out.set("fleet.handle_us", fleet_us);

        // Nesting differences: engine direct < one Service < the Fleet.
        let engine_runs: Vec<(f64, SessionEngine)> =
            (0..3).map(|_| self.through_engine(checks)).collect();
        let engine_us =
            median(&engine_runs.iter().map(|(s, _)| *s).collect::<Vec<_>>()) / ops * 1e6;
        let service_runs: Vec<f64> = (0..3)
            .map(|_| {
                let svc = service(self.sessions);
                let t = Instant::now();
                let (_, bad) = drive(&self.lines, |l| svc.handle_line(l).line());
                let s = t.elapsed().as_secs_f64();
                checks.bulk(self.lines.len() as u64, bad, "one Service's replies not ok");
                s
            })
            .collect();
        let service_us = median(&service_runs) / ops * 1e6;
        out.set("steer.engine_op_us", engine_us);
        out.set("steer.serve_self_us", service_us - engine_us);
        out.set("steer.fleet_self_us", fleet_us - service_us);
        out.set("fleet.self_us", fleet_us - service_us);

        let counters: std::collections::BTreeMap<&str, u64> =
            engine_runs[0].1.counters().into_iter().collect();
        let (cached, computed) = (
            counters["steer.delta.cached"],
            counters["steer.delta.computed"],
        );
        out.set(
            "steer.delta_hit_ratio",
            cached as f64 / (cached + computed).max(1) as f64,
        );
        out.set("steer.replayed", counters["steer.replayed"] as f64);

        // `core::steering` under the engine, in isolation.
        let mut workload = PipelineConfig::small(2);
        workload.timesteps = 512;
        let mut pipe = SteeringPipeline::new(&workload, 1).expect("small config opens");
        const STEPS: u64 = 256;
        let t = Instant::now();
        for _ in 0..STEPS {
            std::hint::black_box(pipe.advance(1));
        }
        out.set(
            "core.steering_advance_us",
            t.elapsed().as_secs_f64() * 1e6 / STEPS as f64,
        );
        let adj = Adjustment::IoInterval(3);
        const ASKS: u32 = 200;
        let t = Instant::now();
        for _ in 0..ASKS {
            std::hint::black_box(pipe.whatif(&adj).expect("a valid adjustment"));
        }
        out.set(
            "core.steering_whatif_us",
            t.elapsed().as_secs_f64() * 1e6 / f64::from(ASKS),
        );
    }
}
