//! The seven workloads and the loop that runs one of them.
//!
//! Every number here is **host wall-clock** unless it says *virtual*.
//! Virtual (simulated) statistics are printed beside the timings; they enter
//! each iteration's output digest, so they must be bit-identical between
//! iterations.

use std::time::Instant;

use greenness_trace::hash::{blake2s256, hex};

use crate::report::{RunResult, Values, END_TO_END, PER_LAYER};
use crate::spans::Recorder;
use crate::stats::median;

mod cluster_grid;
mod fleet_replay;
mod journal_audit;
mod paper_grid;
mod replay;
mod serve_loopback;
mod steer_sessions;
mod tiered_placement;

/// How often set-up is repeated in a run; `setup_s` is the median.
const SETUP_REPEATS: usize = 7;
/// Timed iterations a run makes at least, whatever `--seconds` says.
const MIN_ITERATIONS: usize = 3;

/// What a run was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    pub seed: u64,
    /// Measuring budget of the timed phase, host seconds.
    pub seconds: f64,
    /// Every workload at ≥10× reduced size (`--smoke`).
    pub smoke: bool,
}

/// Correctness checks of a run: every violation is counted and the first
/// few are printed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    messages: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.messages.len() < 8 {
                self.messages.push(what());
            }
        }
    }

    /// Count `n` operations that were checked in bulk, `bad` of them failing.
    pub fn bulk(&mut self, n: u64, bad: u64, what: &str) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 && self.messages.len() < 8 {
            self.messages.push(format!("{bad} of {n}: {what}"));
        }
    }
}

/// One timed iteration.
#[derive(Debug, Clone)]
pub struct Iter {
    /// Host seconds of the iteration's timed region (a `wall_s` sample).
    pub wall_s: f64,
    /// Work items the iteration completed, and the host seconds they took
    /// (`req_per_s` is the median over iterations of items / seconds). Equal
    /// to the timed region for every workload but `serve_loopback`, whose
    /// items are the warm replies.
    pub items: u64,
    pub items_s: f64,
    /// Digest of the iteration's output (manifest / journal / replay log /
    /// transcript), hex. Identical across a run's iterations unless the
    /// workload says its iterations differ by design.
    pub digest: String,
    /// What the iteration produced (virtual statistics where the workload
    /// has them), for the human-readable report.
    pub note: String,
}

/// A workload: seeded inputs, a set-up, a timed iteration, a traced pass.
pub trait Workload {
    /// Generate inputs, start servers, run the untimed warm-up. Called
    /// `SETUP_REPEATS` times (after `teardown`); the last state is kept.
    fn setup(&mut self, ctx: &Ctx);

    /// Stop whatever `setup` started and wait for it to end. Untimed.
    fn teardown(&mut self) {}

    /// One timed iteration, with its own checks.
    fn iterate(&mut self, checks: &mut Checks) -> Iter;

    /// Whether all iterations of one run must produce one digest.
    fn digest_repeats(&self) -> bool {
        true
    }

    /// The traced pass: drive the same inputs with spans around each
    /// layer's public calls, and fill the per-layer metrics this workload
    /// produces. `baseline` is this run's untraced pass.
    fn traced(
        &mut self,
        ctx: &Ctx,
        baseline: &Untraced,
        rec: &mut Recorder,
        checks: &mut Checks,
        out: &mut Values,
    );
}

/// The untraced pass of a run.
#[derive(Debug, Clone)]
pub struct Untraced {
    /// Every iteration's `wall_s` sample, in run order.
    pub walls: Vec<f64>,
    pub wall_s: f64,
    pub req_per_s: f64,
    pub digest: String,
    pub note: String,
}

fn build(name: &str) -> Option<Box<dyn Workload>> {
    Some(match name {
        "paper_grid" => Box::new(paper_grid::PaperGrid::default()),
        "journal_audit" => Box::new(journal_audit::JournalAudit::default()),
        "cluster_grid" => Box::new(cluster_grid::ClusterGrid::default()),
        "tiered_placement" => Box::new(tiered_placement::TieredPlacement::default()),
        "serve_loopback" => Box::new(serve_loopback::ServeLoopback::default()),
        "fleet_replay" => Box::new(fleet_replay::FleetReplay::default()),
        "steer_sessions" => Box::new(steer_sessions::SteerSessions::default()),
        _ => return None,
    })
}

/// Completion instants of a sweep's cells, gathered through the sweep's own
/// progress callback. On one worker the cells finish in submission order, so
/// consecutive instants bracket one cell each.
#[derive(Default)]
pub struct Stamps(std::sync::Mutex<Vec<Instant>>);

impl Stamps {
    pub fn callback(&self) -> impl Fn(usize, usize, &str) + Sync + '_ {
        |_, _, _| {
            self.0
                .lock()
                .expect("no holder of the stamp list panics")
                .push(Instant::now());
        }
    }

    /// Record one span per cell under the open span: `names[i]` from the
    /// previous cell's completion (or `started`) to cell `i`'s.
    pub fn record(self, rec: &mut Recorder, started: Instant, names: &[&'static str]) {
        let stamps = self
            .0
            .into_inner()
            .expect("no holder of the stamp list panics");
        let mut prev = started;
        for (name, done) in names.iter().zip(stamps) {
            rec.record(name, prev, done);
            prev = done;
        }
    }
}

/// Whether a pass that began at `started` and has completed `done`
/// iterations should run another: until `budget_s` host seconds have passed,
/// and at least `min` iterations.
pub fn keep_going(started: Instant, done: usize, min: usize, budget_s: f64) -> bool {
    done < min || started.elapsed().as_secs_f64() < budget_s
}

/// Record the layered replay's honesty check: `matching` of `cells` cells
/// bit-equal the real run's energy.
pub fn set_energy_match(matching: usize, cells: usize, checks: &mut Checks, out: &mut Values) {
    checks.check(matching == cells, || {
        format!("replay energy matches the real run on {matching} of {cells} cells")
    });
    out.set(
        "core.replay_energy_match",
        matching as f64 / cells.max(1) as f64,
    );
}

/// Hex BLAKE2s of `parts`, each length-prefixed.
pub fn digest_of(parts: &[&[u8]]) -> String {
    let mut h = greenness_trace::hash::Blake2s256::default();
    for p in parts {
        h.update(&(p.len() as u64).to_le_bytes());
        h.update(p);
    }
    hex(&h.finalize())
}

/// Hex BLAKE2s of one string.
pub fn digest_str(s: &str) -> String {
    hex(&blake2s256(s.as_bytes()))
}

/// Run timed iterations until `budget_s` host seconds have passed (and at
/// least `min_iters`), checking that the output digest repeats.
fn untraced_pass(
    w: &mut dyn Workload,
    budget_s: f64,
    min_iters: usize,
    checks: &mut Checks,
) -> Untraced {
    let started = Instant::now();
    let (mut walls, mut rates) = (Vec::new(), Vec::new());
    let mut first: Option<Iter> = None;
    while keep_going(started, walls.len(), min_iters, budget_s) {
        let it = w.iterate(checks);
        walls.push(it.wall_s);
        rates.push(it.items as f64 / it.items_s.max(1e-12));
        match &first {
            None => first = Some(it),
            Some(f) if w.digest_repeats() => {
                checks.check(f.digest == it.digest, || {
                    format!(
                        "iteration {} digest {} differs from the first, {}",
                        walls.len(),
                        it.digest,
                        f.digest
                    )
                });
            }
            Some(_) => {}
        }
    }
    let first = first.expect("at least one iteration ran");
    Untraced {
        wall_s: median(&walls),
        req_per_s: median(&rates),
        walls,
        digest: first.digest,
        note: first.note,
    }
}

/// `VmHWM` of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Run one workload once: the end-to-end pass (`trace == false`) or the
/// traced pass. Human-readable lines go to stdout; the caller prints the
/// result line last. With `spans_out`, the traced pass also writes its raw
/// spans there, one JSON object per line.
pub fn run(
    name: &str,
    ctx: &Ctx,
    trace: bool,
    spans_out: Option<&str>,
) -> Result<RunResult, String> {
    let mut w = build(name).ok_or_else(|| format!("unknown workload '{name}'"))?;
    let mut checks = Checks::default();
    let min_iters = if ctx.smoke { 2 } else { MIN_ITERATIONS };

    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        w.teardown();
        let t = Instant::now();
        w.setup(ctx);
        setups.push(t.elapsed().as_secs_f64());
    }
    let setup_s = median(&setups);
    println!(
        "{name}: seed {} setup_s {setup_s:.6} s (median of {SETUP_REPEATS})",
        ctx.seed
    );

    let metrics = if trace {
        // The traced pass needs this run's own untraced numbers to reconcile
        // against: a third of the budget measures them, the rest is traced.
        let baseline = untraced_pass(w.as_mut(), ctx.seconds / 3.0, 2, &mut checks);
        println!(
            "{name}: untraced wall_s {:.6} s, {:.3} items/s over {} iteration(s)",
            baseline.wall_s,
            baseline.req_per_s,
            baseline.walls.len()
        );
        let mut rec = Recorder::new(name);
        let mut out = Values::zeroed(&PER_LAYER);
        w.traced(ctx, &baseline, &mut rec, &mut checks, &mut out);
        print!("{}", rec.table());
        if let Some(path) = spans_out {
            std::fs::write(path, rec.to_jsonl())
                .map_err(|e| format!("cannot write spans to {path}: {e}"))?;
            println!("{name}: wrote {} spans to {path}", rec.len());
        }
        out.set("bench.peak_rss_mb", peak_rss_mb());
        out.set(
            "bench.fail_share",
            checks.failed as f64 / checks.attempted.max(1) as f64,
        );
        for (d, v) in out.iter().filter(|(_, v)| *v != 0.0) {
            println!("  {name} {:<34} {v:>16.6} {}", d.name, d.unit);
        }
        out
    } else {
        let e2e = untraced_pass(w.as_mut(), ctx.seconds, min_iters, &mut checks);
        let mut out = Values::zeroed(&END_TO_END);
        out.set("wall_s", e2e.wall_s);
        out.set("req_per_s", e2e.req_per_s);
        out.set("peak_heap_mb", crate::heap::peak_mb());
        out.set("setup_s", setup_s);
        println!(
            "{name}: {} timed iteration(s), output digest {}",
            e2e.walls.len(),
            e2e.digest
        );
        let samples: Vec<String> = e2e.walls.iter().map(|s| format!("{s:.6}")).collect();
        println!("{name}: wall_s samples [{}]", samples.join(", "));
        println!("{name}: {}", e2e.note);
        for (d, v) in out.iter() {
            println!("  {name} {:<34} {v:>16.6} {}", d.name, d.unit);
        }
        out
    };
    w.teardown();

    for m in &checks.messages {
        println!("{name}: CHECK FAILED: {m}");
    }
    let finite = metrics.all_finite();
    if !finite {
        println!("{name}: CHECK FAILED: a metric is not a finite number");
    }
    println!(
        "{name}: fail_share {} / {} checked operations",
        checks.failed, checks.attempted
    );
    Ok(RunResult {
        correct: checks.failed == 0 && finite,
        attempted: checks.attempted.max(1),
        failed: checks.failed,
        metrics,
    })
}
