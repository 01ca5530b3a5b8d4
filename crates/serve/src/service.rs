//! The query service: request handlers over the lab's analyses, fronted by
//! the content-addressed cache and the admission gate.
//!
//! Handling order is deliberate: parse → control ops (`metrics`,
//! `shutdown`) → **cache lookup** → admission → execute → cache insert.
//! Cache hits are answered before touching the gate, so a warm working set
//! keeps serving at full speed even when every execution slot is busy — the
//! serving-layer analogue of the paper's static-energy argument: work you
//! don't redo is energy you don't spend.
//!
//! Every response for a given request id is byte-identical whether it was
//! computed or replayed from cache; hits are visible only in the
//! `serve.cache.*` counters.

use std::borrow::Cow;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use greenness_core::advisor::{self, IoBehavior, WorkloadProfile};
use greenness_core::steering::{Adjustment, StampBook};
use greenness_core::sweep;
use greenness_core::whatif::WhatIfAnalysis;
use greenness_core::{CaseComparison, ExperimentSetup, PipelineConfig, PipelineKind};
use greenness_faults::{FaultInjector, FaultPlan, Site};
use greenness_platform::DiskModel;
use greenness_power::GreenMetrics;
use greenness_steer::{AttachSpec, EngineConfig, SessionEngine, SteerError, SteerReply};
use greenness_trace::{fmt_f64, push_escaped, push_f64, MetricsRegistry};

use crate::admission::{Denial, Gate};
use crate::cache::ResultCache;
use crate::json::Span;
use crate::protocol::{self, ErrorCode, Params, Request, Response};

/// How long an injected slow-handler fault stalls the worker. Wall-clock
/// only — it never enters any response or metric, so replay output stays
/// byte-identical.
const SLOW_FAULT_STALL: Duration = Duration::from_millis(2);

/// Lock a service mutex, recovering from poisoning: a panicking handler
/// must never brick the server, and every value these mutexes guard
/// (cache, metrics, fault schedule) is valid at every await-free step.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Tuning knobs of one service instance.
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads for `sweep` requests. Changes wall-clock only — sweep
    /// results are bit-identical for any value (PR-1 executor guarantee).
    pub jobs: usize,
    /// Result-cache byte budget.
    pub cache_bytes: usize,
    /// Concurrent execution slots.
    pub slots: usize,
    /// Bounded waiting-room depth; a request arriving beyond it is shed.
    pub queue_depth: usize,
    /// Seeded fault schedule: injected connection drops (the server hangs
    /// up without responding) and slow handlers (a fixed wall-clock stall).
    /// `None` — the default — is the fault-free fast path.
    pub faults: Option<FaultPlan>,
    /// Maximum concurrently attached steering sessions (`steer.*` ops).
    pub session_slots: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            jobs: 4,
            cache_bytes: 1 << 20,
            slots: 4,
            queue_depth: 16,
            faults: None,
            session_slots: 8,
        }
    }
}

/// How the service disposed of a request — the router-facing summary the
/// fleet layer accounts by without re-parsing response lines.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Disposition {
    /// Answered from the result cache.
    Hit,
    /// Computed, cached, and answered.
    Miss,
    /// A control op (`metrics` / `shutdown`).
    Control,
    /// A stateful steering op (`steer.*`): applied to a session, never
    /// cached.
    Session,
    /// A structured error reply (bad request, shed, or handler failure).
    Error,
    /// An injected connection drop: no reply was produced, and the caller
    /// must hang up (or, in replay, retry) instead of delivering one.
    Dropped,
}

/// One handled request: the response (no trailing newline) plus whether
/// the request asked the server to drain.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The NDJSON response, in wire segments. Cache hits and misses carry
    /// the shared cache payload here — the server writes it without an
    /// intermediate envelope copy.
    pub response: Response,
    /// `true` for a granted `shutdown` op.
    pub shutdown: bool,
    /// What happened, for router-side accounting.
    pub disposition: Disposition,
    /// Simulated seconds the request cost to compute (`0.0` on hits,
    /// control ops, and errors) — the same quantity the service observes
    /// into `serve.virtual_s` on a miss.
    pub virtual_s: f64,
}

impl Outcome {
    /// Every outcome is built here; a granted `shutdown` sets its flag after.
    fn new(response: Response, disposition: Disposition, virtual_s: f64) -> Outcome {
        Outcome {
            response,
            shutdown: false,
            disposition,
            virtual_s,
        }
    }

    /// An error reply carrying one complete line.
    fn reply(line: String) -> Outcome {
        Outcome::new(Response::whole(line), Disposition::Error, 0.0)
    }

    /// The materialized response line (tests and the replay harness; the
    /// server streams `self.response` segment by segment instead).
    pub fn line(&self) -> String {
        self.response.to_line()
    }
}

/// The seeded per-site fault schedules of one service instance.
struct ServeFaults {
    conn: FaultInjector,
    handler: FaultInjector,
}

/// The shared service state behind every connection.
pub struct Service {
    config: ServiceConfig,
    cache: Mutex<ResultCache>,
    gate: Gate,
    metrics: Mutex<MetricsRegistry>,
    faults: Option<Mutex<ServeFaults>>,
    steer: Mutex<SessionEngine>,
}

impl Service {
    /// A fresh service, its steering book its own.
    pub fn new(config: ServiceConfig) -> Service {
        Service::with_book(config, StampBook::default())
    }

    /// A fresh service whose steering sessions share `book` with every
    /// other holder of it (a fleet's shards).
    pub fn with_book(config: ServiceConfig, book: StampBook) -> Service {
        Service {
            cache: Mutex::new(ResultCache::new(config.cache_bytes)),
            gate: Gate::new(config.slots, config.queue_depth),
            metrics: Mutex::new(MetricsRegistry::default()),
            faults: config.faults.map(|plan| {
                Mutex::new(ServeFaults {
                    conn: plan.injector(Site::ServeConn, 0),
                    handler: plan.injector(Site::ServeHandler, 1),
                })
            }),
            steer: Mutex::new(SessionEngine::with_book(
                EngineConfig {
                    session_slots: config.session_slots,
                    jobs: config.jobs,
                },
                book,
            )),
            config,
        }
    }

    /// The admission gate (the server drains through it on shutdown).
    pub fn gate(&self) -> &Gate {
        &self.gate
    }

    /// Snapshot of the service metrics registry.
    pub fn metrics_clone(&self) -> MetricsRegistry {
        lock(&self.metrics).clone()
    }

    /// Fill `key` with `payload` **if absent**, as the most recently used
    /// entry. Returns whether the entry was inserted. This is the fleet
    /// router's replication path: it must not count a hit or a miss (the
    /// hit/miss ledger belongs to real lookups), but evictions and
    /// rejections it causes are real and are counted.
    pub fn cache_fill(&self, key: [u8; 32], payload: Arc<Vec<u8>>) -> bool {
        {
            let cache = lock(&self.cache);
            if cache.contains(&key) {
                return false;
            }
        }
        self.cache_put(key, payload);
        true
    }

    /// Read `key` without touching hit/miss counters or recency — the
    /// rebalancer copies entries between shards through this.
    pub fn cache_share(&self, key: &[u8; 32]) -> Option<Arc<Vec<u8>>> {
        lock(&self.cache).peek(key)
    }

    /// All cached keys in sorted order (a deterministic scan order for
    /// rebalancing).
    pub fn cache_keys(&self) -> Vec<[u8; 32]> {
        lock(&self.cache).keys_sorted()
    }

    /// Handle one request line and produce one response line.
    pub fn handle_line(&self, line: &str) -> Outcome {
        match protocol::parse_request(line) {
            Ok(req) => self.handle(&req),
            Err((id, msg)) => Outcome::reply(self.bad_request(&id, &msg)),
        }
    }

    /// Count one refused line under `serve.bad_request` and spell its reply.
    pub(crate) fn bad_request(&self, id: &str, message: &str) -> String {
        self.count("serve.bad_request");
        protocol::error_line(id, ErrorCode::BadRequest, message)
    }

    /// Handle one parsed request. The fleet router calls this with the
    /// `Request` it routed by, so a line is parsed and hashed once between
    /// socket and op handler.
    pub fn handle(&self, req: &Request) -> Outcome {
        // Control ops bypass cache, admission, the request counters, and
        // fault injection, so that observing the service never perturbs
        // what is observed.
        match req.op.as_ref() {
            "metrics" => {
                let body = lock(&self.metrics).to_json();
                let line = protocol::ok_line(&req.id, &body);
                return Outcome::new(Response::whole(line), Disposition::Control, 0.0);
            }
            "shutdown" => {
                // Close the gate here, not in the TCP server: any embedding
                // (the fleet router, the replay harness, tests) that grants a
                // shutdown op begins draining immediately, and a request
                // parked in the bounded wait queue is woken and shed with a
                // structured `shutting_down` error instead of sleeping out
                // its deadline.
                self.gate.shutdown();
                let line = protocol::ok_line(&req.id, "{\"status\":\"draining\"}");
                return Outcome {
                    shutdown: true,
                    ..Outcome::new(Response::whole(line), Disposition::Control, 0.0)
                };
            }
            _ => {}
        }
        // Steering ops are stateful: they bypass the result cache, check the
        // drain flag before mutating anything, and take their fault-schedule
        // slot only *after* the op committed (see `handle_steer`).
        if req.op.starts_with("steer.") {
            return self.handle_steer(req);
        }
        // The fault schedule fires before any request accounting: a dropped
        // connection never handled the request, so only the fault counter
        // moves and the retry (if any) is accounted like a fresh arrival.
        if self.fault_drops() {
            return Outcome::new(Response::whole(String::new()), Disposition::Dropped, 0.0);
        }
        self.count("serve.requests");

        // Cache first: hits never burn an execution slot, and the payload
        // crosses to the wire as the cache's own allocation — an Arc clone,
        // not a byte copy.
        if let Some(payload) = self.cache_get(&req.cache_key) {
            self.count("serve.cache.hits");
            return Outcome::new(Response::enveloped(&req.id, payload), Disposition::Hit, 0.0);
        }
        self.count("serve.cache.misses");

        let deadline = req.deadline_ms.map(Duration::from_millis);
        let _permit = match self.gate.admit(deadline) {
            Ok(permit) => permit,
            Err(denial) => {
                let (counter, code, msg) = match denial {
                    Denial::Overloaded => (
                        "serve.shed.overloaded",
                        ErrorCode::Overloaded,
                        "admission queue full; retry later",
                    ),
                    Denial::DeadlineExceeded => (
                        "serve.shed.deadline",
                        ErrorCode::DeadlineExceeded,
                        "deadline elapsed while queued",
                    ),
                    Denial::ShuttingDown => (
                        "serve.shed.shutting_down",
                        ErrorCode::ShuttingDown,
                        "server is draining",
                    ),
                };
                self.count(counter);
                return Outcome::reply(protocol::error_line(&req.id, code, msg));
            }
        };

        self.settle(req, self.execute(req), Disposition::Miss, |result| {
            // One allocation serves both the cache entry and this response:
            // warm and cold replies are byte-identical by construction, not
            // by convention.
            let payload = Arc::new(result.into_bytes());
            self.cache_put(req.cache_key, Arc::clone(&payload));
            Response::enveloped(&req.id, payload)
        })
    }

    /// The `serve.ok` / `serve.err` tail of every executed op: count the
    /// result and build the outcome, `wrap` turning the op's serialized
    /// result into its response.
    fn settle(
        &self,
        req: &Request,
        executed: OpResult,
        disposition: Disposition,
        wrap: impl FnOnce(String) -> Response,
    ) -> Outcome {
        match executed {
            Ok((result, virtual_s)) => {
                self.count("serve.ok");
                if virtual_s > 0.0 {
                    // Deterministic cost accounting: simulated seconds the
                    // request cost to compute, observed only on misses (a
                    // steering op reports none) — the replay harness's
                    // stand-in for wall-clock latency.
                    lock(&self.metrics).observe("serve.virtual_s", virtual_s);
                }
                Outcome::new(wrap(result), disposition, virtual_s)
            }
            Err((code, msg)) => {
                self.count("serve.err");
                Outcome::reply(protocol::error_line(&req.id, code, &msg))
            }
        }
    }

    /// Consume the request's fault-schedule slot: count what fired, stall on
    /// a slow handler, and say whether the connection drops.
    fn fault_drops(&self) -> bool {
        let Some(faults) = &self.faults else {
            return false;
        };
        let (dropped, slow) = {
            let mut faults = lock(faults);
            let dropped = faults.conn.next().is_some();
            (dropped, !dropped && faults.handler.next().is_some())
        };
        if dropped {
            self.count("faults.serve.conn");
        }
        if slow {
            self.count("faults.serve.handler");
            std::thread::sleep(SLOW_FAULT_STALL);
        }
        dropped
    }

    fn count(&self, name: &'static str) {
        lock(&self.metrics).incr(name, 1);
    }

    /// Handle a `steer.*` op. Ordering is load-bearing:
    ///
    /// 1. **Drain check first.** A draining server refuses the op *before*
    ///    touching the session, so no frame is ever torn mid-render; the
    ///    refusal embeds the session's deterministic resume token.
    /// 2. **Execute under the engine lock**, noting the engine's counter
    ///    movement to mirror into the service metrics registry.
    /// 3. **Fault slot last.** An injected connection drop fires only after
    ///    the op committed (drop-after-apply), so the client's retry of the
    ///    same seq exercises the byte-identical replay path instead of
    ///    double-applying.
    ///
    /// The op's counters, the engine's and `serve.ok` / `serve.err` move
    /// under one lock of the registry, and the reply is written once, in
    /// its envelope.
    fn handle_steer(&self, req: &Request) -> Outcome {
        let session = req.session();
        if self.gate.is_draining() {
            let token = lock(&self.steer).resume_token(&session);
            self.count("serve.shed.shutting_down");
            let message = format!(
                "server is draining; re-attach session '{session}' elsewhere and resume with token {token}"
            );
            return Outcome::reply(protocol::error_line(
                &req.id,
                ErrorCode::ShuttingDown,
                &message,
            ));
        }
        let (executed, before, after) = {
            let mut engine = lock(&self.steer);
            let before = engine.counters();
            let executed = steer_op(&mut engine, req, &session);
            (executed, before, engine.counters())
        };
        let dropped = self.fault_drops();
        {
            let mut m = lock(&self.metrics);
            m.incr("serve.requests", 1);
            for ((name, was), (_, now)) in before.into_iter().zip(after) {
                if now > was {
                    m.incr(name, now - was);
                }
            }
            if !dropped {
                let settled = if executed.is_ok() {
                    "serve.ok"
                } else {
                    "serve.err"
                };
                m.incr(settled, 1);
            }
        }
        if dropped {
            return Outcome::new(Response::whole(String::new()), Disposition::Dropped, 0.0);
        }
        match executed {
            Ok((line, energy_j)) => {
                // `{"steer":"<line>","energy_j":<energy_j>}`, in place.
                let reply = protocol::ok_line_with(&req.id, line.len() + 48, |out| {
                    out.push_str("{\"steer\":\"");
                    let _ = push_escaped(out, &line);
                    out.push_str("\",\"energy_j\":");
                    // `String`'s `fmt::Write` never fails.
                    let _ = push_f64(out, energy_j);
                    out.push('}');
                });
                Outcome::new(Response::whole(reply), Disposition::Session, 0.0)
            }
            Err((code, msg)) => Outcome::reply(protocol::error_line(&req.id, code, &msg)),
        }
    }

    fn cache_get(&self, key: &[u8; 32]) -> Option<Arc<Vec<u8>>> {
        let mut cache = lock(&self.cache);
        let payload = cache.get(key)?;
        match std::str::from_utf8(&payload) {
            Ok(_) => Some(payload),
            Err(_) => {
                // A corrupt payload must never panic the worker: evict the
                // entry, reclassify the lookup as a miss (the caller will
                // recompute), and count the corruption.
                cache.remove(key);
                cache.hits -= 1;
                cache.misses += 1;
                drop(cache);
                self.count("serve.cache.corrupt");
                None
            }
        }
    }

    fn cache_put(&self, key: [u8; 32], payload: Arc<Vec<u8>>) {
        let (evictions, rejected) = {
            let mut cache = lock(&self.cache);
            let before = (cache.evictions, cache.rejected);
            cache.insert(key, payload);
            (cache.evictions - before.0, cache.rejected - before.1)
        };
        if evictions + rejected > 0 {
            let mut m = lock(&self.metrics);
            m.incr("serve.cache.evictions", evictions);
            m.incr("serve.cache.rejected", rejected);
        }
    }

    /// Dispatch to the op handler. Returns the serialized result plus the
    /// simulated seconds the computation covered.
    fn execute(&self, req: &Request) -> OpResult {
        match req.op.as_ref() {
            "run" => op_run(req.params()),
            "compare" => op_compare(req.params()),
            "whatif" => op_whatif(req.params()),
            "advisor" => op_advisor(req.params()),
            "sweep" => op_sweep(req.params(), self.config.jobs),
            other => Err(bad(format!(
                "unknown op '{other}' (expected run|compare|whatif|advisor|sweep|steer.attach|steer.adjust|steer.render|steer.detach|metrics|shutdown)"
            ))),
        }
    }
}

/// A refused or failed op: the protocol error code and its message.
type OpError = (ErrorCode, String);
type OpResult = Result<(String, f64), OpError>;

fn bad(msg: impl Into<String>) -> OpError {
    (ErrorCode::BadRequest, msg.into())
}

/// The member `key` of `params`, read through `read`; one that is absent, or
/// that `read` turns away, is refused as "`key` must `must`".
fn required<'a, T>(
    params: Params<'a>,
    key: &str,
    read: impl FnOnce(Span<'a>) -> Option<T>,
    must: &str,
) -> Result<T, OpError> {
    let member = params.get(key).and_then(read);
    member.ok_or_else(|| bad(format!("{key} must {must}")))
}

/// [`required`] for an optional member: absence is `None`, and the default
/// stays with the caller.
fn opt<'a, T>(
    params: Params<'a>,
    key: &str,
    read: impl FnOnce(Span<'a>) -> Option<T>,
    must: &str,
) -> Result<Option<T>, OpError> {
    match params.get(key) {
        None => Ok(None),
        Some(_) => required(params, key, read, must).map(Some),
    }
}

fn positive(v: Span) -> Option<u64> {
    v.as_u64().filter(|n| *n > 0)
}

fn case_number(v: Span) -> Option<u32> {
    v.as_u64().filter(|n| (1..=3).contains(n)).map(|n| n as u32)
}

/// Map a pipeline error onto the protocol: config/solver problems are the
/// caller's (bad request), storage/corruption are the server's (internal).
/// Either way the request dies as an error envelope, never a panic.
fn pipeline_err(e: greenness_core::pipeline::PipelineError) -> OpError {
    use greenness_core::pipeline::PipelineError;
    match &e {
        PipelineError::Config(_) | PipelineError::Solver(_) => {
            (ErrorCode::BadRequest, e.to_string())
        }
        PipelineError::Storage { .. } | PipelineError::CorruptSnapshot { .. } => {
            (ErrorCode::Internal, e.to_string())
        }
    }
}

/// Map a steering refusal onto the protocol: slot exhaustion is
/// back-pressure (`overloaded`), pipeline failures keep the pipeline
/// mapping, everything else is the caller's mistake.
fn steer_err(e: SteerError) -> OpError {
    match e {
        SteerError::Slots { .. } => (ErrorCode::Overloaded, e.to_string()),
        SteerError::Pipeline(pe) => pipeline_err(pe),
        other => (ErrorCode::BadRequest, other.to_string()),
    }
}

/// Parse one steering op and apply it to `engine`.
fn steer_op(
    engine: &mut SessionEngine,
    req: &Request,
    session: &str,
) -> Result<SteerReply, OpError> {
    if session.is_empty() {
        return Err(bad("session must be a non-empty string"));
    }
    let params = req.params();
    let integer = |key| opt(params, key, Span::as_u64, "be an integer");
    let result = match req.op.as_ref() {
        "steer.attach" => {
            let mut spec = AttachSpec::default();
            if let Some(n) = integer("interval")? {
                spec.interval = n;
            }
            if let Some(n) = integer("timesteps")? {
                spec.timesteps = n;
            }
            engine.attach(session, &spec)
        }
        "steer.adjust" => {
            let seq = steer_seq(params)?;
            let adj = parse_adjustment(params)?;
            engine.adjust(session, seq, &adj)
        }
        "steer.render" => {
            let seq = steer_seq(params)?;
            engine.render(session, seq, integer("steps")?.unwrap_or(1))
        }
        "steer.detach" => engine.detach(session, steer_seq(params)?),
        other => {
            return Err(bad(format!(
                "unknown steer op '{other}' (expected steer.attach|steer.adjust|steer.render|steer.detach)"
            )))
        }
    };
    result.map_err(steer_err)
}

/// The mandatory per-op sequence number (attach is seq 0; ops start at 1).
fn steer_seq(params: Params) -> Result<u64, OpError> {
    required(params, "seq", positive, "be an integer >= 1")
}

/// Parse the `steer.adjust` payload into a typed [`Adjustment`].
fn parse_adjustment(params: Params) -> Result<Adjustment, OpError> {
    let integer = |key| required(params, key, Span::as_u64, "be an integer");
    let kind = required(
        params,
        "kind",
        Span::as_str,
        "be io_interval|resolution|camera",
    )?;
    match &*kind {
        "io_interval" => Ok(Adjustment::IoInterval(integer("io_interval")?)),
        "resolution" => Ok(Adjustment::Resolution {
            width: integer("width")? as usize,
            height: integer("height")? as usize,
        }),
        "camera" => {
            let colormap = match params
                .get("colormap")
                .and_then(Span::as_str)
                .as_deref()
                .unwrap_or("hot")
            {
                "viridis" => greenness_viz::Colormap::Viridis,
                "hot" => greenness_viz::Colormap::Hot,
                "coolwarm" => greenness_viz::Colormap::CoolWarm,
                "gray" => greenness_viz::Colormap::Gray,
                other => {
                    return Err(bad(format!(
                        "unknown colormap '{other}' (expected viridis|hot|coolwarm|gray)"
                    )))
                }
            };
            let range = match opt(params, "range", Span::items, "be a [lo, hi] array")? {
                None => None,
                Some(arr) => {
                    let (Some(lo), Some(hi)) = (
                        arr.first().and_then(|v| v.as_f64()),
                        arr.get(1).and_then(|v| v.as_f64()),
                    ) else {
                        return Err(bad("range must be a [lo, hi] array of numbers"));
                    };
                    // partial_cmp so a NaN bound is rejected, not accepted.
                    let ordered = lo.partial_cmp(&hi) == Some(std::cmp::Ordering::Less);
                    if arr.len() != 2 || !ordered {
                        return Err(bad("range must be [lo, hi] with lo < hi"));
                    }
                    Some((lo, hi))
                }
            };
            Ok(Adjustment::Camera { colormap, range })
        }
        other => Err(bad(format!(
            "unknown adjustment kind '{other}' (expected io_interval|resolution|camera)"
        ))),
    }
}

/// The `scale` a request asks for; `"small"` when it names none.
fn scale_of(params: Params) -> Result<Cow<str>, OpError> {
    Ok(opt(params, "scale", Span::as_str, "be a string")?.unwrap_or(Cow::Borrowed("small")))
}

/// Case study `case` at `scale`: `"small"` is the millisecond-scale 64×64
/// grid with the paper's I/O cadence (interval 1/2/8 for cases 1/2/3);
/// `"paper"` is the full §IV-C workload.
fn config_at(scale: &str, case: u32) -> Result<PipelineConfig, OpError> {
    match scale {
        "small" => Ok(PipelineConfig::small(match case {
            1 => 1,
            2 => 2,
            _ => 8,
        })),
        "paper" => Ok(PipelineConfig::case_study(case)),
        other => Err(bad(format!(
            "unknown scale '{other}' (expected small|paper)"
        ))),
    }
}

/// The case-study workload a request names: `case` (default 1) at
/// [`scale_of`] the request.
fn workload(params: Params) -> Result<(u32, PipelineConfig), OpError> {
    let case = opt(params, "case", case_number, "be 1, 2, or 3")?.unwrap_or(1);
    Ok((case, config_at(&scale_of(params)?, case)?))
}

fn metrics_json(m: &GreenMetrics) -> String {
    format!(
        "{{\"execution_time_s\":{},\"average_power_w\":{},\"peak_power_w\":{},\"energy_j\":{}}}",
        fmt_f64(m.execution_time_s),
        fmt_f64(m.average_power_w),
        fmt_f64(m.peak_power_w),
        fmt_f64(m.energy_j)
    )
}

fn op_run(params: Params) -> OpResult {
    let kind: PipelineKind = match opt(params, "pipeline", Span::as_str, "be a string")? {
        None => PipelineKind::InSitu,
        Some(name) => name.parse().map_err(bad)?,
    };
    let (case, cfg) = workload(params)?;
    let report = greenness_core::experiment::run(kind, &cfg, &ExperimentSetup::default())
        .map_err(pipeline_err)?;
    let result = format!(
        "{{\"pipeline\":\"{}\",\"case\":{case},\"config\":\"{}\",\"metrics\":{}}}",
        kind.label(),
        greenness_trace::escape_json(&report.config_label),
        metrics_json(&report.metrics)
    );
    Ok((result, report.metrics.execution_time_s))
}

fn comparison_json(c: &CaseComparison) -> String {
    format!(
        "{{\"case\":{},\"post\":{},\"insitu\":{},\"energy_savings_pct\":{},\"time_reduction_pct\":{},\"power_increase_pct\":{},\"efficiency_improvement_pct\":{}}}",
        c.case,
        metrics_json(&c.post.metrics),
        metrics_json(&c.insitu.metrics),
        fmt_f64(c.energy_savings_pct()),
        fmt_f64(c.time_reduction_pct()),
        fmt_f64(c.power_increase_pct()),
        fmt_f64(c.efficiency_improvement_pct())
    )
}

fn comparison_virtual_s(c: &CaseComparison) -> f64 {
    c.post.metrics.execution_time_s + c.insitu.metrics.execution_time_s
}

fn op_compare(params: Params) -> OpResult {
    let (case, cfg) = workload(params)?;
    let c = CaseComparison::run_config(case, &cfg, &ExperimentSetup::default())
        .map_err(pipeline_err)?;
    Ok((comparison_json(&c), comparison_virtual_s(&c)))
}

/// Resolve an optional `device` param against the device zoo: the analysis
/// re-runs as if the node's disk were that device (the serving-layer view
/// of the tiered-storage question — "would this workload still need
/// reorganizing on an NVMe tier?").
fn device_param(params: Params) -> Result<(ExperimentSetup, String), OpError> {
    let mut setup = ExperimentSetup::default();
    let Some(name) = opt(params, "device", Span::as_str, "be a string")? else {
        return Ok((setup, "hdd".to_string()));
    };
    let zoo = DiskModel::device_zoo();
    let Some((_, model)) = zoo.iter().find(|(n, _)| *n == name) else {
        let names: Vec<&str> = zoo.iter().map(|(n, _)| *n).collect();
        return Err(bad(format!(
            "unknown device '{name}' (expected {})",
            names.join("|")
        )));
    };
    setup.spec.disk = model.clone();
    Ok((setup, name.to_string()))
}

fn op_whatif(params: Params) -> OpResult {
    let bytes = opt(params, "bytes", positive, "be a positive integer")?.unwrap_or(4 << 30);
    let (setup, device) = device_param(params)?;
    let w = WhatIfAnalysis::run(&setup, bytes)
        .map_err(|e| (ErrorCode::Internal, format!("fio failed: {e}")))?;
    let fio: Vec<String> = w
        .fio
        .iter()
        .map(|r| {
            format!(
                "{{\"kind\":\"{}\",\"execution_time_s\":{},\"full_system_power_w\":{},\"disk_dyn_energy_kj\":{},\"full_system_energy_kj\":{}}}",
                r.kind.label(),
                fmt_f64(r.execution_time_s),
                fmt_f64(r.full_system_power_w),
                fmt_f64(r.disk_dyn_energy_kj),
                fmt_f64(r.full_system_energy_kj)
            )
        })
        .collect();
    let virtual_s: f64 = w.fio.iter().map(|r| r.execution_time_s).sum();
    let result = format!(
        "{{\"bytes\":{bytes},\"device\":\"{device}\",\"random_io_energy_kj\":{},\"reorganized_io_energy_kj\":{},\"retained_fraction\":{},\"fio\":[{}]}}",
        fmt_f64(w.random_io_energy_kj),
        fmt_f64(w.reorganized_io_energy_kj),
        fmt_f64(w.retained_fraction()),
        fio.join(",")
    );
    Ok((result, virtual_s))
}

fn op_advisor(params: Params) -> OpResult {
    let pass_bytes = opt(params, "pass_bytes", Span::as_u64, "be an integer")?.unwrap_or(1 << 30);
    let as_u32 = |v: Span| v.as_u64().and_then(|p| u32::try_from(p).ok());
    let passes = opt(params, "passes", as_u32, "be an integer")?.unwrap_or(1);
    let behavior = match opt(params, "pattern", Span::as_str, "be a string")?.as_deref() {
        None | Some("random") => IoBehavior::Random {
            op_bytes: opt(params, "op_bytes", positive, "be a positive integer")?.unwrap_or(4096),
        },
        Some("sequential") => IoBehavior::Sequential,
        Some(other) => {
            return Err(bad(format!(
                "unknown pattern '{other}' (expected sequential|random)"
            )))
        }
    };
    let needs_exploration =
        opt(params, "needs_exploration", Span::as_bool, "be a bool")?.unwrap_or(true);
    let min_keep_fraction =
        opt(params, "min_keep_fraction", Span::as_f64, "be a number")?.unwrap_or(1.0);
    // `recommend` asserts on this; validate here so a bad request cannot
    // panic a worker.
    if !(min_keep_fraction > 0.0 && min_keep_fraction <= 1.0) {
        return Err(bad("min_keep_fraction must be in (0, 1]"));
    }
    let profile = WorkloadProfile {
        pass_bytes,
        passes,
        behavior,
        needs_exploration,
        min_keep_fraction,
    };
    let (setup, device) = device_param(params)?;
    let advice = advisor::recommend(&setup.spec, &profile);
    let technique = match advice.technique {
        advisor::Technique::InSitu => "\"insitu\"".to_string(),
        advisor::Technique::Reorganize => "\"reorganize\"".to_string(),
        advisor::Technique::DataSampling { keep_fraction } => {
            format!(
                "{{\"sampling\":{{\"keep_fraction\":{}}}}}",
                fmt_f64(keep_fraction)
            )
        }
        advisor::Technique::KeepPostProcessing => "\"keep_post_processing\"".to_string(),
    };
    let result = format!(
        "{{\"device\":\"{device}\",\"current_io_j\":{},\"insitu_io_j\":{},\"reorg_cost_j\":{},\"reorg_pass_j\":{},\"sampling_pass_j\":{},\"technique\":{technique}}}",
        fmt_f64(advice.current_io_j),
        fmt_f64(advice.insitu_io_j),
        fmt_f64(advice.reorg_cost_j),
        fmt_f64(advice.reorg_pass_j),
        fmt_f64(advice.sampling_pass_j)
    );
    // The advisor is a closed-form model; it simulates no pipeline time.
    Ok((result, 0.0))
}

fn op_sweep(params: Params, jobs: usize) -> OpResult {
    let cases: Vec<u32> = match opt(params, "cases", Span::items, "be an array")? {
        None => vec![1, 2, 3],
        Some(items) if items.is_empty() => return Err(bad("cases must be non-empty")),
        Some(items) => items
            .into_iter()
            .map(|item| case_number(item).ok_or_else(|| bad("cases entries must be 1, 2, or 3")))
            .collect::<Result<_, _>>()?,
    };
    let scale = scale_of(params)?;
    let configs: Vec<(u32, PipelineConfig)> = cases
        .iter()
        .map(|&n| Ok((n, config_at(&scale, n)?)))
        .collect::<Result<_, OpError>>()?;
    let grid = sweep::config_grid(&ExperimentSetup::default(), &configs);
    let results = sweep::run_sweep(grid, jobs, &sweep::silent_progress()).map_err(|e| match e {
        sweep::SweepError::DuplicateKey { .. } => bad(format!("{e}")),
        other => (ErrorCode::Internal, format!("{other}")),
    })?;
    let comps = sweep::comparisons(&results);
    let virtual_s: f64 = comps.iter().map(comparison_virtual_s).sum();
    let body: Vec<String> = comps.iter().map(comparison_json).collect();
    let result = format!(
        "{{\"scale\":\"{scale}\",\"comparisons\":[{}]}}",
        body.join(",")
    );
    Ok((result, virtual_s))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn svc() -> Service {
        Service::new(ServiceConfig::default())
    }

    fn line(op_and_params: &str) -> String {
        format!("{{\"schema\":\"{}\",{op_and_params}}}", protocol::SCHEMA)
    }

    #[test]
    fn run_request_round_trips() {
        let s = svc();
        let out = s.handle_line(&line(
            r#""id":1,"op":"run","params":{"pipeline":"post","case":1}"#,
        ));
        assert!(!out.shutdown);
        let doc = Json::parse(&out.line()).expect("response parses");
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(doc.get("id").and_then(Json::as_u64), Some(1));
        let energy = doc
            .get("result")
            .and_then(|r| r.get("metrics"))
            .and_then(|m| m.get("energy_j"))
            .and_then(Json::as_f64)
            .expect("energy in result");
        assert!(energy > 0.0);
    }

    #[test]
    fn warm_hit_is_byte_identical_and_counted() {
        let s = svc();
        let request = line(r#""id":7,"op":"compare","params":{"case":2}"#);
        let cold = s.handle_line(&request);
        let warm = s.handle_line(&request);
        assert_eq!(
            cold.line(),
            warm.line(),
            "warm response must be byte-identical"
        );
        let m = s.metrics_clone();
        assert_eq!(m.counter("serve.cache.hits"), 1);
        assert_eq!(m.counter("serve.cache.misses"), 1);
        assert_eq!(m.counter("serve.requests"), 2);
    }

    #[test]
    fn unknown_ops_and_bad_params_are_structured_errors() {
        let s = svc();
        for (body, expect) in [
            (r#""op":"frobnicate""#, "bad_request"),
            (r#""op":"run","params":{"case":9}"#, "bad_request"),
            (
                r#""op":"advisor","params":{"min_keep_fraction":0}"#,
                "bad_request",
            ),
            (r#""op":"sweep","params":{"cases":[]}"#, "bad_request"),
            // Numbers `f64::from_str` takes and JSON forbids: malformed lines
            // now, where they used to reach the op.
            (r#""op":"whatif","params":{"bytes":01}"#, "bad_request"),
            (r#""op":"advisor","params":{"passes":1.}"#, "bad_request"),
            (r#""op":"advisor","params":{"x":-.5}"#, "bad_request"),
            (r#""op":"advisor","params":{"x":1.e5}"#, "bad_request"),
        ] {
            let out = s.handle_line(&line(body));
            let doc = Json::parse(&out.line()).expect("error response parses");
            assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false), "{body}");
            let code = doc
                .get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str)
                .expect("code present")
                .to_string();
            assert_eq!(code, expect, "{body}");
        }
        // Errors are never cached: the same bad request misses twice.
        let m = s.metrics_clone();
        assert_eq!(m.counter("serve.cache.hits"), 0);
        assert_eq!(m.counter("serve.bad_request"), 4, "the malformed lines");
    }

    /// Every parameter refusal, byte for byte, as recorded on PR 22's tree
    /// (`7fa8ce4`): the messages are assembled from a key and a "must"
    /// clause, and clients match on them.
    #[test]
    fn parameter_refusals_are_pinned_byte_for_byte() {
        let s = svc();
        let table = [
            (r#"{"op":"run","params":{"case":9}}"#, "case must be 1, 2, or 3"),
            (r#"{"op":"run","params":{"case":"1"}}"#, "case must be 1, 2, or 3"),
            (r#"{"op":"run","params":{"scale":1}}"#, "scale must be a string"),
            (r#"{"op":"run","params":{"scale":"huge"}}"#, "unknown scale 'huge' (expected small|paper)"),
            (r#"{"op":"run","params":{"pipeline":1}}"#, "pipeline must be a string"),
            (r#"{"op":"run","params":{"pipeline":"warp"}}"#, "unknown pipeline 'warp' (expected post|insitu|intransit)"),
            (r#"{"op":"whatif","params":{"device":1}}"#, "device must be a string"),
            (r#"{"op":"whatif","params":{"device":"floppy"}}"#, "unknown device 'floppy' (expected dram|pmem|nvme|ssd|hdd)"),
            (r#"{"op":"advisor","params":{"device":"floppy"}}"#, "unknown device 'floppy' (expected dram|pmem|nvme|ssd|hdd)"),
            (r#"{"op":"whatif","params":{"bytes":0}}"#, "bytes must be a positive integer"),
            (r#"{"op":"whatif","params":{"bytes":-1}}"#, "bytes must be a positive integer"),
            (r#"{"op":"whatif","params":{"bytes":"1"}}"#, "bytes must be a positive integer"),
            (r#"{"op":"advisor","params":{"pass_bytes":"x"}}"#, "pass_bytes must be an integer"),
            (r#"{"op":"advisor","params":{"passes":4294967296}}"#, "passes must be an integer"),
            (r#"{"op":"advisor","params":{"pattern":1}}"#, "pattern must be a string"),
            (r#"{"op":"advisor","params":{"pattern":"zigzag"}}"#, "unknown pattern 'zigzag' (expected sequential|random)"),
            (r#"{"op":"advisor","params":{"op_bytes":0}}"#, "op_bytes must be a positive integer"),
            (r#"{"op":"advisor","params":{"needs_exploration":1}}"#, "needs_exploration must be a bool"),
            (r#"{"op":"advisor","params":{"min_keep_fraction":"x"}}"#, "min_keep_fraction must be a number"),
            (r#"{"op":"advisor","params":{"min_keep_fraction":0}}"#, "min_keep_fraction must be in (0, 1]"),
            (r#"{"op":"advisor","params":{"min_keep_fraction":1.5}}"#, "min_keep_fraction must be in (0, 1]"),
            (r#"{"op":"sweep","params":{"cases":1}}"#, "cases must be an array"),
            (r#"{"op":"sweep","params":{"cases":[]}}"#, "cases must be non-empty"),
            (r#"{"op":"sweep","params":{"cases":[1,4]}}"#, "cases entries must be 1, 2, or 3"),
            (r#"{"op":"sweep","params":{"scale":"huge"}}"#, "unknown scale 'huge' (expected small|paper)"),
            (r#"{"op":"steer.attach","params":{"session":"s","interval":"x"}}"#, "interval must be an integer"),
            (r#"{"op":"steer.attach","params":{"session":"s","timesteps":-1}}"#, "timesteps must be an integer"),
            (r#"{"op":"steer.render","params":{"session":"s","seq":1,"steps":"x"}}"#, "steps must be an integer"),
            (r#"{"op":"steer.render","params":{"session":"s"}}"#, "seq must be an integer >= 1"),
            (r#"{"op":"steer.render","params":{"session":"s","seq":0}}"#, "seq must be an integer >= 1"),
            (r#"{"op":"steer.detach","params":{"session":"s","seq":"1"}}"#, "seq must be an integer >= 1"),
            (r#"{"op":"steer.adjust","params":{"session":"s","seq":1}}"#, "kind must be io_interval|resolution|camera"),
            (r#"{"op":"steer.adjust","params":{"session":"s","seq":1,"kind":1}}"#, "kind must be io_interval|resolution|camera"),
            (r#"{"op":"steer.adjust","params":{"session":"s","seq":1,"kind":"warp"}}"#, "unknown adjustment kind 'warp' (expected io_interval|resolution|camera)"),
            (r#"{"op":"steer.adjust","params":{"session":"s","seq":1,"kind":"io_interval"}}"#, "io_interval must be an integer"),
            (r#"{"op":"steer.adjust","params":{"session":"s","seq":1,"kind":"resolution","height":4}}"#, "width must be an integer"),
            (r#"{"op":"steer.adjust","params":{"session":"s","seq":1,"kind":"resolution","width":4,"height":"x"}}"#, "height must be an integer"),
            (r#"{"op":"steer.adjust","params":{"session":"s","seq":1,"kind":"camera","colormap":"neon"}}"#, "unknown colormap 'neon' (expected viridis|hot|coolwarm|gray)"),
            (r#"{"op":"steer.adjust","params":{"session":"s","seq":1,"kind":"camera","range":1}}"#, "range must be a [lo, hi] array"),
            (r#"{"op":"steer.adjust","params":{"session":"s","seq":1,"kind":"camera","range":[0,"x"]}}"#, "range must be a [lo, hi] array of numbers"),
            (r#"{"op":"steer.adjust","params":{"session":"s","seq":1,"kind":"camera","range":[1]}}"#, "range must be a [lo, hi] array of numbers"),
            (r#"{"op":"steer.adjust","params":{"session":"s","seq":1,"kind":"camera","range":[2,1]}}"#, "range must be [lo, hi] with lo < hi"),
            (r#"{"op":"steer.adjust","params":{"session":"s","seq":1,"kind":"camera","range":[1,1]}}"#, "range must be [lo, hi] with lo < hi"),
            (r#"{"op":"steer.adjust","params":{"session":"s","seq":1,"kind":"camera","range":[0,1,2]}}"#, "range must be [lo, hi] with lo < hi"),
            (r#"{"op":"steer.render","params":{"seq":1}}"#, "session must be a non-empty string"),
            (r#"{"op":"steer.render","params":{"session":"","seq":1}}"#, "session must be a non-empty string"),
            (r#"{"op":"steer.render","params":{"session":7,"seq":1}}"#, "session must be a non-empty string"),
            (r#"{"op":"steer.warp","params":{"session":"s"}}"#, "unknown steer op 'steer.warp' (expected steer.attach|steer.adjust|steer.render|steer.detach)"),
            (r#"{"op":"frobnicate"}"#, "unknown op 'frobnicate' (expected run|compare|whatif|advisor|sweep|steer.attach|steer.adjust|steer.render|steer.detach|metrics|shutdown)"),
            // A non-string colormap is not refused: it falls back to the default
            // map, and the op goes on to fail on the session it names.
            (
                r#"{"op":"steer.adjust","params":{"session":"s","seq":1,"kind":"camera","colormap":1}}"#,
                "no steering session named 's'",
            ),
        ];
        for (request, message) in table {
            let body = request.strip_prefix('{').and_then(|r| r.strip_suffix('}'));
            let out = s.handle_line(&line(body.expect("rows are objects")));
            let expect = protocol::error_line("null", ErrorCode::BadRequest, message);
            assert_eq!(out.line(), expect, "{request}");
        }
        let m = s.metrics_clone();
        assert_eq!(m.counter("serve.err"), table.len() as u64);
        assert_eq!(
            m.counter("serve.bad_request"),
            0,
            "every row is a well-formed line"
        );
    }

    #[test]
    fn whatif_device_param_changes_the_answer() {
        let s = svc();
        let random_kj = |device: &str| {
            let out = s.handle_line(&line(&format!(
                r#""op":"whatif","params":{{"bytes":1073741824,"device":"{device}"}}"#
            )));
            let doc = Json::parse(&out.line()).expect("parses");
            assert_eq!(
                doc.get("result")
                    .and_then(|r| r.get("device"))
                    .and_then(Json::as_str),
                Some(device.to_string()).as_deref()
            );
            doc.get("result")
                .and_then(|r| r.get("random_io_energy_kj"))
                .and_then(Json::as_f64)
                .expect("random_io_energy_kj present")
        };
        let hdd = random_kj("hdd");
        let dram = random_kj("dram");
        assert!(
            dram < hdd / 10.0,
            "dram random I/O ({dram} kJ) should be far cheaper than hdd ({hdd} kJ)"
        );
        let bad = s.handle_line(&line(
            r#""op":"whatif","params":{"bytes":1,"device":"floppy"}"#,
        ));
        let doc = Json::parse(&bad.line()).expect("parses");
        assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            doc.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("bad_request")
        );
    }

    #[test]
    fn advisor_recommends_over_the_wire() {
        let s = svc();
        let out = s.handle_line(&line(
            r#""op":"advisor","params":{"pass_bytes":4294967296,"passes":2,"pattern":"random","needs_exploration":true}"#,
        ));
        let doc = Json::parse(&out.line()).expect("parses");
        assert_eq!(
            doc.get("result")
                .and_then(|r| r.get("technique"))
                .and_then(Json::as_str),
            Some("reorganize")
        );
    }

    #[test]
    fn metrics_and_shutdown_are_control_ops() {
        let s = svc();
        s.handle_line(&line(r#""op":"run","params":{}"#));
        let metrics = s.handle_line(&line(r#""op":"metrics""#));
        let doc = Json::parse(&metrics.line()).expect("parses");
        let counters = doc
            .get("result")
            .and_then(|r| r.get("counters"))
            .expect("counters object");
        assert_eq!(
            counters.get("serve.requests").and_then(Json::as_u64),
            Some(1)
        );
        let down = s.handle_line(&line(r#""op":"shutdown""#));
        assert!(down.shutdown);
        assert!(down.line().contains("\"status\":\"draining\""));
        // Control ops did not count as requests.
        let m = s.metrics_clone();
        assert_eq!(m.counter("serve.requests"), 1);
    }

    #[test]
    fn poisoned_locks_recover_instead_of_bricking_the_service() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        let s = svc();
        s.handle_line(&line(r#""id":1,"op":"advisor","params":{}"#));
        // A handler that panics while holding a lock poisons it; the next
        // request must still be served.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = s.metrics.lock().unwrap();
            panic!("poison the metrics lock");
        }));
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = s.cache.lock().unwrap();
            panic!("poison the cache lock");
        }));
        let out = s.handle_line(&line(r#""id":2,"op":"advisor","params":{}"#));
        assert!(out.line().contains("\"ok\":true"), "{}", out.line());
        assert_eq!(s.metrics_clone().counter("serve.requests"), 2);
    }

    #[test]
    fn corrupt_cached_payload_is_evicted_and_recomputed() {
        let s = svc();
        let request = line(r#""id":3,"op":"advisor","params":{"passes":2}"#);
        let cold = s.handle_line(&request);
        // Corrupt the cached payload behind the service's back.
        let key = protocol::parse_request(&request).expect("parses").cache_key;
        s.cache.lock().unwrap().insert(key, vec![0xff, 0xfe, 0x80]);
        let recomputed = s.handle_line(&request);
        assert_eq!(cold.line(), recomputed.line(), "recompute, not garbage");
        let warm = s.handle_line(&request);
        assert_eq!(cold.line(), warm.line());
        let m = s.metrics_clone();
        assert_eq!(m.counter("serve.cache.corrupt"), 1);
        assert_eq!(m.counter("serve.cache.hits"), 1, "only the third lookup");
        assert_eq!(m.counter("serve.cache.misses"), 2);
    }

    #[test]
    fn injected_serve_faults_are_seeded_and_reproducible() {
        let run = || {
            let s = Service::new(ServiceConfig {
                faults: Some(FaultPlan::with_seed(5)),
                ..ServiceConfig::default()
            });
            let mut dropped = Vec::new();
            for i in 0..40 {
                let out =
                    s.handle_line(&line(&format!(r#""id":{i},"op":"advisor","params":{{}}"#)));
                dropped.push(out.disposition == Disposition::Dropped);
            }
            (dropped, s.metrics_clone())
        };
        let (a, ma) = run();
        let (b, mb) = run();
        assert_eq!(a, b, "same seed, same drop pattern");
        assert_eq!(ma.to_json(), mb.to_json());
        let drops = a.iter().filter(|d| **d).count() as u64;
        assert!(drops > 0, "seed 5 must fire at least one drop");
        assert_eq!(ma.counter("faults.serve.conn"), drops);
        assert!(ma.counter("faults.serve.handler") > 0);
        // A dropped request never reached the request counters.
        assert_eq!(ma.counter("serve.requests"), 40 - drops);
    }

    #[test]
    fn shutdown_op_frees_parked_requests_immediately() {
        use std::time::{Duration, Instant};
        // Regression: the shutdown op must close the gate itself. Before it
        // did, an in-process embedding (fleet router, replay harness) that
        // granted a shutdown left queued requests to sleep out their full
        // deadlines — here 10 s — because only the TCP server closed the
        // gate.
        let s = Arc::new(Service::new(ServiceConfig {
            slots: 1,
            queue_depth: 2,
            ..ServiceConfig::default()
        }));
        let _held = s.gate().admit(None).expect("occupy the only slot");
        let parked = {
            let s = Arc::clone(&s);
            std::thread::spawn(move || {
                let t0 = Instant::now();
                let out = s.handle_line(&line(
                    r#""id":9,"op":"advisor","params":{},"deadline_ms":10000"#,
                ));
                (out, t0.elapsed())
            })
        };
        // Let the request park in the wait queue, then drain via the op.
        std::thread::sleep(Duration::from_millis(50));
        let down = s.handle_line(&line(r#""op":"shutdown""#));
        assert!(down.shutdown);
        let (out, waited) = parked.join().expect("no panic");
        let doc = Json::parse(&out.line()).expect("parses");
        assert_eq!(
            doc.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("shutting_down"),
            "{}",
            out.line()
        );
        assert!(
            waited < Duration::from_secs(5),
            "parked request waited {waited:?} instead of being shed on drain"
        );
        assert_eq!(s.metrics_clone().counter("serve.shed.shutting_down"), 1);
    }

    #[test]
    fn cache_fill_and_share_move_payloads_without_counting_lookups() {
        let s = svc();
        let request = line(r#""id":4,"op":"advisor","params":{}"#);
        let key = protocol::parse_request(&request).expect("parses").cache_key;
        s.handle_line(&request);
        let shared = s.cache_share(&key).expect("computed entry is shareable");
        assert_eq!(s.cache_keys(), vec![key]);
        // Fill into a second instance: inserted once, a no-op when present.
        let other = svc();
        assert!(other.cache_fill(key, Arc::clone(&shared)));
        assert!(!other.cache_fill(key, shared));
        let warm = other.handle_line(&request);
        assert!(warm.line().contains("\"ok\":true"));
        let m = other.metrics_clone();
        assert_eq!(m.counter("serve.cache.hits"), 1, "the real lookup counts");
        assert_eq!(m.counter("serve.cache.misses"), 0, "the fill does not");
    }

    #[test]
    fn steer_session_round_trips_over_the_wire() {
        let s = svc();
        let result_str = |out: &Outcome, key: &str| {
            let doc = Json::parse(&out.line()).expect("parses");
            assert_eq!(
                doc.get("ok").and_then(Json::as_bool),
                Some(true),
                "{}",
                out.line()
            );
            doc.get("result")
                .and_then(|r| r.get(key))
                .and_then(Json::as_str)
                .expect("steer field")
                .to_string()
        };
        let attach = s.handle_line(&line(
            r#""id":1,"op":"steer.attach","params":{"session":"s1","interval":2,"timesteps":10}"#,
        ));
        assert_eq!(attach.disposition, Disposition::Session);
        assert!(result_str(&attach, "steer").contains("resumed=false"));
        let render = s.handle_line(&line(
            r#""id":2,"op":"steer.render","params":{"session":"s1","seq":1,"steps":3}"#,
        ));
        assert!(result_str(&render, "steer").contains("step=3"));
        let adjust = s.handle_line(&line(
            r#""id":3,"op":"steer.adjust","params":{"session":"s1","seq":2,"kind":"io_interval","io_interval":4}"#,
        ));
        assert!(result_str(&adjust, "steer").contains("delta_j="));
        let retry = s.handle_line(&line(
            r#""id":3,"op":"steer.adjust","params":{"session":"s1","seq":2,"kind":"io_interval","io_interval":4}"#,
        ));
        assert_eq!(
            adjust.line(),
            retry.line(),
            "replayed seq must be byte-identical"
        );
        let detach = s.handle_line(&line(
            r#""id":4,"op":"steer.detach","params":{"session":"s1","seq":3}"#,
        ));
        assert!(result_str(&detach, "steer").starts_with("detached"));
        let m = s.metrics_clone();
        assert_eq!(m.counter("steer.attach"), 1);
        assert_eq!(m.counter("steer.render.incremental"), 1);
        assert_eq!(m.counter("steer.adjust"), 1);
        assert_eq!(m.counter("steer.replayed"), 1);
        assert_eq!(m.counter("steer.delta.computed"), 1);
        assert_eq!(m.counter("serve.cache.misses"), 0, "steer bypasses cache");
    }

    #[test]
    fn draining_refuses_steer_ops_with_a_resume_token_before_mutating() {
        let s = svc();
        s.handle_line(&line(
            r#""id":1,"op":"steer.attach","params":{"session":"s1"}"#,
        ));
        s.handle_line(&line(
            r#""id":2,"op":"steer.render","params":{"session":"s1","seq":1,"steps":2}"#,
        ));
        s.gate().shutdown();
        let refused = s.handle_line(&line(
            r#""id":3,"op":"steer.render","params":{"session":"s1","seq":2,"steps":2}"#,
        ));
        let doc = Json::parse(&refused.line()).expect("parses");
        assert_eq!(
            doc.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("shutting_down"),
            "{}",
            refused.line()
        );
        let msg = doc
            .get("error")
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .expect("message");
        assert!(msg.contains("token"), "{msg}");
        // Nothing mutated: the session is still at seq 1, and the refused
        // op was never half-applied (no torn frame).
        assert_eq!(s.metrics_clone().counter("steer.render.incremental"), 1);
    }

    #[test]
    fn steer_errors_are_structured_envelopes() {
        let s = svc();
        for (body, expect) in [
            (r#""op":"steer.render","params":{"seq":1}"#, "bad_request"),
            (
                r#""op":"steer.render","params":{"session":"nope","seq":1}"#,
                "bad_request",
            ),
            (
                r#""op":"steer.adjust","params":{"session":"s","seq":1,"kind":"warp"}"#,
                "bad_request",
            ),
            (
                r#""op":"steer.attach","params":{"session":"s","interval":0}"#,
                "bad_request",
            ),
        ] {
            let out = s.handle_line(&line(body));
            let doc = Json::parse(&out.line()).expect("parses");
            assert_eq!(doc.get("ok").and_then(Json::as_bool), Some(false), "{body}");
            assert_eq!(
                doc.get("error")
                    .and_then(|e| e.get("code"))
                    .and_then(Json::as_str),
                Some(expect),
                "{body}"
            );
        }
    }

    #[test]
    fn session_slots_shed_as_overloaded() {
        let s = Service::new(ServiceConfig {
            session_slots: 1,
            ..ServiceConfig::default()
        });
        s.handle_line(&line(
            r#""id":1,"op":"steer.attach","params":{"session":"s1"}"#,
        ));
        let refused = s.handle_line(&line(
            r#""id":2,"op":"steer.attach","params":{"session":"s2"}"#,
        ));
        let doc = Json::parse(&refused.line()).expect("parses");
        assert_eq!(
            doc.get("error")
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str),
            Some("overloaded"),
            "{}",
            refused.line()
        );
    }

    #[test]
    fn virtual_seconds_accumulate_only_on_misses() {
        let s = svc();
        let request = line(r#""id":1,"op":"run","params":{"case":1}"#);
        s.handle_line(&request);
        s.handle_line(&request);
        let json = s.metrics_clone().to_json();
        assert!(
            json.contains(r#""serve.virtual_s":{"count":1,"#),
            "hit must not re-observe: {json}"
        );
    }
}
