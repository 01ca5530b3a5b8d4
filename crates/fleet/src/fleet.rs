//! The fleet itself: N in-process serve shards behind a consistent-hash
//! router, with hot-key replication and churn-driven rebalancing.
//!
//! Every routing decision is deterministic: the ring is a pure function of
//! its seed, hot-key spreading is a pure function of the router's per-key
//! access count, and churn fires from a seeded `FaultInjector` slot consumed
//! once per compute request — so a replay driven sequentially through
//! [`Fleet::handle_line`] produces the same response log and router metrics
//! on every run, for any `--jobs` value, and (in the fault-free,
//! eviction-free regime the CI artifacts pin) for any shard count.
//!
//! The router never drops a request toward the client: an injected
//! connection drop inside a shard is rerouted to the next replica candidate
//! (counted under `retries.fleet.reroute`) until the plan's retry budget is
//! exhausted, and only then surfaces as a structured `internal` error. A
//! rerouted request that lands on a cold replica recomputes — byte-identical
//! by the serve crate's cache discipline — so **no acked result is ever
//! lost** to churn: any response the fleet has acked can be asked for again
//! and comes back byte-for-byte the same.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{self, Write};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use greenness_core::steering::StampBook;
use greenness_faults::{FaultInjector, FaultPlan, Site};
use greenness_serve::protocol::{self, ErrorCode, KeyMemo, Request};
use greenness_serve::{Disposition, LineHandler, Next, Outcome, Service, ServiceConfig};
use greenness_trace::hash::Blake2s256;
use greenness_trace::MetricsRegistry;

use crate::ring::{Ring, DEFAULT_VNODES};

/// Accesses to a key before the router starts spreading its reads over
/// replicas (and filling them). Three warm reads is the classic "this is a
/// dashboard, not a one-off" signal.
const DEFAULT_HOT_THRESHOLD: u64 = 3;

const NO_LIVE_SHARDS: &str = "no live shards";
const BUDGET_EXHAUSTED: &str = "connection dropped; retry budget exhausted";

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Fleet topology and tuning.
#[derive(Debug, Clone, Copy)]
pub struct FleetConfig {
    /// Shard instances (ids `0..shards`).
    pub shards: u32,
    /// Replication factor for hot keys (primary included). Clamped to the
    /// live shard count at routing time.
    pub replicas: usize,
    /// Seed for ring placement and (by convention) the workload generator.
    pub ring_seed: u64,
    /// Virtual nodes per shard.
    pub vnodes: usize,
    /// Worker threads inside each shard's `sweep` handler; never visible in
    /// any output byte.
    pub jobs: usize,
    /// Per-shard result-cache byte budget.
    pub cache_bytes: usize,
    /// Per-shard execution slots.
    pub slots: usize,
    /// Per-shard admission queue depth.
    pub queue_depth: usize,
    /// Accesses before a key counts as hot.
    pub hot_threshold: u64,
    /// Per-shard steering-session slots (`steer.*` ops).
    pub session_slots: usize,
    /// Fault schedule: drives shard churn at the router (`Site::FleetChurn`)
    /// and derives an independent per-shard plan for connection drops and
    /// slow handlers.
    pub faults: Option<FaultPlan>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 4,
            replicas: 2,
            ring_seed: 42,
            vnodes: DEFAULT_VNODES,
            jobs: 4,
            cache_bytes: 1 << 20,
            slots: 4,
            queue_depth: 16,
            hot_threshold: DEFAULT_HOT_THRESHOLD,
            session_slots: 8,
            faults: None,
        }
    }
}

/// A churn event the router applied while handling a request, in virtual
/// request order (the harness timestamps these at the request's scheduled
/// send time for the energy ledger).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnEvent {
    /// A live shard was lost: ring arcs handed to its successors, cache
    /// gone.
    Lost(u32),
    /// A dead shard rejoined with a fresh cache and reclaimed exactly its
    /// old arcs; `moved` entries were copied in from the shards that had
    /// been covering for it.
    Joined {
        /// The rejoining shard.
        shard: u32,
        /// Cache entries rebalanced onto it.
        moved: u64,
    },
}

/// One request's trip through the fleet.
#[derive(Debug, Clone)]
pub struct FleetOutcome {
    /// The response line (no trailing newline).
    pub line: String,
    /// The shard that produced the response (`None` for router-level
    /// replies: control ops, bad requests, no-shard errors).
    pub shard: Option<u32>,
    /// What happened, from the serving shard's point of view.
    pub disposition: Disposition,
    /// Simulated compute seconds (nonzero only on a miss).
    pub virtual_s: f64,
    /// Times the request was rerouted to another replica after an injected
    /// connection drop.
    pub reroutes: u32,
    /// `true` for a granted `shutdown` op — every live shard's gate is
    /// already closed when this returns.
    pub shutdown: bool,
    /// Churn applied while handling this request (at most one event).
    pub events: Vec<ChurnEvent>,
}

/// Where a steering session lives and how to rebuild it elsewhere.
struct SessionHome {
    /// Current home shard.
    shard: u32,
    /// The exact service instance holding the session state. Compared by
    /// pointer against the shard slot: a rejoined shard is a *fresh*
    /// instance, so a stale pointer means the session must be replayed even
    /// though the shard id is live again.
    service: Arc<Service>,
    /// Every acked `steer.*` request line, in order, in one buffer (see
    /// [`log_line`]). Replaying this log into a fresh shard reconstructs
    /// the session bit-identically (the engine is deterministic and replays
    /// duplicate seqs from its own record).
    log: String,
}

/// Append `line` to a session log as its byte length, a `:` and the line —
/// a frame any line fits, whatever bytes it holds.
fn log_line(log: &mut String, line: &str) {
    log.reserve(line.len() + 21);
    // `String`'s `fmt::Write` never fails.
    let _ = write!(log, "{}:", line.len());
    log.push_str(line);
}

/// The lines of a session log, in order.
fn logged_lines(log: &str) -> impl Iterator<Item = &str> {
    let mut rest = log;
    std::iter::from_fn(move || {
        let (len, tail) = rest.split_once(':')?;
        let line = tail.get(..len.parse().ok()?)?;
        rest = &tail[line.len()..];
        Some(line)
    })
}

/// Mutable topology: which shards are live and who owns which arc.
struct FleetState {
    ring: Ring,
    /// Shard services by id. Replaced with a fresh instance on rejoin.
    services: Vec<Arc<Service>>,
    live: Vec<bool>,
    /// Router-side access counts by cache key — the hot-key signal.
    access: HashMap<[u8; 32], u64>,
    /// Steering sessions pinned to their home shard.
    sessions: HashMap<String, SessionHome>,
}

impl FleetState {
    fn live_count(&self) -> usize {
        self.live.iter().filter(|l| **l).count()
    }

    fn live_ids(&self) -> Vec<u32> {
        (0..self.live.len() as u32)
            .filter(|&i| self.live[i as usize])
            .collect()
    }
}

/// The fleet: shards, ring, router metrics, and the churn schedule.
pub struct Fleet {
    config: FleetConfig,
    state: Mutex<FleetState>,
    metrics: Mutex<MetricsRegistry>,
    churn: Option<Mutex<FaultInjector>>,
    /// The steering book every shard's sessions share, a rejoined shard's
    /// too: each frame, step-0 field and projection is made once per fleet.
    book: StampBook,
    /// Every line is parsed through this: a repeated request is routed by
    /// its remembered content address, not canonicalized and hashed again.
    keys: KeyMemo,
}

impl Fleet {
    /// Boot a fleet of `config.shards` fresh shards.
    pub fn new(config: FleetConfig) -> Fleet {
        let book = StampBook::default();
        let services = (0..config.shards)
            .map(|i| Arc::new(boot_shard(&config, i, &book)))
            .collect();
        Fleet {
            state: Mutex::new(FleetState {
                ring: Ring::new(config.ring_seed, config.shards, config.vnodes),
                services,
                live: vec![true; config.shards as usize],
                access: HashMap::new(),
                sessions: HashMap::new(),
            }),
            metrics: Mutex::new(MetricsRegistry::default()),
            churn: config
                .faults
                .map(|plan| Mutex::new(plan.injector(Site::FleetChurn, 0))),
            config,
            book,
            keys: KeyMemo::default(),
        }
    }

    /// The fleet's configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    /// Snapshot of the router's `fleet.*` registry.
    pub fn metrics_clone(&self) -> MetricsRegistry {
        lock(&self.metrics).clone()
    }

    /// Snapshots of every shard's own registry, labeled `shard/<id>`.
    /// Debug material: per-shard counters depend on the shard count by
    /// construction, so these never enter the byte-compared artifacts.
    pub fn shard_metrics(&self) -> Vec<(String, MetricsRegistry)> {
        let state = lock(&self.state);
        state
            .services
            .iter()
            .enumerate()
            .map(|(i, s)| (format!("shard/{i}"), s.metrics_clone()))
            .collect()
    }

    /// The shard service for `id` (fleet CLI debug listeners).
    pub fn shard_service(&self, id: u32) -> Option<Arc<Service>> {
        lock(&self.state).services.get(id as usize).map(Arc::clone)
    }

    /// Close every live shard's gate (drain).
    pub fn shutdown(&self) {
        let state = lock(&self.state);
        for (i, service) in state.services.iter().enumerate() {
            if state.live[i] {
                service.gate().shutdown();
            }
        }
    }

    fn count(&self, name: &'static str, by: u64) {
        lock(&self.metrics).incr(name, by);
    }

    /// Count one refused line under `fleet.bad_request` and spell its reply.
    fn bad_request(&self, id: &str, message: &str) -> String {
        self.count("fleet.bad_request", 1);
        protocol::error_line(id, ErrorCode::BadRequest, message)
    }

    /// Route one request line through the fleet and produce one response.
    pub fn handle_line(&self, line: &str) -> FleetOutcome {
        let req = match self.keys.parse(line) {
            Ok(req) => req,
            Err((id, msg)) => {
                return router_reply(self.bad_request(&id, &msg), Disposition::Error);
            }
        };
        match req.op.as_ref() {
            "metrics" => {
                self.count("fleet.control", 1);
                let body = lock(&self.metrics).to_json();
                return router_reply(protocol::ok_line(&req.id, &body), Disposition::Control);
            }
            "shutdown" => {
                self.count("fleet.control", 1);
                self.shutdown();
                return FleetOutcome {
                    shutdown: true,
                    ..router_reply(
                        protocol::ok_line(&req.id, "{\"status\":\"draining\"}"),
                        Disposition::Control,
                    )
                };
            }
            _ => {}
        }

        // Steering sessions are stateful: they pin to a home shard instead
        // of routing by cache key, and they survive churn by log replay.
        if req.op.starts_with("steer.") {
            return self.handle_steer(&req, line);
        }

        // One churn slot per compute request, consumed *before* routing, so
        // the schedule is a pure function of the request index.
        let events = self.apply_churn();

        self.count("fleet.requests", 1);
        // One visit to the topology per request: candidates, their services,
        // and the access count before (`c`) and so after (`c + 1`) this one.
        let (candidates, first, services, hot) = {
            let mut state = lock(&self.state);
            let live = state.live_count();
            if live == 0 {
                drop(state);
                return self.fail(&req, NO_LIVE_SHARDS, 0, events);
            }
            let k_eff = self.config.replicas.clamp(1, live);
            let candidates = state.ring.replicas(&req.cache_key, k_eff);
            let c = {
                let entry = state.access.entry(req.cache_key).or_insert(0);
                let c = *entry;
                *entry += 1;
                c
            };
            // Hot keys round-robin over the candidate list; cold keys stay
            // on the primary so the cache warms once, in one place.
            let first = if c >= self.config.hot_threshold {
                ((c - self.config.hot_threshold) % candidates.len() as u64) as usize
            } else {
                0
            };
            let services: Vec<Arc<Service>> = candidates
                .iter()
                .map(|&s| Arc::clone(&state.services[s as usize]))
                .collect();
            let hot = c + 1 >= self.config.hot_threshold;
            (candidates, first, services, hot)
        };
        if first != 0 {
            self.count("fleet.replica.reads", 1);
        }

        // Serve, rerouting to the next candidate past injected drops.
        let (reroutes, served) =
            self.serve_past_drops(&req, &services, first, "retries.fleet.reroute");
        let Some((served_at, outcome)) = served else {
            return self.fail(&req, BUDGET_EXHAUSTED, reroutes, events);
        };
        let shard = candidates[served_at];

        match outcome.disposition {
            Disposition::Hit => {
                self.count("fleet.hits", 1);
                self.count("fleet.ok", 1);
            }
            Disposition::Miss => {
                self.count("fleet.misses", 1);
                self.count("fleet.ok", 1);
                if outcome.virtual_s > 0.0 {
                    lock(&self.metrics).observe("fleet.virtual_s", outcome.virtual_s);
                }
            }
            _ => self.count("fleet.err", 1),
        }

        // Replicate hot payloads: once a key crosses the threshold, every
        // candidate carries it, so spread reads hit warm caches.
        if hot && matches!(outcome.disposition, Disposition::Hit | Disposition::Miss) {
            if let Some(payload) = outcome.response.payload() {
                let mut fills = 0u64;
                for (i, service) in services.iter().enumerate() {
                    if i != served_at && service.cache_fill(req.cache_key, Arc::clone(payload)) {
                        fills += 1;
                    }
                }
                if fills > 0 {
                    self.count("fleet.replica.fills", fills);
                }
            }
        }

        routed(shard, outcome, reroutes, events)
    }

    /// Route one `steer.*` request. Sessions are pinned: every op for a
    /// session goes to its home shard (not the ring's replica set), so the
    /// live pipeline state is in exactly one place. Two failure modes are
    /// healed here:
    ///
    /// * **Connection drop inside the home shard** — the shard applies the
    ///   op *before* its drop fault fires, so the router simply retries the
    ///   same request on the same shard and the engine answers from its seq
    ///   replay log (`retries.fleet.session.resume`).
    /// * **Home shard churned away** — the session re-homes to the ring's
    ///   current owner for its key and the acked-op log is replayed into
    ///   the fresh shard, rebuilding the session bit-identically
    ///   (`fleet.session.rehomed` / `fleet.session.replayed`).
    fn handle_steer(&self, req: &Request, line: &str) -> FleetOutcome {
        let events = self.apply_churn();
        self.count("fleet.requests", 1);
        let session = req.session();

        // Find (or re-establish) the home shard.
        let homed = {
            let state = lock(&self.state);
            if state.live_count() == 0 {
                drop(state);
                return self.fail(req, NO_LIVE_SHARDS, 0, events);
            }
            match state.sessions.get(&*session) {
                Some(h)
                    if state.live[h.shard as usize]
                        && Arc::ptr_eq(&h.service, &state.services[h.shard as usize]) =>
                {
                    Ok((h.shard, Arc::clone(&h.service)))
                }
                Some(h) => Err(Some(h.log.clone())),
                None => Err(None),
            }
        };
        let (shard, service) = match homed {
            Ok(home) => home,
            Err(lost_log) => {
                // (Re-)home on the ring's current owner for the session key.
                let (shard, service) = {
                    let state = lock(&self.state);
                    let Some(shard) = state.ring.route(&session_key(&session)) else {
                        drop(state);
                        return self.fail(req, NO_LIVE_SHARDS, 0, events);
                    };
                    (shard, Arc::clone(&state.services[shard as usize]))
                };
                if let Some(log) = lost_log {
                    let mut replayed = 0;
                    for acked in logged_lines(&log) {
                        // Replay commits even when the shard's own fault
                        // schedule "drops" the reply: steer ops apply
                        // before their fault slot. An acked line parses.
                        if let Ok(op) = self.keys.parse(acked) {
                            let _ = service.handle(&op);
                        }
                        replayed += 1;
                    }
                    self.count("fleet.session.rehomed", 1);
                    self.count("fleet.session.replayed", replayed);
                    let mut state = lock(&self.state);
                    if let Some(h) = state.sessions.get_mut(&*session) {
                        h.shard = shard;
                        h.service = Arc::clone(&service);
                    }
                }
                (shard, service)
            }
        };

        // Serve on the pinned shard, resuming in place through injected drops.
        let pinned = std::slice::from_ref(&service);
        let (retries, served) =
            self.serve_past_drops(req, pinned, 0, "retries.fleet.session.resume");
        let Some((_, outcome)) = served else {
            return self.fail(req, BUDGET_EXHAUSTED, retries, events);
        };

        if outcome.disposition == Disposition::Session {
            self.count("fleet.ok", 1);
            // Record the acked line so a future re-home can replay it. A
            // known session's home is already this one.
            let mut state = lock(&self.state);
            match state.sessions.get_mut(&*session) {
                Some(home) => log_line(&mut home.log, line),
                None => {
                    let mut home = SessionHome {
                        shard,
                        service,
                        log: String::new(),
                    };
                    log_line(&mut home.log, line);
                    state.sessions.insert(session.into_owned(), home);
                }
            }
        } else {
            self.count("fleet.err", 1);
        }

        routed(shard, outcome, retries, events)
    }

    /// Hand `req` to `services[first]` and, for as long as a shard's injected
    /// connection drop eats the reply and the plan's retry budget lasts, to
    /// the next one round-robin (a one-shard list retries in place), counting
    /// each extra hop under `retry_counter`. Returns the hops taken and, unless
    /// the budget ran out, which service answered with what.
    fn serve_past_drops(
        &self,
        req: &Request,
        services: &[Arc<Service>],
        first: usize,
        retry_counter: &'static str,
    ) -> (u32, Option<(usize, Outcome)>) {
        let budget = self.config.faults.map_or(0, |plan| plan.max_retries);
        let mut hops = 0u32;
        let mut at = first;
        loop {
            let outcome = services[at].handle(req);
            if outcome.disposition != Disposition::Dropped {
                return (hops, Some((at, outcome)));
            }
            if hops >= budget {
                return (hops, None);
            }
            hops += 1;
            self.count(retry_counter, 1);
            at = (at + 1) % services.len();
        }
    }

    /// The router's own `internal` error reply, counted under `fleet.err`.
    fn fail(
        &self,
        req: &Request,
        message: &str,
        reroutes: u32,
        events: Vec<ChurnEvent>,
    ) -> FleetOutcome {
        self.count("fleet.err", 1);
        FleetOutcome {
            reroutes,
            events,
            ..router_reply(
                protocol::error_line(&req.id, ErrorCode::Internal, message),
                Disposition::Error,
            )
        }
    }

    /// Consume one churn slot; apply at most one node loss or rejoin.
    fn apply_churn(&self) -> Vec<ChurnEvent> {
        let Some(churn) = &self.churn else {
            return Vec::new();
        };
        let Some(entropy) = lock(churn).next() else {
            return Vec::new();
        };
        let mut state = lock(&self.state);
        let pick = entropy >> 1;
        if entropy & 1 == 0 {
            // Kill — but never the last shard standing.
            let live = state.live_ids();
            if live.len() <= 1 {
                return Vec::new();
            }
            let victim = live[(pick % live.len() as u64) as usize];
            state.ring.remove(victim);
            state.live[victim as usize] = false;
            drop(state);
            self.count("fleet.shard.lost", 1);
            vec![ChurnEvent::Lost(victim)]
        } else {
            // Rejoin a dead shard with a fresh cache, then rebalance: copy
            // in every entry whose primary arc the joiner just reclaimed.
            let dead: Vec<u32> = (0..state.live.len() as u32)
                .filter(|&i| !state.live[i as usize])
                .collect();
            if dead.is_empty() {
                return Vec::new();
            }
            let joiner = dead[(pick % dead.len() as u64) as usize];
            let fresh = Arc::new(boot_shard(&self.config, joiner, &self.book));
            state.services[joiner as usize] = Arc::clone(&fresh);
            state.live[joiner as usize] = true;
            state.ring.add(joiner);
            let mut moved = 0u64;
            for donor in state.live_ids() {
                if donor == joiner {
                    continue;
                }
                let donor_svc = Arc::clone(&state.services[donor as usize]);
                for key in donor_svc.cache_keys() {
                    if state.ring.route(&key) == Some(joiner) {
                        if let Some(payload) = donor_svc.cache_share(&key) {
                            if fresh.cache_fill(key, payload) {
                                moved += 1;
                            }
                        }
                    }
                }
            }
            drop(state);
            self.count("fleet.shard.joined", 1);
            if moved > 0 {
                self.count("fleet.rebalance.moved", moved);
            }
            vec![ChurnEvent::Joined {
                shard: joiner,
                moved,
            }]
        }
    }
}

/// The router behind `greenness-serve`'s connection loop: reply lines are
/// written whole, and a reroute never surfaces as a hang-up.
impl LineHandler for Fleet {
    fn answer(&self, line: &str, out: &mut impl Write) -> io::Result<Next> {
        let outcome = self.handle_line(line);
        out.write_all(outcome.line.as_bytes())?;
        out.write_all(b"\n")?;
        Ok(if outcome.shutdown {
            Next::Shutdown
        } else {
            Next::Continue
        })
    }

    fn refuse(&self, message: &str) -> String {
        self.bad_request("null", message)
    }

    fn drain(&self) {
        self.shutdown();
    }
}

/// A fresh service for shard `shard` of a fleet of `config`, sharing `book`.
fn boot_shard(config: &FleetConfig, shard: u32, book: &StampBook) -> Service {
    let config = ServiceConfig {
        jobs: config.jobs,
        cache_bytes: config.cache_bytes,
        slots: config.slots,
        queue_depth: config.queue_depth,
        session_slots: config.session_slots,
        // Each shard gets an independent schedule so killing one never
        // reshuffles another's faults.
        faults: config
            .faults
            .map(|plan| plan.derive(&format!("fleet.shard/{shard}"))),
    };
    Service::with_book(config, book.clone())
}

/// The ring key of steering session `name`: BLAKE2s-256 of
/// `fleet.session/{name}`, hashed only when the session (re-)homes.
fn session_key(name: &str) -> [u8; 32] {
    let mut hasher = Blake2s256::default();
    hasher.update(b"fleet.session/");
    hasher.update(name.as_bytes());
    hasher.finalize()
}

/// The reply `shard` produced, with what the router did to get it.
fn routed(shard: u32, outcome: Outcome, reroutes: u32, events: Vec<ChurnEvent>) -> FleetOutcome {
    FleetOutcome {
        shard: Some(shard),
        virtual_s: outcome.virtual_s,
        reroutes,
        events,
        ..router_reply(outcome.response.into_line(), outcome.disposition)
    }
}

fn router_reply(line: String, disposition: Disposition) -> FleetOutcome {
    FleetOutcome {
        line,
        shard: None,
        disposition,
        virtual_s: 0.0,
        reroutes: 0,
        shutdown: false,
        events: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenness_serve::SCHEMA;

    fn line(op_and_params: &str) -> String {
        format!("{{\"schema\":\"{SCHEMA}\",{op_and_params}}}")
    }

    #[test]
    fn requests_route_and_answer_through_shards() {
        let fleet = Fleet::new(FleetConfig::default());
        let out = fleet.handle_line(&line(r#""id":1,"op":"advisor","params":{}"#));
        assert!(out.line.contains("\"ok\":true"), "{}", out.line);
        assert!(out.shard.is_some());
        assert_eq!(out.disposition, Disposition::Miss);
        let again = fleet.handle_line(&line(r#""id":1,"op":"advisor","params":{}"#));
        assert_eq!(again.disposition, Disposition::Hit);
        assert_eq!(again.shard, out.shard, "cold keys stay on their primary");
        assert_eq!(out.line, again.line, "hit must be byte-identical");
        let m = fleet.metrics_clone();
        assert_eq!(m.counter("fleet.requests"), 2);
        assert_eq!(m.counter("fleet.hits"), 1);
        assert_eq!(m.counter("fleet.misses"), 1);
        assert_eq!(m.counter("fleet.ok"), 2);
    }

    #[test]
    fn a_session_log_gives_back_every_line_it_was_handed() {
        let lines = ["", "{}", "12:ab", "a\nb\r\n", "é🔥:", &"x".repeat(300)];
        let mut log = String::new();
        for line in lines {
            log_line(&mut log, line);
        }
        assert_eq!(logged_lines(&log).collect::<Vec<_>>(), lines);
        assert_eq!(logged_lines("").count(), 0);
    }

    #[test]
    fn a_session_is_placed_by_the_hash_of_its_prefixed_name() {
        use greenness_trace::hash::blake2s256;
        for name in ["s1", "chaos", ""] {
            let spelled = blake2s256(format!("fleet.session/{name}").as_bytes());
            assert_eq!(session_key(name), spelled, "{name}");
        }
    }

    #[test]
    fn hot_keys_spread_over_filled_replicas() {
        let config = FleetConfig {
            hot_threshold: 2,
            ..FleetConfig::default()
        };
        let fleet = Fleet::new(config);
        let request = line(r#""id":5,"op":"advisor","params":{"passes":3}"#);
        let mut shards = Vec::new();
        for _ in 0..6 {
            let out = fleet.handle_line(&request);
            assert!(out.line.contains("\"ok\":true"));
            shards.push(out.shard.expect("served by a shard"));
        }
        let distinct: std::collections::BTreeSet<u32> = shards.iter().copied().collect();
        assert_eq!(distinct.len(), 2, "hot key must spread over k=2 replicas");
        let m = fleet.metrics_clone();
        assert!(m.counter("fleet.replica.reads") > 0);
        assert!(m.counter("fleet.replica.fills") > 0);
        // After the fill, replica reads are warm hits, not recomputes.
        assert_eq!(m.counter("fleet.misses"), 1);
        assert_eq!(m.counter("fleet.hits"), 5);
    }

    #[test]
    fn control_ops_answer_at_the_router() {
        let fleet = Fleet::new(FleetConfig::default());
        fleet.handle_line(&line(r#""id":1,"op":"advisor","params":{}"#));
        let m = fleet.handle_line(&line(r#""id":2,"op":"metrics""#));
        assert!(m.line.contains("fleet.requests"), "{}", m.line);
        assert_eq!(m.shard, None);
        let down = fleet.handle_line(&line(r#""id":3,"op":"shutdown""#));
        assert!(down.shutdown);
        // Gates are closed: a queued-path request is refused, a cached one
        // still answers (hits bypass admission).
        let shed = fleet.handle_line(&line(r#""id":4,"op":"whatif","params":{}"#));
        assert!(shed.line.contains("shutting_down"), "{}", shed.line);
        let warm = fleet.handle_line(&line(r#""id":1,"op":"advisor","params":{}"#));
        assert!(warm.line.contains("\"ok\":true"), "{}", warm.line);
    }

    #[test]
    fn malformed_lines_are_refused_at_the_router_and_counted() {
        let fleet = Fleet::new(FleetConfig::default());
        // Not JSON at all, then the number forms `f64::from_str` takes and
        // JSON forbids.
        for params in [
            "{",
            "{\"bytes\":01}",
            "{\"x\":1.}",
            "{\"x\":-.5}",
            "{\"x\":1.e5}",
        ] {
            let out =
                fleet.handle_line(&line(&format!(r#""id":1,"op":"whatif","params":{params}"#)));
            assert!(
                out.line.contains("\"code\":\"bad_request\""),
                "{}",
                out.line
            );
            assert!(out.line.contains("malformed JSON"), "{}", out.line);
            assert_eq!((out.shard, out.disposition), (None, Disposition::Error));
        }
        let m = fleet.metrics_clone();
        assert_eq!(m.counter("fleet.bad_request"), 5);
        assert_eq!(m.counter("fleet.requests"), 0, "no shard saw them");
        for (_, shard) in fleet.shard_metrics() {
            assert_eq!(shard.to_json(), MetricsRegistry::default().to_json());
        }
    }

    #[test]
    fn an_exhausted_retry_budget_still_reports_the_churn_it_saw() {
        // Every shard drops every reply and every request churns: each ends
        // in the router's own error, and the kill or rejoin applied on the
        // way must still reach the caller's ledger.
        let fleet = Fleet::new(FleetConfig {
            faults: Some(FaultPlan {
                serve_drop_rate: 1.0,
                fleet_churn_rate: 1.0,
                max_retries: 1,
                ..FaultPlan::quiet(5)
            }),
            ..FleetConfig::default()
        });
        let mut events = 0;
        for id in 0..12 {
            let out =
                fleet.handle_line(&line(&format!(r#""id":{id},"op":"advisor","params":{{}}"#)));
            assert!(out.line.contains(BUDGET_EXHAUSTED), "{}", out.line);
            assert_eq!(out.reroutes, 1);
            events += out.events.len() as u64;
        }
        let m = fleet.metrics_clone();
        assert!(events > 0);
        assert_eq!(
            events,
            m.counter("fleet.shard.lost") + m.counter("fleet.shard.joined")
        );
        assert_eq!(m.counter("fleet.err"), 12);
        assert_eq!(m.counter("retries.fleet.reroute"), 12);
    }

    #[test]
    fn steering_sessions_pin_to_one_shard_and_answer() {
        let fleet = Fleet::new(FleetConfig::default());
        let attach = fleet.handle_line(&line(
            r#""id":1,"op":"steer.attach","params":{"session":"pin","interval":2}"#,
        ));
        assert!(attach.line.contains("\"ok\":true"), "{}", attach.line);
        assert_eq!(attach.disposition, Disposition::Session);
        let home = attach.shard.expect("homed");
        for seq in 1..=3 {
            let out = fleet.handle_line(&line(&format!(
                r#""id":{},"op":"steer.render","params":{{"session":"pin","seq":{seq},"steps":2}}"#,
                seq + 1
            )));
            assert!(out.line.contains("\"ok\":true"), "{}", out.line);
            assert_eq!(out.shard, Some(home), "session must stay pinned");
        }
        assert_eq!(fleet.metrics_clone().counter("fleet.ok"), 4);
    }

    #[test]
    fn steering_sessions_survive_churn_by_replay() {
        // Unfaulted reference transcript.
        let script = |fleet: &Fleet| -> Vec<String> {
            let mut t = Vec::new();
            for (id, body) in [
                (1, r#""op":"steer.attach","params":{"session":"c","interval":2}"#.to_string()),
                (2, r#""op":"steer.render","params":{"session":"c","seq":1,"steps":3}"#.to_string()),
                (3, r#""op":"steer.adjust","params":{"session":"c","seq":2,"kind":"io_interval","io_interval":4}"#.to_string()),
                (4, r#""op":"steer.render","params":{"session":"c","seq":3,"steps":4}"#.to_string()),
                (5, r#""op":"steer.detach","params":{"session":"c","seq":4}"#.to_string()),
            ] {
                let out = fleet.handle_line(&line(&format!(r#""id":{id},{body}"#)));
                assert!(out.line.contains("\"ok\":true"), "{}", out.line);
                t.push(out.line);
            }
            t
        };
        let clean = script(&Fleet::new(FleetConfig::default()));
        // Now under heavy churn: the session must re-home and converge to
        // the same reply bytes.
        let faulted = Fleet::new(FleetConfig {
            faults: Some(FaultPlan {
                fleet_churn_rate: 0.6,
                ..FaultPlan::quiet(23)
            }),
            ..FleetConfig::default()
        });
        // Burn churn slots with unrelated traffic so shards die and rejoin
        // between steering ops.
        let interleaved: Vec<String> = script(&faulted);
        assert_eq!(clean, interleaved, "churned session diverged");
    }

    #[test]
    fn a_rehomed_session_answers_a_resent_seq_with_its_original_reply() {
        // Under churn the session's home shard is lost, and the fresh shard
        // replays the acked ops against a fleet book that already holds the
        // adjust's projections: a re-sent seq must still get its original
        // ack.
        let fleet = Fleet::new(FleetConfig {
            faults: Some(FaultPlan {
                fleet_churn_rate: 0.5,
                ..FaultPlan::quiet(1)
            }),
            ..FleetConfig::default()
        });
        let attach = fleet.handle_line(&line(
            r#""id":1,"op":"steer.attach","params":{"session":"r","interval":2}"#,
        ));
        assert!(attach.line.contains("\"ok\":true"), "{}", attach.line);
        let adjust = line(
            r#""id":2,"op":"steer.adjust","params":{"session":"r","seq":1,"kind":"io_interval","io_interval":4}"#,
        );
        let acked = fleet.handle_line(&adjust).line;
        assert!(acked.contains("adjusted session=r seq=1"), "{acked}");
        let rehomed = || fleet.metrics_clone().counter("fleet.session.rehomed");
        assert_eq!(rehomed(), 0);
        for _ in 0..64 {
            assert_eq!(fleet.handle_line(&adjust).line, acked);
            if rehomed() > 1 {
                return;
            }
        }
        panic!("the session re-homed {} time(s) in 64 ops", rehomed());
    }

    /// The frame stamps `fleet`'s steering book holds, read off its `Debug`
    /// form: the book keeps its entries to itself.
    fn stamps_held(fleet: &Fleet) -> usize {
        format!("{:?}", fleet.book).matches("FrameStamp").count()
    }

    #[test]
    fn a_rejoined_shard_renders_through_the_fleets_memo() {
        let mut fleet = Fleet::new(FleetConfig {
            session_slots: 64,
            faults: Some(FaultPlan {
                fleet_churn_rate: 1.0,
                ..FaultPlan::quiet(5)
            }),
            ..FleetConfig::default()
        });
        let joined = (0..64).find_map(|i| {
            let out = fleet.handle_line(&line(&format!(
                r#""id":{i},"op":"advisor","params":{{"passes":{}}}"#,
                i % 5
            )));
            out.events.into_iter().find_map(|e| match e {
                ChurnEvent::Joined { shard, .. } => Some(shard),
                ChurnEvent::Lost(_) => None,
            })
        });
        let joined = joined.expect("a shard rejoins");
        fleet.churn = None;
        // A session homed on the rejoined shard, and one on another shard.
        let (mut on_joined, mut elsewhere) = (None, None);
        for k in 0..64 {
            let name = format!("r{k}");
            let out = fleet.handle_line(&line(&format!(
                r#""id":1,"op":"steer.attach","params":{{"session":"{name}","interval":2}}"#
            )));
            assert!(out.line.contains("\"ok\":true"), "{}", out.line);
            let slot = if out.shard == Some(joined) {
                &mut on_joined
            } else {
                &mut elsewhere
            };
            slot.get_or_insert(name);
            if on_joined.is_some() && elsewhere.is_some() {
                break;
            }
        }
        let render = |name: &str| {
            let out = fleet.handle_line(&line(&format!(
                r#""id":2,"op":"steer.render","params":{{"session":"{name}","seq":1,"steps":3}}"#
            )));
            assert!(out.line.contains("\"ok\":true"), "{}", out.line);
            out.line.replace(name, "_")
        };
        assert_eq!(stamps_held(&fleet), 0);
        let made = render(&on_joined.expect("a session on the rejoined shard"));
        assert_eq!(stamps_held(&fleet), 2, "frames at steps 2 and 3");
        let read = render(&elsewhere.expect("a session on another shard"));
        assert_eq!(stamps_held(&fleet), 2, "both read from the book");
        assert_eq!(made, read);
    }

    #[test]
    fn churn_kills_and_rejoins_deterministically() {
        let run = |seed: u64| {
            let fleet = Fleet::new(FleetConfig {
                faults: Some(FaultPlan {
                    fleet_churn_rate: 0.5,
                    ..FaultPlan::quiet(seed)
                }),
                ..FleetConfig::default()
            });
            let mut log = Vec::new();
            for i in 0..40 {
                let out = fleet.handle_line(&line(&format!(
                    r#""id":{i},"op":"advisor","params":{{"passes":{}}}"#,
                    i % 5
                )));
                assert!(out.line.contains("\"ok\":true"), "{}", out.line);
                log.extend(out.events);
            }
            (log, fleet.metrics_clone().to_json())
        };
        let (events_a, metrics_a) = run(11);
        let (events_b, metrics_b) = run(11);
        assert_eq!(events_a, events_b, "same seed, same churn history");
        assert_eq!(metrics_a, metrics_b);
        assert!(
            events_a.iter().any(|e| matches!(e, ChurnEvent::Lost(_))),
            "seed 11 at rate 0.5 must kill at least one shard: {events_a:?}"
        );
        let (events_c, _) = run(12);
        assert_ne!(events_a, events_c, "different seeds, different churn");
    }
}
