//! # greenness-steer
//!
//! Interactive steering sessions over the in-situ pipeline: a client
//! attaches to a running (virtual-time) simulation, advances it in slices,
//! re-renders incrementally, and asks live what-if questions before
//! committing a parameter change. The engine is the session bookkeeping
//! layer the serve/fleet tiers expose as the `steer.*` op family:
//!
//! * **Sessions** are named by the client and bounded by a slot budget.
//! * **Sequence numbers** make every mutating op idempotent: op `seq` must
//!   be exactly `applied + 1`; a replayed `seq ≤ applied` returns the
//!   recorded reply byte-for-byte (this is how clients resume after a
//!   dropped connection without double-applying), and a gap is rejected.
//! * **What-if deltas** come from [`SteeringPipeline::whatif_with`]: two
//!   schedule replays, no solver or renderer work, each made once while
//!   the book holds it.
//! * **The book** ([`StampBook`]) is all engines share: the step-0 field,
//!   the frames and the projections. An engine made by
//!   [`SessionEngine::new`] has one of its own; the engines of a fleet's
//!   shards share the fleet's, so each view and projection is made once per
//!   fleet.
//!
//! Everything is deterministic: a reply is a function of its session's
//! workload and ops alone, for any solver thread count, whichever session
//! or shard made a frame or projection first, and across reruns.

use std::collections::HashMap;
use std::fmt::{self, Write};

use greenness_core::pipeline::PipelineError;
use greenness_core::steering::{Adjustment, StampBook, SteeringPipeline};
use greenness_core::PipelineConfig;
use greenness_trace::hash::Blake2s256;

/// Engine-wide limits and execution knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Maximum concurrently attached (live) sessions.
    pub session_slots: usize,
    /// Solver threads per session — wall-clock only, never output bytes.
    pub jobs: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            session_slots: 8,
            jobs: 1,
        }
    }
}

/// Upper bound on a session's `timesteps` (bounds per-session work).
const MAX_TIMESTEPS: u64 = 512;

/// Workload a session attaches to: the scaled-down case study with a chosen
/// I/O interval and step budget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttachSpec {
    /// Render every `interval`-th step (≥ 1).
    pub interval: u64,
    /// Total simulation steps for the session (1 to 512).
    pub timesteps: u64,
}

impl Default for AttachSpec {
    fn default() -> Self {
        AttachSpec {
            interval: 2,
            timesteps: 10,
        }
    }
}

/// Why a steering op was refused. The serve tier maps these onto its error
/// envelope codes.
#[derive(Debug, Clone, PartialEq)]
pub enum SteerError {
    /// All session slots are attached.
    Slots {
        /// The configured slot budget.
        limit: usize,
    },
    /// No session with that name was ever attached.
    UnknownSession(String),
    /// The session was explicitly detached; its name is tombstoned.
    Detached(String),
    /// `seq` skipped ahead: the client missed an ack it never sent.
    SeqGap {
        /// The next seq the session will accept.
        expected: u64,
        /// What the client sent.
        got: u64,
    },
    /// A malformed name or parameter.
    BadParam(String),
    /// The underlying pipeline rejected the op.
    Pipeline(PipelineError),
}

impl fmt::Display for SteerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SteerError::Slots { limit } => {
                write!(f, "all {limit} steering session slots are attached")
            }
            SteerError::UnknownSession(name) => write!(f, "no steering session named '{name}'"),
            SteerError::Detached(name) => {
                write!(
                    f,
                    "steering session '{name}' was detached; attach a new name"
                )
            }
            SteerError::SeqGap { expected, got } => {
                write!(f, "sequence gap: expected seq {expected}, got {got}")
            }
            SteerError::BadParam(msg) => write!(f, "bad steering parameter: {msg}"),
            SteerError::Pipeline(e) => write!(f, "steering pipeline error: {e}"),
        }
    }
}

impl std::error::Error for SteerError {}

impl From<PipelineError> for SteerError {
    fn from(e: PipelineError) -> Self {
        SteerError::Pipeline(e)
    }
}

/// A session reply: the transcript line plus the session's cumulative
/// energy after the op (the serve tier's `(result, energy_j)` envelope).
pub type SteerReply = (String, f64);

enum SessionState {
    Live(Box<SteeringPipeline>),
    Detached,
}

struct Session {
    state: SessionState,
    /// What the session attached with; a re-attach must repeat it.
    spec: AttachSpec,
    /// Highest op seq applied (attach is seq 0).
    applied: u64,
    /// Recorded replies, indexed by `seq - 1`, replayed byte-for-byte.
    log: Vec<SteerReply>,
}

#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    attach: u64,
    adjust: u64,
    render: u64,
    detach: u64,
    replayed: u64,
    delta_cached: u64,
    delta_computed: u64,
}

/// The steering session engine: session table and sequence/replay
/// protocol, over a book it may share.
pub struct SessionEngine {
    cfg: EngineConfig,
    sessions: HashMap<String, Session>,
    /// Sessions attached and not yet detached: what the slot budget bounds.
    live: usize,
    /// What the sessions share with each other and with the other engines
    /// holding the book.
    book: StampBook,
    counters: Counters,
}

impl SessionEngine {
    /// A fresh engine with no sessions and a book of its own.
    pub fn new(cfg: EngineConfig) -> SessionEngine {
        SessionEngine::with_book(cfg, StampBook::default())
    }

    /// A fresh engine with no sessions, sharing `book`.
    pub fn with_book(cfg: EngineConfig, book: StampBook) -> SessionEngine {
        SessionEngine {
            cfg,
            sessions: HashMap::new(),
            live: 0,
            book,
            counters: Counters::default(),
        }
    }

    /// Attach (or re-attach) the session `name`.
    ///
    /// A first attach claims a slot and opens the pipeline. Re-attaching an
    /// existing live session is idempotent and is the resume path after a
    /// dropped connection: the reply reports the current `applied` seq and
    /// step so the client knows exactly where to pick up. The `spec` of a
    /// re-attach must match the original.
    ///
    /// # Errors
    /// [`SteerError::Slots`] when the budget is exhausted,
    /// [`SteerError::Detached`] for a tombstoned name,
    /// [`SteerError::BadParam`] for a bad name or spec (including a
    /// re-attach whose spec disagrees with the original).
    pub fn attach(&mut self, name: &str, spec: &AttachSpec) -> Result<SteerReply, SteerError> {
        validate_name(name)?;
        if spec.interval == 0 {
            return Err(SteerError::BadParam(
                "interval must be at least 1".to_string(),
            ));
        }
        if spec.timesteps == 0 || spec.timesteps > MAX_TIMESTEPS {
            return Err(SteerError::BadParam(format!(
                "timesteps must be in 1..={MAX_TIMESTEPS}, got {}",
                spec.timesteps
            )));
        }
        if let Some(session) = self.sessions.get(name) {
            return match &session.state {
                SessionState::Detached => Err(SteerError::Detached(name.to_string())),
                SessionState::Live(pipe) => {
                    if session.spec != *spec {
                        return Err(SteerError::BadParam(format!(
                            "re-attach spec disagrees with session '{name}'"
                        )));
                    }
                    self.counters.attach += 1;
                    self.counters.replayed += 1;
                    // `resumed` reflects session *state*, not name reuse: a
                    // client retrying a dropped initial attach lands here
                    // with nothing applied yet, and its reply must be
                    // byte-identical to the fresh-attach reply it missed.
                    Ok((
                        format!(
                            "attached session={name} token={} applied={} step={} resumed={}",
                            resume_token(name, session.applied),
                            session.applied,
                            pipe.step(),
                            session.applied > 0 || pipe.step() > 0,
                        ),
                        pipe.energy_j(),
                    ))
                }
            };
        }
        if self.live >= self.cfg.session_slots {
            return Err(SteerError::Slots {
                limit: self.cfg.session_slots,
            });
        }
        let mut workload = PipelineConfig::small(spec.interval);
        workload.timesteps = spec.timesteps;
        workload.label = format!("steer:{name}");
        let pipe = SteeringPipeline::open(&workload, self.cfg.jobs, &self.book)?;
        let reply = (
            format!(
                "attached session={name} token={} applied=0 step=0 resumed=false",
                resume_token(name, 0)
            ),
            pipe.energy_j(),
        );
        self.sessions.insert(
            name.to_string(),
            Session {
                state: SessionState::Live(Box::new(pipe)),
                spec: spec.clone(),
                applied: 0,
                log: Vec::new(),
            },
        );
        self.live += 1;
        self.counters.attach += 1;
        Ok(reply)
    }

    /// Answer the what-if for `adj`, then apply it. Op `seq` must be
    /// `applied + 1`; earlier seqs replay their recorded reply. The answer
    /// counts `steer.delta.cached` when the book held both of its
    /// projections, else `steer.delta.computed`.
    ///
    /// # Errors
    /// Sequence and session errors as in [`attach`](Self::attach); invalid
    /// adjustments surface as [`SteerError::Pipeline`].
    pub fn adjust(
        &mut self,
        name: &str,
        seq: u64,
        adj: &Adjustment,
    ) -> Result<SteerReply, SteerError> {
        if let Some(reply) = self.replay(name, seq)? {
            return Ok(reply);
        }
        let (delta, held) = self.live(name)?.whatif_with(adj, &self.book)?;
        if held {
            self.counters.delta_cached += 1;
        } else {
            self.counters.delta_computed += 1;
        }
        let pipe = live_mut(&mut self.sessions, name)?;
        pipe.adjust(adj)?;
        let reply = (
            format!(
                "adjusted session={name} seq={seq} {} delta_j={} baseline_j={} adjusted_j={}",
                adj.canonical(),
                delta.adjusted_j - delta.baseline_j,
                delta.baseline_j,
                delta.adjusted_j,
            ),
            pipe.energy_j(),
        );
        self.record(name, seq, &reply);
        self.counters.adjust += 1;
        Ok(reply)
    }

    /// Advance `steps` simulation steps (0 = none) and re-render the
    /// current field incrementally. Scheduled frames produced while
    /// advancing are folded into the transcript line.
    ///
    /// # Errors
    /// Sequence and session errors as in [`attach`](Self::attach).
    pub fn render(&mut self, name: &str, seq: u64, steps: u64) -> Result<SteerReply, SteerError> {
        if let Some(reply) = self.replay(name, seq)? {
            return Ok(reply);
        }
        let pipe = live_mut(&mut self.sessions, name)?;
        let book = &self.book;
        let scheduled = pipe.advance_with(steps, book);
        let frame = pipe.render_now(book);
        let mut line = format!(
            "frame session={name} seq={seq} {frame} proj_j={}",
            pipe.projected_remaining_j(book),
        );
        // `String`'s `fmt::Write` never fails.
        for (i, f) in scheduled.iter().enumerate() {
            let open = if i == 0 { " scheduled=[" } else { "," };
            let _ = write!(line, "{open}{:016x}", f.hash);
        }
        if !scheduled.is_empty() {
            line.push(']');
        }
        let reply = (line, pipe.energy_j());
        self.record(name, seq, &reply);
        self.counters.render += 1;
        Ok(reply)
    }

    /// Close the session and tombstone its name. The reply summarizes the
    /// whole run; replaying the final seq returns it again.
    ///
    /// # Errors
    /// Sequence and session errors as in [`attach`](Self::attach).
    pub fn detach(&mut self, name: &str, seq: u64) -> Result<SteerReply, SteerError> {
        if let Some(reply) = self.replay(name, seq)? {
            return Ok(reply);
        }
        let pipe = live_mut(&mut self.sessions, name)?;
        let reply = (
            format!(
                "detached session={name} seq={seq} step={} frames={} solver_steps={} bytes_written={}",
                pipe.step(),
                pipe.frames_rendered(),
                pipe.solver_steps(),
                pipe.bytes_written(),
            ),
            pipe.energy_j(),
        );
        if let Some(session) = self.sessions.get_mut(name) {
            session.state = SessionState::Detached;
            session.applied = seq;
            session.log.push(reply.clone());
            self.live -= 1;
        }
        self.counters.detach += 1;
        Ok(reply)
    }

    /// The deterministic resume token for `name` at its current applied
    /// seq — what a `shutting_down` refusal hands the client so it can
    /// re-attach elsewhere and replay from the right place. Stable across
    /// reruns; defined even for never-attached names (applied = 0).
    pub fn resume_token(&self, name: &str) -> String {
        let applied = self.sessions.get(name).map_or(0, |s| s.applied);
        resume_token(name, applied).to_string()
    }

    /// Counter snapshot: every counter's name and value, in a fixed order.
    pub fn counters(&self) -> [(&'static str, u64); 7] {
        let c = &self.counters;
        [
            ("steer.attach", c.attach),
            ("steer.adjust", c.adjust),
            ("steer.render.incremental", c.render),
            ("steer.detach", c.detach),
            ("steer.replayed", c.replayed),
            ("steer.delta.cached", c.delta_cached),
            ("steer.delta.computed", c.delta_computed),
        ]
    }

    /// The live pipeline behind `name`, for audits and ground-truth checks.
    pub fn pipeline(&self, name: &str) -> Option<&SteeringPipeline> {
        self.live(name).ok()
    }

    /// Replay bookkeeping: `Ok(Some(reply))` when `seq` was already
    /// applied, `Ok(None)` when it is the next op to execute.
    fn replay(&mut self, name: &str, seq: u64) -> Result<Option<SteerReply>, SteerError> {
        if seq == 0 {
            return Err(SteerError::BadParam(
                "op seq starts at 1 (attach is seq 0)".to_string(),
            ));
        }
        let session = match self.sessions.get(name) {
            None => return Err(SteerError::UnknownSession(name.to_string())),
            Some(s) => s,
        };
        if seq <= session.applied {
            self.counters.replayed += 1;
            return Ok(Some(session.log[(seq - 1) as usize].clone()));
        }
        if matches!(session.state, SessionState::Detached) {
            return Err(SteerError::Detached(name.to_string()));
        }
        if seq != session.applied + 1 {
            return Err(SteerError::SeqGap {
                expected: session.applied + 1,
                got: seq,
            });
        }
        Ok(None)
    }

    /// The live pipeline behind `name`, or why there is none.
    fn live(&self, name: &str) -> Result<&SteeringPipeline, SteerError> {
        match self.sessions.get(name).map(|s| &s.state) {
            None => Err(SteerError::UnknownSession(name.to_string())),
            Some(SessionState::Detached) => Err(SteerError::Detached(name.to_string())),
            Some(SessionState::Live(pipe)) => Ok(pipe),
        }
    }

    fn record(&mut self, name: &str, seq: u64, reply: &SteerReply) {
        let session = self
            .sessions
            .get_mut(name)
            .unwrap_or_else(|| unreachable!("record() follows a successful live_mut()"));
        session.applied = seq;
        session.log.push(reply.clone());
    }
}

/// [`SessionEngine::live`], mutably, over the engine's `sessions`.
fn live_mut<'s>(
    sessions: &'s mut HashMap<String, Session>,
    name: &str,
) -> Result<&'s mut SteeringPipeline, SteerError> {
    match sessions.get_mut(name).map(|s| &mut s.state) {
        None => Err(SteerError::UnknownSession(name.to_string())),
        Some(SessionState::Detached) => Err(SteerError::Detached(name.to_string())),
        Some(SessionState::Live(pipe)) => Ok(pipe),
    }
}

fn validate_name(name: &str) -> Result<(), SteerError> {
    let ok = !name.is_empty()
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.');
    if ok {
        Ok(())
    } else {
        Err(SteerError::BadParam(format!(
            "session name must be 1-64 chars of [A-Za-z0-9._-], got '{name}'"
        )))
    }
}

/// The resume token of `name` at `applied`: the first eight bytes of the
/// BLAKE2s of `steer/v1;{name};applied={applied}`, in hex.
struct ResumeToken([u8; 8]);

impl fmt::Display for ResumeToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.iter().try_for_each(|b| write!(f, "{b:02x}"))
    }
}

fn resume_token(name: &str, applied: u64) -> ResumeToken {
    let mut hasher = Blake2s256::default();
    // The hasher's `fmt::Write` never fails.
    let _ = write!(hasher, "steer/v1;{name};applied={applied}");
    let mut token = [0; 8];
    token.copy_from_slice(&hasher.finalize()[..8]);
    ResumeToken(token)
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenness_viz::Colormap;

    fn engine() -> SessionEngine {
        SessionEngine::new(EngineConfig::default())
    }

    fn spec() -> AttachSpec {
        AttachSpec::default()
    }

    #[test]
    fn a_scripted_session_is_deterministic_across_engines_and_jobs() {
        let run = |jobs: usize| -> Vec<String> {
            let mut e = SessionEngine::new(EngineConfig {
                jobs,
                ..EngineConfig::default()
            });
            vec![
                e.attach("s1", &spec()).expect("attach").0,
                e.render("s1", 1, 3).expect("render").0,
                e.adjust("s1", 2, &Adjustment::IoInterval(4))
                    .expect("adjust")
                    .0,
                e.render("s1", 3, 4).expect("render").0,
                e.detach("s1", 4).expect("detach").0,
            ]
        };
        assert_eq!(run(1), run(8));
    }

    #[test]
    fn replayed_seqs_return_recorded_replies_byte_for_byte() {
        let mut e = engine();
        e.attach("s1", &spec()).expect("attach");
        let first = e.render("s1", 1, 2).expect("render");
        // The client never saw the ack and retries: same bytes, no
        // double-advance.
        let retried = e.render("s1", 1, 2).expect("replay");
        assert_eq!(first, retried);
        let next = e.render("s1", 2, 0).expect("render");
        assert!(next.0.contains("step=2"), "{}", next.0);
        // A gap is an error, not silent reordering.
        assert_eq!(
            e.render("s1", 4, 1),
            Err(SteerError::SeqGap {
                expected: 3,
                got: 4
            })
        );
    }

    /// `e`'s counter `name`.
    fn count(e: &SessionEngine, name: &str) -> u64 {
        let counters = e.counters();
        let found = counters.iter().find(|(n, _)| *n == name);
        found.expect("known counter").1
    }

    #[test]
    fn an_op_replayed_into_a_fresh_engine_answers_as_it_first_did() {
        let book = StampBook::default();
        let sharing = || SessionEngine::with_book(EngineConfig::default(), book.clone());
        let adj = Adjustment::IoInterval(4);
        let mut first = sharing();
        first.attach("a", &spec()).expect("attach");
        let acked = first.adjust("a", 1, &adj).expect("adjust");
        // The session rebuilt from its ops on another engine over the same
        // book, as a fleet re-homes it: the answer is held.
        let mut fresh = sharing();
        fresh.attach("a", &spec()).expect("attach");
        assert_eq!(fresh.adjust("a", 1, &adj).expect("adjust"), acked);
        fresh.attach("b", &spec()).expect("attach");
        let (other, j) = fresh.adjust("b", 1, &adj).expect("adjust");
        assert_eq!((other.replace("=b ", "=a "), j), acked);
        assert_eq!(count(&first, "steer.delta.computed"), 1);
        assert_eq!(count(&fresh, "steer.delta.cached"), 2, "both were held");
        assert_eq!(count(&fresh, "steer.delta.computed"), 0);
    }

    /// `(baseline_j, adjusted_j)` of an adjust reply, as their bits.
    fn whatif_bits(line: &str) -> (u64, u64) {
        let field = |key: &str| {
            let rest = line.split(&format!(" {key}=")).nth(1).expect(key);
            let text = rest.split(' ').next().unwrap_or(rest);
            text.parse::<f64>().expect("a float").to_bits()
        };
        (field("baseline_j"), field("adjusted_j"))
    }

    #[test]
    fn sessions_reaching_one_schedule_by_other_histories_share_a_whatif() {
        let mut e = engine();
        e.attach("a", &spec()).expect("attach");
        e.attach("b", &spec()).expect("attach");
        // `a` goes to every third step and back; `b` stays put.
        e.adjust("a", 1, &Adjustment::IoInterval(3))
            .expect("adjust");
        e.adjust("a", 2, &Adjustment::IoInterval(2))
            .expect("adjust");
        let adj = Adjustment::IoInterval(4);
        let asked = e.adjust("a", 3, &adj).expect("adjust");
        let reference = e.pipeline("b").expect("live").whatif(&adj).expect("valid");
        let cached = count(&e, "steer.delta.cached");
        let computed = count(&e, "steer.delta.computed");
        let (line, _) = e.adjust("b", 1, &adj).expect("adjust");
        assert_eq!(count(&e, "steer.delta.cached"), cached + 1);
        assert_eq!(count(&e, "steer.delta.computed"), computed);
        let bits = (
            reference.baseline_j.to_bits(),
            reference.adjusted_j.to_bits(),
        );
        assert_eq!(whatif_bits(&line), bits);
        assert_eq!(whatif_bits(&asked.0), bits);
        let mut solo = engine();
        solo.attach("b", &spec()).expect("attach");
        assert_eq!(solo.adjust("b", 1, &adj).expect("adjust").0, line);
    }

    #[test]
    fn the_book_bounds_the_whatif_answers_it_holds() {
        let resolution = |k: usize| Adjustment::Resolution {
            width: 40 + k,
            height: 40,
        };
        let mut e = engine();
        e.attach("long", &spec()).expect("attach");
        for k in 1..=40 {
            e.adjust("long", k as u64, &resolution(k)).expect("adjust");
        }
        // 41 schedules asked about; the book keeps `core::steering`'s 32.
        let projections = |e: &SessionEngine| format!("{:?}", e.book).matches("Schedule {").count();
        assert_eq!(projections(&e), 32);
        // The first question's projections are gone: asked again, it is
        // replayed, and answers as a session alone does.
        e.attach("again", &spec()).expect("attach");
        let computed = count(&e, "steer.delta.computed");
        let again = e.adjust("again", 1, &resolution(1)).expect("adjust");
        assert_eq!(count(&e, "steer.delta.computed"), computed + 1);
        assert_eq!(projections(&e), 32);
        let mut solo = engine();
        solo.attach("again", &spec()).expect("attach");
        assert_eq!(
            solo.adjust("again", 1, &resolution(1)).expect("adjust"),
            again
        );
    }

    #[test]
    fn reattach_resumes_with_applied_seq_and_matching_spec() {
        let mut e = engine();
        e.attach("s1", &spec()).expect("attach");
        e.render("s1", 1, 3).expect("render");
        let resumed = e.attach("s1", &spec()).expect("re-attach");
        assert!(
            resumed.0.contains("applied=1 step=3 resumed=true"),
            "{}",
            resumed.0
        );
        // The spec is compared whole: a step budget spelled as a prefix of
        // the original's (`1` of `10`) is refused like any other.
        for wrong in [
            AttachSpec {
                interval: 5,
                ..spec()
            },
            AttachSpec {
                timesteps: 1,
                ..spec()
            },
            AttachSpec {
                timesteps: 100,
                ..spec()
            },
        ] {
            assert!(
                matches!(e.attach("s1", &wrong), Err(SteerError::BadParam(_))),
                "{wrong:?}"
            );
        }
    }

    #[test]
    fn whatif_cache_hits_on_identical_step_prefixes() {
        let mut e = engine();
        e.attach("a", &spec()).expect("attach");
        e.attach("b", &spec()).expect("attach");
        e.render("a", 1, 2).expect("render");
        e.render("b", 1, 2).expect("render");
        let adj = Adjustment::Resolution {
            width: 96,
            height: 96,
        };
        let first = e.adjust("a", 2, &adj).expect("adjust");
        // Session `b` has the same workload and op history, so the book
        // holds both projections of the same question: the same reply.
        let (second, j) = e.adjust("b", 2, &adj).expect("adjust");
        assert_eq!((second.replace("=b ", "=a "), j), first);
        // A replayed seq hits the recorded log, not the book:
        let replay = e.adjust("a", 2, &adj).expect("replay");
        assert_eq!(replay, first);
        let (attaches, adjusts) = (count(&e, "steer.attach"), count(&e, "steer.adjust"));
        let cached = count(&e, "steer.delta.cached");
        let computed = count(&e, "steer.delta.computed");
        assert_eq!((attaches, adjusts), (2, 2));
        assert_eq!((cached, computed), (1, 1));
    }

    #[test]
    fn slots_detach_and_tombstones_are_enforced() {
        let mut e = SessionEngine::new(EngineConfig {
            session_slots: 1,
            ..EngineConfig::default()
        });
        e.attach("s1", &spec()).expect("attach");
        assert!(matches!(
            e.attach("s2", &spec()),
            Err(SteerError::Slots { limit: 1 })
        ));
        let done = e.detach("s1", 1).expect("detach");
        assert!(done.0.starts_with("detached session=s1"), "{}", done.0);
        // The slot frees up; the old name stays tombstoned.
        e.attach("s2", &spec()).expect("attach after detach");
        assert!(matches!(
            e.attach("s1", &spec()),
            Err(SteerError::Detached(_))
        ));
        // Replaying the final detach seq still returns the recorded reply.
        assert_eq!(e.detach("s1", 1).expect("replay"), done);
    }

    #[test]
    fn only_live_sessions_hold_slots() {
        let mut e = SessionEngine::new(EngineConfig {
            session_slots: 2,
            ..EngineConfig::default()
        });
        e.attach("a", &spec()).expect("attach");
        e.attach("b", &spec()).expect("attach");
        let full = Err(SteerError::Slots { limit: 2 });
        assert_eq!(e.attach("c", &spec()), full);
        // Resuming a live session takes no second slot.
        e.attach("b", &spec()).expect("re-attach at the limit");
        e.detach("a", 1).expect("detach");
        e.attach("c", &spec())
            .expect("a detached session's slot is free");
        assert_eq!(e.attach("d", &spec()), full, "a tombstone holds no slot");
        e.detach("b", 1).expect("detach");
        e.detach("c", 1).expect("detach");
        e.attach("d", &spec()).expect("attach");
        e.attach("e", &spec()).expect("attach");
        assert_eq!(e.attach("f", &spec()), full);
        assert_eq!((e.live, e.sessions.len()), (2, 5));
        // A refused attach and a replayed detach leave the count alone.
        e.detach("a", 1).expect("replayed detach");
        assert_eq!(e.live, 2);
    }

    /// Phase `phase` of `greenness steer`'s script for session `name`.
    fn cli_phase(e: &mut SessionEngine, name: &str, phase: usize) -> SteerReply {
        let spec = AttachSpec {
            interval: 2,
            timesteps: 12,
        };
        let reply = match phase {
            0 | 7 => e.attach(name, &spec),
            1 => e.render(name, 1, 3),
            2 => e.adjust(name, 2, &Adjustment::IoInterval(3)),
            3 => e.render(name, 3, 3),
            4 => e.adjust(
                name,
                4,
                &Adjustment::Resolution {
                    width: 96,
                    height: 96,
                },
            ),
            5 => e.render(name, 5, 2),
            6 => e.adjust(
                name,
                6,
                &Adjustment::Camera {
                    colormap: Colormap::Viridis,
                    range: Some((0.0, 0.3)),
                },
            ),
            8 => e.render(name, 7, 4),
            _ => e.detach(name, 8),
        };
        reply.expect("the script runs")
    }

    /// The stamps `e`'s book holds, read off its `Debug` form: the book
    /// keeps its entries to itself.
    fn stamps_held(e: &SessionEngine) -> usize {
        format!("{:?}", e.book).matches("FrameStamp").count()
    }

    #[test]
    fn sessions_over_one_workload_make_each_frame_once() {
        let mut shared = SessionEngine::new(EngineConfig {
            session_slots: 16,
            ..EngineConfig::default()
        });
        let names: Vec<String> = (0..16).map(|s| format!("s{s}")).collect();
        let mut transcripts = vec![Vec::new(); names.len()];
        for phase in 0..10 {
            for (name, transcript) in names.iter().zip(&mut transcripts) {
                transcript.push(cli_phase(&mut shared, name, phase));
            }
        }
        // Nothing was evicted, so every stamp held is a frame made: six,
        // where sixteen engines of one session each make six.
        assert_eq!(stamps_held(&shared), 6);
        let mut made_alone = 0;
        for (name, transcript) in names.iter().zip(&transcripts) {
            let mut solo = engine();
            let alone: Vec<SteerReply> = (0..10).map(|p| cli_phase(&mut solo, name, p)).collect();
            made_alone += stamps_held(&solo);
            assert_eq!(transcript.len(), alone.len());
            for ((line, j), (solo_line, solo_j)) in transcript.iter().zip(&alone) {
                assert_eq!(line, solo_line);
                assert_eq!(j.to_bits(), solo_j.to_bits(), "{line}");
            }
        }
        assert_eq!(made_alone, 96);
    }

    #[test]
    fn the_book_holds_a_bounded_number_of_frames() {
        let mut e = engine();
        let long = AttachSpec {
            interval: 1,
            timesteps: 120,
        };
        e.attach("long", &long).expect("attach");
        let (line, _) = e.render("long", 1, 120).expect("render");
        assert_eq!(line.matches(',').count() + 1, 120, "one frame per step");
        // 120 distinct frames made; the book keeps `core::steering`'s 32.
        assert_eq!(stamps_held(&e), 32);
        // The oldest are gone: a second session makes step 1 again, and
        // then holds no more than before.
        e.attach("again", &long).expect("attach");
        e.render("again", 1, 1).expect("render");
        assert_eq!(stamps_held(&e), 32);
        assert_eq!(e.pipeline("again").map(|p| p.frames_rendered()), Some(2));
    }

    #[test]
    fn adjusting_camera_changes_subsequent_frames_only() {
        let mut e = engine();
        e.attach("s1", &spec()).expect("attach");
        let before = e.render("s1", 1, 2).expect("render");
        e.adjust(
            "s1",
            2,
            &Adjustment::Camera {
                colormap: Colormap::CoolWarm,
                range: Some((0.0, 0.5)),
            },
        )
        .expect("adjust");
        let after = e.render("s1", 3, 0).expect("render");
        let hash = |line: &str| {
            line.split_whitespace()
                .nth(5)
                .expect("hash field")
                .to_string()
        };
        assert_ne!(hash(&before.0), hash(&after.0));
    }

    #[test]
    fn resume_tokens_are_stable_and_advance_with_applied_seq() {
        let mut e = engine();
        let t0 = e.resume_token("s1");
        e.attach("s1", &spec()).expect("attach");
        assert_eq!(e.resume_token("s1"), t0, "attach is seq 0");
        e.render("s1", 1, 1).expect("render");
        let t1 = e.resume_token("s1");
        assert_ne!(t0, t1);
        assert_eq!(t1.len(), 16);
        // A second engine replaying the same ops lands on the same token.
        let mut e2 = engine();
        e2.attach("s1", &spec()).expect("attach");
        e2.render("s1", 1, 1).expect("render");
        assert_eq!(e2.resume_token("s1"), t1);
    }
}
