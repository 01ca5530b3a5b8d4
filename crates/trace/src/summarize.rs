//! Journal post-processing: reconstruct per-phase power/energy tables from a
//! `greenness-trace/v1` journal and audit the journal's structure.
//!
//! The reconstruction replays the `"segment"` dump events (one per merged
//! timeline segment) with **the same arithmetic** `Timeline::phase_energy`
//! uses — per-channel `draw_w * secs` accumulated in segment order, with
//! `secs = dur_ns / 1e9` — so a well-formed journal reproduces the
//! simulator's per-phase energy bit-for-bit. The `"phase_summary"` events
//! the run emits from the live `Timeline` serve as the cross-check: any
//! disagreement beyond 1e-9 J is reported as an audit error.
//!
//! The audit also verifies span structure: every `begin` has a matching
//! `end` (innermost-first), timestamps are monotone non-decreasing within a
//! job, and job spans do not nest. An event that carries a `node` field
//! belongs to that node's *lane*: the nodes of a cluster run share one
//! journal but each stamps its own virtual clock, so span nesting and
//! monotonicity are checked per lane within a job (events without the field
//! form the one lane every other journal has). Sorting a job's events by
//! `(t_ns, node)` gives the time-ordered view.
//!
//! Each line is read in the one validating scanner pass: the members the
//! audit needs are captured as the scanner hands them out, and nothing else
//! of the line is kept.

use std::borrow::Cow;
use std::str::FromStr;

use crate::json::{scan_flat_object, Scalar};
use crate::TRACE_SCHEMA;

/// One row of the reconstructed per-phase table (aggregated over all jobs
/// in the journal).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    /// Phase label, e.g. `"simulation"`.
    pub phase: String,
    /// Total wall (virtual) seconds spent in the phase.
    pub time_s: f64,
    /// Reconstructed system energy in joules.
    pub energy_j: f64,
    /// System energy as reported by the run's `phase_summary` audit events
    /// (`None` if the journal carries no summary for this phase).
    pub reported_j: Option<f64>,
}

impl PhaseRow {
    /// Mean system power over the phase.
    pub fn avg_power_w(&self) -> f64 {
        if self.time_s > 0.0 {
            self.energy_j / self.time_s
        } else {
            0.0
        }
    }
}

/// Result of summarizing a journal.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    /// Total event lines parsed (excluding the schema header).
    pub events: usize,
    /// Number of sweep-job spans (0 for a single-run journal).
    pub jobs: usize,
    /// Per-phase rows in first-appearance order.
    pub rows: Vec<PhaseRow>,
    /// Reconstructed total system energy across all phases and jobs.
    pub total_energy_j: f64,
    /// Structural and consistency violations found by the audit (empty for
    /// a healthy journal).
    pub audit_errors: Vec<String>,
    /// Spans whose begin/end pairing was checked.
    pub spans_checked: usize,
    /// (job, phase) pairs whose reconstructed energy was cross-checked
    /// against a `phase_summary` event.
    pub phases_checked: usize,
}

impl Summary {
    /// True when the audit found no violations.
    pub fn audit_ok(&self) -> bool {
        self.audit_errors.is_empty()
    }

    /// Render the per-phase table as aligned text.
    pub fn table(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "{:<14} {:>12} {:>16} {:>12}\n",
            "phase", "time [s]", "energy [J]", "avg [W]"
        ));
        for r in &self.rows {
            s.push_str(&format!(
                "{:<14} {:>12.3} {:>16.6} {:>12.3}\n",
                r.phase,
                r.time_s,
                r.energy_j,
                r.avg_power_w()
            ));
        }
        s.push_str(&format!(
            "{:<14} {:>12} {:>16.6}\n",
            "total", "", self.total_energy_j
        ));
        s
    }
}

/// Per-phase accumulator replaying segment events with `Timeline`'s exact
/// arithmetic.
#[derive(Debug, Clone, Default)]
struct PhaseAcc {
    dur_ns: u64,
    package_j: f64,
    dram_j: f64,
    disk_j: f64,
    net_j: f64,
    board_j: f64,
    reported_j: Option<f64>,
}

impl PhaseAcc {
    fn system_j(&self) -> f64 {
        // Same association order as EnergyBreakdown::system_j.
        self.package_j + self.dram_j + self.disk_j + self.net_j + self.board_j
    }
}

#[derive(Debug, Default)]
struct JobScope {
    // First-appearance ordered (phase label → accumulator).
    phases: Vec<(String, PhaseAcc)>,
}

impl JobScope {
    fn acc(&mut self, phase: &str) -> &mut PhaseAcc {
        let at = match self.phases.iter().position(|(p, _)| p == phase) {
            Some(at) => at,
            None => {
                self.phases.push((phase.to_string(), PhaseAcc::default()));
                self.phases.len() - 1
            }
        };
        &mut self.phases[at].1
    }
}

/// Audit state of one clock within a job: its open spans as
/// `(name, open t_ns)` and its latest timestamp.
#[derive(Debug, Default)]
struct Lane<'a> {
    stack: Vec<(Cow<'a, str>, u64)>,
    last_t: u64,
}

/// Report every `node` lane still holding open spans, then drop the lanes:
/// they live for one job.
fn close_lanes(sum: &mut Summary, lanes: &mut Vec<(u64, Lane<'_>)>) {
    for (node, lane) in lanes.drain(..) {
        if !lane.stack.is_empty() {
            let open: Vec<&str> = lane.stack.iter().map(|(n, _)| n.as_ref()).collect();
            sum.audit_errors
                .push(format!("node {node} ends with open spans: {open:?}"));
        }
    }
}

/// The members of one event line the audit reads: the first value under
/// each key, borrowed from the journal.
#[derive(Default)]
struct Members<'a> {
    t_ns: Option<Scalar<'a>>,
    ev: Option<Scalar<'a>>,
    name: Option<Scalar<'a>>,
    node: Option<Scalar<'a>>,
    phase: Option<Scalar<'a>>,
    dur_ns: Option<Scalar<'a>>,
    /// `package_w`, `dram_w`, `disk_w`, `net_w`, `board_w`: a segment's draw
    /// in `Timeline::phase_energy`'s channel order.
    draw_w: [Option<Scalar<'a>>; 5],
    system_j: Option<Scalar<'a>>,
}

impl<'a> Members<'a> {
    /// Keep `value` if `key` is one the audit reads and holds nothing yet.
    fn capture(&mut self, key: &str, value: Scalar<'a>) {
        let slot = match key {
            "t_ns" => &mut self.t_ns,
            "ev" => &mut self.ev,
            "name" => &mut self.name,
            "node" => &mut self.node,
            "phase" => &mut self.phase,
            "dur_ns" => &mut self.dur_ns,
            "package_w" => &mut self.draw_w[0],
            "dram_w" => &mut self.draw_w[1],
            "disk_w" => &mut self.draw_w[2],
            "net_w" => &mut self.draw_w[3],
            "board_w" => &mut self.draw_w[4],
            "system_j" => &mut self.system_j,
            _ => return,
        };
        slot.get_or_insert(value);
    }
}

/// The number in `slot` as `T`: `u64` takes integral tokens only, `f64` is
/// exact for round-trip `{:?}` output.
fn num<T: FromStr>(slot: &Option<Scalar<'_>>) -> Option<T> {
    match slot {
        Some(Scalar::Num(raw)) => raw.parse().ok(),
        _ => None,
    }
}

/// The string in `slot`.
fn text<'s>(slot: &'s Option<Scalar<'_>>) -> Option<&'s str> {
    match slot {
        Some(Scalar::Str(s)) => Some(s),
        _ => None,
    }
}

/// Parse and audit a journal (schema header + JSONL event lines).
///
/// Returns `Err` only for unreadable input (missing/unknown schema header,
/// unparseable line); semantic problems land in [`Summary::audit_errors`].
pub fn summarize(journal: &str) -> Result<Summary, String> {
    // Lines are numbered from 1, blank ones included.
    let mut lines = (1usize..)
        .zip(journal.lines())
        .filter(|(_, l)| !l.trim().is_empty());
    let (_, header) = lines.next().ok_or("empty journal")?;
    let mut schema = None;
    scan_flat_object(header, |key, value| {
        if key == "schema" {
            schema.get_or_insert(value);
        }
    })
    .map_err(|e| format!("bad schema header: {e}"))?;
    match text(&schema) {
        Some(s) if s == TRACE_SCHEMA => {}
        Some(s) => return Err(format!("unsupported schema {s:?} (want {TRACE_SCHEMA:?})")),
        None => return Err("journal missing schema header".to_string()),
    }

    let mut sum = Summary::default();
    // The lane of events without a `node`, and the per-node lanes of the
    // current job in first-appearance order (empty outside cluster runs).
    let mut main = Lane::default();
    let mut lanes: Vec<(u64, Lane<'_>)> = Vec::new();
    let mut scope = JobScope::default();
    let mut in_job = false;

    let close_scope = |sum: &mut Summary, scope: JobScope| {
        for (phase, acc) in scope.phases {
            let energy = acc.system_j();
            let time_s = acc.dur_ns as f64 / 1e9;
            if let Some(reported) = acc.reported_j {
                sum.phases_checked += 1;
                if (energy - reported).abs() > 1e-9 {
                    sum.audit_errors.push(format!(
                        "phase {phase:?}: reconstructed {energy} J disagrees with \
                         reported {reported} J by more than 1e-9"
                    ));
                }
            }
            sum.total_energy_j += energy;
            if let Some(row) = sum.rows.iter_mut().find(|r| r.phase == phase) {
                row.time_s += time_s;
                row.energy_j += energy;
                if let Some(r) = acc.reported_j {
                    *row.reported_j.get_or_insert(0.0) += r;
                }
            } else {
                sum.rows.push(PhaseRow {
                    phase,
                    time_s,
                    energy_j: energy,
                    reported_j: acc.reported_j,
                });
            }
        }
    };

    for (n, line) in lines {
        // What the members borrow is the journal's, so span names outlive
        // the line they were read from.
        let mut kv = Members::default();
        scan_flat_object(line, |key, value| kv.capture(&key, value))
            .map_err(|e| format!("line {n}: {e}"))?;
        sum.events += 1;
        let t_ns = num::<u64>(&kv.t_ns).ok_or_else(|| format!("line {n}: missing t_ns"))?;
        let ev = text(&kv.ev).ok_or_else(|| format!("line {n}: missing ev"))?;
        let name = match &kv.name {
            Some(Scalar::Str(name)) => name,
            _ => return Err(format!("line {n}: missing name")),
        };

        // Each sweep job restarts virtual time at zero, on every lane.
        if ev == "begin" && name == "job" {
            if !main.stack.is_empty() {
                let open = main.stack.last().map_or("", |(open, _)| open);
                sum.audit_errors
                    .push(format!("line {n}: job begins inside open span {open:?}"));
                main.stack.clear();
            }
            close_lanes(&mut sum, &mut lanes);
            if in_job {
                close_scope(&mut sum, std::mem::take(&mut scope));
            }
            in_job = true;
            sum.jobs += 1;
            main.last_t = 0;
        }
        let lane = match num::<u64>(&kv.node) {
            None => &mut main,
            Some(node) => {
                let known = lanes.iter().position(|(id, _)| *id == node);
                let at = known.unwrap_or_else(|| {
                    lanes.push((node, Lane::default()));
                    lanes.len() - 1
                });
                &mut lanes[at].1
            }
        };
        if t_ns < lane.last_t {
            sum.audit_errors.push(format!(
                "line {n}: timestamp {t_ns} precedes previous {}",
                lane.last_t
            ));
        }
        lane.last_t = lane.last_t.max(t_ns);

        match ev {
            "begin" => lane.stack.push((name.clone(), t_ns)),
            "end" => match lane.stack.pop() {
                Some((open, t0)) => {
                    sum.spans_checked += 1;
                    if open != *name {
                        sum.audit_errors
                            .push(format!("line {n}: end {name:?} closes open span {open:?}"));
                    }
                    if t_ns < t0 {
                        sum.audit_errors.push(format!(
                            "line {n}: span {name:?} ends at {t_ns} before it began at {t0}"
                        ));
                    }
                    if name == "job" {
                        close_lanes(&mut sum, &mut lanes);
                        close_scope(&mut sum, std::mem::take(&mut scope));
                        in_job = false;
                    }
                }
                None => sum
                    .audit_errors
                    .push(format!("line {n}: end {name:?} without begin")),
            },
            "event" => match name.as_ref() {
                "segment" => {
                    let dur_ns = num::<u64>(&kv.dur_ns).unwrap_or(0);
                    let secs = dur_ns as f64 / 1e9;
                    let w = |channel: usize| num::<f64>(&kv.draw_w[channel]).unwrap_or(0.0);
                    let acc = scope.acc(text(&kv.phase).unwrap_or("other"));
                    acc.dur_ns += dur_ns;
                    // Exactly Timeline::phase_energy's fold: per-channel
                    // draw × secs added in segment order.
                    acc.package_j += w(0) * secs;
                    acc.dram_j += w(1) * secs;
                    acc.disk_j += w(2) * secs;
                    acc.net_j += w(3) * secs;
                    acc.board_j += w(4) * secs;
                }
                "phase_summary" => {
                    let phase = text(&kv.phase).unwrap_or("other");
                    scope.acc(phase).reported_j = num::<f64>(&kv.system_j);
                }
                _ => {}
            },
            other => {
                sum.audit_errors
                    .push(format!("line {n}: unknown ev {other:?}"));
            }
        }
    }

    if !main.stack.is_empty() {
        let open: Vec<&str> = main.stack.iter().map(|(n, _)| n.as_ref()).collect();
        sum.audit_errors
            .push(format!("journal ends with open spans: {open:?}"));
    }
    close_lanes(&mut sum, &mut lanes);
    close_scope(&mut sum, scope);
    Ok(sum)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal_header;
    use crate::json::reference::{parse_flat_object, JsonValue};
    use greenness_core::cluster_sweep::{
        cluster_jobs, cluster_journal, run_cluster_sweep, ClusterSetup,
    };
    use greenness_core::config::PipelineConfig;
    use greenness_core::placement::{self, PlacementSetup};
    use greenness_core::sweep;
    use greenness_core::ExperimentSetup;
    use greenness_faults::FaultPlan;

    fn field_reference<'a>(kv: &'a [(String, JsonValue)], key: &str) -> Option<&'a JsonValue> {
        kv.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// One clock's open spans and latest timestamp, owned.
    #[derive(Default)]
    struct LaneReference {
        stack: Vec<(String, u64)>,
        last_t: u64,
    }

    fn close_lanes_reference(sum: &mut Summary, lanes: &mut Vec<(u64, LaneReference)>) {
        for (node, lane) in lanes.drain(..) {
            if !lane.stack.is_empty() {
                let open: Vec<String> = lane.stack.into_iter().map(|(n, _)| n).collect();
                sum.audit_errors
                    .push(format!("node {node} ends with open spans: {open:?}"));
            }
        }
    }

    /// `summarize` as it was over the owned parser: every line becomes a
    /// `Vec<(String, JsonValue)>` and every `ev`, `name` and `phase` a fresh
    /// `String`; it differs from that version only by the per-`node` lanes.
    /// The oracle for the borrowed version above.
    fn summarize_reference(journal: &str) -> Result<Summary, String> {
        let mut lines = journal
            .lines()
            .enumerate()
            .filter(|(_, l)| !l.trim().is_empty());
        let (_, header) = lines.next().ok_or("empty journal")?;
        let header_kv = parse_flat_object(header).map_err(|e| format!("bad schema header: {e}"))?;
        match field_reference(&header_kv, "schema").and_then(JsonValue::as_str) {
            Some(s) if s == TRACE_SCHEMA => {}
            Some(s) => return Err(format!("unsupported schema {s:?} (want {TRACE_SCHEMA:?})")),
            None => return Err("journal missing schema header".to_string()),
        }

        let mut sum = Summary::default();
        let mut main = LaneReference::default();
        let mut lanes: Vec<(u64, LaneReference)> = Vec::new();
        let mut scope = JobScope::default();
        let mut in_job = false;

        let close_scope = |sum: &mut Summary, scope: JobScope| {
            for (phase, acc) in scope.phases {
                let energy = acc.system_j();
                let time_s = acc.dur_ns as f64 / 1e9;
                if let Some(reported) = acc.reported_j {
                    sum.phases_checked += 1;
                    if (energy - reported).abs() > 1e-9 {
                        sum.audit_errors.push(format!(
                            "phase {phase:?}: reconstructed {energy} J disagrees with \
                             reported {reported} J by more than 1e-9"
                        ));
                    }
                }
                sum.total_energy_j += energy;
                if let Some(row) = sum.rows.iter_mut().find(|r| r.phase == phase) {
                    row.time_s += time_s;
                    row.energy_j += energy;
                    if let Some(r) = acc.reported_j {
                        *row.reported_j.get_or_insert(0.0) += r;
                    }
                } else {
                    sum.rows.push(PhaseRow {
                        phase,
                        time_s,
                        energy_j: energy,
                        reported_j: acc.reported_j,
                    });
                }
            }
        };

        for (lineno, line) in lines {
            let kv = parse_flat_object(line).map_err(|e| format!("line {}: {e}", lineno + 1))?;
            sum.events += 1;
            let t_ns = field_reference(&kv, "t_ns")
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("line {}: missing t_ns", lineno + 1))?;
            let ev = field_reference(&kv, "ev")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("line {}: missing ev", lineno + 1))?
                .to_string();
            let name = field_reference(&kv, "name")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("line {}: missing name", lineno + 1))?
                .to_string();

            // Each sweep job restarts virtual time at zero, on every lane.
            if ev == "begin" && name == "job" {
                if !main.stack.is_empty() {
                    sum.audit_errors.push(format!(
                        "line {}: job begins inside open span {:?}",
                        lineno + 1,
                        main.stack
                            .last()
                            .map(|(n, _)| n.clone())
                            .unwrap_or_default()
                    ));
                    main.stack.clear();
                }
                close_lanes_reference(&mut sum, &mut lanes);
                if in_job {
                    close_scope(&mut sum, std::mem::take(&mut scope));
                }
                in_job = true;
                sum.jobs += 1;
                main.last_t = 0;
            }
            let lane = match field_reference(&kv, "node").and_then(JsonValue::as_u64) {
                None => &mut main,
                Some(node) => {
                    let known = lanes.iter().position(|(id, _)| *id == node);
                    let at = known.unwrap_or_else(|| {
                        lanes.push((node, LaneReference::default()));
                        lanes.len() - 1
                    });
                    &mut lanes[at].1
                }
            };
            if t_ns < lane.last_t {
                sum.audit_errors.push(format!(
                    "line {}: timestamp {t_ns} precedes previous {}",
                    lineno + 1,
                    lane.last_t
                ));
            }
            lane.last_t = lane.last_t.max(t_ns);

            match ev.as_str() {
                "begin" => lane.stack.push((name, t_ns)),
                "end" => match lane.stack.pop() {
                    Some((open, t0)) => {
                        sum.spans_checked += 1;
                        if open != name {
                            sum.audit_errors.push(format!(
                                "line {}: end {name:?} closes open span {open:?}",
                                lineno + 1
                            ));
                        }
                        if t_ns < t0 {
                            sum.audit_errors.push(format!(
                                "line {}: span {name:?} ends at {t_ns} before it began at {t0}",
                                lineno + 1
                            ));
                        }
                        if name == "job" {
                            close_lanes_reference(&mut sum, &mut lanes);
                            close_scope(&mut sum, std::mem::take(&mut scope));
                            in_job = false;
                        }
                    }
                    None => sum
                        .audit_errors
                        .push(format!("line {}: end {name:?} without begin", lineno + 1)),
                },
                "event" => match name.as_str() {
                    "segment" => {
                        let phase = field_reference(&kv, "phase")
                            .and_then(JsonValue::as_str)
                            .unwrap_or("other")
                            .to_string();
                        let dur_ns = field_reference(&kv, "dur_ns")
                            .and_then(JsonValue::as_u64)
                            .unwrap_or(0);
                        let secs = dur_ns as f64 / 1e9;
                        let w = |key: &str| {
                            field_reference(&kv, key)
                                .and_then(JsonValue::as_f64)
                                .unwrap_or(0.0)
                        };
                        let acc = scope.acc(&phase);
                        acc.dur_ns += dur_ns;
                        // Exactly Timeline::phase_energy's fold: per-channel
                        // draw × secs added in segment order.
                        acc.package_j += w("package_w") * secs;
                        acc.dram_j += w("dram_w") * secs;
                        acc.disk_j += w("disk_w") * secs;
                        acc.net_j += w("net_w") * secs;
                        acc.board_j += w("board_w") * secs;
                    }
                    "phase_summary" => {
                        let phase = field_reference(&kv, "phase")
                            .and_then(JsonValue::as_str)
                            .unwrap_or("other")
                            .to_string();
                        let system = field_reference(&kv, "system_j").and_then(JsonValue::as_f64);
                        scope.acc(&phase).reported_j = system;
                    }
                    _ => {}
                },
                other => {
                    sum.audit_errors
                        .push(format!("line {}: unknown ev {other:?}", lineno + 1));
                }
            }
        }

        if !main.stack.is_empty() {
            let open: Vec<String> = main.stack.iter().map(|(n, _)| n.clone()).collect();
            sum.audit_errors
                .push(format!("journal ends with open spans: {open:?}"));
        }
        close_lanes_reference(&mut sum, &mut lanes);
        close_scope(&mut sum, scope);
        Ok(sum)
    }

    /// `summarize`, checked against the reference on the way: same `Err`, or
    /// the same `Summary` down to the last bit of every energy and the text
    /// of every audit error.
    fn summarize(journal: &str) -> Result<Summary, String> {
        let new = super::summarize(journal);
        assert_eq!(
            format!("{new:?}"),
            format!("{:?}", summarize_reference(journal))
        );
        new
    }

    /// Post-processing and in-situ on the small config, traced.
    fn pipeline_journal(faults: Option<FaultPlan>) -> String {
        let setup = ExperimentSetup {
            trace: true,
            faults,
            ..ExperimentSetup::default()
        };
        let jobs = sweep::config_grid(&setup, &[(1, PipelineConfig::small(1))]);
        let results = sweep::run_sweep(jobs, 1, &sweep::silent_progress()).expect("small runs");
        sweep::sweep_journal(&results).expect("tracing was on")
    }

    #[test]
    fn real_journals_summarize_like_the_reference() {
        let plain = pipeline_journal(None);
        let s = summarize(&plain).unwrap();
        assert!(s.audit_ok(), "{:?}", s.audit_errors);
        assert_eq!(s.jobs, 2);
        assert!(s.phases_checked >= 4 && s.total_energy_j > 0.0, "{s:?}");

        let faulted = pipeline_journal(Some(FaultPlan::with_seed(11)));
        assert!(
            faulted.contains("\"name\":\"fault."),
            "seed 11 injects faults"
        );
        assert!(summarize(&faulted).unwrap().audit_ok());

        let setup = PlacementSetup {
            trace: true,
            ..PlacementSetup::default()
        };
        // The first workload under each of the three policies.
        let jobs = placement::placement_grid()[..3].to_vec();
        let results = placement::run_placement(jobs, &setup, 1, &sweep::silent_progress())
            .expect("the placement grid runs");
        let tiered = placement::placement_journal(&results).expect("tracing was on");
        assert!(
            tiered.contains("\"name\":\"tier."),
            "tier events are journaled"
        );
        assert!(summarize(&tiered).unwrap().audit_ok());

        // The cluster grid: five or six nodes per job, each a lane.
        for faults in [None, Some(FaultPlan::with_seed(11))] {
            let setup = ClusterSetup {
                trace: true,
                faults,
                ..ClusterSetup::default()
            };
            let results = run_cluster_sweep(cluster_jobs(None), &setup, 1, &|_, _, _| {})
                .expect("the cluster grid runs");
            let journal = cluster_journal(&results).expect("tracing was on");
            assert!(journal.contains("\"name\":\"staging.queue.block\""));
            let s = summarize(&journal).unwrap();
            assert!(s.audit_ok(), "{:?}", &s.audit_errors[..3]);
            assert_eq!(s.jobs, 9);
            // One shared lane is what failed the audit before nodes had lanes.
            let unlaned: String = journal
                .lines()
                .map(|l| match l.rfind(",\"node\":") {
                    Some(at) => format!("{}}}\n", &l[..at]),
                    None => format!("{l}\n"),
                })
                .collect();
            assert!(summarize(&unlaned).unwrap().audit_errors.len() > 1000);
        }
    }

    /// A number the old parser let through and `unwrap_or(0.0)` then read as
    /// zero watts now stops the summary, naming the line.
    #[test]
    fn a_malformed_number_is_an_error_not_zero_joules() {
        let mut j = journal_header();
        j.push_str(&seg(0, 1_000_000_000, "read", 10.0).replace("10.0", "1-0.0"));
        assert_eq!(
            super::summarize(&j).unwrap_err(),
            "line 2: bad number at byte 100"
        );
        let old = summarize_reference(&j).unwrap();
        assert_eq!((old.rows[0].energy_j, old.audit_ok()), (0.0, true));
    }

    fn seg(t: u64, dur: u64, phase: &str, pkg: f64) -> String {
        format!(
            "{{\"t_ns\":{t},\"ev\":\"event\",\"name\":\"segment\",\"start_ns\":0,\
             \"dur_ns\":{dur},\"phase\":\"{phase}\",\"package_w\":{pkg:?},\
             \"dram_w\":0.0,\"disk_w\":0.0,\"net_w\":0.0,\"board_w\":0.0}}\n"
        )
    }

    #[test]
    fn reconstructs_energy_and_passes_audit() {
        let mut j = journal_header();
        j.push_str("{\"t_ns\":0,\"ev\":\"begin\",\"name\":\"run\"}\n");
        j.push_str(&seg(10, 2_000_000_000, "simulation", 100.0));
        j.push_str(&seg(10, 1_000_000_000, "write", 50.0));
        j.push_str(
            "{\"t_ns\":10,\"ev\":\"event\",\"name\":\"phase_summary\",\
             \"phase\":\"simulation\",\"system_j\":200.0}\n",
        );
        j.push_str("{\"t_ns\":10,\"ev\":\"end\",\"name\":\"run\"}\n");
        let s = summarize(&j).unwrap();
        assert!(s.audit_ok(), "{:?}", s.audit_errors);
        assert_eq!(s.rows.len(), 2);
        assert_eq!(s.rows[0].phase, "simulation");
        assert_eq!(s.rows[0].energy_j, 200.0);
        assert_eq!(s.rows[0].reported_j, Some(200.0));
        assert_eq!(s.rows[1].energy_j, 50.0);
        assert_eq!(s.total_energy_j, 250.0);
        assert_eq!(s.phases_checked, 1);
        assert_eq!(s.spans_checked, 1);
    }

    #[test]
    fn detects_unbalanced_spans_and_backwards_time() {
        let mut j = journal_header();
        j.push_str("{\"t_ns\":5,\"ev\":\"begin\",\"name\":\"run\"}\n");
        j.push_str("{\"t_ns\":6,\"ev\":\"begin\",\"name\":\"phase\"}\n");
        j.push_str("{\"t_ns\":3,\"ev\":\"end\",\"name\":\"measure\"}\n");
        let s = summarize(&j).unwrap();
        assert!(!s.audit_ok());
        assert!(s.audit_errors.iter().any(|e| e.contains("precedes")));
        assert!(s
            .audit_errors
            .iter()
            .any(|e| e.contains("closes open span")));
        assert!(s.audit_errors.iter().any(|e| e.contains("open spans")));
    }

    /// Every remaining audit message, line numbers across a blank line, and
    /// a span name that only matches once its escape is decoded.
    #[test]
    fn misplaced_jobs_ends_and_unknown_events_are_reported_by_line() {
        let mut j = journal_header();
        j.push_str("{\"t_ns\":5,\"ev\":\"begin\",\"name\":\"run\"}\n\n");
        j.push_str("{\"t_ns\":0,\"ev\":\"begin\",\"name\":\"job\"}\n");
        j.push_str("{\"t_ns\":9,\"ev\":\"begin\",\"name\":\"ph\\u0061se\"}\n");
        j.push_str("{\"t_ns\":7,\"ev\":\"end\",\"name\":\"phase\"}\n");
        j.push_str("{\"t_ns\":9,\"ev\":\"end\",\"name\":\"job\"}\n");
        j.push_str("{\"t_ns\":9,\"ev\":\"end\",\"name\":\"job\"}\n");
        j.push_str("{\"t_ns\":9,\"ev\":\"tick\",\"name\":\"x\"}\n");
        let s = summarize(&j).unwrap();
        assert_eq!(
            s.audit_errors,
            [
                "line 4: job begins inside open span \"run\"",
                "line 6: timestamp 7 precedes previous 9",
                "line 6: span \"phase\" ends at 7 before it began at 9",
                "line 8: end \"job\" without begin",
                "line 9: unknown ev \"tick\"",
            ]
        );
        assert_eq!((s.events, s.jobs, s.spans_checked), (7, 1, 2));
        assert_eq!(
            summarize(&j.replace("\"ev\":\"tick\",", "")).unwrap_err(),
            "line 9: missing ev"
        );
    }

    /// Two nodes stamp their own clocks into one job: interleaved as emitted
    /// the journal is valid lane by lane, each lane is still held to
    /// monotone time and matched spans, and a lane left open is named.
    #[test]
    fn node_lanes_are_audited_each_on_its_own_clock() {
        let line = |t: u64, ev: &str, name: &str, node: &str| {
            format!("{{\"t_ns\":{t},\"ev\":\"{ev}\",\"name\":\"{name}\"{node}}}\n")
        };
        let (n0, n1) = (",\"node\":0", ",\"node\":1");
        let mut j = journal_header();
        for job in 0..2 {
            j.push_str(&line(0, "begin", "job", ""));
            j.push_str(&line(0, "begin", "phase", n0));
            j.push_str(&line(90, "end", "phase", n0));
            // Node 1 starts before node 0 stopped and ends after the job's
            // other lane: fine, the clocks are independent.
            j.push_str(&line(10, "begin", "phase", n1));
            j.push_str(&line(20, "event", "activity", n1));
            if job == 1 {
                j.push_str(&line(15, "event", "activity", n1));
                j.push_str(&line(95, "begin", "phase", n0));
            }
            j.push_str(&line(40, "end", "phase", n1));
            j.push_str(&line(100, "end", "job", ""));
        }
        let s = summarize(&j).unwrap();
        assert_eq!(
            s.audit_errors,
            [
                "line 14: timestamp 15 precedes previous 20",
                "node 0 ends with open spans: [\"phase\"]",
            ]
        );
        assert_eq!((s.jobs, s.spans_checked), (2, 6));
        // The same events in one lane are what the cluster journal used to be.
        let unlaned = summarize(&j.replace(n0, "").replace(n1, "")).unwrap();
        assert!(unlaned.audit_errors.len() > 2, "{:?}", unlaned.audit_errors);
    }

    /// What the one-pass capture must read as the reference reads it: keys
    /// that need an escape decoded, members in any order, members and
    /// repeated keys it must pass over (the first value under a key wins),
    /// events it does not know, and a line it cannot parse.
    #[test]
    fn captured_members_read_like_the_reference() {
        let mut j = journal_header();
        for line in [
            "{\"name\":\"run\",\"ev\":\"begin\",\"t_ns\":0,\"extra\":false}",
            "{\"t_ns\":0 , \"ev\" : \"end\" , \"name\" : \"run\" }",
            "{\"ev\":\"begin\",\"t_ns\":0,\"name\":\"job\",\"job\":0,\"key\":\"a\\\"b\"}",
            "{\"t_\\u006es\":5,\"ev\":\"event\",\"name\":\"segm\\u0065nt\",\"ph\\u0061se\":\"write\\n\",\
             \"board_w\":2.5,\"dur_ns\":3000000000,\"package_w\":1e2,\"package_w\":7.0,\"x\":null}",
            "{\"t_ns\":5,\"ev\":\"event\",\"name\":\"segment\",\"dur_ns\":1000000000,\"node\":\"x\",\
             \"disk_w\":\"12\",\"net_w\":true,\"dram_w\":0.5,\"phase\":\"write\\n\"}",
            "{\"t_ns\":6,\"ev\":\"event\",\"name\":\"phase_summary\",\"system_j\":308.0,\
             \"phase\":\"write\\n\",\"system_j\":1.0}",
            "{\"t_ns\":6,\"ev\":\"event\",\"name\":\"mystery\",\"phase\":\"write\",\"dur_ns\":9}",
            "{\"t_ns\":6,\"ev\":\"event\",\"name\":\"segment\",\"node\":3,\"phase\":\"read\",\"dur_ns\":1}",
            "{\"t_ns\":7,\"ev\":\"end\",\"name\":\"j\\u006fb\",\"job\":0}",
        ] {
            j.push_str(line);
            j.push('\n');
        }
        let s = summarize(&j).unwrap();
        assert!(s.audit_ok(), "{:?}", s.audit_errors);
        assert_eq!(
            (s.events, s.jobs, s.spans_checked, s.phases_checked),
            (9, 1, 2, 1)
        );
        assert_eq!(s.rows[0].phase, "write\n");
        assert_eq!(s.rows[0].energy_j, 100.0 * 3.0 + 2.5 * 3.0 + 0.5);
        assert_eq!(s.rows[1].phase, "read");

        let broken = j.replacen("\"dram_w\":0.5,", "\"dram_w\":0.5,,", 1);
        assert_eq!(
            summarize(&broken).unwrap_err(),
            "line 6: expected '\"' at byte 111"
        );
    }

    #[test]
    fn mismatched_summary_is_flagged() {
        let mut j = journal_header();
        j.push_str(&seg(0, 1_000_000_000, "read", 10.0));
        j.push_str(
            "{\"t_ns\":0,\"ev\":\"event\",\"name\":\"phase_summary\",\
             \"phase\":\"read\",\"system_j\":11.0}\n",
        );
        let s = summarize(&j).unwrap();
        assert!(s.audit_errors.iter().any(|e| e.contains("disagrees")));
    }

    #[test]
    fn job_spans_reset_the_clock_and_scope() {
        let mut j = journal_header();
        for id in 0..2 {
            j.push_str(&format!(
                "{{\"t_ns\":0,\"ev\":\"begin\",\"name\":\"job\",\"job\":{id}}}\n"
            ));
            j.push_str(&seg(0, 1_000_000_000, "simulation", 100.0));
            j.push_str(&format!(
                "{{\"t_ns\":1000000000,\"ev\":\"end\",\"name\":\"job\",\"job\":{id}}}\n"
            ));
        }
        let s = summarize(&j).unwrap();
        assert!(s.audit_ok(), "{:?}", s.audit_errors);
        assert_eq!(s.jobs, 2);
        assert_eq!(s.rows.len(), 1);
        assert_eq!(s.rows[0].energy_j, 200.0);
    }

    #[test]
    fn rejects_missing_schema() {
        assert!(summarize("").is_err());
        assert!(summarize("{\"schema\":\"something-else/v9\"}\n").is_err());
        assert!(summarize("{\"t_ns\":0,\"ev\":\"begin\",\"name\":\"run\"}\n").is_err());
    }
}
