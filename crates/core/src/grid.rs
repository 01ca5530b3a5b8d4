//! The one keyed-job grid runner behind [`sweep`](crate::sweep),
//! [`cluster_sweep`](crate::cluster_sweep) and
//! [`placement`](crate::placement).
//!
//! Every result in the paper is a grid of independent runs compared cell by
//! cell, and every grid in this crate honours one contract, stated here once:
//!
//! * **unique keys** — a job's key is its whole identity; two jobs sharing
//!   one are rejected before anything runs, since they would collapse into
//!   one manifest entry;
//! * **submission-order results** — the returned `Vec` is indexed by job id
//!   (position in the submitted batch), whatever the scheduling was;
//! * **key-derived seeds** — `exec` gets only the job id; anything random a
//!   job needs derives from its key, never from worker identity or
//!   execution order, so output is bit-identical for any worker count;
//! * **lowest-id failure** — a failing or panicking job never stops the
//!   batch; every other job still runs, and the failure with the lowest id
//!   is the one reported, so the error is deterministic too.
//!
//! The same goes for the artifacts: [`journal`] and [`metrics_json`] wrap
//! each traced job's output in job-id order and are pure functions of the
//! results, and every traced job opens with [`begin_run`] and closes with
//! [`finish_run`].

use std::borrow::Cow;

use greenness_pool::run_pool;
use greenness_trace::{escape_json, MetricsRegistry, Tracer, Value};

use crate::sweep::{Progress, SweepError};

/// What the journal and metrics assemblers need of one finished job,
/// borrowed from the grid's own result type.
pub(crate) struct JobView<'a> {
    pub id: usize,
    pub key: &'a str,
    /// The seed the job ran with, for grids whose jobs draw one.
    pub seed: Option<u64>,
    /// Virtual end instant of the run (the `job` span's end event).
    pub end_ns: u64,
    pub journal: Option<&'a str>,
    pub metrics: Option<&'a MetricsRegistry>,
}

/// Run jobs `0..keys.len()` on `workers` threads (clamped to
/// `1..=keys.len()`) and return what `exec` produced, in submission order.
/// `on_done` fires on the calling thread for each job that succeeded.
pub(crate) fn run_grid<R: Send>(
    keys: &[String],
    workers: usize,
    on_done: Progress<'_>,
    exec: &(dyn Fn(usize) -> Result<R, String> + Sync),
) -> Result<Vec<R>, SweepError> {
    let total = keys.len();
    let mut sorted: Vec<&String> = keys.iter().collect();
    sorted.sort();
    if let Some(pair) = sorted.windows(2).find(|pair| pair[0] == pair[1]) {
        return Err(SweepError::DuplicateKey {
            key: pair[0].clone(),
        });
    }
    let mut slots: Vec<Option<R>> = (0..total).map(|_| None).collect();
    let mut failures: Vec<(usize, bool, String)> = Vec::new();
    let mut finished = 0usize;
    run_pool(total, workers, exec, &mut |id, outcome| match outcome {
        Ok(Ok(result)) => {
            finished += 1;
            on_done(finished, total, &keys[id]);
            slots[id] = Some(result);
        }
        Ok(Err(message)) => failures.push((id, false, message)),
        Err(message) => failures.push((id, true, message)),
    });
    if let Some((id, panicked, message)) = failures.into_iter().min_by_key(|(id, _, _)| *id) {
        let key = keys[id].clone();
        return Err(if panicked {
            SweepError::JobPanicked { id, key, message }
        } else {
            SweepError::JobFailed { id, key, message }
        });
    }
    slots
        .into_iter()
        .zip(keys)
        .enumerate()
        .map(|(id, (slot, key))| {
            slot.ok_or_else(|| SweepError::JobLost {
                id,
                key: key.clone(),
            })
        })
        .collect()
}

/// Assemble a grid-level event journal: the `greenness-trace/v1` schema
/// header, then each traced job's journal wrapped in a `job` span, in job-id
/// order. Per-job journals use job-local virtual time (every job starts at
/// t = 0); the `job` begin event marks the clock reset for consumers.
/// `None` when no job was traced.
pub(crate) fn journal<'a>(jobs: impl Iterator<Item = JobView<'a>>) -> Option<String> {
    let mut parts: Vec<Cow<'a, str>> = vec![greenness_trace::journal_header().into()];
    for job in jobs {
        let Some(journal) = job.journal else {
            continue;
        };
        let seed = job.seed.map_or(String::new(), |n| format!(",\"seed\":{n}"));
        parts.push(Cow::Owned(format!(
            "{{\"t_ns\":0,\"ev\":\"begin\",\"name\":\"job\",\"job\":{},\"key\":\"{}\"{seed}}}\n",
            job.id,
            escape_json(job.key),
        )));
        parts.push(Cow::Borrowed(journal));
        parts.push(Cow::Owned(format!(
            "{{\"t_ns\":{},\"ev\":\"end\",\"name\":\"job\",\"job\":{}}}\n",
            job.end_ns, job.id
        )));
    }
    // `concat` sizes the journal once, from the lengths of its parts.
    (parts.len() > 1).then(|| parts.concat())
}

/// Render a grid-level metrics file (`greenness-metrics/v1`): one labeled
/// registry per traced job, in job-id order, labeled by job key. `None`
/// when no job was traced.
pub(crate) fn metrics_json<'a>(jobs: impl Iterator<Item = JobView<'a>>) -> Option<String> {
    let entries: Vec<(String, MetricsRegistry)> = jobs
        .filter_map(|job| job.metrics.map(|m| (job.key.to_string(), m.clone())))
        .collect();
    (!entries.is_empty()).then(|| greenness_trace::metrics_file_json(&entries))
}

/// A journaling tracer with the job's `run` span open at t = 0.
pub(crate) fn begin_run(fields: Vec<(&'static str, Value)>) -> Tracer {
    let tracer = Tracer::jsonl();
    tracer.begin(0, "run", fields);
    tracer
}

/// Close a job's `run` span at `end_ns` — the `run.end_s` and
/// `energy.system_j` gauges and the `run` metrics snapshot first — and drain
/// the journal and registry. Both `None` when `tracer` is off.
pub(crate) fn finish_run(
    tracer: &Tracer,
    end_ns: u64,
    end_s: f64,
    energy_j: f64,
) -> (Option<String>, Option<MetricsRegistry>) {
    if tracer.is_on() {
        tracer.gauge("run.end_s", end_s);
        tracer.gauge("energy.system_j", energy_j);
        tracer.snapshot("run");
        tracer.end(end_ns, "run", Vec::new());
    }
    tracer.drain().map(|out| (out.journal, out.metrics)).unzip()
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    use super::*;

    fn keys(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("job{i}")).collect()
    }

    #[test]
    fn the_grid_contract_holds_for_the_one_runner() {
        // Duplicate keys are rejected before anything runs.
        let ran = AtomicUsize::new(0);
        let dup = vec!["a".to_string(), "b".to_string(), "a".to_string()];
        let err = run_grid(&dup, 2, &|_, _, _| {}, &|id| {
            ran.fetch_add(1, Ordering::SeqCst);
            Ok(id)
        })
        .expect_err("duplicates must be rejected");
        assert_eq!(err, SweepError::DuplicateKey { key: "a".into() });
        assert_eq!(ran.load(Ordering::SeqCst), 0);

        // Job 1 panics, jobs 2 and 4 fail: the lowest id wins, a panic is
        // told apart from a failure, every other job still ran, and
        // `on_done` counted only the successes.
        let keys6 = keys(6);
        for (panic_in_1, want_id, want_panicked) in [(true, 1, true), (false, 2, false)] {
            let ran = Mutex::new(Vec::new());
            let done = Mutex::new(Vec::new());
            let err = run_grid(
                &keys6,
                3,
                &|n, of, key| done.lock().unwrap().push((n, of, key.to_string())),
                &|id| {
                    ran.lock().unwrap().push(id);
                    match id {
                        1 if panic_in_1 => panic!("boom in job 1"),
                        2 | 4 => Err(format!("job {id} refused")),
                        _ => Ok(id),
                    }
                },
            )
            .expect_err("a bad job fails its batch");
            match err {
                SweepError::JobPanicked { id, key, message } if want_panicked => {
                    assert_eq!((id, key.as_str()), (want_id, "job1"));
                    assert!(message.contains("boom in job 1"), "{message}");
                }
                SweepError::JobFailed { id, key, message } if !want_panicked => {
                    assert_eq!((id, key.as_str()), (want_id, "job2"));
                    assert_eq!(message, "job 2 refused");
                }
                other => panic!("unexpected error {other:?}"),
            }
            let mut ran = ran.into_inner().unwrap();
            ran.sort_unstable();
            assert_eq!(ran, [0, 1, 2, 3, 4, 5]);
            let done = done.into_inner().unwrap();
            let successes = if panic_in_1 { 3 } else { 4 };
            assert_eq!(done.len(), successes);
            assert_eq!(done.last().map(|d| (d.0, d.1)), Some((successes, 6)));
        }

        // Results come back in submission order at any worker count.
        for workers in [1, 3, 64] {
            let got = run_grid(&keys6, workers, &|_, _, _| {}, &|id| Ok(id * 10)).expect("grid ok");
            assert_eq!(got, [0, 10, 20, 30, 40, 50], "workers {workers}");
        }
        let none: Vec<usize> = run_grid(&[], 4, &|_, _, _| {}, &|id| Ok(id)).expect("empty grid");
        assert!(none.is_empty());

        // The journal frame: a seeded grid's begin event carries `seed`, the
        // cluster grid's (no per-job seed) does not; untraced jobs are
        // skipped, and an all-untraced grid has no journal or metrics.
        let registry = MetricsRegistry::default();
        let view = |id, seed, traced: bool| JobView {
            id,
            key: "k\"1",
            seed,
            end_ns: 99,
            journal: traced.then_some("{\"ev\":\"x\"}\n"),
            metrics: traced.then_some(&registry),
        };
        let seeded = journal([view(0, Some(7), true), view(1, Some(8), false)].into_iter());
        assert_eq!(
            seeded.expect("one job was traced"),
            "{\"schema\":\"greenness-trace/v1\"}\n\
             {\"t_ns\":0,\"ev\":\"begin\",\"name\":\"job\",\"job\":0,\"key\":\"k\\\"1\",\"seed\":7}\n\
             {\"ev\":\"x\"}\n\
             {\"t_ns\":99,\"ev\":\"end\",\"name\":\"job\",\"job\":0}\n"
        );
        let unseeded = journal([view(3, None, true)].into_iter()).expect("traced");
        assert!(unseeded.contains("\"job\":3,\"key\":\"k\\\"1\"}\n"));
        assert!(!unseeded.contains("seed"));
        assert!(journal([view(0, Some(7), false)].into_iter()).is_none());
        assert!(metrics_json([view(0, None, false)].into_iter()).is_none());
        let metrics = metrics_json([view(0, None, true)].into_iter()).expect("traced");
        assert!(metrics.contains("\"label\": \"k\\\"1\""));
    }
}
