//! Named monotonic counters, gauges, and latency histograms, snapshotted at
//! phase and job boundaries. Keys are `&'static str` so incrementing a
//! counter on the hot path allocates nothing. Counters live in flat slots,
//! found by the caller's pointer; a `BTreeMap` is built only where output
//! must be ordered (snapshots, [`MetricsRegistry::counters`], JSON).

use std::collections::BTreeMap;

use crate::json::{escape_json, fmt_f64};

/// Number of log-spaced histogram buckets. Bucket `i` covers
/// `(2^(i-31), 2^(i-30)]`, so the range spans ≈4.7e-10 .. 8.6e9 — enough for
/// nanosecond latencies and multi-gigajoule energies alike.
const HIST_BUCKETS: usize = 64;

/// Upper bound of bucket `i`.
fn bucket_bound(i: usize) -> f64 {
    (2.0f64).powi(i as i32 - 30)
}

/// The bucket owning `v` (finite, non-negative): the first `i` with
/// `v <= 2^(i-30)`, the last bucket past every bound. That is
/// `ceil(log2 v) + 30`, and for a positive `f64` `ceil(log2 v)` is its
/// unbiased exponent, plus one unless the mantissa is zero (an exact power of
/// two sits on its own bound). Zero and subnormals come out far below
/// bucket 0 and clamp into it.
fn bucket_index(v: f64) -> usize {
    let bits = v.to_bits();
    let exponent = (bits >> 52) as i64 - 1023;
    let above_power_of_two = i64::from(bits & ((1 << 52) - 1) != 0);
    (exponent + above_power_of_two + 30).clamp(0, HIST_BUCKETS as i64 - 1) as usize
}

/// A fixed-bucket, log-spaced histogram of non-negative observations.
///
/// Buckets are compile-time constants, so two histograms fed the same
/// observations in any order render byte-identical JSON — the property the
/// serve-layer replay determinism check relies on. Quantiles are estimated
/// by linear interpolation inside the owning bucket and clamped to the
/// observed `[min, max]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: [u64; HIST_BUCKETS],
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: [0; HIST_BUCKETS],
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Histogram {
    /// Record one observation. Negative and non-finite values are clamped
    /// to 0 (they land in the first bucket).
    pub fn observe(&mut self, value: f64) {
        let v = if value.is_finite() && value > 0.0 {
            value
        } else {
            0.0
        };
        self.counts[bucket_index(v)] += 1;
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Estimate the `q`-quantile (`q` in `[0, 1]`) by rank-walking the
    /// buckets and interpolating linearly inside the owning bucket. Returns
    /// 0 for an empty histogram.
    fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = q * self.count as f64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            let next = seen + c;
            if (next as f64) >= rank {
                let lo = if i == 0 { 0.0 } else { bucket_bound(i - 1) };
                let hi = bucket_bound(i);
                let frac = (rank - seen as f64) / c as f64;
                let est = lo + (hi - lo) * frac.clamp(0.0, 1.0);
                return est.clamp(self.min, self.max);
            }
            seen = next;
        }
        self.max
    }

    /// Render as a compact JSON object. Only non-empty buckets appear, keyed
    /// by their upper bound in round-trippable float formatting.
    pub fn to_json(&self) -> String {
        let buckets: Vec<String> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| format!("\"{}\":{}", fmt_f64(bucket_bound(i)), c))
            .collect();
        format!(
            "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":{{{}}}}}",
            self.count,
            fmt_f64(self.sum),
            fmt_f64(if self.count == 0 { 0.0 } else { self.min }),
            fmt_f64(if self.count == 0 { 0.0 } else { self.max }),
            fmt_f64(self.quantile(0.50)),
            fmt_f64(self.quantile(0.90)),
            fmt_f64(self.quantile(0.99)),
            buckets.join(",")
        )
    }
}

/// Exact nearest-rank percentile (`p` in `[0, 1]`) over raw samples: the
/// smallest sample such that at least `ceil(p * n)` samples are ≤ it.
///
/// `samples` must already be sorted ascending. Unlike
/// [`Histogram::quantile`], which interpolates inside log buckets (an
/// *estimate*), this is the textbook definition: p50 of `[1, 2, 3, 4]` is
/// exactly 2, p99 of a single sample is that sample, and no percentile ever
/// reads past the end of the data. Returns 0 for an empty slice.
pub fn percentile_nearest_rank(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let n = samples.len();
    let rank = (p.clamp(0.0, 1.0) * n as f64).ceil() as usize;
    samples[rank.clamp(1, n) - 1]
}

/// Point-in-time copy of the registry taken by [`MetricsRegistry::snapshot`].
#[derive(Debug, Clone)]
pub(crate) struct MetricsSnapshot {
    /// Label, e.g. `"phase:simulation"` or `"run"`.
    label: String,
    /// Counter values at snapshot time.
    pub(crate) counters: BTreeMap<&'static str, u64>,
    /// Gauge values at snapshot time.
    gauges: BTreeMap<&'static str, f64>,
    /// Histogram states at snapshot time (empty unless the run observed
    /// histogram samples).
    histograms: BTreeMap<&'static str, Histogram>,
}

/// Flat counter slots, one per name pointer a caller has passed, in
/// first-seen order. Two pointers with equal text (the same literal compiled
/// into two crates, as `disk.seeks` is) are one counter: reads sum them.
#[derive(Debug, Clone, Default)]
struct Counters(Vec<(&'static str, u64)>);

impl Counters {
    /// Counter `name`'s slot, found by pointer (created at zero).
    fn slot(&mut self, name: &'static str) -> &mut u64 {
        let at = match self
            .0
            .iter()
            .position(|(seen, _)| std::ptr::eq(*seen, name))
        {
            Some(at) => at,
            None => {
                self.0.push((name, 0));
                self.0.len() - 1
            }
        };
        &mut self.0[at].1
    }

    fn get(&self, name: &str) -> u64 {
        self.0
            .iter()
            .filter(|(text, _)| *text == name)
            .map(|&(_, value)| value)
            .sum()
    }

    /// The counters in key order, equal texts summed.
    fn ordered(&self) -> BTreeMap<&'static str, u64> {
        let mut ordered = BTreeMap::new();
        for &(text, value) in &self.0 {
            *ordered.entry(text).or_insert(0) += value;
        }
        ordered
    }
}

/// The metrics registry: monotonic counters, last-write-wins gauges,
/// log-bucket histograms, and an ordered list of snapshots.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Counters,
    gauges: BTreeMap<&'static str, f64>,
    histograms: BTreeMap<&'static str, Histogram>,
    snapshots: Vec<MetricsSnapshot>,
}

impl MetricsRegistry {
    /// Add `by` to counter `name` (creating it at zero).
    pub fn incr(&mut self, name: &'static str, by: u64) {
        *self.counters.slot(name) += by;
    }

    /// Set gauge `name` to `value`.
    pub fn set_gauge(&mut self, name: &'static str, value: f64) {
        self.gauges.insert(name, value);
    }

    /// Current value of counter `name` (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name)
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// All counters in key order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.ordered().into_iter()
    }

    /// Record `value` into histogram `name` (creating it empty).
    pub fn observe(&mut self, name: &'static str, value: f64) {
        self.histograms.entry(name).or_default().observe(value);
    }

    /// Record a labelled snapshot of the current counters, gauges, and
    /// histograms.
    pub fn snapshot(&mut self, label: &str) {
        self.snapshots.push(MetricsSnapshot {
            label: label.to_string(),
            counters: self.counters.ordered(),
            gauges: self.gauges.clone(),
            histograms: self.histograms.clone(),
        });
    }

    /// Compact single-line JSON object:
    /// `{"counters":{...},"gauges":{...},"snapshots":[...]}`, with a
    /// `"histograms"` member appearing only when observations were recorded
    /// (so pre-histogram artifacts stay byte-stable). The
    /// `greenness-metrics/v1` schema tag is added by the file wrapper
    /// ([`crate::metrics_file_json`]).
    pub fn to_json(&self) -> String {
        fn counters_json(m: &BTreeMap<&'static str, u64>) -> String {
            let body: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            format!("{{{}}}", body.join(","))
        }
        fn gauges_json(m: &BTreeMap<&'static str, f64>) -> String {
            let body: Vec<String> = m
                .iter()
                .map(|(k, v)| format!("\"{k}\":{}", fmt_f64(*v)))
                .collect();
            format!("{{{}}}", body.join(","))
        }
        fn histograms_json(m: &BTreeMap<&'static str, Histogram>) -> String {
            if m.is_empty() {
                return String::new();
            }
            let body: Vec<String> = m
                .iter()
                .map(|(k, h)| format!("\"{k}\":{}", h.to_json()))
                .collect();
            format!(",\"histograms\":{{{}}}", body.join(","))
        }
        let snaps: Vec<String> = self
            .snapshots
            .iter()
            .map(|s| {
                format!(
                    "{{\"label\":\"{}\",\"counters\":{},\"gauges\":{}{}}}",
                    escape_json(&s.label),
                    counters_json(&s.counters),
                    gauges_json(&s.gauges),
                    histograms_json(&s.histograms)
                )
            })
            .collect();
        format!(
            "{{\"counters\":{},\"gauges\":{}{},\"snapshots\":[{}]}}",
            counters_json(&self.counters.ordered()),
            gauges_json(&self.gauges),
            histograms_json(&self.histograms),
            snaps.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl Histogram {
        /// Mean observation (0 when empty).
        fn mean(&self) -> f64 {
            if self.count == 0 {
                0.0
            } else {
                self.sum / self.count as f64
            }
        }
    }

    impl MetricsRegistry {
        /// Snapshots in recording order.
        pub(crate) fn snapshots(&self) -> &[MetricsSnapshot] {
            &self.snapshots
        }
    }

    /// `Histogram::observe`'s bucket search as it was: try every bound in
    /// turn. The oracle for [`bucket_index`].
    fn bucket_index_by_scan(v: f64) -> usize {
        (0..HIST_BUCKETS)
            .find(|&i| v <= bucket_bound(i))
            .unwrap_or(HIST_BUCKETS - 1)
    }

    #[test]
    fn bucket_index_matches_the_linear_scan() {
        let check = |v: f64| assert_eq!(bucket_index(v), bucket_index_by_scan(v), "{v:e}");
        // Every bound, one ulp either side of it, and well past both ends.
        for i in -40..=40 {
            let bound = (2.0f64).powi(i);
            for v in [
                f64::from_bits(bound.to_bits() - 1),
                bound,
                f64::from_bits(bound.to_bits() + 1),
            ] {
                check(v);
            }
        }
        // What `observe` clamps to, subnormals, and the finite extremes.
        for v in [
            0.0,
            f64::from_bits(1),
            1e-310,
            f64::MIN_POSITIVE,
            1e300,
            f64::MAX,
        ] {
            check(v);
        }
        // A million points log-spread over 2^-45 .. 2^45.
        for k in 0..1_000_000u32 {
            check((2.0f64).powf(-45.0 + 90.0 * f64::from(k) / 1e6));
        }
    }

    #[test]
    fn observe_clamps_what_it_cannot_bucket() {
        let mut h = Histogram::default();
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -3.0, -0.0, 0.0] {
            h.observe(v);
        }
        assert_eq!(
            h.counts[0], 6,
            "zero, negative and non-finite land in bucket 0"
        );
        h.observe(1e300);
        assert_eq!(
            h.counts[HIST_BUCKETS - 1],
            1,
            "overflow lands in the last bucket"
        );
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let mut h = Histogram::default();
        for i in 1..=1000u32 {
            h.observe(i as f64 / 1000.0); // 0.001 .. 1.0
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 0.5005).abs() < 1e-9);
        let p50 = h.quantile(0.50);
        let p99 = h.quantile(0.99);
        assert!((0.25..=0.75).contains(&p50), "p50 {p50}");
        assert!(p99 > p50);
        assert!(p99 <= 1.0, "p99 {p99} exceeds max");
    }

    #[test]
    fn histogram_is_order_independent() {
        let mut a = Histogram::default();
        let mut b = Histogram::default();
        let vals = [0.003, 1.25, 0.5, 17.0, 0.0001, 0.5];
        for v in vals {
            a.observe(v);
        }
        for v in vals.iter().rev() {
            b.observe(*v);
        }
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn histogram_handles_degenerate_inputs() {
        let mut h = Histogram::default();
        assert_eq!(h.quantile(0.5), 0.0);
        h.observe(f64::NAN);
        h.observe(-3.0);
        h.observe(1e300); // beyond the last bound: clamped to the last bucket
        assert_eq!(h.count(), 3);
        assert!(h.to_json().contains("\"count\":3"));
    }

    #[test]
    fn nearest_rank_percentiles_are_exact_at_tiny_n() {
        // n = 1: every percentile is the one sample — the old bucketed
        // estimate could return an interpolated value below it, and a
        // naive `(p * n) as usize` index would read sorted[1], past the end.
        let one = [7.25];
        for p in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(percentile_nearest_rank(&one, p), 7.25, "p = {p}");
        }
        // n = 4, hand-computed nearest ranks: p50 → ceil(2) = rank 2,
        // p90 → ceil(3.6) = rank 4, p99 → ceil(3.96) = rank 4 (not index 4).
        let four = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile_nearest_rank(&four, 0.50), 2.0);
        assert_eq!(percentile_nearest_rank(&four, 0.90), 4.0);
        assert_eq!(percentile_nearest_rank(&four, 0.99), 4.0);
        assert_eq!(percentile_nearest_rank(&four, 1.00), 4.0);
        // p = 0 clamps to the smallest sample rather than rank 0.
        assert_eq!(percentile_nearest_rank(&four, 0.0), 1.0);
        assert_eq!(percentile_nearest_rank(&[], 0.5), 0.0);
    }

    /// The counters as they were: one `BTreeMap` entry per name text, and a
    /// clone of the map per snapshot. The oracle for the flat slots.
    #[derive(Default)]
    struct CountersReference {
        counters: BTreeMap<&'static str, u64>,
        snapshots: Vec<(String, BTreeMap<&'static str, u64>)>,
    }

    impl CountersReference {
        fn to_json(&self) -> String {
            let counters = |m: &BTreeMap<&str, u64>| {
                let body: Vec<String> = m.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
                format!("{{{}}}", body.join(","))
            };
            let snaps: Vec<String> = self
                .snapshots
                .iter()
                .map(|(label, m)| {
                    format!(
                        "{{\"label\":\"{label}\",\"counters\":{},\"gauges\":{{}}}}",
                        counters(m)
                    )
                })
                .collect();
            format!(
                "{{\"counters\":{},\"gauges\":{{}},\"snapshots\":[{}]}}",
                counters(&self.counters),
                snaps.join(",")
            )
        }
    }

    /// Names as callers pass them: literals, and the same texts at other
    /// addresses (as the same literal compiled into two crates would be).
    fn names() -> Vec<&'static str> {
        let elsewhere =
            |text: &str| -> &'static str { Box::leak(text.to_string().into_boxed_str()) };
        let names = vec![
            "dram.bytes",
            elsewhere("dram.bytes"),
            "disk.reads",
            "a",
            elsewhere("a"),
            elsewhere("a"),
            "z.last",
            "activity.count",
        ];
        assert!(!std::ptr::eq(names[0], names[1]) && names[0] == names[1]);
        names
    }

    proptest! {
        /// Any mix of increments through aliased names and snapshots reads,
        /// snapshots and renders as the ordered map did.
        #[test]
        fn flat_counters_match_the_ordered_map(
            ops in prop::collection::vec((0usize..9, 0u64..1_000_000), 0..60),
        ) {
            let names = names();
            let mut flat = MetricsRegistry::default();
            let mut reference = CountersReference::default();
            for (i, (pick, by)) in ops.into_iter().enumerate() {
                match names.get(pick) {
                    Some(&name) => {
                        flat.incr(name, by);
                        *reference.counters.entry(name).or_insert(0) += by;
                    }
                    None => {
                        let label = format!("s{i}");
                        flat.snapshot(&label);
                        reference.snapshots.push((label, reference.counters.clone()));
                    }
                }
            }
            for name in &names {
                prop_assert_eq!(flat.counter(name), reference.counters.get(name).copied().unwrap_or(0));
            }
            let listed: Vec<(&str, u64)> = flat.counters().collect();
            let want: Vec<(&str, u64)> = reference.counters.iter().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(listed, want);
            for (snap, (label, counters)) in flat.snapshots().iter().zip(&reference.snapshots) {
                prop_assert_eq!(&snap.label, label);
                prop_assert_eq!(&snap.counters, counters);
            }
            prop_assert_eq!(flat.to_json(), reference.to_json());
        }
    }

    #[test]
    fn registry_histograms_only_render_when_used() {
        let mut m = MetricsRegistry::default();
        m.incr("a", 1);
        m.snapshot("s");
        assert!(!m.to_json().contains("histograms"));
        m.observe("serve.virtual_s", 0.25);
        m.snapshot("t");
        let json = m.to_json();
        assert!(json.contains("\"histograms\":{\"serve.virtual_s\""));
        assert_eq!(m.histograms["serve.virtual_s"].count(), 1);
        // The first snapshot predates the histogram and stays clean.
        assert!(m.snapshots()[0].histograms.is_empty());
        assert_eq!(m.snapshots()[1].histograms.len(), 1);
    }
}
