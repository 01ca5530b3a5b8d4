//! Seeded Zipfian popularity: rank draws over a finite key universe.
//!
//! Serving traffic is famously skewed — a handful of dashboards account for
//! most queries — and Zipf(s) is the standard model: rank `r` (1-based) is
//! drawn with probability proportional to `1/r^s`. The draw is **stateless**
//! (`rank(i)` depends only on `(seed, i)`), so a workload generated at
//! request index `i` is the same whether requests are generated in order,
//! in parallel, or resumed mid-stream — the same discipline as the fault
//! schedules.
//!
//! Implementation: precomputed CDF over the universe + binary search per
//! draw, O(log n). Exact for any `s ≥ 0` (s = 0 degenerates to uniform).

use greenness_faults::{fnv1a64, splitmix64};

/// A Zipfian rank generator over ranks `1..=universe`.
#[derive(Debug, Clone)]
pub struct Zipf {
    seed: u64,
    /// Cumulative probability up to and including rank `i + 1`.
    cdf: Vec<f64>,
}

impl Zipf {
    /// A generator over `universe` ranks with exponent `s`, drawing from
    /// `seed`. `universe` is clamped to at least 1.
    pub fn new(universe: usize, s: f64, seed: u64) -> Zipf {
        let universe = universe.max(1);
        let mut cdf = Vec::with_capacity(universe);
        let mut total = 0.0f64;
        for r in 1..=universe {
            total += (r as f64).powf(-s);
            cdf.push(total);
        }
        // Normalize; pin the last entry so u < 1.0 can never fall off the
        // end through rounding.
        for c in cdf.iter_mut() {
            *c /= total;
        }
        if let Some(last) = cdf.last_mut() {
            *last = 1.0;
        }
        Zipf { seed, cdf }
    }

    /// The rank (1-based, 1 = most popular) drawn at request index `i`.
    /// A pure function of `(seed, i)`.
    pub fn rank(&self, i: u64) -> u64 {
        let x = splitmix64(splitmix64(self.seed ^ fnv1a64(b"fleet.zipf")) ^ i);
        // Top 53 bits → uniform in [0, 1).
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        (self.cdf.partition_point(|&c| c < u) + 1).min(self.cdf.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn draws_are_stateless_and_seeded() {
        let z = Zipf::new(100, 1.1, 9);
        let forward: Vec<u64> = (0..50).map(|i| z.rank(i)).collect();
        let backward: Vec<u64> = (0..50).rev().map(|i| z.rank(i)).rev().collect();
        assert_eq!(forward, backward, "rank(i) must not depend on call order");
        let other = Zipf::new(100, 1.1, 10);
        let differs = (0..50).any(|i| z.rank(i) != other.rank(i));
        assert!(differs, "different seeds must draw differently");
    }

    #[test]
    fn ranks_stay_in_universe_and_skew_toward_the_head() {
        let z = Zipf::new(64, 1.1, 3);
        let n = 20_000u64;
        let mut head = 0u64;
        for i in 0..n {
            let r = z.rank(i);
            assert!((1..=64).contains(&r), "rank {r} out of universe");
            if r <= 6 {
                head += 1;
            }
        }
        // Zipf(1.1) over 64 ranks puts ~60% of mass on the top 6; uniform
        // would put ~9%. Split the difference generously.
        assert!(
            head * 100 / n > 35,
            "head ranks got only {head}/{n} draws — not Zipfian"
        );
    }

    #[test]
    fn zero_exponent_degenerates_to_uniform() {
        let z = Zipf::new(8, 0.0, 1);
        let n = 16_000u64;
        let mut counts = [0u64; 8];
        for i in 0..n {
            counts[(z.rank(i) - 1) as usize] += 1;
        }
        for (r, &c) in counts.iter().enumerate() {
            let expected = n / 8;
            assert!(
                c > expected * 7 / 10 && c < expected * 13 / 10,
                "rank {} drew {c} of {n}; expected ~{expected}",
                r + 1
            );
        }
    }
}
