//! Free space of a block address space, as runs.
//!
//! One type behind both allocators — the filesystem's extent allocator and
//! each [`crate::TieredStore`] tier's physical-block allocator. Runs are
//! disjoint and never adjacent: [`FreeRuns::release`] merges a returned run
//! with its two neighbours and nothing else, so freeing is O(log runs) and
//! the free-block total is a counter, not a sum over the map.

use std::collections::BTreeMap;

/// The free runs of an address space: start block → run length.
#[derive(Debug, Clone, Default)]
pub(crate) struct FreeRuns {
    runs: BTreeMap<u64, u64>,
    blocks: u64,
}

impl FreeRuns {
    /// An address space of `blocks` blocks, all free.
    pub(crate) fn new(blocks: u64) -> Self {
        let mut free = FreeRuns::default();
        if blocks > 0 {
            free.release(0, blocks);
        }
        free
    }

    /// Free blocks in total.
    pub(crate) fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Number of runs.
    pub(crate) fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// The `k`-th run in address order, as `(start, len)`.
    pub(crate) fn nth_run(&self, k: usize) -> Option<(u64, u64)> {
        self.runs.iter().nth(k).map(|(&start, &len)| (start, len))
    }

    /// The lowest run at least `want` blocks long, else the lowest run.
    pub(crate) fn first_fit(&self, want: u64) -> Option<(u64, u64)> {
        self.runs
            .iter()
            .find(|(_, &len)| len >= want)
            .or_else(|| self.runs.iter().next())
            .map(|(&start, &len)| (start, len))
    }

    /// Take blocks `at..at + len` out of the run starting at `run_start`,
    /// which must contain them; `None` when no free run starts there.
    pub(crate) fn take(&mut self, run_start: u64, at: u64, len: u64) -> Option<()> {
        let run_len = self.runs.remove(&run_start)?;
        let (end, run_end) = (at + len, run_start + run_len);
        assert!(run_start <= at && end <= run_end, "take outside the run");
        if at > run_start {
            self.runs.insert(run_start, at - run_start);
        }
        if end < run_end {
            self.runs.insert(end, run_end - end);
        }
        self.blocks -= len;
        Some(())
    }

    /// Return blocks `start..start + len` (none of them free already),
    /// coalescing with the run that ends at `start` and the run that starts
    /// at `start + len`.
    pub(crate) fn release(&mut self, mut start: u64, mut len: u64) {
        self.blocks += len;
        if let Some(after) = self.runs.remove(&(start + len)) {
            len += after;
        }
        if let Some((&before, &before_len)) = self.runs.range(..start).next_back() {
            if before + before_len == start {
                start = before;
                len += before_len;
            }
        }
        self.runs.insert(start, len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(free: &FreeRuns) -> Vec<(u64, u64)> {
        (0..free.run_count())
            .map(|k| free.nth_run(k).unwrap())
            .collect()
    }

    #[test]
    fn take_splits_and_release_coalesces_with_both_neighbours() {
        let mut free = FreeRuns::new(100);
        assert_eq!(runs(&free), [(0, 100)]);
        free.take(0, 10, 5);
        free.take(15, 40, 1);
        assert_eq!(runs(&free), [(0, 10), (15, 25), (41, 59)]);
        assert_eq!(free.blocks(), 94);
        free.release(40, 1); // joins (15, 25) and (41, 59)
        assert_eq!(runs(&free), [(0, 10), (15, 85)]);
        free.release(12, 2); // touches neither neighbour
        assert_eq!(runs(&free), [(0, 10), (12, 2), (15, 85)]);
        free.release(10, 2); // joins (0, 10) and (12, 2)
        free.release(14, 1);
        assert_eq!(runs(&free), [(0, 100)]);
        assert_eq!(free.blocks(), 100);
    }

    #[test]
    fn first_fit_prefers_a_run_that_fits_and_falls_back_to_the_lowest() {
        let mut free = FreeRuns::new(64);
        free.take(0, 4, 4);
        free.take(8, 20, 4);
        assert_eq!(runs(&free), [(0, 4), (8, 12), (24, 40)]);
        assert_eq!(free.first_fit(3), Some((0, 4)));
        assert_eq!(free.first_fit(10), Some((8, 12)));
        assert_eq!(free.first_fit(30), Some((24, 40)));
        assert_eq!(free.first_fit(50), Some((0, 4)), "nothing fits: spill");
        assert_eq!(FreeRuns::new(0).first_fit(1), None);
    }

    /// The two allocators used to re-merge the whole map after every insert;
    /// neighbour-only coalescing must leave the same runs behind.
    #[test]
    fn neighbour_coalescing_equals_the_whole_map_merge() {
        fn merge_all(mut runs: BTreeMap<u64, u64>, start: u64, len: u64) -> BTreeMap<u64, u64> {
            runs.insert(start, len);
            let mut merged: BTreeMap<u64, u64> = BTreeMap::new();
            for (&start, &len) in &runs {
                match merged.iter_mut().next_back() {
                    Some((&last, last_len)) if last + *last_len >= start => {
                        *last_len = (*last_len).max(start + len - last);
                    }
                    _ => {
                        merged.insert(start, len);
                    }
                }
            }
            merged
        }
        let mut free = FreeRuns::new(512);
        let mut state = 9u64;
        let mut held = Vec::new();
        for _ in 0..2_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = state >> 33;
            if r % 3 != 0 && free.run_count() > 0 {
                let (start, len) = free.nth_run(r as usize % free.run_count()).unwrap();
                let at = start + (r >> 8) % len;
                let n = 1 + (r >> 16) % (start + len - at).min(7);
                free.take(start, at, n);
                held.push((at, n));
            } else if !held.is_empty() {
                let (at, n) = held.swap_remove(r as usize % held.len());
                let want = merge_all(free.runs.clone(), at, n);
                free.release(at, n);
                assert_eq!(free.runs, want);
            }
            assert_eq!(free.blocks(), free.runs.values().sum::<u64>());
        }
    }
}
