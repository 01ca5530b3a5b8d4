//! The consistent-hash ring: seeded virtual-node placement over a `u64`
//! keyspace.
//!
//! Every shard owns `vnodes` positions on the ring; a key routes to the
//! first live position clockwise from its hash point. Positions depend only
//! on `(ring seed, shard id, vnode index)` — never on insertion order or on
//! which other shards exist — which is what makes movement under churn
//! *provably minimal*: adding a shard can only claim the arcs immediately
//! counter-clockwise of its own positions, and removing it hands exactly
//! those arcs back. Keys mapped to any other shard do not move.
//!
//! The same stateless-hash discipline as `greenness-faults`: FNV-1a 64
//! folded through SplitMix64, so ring placement composes with the repo's
//! seed conventions and two rings built from the same seed are identical
//! regardless of add/remove history.

use greenness_faults::{fnv1a64, splitmix64};

/// Default virtual nodes per shard. 64 keeps the max/mean arc imbalance
/// under ~2× for small fleets — see the `fleet_ring` property tests.
pub const DEFAULT_VNODES: usize = 64;

/// The ring: sorted `(position, shard)` pairs plus the seed that places
/// them.
#[derive(Debug, Clone)]
pub struct Ring {
    seed: u64,
    vnodes: usize,
    /// Sorted by position. Positions collide with probability ~n²/2⁶⁴ —
    /// ties break by shard id for determinism.
    points: Vec<(u64, u32)>,
}

/// The base the per-shard vnode chain hangs off: decorrelates the ring from
/// other consumers of the same seed (fault schedules, workload ranks).
fn ring_base(seed: u64) -> u64 {
    splitmix64(seed ^ fnv1a64(b"fleet.ring"))
}

/// Where `shard`'s `v`-th virtual node sits for `seed`.
fn vnode_position(seed: u64, shard: u32, v: usize) -> u64 {
    splitmix64(splitmix64(ring_base(seed) ^ u64::from(shard)) ^ v as u64)
}

/// A key's point on the ring.
fn key_point(key: &[u8]) -> u64 {
    splitmix64(fnv1a64(key))
}

impl Ring {
    /// A ring of `shards` shards (ids `0..shards`), `vnodes` virtual nodes
    /// each, placed by `seed`.
    pub fn new(seed: u64, shards: u32, vnodes: usize) -> Ring {
        let mut ring = Ring {
            seed,
            vnodes: vnodes.max(1),
            points: Vec::with_capacity(shards as usize * vnodes.max(1)),
        };
        for shard in 0..shards {
            ring.add(shard);
        }
        ring
    }

    /// The placement seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Distinct shards currently on the ring, ascending.
    pub fn shards(&self) -> Vec<u32> {
        let mut ids: Vec<u32> = self.points.iter().map(|&(_, s)| s).collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Number of distinct shards on the ring.
    pub fn len(&self) -> usize {
        self.shards().len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Whether `shard` is on the ring.
    pub fn contains(&self, shard: u32) -> bool {
        self.points.iter().any(|&(_, s)| s == shard)
    }

    /// Add `shard`'s virtual nodes. Idempotent. Positions are a pure
    /// function of `(seed, shard)`, so a shard that leaves and rejoins
    /// lands on exactly its old arcs.
    pub fn add(&mut self, shard: u32) {
        if self.contains(shard) {
            return;
        }
        for v in 0..self.vnodes {
            let pos = vnode_position(self.seed, shard, v);
            let at = self.points.partition_point(|&(p, s)| (p, s) < (pos, shard));
            self.points.insert(at, (pos, shard));
        }
    }

    /// Remove `shard`'s virtual nodes. Idempotent.
    pub fn remove(&mut self, shard: u32) {
        self.points.retain(|&(_, s)| s != shard);
    }

    /// The shard owning `key`: the first ring position clockwise from the
    /// key's point (wrapping past the top of the keyspace).
    pub fn route(&self, key: &[u8]) -> Option<u32> {
        self.successors(key_point(key)).next()
    }

    /// Up to `k` *distinct* shards for `key`, primary first: the owners of
    /// the next positions clockwise, skipping repeats. This is the
    /// replication candidate list — under churn it shrinks to however many
    /// shards remain.
    pub fn replicas(&self, key: &[u8], k: usize) -> Vec<u32> {
        let mut out = Vec::with_capacity(k);
        for shard in self.successors(key_point(key)) {
            if !out.contains(&shard) {
                out.push(shard);
                if out.len() == k {
                    break;
                }
            }
        }
        out
    }

    /// Ring positions clockwise from `point`, wrapping, each visited once.
    fn successors(&self, point: u64) -> impl Iterator<Item = u32> + '_ {
        let start = self.points.partition_point(|&(p, _)| p < point);
        let n = self.points.len();
        (0..n).map(move |i| self.points[(start + i) % n].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(n: u64) -> impl Iterator<Item = Vec<u8>> {
        (0..n).map(|i| format!("key/{i}").into_bytes())
    }

    #[test]
    fn same_seed_same_ring_regardless_of_history() {
        let fresh = Ring::new(42, 4, 16);
        let mut churned = Ring::new(42, 4, 16);
        churned.remove(2);
        churned.remove(0);
        churned.add(2);
        churned.add(0);
        for key in keys(500) {
            assert_eq!(fresh.route(&key), churned.route(&key));
        }
    }

    #[test]
    fn route_is_the_first_replica() {
        let ring = Ring::new(7, 5, 32);
        for key in keys(200) {
            let reps = ring.replicas(&key, 3);
            assert_eq!(reps.len(), 3);
            assert_eq!(ring.route(&key), Some(reps[0]));
            let mut dedup = reps.clone();
            dedup.dedup();
            assert_eq!(dedup, reps, "replicas must be distinct shards");
        }
    }

    #[test]
    fn replicas_degrade_gracefully_below_k() {
        let ring = Ring::new(1, 2, 8);
        let key = b"anything";
        assert_eq!(ring.replicas(key, 5).len(), 2, "only 2 shards exist");
        let empty = Ring::new(1, 0, 8);
        assert_eq!(empty.route(key), None);
        assert!(empty.replicas(key, 3).is_empty());
    }

    #[test]
    fn add_and_remove_are_idempotent() {
        let mut ring = Ring::new(3, 3, 8);
        let baseline = ring.points.clone();
        ring.add(1);
        assert_eq!(ring.points, baseline);
        ring.remove(1);
        ring.remove(1);
        assert_eq!(ring.len(), 2);
        ring.add(1);
        assert_eq!(ring.points, baseline, "rejoin reclaims the same arcs");
    }
}
