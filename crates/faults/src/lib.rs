//! Deterministic, seed-driven fault injection for the simulated stack.
//!
//! A [`FaultPlan`] names a seed and per-site fault rates; a [`FaultInjector`]
//! is instantiated at each injection site (one per filesystem, fabric, or
//! service) and asked before every operation whether a fault fires. The
//! decision is a **stateless hash** of `(plan seed, site label, site salt,
//! operation index)` — no shared RNG state — so two runs with the same plan
//! make identical decisions regardless of thread interleaving, and a sweep
//! executed with `--jobs 8` is bit-identical to `--jobs 1`.
//!
//! With no plan configured the injector is simply absent (`Option::None` at
//! every site) and the fault layer costs one branch, leaving every golden
//! output byte-identical to the fault-free build.
//!
//! The hash chain reuses the repo's sweep-seed convention
//! (FNV-1a 64 folded through SplitMix64) so fault schedules compose with the
//! per-job derived RNG seeds from `greenness_core::sweep`.
//!
//! The crate has no dependencies, so it also owns the workspace's other
//! seeded primitives, each spelled once: [`fnv1a64`], [`checksum64`],
//! [`splitmix64`] and [`Rng`], the xoshiro256++ stream behind the meter
//! noise and the scattered block allocator.

/// Where in the stack an injector sits. Labels are part of the deterministic
/// schedule: renaming one reshuffles that site's faults (and only that
/// site's).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Site {
    /// `storage::fs` — fsync faults: transient journal-commit errors and
    /// torn writebacks that persist only a prefix of the dirty pages.
    StorageFsync,
    /// `cluster::fabric` — a transfer is dropped (payload lost, must be
    /// resent) or delayed (delivered, but at degraded bandwidth).
    FabricTransfer,
    /// `serve` — the connection is dropped before the response is written.
    ServeConn,
    /// `serve` — the handler is artificially slowed (an overloaded staging
    /// node), observable through retry/latency accounting only.
    ServeHandler,
    /// `storage::tier` — a transient device-level I/O error inside one tier
    /// of a `TieredStore`; the controller retries transparently, costing a
    /// second pass of the transfer.
    TierIo,
    /// `storage::tier` — a block migration between tiers fails: torn (the
    /// destination copy is abandoned half-written) or transient (the copy
    /// never starts). Either way the source copy survives.
    TierMigration,
    /// `fleet` — shard churn: a simulated node loss (the shard's cache is
    /// gone, the ring reroutes around it) or rejoin (a fresh instance takes
    /// its ring positions back and is rebalanced). The entropy word picks
    /// the mode and the victim.
    FleetChurn,
    /// `cluster::staging` — a staging-node frame render is torn (the node
    /// faulted mid-frame); the render must repeat from the assembled slabs,
    /// which stay live in staging memory, so output is never corrupted.
    StagingRender,
}

impl Site {
    /// Stable label hashed into the fault schedule.
    pub fn label(self) -> &'static str {
        match self {
            Site::StorageFsync => "storage.fsync",
            Site::FabricTransfer => "fabric.transfer",
            Site::ServeConn => "serve.conn",
            Site::ServeHandler => "serve.handler",
            Site::TierIo => "tier.io",
            Site::TierMigration => "tier.migration",
            Site::FleetChurn => "fleet.churn",
            Site::StagingRender => "staging.render",
        }
    }

    /// The plan's fault probability for this site.
    pub fn rate(self, plan: &FaultPlan) -> f64 {
        match self {
            Site::StorageFsync => plan.storage_fsync_rate,
            Site::FabricTransfer => plan.fabric_fault_rate,
            Site::ServeConn => plan.serve_drop_rate,
            Site::ServeHandler => plan.serve_slow_rate,
            Site::TierIo => plan.tier_io_rate,
            Site::TierMigration => plan.tier_migration_rate,
            Site::FleetChurn => plan.fleet_churn_rate,
            Site::StagingRender => plan.staging_render_rate,
        }
    }
}

/// A seeded fault schedule: which sites fault, how often, and how patiently
/// the layers above retry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Master seed; every site derives its schedule from it.
    pub seed: u64,
    /// Probability an `fsync` faults (transient error or torn writeback).
    pub storage_fsync_rate: f64,
    /// Probability a fabric transfer is dropped or delayed.
    pub fabric_fault_rate: f64,
    /// Probability a serve connection is dropped before responding.
    pub serve_drop_rate: f64,
    /// Probability a serve handler is slowed.
    pub serve_slow_rate: f64,
    /// Probability a tiered-store transfer hits a transient device error.
    pub tier_io_rate: f64,
    /// Probability a tier migration is torn or aborted.
    pub tier_migration_rate: f64,
    /// Probability a fleet request triggers a shard churn event (node loss
    /// or rejoin) before routing.
    pub fleet_churn_rate: f64,
    /// Probability a staging-node frame render is torn and must repeat.
    pub staging_render_rate: f64,
    /// Bounded retry budget for every recovery loop.
    pub max_retries: u32,
}

/// First-retry backoff in (virtual) seconds; doubles per attempt.
const BACKOFF_BASE_S: f64 = 0.002;

impl FaultPlan {
    /// The standard chaos plan used by the CLI `--fault-seed` flags: every
    /// site faults at a rate low enough that bounded retry always recovers,
    /// high enough that a short run sees several faults.
    pub fn with_seed(seed: u64) -> Self {
        FaultPlan {
            seed,
            storage_fsync_rate: 0.08,
            fabric_fault_rate: 0.06,
            serve_drop_rate: 0.12,
            serve_slow_rate: 0.10,
            tier_io_rate: 0.05,
            tier_migration_rate: 0.10,
            fleet_churn_rate: 0.05,
            staging_render_rate: 0.06,
            max_retries: 8,
        }
    }

    /// A plan that never fires — useful to exercise the plumbing without
    /// perturbing results.
    pub fn quiet(seed: u64) -> Self {
        FaultPlan {
            storage_fsync_rate: 0.0,
            fabric_fault_rate: 0.0,
            serve_drop_rate: 0.0,
            serve_slow_rate: 0.0,
            tier_io_rate: 0.0,
            tier_migration_rate: 0.0,
            fleet_churn_rate: 0.0,
            staging_render_rate: 0.0,
            ..FaultPlan::with_seed(seed)
        }
    }

    /// Exponential backoff for the given zero-based retry attempt, seconds.
    pub fn backoff_s(&self, attempt: u32) -> f64 {
        BACKOFF_BASE_S * f64::from(1u32 << attempt.min(16))
    }

    /// Derive a sub-plan whose schedule is independent of this one —
    /// same rates and retry budget, seed re-keyed by `key`. Used to give
    /// every sweep job its own fault schedule (mirroring the per-job RNG
    /// seeds), so schedules do not depend on job execution order.
    pub fn derive(&self, key: &str) -> Self {
        FaultPlan {
            seed: splitmix64(fnv1a64(key.as_bytes()) ^ self.seed),
            ..*self
        }
    }

    /// An injector for `site`, distinguished from same-site siblings by
    /// `salt` (e.g. an I/O server index).
    pub fn injector(&self, site: Site, salt: u64) -> FaultInjector {
        FaultInjector {
            plan: *self,
            site,
            salt,
            ops: 0,
        }
    }
}

/// Per-site fault source: a deterministic counter over the site's schedule.
///
/// Each call to [`FaultInjector::next`] consumes one operation slot and
/// reports whether that operation faults. The decision depends only on
/// `(plan.seed, site, salt, op index)`, never on wall clock or thread
/// timing.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    plan: FaultPlan,
    site: Site,
    salt: u64,
    ops: u64,
}

impl FaultInjector {
    /// The plan this injector draws from.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Operations consumed so far.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Decide the next operation. Returns `Some(entropy)` when a fault
    /// fires — the entropy word is itself deterministic and lets the site
    /// pick a sub-mode (torn vs transient, drop vs delay) from its bits.
    // Not an Iterator: `None` means "this op runs clean", not exhaustion.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<u64> {
        let op = self.ops;
        self.ops += 1;
        let mut x = splitmix64(self.plan.seed ^ fnv1a64(self.site.label().as_bytes()));
        x = splitmix64(x ^ self.salt);
        x = splitmix64(x ^ op);
        // Top 53 bits → uniform in [0,1); compare against the site's rate.
        let u = (x >> 11) as f64 / (1u64 << 53) as f64;
        if u < self.site.rate(&self.plan) {
            Some(splitmix64(x))
        } else {
            None
        }
    }
}

/// FNV-1a 64-bit: the workspace's one non-cryptographic hash for values
/// that are emitted or seed something (job keys, fault and RNG seeds, image
/// and frame hashes). Compare-and-discard sums use [`checksum64`].
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continue an FNV-1a chain: `fnv1a64_extend(fnv1a64(a), b)` is
/// `fnv1a64(a ++ b)`, and `fnv1a64(&[])` is the empty chain to start from.
/// Inlined, so a loop that writes bytes can fold them as it stores them.
#[inline]
pub fn fnv1a64_extend(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Integrity checksum for a buffer that is summed, compared and thrown
/// away (snapshot write-time vs read-back): the FNV-1a mix over 8-byte
/// little-endian words, the tail through [`fnv1a64_extend`]. Whole 32-byte
/// blocks go through four independent lanes, word `k` of a block into lane
/// `k`, so four multiplies are in flight instead of one chain; the lanes
/// are then folded into the state in order, and the leftover words and
/// bytes follow as before. Each step of the mix (xor, multiply by an odd
/// constant) is a bijection of its lane or of the state, so any single-bit
/// flip changes the sum. Under 32 bytes there are no lanes and the sum is
/// the plain word chain. Not FNV-1a: never emit it or seed anything with
/// it — use [`fnv1a64`] for values that leave the process.
pub fn checksum64(bytes: &[u8]) -> u64 {
    checksum64_parts(&[bytes])
}

/// [`checksum64`] of `parts` laid end to end, without concatenating them: a
/// 32-byte block that spans parts is gathered into a carry first.
pub fn checksum64_parts<P: AsRef<[u8]>>(parts: &[P]) -> u64 {
    let mix = |h: u64, w: u64| (h ^ w).wrapping_mul(0x1000_0000_01b3);
    // `chunks_exact(8)` hands over 8 bytes, so the fallback never fires.
    let word = |w: &[u8]| w.try_into().map_or(0, u64::from_le_bytes);
    let lane_block = |lanes: &mut [u64; 4], block: &[u8]| {
        for (lane, w) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = mix(*lane, word(w));
        }
    };
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let (mut lanes, mut laned) = ([h; 4], false);
    let (mut carry, mut held) = ([0u8; 32], 0);
    for part in parts {
        let mut part = part.as_ref();
        if held > 0 {
            let take = part.len().min(32 - held);
            carry[held..held + take].copy_from_slice(&part[..take]);
            (held, part) = (held + take, &part[take..]);
            if held < 32 {
                continue;
            }
            lane_block(&mut lanes, &carry);
            laned = true;
        }
        let mut blocks = part.chunks_exact(32);
        laned |= blocks.len() > 0;
        for block in &mut blocks {
            lane_block(&mut lanes, block);
        }
        let tail = blocks.remainder();
        carry[..tail.len()].copy_from_slice(tail);
        held = tail.len();
    }
    if laned {
        h = lanes.iter().fold(h, |h, &lane| mix(h, lane));
    }
    let mut words = carry[..held].chunks_exact(8);
    for w in &mut words {
        h = mix(h, word(w));
    }
    fnv1a64_extend(h, words.remainder())
}

/// SplitMix64 finalizer: decorrelates structured inputs.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The workspace's one seeded stream generator: xoshiro256++, its state
/// expanded from a `u64` seed through [`splitmix64`]. It drives the Wattsup
/// accuracy noise, the scattered block allocator and the proptest stand-in.
#[derive(Debug, Clone)]
pub struct Rng {
    s: [u64; 4],
}

impl Rng {
    /// The stream for `seed`: state word `k` is `splitmix64(seed + k·γ)`.
    pub fn seeded(seed: u64) -> Rng {
        let word = |k: u64| splitmix64(seed.wrapping_add(k.wrapping_mul(0x9e37_79b9_7f4a_7c15)));
        Rng {
            s: [word(0), word(1), word(2), word(3)],
        }
    }

    /// The next raw word (one xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `0..n` by a 128-bit multiply-shift (bias below 2⁻⁶⁴).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)` from the top 53 bits.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fire_pattern(plan: &FaultPlan, site: Site, salt: u64, n: u64) -> Vec<Option<u64>> {
        let mut inj = plan.injector(site, salt);
        (0..n).map(|_| inj.next()).collect()
    }

    #[test]
    fn same_seed_same_schedule() {
        let plan = FaultPlan::with_seed(42);
        assert_eq!(
            fire_pattern(&plan, Site::StorageFsync, 0, 512),
            fire_pattern(&plan, Site::StorageFsync, 0, 512)
        );
    }

    #[test]
    fn different_seeds_salts_and_sites_decorrelate() {
        let a = fire_pattern(&FaultPlan::with_seed(1), Site::StorageFsync, 0, 2048);
        let b = fire_pattern(&FaultPlan::with_seed(2), Site::StorageFsync, 0, 2048);
        let c = fire_pattern(&FaultPlan::with_seed(1), Site::StorageFsync, 1, 2048);
        let d = fire_pattern(&FaultPlan::with_seed(1), Site::FabricTransfer, 0, 2048);
        assert_ne!(a, b);
        assert_ne!(a, c);
        // Site rates differ, but even the raw schedules must diverge.
        let fires = |v: &[Option<u64>]| -> Vec<bool> { v.iter().map(Option::is_some).collect() };
        assert_ne!(fires(&a), fires(&d));
    }

    #[test]
    fn empirical_rate_tracks_the_plan() {
        let plan = FaultPlan::with_seed(7);
        let n = 20_000u64;
        let fired = fire_pattern(&plan, Site::ServeConn, 0, n)
            .iter()
            .filter(|f| f.is_some())
            .count() as f64;
        let rate = fired / n as f64;
        assert!(
            (rate - plan.serve_drop_rate).abs() < 0.02,
            "empirical {rate} vs plan {}",
            plan.serve_drop_rate
        );
    }

    #[test]
    fn quiet_plan_never_fires() {
        let plan = FaultPlan::quiet(99);
        for site in [
            Site::StorageFsync,
            Site::FabricTransfer,
            Site::ServeConn,
            Site::ServeHandler,
            Site::TierIo,
            Site::TierMigration,
            Site::FleetChurn,
            Site::StagingRender,
        ] {
            assert!(fire_pattern(&plan, site, 3, 256)
                .iter()
                .all(Option::is_none));
        }
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let plan = FaultPlan::with_seed(0);
        assert_eq!(plan.backoff_s(1), 2.0 * plan.backoff_s(0));
        assert_eq!(plan.backoff_s(3), 8.0 * plan.backoff_s(0));
        // Saturates instead of overflowing the shift.
        assert!(plan.backoff_s(60).is_finite());
    }

    #[test]
    fn derive_rekeys_but_keeps_rates() {
        let plan = FaultPlan::with_seed(11);
        let a = plan.derive("case1/InSitu");
        let b = plan.derive("case2/InSitu");
        assert_ne!(a.seed, b.seed);
        assert_eq!(a.max_retries, plan.max_retries);
        assert_eq!(a.storage_fsync_rate, plan.storage_fsync_rate);
        // Derivation is itself deterministic.
        assert_eq!(a, plan.derive("case1/InSitu"));
    }

    #[test]
    fn entropy_word_is_deterministic_and_varied() {
        let plan = FaultPlan {
            storage_fsync_rate: 1.0,
            ..FaultPlan::with_seed(5)
        };
        let words: Vec<u64> = fire_pattern(&plan, Site::StorageFsync, 0, 64)
            .into_iter()
            .map(|f| f.expect("rate 1.0 always fires"))
            .collect();
        let odd = words.iter().filter(|w| *w & 1 == 1).count();
        assert!(
            (16..=48).contains(&odd),
            "entropy bit 0 is biased: {odd}/64"
        );
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::seeded(7);
        let mut b = Rng::seeded(7);
        for _ in 0..100 {
            assert_eq!(a.below(1_000_000), b.below(1_000_000));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::seeded(1);
        let mut b = Rng::seeded(2);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn float_ranges_stay_in_bounds() {
        let mut rng = Rng::seeded(1);
        for _ in 0..10_000 {
            let x = rng.unit_f64();
            assert!((0.0..1.0).contains(&x), "{x}");
        }
    }

    #[test]
    fn int_ranges_cover_and_stay_in_bounds() {
        let mut rng = Rng::seeded(2);
        let mut seen = [false; 10];
        for _ in 0..1_000 {
            seen[rng.below(10) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all bins hit: {seen:?}");
    }

    /// Flip each bit of `buf[pos]` in turn and require a different sum.
    fn assert_bit_flips_change_the_sum(buf: &mut [u8], pos: usize) {
        let clean = checksum64(buf);
        for bit in 0..8 {
            buf[pos] ^= 1 << bit;
            assert_ne!(
                checksum64(buf),
                clean,
                "len {} byte {pos} bit {bit}",
                buf.len()
            );
            buf[pos] ^= 1 << bit;
        }
    }

    #[test]
    fn checksum64_sees_every_single_bit_flip() {
        // Every bit of every length through 80: under one 32-byte block,
        // whole blocks, leftover words after them and a 0..=7 byte tail.
        for len in 0..=80usize {
            let mut buf: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            for pos in 0..len {
                assert_bit_flips_change_the_sum(&mut buf, pos);
            }
        }
    }

    #[test]
    fn checksum64_sees_a_flip_in_every_lane_of_a_snapshot() {
        // A snapshot-sized buffer (512 x 512 f64), sampled positions: a
        // byte of each of the four lanes in the first, a middle and the
        // last block, and the edges.
        let mut snapshot: Vec<u8> = (0..2u64 << 20)
            .map(|i| (splitmix64(i) >> 56) as u8)
            .collect();
        let last = snapshot.len() - 1;
        let middle = last / 2 / 32 * 32;
        let lanes = |block: usize| (0..4).map(move |k| block + 8 * k + 3);
        for pos in lanes(0)
            .chain(lanes(middle))
            .chain(lanes(last + 1 - 32))
            .chain([0, 1, 4095, 4096, last])
        {
            assert_bit_flips_change_the_sum(&mut snapshot, pos);
        }
    }

    #[test]
    fn checksum64_tail_goes_through_the_byte_chain() {
        // Shorter than a word there is no word step: the sum is plain FNV-1a.
        assert_eq!(checksum64(&[]), fnv1a64(&[]));
        assert_eq!(checksum64(b"abc"), fnv1a64(b"abc"));
        // From one word on the two differ, and length is part of the sum.
        assert_ne!(checksum64(b"abcdefgh"), fnv1a64(b"abcdefgh"));
        assert_ne!(checksum64(&[0; 8]), checksum64(&[0; 16]));
        assert_ne!(checksum64(&[0; 32]), checksum64(&[0; 64]));
        // Under one 32-byte block the sum is the plain word chain.
        let buf: Vec<u8> = (0..31u8).collect();
        let chain = buf[..24]
            .chunks_exact(8)
            .fold(0xcbf2_9ce4_8422_2325u64, |h, w| {
                (h ^ u64::from_le_bytes(w.try_into().unwrap())).wrapping_mul(0x1000_0000_01b3)
            });
        assert_eq!(checksum64(&buf), fnv1a64_extend(chain, &buf[24..]));
        // Words in different lanes are not interchangeable.
        let mut swapped = [0u8; 32];
        swapped[0] = 1;
        let mut original = [0u8; 32];
        original[8] = 1;
        assert_ne!(checksum64(&swapped), checksum64(&original));
    }
}
