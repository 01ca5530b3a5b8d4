//! Block-placement policies for the [`crate::TieredStore`].
//!
//! A block touching the device for the first time lands on the bottom tier
//! and earns promotion through its score. At each epoch boundary a
//! [`PolicyKind`] plans which blocks migrate between tiers
//! ([`PolicyKind::plan`]), as a **pure function** of the access stats and
//! the tier usage. Purity is what makes the placement sweeps
//! schedule-independent: the same inputs always yield the same move list,
//! so journals are byte-identical across `--jobs 1` and `--jobs 8`.
//!
//! Three policies ship, spanning the design space the paper's §V-D
//! reorganization argument opens:
//! - [`PolicyKind::Noop`] — static pinning to the bottom tier; the
//!   single-device baseline that reproduces the Table III
//!   sequential-vs-random cliff.
//! - [`PolicyKind::FreqRecency`] — exponential-decay frequency/recency
//!   scoring; the hottest blocks fill the fastest tiers to `HEADROOM`.
//! - [`PolicyKind::EnergyGreedy`] — promotes a block only when the predicted
//!   per-access energy saving beats the migration cost by `HYSTERESIS`,
//!   using each tier's [`DiskModel`] as the price list.

use std::collections::BTreeMap;

use greenness_platform::disk::{DiskModel, IoDir};
use greenness_platform::AccessPattern;

use crate::block::BLOCK_SIZE;

/// Fraction of each fast tier's capacity a moving policy will fill.
const HEADROOM: f64 = 0.9;
/// Minimum decayed score freq-recency requires to move a block *up*; it
/// keeps a one-shot scan from churning the fast tiers.
const PROMOTE_MIN_SCORE: f64 = 1.0;
/// Benefit-to-cost ratio energy-greedy requires before a promotion.
const HYSTERESIS: f64 = 2.0;
/// Upper bound on moves per epoch (demotions keep priority).
const MAX_MOVES: usize = 4096;

/// One 4 KiB block touched at random: how a policy prices an access and
/// how the store charges a faulted migration.
pub(crate) const RANDOM_TOUCH: AccessPattern = AccessPattern::Random {
    op_bytes: BLOCK_SIZE,
    queue_depth: 1,
};

/// One tier's occupancy, as seen by a policy.
#[derive(Debug, Clone)]
pub struct TierUsage {
    /// Tier name (e.g. `"dram"`, `"nvme"`, `"hdd"`), fastest first.
    pub name: String,
    /// The tier's device model — the policy's price list.
    pub model: DiskModel,
    /// Physical blocks in the tier.
    pub capacity_blocks: u64,
    /// Physical blocks currently mapped.
    pub used_blocks: u64,
}

/// One mapped logical block: what a policy plans from (`tier`, `score`),
/// plus the [`crate::TieredStore`]'s own bookkeeping for it — the store
/// keeps exactly one map of these and hands it to [`PolicyKind::plan`] as
/// is.
#[derive(Debug, Clone, Copy)]
pub struct BlockState {
    /// Tier currently holding the block.
    pub tier: usize,
    /// Decayed access score (see [`crate::TieredStore`]: at each epoch
    /// boundary `score = score * decay + hits_this_epoch`).
    pub score: f64,
    /// Physical block on `tier`.
    pub(crate) phys: u64,
    /// Device touches since the last epoch boundary.
    pub(crate) epoch_hits: u64,
}

impl BlockState {
    /// A block on `tier` with decayed score `score` (for driving a policy
    /// directly; a store fills in the rest).
    pub fn new(tier: usize, score: f64) -> Self {
        BlockState {
            tier,
            score,
            phys: 0,
            epoch_hits: 0,
        }
    }
}

/// A planned migration: move `logical` to tier `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// Logical block to move.
    pub logical: u64,
    /// Destination tier index.
    pub to: usize,
}

/// A block-placement policy: a value, deterministic by construction — no
/// wall clock, no ambient randomness, no state between epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// Static pinning: everything stays on the bottom (slowest) tier. With
    /// an HDD bottom tier this is exactly the paper's single-device testbed,
    /// which is what makes it the Table III regression baseline.
    Noop,
    /// Frequency/recency ranking with exponential decay: at every epoch the
    /// hottest blocks (by decayed score) fill the fastest tiers up to
    /// `HEADROOM` of each tier's capacity; everything colder spills down.
    /// Blocks scoring below `PROMOTE_MIN_SCORE` are never promoted.
    FreqRecency,
    /// Energy-greedy placement: promote a block only when the predicted
    /// per-access energy saving over the next epoch (`score × Δenergy`)
    /// exceeds the migration cost by `HYSTERESIS`. Both energies come
    /// from each tier's [`DiskModel`] priced at one 4 KiB random touch, so a
    /// slow-but-frugal tier can win over a fast-but-hungry one.
    EnergyGreedy,
}

impl PolicyKind {
    /// All policies, grid order.
    pub const ALL: [PolicyKind; 3] = [
        PolicyKind::Noop,
        PolicyKind::FreqRecency,
        PolicyKind::EnergyGreedy,
    ];

    /// Short stable name used in sweep keys and reports.
    pub fn label(self) -> &'static str {
        match self {
            PolicyKind::Noop => "noop",
            PolicyKind::FreqRecency => "freq-recency",
            PolicyKind::EnergyGreedy => "energy-greedy",
        }
    }

    /// The migration plan for an epoch boundary: demotions first, so
    /// capacity frees up before it is claimed, each list sorted by logical
    /// block, at most `MAX_MOVES` in all. The store skips (never
    /// reorders) moves whose destination is full.
    pub fn plan(self, blocks: &BTreeMap<u64, BlockState>, tiers: &[TierUsage]) -> Vec<Move> {
        let (mut moves, mut promotions) = match self {
            PolicyKind::Noop => return Vec::new(),
            _ if tiers.len() < 2 => return Vec::new(),
            PolicyKind::FreqRecency => freq_recency(blocks, headroom(tiers)),
            PolicyKind::EnergyGreedy => energy_greedy(blocks, tiers, headroom(tiers)),
        };
        moves.sort_by_key(|m| m.logical);
        promotions.sort_by_key(|m| m.logical);
        moves.extend(promotions);
        moves.truncate(MAX_MOVES);
        moves
    }
}

/// Blocks a moving policy lets each tier hold: `HEADROOM` of a fast
/// tier's capacity, no limit on the bottom tier.
fn headroom(tiers: &[TierUsage]) -> Vec<i64> {
    let last = tiers.len() - 1;
    tiers
        .iter()
        .enumerate()
        .map(|(i, t)| {
            if i == last {
                i64::MAX
            } else {
                (t.capacity_blocks as f64 * HEADROOM) as i64
            }
        })
        .collect()
}

/// Rank blocks hottest-first with a total, deterministic order.
fn ranked_blocks(blocks: &BTreeMap<u64, BlockState>) -> Vec<(u64, BlockState)> {
    let mut v: Vec<(u64, BlockState)> = blocks.iter().map(|(&lb, &st)| (lb, st)).collect();
    v.sort_by(|a, b| b.1.score.total_cmp(&a.1.score).then(a.0.cmp(&b.0)));
    v
}

/// [`PolicyKind::FreqRecency`]'s (demotions, promotions), unordered.
fn freq_recency(blocks: &BTreeMap<u64, BlockState>, mut room: Vec<i64>) -> (Vec<Move>, Vec<Move>) {
    let last = room.len() - 1;
    let mut demotions = Vec::new();
    let mut promotions = Vec::new();
    for (lb, st) in ranked_blocks(blocks) {
        let mut target = 0;
        while target < last && room[target] <= 0 {
            target += 1;
        }
        if target < st.tier && st.score < PROMOTE_MIN_SCORE {
            // Too cold to justify a promotion; stay put.
            target = st.tier;
        }
        room[target] -= 1;
        match target.cmp(&st.tier) {
            std::cmp::Ordering::Greater => demotions.push(Move {
                logical: lb,
                to: target,
            }),
            std::cmp::Ordering::Less => promotions.push(Move {
                logical: lb,
                to: target,
            }),
            std::cmp::Ordering::Equal => {}
        }
    }
    (demotions, promotions)
}

/// Energy of one 4 KiB random touch on `model` in direction `dir`,
/// including the tier's own idle draw for the op's duration, joules.
fn touch_energy_j(model: &DiskModel, dir: IoDir) -> f64 {
    let c = model.transfer(BLOCK_SIZE, dir, RANDOM_TOUCH);
    c.seconds * (model.idle_w + c.dyn_w)
}

/// [`PolicyKind::EnergyGreedy`]'s (demotions, promotions), unordered.
fn energy_greedy(
    blocks: &BTreeMap<u64, BlockState>,
    tiers: &[TierUsage],
    cap: Vec<i64>,
) -> (Vec<Move>, Vec<Move>) {
    let last = tiers.len() - 1;
    let energy: Vec<f64> = tiers
        .iter()
        .map(|t| touch_energy_j(&t.model, IoDir::Read))
        .collect();
    // Occupancy per tier from the block map (the authoritative view).
    let mut used = vec![0i64; tiers.len()];
    for st in blocks.values() {
        used[st.tier] += 1;
    }
    let mut demotions = Vec::new();
    let mut promotions = Vec::new();
    // Demote coldest-first out of over-headroom fast tiers.
    let ranked = ranked_blocks(blocks);
    for &(lb, st) in ranked.iter().rev() {
        if st.tier < last && used[st.tier] > cap[st.tier] {
            used[st.tier] -= 1;
            used[st.tier + 1] += 1;
            demotions.push(Move {
                logical: lb,
                to: st.tier + 1,
            });
        }
    }
    // Promote hottest-first wherever the energy ledger says it pays.
    for &(lb, st) in &ranked {
        if st.tier == 0 || st.score <= 0.0 {
            continue;
        }
        let mut best: Option<usize> = None;
        for t in 0..st.tier {
            if used[t] >= cap[t] {
                continue;
            }
            let benefit = st.score * (energy[st.tier] - energy[t]);
            // Migrating reads the block off its tier and writes it onto `t`.
            let migration = touch_energy_j(&tiers[st.tier].model, IoDir::Read)
                + touch_energy_j(&tiers[t].model, IoDir::Write);
            let cost = migration * HYSTERESIS;
            if benefit > cost && best.map_or(true, |b| energy[t] < energy[b]) {
                best = Some(t);
            }
        }
        if let Some(t) = best {
            used[st.tier] -= 1;
            used[t] += 1;
            promotions.push(Move { logical: lb, to: t });
        }
    }
    (demotions, promotions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiers() -> Vec<TierUsage> {
        vec![
            TierUsage {
                name: "dram".into(),
                model: DiskModel::dram_tier_32gb(),
                capacity_blocks: 10,
                used_blocks: 0,
            },
            TierUsage {
                name: "hdd".into(),
                model: DiskModel::seagate_7200rpm_500gb(),
                capacity_blocks: 100,
                used_blocks: 0,
            },
        ]
    }

    fn states(hot: &[u64], cold: &[u64]) -> BTreeMap<u64, BlockState> {
        let mut m = BTreeMap::new();
        for &lb in hot {
            m.insert(lb, BlockState::new(1, 8.0));
        }
        for &lb in cold {
            m.insert(lb, BlockState::new(1, 0.0));
        }
        m
    }

    #[test]
    fn noop_never_moves() {
        let plan = PolicyKind::Noop.plan(&states(&[1, 2], &[3]), &tiers());
        assert!(plan.is_empty());
    }

    #[test]
    fn freq_recency_promotes_hot_not_cold() {
        let plan = PolicyKind::FreqRecency.plan(&states(&[10, 11, 12], &[20, 21]), &tiers());
        let promoted: Vec<u64> = plan
            .iter()
            .filter(|m| m.to == 0)
            .map(|m| m.logical)
            .collect();
        assert_eq!(promoted, vec![10, 11, 12]);
        assert!(plan.iter().all(|m| m.to == 0), "no spurious demotions");
    }

    #[test]
    fn freq_recency_respects_headroom() {
        let hot: Vec<u64> = (0..50).collect();
        let plan = PolicyKind::FreqRecency.plan(&states(&hot, &[]), &tiers());
        let promoted = plan.iter().filter(|m| m.to == 0).count();
        assert_eq!(promoted, 9, "headroom 0.9 of 10 blocks");
    }

    #[test]
    fn energy_greedy_pays_only_when_it_pays() {
        let p = PolicyKind::EnergyGreedy;
        // Hot blocks on the HDD: promotion clearly pays.
        let plan = p.plan(&states(&[1, 2], &[3]), &tiers());
        assert!(plan.iter().any(|m| m.to == 0 && m.logical == 1));
        // Barely-warm blocks: migration cost dominates, no moves.
        let mut lukewarm = BTreeMap::new();
        lukewarm.insert(7, BlockState::new(1, 1e-6));
        assert!(p.plan(&lukewarm, &tiers()).is_empty());
    }

    #[test]
    fn plans_are_pure_functions_of_their_inputs() {
        let st = states(&[1, 5, 9], &[2, 6]);
        let t = tiers();
        for policy in PolicyKind::ALL {
            assert_eq!(
                policy.plan(&st, &t),
                policy.plan(&st, &t),
                "{} replanned differently on identical inputs",
                policy.label()
            );
        }
    }

    #[test]
    fn faster_tiers_cost_less_per_access() {
        let dram = touch_energy_j(&DiskModel::dram_tier_32gb(), IoDir::Read);
        let nvme = touch_energy_j(&DiskModel::nvme_ssd_1tb(), IoDir::Read);
        let hdd = touch_energy_j(&DiskModel::seagate_7200rpm_500gb(), IoDir::Read);
        assert!(dram < nvme && nvme < hdd, "{dram} {nvme} {hdd}");
    }
}
