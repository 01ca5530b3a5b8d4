//! Pluggable block-placement policies for the [`crate::TieredStore`].
//!
//! A policy answers two questions, both as **pure functions** of its inputs:
//! where does a block touching the device for the first time land
//! ([`PlacementPolicy::place_new`]), and which blocks migrate between tiers
//! at an epoch boundary ([`PlacementPolicy::plan`])? Purity is what makes
//! the placement sweeps schedule-independent: the same `(epoch, access
//! stats, tier usage)` always yields the same move list, so journals are
//! byte-identical across `--jobs 1` and `--jobs 8`.
//!
//! Three policies ship, spanning the design space the paper's §V-D
//! reorganization argument opens:
//! - [`NoopPolicy`] — static pinning to the bottom tier; the single-device
//!   baseline that reproduces the Table III sequential-vs-random cliff.
//! - [`FreqRecencyPolicy`] — exponential-decay frequency/recency scoring;
//!   the hottest blocks fill the fastest tiers to a headroom fraction.
//! - [`EnergyGreedyPolicy`] — promotes a block only when the predicted
//!   per-access energy saving beats the migration cost by a hysteresis
//!   factor, using each tier's [`DiskModel`] as the price list.

use std::collections::BTreeMap;

use greenness_platform::disk::{DiskModel, IoDir};
use greenness_platform::AccessPattern;

use crate::block::BLOCK_SIZE;

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
/// keeps exactly one map of these and hands it to [`PlacementPolicy::plan`]
/// as is.
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

/// A block-placement policy. Implementations must be deterministic: no
/// wall-clock, no ambient randomness — the same inputs always produce the
/// same outputs (the policy-oracle suite asserts this directly).
pub trait PlacementPolicy: std::fmt::Debug + Send {
    /// Short stable name used in sweep keys and reports.
    fn label(&self) -> &'static str;

    /// Tier for a logical block touching the device for the first time.
    /// The store falls back to the nearest tier with free space if the
    /// chosen tier is full.
    fn place_new(&self, logical: u64, tiers: &[TierUsage]) -> usize;

    /// The migration plan for an epoch boundary. Demotions should precede
    /// promotions so capacity frees up before it is claimed; the store
    /// skips (never reorders) moves whose destination is full.
    fn plan(
        &self,
        epoch: u64,
        blocks: &BTreeMap<u64, BlockState>,
        tiers: &[TierUsage],
    ) -> Vec<Move>;
}

/// Static pinning: everything lands on the bottom (slowest) tier and never
/// moves. With an HDD bottom tier this is exactly the paper's single-device
/// testbed, which is what makes it the Table III regression baseline.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoopPolicy;

impl PlacementPolicy for NoopPolicy {
    fn label(&self) -> &'static str {
        "noop"
    }

    fn place_new(&self, _logical: u64, tiers: &[TierUsage]) -> usize {
        tiers.len() - 1
    }

    fn plan(
        &self,
        _epoch: u64,
        _blocks: &BTreeMap<u64, BlockState>,
        _tiers: &[TierUsage],
    ) -> Vec<Move> {
        Vec::new()
    }
}

/// Frequency/recency ranking with exponential decay: at every epoch the
/// hottest blocks (by decayed score) fill the fastest tiers up to a
/// `headroom` fraction of each tier's capacity; everything colder spills
/// down. Cold blocks (score below `promote_min_score`) are never promoted,
/// which keeps a one-shot scan from churning the fast tiers.
#[derive(Debug, Clone, Copy)]
pub struct FreqRecencyPolicy {
    /// Fraction of each fast tier's capacity the policy will fill.
    pub headroom: f64,
    /// Minimum decayed score required to move a block *up*.
    pub promote_min_score: f64,
    /// Upper bound on moves per epoch (demotions keep priority).
    pub max_moves: usize,
}

impl Default for FreqRecencyPolicy {
    fn default() -> Self {
        FreqRecencyPolicy {
            headroom: 0.9,
            promote_min_score: 1.0,
            max_moves: 4096,
        }
    }
}

/// Rank blocks hottest-first with a total, deterministic order.
fn ranked_blocks(blocks: &BTreeMap<u64, BlockState>) -> Vec<(u64, BlockState)> {
    let mut v: Vec<(u64, BlockState)> = blocks.iter().map(|(&lb, &st)| (lb, st)).collect();
    v.sort_by(|a, b| b.1.score.total_cmp(&a.1.score).then(a.0.cmp(&b.0)));
    v
}

/// Split `moves` into demotions-then-promotions (each sorted by logical
/// block) and cap the total, dropping promotions first.
fn order_and_cap(
    mut demotions: Vec<Move>,
    mut promotions: Vec<Move>,
    max_moves: usize,
) -> Vec<Move> {
    demotions.sort_by_key(|m| m.logical);
    promotions.sort_by_key(|m| m.logical);
    let mut moves = demotions;
    moves.extend(promotions);
    moves.truncate(max_moves);
    moves
}

impl PlacementPolicy for FreqRecencyPolicy {
    fn label(&self) -> &'static str {
        "freq-recency"
    }

    fn place_new(&self, _logical: u64, tiers: &[TierUsage]) -> usize {
        // New blocks are writes of unknown future temperature: land on the
        // bottom tier and earn promotion through the score.
        tiers.len() - 1
    }

    fn plan(
        &self,
        _epoch: u64,
        blocks: &BTreeMap<u64, BlockState>,
        tiers: &[TierUsage],
    ) -> Vec<Move> {
        let last = tiers.len() - 1;
        if last == 0 {
            return Vec::new();
        }
        let mut room: Vec<i64> = tiers
            .iter()
            .enumerate()
            .map(|(i, t)| {
                if i == last {
                    i64::MAX
                } else {
                    (t.capacity_blocks as f64 * self.headroom) as i64
                }
            })
            .collect();
        let mut demotions = Vec::new();
        let mut promotions = Vec::new();
        for (lb, st) in ranked_blocks(blocks) {
            let mut target = 0;
            while target < last && room[target] <= 0 {
                target += 1;
            }
            if target < st.tier && st.score < self.promote_min_score {
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
        order_and_cap(demotions, promotions, self.max_moves)
    }
}

/// Energy-greedy placement: promote a block only when the predicted
/// per-access energy saving over the next epoch (`score × Δenergy`) exceeds
/// the migration cost by `hysteresis`. Per-access and migration energies
/// come straight from each tier's [`DiskModel`] priced at one 4 KiB random
/// touch, so a slow-but-frugal tier can win over a fast-but-hungry one.
#[derive(Debug, Clone, Copy)]
pub struct EnergyGreedyPolicy {
    /// Fraction of each fast tier's capacity the policy will fill.
    pub headroom: f64,
    /// Required benefit-to-cost ratio before a promotion is worth it.
    pub hysteresis: f64,
    /// Upper bound on moves per epoch (demotions keep priority).
    pub max_moves: usize,
}

impl Default for EnergyGreedyPolicy {
    fn default() -> Self {
        EnergyGreedyPolicy {
            headroom: 0.9,
            hysteresis: 2.0,
            max_moves: 4096,
        }
    }
}

/// Energy of one 4 KiB random access on `model`, including the tier's own
/// idle draw for the op's duration, joules.
fn access_energy_j(model: &DiskModel) -> f64 {
    let c = model.transfer(
        BLOCK_SIZE,
        IoDir::Read,
        AccessPattern::Random {
            op_bytes: BLOCK_SIZE,
            queue_depth: 1,
        },
    );
    c.seconds * (model.idle_w + c.dyn_w)
}

/// Energy of migrating one block `from` → `to` (read + write), joules.
fn migration_energy_j(from: &DiskModel, to: &DiskModel) -> f64 {
    let r = from.transfer(
        BLOCK_SIZE,
        IoDir::Read,
        AccessPattern::Random {
            op_bytes: BLOCK_SIZE,
            queue_depth: 1,
        },
    );
    let w = to.transfer(
        BLOCK_SIZE,
        IoDir::Write,
        AccessPattern::Random {
            op_bytes: BLOCK_SIZE,
            queue_depth: 1,
        },
    );
    r.seconds * (from.idle_w + r.dyn_w) + w.seconds * (to.idle_w + w.dyn_w)
}

impl PlacementPolicy for EnergyGreedyPolicy {
    fn label(&self) -> &'static str {
        "energy-greedy"
    }

    fn place_new(&self, _logical: u64, tiers: &[TierUsage]) -> usize {
        tiers.len() - 1
    }

    fn plan(
        &self,
        _epoch: u64,
        blocks: &BTreeMap<u64, BlockState>,
        tiers: &[TierUsage],
    ) -> Vec<Move> {
        let last = tiers.len() - 1;
        if last == 0 {
            return Vec::new();
        }
        let energy: Vec<f64> = tiers.iter().map(|t| access_energy_j(&t.model)).collect();
        // Occupancy per tier from the block map (the authoritative view).
        let mut used = vec![0i64; tiers.len()];
        for st in blocks.values() {
            used[st.tier] += 1;
        }
        let cap: Vec<i64> = tiers
            .iter()
            .enumerate()
            .map(|(i, t)| {
                if i == last {
                    i64::MAX
                } else {
                    (t.capacity_blocks as f64 * self.headroom) as i64
                }
            })
            .collect();
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
                let cost =
                    migration_energy_j(&tiers[st.tier].model, &tiers[t].model) * self.hysteresis;
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
        order_and_cap(demotions, promotions, self.max_moves)
    }
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
        let p = NoopPolicy;
        assert_eq!(p.place_new(3, &tiers()), 1);
        assert!(p.plan(5, &states(&[1, 2], &[3]), &tiers()).is_empty());
    }

    #[test]
    fn freq_recency_promotes_hot_not_cold() {
        let p = FreqRecencyPolicy::default();
        let plan = p.plan(1, &states(&[10, 11, 12], &[20, 21]), &tiers());
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
        let p = FreqRecencyPolicy::default();
        let hot: Vec<u64> = (0..50).collect();
        let plan = p.plan(1, &states(&hot, &[]), &tiers());
        let promoted = plan.iter().filter(|m| m.to == 0).count();
        assert_eq!(promoted, 9, "headroom 0.9 of 10 blocks");
    }

    #[test]
    fn energy_greedy_pays_only_when_it_pays() {
        let p = EnergyGreedyPolicy::default();
        // Hot blocks on the HDD: promotion clearly pays.
        let plan = p.plan(1, &states(&[1, 2], &[3]), &tiers());
        assert!(plan.iter().any(|m| m.to == 0 && m.logical == 1));
        // Barely-warm blocks: migration cost dominates, no moves.
        let mut lukewarm = BTreeMap::new();
        lukewarm.insert(7, BlockState::new(1, 1e-6));
        assert!(p.plan(1, &lukewarm, &tiers()).is_empty());
    }

    #[test]
    fn plans_are_pure_functions_of_their_inputs() {
        let st = states(&[1, 5, 9], &[2, 6]);
        let t = tiers();
        for policy in [
            Box::new(FreqRecencyPolicy::default()) as Box<dyn PlacementPolicy>,
            Box::new(EnergyGreedyPolicy::default()),
            Box::new(NoopPolicy),
        ] {
            assert_eq!(
                policy.plan(3, &st, &t),
                policy.plan(3, &st, &t),
                "{} replanned differently on identical inputs",
                policy.label()
            );
        }
    }

    #[test]
    fn faster_tiers_cost_less_per_access() {
        let dram = access_energy_j(&DiskModel::dram_tier_32gb());
        let nvme = access_energy_j(&DiskModel::nvme_ssd_1tb());
        let hdd = access_energy_j(&DiskModel::seagate_7200rpm_500gb());
        assert!(dram < nvme && nvme < hdd, "{dram} {nvme} {hdd}");
    }
}
