//! `greenness-fleet` — the query service at fleet scale.
//!
//! `greenness-serve` answers one process's worth of traffic; this crate
//! asks the question the paper's static-energy finding (~91% of total)
//! turns into at serving scale: **how few warm shards can hold the SLO
//! before idle watts swamp the work?** The pieces:
//!
//! * [`ring`] — a seeded consistent-hash ring with virtual nodes; placement
//!   is a pure function of `(seed, shard)`, so churn moves provably minimal
//!   key ranges and a rejoining shard reclaims exactly its old arcs;
//! * [`zipf`] — stateless seeded Zipfian popularity for the workload;
//! * [`fleet`] — N in-process serve shards behind a deterministic router:
//!   hot-key k-way replication, reroute-on-drop (never toward the client),
//!   and churn-driven rebalancing from `crates/faults`;
//! * [`harness`] — the open-loop virtual-time replay: millions of scheduled
//!   requests, coordinated-omission-free p50/p99/p999 per shard and
//!   fleet-wide, and the energy-per-million-requests ledger.
//!
//! A [`Fleet`] is a `greenness_serve::LineHandler`, so the TCP router
//! (`greenness fleet`) is `Server::start_with_service(addr, fleet)`: serve's
//! one accept/connection loop with every line answered by
//! [`Fleet::handle_line`].
//!
//! Determinism contract: the replay response log and the router's `fleet.*`
//! metrics are byte-identical across runs and `--jobs` values always, and
//! across shard counts in the fault-free, eviction-free regime the CI
//! artifacts pin. See EXPERIMENTS.md ("Fleet sizing and the static-energy
//! argument").

pub mod fleet;
pub mod harness;
pub mod ring;
pub mod zipf;

pub use fleet::{ChurnEvent, Fleet, FleetConfig, FleetOutcome};
pub use harness::{
    fleet_workload, run_fleet_replay, FleetReplayOutput, DEFAULT_RATE_RPS, DEFAULT_UNIVERSE,
    DEFAULT_ZIPF_S,
};
pub use ring::{Ring, DEFAULT_VNODES};
pub use zipf::Zipf;
