//! `greenness-serve` — a query service over the energy lab.
//!
//! The repo's analyses (`run`, `compare`, `whatif`, `advisor`, `sweep`) are
//! deterministic pure functions of their request, which makes them ideal
//! candidates for **content-addressed serving**: hash the canonicalized
//! request, cache the serialized result, and answer repeats without
//! recomputing. This crate provides the whole stack:
//!
//! * [`json`] — the nested JSON tree and the canonical serialization used
//!   as the content-addressing pre-image (sorted keys, normalized numbers),
//!   re-exported from `greenness_trace::json`, the workspace's one lexer;
//! * [`cache`] — a byte-budgeted strict-LRU result cache with hit / miss /
//!   eviction / rejection counters;
//! * [`protocol`] — the `greenness-serve/v1` newline-delimited JSON wire
//!   format and its structured error codes;
//! * [`admission`] — bounded-queue admission control with per-request
//!   deadlines and load shedding;
//! * [`service`] — the request handlers, wired cache → gate → analysis;
//! * [`server`] / [`client`] — the TCP front end and a blocking client;
//! * [`harness`] — the `bench-serve` replay: single-threaded, with a
//!   response log and metrics snapshot byte-identical across runs and
//!   `--jobs` values.
//!
//! Content addresses are BLAKE2s-256 from `greenness_trace::hash`.
//!
//! The cache is the serving-layer analogue of the paper's static-energy
//! observation: most of a query's cost is work that does not need to be
//! redone, so the marginal energy of a warm query is near zero. See
//! EXPERIMENTS.md ("Serving and the static-energy argument").

pub mod admission;
pub mod cache;
pub mod client;
pub mod harness;
pub mod json;
pub mod protocol;
pub mod server;
pub mod service;

pub use cache::ResultCache;
pub use client::{query, Client};
pub use harness::{replay_workload, run_replay, ReplayOutput};
pub use protocol::{ErrorCode, SCHEMA};
pub use server::{LineHandler, Next, Server};
pub use service::{Disposition, Outcome, Service, ServiceConfig};
