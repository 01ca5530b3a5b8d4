//! # greenness-platform
//!
//! Node-level hardware and energy models for studying the *greenness* (power,
//! energy, energy efficiency) of simulation + visualization pipelines.
//!
//! This crate is the bottom substrate of the `greenness` workspace. It models a
//! single HPC node — the dual-socket Intel Sandy Bridge machine of Table I of
//! the paper — as a set of subsystems (CPU package, DRAM, disk, NIC,
//! rest-of-system), each with a calibrated power model, driven by a
//! deterministic virtual clock.
//!
//! The central abstraction is the [`Node`]: application-level code (the heat
//! solver, the storage stack, the renderer) describes the work it actually
//! performed as an [`Activity`] (flops computed, bytes transferred, pixels
//! shaded, …); the node converts that work into virtual time via the device
//! timing models and appends a piecewise-constant power segment to its
//! [`Timeline`]. Power instrumentation (the `greenness-power` crate) then
//! samples and integrates the timeline exactly as an external wall meter or
//! the RAPL interface would.
//!
//! Everything is deterministic: the clock is integer nanoseconds, model
//! arithmetic is pure, and no wall-clock time or OS randomness is consulted.
//!
//! ```
//! use greenness_platform::{Node, HardwareSpec, Activity, Phase};
//!
//! let mut node = Node::new(HardwareSpec::table1());
//! // One second of full-tilt compute on all 16 cores.
//! let flops = 1.0 / node.spec().cpu.compute_seconds(1.0, 16);
//! node.execute(Activity::compute(flops, 16), Phase::Simulation);
//! let e = node.timeline().total_energy_j();
//! assert!(e > 100.0); // more than 100 W for one second
//! ```

pub mod activity;
pub mod cpu;
pub mod disk;
pub mod dram;
pub mod net;
pub mod node;
pub mod phase;
pub mod power;
pub mod spec;
pub mod time;
pub mod timeline;
pub mod units;

pub use activity::{AccessPattern, Activity};
pub use cpu::CpuModel;
pub use disk::{DiskKind, DiskModel};
pub use dram::DramModel;
pub use net::NetModel;
pub use node::{Executed, Node};
pub use phase::Phase;
pub use power::PowerDraw;
pub use spec::HardwareSpec;
pub use time::{SimDuration, SimTime};
pub use timeline::{Segment, Timeline};
