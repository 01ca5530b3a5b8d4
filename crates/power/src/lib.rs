//! # greenness-power
//!
//! Simulated power instrumentation, mirroring the measurement setup of the
//! paper's §IV-B (Figure 3):
//!
//! * a **Wattsup Pro** wall meter ([`wattsup`]) sampling full-system power at
//!   1 Hz with integer-watt resolution and meter-accuracy noise, monitored
//!   out-of-band so it adds no load to the node;
//! * the **Intel RAPL** interface ([`rapl`]), emulated at the MSR level —
//!   energy-unit register, 32-bit wrapping energy-status counters for the
//!   PKG / PP0 / DRAM domains — polled *on* the node at a configurable rate,
//!   adding the +0.2 W overhead the paper measured for 1 Hz polling;
//! * **power profiles** ([`profile`]) combining the two instruments, with the
//!   "rest of system" channel estimated as `system − package − dram`, exactly
//!   the paper's subtraction;
//! * **green metrics** ([`metrics`]): execution time, average power, peak
//!   power, energy, and (normalized) energy efficiency — the quantities of
//!   Figures 7–11;
//! * the **static/dynamic energy-savings decomposition** ([`breakdown`]) of
//!   §V-C.

pub mod breakdown;
pub mod metrics;
pub mod profile;
pub mod rapl;
pub mod wattsup;

pub use breakdown::{probe_dynamic_power_w, SavingsBreakdown};
pub use metrics::GreenMetrics;
pub use profile::{PowerProfile, ProfileSample};
pub use rapl::{RaplDomain, RaplMsr, RaplReader};
pub use wattsup::WattsupMeter;
