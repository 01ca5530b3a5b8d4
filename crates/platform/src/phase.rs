//! Pipeline phase labels attached to every power-timeline segment.
//!
//! The paper's analysis is phase-structured: Figure 4 reports the share of
//! execution time per stage, Figure 5 shows the distinct power phases of the
//! post-processing pipeline, and the Section V-C breakdown attributes energy
//! to stages. Tagging each segment at the platform layer lets all of those be
//! derived from a single timeline.

use std::fmt;

/// The stage of the visualization pipeline a power segment belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    /// Heat-transfer simulation timesteps.
    Simulation,
    /// Writing raw simulation snapshots to disk (post-processing phase 1).
    Write,
    /// Reading raw snapshots back from disk (post-processing phase 2).
    Read,
    /// Rendering a snapshot into an image.
    Visualization,
    /// Writing rendered images to disk (the in-situ pipeline's only output).
    ImageWrite,
    /// `sync` + `drop_caches` housekeeping between stages (paper §IV-C).
    CacheControl,
    /// The node is idle.
    Idle,
    /// Standalone I/O probes and benchmarks (nnread/nnwrite, fio).
    IoBench,
    /// Network transfer (in-transit extension).
    Network,
    /// Anything else.
    Other,
}

impl Phase {
    /// All phases, in display order.
    pub const ALL: [Phase; 10] = [
        Phase::Simulation,
        Phase::Write,
        Phase::Read,
        Phase::Visualization,
        Phase::ImageWrite,
        Phase::CacheControl,
        Phase::Idle,
        Phase::IoBench,
        Phase::Network,
        Phase::Other,
    ];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Simulation => "simulation",
            Phase::Write => "write",
            Phase::Read => "read",
            Phase::Visualization => "visualization",
            Phase::ImageWrite => "image-write",
            Phase::CacheControl => "cache-control",
            Phase::Idle => "idle",
            Phase::IoBench => "io-bench",
            Phase::Network => "network",
            Phase::Other => "other",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_unique() {
        let labels: Vec<_> = Phase::ALL.iter().map(|p| p.label()).collect();
        let mut dedup = labels.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(labels.len(), dedup.len());
    }

    #[test]
    fn display_matches_label() {
        assert_eq!(Phase::Simulation.to_string(), "simulation");
        assert_eq!(Phase::ImageWrite.to_string(), "image-write");
    }
}
