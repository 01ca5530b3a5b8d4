//! Network interface model (multi-node / in-transit extension).
//!
//! The paper's future-work list includes studying network I/O on multi-node
//! systems; the `greenness-core` crate uses this model for its in-transit
//! pipeline extension, where raw data is shipped to a staging node instead of
//! the local disk.

/// Timing and power model for the node's NIC.
#[derive(Debug, Clone, PartialEq)]
pub struct NetModel {
    /// Effective bandwidth, bytes/s.
    pub bandwidth_bytes_per_s: f64,
    /// Extra NIC power while transferring, watts (idle NIC power is folded
    /// into the board constant).
    pub active_w: f64,
    /// Per-message latency, seconds.
    pub latency_s: f64,
}

impl NetModel {
    /// A 10 GbE NIC at ≈80% efficiency.
    pub fn ten_gbe() -> Self {
        NetModel {
            bandwidth_bytes_per_s: 1.0e9,
            active_w: 2.5,
            latency_s: 50.0e-6,
        }
    }

    /// Seconds to send `bytes` as `messages` messages.
    pub fn transfer_seconds(&self, bytes: u64, messages: u32) -> f64 {
        messages as f64 * self.latency_s + bytes as f64 / self.bandwidth_bytes_per_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::units::GIB;

    #[test]
    fn bandwidth_dominates_large_transfers() {
        let net = NetModel::ten_gbe();
        let t = net.transfer_seconds(GIB, 1);
        assert!((t - (GIB as f64 / 1.0e9 + 50.0e-6)).abs() < 1e-9);
    }

    #[test]
    fn latency_dominates_many_small_messages() {
        let net = NetModel::ten_gbe();
        let t = net.transfer_seconds(1024, 10_000);
        assert!(t > 0.5);
    }
}
