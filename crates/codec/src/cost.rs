//! CPU cost of (de)compression, charged to the platform.
//!
//! Compression is the canonical dynamic-vs-static trade: it spends core
//! cycles (dynamic energy) to shrink I/O (mostly static time). The constants
//! put software compression around 400 MB/s/core for encode and 800 MB/s
//! for decode at the Table I node's clock — in the range of fast lossless
//! codecs on 2012-era hardware.

use greenness_platform::Activity;

/// Calibrated conversion from bytes (de)coded to compute activities.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CodecCostModel {
    /// Flops-equivalent charged per input byte encoded.
    pub encode_flops_per_byte: f64,
    /// Flops-equivalent charged per output byte decoded.
    pub decode_flops_per_byte: f64,
    /// Cores the codec uses (chunked compression parallelizes; 1 = serial).
    pub cores: u32,
    /// Arithmetic intensity of codec work (branchy, table-driven: low).
    pub intensity: f64,
}

impl Default for CodecCostModel {
    fn default() -> Self {
        CodecCostModel {
            encode_flops_per_byte: 12.0,
            decode_flops_per_byte: 6.0,
            cores: 1,
            intensity: 0.6,
        }
    }
}

impl CodecCostModel {
    /// The compute activity for encoding `bytes` of input.
    pub fn encode_activity(&self, bytes: u64) -> Activity {
        Activity::Compute {
            flops: bytes as f64 * self.encode_flops_per_byte,
            cores: self.cores,
            intensity: self.intensity,
            dram_bytes: bytes * 2,
        }
    }

    /// The compute activity for decoding to `bytes` of output.
    pub fn decode_activity(&self, bytes: u64) -> Activity {
        Activity::Compute {
            flops: bytes as f64 * self.decode_flops_per_byte,
            cores: self.cores,
            intensity: self.intensity,
            dram_bytes: bytes * 2,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use greenness_platform::{HardwareSpec, Node};

    #[test]
    fn encode_rate_is_in_the_software_codec_range() {
        let cost = CodecCostModel::default();
        let node = Node::new(HardwareSpec::table1());
        let (secs, _) = node.cost_of(cost.encode_activity(100 * 1024 * 1024));
        let rate = 100.0 * 1024.0 * 1024.0 / secs / 1e6; // MB/s
        assert!((100.0..2000.0).contains(&rate), "encode at {rate} MB/s");
    }

    #[test]
    fn decode_is_faster_than_encode() {
        let cost = CodecCostModel::default();
        let node = Node::new(HardwareSpec::table1());
        let (enc, _) = node.cost_of(cost.encode_activity(1_000_000));
        let (dec, _) = node.cost_of(cost.decode_activity(1_000_000));
        assert!(dec < enc);
    }

    #[test]
    fn compression_time_is_far_cheaper_than_the_io_it_saves() {
        // The premise of the compressed-pipeline variant: encoding 2 MiB
        // costs milliseconds; writing 2 MiB in fsync'd chunks costs ~1.4 s.
        let cost = CodecCostModel::default();
        let node = Node::new(HardwareSpec::table1());
        let (secs, _) = node.cost_of(cost.encode_activity(2 * 1024 * 1024));
        assert!(secs < 0.1, "encode took {secs}s");
    }
}
