//! TPU-v3 hardware constants.

/// Specification of one TPU-v3 core (half a chip).
#[derive(Clone, Copy, Debug)]
pub struct CoreSpec {
    /// Peak bf16 FLOP/s of the core's MXUs.
    pub peak_flops: f64,
    /// HBM bandwidth available to the core, bytes/s.
    pub hbm_bandwidth: f64,
    /// HBM capacity available to the core, bytes.
    pub hbm_capacity: f64,
}

/// TPU-v3: 123 TFLOP/s bf16 and 32 GiB HBM @ ~900 GB/s per chip, two cores
/// per chip.
pub const TPU_V3_CORE: CoreSpec = CoreSpec {
    peak_flops: 61.5e12,
    hbm_bandwidth: 450.0e9,
    hbm_capacity: 16.0 * 1024.0 * 1024.0 * 1024.0,
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chip_is_two_cores() {
        // Chip-level numbers published by Google: 123 TFLOP/s, 32 GiB.
        assert!((2.0 * TPU_V3_CORE.peak_flops - 123.0e12).abs() < 1e9);
        assert!((2.0 * TPU_V3_CORE.hbm_capacity - 32.0 * (1u64 << 30) as f64).abs() < 1.0);
    }
}
