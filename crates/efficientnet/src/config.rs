//! EfficientNet compound scaling configuration (Tan & Le 2019).
//!
//! A variant is `(width multiplier, depth multiplier, resolution, dropout)`;
//! filters scale by width (rounded to multiples of 8, never below 90% of
//! the unrounded value), repeats scale by depth (ceil). The seven-stage
//! MBConv layout is shared by every variant.

/// One stage of MBConv blocks (before depth scaling).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockArgs {
    pub kernel: usize,
    pub repeats: usize,
    pub in_filters: usize,
    pub out_filters: usize,
    pub expand_ratio: usize,
    pub stride: usize,
    /// SE bottleneck = `se_ratio · in_filters` (0.25 for all EfficientNets).
    pub se_ratio: f32,
}

/// The EfficientNet-B0 backbone stages.
pub const B0_BLOCKS: [BlockArgs; 7] = [
    BlockArgs {
        kernel: 3,
        repeats: 1,
        in_filters: 32,
        out_filters: 16,
        expand_ratio: 1,
        stride: 1,
        se_ratio: 0.25,
    },
    BlockArgs {
        kernel: 3,
        repeats: 2,
        in_filters: 16,
        out_filters: 24,
        expand_ratio: 6,
        stride: 2,
        se_ratio: 0.25,
    },
    BlockArgs {
        kernel: 5,
        repeats: 2,
        in_filters: 24,
        out_filters: 40,
        expand_ratio: 6,
        stride: 2,
        se_ratio: 0.25,
    },
    BlockArgs {
        kernel: 3,
        repeats: 3,
        in_filters: 40,
        out_filters: 80,
        expand_ratio: 6,
        stride: 2,
        se_ratio: 0.25,
    },
    BlockArgs {
        kernel: 5,
        repeats: 3,
        in_filters: 80,
        out_filters: 112,
        expand_ratio: 6,
        stride: 1,
        se_ratio: 0.25,
    },
    BlockArgs {
        kernel: 5,
        repeats: 4,
        in_filters: 112,
        out_filters: 192,
        expand_ratio: 6,
        stride: 2,
        se_ratio: 0.25,
    },
    BlockArgs {
        kernel: 3,
        repeats: 1,
        in_filters: 192,
        out_filters: 320,
        expand_ratio: 6,
        stride: 1,
        se_ratio: 0.25,
    },
];

/// Stem filters before width scaling.
pub const STEM_FILTERS: usize = 32;
/// Head filters before width scaling.
pub const HEAD_FILTERS: usize = 1280;
/// Filter rounding divisor.
pub const DEPTH_DIVISOR: usize = 8;

/// A named variant of the family.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Variant {
    B0,
    B1,
    B2,
    B3,
    B4,
    B5,
    B6,
    B7,
}

impl Variant {
    /// `(width, depth, resolution, dropout)` per Tan & Le Table 8.
    pub fn coefficients(self) -> (f32, f32, usize, f32) {
        match self {
            Variant::B0 => (1.0, 1.0, 224, 0.2),
            Variant::B1 => (1.0, 1.1, 240, 0.2),
            Variant::B2 => (1.1, 1.2, 260, 0.3),
            Variant::B3 => (1.2, 1.4, 300, 0.3),
            Variant::B4 => (1.4, 1.8, 380, 0.4),
            Variant::B5 => (1.6, 2.2, 456, 0.4),
            Variant::B6 => (1.8, 2.6, 528, 0.5),
            Variant::B7 => (2.0, 3.1, 600, 0.5),
        }
    }

    /// Display name ("EfficientNet-B2").
    pub fn name(self) -> &'static str {
        match self {
            Variant::B0 => "EfficientNet-B0",
            Variant::B1 => "EfficientNet-B1",
            Variant::B2 => "EfficientNet-B2",
            Variant::B3 => "EfficientNet-B3",
            Variant::B4 => "EfficientNet-B4",
            Variant::B5 => "EfficientNet-B5",
            Variant::B6 => "EfficientNet-B6",
            Variant::B7 => "EfficientNet-B7",
        }
    }
}

/// A fully-resolved model configuration.
#[derive(Clone, Debug)]
pub struct ModelConfig {
    pub width_mult: f32,
    pub depth_mult: f32,
    pub resolution: usize,
    pub dropout: f32,
    /// Stochastic-depth (drop-connect) rate at the deepest block; shallower
    /// blocks scale linearly. 0.2 in the reference implementation.
    pub drop_connect: f32,
    pub num_classes: usize,
    pub blocks: Vec<BlockArgs>,
}

impl ModelConfig {
    /// The published variant at its native resolution with 1000 classes.
    pub fn variant(v: Variant) -> Self {
        let (w, d, r, dropout) = v.coefficients();
        ModelConfig {
            width_mult: w,
            depth_mult: d,
            resolution: r,
            dropout,
            drop_connect: 0.2,
            num_classes: 1000,
            blocks: B0_BLOCKS.to_vec(),
        }
    }

    /// A reduced configuration that trains in seconds on CPU: scaled-down
    /// width/depth, small resolution, few classes. Architecture (MBConv,
    /// SE, swish, BN placement) is identical to the full model.
    pub fn tiny(resolution: usize, num_classes: usize) -> Self {
        ModelConfig {
            width_mult: 0.25,
            depth_mult: 0.35,
            resolution,
            dropout: 0.1,
            drop_connect: 0.1,
            num_classes,
            blocks: B0_BLOCKS.to_vec(),
        }
    }

    /// Width-scaled, divisor-rounded filter count.
    pub fn round_filters(&self, filters: usize) -> usize {
        round_filters(filters, self.width_mult)
    }

    /// Depth-scaled repeat count.
    pub fn round_repeats(&self, repeats: usize) -> usize {
        round_repeats(repeats, self.depth_mult)
    }

    /// Stem output channels.
    pub fn stem_filters(&self) -> usize {
        self.round_filters(STEM_FILTERS)
    }

    /// Head conv output channels.
    pub fn head_filters(&self) -> usize {
        self.round_filters(HEAD_FILTERS)
    }

    /// Total MBConv block count after depth scaling.
    pub fn total_blocks(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| self.round_repeats(b.repeats))
            .sum()
    }
}

/// TF's `round_filters`: scale, round to the divisor, clamp at 90%.
pub fn round_filters(filters: usize, width_mult: f32) -> usize {
    if (width_mult - 1.0).abs() < 1e-9 {
        return filters;
    }
    let scaled = filters as f32 * width_mult;
    let mut new =
        ((scaled + DEPTH_DIVISOR as f32 / 2.0) / DEPTH_DIVISOR as f32) as usize * DEPTH_DIVISOR;
    new = new.max(DEPTH_DIVISOR);
    if (new as f32) < 0.9 * scaled {
        new += DEPTH_DIVISOR;
    }
    new
}

/// TF's `round_repeats`: ceil of the scaled repeat count.
pub fn round_repeats(repeats: usize, depth_mult: f32) -> usize {
    (repeats as f32 * depth_mult).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn b0_filters_unchanged() {
        let cfg = ModelConfig::variant(Variant::B0);
        assert_eq!(cfg.stem_filters(), 32);
        assert_eq!(cfg.head_filters(), 1280);
        assert_eq!(cfg.round_filters(320), 320);
        assert_eq!(cfg.total_blocks(), 16);
    }

    #[test]
    fn b2_scaling_matches_reference() {
        // Known values from the reference implementation at width 1.1.
        assert_eq!(round_filters(32, 1.1), 32);
        assert_eq!(round_filters(16, 1.1), 16);
        assert_eq!(round_filters(24, 1.1), 24);
        assert_eq!(round_filters(40, 1.1), 48);
        assert_eq!(round_filters(80, 1.1), 88);
        assert_eq!(round_filters(112, 1.1), 120);
        assert_eq!(round_filters(192, 1.1), 208);
        assert_eq!(round_filters(320, 1.1), 352);
        assert_eq!(round_filters(1280, 1.1), 1408);
        // Depth 1.2: repeats [1,2,2,3,3,4,1] → [2,3,3,4,4,5,2] = 23 blocks.
        let cfg = ModelConfig::variant(Variant::B2);
        assert_eq!(cfg.total_blocks(), 23);
    }

    #[test]
    fn b5_scaling_matches_reference() {
        // Width 1.6.
        assert_eq!(round_filters(32, 1.6), 48);
        assert_eq!(round_filters(16, 1.6), 24);
        assert_eq!(round_filters(24, 1.6), 40);
        assert_eq!(round_filters(40, 1.6), 64);
        assert_eq!(round_filters(80, 1.6), 128);
        assert_eq!(round_filters(112, 1.6), 176);
        assert_eq!(round_filters(192, 1.6), 304);
        assert_eq!(round_filters(320, 1.6), 512);
        assert_eq!(round_filters(1280, 1.6), 2048);
        // Depth 2.2 → [3,5,5,7,7,9,3] = 39 blocks.
        let cfg = ModelConfig::variant(Variant::B5);
        assert_eq!(cfg.total_blocks(), 39);
        assert_eq!(cfg.resolution, 456);
    }

    #[test]
    fn ninety_percent_clamp() {
        // A case where naive rounding drops below 90% of the scaled value:
        // filters=88 (not typical, synthetic): 88·1.1=96.8 → rounds to 96,
        // 96 ≥ 87.1 so no bump. Construct one that does bump:
        // filters=10, width=1.25 → 12.5 → rounds to 8+... (12.5+4)/8=2 → 16.
        assert_eq!(round_filters(10, 1.25), 16);
        // And the minimum clamp.
        assert_eq!(round_filters(2, 1.0001), 8);
    }

    #[test]
    fn repeats_use_ceil() {
        assert_eq!(round_repeats(1, 1.2), 2);
        assert_eq!(round_repeats(4, 2.2), 9);
        assert_eq!(round_repeats(3, 1.0), 3);
    }

    #[test]
    fn variant_names() {
        assert_eq!(Variant::B5.name(), "EfficientNet-B5");
    }
}
