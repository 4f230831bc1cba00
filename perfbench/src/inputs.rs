//! Seeded workload inputs, generated before any timed region.

use easyc::ScenarioMatrix;
use parallel::rng::SplitMix64;
use top500::synthetic::{generate_full, mask_baseline, MaskRates, SyntheticConfig};

/// A synthetic fleet as the CSV text the CLI reads: the complete list for
/// `seed`, then the paper's top500.org hide rates applied, so the
/// estimators take their fallback paths as often as on the real list.
pub(crate) fn fleet_csv(n: u32, seed: u64) -> String {
    let full = generate_full(&SyntheticConfig {
        n,
        seed: seed ^ 0x5EED_CAFE,
        ..Default::default()
    });
    top500::io::export_csv(&mask_baseline(&full, &MaskRates::default(), seed))
}

/// The five-scenario `sweep-template` matrix.
pub(crate) fn template_matrix() -> ScenarioMatrix {
    ScenarioMatrix::from_csv(&ScenarioMatrix::csv_template()).expect("template parses")
}

/// The workload's schedule generator, independent of the fleet stream.
pub(crate) fn rng(seed: u64, salt: u64) -> SplitMix64 {
    SplitMix64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt)
}

/// Picks an index by integer weights.
pub(crate) fn pick(rng: &mut SplitMix64, weights: &[usize]) -> usize {
    let total: usize = weights.iter().sum();
    let mut x = rng.next_bounded(total);
    for (i, &w) in weights.iter().enumerate() {
        if x < w {
            return i;
        }
        x -= w;
    }
    weights.len() - 1
}
