//! End-to-end study pipeline over the synthetic Top 500.
//!
//! Mirrors the paper's §IV workflow: generate the list → apply top500.org
//! missingness → run EasyC (Baseline) → add public info → run EasyC again
//! (+PublicInfo) → interpolate the remainder → aggregate.
//!
//! Both scenario runs go through the unified [`easyc::Assessment`] session;
//! the coverage counts are read off the session footprints directly instead
//! of re-running every estimator a second time.

use crate::aggregate::Aggregate;
use crate::fleet::{scenario_sweep_streamed, scenario_sweep_streamed_to_csv, ScenarioSummary};
use crate::interpolate::{interpolate_with_summary, InterpolationSummary};
use crate::report::SweepCsvWriter;
use easyc::{
    Assessment, CoverageReport, DataScenario, DrawPlan, EasyCConfig, Scenario, ScenarioDelta,
    ScenarioMatrix, SystemFootprint,
};
use top500::enrich::{enrich, RevealRates};
use top500::list::Top500List;
use top500::stream::{Prefetched, SyntheticChunks};
use top500::synthetic::{generate_full, mask_baseline, MaskRates, SyntheticConfig};

/// Pipeline configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct StudyPipeline {
    /// Synthetic list parameters.
    pub synthetic: SyntheticConfig,
}

/// One data scenario's results.
#[derive(Debug, Clone)]
pub struct ScenarioResults {
    /// Per-system footprints (rank order).
    pub footprints: Vec<SystemFootprint>,
    /// Coverage counts.
    pub coverage: CoverageReport,
    /// Operational aggregate over covered systems.
    pub operational: Aggregate,
    /// Embodied aggregate over covered systems.
    pub embodied: Aggregate,
}

/// Everything the study computes.
#[derive(Debug, Clone)]
pub struct PipelineOutput {
    /// Ground-truth list (no missingness).
    pub full: Top500List,
    /// Baseline (top500.org) list.
    pub baseline: Top500List,
    /// Enriched (+public info) list.
    pub enriched: Top500List,
    /// Results under the baseline scenario.
    pub baseline_results: ScenarioResults,
    /// Results under the enriched scenario.
    pub enriched_results: ScenarioResults,
    /// Interpolated full operational series, MT CO2e (rank order).
    pub operational_interpolated: Vec<f64>,
    /// Interpolated full embodied series, MT CO2e.
    pub embodied_interpolated: Vec<f64>,
    /// Operational interpolation summary.
    pub operational_summary: InterpolationSummary,
    /// Embodied interpolation summary.
    pub embodied_summary: InterpolationSummary,
}

impl StudyPipeline {
    /// Pipeline over `n` synthetic systems with the given seed.
    pub fn new(n: u32, seed: u64) -> StudyPipeline {
        StudyPipeline {
            synthetic: SyntheticConfig {
                n,
                seed,
                ..SyntheticConfig::default()
            },
        }
    }

    /// Runs the full study.
    pub fn run(&self) -> PipelineOutput {
        let full = generate_full(&self.synthetic);
        let baseline = mask_baseline(&full, &MaskRates::default(), self.synthetic.seed);
        let enriched = enrich(
            &baseline,
            &full,
            &RevealRates::default(),
            self.synthetic.seed,
        );

        let baseline_results = assess_scenario(&baseline, Scenario::Baseline.label());
        let enriched_results = assess_scenario(&enriched, Scenario::BaselinePlusPublic.label());

        let op_series: Vec<Option<f64>> = enriched_results
            .footprints
            .iter()
            .map(SystemFootprint::operational_mt)
            .collect();
        let emb_series: Vec<Option<f64>> = enriched_results
            .footprints
            .iter()
            .map(SystemFootprint::embodied_mt)
            .collect();
        let (operational_interpolated, operational_summary) =
            interpolate_with_summary(&op_series, 5).expect("some systems covered");
        let (embodied_interpolated, embodied_summary) =
            interpolate_with_summary(&emb_series, 5).expect("some systems covered");

        PipelineOutput {
            full,
            baseline,
            enriched,
            baseline_results,
            enriched_results,
            operational_interpolated,
            embodied_interpolated,
            operational_summary,
            embodied_summary,
        }
    }

    /// Sweeps a scenario matrix over this pipeline's synthetic fleet in
    /// one session *with* Monte-Carlo uncertainty, and pairs every
    /// scenario against the matrix's first scenario via common random
    /// numbers: the summaries plus one CRN-tight [`ScenarioDelta`] per
    /// variant. The between-scenario claims of a study read off these
    /// deltas instead of differenced independent bands.
    pub fn compare_sweep(
        &self,
        matrix: &ScenarioMatrix,
        plan: DrawPlan,
    ) -> (Vec<crate::fleet::ScenarioSummary>, Vec<ScenarioDelta>) {
        let output = Assessment::of(&generate_full(&self.synthetic))
            .scenarios(matrix)
            .draw_plan(plan)
            .run();
        let summaries = crate::fleet::summarize_slices(output.slices());
        let baseline = matrix
            .scenarios()
            .first()
            .map(|s| s.name.clone())
            .unwrap_or_default();
        let deltas = crate::fleet::compare_to_baseline(&output, &baseline);
        (summaries, deltas)
    }

    /// Sweeps a scenario matrix over this pipeline's synthetic fleet
    /// *without materializing it*: the generator streams
    /// `rows_per_chunk` systems at a time through an incremental session
    /// (see `easyc::stream`). For any `n` that fits in memory the result
    /// is bit-identical to summarizing an in-memory
    /// [`Assessment`] over [`generate_full`] — which is what lets the
    /// study's workflow scale to fleets of millions of systems.
    pub fn stream_sweep(
        &self,
        matrix: &ScenarioMatrix,
        rows_per_chunk: usize,
    ) -> Vec<ScenarioSummary> {
        match scenario_sweep_streamed(
            SyntheticChunks::new(self.synthetic, rows_per_chunk),
            matrix,
            EasyCConfig::default(),
        ) {
            Ok(summaries) => summaries,
            Err(never) => match never {},
        }
    }

    /// [`StudyPipeline::stream_sweep`] with the ingest/assess pipeline
    /// fully engaged: the synthetic generator runs on a background
    /// prefetch thread ([`Prefetched`]) while the pool assesses, and every
    /// per-(scenario, system) row is spilled chunk-by-chunk into a
    /// columnar CSV at `target` (byte-identical to the in-memory
    /// `write_csv` artifact). Memory stays bounded by two chunks however
    /// large `n` is.
    pub fn stream_sweep_to_csv(
        &self,
        matrix: &ScenarioMatrix,
        rows_per_chunk: usize,
        target: impl Into<std::path::PathBuf>,
    ) -> std::io::Result<Vec<ScenarioSummary>> {
        let mut writer = SweepCsvWriter::create(target, matrix.len())?;
        let source = Prefetched::new(SyntheticChunks::new(self.synthetic, rows_per_chunk));
        let summaries = match scenario_sweep_streamed_to_csv(
            source,
            matrix,
            EasyCConfig::default(),
            &mut writer,
        ) {
            Ok(summaries) => summaries,
            Err(never) => match never {},
        };
        writer.finish()?;
        Ok(summaries)
    }
}

fn assess_scenario(list: &Top500List, label: &str) -> ScenarioResults {
    let footprints = Assessment::of(list)
        .scenario(DataScenario::full(label))
        .run()
        .into_footprints();
    let op: Vec<Option<f64>> = footprints
        .iter()
        .map(SystemFootprint::operational_mt)
        .collect();
    let emb: Vec<Option<f64>> = footprints
        .iter()
        .map(SystemFootprint::embodied_mt)
        .collect();
    ScenarioResults {
        // Coverage is "the estimator returned Ok" — read it off the batch
        // results instead of running every estimator a second time.
        coverage: CoverageReport::from_footprints(&footprints),
        operational: Aggregate::of(&op),
        embodied: Aggregate::of(&emb),
        footprints,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn output() -> PipelineOutput {
        StudyPipeline::new(500, 0x5EED_CAFE).run()
    }

    #[test]
    fn pipeline_reproduces_paper_shape() {
        let out = output();
        // Coverage ordering: GHG (≈0) < baseline < enriched < full.
        assert!(
            out.baseline_results.coverage.operational < out.enriched_results.coverage.operational
        );
        assert!(out.baseline_results.coverage.embodied < out.enriched_results.coverage.embodied);
        // Interpolated total exceeds the covered total (gaps are filled).
        assert!(out.operational_summary.full_total > out.operational_summary.covered_total);
        assert!(out.embodied_summary.full_total > out.embodied_summary.covered_total);
    }

    #[test]
    fn embodied_interpolation_adds_more_than_operational() {
        // Paper: +1.74 % operational vs +23.18 % embodied — embodied has
        // far more gaps to fill.
        let out = output();
        assert!(
            out.embodied_summary.relative_increase() > out.operational_summary.relative_increase()
        );
    }

    #[test]
    fn totals_in_paper_magnitude() {
        // The synthetic fleet should land within ~3x of the paper's
        // 1.39 M MT operational / 1.88 M MT embodied totals — same order,
        // not a calibration fit.
        let out = output();
        let op = out.operational_summary.full_total;
        let emb = out.embodied_summary.full_total;
        assert!(op > 0.4e6 && op < 4.5e6, "operational total {op}");
        assert!(emb > 0.4e6 && emb < 6.0e6, "embodied total {emb}");
    }

    #[test]
    fn top_systems_dominate() {
        // Figure 3/8 shape: the head of the list carries most of the carbon.
        let out = output();
        let head: f64 = out.operational_interpolated[..50].iter().sum();
        let tail: f64 = out.operational_interpolated[450..].iter().sum();
        assert!(head > tail * 3.0, "head {head} tail {tail}");
    }

    #[test]
    fn deterministic() {
        let a = output();
        let b = output();
        assert_eq!(a.operational_interpolated, b.operational_interpolated);
        assert_eq!(
            a.baseline_results.coverage.operational,
            b.baseline_results.coverage.operational
        );
    }

    #[test]
    fn small_lists_work() {
        let out = StudyPipeline::new(20, 1).run();
        assert_eq!(out.operational_interpolated.len(), 20);
        assert_eq!(out.full.len(), 20);
    }

    #[test]
    fn compare_sweep_deltas_bit_identical_to_streamed_compare() {
        use easyc::{MetricBit, MetricMask};
        let pipeline = StudyPipeline::new(100, 11);
        let matrix =
            ScenarioMatrix::new()
                .with(DataScenario::full("full"))
                .with(DataScenario::masked(
                    "no-power",
                    MetricMask::ALL
                        .without(MetricBit::PowerKw)
                        .without(MetricBit::AnnualEnergy),
                ));
        let plan = DrawPlan::new(80).with_seed(11).with_confidence(0.9);
        let (summaries, deltas) = pipeline.compare_sweep(&matrix, plan);
        assert_eq!(summaries.len(), 2);
        assert_eq!(deltas.len(), 1);
        assert_eq!(deltas[0].baseline, "full");
        assert_eq!(deltas[0].variant, "no-power");
        assert!(deltas[0].operational.is_some());
        // The streamed session folds the exact same paired draws.
        let streamed = Assessment::stream(SyntheticChunks::new(pipeline.synthetic, 17))
            .scenarios(&matrix)
            .draw_plan(plan)
            .run()
            .unwrap_or_else(|never| match never {});
        assert_eq!(streamed.compare("full", "no-power").unwrap(), deltas[0]);
    }

    #[test]
    fn stream_sweep_matches_in_memory_sweep_over_the_same_fleet() {
        use crate::fleet::scenario_sweep;
        use easyc::{MetricBit, MetricMask};
        let pipeline = StudyPipeline::new(120, 11);
        let matrix =
            ScenarioMatrix::new()
                .with(DataScenario::full("full"))
                .with(DataScenario::masked(
                    "no-power",
                    MetricMask::ALL
                        .without(MetricBit::PowerKw)
                        .without(MetricBit::AnnualEnergy),
                ));
        let in_memory = scenario_sweep(
            &generate_full(&pipeline.synthetic),
            &matrix,
            EasyCConfig::default(),
        );
        for rows in [17usize, 120, 4096] {
            assert_eq!(
                pipeline.stream_sweep(&matrix, rows),
                in_memory,
                "rows {rows}"
            );
        }
    }
}
