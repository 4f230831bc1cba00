//! The assessment session — one builder and one output for every way of
//! running EasyC.
//!
//! The model used to be reachable through four separate doors: `EasyC`
//! (per-system and per-list), `BatchEngine` (scenario matrices),
//! `uncertainty::scenario_intervals` (Monte-Carlo bands) and
//! `analysis::sensitivity` (scenario deltas), each wiring the stages by
//! hand. A [`Session`] plans the whole job once instead:
//!
//! ```text
//! Assessment::of(&list)            borrow the fleet
//!     .scenarios(&matrix)          what-if matrix (default: one scenario)
//!     .workers(8)                  pool size
//!     .uncertainty(1000)           optional Monte-Carlo draws
//!     .run()                       plan + execute
//! ```
//!
//! The builder is generic over where the fleet comes from, and each source
//! has a name: [`Assessment`] borrows a list, [`StreamingAssessment`] pulls
//! chunks from a [`FleetChunks`] source (see [`crate::stream`]), and
//! [`QueryPlan`] borrows a resident [`FleetState`]. They share every
//! setter below and run the same crate-internal chunk engine: the
//! in-memory session is one chunk at row 0 whose footprints are kept, so
//! its results are bit-identical to the serial per-system path at any
//! worker count *and any chunk granularity*, and to a stream over the
//! same systems.
//!
//! With `uncertainty(draws)`, the engine's draw phase runs blocked
//! (sample-chunk × scenario) items driven by one [`DrawPlan`]: RNG streams
//! are keyed by (system, draw index) — never by scenario — so every
//! scenario replays identical per-system perturbations (common random
//! numbers). The output carries fleet-total *operational* **and**
//! *embodied* [`Interval`]s per scenario plus the retained per-scenario
//! draw vectors, which [`SessionOutput::compare`] pairs into tight
//! [`ScenarioDelta`] difference intervals.
//!
//! [`StreamingAssessment`]: crate::stream::StreamingAssessment
//! [`QueryPlan`]: crate::state::QueryPlan
//! [`FleetState`]: crate::state::FleetState

use crate::batch::{slices_to_frame, ScenarioSlice};
use crate::columns::FleetColumns;
use crate::engine::Engine;
use crate::estimator::{EasyCConfig, SystemFootprint};
use crate::metrics::SevenMetrics;
use crate::partial::FleetTotals;
use crate::scenario::{DataScenario, ScenarioMatrix};
use crate::stream::{ChunkSource, StreamingAssessment};
use crate::uncertainty::{
    DrawPlan, Interval, PriorUncertainty, RetainedDraws, ScenarioDelta, ScenarioDraws,
};
use frame::DataFrame;
use std::collections::HashMap;
use top500::list::Top500List;
use top500::stream::FleetChunks;

/// Builder for a planned, pool-executed fleet assessment over the source
/// `Src`. Use it through its named forms — [`Assessment`],
/// [`StreamingAssessment`] and [`crate::state::QueryPlan`]. All builder
/// methods are by-value; finish with `run`.
pub struct Session<Src> {
    pub(crate) source: Src,
    config: EasyCConfig,
    matrix: Option<ScenarioMatrix>,
    plan: DrawPlan,
    items_per_worker: usize,
}

/// Session over a borrowed list — see the [module docs](self).
pub type Assessment<'a> = Session<&'a Top500List>;

/// Default work-item oversubscription: ~4 chunks per worker, so a skewed
/// chunk (one giant system, a cache-cold stretch) stops one worker for a
/// quarter of a share instead of idling the whole pool at the tail.
const DEFAULT_ITEMS_PER_WORKER: usize = 4;

pub(crate) mod sealed {
    /// Sources whose session may replace its whole configuration: a list
    /// or a stream. A resident [`crate::state::FleetState`]'s configuration
    /// keys its footprint cache, so its queries keep the state's.
    pub trait OwnsConfig {}
}

impl sealed::OwnsConfig for &Top500List {}

impl<Src> Session<Src> {
    pub(crate) fn new(source: Src, config: EasyCConfig) -> Session<Src> {
        Session {
            source,
            config,
            matrix: None,
            plan: DrawPlan::default(),
            items_per_worker: DEFAULT_ITEMS_PER_WORKER,
        }
    }

    /// Sets the worker-pool size for this session.
    pub fn workers(mut self, workers: usize) -> Session<Src> {
        self.config.workers = workers.max(1);
        self
    }

    /// Assesses one explicit scenario (replacing the default
    /// configuration-implied scenario or any previous matrix).
    pub fn scenario(mut self, scenario: DataScenario) -> Session<Src> {
        self.matrix = Some(ScenarioMatrix::from_scenarios(vec![scenario]));
        self
    }

    /// Assesses a whole scenario matrix in one interleaved pass (per
    /// chunk, when streaming).
    pub fn scenarios(mut self, matrix: &ScenarioMatrix) -> Session<Src> {
        self.matrix = Some(matrix.clone());
        self
    }

    /// Requests Monte-Carlo fleet-total intervals (operational and
    /// embodied) with this many draws per scenario (0 = skip, the
    /// default). All scenarios replay the same per-system perturbations
    /// (common random numbers), so [`SessionOutput::compare`] can pair
    /// them into tight difference intervals.
    pub fn uncertainty(mut self, draws: usize) -> Session<Src> {
        self.plan.draws = draws;
        self
    }

    /// Confidence level of the intervals (default 0.95).
    pub fn confidence(mut self, level: f64) -> Session<Src> {
        self.plan.level = level;
        self
    }

    /// RNG seed for the Monte-Carlo draws (default 0). Results are
    /// reproducible and independent of worker count and chunking for a
    /// given seed.
    pub fn seed(mut self, seed: u64) -> Session<Src> {
        self.plan.seed = seed;
        self
    }

    /// Prior uncertainty widths used by the Monte-Carlo draws.
    pub fn priors(mut self, priors: PriorUncertainty) -> Session<Src> {
        self.plan.priors = priors;
        self
    }

    /// Replaces the whole [`DrawPlan`] (draws, level, seed and priors) in
    /// one call.
    pub fn draw_plan(mut self, plan: DrawPlan) -> Session<Src> {
        self.plan = plan;
        self
    }

    /// Work items planned per worker (default 4). Each phase splits its
    /// rows (or samples) into `workers × items_per_worker` contiguous
    /// chunks; finer chunks interleave better on skewed lists, coarser
    /// chunks have less dispatch overhead. Results are bit-identical at any
    /// granularity — this is purely a scheduler knob (pinned by
    /// `tests/batch_matrix`).
    pub fn items_per_worker(mut self, items: usize) -> Session<Src> {
        self.items_per_worker = items.max(1);
        self
    }

    /// Plans the engine for this session, returning the scenarios as
    /// displayed (slice labels) alongside it.
    pub(crate) fn engine(&self) -> (Vec<DataScenario>, Engine) {
        let (display, effective) = plan_scenarios(self.matrix.as_ref(), &self.config);
        let engine = Engine::new(
            effective,
            self.plan,
            self.config.workers,
            self.items_per_worker,
        );
        (display, engine)
    }

    /// Runs the engine over the whole fleet as one chunk at row 0, keeping
    /// every scenario's footprints — the in-memory session and the
    /// resident query.
    pub(crate) fn run_whole<'c>(
        &self,
        list: &Top500List,
        prepared: Option<(&[SevenMetrics], &FleetColumns)>,
        cached: impl Fn(&DataScenario) -> Option<&'c [SystemFootprint]>,
    ) -> AssessmentOutput {
        let (display, mut engine) = self.engine();
        let mut kept: Vec<Vec<SystemFootprint>> = display.iter().map(|_| Vec::new()).collect();
        engine.assess_chunk(list, prepared, cached, |index, footprints| {
            kept[index] = footprints.into_owned();
        });
        let mut kept = kept.into_iter();
        SessionOutput::from_engine(engine, display, |scenario, totals| ScenarioSlice {
            scenario,
            footprints: kept.next().unwrap_or_default(),
            coverage: totals.coverage(),
        })
    }
}

impl<Src: sealed::OwnsConfig> Session<Src> {
    /// Replaces the whole configuration (priors, lifetime, workers).
    pub fn config(mut self, config: EasyCConfig) -> Session<Src> {
        self.config = config;
        self
    }
}

impl<'a> Session<&'a Top500List> {
    /// Session over a borrowed list.
    ///
    /// ```
    /// use easyc::Assessment;
    /// use top500::synthetic::{generate_full, SyntheticConfig};
    ///
    /// // Assess a tiny synthetic fleet end to end: no scenarios, no
    /// // uncertainty — the default single-scenario plan.
    /// let list = generate_full(&SyntheticConfig { n: 25, ..Default::default() });
    /// let output = Assessment::of(&list).workers(2).run();
    /// let slice = &output.slices()[0];
    /// assert_eq!(slice.footprints.len(), 25);
    /// assert_eq!(slice.coverage.total, 25);
    /// assert!(slice.footprints.iter().any(|fp| fp.operational.is_ok()));
    /// ```
    pub fn of(list: &'a Top500List) -> Assessment<'a> {
        Session::new(list, EasyCConfig::default())
    }

    /// Incremental session over a chunked fleet source — the
    /// larger-than-memory mode. Per-chunk results fold into running
    /// totals, coverage counts and fleet intervals without ever holding
    /// the full fleet; see [`crate::stream`]. Wrap the source in
    /// [`top500::stream::Prefetched`] to parse the next chunk on a
    /// background thread while the pool assesses the current one.
    ///
    /// ```
    /// use easyc::Assessment;
    /// use top500::stream::SyntheticChunks;
    /// use top500::synthetic::SyntheticConfig;
    ///
    /// // Stream a 100-system synthetic fleet in 16-row chunks: totals and
    /// // coverage fold incrementally, so only one chunk is ever resident.
    /// let source = SyntheticChunks::new(
    ///     SyntheticConfig { n: 100, ..Default::default() },
    ///     16,
    /// );
    /// let output = Assessment::stream(source)
    ///     .workers(2)
    ///     .run()
    ///     .expect("synthetic sources cannot fail");
    /// let slice = &output.slices()[0];
    /// assert_eq!(output.systems(), 100);
    /// assert_eq!(slice.coverage.total, 100);
    /// assert!(slice.operational_total_mt > 0.0);
    /// assert!(output.peak_chunk_rows() <= 16);
    /// ```
    pub fn stream<'sink, S: FleetChunks>(source: S) -> StreamingAssessment<'sink, S> {
        Session::new(ChunkSource::new(source), EasyCConfig::default())
    }

    /// Plans and executes the session; see the [module docs](self).
    pub fn run(self) -> AssessmentOutput {
        self.run_whole(self.source, None, |_| None)
    }
}

/// Resolves the scenario matrix into (display, effective) scenario lists:
/// `display` carries the slice labels verbatim, `effective` merges the
/// configuration overrides underneath each scenario's own (scenario wins,
/// matching the serial `EasyC::assess_scenario` semantics).
pub(crate) fn plan_scenarios(
    matrix: Option<&ScenarioMatrix>,
    config: &EasyCConfig,
) -> (Vec<DataScenario>, Vec<DataScenario>) {
    let display: Vec<DataScenario> = match matrix {
        Some(matrix) => matrix.scenarios().to_vec(),
        None => vec![DataScenario::full("default")],
    };
    let effective: Vec<DataScenario> = display
        .iter()
        .map(|s| DataScenario {
            name: s.name.clone(),
            mask: s.mask,
            overrides: s.overrides.or(config.overrides()),
        })
        .collect();
    (display, effective)
}

/// Results of one session run: per-scenario slices of type `S` (matrix
/// order) with O(1) lookup by name — first occurrence wins — plus the
/// retained per-scenario Monte-Carlo draw vectors, paired across scenarios
/// by the session's common random numbers, which is what
/// [`SessionOutput::compare`] folds into tight [`ScenarioDelta`]
/// difference intervals. Use it through its named forms:
/// [`AssessmentOutput`] keeps every footprint, and
/// [`crate::stream::StreamOutput`] keeps folded totals.
#[derive(Debug, Clone)]
pub struct SessionOutput<S> {
    slices: Vec<S>,
    /// Scenario name → slice position, first occurrence wins.
    index: HashMap<String, usize>,
    draws: RetainedDraws,
    intervals: Vec<Option<Interval>>,
    embodied_intervals: Vec<Option<Interval>>,
    pub(crate) chunks: usize,
    pub(crate) systems: usize,
    pub(crate) peak_chunk_rows: usize,
}

/// Results of one [`Assessment`] run or resident query, with every
/// scenario's per-system footprints.
pub type AssessmentOutput = SessionOutput<ScenarioSlice>;

impl<S> SessionOutput<S> {
    /// Builds the output from a finished engine: `slice` turns each
    /// (display scenario, fleet totals) pair into the output's slice, and
    /// the totals' draw buffers become the retained draws.
    pub(crate) fn from_engine(
        engine: Engine,
        display: Vec<DataScenario>,
        mut slice: impl FnMut(DataScenario, &FleetTotals) -> S,
    ) -> SessionOutput<S> {
        let plan = engine.plan();
        let (chunks, systems, peak_chunk_rows) =
            (engine.chunks, engine.systems, engine.peak_chunk_rows);
        let mut index = HashMap::with_capacity(display.len());
        let mut slices = Vec::with_capacity(display.len());
        let mut retained = Vec::with_capacity(display.len());
        for (i, (scenario, totals)) in display.into_iter().zip(engine.finish()).enumerate() {
            index.entry(scenario.name.clone()).or_insert(i);
            slices.push(slice(scenario, &totals));
            retained.push(ScenarioDraws {
                op_point: totals.operational_mt,
                op: totals.op_draws,
                emb_point: totals.embodied_mt,
                emb: totals.emb_draws,
            });
        }
        let draws = RetainedDraws {
            plan,
            scenarios: retained,
        };
        SessionOutput {
            slices,
            index,
            intervals: draws.intervals(true),
            embodied_intervals: draws.intervals(false),
            draws,
            chunks,
            systems,
            peak_chunk_rows,
        }
    }

    /// Slice position by scenario name (first occurrence wins).
    fn index_of(&self, name: &str) -> Option<usize> {
        self.index.get(name).copied()
    }

    /// All slices, matrix order.
    pub fn slices(&self) -> &[S] {
        &self.slices
    }

    /// Number of scenarios assessed.
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// True when nothing was assessed (empty matrix).
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }

    /// Slice by scenario name — O(1).
    pub fn slice(&self, name: &str) -> Option<&S> {
        self.index_of(name).and_then(|i| self.slices.get(i))
    }

    /// The [`DrawPlan`] that produced this output's uncertainty phase.
    pub fn draw_plan(&self) -> &DrawPlan {
        &self.draws.plan
    }

    /// One scenario's retained operational draw vector (`None` without
    /// `uncertainty` or when the scenario covered nothing). Draws are
    /// paired across scenarios: index `i` of every scenario's vector was
    /// produced by the same per-system perturbations, and a stream's
    /// vector is bit-identical to the in-memory session's over the same
    /// systems.
    pub fn operational_draws(&self, name: &str) -> Option<&[f64]> {
        self.draws.operational_draws(self.index_of(name)?)
    }

    /// One scenario's retained embodied draw vector — see
    /// [`SessionOutput::operational_draws`].
    pub fn embodied_draws(&self, name: &str) -> Option<&[f64]> {
        self.draws.embodied_draws(self.index_of(name)?)
    }

    /// Paired-difference intervals `variant − baseline` over the session's
    /// common random numbers — the first-class scenario comparison. `None`
    /// when either scenario is absent or no uncertainty draws ran; the
    /// per-family intervals inside are `None` where a side had no
    /// coverage. The paired interval is no wider — in practice far tighter
    /// — than [`Interval::independent_difference`] of the two scenarios'
    /// own bands, because both scenarios replayed identical per-system
    /// perturbations, and it is bit-identical between a stream and an
    /// in-memory session over the same systems (pinned by
    /// `tests/compare.rs` and proptests).
    pub fn compare(&self, baseline: &str, variant: &str) -> Option<ScenarioDelta> {
        let b = self.index_of(baseline)?;
        let v = self.index_of(variant)?;
        self.draws.compare((baseline, b), (variant, v))
    }
}

impl SessionOutput<ScenarioSlice> {
    /// Footprints of one scenario by name — O(1).
    pub fn footprints(&self, name: &str) -> Option<&[SystemFootprint]> {
        self.slice(name).map(|s| s.footprints.as_slice())
    }

    /// Per-scenario fleet-total operational intervals, matrix order
    /// (`None` entries when `uncertainty` was not requested or a scenario
    /// covered nothing).
    pub fn intervals(&self) -> &[Option<Interval>] {
        &self.intervals
    }

    /// Per-scenario fleet-total *embodied* intervals, matrix order (`None`
    /// entries when `uncertainty` was not requested or a scenario covered
    /// nothing).
    pub fn embodied_intervals(&self) -> &[Option<Interval>] {
        &self.embodied_intervals
    }

    /// Operational interval of one scenario by name — O(1).
    pub fn interval(&self, name: &str) -> Option<Interval> {
        self.index_of(name).and_then(|i| self.intervals[i])
    }

    /// Embodied interval of one scenario by name — O(1).
    pub fn embodied_interval(&self, name: &str) -> Option<Interval> {
        self.index_of(name).and_then(|i| self.embodied_intervals[i])
    }

    /// Columnar layout of every (scenario, system) result:
    /// `scenario, rank, operational_mt, embodied_mt, power_kw, pue,
    /// utilization, power_path, note` (nulls where not estimable).
    pub fn to_frame(&self) -> DataFrame {
        slices_to_frame(&self.slices)
    }

    /// Consumes the output, returning the first scenario's footprints —
    /// the single-scenario convenience (empty when no scenario was
    /// assessed).
    pub fn into_footprints(self) -> Vec<SystemFootprint> {
        self.slices
            .into_iter()
            .next()
            .map(|s| s.footprints)
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::EasyC;
    use crate::scenario::{MetricBit, MetricMask, OverrideSet};
    use top500::synthetic::{generate_full, SyntheticConfig};

    fn list() -> Top500List {
        generate_full(&SyntheticConfig {
            n: 80,
            ..Default::default()
        })
    }

    fn matrix() -> ScenarioMatrix {
        ScenarioMatrix::new()
            .with(DataScenario::full("full"))
            .with(DataScenario::masked(
                "no-power",
                MetricMask::ALL
                    .without(MetricBit::PowerKw)
                    .without(MetricBit::AnnualEnergy),
            ))
            .with(DataScenario::full("site-pue").with_overrides(OverrideSet {
                pue: Some(1.1),
                ..OverrideSet::NONE
            }))
    }

    #[test]
    fn session_matches_serial_at_every_worker_count() {
        let list = list();
        let tool = EasyC::new();
        for scenario in matrix().scenarios() {
            let serial: Vec<SystemFootprint> = list
                .systems()
                .iter()
                .map(|s| tool.assess_scenario(s, scenario))
                .collect();
            for workers in [1usize, 2, 3, 8] {
                let out = Assessment::of(&list)
                    .workers(workers)
                    .scenario(scenario.clone())
                    .run();
                let got = out.footprints(&scenario.name).unwrap();
                assert_eq!(got.len(), serial.len());
                for (g, s) in got.iter().zip(&serial) {
                    assert_eq!(g.operational, s.operational, "workers {workers}");
                    assert_eq!(g.embodied, s.embodied, "workers {workers}");
                }
            }
        }
    }

    #[test]
    fn matrix_slices_keep_matrix_order_and_names() {
        let list = list();
        let out = Assessment::of(&list).scenarios(&matrix()).run();
        assert_eq!(out.len(), 3);
        assert!(!out.is_empty());
        let names: Vec<&str> = out
            .slices()
            .iter()
            .map(|s| s.scenario.name.as_str())
            .collect();
        assert_eq!(names, vec!["full", "no-power", "site-pue"]);
        assert!(out.slice("no-power").is_some());
        assert!(out.slice("missing").is_none());
        assert_eq!(out.footprints("full").unwrap().len(), 80);
    }

    #[test]
    fn config_overrides_merge_under_scenario_overrides() {
        let list = list();
        let config = EasyCConfig {
            pue_override: Some(2.0),
            ..Default::default()
        };
        let out = Assessment::of(&list)
            .config(config)
            .scenarios(&matrix())
            .run();
        // "full" inherits the config PUE; "site-pue" wins with its own.
        for fp in out.footprints("full").unwrap() {
            if let Ok(op) = &fp.operational {
                assert_eq!(op.pue, 2.0);
            }
        }
        for fp in out.footprints("site-pue").unwrap() {
            if let Ok(op) = &fp.operational {
                assert_eq!(op.pue, 1.1);
            }
        }
    }

    #[test]
    fn default_scenario_matches_easyc_assess() {
        let list = list();
        let tool = EasyC::new();
        let serial: Vec<SystemFootprint> = list.systems().iter().map(|s| tool.assess(s)).collect();
        let session = Assessment::of(&list).workers(4).run().into_footprints();
        assert_eq!(session.len(), serial.len());
        for (a, b) in session.iter().zip(&serial) {
            assert_eq!(a.operational, b.operational);
            assert_eq!(a.embodied, b.embodied);
        }
    }

    #[test]
    fn intervals_deterministic_across_worker_counts() {
        let list = list();
        let run = |workers| {
            Assessment::of(&list)
                .workers(workers)
                .scenarios(&matrix())
                .uncertainty(200)
                .confidence(0.9)
                .seed(11)
                .run()
        };
        let a = run(1);
        let b = run(8);
        assert_eq!(a.intervals(), b.intervals());
        assert_eq!(a.embodied_intervals(), b.embodied_intervals());
        let iv = a.interval("full").unwrap();
        assert!(iv.lo < iv.point && iv.point < iv.hi * 1.2);
        let emb = a.embodied_interval("full").unwrap();
        assert!(emb.lo < emb.point && emb.point < emb.hi * 1.2);
    }

    #[test]
    fn no_uncertainty_means_no_intervals() {
        let list = list();
        let out = Assessment::of(&list).scenarios(&matrix()).run();
        assert_eq!(out.intervals().len(), 3);
        assert!(out.intervals().iter().all(Option::is_none));
        assert!(out.embodied_intervals().iter().all(Option::is_none));
        assert!(out.interval("full").is_none());
        assert!(out.embodied_interval("full").is_none());
    }

    #[test]
    fn empty_matrix_yields_empty_output() {
        let list = list();
        let out = Assessment::of(&list)
            .scenarios(&ScenarioMatrix::new())
            .run();
        assert!(out.is_empty());
        assert!(out.into_footprints().is_empty());
    }

    #[test]
    fn duplicate_names_resolve_to_first_like_a_linear_scan() {
        let list = list();
        let matrix =
            ScenarioMatrix::new()
                .with(DataScenario::full("dup"))
                .with(DataScenario::masked(
                    "dup",
                    MetricMask::ALL.without(MetricBit::PowerKw),
                ));
        let out = Assessment::of(&list).scenarios(&matrix).run();
        let slice = out.slice("dup").unwrap();
        assert_eq!(slice.scenario.mask, MetricMask::ALL);
    }

    #[test]
    fn masked_matrix_run_performs_zero_record_clones() {
        let list = list();
        let before = top500::record::clones_on_thread();
        // workers(1) keeps the whole plan on this thread, so the
        // thread-local counter observes every clone the engine would do.
        let out = Assessment::of(&list).workers(1).scenarios(&matrix()).run();
        assert_eq!(out.len(), 3);
        assert_eq!(
            top500::record::clones_on_thread(),
            before,
            "masked sweep must not clone records"
        );
    }
}
