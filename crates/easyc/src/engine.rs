//! The chunk engine — phases 1–3 of every assessment, written once.
//!
//! Every way of running EasyC drives one [`Engine`], chunk by chunk:
//!
//! ```text
//! Assessment::of(&list).run()       one chunk (the whole list) at row 0;
//!                                   every scenario's footprints are kept
//! Assessment::stream(src).run()     one call per pulled chunk; footprints
//!                                   go to the row sink and are dropped
//! FleetState::query().run()         one chunk with the state's metrics,
//!                                   columns and cached default footprints
//! ```
//!
//! [`Engine::assess_chunk`] runs, on one chunk:
//!
//! 1. **Extraction** — [`SevenMetrics`] per record and the chunk's
//!    [`FleetColumns`] layout, chunk-parallel on the pool (skipped when the
//!    caller supplies them, as the resident state does).
//! 2. **Estimation** — interleaved (scenario × sub-chunk) items through the
//!    columnar kernels over per-scenario [`FleetView`] lenses. A scenario
//!    with cached footprints skips its items.
//! 3. **Fold, hand-off and draws** — each scenario's footprints are
//!    absorbed into its running [`PartialAssessment`] at the chunk's global
//!    first row, hoisted into draw factor columns and handed to the caller.
//!    Blocked (sample-chunk × scenario) Monte-Carlo items then accumulate
//!    into the partials' per-sample buffers.
//!
//! All phases share one [`parallel::pool::ThreadPool`], created once per
//! run. Each work item writes disjoint, pre-planned output slots, so
//! results do not depend on scheduling.
//!
//! # Bit-identity at any chunking, worker count and cache temperature
//!
//! - Per-record math is the columnar `estimate_columns` kernel path over
//!   the same [`FleetView`] lenses, pinned bit-identical to the
//!   row-at-a-time `estimate_view` reference.
//! - Totals accumulate footprint by footprint in rank order into one
//!   [`PartialAssessment`] per scenario. The engine is a single consumer
//!   over adjacent blocks, so every absorb extends one coalesced segment
//!   and the fold is the same left fold over the whole fleet however it
//!   was chunked (see [`crate::partial`]).
//! - Draws accumulate term by term into the partials' per-sample buffers
//!   with the blocked kernels of [`crate::uncertainty`], each system keyed
//!   by its *global row* — scenario- and chunk-independent, the
//!   common-random-numbers key — so RNG streams and addition order match
//!   the serial [`DrawPlan`] reference exactly.
//! - A cached footprint is the same bits phase 2 would recompute, so every
//!   downstream fold sees identical terms.

use crate::batch::assess_columns;
use crate::columns::FleetColumns;
use crate::estimator::SystemFootprint;
use crate::metrics::SevenMetrics;
use crate::partial::{FleetTotals, PartialAssessment};
use crate::scenario::DataScenario;
use crate::uncertainty::{
    embodied_block_accumulate, embodied_factors, fleet_factors, operational_block_accumulate,
    operational_noise, DrawPlan, EmbFactorColumns, OpFactorColumns,
};
use crate::view::FleetView;
use parallel::pool::ThreadPool;
use parallel::rng::RngStreams;
use std::borrow::Cow;
use std::ops::Range;
use top500::list::Top500List;

/// One planned work item.
type Job<'env> = Box<dyn FnOnce() + Send + 'env>;

/// Dispatches planned work items: interleaved on the pool when one exists,
/// in plan order on the calling thread otherwise. Either way every item
/// runs exactly once before this returns (the pool scope joins them all
/// and re-raises any panic).
fn execute(pool: Option<&ThreadPool>, jobs: Vec<Job<'_>>) {
    match pool {
        Some(pool) => pool.scope(|scope| {
            for job in jobs {
                scope.spawn(job);
            }
        }),
        None => {
            for job in jobs {
                job();
            }
        }
    }
}

/// `n` empty output slots for planned work items to fill.
pub(crate) fn slots<T>(n: usize) -> Vec<Option<T>> {
    let mut slots = Vec::with_capacity(n);
    slots.resize_with(n, || None);
    slots
}

/// Unwraps output slots once every work item that fills them has run.
pub(crate) fn filled<T>(slots: Vec<Option<T>>) -> Vec<T> {
    slots
        .into_iter()
        // audit: allow(panic-surface) — callers plan items over a partition of the slots and `execute` runs every item before they unwrap
        .map(|slot| slot.expect("every planned work item ran"))
        .collect()
}

/// The per-run state of the chunk engine: the planned scenarios, the
/// pool, and one running [`PartialAssessment`] per scenario. See the
/// [module docs](self).
pub(crate) struct Engine {
    /// Scenarios as computed (configuration overrides merged in).
    effective: Vec<DataScenario>,
    plan: DrawPlan,
    /// Work items planned per phase: `workers × items_per_worker`.
    granularity: usize,
    /// `None` runs every item inline on the calling thread (one worker),
    /// so e.g. thread-local clone counters in tests observe the whole run.
    pool: Option<ThreadPool>,
    op_streams: RngStreams,
    emb_streams: RngStreams,
    /// The draw phase's sample ranges, one work item each.
    sample_chunks: Vec<Range<usize>>,
    partials: Vec<PartialAssessment>,
    /// Chunks assessed so far, empty ones included.
    pub(crate) chunks: usize,
    /// Rows assessed so far — the global first row of the next chunk.
    pub(crate) systems: usize,
    /// Largest chunk assessed.
    pub(crate) peak_chunk_rows: usize,
}

impl Engine {
    /// Plans a run over `effective` scenarios.
    pub(crate) fn new(
        effective: Vec<DataScenario>,
        plan: DrawPlan,
        workers: usize,
        items_per_worker: usize,
    ) -> Engine {
        let workers = workers.max(1);
        let granularity = workers * items_per_worker.max(1);
        Engine {
            partials: effective
                .iter()
                .map(|_| PartialAssessment::identity(plan.draws))
                .collect(),
            effective,
            plan,
            granularity,
            pool: (workers > 1).then(|| ThreadPool::new(workers)),
            op_streams: plan.operational_streams(),
            emb_streams: plan.embodied_streams(),
            sample_chunks: parallel::split_ranges(plan.draws, granularity),
            chunks: 0,
            systems: 0,
            peak_chunk_rows: 0,
        }
    }

    /// The draw plan of this run.
    pub(crate) fn plan(&self) -> DrawPlan {
        self.plan
    }

    /// Assesses the next chunk of the fleet; its first row is the number
    /// of rows assessed before it. `prepared` supplies the chunk's metrics
    /// and columns (phase 1 runs otherwise). `cached` maps an effective
    /// scenario to footprints already computed for this chunk by these
    /// kernels, which skip that scenario's phase 2. `hand_off` receives
    /// each scenario's footprints, matrix order, after they are folded.
    pub(crate) fn assess_chunk<'c>(
        &mut self,
        list: &Top500List,
        prepared: Option<(&[SevenMetrics], &FleetColumns)>,
        cached: impl Fn(&DataScenario) -> Option<&'c [SystemFootprint]>,
        mut hand_off: impl FnMut(usize, Cow<'c, [SystemFootprint]>),
    ) {
        let n = list.len();
        let first_row = self.systems;
        self.chunks += 1;
        self.systems += n;
        self.peak_chunk_rows = self.peak_chunk_rows.max(n);
        if n == 0 {
            return;
        }
        let ranges = parallel::split_ranges(n, self.granularity);
        let extracted: Vec<SevenMetrics>;
        let built: FleetColumns;
        let (metrics, columns) = match prepared {
            Some(prepared) => prepared,
            None => {
                extracted = self.extract(list, &ranges);
                built = FleetColumns::build(list, &extracted);
                (extracted.as_slice(), &built)
            }
        };
        let cached: Vec<Option<&'c [SystemFootprint]>> =
            self.effective.iter().map(cached).collect();
        let estimated = self.estimate(list, metrics, columns, &ranges, &cached);

        let draws = self.plan.draws > 0;
        let mut op_cols = Vec::with_capacity(if draws { cached.len() } else { 0 });
        let mut emb_cols = Vec::with_capacity(op_cols.capacity());
        for (index, ((out, cached), partial)) in estimated
            .into_iter()
            .zip(cached)
            .zip(&mut self.partials)
            .enumerate()
        {
            let footprints = match cached {
                Some(cached) => Cow::Borrowed(cached),
                None => Cow::Owned(filled(out)),
            };
            partial.absorb(first_row, &footprints);
            if draws {
                op_cols.push(OpFactorColumns::from_footprints(first_row, &footprints));
                emb_cols.push(EmbFactorColumns::from_footprints(&footprints));
            }
            hand_off(index, footprints);
        }
        if draws {
            self.draw(first_row, n, &op_cols, &emb_cols);
        }
    }

    /// Phase 1 — metric extraction, chunk-parallel on the pool.
    fn extract(&self, list: &Top500List, ranges: &[Range<usize>]) -> Vec<SevenMetrics> {
        let records = list.systems();
        let mut out = slots(records.len());
        let jobs: Vec<Job<'_>> = ranges
            .iter()
            .zip(parallel::split_mut_by_ranges(&mut out, ranges))
            .map(|(range, out)| {
                // The ranges partition `0..len`, so each is in bounds.
                let records = &records[range.clone()];
                Box::new(move || {
                    for (slot, record) in out.iter_mut().zip(records) {
                        *slot = Some(SevenMetrics::extract(record));
                    }
                }) as Job<'_>
            })
            .collect();
        execute(self.pool.as_ref(), jobs);
        filled(out)
    }

    /// Phase 2 — the (scenario × sub-chunk) plan, interleaved on the pool
    /// so a slow scenario cannot idle the workers. Returns one slot vector
    /// per scenario; cached scenarios plan no items and get an empty one.
    fn estimate(
        &self,
        list: &Top500List,
        metrics: &[SevenMetrics],
        columns: &FleetColumns,
        ranges: &[Range<usize>],
        cached: &[Option<&[SystemFootprint]>],
    ) -> Vec<Vec<Option<SystemFootprint>>> {
        let mut outputs: Vec<Vec<Option<SystemFootprint>>> = cached
            .iter()
            .map(|c| {
                if c.is_some() {
                    Vec::new()
                } else {
                    slots(list.len())
                }
            })
            .collect();
        let mut jobs: Vec<Job<'_>> = Vec::with_capacity(outputs.len() * ranges.len());
        for ((scenario, out), cached) in self.effective.iter().zip(&mut outputs).zip(cached) {
            if cached.is_some() {
                continue;
            }
            let view = FleetView::new(list, metrics, scenario);
            for (range, out) in ranges
                .iter()
                .zip(parallel::split_mut_by_ranges(out, ranges))
            {
                let range = range.clone();
                jobs.push(Box::new(move || assess_columns(columns, &view, range, out)));
            }
        }
        execute(self.pool.as_ref(), jobs);
        outputs
    }

    /// Phase 3 — accumulates one chunk's Monte-Carlo terms into the
    /// partials' per-sample buffers. Each work item owns one disjoint
    /// sample range of **every** scenario's buffers: the systematic factors
    /// and the idiosyncratic noise column of a sample (keyed by global row
    /// `first_row + chunk row`) are scenario-invariant, so one item
    /// computes them once and sweeps each scenario's factor columns over
    /// them, as `*slot += term` in row order.
    fn draw(
        &mut self,
        first_row: usize,
        n: usize,
        op_cols: &[OpFactorColumns],
        emb_cols: &[EmbFactorColumns],
    ) {
        let sample_chunks = &self.sample_chunks;
        // Transpose the per-scenario buffers into per-sample-chunk items:
        // item j owns samples `sample_chunks[j]` of every covered
        // scenario, as (scenario index, buffer sub-slice).
        let mut op_parts: Vec<Vec<(usize, &mut [f64])>> =
            sample_chunks.iter().map(|_| Vec::new()).collect();
        let mut emb_parts: Vec<Vec<(usize, &mut [f64])>> =
            sample_chunks.iter().map(|_| Vec::new()).collect();
        for (scenario, partial) in self.partials.iter_mut().enumerate() {
            // Every partial absorbed this (non-empty) chunk, so each has a
            // trailing segment whose buffers the chunk's terms extend.
            let Some((op_buffer, emb_buffer)) = partial.draw_slots() else {
                continue;
            };
            if !op_cols[scenario].is_empty() {
                let split = parallel::split_mut_by_ranges(op_buffer, sample_chunks);
                for (item, part) in op_parts.iter_mut().zip(split) {
                    item.push((scenario, part));
                }
            }
            if !emb_cols[scenario].is_empty() {
                let split = parallel::split_mut_by_ranges(emb_buffer, sample_chunks);
                for (item, part) in emb_parts.iter_mut().zip(split) {
                    item.push((scenario, part));
                }
            }
        }
        let (op_streams, emb_streams) = (&self.op_streams, &self.emb_streams);
        let priors = self.plan.priors;
        let mut jobs: Vec<Job<'_>> = Vec::with_capacity(sample_chunks.len());
        for ((range, mut op_item), mut emb_item) in
            sample_chunks.iter().cloned().zip(op_parts).zip(emb_parts)
        {
            if op_item.is_empty() && emb_item.is_empty() {
                continue;
            }
            jobs.push(Box::new(move || {
                let mut noise = vec![0.0f64; if op_item.is_empty() { 0 } else { n }];
                for (k, sample) in range.enumerate() {
                    if !op_item.is_empty() {
                        let factors = fleet_factors(op_streams, &priors, sample);
                        operational_noise(op_streams, sample, first_row, &mut noise);
                        for (scenario, part) in op_item.iter_mut() {
                            operational_block_accumulate(
                                &op_cols[*scenario],
                                &factors,
                                &noise,
                                first_row,
                                &mut part[k],
                            );
                        }
                    }
                    if !emb_item.is_empty() {
                        let factors = embodied_factors(emb_streams, &priors, sample);
                        for (scenario, part) in emb_item.iter_mut() {
                            embodied_block_accumulate(&emb_cols[*scenario], &factors, &mut part[k]);
                        }
                    }
                }
            }));
        }
        execute(self.pool.as_ref(), jobs);
    }

    /// Collapses each scenario's partial into its [`FleetTotals`], matrix
    /// order. Single-consumer partials hold one coalesced segment, so each
    /// comes back verbatim: the absorbed totals and the kernel-filled draw
    /// buffers, with uncovered families' buffers dropped.
    pub(crate) fn finish(self) -> impl Iterator<Item = FleetTotals> {
        self.partials.into_iter().map(PartialAssessment::finish)
    }

    /// The running partials themselves — for the resident state, which
    /// keeps its default scenario's fold retractable.
    pub(crate) fn into_partials(self) -> Vec<PartialAssessment> {
        self.partials
    }
}
