//! Incremental assessment over a chunked fleet source — the
//! larger-than-memory mode of the [`Assessment`](crate::Assessment)
//! session.
//!
//! ```text
//! Assessment::stream(source)       any top500::stream::FleetChunks
//!     .scenarios(&matrix)          same builder surface as the in-memory
//!     .workers(8)                  session
//!     .uncertainty(1000)
//!     .run()?                      -> StreamOutput (folded, no fleet held)
//! ```
//!
//! Each pulled chunk runs through the same crate-internal chunk engine as
//! the in-memory session — extraction, (scenario × sub-chunk) estimation,
//! (sample-chunk × scenario) draws — at the chunk's global first row, and
//! folds into running per-scenario accumulators before the next chunk is
//! pulled. At any instant the session holds **one** fleet chunk (plus
//! per-scenario draw buffers of `draws` floats), so peak memory is set by
//! the source's chunk budget, not the fleet size;
//! [`StreamOutput::peak_chunk_rows`] reports the high-water mark so callers
//! (and the streaming bench) can assert the bound. Wrapping the source in
//! [`top500::stream::Prefetched`] overlaps parsing of chunk k+1 with the
//! assessment of chunk k on a dedicated background thread (residency
//! rises to at most **two** chunks — one being assessed, one prefetched).
//!
//! Per-system results normally fold away with the chunk. To keep them —
//! e.g. to spill a full per-(scenario, system) columnar artifact to disk
//! at bounded memory — attach a [`RowSink`] with
//! [`StreamingAssessment::rows`]: it receives every [`ChunkRows`] block
//! (matrix order within each chunk) before the chunk is dropped.
//!
//! Because the in-memory session is the same engine over one chunk, the
//! fold is *bit-identical* to it over the concatenation of all chunks —
//! totals, coverage, intervals and paired deltas (pinned by
//! `tests/streaming.rs` and proptests; see the engine docs for why).

use crate::coverage::CoverageReport;
use crate::estimator::SystemFootprint;
use crate::scenario::DataScenario;
use crate::session::{sealed::OwnsConfig, Session, SessionOutput};
use crate::uncertainty::Interval;
use top500::stream::FleetChunks;

/// One (scenario × chunk) block of per-system results, handed to a row
/// sink (see [`StreamingAssessment::rows`]) *before* the chunk is dropped.
/// Blocks arrive in deterministic order: for each pulled chunk, every
/// scenario in matrix order. A sink that spills each scenario's blocks to
/// its own buffer and concatenates them in matrix order reconstructs
/// exactly the scenario-major
/// [`AssessmentOutput::write_csv`](crate::session::SessionOutput::write_csv)
/// row order of the in-memory session.
pub struct ChunkRows<'a> {
    /// Position of the scenario in the matrix (0-based).
    pub scenario_index: usize,
    /// The scenario these rows were assessed under (display form, as
    /// labelled in the matrix — the same name the in-memory frame carries).
    pub scenario: &'a DataScenario,
    /// 0-based index of the source chunk these rows came from.
    pub chunk_index: usize,
    /// Per-system footprints of this chunk under this scenario, rank
    /// order — bit-identical to the same rows of the in-memory session.
    pub footprints: &'a [SystemFootprint],
}

/// The per-block row callback of a streaming session.
pub type RowSink<'sink> = Box<dyn FnMut(ChunkRows<'_>) + 'sink>;

/// The source of a [`StreamingAssessment`]: a chunked fleet plus the
/// optional per-chunk row sink.
pub struct ChunkSource<'sink, S> {
    chunks: S,
    sink: Option<RowSink<'sink>>,
}

impl<S> ChunkSource<'_, S> {
    pub(crate) fn new(chunks: S) -> Self {
        ChunkSource { chunks, sink: None }
    }
}

impl<S> OwnsConfig for ChunkSource<'_, S> {}

/// Builder/session for an incremental, pool-executed fleet assessment
/// over a chunked source. Construct with
/// [`Assessment::stream`](crate::Assessment::stream); the builder surface
/// is the in-memory session's, plus [`StreamingAssessment::rows`]. The
/// `'sink` lifetime bounds the optional per-chunk row callback and is
/// inferred — sessions without a sink are unconstrained.
pub type StreamingAssessment<'sink, S> = Session<ChunkSource<'sink, S>>;

impl<'sink, S: FleetChunks> Session<ChunkSource<'sink, S>> {
    /// Attaches a per-(scenario × chunk) row sink: `sink` is called with
    /// every [`ChunkRows`] block right after the chunk is assessed and
    /// folded, before it is dropped, so per-system results can be spilled
    /// to disk (or anywhere else) without the session ever holding more
    /// than one chunk of them. This is what `sweep --stream --out` builds
    /// its byte-identical columnar artifact on — see
    /// `analysis::report::SweepCsvWriter` in the `analysis` crate, which
    /// renders each block with [`crate::batch::FootprintCsv`].
    pub fn rows<F>(mut self, sink: F) -> StreamingAssessment<'sink, S>
    where
        F: FnMut(ChunkRows<'_>) + 'sink,
    {
        self.source.sink = Some(Box::new(sink));
        self
    }

    /// Pulls every chunk from the source, assesses and folds it, and
    /// returns the per-scenario roll-up. Stops at the source's first
    /// error.
    pub fn run(self) -> Result<StreamOutput, S::Error> {
        let (display, mut engine) = self.engine();
        let ChunkSource {
            mut chunks,
            mut sink,
        } = self.source;
        let mut chunk_index = 0;
        while let Some(next) = chunks.next_chunk() {
            let list = next?;
            engine.assess_chunk(
                &list,
                None,
                |_| None,
                |scenario_index, footprints| {
                    if let Some(sink) = sink.as_mut() {
                        sink(ChunkRows {
                            scenario_index,
                            scenario: &display[scenario_index],
                            chunk_index,
                            footprints: &footprints,
                        });
                    }
                },
            );
            // The chunk's records, metrics and footprints drop here —
            // nothing of it survives into the next pull.
            chunk_index += 1;
        }
        let plan = engine.plan();
        Ok(SessionOutput::from_engine(
            engine,
            display,
            |scenario, t| StreamSlice {
                scenario,
                coverage: t.coverage(),
                operational_total_mt: t.operational_mt,
                embodied_total_mt: t.embodied_mt,
                interval: plan.interval_of(t.operational_mt, &t.op_draws),
                embodied_interval: plan.interval_of(t.embodied_mt, &t.emb_draws),
            },
        ))
    }
}

/// One scenario's folded roll-up from a streaming session: coverage
/// counts, fleet totals, and optional Monte-Carlo fleet intervals — all
/// bit-identical to what the in-memory session would report over the same
/// systems, without the per-system footprints.
#[derive(Debug, Clone)]
pub struct StreamSlice {
    /// The scenario that produced this slice (display form, as labelled in
    /// the matrix).
    pub scenario: DataScenario,
    /// Coverage counts under the scenario.
    pub coverage: CoverageReport,
    /// Fleet-total operational carbon over covered systems, MT CO2e/yr.
    pub operational_total_mt: f64,
    /// Fleet-total embodied carbon over covered systems, MT CO2e.
    pub embodied_total_mt: f64,
    /// Fleet-total operational interval (`None` without `uncertainty` or
    /// when nothing was estimable).
    pub interval: Option<Interval>,
    /// Fleet-total embodied interval.
    pub embodied_interval: Option<Interval>,
}

/// Results of one [`StreamingAssessment`] run: per-scenario folded slices
/// and the retained draw vectors (bit-identical to the in-memory
/// session's), plus ingestion statistics.
pub type StreamOutput = SessionOutput<StreamSlice>;

impl SessionOutput<StreamSlice> {
    /// Chunks pulled from the source.
    pub fn chunks(&self) -> usize {
        self.chunks
    }

    /// Systems assessed across all chunks.
    pub fn systems(&self) -> usize {
        self.systems
    }

    /// Largest single chunk pulled — the session's fleet-memory high-water
    /// mark, since exactly one chunk is resident at a time.
    pub fn peak_chunk_rows(&self) -> usize {
        self.peak_chunk_rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{MetricBit, MetricMask, ScenarioMatrix};
    use crate::session::Assessment;
    use top500::stream::{InMemoryChunks, SyntheticChunks};
    use top500::synthetic::{generate_full, SyntheticConfig};
    use top500::Top500List;

    fn list(n: u32) -> Top500List {
        generate_full(&SyntheticConfig {
            n,
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
    }

    /// Folds an in-memory output the way the stream does, for comparison.
    fn fold_in_memory(output: &crate::session::AssessmentOutput) -> Vec<(usize, usize, f64, f64)> {
        output
            .slices()
            .iter()
            .map(|slice| {
                let mut op = 0.0;
                let mut emb = 0.0;
                for fp in &slice.footprints {
                    if let Ok(o) = &fp.operational {
                        op += o.mt_co2e;
                    }
                    if let Ok(e) = &fp.embodied {
                        emb += e.mt_co2e;
                    }
                }
                (slice.coverage.operational, slice.coverage.embodied, op, emb)
            })
            .collect()
    }

    #[test]
    fn streamed_fold_bit_identical_to_in_memory_session() {
        let list = list(90);
        let in_memory = Assessment::of(&list)
            .scenarios(&matrix())
            .uncertainty(80)
            .confidence(0.9)
            .seed(11)
            .run();
        let expected = fold_in_memory(&in_memory);
        for chunk_rows in [1usize, 7, 33, 90, 512] {
            let streamed = Assessment::stream(InMemoryChunks::new(&list, chunk_rows))
                .scenarios(&matrix())
                .uncertainty(80)
                .confidence(0.9)
                .seed(11)
                .run()
                .unwrap();
            assert_eq!(streamed.systems(), 90);
            assert!(streamed.peak_chunk_rows() <= chunk_rows.max(1));
            for (slice, (op_cov, emb_cov, op, emb)) in streamed.slices().iter().zip(&expected) {
                assert_eq!(slice.coverage.operational, *op_cov, "rows {chunk_rows}");
                assert_eq!(slice.coverage.embodied, *emb_cov, "rows {chunk_rows}");
                assert_eq!(slice.operational_total_mt, *op, "rows {chunk_rows}");
                assert_eq!(slice.embodied_total_mt, *emb, "rows {chunk_rows}");
                let name = slice.scenario.name.as_str();
                assert_eq!(
                    slice.interval,
                    in_memory.interval(name),
                    "rows {chunk_rows}"
                );
                assert_eq!(
                    slice.embodied_interval,
                    in_memory.embodied_interval(name),
                    "rows {chunk_rows}"
                );
            }
        }
    }

    #[test]
    fn streamed_results_independent_of_workers_and_granularity() {
        let list = list(60);
        let run = |workers, items| {
            Assessment::stream(InMemoryChunks::new(&list, 13))
                .scenarios(&matrix())
                .workers(workers)
                .items_per_worker(items)
                .uncertainty(50)
                .seed(3)
                .run()
                .unwrap()
        };
        let reference = run(1, 1);
        for (workers, items) in [(2, 1), (4, 4), (8, 2)] {
            let got = run(workers, items);
            for (a, b) in reference.slices().iter().zip(got.slices()) {
                assert_eq!(a.operational_total_mt, b.operational_total_mt);
                assert_eq!(a.embodied_total_mt, b.embodied_total_mt);
                assert_eq!(a.interval, b.interval, "workers {workers} items {items}");
                assert_eq!(a.embodied_interval, b.embodied_interval);
            }
        }
    }

    #[test]
    fn synthetic_source_streams_without_materializing() {
        let config = SyntheticConfig {
            n: 200,
            ..Default::default()
        };
        let streamed = Assessment::stream(SyntheticChunks::new(config, 32))
            .scenarios(&matrix())
            .run()
            .unwrap();
        assert_eq!(streamed.systems(), 200);
        assert_eq!(streamed.chunks(), 7);
        assert_eq!(streamed.peak_chunk_rows(), 32);
        let in_memory = Assessment::of(&generate_full(&config))
            .scenarios(&matrix())
            .run();
        for (slice, (op_cov, emb_cov, op, emb)) in
            streamed.slices().iter().zip(fold_in_memory(&in_memory))
        {
            assert_eq!(slice.coverage.operational, op_cov);
            assert_eq!(slice.coverage.embodied, emb_cov);
            assert_eq!(slice.operational_total_mt, op);
            assert_eq!(slice.embodied_total_mt, emb);
        }
    }

    #[test]
    fn empty_source_yields_zeroed_slices() {
        let list = list(1);
        let mut empty = InMemoryChunks::new(&list, 8);
        let _ = top500::stream::FleetChunks::next_chunk(&mut empty); // drain
        let out = Assessment::stream(empty)
            .scenarios(&matrix())
            .run()
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.systems(), 0);
        for slice in out.slices() {
            assert_eq!(slice.coverage.total, 0);
            assert_eq!(slice.operational_total_mt, 0.0);
            assert!(slice.interval.is_none());
        }
    }

    #[test]
    fn source_error_propagates() {
        struct Failing(usize);
        impl FleetChunks for Failing {
            type Error = String;
            fn next_chunk(&mut self) -> Option<Result<Top500List, String>> {
                self.0 += 1;
                if self.0 > 2 {
                    Some(Err("disk on fire".into()))
                } else {
                    Some(Ok(generate_full(&SyntheticConfig {
                        n: 5,
                        ..Default::default()
                    })))
                }
            }
        }
        let err = Assessment::stream(Failing(0)).run().unwrap_err();
        assert_eq!(err, "disk on fire");
    }

    #[test]
    fn lookup_by_name_matches_matrix_order() {
        let list = list(20);
        let out = Assessment::stream(InMemoryChunks::new(&list, 6))
            .scenarios(&matrix())
            .run()
            .unwrap();
        assert!(!out.is_empty());
        assert_eq!(out.slice("full").unwrap().coverage.total, 20);
        assert!(out.slice("missing").is_none());
    }
}
