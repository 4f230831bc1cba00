#![warn(missing_docs)]

//! `easyc` — the paper's primary contribution: a carbon-footprint model for
//! computing systems that needs only **seven key data metrics** instead of
//! the GHG Protocol's hundreds.
//!
//! The tool produces two outputs per system:
//!
//! - **Operational carbon** (1 year, MT CO2e): facility energy × average
//!   carbon intensity of the local grid. Facility energy is derived from the
//!   best available *power path* — measured annual energy, measured LINPACK
//!   power, device-level TDP roll-up, or an Rmax/efficiency prior — times
//!   PUE and utilisation priors from [`hwdb`].
//! - **Embodied carbon** (MT CO2e): an ACT-style component roll-up — CPU and
//!   accelerator dies (area × fab intensity / yield), HBM and DRAM, SSD,
//!   chassis and interconnect — with statistical priors filling anything
//!   the seven metrics do not pin down.
//!
//! # The `Assessment` session
//!
//! Every fleet-scale workload — plain assessment, scenario matrices,
//! Monte-Carlo uncertainty — goes through one planned, pool-executed
//! session:
//!
//! ```
//! use easyc::{Assessment, DataScenario, MetricBit, MetricMask, ScenarioMatrix};
//! use top500::synthetic::{generate_full, SyntheticConfig};
//!
//! let list = generate_full(&SyntheticConfig { n: 40, ..Default::default() });
//! let matrix = ScenarioMatrix::new()
//!     .with(DataScenario::full("full"))
//!     .with(DataScenario::masked(
//!         "no-power",
//!         MetricMask::ALL
//!             .without(MetricBit::PowerKw)
//!             .without(MetricBit::AnnualEnergy),
//!     ));
//!
//! let output = Assessment::of(&list)   // borrows the fleet, clones nothing
//!     .scenarios(&matrix)              // (scenario × chunk) items, one pool
//!     .workers(4)
//!     .run();
//!
//! let full = output.slice("full").expect("scenario present"); // O(1) lookup
//! assert_eq!(full.footprints.len(), 40);
//! assert!(full.coverage.operational >= output.slice("no-power").unwrap().coverage.operational);
//! ```
//!
//! Adding `.uncertainty(1000)` attaches fleet-total operational and
//! embodied [`uncertainty::Interval`]s per scenario, computed on the same
//! pool from the same footprints under one [`uncertainty::DrawPlan`]. The
//! plan's RNG streams are keyed by (system, draw index) — never by
//! scenario — so every scenario replays identical per-system perturbations
//! (common random numbers) and
//! [`AssessmentOutput::compare`](session::AssessmentOutput::compare) can
//! pair them into [`uncertainty::ScenarioDelta`] difference intervals far
//! tighter than differencing two independent bands. Masks are applied
//! through the zero-copy [`FleetView`]/[`SystemView`] lens layer — a
//! masked sweep performs zero per-record clones (pinned by tests).
//!
//! For fleets too large to hold in memory, [`Assessment::stream`] runs the
//! same plan incrementally over any chunked
//! [`top500::stream::FleetChunks`] source, folding per-chunk results into
//! totals, coverage and intervals that are bit-identical to the in-memory
//! session — see [`stream`]. Both, and the resident [`state::QueryPlan`],
//! are one builder over one chunk engine: the in-memory session is a
//! single chunk, the stream one call per chunk.
//!
//! The module structure mirrors the paper, plus the execution layers:
//!
//! - [`metrics`] — the seven metrics and their extraction.
//! - [`operational`] / [`embodied`] — the two estimators; overrides are
//!   applied inside the computation ([`operational::estimate_view`]).
//! - [`columns`] — the struct-of-arrays fast path
//!   ([`columns::FleetColumns`] + `estimate_columns` kernels), bit-identical
//!   to the row-at-a-time reference.
//! - [`mod@coverage`] — who can be estimated under which data scenario.
//! - [`scenario`] — composable data scenarios: per-metric availability
//!   masks ([`scenario::MetricMask`]), prior overrides
//!   ([`scenario::OverrideSet`]) and scenario matrices
//!   ([`scenario::ScenarioMatrix`]).
//! - [`view`] — the borrowed, field-level scenario lenses
//!   ([`view::FleetView`], [`view::SystemView`]).
//! - [`session`] — the one builder ([`session::Session`], named
//!   [`Assessment`], [`StreamingAssessment`] or [`QueryPlan`] by source)
//!   and the one output shell ([`session::SessionOutput`]).
//! - `engine` — the crate-internal chunk engine every session runs:
//!   extraction, (scenario × sub-chunk) estimation, fold and blocked draws
//!   over one chunk at its global first row.
//! - [`stream`] — the incremental (chunked, larger-than-memory) session.
//! - [`partial`] — the mergeable, retractable fold state both sessions
//!   accumulate through ([`partial::PartialAssessment`]): absorb footprint
//!   blocks, merge adjacent rank ranges, retract a trailing range back
//!   out, collapse through the pinned [`fold`] shape — what makes sharded
//!   ingest, scale-out and incremental re-assessment deterministic.
//! - [`state`] — the resident-service layer: a long-lived
//!   [`state::FleetState`] (parsed list, Phase-1 metrics, columnar layout
//!   and a content-hash-keyed footprint cache) answering cheap borrowed
//!   [`state::QueryPlan`]s, bit-identical to a cold session.
//! - [`batch`] — per-record assessment and the columnar result layout.
//! - [`estimator`] — the per-system facade, routed through the same code
//!   path as the session.
//! - [`uncertainty`] — Monte-Carlo bands under one [`uncertainty::DrawPlan`]
//!   (common random numbers across scenarios, paired
//!   [`uncertainty::ScenarioDelta`] comparisons); fleet-scale intervals
//!   are served by the session.

pub mod batch;
pub mod columns;
pub mod coverage;
pub mod embodied;
mod engine;
pub mod error;
pub mod estimator;
pub mod fold;
pub mod metrics;
pub mod operational;
pub mod partial;
pub mod scenario;
pub mod session;
pub mod state;
pub mod stream;
pub mod uncertainty;
pub mod view;

pub use batch::ScenarioSlice;
pub use columns::FleetColumns;
pub use coverage::{coverage, CoverageReport, Scenario};
pub use embodied::{EmbodiedBreakdown, EmbodiedEstimate};
pub use error::{EasyCError, Result};
pub use estimator::{EasyC, EasyCConfig, SystemFootprint};
pub use metrics::SevenMetrics;
pub use operational::{AciSource, OperationalEstimate, PowerPath};
pub use partial::{FleetTotals, MergeError, PartialAssessment, RetractError};
pub use scenario::{DataScenario, MetricBit, MetricMask, OverrideSet, ScenarioMatrix};
pub use session::{Assessment, AssessmentOutput};
pub use state::{content_hash, FleetState, InvalidateOutcome, QueryPlan, UpdateError};
pub use stream::{ChunkRows, RowSink, StreamOutput, StreamSlice, StreamingAssessment};
pub use uncertainty::{DrawPlan, Interval, PriorUncertainty, ScenarioDelta};
pub use view::{FleetView, SystemView};
