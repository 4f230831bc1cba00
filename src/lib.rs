//! Umbrella crate for the Top 500 / EasyC carbon-footprint reproduction.
//!
//! This crate re-exports the workspace members so the examples and
//! integration tests in the repository root can use a single import path.
//! The actual implementation lives in `crates/*`:
//!
//! - [`easyc`] — the paper's primary contribution: the seven-metric carbon
//!   footprint model (operational + embodied), including the composable
//!   data-scenario layer (`easyc::scenario`: availability masks, prior
//!   overrides, scenario matrices) and one chunk engine behind the
//!   `easyc::Assessment` session — in memory, streamed or as a resident
//!   query — pool-parallel and bit-identical to the serial path.
//! - [`top500`] — the Top 500 dataset substrate (embedded appendix Table II,
//!   synthetic list generator, public-info enrichment).
//! - [`hwdb`] — hardware and carbon-factor databases.
//! - [`ghg`] — the GHG-protocol style exhaustive accounting baseline.
//! - [`analysis`] — study pipelines regenerating every paper table and
//!   figure, scenario sweeps (`analysis::fleet::scenario_sweep`) and
//!   batch-slice sensitivity (`analysis::sensitivity::from_footprints`).
//! - [`frame`] — columnar mini-dataframe and statistics substrate (session
//!   results are exposed columnar via `easyc::AssessmentOutput::to_frame`).
//! - [`parallel`] — std-only deterministic parallel execution substrate.
//! - [`serve`] — the resident-assessment service: a std-only JSONL-over-TCP
//!   front end over a warm `easyc::FleetState` (CLI `serve` / `query`).

pub use analysis;
pub use easyc;
pub use frame;
pub use ghg;
pub use hwdb;
pub use parallel;
pub use serve;
pub use top500;
