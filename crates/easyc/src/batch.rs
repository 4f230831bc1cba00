//! Per-record assessment and the columnar result layout.
//!
//! Every path into the model assesses a record through one scenario lens:
//! `assess_view` row by row (the serial facade,
//! [`crate::estimator::EasyC`]) or `assess_columns` over a block of the
//! struct-of-arrays layout (the work-item body of the crate-internal chunk
//! engine).
//! Scenario masks are applied through the zero-copy
//! [`FleetView`]/[`SystemView`] lens layer (`crate::view`) — no record is
//! cloned per scenario — and the columnar kernels are pinned bit-identical
//! to the row reference, so every path agrees for any worker count.
//!
//! Results leave the model in one layout, the columns `scenario, rank,
//! operational_mt, embodied_mt, power_kw, pue, utilization, power_path,
//! note`, in two forms. [`FootprintCsv`] renders (scenario name,
//! footprints) blocks straight to CSV bytes in an `io::Write`: the
//! per-system artifact of `sweep --out`, the streamed spill and the served
//! sweep. The session output's
//! [`to_frame`](crate::session::SessionOutput::to_frame) builds a
//! `DataFrame` of the same columns for the `frame` group-by machinery;
//! `frame::csv::write` over that frame is byte-identical to the typed
//! writer.

use crate::columns::FleetColumns;
use crate::coverage::CoverageReport;
use crate::error::EasyCError;
use crate::estimator::SystemFootprint;
use crate::metrics::SevenMetrics;
use crate::scenario::{DataScenario, OverrideSet};
use crate::view::{FleetView, SystemView};
use crate::{embodied, operational};
use frame::csv::push_field;
use frame::{Column, DataFrame};
use std::fmt::Write as _;
use std::io;
use top500::record::SystemRecord;

/// Assesses one system through a scenario lens ([`SystemView`]). This is
/// the per-record reference path of the serial facade; the columnar
/// kernels behind [`assess_columns`] are pinned bit-identical to it, and no
/// record is cloned under any mask.
pub(crate) fn assess_view(view: &SystemView<'_>, overrides: &OverrideSet) -> SystemFootprint {
    SystemFootprint {
        rank: view.rank(),
        operational: operational::estimate_view(view, overrides),
        embodied: embodied::estimate_view(view),
    }
}

/// Assesses a contiguous block through the columnar kernels, writing one
/// footprint per row of `range` into `out`. Bit-identical to calling
/// [`assess_view`] row by row (the kernels pin that invariant); this is the
/// (scenario × sub-chunk) work-item body of the chunk engine.
pub(crate) fn assess_columns(
    columns: &FleetColumns,
    view: &FleetView<'_>,
    range: std::ops::Range<usize>,
    out: &mut [Option<SystemFootprint>],
) {
    debug_assert_eq!(out.len(), range.len());
    let start = range.start;
    let op = operational::estimate_columns(columns, view, range.clone());
    let emb = embodied::estimate_columns(columns, view, range);
    for (k, (operational, embodied)) in op.into_iter().zip(emb).enumerate() {
        out[k] = Some(SystemFootprint {
            rank: columns.rank[start + k],
            operational,
            embodied,
        });
    }
}

/// Assesses one system under one scenario (the serial facade's entry into
/// the shared code path).
pub(crate) fn assess_one(
    record: &SystemRecord,
    metrics: &SevenMetrics,
    scenario: &DataScenario,
) -> SystemFootprint {
    assess_view(
        &SystemView::new(record, metrics, scenario.mask),
        &scenario.overrides,
    )
}

/// One scenario's results from an in-memory session or resident query.
#[derive(Debug, Clone)]
pub struct ScenarioSlice {
    /// The scenario that produced this slice.
    pub scenario: DataScenario,
    /// Per-system footprints, rank order.
    pub footprints: Vec<SystemFootprint>,
    /// Coverage counts, derived from the footprints themselves (coverage
    /// is *by construction* "the estimator returned `Ok`").
    pub coverage: CoverageReport,
}

/// Columnar layout of every (scenario, system) result, the columns of
/// `COLUMNS` (nulls where not estimable). Backs the session output's
/// [`to_frame`](crate::session::SessionOutput::to_frame).
pub(crate) fn slices_to_frame(slices: &[ScenarioSlice]) -> DataFrame {
    let rows: usize = slices.iter().map(|s| s.footprints.len()).sum();
    let (mut scenario, mut rank, mut path, mut note) = (
        Vec::with_capacity(rows),
        Vec::with_capacity(rows),
        Vec::with_capacity(rows),
        Vec::with_capacity(rows),
    );
    let mut numbers: [Vec<Option<f64>>; 5] = std::array::from_fn(|_| Vec::with_capacity(rows));
    for slice in slices {
        for fp in &slice.footprints {
            scenario.push(Some(slice.scenario.name.clone()));
            rank.push(Some(i64::from(fp.rank)));
            for (column, value) in numbers.iter_mut().zip(numeric_cells(fp)) {
                column.push(value);
            }
            path.push(power_path(fp).map(str::to_string));
            note.push(note_error(fp).map(|e| e.to_string()));
        }
    }
    let [op_mt, emb_mt, power, pue, util] = numbers.map(Column::F64);
    let columns = [
        Column::Str(scenario),
        Column::I64(rank),
        op_mt,
        emb_mt,
        power,
        pue,
        util,
        Column::Str(path),
        Column::Str(note),
    ];
    let mut df = DataFrame::new();
    for (name, column) in COLUMNS.into_iter().zip(columns) {
        df.add_column(name, column)
            .expect("fresh frame with distinct names and equal-length columns");
    }
    df
}

/// The columns of every (scenario, system) result, in order: the header of
/// the CSV artifact [`FootprintCsv`] writes and the columns of the session
/// output's [`to_frame`](crate::session::SessionOutput::to_frame).
const COLUMNS: [&str; 9] = [
    "scenario",
    "rank",
    "operational_mt",
    "embodied_mt",
    "power_kw",
    "pue",
    "utilization",
    "power_path",
    "note",
];

/// The numeric cells of one result row: `operational_mt, embodied_mt,
/// power_kw, pue, utilization`.
fn numeric_cells(fp: &SystemFootprint) -> [Option<f64>; 5] {
    let op = fp.operational.as_ref().ok();
    [
        fp.operational_mt(),
        fp.embodied_mt(),
        op.map(|e| e.power_kw),
        op.map(|e| e.pue),
        op.map(|e| e.utilization),
    ]
}

/// The `power_path` cell: the operational estimate's power-path label.
fn power_path(fp: &SystemFootprint) -> Option<&'static str> {
    fp.operational.as_ref().ok().map(|e| e.path.label())
}

/// The error behind the `note` cell: the operational one, else the
/// embodied one.
fn note_error(fp: &SystemFootprint) -> Option<&EasyCError> {
    match (&fp.operational, &fp.embodied) {
        (Ok(_), Ok(_)) => None,
        (Err(e), _) | (_, Err(e)) => Some(e),
    }
}

/// Rendered bytes a [`FootprintCsv`] holds before it hands them on.
const FLUSH_BYTES: usize = 64 * 1024;

/// Typed CSV writer of the per-(scenario, system) artifact.
///
/// Streams `(scenario name, &[SystemFootprint])` blocks straight into an
/// [`io::Write`]: no `DataFrame`, no `Value`, and no heap allocation per
/// cell — rows render into one reused buffer, handed on every 64 KiB and
/// at the end of each call. Floats go through their `{}` `Display` and
/// text fields through `frame::csv::push_field`, so the bytes equal
/// `frame::csv::write` over the session output's
/// [`to_frame`](crate::session::SessionOutput::to_frame): a header, then
/// blocks in scenario-major order, reproduce that artifact byte for byte
/// however the blocks were chunked.
///
/// ```
/// use easyc::batch::FootprintCsv;
/// use easyc::Assessment;
/// use top500::synthetic::{generate_full, SyntheticConfig};
///
/// let list = generate_full(&SyntheticConfig { n: 20, ..Default::default() });
/// let output = Assessment::of(&list).run();
/// let mut bytes = Vec::new();
/// let mut csv = FootprintCsv::new();
/// csv.write_header(&mut bytes)?;
/// for slice in output.slices() {
///     csv.write_rows(&mut bytes, &slice.scenario.name, &slice.footprints)?;
/// }
/// assert_eq!(bytes, frame::csv::write(&output.to_frame()).into_bytes());
/// # Ok::<(), std::io::Error>(())
/// ```
#[derive(Debug, Default)]
pub struct FootprintCsv {
    /// Rendered rows not yet handed to the writer.
    buf: String,
    /// The current block's scenario name, already quoted.
    scenario: String,
    /// Scratch for one error note before it is quoted.
    note: String,
}

impl FootprintCsv {
    /// A writer with empty buffers.
    pub fn new() -> FootprintCsv {
        FootprintCsv::default()
    }

    /// Writes the header line: the column names of the layout.
    pub fn write_header(&mut self, out: &mut impl io::Write) -> io::Result<()> {
        self.push_header();
        self.hand_on(out)
    }

    /// Writes one row per footprint, every row tagged `scenario`.
    pub fn write_rows(
        &mut self,
        out: &mut impl io::Write,
        scenario: &str,
        footprints: &[SystemFootprint],
    ) -> io::Result<()> {
        self.start_block(scenario);
        for fp in footprints {
            self.push_row(fp);
            if self.buf.len() >= FLUSH_BYTES {
                self.hand_on(out)?;
            }
        }
        self.hand_on(out)
    }

    /// Renders the header into the buffer.
    pub(crate) fn push_header(&mut self) {
        for (i, name) in COLUMNS.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            push_field(&mut self.buf, name);
        }
        self.buf.push('\n');
    }

    /// Renders one row per footprint into the buffer, every row tagged
    /// `scenario`, without handing anything on.
    pub(crate) fn push_rows(&mut self, scenario: &str, footprints: &[SystemFootprint]) {
        self.start_block(scenario);
        for fp in footprints {
            self.push_row(fp);
        }
    }

    /// Everything rendered and not yet handed on.
    pub(crate) fn into_string(self) -> String {
        self.buf
    }

    /// Quotes `scenario` once for the rows of the next block.
    fn start_block(&mut self, scenario: &str) {
        self.scenario.clear();
        push_field(&mut self.scenario, scenario);
    }

    /// Renders one row into the buffer. Writing into a `String` cannot
    /// fail, so the `fmt` results are dropped.
    fn push_row(&mut self, fp: &SystemFootprint) {
        let FootprintCsv {
            buf,
            scenario,
            note,
        } = self;
        buf.push_str(scenario);
        let _ = write!(buf, ",{}", fp.rank);
        for value in numeric_cells(fp) {
            buf.push(',');
            if let Some(v) = value {
                let _ = write!(buf, "{v}");
            }
        }
        buf.push(',');
        if let Some(label) = power_path(fp) {
            push_field(buf, label);
        }
        buf.push(',');
        if let Some(e) = note_error(fp) {
            note.clear();
            let _ = write!(note, "{e}");
            push_field(buf, note);
        }
        buf.push('\n');
    }

    /// Hands the buffered bytes to `out` and empties the buffer.
    fn hand_on(&mut self, out: &mut impl io::Write) -> io::Result<()> {
        let result = out.write_all(self.buf.as_bytes());
        self.buf.clear();
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{MetricBit, MetricMask, ScenarioMatrix};
    use crate::session::Assessment;
    use top500::list::Top500List;
    use top500::synthetic::{generate_full, mask_baseline, MaskRates, SyntheticConfig};

    fn list() -> Top500List {
        generate_full(&SyntheticConfig {
            n: 80,
            ..Default::default()
        })
    }

    #[test]
    fn matrix_shares_context_and_reports_coverage() {
        let full = list();
        let masked = mask_baseline(&full, &MaskRates::default(), 3);
        let matrix =
            ScenarioMatrix::new()
                .with(DataScenario::full("full"))
                .with(DataScenario::masked(
                    "no-structure",
                    MetricMask::ALL
                        .without(MetricBit::Nodes)
                        .without(MetricBit::Gpus)
                        .without(MetricBit::Cpus),
                ));
        let out = Assessment::of(&masked).scenarios(&matrix).run();
        assert_eq!(out.slices().len(), 2);
        let full_slice = out.slice("full").unwrap();
        let degraded = out.slice("no-structure").unwrap();
        assert_eq!(full_slice.coverage.total, masked.len());
        // Hiding the structural metrics can only reduce coverage.
        assert!(degraded.coverage.embodied <= full_slice.coverage.embodied);
        assert!(degraded.coverage.operational <= full_slice.coverage.operational);
        // And it must reduce embodied coverage on a realistic list.
        assert!(degraded.coverage.embodied < full_slice.coverage.embodied);
    }

    #[test]
    fn override_scenario_scales_inside_stages() {
        let list = list();
        let base = Assessment::of(&list)
            .scenario(DataScenario::full("base"))
            .run()
            .into_footprints();
        let double_pue = DataScenario::full("pue2").with_overrides(OverrideSet {
            pue: Some(2.6),
            ..OverrideSet::NONE
        });
        let overridden = Assessment::of(&list)
            .scenario(double_pue)
            .run()
            .into_footprints();
        for (b, o) in base.iter().zip(&overridden) {
            if let (Ok(b), Ok(o)) = (&b.operational, &o.operational) {
                assert_eq!(o.pue, 2.6);
                let expected = b.mt_co2e / b.pue * 2.6;
                assert!((o.mt_co2e - expected).abs() < 1e-9 * expected.abs().max(1.0));
            }
        }
    }

    #[test]
    fn frame_layout_covers_every_scenario_row() {
        let list = list();
        let matrix = ScenarioMatrix::new()
            .with(DataScenario::full("a"))
            .with(DataScenario::full("b"));
        let out = Assessment::of(&list).scenarios(&matrix).run();
        let df = out.to_frame();
        assert_eq!(df.len(), 2 * list.len());
        assert_eq!(df.width(), 9);
        let op = df.numeric("operational_mt").unwrap();
        let covered = op.iter().filter(|v| v.is_some()).count();
        assert_eq!(
            covered,
            out.slices()
                .iter()
                .map(|s| s.coverage.operational)
                .sum::<usize>()
        );
    }

    #[test]
    fn coverage_from_footprints_matches_estimator_construction() {
        let full = list();
        let masked = mask_baseline(&full, &MaskRates::default(), 5);
        let footprints = Assessment::of(&masked).run().into_footprints();
        let cov = CoverageReport::from_footprints(&footprints);
        assert_eq!(cov, crate::coverage::coverage(&masked));
    }
}
