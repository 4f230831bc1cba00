//! Mergeable partial-assessment state — the engine's fold as a monoid.
//!
//! Every fleet total in the engine used to exist only as a *running*
//! accumulator: a strict left fold in rank order, owned by whichever loop
//! was doing the folding (the streaming session's private `Fold`, the
//! in-memory session's reduction). That shape is deterministic *because it
//! is serial* — there is exactly one consumer, and it sees every footprint
//! in rank order. [`PartialAssessment`] refactors the same state into a
//! value that can be **split, shipped, and merged**:
//!
//! - [`PartialAssessment::identity`] — the empty state (the monoid unit);
//! - [`PartialAssessment::absorb`] — fold a block of footprints starting
//!   at a given global row, term by term, exactly as the serial fold does;
//! - [`PartialAssessment::merge`] — combine two partials over *adjacent*
//!   rank ranges (`left` ends where `right` starts), checked, total-order
//!   free;
//! - [`PartialAssessment::retract`] — subtract a trailing rank range back
//!   out, restoring the exact state the fold had before those rows were
//!   absorbed (the inverse the resident service's O(k) incremental
//!   re-assessment needs);
//! - [`PartialAssessment::finish`] — collapse to [`FleetTotals`] through
//!   [`crate::fold::sum_f64`] in range order.
//!
//! # Determinism: the pinned merge shape
//!
//! IEEE-754 addition is not associative, so *no* subtotal-merging scheme
//! can be bit-identical to the term-level serial fold for every possible
//! regrouping — if it could, float addition would be associative. The
//! monoid therefore pins determinism structurally instead:
//!
//! 1. **`merge` performs zero floating-point arithmetic.** A partial
//!    carries its state per contiguous `[start, end)` rank-range
//!    *segment*; merging concatenates the two segment lists (adjacency-
//!    checked at the junction). List concatenation is associative, so
//!    **every merge tree over the same leaves — left spine, right spine,
//!    balanced, arbitrary — yields the same segment list**, independent of
//!    worker count and arrival order (pinned by `tests/proptests.rs` at
//!    arbitrary shapes).
//! 2. **All float accumulation happens in exactly two pinned places**:
//!    inside [`absorb`](PartialAssessment::absorb), which extends a
//!    segment term-by-term in rank order (the serial left fold, verbatim),
//!    and inside [`finish`](PartialAssessment::finish), which folds the
//!    segment subtotals in range order through [`crate::fold::sum_f64`] —
//!    the *fixed merge shape*.
//! 3. **A single consumer coalesces.** Absorbing block after adjacent
//!    block into one partial extends one segment — no subtotal boundaries
//!    are ever introduced — so the single-consumer paths (the in-memory
//!    session, the streaming fold, and sharded ingest with ordered
//!    delivery) produce a one-segment partial whose `finish` is
//!    *bit-identical to today's left fold* over the whole fleet. A
//!    multi-segment partial (true scale-out: independent shards folded
//!    separately, merged at the end) is deterministic under rule 1–2 —
//!    same bits for any tree shape, worker count, or arrival order — but
//!    its grouping is the segment boundaries, not the individual terms.
//!
//! This is what turns "deterministic because serial" into "deterministic
//! because the merge shape is pinned": the bits are a function of the
//! segment decomposition alone, and the engine's own decompositions are
//! all single-segment.
//!
//! # Retraction: the fold's inverse, without float subtraction
//!
//! IEEE-754 addition is not invertible either — `(a + b) - b` need not be
//! `a` — so [`retract`](PartialAssessment::retract) never subtracts.
//! Instead, every segment records a scalar **checkpoint** (a copy of its
//! accumulators, no arithmetic) every `CHECKPOINT_EVERY` absorbed rows.
//! Retracting a trailing range drops whole segments float-free, restores
//! the split segment to its last checkpoint at or before the cut
//! (float-free again), and re-folds at most `CHECKPOINT_EVERY − 1` rows
//! forward through the *same* per-row fold `absorb` uses. The result is
//! definitionally the state of the serial fold over the kept prefix —
//! bit-identical to a partial rebuilt from scratch without the retracted
//! rows (pinned by `tests/proptests.rs` at arbitrary cuts).

use crate::coverage::CoverageReport;
use crate::estimator::SystemFootprint;
use crate::fold;
use std::fmt;
use std::ops::Range;

/// Rows between the scalar checkpoints a segment records while absorbing
/// — the maximum re-fold a [`PartialAssessment::retract`] ever performs.
/// A constant of the representation (not a tuning knob): two partials over
/// the same rows carry the same checkpoints regardless of how the
/// absorption was chunked, so `PartialEq` stays decomposition-determined.
pub(crate) const CHECKPOINT_EVERY: usize = 256;

/// A copy of one segment's scalar accumulators after its first `rows`
/// rows. Pure state capture — recording and restoring a checkpoint
/// performs no floating-point arithmetic. Draw buffers are *not*
/// checkpointed: they are filled by the Monte-Carlo kernels after
/// absorption, so a retraction that splits a segment resets them (see
/// [`PartialAssessment::retract`]).
#[derive(Debug, Clone, PartialEq)]
struct Checkpoint {
    /// Rows of the segment this checkpoint covers (multiple of
    /// [`CHECKPOINT_EVERY`]).
    rows: usize,
    op_covered: usize,
    emb_covered: usize,
    op_errors: usize,
    emb_errors: usize,
    op_total: f64,
    emb_total: f64,
}

/// Accumulated state of one contiguous `[start, end)` rank range: the
/// exact fields the serial fold keeps, tagged with the range they cover.
#[derive(Debug, Clone, PartialEq)]
struct Segment {
    /// First global row (0-based) this segment covers.
    start: usize,
    /// One past the last global row this segment covers.
    end: usize,
    /// Rows absorbed (`end - start`).
    total: usize,
    /// Rows with an operational estimate.
    op_covered: usize,
    /// Rows with an embodied estimate.
    emb_covered: usize,
    /// Rows whose operational estimate errored (not coverable).
    op_errors: usize,
    /// Rows whose embodied estimate errored.
    emb_errors: usize,
    /// Left fold of covered operational `mt_co2e` in rank order.
    op_total: f64,
    /// Left fold of covered embodied `mt_co2e` in rank order.
    emb_total: f64,
    /// Per-sample partial sums of the operational Monte-Carlo terms.
    op_draws: Vec<f64>,
    /// Per-sample partial sums of the embodied Monte-Carlo terms.
    emb_draws: Vec<f64>,
    /// Scalar checkpoints every [`CHECKPOINT_EVERY`] rows, ascending —
    /// what bounds a retraction's re-fold (see the [module docs](self)).
    checkpoints: Vec<Checkpoint>,
}

impl Segment {
    fn empty(start: usize, draws: usize) -> Segment {
        Segment {
            start,
            end: start,
            total: 0,
            op_covered: 0,
            emb_covered: 0,
            op_errors: 0,
            emb_errors: 0,
            op_total: 0.0,
            emb_total: 0.0,
            op_draws: vec![0.0; draws],
            emb_draws: vec![0.0; draws],
            checkpoints: Vec::new(),
        }
    }

    /// Folds one footprint into the accumulators — **the** per-row fold.
    /// Both `absorb` and the re-fold inside `retract` run this exact code,
    /// which is what keeps every float addition at one pinned site.
    fn fold_row(&mut self, fp: &SystemFootprint) {
        self.total += 1;
        match &fp.operational {
            Ok(op) => {
                self.op_covered += 1;
                self.op_total += op.mt_co2e;
            }
            Err(_) => self.op_errors += 1,
        }
        match &fp.embodied {
            Ok(emb) => {
                self.emb_covered += 1;
                self.emb_total += emb.mt_co2e;
            }
            Err(_) => self.emb_errors += 1,
        }
        self.end += 1;
        if self.total.is_multiple_of(CHECKPOINT_EVERY) {
            self.checkpoints.push(Checkpoint {
                rows: self.total,
                op_covered: self.op_covered,
                emb_covered: self.emb_covered,
                op_errors: self.op_errors,
                emb_errors: self.emb_errors,
                op_total: self.op_total,
                emb_total: self.emb_total,
            });
        }
    }

    /// Rewinds the scalar accumulators to cover only the first `keep` rows
    /// (float-free checkpoint restore), then returns how many rows the
    /// caller must re-fold forward — always `< CHECKPOINT_EVERY`.
    fn rewind_scalars(&mut self, keep: usize) {
        let at = self
            .checkpoints
            .iter()
            .rposition(|ck| ck.rows <= keep)
            .map(|i| self.checkpoints[i].clone());
        match at {
            Some(ck) => {
                self.checkpoints.retain(|c| c.rows <= ck.rows);
                self.total = ck.rows;
                self.op_covered = ck.op_covered;
                self.emb_covered = ck.emb_covered;
                self.op_errors = ck.op_errors;
                self.emb_errors = ck.emb_errors;
                self.op_total = ck.op_total;
                self.emb_total = ck.emb_total;
            }
            None => {
                self.checkpoints.clear();
                self.total = 0;
                self.op_covered = 0;
                self.emb_covered = 0;
                self.op_errors = 0;
                self.emb_errors = 0;
                self.op_total = 0.0;
                self.emb_total = 0.0;
            }
        }
        self.end = self.start + self.total;
    }
}

/// Why two partials refused to [`merge`](PartialAssessment::merge).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergeError {
    /// The two sides were built for different Monte-Carlo draw counts, so
    /// their per-sample buffers cannot be aligned.
    DrawMismatch {
        /// Draw count of the left partial.
        left: usize,
        /// Draw count of the right partial.
        right: usize,
    },
    /// The left side does not end exactly where the right side starts —
    /// merging would silently skip or double-count rows.
    NotAdjacent {
        /// One past the last row the left partial covers.
        left_end: usize,
        /// First row the right partial covers.
        right_start: usize,
    },
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::DrawMismatch { left, right } => write!(
                f,
                "cannot merge partials with different draw counts ({left} vs {right})"
            ),
            MergeError::NotAdjacent {
                left_end,
                right_start,
            } => write!(
                f,
                "cannot merge non-adjacent partials (left ends at row {left_end}, \
                 right starts at row {right_start})"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// Why a [`PartialAssessment::retract`] was refused. Every variant is a
/// caller error — a refused retract leaves the partial untouched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetractError {
    /// Nothing has been absorbed: the identity has no tail to subtract.
    Identity,
    /// The range was empty (`start >= end`).
    EmptyRange {
        /// The degenerate range's start.
        start: usize,
        /// The degenerate range's end.
        end: usize,
    },
    /// The range does not end at the partial's current end row — only the
    /// trailing range can be subtracted without breaking the serial-fold
    /// bits.
    NotTrailing {
        /// One past the last row the caller asked to retract.
        range_end: usize,
        /// One past the last row the partial actually covers.
        end: usize,
    },
    /// The cut splits a segment, so rows must re-fold forward from the
    /// restored checkpoint, but the supplied footprint slice does not span
    /// the cut (`footprints[row]` is read for each re-folded global row).
    MissingPrefix {
        /// Rows the slice must span (`range.start`).
        needed: usize,
        /// Rows the slice actually spans.
        got: usize,
    },
}

impl fmt::Display for RetractError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetractError::Identity => write!(f, "cannot retract from the identity partial"),
            RetractError::EmptyRange { start, end } => {
                write!(f, "cannot retract the empty range [{start}, {end})")
            }
            RetractError::NotTrailing { range_end, end } => write!(
                f,
                "only the trailing range can be retracted (range ends at row \
                 {range_end}, partial ends at row {end})"
            ),
            RetractError::MissingPrefix { needed, got } => write!(
                f,
                "retract must re-fold up to the cut but the footprint slice \
                 spans only {got} rows (needs {needed})"
            ),
        }
    }
}

impl std::error::Error for RetractError {}

/// Collapsed fleet totals of one [`PartialAssessment::finish`] — the
/// per-scenario roll-up every engine consumer builds its slice from.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FleetTotals {
    /// Rows absorbed.
    pub total: usize,
    /// Rows with an operational estimate.
    pub op_covered: usize,
    /// Rows with an embodied estimate.
    pub emb_covered: usize,
    /// Rows whose operational estimate errored.
    pub op_errors: usize,
    /// Rows whose embodied estimate errored.
    pub emb_errors: usize,
    /// Fleet-total operational carbon over covered systems, MT CO2e/yr.
    pub operational_mt: f64,
    /// Fleet-total embodied carbon over covered systems, MT CO2e.
    pub embodied_mt: f64,
    /// Retained per-sample operational draw sums (empty when no system was
    /// operationally covered — the engine's retention policy).
    pub op_draws: Vec<f64>,
    /// Retained per-sample embodied draw sums (empty when no system was
    /// embodied-covered).
    pub emb_draws: Vec<f64>,
}

impl FleetTotals {
    /// Coverage counts of the absorbed rows — the fold already counted
    /// them, so no second pass over the footprints is needed.
    pub(crate) fn coverage(&self) -> CoverageReport {
        CoverageReport {
            operational: self.op_covered,
            embodied: self.emb_covered,
            total: self.total,
        }
    }
}

/// Mergeable fold state over rank ranges — see the [module docs](self).
///
/// A partial is a list of non-overlapping, ascending `[start, end)`
/// segments. The engine's single-consumer paths keep it at exactly one
/// segment (each absorbed block extends the last), which is what makes
/// their [`finish`](PartialAssessment::finish) bit-identical to the serial
/// left fold; independent shards each build their own partial and
/// [`merge`](PartialAssessment::merge) at the end, O(shards) state.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialAssessment {
    draws: usize,
    segments: Vec<Segment>,
}

impl PartialAssessment {
    /// The monoid unit: covers no rows, merges with anything.
    pub fn identity(draws: usize) -> PartialAssessment {
        PartialAssessment {
            draws,
            segments: Vec::new(),
        }
    }

    /// Monte-Carlo draw count the per-sample buffers are sized for.
    pub fn draws(&self) -> usize {
        self.draws
    }

    /// True when nothing has been absorbed (the unit).
    pub fn is_identity(&self) -> bool {
        self.segments.is_empty()
    }

    /// Number of contiguous rank-range segments held. Single-consumer
    /// absorption over adjacent blocks keeps this at 1; it grows only when
    /// partials over disjoint ranges are merged (one per shard).
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Overall `[start, end)` row span, `None` for the identity. The span
    /// may contain interior gaps if absorbed blocks skipped rows.
    pub fn range(&self) -> Option<(usize, usize)> {
        match (self.segments.first(), self.segments.last()) {
            (Some(first), Some(last)) => Some((first.start, last.end)),
            _ => None,
        }
    }

    /// Folds a block of footprints starting at global row `first_row` into
    /// this partial — term by term, in order, with the exact additions the
    /// serial fold performs. When the block starts where the last segment
    /// ends (the single-consumer case), the segment *extends* and no
    /// subtotal boundary is introduced; otherwise a new segment opens at
    /// `first_row`.
    ///
    /// # Panics
    ///
    /// Panics if the block overlaps rows already absorbed
    /// (`first_row < end` of the last segment) — overlapping absorption
    /// would double-count systems.
    pub fn absorb(&mut self, first_row: usize, footprints: &[SystemFootprint]) {
        if footprints.is_empty() {
            return;
        }
        let extends = matches!(self.segments.last(), Some(last) if last.end == first_row);
        if !extends {
            if let Some(last) = self.segments.last() {
                assert!(
                    first_row >= last.end,
                    "absorbed blocks may not overlap: block starts at row {first_row} \
                     but rows up to {} are already absorbed",
                    last.end
                );
            }
            self.segments.push(Segment::empty(first_row, self.draws));
        }
        // audit: allow(panic-surface) — the branch above pushes a segment when the list is empty
        let seg = self.segments.last_mut().expect("segment ensured above");
        for fp in footprints {
            seg.fold_row(fp);
        }
    }

    /// Subtracts a trailing rank range back out: after
    /// `retract(range, footprints)` succeeds, the partial is **bit-
    /// identical** to one whose absorption history simply stopped at row
    /// `range.start` — the inverse operation the resident service's O(k)
    /// incremental re-assessment is built on. `range.end` must equal the
    /// partial's current end row (only the tail can be subtracted; interior
    /// holes would break the left-fold bits); `range.start` may fall
    /// anywhere at or after the partial's first row, including inside a
    /// segment or inside an inter-segment gap.
    ///
    /// No floating-point subtraction happens here. Whole trailing segments
    /// are dropped and checkpoints restored verbatim; only the final
    /// `< CHECKPOINT_EVERY` rows ahead of the restored checkpoint re-fold
    /// forward — through [the same per-row fold](PartialAssessment::absorb)
    /// `absorb` runs, reading `footprints[row]` for each re-folded global
    /// row. `footprints` must therefore be indexed by global row and hold
    /// the same values originally absorbed (the resident cache): it is read
    /// only on the re-fold window, but must span at least `range.start`
    /// rows when the cut splits a segment.
    ///
    /// Draw buffers: segments untouched by the cut keep their per-sample
    /// buffers; a segment *split* by the cut gets its buffers reset to
    /// zero, because the Monte-Carlo contributions of the retracted rows
    /// cannot be float-subtracted — re-run the draw kernels over the
    /// segment's remaining rows (exactly what a partial rebuilt without
    /// the retracted rows would need too).
    pub fn retract(
        &mut self,
        range: Range<usize>,
        footprints: &[SystemFootprint],
    ) -> Result<(), RetractError> {
        let (first, end) = self.range().ok_or(RetractError::Identity)?;
        if range.start >= range.end {
            return Err(RetractError::EmptyRange {
                start: range.start,
                end: range.end,
            });
        }
        if range.end != end {
            return Err(RetractError::NotTrailing {
                range_end: range.end,
                end,
            });
        }
        if range.start <= first {
            self.segments.clear();
            return Ok(());
        }
        // Drop every segment that lies entirely at or after the cut —
        // pure truncation, no arithmetic.
        self.segments.retain(|seg| seg.start < range.start);
        // audit: allow(panic-surface) — the contract check above guarantees a segment containing the cut survives `retain`
        let seg = self.segments.last_mut().expect("cut is after `first`");
        if seg.end <= range.start {
            // The cut fell in a gap between segments: the tail is gone and
            // the kept segments are untouched.
            return Ok(());
        }
        // The cut splits `seg`: restore its last checkpoint at or before
        // the cut, then re-fold forward to the cut through the absorb fold.
        if footprints.len() < range.start {
            return Err(RetractError::MissingPrefix {
                needed: range.start,
                got: footprints.len(),
            });
        }
        seg.rewind_scalars(range.start - seg.start);
        seg.op_draws.fill(0.0);
        seg.emb_draws.fill(0.0);
        for fp in &footprints[seg.end..range.start] {
            seg.fold_row(fp);
        }
        Ok(())
    }

    /// Mutable access to the trailing segment's per-sample draw buffers,
    /// `(operational, embodied)`, each of length [`draws`](Self::draws) —
    /// where the engine's blocked Monte-Carlo kernels accumulate their
    /// `*slot += term` partial sums. `None` for the identity.
    pub fn draw_slots(&mut self) -> Option<(&mut [f64], &mut [f64])> {
        self.segments
            .last_mut()
            .map(|seg| (seg.op_draws.as_mut_slice(), seg.emb_draws.as_mut_slice()))
    }

    /// Merges two partials over adjacent rank ranges: `self` (the left,
    /// lower-rank side) must end exactly where `right` starts. The merge
    /// is pure segment-list concatenation — **no floating-point arithmetic
    /// happens here**, which is why every merge-tree shape over the same
    /// leaves commits to the same bits (see the [module docs](self)). The
    /// identity merges with anything, from either side, regardless of its
    /// draw count.
    pub fn merge(self, right: PartialAssessment) -> Result<PartialAssessment, MergeError> {
        if self.segments.is_empty() {
            return Ok(right);
        }
        if right.segments.is_empty() {
            return Ok(self);
        }
        if self.draws != right.draws {
            return Err(MergeError::DrawMismatch {
                left: self.draws,
                right: right.draws,
            });
        }
        // audit: allow(panic-surface) — identity operands returned early above, so both segment lists are non-empty
        let left_end = self.segments.last().expect("non-empty").end;
        // audit: allow(panic-surface) — identity operands returned early above, so both segment lists are non-empty
        let right_start = right.segments.first().expect("non-empty").start;
        if left_end != right_start {
            return Err(MergeError::NotAdjacent {
                left_end,
                right_start,
            });
        }
        let mut segments = self.segments;
        segments.extend(right.segments);
        Ok(PartialAssessment {
            draws: self.draws,
            segments,
        })
    }

    /// Collapses the partial into [`FleetTotals`], folding the segment
    /// subtotals (scalars and per-sample draw buffers alike) in range
    /// order through [`crate::fold::sum_f64`] — the pinned merge shape.
    ///
    /// A one-segment partial (every single-consumer engine path) returns
    /// its state verbatim — the accumulation already *was* the serial left
    /// fold, so no re-folding touches the bits. Draw buffers of a family
    /// with zero coverage are dropped (empty vector), matching the
    /// sessions' retention policy.
    pub fn finish(mut self) -> FleetTotals {
        let keep = |covered: usize, buffer: Vec<f64>| -> Vec<f64> {
            if covered == 0 {
                Vec::new()
            } else {
                buffer
            }
        };
        if self.segments.len() == 1 {
            // audit: allow(panic-surface) — guarded by the `len() == 1` test on the line above
            let seg = self.segments.pop().expect("one segment");
            return FleetTotals {
                total: seg.total,
                op_covered: seg.op_covered,
                emb_covered: seg.emb_covered,
                op_errors: seg.op_errors,
                emb_errors: seg.emb_errors,
                operational_mt: seg.op_total,
                embodied_mt: seg.emb_total,
                op_draws: keep(seg.op_covered, seg.op_draws),
                emb_draws: keep(seg.emb_covered, seg.emb_draws),
            };
        }
        let segments = &self.segments;
        let op_covered: usize = segments.iter().map(|s| s.op_covered).sum();
        let emb_covered: usize = segments.iter().map(|s| s.emb_covered).sum();
        let fold_slots = |covered: usize, pick: fn(&Segment) -> &[f64]| -> Vec<f64> {
            if covered == 0 {
                return Vec::new();
            }
            (0..self.draws)
                // audit: allow(panic-surface) — every covered segment's slot vector is `draws` long by the absorb contract
                .map(|i| fold::sum_f64(segments.iter().map(|s| pick(s)[i])))
                .collect()
        };
        FleetTotals {
            total: segments.iter().map(|s| s.total).sum::<usize>(),
            op_covered,
            emb_covered,
            op_errors: segments.iter().map(|s| s.op_errors).sum::<usize>(),
            emb_errors: segments.iter().map(|s| s.emb_errors).sum::<usize>(),
            operational_mt: fold::sum_f64(segments.iter().map(|s| s.op_total)),
            embodied_mt: fold::sum_f64(segments.iter().map(|s| s.emb_total)),
            op_draws: fold_slots(op_covered, |s| &s.op_draws),
            emb_draws: fold_slots(emb_covered, |s| &s.emb_draws),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::EasyC;
    use top500::synthetic::{generate_full, SyntheticConfig};

    fn footprints(n: u32) -> Vec<SystemFootprint> {
        let list = generate_full(&SyntheticConfig {
            n,
            ..Default::default()
        });
        let tool = EasyC::new();
        list.systems().iter().map(|s| tool.assess(s)).collect()
    }

    /// The serial reference: the exact running-total loop the engine used
    /// to carry (counts plus `+=` left folds in rank order).
    fn serial_fold(fps: &[SystemFootprint]) -> (usize, usize, usize, f64, f64) {
        let (mut op_cov, mut emb_cov) = (0usize, 0usize);
        let (mut op, mut emb) = (0.0f64, 0.0f64);
        for fp in fps {
            if let Ok(o) = &fp.operational {
                op_cov += 1;
                op += o.mt_co2e;
            }
            if let Ok(e) = &fp.embodied {
                emb_cov += 1;
                emb += e.mt_co2e;
            }
        }
        (fps.len(), op_cov, emb_cov, op, emb)
    }

    #[test]
    fn absorb_is_bit_identical_to_the_serial_left_fold() {
        let fps = footprints(41);
        let mut partial = PartialAssessment::identity(0);
        partial.absorb(0, &fps);
        assert_eq!(partial.segment_count(), 1);
        assert_eq!(partial.range(), Some((0, 41)));
        let totals = partial.finish();
        let (n, op_cov, emb_cov, op, emb) = serial_fold(&fps);
        assert_eq!(totals.total, n);
        assert_eq!(totals.op_covered, op_cov);
        assert_eq!(totals.emb_covered, emb_cov);
        assert_eq!(totals.op_errors, n - op_cov);
        assert_eq!(totals.emb_errors, n - emb_cov);
        assert_eq!(totals.operational_mt.to_bits(), op.to_bits());
        assert_eq!(totals.embodied_mt.to_bits(), emb.to_bits());
    }

    #[test]
    fn adjacent_blocks_coalesce_into_one_segment_bitwise() {
        let fps = footprints(37);
        let whole = {
            let mut p = PartialAssessment::identity(4);
            p.absorb(0, &fps);
            p.finish()
        };
        for chunk in [1usize, 2, 5, 13, 36, 37, 64] {
            let mut p = PartialAssessment::identity(4);
            let mut row = 0;
            for block in fps.chunks(chunk) {
                p.absorb(row, block);
                row += block.len();
            }
            assert_eq!(p.segment_count(), 1, "chunk {chunk}");
            let totals = p.finish();
            assert_eq!(
                totals.operational_mt.to_bits(),
                whole.operational_mt.to_bits(),
                "chunk {chunk}"
            );
            assert_eq!(
                totals.embodied_mt.to_bits(),
                whole.embodied_mt.to_bits(),
                "chunk {chunk}"
            );
            assert_eq!(totals, whole, "chunk {chunk}");
        }
    }

    /// Per-chunk leaf partials with synthetic draw sums, for merge tests.
    fn leaves(fps: &[SystemFootprint], chunk: usize, draws: usize) -> Vec<PartialAssessment> {
        let mut out = Vec::new();
        let mut row = 0;
        for block in fps.chunks(chunk) {
            let mut p = PartialAssessment::identity(draws);
            p.absorb(row, block);
            let (op, emb) = p.draw_slots().expect("non-empty leaf");
            for (i, slot) in op.iter_mut().enumerate() {
                *slot = (row * 31 + i) as f64 * 0.125;
            }
            for (i, slot) in emb.iter_mut().enumerate() {
                *slot = (row * 17 + i) as f64 * 0.0625;
            }
            row += block.len();
            out.push(p);
        }
        out
    }

    #[test]
    fn merge_is_shape_independent() {
        let fps = footprints(48);
        let parts = leaves(&fps, 7, 6);
        // Left spine: ((((p0 ⊕ p1) ⊕ p2) ⊕ p3) ⊕ …
        let left = parts
            .iter()
            .cloned()
            .try_fold(PartialAssessment::identity(6), PartialAssessment::merge)
            .expect("adjacent leaves merge");
        // Right spine: p0 ⊕ (p1 ⊕ (p2 ⊕ …))
        let right = parts
            .iter()
            .cloned()
            .rev()
            .try_fold(PartialAssessment::identity(6), |acc, p| p.merge(acc))
            .expect("adjacent leaves merge");
        // Balanced tree: pairwise rounds.
        let mut level = parts;
        while level.len() > 1 {
            let mut next = Vec::new();
            let mut iter = level.into_iter();
            while let Some(a) = iter.next() {
                match iter.next() {
                    Some(b) => next.push(a.merge(b).expect("adjacent pair")),
                    None => next.push(a),
                }
            }
            level = next;
        }
        let balanced = level.pop().expect("one root");
        assert_eq!(left, right);
        assert_eq!(left, balanced);
        let (a, b, c) = (left.finish(), right.finish(), balanced.finish());
        assert_eq!(a.operational_mt.to_bits(), b.operational_mt.to_bits());
        assert_eq!(a.operational_mt.to_bits(), c.operational_mt.to_bits());
        assert_eq!(a, b);
        assert_eq!(a, c);
        assert!(!a.op_draws.is_empty());
    }

    #[test]
    fn identity_is_neutral_on_both_sides() {
        let fps = footprints(12);
        let mut p = PartialAssessment::identity(3);
        p.absorb(5, &fps);
        let id = PartialAssessment::identity(3);
        assert_eq!(id.clone().merge(p.clone()).unwrap(), p);
        assert_eq!(p.clone().merge(id).unwrap(), p);
        // The unit is universal: its own draw count never blocks a merge.
        let odd = PartialAssessment::identity(999);
        assert_eq!(odd.merge(p.clone()).unwrap(), p);
        assert!(PartialAssessment::identity(1).is_identity());
        assert_eq!(PartialAssessment::identity(1).range(), None);
    }

    #[test]
    fn merge_rejects_gaps_overlaps_and_draw_mismatches() {
        let fps = footprints(10);
        let build = |start: usize, draws: usize| {
            let mut p = PartialAssessment::identity(draws);
            p.absorb(start, &fps);
            p
        };
        // Gap: [0,10) then [20,30).
        assert_eq!(
            build(0, 2).merge(build(20, 2)).unwrap_err(),
            MergeError::NotAdjacent {
                left_end: 10,
                right_start: 20
            }
        );
        // Overlap: [0,10) then [5,15).
        assert_eq!(
            build(0, 2).merge(build(5, 2)).unwrap_err(),
            MergeError::NotAdjacent {
                left_end: 10,
                right_start: 5
            }
        );
        // Draw-count mismatch on adjacent ranges.
        assert_eq!(
            build(0, 2).merge(build(10, 3)).unwrap_err(),
            MergeError::DrawMismatch { left: 2, right: 3 }
        );
    }

    #[test]
    #[should_panic(expected = "may not overlap")]
    fn absorb_panics_on_overlapping_block() {
        let fps = footprints(10);
        let mut p = PartialAssessment::identity(0);
        p.absorb(0, &fps);
        p.absorb(3, &fps);
    }

    #[test]
    fn uncovered_families_drop_their_draw_buffers() {
        // Force every operational estimate into a data failure; embodied
        // ones survive — the retention policy must drop only the former.
        let fps: Vec<SystemFootprint> = footprints(9)
            .into_iter()
            .map(|mut fp| {
                fp.operational = Err(crate::error::EasyCError::NoPowerPath { rank: fp.rank });
                fp
            })
            .collect();
        let mut p = PartialAssessment::identity(5);
        p.absorb(0, &fps);
        let (op_slots, emb_slots) = p.draw_slots().expect("segment exists");
        op_slots.fill(1.0);
        emb_slots.fill(2.0);
        let totals = p.finish();
        assert_eq!(totals.op_covered, 0);
        assert_eq!(totals.op_errors, 9);
        assert!(totals.op_draws.is_empty());
        assert_eq!(totals.operational_mt.to_bits(), 0f64.to_bits());
        assert_eq!(totals.emb_covered, 9);
        assert_eq!(totals.emb_draws, vec![2.0; 5]);
    }

    #[test]
    fn retract_is_bit_identical_to_rebuilding_without_the_tail() {
        // 600 rows crosses two checkpoint boundaries (256, 512), so cuts
        // exercise restore-at-checkpoint, re-fold-forward and drop-all.
        let fps = footprints(600);
        for cut in [599usize, 513, 512, 511, 300, 257, 256, 255, 1] {
            let mut retracted = PartialAssessment::identity(0);
            retracted.absorb(0, &fps);
            retracted
                .retract(cut..fps.len(), &fps)
                .expect("trailing retract");
            let mut rebuilt = PartialAssessment::identity(0);
            rebuilt.absorb(0, &fps[..cut]);
            assert_eq!(retracted, rebuilt, "cut {cut}");
            let (a, b) = (retracted.finish(), rebuilt.finish());
            assert_eq!(a.operational_mt.to_bits(), b.operational_mt.to_bits());
            assert_eq!(a.embodied_mt.to_bits(), b.embodied_mt.to_bits());
        }
    }

    #[test]
    fn retract_matches_rebuild_regardless_of_absorb_chunking() {
        let fps = footprints(300);
        for chunk in [1usize, 7, 64, 300] {
            let mut p = PartialAssessment::identity(0);
            let mut row = 0;
            for block in fps.chunks(chunk) {
                p.absorb(row, block);
                row += block.len();
            }
            p.retract(120..300, &fps).expect("trailing retract");
            let mut rebuilt = PartialAssessment::identity(0);
            rebuilt.absorb(0, &fps[..120]);
            assert_eq!(p, rebuilt, "chunk {chunk}");
        }
    }

    #[test]
    fn retract_then_absorb_round_trips_the_whole_partial() {
        let fps = footprints(310);
        let mut p = PartialAssessment::identity(0);
        p.absorb(0, &fps);
        let whole = p.clone();
        p.retract(130..310, &fps).expect("trailing retract");
        p.absorb(130, &fps[130..]);
        assert_eq!(p, whole);
    }

    #[test]
    fn retract_drops_whole_trailing_segments_and_keeps_draw_buffers() {
        // Three separately-built (merged, not coalesced) segments with
        // filled draw buffers: dropping the last keeps the others' buffers,
        // splitting the middle one resets only its own.
        let fps = footprints(30);
        let parts = leaves(&fps, 10, 4);
        let mut merged = parts
            .into_iter()
            .try_fold(PartialAssessment::identity(4), PartialAssessment::merge)
            .expect("adjacent leaves merge");
        let before = merged.clone();
        merged.retract(20..30, &fps).expect("drop last segment");
        assert_eq!(merged.segment_count(), 2);
        // Bit-for-bit the first two leaves of the original merge.
        let two = leaves(&fps, 10, 4)
            .into_iter()
            .take(2)
            .try_fold(PartialAssessment::identity(4), PartialAssessment::merge)
            .expect("adjacent leaves merge");
        assert_eq!(merged, two);
        // Splitting the (new) trailing segment resets its buffers only.
        let mut split = before.clone();
        split.retract(15..30, &fps).expect("split middle segment");
        assert_eq!(split.segment_count(), 2);
        let totals = split.finish();
        // First leaf's buffers survive: slot i = (0·31 + i)·0.125.
        assert_eq!(totals.op_draws[1].to_bits(), 0.125f64.to_bits());
    }

    #[test]
    fn retract_to_or_before_the_first_row_yields_the_identity() {
        let fps = footprints(12);
        let mut p = PartialAssessment::identity(2);
        p.absorb(5, &fps);
        p.retract(5..17, &fps).expect("full retract");
        assert!(p.is_identity());
        let mut q = PartialAssessment::identity(2);
        q.absorb(5, &fps);
        q.retract(2..17, &fps).expect("cut before first row");
        assert!(q.is_identity());
    }

    #[test]
    fn retract_refuses_bad_ranges_and_leaves_the_partial_untouched() {
        let fps = footprints(20);
        let mut p = PartialAssessment::identity(0);
        assert_eq!(
            p.retract(0..5, &fps).unwrap_err(),
            RetractError::Identity,
            "identity has no tail"
        );
        p.absorb(0, &fps);
        let before = p.clone();
        assert_eq!(
            p.retract(7..7, &fps).unwrap_err(),
            RetractError::EmptyRange { start: 7, end: 7 }
        );
        assert_eq!(
            p.retract(5..15, &fps).unwrap_err(),
            RetractError::NotTrailing {
                range_end: 15,
                end: 20
            }
        );
        assert_eq!(
            p.retract(10..20, &fps[..4]).unwrap_err(),
            RetractError::MissingPrefix { needed: 10, got: 4 }
        );
        assert_eq!(p, before, "refused retracts must not mutate");
    }

    #[test]
    fn retract_across_an_inter_segment_gap_keeps_the_prefix_verbatim() {
        // Segments [0,10) and [15,25): cutting at row 12 (inside the gap)
        // drops the second segment and leaves the first untouched.
        let fps = footprints(10);
        let mut p = PartialAssessment::identity(0);
        p.absorb(0, &fps);
        let prefix = p.clone();
        let mut tail = PartialAssessment::identity(0);
        tail.absorb(15, &fps);
        let mut merged = p;
        merged.segments.extend(tail.segments);
        merged.retract(12..25, &fps).expect("cut inside the gap");
        assert_eq!(merged, prefix);
    }

    #[test]
    fn identity_finishes_to_zeroed_totals() {
        let totals = PartialAssessment::identity(8).finish();
        assert_eq!(totals, FleetTotals::default());
        assert_eq!(totals.operational_mt.to_bits(), 0f64.to_bits());
        assert!(totals.op_draws.is_empty() && totals.emb_draws.is_empty());
    }
}
