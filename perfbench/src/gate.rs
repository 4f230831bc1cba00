//! Output fingerprints the workloads compare against a reference computed
//! by a different engine path, outside the timed region.

use easyc::{
    AssessmentOutput, FleetTotals, Interval, PartialAssessment, ScenarioDelta, StreamOutput,
    SystemFootprint,
};
use std::hash::Hasher;

/// Length plus a 64-bit hash of a byte string.
pub(crate) fn digest(bytes: &[u8]) -> (usize, u64) {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    h.write(bytes);
    (bytes.len(), h.finish())
}

fn push_interval(out: &mut Vec<u64>, iv: Option<Interval>) {
    match iv {
        None => out.push(u64::MAX),
        Some(iv) => out.extend([iv.point.to_bits(), iv.lo.to_bits(), iv.hi.to_bits()]),
    }
}

fn push_delta(out: &mut Vec<u64>, delta: Option<&ScenarioDelta>) {
    match delta {
        None => out.push(u64::MAX),
        Some(d) => {
            push_interval(out, d.operational);
            push_interval(out, d.embodied);
            push_interval(out, d.total);
        }
    }
}

/// Fleet totals of one slice, folded through the pinned partial fold the
/// streamed engine and the server use.
pub(crate) fn fleet_totals(footprints: &[SystemFootprint]) -> FleetTotals {
    let mut partial = PartialAssessment::identity(0);
    partial.absorb(0, footprints);
    partial.finish()
}

/// Bits of every scenario's coverage, totals and intervals, plus a paired
/// delta, from a streamed run.
pub(crate) fn stream_bits(out: &StreamOutput, delta: Option<&ScenarioDelta>) -> Vec<u64> {
    let mut bits = Vec::new();
    for s in out.slices() {
        bits.extend([
            s.coverage.operational as u64,
            s.coverage.embodied as u64,
            s.operational_total_mt.to_bits(),
            s.embodied_total_mt.to_bits(),
        ]);
        push_interval(&mut bits, s.interval);
        push_interval(&mut bits, s.embodied_interval);
    }
    push_delta(&mut bits, delta);
    bits
}

/// The same bits from an in-memory session.
pub(crate) fn session_bits(out: &AssessmentOutput, delta: Option<&ScenarioDelta>) -> Vec<u64> {
    let mut bits = Vec::new();
    for ((s, op_iv), emb_iv) in out
        .slices()
        .iter()
        .zip(out.intervals())
        .zip(out.embodied_intervals())
    {
        let t = fleet_totals(&s.footprints);
        bits.extend([
            s.coverage.operational as u64,
            s.coverage.embodied as u64,
            t.operational_mt.to_bits(),
            t.embodied_mt.to_bits(),
        ]);
        push_interval(&mut bits, *op_iv);
        push_interval(&mut bits, *emb_iv);
    }
    push_delta(&mut bits, delta);
    bits
}

/// Per-system footprint bits and intervals of a whole output.
pub(crate) fn footprint_bits(out: &AssessmentOutput) -> Vec<u64> {
    let mut bits = Vec::new();
    for s in out.slices() {
        for fp in &s.footprints {
            bits.push(u64::from(fp.rank));
            bits.push(fp.operational_mt().map_or(u64::MAX, f64::to_bits));
            bits.push(
                fp.embodied
                    .as_ref()
                    .map_or(u64::MAX, |e| e.mt_co2e.to_bits()),
            );
        }
    }
    for (op, emb) in out.intervals().iter().zip(out.embodied_intervals()) {
        push_interval(&mut bits, *op);
        push_interval(&mut bits, *emb);
    }
    bits
}
