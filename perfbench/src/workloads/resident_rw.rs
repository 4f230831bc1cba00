//! `resident_rw`: one embedding caller in a closed loop over a warm
//! ~20k-system, 2-worker `FleetState`, mixing warm default queries, masked
//! queries, repeat interval queries at a fixed (seed, draws), and
//! rank-preserving `update_rows` splices of 8 rows. The only place writes
//! meet reads. Its traced run also measures the served path's layers
//! (`served`).

use super::Setups;
use crate::gate::footprint_bits;
use crate::{inputs, stats, trace, Outcome, Run};
use easyc::{
    Assessment, AssessmentOutput, DataScenario, EasyCConfig, FleetState, ScenarioMatrix,
    UpdateError,
};
use std::path::Path;
use top500::list::Top500List;
use top500::record::SystemRecord;

const SYSTEMS: u32 = 20_000;
/// Set-up samples: one before the window, the rest at even points in it.
const SETUP_SAMPLES: usize = 15;
const TOUCHED: usize = 8;
const DRAWS: usize = 32;
const DRAW_SEED: u64 = 17;
const MIN_OPS: usize = 200;
/// Class weights: warm, masked, draws, write. The masked class is two
/// populations: `no-structure` (a quarter of masked reads) runs about 1.6
/// times as fast as the other three scenarios. Reads then stack as warm
/// 0–22%, fast masked 22–36%, slow masked 36–78%, draws 78–100%, so the
/// read p50 sits 14 points inside the slow masked population and the p90
/// 12 points inside the draws class — never on a boundary.
const WEIGHTS: [usize; 4] = [20, 50, 20, 10];
const CLASSES: [&str; 4] = [
    "easyc.state.query.warm",
    "easyc.state.query.masked",
    "easyc.state.query.draws",
    "easyc.state.update_rows",
];

/// One worker per hardware thread of the 2-thread machine, as the
/// default configuration there. With one worker a run stayed on whichever
/// hardware thread the scheduler picked, and on a shared host the two ran
/// at different speeds for minutes at a time (single-worker runs pinned to
/// one or the other differed by up to 1.23×), so the run's figures
/// depended on that pick.
const WORKERS: usize = 2;

fn config() -> EasyCConfig {
    EasyCConfig {
        workers: WORKERS,
        ..EasyCConfig::default()
    }
}

/// The non-default scenarios of the template: every one misses the cache.
fn masked_scenarios() -> Vec<DataScenario> {
    inputs::template_matrix()
        .scenarios()
        .iter()
        .filter(|s| s.name != "full")
        .cloned()
        .collect()
}

/// `TOUCHED` rows from `first` with a new measured power — the same
/// ranks, so the splice keeps list order.
fn edit(
    rows: &[SystemRecord],
    first: usize,
    rng: &mut parallel::rng::SplitMix64,
) -> Vec<SystemRecord> {
    rows[first..first + TOUCHED]
        .iter()
        .map(|r| SystemRecord {
            power_kw: Some(500.0 + rng.next_f64() * 20_000.0),
            ..r.clone()
        })
        .collect()
}

/// The gate: the resident state answers exactly what a cold session over
/// the edited list answers — default footprints with draws, and every
/// template scenario.
fn gate(state: &FleetState, edited: &[SystemRecord]) -> bool {
    let list = Top500List::new(edited.to_vec());
    let matrix: ScenarioMatrix = inputs::template_matrix();
    let warm = state.query().uncertainty(DRAWS).seed(DRAW_SEED).run();
    let cold = Assessment::of(&list)
        .workers(1)
        .uncertainty(DRAWS)
        .seed(DRAW_SEED)
        .run();
    let warm_matrix = state.query().scenarios(&matrix).run();
    let cold_matrix = Assessment::of(&list).workers(1).scenarios(&matrix).run();
    state.is_warm()
        && footprint_bits(&warm) == footprint_bits(&cold)
        && footprint_bits(&warm_matrix) == footprint_bits(&cold_matrix)
}

/// One prepared operation: its inputs are drawn before the timed call.
enum Op {
    Warm,
    Masked(DataScenario),
    Draws,
    Write(usize, Vec<SystemRecord>),
}

impl Op {
    /// Draws the next operation; a write is mirrored into `edited`, the
    /// benchmark's own copy of the list the final gate rebuilds from.
    fn next(
        rng: &mut parallel::rng::SplitMix64,
        edited: &mut [SystemRecord],
        masked: &[DataScenario],
    ) -> Op {
        match inputs::pick(rng, &WEIGHTS) {
            0 => Op::Warm,
            1 => Op::Masked(masked[rng.next_bounded(masked.len())].clone()),
            2 => Op::Draws,
            _ => {
                let first = rng.next_bounded(edited.len() - TOUCHED);
                let rows = edit(edited, first, rng);
                edited[first..first + TOUCHED].clone_from_slice(&rows);
                Op::Write(first, rows)
            }
        }
    }

    fn class(&self) -> usize {
        match self {
            Op::Warm => 0,
            Op::Masked(_) => 1,
            Op::Draws => 2,
            Op::Write(..) => 3,
        }
    }

    /// Runs the call; the result is dropped by the caller, after timing.
    fn run(self, state: &mut FleetState) -> Result<Option<AssessmentOutput>, UpdateError> {
        let name = CLASSES[self.class()];
        match self {
            Op::Warm => Ok(Some(trace::span(name, || state.query().run()))),
            Op::Masked(scenario) => Ok(Some(trace::span(name, || {
                state.query().scenario(scenario).run()
            }))),
            Op::Draws => Ok(Some(trace::span(name, || {
                state.query().uncertainty(DRAWS).seed(DRAW_SEED).run()
            }))),
            Op::Write(first, rows) => {
                trace::span(name, || state.update_rows(first, rows)).map(|_| None)
            }
        }
    }
}

pub(crate) fn run(run: &Run) -> Result<Outcome, String> {
    let text = inputs::fleet_csv(SYSTEMS, run.seed);
    let mut edited = top500::io::import_csv(&text)
        .map_err(|e| e.to_string())?
        .systems()
        .to_vec();
    let masked = masked_scenarios();

    // Set-up: parse the CSV into a resident state and warm its cache.
    let setup = || {
        let mut state = trace::span("easyc.state.from_csv", || {
            FleetState::from_csv(&text, config())
        })
        .map_err(|e| e.to_string())?;
        trace::span("easyc.state.warm", || state.warm());
        Ok(state)
    };
    let mut setups = Setups::default();
    trace::enable(run.trace);
    let mut state = setups.sample(setup)?;
    trace::enable(false);

    let mut outcome = Outcome::default();
    let mut rng = inputs::rng(run.seed, 0x5E51_DE47);
    // Peak RSS of each stretch of ops between two set-up samples; a
    // sample's own state is dropped and the heap trimmed before the next
    // stretch starts.
    let mut peaks = Vec::new();
    stats::trim_heap();
    stats::reset_peak_rss();
    let mut reads = Vec::new();
    // Per class, untraced then traced.
    let mut secs: [[Vec<f64>; 4]; 2] = Default::default();
    let start = crate::clock::now();
    let mut i = 0usize;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed >= run.seconds && reads.len() >= MIN_OPS {
            break;
        }
        let due = 1 + (elapsed * SETUP_SAMPLES as f64 / run.seconds) as usize;
        if setups.len() < due.min(SETUP_SAMPLES) {
            peaks.push(stats::peak_rss_mb());
            trace::enable(run.trace);
            setups.discard(1, setup)?;
            trace::enable(false);
            stats::trim_heap();
            stats::reset_peak_rss();
        }
        let op = Op::next(&mut rng, &mut edited, &masked);
        let class = op.class();
        let traced = run.trace && i % 2 == 1;
        trace::enable(traced);
        let t = crate::clock::now();
        let result = trace::op("op", || op.run(&mut state));
        let dt = t.elapsed().as_secs_f64();
        trace::enable(false);
        outcome.check(result.is_ok());
        drop(result);
        secs[usize::from(traced)][class].push(dt);
        if !traced && class < 3 {
            reads.push(dt);
        }
        i += 1;
    }
    peaks.push(stats::peak_rss_mb());
    let peak = peaks.iter().copied().fold(0.0, f64::max);
    outcome.check(gate(&state, &edited));

    // Operations per second at the class weights, from each class's
    // median time — the same mix whether or not an op was traced.
    let rate = |by_class: &[Vec<f64>; 4]| {
        let weight: usize = WEIGHTS.iter().sum();
        let per_op: f64 = by_class
            .iter()
            .zip(WEIGHTS)
            .map(|(s, w)| stats::median(s) * w as f64)
            .sum();
        weight as f64 / per_op
    };
    if run.trace {
        let spans = trace::snapshot();
        let a = trace::Analysis::of(&spans);
        outcome.set("easyc.state.query.warm_s", a.busy(CLASSES[0]));
        outcome.set("easyc.state.query.masked_s", a.busy(CLASSES[1]));
        outcome.set("easyc.state.query.draws_s", a.busy(CLASSES[2]));
        outcome.set("easyc.state.update_rows_s", a.busy(CLASSES[3]));
        outcome.set("easyc.state.update_rows.rows_reassessed", TOUCHED as f64);
        outcome.set("easyc.state.from_csv_s", a.busy("easyc.state.from_csv"));
        outcome.set("easyc.state.warm_s", a.busy("easyc.state.warm"));
        outcome.set("trace.throughput_ratio", rate(&secs[1]) / rate(&secs[0]));
        outcome.trace_health(&a);
        super::served::layers(run.seed, &mut outcome)?;
    } else {
        outcome.set("throughput", rate(&secs[0]));
        outcome.set("latency_p50", stats::quantile(&reads, 0.5) * 1e3);
        outcome.set("latency_p90", stats::quantile(&reads, 0.9) * 1e3);
        outcome.set("setup_s", setups.median());
        outcome.set("peak_rss_mb", peak);
    }
    Ok(outcome)
}

/// A small resident state passes its gate after a seeded mix of reads and
/// writes; one further splice the edited list never saw fails it.
pub(crate) fn self_test(_dir: &Path) -> Result<(), String> {
    let text = inputs::fleet_csv(1_500, 5);
    let mut state = FleetState::from_csv(&text, config()).map_err(|e| e.to_string())?;
    state.warm();
    let mut edited = state.list().systems().to_vec();
    let masked = masked_scenarios();
    let mut rng = inputs::rng(5, 1);
    for _ in 0..40 {
        Op::next(&mut rng, &mut edited, &masked)
            .run(&mut state)
            .map_err(|e| e.to_string())?;
    }
    if !gate(&state, &edited) {
        return Err("the true final state failed the gate".into());
    }
    let stray = edit(&edited, 100, &mut rng);
    state.update_rows(100, stray).map_err(|e| e.to_string())?;
    if gate(&state, &edited) {
        return Err("a corrupted final state passed the gate".into());
    }
    Ok(())
}
