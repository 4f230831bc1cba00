//! `stream_draws`: the CLI `sweep --stream --out --draws 256 --compare`
//! path — a prefetched chunked CSV source, the five-scenario matrix with
//! 256 paired Monte-Carlo draws and a `full` vs `no-power` comparison on
//! two workers, and the per-scenario spill writer. Draws are the largest
//! compute layer; chunked ingest overlaps them. The traced run also
//! measures the in-memory CLI `sweep --out` path over the same file
//! (`sweep`).

use super::{Jobs, Setups};
use crate::gate::{digest, session_bits, stream_bits};
use crate::{inputs, stats, trace, Outcome, Run};
use analysis::report::SweepCsvWriter;
use easyc::{Assessment, DrawPlan, ScenarioMatrix, StreamOutput};
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use top500::io::{import_csv, stream_csv};
use top500::list::Top500List;
use top500::stream::{FleetChunks, Prefetched};

const SYSTEMS: u32 = 50_000;
const CHUNK_ROWS: usize = 4096;
const DRAWS: usize = 256;
const WORKERS: usize = 2;
const COMPARE: (&str, &str) = ("full", "no-power");
/// Set-up samples taken after each job, so they spread through the window.
const SETUPS_PER_JOB: usize = 2;
const MIN_JOBS: usize = 5;
/// Traced draws=0 jobs run after the window to split off draw time.
const BASELINE_JOBS: usize = 3;

/// Wraps a chunk source so each pull is a span: on the caller's thread
/// (`lane = None`) or on the prefetch lane of op `lane`.
struct Timed<S> {
    inner: S,
    name: &'static str,
    lane: Option<u64>,
}

impl<S: FleetChunks> FleetChunks for Timed<S> {
    type Error = S::Error;

    fn next_chunk(&mut self) -> Option<Result<Top500List, S::Error>> {
        let inner = &mut self.inner;
        match self.lane {
            Some(op) => trace::lane_span(self.name, op, || inner.next_chunk()),
            None => trace::span(self.name, || inner.next_chunk()),
        }
    }
}

/// One streamed sweep's results, kept for the gate.
struct StreamJob {
    output: StreamOutput,
    delta: Option<easyc::ScenarioDelta>,
    peak_ahead: usize,
}

fn plan(seed: u64, draws: usize) -> DrawPlan {
    DrawPlan::new(draws).with_seed(seed)
}

/// One `sweep --stream --out` run over the systems file.
fn job(
    systems: &Path,
    matrix: &ScenarioMatrix,
    plan: DrawPlan,
    out: &Path,
    run_span: &'static str,
) -> Result<StreamJob, String> {
    let file = File::open(systems).map_err(|e| e.to_string())?;
    let mut writer = SweepCsvWriter::create(out, matrix.len()).map_err(|e| e.to_string())?;
    let source = Prefetched::new(Timed {
        inner: stream_csv(BufReader::new(file), CHUNK_ROWS),
        name: "top500.io.stream_csv",
        lane: Some(trace::current_op()),
    });
    let probe = source.probe();
    let output = trace::span(run_span, || {
        Assessment::stream(Timed {
            inner: source,
            name: "top500.stream.next_chunk.wait",
            lane: None,
        })
        .scenarios(matrix)
        .workers(WORKERS)
        .draw_plan(plan)
        .rows(|block| trace::span("analysis.report.append", || writer.append(&block)))
        .run()
    })
    .map_err(|e| e.to_string())?;
    trace::span("analysis.report.finish", || writer.finish()).map_err(|e| e.to_string())?;
    let delta = (plan.draws > 0)
        .then(|| {
            trace::span("easyc.stream.compare", || {
                output.compare(COMPARE.0, COMPARE.1)
            })
        })
        .flatten();
    Ok(StreamJob {
        output,
        delta,
        peak_ahead: probe.peak_ahead(),
    })
}

/// What the gate compares: fold bits (coverage, totals, intervals, the
/// paired delta) and the artifact's length and hash.
type Fingerprint = (Vec<u64>, Option<(usize, u64)>);

/// A streamed job's fingerprint, read back from its spilled artifact.
fn fingerprint(j: &StreamJob, out: &Path) -> Fingerprint {
    (
        stream_bits(&j.output, j.delta.as_ref()),
        std::fs::read(out).ok().map(|b| digest(&b)),
    )
}

/// The reference: an in-memory session over the same file and plan.
fn reference(
    systems: &Path,
    matrix: &ScenarioMatrix,
    plan: DrawPlan,
) -> Result<Fingerprint, String> {
    let text = std::fs::read_to_string(systems).map_err(|e| e.to_string())?;
    let list = import_csv(&text).map_err(|e| e.to_string())?;
    let out = Assessment::of(&list)
        .scenarios(matrix)
        .workers(WORKERS)
        .draw_plan(plan)
        .run();
    let delta = out.compare(COMPARE.0, COMPARE.1);
    let bits = session_bits(&out, delta.as_ref());
    Ok((
        bits,
        Some(digest(frame::csv::write(&out.to_frame()).as_bytes())),
    ))
}

pub(crate) fn run(run: &Run) -> Result<Outcome, String> {
    let systems = run.dir.join("systems.csv");
    let out = run.dir.join("results.csv");
    std::fs::write(&systems, inputs::fleet_csv(SYSTEMS, run.seed)).map_err(|e| e.to_string())?;
    let matrix = inputs::template_matrix();
    let full_plan = plan(run.seed, DRAWS);

    // Set-up: open the file and start the prefetched reader, until the
    // first chunk is parsed and handed over.
    let setup = || {
        let file = File::open(&systems).map_err(|e| e.to_string())?;
        let mut source = Prefetched::new(stream_csv(BufReader::new(file), CHUNK_ROWS));
        let first = source.next_chunk().ok_or("empty systems file")?;
        let first = first.map_err(|e| e.to_string())?;
        Ok((source, first))
    };
    let mut setups = Setups::default();

    let mut fingerprints: Vec<Option<Fingerprint>> = Vec::new();
    let mut peak_ahead = 0usize;
    let mut shape = (0usize, 0usize);
    let jobs = Jobs::run(run.seconds, run.trace, MIN_JOBS, || {
        let t = crate::clock::now();
        let result = trace::op("job", || {
            job(&systems, &matrix, full_plan, &out, "easyc.stream.run")
        });
        let secs = t.elapsed().as_secs_f64();
        fingerprints.push(result.as_ref().ok().map(|j| fingerprint(j, &out)));
        if let Ok(j) = &result {
            peak_ahead = peak_ahead.max(j.peak_ahead);
            shape = (j.output.chunks(), j.output.peak_chunk_rows());
        }
        drop(result);
        setups.discard(SETUPS_PER_JOB, setup)?;
        Ok(secs)
    })?;

    // The reference runs after the window, so its memory never counts in
    // the window's peak RSS.
    let expected = reference(&systems, &matrix, full_plan)?;
    let mut outcome = Outcome::default();
    for f in &fingerprints {
        outcome.check(f.as_ref() == Some(&expected));
    }

    let work = f64::from(SYSTEMS) * matrix.len() as f64;
    if run.trace {
        trace::enable(true);
        for _ in 0..BASELINE_JOBS {
            let base = trace::op("job.draws0", || {
                job(
                    &systems,
                    &matrix,
                    plan(run.seed, 0),
                    &out,
                    "easyc.stream.run",
                )
            })?;
            drop(base);
        }
        trace::enable(false);
        super::sweep::layers(
            &systems,
            &matrix,
            &run.dir.join("sweep.csv"),
            expected.1,
            &mut outcome,
        )?;
        let spans = trace::snapshot();
        let a = trace::Analysis::of_ops(&spans, "job");
        let base = trace::Analysis::of_ops(&spans, "job.draws0");
        let run_self = a.self_s("easyc.stream.run");
        outcome.set(
            "top500.stream.next_chunk.wait_s",
            a.busy("top500.stream.next_chunk.wait"),
        );
        outcome.set(
            "top500.io.stream_csv.busy_s",
            a.busy("top500.io.stream_csv"),
        );
        outcome.set("top500.stream.prefetch.peak_ahead", peak_ahead as f64);
        outcome.set(
            "analysis.report.append.busy_s",
            a.busy("analysis.report.append"),
        );
        outcome.set(
            "analysis.report.finish.busy_s",
            a.busy("analysis.report.finish"),
        );
        outcome.set("easyc.stream.run.self_s", run_self);
        outcome.set(
            "easyc.uncertainty.draws_s",
            run_self - base.self_s("easyc.stream.run"),
        );
        outcome.set("easyc.uncertainty.draw_terms", work * DRAWS as f64);
        outcome.set("easyc.stream.chunks", shape.0 as f64);
        outcome.set("easyc.stream.peak_chunk_rows", shape.1 as f64);
        outcome.set("trace.throughput_ratio", jobs.throughput_ratio());
        outcome.trace_health(&trace::Analysis::of(&spans));
    } else {
        outcome.set("throughput", jobs.throughput(work));
        outcome.set("latency_p50", stats::quantile(&jobs.untraced, 0.5) * 1e3);
        outcome.set("latency_p90", stats::quantile(&jobs.untraced, 0.9) * 1e3);
        outcome.set("setup_s", setups.median());
        outcome.set("peak_rss_mb", stats::median(&jobs.peak_rss_mb));
    }
    Ok(outcome)
}

/// A small streamed sweep passes its gate; one flipped bit in a
/// scenario total, or one flipped byte in the spilled artifact, fails it.
pub(crate) fn self_test(dir: &Path) -> Result<(), String> {
    let systems = dir.join("stream-systems.csv");
    let out = dir.join("stream-results.csv");
    std::fs::write(&systems, inputs::fleet_csv(1_500, 11)).map_err(|e| e.to_string())?;
    let matrix = inputs::template_matrix();
    let plan = plan(11, 16);
    let expected = reference(&systems, &matrix, plan)?;
    let j = job(&systems, &matrix, plan, &out, "easyc.stream.run")?;
    let mut seen = fingerprint(&j, &out);
    if seen != expected {
        return Err("the true output failed the gate".into());
    }
    seen.0[2] ^= 1;
    if seen == expected {
        return Err("a corrupted scenario total passed the gate".into());
    }
    let mut bytes = std::fs::read(&out).map_err(|e| e.to_string())?;
    let last = bytes.len() - 2;
    bytes[last] ^= 1;
    std::fs::write(&out, bytes).map_err(|e| e.to_string())?;
    if fingerprint(&j, &out) == expected {
        return Err("a corrupted artifact passed the gate".into());
    }
    Ok(())
}
