//! The CLI `sweep <template> systems.csv --out` path on one worker with no
//! draws — file read and import, in-memory session, columnar frame, CSV
//! render, file write — measured per layer in `stream_draws`'s traced run
//! over the same 50k-system file. Parse and render dominate it; the draw
//! layer is bypassed.
//!
//! It was a workload of its own (`sweep_csv_out`) and was dropped: its
//! median job time did not hold the 0.25 bound from run to run on a
//! shared 2-thread cloud VM (see `perfbench/NOTES.md`).

use crate::gate::digest;
use crate::{inputs, trace, Outcome};
use analysis::report::SweepCsvWriter;
use easyc::{Assessment, ScenarioMatrix};
use std::fs::File;
use std::io::BufReader;
use std::path::Path;
use top500::io::{import_csv, stream_csv};
use top500::list::Top500List;
use top500::stream::Prefetched;

/// Traced sweeps per traced run.
const JOBS: usize = 3;

/// The streamed `sweep --stream --out` artifact over the same file — the
/// reference the in-memory artifact must equal byte for byte.
fn streamed_artifact(
    systems: &Path,
    matrix: &ScenarioMatrix,
    target: &Path,
) -> Result<(usize, u64), String> {
    let file = File::open(systems).map_err(|e| e.to_string())?;
    let mut writer = SweepCsvWriter::create(target, matrix.len()).map_err(|e| e.to_string())?;
    Assessment::stream(Prefetched::new(stream_csv(BufReader::new(file), 4096)))
        .scenarios(matrix)
        .workers(1)
        .rows(|block| writer.append(&block))
        .run()
        .map_err(|e| e.to_string())?;
    writer.finish().map_err(|e| e.to_string())?;
    let bytes = std::fs::read(target).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(target);
    Ok(digest(&bytes))
}

/// What one job leaves alive; dropped after the timed region.
type JobProducts = (
    String,
    Top500List,
    easyc::AssessmentOutput,
    frame::DataFrame,
    String,
);

/// One CLI sweep: read → import → session → frame → CSV → file.
fn job(systems: &Path, matrix: &ScenarioMatrix, out: &Path) -> Result<JobProducts, String> {
    let text = std::fs::read_to_string(systems).map_err(|e| e.to_string())?;
    let list =
        trace::span("top500.io.import_csv", || import_csv(&text)).map_err(|e| e.to_string())?;
    let output = trace::span("easyc.session.run", || {
        Assessment::of(&list).scenarios(matrix).workers(1).run()
    });
    let frame = trace::span("easyc.session.to_frame", || output.to_frame());
    let csv = trace::span("frame.csv.write", || frame::csv::write(&frame));
    trace::span("io.write_file", || std::fs::write(out, &csv)).map_err(|e| e.to_string())?;
    Ok((text, list, output, frame, csv))
}

/// What the gate compares: the length and hash of the file on disk.
fn fingerprint(out: &Path) -> Option<(usize, u64)> {
    std::fs::read(out).ok().map(|bytes| digest(&bytes))
}

/// Runs `JOBS` traced sweeps of `systems` into `out`, gates each written
/// file against `expected` (length and hash of the same fleet's CSV from
/// another engine path) and sets the sweep's per-layer metrics.
pub(crate) fn layers(
    systems: &Path,
    matrix: &ScenarioMatrix,
    out: &Path,
    expected: Option<(usize, u64)>,
    outcome: &mut Outcome,
) -> Result<(), String> {
    let mb_in = std::fs::metadata(systems).map_err(|e| e.to_string())?.len() as f64 / 1e6;
    trace::enable(true);
    for _ in 0..JOBS {
        let products = trace::op("sweep.job", || job(systems, matrix, out));
        outcome.check(products.is_ok() && fingerprint(out) == expected);
        drop(products);
    }
    trace::enable(false);
    let spans = trace::snapshot();
    let a = trace::Analysis::of_ops(&spans, "sweep.job");
    let mb_out = expected.map_or(0, |e| e.0) as f64 / 1e6;
    let import = a.busy("top500.io.import_csv");
    let write = a.busy("frame.csv.write");
    outcome.set("top500.io.import_csv.busy_s", import);
    outcome.set("top500.io.import_csv.mb_per_s", mb_in / import);
    outcome.set("easyc.session.run.busy_s", a.busy("easyc.session.run"));
    outcome.set(
        "easyc.session.to_frame.busy_s",
        a.busy("easyc.session.to_frame"),
    );
    outcome.set("frame.csv.write.busy_s", write);
    outcome.set("frame.csv.write.mb_per_s", mb_out / write);
    outcome.set("io.write_file.busy_s", a.busy("io.write_file"));
    Ok(())
}

/// A small sweep passes its gate; one flipped byte in the written file
/// fails it.
pub(crate) fn self_test(dir: &Path) -> Result<(), String> {
    let systems = dir.join("sweep-systems.csv");
    let out = dir.join("sweep-results.csv");
    let text = inputs::fleet_csv(1_500, 7);
    std::fs::write(&systems, &text).map_err(|e| e.to_string())?;
    let matrix = inputs::template_matrix();
    let reference = streamed_artifact(&systems, &matrix, &dir.join("sweep-reference.csv"))?;
    job(&systems, &matrix, &out)?;
    if fingerprint(&out) != Some(reference) {
        return Err("the true output failed the gate".into());
    }
    let mut bytes = std::fs::read(&out).map_err(|e| e.to_string())?;
    let middle = bytes.len() / 2;
    bytes[middle] ^= 1;
    std::fs::write(&out, bytes).map_err(|e| e.to_string())?;
    if fingerprint(&out) == Some(reference) {
        return Err("a corrupted output passed the gate".into());
    }
    Ok(())
}
