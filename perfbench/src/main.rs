//! End-to-end and per-layer benchmark of EasyC: a streamed sweep with
//! Monte-Carlo draws, and resident reads and writes. Their traced runs
//! also measure the in-memory batch sweep and served queries per layer.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! perfbench --all [--seed N] [--seconds S]   every workload, one line per metric
//! perfbench --self-test                      corrupt one output per gate
//! ```
//!
//! Each workload generates its inputs from `--seed` (outside any timed
//! region), measures for `--seconds`, checks every output against a
//! different engine path, and prints one JSON object as its last line:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics from the
//! span recorder with `--trace 1`. See `perfbench/NOTES.md` for why each
//! workload exists and which layer should move which metric.

mod clock;
mod gate;
mod inputs;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// End-to-end metrics every workload reports with `--trace 0`.
const END_TO_END: &[(&str, &str)] = &[
    ("throughput", "1/s"),
    ("latency_p50", "ms"),
    ("latency_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every workload reports with `--trace 1`; a layer the
/// workload does not reach reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("top500.io.import_csv.busy_s", "s"),
    ("top500.io.import_csv.mb_per_s", "MB/s"),
    ("easyc.session.run.busy_s", "s"),
    ("easyc.session.to_frame.busy_s", "s"),
    ("frame.csv.write.busy_s", "s"),
    ("frame.csv.write.mb_per_s", "MB/s"),
    ("io.write_file.busy_s", "s"),
    ("top500.stream.next_chunk.wait_s", "s"),
    ("top500.io.stream_csv.busy_s", "s"),
    ("top500.stream.prefetch.peak_ahead", "count"),
    ("analysis.report.append.busy_s", "s"),
    ("analysis.report.finish.busy_s", "s"),
    ("easyc.stream.run.self_s", "s"),
    ("easyc.uncertainty.draws_s", "s"),
    ("easyc.uncertainty.draw_terms", "count"),
    ("easyc.stream.chunks", "count"),
    ("easyc.stream.peak_chunk_rows", "count"),
    ("serve.rtt.status_p50", "ms"),
    ("serve.rtt.assess_warm_p50", "ms"),
    ("serve.rtt.assess_masked_p50", "ms"),
    ("serve.rtt.sweep_p50", "ms"),
    ("serve.json.parse.busy_s", "s"),
    ("easyc.state.query.warm_s", "s"),
    ("easyc.state.query.masked_s", "s"),
    ("easyc.state.query.sweep_s", "s"),
    ("easyc.state.query.draws_s", "s"),
    ("easyc.state.update_rows_s", "s"),
    ("easyc.state.update_rows.rows_reassessed", "count"),
    ("easyc.state.from_csv_s", "s"),
    ("easyc.state.warm_s", "s"),
    ("trace.throughput_ratio", "ratio"),
    ("trace.uncovered_share_p99", "ratio"),
];

/// Largest share of an op's time its layer spans may leave uncovered, at
/// the 99th percentile over ops: a thread preempted between two spans of
/// a sub-millisecond op must not void a whole run.
const COVERAGE_SLACK: f64 = 0.05;

const WORKLOADS: &[&str] = &["stream_draws", "resident_rw"];

/// What one workload run produced.
#[derive(Default)]
pub(crate) struct Outcome {
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    /// Why the run does not count as a measurement (not a slow run: a
    /// broken one, e.g. layer spans that leave an op uncovered).
    pub(crate) invalid: Vec<String>,
    pub(crate) metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub(crate) fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Counts one gated operation.
    pub(crate) fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Fills the per-layer tracing health metrics from a span set and
    /// invalidates the run when layers leave an op uncovered.
    pub(crate) fn trace_health(&mut self, analysis: &trace::Analysis) {
        let uncovered = analysis.uncovered_p99();
        self.set("trace.uncovered_share_p99", uncovered);
        if analysis.covered_ops() > 0 && uncovered > COVERAGE_SLACK {
            self.invalid.push(format!(
                "layer spans leave {:.1}% of an op uncovered at p99 (slack {:.0}%)",
                uncovered * 100.0,
                COVERAGE_SLACK * 100.0
            ));
        }
    }
}

/// Settings of one run.
pub(crate) struct Run {
    pub(crate) seed: u64,
    pub(crate) seconds: f64,
    pub(crate) trace: bool,
    /// Scratch directory for the run's input and output files.
    pub(crate) dir: PathBuf,
}

/// Removes the run's scratch directory however the run ends.
struct ScratchDir(PathBuf);

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--self-test") {
        return self_test();
    }
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let seed = value("--seed").unwrap_or("1").parse::<u64>();
    let seconds = value("--seconds").unwrap_or("10").parse::<f64>();
    let trace = value("--trace").unwrap_or("0");
    let (Ok(seed), Ok(seconds), "0" | "1") = (seed, seconds, trace) else {
        eprintln!("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
        return ExitCode::from(2);
    };
    if args.iter().any(|a| a == "--all") {
        return run_all(seed, seconds);
    }
    let Some(workload) = value("--workload").filter(|w| WORKLOADS.contains(w)) else {
        eprintln!("--workload must be one of {}", WORKLOADS.join(", "));
        return ExitCode::from(2);
    };
    let dir = Path::new(".bench_work").join(format!("{workload}-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let _cleanup = ScratchDir(dir.clone());
    let run = Run {
        seed,
        seconds,
        trace: trace == "1",
        dir,
    };
    let outcome = match workload {
        "stream_draws" => workloads::stream_draws::run(&run),
        _ => workloads::resident_rw::run(&run),
    };
    let outcome = match outcome {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if run.trace {
        let spans = trace::drain();
        let path = Path::new(".bench_work")
            .join("traces")
            .join(format!("{workload}-seed{seed}.jsonl"));
        if let Err(e) = trace::write_jsonl(&spans, &path) {
            eprintln!("cannot write {}: {e}", path.display());
        }
    }
    print_result(workload, &outcome, run.trace)
}

/// Prints the result object — the per-layer metrics when traced, else the
/// end-to-end ones. The run is correct when every gated output matched,
/// the run is valid, and every reported metric is finite (and, end to
/// end, non-zero).
fn print_result(workload: &str, outcome: &Outcome, traced: bool) -> ExitCode {
    let table = if traced { PER_LAYER } else { END_TO_END };
    let mut correct = outcome.failed == 0 && outcome.invalid.is_empty();
    for reason in &outcome.invalid {
        eprintln!("{workload}: invalid run: {reason}");
    }
    let mut fields = Vec::new();
    for &(name, unit) in table {
        let value = outcome.metrics.get(name).copied().unwrap_or(0.0);
        if !value.is_finite() || (!traced && value <= 0.0) {
            eprintln!("{workload}: metric {name} has no valid value ({value})");
            correct = false;
        }
        let value = if value.is_finite() { value } else { 0.0 };
        fields.push(format!(
            "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
        ));
    }
    if outcome.failed > 0 {
        eprintln!(
            "{workload}: {} of {} gated operations failed",
            outcome.failed, outcome.attempted
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in its own child process (so peak RSS is that
/// workload's alone) and prints each end-to-end metric as
/// `workload/name value unit`. Fails when any workload is incorrect.
fn run_all(seed: u64, seconds: f64) -> ExitCode {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("cannot locate the benchmark executable");
        return ExitCode::FAILURE;
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let output = std::process::Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", "0"])
            .stderr(std::process::Stdio::inherit())
            .output();
        let line = match &output {
            Ok(o) => String::from_utf8_lossy(&o.stdout)
                .lines()
                .last()
                .unwrap_or_default()
                .to_string(),
            Err(_) => String::new(),
        };
        let Ok(result) = serve::json::parse(&line) else {
            eprintln!("{workload}: no result");
            ok = false;
            continue;
        };
        let correct = result.get("correct").and_then(serve::json::Value::as_bool);
        ok &= correct == Some(true);
        let count = |key: &str| {
            result
                .get(key)
                .and_then(serve::json::Value::as_usize)
                .unwrap_or(0)
        };
        let (attempted, failed) = (count("attempted"), count("failed"));
        println!("{workload}/correct {}", correct == Some(true));
        println!(
            "{workload}/error_rate {} ratio ({failed} of {attempted} failed)",
            failed as f64 / attempted.max(1) as f64
        );
        for &(name, unit) in END_TO_END {
            let value = result
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(serve::json::Value::as_f64)
                .unwrap_or(f64::NAN);
            println!("{workload}/{name} {value} {unit}");
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Shows that every workload's output gate rejects a corrupted output.
fn self_test() -> ExitCode {
    let dir = Path::new(".bench_work").join(format!("self-test-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("cannot create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let _cleanup = ScratchDir(dir.clone());
    type Check = fn(&Path) -> Result<(), String>;
    let checks: [(&str, Check); 4] = [
        ("sweep", workloads::sweep::self_test),
        ("stream_draws", workloads::stream_draws::self_test),
        ("served", workloads::served::self_test),
        ("resident_rw", workloads::resident_rw::self_test),
    ];
    let mut ok = true;
    for (name, check) in checks {
        match check(&dir) {
            Ok(()) => println!("{name}: gate passes the true output and catches the corrupted one"),
            Err(e) => {
                println!("{name}: SELF-TEST FAILED: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables here and in `BENCHMARK.json` name the same
    /// metrics with the same units.
    #[test]
    fn benchmark_json_matches_tables() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let json = serve::json::parse(&text).expect("valid JSON");
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = json
                .get(key)
                .and_then(serve::json::Value::as_array)
                .expect(key)
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(serve::json::Value::as_str)
                            .unwrap()
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect();
            let expected: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{key}");
        }
        let names: Vec<&str> = json
            .get("workloads")
            .and_then(serve::json::Value::as_array)
            .unwrap()
            .iter()
            .filter_map(|w| w.get("name").and_then(serve::json::Value::as_str))
            .collect();
        assert_eq!(names, WORKLOADS);
    }

    /// `BENCHMARK.json` stays within the limits its format sets: a one-line
    /// `why` of at most 200 printable characters, names of at most 64 and
    /// units of at most 16 allowed characters, bounds of at most 0.25, and
    /// a whole `run_seconds` from 1 to 60.
    #[test]
    fn benchmark_json_within_format_limits() {
        use serve::json::Value;
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        assert!(text.len() <= 64 * 1024);
        let json = serve::json::parse(&text).expect("valid JSON");
        let seconds = json.get("run_seconds").and_then(Value::as_usize).unwrap();
        assert!((1..=60).contains(&seconds));
        let field = |entry: &Value, key: &str| {
            entry
                .get(key)
                .and_then(Value::as_str)
                .unwrap_or_else(|| panic!("{key} missing"))
                .to_string()
        };
        let name_ok = |s: &str, max: usize, extra: &str| {
            (1..=max).contains(&s.len())
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c) || extra.contains(c))
        };
        let array = |key: &str| json.get(key).and_then(Value::as_array).expect(key);
        let workloads = array("workloads");
        assert!((2..=8).contains(&workloads.len()));
        for w in workloads {
            let (name, why) = (field(w, "name"), field(w, "why"));
            assert!(name_ok(&name, 64, ""), "workload name {name:?}");
            assert!(
                (1..=200).contains(&why.chars().count())
                    && why.chars().all(|c| c.is_ascii_graphic() || c == ' '),
                "why of {name} must be 1 to 200 printable characters"
            );
        }
        for key in ["end_to_end", "per_layer"] {
            for m in array(key) {
                let (name, unit) = (field(m, "name"), field(m, "unit"));
                assert!(name_ok(&name, 64, ""), "metric name {name:?}");
                assert!(name_ok(&unit, 16, "/%"), "unit {unit:?} of {name}");
                if key == "end_to_end" {
                    let bound = m.get("bound").and_then(Value::as_f64).unwrap();
                    assert!(bound > 0.0 && bound <= 0.25, "bound of {name}");
                }
            }
        }
    }

    #[test]
    fn gates_catch_corruption() {
        assert_eq!(self_test(), ExitCode::SUCCESS);
    }
}
