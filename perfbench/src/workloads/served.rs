//! The served path's layers, measured in `resident_rw`'s traced run:
//! `serve::spawn` over a warm 500-system `FleetState` (the paper's fleet
//! size), closed-loop round trips per request kind, the client's parse of
//! replies, and a `sweep` computed in process on an identical state. Every
//! reply is checked against a cold `Assessment`.
//!
//! An open-loop workload at a fixed offered rate was tried and dropped:
//! on a shared 2-thread cloud VM its latency percentiles moved by far more
//! than any allowed bound from run to run (see `perfbench/NOTES.md`).

use crate::{inputs, stats, trace, Outcome};
use easyc::{
    Assessment, AssessmentOutput, DataScenario, EasyCConfig, FleetState, MetricMask, OverrideSet,
    ScenarioMatrix,
};
use serve::json::{bits_from_hex, Value};
use serve::{Client, ServeConfig, Server};
use std::net::SocketAddr;
use std::path::Path;
use top500::list::Top500List;

const SYSTEMS: u32 = 500;
const RTT_SAMPLES: usize = 200;
/// Shares of the request kinds in the parse sample: warm default
/// `assess`, cache-missing `assess`, `sweep`.
const WEIGHTS: [usize; 3] = [80, 16, 4];
const SWEEP_MATRIX: &str = "name,mask,pue_override,utilization_override,aci_override\n\
                            full,all,,,\n\
                            no-power,all -power -energy,,,\n";

fn config() -> EasyCConfig {
    EasyCConfig {
        workers: 1,
        ..EasyCConfig::default()
    }
}

/// The scenarios behind the cache-missing `assess` requests, with the
/// request fields that name them.
fn masked_requests() -> Vec<(DataScenario, String)> {
    let masked =
        |spec: &str| DataScenario::masked("default", MetricMask::parse(spec).expect("valid mask"));
    let with = |overrides: OverrideSet| DataScenario::full("default").with_overrides(overrides);
    let field = || serve::json::Obj::new().field_str("op", "assess");
    vec![
        (
            masked("all -power -energy"),
            field().field_str("mask", "all -power -energy").finish(),
        ),
        (
            masked("all -nodes -gpus -cpus"),
            field().field_str("mask", "all -nodes -gpus -cpus").finish(),
        ),
        (
            with(OverrideSet {
                pue: Some(1.1),
                ..OverrideSet::NONE
            }),
            field().field_num("pue", 1.1).finish(),
        ),
        (
            with(OverrideSet {
                aci_g_per_kwh: Some(50.0),
                ..OverrideSet::NONE
            }),
            field().field_num("aci", 50.0).finish(),
        ),
    ]
}

/// Every distinct request line, grouped by kind.
struct Catalog {
    lines: Vec<String>,
    /// Indices of each class's lines.
    by_class: [Vec<usize>; 3],
}

fn catalog() -> Catalog {
    let mut lines = vec![serve::json::Obj::new().field_str("op", "assess").finish()];
    lines.extend(masked_requests().into_iter().map(|(_, line)| line));
    lines.push(
        serve::json::Obj::new()
            .field_str("op", "sweep")
            .field_str("matrix_csv", SWEEP_MATRIX)
            .finish(),
    );
    let masked = 1..lines.len() - 1;
    Catalog {
        by_class: [vec![0], masked.collect(), vec![lines.len() - 1]],
        lines,
    }
}

/// Checks one reply summary object against a cold slice, bit for bit.
fn summary_matches(summary: Option<&Value>, footprints: &[easyc::SystemFootprint]) -> bool {
    let Some(summary) = summary else { return false };
    let t = crate::gate::fleet_totals(footprints);
    let bits = |key: &str| {
        summary
            .get(key)
            .and_then(Value::as_str)
            .and_then(bits_from_hex)
    };
    let count = |key: &str| summary.get(key).and_then(Value::as_usize);
    bits("operational_bits").map(f64::to_bits) == Some(t.operational_mt.to_bits())
        && bits("embodied_bits").map(f64::to_bits) == Some(t.embodied_mt.to_bits())
        && count("op_covered") == Some(t.op_covered)
        && count("emb_covered") == Some(t.emb_covered)
        && count("systems") == Some(t.total)
}

/// Checks a raw reply to catalog line `i` against a cold `Assessment`.
fn reply_matches_cold(reply: &str, i: usize, list: &Top500List) -> bool {
    let Ok(value) = serve::json::parse(reply) else {
        return false;
    };
    if value.get("ok").and_then(Value::as_bool) != Some(true) {
        return false;
    }
    let cold = |build: &dyn Fn(Assessment<'_>) -> Assessment<'_>| -> AssessmentOutput {
        build(Assessment::of(list).config(config()).workers(1)).run()
    };
    match i {
        0 => {
            let out = cold(&|a| a);
            summary_matches(value.get("result"), &out.slices()[0].footprints)
        }
        i if i <= masked_requests().len() => {
            let scenario = masked_requests()[i - 1].0.clone();
            let out = cold(&|a| a.scenario(scenario.clone()));
            summary_matches(value.get("result"), &out.slices()[0].footprints)
        }
        _ => {
            let Ok(matrix) = ScenarioMatrix::from_csv(SWEEP_MATRIX) else {
                return false;
            };
            let out = cold(&|a| a.scenarios(&matrix));
            let results = value
                .get("results")
                .and_then(Value::as_array)
                .unwrap_or(&[]);
            results.len() == out.len()
                && results
                    .iter()
                    .zip(out.slices())
                    .all(|(r, s)| summary_matches(Some(r), &s.footprints))
                && value.get("csv").and_then(Value::as_str)
                    == Some(frame::csv::write(&out.to_frame()).as_str())
        }
    }
}

/// Sends every catalog line once and verifies each reply against a cold
/// `Assessment`; the verified bytes become what every later reply to the
/// same line must equal.
fn verified_replies(
    addr: SocketAddr,
    list: &Top500List,
    catalog: &Catalog,
) -> Result<Vec<String>, String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut expected = Vec::new();
    for (i, line) in catalog.lines.iter().enumerate() {
        let reply = client.request_raw(line).map_err(|e| e.to_string())?;
        if !reply_matches_cold(&reply, i, list) {
            return Err(format!(
                "reply to `{}` differs from a cold assessment",
                &line[..line.len().min(60)]
            ));
        }
        expected.push(reply);
    }
    Ok(expected)
}

/// A resident state from CSV with a warm cache, served, with its first
/// `status` answered.
fn start_server(text: &str) -> Result<Server, String> {
    let mut state = FleetState::from_csv(text, config()).map_err(|e| e.to_string())?;
    state.warm();
    let server =
        serve::spawn(state, "127.0.0.1:0", ServeConfig::default()).map_err(|e| e.to_string())?;
    let status = Client::connect(server.addr())
        .and_then(|mut c| c.request(r#"{"op":"status"}"#))
        .map_err(|e| e.to_string())?;
    if status.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err("status did not answer ok".into());
    }
    Ok(server)
}

fn p50_ms(samples: &[f64]) -> f64 {
    stats::median(samples) * 1e3
}

/// Measures the served path's layers into `outcome` and counts every
/// checked reply. Records spans whatever the tracing state was.
pub(crate) fn layers(seed: u64, outcome: &mut Outcome) -> Result<(), String> {
    let text = inputs::fleet_csv(SYSTEMS, seed);
    let list = top500::io::import_csv(&text).map_err(|e| e.to_string())?;
    let catalog = catalog();
    let server = start_server(&text)?;
    let expected = verified_replies(server.addr(), &list, &catalog);
    outcome.check(expected.is_ok());
    let expected = expected?;
    trace::enable(true);

    // Closed-loop round trips per kind: the wire floor (`status`) and
    // each request kind with no queueing. Every reply must equal the
    // verified bytes for its line.
    let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
    let status = r#"{"op":"status"}"#;
    let kinds: [(&'static str, Vec<usize>); 3] = [
        ("serve.rtt.assess_warm", catalog.by_class[0].clone()),
        ("serve.rtt.assess_masked", catalog.by_class[1].clone()),
        ("serve.rtt.sweep", catalog.by_class[2].clone()),
    ];
    for _ in 0..RTT_SAMPLES {
        trace::op("serve.rtt.status", || client.request_raw(status)).map_err(|e| e.to_string())?;
    }
    for (name, lines) in &kinds {
        for k in 0..RTT_SAMPLES {
            let i = lines[k % lines.len()];
            let reply = trace::op(name, || client.request_raw(&catalog.lines[i]))
                .map_err(|e| e.to_string())?;
            outcome.check(reply == expected[i]);
        }
    }
    // Client-side JSON parse of replies drawn with the kinds' weights.
    let mut rng = inputs::rng(seed, 0x15_0A);
    for _ in 0..RTT_SAMPLES {
        let members = &catalog.by_class[inputs::pick(&mut rng, &WEIGHTS)];
        let reply = &expected[members[rng.next_bounded(members.len())]];
        trace::op("serve.json.parse", || serve::json::parse(reply).is_ok());
    }
    // The served `sweep` computed in process on an identical state, so
    // its round trip minus this is wire plus rendering the reply.
    let mut state = FleetState::from_csv(&text, config()).map_err(|e| e.to_string())?;
    state.warm();
    let sweep = ScenarioMatrix::from_csv(SWEEP_MATRIX)?;
    for _ in 0..RTT_SAMPLES {
        drop(trace::op("easyc.state.query.sweep", || {
            state.query().scenarios(&sweep).run()
        }));
    }
    trace::enable(false);
    server.shutdown();

    let spans = trace::snapshot();
    let a = trace::Analysis::of(&spans);
    let ms = |name: &str| p50_ms(a.samples(name));
    outcome.set("serve.rtt.status_p50", ms("serve.rtt.status"));
    outcome.set("serve.rtt.assess_warm_p50", ms("serve.rtt.assess_warm"));
    outcome.set("serve.rtt.assess_masked_p50", ms("serve.rtt.assess_masked"));
    outcome.set("serve.rtt.sweep_p50", ms("serve.rtt.sweep"));
    outcome.set("serve.json.parse.busy_s", a.busy("serve.json.parse"));
    outcome.set(
        "easyc.state.query.sweep_s",
        a.busy("easyc.state.query.sweep"),
    );
    Ok(())
}

/// A small server's verified replies pass the gate; one flipped hex digit
/// in a reply's `operational_bits` fails it.
pub(crate) fn self_test(_dir: &Path) -> Result<(), String> {
    let text = inputs::fleet_csv(300, 3);
    let list = top500::io::import_csv(&text).map_err(|e| e.to_string())?;
    let catalog = catalog();
    let server = start_server(&text)?;
    let expected = verified_replies(server.addr(), &list, &catalog)?;
    server.shutdown();
    let reply = &expected[1];
    let key = "\"operational_bits\":\"";
    let at = reply.find(key).ok_or("reply has no operational_bits")? + key.len() + 15;
    let mut corrupted = reply.clone().into_bytes();
    corrupted[at] = if corrupted[at] == b'0' { b'1' } else { b'0' };
    let corrupted = String::from_utf8(corrupted).map_err(|e| e.to_string())?;
    if reply_matches_cold(&corrupted, 1, &list) {
        return Err("a corrupted reply passed the gate".into());
    }
    Ok(())
}
