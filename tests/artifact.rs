//! The per-(scenario, system) CSV artifact has three writers — the
//! streamed spill (`SweepCsvWriter`, behind `sweep --stream --out`),
//! `SessionOutput::write_csv` (behind `sweep --out`) and
//! `SessionOutput::to_csv` (the served sweep's `csv` field) — and one oracle, `frame::csv::write` over
//! `to_frame`. All four must agree byte for byte on fields that need
//! quoting: a scenario name with a comma and quotes, and error notes.

use top500_carbon::analysis::report::SweepCsvWriter;
use top500_carbon::easyc::{Assessment, EasyCConfig, FleetState, ScenarioMatrix};
use top500_carbon::frame::{self, Value};
use top500_carbon::serve::json::{Obj, Value as Json};
use top500_carbon::serve::{spawn, Client, ServeConfig};
use top500_carbon::top500::list::Top500List;
use top500_carbon::top500::stream::InMemoryChunks;
use top500_carbon::top500::synthetic::{generate_full, mask_baseline, MaskRates, SyntheticConfig};

/// Three scenarios; the second is named `a,"b"` and hides power, energy
/// and node counts, so many of its rows carry an error note.
const MATRIX_CSV: &str = "name,mask,pue_override,utilization_override,aci_override\n\
                          full,all,,,\n\
                          \"a,\"\"b\"\"\",all -power -energy -nodes,,,\n\
                          site-pue,all,1.1,,\n";

fn fleet() -> Top500List {
    let full = generate_full(&SyntheticConfig {
        n: 90,
        seed: 17,
        ..Default::default()
    });
    mask_baseline(&full, &MaskRates::default(), 5)
}

#[test]
fn every_artifact_writer_quotes_identically() {
    let list = fleet();
    let matrix = ScenarioMatrix::from_csv(MATRIX_CSV).unwrap();
    assert_eq!(matrix.scenarios()[1].name, "a,\"b\"");
    let output = Assessment::of(&list).scenarios(&matrix).run();
    let oracle = frame::csv::write(&output.to_frame());

    // The fixture exercises quoting: the scenario field on every row of
    // the second block, and error notes on some rows.
    assert!(
        oracle.contains("\n\"a,\"\"b\"\"\",1,"),
        "quoted scenario field"
    );
    let back = frame::csv::parse(&oracle).unwrap();
    assert_eq!(
        back.value("scenario", list.len()).unwrap(),
        Value::Str("a,\"b\"".into())
    );
    let notes = back.column("note").unwrap();
    let noted = (0..back.len())
        .filter(|&i| notes.value(i) != Value::Null)
        .count();
    assert!(noted > 0 && noted < back.len(), "{noted} error notes");

    let mut written = Vec::new();
    output.write_csv(&mut written).unwrap();
    assert_eq!(String::from_utf8(written).unwrap(), oracle, "write_csv");
    assert_eq!(output.to_csv(), oracle, "to_csv");

    for rows in [1usize, 7, 90] {
        let target = std::env::temp_dir().join(format!(
            "artifact-quoting-{}-{rows}.csv",
            std::process::id()
        ));
        let mut writer = SweepCsvWriter::create(&target, matrix.len()).unwrap();
        Assessment::stream(InMemoryChunks::new(&list, rows))
            .scenarios(&matrix)
            .rows(|block| writer.append(&block))
            .run()
            .unwrap();
        writer.finish().unwrap();
        let spilled = std::fs::read_to_string(&target).unwrap();
        std::fs::remove_file(&target).ok();
        assert_eq!(spilled, oracle, "streamed spill, {rows} rows per chunk");
    }

    let server = spawn(
        FleetState::from_list(list, EasyCConfig::default()),
        "127.0.0.1:0",
        ServeConfig::default(),
    )
    .unwrap();
    let mut client = Client::connect(server.addr()).unwrap();
    let request = Obj::new()
        .field_str("op", "sweep")
        .field_str("matrix_csv", MATRIX_CSV)
        .finish();
    let response = client.request(&request).unwrap();
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(true));
    assert_eq!(
        response.get("csv").and_then(Json::as_str),
        Some(oracle.as_str()),
        "served sweep"
    );
    server.shutdown();
}
