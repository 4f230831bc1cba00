//! Columnar-kernel scaling: the struct-of-arrays assessment kernels and
//! the blocked Monte-Carlo draw kernels at fleet scale, single-threaded —
//! the perf surface the `FleetColumns` fast path is accountable for.
//! Run with `BENCH_JSON=BENCH_kernels.json` to capture machine-readable
//! numbers alongside the printed report.

use bench::BENCH_SEED;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use easyc::{
    Assessment, DataScenario, FleetColumns, MetricBit, MetricMask, ScenarioMatrix, SevenMetrics,
};
use top500::synthetic::{generate_full, SyntheticConfig};

fn matrix() -> ScenarioMatrix {
    ScenarioMatrix::new()
        .with(DataScenario::full("full"))
        .with(DataScenario::masked(
            "no-power",
            MetricMask::ALL
                .without(MetricBit::PowerKw)
                .without(MetricBit::AnnualEnergy),
        ))
        .with(DataScenario::masked(
            "no-structure",
            MetricMask::ALL
                .without(MetricBit::Nodes)
                .without(MetricBit::Gpus),
        ))
}

fn bench_kernels(c: &mut Criterion) {
    // Columns build cost: one pass over the fleet with memoised hardware
    // lookups — amortised across every scenario of a session.
    let list = generate_full(&SyntheticConfig {
        n: 2000,
        seed: BENCH_SEED,
        ..Default::default()
    });
    let metrics: Vec<SevenMetrics> = list.systems().iter().map(SevenMetrics::extract).collect();
    c.bench_function("kernel_scaling/fleet_columns_build_2000", |b| {
        b.iter(|| FleetColumns::build(std::hint::black_box(&list), &metrics))
    });

    // Three-scenario matrix through the columnar kernels, single-threaded:
    // word-wide mask classification plus per-path lane sweeps.
    let matrix = matrix();
    let mut group = c.benchmark_group("kernel_scaling/matrix_assess");
    for n in [500u32, 2000, 10_000] {
        let fleet = generate_full(&SyntheticConfig {
            n,
            seed: BENCH_SEED,
            ..Default::default()
        });
        group.throughput(Throughput::Elements(3 * u64::from(n)));
        group.bench_with_input(BenchmarkId::from_parameter(n), &fleet, |b, fleet| {
            b.iter(|| {
                Assessment::of(std::hint::black_box(fleet))
                    .workers(1)
                    .scenarios(&matrix)
                    .run()
            })
        });
    }
    group.finish();

    // Blocked Monte-Carlo draws over a 512-system fleet, two scenarios:
    // factor columns hoisted per scenario, one noise column per sample
    // shared by both scenarios (CRN keying).
    let fleet = generate_full(&SyntheticConfig {
        n: 512,
        seed: BENCH_SEED,
        ..Default::default()
    });
    let two = ScenarioMatrix::new()
        .with(DataScenario::full("full"))
        .with(DataScenario::masked(
            "no-power",
            MetricMask::ALL
                .without(MetricBit::PowerKw)
                .without(MetricBit::AnnualEnergy),
        ));
    let mut group = c.benchmark_group("kernel_scaling/blocked_draws_512x2");
    for draws in [256usize, 1024] {
        group.throughput(Throughput::Elements(draws as u64));
        group.bench_with_input(BenchmarkId::from_parameter(draws), &draws, |b, &draws| {
            b.iter(|| {
                Assessment::of(std::hint::black_box(&fleet))
                    .workers(1)
                    .scenarios(&two)
                    .uncertainty(draws)
                    .seed(7)
                    .run()
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_kernels
}
criterion_main!(benches);
