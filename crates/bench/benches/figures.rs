//! One benchmark per paper table/figure, plus engine-path benchmarks.
//!
//! Figure benchmarks run against a pre-warmed [`SimEngine`], so they
//! measure the cost of regenerating a figure when its simulations are
//! already cached (the steady-state cost inside `confluence all`). The
//! `engine` group contrasts that warm path with the cold path — a fresh
//! engine that must actually execute the simulations — which is the
//! headline win of the memoizing engine.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use confluence_sim::experiments::{self, ExperimentConfig};
use confluence_sim::SimEngine;

/// Two representative workloads keep bench time bounded.
fn quick_engine() -> (SimEngine, ExperimentConfig) {
    let cfg = ExperimentConfig::quick();
    let workloads = cfg.workloads().into_iter().take(2).collect();
    (SimEngine::new(workloads), cfg)
}

macro_rules! warm_figure_bench {
    ($fn_name:ident, $figure:ident, $id:literal) => {
        fn $fn_name(c: &mut Criterion) {
            let (engine, cfg) = quick_engine();
            // Warm the cache once; iterations then measure formatting over
            // cached results.
            black_box(experiments::$figure(&engine, &cfg));
            c.bench_function($id, |b| {
                b.iter(|| black_box(experiments::$figure(&engine, &cfg)))
            });
        }
    };
}

warm_figure_bench!(bench_fig1_btb_mpki, fig1, "fig1_btb_mpki_sweep_warm");
warm_figure_bench!(
    bench_table2_branch_density,
    table2,
    "table2_branch_density_warm"
);
warm_figure_bench!(
    bench_fig8_coverage_breakdown,
    fig8,
    "fig8_coverage_breakdown_warm"
);
warm_figure_bench!(
    bench_fig9_coverage_compare,
    fig9,
    "fig9_coverage_compare_warm"
);
warm_figure_bench!(
    bench_fig10_airbtb_sensitivity,
    fig10,
    "fig10_airbtb_sensitivity_warm"
);
warm_figure_bench!(bench_l1i_coverage, l1i_coverage, "l1i_coverage_shift_warm");
warm_figure_bench!(
    bench_fig2_conventional,
    fig2,
    "fig2_conventional_frontends_warm"
);
warm_figure_bench!(
    bench_fig6_confluence,
    fig6,
    "fig6_confluence_perf_area_warm"
);
warm_figure_bench!(
    bench_fig7_btb_designs,
    fig7,
    "fig7_btb_designs_with_shift_warm"
);

fn bench_area_table(c: &mut Criterion) {
    c.bench_function("area_table_cacti_lite", |b| {
        b.iter(|| black_box(experiments::area_table()))
    });
}

/// Cold path: a fresh engine per iteration must execute Figure 9's
/// simulations (the workload programs are reused via `Arc`, so the cost
/// measured is simulation, not generation).
fn bench_engine_cold_fig9(c: &mut Criterion) {
    let (warm, cfg) = quick_engine();
    let workloads = warm.workloads().to_vec();
    c.bench_function("engine_cold_fig9", |b| {
        b.iter_batched(
            || SimEngine::new(workloads.clone()),
            |engine| black_box(experiments::fig9(&engine, &cfg)),
            BatchSize::PerIteration,
        )
    });
}

/// Warm path: the same figure over an engine whose cache already holds
/// every job — pure formatting.
fn bench_engine_warm_fig9(c: &mut Criterion) {
    let (engine, cfg) = quick_engine();
    black_box(experiments::fig9(&engine, &cfg));
    c.bench_function("engine_warm_fig9", |b| {
        b.iter(|| black_box(experiments::fig9(&engine, &cfg)))
    });
}

criterion_group! {
    name = coverage_figures;
    config = Criterion::default().sample_size(10);
    targets = bench_fig1_btb_mpki, bench_table2_branch_density,
        bench_fig8_coverage_breakdown, bench_fig9_coverage_compare,
        bench_fig10_airbtb_sensitivity, bench_l1i_coverage, bench_area_table
}

criterion_group! {
    name = timing_figures;
    config = Criterion::default().sample_size(10);
    targets = bench_fig2_conventional, bench_fig6_confluence, bench_fig7_btb_designs
}

criterion_group! {
    name = engine_paths;
    config = Criterion::default().sample_size(10);
    targets = bench_engine_cold_fig9, bench_engine_warm_fig9
}

criterion_main!(coverage_figures, timing_figures, engine_paths);
