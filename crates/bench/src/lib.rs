//! Criterion benchmark harness for the Confluence reproduction.
//!
//! The benchmarks live in `benches/`:
//!
//! - `figures` — one benchmark per paper table/figure, running the
//!   experiment pipelines at reduced scale (the `confluence` binary's
//!   figure subcommands run them at full scale);
//! - `micro` — throughput microbenchmarks of the core structures (AirBTB,
//!   SHIFT engine, trace executor, direction predictor, caches).

/// Shared helper: a small, deterministic workload for benches.
pub fn bench_program() -> confluence_trace::Program {
    confluence_trace::Program::generate(&confluence_trace::WorkloadSpec::base().with_code_kb(512))
        .expect("bench spec is valid")
}
