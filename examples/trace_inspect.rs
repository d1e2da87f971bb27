//! Inspect the statistical properties of a generated workload trace:
//! branch mix, working sets and temporal-stream recurrence.
//!
//! ```sh
//! cargo run --release --example trace_inspect
//! ```

use confluence::trace::{Program, StreamStats, TraceStats, Workload};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    for w in Workload::ALL {
        let spec = w.spec().with_code_kb(w.spec().target_code_kb / 4);
        let program = Program::generate(&spec)?;
        let n = 500_000;
        let stats = TraceStats::collect(program.executor(1).take(n), &program);
        let streams = StreamStats::collect(program.executor(1).take(n));
        println!("== {} ==", w.name());
        println!("  instructions          : {}", stats.instrs);
        println!(
            "  branch fraction       : {:.1}%",
            100.0 * stats.branch_fraction()
        );
        println!(
            "  taken per kilo-instr  : {:.0}",
            stats.taken_per_kilo_instr()
        );
        println!(
            "  working set           : {:.0} KiB",
            stats.working_set_kb()
        );
        println!(
            "  BTB footprint         : {} taken-branch PCs",
            stats.unique_taken_branch_pcs
        );
        println!(
            "  static branches/block : {:.2}",
            stats.static_branches_per_block
        );
        println!(
            "  repeat transitions    : {:.1}%",
            100.0 * streams.repeat_transition_frac
        );
        println!(
            "  mean repeated run     : {:.1} blocks",
            streams.mean_repeat_run
        );
    }
    Ok(())
}
