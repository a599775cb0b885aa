//! One solve of a benchmark instance under whatever `KBP_*` engine gates
//! the environment sets, for measuring what each gate buys.
//!
//! The benchmark runner (`perfbench/`) strips every `KBP_*` variable so
//! that it measures library defaults only; this example is its
//! counterpart for gate studies. It builds the instance, runs one
//! `SyncSolver::solve` with nothing configured in code (so
//! `KBP_EVAL_THREADS`, `KBP_SHARD_MIN_WORLDS`, `KBP_QUOTIENT_MIN_WORLDS`
//! and `KBP_GEN_QUOTIENT_MIN_WORLDS` take effect) and prints one line:
//! wall-clock seconds, peak RSS (`VmHWM`), protocol entries, and on how
//! many layers fused generation, the evaluation quotient and kernel
//! sharding engaged (and how many of them compressed) — the evidence that
//! a gate setting took effect.
//!
//! Run with: `cargo run --release --example engine_gates -- [muddy|witness]`
//! (`muddy` = muddy children n=13 to horizon 14, the default; `witness` =
//! sequence transmission m=3, lossy channel, alternating tags, to
//! horizon 12 — do not turn fused generation off for it: explicitly it
//! needs tens of GiB).

use knowledge_programs::prelude::*;
use std::time::Instant;

/// Peak resident set size of this process in MiB (`VmHWM`), if the
/// platform exposes it.
fn peak_rss_mib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let which = std::env::args().nth(1).unwrap_or_else(|| "muddy".into());
    let (ctx, kbp, horizon) = match which.as_str() {
        "muddy" => {
            let sc = MuddyChildren::new(13);
            (sc.context(), sc.kbp(), 14)
        }
        "witness" => {
            let sc = SequenceTransmission::new(3, Tagging::Alternating, Channel::Lossy);
            (sc.context(), sc.kbp(), 12)
        }
        other => return Err(format!("unknown instance {other:?}: muddy or witness").into()),
    };
    let started = Instant::now();
    let solution = SyncSolver::new(&ctx, &kbp).horizon(horizon).solve()?;
    let seconds = started.elapsed().as_secs_f64();
    let stats = solution.stats();
    let engaged =
        |f: fn(&LayerStats) -> usize| solution.per_layer().iter().filter(|l| f(l) > 0).count();
    println!(
        "{which}: {seconds:.3} s, {} MiB peak, {} entries, {} layers; fused generation on {} \
         ({} compressed), eval quotient on {} ({} compressed), {} sharded",
        peak_rss_mib().unwrap_or(0),
        stats.protocol_entries,
        stats.layers,
        engaged(|l| l.gen_quotient_worlds),
        stats.layers_gen_quotiented,
        engaged(|l| l.quotient_worlds),
        stats.layers_quotiented,
        stats.layers_sharded,
    );
    Ok(())
}
