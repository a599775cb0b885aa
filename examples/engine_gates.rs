//! One solve of a benchmark instance under whatever fused-generation gate
//! the environment sets, for measuring what the gate buys.
//!
//! The benchmark runner (`perfbench/`) strips every `KBP_*` variable so
//! that it measures library defaults only; this example is its
//! counterpart for gate studies. It builds the instance, runs one
//! `SyncSolver::solve` with nothing configured in code (so
//! `KBP_GEN_QUOTIENT_MIN_WORLDS`, the engine's one knob, takes effect)
//! and prints one line: wall-clock seconds, peak RSS (`VmHWM`), protocol
//! entries, and on how many layers fused generation engaged (and how many
//! of them compressed) — the evidence that a gate setting took effect.
//!
//! The gate (`kbp_kripke::QuotientGate`) folds a layer at least as wide
//! as its threshold, and a fold into more than half as many classes as
//! worlds *declines*: generation then stays explicit and skips every
//! later layer until the frontier has doubled since the decline. A gate
//! of `0` folds every layer and never declines. The following lines
//! replay that rule over the solve's per-layer stats and print each
//! decision: where fused generation converted, and where (at which width)
//! it declined.
//!
//! Run with: `cargo run --release --example engine_gates -- [muddy|witness]`
//! (`muddy` = muddy children n=13 to horizon 14, the default; `witness` =
//! sequence transmission m=3, lossy channel, alternating tags, to
//! horizon 12 — do not turn fused generation off for it: explicitly it
//! needs tens of GiB).

use knowledge_programs::kbp_kripke::QuotientGate;
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

/// Fused generation's decisions, replayed from the per-layer stats
/// through the gate the solve ran with: it tried to fold an explicit layer
/// its gate admitted, and converted iff the next layer came out reduced.
fn gate_decisions(per_layer: &[LayerStats], gen_gate: usize) -> Vec<String> {
    let mut gen = QuotientGate::new(gen_gate);
    let mut lines = Vec::new();
    for (l, next) in per_layer.iter().zip(per_layer.iter().skip(1)) {
        if l.gen_quotient_worlds == 0 && gen.admits(l.points) {
            let verdict = if next.gen_quotient_worlds > 0 {
                "converted"
            } else {
                gen.decline(l.points);
                "declined"
            };
            lines.push(format!(
                "fused generation {verdict} at layer {} ({} worlds)",
                l.layer, l.points
            ));
        }
    }
    lines
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
    let fused = solution
        .per_layer()
        .iter()
        .filter(|l| l.gen_quotient_worlds > 0)
        .count();
    println!(
        "{which}: {seconds:.3} s, {} MiB peak, {} entries, {} layers; fused generation on {fused} \
         ({} compressed)",
        peak_rss_mib().unwrap_or(0),
        stats.protocol_entries,
        stats.layers,
        stats.layers_gen_quotiented,
    );
    // The gate in force, read the way the solve read it.
    let gen_gate = SystemBuilder::new(&ctx, Recall::Perfect)?.gen_quotient_min_worlds();
    println!("  gate: fused generation {gen_gate}");
    for line in gate_decisions(solution.per_layer(), gen_gate) {
        println!("  {line}");
    }
    Ok(())
}
