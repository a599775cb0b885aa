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
//! Both quotient stages share one feedback rule
//! (`kbp_kripke::QuotientGate`): a layer at least as wide as the stage's
//! gate is folded, and a fold into more than half as many classes as
//! worlds *declines* — fused generation then stays explicit, and both
//! stages skip every later layer until the frontier has doubled since the
//! decline. A gate of `0` forces its stage on every layer and never
//! declines. The following lines replay that rule over the solve's
//! per-layer stats and print each stage's decisions: where it converted
//! or kept its quotient, and where (at which width) it declined.
//!
//! Run with: `cargo run --release --example engine_gates -- [muddy|witness]`
//! (`muddy` = muddy children n=13 to horizon 14, the default; `witness` =
//! sequence transmission m=3, lossy channel, alternating tags, to
//! horizon 12 — do not turn fused generation off for it: explicitly it
//! needs tens of GiB).

use knowledge_programs::kbp_kripke::{EvalEngine, QuotientGate};
use knowledge_programs::kbp_logic::FormulaArena;
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

/// Each quotient stage's decisions, replayed from the per-layer stats
/// through the gates the solve ran with. The evaluation stage ran on a
/// layer iff it reports `quotient_worlds`; fused generation tried to fold
/// an explicit layer its gate admitted, and converted iff the next layer
/// came out reduced.
fn gate_decisions(per_layer: &[LayerStats], eval_gate: usize, gen_gate: usize) -> Vec<String> {
    let mut eval = QuotientGate::new(eval_gate);
    let mut gen = QuotientGate::new(gen_gate);
    let mut lines = Vec::new();
    for (i, l) in per_layer.iter().enumerate() {
        if l.quotient_worlds > 0 {
            let verdict = if eval.judge(l.points, l.quotient_worlds) {
                "declined"
            } else {
                "kept"
            };
            lines.push(format!(
                "eval quotient {verdict} at layer {} ({} worlds -> {} classes)",
                l.layer, l.points, l.quotient_worlds
            ));
        }
        let Some(next) = per_layer.get(i + 1) else {
            continue;
        };
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
    // The gates in force, read the way the solve read them.
    let eval_gate = EvalEngine::from_env(FormulaArena::new())?.quotient_min_worlds();
    let gen_gate = SystemBuilder::new(&ctx, Recall::Perfect)?.gen_quotient_min_worlds();
    println!("  gates: eval quotient {eval_gate}, fused generation {gen_gate}");
    for line in gate_decisions(solution.per_layer(), eval_gate, gen_gate) {
        println!("  {line}");
    }
    Ok(())
}
