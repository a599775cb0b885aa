//! The solver phase: one `SyncSolver::solve` at library defaults per
//! child process, so that each solve's `VmHWM` is its own peak, followed
//! by an answer check that does not trust the solver.

use std::collections::HashSet;
use std::time::Instant;

use kbp_core::{Kbp, Solution, SyncSolver};
use kbp_kripke::{EvalCache, EvalEngine, S5Model, WorldId};
use kbp_logic::{Agent, FormulaArena, FormulaId};
use kbp_scenarios::muddy_children::MuddyChildren;
use kbp_scenarios::sequence_transmission::{Channel, SequenceTransmission, Tagging};
use kbp_service::json::{obj, Json};
use kbp_systems::{Context, MapProtocol, Recall, StepChoices, SystemBuilder};

use crate::trace::Tracer;
use crate::{Size, Workload};

/// Committed answers: explicit-equivalent worlds, protocol entries and
/// the order-independent protocol digest of `protocol_digest`.
struct Answer {
    points: usize,
    entries: usize,
    digest: u64,
}

/// The solver instance of a workload at a size, with its answer: the
/// witness is sequence transmission with m = 3 over a lossy channel
/// with alternating tags at horizon 12; muddy is n = 13 children at
/// horizon 14. The tiny sizes only serve the self-test.
enum Instance {
    Witness(SequenceTransmission),
    Muddy(MuddyChildren),
}

fn instance(workload: Workload, size: Size) -> (Instance, usize, Answer) {
    let witness = |m| SequenceTransmission::new(m, Tagging::Alternating, Channel::Lossy);
    match (workload, size) {
        (Workload::Witness, Size::Full) => (
            Instance::Witness(witness(3)),
            12,
            Answer {
                points: 34_606_376,
                entries: 810_449,
                digest: 0xae09_e1eb_cadb_da2a,
            },
        ),
        (Workload::Witness, Size::Tiny) => (
            Instance::Witness(witness(2)),
            5,
            Answer {
                points: 1_772,
                entries: 480,
                digest: 0x13ab_d08f_093c_ef7a,
            },
        ),
        (Workload::Muddy, Size::Full) => (
            Instance::Muddy(MuddyChildren::new(13)),
            14,
            Answer {
                points: 122_865,
                entries: 1_277_757,
                digest: 0x3b0b_b89d_e7bd_8596,
            },
        ),
        (Workload::Muddy, Size::Tiny) => (
            Instance::Muddy(MuddyChildren::new(4)),
            5,
            Answer {
                points: 90,
                entries: 312,
                digest: 0x0c93_5855_41de_9a0b,
            },
        ),
    }
}

/// Peak resident set of this process in KiB (`VmHWM`).
pub fn peak_rss_kib(pid: &str) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// A digest of every protocol entry that does not depend on the map's
/// iteration order: the wrapping sum of one FNV-1a hash per entry.
pub fn protocol_digest(protocol: &MapProtocol) -> u64 {
    protocol
        .iter()
        .fold(0u64, |acc, (agent, history, actions)| {
            let mut h = Fnv::new();
            h.word(agent.index() as u64);
            h.word(history.len() as u64);
            for obs in history {
                h.word(obs.0);
            }
            h.word(actions.len() as u64);
            for a in actions {
                h.word(u64::from(a.0));
            }
            acc.wrapping_add(h.0)
        })
}

/// First round in which the muddy children of each mask know they are
/// muddy, from the public-announcement rendition (the father's
/// announcement, then "nobody knows" until every mask is resolved).
/// This is `MuddyChildren::rounds_until_known` for every mask at once:
/// the announcement sequence is the same for every mask, so one pass
/// over the shrinking cube answers all of them. It shares no code with
/// the solver.
fn announcement_rounds(sc: &MuddyChildren) -> Result<Vec<usize>, String> {
    let n = sc.children();
    let mask_of = |m: &S5Model, w: WorldId| -> usize {
        (0..n)
            .filter(|&i| m.prop_holds(w, sc.muddy(i)))
            .fold(0, |acc, i| acc | (1 << i))
    };
    let mut model = sc
        .kripke_model()
        .announce(&sc.father())
        .map_err(|e| format!("father's announcement: {e}"))?
        .into_model();
    let mut rounds = vec![0usize; 1 << n];
    let mut unresolved = (1usize << n) - 1;
    for round in 1..=n + 1 {
        for w in model.worlds() {
            let mask = mask_of(&model, w);
            if rounds[mask] != 0 {
                continue;
            }
            let know = (0..n).filter(|&i| mask & (1 << i) != 0).all(|i| {
                model
                    .cell(sc.child(i), w)
                    .iter()
                    .all(|&v| model.prop_holds(WorldId::new(v as usize), sc.muddy(i)))
            });
            if know {
                rounds[mask] = round;
                unresolved -= 1;
            }
        }
        if unresolved == 0 {
            return Ok(rounds);
        }
        model = model
            .announce(&sc.nobody_knows())
            .map_err(|e| format!("round {round} announcement: {e}"))?
            .into_model();
    }
    Err(format!("{unresolved} masks never resolved"))
}

fn check_muddy(
    sc: &MuddyChildren,
    solution: &Solution,
    seed: u64,
    corrupt: bool,
) -> Result<(), String> {
    let n = sc.children();
    let mut oracle = announcement_rounds(sc)?;
    // The batched oracle must agree with the scenario's own per-mask
    // oracle on a seeded sample (each call re-runs every announcement).
    let mut rng = crate::rng::Rng::stream(seed, 0xA11);
    let full = (1u32 << n) - 1;
    for mask in [full, 1 + rng.below(u64::from(full)) as u32] {
        let direct = sc.rounds_until_known(mask);
        if direct != oracle[mask as usize] {
            return Err(format!(
                "batched oracle says {} for mask {mask:#x}, rounds_until_known says {direct}",
                oracle[mask as usize]
            ));
        }
    }
    if corrupt {
        oracle[1] += 1;
    }
    for mask in 1..=full {
        let got = sc.yes_round(solution.system(), mask);
        if got != Some(oracle[mask as usize]) {
            return Err(format!(
                "mask {mask:#x}: solved system answers yes in round {got:?}, oracle says {}",
                oracle[mask as usize]
            ));
        }
    }
    Ok(())
}

/// Compares a solve with its committed answer.
fn check_answer(
    answer: &Answer,
    solution: &Solution,
    digest: u64,
    corrupt: bool,
) -> Result<(), String> {
    let stats = solution.stats();
    let expected_digest = if corrupt {
        answer.digest ^ 1
    } else {
        answer.digest
    };
    if stats.points != answer.points {
        return Err(format!(
            "{} explicit-equivalent worlds, expected {}",
            stats.points, answer.points
        ));
    }
    if stats.protocol_entries != answer.entries {
        return Err(format!(
            "{} protocol entries, expected {}",
            stats.protocol_entries, answer.entries
        ));
    }
    if digest != expected_digest {
        return Err(format!(
            "protocol digest {digest:#018x}, expected {expected_digest:#018x}"
        ));
    }
    Ok(())
}

/// Layer totals gathered by the replay.
#[derive(Debug, Default)]
struct ReplayCounts {
    resident_worlds: u64,
    explicit_worlds: u64,
    layers_reduced: u64,
    layers_compressed: u64,
}

/// The step choices the solved protocol makes on the `SystemBuilder`'s current
/// layer. Built outside every span, through a hash set: one entry per
/// distinct local state, as the solver records them.
fn choices_from(
    builder: &SystemBuilder<'_>,
    agents: usize,
    protocol: &MapProtocol,
) -> Result<StepChoices, String> {
    let layer = builder.current();
    let mut choices = StepChoices::new();
    for i in 0..agents {
        let agent = Agent::new(i);
        let locals: Vec<_> = match layer.quotient().filter(|q| q.class_count() == layer.len()) {
            Some(q) => (0..q.class_count())
                .flat_map(|c| q.members(agent, c).iter().copied())
                .collect(),
            None => layer.nodes().iter().map(|node| node.local(agent)).collect(),
        };
        let mut seen = HashSet::new();
        for local in locals {
            if seen.insert(local) {
                let history = builder.local_history(agent, local);
                let actions = protocol.get(agent, &history).ok_or_else(|| {
                    format!(
                        "no protocol entry for agent {i} at layer {}",
                        builder.time()
                    )
                })?;
                choices.set(agent, local, actions.to_vec());
            }
        }
    }
    Ok(choices)
}

/// Rebuilds the solved system layer by layer, timing each public call:
/// `populate` (or `populate_prereduced`) then `bisimilarity` on each
/// layer model, then `step` with the solved protocol's choices, and
/// finally `stabilization`. The rebuilt system must match the solution.
fn replay(
    ctx: &dyn Context,
    kbp: &Kbp,
    horizon: usize,
    solution: &Solution,
    tracer: &mut Tracer,
) -> Result<ReplayCounts, String> {
    let mut engine = EvalEngine::from_env(FormulaArena::new()).map_err(|e| e.to_string())?;
    let mut roots: Vec<FormulaId> = kbp
        .programs()
        .iter()
        .flat_map(|p| {
            p.clauses()
                .iter()
                .map(|c| c.guard.clone())
                .collect::<Vec<_>>()
        })
        .map(|g| engine.intern(&g))
        .collect();
    roots.sort_unstable();
    roots.dedup();
    let mut builder = SystemBuilder::new(ctx, Recall::Perfect).map_err(|e| e.to_string())?;
    let mut counts = ReplayCounts::default();
    for t in 0..=horizon {
        let layer = builder.current();
        counts.resident_worlds += layer.len() as u64;
        counts.explicit_worlds += layer.explicit_len();
        if layer.is_reduced() {
            counts.layers_reduced += 1;
            if (layer.len() as u64) < layer.explicit_len() {
                counts.layers_compressed += 1;
            }
        }
        let model = layer.model();
        let mut cache = EvalCache::new();
        let reduced = layer.is_reduced();
        tracer
            .span("kripke.populate", t as u64, |_| {
                if reduced {
                    engine.populate_prereduced(model, &mut cache, &roots)
                } else {
                    engine.populate(model, &mut cache, &roots)
                }
            })
            .map_err(|e| e.to_string())?;
        let classes = tracer.span("kripke.bisim", t as u64, |_| model.bisimilarity().len());
        std::hint::black_box(classes);
        if t < horizon {
            let choices = choices_from(&builder, ctx.agent_count(), solution.protocol())?;
            tracer
                .span("systems.step", t as u64, |_| builder.step(&choices))
                .map_err(|e| e.to_string())?;
        }
    }
    let system = builder.finish();
    if system.explicit_point_count() != solution.system().explicit_point_count() {
        return Err(format!(
            "replay built {} explicit-equivalent worlds, the solve {}",
            system.explicit_point_count(),
            solution.system().explicit_point_count()
        ));
    }
    let stabilized = tracer.span("systems.stabilize", 0, |_| system.stabilization());
    if stabilized != solution.stabilized() {
        return Err("replay stabilizes at a different layer".to_string());
    }
    Ok(counts)
}

/// What a solve child does besides solving.
#[derive(Debug, Clone, Copy)]
pub struct ChildOptions {
    pub seed: u64,
    /// Check the muddy answer against the announcement oracle too (the
    /// first solve of a run; the others must match its committed
    /// digest).
    pub oracle: bool,
    /// Flip the expected answer, to show that a wrong answer fails.
    pub corrupt: bool,
    /// Replay the solve under spans.
    pub trace: bool,
}

/// Entry of the `solve-child` subcommand: build, solve once, check,
/// optionally replay under spans, and print one JSON line.
pub fn child_main(workload: Workload, size: Size, opts: ChildOptions) -> i32 {
    let ChildOptions {
        seed,
        oracle,
        corrupt,
        trace,
    } = opts;
    let started = Instant::now();
    let (inst, horizon, answer) = instance(workload, size);
    let (ctx, kbp) = match &inst {
        Instance::Witness(sc) => (sc.context(), sc.kbp()),
        Instance::Muddy(sc) => (sc.context(), sc.kbp()),
    };
    let setup_ns = started.elapsed().as_nanos() as u64;
    let mut tracer = Tracer::new();
    let solver = SyncSolver::new(&ctx, &kbp).horizon(horizon);
    let host_before = crate::host_cpu();
    let timer = Instant::now();
    let solved = if trace {
        tracer.span("core.solve", 0, |_| solver.solve())
    } else {
        solver.solve()
    };
    let solve_ns = timer.elapsed().as_nanos() as u64;
    let steal_ns = ((crate::stolen_s(host_before) * 1e9) as u64).min(solve_ns);
    let hwm_kib = peak_rss_kib("self").unwrap_or(0);
    let mut fields: Vec<(&str, Json)> = vec![
        ("setup_ns", Json::U64(setup_ns)),
        ("solve_ns", Json::U64(solve_ns)),
        ("solve_steal_ns", Json::U64(steal_ns)),
        ("hwm_kib", Json::U64(hwm_kib)),
    ];
    let verdict = solved
        .map_err(|e| format!("solve failed: {e}"))
        .and_then(|solution| {
            let stats = solution.stats();
            fields.push(("points", Json::U64(stats.points as u64)));
            fields.push(("entries", Json::U64(stats.protocol_entries as u64)));
            let digest = protocol_digest(solution.protocol());
            fields.push(("digest", Json::U64(digest)));
            if let (Instance::Muddy(sc), true) = (&inst, oracle) {
                check_muddy(sc, &solution, seed, corrupt)?;
            }
            check_answer(&answer, &solution, digest, corrupt)?;
            if trace {
                let counts = replay(&ctx, &kbp, horizon, &solution, &mut tracer)?;
                let out = crate::trace_path(workload, seed, "solver");
                tracer
                    .write_jsonl(&out)
                    .map_err(|e| format!("writing {}: {e}", out.display()))?;
                let ns = |name: &str| Json::U64(tracer.total_ns(name) as u64);
                fields.push(("core.solve_ns", ns("core.solve")));
                fields.push(("systems.step_ns", ns("systems.step")));
                fields.push(("kripke.populate_ns", ns("kripke.populate")));
                fields.push(("kripke.bisim_ns", ns("kripke.bisim")));
                fields.push(("systems.stabilize_ns", ns("systems.stabilize")));
                fields.push(("systems.resident_worlds", Json::U64(counts.resident_worlds)));
                fields.push(("systems.explicit_worlds", Json::U64(counts.explicit_worlds)));
                fields.push(("systems.layers_reduced", Json::U64(counts.layers_reduced)));
                fields.push((
                    "systems.layers_compressed",
                    Json::U64(counts.layers_compressed),
                ));
                fields.push(("kripke.populate_worlds", Json::U64(counts.resident_worlds)));
                fields.push(("trace.spans", Json::U64(tracer.spans().len() as u64)));
            }
            // The process exits next; tearing down hundreds of MiB of
            // solved system would only make the run longer.
            std::mem::forget(solution);
            Ok(())
        });
    let ok = verdict.is_ok();
    fields.push(("ok", Json::Bool(ok)));
    fields.push(("detail", Json::Str(verdict.err().unwrap_or_default())));
    println!("{}", obj(fields).to_line());
    i32::from(!ok)
}
