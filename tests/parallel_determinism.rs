//! Determinism of the solver when several solves run at once.
//!
//! The solver has one sequential evaluation path; intra-layer sharding,
//! cross-layer carry-forward, the parallel root fill and the
//! evaluation-side quotient are gone (EXPERIMENTS.md E22), so no solve
//! spawns threads of its own. Solves still run side by side — `kbpd`
//! hands jobs to a worker pool — and nothing observable may depend on
//! that: on every scenario in `kbp-scenarios`, the solution (protocol,
//! stabilization point, stats, per-layer breakdown) must be
//! bit-identical whether it is computed alone or on each of 1, 2, or
//! `available_parallelism` threads solving concurrently, with fused
//! generation (`SyncSolver::gen_quotient_min_worlds` /
//! `KBP_GEN_QUOTIENT_MIN_WORLDS`) forced on or off. The only sanctioned
//! exceptions are the generation diagnostics —
//! `LayerStats::{gen_quotient_worlds, gen_quotient_ratio}` and
//! `SolveStats::layers_gen_quotiented` — which are pinned against the
//! per-layer breakdown and the gate and then normalized out of the
//! bit-for-bit comparison.

use kbp_core::{Kbp, LayerStats, Solution, SyncSolver};
use kbp_scenarios::bit_transmission::{BitTransmission, Channel};
use kbp_scenarios::coordinated_attack::CoordinatedAttack;
use kbp_scenarios::muddy_children::MuddyChildren;
use kbp_scenarios::robot::Robot;
use kbp_scenarios::sequence_transmission::{SequenceTransmission, Tagging};
use kbp_systems::{FnContext, Recall};

/// Every dynamic scenario the crate ships, with a solving horizon that
/// the seed suite already exercises.
fn scenarios() -> Vec<(&'static str, FnContext, Kbp, usize, Recall)> {
    let mc = MuddyChildren::new(3);
    let bt = BitTransmission::new(Channel::Lossy);
    let st = SequenceTransmission::new(2, Tagging::Alternating, Channel::Lossy);
    let ro = Robot::new(7, 3, 5);
    let ca = CoordinatedAttack::new(Channel::Lossy);
    vec![
        ("muddy_children", mc.context(), mc.kbp(), 4, Recall::Perfect),
        (
            "bit_transmission",
            bt.context(),
            bt.kbp(),
            5,
            Recall::Perfect,
        ),
        (
            "bit_transmission_obs",
            bt.context(),
            bt.kbp(),
            6,
            Recall::Observational,
        ),
        (
            "sequence_transmission",
            st.context(),
            st.kbp(),
            6,
            Recall::Perfect,
        ),
        ("robot", ro.context(), ro.kbp(), 5, Recall::Perfect),
        (
            "coordinated_attack",
            ca.context(),
            ca.kbp(),
            4,
            Recall::Perfect,
        ),
    ]
}

/// Concurrent solver counts to try; the machine's parallelism is capped
/// at 4 so the test stays small on wide hosts.
fn thread_counts() -> Vec<usize> {
    let avail = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut counts = vec![1, 2, avail.min(4)];
    counts.sort_unstable();
    counts.dedup();
    counts
}

/// Strips the generation diagnostics from a per-layer breakdown, after
/// the caller has pinned them against the gate.
fn without_schedule_diagnostics(per_layer: &[LayerStats]) -> Vec<LayerStats> {
    per_layer
        .iter()
        .map(|l| LayerStats {
            gen_quotient_worlds: 0,
            gen_quotient_ratio: 0,
            ..*l
        })
        .collect()
}

/// Asserts that `solution`, solved with generation gate `min_gen`,
/// matches the explicit `reference` in everything but the generation
/// diagnostics, and that those agree with the breakdown and the gate.
fn assert_matches_reference(reference: &Solution, solution: &Solution, min_gen: usize, at: &str) {
    for layer in solution.per_layer() {
        if min_gen == usize::MAX {
            assert_eq!(
                (layer.gen_quotient_worlds, layer.gen_quotient_ratio),
                (0, 0),
                "layer {} generation-quotiented while disabled at {at}",
                layer.layer
            );
        }
    }
    let recorded_gen_quotiented = solution
        .per_layer()
        .iter()
        .filter(|l| l.gen_quotient_worlds > 0 && l.gen_quotient_worlds < l.points)
        .count();
    assert_eq!(
        reference.protocol(),
        solution.protocol(),
        "protocol diverged at {at}"
    );
    assert_eq!(
        reference.stabilized(),
        solution.stabilized(),
        "stabilization diverged at {at}"
    );
    assert_eq!(
        without_schedule_diagnostics(reference.per_layer()),
        without_schedule_diagnostics(solution.per_layer()),
        "per-layer stats diverged at {at}"
    );
    let mut expected = reference.stats();
    let got = solution.stats();
    assert_eq!(
        got.layers_gen_quotiented, recorded_gen_quotiented,
        "layers_gen_quotiented diverged from the breakdown at {at}"
    );
    expected.layers_gen_quotiented = got.layers_gen_quotiented;
    assert_eq!(expected, got, "stats diverged at {at}");
}

#[test]
fn solutions_are_identical_across_thread_counts_sharding_and_carry_forward() {
    let scenarios = scenarios();
    // Reference: every scenario solved alone, explicitly generated.
    let references: Vec<Solution> = scenarios
        .iter()
        .map(|(name, ctx, kbp, horizon, recall)| {
            let reference = SyncSolver::new(ctx, kbp)
                .horizon(*horizon)
                .recall(*recall)
                .gen_quotient_min_worlds(usize::MAX)
                .solve()
                .unwrap_or_else(|e| panic!("{name}: reference solve failed: {e}"));
            assert_eq!(reference.stats().layers_gen_quotiented, 0);
            reference
        })
        .collect();

    for threads in thread_counts() {
        // Every thread solves the whole zoo at both gates, over the same
        // shared contexts, while the other threads do the same.
        let per_thread: Vec<Vec<(usize, usize, Solution)>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        let mut out = Vec::new();
                        for (i, (name, ctx, kbp, horizon, recall)) in scenarios.iter().enumerate() {
                            for min_gen in [usize::MAX, 0] {
                                let solution = SyncSolver::new(ctx, kbp)
                                    .horizon(*horizon)
                                    .recall(*recall)
                                    .gen_quotient_min_worlds(min_gen)
                                    .solve()
                                    .unwrap_or_else(|e| {
                                        panic!(
                                            "{name}: solve failed at {threads} threads, \
                                             min_gen={min_gen}: {e}"
                                        )
                                    });
                                out.push((i, min_gen, solution));
                            }
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("solver thread panicked"))
                .collect()
        });
        assert_eq!(per_thread.len(), threads);
        for (t, solutions) in per_thread.iter().enumerate() {
            assert_eq!(solutions.len(), 2 * scenarios.len());
            for (i, min_gen, solution) in solutions {
                let name = scenarios[*i].0;
                let at = format!("{name}: thread {t} of {threads}, min_gen={min_gen}");
                assert_matches_reference(&references[*i], solution, *min_gen, &at);
            }
        }
    }
}

#[test]
fn forced_gen_quotienting_actually_occurs_somewhere() {
    // The fused step+quotient leg of the matrix above must be
    // non-vacuous: with the generation gate at 0, the
    // sequence-transmission unrolling must generate at least one layer
    // with strictly fewer resident representatives than
    // explicit-equivalent points — and still answer exactly what the
    // explicit generation answers, with the same explicit-equivalent
    // per-layer point counts.
    let st = SequenceTransmission::new(2, Tagging::Alternating, Channel::Lossy);
    let ctx = st.context();
    let kbp = st.kbp();
    let fused = SyncSolver::new(&ctx, &kbp)
        .horizon(6)
        .gen_quotient_min_worlds(0)
        .solve()
        .expect("sequence transmission solves");
    assert!(
        fused.stats().layers_gen_quotiented > 0,
        "expected at least one generation-quotiented layer, got {:?}",
        fused.per_layer()
    );
    let shrunk = fused
        .per_layer()
        .iter()
        .find(|l| l.gen_quotient_worlds > 0 && l.gen_quotient_worlds < l.points)
        .expect("a strictly compressing generated layer");
    assert!(
        (1..1000).contains(&shrunk.gen_quotient_ratio),
        "per-mille ratio of a strictly compressing layer must be in (0, 1000), got {}",
        shrunk.gen_quotient_ratio
    );
    let explicit = SyncSolver::new(&ctx, &kbp)
        .horizon(6)
        .gen_quotient_min_worlds(usize::MAX)
        .solve()
        .expect("sequence transmission solves");
    assert_eq!(fused.protocol(), explicit.protocol());
    assert_eq!(fused.stabilized(), explicit.stabilized());
    assert_eq!(fused.stats().points, explicit.stats().points);
    assert_eq!(
        without_schedule_diagnostics(fused.per_layer()),
        without_schedule_diagnostics(explicit.per_layer())
    );
}
