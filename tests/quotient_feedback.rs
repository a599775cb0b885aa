//! The compression feedback shared by both quotient stages.
//!
//! A quotient stage (fused generation in `SystemBuilder::step`, the
//! evaluation quotient in the solver's layer fill) that folds an `n`-world
//! layer into more than `n / MIN_QUOTIENT_COMPRESSION` classes declines and
//! stays off until the frontier has doubled. These tests pin where the
//! default gates engage on the two benchmark families — muddy children,
//! where no fold compresses, and sequence transmission, where one fold
//! shrinks the frontier almost ninefold — and check that a forced gate (`0`)
//! still folds everywhere. Gates are pinned in code, so the `KBP_*`
//! environment cannot move them.

use kbp_core::{LayerStats, Solution, SyncSolver};
use kbp_kripke::{DEFAULT_GEN_QUOTIENT_MIN_WORLDS, DEFAULT_QUOTIENT_MIN_WORLDS};
use kbp_scenarios::bit_transmission::Channel;
use kbp_scenarios::muddy_children::MuddyChildren;
use kbp_scenarios::sequence_transmission::{SequenceTransmission, Tagging};

fn with_gates(solver: SyncSolver<'_>, eval: usize, gen: usize) -> Solution {
    solver
        .quotient_min_worlds(eval)
        .gen_quotient_min_worlds(gen)
        .solve()
        .expect("solves")
}

fn layers_where(solution: &Solution, f: fn(&LayerStats) -> bool) -> Vec<usize> {
    solution
        .per_layer()
        .iter()
        .filter(|l| f(l))
        .map(|l| l.layer)
        .collect()
}

#[test]
fn muddy_children_declines_both_stages_once() {
    let mc = MuddyChildren::new(13);
    let (ctx, kbp) = (mc.context(), mc.kbp());
    let solver = || SyncSolver::new(&ctx, &kbp).horizon(3);
    let defaults = with_gates(
        solver(),
        DEFAULT_QUOTIENT_MIN_WORLDS,
        DEFAULT_GEN_QUOTIENT_MIN_WORLDS,
    );
    assert!(defaults.per_layer().iter().all(|l| l.points == 8191));
    assert_eq!(
        layers_where(&defaults, |l| l.gen_quotient_worlds > 0),
        Vec::<usize>::new(),
        "no layer is generated reduced: {:?}",
        defaults.per_layer()
    );
    assert_eq!(
        layers_where(&defaults, |l| l.quotient_worlds > 0),
        [0],
        "the evaluation quotient is tried on layer 0 only: {:?}",
        defaults.per_layer()
    );
    let explicit = with_gates(solver(), usize::MAX, usize::MAX);
    assert_eq!(defaults.protocol(), explicit.protocol());
    assert_eq!(defaults.stabilized(), explicit.stabilized());
    assert_eq!(defaults.stats().points, explicit.stats().points);
}

#[test]
fn sequence_transmission_still_converts_at_layer_six() {
    let st = SequenceTransmission::new(3, Tagging::Alternating, Channel::Lossy);
    let (ctx, kbp) = (st.context(), st.kbp());
    let defaults = with_gates(
        SyncSolver::new(&ctx, &kbp).horizon(8),
        DEFAULT_QUOTIENT_MIN_WORLDS,
        DEFAULT_GEN_QUOTIENT_MIN_WORLDS,
    );
    let per_layer = defaults.per_layer();
    assert_eq!(per_layer[6].points, 10_928, "{per_layer:?}");
    assert_eq!(
        layers_where(&defaults, |l| l.gen_quotient_worlds > 0),
        [7, 8],
        "{per_layer:?}"
    );
    for l in &per_layer[7..] {
        assert_eq!(l.gen_quotient_worlds, 3200, "{l:?}");
    }
    assert_eq!(
        layers_where(&defaults, |l| l.quotient_worlds > 0),
        [6],
        "{per_layer:?}"
    );
}

#[test]
fn forced_fusion_still_reduces_every_layer() {
    let mc = MuddyChildren::new(3);
    let (ctx, kbp) = (mc.context(), mc.kbp());
    let forced = with_gates(SyncSolver::new(&ctx, &kbp).horizon(4), usize::MAX, 0);
    assert_eq!(
        layers_where(&forced, |l| l.gen_quotient_worlds > 0),
        [1, 2, 3, 4],
        "{:?}",
        forced.per_layer()
    );
    let explicit = with_gates(
        SyncSolver::new(&ctx, &kbp).horizon(4),
        usize::MAX,
        usize::MAX,
    );
    assert_eq!(forced.protocol(), explicit.protocol());
    assert_eq!(forced.stabilized(), explicit.stabilized());
}
