//! The unique-implementation theorem, tested mechanically: for *random*
//! past-determined knowledge-based programs in *random* synchronous
//! contexts, the exhaustive enumerator finds exactly one implementation,
//! and it is the one the inductive solver constructs.

use kbp_core::{check_implementation, Enumerator, Kbp, SyncSolver};
use kbp_logic::random::{RandomSource, SplitMix64};
use kbp_logic::{Agent, Formula, PropId};
use kbp_systems::random::{random_context, RandomContextConfig};
use kbp_systems::{ActionId, Recall};
use proptest::prelude::*;

const PROPS: usize = 2;

/// A random `agent`-subjective, past-determined guard: a small Boolean
/// combination of `K_agent(objective)` atoms.
fn random_guard(rng: &mut SplitMix64, agent: Agent) -> Formula {
    let atom = |rng: &mut SplitMix64| {
        let p = Formula::prop(PropId::new(rng.below(PROPS) as u32));
        let inner = match rng.below(3) {
            0 => p,
            1 => Formula::not(p),
            _ => Formula::or([p, Formula::prop(PropId::new(rng.below(PROPS) as u32))]),
        };
        let k = Formula::knows(agent, inner);
        if rng.below(2) == 0 {
            k
        } else {
            Formula::not(k)
        }
    };
    match rng.below(3) {
        0 => atom(rng),
        1 => Formula::and([atom(rng), atom(rng)]),
        _ => Formula::or([atom(rng), atom(rng)]),
    }
}

fn random_kbp(seed: u64, agents: usize, actions: usize) -> Kbp {
    let mut rng = SplitMix64::new(seed);
    let mut b = Kbp::builder();
    for i in 0..agents {
        let agent = Agent::new(i);
        let n_clauses = 1 + rng.below(2);
        for _ in 0..n_clauses {
            let guard = random_guard(&mut rng, agent);
            let action = ActionId(rng.below(actions) as u32);
            b = b.clause(agent, guard, action);
        }
        b = b.default_action(agent, ActionId(rng.below(actions) as u32));
    }
    b.build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Past-determined programs have exactly one implementation, and the
    /// solver constructs it.
    #[test]
    fn unique_implementation_theorem(ctx_seed in 0u64..10_000, kbp_seed in 0u64..10_000) {
        let cfg = RandomContextConfig {
            states: 6,
            agents: 2,
            actions: 2,
            env_moves: 1,
            initial: 2,
            obs_classes: 3,
            props: PROPS,
        };
        let ctx = random_context(ctx_seed, &cfg);
        let kbp = random_kbp(kbp_seed, 2, 2);
        prop_assume!(kbp.validate(&ctx).is_ok());

        let horizon = 3;
        let solution = SyncSolver::new(&ctx, &kbp).horizon(horizon).solve().unwrap();
        let found = Enumerator::new(&ctx, &kbp).horizon(horizon).enumerate().unwrap();
        prop_assert!(found.is_complete());
        prop_assert_eq!(found.count(), 1, "theorem violated: {} implementations", found.count());
        prop_assert_eq!(&found.implementations()[0].protocol, solution.protocol());
    }

    /// The solver's output always passes the independent fixed-point
    /// checker.
    #[test]
    fn solver_output_is_always_a_fixed_point(ctx_seed in 0u64..10_000, kbp_seed in 0u64..10_000) {
        let cfg = RandomContextConfig {
            states: 8,
            agents: 2,
            actions: 2,
            env_moves: 2,
            initial: 2,
            obs_classes: 3,
            props: PROPS,
        };
        let ctx = random_context(ctx_seed, &cfg);
        let kbp = random_kbp(kbp_seed, 2, 2);
        prop_assume!(kbp.validate(&ctx).is_ok());

        let horizon = 3;
        let solution = SyncSolver::new(&ctx, &kbp).horizon(horizon).solve().unwrap();
        let report = check_implementation(&ctx, &kbp, solution.protocol(), Recall::Perfect, horizon)
            .unwrap();
        prop_assert!(report.is_implementation(), "{}", report);
    }

    /// Replaying the derived protocol generates the same system shape as
    /// the solving pass (the fixed point, seen from the other side).
    #[test]
    fn replay_matches_solution_system(ctx_seed in 0u64..10_000, kbp_seed in 0u64..10_000) {
        let cfg = RandomContextConfig {
            states: 6,
            agents: 2,
            actions: 2,
            env_moves: 2,
            initial: 2,
            obs_classes: 3,
            props: PROPS,
        };
        let ctx = random_context(ctx_seed, &cfg);
        let kbp = random_kbp(kbp_seed, 2, 2);
        prop_assume!(kbp.validate(&ctx).is_ok());

        let horizon = 3;
        let solution = SyncSolver::new(&ctx, &kbp).horizon(horizon).solve().unwrap();
        let replay = kbp_systems::generate(&ctx, solution.protocol(), Recall::Perfect, horizon)
            .unwrap();
        for t in 0..=horizon {
            prop_assert_eq!(
                replay.layer(t).len(),
                solution.system().layer(t).len(),
                "layer {} differs", t
            );
        }
    }

    /// Solving twice is deterministic.
    #[test]
    fn solving_is_deterministic(ctx_seed in 0u64..10_000, kbp_seed in 0u64..10_000) {
        let cfg = RandomContextConfig::default();
        let ctx = random_context(ctx_seed, &cfg);
        let kbp = random_kbp(kbp_seed, 2, 2);
        prop_assume!(kbp.validate(&ctx).is_ok());
        let a = SyncSolver::new(&ctx, &kbp).horizon(3).solve().unwrap();
        let b = SyncSolver::new(&ctx, &kbp).horizon(3).solve().unwrap();
        prop_assert_eq!(a.protocol(), b.protocol());
        prop_assert_eq!(a.stats(), b.stats());
    }

    /// Observational recall also yields a fixed point (the theorem holds
    /// for both synchronous local-state disciplines).
    #[test]
    fn observational_recall_fixed_point(ctx_seed in 0u64..10_000, kbp_seed in 0u64..10_000) {
        let cfg = RandomContextConfig::default();
        let ctx = random_context(ctx_seed, &cfg);
        let kbp = random_kbp(kbp_seed, 2, 2);
        prop_assume!(kbp.validate(&ctx).is_ok());
        // A memoryless implementation need not exist (the induced table
        // may be time-variant); the solver reports that as a typed error.
        let solution = match SyncSolver::new(&ctx, &kbp)
            .horizon(3)
            .recall(Recall::Observational)
            .solve()
        {
            Ok(s) => s,
            Err(kbp_core::SolveError::ObservationalConflict { .. }) => {
                return Ok(());
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected: {e}"))),
        };
        let report = check_implementation(
            &ctx,
            &kbp,
            solution.protocol(),
            Recall::Observational,
            3,
        )
        .unwrap();
        prop_assert!(report.is_implementation(), "{}", report);
    }
}

/// The observational-recall conflict the property above tolerates, pinned
/// to the agent and time at which it is reported: the solver must detect
/// a time-variant induced table at the first layer where a recurring
/// observation is induced a different action set, whatever the protocol's
/// storage.
#[test]
fn observational_conflicts_keep_their_agent_and_time() {
    let cfg = RandomContextConfig::default();
    // (context seed, program seed, agent, time), as first recorded.
    let pinned: [(u64, u64, usize, usize); 9] = [
        (0, 0, 0, 1),
        (0, 1, 0, 2),
        (0, 2, 0, 1),
        (0, 3, 1, 2),
        (0, 6, 1, 1),
        (0, 7, 0, 1),
        (0, 9, 1, 1),
        (0, 11, 1, 2),
        (0, 12, 0, 2),
    ];
    for (ctx_seed, kbp_seed, agent, time) in pinned {
        let ctx = random_context(ctx_seed, &cfg);
        let kbp = random_kbp(kbp_seed, 2, 2);
        kbp.validate(&ctx).unwrap();
        let err = SyncSolver::new(&ctx, &kbp)
            .horizon(3)
            .recall(Recall::Observational)
            .solve()
            .unwrap_err();
        assert_eq!(
            err,
            kbp_core::SolveError::ObservationalConflict {
                agent: Agent::new(agent),
                time,
            },
            "context seed {ctx_seed}, program seed {kbp_seed}"
        );
    }
}
