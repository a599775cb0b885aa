//! Serde round-trips for the data-structure types: formulas, vocabularies
//! and protocols survive serialization — the artifacts a user would save
//! to disk (a derived protocol, a program, a spec).
//!
//! The sanctioned dependency set has no serializer crate, so the `bin`
//! module below implements a minimal positional binary codec over serde's
//! data model; it exercises every `Serialize`/`Deserialize` derive in the
//! workspace end to end.

use kbp_logic::random::{random_formula, FormulaConfig, SplitMix64};
use kbp_logic::{Agent, Formula, Vocabulary};
use kbp_systems::{ActionId, MapProtocol, Obs};
use proptest::prelude::*;

fn json_roundtrip<T>(value: &T) -> T
where
    T: serde::Serialize + serde::de::DeserializeOwned,
{
    let encoded = bin::to_hex(value).expect("serializes");
    bin::from_hex(&encoded).expect("deserializes")
}

/// A tiny self-describing binary format (hex-encoded); see the module.
#[path = "common/bin.rs"]
mod bin;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn formulas_roundtrip(seed in any::<u64>(), temporal in any::<bool>()) {
        let cfg = FormulaConfig {
            props: 4,
            agents: 3,
            max_depth: 6,
            temporal,
            groups: true,
        };
        let f = random_formula(&mut SplitMix64::new(seed), &cfg);
        let back: Formula = json_roundtrip(&f);
        prop_assert_eq!(f, back);
    }
}

#[test]
fn vocabulary_roundtrips() {
    let mut voc = Vocabulary::new();
    voc.add_agent("alice");
    voc.add_agent("bob");
    voc.add_prop("rain");
    voc.add_prop("wet");
    let back: Vocabulary = json_roundtrip(&voc);
    assert_eq!(voc, back);
    assert_eq!(back.agent("bob"), Some(Agent::new(1)));
}

#[test]
fn protocols_roundtrip() {
    let mut proto = MapProtocol::new(vec![ActionId(0)]);
    proto.set_agent_default(Agent::new(1), vec![ActionId(2)]);
    proto.insert(Agent::new(0), vec![Obs(1), Obs(2)], vec![ActionId(1)]);
    proto.insert(Agent::new(1), vec![Obs(0)], vec![ActionId(0), ActionId(2)]);
    let back: MapProtocol = json_roundtrip(&proto);
    assert_eq!(proto, back);
}

#[test]
fn solve_diagnostics_roundtrip() {
    // The solver's diagnostic types are savable artifacts too: a budget
    // report can be persisted next to the partial protocol it explains.
    let stats = {
        let sc = kbp_scenarios::muddy_children::MuddyChildren::new(3);
        let ctx = sc.context();
        let kbp = sc.kbp();
        let solution = kbp_core::SyncSolver::new(&ctx, &kbp)
            .horizon(4)
            .solve()
            .expect("solves");
        solution.stats()
    };
    let back: kbp_core::SolveStats = json_roundtrip(&stats);
    assert_eq!(stats, back);

    let layer = kbp_core::LayerStats {
        layer: 3,
        points: 17,
        guard_evaluations: 51,
        protocol_entries: 9,
        gen_quotient_worlds: 5,
        gen_quotient_ratio: 294,
    };
    let back: kbp_core::LayerStats = json_roundtrip(&layer);
    assert_eq!(layer, back);

    for resource in [
        kbp_core::Resource::Deadline,
        kbp_core::Resource::LayerPoints,
        kbp_core::Resource::GuardEvaluations,
        kbp_core::Resource::Memory,
        kbp_core::Resource::Nodes,
        kbp_core::Resource::Branches,
        kbp_core::Resource::Solutions,
    ] {
        let exhausted = kbp_core::BudgetExhausted {
            resource,
            at_layer: 2,
        };
        let back: kbp_core::BudgetExhausted = json_roundtrip(&exhausted);
        assert_eq!(exhausted, back);
    }
}

#[test]
fn kbp_roundtrips() {
    let a = Agent::new(0);
    let kbp = kbp_core::Kbp::builder()
        .clause(
            a,
            Formula::knows(a, Formula::prop(kbp_logic::PropId::new(0))),
            ActionId(1),
        )
        .default_action(a, ActionId(0))
        .build();
    let back: kbp_core::Kbp = json_roundtrip(&kbp);
    assert_eq!(kbp, back);
}
