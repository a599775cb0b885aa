//! `MapProtocol` against a reference model: a plain
//! `HashMap<(Agent, Vec<Obs>), Vec<ActionId>>`.
//!
//! The protocol stores its entries on per-agent history forests with
//! interned action sets; the model is the obvious table. Random `insert`
//! sequences over two or three agents — histories over a tiny alphabet so
//! that prefixes are shared and keys recur (overwrites), length 0 for the
//! empty-history edge case — must leave both answering every query alike.

use kbp_logic::{Agent, Vocabulary};
use kbp_systems::{
    ActionId, ContextBuilder, FnContext, GlobalState, LocalView, MapProtocol, Obs, ProtocolFn,
};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

#[path = "common/bin.rs"]
mod bin;

type Model = HashMap<(Agent, Vec<Obs>), Vec<ActionId>>;

/// One insert: agent index, history, action set.
type Op = (usize, Vec<u64>, Vec<u32>);

const DEFAULT: ActionId = ActionId(5);
const AGENT_DEFAULT: ActionId = ActionId(4);

fn ops() -> impl Strategy<Value = (usize, Vec<Op>)> {
    (2usize..4).prop_flat_map(|agents| {
        let op = (
            0..agents,
            proptest::collection::vec(0u64..3, 0..4),
            proptest::collection::vec(0u32..3, 1..3),
        );
        (Just(agents), proptest::collection::vec(op, 0..40))
    })
}

/// Histories to query: every inserted one, every proper prefix of one
/// (interned in the forest, yet not an entry), and a few never inserted.
fn probes(agents: usize, ops: &[Op]) -> Vec<(Agent, Vec<Obs>)> {
    let mut out: Vec<(Agent, Vec<Obs>)> = Vec::new();
    for (a, h, _) in ops {
        for len in 0..=h.len() {
            out.push((Agent::new(*a), h[..len].iter().copied().map(Obs).collect()));
        }
    }
    for a in 0..agents + 1 {
        out.push((Agent::new(a), vec![Obs(9)]));
        out.push((Agent::new(a), vec![Obs(0), Obs(9), Obs(0)]));
        out.push((Agent::new(a), Vec::new()));
    }
    out
}

/// A context naming three agents and their actions, for `to_pretty`.
fn naming_context() -> FnContext {
    let mut voc = Vocabulary::new();
    let agents: Vec<Agent> = ["ann", "bob", "cy"]
        .iter()
        .map(|&n| voc.add_agent(n))
        .collect();
    let mut b = ContextBuilder::new(voc).initial_state(GlobalState::new(vec![0]));
    for a in agents {
        b = b.agent_actions(a, ["p", "q", "r", "s", "t", "u"]);
    }
    b.transition(|s, _| s.clone())
        .observe(|_, _| Obs(0))
        .props(|_, _| false)
        .build()
}

/// `to_pretty`'s format, rendered from the model.
fn pretty_from_model(model: &Model, ctx: &FnContext) -> String {
    let mut entries: Vec<_> = model.iter().collect();
    entries.sort_by(|(x, _), (y, _)| (x.0, x.1.len(), &x.1).cmp(&(y.0, y.1.len(), &y.1)));
    let voc = kbp_systems::Context::vocabulary(ctx);
    let mut out = String::new();
    let mut current = None;
    for ((agent, history), actions) in entries {
        if current != Some(*agent) {
            out.push_str(&format!("{}:\n", voc.agent_name(*agent)));
            current = Some(*agent);
        }
        let hist: Vec<String> = history.iter().map(ToString::to_string).collect();
        let acts: Vec<String> = actions
            .iter()
            .map(|&a| kbp_systems::Context::action_name(ctx, *agent, a))
            .collect();
        out.push_str(&format!("  [{}] -> {}\n", hist.join(","), acts.join("|")));
    }
    out
}

fn entry_set(p: &MapProtocol) -> HashSet<(Agent, Vec<Obs>, Vec<ActionId>)> {
    p.iter().map(|(a, h, acts)| (a, h, acts.to_vec())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn map_protocol_matches_the_reference_model(case in ops()) {
        let (agents, ops) = case;
        let mut proto = MapProtocol::new(vec![DEFAULT]);
        proto.set_agent_default(Agent::new(1), vec![AGENT_DEFAULT]);
        let mut model = Model::new();
        for (a, h, acts) in &ops {
            let history: Vec<Obs> = h.iter().copied().map(Obs).collect();
            let actions: Vec<ActionId> = acts.iter().copied().map(ActionId).collect();
            proto.insert(Agent::new(*a), history.clone(), actions.clone());
            model.insert((Agent::new(*a), history), actions);
        }

        prop_assert_eq!(proto.len(), model.len());
        prop_assert_eq!(proto.is_empty(), model.is_empty());
        for (agent, history) in probes(agents, &ops) {
            let want = model.get(&(agent, history.clone()));
            prop_assert_eq!(proto.get(agent, &history), want.map(Vec::as_slice));
            let fallback = if agent == Agent::new(1) { AGENT_DEFAULT } else { DEFAULT };
            let acted = want.cloned().unwrap_or_else(|| vec![fallback]);
            let view = LocalView { agent, history: &history };
            prop_assert_eq!(proto.actions(&view), acted);
        }
        let want: HashSet<(Agent, Vec<Obs>, Vec<ActionId>)> = model
            .iter()
            .map(|((a, h), acts)| (*a, h.clone(), acts.clone()))
            .collect();
        prop_assert_eq!(proto.iter().count(), model.len());
        prop_assert_eq!(entry_set(&proto), want);
        prop_assert_eq!(
            proto.is_deterministic(),
            model.values().all(|acts| acts.len() == 1)
        );
        let ctx = naming_context();
        prop_assert_eq!(proto.to_pretty(&ctx), pretty_from_model(&model, &ctx));

        // Equality compares entry sets: the model's entries inserted in
        // reverse key order build different forests but an equal protocol.
        let mut rebuilt = MapProtocol::new(vec![DEFAULT]);
        rebuilt.set_agent_default(Agent::new(1), vec![AGENT_DEFAULT]);
        let mut keys: Vec<&(Agent, Vec<Obs>)> = model.keys().collect();
        keys.sort();
        for key in keys.into_iter().rev() {
            rebuilt.insert(key.0, key.1.clone(), model[key].clone());
        }
        prop_assert_eq!(&rebuilt, &proto);
        // ... and any one changed, added or missing entry breaks it.
        if let Some(((agent, history), acts)) = model.iter().next() {
            let mut changed = rebuilt.clone();
            let other = if acts == &vec![ActionId(2)] { ActionId(1) } else { ActionId(2) };
            changed.insert(*agent, history.clone(), vec![other]);
            prop_assert_ne!(&changed, &proto);
            prop_assert_ne!(&proto, &changed);
        }
        let mut added = rebuilt.clone();
        added.insert(Agent::new(0), vec![Obs(7)], vec![ActionId(0)]);
        prop_assert_ne!(&added, &proto);
        prop_assert_ne!(&proto, &added);
        let mut other_default = rebuilt;
        other_default.set_agent_default(Agent::new(0), vec![ActionId(3)]);
        prop_assert_ne!(&other_default, &proto);

        // The serde form is the entry list: a round trip is equal and
        // answers like the model.
        let back: MapProtocol = bin::from_hex(&bin::to_hex(&proto).unwrap()).unwrap();
        prop_assert_eq!(&back, &proto);
        prop_assert_eq!(entry_set(&back), entry_set(&proto));
    }
}
