//! Finite-state controller extraction.
//!
//! The solver's output is a [`MapProtocol`]: one action set per reached
//! local state, stored on the agent's history forest (the trie of its
//! observation histories) — correct, but linear in the number of
//! histories the horizon reaches.
//! FHMV's point that knowledge-based programs are *specifications* of
//! standard protocols is completed by extracting the standard protocol in
//! the form an implementer wants: a small Moore machine over
//! observations.
//!
//! Extraction builds the history trie and merges states by iterated
//! splitting: start with one state per action set, split a state whenever
//! two of its histories provably react differently to the same next
//! observation, repeat to fixpoint. Histories beyond the table (never
//! reached within the horizon) act as wildcards and merge freely, which
//! is what collapses "send, send, send, …" into a single *sending* state.
//! The result replays the table exactly (asserted during construction).

use crate::solve::SolveError;
use kbp_logic::Agent;
use kbp_systems::{ActionId, LocalView, MapProtocol, Obs, ProtocolFn};
use std::collections::HashMap;
use std::fmt;

/// One state of an extracted controller.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControllerState {
    actions: Vec<ActionId>,
    transitions: Vec<(Obs, u32)>,
}

impl ControllerState {
    /// The actions emitted in this state (Moore output).
    #[must_use]
    pub fn actions(&self) -> &[ActionId] {
        &self.actions
    }

    /// The outgoing transitions, sorted by observation. Observations
    /// without an explicit transition go to the default state.
    #[must_use]
    pub fn transitions(&self) -> &[(Obs, u32)] {
        &self.transitions
    }
}

/// A Moore machine over observations implementing one agent's protocol.
///
/// Feed it the agent's observations one at a time ([`Controller::step`]),
/// or replay a whole history ([`Controller::actions_for`]). Histories the
/// original table never exhibited fall into the default state (emitting
/// the agent's default actions).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Controller {
    agent: Agent,
    states: Vec<ControllerState>,
    /// Initial dispatch: first observation → state.
    initial: Vec<(Obs, u32)>,
    /// Index of the absorbing default state.
    default_state: u32,
}

impl Controller {
    /// The agent this controller drives.
    #[must_use]
    pub fn agent(&self) -> Agent {
        self.agent
    }

    /// Number of states (including the default state).
    #[must_use]
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// The states.
    #[must_use]
    pub fn states(&self) -> &[ControllerState] {
        &self.states
    }

    /// The state entered on the first observation.
    #[must_use]
    pub fn initial_state(&self, first_obs: Obs) -> u32 {
        self.initial
            .iter()
            .find(|&&(o, _)| o == first_obs)
            .map_or(self.default_state, |&(_, s)| s)
    }

    /// One transition step.
    #[must_use]
    pub fn step(&self, state: u32, obs: Obs) -> u32 {
        self.states[state as usize]
            .transitions
            .iter()
            .find(|&&(o, _)| o == obs)
            .map_or(self.default_state, |&(_, s)| s)
    }

    /// Replays a whole observation history (oldest first). An empty
    /// history (never produced by the framework) yields the default
    /// state's actions.
    #[must_use]
    pub fn actions_for(&self, history: &[Obs]) -> Vec<ActionId> {
        let Some((first, rest)) = history.split_first() else {
            return self.states[self.default_state as usize].actions.clone();
        };
        let mut state = self.initial_state(*first);
        for &obs in rest {
            state = self.step(state, obs);
        }
        self.states[state as usize].actions.clone()
    }
}

impl fmt::Display for Controller {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "controller for agent {} ({} states):",
            self.agent,
            self.states.len()
        )?;
        for (i, st) in self.states.iter().enumerate() {
            let marker = if i as u32 == self.default_state {
                "*"
            } else {
                " "
            };
            write!(f, " {marker}q{i}: emit {:?};", st.actions)?;
            for (o, t) in &st.transitions {
                write!(f, " {o}→q{t}")?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

/// A joint protocol assembled from per-agent controllers; implements
/// [`ProtocolFn`], so it can be run, checked and model-checked like any
/// other protocol.
#[derive(Debug, Clone)]
pub struct ControllerProtocol {
    controllers: Vec<Controller>,
}

impl ControllerProtocol {
    /// Extracts controllers for every agent appearing in `proto`.
    ///
    /// # Errors
    ///
    /// Returns [`SolveError`] if replay verification fails (a bug guard;
    /// extraction re-checks every table entry against the machine).
    pub fn extract(
        proto: &MapProtocol,
        default_actions: &[(Agent, Vec<ActionId>)],
    ) -> Result<Self, SolveError> {
        let mut agents: Vec<Agent> = proto.iter().map(|(a, _, _)| a).collect();
        agents.sort_unstable();
        agents.dedup();
        let controllers = agents
            .into_iter()
            .map(|agent| {
                let default = default_actions
                    .iter()
                    .find(|(a, _)| *a == agent)
                    .map_or_else(|| vec![ActionId(0)], |(_, d)| d.clone());
                extract_controller(proto, agent, default)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ControllerProtocol { controllers })
    }

    /// Extracts controllers from a solved program, using the program's
    /// per-agent default actions.
    ///
    /// # Errors
    ///
    /// Same conditions as [`extract`](Self::extract).
    pub fn from_solution(solution: &crate::Solution, kbp: &crate::Kbp) -> Result<Self, SolveError> {
        let defaults: Vec<(Agent, Vec<ActionId>)> = kbp
            .programs()
            .iter()
            .map(|p| (p.agent(), vec![p.default_action()]))
            .collect();
        Self::extract(solution.protocol(), &defaults)
    }

    /// The extracted per-agent controllers.
    #[must_use]
    pub fn controllers(&self) -> &[Controller] {
        &self.controllers
    }

    /// The controller for one agent, if present.
    #[must_use]
    pub fn controller(&self, agent: Agent) -> Option<&Controller> {
        self.controllers.iter().find(|c| c.agent == agent)
    }

    /// Total states across agents.
    #[must_use]
    pub fn total_states(&self) -> usize {
        self.controllers.iter().map(Controller::state_count).sum()
    }
}

impl ProtocolFn for ControllerProtocol {
    fn actions(&self, view: &LocalView<'_>) -> Vec<ActionId> {
        self.controller(view.agent)
            .map_or_else(|| vec![ActionId(0)], |c| c.actions_for(view.history))
    }
}

/// Internal trie node.
#[derive(Debug, Default)]
struct TrieNode {
    actions: Option<Vec<ActionId>>,
    children: Vec<(Obs, usize)>,
}

// Index-based loops are clearer here: the trie, the class table and the
// output states are parallel arrays navigated by node index.
#[allow(clippy::needless_range_loop)]
fn extract_controller(
    proto: &MapProtocol,
    agent: Agent,
    default: Vec<ActionId>,
) -> Result<Controller, SolveError> {
    // 1. Build the history trie. Node 0 is a virtual pre-observation root.
    let mut nodes: Vec<TrieNode> = vec![TrieNode::default()];
    let mut entries: Vec<(Vec<Obs>, Vec<ActionId>)> = proto
        .iter()
        .filter(|(a, _, _)| *a == agent)
        .map(|(_, h, acts)| (h, acts.to_vec()))
        .collect();
    entries.sort();
    for (history, actions) in &entries {
        let mut cur = 0usize;
        for &obs in history {
            cur = match nodes[cur].children.iter().find(|&&(o, _)| o == obs) {
                Some(&(_, c)) => c,
                None => {
                    nodes.push(TrieNode::default());
                    let c = nodes.len() - 1;
                    nodes[cur].children.push((obs, c));
                    c
                }
            };
        }
        let mut acts = actions.clone();
        acts.sort_unstable();
        acts.dedup();
        nodes[cur].actions = Some(acts);
    }

    // 2. Initial classes: by emitted action set (None = wildcard joins the
    //    default class so unreached interior nodes do not fragment).
    let mut class_of: Vec<usize> = Vec::with_capacity(nodes.len());
    let mut class_key: Vec<Vec<ActionId>> = Vec::new();
    for node in &nodes[1..] {
        let key = node.actions.clone().unwrap_or_else(|| default.clone());
        let class = match class_key.iter().position(|k| *k == key) {
            Some(c) => c,
            None => {
                class_key.push(key);
                class_key.len() - 1
            }
        };
        class_of.push(class);
    }
    // class_of is indexed by (node - 1); the root is handled separately.
    let class_idx = |node: usize, class_of: &[usize]| class_of[node - 1];

    // 3. Split classes until every (class, obs) has a consistent target
    //    class among its defined transitions.
    loop {
        let mut changed = false;
        let n_classes = class_key.len();
        for c in 0..n_classes {
            // Collect per-obs target classes of this class's members.
            let mut split_obs: Option<Obs> = None;
            let mut targets: HashMap<Obs, usize> = HashMap::new();
            for node in 1..nodes.len() {
                if class_idx(node, &class_of) != c {
                    continue;
                }
                for &(obs, child) in &nodes[node].children {
                    let t = class_idx(child, &class_of);
                    match targets.get(&obs) {
                        Some(&prev) if prev != t => {
                            split_obs = Some(obs);
                            break;
                        }
                        Some(_) => {}
                        None => {
                            targets.insert(obs, t);
                        }
                    }
                }
                if split_obs.is_some() {
                    break;
                }
            }
            if let Some(obs) = split_obs {
                // Split class c by the target class on `obs`; members
                // without a defined transition stay behind.
                let mut new_class: HashMap<usize, usize> = HashMap::new();
                let mut first_target: Option<usize> = None;
                for node in 1..nodes.len() {
                    if class_idx(node, &class_of) != c {
                        continue;
                    }
                    let target = nodes[node]
                        .children
                        .iter()
                        .find(|&&(o, _)| o == obs)
                        .map(|&(_, ch)| class_idx(ch, &class_of));
                    let Some(target) = target else { continue };
                    let first = *first_target.get_or_insert(target);
                    if target != first {
                        let nc = *new_class.entry(target).or_insert_with(|| {
                            class_key.push(class_key[c].clone());
                            class_key.len() - 1
                        });
                        class_of[node - 1] = nc;
                    }
                }
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // 4. Assemble the machine: one controller state per class, plus the
    //    absorbing default state.
    let n_classes = class_key.len();
    let default_state = match class_key.iter().position(|k| *k == default) {
        Some(c) => c as u32,
        None => {
            class_key.push(default.clone());
            (class_key.len() - 1) as u32
        }
    };
    let total_states = class_key.len();
    let mut states: Vec<ControllerState> = class_key
        .iter()
        .map(|k| ControllerState {
            actions: k.clone(),
            transitions: Vec::new(),
        })
        .collect();
    let _ = n_classes;
    for node in 1..nodes.len() {
        let c = class_idx(node, &class_of);
        for &(obs, child) in &nodes[node].children {
            let t = class_idx(child, &class_of) as u32;
            if !states[c].transitions.iter().any(|&(o, _)| o == obs) {
                states[c].transitions.push((obs, t));
            }
        }
    }
    for st in &mut states {
        st.transitions.sort_unstable();
    }
    let initial: Vec<(Obs, u32)> = nodes[0]
        .children
        .iter()
        .map(|&(obs, child)| (obs, class_idx(child, &class_of) as u32))
        .collect();

    let controller = Controller {
        agent,
        states,
        initial,
        default_state,
    };
    debug_assert!(controller.state_count() == total_states);

    // 5. Verify: the machine replays every table entry exactly.
    for (history, actions) in &entries {
        let mut got = controller.actions_for(history);
        got.sort_unstable();
        let mut want = actions.clone();
        want.sort_unstable();
        want.dedup();
        if got != want {
            return Err(SolveError::ControllerReplay {
                agent,
                history_len: history.len(),
            });
        }
    }
    Ok(controller)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a0() -> Agent {
        Agent::new(0)
    }

    #[test]
    fn send_until_ack_collapses_to_two_states() {
        // Table: send while obs 0, stop forever once obs 1 seen.
        let mut proto = MapProtocol::new(vec![ActionId(0)]);
        let send = vec![ActionId(1)];
        let noop = vec![ActionId(0)];
        for len in 1..=6usize {
            // All-zero history: send.
            proto.insert(a0(), vec![Obs(0); len], send.clone());
            // Histories ending in ack (and any suffix after): noop.
            for ack_at in 0..len {
                let mut h = vec![Obs(0); ack_at];
                h.extend(vec![Obs(1); len - ack_at]);
                proto.insert(a0(), h, noop.clone());
            }
        }
        let ctrl = extract_controller(&proto, a0(), vec![ActionId(0)]).unwrap();
        assert_eq!(ctrl.state_count(), 2, "{ctrl}");
        // Replay sanity.
        assert_eq!(ctrl.actions_for(&[Obs(0), Obs(0)]), send);
        assert_eq!(ctrl.actions_for(&[Obs(0), Obs(1), Obs(1)]), noop);
    }

    #[test]
    fn distinguishing_histories_split_states() {
        // Same output now, different reaction to obs 0 next: must be two
        // distinct states.
        let mut proto = MapProtocol::new(vec![ActionId(0)]);
        proto.insert(a0(), vec![Obs(1)], vec![ActionId(1)]);
        proto.insert(a0(), vec![Obs(2)], vec![ActionId(1)]);
        proto.insert(a0(), vec![Obs(1), Obs(0)], vec![ActionId(2)]);
        proto.insert(a0(), vec![Obs(2), Obs(0)], vec![ActionId(3)]);
        let ctrl = extract_controller(&proto, a0(), vec![ActionId(0)]).unwrap();
        // States: {after 1}, {after 2}, {emit 2}, {emit 3}, default.
        assert!(ctrl.state_count() >= 4, "{ctrl}");
        assert_eq!(ctrl.actions_for(&[Obs(1), Obs(0)]), vec![ActionId(2)]);
        assert_eq!(ctrl.actions_for(&[Obs(2), Obs(0)]), vec![ActionId(3)]);
    }

    #[test]
    fn unknown_histories_fall_to_default() {
        let mut proto = MapProtocol::new(vec![ActionId(0)]);
        proto.insert(a0(), vec![Obs(1)], vec![ActionId(1)]);
        let ctrl = extract_controller(&proto, a0(), vec![ActionId(7)]).unwrap();
        assert_eq!(ctrl.actions_for(&[Obs(9)]), vec![ActionId(7)]);
        assert_eq!(
            ctrl.actions_for(&[Obs(1), Obs(9), Obs(9)]),
            vec![ActionId(7)]
        );
    }

    #[test]
    fn controller_protocol_implements_protocol_fn() {
        let mut proto = MapProtocol::new(vec![ActionId(0)]);
        proto.insert(a0(), vec![Obs(0)], vec![ActionId(1)]);
        proto.insert(Agent::new(1), vec![Obs(0)], vec![ActionId(0)]);
        let joint = ControllerProtocol::extract(&proto, &[(a0(), vec![ActionId(0)])]).unwrap();
        assert_eq!(joint.controllers().len(), 2);
        let h = [Obs(0)];
        let view = LocalView {
            agent: a0(),
            history: &h,
        };
        assert_eq!(joint.actions(&view), vec![ActionId(1)]);
        assert!(joint.total_states() >= 2);
    }

    #[test]
    fn display_renders() {
        let mut proto = MapProtocol::new(vec![ActionId(0)]);
        proto.insert(a0(), vec![Obs(0)], vec![ActionId(1)]);
        let ctrl = extract_controller(&proto, a0(), vec![ActionId(0)]).unwrap();
        let s = ctrl.to_string();
        assert!(s.contains("controller for agent a0"), "{s}");
    }
}
