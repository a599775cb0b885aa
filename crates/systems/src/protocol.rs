//! Protocols: functions from local states to nonempty sets of actions.
//!
//! In FHMV a protocol `P_i` maps each local state of agent `i` to the set
//! of actions it may perform there (a singleton for deterministic
//! protocols). Here a local state is presented to the protocol as a
//! [`LocalView`] — the agent's observation history (perfect recall) or its
//! current observation (observational semantics).
//!
//! [`MapProtocol`], the solvers' output, is finite: one action set per
//! local state, stored on each agent's history forest — the
//! `(parent, observation)` trie of a [`LocalTable`], shared with the solved
//! system — rather than keyed by materialized histories.

use crate::context::ActionId;
use crate::state::{LocalId, LocalTable, Obs};
use crate::system::{InterpretedSystem, StepChoices};
use kbp_logic::Agent;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// An agent's local state as seen by a protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalView<'a> {
    /// Whose local state this is.
    pub agent: Agent,
    /// The observation sequence, oldest first. Under perfect recall this is
    /// the whole history (length = time + 1); under observational semantics
    /// it contains only the current observation (length 1).
    pub history: &'a [Obs],
}

impl LocalView<'_> {
    /// The most recent observation, or `Obs(0)` for an empty history
    /// (never produced by the framework).
    #[must_use]
    pub fn current(&self) -> Obs {
        self.history.last().copied().unwrap_or(Obs(0))
    }

    /// The time step this view belongs to (history length − 1) under
    /// perfect recall; `0` under observational semantics.
    #[must_use]
    pub fn time(&self) -> usize {
        self.history.len() - 1
    }
}

/// A joint protocol: for every agent and local view, the nonempty set of
/// actions the agent may take.
///
/// Implemented by closures `Fn(&LocalView) -> Vec<ActionId>` and by
/// [`MapProtocol`].
pub trait ProtocolFn {
    /// The actions the agent may perform at this local state. Must be
    /// nonempty and must depend only on the view (same view ⇒ same set).
    fn actions(&self, view: &LocalView<'_>) -> Vec<ActionId>;
}

impl<F> ProtocolFn for F
where
    F: Fn(&LocalView<'_>) -> Vec<ActionId>,
{
    fn actions(&self, view: &LocalView<'_>) -> Vec<ActionId> {
        self(view)
    }
}

/// Interned action sets plus, per agent, one set index per local-state
/// id: the storage shared by [`StepChoices`](crate::StepChoices) and
/// [`MapProtocol`]. A protocol typically uses a handful of distinct
/// action sets over hundreds of thousands of local states, so each slot
/// is a `u32` and each set is stored once.
#[derive(Debug, Clone, Default)]
pub(crate) struct ActionTable {
    sets: Vec<Vec<ActionId>>,
    set_ids: HashMap<Vec<ActionId>, u32>,
    /// `slots[agent][local]`: an index into `sets`, or [`NO_SET`].
    slots: Vec<Vec<u32>>,
}

/// The slot value of a local state without an action set.
const NO_SET: u32 = u32::MAX;

impl ActionTable {
    /// The index of `actions`, interning it on first sight.
    fn intern(&mut self, actions: Vec<ActionId>) -> u32 {
        if let Some(&id) = self.set_ids.get(&actions) {
            return id;
        }
        let id = self.sets.len() as u32;
        self.set_ids.insert(actions.clone(), id);
        self.sets.push(actions);
        id
    }

    /// Slot `slot` of agent `agent`, grown into existence as [`NO_SET`].
    fn slot_mut(&mut self, agent: usize, slot: usize) -> &mut u32 {
        if self.slots.len() <= agent {
            self.slots.resize_with(agent + 1, Vec::new);
        }
        let slots = &mut self.slots[agent];
        if slots.len() <= slot {
            slots.resize(slot + 1, NO_SET);
        }
        &mut slots[slot]
    }

    /// Sets slot `slot` of agent `agent` to `actions`.
    pub(crate) fn set(&mut self, agent: usize, slot: usize, actions: Vec<ActionId>) {
        let id = self.intern(actions);
        *self.slot_mut(agent, slot) = id;
    }

    /// The set index in slot `slot` of agent `agent`, if any.
    fn index(&self, agent: usize, slot: usize) -> Option<u32> {
        let id = *self.slots.get(agent)?.get(slot)?;
        (id != NO_SET).then_some(id)
    }

    /// The action set in slot `slot` of agent `agent`, if any.
    pub(crate) fn get(&self, agent: usize, slot: usize) -> Option<&[ActionId]> {
        self.index(agent, slot).map(|id| self.set_of(id))
    }

    /// The action set behind an index.
    fn set_of(&self, id: u32) -> &[ActionId] {
        &self.sets[id as usize]
    }

    /// The occupied slots of one agent, as `(slot, set index)`.
    fn occupied(&self, agent: usize) -> impl Iterator<Item = (usize, u32)> + '_ {
        self.slots
            .get(agent)
            .into_iter()
            .flat_map(|slots| slots.iter().enumerate())
            .filter(|&(_, &id)| id != NO_SET)
            .map(|(slot, &id)| (slot, id))
    }
}

/// A finite, table-driven joint protocol keyed by exact observation
/// histories, with a per-agent default for unlisted histories.
///
/// This is the concrete artifact produced by the `kbp-core` solvers: the
/// standard protocol that implements a knowledge-based program.
///
/// Each agent's table lives on a *history forest* — the `(parent,
/// observation)` trie of a [`LocalTable`] — with one action-set index
/// per forest node; action sets are interned once per protocol. A
/// protocol induced by the solver shares the forest its solved system
/// already holds ([`from_choices`](Self::from_choices)); an
/// [`insert`](Self::insert) of a history the shared forest lacks clones
/// the forest first. Lookups walk the forest without allocating, and
/// [`iter`](Self::iter) rebuilds each history from it. Equality compares
/// entry sets, whatever the node numbering (DESIGN.md §18).
///
/// # Example
///
/// ```
/// use kbp_systems::{MapProtocol, ProtocolFn, LocalView, ActionId, Obs};
/// use kbp_logic::Agent;
///
/// let a = Agent::new(0);
/// let mut p = MapProtocol::new(vec![ActionId(0)]); // default: action 0
/// p.insert(a, vec![Obs(1)], vec![ActionId(1)]);
///
/// let seen_one = [Obs(1)];
/// let view = LocalView { agent: a, history: &seen_one };
/// assert_eq!(p.actions(&view), vec![ActionId(1)]);
/// let seen_zero = [Obs(0)];
/// let view = LocalView { agent: a, history: &seen_zero };
/// assert_eq!(p.actions(&view), vec![ActionId(0)]); // default
/// ```
#[derive(Clone, Default)]
pub struct MapProtocol {
    /// Per agent index: the history forest the table's slots index.
    forests: Vec<Arc<LocalTable>>,
    /// Slots indexed by [`LocalId`] in the agent's forest.
    table: ActionTable,
    /// Per agent index: the set index of the empty history, or
    /// [`NO_SET`].
    empty: Vec<u32>,
    /// Number of explicit entries.
    entries: usize,
    agent_defaults: HashMap<Agent, Vec<ActionId>>,
    default: Vec<ActionId>,
}

impl MapProtocol {
    /// Creates an empty protocol with the given default action set
    /// (returned for any history without an explicit entry).
    ///
    /// # Panics
    ///
    /// Panics if `default` is empty — protocols must always offer an
    /// action.
    #[must_use]
    pub fn new(default: Vec<ActionId>) -> Self {
        assert!(!default.is_empty(), "default action set must be nonempty");
        MapProtocol {
            default,
            ..MapProtocol::default()
        }
    }

    /// The protocol that takes, at every local state of `system` that
    /// `choices` covers, the action set `choices` gives it, and `default`
    /// elsewhere. The entries live on `system`'s history forests, which
    /// are shared rather than copied. Choices for local states foreign to
    /// `system` are dropped.
    ///
    /// # Panics
    ///
    /// Panics if `default` is empty.
    #[must_use]
    pub fn from_choices(
        system: &InterpretedSystem,
        choices: StepChoices,
        default: Vec<ActionId>,
    ) -> Self {
        let forests = system.forests().to_vec();
        let mut table = choices.into_table();
        table.slots.truncate(forests.len());
        for (slots, forest) in table.slots.iter_mut().zip(&forests) {
            slots.truncate(forest.len());
        }
        let entries = (0..table.slots.len())
            .map(|a| table.occupied(a).count())
            .sum();
        MapProtocol {
            empty: vec![NO_SET; forests.len()],
            forests,
            table,
            entries,
            ..MapProtocol::new(default)
        }
    }

    /// Sets a per-agent default action set, overriding the global default
    /// for that agent's unlisted histories.
    ///
    /// # Panics
    ///
    /// Panics if `actions` is empty.
    pub fn set_agent_default(&mut self, agent: Agent, actions: Vec<ActionId>) {
        assert!(!actions.is_empty(), "default action set must be nonempty");
        self.agent_defaults.insert(agent, actions);
    }

    /// Sets the action set for one history.
    ///
    /// # Panics
    ///
    /// Panics if `actions` is empty.
    pub fn insert(&mut self, agent: Agent, history: Vec<Obs>, actions: Vec<ActionId>) {
        assert!(!actions.is_empty(), "action set must be nonempty");
        let a = agent.index();
        if self.forests.len() <= a {
            self.forests.resize_with(a + 1, Arc::default);
            self.empty.resize(a + 1, NO_SET);
        }
        let id = self.table.intern(actions);
        let slot = match history.split_first() {
            None => &mut self.empty[a],
            Some((&root, rest)) => {
                let forest = &mut self.forests[a];
                let local = match forest.find(&history) {
                    Some(local) => local,
                    None => Arc::make_mut(forest).intern_history(root, rest),
                };
                self.table.slot_mut(a, local.index())
            }
        };
        if std::mem::replace(slot, id) == NO_SET {
            self.entries += 1;
        }
    }

    /// The set index of agent `a`'s empty-history entry, if any.
    fn empty_entry(&self, a: usize) -> Option<u32> {
        self.empty.get(a).copied().filter(|&id| id != NO_SET)
    }

    /// The set index of a history's explicit entry, if any.
    fn index(&self, agent: Agent, history: &[Obs]) -> Option<u32> {
        let a = agent.index();
        if history.is_empty() {
            return self.empty_entry(a);
        }
        let local = self.forests.get(a)?.find(history)?;
        self.table.index(a, local.index())
    }

    /// Looks up the explicit entry for a history, if any.
    #[must_use]
    pub fn get(&self, agent: Agent, history: &[Obs]) -> Option<&[ActionId]> {
        self.index(agent, history).map(|id| self.table.set_of(id))
    }

    /// Number of explicit entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries
    }

    /// Whether the protocol has no explicit entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    /// The explicit entries of one agent as `(forest node, set index)`;
    /// `None` stands for the empty history.
    fn entries_of(&self, a: usize) -> impl Iterator<Item = (Option<LocalId>, u32)> + '_ {
        self.empty_entry(a).map(|id| (None, id)).into_iter().chain(
            self.table
                .occupied(a)
                .map(|(slot, id)| (Some(LocalId(slot as u32)), id)),
        )
    }

    /// Iterates over `(agent, history, actions)` entries, agent by agent.
    /// Each history is rebuilt from the agent's history forest.
    pub fn iter(&self) -> impl Iterator<Item = (Agent, Vec<Obs>, &[ActionId])> + '_ {
        (0..self.forests.len()).flat_map(move |a| {
            self.entries_of(a).map(move |(local, id)| {
                let history = local.map_or_else(Vec::new, |l| self.forests[a].history(l));
                (Agent::new(a), history, self.table.set_of(id))
            })
        })
    }

    /// Renders the protocol as a sorted, human-readable table using the
    /// context's agent and action names.
    ///
    /// # Example
    ///
    /// (Output shape:)
    ///
    /// ```text
    /// sender:
    ///   [obs:0]        -> send
    ///   [obs:0,obs:2]  -> noop
    /// ```
    #[must_use]
    pub fn to_pretty(&self, ctx: &dyn crate::context::Context) -> String {
        use std::fmt::Write as _;
        let voc = ctx.vocabulary();
        let mut entries: Vec<(Agent, Vec<Obs>, &[ActionId])> = self.iter().collect();
        entries.sort_by(|x, y| (x.0, x.1.len(), &x.1).cmp(&(y.0, y.1.len(), &y.1)));
        let mut out = String::new();
        let mut current: Option<Agent> = None;
        for (agent, history, actions) in entries {
            if current != Some(agent) {
                let name = if agent.index() < voc.agent_count() {
                    voc.agent_name(agent).to_owned()
                } else {
                    agent.to_string()
                };
                let _ = writeln!(out, "{name}:");
                current = Some(agent);
            }
            let hist: Vec<String> = history.iter().map(ToString::to_string).collect();
            let acts: Vec<String> = actions.iter().map(|&a| ctx.action_name(agent, a)).collect();
            let _ = writeln!(out, "  [{}] -> {}", hist.join(","), acts.join("|"));
        }
        out
    }

    /// Whether every entry is a singleton (a deterministic protocol).
    #[must_use]
    pub fn is_deterministic(&self) -> bool {
        self.default.len() == 1
            && self.agent_defaults.values().all(|v| v.len() == 1)
            && (0..self.forests.len()).all(|a| {
                self.entries_of(a)
                    .all(|(_, id)| self.table.set_of(id).len() == 1)
            })
    }

    /// Whether every explicit entry of `self` is an entry of `other` with
    /// the same action set. Walks `self`'s forests in id order, mapping
    /// each node to `other`'s node for the same history (a parent's id is
    /// smaller than its child's, so its image is already known).
    fn entries_within(&self, other: &MapProtocol) -> bool {
        (0..self.forests.len()).all(|a| {
            let mine = &self.forests[a];
            let empty = Arc::default();
            let theirs = other.forests.get(a).unwrap_or(&empty);
            let mut image: Vec<Option<LocalId>> = Vec::new();
            self.entries_of(a).all(|(local, id)| {
                let counterpart = match local {
                    None => other.empty_entry(a),
                    Some(l) => {
                        while image.len() <= l.index() {
                            let (parent, obs) = mine.entry(LocalId(image.len() as u32));
                            image.push(match parent {
                                None => theirs.lookup(None, obs),
                                Some(p) => {
                                    image[p.index()].and_then(|pi| theirs.lookup(Some(pi), obs))
                                }
                            });
                        }
                        image[l.index()].and_then(|m| other.table.index(a, m.index()))
                    }
                };
                counterpart
                    .is_some_and(|theirs| other.table.set_of(theirs) == self.table.set_of(id))
            })
        })
    }
}

impl PartialEq for MapProtocol {
    fn eq(&self, other: &Self) -> bool {
        self.default == other.default
            && self.agent_defaults == other.agent_defaults
            && self.entries == other.entries
            && self.entries_within(other)
    }
}

impl Eq for MapProtocol {}

impl fmt::Debug for MapProtocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut entries: Vec<(Agent, Vec<Obs>, &[ActionId])> = self.iter().collect();
        entries.sort();
        f.debug_struct("MapProtocol")
            .field("entries", &entries)
            .field("agent_defaults", &self.agent_defaults)
            .field("default", &self.default)
            .finish()
    }
}

impl ProtocolFn for MapProtocol {
    fn actions(&self, view: &LocalView<'_>) -> Vec<ActionId> {
        self.get(view.agent, view.history)
            .or_else(|| self.agent_defaults.get(&view.agent).map(Vec::as_slice))
            .unwrap_or(self.default.as_slice())
            .to_vec()
    }
}

/// The maximally permissive protocol: every agent may always take any of
/// its actions. Running it generates the *full* system of the context —
/// the right system for verifying context-level properties with the model
/// checker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FullProtocol {
    action_counts: [usize; kbp_logic::Agent::MAX_AGENTS],
    agents: usize,
}

impl FullProtocol {
    /// Creates the full protocol for a context's action repertoires.
    #[must_use]
    pub fn for_context(ctx: &dyn crate::context::Context) -> Self {
        let mut action_counts = [0usize; kbp_logic::Agent::MAX_AGENTS];
        for (i, slot) in action_counts.iter_mut().take(ctx.agent_count()).enumerate() {
            *slot = ctx.action_count(Agent::new(i));
        }
        FullProtocol {
            action_counts,
            agents: ctx.agent_count(),
        }
    }
}

impl ProtocolFn for FullProtocol {
    fn actions(&self, view: &LocalView<'_>) -> Vec<ActionId> {
        debug_assert!(view.agent.index() < self.agents);
        (0..self.action_counts[view.agent.index()])
            .map(|k| ActionId(k as u32))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_view_accessors() {
        let h = [Obs(1), Obs(2), Obs(3)];
        let v = LocalView {
            agent: Agent::new(0),
            history: &h,
        };
        assert_eq!(v.current(), Obs(3));
        assert_eq!(v.time(), 2);
    }

    #[test]
    fn map_protocol_lookup_and_default() {
        let a = Agent::new(0);
        let b = Agent::new(1);
        let mut p = MapProtocol::new(vec![ActionId(9)]);
        p.insert(a, vec![Obs(0), Obs(1)], vec![ActionId(1), ActionId(2)]);
        assert_eq!(
            p.get(a, &[Obs(0), Obs(1)]),
            Some(&[ActionId(1), ActionId(2)][..])
        );
        assert_eq!(p.get(b, &[Obs(0), Obs(1)]), None, "keyed per agent");
        let h = [Obs(0), Obs(1)];
        let v = LocalView {
            agent: b,
            history: &h,
        };
        assert_eq!(p.actions(&v), vec![ActionId(9)]);
        assert!(!p.is_deterministic());
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn closure_protocols_work() {
        let p = |view: &LocalView<'_>| {
            if view.current() == Obs(0) {
                vec![ActionId(0)]
            } else {
                vec![ActionId(1)]
            }
        };
        let h = [Obs(5)];
        assert_eq!(
            ProtocolFn::actions(
                &p,
                &LocalView {
                    agent: Agent::new(0),
                    history: &h
                }
            ),
            vec![ActionId(1)]
        );
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn empty_default_rejected() {
        let _ = MapProtocol::new(Vec::new());
    }

    #[test]
    fn pretty_rendering_groups_by_agent_and_sorts() {
        let mut voc = kbp_logic::Vocabulary::new();
        let a = voc.add_agent("alice");
        let b = voc.add_agent("bob");
        let ctx = crate::context::ContextBuilder::new(voc)
            .initial_state(crate::state::GlobalState::new(vec![0]))
            .agent_actions(a, ["wait", "go"])
            .agent_actions(b, ["wait"])
            .transition(|s, _| s.clone())
            .observe(|_, _| Obs(0))
            .props(|_, _| false)
            .build();
        let mut p = MapProtocol::new(vec![ActionId(0)]);
        p.insert(b, vec![Obs(0)], vec![ActionId(0)]);
        p.insert(a, vec![Obs(0), Obs(1)], vec![ActionId(0)]);
        p.insert(a, vec![Obs(0)], vec![ActionId(1)]);
        let s = p.to_pretty(&ctx);
        let alice_pos = s.find("alice:").unwrap();
        let bob_pos = s.find("bob:").unwrap();
        assert!(alice_pos < bob_pos, "{s}");
        assert!(s.contains("[obs:0] -> go"), "{s}");
        assert!(s.contains("[obs:0,obs:1] -> wait"), "{s}");
        // Short history before long one.
        assert!(s.find("[obs:0] -> go").unwrap() < s.find("[obs:0,obs:1]").unwrap());
    }

    #[test]
    fn induced_protocols_share_the_system_forest_until_written() {
        let mut voc = kbp_logic::Vocabulary::new();
        let a = voc.add_agent("counter");
        let ctx = crate::context::ContextBuilder::new(voc)
            .initial_state(crate::state::GlobalState::new(vec![0]))
            .agent_actions(a, ["tick", "wait"])
            .transition(|s, _| s.with_reg(0, s.reg(0) + 1))
            .observe(|_, s| Obs(u64::from(s.reg(0))))
            .props(|_, _| false)
            .build();
        let mut b = crate::SystemBuilder::new(&ctx, crate::Recall::Perfect).unwrap();
        let mut choices = StepChoices::new();
        for t in 0..=3 {
            for (agent, local) in b.frontier_locals() {
                choices.set(agent, local, vec![ActionId(t % 2)]);
            }
            if t < 3 {
                b.step(&choices).unwrap();
            }
        }
        let system = b.finish();
        let p = MapProtocol::from_choices(&system, choices, vec![ActionId(0)]);
        assert!(Arc::ptr_eq(&p.forests[0], &system.forests()[0]));
        assert_eq!(p.len(), 4);
        let h = [Obs(0), Obs(1), Obs(2)];
        assert_eq!(p.get(a, &h), Some(&[ActionId(0)][..]));
        assert_eq!(p.get(a, &h[..2]), Some(&[ActionId(1)][..]));

        // Overwriting a history the forest holds keeps sharing it.
        let mut q = p.clone();
        q.insert(a, h.to_vec(), vec![ActionId(1)]);
        q.insert(a, Vec::new(), vec![ActionId(1)]);
        assert!(Arc::ptr_eq(&q.forests[0], &system.forests()[0]));
        assert_eq!(q.len(), 5);
        assert_ne!(p, q);
        // A new history clones the forest first; the system keeps its own.
        q.insert(a, vec![Obs(0), Obs(7)], vec![ActionId(1)]);
        assert!(!Arc::ptr_eq(&q.forests[0], &system.forests()[0]));
        assert_eq!(system.forests()[0].len(), 4);
        assert_eq!(q.len(), 6);
        assert_eq!(p.get(a, &[Obs(0), Obs(7)]), None);
        assert_eq!(q.get(a, &[Obs(0), Obs(7)]), Some(&[ActionId(1)][..]));
    }

    #[test]
    fn equality_ignores_node_numbering() {
        let a = Agent::new(0);
        let mut p = MapProtocol::new(vec![ActionId(0)]);
        p.insert(a, vec![Obs(1), Obs(2)], vec![ActionId(1)]);
        p.insert(a, vec![Obs(3)], vec![ActionId(2)]);
        p.insert(a, Vec::new(), vec![ActionId(3)]);
        let mut q = MapProtocol::new(vec![ActionId(0)]);
        q.insert(a, vec![Obs(3)], vec![ActionId(2)]);
        q.insert(a, Vec::new(), vec![ActionId(3)]);
        q.insert(a, vec![Obs(1), Obs(2)], vec![ActionId(1)]);
        assert_eq!(p, q);
        // A prefix interned for a longer history is not an entry.
        assert_eq!(p.get(a, &[Obs(1)]), None);
        q.insert(a, vec![Obs(1)], vec![ActionId(1)]);
        assert_ne!(p, q);
        assert_ne!(q, p);
    }

    #[test]
    fn determinism_check() {
        let mut p = MapProtocol::new(vec![ActionId(0)]);
        assert!(p.is_deterministic());
        p.insert(Agent::new(0), vec![Obs(1)], vec![ActionId(1)]);
        assert!(p.is_deterministic());
        p.insert(Agent::new(0), vec![Obs(2)], vec![ActionId(1), ActionId(0)]);
        assert!(!p.is_deterministic());
    }
}

/// The serde form: the entry list as a `(agent, history) → actions` map,
/// then the defaults — independent of forest node numbering.
struct MapProtocolWire {
    entries: HashMap<(Agent, Vec<Obs>), Vec<ActionId>>,
    agent_defaults: HashMap<Agent, Vec<ActionId>>,
    default: Vec<ActionId>,
}

serde::impl_serde_struct!(MapProtocolWire {
    entries,
    agent_defaults,
    default,
});

impl serde::Serialize for MapProtocol {
    fn serialize<S: serde::ser::Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        MapProtocolWire {
            entries: self
                .iter()
                .map(|(agent, history, actions)| ((agent, history), actions.to_vec()))
                .collect(),
            agent_defaults: self.agent_defaults.clone(),
            default: self.default.clone(),
        }
        .serialize(serializer)
    }
}

impl<'de> serde::Deserialize<'de> for MapProtocol {
    fn deserialize<D: serde::de::Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let wire = <MapProtocolWire as serde::Deserialize>::deserialize(deserializer)?;
        let mut protocol = MapProtocol {
            agent_defaults: wire.agent_defaults,
            default: wire.default,
            ..MapProtocol::default()
        };
        for ((agent, history), actions) in wire.entries {
            if actions.is_empty() {
                return Err(<D::Error as serde::de::Error>::custom(
                    "empty action set in protocol entry",
                ));
            }
            protocol.insert(agent, history, actions);
        }
        Ok(protocol)
    }
}
