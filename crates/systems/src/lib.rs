//! Runs-and-systems semantics for knowledge-based programs (FHMV,
//! PODC 1995).
//!
//! This crate provides the *dynamic* substrate of the workspace:
//!
//! * [`Context`] — the environment of a planning problem: initial global
//!   states, environment protocol, joint transition function, observation
//!   functions and valuation (`γ = (P_e, G_0, τ)` in the paper). Assemble
//!   one with [`ContextBuilder`].
//! * [`ProtocolFn`] — joint protocols: local states → nonempty action
//!   sets; [`MapProtocol`] is the table-driven concrete form.
//! * [`SystemBuilder`] / [`generate`] — unrolls `R^rep(P, γ)` to a bounded
//!   horizon, producing an [`InterpretedSystem`]: per-layer S5 models over
//!   epistemically distinct points, under perfect-recall or observational
//!   local states ([`Recall`]).
//! * [`Evaluator`] — evaluates epistemic–temporal formulas at
//!   [`Point`]s (knowledge per layer, temporal by backward induction with
//!   universal path quantification and bounded-run semantics).
//! * Run extraction ([`Run`]) and stabilisation detection
//!   ([`InterpretedSystem::stabilization`]).
//!
//! The knowledge-based-program layer itself (guards, induced protocols,
//! fixed-point implementation solving) lives in `kbp-core`, on top of this
//! crate.
//!
//! # Example
//!
//! ```
//! use kbp_systems::{generate, ContextBuilder, GlobalState, Obs, Recall,
//!                   ActionId, LocalView};
//! use kbp_logic::{Formula, Vocabulary};
//!
//! // A sensor that reveals a hidden bit when asked.
//! let mut voc = Vocabulary::new();
//! let agent = voc.add_agent("sensor");
//! let bit = voc.add_prop("bit");
//! let ctx = ContextBuilder::new(voc)
//!     .initial_states([GlobalState::new(vec![0]), GlobalState::new(vec![1])])
//!     .agent_actions(agent, ["read"])
//!     .transition(|s, _| s.clone())
//!     .observe(|_, s| Obs(u64::from(s.reg(0)) + 1))
//!     .props(move |p, s| p == bit && s.reg(0) == 1)
//!     .build();
//!
//! let read = |_: &LocalView<'_>| vec![ActionId(0)];
//! let sys = generate(&ctx, &read, Recall::Perfect, 2)?;
//! // The sensor reads the bit at time 0 already (observation function).
//! let knows_bit = Formula::knows_whether(kbp_logic::Agent::new(0), Formula::prop(bit));
//! assert!(sys.holds_initially(&knows_bit)?);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

// Robustness gate: the library surface must stay panic-free so malformed
// inputs (e.g. from the fault-injection layer) surface as typed errors.
// Tests and benches are exempt.
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]
#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod context;
mod eval;
mod explain;
mod protocol;
pub mod random;
mod runs;
mod stabilize;
mod state;
mod system;

pub use context::{
    ActionId, Context, ContextBuilder, ContextError, EnvActionId, FnContext, JointAction,
};
pub use eval::{satisfying_layers, satisfying_layers_with, Evaluator};
pub use explain::KnowledgeExplanation;
pub use protocol::{FullProtocol, LocalView, MapProtocol, ProtocolFn};
pub use runs::Run;
pub use stabilize::LayerSignature;
pub use state::{GlobalState, LocalId, LocalTable, Obs, StateId, StateTable};
pub use system::{
    generate, generate_until_stable, GenerateError, InterpretedSystem, Layer, Node, Point,
    QuotientFrontier, Recall, StepChoices, SystemBuilder,
};
