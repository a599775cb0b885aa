//! The shared evaluation engine.
//!
//! Every satisfaction-set computation in the workspace — solver guards,
//! enumerator branch tests, bounded-temporal layer evaluation, CTLK model
//! checking — is the same operation: walk an interned [`FormulaArena`] in
//! postorder over one S5 layer, memoizing each distinct subformula in an
//! [`EvalCache`]. [`EvalEngine`] packages that walk behind a stable API so
//! all consumers share one arena (one interning pass, maximal subformula
//! sharing) and one kernel (the word-level partition routines of this
//! crate).
//!
//! Two extras live here because they only make sense at the batch level:
//!
//! * **Parallel sharded fill** ([`EvalEngine::populate`]): independent
//!   root formulas — those sharing no uncached subformula and no group
//!   modality's agent set (group joins are memoized per agent set, and
//!   must not be rebuilt once per shard) — are sharded across
//!   `std::thread::scope` workers, each filling a private cache;
//!   the shards are merged before any result is read. Because each cached
//!   value is a pure function of `(model, FormulaId)`, the merged cache is
//!   bit-identical to the sequential one regardless of sharding.
//! * **Temporal hooks** ([`TemporalOps`] / [`EvalEngine::populate_temporal`]):
//!   the static kernel cannot evaluate `X/F/G/U`; a consumer that can
//!   (backward induction in `kbp-systems`, CTL fixpoints in `kbp-mck`)
//!   supplies the four set-level operators and the engine drives the
//!   postorder walk, memoizing temporal results per [`FormulaId`] like any
//!   other node.

use crate::bitset::BitSet;
use crate::eval::{EvalCache, EvalError};
use crate::model::S5Model;
use crate::partition::{Partition, UnionFind};
use kbp_logic::{AgentSet, Formula, FormulaArena, FormulaId, InternedNode, PropId};
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;
use std::thread;

/// Environment variable overriding the engine's worker-thread count.
pub const THREADS_ENV: &str = "KBP_EVAL_THREADS";

/// Environment variable overriding the intra-layer sharding gate: layers
/// with at least this many worlds use the range-sharded kernels (when
/// `threads > 1`). `0` means "shard every layer wide enough to split";
/// a huge value disables intra-layer sharding entirely.
pub const SHARD_MIN_WORLDS_ENV: &str = "KBP_SHARD_MIN_WORLDS";

/// Default intra-layer sharding gate. High enough that small layers —
/// and everything below the solver's carry threshold — stay on the
/// sequential kernels, whose fixed cost (no thread spawns) wins there.
pub const DEFAULT_SHARD_MIN_WORLDS: usize = 4096;

/// Environment variable overriding the quotient gate: layers with at
/// least this many worlds are first reduced by agent-indistinguishability
/// bisimulation, epistemic sat-sets are computed on the quotient, and the
/// results are expanded back through the class projection (DESIGN.md
/// §15). `0` means "quotient every layer"; a huge value disables the
/// stage entirely.
pub const QUOTIENT_MIN_WORLDS_ENV: &str = "KBP_QUOTIENT_MIN_WORLDS";

/// Default quotient gate. Mirrors [`DEFAULT_SHARD_MIN_WORLDS`]: small
/// layers evaluate explicitly (the bisimulation pass costs more than it
/// saves there), wide layers go through the quotient — results are
/// bit-identical either way.
pub const DEFAULT_QUOTIENT_MIN_WORLDS: usize = 4096;

/// Environment variable overriding the *generation* quotient gate:
/// frontiers with at least this many points are folded to bisimulation
/// representatives with multiplicities before the next layer is
/// generated, so the explicit frontier is never resident (DESIGN.md
/// §17). `0` means "generate quotient-first from layer 0"; a huge value
/// disables fused generation entirely. Read by
/// `kbp_systems::SystemBuilder`; defined here so all engine gates share
/// one parser and one error type.
pub const GEN_QUOTIENT_MIN_WORLDS_ENV: &str = "KBP_GEN_QUOTIENT_MIN_WORLDS";

/// Default generation quotient gate. Mirrors
/// [`DEFAULT_QUOTIENT_MIN_WORLDS`]: narrow frontiers are generated
/// explicitly (the canonicalization pass costs more than it saves
/// there), wide frontiers advance on representatives — solutions are
/// bit-identical either way.
pub const DEFAULT_GEN_QUOTIENT_MIN_WORLDS: usize = 4096;

/// The feedback half of both quotient gates: an attempted reduction of an
/// `n`-world layer into `k` classes is *declined* when
/// `k * MIN_QUOTIENT_COMPRESSION > n`. A declined stage stays off until
/// the layer has grown by this factor since the decline (see
/// [`QuotientGate`]).
pub const MIN_QUOTIENT_COMPRESSION: usize = 2;

/// One quotient stage's gate: a width threshold plus compression
/// feedback. The generation stage (`kbp_systems::SystemBuilder`) and the
/// solver's evaluation stage each keep one per unrolling.
///
/// A layer is admitted when it is at least `min_worlds` wide and no
/// decline is in force. An attempt that compresses by less than
/// [`MIN_QUOTIENT_COMPRESSION`] declines: the stage then skips every layer
/// narrower than `MIN_QUOTIENT_COMPRESSION` times the declined width, so
/// a layer that keeps growing is retried at geometrically spaced widths
/// (total retry cost within a constant factor of one attempt) and a layer
/// of constant width is never retried. `min_worlds == 0` forces the stage
/// on every layer and never declines; `usize::MAX` keeps it off.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuotientGate {
    min_worlds: usize,
    declined_at: Option<usize>,
}

impl QuotientGate {
    /// A gate admitting layers at least `min_worlds` wide, with no
    /// decline in force.
    #[must_use]
    pub const fn new(min_worlds: usize) -> Self {
        QuotientGate {
            min_worlds,
            declined_at: None,
        }
    }

    /// The width threshold.
    #[must_use]
    pub const fn min_worlds(&self) -> usize {
        self.min_worlds
    }

    /// The width of the decline in force, if any.
    #[must_use]
    pub const fn declined_at(&self) -> Option<usize> {
        self.declined_at
    }

    /// Whether the stage attempts a reduction of a `worlds`-wide layer.
    #[must_use]
    pub fn admits(&self, worlds: usize) -> bool {
        worlds >= self.min_worlds
            && (self.min_worlds == 0
                || self
                    .declined_at
                    .is_none_or(|at| worlds >= at.saturating_mul(MIN_QUOTIENT_COMPRESSION)))
    }

    /// Judges an attempt that reduced `worlds` worlds to `classes`
    /// classes. Returns `true` — and puts the decline in force — when it
    /// compressed by less than [`MIN_QUOTIENT_COMPRESSION`]; a compressing
    /// attempt lifts any earlier decline. A forced gate never declines.
    pub fn judge(&mut self, worlds: usize, classes: usize) -> bool {
        if self.min_worlds == 0 {
            return false;
        }
        let declined = classes.saturating_mul(MIN_QUOTIENT_COMPRESSION) > worlds;
        self.declined_at = declined.then_some(worlds);
        declined
    }

    /// Puts a decline at `worlds` in force for an attempt that could not
    /// reduce the layer at all (no class count to judge).
    pub fn decline(&mut self, worlds: usize) {
        if self.min_worlds != 0 {
            self.declined_at = Some(worlds);
        }
    }
}

/// Largest worker-thread count accepted from an environment variable.
/// Far above any plausible machine; a value beyond it is a typo (an extra
/// digit, a pasted timestamp), not a configuration.
pub const MAX_CONFIG_THREADS: usize = 4096;

/// A thread-count environment variable held a value that cannot mean any
/// worker-pool size. Surfaced as a typed error so services can refuse to
/// start instead of silently falling back to a default the operator did
/// not choose.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadConfigError {
    /// The value did not parse as an unsigned integer.
    NotANumber {
        /// The variable that held the value.
        var: &'static str,
        /// The offending value.
        value: String,
    },
    /// The value parsed as `0`; a worker pool needs at least one thread.
    Zero {
        /// The variable that held the value.
        var: &'static str,
    },
    /// The value exceeds [`MAX_CONFIG_THREADS`].
    TooLarge {
        /// The variable that held the value.
        var: &'static str,
        /// The offending value.
        value: String,
    },
}

impl fmt::Display for ThreadConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ThreadConfigError::NotANumber { var, value } => {
                write!(f, "{var}={value:?} is not an unsigned integer")
            }
            ThreadConfigError::Zero { var } => {
                write!(f, "{var}=0: a worker pool needs at least one thread")
            }
            ThreadConfigError::TooLarge { var, value } => write!(
                f,
                "{var}={value}: exceeds the {MAX_CONFIG_THREADS}-thread cap"
            ),
        }
    }
}

impl Error for ThreadConfigError {}

/// Parses a thread-count setting taken from environment variable `var`.
/// `0`, non-numeric input and values above [`MAX_CONFIG_THREADS`] are
/// typed errors, never silent fallbacks.
///
/// # Errors
///
/// Returns [`ThreadConfigError`] describing exactly how the value is
/// unusable.
pub fn parse_thread_count(var: &'static str, raw: &str) -> Result<usize, ThreadConfigError> {
    let trimmed = raw.trim();
    let n: usize = trimmed.parse().map_err(|_| ThreadConfigError::NotANumber {
        var,
        value: raw.to_owned(),
    })?;
    if n == 0 {
        return Err(ThreadConfigError::Zero { var });
    }
    if n > MAX_CONFIG_THREADS {
        return Err(ThreadConfigError::TooLarge {
            var,
            value: raw.to_owned(),
        });
    }
    Ok(n)
}

/// Reads a thread-count override from environment variable `var`.
/// `Ok(None)` when unset or empty; malformed values are typed errors.
///
/// # Errors
///
/// Returns [`ThreadConfigError`] if the variable is set to `0`, to a
/// non-number, or to a value above [`MAX_CONFIG_THREADS`].
pub fn env_threads(var: &'static str) -> Result<Option<usize>, ThreadConfigError> {
    match std::env::var(var) {
        Err(_) => Ok(None),
        Ok(raw) if raw.trim().is_empty() => Ok(None),
        Ok(raw) => parse_thread_count(var, &raw).map(Some),
    }
}

/// Reads the intra-layer sharding gate from [`SHARD_MIN_WORLDS_ENV`].
/// `Ok(None)` when unset or empty. Unlike thread counts, `0` is a valid
/// setting (shard every layer wide enough to split) and there is no upper
/// cap (a huge value just disables intra-layer sharding).
///
/// # Errors
///
/// Returns [`ThreadConfigError::NotANumber`] if the variable holds
/// anything but an unsigned integer.
pub fn env_shard_min_worlds() -> Result<Option<usize>, ThreadConfigError> {
    match std::env::var(SHARD_MIN_WORLDS_ENV) {
        Err(_) => Ok(None),
        Ok(raw) if raw.trim().is_empty() => Ok(None),
        Ok(raw) => {
            raw.trim()
                .parse::<usize>()
                .map(Some)
                .map_err(|_| ThreadConfigError::NotANumber {
                    var: SHARD_MIN_WORLDS_ENV,
                    value: raw,
                })
        }
    }
}

/// Reads the quotient gate from [`QUOTIENT_MIN_WORLDS_ENV`].
/// `Ok(None)` when unset or empty. Like the sharding gate, `0` is a valid
/// setting (quotient every layer) and there is no upper cap (a huge value
/// disables the quotient stage).
///
/// # Errors
///
/// Returns [`ThreadConfigError::NotANumber`] if the variable holds
/// anything but an unsigned integer.
pub fn env_quotient_min_worlds() -> Result<Option<usize>, ThreadConfigError> {
    match std::env::var(QUOTIENT_MIN_WORLDS_ENV) {
        Err(_) => Ok(None),
        Ok(raw) if raw.trim().is_empty() => Ok(None),
        Ok(raw) => {
            raw.trim()
                .parse::<usize>()
                .map(Some)
                .map_err(|_| ThreadConfigError::NotANumber {
                    var: QUOTIENT_MIN_WORLDS_ENV,
                    value: raw,
                })
        }
    }
}

/// Reads the generation quotient gate from
/// [`GEN_QUOTIENT_MIN_WORLDS_ENV`]. `Ok(None)` when unset or empty. Like
/// its two sibling gates, `0` is a valid setting (fuse step+quotient
/// from layer 0) and there is no upper cap (a huge value keeps
/// generation explicit).
///
/// # Errors
///
/// Returns [`ThreadConfigError::NotANumber`] if the variable holds
/// anything but an unsigned integer.
pub fn env_gen_quotient_min_worlds() -> Result<Option<usize>, ThreadConfigError> {
    match std::env::var(GEN_QUOTIENT_MIN_WORLDS_ENV) {
        Err(_) => Ok(None),
        Ok(raw) if raw.trim().is_empty() => Ok(None),
        Ok(raw) => {
            raw.trim()
                .parse::<usize>()
                .map(Some)
                .map_err(|_| ThreadConfigError::NotANumber {
                    var: GEN_QUOTIENT_MIN_WORLDS_ENV,
                    value: raw,
                })
        }
    }
}

/// Set-level temporal operators, supplied by evaluators that have a
/// notion of time (bounded layers, an explored state graph, …).
///
/// Each operator maps the satisfaction set(s) of the subformula(s) to the
/// satisfaction set of the temporal formula **on the same model**. The
/// engine calls them during [`EvalEngine::populate_temporal`]'s postorder
/// walk, so arguments are always fully evaluated.
pub trait TemporalOps {
    /// Satisfaction set of `X φ` given that of `φ`.
    fn next(&self, phi: &BitSet) -> BitSet;
    /// Satisfaction set of `F φ` given that of `φ`.
    fn eventually(&self, phi: &BitSet) -> BitSet;
    /// Satisfaction set of `G φ` given that of `φ`.
    fn always(&self, phi: &BitSet) -> BitSet;
    /// Satisfaction set of `φ U ψ` given those of `φ` and `ψ`.
    fn until(&self, hold: &BitSet, target: &BitSet) -> BitSet;
}

/// The unified arena-based evaluator.
///
/// Owns the [`FormulaArena`] for a whole run (a solve, an enumeration, a
/// model-checking session) plus the parallelism policy. Per-layer state
/// lives in the caller's [`EvalCache`]s, so one engine serves any number
/// of layers/models.
///
/// # Example
///
/// ```
/// use kbp_kripke::{EvalCache, EvalEngine, S5Builder};
/// use kbp_logic::{Agent, Formula, FormulaArena, PropId};
///
/// let a = Agent::new(0);
/// let p = Formula::prop(PropId::new(0));
/// let mut b = S5Builder::new(1, 1);
/// let w0 = b.add_world([PropId::new(0)]);
/// let w1 = b.add_world([]);
/// b.link(a, w0, w1);
/// let m = b.build();
///
/// let mut engine = EvalEngine::new(FormulaArena::new());
/// let yes = engine.intern(&Formula::knows(a, p.clone()));
/// let no = engine.intern(&Formula::not(Formula::knows(a, p)));
///
/// let mut cache = EvalCache::new();
/// let sets = engine.satisfying_sets(&m, &mut cache, &[yes, no])?;
/// assert_eq!(sets[1], sets[0].complemented());
/// # Ok::<(), kbp_kripke::EvalError>(())
/// ```
#[derive(Debug)]
pub struct EvalEngine {
    arena: FormulaArena,
    threads: usize,
    shard_min_worlds: usize,
    quotient_min_worlds: usize,
}

fn default_threads() -> usize {
    if let Ok(Some(n)) = env_threads(THREADS_ENV) {
        return n;
    }
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn default_shard_min_worlds() -> usize {
    match env_shard_min_worlds() {
        Ok(Some(n)) => n,
        _ => DEFAULT_SHARD_MIN_WORLDS,
    }
}

fn default_quotient_min_worlds() -> usize {
    match env_quotient_min_worlds() {
        Ok(Some(n)) => n,
        _ => DEFAULT_QUOTIENT_MIN_WORLDS,
    }
}

impl EvalEngine {
    /// Wraps `arena` with the default thread policy: `KBP_EVAL_THREADS`
    /// if set to a positive integer, else
    /// [`std::thread::available_parallelism`]. A malformed
    /// `KBP_EVAL_THREADS` value is ignored here; use
    /// [`from_env`](Self::from_env) to surface it as a typed error
    /// instead.
    #[must_use]
    pub fn new(arena: FormulaArena) -> Self {
        EvalEngine {
            arena,
            threads: default_threads(),
            shard_min_worlds: default_shard_min_worlds(),
            quotient_min_worlds: default_quotient_min_worlds(),
        }
    }

    /// Like [`new`](Self::new), but a malformed `KBP_EVAL_THREADS` value
    /// is a typed [`ThreadConfigError`] instead of a silent fallback to
    /// [`std::thread::available_parallelism`].
    ///
    /// # Errors
    ///
    /// Returns [`ThreadConfigError`] if `KBP_EVAL_THREADS` is set to `0`,
    /// a non-number, or a value above [`MAX_CONFIG_THREADS`].
    pub fn from_env(arena: FormulaArena) -> Result<Self, ThreadConfigError> {
        let threads = env_threads(THREADS_ENV)?.unwrap_or_else(|| {
            thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        });
        let shard_min_worlds = env_shard_min_worlds()?.unwrap_or(DEFAULT_SHARD_MIN_WORLDS);
        let quotient_min_worlds = env_quotient_min_worlds()?.unwrap_or(DEFAULT_QUOTIENT_MIN_WORLDS);
        Ok(EvalEngine {
            arena,
            threads,
            shard_min_worlds,
            quotient_min_worlds,
        })
    }

    /// Overrides the worker-thread count (clamped to ≥ 1); `1` forces the
    /// sequential path.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// In-place variant of [`with_threads`](Self::with_threads), for
    /// engines owned by a long-lived session.
    pub fn set_threads(&mut self, threads: usize) {
        self.threads = threads.max(1);
    }

    /// The configured worker-thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Overrides the intra-layer sharding gate: layers with at least
    /// `worlds` worlds run the range-sharded kernels (when `threads > 1`).
    #[must_use]
    pub fn with_shard_min_worlds(mut self, worlds: usize) -> Self {
        self.shard_min_worlds = worlds;
        self
    }

    /// In-place variant of
    /// [`with_shard_min_worlds`](Self::with_shard_min_worlds).
    pub fn set_shard_min_worlds(&mut self, worlds: usize) {
        self.shard_min_worlds = worlds;
    }

    /// The configured intra-layer sharding gate.
    #[must_use]
    pub fn shard_min_worlds(&self) -> usize {
        self.shard_min_worlds
    }

    /// Overrides the quotient gate: layers with at least `worlds` worlds
    /// are reduced by bisimulation before epistemic evaluation. `0`
    /// quotients every layer; `usize::MAX` disables the stage.
    #[must_use]
    pub fn with_quotient_min_worlds(mut self, worlds: usize) -> Self {
        self.quotient_min_worlds = worlds;
        self
    }

    /// In-place variant of
    /// [`with_quotient_min_worlds`](Self::with_quotient_min_worlds).
    pub fn set_quotient_min_worlds(&mut self, worlds: usize) {
        self.quotient_min_worlds = worlds;
    }

    /// The configured quotient gate.
    #[must_use]
    pub fn quotient_min_worlds(&self) -> usize {
        self.quotient_min_worlds
    }

    /// The kernel shard plan for a layer of `worlds` worlds: how many
    /// word-aligned world ranges the partition/sat-set kernels split
    /// into. `1` means sequential. A pure function of the engine
    /// configuration and the layer width — never of cache warmth or
    /// scheduling — so recorded stats stay deterministic.
    #[must_use]
    pub fn kernel_shards(&self, worlds: usize) -> usize {
        if self.threads > 1 && worlds >= self.shard_min_worlds {
            self.threads.min(worlds.div_ceil(64)).max(1)
        } else {
            1
        }
    }

    /// The engine's arena.
    #[must_use]
    pub fn arena(&self) -> &FormulaArena {
        &self.arena
    }

    /// Interns `formula` into the engine's arena.
    pub fn intern(&mut self, formula: &Formula) -> FormulaId {
        self.arena.intern(formula)
    }

    /// Fills `cache` with the satisfaction sets of `roots` (and all their
    /// subformulas) on `model`, sharding independent roots across worker
    /// threads when profitable. Already-cached formulas are not
    /// recomputed. The resulting cache contents are identical for every
    /// thread count.
    ///
    /// When the layer is at least
    /// [`quotient_min_worlds`](Self::quotient_min_worlds) wide and the
    /// batch contains an epistemic modality, the layer is first reduced by
    /// vocabulary-aware bisimulation, the batch is evaluated on the
    /// quotient, and the sat-sets are expanded back through the class
    /// projection — bit-identical to explicit evaluation (DESIGN.md §15).
    ///
    /// # Errors
    ///
    /// Same conditions as [`S5Model::satisfying_cached`]; on error the
    /// cache retains any entries merged so far (all of them valid).
    pub fn populate(
        &self,
        model: &S5Model,
        cache: &mut EvalCache,
        roots: &[FormulaId],
    ) -> Result<(), EvalError> {
        cache.bind(model.world_count())?;
        let mut todo: Vec<FormulaId> = roots.iter().copied().filter(|&r| !cache.has(r)).collect();
        todo.sort_unstable();
        todo.dedup();
        if todo.is_empty() {
            return Ok(());
        }
        if model.world_count() >= self.quotient_min_worlds
            && self.try_populate_quotiented(model, cache, &todo)?
        {
            return Ok(());
        }
        self.populate_explicit(model, cache, &todo)
    }

    /// [`populate`](Self::populate) with the quotient stage of DESIGN.md
    /// §15 skipped unconditionally. Meant for a layer that is *already* a
    /// bisimulation quotient — re-deriving classes of a model whose worlds
    /// are themselves class representatives wastes a refinement pass to
    /// learn what the caller already knows — and for a layer whose
    /// [`QuotientGate`] holds the stage off. Threading and intra-layer
    /// sharding still apply.
    ///
    /// # Errors
    ///
    /// Same conditions as [`populate`](Self::populate).
    pub fn populate_prereduced(
        &self,
        model: &S5Model,
        cache: &mut EvalCache,
        roots: &[FormulaId],
    ) -> Result<(), EvalError> {
        cache.bind(model.world_count())?;
        let mut todo: Vec<FormulaId> = roots.iter().copied().filter(|&r| !cache.has(r)).collect();
        todo.sort_unstable();
        todo.dedup();
        if todo.is_empty() {
            return Ok(());
        }
        self.populate_explicit(model, cache, &todo)
    }

    /// The pre-quotient evaluation path: root-component sharding across
    /// worker threads, or the single-walk sequential path. Also serves as
    /// the inner evaluator *on* a quotient model.
    fn populate_explicit(
        &self,
        model: &S5Model,
        cache: &mut EvalCache,
        todo: &[FormulaId],
    ) -> Result<(), EvalError> {
        if self.threads <= 1 || todo.len() <= 1 {
            return self.populate_sequential(model, cache, todo);
        }
        let shards = self.shard(todo, cache);
        if shards.len() <= 1 {
            return self.populate_sequential(model, cache, todo);
        }
        let results: Vec<Result<EvalCache, EvalError>> = thread::scope(|scope| {
            let handles: Vec<_> = shards
                .into_iter()
                .map(|(shard_roots, mut local)| {
                    scope.spawn(move || -> Result<EvalCache, EvalError> {
                        for id in shard_roots {
                            // Component workers keep the sequential
                            // kernels: the threads are already busy, and
                            // nesting range shards would oversubscribe.
                            model.eval_into_cache(&mut local, &self.arena, id)?;
                        }
                        Ok(local)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or(Err(EvalError::Internal(
                        "parallel evaluation worker panicked",
                    )))
                })
                .collect()
        });
        for result in results {
            cache.absorb(result?);
        }
        Ok(())
    }

    /// The single-walk path. This is where intra-layer sharding engages:
    /// when the batch cannot be split *across* roots (one root, one
    /// component, or one thread configured), a wide layer still
    /// parallelizes *within* each kernel call per
    /// [`kernel_shards`](Self::kernel_shards).
    fn populate_sequential(
        &self,
        model: &S5Model,
        cache: &mut EvalCache,
        todo: &[FormulaId],
    ) -> Result<(), EvalError> {
        let ks = self.kernel_shards(model.world_count());
        for &id in todo {
            model.eval_into_cache_sharded(cache, &self.arena, id, ks)?;
        }
        Ok(())
    }

    /// Groups `todo` roots into connected components (two roots are
    /// connected when they share an *uncached* subformula — sharing only
    /// cached nodes is fine, each worker starts from the cached value —
    /// or when their uncached group modalities name the same [`AgentSet`]:
    /// group evaluation memoizes one partition join per agent set in the
    /// cache, and splitting such roots across shards would rebuild that
    /// join once per shard, easily costing more than the sharding saves),
    /// then distributes components over at most `self.threads` shards by
    /// greedy least-loaded assignment. Returns one `(roots, seeded local
    /// cache)` pair per shard; deterministic for a given input.
    fn shard(&self, todo: &[FormulaId], cache: &EvalCache) -> Vec<(Vec<FormulaId>, EvalCache)> {
        const UNOWNED: u32 = u32::MAX;
        let mut owner = vec![UNOWNED; self.arena.len()];
        // Union-find over root indices.
        let mut parent: Vec<u32> = (0..todo.len() as u32).collect();
        fn find(parent: &mut [u32], mut x: u32) -> u32 {
            while parent[x as usize] != x {
                parent[x as usize] = parent[parent[x as usize] as usize];
                x = parent[x as usize];
            }
            x
        }
        // Per-root DFS over uncached nodes: `weight` counts the nodes a
        // root must evaluate; `boundary` collects the cached nodes its
        // evaluation will read (the seeds for its shard's local cache).
        let mut weight = vec![0usize; todo.len()];
        let mut boundary: Vec<Vec<FormulaId>> = vec![Vec::new(); todo.len()];
        let mut stack: Vec<FormulaId> = Vec::new();
        let mut group_owner: HashMap<AgentSet, u32> = HashMap::new();
        for (ri, &root) in todo.iter().enumerate() {
            let ri32 = ri as u32;
            stack.push(root);
            while let Some(id) = stack.pop() {
                if cache.has(id) {
                    boundary[ri].push(id);
                    continue;
                }
                let prev = owner[id.index()];
                if prev == UNOWNED {
                    owner[id.index()] = ri32;
                    weight[ri] += 1;
                    if let InternedNode::Everyone(g, _)
                    | InternedNode::Common(g, _)
                    | InternedNode::Distributed(g, _) = self.arena.node(id)
                    {
                        let joined = *group_owner.entry(*g).or_insert(ri32);
                        if joined != ri32 {
                            let (a, b) = (find(&mut parent, ri32), find(&mut parent, joined));
                            if a != b {
                                parent[a as usize] = b;
                            }
                        }
                    }
                    self.arena.visit_children(id, &mut |c| stack.push(c));
                } else {
                    let (a, b) = (find(&mut parent, ri32), find(&mut parent, prev));
                    if a != b {
                        parent[a as usize] = b;
                    }
                }
            }
        }
        // Components in first-occurrence order.
        let mut comp_index: HashMap<u32, usize> = HashMap::new();
        let mut comps: Vec<(Vec<usize>, usize)> = Vec::new(); // (root indices, weight)
        for (ri, &w) in weight.iter().enumerate() {
            let rep = find(&mut parent, ri as u32);
            let ci = *comp_index.entry(rep).or_insert_with(|| {
                comps.push((Vec::new(), 0));
                comps.len() - 1
            });
            comps[ci].0.push(ri);
            comps[ci].1 += w;
        }
        let shard_count = self.threads.min(comps.len());
        if shard_count <= 1 {
            return Vec::new();
        }
        // Heaviest components first (stable sort keeps determinism), then
        // greedy least-loaded placement with lowest-index tie-break.
        let mut order: Vec<usize> = (0..comps.len()).collect();
        order.sort_by(|&a, &b| comps[b].1.cmp(&comps[a].1).then(a.cmp(&b)));
        let mut shards: Vec<(Vec<FormulaId>, EvalCache)> = Vec::new();
        for _ in 0..shard_count {
            let mut local = EvalCache::new();
            // Binding cannot fail on a fresh cache.
            let _ = local.bind(cache.worlds().unwrap_or(0));
            shards.push((Vec::new(), local));
        }
        let mut load = vec![0usize; shard_count];
        let mut shard_of_root = vec![usize::MAX; todo.len()];
        for ci in order {
            let mut best = 0;
            for s in 1..shard_count {
                if load[s] < load[best] {
                    best = s;
                }
            }
            load[best] += comps[ci].1;
            for &ri in &comps[ci].0 {
                shard_of_root[ri] = best;
                shards[best].0.push(todo[ri]);
                for &seed in &boundary[ri] {
                    if !shards[best].1.has(seed) {
                        if let Some(set) = cache.get(seed) {
                            let _ = shards[best].1.insert(seed, set.clone());
                        }
                    }
                }
            }
        }
        // Hand each group's memoized partitions to the one shard that
        // evaluates it (all roots naming a group share a component, so the
        // owner root's shard is that shard). This keeps pre-seeded
        // partitions — notably the quotient stage's projected
        // distributed-knowledge refinements, which are *not* recomputable
        // from the quotient model alone — authoritative under threading,
        // and spares the worker a rebuild either way.
        for (g, &ri) in &group_owner {
            let s = shard_of_root[ri as usize];
            if s == usize::MAX {
                continue;
            }
            if let Some(p) = cache.join(g) {
                shards[s].1.insert_join(*g, p.clone());
            }
            if let Some(p) = cache.refinement(g) {
                shards[s].1.insert_refinement(*g, p.clone());
            }
        }
        shards
    }

    /// Like [`populate`](Self::populate), but accepts temporal operators:
    /// `X/F/G/U` nodes are computed from their (already evaluated)
    /// children via `ops` and memoized in `cache` like any other node.
    /// Sequential — temporal fixpoints chain, so sharding does not pay.
    ///
    /// # Errors
    ///
    /// Same conditions as [`S5Model::satisfying_cached`] (minus
    /// [`EvalError::Temporal`], which this walk handles).
    pub fn populate_temporal(
        &self,
        model: &S5Model,
        cache: &mut EvalCache,
        roots: &[FormulaId],
        ops: &dyn TemporalOps,
    ) -> Result<(), EvalError> {
        cache.bind(model.world_count())?;
        let ks = self.kernel_shards(model.world_count());
        for id in self.arena.reachable(roots) {
            if cache.has(id) {
                continue;
            }
            let missing = EvalError::Internal("postorder child missing from cache");
            let set = match self.arena.node(id) {
                InternedNode::Next(f) => ops.next(cache.get(*f).ok_or(missing)?),
                InternedNode::Eventually(f) => ops.eventually(cache.get(*f).ok_or(missing)?),
                InternedNode::Always(f) => ops.always(cache.get(*f).ok_or(missing)?),
                InternedNode::Until(a, b) => ops.until(
                    cache.get(*a).ok_or(missing.clone())?,
                    cache.get(*b).ok_or(missing)?,
                ),
                _ => {
                    // Non-temporal: children are cached, so this recurses
                    // at most one level before hitting the memo; wide
                    // layers use the range-sharded kernels.
                    model.eval_into_cache_sharded(cache, &self.arena, id, ks)?;
                    continue;
                }
            };
            cache.insert(id, set)?;
        }
        Ok(())
    }

    /// [`populate`](Self::populate) followed by cloning out the root sets,
    /// in root order.
    ///
    /// # Errors
    ///
    /// Same conditions as [`populate`](Self::populate).
    pub fn satisfying_sets(
        &self,
        model: &S5Model,
        cache: &mut EvalCache,
        roots: &[FormulaId],
    ) -> Result<Vec<BitSet>, EvalError> {
        self.populate(model, cache, roots)?;
        roots
            .iter()
            .map(|&r| {
                cache
                    .get(r)
                    .cloned()
                    .ok_or(EvalError::Internal("root missing after populate"))
            })
            .collect()
    }

    /// Walks the uncached region of `todo`, collecting what the quotient
    /// stage needs: the proposition vocabulary, the cached boundary nodes
    /// (seeds that must come out class-constant), and the distributed
    /// groups (whose explicit refinements must be folded into the
    /// bisimulation — `D_G` is not bisimulation-invariant on its own).
    /// Returns `None` when the quotient cannot or should not engage: a
    /// temporal node, an out-of-range prop/agent, an empty group (the
    /// explicit path reproduces the exact legacy error), or no epistemic
    /// operator at all (nothing to win — boolean structure is linear in
    /// the worlds either way).
    fn scout(&self, model: &S5Model, cache: &EvalCache, todo: &[FormulaId]) -> Option<ScoutReport> {
        fn group_ok(model: &S5Model, g: AgentSet) -> bool {
            !g.is_empty() && g.iter().all(|a| a.index() < model.agent_count())
        }
        let mut visited = vec![false; self.arena.len()];
        let mut props: Vec<PropId> = Vec::new();
        let mut seeds: Vec<FormulaId> = Vec::new();
        let mut dgroups: Vec<AgentSet> = Vec::new();
        let mut epistemic = false;
        let mut stack: Vec<FormulaId> = todo.to_vec();
        while let Some(id) = stack.pop() {
            if visited[id.index()] {
                continue;
            }
            visited[id.index()] = true;
            if cache.has(id) {
                seeds.push(id);
                continue;
            }
            match self.arena.node(id) {
                InternedNode::Prop(p) => {
                    if p.index() >= model.prop_count() {
                        return None;
                    }
                    props.push(*p);
                }
                InternedNode::Knows(a, _) => {
                    if a.index() >= model.agent_count() {
                        return None;
                    }
                    epistemic = true;
                }
                InternedNode::Everyone(g, _) | InternedNode::Common(g, _) => {
                    if !group_ok(model, *g) {
                        return None;
                    }
                    epistemic = true;
                }
                InternedNode::Distributed(g, _) => {
                    if !group_ok(model, *g) {
                        return None;
                    }
                    epistemic = true;
                    dgroups.push(*g);
                }
                InternedNode::Next(_)
                | InternedNode::Eventually(_)
                | InternedNode::Always(_)
                | InternedNode::Until(..) => return None,
                _ => {}
            }
            self.arena.visit_children(id, &mut |c| stack.push(c));
        }
        if !epistemic {
            return None;
        }
        props.sort_unstable_by_key(|p| p.index());
        props.dedup();
        seeds.sort_unstable();
        seeds.dedup();
        dgroups.sort_unstable();
        dgroups.dedup();
        Some(ScoutReport {
            props,
            seeds,
            dgroups,
        })
    }

    /// The quotient stage of [`populate`](Self::populate). Returns
    /// `Ok(true)` when the batch was fully evaluated through the layer
    /// quotient (results already expanded into `cache`), `Ok(false)` to
    /// fall back to explicit evaluation. The quotient artifact is kept on
    /// the cache across calls and is rebuilt only when the batch demands a
    /// larger vocabulary, new seeds, or new distributed groups; rebuilds
    /// fold the previous classes in as a splitter, so the class partition
    /// only ever refines and every formula expanded earlier stays
    /// class-constant.
    fn try_populate_quotiented(
        &self,
        model: &S5Model,
        cache: &mut EvalCache,
        todo: &[FormulaId],
    ) -> Result<bool, EvalError> {
        let Some(report) = self.scout(model, cache, todo) else {
            return Ok(false);
        };
        // Two-phase: detach the artifact, run, re-attach on every exit.
        let mut lq = cache.take_quotient();
        let result = self.quotient_eval(model, cache, todo, &report, &mut lq);
        cache.set_quotient(lq);
        result
    }

    fn quotient_eval(
        &self,
        model: &S5Model,
        cache: &mut EvalCache,
        todo: &[FormulaId],
        report: &ScoutReport,
        lq: &mut Option<Box<LayerQuotient>>,
    ) -> Result<bool, EvalError> {
        let n = model.world_count();
        // A saturated artifact (no reduction) is final: rebuilds only ever
        // refine the classes, so no future vocabulary can shrink it.
        // Short-circuit instead of re-running bisimulation per batch.
        if lq.as_ref().is_some_and(|q| q.world_count() >= n) {
            return Ok(false);
        }
        let usable = lq.as_ref().is_some_and(|q| {
            report.props.iter().all(|p| {
                q.props
                    .binary_search_by_key(&p.index(), |x| x.index())
                    .is_ok()
            }) && report.seeds.iter().all(|s| q.constant.contains(s))
                && report
                    .dgroups
                    .iter()
                    .all(|g| q.qrefinements.contains_key(g))
        });
        if !usable {
            let ks = self.kernel_shards(n);
            // Distributed groups need their *explicit* refinement both as
            // an extra relation during refinement (stability, which is not
            // preserved by later refinements — so prior groups are
            // re-included on every rebuild) and projected onto the new
            // classes for evaluation.
            let mut all_groups: Vec<AgentSet> = report.dgroups.clone();
            if let Some(q) = lq.as_ref() {
                all_groups.extend(q.qrefinements.keys().copied());
            }
            all_groups.sort_unstable();
            all_groups.dedup();
            for &g in &all_groups {
                if cache.refinement(&g).is_none() {
                    let part = model.group_refinement_sharded(g, ks)?;
                    cache.insert_refinement(g, part);
                }
            }
            let mut props: Vec<PropId> = report.props.clone();
            if let Some(q) = lq.as_ref() {
                props.extend(q.props.iter().copied());
            }
            props.sort_unstable_by_key(|p| p.index());
            props.dedup();
            let mut constant: HashSet<FormulaId> =
                lq.as_ref().map(|q| q.constant.clone()).unwrap_or_default();
            constant.extend(report.seeds.iter().copied());
            let classes = {
                let seed_sets: Vec<&BitSet> =
                    report.seeds.iter().filter_map(|&s| cache.get(s)).collect();
                // The previous classes ride along as a splitter: prop and
                // seed constancy is monotone under refinement, so
                // everything expanded through the old artifact stays
                // class-constant in the new one.
                let splits: Vec<&Partition> = lq.as_ref().map(|q| &q.classes).into_iter().collect();
                let relations: Vec<&Partition> = all_groups
                    .iter()
                    .filter_map(|g| cache.refinement(g))
                    .collect();
                model.bisimilarity_within(&props, &seed_sets, &splits, &relations)?
            };
            let qn = classes.block_count();
            let mut qrefinements: HashMap<AgentSet, Partition> = HashMap::new();
            for &g in &all_groups {
                let Some(rg) = cache.refinement(&g) else {
                    return Err(EvalError::Internal("refinement missing after seeding"));
                };
                let mut uf = UnionFind::new(qn);
                for cell in rg.blocks() {
                    let first = classes.block_of(cell[0] as usize);
                    for &v in &cell[1..] {
                        uf.union(first, classes.block_of(v as usize));
                    }
                }
                qrefinements.insert(g, uf.into_partition());
            }
            let qmodel = model.quotient_model(&classes);
            *lq = Some(Box::new(LayerQuotient {
                model: qmodel,
                classes,
                props,
                qrefinements,
                constant,
            }));
        }
        let Some(q) = lq.as_mut() else {
            return Ok(false);
        };
        let qn = q.world_count();
        if qn >= n {
            // No reduction: keep the artifact (so the saturation check
            // above skips future bisimulation runs) but evaluate
            // explicitly.
            return Ok(false);
        }
        let mut qcache = EvalCache::new();
        qcache.bind(qn)?;
        for &s in &report.seeds {
            if let Some(set) = cache.get(s) {
                qcache.insert(s, q.restrict(set))?;
            }
        }
        for (g, part) in &q.qrefinements {
            // Pre-seeded refinements are authoritative (the evaluator's
            // entry-API memoization keeps occupied entries): `D_G` on the
            // quotient must use the projected explicit refinement, not a
            // refinement recomputed from the quotient's own partitions.
            qcache.insert_refinement(*g, part.clone());
        }
        self.populate_explicit(&q.model, &mut qcache, todo)?;
        let mut fresh: Vec<(FormulaId, BitSet)> = Vec::new();
        for (id, qset) in qcache.sat_entries() {
            if !cache.has(id) {
                fresh.push((id, q.expand(qset, n)));
            }
        }
        for (id, set) in fresh {
            cache.insert(id, set)?;
            q.constant.insert(id);
        }
        Ok(true)
    }
}

/// What [`EvalEngine::scout`] learned about a batch's uncached region.
struct ScoutReport {
    /// Propositions occurring uncached, sorted by index.
    props: Vec<PropId>,
    /// Cached boundary nodes the evaluation will read.
    seeds: Vec<FormulaId>,
    /// Distributed-knowledge groups occurring uncached.
    dgroups: Vec<AgentSet>,
}

/// A layer's quotient artifact: the reduced model, the class partition,
/// and everything needed to decide whether a later batch can reuse it.
/// Lives on the layer's [`EvalCache`] (never snapshot or persisted — it
/// is derived state, cheaper to rebuild than to ship).
#[derive(Debug, Clone)]
pub(crate) struct LayerQuotient {
    /// The quotient model (one world per bisimilarity class).
    model: S5Model,
    /// The class partition of the explicit worlds.
    classes: Partition,
    /// The vocabulary the classes were split by, sorted by index.
    props: Vec<PropId>,
    /// Projected distributed-knowledge refinements, by group.
    qrefinements: HashMap<AgentSet, Partition>,
    /// Formula ids known to be class-constant (initial-split seeds plus
    /// every sat-set expanded through this artifact).
    constant: HashSet<FormulaId>,
}

impl LayerQuotient {
    /// World count of the quotient model.
    pub(crate) fn world_count(&self) -> usize {
        self.model.world_count()
    }

    /// Projects a class-constant explicit-world set onto quotient worlds
    /// (bit `b` = the set's value at block `b`'s representative).
    fn restrict(&self, set: &BitSet) -> BitSet {
        let qn = self.model.world_count();
        BitSet::from_indices(
            qn,
            (0..qn).filter(|&b| set.contains(self.classes.block(b)[0] as usize)),
        )
    }

    /// Expands a quotient-world set back to explicit worlds through the
    /// class projection.
    fn expand(&self, qset: &BitSet, n: usize) -> BitSet {
        let mut out = BitSet::new(n);
        for b in qset.iter() {
            for &w in self.classes.block(b) {
                out.insert(w as usize);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::S5Builder;
    use kbp_logic::{Agent, AgentSet, PropId};

    fn p(i: u32) -> Formula {
        Formula::prop(PropId::new(i))
    }

    fn model() -> S5Model {
        let mut b = S5Builder::new(2, 3);
        let w0 = b.add_world([PropId::new(0)]);
        let w1 = b.add_world([PropId::new(0), PropId::new(1)]);
        let w2 = b.add_world([PropId::new(2)]);
        let w3 = b.add_world([]);
        b.link(Agent::new(0), w0, w1);
        b.link(Agent::new(1), w1, w2);
        b.link(Agent::new(0), w2, w3);
        b.build()
    }

    fn guards() -> Vec<Formula> {
        let g = AgentSet::all(2);
        vec![
            Formula::knows(Agent::new(0), p(0)),
            Formula::not(Formula::knows(Agent::new(0), p(0))),
            Formula::common(g, Formula::or([p(0), p(2)])),
            Formula::Distributed(g, Box::new(p(1))),
            Formula::implies(p(2), Formula::knows(Agent::new(1), p(2))),
            Formula::iff(p(0), p(1)),
        ]
    }

    #[test]
    fn parallel_fill_matches_sequential_bit_for_bit() {
        let m = model();
        let mut engine = EvalEngine::new(FormulaArena::new());
        let ids: Vec<_> = guards().iter().map(|f| engine.intern(f)).collect();

        let seq_engine = EvalEngine {
            arena: engine.arena.clone(),
            threads: 1,
            shard_min_worlds: DEFAULT_SHARD_MIN_WORLDS,
            quotient_min_worlds: DEFAULT_QUOTIENT_MIN_WORLDS,
        };
        let mut seq = EvalCache::new();
        let seq_sets = seq_engine.satisfying_sets(&m, &mut seq, &ids).unwrap();

        for threads in [2, 3, 8] {
            let par_engine = EvalEngine {
                arena: engine.arena.clone(),
                threads,
                shard_min_worlds: DEFAULT_SHARD_MIN_WORLDS,
                quotient_min_worlds: DEFAULT_QUOTIENT_MIN_WORLDS,
            };
            let mut par = EvalCache::new();
            let par_sets = par_engine.satisfying_sets(&m, &mut par, &ids).unwrap();
            assert_eq!(seq_sets, par_sets, "threads={threads}");
            // Full cache agreement, not just the roots.
            for id in par_engine.arena().ids() {
                assert_eq!(seq.get(id), par.get(id), "threads={threads} id={id:?}");
            }
        }
    }

    #[test]
    fn populate_respects_existing_cache_entries() {
        let m = model();
        let mut engine = EvalEngine::new(FormulaArena::new()).with_threads(4);
        let ids: Vec<_> = guards().iter().map(|f| engine.intern(f)).collect();
        let mut cache = EvalCache::new();
        // Pre-seed a shared subformula with a *wrong* value; populate must
        // treat it as authoritative (the carry-forward contract).
        let k = engine.intern(&Formula::knows(Agent::new(0), p(0)));
        cache.insert(k, BitSet::full(m.world_count())).unwrap();
        engine.populate(&m, &mut cache, &ids).unwrap();
        // ¬K₀p₀ was computed from the seeded set, proving the seed was
        // read rather than recomputed.
        let neg = engine.intern(&Formula::not(Formula::knows(Agent::new(0), p(0))));
        assert!(cache.get(neg).unwrap().is_empty());
    }

    #[test]
    fn worker_errors_propagate() {
        let m = model();
        let mut engine = EvalEngine::new(FormulaArena::new()).with_threads(4);
        let bad = engine.intern(&Formula::knows(Agent::new(9), p(0)));
        let ok = engine.intern(&p(0));
        let mut cache = EvalCache::new();
        assert_eq!(
            engine.populate(&m, &mut cache, &[ok, bad]),
            Err(EvalError::AgentOutOfRange(Agent::new(9)))
        );
    }

    #[test]
    fn temporal_walk_uses_ops_and_memoizes() {
        struct Const(BitSet);
        impl TemporalOps for Const {
            fn next(&self, _: &BitSet) -> BitSet {
                self.0.clone()
            }
            fn eventually(&self, phi: &BitSet) -> BitSet {
                phi.clone()
            }
            fn always(&self, phi: &BitSet) -> BitSet {
                phi.clone()
            }
            fn until(&self, _: &BitSet, target: &BitSet) -> BitSet {
                target.clone()
            }
        }
        let m = model();
        let mut engine = EvalEngine::new(FormulaArena::new());
        // ¬X p0 — the Not must read the ops-computed X node.
        let root = engine.intern(&Formula::not(Formula::next(p(0))));
        let marker = BitSet::from_indices(m.world_count(), [1usize, 3]);
        let ops = Const(marker.clone());
        let mut cache = EvalCache::new();
        engine
            .populate_temporal(&m, &mut cache, &[root], &ops)
            .unwrap();
        assert_eq!(*cache.get(root).unwrap(), marker.complemented());
    }

    #[test]
    fn roots_sharing_an_agent_set_form_one_shard_component() {
        let m = model();
        let g = AgentSet::all(2);
        let mut engine = EvalEngine::new(FormulaArena::new()).with_threads(4);
        // Three group roots over the same agent set with disjoint bodies,
        // plus one K root sharing no subformula with them: the group roots
        // must land in one component (shared join memo), so two shards form.
        let ids: Vec<_> = [
            Formula::common(g, p(0)),
            Formula::distributed(g, p(1)),
            Formula::Everyone(g, Box::new(p(2))),
            Formula::knows(Agent::new(0), Formula::True),
        ]
        .iter()
        .map(|f| engine.intern(f))
        .collect();
        let shards = engine.shard(&ids, &EvalCache::new());
        assert_eq!(shards.len(), 2, "group roots should coalesce");
        let group_shard = shards
            .iter()
            .find(|(roots, _)| roots.len() == 3)
            .expect("one shard holds all three group roots");
        for &id in &ids[..3] {
            assert!(group_shard.0.contains(&id));
        }
        // And the parallel result still matches the sequential one.
        let seq_engine = EvalEngine {
            arena: engine.arena.clone(),
            threads: 1,
            shard_min_worlds: DEFAULT_SHARD_MIN_WORLDS,
            quotient_min_worlds: DEFAULT_QUOTIENT_MIN_WORLDS,
        };
        let mut seq = EvalCache::new();
        let mut par = EvalCache::new();
        assert_eq!(
            seq_engine.satisfying_sets(&m, &mut seq, &ids).unwrap(),
            engine.satisfying_sets(&m, &mut par, &ids).unwrap()
        );
    }

    #[test]
    fn env_override_is_clamped() {
        let engine = EvalEngine::new(FormulaArena::new()).with_threads(0);
        assert_eq!(engine.threads(), 1);
    }

    #[test]
    fn thread_config_zero_is_a_typed_error() {
        assert_eq!(
            parse_thread_count(THREADS_ENV, "0"),
            Err(ThreadConfigError::Zero { var: THREADS_ENV })
        );
    }

    #[test]
    fn thread_config_garbage_is_a_typed_error() {
        for raw in ["four", "", " ", "-2", "3.5", "0x10", "1 2"] {
            assert_eq!(
                parse_thread_count(THREADS_ENV, raw),
                Err(ThreadConfigError::NotANumber {
                    var: THREADS_ENV,
                    value: raw.to_owned(),
                }),
                "raw={raw:?}"
            );
        }
    }

    #[test]
    fn thread_config_huge_is_a_typed_error() {
        let raw = format!("{}", MAX_CONFIG_THREADS + 1);
        assert_eq!(
            parse_thread_count(THREADS_ENV, &raw),
            Err(ThreadConfigError::TooLarge {
                var: THREADS_ENV,
                value: raw.clone(),
            })
        );
        // usize overflow is reported as not-a-number by the parser.
        assert!(matches!(
            parse_thread_count(THREADS_ENV, "99999999999999999999999999"),
            Err(ThreadConfigError::NotANumber { .. })
        ));
    }

    /// `model()` with every world duplicated (mirrored links), so the
    /// bisimulation quotient halves it.
    fn dup_model() -> S5Model {
        let mut b = S5Builder::new(2, 3);
        for _copy in 0..2 {
            let w0 = b.add_world([PropId::new(0)]);
            let w1 = b.add_world([PropId::new(0), PropId::new(1)]);
            let w2 = b.add_world([PropId::new(2)]);
            let w3 = b.add_world([]);
            b.link(Agent::new(0), w0, w1);
            b.link(Agent::new(1), w1, w2);
            b.link(Agent::new(0), w2, w3);
        }
        b.build()
    }

    fn engine_with(arena: FormulaArena, threads: usize, quotient_min_worlds: usize) -> EvalEngine {
        EvalEngine {
            arena,
            threads,
            shard_min_worlds: DEFAULT_SHARD_MIN_WORLDS,
            quotient_min_worlds,
        }
    }

    #[test]
    fn quotiented_fill_matches_explicit_bit_for_bit() {
        let m = dup_model();
        let mut base = EvalEngine::new(FormulaArena::new());
        let ids: Vec<_> = guards().iter().map(|f| base.intern(f)).collect();
        let explicit = engine_with(base.arena.clone(), 1, usize::MAX);
        let mut plain = EvalCache::new();
        explicit.satisfying_sets(&m, &mut plain, &ids).unwrap();
        assert_eq!(plain.quotient_worlds(), 0);
        for threads in [1, 4] {
            let quotiented = engine_with(base.arena.clone(), threads, 0);
            let mut qc = EvalCache::new();
            quotiented.satisfying_sets(&m, &mut qc, &ids).unwrap();
            assert!(
                qc.quotient_worlds() > 0 && qc.quotient_worlds() < m.world_count(),
                "quotient should engage and reduce (got {})",
                qc.quotient_worlds()
            );
            for id in quotiented.arena().ids() {
                assert_eq!(plain.get(id), qc.get(id), "threads={threads} id={id:?}");
            }
        }
    }

    #[test]
    fn quotient_artifact_reused_across_incremental_populates() {
        // The kbp-systems driver populates one node at a time; the
        // artifact must be reused (and refined, never coarsened) across
        // those calls, and the final cache must match one big batch.
        let m = dup_model();
        let mut base = EvalEngine::new(FormulaArena::new());
        let ids: Vec<_> = guards().iter().map(|f| base.intern(f)).collect();
        let engine = engine_with(base.arena.clone(), 1, 0);
        let mut batch = EvalCache::new();
        engine.populate(&m, &mut batch, &ids).unwrap();
        let mut incr = EvalCache::new();
        for &id in &ids {
            engine.populate(&m, &mut incr, &[id]).unwrap();
        }
        for id in engine.arena().ids() {
            assert_eq!(batch.get(id), incr.get(id), "id={id:?}");
        }
    }

    #[test]
    fn externally_inserted_seeds_force_quotient_refinement() {
        // A cached set that is *not* constant on the vocabulary quotient
        // (the shape of temporal boundary sets and announcement updates)
        // must be folded into the initial split, not collapsed away.
        let m = dup_model();
        let mut base = EvalEngine::new(FormulaArena::new());
        let p1 = base.intern(&p(1));
        let root = base.intern(&Formula::knows(Agent::new(0), p(1)));
        // Bit 0 set but its duplicate (bit 4) clear: class-breaking.
        let weird = BitSet::from_indices(m.world_count(), [0usize, 5]);
        let quotiented = engine_with(base.arena.clone(), 1, 0);
        let mut qc = EvalCache::new();
        qc.insert(p1, weird.clone()).unwrap();
        quotiented.populate(&m, &mut qc, &[root]).unwrap();
        let explicit = engine_with(base.arena.clone(), 1, usize::MAX);
        let mut plain = EvalCache::new();
        plain.insert(p1, weird).unwrap();
        explicit.populate(&m, &mut plain, &[root]).unwrap();
        assert_eq!(plain.get(root), qc.get(root));
    }

    #[test]
    fn boolean_only_batches_skip_the_quotient() {
        let m = dup_model();
        let mut base = EvalEngine::new(FormulaArena::new());
        let root = base.intern(&Formula::or([p(0), p(1)]));
        let engine = engine_with(base.arena.clone(), 1, 0);
        let mut cache = EvalCache::new();
        engine.populate(&m, &mut cache, &[root]).unwrap();
        assert_eq!(cache.quotient_worlds(), 0, "no epistemic node, no quotient");
        assert!(cache.get(root).is_some());
    }

    #[test]
    fn quotient_path_preserves_legacy_errors() {
        let m = dup_model();
        let mut base = EvalEngine::new(FormulaArena::new());
        let temporal = base.intern(&Formula::next(p(0)));
        let bad_agent = base.intern(&Formula::knows(Agent::new(9), p(0)));
        let engine = engine_with(base.arena.clone(), 1, 0);
        let mut cache = EvalCache::new();
        assert_eq!(
            engine.populate(&m, &mut cache, &[temporal]),
            Err(EvalError::Temporal)
        );
        let mut cache = EvalCache::new();
        assert_eq!(
            engine.populate(&m, &mut cache, &[bad_agent]),
            Err(EvalError::AgentOutOfRange(Agent::new(9)))
        );
    }

    #[test]
    fn saturated_quotient_falls_back_to_explicit() {
        // model() has no bisimilar worlds: the quotient is discrete, the
        // artifact saturates, and evaluation falls through unchanged.
        let m = model();
        let mut base = EvalEngine::new(FormulaArena::new());
        let ids: Vec<_> = guards().iter().map(|f| base.intern(f)).collect();
        let engine = engine_with(base.arena.clone(), 1, 0);
        let mut cache = EvalCache::new();
        engine.satisfying_sets(&m, &mut cache, &ids).unwrap();
        assert_eq!(cache.quotient_worlds(), m.world_count());
        let explicit = engine_with(base.arena.clone(), 1, usize::MAX);
        let mut plain = EvalCache::new();
        explicit.satisfying_sets(&m, &mut plain, &ids).unwrap();
        for id in engine.arena().ids() {
            assert_eq!(plain.get(id), cache.get(id));
        }
    }

    #[test]
    fn quotient_env_gate_parses_like_the_shard_gate() {
        // 0 is valid (force), huge is valid (disable), garbage is typed.
        assert_eq!(
            "0".trim().parse::<usize>().ok(),
            Some(0),
            "sanity: the gate accepts zero"
        );
        let engine = EvalEngine::new(FormulaArena::new()).with_quotient_min_worlds(0);
        assert_eq!(engine.quotient_min_worlds(), 0);
        let engine = engine.with_quotient_min_worlds(usize::MAX);
        assert_eq!(engine.quotient_min_worlds(), usize::MAX);
    }

    #[test]
    fn quotient_gate_declines_below_the_ratio_and_backs_off() {
        let mut gate = QuotientGate::new(100);
        assert!(!gate.admits(99));
        assert!(gate.admits(100));
        // Exactly half compresses enough; one class more declines.
        assert!(!gate.judge(100, 50));
        assert!(gate.judge(100, 51));
        assert_eq!(gate.declined_at(), Some(100));
        assert!(!gate.admits(199));
        assert!(gate.admits(200));
        // A compressing retry lifts the decline.
        assert!(!gate.judge(200, 10));
        assert!(gate.admits(100));
        gate.decline(usize::MAX / 2 + 1);
        assert!(!gate.admits(usize::MAX - 1), "no overflow in the back-off");

        // Forced never declines; disabled never admits.
        let mut forced = QuotientGate::new(0);
        assert!(!forced.judge(10, 10));
        forced.decline(10);
        assert_eq!(forced.declined_at(), None);
        assert!(forced.admits(0) && forced.admits(11));
        assert!(!QuotientGate::new(usize::MAX).admits(1 << 40));
    }

    #[test]
    fn thread_config_accepts_sane_values() {
        assert_eq!(parse_thread_count(THREADS_ENV, "1"), Ok(1));
        assert_eq!(parse_thread_count(THREADS_ENV, " 8 "), Ok(8));
        assert_eq!(
            parse_thread_count(THREADS_ENV, &format!("{MAX_CONFIG_THREADS}")),
            Ok(MAX_CONFIG_THREADS)
        );
    }
}
