//! The EP / EP_ECS schedule search algorithm (Sec. 5), incremental
//! path-state edition.
//!
//! The algorithm grows a rooted tree of markings. For a tree node `v` it
//! looks for an *entering point*: an ancestor of `v` whose marking can be
//! reached again no matter how the data-dependent choices (ECSs with more
//! than one transition) are resolved. If the entering point of the child of
//! the root is the root itself, the retained part of the tree — closed by
//! merging each leaf with the equal-marking ancestor it points back to —
//! is a schedule.
//!
//! # Incremental path state
//!
//! The search is a depth-first traversal, so all per-node context — the
//! ancestor markings consulted by the irrelevance criterion, the on-path
//! firing counts consulted by the T-invariant heuristic, the equal-marking
//! ancestor lookup that closes cycles — lives on *one* root-to-node path
//! at a time. Instead of re-deriving that context by walking the parent
//! chain at every node (`O(depth × places)` per node, superlinear in tree
//! depth overall), the engine maintains a [`PathTracker`] that is updated
//! in `O(changed places)` on a typical descent and backtrack (see the
//! [`PathTracker`] docs for the worst case):
//!
//! * one scratch [`Marking`] mutated in place via
//!   [`PetriNet::fire_into`]/[`PetriNet::unfire_into`] — the search never
//!   clones markings on the main path (schedule markings are rebuilt by
//!   replaying the retained tree at the end),
//! * cumulative per-transition firing counts (a slice read instead of an
//!   `O(depth + |T|)` chain walk per heuristic evaluation),
//! * an incrementally-maintained marking hash plus hash index over on-path
//!   ancestors, making the equal-marking-ancestor query a probe plus exact
//!   verification instead of a full chain scan,
//! * per-place token-count histories with box-violation counters that
//!   evaluate Definition 4.5 ("some ancestor is covered and was saturated
//!   everywhere it grew") by bookkeeping only the places a firing touched.
//!
//! Ancestor tests (`is_ancestor`) degenerate to depth comparisons because
//! every candidate entering point is on the current path. The original
//! recompute-from-scratch implementation is retained unchanged in
//! [`crate::reference`] as the differential-testing oracle; the two
//! engines produce identical trees, schedules and statistics.

use crate::budget::{BudgetChecker, BudgetStop, SearchBudget};
use crate::error::{Result, ScheduleError};
use crate::heuristics::EcsSorter;
use crate::independence::{channel_bounds, is_independent_set};
use crate::schedule::{NodeId, Schedule};
use crate::termination::{PathTracker, TerminationKind};
use qss_flowc::LinkedSystem;
use qss_petri::{
    EcsId, EcsInfo, Marking, MarkingId, MarkingStore, PetriNet, PlaceId, StructuralReport,
    TransitionId, TransitionKind,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Stack size for threads that run the EP search.
///
/// The search recurses once per on-path node, so its stack depth is the
/// current path length — on a pathological net (a divider chain, where
/// one schedule needs `k^depth` source firings) that is tens of
/// thousands of frames before a deadline budget trips, far past the
/// 2 MiB Rust gives a spawned thread by default. Threads created with
/// this size only *reserve* the address space; pages are committed as
/// the search actually deepens. The parallel system scheduler uses it
/// for its fan-out threads, and `qssd` uses it for its worker threads.
pub const SEARCH_THREAD_STACK_BYTES: usize = 64 * 1024 * 1024;

/// Options controlling the schedule search.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScheduleOptions {
    /// Pruning criterion (irrelevant markings by default).
    pub termination: TerminationKind,
    /// Safety cap on the number of tree nodes created by one search.
    pub max_nodes: usize,
    /// Generate only single-source schedules (required for the
    /// independence guarantee of Proposition 4.3). Enabled by default.
    pub single_source: bool,
    /// Sort ECSs using the T-invariant promising vector (Sec. 5.5.2).
    pub use_invariant_heuristic: bool,
    /// Explore source-transition ECSs last ("fire a source transition only
    /// when the system cannot fire anything else").
    pub source_last: bool,
    /// Prefer ECSs with a single transition over data-dependent choices.
    pub prefer_singleton_ecs: bool,
    /// Stop exploring alternative ECSs at a node as soon as one of them has
    /// a defined entering point, instead of searching all of them for the
    /// entering point closest to the root. Combined with the source-last
    /// ordering this keeps reactions maximal (the schedule only waits for
    /// the environment when nothing else can run) and keeps channel bounds
    /// tight. If the greedy pass fails, the search automatically retries
    /// exhaustively.
    pub greedy_entering_point: bool,
}

impl Default for ScheduleOptions {
    fn default() -> Self {
        ScheduleOptions {
            termination: TerminationKind::Irrelevance,
            max_nodes: 200_000,
            single_source: true,
            use_invariant_heuristic: true,
            source_last: true,
            prefer_singleton_ecs: true,
            greedy_entering_point: true,
        }
    }
}

impl ScheduleOptions {
    /// Options using a uniform pre-defined place bound instead of the
    /// irrelevance criterion (the comparison baseline of Sec. 4.4).
    pub fn with_place_bounds(default: u32) -> Self {
        ScheduleOptions {
            termination: TerminationKind::PlaceBounds { default },
            ..Default::default()
        }
    }

    /// Disables all search-ordering heuristics (used by the ablation
    /// benchmarks).
    pub fn without_heuristics(mut self) -> Self {
        self.use_invariant_heuristic = false;
        self.source_last = false;
        self.prefer_singleton_ecs = false;
        self.greedy_entering_point = false;
        self
    }
}

/// Statistics about one schedule search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SearchStats {
    /// Number of tree nodes created during the search.
    pub nodes_created: usize,
    /// Number of nodes in the resulting schedule.
    pub schedule_nodes: usize,
    /// Number of edges in the resulting schedule.
    pub schedule_edges: usize,
}

/// A cost breakdown of one or more schedule searches.
///
/// Where [`SearchStats`] describes the *result* (tree and schedule
/// sizes), the profile describes the *work*: how many nodes the search
/// expanded, where it pruned, how often it swept for enabled ECSs, and
/// how the wall clock split across the phases
/// (context build / greedy pass / exhaustive retry). Profiles of
/// separate searches aggregate with [`SearchProfile::absorb`]; the
/// system-level entry points return one profile spanning every source.
///
/// Collecting the profile costs a handful of plain (non-atomic) integer
/// increments on the search's own stack frame — it is always on, and the
/// `obs/overhead` benchmark cases pin the cost at noise level. What is
/// *opt-in* is shipping it: artifacts serialize the profile only when
/// `PipelineConfig` asks for it, so default wire bytes are unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SearchProfile {
    /// Per-source searches aggregated into this profile.
    pub searches: u64,
    /// Tree nodes expanded (one cooperative-budget step each).
    pub nodes_expanded: u64,
    /// Candidate ECS explorations abandoned because a child had no
    /// acceptable entering point.
    pub backtracks: u64,
    /// Equal-marking-ancestor hash probes.
    pub equal_ancestor_probes: u64,
    /// Probes that found an equal-marking ancestor (an entering point).
    pub equal_ancestor_hits: u64,
    /// Nodes cut by the termination criterion (irrelevance or place
    /// bounds).
    pub irrelevance_cuts: u64,
    /// Candidate-ECS enabledness sweeps.
    pub ecs_sweeps_scalar: u64,
    /// Always 0: the search has one enabledness engine and counts every
    /// sweep in `ecs_sweeps_scalar`. Kept so the serialized field set and
    /// the benchmark ledger, which reads the sum of both, stay unchanged
    /// until the ledger's next change.
    pub ecs_sweeps_chunked: u64,
    /// Cooperative budget checks charged (0 under an unlimited budget).
    pub budget_checks: u64,
    /// Exhaustive retries after a failed greedy pass.
    pub exhaustive_retries: u64,
    /// Wall time spent building the [`SearchContext`] (0 when the
    /// context was reused — cache hits skip the build).
    pub context_build_micros: u64,
    /// Wall time of greedy entering-point passes.
    pub greedy_micros: u64,
    /// Wall time of exhaustive (minimum-entering-point) passes.
    pub exhaustive_micros: u64,
}

impl SearchProfile {
    /// Adds `other`'s counts and times into `self` (field-wise sum).
    pub fn absorb(&mut self, other: &SearchProfile) {
        self.searches += other.searches;
        self.nodes_expanded += other.nodes_expanded;
        self.backtracks += other.backtracks;
        self.equal_ancestor_probes += other.equal_ancestor_probes;
        self.equal_ancestor_hits += other.equal_ancestor_hits;
        self.irrelevance_cuts += other.irrelevance_cuts;
        self.ecs_sweeps_scalar += other.ecs_sweeps_scalar;
        self.ecs_sweeps_chunked += other.ecs_sweeps_chunked;
        self.budget_checks += other.budget_checks;
        self.exhaustive_retries += other.exhaustive_retries;
        self.context_build_micros += other.context_build_micros;
        self.greedy_micros += other.greedy_micros;
        self.exhaustive_micros += other.exhaustive_micros;
    }

    /// The profile as `(label, value)` rows in a fixed order — the
    /// vocabulary shared by `qssc build --search-profile` and the
    /// `metrics` snapshot.
    pub fn rows(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("searches", self.searches),
            ("nodes_expanded", self.nodes_expanded),
            ("backtracks", self.backtracks),
            ("equal_ancestor_probes", self.equal_ancestor_probes),
            ("equal_ancestor_hits", self.equal_ancestor_hits),
            ("irrelevance_cuts", self.irrelevance_cuts),
            (
                "ecs_sweeps",
                self.ecs_sweeps_scalar + self.ecs_sweeps_chunked,
            ),
            ("budget_checks", self.budget_checks),
            ("exhaustive_retries", self.exhaustive_retries),
            ("context_build_micros", self.context_build_micros),
            ("greedy_micros", self.greedy_micros),
            ("exhaustive_micros", self.exhaustive_micros),
        ]
    }
}

/// Finds a single-source schedule for the uncontrollable source transition
/// `source` of `net`.
///
/// # Errors
/// * [`ScheduleError::NotUncontrollableSource`] if `source` has the wrong
///   kind,
/// * [`ScheduleError::NoTInvariants`] if the net has no T-invariants (no
///   cyclic schedule can exist),
/// * [`ScheduleError::NoSchedule`] if the bounded search space contains no
///   schedule,
/// * [`ScheduleError::SearchBudgetExhausted`] if the safety node budget ran
///   out first.
pub fn find_schedule(
    net: &PetriNet,
    source: TransitionId,
    options: &ScheduleOptions,
) -> Result<Schedule> {
    find_schedule_with_stats(net, source, options).map(|(s, _)| s)
}

/// Like [`find_schedule`] but also returns search statistics.
pub fn find_schedule_with_stats(
    net: &PetriNet,
    source: TransitionId,
    options: &ScheduleOptions,
) -> Result<(Schedule, SearchStats)> {
    SearchContext::new(net).find_schedule_with_stats(net, source, options)
}

/// Reusable per-net scheduling context.
///
/// The ECS partition and the non-negative T-invariant basis depend only on
/// the net structure. The Farkas elimination behind the basis touches only
/// the rows each pivot changes, so the basis is cheap on wide nets too
/// (about half a millisecond for a 600-place, 200-process service net),
/// and building the context is no longer the dominant cold-start cost of
/// a compile. Build the context once and every
/// [`SearchContext::find_schedule`] call — across sources, option
/// profiles and the greedy→exhaustive retry — shares the precomputed
/// analyses. [`schedule_system`] does this for all the sources of a
/// linked system, and the `qss` facade's `ScheduleArtifact` carries the
/// context forward so repeated scheduling requests against the same net
/// skip the analyses entirely.
///
/// The context is an owned value (no borrow of the net): the net is
/// passed to each call instead, and — like [`Marking`] — the caller is
/// responsible for only combining a context with the net it was computed
/// from. All fields are immutable after construction, so one context can
/// be shared by reference across threads ([`schedule_system_parallel`]).
#[derive(Debug, Clone)]
pub struct SearchContext {
    ecs: EcsInfo,
    sorter: EcsSorter,
    /// Per-net marking store seeded with the initial marking; every search
    /// clones it so the path tracker's interning starts from the shared
    /// base instead of re-hashing the initial marking per call.
    base_store: MarkingStore,
    /// Facts adopted from a structural pre-pass ([`SearchContext::with_structural`]);
    /// `None` for contexts built with [`SearchContext::new`], which keeps
    /// the analysis-off search byte-identical to the pre-analyzer engine.
    structural: Option<StructuralGate>,
    /// Wall time the per-net analyses took, reported as the
    /// `context_build_micros` phase of a [`SearchProfile`].
    build_micros: u64,
}

/// The slice of a [`StructuralReport`] the search engine consumes.
#[derive(Debug, Clone)]
struct StructuralGate {
    /// First place proven unbounded under internal transitions alone;
    /// its presence fast-rejects every search on this net.
    unbounded: Option<PlaceId>,
    /// Per-transition "provably dead" flags; a search for a dead source
    /// is fast-rejected.
    dead: Vec<bool>,
    /// The maximum proven place bound, present only when every place has
    /// one (see [`StructuralReport::max_marking_bound`]).
    max_marking_bound: Option<u32>,
}

impl SearchContext {
    /// Computes the per-net analyses (ECS partition, T-invariant basis)
    /// and seeds the per-net marking store.
    pub fn new(net: &PetriNet) -> Self {
        let build_start = std::time::Instant::now();
        let mut base_store = MarkingStore::with_stride(net.num_places());
        let _ = base_store.intern(net.initial_marking().as_slice());
        let ecs = EcsInfo::compute(net);
        let sorter = EcsSorter::new(net);
        SearchContext {
            ecs,
            sorter,
            base_store,
            structural: None,
            build_micros: build_start.elapsed().as_micros() as u64,
        }
    }

    /// Like [`SearchContext::new`], but additionally adopts the proofs of
    /// a structural pre-pass over the same net:
    ///
    /// * nets with a provably (internally) unbounded place or a provably
    ///   dead source transition are rejected with a typed error
    ///   *before* any search runs
    ///   ([`ScheduleError::StructurallyUnbounded`] /
    ///   [`ScheduleError::StructurallyDead`]),
    /// * proven place bounds pre-arm
    ///   [`TerminationKind::PlaceBounds`] via
    ///   [`SearchContext::pre_armed_place_bounds`], and the per-net
    ///   maximum bound is recorded
    ///   ([`SearchContext::structural_max_bound`]).
    ///
    /// `report` must come from the net this context is built for.
    pub fn with_structural(net: &PetriNet, report: &StructuralReport) -> Self {
        let build_start = std::time::Instant::now();
        let mut context = SearchContext::new(net);
        let mut dead = vec![false; net.num_transitions()];
        for t in &report.dead_transitions {
            dead[t.index()] = true;
        }
        context.structural = Some(StructuralGate {
            unbounded: report.unbounded_places().first().copied(),
            dead,
            max_marking_bound: report.max_marking_bound,
        });
        context.build_micros = build_start.elapsed().as_micros() as u64;
        context
    }

    /// Wall time the per-net analyses behind this context took to build.
    pub fn build_micros(&self) -> u64 {
        self.build_micros
    }

    /// The maximum proven structural place bound, if the adopted report
    /// proved one for *every* place. `None` for contexts without a
    /// structural report.
    pub fn structural_max_bound(&self) -> Option<u32> {
        self.structural.as_ref().and_then(|g| g.max_marking_bound)
    }

    /// Schedule options pre-armed with the proven place bounds: when the
    /// adopted report bounds every place, returns
    /// [`ScheduleOptions::with_place_bounds`] seeded with the proven
    /// maximum (no reachable marking violates it, so the bound check can
    /// replace the irrelevance machinery without losing any schedule the
    /// bounds admit). `None` when no full cover was proven.
    pub fn pre_armed_place_bounds(&self) -> Option<ScheduleOptions> {
        self.structural_max_bound()
            .map(ScheduleOptions::with_place_bounds)
    }

    /// The ECS partition of the net.
    pub fn ecs(&self) -> &EcsInfo {
        &self.ecs
    }

    /// The per-net marking store the searches start from (holds the
    /// interned initial marking).
    pub fn base_store(&self) -> &MarkingStore {
        &self.base_store
    }

    /// Finds a single-source schedule for `source` using the precomputed
    /// analyses. `net` must be the net this context was built from.
    ///
    /// # Errors
    /// Same contract as the free function [`find_schedule`].
    pub fn find_schedule(
        &self,
        net: &PetriNet,
        source: TransitionId,
        options: &ScheduleOptions,
    ) -> Result<Schedule> {
        self.find_schedule_with_stats(net, source, options)
            .map(|(s, _)| s)
    }

    /// Like [`SearchContext::find_schedule`] but also returns search
    /// statistics.
    ///
    /// # Errors
    /// Same contract as the free function [`find_schedule_with_stats`].
    pub fn find_schedule_with_stats(
        &self,
        net: &PetriNet,
        source: TransitionId,
        options: &ScheduleOptions,
    ) -> Result<(Schedule, SearchStats)> {
        self.find_schedule_with_stats_budgeted(net, source, options, &SearchBudget::unlimited())
    }

    /// Like [`SearchContext::find_schedule_with_stats`], but under a
    /// cooperative [`SearchBudget`]: the search charges one budget step
    /// per tree-node expansion and stops with
    /// [`ScheduleError::BudgetExhausted`] when the step cap runs out,
    /// the deadline passes, or the budget's cancellation flag is raised.
    /// One budget state spans the whole call, including the automatic
    /// greedy→exhaustive retry, so the retry cannot reset the allowance.
    /// An [unlimited](SearchBudget::is_unlimited) budget adds no
    /// observable work: results are identical to the unbudgeted call.
    ///
    /// # Errors
    /// The contract of [`find_schedule_with_stats`] plus
    /// [`ScheduleError::BudgetExhausted`].
    pub fn find_schedule_with_stats_budgeted(
        &self,
        net: &PetriNet,
        source: TransitionId,
        options: &ScheduleOptions,
        budget: &SearchBudget,
    ) -> Result<(Schedule, SearchStats)> {
        let mut profile = SearchProfile::default();
        self.find_schedule_profiled(net, source, options, budget, &mut profile)
    }

    /// Like [`SearchContext::find_schedule_with_stats_budgeted`], but
    /// additionally aggregates a [`SearchProfile`] of the work done into
    /// `profile` (the profile is absorbed, not overwritten, so one
    /// profile can span several calls). The search itself is identical —
    /// profiling changes which numbers are *kept*, never which tree is
    /// explored. `context_build_micros` is not charged here; system-level
    /// callers attribute the (shared, possibly cached) context build
    /// once via [`SearchContext::build_micros`].
    ///
    /// # Errors
    /// Same contract as [`find_schedule_with_stats_budgeted`](Self::find_schedule_with_stats_budgeted).
    pub fn find_schedule_profiled(
        &self,
        net: &PetriNet,
        source: TransitionId,
        options: &ScheduleOptions,
        budget: &SearchBudget,
        profile: &mut SearchProfile,
    ) -> Result<(Schedule, SearchStats)> {
        profile.searches += 1;
        if net.transition(source).kind != TransitionKind::UncontrollableSource {
            return Err(ScheduleError::NotUncontrollableSource(source));
        }
        // Structural fast-reject: proofs adopted via `with_structural`
        // make the search fail in O(1) instead of burning its budget on a
        // net that cannot have a schedule. Contexts without a report skip
        // this entirely (analysis-off behavior is byte-identical).
        if let Some(gate) = &self.structural {
            if let Some(p) = gate.unbounded {
                return Err(ScheduleError::StructurallyUnbounded(p));
            }
            if gate.dead[source.index()] {
                return Err(ScheduleError::StructurallyDead(source));
            }
        }
        if self.sorter.has_no_invariants() && net.num_transitions() > 0 {
            return Err(ScheduleError::NoTInvariants);
        }
        // One checker for the whole call: the greedy→exhaustive retry
        // below continues charging the same allowance.
        let mut checker = budget.checker();
        let run_once = |opts: &ScheduleOptions,
                        checker: &mut Option<BudgetChecker>,
                        profile: &mut SearchProfile| {
            let phase_start = std::time::Instant::now();
            let mut search = Search {
                net,
                ecs: &self.ecs,
                tracker: PathTracker::with_store(net, opts.termination, self.base_store.clone()),
                options: opts,
                source,
                sorter: &self.sorter,
                nodes: Vec::new(),
                budget_exhausted: false,
                budget: checker.as_mut(),
                budget_stop: None,
                combo_buf: Vec::new(),
                promising_buf: Vec::new(),
                ecs_pool: Vec::new(),
                profile: SearchProfile::default(),
            };
            let result = search.run();
            profile.absorb(&search.profile);
            let phase_micros = phase_start.elapsed().as_micros() as u64;
            if opts.greedy_entering_point {
                profile.greedy_micros += phase_micros;
            } else {
                profile.exhaustive_micros += phase_micros;
            }
            result
        };
        match run_once(options, &mut checker, profile) {
            Ok(result) => Ok(result),
            Err(first_error)
                if options.greedy_entering_point
                    && !matches!(first_error, ScheduleError::BudgetExhausted { .. }) =>
            {
                // The greedy pass is incomplete; fall back to the
                // exhaustive minimum-entering-point search of the paper
                // before giving up. (A budget-exhausted greedy pass skips
                // the retry — the allowance is spent; and if the budget
                // runs out mid-retry, the budget error wins below.)
                let exhaustive = ScheduleOptions {
                    greedy_entering_point: false,
                    ..options.clone()
                };
                profile.exhaustive_retries += 1;
                run_once(&exhaustive, &mut checker, profile).map_err(|retry_error| {
                    if matches!(retry_error, ScheduleError::BudgetExhausted { .. }) {
                        retry_error
                    } else {
                        first_error
                    }
                })
            }
            Err(e) => Err(e),
        }
    }
}

/// The schedules of a whole linked system: one per uncontrollable input.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SystemSchedules {
    /// One schedule per uncontrollable source transition, in the order the
    /// environment inputs appear in the linked system.
    pub schedules: Vec<Schedule>,
    /// Static bound on every place involved in some schedule — for channel
    /// places this is the buffer size needed by the implementation.
    pub channel_bounds: BTreeMap<PlaceId, u32>,
    /// Per-schedule search statistics.
    pub stats: Vec<SearchStats>,
}

impl SystemSchedules {
    /// The schedule serving the given source transition, if any.
    pub fn schedule_for(&self, source: TransitionId) -> Option<&Schedule> {
        self.schedules.iter().find(|s| s.source() == source)
    }

    /// The buffer bound computed for `place` (0 if the place is involved in
    /// no schedule).
    pub fn bound(&self, place: PlaceId) -> u32 {
        self.channel_bounds.get(&place).copied().unwrap_or(0)
    }
}

/// Computes one schedule per uncontrollable input port of a linked system
/// and verifies that the resulting set is independent (Proposition 4.3
/// guarantees this for nets generated from FlowC, but the check is cheap
/// and validates the construction).
///
/// # Errors
/// Propagates [`find_schedule`] errors, and returns
/// [`ScheduleError::NotIndependent`] if two schedules interfere.
pub fn schedule_system(
    system: &LinkedSystem,
    options: &ScheduleOptions,
) -> Result<SystemSchedules> {
    // One context serves every source: the ECS partition and T-invariant
    // basis are per-net, not per-source.
    let context = SearchContext::new(&system.net);
    schedule_system_with_context_budgeted(system, &context, options, &SearchBudget::unlimited())
}

/// Like [`schedule_system`], but reuses a prebuilt [`SearchContext`]
/// (which must have been computed from `system.net`), and every
/// per-source search runs under the given cooperative [`SearchBudget`].
/// The deadline (an absolute instant) bounds the *combined* wall clock of
/// all sources; the step cap is charged per source.
///
/// # Errors
/// The contract of [`schedule_system`] plus
/// [`ScheduleError::BudgetExhausted`].
pub fn schedule_system_with_context_budgeted(
    system: &LinkedSystem,
    context: &SearchContext,
    options: &ScheduleOptions,
    budget: &SearchBudget,
) -> Result<SystemSchedules> {
    schedule_system_profiled(system, context, options, budget).map(|(schedules, _)| schedules)
}

/// Like [`schedule_system_with_context_budgeted`], but also returns the
/// aggregated [`SearchProfile`] of every per-source search (including the
/// context build time of `context`).
///
/// # Errors
/// Same contract as [`schedule_system_with_context_budgeted`].
pub fn schedule_system_profiled(
    system: &LinkedSystem,
    context: &SearchContext,
    options: &ScheduleOptions,
    budget: &SearchBudget,
) -> Result<(SystemSchedules, SearchProfile)> {
    let mut profile = SearchProfile {
        context_build_micros: context.build_micros(),
        ..SearchProfile::default()
    };
    let sources = system.uncontrollable_sources();
    let mut schedules = Vec::new();
    let mut stats = Vec::new();
    for source in sources {
        let (s, st) =
            context.find_schedule_profiled(&system.net, source, options, budget, &mut profile)?;
        schedules.push(s);
        stats.push(st);
    }
    Ok((seal_system_schedules(system, schedules, stats)?, profile))
}

/// Computes one schedule per uncontrollable input like [`schedule_system`],
/// but fans the per-source searches out across threads
/// (`std::thread::scope`), sharing one read-only [`SearchContext`].
///
/// The searches of different sources are completely independent — they
/// only read the net and the per-net analyses — so the result is
/// deterministic and identical to the sequential path: schedules are
/// collected in source order and, when several sources fail, the error of
/// the earliest source is reported, exactly as the sequential loop would.
///
/// # Errors
/// Same contract as [`schedule_system`].
pub fn schedule_system_parallel(
    system: &LinkedSystem,
    options: &ScheduleOptions,
) -> Result<SystemSchedules> {
    let context = SearchContext::new(&system.net);
    schedule_system_parallel_with_context_budgeted(
        system,
        &context,
        options,
        &SearchBudget::unlimited(),
    )
}

/// Like [`schedule_system_parallel`], but reuses a prebuilt
/// [`SearchContext`] (which must have been computed from `system.net`),
/// and every per-source search runs under the given cooperative
/// [`SearchBudget`] (see
/// [`schedule_system_with_context_budgeted`] for the deadline/step-cap
/// semantics; the absolute deadline naturally spans the fanned-out
/// searches too).
///
/// # Errors
/// The contract of [`schedule_system`] plus
/// [`ScheduleError::BudgetExhausted`].
pub fn schedule_system_parallel_with_context_budgeted(
    system: &LinkedSystem,
    context: &SearchContext,
    options: &ScheduleOptions,
    budget: &SearchBudget,
) -> Result<SystemSchedules> {
    schedule_system_parallel_profiled(system, context, options, budget)
        .map(|(schedules, _)| schedules)
}

/// Like [`schedule_system_parallel_with_context_budgeted`], but also
/// returns the aggregated [`SearchProfile`] across every per-source
/// search thread (profiles are merged in source order, so the result is
/// deterministic and identical to the sequential path's).
///
/// # Errors
/// Same contract as [`schedule_system_parallel_with_context_budgeted`].
pub fn schedule_system_parallel_profiled(
    system: &LinkedSystem,
    context: &SearchContext,
    options: &ScheduleOptions,
    budget: &SearchBudget,
) -> Result<(SystemSchedules, SearchProfile)> {
    let sources = system.uncontrollable_sources();
    if sources.len() <= 1 {
        return schedule_system_profiled(system, context, options, budget);
    }
    let net = &system.net;
    type SourceOutcome = Result<(Schedule, SearchStats)>;
    let mut results: Vec<Option<(SourceOutcome, SearchProfile)>> = Vec::new();
    results.resize_with(sources.len(), || None);
    std::thread::scope(|scope| {
        for (slot, &source) in results.iter_mut().zip(&sources) {
            std::thread::Builder::new()
                .stack_size(SEARCH_THREAD_STACK_BYTES)
                .spawn_scoped(scope, move || {
                    let mut profile = SearchProfile::default();
                    let outcome =
                        context.find_schedule_profiled(net, source, options, budget, &mut profile);
                    *slot = Some((outcome, profile));
                })
                .expect("spawn a scheduling thread");
        }
    });
    let mut profile = SearchProfile {
        context_build_micros: context.build_micros(),
        ..SearchProfile::default()
    };
    let mut schedules = Vec::new();
    let mut stats = Vec::new();
    for result in results {
        let (outcome, source_profile) = result.expect("every scheduling thread fills its slot");
        // Absorb the work counters before propagating errors: the profile
        // of the earliest failing source is still meaningful, but the
        // error contract must match the sequential loop, which stops at
        // the first failure.
        profile.absorb(&source_profile);
        let (s, st) = outcome?;
        schedules.push(s);
        stats.push(st);
    }
    Ok((seal_system_schedules(system, schedules, stats)?, profile))
}

/// Shared tail of the system schedulers: the independence check and the
/// channel-bound computation.
fn seal_system_schedules(
    system: &LinkedSystem,
    schedules: Vec<Schedule>,
    stats: Vec<SearchStats>,
) -> Result<SystemSchedules> {
    if let Err((a, b)) = is_independent_set(&schedules, &system.net) {
        return Err(ScheduleError::NotIndependent {
            first: a,
            second: b,
        });
    }
    let channel_bounds = channel_bounds(&schedules, &system.net);
    Ok(SystemSchedules {
        schedules,
        channel_bounds,
        stats,
    })
}

/// One node of the search tree.
///
/// Markings are *not* stored per node: the search works on the
/// [`PathTracker`]'s single scratch marking and [`Search::build_schedule`]
/// reconstructs the retained markings by replaying transitions.
struct TreeNode {
    in_transition: Option<TransitionId>,
    depth: usize,
    children: Vec<(TransitionId, usize)>,
    chosen_ecs: Option<EcsId>,
    /// For retained leaves: the minimal equal-marking ancestor the leaf
    /// merges with, recorded when the entering point was found.
    merge_with: Option<usize>,
}

/// Accumulator of [`Search::build_schedule`]: the schedule's marking
/// arena plus the interned `(marking, edges)` node list under construction.
struct ScheduleBuild {
    store: MarkingStore,
    nodes: Vec<(MarkingId, Vec<(TransitionId, NodeId)>)>,
}

struct Search<'a> {
    net: &'a PetriNet,
    ecs: &'a EcsInfo,
    tracker: PathTracker,
    options: &'a ScheduleOptions,
    source: TransitionId,
    sorter: &'a EcsSorter,
    nodes: Vec<TreeNode>,
    budget_exhausted: bool,
    /// The cooperative budget's charging state (`None` when unlimited,
    /// which keeps the hot path free of clock reads). Borrowed from the
    /// caller so the greedy→exhaustive retry shares one allowance.
    budget: Option<&'a mut BudgetChecker>,
    /// Why the cooperative budget stopped the search, when it did.
    budget_stop: Option<BudgetStop>,
    /// Scratch buffers of [`EcsSorter::promising_into`], reused across
    /// nodes so the heuristic allocates nothing on the hot path.
    combo_buf: Vec<u64>,
    promising_buf: Vec<u64>,
    /// Per-depth candidate-ECS buffers, recycled across the recursion so
    /// the per-node ECS sweep allocates nothing once the pool has warmed
    /// up. Indexed by node depth: the DFS has at most one live frame per
    /// depth, so a frame can take its buffer and return it on every exit
    /// path without clashing with siblings.
    ecs_pool: Vec<Vec<EcsId>>,
    /// Work counters for this pass, absorbed into the caller's
    /// [`SearchProfile`] when the pass returns. Plain integers on the
    /// search's own frame: bumping them costs no atomics, no branches.
    profile: SearchProfile,
}

impl<'a> Search<'a> {
    fn run(&mut self) -> Result<(Schedule, SearchStats)> {
        let root_ecs = self.ecs.ecs_of(self.source);
        // The tracker starts with the root entry (initial marking) on the
        // path; mirror it in the tree and descend along the source.
        self.nodes.push(TreeNode {
            in_transition: None,
            depth: 0,
            children: Vec::new(),
            chosen_ecs: Some(root_ecs),
            merge_with: None,
        });
        self.tracker.fire(self.net, self.source);
        self.nodes.push(TreeNode {
            in_transition: Some(self.source),
            depth: 1,
            children: Vec::new(),
            chosen_ecs: None,
            merge_with: None,
        });
        self.nodes[0].children.push((self.source, 1));

        let result = self.ep(1, 0);
        if self.budget_exhausted {
            if let Some(stop) = self.budget_stop {
                return Err(ScheduleError::BudgetExhausted {
                    source: self.source,
                    stop,
                    steps: self.budget.as_ref().map_or(0, |c| c.steps()),
                });
            }
            return Err(ScheduleError::SearchBudgetExhausted {
                source: self.source,
                max_nodes: self.options.max_nodes,
            });
        }
        match result {
            Some(0) => {
                let schedule = self.build_schedule();
                let stats = SearchStats {
                    nodes_created: self.nodes.len(),
                    schedule_nodes: schedule.num_nodes(),
                    schedule_edges: schedule.num_edges(),
                };
                Ok((schedule, stats))
            }
            _ => Err(ScheduleError::NoSchedule {
                source: self.source,
                explored_nodes: self.nodes.len(),
            }),
        }
    }

    /// `u` is an ancestor of `v` (possibly `u == v`), for nodes that are
    /// both on the current search path: a depth comparison. Every
    /// entering-point candidate the search handles is on the path, so the
    /// reference engine's parent-chain walk is never needed.
    fn on_path_is_ancestor(&self, u: usize, v: usize) -> bool {
        self.nodes[u].depth <= self.nodes[v].depth
    }

    /// Enabled ECSs at the node currently carried by the tracker, filtered
    /// by the single-source constraint and ordered by the search
    /// heuristics. Fills the caller's reused buffer — the whole sweep is
    /// allocation-free once the buffer has warmed up.
    ///
    /// Enabledness is tested on each ECS's first member only: the members
    /// of an ECS consume the same tokens, so they are enabled together.
    fn fill_candidate_ecs(&mut self, candidates: &mut Vec<EcsId>) {
        self.profile.ecs_sweeps_scalar += 1;
        self.ecs
            .enabled_ecs_into(self.net, self.tracker.marking().as_slice(), candidates);
        if self.options.single_source {
            // Exclude other uncontrollable sources (Sec. 5.5.1).
            candidates.retain(|e| {
                self.ecs.members(*e).iter().all(|t| {
                    self.net.transition(*t).kind != TransitionKind::UncontrollableSource
                        || *t == self.source
                })
            });
        }
        let promising: Option<&[u64]> = if self.options.use_invariant_heuristic
            // Cumulative on-path firing counts: a slice read, not a walk;
            // the promising vector lands in a reused scratch buffer.
            && self.sorter.promising_into(
                self.tracker.fired(),
                &mut self.combo_buf,
                &mut self.promising_buf,
            ) {
            Some(&self.promising_buf)
        } else {
            None
        };
        candidates.sort_by_key(|e| {
            let members = self.ecs.members(*e);
            let promising_rank = match &promising {
                Some(p) => {
                    if members.iter().any(|t| EcsSorter::is_promising(p, *t)) {
                        0
                    } else {
                        1
                    }
                }
                None => 0,
            };
            let source_rank = if self.options.source_last
                && members
                    .iter()
                    .any(|t| self.net.transition(*t).kind.is_source())
            {
                1
            } else {
                0
            };
            let singleton_rank = if self.options.prefer_singleton_ecs && members.len() > 1 {
                1
            } else {
                0
            };
            // SELECT arms carry an explicit priority (lower = preferred);
            // non-SELECT transitions rank as priority 0.
            let select_priority = members
                .iter()
                .map(|t| self.net.transition(*t).priority.unwrap_or(0))
                .min()
                .unwrap_or(0);
            (
                promising_rank,
                source_rank,
                singleton_rank,
                select_priority,
                e.index(),
            )
        });
    }

    /// The EP function of Figure 9(a): finds an entering point of `v` that
    /// is an ancestor of `target` if possible, otherwise the entering point
    /// closest to the root, otherwise `None`.
    ///
    /// On entry the tracker carries `v`'s marking and the path entries are
    /// exactly `v`'s proper ancestors; `v` is pushed only while its
    /// candidate ECSs are being explored.
    fn ep(&mut self, v: usize, target: usize) -> Option<usize> {
        if self.budget_exhausted {
            return None;
        }
        // Termination conditions and the equal-marking-ancestor query
        // share one hash probe. The prune check needs the count of equal
        // ancestors because equal markings sit inside their own
        // irrelevance box but are not irrelevance witnesses.
        let (num_equal, first_equal) = self.tracker.equal_ancestors();
        self.profile.equal_ancestor_probes += 1;
        if self.tracker.should_prune(num_equal) {
            self.profile.irrelevance_cuts += 1;
            return None;
        }
        // Equal-marking ancestor: unique entering point. Record the merge
        // target now — build_schedule has no stored markings to re-derive
        // it from later.
        if let Some(depth) = first_equal {
            self.profile.equal_ancestor_hits += 1;
            let u = self.tracker.node_at(depth);
            self.nodes[v].merge_with = Some(u);
            return Some(u);
        }
        let t_in = self.nodes[v]
            .in_transition
            .expect("ep is never called on the root");
        self.tracker.push_entry(self.net, t_in, v);
        let result = self.ep_candidates(v, target);
        if self.budget_exhausted {
            // The whole search is being abandoned and its tracker dies
            // with it, so restoring per-frame tracker state is pure
            // unwind cost — on a deep path it would dwarf the budget
            // itself (hash-removing every on-path marking). Skip it.
            return None;
        }
        self.tracker.pop_entry(self.net, t_in);
        result
    }

    /// The candidate-ECS loop of EP, run while `v` is the top path entry.
    fn ep_candidates(&mut self, v: usize, target: usize) -> Option<usize> {
        // Borrow this depth's candidate buffer from the pool (the DFS has
        // one live frame per depth) and return it on every exit path.
        let depth = self.nodes[v].depth;
        if depth >= self.ecs_pool.len() {
            self.ecs_pool.resize_with(depth + 1, Vec::new);
        }
        let mut candidates = std::mem::take(&mut self.ecs_pool[depth]);
        self.fill_candidate_ecs(&mut candidates);
        let mut best: Option<usize> = None;
        let mut early: Option<Option<usize>> = None;
        for &e in &candidates {
            let result = self.ep_ecs(e, v, target);
            if self.budget_exhausted {
                early = Some(None);
                break;
            }
            if let Some(u) = result {
                if self.on_path_is_ancestor(u, target) || self.options.greedy_entering_point {
                    // An ancestor of the target is always good enough; in
                    // greedy mode any defined entering point is accepted
                    // rather than searching all ECSs for the minimum.
                    self.nodes[v].chosen_ecs = Some(e);
                    early = Some(Some(u));
                    break;
                }
                let better = match best {
                    None => true,
                    Some(b) => self.nodes[u].depth < self.nodes[b].depth,
                };
                if better {
                    self.nodes[v].chosen_ecs = Some(e);
                    best = Some(u);
                }
            }
        }
        self.ecs_pool[depth] = candidates;
        early.unwrap_or(best)
    }

    /// The EP_ECS function of Figure 9(b): the entering point of ECS `e`
    /// enabled at node `v`, i.e. the minimum over the entering points of
    /// the children created for each transition of the ECS, provided each
    /// of them is a proper ancestor of `v`.
    fn ep_ecs(&mut self, e: EcsId, v: usize, target: usize) -> Option<usize> {
        let mut best: Option<usize> = None;
        let mut current_target = target;
        // Iterate members by index: taking a slice would borrow `self.ecs`
        // across the recursive `self.ep(..)` call, and cloning it into a
        // Vec would allocate on the hot path.
        for mi in 0..self.ecs.members(e).len() {
            let t = self.ecs.members(e)[mi];
            if self.nodes.len() >= self.options.max_nodes {
                self.budget_exhausted = true;
                return None;
            }
            // The cooperative budget charges one step per node expansion
            // (clock and cancellation flag amortized inside the checker).
            if let Some(checker) = self.budget.as_deref_mut() {
                self.profile.budget_checks += 1;
                if let Some(stop) = checker.step() {
                    self.budget_stop = Some(stop);
                    self.budget_exhausted = true;
                    return None;
                }
            }
            self.tracker.fire(self.net, t);
            self.profile.nodes_expanded += 1;
            let w = self.nodes.len();
            let depth = self.nodes[v].depth + 1;
            self.nodes.push(TreeNode {
                in_transition: Some(t),
                depth,
                children: Vec::new(),
                chosen_ecs: None,
                merge_with: None,
            });
            self.nodes[v].children.push((t, w));
            let ep = self.ep(w, current_target);
            if self.budget_exhausted {
                // Abandoned search: skip the marking restore (see `ep`).
                return None;
            }
            self.tracker.unfire(self.net, t);
            match ep {
                // The child's entering point must be `v` itself or an
                // ancestor of `v` (Sec. 5.1); anything deeper (or UNDEF)
                // means this ECS has no entering point.
                Some(u) if self.on_path_is_ancestor(u, v) => {
                    best = Some(match best {
                        None => u,
                        Some(b) => {
                            if self.nodes[u].depth < self.nodes[b].depth {
                                u
                            } else {
                                b
                            }
                        }
                    });
                    if self.on_path_is_ancestor(best.unwrap(), target) {
                        current_target = v;
                    }
                }
                _ => {
                    self.profile.backtracks += 1;
                    return None;
                }
            }
        }
        best
    }

    /// Post-processing: retain the chosen-ECS part of the tree and close
    /// the cycles by merging each retained leaf with its equal-marking
    /// ancestor. Markings are reconstructed by replaying transitions over
    /// one scratch marking along the retained tree (the search itself
    /// stored none) and hash-consed straight into the schedule's
    /// [`MarkingStore`] — revisited markings never get a second slab slot.
    fn build_schedule(&self) -> Schedule {
        let mut map: BTreeMap<usize, usize> = BTreeMap::new();
        let mut build = ScheduleBuild {
            store: MarkingStore::with_stride(self.net.num_places()),
            nodes: Vec::new(),
        };
        let mut scratch = self.net.initial_marking();
        self.assign(0, &mut scratch, &mut map, &mut build);
        Schedule::from_interned(self.source, build.store, build.nodes)
    }

    fn assign(
        &self,
        v: usize,
        scratch: &mut Marking,
        map: &mut BTreeMap<usize, usize>,
        build: &mut ScheduleBuild,
    ) -> usize {
        if let Some(&id) = map.get(&v) {
            return id;
        }
        match self.nodes[v].chosen_ecs {
            Some(ecs) => {
                let id = build.nodes.len();
                let marking = build.store.intern(scratch.as_slice());
                build.nodes.push((marking, Vec::new()));
                map.insert(v, id);
                let mut edges = Vec::new();
                for (t, w) in &self.nodes[v].children {
                    if self.ecs.ecs_of(*t) == ecs {
                        self.net.fire_into(*t, scratch);
                        let target = self.assign(*w, scratch, map, build);
                        self.net.unfire_into(*t, scratch);
                        edges.push((*t, NodeId(target as u32)));
                    }
                }
                build.nodes[id].1 = edges;
                id
            }
            None => {
                // Leaf: merge with the (minimal) equal-marking ancestor
                // recorded when the entering point was found. The ancestor
                // lies on the DFS path of this reconstruction, so it has
                // been assigned already.
                let u = self.nodes[v]
                    .merge_with
                    .expect("retained leaf must have an equal-marking ancestor");
                let id = *map
                    .get(&u)
                    .expect("merge ancestor assigned before its leaves");
                map.insert(v, id);
                id
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qss_petri::NetBuilder;

    /// The Figure 8(a) net.
    fn figure8() -> PetriNet {
        let mut bl = NetBuilder::new("fig8");
        let p1 = bl.place("p1", 0);
        let p2 = bl.place("p2", 0);
        let p3 = bl.place("p3", 0);
        let a = bl.transition("a", TransitionKind::UncontrollableSource);
        let b = bl.transition("b", TransitionKind::Internal);
        let c = bl.transition("c", TransitionKind::Internal);
        let d = bl.transition("d", TransitionKind::Internal);
        let e = bl.transition("e", TransitionKind::Internal);
        bl.arc_t2p(a, p1, 1);
        bl.arc_p2t(p1, b, 1);
        bl.arc_p2t(p1, c, 1);
        bl.arc_t2p(b, p2, 1);
        bl.arc_p2t(p2, d, 1);
        bl.arc_t2p(c, p3, 1);
        bl.arc_p2t(p3, e, 2);
        bl.arc_t2p(e, p1, 1);
        bl.build().unwrap()
    }

    #[test]
    fn schedules_figure8_net() {
        let net = figure8();
        let a = net.transition_by_name("a").unwrap();
        let (schedule, stats) =
            find_schedule_with_stats(&net, a, &ScheduleOptions::default()).unwrap();
        schedule.validate(&net).unwrap();
        assert!(schedule.is_single_source(&net));
        assert!(stats.nodes_created >= schedule.num_nodes());
        // The schedule of Figure 8(b) has 10 nodes before merging; after
        // cycle closure it must involve all five transitions.
        assert_eq!(schedule.involved_transitions().len(), 5);
    }

    #[test]
    fn tiny_pipeline_schedule_is_two_nodes() {
        let mut b = NetBuilder::new("tiny");
        let p = b.place("p", 0);
        let src = b.transition("in", TransitionKind::UncontrollableSource);
        let t = b.transition("consume", TransitionKind::Internal);
        b.arc_t2p(src, p, 1);
        b.arc_p2t(p, t, 1);
        let net = b.build().unwrap();
        let src = net.transition_by_name("in").unwrap();
        let schedule = find_schedule(&net, src, &ScheduleOptions::default()).unwrap();
        schedule.validate(&net).unwrap();
        assert_eq!(schedule.num_nodes(), 2);
        assert_eq!(schedule.num_edges(), 2);
    }

    #[test]
    fn non_source_transition_is_rejected() {
        let net = figure8();
        let b = net.transition_by_name("b").unwrap();
        assert!(matches!(
            find_schedule(&net, b, &ScheduleOptions::default()),
            Err(ScheduleError::NotUncontrollableSource(_))
        ));
    }

    #[test]
    fn accumulator_net_has_no_schedule() {
        let mut b = NetBuilder::new("acc");
        let p = b.place("p", 0);
        let src = b.transition("in", TransitionKind::UncontrollableSource);
        b.arc_t2p(src, p, 1);
        let net = b.build().unwrap();
        let src = net.transition_by_name("in").unwrap();
        let err = find_schedule(&net, src, &ScheduleOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::NoTInvariants | ScheduleError::NoSchedule { .. }
        ));
    }

    /// Figure 4(b): two uncontrollable sources feeding one synchronising
    /// transition — no single-source schedule exists for either.
    #[test]
    fn figure4b_has_no_single_source_schedule() {
        let mut bl = NetBuilder::new("fig4b");
        let p1 = bl.place("p1", 0);
        let p2 = bl.place("p2", 0);
        let a = bl.transition("a", TransitionKind::UncontrollableSource);
        let b = bl.transition("b", TransitionKind::UncontrollableSource);
        let c = bl.transition("c", TransitionKind::Internal);
        bl.arc_t2p(a, p1, 1);
        bl.arc_t2p(b, p2, 1);
        bl.arc_p2t(p1, c, 1);
        bl.arc_p2t(p2, c, 1);
        let net = bl.build().unwrap();
        let a = net.transition_by_name("a").unwrap();
        let err = find_schedule(&net, a, &ScheduleOptions::default()).unwrap_err();
        assert!(matches!(err, ScheduleError::NoSchedule { .. }));
        // With the single-source restriction lifted, a (multi-source)
        // schedule exists.
        let opts = ScheduleOptions {
            single_source: false,
            ..Default::default()
        };
        let s = find_schedule(&net, a, &opts).unwrap();
        s.validate(&net).unwrap();
        assert!(!s.is_single_source(&net));
    }

    /// Figure 4(a): weights of 2 around place p1 force two firings of `a`
    /// per reaction cycle, giving a schedule with an intermediate await
    /// node, exactly as SSS(a) in the figure.
    #[test]
    fn figure4a_schedule_has_intermediate_await_node() {
        let mut bl = NetBuilder::new("fig4a");
        let p1 = bl.place("p1", 0);
        let a = bl.transition("a", TransitionKind::UncontrollableSource);
        let c = bl.transition("c", TransitionKind::Internal);
        bl.arc_t2p(a, p1, 1);
        bl.arc_p2t(p1, c, 2);
        let net = bl.build().unwrap();
        let a = net.transition_by_name("a").unwrap();
        let s = find_schedule(&net, a, &ScheduleOptions::default()).unwrap();
        s.validate(&net).unwrap();
        // r plus the intermediate await node.
        assert_eq!(s.await_nodes(&net).len(), 2);
    }

    #[test]
    fn place_bounds_termination_can_fail_where_irrelevance_succeeds() {
        // Figure 7-style divider: b consumes k tokens of p1 at once, so the
        // search must accumulate k tokens in p1 before b can fire. With a
        // pre-defined bound smaller than k the search fails; the
        // irrelevance criterion finds the schedule.
        let k = 5;
        let mut bl = NetBuilder::new("divider");
        let p1 = bl.place("p1", 0);
        let p2 = bl.place("p2", 0);
        let a = bl.transition("a", TransitionKind::UncontrollableSource);
        let b = bl.transition("b", TransitionKind::Internal);
        let c = bl.transition("c", TransitionKind::Internal);
        bl.arc_t2p(a, p1, 1);
        bl.arc_p2t(p1, b, k);
        bl.arc_t2p(b, p2, 1);
        bl.arc_p2t(p2, c, 1);
        let net = bl.build().unwrap();
        let a = net.transition_by_name("a").unwrap();
        let tight = ScheduleOptions::with_place_bounds(k - 2);
        assert!(matches!(
            find_schedule(&net, a, &tight),
            Err(ScheduleError::NoSchedule { .. })
        ));
        let s = find_schedule(&net, a, &ScheduleOptions::default()).unwrap();
        s.validate(&net).unwrap();
        // The schedule needs k await nodes (one per arrival of `a`).
        assert_eq!(s.await_nodes(&net).len() as u32, k);
    }

    #[test]
    fn heuristics_do_not_change_existence() {
        let net = figure8();
        let a = net.transition_by_name("a").unwrap();
        let with = find_schedule_with_stats(&net, a, &ScheduleOptions::default()).unwrap();
        let without =
            find_schedule_with_stats(&net, a, &ScheduleOptions::default().without_heuristics())
                .unwrap();
        with.0.validate(&net).unwrap();
        without.0.validate(&net).unwrap();
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let net = figure8();
        let a = net.transition_by_name("a").unwrap();
        let opts = ScheduleOptions {
            max_nodes: 3,
            ..Default::default()
        };
        assert!(matches!(
            find_schedule(&net, a, &opts),
            Err(ScheduleError::SearchBudgetExhausted { .. })
        ));
    }

    /// A divider chain: each stage consumes `k` tokens of the previous
    /// one, so reaching the last internal transition takes k^depth source
    /// firings — plenty of expansion steps for budget tests.
    fn divider_chain(depth: u32, k: u32) -> PetriNet {
        let mut bl = NetBuilder::new("chain");
        let a = bl.transition("a", TransitionKind::UncontrollableSource);
        let mut prev = bl.place("p0", 0);
        bl.arc_t2p(a, prev, 1);
        for i in 0..depth {
            let t = bl.transition(format!("t{i}"), TransitionKind::Internal);
            let next = bl.place(format!("p{}", i + 1), 0);
            bl.arc_p2t(prev, t, k);
            bl.arc_t2p(t, next, 1);
            prev = next;
        }
        let sink = bl.transition("sink", TransitionKind::Internal);
        bl.arc_p2t(prev, sink, 1);
        bl.build().unwrap()
    }

    #[test]
    fn step_budget_stops_the_search_with_a_typed_error() {
        let net = divider_chain(4, 4);
        let a = net.transition_by_name("a").unwrap();
        let opts = ScheduleOptions::default();
        let budget = SearchBudget::unlimited().with_max_steps(20);
        let err = SearchContext::new(&net)
            .find_schedule_with_stats_budgeted(&net, a, &opts, &budget)
            .unwrap_err();
        match err {
            ScheduleError::BudgetExhausted {
                source,
                stop,
                steps,
            } => {
                assert_eq!(source, a);
                assert_eq!(stop, crate::budget::BudgetStop::Steps);
                assert_eq!(steps, 21);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }

    #[test]
    fn expired_deadline_stops_the_search() {
        let net = divider_chain(4, 4);
        let a = net.transition_by_name("a").unwrap();
        let opts = ScheduleOptions::default();
        let budget = SearchBudget::unlimited().with_deadline(std::time::Instant::now());
        let err = SearchContext::new(&net)
            .find_schedule_with_stats_budgeted(&net, a, &opts, &budget)
            .unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::BudgetExhausted {
                stop: crate::budget::BudgetStop::Deadline,
                ..
            }
        ));
    }

    #[test]
    fn raised_cancel_flag_stops_the_search() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Arc;
        let net = divider_chain(4, 4);
        let a = net.transition_by_name("a").unwrap();
        let flag = Arc::new(AtomicBool::new(false));
        flag.store(true, Ordering::Relaxed);
        let budget = SearchBudget::unlimited().with_cancel(flag);
        let err = SearchContext::new(&net)
            .find_schedule_with_stats_budgeted(&net, a, &ScheduleOptions::default(), &budget)
            .unwrap_err();
        assert!(matches!(
            err,
            ScheduleError::BudgetExhausted {
                stop: crate::budget::BudgetStop::Cancelled,
                ..
            }
        ));
    }

    #[test]
    fn unarmed_budget_changes_nothing() {
        // The same searches, with and without an (unlimited) budget, must
        // produce identical schedules and statistics.
        for net in [figure8(), divider_chain(2, 3)] {
            let a = net.transition_by_name("a").unwrap();
            let opts = ScheduleOptions::default();
            let context = SearchContext::new(&net);
            let plain = context.find_schedule_with_stats(&net, a, &opts).unwrap();
            let budgeted = context
                .find_schedule_with_stats_budgeted(&net, a, &opts, &SearchBudget::unlimited())
                .unwrap();
            assert_eq!(plain.1, budgeted.1);
            assert_eq!(
                plain.0.involved_transitions(),
                budgeted.0.involved_transitions()
            );
            assert_eq!(plain.0.num_nodes(), budgeted.0.num_nodes());
        }
    }

    #[test]
    fn generous_budget_still_finds_the_schedule() {
        let net = figure8();
        let a = net.transition_by_name("a").unwrap();
        let budget = SearchBudget::unlimited()
            .with_max_steps(1_000_000)
            .with_deadline(std::time::Instant::now() + std::time::Duration::from_secs(60));
        let (s, _) = SearchContext::new(&net)
            .find_schedule_with_stats_budgeted(&net, a, &ScheduleOptions::default(), &budget)
            .unwrap();
        s.validate(&net).unwrap();
    }

    #[test]
    fn every_ecs_sweep_is_counted_in_one_profile_row() {
        let net = divider_chain(2, 3);
        let a = net.transition_by_name("a").unwrap();
        let mut profile = SearchProfile::default();
        SearchContext::new(&net)
            .find_schedule_profiled(
                &net,
                a,
                &ScheduleOptions::default(),
                &SearchBudget::unlimited(),
                &mut profile,
            )
            .unwrap();
        assert!(profile.ecs_sweeps_scalar > 0);
        assert_eq!(profile.ecs_sweeps_chunked, 0);
        let sweeps: Vec<_> = profile
            .rows()
            .into_iter()
            .filter(|(label, _)| label.starts_with("ecs_sweeps"))
            .collect();
        assert_eq!(sweeps, vec![("ecs_sweeps", profile.ecs_sweeps_scalar)]);
    }
}
