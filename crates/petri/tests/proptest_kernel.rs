//! Property-based tests of the Petri-net kernel: firing, markings, ECS
//! partitions, place degrees, bounded reachability, T-invariants (the
//! sparse Farkas elimination against its retained dense oracle) and the
//! hash-consing marking store, on randomly generated nets.

use proptest::prelude::*;
use qss_petri::{
    incidence_matrix, p_invariant_basis, p_invariant_basis_dense, place_degree, t_invariant_basis,
    t_invariant_basis_dense, EcsInfo, Marking, MarkingStore, NetBuilder, PetriNet, PlaceId,
    ReachabilityGraph, ReachabilityLimits, TransitionKind,
};

/// A random connected net description: `places[p]` is the initial token
/// count; every transition consumes from one place and produces into
/// another with small weights.
#[derive(Debug, Clone)]
struct RandomNet {
    initial: Vec<u32>,
    arcs: Vec<(usize, usize, u32, u32)>,
}

fn random_net_strategy() -> impl Strategy<Value = RandomNet> {
    (2usize..6, 1usize..8).prop_flat_map(|(num_places, num_transitions)| {
        let initial = prop::collection::vec(0u32..3, num_places);
        let arcs = prop::collection::vec(
            (0..num_places, 0..num_places, 1u32..3, 1u32..3),
            num_transitions,
        );
        (initial, arcs).prop_map(|(initial, arcs)| RandomNet { initial, arcs })
    })
}

fn build(net: &RandomNet) -> PetriNet {
    let mut b = NetBuilder::new("random");
    let places: Vec<PlaceId> = net
        .initial
        .iter()
        .enumerate()
        .map(|(i, &tokens)| b.place(format!("p{i}"), tokens))
        .collect();
    for (i, (from, to, consume, produce)) in net.arcs.iter().enumerate() {
        let t = b.transition(format!("t{i}"), TransitionKind::Internal);
        b.arc_p2t(places[*from], t, *consume);
        b.arc_t2p(t, places[*to], *produce);
    }
    b.build().expect("random net builds")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Firing is exactly the incidence-matrix column update and never
    /// produces negative token counts.
    #[test]
    fn firing_matches_incidence_matrix(desc in random_net_strategy(), steps in 1usize..20) {
        let net = build(&desc);
        let c = incidence_matrix(&net);
        let mut marking = net.initial_marking();
        for _ in 0..steps {
            let enabled = net.enabled_transitions(&marking);
            let Some(&t) = enabled.first() else { break };
            let next = net.fire(t, &marking).unwrap();
            for p in net.place_ids() {
                let delta = c.entry(p, t);
                prop_assert_eq!(next.tokens(p) as i64, marking.tokens(p) as i64 + delta);
            }
            marking = next;
        }
    }

    /// A disabled transition can never be fired, and an enabled one always
    /// can.
    #[test]
    fn fire_agrees_with_is_enabled(desc in random_net_strategy()) {
        let net = build(&desc);
        let m = net.initial_marking();
        for t in net.transition_ids() {
            prop_assert_eq!(net.fire(t, &m).is_ok(), net.is_enabled(t, &m));
        }
    }

    /// Transitions in the same ECS have identical presets and identical
    /// enabling at every marking of the bounded reachability graph. The
    /// schedule search's enabledness sweep tests only each ECS's first
    /// member and relies on this.
    #[test]
    fn ecs_members_enable_together(desc in random_net_strategy()) {
        let net = build(&desc);
        let ecs = EcsInfo::compute(&net);
        let limits = ReachabilityLimits { max_markings: 200, max_tokens_per_place: Some(6) };
        let graph = ReachabilityGraph::explore(&net, &limits).unwrap();
        for e in ecs.ecs_ids() {
            let members = ecs.members(e);
            for m in graph.markings() {
                let enabled: Vec<bool> = members.iter().map(|t| net.is_enabled_at(*t, m)).collect();
                prop_assert!(enabled.windows(2).all(|w| w[0] == w[1]),
                    "ECS members must enable together");
            }
        }
    }

    /// Place degrees dominate the structural saturation point: once a
    /// place holds `max(degree, heaviest outgoing weight)` tokens, adding
    /// more never enables a successor transition that was not already
    /// enabled (the degree only falls below that weight for places with no
    /// producers, which can never be refilled anyway).
    #[test]
    fn degree_is_a_saturation_point(desc in random_net_strategy()) {
        let net = build(&desc);
        for p in net.place_ids() {
            let max_out = net
                .place_successors(p)
                .iter()
                .map(|&t| net.weight_p2t(p, t))
                .max()
                .unwrap_or(0);
            let saturation = place_degree(&net, p).max(max_out);
            let mut saturated = Marking::empty(net.num_places());
            saturated.set_tokens(p, saturation);
            let mut beyond = saturated.clone();
            beyond.add_tokens(p, 5);
            for &t in net.place_successors(p) {
                // Only compare the contribution of p itself: fill every
                // other input place generously in both markings.
                let mut a = saturated.clone();
                let mut b = beyond.clone();
                for (q, w) in net.preset(t) {
                    if *q != p {
                        a.set_tokens(*q, *w);
                        b.set_tokens(*q, *w);
                    }
                }
                prop_assert_eq!(net.is_enabled(t, &a), net.is_enabled(t, &b));
            }
        }
    }

    /// Every T-invariant of the computed basis satisfies C·x = 0.
    #[test]
    fn t_invariant_basis_is_valid(desc in random_net_strategy()) {
        let net = build(&desc);
        for inv in t_invariant_basis(&net, 5_000) {
            prop_assert!(inv.is_valid_for(&net));
            prop_assert!(!inv.is_zero());
        }
    }

    /// Bounded reachability never reports a marking that violates the
    /// per-place cap by more than one firing's worth of tokens, and always
    /// contains the initial marking.
    #[test]
    fn reachability_respects_limits(desc in random_net_strategy()) {
        let net = build(&desc);
        let limits = ReachabilityLimits { max_markings: 100, max_tokens_per_place: Some(4) };
        if let Ok(graph) = ReachabilityGraph::explore(&net, &limits) {
            prop_assert!(graph.contains(net.initial_marking().as_slice()));
            prop_assert!(graph.num_markings() <= 100);
            let max_produce = net
                .transition_ids()
                .flat_map(|t| net.postset(t).iter().map(|(_, w)| *w).collect::<Vec<_>>())
                .max()
                .unwrap_or(0);
            for m in graph.markings() {
                for &c in m {
                    prop_assert!(c <= 4 + max_produce.max(3));
                }
            }
            // The CSR successor rows are real: firing the edge transition
            // at the source marking lands exactly on the target row.
            for (v, t, w) in graph.edges() {
                let mut next = graph.marking(v).to_vec();
                net.fire_into_slice(t, &mut next);
                prop_assert_eq!(&next[..], graph.marking(w));
            }
            prop_assert_eq!(graph.edges().count(), graph.num_edges());
        }
    }

    /// Intern/resolve round-trips, and interning is a bijection between
    /// distinct markings and ids (the dedup invariant).
    #[test]
    fn marking_store_interning_is_a_bijection(
        rows in prop::collection::vec(prop::collection::vec(0u32..4, 3), 1..24)
    ) {
        let mut store = MarkingStore::new();
        let markings: Vec<Marking> = rows.iter().cloned().map(Marking::from_counts).collect();
        let ids: Vec<_> = markings.iter().map(|m| store.intern(m.as_slice())).collect();
        for (m, &id) in markings.iter().zip(&ids) {
            // Round-trip: the id resolves back to an equal marking...
            prop_assert_eq!(store.resolve(id), m.as_slice());
            // ...and lookup finds the same id without inserting.
            prop_assert_eq!(store.lookup(m.as_slice()), Some(id));
        }
        for (i, a) in markings.iter().enumerate() {
            for (j, b) in markings.iter().enumerate() {
                // Dedup invariant: equal markings ⇔ equal ids.
                prop_assert_eq!(a == b, ids[i] == ids[j]);
            }
        }
        let distinct = {
            let mut sorted = markings.clone();
            sorted.sort();
            sorted.dedup();
            sorted.len()
        };
        prop_assert_eq!(store.len(), distinct);
    }

    /// The flat-slab store assigns exactly the same ids as a naive
    /// `Vec<Marking>` interner that linearly scans owned markings — the
    /// slab layout changes the storage, never the id assignment.
    #[test]
    fn flat_store_agrees_with_naive_interner_id_for_id(
        rows in prop::collection::vec(prop::collection::vec(0u32..4, 4), 1..32)
    ) {
        let mut store = MarkingStore::new();
        let mut naive: Vec<Marking> = Vec::new();
        for row in &rows {
            let m = Marking::from_counts(row.iter().copied());
            let naive_id = match naive.iter().position(|n| *n == m) {
                Some(i) => i,
                None => {
                    naive.push(m.clone());
                    naive.len() - 1
                }
            };
            let id = store.intern(m.as_slice());
            prop_assert_eq!(id.index(), naive_id);
        }
        prop_assert_eq!(store.len(), naive.len());
        for (i, m) in naive.iter().enumerate() {
            prop_assert_eq!(store.resolve(qss_petri::MarkingId(i as u32)), m.as_slice());
        }
    }

    /// Walking a net through `MarkingStore::fire`/`unfire` (reserve-then-
    /// commit delta application in the slab tail) always lands on the same
    /// ids as freshly interning independently computed successor markings.
    #[test]
    fn marking_store_fire_matches_fresh_interning(desc in random_net_strategy(), steps in 1usize..24) {
        let net = build(&desc);
        let mut store = MarkingStore::new();
        let mut id = store.intern(net.initial_marking().as_slice());
        let mut marking = net.initial_marking();
        let mut trail = Vec::new();
        for _ in 0..steps {
            let enabled = net.enabled_transitions(&marking);
            let Some(&t) = enabled.first() else { break };
            id = store.fire(&net, t, id);
            marking = net.fire(t, &marking).unwrap();
            // Delta application and fresh interning agree on the id.
            prop_assert_eq!(id, store.intern(marking.as_slice()));
            prop_assert_eq!(store.resolve(id), marking.as_slice());
            trail.push(t);
        }
        // Unwinding through unfire retraces the same interned ids.
        for &t in trail.iter().rev() {
            id = store.unfire(&net, t, id);
            net.unfire_into(t, &mut marking);
            prop_assert_eq!(store.lookup(marking.as_slice()), Some(id));
        }
        let m0 = net.initial_marking();
        prop_assert_eq!(store.resolve(id), m0.as_slice());
    }

    /// Marking display/round-trip helpers are consistent.
    #[test]
    fn marking_helpers_are_consistent(counts in prop::collection::vec(0u32..9, 1..8)) {
        let m = Marking::from_counts(counts.clone());
        prop_assert_eq!(m.total_tokens(), counts.iter().map(|&c| c as u64).sum::<u64>());
        prop_assert_eq!(m.marked_places().len(), counts.iter().filter(|&&c| c > 0).count());
        prop_assert_eq!(m.len(), counts.len());
        let display = m.to_string();
        prop_assert!(!display.is_empty());
        if m.total_tokens() == 0 {
            prop_assert_eq!(display, "0");
        }
    }
}

/// Number of random nets the Farkas oracle properties run: 64 by default,
/// overridable with the `QSS_DIFFERENTIAL_NETS` environment variable like
/// the root differential suite (CI's release job runs 1024).
fn oracle_cases() -> u32 {
    std::env::var("QSS_DIFFERENTIAL_NETS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(oracle_cases()))]

    /// The sparse-row Farkas elimination produces exactly the basis of
    /// the retained dense implementation — same invariants, same order.
    #[test]
    fn sparse_farkas_matches_dense_oracle(desc in random_net_strategy(), row_cap in 4usize..64) {
        let net = build(&desc);
        prop_assert_eq!(
            t_invariant_basis(&net, 5_000),
            t_invariant_basis_dense(&net, 5_000)
        );
        // Including under aggressive row caps, where both bail out early.
        prop_assert_eq!(
            t_invariant_basis(&net, row_cap),
            t_invariant_basis_dense(&net, row_cap)
        );
    }

    /// Every P-invariant of the computed basis is a left annuller of the
    /// incidence matrix (`yᵀ·C = 0`), non-zero, and the sparse Farkas
    /// dual agrees with the retained dense oracle — same invariants, same
    /// order, including under aggressive row caps.
    #[test]
    fn p_invariant_sparse_matches_dense_oracle(desc in random_net_strategy(), row_cap in 4usize..64) {
        let net = build(&desc);
        let basis = p_invariant_basis(&net, 5_000);
        for inv in &basis {
            prop_assert!(inv.is_valid_for(&net));
            prop_assert!(!inv.is_zero());
        }
        prop_assert_eq!(basis, p_invariant_basis_dense(&net, 5_000));
        prop_assert_eq!(
            p_invariant_basis(&net, row_cap),
            p_invariant_basis_dense(&net, row_cap)
        );
    }
}
