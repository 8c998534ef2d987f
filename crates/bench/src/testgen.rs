//! Shared random-net generator for the generative differential suites.
//!
//! The differential tests pit the incremental interned engine against the
//! `qss_core::reference` oracle on randomly generated nets. The generator
//! lives here (rather than inside one test file) so every suite — the
//! root differential tests and ad-hoc bench experiments — draws from the
//! same distribution, and so the strategy can implement *domain-aware
//! shrinking*: a failing net is minimized by dropping arcs, emptying
//! initial markings and flattening weights, which turns a
//! five-transition counterexample into the two-arc core that actually
//! disagrees.

use proptest::{Strategy, TestRng};
use qss_petri::{NetBuilder, PetriNet, TransitionId, TransitionKind};

/// A random net description: one uncontrollable source feeding place 0,
/// plus `arcs` internal transitions each consuming from one place and
/// producing into another.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RandomNet {
    /// Initial tokens per place (also fixes the place count).
    pub initial: Vec<u32>,
    /// Weight of the arc from the source into place 0.
    pub source_weight: u32,
    /// Internal transitions as `(from-place, to-place, consume, produce)`.
    pub arcs: Vec<(usize, usize, u32, u32)>,
}

/// The shape of net a [`RandomNetStrategy`] generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NetProfile {
    /// 2–4 places, 1–5 internal transitions, initial tokens in 0–1: the
    /// small, densely connected nets the differential suite has always
    /// run on.
    #[default]
    Dense,
    /// 12–32 places with mostly empty initial markings and transitions
    /// scattered over the whole place range: wide, sparsely marked rows
    /// that stress the fixed-width marking slab (long strides, few marked
    /// cells, many distinct rows per search).
    Wide,
    /// Hundreds of places (96–256) with a few high-fan-in *hub* places
    /// that a large share of the arcs route through, plus deliberate
    /// preset duplication so choices nest into multi-member ECSs: the
    /// widest markings, and the ECSs whose members the enabledness sweep
    /// represents by their first.
    Hub,
}

/// Strategy generating [`RandomNet`]s of a given [`NetProfile`].
///
/// Implemented directly (not via `prop_flat_map`) so that
/// [`Strategy::shrink`] can propose structurally smaller *nets* instead
/// of being blocked by the opaque mapping.
#[derive(Debug, Clone, Default)]
pub struct RandomNetStrategy {
    profile: NetProfile,
}

impl Strategy for RandomNetStrategy {
    type Value = RandomNet;

    fn generate(&self, rng: &mut TestRng) -> RandomNet {
        let (num_places, num_transitions) = match self.profile {
            NetProfile::Dense => (
                Strategy::generate(&(2usize..5), rng),
                Strategy::generate(&(1usize..6), rng),
            ),
            NetProfile::Wide => (
                Strategy::generate(&(12usize..33), rng),
                Strategy::generate(&(3usize..9), rng),
            ),
            NetProfile::Hub => (
                Strategy::generate(&(96usize..257), rng),
                Strategy::generate(&(16usize..42), rng),
            ),
        };
        let initial: Vec<u32> = (0..num_places)
            .map(|_| match self.profile {
                NetProfile::Dense => Strategy::generate(&(0u32..2), rng),
                // Sparse tokens: roughly one place in five is marked.
                NetProfile::Wide => {
                    if Strategy::generate(&(0u32..5), rng) == 0 {
                        1
                    } else {
                        0
                    }
                }
                // Very sparse: roughly one place in eight is marked.
                NetProfile::Hub => {
                    if Strategy::generate(&(0u32..8), rng) == 0 {
                        1
                    } else {
                        0
                    }
                }
            })
            .collect();
        let arcs: Vec<(usize, usize, u32, u32)> = match self.profile {
            NetProfile::Dense | NetProfile::Wide => (0..num_transitions)
                .map(|_| {
                    (
                        Strategy::generate(&(0..num_places), rng),
                        Strategy::generate(&(0..num_places), rng),
                        Strategy::generate(&(1u32..3), rng),
                        Strategy::generate(&(1u32..3), rng),
                    )
                })
                .collect(),
            NetProfile::Hub => {
                // A few high-fan-in hub places attract ~40% of the arc
                // endpoints, and a third of the transitions duplicate the
                // previous preset exactly — identical presets land in one
                // ECS, so the duplicates nest data-dependent choices.
                let hubs: Vec<usize> = (0..Strategy::generate(&(2usize..7), rng))
                    .map(|_| Strategy::generate(&(0..num_places), rng))
                    .collect();
                let pick_place = |rng: &mut TestRng| -> usize {
                    if Strategy::generate(&(0u32..5), rng) < 2 {
                        hubs[Strategy::generate(&(0..hubs.len()), rng)]
                    } else {
                        Strategy::generate(&(0..num_places), rng)
                    }
                };
                let mut arcs: Vec<(usize, usize, u32, u32)> = Vec::with_capacity(num_transitions);
                for _ in 0..num_transitions {
                    let (from, consume) = match arcs.last() {
                        Some(&(prev_from, _, prev_consume, _))
                            if Strategy::generate(&(0u32..3), rng) == 0 =>
                        {
                            (prev_from, prev_consume)
                        }
                        _ => (pick_place(rng), Strategy::generate(&(1u32..3), rng)),
                    };
                    let to = pick_place(rng);
                    let produce = Strategy::generate(&(1u32..3), rng);
                    arcs.push((from, to, consume, produce));
                }
                arcs
            }
        };
        let source_weight = Strategy::generate(&(1u32..3), rng);
        RandomNet {
            initial,
            source_weight,
            arcs,
        }
    }

    /// Domain-aware shrinking: drop whole transitions first (the biggest
    /// structural simplification), then empty initially marked places,
    /// then flatten arc and source weights to 1.
    fn shrink(&self, value: &RandomNet) -> Vec<RandomNet> {
        let mut out = Vec::new();
        for i in 0..value.arcs.len() {
            let mut next = value.clone();
            next.arcs.remove(i);
            out.push(next);
        }
        for (i, &tokens) in value.initial.iter().enumerate() {
            if tokens > 0 {
                let mut next = value.clone();
                next.initial[i] = 0;
                out.push(next);
            }
        }
        for (i, &(_, _, consume, produce)) in value.arcs.iter().enumerate() {
            if consume > 1 {
                let mut next = value.clone();
                next.arcs[i].2 = 1;
                out.push(next);
            }
            if produce > 1 {
                let mut next = value.clone();
                next.arcs[i].3 = 1;
                out.push(next);
            }
        }
        if value.source_weight > 1 {
            let mut next = value.clone();
            next.source_weight = 1;
            out.push(next);
        }
        out
    }
}

/// The dense-profile strategy the differential suites have always used.
pub fn random_net_strategy() -> RandomNetStrategy {
    RandomNetStrategy {
        profile: NetProfile::Dense,
    }
}

/// The wide-profile strategy (many places, sparse tokens) that stresses
/// the fixed-width marking slab.
pub fn wide_net_strategy() -> RandomNetStrategy {
    RandomNetStrategy {
        profile: NetProfile::Wide,
    }
}

/// The hub-profile strategy (hundreds of places, high-fan-in hubs, nested
/// choices) that stresses wide markings and multi-member ECSs.
pub fn hub_net_strategy() -> RandomNetStrategy {
    RandomNetStrategy {
        profile: NetProfile::Hub,
    }
}

/// Builds the Petri net described by `desc` and returns it together with
/// its uncontrollable source transition.
pub fn build_random(desc: &RandomNet) -> (PetriNet, TransitionId) {
    let mut b = NetBuilder::new("random");
    let places: Vec<_> = desc
        .initial
        .iter()
        .enumerate()
        .map(|(i, &tokens)| b.place(format!("p{i}"), tokens))
        .collect();
    let src = b.transition("src", TransitionKind::UncontrollableSource);
    b.arc_t2p(src, places[0], desc.source_weight);
    for (i, (from, to, consume, produce)) in desc.arcs.iter().enumerate() {
        let t = b.transition(format!("t{i}"), TransitionKind::Internal);
        b.arc_p2t(places[*from], t, *consume);
        b.arc_t2p(t, places[*to], *produce);
    }
    let net = b.build().expect("random net builds");
    let src = net.transition_by_name("src").unwrap();
    (net, src)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_nets_build_and_shrink_within_the_domain() {
        for strategy in [
            random_net_strategy(),
            wide_net_strategy(),
            hub_net_strategy(),
        ] {
            let mut rng = TestRng::new("testgen-domain");
            for _ in 0..64 {
                let desc = strategy.generate(&mut rng);
                let (net, src) = build_random(&desc);
                assert_eq!(net.num_places(), desc.initial.len());
                assert_eq!(net.num_transitions(), desc.arcs.len() + 1);
                assert!(net.uncontrollable_sources().contains(&src));
                for cand in strategy.shrink(&desc) {
                    // Every shrink candidate stays buildable and is simpler
                    // in at least one dimension.
                    let (cnet, _) = build_random(&cand);
                    assert!(cnet.num_transitions() <= net.num_transitions());
                    assert_ne!(cand, desc);
                }
            }
        }
    }

    #[test]
    fn wide_profile_is_wide_and_sparse() {
        let strategy = wide_net_strategy();
        let mut rng = TestRng::new("testgen-wide");
        let (mut total_places, mut total_marked) = (0usize, 0usize);
        for _ in 0..32 {
            let desc = strategy.generate(&mut rng);
            assert!(desc.initial.len() >= 12, "wide nets have many places");
            total_places += desc.initial.len();
            total_marked += desc.initial.iter().filter(|&&c| c > 0).count();
        }
        // Sparse: on average well under a third of the places start marked.
        assert!(total_marked * 3 < total_places);
    }

    #[test]
    fn hub_profile_has_hubs_and_nested_choices() {
        use qss_petri::EcsInfo;
        let strategy = hub_net_strategy();
        let mut rng = TestRng::new("testgen-hub");
        let mut nets_with_multi_ecs = 0usize;
        let mut nets_with_hub = 0usize;
        let samples = 32;
        for _ in 0..samples {
            let desc = strategy.generate(&mut rng);
            assert!(desc.initial.len() >= 96, "hub nets have hundreds of places");
            let (net, _) = build_random(&desc);
            let ecs = EcsInfo::compute(&net);
            // Preset duplication creates multi-member ECSs (nested choices).
            if ecs.ecs_ids().any(|e| ecs.members(e).len() > 1) {
                nets_with_multi_ecs += 1;
            }
            // Hub places concentrate fan-in/fan-out well above uniform.
            let mut fan = vec![0usize; desc.initial.len()];
            for &(from, to, _, _) in &desc.arcs {
                fan[from] += 1;
                fan[to] += 1;
            }
            if fan.iter().any(|&f| f >= 5) {
                nets_with_hub += 1;
            }
        }
        assert!(nets_with_multi_ecs * 2 > samples, "most nets nest choices");
        assert!(nets_with_hub * 2 > samples, "most nets grow a hub");
    }

    #[test]
    fn shrinking_reaches_a_fixpoint() {
        // Repeatedly taking the first candidate terminates (no cycles).
        let strategy = random_net_strategy();
        let mut rng = TestRng::new("testgen-fixpoint");
        let mut desc = strategy.generate(&mut rng);
        for _ in 0..1000 {
            match strategy.shrink(&desc).into_iter().next() {
                Some(next) => desc = next,
                None => return,
            }
        }
        panic!("shrinking did not terminate");
    }
}
