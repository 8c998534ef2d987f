//! The sparse Farkas eliminations against their retained dense oracles on
//! the wide net shapes where the elimination cost used to grow with net
//! size times row count: a service net (a hot two-process path inside
//! many independent ballast cycles) and a long flat pipeline. Both the
//! T- and the P-invariant basis must match the oracle invariant for
//! invariant, in order — uncapped, and at a row cap that stops the
//! elimination in the middle of a round, where both implementations must
//! bail at the same combination.
//!
//! These nets are too large for Miri, so they live here rather than among
//! the `invariant` unit tests.

use qss_petri::{
    p_invariant_basis, p_invariant_basis_dense, t_invariant_basis, t_invariant_basis_dense,
    NetBuilder, PetriNet, PlaceId, TransitionKind,
};

/// A process cycle `idle → busy → idle`: `read` consumes `input` and
/// `write` produces `output` (when given). Returns `(idle, busy)`.
fn process(
    b: &mut NetBuilder,
    name: &str,
    input: PlaceId,
    output: Option<PlaceId>,
) -> (PlaceId, PlaceId) {
    let idle = b.place(format!("{name}.idle"), 1);
    let busy = b.place(format!("{name}.busy"), 0);
    let read = b.transition(format!("{name}.read"), TransitionKind::Internal);
    let write = b.transition(format!("{name}.write"), TransitionKind::Internal);
    b.arc_p2t(idle, read, 1);
    b.arc_p2t(input, read, 1);
    b.arc_t2p(read, busy, 1);
    b.arc_p2t(busy, write, 1);
    b.arc_t2p(write, idle, 1);
    if let Some(output) = output {
        b.arc_t2p(write, output, 1);
    }
    (idle, busy)
}

/// An input place fed by a source transition of the given kind.
fn input(b: &mut NetBuilder, name: &str, kind: TransitionKind) -> PlaceId {
    let place = b.place(format!("{name}.in"), 0);
    let source = b.transition(format!("{name}.src"), kind);
    b.arc_t2p(source, place, 1);
    place
}

/// The service shape: an uncontrollable hot path of two processes joined
/// by a channel, the relay choosing between two outputs, inside
/// `ballast` processes behind controllable inputs.
fn service(ballast: usize) -> PetriNet {
    let mut b = NetBuilder::new(format!("service-{ballast}"));
    let hot_in = input(&mut b, "hot", TransitionKind::UncontrollableSource);
    let channel = b.place("hot.snd", 0);
    process(&mut b, "hot", hot_in, Some(channel));
    // The relay writes to one of two ports: a choice in its busy place.
    let (idle, busy) = process(&mut b, "relay", channel, None);
    let alternative = b.transition("relay.write_alt", TransitionKind::Internal);
    b.arc_p2t(busy, alternative, 1);
    b.arc_t2p(alternative, idle, 1);
    for i in 0..ballast {
        let name = format!("w{i}");
        let inp = input(&mut b, &name, TransitionKind::ControllableSource);
        process(&mut b, &name, inp, None);
    }
    b.build().expect("service net builds")
}

/// A flat pipeline of `stages` processes behind an uncontrollable input,
/// each stage reading the channel its predecessor writes. With
/// `branches > 1` the input has that many sources and every stage writes
/// through as many alternative transitions, so every place has several
/// producers or several consumers.
fn flat(stages: usize, branches: usize) -> PetriNet {
    let mut b = NetBuilder::new(format!("flat-{stages}x{branches}"));
    let mut inp = input(&mut b, "head", TransitionKind::UncontrollableSource);
    for i in 1..branches {
        let source = b.transition(format!("head.src{i}"), TransitionKind::UncontrollableSource);
        b.arc_t2p(source, inp, 1);
    }
    for i in 0..stages {
        let name = format!("s{i}");
        let out = (i + 1 < stages).then(|| b.place(format!("c{i}"), 0));
        let (idle, busy) = process(&mut b, &name, inp, out);
        for k in 1..branches {
            let alternative = b.transition(format!("{name}.write{k}"), TransitionKind::Internal);
            b.arc_p2t(busy, alternative, 1);
            b.arc_t2p(alternative, idle, 1);
            if let Some(out) = out {
                b.arc_t2p(alternative, out, 1);
            }
        }
        if let Some(out) = out {
            inp = out;
        }
    }
    b.build().expect("flat net builds")
}

/// Asserts both bases equal their dense oracles at `row_cap`.
fn assert_matches_oracles(net: &PetriNet, row_cap: usize) {
    assert_eq!(
        t_invariant_basis(net, row_cap),
        t_invariant_basis_dense(net, row_cap),
        "T-bases differ on {} at row cap {row_cap}",
        net.name()
    );
    assert_eq!(
        p_invariant_basis(net, row_cap),
        p_invariant_basis_dense(net, row_cap),
        "P-bases differ on {} at row cap {row_cap}",
        net.name()
    );
}

/// Asserts both bases equal their dense oracles at `t_cap`, `p_cap` and
/// one below each, and that `t_cap` truncates the T-basis and `p_cap` the
/// P-basis: the elimination bailed out, it did not finish under the cap.
fn assert_matches_oracles_when_capped(net: &PetriNet, t_cap: usize, p_cap: usize) {
    for cap in [t_cap - 1, t_cap, p_cap - 1, p_cap] {
        assert_matches_oracles(net, cap);
    }
    assert_ne!(
        t_invariant_basis(net, t_cap),
        t_invariant_basis(net, NO_CAP)
    );
    assert_ne!(
        p_invariant_basis(net, p_cap),
        p_invariant_basis(net, NO_CAP)
    );
}

const NO_CAP: usize = 50_000;

#[test]
fn service_nets_match_the_dense_oracles() {
    for ballast in [20, 50] {
        let net = service(ballast);
        assert_matches_oracles(&net, NO_CAP);
        // One cycle per ballast process, plus the hot path's two branches.
        assert_eq!(t_invariant_basis(&net, NO_CAP).len(), ballast + 2);
        assert_eq!(p_invariant_basis(&net, NO_CAP).len(), ballast + 2);
    }
}

#[test]
fn service_nets_match_the_dense_oracles_when_capped() {
    // The row counts just before the first combination of a round: the
    // T-elimination's first round keeps all transitions but the two on
    // the hot input; the P-elimination first drops one place per source,
    // then keeps all but the two places of the hot process' read.
    for ballast in [20, 50] {
        let net = service(ballast);
        let (nt, np) = (net.num_transitions(), net.num_places());
        let sources = ballast + 1;
        assert_matches_oracles_when_capped(&net, nt - 2, np - sources - 2);
    }
}

#[test]
fn flat_pipeline_matches_the_dense_oracles() {
    let net = flat(64, 1);
    assert_matches_oracles(&net, NO_CAP);
    assert_eq!(t_invariant_basis(&net, NO_CAP).len(), 1);
    assert_eq!(p_invariant_basis(&net, NO_CAP).len(), 64);
    // Same shape of first rounds as the service net, with one source.
    let (nt, np) = (net.num_transitions(), net.num_places());
    assert_matches_oracles_when_capped(&net, nt - 2, np - 3);
}

#[test]
fn branching_pipeline_bails_in_the_middle_of_a_round() {
    // Every combining round of the T-elimination makes several
    // combinations here: the first one keeps all transitions but the two
    // sources and the first read, then combines each source with that
    // read. A cap at that row count stops the round after its first
    // combination. (Each stage doubles the invariants: keep it short.)
    let net = flat(4, 2);
    assert_matches_oracles(&net, NO_CAP);
    assert_eq!(t_invariant_basis(&net, NO_CAP).len(), 2 << 4);
    let nt = net.num_transitions();
    assert_matches_oracles_when_capped(&net, nt - 3, net.num_places() - 3);
}

#[test]
fn columns_without_non_zeros_are_skipped_pivots() {
    // `gate` sits on a self-loop of the hot read and `spare` has no arcs
    // at all: both are all-zero columns of the T-elimination. `tick` only
    // loops on `gate`: an all-zero column of the P-elimination.
    let mut b = NetBuilder::new("zero-columns");
    let hot_in = input(&mut b, "hot", TransitionKind::UncontrollableSource);
    process(&mut b, "hot", hot_in, None);
    for i in 0..4 {
        let name = format!("w{i}");
        let inp = input(&mut b, &name, TransitionKind::ControllableSource);
        process(&mut b, &name, inp, None);
    }
    let gate = b.place("gate", 1);
    b.place("spare", 0);
    let hot_read = b.transition("hot.read_gated", TransitionKind::Internal);
    b.arc_p2t(hot_in, hot_read, 1);
    b.arc_p2t(gate, hot_read, 1);
    b.arc_t2p(hot_read, gate, 1);
    let tick = b.transition("tick", TransitionKind::Internal);
    b.arc_p2t(gate, tick, 1);
    b.arc_t2p(tick, gate, 1);
    let net = b.build().expect("zero-column net builds");

    assert_matches_oracles(&net, NO_CAP);
    let basis = t_invariant_basis(&net, NO_CAP);
    assert!(basis.iter().all(|inv| inv.is_valid_for(&net)));
    let tick = net.transition_by_name("tick").expect("tick");
    assert!(basis.iter().any(|inv| inv.support() == vec![tick]));
    let gate = net.place_by_name("gate").expect("gate");
    assert!(p_invariant_basis(&net, NO_CAP)
        .iter()
        .any(|inv| inv.support() == vec![gate]));
}
