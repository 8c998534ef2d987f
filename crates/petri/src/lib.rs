//! Petri-net kernel for quasi-static scheduling.
//!
//! This crate provides the underlying formal model used by the whole
//! workspace: weighted place/transition nets with an initial marking, the
//! notions of *equal conflict sets* (ECS), Equal-Choice and Unique-Choice
//! classification, reachability exploration, incidence matrices,
//! non-negative T-invariant bases and *place degrees* (the structural bound
//! used by the irrelevant-marking pruning criterion of Cortadella et al.,
//! DAC 2000).
//!
//! # Quick example
//!
//! ```
//! use qss_petri::{NetBuilder, TransitionKind};
//!
//! let mut b = NetBuilder::new("producer-consumer");
//! let buf = b.place("buf", 0);
//! let src = b.transition("produce", TransitionKind::UncontrollableSource);
//! let snk = b.transition("consume", TransitionKind::Internal);
//! b.arc_t2p(src, buf, 1);
//! b.arc_p2t(buf, snk, 1);
//! let net = b.build().unwrap();
//!
//! let m0 = net.initial_marking();
//! assert!(net.is_enabled(snk, &m0) == false);
//! let m1 = net.fire(src, &m0).unwrap();
//! assert!(net.is_enabled(snk, &m1));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod analysis;
pub mod dot;
pub mod ecs;
pub mod error;
pub mod fingerprint;
pub mod fx;
pub mod ids;
pub mod invariant;
pub mod marking;
pub mod net;
pub mod reach;
pub mod store;
pub mod structural;

pub use analysis::{place_degree, NetAnalysis};
pub use ecs::{ChoiceClass, EcsId, EcsInfo};
pub use error::{NetError, Result};
pub use fingerprint::{net_fingerprint, net_ordered_digest};
pub use fx::{FxHashMap, FxHashSet};
pub use ids::{PlaceId, TransitionId};
pub use invariant::{
    incidence_matrix, p_invariant_basis, p_invariant_basis_dense, p_invariant_elimination,
    t_invariant_basis, t_invariant_basis_dense, IncidenceMatrix, PInvariant, TInvariant,
};
pub use marking::{format_marking, marking_hash, place_count_hash, Marking};
pub use net::{NetBuilder, PetriNet, Place, PlaceKind, Transition, TransitionKind};
pub use reach::{ReachabilityGraph, ReachabilityLimits};
pub use store::{MarkingId, MarkingStore};
pub use structural::{
    structural_report, structural_report_dense, ComponentEnumeration, EnumerationStatus,
    PlaceFacts, PlaceSet, StructuralLimits, StructuralReport,
};
