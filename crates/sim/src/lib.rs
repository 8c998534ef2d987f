//! Execution and cost-model substrate for the QSS reproduction.
//!
//! The paper evaluates its synthesis flow on an R3000 workstation running
//! a multimedia application (producer / filter / consumer / controller,
//! "PFC"), comparing the single generated task against the naive
//! implementation in which every FlowC process becomes its own RTOS task.
//! We do not have that testbed, so this crate provides a deterministic
//! substitute:
//!
//! * a cycle-count **cost model** ([`cost::CycleCostModel`]) with three
//!   profiles standing in for the `pfc`, `pfc-O` and `pfc-O2` compiler
//!   options,
//! * a **multi-task executor** ([`multitask`]) that interprets the linked
//!   Petri net process by process under a round-robin RTOS with bounded
//!   FIFO channels, charging context switches and RTOS communication
//!   calls,
//! * a **single-task executor** ([`singletask`]) that drives the system
//!   through its quasi-static schedule, charging only the inlined
//!   communication of the generated task,
//! * the **PFC application** itself, written in FlowC ([`pfc`]), together
//!   with a frame-based workload generator,
//! * a **code-size model** ([`codesize`]) reproducing the Table 2
//!   comparison.
//!
//! Both executors compute the values written to the environment output
//! ports, so functional equivalence of the two implementations can be
//! asserted — the role VCC simulation played in the paper.
//!
//! Each run resolves the system's names once, before the first event:
//! every process becomes its index in `process_names`, every port its
//! place and environment role, every transition its process index and a
//! borrow of its code. The executor loops then run on indices — process
//! variables in a `Vec` indexed by process, channel queues
//! ([`ChannelState`]) in one indexed by place, environment outputs in one
//! indexed by output port — and allocate nothing per fired transition or
//! port operation. The multi-task scheduler also keeps each process's
//! transitions pre-sorted by SELECT priority and each transition's
//! channel growth, so a scheduling step costs the candidates of one
//! process rather than a scan of the whole system.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channels;
pub mod codesize;
pub mod cost;
pub mod env;
pub mod error;
pub mod multitask;
pub mod pfc;
pub mod report;
mod routes;
pub mod singletask;

pub use channels::ChannelState;
pub use codesize::{process_network_size, size_report, task_size, SizeReport};
pub use cost::CycleCostModel;
pub use env::{ChannelIo, ProcessEnv};
pub use error::{Result, SimError};
pub use multitask::{run_multitask, MultiTaskConfig};
pub use pfc::{pfc_events, pfc_expected_outputs, pfc_spec, pfc_system, PfcParams};
pub use report::{EnvEvent, SimReport};
pub use singletask::{run_singletask, SingleTaskConfig};
