//! Name resolution and mutable state shared by the two executors.
//!
//! FlowC statements name their ports, and the linked system keys its
//! metadata by process and port name. [`RunState::new`] resolves those
//! names once per run, in one pass over the system's port, channel and
//! environment tables: a process is its position in `process_names`, a
//! port is its place plus its environment role, and a transition is its
//! process index plus a borrow of its code. The executor loops then work
//! on indices only: process environments live in a `Vec` indexed by
//! process, channel queues in one indexed by place, and environment
//! outputs in one indexed by output port, turned into the report's
//! name-keyed map once at the end.

use crate::channels::ChannelState;
use crate::env::{ChannelIo, ExecCounters, ProcessEnv};
use crate::error::{Result, SimError};
use crate::report::EnvEvent;
use qss_flowc::{EnvInputInfo, LinkedSystem, Stmt, TransitionCode};
use qss_petri::{PlaceId, TransitionId};
use std::collections::BTreeMap;

/// Where a port operation of one process goes.
#[derive(Debug, Clone, Copy)]
struct PortRoute {
    place: PlaceId,
    /// Index into `env_inputs` if the port is an environment input.
    env_input: Option<usize>,
    /// Index into `env_outputs` if the port is an environment output.
    env_output: Option<usize>,
}

/// The names of a linked system, resolved to indices.
struct Routes<'a> {
    system: &'a LinkedSystem,
    process_index: BTreeMap<&'a str, usize>,
    /// `(port name, route)` of every port, grouped by process and sorted
    /// by port name within a group.
    ports: Vec<(&'a str, PortRoute)>,
    /// Per process: its group in `ports`.
    port_groups: Vec<std::ops::Range<usize>>,
    /// Per transition: its process index and code (`None` for the
    /// environment's source and sink transitions).
    code: Vec<Option<(usize, &'a TransitionCode)>>,
}

impl<'a> Routes<'a> {
    fn new(system: &'a LinkedSystem) -> Self {
        // Every environment port has a place of its own, so the place
        // tells a port's environment role.
        let places = system.net.num_places();
        let mut env_input = vec![None; places];
        for (i, input) in system.env_inputs.iter().enumerate() {
            env_input[input.place.index()] = Some(i);
        }
        let mut env_output = vec![None; places];
        for (i, output) in system.env_outputs.iter().enumerate() {
            env_output[output.place.index()] = Some(i);
        }
        let process_index: BTreeMap<&str, usize> = system
            .process_names
            .iter()
            .enumerate()
            .map(|(i, name)| (name.as_str(), i))
            .collect();
        // `port_places` iterates in (process, port) order, so every
        // process's ports form one group sorted by port name.
        let mut ports = Vec::with_capacity(system.port_places.len());
        let mut port_groups = vec![0..0; system.process_names.len()];
        for ((process, port), &place) in &system.port_places {
            if let Some(&p) = process_index.get(process.as_str()) {
                if port_groups[p].is_empty() {
                    port_groups[p] = ports.len()..ports.len();
                }
                port_groups[p].end += 1;
                let route = PortRoute {
                    place,
                    env_input: env_input[place.index()],
                    env_output: env_output[place.index()],
                };
                ports.push((port.as_str(), route));
            }
        }
        let mut code = vec![None; system.net.num_transitions()];
        for (t, c) in &system.transition_code {
            code[t.index()] = process_index.get(c.process.as_str()).map(|&p| (p, c));
        }
        Routes {
            system,
            process_index,
            ports,
            port_groups,
            code,
        }
    }

    fn port(&self, process: usize, port: &str) -> Option<PortRoute> {
        let ports = &self.ports[self.port_groups[process].clone()];
        ports
            .binary_search_by(|(name, _)| (*name).cmp(port))
            .ok()
            .map(|i| ports[i].1)
    }
}

/// Environment traffic of one code fragment: operations and items that
/// crossed the task boundary.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EnvTraffic {
    pub(crate) ops: u64,
    pub(crate) items: u64,
}

/// The executor-independent state of one run: resolved names, process
/// variables, channel queues and the values written to the environment.
pub(crate) struct RunState<'a> {
    routes: Routes<'a>,
    envs: Vec<ProcessEnv>,
    pub(crate) channels: ChannelState,
    outputs: Vec<Vec<i64>>,
    /// Reused buffer for the values of a read.
    scratch: Vec<i64>,
    /// Whether a short read is a multi-task deadlock (rather than a
    /// schedule inconsistency of the single task).
    multitask: bool,
}

impl<'a> RunState<'a> {
    /// Resolves the names of `system` and creates zeroed process
    /// variables and empty channels. `buffer` is the channel capacity of
    /// the multi-task executor (see [`ChannelState::for_system`]); `None`
    /// sets up the single task, whose intra-task buffers are unbounded.
    pub(crate) fn new(system: &'a LinkedSystem, buffer: Option<u32>) -> Self {
        let envs = system
            .process_names
            .iter()
            .map(|name| {
                let decls = system.declarations.get(name).map(Vec::as_slice);
                ProcessEnv::new(name.clone(), decls.unwrap_or_default())
            })
            .collect();
        RunState {
            routes: Routes::new(system),
            envs,
            channels: ChannelState::for_system(system, buffer),
            outputs: vec![Vec::new(); system.env_outputs.len()],
            scratch: Vec::new(),
            multitask: buffer.is_some(),
        }
    }

    /// The linked system being run.
    pub(crate) fn system(&self) -> &'a LinkedSystem {
        self.routes.system
    }

    /// The process index and code of transition `t` (`None` for the
    /// environment's source and sink transitions).
    pub(crate) fn code(&self, t: TransitionId) -> Option<(usize, &'a TransitionCode)> {
        self.routes.code[t.index()]
    }

    /// The variables of process `process`.
    pub(crate) fn env(&self, process: usize) -> &ProcessEnv {
        &self.envs[process]
    }

    /// The environment input an event arrives at.
    ///
    /// # Errors
    /// Returns [`SimError::UnknownPort`] if the event does not name an
    /// environment input port.
    pub(crate) fn event_input(&self, event: &EnvEvent) -> Result<&'a EnvInputInfo> {
        let routes = &self.routes;
        routes
            .process_index
            .get(event.process.as_str())
            .and_then(|&p| routes.port(p, &event.port))
            .and_then(|route| route.env_input)
            .map(|i| &routes.system.env_inputs[i])
            .ok_or_else(|| SimError::UnknownPort(format!("{}.{}", event.process, event.port)))
    }

    /// Executes `stmts` in the context of process `process`.
    pub(crate) fn exec(
        &mut self,
        process: usize,
        stmts: &[Stmt],
        counters: &mut ExecCounters,
    ) -> Result<EnvTraffic> {
        let mut io = PortIo {
            routes: &self.routes,
            process,
            channels: &mut self.channels,
            outputs: &mut self.outputs,
            scratch: &mut self.scratch,
            multitask: self.multitask,
            traffic: EnvTraffic::default(),
        };
        self.envs[process].exec_stmts(stmts, &mut io, counters)?;
        Ok(io.traffic)
    }

    /// The values written to every environment output port that received
    /// any, keyed `process.port`.
    pub(crate) fn into_outputs(self) -> BTreeMap<String, Vec<i64>> {
        let system = self.routes.system;
        system
            .env_outputs
            .iter()
            .zip(self.outputs)
            .filter(|(_, values)| !values.is_empty())
            .map(|(output, values)| (format!("{}.{}", output.process, output.port), values))
            .collect()
    }
}

/// The [`ChannelIo`] of one process during one code fragment.
struct PortIo<'s, 'a> {
    routes: &'s Routes<'a>,
    process: usize,
    channels: &'s mut ChannelState,
    outputs: &'s mut [Vec<i64>],
    scratch: &'s mut Vec<i64>,
    multitask: bool,
    traffic: EnvTraffic,
}

impl PortIo<'_, '_> {
    fn route(&self, port: &str) -> Result<PortRoute> {
        self.routes.port(self.process, port).ok_or_else(|| {
            let process = &self.routes.system.process_names[self.process];
            SimError::UnknownPort(format!("{process}.{port}"))
        })
    }
}

impl ChannelIo for PortIo<'_, '_> {
    fn read_port(&mut self, port: &str, n: u32) -> Result<&[i64]> {
        let route = self.route(port)?;
        if route.env_input.is_some() {
            self.traffic.ops += 1;
            self.traffic.items += n as u64;
        }
        if !self
            .channels
            .pop_into(route.place, n as usize, self.scratch)
        {
            let process = &self.routes.system.process_names[self.process];
            return Err(if self.multitask {
                SimError::Deadlock(format!(
                    "read of {n} items from `{process}.{port}` with insufficient data"
                ))
            } else {
                SimError::Schedule(format!(
                    "schedule read {n} items from `{process}.{port}` but the buffer is empty"
                ))
            });
        }
        Ok(self.scratch)
    }

    fn write_port(&mut self, port: &str, values: &[i64]) -> Result<()> {
        let route = self.route(port)?;
        match route.env_output {
            Some(output) => {
                self.traffic.ops += 1;
                self.traffic.items += values.len() as u64;
                self.outputs[output].extend_from_slice(values);
            }
            None => self.channels.push(route.place, values),
        }
        Ok(())
    }
}
