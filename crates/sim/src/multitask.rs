//! The multi-task baseline: one RTOS task per FlowC process.
//!
//! This is the implementation the paper compares against: every process of
//! the specification becomes a separate task, channels are bounded FIFO
//! buffers managed by the RTOS, and a round-robin scheduler runs each task
//! until it blocks on a read (not enough data) or a write (not enough
//! space). Context switches and RTOS communication primitives are charged
//! according to the cost model, which is what makes this implementation
//! 4–10× slower than the generated single task (Figure 20 / Table 1).

use crate::cost::CycleCostModel;
use crate::env::ExecCounters;
use crate::error::{Result, SimError};
use crate::report::{EnvEvent, SimReport};
use crate::routes::RunState;
use qss_flowc::LinkedSystem;
use qss_petri::{Marking, NetError, PlaceId, TransitionId, TransitionKind};

/// Configuration of the multi-task executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MultiTaskConfig {
    /// Capacity of every inter-process channel buffer (the x axis of
    /// Figure 20).
    pub buffer_size: u32,
    /// Cycle cost model (compiler-optimisation profile).
    pub cost: CycleCostModel,
    /// Model the communication primitives as inlined code (the paper's
    /// faster variant) instead of RTOS function calls.
    pub inline_communication: bool,
    /// Safety bound on the number of fired transitions.
    pub max_steps: u64,
}

impl MultiTaskConfig {
    /// A configuration with the given buffer size and cost profile.
    pub fn new(buffer_size: u32, cost: CycleCostModel) -> Self {
        MultiTaskConfig {
            buffer_size,
            cost,
            inline_communication: true,
            max_steps: 200_000_000,
        }
    }
}

/// Runs the system as one task per process under a round-robin RTOS.
///
/// # Errors
/// Returns [`SimError`] on deadlock (e.g. a multi-rate write larger than
/// the configured buffers), unknown event ports, or when the step budget
/// is exhausted.
pub fn run_multitask(
    system: &LinkedSystem,
    events: &[EnvEvent],
    config: &MultiTaskConfig,
) -> Result<SimReport> {
    let mut sim = MultiSim::new(system, config);
    sim.run(events)?;
    sim.report.outputs = sim.state.into_outputs();
    Ok(sim.report)
}

/// Per-transition facts the scheduler consults on every step, derived
/// from the net once per run.
#[derive(Debug, Clone, Default)]
struct TransitionPlan {
    /// Positive token growth on channel places: the buffer space a firing
    /// needs.
    growth: Vec<(PlaceId, usize)>,
    /// The first growth that exceeds its channel's capacity: a firing
    /// that can never fit.
    oversized: Option<(PlaceId, usize)>,
    /// Environment sink transitions draining the output places it fills.
    sinks: Vec<TransitionId>,
}

struct MultiSim<'a> {
    state: RunState<'a>,
    config: &'a MultiTaskConfig,
    marking: Marking,
    /// Per process: its transitions in SELECT priority order, ties by id.
    candidates: Vec<Vec<TransitionId>>,
    plans: Vec<TransitionPlan>,
    report: SimReport,
    steps: u64,
}

impl<'a> MultiSim<'a> {
    fn new(system: &'a LinkedSystem, config: &'a MultiTaskConfig) -> Self {
        let state = RunState::new(system, Some(config.buffer_size));
        let net = &system.net;
        let mut candidates = vec![Vec::new(); system.process_names.len()];
        for t in net.transition_ids() {
            if let Some((process, code)) = state.code(t) {
                let priority = code.select.as_ref().map_or(0, |(_, _, p)| *p);
                candidates[process].push((priority, t));
            }
        }
        let candidates = candidates
            .into_iter()
            .map(|mut list| {
                list.sort_unstable();
                list.into_iter().map(|(_, t)| t).collect()
            })
            .collect();
        let mut is_channel = vec![false; net.num_places()];
        for channel in &system.channels {
            is_channel[channel.place.index()] = true;
        }
        let mut sink_of = vec![None; net.num_places()];
        for output in &system.env_outputs {
            if net.transition(output.sink).kind == TransitionKind::Sink {
                sink_of[output.place.index()] = Some(output.sink);
            }
        }
        let plans = net
            .transition_ids()
            .map(|t| {
                let mut plan = TransitionPlan::default();
                for &(p, delta) in net.changed_places(t) {
                    if delta <= 0 {
                        continue;
                    }
                    if is_channel[p.index()] {
                        let grow = delta as usize;
                        plan.growth.push((p, grow));
                        let capacity = state.channels.capacity(p).unwrap_or(usize::MAX);
                        if grow > capacity && plan.oversized.is_none() {
                            plan.oversized = Some((p, grow));
                        }
                    }
                    if let Some(sink) = sink_of[p.index()] {
                        plan.sinks.push(sink);
                    }
                }
                plan
            })
            .collect();
        MultiSim {
            state,
            config,
            marking: net.initial_marking(),
            candidates,
            plans,
            report: SimReport::default(),
            steps: 0,
        }
    }

    fn run(&mut self, events: &[EnvEvent]) -> Result<()> {
        // Run the per-process initialisation code once, as the start-up
        // phase outside the cyclic schedules.
        self.run_init_code()?;
        let processes = self.candidates.len();
        let mut current = 0usize;
        let mut next_event = 0usize;
        // The transition found runnable when switching to `current`: the
        // state has not changed since, so the next step fires it.
        let mut dispatched = None;
        loop {
            self.steps += 1;
            if self.steps > self.config.max_steps {
                return Err(SimError::StepBudgetExhausted(self.config.max_steps));
            }
            let runnable = match dispatched.take() {
                Some(t) => Some(t),
                None => self.pick_runnable(current)?,
            };
            if let Some(t) = runnable {
                self.fire(t)?;
                continue;
            }
            // The current task is blocked: look for another runnable task.
            for offset in 1..processes {
                let candidate = (current + offset) % processes;
                if let Some(t) = self.pick_runnable(candidate)? {
                    self.report.context_switches += 1;
                    self.report.dispatches += 1;
                    self.report.cycles += self.config.cost.cycles_per_context_switch
                        + self.config.cost.cycles_per_dispatch;
                    current = candidate;
                    dispatched = Some(t);
                    break;
                }
            }
            if dispatched.is_some() {
                continue;
            }
            // Nothing can run anywhere: deliver the next environment event.
            if next_event < events.len() {
                self.inject(&events[next_event])?;
                next_event += 1;
                continue;
            }
            break;
        }
        Ok(())
    }

    fn run_init_code(&mut self) -> Result<()> {
        let system = self.state.system();
        for (process, name) in system.process_names.iter().enumerate() {
            let Some(init) = system.init_code.get(name) else {
                continue;
            };
            if init.is_empty() {
                continue;
            }
            let mut counters = ExecCounters::default();
            self.state.exec(process, init, &mut counters)?;
            self.charge(&counters, false);
        }
        Ok(())
    }

    /// The next transition of `process` that can fire, if any: it must be
    /// enabled in the net, its guard must hold, and its writes must fit
    /// into the channel buffers. SELECT arms are prioritised as declared.
    ///
    /// # Errors
    /// Returns [`SimError::Deadlock`] if an enabled transition whose guard
    /// holds writes more items into a channel than its buffer can hold:
    /// it could never fire.
    fn pick_runnable(&self, process: usize) -> Result<Option<TransitionId>> {
        let net = &self.state.system().net;
        for &t in &self.candidates[process] {
            if !net.is_enabled(t, &self.marking) {
                continue;
            }
            let (_, code) = self.state.code(t).expect("candidates carry code");
            if let Some((expr, branch)) = &code.guard {
                match self.state.env(process).eval_guard(expr) {
                    Ok(value) if value == *branch => {}
                    _ => continue,
                }
            }
            let plan = &self.plans[t.index()];
            if let Some((place, grow)) = plan.oversized {
                return Err(self.oversized_write(t, place, grow));
            }
            // The blocking-write rule: the net data increase on every
            // bounded channel place must fit in the remaining buffer space.
            let channels = &self.state.channels;
            if plan
                .growth
                .iter()
                .all(|&(place, grow)| channels.can_accept(place, grow))
            {
                return Ok(Some(t));
            }
        }
        Ok(None)
    }

    fn oversized_write(&self, t: TransitionId, place: PlaceId, grow: usize) -> SimError {
        let system = self.state.system();
        let channel = system
            .channel_by_place(place)
            .expect("growth is tracked on channel places only");
        SimError::Deadlock(format!(
            "transition `{}` writes {grow} items at once into channel `{}` ({}.{} -> {}.{}), \
             whose buffer holds {}",
            system.net.transition(t).name,
            channel.name,
            channel.from.0,
            channel.from.1,
            channel.to.0,
            channel.to.1,
            self.state.channels.capacity(place).unwrap_or(0),
        ))
    }

    fn fire(&mut self, t: TransitionId) -> Result<()> {
        let net = &self.state.system().net;
        if !net.is_enabled(t, &self.marking) {
            return Err(SimError::Schedule(NetError::NotEnabled(t).to_string()));
        }
        net.fire_into(t, &mut self.marking);
        self.report.transitions_fired += 1;
        let plan = &self.plans[t.index()];
        // The environment is always ready to accept outputs: drain what
        // this firing produced on its output ports.
        for &sink in &plan.sinks {
            while net.is_enabled(sink, &self.marking) {
                net.fire_into(sink, &mut self.marking);
            }
        }
        let Some((process, code)) = self.state.code(t) else {
            return Ok(());
        };
        let mut counters = ExecCounters::default();
        if code.guard.is_some() {
            counters.conditions += 1;
        }
        self.state.exec(process, &code.stmts, &mut counters)?;
        self.charge(&counters, true);
        Ok(())
    }

    /// Charges the cost of one executed fragment.
    fn charge(&mut self, counters: &ExecCounters, rtos_comm: bool) {
        let cost = &self.config.cost;
        let mut cycles = counters.statements * cost.cycles_per_statement
            + counters.conditions * cost.cycles_per_condition;
        if rtos_comm {
            let mut comm = counters.port_ops * cost.cycles_per_rtos_call
                + counters.port_items * cost.cycles_per_rtos_item;
            if self.config.inline_communication {
                // Inlining the primitives removes the call overhead
                // (roughly the 30% improvement reported in Sec. 8.2).
                comm = comm * 7 / 10;
            }
            cycles += comm;
        } else {
            cycles += counters.port_items * cost.cycles_per_inline_item;
        }
        self.report.cycles += cycles;
        self.report.channel_ops += counters.port_ops;
    }

    fn inject(&mut self, event: &EnvEvent) -> Result<()> {
        let input = self.state.event_input(event)?;
        let net = &self.state.system().net;
        if !net.is_enabled(input.source, &self.marking) {
            return Err(SimError::Deadlock(format!(
                "environment source for `{}.{}` is not enabled",
                event.process, event.port
            )));
        }
        net.fire_into(input.source, &mut self.marking);
        self.state
            .channels
            .push_padded(input.place, &event.values, input.rate as usize);
        self.report.cycles += self.config.cost.cycles_per_event;
        self.report.events_processed += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pfc::{pfc_events, pfc_expected_outputs, pfc_system, PfcParams};
    use qss_flowc::{parse_process, SystemSpec};

    fn pipeline_system() -> LinkedSystem {
        let producer = parse_process(
            "PROCESS producer (In DPORT trigger, Out DPORT data) {
                 int t;
                 while (1) {
                     READ_DATA(trigger, t, 1);
                     WRITE_DATA(data, t * 2, 1);
                 }
             }",
        )
        .unwrap();
        let consumer = parse_process(
            "PROCESS consumer (In DPORT data, Out DPORT sum) {
                 int x, s;
                 while (1) {
                     READ_DATA(data, x, 1);
                     s = s + x;
                     WRITE_DATA(sum, s, 1);
                 }
             }",
        )
        .unwrap();
        let spec = SystemSpec::new("pipeline")
            .with_process(producer)
            .with_process(consumer)
            .with_channel("producer.data", "consumer.data", None)
            .unwrap();
        qss_flowc::link(&spec).unwrap()
    }

    #[test]
    fn pipeline_functional_output() {
        let system = pipeline_system();
        let events: Vec<EnvEvent> = (1..=4)
            .map(|i| EnvEvent::new("producer", "trigger", i))
            .collect();
        let config = MultiTaskConfig::new(4, CycleCostModel::unoptimized());
        let report = run_multitask(&system, &events, &config).unwrap();
        // Running sums of 2, 4, 6, 8.
        assert_eq!(report.output("consumer", "sum"), &[2, 6, 12, 20]);
        assert_eq!(report.events_processed, 4);
        assert!(report.cycles > 0);
        assert!(report.context_switches >= 4);
    }

    #[test]
    fn pfc_multitask_matches_reference_outputs() {
        let params = PfcParams::tiny();
        let system = pfc_system(&params).unwrap();
        let events = pfc_events(4);
        let config = MultiTaskConfig::new(8, CycleCostModel::unoptimized());
        let report = run_multitask(&system, &events, &config).unwrap();
        assert_eq!(
            report.output("consumer", "out"),
            pfc_expected_outputs(&params, 4).as_slice()
        );
        assert!(report.context_switches > 0);
    }

    #[test]
    fn smaller_buffers_cause_more_context_switches() {
        let params = PfcParams::tiny();
        let system = pfc_system(&params).unwrap();
        let events = pfc_events(3);
        let small = run_multitask(
            &system,
            &events,
            &MultiTaskConfig::new(1, CycleCostModel::unoptimized()),
        )
        .unwrap();
        let large = run_multitask(
            &system,
            &events,
            &MultiTaskConfig::new(16, CycleCostModel::unoptimized()),
        )
        .unwrap();
        assert_eq!(
            small.output("consumer", "out"),
            large.output("consumer", "out")
        );
        assert!(small.context_switches > large.context_switches);
        assert!(small.cycles > large.cycles);
    }

    #[test]
    fn optimization_profiles_reduce_cycles() {
        let params = PfcParams::tiny();
        let system = pfc_system(&params).unwrap();
        let events = pfc_events(2);
        let o0 = run_multitask(
            &system,
            &events,
            &MultiTaskConfig::new(8, CycleCostModel::unoptimized()),
        )
        .unwrap();
        let o2 = run_multitask(
            &system,
            &events,
            &MultiTaskConfig::new(8, CycleCostModel::optimized2()),
        )
        .unwrap();
        assert!(o0.cycles > o2.cycles);
        assert_eq!(o0.output("consumer", "out"), o2.output("consumer", "out"));
    }

    /// `p` writes 4 items per trigger into a channel `c` reads 4 at a time.
    fn burst_system() -> LinkedSystem {
        let producer = parse_process(
            "PROCESS p (In DPORT trigger, Out DPORT data) {
                 int t;
                 while (1) {
                     READ_DATA(trigger, t, 1);
                     WRITE_DATA(data, t, 4);
                 }
             }",
        )
        .unwrap();
        let consumer = parse_process(
            "PROCESS c (In DPORT data, Out DPORT sum) {
                 int v[4], s;
                 while (1) {
                     READ_DATA(data, v, 4);
                     s = s + v[0] + v[3];
                     WRITE_DATA(sum, s, 1);
                 }
             }",
        )
        .unwrap();
        let spec = SystemSpec::new("burst")
            .with_process(producer)
            .with_process(consumer)
            .with_channel("p.data", "c.data", None)
            .unwrap();
        qss_flowc::link(&spec).unwrap()
    }

    #[test]
    fn write_larger_than_the_buffer_is_a_typed_deadlock() {
        let system = burst_system();
        let events: Vec<EnvEvent> = (1..=3).map(|i| EnvEvent::new("p", "trigger", i)).collect();
        let config = MultiTaskConfig::new(2, CycleCostModel::unoptimized());
        match run_multitask(&system, &events, &config) {
            Err(SimError::Deadlock(msg)) => {
                assert!(msg.contains("(p.data -> c.data)"), "{msg}");
                assert!(msg.contains("writes 4 items"), "{msg}");
            }
            other => panic!("expected a deadlock, got {other:?}"),
        }
    }

    #[test]
    fn write_that_fits_the_buffer_runs() {
        let system = burst_system();
        let events: Vec<EnvEvent> = (1..=3).map(|i| EnvEvent::new("p", "trigger", i)).collect();
        let config = MultiTaskConfig::new(4, CycleCostModel::unoptimized());
        let report = run_multitask(&system, &events, &config).unwrap();
        assert_eq!(report.output("c", "sum"), &[2, 6, 12]);
    }

    #[test]
    fn unknown_event_port_is_rejected() {
        let system = pipeline_system();
        let events = vec![EnvEvent::new("producer", "missing", 1)];
        let config = MultiTaskConfig::new(4, CycleCostModel::unoptimized());
        assert!(matches!(
            run_multitask(&system, &events, &config),
            Err(SimError::UnknownPort(_))
        ));
    }
}
