//! Simulation inputs (environment events) and outputs (reports).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One occurrence of an environment input: a value arriving at an
/// uncontrollable (or controllable) input port.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EnvEvent {
    /// Owning process of the port.
    pub process: String,
    /// Port name.
    pub port: String,
    /// Values delivered (one per item of the port's rate).
    pub values: Vec<i64>,
}

impl EnvEvent {
    /// Creates a single-value event for `process.port`.
    pub fn new(process: impl Into<String>, port: impl Into<String>, value: i64) -> Self {
        EnvEvent {
            process: process.into(),
            port: port.into(),
            values: vec![value],
        }
    }
}

/// The outcome of a simulation run.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SimReport {
    /// Total cycles charged by the cost model.
    pub cycles: u64,
    /// Number of context switches performed (multi-task executor only).
    pub context_switches: u64,
    /// Number of scheduling decisions taken by the RTOS.
    pub dispatches: u64,
    /// Number of communication operations executed.
    pub channel_ops: u64,
    /// Number of transitions (code fragments) executed.
    pub transitions_fired: u64,
    /// Number of environment events processed.
    pub events_processed: u64,
    /// Values written to each environment output port, in order.
    pub outputs: BTreeMap<String, Vec<i64>>,
}

impl SimReport {
    /// The values written to output port `process.port`, if any.
    pub fn output(&self, process: &str, port: &str) -> &[i64] {
        self.outputs
            .get(&format!("{process}.{port}"))
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Cycles in thousands, the unit used by Table 1 of the paper.
    pub fn kcycles(&self) -> u64 {
        self.cycles / 1_000
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_constructor() {
        let e = EnvEvent::new("controller", "init", 7);
        assert_eq!(e.process, "controller");
        assert_eq!(e.values, vec![7]);
    }

    #[test]
    fn report_outputs_round_trip() {
        let mut r = SimReport::default();
        r.outputs.insert("consumer.out".into(), vec![10, 20]);
        assert_eq!(r.output("consumer", "out"), &[10, 20]);
        assert_eq!(r.output("consumer", "missing"), &[] as &[i64]);
        r.cycles = 12_345;
        assert_eq!(r.kcycles(), 12);
    }
}
