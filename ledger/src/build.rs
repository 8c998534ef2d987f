//! One build of one system through the public `Pipeline` API — the calls
//! `qssc build FILE --emit c,json --events ... --report` makes — with a
//! span around each layer's call, and the check of its outputs against
//! the generator's oracle.

use crate::gen::System;
use crate::trace::Tracer;
use qss::{Pipeline, PipelineConfig, SearchContext, SearchProfile};
use qss_obs::SpanId;
use std::sync::Arc;

/// The spans of one build, in pipeline order: `(span name, layer)`.
pub const BUILD_SPANS: [&str; 7] = [
    "flowc.parse",
    "flowc.link",
    "core.context",
    "core.search",
    "codegen.generate",
    "sim.simulate",
    "pipeline.encode",
];

/// The root span every layer span of one build hangs under.
pub const BUILD_ROOT: &str = "build";

/// What one successful, verified build produced.
#[derive(Debug, Clone, Default)]
pub struct BuildFacts {
    /// Cycles the generated single task(s) took on the system's events.
    pub task_cycles: u64,
    /// Estimated object size of the generated task(s), in bytes.
    pub code_bytes: u64,
    /// Bytes of emitted C.
    pub c_bytes: usize,
    /// Code segments over all generated tasks.
    pub segments: usize,
    /// Bytes of the pretty-printed task and simulation artifacts.
    pub artifact_bytes: usize,
    /// Bytes of FlowC source.
    pub source_bytes: usize,
    /// Places and transitions of the linked net.
    pub places: usize,
    pub transitions: usize,
    /// Environment events simulated.
    pub events: usize,
    /// The search's own counters.
    pub profile: SearchProfile,
    /// Compact stage-2 and stage-3 artifact JSON — the bytes `qssd`
    /// must answer `schedule` and `generate` with — when asked for.
    pub wire: Option<(String, String)>,
}

/// Builds `system` from source to emitted C, artifact JSON, simulation
/// and report, and checks every output against the oracle. With `wire`,
/// also keeps the compact schedule and task artifacts (encoded outside
/// the layer spans).
///
/// # Errors
/// A message naming the failing stage or the first wrong output.
pub fn build(system: &System, tracer: &Tracer, wire: bool) -> Result<BuildFacts, String> {
    let root = tracer.begin(BUILD_ROOT, SpanId::NONE);
    let facts = build_spans(system, tracer, root, wire);
    tracer.end(root, BUILD_ROOT);
    facts
}

fn build_spans(
    system: &System,
    tracer: &Tracer,
    root: SpanId,
    wire: bool,
) -> Result<BuildFacts, String> {
    let fail = |stage: &str| {
        let label = system.label.clone();
        let stage = stage.to_string();
        move |e: qss::QssError| format!("{label}: {stage} failed: {e}")
    };
    let config = PipelineConfig {
        multitask_buffer_size: system.buffer,
        ..PipelineConfig::default()
    };
    let pipeline = tracer
        .span("flowc.parse", root, || {
            Pipeline::from_source(&system.source)
        })
        .map_err(fail("parse"))?
        .with_config(config);
    let linked = tracer
        .span("flowc.link", root, || pipeline.link())
        .map_err(fail("link"))?;
    let context = tracer.span("core.context", root, || {
        Arc::new(SearchContext::new(&linked.system.net))
    });
    let (places, transitions) = (
        linked.system.net.num_places(),
        linked.system.net.num_transitions(),
    );
    let scheduled = tracer
        .span("core.search", root, || {
            linked.schedule_with_context(context)
        })
        .map_err(fail("schedule"))?;
    let profile = scheduled.search_profile().cloned().unwrap_or_default();
    let schedule_json = wire.then(|| scheduled.to_json());
    let task = tracer
        .span("codegen.generate", root, || scheduled.generate())
        .map_err(fail("generate"))?;
    let sim = tracer
        .span("sim.simulate", root, || task.simulate(&system.events))
        .map_err(fail("simulate"))?;
    let (artifact_bytes, report) = tracer.span("pipeline.encode", root, || {
        let bytes = task.to_json_pretty().len() + sim.to_json_pretty().len();
        (bytes, task.report(Some(&sim)))
    });

    if !sim.outputs_match {
        return Err(format!(
            "{}: the single task and the process network disagree: {:?} vs {:?} (oracle {:?})",
            system.label,
            first_values(&sim.single.outputs),
            first_values(&sim.multi.outputs),
            first_values(&system.expected)
        ));
    }
    if sim.single.outputs != system.expected {
        return Err(format!(
            "{}: outputs {:?} differ from the oracle's {:?}",
            system.label,
            first_values(&sim.single.outputs),
            first_values(&system.expected)
        ));
    }
    if let Some(golden) = &system.golden_report {
        if &report.to_json_pretty() != golden {
            return Err(format!(
                "{}: report differs from the golden file",
                system.label
            ));
        }
    }
    Ok(BuildFacts {
        task_cycles: sim.single.cycles,
        code_bytes: report.tasks.iter().map(|t| t.code_bytes).sum(),
        c_bytes: task.tasks.iter().map(|t| t.code.len()).sum(),
        segments: report.tasks.iter().map(|t| t.segments).sum(),
        artifact_bytes,
        source_bytes: system.source.len(),
        places,
        transitions,
        events: system.events.len(),
        profile,
        wire: schedule_json.map(|schedule| (schedule, task.to_json())),
    })
}

/// The first few values per port, for a readable mismatch message.
fn first_values(
    outputs: &std::collections::BTreeMap<String, Vec<i64>>,
) -> Vec<(String, usize, Vec<i64>)> {
    outputs
        .iter()
        .map(|(port, values)| {
            (
                port.clone(),
                values.len(),
                values.iter().take(4).copied().collect(),
            )
        })
        .collect()
}
