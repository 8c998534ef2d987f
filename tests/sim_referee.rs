//! Executor referee beyond PFC: the full `SimArtifact` JSON of a few small
//! systems, diffed byte for byte against golden files in `tests/golden/`.
//!
//! Between them the systems exercise guarded data-dependent choices
//! (`samples/pipeline.flowc`), SELECT priorities and coupled loops (the
//! Sec. 7.2 false-path rewrite), multi-rate writes and reads (a 4-item
//! burst), and multi-task back-pressure at buffer 1. Both executors, the
//! cost model and the report encoding must leave every byte unchanged.

use qss::{EnvEvent, Pipeline, PipelineConfig, SimArtifact};
use qss_flowc::{examples, parse_process, SystemSpec};
use std::path::PathBuf;

/// A producer writing 4 items per trigger into a channel its consumer
/// reads 4 items at a time.
const BURST: &str = r#"
SYSTEM burst {
    CHANNEL p.data -> c.data;
    INPUT p.trigger UNCONTROLLABLE;
}

PROCESS p (In DPORT trigger, Out DPORT data) {
    int t, buf[4];
    while (1) {
        READ_DATA(trigger, t, 1);
        buf[0] = t;
        buf[1] = t + 1;
        buf[2] = t * 2;
        buf[3] = 0 - t;
        WRITE_DATA(data, buf, 4);
    }
}

PROCESS c (In DPORT data, Out DPORT sum) {
    int v[4], s;
    while (1) {
        READ_DATA(data, v, 4);
        s = s + v[0] + v[1] + v[2] + v[3];
        WRITE_DATA(sum, s, 1);
    }
}
"#;

fn repo_file(path: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(path)
}

fn simulate(pipeline: Pipeline, buffer: u32, events: &[EnvEvent]) -> SimArtifact {
    let config = PipelineConfig {
        multitask_buffer_size: buffer,
        ..PipelineConfig::default()
    };
    pipeline
        .with_config(config)
        .link()
        .unwrap()
        .schedule()
        .unwrap()
        .generate()
        .unwrap()
        .simulate(events)
        .unwrap()
}

fn assert_golden(name: &str, artifact: &SimArtifact) {
    let path = repo_file("tests/golden").join(name);
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    assert_eq!(
        artifact.to_json_pretty(),
        golden,
        "{name} drifted from its golden file"
    );
}

#[test]
fn sample_pipeline_matches_goldens_at_buffers_1_4_100() {
    let source = std::fs::read_to_string(repo_file("samples/pipeline.flowc")).unwrap();
    let events: Vec<EnvEvent> = [6, 7, 8, 9]
        .into_iter()
        .map(|v| EnvEvent::new("source", "trigger", v))
        .collect();
    for buffer in [1, 4, 100] {
        let sim = simulate(Pipeline::from_source(&source).unwrap(), buffer, &events);
        assert!(sim.outputs_match);
        assert_golden(&format!("pipeline.buffer{buffer}.sim.json"), &sim);
    }
}

#[test]
fn false_path_select_rewrite_matches_goldens_at_buffers_1_16() {
    // Built as `tests/false_paths.rs` builds the SELECT rewrite: the
    // published processes plus the two `done` channels.
    let a = parse_process(examples::FALSE_PATH_A_SELECT).unwrap();
    let b = parse_process(examples::FALSE_PATH_B_SELECT).unwrap();
    let spec = SystemSpec::new("false_paths")
        .with_process(a)
        .with_process(b)
        .with_channel("A.c0", "B.c0", None)
        .unwrap()
        .with_channel("B.c1", "A.c1", None)
        .unwrap()
        .with_channel("A.done0", "B.done0", None)
        .unwrap()
        .with_channel("B.done1", "A.done1", None)
        .unwrap();
    let events: Vec<EnvEvent> = (0..3).map(|i| EnvEvent::new("A", "start", i)).collect();
    // At buffer 1 every item of a burst blocks the writer until the
    // reader has taken the previous one.
    for buffer in [1, 16] {
        let sim = simulate(Pipeline::new(spec.clone()), buffer, &events);
        assert!(sim.outputs_match);
        assert_golden(&format!("false_paths.buffer{buffer}.sim.json"), &sim);
    }
}

#[test]
fn multi_rate_burst_matches_golden_at_buffer_4() {
    let events: Vec<EnvEvent> = [3, -5, 11]
        .into_iter()
        .map(|v| EnvEvent::new("p", "trigger", v))
        .collect();
    let sim = simulate(Pipeline::from_source(BURST).unwrap(), 4, &events);
    assert!(sim.outputs_match);
    assert_golden("burst.buffer4.sim.json", &sim);
}
