//! The two local compile workloads, `compile_search` and `compile_wide`:
//! one thread builds a seeded corpus through the public `Pipeline` API,
//! pass after pass, for the measured time.

use crate::build::{build, BuildFacts, BUILD_ROOT, BUILD_SPANS};
use crate::cpu::{reference_work, Affinity, REFERENCE_MS};
use crate::gen::{self, Family, Rng, System};
use crate::metrics::Outcome;
use crate::stats;
use crate::trace::{self_times_ms, Span, Tracer};
use std::path::Path;
use std::time::Instant;

/// Set-ups per CPU in a run; `setup_s` is built from the per-CPU medians.
pub const SETUP_ROUNDS: usize = 10;

/// CPUs a run visits at most: the first ones it may run on. More would
/// lengthen the minimum run (MIN_PASSES_PER_CPU on each) and average the
/// figures over a different set of CPUs on a larger host.
pub const MAX_CPUS: usize = 2;

/// Which compile corpus to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corpus {
    /// Control and data rates dominate: multi-rate dividers, branchy
    /// chains, PFC and `samples/pipeline.flowc`.
    Search,
    /// Many processes, small reactions: service nets inside ballast and
    /// long flat pipelines.
    Wide,
}

impl Corpus {
    /// The families of the corpus, one system each, in build order.
    pub fn families(self) -> Vec<Family> {
        match self {
            Corpus::Search => vec![
                Family::Divider {
                    depth: 2,
                    rate: 32,
                    outputs: 2,
                },
                Family::Divider {
                    depth: 2,
                    rate: 16,
                    outputs: 8,
                },
                Family::Divider {
                    depth: 3,
                    rate: 8,
                    outputs: 4,
                },
                Family::Branchy {
                    stages: 6,
                    events: 400,
                },
                Family::Branchy {
                    stages: 8,
                    events: 400,
                },
                Family::Pfc { frames: 50 },
            ],
            Corpus::Wide => [50, 100, 200]
                .map(|ballast| Family::Service { ballast, events: 4 })
                .into_iter()
                .chain([64, 128, 200, 256].map(|stages| Family::Flat { stages, events: 4 }))
                .collect(),
        }
    }
}

/// Generates the corpus of `corpus` for `seed`. The search corpus also
/// carries `samples/pipeline.flowc` (read from the checkout) with its
/// golden report.
///
/// # Errors
/// When the sample or its golden report cannot be read.
pub fn generate_corpus(corpus: Corpus, seed: u64, root: &Path) -> Result<Vec<System>, String> {
    let mut rng = Rng::new(seed);
    let mut systems: Vec<System> = corpus
        .families()
        .into_iter()
        .enumerate()
        .map(|(i, family)| gen::generate(family, &mut rng, &format!("{i}")))
        .collect();
    if corpus == Corpus::Search {
        systems.push(read_sample(root)?);
    }
    Ok(systems)
}

/// `samples/pipeline.flowc` and its golden report.
pub fn read_sample(root: &Path) -> Result<System, String> {
    let read = |name: &str| {
        let path = root.join("samples").join(name);
        std::fs::read_to_string(&path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    Ok(gen::sample(
        read("pipeline.flowc")?,
        read("pipeline.report.golden.json")?,
    ))
}

/// Runs one compile workload for `seconds` and fills the outcome.
pub fn run(corpus: Corpus, seed: u64, seconds: u64, traced: bool, root: &Path) -> Outcome {
    let mut out = Outcome::default();
    let original = match Affinity::current() {
        Ok(mask) => mask,
        Err(e) => {
            out.wrong(format!("cannot read the CPU affinity: {e}"));
            return out;
        }
    };
    let cpus: Vec<usize> = original.cpus().into_iter().take(MAX_CPUS).collect();

    // Set-up: SETUP_ROUNDS on each CPU, pinned like the passes; `setup_s`
    // is each CPU's median, scaled like its build times, averaged.
    let mut setup_medians = Vec::new();
    let mut reference: Vec<BuildFacts> = Vec::new();
    let mut systems = Vec::new();
    for &cpu in &cpus {
        if let Err(e) = Affinity::only(cpu).apply() {
            out.wrong(format!("cannot pin to CPU {cpu}: {e}"));
            return out;
        }
        let mut setups = Vec::new();
        for _ in 0..SETUP_ROUNDS {
            let start = Instant::now();
            systems = match generate_corpus(corpus, seed, root) {
                Ok(systems) => systems,
                Err(e) => {
                    out.wrong(e);
                    return out;
                }
            };
            reference.clear();
            for system in &systems {
                out.attempted += 1;
                match build(system, &Tracer::off(), false) {
                    Ok(facts) => reference.push(facts),
                    Err(e) => {
                        out.failed += 1;
                        out.wrong(e);
                        return out;
                    }
                }
            }
            setups.push(start.elapsed().as_secs_f64());
        }
        setup_medians.push(stats::median(&setups));
    }
    if let Err(e) = original.apply() {
        out.wrong(format!("cannot restore the CPU affinity: {e}"));
    }

    if traced {
        for system in &systems {
            eprintln!("ledger: {}", profile_line(system));
        }
    }

    let tracer = if traced { Tracer::on() } else { Tracer::off() };
    let untraced = Tracer::off();
    let mut latencies_ms = Vec::new();
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    let mut traced_facts: Vec<BuildFacts> = Vec::new();
    // Build times per CPU, per system.
    let mut per_cpu_ms: Vec<Vec<Vec<f64>>> = vec![vec![Vec::new(); systems.len()]; cpus.len()];
    let mut rss_mb = Vec::new();
    // Times of the reference kernel per CPU, one after each pass.
    let mut reference_ms: Vec<Vec<f64>> = vec![Vec::new(); cpus.len()];
    let start = Instant::now();
    let mut pass = 0usize;
    // Whole passes, so every system weighs the same in every run, and at
    // least MIN_PASSES_PER_CPU on each CPU, so each CPU's tail has ten
    // builds beyond it.
    while pass < MIN_PASSES_PER_CPU * cpus.len() || start.elapsed().as_secs_f64() < seconds as f64 {
        let slot = pass % cpus.len();
        if let Err(e) = Affinity::only(cpus[slot]).apply() {
            out.wrong(format!("cannot pin to CPU {}: {e}", cpus[slot]));
            break;
        }
        // A traced run alternates traced and untraced rounds over the
        // CPUs; the ratio of their times is the tracing overhead.
        let pass_tracer = if (pass / cpus.len()).is_multiple_of(2) {
            &tracer
        } else {
            &untraced
        };
        for (i, (system, expected)) in systems.iter().zip(&reference).enumerate() {
            let begin = Instant::now();
            let result = build(system, pass_tracer, false);
            let seconds = begin.elapsed().as_secs_f64();
            out.attempted += 1;
            match result {
                Ok(facts)
                    if facts.task_cycles == expected.task_cycles
                        && facts.code_bytes == expected.code_bytes =>
                {
                    latencies_ms.push(seconds * 1000.0);
                    per_cpu_ms[slot][i].push(seconds * 1000.0);
                    if pass_tracer.is_on() {
                        traced_s += seconds;
                        traced_facts.push(facts);
                    } else {
                        untraced_s += seconds;
                    }
                }
                Ok(_) => {
                    out.failed += 1;
                    out.wrong(format!("{}: build is not deterministic", system.label));
                }
                Err(e) => {
                    out.failed += 1;
                    out.wrong(e);
                }
            }
        }
        rss_mb.push(crate::rss_mb(std::process::id()));
        let begin = Instant::now();
        std::hint::black_box(reference_work());
        reference_ms[slot].push(begin.elapsed().as_secs_f64() * 1000.0);
        pass += 1;
    }
    if let Err(e) = original.apply() {
        out.wrong(format!("cannot restore the CPU affinity: {e}"));
    }
    let elapsed = start.elapsed().as_secs_f64();
    eprintln!(
        "ledger: {} builds in {pass} passes over {} systems on CPUs {cpus:?}, {elapsed:.2} s",
        latencies_ms.len(),
        systems.len()
    );

    if traced {
        let spans = tracer.spans();
        layer_metrics(&mut out, &spans, &traced_facts);
        let share = |names: &[&str]| names.iter().map(|n| out.metrics[n]).sum::<f64>();
        let (intent, holds) = match corpus {
            Corpus::Search => (
                "search, codegen and sim do most of the work",
                share(&["share.core_search", "share.codegen", "share.sim"]) > 0.5,
            ),
            Corpus::Wide => (
                "flowc, context build and encoding do most of the work, search little",
                share(&["share.flowc", "share.core_context", "share.pipeline_encode"]) > 0.5
                    && share(&["share.core_search"]) < 0.1,
            ),
        };
        eprintln!(
            "ledger: layer shares {} the intent: {intent}",
            if holds { "confirm" } else { "CONTRADICT" }
        );
        out.set(
            "core.t_invariants",
            stats::mean(systems.iter().map(|s| t_invariants(s) as f64)),
        );
        // Passes alternate, so compare per-build means of each side.
        let traced_builds = traced_facts.len().max(1) as f64;
        let untraced_builds = (latencies_ms.len() as f64 - traced_builds).max(1.0);
        out.set(
            "trace.overhead_ratio",
            (traced_s / traced_builds) / (untraced_s / untraced_builds),
        );
        if let Some(path) = write_trace(root, &tracer, "compile") {
            eprintln!("ledger: span journal written to {path}");
        }
    } else {
        // Each statistic is taken per CPU, scaled by that CPU's reference
        // kernel, and averaged over the CPUs; builds per second are those
        // of a pass at every system's median build time: a build slowed by
        // another process moves a mean, not a median.
        let mut throughput = Vec::new();
        let mut p50 = Vec::new();
        let mut tail = Vec::new();
        let mut setup = Vec::new();
        for (slot, (cpu, per_system)) in cpus.iter().zip(&per_cpu_ms).enumerate() {
            let kernel_ms = stats::median(&reference_ms[slot]);
            let scale = REFERENCE_MS / kernel_ms;
            let pass_ms: f64 = per_system.iter().map(|ms| stats::median(ms)).sum();
            throughput.push(systems.len() as f64 * 1000.0 / (pass_ms * scale));
            let all: Vec<f64> = per_system.iter().flatten().copied().collect();
            p50.push(stats::median(&all) * scale);
            match stats::tail_at(&all, stats::TAIL_Q) {
                Some(value) => tail.push(value * scale),
                None => out.wrong(format!(
                    "{} builds on CPU {cpu} are too few for a p{} with ten samples beyond it",
                    all.len(),
                    stats::TAIL_Q * 100.0
                )),
            }
            setup.push(setup_medians[slot] * scale);
            eprintln!(
                "ledger: CPU {cpu}: reference kernel {kernel_ms:.2} ms; as measured {:.2} builds/s, \
                 p50 {:.2} ms, set-up {:.3} s",
                systems.len() as f64 * 1000.0 / pass_ms,
                stats::median(&all),
                setup_medians[slot]
            );
        }
        out.set("throughput_per_s", stats::mean(throughput));
        out.set("p50_ms", stats::mean(p50));
        out.set("tail_ms", stats::mean(tail));
        out.set(
            "task_kcycles",
            reference.iter().map(|f| f.task_cycles as f64).sum::<f64>() / 1000.0,
        );
        out.set(
            "code_kbytes",
            reference.iter().map(|f| f.code_bytes as f64).sum::<f64>() / 1024.0,
        );
        out.set("rss_mb", stats::median(&rss_mb));
        out.set("setup_s", stats::mean(setup));
    }
    out
}

/// Passes a run makes on each CPU at least: with seven systems a pass,
/// 20 passes are 140 builds, 14 beyond the p90, however slow the builds.
const MIN_PASSES_PER_CPU: usize = 20;

/// One traced build of `system`, rendered as its self time per layer.
fn profile_line(system: &System) -> String {
    let tracer = Tracer::on();
    let result = build(system, &tracer, false);
    let times = self_times_ms(&tracer.spans());
    let mut line = format!("{:<16}", system.label);
    for name in std::iter::once(&BUILD_ROOT).chain(BUILD_SPANS.iter()) {
        let ms: f64 = times.get(*name).map(|v| v.iter().sum()).unwrap_or(0.0);
        line.push_str(&format!(" {name}={ms:.2}"));
    }
    if let Err(e) = result {
        line.push_str(&format!(" FAILED: {e}"));
    }
    line
}

/// Size of the T-invariant basis of the system's linked net (computed
/// once per system, outside every timed span).
pub fn t_invariants(system: &System) -> usize {
    qss::Pipeline::from_source(&system.source)
        .and_then(|p| p.link())
        .map(|linked| {
            let cap = qss::petri::StructuralLimits::default().row_cap;
            qss::petri::t_invariant_basis(&linked.system.net, cap).len()
        })
        .unwrap_or(0)
}

/// Per-layer metrics of traced builds: self time per layer span (mean
/// per build), each layer's share of build time, and the search, net
/// and artifact counts (mean per build).
pub fn layer_metrics(out: &mut Outcome, spans: &[Span], facts: &[BuildFacts]) {
    let times = self_times_ms(spans);
    let total = |name: &str| {
        times
            .get(name)
            .map(|v| v.iter().sum::<f64>())
            .unwrap_or(0.0)
    };
    let build_ms: f64 = spans
        .iter()
        .filter(|s| s.name == BUILD_ROOT)
        .map(|s| (s.end_us - s.begin_us) as f64 / 1000.0)
        .sum();
    let builds = facts.len().max(1) as f64;
    let per_build = |name: &str| total(name) / builds;
    let sum = |f: &dyn Fn(&BuildFacts) -> f64| facts.iter().map(f).sum::<f64>();

    for (span, metric) in BUILD_SPANS.iter().zip([
        "flowc.parse_ms",
        "flowc.link_ms",
        "core.context_ms",
        "core.search_ms",
        "codegen.generate_ms",
        "sim.simulate_ms",
        "pipeline.encode_ms",
    ]) {
        out.set(metric, per_build(span));
    }
    let share = |names: &[&str]| names.iter().map(|n| total(n)).sum::<f64>() / build_ms;
    out.set("share.flowc", share(&["flowc.parse", "flowc.link"]));
    out.set("share.core_context", share(&["core.context"]));
    out.set("share.core_search", share(&["core.search"]));
    out.set("share.codegen", share(&["codegen.generate"]));
    out.set("share.sim", share(&["sim.simulate"]));
    out.set("share.pipeline_encode", share(&["pipeline.encode"]));
    out.set("share.other", share(&[BUILD_ROOT]));

    let source_kb = sum(&|f| f.source_bytes as f64) / 1024.0;
    out.set(
        "flowc.source_kb_per_ms",
        source_kb / (total("flowc.parse") + total("flowc.link")),
    );
    out.set("flowc.net_places", sum(&|f| f.places as f64) / builds);
    out.set(
        "flowc.net_transitions",
        sum(&|f| f.transitions as f64) / builds,
    );
    let nodes = sum(&|f| f.profile.nodes_expanded as f64);
    out.set("core.nodes_expanded", nodes / builds);
    out.set("core.nodes_per_ms", nodes / total("core.search"));
    out.set(
        "core.backtracks",
        sum(&|f| f.profile.backtracks as f64) / builds,
    );
    out.set(
        "core.ancestor_hit_ratio",
        sum(&|f| f.profile.equal_ancestor_hits as f64)
            / sum(&|f| f.profile.equal_ancestor_probes as f64),
    );
    out.set(
        "core.irrelevance_cuts",
        sum(&|f| f.profile.irrelevance_cuts as f64) / builds,
    );
    out.set(
        "core.ecs_sweeps",
        sum(&|f| (f.profile.ecs_sweeps_scalar + f.profile.ecs_sweeps_chunked) as f64) / builds,
    );
    out.set(
        "core.exhaustive_retries",
        sum(&|f| f.profile.exhaustive_retries as f64) / builds,
    );
    out.set(
        "codegen.c_kbytes",
        sum(&|f| f.c_bytes as f64) / 1024.0 / builds,
    );
    out.set("codegen.segments", sum(&|f| f.segments as f64) / builds);
    out.set(
        "sim.events_per_ms",
        sum(&|f| f.events as f64) / total("sim.simulate"),
    );
    let artifact_kb = sum(&|f| f.artifact_bytes as f64) / 1024.0;
    out.set("pipeline.artifact_kb", artifact_kb / builds);
    out.set(
        "pipeline.encode_kb_per_ms",
        artifact_kb / total("pipeline.encode"),
    );
}

/// Writes the tracer's journal as Chrome trace-event JSON under
/// `ledger/out/`; returns the path written.
pub fn write_trace(root: &Path, tracer: &Tracer, stem: &str) -> Option<String> {
    let dir = root.join("ledger").join("out");
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("{stem}.trace.json"));
    std::fs::write(&path, tracer.chrome_trace()?).ok()?;
    Some(path.display().to_string())
}
