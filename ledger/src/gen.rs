//! Seeded FlowC corpus generator with an independent output oracle.
//!
//! Every family writes whole-system FlowC text (the only thing the
//! program under test receives) together with the environment events to
//! simulate and the outputs those events must produce. The expected
//! outputs are computed here from each family's own semantics — never
//! from the scheduler, the code generator or the simulator — so a wrong
//! schedule or a miscompiled task shows up as a mismatch.
//!
//! The seed varies constants, event values and names; the *shape* of a
//! family member (depth, rate, process count) is fixed by its
//! [`Family`] value, so the work a corpus asks for is stable from seed to
//! seed while the inputs are not.

use qss::EnvEvent;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// SplitMix64: a small, well-mixed, seedable generator (no dependency,
/// same stream on every platform).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator whose stream is a pure function of `seed`.
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform integer in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next_u64() % (hi - lo) as u64) as i64
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Shuffles `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// The shape of one generated system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The FlowC form of the Figure 7 divider: a source stage and `depth`
    /// stages that each read `rate` items per firing, so one cycle takes
    /// `rate^depth` source firings. `outputs` cycles are simulated.
    Divider { depth: u32, rate: u32, outputs: u32 },
    /// A chain of `stages` stages, each with a data-dependent `if`/`else`
    /// on the value it reads. `events` source firings are simulated.
    Branchy { stages: u32, events: u32 },
    /// The PFC video application of Sec. 8.2 at 100-pixel frames,
    /// simulated for `frames` frames (Table 1).
    Pfc { frames: u32 },
    /// A two-process uncontrollable hot path inside `ballast` further
    /// processes behind controllable inputs: a wide net, a small reaction.
    Service { ballast: u32, events: u32 },
    /// A flat pipeline of `stages` processes.
    Flat { stages: u32, events: u32 },
}

impl Family {
    /// A short label naming the family and its size, e.g. `divider-d2r32`.
    pub fn label(self) -> String {
        match self {
            Family::Divider { depth, rate, .. } => format!("divider-d{depth}r{rate}"),
            Family::Branchy { stages, .. } => format!("branchy-{stages}"),
            Family::Pfc { frames } => format!("pfc-{frames}f"),
            Family::Service { ballast, .. } => format!("service-{ballast}"),
            Family::Flat { stages, .. } => format!("flat-{stages}"),
        }
    }
}

/// One generated system: source, workload and oracle.
#[derive(Debug, Clone)]
pub struct System {
    /// Family and size label, e.g. `flat-128` or `sample`.
    pub label: String,
    /// Whole-system FlowC source text.
    pub source: String,
    /// Environment events to simulate.
    pub events: Vec<EnvEvent>,
    /// Expected values per environment output port (`process.port`).
    pub expected: BTreeMap<String, Vec<i64>>,
    /// Channel buffer capacity of the one-task-per-process baseline the
    /// simulation compares against (`qssc build --buffer`).
    pub buffer: u32,
    /// For `samples/pipeline.flowc`: the golden report the build must
    /// reproduce byte for byte.
    pub golden_report: Option<String>,
}

/// Baseline buffer capacity of generated systems: Table 1's 100, which
/// also holds a full group of every divider stage's reads.
pub const TABLE1_BUFFER: u32 = 100;

/// Generates one member of `family`; `tag` makes its process names (and
/// so its net fingerprint) unique within a corpus.
pub fn generate(family: Family, rng: &mut Rng, tag: &str) -> System {
    let (source, events, expected) = match family {
        Family::Divider {
            depth,
            rate,
            outputs,
        } => divider(depth, rate, outputs, rng, tag),
        Family::Branchy { stages, events } => branchy(stages, events, rng, tag),
        Family::Pfc { frames } => pfc(frames, rng),
        Family::Service { ballast, events } => service(ballast, events, rng, tag),
        Family::Flat { stages, events } => flat(stages, events, rng, tag),
    };
    System {
        label: family.label(),
        source,
        events,
        expected,
        buffer: TABLE1_BUFFER,
        golden_report: None,
    }
}

/// `samples/pipeline.flowc` run the way CI runs it
/// (`--events source.trigger=6,7,8,9`), with the golden report it must
/// reproduce. The expected outputs follow the sample's Collatz stage.
pub fn sample(source: String, golden_report: String) -> System {
    let values = [6i64, 7, 8, 9];
    let events = values
        .iter()
        .map(|&v| EnvEvent::new("source", "trigger", v))
        .collect();
    let results = values
        .iter()
        .map(|&x| if x % 2 == 0 { x / 2 } else { 3 * x + 1 })
        .collect();
    System {
        label: "sample".to_string(),
        source,
        events,
        expected: BTreeMap::from([("sink.result".to_string(), results)]),
        buffer: qss::PipelineConfig::default().multitask_buffer_size,
        golden_report: Some(golden_report),
    }
}

type Generated = (String, Vec<EnvEvent>, BTreeMap<String, Vec<i64>>);

/// Writes `SYSTEM name { CHANNEL a.out -> b.inp; ... INPUT go UNCONTROLLABLE; }`
/// for a linear chain of the given process names.
fn chain_manifest(out: &mut String, system: &str, names: &[String]) {
    let _ = writeln!(out, "SYSTEM {system} {{");
    for pair in names.windows(2) {
        let _ = writeln!(out, "    CHANNEL {}.out -> {}.inp;", pair[0], pair[1]);
    }
    let _ = writeln!(out, "    INPUT {}.go UNCONTROLLABLE;", names[0]);
    out.push_str("}\n");
}

fn head_process(out: &mut String, name: &str, offset: i64) {
    let _ = writeln!(
        out,
        "PROCESS {name} (In DPORT go, Out DPORT out) {{\n    int x;\n    \
         while (1) {{ READ_DATA(go, x, 1); WRITE_DATA(out, x + {offset}, 1); }}\n}}"
    );
}

fn source_events(process: &str, values: &[i64]) -> Vec<EnvEvent> {
    values
        .iter()
        .map(|&v| EnvEvent::new(process, "go", v))
        .collect()
}

fn divider(depth: u32, rate: u32, outputs: u32, rng: &mut Rng, tag: &str) -> Generated {
    let names: Vec<String> = (0..=depth).map(|i| format!("d{tag}s{i}")).collect();
    let offsets: Vec<i64> = (0..=depth).map(|_| rng.range(1, 50)).collect();
    let mut src = String::new();
    chain_manifest(&mut src, &format!("divider{tag}"), &names);
    head_process(&mut src, &names[0], offsets[0]);
    for (name, offset) in names.iter().zip(&offsets).skip(1) {
        let _ = writeln!(
            src,
            "PROCESS {name} (In DPORT inp, Out DPORT out) {{\n    int x;\n    \
             while (1) {{ READ_DATA(inp, x, {rate}); WRITE_DATA(out, x + {offset}, 1); }}\n}}"
        );
    }
    // A scalar read of `rate` items keeps the last one, so each output
    // is the last event of its `rate^depth` group plus every offset.
    let group = (rate as usize).pow(depth);
    let values: Vec<i64> = (0..group * outputs as usize)
        .map(|_| rng.range(0, 1000))
        .collect();
    let shift: i64 = offsets.iter().sum();
    let results = values
        .chunks(group)
        .map(|chunk| chunk[group - 1] + shift)
        .collect();
    let expected = BTreeMap::from([(format!("{}.out", names[depth as usize]), results)]);
    (src, source_events(&names[0], &values), expected)
}

fn branchy(stages: u32, events: u32, rng: &mut Rng, tag: &str) -> Generated {
    let names: Vec<String> = (0..=stages).map(|i| format!("b{tag}s{i}")).collect();
    // Stage i: if (x % m == 0) x / 2 + a else (x * 3 + a) % 1000.
    let params: Vec<(i64, i64)> = (0..stages)
        .map(|_| (rng.range(2, 5), rng.range(1, 100)))
        .collect();
    let mut src = String::new();
    chain_manifest(&mut src, &format!("branchy{tag}"), &names);
    head_process(&mut src, &names[0], 0);
    for (name, (m, a)) in names.iter().skip(1).zip(&params) {
        let _ = writeln!(
            src,
            "PROCESS {name} (In DPORT inp, Out DPORT out) {{\n    int x;\n    while (1) {{\n        \
             READ_DATA(inp, x, 1);\n        if (x % {m} == 0)\n            \
             WRITE_DATA(out, x / 2 + {a}, 1);\n        else\n            \
             WRITE_DATA(out, (x * 3 + {a}) % 1000, 1);\n    }}\n}}"
        );
    }
    let values: Vec<i64> = (0..events).map(|_| rng.range(0, 1000)).collect();
    let results = values
        .iter()
        .map(|&v| {
            params.iter().fold(v, |x, &(m, a)| {
                if x % m == 0 {
                    x / 2 + a
                } else {
                    (x * 3 + a) % 1000
                }
            })
        })
        .collect();
    let expected = BTreeMap::from([(format!("{}.out", names[stages as usize]), results)]);
    (src, source_events(&names[0], &values), expected)
}

/// Pixels per PFC frame: the paper's 10 lines of 10 pixels.
pub const PFC_PIXELS: u32 = 100;

fn pfc(frames: u32, rng: &mut Rng) -> Generated {
    // The Sec. 8.2 processes; the seed only permutes their order in the
    // file, because the oracle (`pfc_expected_outputs`) fixes the frame
    // values and port names.
    let mut processes = vec![
        "PROCESS controller (In DPORT init, Out DPORT req, Out DPORT coeff, In DPORT ack) {\n    \
         int v, s;\n    while (1) {\n        READ_DATA(init, &v, 1);\n        if (v % 2 == 0)\n            \
         WRITE_DATA(coeff, v + 2, 1);\n        WRITE_DATA(req, v, 1);\n        READ_DATA(ack, s, 1);\n    }\n}\n"
            .to_string(),
        format!(
            "PROCESS producer (In DPORT req, Out DPORT pix, Out DPORT pdone) {{\n    int r, i;\n    \
             while (1) {{\n        READ_DATA(req, &r, 1);\n        i = 0;\n        while (i < {PFC_PIXELS}) {{\n            \
             WRITE_DATA(pix, r + i, 1);\n            i++;\n        }}\n        WRITE_DATA(pdone, 0, 1);\n    }}\n}}\n"
        ),
        "PROCESS filter (In DPORT pix, In DPORT pdone, In DPORT coeff, Out DPORT fpix, Out DPORT fdone) {\n    \
         int p, c, d;\n    c = 1;\n    while (1) {\n        switch (SELECT(coeff, 1, pix, 1, pdone, 1)) {\n            \
         case 0: READ_DATA(coeff, c, 1); break;\n            \
         case 1: READ_DATA(pix, p, 1); WRITE_DATA(fpix, p * c, 1); break;\n            \
         case 2: READ_DATA(pdone, d, 1); WRITE_DATA(fdone, 0, 1); break;\n        }\n    }\n}\n"
            .to_string(),
        "PROCESS consumer (In DPORT fpix, In DPORT fdone, Out DPORT out, Out DPORT ack) {\n    \
         int q, s, d;\n    while (1) {\n        switch (SELECT(fpix, 1, fdone, 1)) {\n            \
         case 0: READ_DATA(fpix, q, 1); s = s + q; break;\n            \
         case 1: READ_DATA(fdone, d, 1); WRITE_DATA(out, s, 1); WRITE_DATA(ack, s, 1); s = 0; break;\n        }\n    }\n}\n"
            .to_string(),
    ];
    rng.shuffle(&mut processes);
    let mut src = String::from(
        "SYSTEM pfc {\n    CHANNEL controller.req -> producer.req;\n    \
         CHANNEL controller.coeff -> filter.coeff;\n    CHANNEL producer.pix -> filter.pix;\n    \
         CHANNEL producer.pdone -> filter.pdone;\n    CHANNEL filter.fpix -> consumer.fpix;\n    \
         CHANNEL filter.fdone -> consumer.fdone;\n    CHANNEL consumer.ack -> controller.ack;\n    \
         INPUT controller.init UNCONTROLLABLE;\n}\n",
    );
    for process in processes {
        src.push_str(&process);
    }
    let params = qss::sim::PfcParams {
        pixels_per_frame: PFC_PIXELS,
    };
    let events = qss::sim::pfc::pfc_events(frames as usize);
    let expected = BTreeMap::from([(
        "consumer.out".to_string(),
        qss::sim::pfc::pfc_expected_outputs(&params, frames as usize),
    )]);
    (src, events, expected)
}

fn service(ballast: u32, events: u32, rng: &mut Rng, tag: &str) -> Generated {
    let (hot, relay) = (format!("h{tag}"), format!("r{tag}"));
    let (a, b) = (rng.range(1, 100), rng.range(2, 5));
    let mut src = format!(
        "SYSTEM service{tag} {{\n    CHANNEL {hot}.snd -> {relay}.rcv;\n    INPUT {hot}.rcv UNCONTROLLABLE;\n"
    );
    for i in 0..ballast {
        let _ = writeln!(src, "    INPUT w{tag}b{i}.rcv CONTROLLABLE;");
    }
    src.push_str("}\n");
    for (name, body) in [(&hot, format!("x + {a}")), (&relay, format!("x * {b}"))] {
        let _ = writeln!(
            src,
            "PROCESS {name} (In DPORT rcv, Out DPORT snd) {{\n    int x;\n    \
             while (1) {{ READ_DATA(rcv, x, 1); WRITE_DATA(snd, {body}, 1); }}\n}}"
        );
    }
    for i in 0..ballast {
        let c = rng.range(1, 100);
        let _ = writeln!(
            src,
            "PROCESS w{tag}b{i} (In DPORT rcv, Out DPORT snd) {{\n    int x;\n    \
             while (1) {{ READ_DATA(rcv, x, 1); WRITE_DATA(snd, x + {c}, 1); }}\n}}"
        );
    }
    let values: Vec<i64> = (0..events).map(|_| rng.range(0, 1000)).collect();
    let events = values
        .iter()
        .map(|&v| EnvEvent::new(hot.as_str(), "rcv", v))
        .collect();
    let results = values.iter().map(|&v| (v + a) * b).collect();
    let expected = BTreeMap::from([(format!("{relay}.snd"), results)]);
    (src, events, expected)
}

fn flat(stages: u32, events: u32, rng: &mut Rng, tag: &str) -> Generated {
    let names: Vec<String> = (0..stages).map(|i| format!("f{tag}s{i}")).collect();
    let offsets: Vec<i64> = (0..stages).map(|_| rng.range(0, 10)).collect();
    let mut src = String::new();
    chain_manifest(&mut src, &format!("flat{tag}"), &names);
    head_process(&mut src, &names[0], offsets[0]);
    for (name, offset) in names.iter().zip(&offsets).skip(1) {
        let _ = writeln!(
            src,
            "PROCESS {name} (In DPORT inp, Out DPORT out) {{\n    int x;\n    \
             while (1) {{ READ_DATA(inp, x, 1); WRITE_DATA(out, x + {offset}, 1); }}\n}}"
        );
    }
    let values: Vec<i64> = (0..events).map(|_| rng.range(0, 1000)).collect();
    let shift: i64 = offsets.iter().sum();
    let results = values.iter().map(|&v| v + shift).collect();
    let expected = BTreeMap::from([(format!("{}.out", names[stages as usize - 1]), results)]);
    (src, source_events(&names[0], &values), expected)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build;
    use crate::trace::Tracer;

    fn small_families() -> Vec<Family> {
        vec![
            Family::Divider {
                depth: 2,
                rate: 3,
                outputs: 3,
            },
            Family::Branchy {
                stages: 3,
                events: 40,
            },
            Family::Pfc { frames: 3 },
            Family::Service {
                ballast: 3,
                events: 5,
            },
            Family::Flat {
                stages: 4,
                events: 5,
            },
        ]
    }

    #[test]
    fn the_same_seed_gives_byte_identical_systems() {
        for family in small_families() {
            let a = generate(family, &mut Rng::new(42), "0");
            let b = generate(family, &mut Rng::new(42), "0");
            assert_eq!(a.source, b.source, "{}", a.label);
            assert_eq!(a.events, b.events, "{}", a.label);
            assert_eq!(a.expected, b.expected, "{}", a.label);
            let c = generate(family, &mut Rng::new(43), "0");
            if !matches!(family, Family::Pfc { .. }) {
                assert_ne!(a.source, c.source, "{}: the seed changes nothing", a.label);
            }
        }
    }

    #[test]
    fn the_oracle_agrees_with_simulation_on_small_instances() {
        let mut rng = Rng::new(7);
        for (i, family) in small_families().into_iter().enumerate() {
            let system = generate(family, &mut rng, &i.to_string());
            assert!(
                system.expected.values().all(|v| !v.is_empty()),
                "{}: the oracle expects no output",
                system.label
            );
            // `build` simulates both executors and compares their
            // outputs with the oracle's.
            build(&system, &Tracer::off(), false).unwrap();

            let mut wrong = system.clone();
            let values = wrong.expected.values_mut().next().unwrap();
            values[0] += 1;
            assert!(
                build(&wrong, &Tracer::off(), false).is_err(),
                "{}: a wrong oracle goes unnoticed",
                system.label
            );
        }
    }

    #[test]
    fn the_sample_reproduces_its_golden_report() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let system = crate::compile::read_sample(&root).unwrap();
        build(&system, &Tracer::off(), false).unwrap();
        let mut drifted = system.clone();
        drifted.golden_report = Some(system.golden_report.unwrap().replace("472", "473"));
        assert!(build(&drifted, &Tracer::off(), false).is_err());
    }
}
