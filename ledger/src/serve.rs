//! The daemon's layers: a real `qssd` child process under an open-loop
//! load, measured in a traced `compile_wide` run.
//!
//! One connection carries the load, pipelined with protocol version 2:
//! the main thread sends pre-encoded requests at seeded Poisson due
//! times, each timed from its due time, and one receiver thread decodes
//! every response and checks it byte for byte against the local
//! `Pipeline` answer computed at set-up. A second connection carries
//! control traffic (warm-up, `metrics`, `shutdown`): two threads and two
//! connections in all. A capacity ramp then runs the same open loop at
//! rising rates on a fresh, untraced daemon.
//!
//! A small hot set repeats (context-cache and report-cache hits, and
//! duplicate pairs sent back to back that coalesce into one search);
//! every [`COLD_EVERY`]-th request is a cold system, which misses the
//! caches and, as there are more of them than `--cache` holds, evicts.
//! The mix is an assumption of this benchmark, not a measured workload:
//! see `ledger/README.md`.

use crate::build::build;
use crate::compile::{read_sample, write_trace};
use crate::gen::{self, Family, Rng, System};
use crate::metrics::Outcome;
use crate::stats;
use crate::trace::{self_times_ms, spans_from_chrome, Span, Tracer};
use qss::remote::{fingerprint_hex, parse_response, CheckSummary, Client, Request, RequestKind};
use qss::{Pipeline, PipelineConfig};
use qss_obs::SpanId;
use serde_json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, ErrorKind as IoErrorKind, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Arrivals per second of the open loop (a duplicate pair is one
/// arrival, two requests): `qssd` busy about a fifth of one core.
pub const RATE: f64 = 20.0;
/// Share of hot `schedule`/`generate` requests sent as a duplicate pair.
pub const DUP_SHARE: f64 = 0.25;
/// Distinct cold systems; they are served in turn.
pub const COLD: usize = 40;
/// Every `COLD_EVERY`-th request is cold.
pub const COLD_EVERY: usize = 16;
/// The daemon's flags besides `--addr` and `--trace-out`. Eight workers
/// give eight search slots, so a burst of distinct searches on two cores
/// queues instead of being refused `busy`; a cache of 8 holds the hot
/// set and a few cold nets, so cold traffic evicts.
pub const QSSD_FLAGS: [&str; 6] = ["--workers", "8", "--queue", "1024", "--cache", "8"];
/// How long the receiver waits for a response before giving up.
const RESPONSE_TIMEOUT: Duration = Duration::from_secs(30);

/// The hot set, besides `samples/pipeline.flowc`.
const HOT: [Family; 5] = [
    Family::Divider {
        depth: 2,
        rate: 16,
        outputs: 2,
    },
    Family::Divider {
        depth: 3,
        rate: 8,
        outputs: 2,
    },
    Family::Branchy {
        stages: 7,
        events: 50,
    },
    Family::Service {
        ballast: 100,
        events: 4,
    },
    Family::Flat {
        stages: 128,
        events: 4,
    },
];

/// Cold systems cycle through these shapes.
const COLD_FAMILIES: [Family; 4] = [
    Family::Divider {
        depth: 2,
        rate: 12,
        outputs: 2,
    },
    Family::Branchy {
        stages: 6,
        events: 50,
    },
    Family::Service {
        ballast: 50,
        events: 4,
    },
    Family::Flat {
        stages: 64,
        events: 4,
    },
];

/// The request kinds of the load.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Kind {
    Check,
    Analyze,
    Schedule,
    Generate,
}

impl Kind {
    fn request_kind(self) -> RequestKind {
        match self {
            Kind::Check => RequestKind::Check,
            Kind::Analyze => RequestKind::Analyze,
            Kind::Schedule => RequestKind::Schedule,
            Kind::Generate => RequestKind::Generate,
        }
    }

    fn name(self) -> &'static str {
        self.request_kind().name()
    }
}

/// Hot arrivals by kind, as cumulative weights out of 100.
const HOT_MIX: [(Kind, i64); 4] = [
    (Kind::Check, 10),
    (Kind::Analyze, 20),
    (Kind::Schedule, 60),
    (Kind::Generate, 100),
];

const KINDS: [Kind; 4] = [Kind::Check, Kind::Analyze, Kind::Schedule, Kind::Generate];

/// Cold systems' kinds, cycled.
const COLD_KINDS: [Kind; 3] = [Kind::Schedule, Kind::Generate, Kind::Analyze];

/// One distinct system the load serves, with every answer it must get.
struct Served {
    system: System,
    hot: bool,
    config: PipelineConfig,
    fingerprint: String,
    check: String,
    analyze: String,
    schedule: String,
    generate: String,
}

impl Served {
    /// The expected result for `kind`: the `check` summary, or the
    /// artifact that follows the fingerprint and `cached` flag.
    fn expected(&self, kind: Kind) -> Expected<'_> {
        match kind {
            Kind::Check => Expected::Summary(&self.check),
            Kind::Analyze => Expected::Artifact(&self.fingerprint, &self.analyze),
            Kind::Schedule => Expected::Artifact(&self.fingerprint, &self.schedule),
            Kind::Generate => Expected::Artifact(&self.fingerprint, &self.generate),
        }
    }
}

enum Expected<'a> {
    Summary(&'a str),
    Artifact(&'a str, &'a str),
}

/// Builds `system` locally (verified against its oracle) and computes
/// every answer `qssd` must give for it.
fn reference(system: System, hot: bool, tracer: &Tracer) -> Result<Served, String> {
    let mut facts = build(&system, tracer, true)?;
    let config = PipelineConfig {
        multitask_buffer_size: system.buffer,
        ..PipelineConfig::default()
    };
    let linked = Pipeline::from_source(&system.source)
        .and_then(|p| p.with_config(config.clone()).link())
        .map_err(|e| format!("{}: {e}", system.label))?;
    let fingerprint = fingerprint_hex(linked.fingerprint());
    let analysis = linked.analysis();
    let summary = CheckSummary {
        fingerprint: fingerprint.clone(),
        system: linked.spec.name().to_string(),
        processes: linked.system.process_names.len() as u64,
        channels: linked.system.channels.len() as u64,
        places: analysis.num_places as u64,
        transitions: analysis.num_transitions as u64,
        uncontrollable_inputs: analysis.num_uncontrollable_sources as u64,
        choice_places: analysis.num_choice_places as u64,
    };
    let analyze = tracer.span("petri.analyze", SpanId::NONE, || {
        serde_json::to_string(&linked.analyze()).expect("report serialization is infallible")
    });
    let (schedule, generate) = facts.wire.take().expect("build keeps the wire artifacts");
    Ok(Served {
        check: serde_json::to_string(&summary).expect("summary serialization is infallible"),
        system,
        hot,
        config,
        fingerprint,
        analyze,
        schedule,
        generate,
    })
}

/// The hot set followed by the cold systems, each built and verified.
fn references(seed: u64, root: &Path, tracer: &Tracer) -> Result<Vec<Served>, String> {
    let mut rng = Rng::new(seed);
    let mut systems = vec![(read_sample(root)?, true)];
    for (i, family) in HOT.into_iter().enumerate() {
        systems.push((gen::generate(family, &mut rng, &format!("h{i}")), true));
    }
    for i in 0..COLD {
        let family = COLD_FAMILIES[i % COLD_FAMILIES.len()];
        systems.push((gen::generate(family, &mut rng, &format!("c{i}")), false));
    }
    systems
        .into_iter()
        .map(|(system, hot)| reference(system, hot, tracer))
        .collect()
}

/// One request of the load.
#[derive(Debug, Clone, Copy)]
struct Planned {
    kind: Kind,
    system: usize,
    due_us: u64,
}

/// The seeded request sequence for `seconds` of Poisson arrivals at
/// `rate`: every [`COLD_EVERY`]-th request a cold system (in turn), the
/// others hot with the [`HOT_MIX`] kinds (a duplicate pair with
/// [`DUP_SHARE`] for the schedule-bearing ones; a pair shares its due
/// time).
fn plan(rng: &mut Rng, served: &[Served], seconds: f64, rate: f64) -> Vec<Planned> {
    let hot: Vec<usize> = (0..served.len()).filter(|&i| served[i].hot).collect();
    let cold: Vec<usize> = (0..served.len()).filter(|&i| !served[i].hot).collect();
    let mut due = 0.0f64;
    let mut out = Vec::new();
    let mut next_cold = 0;
    loop {
        due += -(1.0 - rng.unit()).ln() / rate;
        if due >= seconds {
            return out;
        }
        let due_us = (due * 1e6) as u64;
        if out.len() % COLD_EVERY == COLD_EVERY - 1 {
            let c = next_cold % cold.len();
            next_cold += 1;
            out.push(Planned {
                kind: COLD_KINDS[c % COLD_KINDS.len()],
                system: cold[c],
                due_us,
            });
            continue;
        }
        let system = hot[rng.range(0, hot.len() as i64) as usize];
        let pick = rng.range(0, 100);
        let kind = HOT_MIX
            .iter()
            .find(|(_, below)| pick < *below)
            .map(|(kind, _)| *kind)
            .expect("the mix covers 0..100");
        let request = Planned {
            kind,
            system,
            due_us,
        };
        out.push(request);
        if matches!(kind, Kind::Schedule | Kind::Generate) && rng.unit() < DUP_SHARE {
            out.push(request);
        }
    }
}

/// Pre-encoded request lines: one per system and kind, with each
/// request's id spliced in when it is sent.
struct Lines {
    suffixes: BTreeMap<(usize, Kind), Vec<u8>>,
}

impl Lines {
    const PREFIX: &'static str = "{\"version\":2,\"id\":";

    fn new(served: &[Served]) -> Lines {
        let mut suffixes = BTreeMap::new();
        for (index, system) in served.iter().enumerate() {
            for kind in KINDS {
                let request = Request {
                    version: Some(2),
                    id: Some(0),
                    kind: kind.request_kind(),
                    source: Some(system.system.source.clone()),
                    config: Some(system.config.clone()),
                    events: Vec::new(),
                    include_task: false,
                };
                let line = serde_json::to_string(&request.to_value())
                    .expect("request serialization is infallible");
                let suffix = line
                    .strip_prefix(Lines::PREFIX)
                    .and_then(|rest| rest.strip_prefix('0'))
                    .expect("a request line starts with its version and id");
                suffixes.insert((index, kind), format!("{suffix}\n").into_bytes());
            }
        }
        Lines { suffixes }
    }

    /// The line of request `index` (id `index + 1`).
    fn line(&self, index: usize, planned: &Planned) -> Vec<u8> {
        let mut line = format!("{}{}", Lines::PREFIX, index + 1).into_bytes();
        line.extend_from_slice(&self.suffixes[&(planned.system, planned.kind)]);
        line
    }
}

/// Whether `line` is exactly the success response `expected` with id
/// `id`; for artifacts, returns the `cached` flag it carried.
fn matches(line: &str, id: u64, expected: &Expected<'_>) -> Option<bool> {
    let rest = line
        .strip_prefix("{\"id\":")?
        .strip_prefix(id.to_string().as_str())?
        .strip_prefix(",\"ok\":true,\"result\":")?;
    match expected {
        Expected::Summary(body) => (rest.strip_prefix(body)? == "}").then_some(false),
        Expected::Artifact(fingerprint, artifact) => {
            let rest = rest
                .strip_prefix("{\"fingerprint\":\"")?
                .strip_prefix(fingerprint)?
                .strip_prefix("\",\"cached\":")?;
            let (cached, rest) = match rest.strip_prefix("true") {
                Some(rest) => (true, rest),
                None => (false, rest.strip_prefix("false")?),
            };
            let rest = rest
                .strip_prefix(",\"artifact\":")?
                .strip_prefix(artifact)?;
            (rest == "}}").then_some(cached)
        }
    }
}

/// The echoed id at the start of a response line.
fn response_id(line: &str) -> Option<u64> {
    let digits = line.strip_prefix("{\"id\":")?;
    let end = digits.find(|c: char| !c.is_ascii_digit())?;
    digits[..end].parse().ok()
}

/// What the receiver saw.
#[derive(Default)]
struct Received {
    latency_ms: Vec<Option<f64>>,
    response_bytes: u64,
    /// Time in `parse_response`, one entry per response.
    decode_ms: Vec<f64>,
    errors: BTreeMap<String, u64>,
    wrong: Vec<String>,
}

/// What the whole load saw.
struct Load {
    received: Received,
    /// How late the sender ran behind each due time.
    late_ms: Vec<f64>,
    /// Requests sent: a prefix of the plan.
    sent: usize,
    wall_s: f64,
}

/// Sends `plan` over one pipelined connection, each request at its due
/// time whatever the replies do, and checks every reply.
fn drive(
    addr: SocketAddr,
    plan: &[Planned],
    lines: &Lines,
    served: &[Served],
) -> Result<Load, String> {
    let mut writer = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    writer.set_nodelay(true).ok();
    let reader = writer.try_clone().map_err(|e| e.to_string())?;
    reader
        .set_read_timeout(Some(READ_TICK))
        .map_err(|e| e.to_string())?;
    let start = Instant::now() + Duration::from_millis(10);
    let final_sent = AtomicUsize::new(usize::MAX);
    std::thread::scope(|scope| {
        let shared = &final_sent;
        let receiver = scope.spawn(move || receive(reader, plan, served, start, shared));
        let mut late_ms = Vec::with_capacity(plan.len());
        let mut send_error = None;
        let mut sent = 0;
        for (i, planned) in plan.iter().enumerate() {
            let due = start + Duration::from_micros(planned.due_us);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
            if let Err(e) = writer.write_all(&lines.line(i, planned)) {
                send_error = Some(format!("send failed: {e}"));
                break;
            }
            sent = i + 1;
        }
        final_sent.store(sent, Ordering::SeqCst);
        if send_error.is_some() {
            // Unblock the receiver; it reports what never arrived.
            writer.shutdown(std::net::Shutdown::Both).ok();
        }
        let received = receiver
            .join()
            .map_err(|_| "the receiver panicked".to_string())?;
        let wall_s = start.elapsed().as_secs_f64();
        match send_error {
            Some(e) => Err(e),
            None => Ok(Load {
                received,
                late_ms,
                sent,
                wall_s,
            }),
        }
    })
}

/// How often a blocked receiver looks whether the sender has finished.
const READ_TICK: Duration = Duration::from_millis(20);

fn receive(
    reader: TcpStream,
    plan: &[Planned],
    served: &[Served],
    start: Instant,
    final_sent: &AtomicUsize,
) -> Received {
    let mut reader = BufReader::new(reader);
    let mut got = Received {
        latency_ms: vec![None; plan.len()],
        ..Received::default()
    };
    let mut line = String::new();
    let mut count = 0;
    let mut last_progress = Instant::now();
    while count < final_sent.load(Ordering::SeqCst).min(plan.len()) {
        match reader.read_line(&mut line) {
            Ok(0) => break,
            Ok(_) if line.ends_with('\n') => {}
            Ok(_) => break,
            Err(e) if matches!(e.kind(), IoErrorKind::WouldBlock | IoErrorKind::TimedOut) => {
                if last_progress.elapsed() > RESPONSE_TIMEOUT {
                    got.wrong
                        .push("timed out waiting for responses".to_string());
                    break;
                }
                continue;
            }
            Err(e) => {
                got.wrong.push(format!("reading responses: {e}"));
                break;
            }
        }
        last_progress = Instant::now();
        count += 1;
        let arrived = start.elapsed();
        let text = line.trim_end_matches('\n');
        got.response_bytes += line.len() as u64;
        // Decode every response, the client-side work a real caller does.
        let begin = Instant::now();
        let decoded = std::hint::black_box(parse_response(text));
        got.decode_ms.push(begin.elapsed().as_secs_f64() * 1000.0);
        let Some(index) = response_id(text)
            .and_then(|id| usize::try_from(id).ok()?.checked_sub(1))
            .filter(|&i| i < plan.len())
        else {
            got.wrong
                .push(format!("response with an unknown id: {:.120}", text));
            line.clear();
            continue;
        };
        if got.latency_ms[index].is_some() {
            got.wrong
                .push(format!("request {} answered twice", index + 1));
        } else {
            let request = plan[index];
            let system = &served[request.system];
            let latency = arrived.as_secs_f64() * 1000.0 - request.due_us as f64 / 1000.0;
            if matches(text, index as u64 + 1, &system.expected(request.kind)).is_some() {
                got.latency_ms[index] = Some(latency);
            } else {
                // Not the expected bytes: an error reply, or a wrong answer.
                got.latency_ms[index] = Some(f64::INFINITY);
                match decoded {
                    Ok((_, Err(error))) => {
                        *got.errors.entry(error.kind.name().to_string()).or_default() += 1;
                    }
                    _ => got.wrong.push(format!(
                        "{} of {} differs from the local artifact",
                        request.kind.name(),
                        system.system.label
                    )),
                }
            }
        }
        line.clear();
    }
    got
}

/// A `qssd` child process, stopped and reaped on drop.
struct Daemon {
    child: Child,
    _stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    fn spawn(binary: &Path, trace_out: Option<&Path>) -> Result<Daemon, String> {
        let mut command = Command::new(binary);
        command.args(["--addr", "127.0.0.1:0"]).args(QSSD_FLAGS);
        if let Some(path) = trace_out {
            command.arg("--trace-out").arg(path);
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let addr = stdout.read_line(&mut line).ok().and_then(|_| {
            line.trim()
                .strip_prefix("qssd: listening on ")?
                .parse()
                .ok()
        });
        match addr {
            Some(addr) => Ok(Daemon {
                child,
                _stdout: stdout,
                addr,
            }),
            None => {
                child.kill().ok();
                child.wait().ok();
                Err(format!("qssd did not announce its address: {line:?}"))
            }
        }
    }

    /// Asks for a graceful drain and waits for the exit.
    fn shutdown(mut self) -> Result<(), String> {
        let asked = Client::connect(self.addr)
            .map_err(|e| e.to_string())
            .and_then(|mut client| client.shutdown().map_err(|e| e.to_string()));
        let deadline = Instant::now() + Duration::from_secs(30);
        while Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.try_wait() {
                return match (asked, status.success()) {
                    (Ok(()), true) => Ok(()),
                    (asked, _) => Err(format!("qssd stopped with {status} ({asked:?})")),
                };
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err("qssd did not drain within 30 s".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            self.child.kill().ok();
        }
        self.child.wait().ok();
    }
}

/// Sends one request of each kind for every hot system over the control
/// connection, so the measured load starts on warm caches, and checks
/// each answer against the local artifact.
fn warm(client: &mut Client, served: &[Served]) -> Result<Vec<Kind>, String> {
    let mut sent = Vec::new();
    for system in served.iter().filter(|s| s.hot) {
        let source = &system.system.source;
        let config = Some(&system.config);
        let summary = client.check(source).map_err(|e| e.to_string())?;
        if serde_json::to_string(&summary).ok().as_deref() != Some(system.check.as_str()) {
            return Err(format!("check of {} differs", system.system.label));
        }
        for (kind, artifact, expected) in [
            (Kind::Analyze, client.analyze(source), &system.analyze),
            (
                Kind::Schedule,
                client.schedule(source, config),
                &system.schedule,
            ),
            (
                Kind::Generate,
                client.generate(source, config),
                &system.generate,
            ),
        ] {
            let artifact = artifact.map_err(|e| format!("{} warm-up: {e}", kind.name()))?;
            if &artifact.artifact_json() != expected {
                return Err(format!(
                    "{} of {} differs from the local artifact",
                    kind.name(),
                    system.system.label
                ));
            }
        }
        sent.extend([Kind::Check, Kind::Analyze, Kind::Schedule, Kind::Generate]);
    }
    Ok(sent)
}

/// Adds the daemon's per-layer numbers — `server.*`, `remote.*` and the
/// structural analysis behind `analyze` — to `out`: an open loop of
/// `seconds` at [`RATE`] on one traced daemon, then the capacity ramp.
/// Its requests count in `attempted` and `failed` like builds.
pub fn layers(seed: u64, seconds: u64, root: &Path, out: &mut Outcome) {
    if let Err(e) = serve(seed, seconds, root, out) {
        out.wrong(e);
    }
}

fn serve(seed: u64, seconds: u64, root: &Path, out: &mut Outcome) -> Result<(), String> {
    let binary = std::env::current_exe()
        .map_err(|e| e.to_string())?
        .with_file_name("qssd");
    let trace_dir = root.join("ledger").join("out");
    let trace_path: PathBuf = trace_dir.join("qssd.trace.json");
    std::fs::create_dir_all(&trace_dir).map_err(|e| e.to_string())?;
    std::fs::remove_file(&trace_path).ok();

    // Set-up: start the daemon, build every served system locally and
    // warm the hot set.
    let tracer = Tracer::on();
    let daemon = Daemon::spawn(&binary, Some(&trace_path))?;
    let served = references(seed, root, &tracer)?;
    let mut control = Client::connect(daemon.addr).map_err(|e| e.to_string())?;
    let warmed = warm(&mut control, &served)?;
    // Counters before the load, so the server's numbers leave the
    // warm-up out.
    let before = control.metrics().map_err(|e| format!("metrics: {e}"))?;

    let mut rng = Rng::new(seed ^ 0x10ad);
    let lines = Lines::new(&served);
    let plan = plan(&mut rng, &served, seconds as f64, RATE);
    let load = drive(daemon.addr, &plan, &lines, &served)?;
    let plan = &plan[..load.sent];
    let latencies = account(out, &load);
    let after = control.metrics().map_err(|e| format!("metrics: {e}"))?;
    out.set("server.peak_rss_mb", crate::peak_rss_mb(daemon.child.id()));
    // The control requests the daemon answered before `after`.
    let mut control_kinds: Vec<&str> = warmed.iter().map(|k| k.name()).collect();
    control_kinds.push("metrics");
    check_counts(out, &after, &control_kinds, plan);
    drop(control);
    daemon.shutdown()?;
    eprintln!(
        "ledger: {} requests at {RATE} arrivals/s in {:.2} s; {} served systems",
        plan.len(),
        load.wall_s,
        served.len()
    );

    let analyses = self_times_ms(&tracer.spans())
        .remove("petri.analyze")
        .unwrap_or_default();
    out.set("petri.analyze_ms", stats::mean(analyses));
    write_trace(root, &tracer, "serve");

    let text = std::fs::read_to_string(&trace_path)
        .map_err(|e| format!("cannot read {}: {e}", trace_path.display()))?;
    let spans = load_spans(&spans_from_chrome(&text)?, control_kinds.len(), plan)?;
    server_metrics(out, &spans, &before, &after, plan.len());
    client_metrics(out, &load, plan, &latencies, &served, &spans);
    ramp(&binary, &served, &lines, &mut rng, out)
}

/// Counter `name` of a `metrics` snapshot; 0 if absent.
fn counter(metrics: &Value, name: &str) -> u64 {
    metrics
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

/// The server's own counts must match the client's, kind by kind: each
/// `latency_us.<kind>` histogram of `metrics` counts exactly the
/// requests of that kind sent before it (`control` and the load), and
/// the histograms sum to the `responses` counter.
fn check_counts(out: &mut Outcome, metrics: &Value, control: &[&str], plan: &[Planned]) {
    let mut client_counts: BTreeMap<&str, u64> = BTreeMap::new();
    for kind in control
        .iter()
        .copied()
        .chain(plan.iter().map(|p| p.kind.name()))
    {
        *client_counts.entry(kind).or_default() += 1;
    }
    let histograms = metrics
        .get("histograms")
        .and_then(Value::as_object)
        .unwrap_or(&[]);
    let mut histogram_total = 0;
    for (name, histogram) in histograms {
        let count = histogram.get("count").and_then(Value::as_u64).unwrap_or(0);
        histogram_total += count;
        let kind = name.strip_prefix("latency_us.").unwrap_or(name);
        let sent = client_counts.get(kind).copied().unwrap_or(0);
        if count != sent {
            out.wrong(format!(
                "server counted {count} `{kind}` responses, client {sent}"
            ));
        }
    }
    for (kind, sent) in &client_counts {
        if !histograms
            .iter()
            .any(|(n, _)| n == &format!("latency_us.{kind}"))
        {
            out.wrong(format!(
                "server has no `{kind}` histogram for {sent} requests"
            ));
        }
    }
    if histogram_total != counter(metrics, "responses") {
        out.wrong(format!(
            "histograms count {histogram_total} responses, the counter {}",
            counter(metrics, "responses")
        ));
    }
    let dropped = metrics
        .get("journal_dropped")
        .and_then(Value::as_u64)
        .unwrap_or(0);
    if dropped > 0 {
        out.wrong(format!("qssd's span journal dropped {dropped} events"));
    }
}

/// The root span of a request in the daemon's journal is named
/// `request kind=<kind>`.
const REQUEST_SPAN: &str = "request kind=";

/// The load's requests in the daemon's journal, with every span below
/// them. The `skip` control requests of the set-up come first and each
/// is answered before the next is sent, so ordered by start the load's
/// requests are the next `plan.len()`; their kinds must be the plan's.
fn load_spans(spans: &[Span], skip: usize, plan: &[Planned]) -> Result<Vec<Span>, String> {
    let mut roots: Vec<&Span> = spans
        .iter()
        .filter(|s| s.parent == 0 && s.name.starts_with(REQUEST_SPAN))
        .collect();
    roots.sort_by_key(|s| s.begin_us);
    let load = roots.get(skip..skip + plan.len()).ok_or_else(|| {
        format!(
            "qssd's journal holds {} requests, fewer than the {} sent",
            roots.len(),
            skip + plan.len()
        )
    })?;
    let mut journal_kinds: BTreeMap<&str, usize> = BTreeMap::new();
    for root in load {
        *journal_kinds
            .entry(&root.name[REQUEST_SPAN.len()..])
            .or_default() += 1;
    }
    let mut plan_kinds: BTreeMap<&str, usize> = BTreeMap::new();
    for planned in plan {
        *plan_kinds.entry(planned.kind.name()).or_default() += 1;
    }
    if journal_kinds != plan_kinds {
        return Err(format!(
            "qssd's journal has the load's requests as {journal_kinds:?}, the client sent {plan_kinds:?}"
        ));
    }
    let ids: BTreeSet<u64> = load.iter().map(|s| s.id).collect();
    let parents: BTreeMap<u64, u64> = spans.iter().map(|s| (s.id, s.parent)).collect();
    let root_of = |mut id: u64| {
        while let Some(&parent) = parents.get(&id).filter(|&&p| p != 0) {
            id = parent;
        }
        id
    };
    Ok(spans
        .iter()
        .filter(|s| ids.contains(&root_of(s.id)))
        .cloned()
        .collect())
}

/// The p99 latency limit of the capacity ramp: about twice the slowest
/// request class's server-side time at [`RATE`] (≈ 130 ms for a cold
/// `analyze` of a 50-process service net; hot `generate` p99 ≈ 45 ms).
pub const LIMIT_MS: f64 = 250.0;
/// Offered rates of the capacity ramp, as multiples of [`RATE`].
const RAMP: [f64; 6] = [1.0, 2.0, 3.0, 4.0, 6.0, 8.0];
/// Seconds of load per ramp step.
const RAMP_SECONDS: f64 = 3.0;

/// Adds the load's requests to the outcome: every one must have had its
/// exact answer. Returns their latencies, a failed request's infinite.
fn account(out: &mut Outcome, load: &Load) -> Vec<f64> {
    let sent = &load.received.latency_ms[..load.sent];
    let latencies: Vec<f64> = sent.iter().map(|l| l.unwrap_or(f64::INFINITY)).collect();
    out.attempted += load.sent as u64;
    out.failed += latencies.iter().filter(|l| !l.is_finite()).count() as u64;
    for why in &load.received.wrong {
        out.wrong(why.clone());
    }
    for (kind, count) in &load.received.errors {
        out.wrong(format!("{count} `{kind}` error replies"));
    }
    let missing = sent.iter().filter(|l| l.is_none()).count();
    if missing > 0 {
        out.wrong(format!(
            "{missing} of {} requests got no response",
            load.sent
        ));
    }
    latencies
}

/// The capacity ramp, on a fresh warmed daemon without a journal: the
/// highest rate whose requests all succeed within a p99 of [`LIMIT_MS`]
/// without a growing backlog. A refused or failed request only ends the
/// ramp; a wrong answer fails the run.
fn ramp(
    binary: &Path,
    served: &[Served],
    lines: &Lines,
    rng: &mut Rng,
    out: &mut Outcome,
) -> Result<(), String> {
    let daemon = Daemon::spawn(binary, None)?;
    let mut control = Client::connect(daemon.addr).map_err(|e| e.to_string())?;
    warm(&mut control, served)?;
    drop(control);
    let mut best = 0.0;
    for factor in RAMP {
        let rate = RATE * factor;
        let steps = plan(rng, served, RAMP_SECONDS, rate);
        let load = drive(daemon.addr, &steps, lines, served)?;
        for why in &load.received.wrong {
            out.wrong(format!("at {rate}/s: {why}"));
        }
        let mut latencies: Vec<f64> = load.received.latency_ms[..load.sent]
            .iter()
            .map(|l| l.unwrap_or(f64::INFINITY))
            .collect();
        let growth = backlog_growth(&latencies);
        let p99 = stats::quantile(&mut latencies, 0.99).unwrap_or(f64::INFINITY);
        eprintln!("ledger: ramp {rate}/s: p99 {p99:.2} ms, backlog growth {growth:.2}");
        if p99 > LIMIT_MS || growth > 2.0 {
            break;
        }
        best = rate;
    }
    out.set("remote.max_rps", best);
    daemon.shutdown()
}

/// Median latency of the last quarter of requests over that of the
/// first quarter: near 1 when the load is sustainable, growing with a
/// backlog.
fn backlog_growth(latencies_ms: &[f64]) -> f64 {
    let quarter = latencies_ms.len() / 4;
    if quarter == 0 {
        return 1.0;
    }
    stats::median(&latencies_ms[latencies_ms.len() - quarter..])
        / stats::median(&latencies_ms[..quarter])
}

/// Per-layer numbers of the daemon during the load: span self times
/// folded from the load's part of its `--trace-out` journal, and its
/// cache, coalescing and loop counters as they grew over the load.
fn server_metrics(
    out: &mut Outcome,
    spans: &[Span],
    before: &Value,
    after: &Value,
    load_requests: usize,
) {
    let times = self_times_ms(spans);
    let quantile = |name: &str, q: f64| {
        times
            .get(name)
            .and_then(|v| stats::quantile(&mut v.clone(), q))
            .unwrap_or(0.0)
    };
    out.set("server.queued_ms_p99", quantile("queued", 0.99));
    out.set("server.admit_ms_p50", quantile("admit", 0.5));
    out.set("server.search_ms_p50", quantile("search", 0.5));
    out.set(
        "server.coalesced_wait_ms_p99",
        quantile("coalesced_wait", 0.99),
    );
    out.set("server.respond_ms_p50", quantile("respond", 0.5));
    let grown = |name: &str| counter(after, name).saturating_sub(counter(before, name)) as f64;
    let ratio = |hits: f64, misses: f64| hits / (hits + misses).max(1.0);
    out.set(
        "server.context_hit_ratio",
        ratio(grown("context_cache.hits"), grown("context_cache.misses")),
    );
    out.set(
        "server.report_hit_ratio",
        ratio(grown("report_cache.hits"), grown("report_cache.misses")),
    );
    out.set(
        "server.coalesced_share",
        grown("coalesced") / (grown("coalesced") + grown("searches")).max(1.0),
    );
    out.set("server.evictions", grown("context_cache.evictions"));
    out.set("server.busy_rejections", grown("busy_rejections"));
    out.set("server.timeouts", grown("timeouts"));
    out.set(
        "server.loop_wakeups_per_req",
        grown("loop.wakeups") / load_requests.max(1) as f64,
    );
}

/// Per-layer numbers of the client side of the load: decoding, response
/// size, the open loop's latencies and lateness, and the queueing the
/// server cannot see.
fn client_metrics(
    out: &mut Outcome,
    load: &Load,
    plan: &[Planned],
    latencies: &[f64],
    served: &[Served],
    spans: &[Span],
) {
    let received = &load.received;
    out.set(
        "remote.decode_ms",
        stats::mean(received.decode_ms.iter().copied()),
    );
    out.set(
        "remote.response_kb",
        received.response_bytes as f64 / 1024.0 / plan.len().max(1) as f64,
    );
    let p99 = |keep: &dyn Fn(&Planned) -> bool| {
        let mut kept: Vec<f64> = plan
            .iter()
            .zip(latencies)
            .filter(|(p, _)| keep(p))
            .map(|(_, l)| *l)
            .collect();
        stats::quantile(&mut kept, 0.99).unwrap_or(0.0)
    };
    out.set("remote.p99_ms", p99(&|_| true));
    out.set("remote.hot_p99_ms", p99(&|p| served[p.system].hot));
    out.set("remote.cold_p99_ms", p99(&|p| !served[p.system].hot));
    out.set(
        "remote.gen_late_ms_p99",
        stats::quantile(&mut load.late_ms.clone(), 0.99).unwrap_or(0.0),
    );
    out.set("remote.backlog_growth", backlog_growth(latencies));
    // Client p99 minus the server's own p99 (its request spans during the
    // load), per kind, weighted by count.
    let (mut unseen, mut weight) = (0.0, 0.0);
    for kind in KINDS {
        let mut server: Vec<f64> = spans
            .iter()
            .filter(|s| s.parent == 0 && s.name.strip_prefix(REQUEST_SPAN) == Some(kind.name()))
            .map(|s| (s.end_us - s.begin_us) as f64 / 1000.0)
            .collect();
        let client = p99(&|p| p.kind == kind);
        let n = server.len() as f64;
        if let Some(server_p99) = stats::quantile(&mut server, 0.99) {
            unseen += n * (client - server_p99);
            weight += n;
        }
    }
    out.set("remote.unseen_ms_p99", unseen / weight.max(1.0));
}
