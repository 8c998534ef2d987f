//! `ledger` — the seeded benchmark of the qss compile flow and the
//! `qssd` service, from FlowC source to socket.
//!
//! ```text
//! ledger --workload compile_search|compile_wide --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root (it reads `samples/` and, in a traced
//! `compile_wide` run, starts the `qssd` built next to this binary). The last
//! line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics when
//! `--trace 0`, the per-layer metrics when `--trace 1`. The exit code is
//! 0 only when every output was right and every count matched.

mod build;
mod compile;
mod cpu;
mod gen;
mod metrics;
mod serve;
mod stats;
mod trace;

use std::path::Path;
use std::process::ExitCode;

const USAGE: &str =
    "usage: ledger --workload compile_search|compile_wide --seed N --seconds S --trace 0|1";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut pairs = args.chunks(2);
    for pair in &mut pairs {
        let [flag, value] = pair else {
            return Err(format!("`{}` needs a value", pair[0]));
        };
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("invalid `{flag}` value `{value}`"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing `--workload`")?,
        seed: seed.ok_or("missing `--seed`")?,
        seconds: seconds.ok_or("missing `--seconds`")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("ledger: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = Path::new(".");
    // Refuse to run outside a checkout: the corpus needs `samples/`.
    if !root.join("samples").join("pipeline.flowc").is_file() {
        eprintln!("ledger: run from the repository root (samples/pipeline.flowc not found)");
        return ExitCode::from(2);
    }
    let mut outcome = match args.workload.as_str() {
        "compile_search" => compile::run(
            compile::Corpus::Search,
            args.seed,
            args.seconds,
            args.trace,
            root,
        ),
        "compile_wide" => {
            let mut out = compile::run(
                compile::Corpus::Wide,
                args.seed,
                args.seconds,
                args.trace,
                root,
            );
            // The daemon's layers are measured in this workload's traced
            // run: a served load's wall-clock numbers spread too widely on
            // a shared VM to be a bounded workload of their own.
            if args.trace {
                serve::layers(args.seed, (args.seconds / 2).max(1), root, &mut out);
            }
            out
        }
        other => {
            eprintln!("ledger: unknown workload `{other}`\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    outcome.set(
        "fail_share",
        outcome.failed as f64 / outcome.attempted.max(1) as f64,
    );
    println!("{}", outcome.result_line(args.trace));
    if outcome.correct() && outcome.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Resident set (`VmRSS`) of process `pid` now, in MiB; 0 if unknown.
pub fn rss_mb(pid: u32) -> f64 {
    status_mb(pid, "VmRSS:")
}

/// Peak resident set (`VmHWM`) of process `pid` so far, in MiB; 0 if
/// unknown.
pub fn peak_rss_mb(pid: u32) -> f64 {
    status_mb(pid, "VmHWM:")
}

/// A size field of `/proc/<pid>/status`, in MiB; 0 if unknown.
fn status_mb(pid: u32, field: &str) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix(field))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
