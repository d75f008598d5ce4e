//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <paper8|torus32|torus128|ckpt1024|all> [--seed N]
//!           [--seconds S] [--trace 0|1]
//! ```
//!
//! Runs one workload (or, with `all`, each workload in a process of its
//! own, so peak memory never carries over) for about `S` seconds, checks
//! its outputs, and prints a human-readable summary on stderr and, as the
//! last line of stdout, one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
//! With `--trace 0` the metrics are the end-to-end ones, with `--trace 1`
//! the per-layer ones; both sets must match `BENCHMARK.json` in the
//! working directory. The seed defaults to the one the committed
//! `BENCH_*.json` references were recorded with; under any other seed the
//! outputs are checked against invariants instead.

mod meter;
mod workloads;

use netmax_json::Json;
use std::process::{Command, ExitCode, Stdio};
use workloads::{Outcome, Workload};

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn read_cli() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err(bad("expected a positive number"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

/// The `(name, unit)` pairs `BENCHMARK.json` declares for one trace mode.
fn declared_metrics(trace: bool) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("cannot read BENCHMARK.json in the working directory: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = doc
        .field(if trace { "per_layer" } else { "end_to_end" })
        .and_then(Json::as_arr)
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut out = list
        .iter()
        .map(|m| {
            let name = m.field("name")?.as_str()?.to_string();
            let unit = m.field("unit")?.as_str()?.to_string();
            Ok((name, unit))
        })
        .collect::<Result<Vec<_>, netmax_json::JsonError>>()
        .map_err(|e| format!("BENCHMARK.json: {e}"))?;
    out.sort();
    Ok(out)
}

/// The machine and build the numbers were taken on.
fn machine_fingerprint() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let features: Vec<&str> = [
        ("sse4.2", cfg!(target_feature = "sse4.2")),
        ("avx", cfg!(target_feature = "avx")),
        ("avx2", cfg!(target_feature = "avx2")),
        ("fma", cfg!(target_feature = "fma")),
        ("avx512f", cfg!(target_feature = "avx512f")),
    ]
    .into_iter()
    .filter_map(|(f, on)| on.then_some(f))
    .collect();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "nproc={nproc} cpu=\"{cpu}\" target_features=[{}] profile={profile} git_rev={}",
        features.join(","),
        git_rev().unwrap_or_else(|| "unavailable".into())
    )
}

/// The checked-out commit, read from `.git` when there is one.
fn git_rev() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
}

fn print_summary(name: &str, seed: u64, out: &Outcome) {
    eprintln!(
        "{name} (seed {seed}): {} attempted, {} failed, correct={}",
        out.attempted, out.failed, out.correct
    );
    for m in &out.metrics {
        let mut line = format!("  {:<28} {:>16.6} {}", m.name, m.value, m.unit);
        if !m.samples.is_empty() {
            let median = meter::median(&m.samples);
            line += &format!("  n={} median={median:.6}", m.samples.len());
            if let Some((p, v)) = meter::tail_percentile(&m.samples) {
                line += &format!(" p{p}={v:.6}");
            }
        }
        eprintln!("{line}");
    }
    for note in &out.notes {
        eprintln!("  {note}");
    }
}

fn result_json(out: &Outcome) -> Json {
    Json::obj([
        ("correct", Json::Bool(out.correct)),
        ("attempted", Json::Int(out.attempted.into())),
        ("failed", Json::Int(out.failed.into())),
        (
            "metrics",
            Json::Obj(
                out.metrics
                    .iter()
                    .map(|m| {
                        let v = Json::obj([
                            ("value", Json::Num(m.value)),
                            ("unit", Json::Str(m.unit.into())),
                        ]);
                        (m.name.to_string(), v)
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Runs every workload in a child process of its own and prints one JSON
/// object keyed by workload.
fn run_all(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut results = Vec::new();
    for w in Workload::ALL {
        let mut cmd = Command::new(&exe);
        cmd.args([
            "--workload",
            w.cli_name(),
            "--seconds",
            &args.seconds.to_string(),
        ]);
        cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(seed) = args.seed {
            cmd.args(["--seed", &seed.to_string()]);
        }
        let child = cmd
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{}: {e}", w.cli_name()))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let last = stdout.lines().last().unwrap_or_default();
        if !child.status.success() {
            return Err(format!("{} exited with {}", w.cli_name(), child.status));
        }
        results.push((
            w.cli_name().to_string(),
            Json::parse(last).map_err(|e| e.to_string())?,
        ));
    }
    println!("{}", Json::Obj(results));
    Ok(())
}

fn main() -> ExitCode {
    let args = match read_cli() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let declared = match declared_metrics(args.trace) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("perfbench: {}", machine_fingerprint());
    if args.workload == "all" {
        return match run_all(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(kind) = Workload::named(&args.workload) else {
        eprintln!("perfbench: unknown workload `{}`", args.workload);
        return ExitCode::from(2);
    };
    let seed = args.seed.unwrap_or(kind.default_seed());
    let out = workloads::run_workload(kind, seed, args.seconds, args.trace);
    print_summary(kind.cli_name(), seed, &out);
    let mut emitted: Vec<(String, String)> = out
        .metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect();
    emitted.sort();
    if emitted != declared {
        eprintln!("perfbench: the emitted metrics do not match BENCHMARK.json");
        return ExitCode::FAILURE;
    }
    println!("{}", result_json(&out));
    ExitCode::SUCCESS
}
