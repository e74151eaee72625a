//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-closed --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Generates a workload's inputs from `--seed`, drives the public APIs of
//! the serving engine, the user-state tier, the TS-PPR core, the feature
//! layer, the stream trainer and the store from outside for about
//! `--seconds` of measured work, checks the outputs, and prints one JSON
//! object as the last line of standard output:
//!
//! ```text
//! {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` runs traced
//! passes (spans around every call into a layer, plus a direct replay of
//! the engine's requests through the functions a shard calls) and reports
//! the per-layer metrics. See `perfbench/README.md`.

mod alloc;
mod direct;
mod pin;
mod report;
mod serve;
mod setup;
mod stats;
mod stream;
mod trace;

use rrc_obs::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

#[global_allocator]
static ALLOC: alloc::Counting = alloc::Counting;

/// Command-line arguments; every one is required.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness-check violations; any one fails the run.
    pub violations: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Workload parameters, for provenance.
    pub params: Vec<(&'static str, Json)>,
    /// Per-pass values, sample counts and the span table.
    pub details: Vec<(&'static str, Json)>,
    /// Per-name span totals over every traced pass.
    pub span_stats: BTreeMap<&'static str, trace::SpanStats>,
    /// The last traced pass's spans, per thread, written out at the end.
    pub spans: Vec<(String, Vec<trace::Span>)>,
}

impl Outcome {
    /// Fold a traced pass's spans into the totals and keep them as the
    /// pass to write out (one pass bounds the memory and file size).
    pub fn keep_spans(&mut self, threads: Vec<(String, Vec<trace::Span>)>) {
        for (_, spans) in &threads {
            trace::aggregate_into(&mut self.span_stats, spans);
        }
        self.spans = threads;
    }

    /// Record a violation unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let msg = what();
            eprintln!("perfbench: CHECK FAILED: {msg}");
            self.violations.push(msg);
        }
    }
}

/// Scratch space for spill segments and registries, removed on drop.
pub struct TempDir(pub PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const WORKLOADS: [&str; 3] = ["serve-closed", "serve-open-spill", "stream-learn"];

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload serve-closed|serve-open-spill|stream-learn \
         --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => workload = WORKLOADS.contains(&value.as_str()).then_some(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => None,
                }
            }
            _ => usage(),
        }
    }
    match (workload, seed, seconds, trace) {
        (Some(workload), Some(seed), Some(seconds), Some(trace)) => Args {
            workload,
            seed,
            seconds,
            trace,
        },
        _ => usage(),
    }
}

/// The checkout's git revision, when the working directory is a git
/// checkout (the benchmark may also run from an exported tree).
fn git_revision() -> String {
    if !Path::new(".git").exists() {
        return "unavailable".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unavailable".to_string())
}

fn main() {
    let args = parse_args();
    let started = Instant::now();
    let out_dir = PathBuf::from("perfbench/out");
    let tmp = TempDir(out_dir.join(format!("tmp-{}", std::process::id())));
    if let Err(e) = std::fs::create_dir_all(&tmp.0) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.0.display());
        std::process::exit(1);
    }

    let mut outcome = match args.workload.as_str() {
        "serve-closed" => serve::run(&serve::CLOSED, &args, &tmp.0),
        "serve-open-spill" => serve::run(&serve::OPEN_SPILL, &args, &tmp.0),
        _ => stream::run(&args, &tmp.0),
    };
    drop(tmp);
    outcome.check(outcome.attempted > 0, || {
        "no request was attempted".to_string()
    });

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let tag = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let metrics_json = |ms: &[Metric]| {
        Json::obj(ms.iter().map(|m| {
            (
                m.name,
                Json::obj([("value", Json::F64(m.value)), ("unit", Json::from(m.unit))]),
            )
        }))
    };
    let mut spans_file = Json::Null;
    if !outcome.spans.is_empty() {
        // One file per workload, overwritten by its next traced run.
        let path = out_dir.join(format!("{}.spans.tsv", args.workload));
        match trace::write_tsv(&path, &outcome.spans) {
            Ok(()) => spans_file = Json::from(path.display().to_string()),
            Err(e) => eprintln!("perfbench: cannot write {}: {e}", path.display()),
        }
    }
    let report = Json::obj([
        (
            "provenance",
            Json::obj([
                ("workload", Json::from(args.workload.as_str())),
                ("seed", Json::from(args.seed)),
                ("seconds", Json::F64(args.seconds)),
                ("trace", Json::Bool(args.trace)),
                ("nproc", Json::from(nproc)),
                ("git_revision", Json::from(git_revision())),
                ("params", Json::obj(outcome.params)),
            ]),
        ),
        ("correct", Json::Bool(outcome.violations.is_empty())),
        (
            "violations",
            Json::Arr(
                outcome
                    .violations
                    .iter()
                    .map(|v| Json::from(v.as_str()))
                    .collect(),
            ),
        ),
        ("metrics", metrics_json(&outcome.metrics)),
        ("details", Json::obj(outcome.details)),
        ("spans_file", spans_file),
        ("elapsed_s", Json::F64(started.elapsed().as_secs_f64())),
    ]);
    let report_path = out_dir.join(format!("{tag}.json"));
    if let Err(e) = std::fs::write(&report_path, report.render_pretty()) {
        eprintln!("perfbench: cannot write {}: {e}", report_path.display());
    }
    eprintln!("perfbench: full report in {}", report_path.display());

    let correct = outcome.violations.is_empty();
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        ("metrics", metrics_json(&outcome.metrics)),
    ]);
    println!("{}", result.render());
    if !correct {
        std::process::exit(1);
    }
}
