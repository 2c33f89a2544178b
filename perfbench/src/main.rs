//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <fig_lowend|fig_highend|sweep_warm> [--seed N]
//!           [--seconds S] [--trace 0|1] [--scale F]
//! perfbench --record-reference
//! ```
//!
//! `--scale` shrinks every cell's work (the self-test runs at a tiny
//! scale); benchmark runs leave it at `grid::Scales::BENCH`.
//!
//! An untraced run (`--trace 0`) measures the end-to-end metrics; a
//! traced run (`--trace 1`) measures the per-layer metrics. Every run
//! checks every simulated result against `reference.txt` (and against
//! every other result of the same cell in the run), prints a host record,
//! and ends with one JSON line: `{"correct", "attempted", "failed",
//! "metrics"}`. See `NOTES.md` for the workloads and metrics.

mod grid;
mod layers;
mod run;

use grid::{Reference, Scales, Workload, FIGURE_SEED, HELD_OUT_SEED};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Where `--record-reference` writes and every run reads the reference.
const REFERENCE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.txt");

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    scales: Scales,
    /// Only fill this cache directory with the workload's cells (the
    /// warm sweep's set-up runs in such a child process).
    fill: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench --workload <fig_lowend|fig_highend|sweep_warm> \
                     [--seed N] [--seconds S] [--trace 0|1] [--scale F]\n       \
                     perfbench --record-reference";

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Option<Args>, String> {
    if argv == ["--record-reference"] {
        return Ok(None);
    }
    let mut workload = None;
    let mut seed = FIGURE_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut scales = Scales::BENCH;
    let mut fill = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = parse_seed(value).ok_or_else(bad)?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds >= 0.0 && seconds.is_finite()) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--scale" => {
                let scale: f64 = value.parse().map_err(|_| bad())?;
                if !(scale > 0.0 && scale <= 1.0) {
                    return Err(bad());
                }
                scales = Scales::uniform(scale);
            }
            run::FILL_FLAG => fill = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Some(Args {
        workload,
        seed,
        seconds,
        trace,
        scales,
        fill,
    }))
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host and environment record: a run under a `CSMT_*` knob is
/// marked as not a default-environment run.
fn host_record(workers: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut knobs: Vec<(String, String)> = std::env::vars()
        .filter(|(k, _)| k.starts_with("CSMT_"))
        .collect();
    knobs.sort();
    let knobs_json = knobs
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"host\": {{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"profile\": {}, \
         \"sweep_workers\": {workers}, \"default_env\": {}, \"csmt_env\": {{{knobs_json}}}}}}}",
        json_str(&cpu),
        json_str(env!("PERFBENCH_RUSTC")),
        json_str(env!("PERFBENCH_PROFILE")),
        knobs.is_empty(),
    )
}

/// A JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", u32::from(c));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render the result line. Values print with full precision.
fn result_line(attempted: u64, failed: usize, metrics: &[run::Metric]) -> String {
    let body = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value:?}, \"unit\": {}}}",
                json_str(m.name),
                json_str(m.unit)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        failed == 0
    )
}

/// Simulate every workload at the default and held-out seeds and write
/// their digests to the reference file.
fn record_reference() -> Result<(), String> {
    let mut reference = Reference::default();
    for seed in [FIGURE_SEED, HELD_OUT_SEED] {
        for w in Workload::ALL {
            let cells = grid::cells(w, seed, Scales::BENCH);
            let engine = csmt_sweep::SweepEngine::new(run::default_workers(), None);
            for (cell, r) in cells.iter().zip(engine.run(&cells).results) {
                reference.insert(cell, &r);
            }
            eprintln!("recorded {} at seed {seed:#x}", w.name());
        }
    }
    std::fs::write(REFERENCE, reference.render()).map_err(|e| format!("{REFERENCE}: {e}"))
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(Some(args)) => args,
        Ok(None) => {
            return match record_reference() {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("perfbench: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(dir) = &args.fill {
        let cells = grid::cells(args.workload, args.seed, args.scales);
        return match run::fill_child(dir, &cells) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let work_dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.work"))
        .join(std::process::id().to_string());
    let ctx = run::Ctx {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        scales: args.scales,
        workers: run::default_workers(),
        work_dir: work_dir.clone(),
    };
    println!("{}", host_record(ctx.workers));
    let reference = Path::new(REFERENCE);
    let report = if args.trace {
        layers::traced(&ctx, reference)
    } else {
        run::untraced(&ctx, reference)
    };
    let _ = std::fs::remove_dir_all(&work_dir);
    if let Some(parent) = work_dir.parent() {
        let _ = std::fs::remove_dir(parent); // only when no other run uses it
    }
    let report = match report {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if report.unreferenced > 0 {
        eprintln!(
            "note: {} of {} results have no reference digest (seed {:#x}); they were checked \
             by invariants and by agreement with every other result of their cell",
            report.unreferenced, report.attempted, args.seed
        );
    }
    for (cell, why) in &report.failures {
        println!("FAILED {cell}: {why}");
    }
    eprintln!(
        "cell_error_frac = {}",
        report.failures.len() as f64 / report.attempted.max(1) as f64
    );
    println!(
        "{}",
        result_line(report.attempted, report.failures.len(), &report.metrics)
    );
    ExitCode::SUCCESS
}
