//! The untraced run: set-up, the timed grid repeated for the run's
//! seconds, and the end-to-end metrics.

use crate::grid::{self, Reference, Scales, Verifier, Workload};
use csmt_core::RunResult;
use csmt_sweep::{ResultCache, SweepCell, SweepEngine};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Set-ups per batch in a figure run: one batch before the timed phase
/// and one after each timed grid; `setup_s` is the mean of the batches'
/// medians. A figure grid's set-up takes about a millisecond, and this
/// host runs it at ~0.65 ms for some seconds and ~1 ms for others, so
/// batches spread over the whole run average those spells; set-ups timed
/// back to back before the grids report whichever spell they fell in.
const SETUP_BATCH_FIG: usize = 20;
/// Set-ups per warm-sweep run, `setup_s` their median: each fills a
/// cache, seconds of work on every sweep worker.
const SETUP_REPEATS_WARM: usize = 3;

/// What one run is asked to do.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// The workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// Seconds the timed phase runs for (at least one grid).
    pub seconds: f64,
    /// Grid scales.
    pub scales: Scales,
    /// Sweep worker count.
    pub workers: usize,
    /// Scratch directory for result caches; removed after the run.
    pub work_dir: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

impl Metric {
    /// A metric named and measured in `BENCHMARK.json`'s terms.
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value }
    }
}

/// A finished run.
#[derive(Debug)]
pub struct Report {
    /// Cell results checked.
    pub attempted: u64,
    /// Cell results checked that have no reference digest.
    pub unreferenced: u64,
    /// `(cell, reason)` of every failed check.
    pub failures: Vec<(String, String)>,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// A report carrying a verifier's counts.
    pub fn new(verifier: Verifier<'_>, metrics: Vec<Metric>) -> Self {
        Report {
            attempted: verifier.attempted,
            unreferenced: verifier.unreferenced,
            failures: verifier.failures,
            metrics,
        }
    }
}

/// The sweep worker count users get: `SweepEngine::from_env`'s.
pub fn default_workers() -> usize {
    SweepEngine::from_env().threads()
}

/// The median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q` quantile of `xs` by linear interpolation (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

impl Ctx {
    /// A new, empty result cache under the work directory.
    pub fn fresh_cache(&self, tag: &str) -> Result<ResultCache, String> {
        let dir = self.work_dir.join(tag);
        let _ = std::fs::remove_dir_all(&dir);
        ResultCache::new(&dir).map_err(|e| format!("{}: {e}", dir.display()))
    }

    /// The cache a timed pass runs against: the filled one of the warm
    /// sweep, else a new, empty one.
    pub fn pass_cache(&self, warm: Option<&ResultCache>, tag: &str) -> Result<ResultCache, String> {
        match warm {
            Some(cache) => Ok(cache.clone()),
            None => self.fresh_cache(tag),
        }
    }
}

/// What [`timed_passes`] measured.
pub struct Passes {
    /// Wall time of each timed pass.
    pub walls: Vec<f64>,
    /// The last pass's results.
    pub results: Vec<Option<RunResult>>,
    /// Peak RSS in MB once the untimed warm-up pass is done: what one
    /// figure regeneration or one warm sweep costs, whatever the pass count.
    pub peak_rss_mb: f64,
}

/// Run the grid through the sweep engine once untimed, to warm up, then
/// pass after pass until `secs` are up (at least once), checking every
/// result. `between` runs after every pass, outside its timing.
pub fn timed_passes(
    ctx: &Ctx,
    v: &mut Verifier<'_>,
    cells: &[SweepCell],
    secs: f64,
    warm_cache: Option<&ResultCache>,
    tag: &str,
    between: &mut dyn FnMut() -> Result<(), String>,
) -> Result<Passes, String> {
    let warm = warm_cache.is_some();
    let mut walls = Vec::new();
    let mut peak_rss_mb = 0.0;
    let mut start = Instant::now();
    let mut pass = 0;
    loop {
        let cache = ctx.pass_cache(warm_cache, &format!("{tag}{pass}"))?;
        let engine = SweepEngine::new(ctx.workers, Some(cache.clone()));
        let t = Instant::now();
        let (results, hits) = run_cells(&engine, cells);
        if pass == 0 {
            peak_rss_mb = crate::peak_rss_mb();
            start = Instant::now();
        } else {
            walls.push(t.elapsed().as_secs_f64());
        }
        pass += 1;
        verify(v, cells, &results);
        if warm && hits != cells.len() {
            v.failures.push((
                format!("{} cells", cells.len() - hits),
                "not served from the warm cache".into(),
            ));
        }
        if !warm {
            let _ = std::fs::remove_dir_all(cache.dir());
        }
        between()?;
        if !walls.is_empty() && start.elapsed() >= Duration::from_secs_f64(secs) {
            return Ok(Passes {
                walls,
                results,
                peak_rss_mb,
            });
        }
    }
}

/// The command-line flag of the cache-filling child process.
pub const FILL_FLAG: &str = "--fill-cache";

/// The child side of [`fill_cache`]: a cold sweep of `cells` into the
/// cache at `dir`, printing each cell's `label digest` (or `label
/// !reason`) line.
pub fn fill_child(dir: &Path, cells: &[SweepCell]) -> Result<(), String> {
    let cache = ResultCache::new(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let (results, _) = run_cells(&SweepEngine::new(default_workers(), Some(cache)), cells);
    for (cell, r) in cells.iter().zip(&results) {
        match grid::examine(cell, r.as_ref()) {
            Ok(d) => println!("{} {d:016x}", grid::label(cell)),
            Err(e) => println!("{} !{e}", grid::label(cell)),
        }
    }
    Ok(())
}

/// A cell's label and its verdict from [`grid::examine`].
pub type Verdict = (String, Result<u64, String>);

/// Fill a new cache with the workload's cells in a child process, as an
/// earlier sweep would have; the serving process's memory then covers
/// the warm phase alone. Returns the cache and the verdict on every
/// cold result, for checking against the reference and the warm hits.
pub fn fill_cache(ctx: &Ctx, tag: &str) -> Result<(ResultCache, Vec<Verdict>), String> {
    let cache = ctx.fresh_cache(tag)?;
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let out = Command::new(exe)
        .arg(FILL_FLAG)
        .arg(cache.dir())
        .args(["--workload", ctx.workload.name()])
        .args(["--seed", &ctx.seed.to_string()])
        .args(["--scale", &ctx.scales.warm.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cache fill: {e}"))?;
    if !out.status.success() {
        return Err(format!("cache fill exited with {}", out.status));
    }
    let verdicts = String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|line| {
            let (label, verdict) = line
                .split_once(' ')
                .ok_or_else(|| format!("cache fill printed {line:?}"))?;
            let verdict = match verdict.strip_prefix('!') {
                Some(e) => Err(e.to_string()),
                None => u64::from_str_radix(verdict, 16)
                    .map_err(|_| format!("cache fill printed digest {verdict:?}")),
            };
            Ok((label.to_string(), verdict))
        })
        .collect::<Result<_, String>>()?;
    Ok((cache, verdicts))
}

/// Read and parse the reference digests.
pub fn load_reference(path: &Path) -> Result<Reference, String> {
    std::fs::read_to_string(path)
        .map_err(|e| format!("{}: {e}", path.display()))
        .and_then(|t| Reference::parse(&t))
}

/// Run `cells` through `engine`. Results are `None` for cells that
/// panicked: after a panic each cell is re-run alone to name the culprits.
pub fn run_cells(engine: &SweepEngine, cells: &[SweepCell]) -> (Vec<Option<RunResult>>, usize) {
    match catch_unwind(AssertUnwindSafe(|| engine.run(cells))) {
        Ok(out) => (out.results.into_iter().map(Some).collect(), out.hits),
        Err(_) => (
            cells
                .iter()
                .map(|c| catch_unwind(AssertUnwindSafe(|| c.simulate())).ok())
                .collect(),
            0,
        ),
    }
}

/// Committed instructions over a grid's results.
pub fn committed(results: &[Option<RunResult>]) -> u64 {
    results.iter().flatten().map(|r| r.slots.committed).sum()
}

/// Check a grid's results cell by cell.
pub fn verify(v: &mut Verifier<'_>, cells: &[SweepCell], results: &[Option<RunResult>]) {
    for (cell, r) in cells.iter().zip(results) {
        v.check(cell, r.as_ref());
    }
}

/// One figure set-up: load the reference and build the grid.
fn figure_setup(ctx: &Ctx, reference_path: &Path) -> Result<(Reference, Vec<SweepCell>), String> {
    let reference = load_reference(reference_path)?;
    Ok((reference, grid::cells(ctx.workload, ctx.seed, ctx.scales)))
}

/// The median time of [`SETUP_BATCH_FIG`] figure set-ups.
fn figure_setup_batch(ctx: &Ctx, reference_path: &Path) -> Result<f64, String> {
    let mut times = Vec::with_capacity(SETUP_BATCH_FIG);
    for _ in 0..SETUP_BATCH_FIG {
        let t = Instant::now();
        figure_setup(ctx, reference_path)?;
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&times))
}

/// The untraced run: end-to-end metrics.
pub fn untraced(ctx: &Ctx, reference_path: &Path) -> Result<Report, String> {
    let warm = ctx.workload == Workload::SweepWarm;

    // Set-up: load the reference and build the grid; the warm sweep
    // also fills a cache with every cell in a child process.
    let mut setups = Vec::new();
    let mut verdicts = Vec::new();
    let mut prepared: Option<(Reference, Vec<SweepCell>, Option<ResultCache>)> = None;
    if warm {
        for i in 0..SETUP_REPEATS_WARM {
            let t = Instant::now();
            let (reference, cells) = figure_setup(ctx, reference_path)?;
            let (cache, cold) = fill_cache(ctx, &format!("setup{i}"))?;
            verdicts.extend(cold);
            setups.push(t.elapsed().as_secs_f64());
            if let Some((_, _, Some(old))) = prepared.replace((reference, cells, Some(cache))) {
                let _ = std::fs::remove_dir_all(old.dir());
            }
        }
    } else {
        let (reference, cells) = figure_setup(ctx, reference_path)?;
        setups.push(figure_setup_batch(ctx, reference_path)?);
        prepared = Some((reference, cells, None));
    }
    let (reference, cells, warm_cache) = prepared.expect("at least one set-up");
    let mut v = Verifier::new(&reference);
    for (label, verdict) in verdicts {
        v.record(label, verdict);
    }

    // Timed phase: a warm-up grid, then whole grids until the run's
    // seconds are up; a figure run times a batch of set-ups after each.
    let mut between = || -> Result<(), String> {
        if !warm {
            setups.push(figure_setup_batch(ctx, reference_path)?);
        }
        Ok(())
    };
    let Passes {
        walls,
        results,
        peak_rss_mb,
    } = timed_passes(
        ctx,
        &mut v,
        &cells,
        ctx.seconds,
        warm_cache.as_ref(),
        "grid",
        &mut between,
    )?;
    let setup_s = if warm {
        median(&setups)
    } else {
        setups.iter().sum::<f64>() / setups.len() as f64
    };
    let insts = committed(&results);
    let wall = median(&walls);
    eprintln!(
        "{}: {} grids of {} cells, wall median {wall:.4} s (min {:.4}, max {:.4})",
        ctx.workload.name(),
        walls.len(),
        cells.len(),
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max),
    );
    let metrics = vec![
        Metric::new("wall_s", "s", wall),
        Metric::new("sim_minsts_per_s", "Minst/s", insts as f64 / wall / 1e6),
        Metric::new("cells_per_s", "cells/s", cells.len() as f64 / wall),
        Metric::new("setup_s", "s", setup_s),
        Metric::new("peak_rss_mb", "MB", peak_rss_mb),
    ];
    Ok(Report::new(v, metrics))
}
