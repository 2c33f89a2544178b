//! The traced run: per-layer metrics. Spans are timed around the
//! benchmark's own calls into each layer (`csmt-workloads`, `csmt-core`,
//! `csmt-mem`, `csmt-sweep`); per-phase cluster time comes from the
//! public `HostProfiler` probe.
//!
//! Passes, in order (the `fig_*` workloads run all of them; the warm
//! sweep does no simulation in its timed phase, so only A, B and the
//! traffic counts apply and the simulation layers read 0):
//!
//! * A — the untraced grid, as in the untraced run (`trace.overhead_frac`
//!   and `sweep.pool_efficiency` divide by its wall time);
//! * B — the same grid on the same worker pool, each cell's cache load,
//!   simulation (with `HostProfiler` attached) and cache store timed;
//! * C — every cell simulated alone, one after another, with each call
//!   that `SweepCell::simulate` makes timed;
//! * D — one representative cell with fast-forward off;
//! * E — that cell's memory-access stream recorded and replayed against a
//!   fresh `MemorySystem`, next to the `components` bench's synthetic
//!   access pattern.

use crate::grid::{self, Verifier, Workload};
use crate::run::{self, median, quantile, Ctx, Metric, Report};
use csmt_core::{ArchKind, Machine, RunResult};
use csmt_mem::{AccessKind, AccessOutcome, MemConfig, MemorySystem, ServicedBy};
use csmt_metrics::HostProfiler;
use csmt_sweep::{pool, ResultCache, SweepCell};
use csmt_trace::{CacheEvent, HostPhase, NullProbe, Probe, ServiceLevel};
use csmt_workloads::{build_streams, AppParams};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// Simulated-cycle ceiling, as in `csmt-workloads`' runner.
const MAX_CYCLES: u64 = 2_000_000_000;

/// Host time of one cell's calls into each layer.
#[derive(Debug, Default, Clone, Copy)]
struct CellTimes {
    /// `Machine::new` + scheduler + `attach_threads`.
    machine_new_ns: u64,
    /// `build_streams`.
    build_streams_ns: u64,
    /// `Machine::run`.
    run_ns: u64,
    /// Simulated cycles.
    cycles: u64,
}

impl CellTimes {
    fn total_ns(&self) -> u64 {
        self.machine_new_ns + self.build_streams_ns + self.run_ns
    }
}

fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// A cell's machine, built as `SweepCell::simulate` builds it.
fn machine_for(cell: &SweepCell) -> Machine {
    let mut machine = Machine::new(
        cell.arch.chip(),
        cell.n_chips,
        MemConfig::table3(),
        cell.seed,
    );
    if let Some(policy) = csmt_core::sched::by_name(&cell.sched) {
        // Dynamic-on-FA is refused and keeps the static default, as in
        // the sweep engine's cell function.
        let _ = machine.set_scheduler(policy);
    }
    machine
}

/// Simulate `cell` with the calls `SweepCell::simulate` makes, each
/// timed. The result is checked against the reference like any other,
/// so it must equal the engine's bit for bit.
fn simulate_timed<P: Probe>(
    cell: &SweepCell,
    fastforward: bool,
    probe: &mut P,
) -> (RunResult, CellTimes) {
    let t0 = Instant::now();
    let mut machine = machine_for(cell);
    let new_ns = ns_since(t0);
    let t1 = Instant::now();
    let params = AppParams::new(
        machine.hw_thread_capacity(),
        cell.n_chips,
        cell.scale,
        cell.seed,
    );
    let streams = build_streams(&cell.app, &params);
    let build_streams_ns = ns_since(t1);
    let t2 = Instant::now();
    machine.attach_threads(streams);
    if !fastforward {
        machine.set_fastforward(false);
    }
    let attach_ns = ns_since(t2);
    let t3 = Instant::now();
    let result = machine.run_probed(MAX_CYCLES, probe);
    let run_ns = ns_since(t3);
    let times = CellTimes {
        machine_new_ns: new_ns + attach_ns,
        build_streams_ns,
        run_ns,
        cycles: result.cycles,
    };
    (result, times)
}

/// `HostProfiler` totals summed over cells.
#[derive(Debug, Default, Clone, Copy)]
struct Phases {
    nanos: [u64; HostPhase::ALL.len()],
    calls: [u64; HostPhase::ALL.len()],
}

impl Phases {
    fn of(p: &HostProfiler) -> Self {
        let mut out = Phases::default();
        for phase in HostPhase::ALL {
            out.nanos[phase.index()] = p.nanos(phase);
            out.calls[phase.index()] = p.calls(phase);
        }
        out
    }

    fn merge(&mut self, other: &Phases) {
        for i in 0..self.nanos.len() {
            self.nanos[i] += other.nanos[i];
            self.calls[i] += other.calls[i];
        }
    }

    fn nanos(&self, phase: HostPhase) -> u64 {
        self.nanos[phase.index()]
    }

    /// Host nanoseconds in the cluster's own phases (memory is nested
    /// inside issue and commit; cycle-end is the machine loop's).
    fn cluster_nanos(&self) -> u64 {
        [
            HostPhase::Complete,
            HostPhase::Commit,
            HostPhase::Issue,
            HostPhase::Fetch,
            HostPhase::Account,
        ]
        .into_iter()
        .map(|p| self.nanos(p))
        .sum()
    }
}

/// One cell of traced pass B.
#[derive(Debug, Default)]
struct TracedCell {
    result: Option<RunResult>,
    hit: bool,
    load_ns: u64,
    store_ns: Option<u64>,
    phases: Phases,
}

/// Pass B: the sweep engine's cell job (load, else simulate and store)
/// on the engine's pool, with each call timed.
fn traced_pass(cells: &[SweepCell], workers: usize, cache: &ResultCache) -> Vec<TracedCell> {
    let job = |i: usize| {
        let cell = &cells[i];
        let key = cell.key();
        let t = Instant::now();
        let loaded = cache.load(key);
        let load_ns = ns_since(t);
        if let Some(r) = loaded {
            return TracedCell {
                result: Some(r),
                hit: true,
                load_ns,
                ..TracedCell::default()
            };
        }
        let mut prof = HostProfiler::new();
        let Ok((r, _)) = catch_unwind(AssertUnwindSafe(|| simulate_timed(cell, true, &mut prof)))
        else {
            return TracedCell {
                load_ns,
                ..TracedCell::default()
            };
        };
        let phases = Phases::of(&prof);
        let t = Instant::now();
        cache.store(key, &r);
        let store_ns = Some(ns_since(t));
        TracedCell {
            result: Some(r),
            hit: false,
            load_ns,
            store_ns,
            phases,
        }
    };
    pool::run_jobs(cells.len(), workers, job, |_, _| {})
}

/// Records every memory access a run makes.
#[derive(Debug, Default)]
struct AccessRecorder {
    events: Vec<CacheEvent>,
}

impl Probe for AccessRecorder {
    const WANTS_INST_EVENTS: bool = false;
    const WANTS_CACHE_EVENTS: bool = true;
    const WANTS_CYCLE_STATS: bool = false;

    fn cache_access(&mut self, e: CacheEvent) {
        self.events.push(e);
    }
}

fn level(s: ServicedBy) -> ServiceLevel {
    match s {
        ServicedBy::L1 => ServiceLevel::L1,
        ServicedBy::L2 => ServiceLevel::L2,
        ServicedBy::LocalMem => ServiceLevel::LocalMem,
        ServicedBy::RemoteMem => ServiceLevel::RemoteMem,
        ServicedBy::RemoteL2 => ServiceLevel::RemoteL2,
    }
}

/// Pass E: record `cell`'s access stream, replay it against a copy of
/// the machine's memory system taken just before the run, and count the
/// outcomes whose level or completion cycle differ. Returns the result,
/// the mismatches, the access count and host ns per replayed access.
fn replay(cell: &SweepCell) -> (RunResult, u64, usize, f64) {
    let mut machine = machine_for(cell);
    let params = AppParams::new(
        machine.hw_thread_capacity(),
        cell.n_chips,
        cell.scale,
        cell.seed,
    );
    machine.attach_threads(build_streams(&cell.app, &params));
    let mut fresh: MemorySystem = machine.memory().clone();
    let mut rec = AccessRecorder::default();
    let result = machine.run_probed(MAX_CYCLES, &mut rec);
    let mut outcomes: Vec<AccessOutcome> = Vec::with_capacity(rec.events.len());
    let t = Instant::now();
    for e in &rec.events {
        let kind = if e.write {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        outcomes.push(fresh.access(e.node as usize, e.addr, kind, e.cycle));
    }
    let ns = ns_since(t);
    let mismatches = rec
        .events
        .iter()
        .zip(&outcomes)
        .filter(|(e, o)| level(o.serviced_by) != e.level || o.complete_at != e.complete_at)
        .count() as u64;
    let n = rec.events.len();
    (result, mismatches, n, ns as f64 / n.max(1) as f64)
}

/// The `components` bench's memory-system pattern: one access every 2
/// cycles to a random address below 16 MiB from a random one of 4
/// nodes, 25% stores. Host ns per access over `n` accesses.
fn synthetic_access_ns(n: usize, seed: u64) -> f64 {
    let mut mem = MemorySystem::new(MemConfig::table3(), 4, 5);
    let mut state = seed;
    let mut now = 0u64;
    let t = Instant::now();
    for _ in 0..n {
        // SplitMix64.
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        now += 2;
        let addr = z & ((1 << 24) - 1);
        let node = ((z >> 24) % 4) as usize;
        let kind = if (z >> 32).is_multiple_of(4) {
            AccessKind::Write
        } else {
            AccessKind::Read
        };
        black_box(mem.access(node, addr, kind, now));
    }
    ns_since(t) as f64 / n.max(1) as f64
}

/// The traced run: per-layer metrics.
pub fn traced(ctx: &Ctx, reference_path: &Path) -> Result<Report, String> {
    let reference = run::load_reference(reference_path)?;
    let mut v = Verifier::new(&reference);
    let cells = grid::cells(ctx.workload, ctx.seed, ctx.scales);
    let warm = ctx.workload == Workload::SweepWarm;
    let warm_cache = if warm {
        let (cache, cold) = run::fill_cache(ctx, "warm")?;
        for (label, verdict) in cold {
            v.record(label, verdict);
        }
        Some(cache)
    } else {
        None
    };

    // A: untraced, for half the run's seconds.
    let untraced = run::timed_passes(
        ctx,
        &mut v,
        &cells,
        ctx.seconds / 2.0,
        warm_cache.as_ref(),
        "a",
        &mut || Ok(()),
    )?;

    // B: traced, on the same pool, for the other half.
    let mut walls_b = Vec::new();
    let mut traced = Vec::new();
    let start = Instant::now();
    loop {
        let cache = ctx.pass_cache(warm_cache.as_ref(), &format!("b{}", walls_b.len()))?;
        let t = Instant::now();
        let pass = traced_pass(&cells, ctx.workers, &cache);
        walls_b.push(t.elapsed().as_secs_f64());
        for (cell, c) in cells.iter().zip(&pass) {
            v.check(cell, c.result.as_ref());
        }
        traced.extend(pass);
        if start.elapsed().as_secs_f64() >= ctx.seconds / 2.0 {
            break;
        }
    }
    let mut phases = Phases::default();
    let mut cluster_cycles = 0u64;
    for (i, c) in traced.iter().enumerate() {
        phases.merge(&c.phases);
        if let (false, Some(r)) = (c.hit, &c.result) {
            let cell = &cells[i % cells.len()];
            cluster_cycles += r.cycles * (cell.arch.chip().clusters * cell.n_chips) as u64;
        }
    }
    let loads_us: Vec<f64> = traced.iter().map(|c| c.load_ns as f64 / 1e3).collect();
    let stores_us: Vec<f64> = traced
        .iter()
        .filter_map(|c| c.store_ns)
        .map(|ns| ns as f64 / 1e3)
        .collect();
    let hits = traced.iter().filter(|c| c.hit).count();

    // C, D, E: simulation layers (nothing simulates in the warm phase).
    let mut serial = Vec::new();
    let (mut ff_speedup, mut access_ns, mut synthetic_ns, mut mismatches) = (0.0, 0.0, 0.0, 0);
    if !warm {
        for cell in &cells {
            let sim = catch_unwind(AssertUnwindSafe(|| {
                simulate_timed(cell, true, &mut NullProbe)
            }));
            v.check(cell, sim.as_ref().ok().map(|(r, _)| r));
            if let Ok((_, times)) = sim {
                serial.push(times);
            }
        }
        let rep_index = cells
            .iter()
            .position(|c| c.arch == ArchKind::Smt2 && c.app.name == "ocean")
            .expect("SMT2 ocean is in every figure grid");
        let rep = &cells[rep_index];
        let (r_off, off) = simulate_timed(rep, false, &mut NullProbe);
        v.check(rep, Some(&r_off));
        let (r_on, on) = simulate_timed(rep, true, &mut NullProbe);
        v.check(rep, Some(&r_on));
        ff_speedup = off.run_ns as f64 / on.run_ns.max(1) as f64;
        let (r_rec, m, n, ns) = replay(rep);
        v.check(rep, Some(&r_rec));
        mismatches = m;
        access_ns = ns;
        synthetic_ns = synthetic_access_ns(n, ctx.seed);
        eprintln!(
            "replay of {}: {n} accesses, {m} mismatches, {ns:.1} ns/access; synthetic {synthetic_ns:.1} ns/access",
            grid::label(rep)
        );
    }

    let wall_a = median(&untraced.walls);
    let per_cell_us = |f: fn(&CellTimes) -> u64| {
        let ns: u64 = serial.iter().map(f).sum();
        ns as f64 / 1e3 / serial.len().max(1) as f64
    };
    let serial_ns: u64 = serial.iter().map(CellTimes::total_ns).sum();
    let run_ns: u64 = serial.iter().map(|t| t.run_ns).sum();
    let cycles: u64 = serial.iter().map(|t| t.cycles).sum();
    let cell_ms: Vec<f64> = serial.iter().map(|t| t.total_ns() as f64 / 1e6).collect();
    let issue_calls = phases.calls[HostPhase::Issue.index()];
    let cpu_ns = phases.cluster_nanos();
    let share = |p: HostPhase| phases.nanos(p) as f64 / cpu_ns.max(1) as f64;
    let traffic = untraced.results.iter().flatten().fold([0u64; 4], |acc, r| {
        [
            acc[0] + r.mem.accesses,
            acc[1] + r.mem.remote_mem + r.mem.remote_l2,
            acc[2] + r.mem.l1_hits,
            acc[3] + r.slots.committed,
        ]
    });
    let accesses = traffic[0].max(1) as f64;
    let m = Metric::new;
    let metrics = vec![
        m(
            "workloads.build_streams_us",
            "us",
            per_cell_us(|t| t.build_streams_ns),
        ),
        m(
            "core.machine_new_us",
            "us",
            per_cell_us(|t| t.machine_new_ns),
        ),
        m(
            "core.run_ns_per_cycle",
            "ns",
            run_ns as f64 / cycles.max(1) as f64,
        ),
        m(
            "core.stepped_frac",
            "ratio",
            issue_calls as f64 / cluster_cycles.max(1) as f64,
        ),
        m("core.ff_speedup", "ratio", ff_speedup),
        m(
            "cpu.ns_per_cluster_cycle",
            "ns",
            cpu_ns as f64 / issue_calls.max(1) as f64,
        ),
        m("cpu.share.complete", "ratio", share(HostPhase::Complete)),
        m("cpu.share.commit", "ratio", share(HostPhase::Commit)),
        m("cpu.share.issue", "ratio", share(HostPhase::Issue)),
        m("cpu.share.fetch", "ratio", share(HostPhase::Fetch)),
        m("cpu.share.account", "ratio", share(HostPhase::Account)),
        m("cpu.share.memory", "ratio", share(HostPhase::Memory)),
        m("mem.access_ns", "ns", access_ns),
        m("mem.access_ns_synthetic", "ns", synthetic_ns),
        m("mem.replay_mismatches", "count", mismatches as f64),
        m("mem.remote_frac", "ratio", traffic[1] as f64 / accesses),
        m("mem.l1_hit_ratio", "ratio", traffic[2] as f64 / accesses),
        m(
            "mem.accesses_per_kinst",
            "1/kinst",
            1e3 * accesses / traffic[3].max(1) as f64,
        ),
        m("sweep.cache_load_us_p50", "us", quantile(&loads_us, 0.5)),
        m("sweep.cache_load_us_p99", "us", quantile(&loads_us, 0.99)),
        m(
            "sweep.hit_ratio",
            "ratio",
            hits as f64 / traced.len().max(1) as f64,
        ),
        m("sweep.cache_store_us", "us", median(&stores_us)),
        m(
            "sweep.pool_efficiency",
            "ratio",
            serial_ns as f64 / 1e9 / (wall_a * ctx.workers as f64),
        ),
        m("sweep.cell_ms_p50", "ms", quantile(&cell_ms, 0.5)),
        m("sweep.cell_ms_p75", "ms", quantile(&cell_ms, 0.75)),
        m(
            "trace.overhead_frac",
            "ratio",
            median(&walls_b) / wall_a - 1.0,
        ),
    ];
    Ok(Report::new(v, metrics))
}
