//! The workloads' cell grids, result digests and the correctness
//! reference every run checks against.

use csmt_core::{ArchKind, RunResult};
use csmt_sweep::SweepCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Seed of every figure binary, and the benchmark's default seed.
pub const FIGURE_SEED: u64 = 0xC5_317;
/// Seed held out of tuning: the reference is recorded at it too.
pub const HELD_OUT_SEED: u64 = 0x5EED_0B17;
/// Work scale of the `fig_*` cells: a quarter of the figure binaries'
/// 1.0, so a run times several whole grids and reports their median.
pub const FIGURE_SCALE: f64 = 0.25;
/// Work scale of the warm-sweep cells.
pub const WARM_SCALE: f64 = 0.01;
/// Seeds per warm sweep: 11 × 96 = 1056 cells, so the p99 load time
/// has ten samples beyond it.
pub const WARM_SEEDS: u64 = 11;
/// Scheduling policy of the figures.
pub const SCHED: &str = "static";

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figures 4+7: every architecture × app on the 1-chip machine.
    FigLowend,
    /// Figures 5+8: the same grid on the 4-chip CC-NUMA machine.
    FigHighend,
    /// Both grids at a tiny scale over many seeds, served warm.
    SweepWarm,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::FigLowend,
        Workload::FigHighend,
        Workload::SweepWarm,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::FigLowend => "fig_lowend",
            Workload::FigHighend => "fig_highend",
            Workload::SweepWarm => "sweep_warm",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Chips of a `fig_*` workload's machine.
    pub fn chips(self) -> usize {
        match self {
            Workload::FigHighend => 4,
            Workload::FigLowend | Workload::SweepWarm => 1,
        }
    }
}

/// Work scales of the grids (the self-test shrinks them).
#[derive(Debug, Clone, Copy)]
pub struct Scales {
    /// Scale of the `fig_*` cells.
    pub figure: f64,
    /// Scale of the `sweep_warm` cells.
    pub warm: f64,
}

impl Scales {
    /// The benchmark's scales.
    pub const BENCH: Scales = Scales {
        figure: FIGURE_SCALE,
        warm: WARM_SCALE,
    };

    /// Every cell at `scale` (the self-test's tiny runs).
    pub fn uniform(scale: f64) -> Scales {
        Scales {
            figure: scale,
            warm: scale,
        }
    }
}

/// One figure grid: the six apps × every architecture, in the figure
/// binaries' (app, arch) order.
pub fn figure_cells(n_chips: usize, scale: f64, seed: u64) -> Vec<SweepCell> {
    csmt_workloads::all_apps()
        .into_iter()
        .flat_map(|app| {
            ArchKind::ALL.into_iter().map(move |arch| SweepCell {
                app: app.clone(),
                arch,
                n_chips,
                seed,
                scale,
                sched: SCHED.to_string(),
            })
        })
        .collect()
}

/// The cells a workload runs at `seed`.
pub fn cells(workload: Workload, seed: u64, scales: Scales) -> Vec<SweepCell> {
    match workload {
        Workload::FigLowend | Workload::FigHighend => {
            figure_cells(workload.chips(), scales.figure, seed)
        }
        Workload::SweepWarm => (0..WARM_SEEDS)
            .flat_map(|k| {
                [1, 4]
                    .into_iter()
                    .flat_map(move |chips| figure_cells(chips, scales.warm, seed.wrapping_add(k)))
            })
            .collect(),
    }
}

/// A cell's name in reports and in the reference file.
pub fn label(cell: &SweepCell) -> String {
    format!(
        "{}/{}/{}c/{:#x}@{:?}",
        cell.app.name,
        cell.arch.name(),
        cell.n_chips,
        cell.seed,
        cell.scale
    )
}

/// FNV-1a digest of a result's full JSON rendering: every field, with
/// `f64`s at round-trip precision, so equal digests mean bit-equal
/// results.
pub fn digest(result: &RunResult) -> u64 {
    let json = serde_json::to_string(result).expect("RunResult serializes");
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Structural checks every correct result passes, whatever its seed.
fn invariants(cell: &SweepCell, r: &RunResult) -> Result<(), String> {
    let chip = cell.arch.chip();
    let threads = chip.clusters * chip.cluster.hw_threads * cell.n_chips;
    let slot_sum = r.slots.useful + r.slots.wasted.iter().sum::<f64>();
    let checks = [
        (r.arch == cell.arch.name(), "arch"),
        (r.chips == cell.n_chips, "chips"),
        (r.threads == threads, "thread count"),
        (r.cycles > 0 && r.slots.committed > 0, "no work done"),
        (
            (slot_sum - r.slots.slots as f64).abs() <= 1e-6 * r.slots.slots as f64,
            "slot accounting",
        ),
    ];
    match checks.iter().find(|(ok, _)| !ok) {
        Some((_, what)) => Err(format!("invariant failed: {what}")),
        None => Ok(()),
    }
}

/// Reference digests by cell label, as recorded in `reference.txt`.
#[derive(Debug, Default, Clone)]
pub struct Reference {
    digests: BTreeMap<String, u64>,
}

impl Reference {
    /// Parse `label digest` lines (`#` starts a comment).
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut digests = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let bad = || format!("reference line {}: {line:?}", n + 1);
            let (label, hex) = line.split_once(' ').ok_or_else(bad)?;
            let d = u64::from_str_radix(hex.trim(), 16).map_err(|_| bad())?;
            digests.insert(label.to_string(), d);
        }
        Ok(Reference { digests })
    }

    /// Record `result` as the reference for `cell`.
    pub fn insert(&mut self, cell: &SweepCell, result: &RunResult) {
        self.digests.insert(label(cell), digest(result));
    }

    /// Replace one digest (the self-test's tampering hook).
    #[cfg(test)]
    pub fn set(&mut self, label: &str, digest: u64) {
        self.digests.insert(label.to_string(), digest);
    }

    /// Render in the `parse` format.
    pub fn render(&self) -> String {
        let mut out = String::from(
            "# Result digests (FNV-1a of the RunResult JSON) per cell: app/arch/chips/seed@scale.\n\
             # Regenerate with: cargo run --release --manifest-path perfbench/Cargo.toml -- --record-reference\n",
        );
        for (label, d) in &self.digests {
            let _ = writeln!(out, "{label} {d:016x}");
        }
        out
    }
}

/// Checks results against the reference and against every earlier result
/// of the same cell in this run, and keeps the failures.
#[derive(Debug)]
pub struct Verifier<'a> {
    reference: &'a Reference,
    seen: BTreeMap<String, u64>,
    /// Cells checked.
    pub attempted: u64,
    /// Cells checked that have no reference digest.
    pub unreferenced: u64,
    /// `(cell label, reason)` of every failed check.
    pub failures: Vec<(String, String)>,
}

impl<'a> Verifier<'a> {
    /// A verifier against `reference`.
    pub fn new(reference: &'a Reference) -> Self {
        Verifier {
            reference,
            seen: BTreeMap::new(),
            attempted: 0,
            unreferenced: 0,
            failures: Vec::new(),
        }
    }

    /// Check one cell's result; `None` stands for a cell that panicked.
    pub fn check(&mut self, cell: &SweepCell, result: Option<&RunResult>) {
        self.record(label(cell), examine(cell, result));
    }

    /// Record a cell's verdict from [`examine`], comparing its digest
    /// with the reference and with every earlier result of the cell.
    pub fn record(&mut self, name: String, verdict: Result<u64, String>) {
        self.attempted += 1;
        let d = match verdict {
            Ok(d) => d,
            Err(e) => {
                self.failures.push((name, e));
                return;
            }
        };
        match self.reference.digests.get(&name) {
            Some(&want) if d != want => {
                self.failures
                    .push((name, format!("digest {d:016x} != reference {want:016x}")));
                return;
            }
            Some(_) => {}
            None => self.unreferenced += 1,
        }
        match self.seen.get(&name) {
            Some(&prev) if prev != d => self.failures.push((
                name,
                format!("digest {d:016x} != earlier result {prev:016x} in this run"),
            )),
            Some(_) => {}
            None => {
                self.seen.insert(name, d);
            }
        }
    }
}

/// A result's digest, or why it fails: the cell panicked (`None`) or a
/// structural invariant does not hold.
pub fn examine(cell: &SweepCell, result: Option<&RunResult>) -> Result<u64, String> {
    let r = result.ok_or("panicked")?;
    invariants(cell, r)?;
    Ok(digest(r))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cell() -> SweepCell {
        figure_cells(1, 0.002, FIGURE_SEED)
            .into_iter()
            .find(|c| c.arch == ArchKind::Smt2 && c.app.name == "ocean")
            .expect("SMT2 ocean")
    }

    #[test]
    fn matching_results_pass() {
        let cell = tiny_cell();
        let r = cell.simulate();
        let mut reference = Reference::default();
        reference.insert(&cell, &r);
        let reparsed = Reference::parse(&reference.render()).expect("round trip");
        let mut v = Verifier::new(&reparsed);
        v.check(&cell, Some(&r));
        v.check(&cell, Some(&cell.simulate()));
        assert_eq!(v.attempted, 2);
        assert!(v.failures.is_empty(), "{:?}", v.failures);
    }

    #[test]
    fn tampered_reference_digest_is_a_named_failure() {
        let cell = tiny_cell();
        let r = cell.simulate();
        let mut reference = Reference::default();
        reference.insert(&cell, &r);
        reference.set(&label(&cell), digest(&r) ^ 1);
        let mut v = Verifier::new(&reference);
        v.check(&cell, Some(&r));
        assert_eq!(v.failures.len(), 1);
        assert_eq!(v.failures[0].0, label(&cell));
        assert!(v.failures[0].1.contains("reference"), "{:?}", v.failures);
    }

    #[test]
    fn panics_and_disagreeing_reruns_are_failures() {
        let cell = tiny_cell();
        let r = cell.simulate();
        let mut changed = r.clone();
        changed.cycles += 1;
        let reference = Reference::default();
        let mut v = Verifier::new(&reference);
        v.check(&cell, None);
        v.check(&cell, Some(&r));
        v.check(&cell, Some(&changed));
        assert_eq!(v.attempted, 3);
        let reasons: Vec<&str> = v.failures.iter().map(|(_, why)| why.as_str()).collect();
        assert_eq!(reasons.len(), 2, "{reasons:?}");
        assert_eq!(reasons[0], "panicked");
        assert!(reasons[1].contains("earlier result"), "{reasons:?}");
    }

    #[test]
    fn broken_slot_accounting_fails_the_invariants() {
        let cell = tiny_cell();
        let mut r = cell.simulate();
        r.slots.useful += 1.0e3;
        assert!(examine(&cell, Some(&r)).is_err());
    }

    #[test]
    fn warm_grid_has_enough_cells_for_a_p99() {
        let n = cells(Workload::SweepWarm, FIGURE_SEED, Scales::BENCH).len();
        assert!(n >= 1000, "{n}");
        assert_eq!(
            cells(Workload::FigLowend, FIGURE_SEED, Scales::BENCH).len(),
            48
        );
    }
}
