//! Differential fuzz campaigns: crash-isolated execution, the
//! fast-vs-reference oracle, and divergence minimization.
//!
//! A campaign feeds seeded generator/mutator inputs (from
//! [`dda_program::fuzz`]) through **both** simulation kernels — the
//! optimized fast path and the rescan-per-cycle reference — with the
//! invariant auditor armed and, optionally, a [`FaultPlan`]. The repo's
//! bit-identity discipline makes every input a free oracle: any
//! difference between the two [`SimResult`]s (or their structured
//! errors) is a kernel bug.
//!
//! Three containment layers keep one pathological input from taking the
//! campaign down:
//!
//! 1. every kernel run goes through [`contained_run`], which converts a
//!    panic into [`SimError::WorkerPanic`] — the same flattening the
//!    sweep pool's harness applies;
//! 2. inputs execute as tasks on [`crate::pool`], whose workers already
//!    isolate panics per task;
//! 3. every run is budgeted: a committed-instruction budget bounds
//!    useful work and a tightened deadlock-watchdog window
//!    ([`MachineConfig::with_deadlock_window`]) bounds wedged cycles, so
//!    wall-clock per input is capped at roughly `budget × window`.
//!
//! A divergence is delta-debugged by [`minimize_divergence`]: nop out
//! leader-delimited blocks, then single instructions (the pc layout
//! stays fixed so every control target remains valid), then try a
//! compaction that strips the nops under a monotone pc remap — each step
//! re-validated against the divergence predicate.

use std::sync::Arc;
use std::time::Instant;

use dda_core::{FaultPlan, MachineConfig, SimError, SimResult, Simulator};
use dda_program::fuzz::{
    active_len, compact, derive_seed, fuzz_program, mutate, nop_range, FuzzWeights,
};
use dda_program::{assemble, Program};
use dda_vm::{CoverageMap, Vm};

use crate::harness::drain_stream;
use crate::pool;

// ---------------------------------------------------------- containment --

/// Runs one configuration over `program` with a panic backstop: a panic
/// that escapes the typed error model comes back as
/// [`SimError::WorkerPanic`] instead of unwinding the caller — the exact
/// flattening the sweep pool applies to its tasks, so campaign binaries
/// and pool-based sweeps report crashes identically.
pub fn contained_run(
    cfg: &MachineConfig,
    program: &Arc<Program>,
    budget: u64,
) -> Result<Box<SimResult>, SimError> {
    let cfg = cfg.clone();
    let program = Arc::clone(program);
    match pool::catch_panic(move || {
        Simulator::new(cfg).and_then(|sim| sim.run_shared(program, budget))
    }) {
        Ok(Ok(res)) => Ok(Box::new(res)),
        Ok(Err(e)) => Err(e),
        Err(msg) => Err(SimError::WorkerPanic(msg)),
    }
}

// --------------------------------------------------------------- oracle --

/// Both kernels' outcomes for one input.
#[derive(Clone, PartialEq, Debug)]
pub struct Differential {
    /// The optimized (incrementally cached) kernel's outcome.
    pub fast: Result<Box<SimResult>, SimError>,
    /// The rescan-per-cycle reference kernel's outcome.
    pub reference: Result<Box<SimResult>, SimError>,
}

impl Differential {
    /// Whether the two outcomes agree under [`outcomes_equal`].
    pub fn agrees(&self) -> bool {
        outcomes_equal(&self.fast, &self.reference)
    }

    /// Whether either side escaped the typed error model.
    pub fn panicked(&self) -> bool {
        matches!(self.fast, Err(SimError::WorkerPanic(_)))
            || matches!(self.reference, Err(SimError::WorkerPanic(_)))
    }
}

/// Runs `program` through the fast and reference kernels under the same
/// machine configuration (only `reference_kernel` differs) and returns
/// both contained outcomes.
pub fn differential(cfg: &MachineConfig, program: &Arc<Program>, budget: u64) -> Differential {
    let fast_cfg = {
        let mut c = cfg.clone();
        c.reference_kernel = false;
        c
    };
    let ref_cfg = {
        let mut c = cfg.clone();
        c.reference_kernel = true;
        c
    };
    Differential {
        fast: contained_run(&fast_cfg, program, budget),
        reference: contained_run(&ref_cfg, program, budget),
    }
}

/// Architectural-contract equality of two contained outcomes.
///
/// `Ok` results compare by full [`SimResult`] structural equality — every
/// counter is part of the contract. Errors compare by a normalized key:
/// traps by kind/cycle/committed, deadlocks and invariant violations by
/// their capture point (the embedded [`dda_core::DiagnosticDump`]s also
/// describe kernel-*internal* bookkeeping such as the fast kernel's
/// dispatch ring, which is not part of the contract). Two worker panics
/// count as *agreeing* here — panics are tracked separately and fail a
/// campaign on their own.
pub fn outcomes_equal(
    a: &Result<Box<SimResult>, SimError>,
    b: &Result<Box<SimResult>, SimError>,
) -> bool {
    match (a, b) {
        (Ok(x), Ok(y)) => x == y,
        (Err(x), Err(y)) => error_key(x) == error_key(y),
        _ => false,
    }
}

fn error_key(e: &SimError) -> String {
    match e {
        SimError::Trap(t) => format!("trap:{:?}:{}:{}", t.kind, t.cycle, t.committed),
        SimError::Deadlock(d) => format!("deadlock:{}:{}", d.cycle, d.committed),
        SimError::InvariantViolation(v) => {
            format!("invariant:{}:{}:{}", v.what, v.dump.cycle, v.dump.committed)
        }
        SimError::Config(c) => format!("config:{c}"),
        SimError::WorkerPanic(_) => "panic".to_string(),
        SimError::WarmStateMismatch => "warm-state-mismatch".to_string(),
    }
}

/// One-line outcome description for logs and reports.
pub fn describe_outcome(r: &Result<Box<SimResult>, SimError>) -> String {
    match r {
        Ok(res) => format!(
            "ok: {} committed / {} cycles, lsq {}+{} lvaq {}+{}, \
             port stalls l1 {} lvc {}, misclass {}",
            res.committed,
            res.cycles,
            res.lsq.loads,
            res.lsq.stores,
            res.lvaq.loads,
            res.lvaq.stores,
            res.lsq.port_stall_cycles,
            res.lvaq.port_stall_cycles,
            res.misclassifications,
        ),
        Err(e) => format!("error: {e}"),
    }
}

/// Whether `program` makes the two kernels disagree under `cfg`.
pub fn diverges(cfg: &MachineConfig, program: &Arc<Program>, budget: u64) -> bool {
    !differential(cfg, program, budget).agrees()
}

// ------------------------------------------------------------ minimizer --

/// A minimized divergence reproducer.
#[derive(Clone, PartialEq, Debug)]
pub struct Minimized {
    /// The reduced program (compacted when the compaction still
    /// reproduces, otherwise nop-padded).
    pub program: Program,
    /// Non-`nop` instruction count of `program`.
    pub instructions: usize,
    /// Differential probes spent minimizing (two kernel runs each).
    pub probes: u32,
    /// Whether the nop-stripping compaction preserved the divergence.
    pub compacted: bool,
}

/// Delta-debugs `program` down to a (locally) minimal reproducer of its
/// fast-vs-reference divergence under `cfg`.
///
/// Blocks (leader-delimited ranges) are nopped first, then single
/// instructions, until a fixpoint; nop-ing keeps the pc layout, so every
/// control target stays valid throughout. A final compaction pass strips
/// the nops with a monotone pc remap and is kept only if the compacted
/// program (a) still diverges and (b) round-trips through the assembler —
/// the form a regression-corpus entry needs.
///
/// Returns `None` if `program` does not diverge in the first place.
pub fn minimize_divergence(
    cfg: &MachineConfig,
    program: &Program,
    budget: u64,
) -> Option<Minimized> {
    let mut probes = 0u32;
    let mut check = |p: &Program| -> bool {
        probes += 1;
        diverges(cfg, &Arc::new(p.clone()), budget)
    };
    if !check(program) {
        return None;
    }
    let mut cur = program.clone();

    // Pass 1: blocks, to fixpoint. Leaders are recomputed per round —
    // nop-ing a branch dissolves its targets, merging blocks.
    loop {
        let mut accepted = false;
        let leaders = cur.leaders();
        let mut starts: Vec<usize> = leaders
            .iter()
            .enumerate()
            .filter(|(_, l)| **l)
            .map(|(i, _)| i)
            .collect();
        starts.push(cur.len());
        for w in starts.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            if cur.instrs()[lo..hi]
                .iter()
                .all(|i| matches!(i, dda_isa::Instr::Nop))
            {
                continue;
            }
            let candidate = nop_range(&cur, lo, hi);
            if check(&candidate) {
                cur = candidate;
                accepted = true;
            }
        }
        if !accepted {
            break;
        }
    }

    // Pass 2: single instructions, to fixpoint.
    loop {
        let mut accepted = false;
        for i in 0..cur.len() {
            if matches!(cur.fetch(i as u32), dda_isa::Instr::Nop) {
                continue;
            }
            let candidate = nop_range(&cur, i, i + 1);
            if check(&candidate) {
                cur = candidate;
                accepted = true;
            }
        }
        if !accepted {
            break;
        }
    }

    // Pass 3: strip the nops if the compacted image still reproduces and
    // survives an assembler round trip (pcs shift, so re-validate).
    if let Some(c) = compact(&cur) {
        let round_trips = assemble(&c.to_asm()).map(|p| p == c).unwrap_or(false);
        if round_trips && check(&c) {
            let n = active_len(&c);
            return Some(Minimized {
                program: c,
                instructions: n,
                probes,
                compacted: true,
            });
        }
    }
    let n = active_len(&cur);
    Some(Minimized {
        program: cur,
        instructions: n,
        probes,
        compacted: false,
    })
}

// ------------------------------------------------------------- campaign --

/// Knobs of one fuzz campaign.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Master seed; every per-input seed derives from it.
    pub seed: u64,
    /// Number of inputs to run.
    pub inputs: u32,
    /// Committed-instruction budget per kernel run.
    pub budget: u64,
    /// Deadlock-watchdog window applied to every run (tighter than the
    /// interactive default so wedges are bounded).
    pub deadlock_window: u64,
    /// Base machine; the campaign forces the auditor on and flips
    /// `reference_kernel` per side.
    pub machine: MachineConfig,
    /// When set, the plan (with a per-input derived seed) is armed on
    /// *both* kernels — the bit-identity discipline covers fault-RNG draw
    /// order, so faulted runs remain a valid oracle.
    pub fault_plan: Option<FaultPlan>,
    /// Arms the test-only planted kernel defect
    /// ([`MachineConfig::planted_defect`]) — the campaign self-test.
    pub plant_defect: bool,
    /// Every `mutate_every`-th input is a mutant of an earlier input
    /// instead of a fresh generation (0 disables mutation).
    pub mutate_every: u32,
    /// Worker threads (0 = one per available core, capped by input
    /// count).
    pub workers: usize,
}

impl CampaignConfig {
    /// A campaign on the recommended (4+2) optimized machine.
    pub fn new(seed: u64, inputs: u32) -> CampaignConfig {
        CampaignConfig {
            seed,
            inputs,
            budget: 20_000,
            deadlock_window: 25_000,
            machine: MachineConfig::n_plus_m(4, 2).with_optimizations(),
            fault_plan: None,
            plant_defect: false,
            mutate_every: 4,
            workers: 0,
        }
    }
}

/// One confirmed divergence, with its minimization result.
#[derive(Clone, PartialEq, Debug)]
pub struct DivergenceRecord {
    /// Input index within the campaign.
    pub index: usize,
    /// The input's derived seed.
    pub seed: u64,
    /// Weight-table preset (or `"mutant"`) that produced the input.
    pub preset: &'static str,
    /// Non-`nop` size of the original input.
    pub original_instructions: usize,
    /// Fast-kernel outcome description.
    pub fast: String,
    /// Reference-kernel outcome description.
    pub reference: String,
    /// The minimized reproducer; `None` only if re-running the input no
    /// longer diverged (a flaky divergence would itself be a finding —
    /// the simulator is supposed to be deterministic).
    pub minimized: Option<Minimized>,
}

/// Aggregate result of [`run_campaign`].
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Inputs executed.
    pub inputs: usize,
    /// Inputs produced by the generator.
    pub generated: usize,
    /// Inputs produced by the mutator.
    pub mutated: usize,
    /// Fast-kernel runs that completed (halt or budget).
    pub completed: usize,
    /// Runs ending in a structured guest trap.
    pub trapped: usize,
    /// Runs ending in a watchdog deadlock.
    pub deadlocked: usize,
    /// Runs ending in an invariant violation.
    pub invariant_violations: usize,
    /// Inputs where a kernel run escaped as a worker panic.
    pub host_panics: usize,
    /// Confirmed fast-vs-reference divergences.
    pub divergences: Vec<DivergenceRecord>,
    /// Merged op/edge coverage over every input's functional stream.
    pub coverage: CoverageMap,
    /// Instructions committed by the fast kernel across all inputs.
    pub committed_total: u64,
    /// Wall-clock of the slowest single input (both kernel runs).
    pub slowest_input_ms: u128,
    /// Wall-clock of the whole campaign.
    pub elapsed_ms: u128,
}

impl CampaignReport {
    /// No host panics and no divergences.
    pub fn clean(&self) -> bool {
        self.host_panics == 0 && self.divergences.is_empty()
    }

    /// Divergences whose minimization failed to reproduce.
    pub fn unminimized(&self) -> usize {
        self.divergences
            .iter()
            .filter(|d| d.minimized.is_none())
            .count()
    }
}

struct InputRun {
    coverage: CoverageMap,
    diff: Differential,
    elapsed_ms: u128,
}

/// Runs a full campaign: generate/mutate inputs, execute each through
/// both kernels on the panic-isolating pool, fold coverage, and
/// delta-debug every divergence.
///
/// Deterministic given `cfg` (up to the wall-clock fields): input
/// construction is seed-derived per index, and pool scheduling never
/// reorders results.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let t0 = Instant::now();
    let presets = FuzzWeights::presets();

    // Inputs are constructed serially (cheap) so mutants can reference
    // earlier inputs deterministically.
    let mut programs: Vec<Arc<Program>> = Vec::with_capacity(cfg.inputs as usize);
    let mut origins: Vec<(&'static str, u64)> = Vec::with_capacity(cfg.inputs as usize);
    let mut mutated = 0usize;
    for i in 0..cfg.inputs as usize {
        let seed_i = derive_seed(cfg.seed, i as u64);
        let is_mutant =
            cfg.mutate_every > 0 && i > 0 && (i as u32 + 1).is_multiple_of(cfg.mutate_every);
        if is_mutant {
            let mut rng = dda_stats::Rng::seed_from_u64(seed_i);
            let base = rng.gen_range(0..i);
            programs.push(Arc::new(mutate(&programs[base], seed_i)));
            origins.push(("mutant", seed_i));
            mutated += 1;
        } else {
            let (name, w) = presets[i % presets.len()];
            programs.push(Arc::new(fuzz_program(seed_i, &w)));
            origins.push((name, seed_i));
        }
    }

    let machine = {
        let mut m = cfg.machine.clone().with_audit(true);
        m.deadlock_cycles = cfg.deadlock_window;
        m.planted_defect = cfg.plant_defect;
        m
    };

    let budget = cfg.budget;
    let tasks: Vec<_> = programs
        .iter()
        .enumerate()
        .map(|(i, program)| {
            let program = Arc::clone(program);
            let mut m = machine.clone();
            if let Some(plan) = &cfg.fault_plan {
                m.fault_plan = FaultPlan {
                    seed: derive_seed(cfg.seed ^ 0xFA17, i as u64),
                    ..*plan
                };
            }
            move || {
                let t = Instant::now();
                let mut cov = CoverageMap::new();
                let mut vm = Vm::new(Arc::clone(&program));
                // Functional coverage pass; a trap here simply ends the
                // observed stream (the kernels see the same trap).
                let _ = drain_stream(&mut vm, budget, |d| cov.observe(d));
                let diff = differential(&m, &program, budget);
                InputRun {
                    coverage: cov,
                    diff,
                    elapsed_ms: t.elapsed().as_millis(),
                }
            }
        })
        .collect();

    let workers = if cfg.workers == 0 {
        pool::default_workers(tasks.len())
    } else {
        cfg.workers.max(1)
    };
    let runs: Vec<InputRun> = pool::run_tasks(tasks, workers)
        .into_iter()
        .map(|r| match r {
            Ok(run) => run,
            Err(msg) => {
                // The whole task escaped (outside contained_run): count
                // it as a panic on both sides.
                InputRun {
                    coverage: CoverageMap::new(),
                    diff: Differential {
                        fast: Err(SimError::WorkerPanic(msg.clone())),
                        reference: Err(SimError::WorkerPanic(msg)),
                    },
                    elapsed_ms: 0,
                }
            }
        })
        .collect();

    let mut report = CampaignReport {
        inputs: runs.len(),
        generated: runs.len() - mutated,
        mutated,
        completed: 0,
        trapped: 0,
        deadlocked: 0,
        invariant_violations: 0,
        host_panics: 0,
        divergences: Vec::new(),
        coverage: CoverageMap::new(),
        committed_total: 0,
        slowest_input_ms: 0,
        elapsed_ms: 0,
    };

    for (i, run) in runs.iter().enumerate() {
        report.coverage.merge(&run.coverage);
        report.slowest_input_ms = report.slowest_input_ms.max(run.elapsed_ms);
        if run.diff.panicked() {
            report.host_panics += 1;
        }
        match &run.diff.fast {
            Ok(res) => {
                report.completed += 1;
                report.committed_total += res.committed;
            }
            Err(SimError::Trap(_)) => report.trapped += 1,
            Err(SimError::Deadlock(_)) => report.deadlocked += 1,
            Err(SimError::InvariantViolation(_)) => report.invariant_violations += 1,
            Err(_) => {}
        }
        if !run.diff.agrees() {
            let program = &programs[i];
            let mut m = machine.clone();
            if let Some(plan) = &cfg.fault_plan {
                m.fault_plan = FaultPlan {
                    seed: derive_seed(cfg.seed ^ 0xFA17, i as u64),
                    ..*plan
                };
            }
            let minimized = minimize_divergence(&m, program, budget);
            report.divergences.push(DivergenceRecord {
                index: i,
                seed: origins[i].1,
                preset: origins[i].0,
                original_instructions: active_len(program),
                fast: describe_outcome(&run.diff.fast),
                reference: describe_outcome(&run.diff.reference),
                minimized,
            });
        }
    }
    report.elapsed_ms = t0.elapsed().as_millis();
    report
}

// --------------------------------------------------------------- corpus --

/// Renders a divergence's minimized reproducer as a regression-corpus
/// `.s` file: a provenance header plus round-trippable assembly.
///
/// Returns `None` when there is no minimized program or its source does
/// not re-assemble to the identical image (a corpus entry must replay
/// exactly).
pub fn corpus_entry_source(campaign_seed: u64, rec: &DivergenceRecord) -> Option<String> {
    use std::fmt::Write as _;
    let min = rec.minimized.as_ref()?;
    let body = min.program.to_asm();
    match assemble(&body) {
        Ok(p) if p == min.program => {}
        _ => return None,
    }
    let mut out = String::new();
    let _ = writeln!(out, "# Minimized differential-fuzzing reproducer.");
    let _ = writeln!(
        out,
        "# campaign seed {campaign_seed}, input {} (preset {}, input seed {})",
        rec.index, rec.preset, rec.seed
    );
    let _ = writeln!(
        out,
        "# reduced {} -> {} instructions ({} probes{})",
        rec.original_instructions,
        min.instructions,
        min.probes,
        if min.compacted {
            ", compacted"
        } else {
            ", nop-padded"
        }
    );
    let _ = writeln!(out, "# fast:      {}", rec.fast);
    let _ = writeln!(out, "# reference: {}", rec.reference);
    let _ = writeln!(out, "#");
    let _ = writeln!(
        out,
        "# Replay: tests/corpus_replay.rs asserts fast == reference on every"
    );
    let _ = writeln!(
        out,
        "# file in tests/corpus/ under the (4+2) optimized machine."
    );
    out.push_str(&body);
    Some(out)
}

/// Escapes a string for embedding in a JSON report.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                use std::fmt::Write as _;
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dda_core::{Trap, TrapKind};
    use dda_isa::{Gpr, Instr};
    use dda_program::{FunctionBuilder, ProgramBuilder};

    fn machine() -> MachineConfig {
        MachineConfig::n_plus_m(4, 2)
            .with_optimizations()
            .with_audit(true)
            .with_deadlock_window(25_000)
    }

    /// The smallest program that tickles the planted defect: one
    /// local-hinted store whose retired address has word index 6 mod 16
    /// (sp starts at `0x7fff_fff0`; after `addi $sp,$sp,-24` the slot at
    /// offset 0 sits at `0x7fff_ffd8`, word index `0x1fff_fff6`).
    fn defect_trigger() -> Program {
        let mut main = FunctionBuilder::with_frame("main", 24);
        main.addi(Gpr::SP, Gpr::SP, -24);
        main.store_local(Gpr::T0, 0);
        main.addi(Gpr::SP, Gpr::SP, 24);
        main.halt();
        let mut b = ProgramBuilder::new();
        b.add_function(main);
        b.build().expect("links")
    }

    #[test]
    fn identical_outcomes_agree() {
        let p = Arc::new(defect_trigger());
        let d = differential(&machine(), &p, 1_000);
        assert!(d.agrees(), "fast vs reference disagreed on a clean machine");
        assert!(!d.panicked());
    }

    #[test]
    fn planted_defect_diverges_and_is_caught() {
        let mut m = machine();
        m.planted_defect = true;
        let p = Arc::new(defect_trigger());
        let d = differential(&m, &p, 1_000);
        assert!(!d.agrees(), "planted defect was not observed");
        // The divergence is exactly one phantom LVAQ port-stall cycle.
        let (f, r) = (d.fast.expect("fast ok"), d.reference.expect("reference ok"));
        assert_eq!(f.lvaq.port_stall_cycles, r.lvaq.port_stall_cycles + 1);
    }

    #[test]
    fn error_keys_normalize_structurally() {
        let kind = TrapKind::Misaligned {
            pc: 4,
            addr: 0x1000_0002,
            bytes: 4,
        };
        let t1 = SimError::Trap(Trap {
            kind,
            cycle: 3,
            committed: 2,
        });
        let t2 = SimError::Trap(Trap {
            kind,
            cycle: 3,
            committed: 2,
        });
        let t3 = SimError::Trap(Trap {
            kind,
            cycle: 4,
            committed: 2,
        });
        assert!(outcomes_equal(&Err(t1), &Err(t2)));
        let t1 = SimError::Trap(Trap {
            kind,
            cycle: 3,
            committed: 2,
        });
        assert!(!outcomes_equal(&Err(t1), &Err(t3)));
        // Two panics agree (tracked separately as panics).
        assert!(outcomes_equal(
            &Err(SimError::WorkerPanic("a".into())),
            &Err(SimError::WorkerPanic("b".into())),
        ));
    }

    #[test]
    fn minimizer_shrinks_the_planted_defect_to_a_few_instructions() {
        let mut m = machine();
        m.planted_defect = true;
        // Bury the trigger in a larger generated-style program: the
        // defect needs an LVAQ store to word index 6 mod 16, which the
        // handcrafted trigger provides deterministically.
        let mut main = FunctionBuilder::with_frame("main", 32);
        main.addi(Gpr::SP, Gpr::SP, -32);
        main.store_local(Gpr::RA, 0);
        for k in 0..6 {
            main.load_imm(Gpr::T1, k);
            main.alui(dda_isa::AluOp::Add, Gpr::T2, Gpr::T1, 7);
        }
        main.store_local(Gpr::T0, 8); // sp-32+8 = ...ffd8 -> word idx 6 mod 16
        for k in 0..6 {
            main.load(
                Gpr::T3,
                Gpr::GP,
                4 * k,
                dda_isa::MemWidth::Word,
                dda_isa::StreamHint::NonLocal,
            );
        }
        main.load_local(Gpr::RA, 0);
        main.addi(Gpr::SP, Gpr::SP, 32);
        main.halt();
        let mut b = ProgramBuilder::new();
        b.add_function(main);
        let p = b.build().expect("links");

        let min = minimize_divergence(&m, &p, 2_000).expect("divergence reproduces");
        assert!(
            min.instructions <= 20,
            "minimizer left {} instructions (wanted <= 20)",
            min.instructions
        );
        // The reproducer still needs the store; the filler is gone.
        assert!(min
            .program
            .instrs()
            .iter()
            .any(|i| matches!(i, Instr::Store { .. })));
        assert!(diverges(&m, &Arc::new(min.program.clone()), 2_000));
    }

    #[test]
    fn minimize_returns_none_without_a_divergence() {
        let p = defect_trigger();
        assert!(minimize_divergence(&machine(), &p, 1_000).is_none());
    }

    #[test]
    fn small_campaign_is_clean_and_covers() {
        let mut cc = CampaignConfig::new(0xC0FFEE, 10);
        cc.budget = 1_500;
        cc.deadlock_window = 10_000;
        let r = run_campaign(&cc);
        assert_eq!(r.inputs, 10);
        assert!(
            r.clean(),
            "campaign found {} divergences / {} panics",
            r.divergences.len(),
            r.host_panics
        );
        assert_eq!(r.unminimized(), 0);
        assert!(
            r.mutated >= 2,
            "mutation rotation produced {} mutants",
            r.mutated
        );
        assert!(r.completed + r.trapped + r.deadlocked > 0);
        assert!(
            r.coverage.op_classes_seen() >= 20,
            "only {} op classes",
            r.coverage.op_classes_seen()
        );
        assert!(r.coverage.edge_buckets_seen() > 50);
    }

    #[test]
    fn campaign_with_planted_defect_reports_a_minimized_divergence() {
        let mut cc = CampaignConfig::new(0xDEFEC7, 24);
        cc.budget = 2_500;
        cc.deadlock_window = 10_000;
        cc.plant_defect = true;
        // Generated inputs retire plenty of LVAQ stores; across 24
        // inputs at least one hits word index 6 mod 16.
        let r = run_campaign(&cc);
        assert!(
            !r.divergences.is_empty(),
            "planted defect escaped a 24-input campaign"
        );
        assert_eq!(r.unminimized(), 0, "a divergence failed to minimize");
        for d in &r.divergences {
            let min = d.minimized.as_ref().expect("minimized");
            assert!(
                min.instructions <= 20,
                "{} instructions after reduction",
                min.instructions
            );
            let src = corpus_entry_source(cc.seed, d).expect("corpus entry round-trips");
            let replay = assemble(src.as_str()).expect("corpus entry assembles");
            let mut m = cc.machine.clone().with_audit(true);
            m.planted_defect = true;
            m.deadlock_cycles = cc.deadlock_window;
            assert!(diverges(&m, &Arc::new(replay), cc.budget));
        }
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
