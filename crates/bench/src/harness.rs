//! Shared machinery: budgets, profiling, parallel configuration sweeps.

use std::sync::{Arc, OnceLock};

use dda_core::{MachineConfig, SimError, SimResult, Simulator};
use dda_vm::{DynInst, StreamProfiler, StreamStats, Vm, VmError};
use dda_workloads::Benchmark;

use crate::pool;

/// Drains up to `budget` instructions of `vm`'s dynamic stream through
/// `observe` — the one shared warm-up/profiling loop (the experiment
/// tables, the figure benches and [`profile`] all route through here
/// instead of hand-rolling a `vm.step()` drain each).
///
/// Replays pre-decoded basic blocks via [`Vm::step_block`], so profiling
/// sweeps run at translation-cache speed; the observed prefix is
/// bit-identical to stepping one instruction at a time. Returns the
/// number of instructions observed (less than `budget` when the program
/// halts first).
///
/// # Errors
///
/// Returns the [`VmError`] if the program faults within the observed
/// window. A fault past the budget is not reported — a per-step loop
/// stopping at `budget` would never have executed it.
pub fn drain_stream(
    vm: &mut Vm,
    budget: u64,
    mut observe: impl FnMut(&DynInst),
) -> Result<u64, VmError> {
    let mut seen = 0u64;
    let mut ring: Vec<DynInst> = Vec::with_capacity(72);
    while seen < budget {
        ring.clear();
        let fault = vm.step_block(&mut ring);
        for d in &ring {
            observe(d);
            seen += 1;
            if seen == budget {
                return Ok(seen);
            }
        }
        if let Some(e) = fault {
            return Err(e);
        }
        if ring.is_empty() {
            break; // machine halted
        }
    }
    Ok(seen)
}

/// Programmatic budget overrides (see [`set_default_budgets`]). Consulted
/// before the environment so a driver that carries its budget in a config
/// struct (the sampling driver) can pin the process-wide value once: the
/// fast-forward and detailed phases of one run then can never read
/// different budgets, even if the environment changes between them.
static PIPELINE_OVERRIDE: OnceLock<u64> = OnceLock::new();
static PROFILE_OVERRIDE: OnceLock<u64> = OnceLock::new();

/// Pins the process-wide pipeline and profiling budgets (overriding
/// `DDA_BUDGET` / `DDA_PROFILE_BUDGET`). First caller wins — returns
/// `false` when either budget was already pinned, in which case the
/// earlier values remain in force.
pub fn set_default_budgets(pipeline: u64, profile: u64) -> bool {
    let a = PIPELINE_OVERRIDE.set(pipeline).is_ok();
    let b = PROFILE_OVERRIDE.set(profile).is_ok();
    a && b
}

/// Committed-instruction budget for pipeline experiments.
///
/// Pinned by [`set_default_budgets`] when a driver carries an explicit
/// budget; otherwise the `DDA_BUDGET` environment variable (read once).
/// The default keeps a full figure sweep (hundreds of runs) in the
/// minutes range; the paper's shapes are stable well below this budget.
pub fn pipeline_budget() -> u64 {
    if let Some(b) = PIPELINE_OVERRIDE.get() {
        return *b;
    }
    static BUDGET: OnceLock<u64> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        std::env::var("DDA_BUDGET")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(300_000)
    })
}

/// Instruction budget for functional-profiling experiments (Figures 2, 3
/// and 6), which run only the VM and are much cheaper per instruction.
///
/// Pinned by [`set_default_budgets`]; otherwise `DDA_PROFILE_BUDGET`.
pub fn profile_budget() -> u64 {
    if let Some(b) = PROFILE_OVERRIDE.get() {
        return *b;
    }
    static BUDGET: OnceLock<u64> = OnceLock::new();
    *BUDGET.get_or_init(|| {
        std::env::var("DDA_PROFILE_BUDGET")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(2_000_000)
    })
}

/// A benchmark plus its measured stream statistics.
#[derive(Clone, Debug)]
pub struct ProfiledWorkload {
    /// Which benchmark.
    pub bench: Benchmark,
    /// Statistics over the profiled prefix of the dynamic stream.
    pub stats: StreamStats,
    /// Mean static frame size in words (over the generated functions).
    pub static_frame_words: f64,
    /// Number of static functions in the stand-in.
    pub static_functions: usize,
}

/// Profiles `bench` for `budget` dynamic instructions.
///
/// # Panics
///
/// Panics if the generated program raises a functional-execution error —
/// generator output is expected to be well-formed.
pub fn profile(bench: Benchmark, budget: u64) -> ProfiledWorkload {
    let program = bench.program(u32::MAX / 2);
    let mut vm = Vm::new(program.clone());
    let mut prof = StreamProfiler::new(&program);
    drain_stream(&mut vm, budget, |d| prof.observe(d)).expect("benchmark executes cleanly");
    ProfiledWorkload {
        bench,
        stats: prof.into_stats(),
        static_frame_words: program.mean_static_frame_words(),
        static_functions: program.functions().len(),
    }
}

/// Profiles `bench` with the default profiling budget.
pub fn workload_stats(bench: Benchmark) -> ProfiledWorkload {
    profile(bench, profile_budget())
}

/// Runs `bench` on `cfg` for the default pipeline budget.
///
/// # Panics
///
/// Panics if the configuration is invalid or the run fails — generated
/// benchmarks are expected to execute cleanly. Use
/// [`run_config_checked`] to get the [`SimError`] instead.
pub fn run_config(bench: Benchmark, cfg: MachineConfig) -> SimResult {
    run_config_checked(bench, cfg).expect("benchmark executes cleanly")
}

/// Like [`run_config`] but surfacing failures as values: an invalid
/// configuration, a guest trap, a watchdog deadlock, or an invariant
/// violation all come back as a structured [`SimError`] instead of a
/// panic — the form fault campaigns and robustness sweeps consume.
pub fn run_config_checked(bench: Benchmark, cfg: MachineConfig) -> Result<SimResult, SimError> {
    run_config_checked_with_budget(bench, cfg, pipeline_budget())
}

/// [`run_config_checked`] with an explicit committed-instruction budget
/// instead of the process-wide `DDA_BUDGET` default — the form tests use,
/// so they never mutate (or race on) process environment state.
pub fn run_config_checked_with_budget(
    bench: Benchmark,
    cfg: MachineConfig,
    budget: u64,
) -> Result<SimResult, SimError> {
    let program = Arc::new(bench.program(u32::MAX / 2));
    Simulator::new(cfg)?.run_shared(program, budget)
}

/// Runs one benchmark under several configurations on the work-stealing
/// pool.
///
/// The program is generated once and shared (`Arc`) across the sweep
/// rather than regenerated or cloned per configuration.
///
/// Returns results in the same order as `cfgs`.
pub fn run_configs_for(bench: Benchmark, cfgs: &[MachineConfig]) -> Vec<SimResult> {
    run_configs_checked(bench, cfgs)
        .into_iter()
        .map(|r| r.expect("benchmark executes cleanly"))
        .collect()
}

/// Like [`run_configs_for`] but each run's failure stays its own
/// [`SimError`]: one wedged or faulting configuration degrades to one
/// structured per-run failure without tearing down the rest of the sweep.
/// A panicking worker likewise degrades to [`SimError::WorkerPanic`] for
/// that run alone.
pub fn run_configs_checked(
    bench: Benchmark,
    cfgs: &[MachineConfig],
) -> Vec<Result<SimResult, SimError>> {
    run_configs_checked_with_budget(bench, cfgs, pipeline_budget())
}

/// [`run_configs_checked`] with an explicit budget (see
/// [`run_config_checked_with_budget`]).
pub fn run_configs_checked_with_budget(
    bench: Benchmark,
    cfgs: &[MachineConfig],
    budget: u64,
) -> Vec<Result<SimResult, SimError>> {
    let program = Arc::new(bench.program(u32::MAX / 2));
    let tasks: Vec<_> = cfgs
        .iter()
        .map(|cfg| {
            let cfg = cfg.clone();
            let program = Arc::clone(&program);
            move || Simulator::new(cfg)?.run_shared(program, budget)
        })
        .collect();
    let workers = pool::default_workers(tasks.len());
    pool::run_tasks(tasks, workers)
        .into_iter()
        .map(flatten_task)
        .collect()
}

/// Runs the full `benches` × `cfgs` matrix as independent tasks on the
/// work-stealing pool — the figure-regeneration shape, where per-config
/// parallelism alone underuses wide machines. Each program is generated
/// once and shared across its row. Results come back as
/// `result[bench_index][cfg_index]`, deterministically, regardless of how
/// the pool interleaved the tasks.
pub fn run_matrix_checked(
    benches: &[Benchmark],
    cfgs: &[MachineConfig],
    budget: u64,
) -> Vec<Vec<Result<SimResult, SimError>>> {
    let programs: Vec<_> = benches
        .iter()
        .map(|b| Arc::new(b.program(u32::MAX / 2)))
        .collect();
    let mut tasks = Vec::with_capacity(benches.len() * cfgs.len());
    for program in &programs {
        for cfg in cfgs {
            let cfg = cfg.clone();
            let program = Arc::clone(program);
            tasks.push(move || Simulator::new(cfg)?.run_shared(program, budget));
        }
    }
    let workers = pool::default_workers(tasks.len());
    let mut flat = pool::run_tasks(tasks, workers)
        .into_iter()
        .map(flatten_task);
    benches
        .iter()
        .map(|_| (0..cfgs.len()).map(|_| flatten_next(&mut flat)).collect())
        .collect()
}

fn flatten_next(
    it: &mut impl Iterator<Item = Result<SimResult, SimError>>,
) -> Result<SimResult, SimError> {
    match it.next() {
        Some(r) => r,
        None => Err(SimError::WorkerPanic(
            "pool returned too few results".to_string(),
        )),
    }
}

/// Collapses a pool task result: a caught worker panic becomes a
/// structured [`SimError::WorkerPanic`] carrying the panic message.
fn flatten_task(r: pool::TaskResult<Result<SimResult, SimError>>) -> Result<SimResult, SimError> {
    r.unwrap_or_else(|msg| Err(SimError::WorkerPanic(msg)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_produces_traffic() {
        let w = profile(Benchmark::Compress, 50_000);
        assert!(w.stats.instructions >= 50_000);
        assert!(w.stats.loads > 0 && w.stats.stores > 0);
        assert!(w.static_functions >= 3);
    }

    /// Tests thread their budget explicitly instead of mutating the
    /// process-wide `DDA_BUDGET` (removing it mid-process raced with any
    /// concurrently running test that read it).
    const TEST_BUDGET: u64 = 60_000;

    #[test]
    fn budget_override_pins_first_value() {
        // Pin to the defaults so concurrently running tests that read the
        // process-wide budgets observe unchanged values.
        assert!(set_default_budgets(300_000, 2_000_000));
        assert_eq!(pipeline_budget(), 300_000);
        assert_eq!(profile_budget(), 2_000_000);
        // Later callers cannot repin.
        assert!(!set_default_budgets(123, 456));
        assert_eq!(pipeline_budget(), 300_000);
        assert_eq!(profile_budget(), 2_000_000);
    }

    #[test]
    fn parallel_sweep_matches_serial() {
        let cfgs = [MachineConfig::n_plus_m(2, 0), MachineConfig::n_plus_m(4, 0)];
        let results = run_configs_checked_with_budget(Benchmark::Li, &cfgs, TEST_BUDGET);
        let serial =
            run_config_checked_with_budget(Benchmark::Li, cfgs[0].clone(), TEST_BUDGET).unwrap();
        assert_eq!(*results[0].as_ref().unwrap(), serial);
        let (r0, r1) = (results[0].as_ref().unwrap(), results[1].as_ref().unwrap());
        assert!(r1.ipc() >= r0.ipc() * 0.95);
    }

    #[test]
    fn parallel_sweep_is_deterministic() {
        // Two full parallel sweeps must agree bit for bit: pool
        // scheduling may reorder the runs but never their results.
        let cfgs = [
            MachineConfig::n_plus_m(2, 2),
            MachineConfig::n_plus_m(4, 2).with_optimizations(),
        ];
        let first = run_configs_checked_with_budget(Benchmark::Compress, &cfgs, TEST_BUDGET);
        let second = run_configs_checked_with_budget(Benchmark::Compress, &cfgs, TEST_BUDGET);
        assert_eq!(first, second);
    }

    #[test]
    fn matrix_sweep_matches_per_config_runs() {
        let benches = [Benchmark::Compress, Benchmark::Li];
        let cfgs = [MachineConfig::n_plus_m(2, 0), MachineConfig::n_plus_m(2, 2)];
        let matrix = run_matrix_checked(&benches, &cfgs, TEST_BUDGET);
        assert_eq!(matrix.len(), benches.len());
        for (bi, bench) in benches.iter().enumerate() {
            assert_eq!(matrix[bi].len(), cfgs.len());
            for (ci, cfg) in cfgs.iter().enumerate() {
                let serial =
                    run_config_checked_with_budget(*bench, cfg.clone(), TEST_BUDGET).unwrap();
                assert_eq!(
                    *matrix[bi][ci].as_ref().unwrap(),
                    serial,
                    "({bi},{ci}) diverged"
                );
            }
        }
    }

    #[test]
    fn invalid_config_degrades_to_one_structured_failure() {
        let mut bad = MachineConfig::n_plus_m(2, 0);
        bad.rob_size = 0;
        let cfgs = [MachineConfig::n_plus_m(2, 0), bad];
        let results = run_configs_checked_with_budget(Benchmark::Li, &cfgs, TEST_BUDGET);
        assert!(results[0].is_ok());
        assert!(matches!(results[1], Err(SimError::Config(_))));
    }

    #[test]
    fn worker_panic_becomes_a_per_task_sim_error() {
        // Drive the pool through the same flattening the harness uses.
        let tasks: Vec<Box<dyn FnOnce() -> Result<SimResult, SimError> + Send>> = vec![
            Box::new(|| {
                run_config_checked_with_budget(
                    Benchmark::Compress,
                    MachineConfig::n_plus_m(2, 0),
                    5_000,
                )
            }),
            Box::new(|| panic!("poisoned task")),
        ];
        let out: Vec<_> = pool::run_tasks(tasks, 2)
            .into_iter()
            .map(super::flatten_task)
            .collect();
        assert!(out[0].is_ok());
        match &out[1] {
            Err(SimError::WorkerPanic(msg)) => assert!(msg.contains("poisoned task")),
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
    }
}
