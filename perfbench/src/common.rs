//! Inputs, machines, sizes and the correctness checks every workload shares.

use std::sync::Arc;
use std::time::Instant;

use dda_bench::pool;
use dda_core::{MachineConfig, Simulator};
use dda_program::Program;
use dda_vm::Vm;
use dda_workloads::{matmul_checksum, qsort_input, Benchmark, RealWorkload};

use crate::report::{median, Report};

/// Workload scale of the generated programs: the value every binary in the
/// repository uses, so each stand-in runs far past any budget here.
pub const SCALE: u32 = dda_bench::dse::DEFAULT_SEED;

/// How much work one repetition does. `full` is what the benchmark
/// measures; `quick` shrinks every size for the self-test and for the
/// small pass over the other workloads' layers in a traced run.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Committed instructions per detailed run.
    pub detailed_insts: u64,
    /// Upper bound of the seed-chosen start offset of a detailed run.
    pub max_offset: u64,
    /// Sampling budget before the seed's jitter.
    pub sampled_budget: u64,
    /// Upper bound of the seed's jitter of the sampling budget.
    pub budget_jitter: u64,
    /// Committed-instruction budget of one sweep cell before jitter.
    pub cell_budget: u64,
    /// Upper bound of the seed's jitter of the cell budget.
    pub cell_jitter: u64,
    /// Prefix compared between the fast and the reference kernel.
    pub check_prefix: u64,
    /// Set-ups timed before the first pass and again before every pass;
    /// `setup_s` is their median, so it samples the same stretch of host
    /// time as the passes.
    pub setup_reps: usize,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        detailed_insts: 250_000,
        max_offset: 1_000_000,
        sampled_budget: 3_000_000,
        budget_jitter: 40_000,
        cell_budget: 30_000,
        cell_jitter: 1_024,
        check_prefix: 10_000,
        setup_reps: 10,
    };

    pub const QUICK: Sizes = Sizes {
        detailed_insts: 5_000,
        max_offset: 20_000,
        sampled_budget: 100_000,
        budget_jitter: 2_000,
        cell_budget: 2_000,
        cell_jitter: 256,
        check_prefix: 1_000,
        setup_reps: 2,
    };
}

/// The two machines of the detailed workload: the (2+0) base machine and
/// the (4+2) data-decoupled machine with fast forwarding and 2-way
/// combining. The tag names the machine in metric names.
pub fn machines() -> [(&'static str, MachineConfig); 2] {
    [
        ("2p0", MachineConfig::n_plus_m(2, 0)),
        ("4p2", MachineConfig::n_plus_m(4, 2).with_optimizations()),
    ]
}

/// The twelve SPEC95 stand-ins, generated once each.
pub fn programs() -> Vec<(Benchmark, Arc<Program>)> {
    Benchmark::ALL
        .into_iter()
        .map(|b| (b, Arc::new(b.program(SCALE))))
        .collect()
}

/// The stand-in's short name (`go` for `099.go`), as used in metric names.
pub fn short(b: Benchmark) -> &'static str {
    let name = b.name();
    name.split_once('.').map_or(name, |(_, s)| s)
}

/// Times `f` `reps` times and returns its last value with every duration.
pub fn repeat<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one repetition"), times)
}

/// One program on one machine.
pub struct Case {
    pub label: String,
    pub program: Arc<Program>,
    pub cfg: MachineConfig,
}

/// Fast kernel ≡ reference kernel: both run the same short prefix of every
/// case and must return equal `SimResult`s. Untimed, so the cases run on
/// the pool.
pub fn check_kernels(r: &mut Report, cases: &[Case], prefix: u64) {
    let run = |cfg: MachineConfig, p: &Arc<Program>| {
        Simulator::new(cfg).and_then(|s| s.run_shared(Arc::clone(p), prefix))
    };
    let tasks: Vec<_> = cases
        .iter()
        .map(|c| {
            move || {
                let mut reference = c.cfg.clone();
                reference.reference_kernel = true;
                match (run(c.cfg.clone(), &c.program), run(reference, &c.program)) {
                    (Ok(a), Ok(b)) => a == b,
                    _ => false,
                }
            }
        })
        .collect();
    let outcomes = pool::run_tasks(tasks, pool::default_workers(cases.len()));
    let diverged: Vec<&str> = cases
        .iter()
        .zip(outcomes)
        .filter(|(_, ok)| !matches!(ok, Ok(true)))
        .map(|(c, _)| c.label.as_str())
        .collect();
    let mut detail = format!(
        "{} of {} program x machine prefixes of {prefix} instructions equal",
        cases.len() - diverged.len(),
        cases.len()
    );
    if !diverged.is_empty() {
        detail += &format!("; differ or fail: {}", diverged.join(", "));
    }
    r.check("kernel.fast_eq_reference", diverged.is_empty(), detail);
}

/// The three hand-written kernels compute their known answers: quicksort
/// leaves no order violation and the host-side checksum, the matrix
/// multiply matches `matmul_checksum()` bit for bit, and `tak` returns 7.
pub fn check_real_kernels(r: &mut Report) {
    const GP: u32 = 0x1000_0000;
    for w in RealWorkload::ALL {
        let mut vm = Vm::new(w.program());
        let (ok, detail) = match vm.run(50_000_000) {
            Err(e) => (false, format!("trapped: {e}")),
            Ok(s) if !s.halted => (false, "did not halt in 50M instructions".to_string()),
            Ok(_) => {
                let mem = vm.memory();
                match w {
                    RealWorkload::Quicksort => {
                        let mut sorted = qsort_input();
                        sorted.sort_unstable();
                        let sum = sorted.iter().fold(0i32, |s, &x| s.wrapping_add(x)) as u32;
                        let (violations, got) = (mem.read_u32(GP), mem.read_u32(GP + 4));
                        (
                            violations == 0 && got == sum,
                            format!("{violations} violations, checksum {got:#x} (want {sum:#x})"),
                        )
                    }
                    RealWorkload::Matmul => {
                        let (got, want) = (mem.read_f64(GP + 8), matmul_checksum());
                        (
                            got.to_bits() == want.to_bits(),
                            format!("checksum {got} (want {want})"),
                        )
                    }
                    RealWorkload::Tak => {
                        let got = mem.read_u32(GP + 24);
                        (got == 7, format!("tak(18,12,6) = {got} (want 7)"))
                    }
                }
            }
        };
        r.check(&format!("real.{}", w.name()), ok, detail);
    }
}

/// Median host time of a 1-instruction `run_shared` on the (4+2) machine:
/// the cost of constructing a run, which short sweep cells pay per cell.
pub fn setup_us(progs: &[(Benchmark, Arc<Program>)], reps: usize) -> f64 {
    let sim = Simulator::new(machines()[1].1.clone()).expect("(4+2) machine is valid");
    let mut times = Vec::new();
    for (_, p) in progs {
        for _ in 0..reps {
            let t = Instant::now();
            let res = sim.run_shared(Arc::clone(p), 1);
            times.push(t.elapsed().as_secs_f64() * 1e6);
            std::hint::black_box(res.ok());
        }
    }
    median(&times)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
