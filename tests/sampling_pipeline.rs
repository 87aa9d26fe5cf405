//! The pipelined sampler against the serial loop it replaced.
//!
//! `sample_program_stored` runs fast-forward on the caller and cache
//! warming plus the detailed windows on a back stage. Its contract is the
//! serial composition: `Vm::fast_forward_observed` into
//! `FunctionalWarmup::touch`, then `tags()`, then `run_window` for each
//! window, with the store consulted and written in window order. This
//! file transcribes that loop and compares every `SampledRun` field but
//! `host_secs`, every `Err` value, and the store's files byte for byte.
//!
//! The back stage runs on a helper thread unless `DDA_WORKERS=1`, which
//! is read once per process; run this file under both settings to cover
//! both paths.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dda::core::{MachineConfig, SimError, Simulator, Trap, TrapKind, WindowRun};
use dda::isa::{AluOp, Gpr, MemWidth, StreamHint};
use dda::program::fuzz::{derive_seed, fuzz_program};
use dda::program::{FunctionBuilder, FuzzWeights, Program, ProgramBuilder};
use dda::vm::{CheckpointKey, Vm};
use dda::workloads::{Benchmark, RealWorkload};
use dda_bench::{
    config_fingerprint, program_fingerprint, sample_program_stored, tags_from_checkpoint,
    CheckpointStore, Confidence, Estimate, SampledRun, SamplingConfig, WindowSample,
};
use dda_mem::{FunctionalWarmup, HierarchyTags};

fn machine() -> MachineConfig {
    MachineConfig::n_plus_m(4, 2).with_optimizations()
}

fn shape(windows: usize, warmup: u64, window: u64, budget: u64) -> SamplingConfig {
    SamplingConfig {
        windows,
        window_insts: window,
        warmup_insts: warmup,
        budget,
        confidence: Confidence::C95,
        functional_warmup: true,
        ..SamplingConfig::for_budget(budget)
    }
}

// ---------------------------------------------------------------------------
// The serial loop, transcribed
// ---------------------------------------------------------------------------

fn trap_at(vm: &Vm, e: dda::vm::VmError) -> SimError {
    SimError::Trap(Trap {
        kind: TrapKind::from(e),
        cycle: 0,
        committed: vm.instructions_executed(),
    })
}

fn position(
    vm: &mut Vm,
    target: u64,
    warm: Option<&mut FunctionalWarmup>,
    ff: &mut u64,
) -> Result<(), SimError> {
    let here = vm.instructions_executed();
    if target <= here {
        return Ok(());
    }
    let res = match warm {
        Some(w) => vm
            .fast_forward_observed(target - here, |d| {
                if let Some(m) = &d.mem {
                    w.touch(m.addr, m.is_store, m.is_local());
                }
            })
            .map(|_| ()),
        None => vm.fast_forward(target - here).map(|_| ()),
    };
    res.map_err(|e| trap_at(vm, e))?;
    *ff += vm.instructions_executed() - here;
    Ok(())
}

fn load_state(
    store: &CheckpointStore,
    key: &CheckpointKey,
    program: &Arc<Program>,
    expect_tags: bool,
) -> Option<(Vm, Option<HierarchyTags>)> {
    let ck = store.load(*key).ok().flatten()?;
    let tags = tags_from_checkpoint(&ck).ok()?;
    if expect_tags != tags.is_some() {
        return None;
    }
    let vm = Vm::restore(Arc::clone(program), &ck).ok()?;
    Some((vm, tags))
}

fn sample_of(start_inst: u64, run: &WindowRun) -> WindowSample {
    let lvc_hit_rate = match &run.window.lvc {
        Some(l) if l.accesses() > 0 => l.hits as f64 / l.accesses() as f64,
        _ => 0.0,
    };
    WindowSample {
        start_inst,
        committed: run.window.committed,
        cycles: run.window.cycles,
        cpi: run.window.cycles as f64 / run.window.committed as f64,
        lvc_hit_rate,
        port_stalls_per_kinst: (run.window.lsq.port_stall_cycles
            + run.window.lvaq.port_stall_cycles) as f64
            / (run.window.committed as f64 / 1000.0),
    }
}

/// One thread, one pass, in strict turn: the loop the pipeline replaced.
fn serial_sample(
    cfg: &MachineConfig,
    program: Arc<Program>,
    scfg: &SamplingConfig,
    store: Option<&CheckpointStore>,
) -> Result<SampledRun, SimError> {
    let sim = Simulator::new(cfg.clone())?;
    let k = scfg.windows.max(1) as u64;
    let spacing = (scfg.budget / k).max(1);
    let phash = program_fingerprint(&program);
    let chash = if scfg.functional_warmup {
        config_fingerprint(cfg)
    } else {
        0
    };
    let key_at = |inst| CheckpointKey {
        program_hash: phash,
        inst_index: inst,
        config_hash: chash,
    };
    let mut vm = Vm::new(Arc::clone(&program));
    let mut warm = scfg
        .functional_warmup
        .then(|| FunctionalWarmup::new(&cfg.hierarchy));
    let mut windows = Vec::new();
    let mut detailed_insts = 0;
    let mut ff = 0;
    for i in 0..k {
        let start = i * spacing;
        let restored = store.and_then(|s| load_state(s, &key_at(start), &program, warm.is_some()));
        let tags = match restored {
            Some((r, restored_tags)) => {
                vm = r;
                if let (Some(w), Some(t)) = (&mut warm, &restored_tags) {
                    w.adopt(t);
                }
                restored_tags
            }
            None => {
                position(&mut vm, start, warm.as_mut(), &mut ff)?;
                if vm.is_halted() {
                    break;
                }
                let tags = warm.as_ref().map(|w| w.tags());
                if let Some(s) = store {
                    let mut ck = vm.checkpoint(phash, chash);
                    ck.cache_tags = tags.as_ref().map(|t| t.to_bytes());
                    let _ = s.save(ck.key, &ck);
                }
                tags
            }
        };
        if vm.is_halted() {
            break;
        }
        let run = sim.run_window(
            vm.clone(),
            tags.as_ref(),
            scfg.warmup_insts,
            scfg.window_insts,
        )?;
        detailed_insts += run.total.committed;
        if run.window.committed == 0 {
            break;
        }
        windows.push(sample_of(vm.instructions_executed(), &run));
    }
    if !vm.is_halted() && scfg.budget > vm.instructions_executed() {
        match store.and_then(|s| load_state(s, &key_at(scfg.budget), &program, warm.is_some())) {
            Some((restored, _)) => vm = restored,
            None => {
                position(&mut vm, scfg.budget, warm.as_mut(), &mut ff)?;
                if let (Some(s), false) = (store, vm.is_halted()) {
                    let mut ck = vm.checkpoint(phash, chash);
                    ck.cache_tags = warm.as_ref().map(|w| w.tags().to_bytes());
                    let _ = s.save(ck.key, &ck);
                }
            }
        }
    }
    let conf = scfg.confidence;
    let over = |f: fn(&WindowSample) -> f64| {
        Estimate::over(&windows.iter().map(f).collect::<Vec<_>>(), conf)
    };
    Ok(SampledRun {
        cpi: over(|w| w.cpi),
        lvc_hit_rate: over(|w| w.lvc_hit_rate),
        port_stalls_per_kinst: over(|w| w.port_stalls_per_kinst),
        windows,
        fast_forwarded: ff,
        detailed_insts,
        halted_early: vm.is_halted(),
        host_secs: 0.0,
    })
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

/// Every field but `host_secs`, floats by their bits (an empty run's
/// means are NaN).
fn measurement(r: &Result<SampledRun, SimError>) -> String {
    match r {
        Err(e) => format!("Err({e:?})"),
        Ok(s) => {
            let est = |e: &Estimate| (e.mean.to_bits(), e.half_width.to_bits());
            format!(
                "windows {:?} cpi {:?} lvc {:?} port {:?} ff {} detailed {} halted {}",
                s.windows,
                est(&s.cpi),
                est(&s.lvc_hit_rate),
                est(&s.port_stalls_per_kinst),
                s.fast_forwarded,
                s.detailed_insts,
                s.halted_early,
            )
        }
    }
}

/// File name → bytes of everything in a store directory.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .expect("store directory")
        .map(|e| {
            let e = e.expect("directory entry");
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).expect("store file"))
        })
        .collect()
}

struct Dirs(PathBuf, PathBuf);

impl Dirs {
    fn new(label: &str) -> Dirs {
        let base = std::env::temp_dir().join(format!(
            "dda-sampling-pipeline-{}-{}",
            std::process::id(),
            label.replace(|c: char| !c.is_ascii_alphanumeric(), "_")
        ));
        let _ = std::fs::remove_dir_all(&base);
        Dirs(base.join("pipelined"), base.join("serial"))
    }
}

impl Drop for Dirs {
    fn drop(&mut self) {
        if let Some(base) = self.0.parent() {
            let _ = std::fs::remove_dir_all(base);
        }
    }
}

/// Runs each shape in `seq` with warming on and off: once with no store,
/// and once more through a store shared along the sequence (so repeats
/// find it warm). Returns the pipelined results, in order.
fn check_seq(
    label: &str,
    cfg: &MachineConfig,
    program: &Arc<Program>,
    seq: &[SamplingConfig],
) -> Vec<Result<SampledRun, SimError>> {
    let mut out = Vec::new();
    for warming in [true, false] {
        let dirs = Dirs::new(&format!("{label}-{warming}"));
        let piped_store = CheckpointStore::open(&dirs.0).expect("store");
        let serial_store = CheckpointStore::open(&dirs.1).expect("store");
        for (step, scfg) in seq.iter().enumerate() {
            let scfg = SamplingConfig {
                functional_warmup: warming,
                ..scfg.clone()
            };
            let ctx = format!("{label}, warming {warming}, step {step}");
            let plain = sample_program_stored(cfg, Arc::clone(program), &scfg, None);
            let serial = serial_sample(cfg, Arc::clone(program), &scfg, None);
            assert_eq!(measurement(&plain), measurement(&serial), "{ctx}, no store");
            let stored = sample_program_stored(cfg, Arc::clone(program), &scfg, Some(&piped_store));
            let serial = serial_sample(cfg, Arc::clone(program), &scfg, Some(&serial_store));
            assert_eq!(measurement(&stored), measurement(&serial), "{ctx}, store");
            assert!(
                files(&dirs.0) == files(&dirs.1),
                "{ctx}: store files differ: {:?} vs {:?}",
                files(&dirs.0).keys().collect::<Vec<_>>(),
                files(&dirs.1).keys().collect::<Vec<_>>()
            );
            out.push(plain);
        }
    }
    out
}

/// No store, a cold store and the same store warm.
fn check(label: &str, program: &Arc<Program>, scfg: &SamplingConfig) {
    check_seq(label, &machine(), program, &[scfg.clone(), scfg.clone()]);
}

// ---------------------------------------------------------------------------
// Programs
// ---------------------------------------------------------------------------

#[test]
fn stand_ins_match_the_serial_loop() {
    for bench in Benchmark::ALL {
        let program = Arc::new(bench.program(u32::MAX / 2));
        check(bench.name(), &program, &shape(4, 400, 800, 24_000));
    }
}

#[test]
fn runs_on_a_shared_pool_match_the_serial_loop() {
    // On a worker of a pool that runs several, the back stage runs inline.
    let tasks: Vec<_> = Benchmark::ALL[..4]
        .iter()
        .map(|&bench| {
            move || {
                assert_eq!(dda_bench::sampling_threads(), 1);
                let program = Arc::new(bench.program(u32::MAX / 2));
                let label = format!("pool-{}", bench.name());
                check(&label, &program, &shape(4, 400, 800, 24_000));
            }
        })
        .collect();
    for r in dda_bench::pool::run_tasks(tasks, 2) {
        if let Err(msg) = r {
            panic!("{msg}");
        }
    }
}

#[test]
fn real_kernels_match_the_serial_loop() {
    for w in RealWorkload::ALL {
        let program = Arc::new(w.program());
        check(w.name(), &program, &shape(4, 400, 800, 24_000));
    }
}

#[test]
fn fuzzed_programs_match_the_serial_loop() {
    let mut errors = 0;
    for (name, weights) in FuzzWeights::presets() {
        for seed in 0..3u64 {
            let program = Arc::new(fuzz_program(derive_seed(0x5A3, seed), &weights));
            let label = format!("fuzz {name} seed {seed}");
            let runs = check_seq(
                &label,
                &machine(),
                &program,
                &[shape(5, 300, 500, 6_000), shape(5, 300, 500, 6_000)],
            );
            errors += runs.iter().filter(|r| r.is_err()).count();
        }
    }
    assert!(errors > 0, "some fuzzed program faults");
}

/// A counted loop with local and global traffic that ends in a halt or,
/// with `trap`, in a load from an unmapped address. Returns the program
/// and the instructions it executes before halting or trapping.
fn counted_loop(iters: i32, trap: bool) -> (Arc<Program>, u64) {
    let mut f = FunctionBuilder::with_frame("main", 32);
    f.addi(Gpr::SP, Gpr::SP, -32);
    f.load_imm(Gpr::T9, iters);
    f.load_imm(Gpr::S0, 0);
    let top = f.new_label();
    f.bind(top);
    f.store_local(Gpr::S0, 0);
    f.load_local(Gpr::T0, 0);
    f.load(Gpr::T1, Gpr::GP, 0, MemWidth::Word, StreamHint::Unknown);
    f.alu(AluOp::Add, Gpr::S0, Gpr::S0, Gpr::T0);
    f.alu(AluOp::Add, Gpr::S0, Gpr::S0, Gpr::T1);
    f.store(Gpr::S0, Gpr::GP, 4, MemWidth::Word, StreamHint::Unknown);
    f.addi(Gpr::T9, Gpr::T9, -1);
    f.bnez(Gpr::T9, top);
    if trap {
        f.load(Gpr::T0, Gpr::ZERO, 16, MemWidth::Word, StreamHint::Unknown);
    }
    f.halt();
    let mut b = ProgramBuilder::new();
    b.add_function(f);
    let program = Arc::new(b.build().expect("program builds"));
    let mut vm = Vm::new(Arc::clone(&program));
    let res = vm.fast_forward(u64::MAX);
    assert_eq!(res.is_err(), trap);
    (program, vm.instructions_executed())
}

#[test]
fn a_halt_inside_a_warm_up_ends_the_run() {
    let (program, len) = counted_loop(400, false);
    // Window 2 starts 1000 instructions before the halt, inside its
    // 1500-instruction warm-up; windows 0 and 1 measure in full.
    let spacing = (len - 1_000) / 2;
    let runs = check_seq(
        "halt in window 2",
        &machine(),
        &program,
        &[
            shape(4, 1_500, 500, 4 * spacing),
            shape(4, 1_500, 500, 4 * spacing),
        ],
    );
    let first = runs[0].as_ref().expect("no error");
    assert_eq!(first.windows.len(), 2);
    assert!(first.halted_early);

    // Windows every 300 instructions, and window 0's warm-up already
    // covers the halt: the caller runs ahead through windows 1-4 before
    // window 0 ends the run. A store first filled by a shape with windows
    // every 600 instructions holds positions inside that run-ahead, so
    // the warm pass must not restore past window 0 either. It lacks the
    // second window's start, so the warm pass still runs on the helper.
    let (program, len) = counted_loop(180, false);
    let ahead = shape(8, 2_000, 200, 8 * 300);
    let filler = shape(4, 50, 50, 4 * 600);
    assert!(len > 1_300 && len < 2_000, "len = {len}");
    let runs = check_seq(
        "halt in window 0",
        &machine(),
        &program,
        &[ahead.clone(), filler, ahead.clone(), ahead],
    );
    for r in [&runs[0], &runs[2]] {
        let r = r.as_ref().expect("no error");
        assert!(r.windows.is_empty() && r.halted_early);
        assert_eq!(r.fast_forwarded, len);
    }
    assert!(!runs[1].as_ref().expect("no error").windows.is_empty());

    // The same, with the budget short of the halt: the cold pass
    // checkpoints the tail, and the warm pass restores it after the
    // caller has run ahead of the window that ended the run.
    let short = shape(4, 2_000, 200, 1_200);
    let runs = check_seq(
        "halt in window 0, tail stored",
        &machine(),
        &program,
        &[short.clone(), short],
    );
    let r = runs[0].as_ref().expect("no error");
    assert!(r.windows.is_empty() && !r.halted_early);
    assert_eq!(r.fast_forwarded, 1_200);
}

#[test]
fn a_fast_forward_trap_after_a_window_is_the_error() {
    let (program, len) = counted_loop(400, true);
    // Window 0 measures; the fast-forward to window 1 traps.
    let runs = check_seq(
        "trap before window 1",
        &machine(),
        &program,
        &[
            shape(2, 300, 500, 2 * (len + 100)),
            shape(2, 300, 500, 2 * (len + 100)),
        ],
    );
    for r in &runs {
        match r {
            Err(SimError::Trap(t)) => assert_eq!((t.cycle, t.committed), (0, len)),
            other => panic!("expected a fast-forward trap, got {}", measurement(other)),
        }
    }

    // Window 0 runs into the trap itself: its error, with a cycle count,
    // beats the fast-forward trap that follows it.
    let runs = check_seq(
        "trap inside window 0",
        &machine(),
        &program,
        &[
            shape(2, len / 2, len, 2 * (len + 100)),
            shape(2, len / 2, len, 2 * (len + 100)),
        ],
    );
    for r in &runs {
        match r {
            Err(SimError::Trap(t)) => assert!(t.cycle > 0),
            other => panic!("expected the window's trap, got {}", measurement(other)),
        }
    }
}
