//! The `sampled` workload: SMARTS-style interval sampling of the twelve
//! stand-ins on the optimized (4+2) machine under
//! `SamplingConfig::for_budget` defaults, serially, with no checkpoint
//! store. Functional fast-forward with cache warming takes most host time
//! and the detailed windows the rest, the mirror image of `detailed`.
//!
//! The seed jitters the budget, which moves every window start.

use std::sync::Arc;
use std::time::Instant;

use dda_bench::{pool, sample_program, SampledRun, SamplingConfig};
use dda_core::{MachineConfig, Simulator};
use dda_mem::FunctionalWarmup;
use dda_program::Program;
use dda_stats::Rng;
use dda_vm::Vm;
use dda_workloads::Benchmark;

use crate::common::{machines, programs, short, Case, Sizes};
use crate::report::{best_rate, median, Report};
use crate::trace::Tracer;

pub struct Sampled {
    progs: Vec<(Benchmark, Arc<Program>)>,
    cfg: MachineConfig,
    scfg: SamplingConfig,
}

/// One pass: every program sampled once.
pub struct Pass {
    pub runs: Vec<SampledRun>,
    /// Host seconds of each program's `sample_program` call.
    pub secs: Vec<f64>,
    pub failed: u64,
}

impl Pass {
    /// Budget instructions covered (replayed functionally) by the pass.
    pub fn covered(&self) -> u64 {
        self.runs.iter().map(|r| r.fast_forwarded).sum()
    }
}

/// Each program's sampled run rebuilt from outside `sample_program`.
pub struct Decomposition {
    /// Per program, `(cycles, committed)` of each measured window.
    pub windows: Vec<Vec<(u64, u64)>>,
    /// Host seconds fast-forwarding with cache warming.
    pub warm_ff_s: f64,
    /// Host seconds in `run_window`.
    pub window_s: f64,
    /// Accesses fed to `FunctionalWarmup::touch`.
    pub touches: u64,
    pub failed: u64,
}

pub fn setup(sizes: &Sizes, seed: u64) -> (Sampled, f64) {
    let t = Instant::now();
    let progs = programs();
    let gen_s = t.elapsed().as_secs_f64();
    let budget = sizes.sampled_budget + Rng::seed_from_u64(seed).gen_range(0..sizes.budget_jitter);
    let s = Sampled {
        progs,
        cfg: machines()[1].1.clone(),
        scfg: SamplingConfig::for_budget(budget),
    };
    (s, gen_s)
}

/// Whether two sampled runs agree on everything but host time.
fn same_measurement(a: &SampledRun, b: &SampledRun) -> bool {
    a.windows == b.windows
        && a.cpi == b.cpi
        && a.lvc_hit_rate == b.lvc_hit_rate
        && a.port_stalls_per_kinst == b.port_stalls_per_kinst
        && a.fast_forwarded == b.fast_forwarded
        && a.detailed_insts == b.detailed_insts
        && a.halted_early == b.halted_early
}

impl Sampled {
    /// Samples every program once through `sample_program`.
    pub fn pass(&self, tr: &mut Tracer) -> Pass {
        let (mut runs, mut secs, mut failed) = (Vec::new(), Vec::new(), 0);
        tr.span("sampled.pass", |tr| {
            for (_, p) in &self.progs {
                let (res, s) = tr.span("sampling.sample_program", |_| {
                    sample_program(&self.cfg, Arc::clone(p), &self.scfg)
                });
                match res {
                    Ok(run) => {
                        runs.push(run);
                        secs.push(s);
                    }
                    Err(_) => failed += 1,
                }
            }
        });
        Pass { runs, secs, failed }
    }

    pub fn cases(&self) -> Vec<Case> {
        self.progs
            .iter()
            .map(|(b, p)| Case {
                label: format!("{}/4p2", short(*b)),
                program: Arc::clone(p),
                cfg: self.cfg.clone(),
            })
            .collect()
    }

    /// Full detailed CPI of every program over the whole budget: the
    /// reference the sampled estimates are judged against. Untimed, so the
    /// programs run on the pool.
    pub fn reference_cpi(&self) -> Option<Vec<f64>> {
        let sim = Simulator::new(self.cfg.clone()).ok()?;
        let tasks: Vec<_> = self
            .progs
            .iter()
            .map(|(_, p)| {
                let sim = &sim;
                move || sim.run_shared(Arc::clone(p), self.scfg.budget)
            })
            .collect();
        pool::run_tasks(tasks, pool::default_workers(self.progs.len()))
            .into_iter()
            .map(|res| match res {
                Ok(Ok(r)) => Some(r.cycles as f64 / r.committed as f64),
                _ => None,
            })
            .collect()
    }

    /// Rebuilds `sample_program` from its layers: `Vm::fast_forward_observed`
    /// feeding `FunctionalWarmup::touch` up to each window start, then
    /// `Simulator::run_window` on a clone with the warmed tags.
    pub fn decompose(&self, tr: &mut Tracer) -> Decomposition {
        let sim = Simulator::new(self.cfg.clone()).expect("benchmark machine is valid");
        let s = &self.scfg;
        let k = s.windows.max(1) as u64;
        let spacing = (s.budget / k).max(1);
        let mut d = Decomposition {
            windows: Vec::new(),
            warm_ff_s: 0.0,
            window_s: 0.0,
            touches: 0,
            failed: 0,
        };
        tr.span("sampled.decomposed_pass", |tr| {
            for (_, p) in &self.progs {
                let mut vm = Vm::new(Arc::clone(p));
                let mut warm = FunctionalWarmup::new(&self.cfg.hierarchy);
                let mut windows = Vec::new();
                let mut ok = true;
                for i in 0..k {
                    if !ff_warming(tr, &mut vm, &mut warm, i * spacing, &mut d) {
                        ok = false;
                        break;
                    }
                    if vm.is_halted() {
                        break;
                    }
                    let tags = s.functional_warmup.then(|| warm.tags());
                    let vm_w = vm.clone();
                    let (run, secs) = tr.span("core.run_window", |_| {
                        sim.run_window(vm_w, tags.as_ref(), s.warmup_insts, s.window_insts)
                    });
                    d.window_s += secs;
                    match run {
                        Ok(w) if w.window.committed == 0 => break,
                        Ok(w) => windows.push((w.window.cycles, w.window.committed)),
                        Err(_) => {
                            ok = false;
                            break;
                        }
                    }
                }
                if ok && !vm.is_halted() {
                    ok = ff_warming(tr, &mut vm, &mut warm, s.budget, &mut d);
                }
                d.failed += u64::from(!ok);
                d.windows.push(windows);
            }
        });
        d
    }

    /// Plain `Vm::fast_forward` over the budget, per program: instructions
    /// and host seconds.
    pub fn plain_ff(&self, tr: &mut Tracer) -> (u64, f64) {
        let (mut insts, mut secs) = (0, 0.0);
        for (_, p) in &self.progs {
            let mut vm = Vm::new(Arc::clone(p));
            let (res, s) = tr.span("vm.fast_forward", |_| vm.fast_forward(self.scfg.budget));
            if let Ok(sum) = res {
                insts += sum.executed;
                secs += s;
            }
        }
        (insts, secs)
    }

    /// The two reproducibility checks: a second `sample_program` pass
    /// equals the first apart from host time, and (when given) the
    /// decomposition reproduces every window's cycles and committed count.
    pub fn check(&self, r: &mut Report, a: &Pass, b: &Pass, dec: Option<&Decomposition>) {
        let same = a.runs.len() == b.runs.len()
            && a.runs
                .iter()
                .zip(&b.runs)
                .all(|(x, y)| same_measurement(x, y));
        r.check(
            "sampling.deterministic",
            same,
            format!(
                "{} programs sampled twice, identical apart from host_secs",
                a.runs.len()
            ),
        );
        if let Some(d) = dec {
            let want: Vec<Vec<(u64, u64)>> = a
                .runs
                .iter()
                .map(|run| {
                    run.windows
                        .iter()
                        .map(|w| (w.cycles, w.committed))
                        .collect()
                })
                .collect();
            let n: usize = want.iter().map(Vec::len).sum();
            r.check(
                "trace.decomposition_eq_sample_program",
                d.failed == 0 && d.windows == want,
                format!("{n} windows: cycles and committed of the traced decomposition vs sample_program"),
            );
        }
    }

    /// Untraced figures: budget instructions covered per host second, and
    /// the sampling error against full detailed simulation.
    pub fn end_to_end(&self, r: &mut Report, passes: &[Pass], reference: &[f64]) {
        let secs: Vec<Vec<f64>> = (0..self.progs.len())
            .map(|i| passes.iter().map(|p| p.secs[i]).collect())
            .collect();
        let (v, note) = best_rate(passes[0].covered() as f64 / 1e6, &secs);
        r.metric("host_mips", v, "MIPS", note.clone());
        r.named("sampled_mips", v, "MIPS", &note);
        let acc = Accuracy::of(&passes[0].runs, reference);
        let note = format!(
            "12 programs, budget {}, vs full detailed run (deterministic)",
            self.scfg.budget
        );
        r.named("sample_cpi_err_pct", acc.err_pct, "%", &note);
        r.named("sample_cpi_hw_pct", acc.hw_pct, "%", &note);
    }

    /// Traced figures of the sampling, VM and warm-up layers.
    pub fn layers(
        &self,
        r: &mut Report,
        tr: &mut Tracer,
        passes: &[Pass],
        decs: &[Decomposition],
        reference: &[f64],
    ) {
        let plain: Vec<(u64, f64)> = (0..3).map(|_| self.plain_ff(tr)).collect();
        let ff_s = median(&plain.iter().map(|p| p.1).collect::<Vec<_>>());
        r.metric(
            "vm.ff_mips",
            plain[0].0 as f64 / ff_s / 1e6,
            "MIPS",
            format!(
                "Vm::fast_forward over the budget ({}), 12 programs, median of 3",
                self.scfg.budget
            ),
        );
        let warm: Vec<f64> = decs.iter().map(|d| d.warm_ff_s).collect();
        r.metric(
            "mem.warmup_s",
            median(&warm) - ff_s,
            "s",
            format!(
                "median warmed fast-forward of {} traced passes minus median plain fast-forward",
                warm.len()
            ),
        );
        r.metric(
            "mem.warm_touches",
            decs[0].touches as f64,
            "accesses",
            "per pass",
        );
        let win: Vec<f64> = decs.iter().map(|d| d.window_s).collect();
        r.timing("core.window_s", &win, "s", "traced passes");
        let share: Vec<f64> = decs
            .iter()
            .map(|d| d.warm_ff_s / (d.warm_ff_s + d.window_s))
            .collect();
        r.timing("sampling.ff_share", &share, "ratio", "traced passes");
        let runs = &passes[0].runs;
        let sum = |f: fn(&SampledRun) -> u64| runs.iter().map(f).sum::<u64>() as f64;
        r.metric(
            "sampling.fast_forwarded",
            sum(|x| x.fast_forwarded),
            "insts",
            "per pass",
        );
        r.metric(
            "sampling.detailed_insts",
            sum(|x| x.detailed_insts),
            "insts",
            "per pass",
        );
        r.metric(
            "sampling.windows",
            sum(|x| x.windows.len() as u64),
            "windows",
            "per pass",
        );
        let acc = Accuracy::of(runs, reference);
        let note = format!("budget {}, vs full detailed run", self.scfg.budget);
        r.metric("sampling.cpi_bias_pct", acc.bias_pct, "%", note.clone());
        r.metric("sampling.cpi_err_pct", acc.err_pct, "%", note.clone());
        r.metric("sampling.cpi_hw_pct", acc.hw_pct, "%", note);
    }
}

/// Fast-forwards `vm` to instruction `target`, feeding every access to
/// `warm` — the positioning step of `sample_program`. False on a trap.
fn ff_warming(
    tr: &mut Tracer,
    vm: &mut Vm,
    warm: &mut FunctionalWarmup,
    target: u64,
    d: &mut Decomposition,
) -> bool {
    let here = vm.instructions_executed();
    if target <= here {
        return true;
    }
    let mut touches = 0;
    let (res, secs) = tr.span("vm.fast_forward_observed", |_| {
        vm.fast_forward_observed(target - here, |di| {
            if let Some(m) = &di.mem {
                touches += 1;
                warm.touch(m.addr, m.is_store, m.is_local());
            }
        })
    });
    d.warm_ff_s += secs;
    d.touches += touches;
    res.is_ok()
}

/// Sampled CPI against full detailed CPI, over the programs.
struct Accuracy {
    /// Mean signed error, % of the full-run CPI.
    bias_pct: f64,
    /// Mean absolute error, % of the full-run CPI.
    err_pct: f64,
    /// Largest confidence half-width, % of the sampled mean.
    hw_pct: f64,
}

impl Accuracy {
    fn of(runs: &[SampledRun], reference: &[f64]) -> Accuracy {
        let errs: Vec<f64> = runs
            .iter()
            .zip(reference)
            .map(|(run, full)| (run.cpi.mean - full) / full * 100.0)
            .collect();
        let n = errs.len().max(1) as f64;
        Accuracy {
            bias_pct: errs.iter().sum::<f64>() / n,
            err_pct: errs.iter().map(|e| e.abs()).sum::<f64>() / n,
            hw_pct: runs
                .iter()
                .map(|x| x.cpi.half_width / x.cpi.mean * 100.0)
                .fold(0.0, f64::max),
        }
    }
}
