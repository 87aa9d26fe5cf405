//! The `detailed` workload: full cycle-level runs of the twelve stand-ins
//! on the (2+0) base machine and the optimized (4+2) machine, serially on
//! one thread. The pipeline takes nearly all host time; the functional
//! front-end only positions each run once, in set-up.
//!
//! The seed picks each program's start offset: every run fast-forwards a
//! fresh [`Vm`] there (`Vm::fast_forward`, untimed) and hands it to
//! `Simulator::run_from`.

use std::sync::Arc;
use std::time::Instant;

use dda_core::{SimResult, Simulator};
use dda_program::Program;
use dda_stats::Rng;
use dda_vm::Vm;
use dda_workloads::Benchmark;

use crate::common::{machines, programs, short, Case, Sizes};
use crate::report::{best_rate, median, Report};
use crate::trace::Tracer;

pub struct Detailed {
    progs: Vec<(Benchmark, Arc<Program>)>,
    offsets: Vec<u64>,
    sims: Vec<(&'static str, Simulator)>,
    insts: u64,
}

/// One pass: every program on every machine.
pub struct Pass {
    /// `[machine][program]` results.
    pub results: Vec<Vec<SimResult>>,
    /// `[machine][program]` host seconds of `run_from`.
    pub secs: Vec<Vec<f64>>,
    pub failed: u64,
}

impl Pass {
    pub fn committed(&self, m: usize) -> u64 {
        self.results[m].iter().map(|r| r.committed).sum()
    }

    pub fn secs(&self, m: usize) -> f64 {
        self.secs[m].iter().sum()
    }

    pub fn runs(&self) -> u64 {
        self.secs.iter().map(|s| s.len() as u64).sum::<u64>() + self.failed
    }
}

/// Generates the programs and draws each one's start offset. Returns the
/// program-generation time too.
pub fn setup(sizes: &Sizes, seed: u64) -> (Detailed, f64) {
    let t = Instant::now();
    let progs = programs();
    let gen_s = t.elapsed().as_secs_f64();
    let mut rng = Rng::seed_from_u64(seed);
    let offsets = progs
        .iter()
        .map(|_| rng.gen_range(0..sizes.max_offset))
        .collect();
    let sims = machines()
        .into_iter()
        .map(|(tag, cfg)| {
            (
                tag,
                Simulator::new(cfg).expect("benchmark machines are valid"),
            )
        })
        .collect();
    let d = Detailed {
        progs,
        offsets,
        sims,
        insts: sizes.detailed_insts,
    };
    (d, gen_s)
}

impl Detailed {
    /// Runs every program on every machine from its start offset.
    pub fn pass(&self, tr: &mut Tracer) -> Pass {
        let mut out = Pass {
            results: Vec::new(),
            secs: Vec::new(),
            failed: 0,
        };
        tr.span("detailed.pass", |tr| {
            for (_, sim) in &self.sims {
                let (mut results, mut secs) = (Vec::new(), Vec::new());
                for ((_, p), &offset) in self.progs.iter().zip(&self.offsets) {
                    let mut vm = Vm::new(Arc::clone(p));
                    let (positioned, _) = tr.span("vm.fast_forward", |_| vm.fast_forward(offset));
                    if !matches!(positioned, Ok(s) if !s.halted) {
                        out.failed += 1;
                        continue;
                    }
                    match tr.span("core.run_from", |_| sim.run_from(vm, self.insts)) {
                        (Ok(r), s) => {
                            results.push(r);
                            secs.push(s);
                        }
                        (Err(_), _) => out.failed += 1,
                    }
                }
                out.results.push(results);
                out.secs.push(secs);
            }
        });
        out
    }

    /// Every program on every machine, for the kernel check.
    pub fn cases(&self) -> Vec<Case> {
        let mut cases = Vec::new();
        for (tag, sim) in &self.sims {
            for (b, p) in &self.progs {
                cases.push(Case {
                    label: format!("{}/{tag}", short(*b)),
                    program: Arc::clone(p),
                    cfg: sim.config().clone(),
                });
            }
        }
        cases
    }

    /// Untraced figures: committed instructions per host second, over both
    /// machines and per machine. Every pass commits the same instructions.
    pub fn end_to_end(&self, r: &mut Report, passes: &[Pass]) {
        let machines: Vec<usize> = (0..self.sims.len()).collect();
        let mips = |ms: &[usize]| {
            let insts: u64 = ms.iter().map(|&m| passes[0].committed(m)).sum();
            let secs: Vec<Vec<f64>> = ms
                .iter()
                .flat_map(|&m| {
                    (0..self.progs.len())
                        .map(move |i| passes.iter().map(|p| p.secs[m][i]).collect())
                })
                .collect();
            best_rate(insts as f64 / 1e6, &secs)
        };
        let (v, note) = mips(&machines);
        r.metric("host_mips", v, "MIPS", note);
        for (m, (tag, _)) in self.sims.iter().enumerate() {
            let (v, note) = mips(&[m]);
            r.named(&format!("detailed_mips_{tag}"), v, "MIPS", &note);
        }
    }

    /// Traced figures: per-machine and per-program core time and speed,
    /// the simulated counts, and the front-end's translation-cache figures
    /// from `run_shared_detailed`.
    pub fn layers(&self, r: &mut Report, tr: &mut Tracer, passes: &[Pass]) {
        for (m, (tag, _)) in self.sims.iter().enumerate() {
            let run_s: Vec<f64> = passes.iter().map(|p| p.secs(m)).collect();
            r.timing(&format!("core.run_s.{tag}"), &run_s, "s", "traced passes");
            let first = &passes[0].results[m];
            let cycles: u64 = first.iter().map(|x| x.cycles).sum();
            let ns: Vec<f64> = run_s.iter().map(|s| s * 1e9 / cycles as f64).collect();
            r.timing(
                &format!("core.ns_per_sim_cycle.{tag}"),
                &ns,
                "ns",
                "traced passes",
            );
            for (i, (b, _)) in self.progs.iter().enumerate() {
                let secs: Vec<f64> = passes.iter().map(|p| p.secs[m][i]).collect();
                let mips = first[i].committed as f64 / median(&secs) / 1e6;
                r.metric(
                    &format!("core.mips.{}.{tag}", short(*b)),
                    mips,
                    "MIPS",
                    format!("committed / median of {} traced runs", secs.len()),
                );
            }
            let committed: u64 = first.iter().map(|x| x.committed).sum();
            let note = "simulated, summed over the 12 programs";
            r.metric(&format!("core.cycles.{tag}"), cycles as f64, "cycles", note);
            r.metric(
                &format!("core.ipc.{tag}"),
                committed as f64 / cycles as f64,
                "inst/cycle",
                note,
            );
            let stalls: u64 = first
                .iter()
                .map(|x| x.lsq.port_stall_cycles + x.lvaq.port_stall_cycles)
                .sum();
            r.metric(
                &format!("core.port_stall_cycles.{tag}"),
                stalls as f64,
                "cycles",
                note,
            );
            if first.iter().any(|x| x.lvc.is_some()) {
                let lvaq_full: u64 = first.iter().map(|x| x.stall_lvaq_full).sum();
                r.metric(
                    &format!("core.stall_lvaq_full.{tag}"),
                    lvaq_full as f64,
                    "cycles",
                    note,
                );
                let (hits, accesses) = first
                    .iter()
                    .filter_map(|x| x.lvc.as_ref())
                    .fold((0, 0), |(h, a), l| (h + l.hits, a + l.accesses()));
                r.metric(
                    &format!("mem.lvc_hit_rate.{tag}"),
                    hits as f64 / accesses.max(1) as f64,
                    "ratio",
                    note,
                );
            }
        }
        // Translation-cache counters of the front-end feeding the
        // optimized machine, each program run from its first instruction.
        let (tag, sim) = &self.sims[self.sims.len() - 1];
        let mut tc = dda_vm::TCacheStats::default();
        for (b, p) in &self.progs {
            let name = format!("core.run_shared_detailed.{tag}");
            match tr.span(&name, |_| {
                sim.run_shared_detailed(Arc::clone(p), self.insts)
            }) {
                (Ok((_, t)), _) => tc.merge(&t),
                (Err(e), _) => r.check(
                    &format!("run_shared_detailed.{}", short(*b)),
                    false,
                    e.to_string(),
                ),
            }
        }
        let note = format!("run_shared_detailed on ({tag}), 12 programs");
        r.metric("vm.tcache_hit_rate", tc.hit_rate(), "ratio", note.clone());
        r.metric(
            "vm.blocks_decoded",
            tc.blocks_decoded as f64,
            "blocks",
            note,
        );
    }
}
