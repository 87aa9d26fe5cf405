//! The `sweep` workload: a figure-style design-space matrix — the twelve
//! stand-ins × an (N+M) port grid × combining × fast forwarding, 276 short
//! full-detail cells — run through `DseService` over a fresh `ResultStore`
//! on the pool with no more workers than CPUs, then rerun warm. Per-run
//! construction, pool scheduling and store writes (cold) and store reads
//! (warm) matter here, and in neither other workload.
//!
//! The matrix goes in as twelve closed batches, one request of 23 cells per
//! program, the way a figure script sends one request per table. The
//! batches are the units whose fastest repetitions give the rate (see
//! `best_rate`).
//!
//! The seed jitters the per-cell instruction budget.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dda_bench::dse::DEFAULT_SEED;
use dda_bench::{
    compute_cell, pool, program_fingerprint, result_key, CellReport, CellStatus, DseRequest,
    DseService, ResultStore, RunPlan, KERNEL_VERSION,
};
use dda_program::Program;
use dda_stats::Rng;
use dda_workloads::Benchmark;

use crate::common::{programs, Case, Sizes};
use crate::report::{best_rate, median, percentile, Report};
use crate::trace::Tracer;

/// The (N+M) points of the paper's port studies; `M = 0` has no LVC.
const GRID: [(u32, u32); 8] = [
    (2, 0),
    (3, 0),
    (4, 0),
    (2, 1),
    (2, 2),
    (3, 1),
    (3, 2),
    (4, 2),
];

pub struct Sweep {
    progs: HashMap<Benchmark, Arc<Program>>,
    /// One request per program.
    reqs: Vec<DseRequest>,
    /// Directory under which each repetition opens a fresh store.
    root: PathBuf,
    /// The store set-up created; removed on drop, outside the set-up time.
    setup_store: PathBuf,
}

impl Drop for Sweep {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.setup_store);
    }
}

/// One cold pass over a fresh store and its warm rerun.
pub struct Rep {
    /// Host seconds of each cold request.
    pub cold_s: Vec<f64>,
    pub warm_s: f64,
    pub cells: usize,
    pub errors: usize,
    /// Instructions simulated by each cold request.
    pub cold_insts: Vec<u64>,
    /// Cells the warm rerun served from the store.
    pub warm_hits: usize,
    pub store_bytes: u64,
    /// Whether the warm rerun served every cell from the store with the
    /// cold outcome and simulated nothing.
    pub warm_eq_cold: bool,
}

impl Rep {
    pub fn cold_total(&self) -> f64 {
        self.cold_s.iter().sum()
    }
}

/// Per-cell `compute_cell` on the pool, then `ResultStore::save` and
/// `load` of each outcome, timed from outside.
pub struct Decomposition {
    pub cell_secs: Vec<f64>,
    /// Host seconds of the pool batches.
    pub batch_s: f64,
    pub workers: usize,
    pub save_ms: Vec<f64>,
    pub load_ms: Vec<f64>,
    pub failed: u64,
}

pub fn setup(sizes: &Sizes, seed: u64, root: &Path) -> (Sweep, f64) {
    let t = Instant::now();
    let progs = programs();
    let gen_s = t.elapsed().as_secs_f64();
    // Store creation is set-up work; each repetition pays it again on a
    // fresh directory outside the timed region.
    static SETUPS: AtomicUsize = AtomicUsize::new(0);
    let n = SETUPS.fetch_add(1, Ordering::Relaxed);
    let setup_store = root.join(format!("store-setup-{}-{n}", std::process::id()));
    ResultStore::open(&setup_store).expect("store directory can be created");
    let plan = RunPlan::Full {
        budget: sizes.cell_budget + Rng::seed_from_u64(seed).gen_range(0..sizes.cell_jitter),
    };
    let reqs = Benchmark::ALL
        .into_iter()
        .map(|b| DseRequest {
            benches: vec![b],
            grid: GRID.to_vec(),
            combining: vec![1, 2],
            fast_forward: vec![false, true],
            lvc_bytes: None,
            seed: DEFAULT_SEED,
            plan: plan.clone(),
        })
        .collect();
    let s = Sweep {
        progs: progs.into_iter().collect(),
        reqs,
        root: root.to_path_buf(),
        setup_store,
    };
    (s, gen_s)
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|it| {
            it.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn by_index(mut reports: Vec<CellReport>) -> Vec<CellReport> {
    reports.sort_by_key(|r| r.index);
    reports
}

impl Sweep {
    pub fn cells(&self) -> usize {
        self.reqs.iter().map(|r| r.expand().len()).sum()
    }

    fn fresh_store(&self, tag: &str) -> ResultStore {
        let dir = self
            .root
            .join(format!("store-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        ResultStore::open(dir).expect("store directory can be created")
    }

    /// Every request cold over a fresh store, then every request warm.
    pub fn rep(&self, n: usize) -> Rep {
        let svc = DseService::new(self.fresh_store(&n.to_string()), None);
        let mut rep = Rep {
            cold_s: Vec::new(),
            warm_s: 0.0,
            cells: 0,
            errors: 0,
            cold_insts: Vec::new(),
            warm_hits: 0,
            store_bytes: 0,
            warm_eq_cold: true,
        };
        let mut cold = Vec::new();
        for req in &self.reqs {
            let t = Instant::now();
            let (reports, sum) = svc.run_request(req);
            rep.cold_s.push(t.elapsed().as_secs_f64());
            rep.cells += sum.cells;
            rep.errors += sum.errors;
            rep.cold_insts.push(sum.sim_insts);
            cold.push(by_index(reports));
        }
        for (req, cold) in self.reqs.iter().zip(&cold) {
            let t = Instant::now();
            let (reports, sum) = svc.run_request(req);
            rep.warm_s += t.elapsed().as_secs_f64();
            rep.warm_hits += sum.hits;
            let warm = by_index(reports);
            rep.warm_eq_cold &= sum.hits == sum.cells
                && sum.sim_insts == 0
                && warm.len() == cold.len()
                && cold.iter().zip(&warm).all(|(c, w)| {
                    w.status == CellStatus::Hit && c.outcome.is_some() && c.outcome == w.outcome
                });
        }
        rep.store_bytes = dir_bytes(svc.results().dir());
        let _ = std::fs::remove_dir_all(svc.results().dir());
        rep
    }

    pub fn cases(&self) -> Vec<Case> {
        self.reqs
            .iter()
            .flat_map(DseRequest::expand)
            .map(|c| Case {
                label: c.label,
                program: Arc::clone(&self.progs[&c.bench]),
                cfg: c.cfg,
            })
            .collect()
    }

    /// Computes every cell with `compute_cell`, one pool batch per request
    /// as `DseService` would, timing each cell on its worker; then saves
    /// and reloads each outcome through a fresh `ResultStore`.
    pub fn decompose(&self, tr: &mut Tracer) -> Decomposition {
        let store = self.fresh_store("traced");
        let fingerprints: HashMap<Benchmark, u64> = self
            .progs
            .iter()
            .map(|(b, p)| (*b, program_fingerprint(p)))
            .collect();
        let mut d = Decomposition {
            cell_secs: Vec::new(),
            batch_s: 0.0,
            workers: 0,
            save_ms: Vec::new(),
            load_ms: Vec::new(),
            failed: 0,
        };
        let origin = tr.origin();
        for req in &self.reqs {
            let cells = req.expand();
            let plan = &req.plan;
            d.workers = pool::default_workers(cells.len());
            let tasks: Vec<_> = cells
                .iter()
                .map(|c| {
                    let program = Arc::clone(&self.progs[&c.bench]);
                    move || {
                        let start = origin.elapsed().as_secs_f64();
                        let out = compute_cell(&c.cfg, program, plan, None);
                        (out, start, origin.elapsed().as_secs_f64())
                    }
                })
                .collect();
            let (results, batch_s) =
                tr.span("pool.run_tasks", |_| pool::run_tasks(tasks, d.workers));
            d.batch_s += batch_s;
            tr.span("dse.store", |tr| {
                for (c, res) in cells.iter().zip(results) {
                    let Ok((Ok((outcome, _)), start, end)) = res else {
                        d.failed += 1;
                        continue;
                    };
                    tr.record("dse.compute_cell", start, end);
                    d.cell_secs.push(end - start);
                    let key = result_key(
                        KERNEL_VERSION,
                        &c.cfg,
                        fingerprints[&c.bench],
                        req.seed,
                        plan,
                    );
                    let (saved, s) = tr.span("dse.save", |_| store.save(key, &outcome));
                    d.save_ms.push(s * 1e3);
                    let (loaded, l) = tr.span("dse.load", |_| store.load(key));
                    d.load_ms.push(l * 1e3);
                    if saved.is_err() || loaded.ok().flatten().as_ref() != Some(&outcome) {
                        d.failed += 1;
                    }
                }
            });
        }
        let _ = std::fs::remove_dir_all(store.dir());
        d
    }

    /// Untraced figures: committed instructions and cells per host second
    /// of the cold requests.
    pub fn end_to_end(&self, r: &mut Report, reps: &[Rep]) {
        let secs: Vec<Vec<f64>> = (0..self.reqs.len())
            .map(|i| reps.iter().map(|x| x.cold_s[i]).collect())
            .collect();
        let insts: u64 = reps[0].cold_insts.iter().sum();
        let (v, note) = best_rate(insts as f64 / 1e6, &secs);
        r.metric("host_mips", v, "MIPS", note);
        let (v, note) = best_rate(reps[0].cells as f64, &secs);
        r.named("sweep_cells_per_s", v, "cells/s", &note);
    }

    /// Traced figures of the DSE service, its store and the pool.
    pub fn layers(&self, r: &mut Report, reps: &[Rep], decs: &[Decomposition]) {
        let cold: Vec<f64> = reps.iter().map(Rep::cold_total).collect();
        r.timing("dse.cold_s", &cold, "s", "cold passes of all requests");
        let warm: Vec<f64> = reps.iter().map(|x| x.warm_s).collect();
        r.timing("dse.warm_s", &warm, "s", "warm reruns of all requests");
        let first = &reps[0];
        let note = format!("{} cells, cold + warm pass", first.cells);
        r.metric("dse.hits", first.warm_hits as f64, "cells", note.clone());
        r.metric("dse.misses", first.cells as f64, "cells", note);
        let insts: u64 = first.cold_insts.iter().sum();
        r.metric("dse.sim_insts", insts as f64, "insts", "cold pass");
        r.metric(
            "dse.store_bytes",
            first.store_bytes as f64,
            "bytes",
            "store after a cold pass",
        );
        let cells: Vec<f64> = decs
            .iter()
            .flat_map(|d| d.cell_secs.iter().map(|s| s * 1e3))
            .collect();
        let tail = percentile(&cells, 95.0);
        let beyond = cells.iter().filter(|&&c| c > tail).count();
        r.metric(
            "core.cell_ms_p50",
            percentile(&cells, 50.0),
            "ms",
            format!("compute_cell, {} cells", cells.len()),
        );
        r.metric(
            "core.cell_ms_p95",
            tail,
            "ms",
            format!("compute_cell, {} cells, {beyond} beyond", cells.len()),
        );
        let save: Vec<f64> = decs.iter().flat_map(|d| d.save_ms.clone()).collect();
        r.metric(
            "dse.save_ms",
            median(&save),
            "ms",
            format!("median of {} saves", save.len()),
        );
        let load: Vec<f64> = decs.iter().flat_map(|d| d.load_ms.clone()).collect();
        r.metric(
            "dse.load_ms",
            median(&load),
            "ms",
            format!("median of {} loads", load.len()),
        );
        let d = &decs[0];
        let busy: f64 = d.cell_secs.iter().sum();
        r.metric("pool.workers", d.workers as f64, "threads", "");
        r.metric(
            "pool.parallel_efficiency",
            busy / (d.workers as f64 * median(&cold)),
            "ratio",
            "sum of cell time / (workers x untraced cold wall)",
        );
        r.metric(
            "pool.idle_s",
            d.workers as f64 * d.batch_s - busy,
            "s",
            "workers x traced batch wall - sum of cell time",
        );
    }
}
