//! Cache-correctness gates for the memoized DSE service.
//!
//! The result cache is only sound if a hit is indistinguishable from a
//! fresh simulation — every counter, the fault-RNG draw order included —
//! and if the key honestly covers every result-affecting input. These
//! tests enforce both over randomized config matrices, plus the failure
//! path: a corrupted store record must degrade to a miss (recompute and
//! re-save), never to a wrong answer, and the mixed path: one call whose
//! hits and misses interleave returns every outcome at its own cell.

use std::path::PathBuf;
use std::sync::Arc;

use dda::core::{FaultPlan, MachineConfig};
use dda::stats::Rng;
use dda::workloads::Benchmark;
use dda_bench::dse::{DEFAULT_SEED, KERNEL_VERSION};
use dda_bench::{
    compute_cell, result_key, CellOutcome, CellStatus, CheckpointStore, DseCell, DseService,
    DseSummary, ResultStore, RunPlan, SamplingConfig,
};

fn temp_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("dda-dsecache-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// A small randomized config matrix: port grids, decoupling knobs, and
/// one active fault plan (the fault-RNG draw order is part of
/// measurement identity and must survive the cache byte-for-byte).
fn randomized_cells(rng: &mut Rng) -> Vec<DseCell> {
    let benches = [Benchmark::Compress, Benchmark::Li, Benchmark::Vortex];
    let mut cells = Vec::new();
    for i in 0..5 {
        let bench = benches[rng.gen_range(0..benches.len())];
        let n = [1u32, 2, 4][rng.gen_range(0..3usize)];
        let m = [0u32, 1, 2, 4][rng.gen_range(0..4usize)];
        let mut cfg = MachineConfig::n_plus_m(n, m);
        if m > 0 {
            cfg = cfg
                .with_combining(rng.gen_range(1..4u32))
                .with_fast_forwarding(rng.gen_bool(0.5));
        }
        cells.push(DseCell {
            bench,
            cfg,
            label: format!("rand{i}/{n}+{m}"),
        });
    }
    // One faulting point: cached FaultStats must equal a fresh run's.
    cells.push(faulty_cell());
    cells
}

/// A point with an active fault plan, whose fault-RNG draw order must
/// survive the cache.
fn faulty_cell() -> DseCell {
    DseCell {
        bench: Benchmark::Li,
        cfg: MachineConfig::n_plus_m(4, 2)
            .with_optimizations()
            .with_fault_plan(FaultPlan {
                seed: 0xDDA,
                flip_lvc_line: 0.01,
                flip_l1_line: 0.01,
                drop_port_grant: 0.02,
                ..FaultPlan::none()
            }),
        label: "faulty/4+2".into(),
    }
}

fn collect(
    svc: &DseService,
    cells: &[DseCell],
    plan: &RunPlan,
) -> Vec<(usize, CellStatus, Option<CellOutcome>, u64)> {
    let (reports, _) = svc.run_cells(cells, DEFAULT_SEED, plan);
    reports
        .into_iter()
        .map(|r| (r.index, r.status, r.outcome, r.sim_insts))
        .collect()
}

#[test]
fn cached_results_are_bit_identical_to_fresh_simulation() {
    let dir = temp_dir("diff");
    let svc = DseService::new(ResultStore::open(&dir).expect("store opens"), None);
    let mut rng = Rng::seed_from_u64(0xD5E_CACE);
    let cells = randomized_cells(&mut rng);
    let plan = RunPlan::Full { budget: 5_000 };

    let cold = collect(&svc, &cells, &plan);
    let warm = collect(&svc, &cells, &plan);
    assert!(cold.iter().all(|(_, s, ..)| *s == CellStatus::Miss));
    assert!(warm.iter().all(|(_, s, ..)| *s == CellStatus::Hit));
    assert!(warm.iter().all(|(.., insts)| *insts == 0));

    for (i, cell) in cells.iter().enumerate() {
        let program = Arc::new(cell.bench.program(DEFAULT_SEED));
        let (fresh, _) = compute_cell(&cell.cfg, program, &plan, None).expect("fresh run succeeds");
        // Miss, hit, and an independent fresh computation all agree on
        // every byte of the outcome (fault counters included for the
        // faulty cell — RNG draw order survives the cache).
        assert_eq!(cold[i].2.as_ref(), Some(&fresh), "{} (cold)", cell.label);
        assert_eq!(warm[i].2.as_ref(), Some(&fresh), "{} (warm)", cell.label);
        if cell.label.starts_with("faulty") {
            match &fresh {
                CellOutcome::Full(r) => assert!(
                    r.faults.l1_flips_injected + r.faults.grants_dropped > 0,
                    "fault plan injected nothing — the RNG-order check is vacuous"
                ),
                CellOutcome::Sampled(_) => unreachable!("full plan"),
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn mixed_hits_and_misses_line_up_in_cell_order() {
    // One call where stored and computed results interleave: the engine
    // must put each outcome back at its own cell.
    let dir = temp_dir("mixed");
    let svc = DseService::new(ResultStore::open(&dir).expect("store opens"), None);
    let plan = RunPlan::Full { budget: 5_000 };
    let cell = |bench, cfg, label: &str| DseCell {
        bench,
        cfg,
        label: label.into(),
    };
    let cells = vec![
        cell(
            Benchmark::Compress,
            MachineConfig::n_plus_m(2, 0),
            "compress/2+0",
        ),
        cell(Benchmark::Li, MachineConfig::n_plus_m(2, 0), "li/2+0"),
        cell(
            Benchmark::Compress,
            MachineConfig::n_plus_m(4, 2).with_optimizations(),
            "compress/4+2",
        ),
        cell(
            Benchmark::Vortex,
            MachineConfig::n_plus_m(2, 2),
            "vortex/2+2",
        ),
        cell(
            Benchmark::Li,
            MachineConfig::n_plus_m(4, 2)
                .with_combining(1)
                .with_fast_forwarding(false),
            "li/4+2/c1/f0",
        ),
        faulty_cell(),
        cell(
            Benchmark::Compress,
            MachineConfig::n_plus_m(3, 1),
            "compress/3+1",
        ),
    ];
    // Non-adjacent hits, the faulty cell among them.
    let stored = [0usize, 2, 5];
    let subset: Vec<DseCell> = stored.iter().map(|&i| cells[i].clone()).collect();
    let (_, pre) = svc.run_cells(&subset, DEFAULT_SEED, &plan);
    assert_eq!(
        pre.misses,
        stored.len(),
        "pre-population simulated each cell"
    );

    let (reports, summary) = svc.run_cells(&cells, DEFAULT_SEED, &plan);
    assert_eq!(reports.len(), cells.len());
    let mut miss_insts = 0;
    for (i, (rep, cell)) in reports.iter().zip(&cells).enumerate() {
        assert_eq!(rep.index, i);
        assert_eq!(rep.label, cell.label);
        let program = Arc::new(cell.bench.program(DEFAULT_SEED));
        let key = result_key(
            KERNEL_VERSION,
            &cell.cfg,
            dda_bench::program_fingerprint(&program),
            DEFAULT_SEED,
            &plan,
        );
        assert_eq!(rep.key, key, "{}", cell.label);
        let (fresh, insts) =
            compute_cell(&cell.cfg, program, &plan, None).expect("fresh run succeeds");
        assert_eq!(rep.outcome.as_ref(), Some(&fresh), "{}", cell.label);
        if stored.contains(&i) {
            assert_eq!(rep.status, CellStatus::Hit, "{}", cell.label);
            assert_eq!(rep.sim_insts, 0, "{}", cell.label);
        } else {
            assert_eq!(rep.status, CellStatus::Miss, "{}", cell.label);
            assert_eq!(rep.sim_insts, insts, "{}", cell.label);
            miss_insts += insts;
        }
    }
    assert_eq!(
        summary,
        DseSummary {
            cells: cells.len(),
            hits: stored.len(),
            misses: cells.len() - stored.len(),
            errors: 0,
            sim_insts: miss_insts,
            host_secs: summary.host_secs,
        }
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn key_invalidation_matrix() {
    let dir = temp_dir("keys");
    let store = ResultStore::open(&dir).expect("store opens");
    let svc = DseService::new(store.clone(), None);
    let cell = DseCell {
        bench: Benchmark::Compress,
        cfg: MachineConfig::n_plus_m(4, 2).with_optimizations(),
        label: "base".into(),
    };
    let plan = RunPlan::Full { budget: 3_000 };
    let cells = std::slice::from_ref(&cell);

    // Cold miss, then a no-op rerun hits.
    let first = collect(&svc, cells, &plan);
    assert_eq!(first[0].1, CellStatus::Miss);
    let rerun = collect(&svc, cells, &plan);
    assert_eq!(rerun[0].1, CellStatus::Hit, "no-op rerun must hit");

    // A kernel-version bump invalidates silently (same store!).
    let bumped = DseService::new(store.clone(), None).with_kernel_version(KERNEL_VERSION + 1);
    let r = collect(&bumped, cells, &plan);
    assert_eq!(r[0].1, CellStatus::Miss, "kernel bump must miss");

    // A result-affecting config change misses.
    let changed = DseCell {
        cfg: cell.cfg.clone().with_combining(3),
        ..cell.clone()
    };
    let r = collect(&svc, std::slice::from_ref(&changed), &plan);
    assert_eq!(r[0].1, CellStatus::Miss, "config change must miss");

    // A seed (workload-scale) change misses.
    let (out, _) = svc.run_cells(cells, DEFAULT_SEED - 1, &plan);
    assert_eq!(out[0].status, CellStatus::Miss, "seed change must miss");

    // A plan change misses.
    let r = collect(&svc, cells, &RunPlan::Full { budget: 3_001 });
    assert_eq!(r[0].1, CellStatus::Miss, "budget change must miss");

    // ...while result-neutral flags still hit: the audited config maps
    // to the same key.
    let audited = DseCell {
        cfg: cell.cfg.clone().with_audit(true),
        ..cell.clone()
    };
    let r = collect(&svc, std::slice::from_ref(&audited), &plan);
    assert_eq!(r[0].1, CellStatus::Hit, "audit flag must not key");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_records_degrade_to_fresh_simulation() {
    let dir = temp_dir("corrupt");
    let store = ResultStore::open(&dir).expect("store opens");
    let svc = DseService::new(store.clone(), None);
    let cell = DseCell {
        bench: Benchmark::Compress,
        cfg: MachineConfig::n_plus_m(2, 2),
        label: "victim".into(),
    };
    let plan = RunPlan::Full { budget: 3_000 };
    let cells = std::slice::from_ref(&cell);
    let cold = collect(&svc, cells, &plan);
    let good = cold[0].2.clone().expect("outcome present");

    // Truncate the stored record and also plant pure garbage.
    let program = Arc::new(cell.bench.program(DEFAULT_SEED));
    let key = result_key(
        KERNEL_VERSION,
        &cell.cfg,
        dda_bench::program_fingerprint(&program),
        DEFAULT_SEED,
        &plan,
    );
    let path = store.path_for(key);
    assert!(path.exists(), "cold pass persisted the record");
    std::fs::write(&path, b"not a result record").expect("corruption writes");
    assert!(
        store.load(key).is_err(),
        "corrupt record surfaces as InvalidData, not as a value"
    );

    // The engine recomputes (miss), answers correctly, and re-saves.
    let after = collect(&svc, cells, &plan);
    assert_eq!(after[0].1, CellStatus::Miss, "corrupt record must miss");
    assert_eq!(after[0].2.as_ref(), Some(&good));
    let healed = store
        .load(key)
        .expect("store readable")
        .expect("record present");
    assert_eq!(healed, good, "good bytes overwrote the corruption");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shared_checkpoints_do_not_perturb_sampled_measurements() {
    // Satellite (a): DSE workers share one CheckpointStore of
    // fast-forward positions; measurement identity vs the unshared path
    // is the acceptance bar.
    let ckpt_dir = temp_dir("ckpt");
    let res_a = temp_dir("res-a");
    let res_b = temp_dir("res-b");
    let plan = RunPlan::Sampled(SamplingConfig {
        windows: 3,
        window_insts: 800,
        warmup_insts: 400,
        budget: 24_000,
        ..SamplingConfig::for_budget(24_000)
    });
    let cells: Vec<DseCell> = [(2u32, 2u32), (4, 2)]
        .iter()
        .map(|&(n, m)| DseCell {
            bench: Benchmark::Li,
            cfg: MachineConfig::n_plus_m(n, m).with_optimizations(),
            label: format!("li/{n}+{m}"),
        })
        .collect();

    let shared = DseService::new(
        ResultStore::open(&res_a).expect("store opens"),
        Some(CheckpointStore::open(&ckpt_dir).expect("ckpt store opens")),
    );
    let unshared = DseService::new(ResultStore::open(&res_b).expect("store opens"), None);
    let with_ckpt = collect(&shared, &cells, &plan);
    let without = collect(&unshared, &cells, &plan);
    let ckpts = CheckpointStore::open(&ckpt_dir).expect("ckpt store reopens");
    assert!(
        !ckpts.is_empty().expect("ckpt dir readable"),
        "the shared store actually captured fast-forward positions"
    );
    for ((_, _, a, _), (_, _, b, _)) in with_ckpt.iter().zip(&without) {
        assert_eq!(a, b, "checkpoint sharing changed a measurement");
    }
    // And a rerun with the now-warm checkpoint store still matches.
    let rerun_store = temp_dir("res-c");
    let warm_ckpts = DseService::new(
        ResultStore::open(&rerun_store).expect("store opens"),
        Some(CheckpointStore::open(&ckpt_dir).expect("ckpt store opens")),
    );
    let warm = collect(&warm_ckpts, &cells, &plan);
    for ((_, _, a, _), (_, _, b, _)) in warm.iter().zip(&without) {
        assert_eq!(a, b, "warm checkpoint store changed a measurement");
    }
    for d in [ckpt_dir, res_a, res_b, rerun_store] {
        let _ = std::fs::remove_dir_all(&d);
    }
}
