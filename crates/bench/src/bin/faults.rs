//! Fault-injection campaign over the hardened simulation runtime.
//!
//! Exercises every fault class the runtime models — LVC line flips, L1
//! line flips, dropped port grants, delayed port grants, and corrupted
//! fast-forwarded store values — against three representative workloads
//! on the recommended (4+2) decoupled machine with the invariant auditor
//! armed, plus one deliberately wedged run (every port grant revoked)
//! that must fail with a *structured* [`SimError::Deadlock`] carrying a
//! populated diagnostic dump.
//!
//! Two gates guard the campaign:
//!
//! 1. **Containment** — no run may abort the host. Every simulation is
//!    wrapped in `campaign::contained_run`; any panic fails the campaign.
//! 2. **Non-interference** — under [`FaultPlan::none`] the incremental
//!    kernel must stay bit-identical to the rescan reference kernel,
//!    and turning the auditor on must not change any counter. Fault
//!    hooks and audits are pure observation until armed.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p dda-bench --bin faults [-- --quick]
//!     [--budget N] [--out PATH]
//! ```
//!
//! `--quick` restricts the sweep to one seed (the CI smoke mode);
//! `--out` changes the JSON report path (default `BENCH_faults.json`).

use std::fmt::Write as _;
use std::sync::Arc;

use dda_bench::campaign::{contained_run, json_escape};
use dda_core::{FaultPlan, MachineConfig, SimError};
use dda_workloads::Benchmark;

/// One named fault class: a plan template whose `seed` is filled per run.
struct FaultClass {
    name: &'static str,
    plan: FaultPlan,
    /// A wedge class is *expected* to end in a structured error.
    expect_error: bool,
}

fn fault_classes() -> Vec<FaultClass> {
    let none = FaultPlan::none();
    vec![
        FaultClass {
            name: "lvc_flip",
            plan: FaultPlan {
                flip_lvc_line: 0.02,
                ..none
            },
            expect_error: false,
        },
        FaultClass {
            name: "l1_flip",
            plan: FaultPlan {
                flip_l1_line: 0.02,
                ..none
            },
            expect_error: false,
        },
        FaultClass {
            name: "drop_grant",
            plan: FaultPlan {
                drop_port_grant: 0.05,
                ..none
            },
            expect_error: false,
        },
        FaultClass {
            name: "delay_grant",
            plan: FaultPlan {
                delay_port_grant: 0.05,
                delay_cycles: 8,
                ..none
            },
            expect_error: false,
        },
        FaultClass {
            name: "corrupt_forward",
            plan: FaultPlan {
                corrupt_forward: 0.1,
                ..none
            },
            expect_error: false,
        },
        // Every port grant revoked: nothing with a memory access can ever
        // launch, so the pipeline wedges and the watchdog must convert
        // that into a structured Deadlock with a diagnostic dump.
        FaultClass {
            name: "drop_grant_total",
            plan: FaultPlan {
                drop_port_grant: 1.0,
                ..none
            },
            expect_error: true,
        },
    ]
}

fn usage(msg: &str) -> ! {
    eprintln!("{msg}");
    eprintln!("usage: faults [--quick] [--budget N] [--out PATH]");
    std::process::exit(2);
}

fn main() {
    let mut quick = false;
    let mut out_path = String::from("BENCH_faults.json");
    let mut budget: Option<u64> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out_path = args.next().unwrap_or_else(|| usage("--out needs a path")),
            "--budget" => {
                budget = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--budget needs an integer")),
                )
            }
            other => usage(&format!("unknown argument: {other}")),
        }
    }
    let budget = budget.unwrap_or(if quick { 30_000 } else { 100_000 });
    let seeds: &[u64] = if quick { &[1] } else { &[1, 2] };
    let workloads = [Benchmark::Compress, Benchmark::Li, Benchmark::Vortex];

    // Fail on an unwritable report path now, not after the campaign.
    if let Err(e) = std::fs::write(&out_path, "") {
        usage(&format!("cannot write {out_path}: {e}"));
    }

    let classes = fault_classes();
    let mut panics = 0u64;
    let mut unexpected = 0u64;
    let mut total_runs = 0u64;
    let mut total_injected = 0u64;
    let mut total_detected = 0u64;

    let mut json = String::from("{\n");
    let _ = write!(json, "  \"budget\": {budget},\n  \"quick\": {quick},\n");

    // Gate 2 first: with FaultPlan::none the fast kernel must match the
    // reference kernel bit-for-bit, and the auditor must be free.
    json.push_str("  \"baseline\": [\n");
    for (wi, &bench) in workloads.iter().enumerate() {
        let program = Arc::new(bench.program(u32::MAX / 2));
        let plain = MachineConfig::n_plus_m(4, 2).with_optimizations();
        let audited = plain.clone().with_audit(true);
        let mut reference = plain.clone();
        reference.reference_kernel = true;

        let run = |cfg: &MachineConfig| match contained_run(cfg, &program, budget) {
            Ok(res) => *res,
            Err(SimError::WorkerPanic(msg)) => {
                eprintln!("[faults] BASELINE PANICKED: {}: {msg}", bench.name());
                std::process::exit(1);
            }
            Err(e) => {
                eprintln!("[faults] BASELINE FAILED: {} errored: {e}", bench.name());
                std::process::exit(1);
            }
        };
        let a = run(&plain);
        let b = run(&audited);
        let c = run(&reference);
        total_runs += 3;
        assert_eq!(
            a,
            b,
            "{}: enabling the auditor changed the result",
            bench.name()
        );
        assert_eq!(
            a,
            c,
            "{}: fast kernel diverged from reference kernel",
            bench.name()
        );
        assert_eq!(
            a.faults,
            Default::default(),
            "fault counters nonzero without a plan"
        );
        eprintln!(
            "[faults] baseline {}: fast == audited == reference ({} cycles)",
            bench.name(),
            a.cycles
        );
        let _ = write!(
            json,
            "    {{\"name\": \"{}\", \"cycles\": {}, \"committed\": {}, \
             \"audit_identical\": true, \"reference_identical\": true}}{}\n",
            bench.name(),
            a.cycles,
            a.committed,
            if wi + 1 < workloads.len() { "," } else { "" }
        );
    }
    json.push_str("  ],\n  \"campaign\": [\n");

    // Gate 1: the campaign proper. Every class on every workload and
    // seed; every outcome must be Ok-with-stats or a structured error.
    let mut rows: Vec<String> = Vec::new();
    for class in &classes {
        for &bench in &workloads {
            let program = Arc::new(bench.program(u32::MAX / 2));
            for &seed in seeds {
                let plan = FaultPlan { seed, ..class.plan };
                let mut cfg = MachineConfig::n_plus_m(4, 2)
                    .with_optimizations()
                    .with_audit(true)
                    .with_fault_plan(plan);
                if class.expect_error {
                    // Keep the wedged run short: the watchdog only needs
                    // one window with no commit to fire.
                    cfg.deadlock_cycles = 10_000;
                }
                total_runs += 1;
                let mut row = format!(
                    "    {{\"class\": \"{}\", \"workload\": \"{}\", \"seed\": {seed}, ",
                    class.name,
                    bench.name()
                );
                match contained_run(&cfg, &program, budget) {
                    Ok(res) => {
                        let f = res.faults;
                        total_injected += f.injected();
                        total_detected += f.detected();
                        if class.expect_error {
                            eprintln!(
                                "[faults] UNEXPECTED OK: {}/{} seed {seed} should have wedged",
                                class.name,
                                bench.name()
                            );
                            unexpected += 1;
                        }
                        eprintln!(
                            "[faults] {}/{} seed {seed}: survived, {} injected \
                             ({} detected, {} evicted, {} latent)",
                            class.name,
                            bench.name(),
                            f.injected(),
                            f.detected(),
                            f.flips_evicted,
                            f.flips_latent,
                        );
                        let _ = write!(
                            row,
                            "\"outcome\": \"survived\", \"cycles\": {}, \"committed\": {}, \
                             \"injected\": {}, \"detected\": {}, \"evicted\": {}, \
                             \"latent\": {}, \"grants_dropped\": {}, \"grants_delayed\": {}, \
                             \"forwards_corrupted\": {}}}",
                            res.cycles,
                            res.committed,
                            f.injected(),
                            f.detected(),
                            f.flips_evicted,
                            f.flips_latent,
                            f.grants_dropped,
                            f.grants_delayed,
                            f.forwards_corrupted,
                        );
                    }
                    Err(SimError::WorkerPanic(msg)) => {
                        panics += 1;
                        eprintln!(
                            "[faults] HOST PANIC: {}/{} seed {seed}: {msg}",
                            class.name,
                            bench.name()
                        );
                        let _ = write!(
                            row,
                            "\"outcome\": \"host_panic\", \"panic\": \"{}\"}}",
                            json_escape(&msg)
                        );
                    }
                    Err(e) => {
                        if !class.expect_error {
                            eprintln!(
                                "[faults] UNEXPECTED ERROR: {}/{} seed {seed}: {e}",
                                class.name,
                                bench.name()
                            );
                            unexpected += 1;
                        }
                        let (kind, dump_ok) = match &e {
                            SimError::Deadlock(d) => ("deadlock", !d.recent_pcs.is_empty()),
                            SimError::InvariantViolation(_) => ("invariant_violation", true),
                            SimError::Trap(_) => ("trap", true),
                            SimError::Config(_) => ("config", true),
                            SimError::WarmStateMismatch => ("warm_state_mismatch", true),
                            // Handled by the arm above; kept for match
                            // exhaustiveness.
                            SimError::WorkerPanic(_) => ("worker_panic", true),
                        };
                        if class.expect_error {
                            eprintln!(
                                "[faults] {}/{} seed {seed}: structured {kind} as expected",
                                class.name,
                                bench.name()
                            );
                        }
                        let _ = write!(
                            row,
                            "\"outcome\": \"structured_error\", \"error_kind\": \"{kind}\", \
                             \"dump_populated\": {dump_ok}, \"error\": \"{}\"}}",
                            json_escape(&e.to_string())
                        );
                    }
                }
                rows.push(row);
            }
        }
    }
    json.push_str(&rows.join(",\n"));
    json.push('\n');
    let _ = write!(
        json,
        "  ],\n  \"total_runs\": {total_runs},\n  \"total_injected\": {total_injected},\n  \
         \"total_detected\": {total_detected},\n  \"host_panics\": {panics},\n  \
         \"unexpected_outcomes\": {unexpected}\n}}\n"
    );

    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("cannot write {out_path}: {e}");
        print!("{json}");
        std::process::exit(1);
    }
    eprintln!(
        "[faults] {total_runs} runs, {total_injected} faults injected, \
         {total_detected} detected, {panics} host panics -> {out_path}"
    );
    if panics > 0 || unexpected > 0 {
        eprintln!("[faults] campaign FAILED ({panics} panics, {unexpected} unexpected outcomes)");
        std::process::exit(1);
    }
}
