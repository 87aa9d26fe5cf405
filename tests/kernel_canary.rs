//! Kernel canary: pins digests of a few simulation results next to the
//! `KERNEL_VERSION` they were produced under.
//!
//! The DSE result store keys every cached cell on `KERNEL_VERSION`, so a
//! simulator change that moves any counter without bumping the version
//! would let the store serve stale results. This test fails on exactly
//! that: a digest moved while the version did not. A change that is
//! meant to alter results bumps `KERNEL_VERSION` and re-pins the digests
//! below; a change that claims to be result-neutral (a host-speed
//! optimization) must leave both untouched.

use std::sync::Arc;

use dda::core::{MachineConfig, Simulator};
use dda::stats::fnv1a64;
use dda::workloads::Benchmark;
use dda_bench::dse::KERNEL_VERSION;
use dda_bench::sampling::{sample_program, SamplingConfig};

/// The kernel version the digests below were recorded at.
const PINNED_KERNEL_VERSION: u32 = 1;

/// Committed-instruction budget of each pinned full run.
const BUDGET: u64 = 20_000;

/// `fnv1a64(SimResult::to_bytes())` per (program, machine).
const RESULT_DIGESTS: [(Benchmark, &str, u64); 4] = [
    (Benchmark::Compress, "2+0", 0x5700_8318_d564_7e38),
    (Benchmark::Compress, "4+2 opt", 0x950d_6361_f88e_2370),
    (Benchmark::Li, "2+0", 0xddfe_f551_5ec7_7a74),
    (Benchmark::Li, "4+2 opt", 0xd934_d2b6_15d9_74d2),
];

/// `fnv1a64` over the per-window `(start_inst, cycles, committed)` of
/// [`sampling_digest`].
const SAMPLING_DIGEST: u64 = 0x088b_28d9_6a48_1fdf;

fn machine(name: &str) -> MachineConfig {
    match name {
        "2+0" => MachineConfig::n_plus_m(2, 0),
        "4+2 opt" => MachineConfig::n_plus_m(4, 2).with_optimizations(),
        _ => unreachable!("unknown machine {name}"),
    }
}

fn result_digest(bench: Benchmark, name: &str) -> u64 {
    let program = bench.program(u32::MAX / 2);
    let result = Simulator::new(machine(name))
        .unwrap()
        .run(&program, BUDGET)
        .expect("benchmark executes cleanly");
    fnv1a64(&result.to_bytes())
}

/// A small sampled run: functional fast-forward with cache warming
/// between four short detailed windows.
fn sampling_digest() -> u64 {
    let scfg = SamplingConfig {
        windows: 4,
        window_insts: 1_000,
        warmup_insts: 500,
        ..SamplingConfig::for_budget(120_000)
    };
    let program = Arc::new(Benchmark::Li.program(u32::MAX / 2));
    let run = sample_program(&machine("4+2 opt"), program, &scfg).expect("sampled run");
    assert_eq!(run.windows.len(), 4, "every window is measured");
    let mut bytes = Vec::new();
    for w in &run.windows {
        bytes.extend_from_slice(&w.start_inst.to_le_bytes());
        bytes.extend_from_slice(&w.cycles.to_le_bytes());
        bytes.extend_from_slice(&w.committed.to_le_bytes());
    }
    fnv1a64(&bytes)
}

#[test]
fn digests_are_pinned_to_the_kernel_version() {
    let mut moved = Vec::new();
    for (bench, name, pinned) in RESULT_DIGESTS {
        let got = result_digest(bench, name);
        if got != pinned {
            moved.push(format!(
                "{bench} ({name}): {got:#018x}, pinned {pinned:#018x}"
            ));
        }
    }
    let got = sampling_digest();
    if got != SAMPLING_DIGEST {
        moved.push(format!(
            "sampled li windows: {got:#018x}, pinned {SAMPLING_DIGEST:#018x}"
        ));
    }
    if KERNEL_VERSION == PINNED_KERNEL_VERSION {
        assert!(
            moved.is_empty(),
            "simulation results changed without a KERNEL_VERSION bump; either \
             restore bit-identity or bump KERNEL_VERSION and re-pin:\n{}",
            moved.join("\n")
        );
    } else {
        panic!(
            "KERNEL_VERSION is {KERNEL_VERSION} but the canary is pinned at \
             {PINNED_KERNEL_VERSION}; re-pin PINNED_KERNEL_VERSION and the digests:\n{}",
            moved.join("\n")
        );
    }
}
