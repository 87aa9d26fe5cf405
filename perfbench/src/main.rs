//! `perfbench` — the simulator's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload detailed|sampled|sweep --seed N --seconds S --trace 0|1 [--quick]
//! ```
//!
//! With `--trace 0` it measures the workload for `S` seconds with tracing
//! off and reports the end-to-end metrics; with `--trace 1` it alternates
//! untraced and traced passes for `S` seconds, reports every per-layer
//! metric and the tracing overhead, and covers the other two workloads'
//! layers with one small traced pass each. Every run also checks the simulator's outputs
//! (see `README.md`). The last line of standard output is one JSON object;
//! the full report, and the spans of a traced run, are written under
//! `perfbench/out/`. The exit code is 0 only when every run and check
//! succeeded.

mod common;
mod detailed;
mod report;
mod sampled;
mod sweep;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use common::{check_kernels, check_real_kernels, peak_rss_mb, repeat, setup_us, Sizes};
use report::{median, Report};
use trace::Tracer;

const USAGE: &str = "usage: perfbench --workload detailed|sampled|sweep --seed N --seconds S \
                     --trace 0|1 [--quick]";

#[derive(Clone, Copy, PartialEq, Debug)]
enum Workload {
    Detailed,
    Sampled,
    Sweep,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Detailed, Workload::Sampled, Workload::Sweep];

    fn name(self) -> &'static str {
        match self {
            Workload::Detailed => "detailed",
            Workload::Sampled => "sampled",
            Workload::Sweep => "sweep",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    quick: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut quick) =
        (None, None, None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} value '{value}'"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = Workload::ALL.into_iter().find(|w| w.name() == value);
                workload = Some(w.ok_or_else(|| format!("unknown workload '{value}'"))?);
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace value '{value}'")),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        quick,
    })
}

/// Runs `f` until `secs` have passed, at least `min` times, and returns
/// each value with its wall time.
fn passes<T>(secs: f64, min: usize, mut f: impl FnMut(usize) -> T) -> (Vec<T>, Vec<f64>) {
    let start = Instant::now();
    let (mut out, mut walls) = (Vec::new(), Vec::new());
    while out.len() < min || start.elapsed().as_secs_f64() < secs {
        let t = Instant::now();
        out.push(f(out.len()));
        walls.push(t.elapsed().as_secs_f64());
    }
    (out, walls)
}

/// Alternates an untraced pass `a` and a traced pass `b` until `secs` have
/// passed, at least `min` pairs, so that drift in host speed reaches both
/// sides of the tracing-overhead comparison alike.
#[allow(clippy::type_complexity)]
fn alternate<A, B>(
    secs: f64,
    min: usize,
    tr: &mut Tracer,
    mut a: impl FnMut(&mut Tracer, usize) -> A,
    mut b: impl FnMut(&mut Tracer) -> B,
) -> ((Vec<A>, Vec<f64>), (Vec<B>, Vec<f64>)) {
    let mut off = Tracer::new(false);
    let (pairs, _) = passes(secs, min, |n| {
        let t = Instant::now();
        let x = a(&mut off, n);
        let untraced = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let y = b(tr);
        (x, untraced, y, t.elapsed().as_secs_f64())
    });
    let mut out = ((Vec::new(), Vec::new()), (Vec::new(), Vec::new()));
    for (x, xs, y, ys) in pairs {
        out.0 .0.push(x);
        out.0 .1.push(xs);
        out.1 .0.push(y);
        out.1 .1.push(ys);
    }
    out
}

/// Where reports, spans and the sweep's temporary stores go: inside the
/// benchmark's own directory.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn overhead_pct(traced: &[f64], untraced: &[f64]) -> f64 {
    (median(traced) / median(untraced) - 1.0) * 100.0
}

fn detailed(
    r: &mut Report,
    tr: &mut Tracer,
    sizes: &Sizes,
    seed: u64,
    secs: f64,
    layers: bool,
) -> f64 {
    let set_up = || detailed::setup(sizes, seed);
    let ((d, gen_s), mut setup) = repeat(sizes.setup_reps, set_up);
    if !layers {
        let mut off = Tracer::new(false);
        let (ps, _) = passes(secs, 1, |_| {
            setup.extend(repeat(sizes.setup_reps, set_up).1);
            d.pass(&mut off)
        });
        ps.iter().for_each(|p| r.runs(p.runs(), p.failed));
        if r.failed > 0 {
            return 0.0;
        }
        d.end_to_end(r, &ps);
        r.timing("setup_s", &setup, "s", "set-ups spread over the run");
        check_kernels(r, &d.cases(), sizes.check_prefix);
        return 0.0;
    }
    r.metric("workloads.gen_s", gen_s, "s", "");
    let ((ps, untraced), (traced_ps, traced)) =
        alternate(secs, 1, tr, |off, _| d.pass(off), |tr| d.pass(tr));
    ps.iter()
        .chain(&traced_ps)
        .for_each(|p| r.runs(p.runs(), p.failed));
    if r.failed > 0 {
        return 0.0;
    }
    d.layers(r, tr, &traced_ps);
    overhead_pct(&traced, &untraced)
}

fn sampled(
    r: &mut Report,
    tr: &mut Tracer,
    sizes: &Sizes,
    seed: u64,
    secs: f64,
    layers: bool,
) -> f64 {
    let set_up = || sampled::setup(sizes, seed);
    let ((s, gen_s), mut setup) = repeat(sizes.setup_reps, set_up);
    let mut off = Tracer::new(false);
    let ((ps, untraced), (decs, traced)) = if layers {
        alternate(secs, 2, tr, |off, _| s.pass(off), |tr| s.decompose(tr))
    } else {
        let untraced = passes(secs, 2, |_| {
            setup.extend(repeat(sizes.setup_reps, set_up).1);
            s.pass(&mut off)
        });
        (untraced, (Vec::new(), Vec::new()))
    };
    ps.iter()
        .for_each(|p| r.runs(p.runs.len() as u64 + p.failed, p.failed));
    decs.iter().for_each(|d| r.runs(1, u64::from(d.failed > 0)));
    if r.failed > 0 {
        return 0.0;
    }
    s.check(r, &ps[0], &ps[1], decs.first());
    let Some(reference) = s.reference_cpi() else {
        r.check(
            "sampling.reference_run",
            false,
            "a full detailed reference run failed",
        );
        return 0.0;
    };
    if !layers {
        s.end_to_end(r, &ps, &reference);
        r.timing("setup_s", &setup, "s", "set-ups spread over the run");
        check_kernels(r, &s.cases(), sizes.check_prefix);
        return 0.0;
    }
    r.metric("workloads.gen_s", gen_s, "s", "");
    s.layers(r, tr, &ps, &decs, &reference);
    overhead_pct(&traced, &untraced)
}

fn sweep(
    r: &mut Report,
    tr: &mut Tracer,
    sizes: &Sizes,
    seed: u64,
    secs: f64,
    layers: bool,
) -> f64 {
    let root = out_dir();
    let set_up = || sweep::setup(sizes, seed, &root);
    let ((s, gen_s), mut setup) = repeat(sizes.setup_reps, set_up);
    let ((reps, _), (decs, traced)) = if layers {
        alternate(secs, 1, tr, |_, n| s.rep(n), |tr| s.decompose(tr))
    } else {
        let untraced = passes(secs, 1, |n| {
            setup.extend(repeat(sizes.setup_reps, set_up).1);
            s.rep(n)
        });
        (untraced, (Vec::new(), Vec::new()))
    };
    for rep in &reps {
        r.runs(rep.cells as u64, rep.errors as u64);
    }
    decs.iter()
        .for_each(|d| r.runs(d.cell_secs.len() as u64 + d.failed, d.failed));
    if r.failed > 0 {
        return 0.0;
    }
    r.check(
        "dse.warm_eq_cold",
        reps.iter().all(|x| x.warm_eq_cold),
        format!(
            "{} cold/warm pairs of {} cells: warm all hits, 0 instructions, identical outcomes",
            reps.len(),
            s.cells()
        ),
    );
    if !layers {
        s.end_to_end(r, &reps);
        r.timing("setup_s", &setup, "s", "set-ups spread over the run");
        check_kernels(r, &s.cases(), sizes.check_prefix);
        return 0.0;
    }
    r.metric("workloads.gen_s", gen_s, "s", "");
    s.layers(r, &reps, &decs);
    let untraced: Vec<f64> = reps.iter().map(sweep::Rep::cold_total).collect();
    overhead_pct(&traced, &untraced)
}

fn run(
    w: Workload,
    r: &mut Report,
    tr: &mut Tracer,
    sizes: &Sizes,
    seed: u64,
    secs: f64,
    layers: bool,
) -> f64 {
    match w {
        Workload::Detailed => detailed(r, tr, sizes, seed, secs, layers),
        Workload::Sampled => sampled(r, tr, sizes, seed, secs, layers),
        Workload::Sweep => sweep(r, tr, sizes, seed, secs, layers),
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let sizes = if args.quick {
        Sizes::QUICK
    } else {
        Sizes::FULL
    };
    let dir = out_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let mut r = Report::new(args.workload.name(), args.seed, args.trace, args.seconds);
    let mut tr = Tracer::new(args.trace);
    let secs = args.seconds as f64;
    let overhead = run(
        args.workload,
        &mut r,
        &mut tr,
        &sizes,
        args.seed,
        secs,
        args.trace,
    );
    if args.trace {
        r.metric(
            "bench.trace_overhead_pct",
            overhead,
            "%",
            "median traced pass vs median untraced pass",
        );
        // The layers this workload bypasses, from one small traced pass of
        // each other workload, so every per-layer metric is measured.
        for other in Workload::ALL.into_iter().filter(|&w| w != args.workload) {
            let mut sub = Report::new(other.name(), args.seed, true, 0);
            run(
                other,
                &mut sub,
                &mut tr,
                &Sizes::QUICK,
                args.seed,
                0.0,
                true,
            );
            r.absorb(sub);
        }
        let progs = common::programs();
        r.metric(
            "core.setup_us",
            setup_us(&progs, 20),
            "us",
            "median of 1-instruction run_shared on (4+2)",
        );
    }
    check_real_kernels(&mut r);
    if !args.trace {
        r.named("peak_rss_mb", peak_rss_mb(), "MB", "VmHWM of the whole run");
    }
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    let _ = std::fs::write(dir.join(format!("report-{stem}.json")), r.to_json());
    if args.trace {
        let _ = std::fs::write(dir.join(format!("spans-{stem}.json")), tr.to_json());
    }
    print!("{}", r.text());
    println!("{}", r.json_line());
    if r.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
