//! Metric collection, repetition statistics and the printed report.

use std::fmt::Write as _;

/// Median and quartiles of repeated measurements, computed like Python's
/// `statistics.quantiles(xs, n=4)` (the "exclusive" method).
#[derive(Clone, Copy, Debug)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    pub fn of(xs: &[f64]) -> Quartiles {
        let mut v = xs.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        assert!(n > 0, "no samples");
        if n == 1 {
            return Quartiles {
                q1: v[0],
                median: v[0],
                q3: v[0],
                n,
            };
        }
        // Position i * (n + 1) / 4, 1-based, linearly interpolated and
        // clamped to the data.
        let at = |i: usize| {
            let pos = (i * (n + 1)) as f64 / 4.0;
            let lo = (pos.floor() as usize).clamp(1, n);
            let hi = (lo + 1).min(n);
            let frac = (pos - lo as f64).clamp(0.0, 1.0);
            v[lo - 1] + (v[hi - 1] - v[lo - 1]) * frac
        };
        Quartiles {
            q1: at(1),
            median: at(2),
            q3: at(3),
            n,
        }
    }
}

/// The `p`-th percentile (nearest rank) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of `xs`.
pub fn median(xs: &[f64]) -> f64 {
    Quartiles::of(xs).median
}

/// A throughput over repeated passes of the same work: `work` is what one
/// pass does and `secs[u][p]` the host time of its unit `u` in pass `p`.
/// The value is `work` over the sum of every unit's fastest repetition —
/// on a host whose co-tenants slow it in bursts, the per-unit minimum
/// over many repetitions tracks the simulator's own speed, where a median
/// moves with the contended share of each run. The note gives the
/// per-pass rate's median and quartiles.
pub fn best_rate(work: f64, secs: &[Vec<f64>]) -> (f64, String) {
    let fastest: f64 = secs
        .iter()
        .map(|reps| reps.iter().copied().fold(f64::INFINITY, f64::min))
        .sum();
    let passes = secs.first().map_or(0, Vec::len);
    let per_pass: Vec<f64> = (0..passes)
        .map(|p| work / secs.iter().map(|reps| reps[p]).sum::<f64>())
        .collect();
    let q = Quartiles::of(&per_pass);
    let note = format!(
        "fastest of {} repetitions of each of {} units; per pass median {} (q1 {}, q3 {})",
        passes,
        secs.len(),
        fmt_value(q.median),
        fmt_value(q.q1),
        fmt_value(q.q3)
    );
    (work / fastest, note)
}

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How the value was derived from repetitions, for the text report.
    pub note: String,
}

/// A correctness check and its outcome.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

/// Everything one benchmark invocation measured and checked.
pub struct Report {
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    pub seconds: u64,
    pub nproc: usize,
    /// Metrics the final JSON line carries (end-to-end with tracing off,
    /// per-layer with tracing on).
    pub metrics: Vec<Metric>,
    /// Further end-to-end figures of this workload, printed by name.
    pub named: Vec<Metric>,
    pub checks: Vec<Check>,
    /// Simulation runs, cells and checks attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
}

impl Report {
    pub fn new(workload: &str, seed: u64, trace: bool, seconds: u64) -> Report {
        Report {
            workload: workload.to_string(),
            seed,
            trace,
            seconds,
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            metrics: Vec::new(),
            named: Vec::new(),
            checks: Vec::new(),
            attempted: 0,
            failed: 0,
        }
    }

    /// Adds a metric to the final JSON line.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// Adds a timing summarised over repetitions to the final JSON line.
    pub fn timing(&mut self, name: &str, xs: &[f64], unit: &'static str, what: &str) {
        let q = Quartiles::of(xs);
        self.metric(name, q.median, unit, describe(&q, what));
    }

    /// Adds an end-to-end figure of this workload that the final line does
    /// not carry.
    pub fn named(&mut self, name: &str, value: f64, unit: &'static str, note: &str) {
        self.named.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.to_string(),
        });
    }

    /// Counts `attempted` runs of which `failed` failed.
    pub fn runs(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Records a correctness check.
    pub fn check(&mut self, name: &str, ok: bool, detail: impl Into<String>) {
        self.runs(1, u64::from(!ok));
        self.checks.push(Check {
            name: name.to_string(),
            ok,
            detail: detail.into(),
        });
    }

    /// Takes over the layer metrics, checks and counts of a small pass
    /// over another workload; its program-generation time is this run's
    /// own and is not taken.
    pub fn absorb(&mut self, sub: Report) {
        self.attempted += sub.attempted;
        self.failed += sub.failed;
        for mut c in sub.checks {
            c.name = format!("{}.{}", sub.workload, c.name);
            self.checks.push(c);
        }
        for mut m in sub.metrics {
            if m.name != "workloads.gen_s" {
                m.note = format!("{} (quick {} pass)", m.note, sub.workload);
                self.metrics.push(m);
            }
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|c| c.ok)
    }

    /// The human-readable lines printed before the final JSON line.
    pub fn text(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "perfbench workload={} seed={} seconds={} trace={} nproc={}",
            self.workload,
            self.seed,
            self.seconds,
            u8::from(self.trace),
            self.nproc
        );
        for c in &self.checks {
            let verdict = if c.ok { "ok" } else { "FAILED" };
            let _ = writeln!(s, "check {:<34} {verdict:<6} {}", c.name, c.detail);
        }
        for m in self.named.iter().chain(&self.metrics) {
            let _ = writeln!(
                s,
                "metric {:<34} {:>14} {:<6} {}",
                m.name,
                fmt_value(m.value),
                m.unit,
                m.note
            );
        }
        let _ = writeln!(
            s,
            "metric {:<34} {:>14} {:<6} {} failed of {} attempted",
            "failed_frac",
            fmt_value(self.failed_frac()),
            "ratio",
            self.failed,
            self.attempted
        );
        s
    }

    /// The final JSON line.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The full report (every metric with its unit and note, every check,
    /// the host's CPU count and the seed) as a JSON document.
    pub fn to_json(&self) -> String {
        let row = |m: &Metric| {
            format!(
                "    {{\"name\": \"{}\", \"value\": {}, \"unit\": \"{}\", \"note\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit,
                json_escape(&m.note)
            )
        };
        let checks: Vec<String> = self
            .checks
            .iter()
            .map(|c| {
                format!(
                    "    {{\"name\": \"{}\", \"ok\": {}, \"detail\": \"{}\"}}",
                    c.name,
                    c.ok,
                    json_escape(&c.detail)
                )
            })
            .collect();
        format!(
            "{{\n  \"workload\": \"{}\",\n  \"seed\": {},\n  \"seconds\": {},\n  \"trace\": {},\n  \
             \"nproc\": {},\n  \"attempted\": {},\n  \"failed\": {},\n  \"failed_frac\": {},\n  \
             \"correct\": {},\n  \"metrics\": [\n{}\n  ],\n  \"named\": [\n{}\n  ],\n  \
             \"checks\": [\n{}\n  ]\n}}\n",
            self.workload,
            self.seed,
            self.seconds,
            self.trace,
            self.nproc,
            self.attempted,
            self.failed,
            json_number(self.failed_frac()),
            self.correct(),
            self.metrics.iter().map(row).collect::<Vec<_>>().join(",\n"),
            self.named.iter().map(row).collect::<Vec<_>>().join(",\n"),
            checks.join(",\n")
        )
    }
}

fn describe(q: &Quartiles, what: &str) -> String {
    format!(
        "median of {} {what} (q1 {}, q3 {})",
        q.n,
        fmt_value(q.q1),
        fmt_value(q.q3)
    )
}

fn fmt_value(v: f64) -> String {
    if v != 0.0 && (v.abs() >= 1e6 || v.abs() < 1e-3) {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// `s` as the inside of a JSON string: notes and check details may quote
/// simulator error messages.
fn json_escape(s: &str) -> String {
    s.chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            '\n' => vec!['\\', 'n'],
            c => vec![c],
        })
        .collect()
}

/// Every digit of `v`; JSON has no NaN or infinity, so those become null.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}
