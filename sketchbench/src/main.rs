//! The spatial-sketch benchmark: one command runs a named workload for a
//! fixed time with a seed, checks the answers, and prints every metric by
//! name with its unit. The last line of standard output is one JSON object
//! (`correct`, `attempted`, `failed`, `metrics`); the lines before it, each
//! starting with `#`, are diagnostics.
//!
//! ```text
//! sketchbench --workload <join_stream|wire_hot|ingest_churn> --seed <n>
//!             --seconds <s> --trace <0|1> [--spans <path>] [--out <path>]
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` records spans
//! around every call into a layer and reports the per-layer metrics
//! instead. `--spans` writes the recorded spans as JSON lines, `--out`
//! writes the result object to a file as well as to standard output.

mod checks;
mod ingest_churn;
mod join_stream;
mod load;
mod stats;
mod trace;
mod wire_hot;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Mutex;
use std::time::Instant;

/// The end-to-end metrics every workload reports: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("snapshot_kb", "KiB"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
];

/// The per-layer metrics of a traced run: `(name, unit)`. A workload that
/// does not exercise a layer reports 0 for it and names it in a
/// diagnostic line.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("datagen.gen_ms", "ms"),
    ("exact.truth_ms", "ms"),
    ("dyadic.cover_nodes_per_obj", "count"),
    ("sketch.atomic.update_ns_per_obj_inst", "ns"),
    ("sketch.estimators.join_us", "us"),
    ("sketch.query.range_warm_us", "us"),
    ("sketch.query.range_cold_us", "us"),
    ("sketch.query.batch_us_per_query", "us"),
    ("sketch.query.plan_hit_ratio", "ratio"),
    ("sketch.persist.snapshot_ms", "ms"),
    ("serve.router.route_us", "us"),
    ("serve.router.remerge_us", "us"),
    ("serve.net.answer_us", "us"),
    ("serve.net.codec_us", "us"),
    ("serve.net.overhead_us", "us"),
    ("serve.net.queries_per_sweep", "count"),
    ("serve.net.cpu_us_per_query", "us"),
    ("serve.net.shed", "count"),
    ("serve.store.epochs", "count"),
    ("serve.store.ingest_ms_per_batch", "ms"),
    ("serve.store.overhead_ms_per_batch", "ms"),
    ("serve.rebalance.split_ms", "ms"),
    ("serve.rebalance.merge_ms", "ms"),
    ("serve.rebalance.topology_pause_ms", "ms"),
    ("bench.query_p99_us", "us"),
    ("bench.loadgen_late_us_p99", "us"),
    ("bench.trace_overhead_pct", "%"),
];

/// What a workload run needs from the command line, plus the shared
/// tracer and calibration series.
pub struct Ctx {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Span recorder (records nothing unless `--trace 1`).
    pub tracer: trace::Tracer,
    /// Process start, for `setup_s` and calibration stamps.
    pub origin: Instant,
    /// Calibration-loop samples taken through the run.
    pub calibration: Mutex<stats::Calibration>,
}

impl Ctx {
    /// Times one calibration loop now.
    pub fn calibrate(&self) {
        self.calibration
            .lock()
            .expect("calibration poisoned")
            .sample(self.origin);
    }

    /// Derives an independent seed for one component of the workload.
    pub fn seed_for(&self, label: &str) -> u64 {
        datagen::rng::derive_seed(self.seed, label)
    }
}

/// Operations attempted and failed in one phase of a run.
#[derive(Debug, Default, Clone)]
pub struct Phase {
    /// Phase name.
    pub name: &'static str,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed (non-estimate reply, shed, store or estimate
    /// error).
    pub failed: u64,
}

/// A workload's result: verdict, failure accounting, metrics and notes.
#[derive(Debug, Default)]
pub struct Report {
    /// Correctness failures (wrong answers); empty when every check passed.
    pub errors: Vec<String>,
    /// Per-phase operation counts.
    pub phases: Vec<Phase>,
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Diagnostic lines.
    pub notes: Vec<String>,
}

impl Report {
    /// Records a check's outcome.
    pub fn check(&mut self, outcome: Result<(), String>) {
        if let Err(e) = outcome {
            if self.errors.len() < 20 {
                self.errors.push(e);
            }
        }
    }

    /// Adds a diagnostic line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<PathBuf>,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: sketchbench --workload <join_stream|wire_hot|ingest_churn> \
--seed <n> --seconds <s> --trace <0|1> [--spans <path>] [--out <path>]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut spans = None;
    let mut out = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--spans" => spans = Some(PathBuf::from(value()?)),
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        spans,
        out,
    })
}

/// The result object's metric entries, one per name in `list`. Every
/// reported metric must come from data: a value computed from an empty
/// series is NaN (see `stats::quantile`) and is an error, as is a missing
/// end-to-end metric; a layer the workload does not exercise reports 0.
fn metric_entries(
    list: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
    traced: bool,
    errors: &mut Vec<String>,
) -> Vec<String> {
    list.iter()
        .map(|(name, unit)| {
            let v = match values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(_) => {
                    errors.push(format!("metric {name} has no finite value"));
                    0.0
                }
                None if traced => 0.0,
                None => {
                    errors.push(format!("metric {name} was not measured"));
                    0.0
                }
            };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect()
}

/// Runs `run` once and returns its report with `peak_rss_mb` added and
/// the context (for its calibration series).
fn measure(run: fn(&Ctx) -> Report, ctx: Ctx) -> (Report, Ctx) {
    ctx.calibrate();
    let mut report = run(&ctx);
    ctx.calibrate();
    report.e2e.insert("peak_rss_mb", stats::peak_rss_mb());
    (report, ctx)
}

fn main() -> ExitCode {
    let origin = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let run: fn(&Ctx) -> Report = match args.workload.as_str() {
        "join_stream" => join_stream::run,
        "wire_hot" => wire_hot::run,
        "ingest_churn" => ingest_churn::run,
        other => {
            eprintln!("unknown workload {other}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // A traced run measures the workload twice, each for half the run:
    // untraced, then traced. The tracing overhead is the gap between the
    // two passes' end-to-end throughput.
    let ctx = |seconds, trace, origin| Ctx {
        seed: args.seed,
        seconds,
        tracer: trace::Tracer::new(trace),
        origin,
        calibration: Mutex::new(stats::Calibration::default()),
    };
    let untraced = args
        .trace
        .then(|| measure(run, ctx(args.seconds / 2.0, false, origin)));
    let (mut report, ctx) = match &untraced {
        Some(_) => measure(run, ctx(args.seconds / 2.0, true, Instant::now())),
        None => measure(run, ctx(args.seconds, false, origin)),
    };

    let mut errors = Vec::new();
    if let Some((plain, _)) = &untraced {
        errors.extend(plain.errors.iter().map(|e| format!("untraced pass: {e}")));
        let throughput = |r: &Report| r.e2e.get("throughput_per_s").copied().unwrap_or(f64::NAN);
        let (a, b) = (throughput(plain), throughput(&report));
        report
            .layers
            .insert("bench.trace_overhead_pct", (a / b - 1.0) * 100.0);
    }
    let metrics = if args.trace {
        metric_entries(PER_LAYER, &report.layers, true, &mut errors)
    } else {
        metric_entries(END_TO_END, &report.e2e, false, &mut errors)
    };
    report.errors.extend(errors);

    println!(
        "# host cpu=\"{}\" vector={} nproc={}",
        stats::cpu_model(),
        sketch::cpu_vector().name(),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    println!("# dispatch {:?}", sketch::dispatch_report());
    println!(
        "# run workload={} seed={} seconds={} trace={} wall_s={:.3}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        origin.elapsed().as_secs_f64()
    );
    let passes = match &untraced {
        Some((plain, plain_ctx)) => vec![
            ("untraced pass: ", plain, plain_ctx),
            ("traced pass: ", &report, &ctx),
        ],
        None => vec![("", &report, &ctx)],
    };
    for (label, rep, pass) in &passes {
        println!(
            "# {label}{}",
            pass.calibration
                .lock()
                .expect("calibration poisoned")
                .describe()
        );
        for phase in &rep.phases {
            println!(
                "# {label}phase {} attempted={} failed={}",
                phase.name, phase.attempted, phase.failed
            );
        }
        for note in &rep.notes {
            println!("# {label}{note}");
        }
        if !label.is_empty() {
            for (name, _) in END_TO_END {
                println!(
                    "# {label}e2e {name}={}",
                    rep.e2e.get(name).copied().unwrap_or(f64::NAN)
                );
            }
        }
    }
    for e in &report.errors {
        println!("# CHECK FAILED: {e}");
    }
    if args.trace {
        for (name, (count, total, own)) in ctx.tracer.summary() {
            println!(
                "# span {name} count={count} total_ms={:.3} self_ms={:.3}",
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        let idle: Vec<&str> = PER_LAYER
            .iter()
            .map(|m| m.0)
            .filter(|m| !report.layers.contains_key(m))
            .collect();
        println!("# layers not exercised by this workload (reported as 0): {idle:?}");
        if let Some(path) = &args.spans {
            if let Err(e) = ctx.tracer.write_jsonl(path) {
                eprintln!("cannot write spans to {}: {e}", path.display());
                return ExitCode::from(1);
            }
        }
    }

    let phases = passes.iter().flat_map(|(_, rep, _)| &rep.phases);
    let attempted: u64 = phases.clone().map(|p| p.attempted).sum();
    let failed: u64 = phases.map(|p| p.failed).sum();
    let correct = report.errors.is_empty() && attempted > 0;
    let line = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        metrics.join(", ")
    );
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, format!("{line}\n")) {
            eprintln!("cannot write result to {}: {e}", path.display());
            return ExitCode::from(1);
        }
    }
    println!("{line}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_without_data_are_errors() {
        let list = [("a", "s"), ("b", "s"), ("c", "s")];
        let values = BTreeMap::from([("a", 1.5), ("b", stats::median(&[]))]);
        let mut errors = Vec::new();
        let e2e = metric_entries(&list, &values, false, &mut errors);
        assert_eq!(e2e[0], "\"a\": {\"value\": 1.5, \"unit\": \"s\"}");
        assert_eq!(errors.len(), 2, "{errors:?}");
        errors.clear();
        // Per-layer: an unexercised layer reads 0, an empty series fails.
        let layers = metric_entries(&list, &values, true, &mut errors);
        assert_eq!(layers[2], "\"c\": {\"value\": 0, \"unit\": \"s\"}");
        assert_eq!(errors, vec!["metric b has no finite value".to_string()]);
    }
}
