//! `join_stream`: the paper's own use case. Two Zipf-skewed rectangle
//! relations stream single-threaded into a `SpatialJoin<2>` sketch pair;
//! a seeded quarter of each relation is deleted and re-inserted; the join
//! is estimated. Each round does this under a freshly seeded schema, so a
//! run's rounds are independent draws of the estimator over one data set.
//! Between update chunks the thread answers join estimates requested
//! open-loop at a fixed rate — the selectivity requests a query optimiser
//! makes while the stream is applied.

use crate::checks;
use crate::stats::{best_of_rounds, median, quantile};
use crate::{Ctx, Phase, Report};
use geometry::HyperRect;
use rand::{Rng, SeedableRng};
use sketch::estimators::SketchConfig;
use sketch::{EndpointStrategy, QueryContext, SketchSet, SpatialJoin};
use std::time::{Duration, Instant};

/// Objects per relation.
const OBJECTS: usize = 20_000;
/// Domain bits per dimension (2^14 coordinates).
const BITS: u32 = 14;
/// Mean object extent per dimension.
const MEAN_EXTENT: f64 = (1u64 << BITS) as f64 / 16.0;
/// Zipf exponents of the two relations' positions.
const ZIPF_R: f64 = 0.8;
const ZIPF_S: f64 = 0.5;
/// Boosting grid: 55 averaged × median of 7 = 385 instances, just above
/// `WIDE512_MIN_INSTANCES` (384).
const K1: usize = 55;
const K2: usize = 7;
/// Objects per `insert_slice` / `delete_slice` call.
const CHUNK: usize = 512;
/// Share of each relation deleted and re-inserted per round.
const CHURN_FRAC: f64 = 0.25;
/// Objects per relation in the brute-force cross-check of the exact count.
const SUBSAMPLE: usize = 1500;
/// Open-loop join-estimate requests per second of streaming.
const QUERY_HZ: f64 = 200.0;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

struct Inputs {
    r: Vec<HyperRect<2>>,
    s: Vec<HyperRect<2>>,
    r_churn: Vec<HyperRect<2>>,
    s_churn: Vec<HyperRect<2>>,
    truth: u64,
    max_level: u32,
    cover_nodes_per_obj: f64,
}

/// Geometric mean extent of both relations in sketch coordinates (the
/// endpoint transform triples lengths) — the input of the §6.5 adaptive
/// maxLevel.
pub fn mean_sketch_extent(sets: &[&[HyperRect<2>]]) -> f64 {
    let mut log_sum = 0.0;
    let mut n = 0.0;
    for set in sets {
        for r in set.iter() {
            for d in 0..2 {
                log_sum += (3.0 * r.range(d).length().max(1) as f64).log2();
                n += 1.0;
            }
        }
    }
    (log_sum / n).exp2()
}

/// Mean dyadic nodes per object: interval cover plus both endpoint covers
/// per dimension, in transformed (tripled) coordinates of a
/// `sketch_bits`-bit sketch domain at the schema's maxLevel.
pub fn cover_nodes_per_obj(sets: &[&[HyperRect<2>]], sketch_bits: u32, max_level: u32) -> f64 {
    let domain = dyadic::DyadicDomain::new(sketch_bits);
    let mut buf = Vec::new();
    let (mut nodes, mut objects) = (0usize, 0usize);
    for set in sets {
        for r in set.iter() {
            for d in 0..2 {
                let iv = geometry::transform::triple_interval(&r.range(d));
                buf.clear();
                dyadic::interval_cover_into(&domain, &iv, max_level, &mut buf);
                nodes += buf.len();
                for x in [iv.lo(), iv.hi()] {
                    buf.clear();
                    dyadic::point_cover_into(&domain, x, max_level, &mut buf);
                    nodes += buf.len();
                }
            }
            objects += 1;
        }
    }
    nodes as f64 / objects as f64
}

fn pick<T: Copy>(items: &[T], count: usize, seed: u64) -> Vec<T> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    // Partial Fisher-Yates: the first `count` slots become a uniform
    // sample without replacement.
    let mut idx: Vec<usize> = (0..items.len()).collect();
    for i in 0..count {
        let j = rng.gen_range(i..idx.len());
        idx.swap(i, j);
    }
    idx[..count].iter().map(|&i| items[i]).collect()
}

/// One relation: the paper's synthetic generator with the mean extent
/// raised from √domain to domain/16, so the join is dense enough for a
/// 385-instance sketch to resolve it (at √domain the per-estimate error
/// is about 100%).
fn relation(zipf: f64, seed: u64) -> Vec<HyperRect<2>> {
    datagen::SyntheticSpec {
        mean_length: MEAN_EXTENT,
        ..datagen::SyntheticSpec::paper(OBJECTS, BITS, zipf, seed)
    }
    .generate::<2>()
}

fn prepare(ctx: &Ctx, rep: &mut Report) -> Inputs {
    let tr = &ctx.tracer;
    let (r, s) = tr.time("datagen.generate", 0, 0, || {
        (
            relation(ZIPF_R, ctx.seed_for("r")),
            relation(ZIPF_S, ctx.seed_for("s")),
        )
    });
    let truth = tr.time("exact.rect_join_count", 0, 0, || {
        exact::rect_join_count(&r, &s)
    });
    let sub_r = pick(&r, SUBSAMPLE, ctx.seed_for("sub_r"));
    let sub_s = pick(&s, SUBSAMPLE, ctx.seed_for("sub_s"));
    let sub_exact = tr.time("exact.rect_join_count", 0, 1, || {
        exact::rect_join_count(&sub_r, &sub_s)
    });
    rep.check(checks::check_truth(
        sub_exact,
        checks::brute_join_count(&sub_r, &sub_s),
    ));
    let churn = (OBJECTS as f64 * CHURN_FRAC) as usize;
    let r_churn = pick(&r, churn, ctx.seed_for("churn_r"));
    let s_churn = pick(&s, churn, ctx.seed_for("churn_s"));
    let max_level = sketch::plan::adaptive_max_level(mean_sketch_extent(&[&r, &s]), BITS + 2);
    let cover_nodes_per_obj = tr.time("dyadic.cover", 0, 0, || {
        cover_nodes_per_obj(&[&r, &s], BITS + 2, max_level)
    });
    Inputs {
        r,
        s,
        r_churn,
        s_churn,
        truth,
        max_level,
        cover_nodes_per_obj,
    }
}

/// Open-loop request schedule, running only while the stream is applied.
struct Pacer {
    period: Duration,
    next_due: Instant,
    latencies_us: Vec<f64>,
}

/// Per-round maintenance tallies.
#[derive(Default)]
struct Maintenance {
    updates: u64,
    busy: Duration,
    /// Each update call's time, µs, in call order.
    call_us: Vec<f64>,
    calls: u64,
    failed: u64,
}

struct Pair<'a> {
    join: &'a SpatialJoin<2>,
    r: SketchSet<2>,
    s: SketchSet<2>,
}

impl Pair<'_> {
    /// Applies `rects` to one side in `CHUNK`-object calls, answering the
    /// requests that fall due between calls.
    #[allow(clippy::too_many_arguments)]
    fn apply(
        &mut self,
        ctx: &Ctx,
        round_span: u64,
        round: u64,
        r_side: bool,
        rects: &[HyperRect<2>],
        delta: i64,
        m: &mut Maintenance,
        pacer: &mut Pacer,
        qctx: &mut QueryContext,
        queries: &mut Phase,
    ) {
        let name = if delta > 0 {
            "sketch.atomic.insert_slice"
        } else {
            "sketch.atomic.delete_slice"
        };
        for chunk in rects.chunks(CHUNK) {
            let sk = if r_side { &mut self.r } else { &mut self.s };
            let t0 = Instant::now();
            let res = ctx.tracer.time(name, round_span, round, || {
                if delta > 0 {
                    sk.insert_slice(chunk)
                } else {
                    sk.delete_slice(chunk)
                }
            });
            let took = t0.elapsed();
            m.busy += took;
            m.call_us.push(took.as_secs_f64() * 1e6);
            m.calls += 1;
            m.updates += chunk.len() as u64;
            if res.is_err() {
                m.failed += 1;
            }
            // Serve every request that fell due during the call.
            while Instant::now() >= pacer.next_due {
                let due = pacer.next_due;
                queries.attempted += 1;
                let est =
                    ctx.tracer
                        .time("sketch.estimators.estimate_with", round_span, round, || {
                            self.join.estimate_with(qctx, &self.r, &self.s)
                        });
                pacer.latencies_us.push(due.elapsed().as_secs_f64() * 1e6);
                if est.is_err() {
                    queries.failed += 1;
                }
                pacer.next_due += pacer.period;
            }
        }
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Report {
    let mut rep = Report::default();
    let tr = &ctx.tracer;

    let mut setup_s = Vec::new();
    let mut inputs = None;
    for i in 0..SETUP_REPEATS {
        let t0 = if i == 0 { ctx.origin } else { Instant::now() };
        inputs = Some(prepare(ctx, &mut rep));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");
    rep.e2e.insert("setup_s", median(&setup_s));
    rep.note(format!("join_stream setup repetitions s {setup_s:?}"));
    let truth = inputs.truth as f64;
    rep.note(format!(
        "join_stream objects={OBJECTS}x2 bits={BITS} mean_extent={MEAN_EXTENT} zipf=({ZIPF_R},{ZIPF_S}) instances={}x{} max_level={} churn={CHURN_FRAC} chunk={CHUNK} query_hz={QUERY_HZ} truth={}",
        K1, K2, inputs.max_level, inputs.truth
    ));

    let mut stream = Phase {
        name: "stream",
        ..Phase::default()
    };
    let mut queries = Phase {
        name: "interleaved_estimates",
        ..Phase::default()
    };
    let mut finals = Phase {
        name: "final_estimates",
        ..Phase::default()
    };
    let mut pacer = Pacer {
        period: Duration::from_secs_f64(1.0 / QUERY_HZ),
        next_due: Instant::now(),
        latencies_us: Vec::new(),
    };
    let mut qctx = QueryContext::new();
    let mut rates = Vec::new();
    let mut round_calls = Vec::new();
    let mut round_updates = 0u64;
    let mut row_means = Vec::new();
    let mut final_errs = Vec::new();
    let mut updates_total = 0u64;
    let mut instances = 0usize;
    let mut kernel = String::new();
    let schema_seed = ctx.seed_for("schema");
    let window = Instant::now();
    let mut round = 0u64;
    while round < 2 || window.elapsed().as_secs_f64() < ctx.seconds {
        let span = tr.open("bench.round", 0, round);
        let mut rng = rand::rngs::StdRng::seed_from_u64(datagen::rng::derive_seed(
            schema_seed,
            &round.to_string(),
        ));
        let join = SpatialJoin::<2>::new(
            &mut rng,
            SketchConfig::new(K1, K2).with_max_level(inputs.max_level),
            [BITS, BITS],
            EndpointStrategy::Transform,
        );
        let mut pair = Pair {
            join: &join,
            r: join.new_sketch_r(),
            s: join.new_sketch_s(),
        };
        instances = pair.r.schema().instances();
        kernel = format!("{:?}", pair.r.kernel());
        let mut m = Maintenance::default();
        pacer.next_due = Instant::now() + pacer.period;
        for (r_side, set) in [(true, &inputs.r), (false, &inputs.s)] {
            pair.apply(
                ctx,
                span.id(),
                round,
                r_side,
                set,
                1,
                &mut m,
                &mut pacer,
                &mut qctx,
                &mut queries,
            );
        }
        // The request schedule pauses while the benchmark copies counters.
        let paused = Instant::now();
        let before = (pair.r.clone(), pair.s.clone());
        pacer.next_due += paused.elapsed();
        for (r_side, set) in [(true, &inputs.r_churn), (false, &inputs.s_churn)] {
            pair.apply(
                ctx,
                span.id(),
                round,
                r_side,
                set,
                -1,
                &mut m,
                &mut pacer,
                &mut qctx,
                &mut queries,
            );
        }
        for (r_side, set) in [(true, &inputs.r_churn), (false, &inputs.s_churn)] {
            pair.apply(
                ctx,
                span.id(),
                round,
                r_side,
                set,
                1,
                &mut m,
                &mut pacer,
                &mut qctx,
                &mut queries,
            );
        }
        rep.check(checks::check_linearity(&before.0, &pair.r));
        rep.check(checks::check_linearity(&before.1, &pair.s));
        finals.attempted += 1;
        match tr.time("sketch.estimators.estimate_with", span.id(), round, || {
            join.estimate_with(&mut qctx, &pair.r, &pair.s)
        }) {
            Ok(est) => {
                final_errs.push((est.value - truth).abs() / truth);
                row_means.extend_from_slice(&est.row_means);
            }
            Err(_) => finals.failed += 1,
        }
        if round == 0 {
            let t0 = Instant::now();
            let bytes = tr.time("sketch.persist.snapshot_sketch", span.id(), round, || {
                serde_json::to_string(&sketch::snapshot_sketch(&pair.r))
                    .expect("sketch snapshot serializes")
                    .len()
            });
            rep.layers.insert(
                "sketch.persist.snapshot_ms",
                t0.elapsed().as_secs_f64() * 1e3,
            );
            rep.e2e.insert("snapshot_kb", bytes as f64 / 1024.0);
        }
        stream.attempted += m.calls;
        stream.failed += m.failed;
        updates_total += m.updates;
        rates.push(m.updates as f64 / m.busy.as_secs_f64());
        round_updates = m.updates;
        round_calls.push(m.call_us);
        drop(span);
        ctx.calibrate();
        round += 1;
    }

    rep.check(checks::check_unbiased(&row_means, truth));
    let z = checks::unbiased_z(&row_means, truth);
    let rms = (row_means
        .iter()
        .map(|m| ((m - truth) / truth).powi(2))
        .sum::<f64>()
        / row_means.len() as f64)
        .sqrt();
    rep.note(format!(
        "join_stream rounds={round} updates={updates_total} instances={instances} kernel={kernel} \
         final_rel_err_median={:.4} row_mean_rel_err_rms={rms:.4} unbiased_z={z:.2} (|z| <= {})",
        median(&final_errs),
        checks::UNBIASED_Z_CRIT
    ));
    rep.note(format!(
        "join_stream interleaved estimates={} p50_us={:.0} p99_us={:.0}",
        pacer.latencies_us.len(),
        median(&pacer.latencies_us),
        quantile(&pacer.latencies_us, 0.99)
    ));
    rep.note(format!(
        "join_stream per-round updates/s (whole round) [{}]",
        rates
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    // Every round makes the same update calls in the same order; each
    // call's fastest time over the run's rounds gives the stream's pace in
    // the host's quiet moments (see `stats::best_of_rounds`).
    let best = best_of_rounds(&round_calls);
    rep.e2e.insert(
        "throughput_per_s",
        round_updates as f64 / (best.iter().sum::<f64>() / 1e6),
    );
    // Latency is what a caller of the estimator sees: an open-loop join
    // estimate request waits for the update call in progress, so the
    // figure is the request's wait plus the estimate.
    rep.e2e
        .insert("latency_p50_us", median(&pacer.latencies_us));
    rep.layers
        .insert("bench.query_p99_us", quantile(&pacer.latencies_us, 0.99));
    rep.phases = vec![stream, queries, finals];

    if tr.enabled() {
        rep.layers.insert(
            "datagen.gen_ms",
            median(&tr.durations_us("datagen.generate")) / 1e3,
        );
        let truth_spans: Vec<f64> = tr
            .spans()
            .iter()
            .filter(|s| s.name == "exact.rect_join_count" && s.req == 0)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        rep.layers.insert("exact.truth_ms", median(&truth_spans));
        rep.layers
            .insert("dyadic.cover_nodes_per_obj", inputs.cover_nodes_per_obj);
        let update_ns = tr.self_total_ns("sketch.atomic.insert_slice")
            + tr.self_total_ns("sketch.atomic.delete_slice");
        rep.layers.insert(
            "sketch.atomic.update_ns_per_obj_inst",
            update_ns / (updates_total as f64 * instances as f64),
        );
        rep.layers.insert(
            "sketch.estimators.join_us",
            median(&tr.durations_us("sketch.estimators.estimate_with")),
        );
    }
    rep
}
