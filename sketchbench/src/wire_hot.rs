//! `wire_hot`: a preloaded multi-shard range store and an R/S join store
//! pair served on loopback, queried with a hot set smaller than the plan
//! cache. Phase 1 is open loop: one connection sends batch-1 frames at a
//! fixed rate while a writer inserts and deletes one small chunk at a
//! fixed cadence. Phase 2 is closed loop: two connections at a fixed
//! pipeline depth. Time goes to `serve.net`, `serve.router` and
//! `sketch.query` with warm caches; almost none to maintenance.

use crate::checks::check_frame;
use crate::load::{closed_loop, open_loop, Load};
use crate::stats::{median, process_cpu_s, quantile, quiet_time, window_quantiles};
use crate::{Ctx, Phase, Report};
use geometry::{HyperRect, Point};
use rand::{Rng, SeedableRng};
use serve::net::codec::{decode_queries, decode_replies, encode_queries, encode_replies};
use serve::net::{range_query, stab_query, ServeConfig, ServerHandle, WireQuery, WireReply};
use serve::{ContextPool, QueryRouter, ShardedStore, SketchService};
use sketch::estimators::SketchConfig;
use sketch::{
    BatchQuery, EndpointStrategy, Estimate, QueryContext, RangeQuery, RangeStrategy, SketchSet,
    SpatialJoin,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Domain bits per dimension.
const BITS: u32 = 14;
/// Objects in the range store.
const RANGE_OBJECTS: usize = 20_000;
/// Zipf exponent of every relation's positions.
const ZIPF: f64 = 0.5;
/// The serving shape: 203 × 5 = 1015 instances, no maxLevel.
const RANGE_K: (usize, usize) = (203, 5);
/// Shards of the range store.
const SHARDS: usize = 4;
/// Objects per join relation, and the join sketch's shape.
const JOIN_OBJECTS: usize = 5_000;
const JOIN_K: (usize, usize) = (77, 5);
/// Shards of each join store.
const JOIN_SHARDS: usize = 2;
/// Hot set: range and stab queries, 44 in all (the plan cache holds 64).
const HOT_RANGES: usize = 32;
const HOT_STABS: usize = 12;
/// Every `JOIN_EVERY`-th frame is a join estimate (6.25%).
const JOIN_EVERY: u64 = 16;
/// Phase 1 frame rate.
const OPEN_HZ: f64 = 2000.0;
/// Writer chunk size and the interval between its insert and delete.
const WRITER_CHUNK: usize = 16;
const WRITER_PERIOD: Duration = Duration::from_millis(50);
/// Phase 2 frames in flight per connection.
const DEPTH: usize = 4;
/// The run alternates the phases in this many open/closed slice pairs.
const SLICES: usize = 6;
/// Share of the run spent in phase 1; phase 2 takes the rest.
const OPEN_SHARE: f64 = 0.6;
/// Objects per preload `insert_slice` call.
const PRELOAD_CHUNK: usize = 1024;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// In-process replays per layer entry point in a traced run.
const REPLAY: usize = 2000;

/// One query of the hot set or a join.
#[derive(Clone, Copy)]
enum Slot {
    Hot(usize),
    Join,
}

fn slot(i: u64, hot: usize) -> Slot {
    if i % JOIN_EVERY == JOIN_EVERY - 1 {
        Slot::Join
    } else {
        Slot::Hot((i % hot as u64) as usize)
    }
}

fn wire_of(q: &BatchQuery<2>) -> WireQuery {
    match q {
        BatchQuery::Range(r) => range_query(0, r),
        BatchQuery::Stab(p) => stab_query(0, p),
    }
}

const JOIN_QUERY: WireQuery = WireQuery::Join {
    r_store: 1,
    s_store: 2,
};

struct Setup {
    rq: RangeQuery<2>,
    join: SpatialJoin<2>,
    store: Arc<ShardedStore<2>>,
    chunk: Vec<HyperRect<2>>,
    oracle_a: SketchSet<2>,
    join_r: SketchSet<2>,
    join_s: SketchSet<2>,
    hot: Vec<BatchQuery<2>>,
    wire: Vec<WireQuery>,
    expect_a: Vec<Estimate>,
    expect_b: Vec<Estimate>,
    expect_join: Estimate,
    join_truth: u64,
    service: Arc<SketchService<2>>,
    pool: Arc<ContextPool<2>>,
    server: ServerHandle,
    cover_nodes: f64,
}

impl Setup {
    fn admissible(&self, i: u64, with_writer: bool) -> Vec<&Estimate> {
        match slot(i, self.hot.len()) {
            Slot::Join => vec![&self.expect_join],
            Slot::Hot(k) if with_writer => vec![&self.expect_a[k], &self.expect_b[k]],
            Slot::Hot(k) => vec![&self.expect_a[k]],
        }
    }

    fn frame(&self, i: u64) -> Vec<WireQuery> {
        match slot(i, self.hot.len()) {
            Slot::Join => vec![JOIN_QUERY],
            Slot::Hot(k) => vec![self.wire[k].clone()],
        }
    }
}

fn hot_set(seed: u64) -> Vec<BatchQuery<2>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n = 1u64 << BITS;
    let mut hot = Vec::new();
    for _ in 0..HOT_RANGES {
        let (wx, wy) = (rng.gen_range(256..4096u64), rng.gen_range(256..4096u64));
        let (x, y) = (rng.gen_range(0..n - wx), rng.gen_range(0..n - wy));
        hot.push(BatchQuery::Range(geometry::rect2(x, x + wx, y, y + wy)));
    }
    for _ in 0..HOT_STABS {
        let p: Point<2> = [rng.gen_range(0..n), rng.gen_range(0..n)];
        hot.push(BatchQuery::Stab(p));
    }
    hot
}

fn estimate(
    rq: &RangeQuery<2>,
    ctx: &mut QueryContext,
    sk: &SketchSet<2>,
    q: &BatchQuery<2>,
) -> Estimate {
    match q {
        BatchQuery::Range(r) => rq.estimate_with(ctx, sk, r),
        BatchQuery::Stab(p) => rq.estimate_stab_with(ctx, sk, p),
    }
    .expect("hot-set queries lie inside the domain")
}

fn preload(store: &ShardedStore<2>, data: &[HyperRect<2>]) {
    for chunk in data.chunks(PRELOAD_CHUNK) {
        store
            .insert_slice(chunk)
            .expect("generated data lies inside the domain");
    }
}

fn prepare(ctx: &Ctx, rep: &mut Report) -> Setup {
    let tr = &ctx.tracer;
    let (data, chunk, r_data, s_data) = tr.time("datagen.generate", 0, 0, || {
        let gen = |n, label| {
            datagen::SyntheticSpec::paper(n, BITS, ZIPF, ctx.seed_for(label)).generate::<2>()
        };
        (
            gen(RANGE_OBJECTS, "range"),
            gen(WRITER_CHUNK, "chunk"),
            gen(JOIN_OBJECTS, "join_r"),
            gen(JOIN_OBJECTS, "join_s"),
        )
    });
    let join_truth = tr.time("exact.rect_join_count", 0, 0, || {
        exact::rect_join_count(&r_data, &s_data)
    });
    let mut rng = rand::rngs::StdRng::seed_from_u64(ctx.seed_for("schemas"));
    let rq = RangeQuery::<2>::new(
        &mut rng,
        SketchConfig::new(RANGE_K.0, RANGE_K.1),
        [BITS, BITS],
        RangeStrategy::Transform,
    );
    let extent = crate::join_stream::mean_sketch_extent(&[&r_data, &s_data]);
    let join_level = sketch::plan::adaptive_max_level(extent, BITS + 2);
    let join = SpatialJoin::<2>::new(
        &mut rng,
        SketchConfig::new(JOIN_K.0, JOIN_K.1).with_max_level(join_level),
        [BITS, BITS],
        EndpointStrategy::Transform,
    );
    let cover_nodes = crate::join_stream::cover_nodes_per_obj(&[&data], BITS + 2, BITS + 2);

    // The served stores.
    let store = Arc::new(ShardedStore::like(&rq.new_sketch(), SHARDS));
    let r_store = Arc::new(ShardedStore::like(&join.new_sketch_r(), JOIN_SHARDS));
    let s_store = Arc::new(ShardedStore::like(&join.new_sketch_s(), JOIN_SHARDS));
    tr.time("serve.store.preload", 0, 0, || {
        preload(&store, &data);
        preload(&r_store, &r_data);
        preload(&s_store, &s_data);
    });

    // Unsharded oracles built without `serve`: state A is the preload,
    // state B adds the writer's chunk.
    let mut oracle_a = rq.new_sketch();
    for part in data.chunks(PRELOAD_CHUNK) {
        tr.time("sketch.atomic.insert_slice", 0, 0, || {
            oracle_a.insert_slice(part)
        })
        .expect("generated data lies inside the domain");
    }
    let mut oracle_b = oracle_a.clone();
    oracle_b
        .insert_slice(&chunk)
        .expect("chunk lies inside the domain");
    let mut join_r = join.new_sketch_r();
    let mut join_s = join.new_sketch_s();
    join_r
        .insert_slice(&r_data)
        .expect("join data lies inside the domain");
    join_s
        .insert_slice(&s_data)
        .expect("join data lies inside the domain");

    let hot = hot_set(ctx.seed_for("hot"));
    let mut cold = QueryContext::new();
    let expect_a: Vec<Estimate> = hot
        .iter()
        .map(|q| {
            tr.time("sketch.query.estimate_with.cold", 0, 0, || {
                estimate(&rq, &mut cold, &oracle_a, q)
            })
        })
        .collect();
    let expect_b: Vec<Estimate> = hot
        .iter()
        .map(|q| estimate(&rq, &mut QueryContext::new(), &oracle_b, q))
        .collect();
    let expect_join = join
        .estimate_with(&mut QueryContext::new(), &join_r, &join_s)
        .expect("join sketches share the schema");
    let wire: Vec<WireQuery> = hot.iter().map(wire_of).collect();

    let service = Arc::new(
        SketchService::new(rq.clone(), vec![Arc::clone(&store), r_store, s_store])
            .with_join(join.clone()),
    );
    let config = ServeConfig::default();
    let pool = Arc::new(ContextPool::new(config.workers));
    let server = serve::net::serve(Arc::clone(&service), Arc::clone(&pool), &config, 0)
        .expect("cannot bind a loopback server");

    let setup = Setup {
        rq,
        join,
        store,
        chunk,
        oracle_a,
        join_r,
        join_s,
        hot,
        wire,
        expect_a,
        expect_b,
        expect_join,
        join_truth,
        service,
        pool,
        server,
        cover_nodes,
    };
    // Warm-up: every hot query and a join, twice, checked against state A.
    let mut warm = Phase {
        name: "warmup",
        ..Phase::default()
    };
    match serve::net::SketchClient::connect(setup.server.local_addr()) {
        Ok(mut client) => {
            for i in 0..2 * setup.hot.len() as u64 {
                let frame = setup.frame(i);
                warm.attempted += frame.len() as u64;
                match client.query_batch(&frame) {
                    Ok(replies) => match check_frame(&replies, &[setup.admissible(i, false)]) {
                        Ok(failed) => warm.failed += failed,
                        Err(e) => rep.check(Err(e)),
                    },
                    Err(_) => warm.failed += frame.len() as u64,
                }
            }
        }
        Err(e) => rep.check(Err(format!("warm-up cannot connect: {e}"))),
    }
    // Only the last set-up's warm-up is kept, so every run counts the same
    // warm-up operations.
    rep.phases.retain(|p| p.name != "warmup");
    rep.phases.push(warm);
    setup
}

/// Each pooled context's plan-cache counters, read by holding every slot
/// at once (nested checkouts each take a free slot). Call only when no
/// server thread holds a slot.
pub fn plan_reports(pool: &ContextPool<2>, left: usize, out: &mut Vec<sketch::PlanCacheReport>) {
    if left == 0 {
        return;
    }
    pool.with(|w| {
        out.push(w.query.plan_cache_report());
        plan_reports(pool, left - 1, out);
    });
}

fn merge_load(into: &mut Load, from: Load) {
    into.latencies_us.extend(from.latencies_us);
    into.at_s.extend(from.at_s);
    into.late_us.extend(from.late_us);
    into.attempted += from.attempted;
    into.failed += from.failed;
    into.errors.extend(from.errors);
}

/// One open-loop slice: the reader at `OPEN_HZ` and the writer's
/// insert/delete cadence for `secs`, ending with the chunk deleted.
fn open_slice(ctx: &Ctx, setup: &Setup, secs: f64) -> (Load, Phase, Duration) {
    let tr = &ctx.tracer;
    let addr = setup.server.local_addr();
    let stop = AtomicBool::new(false);
    let start = Instant::now();
    std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            open_loop(
                addr,
                OPEN_HZ,
                &stop,
                tr,
                |i| setup.frame(i),
                |i, replies| check_frame(replies, &[setup.admissible(i, true)]),
            )
        });
        let mut phase = Phase::default();
        let mut busy = Duration::ZERO;
        let mut holds = false;
        let end = start + Duration::from_secs_f64(secs);
        let mut next = start + WRITER_PERIOD;
        let mut tick = 0u64;
        while next < end || holds {
            crate::stats::wait_until(next);
            let t0 = Instant::now();
            let res = if holds {
                tr.time("serve.store.delete_slice", 0, tick, || {
                    setup.store.delete_slice(&setup.chunk)
                })
            } else {
                tr.time("serve.store.insert_slice", 0, tick, || {
                    setup.store.insert_slice(&setup.chunk)
                })
            };
            busy += t0.elapsed();
            phase.attempted += 1;
            if res.is_err() {
                phase.failed += 1;
            }
            holds = !holds;
            tick += 1;
            if tick.is_multiple_of(20) {
                ctx.calibrate();
            }
            next += WRITER_PERIOD;
        }
        stop.store(true, Ordering::SeqCst);
        let load = reader.join().expect("open-loop reader panicked");
        (load, phase, busy)
    })
}

/// One closed-loop slice: two connections, `DEPTH` frames in flight each,
/// for `secs`, with the store in its preloaded state.
fn closed_slice(ctx: &Ctx, setup: &Setup, secs: f64) -> Load {
    let addr = setup.server.local_addr();
    let end = Instant::now() + Duration::from_secs_f64(secs);
    let mut closed = Load::default();
    std::thread::scope(|scope| {
        let conns: Vec<_> = (0..2u64)
            .map(|c| {
                scope.spawn(move || {
                    closed_loop(
                        addr,
                        DEPTH,
                        end,
                        c * 7,
                        &ctx.tracer,
                        |i| setup.frame(i),
                        |i, replies| check_frame(replies, &[setup.admissible(i, false)]),
                    )
                })
            })
            .collect();
        for conn in conns {
            merge_load(
                &mut closed,
                conn.join().expect("closed-loop connection panicked"),
            );
        }
    });
    closed
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Report {
    let mut rep = Report::default();
    let tr = &ctx.tracer;

    let mut setup_s = Vec::new();
    let mut setup: Option<Setup> = None;
    for i in 0..SETUP_REPEATS {
        // The previous repetition's server shuts down before the next
        // set-up is timed.
        drop(setup.take());
        let t0 = if i == 0 { ctx.origin } else { Instant::now() };
        setup = Some(prepare(ctx, &mut rep));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let setup = setup.expect("at least one set-up");
    rep.e2e.insert("setup_s", median(&setup_s));
    rep.note(format!("wire_hot setup repetitions s {setup_s:?}"));
    let instances = RANGE_K.0 * RANGE_K.1;
    rep.note(format!(
        "wire_hot range_objects={RANGE_OBJECTS} bits={BITS} zipf={ZIPF} instances={instances} shards={SHARDS} \
         join_objects={JOIN_OBJECTS}x2 join_instances={} join_shards={JOIN_SHARDS} hot={}+{} stabs join_every={JOIN_EVERY} \
         open_hz={OPEN_HZ} writer_chunk={WRITER_CHUNK} writer_period_ms={} depth={DEPTH} kernel={:?}",
        JOIN_K.0 * JOIN_K.1,
        HOT_RANGES,
        HOT_STABS,
        WRITER_PERIOD.as_millis(),
        setup.oracle_a.kernel()
    ));

    // The phases alternate in slices spread over the whole run, so each
    // phase's windows sample every stretch of the host's state.
    let open_slice_s = ctx.seconds * OPEN_SHARE / SLICES as f64;
    let closed_slice_s = ctx.seconds * (1.0 - OPEN_SHARE) / SLICES as f64;
    let mut open = Load::default();
    let mut writer_phase = Phase {
        name: "writer",
        ..Phase::default()
    };
    let mut writer_busy = Duration::ZERO;
    let mut epochs = 0;
    let mut closed = Load::default();
    let (mut served, mut batches, mut cpu_s, mut closed_secs) = (0u64, 0u64, 0.0, 0.0);
    // Per slice: open-loop p50 and closed-loop rate, printed so a record
    // shows whether a slow run was slow throughout or in a stretch.
    let mut slice_figures = Vec::new();
    for _ in 0..SLICES {
        let epochs_before = setup.store.epoch_tag();
        let (slice, phase, busy) = open_slice(ctx, &setup, open_slice_s);
        epochs += setup.store.epoch_tag() - epochs_before;
        let slice_p50 = median(&slice.latencies_us);
        let offset = open.at_s.last().map_or(0.0, |t| t + 1.0 / OPEN_HZ);
        open.at_s.extend(slice.at_s.iter().map(|t| t + offset));
        open.latencies_us.extend(slice.latencies_us);
        open.late_us.extend(slice.late_us);
        open.attempted += slice.attempted;
        open.failed += slice.failed;
        open.errors.extend(slice.errors);
        writer_phase.attempted += phase.attempted;
        writer_phase.failed += phase.failed;
        writer_busy += busy;

        let stats_before = setup.server.stats();
        let cpu_before = process_cpu_s();
        let t0 = Instant::now();
        let slice = closed_slice(ctx, &setup, closed_slice_s);
        let slice_secs = t0.elapsed().as_secs_f64();
        closed_secs += slice_secs;
        cpu_s += process_cpu_s() - cpu_before;
        slice_figures.push(format!(
            "{slice_p50:.0}/{:.0}",
            (slice.attempted - slice.failed) as f64 / slice_secs
        ));
        let stats_after = setup.server.stats();
        served += stats_after.served - stats_before.served;
        batches += stats_after.batches - stats_before.batches;
        closed.attempted += slice.attempted;
        closed.failed += slice.failed;
        closed.errors.extend(slice.errors);
    }
    let open_secs = ctx.seconds * OPEN_SHARE;
    rep.note(format!(
        "wire_hot writer core_share={:.4} epochs={epochs} over {open_secs:.2}s; per slice open p50_us/closed qps [{}]",
        writer_busy.as_secs_f64() / open_secs,
        slice_figures.join(" ")
    ));
    let replies = closed.attempted - closed.failed;
    let sweep = served as f64 / batches.max(1) as f64;

    for e in open.errors.iter().chain(&closed.errors) {
        rep.check(Err(e.clone()));
    }
    rep.phases.push(Phase {
        name: "open_loop",
        attempted: open.attempted,
        failed: open.failed,
    });
    rep.phases.push(writer_phase);
    rep.phases.push(Phase {
        name: "closed_loop",
        attempted: closed.attempted,
        failed: closed.failed,
    });
    // Closed-loop throughput is latency-bound (eight frames in flight), so
    // its whole-phase rate holds still between runs. The open-loop p50
    // moves with the host's slow stretches, so it is the quiet-moment
    // decile of quarter-second window medians (500 frames each; see
    // `stats::QUIET_QUANTILE`). The 99th percentile tracks the host's
    // scheduling jitter (a bare sleeping thread here wakes over 1 ms late
    // at its 99th percentile), so it is a per-layer figure, the median of
    // one-second windows, not a gated one.
    let p50 = quiet_time(&window_quantiles(&open.at_s, &open.latencies_us, 0.25, 0.5));
    let p99 = median(&window_quantiles(&open.at_s, &open.latencies_us, 1.0, 0.99));
    let qps = replies as f64 / closed_secs;
    rep.e2e.insert("latency_p50_us", p50);
    rep.layers.insert("bench.query_p99_us", p99);
    rep.e2e.insert("throughput_per_s", qps);
    let t0 = Instant::now();
    let snapshot = tr.time("sketch.persist.snapshot_sketch", 0, 0, || {
        serde_json::to_string(&sketch::snapshot_sketch(&setup.oracle_a))
            .expect("sketch snapshot serializes")
    });
    let snapshot_ms = t0.elapsed().as_secs_f64() * 1e3;
    rep.e2e
        .insert("snapshot_kb", snapshot.len() as f64 / 1024.0);
    rep.note(format!(
        "wire_hot open_loop frames={} whole-phase p50_us={:.1} p99_us={:.1} late_p99_us={:.1}; closed_loop replies={replies} queries_per_sweep={sweep:.2}",
        open.latencies_us.len(),
        median(&open.latencies_us),
        quantile(&open.latencies_us, 0.99),
        quantile(&open.late_us, 0.99),
    ));
    rep.note(format!(
        "wire_hot served join: estimate={} exact={} rel_err={:.4}",
        setup.expect_join.value,
        setup.join_truth,
        (setup.expect_join.value - setup.join_truth as f64).abs() / setup.join_truth as f64
    ));

    let Setup {
        server,
        pool,
        service,
        store,
        rq,
        join,
        oracle_a,
        join_r,
        join_s,
        hot,
        wire,
        chunk,
        cover_nodes,
        ..
    } = setup;
    let final_stats = server.shutdown();
    let mut reports = Vec::new();
    plan_reports(&pool, pool.workers(), &mut reports);
    let (hits, misses) = reports.iter().fold((0u64, 0u64), |(h, m), r| {
        (
            h + r.single.hits + r.multi.hits,
            m + r.single.misses + r.multi.misses,
        )
    });
    rep.note(format!(
        "wire_hot server served={} batches={} shed={} panics={} plan_hits={hits} plan_misses={misses}",
        final_stats.served, final_stats.batches, final_stats.shed, final_stats.panics
    ));

    if tr.enabled() {
        let l = &mut rep.layers;
        l.insert(
            "datagen.gen_ms",
            median(&tr.durations_us("datagen.generate")) / 1e3,
        );
        l.insert(
            "exact.truth_ms",
            median(&tr.durations_us("exact.rect_join_count")) / 1e3,
        );
        l.insert("dyadic.cover_nodes_per_obj", cover_nodes);
        l.insert(
            "sketch.atomic.update_ns_per_obj_inst",
            tr.self_total_ns("sketch.atomic.insert_slice")
                / (SETUP_REPEATS * RANGE_OBJECTS * instances) as f64,
        );
        l.insert(
            "sketch.query.range_cold_us",
            median(&tr.durations_us("sketch.query.estimate_with.cold")),
        );
        l.insert(
            "sketch.query.plan_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        l.insert("sketch.persist.snapshot_ms", snapshot_ms);
        l.insert("serve.net.queries_per_sweep", sweep);
        l.insert(
            "serve.net.cpu_us_per_query",
            cpu_s * 1e6 / replies.max(1) as f64,
        );
        l.insert("serve.net.shed", final_stats.shed as f64);
        l.insert("serve.store.epochs", epochs as f64);
        l.insert("bench.loadgen_late_us_p99", quantile(&open.late_us, 0.99));
        let mut writes = tr.durations_us("serve.store.insert_slice");
        writes.extend(tr.durations_us("serve.store.delete_slice"));
        let ingest_ms = median(&writes) / 1e3;
        l.insert("serve.store.ingest_ms_per_batch", ingest_ms);

        // In-process replay of the run's own queries against the same
        // query, router and service layers.
        let ranges: Vec<(usize, HyperRect<2>)> = hot
            .iter()
            .enumerate()
            .filter_map(|(k, q)| match q {
                BatchQuery::Range(r) => Some((k, *r)),
                BatchQuery::Stab(_) => None,
            })
            .collect();
        let mut qctx = QueryContext::new();
        let router = QueryRouter::new();
        for i in 0..REPLAY {
            let (k, r) = ranges[i % ranges.len()];
            let req = i as u64;
            tr.time("sketch.query.estimate_with", 0, req, || {
                rq.estimate_with(&mut qctx, &oracle_a, &r)
            })
            .expect("hot range estimates");
            tr.time("sketch.estimators.estimate_with", 0, req, || {
                join.estimate_with(&mut qctx, &join_r, &join_s)
            })
            .expect("join estimates");
            pool.with(|w| {
                tr.time("serve.router.estimate_range", 0, req, || {
                    router.estimate_range(&rq, &store, w, &r)
                })
                .expect("routed estimates");
                let q = &wire[k];
                let replies = tr.time("serve.net.answer_batch", 0, req, || {
                    service.answer_batch(w, &[q], false)
                });
                tr.time("serve.net.codec", 0, req, || {
                    let queries = decode_queries(&encode_queries(std::slice::from_ref(q)))
                        .expect("codec round trip");
                    let back: Vec<WireReply> =
                        decode_replies(&encode_replies(&replies)).expect("codec round trip");
                    std::hint::black_box((queries, back));
                });
            });
        }
        let batch = (sweep.round() as usize).max(1);
        let batch_us: Vec<f64> = (0..REPLAY / batch.min(REPLAY))
            .map(|b| {
                let qs: Vec<BatchQuery<2>> = (0..batch)
                    .map(|j| hot[(b * batch + j) % hot.len()])
                    .collect();
                let t0 = Instant::now();
                let _span = tr.open("sketch.query.estimate_batch_with", 0, b as u64);
                let out = rq.estimate_batch_with(&mut qctx, &oracle_a, &qs);
                std::hint::black_box(out);
                t0.elapsed().as_secs_f64() * 1e6 / batch as f64
            })
            .collect();
        // The first routed query after an epoch swap re-merges the view.
        let mut plain = oracle_a.clone();
        let mut remerge = Vec::new();
        let mut plain_ms = Vec::new();
        for i in 0..200u64 {
            if i % 2 == 0 {
                store
                    .insert_slice(&chunk)
                    .expect("chunk lies inside the domain");
            } else {
                store.delete_slice(&chunk).expect("chunk was inserted");
            }
            let (_, r) = ranges[i as usize % ranges.len()];
            pool.with(|w| {
                let t0 = Instant::now();
                tr.time("serve.router.estimate_range.after_swap", 0, i, || {
                    router.estimate_range(&rq, &store, w, &r)
                })
                .expect("routed estimates");
                remerge.push(t0.elapsed().as_secs_f64() * 1e6);
            });
            let t0 = Instant::now();
            tr.time("sketch.atomic.replay_writer_batch", 0, i, || {
                if i % 2 == 0 {
                    plain.insert_slice(&chunk)
                } else {
                    plain.delete_slice(&chunk)
                }
            })
            .expect("chunk lies inside the domain");
            plain_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        let answer_us = median(&tr.durations_us("serve.net.answer_batch"));
        let roundtrip_p50 = median(&tr.durations_us("serve.net.roundtrip"));
        let l = &mut rep.layers;
        l.insert(
            "sketch.query.range_warm_us",
            median(&tr.durations_us("sketch.query.estimate_with")),
        );
        l.insert(
            "sketch.estimators.join_us",
            median(&tr.durations_us("sketch.estimators.estimate_with")),
        );
        l.insert("sketch.query.batch_us_per_query", median(&batch_us));
        l.insert(
            "serve.router.route_us",
            median(&tr.durations_us("serve.router.estimate_range")),
        );
        l.insert("serve.router.remerge_us", median(&remerge));
        l.insert("serve.net.answer_us", answer_us);
        l.insert(
            "serve.net.codec_us",
            median(&tr.durations_us("serve.net.codec")),
        );
        l.insert("serve.net.overhead_us", roundtrip_p50 - answer_us);
        l.insert(
            "serve.store.overhead_ms_per_batch",
            ingest_ms - median(&plain_ms),
        );
    }
    rep
}
