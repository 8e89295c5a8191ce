//! `ingest_churn`: writes beside reads. A journaled store
//! (`LogRetention::Full`) with fewer than `WIDE512_MIN_INSTANCES`
//! instances is preloaded; one writer applies insert/delete batches
//! closed-loop, splitting a shard and merging it back at fixed stream
//! positions; an open-loop reader sends never-repeated range queries at a
//! low fixed rate. `split_shard` replays the whole journal, so its pause
//! grows with the stream: each round therefore starts from a freshly
//! preloaded store and runs the same fixed-length stream, and every round's
//! topology changes happen at the same positions.

use crate::checks::{check_frame, check_live_count};
use crate::load::open_loop;
use crate::stats::{best_of_rounds, median, quantile, quiet_time, window_quantiles};
use crate::{Ctx, Phase, Report};
use geometry::HyperRect;
use rand::{Rng, SeedableRng};
use serve::net::{range_query, ServeConfig, ServerHandle, SketchClient, WireQuery, WireReply};
use serve::{ContextPool, ShardedStore, SketchService};
use sketch::estimators::SketchConfig;
use sketch::{LogRetention, QueryContext, RangeQuery, RangeStrategy, SketchSet};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Domain bits per dimension.
const BITS: u32 = 14;
/// Objects preloaded into each round's store.
const PRELOAD: usize = 10_000;
/// Zipf exponent of every object set.
const ZIPF: f64 = 0.5;
/// 41 × 5 = 205 instances: below `WIDE512_MIN_INSTANCES` (384), so the
/// dispatcher picks a narrower kernel than the other workloads get.
const K: (usize, usize) = (41, 5);
/// Shards of the store (between a split and its merge there is one more).
const SHARDS: usize = 2;
/// Objects per writer batch.
const BATCH: usize = 256;
/// Batches live at once: batch `i` is deleted right after batch
/// `i + WINDOW` is inserted.
const WINDOW: usize = 8;
/// Stream positions (in inserted batches) of the split and of the merge
/// that restores the topology; the merge ends the round.
const SPLIT_AT: usize = 40;
const MERGE_AT: usize = 80;
/// Reader rate, queries per second.
const READER_HZ: f64 = 500.0;
/// Range queries of the verification frame sent at each checkpoint.
const VERIFY: usize = 24;
/// Objects per preload `insert_slice` call.
const PRELOAD_CHUNK: usize = 1024;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

fn random_rect(rng: &mut impl Rng) -> HyperRect<2> {
    let n = 1u64 << BITS;
    let (wx, wy) = (rng.gen_range(64..4096u64), rng.gen_range(64..4096u64));
    let (x, y) = (rng.gen_range(0..n - wx), rng.gen_range(0..n - wy));
    geometry::rect2(x, x + wx, y, y + wy)
}

/// What every round shares.
struct Inputs {
    rq: RangeQuery<2>,
    preload: Vec<HyperRect<2>>,
    /// The preload in an unsharded sketch built without `serve`.
    oracle: SketchSet<2>,
    verify: Vec<HyperRect<2>>,
    /// The writer's stream, the same every round: `MERGE_AT` batches.
    batches: Vec<Vec<HyperRect<2>>>,
}

/// One round's store and server.
struct Round {
    store: Arc<ShardedStore<2>>,
    pool: Arc<ContextPool<2>>,
    server: ServerHandle,
    oracle: SketchSet<2>,
}

fn inputs(ctx: &Ctx) -> Inputs {
    let tr = &ctx.tracer;
    let preload = tr.time("datagen.generate", 0, 0, || {
        datagen::SyntheticSpec::paper(PRELOAD, BITS, ZIPF, ctx.seed_for("preload")).generate::<2>()
    });
    let mut rng = rand::rngs::StdRng::seed_from_u64(ctx.seed_for("schema"));
    let rq = RangeQuery::<2>::new(
        &mut rng,
        SketchConfig::new(K.0, K.1),
        [BITS, BITS],
        RangeStrategy::Transform,
    );
    let mut oracle = rq.new_sketch();
    for part in preload.chunks(PRELOAD_CHUNK) {
        oracle
            .insert_slice(part)
            .expect("generated data lies inside the domain");
    }
    let mut vrng = rand::rngs::StdRng::seed_from_u64(ctx.seed_for("verify"));
    let verify = (0..VERIFY).map(|_| random_rect(&mut vrng)).collect();
    let stream = tr.time("datagen.generate", 0, 1, || {
        datagen::SyntheticSpec::paper(MERGE_AT * BATCH, BITS, ZIPF, ctx.seed_for("stream"))
            .generate::<2>()
    });
    let batches = stream.chunks(BATCH).map(<[_]>::to_vec).collect();
    Inputs {
        rq,
        preload,
        oracle,
        verify,
        batches,
    }
}

fn start_round(inp: &Inputs) -> Round {
    let store =
        Arc::new(ShardedStore::like(&inp.rq.new_sketch(), SHARDS).with_log(LogRetention::Full));
    for part in inp.preload.chunks(PRELOAD_CHUNK) {
        store
            .insert_slice(part)
            .expect("generated data lies inside the domain");
    }
    let service = Arc::new(SketchService::new(inp.rq.clone(), vec![Arc::clone(&store)]));
    let config = ServeConfig::default();
    let pool = Arc::new(ContextPool::new(config.workers));
    let server = serve::net::serve(service, Arc::clone(&pool), &config, 0)
        .expect("cannot bind a loopback server");
    Round {
        store,
        pool,
        server,
        oracle: inp.oracle.clone(),
    }
}

/// The writer's bookkeeping across a run.
#[derive(Default)]
struct Writer {
    phase: Phase,
    topology: Phase,
    checkpoints: Phase,
    inserted: i64,
    deleted: i64,
    /// Per round: objects accepted and seconds of stream.
    rates: Vec<f64>,
    /// Per round: each store and topology call's time, µs, in call order.
    calls_us: Vec<Vec<f64>>,
    /// Objects one round's stream applies.
    round_objects: usize,
    /// Per round: split + merge wall time, ms.
    pauses_ms: Vec<f64>,
    split_ms: Vec<f64>,
    merge_ms: Vec<f64>,
    /// Per store batch call, ms, and the same batch replayed into a plain
    /// sketch, ms.
    store_ms: Vec<f64>,
    plain_ms: Vec<f64>,
    epochs: u64,
    plan_hits: u64,
    plan_misses: u64,
    shed: u64,
    cold_us: Vec<f64>,
    remerge_us: Vec<f64>,
}

/// Checkpoint with the writer paused: bring the oracle up to the store's
/// stream position, then check a verification frame over the wire and the
/// live count.
#[allow(clippy::too_many_arguments)]
fn checkpoint(
    ctx: &Ctx,
    inp: &Inputs,
    round: &mut Round,
    pending: &mut Vec<(usize, i64)>,
    client: &mut Option<SketchClient>,
    w: &mut Writer,
    rep: &mut Report,
) {
    let tr = &ctx.tracer;
    for (b, delta) in pending.drain(..) {
        let batch = &inp.batches[b];
        let t0 = Instant::now();
        let res = if delta > 0 {
            tr.time("sketch.atomic.insert_slice", 0, b as u64, || {
                round.oracle.insert_slice(batch)
            })
        } else {
            tr.time("sketch.atomic.delete_slice", 0, b as u64, || {
                round.oracle.delete_slice(batch)
            })
        };
        w.plain_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        res.expect("the oracle accepts what the store accepted");
    }
    let frame: Vec<WireQuery> = inp.verify.iter().map(|q| range_query(0, q)).collect();
    let mut vctx = QueryContext::new();
    let expected: Vec<_> = inp
        .verify
        .iter()
        .map(|q| {
            inp.rq
                .estimate_with(&mut vctx, &round.oracle, q)
                .expect("verification queries lie inside the domain")
        })
        .collect();
    let admissible: Vec<Vec<_>> = expected.iter().map(|e| vec![e]).collect();
    w.checkpoints.attempted += frame.len() as u64;
    let replies = client
        .as_mut()
        .ok_or_else(|| "no verification connection".to_string())
        .and_then(|c| c.query_batch(&frame).map_err(|e| e.to_string()));
    match replies {
        Ok(replies) => match check_frame(&replies, &admissible) {
            Ok(failed) => w.checkpoints.failed += failed,
            Err(e) => rep.check(Err(format!("checkpoint: {e}"))),
        },
        Err(_) => w.checkpoints.failed += frame.len() as u64,
    }
    let preload = PRELOAD as i64;
    rep.check(check_live_count(
        round.store.load().total_len(),
        preload + w.inserted,
        w.deleted,
    ));
    rep.check(check_live_count(
        round.oracle.len(),
        preload + w.inserted,
        w.deleted,
    ));
}

/// Runs one round's stream with the reader going; returns the reader's
/// latencies and lateness.
fn run_round(
    ctx: &Ctx,
    inp: &Inputs,
    mut round: Round,
    index: u64,
    w: &mut Writer,
    rep: &mut Report,
) -> crate::load::Load {
    let tr = &ctx.tracer;
    let addr = round.server.local_addr();
    let stop = AtomicBool::new(false);
    let epochs_before = round.store.epoch_tag();
    // Round-local counts: the live-count check compares the store against
    // this round's stream only.
    let (ins0, del0) = (w.inserted, w.deleted);
    w.inserted = 0;
    w.deleted = 0;
    let mut sent = Vec::new();
    let load = std::thread::scope(|scope| {
        let reader = scope.spawn(|| {
            let mut rng = rand::rngs::StdRng::seed_from_u64(datagen::rng::derive_seed(
                ctx.seed_for("reader"),
                &index.to_string(),
            ));
            let mut seen = HashSet::new();
            let mut queries = Vec::new();
            let load = open_loop(
                addr,
                READER_HZ,
                &stop,
                tr,
                |_| loop {
                    let q = random_rect(&mut rng);
                    if seen.insert(q) {
                        queries.push(q);
                        return vec![range_query(0, &q)];
                    }
                },
                |_, replies: &[WireReply]| {
                    if replies.len() != 1 {
                        return Err(format!(
                            "reader frame carried {} replies for 1 query",
                            replies.len()
                        ));
                    }
                    Ok(u64::from(!matches!(replies[0], WireReply::Estimate { .. })))
                },
            );
            (load, queries)
        });
        let mut client = SketchClient::connect(addr).ok();
        let mut pending: Vec<(usize, i64)> = Vec::new();
        let mut stream_s = 0.0;
        let mut accepted = 0usize;
        let mut pause_ms = 0.0;
        let mut calls_us = Vec::new();
        for pos in 0..MERGE_AT {
            let mut ops = vec![(pos, 1i64)];
            if pos >= WINDOW {
                ops.push((pos - WINDOW, -1));
            }
            for (b, delta) in ops {
                let batch = &inp.batches[b];
                let t0 = Instant::now();
                let res = if delta > 0 {
                    tr.time("serve.store.insert_slice", 0, b as u64, || {
                        round.store.insert_slice(batch)
                    })
                } else {
                    tr.time("serve.store.delete_slice", 0, b as u64, || {
                        round.store.delete_slice(batch)
                    })
                };
                let secs = t0.elapsed().as_secs_f64();
                stream_s += secs;
                calls_us.push(secs * 1e6);
                w.store_ms.push(secs * 1e3);
                w.phase.attempted += 1;
                if res.is_err() {
                    w.phase.failed += 1;
                    continue;
                }
                accepted += batch.len();
                if delta > 0 {
                    w.inserted += batch.len() as i64;
                } else {
                    w.deleted += batch.len() as i64;
                }
                pending.push((b, delta));
            }
            let topology = if pos + 1 == SPLIT_AT {
                Some(true)
            } else if pos + 1 == MERGE_AT {
                Some(false)
            } else {
                None
            };
            if let Some(split) = topology {
                let t0 = Instant::now();
                let res = if split {
                    let span = round.store.partition().span(0);
                    let at = span.lo() + (span.hi() - span.lo()).div_ceil(2);
                    tr.time("serve.rebalance.split_shard", 0, index, || {
                        round.store.split_shard(0, at)
                    })
                } else {
                    tr.time("serve.rebalance.merge_shards", 0, index, || {
                        round.store.merge_shards(0)
                    })
                };
                let secs = t0.elapsed().as_secs_f64();
                stream_s += secs;
                calls_us.push(secs * 1e6);
                pause_ms += secs * 1e3;
                if split {
                    &mut w.split_ms
                } else {
                    &mut w.merge_ms
                }
                .push(secs * 1e3);
                w.topology.attempted += 1;
                if res.is_err() {
                    w.topology.failed += 1;
                }
                checkpoint(ctx, inp, &mut round, &mut pending, &mut client, w, rep);
                ctx.calibrate();
            }
        }
        if round.store.shard_count() != SHARDS {
            rep.check(Err(format!(
                "store ended the round with {} shards, not {SHARDS}",
                round.store.shard_count()
            )));
        }
        w.rates.push(accepted as f64 / stream_s);
        w.round_objects = accepted;
        w.calls_us.push(calls_us);
        w.pauses_ms.push(pause_ms);
        stop.store(true, Ordering::SeqCst);
        let (load, queries) = reader.join().expect("reader panicked");
        if tr.enabled() {
            sent = queries;
        }
        load
    });
    w.epochs += round.store.epoch_tag() - epochs_before;
    w.inserted += ins0;
    w.deleted += del0;
    let stats = round.server.shutdown();
    w.shed += stats.shed;
    let mut slots = Vec::new();
    crate::wire_hot::plan_reports(&round.pool, round.pool.workers(), &mut slots);
    for r in &slots {
        w.plan_hits += r.single.hits + r.multi.hits;
        w.plan_misses += r.single.misses + r.multi.misses;
    }
    if tr.enabled() {
        // Replay the reader's never-repeated queries in-process (every one
        // a plan-cache miss), and time routed queries right after epoch
        // swaps on the round's store.
        let mut qctx = QueryContext::new();
        for (i, q) in sent.iter().enumerate() {
            let t0 = Instant::now();
            tr.time("sketch.query.estimate_with.cold", 0, i as u64, || {
                inp.rq.estimate_with(&mut qctx, &round.oracle, q)
            })
            .expect("reader queries lie inside the domain");
            w.cold_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        let router = serve::QueryRouter::new();
        let batch = &inp.batches[0];
        for i in 0..40u64 {
            if i % 2 == 0 {
                round
                    .store
                    .insert_slice(batch)
                    .expect("batch lies inside the domain");
            } else {
                round.store.delete_slice(batch).expect("batch was inserted");
            }
            let q = sent.get(i as usize).copied().unwrap_or(inp.verify[0]);
            round.pool.with(|c| {
                let t0 = Instant::now();
                tr.time("serve.router.estimate_range.after_swap", 0, i, || {
                    router.estimate_range(&inp.rq, &round.store, c, &q)
                })
                .expect("routed estimates");
                w.remerge_us.push(t0.elapsed().as_secs_f64() * 1e6);
            });
        }
    }
    load
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Report {
    let mut rep = Report::default();
    let tr = &ctx.tracer;

    let mut setup_s = Vec::new();
    let mut first: Option<(Inputs, Round)> = None;
    for i in 0..SETUP_REPEATS {
        drop(first.take());
        let t0 = if i == 0 { ctx.origin } else { Instant::now() };
        let inp = inputs(ctx);
        let round = start_round(&inp);
        first = Some((inp, round));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let (inp, round0) = first.expect("at least one set-up");
    rep.e2e.insert("setup_s", median(&setup_s));
    rep.note(format!("ingest_churn setup repetitions s {setup_s:?}"));
    rep.note(format!(
        "ingest_churn preload={PRELOAD} bits={BITS} zipf={ZIPF} instances={} shards={SHARDS} batch={BATCH} window={WINDOW} \
         split_at={SPLIT_AT} merge_at={MERGE_AT} reader_hz={READER_HZ} verify={VERIFY} kernel={:?}",
        K.0 * K.1,
        inp.oracle.kernel()
    ));

    let mut w = Writer {
        phase: Phase {
            name: "writer_batches",
            ..Phase::default()
        },
        topology: Phase {
            name: "topology",
            ..Phase::default()
        },
        checkpoints: Phase {
            name: "checkpoint_queries",
            ..Phase::default()
        },
        ..Writer::default()
    };
    let mut reader = Phase {
        name: "reader",
        ..Phase::default()
    };
    let mut latencies = Vec::new();
    let mut late = Vec::new();
    let mut at_s: Vec<f64> = Vec::new();
    let window = Instant::now();
    let mut next = Some(round0);
    let mut index = 0u64;
    while index < 2 || window.elapsed().as_secs_f64() < ctx.seconds {
        let round = next.take().unwrap_or_else(|| start_round(&inp));
        if index == 0 {
            let t0 = Instant::now();
            let snapshot = tr.time("sketch.persist.snapshot_sketch", 0, 0, || {
                serde_json::to_string(&sketch::snapshot_sketch(&round.oracle))
                    .expect("sketch snapshot serializes")
            });
            rep.layers.insert(
                "sketch.persist.snapshot_ms",
                t0.elapsed().as_secs_f64() * 1e3,
            );
            rep.e2e
                .insert("snapshot_kb", snapshot.len() as f64 / 1024.0);
        }
        let load = run_round(ctx, &inp, round, index, &mut w, &mut rep);
        reader.attempted += load.attempted;
        reader.failed += load.failed;
        for e in load.errors {
            rep.check(Err(e));
        }
        // Stamp the round's samples onto one run-long time line.
        let offset = at_s.last().map_or(0.0, |t| t + 1.0 / READER_HZ);
        at_s.extend(load.at_s.iter().map(|t| t + offset));
        latencies.extend(load.latencies_us);
        late.extend(load.late_us);
        index += 1;
    }

    // Every round makes the same store and topology calls in the same
    // order; each call's fastest time over the run's rounds gives the
    // stream's pace in the host's quiet moments (`stats::best_of_rounds`).
    // The reader's latency is summarised over one-second windows (500
    // queries each) by the quiet-moment decile; its 99th percentile is
    // per-layer, as in `wire_hot`.
    let best = best_of_rounds(&w.calls_us);
    rep.e2e.insert(
        "throughput_per_s",
        w.round_objects as f64 / (best.iter().sum::<f64>() / 1e6),
    );
    rep.e2e.insert(
        "latency_p50_us",
        quiet_time(&window_quantiles(&at_s, &latencies, 1.0, 0.5)),
    );
    rep.layers.insert(
        "bench.query_p99_us",
        median(&window_quantiles(&at_s, &latencies, 2.0, 0.99)),
    );
    rep.note(format!(
        "ingest_churn rounds={index} objects_per_s_median={:.0} topology_pause_ms_median={:.2} split_ms_median={:.2} merge_ms_median={:.3} \
         reader_queries={} whole-run p50_us={:.1} p99_us={:.1} late_p99_us={:.1} epochs={} plan_hits={} plan_misses={} shed={}",
        median(&w.rates),
        median(&w.pauses_ms),
        median(&w.split_ms),
        median(&w.merge_ms),
        latencies.len(),
        median(&latencies),
        quantile(&latencies, 0.99),
        quantile(&late, 0.99),
        w.epochs,
        w.plan_hits,
        w.plan_misses,
        w.shed
    ));
    if tr.enabled() {
        let l = &mut rep.layers;
        let gens: Vec<f64> = tr
            .spans()
            .iter()
            .filter(|s| s.name == "datagen.generate" && s.req == 0)
            .map(|s| s.dur_ns() as f64 / 1e6)
            .collect();
        l.insert("datagen.gen_ms", median(&gens));
        l.insert(
            "dyadic.cover_nodes_per_obj",
            crate::join_stream::cover_nodes_per_obj(&[&inp.preload], BITS + 2, BITS + 2),
        );
        let plain_objs = (w.inserted + w.deleted) as f64;
        l.insert(
            "sketch.atomic.update_ns_per_obj_inst",
            (tr.self_total_ns("sketch.atomic.insert_slice")
                + tr.self_total_ns("sketch.atomic.delete_slice"))
                / (plain_objs * (K.0 * K.1) as f64),
        );
        l.insert("sketch.query.range_cold_us", median(&w.cold_us));
        l.insert(
            "sketch.query.plan_hit_ratio",
            w.plan_hits as f64 / (w.plan_hits + w.plan_misses).max(1) as f64,
        );
        l.insert("serve.router.remerge_us", median(&w.remerge_us));
        l.insert("serve.net.shed", w.shed as f64);
        l.insert("serve.store.epochs", w.epochs as f64);
        let store_ms = median(&w.store_ms);
        l.insert("serve.store.ingest_ms_per_batch", store_ms);
        l.insert(
            "serve.store.overhead_ms_per_batch",
            store_ms - median(&w.plain_ms),
        );
        l.insert("serve.rebalance.split_ms", median(&w.split_ms));
        l.insert("serve.rebalance.merge_ms", median(&w.merge_ms));
        l.insert("serve.rebalance.topology_pause_ms", median(&w.pauses_ms));
        l.insert("bench.loadgen_late_us_p99", quantile(&late, 0.99));
    }
    rep.phases = vec![w.phase, w.topology, w.checkpoints, reader];
    rep
}
