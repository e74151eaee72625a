//! The `stream-learn` workload: one thread feeds the test split to a
//! `StreamTrainer` (prequential evaluate-then-learn), publishing to a model
//! registry on a fixed cadence and reading every version back the way a
//! registry watcher installs it.
//!
//! A run is a series of passes; each sets up a fresh trainer from the same
//! inputs and processes the same events, so the prequential hit@10 must be
//! identical on every pass. In a traced run, after each traced pass the
//! benchmark replays the events through the functions the trainer calls,
//! on a model and windows it owns, and checks every rank and the final
//! model against the trainer's.

use crate::alloc;
use crate::direct::{recommend_twice, DirectStats, Scratch};
use crate::report::{
    end_to_end, per_pass_details, self_time_json, set_train_metrics, Values, PER_LAYER,
};
use crate::setup::{self, DataSpec, OMEGA};
use crate::stats::{self, Samples, Summary};
use crate::trace::Tracer;
use crate::{Args, Outcome};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rrc_core::{online_step_single, OnlineConfig, TsPprModel};
use rrc_features::{FeaturePipeline, TrainStats};
use rrc_obs::Json;
use rrc_sequence::{classify, ConsumptionKind, ItemId, SplitDataset, UserId};
use rrc_store::{load_model, ModelRegistry, ModelView};
use rrc_stream::{EventOutcome, StreamConfig, StreamEvent, StreamTrainer};
use std::path::Path;
use std::time::Instant;

/// Prequential list length (hit@10).
const EVAL_N: usize = 10;

const DATA: DataSpec = DataSpec {
    users: 2_000,
    items: 1_000,
    events: (400, 600),
    user_skew: 0.0,
    window: 400,
    negatives: 3,
    sweeps: 1,
};
/// Negatives per eligible repeat for the trainer's online SGD.
const LEARN: usize = 5;
/// The benchmark calls `publish_now` after every this many events.
const PUBLISH_EVERY: usize = 20_000;
/// Registry versions retained.
const KEEP: usize = 2;
/// Latency limit behind `slo_ok_ratio`: one `process` call, microseconds.
const LATENCY_LIMIT_US: f64 = 40.0;

fn stream_config(seed: u64) -> StreamConfig {
    StreamConfig {
        online: OnlineConfig {
            window: DATA.window,
            omega: OMEGA,
            negatives_per_event: LEARN,
            seed,
            ..OnlineConfig::default()
        },
        shards: 1,
        eval_n: EVAL_N,
        // Publishing is driven (and timed) by the benchmark itself.
        publish_every: 0,
        checkpoint_every: 0,
        ..StreamConfig::default()
    }
}

fn params() -> Vec<(&'static str, Json)> {
    vec![
        ("data", DATA.to_json()),
        ("threads", Json::from(1usize)),
        ("learn_negatives", Json::from(LEARN)),
        ("eval_n", Json::from(EVAL_N)),
        ("publish_every_events", Json::from(PUBLISH_EVERY)),
        ("registry_keep", Json::from(KEEP)),
        ("latency_limit_us", Json::F64(LATENCY_LIMIT_US)),
    ]
}

/// One pass. Its per-event samples are reduced to summaries when the pass
/// ends, so the benchmark's own memory does not grow with the number of
/// passes a run fits in; the per-publish samples are a few dozen values.
struct Pass {
    traced: bool,
    /// `None` for a pass that started from a copy of an earlier model.
    setup_s: Option<f64>,
    wall_s: f64,
    /// Share of the machine's CPU time the hypervisor took during replay.
    steal: f64,
    events: u64,
    failed: u64,
    /// Every `process` call, and those on eligible repeats.
    process: Summary,
    eligible: Summary,
    within_limit: u64,
    hits: u64,
    opportunities: u64,
    publish: Samples,
    load: Samples,
    encode_ns: Samples,
    model_bytes: u64,
    trained: u64,
    updates: u64,
    train_ns: u64,
    train_steps: u64,
    train_quadruples: u64,
}

#[allow(clippy::too_many_arguments)]
fn run_pass(
    split: &SplitDataset,
    stream: &[(UserId, ItemId)],
    seed: u64,
    pass: usize,
    traced: bool,
    tmp: &Path,
    out: &mut Outcome,
    direct: &mut DirectStats,
    last_setup: &mut Option<setup::Trained>,
) -> Pass {
    let origin = Instant::now();
    let mut tracer = Tracer::new(origin, traced);
    let cfg = stream_config(seed);

    // Set-up: statistics, training set, batch training, then trainer
    // construction with window warm-up and the registry it publishes to.
    let (trained, train_time) =
        setup::starting_model(pass, split, &DATA, seed, &mut tracer, last_setup, out);
    let start_model = traced.then(|| trained.model.clone());
    let stats_copy = traced.then(|| trained.stats.clone());
    let t1 = Instant::now();
    let reg_dir = tmp.join(format!("registry-{pass}"));
    let open = tracer.enter("setup.stream.start", 0);
    let mut trainer = StreamTrainer::new(
        trained.model,
        FeaturePipeline::standard(),
        trained.stats,
        cfg,
    );
    trainer.warm_from(&split.train);
    trainer.set_registry(ModelRegistry::create(&reg_dir, KEEP).expect("create the model registry"));
    tracer.exit(open);
    let setup_s = train_time.map(|t| (t + t1.elapsed()).as_secs_f64());

    let mut p = Pass {
        traced,
        setup_s,
        wall_s: 0.0,
        steal: 0.0,
        events: 0,
        failed: 0,
        process: Summary::default(),
        eligible: Summary::default(),
        within_limit: 0,
        hits: 0,
        opportunities: 0,
        publish: Samples::default(),
        load: Samples::default(),
        encode_ns: Samples::default(),
        model_bytes: 0,
        trained: 0,
        updates: 0,
        train_ns: trained.train_ns,
        train_steps: trained.steps,
        train_quadruples: trained.quadruples,
    };
    let limit_ns = (LATENCY_LIMIT_US * 1e3) as u64;
    let (mut process, mut eligible) = (Samples::default(), Samples::default());
    let mut outcomes: Vec<Option<EventOutcome>> = Vec::new();
    let mut readback_ns = 0u64;
    let cpu0 = setup::cpu_times();
    let start = Instant::now();
    for (i, &(user, item)) in stream.iter().enumerate() {
        let id = ((pass as u64) << 48) | i as u64;
        let open = tracer.enter("stream.process", id);
        let res = trainer.process(StreamEvent { user, item });
        let ns = tracer.exit(open);
        p.events += 1;
        let outcome = match res {
            Ok(o) => o,
            Err(e) => {
                out.check(false, || format!("pass {pass}: event {i}: {e}"));
                None
            }
        };
        match outcome {
            Some(o) => {
                process.push(ns);
                p.within_limit += u64::from(ns <= limit_ns);
                if o.kind == ConsumptionKind::EligibleRepeat {
                    eligible.push(ns);
                    p.opportunities += 1;
                    p.hits += u64::from(o.rank.is_some_and(|r| r < EVAL_N));
                }
            }
            None => p.failed += 1,
        }
        if traced {
            outcomes.push(outcome);
        }
        if (i + 1).is_multiple_of(PUBLISH_EVERY) {
            let (version, ns) = tracer.span("store.publish", id, || trainer.publish_now());
            p.publish.push(ns);
            // Read the version back as the registry watcher installs it.
            // Deployment does this in another process, so it is kept out of
            // the pass's wall time.
            let rb = Instant::now();
            readback(&trainer, &reg_dir, version, id, &mut tracer, &mut p, out);
            readback_ns += rb.elapsed().as_nanos() as u64;
        }
    }
    p.wall_s = (start.elapsed().as_nanos() as u64 - readback_ns) as f64 / 1e9;
    p.steal = setup::cpu_times().steal_since(&cpu0);
    p.process = process.summary();
    p.eligible = eligible.summary();
    p.trained = trainer.events_trained();
    p.updates = trainer.updates();
    out.check(trainer.events_processed() == p.events - p.failed, || {
        format!(
            "pass {pass}: trainer processed {} events, {} were sent and {} skipped",
            trainer.events_processed(),
            p.events,
            p.failed
        )
    });
    out.check(
        trainer.hit_rate(2) == p.hits as f64 / p.opportunities.max(1) as f64,
        || {
            format!(
                "pass {pass}: trainer hit@10 {} differs from the returned ranks' {}",
                trainer.hit_rate(2),
                p.hits as f64 / p.opportunities.max(1) as f64
            )
        },
    );

    let mut threads = vec![(format!("pass{pass}.trainer"), tracer.into_spans())];
    if traced {
        let mut tracer = Tracer::new(origin, true);
        replay_direct(
            start_model.expect("traced pass keeps a model copy"),
            &stats_copy.expect("traced pass keeps the statistics"),
            split,
            stream,
            &outcomes,
            trainer.model(),
            &cfg,
            pass,
            &mut tracer,
            direct,
            out,
        );
        threads.push((format!("pass{pass}.direct"), tracer.into_spans()));
        out.keep_spans(threads);
    }
    p
}

/// Check a just-published version: the registry's latest entry is it, its
/// fingerprint matches the trainer's, and the model loads back
/// bit-identical. Also times one encode of the model.
fn readback(
    trainer: &StreamTrainer,
    reg_dir: &Path,
    version: Result<Option<u64>, rrc_stream::StreamError>,
    id: u64,
    tracer: &mut Tracer,
    p: &mut Pass,
    out: &mut Outcome,
) {
    let version = match version {
        Ok(Some(v)) => v,
        other => {
            out.check(false, || format!("publish returned {other:?}"));
            return;
        }
    };
    let latest = ModelRegistry::open(reg_dir).ok().and_then(|r| r.latest());
    let Some((latest_version, path)) = latest else {
        out.check(false, || {
            format!("version {version} is not in the registry")
        });
        return;
    };
    out.check(latest_version == version, || {
        format!("registry latest is {latest_version}, published {version}")
    });
    let fingerprint = ModelView::open(&path).ok().and_then(|v| v.fingerprint());
    out.check(fingerprint == Some(trainer.fingerprint()), || {
        format!(
            "version {version}: fingerprint {fingerprint:?}, trainer {:016x}",
            trainer.fingerprint()
        )
    });
    let (loaded, ns) = tracer.span("store.load", id, || load_model(&path));
    p.load.push(ns);
    out.check(loaded.as_ref().is_ok_and(|m| m == trainer.model()), || {
        format!("version {version} does not load back bit-identical")
    });
    let (bytes, ns) = tracer.span("store.encode", id, || {
        rrc_store::model::encode_model(trainer.model(), &[])
    });
    p.encode_ns.push(ns);
    p.model_bytes = bytes.len() as u64;
}

/// Replay the pass's events through the functions `StreamTrainer::process`
/// calls, and check each rank and the final model against the trainer's.
#[allow(clippy::too_many_arguments)]
fn replay_direct(
    mut model: TsPprModel,
    stats: &TrainStats,
    split: &SplitDataset,
    stream: &[(UserId, ItemId)],
    outcomes: &[Option<EventOutcome>],
    trainer_model: &TsPprModel,
    cfg: &StreamConfig,
    pass: usize,
    tracer: &mut Tracer,
    d: &mut DirectStats,
    out: &mut Outcome,
) {
    let pipeline = FeaturePipeline::standard();
    let mut windows = setup::warm_windows(split, cfg.online.window);
    // One trainer shard: its RNG stream runs on the seed itself.
    let mut rng = StdRng::seed_from_u64(cfg.online.seed);
    let omega = cfg.online.omega;
    let mut scratch = Scratch::default();
    let mut mismatches = 0u64;
    for (i, (&(user, item), outcome)) in stream.iter().zip(outcomes).enumerate() {
        let Some(outcome) = outcome else { continue };
        let id = ((pass as u64) << 48) | i as u64;
        let root = tracer.enter("trainer.event", id);
        d.requests += 1;
        let window = &windows[user.index()];
        let kind = classify(window, item, omega);
        mismatches += u64::from(kind != outcome.kind);
        if kind == ConsumptionKind::EligibleRepeat {
            let (top, agree, _) = recommend_twice(
                tracer,
                id,
                &model,
                &pipeline,
                stats,
                omega,
                user,
                window,
                EVAL_N,
                &mut scratch,
                d,
            );
            mismatches += u64::from(!agree);
            mismatches += u64::from(top.iter().position(|&v| v == item) != outcome.rank);

            if cfg.online.negatives_per_event > 0 {
                let open = tracer.enter("core.online_step_single", id);
                let a0 = alloc::thread_allocs();
                let updates = online_step_single(
                    &mut model,
                    &pipeline,
                    stats,
                    &cfg.online,
                    user,
                    window,
                    &mut rng,
                    item,
                );
                d.online_step_allocs.push(alloc::thread_allocs() - a0);
                d.observe_ns.push(tracer.exit(open));
                d.updates += updates;
                mismatches += u64::from(updates != outcome.updates);
            }
        }
        windows[user.index()].push(item);
        tracer.exit(root);
    }
    out.check(mismatches == 0, || {
        format!("pass {pass}: {mismatches} direct-replay results differ from the trainer's")
    });
    out.check(&model == trainer_model, || {
        format!("pass {pass}: direct replay ends on a different model than the trainer")
    });
}

pub fn run(args: &Args, tmp: &Path) -> Outcome {
    let mut out = Outcome {
        params: params(),
        ..Outcome::default()
    };
    eprintln!(
        "perfbench: stream-learn: generating inputs (seed {})",
        args.seed
    );
    let split = setup::generate(&DATA, args.seed);
    let stream = setup::interleave(&split, args.seed);

    // Passes until `--seconds` of replay are measured, and at least one per
    // set-up; in a traced run untraced and traced passes alternate.
    let mut passes: Vec<Pass> = Vec::new();
    let mut direct = DirectStats::default();
    let mut last_setup = None;
    let mut measured = 0.0;
    let min_passes = setup::SETUPS;
    while passes.len() < min_passes || measured < args.seconds {
        let i = passes.len();
        let traced = args.trace && i % 2 == 1;
        let p = run_pass(
            &split,
            &stream,
            args.seed,
            i,
            traced,
            tmp,
            &mut out,
            &mut direct,
            &mut last_setup,
        );
        eprintln!(
            "perfbench: stream-learn pass {i}{}: setup {}, replay {:.2}s, {:.0} events/s",
            if traced { " (traced)" } else { "" },
            p.setup_s
                .map_or("reused".to_string(), |s| format!("{s:.2}s")),
            p.wall_s,
            p.events as f64 / p.wall_s
        );
        measured += p.wall_s;
        passes.push(p);
    }
    let peak_rss = setup::peak_rss_mb();

    for p in &passes {
        out.attempted += p.events;
        out.failed += p.failed;
    }
    let quality: Vec<(u64, u64)> = passes.iter().map(|p| (p.hits, p.opportunities)).collect();
    out.check(quality.windows(2).all(|q| q[0] == q[1]), || {
        format!("stream-learn: prequential hit@10 differs between repeats: {quality:?}")
    });
    let (hits, opps) = quality[0];
    out.check(opps > 0, || {
        "stream-learn: no prequential opportunities".to_string()
    });
    out.details.push(("hit10_hits", Json::from(hits)));
    out.details.push(("hit10_opportunities", Json::from(opps)));

    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let per_pass =
        |ps: &[&Pass], f: &dyn Fn(&Pass) -> f64| -> Vec<f64> { ps.iter().map(|p| f(p)).collect() };
    let events_per_s = |p: &Pass| p.events as f64 / p.wall_s;
    // `observe` is every `process` call (each ingests one event);
    // `recommend` is the calls on eligible repeats, which rank a
    // prequential top-10 before learning.
    let e2e: Vec<(&'static str, Vec<f64>)> = vec![
        ("setup_s", passes.iter().filter_map(|p| p.setup_s).collect()),
        ("events_per_s", per_pass(&untraced, &events_per_s)),
        (
            "observe_p50_us",
            per_pass(&untraced, &|p| p.process.p50_us()),
        ),
        (
            "observe_p99_us",
            per_pass(&untraced, &|p| p.process.p99_us()),
        ),
        (
            "recommend_p50_us",
            per_pass(&untraced, &|p| p.eligible.p50_us()),
        ),
        (
            "recommend_p99_us",
            per_pass(&untraced, &|p| p.eligible.p99_us()),
        ),
        (
            "slo_ok_ratio",
            per_pass(&untraced, &|p| p.within_limit as f64 / p.events as f64),
        ),
    ];
    let (n_obs, n_rec) = (untraced[0].process.len, untraced[0].eligible.len);
    for (what, n) in [("process", n_obs), ("eligible", n_rec)] {
        out.check(stats::beyond(0.99, n) >= 10, || {
            format!("stream-learn: {n} {what} samples per pass, too few for p99")
        });
    }
    let mut per_pass_json = per_pass_details(&e2e, n_obs, n_rec);
    per_pass_json.push(("steal_ratio", Json::from(per_pass(&untraced, &|p| p.steal))));
    per_pass_json.push((
        "publish_ms",
        Json::from(per_pass(&untraced, &|p| {
            p.publish.clone().quantile(0.5) as f64 / 1e6
        })),
    ));
    out.details
        .push(("untraced_passes", Json::obj(per_pass_json)));

    if !args.trace {
        out.metrics = end_to_end(&e2e, hits as f64 / opps as f64, peak_rss);
        return out;
    }

    let first = traced[0];
    out.check(direct.updates == first.updates * traced.len() as u64, || {
        format!(
            "stream-learn: direct replay took {} SGD updates over {} passes, the trainer {} per pass",
            direct.updates,
            traced.len(),
            first.updates
        )
    });
    let agg = &out.span_stats;
    let merged = |f: &dyn Fn(&Pass) -> &Samples| {
        let mut all = Samples::default();
        for p in &traced {
            all.extend(f(p));
        }
        all
    };
    let mut publish = merged(&|p| &p.publish);
    let mut load = merged(&|p| &p.load);
    let mut encode = merged(&|p| &p.encode_ns);
    let mut v = Values::default();
    // The trainer's per-event core call is the online SGD step, which
    // `core.observe_ns_p50` reports here.
    direct.set_metrics(&mut v, agg);
    v.set("core.sgd_updates", first.updates as f64);
    set_train_metrics(
        &mut v,
        &passes
            .iter()
            .filter(|p| p.setup_s.is_some())
            .map(|p| p.train_ns as f64)
            .collect::<Vec<_>>(),
        first.train_steps,
        first.train_quadruples,
    );
    let med = |f: &dyn Fn(&Pass) -> f64| stats::median(&per_pass(&traced, f));
    v.set("stream.process_ns_p50", med(&|p| p.process.p50 as f64));
    v.set("stream.process_ns_p99", med(&|p| p.process.p99 as f64));
    v.set("stream.events_trained", first.trained as f64);
    v.set("stream.updates", first.updates as f64);
    v.set("store.publish_ms_p50", publish.quantile(0.5) as f64 / 1e6);
    v.set(
        "store.encode_mb_per_s",
        first.model_bytes as f64 / 1e6 / (encode.quantile(0.5) as f64 / 1e9),
    );
    v.set("store.load_ms_p50", load.quantile(0.5) as f64 / 1e6);
    v.set("store.model_bytes", first.model_bytes as f64);
    v.set(
        "bench.trace_overhead_ratio",
        stats::median(&per_pass(&traced, &events_per_s))
            / stats::median(&per_pass(&untraced, &events_per_s)),
    );
    out.metrics = v.into_metrics(PER_LAYER);
    let self_time = self_time_json(agg);
    out.details.push(("self_time", self_time));
    out
}
