//! The two serving workloads: `serve-closed` and `serve-open-spill`.
//!
//! A run is a series of passes. Each pass starts an engine from the
//! starting model (the first few passes train it from scratch, timed as
//! `setup_s`), replays the same request sequence from one client thread per
//! shard, flushes, checks the engine's counters and shuts it down. Every
//! pass replays the same requests on an identical engine, so output quality
//! is the same on every pass and only timings vary.
//!
//! In a traced run the passes alternate between untraced and traced. After
//! each traced pass the benchmark replays every request the engine served
//! through the functions a shard calls, on tiers, overlays and windows it
//! owns, and checks that the answers are identical to the engine's.

use crate::direct::{recommend_twice, DirectStats, Scratch};
use crate::report::{
    end_to_end, layer_self_ns, per_pass_details, self_time_json, set_train_metrics, Values,
    PER_LAYER,
};
use crate::setup::{self, DataSpec, Trained, OMEGA};
use crate::stats::{self, Samples, Summary};
use crate::trace::{self, Tracer};
use crate::{alloc, pin};
use crate::{Args, Outcome};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rrc_core::{observe_single, OnlineConfig, OnlineTsPpr, TsPprModel};
use rrc_features::{FeaturePipeline, TrainStats};
use rrc_obs::Json;
use rrc_sequence::{ConsumptionKind, ItemId, SplitDataset, UserId, WindowState};
use rrc_serve::arrival::{self, Arrival, ArrivalProcess, ArrivalSpec};
use rrc_serve::{EngineOptions, ModelOverlay, OverloadOptions, ServeEngine, UstateOptions};
use rrc_ustate::{EvictionPolicy, TierConfig, TierParams, UserStateTier};
use std::collections::HashMap;
use std::path::Path;
use std::sync::{Arc, Barrier, OnceLock};
use std::time::{Duration, Instant};

/// Recommendation list length.
const TOPN: usize = 10;
/// Engine shards, each driven by its own client thread.
const SHARDS: usize = 2;

/// One serving workload's fixed parameters.
pub struct ServeWorkload {
    pub name: &'static str,
    pub data: DataSpec,
    /// Negatives per eligible repeat for the engine's online SGD (0 = frozen).
    pub learn: usize,
    /// A recommend follows every this-many-th event of a client.
    pub recommend_every: usize,
    /// Per-shard `ustate` byte budget (`None` = unbounded).
    pub budget_bytes: Option<usize>,
    /// Paced loop: requests offered per second, all clients together, on a
    /// seeded Poisson schedule; a client sends each request when it is due
    /// or when its previous one is answered, whichever is later. `None` =
    /// closed loop.
    pub open_rate: Option<f64>,
    /// Per-shard admission queue cap (turns on overload accounting).
    pub queue_cap: Option<usize>,
    /// Latency limit behind `slo_ok_ratio`, in microseconds.
    pub latency_limit_us: f64,
    /// Requests replayed per pass, all clients together.
    pub pass_requests: usize,
}

/// Closed loop over ~10³ users with a frozen model and an unbounded tier:
/// the cross-thread hop, enqueue and reply dominate.
pub const CLOSED: ServeWorkload = ServeWorkload {
    name: "serve-closed",
    data: DataSpec {
        users: 2_000,
        items: 1_000,
        events: (250, 350),
        user_skew: 0.0,
        window: 100,
        negatives: 10,
        sweeps: 2,
    },
    learn: 0,
    recommend_every: 10,
    budget_bytes: None,
    open_rate: None,
    queue_cap: None,
    latency_limit_us: 50.0,
    pass_requests: 150_000,
};

/// Poisson-paced loop (each client waits for its answers, so requests
/// cannot queue or be shed) over ~10⁵ skewed users with online learning and
/// a per-shard tier budget far below the working set: reload, spill and SGD
/// dominate.
pub const OPEN_SPILL: ServeWorkload = ServeWorkload {
    name: "serve-open-spill",
    data: DataSpec {
        users: 100_000,
        items: 2_000,
        events: (10, 20),
        user_skew: 0.8,
        window: 100,
        negatives: 2,
        sweeps: 1,
    },
    learn: 2,
    recommend_every: 5,
    budget_bytes: Some(4_000_000),
    open_rate: Some(10_000.0),
    queue_cap: Some(64),
    latency_limit_us: 250.0,
    pass_requests: 30_000,
};

impl ServeWorkload {
    fn online_config(&self, seed: u64) -> OnlineConfig {
        OnlineConfig {
            window: self.data.window,
            omega: OMEGA,
            negatives_per_event: self.learn,
            seed,
            ..OnlineConfig::default()
        }
    }

    fn params(&self) -> Vec<(&'static str, Json)> {
        vec![
            ("data", self.data.to_json()),
            ("shards", Json::from(SHARDS)),
            ("clients", Json::from(SHARDS)),
            ("learn_negatives", Json::from(self.learn)),
            ("recommend_every", Json::from(self.recommend_every)),
            ("topn", Json::from(TOPN)),
            (
                "ustate_budget_bytes_per_shard",
                Json::from(self.budget_bytes),
            ),
            (
                "loop",
                Json::from(if self.open_rate.is_some() {
                    "Poisson-paced, one request in flight per client"
                } else {
                    "closed"
                }),
            ),
            ("offered_rate_per_s", Json::from(self.open_rate)),
            ("queue_cap", Json::from(self.queue_cap)),
            ("latency_limit_us", Json::F64(self.latency_limit_us)),
            ("requests_per_pass", Json::from(self.pass_requests)),
            ("engine_tracing", Json::Bool(true)),
            (
                "thread_placement",
                Json::from("client c and shard c on the c-th allowed CPU"),
            ),
        ]
    }
}

#[derive(Clone, Copy)]
enum Op {
    Observe(ItemId),
    Recommend,
}

#[derive(Clone, Copy)]
struct Req {
    user: UserId,
    op: Op,
}

/// What the engine answered (kept in traced passes for the direct replay).
#[derive(PartialEq)]
enum Answer {
    Observed(ConsumptionKind),
    Recommended(Vec<ItemId>),
    Failed,
}

/// Split the interleaved event stream into one request list per shard
/// (client `s` sends only users that shard `s` owns), with a recommend
/// after every `recommend_every`-th event, truncated to the pass size.
fn client_requests(w: &ServeWorkload, stream: &[(UserId, ItemId)]) -> Vec<Vec<Req>> {
    let per_client = w.pass_requests / SHARDS;
    let mut out: Vec<Vec<Req>> = (0..SHARDS)
        .map(|_| Vec::with_capacity(per_client))
        .collect();
    let mut events = [0usize; SHARDS];
    for &(user, item) in stream {
        let s = rrc_serve::shard_for(user, SHARDS);
        let reqs = &mut out[s];
        if reqs.len() >= per_client {
            continue;
        }
        reqs.push(Req {
            user,
            op: Op::Observe(item),
        });
        events[s] += 1;
        if events[s].is_multiple_of(w.recommend_every) && reqs.len() < per_client {
            reqs.push(Req {
                user,
                op: Op::Recommend,
            });
        }
    }
    out
}

/// Request counts of one client, or of a whole pass.
#[derive(Default, Clone, Copy)]
struct Tally {
    attempted: u64,
    failed: u64,
    within_limit: u64,
    observes_ok: u64,
    recommends_ok: u64,
    opportunities: u64,
    hits: u64,
}

impl Tally {
    fn add(&mut self, o: &Tally) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.within_limit += o.within_limit;
        self.observes_ok += o.observes_ok;
        self.recommends_ok += o.recommends_ok;
        self.opportunities += o.opportunities;
        self.hits += o.hits;
    }
}

/// One client thread's view of a pass.
#[derive(Default)]
struct ClientResult {
    /// Call durations, sent to answered.
    observe: Samples,
    recommend: Samples,
    /// Paced loop: latency from the request's due time.
    observe_due: Samples,
    recommend_due: Samples,
    send_lag: Samples,
    tally: Tally,
    answers: Vec<Answer>,
    spans: Vec<trace::Span>,
}

/// Replay one client's requests, timing each call from send to answer. On
/// a paced loop the latency from each request's due time is kept as well,
/// for the report's details.
fn run_client(
    engine: &ServeEngine,
    reqs: &[Req],
    schedule: Option<&[Arrival]>,
    start: Instant,
    limit_ns: u64,
    mut tracer: Tracer,
    req_base: u64,
) -> ClientResult {
    let mut r = ClientResult::default();
    let mut last_served: HashMap<u32, Vec<ItemId>> = HashMap::new();
    let keep_answers = tracer.recording();
    for (i, req) in reqs.iter().enumerate() {
        let due = match schedule {
            Some(s) => {
                let due = start + Duration::from_nanos(s[i].at_ns);
                // Pace by yielding rather than sleeping: a sleeping thread's
                // wake-up on this kind of host is late by tens of
                // microseconds to milliseconds, which would be charged to
                // the engine. Yielding hands the core to the engine's
                // threads whenever they have work.
                while Instant::now() < due {
                    std::thread::yield_now();
                }
                r.send_lag.push((Instant::now() - due).as_nanos() as u64);
                Some(due)
            }
            None => None,
        };
        let id = req_base + i as u64;
        r.tally.attempted += 1;
        let answer = match req.op {
            Op::Observe(item) => {
                let open = tracer.enter("serve.observe", id);
                let res = match due {
                    Some(_) => engine.try_observe(req.user, item, None),
                    None => Ok(engine.observe(req.user, item)),
                };
                let call_ns = tracer.exit(open);
                res.ok().map(|kind| {
                    r.observe.push(call_ns);
                    if let Some(d) = due {
                        r.observe_due.push(d.elapsed().as_nanos() as u64);
                    }
                    r.tally.observes_ok += 1;
                    r.tally.within_limit += u64::from(call_ns <= limit_ns);
                    // The quality monitor's definition: was the user's next
                    // eligible repeat in the last list served to them?
                    if kind == ConsumptionKind::EligibleRepeat {
                        if let Some(list) = last_served.remove(&req.user.0) {
                            r.tally.opportunities += 1;
                            r.tally.hits += u64::from(list.contains(&item));
                        }
                    }
                    Answer::Observed(kind)
                })
            }
            Op::Recommend => {
                let open = tracer.enter("serve.recommend", id);
                let res = match due {
                    Some(_) => engine.try_recommend(req.user, TOPN, None),
                    None => Ok(engine.recommend(req.user, TOPN)),
                };
                let call_ns = tracer.exit(open);
                res.ok().map(|list| {
                    r.recommend.push(call_ns);
                    if let Some(d) = due {
                        r.recommend_due.push(d.elapsed().as_nanos() as u64);
                    }
                    r.tally.recommends_ok += 1;
                    r.tally.within_limit += u64::from(call_ns <= limit_ns);
                    let kept = if keep_answers {
                        list.clone()
                    } else {
                        Vec::new()
                    };
                    last_served.insert(req.user.0, list);
                    Answer::Recommended(kept)
                })
            }
        };
        if keep_answers {
            r.answers.push(answer.unwrap_or(Answer::Failed));
        }
    }
    let t = &mut r.tally;
    t.failed = t.attempted - t.observes_ok - t.recommends_ok;
    r.spans = tracer.into_spans();
    r
}

/// Engine-side numbers read after a pass.
#[derive(Default)]
struct EngineSide {
    queue_wait_ns_mean: f64,
    respond_ns_mean: f64,
    hits: u64,
    misses: u64,
    evictions: u64,
    resident_bytes: u64,
    spilled_users: u64,
    spill_file_bytes: u64,
    spill_ns_mean: f64,
    offered: u64,
    shed: u64,
    updates: u64,
}

/// Names of the paced-loop figures in [`Pass::due`], as the report's
/// details give them.
const DUE_FIGURES: [&str; 5] = [
    "observe_due_p50_us",
    "observe_due_p99_us",
    "recommend_due_p50_us",
    "recommend_due_p99_us",
    "send_lag_p99_us",
];

/// One pass, reduced to the figures the report uses when the pass ends.
/// Its per-call samples are dropped then, so the benchmark's own memory
/// does not grow with the number of passes a run fits in.
struct Pass {
    traced: bool,
    /// `None` for a pass that started from a copy of an earlier model.
    setup_s: Option<f64>,
    wall_s: f64,
    /// Share of the machine's CPU time the hypervisor took during replay.
    steal: f64,
    tally: Tally,
    /// Call durations, all clients together.
    observe: Summary,
    recommend: Summary,
    /// Paced loop: the [`DUE_FIGURES`], in microseconds.
    due: [f64; 5],
    engine: EngineSide,
    allocs: u64,
    train_ns: u64,
    train_steps: u64,
    train_quadruples: u64,
}

impl Pass {
    fn events_per_s(&self) -> f64 {
        self.tally.observes_ok as f64 / self.wall_s
    }
}

/// One sample set of every client, merged and summarised.
fn merged(clients: &[ClientResult], f: impl Fn(&ClientResult) -> &Samples) -> Summary {
    let mut all = Samples::default();
    for c in clients {
        all.extend(f(c));
    }
    all.summary()
}

/// Mean of per-shard stage means, weighted by sample count (exact
/// sum/count from the engine histograms; no bucket quantiles).
fn stage_mean(
    report: &rrc_serve::MetricsReport,
    f: impl Fn(&rrc_serve::StageSummary) -> &rrc_serve::LatencySummary,
) -> f64 {
    let (mut n, mut total) = (0u64, 0f64);
    for st in &report.stages {
        let s = f(st);
        if let Some(mean) = s.mean {
            n += s.count;
            total += s.count as f64 * mean.as_nanos() as f64;
        }
    }
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

#[allow(clippy::too_many_arguments)]
fn run_pass(
    w: &ServeWorkload,
    split: &SplitDataset,
    requests: &[Vec<Req>],
    schedules: &[Vec<Arrival>],
    seed: u64,
    pass: usize,
    traced: bool,
    tmp: &Path,
    out: &mut Outcome,
    mirror_stats: &mut Mirror,
    last_setup: &mut Option<Trained>,
) -> Pass {
    let origin = Instant::now();
    // Set-up: statistics, training set, batch training, then engine
    // construction with window warm-up.
    let mut setup_tracer = Tracer::new(origin, traced);
    let (trained, train_time) = setup::starting_model(
        pass,
        split,
        &w.data,
        seed,
        &mut setup_tracer,
        last_setup,
        out,
    );
    // The direct replay needs its own copy of the starting model; copying
    // it is not set-up work.
    let mirror_model = traced.then(|| trained.model.clone());
    let t1 = Instant::now();
    let spill_dir = tmp.join(format!("spill-{pass}"));
    let open_engine = setup_tracer.enter("setup.serve.start", 0);
    let Trained {
        model,
        stats,
        train_ns,
        steps,
        quadruples,
    } = trained;
    let mirror_stats_copy = traced.then(|| stats.clone());
    let mut online = OnlineTsPpr::new(
        model,
        FeaturePipeline::standard(),
        stats,
        w.online_config(seed),
    );
    online.warm_from(&split.train);
    let engine = ServeEngine::start_with(
        online,
        SHARDS,
        EngineOptions {
            ustate: UstateOptions {
                budget_bytes: w.budget_bytes,
                policy: EvictionPolicy::default(),
                spill_dir: w.budget_bytes.map(|_| spill_dir.clone()),
            },
            overload: OverloadOptions {
                queue_cap: w.queue_cap,
                ..OverloadOptions::default()
            },
            ..EngineOptions::default()
        },
    );
    setup_tracer.exit(open_engine);
    let setup_s = train_time.map(|t| (t + t1.elapsed()).as_secs_f64());

    // Replay.
    let limit_ns = (w.latency_limit_us * 1e3) as u64;
    let n = requests.len();
    let (ready, go) = (Barrier::new(n + 1), Barrier::new(n + 1));
    let start_at: OnceLock<Instant> = OnceLock::new();
    let mut allocs0 = 0;
    let mut cpu0 = setup::CpuTimes::default();
    let clients: Vec<ClientResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .enumerate()
            .map(|(c, reqs)| {
                let (engine, ready, go, start_at) = (&engine, &ready, &go, &start_at);
                let schedule = w.open_rate.map(|_| schedules[c].as_slice());
                let tracer = Tracer::new(origin, traced);
                let base = ((pass as u64) << 48) | ((c as u64) << 40);
                scope.spawn(move || {
                    pin::current_thread(c);
                    ready.wait();
                    go.wait();
                    let start = *start_at.get().expect("start set before go");
                    run_client(engine, reqs, schedule, start, limit_ns, tracer, base)
                })
            })
            .collect();
        // A flush returns once every shard thread runs (and so carries its
        // name), which pinning looks them up by.
        engine.flush();
        pin::shards(SHARDS);
        ready.wait();
        // Open-loop schedules start together, just after the clients go.
        let lead = Duration::from_millis(if w.open_rate.is_some() { 1 } else { 0 });
        cpu0 = setup::cpu_times();
        start_at.set(Instant::now() + lead).expect("start set once");
        allocs0 = alloc::process_allocs();
        go.wait();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let start = *start_at.get().expect("start was set");
    engine.flush();
    let wall_s = start.elapsed().as_secs_f64();
    let steal = setup::cpu_times().steal_since(&cpu0);
    let allocs = alloc::process_allocs() - allocs0;

    let report = engine.metrics();
    let u = &report.ustate;
    let mut side = EngineSide {
        queue_wait_ns_mean: stage_mean(&report, |s| &s.enqueue_wait),
        respond_ns_mean: stage_mean(&report, |s| &s.respond),
        hits: u.hits,
        misses: u.misses,
        evictions: u.evictions,
        resident_bytes: u.resident_bytes,
        spilled_users: u.spilled_users,
        spill_file_bytes: u.spill_file_bytes,
        spill_ns_mean: u.spill.mean.map_or(0.0, |d| d.as_nanos() as f64),
        updates: report.total_online_updates(),
        ..EngineSide::default()
    };

    // Correctness checks on the engine's own counters.
    let mut tally = Tally::default();
    for c in &clients {
        tally.add(&c.tally);
    }
    let (served_obs, served_rec) = (tally.observes_ok, tally.recommends_ok);
    out.check(report.total_observes() == served_obs, || {
        format!(
            "pass {pass}: engine counted {} observes, clients were answered {served_obs}",
            report.total_observes()
        )
    });
    out.check(report.total_recommends() == served_rec, || {
        format!(
            "pass {pass}: engine counted {} recommends, clients were answered {served_rec}",
            report.total_recommends()
        )
    });
    out.check(u.hits + u.misses == served_obs + served_rec, || {
        format!(
            "pass {pass}: ustate hits {} + misses {} != {} tier accesses",
            u.hits,
            u.misses,
            served_obs + served_rec
        )
    });
    let attempted = tally.attempted;
    match &report.overload {
        Some(ov) => {
            for (kind, k) in [("observe", &ov.observe), ("recommend", &ov.recommend)] {
                out.check(k.conserved(), || {
                    format!(
                        "pass {pass}: {kind} offered {} != admitted {} + shed {}",
                        k.offered,
                        k.admitted,
                        k.shed()
                    )
                });
            }
            let total = ov.total();
            out.check(total.offered == attempted, || {
                format!(
                    "pass {pass}: engine saw {} offered, clients attempted {attempted}",
                    total.offered
                )
            });
            side.offered = total.offered;
            side.shed = total.shed();
        }
        // The legacy request paths cannot shed: every request sent is served.
        None => side.offered = attempted,
    }
    for (c, r) in clients.iter().enumerate() {
        for (what, s) in [("observe", &r.observe), ("recommend", &r.recommend)] {
            out.check(stats::beyond(0.99, s.len()) >= 10, || {
                format!(
                    "pass {pass}: client {c} has {} {what} samples, too few for p99",
                    s.len()
                )
            });
        }
    }
    engine.shutdown();

    let mut clients = clients;
    if traced {
        let model = Arc::new(mirror_model.expect("traced pass keeps a model copy"));
        let stats = mirror_stats_copy.expect("traced pass keeps the statistics");
        let windows = setup::warm_windows(split, w.data.window);
        let mut threads = vec![("setup".to_string(), setup_tracer.into_spans())];
        for (s, client) in clients.iter_mut().enumerate() {
            let base = ((pass as u64) << 48) | ((s as u64) << 40);
            let mut tracer = Tracer::new(origin, true);
            mirror_shard(
                w,
                s,
                &model,
                &stats,
                &windows,
                &requests[s],
                &client.answers,
                &tmp.join(format!("mirror-{pass}-{s}.useg")),
                seed,
                base,
                &mut tracer,
                mirror_stats,
                out,
            );
            threads.push((format!("client{s}"), std::mem::take(&mut client.spans)));
            threads.push((format!("direct{s}"), tracer.into_spans()));
        }
        out.keep_spans(
            threads
                .into_iter()
                .map(|(n, s)| (format!("pass{pass}.{n}"), s))
                .collect(),
        );
    }
    let due = match w.open_rate {
        Some(_) => [
            merged(&clients, |c| &c.observe_due).p50_us(),
            merged(&clients, |c| &c.observe_due).p99_us(),
            merged(&clients, |c| &c.recommend_due).p50_us(),
            merged(&clients, |c| &c.recommend_due).p99_us(),
            merged(&clients, |c| &c.send_lag).p99_us(),
        ],
        None => [0.0; 5],
    };
    Pass {
        traced,
        setup_s,
        wall_s,
        steal,
        tally,
        observe: merged(&clients, |c| &c.observe),
        recommend: merged(&clients, |c| &c.recommend),
        due,
        engine: side,
        allocs,
        train_ns,
        train_steps: steps,
        train_quadruples: quadruples,
    }
}

/// What the serving direct replay gathers beyond [`DirectStats`].
#[derive(Default)]
struct Mirror {
    d: DirectStats,
    /// Shard work per request (the split ranking excluded).
    request_ns: Samples,
    /// `get_or_load` calls that missed.
    load_ns: Samples,
}

/// Replay the requests the engine served for shard `s` through the
/// functions the shard calls, on a tier, overlay and windows owned here,
/// and check every answer against the engine's.
#[allow(clippy::too_many_arguments)]
fn mirror_shard(
    w: &ServeWorkload,
    s: usize,
    model: &Arc<TsPprModel>,
    stats: &TrainStats,
    windows: &[WindowState],
    reqs: &[Req],
    answers: &[Answer],
    spill_path: &Path,
    seed: u64,
    req_base: u64,
    tracer: &mut Tracer,
    ms: &mut Mirror,
    out: &mut Outcome,
) {
    let cfg = w.online_config(seed);
    let pipeline = FeaturePipeline::standard();
    let mut tier = UserStateTier::new(
        TierConfig {
            window: cfg.window,
            budget_bytes: w.budget_bytes,
            policy: EvictionPolicy::default(),
            spill_path: w.budget_bytes.map(|_| spill_path.to_path_buf()),
            remove_spill_on_drop: true,
        },
        model.clone(),
        0,
    )
    .expect("open the direct replay's tier");
    for (u, win) in windows.iter().enumerate() {
        if rrc_serve::shard_for(UserId(u as u32), SHARDS) == s {
            tier.seed_window(u as u32, win.clone());
        }
    }
    tier.enforce_budget().expect("spill warm windows");
    let mut overlay = ModelOverlay::new(model.clone());
    let mut rng = StdRng::seed_from_u64(cfg.seed.wrapping_add(s as u64));
    let mut scratch = Scratch::default();
    let (mut accesses, mut hits, mut misses) = (0u64, 0u64, 0u64);
    let mut mismatches = 0u64;
    for (i, (req, answer)) in reqs.iter().zip(answers).enumerate() {
        if *answer == Answer::Failed {
            continue;
        }
        let id = req_base + i as u64;
        let user = req.user;
        let root = tracer.enter(
            match req.op {
                Op::Observe(_) => "shard.observe",
                Op::Recommend => "shard.recommend",
            },
            id,
        );
        let mut split_ns = 0;
        let base = tier.base().clone();
        let open = tracer.enter("ustate.get_or_load", id);
        let (window, factors) = tier.get_or_load(user).expect("reload spilled state");
        let load_ns = tracer.exit(open);
        accesses += 1;
        let mut params = TierParams::new(user, factors, &base, &mut overlay);
        match req.op {
            Op::Observe(item) => {
                let open = tracer.enter("core.observe_single", id);
                let a0 = alloc::thread_allocs();
                let (kind, updates) = observe_single(
                    &mut params,
                    &pipeline,
                    stats,
                    &cfg,
                    user,
                    window,
                    &mut rng,
                    item,
                );
                let allocs = alloc::thread_allocs() - a0;
                ms.d.observe_ns.push(tracer.exit(open));
                if updates > 0 {
                    ms.d.online_step_allocs.push(allocs);
                }
                ms.d.updates += updates;
                mismatches += u64::from(*answer != Answer::Observed(kind));
            }
            Op::Recommend => {
                let (list, agree, ns) = recommend_twice(
                    tracer,
                    id,
                    &params,
                    &pipeline,
                    stats,
                    cfg.omega,
                    user,
                    window,
                    TOPN,
                    &mut scratch,
                    &mut ms.d,
                );
                split_ns = ns;
                mismatches += u64::from(!agree);
                mismatches += u64::from(*answer != Answer::Recommended(list));
            }
        }
        let open = tracer.enter("ustate.note_access", id);
        tier.note_access(user).expect("spill evicted state");
        tracer.exit(open);
        let delta = tier.take_delta();
        hits += delta.hits;
        misses += delta.misses;
        if delta.misses > 0 {
            ms.load_ns.push(load_ns);
        }
        let root_ns = tracer.exit(root);
        ms.request_ns.push(root_ns - split_ns);
        ms.d.requests += 1;
    }
    out.check(mismatches == 0, || {
        format!(
            "{}: shard {s}: {mismatches} direct-replay answers differ from the engine's",
            w.name
        )
    });
    out.check(hits + misses == accesses, || {
        format!(
            "{}: shard {s}: direct tier hits {hits} + misses {misses} != {accesses} accesses",
            w.name
        )
    });
}

pub fn run(w: &ServeWorkload, args: &Args, tmp: &Path) -> Outcome {
    let mut out = Outcome {
        params: w.params(),
        ..Outcome::default()
    };
    eprintln!(
        "perfbench: {}: generating inputs (seed {})",
        w.name, args.seed
    );
    let split = setup::generate(&w.data, args.seed);
    let requests = client_requests(w, &setup::interleave(&split, args.seed));
    let schedules: Vec<Vec<Arrival>> = match w.open_rate {
        Some(rate) => requests
            .iter()
            .enumerate()
            .map(|(c, reqs)| {
                let spec = ArrivalSpec {
                    process: ArrivalProcess::Poisson {
                        rate: rate / SHARDS as f64,
                    },
                    seed: args.seed ^ 0xa881,
                    hot_users: 0,
                    hot_fraction: 0.0,
                };
                arrival::generate(&spec, reqs.len(), c as u64)
            })
            .collect(),
        None => Vec::new(),
    };
    let total_requests: usize = requests.iter().map(Vec::len).sum();
    out.check(total_requests == w.pass_requests, || {
        format!(
            "{}: the inputs hold {total_requests} requests, a pass needs {}",
            w.name, w.pass_requests
        )
    });

    // Passes until `--seconds` of replay are measured, and at least one per
    // set-up; in a traced run untraced and traced passes alternate.
    let mut passes: Vec<Pass> = Vec::new();
    let mut mirror = Mirror::default();
    let mut last_setup = None;
    let mut measured = 0.0;
    let min_passes = setup::SETUPS;
    while passes.len() < min_passes || measured < args.seconds {
        let i = passes.len();
        let traced = args.trace && i % 2 == 1;
        let p = run_pass(
            w,
            &split,
            &requests,
            &schedules,
            args.seed,
            i,
            traced,
            tmp,
            &mut out,
            &mut mirror,
            &mut last_setup,
        );
        eprintln!(
            "perfbench: {} pass {i}{}: setup {}, replay {:.2}s, {:.0} events/s",
            w.name,
            if traced { " (traced)" } else { "" },
            p.setup_s
                .map_or("reused".to_string(), |s| format!("{s:.2}s")),
            p.wall_s,
            p.events_per_s()
        );
        measured += p.wall_s;
        passes.push(p);
    }
    let peak_rss = setup::peak_rss_mb();

    out.check(pin::error().is_none(), || {
        format!(
            "{}: threads were not placed: {}",
            w.name,
            pin::error().unwrap_or_default()
        )
    });
    for p in &passes {
        out.attempted += p.tally.attempted;
        out.failed += p.tally.failed;
    }
    // Identical passes must serve identical quality.
    let quality: Vec<(u64, u64)> = passes
        .iter()
        .map(|p| (p.tally.hits, p.tally.opportunities))
        .collect();
    out.check(quality.windows(2).all(|q| q[0] == q[1]), || {
        format!(
            "{}: hit@10 differs between identical passes: {quality:?}",
            w.name
        )
    });
    let (hits, opps) = quality[0];
    out.check(opps > 0, || format!("{}: no quality opportunities", w.name));
    out.details.push(("hit10_hits", Json::from(hits)));
    out.details.push(("hit10_opportunities", Json::from(opps)));

    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
    let per_pass =
        |ps: &[&Pass], f: &dyn Fn(&Pass) -> f64| -> Vec<f64> { ps.iter().map(|p| f(p)).collect() };
    let e2e: Vec<(&'static str, Vec<f64>)> = vec![
        ("setup_s", passes.iter().filter_map(|p| p.setup_s).collect()),
        ("events_per_s", per_pass(&untraced, &|p| p.events_per_s())),
        (
            "observe_p50_us",
            per_pass(&untraced, &|p| p.observe.p50_us()),
        ),
        (
            "observe_p99_us",
            per_pass(&untraced, &|p| p.observe.p99_us()),
        ),
        (
            "recommend_p50_us",
            per_pass(&untraced, &|p| p.recommend.p50_us()),
        ),
        (
            "recommend_p99_us",
            per_pass(&untraced, &|p| p.recommend.p99_us()),
        ),
        (
            "slo_ok_ratio",
            per_pass(&untraced, &|p| {
                p.tally.within_limit as f64 / p.tally.attempted as f64
            }),
        ),
    ];
    let (n_obs, n_rec) = (untraced[0].observe.len, untraced[0].recommend.len);
    let mut per_pass_json = per_pass_details(&e2e, n_obs, n_rec);
    per_pass_json.push(("steal_ratio", Json::from(per_pass(&untraced, &|p| p.steal))));
    if w.open_rate.is_some() {
        // Latency from the due time and the generator's lateness, kept
        // out of the gated metrics (see README.md, "serve-open-spill").
        for (i, name) in DUE_FIGURES.into_iter().enumerate() {
            per_pass_json.push((name, Json::from(per_pass(&untraced, &|p| p.due[i]))));
        }
    }
    out.details
        .push(("untraced_passes", Json::obj(per_pass_json)));

    if !args.trace {
        out.metrics = end_to_end(&e2e, hits as f64 / opps as f64, peak_rss);
        return out;
    }

    // Per-layer metrics from the traced passes and the direct replay.
    let first = traced[0];
    out.check(
        w.learn == 0 || mirror.d.updates == first.engine.updates * traced.len() as u64,
        || {
            format!(
                "{}: direct replay took {} SGD updates over {} passes, the engine {} per pass",
                w.name,
                mirror.d.updates,
                traced.len(),
                first.engine.updates
            )
        },
    );
    let agg = &out.span_stats;
    let mut calls = Samples::default();
    for name in ["serve.observe", "serve.recommend"] {
        if let Some(s) = agg.get(name) {
            calls.extend(&s.durations);
        }
    }
    let med = |f: &dyn Fn(&Pass) -> f64| stats::median(&per_pass(&traced, f));
    let mut v = Values::default();
    v.set(
        "serve.hop_ns_p50",
        calls.quantile(0.5) as f64 - mirror.request_ns.quantile(0.5) as f64,
    );
    v.set(
        "serve.queue_wait_ns_mean",
        med(&|p| p.engine.queue_wait_ns_mean),
    );
    v.set("serve.respond_ns_mean", med(&|p| p.engine.respond_ns_mean));
    v.set(
        "serve.allocs_per_req",
        stats::median(&per_pass(&untraced, &|p| {
            p.allocs as f64 / p.tally.attempted as f64
        })),
    );
    v.set("serve.offered", first.engine.offered as f64);
    v.set("serve.shed", first.engine.shed as f64);
    let e = &first.engine;
    v.set(
        "ustate.hit_ratio",
        e.hits as f64 / (e.hits + e.misses).max(1) as f64,
    );
    v.set("ustate.evictions", e.evictions as f64);
    v.set(
        "ustate.spill_bytes_per_user",
        e.spill_file_bytes as f64 / e.spilled_users.max(1) as f64,
    );
    v.set("ustate.resident_bytes", e.resident_bytes as f64);
    v.set("ustate.load_ns_p99", mirror.load_ns.quantile(0.99) as f64);
    v.set("ustate.spill_ns_mean", med(&|p| p.engine.spill_ns_mean));
    v.set(
        "ustate.self_ns_per_req",
        layer_self_ns(agg, "ustate.", mirror.d.requests),
    );
    mirror.d.set_metrics(&mut v, agg);
    v.set("core.sgd_updates", e.updates as f64);
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
    if w.open_rate.is_some() {
        v.set("bench.send_lag_us_p99", med(&|p| p.due[4]));
    }
    v.set(
        "bench.trace_overhead_ratio",
        med(&|p| p.events_per_s()) / stats::median(&per_pass(&untraced, &|p| p.events_per_s())),
    );
    out.metrics = v.into_metrics(PER_LAYER);
    let self_time = self_time_json(agg);
    out.details.push(("self_time", self_time));
    out
}
