//! Inputs and set-up shared by every workload.
//!
//! Input generation (`rrc-datagen`) is benchmark work and runs before any
//! timing starts. Set-up is what a deployment pays between having the
//! inputs and being ready: training statistics, the pre-sampled training
//! set, batch TS-PPR training of the starting model with the parallel
//! trainer at a fixed sweep count, then engine or trainer construction
//! with window warm-up (timed by the callers).

use crate::trace::Tracer;
use crate::Outcome;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rrc_core::{ParallelConfig, ParallelTrainer, TsPprConfig, TsPprModel};
use rrc_datagen::GeneratorConfig;
use rrc_features::{FeaturePipeline, SamplingConfig, TrainStats, TrainingSet};
use rrc_obs::Json;
use rrc_sequence::{ItemId, SplitDataset, UserId, WindowState};
use std::time::{Duration, Instant};

/// Minimum gap Ω, the paper's default.
pub const OMEGA: usize = 10;
/// Latent dimension K of every workload's model.
const K: usize = 16;

/// The shape of one workload's inputs and starting model.
#[derive(Debug, Clone, Copy)]
pub struct DataSpec {
    pub users: usize,
    pub items: usize,
    /// Events per user, drawn uniformly from this range before skew.
    pub events: (usize, usize),
    /// Zipf exponent of per-user activity (0 = uniform).
    pub user_skew: f64,
    /// Window capacity |W|.
    pub window: usize,
    /// Negatives per positive in the pre-sampled training set.
    pub negatives: usize,
    /// Training sweeps over the training set (fixed, no early stop).
    pub sweeps: usize,
}

impl DataSpec {
    pub fn to_json(self) -> Json {
        Json::obj([
            ("users", Json::from(self.users)),
            ("items", Json::from(self.items)),
            ("events_per_user_lo", Json::from(self.events.0)),
            ("events_per_user_hi", Json::from(self.events.1)),
            ("user_skew", Json::F64(self.user_skew)),
            ("window", Json::from(self.window)),
            ("omega", Json::from(OMEGA)),
            ("k", Json::from(K)),
            ("train_negatives", Json::from(self.negatives)),
            ("train_sweeps", Json::from(self.sweeps)),
            ("train_threads", Json::from(TRAIN_THREADS)),
        ])
    }
}

/// Threads (and deterministic shards) of the batch trainer.
const TRAIN_THREADS: usize = 2;

/// Generate the workload's dataset from the bench seed and split it 70/30
/// per user (train prefix / replayed test suffix).
pub fn generate(spec: &DataSpec, seed: u64) -> SplitDataset {
    GeneratorConfig::tiny()
        .with_users(spec.users)
        .with_items(spec.items)
        .with_events_per_user(spec.events.0, spec.events.1)
        .with_user_skew(spec.user_skew)
        .with_seed(seed)
        .generate()
        .split(0.7)
}

/// Every test event exactly once, users interleaved by a seeded shuffle
/// that keeps each user's own events in order.
pub fn interleave(split: &SplitDataset, seed: u64) -> Vec<(UserId, ItemId)> {
    let mut owners: Vec<u32> = Vec::new();
    for (u, seq) in split.test.iter().enumerate() {
        owners.extend(std::iter::repeat_n(u as u32, seq.len()));
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1e7e_a7e5);
    for i in (1..owners.len()).rev() {
        let j = rng.gen_range(0..=i);
        owners.swap(i, j);
    }
    let mut next = vec![0usize; split.test.len()];
    owners
        .into_iter()
        .map(|u| {
            let events = split.test[u as usize].events();
            let item = events[next[u as usize]];
            next[u as usize] += 1;
            (UserId(u), item)
        })
        .collect()
}

/// Every user's window warmed from the training prefix, as
/// `OnlineTsPpr::warm_from` builds them.
pub fn warm_windows(split: &SplitDataset, capacity: usize) -> Vec<WindowState> {
    split
        .train
        .iter()
        .map(|(_, seq)| {
            let mut w = WindowState::new(capacity);
            for &item in seq.events() {
                w.push(item);
            }
            w
        })
        .collect()
}

/// What batch training produced, with its timing.
#[derive(Clone)]
pub struct Trained {
    pub model: TsPprModel,
    pub stats: TrainStats,
    pub train_ns: u64,
    pub steps: u64,
    pub quadruples: u64,
}

/// Statistics, training set and batch training: the model-side part of
/// set-up. Spans: `setup.features.train_stats`,
/// `setup.features.training_set`, `setup.core.train` (prefixed so that
/// the per-request layer self times leave set-up out).
pub fn train(split: &SplitDataset, spec: &DataSpec, seed: u64, tracer: &mut Tracer) -> Trained {
    let (stats, _) = tracer.span("setup.features.train_stats", 0, || {
        TrainStats::compute(&split.train, spec.window)
    });
    let pipeline = FeaturePipeline::standard();
    let (training, _) = tracer.span("setup.features.training_set", 0, || {
        TrainingSet::build(
            &split.train,
            &stats,
            &pipeline,
            &SamplingConfig {
                window: spec.window,
                omega: OMEGA,
                negatives_per_positive: spec.negatives,
                seed,
            },
        )
    });
    let mut cfg = TsPprConfig::new(split.num_users(), split.train.num_items())
        .with_k(K)
        .with_seed(seed);
    cfg.min_sweeps = spec.sweeps;
    cfg.max_sweeps = spec.sweeps;
    let trainer = ParallelTrainer::new(
        cfg,
        ParallelConfig::sharded(TRAIN_THREADS).with_shards(TRAIN_THREADS),
    );
    let ((model, report), train_ns) =
        tracer.span("setup.core.train", 0, || trainer.train(&training));
    Trained {
        model,
        stats,
        train_ns,
        steps: report.steps as u64,
        quadruples: training.num_quadruples() as u64,
    }
}

/// Passes per run that set up from scratch; `setup_s` is their median.
/// Later passes start from a copy of the last set-up's model, so a long
/// run is not mostly set-up. At least four, so that a traced run has two
/// untraced and two traced passes.
pub const SETUPS: usize = 5;

/// The starting model of pass `pass`: trained afresh for the first
/// [`SETUPS`] passes (returning how long that took), a copy of the last
/// one after that. Every set-up must train the same model.
pub fn starting_model(
    pass: usize,
    split: &SplitDataset,
    spec: &DataSpec,
    seed: u64,
    tracer: &mut Tracer,
    last: &mut Option<Trained>,
    out: &mut Outcome,
) -> (Trained, Option<Duration>) {
    if pass >= SETUPS {
        if let Some(t) = last {
            return (t.clone(), None);
        }
    }
    let t0 = Instant::now();
    let trained = train(split, spec, seed, tracer);
    let took = t0.elapsed();
    if let Some(prev) = last {
        out.check(prev.model == trained.model, || {
            format!("set-up {pass} trained a different model than the one before")
        });
    }
    *last = Some(trained.clone());
    (trained, Some(took))
}

/// `VmHWM` (peak resident set) of this process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The machine's CPU time so far, from the first line of `/proc/stat`, in
/// clock ticks: all of it, and the part the hypervisor gave to other
/// guests while this one had work (`steal`).
#[derive(Debug, Default, Clone, Copy)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

/// Read [`CpuTimes`] now (zeros when `/proc/stat` is unreadable).
pub fn cpu_times() -> CpuTimes {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .map(|l| {
            l.split_whitespace()
                .filter_map(|v| v.parse().ok())
                .collect()
        })
        .unwrap_or_default();
    CpuTimes {
        steal: ticks.get(7).copied().unwrap_or(0),
        total: ticks.iter().take(8).sum(),
    }
}

impl CpuTimes {
    /// The share of the CPU time since `earlier` that was stolen (0 when
    /// the host does not report it).
    pub fn steal_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        self.steal.saturating_sub(earlier.steal) as f64 / total.max(1) as f64
    }
}
