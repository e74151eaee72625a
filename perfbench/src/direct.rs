//! The direct replay's shared parts: one recommendation ranked through the
//! crates' public functions in separate spans, and the per-layer numbers
//! the replay gathers.

use crate::alloc;
use crate::report::{layer_self_ns, Values};
use crate::stats::Samples;
use crate::trace::{SpanStats, Tracer};
use rrc_core::{recommend_single, ModelParams};
use rrc_features::{FeatureContext, FeaturePipeline, RecContext, TrainStats};
use rrc_sequence::{ItemId, UserId, WindowState};
use std::collections::BTreeMap;

/// Per-layer numbers gathered by a direct replay.
#[derive(Default)]
pub struct DirectStats {
    /// Requests (or events) replayed.
    pub requests: u64,
    pub candidates: u64,
    pub recommends: u64,
    pub extract_ns: u64,
    pub top_n_ns: Samples,
    pub recommend_ns: Samples,
    /// The per-event core call: `observe_single` when serving,
    /// `online_step_single` when streaming.
    pub observe_ns: Samples,
    pub recommend_allocs: Samples,
    pub online_step_allocs: Samples,
    pub updates: u64,
}

impl DirectStats {
    /// The `features.*` and `core.*` (online) per-layer metrics.
    pub fn set_metrics(&mut self, v: &mut Values, agg: &BTreeMap<&'static str, SpanStats>) {
        let per_candidate = self.candidates.max(1) as f64;
        v.set(
            "features.candidates_per_req",
            self.candidates as f64 / self.recommends.max(1) as f64,
        );
        v.set(
            "features.extract_ns_per_candidate",
            self.extract_ns as f64 / per_candidate,
        );
        v.set("features.top_n_ns_p50", self.top_n_ns.quantile(0.5) as f64);
        v.set(
            "features.self_ns_per_req",
            layer_self_ns(agg, "features.", self.requests),
        );
        v.set(
            "core.recommend_ns_p50",
            self.recommend_ns.quantile(0.5) as f64,
        );
        v.set("core.recommend_allocs", self.recommend_allocs.mean());
        v.set("core.observe_ns_p50", self.observe_ns.quantile(0.5) as f64);
        v.set("core.online_step_allocs", self.online_step_allocs.mean());
        v.set(
            "core.self_ns_per_req",
            layer_self_ns(agg, "core.", self.requests),
        );
    }
}

/// Reusable buffers for [`recommend_twice`].
#[derive(Default)]
pub struct Scratch {
    fbuf: Vec<f64>,
    feats: Vec<f64>,
}

/// Top-`n` for `user`, computed twice: once by `recommend_single` (span
/// `core.recommend_single`, with its allocations counted), and once split
/// into `RecContext::candidates`, `FeaturePipeline::extract_into`, the Eq. 5
/// score and `top_n`, each in its own span under `features.recommend`.
/// Returns the list, whether both ways agreed, and the split's duration.
#[allow(clippy::too_many_arguments)]
pub fn recommend_twice<M: ModelParams + ?Sized>(
    tracer: &mut Tracer,
    id: u64,
    model: &M,
    pipeline: &FeaturePipeline,
    stats: &TrainStats,
    omega: usize,
    user: UserId,
    window: &WindowState,
    n: usize,
    scratch: &mut Scratch,
    d: &mut DirectStats,
) -> (Vec<ItemId>, bool, u64) {
    let open = tracer.enter("core.recommend_single", id);
    let a0 = alloc::thread_allocs();
    let list = recommend_single(model, pipeline, stats, omega, user, window, n);
    d.recommend_allocs.push(alloc::thread_allocs() - a0);
    d.recommend_ns.push(tracer.exit(open));

    let split = tracer.enter("features.recommend", id);
    let ctx = RecContext {
        user,
        window,
        stats,
        omega,
    };
    let (candidates, _) = tracer.span("features.candidates", id, || ctx.candidates());
    let fctx = FeatureContext { window, stats };
    let open = tracer.enter("features.extract", id);
    scratch.feats.clear();
    for &v in &candidates {
        pipeline.extract_into(&fctx, v, &mut scratch.fbuf);
        scratch.feats.extend_from_slice(&scratch.fbuf);
    }
    d.extract_ns += tracer.exit(open);
    let f_dim = pipeline.len();
    let feats = &scratch.feats;
    let (mut scored, _) = tracer.span("core.score", id, || {
        candidates
            .iter()
            .enumerate()
            .map(|(j, &v)| (model.score(user, v, &feats[j * f_dim..(j + 1) * f_dim]), v))
            .collect::<Vec<(f64, ItemId)>>()
    });
    let (top, top_n_ns) = tracer.span("features.top_n", id, || {
        rrc_features::recommend::top_n(&mut scored, n)
    });
    d.top_n_ns.push(top_n_ns);
    let split_ns = tracer.exit(split);
    d.candidates += candidates.len() as u64;
    d.recommends += 1;
    let agree = top == list;
    (list, agree, split_ns)
}
