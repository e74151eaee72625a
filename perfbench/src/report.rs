//! The metric lists every workload reports, and helpers shared by the
//! workloads.

use crate::trace::SpanStats;
use crate::{metric, Metric};
use rrc_obs::Json;
use std::collections::BTreeMap;

/// End-to-end metrics, reported with tracing off (`--trace 0`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("events_per_s", "1/s"),
    ("observe_p50_us", "us"),
    ("observe_p99_us", "us"),
    ("recommend_p50_us", "us"),
    ("recommend_p99_us", "us"),
    ("slo_ok_ratio", "ratio"),
    ("hit10", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics, reported by the traced run (`--trace 1`). A layer a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.hop_ns_p50", "ns"),
    ("serve.queue_wait_ns_mean", "ns"),
    ("serve.respond_ns_mean", "ns"),
    ("serve.allocs_per_req", "count"),
    ("serve.offered", "count"),
    ("serve.shed", "count"),
    ("ustate.hit_ratio", "ratio"),
    ("ustate.evictions", "count"),
    ("ustate.spill_bytes_per_user", "B"),
    ("ustate.resident_bytes", "B"),
    ("ustate.load_ns_p99", "ns"),
    ("ustate.spill_ns_mean", "ns"),
    ("ustate.self_ns_per_req", "ns"),
    ("features.candidates_per_req", "count"),
    ("features.extract_ns_per_candidate", "ns"),
    ("features.top_n_ns_p50", "ns"),
    ("features.self_ns_per_req", "ns"),
    ("core.recommend_ns_p50", "ns"),
    ("core.recommend_allocs", "count"),
    ("core.observe_ns_p50", "ns"),
    ("core.online_step_allocs", "count"),
    ("core.sgd_updates", "count"),
    ("core.self_ns_per_req", "ns"),
    ("core.train_sweep_ms", "ms"),
    ("core.train_steps_per_s", "1/s"),
    ("stream.process_ns_p50", "ns"),
    ("stream.process_ns_p99", "ns"),
    ("stream.events_trained", "count"),
    ("stream.updates", "count"),
    ("store.publish_ms_p50", "ms"),
    ("store.encode_mb_per_s", "MB/s"),
    ("store.load_ms_p50", "ms"),
    ("store.model_bytes", "B"),
    ("bench.send_lag_us_p99", "us"),
    ("bench.trace_overhead_ratio", "ratio"),
];

/// Named values collected by a workload, emitted in list order.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// Every metric of `list`, in order; unset ones read 0.
    pub fn into_metrics(self, list: &[(&'static str, &'static str)]) -> Vec<Metric> {
        for name in self.0.keys() {
            assert!(
                list.iter().any(|(n, _)| n == name),
                "metric {name} is not in the benchmark's list"
            );
        }
        list.iter()
            .map(|&(name, unit)| {
                let v = self.0.get(name).copied().unwrap_or(0.0);
                metric(name, unit, if v.is_finite() { v } else { 0.0 })
            })
            .collect()
    }
}

/// Batch-training throughput from the set-up's `ParallelTrainer::train`
/// call: median duration over passes, sweeps = steps / training-set size.
pub fn set_train_metrics(v: &mut Values, train_ns: &[f64], steps: u64, quadruples: u64) {
    let ns = crate::stats::median(train_ns);
    let sweeps = steps as f64 / quadruples.max(1) as f64;
    v.set("core.train_sweep_ms", ns / 1e6 / sweeps);
    v.set("core.train_steps_per_s", steps as f64 / (ns / 1e9));
}

/// Self time per layer (span-name prefix), per unit of work.
pub fn layer_self_ns(agg: &BTreeMap<&'static str, SpanStats>, prefix: &str, per: u64) -> f64 {
    let total: u64 = agg
        .iter()
        .filter(|(n, _)| n.starts_with(prefix))
        .map(|(_, s)| s.self_ns)
        .sum();
    total as f64 / per.max(1) as f64
}

/// The span table: count, total and self nanoseconds per span name.
pub fn self_time_json(agg: &BTreeMap<&'static str, SpanStats>) -> Json {
    Json::obj(agg.iter().map(|(name, s)| {
        (
            *name,
            Json::obj([
                ("count", Json::from(s.count)),
                ("total_ns", Json::from(s.total_ns)),
                ("self_ns", Json::from(s.self_ns)),
                (
                    "self_ns_mean",
                    Json::F64(s.self_ns as f64 / s.count.max(1) as f64),
                ),
            ]),
        )
    }))
}

/// Per-pass values of the end-to-end timings, as the report's details:
/// each metric's values plus the sample counts behind the latency
/// quantiles and the highest quantile those counts support.
pub fn per_pass_details(
    e2e: &[(&'static str, Vec<f64>)],
    observe_samples: usize,
    recommend_samples: usize,
) -> Vec<(&'static str, Json)> {
    let mut out: Vec<(&'static str, Json)> = e2e
        .iter()
        .map(|(n, v)| (*n, Json::from(v.clone())))
        .collect();
    out.push(("observe_samples", Json::from(observe_samples)));
    out.push(("recommend_samples", Json::from(recommend_samples)));
    out.push((
        "observe_highest_supported_quantile",
        Json::from(crate::stats::highest_supported(observe_samples)),
    ));
    out.push((
        "recommend_highest_supported_quantile",
        Json::from(crate::stats::highest_supported(recommend_samples)),
    ));
    out
}

/// The end-to-end metrics: over the passes, the median of each per-pass
/// value and the lower quartile of each per-pass p99, plus the whole-run
/// `hit10` and `peak_rss_mb`.
///
/// Interference from outside the process (the hypervisor preempting a
/// virtual CPU) only ever adds to a tail, and on a shared host it lands in
/// some passes and not in others. The lower quartile is the tail of the
/// passes the host disturbed least; a tail the program causes itself shows
/// in every pass and still moves it.
pub fn end_to_end(e2e: &[(&'static str, Vec<f64>)], hit10: f64, peak_rss_mb: f64) -> Vec<Metric> {
    let mut v = Values::default();
    for (name, values) in e2e {
        let value = if name.ends_with("_p99_us") {
            crate::stats::lower_quartile(values)
        } else {
            crate::stats::median(values)
        };
        v.set(name, value);
    }
    v.set("hit10", hit10);
    v.set("peak_rss_mb", peak_rss_mb);
    v.into_metrics(END_TO_END)
}
