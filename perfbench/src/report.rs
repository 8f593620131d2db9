//! The correctness gate and the printed result: a detail line with sample
//! counts, digest and host sentinels, then the one-line JSON result.

use crate::procfs::ratio;
use crate::setup::SetupTimes;
use crate::stats::{median_f64, percentile};
use crate::trace::Layers;
use crate::{Args, Phase, Workload, AUC_FLOOR};

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// A finished run.
#[derive(Debug)]
pub struct Report {
    /// Whether every gate passed.
    pub correct: bool,
    /// Frames offered to the program.
    pub attempted: usize,
    /// Frames the program refused.
    pub failed: usize,
    /// The metrics the run reports (end-to-end or per-layer).
    pub metrics: Vec<Metric>,
    /// Gate violations.
    pub violations: Vec<String>,
    /// Context for a reader: counts, digests, host sentinels.
    pub detail: Vec<(&'static str, String)>,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn sum(ns: &[u64]) -> u128 {
    ns.iter().map(|&x| u128::from(x)).sum()
}

impl Report {
    /// Gates the phases and assembles the metrics.
    pub fn new(
        args: &Args,
        setup_s: &[f64],
        times: SetupTimes,
        peak_rss_mb: f64,
        untraced: Phase,
        traced: Option<Phase>,
    ) -> Report {
        let mut violations: Vec<String> = untraced.ledger.violations.clone();
        gate_workload(args.workload, &untraced, &mut violations);
        let auc = untraced.online_auc();
        if args.workload != Workload::Churn && auc < AUC_FLOOR {
            violations.push(format!("online AUC {auc:.4} is below {AUC_FLOOR}: untrained engine?"));
        }
        let mut detail = vec![
            ("workload", format!("{:?}", args.workload.name())),
            ("seed", args.seed.to_string()),
            ("digest", format!("{:?}", untraced.digest().hex())),
            ("repeats", untraced.repeats().to_string()),
            ("latency_samples", untraced.latencies_ns.len().to_string()),
            ("frames_scored", untraced.ledger.scored.to_string()),
            ("token_updates", untraced.token_updates.to_string()),
            ("replacements", untraced.replacements.to_string()),
            ("host_steal_frac", untraced.proc.steal_frac().to_string()),
            (
                "host_runqueue_wait_frac",
                untraced.proc.runqueue_wait_frac(untraced.wall_ns).to_string(),
            ),
        ];
        if let Some(t) = untraced.tier {
            let tier = format!(
                "{{\"hits\": {}, \"cold_starts\": {}, \"rehydrations\": {}, \"evictions\": {}, \"resident\": {}}}",
                t.hits, t.cold_starts, t.rehydrations, t.evictions, t.resident
            );
            detail.push(("tier", tier));
        }
        let (mut attempted, mut failed) = (untraced.ledger.attempted, untraced.ledger.failed);
        let metrics = match &traced {
            None => vec![
                Metric { name: "setup_s", value: median_f64(setup_s), unit: "s" },
                Metric {
                    name: "throughput_fps",
                    value: untraced.throughput_fps(),
                    unit: "frames/s",
                },
                Metric {
                    name: "latency_p50_ms",
                    value: ms(percentile(&untraced.latencies_ns, 0.50)),
                    unit: "ms",
                },
                Metric {
                    name: "latency_p99_ms",
                    value: ms(percentile(&untraced.latencies_ns, 0.99)),
                    unit: "ms",
                },
                Metric { name: "online_auc", value: auc, unit: "auc" },
                Metric { name: "peak_rss_mb", value: peak_rss_mb, unit: "MB" },
            ],
            Some(t) => {
                violations.extend(t.ledger.violations.iter().cloned());
                gate_workload(args.workload, t, &mut violations);
                gate_trace(&untraced, t, &mut violations);
                attempted += t.ledger.attempted;
                failed += t.ledger.failed;
                detail.push(("traced_digest", format!("{:?}", t.digest().hex())));
                detail.push(("traced_repeats", t.repeats().to_string()));
                per_layer(&untraced, t, times)
            }
        };
        Report { correct: violations.is_empty(), attempted, failed, metrics, violations, detail }
    }

    /// The detail line (a JSON object under the key `detail`).
    pub fn detail_line(&self) -> String {
        let fields: Vec<String> = self.detail.iter().map(|(k, v)| format!("{k:?}: {v}")).collect();
        format!("{{\"detail\": {{{}}}}}", fields.join(", "))
    }

    /// The result line.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{:?}: {{\"value\": {}, \"unit\": {:?}}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// A JSON number (non-finite values, which JSON cannot hold, become -1).
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "-1".to_string()
    }
}

/// Checks that the phase exercised the layer its workload exists for.
fn gate_workload(workload: Workload, p: &Phase, violations: &mut Vec<String>) {
    match workload {
        Workload::Static if p.token_updates != 0 => {
            violations.push(format!("static served {} token updates", p.token_updates))
        }
        Workload::Adaptive if p.token_updates == 0 || p.replacements == 0 => {
            violations.push(format!(
                "adaptive served {} token updates and {} replacements; both must be positive",
                p.token_updates, p.replacements
            ))
        }
        Workload::Churn => {
            let t = p.tier.unwrap_or_default();
            if t.evictions == 0 || t.rehydrations == 0 {
                violations.push(format!(
                    "churn made {} evictions and {} rehydrations; both must be positive",
                    t.evictions, t.rehydrations
                ));
            }
        }
        _ => {}
    }
}

/// The traced phase must serve exactly what the untraced one served.
fn gate_trace(untraced: &Phase, traced: &Phase, violations: &mut Vec<String>) {
    if untraced.digest() != traced.digest()
        || untraced.prefix_scores.len() != traced.prefix_scores.len()
    {
        violations.push(format!(
            "traced digest {} differs from untraced {}",
            traced.digest().hex(),
            untraced.digest().hex()
        ));
    }
    // episode e serves the same feed in both phases
    for (e, (u, t)) in untraced.episodes.iter().zip(&traced.episodes).enumerate() {
        if u != t {
            violations.push(format!(
                "episode {e}: untraced digest {} with {}/{} updates/replacements, traced {} with {}/{}",
                u.0.hex(),
                u.1,
                u.2,
                t.0.hex(),
                t.1,
                t.2
            ));
        }
    }
}

fn per_layer(untraced: &Phase, traced: &Phase, times: SetupTimes) -> Vec<Metric> {
    let empty = Layers::default();
    let l = traced.layers.as_ref().unwrap_or(&empty);
    let wall = l.wall_ns as f64;
    let frac = |ns: u128| ratio(ns as f64, wall);
    let embed_ns = sum(&l.embed_ns);
    let attributed = embed_ns + l.score_ns + l.adapt_ns + l.tier_ns;
    let misses = l.tier_miss_ns.len();
    let hits = l.tier_hit_ns.len();
    let m = |name, value, unit| Metric { name, value, unit };
    vec![
        m("runtime.frames", l.runtime_frames as f64, "frames"),
        m("runtime.dispatches", l.runtime_dispatches as f64, "count"),
        m(
            "runtime.batch_mean",
            ratio(l.score_windows as f64, l.runtime_dispatches as f64),
            "windows",
        ),
        m("embed.calls", l.embed_ns.len() as f64, "count"),
        m("embed.ns_p50", percentile(&l.embed_ns, 0.5) as f64, "ns"),
        m("embed.busy_frac", frac(embed_ns), "frac"),
        m("score.windows", l.score_windows as f64, "count"),
        m("score.ns_per_window", ratio(l.score_ns as f64, l.score_windows as f64), "ns"),
        m("score.busy_frac", frac(l.score_ns), "frac"),
        m("adapt.checks", l.adapt_checks as f64, "count"),
        m("adapt.token_updates", l.adapt_token_updates as f64, "count"),
        m("adapt.replacements", l.adapt_replacements as f64, "count"),
        m(
            "adapt.trigger_ratio",
            ratio(l.adapt_token_updates as f64, l.adapt_checks as f64),
            "frac",
        ),
        m("adapt.update_ms_p50", ms(percentile(&l.adapt_update_ns, 0.5)), "ms"),
        m("adapt.update_ms_p99", ms(percentile(&l.adapt_update_ns, 0.99)), "ms"),
        m("adapt.busy_frac", frac(l.adapt_ns), "frac"),
        m(
            "adapt.overlay_bytes",
            ratio(l.overlay_growth.iter().sum::<usize>() as f64, l.overlay_growth.len() as f64),
            "bytes",
        ),
        m("tier.hits", hits as f64, "count"),
        m("tier.cold_starts", l.tier_cold_starts as f64, "count"),
        m("tier.rehydrations", (misses - l.tier_cold_starts.min(misses)) as f64, "count"),
        m("tier.evictions", l.tier_evictions as f64, "count"),
        m("tier.hit_ratio", ratio(hits as f64, (hits + misses) as f64), "frac"),
        m("tier.miss_ms_p50", ms(percentile(&l.tier_miss_ns, 0.5)), "ms"),
        m("tier.miss_ms_p99", ms(percentile(&l.tier_miss_ns, 0.99)), "ms"),
        m("tier.hit_ms_p50", ms(percentile(&l.tier_hit_ns, 0.5)), "ms"),
        m("tier.busy_frac", frac(l.tier_ns), "frac"),
        m("tier.miss_busy_frac", frac(sum(&l.tier_miss_ns)), "frac"),
        m("tier.checkpoint_bytes_mean", l.tier_checkpoint_bytes_mean, "bytes"),
        m("tier.rehydration_failures", l.tier_rehydration_failures as f64, "count"),
        m("setup.dataset_s", times.dataset_s, "s"),
        m("setup.engine_build_s", times.engine_build_s, "s"),
        m("setup.train_s", times.train_s, "s"),
        m("setup.register_s", times.register_s, "s"),
        m("proc.sys_cpu_frac", untraced.proc.sys_cpu_frac(), "frac"),
        m(
            "proc.minor_faults_per_frame",
            ratio(untraced.proc.minflt as f64, untraced.ledger.scored as f64),
            "faults/frame",
        ),
        m(
            "trace.overhead_frac",
            1.0 - ratio(traced.throughput_fps(), untraced.throughput_fps()),
            "frac",
        ),
        m("trace.unattributed_frac", ratio(wall - attributed as f64, wall), "frac"),
        m("host.steal_frac", untraced.proc.steal_frac(), "frac"),
        m("host.runqueue_wait_frac", untraced.proc.runqueue_wait_frac(untraced.wall_ns), "frac"),
    ]
}
