//! Regenerates **Table I**: detailed computational and performance
//! comparison between the baseline (cloud-based KG updates with GPT-4) and
//! the proposed method (edge-based KG adaptation).
//!
//! Cloud-side constants are the paper's published numbers (our simulator has
//! no GPT-4 to measure); edge-side numbers are *measured* from this
//! implementation: analytic FLOPs from the deployed model's dimensions and
//! wall-clock from an actual adaptation loop.
//!
//! Usage: `table1_cost [--seed N]`

use akg_bench::experiment_dataset;
use akg_core::adapt::{AdaptConfig, ContinuousAdapter, EPOCHS_PER_TRIGGER};
use akg_core::experiment::{run_trend_shift, TrendShiftParams};
use akg_core::pipeline::MissionSystem;
use akg_core::train::train_decision_model;
use akg_cost::{BaselineMeasurement, CloudBaseline, CostReport, EdgeDevice, EdgeMeasurement};
use akg_data::AdaptationStream;
use akg_kg::AnomalyClass;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let seed = args
        .iter()
        .position(|a| a == "--seed")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(43u64);

    // Scenario of the paper: anomaly trend alternates Stealing <-> Robbery;
    // the proposed method adapts on-device, the baseline would regenerate
    // the KG in the cloud 4x/month.
    let initial = AnomalyClass::Stealing;
    let shifted = AnomalyClass::Robbery;
    let ds = experiment_dataset(&[initial, shifted], seed);

    // --- measured: average AUC of the adaptive system over the scenario ---
    let mut params = TrendShiftParams::quick(initial, shifted);
    params.seed = seed;
    params.system.seed = seed;
    params.train = params.train.with_seed(seed);
    let shift_result = run_trend_shift(&ds, &params);
    let adaptive_auc = shift_result.adaptive.mean_auc();
    // The baseline regenerates a fresh mission KG at each trend change: its
    // AUC is the adaptive system's *pre-shift* level throughout.
    let baseline_auc = shift_result.initial_auc;

    // --- measured: FLOPs of one daily adaptation loop -----------------------
    let mut sys = MissionSystem::build(&[initial], &params.system);
    let train_videos: Vec<&akg_data::Video> =
        ds.train.iter().filter(|v| v.class.is_none() || v.class == Some(initial)).collect();
    train_decision_model(&mut sys, &train_videos, &params.train);
    let MissionSystem { engine, mut session } = sys;
    let dims = engine.cost_dims(&session);
    let adapt_cfg = AdaptConfig::default();
    // One trigger: K pseudo-anomaly + 2K pseudo-normal windows over the
    // buffer, each distinct buffered frame through the GNNs once per epoch.
    let windows = 3 * adapt_cfg.max_k;
    let frames = (windows * dims.window).min(adapt_cfg.n_window);
    let flops_per_day = EPOCHS_PER_TRIGGER as u64
        * dims.adaptation_step_flops(frames, windows, session.adapted_token_entries());

    // --- measured: wall-clock of one adaptation loop ------------------------
    // Engineer a genuine trigger: anchor the score reference on the trained
    // mission's anomalies, then stream normals so the mean drops and
    // K = |Δm|·N fires — then time the full loop (selection + token-update
    // backprop + drift check).
    let cfg = AdaptConfig { interval: usize::MAX, ..adapt_cfg };
    let mut adapter = ContinuousAdapter::attach(&engine, &mut session, cfg);
    let mut anomalies = AdaptationStream::new(&ds, initial, 1.0, seed);
    for _ in 0..cfg.n_window {
        let (frame, _) = anomalies.next_frame();
        adapter.observe(&engine, &mut session, &frame);
    }
    let mut normals = AdaptationStream::new(&ds, initial, 0.0, seed ^ 1);
    for _ in 0..cfg.n_window / 2 {
        let (frame, _) = normals.next_frame();
        adapter.observe(&engine, &mut session, &frame);
    }
    let start = Instant::now();
    let k = adapter.adapt_now(&engine, &mut session);
    let adaptation_seconds = start.elapsed().as_secs_f64();
    eprintln!("(timed adaptation used K = {k} pseudo-anomalies)");

    let report = CostReport::build(
        &CloudBaseline::default(),
        &EdgeDevice::default(),
        &BaselineMeasurement { average_auc: baseline_auc },
        &EdgeMeasurement {
            adaptation_flops_per_day: flops_per_day,
            adaptations_per_day: 1,
            average_auc: adaptive_auc,
            adaptation_seconds,
            model_bytes_f32: engine.model.weight_matrix_bytes_f32(),
            model_bytes_int8: engine.model.weight_matrix_bytes_int8(),
        },
    );
    println!("Table I reproduction — baseline (cloud KG updates) vs proposed (edge KG adaptation)");
    println!("(edge FLOPs/AUC/latency measured from this implementation; cloud constants from the paper)\n");
    println!("{}", report.render());
}
