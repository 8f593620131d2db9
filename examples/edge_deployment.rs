//! Edge-deployment cost accounting (paper Table I): what it costs to keep a
//! deployed detector current via on-device KG adaptation, against the
//! cloud-regeneration baseline — plus a short multi-stream serving run
//! demonstrating the fixed-memory inference data plane (serve counters and
//! workspace high-water mark).
//!
//! Run with: `cargo run --release --example edge_deployment`

use akg_core::adapt::{AdaptConfig, EPOCHS_PER_TRIGGER};
use akg_core::engine::Engine;
use akg_core::pipeline::SystemConfig;
use akg_cost::{BaselineMeasurement, CloudBaseline, CostReport, EdgeDevice, EdgeMeasurement};
use akg_data::{AdaptationStream, DatasetConfig, SyntheticUcfCrime};
use akg_kg::AnomalyClass;
use akg_runtime::{MultiStreamRuntime, RuntimeConfig};
use std::sync::Arc;

/// Runs a short batched multi-stream deployment and prints the serving
/// counters plus the inference workspace's allocation stats — the
/// fixed-memory story: the high-water mark is reached within the first few
/// ticks and never grows again.
fn serve_demo() {
    const STREAMS: usize = 4;
    const TICKS: usize = 64;
    let ds = Arc::new(SyntheticUcfCrime::generate(
        DatasetConfig::scaled(0.01).with_classes(&[AnomalyClass::Stealing]).with_seed(3),
    ));
    let engine = Engine::build(&[AnomalyClass::Stealing], &SystemConfig::default());
    let precision = engine.precision();
    let model_bytes = engine.model_bytes();
    let mut rt = MultiStreamRuntime::new(engine, RuntimeConfig::default());
    for s in 0..STREAMS {
        let source =
            AdaptationStream::owned(Arc::clone(&ds), AnomalyClass::Stealing, 0.3, 70 + s as u64);
        rt.add_stream(source, s as u64, AdaptConfig::default());
    }
    let _ = rt.run(TICKS / 2);
    let mid = rt.workspace_stats();
    let _ = rt.run(TICKS / 2);
    let end = rt.workspace_stats();

    let c = rt.counters();
    println!("\nserving demo ({STREAMS} streams, {TICKS} ticks, batched data plane):");
    println!("  engine: {model_bytes} model weight bytes served at {}", precision.name());
    println!(
        "  counters: {} frames | {} ticks | {} dispatches | max batch {} | {} token updates | {} \
         node replacements",
        c.frames, c.ticks, c.dispatches, c.max_batch_seen, c.token_updates, c.node_replacements
    );
    println!(
        "  workspace: {} buffers leased {} times | high-water {} KiB (mid-run {} KiB — fixed \
         footprint: {})",
        end.buffers_created,
        end.leases,
        end.high_water_bytes() / 1024,
        mid.high_water_bytes() / 1024,
        if end.high_water_bytes() == mid.high_water_bytes() { "yes" } else { "NO" }
    );
}

fn main() {
    let engine = Engine::build(&[AnomalyClass::Stealing], &SystemConfig::default());
    let session = engine.new_session(0);
    let dims = engine.cost_dims(&session);
    let token_entries = session.adapted_token_entries();

    println!("deployed model dimensions:");
    let kg = dims.kg;
    println!("  {} KG(s), {} nodes, {} edges, {} levels", dims.kgs, kg.nodes, kg.edges, kg.levels);
    println!("  ~{} parameters", dims.param_count());
    println!("  inference: {} FLOPs per frame window", dims.inference_flops());

    let adapt = AdaptConfig::default();
    // One trigger: K pseudo-anomaly + 2K pseudo-normal windows over the
    // buffer, each distinct buffered frame through the GNNs once per epoch.
    let windows = 3 * adapt.max_k;
    let frames = (windows * dims.window).min(adapt.n_window);
    let per_day =
        EPOCHS_PER_TRIGGER as u64 * dims.adaptation_step_flops(frames, windows, token_entries);
    println!(
        "  one daily adaptation loop: {per_day} FLOPs ({} epochs over {windows} windows, \
         {frames} frames, {} token entries)",
        EPOCHS_PER_TRIGGER, token_entries
    );

    let device = EdgeDevice::default();
    println!(
        "  energy per adaptation: {:.4} J at {} pJ/FLOP",
        device.energy_joules(per_day),
        device.joules_per_flop * 1e12
    );

    let report = CostReport::build(
        &CloudBaseline::default(),
        &device,
        &BaselineMeasurement { average_auc: 0.93 },
        &EdgeMeasurement {
            adaptation_flops_per_day: per_day,
            adaptations_per_day: 1,
            average_auc: 0.91,
            adaptation_seconds: 0.0,
            model_bytes_f32: engine.model.weight_matrix_bytes_f32(),
            model_bytes_int8: engine.model.weight_matrix_bytes_int8(),
        },
    );
    println!("\n{}", report.render());
    println!("note: the AUC rows above use the paper's reported values; run");
    println!("`cargo run --release -p akg-bench --bin table1_cost` for the fully measured table.");

    serve_demo();
}
