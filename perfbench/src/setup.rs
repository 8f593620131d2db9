//! Set-up: the synthetic dataset, the engine, and its initial training —
//! everything that must happen before the first frame can be served. The
//! detector is the same for every `--seed`: the seed shapes only the
//! workload's inputs, so runs differ in what they serve, not in what serves.
//!
//! Kernels run single-threaded (`Parallelism::Sequential`, a process-wide
//! setting applied by the build). On a 2-vCPU VM the default `Auto` spawns
//! a scoped thread per large kernel call; with both vCPUs busy the host
//! steals 15–19% of CPU time and `adaptive` throughput halves, swinging by
//! 2× with neighbour load. One serving thread keeps the measurement about
//! the program.

use crate::feed::{SHIFTED_CLASS, TRAINED_CLASS};
use akg_core::config::TrainConfig;
use akg_core::engine::Engine;
use akg_core::pipeline::{MissionSystem, SystemConfig};
use akg_core::train::train_decision_model;
use akg_data::{DatasetConfig, SyntheticUcfCrime};
use akg_tensor::Parallelism;
use std::sync::Arc;
use std::time::Instant;

/// Dataset seed of the trained detector.
const DATASET_SEED: u64 = 7;

/// Wall time of each set-up stage, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// Synthetic dataset generation.
    pub dataset_s: f64,
    /// `MissionSystem::build` (tokenizer, joint space, KGs, model).
    pub engine_build_s: f64,
    /// `train_decision_model`.
    pub train_s: f64,
    /// Moving the engine into the serving target and registering streams
    /// or sessions.
    pub register_s: f64,
}

/// How big the trained detector's inputs are.
#[derive(Debug, Clone, Copy)]
pub struct TrainSize {
    /// `DatasetConfig::scaled` factor.
    pub dataset_scale: f64,
    /// Optimizer steps of the initial training.
    pub train_steps: usize,
}

impl TrainSize {
    /// The benchmark's detector: the repository's fast training recipe,
    /// shortened to 160 steps (which separates the classes at least as well
    /// as 240 and cuts set-up by a third), on a 2% UCF-Crime-sized
    /// synthetic split.
    pub const BENCH: TrainSize = TrainSize { dataset_scale: 0.02, train_steps: 160 };
}

/// Generates the dataset and builds and trains the engine, recording the
/// stage times into `times`.
pub fn trained_engine(size: TrainSize, times: &mut SetupTimes) -> (Engine, Arc<SyntheticUcfCrime>) {
    let t = Instant::now();
    let ds = Arc::new(SyntheticUcfCrime::generate(
        DatasetConfig::scaled(size.dataset_scale)
            .with_classes(&[TRAINED_CLASS, SHIFTED_CLASS])
            .with_seed(DATASET_SEED),
    ));
    times.dataset_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let config = SystemConfig { parallelism: Parallelism::Sequential, ..SystemConfig::default() };
    let mut sys = MissionSystem::build(&[TRAINED_CLASS], &config);
    times.engine_build_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let videos: Vec<&akg_data::Video> =
        ds.train.iter().filter(|v| v.class.is_none() || v.class == Some(TRAINED_CLASS)).collect();
    let recipe = TrainConfig { steps: size.train_steps, ..TrainConfig::fast() };
    train_decision_model(&mut sys, &videos, &recipe);
    times.train_s = t.elapsed().as_secs_f64();
    (sys.engine, ds)
}
