//! # akg-core
//!
//! The paper's contribution: the lightweight hierarchical-GNN decision model
//! over mission-specific knowledge graphs, and — the headline — **continuous
//! KG adaptive learning on edge devices** (DATE 2025,
//! "Continuous GNN-based Anomaly Detection on Edge using Efficient Adaptive
//! Knowledge Graph Learning").
//!
//! Pipeline (paper Fig. 2):
//!
//! - **(A)** mission-specific KG generation — [`akg_kg`] with the synthetic
//!   oracle,
//! - **(B)** decision-model training — [`model`], [`loss`], [`train`],
//! - **(C)** deployment + continuous adaptation — [`adapt`]: top-`K`
//!   pseudo-anomalies with `K = |Δm| · N`, token-embedding-only updates, and
//!   the Fig. 4 prune/create rule; [`retrieval`] decodes the adapted
//!   embeddings back to words.
//!
//! ## Quick start
//!
//! ```
//! use akg_core::adapt::{AdaptConfig, ContinuousAdapter};
//! use akg_core::engine::Engine;
//! use akg_core::pipeline::SystemConfig;
//! use akg_kg::AnomalyClass;
//!
//! // One shared engine; one session per stream.
//! let engine = Engine::build(&[AnomalyClass::Stealing], &SystemConfig::default());
//! let mut session = engine.new_session(7);
//! let frame = akg_data::Frame { concepts: vec![("walking".into(), 1.0)], label: None };
//! let embedding = engine.embed_frame(&mut session, &frame);
//! let window = vec![embedding; engine.config().window];
//! let score = engine.score_window(&session, &window);
//! assert!((0.0..=1.0).contains(&score));
//!
//! // Continuous adaptation: the adapter scores each frame and adapts the
//! // session's KGs when the score distribution shifts.
//! let mut adapter = ContinuousAdapter::attach(&engine, &mut session, AdaptConfig::default());
//! let score = adapter.observe(&engine, &mut session, &frame);
//! assert!((0.0..=1.0).contains(&score));
//! ```
//!
//! Initial training ([`train::train_decision_model`]) runs on a
//! [`pipeline::MissionSystem`], an engine plus one session. For
//! multi-stream serving, see the `akg-runtime` crate.

#![warn(missing_docs)]

pub mod adapt;
pub mod config;
pub mod engine;
pub mod experiment;
pub mod loss;
pub mod model;
pub mod persist;
pub mod pipeline;
pub mod retrieval;
pub mod tokenize;
pub mod train;

pub use adapt::{AdaptConfig, AdaptEvent, ContinuousAdapter};
pub use config::{ModelConfig, TrainConfig};
pub use engine::{CowVec, Engine, Session};
pub use experiment::{
    run_retrieval_drift, run_trend_shift, RetrievalDriftParams, RetrievalDriftResult,
    TrendShiftCurve, TrendShiftParams, TrendShiftResult,
};
pub use model::{DecisionModel, HierarchicalGnn, KgLayout};
pub use persist::{
    checkpoint_session, restore_session, SessionCheckpoint, SESSION_CHECKPOINT_FORMAT,
};
pub use pipeline::{MissionSystem, SystemConfig};
pub use retrieval::{InterpretableRetrieval, RetrievedWord};
pub use tokenize::{TokenTable, TokenizedKg};
pub use train::{train_decision_model, TrainReport};
