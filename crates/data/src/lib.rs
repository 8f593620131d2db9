//! # akg-data
//!
//! Synthetic UCF-Crime-like video anomaly data for the `adaptive-kg`
//! reproduction. The real UCF-Crime dataset (1 900 untrimmed surveillance
//! videos, 13 anomaly classes) is replaced by a seeded generator that
//! matches the paper's split statistics and grounds every frame in concept
//! activations, so frame embeddings produced via
//! `akg_embed::JointSpace::embed_bag` land near the text concepts the frame
//! depicts.
//!
//! - [`video`]: frames as weighted concept activations; untrimmed videos
//!   with anomaly segments
//! - [`dataset`]: the 800/810 train, 150/140 test split of the paper
//! - [`stream`]: trend-shift deployment streams (Fig. 5 scenarios)
//!
//! ## Example
//!
//! ```
//! use akg_data::dataset::{DatasetConfig, SyntheticUcfCrime};
//! use akg_kg::AnomalyClass;
//!
//! let ds = SyntheticUcfCrime::generate(DatasetConfig::scaled(0.02));
//! assert!(!ds.train_videos_of(AnomalyClass::Stealing).is_empty());
//! ```

#![warn(missing_docs)]

pub mod dataset;
pub mod stream;
pub mod video;

pub use dataset::{DatasetConfig, SyntheticUcfCrime};
pub use stream::{AdaptationStream, OwnedAdaptationStream, ShiftScenario};
pub use video::{Frame, FrameError, Video, GENERIC_CONCEPTS, NORMAL_CONCEPTS};
