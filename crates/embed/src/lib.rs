//! # akg-embed
//!
//! BPE tokenizer and joint text/frame embedding space for the `adaptive-kg`
//! reproduction — the stand-in for the pre-trained ImageBind-Huge model and
//! its byte-pair-encoding vocabulary that the paper uses.
//!
//! The substitution preserves the two properties the paper's mechanism
//! relies on:
//!
//! 1. a *shared* space where synthetic video frames embed near the text
//!    concepts they depict ([`JointSpace::embed_bag`] vs
//!    [`JointSpace::embed_text`]), and
//! 2. a token-embedding table ([`JointSpace::token_table`]) whose rows the
//!    continuous-adaptation phase can fine-tune and whose nearest-neighbour
//!    structure interpretable retrieval decodes ([`similarity`]).
//!
//! ## Example
//!
//! ```
//! use akg_embed::{BpeTokenizer, JointSpaceBuilder};
//!
//! let tok = BpeTokenizer::train(["a person stealing a bag"; 4], 200);
//! let space = JointSpaceBuilder::new(16, 2, 7)
//!     .anchor("stealing", 0, 0.9)
//!     .build();
//! let table = space.token_table(tok.vocab());
//! assert_eq!(table.len(), tok.vocab().len() * 16);
//! ```

#![warn(missing_docs)]

pub mod bpe;
pub mod similarity;
pub mod space;
pub mod vocab;

pub use bpe::BpeTokenizer;
pub use similarity::{cosine, dot, euclidean, retrieve_top_k, Hit, Similarity};
pub use space::{JointSpace, JointSpaceBuilder};
pub use vocab::{TokenId, Vocab};

use rand::rngs::StdRng;
use rand::Rng;

/// Samples a standard normal value via Box–Muller: the frame encoder's
/// observation noise ([`JointSpace::embed_bag`]) and the space's random
/// directions.
pub fn gaussian(rng: &mut StdRng) -> f32 {
    loop {
        let u1: f32 = rng.gen::<f32>();
        if u1 <= f32::MIN_POSITIVE {
            continue;
        }
        let u2: f32 = rng.gen::<f32>();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
    }
}
