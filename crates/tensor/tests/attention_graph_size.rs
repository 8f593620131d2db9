//! The temporal encoder's autograd forward builds a graph whose size does
//! not grow with the number of windows: attention is one node for all
//! sequences and heads, not a slice/matmul/softmax/concat chain per window
//! and head.
//!
//! Tensor ids come from a process-wide counter, so the count is only exact
//! while no other test creates tensors: this file holds a single test.

use akg_tensor::nn::attention::TransformerEncoder;
use akg_tensor::Tensor;
use rand::{rngs::StdRng, SeedableRng};

/// Tensors created by `f`, read off the id counter.
fn tensors_created(f: impl FnOnce()) -> u64 {
    let before = Tensor::scalar(0.0).id();
    f();
    Tensor::scalar(0.0).id() - before - 1
}

#[test]
fn encoder_graph_size_is_independent_of_the_window_count() {
    let (t, d) = (4, 8);
    let encoder = TransformerEncoder::new(d, 32, 4, &mut StdRng::seed_from_u64(3));
    let counts: Vec<u64> = [1usize, 32]
        .into_iter()
        .map(|windows| {
            let x = Tensor::from_vec(vec![0.25; windows * t * d], &[windows * t, d])
                .requires_grad(true);
            tensors_created(|| {
                encoder.forward_last_grouped(&x, windows);
            })
        })
        .collect();
    assert_eq!(counts[0], counts[1], "tensors for 1 vs 32 windows");
}
