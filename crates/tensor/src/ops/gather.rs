//! Row gathers and scatters: embedding lookups and the index plumbing behind
//! the hierarchical message-passing layer.
//!
//! The forwards are the inference plane's [`gather_rows_into`] and
//! [`scatter_add_rows_into`] — one kernel for both planes. The accumulating
//! sides (scatter-add forward, gather backward) add whole rows through the
//! lane-exact SIMD primitive when the SIMD backend is active — bit-identical
//! to the scalar loops, since each destination row still receives its
//! contributions in the same source order.

use crate::inference::{gather_rows_into, scatter_add_rows_into};
use crate::ops::simd;
use crate::tensor::Tensor;

impl Tensor {
    /// Gathers rows of an `[m, n]` tensor by index, producing `[k, n]`.
    /// Indices may repeat; gradients scatter-add back (this is exactly an
    /// embedding lookup, so the KG token-embedding updates flow through it).
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or an index is out of bounds.
    pub fn index_select_rows(&self, indices: &[usize]) -> Tensor {
        let s = self.shape();
        assert_eq!(s.len(), 2, "index_select_rows: expected 2-D tensor");
        let (m, n) = (s[0], s[1]);
        for &idx in indices {
            assert!(idx < m, "index_select_rows: index {idx} out of bounds for {m} rows");
        }
        let mut data = vec![0.0f32; indices.len() * n];
        self.with_data(|a| gather_rows_into(&mut data, a, n, indices));
        let idx = indices.to_vec();
        let k = indices.len();
        Tensor::from_op(
            data,
            &[k, n],
            vec![self.clone()],
            Box::new(move |g| {
                let mut dx = vec![0.0f32; m * n];
                for (i, &id) in idx.iter().enumerate() {
                    simd::vadd_assign(&mut dx[id * n..(id + 1) * n], &g[i * n..(i + 1) * n]);
                }
                vec![dx]
            }),
        )
    }

    /// Scatter-adds the rows of an `[e, n]` tensor into an output of
    /// `out_rows` rows: `out[dst[i]] += self[i]`. Rows of the output that
    /// receive no contribution stay zero.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D, `dst.len()` mismatches the row count,
    /// or an index is out of bounds.
    pub fn scatter_add_rows(&self, dst: &[usize], out_rows: usize) -> Tensor {
        let s = self.shape();
        assert_eq!(s.len(), 2, "scatter_add_rows: expected 2-D tensor");
        let (e, n) = (s[0], s[1]);
        assert_eq!(dst.len(), e, "scatter_add_rows: dst length mismatch");
        for &d in dst {
            assert!(d < out_rows, "scatter_add_rows: index {d} out of bounds for {out_rows}");
        }
        let mut data = vec![0.0f32; out_rows * n];
        self.with_data(|a| scatter_add_rows_into(&mut data, a, n, dst));
        let dst_c = dst.to_vec();
        Tensor::from_op(
            data,
            &[out_rows, n],
            vec![self.clone()],
            Box::new(move |g| {
                let mut dx = vec![0.0f32; e * n];
                for (i, &d) in dst_c.iter().enumerate() {
                    dx[i * n..(i + 1) * n].copy_from_slice(&g[d * n..(d + 1) * n]);
                }
                vec![dx]
            }),
        )
    }

    /// Mean of gathered rows: `mean(self[indices])`, producing `[1, n]`.
    /// Convenience for turning a node's token embeddings into one node
    /// embedding.
    ///
    /// # Panics
    ///
    /// Panics if `indices` is empty or any index is out of bounds.
    pub fn mean_rows(&self, indices: &[usize]) -> Tensor {
        assert!(!indices.is_empty(), "mean_rows: empty index list");
        let picked = self.index_select_rows(indices);
        let n = picked.shape()[1];
        picked.mean_axis0().reshape(&[1, n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_select_gathers() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]);
        let y = x.index_select_rows(&[2, 0, 2]);
        assert_eq!(y.to_vec(), vec![5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    fn index_select_grad_scatter_adds() {
        let x = Tensor::from_vec(vec![0.0; 6], &[3, 2]).requires_grad(true);
        let y = x.index_select_rows(&[2, 0, 2]);
        y.sum_all().backward();
        // row 2 picked twice -> grad 2, row 0 once -> 1, row 1 never -> 0
        assert_eq!(x.grad().unwrap(), vec![1.0, 1.0, 0.0, 0.0, 2.0, 2.0]);
    }

    #[test]
    fn scatter_add_accumulates() {
        let src = Tensor::from_vec(vec![1.0, 1.0, 2.0, 2.0, 4.0, 4.0], &[3, 2]);
        let y = src.scatter_add_rows(&[1, 1, 0], 3);
        assert_eq!(y.to_vec(), vec![4.0, 4.0, 3.0, 3.0, 0.0, 0.0]);
    }

    #[test]
    fn scatter_add_grad_gathers() {
        let src = Tensor::from_vec(vec![0.0; 4], &[2, 2]).requires_grad(true);
        let y = src.scatter_add_rows(&[1, 1], 2);
        y.scale_rows(&[5.0, 7.0]).sum_all().backward();
        assert_eq!(src.grad().unwrap(), vec![7.0, 7.0, 7.0, 7.0]);
    }

    #[test]
    fn mean_rows_averages() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).requires_grad(true);
        let y = x.mean_rows(&[0, 1]);
        assert_eq!(y.shape(), vec![1, 2]);
        assert_eq!(y.to_vec(), vec![2.0, 3.0]);
        y.sum_all().backward();
        assert_eq!(x.grad().unwrap(), vec![0.5; 4]);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_select_rejects_oob() {
        let x = Tensor::zeros(&[2, 2]);
        let _ = x.index_select_rows(&[5]);
    }
}
