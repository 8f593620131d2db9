//! Shape manipulation: reshape, concatenation, row/column slicing.

use crate::tensor::Tensor;

impl Tensor {
    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Panics
    ///
    /// Panics if the element counts differ.
    pub fn reshape(&self, shape: &[usize]) -> Tensor {
        let numel: usize = shape.iter().product();
        assert_eq!(self.numel(), numel, "reshape: {} -> {:?}", self.numel(), shape);
        Tensor::from_op(
            self.to_vec(),
            shape,
            vec![self.clone()],
            Box::new(move |g| vec![g.to_vec()]),
        )
    }

    /// Concatenates 2-D tensors along axis 0 (stacking rows).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty, any part is not 2-D, or the column counts
    /// disagree.
    pub fn concat_rows(parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_rows: empty input");
        let n = parts[0].shape()[1];
        let mut data = Vec::new();
        let mut row_counts = Vec::with_capacity(parts.len());
        for p in parts {
            let s = p.shape();
            assert_eq!(s.len(), 2, "concat_rows: parts must be 2-D");
            assert_eq!(s[1], n, "concat_rows: column mismatch {} vs {}", s[1], n);
            row_counts.push(s[0]);
            data.extend_from_slice(&p.to_vec());
        }
        let m: usize = row_counts.iter().sum();
        Tensor::from_op(
            data,
            &[m, n],
            parts.to_vec(),
            Box::new(move |g| {
                let mut grads = Vec::with_capacity(row_counts.len());
                let mut offset = 0usize;
                for &rows in &row_counts {
                    grads.push(g[offset..offset + rows * n].to_vec());
                    offset += rows * n;
                }
                grads
            }),
        )
    }

    /// Concatenates 2-D tensors along axis 1 (joining columns). All parts
    /// must have the same number of rows.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty, any part is not 2-D, or row counts
    /// disagree.
    pub fn concat_cols(parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_cols: empty input");
        let m = parts[0].shape()[0];
        let col_counts: Vec<usize> = parts
            .iter()
            .map(|p| {
                let s = p.shape();
                assert_eq!(s.len(), 2, "concat_cols: parts must be 2-D");
                assert_eq!(s[0], m, "concat_cols: row mismatch {} vs {}", s[0], m);
                s[1]
            })
            .collect();
        let n: usize = col_counts.iter().sum();
        let mut data = vec![0.0f32; m * n];
        let datas: Vec<Vec<f32>> = parts.iter().map(Tensor::to_vec).collect();
        for r in 0..m {
            let mut offset = 0usize;
            for (d, &cols) in datas.iter().zip(&col_counts) {
                data[r * n + offset..r * n + offset + cols]
                    .copy_from_slice(&d[r * cols..(r + 1) * cols]);
                offset += cols;
            }
        }
        Tensor::from_op(
            data,
            &[m, n],
            parts.to_vec(),
            Box::new(move |g| {
                let mut grads: Vec<Vec<f32>> =
                    col_counts.iter().map(|&c| vec![0.0f32; m * c]).collect();
                for r in 0..m {
                    let mut offset = 0usize;
                    for (gi, &cols) in grads.iter_mut().zip(&col_counts) {
                        gi[r * cols..(r + 1) * cols]
                            .copy_from_slice(&g[r * n + offset..r * n + offset + cols]);
                        offset += cols;
                    }
                }
                grads
            }),
        )
    }

    /// Concatenates 1-D tensors into one long vector (used to join the
    /// per-KG reasoning embeddings, `f_t = r_1 ⌢ r_2 ⌢ … ⌢ r_n`).
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or any part is not 1-D.
    pub fn concat_vecs(parts: &[Tensor]) -> Tensor {
        assert!(!parts.is_empty(), "concat_vecs: empty input");
        let mut data = Vec::new();
        let mut lens = Vec::with_capacity(parts.len());
        for p in parts {
            let s = p.shape();
            assert_eq!(s.len(), 1, "concat_vecs: parts must be 1-D, got {s:?}");
            lens.push(s[0]);
            data.extend_from_slice(&p.to_vec());
        }
        let total: usize = lens.iter().sum();
        Tensor::from_op(
            data,
            &[total],
            parts.to_vec(),
            Box::new(move |g| {
                let mut grads = Vec::with_capacity(lens.len());
                let mut offset = 0usize;
                for &len in &lens {
                    grads.push(g[offset..offset + len].to_vec());
                    offset += len;
                }
                grads
            }),
        )
    }

    /// Extracts rows `start..end` of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or the range is out of bounds.
    pub fn slice_rows(&self, start: usize, end: usize) -> Tensor {
        let s = self.shape();
        assert_eq!(s.len(), 2, "slice_rows: expected 2-D tensor");
        let (m, n) = (s[0], s[1]);
        assert!(start <= end && end <= m, "slice_rows: bad range {start}..{end} of {m}");
        let data = self.with_data(|a| a[start * n..end * n].to_vec());
        let rows = end - start;
        Tensor::from_op(
            data,
            &[rows, n],
            vec![self.clone()],
            Box::new(move |g| {
                let mut dx = vec![0.0f32; m * n];
                dx[start * n..end * n].copy_from_slice(g);
                vec![dx]
            }),
        )
    }

    /// Extracts columns `start..end` of a 2-D tensor.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or the range is out of bounds.
    pub fn slice_cols(&self, start: usize, end: usize) -> Tensor {
        let s = self.shape();
        assert_eq!(s.len(), 2, "slice_cols: expected 2-D tensor");
        let (m, n) = (s[0], s[1]);
        assert!(start <= end && end <= n, "slice_cols: bad range {start}..{end} of {n}");
        let cols = end - start;
        let mut data = vec![0.0f32; m * cols];
        self.with_data(|a| {
            for r in 0..m {
                data[r * cols..(r + 1) * cols].copy_from_slice(&a[r * n + start..r * n + end]);
            }
        });
        Tensor::from_op(
            data,
            &[m, cols],
            vec![self.clone()],
            Box::new(move |g| {
                let mut dx = vec![0.0f32; m * n];
                for r in 0..m {
                    dx[r * n + start..r * n + end].copy_from_slice(&g[r * cols..(r + 1) * cols]);
                }
                vec![dx]
            }),
        )
    }

    /// Flattens a 2-D row tensor `[1, n]` (or any shape) into a 1-D vector.
    pub fn flatten(&self) -> Tensor {
        let n = self.numel();
        self.reshape(&[n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reshape_preserves_data() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[4]).requires_grad(true);
        let y = x.reshape(&[2, 2]);
        assert_eq!(y.shape(), vec![2, 2]);
        y.sum_all().backward();
        assert_eq!(x.grad().unwrap(), vec![1.0; 4]);
    }

    #[test]
    fn concat_rows_splits_gradient() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[1, 2]).requires_grad(true);
        let b = Tensor::from_vec(vec![3.0, 4.0, 5.0, 6.0], &[2, 2]).requires_grad(true);
        let c = Tensor::concat_rows(&[a.clone(), b.clone()]);
        assert_eq!(c.shape(), vec![3, 2]);
        assert_eq!(c.to_vec(), vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        c.scale_rows(&[1.0, 2.0, 3.0]).sum_all().backward();
        assert_eq!(a.grad().unwrap(), vec![1.0, 1.0]);
        assert_eq!(b.grad().unwrap(), vec![2.0, 2.0, 3.0, 3.0]);
    }

    #[test]
    fn concat_cols_interleaves() {
        let a = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]).requires_grad(true);
        let b = Tensor::from_vec(vec![3.0, 4.0], &[2, 1]).requires_grad(true);
        let c = Tensor::concat_cols(&[a.clone(), b.clone()]);
        assert_eq!(c.to_vec(), vec![1.0, 3.0, 2.0, 4.0]);
        let mask = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]);
        c.mul(&mask).sum_all().backward();
        assert_eq!(a.grad().unwrap(), vec![1.0, 0.0]);
        assert_eq!(b.grad().unwrap(), vec![0.0, 1.0]);
    }

    #[test]
    fn concat_vecs_joins() {
        let a = Tensor::from_vec(vec![1.0], &[1]).requires_grad(true);
        let b = Tensor::from_vec(vec![2.0, 3.0], &[2]).requires_grad(true);
        let c = Tensor::concat_vecs(&[a.clone(), b.clone()]);
        assert_eq!(c.to_vec(), vec![1.0, 2.0, 3.0]);
        c.mul_const(&[1.0, 2.0, 3.0]).sum_all().backward();
        assert_eq!(a.grad().unwrap(), vec![1.0]);
        assert_eq!(b.grad().unwrap(), vec![2.0, 3.0]);
    }

    #[test]
    fn slice_rows_and_grad() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]).requires_grad(true);
        let y = x.slice_rows(2, 3);
        assert_eq!(y.to_vec(), vec![5.0, 6.0]);
        y.sum_all().backward();
        assert_eq!(x.grad().unwrap(), vec![0.0, 0.0, 0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn slice_cols_and_grad() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).requires_grad(true);
        let y = x.slice_cols(1, 2);
        assert_eq!(y.to_vec(), vec![2.0, 4.0]);
        y.sum_all().backward();
        assert_eq!(x.grad().unwrap(), vec![0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "bad range")]
    fn slice_rows_rejects_out_of_bounds() {
        let x = Tensor::zeros(&[2, 2]);
        let _ = x.slice_rows(1, 3);
    }
}
