//! Row/column broadcasting arithmetic for 2-D tensors.
//!
//! `*_bias` variants broadcast a length-`n` vector across the rows of an
//! `[m, n]` matrix (per-feature); their backward computes a parent's
//! gradient only if that parent was tracked when the op was built (a
//! frozen bias or norm scale gets none). `*_col` variants broadcast a length-`m`
//! vector across the columns (per-row), which layer normalization needs.
//! The forwards of `add_bias` and `scale_rows` are the inference plane's
//! [`add_bias_rows`] and [`scale_rows_inplace`] — one kernel for both
//! planes.

use crate::inference::{add_bias_rows, scale_rows_inplace};
use crate::tensor::Tensor;

fn check_2d(x: &Tensor, op: &str) -> (usize, usize) {
    let shape = x.shape();
    assert_eq!(shape.len(), 2, "{op}: expected 2-D tensor, got {shape:?}");
    (shape[0], shape[1])
}

impl Tensor {
    /// Adds a length-`n` vector to every row of an `[m, n]` matrix.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not 2-D or `bias` is not `[n]`.
    pub fn add_bias(&self, bias: &Tensor) -> Tensor {
        let (m, n) = check_2d(self, "add_bias");
        assert_eq!(bias.shape(), vec![n], "add_bias: bias must be [n]");
        let mut data = self.to_vec();
        bias.with_data(|b| add_bias_rows(&mut data, b, n));
        let (x_tracked, b_tracked) = (self.is_tracked(), bias.is_tracked());
        Tensor::from_op(
            data,
            &[m, n],
            vec![self.clone(), bias.clone()],
            Box::new(move |g| {
                let dx = if x_tracked { g.to_vec() } else { Vec::new() };
                let mut db = Vec::new();
                if b_tracked {
                    db = vec![0.0f32; n];
                    for r in 0..m {
                        for c in 0..n {
                            db[c] += g[r * n + c];
                        }
                    }
                }
                vec![dx, db]
            }),
        )
    }

    /// Multiplies every row of an `[m, n]` matrix elementwise by a length-`n`
    /// vector (per-feature scaling, e.g. a norm layer's gamma).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not 2-D or `scale` is not `[n]`.
    pub fn mul_bias(&self, scale: &Tensor) -> Tensor {
        let (m, n) = check_2d(self, "mul_bias");
        assert_eq!(scale.shape(), vec![n], "mul_bias: scale must be [n]");
        let sc = scale.to_vec();
        let mut data = vec![0.0f32; m * n];
        self.with_data(|a| {
            for r in 0..m {
                for c in 0..n {
                    data[r * n + c] = a[r * n + c] * sc[c];
                }
            }
        });
        // dx reads the scale and ds the input: capture the input only when
        // the scale is tracked.
        let (x_tracked, s_tracked) = (self.is_tracked(), scale.is_tracked());
        let ac = if s_tracked { self.to_vec() } else { Vec::new() };
        Tensor::from_op(
            data,
            &[m, n],
            vec![self.clone(), scale.clone()],
            Box::new(move |g| {
                let mut dx = Vec::new();
                if x_tracked {
                    dx = vec![0.0f32; m * n];
                    for r in 0..m {
                        for c in 0..n {
                            dx[r * n + c] = g[r * n + c] * sc[c];
                        }
                    }
                }
                let mut ds = Vec::new();
                if s_tracked {
                    ds = vec![0.0f32; n];
                    for r in 0..m {
                        for c in 0..n {
                            ds[c] += g[r * n + c] * ac[r * n + c];
                        }
                    }
                }
                vec![dx, ds]
            }),
        )
    }

    /// Adds a length-`m` vector to every column of an `[m, n]` matrix
    /// (per-row offset).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not 2-D or `offsets` is not `[m]`.
    pub fn add_col(&self, offsets: &Tensor) -> Tensor {
        let (m, n) = check_2d(self, "add_col");
        assert_eq!(offsets.shape(), vec![m], "add_col: offsets must be [m]");
        let mut data = self.to_vec();
        let o = offsets.to_vec();
        for r in 0..m {
            for c in 0..n {
                data[r * n + c] += o[r];
            }
        }
        Tensor::from_op(
            data,
            &[m, n],
            vec![self.clone(), offsets.clone()],
            Box::new(move |g| {
                let mut dof = vec![0.0f32; m];
                for r in 0..m {
                    for c in 0..n {
                        dof[r] += g[r * n + c];
                    }
                }
                vec![g.to_vec(), dof]
            }),
        )
    }

    /// Multiplies every column of an `[m, n]` matrix elementwise by a
    /// length-`m` vector (per-row scaling).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not 2-D or `scale` is not `[m]`.
    pub fn mul_col(&self, scale: &Tensor) -> Tensor {
        let (m, n) = check_2d(self, "mul_col");
        assert_eq!(scale.shape(), vec![m], "mul_col: scale must be [m]");
        let a = self.to_vec();
        let s = scale.to_vec();
        let mut data = vec![0.0f32; m * n];
        for r in 0..m {
            for c in 0..n {
                data[r * n + c] = a[r * n + c] * s[r];
            }
        }
        let (ac, sc) = (a, s);
        Tensor::from_op(
            data,
            &[m, n],
            vec![self.clone(), scale.clone()],
            Box::new(move |g| {
                let mut dx = vec![0.0f32; m * n];
                let mut ds = vec![0.0f32; m];
                for r in 0..m {
                    for c in 0..n {
                        dx[r * n + c] = g[r * n + c] * sc[r];
                        ds[r] += g[r * n + c] * ac[r * n + c];
                    }
                }
                vec![dx, ds]
            }),
        )
    }

    /// Scales each row of an `[m, n]` matrix by a *constant*
    /// (non-differentiable) factor; used for mean-aggregation denominators
    /// and indicator masks in the hierarchical aggregate layer (Eq. 3).
    ///
    /// # Panics
    ///
    /// Panics if `self` is not 2-D or `factors.len() != m`.
    pub fn scale_rows(&self, factors: &[f32]) -> Tensor {
        let (m, n) = check_2d(self, "scale_rows");
        assert_eq!(factors.len(), m, "scale_rows: factors must have length m");
        let mut data = self.to_vec();
        scale_rows_inplace(&mut data, factors, n);
        let fc = factors.to_vec();
        Tensor::from_op(
            data,
            &[m, n],
            vec![self.clone()],
            Box::new(move |g| {
                let mut dx = vec![0.0f32; m * n];
                for r in 0..m {
                    for c in 0..n {
                        dx[r * n + c] = g[r * n + c] * fc[r];
                    }
                }
                vec![dx]
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_bias_broadcasts_rows() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).requires_grad(true);
        let b = Tensor::from_vec(vec![10.0, 20.0], &[2]).requires_grad(true);
        let y = x.add_bias(&b);
        assert_eq!(y.to_vec(), vec![11.0, 22.0, 13.0, 24.0]);
        y.sum_all().backward();
        assert_eq!(b.grad().unwrap(), vec![2.0, 2.0]);
        assert_eq!(x.grad().unwrap(), vec![1.0; 4]);
    }

    #[test]
    fn mul_bias_grads() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).requires_grad(true);
        let s = Tensor::from_vec(vec![2.0, 0.5], &[2]).requires_grad(true);
        let y = x.mul_bias(&s).sum_all();
        assert_eq!(y.item(), 2.0 + 1.0 + 6.0 + 2.0);
        y.backward();
        assert_eq!(x.grad().unwrap(), vec![2.0, 0.5, 2.0, 0.5]);
        assert_eq!(s.grad().unwrap(), vec![4.0, 6.0]);
    }

    #[test]
    fn add_col_broadcasts_cols() {
        let x = Tensor::from_vec(vec![0.0; 4], &[2, 2]).requires_grad(true);
        let o = Tensor::from_vec(vec![1.0, -1.0], &[2]).requires_grad(true);
        let y = x.add_col(&o);
        assert_eq!(y.to_vec(), vec![1.0, 1.0, -1.0, -1.0]);
        y.sum_all().backward();
        assert_eq!(o.grad().unwrap(), vec![2.0, 2.0]);
    }

    #[test]
    fn mul_col_grads() {
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[2, 2]).requires_grad(true);
        let s = Tensor::from_vec(vec![10.0, 100.0], &[2]).requires_grad(true);
        let y = x.mul_col(&s).sum_all();
        assert_eq!(y.item(), 10.0 + 20.0 + 300.0 + 400.0);
        y.backward();
        assert_eq!(x.grad().unwrap(), vec![10.0, 10.0, 100.0, 100.0]);
        assert_eq!(s.grad().unwrap(), vec![3.0, 7.0]);
    }

    #[test]
    fn scale_rows_constant() {
        let x = Tensor::from_vec(vec![1.0, 1.0, 1.0, 1.0], &[2, 2]).requires_grad(true);
        let y = x.scale_rows(&[0.5, 2.0]);
        assert_eq!(y.to_vec(), vec![0.5, 0.5, 2.0, 2.0]);
        y.sum_all().backward();
        assert_eq!(x.grad().unwrap(), vec![0.5, 0.5, 2.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "bias must be [n]")]
    fn add_bias_rejects_bad_len() {
        let x = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[2]);
        let _ = x.add_bias(&b);
    }
}
