//! Elementwise unary maps and activation functions.
//!
//! The polynomial maps (`square`, `abs`) run their forward pass through the
//! lane-exact SIMD primitives when the SIMD backend is active — identical
//! results, wider execution.
//!
//! ELU, the GNN activation (Eq. 4), runs through one slice kernel,
//! `elu_slice`, on both planes. Under
//! [`Backend::Simd`](crate::backend::Backend::Simd) it uses an AVX2 `exp`
//! (range reduction plus polynomial) instead of libm, so Simd ELU differs
//! from Scalar ELU for `x ≤ 0` by that `exp`'s error: at most 1 ULP of
//! `eˣ` against libm, swept over every non-positive `f32` (exact for
//! `x > 0`; ±0, subnormals, `−∞ → −alpha` and NaN → NaN hold on both
//! backends). The other transcendental maps (`exp`, `ln`, `gelu`) run libm
//! on both backends; GELU, the temporal encoder's activation, also runs
//! through one slice kernel, `gelu_slice`, on both planes.

use crate::ops::simd;
use crate::tensor::Tensor;

/// ELU over a slice in place — the one kernel behind both
/// [`Tensor::elu_with_alpha`] and the inference plane's
/// [`elu_inplace`](crate::inference::elu_inplace), so the two planes are
/// bit-identical per backend by construction. `x` for `x > 0`, otherwise
/// `alpha · (eˣ − 1)`; when `deriv` is given it receives the derivative
/// from the same `eˣ` (`1`, or `alpha · eˣ`), which is what lets the
/// autograd op skip a second `exp` in its backward.
///
/// `eˣ` is libm's under the Scalar backend and the vector kernel's under
/// Simd (see the module docs for the bound between them).
pub(crate) fn elu_slice(x: &mut [f32], alpha: f32, mut deriv: Option<&mut [f32]>) {
    if simd::try_elu(x, alpha, deriv.as_deref_mut()) {
        return;
    }
    for (i, v) in x.iter_mut().enumerate() {
        let (y, dy) = if *v > 0.0 {
            (*v, 1.0)
        } else {
            let e = v.exp();
            (alpha * (e - 1.0), alpha * e)
        };
        *v = y;
        if let Some(d) = deriv.as_deref_mut() {
            d[i] = dy;
        }
    }
}

/// `sqrt(2/pi)` of the tanh-approximated GELU.
const GELU_C: f32 = 0.797_884_6;

/// The `tanh` term of the tanh-approximated GELU at `x` (libm on both
/// backends).
#[inline]
fn gelu_tanh(x: f32) -> f32 {
    (GELU_C * (x + 0.044715 * x * x * x)).tanh()
}

/// GELU (tanh approximation) over a slice in place — the one kernel behind
/// both [`Tensor::gelu`] and the inference plane's
/// [`gelu_inplace`](crate::inference::gelu_inplace), so the two planes are
/// bit-identical by construction. When `deriv` is given it receives the
/// derivative from the same `tanh`, which is what lets the autograd op's
/// backward call no libm; without it no derivative is computed.
pub(crate) fn gelu_slice(x: &mut [f32], deriv: Option<&mut [f32]>) {
    match deriv {
        None => {
            for v in x.iter_mut() {
                *v = 0.5 * *v * (1.0 + gelu_tanh(*v));
            }
        }
        Some(d) => {
            assert_eq!(d.len(), x.len(), "gelu_slice: deriv length mismatch");
            for (v, dv) in x.iter_mut().zip(d) {
                let (xi, t) = (*v, gelu_tanh(*v));
                let dt = (1.0 - t * t) * GELU_C * (1.0 + 3.0 * 0.044715 * xi * xi);
                *dv = 0.5 * (1.0 + t) + 0.5 * xi * dt;
                *v = 0.5 * xi * (1.0 + t);
            }
        }
    }
}

/// Builds a unary elementwise op from a whole-slice forward map (so the
/// forward can be vectorized) and a per-element derivative that receives
/// the *input* value.
fn unary_from_slice<F, D>(x: &Tensor, f: F, df: D) -> Tensor
where
    F: Fn(&[f32]) -> Vec<f32>,
    D: Fn(f32) -> f32 + 'static,
{
    let input = x.to_vec();
    let data = f(&input);
    Tensor::from_op(
        data,
        &x.shape(),
        vec![x.clone()],
        Box::new(move |g| vec![g.iter().zip(&input).map(|(gi, xi)| gi * df(*xi)).collect()]),
    )
}

/// Builds a unary elementwise op from a per-element forward map and a
/// derivative that receives the *input* value.
fn unary_from_input<F, D>(x: &Tensor, f: F, df: D) -> Tensor
where
    F: Fn(f32) -> f32,
    D: Fn(f32) -> f32 + 'static,
{
    unary_from_slice(x, |xs| xs.iter().copied().map(&f).collect(), df)
}

impl Tensor {
    /// Elementwise negation.
    pub fn neg(&self) -> Tensor {
        self.mul_scalar(-1.0)
    }

    /// Elementwise natural exponent.
    pub fn exp(&self) -> Tensor {
        unary_from_input(self, |x| x.exp(), |x| x.exp())
    }

    /// Elementwise natural logarithm.
    pub fn ln(&self) -> Tensor {
        unary_from_input(self, |x| x.ln(), |x| 1.0 / x)
    }

    /// Elementwise square root.
    pub fn sqrt(&self) -> Tensor {
        unary_from_input(self, |x| x.sqrt(), |x| 0.5 / x.sqrt())
    }

    /// Elementwise square.
    pub fn square(&self) -> Tensor {
        unary_from_slice(self, |xs| simd::vmul(xs, xs), |x| 2.0 * x)
    }

    /// Elementwise reciprocal `1/x`.
    pub fn recip(&self) -> Tensor {
        unary_from_input(self, |x| 1.0 / x, |x| -1.0 / (x * x))
    }

    /// Elementwise absolute value. The derivative at zero is taken as 0.
    pub fn abs(&self) -> Tensor {
        unary_from_slice(self, simd::vabs, |x| {
            if x > 0.0 {
                1.0
            } else if x < 0.0 {
                -1.0
            } else {
                0.0
            }
        })
    }

    /// Exponential linear unit with `alpha = 1` (the activation used by the
    /// paper's GNN layers, Eq. 4).
    pub fn elu(&self) -> Tensor {
        self.elu_with_alpha(1.0)
    }

    /// Exponential linear unit: `x` for `x > 0`, `alpha * (e^x - 1)` otherwise.
    ///
    /// A tracked op stores the derivative at forward time (from the same
    /// `eˣ`), so its backward is one multiply per element and no `exp`.
    pub fn elu_with_alpha(&self, alpha: f32) -> Tensor {
        let mut data = self.to_vec();
        if !self.is_tracked() {
            elu_slice(&mut data, alpha, None);
            return Tensor::from_vec(data, &self.shape());
        }
        let mut deriv = vec![0.0f32; data.len()];
        elu_slice(&mut data, alpha, Some(&mut deriv));
        Tensor::from_op(
            data,
            &self.shape(),
            vec![self.clone()],
            Box::new(move |g| vec![g.iter().zip(&deriv).map(|(gi, di)| gi * di).collect()]),
        )
    }

    /// Gaussian error linear unit (tanh approximation), used by the temporal
    /// transformer's feed-forward block.
    ///
    /// A tracked op stores the derivative at forward time (from the same
    /// `tanh`), so its backward is one multiply per element.
    pub fn gelu(&self) -> Tensor {
        let mut data = self.to_vec();
        if !self.is_tracked() {
            gelu_slice(&mut data, None);
            return Tensor::from_vec(data, &self.shape());
        }
        let mut deriv = vec![0.0f32; data.len()];
        gelu_slice(&mut data, Some(&mut deriv));
        Tensor::from_op(
            data,
            &self.shape(),
            vec![self.clone()],
            Box::new(move |g| vec![g.iter().zip(&deriv).map(|(gi, di)| gi * di).collect()]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(v: Vec<f32>) -> Tensor {
        let n = v.len();
        Tensor::from_vec(v, &[n]).requires_grad(true)
    }

    #[test]
    fn exp_ln_inverse() {
        let x = leaf(vec![0.5, 1.5]);
        let y = x.exp().ln();
        let out = y.to_vec();
        assert!((out[0] - 0.5).abs() < 1e-6);
        assert!((out[1] - 1.5).abs() < 1e-6);
    }

    #[test]
    fn elu_matches_definition() {
        let x = leaf(vec![-1.0, 2.0]);
        let y = x.elu();
        let out = y.to_vec();
        assert!((out[0] - ((-1.0f32).exp() - 1.0)).abs() < 1e-6);
        assert_eq!(out[1], 2.0);
        y.sum_all().backward();
        let g = x.grad().unwrap();
        assert!((g[0] - (-1.0f32).exp()).abs() < 1e-6);
        assert_eq!(g[1], 1.0);
    }

    /// ELU through the autograd op: forward values and the stored
    /// derivative (the gradient under a unit seed, `1 · d`, exact).
    fn elu_autograd(xs: &[f32]) -> (Vec<f32>, Vec<f32>) {
        let x = leaf(xs.to_vec());
        let y = x.elu();
        y.backward_with(&vec![1.0; xs.len()]);
        (y.to_vec(), x.grad().unwrap())
    }

    /// ELU through the inference plane.
    fn elu_infer(xs: &[f32]) -> Vec<f32> {
        let mut v = xs.to_vec();
        crate::inference::elu_inplace(&mut v);
        v
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn elu_edge_cases_hold_on_both_backends_and_planes() {
        use crate::backend::{backend, set_backend, Backend};
        let _guard = crate::backend::test_lock();
        let prev = backend();
        let tiny = f32::from_bits(1);
        let xs = [0.0, -0.0, tiny, -tiny, f32::NEG_INFINITY, f32::INFINITY, f32::NAN, 2.5, -1e-30];
        for b in [Backend::Scalar, Backend::Simd] {
            set_backend(b);
            let (y, d) = elu_autograd(&xs);
            assert_eq!(bits(&y), bits(&elu_infer(&xs)), "{b:?}: planes diverged");
            // ±0 and negative subnormals: eˣ = 1 exactly, so ELU is +0
            // and the derivative alpha.
            for i in [0, 1, 3] {
                assert_eq!(y[i].to_bits(), 0, "{b:?}: elu({:e}) = {:e}", xs[i], y[i]);
                assert_eq!(d[i], 1.0, "{b:?}: elu'({:e})", xs[i]);
            }
            // positive inputs (a subnormal, +∞, a normal) pass through
            for i in [2, 5, 7] {
                assert_eq!(y[i].to_bits(), xs[i].to_bits(), "{b:?}: elu({:e})", xs[i]);
                assert_eq!(d[i], 1.0, "{b:?}: elu'({:e})", xs[i]);
            }
            assert_eq!((y[4], d[4]), (-1.0, 0.0), "{b:?}: elu(−∞)");
            assert!(y[6].is_nan() && d[6].is_nan(), "{b:?}: NaN must stay NaN");
            assert_eq!((y[8], d[8]), (0.0, 1.0), "{b:?}: elu(−1e−30)");
        }
        set_backend(prev);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// Both planes agree bitwise per backend; positive inputs pass
        /// through exactly on both backends; on `x ≤ 0` Simd differs from
        /// Scalar only by the vector `exp`'s ≤ 1 ULP of `eˣ` — in the
        /// derivative `alpha · eˣ` directly, and in `alpha · (eˣ − 1)`
        /// after one rounding of the difference (exact for `eˣ ∈ [½, 1]`,
        /// at most one ULP of the result below that).
        #[test]
        fn simd_elu_tracks_scalar_elu(
            neg in proptest::collection::vec(-120.0f32..=0.0, 37),
            pos in proptest::collection::vec(1e-30f32..1e30, 37),
        ) {
            use crate::backend::{backend, set_backend, Backend};
            let _guard = crate::backend::test_lock();
            let prev = backend();
            let xs: Vec<f32> = neg.iter().chain(&pos).copied().collect();
            let mut runs = Vec::new();
            for b in [Backend::Scalar, Backend::Simd] {
                set_backend(b);
                let (y, d) = elu_autograd(&xs);
                proptest::prop_assert_eq!(bits(&y), bits(&elu_infer(&xs)));
                runs.push((y, d));
            }
            set_backend(prev);
            let ((ys, ds), (yv, dv)) = (&runs[0], &runs[1]);
            for (i, x) in xs.iter().enumerate() {
                if *x > 0.0 {
                    proptest::prop_assert_eq!((yv[i], dv[i]), (*x, 1.0));
                    continue;
                }
                // one ULP (the step above), measured on the scalar results
                let ulp = |v: f32| f32::from_bits(v.abs().to_bits() + 1) - v.abs();
                proptest::prop_assert!((dv[i] - ds[i]).abs() <= ulp(ds[i]), "elu'({x:e})");
                let bound = ulp(ds[i]).max(ulp(ys[i]));
                proptest::prop_assert!((yv[i] - ys[i]).abs() <= bound, "elu({x:e})");
            }
        }
    }

    #[test]
    fn sqrt_grad() {
        let x = leaf(vec![4.0]);
        let y = x.sqrt();
        assert_eq!(y.item(), 2.0);
        y.backward();
        assert!((x.grad().unwrap()[0] - 0.25).abs() < 1e-6);
    }

    #[test]
    fn abs_grad_sign() {
        let x = leaf(vec![-3.0, 0.0, 2.0]);
        let y = x.abs().sum_all();
        assert_eq!(y.item(), 5.0);
        y.backward();
        assert_eq!(x.grad().unwrap(), vec![-1.0, 0.0, 1.0]);
    }

    #[test]
    fn gelu_stored_derivative_equals_recomputed_tanh_derivative_bitwise() {
        let xs: Vec<f32> = (-400..=400).map(|i| i as f32 * 0.0173).collect();
        let x = leaf(xs.clone());
        let y = x.gelu();
        let g: Vec<f32> = (0..xs.len()).map(|i| 1.0 + (i % 7) as f32 * 0.25).collect();
        y.backward_with(&g);
        // Reference: the derivative recomputed from the input value with a
        // second `tanh` per element.
        let expected: Vec<u32> = xs
            .iter()
            .zip(&g)
            .map(|(&x, gi)| {
                let t = (GELU_C * (x + 0.044715 * x * x * x)).tanh();
                let dt = (1.0 - t * t) * GELU_C * (1.0 + 3.0 * 0.044715 * x * x);
                (gi * (0.5 * (1.0 + t) + 0.5 * x * dt)).to_bits()
            })
            .collect();
        let got: Vec<u32> = x.grad().unwrap().iter().map(|v| v.to_bits()).collect();
        assert_eq!(got, expected);
        // The serving form (no derivative) computes the same forward bits.
        let mut forward = xs;
        gelu_slice(&mut forward, None);
        assert_eq!(bits(&y.to_vec()), bits(&forward));
    }

    #[test]
    fn gelu_close_to_relu_for_large_inputs() {
        let x = leaf(vec![10.0, -10.0]);
        let y = x.gelu().to_vec();
        assert!((y[0] - 10.0).abs() < 1e-3);
        assert!(y[1].abs() < 1e-3);
    }
}
