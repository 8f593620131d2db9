//! Property-based verification of the autograd engine: every differentiable
//! op must agree with central finite differences on random inputs, and core
//! algebraic identities must hold.

use akg_tensor::{gradcheck, Tensor};
use proptest::prelude::*;

fn vec_strategy(len: usize) -> impl Strategy<Value = Vec<f32>> {
    proptest::collection::vec(-2.0f32..2.0, len)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn add_mul_grads_match_fd(a in vec_strategy(6), b in vec_strategy(6)) {
        let x = Tensor::from_vec(a, &[6]).requires_grad(true);
        let y = Tensor::from_vec(b, &[6]).requires_grad(true);
        let report = gradcheck(&[x, y], |ls| ls[0].add(&ls[1]).mul(&ls[0]).sum_all(), 1e-2);
        prop_assert!(report.passes(2e-2), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn matmul_grads_match_fd(a in vec_strategy(6), b in vec_strategy(6)) {
        let x = Tensor::from_vec(a, &[2, 3]).requires_grad(true);
        let y = Tensor::from_vec(b, &[3, 2]).requires_grad(true);
        let report = gradcheck(&[x, y], |ls| ls[0].matmul(&ls[1]).square().sum_all(), 1e-2);
        prop_assert!(report.passes(3e-2), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn softmax_grads_match_fd(a in vec_strategy(6)) {
        let x = Tensor::from_vec(a, &[2, 3]).requires_grad(true);
        let report = gradcheck(&[x], |ls| ls[0].softmax_rows().square().sum_all(), 1e-2);
        prop_assert!(report.passes(3e-2), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn elu_gelu_grads_match_fd(a in vec_strategy(5)) {
        // keep away from the ELU kink at 0
        let shifted: Vec<f32> = a.iter().map(|v| if v.abs() < 0.05 { v + 0.1 } else { *v }).collect();
        let x = Tensor::from_vec(shifted, &[5]).requires_grad(true);
        let report = gradcheck(&[x], |ls| ls[0].elu().gelu().sum_all(), 1e-2);
        prop_assert!(report.passes(3e-2), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn cross_entropy_grads_match_fd(a in vec_strategy(8), t in 0usize..4) {
        let x = Tensor::from_vec(a, &[2, 4]).requires_grad(true);
        let targets = [t, 3 - t.min(3)];
        let report = gradcheck(&[x], |ls| ls[0].cross_entropy(&targets), 1e-2);
        prop_assert!(report.passes(3e-2), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn gather_scatter_grads_match_fd(a in vec_strategy(8)) {
        let x = Tensor::from_vec(a, &[4, 2]).requires_grad(true);
        let report = gradcheck(
            &[x],
            |ls| {
                ls[0]
                    .index_select_rows(&[0, 2, 2, 3])
                    .scatter_add_rows(&[1, 0, 1, 1], 3)
                    .square()
                    .sum_all()
            },
            1e-2,
        );
        prop_assert!(report.passes(3e-2), "max rel err {}", report.max_rel_error);
    }

    #[test]
    fn softmax_rows_always_sum_to_one(a in vec_strategy(12)) {
        let x = Tensor::from_vec(a, &[3, 4]);
        let y = x.softmax_rows().to_vec();
        for r in 0..3 {
            let s: f32 = y[r * 4..(r + 1) * 4].iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-4);
        }
    }

    #[test]
    fn addition_commutes(a in vec_strategy(6), b in vec_strategy(6)) {
        let x = Tensor::from_vec(a, &[6]);
        let y = Tensor::from_vec(b, &[6]);
        prop_assert_eq!(x.add(&y).to_vec(), y.add(&x).to_vec());
    }

    #[test]
    fn matmul_distributes_over_add(a in vec_strategy(4), b in vec_strategy(4), c in vec_strategy(4)) {
        let x = Tensor::from_vec(a, &[2, 2]);
        let y = Tensor::from_vec(b, &[2, 2]);
        let z = Tensor::from_vec(c, &[2, 2]);
        let lhs = x.matmul(&y.add(&z)).to_vec();
        let rhs = x.matmul(&y).add(&x.matmul(&z)).to_vec();
        for (l, r) in lhs.iter().zip(&rhs) {
            prop_assert!((l - r).abs() < 1e-4);
        }
    }

    #[test]
    fn grad_linear_in_seed(a in vec_strategy(4)) {
        // d(2L)/dx == 2 * dL/dx
        let x1 = Tensor::from_vec(a.clone(), &[4]).requires_grad(true);
        let l1 = x1.square().sum_all();
        l1.backward();
        let g1 = x1.grad().unwrap();

        let x2 = Tensor::from_vec(a, &[4]).requires_grad(true);
        let l2 = x2.square().sum_all().mul_scalar(2.0);
        l2.backward();
        let g2 = x2.grad().unwrap();
        for (a, b) in g1.iter().zip(&g2) {
            prop_assert!((2.0 * a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn concat_then_slice_is_identity(a in vec_strategy(6), b in vec_strategy(4)) {
        let x = Tensor::from_vec(a.clone(), &[3, 2]);
        let y = Tensor::from_vec(b.clone(), &[2, 2]);
        let joined = Tensor::concat_rows(&[x, y]);
        prop_assert_eq!(joined.slice_rows(0, 3).to_vec(), a);
        prop_assert_eq!(joined.slice_rows(3, 5).to_vec(), b);
    }
}
