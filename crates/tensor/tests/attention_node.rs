//! The temporal encoder's attention node against its oracle: the composed
//! per-window chain it replaced, rebuilt here from public `Tensor` ops
//! (`slice_rows` per window; per head `slice_cols`, `matmul_t`, the fused
//! scaled and masked softmax and `matmul`; then `concat_cols` and
//! `concat_rows`). The node's output and the gradients it sends to `q`,
//! `k` and `v` must equal the chain's bit for bit, last-only and full-row
//! (causal), at 1..=20 windows and 1, 2 and 4 heads, under Scalar and
//! Simd. With 32 inner columns the heads are 32, 16 and 8 wide, so the
//! narrow `matmul_nt` (dot length 8) and the general one both run.

use akg_tensor::backend::{backend, set_backend, Backend};
use akg_tensor::nn::attention::grouped_attention;
use akg_tensor::Tensor;
use std::sync::{Mutex, MutexGuard};

/// Serializes the tests: they flip the process-wide backend.
static BACKEND_LOCK: Mutex<()> = Mutex::new(());

fn lock_backend() -> MutexGuard<'static, ()> {
    BACKEND_LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Runs `f` under Scalar, then Simd, restoring the previous backend.
fn for_each_backend(mut f: impl FnMut(Backend)) {
    let prev = backend();
    for b in [Backend::Scalar, Backend::Simd] {
        set_backend(b);
        f(b);
    }
    set_backend(prev);
}

/// Deterministic values of mixed sign and magnitude.
fn filled(len: usize, salt: u64) -> Vec<f32> {
    let mut state = salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            ((state >> 40) as f32 / (1u64 << 24) as f32 - 0.5) * 3.0
        })
        .collect()
}

/// The composed chain the node replaced.
fn oracle(q: &Tensor, k: &Tensor, v: &Tensor, windows: usize, heads: usize, last: bool) -> Tensor {
    let (rows, inner) = (k.shape()[0], k.shape()[1]);
    let t = rows / windows;
    let qt = if last { 1 } else { t };
    let dk = inner / heads;
    let scale = 1.0 / (dk as f32).sqrt();
    let mask: Option<Vec<f32>> =
        (!last).then(|| (0..t * t).map(|i| if i % t > i / t { -1e9 } else { 0.0 }).collect());
    let parts: Vec<Tensor> = (0..windows)
        .map(|w| {
            let qw = q.slice_rows(w * qt, (w + 1) * qt);
            let kw = k.slice_rows(w * t, (w + 1) * t);
            let vw = v.slice_rows(w * t, (w + 1) * t);
            let per_head: Vec<Tensor> = (0..heads)
                .map(|h| {
                    let (lo, hi) = (h * dk, (h + 1) * dk);
                    qw.slice_cols(lo, hi)
                        .matmul_t(&kw.slice_cols(lo, hi))
                        .softmax_rows_scaled_masked(scale, mask.as_deref())
                        .matmul(&vw.slice_cols(lo, hi))
                })
                .collect();
            Tensor::concat_cols(&per_head)
        })
        .collect();
    Tensor::concat_rows(&parts)
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Output bits and the `q`, `k`, `v` gradient bits (empty when a gradient
/// is absent) of `attend` on fresh leaves, seeded with `seed`.
type Run = (Vec<u32>, [Option<Vec<u32>>; 3]);

fn run(
    attend: &dyn Fn(&Tensor, &Tensor, &Tensor) -> Tensor,
    data: &[Vec<f32>; 3],
    shapes: [[usize; 2]; 3],
    tracked: [bool; 3],
    seed: &[f32],
) -> Run {
    let [q, k, v] =
        [0, 1, 2].map(|i| Tensor::from_vec(data[i].clone(), &shapes[i]).requires_grad(tracked[i]));
    let out = attend(&q, &k, &v);
    if tracked.contains(&true) {
        out.backward_with(seed);
    }
    (bits(&out.to_vec()), [&q, &k, &v].map(|x| x.grad().map(|g| bits(&g))))
}

fn check(windows: usize, t: usize, heads: usize, last: bool, tracked: [bool; 3], what: &str) {
    let inner = 32;
    let rows = windows * t;
    let q_rows = if last { windows } else { rows };
    let shapes = [[q_rows, inner], [rows, inner], [rows, inner]];
    let salt = (windows * 131 + t * 17 + heads * 3 + last as usize) as u64;
    let data = [0, 1, 2].map(|i| filled(shapes[i][0] * inner, salt * 7 + i as u64));
    let seed = filled(q_rows * inner, salt * 7 + 5);
    let node = run(
        &|q, k, v| grouped_attention(q, k, v, windows, heads, last),
        &data,
        shapes,
        tracked,
        &seed,
    );
    let chain =
        run(&|q, k, v| oracle(q, k, v, windows, heads, last), &data, shapes, tracked, &seed);
    assert_eq!(node.0, chain.0, "{what}: output diverged");
    for (i, name) in ["q", "k", "v"].iter().enumerate() {
        assert_eq!(node.1[i], chain.1[i], "{what}: d{name} diverged");
    }
}

#[test]
fn attention_node_is_bitwise_the_composed_chain() {
    let _guard = lock_backend();
    for_each_backend(|b| {
        for last in [true, false] {
            for heads in [1, 2, 4] {
                for windows in 1..=20 {
                    for t in [1, 4, 5] {
                        let what = format!("{b:?}, last {last}, {heads} head(s), {windows}×{t}");
                        check(windows, t, heads, last, [true; 3], &what);
                    }
                }
            }
        }
    });
}

/// An operand untracked when the node is built gets no gradient, and the
/// others still get the chain's bits.
#[test]
fn attention_node_skips_untracked_operands() {
    let _guard = lock_backend();
    for_each_backend(|b| {
        for mask in 0..8u32 {
            let tracked = [0, 1, 2].map(|i| mask & (1 << i) != 0);
            for last in [true, false] {
                let what = format!("{b:?}, tracked {tracked:?}, last {last}");
                check(3, 4, 4, last, tracked, &what);
            }
        }
    });
}

/// A single sequence and head: the chain's gradients went through no
/// addition, so a `−0` in them stays `−0`, and the node must keep it too.
/// Seeded with the negative smallest subnormal, the Simd `dV = Aᵀ·G` FMA
/// chain rounds products below half of it to `−0`.
#[test]
fn attention_node_keeps_negative_zero_of_a_single_slice() {
    let _guard = lock_backend();
    let mut negative_zeros = 0;
    for_each_backend(|b| {
        for last in [true, false] {
            let (t, inner) = (4, 8);
            let q_rows = if last { 1 } else { t };
            let shapes = [[q_rows, inner], [t, inner], [t, inner]];
            let data = [0, 1, 2].map(|i| filled(shapes[i][0] * inner, 40 + i as u64));
            let seed = vec![-f32::from_bits(1); q_rows * inner];
            let node = run(
                &|q, k, v| grouped_attention(q, k, v, 1, 1, last),
                &data,
                shapes,
                [true; 3],
                &seed,
            );
            let chain =
                run(&|q, k, v| oracle(q, k, v, 1, 1, last), &data, shapes, [true; 3], &seed);
            assert_eq!(node, chain, "{b:?}, last {last}");
            let dv = chain.1[2].as_ref().expect("dV");
            negative_zeros += dv.iter().filter(|&&x| x == (-0.0f32).to_bits()).count();
        }
    });
    if akg_tensor::backend::simd_available() {
        assert!(negative_zeros > 0, "no −0 reached dV: the case checks nothing");
    }
}

/// The node's gradients are fixed when it is built: overwriting `q`, `k`
/// and `v` between the forward and the backward must not change them.
#[test]
fn attention_node_gradients_ignore_later_operand_writes() {
    let _guard = lock_backend();
    for_each_backend(|b| {
        for last in [true, false] {
            let (windows, t, heads, inner) = (3, 4, 4, 32);
            let q_rows = if last { windows } else { windows * t };
            let shapes = [[q_rows, inner], [windows * t, inner], [windows * t, inner]];
            let data = [0, 1, 2].map(|i| filled(shapes[i][0] * inner, 60 + i as u64));
            let seed = filled(q_rows * inner, 63);
            let attend = |q: &Tensor, k: &Tensor, v: &Tensor| {
                grouped_attention(q, k, v, windows, heads, last)
            };
            let clean = run(&attend, &data, shapes, [true; 3], &seed);
            let overwritten = run(
                &|q, k, v| {
                    let out = attend(q, k, v);
                    for (x, salt) in [(q, 70), (k, 71), (v, 72)] {
                        x.set_data(&filled(x.numel(), salt));
                    }
                    out
                },
                &data,
                shapes,
                [true; 3],
                &seed,
            );
            assert_eq!(clean, overwritten, "{b:?}, last {last}: a later write moved a gradient");
        }
    });
}
