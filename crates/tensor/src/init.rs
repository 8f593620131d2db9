//! Seeded weight initializers.
//!
//! All initializers take an explicit RNG so every experiment in the
//! reproduction is deterministic.

use crate::tensor::Tensor;
use rand::rngs::StdRng;
use rand::Rng;

/// Samples a standard normal value via the Box–Muller transform.
pub fn sample_standard_normal(rng: &mut StdRng) -> f32 {
    loop {
        let u1: f32 = rng.gen::<f32>();
        if u1 <= f32::MIN_POSITIVE {
            continue;
        }
        let u2: f32 = rng.gen::<f32>();
        return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos();
    }
}

/// Uniform initialization in `[-bound, bound]`.
pub fn uniform(shape: &[usize], bound: f32, rng: &mut StdRng) -> Tensor {
    let n: usize = shape.iter().product();
    let data: Vec<f32> = (0..n).map(|_| rng.gen_range(-bound..=bound)).collect();
    Tensor::from_vec(data, shape)
}

/// Normal initialization with the given standard deviation.
pub fn normal(shape: &[usize], std: f32, rng: &mut StdRng) -> Tensor {
    let n: usize = shape.iter().product();
    let data: Vec<f32> = (0..n).map(|_| sample_standard_normal(rng) * std).collect();
    Tensor::from_vec(data, shape)
}

/// Xavier/Glorot uniform initialization for a `[fan_in, fan_out]` weight.
pub fn xavier_uniform(fan_in: usize, fan_out: usize, rng: &mut StdRng) -> Tensor {
    let bound = (6.0 / (fan_in + fan_out) as f32).sqrt();
    uniform(&[fan_in, fan_out], bound, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn deterministic_given_seed() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        assert_eq!(uniform(&[4, 4], 0.1, &mut a).to_vec(), uniform(&[4, 4], 0.1, &mut b).to_vec());
    }

    #[test]
    fn uniform_respects_bound() {
        let mut rng = StdRng::seed_from_u64(1);
        let t = uniform(&[1000], 0.5, &mut rng);
        assert!(t.to_vec().iter().all(|v| v.abs() <= 0.5));
    }

    #[test]
    fn normal_has_roughly_right_moments() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = normal(&[10_000], 2.0, &mut rng);
        let data = t.to_vec();
        let mean: f32 = data.iter().sum::<f32>() / data.len() as f32;
        let var: f32 =
            data.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / data.len() as f32;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn xavier_bound_shrinks_with_fan() {
        let mut rng = StdRng::seed_from_u64(3);
        let t = xavier_uniform(512, 512, &mut rng);
        let max = t.to_vec().iter().fold(0.0f32, |m, v| m.max(v.abs()));
        assert!(max <= (6.0 / 1024.0f32).sqrt() + 1e-6);
    }
}
