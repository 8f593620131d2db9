//! Runtime-selectable compute backend for the raw `f32` kernels.
//!
//! Every hot kernel in this crate exists in two forms: the portable scalar
//! implementation (the numerics of record — bit-identical to the pre-SIMD
//! code on every platform) and, on `x86_64`, an explicit AVX2+FMA
//! implementation in the private `ops::simd` module. Which form runs is a process-wide
//! policy set here, mirroring how [`crate::par`] configures the thread pool:
//! tensors are `Rc`-based, so the knob lives beneath the autograd graph and a
//! single setting governs every op.
//!
//! ## Selection
//!
//! - [`Backend::Auto`] (the default): use SIMD when the running CPU reports
//!   AVX2 **and** FMA (checked once via `is_x86_feature_detected!`), scalar
//!   otherwise. Non-`x86_64` hosts always resolve to scalar.
//! - [`Backend::Scalar`]: force the scalar kernels. This is the
//!   reproducibility switch — scalar results are bit-identical across every
//!   machine and to the pre-SIMD history of this repository.
//! - [`Backend::Simd`]: request SIMD explicitly. On a host without AVX2+FMA
//!   this still resolves to scalar (requesting an unsupported ISA must not
//!   crash an edge deployment), so `Simd` means "SIMD if the hardware can".
//!
//! ## Numerics policy
//!
//! The SIMD kernels are *not* bit-identical to scalar: the matmul family
//! contracts multiply-add pairs with FMA (one rounding instead of two) and
//! row reductions use lane-parallel partial sums. Divergence is
//! accumulation-order only and property-tested to stay within `1e-4`
//! (`tensor/tests/proptest_kernels.rs`). What **is** guaranteed, per
//! backend:
//!
//! - results are bit-for-bit deterministic across runs and thread counts;
//! - `matmul_blocked` ≡ `matmul_ikj` per element (both sides of the
//!   size-dispatch threshold agree exactly), which the batched-serving
//!   equivalence suite relies on;
//! - the fused softmax and the instance/grouped batch-norm paths remain
//!   bit-identical to their composed formulations.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

/// Which kernel implementations the raw `f32` ops run.
///
/// # Examples
///
/// ```
/// use akg_tensor::backend::{set_backend, effective_backend, Backend};
///
/// set_backend(Backend::Scalar);
/// assert_eq!(effective_backend(), Backend::Scalar);
///
/// // `Auto` resolves to Simd exactly when the CPU supports AVX2+FMA.
/// set_backend(Backend::Auto);
/// let resolved = effective_backend();
/// assert!(resolved == Backend::Scalar || resolved == Backend::Simd);
/// # set_backend(Backend::Auto); // leave the default behind
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Portable scalar kernels — bit-identical on every platform.
    Scalar,
    /// AVX2+FMA kernels where the hardware supports them (falls back to
    /// scalar on hosts without AVX2+FMA rather than crashing).
    Simd,
    /// Detect at runtime: SIMD when available, scalar otherwise (default).
    Auto,
}

const AUTO: u8 = 0;
const SCALAR: u8 = 1;
const SIMD: u8 = 2;

static BACKEND: AtomicU8 = AtomicU8::new(AUTO);

/// Sets the process-wide backend policy for all raw kernels.
pub fn set_backend(b: Backend) {
    let v = match b {
        Backend::Auto => AUTO,
        Backend::Scalar => SCALAR,
        Backend::Simd => SIMD,
    };
    BACKEND.store(v, Ordering::Relaxed);
}

/// The currently configured policy (as set, before hardware resolution).
pub fn backend() -> Backend {
    match BACKEND.load(Ordering::Relaxed) {
        SCALAR => Backend::Scalar,
        SIMD => Backend::Simd,
        _ => Backend::Auto,
    }
}

/// Whether this host's CPU supports the AVX2+FMA kernels (detected once,
/// cached). Always `false` off `x86_64`.
pub fn simd_available() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(detect)
}

#[cfg(target_arch = "x86_64")]
fn detect() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> bool {
    false
}

/// Whether kernels will take the SIMD path right now (policy ∧ hardware).
#[inline]
pub fn simd_active() -> bool {
    BACKEND.load(Ordering::Relaxed) != SCALAR && simd_available()
}

/// The backend kernels will actually run: [`Backend::Scalar`] or
/// [`Backend::Simd`], never [`Backend::Auto`].
pub fn effective_backend() -> Backend {
    if simd_active() {
        Backend::Simd
    } else {
        Backend::Scalar
    }
}

/// Human-readable summary of the SIMD-relevant CPU features this host
/// reports, for perf reports and logs (e.g. `"avx2 fma avx512f"`, or
/// `"none"`).
pub fn cpu_features() -> String {
    #[cfg(target_arch = "x86_64")]
    {
        let mut feats = Vec::new();
        if std::arch::is_x86_feature_detected!("avx") {
            feats.push("avx");
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            feats.push("avx2");
        }
        if std::arch::is_x86_feature_detected!("fma") {
            feats.push("fma");
        }
        if std::arch::is_x86_feature_detected!("avx512f") {
            feats.push("avx512f");
        }
        if feats.is_empty() {
            "none".to_string()
        } else {
            feats.join(" ")
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        "none".to_string()
    }
}

/// Serializes in-crate tests that either mutate the process-wide backend or
/// assert cross-call bitwise equality (which a concurrent backend flip would
/// break). The lock lives here so every test module in the crate shares one.
#[cfg(test)]
pub(crate) fn test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_round_trips() {
        let _guard = test_lock();
        let before = backend();
        for b in [Backend::Scalar, Backend::Simd, Backend::Auto] {
            set_backend(b);
            assert_eq!(backend(), b);
        }
        set_backend(before);
    }

    #[test]
    fn scalar_policy_deactivates_simd() {
        let _guard = test_lock();
        let before = backend();
        set_backend(Backend::Scalar);
        assert!(!simd_active());
        assert_eq!(effective_backend(), Backend::Scalar);
        set_backend(before);
    }

    #[test]
    fn auto_resolves_to_hardware() {
        let _guard = test_lock();
        let before = backend();
        set_backend(Backend::Auto);
        assert_eq!(simd_active(), simd_available());
        set_backend(before);
    }

    #[test]
    fn feature_summary_is_nonempty() {
        assert!(!cpu_features().is_empty());
    }
}
