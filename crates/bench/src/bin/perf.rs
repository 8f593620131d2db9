//! The kernel perf harness: times the `akg-tensor` hot-path kernels (the
//! matmul family, the int8 matmul, fused softmax/layernorm, the GNN
//! gather/scatter ops, the GNN layer kernels and the temporal encoder's
//! batched last-step call at the served shapes, and the token update's
//! narrow `matmul_nt` and attention node, forward and backward) and
//! emits `BENCH_tensor.json`, the op-level record
//! (see `docs/PERFORMANCE.md` for how to read it). End-to-end serving is
//! measured by `perfbench/`, the benchmark of record.
//!
//! Usage: `perf [--smoke] [--threads N] [--backend B] [--out PATH]`
//!
//! - `--smoke`: tiny sizes and iteration counts (seconds, for CI) instead of
//!   the full measurement sizes. Smoke output is for validating the harness
//!   and the JSON schema, **not** for cross-PR comparison.
//! - `--threads N`: pin the kernel thread pool (default: auto).
//! - `--backend B`: `scalar`, `simd`, or `auto` (default) — the kernel
//!   compute backend. The resolved backend and the host's detected CPU
//!   features are recorded in the report, so trajectory diffs always say
//!   which instruction set produced them. On SIMD hosts the int8 256-cubed
//!   matmul must beat the f32 blocked kernel — the harness exits non-zero
//!   otherwise (the quantization speed gate; the two cells are timed as an
//!   interleaved pair in every mode, smoke included).
//! - `--out PATH`: where to write the JSON (default `BENCH_tensor.json`).

use akg_tensor::backend::{cpu_features, effective_backend, set_backend, Backend};
use akg_tensor::nn::attention::{grouped_attention, TransformerEncoder};
use akg_tensor::ops::kernels::{matmul_blocked, matmul_ikj, matmul_naive, matmul_nt};
use akg_tensor::par::{effective_threads, set_parallelism, Parallelism};
use akg_tensor::{inference, QuantizedMatrix, Tensor, Workspace};
use rand::{rngs::StdRng, SeedableRng};
use serde::Serialize;
use std::hint::black_box;
use std::time::Instant;

/// One op-level measurement: median wall time per call.
#[derive(Debug, Serialize)]
struct OpResult {
    /// Kernel + problem-size label, e.g. `matmul_blocked_256`.
    name: String,
    /// Median nanoseconds per call.
    ns_per_op: f64,
    /// Calls measured (median over this many).
    reps: usize,
}

/// Headline ratios pulled out of `ops` so trajectory diffs are one-liners.
#[derive(Debug, Serialize)]
struct Derived {
    /// `matmul_naive / matmul_blocked` at the largest measured size.
    blocked_speedup_vs_naive: f64,
    /// `matmul_ikj / matmul_blocked` at the largest measured size.
    blocked_speedup_vs_ikj: f64,
    /// The matmul size the speedups were measured at.
    at_size: usize,
    /// `matmul_blocked_256 / matmul_q8_256` — the int8 integer kernel's
    /// speedup over the f32 blocked kernel at the reference size (measured
    /// in every mode; gated ≥ 1 in CI on SIMD hosts).
    q8_256_speedup_vs_blocked: f64,
}

/// The full `BENCH_tensor.json` document.
#[derive(Debug, Serialize)]
struct Report {
    /// Schema version of this document.
    schema_version: u32,
    /// `"full"` or `"smoke"` — smoke numbers are harness-validation only.
    mode: String,
    /// Worker threads the kernels used.
    threads: usize,
    /// The resolved compute backend the kernels ran (`"scalar"` or
    /// `"simd"`).
    backend: String,
    /// SIMD-relevant CPU features the host reported at startup.
    cpu_features: String,
    /// Op-level medians.
    ops: Vec<OpResult>,
    /// Headline ratios.
    derived: Derived,
}

fn flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).cloned()
}

fn filled(len: usize, salt: usize) -> Vec<f32> {
    (0..len).map(|i| (((i * 31 + salt * 17) % 29) as f32 - 14.0) * 0.05).collect()
}

/// Resolved backend as a report string.
fn backend_name() -> String {
    match effective_backend() {
        Backend::Simd => "simd".to_string(),
        _ => "scalar".to_string(),
    }
}

/// Median wall time of `reps` calls, in nanoseconds. Two warm-up calls run
/// unmeasured first: the first invocation pays thread-pool spawns, page
/// faults on freshly-allocated buffers, and instruction-cache fill, which at
/// low rep counts (7 in full mode) was enough to drag the *median* — not
/// just the max — of small kernels.
fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..2 {
        f();
    }
    median((0..reps).map(|_| time_ns(&mut f)).collect())
}

/// Medians of `reps` calls each of `f` and `g`, in nanoseconds, timed
/// alternately (`f, g, f, g, …`) after two warm-up calls of each. Host
/// drift over the run then lands on both sides alike, which a strict
/// comparison of the two medians needs: two back-to-back [`time_median`]
/// runs put any slow spell on one side only.
fn time_median_pair(reps: usize, mut f: impl FnMut(), mut g: impl FnMut()) -> (f64, f64) {
    for _ in 0..2 {
        f();
        g();
    }
    let (mut fs, mut gs) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
    for _ in 0..reps {
        fs.push(time_ns(&mut f));
        gs.push(time_ns(&mut g));
    }
    (median(fs), median(gs))
}

fn time_ns(f: &mut impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64() * 1e9
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn bench_matmuls(sizes: &[usize], reps: usize, ops: &mut Vec<OpResult>) {
    for &dim in sizes {
        let a = filled(dim * dim, 1);
        let b = filled(dim * dim, 2);
        for (kernel, f) in [
            ("matmul_naive", matmul_naive as fn(&[f32], &[f32], usize, usize, usize) -> Vec<f32>),
            ("matmul_ikj", matmul_ikj),
            ("matmul_blocked", matmul_blocked),
            ("matmul_nt", matmul_nt),
        ] {
            let ns = time_median(reps, || {
                black_box(f(black_box(&a), black_box(&b), dim, dim, dim));
            });
            ops.push(OpResult { name: format!("{kernel}_{dim}"), ns_per_op: ns, reps });
        }
    }
}

/// One int8 integer matmul call at `dim`³, as a closure to time: the
/// weight side is pre-quantized (as the engine holds it), the activation
/// side is dynamically per-row quantized inside the call — exactly the
/// serving path's per-matmul work, scratch included.
fn q8_matmul_call(dim: usize) -> impl FnMut() {
    use akg_tensor::ops::kernels::matmul_q8_into;
    let a = filled(dim * dim, 1);
    let qb = QuantizedMatrix::from_row_major(&filled(dim * dim, 2), dim, dim);
    let mut out = vec![0.0f32; dim * dim];
    let mut qa = vec![0i8; dim * dim];
    let mut scales = vec![0.0f32; dim];
    move || {
        matmul_q8_into(
            black_box(&mut out),
            black_box(&a),
            qb.data(),
            qb.scales(),
            dim,
            dim,
            dim,
            &mut qa,
            &mut scales,
        );
        black_box(out.first().copied());
    }
}

/// Times the int8 integer matmul at square sizes (see [`q8_matmul_call`]).
fn bench_q8_matmuls(sizes: &[usize], reps: usize, ops: &mut Vec<OpResult>) {
    for &dim in sizes {
        let ns = time_median(reps, q8_matmul_call(dim));
        ops.push(OpResult { name: format!("matmul_q8_{dim}"), ns_per_op: ns, reps });
    }
}

/// Calls per side of the q8 gate's interleaved pair. At under 1 ms per pair
/// at 256³ this costs tens of milliseconds; on a shared 2-vCPU VM, 40
/// smoke runs failed the gate 0 times at this count against 2 times with
/// two back-to-back 3-rep medians.
const Q8_GATE_REPS: usize = 51;

/// The quantization speed gate's pair, `matmul_blocked_256` and
/// `matmul_q8_256`, timed interleaved (see [`time_median_pair`]) with the
/// same per-call work as [`bench_matmuls`] and [`bench_q8_matmuls`].
/// Returns `(blocked_ns, q8_ns)`.
fn time_q8_gate_pair() -> (f64, f64) {
    let dim = 256usize;
    let a = filled(dim * dim, 1);
    let b = filled(dim * dim, 2);
    time_median_pair(
        Q8_GATE_REPS,
        || {
            black_box(matmul_blocked(black_box(&a), black_box(&b), dim, dim, dim));
        },
        q8_matmul_call(dim),
    )
}

/// Times the GNN message-passing index ops: `scatter_add_rows` (edge
/// messages summed onto destination rows) and `index_select_rows` (row
/// gather) at the serving path's row width.
fn bench_gather_scatter(rows: usize, cols: usize, reps: usize, ops: &mut Vec<OpResult>) {
    let src = Tensor::from_vec(filled(rows * cols, 7), &[rows, cols]);
    // A realistic fan-in pattern: several consecutive sources per
    // destination, like edges into one reasoning level.
    let dst: Vec<usize> = (0..rows).map(|i| (i / 3) % rows.max(1)).collect();
    let ns = time_median(reps, || {
        black_box(src.scatter_add_rows(&dst, rows).to_vec());
    });
    ops.push(OpResult { name: format!("scatter_add_{rows}x{cols}"), ns_per_op: ns, reps });
    let idx: Vec<usize> = (0..rows).map(|i| (i * 7 + 3) % rows).collect();
    let ns = time_median(reps, || {
        black_box(src.index_select_rows(&idx).to_vec());
    });
    ops.push(OpResult { name: format!("gather_{rows}x{cols}"), ns_per_op: ns, reps });
}

fn bench_fused(rows: usize, cols: usize, reps: usize, ops: &mut Vec<OpResult>) {
    let x = Tensor::from_vec(filled(rows * cols, 3), &[rows, cols]);
    let mask: Vec<f32> =
        (0..rows * cols).map(|i| if i % cols > i / cols { -1e9 } else { 0.0 }).collect();
    let ns = time_median(reps, || {
        black_box(x.mul_scalar(0.125).add_const(&mask).softmax_rows().to_vec());
    });
    ops.push(OpResult { name: format!("softmax_composed_{rows}x{cols}"), ns_per_op: ns, reps });
    let ns = time_median(reps, || {
        black_box(x.softmax_rows_scaled_masked(0.125, Some(&mask)).to_vec());
    });
    ops.push(OpResult { name: format!("softmax_fused_{rows}x{cols}"), ns_per_op: ns, reps });

    let xg = Tensor::from_vec(filled(rows * cols, 4), &[rows, cols]).requires_grad(true);
    let gamma = Tensor::ones(&[cols]).requires_grad(true);
    let beta = Tensor::zeros(&[cols]).requires_grad(true);
    let ns = time_median(reps, || {
        xg.zero_grad();
        gamma.zero_grad();
        beta.zero_grad();
        let mean = xg.mean_axis1();
        let centered = xg.add_col(&mean.neg());
        let var = centered.square().mean_axis1();
        let inv_std = var.add_scalar(1e-5).sqrt().recip();
        centered.mul_col(&inv_std).mul_bias(&gamma).add_bias(&beta).sum_all().backward();
        black_box(xg.grad().map(|g| g[0]));
    });
    ops.push(OpResult {
        name: format!("layernorm_composed_fwd_bwd_{rows}x{cols}"),
        ns_per_op: ns,
        reps,
    });
    let ns = time_median(reps, || {
        xg.zero_grad();
        gamma.zero_grad();
        beta.zero_grad();
        xg.layer_norm(&gamma, &beta, 1e-5).sum_all().backward();
        black_box(xg.grad().map(|g| g[0]));
    });
    ops.push(OpResult {
        name: format!("layernorm_fused_fwd_bwd_{rows}x{cols}"),
        ns_per_op: ns,
        reps,
    });
}

/// Times the GNN kernels at the shapes the served model runs: 72 frames of
/// a 14-node KG at `gnn_dim` 8 (1,008 node rows) — the input `Linear`'s
/// narrow `[1008, 32] × [32, 8]` product, ELU over the layer output, and
/// the per-frame grouped instance norm; then the temporal encoder's
/// serving call, and the token update's backward `matmul_nt` and attention
/// node. At these shapes per-element and per-call overhead, not
/// arithmetic, sets the cost.
fn bench_served_shapes(reps: usize, ops: &mut Vec<OpResult>) {
    let (frames, nodes, embed, gd) = (72usize, 14usize, 32usize, 8usize);
    let rows = frames * nodes;
    let x0 = filled(rows * embed, 8);
    let w = filled(embed * gd, 9);
    let ns = time_median(reps, || {
        black_box(matmul_ikj(black_box(&x0), black_box(&w), rows, embed, gd));
    });
    ops.push(OpResult { name: format!("matmul_ikj_{rows}x{embed}x{gd}"), ns_per_op: ns, reps });

    let h = filled(rows * gd, 10);
    let mut buf = h.clone();
    let ns = time_median(reps, || {
        buf.copy_from_slice(&h);
        inference::elu_inplace(black_box(&mut buf));
    });
    ops.push(OpResult { name: format!("elu_{}", rows * gd), ns_per_op: ns, reps });

    let (gamma, beta) = (filled(gd, 11), filled(gd, 12));
    let (mut mean, mut var, mut inv_std) = (vec![0.0f32; gd], vec![0.0f32; gd], vec![0.0f32; gd]);
    let ns = time_median(reps, || {
        inference::instance_norm_grouped_into(
            black_box(&mut buf),
            black_box(&h),
            frames,
            gd,
            &gamma,
            &beta,
            1e-5,
            &mut mean,
            &mut var,
            &mut inv_std,
        );
    });
    ops.push(OpResult {
        name: format!("instance_norm_grouped_{frames}x{nodes}x{gd}"),
        ns_per_op: ns,
        reps,
    });

    // The temporal encoder as the serving plane calls it: one batched call
    // over 16 windows of T = 4 at the fast config (d = 8, inner 32, 4 heads),
    // which computes only each window's last step.
    let (windows, t, d) = (16usize, 4usize, gd);
    let encoder = TransformerEncoder::new(d, 32, 4, &mut StdRng::seed_from_u64(13));
    let seqs = filled(windows * t * d, 14);
    let lens = vec![t; windows];
    let mut last = vec![0.0f32; windows * d];
    let mut ws = Workspace::new();
    let ns = time_median(reps, || {
        encoder.forward_last_batch_infer(black_box(&seqs), &lens, &mut last, &mut ws);
        black_box(&last);
    });
    ops.push(OpResult { name: format!("temporal_last_{windows}x{t}x{d}"), ns_per_op: ns, reps });

    // The token update's backward cells. The GNN input `Linear`'s
    // `dA = G·Bᵀ`: `[1008, 8] × [32, 8]ᵀ`, a dot length of 8 per output.
    let g = filled(rows * gd, 15);
    let ns = time_median(reps, || {
        black_box(matmul_nt(black_box(&g), black_box(&w), rows, gd, embed));
    });
    ops.push(OpResult { name: format!("matmul_nt_{rows}x{gd}x{embed}"), ns_per_op: ns, reps });

    // The encoder's attention node as a token update runs it (last step
    // only, 4 heads of d_k = 8 over 16 windows of T = 4), forward and
    // backward.
    let (heads, inner) = (4usize, 32usize);
    let (qd, kd, vd) = (
        filled(windows * inner, 16),
        filled(windows * t * inner, 17),
        filled(windows * t * inner, 18),
    );
    let seed = filled(windows * inner, 19);
    let ns = time_median(reps, || {
        let q = Tensor::from_vec(qd.clone(), &[windows, inner]).requires_grad(true);
        let k = Tensor::from_vec(kd.clone(), &[windows * t, inner]).requires_grad(true);
        let v = Tensor::from_vec(vd.clone(), &[windows * t, inner]).requires_grad(true);
        grouped_attention(&q, &k, &v, windows, heads, true).backward_with(&seed);
        black_box((q.grad(), k.grad(), v.grad()));
    });
    ops.push(OpResult {
        name: format!("attention_node_fwd_bwd_{windows}x{t}x{}", inner / heads),
        ns_per_op: ns,
        reps,
    });
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = flag(&args, "--smoke");
    let out = flag_value(&args, "--out").unwrap_or_else(|| "BENCH_tensor.json".to_string());
    let parallelism = match flag_value(&args, "--threads").and_then(|v| v.parse::<usize>().ok()) {
        Some(n) => Parallelism::Threads(n),
        None => Parallelism::Auto,
    };
    set_parallelism(parallelism);
    let backend = match flag_value(&args, "--backend").as_deref() {
        Some("scalar") => Backend::Scalar,
        Some("simd") => Backend::Simd,
        Some("auto") | None => Backend::Auto,
        Some(other) => {
            eprintln!("perf: unknown --backend {other:?} (expected scalar|simd|auto)");
            std::process::exit(2);
        }
    };
    set_backend(backend);

    let (sizes, reps): (&[usize], usize) =
        if smoke { (&[32, 48], 3) } else { (&[64, 128, 256], 7) };
    let mut ops = Vec::new();
    println!(
        "perf: mode={} threads={} backend={} cpu=[{}] sizes={sizes:?}",
        if smoke { "smoke" } else { "full" },
        effective_threads(),
        backend_name(),
        cpu_features()
    );

    // Warm the worker pool and touch a large-matmul-sized working set once
    // before any timed region, so rep 1 of the first kernel doesn't absorb
    // thread spawns and cold pages.
    {
        let dim = *sizes.last().expect("at least one size");
        let a = filled(dim * dim, 5);
        let b = filled(dim * dim, 6);
        black_box(matmul_blocked(black_box(&a), black_box(&b), dim, dim, dim));
    }

    bench_matmuls(sizes, reps, &mut ops);
    bench_q8_matmuls(sizes, reps, &mut ops);
    // The quantization speed gate compares the 256-cubed kernels, timed as
    // an interleaved pair in every mode (so the gate runs in CI too, where
    // the smoke sizes don't reach 256); these entries replace the
    // sequential ones full mode took above.
    let (blocked_256, q8_256) = time_q8_gate_pair();
    for (name, ns) in [("matmul_blocked_256", blocked_256), ("matmul_q8_256", q8_256)] {
        ops.retain(|o| o.name != name);
        ops.push(OpResult { name: name.to_string(), ns_per_op: ns, reps: Q8_GATE_REPS });
    }
    let (rows, cols) = if smoke { (16, 16) } else { (64, 128) };
    bench_fused(rows, cols, reps.max(5), &mut ops);
    let (srows, scols) = if smoke { (128, 8) } else { (4096, 8) };
    bench_gather_scatter(srows, scols, reps.max(5), &mut ops);
    bench_served_shapes(if smoke { reps } else { 51 }, &mut ops);

    let largest = *sizes.last().expect("at least one size");
    let ns_of = |name: &str| {
        ops.iter()
            .find(|o| o.name == format!("{name}_{largest}"))
            .map(|o| o.ns_per_op)
            .expect("kernel measured")
    };
    let ns_named = |name: &str| {
        ops.iter().find(|o| o.name == name).map(|o| o.ns_per_op).expect("kernel measured")
    };
    let derived = Derived {
        blocked_speedup_vs_naive: ns_of("matmul_naive") / ns_of("matmul_blocked"),
        blocked_speedup_vs_ikj: ns_of("matmul_ikj") / ns_of("matmul_blocked"),
        at_size: largest,
        q8_256_speedup_vs_blocked: ns_named("matmul_blocked_256") / ns_named("matmul_q8_256"),
    };

    for op in &ops {
        println!("  {:<36} {:>14.0} ns/op", op.name, op.ns_per_op);
    }
    println!(
        "  blocked vs naive at {}^3: {:.2}x (vs ikj: {:.2}x)",
        derived.at_size, derived.blocked_speedup_vs_naive, derived.blocked_speedup_vs_ikj
    );
    println!("  q8 vs blocked at 256^3: {:.2}x", derived.q8_256_speedup_vs_blocked);

    // The quantization speed gate: on SIMD hosts the integer kernel must
    // not lose to the f32 blocked kernel at the reference size. Scalar
    // hosts are exempt — the scalar q8 ladder exists for bit-reproducible
    // fallback, not speed.
    let q8_gate_failed = effective_backend() == Backend::Simd
        && ns_named("matmul_q8_256") >= ns_named("matmul_blocked_256");
    if q8_gate_failed {
        eprintln!(
            "perf: Q8 SPEED REGRESSION — matmul_q8_256 ({:.0} ns) is not faster than \
             matmul_blocked_256 ({:.0} ns) on the SIMD backend",
            ns_named("matmul_q8_256"),
            ns_named("matmul_blocked_256")
        );
    }

    let report = Report {
        schema_version: 8,
        mode: if smoke { "smoke" } else { "full" }.to_string(),
        threads: effective_threads(),
        backend: backend_name(),
        cpu_features: cpu_features(),
        ops,
        derived,
    };
    let json = serde_json::to_string(&report).expect("serialize report");
    std::fs::write(&out, json).expect("write report");
    println!("perf: wrote {out}");
    if q8_gate_failed {
        std::process::exit(1);
    }
}
