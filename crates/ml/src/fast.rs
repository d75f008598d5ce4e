//! The fast-tier kernel family: reassociated, SIMD-friendly numerics.
//!
//! Everything in this module trades bit-stability for throughput under an
//! explicit, bounded error contract (the strict family in
//! [`crate::params`]/[`crate::model`] stays byte-identical to the
//! committed baselines):
//!
//! * **Reductions** ([`dot_fast`], [`norm_sq_fast`], [`mean_into_fast`])
//!   accumulate across [`FAST_CHUNK`] independent lanes with explicit
//!   [`f32::mul_add`] bodies and combine the lanes pairwise, so the inner
//!   loop vectorises (to FMA where available) and the rounding error grows
//!   like a pairwise sum: `|fast − exact| ≲ (n/16)·ε·Σ|terms|`.
//! * **Transcendentals** ([`exp_fast`], [`ln_fast`]) are Cephes-style
//!   polynomial kernels (degree-5 `expf`, degree-8 `logf`): branch-free
//!   range reduction plus a Horner body written as explicit [`f32::mul_add`]
//!   chains, so whole softmax rows evaluate without a libm call and the
//!   body compiles to fused multiply-adds where the target has them.
//!   Relative error is
//!   a few ULP (≤ ~2·10⁻⁷ for `exp_fast` over its domain; `ln_fast` has
//!   absolute error ≲ 2·10⁻⁷ near 1 and relative error ≲ 1·10⁻⁶
//!   elsewhere).
//! * **Blocked model kernels** ([`batch_logits_fast`],
//!   [`softmax_block_fast`], [`softmax_xent_grad_fast`]) restructure the
//!   softmax forward/backward as contiguous sample-major sweeps: logits
//!   accumulate two feature rows per pass, and the backward is a
//!   (class, feature)-outer matrix product over a precomputed coefficient
//!   row instead of a per-sample scatter.
//!
//! The family is deliberately *disjoint* from the strict kernels: no
//! function here is reachable from the `strict_numerics` audit closure
//! and vice versa — the `tier-isolation` rule in `netmax-audit` fails the
//! build if the two tiers ever share an accumulation code path.

// The Cephes coefficient strings carry more digits than an f32 holds, and
// the split ln(2) constants deliberately approximate LN_2.
#![allow(clippy::excessive_precision, clippy::approx_constant)]

/// Accumulator-lane count of the fast reductions — the chunking
/// threshold: inputs at or under this length reduce sequentially (the
/// remainder path), longer inputs use the multi-lane body.
pub const FAST_CHUNK: usize = 16;

/// Pairwise fold of the accumulator lanes.
#[inline(always)]
fn fold_lanes(acc: &[f32; FAST_CHUNK]) -> f32 {
    let mut a = *acc;
    let mut stride = FAST_CHUNK / 2;
    while stride > 0 {
        let (lo, hi) = a.split_at_mut(stride);
        for (x, y) in lo.iter_mut().zip(hi.iter()) {
            *x += *y;
        }
        stride /= 2;
    }
    let [first, ..] = a;
    first
}

/// Reassociated dot product: [`FAST_CHUNK`] independent accumulator
/// lanes, sequential tail, pairwise lane fold.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn dot_fast(x: &[f32], y: &[f32]) -> f32 {
    assert_eq!(x.len(), y.len(), "dot_fast: length mismatch");
    let mut acc = [0.0f32; FAST_CHUNK];
    let xc = x.chunks_exact(FAST_CHUNK);
    let yc = y.chunks_exact(FAST_CHUNK);
    let (xr, yr) = (xc.remainder(), yc.remainder());
    for (cx, cy) in xc.zip(yc) {
        for ((a, &u), &v) in acc.iter_mut().zip(cx).zip(cy) {
            *a = u.mul_add(v, *a);
        }
    }
    let mut tail = 0.0f32;
    for (&u, &v) in xr.iter().zip(yr) {
        tail = u.mul_add(v, tail);
    }
    fold_lanes(&acc) + tail
}

/// Reassociated squared L2 norm (same lane structure as [`dot_fast`]).
#[inline]
pub fn norm_sq_fast(x: &[f32]) -> f32 {
    let mut acc = [0.0f32; FAST_CHUNK];
    let xc = x.chunks_exact(FAST_CHUNK);
    let xr = xc.remainder();
    for cx in xc {
        for (a, &u) in acc.iter_mut().zip(cx) {
            *a = u.mul_add(u, *a);
        }
    }
    let mut tail = 0.0f32;
    for &u in xr {
        tail = u.mul_add(u, tail);
    }
    fold_lanes(&acc) + tail
}

/// Reassociated slice sum (lanes + tail + pairwise fold).
#[inline]
fn sum_fast(x: &[f32]) -> f32 {
    let mut acc = [0.0f32; FAST_CHUNK];
    let xc = x.chunks_exact(FAST_CHUNK);
    let xr = xc.remainder();
    for cx in xc {
        for (a, &u) in acc.iter_mut().zip(cx) {
            *a += u;
        }
    }
    let mut tail = 0.0f32;
    for &u in xr {
        tail += u;
    }
    fold_lanes(&acc) + tail
}

/// `y += a · x`, fast family. Elementwise (no accumulation chain), so the
/// result actually matches the strict [`crate::params::axpy`] bit-for-bit
/// — it exists so the fast tier never calls into the strict family.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy_fast(a: f32, x: &[f32], y: &mut [f32]) {
    assert_eq!(x.len(), y.len(), "axpy_fast: length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += a * xi;
    }
}

/// Elementwise mean of equally-long vectors into `out`: one running sum
/// per element (element accumulators are independent, so the loop
/// vectorises across the vector width), one scale pass at the end.
///
/// # Panics
/// Panics if `vectors` is empty or lengths mismatch.
pub fn mean_into_fast(vectors: &[&[f32]], out: &mut [f32]) {
    assert!(!vectors.is_empty(), "mean_into_fast: need at least one vector");
    out.fill(0.0);
    for v in vectors {
        assert_eq!(v.len(), out.len(), "mean_into_fast: length mismatch");
        for (o, &x) in out.iter_mut().zip(*v) {
            *o += x;
        }
    }
    let inv = 1.0 / vectors.len() as f32;
    for o in out.iter_mut() {
        *o *= inv;
    }
}

// --------------------------------------------------------------------------
// Polynomial exp / ln (Cephes expf/logf shapes, ≈ 2–3 ULP)
// --------------------------------------------------------------------------

/// Adding then subtracting `1.5·2²³` rounds an f32 in `(−2²², 2²²)` to
/// the nearest integer using only FP adds — no `floor` libm call, no
/// SSE4.1 `roundps`, so the reduction vectorises on baseline x86-64.
const ROUND_MAGIC: f32 = 12_582_912.0;

/// `ln 2` split hi/lo for two-step Cody–Waite range reduction: `hi` has
/// trailing zero bits, so `n·hi` is exact for the |n| ≤ 127 in play.
const LN2_HI: f32 = 0.693_359_375;
const LN2_LO: f32 = -2.121_944_40e-4;

/// Polynomial `eˣ` (Cephes `expf` shape): round `x/ln 2` to the nearest
/// integer `n` with the `ROUND_MAGIC` trick, reduce `r = x − n·ln 2`
/// by split constants, evaluate a degree-5 Horner body on
/// `r ∈ [−ln 2/2, ln 2/2]`, and scale by `2ⁿ` via exponent-bit
/// construction. Relative error ≤ ~2 ULP; inputs outside
/// `[−87, 88]` saturate to `e^∓87⁄88` (never ±∞ or 0).
///
/// The body is deliberately free of float→int casts: Rust's saturating
/// `as i32` lowers to a scalar convert that blocks loop vectorisation, so
/// `2ⁿ` is read straight out of the round-magic sum's low mantissa bits
/// (`t = 1.5·2²³ + n` holds `n` exactly in its mantissa), leaving only
/// bitcasts and integer adds/shifts the vectoriser handles.
#[inline(always)]
pub fn exp_fast(x: f32) -> f32 {
    let x = x.clamp(-87.0, 88.0);
    let t = x.mul_add(std::f32::consts::LOG2_E, ROUND_MAGIC);
    let n = t - ROUND_MAGIC;
    let r = n.mul_add(-LN2_LO, n.mul_add(-LN2_HI, x));
    let r2 = r * r;
    let mut p = 1.987_569_150_0e-4f32;
    p = p.mul_add(r, 1.398_199_950_7e-3);
    p = p.mul_add(r, 8.333_451_907_3e-3);
    p = p.mul_add(r, 4.166_579_589_4e-2);
    p = p.mul_add(r, 1.666_666_545_9e-1);
    p = p.mul_add(r, 5.000_000_120_1e-1);
    let y = p.mul_add(r2, r) + 1.0;
    // (n + 127) << 23, with n taken from t's mantissa: t.bits − bits(1.5·2²³)
    // equals n for the |n| ≤ 127 in play, and the shift discards the borrow.
    let scale = f32::from_bits(
        t.to_bits().wrapping_sub(ROUND_MAGIC.to_bits().wrapping_sub(127)).wrapping_shl(23),
    );
    y * scale
}

/// Polynomial `ln x` (Cephes `logf` shape): split `x = m·2ᵉ` with
/// `m ∈ [√½, √2)` by exponent-bit surgery, evaluate a degree-8 Horner
/// body on `z = m − 1`, and add `e·ln 2` by split constants. Inputs
/// ≤ 0 clamp to the smallest positive normal (the call sites feed
/// strictly positive exp-sums). Absolute error ≲ 2·10⁻⁷ near 1,
/// relative error ≲ 1·10⁻⁶ elsewhere.
#[inline(always)]
pub fn ln_fast(x: f32) -> f32 {
    let x = x.max(f32::MIN_POSITIVE);
    let bits = x.to_bits();
    let mut e = ((bits >> 23) as i32) - 126;
    let mut m = f32::from_bits((bits & 0x007F_FFFF) | 0x3F00_0000);
    // Branch-free mantissa renormalisation into [√½, √2): doubling an f32
    // in [0.5, 1) is exactly an exponent-bit increment, so the whole
    // function is straight-line code and vectorises inside block loops.
    let below = (m < std::f32::consts::FRAC_1_SQRT_2) as u32;
    e -= below as i32;
    m = f32::from_bits(m.to_bits() + (below << 23));
    let z = m - 1.0;
    let z2 = z * z;
    let mut p = 7.037_683_629_2e-2f32;
    p = p.mul_add(z, -1.151_461_031_0e-1);
    p = p.mul_add(z, 1.167_699_874_0e-1);
    p = p.mul_add(z, -1.242_014_084_6e-1);
    p = p.mul_add(z, 1.424_932_278_7e-1);
    p = p.mul_add(z, -1.666_805_766_5e-1);
    p = p.mul_add(z, 2.000_071_476_5e-1);
    p = p.mul_add(z, -2.499_999_399_3e-1);
    p = p.mul_add(z, 3.333_333_117_4e-1);
    let ef = e as f32;
    let mut y = (z * z2) * p;
    y = ef.mul_add(LN2_LO, y);
    y = z2.mul_add(-0.5, y);
    ef.mul_add(LN2_HI, z + y)
}

// --------------------------------------------------------------------------
// Blocked softmax forward/backward
// --------------------------------------------------------------------------

/// Fast-tier batch transpose: gathers the chunk's feature rows into the
/// feature-major block `xb[d·nb + s] = feats[chunk[s]·dim + d]`.
///
/// Eight samples per tile: each feature index writes eight contiguous
/// outputs (one merged vector store) instead of eight scalar stores
/// `nb·4` bytes apart, and each sample's row is read sequentially. Pure
/// data movement — bit-identical to the strict transpose — but it lives
/// in the fast family so the tiers share no code path.
pub fn transpose_block_fast(feats: &[f32], chunk: &[usize], dim: usize, xb: &mut Vec<f32>) {
    let nb = chunk.len();
    xb.clear();
    xb.resize(dim * nb, 0.0);
    let tiles = chunk.chunks_exact(8);
    let rem = tiles.remainder();
    for (t, oct) in tiles.enumerate() {
        let s0 = t * 8;
        let r0 = &feats[oct[0] * dim..oct[0] * dim + dim];
        let r1 = &feats[oct[1] * dim..oct[1] * dim + dim];
        let r2 = &feats[oct[2] * dim..oct[2] * dim + dim];
        let r3 = &feats[oct[3] * dim..oct[3] * dim + dim];
        let r4 = &feats[oct[4] * dim..oct[4] * dim + dim];
        let r5 = &feats[oct[5] * dim..oct[5] * dim + dim];
        let r6 = &feats[oct[6] * dim..oct[6] * dim + dim];
        let r7 = &feats[oct[7] * dim..oct[7] * dim + dim];
        for d in 0..dim {
            let o = &mut xb[d * nb + s0..d * nb + s0 + 8];
            o[0] = r0[d];
            o[1] = r1[d];
            o[2] = r2[d];
            o[3] = r3[d];
            o[4] = r4[d];
            o[5] = r5[d];
            o[6] = r6[d];
            o[7] = r7[d];
        }
    }
    for (r, &i) in rem.iter().enumerate() {
        let s = nb - rem.len() + r;
        let row = &feats[i * dim..(i + 1) * dim];
        for (d, &v) in row.iter().enumerate() {
            xb[d * nb + s] = v;
        }
    }
}

/// Fast-tier batch logits: `out[c·B + s] = Σ_d w[c·D + d]·xb[d·B + s] + b[c]`.
///
/// Accumulators initialise to the bias (one pass saved) and consume four
/// feature rows per sweep as a fused multiply-add chain, quartering the
/// accumulator-row traffic relative to the strict kernel; each sample's
/// terms therefore combine in a reassociated order.
pub fn batch_logits_fast(w: &[f32], b: &[f32], xb: &[f32], dim: usize, nb: usize, out: &mut [f32]) {
    debug_assert_eq!(out.len(), b.len() * nb);
    debug_assert_eq!(xb.len(), dim * nb);
    let classes = b.len();
    // Two classes per sweep: each feature row is loaded once and feeds
    // both accumulator rows, turning the kernel FMA-bound instead of
    // load-bound.
    let mut c = 0;
    while c + 1 < classes {
        let row0 = &w[c * dim..(c + 1) * dim];
        let row1 = &w[(c + 1) * dim..(c + 2) * dim];
        let (lo, hi) = out.split_at_mut((c + 1) * nb);
        let acc0 = &mut lo[c * nb..];
        let acc1 = &mut hi[..nb];
        acc0.fill(b[c]);
        acc1.fill(b[c + 1]);
        let mut d = 0;
        while d + 3 < dim {
            let (a0, a1, a2, a3) = (row0[d], row0[d + 1], row0[d + 2], row0[d + 3]);
            let (b0, b1, b2, b3) = (row1[d], row1[d + 1], row1[d + 2], row1[d + 3]);
            let x0 = &xb[d * nb..(d + 1) * nb];
            let x1 = &xb[(d + 1) * nb..(d + 2) * nb];
            let x2 = &xb[(d + 2) * nb..(d + 3) * nb];
            let x3 = &xb[(d + 3) * nb..(d + 4) * nb];
            for (((((p, q), &u0), &u1), &u2), &u3) in
                acc0.iter_mut().zip(acc1.iter_mut()).zip(x0).zip(x1).zip(x2).zip(x3)
            {
                *p = a3.mul_add(u3, a2.mul_add(u2, a1.mul_add(u1, a0.mul_add(u0, *p))));
                *q = b3.mul_add(u3, b2.mul_add(u2, b1.mul_add(u1, b0.mul_add(u0, *q))));
            }
            d += 4;
        }
        while d < dim {
            let (wa, wb) = (row0[d], row1[d]);
            for ((p, q), &u) in
                acc0.iter_mut().zip(acc1.iter_mut()).zip(&xb[d * nb..(d + 1) * nb])
            {
                *p = wa.mul_add(u, *p);
                *q = wb.mul_add(u, *q);
            }
            d += 1;
        }
        c += 2;
    }
    if c < classes {
        let row = &w[c * dim..(c + 1) * dim];
        let acc = &mut out[c * nb..(c + 1) * nb];
        acc.fill(b[c]);
        let mut d = 0;
        while d + 3 < dim {
            let (w0, w1, w2, w3) = (row[d], row[d + 1], row[d + 2], row[d + 3]);
            let x0 = &xb[d * nb..(d + 1) * nb];
            let x1 = &xb[(d + 1) * nb..(d + 2) * nb];
            let x2 = &xb[(d + 2) * nb..(d + 3) * nb];
            let x3 = &xb[(d + 3) * nb..(d + 4) * nb];
            for ((((a, &u0), &u1), &u2), &u3) in
                acc.iter_mut().zip(x0).zip(x1).zip(x2).zip(x3)
            {
                *a = w3.mul_add(u3, w2.mul_add(u2, w1.mul_add(u1, w0.mul_add(u0, *a))));
            }
            d += 4;
        }
        while d < dim {
            let wd = row[d];
            for (a, &u) in acc.iter_mut().zip(&xb[d * nb..(d + 1) * nb]) {
                *a = wd.mul_add(u, *a);
            }
            d += 1;
        }
    }
}

/// Shared softmax body: turns a `classes × nb` logits block into
/// **unnormalised** shifted exponentials, filling `maxs[s]` with sample
/// `s`'s logit maximum and `sums[s]` with the **reciprocal** of its
/// exp-sum. Callers either normalise the block ([`softmax_block_fast`])
/// or fold the reciprocal into downstream coefficients
/// ([`softmax_xent_grad_fast`]), saving the normalise pass.
fn exp_block_fast(block: &mut [f32], nb: usize, maxs: &mut Vec<f32>, sums: &mut Vec<f32>) {
    debug_assert_eq!(block.len() % nb, 0);
    maxs.clear();
    maxs.resize(nb, f32::NEG_INFINITY);
    for row in block.chunks(nb) {
        for (m, &v) in maxs.iter_mut().zip(row) {
            *m = m.max(v);
        }
    }
    sums.clear();
    sums.resize(nb, 0.0);
    for row in block.chunks_mut(nb) {
        for ((l, &m), s) in row.iter_mut().zip(&*maxs).zip(sums.iter_mut()) {
            *l = exp_fast(*l - m);
            *s += *l;
        }
    }
    for s in sums.iter_mut() {
        *s = 1.0 / *s;
    }
}

/// Fast-tier in-place softmax over a `classes × nb` logits block, one
/// sample per column: vectorised max fold, [`exp_fast`] rows, and a
/// reciprocal-multiply normalise. On return `sums[s]` holds the
/// **reciprocal** of sample `s`'s exp-sum (so the caller's loss term
/// `ln Σ exp` is `−ln_fast(sums[s])`).
pub fn softmax_block_fast(block: &mut [f32], nb: usize, maxs: &mut Vec<f32>, sums: &mut Vec<f32>) {
    exp_block_fast(block, nb, maxs, sums);
    for row in block.chunks_mut(nb) {
        for (l, &is) in row.iter_mut().zip(&*sums) {
            *l *= is;
        }
    }
}

/// Fast-tier softmax cross-entropy forward + backward over one
/// feature-major batch block.
///
/// Inputs: weights `w` (`C×D`), bias `b` (`C`), transposed features `xb`
/// (`D×nb`), the dataset's raw sample-major feature storage `feats` with
/// the chunk's example indices `chunk` (row `s` is
/// `feats[chunk[s]·D ..][..D]` — the same rows `xb` transposes), per-sample
/// `labels` (`nb`), and the chunk's weight `inv` (`1/total_batch`).
/// Accumulates the mean-gradient contribution into `gw`/`gb` and returns
/// the **summed** (not yet averaged) loss of the block.
/// `probs`/`maxs`/`sums`/`coefs` are reusable scratch buffers.
///
/// The backward folds the softmax normalisation straight into the
/// coefficient block — `probs` is rewritten in place to
/// `coef[c·nb+s] = (p_cs − 1{y_s=c})·inv` without ever materialising the
/// normalised probabilities — then `gb[c] += Σ_s coef[c·nb+s]` runs as a
/// reassociated row sum and `gw[c·D..]` accumulates a sample-major outer
/// product `coef[c·nb+s] · x_s` over the original (untransposed) feature
/// rows: pure fused multiply-add streams with no per-output reduction
/// fold and no zero-coefficient branch.
#[allow(clippy::too_many_arguments)]
pub fn softmax_xent_grad_fast(
    w: &[f32],
    b: &[f32],
    xb: &[f32],
    feats: &[f32],
    chunk: &[usize],
    labels: &[u32],
    dim: usize,
    nb: usize,
    probs: &mut Vec<f32>,
    maxs: &mut Vec<f32>,
    sums: &mut Vec<f32>,
    coefs: &mut Vec<f32>,
    gw: &mut [f32],
    gb: &mut [f32],
    inv: f32,
) -> f32 {
    let classes = b.len();
    debug_assert_eq!(labels.len(), nb);
    debug_assert_eq!(chunk.len(), nb);
    probs.clear();
    probs.resize(classes * nb, 0.0);
    batch_logits_fast(w, b, xb, dim, nb, probs);
    // True-class raw logits, captured before the exps overwrite the block.
    coefs.clear();
    coefs.resize(nb, 0.0);
    for (s, &y) in labels.iter().enumerate() {
        coefs[s] = probs[y as usize * nb + s];
    }
    exp_block_fast(probs, nb, maxs, sums);
    // −ln p_y = ln Σexp + max − raw_y, with the reciprocal sum carrying
    // ln Σexp = −ln(1/Σexp). Per-sample terms land in `coefs` (one
    // straight-line vector pass — `ln_fast` is branch-free) and reduce
    // through the reassociated lane sum.
    for ((cf, &m), &rs) in coefs.iter_mut().zip(&*maxs).zip(&*sums) {
        *cf = m - *cf - ln_fast(rs);
    }
    let loss = sum_fast(coefs);
    // Per-sample scale (1/Σexp)·inv, then the whole block becomes the
    // coefficient matrix in one vector pass plus a scalar label fix-up.
    for (cf, &rs) in coefs.iter_mut().zip(&*sums) {
        *cf = rs * inv;
    }
    for row in probs.chunks_mut(nb) {
        for (p, &sc) in row.iter_mut().zip(&*coefs) {
            *p *= sc;
        }
    }
    for (s, &y) in labels.iter().enumerate() {
        probs[y as usize * nb + s] -= inv;
    }
    for (c, g) in gb.iter_mut().enumerate() {
        *g += sum_fast(&probs[c * nb..(c + 1) * nb]);
    }
    // Sample-major outer product over the original feature rows (warm in
    // cache from the transpose pass): four samples fold into each
    // accumulator row per pass, so the row's load/store traffic is paid
    // once per quad and the body is a pure fused multiply-add chain with
    // no fold step.
    let quads = chunk.chunks_exact(4);
    let rem = quads.remainder();
    for (q, quad) in quads.enumerate() {
        let s = q * 4;
        let x0 = &feats[quad[0] * dim..quad[0] * dim + dim];
        let x1 = &feats[quad[1] * dim..quad[1] * dim + dim];
        let x2 = &feats[quad[2] * dim..quad[2] * dim + dim];
        let x3 = &feats[quad[3] * dim..quad[3] * dim + dim];
        for c in 0..classes {
            let base = c * nb + s;
            let (c0, c1, c2, c3) =
                (probs[base], probs[base + 1], probs[base + 2], probs[base + 3]);
            let grow = &mut gw[c * dim..(c + 1) * dim];
            for ((((g, &v0), &v1), &v2), &v3) in
                grow.iter_mut().zip(x0).zip(x1).zip(x2).zip(x3)
            {
                *g = c3.mul_add(v3, c2.mul_add(v2, c1.mul_add(v1, c0.mul_add(v0, *g))));
            }
        }
    }
    for (r, &i) in rem.iter().enumerate() {
        let s = nb - rem.len() + r;
        let x = &feats[i * dim..(i + 1) * dim];
        for c in 0..classes {
            let cf = probs[c * nb + s];
            let grow = &mut gw[c * dim..(c + 1) * dim];
            for (g, &v) in grow.iter_mut().zip(x) {
                *g = cf.mul_add(v, *g);
            }
        }
    }
    loss
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random fill (splitmix-style), matching the
    /// `params` test helper.
    fn pseudo(n: usize, seed: u64) -> Vec<f32> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
        (0..n)
            .map(|_| {
                state ^= state >> 30;
                state = state.wrapping_mul(0xBF58_476D_1CE4_E5B9);
                state ^= state >> 27;
                ((state >> 40) as f32 / (1u64 << 24) as f32) * 4.0 - 2.0
            })
            .collect()
    }

    #[test]
    fn dot_fast_tracks_f64_reference() {
        for n in [0usize, 1, 15, 16, 17, 31, 32, 33, 100, 1000] {
            let x = pseudo(n, 1);
            let y = pseudo(n, 2);
            let reference: f64 =
                x.iter().zip(&y).map(|(&a, &b)| a as f64 * b as f64).sum();
            let bound: f64 =
                x.iter().zip(&y).map(|(&a, &b)| (a as f64 * b as f64).abs()).sum();
            let got = dot_fast(&x, &y) as f64;
            assert!(
                (got - reference).abs() <= 1e-5 * bound + 1e-30,
                "n={n}: {got} vs {reference}"
            );
        }
    }

    #[test]
    fn norm_sq_fast_tracks_f64_reference() {
        for n in [1usize, 16, 17, 100, 4096] {
            let x = pseudo(n, 3);
            let reference: f64 = x.iter().map(|&a| (a as f64) * a as f64).sum();
            let got = norm_sq_fast(&x) as f64;
            assert!(
                (got - reference).abs() <= 1e-5 * reference + 1e-30,
                "n={n}: {got} vs {reference}"
            );
        }
    }

    #[test]
    fn axpy_fast_is_bitwise_equal_to_strict_axpy() {
        for n in [1usize, 7, 16, 33, 128, 129] {
            let x = pseudo(n, 4);
            let mut ya = pseudo(n, 5);
            let mut yb = ya.clone();
            axpy_fast(0.37, &x, &mut ya);
            crate::params::axpy(0.37, &x, &mut yb);
            for (a, b) in ya.iter().zip(&yb) {
                assert_eq!(a.to_bits(), b.to_bits(), "n={n}");
            }
        }
    }

    #[test]
    fn mean_into_fast_tracks_f64_reference() {
        let vecs: Vec<Vec<f32>> = (0..13).map(|k| pseudo(37, 100 + k)).collect();
        let views: Vec<&[f32]> = vecs.iter().map(|v| v.as_slice()).collect();
        let mut out = vec![0.0f32; 37];
        mean_into_fast(&views, &mut out);
        for (j, &o) in out.iter().enumerate() {
            let reference: f64 =
                vecs.iter().map(|v| v[j] as f64).sum::<f64>() / vecs.len() as f64;
            assert!((o as f64 - reference).abs() < 1e-6, "elem {j}: {o} vs {reference}");
        }
    }

    #[test]
    fn exp_fast_relative_error_is_bounded() {
        let mut worst = 0.0f64;
        let mut x = -87.0f64;
        while x <= 88.0 {
            let xf = x as f32;
            let got = exp_fast(xf) as f64;
            let reference = (xf as f64).exp();
            let rel = ((got - reference) / reference).abs();
            worst = worst.max(rel);
            x += 0.0173;
        }
        assert!(worst < 1e-6, "worst relative error {worst}");
        // Saturation, not overflow/underflow.
        assert!(exp_fast(1e5).is_finite());
        assert!(exp_fast(-1e5) > 0.0);
        assert_eq!(exp_fast(0.0), 1.0);
    }

    #[test]
    fn ln_fast_error_is_bounded() {
        let mut x = 1e-30f64;
        while x <= 1e30 {
            let got = ln_fast(x as f32) as f64;
            let reference = (x as f32) as f64;
            let reference = reference.ln();
            let err = (got - reference).abs();
            let tol = 1e-6 * reference.abs().max(1.0);
            assert!(err <= tol, "x={x}: {got} vs {reference}");
            x *= 1.7;
        }
        // Dense sweep near 1, where relative error degenerates.
        let mut x = 0.5f64;
        while x <= 2.0 {
            let got = ln_fast(x as f32) as f64;
            let reference = x.ln();
            assert!((got - reference).abs() < 3e-7, "x={x}: {got} vs {reference}");
            x += 0.003;
        }
        // Non-positive inputs clamp instead of returning NaN/−∞.
        assert!(ln_fast(0.0).is_finite());
        assert!(ln_fast(-1.0).is_finite());
    }

    #[test]
    fn batch_logits_fast_matches_a_plain_matmul() {
        let (classes, dim, nb) = (5usize, 7usize, 9usize);
        let w = pseudo(classes * dim, 8);
        let b = pseudo(classes, 9);
        let xb = pseudo(dim * nb, 10);
        let mut out = vec![0.0f32; classes * nb];
        batch_logits_fast(&w, &b, &xb, dim, nb, &mut out);
        for c in 0..classes {
            for s in 0..nb {
                let reference: f64 = (0..dim)
                    .map(|d| w[c * dim + d] as f64 * xb[d * nb + s] as f64)
                    .sum::<f64>()
                    + b[c] as f64;
                let got = out[c * nb + s] as f64;
                assert!((got - reference).abs() < 1e-5, "({c},{s}): {got} vs {reference}");
            }
        }
    }

    #[test]
    fn softmax_block_fast_produces_normalised_rows() {
        let (classes, nb) = (10usize, 17usize);
        let mut block = pseudo(classes * nb, 11);
        let (mut maxs, mut sums) = (Vec::new(), Vec::new());
        softmax_block_fast(&mut block, nb, &mut maxs, &mut sums);
        for s in 0..nb {
            let total: f64 = (0..classes).map(|c| block[c * nb + s] as f64).sum();
            assert!((total - 1.0).abs() < 1e-5, "sample {s} sums to {total}");
            for c in 0..classes {
                let p = block[c * nb + s];
                assert!(p > 0.0 && p < 1.0 + 1e-6, "p[{c},{s}] = {p}");
            }
        }
    }
}
