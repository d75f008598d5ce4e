//! Timing bookkeeping: named spans, the step-loop throughput counters,
//! the host-speed gauge, and the summary statistics every reported timing
//! goes through.

use std::collections::BTreeMap;
use std::fmt::Write;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Duration of one [`host_probe_s`] on the reference host (a 2-vCPU KVM
/// guest on an Intel Xeon, in its fast mode). Untraced timings are scaled
/// by this over the probe measured next to them.
pub const REFERENCE_PROBE_S: f64 = 37.5e-6;

/// Collects the measurements of one benchmark phase.
///
/// Untraced, only the end-to-end quantities are timed (each checkpoint
/// operation, each set-up, and each step-loop segment as a whole), and each
/// is scaled to the reference host speed by the latest [`Meter::gauge`].
/// Traced, every `Session::step()` call and every checkpoint sub-operation
/// is its own span, attributed to the layer that did the work, and nothing
/// is scaled.
pub struct Meter {
    pub traced: bool,
    /// `REFERENCE_PROBE_S` over the latest probe (1 when traced).
    pace: f64,
    probe: ProbeScratch,
    /// Every probe taken, in seconds.
    pub probes: Vec<f64>,
    spans: BTreeMap<&'static str, Vec<f64>>,
    span_total_s: f64,
    /// Real time of the passes (or cycles) this meter measured.
    pub wall_s: f64,
    /// Part of `wall_s` spent outside the measured program (tracker
    /// captures).
    pub excluded_s: f64,
    /// Global steps run in timed step loops.
    pub steps: u64,
    /// Real seconds those steps took.
    pub step_s: f64,
    /// The same seconds scaled to the reference host speed.
    paced_step_s: f64,
    /// Per-pass step rates at the reference host speed, steps per second.
    pub step_rates: Vec<f64>,
    /// Set-up times at the reference host speed, one per complete set-up.
    pub setups: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Measured values that are not spans (sizes, simulated times), by name.
    pub values: BTreeMap<&'static str, Vec<f64>>,
}

impl Meter {
    pub fn fresh(traced: bool) -> Self {
        Self {
            traced,
            pace: 1.0,
            probe: ProbeScratch::sized(),
            probes: Vec::new(),
            spans: BTreeMap::new(),
            span_total_s: 0.0,
            wall_s: 0.0,
            excluded_s: 0.0,
            steps: 0,
            step_s: 0.0,
            paced_step_s: 0.0,
            step_rates: Vec::new(),
            setups: Vec::new(),
            attempted: 0,
            failed: 0,
            values: BTreeMap::new(),
        }
    }

    /// Probes the host's current speed and scales the untraced timings
    /// that follow by it. A no-op when traced.
    pub fn gauge(&mut self) {
        if !self.traced {
            let probe = host_probe_s(&mut self.probe);
            self.probes.push(probe);
            self.pace = REFERENCE_PROBE_S / probe;
        }
    }

    /// `secs` real seconds at the current host speed, in seconds at the
    /// reference speed.
    pub fn paced(&self, secs: f64) -> f64 {
        secs * self.pace
    }

    /// Records a span of `d` under `layer` that nests inside a top-level
    /// span.
    pub fn span(&mut self, layer: &'static str, d: Duration) {
        let secs = self.paced(d.as_secs_f64());
        self.spans.entry(layer).or_default().push(secs);
    }

    /// Records a nested span of `d` under `layer`, paced by the square root
    /// of the host-speed factor: for work that the host's slow spells slow
    /// about half as much as they slow the probe.
    pub fn half_paced_span(&mut self, layer: &'static str, d: Duration) {
        let secs = d.as_secs_f64() * self.pace.sqrt();
        self.spans.entry(layer).or_default().push(secs);
    }

    /// Records a top-level span: top-level spans never overlap, and their
    /// sum is what the trace covers of the wall time.
    pub fn top_span(&mut self, layer: &'static str, d: Duration) {
        self.span(layer, d);
        self.span_total_s += d.as_secs_f64();
    }

    pub fn record_value(&mut self, name: &'static str, v: f64) {
        self.values.entry(name).or_default().push(v);
    }

    pub fn values_of(&self, name: &str) -> &[f64] {
        self.values.get(name).map_or(&[], Vec::as_slice)
    }

    /// Books a timed step-loop segment of `steps` global steps, which took
    /// `secs` real seconds and `paced` seconds at the reference speed.
    pub fn segment_done(&mut self, steps: u64, secs: f64, paced: f64) {
        self.steps += steps;
        self.step_s += secs;
        self.paced_step_s += paced;
    }

    /// Closes one pass for the per-pass step-rate samples.
    pub fn close_rate(&mut self, steps_before: u64, paced_before: f64) {
        let (steps, secs) = (self.steps - steps_before, self.paced_step_s - paced_before);
        if steps > 0 && secs > 0.0 {
            self.step_rates.push(steps as f64 / secs);
        }
    }

    /// Global steps and paced seconds booked so far.
    pub fn step_marks(&self) -> (u64, f64) {
        (self.steps, self.paced_step_s)
    }

    /// The span samples of `layer`, in seconds (empty when none ran).
    pub fn samples(&self, layer: &str) -> &[f64] {
        self.spans.get(layer).map_or(&[], Vec::as_slice)
    }

    /// Total seconds in spans of `layer`.
    pub fn layer_total(&self, layer: &str) -> f64 {
        self.samples(layer).iter().fold(0.0, |a, b| a + b)
    }

    /// Total seconds in top-level spans.
    pub fn span_total(&self) -> f64 {
        self.span_total_s
    }

    /// Aggregate global steps per real second over every timed step loop.
    pub fn steps_per_s(&self) -> f64 {
        if self.step_s > 0.0 {
            self.steps as f64 / self.step_s
        } else {
            0.0
        }
    }

    /// Aggregate global steps per second at the reference host speed.
    pub fn paced_steps_per_s(&self) -> f64 {
        if self.paced_step_s > 0.0 {
            self.steps as f64 / self.paced_step_s
        } else {
            0.0
        }
    }
}

/// Scratch space of [`host_probe_s`], allocated once per meter.
struct ProbeScratch {
    vector: Vec<f32>,
    matrix: Vec<f64>,
    text: String,
}

/// Side of the probe's elimination matrix.
const PROBE_ROWS: usize = 24;

impl ProbeScratch {
    fn sized() -> Self {
        Self {
            vector: (0..1024).map(|i| (i % 7) as f32 * 0.25).collect(),
            matrix: vec![0.0; PROBE_ROWS * PROBE_ROWS],
            text: String::with_capacity(1024),
        }
    }
}

/// Fastest of three runs of a fixed kernel, in seconds. The kernel is a
/// small mix of the kinds of work the workloads do: an unrolled f32
/// multiply-add sweep (gradients, merges), f64 row elimination (the policy
/// LP), float formatting and parsing (JSON snapshots), and an FNV-1a hash
/// (delta fingerprints). It shares no code with the program measured, so a
/// change to the program cannot move it; only the host's speed does.
fn host_probe_s(scratch: &mut ProbeScratch) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        let mut acc = [0f32; 8];
        for r in 0..4 {
            for chunk in scratch.vector.chunks_exact(8) {
                for k in 0..8 {
                    acc[k] = acc[k] * 0.999 + chunk[k] * r as f32;
                }
            }
        }
        let n = PROBE_ROWS;
        let m = &mut scratch.matrix;
        for (i, x) in m.iter_mut().enumerate() {
            *x = ((i * 7 + 3) % 11) as f64 + if i % (n + 1) == 0 { 50.0 } else { 0.0 };
        }
        for p in 0..n {
            let pivot = m[p * n + p];
            for r in (0..n).filter(|&r| r != p) {
                let f = m[r * n + p] / pivot;
                for c in 0..n {
                    m[r * n + c] -= f * m[p * n + c];
                }
            }
        }
        scratch.text.clear();
        for (i, x) in m.iter().take(48).enumerate() {
            let _ = write!(scratch.text, "{:.6},", x + i as f64);
        }
        let parsed: f64 = scratch
            .text
            .split(',')
            .filter_map(|t| t.parse::<f64>().ok())
            .sum();
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for &b in scratch.text.as_bytes().iter().cycle().take(4096) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        black_box((acc, parsed, h));
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Median of `xs` (0 when empty).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolated quantile `q` of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The highest of the usual tail percentiles that still has at least ten
/// samples beyond it, as `(percentile, value)`; `None` below 20 samples.
pub fn tail_percentile(xs: &[f64]) -> Option<(f64, f64)> {
    [99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| xs.len() as f64 * (100.0 - p) / 100.0 + 1e-6 >= 10.0)
        .map(|p| (p, quantile(xs, p / 100.0)))
}

/// Median per-call time, in microseconds, of `calls` calls of `f` per
/// batch over `batches` batches.
pub fn per_call_us(batches: usize, calls: usize, mut f: impl FnMut(usize)) -> f64 {
    let mut per = Vec::with_capacity(batches);
    for b in 0..batches {
        let t0 = Instant::now();
        for k in 0..calls {
            f(b * calls + k);
        }
        per.push(t0.elapsed().as_secs_f64() * 1e6 / calls as f64);
    }
    median(&per)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let text = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (0..19).map(f64::from).collect();
        assert!(tail_percentile(&xs).is_none());
        let xs: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs).map(|t| t.0), Some(90.0));
        let xs: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs).map(|t| t.0), Some(99.0));
    }
}
