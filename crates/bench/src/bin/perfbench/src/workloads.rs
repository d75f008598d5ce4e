//! The four workloads, the closed loop that drives them, and the output
//! checks.
//!
//! Every workload is a closed loop over one session at a time: the next
//! `Session::step()` starts only after the previous one returned. Training
//! workloads run their arms to completion, pausing every `ckpt_every`
//! global steps for one checkpoint cycle on the live session; `ckpt1024`
//! sets one session up and then runs checkpoint cycles back to back. A
//! cycle is: a binary full snapshot, a binary restore into a fresh session,
//! a JSON save, a JSON restore, four training steps, and a delta snapshot.
//! Restores and deltas are checked byte for byte, so the cycles never
//! change what the session computes.

use crate::meter::{self, Meter};
use netmax_bench::experiments::scale;
use netmax_bench::registry::sanity_spec;
use netmax_bench::{Arm, Mode};
use netmax_core::engine::{
    decode_session_v3, reconstruct_chain, Algorithm, AlgorithmKind, CheckpointScratch, Environment,
    RunReport, Scenario, Session, StepEvent, StopCondition,
};
use netmax_core::monitor::EmaTimeTracker;
use netmax_core::{MonitorConfig, PolicyGenerator, PolicySearchConfig, DENSE_CONTROL_THRESHOLD};
use netmax_json::Json;
use netmax_ml::metrics;
use netmax_ml::model::Scratch;
use netmax_ml::tier::NumericsTier;
use netmax_ml::workload::Workload as Data;
use netmax_net::EventQueue;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

/// Training steps between a full snapshot and its delta.
const DELTA_STEPS: u64 = 4;

/// Checkpoint cycles per training pass, spread evenly over its arms.
const CYCLES_PER_PASS: u64 = 16;

/// Timed training steps before each `ckpt1024` cycle, so that its step
/// rate rests on more than the four-step delta windows.
const CKPT_STEPS: u64 = 256;

/// Set-ups timed per `ckpt1024` run (the median is reported).
const CKPT_SETUPS: usize = 5;

/// Set-ups timed at the start of a training run, besides the one before
/// each pass.
const EXTRA_SETUPS: usize = 2;

/// Steps per node of the torus workloads (the `scale/*` sweep's budget).
const TORUS_STEPS_PER_NODE: u64 = 96;

/// The loss target of the paper's time-to-loss metric.
const LOSS_TARGET: f64 = 0.40;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The sanity scenario: 8 workers, headline four, 48 epochs.
    Paper8,
    /// NetMax on the 4×8 torus: the dense control plane at fleet size.
    Torus32,
    /// NetMax on the 8×16 torus: the sparse control plane.
    Torus128,
    /// AD-PSGD on the 32×32 torus: checkpoint save/restore cycles.
    Ckpt1024,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Paper8,
        Workload::Torus32,
        Workload::Torus128,
        Workload::Ckpt1024,
    ];

    pub fn cli_name(self) -> &'static str {
        match self {
            Workload::Paper8 => "paper8",
            Workload::Torus32 => "torus32",
            Workload::Torus128 => "torus128",
            Workload::Ckpt1024 => "ckpt1024",
        }
    }

    pub fn named(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.cli_name() == name)
    }

    /// The seed of the committed reference results.
    pub fn default_seed(self) -> u64 {
        match self {
            Workload::Paper8 => 7,
            _ => 11,
        }
    }
}

/// One captured monitor-round input: the tracker state and the learning
/// rate the round ran with.
struct Capture {
    tracker: Json,
    alpha: f64,
}

/// A workload instantiated at one seed.
struct Fixture {
    kind: Workload,
    seed: u64,
    scenario: Scenario,
    arms: Vec<Arm>,
    /// Datasets for the fresh sessions restores go into (generated once,
    /// shared by reference).
    data: Data,
    alpha: f64,
    ckpt_every: u64,
    /// Tracker states captured at monitor rounds of the traced phase.
    captures: Vec<Capture>,
    /// The last binary snapshot taken, with the index of its arm: the
    /// live state the sub-split calls run on.
    last_snapshot: Option<(usize, Vec<u8>)>,
}

impl Fixture {
    fn at_seed(kind: Workload, seed: u64) -> Self {
        let (scenario, arms, budget) = match kind {
            Workload::Paper8 => {
                let spec = sanity_spec(Mode::Full);
                let mut scenario = spec.scenario.clone();
                scenario.cfg_mut().seed = seed;
                // 8 workers × 48 epochs × 24 steps per epoch.
                (scenario, spec.arms, 9216)
            }
            Workload::Torus32 | Workload::Torus128 | Workload::Ckpt1024 => {
                let n = match kind {
                    Workload::Torus32 => 32,
                    Workload::Torus128 => 128,
                    _ => 1024,
                };
                let params = scale::Params {
                    node_counts: vec![n],
                    steps_per_node: TORUS_STEPS_PER_NODE,
                    repeats: 1,
                    seed,
                };
                let spec = scale::specs(&params).remove(0);
                let mut scenario = spec.scenario;
                if kind == Workload::Ckpt1024 {
                    // The checkpoint bench's session: no stop in sight and
                    // no metric samples, so only the codec paths are timed.
                    scenario.cfg_mut().stop = Some(StopCondition::MaxGlobalSteps(10_000_000));
                    scenario.cfg_mut().record_every_steps = u64::MAX / 2;
                    (scenario, vec![Arm::new(AlgorithmKind::AdPsgd)], 0)
                } else {
                    let arms = spec
                        .arms
                        .into_iter()
                        .filter(|a| a.algorithm == AlgorithmKind::NetMax)
                        .collect();
                    (scenario, arms, n as u64 * TORUS_STEPS_PER_NODE)
                }
            }
        };
        let data = scenario.workload();
        let alpha = data.optim.lr;
        let ckpt_every = (budget * arms.len() as u64 / CYCLES_PER_PASS).max(1);
        Fixture {
            kind,
            seed,
            scenario,
            arms,
            data,
            alpha,
            ckpt_every,
            captures: Vec::new(),
            last_snapshot: None,
        }
    }

    fn fresh_env(&self) -> Environment {
        self.scenario.build_env_with(self.data.clone())
    }
}

/// Reusable checkpoint buffers of one session.
#[derive(Default)]
struct Bufs {
    scratch: CheckpointScratch,
    check: CheckpointScratch,
    bin: Vec<u8>,
    again: Vec<u8>,
    delta: Vec<u8>,
    full: Vec<u8>,
}

fn to_msg(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Steps `session` until it finishes or reaches global step `until`.
/// Untraced, the loop is timed as a whole, between two host-speed gauges
/// whose mean paces it; traced, every call is a span of the layer its
/// event names. `captures` collects tracker states at monitor rounds,
/// outside the measured time.
fn step_until(
    session: &mut Session<'_>,
    until: u64,
    m: &mut Meter,
    mut captures: Option<&mut Vec<Capture>>,
) -> Option<RunReport> {
    let gs0 = session.env().global_step;
    if !m.traced {
        m.gauge();
        let pace_before = m.paced(1.0);
        let t0 = Instant::now();
        let mut done = None;
        while session.env().global_step < until {
            if let StepEvent::Finished { report } = session.step() {
                done = Some(report);
                break;
            }
        }
        let secs = t0.elapsed().as_secs_f64();
        m.gauge();
        let paced = secs * (pace_before + m.paced(1.0)) / 2.0;
        m.segment_done(session.env().global_step - gs0, secs, paced);
        return done;
    }
    let mut secs = 0.0;
    let mut done = None;
    while session.env().global_step < until {
        let t0 = Instant::now();
        let event = session.step();
        let d = t0.elapsed();
        secs += d.as_secs_f64();
        let layer = match &event {
            StepEvent::GlobalStep { .. } => "engine.step",
            StepEvent::RoundComplete { .. } => "baselines.round",
            StepEvent::Sampled { .. } => "recorder.sample",
            StepEvent::MonitorRound { .. } => "monitor.round",
            StepEvent::NodeDown { .. } | StepEvent::NodeUp { .. } => "engine.membership",
            StepEvent::Finished { .. } => "recorder.finish",
        };
        m.top_span(layer, d);
        match event {
            StepEvent::Finished { report } => {
                done = Some(report);
                break;
            }
            StepEvent::MonitorRound { .. } => {
                if let Some(out) = captures.as_deref_mut() {
                    let t0 = Instant::now();
                    capture_tracker(session, out);
                    m.excluded_s += t0.elapsed().as_secs_f64();
                }
            }
            _ => {}
        }
    }
    m.segment_done(session.env().global_step - gs0, secs, secs);
    done
}

fn capture_tracker(session: &Session<'_>, out: &mut Vec<Capture>) {
    let doc = session.checkpoint();
    let tracker = doc
        .get("driver")
        .and_then(|d| d.get("behavior"))
        .and_then(|b| b.get("tracker"));
    if let Some(t @ Json::Obj(_)) = tracker {
        let env = session.env();
        out.push(Capture {
            tracker: t.clone(),
            alpha: env.workload.optim.lr_at(env.mean_epoch()),
        });
    }
}

/// The first half of a checkpoint cycle: binary save, binary restore,
/// JSON save, JSON restore. Each restore goes into a fresh session whose
/// own checkpoint must reproduce the saved bytes.
fn full_part(
    fx: &Fixture,
    arm: &Arm,
    session: &Session<'_>,
    b: &mut Bufs,
    m: &mut Meter,
) -> Result<(), String> {
    let t0 = Instant::now();
    session
        .checkpoint_binary(&mut b.scratch, &mut b.bin)
        .map_err(to_msg)?;
    m.span("codec.encode", t0.elapsed());
    m.record_value("ckpt_bytes", b.bin.len() as f64);
    {
        let mut env = fx.fresh_env();
        let mut algo = arm.instantiate(fx.alpha);
        let restored = if m.traced {
            let t0 = Instant::now();
            let doc = decode_session_v3(&b.bin).map_err(to_msg)?;
            m.span("codec.decode", t0.elapsed());
            let t0 = Instant::now();
            let s = Session::restore(&mut env, algo.driver(), &doc).map_err(to_msg)?;
            m.span("ckpt.apply", t0.elapsed());
            s
        } else {
            let t0 = Instant::now();
            let s = Session::restore_bytes(&mut env, algo.driver(), &b.bin).map_err(to_msg)?;
            m.span("ckpt_restore", t0.elapsed());
            s
        };
        restored
            .checkpoint_binary(&mut b.check, &mut b.again)
            .map_err(to_msg)?;
        if b.again != b.bin {
            return Err("binary restore re-checkpoints to different bytes".into());
        }
    }
    let text = if m.traced {
        let t0 = Instant::now();
        let doc = session.checkpoint();
        m.span("ckpt.to_value", t0.elapsed());
        let t0 = Instant::now();
        let text = doc.pretty();
        m.span("json.write", t0.elapsed());
        text
    } else {
        let t0 = Instant::now();
        let text = session.checkpoint().pretty();
        m.span("ckpt_json_save", t0.elapsed());
        text
    };
    let mut env = fx.fresh_env();
    let mut algo = arm.instantiate(fx.alpha);
    let restored = if m.traced {
        let t0 = Instant::now();
        let doc = Json::parse(&text).map_err(to_msg)?;
        m.span("json.parse", t0.elapsed());
        let t0 = Instant::now();
        let s = Session::restore(&mut env, algo.driver(), &doc).map_err(to_msg)?;
        m.span("ckpt.apply", t0.elapsed());
        s
    } else {
        let t0 = Instant::now();
        let s = Session::restore_bytes(&mut env, algo.driver(), text.as_bytes()).map_err(to_msg)?;
        m.span("ckpt_json_restore", t0.elapsed());
        s
    };
    if restored.checkpoint().pretty() != text {
        return Err("JSON restore re-checkpoints to a different document".into());
    }
    Ok(())
}

/// The second half of a checkpoint cycle, after the delta window: the
/// delta snapshot, whose chain must rebuild a fresh full snapshot.
fn delta_part(session: &Session<'_>, b: &mut Bufs, m: &mut Meter) -> Result<(), String> {
    let t0 = Instant::now();
    session
        .checkpoint_delta(&mut b.scratch, &mut b.delta)
        .map_err(to_msg)?;
    // A delta's time moves with the probe's to a power of ~0.3 at n = 8,
    // ~0.6 at n = 1024 and ~0.8 at n = 128, where the other operations
    // move about 1:1; pacing it by half keeps every workload within 0.3.
    m.half_paced_span("codec.delta", t0.elapsed());
    m.record_value("ckpt_delta_bytes", b.delta.len() as f64);
    session
        .checkpoint_binary(&mut b.check, &mut b.full)
        .map_err(to_msg)?;
    let rebuilt = reconstruct_chain(&b.bin, std::slice::from_ref(&b.delta)).map_err(to_msg)?;
    if rebuilt != b.full {
        return Err("delta chain does not rebuild the full snapshot".into());
    }
    Ok(())
}

/// One checkpoint cycle on a live session, counted as one operation.
/// Returns the run's report when the delta window finished the session.
fn ckpt_cycle(
    fx: &mut Fixture,
    arm_idx: usize,
    session: &mut Session<'_>,
    b: &mut Bufs,
    m: &mut Meter,
    capture: bool,
) -> Option<RunReport> {
    m.attempted += 1;
    let arm = fx.arms[arm_idx].clone();
    let t0 = Instant::now();
    let full = catch_unwind(AssertUnwindSafe(|| full_part(fx, &arm, session, b, m)));
    m.top_span("ckpt.cycle", t0.elapsed());
    let until = session.env().global_step + DELTA_STEPS;
    let done = step_until(session, until, m, capture.then_some(&mut fx.captures));
    let t0 = Instant::now();
    let delta = catch_unwind(AssertUnwindSafe(|| delta_part(session, b, m)));
    m.top_span("ckpt.cycle", t0.elapsed());
    let outcome = match (full, delta) {
        (Ok(Ok(())), Ok(Ok(()))) => Ok(()),
        (Ok(Err(e)), _) | (_, Ok(Err(e))) => Err(e),
        _ => Err("checkpoint cycle panicked".into()),
    };
    match outcome {
        Ok(()) => fx.last_snapshot = Some((arm_idx, b.bin.clone())),
        Err(e) => {
            m.failed += 1;
            eprintln!(
                "perfbench: {} checkpoint cycle failed: {e}",
                fx.kind.cli_name()
            );
        }
    }
    done
}

/// One training run of arm `arm_idx` with its checkpoint cycles. `setup`
/// accumulates the run's set-up time.
fn train(
    fx: &mut Fixture,
    arm_idx: usize,
    data: &Data,
    m: &mut Meter,
    capture: bool,
    setup: &mut f64,
) -> Result<RunReport, String> {
    let t0 = Instant::now();
    let mut algo = fx.arms[arm_idx].instantiate(fx.alpha);
    let mut env = fx.scenario.build_env_with(data.clone());
    let mut session = Session::new(&mut env, algo.driver()).map_err(to_msg)?;
    let d = t0.elapsed();
    m.top_span("setup", d);
    *setup += m.paced(d.as_secs_f64());
    let mut bufs = Bufs::default();
    let mut next = fx.ckpt_every;
    loop {
        let captures = capture.then_some(&mut fx.captures);
        if let Some(report) = step_until(&mut session, next, m, captures) {
            return Ok(report);
        }
        next += fx.ckpt_every;
        if let Some(report) = ckpt_cycle(fx, arm_idx, &mut session, &mut bufs, m, capture) {
            return Ok(report);
        }
    }
}

/// A short fingerprint of a run's simulated outcome.
fn report_digest(r: &RunReport) -> String {
    format!(
        "{} {} {:?} {:?} {:?} {}",
        r.algorithm,
        r.global_steps,
        r.wall_clock_s,
        r.final_train_loss,
        r.final_test_accuracy,
        r.samples.len()
    )
}

/// The simulated fields `BENCH_sanity.json` commits for one arm, formatted
/// as that file writes them.
fn sanity_fields(r: &RunReport) -> String {
    format!(
        "{:.3} {:.4} {:.4} {:.4} {:.6} {:.4} {} {}",
        r.wall_clock_s,
        r.epoch_time_avg_s(),
        r.comp_cost_per_epoch_s(),
        r.comm_cost_per_epoch_s(),
        r.final_train_loss,
        r.final_test_accuracy,
        r.time_to_loss(LOSS_TARGET)
            .map_or("null".to_string(), |t| format!("{t:.2}")),
        r.global_steps
    )
}

/// `BENCH_sanity.json` (seed 7), arm by arm.
const SANITY_REFERENCE: [(&str, &str); 4] = [
    (
        "Prague",
        "8479.505 176.6564 5.8594 170.7970 0.320856 0.8660 234.17 9216",
    ),
    (
        "Allreduce",
        "2384.975 49.6870 5.8594 43.8276 0.320514 0.8656 219.64 9216",
    ),
    (
        "AD-PSGD",
        "1159.540 24.8793 5.9986 18.8807 0.319346 0.8656 67.65 9214",
    ),
    (
        "NetMax",
        "960.769 19.9813 5.9986 13.9828 0.337347 0.8608 7.56 9214",
    ),
];

/// The NetMax cells of `BENCH_scale.json` (seed 11): nodes, global steps,
/// simulated wall seconds, final training loss.
const SCALE_REFERENCE: [(usize, u64, f64, f64); 2] = [
    (32, 3072, 14.279999999999982, 2.52741776406765),
    (128, 12288, 5.103999999999994, 2.4692516829818487),
];

/// Checks one finished training run: against the committed reference at
/// the default seed, against invariants at any other.
fn check_report(fx: &Fixture, arm: &Arm, r: &RunReport) -> Result<(), String> {
    let n = fx.scenario.workers();
    if !(r.final_train_loss.is_finite() && r.wall_clock_s.is_finite() && r.wall_clock_s > 0.0)
        || r.samples.iter().any(|s| !s.train_loss.is_finite())
    {
        return Err(format!(
            "{}: non-finite loss or simulated time",
            arm.label()
        ));
    }
    if fx.kind == Workload::Paper8 {
        let max_epochs = fx.scenario.cfg().max_epochs;
        if r.epochs_completed < max_epochs - 1e-9 {
            return Err(format!(
                "{}: stopped at {} epochs, budget {max_epochs}",
                arm.label(),
                r.epochs_completed
            ));
        }
        if fx.seed == fx.kind.default_seed() {
            let got = sanity_fields(r);
            let want = SANITY_REFERENCE
                .iter()
                .find(|(l, _)| *l == arm.label())
                .map(|x| x.1);
            if want != Some(got.as_str()) {
                return Err(format!(
                    "{}: `{got}` differs from BENCH_sanity.json",
                    arm.label()
                ));
            }
        }
        return Ok(());
    }
    if r.global_steps != n as u64 * TORUS_STEPS_PER_NODE {
        return Err(format!(
            "{}: {} global steps, budget {}",
            arm.label(),
            r.global_steps,
            n as u64 * TORUS_STEPS_PER_NODE
        ));
    }
    if fx.seed == fx.kind.default_seed() {
        let want = SCALE_REFERENCE.iter().find(|c| c.0 == n);
        if want.is_some_and(|&(_, steps, wall, loss)| {
            (r.global_steps, r.wall_clock_s, r.final_train_loss) != (steps, wall, loss)
        }) {
            return Err(format!(
                "{}: ({}, {:?}, {:?}) differs from BENCH_scale.json",
                arm.label(),
                r.global_steps,
                r.wall_clock_s,
                r.final_train_loss
            ));
        }
    }
    Ok(())
}

/// One pass over a training workload's arms, in order: one operation per
/// run plus one per checkpoint cycle.
fn run_pass(fx: &mut Fixture, m: &mut Meter, digests: &mut Vec<String>, capture: bool) {
    m.gauge();
    let t0 = Instant::now();
    let data = fx.scenario.workload();
    let d = t0.elapsed();
    m.top_span("setup", d);
    let mut setup = m.paced(d.as_secs_f64());
    let (steps0, secs0) = m.step_marks();
    for arm_idx in 0..fx.arms.len() {
        m.attempted += 1;
        let run = catch_unwind(AssertUnwindSafe(|| {
            train(fx, arm_idx, &data, m, capture, &mut setup)
        }));
        let arm = &fx.arms[arm_idx];
        let checked = match run {
            Ok(Ok(report)) => {
                digests.push(report_digest(&report));
                if arm.algorithm == AlgorithmKind::NetMax {
                    if let Some(t) = report.time_to_loss(LOSS_TARGET) {
                        m.record_value("sim_time_to_loss_s", t);
                    }
                }
                check_report(fx, arm, &report)
            }
            Ok(Err(e)) => Err(e),
            Err(_) => Err(format!("{}: training run panicked", arm.label())),
        };
        if let Err(e) = checked {
            m.failed += 1;
            eprintln!("perfbench: {} run failed: {e}", fx.kind.cli_name());
        }
    }
    m.setups.push(setup);
    m.close_rate(steps0, secs0);
}

/// Sets a training workload up as a pass would (datasets, then every
/// arm's environment and session) without training, for more `setup_s`
/// samples than the passes alone give.
fn set_up_only(fx: &Fixture, m: &mut Meter) -> Result<(), String> {
    m.gauge();
    let t0 = Instant::now();
    let data = fx.scenario.workload();
    let mut built: Vec<(Box<dyn Algorithm>, Environment)> = fx
        .arms
        .iter()
        .map(|arm| {
            (
                arm.instantiate(fx.alpha),
                fx.scenario.build_env_with(data.clone()),
            )
        })
        .collect();
    for (algo, env) in &mut built {
        Session::new(env, algo.driver()).map_err(to_msg)?;
    }
    let d = t0.elapsed();
    m.top_span("setup", d);
    m.setups.push(m.paced(d.as_secs_f64()));
    Ok(())
}

/// Builds `ckpt1024`'s session and warms it up with about one step per
/// node.
fn warm_session<'a>(
    env: &'a mut Environment,
    algo: &'a mut Box<dyn Algorithm>,
) -> Result<Session<'a>, String> {
    let n = env.num_nodes() as u64;
    let mut session = Session::new(env, algo.driver()).map_err(to_msg)?;
    while session.env().global_step < n {
        session.step();
    }
    Ok(session)
}

/// `ckpt1024`: a few timed set-ups (booked on the last meter), then
/// turns of `CKPT_STEPS` training steps and a checkpoint cycle on one
/// session until the deadline, at least ten per meter, taking turns
/// between the meters.
fn ckpt_loop(fx: &mut Fixture, meters: &mut [Meter], deadline: Instant) {
    let Some(m) = meters.last_mut() else { return };
    let start = Instant::now();
    let setup_failed = |m: &mut Meter, e: String| {
        m.attempted += 1;
        m.failed += 1;
        eprintln!("perfbench: ckpt1024 set-up failed: {e}");
    };
    for _ in 1..CKPT_SETUPS {
        m.gauge();
        let t0 = Instant::now();
        let mut env = fx.scenario.build_env_with(fx.scenario.workload());
        let mut algo = fx.arms[0].instantiate(fx.alpha);
        let warmed = warm_session(&mut env, &mut algo).map(|s| black_box(s.env().global_step));
        let d = t0.elapsed();
        m.top_span("setup", d);
        m.setups.push(m.paced(d.as_secs_f64()));
        if let Err(e) = warmed {
            return setup_failed(m, e);
        }
    }
    m.gauge();
    let t0 = Instant::now();
    let mut env = fx.scenario.build_env_with(fx.scenario.workload());
    let mut algo = fx.arms[0].instantiate(fx.alpha);
    let mut session = match warm_session(&mut env, &mut algo) {
        Ok(s) => s,
        Err(e) => return setup_failed(m, e),
    };
    let d = t0.elapsed();
    m.top_span("setup", d);
    m.setups.push(m.paced(d.as_secs_f64()));
    m.wall_s += start.elapsed().as_secs_f64();
    let mut bufs = Bufs::default();
    let mut cycles = 0;
    while cycles < 10 || Instant::now() < deadline {
        for m in meters.iter_mut() {
            let t0 = Instant::now();
            let (steps0, secs0) = m.step_marks();
            let until = session.env().global_step + CKPT_STEPS;
            step_until(&mut session, until, m, None);
            m.close_rate(steps0, secs0);
            ckpt_cycle(fx, 0, &mut session, &mut bufs, m, false);
            m.wall_s += t0.elapsed().as_secs_f64();
        }
        cycles += 1;
    }
}

/// Times one set-up of `fx`, booking a failure as an operation.
fn timed_set_up(fx: &Fixture, m: &mut Meter) {
    let t0 = Instant::now();
    let outcome = set_up_only(fx, m);
    m.wall_s += t0.elapsed().as_secs_f64();
    if let Err(e) = outcome {
        m.attempted += 1;
        m.failed += 1;
        eprintln!("perfbench: {} set-up failed: {e}", fx.kind.cli_name());
    }
}

/// Measures `fx` for about `seconds`, taking turns between the meters so
/// that slow spells of the machine hit each alike: single cycles for
/// `ckpt1024`; for training workloads, a timed set-up and a whole pass,
/// started only if expected to end by the deadline, give or take half a
/// turn. Returns each meter's run digests, in order.
fn measure(fx: &mut Fixture, meters: &mut [Meter], seconds: f64) -> Vec<Vec<String>> {
    let mut digests = vec![Vec::new(); meters.len()];
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    if fx.kind == Workload::Ckpt1024 {
        ckpt_loop(fx, meters, deadline);
        return digests;
    }
    for m in meters.iter_mut() {
        for _ in 0..EXTRA_SETUPS {
            timed_set_up(fx, m);
        }
    }
    let mut first = true;
    let mut turn = Duration::ZERO;
    while first || Instant::now() + turn / 2 < deadline {
        let t0 = Instant::now();
        for (m, d) in meters.iter_mut().zip(&mut digests) {
            timed_set_up(fx, m);
            let t1 = Instant::now();
            // Tracker states are captured once, on the first traced pass.
            run_pass(fx, m, d, m.traced && first);
            m.wall_s += t1.elapsed().as_secs_f64();
        }
        turn = t0.elapsed();
        first = false;
    }
    digests
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// The samples the value summarises (empty for single measurements).
    pub samples: Vec<f64>,
}

/// What one benchmark invocation measured.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Human-readable lines beyond the metrics.
    pub notes: Vec<String>,
}

/// A metric measured once, not summarised from samples.
fn single(name: &'static str, unit: &'static str, value: f64) -> Metric {
    metric(name, unit, value, Vec::new())
}

fn metric(name: &'static str, unit: &'static str, value: f64, samples: Vec<f64>) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// Median of span samples of `layer`, in `scale` units per second.
fn span_median(
    m: &Meter,
    name: &'static str,
    layer: &str,
    unit: &'static str,
    scale: f64,
) -> Metric {
    let xs: Vec<f64> = m.samples(layer).iter().map(|s| s * scale).collect();
    metric(name, unit, meter::median(&xs), xs)
}

/// Mean of the values recorded under `name`. Sizes are deterministic per
/// seed and every pass repeats the same cycles, so the mean is too; unlike
/// the median, it does not jump between the sizes of single cycles.
fn mean_value(m: &Meter, name: &'static str, unit: &'static str) -> Metric {
    let xs = m.values_of(name).to_vec();
    let mean = xs.iter().sum::<f64>() / xs.len().max(1) as f64;
    metric(name, unit, mean, xs)
}

/// Runs workload `kind` at `seed` for about `seconds` of measurement.
/// Untraced, reports the end-to-end metrics. Traced, alternates untraced
/// and traced work (for the overhead and the transparency check), then
/// makes the direct calls, and reports the per-layer metrics.
pub fn run_workload(kind: Workload, seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut fx = Fixture::at_seed(kind, seed);
    if !traced {
        let mut meters = [Meter::fresh(false)];
        measure(&mut fx, &mut meters, seconds);
        let m = &meters[0];
        let mut notes = vec![format!(
            "unpaced steps/s {:.1}; host probe median {:.2} us over {} probes (reference {:.2} us)",
            m.steps_per_s(),
            meter::median(&m.probes) * 1e6,
            m.probes.len(),
            meter::REFERENCE_PROBE_S * 1e6
        )];
        if let Some(&t) = m.values_of("sim_time_to_loss_s").first() {
            notes.push(format!(
                "NetMax simulated time to train loss {LOSS_TARGET}: {t:.2} s"
            ));
        }
        let metrics = vec![
            metric(
                "steps_per_s",
                "1/s",
                m.paced_steps_per_s(),
                m.step_rates.clone(),
            ),
            metric("setup_s", "s", meter::median(&m.setups), m.setups.clone()),
            single("peak_rss_mb", "MB", meter::peak_rss_mb().unwrap_or(0.0)),
            span_median(m, "ckpt_save_ms", "codec.encode", "ms", 1e3),
            span_median(m, "ckpt_restore_ms", "ckpt_restore", "ms", 1e3),
            span_median(m, "ckpt_json_save_ms", "ckpt_json_save", "ms", 1e3),
            span_median(m, "ckpt_json_restore_ms", "ckpt_json_restore", "ms", 1e3),
            span_median(m, "ckpt_delta_ms", "codec.delta", "ms", 1e3),
            mean_value(m, "ckpt_bytes", "bytes"),
            mean_value(m, "ckpt_delta_bytes", "bytes"),
        ];
        let correct = m.failed == 0 && metrics.iter().all(|x| x.value.is_finite() && x.value > 0.0);
        return Outcome {
            correct,
            attempted: m.attempted,
            failed: m.failed,
            metrics,
            notes,
        };
    }

    let mut meters = [Meter::fresh(false), Meter::fresh(true)];
    let digests = measure(&mut fx, &mut meters, seconds);
    let [plain, m] = &meters;
    let mut notes = Vec::new();
    // The traced runs must compute what the untraced ones did, or the
    // layer split would describe another program. (`ckpt1024` runs both
    // on one session, and every cycle checks its restores byte for byte.)
    let shared = digests[0].len().min(digests[1].len());
    let transparent = digests[0][..shared] == digests[1][..shared]
        && (shared > 0 || fx.kind == Workload::Ckpt1024);
    if !transparent {
        notes.push("traced and untraced runs disagree on simulated results".into());
    }
    let wall = m.wall_s - m.excluded_s;
    let share = |layer: &str| 100.0 * m.layer_total(layer) / wall;
    let calls = |layer: &str| m.samples(layer).len() as f64;
    let ckpt_children: f64 = CKPT_LAYERS.iter().map(|l| m.layer_total(l)).sum();
    let mut metrics = vec![span_median(m, "engine.step_us", "engine.step", "us", 1e6)];
    for (layer, share_name, calls_name) in STEP_LAYERS {
        metrics.push(single(share_name, "%", share(layer)));
        metrics.push(single(calls_name, "count", calls(layer)));
    }
    metrics.push(single("setup.share_pct", "%", share("setup")));
    metrics.push(single("ckpt.share_pct", "%", share("ckpt.cycle")));
    metrics.push(single(
        "ckpt.harness_pct",
        "%",
        100.0 * (m.layer_total("ckpt.cycle") - ckpt_children) / wall,
    ));
    for (layer, name) in CKPT_LAYERS.iter().zip(CKPT_METRICS) {
        metrics.push(span_median(m, name, layer, "us", 1e6));
    }
    let mut ok = transparent;
    match sub_splits(&fx) {
        Ok(mut direct) => metrics.append(&mut direct),
        Err(e) => {
            ok = false;
            notes.push(format!("sub-split calls failed: {e}"));
        }
    }
    let untraced_sps = plain.steps_per_s();
    metrics.push(single(
        "trace.coverage_pct",
        "%",
        100.0 * m.span_total() / wall,
    ));
    metrics.push(single(
        "trace.overhead_pct",
        "%",
        100.0 * (untraced_sps - m.steps_per_s()) / untraced_sps,
    ));
    notes.push(format!(
        "traced {:.0} steps/s vs untraced {:.0} steps/s; traced wall {:.2} s",
        m.steps_per_s(),
        untraced_sps,
        wall
    ));
    let failed = plain.failed + m.failed;
    Outcome {
        correct: ok && failed == 0 && metrics.iter().all(|x| x.value.is_finite()),
        attempted: plain.attempted + m.attempted,
        failed,
        metrics,
        notes,
    }
}

/// The step-event layers: span name, share metric, call-count metric.
const STEP_LAYERS: [(&str, &str, &str); 5] = [
    ("engine.step", "engine.step.share_pct", "engine.step.calls"),
    (
        "baselines.round",
        "baselines.round.share_pct",
        "baselines.round.calls",
    ),
    (
        "recorder.sample",
        "recorder.sample.share_pct",
        "recorder.sample.calls",
    ),
    (
        "recorder.finish",
        "recorder.finish.share_pct",
        "recorder.finish.calls",
    ),
    (
        "monitor.round",
        "monitor.round.share_pct",
        "monitor.round.calls",
    ),
];

/// The traced checkpoint layers and their per-call metrics.
const CKPT_LAYERS: [&str; 7] = [
    "codec.encode",
    "codec.decode",
    "ckpt.apply",
    "ckpt.to_value",
    "json.write",
    "json.parse",
    "codec.delta",
];
const CKPT_METRICS: [&str; 7] = [
    "codec.encode_us",
    "codec.decode_us",
    "ckpt.apply_us",
    "ckpt.to_value_us",
    "json.write_us",
    "json.parse_us",
    "codec.delta_us",
];

/// Median per-call microseconds of `f`, in batches of about 2 ms.
fn direct_us(mut f: impl FnMut(usize)) -> f64 {
    let t0 = Instant::now();
    f(0);
    let probe = t0.elapsed().as_secs_f64().max(1e-8);
    let calls = (2e-3 / probe).clamp(1.0, 100_000.0) as usize;
    let batches = if probe > 0.05 { 3 } else { 9 };
    meter::per_call_us(batches, calls, |k| f(k + 1))
}

/// Per-call times of the layers under a step, from direct calls on the
/// workload's last checkpointed state (restored into a fresh session),
/// made outside the measured phases.
fn sub_splits(fx: &Fixture) -> Result<Vec<Metric>, String> {
    let (arm_idx, bytes) = fx.last_snapshot.as_ref().ok_or("no checkpoint was taken")?;
    let mut env = fx.fresh_env();
    {
        let mut algo = fx.arms[*arm_idx].instantiate(fx.alpha);
        Session::restore_bytes(&mut env, algo.driver(), bytes).map_err(to_msg)?;
    }
    let n = env.num_nodes();
    let mut out = Vec::new();
    let mut us = |name: &'static str, v: f64| out.push(single(name, "us", v));

    us(
        "ml.gradient_us",
        direct_us(|k| {
            black_box(env.compute_gradient(k % n));
        }),
    );
    let mut fast = fx.scenario.clone();
    fast.cfg_mut().tier = NumericsTier::Fast;
    let mut fast_env = fast.build_env_with(fx.data.clone());
    us(
        "ml.gradient_fast_us",
        direct_us(|k| {
            black_box(fast_env.compute_gradient(k % n));
        }),
    );
    drop(fast_env);

    let mut buf = Vec::new();
    us(
        "engine.pull_us",
        direct_us(|k| {
            let i = k % n;
            let peer = env.topology.neighbors(i)[k / n % env.topology.neighbors(i).len()];
            env.pull_params_into(peer, &mut buf).expect("live peer");
            black_box(&buf);
        }),
    );
    let now = env.wall_clock();
    us(
        "net.comm_time_us",
        direct_us(|k| {
            let i = k % n;
            let peer = env.topology.neighbors(i)[k / n % env.topology.neighbors(i).len()];
            black_box(env.comm_time(i, peer, now));
        }),
    );
    let compute = env.nominal_compute_times();
    let mut queue = EventQueue::new();
    for (i, node) in env.nodes.iter().enumerate() {
        queue.push(node.clock, i);
    }
    us(
        "net.queue_us",
        direct_us(|_| {
            let (t, i) = queue.pop().expect("the queue holds one event per node");
            queue.push(t + compute[i], i);
        }),
    );

    let mut scratch = Scratch::new();
    us(
        "recorder.loss_us",
        direct_us(|k| {
            let model = env.nodes[k % n].model.as_ref();
            black_box(metrics::subsampled_loss_scratch(
                model,
                &env.workload.train,
                env.cfg.loss_sample_size,
                &mut scratch,
            ));
        }),
    );
    let params: Vec<&[f32]> = env.nodes.iter().map(|x| x.model.params()).collect();
    us(
        "recorder.consensus_us",
        direct_us(|_| {
            black_box(metrics::consensus_diameter_params(&params));
        }),
    );
    us(
        "recorder.accuracy_us",
        direct_us(|k| {
            let model = env.nodes[k % n].model.as_ref();
            black_box(metrics::accuracy_scratch(
                model,
                &env.workload.test,
                &mut scratch,
            ));
        }),
    );

    // Monitor rounds, replayed on the tracker states the traced run saw.
    // A workload without a monitor replays one round on a tracker that has
    // observed every link of its fabric once.
    let observed;
    let replays = if fx.captures.is_empty() {
        let mut tracker = EmaTimeTracker::for_fleet(n, MonitorConfig::paper_default(fx.alpha).beta);
        for (i, &c) in compute.iter().enumerate() {
            for &peer in env.topology.neighbors(i) {
                tracker.record(i, peer, c + env.comm_time(i, peer, now));
            }
        }
        let alpha = env.workload.optim.lr_at(env.mean_epoch());
        observed = [Capture {
            tracker: tracker.checkpoint(),
            alpha,
        }];
        &observed[..]
    } else {
        &fx.captures[..]
    };
    let (mut assembly, mut search) = (Vec::new(), Vec::new());
    let step = replays.len().div_ceil(MAX_REPLAYS).max(1);
    for c in replays.iter().step_by(step) {
        let tracker = EmaTimeTracker::restore(&c.tracker).map_err(to_msg)?;
        if tracker.coverage(&env.topology) < 0.5 {
            continue; // the engine skips such rounds too
        }
        let generator = PolicyGenerator::new(PolicySearchConfig::new(c.alpha));
        let topo = &env.topology;
        let t0 = Instant::now();
        let t1 = if n > DENSE_CONTROL_THRESHOLD {
            let times = tracker.edge_times_for(topo);
            let t1 = Instant::now();
            black_box(generator.generate_sparse(&times, topo));
            t1
        } else {
            let times = tracker.matrix_for(topo);
            let t1 = Instant::now();
            black_box(generator.generate(&times, topo));
            t1
        };
        search.push(t1.elapsed().as_secs_f64() * 1e6);
        assembly.push((t1 - t0).as_secs_f64() * 1e6);
    }
    out.push(metric(
        "monitor.ema_assembly_us",
        "us",
        meter::median(&assembly),
        assembly,
    ));
    out.push(metric(
        "monitor.policy_search_us",
        "us",
        meter::median(&search),
        search,
    ));
    Ok(out)
}

/// Monitor rounds replayed per traced run.
const MAX_REPLAYS: usize = 6;
