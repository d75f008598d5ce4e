//! The control-plane state NetMax and AD-PSGD+Monitor checkpoint — the
//! EMA tracker and the edge-set policy — at the trust boundary:
//!
//! * every malformed document is rejected by `Session::restore` with a
//!   typed error, never a panic, and never accepted to fail later;
//! * checkpoints in the dense shapes that small fleets used to write (an
//!   `{times, observed}` tracker and a `{rows, cols, data}` policy) still
//!   restore and finish byte-identically to the uninterrupted run;
//! * AD-PSGD+Monitor past the Jacobi threshold keeps O(edges) state.

use netmax_baselines::AdPsgd;
use netmax_core::engine::session::matrix_to_json;
use netmax_core::engine::{
    Algorithm, Scenario, Session, StepEvent, StopCondition, TopologyKind, TrainConfig,
};
use netmax_core::monitor::MonitorConfig;
use netmax_core::{NetMax, NetMaxConfig, DENSE_CONTROL_THRESHOLD};
use netmax_json::{Json, ToJson};
use netmax_linalg::Matrix;
use netmax_ml::workload::WorkloadSpec;
use netmax_net::NetworkKind;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Steps before the checkpoint; monitor rounds have produced a policy by
/// then.
const SPLIT: u64 = 400;

fn scenario() -> Scenario {
    Scenario::builder()
        .workers(4)
        .topology(TopologyKind::Ring)
        .network(NetworkKind::HeterogeneousDynamic)
        .workload(WorkloadSpec::convex_ridge(7))
        .train_config(TrainConfig { seed: 4, max_epochs: 3.0, ..TrainConfig::quick_test() })
        .build()
}

/// The two monitor-bearing behaviours, with a short monitor period.
fn algorithm(adpsgd: bool) -> Box<dyn Algorithm> {
    let mut monitor = MonitorConfig::paper_default(0.05);
    monitor.period_s = 1.5;
    if adpsgd {
        Box::new(AdPsgd::monitored_with(monitor))
    } else {
        Box::new(NetMax::new(NetMaxConfig { monitor, ..NetMaxConfig::paper_default(0.05) }))
    }
}

/// The uninterrupted run's report, and a checkpoint taken after `SPLIT`
/// steps of an identical run.
fn reference(adpsgd: bool) -> (String, Json) {
    let sc = scenario();
    let full = algorithm(adpsgd).run(&mut sc.build_env()).to_json().to_string();
    let mut algo = algorithm(adpsgd);
    let mut env = sc.build_env();
    let mut session = Session::new(&mut env, algo.driver()).expect("valid session");
    while session.env().global_step < SPLIT {
        if let StepEvent::Finished { .. } = session.step() {
            panic!("run finished before the checkpoint");
        }
    }
    (full, session.checkpoint())
}

fn field<'a>(v: &'a mut Json, key: &str) -> &'a mut Json {
    let Json::Obj(pairs) = v else { panic!("`{key}`: not an object") };
    &mut pairs.iter_mut().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no `{key}`")).1
}

fn item(v: &mut Json, i: usize) -> &mut Json {
    let Json::Arr(items) = v else { panic!("not an array") };
    &mut items[i]
}

/// The behaviour's state inside a session checkpoint.
fn behavior(doc: &mut Json) -> &mut Json {
    field(field(doc, "driver"), "behavior")
}

/// Restores `doc` and runs to completion, catching panics: `Ok(Err(_))`
/// is a rejected document, `Ok(Ok(report))` a finished run.
fn restore_and_finish(adpsgd: bool, doc: &Json) -> std::thread::Result<Result<String, String>> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut algo = algorithm(adpsgd);
        let mut env = scenario().build_env();
        let mut session =
            Session::restore(&mut env, algo.driver(), doc).map_err(|e| e.to_string())?;
        Ok(session.run().to_json().to_string())
    }))
}

/// An invalid edit of the behaviour state, with its label.
type Edit = (&'static str, fn(&mut Json));

/// The invalid edits probed for each behaviour.
fn invalid_edits(adpsgd: bool) -> Vec<Edit> {
    let mut edits: Vec<Edit> = vec![
        ("policy row without its diagonal", |b| {
            let Json::Arr(row) = item(field(field(b, "policy"), "rows"), 0) else { panic!() };
            row.retain(|e| !matches!(e, Json::Arr(p) if p[0] == Json::Int(0)));
        }),
        ("policy row steering to a non-neighbour", |b| {
            // Node 0's neighbours on the 4-ring are 1 and 3.
            let entry = |j: usize, p: f64| Json::Arr(vec![j.to_json(), p.to_json()]);
            let row = Json::Arr(vec![entry(0, 0.0), entry(2, 1.0)]);
            *item(field(field(b, "policy"), "rows"), 0) = row;
        }),
        ("policy row that is not stochastic", |b| {
            *item(item(item(field(field(b, "policy"), "rows"), 1), 0), 1) = 5.0.to_json();
        }),
        ("policy for three nodes", |b| {
            let p = field(b, "policy");
            *field(p, "n") = 3usize.to_json();
            let Json::Arr(rows) = field(p, "rows") else { panic!() };
            rows.pop();
        }),
        ("tracker for two nodes", |b| *field(field(b, "tracker"), "n") = 2usize.to_json()),
        ("tracker β = 1", |b| *field(field(b, "tracker"), "beta") = 1.0.to_json()),
        ("tracker β < 0", |b| *field(field(b, "tracker"), "beta") = (-0.5).to_json()),
        ("negative EMA", |b| {
            *item(item(field(field(b, "tracker"), "entries"), 0), 2) = (-1.0).to_json();
        }),
        ("non-finite EMA", |b| {
            *item(item(field(field(b, "tracker"), "entries"), 0), 2) = Json::Null;
        }),
        ("EMA entry for a node out of range", |b| {
            *item(item(field(field(b, "tracker"), "entries"), 0), 1) = 9usize.to_json();
        }),
    ];
    if !adpsgd {
        edits.push(("negative ρ", |b| *field(b, "rho") = (-1.0).to_json()));
    }
    edits
}

#[test]
fn invalid_control_plane_state_is_rejected_with_a_typed_error() {
    for adpsgd in [false, true] {
        let (_, doc) = reference(adpsgd);
        for (label, edit) in invalid_edits(adpsgd) {
            let mut bad = doc.clone();
            edit(behavior(&mut bad));
            match restore_and_finish(adpsgd, &bad) {
                Ok(Err(_)) => {}
                Ok(Ok(_)) => panic!("adpsgd = {adpsgd}: {label}: accepted"),
                Err(_) => panic!("adpsgd = {adpsgd}: {label}: panicked"),
            }
        }
    }
}

/// Rewrites the behaviour state into the dense shapes: the tracker as
/// `{beta, n, times, observed}`, the policy as a dense matrix.
fn to_dense_shapes(b: &mut Json) {
    let tracker = field(b, "tracker");
    let beta = field(tracker, "beta").clone();
    let n = field(tracker, "n").as_usize().unwrap();
    let mut times = Matrix::zeros(n, n);
    let mut observed = vec![false; n * n];
    for e in field(tracker, "entries").as_arr().unwrap() {
        let [i, m, t] = e.as_arr().unwrap() else { panic!("bad entry") };
        let (i, m) = (i.as_usize().unwrap(), m.as_usize().unwrap());
        times[(i, m)] = t.as_f64().unwrap();
        observed[i * n + m] = true;
    }
    *tracker = Json::obj([
        ("beta", beta),
        ("n", n.to_json()),
        ("times", matrix_to_json(&times)),
        ("observed", observed.to_json()),
    ]);
    let policy = field(b, "policy");
    let mut dense = Matrix::zeros(n, n);
    for (i, row) in field(policy, "rows").as_arr().unwrap().iter().enumerate() {
        for e in row.as_arr().unwrap() {
            let [j, p] = e.as_arr().unwrap() else { panic!("bad entry") };
            dense[(i, j.as_usize().unwrap())] = p.as_f64().unwrap();
        }
    }
    *policy = matrix_to_json(&dense);
}

#[test]
fn dense_shape_checkpoints_resume_byte_identically() {
    for adpsgd in [false, true] {
        let (full, mut doc) = reference(adpsgd);
        assert!(
            field(behavior(&mut doc), "policy") != &Json::Null,
            "adpsgd = {adpsgd}: no policy by step {SPLIT}"
        );
        to_dense_shapes(behavior(&mut doc));
        // Through text, as a checkpoint file would be read.
        let doc = Json::parse(&doc.pretty()).unwrap();
        let resumed = restore_and_finish(adpsgd, &doc).expect("no panic").expect("restores");
        assert_eq!(resumed, full, "adpsgd = {adpsgd}: resumed run diverged");
    }
}

#[test]
fn monitored_adpsgd_past_the_threshold_keeps_edge_set_state() {
    let n = 80;
    assert!(n > DENSE_CONTROL_THRESHOLD);
    let mut cfg = TrainConfig { seed: 3, ..TrainConfig::quick_test() };
    cfg.stop = Some(StopCondition::MaxGlobalSteps(30 * n as u64));
    let sc = Scenario::builder()
        .workers(n)
        .topology(TopologyKind::Torus { rows: 8, cols: 10 })
        .network(NetworkKind::HeterogeneousDynamic)
        .workload(WorkloadSpec::convex_ridge(7))
        .train_config(cfg)
        .build();
    let mut monitor = MonitorConfig::paper_default(0.05);
    monitor.period_s = 0.05;
    let mut algo = AdPsgd::monitored_with(monitor);
    let mut env = sc.build_env();
    let mut doc = {
        let mut session = Session::new(&mut env, algo.driver()).expect("valid session");
        while !matches!(session.step(), StepEvent::Finished { .. }) {}
        session.checkpoint()
    };
    assert!(algo.policies_applied() > 0, "the monitor never produced a policy");
    let b = behavior(&mut doc);
    let entries = field(field(b, "tracker"), "entries").as_arr().unwrap().len();
    assert!(entries > 0 && entries <= 4 * n, "{entries} EMA entries on a 4-regular torus");
    let rows = field(field(b, "policy"), "rows").as_arr().unwrap();
    assert_eq!(rows.len(), n);
    for (i, row) in rows.iter().enumerate() {
        let len = row.as_arr().unwrap().len();
        assert!(len <= 5, "policy row {i} stores {len} entries; degree + 1 = 5");
    }
}
