//! Engine-level fault injection: membership events on the virtual clock,
//! warm-started rejoins, typed peer errors, masked NetMax policies, and
//! fault-capable checkpoint/resume (v2 schema, v1 still restorable).

use netmax_core::engine::{
    Algorithm, Scenario, Session, SessionError, StepEvent, StopCondition, TrainConfig,
};
use netmax_core::netmax::{NetMax, NetMaxConfig};
use netmax_json::{FromJson, Json, ToJson};
use netmax_ml::workload::WorkloadSpec;
use netmax_net::{FaultPlan, NetworkKind, NodeFault, Straggler};

fn crash_plan(node: usize, crash_s: f64, rejoin_s: Option<f64>) -> FaultPlan {
    FaultPlan {
        node_faults: vec![NodeFault { node, crash_s, rejoin_s }],
        ..FaultPlan::none()
    }
}

fn scenario(seed: u64, faults: FaultPlan) -> Scenario {
    Scenario::builder()
        .workers(4)
        .network(NetworkKind::Homogeneous)
        .workload(WorkloadSpec::convex_ridge(7))
        .train_config(TrainConfig { seed, max_epochs: 4.0, ..TrainConfig::quick_test() })
        .faults(faults)
        .build()
}

fn netmax() -> NetMax {
    NetMax::paper_default(0.05)
}

#[test]
fn membership_events_fire_on_the_virtual_clock() {
    let sc = scenario(1, crash_plan(2, 0.5, Some(1.5)));
    let mut env = sc.build_env();
    let mut algo = netmax();
    let mut session = Session::new(&mut env, algo.driver()).unwrap();
    let mut down_at = None;
    let mut up_at = None;
    let mut donor = None;
    loop {
        match session.step() {
            StepEvent::NodeDown { node, time_s } => {
                assert_eq!(node, 2);
                assert!(down_at.is_none(), "crash fired twice");
                down_at = Some(time_s);
                assert!(!session.env().is_active(2));
            }
            StepEvent::NodeUp { node, time_s, donor: d } => {
                assert_eq!(node, 2);
                up_at = Some(time_s);
                donor = d;
                assert!(session.env().is_active(2));
            }
            StepEvent::GlobalStep { node, .. } if down_at.is_some() && up_at.is_none() => {
                assert_ne!(node, 2, "crashed node completed a step while down");
            }
            StepEvent::Finished { .. } => break,
            _ => {}
        }
    }
    assert_eq!(down_at, Some(0.5));
    assert_eq!(up_at, Some(1.5));
    assert!(donor.is_some(), "three live peers were available to warm-start from");
}

#[test]
fn rejoined_node_warm_starts_from_the_donor_replica() {
    let sc = scenario(2, crash_plan(1, 0.4, Some(1.2)));
    let mut env = sc.build_env();
    let mut algo = netmax();
    let mut session = Session::new(&mut env, algo.driver()).unwrap();
    loop {
        match session.step() {
            StepEvent::NodeUp { node, donor, .. } => {
                let d = donor.expect("live donor");
                assert_eq!(
                    session.env().nodes[node].model.params(),
                    session.env().nodes[d].model.params(),
                    "rejoin must copy the donor replica"
                );
                assert!(session.env().nodes[node].clock >= 1.2, "clock advanced to rejoin time");
                break;
            }
            StepEvent::Finished { .. } => panic!("run ended before the rejoin"),
            _ => {}
        }
    }
}

#[test]
fn crashed_node_clock_freezes_and_report_stays_truthful() {
    let sc = scenario(3, crash_plan(3, 0.5, None));
    let mut env = sc.build_env();
    let mut algo = netmax();
    let report = {
        let mut session = Session::new(&mut env, algo.driver()).unwrap();
        session.run()
    };
    assert!(report.global_steps > 0);
    assert!(report.epochs_completed >= 4.0, "live fleet must still reach the epoch target");
    // The dead node's per-node accounting is reported as-is: a clock far
    // behind the survivors.
    let dead = &report.per_node[3];
    let live_min = report
        .per_node
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != 3)
        .map(|(_, n)| n.clock_s)
        .fold(f64::INFINITY, f64::min);
    assert!(
        dead.clock_s < live_min,
        "dead clock {} should trail the live fleet (min {live_min})",
        dead.clock_s
    );
}

#[test]
fn pull_paths_return_typed_errors_for_bad_or_dead_peers() {
    let sc = scenario(4, crash_plan(1, 0.0, None));
    let mut env = sc.build_env();
    // Out of range: typed error, not a panic.
    let err = env.pull_params(99).unwrap_err();
    assert!(matches!(err, SessionError::NodeUnavailable { .. }), "{err}");
    assert!(err.to_string().contains("out of range"), "{err}");
    // Alive: fine.
    let mut buf = Vec::new();
    env.pull_params_into(0, &mut buf).unwrap();
    assert!(!buf.is_empty());
    // Crash node 1 (the session normally does this) and observe the
    // typed refusal.
    env.set_active(1, false);
    let err = env.pull_params_into(1, &mut buf).unwrap_err();
    assert!(matches!(err, SessionError::NodeUnavailable { .. }), "{err}");
    assert!(err.to_string().contains("down"), "{err}");
}

#[test]
fn stragglers_scale_compute_times() {
    let plain = scenario(5, FaultPlan::none()).build_env();
    let sc = scenario(
        5,
        FaultPlan { stragglers: vec![Straggler { node: 2, factor: 4.0 }], ..FaultPlan::none() },
    );
    let slow = sc.build_env();
    let a = plain.nominal_compute_times();
    let b = slow.nominal_compute_times();
    assert_eq!(a[0], b[0]);
    assert!((b[2] / a[2] - 4.0).abs() < 1e-12, "straggler factor not applied");
}

#[test]
fn netmax_policy_masks_the_dead_node_after_a_monitor_round() {
    // Heterogeneous fleet, short monitor period so masked rounds fire
    // after the crash; node 3 dies early and never comes back.
    let sc = Scenario::builder()
        .workers(4)
        .network(NetworkKind::HeterogeneousDynamic)
        .workload(WorkloadSpec::convex_ridge(7))
        .train_config(TrainConfig { seed: 6, max_epochs: 6.0, ..TrainConfig::quick_test() })
        .faults(crash_plan(3, 1.0, None))
        .build();
    let mut cfg = NetMaxConfig::paper_default(0.05);
    cfg.monitor.period_s = 1.5;
    let mut algo = NetMax::new(cfg);
    let mut env = sc.build_env();
    let _ = {
        let mut session = Session::new(&mut env, algo.driver()).unwrap();
        session.run()
    };
    assert!(algo.policies_applied() > 0, "monitor produced no policy");
    let p = algo.current_policy().expect("policy exists");
    for i in 0..3 {
        assert_eq!(p.get(i, 3), 0.0, "live node {i} still steered to the dead node");
        assert_eq!(p.get(3, i), 0.0);
        assert!((p.row_sum(i) - 1.0).abs() < 1e-6, "live row {i} not stochastic");
    }
    assert_eq!(p.get(3, 3), 1.0, "dead row must be identity");
}

#[test]
fn faulted_checkpoint_resume_is_byte_identical_mid_churn() {
    // Crash at 0.5, rejoin at 1.5; checkpoint *between* the two events so
    // the restored session must carry the down state and still apply the
    // rejoin.
    let sc = scenario(7, crash_plan(2, 0.5, Some(1.5)));

    let full = {
        let mut env = sc.build_env();
        let mut algo = netmax();
        let mut session = Session::new(&mut env, algo.driver()).unwrap();
        session.run()
    };

    let mut env = sc.build_env();
    let mut algo = netmax();
    let mut session = Session::new(&mut env, algo.driver()).unwrap();
    let mut saw_down = false;
    loop {
        match session.step() {
            StepEvent::NodeDown { .. } => saw_down = true,
            StepEvent::NodeUp { .. } => panic!("checkpoint must precede the rejoin"),
            StepEvent::GlobalStep { .. } if saw_down => break,
            _ => {}
        }
    }
    let text = session.checkpoint().pretty();
    assert!(text.contains("session-checkpoint/v2"));
    drop(session);

    let mut env2 = sc.build_env();
    let mut algo2 = netmax();
    let mut resumed =
        Session::restore(&mut env2, algo2.driver(), &Json::parse(&text).unwrap()).unwrap();
    assert!(!resumed.env().is_active(2), "restored session must carry the down state");
    let report = resumed.run();
    assert_eq!(
        report.to_json().to_string(),
        full.to_json().to_string(),
        "checkpoint mid-churn + resume must equal the uninterrupted run"
    );
}

#[test]
fn v1_checkpoints_still_restore() {
    // Emulate a pre-PR checkpoint: take a fault-free v2 document, strip
    // the membership fields, and tag it v1 — exactly the shape old
    // documents have.
    let sc = scenario(8, FaultPlan::none());
    let full = {
        let mut env = sc.build_env();
        let mut algo = netmax();
        let mut session = Session::new(&mut env, algo.driver()).unwrap();
        session.run()
    };

    let mut env = sc.build_env();
    let mut algo = netmax();
    let mut session = Session::new(&mut env, algo.driver()).unwrap();
    let mut steps = 0;
    while steps < 20 {
        if let StepEvent::GlobalStep { .. } = session.step() {
            steps += 1;
        }
    }
    let mut doc = session.checkpoint();
    drop(session);
    if let Json::Obj(pairs) = &mut doc {
        pairs.retain(|(k, _)| k != "active" && k != "membership_next");
        for (k, v) in pairs.iter_mut() {
            if k == "schema" {
                *v = Json::Str("netmax-core/session-checkpoint/v1".into());
            }
        }
    }
    let text = doc.pretty();
    assert!(text.contains("session-checkpoint/v1"));

    let mut env2 = sc.build_env();
    let mut algo2 = netmax();
    let mut resumed =
        Session::restore(&mut env2, algo2.driver(), &Json::parse(&text).unwrap()).unwrap();
    let report = resumed.run();
    assert_eq!(
        report.to_json().to_string(),
        full.to_json().to_string(),
        "a v1 checkpoint must resume byte-identically"
    );
}

#[test]
fn v1_checkpoints_are_rejected_under_a_nonempty_fault_plan() {
    // A v1 document predates fault-capable sessions; restoring one into
    // a faulted scenario cannot reconstruct membership safely (the
    // restored driver queue could carry a crashed node's in-flight
    // events), so it must fail with a typed error instead.
    let plain = scenario(23, FaultPlan::none());
    let mut env = plain.build_env();
    let mut algo = netmax();
    let mut session = Session::new(&mut env, algo.driver()).unwrap();
    let mut steps = 0;
    while steps < 10 {
        if let StepEvent::GlobalStep { .. } = session.step() {
            steps += 1;
        }
    }
    let mut doc = session.checkpoint();
    drop(session);
    if let Json::Obj(pairs) = &mut doc {
        pairs.retain(|(k, _)| k != "active" && k != "membership_next");
        for (k, v) in pairs.iter_mut() {
            if k == "schema" {
                *v = Json::Str("netmax-core/session-checkpoint/v1".into());
            }
        }
    }
    let faulted = scenario(23, crash_plan(1, 5.0, None));
    let mut env2 = faulted.build_env();
    let mut algo2 = netmax();
    let err = match Session::restore(&mut env2, algo2.driver(), &doc) {
        Err(e) => e,
        Ok(_) => panic!("v1 + fault plan must be rejected"),
    };
    assert!(matches!(err, SessionError::BadCheckpoint(_)), "{err}");
    assert!(err.to_string().contains("fault plan"), "{err}");
}

#[test]
fn cross_tier_resume_is_rejected() {
    use netmax_ml::NumericsTier;
    // Record a strict-tier checkpoint, then try to resume it into a
    // session configured for the fast tier (and vice versa): both must
    // fail with a typed error naming the two tiers, because the resumed
    // trajectory would belong to neither.
    let strict_sc = scenario(31, FaultPlan::none());
    let mut env = strict_sc.build_env();
    let mut algo = netmax();
    let mut session = Session::new(&mut env, algo.driver()).unwrap();
    let mut steps = 0;
    while steps < 10 {
        if let StepEvent::GlobalStep { .. } = session.step() {
            steps += 1;
        }
    }
    let doc = session.checkpoint();
    assert!(doc.pretty().contains("\"strict\""), "checkpoint must record its tier");
    drop(session);

    let mut fast_sc = scenario(31, FaultPlan::none());
    fast_sc.cfg_mut().tier = NumericsTier::Fast;
    let mut env2 = fast_sc.build_env();
    let mut algo2 = netmax();
    let err = match Session::restore(&mut env2, algo2.driver(), &doc) {
        Err(e) => e,
        Ok(_) => panic!("strict checkpoint into a fast session must be rejected"),
    };
    assert!(matches!(err, SessionError::BadCheckpoint(_)), "{err}");
    assert!(err.to_string().contains("strict") && err.to_string().contains("fast"), "{err}");

    // A fast-tier checkpoint resumes fine into a fast session, and a
    // pre-tier (stripped) document still restores as strict.
    let mut env3 = fast_sc.build_env();
    let mut algo3 = netmax();
    let mut session = Session::new(&mut env3, algo3.driver()).unwrap();
    let mut steps = 0;
    while steps < 10 {
        if let StepEvent::GlobalStep { .. } = session.step() {
            steps += 1;
        }
    }
    let fast_doc = session.checkpoint();
    drop(session);
    let mut env4 = fast_sc.build_env();
    let mut algo4 = netmax();
    assert!(Session::restore(&mut env4, algo4.driver(), &fast_doc).is_ok());

    let mut legacy = doc.clone();
    if let Json::Obj(pairs) = &mut legacy {
        pairs.retain(|(k, _)| k != "tier");
    }
    let mut env5 = strict_sc.build_env();
    let mut algo5 = netmax();
    assert!(
        Session::restore(&mut env5, algo5.driver(), &legacy).is_ok(),
        "pre-tier checkpoints restore as strict"
    );
}

#[test]
fn unknown_checkpoint_schema_is_a_typed_error() {
    let sc = scenario(9, FaultPlan::none());
    let mut env = sc.build_env();
    let mut algo = netmax();
    let doc = Json::parse(
        r#"{"schema":"netmax-core/session-checkpoint/v99","algorithm":"netmax"}"#,
    )
    .unwrap();
    let err = match Session::restore(&mut env, algo.driver(), &doc) {
        Err(e) => e,
        Ok(_) => panic!("v99 must be rejected"),
    };
    assert!(matches!(err, SessionError::BadCheckpoint(_)), "{err}");
    assert!(err.to_string().contains("v99"), "{err}");
}

#[test]
fn fault_capable_scenario_round_trips_through_json() {
    use netmax_net::{LinkDynamics, LinkFault, LinkFaultKind, MarkovConfig};
    let sc = Scenario::builder()
        .workers(4)
        .network(NetworkKind::HeterogeneousDynamic)
        .workload(WorkloadSpec::convex_ridge(3))
        .dynamics(LinkDynamics::MarkovModulated(MarkovConfig::fast_drift()))
        .faults(FaultPlan {
            link_faults: vec![LinkFault {
                a: 0,
                b: 2,
                start_s: 5.0,
                end_s: 9.5,
                kind: LinkFaultKind::Outage,
            }],
            node_faults: vec![NodeFault { node: 1, crash_s: 3.0, rejoin_s: Some(7.0) }],
            stragglers: vec![Straggler { node: 2, factor: 2.5 }],
        })
        .max_epochs(1.0)
        .seed(11)
        .build();
    let text = sc.to_json().pretty();
    assert!(text.contains("dynamics") && text.contains("faults"));
    let back = Scenario::from_json(&Json::parse(&text).unwrap()).unwrap();
    assert_eq!(back, sc);
    // And a pre-elastic document (no dynamics/faults keys) still parses
    // to an empty plan.
    let plain = scenario(12, FaultPlan::none());
    let plain_text = plain.to_json().pretty();
    assert!(!plain_text.contains("\"faults\""), "empty plans must not change old documents");
    let back = Scenario::from_json(&Json::parse(&plain_text).unwrap()).unwrap();
    assert!(back.fault_plan().is_empty());
}

#[test]
fn fault_free_run_matches_a_plain_scenario_byte_for_byte() {
    // Installing an *empty* fault plan must not perturb a single bit of
    // the simulation (the membership machinery is pure overhead-free
    // scaffolding until faults exist).
    let a = scenario(13, FaultPlan::none());
    let b = Scenario::builder()
        .workers(4)
        .network(NetworkKind::Homogeneous)
        .workload(WorkloadSpec::convex_ridge(7))
        .train_config(TrainConfig { seed: 13, max_epochs: 4.0, ..TrainConfig::quick_test() })
        .build();
    let run = |sc: &Scenario| {
        let mut env = sc.build_env();
        let mut algo = netmax();
        let mut session = Session::new(&mut env, algo.driver()).unwrap();
        session.run()
    };
    assert_eq!(run(&a).to_json().to_string(), run(&b).to_json().to_string());
}

#[test]
fn rejoin_after_an_in_flight_event_does_not_double_the_iteration_chain() {
    // The node crashes and rejoins *while its pre-crash iteration is
    // still in flight*. The stale completion must be purged at crash
    // time: were it left to a lazy active-flag check at pop time, the
    // rejoined (again-active) node would process it as valid and run two
    // concurrent iteration chains — roughly doubling its step rate.
    let sc = scenario(20, crash_plan(1, 0.001, Some(0.002)));
    let mut env = sc.build_env();
    let mut algo = netmax();
    let _ = {
        let mut session = Session::new(&mut env, algo.driver()).unwrap();
        session.run()
    };
    let churned = env.nodes[1].local_steps;
    let others_max = env
        .nodes
        .iter()
        .enumerate()
        .filter(|&(i, _)| i != 1)
        .map(|(_, n)| n.local_steps)
        .max()
        .unwrap();
    assert!(
        churned <= others_max + others_max / 5,
        "churned node ran {churned} steps vs fleet max {others_max} — duplicated chain?"
    );
}

#[test]
fn whole_fleet_crash_still_reports_the_frozen_state_truthfully() {
    // Every worker dies: drivers exhaust and the forced final sample
    // must read the frozen replicas, not report a vacuous perfect loss.
    let faults = FaultPlan {
        node_faults: (0..4)
            .map(|node| NodeFault { node, crash_s: 0.5, rejoin_s: None })
            .collect(),
        ..FaultPlan::none()
    };
    let sc = scenario(21, faults);
    let mut env = sc.build_env();
    let mut algo = netmax();
    let report = {
        let mut session = Session::new(&mut env, algo.driver()).unwrap();
        session.run()
    };
    assert!(report.global_steps > 0, "some training happened before the crash");
    assert!(
        report.final_train_loss > 0.0 && report.final_train_loss.is_finite(),
        "an all-dead fleet must report its frozen loss, got {}",
        report.final_train_loss
    );
    assert!(report.epochs_completed > 0.0, "frozen epoch progress must be reported");
}

#[test]
fn monitor_chain_restarts_after_a_whole_fleet_outage() {
    // All four workers crash in an overlapping window and rejoin: the
    // monitor chain (drained during the outage — it cannot tick against
    // a frozen clock) must re-arm on the first rejoin so the policy
    // resumes adapting.
    let faults = FaultPlan {
        node_faults: (0..4)
            .map(|node| NodeFault {
                node,
                crash_s: 0.4 + 0.02 * node as f64,
                rejoin_s: Some(1.5 + 0.05 * node as f64),
            })
            .collect(),
        ..FaultPlan::none()
    };
    let sc = scenario(22, faults);
    let mut cfg = NetMaxConfig::paper_default(0.05);
    cfg.monitor.period_s = 0.5;
    let mut algo = NetMax::new(cfg);
    let mut env = sc.build_env();
    let mut session = Session::new(&mut env, algo.driver()).unwrap();
    let mut last_up: Option<f64> = None;
    let mut monitor_after_rejoin = false;
    loop {
        match session.step() {
            StepEvent::NodeUp { time_s, .. } => last_up = Some(time_s),
            StepEvent::MonitorRound { time_s } if last_up == Some(1.65) => {
                assert!(time_s > 1.65);
                monitor_after_rejoin = true;
            }
            StepEvent::Finished { report } => {
                assert!(report.epochs_completed >= sc.cfg().max_epochs);
                break;
            }
            _ => {}
        }
    }
    assert!(
        monitor_after_rejoin,
        "the monitor never fired again after the fleet came back"
    );
}

#[test]
fn stop_conditions_progress_past_a_crash() {
    // MaxEpochs is a mean over *active* nodes: a crashed node's frozen
    // epoch counter must not stall the stop condition.
    let mut sc = scenario(14, crash_plan(0, 0.3, None));
    sc.cfg_mut().stop = Some(StopCondition::MaxEpochs(3.0));
    sc.cfg_mut().max_wall_clock_s = 1e6;
    let mut env = sc.build_env();
    let mut algo = netmax();
    let report = {
        let mut session = Session::new(&mut env, algo.driver()).unwrap();
        session.run()
    };
    assert!(report.epochs_completed >= 3.0);
    assert!(report.wall_clock_s < 1e6, "run must stop on epochs, not the safety net");
}

#[test]
fn elastic_network_in_env_serves_the_fault_plan() {
    use netmax_net::LinkFault;
    use netmax_net::LinkFaultKind;
    let sc = Scenario::builder()
        .workers(4)
        .network(NetworkKind::Homogeneous)
        .workload(WorkloadSpec::convex_ridge(3))
        .faults(FaultPlan {
            link_faults: vec![LinkFault {
                a: 0,
                b: 1,
                start_s: 10.0,
                end_s: 20.0,
                kind: LinkFaultKind::Degrade(8.0),
            }],
            ..FaultPlan::none()
        })
        .max_epochs(1.0)
        .seed(15)
        .build();
    let env = sc.build_env();
    let healthy = env.network.comm_time(0, 1, 1_000_000, 5.0);
    let degraded = env.network.comm_time(0, 1, 1_000_000, 15.0);
    assert!((degraded / healthy - 8.0).abs() < 1e-9, "{degraded} vs {healthy}");
}
