//! `netmax-cli` — run simulated decentralized-training experiments from
//! the command line.
//!
//! ```text
//! netmax-cli list
//! netmax-cli run     --workload resnet18-cifar10 --algorithm netmax --workers 8 \
//!                    --network hetero --epochs 12 --seed 42
//! netmax-cli compare --workload resnet18-cifar10 --workers 8 --epochs 12
//! netmax-cli policy  --workers 8 --fast 0.2 --slow 0.94 --slowdown 50
//! ```

use netmax::core::diagnostics::audit_policy;
use netmax::core::policy::{PolicyGenerator, PolicySearchConfig};
use netmax::linalg::Matrix;
use netmax::net::Topology;
use netmax::prelude::*;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        usage();
        return ExitCode::from(2);
    };
    let opts = Options::parse(&args[1..]);
    match cmd.as_str() {
        "list" => list(),
        "run" => run(&opts),
        "compare" => compare(&opts),
        "policy" => policy(&opts),
        "--help" | "-h" | "help" => {
            usage();
            ExitCode::SUCCESS
        }
        other => {
            eprintln!("unknown command: {other}");
            usage();
            ExitCode::from(2)
        }
    }
}

fn usage() {
    eprintln!(
        "netmax-cli — simulated decentralized training (NetMax, ICDE 2021)

commands:
  list                         available workloads, algorithms, networks
  run      one algorithm on one scenario
  compare  the paper's four headline algorithms on one scenario
  policy   generate + audit a communication policy for a synthetic cluster

options (run/compare):
  --workload <name>    e.g. resnet18-cifar10 (default)
  --algorithm <name>   e.g. netmax (run only)
  --workers <n>        default 8
  --network <kind>     hetero | homo | static | wan   (default hetero)
  --epochs <x>         default 8
  --seed <n>           default 42

options (policy):
  --workers <n>        default 8
  --fast <s>           intra-server iteration time (default 0.2)
  --slow <s>           inter-server iteration time (default 0.94)
  --slowdown <f>       factor applied to one cross link (default 50)
  --alpha <a>          learning rate (default 0.1)"
    );
}

struct Options {
    workload: String,
    algorithm: String,
    workers: usize,
    network: String,
    epochs: f64,
    seed: u64,
    fast: f64,
    slow: f64,
    slowdown: f64,
    alpha: f64,
}

impl Options {
    fn parse(args: &[String]) -> Self {
        let mut o = Options {
            workload: "resnet18-cifar10".into(),
            algorithm: "netmax".into(),
            workers: 8,
            network: "hetero".into(),
            epochs: 8.0,
            seed: 42,
            fast: 0.2,
            slow: 0.94,
            slowdown: 50.0,
            alpha: 0.1,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let Some(value) = it.next() else {
                eprintln!("missing value for {flag}");
                break;
            };
            match flag.as_str() {
                "--workload" => o.workload = value.clone(),
                "--algorithm" => o.algorithm = value.clone(),
                "--workers" => o.workers = value.parse().unwrap_or(o.workers),
                "--network" => o.network = value.clone(),
                "--epochs" => o.epochs = value.parse().unwrap_or(o.epochs),
                "--seed" => o.seed = value.parse().unwrap_or(o.seed),
                "--fast" => o.fast = value.parse().unwrap_or(o.fast),
                "--slow" => o.slow = value.parse().unwrap_or(o.slow),
                "--slowdown" => o.slowdown = value.parse().unwrap_or(o.slowdown),
                "--alpha" => o.alpha = value.parse().unwrap_or(o.alpha),
                other => eprintln!("ignoring unknown flag {other}"),
            }
        }
        o
    }
}

fn list() -> ExitCode {
    println!("workloads:");
    for kind in WorkloadKind::all() {
        println!("  {}", kind.name());
    }
    println!("algorithms:");
    for kind in AlgorithmKind::all() {
        println!("  {}", kind.name());
    }
    println!("networks:\n  hetero\n  static\n  homo\n  wan");
    ExitCode::SUCCESS
}

/// Builds the scenario plus one instantiated workload (datasets
/// included); runs share the instantiation through `build_env_with`
/// instead of regenerating the datasets per run.
fn build_scenario(o: &Options) -> Option<(Scenario, Workload)> {
    let spec = WorkloadKind::by_name(&o.workload)
        .map(|k| WorkloadSpec::new(k, o.seed))
        .or_else(|| {
            eprintln!("unknown workload '{}' (see `netmax-cli list`)", o.workload);
            None
        })?;
    let network = NetworkKind::by_name(&o.network).or_else(|| {
        eprintln!("unknown network '{}' (see `netmax-cli list`)", o.network);
        None
    })?;
    let workers = if network == NetworkKind::Wan { 6 } else { o.workers };
    let sc = ScenarioBuilder::new()
        .workers(workers)
        .network(network)
        .workload(spec)
        .max_epochs(o.epochs)
        .seed(o.seed)
        .build();
    let workload = sc.workload();
    Some((sc, workload))
}

fn print_report(r: &netmax::core::engine::RunReport) {
    println!(
        "{:<16} wall={:>9.1}s epoch/node={:>7.2}s comm/ep={:>7.2}s loss={:.4} acc={:.2}%",
        r.algorithm,
        r.wall_clock_s,
        r.epoch_time_avg_s(),
        r.comm_cost_per_epoch_s(),
        r.final_train_loss,
        100.0 * r.final_test_accuracy
    );
}

fn run(o: &Options) -> ExitCode {
    let Some((sc, workload)) = build_scenario(o) else {
        return ExitCode::from(2);
    };
    let Some(kind) = AlgorithmKind::by_name(&o.algorithm) else {
        eprintln!("unknown algorithm '{}' (see `netmax-cli list`)", o.algorithm);
        return ExitCode::from(2);
    };
    let mut algo = algorithm_for(kind, workload.optim.lr);
    let mut env = sc.build_env_with(workload);
    print_report(&algo.run(&mut env));
    ExitCode::SUCCESS
}

fn compare(o: &Options) -> ExitCode {
    let Some((sc, workload)) = build_scenario(o) else {
        return ExitCode::from(2);
    };
    for kind in AlgorithmKind::headline_four() {
        let mut algo = algorithm_for(kind, workload.optim.lr);
        // Arc-shared datasets: one instantiation serves all four runs.
        let mut env = sc.build_env_with(workload.clone());
        print_report(&algo.run(&mut env));
    }
    ExitCode::SUCCESS
}

fn policy(o: &Options) -> ExitCode {
    let m = o.workers.max(2);
    let per = m.div_ceil(2);
    let topo = Topology::fully_connected(m);
    let mut times = Matrix::zeros(m, m);
    for i in 0..m {
        for j in 0..m {
            if i != j {
                times[(i, j)] = if (i / per) == (j / per) { o.fast } else { o.slow };
            }
        }
    }
    // Slow one cross link by the requested factor.
    if per < m {
        times[(0, per)] *= o.slowdown;
        times[(per, 0)] *= o.slowdown;
    }

    let gen = PolicyGenerator::new(PolicySearchConfig::new(o.alpha));
    match gen.generate(&times, &topo) {
        Some(res) => {
            let audit = audit_policy(&res, &times, &topo, o.alpha);
            println!("policy for {m} workers (fast {}s / slow {}s / one link ×{}):", o.fast, o.slow, o.slowdown);
            println!("  rho            = {:.4}", res.rho);
            println!("  lambda2        = {:.4}", res.lambda2);
            println!("  spectral gap   = {:.4}", audit.spectral_gap);
            println!("  E[iter] policy = {:.3}s   uniform = {:.3}s   speedup = {:.2}x",
                audit.expected_iteration_s, audit.uniform_iteration_s, audit.iteration_speedup());
            println!("  slow-link mass = {:.4}", audit.slow_link_mass);
            println!("  bottleneck cut = {:?} | {:?}", audit.bottleneck.0, audit.bottleneck.1);
            println!("{:?}", res.policy.to_dense());
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("no feasible policy for these parameters");
            ExitCode::FAILURE
        }
    }
}
