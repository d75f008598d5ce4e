//! Micro-benchmarks of the computational kernels behind NetMax: the
//! symmetric eigensolver, the policy LP, full Algorithm-3 policy
//! generation, `Y_P` construction, and raw engine throughput.
//!
//! These answer the operational question the paper leaves implicit: how
//! expensive is one Network-Monitor round, and how does it scale with the
//! fleet size M?

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netmax_core::gossip_matrix::build_y;
use netmax_core::policy::{solve_policy_lp, PolicyGenerator, PolicySearchConfig};
use netmax_core::EdgeTimes;
use netmax_linalg::{second_largest_eigenvalue, Matrix};
use netmax_net::Topology;
use std::hint::black_box;

/// Two-island iteration-time matrix (the standard heterogeneous shape).
fn times(m: usize) -> Matrix {
    let mut t = Matrix::zeros(m, m);
    for i in 0..m {
        for j in 0..m {
            if i != j {
                t[(i, j)] = if (i / (m / 2)) == (j / (m / 2)) { 0.2 } else { 1.0 };
            }
        }
    }
    t
}

/// A feasible uniform policy for eigen benchmarks.
fn uniform_policy(m: usize) -> Matrix {
    let q = 0.8 / (m as f64 - 1.0);
    let mut p = Matrix::zeros(m, m);
    for i in 0..m {
        for j in 0..m {
            p[(i, j)] = if i == j { 0.2 } else { q };
        }
    }
    p
}

fn bench_eigensolver(c: &mut Criterion) {
    let mut g = c.benchmark_group("eig_lambda2");
    for m in [8usize, 16, 32] {
        let topo = Topology::fully_connected(m);
        let p = uniform_policy(m);
        let p_node = vec![1.0 / m as f64; m];
        let y = build_y(&p, &topo, &p_node, 0.05, 1.0);
        g.bench_with_input(BenchmarkId::from_parameter(m), &y, |b, y| {
            b.iter(|| second_largest_eigenvalue(black_box(y)))
        });
    }
    g.finish();
}

fn bench_build_y(c: &mut Criterion) {
    let mut g = c.benchmark_group("build_y");
    for m in [8usize, 16, 32] {
        let topo = Topology::fully_connected(m);
        let p = uniform_policy(m);
        let p_node = vec![1.0 / m as f64; m];
        g.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| build_y(black_box(&p), &topo, &p_node, 0.05, 1.0))
        });
    }
    g.finish();
}

fn bench_policy_lp(c: &mut Criterion) {
    let mut g = c.benchmark_group("policy_lp");
    for m in [8usize, 16] {
        let topo = Topology::fully_connected(m);
        let t = EdgeTimes::from_dense(&times(m), &topo);
        // A t̄ in the feasible band.
        let t_bar = 0.9 / m as f64;
        g.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| solve_policy_lp(0.1, 0.2, black_box(t_bar), &t, &topo))
        });
    }
    g.finish();
}

fn bench_policy_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("algorithm3_full");
    g.sample_size(10);
    for m in [8usize, 16] {
        let topo = Topology::fully_connected(m);
        let t = times(m);
        let gen = PolicyGenerator::new(PolicySearchConfig::new(0.1));
        g.bench_with_input(BenchmarkId::from_parameter(m), &m, |b, _| {
            b.iter(|| gen.generate(black_box(&t), &topo))
        });
    }
    g.finish();
}

fn bench_search_resolution(c: &mut Criterion) {
    // DESIGN.md ablation 4: Algorithm 3 cost vs search resolution (K, R).
    let mut g = c.benchmark_group("algorithm3_resolution");
    g.sample_size(10);
    let topo = Topology::fully_connected(8);
    let t = times(8);
    for kr in [5usize, 10, 20] {
        let cfg = PolicySearchConfig { outer_k: kr, inner_r: kr, ..PolicySearchConfig::new(0.1) };
        let gen = PolicyGenerator::new(cfg);
        g.bench_with_input(BenchmarkId::from_parameter(kr), &kr, |b, _| {
            b.iter(|| gen.generate(black_box(&t), &topo))
        });
    }
    g.finish();
}

fn bench_engine_throughput(c: &mut Criterion) {
    use netmax_core::engine::{Scenario, TrainConfig};
    use netmax_ml::workload::WorkloadSpec;
    use netmax_net::NetworkKind;

    let mut g = c.benchmark_group("engine_steps");
    g.sample_size(10);
    let sc = Scenario::builder()
        .workers(8)
        .network(NetworkKind::HeterogeneousDynamic)
        .workload(WorkloadSpec::convex_ridge(1))
        .train_config(TrainConfig { max_epochs: 1.0, ..TrainConfig::quick_test() })
        .build();
    g.bench_function("gossip_1_epoch_8_workers", |b| {
        b.iter(|| {
            let mut algo = netmax_baselines::AdPsgd::new();
            use netmax_core::engine::Algorithm;
            let mut env = sc.build_env();
            black_box(algo.run(&mut env).global_steps)
        })
    });
    g.finish();
}

criterion_group!(
    kernels,
    bench_eigensolver,
    bench_build_y,
    bench_policy_lp,
    bench_policy_generation,
    bench_search_resolution,
    bench_engine_throughput
);
criterion_main!(kernels);
