//! Benchmarks of the real shared-memory collective through the
//! `Collective` trait across replica counts and payload sizes, up to
//! gradient-scale payloads (4 Mi floats = 16 MiB, about the flattened
//! gradient of an EfficientNet-B2). Every `Backend` label runs the same
//! communicator round in process, so one is measured; how the schedules
//! compare on a pod's links is `ets_collective::cost`'s to price.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ets_collective::{create_collective, Backend};
use std::thread;

/// One full world: every replica runs `rounds` all-reduces of `elems`.
fn run_world(replicas: usize, elems: usize, rounds: usize) {
    let world = create_collective(Backend::default(), replicas);
    let joins: Vec<_> = world
        .into_iter()
        .map(|c| {
            thread::spawn(move || {
                let mut buf = vec![c.rank() as f32; elems];
                for _ in 0..rounds {
                    c.all_reduce_sum(&mut buf);
                }
                buf[0]
            })
        })
        .collect();
    for j in joins {
        let _ = j.join().unwrap();
    }
}

fn bench_all_reduce(c: &mut Criterion) {
    let mut group = c.benchmark_group("all_reduce");
    group.sample_size(10);
    // 64 Ki floats exercises the latency/bandwidth boundary; 4 Mi floats
    // (16 MiB) is a full gradient payload — the acceptance size.
    for &replicas in &[2usize, 4, 8] {
        for &elems in &[1_024usize, 65_536, 4_194_304] {
            // Skip the cross-product's most expensive corner at high
            // replica counts to keep wall time sane; 4 replicas at 4 Mi
            // still covers the full payload.
            if elems == 4_194_304 && replicas == 8 {
                continue;
            }
            group.throughput(Throughput::Bytes((elems * 4 * replicas) as u64));
            group.bench_with_input(
                BenchmarkId::new(format!("r{replicas}"), elems),
                &elems,
                |b, &elems| b.iter(|| run_world(replicas, elems, 2)),
            );
        }
    }
    group.finish();
}

/// Steady-state round cost with a persistent world — what the trainer
/// sees step after step (no per-round world construction, zero-alloc
/// scratch reuse).
fn bench_steady_state(c: &mut Criterion) {
    let mut group = c.benchmark_group("all_reduce_steady");
    group.sample_size(10);
    let replicas = 4usize;
    let elems = 4_194_304usize;
    group.throughput(Throughput::Bytes((elems * 4 * replicas) as u64));
    group.bench_function(BenchmarkId::new("steady", elems), |b| {
        b.iter(|| run_world(replicas, elems, 4));
    });
    group.finish();
}

criterion_group!(benches, bench_all_reduce, bench_steady_state);
criterion_main!(benches);
