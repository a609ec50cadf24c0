//! §V "Overhead": the cost of one Riptide agent update cycle as the
//! number of observed connections grows. The paper argues the agent is
//! cheap because all work is a scheduled, local computation — this bench
//! quantifies that for our implementation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::net::Ipv4Addr;

use riptide::prelude::*;
use riptide_linuxnet::route::RouteTable;
use riptide_simnet::time::SimTime;

fn observations(conns: usize, destinations: usize) -> Vec<CwndObservation> {
    (0..conns)
        .map(|i| {
            let d = i % destinations;
            CwndObservation {
                dst: Ipv4Addr::new(10, (d / 256) as u8, (d % 256) as u8, 1),
                cwnd: 10 + (i % 90) as u32,
                bytes_acked: 1_000_000,
                retrans: 0,
                ecn_marks: 0,
            }
        })
        .collect()
}

fn bench_tick(c: &mut Criterion) {
    let mut group = c.benchmark_group("agent_tick");
    for &conns in &[10usize, 100, 1_000, 10_000] {
        let destinations = (conns / 3).max(1);
        group.bench_with_input(BenchmarkId::new("conns", conns), &conns, |b, _| {
            let obs = observations(conns, destinations);
            let mut agent = RiptideAgent::new(RiptideConfig::deployment()).unwrap();
            let mut routes = RouteTable::new();
            let mut t = 1u64;
            b.iter(|| {
                let mut observer = FnObserver(|| obs.clone());
                t += 1;
                agent.tick(SimTime::from_secs(t), &mut observer, &mut routes);
                black_box(agent.table().len())
            });
        });
    }
    group.finish();
}

fn bench_tick_granularity(c: &mut Criterion) {
    let mut group = c.benchmark_group("agent_tick_granularity");
    let obs = observations(3_000, 1_000);
    for (label, granularity) in [
        ("host", Granularity::Host),
        ("prefix24", Granularity::Prefix(24)),
    ] {
        group.bench_function(label, |b| {
            let cfg = RiptideConfig::builder()
                .granularity(granularity)
                .build()
                .unwrap();
            let mut agent = RiptideAgent::new(cfg).unwrap();
            let mut routes = RouteTable::new();
            let mut t = 1u64;
            b.iter(|| {
                let mut observer = FnObserver(|| obs.clone());
                t += 1;
                agent.tick(SimTime::from_secs(t), &mut observer, &mut routes);
                black_box(routes.len())
            });
        });
    }
    group.finish();
}

/// An agent-poll-shaped tick: aggregation, a capacity of 8,192 route
/// units and the loss guard, over a learned table of 100,000 `/32`s in
/// 4,000 `/24`s (one `/24` in 32 too spread out to aggregate, so ~7,000
/// units). The table is learned one host per `/24` per tick, so the
/// aggregates form before the capacity bound could charge hosts one by
/// one. Each measured tick observes a rotating tenth of the hosts, so
/// every entry stays inside the TTL and nothing is evicted; the
/// whole-table passes (expiry, grouped capacity accounting,
/// aggregation) dominate.
fn bench_tick_bounded(c: &mut Criterion) {
    const BLOCKS: usize = 4_000;
    const HOSTS: usize = 25;
    let observation = |block: usize, host: usize| {
        let spread = if block.is_multiple_of(32) {
            host * 3 % 40
        } else {
            host % 4
        };
        CwndObservation {
            dst: Ipv4Addr::new(10, (block / 256) as u8, (block % 256) as u8, host as u8 + 1),
            cwnd: (40 + block % 30 + spread) as u32,
            bytes_acked: 1_000_000,
            retrans: 0,
            ecn_marks: 0,
        }
    };
    let cfg = RiptideConfig::builder()
        .aggregation(AggregationPolicy::default())
        .table_capacity(8_192)
        .guard(GuardConfig::default())
        .build()
        .unwrap();
    let mut agent = RiptideAgent::new(cfg).unwrap();
    let mut routes = RouteTable::new();
    let mut t = 0u64;
    for host in 0..HOSTS {
        t += 1;
        let obs: Vec<_> = (0..BLOCKS).map(|block| observation(block, host)).collect();
        agent.tick(
            SimTime::from_secs(t),
            &mut FnObserver(|| obs.clone()),
            &mut routes,
        );
    }
    assert_eq!(agent.table().len(), BLOCKS * HOSTS, "warm-up evicted");
    let slices: Vec<Vec<CwndObservation>> = (0..10)
        .map(|r| {
            (r..BLOCKS * HOSTS)
                .step_by(10)
                .map(|i| observation(i / HOSTS, i % HOSTS))
                .collect()
        })
        .collect();

    let mut group = c.benchmark_group("agent_tick_bounded");
    group.bench_function("100k_hosts_4k_prefixes", |b| {
        b.iter(|| {
            t += 1;
            let slice = &slices[t as usize % slices.len()];
            let mut observer = FnObserver(|| slice.clone());
            agent.tick(SimTime::from_secs(t), &mut observer, &mut routes);
            black_box(agent.table().len())
        });
    });
    group.finish();
    assert_eq!(agent.stats().table_evictions, 0, "the bounded tick evicted");
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_tick, bench_tick_granularity, bench_tick_bounded
}
criterion_main!(benches);
