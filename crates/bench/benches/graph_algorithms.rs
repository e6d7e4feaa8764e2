//! Graph-machinery benchmarks: the Service Engine's algorithms at the
//! paper's scale (136 services) and beyond (1000 to 16000, the "will
//! surely grow" case of §5). Plan compile is O(V + E), so every
//! function here should scale near-linearly across the sizes.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use bb_core::service_engine::{analyze, identify_bb_group};
use bb_init::{Transaction, UnitGraph, UnitName};
use bb_sim::DeviceId;
use bb_workloads::{tizen_tv, TizenParams};

fn graph_for(services: usize) -> UnitGraph {
    let params = TizenParams {
        services,
        ..TizenParams::default()
    };
    let w = tizen_tv(&params, DeviceId::from_raw(0));
    UnitGraph::build(w.units).expect("valid units")
}

fn bench_graph(c: &mut Criterion) {
    for services in [136usize, 1000, 4000, 16000] {
        let graph = graph_for(services);
        let units = graph.units().to_vec();
        let completion = [UnitName::new("fasttv.service")];

        let mut group = c.benchmark_group(format!("graph-{services}"));
        group.bench_function("build", |b| {
            b.iter(|| black_box(UnitGraph::build(units.clone()).expect("valid")))
        });
        group.bench_function("sccs", |b| b.iter(|| black_box(graph.sccs())));
        group.bench_function("topo-order", |b| {
            b.iter(|| black_box(graph.topo_order().expect("acyclic")))
        });
        group.bench_function("bb-group-isolation", |b| {
            b.iter(|| black_box(identify_bb_group(&graph, &completion)))
        });
        group.bench_function("transaction", |b| {
            b.iter(|| black_box(Transaction::build(&graph, "tv-boot.target").expect("ok")))
        });
        let transaction = Transaction::build(&graph, "tv-boot.target").expect("ok");
        group.bench_function("execution-order", |b| {
            b.iter(|| black_box(transaction.execution_order(&graph)))
        });
        group.bench_function("service-analyzer", |b| {
            b.iter(|| black_box(analyze(&graph)))
        });
        group.finish();
    }
}

criterion_group!(benches, bench_graph);
criterion_main!(benches);
