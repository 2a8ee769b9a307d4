//! Criterion bench: the fault-evaluation engine's per-cycle loop.
//!
//! [`ffr_sim::FaultEngine`] evaluates only the cone ops whose inputs
//! currently differ from the golden [`ffr_sim::NetJournal`] values (and
//! the whole cone while divergence is wide), so its cost tracks the *live
//! divergence* of an injection, not the cone size. This bench drives the
//! public per-cycle API over a real mac-small testbench window with a
//! real all-lanes SEU injection on representative cones and reports
//! throughput in cone-op equivalents (every cone op in every cycle of the
//! window) — comparable per op with the `sim_throughput` bench.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ffr_circuits::{Mac10geConfig, MacTestbench, TrafficConfig};
use ffr_netlist::FfId;
use ffr_sim::{FaultEngine, NetJournal, Stimulus};

fn bench_engine(c: &mut Criterion) {
    let (cc, tb, _watch, _extractor) =
        MacTestbench::setup(Mac10geConfig::small(), &TrafficConfig::small());
    let netj = NetJournal::capture(&cc, &tb);
    let t0 = tb.injection_window().start;
    let end = tb.num_cycles();

    // Rank every SEU cone by op count to pick representative sizes.
    let mut by_size: Vec<usize> = (0..cc.num_ffs()).collect();
    by_size.sort_by_key(|&i| cc.ff_cone(FfId::from_index(i)).num_ops());
    let cases = [
        ("largest_ff", *by_size.last().unwrap()),
        ("median_ff", by_size[by_size.len() / 2]),
    ];

    let mut group = c.benchmark_group("engine_eval");
    group.sample_size(20);
    for (name, ff) in cases {
        let cone = cc.ff_cone(FfId::from_index(ff));
        group.throughput(Throughput::Elements(cone.num_ops() as u64 * (end - t0)));
        group.bench_function(BenchmarkId::from_parameter(name), |b| {
            let mut engine = FaultEngine::new(&cc);
            b.iter(|| {
                engine.attach(&cone, t0);
                for cycle in t0..end {
                    engine.eval(&cone, netj.row(cycle), if cycle == t0 { !0 } else { 0 });
                    let next = cycle + 1;
                    engine.tick(&cone, (next < end).then(|| netj.row(next)));
                }
                std::hint::black_box(engine.ops_evaluated())
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_engine);
criterion_main!(benches);
