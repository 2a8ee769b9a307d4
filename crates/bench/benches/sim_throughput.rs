//! Criterion bench: gate-level simulator throughput.
//!
//! Measures compiled-op evaluation rate on the MAC and a small counter,
//! both per-cycle and for a whole testbench run. This is the substrate
//! cost every fault-injection number in the reproduction rests on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ffr_circuits::{small, Mac10geConfig, MacTestbench, TrafficConfig};
use ffr_sim::{CompiledCircuit, GoldenRun, SimState};

fn bench_eval_cycle(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_eval_cycle");
    let mac = ffr_circuits::Mac10ge::build(Mac10geConfig::small());
    let mac_cc = CompiledCircuit::compile(mac.into_netlist()).unwrap();
    let counter_cc = CompiledCircuit::compile(small::counter_circuit(16)).unwrap();
    for (name, cc) in [("counter16", &counter_cc), ("mac_small", &mac_cc)] {
        group.throughput(Throughput::Elements(cc.num_ops() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(name), cc, |b, cc| {
            let mut state = SimState::new(cc);
            b.iter(|| {
                state.eval(cc);
                state.tick(cc);
                std::hint::black_box(state.cycle())
            });
        });
    }
    group.finish();
}

fn bench_testbench_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("sim_testbench_run");
    group.sample_size(20);
    let (cc, tb, watch, _) = MacTestbench::setup(Mac10geConfig::small(), &TrafficConfig::small());
    group.bench_function("mac_small_full_tb", |b| {
        b.iter(|| std::hint::black_box(GoldenRun::capture(&cc, &tb, &watch).trace.end()));
    });
    group.finish();
}

criterion_group!(benches, bench_eval_cycle, bench_testbench_run);
criterion_main!(benches);
