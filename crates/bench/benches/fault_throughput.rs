//! Criterion bench: fault-injection campaign throughput.
//!
//! `fault_per_ff` measures one flip-flop's campaign (64-lane batches) on a
//! flip-flop whose upsets damp out quickly and on one whose upsets never
//! re-converge — the two ends of what the convergence exit can save.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use ffr_circuits::{Mac10geConfig, MacJudge, MacTestbench, TrafficConfig};
use ffr_fault::{Campaign, CampaignConfig};
use ffr_netlist::FfId;
use ffr_sim::GoldenRun;

fn bench_per_ff(c: &mut Criterion) {
    let (cc, tb, watch, extractor) =
        MacTestbench::setup(Mac10geConfig::small(), &TrafficConfig::small());
    let golden = GoldenRun::capture(&cc, &tb, &watch);
    let judge = MacJudge::new(extractor, &golden);
    let campaign = Campaign::new(&cc, &tb, &watch, &judge);

    let mut group = c.benchmark_group("fault_per_ff");
    group.sample_size(20);
    let injections = 64usize;
    group.throughput(Throughput::Elements(injections as u64));
    // A datapath FF (converges fast) and a config FF (never converges).
    let targets = [
        (
            "fifo_bit",
            cc.netlist().find_ff("tx_fifo_mem0_reg[3]").unwrap(),
        ),
        (
            "cfg_bit",
            cc.netlist().find_ff("cfg_mac_addr_reg[7]").unwrap(),
        ),
    ];
    let config = CampaignConfig::new(tb.injection_window())
        .with_injections(injections)
        .with_seed(3);
    for (name, ff) in targets {
        group.bench_with_input(BenchmarkId::from_parameter(name), &ff, |b, &ff| {
            b.iter(|| std::hint::black_box(campaign.run_ff(ff, &config).fdr()));
        });
    }
    group.finish();
}

fn bench_golden_capture(c: &mut Criterion) {
    let (cc, tb, watch, _) = MacTestbench::setup(Mac10geConfig::small(), &TrafficConfig::small());
    let mut group = c.benchmark_group("fault_golden_capture");
    group.sample_size(20);
    group.bench_function("mac_small", |b| {
        b.iter(|| std::hint::black_box(GoldenRun::capture(&cc, &tb, &watch).trace.end()));
    });
    group.finish();
}

fn bench_ff_batch(c: &mut Criterion) {
    let (cc, tb, watch, extractor) =
        MacTestbench::setup(Mac10geConfig::small(), &TrafficConfig::small());
    let golden = GoldenRun::capture(&cc, &tb, &watch);
    let judge = MacJudge::new(extractor, &golden);
    let campaign = Campaign::new(&cc, &tb, &watch, &judge);
    let config = CampaignConfig::new(tb.injection_window())
        .with_injections(16)
        .with_seed(5);
    let mut group = c.benchmark_group("fault_small_subset");
    group.sample_size(10);
    let ffs: Vec<FfId> = (0..32).map(FfId::from_index).collect();
    group.throughput(Throughput::Elements((ffs.len() * 16) as u64));
    group.bench_function("32ffs_x16inj_parallel", |b| {
        b.iter(|| {
            std::hint::black_box(
                campaign
                    .run_parallel_subset(&ffs, &config, |_, _| {})
                    .circuit_fdr(),
            )
        });
    });
    group.finish();
}

criterion_group!(benches, bench_per_ff, bench_golden_capture, bench_ff_batch);
criterion_main!(benches);
