//! Quickstart: estimate per-flip-flop Functional De-Rating for a small
//! circuit in under a second.
//!
//! Builds a 8-bit counter with the RTL builder, runs a statistical SEU
//! campaign against a generic output-mismatch failure criterion, and
//! prints the FDR of every flip-flop.
//!
//! Run: `cargo run --release --example quickstart`

use ffr_campaign::{
    run_resumable, AdaptivePolicy, CampaignCheckpoint, CancelToken, CheckpointParams, RunnerOptions,
};
use ffr_fault::{Campaign, FaultKind, OutputMismatchJudge};
use ffr_netlist::NetlistBuilder;
use ffr_sim::{CompiledCircuit, InputFrame, Stimulus, WatchList};

/// Free-running enable.
struct AlwaysOn;

impl Stimulus for AlwaysOn {
    fn num_cycles(&self) -> u64 {
        200
    }

    fn drive(&self, _cycle: u64, frame: &mut InputFrame) {
        frame.set(0, true);
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe the circuit at RTL level; the builder lowers it to a
    //    NanGate-like gate-level netlist.
    let mut b = NetlistBuilder::new("quickstart");
    let en = b.input("en", 1);
    let count = b.reg("count", 8);
    let next = b.inc(&count.q());
    b.connect_en(&count, &en, &next)?;
    // Only the low nibble is observable: upper bits are partially masked.
    b.output("value", &count.q().slice(0..4));
    let netlist = b.finish()?;

    // 2. Compile for simulation.
    let cc = CompiledCircuit::compile(netlist)?;
    println!(
        "circuit: {} cells, {} flip-flops",
        cc.netlist().num_cells(),
        cc.num_ffs()
    );

    // 3. Statistical SEU campaign over every flip-flop: 60 injections
    //    each, failure = any primary-output deviation from the golden run.
    let watch = WatchList::all(&cc);
    let judge = OutputMismatchJudge::new();
    let campaign = Campaign::new(&cc, &AlwaysOn, &watch, &judge);
    let params = CheckpointParams {
        fault: FaultKind::Seu,
        seed: 1,
        window_start: 10,
        window_end: 180,
        policy: AdaptivePolicy::fixed(60),
    };
    let ffs = 0..cc.num_ffs() as u32;
    let mut checkpoint = CampaignCheckpoint::fresh("quickstart".into(), params, ffs);
    let options = RunnerOptions::default();
    run_resumable(
        &campaign,
        &mut checkpoint,
        &options,
        &CancelToken::new(),
        |_, _| {},
    )?;
    let table = checkpoint.to_fdr_table_for(cc.num_ffs());

    println!("\nper-flip-flop Functional De-Rating:");
    for (ff, _) in cc.netlist().ffs() {
        println!(
            "  {:<14} FDR = {:.3}",
            cc.netlist().ff_name(ff),
            table.fdr(ff).expect("full campaign")
        );
    }
    println!("\ncircuit FDR = {:.3}", table.circuit_fdr());
    println!("expectation: observable low bits fail, masked high bits do not.");
    Ok(())
}
