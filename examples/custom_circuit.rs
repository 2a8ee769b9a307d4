//! Bring your own circuit: build a custom design with the RTL builder,
//! round-trip it through structural Verilog, extract the paper's
//! 25 features and run the full ML-assisted estimation pipeline on it.
//!
//! Run: `cargo run --release --example custom_circuit`

use ffr_campaign::{
    run_resumable, AdaptivePolicy, CampaignCheckpoint, CancelToken, CheckpointParams, RunnerOptions,
};
use ffr_core::{measured_rows, ModelKind};
use ffr_fault::{Campaign, FaultKind, OutputMismatchJudge};
use ffr_features::extract_features;
use ffr_ml::model_selection::{train_test_split, StratifiedKFold};
use ffr_netlist::{verilog, FfId, NetlistBuilder};
use ffr_sim::{CompiledCircuit, InputFrame, Stimulus, WatchList};

/// A small packet-checksum engine: data flows through a pipeline into an
/// accumulator; a stuck status register and a wide ID register provide
/// benign flip-flop populations.
fn build() -> Result<ffr_netlist::Netlist, ffr_netlist::NetlistError> {
    let mut b = NetlistBuilder::new("checksum_engine");
    let valid = b.input("valid", 1);
    let data = b.input("data", 8);

    // Two pipeline stages.
    let s1 = b.reg("stage1", 8);
    b.connect_en(&s1, &valid, &data)?;
    let s2 = b.reg("stage2", 8);
    b.connect_en(&s2, &valid, &s1.q())?;

    // Accumulating checksum.
    let acc = b.reg("acc", 8);
    let (sum, _) = b.add(&acc.q(), &s2.q());
    b.connect_en(&acc, &valid, &sum)?;

    // Benign: a version ID that holds its reset value forever.
    let id = b.reg_init("version_id", 8, 0x5A);
    let id_q = id.q();
    b.connect(&id, &id_q)?;
    let parity = b.reduce_xor(&id.q());
    let gated = b.and(&parity, &valid);
    let zero = b.zero_bit();
    let masked = b.and(&gated, &zero);

    b.output("checksum", &acc.q());
    let out_bit = b.or(&masked, &acc.q().bit(0));
    b.output("csum_lsb_mirror", &out_bit);
    b.finish()
}

struct Feed;

impl Stimulus for Feed {
    fn num_cycles(&self) -> u64 {
        300
    }

    fn drive(&self, cycle: u64, frame: &mut InputFrame) {
        frame.set(0, cycle % 3 != 2);
        frame.set_bus(1, 8, (cycle * 37 + 11) & 0xFF);
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let netlist = build()?;

    // Round-trip through structural Verilog (what you would hand to or
    // receive from a synthesis flow).
    let verilog_text = verilog::emit(&netlist);
    println!(
        "emitted {} lines of structural Verilog; first lines:",
        verilog_text.lines().count()
    );
    for line in verilog_text.lines().take(6) {
        println!("  {line}");
    }
    let netlist = verilog::parse(&verilog_text)?;

    let cc = CompiledCircuit::compile(netlist)?;
    let watch = WatchList::all(&cc);

    // The campaign's golden run is the one fault-free simulation: the
    // reference its faults are judged against and the activity source of
    // the dynamic features.
    let judge = OutputMismatchJudge::new();
    let campaign = Campaign::new(&cc, &Feed, &watch, &judge);

    // Feature extraction (the paper's 25 columns) as CSV.
    let features = extract_features(&cc, &campaign.golden().activity);
    println!(
        "\nfeature matrix: {} x {}; CSV head:",
        features.num_rows(),
        features.num_cols()
    );
    for line in features.to_csv().lines().take(4) {
        println!("  {line}");
    }

    // Full estimation pipeline: inject a random 40% of the FFs, then
    // select / fit k-NN on the measured rows and predict the rest.
    let (subset, _) = train_test_split(cc.num_ffs(), 0.4, 21);
    let params = CheckpointParams {
        fault: FaultKind::Seu,
        seed: 21,
        window_start: 10,
        window_end: 280,
        policy: AdaptivePolicy::fixed(40),
    };
    let subset = subset.into_iter().map(|i| i as u32);
    let mut checkpoint = CampaignCheckpoint::fresh("custom".into(), params, subset);
    let options = RunnerOptions::default();
    run_resumable(
        &campaign,
        &mut checkpoint,
        &options,
        &CancelToken::new(),
        |_, _| {},
    )?;
    let table = checkpoint.to_fdr_table_for(cc.num_ffs());

    let rows = features.to_rows();
    let (tx, ty) = measured_rows(&table, &rows);
    let estimate = ffr_core::estimate(
        &tx,
        &ty,
        &StratifiedKFold::new(4, 21).split(&ty),
        &[ModelKind::Knn],
        1,
        &rows,
        &ffr_obs::Recorder::disabled(),
    );
    println!("\nper-flip-flop estimates (M = measured, P = predicted):");
    let mut fdr_sum = 0.0;
    for (i, &predicted) in estimate.predictions.iter().enumerate() {
        let ff = FfId::from_index(i);
        let measured = table.fdr(ff);
        fdr_sum += measured.unwrap_or(predicted);
        println!(
            "  {:<18} {} {:.3}",
            cc.netlist().ff_name(ff),
            if measured.is_some() { "M" } else { "P" },
            measured.unwrap_or(predicted)
        );
    }
    println!(
        "\ncircuit FDR = {:.3} using only {} injections",
        fdr_sum / cc.num_ffs() as f64,
        table.injections_spent()
    );
    Ok(())
}
