//! The paper's 25-column flip-flop feature schema and its extraction.

use crate::graph::FfGraph;
use crate::matrix::FeatureMatrix;
use ffr_netlist::FfId;
use ffr_sim::{ActivityTrace, CompiledCircuit};

/// Version of the extracted feature schema (column set *and* the
/// semantics of each column). Any change to [`FEATURE_NAMES`] or to how a
/// column is computed must bump this: cached feature matrices in the
/// campaign artifact store are keyed by `(circuit hash, stimulus config,
/// schema version)`, so a bump cleanly invalidates stale caches instead of
/// silently feeding old columns to the models.
pub(crate) const SCHEMA_VERSION: u32 = 1;

/// The cache-key fragment describing this extractor: schema version plus
/// column count. Campaign store keys embed it so a schema change misses.
pub fn schema_desc() -> String {
    format!(
        "features_schema={SCHEMA_VERSION};cols={}",
        FEATURE_NAMES.len()
    )
}

/// Names of the feature columns, in matrix order.
///
/// Columns 0–17 are *structural*, 18–21 are *synthesis*, 22–24 are
/// *dynamic* — exactly the three source groups of §III-B.
pub const FEATURE_NAMES: [&str; 25] = [
    "ff_fan_in",
    "ff_fan_out",
    "total_ffs_from",
    "total_ffs_to",
    "conn_from_pi",
    "conn_to_po",
    "prox_from_pi_min",
    "prox_from_pi_avg",
    "prox_from_pi_max",
    "prox_to_po_min",
    "prox_to_po_avg",
    "prox_to_po_max",
    "part_of_bus",
    "bus_position",
    "bus_length",
    "const_drivers",
    "has_feedback",
    "feedback_depth",
    "drive_strength",
    "comb_fan_in",
    "comb_fan_out",
    "comb_path_depth",
    "at0",
    "at1",
    "state_changes",
];

/// The three feature-source groups of the paper, for ablation experiments.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FeatureGroup {
    /// Circuit-structure features (graph analysis of the netlist).
    Structural,
    /// Synthesis attributes (drive strength, cones, path depth).
    Synthesis,
    /// Signal-activity features from the golden simulation.
    Dynamic,
}

impl FeatureGroup {
    /// Column range of the group within [`FEATURE_NAMES`].
    pub fn columns(self) -> std::ops::Range<usize> {
        match self {
            FeatureGroup::Structural => 0..18,
            FeatureGroup::Synthesis => 18..22,
            FeatureGroup::Dynamic => 22..25,
        }
    }

    /// All groups.
    pub const ALL: [FeatureGroup; 3] = [
        FeatureGroup::Structural,
        FeatureGroup::Synthesis,
        FeatureGroup::Dynamic,
    ];
}

/// Extract the full 25-column feature matrix (structural + synthesis +
/// dynamic) for every flip-flop.
///
/// `activity` must come from the golden run of the same compiled circuit.
///
/// # Panics
///
/// Panics if `activity` covers a different number of flip-flops than the
/// circuit.
pub fn extract_features(cc: &CompiledCircuit, activity: &ActivityTrace) -> FeatureMatrix {
    assert_eq!(
        activity.num_ffs(),
        cc.num_ffs(),
        "activity trace does not match the circuit"
    );
    let mut m = extract_structural(cc);
    for i in 0..cc.num_ffs() {
        let ff = FfId::from_index(i);
        m.set(i, 22, activity.at0(ff));
        m.set(i, 23, activity.at1(ff));
        m.set(i, 24, activity.state_changes(ff) as f64);
    }
    m
}

/// Extract the structural and synthesis columns only (dynamic columns are
/// zero). Useful when no testbench is available.
pub fn extract_structural(cc: &CompiledCircuit) -> FeatureMatrix {
    let netlist = cc.netlist();
    let graph = FfGraph::build(netlist);
    let n = netlist.num_ffs();
    let (num_pis, num_pos) = graph.num_ios();

    // Stage distances from every PI / to every PO (BFS each).
    let pi_dists: Vec<Vec<u32>> = (0..num_pis).map(|p| graph.distances_from_pi(p)).collect();
    let po_dists: Vec<Vec<u32>> = (0..num_pos).map(|o| graph.distances_to_po(o)).collect();

    // Longest combinational path from each net (for comb_path_depth).
    let depth_from = longest_comb_path_from(cc);

    let ff_names: Vec<String> = netlist
        .ffs()
        .map(|(ff, _)| netlist.ff_name(ff).to_string())
        .collect();
    let mut m = FeatureMatrix::zeros(
        ff_names,
        FEATURE_NAMES.iter().map(|s| s.to_string()).collect(),
    );

    for i in 0..n {
        let ff = FfId::from_index(i);
        let in_cone = graph.input_cone(ff);
        let out_cone = graph.output_cone(ff);

        m.set(i, 0, in_cone.source_ffs.len() as f64);
        m.set(i, 1, out_cone.sink_ffs.len() as f64);
        m.set(i, 2, graph.total_ffs_from(ff) as f64);
        m.set(i, 3, graph.total_ffs_to(ff) as f64);

        // PI connectivity & proximity.
        let mut pi_stages: Vec<u32> = Vec::new();
        for dists in pi_dists.iter() {
            let d = dists[i];
            if d != u32::MAX {
                pi_stages.push(d);
            }
        }
        m.set(i, 4, pi_stages.len() as f64);
        let (mn, avg, mx) = min_avg_max(&pi_stages);
        m.set(i, 6, mn);
        m.set(i, 7, avg);
        m.set(i, 8, mx);

        // PO connectivity & proximity.
        let mut po_stages: Vec<u32> = Vec::new();
        for dists in po_dists.iter() {
            let d = dists[i];
            if d != u32::MAX {
                po_stages.push(d);
            }
        }
        m.set(i, 5, po_stages.len() as f64);
        let (mn, avg, mx) = min_avg_max(&po_stages);
        m.set(i, 9, mn);
        m.set(i, 10, avg);
        m.set(i, 11, mx);

        // Bus membership.
        match netlist.bus_of_ff(ff) {
            Some((bus_idx, pos)) => {
                m.set(i, 12, 1.0);
                m.set(i, 13, pos as f64);
                m.set(i, 14, netlist.buses()[bus_idx].len() as f64);
            }
            None => {
                m.set(i, 12, 0.0);
                m.set(i, 13, -1.0);
                m.set(i, 14, 0.0);
            }
        }

        m.set(i, 15, in_cone.const_drivers as f64);

        match graph.feedback_depth(ff) {
            Some(d) => {
                m.set(i, 16, 1.0);
                m.set(i, 17, d as f64);
            }
            None => {
                m.set(i, 16, 0.0);
                m.set(i, 17, -1.0);
            }
        }

        // Synthesis features.
        let cell = netlist.ff_cell(ff);
        m.set(i, 18, cell.drive().multiplier() as f64);
        m.set(i, 19, in_cone.comb_cells as f64);
        m.set(i, 20, out_cone.comb_cells as f64);
        m.set(i, 21, depth_from[netlist.ff_q_net(ff).index()] as f64);
    }
    m
}

fn min_avg_max(values: &[u32]) -> (f64, f64, f64) {
    if values.is_empty() {
        // Unconnected: mirror the paper's "-1 when absent" convention.
        return (-1.0, -1.0, -1.0);
    }
    let mn = *values.iter().min().expect("non-empty") as f64;
    let mx = *values.iter().max().expect("non-empty") as f64;
    let avg = values.iter().map(|&v| v as f64).sum::<f64>() / values.len() as f64;
    (mn, avg, mx)
}

/// For every net, the length (in gates) of the longest purely
/// combinational path starting at that net.
fn longest_comb_path_from(cc: &CompiledCircuit) -> Vec<u32> {
    let netlist = cc.netlist();
    // Process compiled ops in reverse topological order: the ops are in
    // forward topological order, so one reverse sweep suffices.
    let mut depth = vec![0u32; netlist.num_nets()];
    for (_, cell) in netlist
        .cells()
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
        .filter(|(_, c)| !c.kind().is_sequential())
    {
        let out_depth = depth[cell.output().index()];
        for &inp in cell.inputs() {
            let candidate = out_depth + 1;
            if candidate > depth[inp.index()] {
                depth[inp.index()] = candidate;
            }
        }
    }
    depth
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffr_circuits::small;
    use ffr_netlist::NetlistBuilder;
    use ffr_sim::{GoldenRun, InputFrame, Stimulus, WatchList};

    fn col(name: &str) -> usize {
        FEATURE_NAMES.iter().position(|n| *n == name).unwrap()
    }

    struct En;

    impl Stimulus for En {
        fn num_cycles(&self) -> u64 {
            64
        }

        fn drive(&self, _c: u64, f: &mut InputFrame) {
            f.set(0, true);
        }
    }

    #[test]
    fn schema_is_consistent() {
        assert_eq!(FEATURE_NAMES.len(), 25);
        let mut covered = vec![false; FEATURE_NAMES.len()];
        for g in FeatureGroup::ALL {
            for c in g.columns() {
                assert!(!covered[c], "column {c} in two groups");
                covered[c] = true;
            }
        }
        assert!(covered.iter().all(|&b| b), "all columns grouped");
    }

    #[test]
    fn counter_features_make_sense() {
        let cc = ffr_sim::CompiledCircuit::compile(small::counter_circuit(4)).unwrap();
        let run = GoldenRun::capture(&cc, &En, &WatchList::all(&cc));
        let m = extract_features(&cc, &run.activity);
        assert_eq!(m.num_rows(), 4);
        assert_eq!(m.num_cols(), 25);

        for i in 0..4 {
            // A counter bit feeds back onto itself through the increment.
            assert_eq!(m.get(i, col("has_feedback")), 1.0, "bit {i}");
            assert_eq!(m.get(i, col("feedback_depth")), 1.0, "bit {i}");
            // All bits belong to the 4-bit `count` bus.
            assert_eq!(m.get(i, col("part_of_bus")), 1.0);
            assert_eq!(m.get(i, col("bus_length")), 4.0);
            assert_eq!(m.get(i, col("bus_position")), i as f64);
            // Enabled counter: all bits connected to the single PI at
            // 1 stage (the enable mux is combinational).
            assert_eq!(m.get(i, col("conn_from_pi")), 1.0);
            assert_eq!(m.get(i, col("prox_from_pi_min")), 1.0);
        }
        // Bit 0 toggles every enabled cycle: most state changes.
        let sc0 = m.get(0, col("state_changes"));
        let sc3 = m.get(3, col("state_changes"));
        assert!(sc0 > sc3, "LSB toggles more than MSB: {sc0} vs {sc3}");
        // Duty cycles sum to 1.
        for i in 0..4 {
            let s = m.get(i, col("at0")) + m.get(i, col("at1"));
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn fan_in_fan_out_on_pipeline() {
        let cc = ffr_sim::CompiledCircuit::compile(small::lfsr_pipeline(8, 2)).unwrap();
        let m = extract_structural(&cc);
        let nl = cc.netlist();
        // A middle pipeline stage bit: fan-in 2 (previous stage bit plus
        // itself through the clock-enable hold mux), fan-out 2 (next stage
        // bit plus its own hold mux).
        let ff = nl.find_ff("pipe_s0_reg[3]").unwrap();
        assert_eq!(m.get(ff.index(), col("ff_fan_in")), 2.0);
        assert_eq!(m.get(ff.index(), col("ff_fan_out")), 2.0);
        // LFSR bits influence the whole pipeline downstream.
        let lfsr_ff = nl.find_ff("src_reg[0]").unwrap();
        assert!(m.get(lfsr_ff.index(), col("total_ffs_to")) >= 16.0);
    }

    #[test]
    fn structural_only_leaves_dynamic_zero() {
        let cc = ffr_sim::CompiledCircuit::compile(small::counter_circuit(3)).unwrap();
        let m = extract_structural(&cc);
        for i in 0..3 {
            assert_eq!(m.get(i, col("at0")), 0.0);
            assert_eq!(m.get(i, col("at1")), 0.0);
            assert_eq!(m.get(i, col("state_changes")), 0.0);
        }
    }

    #[test]
    fn comb_path_depth_reflects_logic_depth() {
        // A register feeding a deep ripple adder has a deep output path;
        // one feeding only an output buffer has depth 1.
        let mut b = NetlistBuilder::new("depth");
        let a = b.input("a", 8);
        let deep = b.reg("deep", 8);
        let shallow = b.reg("shallow", 8);
        b.connect(&deep, &a).unwrap();
        b.connect(&shallow, &a).unwrap();
        let (sum, _) = b.add(&deep.q(), &a);
        b.output("sum", &sum);
        b.output("flat", &shallow.q());
        let n = b.finish().unwrap();
        let cc = ffr_sim::CompiledCircuit::compile(n).unwrap();
        let m = extract_structural(&cc);
        let col = col("comb_path_depth");
        let deep0 = cc.netlist().find_ff("deep_reg[0]").unwrap();
        let shallow0 = cc.netlist().find_ff("shallow_reg[0]").unwrap();
        assert!(
            m.get(deep0.index(), col) > m.get(shallow0.index(), col),
            "adder path deeper than buffer path"
        );
        assert_eq!(m.get(shallow0.index(), col), 1.0, "buffer only");
    }

    #[test]
    fn mac_features_extract_without_panic() {
        use ffr_circuits::{Mac10geConfig, MacTestbench, TrafficConfig};
        let (cc, tb, watch, _) =
            MacTestbench::setup(Mac10geConfig::small(), &TrafficConfig::small());
        let run = GoldenRun::capture(&cc, &tb, &watch);
        let m = extract_features(&cc, &run.activity);
        assert_eq!(m.num_rows(), cc.num_ffs());
        // FIFO memory rows are wide buses.
        let col = col("bus_length");
        let ff = cc.netlist().find_ff("tx_fifo_mem0_reg[0]").unwrap();
        assert_eq!(m.get(ff.index(), col), 18.0, "W+2 bits per TX FIFO row");
    }
}
