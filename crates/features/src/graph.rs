//! Flip-flop-level graph analysis of a gate-level netlist.
//!
//! The netlist is condensed into a directed graph whose nodes are
//! flip-flops, primary inputs and primary outputs, with an edge whenever a
//! purely combinational path connects them. All of the paper's structural
//! features are computed on this condensation.

use ffr_netlist::{FfId, NetId, Netlist};
use std::collections::VecDeque;

/// Result of tracing one flip-flop's combinational input cone.
#[derive(Debug, Clone, Default)]
pub(crate) struct InputCone {
    /// Distinct source flip-flops feeding the cone.
    pub source_ffs: Vec<FfId>,
    /// Distinct primary inputs feeding the cone.
    pub source_pis: Vec<usize>,
    /// Number of constant (tie) cells in the cone.
    pub const_drivers: usize,
    /// Number of combinational cells in the cone.
    pub comb_cells: usize,
}

/// Result of tracing one flip-flop's combinational output cone.
#[derive(Debug, Clone, Default)]
pub(crate) struct OutputCone {
    /// Distinct flip-flops whose data input the cone reaches.
    pub sink_ffs: Vec<FfId>,
    /// Distinct primary outputs (port indices) the cone reaches.
    pub sink_pos: Vec<usize>,
    /// Number of combinational cells driven by the cone.
    pub comb_cells: usize,
}

/// The flip-flop-level condensation of a netlist.
#[derive(Debug, Clone)]
pub(crate) struct FfGraph {
    num_ffs: usize,
    /// `fwd[i]` = flip-flops reachable from FF `i` through combinational
    /// logic only (one sequential stage).
    fwd: Vec<Vec<u32>>,
    /// Reverse adjacency of `fwd`.
    bwd: Vec<Vec<u32>>,
    /// `pi_adj[p]` = flip-flops whose input cone directly contains PI `p`.
    pi_adj: Vec<Vec<u32>>,
    /// `po_adj[o]` = flip-flops whose output cone directly reaches PO `o`.
    po_adj: Vec<Vec<u32>>,
    /// Per-FF input-cone summaries.
    input_cones: Vec<InputCone>,
    /// Per-FF output-cone summaries.
    output_cones: Vec<OutputCone>,
    /// POs directly reachable from primary inputs without crossing any
    /// flip-flop (needed for completeness; unused by the feature set).
    num_pis: usize,
    num_pos: usize,
}

impl FfGraph {
    /// Build the condensation of `netlist`.
    pub(crate) fn build(netlist: &Netlist) -> FfGraph {
        let num_ffs = netlist.num_ffs();
        let num_pis = netlist.primary_inputs().len();
        let num_pos = netlist.primary_outputs().len();

        // Map each net to the PO indices it drives (a net can drive at
        // most one PO port bit in builder-produced netlists, but the
        // parser admits sharing).
        let mut po_of_net: Vec<Vec<u32>> = vec![Vec::new(); netlist.num_nets()];
        for (o, (_, net)) in netlist.primary_outputs().iter().enumerate() {
            po_of_net[net.index()].push(o as u32);
        }
        let mut pi_of_net: Vec<Option<u32>> = vec![None; netlist.num_nets()];
        for (p, &net) in netlist.primary_inputs().iter().enumerate() {
            pi_of_net[net.index()] = Some(p as u32);
        }

        let mut input_cones = Vec::with_capacity(num_ffs);
        let mut output_cones = Vec::with_capacity(num_ffs);
        let mut fwd: Vec<Vec<u32>> = vec![Vec::new(); num_ffs];
        let mut bwd: Vec<Vec<u32>> = vec![Vec::new(); num_ffs];
        let mut pi_adj: Vec<Vec<u32>> = vec![Vec::new(); num_pis];
        let mut po_adj: Vec<Vec<u32>> = vec![Vec::new(); num_pos];

        let mut cell_seen = vec![u32::MAX; netlist.num_cells()];
        for (ff, _) in netlist.ffs() {
            let cone = trace_input_cone(netlist, ff, &mut cell_seen, &pi_of_net);
            for &src in &cone.source_ffs {
                fwd[src.index()].push(ff.index() as u32);
                bwd[ff.index()].push(src.index() as u32);
            }
            for &p in &cone.source_pis {
                pi_adj[p].push(ff.index() as u32);
            }
            input_cones.push(cone);
        }
        let mut cell_seen_out = vec![u32::MAX; netlist.num_cells()];
        for (ff, _) in netlist.ffs() {
            let cone = trace_output_cone(netlist, ff, &mut cell_seen_out, &po_of_net);
            for &o in &cone.sink_pos {
                po_adj[o].push(ff.index() as u32);
            }
            output_cones.push(cone);
        }

        FfGraph {
            num_ffs,
            fwd,
            bwd,
            pi_adj,
            po_adj,
            input_cones,
            output_cones,
            num_pis,
            num_pos,
        }
    }

    /// Number of primary inputs / outputs.
    pub(crate) fn num_ios(&self) -> (usize, usize) {
        (self.num_pis, self.num_pos)
    }

    /// Input-cone summary of a flip-flop.
    pub(crate) fn input_cone(&self, ff: FfId) -> &InputCone {
        &self.input_cones[ff.index()]
    }

    /// Output-cone summary of a flip-flop.
    pub(crate) fn output_cone(&self, ff: FfId) -> &OutputCone {
        &self.output_cones[ff.index()]
    }

    /// Number of distinct flip-flops transitively influencing `ff`
    /// (the paper's *Total Flip-Flops from FFi*).
    pub(crate) fn total_ffs_from(&self, ff: FfId) -> usize {
        self.reach_count(ff, &self.bwd)
    }

    /// Number of distinct flip-flops transitively influenced by `ff`
    /// (the paper's *Total Flip-Flops to FFi*).
    pub(crate) fn total_ffs_to(&self, ff: FfId) -> usize {
        self.reach_count(ff, &self.fwd)
    }

    fn reach_count(&self, start: FfId, adj: &[Vec<u32>]) -> usize {
        let mut seen = vec![false; self.num_ffs];
        let mut queue = VecDeque::new();
        queue.push_back(start.index() as u32);
        let mut count = 0usize;
        // The start node is only counted if re-reached through a cycle.
        let mut start_counted = false;
        seen[start.index()] = true;
        while let Some(n) = queue.pop_front() {
            for &m in &adj[n as usize] {
                if m as usize == start.index() && !start_counted {
                    start_counted = true;
                    count += 1;
                }
                if !seen[m as usize] {
                    seen[m as usize] = true;
                    count += 1;
                    queue.push_back(m);
                }
            }
        }
        count
    }

    /// Length (in sequential stages) of the shortest feedback loop through
    /// `ff`, or `None` if its output never influences its own input.
    /// A length of 1 means Q feeds back to D through combinational logic
    /// alone.
    pub(crate) fn feedback_depth(&self, ff: FfId) -> Option<usize> {
        // BFS from ff over fwd; first time we return to ff gives the
        // shortest cycle length.
        let mut dist = vec![u32::MAX; self.num_ffs];
        let mut queue = VecDeque::new();
        let s = ff.index() as u32;
        for &m in &self.fwd[ff.index()] {
            if m == s {
                return Some(1);
            }
            if dist[m as usize] == u32::MAX {
                dist[m as usize] = 1;
                queue.push_back(m);
            }
        }
        while let Some(n) = queue.pop_front() {
            let d = dist[n as usize];
            for &m in &self.fwd[n as usize] {
                if m == s {
                    return Some(d as usize + 1);
                }
                if dist[m as usize] == u32::MAX {
                    dist[m as usize] = d + 1;
                    queue.push_back(m);
                }
            }
        }
        None
    }

    /// Per-FF distance (in stages) from primary input `pi`: a flip-flop
    /// whose input cone contains the PI has distance 1; each further
    /// flip-flop crossing adds 1. `u32::MAX` = unreachable.
    pub(crate) fn distances_from_pi(&self, pi: usize) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.num_ffs];
        let mut queue = VecDeque::new();
        for &f in &self.pi_adj[pi] {
            if dist[f as usize] == u32::MAX {
                dist[f as usize] = 1;
                queue.push_back(f);
            }
        }
        self.bfs(&mut dist, &mut queue, &self.fwd);
        dist
    }

    /// Per-FF distance (in stages) to primary output `po`: a flip-flop
    /// whose output cone reaches the PO has distance 1.
    pub(crate) fn distances_to_po(&self, po: usize) -> Vec<u32> {
        let mut dist = vec![u32::MAX; self.num_ffs];
        let mut queue = VecDeque::new();
        for &f in &self.po_adj[po] {
            if dist[f as usize] == u32::MAX {
                dist[f as usize] = 1;
                queue.push_back(f);
            }
        }
        self.bfs(&mut dist, &mut queue, &self.bwd);
        dist
    }

    fn bfs(&self, dist: &mut [u32], queue: &mut VecDeque<u32>, adj: &[Vec<u32>]) {
        while let Some(n) = queue.pop_front() {
            let d = dist[n as usize];
            for &m in &adj[n as usize] {
                if dist[m as usize] == u32::MAX {
                    dist[m as usize] = d + 1;
                    queue.push_back(m);
                }
            }
        }
    }
}

/// Walk backwards from a flip-flop's D input through combinational cells.
fn trace_input_cone(
    netlist: &Netlist,
    ff: FfId,
    cell_seen: &mut [u32],
    pi_of_net: &[Option<u32>],
) -> InputCone {
    let marker = ff.index() as u32;
    let mut cone = InputCone::default();
    let mut ff_seen = vec![false; netlist.num_ffs()];
    let mut pi_seen = vec![false; pi_of_net.len().max(1)];
    let mut stack: Vec<NetId> = vec![netlist.ff_d_net(ff)];
    let mut net_done: Vec<bool> = vec![false; netlist.num_nets()];
    while let Some(net) = stack.pop() {
        if net_done[net.index()] {
            continue;
        }
        net_done[net.index()] = true;
        if let Some(p) = pi_of_net[net.index()] {
            if !pi_seen[p as usize] {
                pi_seen[p as usize] = true;
                cone.source_pis.push(p as usize);
            }
            continue;
        }
        let Some(driver) = netlist.driver(net) else {
            continue;
        };
        let cell = netlist.cell(driver);
        if cell.kind().is_sequential() {
            let src = netlist.ff_of_cell(driver).expect("dff has FfId");
            if !ff_seen[src.index()] {
                ff_seen[src.index()] = true;
                cone.source_ffs.push(src);
            }
            continue;
        }
        if cell_seen[driver.index()] != marker {
            cell_seen[driver.index()] = marker;
            if cell.kind().is_constant() {
                cone.const_drivers += 1;
            } else {
                cone.comb_cells += 1;
            }
            for &inp in cell.inputs() {
                stack.push(inp);
            }
        }
    }
    cone.source_ffs.sort_unstable();
    cone.source_pis.sort_unstable();
    cone
}

/// Walk forwards from a flip-flop's Q output through combinational cells.
fn trace_output_cone(
    netlist: &Netlist,
    ff: FfId,
    cell_seen: &mut [u32],
    po_of_net: &[Vec<u32>],
) -> OutputCone {
    let marker = ff.index() as u32;
    let mut cone = OutputCone::default();
    let mut ff_seen = vec![false; netlist.num_ffs()];
    let mut po_flags = vec![false; netlist.primary_outputs().len().max(1)];
    let mut stack: Vec<NetId> = vec![netlist.ff_q_net(ff)];
    let mut net_done: Vec<bool> = vec![false; netlist.num_nets()];
    while let Some(net) = stack.pop() {
        if net_done[net.index()] {
            continue;
        }
        net_done[net.index()] = true;
        for &o in &po_of_net[net.index()] {
            if !po_flags[o as usize] {
                po_flags[o as usize] = true;
                cone.sink_pos.push(o as usize);
            }
        }
        for &reader in netlist.readers(net) {
            let cell = netlist.cell(reader);
            if cell.kind().is_sequential() {
                let dst = netlist.ff_of_cell(reader).expect("dff has FfId");
                if !ff_seen[dst.index()] {
                    ff_seen[dst.index()] = true;
                    cone.sink_ffs.push(dst);
                }
                continue;
            }
            if cell_seen[reader.index()] != marker {
                cell_seen[reader.index()] = marker;
                cone.comb_cells += 1;
                stack.push(cell.output());
            }
        }
    }
    cone.sink_ffs.sort_unstable();
    cone.sink_pos.sort_unstable();
    cone
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffr_netlist::NetlistBuilder;

    /// a -> r0 -> r1 -> r2 -> out, with r2 feeding back into r1.
    fn chain_with_loop() -> Netlist {
        let mut b = NetlistBuilder::new("chain");
        let a = b.input("a", 1);
        let r0 = b.reg("r0", 1);
        b.connect(&r0, &a).unwrap();
        let r1 = b.reg("r1", 1);
        let r2 = b.reg("r2", 1);
        let fb = b.xor(&r0.q(), &r2.q());
        b.connect(&r1, &fb).unwrap();
        b.connect(&r2, &r1.q()).unwrap();
        b.output("out", &r2.q());
        b.finish().unwrap()
    }

    #[test]
    fn cones_and_adjacency() {
        let n = chain_with_loop();
        let g = FfGraph::build(&n);
        let r0 = n.find_ff("r0_reg[0]").unwrap();
        let r1 = n.find_ff("r1_reg[0]").unwrap();
        let r2 = n.find_ff("r2_reg[0]").unwrap();

        assert_eq!(g.input_cone(r0).source_ffs, vec![]);
        assert_eq!(g.input_cone(r0).source_pis, vec![0]);
        let mut r1_src = g.input_cone(r1).source_ffs.clone();
        r1_src.sort_unstable();
        assert_eq!(r1_src, vec![r0, r2]);
        assert_eq!(g.input_cone(r1).comb_cells, 1, "one xor");
        assert_eq!(g.output_cone(r2).sink_ffs, vec![r1]);
        // r2 drives the output port through its buffer.
        assert_eq!(g.output_cone(r2).sink_pos, vec![0]);
        assert_eq!(g.fwd[r0.index()], [r1.index() as u32]);
    }

    #[test]
    fn transitive_reachability() {
        let n = chain_with_loop();
        let g = FfGraph::build(&n);
        let r0 = n.find_ff("r0_reg[0]").unwrap();
        let r1 = n.find_ff("r1_reg[0]").unwrap();
        let r2 = n.find_ff("r2_reg[0]").unwrap();
        // r0 influences r1 and r2.
        assert_eq!(g.total_ffs_to(r0), 2);
        // r1 influences r2 and (via the loop) itself.
        assert_eq!(g.total_ffs_to(r1), 2);
        // r2 is influenced by everything (r0, r1) and itself via the loop.
        assert_eq!(g.total_ffs_from(r2), 3);
        assert_eq!(g.total_ffs_from(r0), 0);
    }

    #[test]
    fn feedback_detection() {
        let n = chain_with_loop();
        let g = FfGraph::build(&n);
        let r0 = n.find_ff("r0_reg[0]").unwrap();
        let r1 = n.find_ff("r1_reg[0]").unwrap();
        let r2 = n.find_ff("r2_reg[0]").unwrap();
        assert_eq!(g.feedback_depth(r0), None, "r0 is feed-forward");
        assert_eq!(g.feedback_depth(r1), Some(2), "r1 -> r2 -> r1");
        assert_eq!(g.feedback_depth(r2), Some(2), "r2 -> r1 -> r2");
    }

    #[test]
    fn self_loop_depth_one() {
        let mut b = NetlistBuilder::new("hold");
        let en = b.input("en", 1);
        let r = b.reg("r", 1);
        let inv = b.not(&r.q());
        let next = b.mux(&en, &r.q(), &inv);
        b.connect(&r, &next).unwrap();
        b.output("o", &r.q());
        let n = b.finish().unwrap();
        let g = FfGraph::build(&n);
        assert_eq!(g.feedback_depth(FfId::from_index(0)), Some(1));
    }

    #[test]
    fn pi_po_distances() {
        let n = chain_with_loop();
        let g = FfGraph::build(&n);
        let r0 = n.find_ff("r0_reg[0]").unwrap();
        let r1 = n.find_ff("r1_reg[0]").unwrap();
        let r2 = n.find_ff("r2_reg[0]").unwrap();
        let from_a = g.distances_from_pi(0);
        assert_eq!(from_a[r0.index()], 1);
        assert_eq!(from_a[r1.index()], 2);
        assert_eq!(from_a[r2.index()], 3);
        let to_out = g.distances_to_po(0);
        assert_eq!(to_out[r2.index()], 1);
        assert_eq!(to_out[r1.index()], 2);
        assert_eq!(to_out[r0.index()], 3);
    }

    #[test]
    fn constant_drivers_counted() {
        let mut b = NetlistBuilder::new("konst");
        let a = b.input("a", 4);
        let k = b.lit(4, 0b0101);
        let masked = b.and(&a, &k);
        let r = b.reg("r", 4);
        b.connect(&r, &masked).unwrap();
        b.output("o", &r.q());
        let n = b.finish().unwrap();
        let g = FfGraph::build(&n);
        // Each bit's cone sees exactly one tie cell (const0 or const1).
        for i in 0..4 {
            assert_eq!(
                g.input_cone(FfId::from_index(i)).const_drivers,
                1,
                "bit {i}"
            );
        }
    }
}
