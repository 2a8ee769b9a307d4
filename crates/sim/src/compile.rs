//! Netlist levelization and compilation into a flat operation list.

use ffr_netlist::{CellKind, FfId, NetId, Netlist};
use std::fmt;

/// Errors produced while compiling a netlist for simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The netlist contains a combinational cycle (a loop not broken by a
    /// flip-flop), which a cycle-based simulator cannot evaluate.
    CombinationalCycle {
        /// Names of some cells on the cycle (truncated for readability).
        cells: Vec<String>,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::CombinationalCycle { cells } => {
                write!(f, "combinational cycle through: {}", cells.join(" -> "))
            }
        }
    }
}

impl std::error::Error for SimError {}

/// A single compiled gate evaluation.
///
/// Operand fields index into the flat net-value array; unused operands are 0
/// and ignored by [`CellKind::eval`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Op {
    pub kind: CellKind,
    pub a: u32,
    pub b: u32,
    pub c: u32,
    pub out: u32,
}

/// Sentinel in the net→driver index for nets without a combinational
/// driver (primary inputs, flip-flop outputs, constants).
const NO_DRIVER: u32 = u32::MAX;

/// The transitive fan-out cone of one injection net, compiled for
/// cone-restricted differential fault simulation.
///
/// A single fault can only ever disturb the nets downstream of its
/// injection net: the ops in the transitive fan-out (closed over
/// flip-flop D→Q edges) and the flip-flops that latch cone nets.
/// Everything else stays golden on every lane of every cycle, so the
/// [`FaultEngine`](crate::FaultEngine) evaluates at most
/// [`Cone::num_ops`] ops per cycle instead of the full circuit, reads the
/// **boundary nets** (non-cone nets read by cone ops) from a golden
/// [`NetJournal`](crate::NetJournal), and checks convergence over
/// [`Cone::num_ffs`] flip-flops only.
///
/// Built once per injection point via [`CompiledCircuit::ff_cone`] (SEU)
/// or [`CompiledCircuit::net_cone`] (SET). The fault model is fully
/// encoded in the cone: a source root (flip-flop Q net, primary input) is
/// flipped in place, a gate-output root is XOR-forced at its driving op.
#[derive(Debug, Clone)]
pub struct Cone {
    /// Cone ops, in the same topological order as the full op list.
    pub(crate) ops: Vec<Op>,
    /// Position in `ops` of the op driving the root net (a gate-output
    /// SET root), or `None` for source roots (PI / flip-flop Q nets).
    pub(crate) forced_split: Option<u32>,
    /// The injection net.
    pub(crate) root: u32,
    /// Global indices of the flip-flops inside the cone, ascending.
    pub(crate) ffs: Vec<u32>,
    /// Q net of each cone flip-flop (parallel to `ffs`).
    pub(crate) ff_q: Vec<u32>,
    /// D net of each cone flip-flop (parallel to `ffs`).
    pub(crate) ff_d: Vec<u32>,
    /// Nets the cone reads (plus a source root) but does not produce,
    /// ascending: golden at all times, broadcast from a net journal.
    ///
    /// Unused op operands are encoded as net 0, so net 0 may appear here
    /// spuriously; loading it is harmless because [`CellKind::eval`]
    /// ignores unused operands.
    pub(crate) boundary: Vec<u32>,
    /// Bitset over all nets: the root, cone op outputs and cone FF Q
    /// nets — the only nets whose value can ever deviate from golden.
    pub(crate) touched: Vec<u64>,
    /// Frontier fan-out adjacency (CSR over all nets): for each net that
    /// can carry a non-golden value (`touched`), the cone-local indices
    /// of the ops reading it. Event-driven evaluation schedules exactly
    /// these ops when the net diverges from golden.
    pub(crate) reader_off: Vec<u32>,
    pub(crate) reader_ops: Vec<u32>,
    /// Frontier latch adjacency (CSR over all nets): for each touched
    /// net, the cone-local indices of the flip-flops whose D input it
    /// drives. A divergent D net is exactly what makes a flip-flop latch
    /// a non-golden value at the next clock edge.
    pub(crate) latch_off: Vec<u32>,
    pub(crate) latch_ffs: Vec<u32>,
}

impl Cone {
    /// Number of combinational ops inside the cone.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of flip-flops inside the cone.
    pub fn num_ffs(&self) -> usize {
        self.ffs.len()
    }

    /// Number of boundary nets (golden values broadcast per cycle).
    pub fn num_boundary_nets(&self) -> usize {
        self.boundary.len()
    }

    /// The injection net this cone was built for.
    pub fn root(&self) -> NetId {
        NetId::from_index(self.root as usize)
    }

    /// `true` if `net` can carry a non-golden value in some lane of some
    /// cycle — it is the root, a cone op output, or a cone flip-flop Q
    /// net. Watched outputs for which this is `false` are golden by
    /// construction and can be served from the golden trace.
    pub fn may_differ(&self, net: NetId) -> bool {
        let n = net.index();
        (self.touched[n / 64] >> (n % 64)) & 1 == 1
    }
}

/// A netlist compiled for fast cycle-based evaluation.
///
/// The compiled form owns the netlist it was built from — simulation,
/// fault injection and feature extraction all share it, and campaigns move
/// it across worker threads.
#[derive(Debug, Clone)]
pub struct CompiledCircuit {
    netlist: Netlist,
    pub(crate) ops: Vec<Op>,
    pub(crate) num_nets: usize,
    pub(crate) pi_nets: Vec<u32>,
    pub(crate) po_nets: Vec<u32>,
    pub(crate) ff_q: Vec<u32>,
    pub(crate) ff_d: Vec<u32>,
    pub(crate) ff_init: Vec<bool>,
    /// For each net, the index of the op driving it (`NO_DRIVER` for
    /// source nets: primary inputs, flip-flop outputs, constants).
    net_driver: Vec<u32>,
}

impl CompiledCircuit {
    /// Levelize and compile a netlist.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::CombinationalCycle`] if the combinational part of
    /// the netlist is cyclic.
    pub fn compile(netlist: Netlist) -> Result<CompiledCircuit, SimError> {
        let num_nets = netlist.num_nets();
        let num_cells = netlist.num_cells();

        // Kahn's algorithm over combinational cells. A cell depends on
        // another cell iff one of its inputs is driven by a *combinational*
        // cell (flip-flop outputs and primary inputs are sequential
        // boundaries, i.e. sources).
        let mut indegree = vec![0u32; num_cells];
        let mut comb_count = 0usize;
        for (id, cell) in netlist.cells() {
            if cell.kind().is_sequential() {
                continue;
            }
            comb_count += 1;
            for &input in cell.inputs() {
                if let Some(driver) = netlist.driver(input) {
                    if !netlist.cell(driver).kind().is_sequential() {
                        indegree[id.index()] += 1;
                    }
                }
            }
        }

        let mut queue: Vec<usize> = Vec::with_capacity(comb_count);
        for (id, cell) in netlist.cells() {
            if !cell.kind().is_sequential() && indegree[id.index()] == 0 {
                queue.push(id.index());
            }
        }

        let mut ops = Vec::with_capacity(comb_count);
        let mut net_driver = vec![NO_DRIVER; num_nets];
        let mut head = 0usize;
        while head < queue.len() {
            let cell_idx = queue[head];
            head += 1;
            let cell = netlist.cell(ffr_netlist::CellId::from_index(cell_idx));
            let ins = cell.inputs();
            let get = |i: usize| ins.get(i).map(|n| n.index() as u32).unwrap_or(0);
            net_driver[cell.output().index()] = ops.len() as u32;
            ops.push(Op {
                kind: cell.kind(),
                a: get(0),
                b: get(1),
                c: get(2),
                out: cell.output().index() as u32,
            });
            // Release readers.
            for &reader in netlist.readers(cell.output()) {
                let rc = netlist.cell(reader);
                if !rc.kind().is_sequential() {
                    let r = reader.index();
                    indegree[r] -= 1;
                    if indegree[r] == 0 {
                        queue.push(r);
                    }
                }
            }
        }

        if ops.len() != comb_count {
            let mut cyclic: Vec<String> = netlist
                .cells()
                .filter(|(id, c)| !c.kind().is_sequential() && indegree[id.index()] > 0)
                .map(|(_, c)| c.name().to_string())
                .take(8)
                .collect();
            if cyclic.is_empty() {
                cyclic.push("<unknown>".to_string());
            }
            return Err(SimError::CombinationalCycle { cells: cyclic });
        }

        let pi_nets = netlist
            .primary_inputs()
            .iter()
            .map(|n| n.index() as u32)
            .collect();
        let po_nets = netlist
            .primary_outputs()
            .iter()
            .map(|(_, n)| n.index() as u32)
            .collect();
        let mut ff_q = Vec::with_capacity(netlist.num_ffs());
        let mut ff_d = Vec::with_capacity(netlist.num_ffs());
        let mut ff_init = Vec::with_capacity(netlist.num_ffs());
        for (ff, _) in netlist.ffs() {
            ff_q.push(netlist.ff_q_net(ff).index() as u32);
            ff_d.push(netlist.ff_d_net(ff).index() as u32);
            ff_init.push(netlist.ff_init(ff));
        }

        Ok(CompiledCircuit {
            netlist,
            ops,
            num_nets,
            pi_nets,
            po_nets,
            ff_q,
            ff_d,
            ff_init,
            net_driver,
        })
    }

    /// Index in the op list of the op driving `net`, or `None` for source
    /// nets — where a forced evaluation applies its XOR mask.
    pub(crate) fn driver_op(&self, net: u32) -> Option<u32> {
        match self.net_driver[net as usize] {
            NO_DRIVER => None,
            op => Some(op),
        }
    }

    /// Compile the fan-out cone of a flip-flop's stored value (the SEU
    /// injection target). The flip-flop itself is always part of the
    /// cone, so its Q net is restored to golden by the cone tick even
    /// when the upset does not feed back into its own D input.
    pub fn ff_cone(&self, ff: FfId) -> Cone {
        self.build_cone(self.ff_q[ff.index()], Some(ff.index()))
    }

    /// Compile the fan-out cone of an arbitrary net (the SET injection
    /// target). Gate outputs seed their driving op into the cone (the op
    /// whose evaluation is XOR-forced); source nets (primary inputs,
    /// flip-flop Q nets) become boundary nets whose golden value the
    /// forced evaluation flips in place.
    pub fn net_cone(&self, net: NetId) -> Cone {
        self.build_cone(net.index() as u32, None)
    }

    /// Fixpoint closure of the fan-out reachability from `root`: an op
    /// joins the cone when it reads a reachable net (its output becomes
    /// reachable), a flip-flop joins when its D net is reachable (its Q
    /// net becomes reachable). The engine reads flip-flops only through
    /// their D nets ([`SimState::tick`](crate::SimState::tick)), so
    /// D-net reachability is exactly the sequential propagation edge.
    fn build_cone(&self, root: u32, seed_ff: Option<usize>) -> Cone {
        let nl = &self.netlist;
        let num_ffs = self.ff_q.len();
        let mut reached = vec![false; self.num_nets];
        let mut op_in = vec![false; self.ops.len()];
        let mut ff_in = vec![false; num_ffs];

        // Flip-flops indexed by D net, for the sequential closure step.
        let mut d_pairs: Vec<(u32, u32)> = self
            .ff_d
            .iter()
            .enumerate()
            .map(|(i, &d)| (d, i as u32))
            .collect();
        d_pairs.sort_unstable();

        let seed_op = self.driver_op(root);
        if let Some(op) = seed_op {
            op_in[op as usize] = true;
        }
        if let Some(ff) = seed_ff {
            ff_in[ff] = true;
        }
        let mut stack = vec![root];
        reached[root as usize] = true;
        while let Some(n) = stack.pop() {
            for &reader in nl.readers(NetId::from_index(n as usize)) {
                let cell = nl.cell(reader);
                if cell.kind().is_sequential() {
                    continue; // handled through d_pairs below
                }
                let out = cell.output().index();
                let op = self.net_driver[out] as usize;
                if !op_in[op] {
                    op_in[op] = true;
                    if !reached[out] {
                        reached[out] = true;
                        stack.push(out as u32);
                    }
                }
            }
            let from = d_pairs.partition_point(|&(d, _)| d < n);
            for &(d, ff) in &d_pairs[from..] {
                if d != n {
                    break;
                }
                if !ff_in[ff as usize] {
                    ff_in[ff as usize] = true;
                    let q = self.ff_q[ff as usize];
                    if !reached[q as usize] {
                        reached[q as usize] = true;
                        stack.push(q);
                    }
                }
            }
        }

        // Collect cone ops in global topological order; remember where
        // the forced op landed.
        let mut ops = Vec::new();
        let mut forced_split = None;
        for (i, op) in self.ops.iter().enumerate() {
            if op_in[i] {
                if seed_op == Some(i as u32) {
                    forced_split = Some(ops.len() as u32);
                }
                ops.push(*op);
            }
        }
        let mut ffs = Vec::new();
        let mut ff_q = Vec::new();
        let mut ff_d = Vec::new();
        for (i, &inside) in ff_in.iter().enumerate() {
            if inside {
                ffs.push(i as u32);
                ff_q.push(self.ff_q[i]);
                ff_d.push(self.ff_d[i]);
            }
        }

        let words = self.num_nets.div_ceil(64);
        let mut touched = vec![0u64; words];
        let mut produced = vec![0u64; words];
        let set = |bits: &mut [u64], n: u32| bits[(n / 64) as usize] |= 1u64 << (n % 64);
        set(&mut touched, root);
        for op in &ops {
            set(&mut touched, op.out);
            set(&mut produced, op.out);
        }
        for &q in &ff_q {
            set(&mut touched, q);
            set(&mut produced, q);
        }

        // Boundary: every net the cone reads (op operands, cone FF D
        // nets, and a source root) that the cone does not itself produce.
        let mut boundary = Vec::new();
        let mut in_boundary = vec![false; self.num_nets];
        let need = |n: u32, boundary: &mut Vec<u32>, in_boundary: &mut [bool]| {
            let produced_bit = (produced[(n / 64) as usize] >> (n % 64)) & 1;
            if produced_bit == 0 && !in_boundary[n as usize] {
                in_boundary[n as usize] = true;
                boundary.push(n);
            }
        };
        for op in &ops {
            need(op.a, &mut boundary, &mut in_boundary);
            need(op.b, &mut boundary, &mut in_boundary);
            need(op.c, &mut boundary, &mut in_boundary);
        }
        for &d in &ff_d {
            need(d, &mut boundary, &mut in_boundary);
        }
        need(root, &mut boundary, &mut in_boundary);
        boundary.sort_unstable();

        // Frontier fan-out adjacency: which cone ops read net `n`, and
        // which cone flip-flops latch it, keyed only for nets that can
        // ever diverge from golden (`touched`) — untouched nets never
        // raise an event. Two CSR passes: count, prefix-sum, fill.
        let is_touched = |n: u32| (touched[(n / 64) as usize] >> (n % 64)) & 1 == 1;
        let mut reader_off = vec![0u32; self.num_nets + 1];
        let mut latch_off = vec![0u32; self.num_nets + 1];
        for op in &ops {
            for n in [op.a, op.b, op.c] {
                if is_touched(n) {
                    reader_off[n as usize + 1] += 1;
                }
            }
        }
        for &d in &ff_d {
            if is_touched(d) {
                latch_off[d as usize + 1] += 1;
            }
        }
        for i in 0..self.num_nets {
            reader_off[i + 1] += reader_off[i];
            latch_off[i + 1] += latch_off[i];
        }
        let mut reader_ops = vec![0u32; reader_off[self.num_nets] as usize];
        let mut latch_ffs = vec![0u32; latch_off[self.num_nets] as usize];
        let mut reader_cursor = reader_off.clone();
        let mut latch_cursor = latch_off.clone();
        for (j, op) in ops.iter().enumerate() {
            for n in [op.a, op.b, op.c] {
                if is_touched(n) {
                    let slot = reader_cursor[n as usize] as usize;
                    reader_ops[slot] = j as u32;
                    reader_cursor[n as usize] += 1;
                }
            }
        }
        for (k, &d) in ff_d.iter().enumerate() {
            if is_touched(d) {
                let slot = latch_cursor[d as usize] as usize;
                latch_ffs[slot] = k as u32;
                latch_cursor[d as usize] += 1;
            }
        }

        Cone {
            ops,
            forced_split,
            root,
            ffs,
            ff_q,
            ff_d,
            boundary,
            touched,
            reader_off,
            reader_ops,
            latch_off,
            latch_ffs,
        }
    }

    /// The net behind primary output `po_index` (the index space of
    /// [`WatchList`](crate::WatchList) entries).
    pub fn output_net(&self, po_index: usize) -> NetId {
        NetId::from_index(self.po_nets[po_index] as usize)
    }

    /// Every net driven by a combinational op, ascending by net index —
    /// the canonical SET-campaign target list.
    pub fn comb_output_nets(&self) -> Vec<NetId> {
        let mut nets: Vec<NetId> = self
            .ops
            .iter()
            .map(|op| NetId::from_index(op.out as usize))
            .collect();
        nets.sort_unstable_by_key(|n| n.index());
        nets
    }

    /// The netlist this circuit was compiled from.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// Number of flip-flops.
    pub fn num_ffs(&self) -> usize {
        self.ff_q.len()
    }

    /// Number of primary inputs.
    pub fn num_inputs(&self) -> usize {
        self.pi_nets.len()
    }

    /// Number of primary outputs.
    pub fn num_outputs(&self) -> usize {
        self.po_nets.len()
    }

    /// Number of compiled combinational operations.
    pub fn num_ops(&self) -> usize {
        self.ops.len()
    }

    /// Number of `u64` words needed to store one packed bit per flip-flop.
    pub(crate) fn ff_words(&self) -> usize {
        self.num_ffs().div_ceil(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ffr_netlist::NetlistBuilder;

    #[test]
    fn compiles_counter() {
        let mut b = NetlistBuilder::new("c");
        let en = b.input("en", 1);
        let r = b.reg("count", 4);
        let next = b.inc(&r.q());
        b.connect_en(&r, &en, &next).unwrap();
        b.output("value", &r.q());
        let n = b.finish().unwrap();
        let cc = CompiledCircuit::compile(n).unwrap();
        assert_eq!(cc.num_ffs(), 4);
        assert_eq!(cc.num_inputs(), 1);
        assert_eq!(cc.num_outputs(), 4);
        assert!(cc.num_ops() > 0);
        assert_eq!(cc.ff_words(), 1);
    }

    #[test]
    fn detects_combinational_cycle() {
        // Hand-build a cyclic netlist via the Verilog parser (the builder
        // cannot express one because gates are created in SSA order).
        let src = "module m (a, o);\n  input a;\n  wire x;\n  wire y;\n  output o;\n  \
                   AND2_X1 u1 (.A1(a), .A2(y), .ZN(x));\n  \
                   OR2_X1 u2 (.A1(x), .A2(a), .ZN(y));\n  \
                   BUF_X1 u3 (.A(x), .Z(o));\nendmodule\n";
        let n = ffr_netlist::verilog::parse(src).unwrap();
        let err = CompiledCircuit::compile(n).unwrap_err();
        match err {
            SimError::CombinationalCycle { cells } => {
                assert!(!cells.is_empty());
            }
        }
        // Display is informative.
        let src_ok =
            "module m (a, o);\n  input a;\n  output o;\n  BUF_X1 u (.A(a), .Z(o));\nendmodule\n";
        let n2 = ffr_netlist::verilog::parse(src_ok).unwrap();
        assert!(CompiledCircuit::compile(n2).is_ok());
    }

    #[test]
    fn cone_of_live_ff_covers_feedback_and_excludes_independent_logic() {
        // Two independent counters: the cone of a FF in one must not
        // contain any op or FF of the other.
        let mut b = NetlistBuilder::new("cones");
        let en = b.input("en", 1);
        let r1 = b.reg("a", 4);
        let n1 = b.inc(&r1.q());
        b.connect_en(&r1, &en, &n1).unwrap();
        b.output("va", &r1.q());
        let r2 = b.reg("b", 4);
        let n2 = b.inc(&r2.q());
        b.connect_en(&r2, &en, &n2).unwrap();
        b.output("vb", &r2.q());
        let cc = CompiledCircuit::compile(b.finish().unwrap()).unwrap();

        let nl = cc.netlist();
        let a0 = nl
            .ffs()
            .map(|(ff, _)| ff)
            .find(|&ff| nl.ff_name(ff).starts_with('a'))
            .unwrap();
        let cone = cc.ff_cone(a0);
        // Feedback: the upset FF is in its own cone.
        assert!(cone.ffs.contains(&(a0.index() as u32)));
        // No FF of the other counter leaks in.
        for &ff in &cone.ffs {
            let name = nl.ff_name(FfId::from_index(ff as usize));
            assert!(name.starts_with('a'), "foreign FF {name} in cone");
        }
        // The cone is a proper subset of the circuit.
        assert!(cone.num_ops() > 0 && cone.num_ops() < cc.num_ops());
        assert!(cone.num_ffs() <= 4);
        // Source root (Q net) has no forced op.
        assert!(cone.forced_split.is_none());
        assert_eq!(cone.root(), nl.ff_q_net(a0));
        // Watched outputs of counter `b` cannot differ.
        let va_differs = (0..4).any(|i| cone.may_differ(cc.output_net(i)));
        let vb_differs = (4..8).any(|i| cone.may_differ(cc.output_net(i)));
        assert!(va_differs && !vb_differs);
    }

    #[test]
    fn net_cone_of_gate_output_carries_forced_split() {
        let mut b = NetlistBuilder::new("g");
        let en = b.input("en", 1);
        let r = b.reg("count", 4);
        let next = b.inc(&r.q());
        b.connect_en(&r, &en, &next).unwrap();
        b.output("value", &r.q());
        let cc = CompiledCircuit::compile(b.finish().unwrap()).unwrap();

        for &net in &cc.comb_output_nets() {
            let cone = cc.net_cone(net);
            let split = cone.forced_split.expect("gate output has a driver") as usize;
            // The forced op is the one driving the root.
            assert_eq!(cone.ops[split].out as usize, net.index());
            assert!(cone.may_differ(net));
            // Boundary nets are never produced by the cone.
            for &bn in &cone.boundary {
                assert!(
                    cone.ops.iter().all(|op| op.out != bn),
                    "boundary net {bn} is a cone op output"
                );
                assert!(!cone.ff_q.contains(&bn));
            }
        }
        // A primary-input root is a source: no split, root in boundary.
        let pi = cc.netlist().primary_inputs()[0];
        let cone = cc.net_cone(pi);
        assert!(cone.forced_split.is_none());
        assert!(cone.boundary.contains(&(pi.index() as u32)));
    }
}
