//! The immutable, validated gate-level netlist and its identifier types.

use crate::cell::{CellKind, DriveStrength};
use crate::error::NetlistError;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Identifier of a net (a single-bit wire) inside a [`Netlist`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NetId(pub(crate) u32);

/// Identifier of a cell instance inside a [`Netlist`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CellId(pub(crate) u32);

/// Identifier of a flip-flop: a dense index over the sequential cells of a
/// [`Netlist`], in declaration order.
///
/// This is the index space that the fault-injection campaign, the feature
/// matrix and the FDR table all share.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FfId(pub(crate) u32);

macro_rules! impl_id {
    ($t:ty) => {
        impl $t {
            /// Dense index of this identifier.
            pub fn index(self) -> usize {
                self.0 as usize
            }

            /// Build an identifier from a dense index.
            ///
            /// # Panics
            ///
            /// Panics if `index` does not fit in `u32`.
            pub fn from_index(index: usize) -> Self {
                Self(u32::try_from(index).expect("id index overflow"))
            }
        }

        impl fmt::Display for $t {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }
    };
}

impl_id!(NetId);
impl_id!(CellId);
impl_id!(FfId);

/// A single-bit wire.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Net {
    pub(crate) name: String,
}

impl Net {
    /// Name of the net (auto-generated `n<k>` if never named explicitly).
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// A standard-cell instance.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Cell {
    pub(crate) name: String,
    pub(crate) kind: CellKind,
    pub(crate) drive: DriveStrength,
    pub(crate) inputs: Vec<NetId>,
    pub(crate) output: NetId,
}

impl Cell {
    /// Instance name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Library cell kind.
    pub fn kind(&self) -> CellKind {
        self.kind
    }

    /// Drive strength chosen for the instance.
    pub fn drive(&self) -> DriveStrength {
        self.drive
    }

    /// Input nets, in pin order (see `CellKind::input_pin_names`).
    pub fn inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Output net.
    pub fn output(&self) -> NetId {
        self.output
    }
}

/// A register bus: an ordered group of flip-flops that the RTL declared as a
/// single multi-bit register (e.g. `tx_fifo_rdptr[4:0]`).
///
/// Index 0 is the least-significant bit. The paper's *Part of Bus*, *Bus
/// Position* and *Bus Length* features are derived from this table.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BusInfo {
    pub(crate) name: String,
    pub(crate) ffs: Vec<FfId>,
}

impl BusInfo {
    /// Declared register name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Member flip-flops, LSB first.
    pub fn ffs(&self) -> &[FfId] {
        &self.ffs
    }

    /// Number of bits in the bus.
    pub fn len(&self) -> usize {
        self.ffs.len()
    }

    /// `true` if the bus has no bits (never produced by the builder).
    pub fn is_empty(&self) -> bool {
        self.ffs.is_empty()
    }
}

/// An immutable, validated gate-level netlist.
///
/// Create one with [`NetlistBuilder`](crate::NetlistBuilder) or by parsing
/// structural Verilog with [`verilog::parse`](crate::verilog::parse).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Netlist {
    pub(crate) name: String,
    pub(crate) nets: Vec<Net>,
    pub(crate) cells: Vec<Cell>,
    pub(crate) inputs: Vec<NetId>,
    pub(crate) outputs: Vec<(String, NetId)>,
    pub(crate) ffs: Vec<CellId>,
    pub(crate) ff_init: Vec<bool>,
    pub(crate) buses: Vec<BusInfo>,
    pub(crate) driver: Vec<Option<CellId>>,
    pub(crate) readers: Vec<Vec<CellId>>,
}

impl Netlist {
    /// Module name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of nets.
    pub fn num_nets(&self) -> usize {
        self.nets.len()
    }

    /// Number of cell instances (combinational + sequential).
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Number of flip-flops.
    pub fn num_ffs(&self) -> usize {
        self.ffs.len()
    }

    /// Net accessor.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn net(&self, id: NetId) -> &Net {
        &self.nets[id.index()]
    }

    /// Cell accessor.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn cell(&self, id: CellId) -> &Cell {
        &self.cells[id.index()]
    }

    /// Iterate over all cells with their ids.
    pub fn cells(&self) -> impl Iterator<Item = (CellId, &Cell)> {
        self.cells
            .iter()
            .enumerate()
            .map(|(i, c)| (CellId::from_index(i), c))
    }

    /// Iterate over all nets with their ids.
    pub fn nets(&self) -> impl Iterator<Item = (NetId, &Net)> {
        self.nets
            .iter()
            .enumerate()
            .map(|(i, n)| (NetId::from_index(i), n))
    }

    /// Primary inputs, in declaration order.
    pub fn primary_inputs(&self) -> &[NetId] {
        &self.inputs
    }

    /// Primary outputs as `(port name, net)` pairs, in declaration order.
    pub fn primary_outputs(&self) -> &[(String, NetId)] {
        &self.outputs
    }

    /// Index of the primary input with the given net name, if any.
    pub fn input_index(&self, name: &str) -> Option<usize> {
        self.inputs
            .iter()
            .position(|&n| self.nets[n.index()].name == name)
    }

    /// Index of the primary output with the given port name, if any.
    pub fn output_index(&self, name: &str) -> Option<usize> {
        self.outputs.iter().position(|(p, _)| p == name)
    }

    /// Iterate over flip-flops as `(ff id, cell id)` pairs.
    pub fn ffs(&self) -> impl Iterator<Item = (FfId, CellId)> + '_ {
        self.ffs
            .iter()
            .enumerate()
            .map(|(i, &c)| (FfId::from_index(i), c))
    }

    /// The cell implementing a flip-flop.
    pub fn ff_cell(&self, ff: FfId) -> &Cell {
        &self.cells[self.ffs[ff.index()].index()]
    }

    /// `FfId` of a sequential cell, if the cell is a flip-flop.
    pub fn ff_of_cell(&self, cell: CellId) -> Option<FfId> {
        // ffs is sorted by construction (cells are appended in order).
        self.ffs.binary_search(&cell).ok().map(FfId::from_index)
    }

    /// Data-input net of a flip-flop.
    pub fn ff_d_net(&self, ff: FfId) -> NetId {
        self.ff_cell(ff).inputs[0]
    }

    /// Output (Q) net of a flip-flop.
    pub fn ff_q_net(&self, ff: FfId) -> NetId {
        self.ff_cell(ff).output
    }

    /// Instance name of a flip-flop.
    pub fn ff_name(&self, ff: FfId) -> &str {
        &self.ff_cell(ff).name
    }

    /// Power-on value of a flip-flop.
    pub fn ff_init(&self, ff: FfId) -> bool {
        self.ff_init[ff.index()]
    }

    /// Register buses declared by the RTL.
    pub fn buses(&self) -> &[BusInfo] {
        &self.buses
    }

    /// Bus membership of a flip-flop: `(bus index, position within bus)`.
    pub fn bus_of_ff(&self, ff: FfId) -> Option<(usize, usize)> {
        // Buses are small and few; a linear scan keeps the data structure
        // simple. Heavy consumers should build their own map once.
        for (bi, bus) in self.buses.iter().enumerate() {
            if let Some(pos) = bus.ffs.iter().position(|&f| f == ff) {
                return Some((bi, pos));
            }
        }
        None
    }

    /// The cell driving a net (`None` for primary inputs).
    pub fn driver(&self, net: NetId) -> Option<CellId> {
        self.driver[net.index()]
    }

    /// Cells reading a net.
    pub fn readers(&self, net: NetId) -> &[CellId] {
        &self.readers[net.index()]
    }

    /// `true` if the net is a primary input.
    pub(crate) fn is_primary_input(&self, net: NetId) -> bool {
        self.driver[net.index()].is_none()
    }

    /// A stable structural hash of the netlist (FNV-1a over a canonical
    /// walk of cells, connectivity, flip-flops, ports and bus metadata).
    ///
    /// Nets are identified by *name* (names are unique), never by their
    /// internal numbering, so the hash is invariant under net renumbering
    /// and therefore preserved by a lossless round trip (e.g. through
    /// [`crate::verilog`], whose parser re-interns nets in a different
    /// order). Anything else — names, cell order, port order, init
    /// values, bus membership — is hashed exactly, making this a cheap
    /// fingerprint for corpus catalogs and artifact keys.
    pub fn content_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(PRIME);
            }
            // Length-prefix-free framing: a sentinel byte between fields.
            h ^= 0xff;
            h = h.wrapping_mul(PRIME);
        };
        let net_name = |id: NetId| self.nets[id.index()].name.as_bytes();
        eat(self.name.as_bytes());
        // The net-name *set*, order-independently: sorted.
        let mut names: Vec<&str> = self.nets.iter().map(|n| n.name.as_str()).collect();
        names.sort_unstable();
        for name in names {
            eat(name.as_bytes());
        }
        for cell in &self.cells {
            eat(cell.name.as_bytes());
            eat(cell.kind.library_name().as_bytes());
            eat(&[cell.drive as u8]);
            for &input in &cell.inputs {
                eat(net_name(input));
            }
            eat(net_name(cell.output));
        }
        for &input in &self.inputs {
            eat(net_name(input));
        }
        for (name, net) in &self.outputs {
            eat(name.as_bytes());
            eat(net_name(*net));
        }
        for &ff in &self.ffs {
            eat(self.cells[ff.index()].name.as_bytes());
        }
        for &init in &self.ff_init {
            eat(&[u8::from(init)]);
        }
        for bus in &self.buses {
            eat(bus.name.as_bytes());
            for &ff in &bus.ffs {
                eat(self.cells[self.ffs[ff.index()].index()].name.as_bytes());
            }
        }
        h
    }

    /// Find a flip-flop by instance name.
    pub fn find_ff(&self, name: &str) -> Option<FfId> {
        self.ffs()
            .find(|&(_, c)| self.cells[c.index()].name == name)
            .map(|(f, _)| f)
    }

    /// Check the structural invariants of the netlist.
    ///
    /// # Errors
    ///
    /// Returns an error if a net is undriven (and not a primary input), has
    /// multiple drivers, or if names collide. Combinational-cycle detection
    /// is performed by the simulator's compiler, which needs the topological
    /// order anyway.
    pub fn validate(&self) -> Result<(), NetlistError> {
        let mut driven = vec![false; self.nets.len()];
        for &pi in &self.inputs {
            driven[pi.index()] = true;
        }
        for cell in &self.cells {
            let o = cell.output.index();
            if driven[o] {
                return Err(NetlistError::MultipleDrivers {
                    net: self.nets[o].name.clone(),
                });
            }
            driven[o] = true;
        }
        for (i, d) in driven.iter().enumerate() {
            if !d {
                return Err(NetlistError::UndrivenNet {
                    net: self.nets[i].name.clone(),
                });
            }
        }
        let mut names: HashMap<&str, ()> = HashMap::with_capacity(self.cells.len());
        for cell in &self.cells {
            if names.insert(&cell.name, ()).is_some() {
                return Err(NetlistError::DuplicateName {
                    name: cell.name.clone(),
                });
            }
        }
        Ok(())
    }

    /// Total flip-flop count per declared bus, plus the number of
    /// single-bit (non-bus) flip-flops. Convenience for reporting.
    pub(crate) fn bus_summary(&self) -> (usize, usize) {
        let in_buses: usize = self.buses.iter().map(|b| b.ffs.len()).sum();
        (self.buses.len(), self.num_ffs() - in_buses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    fn tiny() -> Netlist {
        let mut b = NetlistBuilder::new("tiny");
        let a = b.input("a", 1);
        let x = b.input("x", 1);
        let r = b.reg("r", 1);
        let d = b.and(&a, &x);
        let d2 = b.xor(&d, &r.q());
        b.connect(&r, &d2).unwrap();
        b.output("o", &r.q());
        b.finish().unwrap()
    }

    #[test]
    fn ids_round_trip() {
        assert_eq!(NetId::from_index(42).index(), 42);
        assert_eq!(CellId::from_index(7).index(), 7);
        assert_eq!(FfId::from_index(0).index(), 0);
        assert_eq!(format!("{}", NetId::from_index(3)), "3");
    }

    #[test]
    fn tiny_netlist_shape() {
        let n = tiny();
        assert_eq!(n.num_ffs(), 1);
        assert_eq!(n.primary_inputs().len(), 2);
        assert_eq!(n.primary_outputs().len(), 1);
        assert!(n.validate().is_ok());
        let ff = FfId::from_index(0);
        assert_eq!(n.ff_name(ff), "r_reg[0]");
        assert!(!n.ff_init(ff));
        // The register q net is read by the xor and the output buffer; the
        // buffer's own output is the port net.
        let q = n.ff_q_net(ff);
        assert_eq!(n.readers(q).len(), 2);
        let (_, port_net) = &n.primary_outputs()[0];
        assert_ne!(q, *port_net);
        assert!(n.readers(*port_net).is_empty());
    }

    #[test]
    fn find_helpers() {
        let n = tiny();
        assert!(n.find_ff("r_reg[0]").is_some());
        assert_eq!(n.input_index("x"), Some(1));
        assert_eq!(n.output_index("o"), Some(0));
        assert_eq!(n.output_index("nope"), None);
    }

    #[test]
    fn ff_of_cell_is_inverse_of_ffs() {
        let n = tiny();
        for (ff, cell) in n.ffs() {
            assert_eq!(n.ff_of_cell(cell), Some(ff));
        }
        // A combinational cell is not a flip-flop.
        for (id, c) in n.cells() {
            if !c.kind().is_sequential() {
                assert_eq!(n.ff_of_cell(id), None);
            }
        }
    }

    #[test]
    fn bus_of_ff_reports_membership() {
        let mut b = NetlistBuilder::new("bus");
        let a = b.input("a", 4);
        let r = b.reg("word", 4);
        b.connect(&r, &a).unwrap();
        b.output("o", &r.q());
        let n = b.finish().unwrap();
        assert_eq!(n.buses().len(), 1);
        assert_eq!(n.buses()[0].name(), "word");
        assert_eq!(n.buses()[0].len(), 4);
        assert!(!n.buses()[0].is_empty());
        for pos in 0..4 {
            let ff = n.buses()[0].ffs()[pos];
            assert_eq!(n.bus_of_ff(ff), Some((0, pos)));
        }
        let (nbuses, singles) = n.bus_summary();
        assert_eq!(nbuses, 1);
        assert_eq!(singles, 0);
    }
}
