//! RTL-style netlist construction.
//!
//! [`NetlistBuilder`] plays the role of the synthesis front-end in this
//! workspace: circuits are described with word-level operators (bitwise
//! logic, muxes, adders, comparators, registers with enable / synchronous
//! reset) and everything is lowered on the fly to the standard-cell
//! vocabulary of [`CellKind`].

use crate::bus::Bus;
use crate::cell::{CellKind, DriveStrength};
use crate::error::NetlistError;
use crate::netlist::{BusInfo, Cell, CellId, FfId, Net, NetId, Netlist};
use std::collections::HashSet;

/// Handle to a register declared with [`NetlistBuilder::reg`].
///
/// The register's output ([`RegHandle::q`]) can be used immediately —
/// including in the logic that computes its own next value — and the data
/// input is attached later with one of the `connect*` methods. This two-phase
/// protocol is what makes feedback (state machines, counters) expressible.
#[derive(Clone, Debug)]
pub struct RegHandle {
    pub(crate) index: usize,
    pub(crate) q: Bus,
}

impl RegHandle {
    /// The register's output bus (Q pins of its flip-flops).
    pub fn q(&self) -> Bus {
        self.q.clone()
    }

    /// Width of the register in bits.
    pub fn width(&self) -> usize {
        self.q.width()
    }
}

struct RegInfo {
    name: String,
    q: Bus,
    d: Option<Bus>,
    init: u64,
}

/// Incremental builder producing a validated [`Netlist`].
///
/// See the [crate-level documentation](crate) for a usage example.
///
/// # Panics
///
/// Builder combinators panic on *programming errors* (width mismatches,
/// duplicate port names, out-of-range literals). Errors that depend on the
/// overall construction sequence (double-connecting or forgetting a
/// register) are reported as [`NetlistError`] by [`NetlistBuilder::connect`]
/// and [`NetlistBuilder::finish`].
pub struct NetlistBuilder {
    name: String,
    nets: Vec<Net>,
    cells: Vec<Cell>,
    inputs: Vec<NetId>,
    outputs: Vec<(String, NetId)>,
    regs: Vec<RegInfo>,
    port_names: HashSet<String>,
    const0: Option<NetId>,
    const1: Option<NetId>,
}

impl NetlistBuilder {
    /// Start building a netlist for a module called `name`.
    pub fn new(name: impl Into<String>) -> NetlistBuilder {
        NetlistBuilder {
            name: name.into(),
            nets: Vec::new(),
            cells: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            regs: Vec::new(),
            port_names: HashSet::new(),
            const0: None,
            const1: None,
        }
    }

    fn new_net(&mut self, name: Option<String>) -> NetId {
        let id = NetId::from_index(self.nets.len());
        let name = name.unwrap_or_else(|| format!("n{}", id.index()));
        self.nets.push(Net { name });
        id
    }

    fn new_cell(&mut self, kind: CellKind, inputs: Vec<NetId>, out_name: Option<String>) -> NetId {
        debug_assert_eq!(inputs.len(), kind.num_inputs());
        let out = self.new_net(out_name);
        let name = format!("U{}", self.cells.len());
        self.cells.push(Cell {
            name,
            kind,
            drive: DriveStrength::X1,
            inputs,
            output: out,
        });
        out
    }

    /// The module name this builder was created with.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of cells created so far (before flip-flop materialisation).
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    // ------------------------------------------------------------------
    // Ports and constants
    // ------------------------------------------------------------------

    /// Declare a primary input of the given width.
    ///
    /// # Panics
    ///
    /// Panics if the name was already used for a port or `width == 0`.
    pub fn input(&mut self, name: &str, width: usize) -> Bus {
        assert!(width > 0, "input `{name}` must have width > 0");
        assert!(
            self.port_names.insert(name.to_string()),
            "duplicate port name `{name}`"
        );
        let nets: Vec<NetId> = (0..width)
            .map(|i| {
                let bit_name = if width == 1 {
                    name.to_string()
                } else {
                    format!("{name}[{i}]")
                };
                let id = self.new_net(Some(bit_name));
                self.inputs.push(id);
                id
            })
            .collect();
        Bus::from_nets(nets)
    }

    /// Declare a primary output port driven by `bus`.
    ///
    /// An output buffer is inserted per bit (as synthesis tools do), so the
    /// port is a dedicated net named after the port.
    ///
    /// # Panics
    ///
    /// Panics if the name was already used for a port.
    pub fn output(&mut self, name: &str, bus: &Bus) {
        assert!(
            self.port_names.insert(name.to_string()),
            "duplicate port name `{name}`"
        );
        for (i, &net) in bus.nets().iter().enumerate() {
            let bit_name = if bus.width() == 1 {
                name.to_string()
            } else {
                format!("{name}[{i}]")
            };
            let out = self.new_cell(CellKind::Buf, vec![net], Some(bit_name.clone()));
            self.outputs.push((bit_name, out));
        }
    }

    fn const0_net(&mut self) -> NetId {
        if let Some(n) = self.const0 {
            return n;
        }
        let n = self.new_cell(CellKind::Const0, vec![], Some("const0".into()));
        self.const0 = Some(n);
        n
    }

    fn const1_net(&mut self) -> NetId {
        if let Some(n) = self.const1 {
            return n;
        }
        let n = self.new_cell(CellKind::Const1, vec![], Some("const1".into()));
        self.const1 = Some(n);
        n
    }

    /// A `width`-bit constant bus holding `value` (LSB first).
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64, or if `value` does not fit.
    pub fn lit(&mut self, width: usize, value: u64) -> Bus {
        assert!(
            width > 0 && width <= 64,
            "literal width {width} out of range"
        );
        if width < 64 {
            assert!(
                value < (1u64 << width),
                "literal value {value} does not fit in {width} bits"
            );
        }
        let nets: Vec<NetId> = (0..width)
            .map(|i| {
                if (value >> i) & 1 == 1 {
                    self.const1_net()
                } else {
                    self.const0_net()
                }
            })
            .collect();
        Bus::from_nets(nets)
    }

    /// A single-bit constant 0.
    pub fn zero_bit(&mut self) -> Bus {
        Bus::single(self.const0_net())
    }

    /// A single-bit constant 1.
    pub fn one_bit(&mut self) -> Bus {
        Bus::single(self.const1_net())
    }

    // ------------------------------------------------------------------
    // Gate-level primitives
    // ------------------------------------------------------------------

    /// Instantiate a single gate and return its output net.
    ///
    /// # Panics
    ///
    /// Panics if the number of inputs does not match the cell kind, or if
    /// a sequential kind is requested (use [`NetlistBuilder::reg`]).
    pub fn gate(&mut self, kind: CellKind, inputs: &[NetId]) -> NetId {
        assert!(!kind.is_sequential(), "use reg() to create flip-flops");
        assert_eq!(
            inputs.len(),
            kind.num_inputs(),
            "{kind} expects {} inputs",
            kind.num_inputs()
        );
        self.new_cell(kind, inputs.to_vec(), None)
    }

    fn zip_gate(&mut self, kind: CellKind, a: &Bus, b: &Bus, op: &str) -> Bus {
        assert_eq!(
            a.width(),
            b.width(),
            "width mismatch in {op}: {} vs {}",
            a.width(),
            b.width()
        );
        let nets: Vec<NetId> = a
            .nets()
            .iter()
            .zip(b.nets())
            .map(|(&x, &y)| self.gate(kind, &[x, y]))
            .collect();
        Bus::from_nets(nets)
    }

    /// Bitwise AND.
    pub fn and(&mut self, a: &Bus, b: &Bus) -> Bus {
        self.zip_gate(CellKind::And2, a, b, "and")
    }

    /// Bitwise NAND.
    pub fn nand(&mut self, a: &Bus, b: &Bus) -> Bus {
        self.zip_gate(CellKind::Nand2, a, b, "nand")
    }

    /// Bitwise OR.
    pub fn or(&mut self, a: &Bus, b: &Bus) -> Bus {
        self.zip_gate(CellKind::Or2, a, b, "or")
    }

    /// Bitwise NOR.
    pub fn nor(&mut self, a: &Bus, b: &Bus) -> Bus {
        self.zip_gate(CellKind::Nor2, a, b, "nor")
    }

    /// Bitwise XOR.
    pub fn xor(&mut self, a: &Bus, b: &Bus) -> Bus {
        self.zip_gate(CellKind::Xor2, a, b, "xor")
    }

    /// Bitwise XNOR.
    pub fn xnor(&mut self, a: &Bus, b: &Bus) -> Bus {
        self.zip_gate(CellKind::Xnor2, a, b, "xnor")
    }

    /// Bitwise NOT.
    pub fn not(&mut self, a: &Bus) -> Bus {
        let nets: Vec<NetId> = a
            .nets()
            .iter()
            .map(|&x| self.gate(CellKind::Not, &[x]))
            .collect();
        Bus::from_nets(nets)
    }

    /// Buffer every bit (used to model fanout repair; rarely needed directly).
    pub fn buf(&mut self, a: &Bus) -> Bus {
        let nets: Vec<NetId> = a
            .nets()
            .iter()
            .map(|&x| self.gate(CellKind::Buf, &[x]))
            .collect();
        Bus::from_nets(nets)
    }

    /// Per-bit 2:1 multiplexer: returns `a` when `sel = 0`, `b` when `sel = 1`.
    ///
    /// # Panics
    ///
    /// Panics if `sel` is not single-bit or `a`/`b` widths differ.
    pub fn mux(&mut self, sel: &Bus, a: &Bus, b: &Bus) -> Bus {
        assert_eq!(sel.width(), 1, "mux select must be a single bit");
        assert_eq!(
            a.width(),
            b.width(),
            "width mismatch in mux: {} vs {}",
            a.width(),
            b.width()
        );
        let s = sel.net(0);
        let nets: Vec<NetId> = a
            .nets()
            .iter()
            .zip(b.nets())
            .map(|(&x, &y)| self.gate(CellKind::Mux2, &[x, y, s]))
            .collect();
        Bus::from_nets(nets)
    }

    /// Replicate a single-bit bus `width` times.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is not single-bit.
    pub fn repeat(&mut self, bit: &Bus, width: usize) -> Bus {
        assert_eq!(bit.width(), 1, "repeat takes a single-bit bus");
        Bus::from_nets(vec![bit.net(0); width])
    }

    /// Zero-extend `a` to `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width < a.width()`.
    pub fn zext(&mut self, a: &Bus, width: usize) -> Bus {
        assert!(width >= a.width(), "zext target narrower than source");
        if width == a.width() {
            return a.clone();
        }
        let zeros = self.lit(width - a.width(), 0);
        a.concat(&zeros)
    }

    // ------------------------------------------------------------------
    // Reductions, selection and arithmetic
    // ------------------------------------------------------------------

    fn reduce(&mut self, kind: CellKind, a: &Bus) -> Bus {
        let mut layer: Vec<NetId> = a.nets().to_vec();
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            for pair in layer.chunks(2) {
                if pair.len() == 2 {
                    next.push(self.gate(kind, &[pair[0], pair[1]]));
                } else {
                    next.push(pair[0]);
                }
            }
            layer = next;
        }
        Bus::single(layer[0])
    }

    /// AND of all bits.
    pub fn reduce_and(&mut self, a: &Bus) -> Bus {
        self.reduce(CellKind::And2, a)
    }

    /// OR of all bits.
    pub fn reduce_or(&mut self, a: &Bus) -> Bus {
        self.reduce(CellKind::Or2, a)
    }

    /// XOR of all bits (parity).
    pub fn reduce_xor(&mut self, a: &Bus) -> Bus {
        self.reduce(CellKind::Xor2, a)
    }

    /// `sel`-controlled selection among `options` (a binary mux tree).
    ///
    /// Selector values beyond `options.len() - 1` return the last option.
    ///
    /// # Panics
    ///
    /// Panics if `options` is empty, the widths differ, or
    /// `options.len() > 2^sel.width()`.
    pub fn select(&mut self, sel: &Bus, options: &[Bus]) -> Bus {
        assert!(!options.is_empty(), "select needs at least one option");
        let w = options[0].width();
        for o in options {
            assert_eq!(o.width(), w, "select options must share a width");
        }
        assert!(
            options.len() <= 1usize << sel.width(),
            "too many options ({}) for a {}-bit selector",
            options.len(),
            sel.width()
        );
        self.select_rec(sel, options, sel.width())
    }

    fn select_rec(&mut self, sel: &Bus, options: &[Bus], level: usize) -> Bus {
        if options.len() == 1 {
            return options[0].clone();
        }
        let bit = level - 1;
        let half = 1usize << bit;
        if options.len() <= half {
            return self.select_rec(sel, options, bit);
        }
        let low = self.select_rec(sel, &options[..half], bit);
        let high = self.select_rec(sel, &options[half..], bit);
        let s = sel.bit(bit);
        self.mux(&s, &low, &high)
    }

    /// One-hot decode: output bit `i` is 1 iff `sel == i`.
    pub fn decode(&mut self, sel: &Bus) -> Bus {
        let n = 1usize << sel.width();
        let inv: Vec<NetId> = sel
            .nets()
            .iter()
            .map(|&b| self.gate(CellKind::Not, &[b]))
            .collect();
        let nets: Vec<NetId> = (0..n)
            .map(|i| {
                let terms: Vec<NetId> = (0..sel.width())
                    .map(|bit| {
                        if (i >> bit) & 1 == 1 {
                            sel.net(bit)
                        } else {
                            inv[bit]
                        }
                    })
                    .collect();
                self.reduce(CellKind::And2, &Bus::from_nets(terms)).net(0)
            })
            .collect();
        Bus::from_nets(nets)
    }

    /// Ripple-carry addition; returns `(sum, carry_out)`.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    pub fn add(&mut self, a: &Bus, b: &Bus) -> (Bus, Bus) {
        assert_eq!(
            a.width(),
            b.width(),
            "width mismatch in add: {} vs {}",
            a.width(),
            b.width()
        );
        let mut carry = self.const0_net();
        let mut sum = Vec::with_capacity(a.width());
        for (&x, &y) in a.nets().iter().zip(b.nets()) {
            let xy = self.gate(CellKind::Xor2, &[x, y]);
            sum.push(self.gate(CellKind::Xor2, &[xy, carry]));
            let and1 = self.gate(CellKind::And2, &[x, y]);
            let and2 = self.gate(CellKind::And2, &[xy, carry]);
            carry = self.gate(CellKind::Or2, &[and1, and2]);
        }
        (Bus::from_nets(sum), Bus::single(carry))
    }

    /// `a + constant` (mod 2^width).
    pub fn add_const(&mut self, a: &Bus, k: u64) -> Bus {
        let b = self.lit(a.width(), k & mask(a.width()));
        self.add(a, &b).0
    }

    /// Increment by one (mod 2^width).
    pub fn inc(&mut self, a: &Bus) -> Bus {
        // Specialised half-adder chain: cheaper than add(a, 1).
        let mut carry = self.const1_net();
        let mut sum = Vec::with_capacity(a.width());
        for &x in a.nets() {
            sum.push(self.gate(CellKind::Xor2, &[x, carry]));
            carry = self.gate(CellKind::And2, &[x, carry]);
        }
        Bus::from_nets(sum)
    }

    /// Two's-complement subtraction `a - b`; returns `(difference, borrow)`.
    pub fn sub(&mut self, a: &Bus, b: &Bus) -> (Bus, Bus) {
        let nb = self.not(b);
        let one = self.lit(a.width(), 1);
        let (nb1, c0) = self.add(&nb, &one);
        let (diff, c1) = self.add(a, &nb1);
        let carry = self.gate(CellKind::Or2, &[c0.net(0), c1.net(0)]);
        let borrow = self.gate(CellKind::Not, &[carry]);
        (diff, Bus::single(borrow))
    }

    /// Equality comparison; returns a single-bit bus.
    pub fn eq(&mut self, a: &Bus, b: &Bus) -> Bus {
        let x = self.xnor(a, b);
        self.reduce_and(&x)
    }

    /// Equality against a constant; cheaper than [`NetlistBuilder::eq`]
    /// because 0-bits use inverters instead of tie cells.
    pub fn eq_const(&mut self, a: &Bus, value: u64) -> Bus {
        assert!(a.width() <= 64, "eq_const supports up to 64 bits");
        if a.width() < 64 {
            assert!(
                value < (1u64 << a.width()),
                "constant {value} does not fit in {} bits",
                a.width()
            );
        }
        let terms: Vec<NetId> = a
            .nets()
            .iter()
            .enumerate()
            .map(|(i, &n)| {
                if (value >> i) & 1 == 1 {
                    n
                } else {
                    self.gate(CellKind::Not, &[n])
                }
            })
            .collect();
        self.reduce(CellKind::And2, &Bus::from_nets(terms))
    }

    /// Unsigned `a < b`; returns a single-bit bus.
    pub fn lt(&mut self, a: &Bus, b: &Bus) -> Bus {
        let (_, borrow) = self.sub(a, b);
        borrow
    }

    /// Logical shift left by a constant amount (zero fill).
    pub fn shl_const(&mut self, a: &Bus, amount: usize) -> Bus {
        if amount == 0 {
            return a.clone();
        }
        if amount >= a.width() {
            return self.lit(a.width(), 0);
        }
        let zeros = self.lit(amount, 0);
        zeros.concat(&a.slice(0..a.width() - amount))
    }

    // ------------------------------------------------------------------
    // Registers
    // ------------------------------------------------------------------

    /// Declare a `width`-bit register with power-on value 0.
    pub fn reg(&mut self, name: &str, width: usize) -> RegHandle {
        self.reg_init(name, width, 0)
    }

    /// Declare a `width`-bit register with the given power-on value.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64, the register name is
    /// duplicated, or `init` does not fit.
    pub fn reg_init(&mut self, name: &str, width: usize, init: u64) -> RegHandle {
        assert!(
            width > 0 && width <= 64,
            "register width {width} out of range"
        );
        if width < 64 {
            assert!(
                init < (1u64 << width),
                "init value {init} does not fit in {width} bits"
            );
        }
        assert!(
            !self.regs.iter().any(|r| r.name == name),
            "duplicate register name `{name}`"
        );
        let nets: Vec<NetId> = (0..width)
            .map(|i| {
                let bit_name = if width == 1 {
                    format!("{name}_q")
                } else {
                    format!("{name}_q[{i}]")
                };
                self.new_net(Some(bit_name))
            })
            .collect();
        let q = Bus::from_nets(nets);
        let index = self.regs.len();
        self.regs.push(RegInfo {
            name: name.to_string(),
            q: q.clone(),
            d: None,
            init,
        });
        RegHandle { index, q }
    }

    /// Attach the data input of a register.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::RegisterAlreadyConnected`] if called twice for
    /// the same register.
    ///
    /// # Panics
    ///
    /// Panics if `d` has a different width than the register.
    pub fn connect(&mut self, reg: &RegHandle, d: &Bus) -> Result<(), NetlistError> {
        let info = &mut self.regs[reg.index];
        assert_eq!(
            d.width(),
            info.q.width(),
            "register `{}` width {} driven with {} bits",
            info.name,
            info.q.width(),
            d.width()
        );
        if info.d.is_some() {
            return Err(NetlistError::RegisterAlreadyConnected {
                name: info.name.clone(),
            });
        }
        info.d = Some(d.clone());
        Ok(())
    }

    /// Attach the data input with a clock-enable: the register keeps its
    /// value when `en = 0` and loads `d` when `en = 1`.
    ///
    /// # Errors
    ///
    /// Same as [`NetlistBuilder::connect`].
    pub fn connect_en(&mut self, reg: &RegHandle, en: &Bus, d: &Bus) -> Result<(), NetlistError> {
        let gated = self.mux(en, &reg.q(), d);
        self.connect(reg, &gated)
    }

    /// Attach the data input with optional clock-enable and synchronous
    /// reset (reset has priority and loads `reset_value`).
    ///
    /// # Errors
    ///
    /// Same as [`NetlistBuilder::connect`].
    pub fn connect_en_rst(
        &mut self,
        reg: &RegHandle,
        en: Option<&Bus>,
        rst: Option<(&Bus, u64)>,
        d: &Bus,
    ) -> Result<(), NetlistError> {
        let mut next = match en {
            Some(en) => self.mux(en, &reg.q(), d),
            None => d.clone(),
        };
        if let Some((rst, value)) = rst {
            let rv = self.lit(reg.width(), value & mask(reg.width()));
            next = self.mux(rst, &next, &rv);
        }
        self.connect(reg, &next)
    }

    // ------------------------------------------------------------------
    // Finalisation
    // ------------------------------------------------------------------

    /// Materialise flip-flops, assign drive strengths from fanout, build
    /// connectivity indices and validate the result.
    ///
    /// # Errors
    ///
    /// Returns an error if any register was never connected, or validation
    /// fails (undriven nets, duplicate names).
    pub fn finish(mut self) -> Result<Netlist, NetlistError> {
        // Materialise one DFF cell per register bit, in declaration order.
        let mut ffs = Vec::new();
        let mut ff_init = Vec::new();
        let mut buses = Vec::new();
        let regs = std::mem::take(&mut self.regs);
        for info in &regs {
            let d = info
                .d
                .as_ref()
                .ok_or_else(|| NetlistError::RegisterUnconnected {
                    name: info.name.clone(),
                })?;
            let mut members = Vec::with_capacity(info.q.width());
            for i in 0..info.q.width() {
                let cell_id = CellId::from_index(self.cells.len());
                self.cells.push(Cell {
                    name: format!("{}_reg[{i}]", info.name),
                    kind: CellKind::Dff,
                    drive: DriveStrength::X1,
                    inputs: vec![d.net(i)],
                    output: info.q.net(i),
                });
                members.push(FfId::from_index(ffs.len()));
                ffs.push(cell_id);
                ff_init.push((info.init >> i) & 1 == 1);
            }
            if info.q.width() > 1 {
                buses.push(BusInfo {
                    name: info.name.clone(),
                    ffs: members,
                });
            }
        }

        // Connectivity indices.
        let mut driver: Vec<Option<CellId>> = vec![None; self.nets.len()];
        let mut readers: Vec<Vec<CellId>> = vec![Vec::new(); self.nets.len()];
        for (i, cell) in self.cells.iter().enumerate() {
            let id = CellId::from_index(i);
            driver[cell.output.index()] = Some(id);
            for &inp in &cell.inputs {
                readers[inp.index()].push(id);
            }
        }

        // Drive-strength assignment from fanout, as a synthesis tool would.
        for cell in &mut self.cells {
            let fanout = readers[cell.output.index()].len();
            cell.drive = DriveStrength::for_fanout(fanout);
        }

        let netlist = Netlist {
            name: self.name,
            nets: self.nets,
            cells: self.cells,
            inputs: self.inputs,
            outputs: self.outputs,
            ffs,
            ff_init,
            buses,
            driver,
            readers,
        };
        netlist.validate()?;
        Ok(netlist)
    }
}

fn mask(width: usize) -> u64 {
    if width >= 64 {
        !0
    } else {
        (1u64 << width) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_compiles() {
        let mut b = NetlistBuilder::new("cnt");
        let en = b.input("en", 1);
        let c = b.reg("count", 4);
        let next = b.inc(&c.q());
        b.connect_en(&c, &en, &next).unwrap();
        b.output("value", &c.q());
        let n = b.finish().unwrap();
        assert_eq!(n.num_ffs(), 4);
        assert_eq!(n.buses().len(), 1);
        assert_eq!(n.primary_outputs().len(), 4);
    }

    #[test]
    fn double_connect_is_error() {
        let mut b = NetlistBuilder::new("m");
        let a = b.input("a", 2);
        let r = b.reg("r", 2);
        b.connect(&r, &a).unwrap();
        let err = b.connect(&r, &a).unwrap_err();
        assert!(matches!(err, NetlistError::RegisterAlreadyConnected { .. }));
    }

    #[test]
    fn unconnected_register_is_error() {
        let mut b = NetlistBuilder::new("m");
        let _a = b.input("a", 1);
        let r = b.reg("r", 1);
        b.output("o", &r.q());
        let err = b.finish().unwrap_err();
        assert!(matches!(err, NetlistError::RegisterUnconnected { .. }));
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn width_mismatch_panics() {
        let mut b = NetlistBuilder::new("m");
        let a = b.input("a", 2);
        let c = b.input("c", 3);
        let _ = b.and(&a, &c);
    }

    #[test]
    #[should_panic(expected = "duplicate port name")]
    fn duplicate_port_panics() {
        let mut b = NetlistBuilder::new("m");
        let _ = b.input("a", 1);
        let _ = b.input("a", 2);
    }

    #[test]
    fn literal_shares_tie_cells() {
        let mut b = NetlistBuilder::new("m");
        let x = b.lit(4, 0b1010);
        let y = b.lit(4, 0b0101);
        // Only two tie cells despite 8 constant bits.
        assert_eq!(b.num_cells(), 2);
        assert_eq!(x.net(1), y.net(0));
        assert_eq!(x.net(0), y.net(1));
    }

    #[test]
    fn decode_is_one_hot_shaped() {
        let mut b = NetlistBuilder::new("m");
        let s = b.input("s", 2);
        let d = b.decode(&s);
        assert_eq!(d.width(), 4);
    }

    #[test]
    fn select_handles_non_power_of_two() {
        let mut b = NetlistBuilder::new("m");
        let s = b.input("s", 2);
        let opts: Vec<Bus> = (0..3).map(|i| b.lit(4, i)).collect();
        let out = b.select(&s, &opts);
        assert_eq!(out.width(), 4);
    }

    #[test]
    fn shifts_preserve_width() {
        let mut b = NetlistBuilder::new("m");
        let a = b.input("a", 8);
        assert_eq!(b.shl_const(&a, 3).width(), 8);
        assert_eq!(b.shl_const(&a, 0).width(), 8);
        assert_eq!(b.shl_const(&a, 99).width(), 8);
    }

    #[test]
    fn drive_strength_assigned_by_fanout() {
        let mut b = NetlistBuilder::new("m");
        let a = b.input("a", 1);
        // One inverter read by many gates.
        let inv = b.not(&a);
        for _ in 0..10 {
            let _ = b.and(&inv, &a);
        }
        let r = b.reg("r", 1);
        b.connect(&r, &inv).unwrap();
        b.output("o", &r.q());
        let n = b.finish().unwrap();
        let inv_cell = n
            .cells()
            .find(|(_, c)| c.kind() == CellKind::Not)
            .map(|(_, c)| c.drive())
            .unwrap();
        assert_eq!(inv_cell, DriveStrength::X4);
    }

    #[test]
    fn init_value_recorded() {
        let mut b = NetlistBuilder::new("m");
        let a = b.input("a", 3);
        let r = b.reg_init("r", 3, 0b101);
        b.connect(&r, &a).unwrap();
        b.output("o", &r.q());
        let n = b.finish().unwrap();
        assert!(n.ff_init(FfId::from_index(0)));
        assert!(!n.ff_init(FfId::from_index(1)));
        assert!(n.ff_init(FfId::from_index(2)));
    }
}
