//! Structural-Verilog emission and parsing.
//!
//! The emitter writes a flat gate-level module in the NanGate naming style
//! (`AND2_X1`, `DFF_X2`, …). Multi-bit names such as `count_q[3]` are written
//! as Verilog *escaped identifiers* (`\count_q[3] `), which keeps the format
//! trivially round-trippable without vector-range inference.
//!
//! Netlist metadata that plain structural Verilog cannot express — register
//! bus membership and flip-flop power-on values — is preserved in structured
//! comments (`// ffr:bus …`, `// ffr:init …`) that [`parse`] understands.
//!
//! # Example
//!
//! ```
//! use ffr_netlist::{NetlistBuilder, verilog};
//!
//! # fn main() -> Result<(), ffr_netlist::NetlistError> {
//! let mut b = NetlistBuilder::new("demo");
//! let a = b.input("a", 2);
//! let r = b.reg("r", 2);
//! b.connect(&r, &a)?;
//! b.output("o", &r.q());
//! let n = b.finish()?;
//!
//! let text = verilog::emit(&n);
//! let parsed = verilog::parse(&text)?;
//! assert_eq!(parsed.num_ffs(), n.num_ffs());
//! # Ok(())
//! # }
//! ```

use crate::cell::{CellKind, DriveStrength};
use crate::error::NetlistError;
use crate::netlist::{BusInfo, Cell, CellId, FfId, Net, NetId, Netlist};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Name of the implicit clock port added on emission.
pub(crate) const CLOCK_PORT: &str = "clk";

fn vname(name: &str) -> String {
    let plain = name
        .chars()
        .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '$');
    let starts_ok = name
        .chars()
        .next()
        .map(|c| c.is_ascii_alphabetic() || c == '_')
        .unwrap_or(false);
    if plain && starts_ok {
        name.to_string()
    } else {
        // Escaped identifier: backslash prefix, terminated by whitespace.
        format!("\\{name} ")
    }
}

/// Emit the netlist as flat structural Verilog.
pub fn emit(netlist: &Netlist) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "// Generated by ffr-netlist");
    let _ = writeln!(
        out,
        "// {} cells, {} flip-flops, {} nets",
        netlist.num_cells(),
        netlist.num_ffs(),
        netlist.num_nets()
    );

    // Port list.
    let mut ports: Vec<String> = vec![CLOCK_PORT.to_string()];
    for &pi in netlist.primary_inputs() {
        ports.push(vname(netlist.net(pi).name()));
    }
    for (pname, _) in netlist.primary_outputs() {
        ports.push(vname(pname));
    }
    let _ = writeln!(
        out,
        "module {} ({});",
        vname(netlist.name()),
        ports.join(", ")
    );
    let _ = writeln!(out, "  input {CLOCK_PORT};");
    for &pi in netlist.primary_inputs() {
        let _ = writeln!(out, "  input {};", vname(netlist.net(pi).name()));
    }
    for (pname, _) in netlist.primary_outputs() {
        let _ = writeln!(out, "  output {};", vname(pname));
    }

    // Wire declarations: every net that is not a port.
    for (id, net) in netlist.nets() {
        let is_pi = netlist.is_primary_input(id);
        let is_po = netlist
            .primary_outputs()
            .iter()
            .any(|(pname, n)| *n == id && pname == net.name());
        if !is_pi && !is_po {
            let _ = writeln!(out, "  wire {};", vname(net.name()));
        }
    }

    // Instances.
    for (_, cell) in netlist.cells() {
        let lib = format!("{}{}", cell.kind().library_name(), cell.drive().suffix());
        let mut pins: Vec<String> = cell
            .kind()
            .input_pin_names()
            .iter()
            .zip(cell.inputs())
            .map(|(pin, &net)| format!(".{pin}({})", vname(netlist.net(net).name())))
            .collect();
        if cell.kind().is_sequential() {
            pins.push(format!(".CK({CLOCK_PORT})"));
        }
        pins.push(format!(
            ".{}({})",
            cell.kind().output_pin_name(),
            vname(netlist.net(cell.output()).name())
        ));
        let _ = writeln!(out, "  {lib} {} ({});", vname(cell.name()), pins.join(", "));
    }

    let _ = writeln!(out, "endmodule");

    // Metadata directives (parsed back by `parse`).
    for bus in netlist.buses() {
        let members: Vec<&str> = bus.ffs().iter().map(|&f| netlist.ff_name(f)).collect();
        let _ = writeln!(out, "// ffr:bus {} {}", bus.name(), members.join(" "));
    }
    for (ff, _) in netlist.ffs() {
        if netlist.ff_init(ff) {
            let _ = writeln!(out, "// ffr:init {}", netlist.ff_name(ff));
        }
    }
    out
}

// ---------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Punct(char),
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    line: usize,
    /// `ffr:` metadata comments collected during lexing.
    directives: Vec<String>,
}

impl<'a> Lexer<'a> {
    fn new(src: &'a str) -> Self {
        Lexer {
            src,
            pos: 0,
            line: 1,
            directives: Vec::new(),
        }
    }

    fn error(&self, message: impl Into<String>) -> NetlistError {
        NetlistError::Parse {
            line: self.line,
            message: message.into(),
        }
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.src[self.pos..].chars().next()?;
        self.pos += c.len_utf8();
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn peek(&self) -> Option<char> {
        self.src[self.pos..].chars().next()
    }

    fn next_token(&mut self) -> Result<Option<Tok>, NetlistError> {
        loop {
            match self.peek() {
                None => return Ok(None),
                Some(c) if c.is_whitespace() => {
                    self.bump();
                }
                Some('/') => {
                    // Line comment; may carry an ffr directive.
                    let start = self.pos;
                    self.bump();
                    if self.peek() != Some('/') {
                        return Err(self.error("unexpected `/`"));
                    }
                    while let Some(c) = self.peek() {
                        if c == '\n' {
                            break;
                        }
                        self.bump();
                    }
                    let comment = &self.src[start..self.pos];
                    let body = comment.trim_start_matches('/').trim();
                    if let Some(rest) = body.strip_prefix("ffr:") {
                        self.directives.push(rest.to_string());
                    }
                }
                Some('\\') => {
                    // Escaped identifier: up to next whitespace.
                    self.bump();
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c.is_whitespace() {
                            break;
                        }
                        self.bump();
                    }
                    let name = self.src[start..self.pos].to_string();
                    if name.is_empty() {
                        return Err(self.error("empty escaped identifier"));
                    }
                    return Ok(Some(Tok::Ident(name)));
                }
                Some(c) if c.is_ascii_alphabetic() || c == '_' => {
                    let start = self.pos;
                    while let Some(c) = self.peek() {
                        if c.is_ascii_alphanumeric() || c == '_' || c == '$' {
                            self.bump();
                        } else {
                            break;
                        }
                    }
                    return Ok(Some(Tok::Ident(self.src[start..self.pos].to_string())));
                }
                Some(c) if "();,.".contains(c) => {
                    self.bump();
                    return Ok(Some(Tok::Punct(c)));
                }
                Some(c) => return Err(self.error(format!("unexpected character `{c}`"))),
            }
        }
    }
}

struct Parser<'a> {
    lexer: Lexer<'a>,
    lookahead: Option<Tok>,
}

impl<'a> Parser<'a> {
    fn new(src: &'a str) -> Result<Self, NetlistError> {
        let mut lexer = Lexer::new(src);
        let lookahead = lexer.next_token()?;
        Ok(Parser { lexer, lookahead })
    }

    fn error(&self, message: impl Into<String>) -> NetlistError {
        self.lexer.error(message)
    }

    fn next(&mut self) -> Result<Option<Tok>, NetlistError> {
        let tok = self.lookahead.take();
        self.lookahead = self.lexer.next_token()?;
        Ok(tok)
    }

    fn expect_ident(&mut self) -> Result<String, NetlistError> {
        match self.next()? {
            Some(Tok::Ident(s)) => Ok(s),
            other => Err(self.error(format!("expected identifier, got {other:?}"))),
        }
    }

    fn expect_punct(&mut self, c: char) -> Result<(), NetlistError> {
        match self.next()? {
            Some(Tok::Punct(p)) if p == c => Ok(()),
            other => Err(self.error(format!("expected `{c}`, got {other:?}"))),
        }
    }

    fn peek_punct(&self, c: char) -> bool {
        matches!(self.lookahead, Some(Tok::Punct(p)) if p == c)
    }
}

/// Parse flat structural Verilog produced by [`emit`] (or compatible with
/// the same subset) back into a [`Netlist`].
///
/// # Errors
///
/// Returns [`NetlistError::Parse`] on syntax errors and validation errors
/// (undriven nets, duplicate names) found in the parsed design.
pub fn parse(src: &str) -> Result<Netlist, NetlistError> {
    let mut p = Parser::new(src)?;

    match p.next()? {
        Some(Tok::Ident(kw)) if kw == "module" => {}
        other => return Err(p.error(format!("expected `module`, got {other:?}"))),
    }
    let module_name = p.expect_ident()?;
    p.expect_punct('(')?;
    // Port order list — roles come from input/output declarations below.
    let mut port_order: Vec<String> = Vec::new();
    if !p.peek_punct(')') {
        loop {
            port_order.push(p.expect_ident()?);
            if p.peek_punct(',') {
                p.expect_punct(',')?;
            } else {
                break;
            }
        }
    }
    p.expect_punct(')')?;
    p.expect_punct(';')?;

    let mut input_ports: Vec<String> = Vec::new();
    let mut output_ports: Vec<String> = Vec::new();
    let mut nets: Vec<Net> = Vec::new();
    let mut net_ids: HashMap<String, NetId> = HashMap::new();
    let mut cells: Vec<Cell> = Vec::new();

    fn intern(nets: &mut Vec<Net>, ids: &mut HashMap<String, NetId>, name: &str) -> NetId {
        if let Some(&id) = ids.get(name) {
            return id;
        }
        let id = NetId::from_index(nets.len());
        nets.push(Net {
            name: name.to_string(),
        });
        ids.insert(name.to_string(), id);
        id
    }

    loop {
        let tok = p
            .next()?
            .ok_or_else(|| p.error("unexpected end of file inside module"))?;
        let ident = match tok {
            Tok::Ident(s) => s,
            other => return Err(p.error(format!("expected declaration, got {other:?}"))),
        };
        match ident.as_str() {
            "endmodule" => break,
            "input" | "output" | "wire" => {
                let kw = ident;
                loop {
                    let name = p.expect_ident()?;
                    match kw.as_str() {
                        "input" => {
                            if name != CLOCK_PORT {
                                input_ports.push(name.clone());
                                intern(&mut nets, &mut net_ids, &name);
                            }
                        }
                        "output" => {
                            output_ports.push(name.clone());
                            intern(&mut nets, &mut net_ids, &name);
                        }
                        _ => {
                            intern(&mut nets, &mut net_ids, &name);
                        }
                    }
                    if p.peek_punct(',') {
                        p.expect_punct(',')?;
                    } else {
                        break;
                    }
                }
                p.expect_punct(';')?;
            }
            lib => {
                // Cell instance: LIB_Xn name ( .PIN(net), ... );
                let (kind, drive) = parse_lib_name(lib)
                    .ok_or_else(|| p.error(format!("unknown library cell `{lib}`")))?;
                let inst_name = p.expect_ident()?;
                p.expect_punct('(')?;
                let mut pins: HashMap<String, String> = HashMap::new();
                if !p.peek_punct(')') {
                    loop {
                        p.expect_punct('.')?;
                        let pin = p.expect_ident()?;
                        p.expect_punct('(')?;
                        let net = p.expect_ident()?;
                        p.expect_punct(')')?;
                        if pins.insert(pin.clone(), net).is_some() {
                            return Err(p.error(format!("duplicate pin `{pin}`")));
                        }
                        if p.peek_punct(',') {
                            p.expect_punct(',')?;
                        } else {
                            break;
                        }
                    }
                }
                p.expect_punct(')')?;
                p.expect_punct(';')?;

                let mut inputs = Vec::with_capacity(kind.num_inputs());
                for pin in kind.input_pin_names() {
                    let net = pins
                        .get(*pin)
                        .ok_or_else(|| p.error(format!("missing pin `{pin}` on `{inst_name}`")))?;
                    inputs.push(intern(&mut nets, &mut net_ids, net));
                }
                let out_pin = kind.output_pin_name();
                let out = pins
                    .get(out_pin)
                    .ok_or_else(|| p.error(format!("missing pin `{out_pin}` on `{inst_name}`")))?;
                let output = intern(&mut nets, &mut net_ids, out);
                cells.push(Cell {
                    name: inst_name,
                    kind,
                    drive,
                    inputs,
                    output,
                });
            }
        }
    }

    // Assemble the netlist.
    let inputs: Vec<NetId> = input_ports.iter().map(|n| net_ids[n.as_str()]).collect();
    let outputs: Vec<(String, NetId)> = output_ports
        .iter()
        .map(|n| (n.clone(), net_ids[n.as_str()]))
        .collect();
    let ffs: Vec<CellId> = cells
        .iter()
        .enumerate()
        .filter(|(_, c)| c.kind.is_sequential())
        .map(|(i, _)| CellId::from_index(i))
        .collect();
    let mut ff_by_name: HashMap<&str, FfId> = HashMap::new();
    for (i, &cid) in ffs.iter().enumerate() {
        ff_by_name.insert(cells[cid.index()].name.as_str(), FfId::from_index(i));
    }

    let mut ff_init = vec![false; ffs.len()];
    let mut buses: Vec<BusInfo> = Vec::new();
    for directive in &p.lexer.directives {
        let mut parts = directive.split_whitespace();
        match parts.next() {
            Some("bus") => {
                let name = parts
                    .next()
                    .ok_or_else(|| p.error("ffr:bus directive missing name"))?;
                let members: Result<Vec<FfId>, NetlistError> = parts
                    .map(|m| {
                        ff_by_name
                            .get(m)
                            .copied()
                            .ok_or_else(|| p.error(format!("ffr:bus references unknown FF `{m}`")))
                    })
                    .collect();
                buses.push(BusInfo {
                    name: name.to_string(),
                    ffs: members?,
                });
            }
            Some("init") => {
                let name = parts
                    .next()
                    .ok_or_else(|| p.error("ffr:init directive missing FF name"))?;
                let ff = ff_by_name
                    .get(name)
                    .ok_or_else(|| p.error(format!("ffr:init references unknown FF `{name}`")))?;
                ff_init[ff.index()] = true;
            }
            _ => {} // Unknown directives are ignored for forward compatibility.
        }
    }

    let mut driver: Vec<Option<CellId>> = vec![None; nets.len()];
    let mut readers: Vec<Vec<CellId>> = vec![Vec::new(); nets.len()];
    for (i, cell) in cells.iter().enumerate() {
        let id = CellId::from_index(i);
        driver[cell.output.index()] = Some(id);
        for &inp in &cell.inputs {
            readers[inp.index()].push(id);
        }
    }

    let netlist = Netlist {
        name: module_name,
        nets,
        cells,
        inputs,
        outputs,
        ffs,
        ff_init,
        buses,
        driver,
        readers,
    };
    netlist.validate()?;
    Ok(netlist)
}

fn parse_lib_name(lib: &str) -> Option<(CellKind, DriveStrength)> {
    let underscore = lib.rfind('_')?;
    let (base, suffix) = lib.split_at(underscore);
    let kind = CellKind::from_library_name(base)?;
    let drive = DriveStrength::from_suffix(suffix)?;
    Some((kind, drive))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetlistBuilder;

    fn demo() -> Netlist {
        let mut b = NetlistBuilder::new("demo");
        let a = b.input("a", 4);
        let en = b.input("en", 1);
        let r = b.reg_init("acc", 4, 0b0011);
        let (sum, _) = b.add(&r.q(), &a);
        b.connect_en(&r, &en, &sum).unwrap();
        let p = b.reduce_xor(&r.q());
        b.output("acc_out", &r.q());
        b.output("parity", &p);
        b.finish().unwrap()
    }

    #[test]
    fn emit_contains_expected_cells() {
        let text = emit(&demo());
        assert!(text.contains("module demo"));
        assert!(text.contains("DFF_X"));
        assert!(text.contains("XOR2_X"));
        assert!(text.contains("// ffr:bus acc"));
        assert!(text.contains("// ffr:init"));
        assert!(text.contains("endmodule"));
    }

    #[test]
    fn round_trip_preserves_structure() {
        let n = demo();
        let text = emit(&n);
        let parsed = parse(&text).unwrap();
        assert_eq!(parsed.name(), n.name());
        assert_eq!(parsed.num_cells(), n.num_cells());
        assert_eq!(parsed.num_ffs(), n.num_ffs());
        assert_eq!(parsed.primary_inputs().len(), n.primary_inputs().len());
        assert_eq!(parsed.primary_outputs().len(), n.primary_outputs().len());
        assert_eq!(parsed.buses().len(), n.buses().len());
        assert_eq!(parsed.buses()[0].name(), "acc");
        // Init values survive.
        for (ff, _) in n.ffs() {
            let pf = parsed.find_ff(n.ff_name(ff)).unwrap();
            assert_eq!(parsed.ff_init(pf), n.ff_init(ff));
        }
        // Emission is stable after one round trip.
        assert_eq!(emit(&parsed), text);
    }

    #[test]
    fn parse_rejects_unknown_cell() {
        let src = "module m (a, o);\n input a;\n output o;\n FOO_X1 u (.A(a), .Z(o));\nendmodule\n";
        let err = parse(src).unwrap_err();
        assert!(matches!(err, NetlistError::Parse { .. }));
    }

    #[test]
    fn parse_rejects_missing_pin() {
        let src =
            "module m (a, o);\n input a;\n output o;\n AND2_X1 u (.A1(a), .ZN(o));\nendmodule\n";
        let err = parse(src).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("A2"), "unexpected error: {msg}");
    }

    #[test]
    fn parse_rejects_undriven_output() {
        let src = "module m (a, o);\n input a;\n output o;\nendmodule\n";
        assert!(parse(src).is_err());
    }

    #[test]
    fn parser_tolerates_comments_and_whitespace() {
        let src = "// header comment\nmodule m (a, o);\n  // port docs\n  input a;\n  output o;\n\n  INV_X2 u0 (.A(a), .ZN(o)); // trailing note\nendmodule\n// ffr:unknown directive is ignored\n";
        let n = parse(src).unwrap();
        assert_eq!(n.num_cells(), 1);
        assert_eq!(n.cells().next().unwrap().1.drive(), DriveStrength::X2);
    }

    #[test]
    fn parser_reports_line_numbers() {
        let src =
            "module m (a, o);\n  input a;\n  output o;\n  INV_X1 u0 (.A(a) .ZN(o));\nendmodule\n";
        let err = parse(src).unwrap_err();
        match err {
            NetlistError::Parse { line, .. } => assert_eq!(line, 4),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_double_driver() {
        let src = "module m (a, o);\n  input a;\n  output o;\n  wire x;\n  \
                   INV_X1 u0 (.A(a), .ZN(x));\n  BUF_X1 u1 (.A(a), .Z(x));\n  \
                   BUF_X1 u2 (.A(x), .Z(o));\nendmodule\n";
        assert!(matches!(
            parse(src),
            Err(NetlistError::MultipleDrivers { .. })
        ));
    }

    #[test]
    fn escaped_identifiers_round_trip() {
        assert_eq!(vname("plain_name"), "plain_name");
        assert_eq!(vname("a[3]"), "\\a[3] ");
        let n = demo();
        let text = emit(&n);
        // Bus bit nets must appear escaped.
        assert!(text.contains("\\acc_q[0] "));
        let parsed = parse(&text).unwrap();
        assert!(parsed.nets().any(|(_, net)| net.name() == "acc_q[0]"));
    }
}
