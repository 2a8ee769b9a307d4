//! The fault-evaluation engine: differential simulation of one injection
//! point's fan-out [`Cone`] against the golden [`NetJournal`].
//!
//! The engine never evaluates what provably equals golden. It keeps the
//! faulty state in one of three representations and moves between them
//! from what it observes, never from a caller's choice:
//!
//! ```text
//!            inject                 frontier ≥ ¼ cone
//! Quiescent ────────► Frontier ─────────────────────► Dense
//!     ▲                  │ lane diff == 0               │ lane diff == 0
//!     └──────────────────┴──────────────────────────────┘
//! ```
//!
//! * **Quiescent** — every lane equals golden; nothing is evaluated and
//!   the caller may [`FaultEngine::skip_to`] any later cycle.
//! * **Frontier** — only ops whose inputs differ from the golden row are
//!   evaluated (an event-driven worklist); clean nets are golden by
//!   construction and refreshed lazily from the journal row when read.
//! * **Dense** — the whole cone is evaluated each cycle. A worklist op
//!   costs a few times a dense op, so once one cycle's frontier covers a
//!   quarter of the cone the engine adopts the dense representation until
//!   the fault damps out.
//!
//! [`NetJournal`]: crate::NetJournal

use crate::compile::{CompiledCircuit, Cone};
use crate::engine::{eval_ops, eval_ops_forced};
use ffr_netlist::NetId;

/// A worklist op costs about this many dense cone ops (measured breakeven
/// on mac-small): the engine goes Dense once one cycle's frontier reaches
/// `1 / ADOPT_RATIO` of the cone.
const ADOPT_RATIO: usize = 4;

/// Broadcast the golden bit of net `n` from a packed
/// [`NetJournal`](crate::NetJournal) row to all 64 lanes.
#[inline]
fn row_broadcast(row: &[u64], n: u32) -> u64 {
    ((row[(n / 64) as usize] >> (n % 64)) & 1).wrapping_neg()
}

/// Which representation the [`FaultEngine`] currently holds the faulty
/// state in (see the module documentation for the transitions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineState {
    /// Every lane equals golden.
    Quiescent,
    /// Live divergence tracked by the event-driven worklist.
    Frontier,
    /// Wide divergence: the whole cone holds live values.
    Dense,
}

/// Bookkeeping of the Frontier representation: the worklist of cone ops
/// whose inputs currently differ from golden, the per-net golden-diff
/// (dirty) mask, and the set of flip-flops about to latch a divergent
/// value. Re-armed per batch with [`FrontierScratch::attach`]; the
/// steady-state loop allocates nothing.
#[derive(Debug, Clone, Default)]
struct FrontierScratch {
    /// Bitset over all nets: value in the state differs from this
    /// cycle's golden value on at least one lane (the value is live).
    dirty: Vec<u64>,
    /// Nets marked dirty this cycle, for O(|dirty|) clearing at tick.
    dirty_nets: Vec<u32>,
    /// Worklist bitset over cone-local op indices. Popping bits in
    /// ascending index order is exactly topological order, because the
    /// cone op list preserves the global levelized order.
    queue: Vec<u64>,
    /// Inclusive scheduled-op index range (`u32::MAX` when empty): the
    /// scan visits only words that can hold work.
    q_lo: u32,
    q_hi: u32,
    /// Cone-local indices of flip-flops whose D net is dirty — the only
    /// flip-flops that need to latch at the next edge.
    latch: Vec<u32>,
    /// Dedupe bitset over cone-local flip-flop indices for `latch`.
    latched: Vec<u64>,
    /// Captured D words of the two-phase latch, so Q-to-D shift chains
    /// latch pre-edge values.
    capture: Vec<u64>,
    /// Ops evaluated since the last attach (Dense cycles count the whole
    /// cone).
    ops_evaluated: u64,
    /// Ops evaluated in the current cycle.
    cycle_ops: u32,
    /// Most ops evaluated in any single cycle since the last attach.
    peak: u32,
}

impl FrontierScratch {
    /// Re-arm for a (possibly different) cone: size the bitsets, clear
    /// every per-cycle structure and reset the counters.
    fn attach(&mut self, cone: &Cone) {
        self.dirty.clear();
        self.dirty.resize(cone.touched.len(), 0);
        self.dirty_nets.clear();
        self.queue.clear();
        self.queue.resize(cone.ops.len().div_ceil(64), 0);
        self.q_lo = u32::MAX;
        self.q_hi = 0;
        self.latch.clear();
        self.latched.clear();
        self.latched.resize(cone.ff_q.len().div_ceil(64), 0);
        self.capture.clear();
        self.ops_evaluated = 0;
        self.cycle_ops = 0;
        self.peak = 0;
    }

    /// Drop every pending worklist entry and dirty mark, keeping the
    /// counters — the Frontier representation is abandoned for Dense.
    fn clear(&mut self) {
        for i in 0..self.dirty_nets.len() {
            let n = self.dirty_nets[i];
            self.dirty[(n / 64) as usize] &= !(1u64 << (n % 64));
        }
        self.dirty_nets.clear();
        for i in 0..self.latch.len() {
            let k = self.latch[i];
            self.latched[(k / 64) as usize] &= !(1u64 << (k % 64));
        }
        self.latch.clear();
        if self.q_lo != u32::MAX {
            for w in (self.q_lo / 64)..=(self.q_hi / 64) {
                self.queue[w as usize] = 0;
            }
            self.q_lo = u32::MAX;
            self.q_hi = 0;
        }
    }

    #[inline]
    fn is_dirty(&self, n: u32) -> bool {
        (self.dirty[(n / 64) as usize] >> (n % 64)) & 1 == 1
    }

    #[inline]
    fn schedule(&mut self, j: u32) {
        self.queue[(j / 64) as usize] |= 1u64 << (j % 64);
        if self.q_lo == u32::MAX {
            self.q_lo = j;
            self.q_hi = j;
        } else {
            self.q_lo = self.q_lo.min(j);
            self.q_hi = self.q_hi.max(j);
        }
    }

    /// Mark `n` dirty and fan the event out: schedule the cone ops
    /// reading it and enqueue the flip-flops it feeds for the next
    /// latch. Idempotent within a cycle.
    fn spread(&mut self, cone: &Cone, n: u32) {
        let w = (n / 64) as usize;
        let bit = 1u64 << (n % 64);
        if self.dirty[w] & bit == 0 {
            self.dirty[w] |= bit;
            self.dirty_nets.push(n);
        }
        let (lo, hi) = (
            cone.reader_off[n as usize] as usize,
            cone.reader_off[n as usize + 1] as usize,
        );
        for i in lo..hi {
            self.schedule(cone.reader_ops[i]);
        }
        let (lo, hi) = (
            cone.latch_off[n as usize] as usize,
            cone.latch_off[n as usize + 1] as usize,
        );
        for i in lo..hi {
            let k = cone.latch_ffs[i];
            let (w, bit) = ((k / 64) as usize, 1u64 << (k % 64));
            if self.latched[w] & bit == 0 {
                self.latched[w] |= bit;
                self.latch.push(k);
            }
        }
    }
}

/// The one fault-evaluation engine: simulates up to 64 fault scenarios
/// (one per lane) of a single injection point, differentially against the
/// golden [`NetJournal`](crate::NetJournal).
///
/// Per batch: [`FaultEngine::attach`] the point's [`Cone`], then per
/// cycle [`FaultEngine::eval`] with that cycle's golden row and the lanes
/// to inject, read deviating nets with [`FaultEngine::live_word`], and
/// [`FaultEngine::tick`]. While the engine is
/// [`Quiescent`](EngineState::Quiescent) nothing can change until the
/// next injection, so the caller may [`FaultEngine::skip_to`] it. One
/// engine serves any number of cones and batches.
#[derive(Debug, Clone)]
pub struct FaultEngine {
    /// One 64-lane word per net. Only *live* words are meaningful: dirty
    /// nets in the Frontier state, cone nets in the Dense state.
    values: Vec<u64>,
    fs: FrontierScratch,
    state: EngineState,
    cycle: u64,
}

impl FaultEngine {
    /// Engine for `cc`; call [`FaultEngine::attach`] before the first
    /// cycle of every batch.
    pub fn new(cc: &CompiledCircuit) -> FaultEngine {
        FaultEngine {
            values: vec![0; cc.num_nets],
            fs: FrontierScratch::default(),
            state: EngineState::Quiescent,
            cycle: 0,
        }
    }

    /// Start a batch on `cone`: all lanes golden (Quiescent) at `cycle`,
    /// counters reset. Nothing is loaded — every net is golden by
    /// construction until the first injection.
    pub fn attach(&mut self, cone: &Cone, cycle: u64) {
        self.fs.attach(cone);
        self.state = EngineState::Quiescent;
        self.cycle = cycle;
    }

    /// The current representation of the faulty state.
    pub fn state(&self) -> EngineState {
        self.state
    }

    /// The cycle the next [`FaultEngine::eval`] belongs to.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Cone ops evaluated since the last [`FaultEngine::attach`]; a Dense
    /// cycle counts the whole cone.
    pub fn ops_evaluated(&self) -> u64 {
        self.fs.ops_evaluated
    }

    /// Most cone ops evaluated in any single cycle since the last
    /// [`FaultEngine::attach`]; the cone size once Dense was entered.
    pub fn peak(&self) -> u32 {
        self.fs.peak
    }

    /// Jump over cycles in which nothing can differ from golden.
    ///
    /// # Panics
    ///
    /// Panics unless the engine is [`Quiescent`](EngineState::Quiescent)
    /// and `cycle` is not in the past.
    pub fn skip_to(&mut self, cycle: u64) {
        assert!(
            self.state == EngineState::Quiescent && cycle >= self.cycle,
            "skip_to({cycle}) from a {:?} engine at cycle {}",
            self.state,
            self.cycle
        );
        self.cycle = cycle;
    }

    /// Evaluate the current cycle. `row` is the golden journal row of
    /// this cycle; `inject_mask` selects the lanes whose fault strikes
    /// now: a source root (SEU, or a SET on a primary input / Q net) is
    /// flipped in place, a gate-output root is XOR-forced at its driving
    /// op for exactly this evaluation.
    pub fn eval(&mut self, cone: &Cone, row: &[u64], inject_mask: u64) {
        if self.state == EngineState::Dense {
            self.eval_dense(cone, row, inject_mask);
            return;
        }
        let mut forced = None;
        if inject_mask != 0 {
            self.state = EngineState::Frontier;
            match cone.forced_split {
                None => {
                    // A clean root provably holds the golden value, so
                    // refresh-then-flip equals flip-in-place.
                    let root = cone.root;
                    if !self.fs.is_dirty(root) {
                        self.values[root as usize] = row_broadcast(row, root);
                    }
                    self.values[root as usize] ^= inject_mask;
                    self.fs.spread(cone, root);
                }
                Some(split) => {
                    self.fs.schedule(split);
                    forced = Some((split, inject_mask));
                }
            }
        }
        Self::propagate(&mut self.values, cone, &mut self.fs, row, forced);
    }

    /// Dense evaluation: broadcast the golden boundary (which doubles as
    /// the stimulus — primary inputs the cone reads are boundary nets, and
    /// a forced source root is restored the cycle after its flip), then
    /// run every cone op.
    fn eval_dense(&mut self, cone: &Cone, row: &[u64], inject_mask: u64) {
        let v = &mut self.values;
        for &n in &cone.boundary {
            v[n as usize] = row_broadcast(row, n);
        }
        match cone.forced_split {
            Some(split) if inject_mask != 0 => {
                eval_ops_forced(v, &cone.ops, split as usize, inject_mask)
            }
            _ => {
                v[cone.root as usize] ^= inject_mask;
                eval_ops(v, &cone.ops);
            }
        }
        self.fs.ops_evaluated += cone.ops.len() as u64;
    }

    /// Drain the frontier worklist in ascending (= topological) op
    /// order. Scheduling during the scan only ever adds ops *after* the
    /// current position, because a reader is levelized after its driver.
    ///
    /// Clean operands are refreshed lazily from the golden row before an
    /// op runs. An op whose output comes out equal to golden stops
    /// propagating; an op whose output differs schedules its cone
    /// fan-out and enqueues the flip-flops it feeds for the tick.
    fn propagate(
        values: &mut [u64],
        cone: &Cone,
        fs: &mut FrontierScratch,
        row: &[u64],
        forced: Option<(u32, u64)>,
    ) {
        if fs.q_lo == u32::MAX {
            return;
        }
        let mut w = (fs.q_lo / 64) as usize;
        loop {
            if w > (fs.q_hi / 64) as usize {
                break;
            }
            // Re-read the word every pop: an evaluated op may schedule a
            // reader in this same word (at a higher bit).
            let bits = fs.queue[w];
            if bits == 0 {
                w += 1;
                continue;
            }
            let b = bits.trailing_zeros();
            fs.queue[w] &= !(1u64 << b);
            let j = (w as u32) * 64 + b;
            let op = &cone.ops[j as usize];
            // Lazy golden refresh: clean operands provably hold the
            // golden value, but their stored word may be stale.
            for n in [op.a, op.b, op.c] {
                if !fs.is_dirty(n) {
                    values[n as usize] = row_broadcast(row, n);
                }
            }
            let a = values[op.a as usize];
            let bv = values[op.b as usize];
            let c = values[op.c as usize];
            let mut out = op.kind.eval(a, bv, c);
            if let Some((fj, mask)) = forced {
                if fj == j {
                    out ^= mask;
                }
            }
            fs.ops_evaluated += 1;
            fs.cycle_ops += 1;
            values[op.out as usize] = out;
            if out != row_broadcast(row, op.out) {
                fs.spread(cone, op.out);
            }
        }
        fs.q_lo = u32::MAX;
        fs.q_hi = 0;
    }

    /// The 64-lane word of `net` in the current (evaluated) cycle if it
    /// may differ from golden, or `None` when the net equals golden on
    /// every lane by construction — then the golden trace / journal is
    /// the value, and the engine's stored word may be stale.
    pub fn live_word(&self, cone: &Cone, net: NetId) -> Option<u64> {
        // No net is dirty while Quiescent.
        let live = match self.state {
            EngineState::Dense => cone.may_differ(net),
            _ => self.fs.is_dirty(net.index() as u32),
        };
        live.then(|| self.values[net.index()])
    }

    /// Advance one clock edge and return the lanes whose flip-flop state
    /// differs from golden entering the next cycle. `next_row` is the
    /// golden journal row of the next cycle — its Q nets hold the golden
    /// state entering it — or `None` on the final cycle, which ends the
    /// batch (returns 0).
    ///
    /// A zero lane-diff makes the engine Quiescent; a frontier that
    /// covered `1 / ADOPT_RATIO` of the cone this cycle makes it Dense.
    pub fn tick(&mut self, cone: &Cone, next_row: Option<&[u64]>) -> u64 {
        self.cycle += 1;
        let was_dense = self.state == EngineState::Dense;
        let width = self.fs.cycle_ops as usize;
        let diff = if was_dense {
            self.tick_dense(cone, next_row)
        } else {
            self.tick_frontier(cone, next_row)
        };
        if diff == 0 {
            self.state = EngineState::Quiescent;
        } else if !was_dense && width * ADOPT_RATIO >= cone.ops.len() {
            self.adopt(
                cone,
                next_row.expect("a lane diff is taken against the next row"),
            );
        }
        diff
    }

    /// Dense tick: every cone flip-flop latches (two-phase, so Q-to-D
    /// shift chains see pre-edge values) and is compared with golden.
    /// Flip-flops outside the cone hold golden values the cone reads
    /// through the boundary instead.
    fn tick_dense(&mut self, cone: &Cone, next_row: Option<&[u64]>) -> u64 {
        let capture = &mut self.fs.capture;
        capture.clear();
        capture.extend(cone.ff_d.iter().map(|&d| self.values[d as usize]));
        let mut diff = 0u64;
        for (&q, &v) in cone.ff_q.iter().zip(capture.iter()) {
            self.values[q as usize] = v;
            if let Some(next_row) = next_row {
                diff |= v ^ row_broadcast(next_row, q);
            }
        }
        diff
    }

    /// Frontier tick: only flip-flops whose D net diverged this cycle
    /// latch (everything else provably latches its golden value), and the
    /// lane diff falls out of the latch loop — a lane differs entering the
    /// next cycle iff some flip-flop latched a non-golden bit for it.
    /// Flip-flops that latch golden again drop off the frontier; an empty
    /// frontier therefore *is* all-lane convergence.
    fn tick_frontier(&mut self, cone: &Cone, next_row: Option<&[u64]>) -> u64 {
        let fs = &mut self.fs;
        debug_assert!(fs.q_lo == u32::MAX, "tick with an undrained frontier");
        fs.peak = fs.peak.max(fs.cycle_ops);
        fs.cycle_ops = 0;

        // Two-phase latch of the dirty flip-flops only: capture all D
        // words first so Q-to-D shift chains see pre-edge values.
        let n = fs.latch.len();
        fs.capture.clear();
        for i in 0..n {
            fs.capture
                .push(self.values[cone.ff_d[fs.latch[i] as usize] as usize]);
        }

        // This cycle's dirty marks expire at the edge; next cycle's are
        // re-seeded below from what actually latched non-golden.
        for &net in &fs.dirty_nets {
            fs.dirty[(net / 64) as usize] &= !(1u64 << (net % 64));
        }
        fs.dirty_nets.clear();
        for i in 0..n {
            let k = fs.latch[i];
            fs.latched[(k / 64) as usize] &= !(1u64 << (k % 64));
        }

        let mut diff = 0u64;
        for i in 0..n {
            let k = fs.latch[i] as usize;
            let v = fs.capture[i];
            self.values[cone.ff_q[k] as usize] = v;
            if let Some(next_row) = next_row {
                let q = cone.ff_q[k];
                let d = v ^ row_broadcast(next_row, q);
                diff |= d;
                if d != 0 {
                    // Still divergent: seed the next cycle's frontier
                    // (readers of Q, and Q-to-D latch chains). May push
                    // onto `fs.latch` beyond `n`.
                    fs.spread(cone, q);
                }
            }
        }
        fs.latch.drain(..n);
        diff
    }

    /// Frontier → Dense: refresh every touched-but-clean net to the new
    /// cycle's golden value so *all* cone nets hold live values (dirty
    /// nets already do, by the frontier invariant), then drop the
    /// worklist. O(|cone|), paid once per switch. The way back costs
    /// nothing: at a zero lane-diff all cone nets are clean, which is
    /// exactly the empty frontier.
    fn adopt(&mut self, cone: &Cone, row: &[u64]) {
        for (w, &tword) in cone.touched.iter().enumerate() {
            let mut stale = tword & !self.fs.dirty[w];
            while stale != 0 {
                let b = stale.trailing_zeros();
                stale &= stale - 1;
                let n = (w as u32) * 64 + b;
                self.values[n as usize] = row_broadcast(row, n);
            }
        }
        self.fs.clear();
        self.fs.peak = self.fs.peak.max(cone.ops.len() as u32);
        self.state = EngineState::Dense;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InputFrame, NetJournal, Stimulus};
    use ffr_netlist::{FfId, NetlistBuilder};

    struct Enable(u64);

    impl Stimulus for Enable {
        fn num_cycles(&self) -> u64 {
            self.0
        }

        fn drive(&self, _cycle: u64, frame: &mut InputFrame) {
            frame.set(0, true);
        }
    }

    /// A 4-bit counter (never re-converges) next to a 1-deep pipeline
    /// register on the input (re-converges after one cycle).
    fn circuit() -> CompiledCircuit {
        let mut b = NetlistBuilder::new("eng");
        let en = b.input("en", 1);
        let r = b.reg("count", 4);
        let next = b.inc(&r.q());
        b.connect_en(&r, &en, &next).unwrap();
        b.output("value", &r.q());
        let p = b.reg("pipe", 1);
        b.connect(&p, &en).unwrap();
        b.output("piped", &p.q());
        CompiledCircuit::compile(b.finish().unwrap()).unwrap()
    }

    #[test]
    fn transient_upset_walks_quiescent_frontier_quiescent() {
        let cc = circuit();
        let netj = NetJournal::capture(&cc, &Enable(12));
        let pipe = cc.netlist().find_ff("pipe_reg[0]").unwrap();
        let q = cc.netlist().ff_q_net(pipe);
        let cone = cc.ff_cone(pipe);
        let mut engine = FaultEngine::new(&cc);
        engine.attach(&cone, 3);
        assert_eq!(engine.state(), EngineState::Quiescent);
        assert_eq!(engine.live_word(&cone, q), None);

        engine.eval(&cone, netj.row(3), 0b101);
        assert_eq!(engine.state(), EngineState::Frontier);
        let golden = if netj.net_bit(3, q) { !0u64 } else { 0 };
        assert_eq!(engine.live_word(&cone, q), Some(golden ^ 0b101));
        // The pipeline register reloads from the input: golden again.
        assert_eq!(engine.tick(&cone, Some(netj.row(4))), 0);
        assert_eq!(engine.state(), EngineState::Quiescent);
        assert_eq!(engine.live_word(&cone, q), None);
        engine.skip_to(9);
        assert_eq!(engine.cycle(), 9);
    }

    #[test]
    fn persistent_wide_upset_goes_dense_and_counts_the_whole_cone() {
        let cc = circuit();
        let netj = NetJournal::capture(&cc, &Enable(12));
        let cone = cc.ff_cone(FfId::from_index(0));
        let mut engine = FaultEngine::new(&cc);
        engine.attach(&cone, 2);
        // Flipping the counter's LSB ripples through the incrementer.
        engine.eval(&cone, netj.row(2), !0);
        assert_ne!(engine.tick(&cone, Some(netj.row(3))), 0);
        assert_eq!(engine.state(), EngineState::Dense);
        assert_eq!(engine.peak() as usize, cone.num_ops());
        let before = engine.ops_evaluated();
        engine.eval(&cone, netj.row(3), 0);
        assert_eq!(engine.ops_evaluated() - before, cone.num_ops() as u64);
        // A counter offset never heals: still Dense, still divergent.
        assert_eq!(engine.tick(&cone, Some(netj.row(4))), !0);
        assert_eq!(engine.state(), EngineState::Dense);
    }

    #[test]
    #[should_panic(expected = "skip_to")]
    fn skip_to_requires_quiescence() {
        let cc = circuit();
        let netj = NetJournal::capture(&cc, &Enable(12));
        let cone = cc.ff_cone(FfId::from_index(0));
        let mut engine = FaultEngine::new(&cc);
        engine.attach(&cone, 2);
        engine.eval(&cone, netj.row(2), 1);
        engine.tick(&cone, Some(netj.row(3)));
        engine.skip_to(8);
    }
}
