//! The branch-attackability walk.
//!
//! For every conditional branch, seed taint from its guard comparison
//! (the flag-setting `cmp`/`test` immediately dominating the `jcc`) and
//! walk the *not-taken* shadow — the path the CPU speculates down when
//! the bounds check mispredicts — propagating two taint lattices:
//!
//! * **attacker taint**: values derived from the guarded registers, i.e.
//!   values the attacker can push out of bounds by mistraining;
//! * **secret taint**: values loaded through an attacker-tainted
//!   address, i.e. out-of-bounds data.
//!
//! A load whose address is *secret*-tainted is a transmitter (the
//! dependent load of the Figure-1 gadget): the branch is
//! [`Verdict::Attackable`]. Everything else is benign with a stated
//! [`Reason`]. The walk is bounded by [`SHADOW_CAP`] instructions —
//! a generous over-approximation of any modelled speculation window —
//! follows direct jumps and calls inside the program, and stops at
//! serializing instructions (`lfence`), control-flow it cannot resolve
//! (indirect branches, `ret`), and privilege transitions.
//!
//! Sound-direction bias: untracked effects (store-to-load forwarding,
//! flag-register liveness across ALU ops) are approximated so that
//! imprecision creates *false positives*, never false negatives; the
//! [`crate::corpus`] property tests pin both directions.

use uarch::decode::DecodedProgram;
use uarch::program::INST_SIZE;
use uarch::{Cond, Inst, Reg};

use crate::counters;

/// Maximum number of shadow instructions walked past a branch. Larger
/// than any modelled speculation window (the deepest catalog entry
/// speculates ~224 µops), so capping here never hides a reachable
/// gadget.
pub const SHADOW_CAP: usize = 64;

/// How far behind a `jcc` the analysis looks for its guard comparison.
const GUARD_WINDOW: usize = 8;

/// What the analysis concluded about one conditional branch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The not-taken shadow contains the full gadget: tainted index →
    /// transient load → dependent-load transmit.
    Attackable,
    /// No transmitting gadget is reachable in the shadow.
    Benign,
}

/// Why the verdict came out the way it did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reason {
    /// A load at a secret-tainted address (`second_load`, an instruction
    /// index) transmits the value loaded at `first_load`.
    DependentLoadTransmit {
        /// Instruction index of the load that reads out of bounds.
        first_load: usize,
        /// Instruction index of the load that transmits it.
        second_load: usize,
    },
    /// No guard comparison dominates the branch, so nothing in the
    /// shadow is attacker-influenced.
    NoGuardComparison,
    /// The shadow ends (halt/ret/indirect/cap) before any instruction.
    EmptyShadow,
    /// A serializing `lfence` stops transient execution before any
    /// transmit.
    ShadowFenced,
    /// The guarded index is clamped (conditional-move mask or a narrow
    /// `and`) before it reaches a load.
    MaskedIndex,
    /// Tainted values exist but never reach a load address.
    NoTaintedLoad,
    /// An out-of-bounds load happens, but its result never reaches a
    /// second load's address — nothing transmits.
    NoTransmittingLoad,
}

/// Analysis result for one conditional branch.
#[derive(Clone, Debug)]
pub struct BranchFinding {
    /// Instruction index of the `jcc` in the analyzed stream.
    pub index: usize,
    /// Absolute code address of the `jcc`.
    pub addr: u64,
    /// The branch condition.
    pub cond: Cond,
    /// First register of the guard comparison, when one was found — the
    /// register an index mask would clamp.
    pub guard: Option<Reg>,
    /// Attackable or benign.
    pub verdict: Verdict,
    /// Why.
    pub reason: Reason,
}

/// Per-program analysis result: one [`BranchFinding`] per `jcc`.
#[derive(Clone, Debug, Default)]
pub struct BranchReport {
    /// Base address the program was analyzed at.
    pub base: u64,
    /// One finding per conditional branch, in instruction order.
    pub findings: Vec<BranchFinding>,
}

impl BranchReport {
    /// Number of conditional branches scanned.
    pub fn scanned(&self) -> usize {
        self.findings.len()
    }

    /// Number of branches flagged attackable.
    pub fn flagged(&self) -> usize {
        self.findings.iter().filter(|f| f.verdict == Verdict::Attackable).count()
    }

    /// True when at least one branch is flagged.
    pub fn any_attackable(&self) -> bool {
        self.findings.iter().any(|f| f.verdict == Verdict::Attackable)
    }

    /// Instruction indices of the flagged branches, in order.
    pub fn flagged_indices(&self) -> Vec<usize> {
        self.findings
            .iter()
            .filter(|f| f.verdict == Verdict::Attackable)
            .map(|f| f.index)
            .collect()
    }

    /// The finding for the branch at instruction index `idx`, if any.
    pub fn finding_at(&self, idx: usize) -> Option<&BranchFinding> {
        self.findings.iter().find(|f| f.index == idx)
    }
}

/// Per-register taint state for one shadow walk.
#[derive(Clone, Copy, Default)]
struct Taint {
    /// Bit per register: value derived from the guarded comparison.
    attacker: u16,
    /// Bit per register: value loaded through an attacker address.
    secret: u16,
}

impl Taint {
    fn attacker_has(&self, r: Reg) -> bool {
        self.attacker & (1 << r.index()) != 0
    }
    fn secret_has(&self, r: Reg) -> bool {
        self.secret & (1 << r.index()) != 0
    }
    fn set_attacker(&mut self, r: Reg) {
        self.attacker |= 1 << r.index();
    }
    fn clear(&mut self, r: Reg) {
        self.attacker &= !(1 << r.index());
        self.secret &= !(1 << r.index());
    }
    fn clear_attacker(&mut self, r: Reg) {
        self.attacker &= !(1 << r.index());
    }
    /// `dst` gets exactly `src`'s taint (a `mov` overwrite).
    fn copy(&mut self, dst: Reg, src: Reg) {
        let (d, s) = (1 << dst.index(), 1 << src.index());
        self.attacker = (self.attacker & !d) | if self.attacker & s != 0 { d } else { 0 };
        self.secret = (self.secret & !d) | if self.secret & s != 0 { d } else { 0 };
    }
    /// `dst` unions `src`'s taint (a two-operand ALU op keeps `dst` live).
    fn union(&mut self, dst: Reg, src: Reg) {
        let d = 1 << dst.index();
        if self.attacker & (1 << src.index()) != 0 {
            self.attacker |= d;
        }
        if self.secret & (1 << src.index()) != 0 {
            self.secret |= d;
        }
    }
}

/// An `and` with a mask this narrow is accepted as an index clamp (a
/// speculative-load-hardening-style bounds mask); anything wider leaves
/// attacker reach and stays tainted — the "insufficient mask" corpus
/// entry pins that.
const NARROW_MASK: u64 = 0xFFF;

/// Analyzes a linked instruction stream at `base`, producing one
/// finding per conditional branch. Process-wide
/// [`counters`](crate::counters) record scanned/flagged totals for the
/// Prometheus exposition.
pub fn analyze(base: u64, insts: &[Inst]) -> BranchReport {
    let mut findings = Vec::new();
    for (i, inst) in insts.iter().enumerate() {
        if let Inst::Jcc(cond, _) = *inst {
            findings.push(classify(base, insts, i, cond));
        }
    }
    let report = BranchReport { base, findings };
    counters::record_analysis(report.scanned() as u64, report.flagged() as u64);
    report
}

/// Analyzes a pre-decoded program (the form the machine executes) by
/// reconstructing its architectural instruction stream.
pub fn analyze_decoded(prog: &DecodedProgram) -> BranchReport {
    let insts: Vec<Inst> = (0..prog.len()).map(|i| prog.get(i).to_inst()).collect();
    analyze(prog.base(), &insts)
}

/// Finds the flag-setting instruction dominating the branch at `jcc`
/// and returns the registers it taints plus the maskable guard
/// register. The backward scan stops at control flow (another branch's
/// shadow has its own guard).
fn guard_taint(insts: &[Inst], jcc: usize) -> (Taint, Option<Reg>) {
    let mut taint = Taint::default();
    let lo = jcc.saturating_sub(GUARD_WINDOW);
    for k in (lo..jcc).rev() {
        match insts[k] {
            Inst::Cmp(a, b) | Inst::Test(a, b) => {
                taint.set_attacker(a);
                taint.set_attacker(b);
                return (taint, Some(a));
            }
            Inst::CmpImm(a, _) => {
                taint.set_attacker(a);
                return (taint, Some(a));
            }
            Inst::Jcc(..) | Inst::Jmp(_) | Inst::JmpInd(_) | Inst::Call(_)
            | Inst::CallInd(_) | Inst::Ret | Inst::Halt => break,
            _ => {}
        }
    }
    (taint, None)
}

/// Walks the not-taken shadow of the branch at instruction index `jcc`.
fn classify(base: u64, insts: &[Inst], jcc: usize, cond: Cond) -> BranchFinding {
    let addr = base + jcc as u64 * INST_SIZE;
    let end = base + insts.len() as u64 * INST_SIZE;
    let (mut taint, guard) = guard_taint(insts, jcc);

    let finding = |verdict, reason| BranchFinding { index: jcc, addr, cond, guard, verdict, reason };

    if taint.attacker == 0 {
        return finding(Verdict::Benign, Reason::NoGuardComparison);
    }

    let mut idx = jcc + 1;
    let mut steps = 0usize;
    let mut visited = vec![false; insts.len()];
    let mut first_load: Option<usize> = None;
    let mut saw_tainted_load = false;
    let mut saw_mask = false;
    let mut fenced = false;

    while idx < insts.len() && steps < SHADOW_CAP && !visited[idx] {
        visited[idx] = true;
        steps += 1;
        match insts[idx] {
            // Taint sources and sinks.
            Inst::Load { dst, base: b, .. } => {
                if taint.secret_has(b) {
                    return finding(
                        Verdict::Attackable,
                        Reason::DependentLoadTransmit {
                            first_load: first_load.unwrap_or(idx),
                            second_load: idx,
                        },
                    );
                }
                if taint.attacker_has(b) {
                    saw_tainted_load = true;
                    first_load.get_or_insert(idx);
                    taint.clear(dst);
                    taint.secret |= 1 << dst.index();
                } else {
                    taint.clear(dst);
                }
            }
            // Stores are not tracked through memory: a reload from an
            // untainted base comes back clean, which loses taint — an
            // accepted imprecision documented at the corpus.
            Inst::Store { .. } => {}

            // Clamps.
            Inst::Cmov(_, dst, src) => taint.union(dst, src),
            Inst::CmovImm(_, dst, _) => {
                if taint.attacker_has(dst) || taint.secret_has(dst) {
                    saw_mask = true;
                }
                taint.clear(dst);
            }
            Inst::AndImm(r, m) if m <= NARROW_MASK && taint.attacker_has(r) => {
                saw_mask = true;
                taint.clear_attacker(r);
            }
            Inst::AndImm(..) => {}

            // Overwrites and copies.
            Inst::MovImm(r, _) | Inst::Rdtsc(r) => taint.clear(r),
            Inst::Rdpmc { dst, .. } | Inst::Rdmsr { dst, .. } => taint.clear(dst),
            Inst::Mov(dst, src) => taint.copy(dst, src),
            Inst::Xor(dst, src) if dst == src => taint.clear(dst),

            // Two-operand ALU keeps dst live and unions src.
            Inst::Add(dst, src)
            | Inst::Sub(dst, src)
            | Inst::Mul(dst, src)
            | Inst::Div(dst, src)
            | Inst::And(dst, src)
            | Inst::Or(dst, src)
            | Inst::Xor(dst, src) => taint.union(dst, src),

            // Immediate ALU and shifts preserve taint.
            Inst::AddImm(..) | Inst::SubImm(..) | Inst::XorImm(..) | Inst::Shl(..)
            | Inst::Shr(..) | Inst::Not(..) => {}

            // Serialization stops the transient shadow.
            Inst::Lfence => {
                fenced = true;
                break;
            }

            // Control flow the walk can follow.
            Inst::Jmp(t) | Inst::Call(t) => {
                if t >= base && t < end && (t - base).is_multiple_of(INST_SIZE) {
                    idx = ((t - base) / INST_SIZE) as usize;
                    continue;
                }
                break;
            }
            // A nested branch speculates too; keep walking the
            // fall-through (conservative: the predictor may go either
            // way, and the fall-through is the path that extends the
            // current shadow).
            Inst::Jcc(..) => {}

            // Control flow the walk cannot resolve, and privilege
            // transitions, end the shadow.
            Inst::JmpInd(_) | Inst::CallInd(_) | Inst::Ret | Inst::Halt | Inst::Syscall
            | Inst::Sysret | Inst::Iret => break,

            // Everything else neither creates nor moves integer taint.
            _ => {}
        }
        idx += 1;
    }

    let reason = if steps == 0 {
        Reason::EmptyShadow
    } else if fenced {
        Reason::ShadowFenced
    } else if saw_tainted_load {
        Reason::NoTransmittingLoad
    } else if saw_mask {
        Reason::MaskedIndex
    } else {
        Reason::NoTaintedLoad
    };
    finding(Verdict::Benign, reason)
}
