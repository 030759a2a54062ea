//! Decode-layer property tests.
//!
//! Two guarantees pin the pre-decoded dispatch refactor:
//!
//! 1. **Lossless decode**: every constructible `isa::Inst` round-trips
//!    through `decode` → `DecodedInst::to_inst` bit-exactly (including
//!    NaN and signed-zero `f64` immediates, compared by bit pattern).
//! 2. **Stepper equivalence**: random programs executed by the decoded
//!    dispatch loop (`Machine::step`) and by the preserved reference
//!    interpreter (`Machine::step_reference`) produce identical
//!    architectural state, cycle counts, performance counters and L1D
//!    contents — including runs that end in faults or budget
//!    exhaustion, and on vulnerability profiles that open transient
//!    windows. Store-bypass programs pin the window shape figure3 spends
//!    its time in: a forwarded reload opens the window and a branch-free
//!    body of loads and stores runs it to the cap.

use uarch::decode::decode;
use uarch::isa::{Cond, FReg, Inst, Pmc, Reg, Width};
use uarch::machine::{Machine, NoEnv};
use uarch::mmu::{make_cr3, PageTable, Pte};
use uarch::model::{CpuModel, Vendor};
use uarch::program::ProgramBuilder;

/// Deterministic xorshift* PRNG (no external deps, stable across runs).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn insts_equal(a: &Inst, b: &Inst) -> bool {
    match (a, b) {
        // f64 PartialEq fails on NaN; immediates must match by bit pattern.
        (Inst::FmovImm(r1, v1), Inst::FmovImm(r2, v2)) => {
            r1 == r2 && v1.to_bits() == v2.to_bits()
        }
        _ => a == b,
    }
}

/// Every constructible instruction, with operand fields swept over all
/// registers / widths / conditions and a boundary-value immediate set.
fn all_insts() -> Vec<Inst> {
    let imms: [u64; 6] = [0, 1, 0xff, 0x8000_0000_0000_0000, u64::MAX, 0x1234_5678_9abc_def0];
    let offs: [i64; 5] = [0, 8, -8, i64::MAX, i64::MIN];
    let f64s: [f64; 6] = [0.0, -0.0, 2.5, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE];
    let mut v = Vec::new();

    v.extend([Inst::Nop, Inst::Pause, Inst::Halt, Inst::Vmcall, Inst::Lfence, Inst::Mfence]);
    v.extend([Inst::Sfence, Inst::Ret, Inst::Syscall, Inst::Sysret, Inst::Swapgs, Inst::Iret]);
    v.extend([Inst::Verw, Inst::Xsave, Inst::Xrstor]);
    for id in [0u16, 1, 0x7fff, u16::MAX] {
        v.push(Inst::Host(id));
    }
    for a in Reg::ALL {
        v.extend([
            Inst::Not(a),
            Inst::Clflush(a),
            Inst::Rdtsc(a),
            Inst::JmpInd(a),
            Inst::CallInd(a),
            Inst::MovCr3(a),
            Inst::Invlpg(a),
        ]);
        for n in [0u8, 1, 63, 255] {
            v.push(Inst::Shl(a, n));
            v.push(Inst::Shr(a, n));
        }
        for imm in imms {
            v.extend([
                Inst::MovImm(a, imm),
                Inst::AddImm(a, imm),
                Inst::SubImm(a, imm),
                Inst::AndImm(a, imm),
                Inst::XorImm(a, imm),
                Inst::CmpImm(a, imm),
            ]);
        }
        for b in Reg::ALL {
            v.extend([
                Inst::Mov(a, b),
                Inst::Add(a, b),
                Inst::Sub(a, b),
                Inst::Mul(a, b),
                Inst::Div(a, b),
                Inst::And(a, b),
                Inst::Or(a, b),
                Inst::Xor(a, b),
                Inst::Cmp(a, b),
                Inst::Test(a, b),
            ]);
            for w in Width::ALL {
                for off in offs {
                    v.push(Inst::Load { dst: a, base: b, offset: off, width: w });
                    v.push(Inst::Store { src: a, base: b, offset: off, width: w });
                }
            }
        }
        for c in Cond::ALL {
            for imm in imms {
                v.push(Inst::CmovImm(c, a, imm));
            }
            for b in Reg::ALL {
                v.push(Inst::Cmov(c, a, b));
            }
        }
        for p in Pmc::ALL {
            v.push(Inst::Rdpmc { pmc: p, dst: a });
        }
        for msr in [0u32, 0x48, 0x49, 0x10b, u32::MAX] {
            v.push(Inst::Wrmsr { msr, src: a });
            v.push(Inst::Rdmsr { msr, dst: a });
        }
    }
    for target in [0u64, 4, 0x1000, !3u64] {
        v.push(Inst::Jmp(target));
        v.push(Inst::Call(target));
        for c in Cond::ALL {
            v.push(Inst::Jcc(c, target));
        }
    }
    for a in FReg::ALL {
        for b in FReg::ALL {
            v.extend([Inst::Fadd(a, b), Inst::Fsub(a, b), Inst::Fmul(a, b), Inst::Fdiv(a, b)]);
        }
        v.push(Inst::FtoG(Reg::R3, a));
        for f in f64s {
            v.push(Inst::FmovImm(a, f));
        }
        for b in Reg::ALL {
            for off in offs {
                v.push(Inst::Fload { dst: a, base: b, offset: off });
                v.push(Inst::Fstore { src: a, base: b, offset: off });
            }
        }
    }
    v
}

#[test]
fn every_inst_roundtrips_through_decode() {
    let insts = all_insts();
    assert!(insts.len() > 10_000, "sweep should be broad, got {}", insts.len());
    for inst in &insts {
        let d = decode(inst);
        let back = d.to_inst();
        assert!(
            insts_equal(inst, &back),
            "round-trip mismatch: {inst:?} -> {d:?} -> {back:?}"
        );
        assert_eq!(d.is_privileged(), inst.is_privileged(), "privilege bit for {inst:?}");
    }
}

const CODE_BASE: u64 = 0x40_0000;
const DATA_BASE: u64 = 0x1_0000;
const DATA_PAGES: u64 = 16;
/// Physical address of the first data page (`fresh_machine` maps the
/// data pages to frames from 0x100 up).
const DATA_PADDR: u64 = 0x100 << 12;

/// One random instruction, biased toward runnable programs: register
/// values frequently reseeded to mapped data addresses, branch targets
/// inside the program, the occasional wild operand to exercise fault and
/// serialization paths on both steppers.
fn gen_inst(rng: &mut Rng, prog_len: u64) -> Inst {
    let r = Reg::ALL[rng.below(16) as usize];
    let s = Reg::ALL[rng.below(16) as usize];
    let w = Width::ALL[rng.below(4) as usize];
    let c = Cond::ALL[rng.below(10) as usize];
    let f = FReg::ALL[rng.below(8) as usize];
    let g = FReg::ALL[rng.below(8) as usize];
    let target = CODE_BASE + 4 * rng.below(prog_len + 1);
    let data = DATA_BASE + rng.below(DATA_PAGES * 4096 - 8);
    match rng.below(100) {
        0..=19 => Inst::MovImm(r, data), // keep pointers mostly valid
        20..=22 => Inst::MovImm(r, rng.next()),
        23..=27 => Inst::AddImm(r, rng.below(64)),
        28..=30 => Inst::Sub(r, s),
        31..=33 => Inst::Mul(r, s),
        34 => Inst::Div(r, s),
        35..=37 => Inst::And(r, s),
        38..=39 => Inst::Or(r, s),
        40..=41 => Inst::Xor(r, s),
        42 => Inst::Shl(r, rng.below(70) as u8),
        43 => Inst::Shr(r, rng.below(70) as u8),
        44 => Inst::Not(r),
        45..=54 => Inst::Load { dst: r, base: s, offset: rng.below(64) as i64, width: w },
        55..=64 => Inst::Store { src: r, base: s, offset: rng.below(64) as i64, width: w },
        65..=68 => Inst::Cmp(r, s),
        69..=70 => Inst::CmpImm(r, rng.below(1 << 32)),
        71 => Inst::Test(r, s),
        72..=78 => Inst::Jcc(c, target),
        79..=80 => Inst::Jmp(target),
        81 => Inst::JmpInd(r),
        82 => Inst::Cmov(c, r, s),
        83 => Inst::CmovImm(c, r, rng.next()),
        84 => Inst::Lfence,
        85 => Inst::Mfence,
        86 => Inst::Clflush(r),
        87 => Inst::Rdtsc(r),
        88 => Inst::Rdpmc { pmc: Pmc::ALL[rng.below(6) as usize], dst: r },
        89 => Inst::Fadd(f, g),
        90 => Inst::Fmul(f, g),
        91 => Inst::FmovImm(f, rng.next() as f64),
        92 => Inst::Fload { dst: f, base: s, offset: rng.below(64) as i64 },
        93 => Inst::Fstore { src: f, base: s, offset: rng.below(64) as i64 },
        94 => Inst::FtoG(r, g),
        95 => Inst::Pause,
        // Rare wild cards: unmapped pointer, serializing, privileged-path.
        96 => Inst::MovImm(r, 0xdead_0000 + rng.below(0x1000)),
        97 => Inst::Verw,
        98 => Inst::Invlpg(r),
        _ => Inst::Nop,
    }
}

/// The vulnerability/vendor profiles the equivalence sweep runs under:
/// each opens different transient-window and mitigation code paths.
fn models() -> Vec<CpuModel> {
    let base = CpuModel::test_model();
    let mut ssb = CpuModel::test_model();
    ssb.vuln.ssb = true;
    let mut meltdown = CpuModel::test_model();
    meltdown.vuln.meltdown = true;
    meltdown.vuln.mds = true;
    let mut amd = CpuModel::test_model();
    amd.vendor = Vendor::Amd;
    amd.vuln.ssb = true;
    let mut lazy = CpuModel::test_model();
    lazy.vuln.lazy_fp = true;
    vec![base, ssb, meltdown, amd, lazy]
}

fn fresh_machine(model: CpuModel, program: &[Inst], fpu_enabled: bool) -> Machine {
    let mut m = Machine::new(model);
    let mut pt = PageTable::new();
    pt.map_range(DATA_BASE, 0x100, DATA_PAGES, Pte::user(0));
    let id = m.mmu.register_table(pt);
    assert!(m.mmu.load_cr3(make_cr3(id, 0, false)));
    let mut b = ProgramBuilder::new();
    for inst in program {
        b.push(inst.clone());
    }
    b.push(Inst::Halt);
    m.load_program(b.link(CODE_BASE));
    m.pc = CODE_BASE;
    m.set_reg(Reg::SP, DATA_BASE + DATA_PAGES * 4096 - 0x100);
    m.fpu.enabled = fpu_enabled;
    m
}

/// Everything observable that both steppers must agree on, the L1D
/// included: a transient load's only lasting effect is the line it
/// fills, so a window that skips or misplaces a fill shows up here.
fn fingerprint(m: &Machine) -> String {
    let pmcs: Vec<u64> = Pmc::ALL.iter().map(|p| m.pmc.read(*p)).collect();
    // One bit per 64-byte line of the mapped data pages (frames 0x100..).
    let mut l1d = [0u64; (DATA_PAGES * 4096 / 64 / 64) as usize];
    for line in 0..DATA_PAGES * 4096 / 64 {
        if m.l1d.probe(DATA_PADDR + line * 64) {
            l1d[(line / 64) as usize] |= 1 << (line % 64);
        }
    }
    format!(
        "regs={:?} flags={:?} pc={:#x} mode={:?} cycles={} insts={} pmcs={:?} windows={} tlb={} sb={} fwd={} frames={} l1d={} {:x?}",
        m.regs,
        m.flags,
        m.pc,
        m.mode,
        m.cycles(),
        m.inst_count(),
        pmcs,
        m.transient_window_count(),
        m.mmu.tlb_len(),
        m.store_buffer.len(),
        m.store_buffer.forwards,
        m.mem.resident_frames(),
        m.l1d.resident_lines(),
        l1d,
    )
}

/// Steps both engines in lockstep, comparing the outcome and the
/// fingerprint after every instruction, until the program stops, errs
/// or `steps` run out. Returns the outcome and the length of every
/// transient window the decoded engine opened (one step opens at most
/// one).
fn lockstep(fast: &mut Machine, slow: &mut Machine, steps: u32, label: &str) -> (String, Vec<u64>) {
    let mut windows = Vec::new();
    for step in 0..steps {
        let (opened, ran) = (fast.transient_window_count(), fast.transient_inst_count());
        let a = format!("{:?}", fast.step(&mut NoEnv));
        let b = format!("{:?}", slow.step_reference(&mut NoEnv));
        assert_eq!(a, b, "{label}, step {step}: outcome diverged");
        assert_eq!(fingerprint(fast), fingerprint(slow), "{label}, step {step}: state diverged");
        if fast.transient_window_count() > opened {
            windows.push(fast.transient_inst_count() - ran);
        }
        if a != "Ok(None)" {
            return (a, windows);
        }
    }
    ("step limit".to_string(), windows)
}

#[test]
fn random_programs_match_reference_stepper() {
    const PROG_LEN: u64 = 200;
    const BUDGET: u64 = 20_000;
    let models = models();
    for seed in 1..=40u64 {
        let mut rng = Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let program: Vec<Inst> =
            (0..PROG_LEN).map(|_| gen_inst(&mut rng, PROG_LEN)).collect();
        let model = models[(seed as usize) % models.len()].clone();
        let fpu_enabled = seed % 3 != 0;

        let mut fast = fresh_machine(model.clone(), &program, fpu_enabled);
        let mut slow = fresh_machine(model, &program, fpu_enabled);
        let fast_result = fast.run(&mut NoEnv, BUDGET);
        let slow_result = slow.run_reference(&mut NoEnv, BUDGET);

        assert_eq!(
            format!("{fast_result:?}"),
            format!("{slow_result:?}"),
            "seed {seed}: stop/error diverged"
        );
        assert_eq!(
            fingerprint(&fast),
            fingerprint(&slow),
            "seed {seed}: architectural state diverged"
        );
    }
}

#[test]
fn single_steps_match_reference_at_every_instruction() {
    // Lockstep comparison surfaces the *first* diverging instruction
    // rather than an end-state mismatch 10k instructions later.
    const PROG_LEN: u64 = 120;
    let mut rng = Rng::new(0xdec0de);
    let program: Vec<Inst> = (0..PROG_LEN).map(|_| gen_inst(&mut rng, PROG_LEN)).collect();
    let mut ssb = CpuModel::test_model();
    ssb.vuln.ssb = true;
    let mut fast = fresh_machine(ssb.clone(), &program, true);
    let mut slow = fresh_machine(ssb, &program, true);
    lockstep(&mut fast, &mut slow, 2_000, "random program");
}

/// A store-bypass program: each block stores a fresh value through R12
/// and reloads the same slot through its alias R13 into R14, so the
/// forwarded reload opens an SSB window whose R14 holds the stale
/// value. A branch-free body of `body` ALU, load and store instructions
/// follows; it is longer than the window, so the window runs to the cap
/// unless a load stalls on a partial overlap with a store inside it.
/// The body writes only R0..R7 and addresses memory through the
/// pointers R8..R11 or through R14 masked into a line index, so the
/// stale and the fresh world fill different lines.
fn gen_ssb_program(rng: &mut Rng, blocks: usize, body: usize) -> Vec<Inst> {
    let mut p = vec![
        Inst::MovImm(Reg::R8, DATA_BASE),
        Inst::MovImm(Reg::R9, DATA_BASE + 0x4000),
        Inst::MovImm(Reg::R10, DATA_BASE + 0x8000),
        Inst::MovImm(Reg::R11, DATA_BASE + 0xc000),
        Inst::MovImm(Reg::R12, DATA_BASE + 0xf000),
        Inst::Mov(Reg::R13, Reg::R12),
    ];
    for _ in 0..blocks {
        let v = Reg::ALL[rng.below(8) as usize];
        let slot = 8 * rng.below(64) as i64;
        p.push(Inst::MovImm(v, rng.next()));
        p.push(Inst::Store { src: v, base: Reg::R12, offset: slot, width: Width::B8 });
        p.push(Inst::Load { dst: Reg::R14, base: Reg::R13, offset: slot, width: Width::B8 });
        let end = p.len() + body;
        while p.len() < end {
            let r = Reg::ALL[rng.below(8) as usize];
            let s = Reg::ALL[rng.below(8) as usize];
            let ptr = Reg::ALL[8 + rng.below(4) as usize];
            let offset = 8 * rng.below(0x4000 / 8) as i64;
            let width = Width::ALL[rng.below(4) as usize];
            let inst = match rng.below(12) {
                0 => Inst::Add(r, s),
                1 => Inst::SubImm(r, rng.below(64)),
                2 => Inst::Mul(r, s),
                3 => Inst::Xor(r, s),
                4 => Inst::Shr(r, rng.below(64) as u8),
                5 => Inst::Cmp(r, s),
                6 | 7 => Inst::Load { dst: r, base: ptr, offset, width },
                8 | 9 => Inst::Store { src: r, base: ptr, offset, width },
                _ => {
                    // The leak gadget: a load indexed by the reloaded value.
                    p.push(Inst::Mov(r, Reg::R14));
                    p.push(Inst::AndImm(r, 0xffc0));
                    p.push(Inst::Add(r, Reg::R8));
                    Inst::Load { dst: s, base: r, offset: 0, width: Width::B8 }
                }
            };
            p.push(inst);
        }
    }
    p
}

#[test]
fn store_bypass_windows_match_reference_in_lockstep() {
    let mut opened = 0;
    let mut capped = 0;
    for (i, model) in models().into_iter().filter(|m| m.vuln.ssb).enumerate() {
        let cap = model.spec.window as u64;
        for seed in 0..2u64 {
            let label = format!("model {i}, seed {seed}");
            let mut rng = Rng::new(0x55b_0000 + 16 * i as u64 + seed);
            let program = gen_ssb_program(&mut rng, 16, cap as usize + 16);
            let mut fast = fresh_machine(model.clone(), &program, true);
            let mut slow = fresh_machine(model.clone(), &program, true);
            let (outcome, windows) = lockstep(&mut fast, &mut slow, 20_000, &label);
            assert_eq!(outcome, "Ok(Some(Halted))", "{label}: the program runs to its halt");
            opened += windows.len();
            capped += windows.iter().filter(|&&n| n == cap).count();
        }
    }
    // Every block's reload opens a window, so a test that stops opening
    // them (or stops running them to the cap) fails here, not silently.
    assert!(opened >= 100, "only {opened} store-bypass windows opened");
    assert!(capped * 4 >= opened * 3, "only {capped} of {opened} windows reached the cap");
}

/// An `rdpmc` of the transient-instruction counter inside a wrong-path
/// window, its count fed through `AndImm`/`Shl`/`Add` into the index of
/// a data-page load: the line that load fills names the count the
/// window read. Windows count their instructions once at the end, so
/// one that did not flush its pending count before the `rdpmc` would
/// fill another line, and the lockstep L1D fingerprint would diverge.
#[test]
fn rdpmc_inside_a_window_reads_a_count_that_includes_itself() {
    let mut program = vec![Inst::MovImm(Reg::R8, DATA_BASE), Inst::MovImm(Reg::R0, 0)];
    for block in 0..8 {
        // `CmpImm; Jcc` taken past the gadget, predicted not taken: the
        // gadget runs on the wrong path, after `block` filler
        // instructions.
        let gadget = [
            Inst::Rdpmc { pmc: Pmc::TransientInstructions, dst: Reg::R5 },
            Inst::AndImm(Reg::R5, 63),
            Inst::Shl(Reg::R5, 6),
            Inst::Add(Reg::R5, Reg::R8),
            Inst::Load { dst: Reg::R6, base: Reg::R5, offset: 0, width: Width::B8 },
        ];
        let after = program.len() as u64 + 2 + block + gadget.len() as u64;
        program.push(Inst::CmpImm(Reg::R0, 0));
        program.push(Inst::Jcc(Cond::Eq, CODE_BASE + after * 4));
        program.extend((0..block).map(|_| Inst::AddImm(Reg::R1, 1)));
        program.extend(gadget);
    }
    let model = CpuModel::test_model();
    let mut fast = fresh_machine(model.clone(), &program, true);
    let mut slow = fresh_machine(model, &program, true);
    let (outcome, windows) = lockstep(&mut fast, &mut slow, 1_000, "rdpmc in a window");
    assert_eq!(outcome, "Ok(Some(Halted))");
    // A branch whose gshare counter another branch already trained
    // predicts right and opens no window; most blocks must open one.
    assert!(windows.len() >= 6, "only {} of 8 blocks opened a window", windows.len());
    // The first window's `rdpmc` is its first instruction: it reads 1.
    assert!(fast.l1d.probe(DATA_PADDR + 64), "the first window's count included its rdpmc");
}
