//! Property-based tests over the core invariants, driven by a
//! hand-rolled seeded generator (no external framework):
//!
//! * architectural determinism: mitigations may change *timing* and
//!   microarchitectural state, but never computed results;
//! * the JIT agrees with the reference interpreter on randomly generated
//!   bytecode programs, under random mitigation sets;
//! * the in-kernel BPF JIT agrees with the BPF reference interpreter;
//! * the decoded dispatch loop and the reference stepper retire
//!   identical, pinned work on five loops (branch, load/store, syscall,
//!   wrong-path window, store-bypass window);
//! * statistics invariants: geomean bounds, accumulator mean, noise
//!   reproducibility, no panic/NaN on empty/single/zero/infinite input,
//!   and a 95% CI that shrinks monotonically with sample count;
//! * host work: the frames each LEBench op leaves resident are pinned,
//!   and so is one digest of every op's cycles and frames per paper CPU
//!   and boot line.

use js_engine::{Engine, FunctionBuilder, JsMitigations, Op};
use sim_kernel::BootParams;
use spectrebench::stats::{
    geomean, measure_until, Accumulator, NoiseModel, StatsError, StopPolicy,
};
use uarch::isa::{Cond, Inst, Reg, Width};
use uarch::machine::{Machine, NoEnv};
use uarch::mmu::{make_cr3, PageTable, Pte};
use uarch::model::CpuModel;
use uarch::predictor::PrivMode;
use uarch::ProgramBuilder;
use workloads::LeBenchOp;

mod support;
use support::Rng;

// ---------------------------------------------------------------------
// Machine-level properties.
// ---------------------------------------------------------------------

/// A tiny random straight-line program over R0–R5 plus memory in a fixed
/// arena, ending in Halt.
#[derive(Debug, Clone)]
enum RandOp {
    MovImm(u8, u32),
    Add(u8, u8),
    Sub(u8, u8),
    Mul(u8, u8),
    Xor(u8, u8),
    Shl(u8, u8),
    Store(u8, u16),
    Load(u8, u16),
    CmpJump(u8, u32),
}

fn rand_op(rng: &mut Rng) -> RandOp {
    let r = |rng: &mut Rng| rng.below(6) as u8;
    match rng.below(9) {
        0 => RandOp::MovImm(r(rng), rng.next() as u32),
        1 => RandOp::Add(r(rng), r(rng)),
        2 => RandOp::Sub(r(rng), r(rng)),
        3 => RandOp::Mul(r(rng), r(rng)),
        4 => RandOp::Xor(r(rng), r(rng)),
        5 => RandOp::Shl(r(rng), rng.below(16) as u8),
        6 => RandOp::Store(r(rng), (rng.below(512) * 8) as u16),
        7 => RandOp::Load(r(rng), (rng.below(512) * 8) as u16),
        _ => RandOp::CmpJump(r(rng), rng.next() as u32),
    }
}

fn rand_program(rng: &mut Rng, max_len: u64) -> Vec<RandOp> {
    let len = 1 + rng.below(max_len);
    (0..len).map(|_| rand_op(rng)).collect()
}

fn build_machine(model: CpuModel, ops: &[RandOp]) -> Machine {
    let mut m = Machine::new(model);
    let mut pt = PageTable::new();
    pt.map_range(0x10_0000, 0x100, 16, Pte::user(0));
    pt.map_range(0x20_0000 - 0x4000, 0x300, 4, Pte::user(0));
    let t = m.mmu.register_table(pt);
    assert!(m.mmu.load_cr3(make_cr3(t, 0, false)));
    m.set_reg(Reg::SP, 0x20_0000 - 64);
    m.mode = PrivMode::User;

    let mut b = ProgramBuilder::new();
    b.mov_imm(Reg::R7, 0x10_0000); // arena base
    for op in ops {
        let r = |i: &u8| Reg::from_index(*i as usize);
        match op {
            RandOp::MovImm(d, v) => {
                b.mov_imm(r(d), *v as u64);
            }
            RandOp::Add(d, s) => {
                b.push(Inst::Add(r(d), r(s)));
            }
            RandOp::Sub(d, s) => {
                b.push(Inst::Sub(r(d), r(s)));
            }
            RandOp::Mul(d, s) => {
                b.push(Inst::Mul(r(d), r(s)));
            }
            RandOp::Xor(d, s) => {
                b.push(Inst::Xor(r(d), r(s)));
            }
            RandOp::Shl(d, k) => {
                b.push(Inst::Shl(r(d), *k));
            }
            RandOp::Store(s, off) => {
                b.push(Inst::Store {
                    src: r(s),
                    base: Reg::R7,
                    offset: *off as i64,
                    width: Width::B8,
                });
            }
            RandOp::Load(d, off) => {
                b.push(Inst::Load {
                    dst: r(d),
                    base: Reg::R7,
                    offset: *off as i64,
                    width: Width::B8,
                });
            }
            RandOp::CmpJump(a, v) => {
                // A short forward conditional skip over one nop: exercises
                // the predictor + transient path without changing results.
                let skip = b.new_label();
                b.cmp_imm(r(a), *v as u64);
                b.jcc(Cond::Below, skip);
                b.push(Inst::Nop);
                b.bind(skip);
            }
        }
    }
    b.push(Inst::Halt);
    m.load_program(b.link(0x1000));
    m.pc = 0x1000;
    m
}

fn final_regs(model: CpuModel, ops: &[RandOp]) -> [u64; 16] {
    let mut m = build_machine(model, ops);
    m.run(&mut NoEnv, 1_000_000).expect("random program halts");
    m.regs
}

/// The architectural result of a program is identical on every CPU
/// model: speculation, SSBD, history-tagged BTBs etc. only change
/// timing and microarchitectural state.
#[test]
fn architectural_results_are_model_independent() {
    for seed in 0..64 {
        let ops = rand_program(&mut Rng::new(seed), 40);
        let reference = final_regs(cpu_models::broadwell(), &ops);
        for model in [cpu_models::ice_lake_server(), cpu_models::zen3(), cpu_models::zen()] {
            assert_eq!(final_regs(model, &ops), reference, "seed {seed}");
        }
    }
}

/// Forcing SSBD changes cycles, never results.
#[test]
fn ssbd_changes_timing_not_results() {
    use uarch::isa::{msr_index, spec_ctrl};
    for seed in 0..64 {
        let ops = rand_program(&mut Rng::new(0x55B_D000 + seed), 40);
        let plain = final_regs(cpu_models::zen3(), &ops);
        let mut m = build_machine(cpu_models::zen3(), &ops);
        m.msrs.write(msr_index::IA32_SPEC_CTRL, spec_ctrl::SSBD).unwrap();
        m.run(&mut NoEnv, 1_000_000).expect("halts");
        assert_eq!(m.regs, plain, "seed {seed}");
    }
}

/// The simulator is deterministic: two fresh machines running the
/// same program produce identical registers *and* identical cycle
/// counts (there is no hidden global state).
#[test]
fn fresh_runs_are_fully_deterministic() {
    for seed in 0..64 {
        let ops = rand_program(&mut Rng::new(0xDE7_0000 + seed), 30);
        let mut a = build_machine(cpu_models::skylake_client(), &ops);
        a.run(&mut NoEnv, 1_000_000).expect("halts");
        let mut b = build_machine(cpu_models::skylake_client(), &ops);
        b.run(&mut NoEnv, 1_000_000).expect("halts");
        assert_eq!(a.regs, b.regs, "seed {seed}");
        assert_eq!(a.cycles(), b.cycles(), "seed {seed}");
    }
}

// ---------------------------------------------------------------------
// JS engine differential properties.
// ---------------------------------------------------------------------

/// Random arithmetic-only bytecode over 3 locals (always stack-balanced:
/// generated as expression evaluation).
#[derive(Debug, Clone)]
enum JsExpr {
    Const(i32),
    Local(u8),
    Add(Box<JsExpr>, Box<JsExpr>),
    Sub(Box<JsExpr>, Box<JsExpr>),
    Mul(Box<JsExpr>, Box<JsExpr>),
    And(Box<JsExpr>, Box<JsExpr>),
}

fn js_expr(rng: &mut Rng, depth: u32) -> JsExpr {
    if depth == 0 || rng.below(3) == 0 {
        return if rng.bool() {
            JsExpr::Const(rng.next() as i32)
        } else {
            JsExpr::Local(rng.below(3) as u8)
        };
    }
    let a = Box::new(js_expr(rng, depth - 1));
    let b = Box::new(js_expr(rng, depth - 1));
    match rng.below(4) {
        0 => JsExpr::Add(a, b),
        1 => JsExpr::Sub(a, b),
        2 => JsExpr::Mul(a, b),
        _ => JsExpr::And(a, b),
    }
}

fn emit_expr(f: &mut FunctionBuilder, e: &JsExpr) {
    match e {
        JsExpr::Const(v) => {
            f.op(Op::Const(*v as i64));
        }
        JsExpr::Local(n) => {
            f.op(Op::GetLocal(*n));
        }
        JsExpr::Add(a, b) => {
            emit_expr(f, a);
            emit_expr(f, b);
            f.op(Op::Add);
        }
        JsExpr::Sub(a, b) => {
            emit_expr(f, a);
            emit_expr(f, b);
            f.op(Op::Sub);
        }
        JsExpr::Mul(a, b) => {
            emit_expr(f, a);
            emit_expr(f, b);
            f.op(Op::Mul);
        }
        JsExpr::And(a, b) => {
            emit_expr(f, a);
            emit_expr(f, b);
            f.op(Op::And);
        }
    }
}

/// The JIT (on the simulator, with arbitrary mitigation sets) agrees
/// with the reference interpreter on random expression programs.
#[test]
fn jit_matches_interpreter() {
    for seed in 0..24 {
        let mut rng = Rng::new(0x15_E7 + seed);
        let e = js_expr(&mut rng, 4);
        let l0 = rng.next() as i32;
        let l1 = rng.next() as i32;
        let mits = JsMitigations {
            index_masking: rng.bool(),
            object_guards: rng.bool(),
            other_js: rng.bool(),
        };

        let mut engine = Engine::new();
        let mut f = FunctionBuilder::new("main", 0, 3);
        f.op(Op::Const(l0 as i64));
        f.op(Op::SetLocal(0));
        f.op(Op::Const(l1 as i64));
        f.op(Op::SetLocal(1));
        emit_expr(&mut f, &e);
        f.op(Op::Return);
        let fid = engine.add_function(f.build());
        engine.set_main(fid);

        let expect = engine.interpret().expect("interpreter runs");
        let out = engine.run_jit(&cpu_models::zen2(), &BootParams::default(), mits);
        assert_eq!(out.result, expect, "seed {seed} under {mits:?}");
    }
}

// ---------------------------------------------------------------------
// Statistics properties.
// ---------------------------------------------------------------------

/// Geomean lies between min and max.
#[test]
fn geomean_bounded() {
    for seed in 0..64 {
        let mut rng = Rng::new(0x6E0 + seed);
        let n = 1 + rng.below(30);
        let v: Vec<f64> = (0..n).map(|_| 0.001 + rng.unit() * 1e9).collect();
        let g = geomean(&v);
        let min = v.iter().cloned().fold(f64::MAX, f64::min);
        let max = v.iter().cloned().fold(0.0, f64::max);
        assert!(g >= min * 0.999 && g <= max * 1.001, "seed {seed}: {g} vs [{min}, {max}]");
    }
}

/// The accumulator's mean equals the arithmetic mean.
#[test]
fn accumulator_mean_matches() {
    for seed in 0..64 {
        let mut rng = Rng::new(0xACC + seed);
        let n = 1 + rng.below(100);
        let v: Vec<f64> = (0..n).map(|_| (rng.unit() - 0.5) * 2e6).collect();
        let mut a = Accumulator::new();
        for x in &v {
            a.add(*x);
        }
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            (a.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()),
            "seed {seed}: {} vs {mean}",
            a.mean()
        );
    }
}

/// Noise streams are reproducible from the seed.
#[test]
fn noise_reproducible() {
    for seed in 0..64 {
        let s = Rng::new(0x4015E + seed).next();
        let mut a = NoiseModel::paper_default(s);
        let mut b = NoiseModel::paper_default(s);
        for _ in 0..10 {
            assert_eq!(a.factor(), b.factor());
        }
    }
}

/// Degenerate inputs never panic and never smuggle NaN into results:
/// empty and constant-zero geomeans are defined, a fresh accumulator
/// reports infinite (not NaN) statistics, single samples have zero
/// variance, and infinities poison rather than crash.
#[test]
fn degenerate_statistics_inputs_are_total() {
    // geomean: empty, single, zero, infinite.
    assert_eq!(geomean(&[]), 1.0);
    assert_eq!(geomean(&[7.25]), 7.25);
    assert_eq!(geomean(&[0.0, 1.0]), 0.0);
    assert_eq!(geomean(&[f64::INFINITY, 1.0]), f64::INFINITY);
    assert_eq!(geomean(&[f64::NAN]), 0.0);

    // Accumulator: empty / single / non-finite.
    let empty = Accumulator::new();
    assert!(!empty.mean().is_nan());
    assert!(!empty.variance().is_nan());
    let mut single = Accumulator::new();
    single.add(3.0);
    assert_eq!(single.mean(), 3.0);
    assert_eq!(single.variance(), 0.0);
    let mut inf = Accumulator::new();
    inf.add(f64::INFINITY);
    assert!(inf.is_degenerate());
    let mut nan = Accumulator::new();
    nan.add(f64::NAN);
    assert!(nan.is_degenerate());

    // measure_until: a NaN sample is a typed error, not a poisoned mean.
    let policy = StopPolicy { min_runs: 3, max_runs: 5, target_relative_ci: 0.01 };
    let err = measure_until(policy, || f64::NAN);
    assert!(matches!(err, Err(StatsError::NonFiniteSample { .. })));
    // Zero samples are legitimate (relative CI guards divide-by-zero).
    let m = measure_until(policy, || 0.0).expect("zeros are finite");
    assert_eq!(m.mean, 0.0);
    assert!(!m.ci95.is_nan());
}

/// Welford's single-pass moments agree with the naive two-pass mean and
/// unbiased variance on random samples spanning many magnitudes.
#[test]
fn accumulator_matches_two_pass_variance() {
    for seed in 0..64 {
        let mut rng = Rng::new(0x2FA55 + seed);
        let n = 2 + rng.below(200);
        let scale = 10f64.powi(rng.below(9) as i32 - 3);
        let v: Vec<f64> = (0..n).map(|_| (rng.unit() - 0.5) * scale).collect();

        let mut a = Accumulator::new();
        for x in &v {
            a.add(*x);
        }
        let mean = v.iter().sum::<f64>() / v.len() as f64;
        let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (v.len() - 1) as f64;
        assert!(
            (a.mean() - mean).abs() <= 1e-9 * (1.0 + mean.abs()),
            "seed {seed}: mean {} vs two-pass {mean}",
            a.mean()
        );
        assert!(
            (a.variance() - var).abs() <= 1e-9 * (1.0 + var),
            "seed {seed}: variance {} vs two-pass {var}",
            a.variance()
        );
    }
}

/// Geomean is permutation-invariant: reordering the slice changes only
/// floating-point rounding, never the value beyond ~1 ulp-scale noise.
#[test]
fn geomean_is_permutation_invariant() {
    for seed in 0..64 {
        let mut rng = Rng::new(0x6E02 + seed);
        let n = 2 + rng.below(40);
        let v: Vec<f64> = (0..n).map(|_| 0.001 + rng.unit() * 1e6).collect();
        let reference = geomean(&v);

        let mut shuffled = v.clone();
        // Fisher–Yates with the same deterministic generator.
        for i in (1..shuffled.len()).rev() {
            let j = rng.below(i as u64 + 1) as usize;
            shuffled.swap(i, j);
        }
        let permuted = geomean(&shuffled);
        assert!(
            (permuted - reference).abs() <= 1e-12 * reference,
            "seed {seed}: {permuted} vs {reference}"
        );
    }
}

/// The 95% confidence interval shrinks monotonically in sample count
/// (fixed noise stream, checked at doubling intervals).
#[test]
fn ci95_shrinks_monotonically_with_samples() {
    for seed in 0..16 {
        let mut noise = NoiseModel::paper_default(0xC195 + seed);
        let mut acc = Accumulator::new();
        let mut previous = f64::INFINITY;
        for _ in 0..6 {
            for _ in 0..32 {
                acc.add(noise.apply(1000.0));
            }
            let ci = acc.ci95_half_width();
            assert!(
                ci < previous,
                "seed {seed}: ci95 must shrink, {ci} after {} samples (was {previous})",
                acc.count(),
            );
            previous = ci;
        }
    }
}

// ---------------------------------------------------------------------
// BPF differential properties.
// ---------------------------------------------------------------------

mod bpf_props {
    use super::*;
    use sim_kernel::abi::nr;
    use sim_kernel::bpf::{self, BpfInsn};
    use sim_kernel::{userlib, Kernel};
    use uarch::isa::Inst;

    /// Random verifier-valid straight-line instruction over two maps.
    fn bpf_insn(rng: &mut Rng) -> BpfInsn {
        let r = |rng: &mut Rng| rng.below(8) as u8;
        match rng.below(10) {
            0 => BpfInsn::MovImm(r(rng), rng.below(128) as i64 - 64),
            1 => BpfInsn::Mov(r(rng), r(rng)),
            2 => BpfInsn::Add(r(rng), r(rng)),
            3 => BpfInsn::Sub(r(rng), r(rng)),
            4 => BpfInsn::Mul(r(rng), r(rng)),
            5 => BpfInsn::AndImm(r(rng), rng.below(256) as i64),
            6 => BpfInsn::Shl(r(rng), r(rng)),
            7 => BpfInsn::Shr(r(rng), r(rng)),
            8 => BpfInsn::MapLookup { dst: r(rng), map: rng.below(2) as u32, idx: r(rng) },
            _ => BpfInsn::MapUpdate { map: rng.below(2) as u32, idx: r(rng), src: r(rng) },
        }
    }

    /// The in-kernel JIT (running through the full syscall path, with
    /// or without verifier masking) computes exactly what the BPF
    /// reference interpreter computes — and leaves the maps in the
    /// same state.
    #[test]
    fn bpf_jit_matches_reference_interpreter() {
        for seed in 0..24 {
            let mut rng = Rng::new(0xB9F + seed);
            let len = rng.below(24);
            let mut insns: Vec<BpfInsn> = (0..len).map(|_| bpf_insn(&mut rng)).collect();
            insns.push(BpfInsn::Exit);
            let seed0: Vec<u64> = (0..8).map(|_| rng.below(1000)).collect();
            let seed1: Vec<u64> = (0..8).map(|_| rng.below(1000)).collect();
            let masked = rng.bool();
            let verified = bpf::verify(&insns, 2).expect("generated programs verify");

            // Reference run.
            let mut ref_maps = vec![seed0.clone(), seed1.clone()];
            let expect = bpf::interpret(&verified, &mut ref_maps);

            // Kernel run.
            let cmdline = if masked { "" } else { "nospectre_v1" };
            let mut k = Kernel::boot(cpu_models::cascade_lake(), &BootParams::parse(cmdline));
            let m0 = k.bpf_create_map(8);
            let m1 = k.bpf_create_map(8);
            for (i, v) in seed0.iter().enumerate() {
                k.bpf_map_write(m0, i as u64, *v);
            }
            for (i, v) in seed1.iter().enumerate() {
                k.bpf_map_write(m1, i as u64, *v);
            }
            let prog = k.bpf_load(&insns).expect("loads");
            let pid = k.spawn(move |b| {
                b.mov_imm(Reg::R1, prog as u64);
                userlib::emit_syscall(b, nr::BPF_PROG_RUN);
                b.mov_imm(Reg::R4, userlib::data_base());
                b.push(Inst::Store {
                    src: Reg::R0,
                    base: Reg::R4,
                    offset: 0,
                    width: Width::B8,
                });
                userlib::emit_exit(b);
            });
            k.start();
            k.run(100_000_000).expect("runs");
            let out = k.peek_user_data(pid, 0, 8);
            assert_eq!(
                u64::from_le_bytes(out.try_into().unwrap()),
                expect,
                "seed {seed}"
            );
            for i in 0..8u64 {
                assert_eq!(k.bpf_map_read(m0, i), ref_maps[0][i as usize], "seed {seed}");
                assert_eq!(k.bpf_map_read(m1, i), ref_maps[1][i as usize], "seed {seed}");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Journal v2 checksum properties.
// ---------------------------------------------------------------------

/// Every single-byte corruption of a valid v2 journal line is detected:
/// the line classifies as `Corrupt` mid-file, and is never misread as a
/// valid entry. This is the contract that makes `regen fsck` sound —
/// CRC-32 catches any error burst up to 32 bits, so a one-byte flip
/// anywhere (prefix, checksum field, payload) cannot replay as data.
/// It also holds for every two-bit flip of one line and of the
/// `#regen-journal v2` header, and a bare payload without the framing
/// (the retired v1 shape) never replays, flipped or not.
#[test]
fn prop_journal_v2_single_byte_corruption_never_replays() {
    use spectrebench::{classify_line, crc32, LineClass, JOURNAL_HEADER_V2};

    // Every variant of `line` with the bits `flips` inverted that a line
    // reader could hand to `classify_line`: flips into a newline split
    // the line at read time instead, and a non-UTF-8 journal fails
    // earlier, at read time.
    fn flipped(line: &str, flips: &[usize]) -> Option<String> {
        let mut bytes = line.as_bytes().to_vec();
        for &bit in flips {
            bytes[bit / 8] ^= 1 << (bit % 8);
        }
        if flips.iter().any(|&bit| bytes[bit / 8] == b'\n') {
            return None;
        }
        String::from_utf8(bytes).ok()
    }
    let never_valid = |line: &str, what: &str| {
        for is_last in [false, true] {
            assert!(
                !matches!(classify_line(line, is_last), LineClass::Valid(..)),
                "{what} must not replay: {line}"
            );
        }
    };

    let mut rng = Rng::new(0x6A51);
    // A spread of payload shapes: escaped quotes in keys, every value
    // kind's syntax, random seeds and magnitudes.
    let mut payloads = vec![
        r#"{"cell":"Broadwell/getpid/[nopti]","seed":0,"kind":"meas","mean":1.083,"ci95":0.004,"n":12,"retries":1}"#.to_string(),
        r#"{"cell":"a/b \"q\"","seed":3,"kind":"num","v":[2.5]}"#.to_string(),
        r#"{"cell":"a/opt","seed":1,"kind":"optnums","v":[4,null]}"#.to_string(),
        r#"{"cell":"a/flags","seed":2,"kind":"flags","v":[1,0,null]}"#.to_string(),
        // Real cell keys contain spaces; a flip of the crc/payload
        // separator must not resynchronize on one of them.
        r#"{"cell":"Broadwell (i7-5650U)/lebench/[nopti]","seed":7,"kind":"num","v":[3.25]}"#
            .to_string(),
    ];
    for _ in 0..8 {
        payloads.push(format!(
            r#"{{"cell":"p/{}/w{}","seed":{},"kind":"num","v":[{}]}}"#,
            rng.below(100),
            rng.below(100),
            rng.below(1 << 32),
            rng.unit() * 1e6 - 5e5,
        ));
    }

    for payload in &payloads {
        let line = format!("v2 {:08x} {}", crc32(payload.as_bytes()), payload);
        // The undamaged line is valid in any position...
        assert!(
            matches!(classify_line(&line, false), LineClass::Valid(..)),
            "pristine line must be valid: {line}"
        );
        // ...and no single-byte flip survives: XOR each byte with every
        // single-bit mask (skipping flips that leave ASCII/UTF-8, since
        // the line reader is UTF-8; a non-UTF-8 journal fails earlier,
        // at read time).
        for i in 0..line.len() {
            for bit in 0..8u8 {
                let mut bytes = line.as_bytes().to_vec();
                bytes[i] ^= 1 << bit;
                if bytes[i] == b'\n' {
                    // A flip *into* a newline splits the line at read
                    // time instead; both halves then fail this same
                    // classification, covered below by truncation.
                    continue;
                }
                let Ok(corrupted) = std::str::from_utf8(&bytes) else {
                    continue;
                };
                let class = classify_line(corrupted, false);
                assert!(
                    !matches!(class, LineClass::Valid(..)),
                    "flip byte {i} bit {bit} must not replay: {corrupted}"
                );
                assert_eq!(
                    class,
                    LineClass::Corrupt,
                    "mid-file damage is corrupt, not a crash artifact: {corrupted}"
                );
            }
        }
        // Every proper prefix (a torn write) is refused too: truncated
        // on the tail, corrupt mid-file.
        for cut in 1..line.len() {
            let torn = &line[..cut];
            if !line.is_char_boundary(cut) {
                continue;
            }
            assert!(
                !matches!(classify_line(torn, true), LineClass::Valid(..)),
                "torn prefix must not replay: {torn}"
            );
            assert!(
                !matches!(classify_line(torn, false), LineClass::Valid(..)),
                "torn mid-file line must not replay: {torn}"
            );
        }
        // The bare payload carries no checksum: neither it nor any
        // one-bit flip of it replays.
        never_valid(payload, "a bare payload");
        for bit in 0..payload.len() * 8 {
            if let Some(corrupted) = flipped(payload, &[bit]) {
                never_valid(&corrupted, "a flipped bare payload");
            }
        }
    }

    // Every pair of bit flips of the first payload's v2 line is refused
    // or replays the identical entry: none may replay a different key,
    // seed or value.
    let line = format!("v2 {:08x} {}", crc32(payloads[0].as_bytes()), payloads[0]);
    let LineClass::Valid(key, seed, value) = classify_line(&line, false) else {
        panic!("pristine line must be valid: {line}");
    };
    let bits = line.len() * 8;
    for a in 0..bits {
        for b in a + 1..bits {
            let Some(corrupted) = flipped(&line, &[a, b]) else {
                continue;
            };
            if let LineClass::Valid(k, s, v) = classify_line(&corrupted, false) {
                assert_eq!(
                    (&k, s, &v),
                    (&key, seed, &value),
                    "flip bits {a} and {b} replays a different entry: {corrupted}"
                );
            }
        }
    }

    // No one- or two-bit flip of the header line replays as data.
    let bits = JOURNAL_HEADER_V2.len() * 8;
    for a in 0..bits {
        for b in a..bits {
            let flips: &[usize] = if a == b { &[a] } else { &[a, b] };
            if let Some(corrupted) = flipped(JOURNAL_HEADER_V2, flips) {
                never_valid(&corrupted, "a flipped header");
            }
        }
    }
}

// ---------------------------------------------------------------------
// Pinned interpreter loops: decoded dispatch vs the reference stepper.
// ---------------------------------------------------------------------

/// A loop that stresses one part of the interpreter.
#[derive(Debug, Clone, Copy)]
enum PinnedLoop {
    /// Branches on an xorshift bit: sustained predictor misses.
    BranchHeavy,
    /// Store/reload of a marching pointer: MMU, store buffer, caches.
    LoadStoreHeavy,
    /// User-mode syscalls through a kernel stub: mode switches.
    SyscallHeavy,
    /// An unpredictable branch whose arms load different lines: a
    /// wrong-path window on roughly every other iteration.
    TransientWindow,
    /// A store reloaded through an alias register, the reload masked
    /// into a table index for a dependent load, and that load's value
    /// stored and reloaded the same way: a store-bypass window, run to
    /// the cap, on every iteration (figure3's window shape).
    StoreBypass,
}

/// Builds `kind` on Skylake Client (vulnerable to the full attack menu,
/// so mispredicts really open transient windows), `scale` iterations
/// (a quarter of that for the syscall loop).
fn pinned_loop(kind: PinnedLoop, scale: u64) -> Machine {
    const CODE: u64 = 0x40_0000;
    const KERNEL: u64 = 0x80_0000;
    const DATA: u64 = 0x1_0000;
    const PAGES: u64 = 16;
    let mut m = Machine::new(cpu_models::skylake_client());
    let mut pt = PageTable::new();
    pt.map_range(DATA, 0x100, PAGES, Pte::user(0));
    let id = m.mmu.register_table(pt);
    assert!(m.mmu.load_cr3(make_cr3(id, 0, false)));
    m.set_reg(Reg::SP, DATA + PAGES * 4096 - 0x100);

    let mut b = ProgramBuilder::new();
    // r1 ^= r1 << 13; r1 ^= r1 >> 7, via r2.
    let xorshift = |b: &mut ProgramBuilder| {
        b.push(Inst::Mov(Reg::R2, Reg::R1));
        b.push(Inst::Shl(Reg::R2, 13));
        b.push(Inst::Xor(Reg::R1, Reg::R2));
        b.push(Inst::Mov(Reg::R2, Reg::R1));
        b.push(Inst::Shr(Reg::R2, 7));
        b.push(Inst::Xor(Reg::R1, Reg::R2));
    };
    let count_down = |b: &mut ProgramBuilder, top| {
        b.sub_imm(Reg::R0, 1);
        b.cmp_imm(Reg::R0, 0);
        b.jcc(Cond::Ne, top);
        b.push(Inst::Halt);
    };
    match kind {
        PinnedLoop::BranchHeavy => {
            b.mov_imm(Reg::R0, scale);
            b.mov_imm(Reg::R1, 0x9e37_79b9_7f4a_7c15);
            b.mov_imm(Reg::R3, 1);
            let top = b.here();
            let skip = b.new_label();
            xorshift(&mut b);
            b.push(Inst::Test(Reg::R1, Reg::R3));
            b.jcc(Cond::Ne, skip);
            b.add_imm(Reg::R4, 1);
            b.bind(skip);
            count_down(&mut b, top);
        }
        PinnedLoop::LoadStoreHeavy => {
            b.mov_imm(Reg::R0, scale);
            b.mov_imm(Reg::R8, DATA);
            b.mov_imm(Reg::R9, 0);
            b.mov_imm(Reg::R1, 0xdead_beef);
            let top = b.here();
            b.push(Inst::Mov(Reg::R7, Reg::R8));
            b.push(Inst::Add(Reg::R7, Reg::R9));
            b.push(Inst::Store {
                src: Reg::R1,
                base: Reg::R7,
                offset: 0,
                width: Width::B8,
            });
            b.push(Inst::Load {
                dst: Reg::R2,
                base: Reg::R7,
                offset: 0,
                width: Width::B8,
            });
            b.push(Inst::Load {
                dst: Reg::R3,
                base: Reg::R7,
                offset: 8,
                width: Width::B4,
            });
            b.push(Inst::Add(Reg::R1, Reg::R2));
            b.add_imm(Reg::R9, 64);
            b.push(Inst::AndImm(Reg::R9, (PAGES * 4096 - 64) & !63));
            count_down(&mut b, top);
        }
        PinnedLoop::SyscallHeavy => {
            b.mov_imm(Reg::R0, scale / 4);
            let top = b.here();
            b.push(Inst::Syscall);
            count_down(&mut b, top);

            let mut k = ProgramBuilder::new();
            k.push(Inst::Swapgs);
            k.push(Inst::Swapgs);
            k.push(Inst::Sysret);
            m.load_program(k.link(KERNEL));
            m.syscall_entry = Some(KERNEL);
            m.mode = PrivMode::User;
        }
        PinnedLoop::TransientWindow => {
            b.mov_imm(Reg::R0, scale);
            b.mov_imm(Reg::R8, DATA);
            b.mov_imm(Reg::R1, 0x2545_f491_4f6c_dd1d);
            let top = b.here();
            let even = b.new_label();
            let join = b.new_label();
            xorshift(&mut b);
            b.push(Inst::Mov(Reg::R2, Reg::R1));
            b.push(Inst::AndImm(Reg::R2, 1));
            b.cmp_imm(Reg::R2, 0);
            b.jcc(Cond::Eq, even);
            b.push(Inst::Load {
                dst: Reg::R2,
                base: Reg::R8,
                offset: 0,
                width: Width::B8,
            });
            b.push(Inst::Add(Reg::R3, Reg::R2));
            b.jmp(join);
            b.bind(even);
            b.push(Inst::Load {
                dst: Reg::R2,
                base: Reg::R8,
                offset: 64,
                width: Width::B8,
            });
            b.push(Inst::Add(Reg::R3, Reg::R2));
            b.bind(join);
            count_down(&mut b, top);
        }
        PinnedLoop::StoreBypass => {
            b.mov_imm(Reg::R0, scale);
            b.mov_imm(Reg::R8, DATA);
            b.push(Inst::Mov(Reg::R9, Reg::R8));
            b.mov_imm(Reg::R1, 0x2545_f491_4f6c_dd1d);
            let top = b.here();
            xorshift(&mut b);
            b.push(Inst::Store {
                src: Reg::R1,
                base: Reg::R8,
                offset: 0,
                width: Width::B8,
            });
            b.push(Inst::Load {
                dst: Reg::R2,
                base: Reg::R9,
                offset: 0,
                width: Width::B8,
            });
            b.push(Inst::AndImm(Reg::R2, 0x3fc0));
            b.push(Inst::Add(Reg::R2, Reg::R8));
            b.push(Inst::Load {
                dst: Reg::R3,
                base: Reg::R2,
                offset: 0x1000,
                width: Width::B8,
            });
            b.push(Inst::Store {
                src: Reg::R3,
                base: Reg::R8,
                offset: 64,
                width: Width::B8,
            });
            b.push(Inst::Load {
                dst: Reg::R4,
                base: Reg::R9,
                offset: 64,
                width: Width::B8,
            });
            count_down(&mut b, top);
        }
    }
    m.load_program(b.link(CODE));
    m.pc = CODE;
    m
}

/// Both steppers retire identical instruction and cycle counts on the
/// five pinned loops; the decoded path's retired work (instructions,
/// cycles, transient windows, transient instructions) matches the
/// pinned counts; and the process-wide `pmc::global` counters see at
/// least the retired total.
#[test]
fn pinned_loops_retire_identical_work_on_both_steppers() {
    const SCALE: u64 = 300_000;
    // (loop, retired, cycles, transient windows, transient instructions)
    let pinned = [
        (
            PinnedLoop::BranchHeavy,
            3_449_506,
            6_142_846,
            149_630,
            7_181_679,
        ),
        (PinnedLoop::LoadStoreHeavy, 3_300_005, 6_000_713, 134, 6_197),
        (PinnedLoop::SyscallHeavy, 525_002, 6_975_110, 6, 6),
        (
            PinnedLoop::TransientWindow,
            4_649_937,
            8_264_231,
            150_781,
            7_237_206,
        ),
        (
            PinnedLoop::StoreBypass,
            4_800_005,
            9_300_389,
            300_006,
            14_399_984,
        ),
    ];
    let (before, _, _) = uarch::pmc::global::snapshot();
    let mut retired_total = 0;
    for (kind, retired, cycles, windows, transient) in pinned {
        let mut decoded = pinned_loop(kind, SCALE);
        decoded
            .run(&mut NoEnv, u64::MAX)
            .expect("decoded run halts");
        let mut reference = pinned_loop(kind, SCALE);
        reference
            .run_reference(&mut NoEnv, u64::MAX)
            .expect("reference run halts");
        assert_eq!(
            (reference.inst_count(), reference.cycles()),
            (decoded.inst_count(), decoded.cycles()),
            "{kind:?}: reference vs decoded (retired, cycles)"
        );
        assert_eq!(
            (
                decoded.inst_count(),
                decoded.cycles(),
                decoded.transient_window_count(),
                decoded.transient_inst_count()
            ),
            (retired, cycles, windows, transient),
            "{kind:?}: retired work drifted from the pinned counts"
        );
        retired_total += retired;
    }
    assert_eq!(retired_total, 16_724_455);
    let (after, _, _) = uarch::pmc::global::snapshot();
    assert!(
        after - before >= retired_total,
        "pmc::global saw {} instructions, {retired_total} retired",
        after - before
    );
}

// ---------------------------------------------------------------------
// Host work per LEBench op.
// ---------------------------------------------------------------------

/// Every LEBench op (Broadwell, default boot) leaves a pinned number of
/// host frames resident: 64 kernel data pages plus what the op wrote.
/// No simulated counter sees host work: a `fork` that materialized
/// every mapped page in the child would leave 338, 3,329 and 2,849
/// frames after `context-switch`, `fork` and `big-fork`, with every
/// cycle count unchanged.
#[test]
fn lebench_ops_leave_pinned_resident_frames() {
    let pinned = [
        (LeBenchOp::GetPid, 65),
        (LeBenchOp::SmallRead, 66),
        (LeBenchOp::MedRead, 66),
        (LeBenchOp::BigRead, 69),
        (LeBenchOp::HugeRead, 129),
        (LeBenchOp::SmallWrite, 65),
        (LeBenchOp::MedWrite, 65),
        (LeBenchOp::BigWrite, 65),
        (LeBenchOp::HugeWrite, 65),
        (LeBenchOp::Mmap, 65),
        (LeBenchOp::Munmap, 65),
        (LeBenchOp::BigMunmap, 65),
        (LeBenchOp::PageFault, 129),
        (LeBenchOp::ContextSwitch, 68),
        (LeBenchOp::SendRecv, 66),
        (LeBenchOp::Select, 65),
        (LeBenchOp::Fork, 77),
        (LeBenchOp::BigFork, 71),
        (LeBenchOp::ThreadCreate, 81),
    ];
    assert_eq!(pinned.map(|(op, _)| op), LeBenchOp::ALL, "one pin per op, in suite order");
    let model = cpu_models::broadwell();
    let params = BootParams::default();
    let seen = pinned.map(|(op, _)| (op, workloads::run_op(&model, &params, op).resident_frames));
    assert_eq!(seen, pinned, "(op, resident frames) drifted from the pins");
}

/// Every LEBench op's total simulated cycles on Broadwell, under the
/// default boot and under `spec_store_bypass_disable=on`, where SSBD is
/// active for every process and each word a kernel copy moves passes the
/// SSBD check. Figure 2 rounds to 0.1%, so a drift of a few cycles in the
/// user-copy path would pass the golden file unseen; it fails here.
#[test]
fn lebench_ops_take_pinned_simulated_cycles() {
    let pinned: [(&str, [(LeBenchOp, u64); 19]); 2] = [
        (
            "",
            [
                (LeBenchOp::GetPid, 460_287),
                (LeBenchOp::SmallRead, 610_926),
                (LeBenchOp::MedRead, 368_466),
                (LeBenchOp::BigRead, 151_722),
                (LeBenchOp::HugeRead, 413_040),
                (LeBenchOp::SmallWrite, 609_398),
                (LeBenchOp::MedWrite, 379_916),
                (LeBenchOp::BigWrite, 202_724),
                (LeBenchOp::HugeWrite, 1_337_002),
                (LeBenchOp::Mmap, 368_987),
                (LeBenchOp::Munmap, 1_196_667),
                (LeBenchOp::BigMunmap, 2_363_907),
                (LeBenchOp::PageFault, 188_749),
                (LeBenchOp::ContextSwitch, 742_133),
                (LeBenchOp::SendRecv, 493_323),
                (LeBenchOp::Select, 311_355),
                (LeBenchOp::Fork, 1_411_371),
                (LeBenchOp::BigFork, 1_478_806),
                (LeBenchOp::ThreadCreate, 129_340),
            ],
        ),
        (
            "spec_store_bypass_disable=on",
            [
                (LeBenchOp::GetPid, 461_487),
                (LeBenchOp::SmallRead, 614_254),
                (LeBenchOp::MedRead, 369_814),
                (LeBenchOp::BigRead, 152_014),
                (LeBenchOp::HugeRead, 413_134),
                (LeBenchOp::SmallWrite, 612_714),
                (LeBenchOp::MedWrite, 381_252),
                (LeBenchOp::BigWrite, 203_004),
                (LeBenchOp::HugeWrite, 1_337_084),
                (LeBenchOp::Mmap, 370_587),
                (LeBenchOp::Munmap, 1_199_547),
                (LeBenchOp::BigMunmap, 2_364_627),
                (LeBenchOp::PageFault, 188_769),
                (LeBenchOp::ContextSwitch, 746_041),
                (LeBenchOp::SendRecv, 496_535),
                (LeBenchOp::Select, 312_843),
                (LeBenchOp::Fork, 1_411_899),
                (LeBenchOp::BigFork, 1_479_090),
                (LeBenchOp::ThreadCreate, 129_916),
            ],
        ),
    ];
    let model = cpu_models::broadwell();
    for (cmdline, pins) in pinned {
        assert_eq!(pins.map(|(op, _)| op), LeBenchOp::ALL, "one pin per op, in suite order");
        let params = BootParams::parse(cmdline);
        let seen = pins.map(|(op, _)| (op, workloads::run_op(&model, &params, op).cycles));
        assert_eq!(seen, pins, "boot {cmdline:?}: (op, simulated cycles) drifted from the pins");
    }
}

/// Every LEBench op's simulated work on all eight paper CPUs, under the
/// default boot and the five boot lines that change a kernel path the
/// ops take: one digest per (CPU, boot line), FNV-1a over each op's
/// total cycles and resident frames in suite order. Only Broadwell's
/// cycles are pinned op by op above; a drift in the user-copy, entry or
/// fork path on another part, or under another boot line, fails here
/// and names the pair.
#[test]
fn lebench_ops_take_pinned_work_on_every_paper_cpu() {
    const BOOT_LINES: [&str; 6] = [
        "",
        "mitigations=off",
        "spec_store_bypass_disable=on",
        "nopti",
        "mds=off",
        "eagerfpu=off",
    ];
    let pinned: [(&str, [u64; 6]); 8] = [
        (
            "Broadwell",
            [
                0xafcd_63c3_0991_d693,
                0xe649_3967_1e11_5a90,
                0x78b4_4a0d_6074_17b6,
                0x2253_a36b_c121_5163,
                0x5362_9983_362f_d5d3,
                0xb204_dc29_eca5_ce1c,
            ],
        ),
        (
            "Skylake Client",
            [
                0x0189_0286_d410_3b2c,
                0x7928_5002_29e0_e8c9,
                0xaa90_6b4d_b7fb_d76d,
                0x895a_8c2b_6d47_3cdc,
                0x852e_5a3e_ba3c_fbf6,
                0x9e16_4faa_5618_fd31,
            ],
        ),
        (
            "Cascade Lake",
            [
                0xf1b7_0d5b_e1fd_d749,
                0xf499_6399_0b40_e1ad,
                0xe5ee_2174_db72_97d8,
                0xf1b7_0d5b_e1fd_d749,
                0x4a61_3d19_0b59_a2a3,
                0xa19f_97d0_fc68_d47f,
            ],
        ),
        (
            "Ice Lake Client",
            [
                0x0772_3fb0_7914_3281,
                0xbede_5330_1410_a7b4,
                0xbe22_889f_eee5_f6ea,
                0x0772_3fb0_7914_3281,
                0x0772_3fb0_7914_3281,
                0xaf62_37dd_11dc_4c11,
            ],
        ),
        (
            "Ice Lake Server",
            [
                0x4b57_425a_4d73_06f6,
                0x9c8a_320b_710c_1b57,
                0xe442_2f4a_d0da_4411,
                0x4b57_425a_4d73_06f6,
                0x4b57_425a_4d73_06f6,
                0x4a0f_bd05_8273_0395,
            ],
        ),
        (
            "Zen",
            [
                0x0420_7402_6c6e_2c0b,
                0x59a2_ea3f_2709_dd71,
                0x36d0_5505_c0ab_7ca0,
                0x0420_7402_6c6e_2c0b,
                0x0420_7402_6c6e_2c0b,
                0x28f2_7d6b_d359_e508,
            ],
        ),
        (
            "Zen 2",
            [
                0xade2_bdcf_977c_5f82,
                0x7712_dee6_005d_70fb,
                0x7436_c076_0852_7486,
                0xade2_bdcf_977c_5f82,
                0xade2_bdcf_977c_5f82,
                0xe0fe_947d_6568_7508,
            ],
        ),
        (
            "Zen 3",
            [
                0xde77_3c38_972b_7613,
                0x8772_bdf3_2613_f989,
                0x6576_916c_f1bd_98e8,
                0xde77_3c38_972b_7613,
                0xde77_3c38_972b_7613,
                0x6758_78e9_71ed_a2d4,
            ],
        ),
    ];
    let models = cpu_models::all_models();
    assert_eq!(models.len(), pinned.len(), "one row of pins per paper CPU");
    let mut drifted = Vec::new();
    for (model, (microarch, digests)) in models.iter().zip(pinned) {
        assert_eq!(model.microarch, microarch, "pins in Table 2 order");
        for (cmdline, want) in BOOT_LINES.into_iter().zip(digests) {
            let params = BootParams::parse(cmdline);
            let work = LeBenchOp::ALL.iter().flat_map(|&op| {
                let r = workloads::run_op(model, &params, op);
                let frames = r.resident_frames as u64;
                r.cycles.to_le_bytes().into_iter().chain(frames.to_le_bytes())
            });
            let seen = spectrebench::fnv1a(work);
            if seen != want {
                drifted.push(format!("{microarch} {cmdline:?}: {seen:#018x}"));
            }
        }
    }
    assert!(drifted.is_empty(), "(CPU, boot line) digests drifted:\n{}", drifted.join("\n"));
}
