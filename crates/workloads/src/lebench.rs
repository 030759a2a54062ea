//! LEBench: microbenchmarks of core OS operations (paper §4.2).
//!
//! Mirrors the benchmark set of Ren et al.'s LEBench as distributed with
//! the WARD system: each benchmark stresses one kernel operation in a
//! tight loop, and the suite score is the geometric mean. Overhead on
//! this suite is where PTI and MDS buffer clearing show up (Figure 2).

use sim_kernel::abi::nr;
use sim_kernel::userlib::{begin_loop, data_base, emit_exit, emit_syscall, end_loop};
use sim_kernel::{BootParams, Kernel};
use uarch::isa::{Cond, Inst, Reg, Width};
use uarch::model::CpuModel;

/// Instruction budget for a single benchmark run.
const BUDGET: u64 = 400_000_000;

/// One LEBench microbenchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LeBenchOp {
    /// Minimal syscall round trip.
    GetPid,
    /// 64-byte file read.
    SmallRead,
    /// 4 KiB file read.
    MedRead,
    /// 16 KiB file read.
    BigRead,
    /// 256 KiB file read.
    HugeRead,
    /// 64-byte file write.
    SmallWrite,
    /// 4 KiB file write.
    MedWrite,
    /// 16 KiB file write.
    BigWrite,
    /// 256 KiB file write.
    HugeWrite,
    /// Anonymous mmap (lazy).
    Mmap,
    /// munmap of a populated 16 KiB region.
    Munmap,
    /// First-touch page fault on fresh mmap pages.
    PageFault,
    /// Pipe-based ping-pong between two processes.
    ContextSwitch,
    /// Pipe send+recv within one process.
    SendRecv,
    /// select() over 8 descriptors.
    Select,
    /// fork() + child exit.
    Fork,
    /// fork() of a process with a large populated mmap region.
    BigFork,
    /// munmap of a populated 256 KiB region.
    BigMunmap,
    /// Thread creation + exit.
    ThreadCreate,
}

impl LeBenchOp {
    /// All benchmarks in the suite.
    pub const ALL: [LeBenchOp; 19] = [
        LeBenchOp::GetPid,
        LeBenchOp::SmallRead,
        LeBenchOp::MedRead,
        LeBenchOp::BigRead,
        LeBenchOp::HugeRead,
        LeBenchOp::SmallWrite,
        LeBenchOp::MedWrite,
        LeBenchOp::BigWrite,
        LeBenchOp::HugeWrite,
        LeBenchOp::Mmap,
        LeBenchOp::Munmap,
        LeBenchOp::BigMunmap,
        LeBenchOp::PageFault,
        LeBenchOp::ContextSwitch,
        LeBenchOp::SendRecv,
        LeBenchOp::Select,
        LeBenchOp::Fork,
        LeBenchOp::BigFork,
        LeBenchOp::ThreadCreate,
    ];

    /// Benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            LeBenchOp::GetPid => "getpid",
            LeBenchOp::SmallRead => "small-read",
            LeBenchOp::MedRead => "med-read",
            LeBenchOp::BigRead => "big-read",
            LeBenchOp::HugeRead => "huge-read",
            LeBenchOp::SmallWrite => "small-write",
            LeBenchOp::MedWrite => "med-write",
            LeBenchOp::BigWrite => "big-write",
            LeBenchOp::HugeWrite => "huge-write",
            LeBenchOp::Mmap => "mmap",
            LeBenchOp::Munmap => "munmap",
            LeBenchOp::PageFault => "page-fault",
            LeBenchOp::ContextSwitch => "context-switch",
            LeBenchOp::SendRecv => "send-recv",
            LeBenchOp::Select => "select",
            LeBenchOp::Fork => "fork",
            LeBenchOp::BigFork => "big-fork",
            LeBenchOp::BigMunmap => "big-munmap",
            LeBenchOp::ThreadCreate => "thread-create",
        }
    }

    /// Iterations per run (sized so every benchmark simulates quickly but
    /// amortizes loop overhead).
    pub fn iterations(self) -> u64 {
        match self {
            LeBenchOp::GetPid => 300,
            LeBenchOp::SmallRead | LeBenchOp::SmallWrite => 150,
            LeBenchOp::MedRead | LeBenchOp::MedWrite => 60,
            LeBenchOp::BigRead | LeBenchOp::BigWrite => 12,
            LeBenchOp::HugeRead | LeBenchOp::HugeWrite => 3,
            LeBenchOp::Mmap | LeBenchOp::Munmap => 80,
            LeBenchOp::BigMunmap => 20,
            LeBenchOp::PageFault => 64,
            LeBenchOp::ContextSwitch => 60,
            LeBenchOp::SendRecv => 100,
            LeBenchOp::Select => 120,
            LeBenchOp::Fork => 12,
            LeBenchOp::BigFork => 6,
            LeBenchOp::ThreadCreate => 16,
        }
    }
}

/// Result of one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct OpResult {
    /// Which benchmark.
    pub op: LeBenchOp,
    /// Simulated cycles per operation.
    pub cycles_per_op: f64,
    /// Simulated cycles the whole run took (all iterations).
    pub cycles: u64,
    /// Host frames the run left resident in physical memory: the host
    /// work the run did, which no simulated counter sees.
    pub resident_frames: usize,
}

/// Runs one LEBench benchmark on a freshly booted kernel.
pub fn run_op(model: &CpuModel, params: &BootParams, op: LeBenchOp) -> OpResult {
    let mut k = Kernel::boot(model.clone(), params);
    let iters = op.iterations();
    build(&mut k, op, iters);
    k.start();
    let start = k.cycles();
    k.run(BUDGET).expect("benchmark must complete");
    let total = k.cycles() - start;
    OpResult {
        op,
        cycles_per_op: total as f64 / iters as f64,
        cycles: total,
        resident_frames: k.machine.mem.resident_frames(),
    }
}

/// Runs the full suite; returns per-op results.
pub fn run_suite(model: &CpuModel, params: &BootParams) -> Vec<OpResult> {
    LeBenchOp::ALL.iter().map(|op| run_op(model, params, *op)).collect()
}

/// Geometric mean of cycles-per-op across the suite (the paper's suite
/// metric).
pub fn geomean(results: &[OpResult]) -> f64 {
    let log_sum: f64 = results.iter().map(|r| r.cycles_per_op.ln()).sum();
    (log_sum / results.len() as f64).exp()
}

fn build(k: &mut Kernel, op: LeBenchOp, iters: u64) {
    let data = data_base();
    match op {
        LeBenchOp::GetPid => {
            k.spawn(move |b| {
                let top = begin_loop(b, Reg::R7, iters);
                emit_syscall(b, nr::GETPID);
                end_loop(b, Reg::R7, top);
                emit_exit(b);
            });
        }
        LeBenchOp::SmallRead | LeBenchOp::MedRead | LeBenchOp::BigRead | LeBenchOp::HugeRead => {
            let len = match op {
                LeBenchOp::SmallRead => 64,
                LeBenchOp::MedRead => 4096,
                LeBenchOp::BigRead => 16384,
                _ => 262144,
            };
            k.spawn(move |b| {
                emit_syscall(b, nr::CREAT);
                b.push(Inst::Mov(Reg::R6, Reg::R0)); // fd
                // Pre-size the file.
                b.push(Inst::Mov(Reg::R1, Reg::R6));
                b.mov_imm(Reg::R2, len);
                emit_syscall(b, nr::FTRUNCATE);
                let top = begin_loop(b, Reg::R7, iters);
                // Rewind and read.
                b.push(Inst::Mov(Reg::R1, Reg::R6));
                b.mov_imm(Reg::R2, 0);
                emit_syscall(b, nr::LSEEK);
                b.push(Inst::Mov(Reg::R1, Reg::R6));
                b.mov_imm(Reg::R2, data);
                b.mov_imm(Reg::R3, len);
                emit_syscall(b, nr::READ);
                end_loop(b, Reg::R7, top);
                emit_exit(b);
            });
        }
        LeBenchOp::SmallWrite | LeBenchOp::MedWrite | LeBenchOp::BigWrite | LeBenchOp::HugeWrite => {
            let len = match op {
                LeBenchOp::SmallWrite => 64,
                LeBenchOp::MedWrite => 4096,
                LeBenchOp::BigWrite => 16384,
                _ => 262144,
            };
            k.spawn(move |b| {
                emit_syscall(b, nr::CREAT);
                b.push(Inst::Mov(Reg::R6, Reg::R0));
                let top = begin_loop(b, Reg::R7, iters);
                b.push(Inst::Mov(Reg::R1, Reg::R6));
                b.mov_imm(Reg::R2, 0);
                emit_syscall(b, nr::LSEEK);
                b.push(Inst::Mov(Reg::R1, Reg::R6));
                b.mov_imm(Reg::R2, data);
                b.mov_imm(Reg::R3, len);
                emit_syscall(b, nr::WRITE);
                end_loop(b, Reg::R7, top);
                emit_exit(b);
            });
        }
        LeBenchOp::Mmap => {
            k.spawn(move |b| {
                let top = begin_loop(b, Reg::R7, iters);
                b.mov_imm(Reg::R1, 16384);
                emit_syscall(b, nr::MMAP);
                end_loop(b, Reg::R7, top);
                emit_exit(b);
            });
        }
        LeBenchOp::Munmap | LeBenchOp::BigMunmap => {
            let len: u64 = if op == LeBenchOp::Munmap { 16384 } else { 262144 };
            k.spawn(move |b| {
                let top = begin_loop(b, Reg::R7, iters);
                b.mov_imm(Reg::R1, len);
                emit_syscall(b, nr::MMAP_POPULATE);
                b.push(Inst::Mov(Reg::R1, Reg::R0));
                b.mov_imm(Reg::R2, len);
                emit_syscall(b, nr::MUNMAP);
                end_loop(b, Reg::R7, top);
                emit_exit(b);
            });
        }
        LeBenchOp::PageFault => {
            k.spawn(move |b| {
                b.mov_imm(Reg::R1, iters * 4096);
                emit_syscall(b, nr::MMAP);
                b.push(Inst::Mov(Reg::R6, Reg::R0));
                let top = begin_loop(b, Reg::R7, iters);
                b.push(Inst::Store { src: Reg::R7, base: Reg::R6, offset: 0, width: Width::B8 });
                b.push(Inst::AddImm(Reg::R6, 4096));
                end_loop(b, Reg::R7, top);
                emit_exit(b);
            });
        }
        LeBenchOp::ContextSwitch => {
            k.spawn(move |b| {
                let child = b.new_label();
                let done = b.new_label();
                emit_syscall(b, nr::PIPE); // A: fds 0,1
                emit_syscall(b, nr::PIPE); // B: fds 2,3
                emit_syscall(b, nr::FORK);
                b.cmp_imm(Reg::R0, 0);
                b.jcc(Cond::Eq, child);
                // Parent.
                let top = begin_loop(b, Reg::R7, iters);
                b.mov_imm(Reg::R1, 1);
                b.mov_imm(Reg::R2, data);
                b.mov_imm(Reg::R3, 8);
                emit_syscall(b, nr::WRITE);
                b.mov_imm(Reg::R1, 2);
                b.mov_imm(Reg::R2, data + 64);
                b.mov_imm(Reg::R3, 8);
                emit_syscall(b, nr::READ);
                end_loop(b, Reg::R7, top);
                b.jmp(done);
                // Child.
                b.bind(child);
                let ctop = begin_loop(b, Reg::R7, iters);
                b.mov_imm(Reg::R1, 0);
                b.mov_imm(Reg::R2, data);
                b.mov_imm(Reg::R3, 8);
                emit_syscall(b, nr::READ);
                b.mov_imm(Reg::R1, 3);
                b.mov_imm(Reg::R2, data + 64);
                b.mov_imm(Reg::R3, 8);
                emit_syscall(b, nr::WRITE);
                end_loop(b, Reg::R7, ctop);
                b.bind(done);
                emit_exit(b);
            });
        }
        LeBenchOp::SendRecv => {
            k.spawn(move |b| {
                emit_syscall(b, nr::PIPE);
                let top = begin_loop(b, Reg::R7, iters);
                b.mov_imm(Reg::R1, 1);
                b.mov_imm(Reg::R2, data);
                b.mov_imm(Reg::R3, 256);
                emit_syscall(b, nr::SEND);
                b.mov_imm(Reg::R1, 0);
                b.mov_imm(Reg::R2, data + 4096);
                b.mov_imm(Reg::R3, 256);
                emit_syscall(b, nr::RECV);
                end_loop(b, Reg::R7, top);
                emit_exit(b);
            });
        }
        LeBenchOp::Select => {
            k.spawn(move |b| {
                // 4 pipes = 8 fds.
                for _ in 0..4 {
                    emit_syscall(b, nr::PIPE);
                }
                let top = begin_loop(b, Reg::R7, iters);
                b.mov_imm(Reg::R1, 8);
                emit_syscall(b, nr::SELECT);
                end_loop(b, Reg::R7, top);
                emit_exit(b);
            });
        }
        LeBenchOp::Fork | LeBenchOp::BigFork => {
            let extra_pages: u64 = if op == LeBenchOp::BigFork { 192 } else { 0 };
            k.spawn(move |b| {
                if extra_pages > 0 {
                    b.mov_imm(Reg::R1, extra_pages * 4096);
                    emit_syscall(b, nr::MMAP_POPULATE);
                }
                let top = begin_loop(b, Reg::R7, iters);
                emit_syscall(b, nr::FORK);
                b.cmp_imm(Reg::R0, 0);
                let parent = b.new_label();
                b.jcc(Cond::Ne, parent);
                emit_exit(b); // child exits immediately
                b.bind(parent);
                end_loop(b, Reg::R7, top);
                emit_exit(b);
            });
        }
        LeBenchOp::ThreadCreate => {
            k.spawn(move |b| {
                let thread = b.new_label();
                let start = b.new_label();
                b.jmp(start);
                b.bind(thread);
                emit_exit(b); // thread body: exit immediately
                b.bind(start);
                let top = begin_loop(b, Reg::R7, iters);
                b.lea(Reg::R1, thread);
                emit_syscall(b, nr::THREAD_CREATE);
                emit_syscall(b, nr::YIELD); // let the thread run & die
                end_loop(b, Reg::R7, top);
                emit_exit(b);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpu_models::{broadwell, ice_lake_server};

    #[test]
    fn every_op_completes_on_default_config() {
        let model = ice_lake_server();
        let params = BootParams::default();
        for op in LeBenchOp::ALL {
            let r = run_op(&model, &params, op);
            assert!(r.cycles_per_op > 0.0, "{}", op.name());
            assert!(r.cycles_per_op.is_finite());
        }
    }

    #[test]
    fn getpid_is_cheapest_and_fork_among_most_expensive() {
        let model = ice_lake_server();
        let params = BootParams::default();
        let results = run_suite(&model, &params);
        let get = |o: LeBenchOp| {
            results.iter().find(|r| r.op == o).unwrap().cycles_per_op
        };
        assert!(get(LeBenchOp::GetPid) < get(LeBenchOp::Fork));
        assert!(get(LeBenchOp::GetPid) < get(LeBenchOp::BigRead));
        assert!(get(LeBenchOp::SmallRead) < get(LeBenchOp::BigRead));
    }

    #[test]
    fn geomean_is_between_min_and_max() {
        let model = ice_lake_server();
        let results = run_suite(&model, &BootParams::default());
        let g = geomean(&results);
        let min = results.iter().map(|r| r.cycles_per_op).fold(f64::MAX, f64::min);
        let max = results.iter().map(|r| r.cycles_per_op).fold(0.0, f64::max);
        assert!(g >= min && g <= max);
    }

    #[test]
    fn broadwell_suite_slower_with_mitigations() {
        // The headline effect: on a Meltdown+MDS-vulnerable part, default
        // mitigations cost a large fraction of LEBench performance
        // (Figure 2 reports >30% on older Intel).
        let model = broadwell();
        let on = geomean(&run_suite(&model, &BootParams::default()));
        let off = geomean(&run_suite(&model, &BootParams::parse("mitigations=off")));
        let overhead = on / off - 1.0;
        assert!(
            overhead > 0.10,
            "expected sizeable mitigation overhead on Broadwell, got {:.1}%",
            overhead * 100.0
        );
    }

    #[test]
    fn ice_lake_suite_overhead_is_small() {
        // Figure 2: modern parts are down to ~3%.
        let model = ice_lake_server();
        let on = geomean(&run_suite(&model, &BootParams::default()));
        let off = geomean(&run_suite(&model, &BootParams::parse("mitigations=off")));
        let overhead = on / off - 1.0;
        assert!(
            overhead < 0.10,
            "modern parts should be cheap: got {:.1}%",
            overhead * 100.0
        );
    }
}
