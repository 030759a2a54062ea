//! # uarch — an instruction-level microarchitectural simulator
//!
//! This crate is the hardware substrate for reproducing *"Performance
//! Evolution of Mitigating Transient Execution Attacks"* (EuroSys 2022).
//! It simulates a single x86-flavoured core at instruction granularity
//! with an explicit **transient-execution window**: mispredicted branches,
//! faulting loads, and store-bypass opportunities execute bounded shadow
//! code whose architectural effects are squashed but whose
//! *microarchitectural* effects — cache fills, fill-buffer contents,
//! divider occupancy — persist. Those persistent effects are exactly what
//! transient-execution attacks read and what mitigations pay to erase.
//!
//! The core abstractions:
//!
//! * [`model::CpuModel`] — parameter space for a CPU: vulnerability flags,
//!   per-primitive latencies (calibrated from the paper's Tables 3–8),
//!   and speculation-machinery quirks. The eight concrete CPUs live in
//!   the `cpu-models` crate.
//! * [`machine::Machine`] — the simulated core: registers, MMU with
//!   PCID-tagged TLB, L1D cache, store buffer, fill buffers, BTB/RSB/BHB
//!   predictors, MSRs, performance counters, and a cycle-accurate-enough
//!   clock that `rdtsc` reads.
//! * [`program::ProgramBuilder`] — a small assembler with labels used by
//!   every crate above this one (kernel paths, JIT output, attack
//!   gadgets, microbenchmarks).
//!
//! # Example
//!
//! ```
//! use uarch::machine::{Machine, NoEnv, Stop};
//! use uarch::model::CpuModel;
//! use uarch::program::ProgramBuilder;
//! use uarch::isa::{Inst, Reg};
//!
//! let mut m = Machine::new(CpuModel::test_model());
//! let mut b = ProgramBuilder::new();
//! b.mov_imm(Reg::R0, 6);
//! b.mov_imm(Reg::R1, 7);
//! b.push(Inst::Mul(Reg::R0, Reg::R1));
//! b.push(Inst::Halt);
//! m.load_program(b.link(0x1000));
//! m.pc = 0x1000;
//! assert_eq!(m.run(&mut NoEnv, 100).unwrap(), Stop::Halted);
//! assert_eq!(m.reg(Reg::R0), 42);
//! ```

// The interpreter is the compute kernel under every figure: a stray
// `unwrap` on its hot path is both a panic risk and an optimizer
// barrier. Tests are exempt (see `clippy.toml`).
#![deny(clippy::unwrap_used, clippy::expect_used)]

pub mod cache;
mod copy;
pub mod decode;
pub mod fault;
pub mod fill_buffer;
pub mod fpu;
pub mod isa;
pub mod machine;
pub mod mem;
pub mod mmu;
pub mod model;
pub mod msr;
pub mod pmc;
pub mod predictor;
pub mod program;
pub mod reference;
pub mod store_buffer;
pub mod transient;

pub use decode::{DecodedInst, DecodedProgram, Op};
pub use fault::{Fault, SimError};
pub use isa::{Cond, FReg, Inst, Pmc, Reg, Width};
pub use machine::{Env, Machine, NoEnv, Stop};
pub use model::{CpuModel, Vendor};
pub use predictor::PrivMode;
pub use program::{Label, Program, ProgramBuilder};
