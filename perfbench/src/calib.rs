//! Machine-speed calibration: a fixed piece of work the benchmark times
//! beside every timed phase, so that the end-to-end times are given at
//! one nominal machine speed.
//!
//! The benchmark runs on a few vCPUs of a shared host whose speed drifts
//! with the load of other tenants: on a 2-vCPU VM, the same `regen
//! figure3` took 11 s and 20 s ten minutes apart, and every workload
//! moved together. Every run would read that drift as well as the
//! program's own cost. The harness therefore times the [`Calibrator`]'s
//! kernel, which is the benchmark's own code and never changes with the
//! program, right before and right after each timed phase, and scales
//! the phase's times by `NOMINAL / kernel time`. A program that gets 10%
//! slower still reads 10% slower; a host that slows everything down for a
//! while reads the same. The raw times are printed beside the scaled
//! ones.
//!
//! The kernel mixes the resources the programs under test lean on, since
//! the host's drift does not slow them all alike: an interpreter loop
//! (dispatch and branches, as the simulators), pointer chases through a
//! buffer that fits the last-level cache and one that does not (latency
//! under cache and memory contention), scattered read-modify-writes and
//! bulk copies (memory throughput, as the simulated kernel's page
//! copies). It tracks most of the drift, not all of it: in the noisiest
//! stretch measured, the workloads slowed down by about one and a half
//! times as much as the kernel.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// About the kernel's time on the 2-vCPU x86-64 VM the benchmark was
/// tuned on (50-75 ms as the host's load changed): the speed the scaled
/// times are given at.
pub const NOMINAL: Duration = Duration::from_millis(60);

/// Passes per calibration; each part's time is its median over them.
const PASSES: usize = 5;

/// Interpreted instructions per pass.
const VM_STEPS: usize = 1_000_000;
/// Pointer-chase steps through the small (2 MiB) and large (16 MiB)
/// cycles.
const CHASE_SMALL: (usize, usize) = (512 << 10, 500_000);
const CHASE_LARGE: (usize, usize) = (4 << 20, 100_000);
/// Scattered read-modify-writes over a 32 MiB buffer.
const SCATTER_WORDS: usize = 4 << 20;
const SCATTER_STEPS: usize = 1_000_000;
/// Copies of an 8 MiB buffer.
const COPY_BYTES: usize = 8 << 20;
const COPIES: usize = 10;

/// One instruction of the kernel's interpreter.
#[derive(Clone, Copy)]
struct Ins {
    op: u8,
    a: u8,
    b: u8,
    imm: u16,
}

/// The kernel's program and buffers, built and touched once so that a
/// pass never page-faults, and its latest reading.
pub struct Calibrator {
    latest: Duration,
    program: Vec<Ins>,
    vm_mem: Vec<u64>,
    chase_small: Vec<u32>,
    chase_large: Vec<u32>,
    scatter: Vec<u64>,
    src: Vec<u8>,
    dst: Vec<u8>,
}

fn xorshift(seed: u64) -> impl FnMut() -> u64 {
    let mut s = seed;
    move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    }
}

/// One random cycle through all `n` slots (Sattolo's algorithm), so a
/// chase never settles into a short, cached loop.
fn cycle(n: usize, seed: u64) -> Vec<u32> {
    let mut next = xorshift(seed);
    let mut v: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        v.swap(i, (next() % i as u64) as usize);
    }
    v
}

fn chase(v: &[u32], steps: usize) -> u32 {
    let mut at = 0;
    for _ in 0..steps {
        at = v[at as usize];
    }
    at
}

/// Runs `steps` instructions of `program`: register arithmetic, loads and
/// stores into `mem`, and data-dependent jumps.
fn interpret(program: &[Ins], mem: &mut [u64], steps: usize) -> u64 {
    let mut r = [1u64; 16];
    let mut pc = 0;
    let mask = mem.len() - 1;
    for _ in 0..steps {
        let Ins { op, a, b, imm } = program[pc];
        let (a, b, imm) = (a as usize, b as usize, imm as usize);
        pc += 1;
        match op {
            0 => r[a] = r[a].wrapping_add(r[b]),
            1 => r[a] = r[a].wrapping_sub(r[b] ^ imm as u64),
            2 => r[a] = r[a].wrapping_mul(r[b] | 1),
            3 => r[a] ^= r[b].rotate_left(imm as u32 & 63),
            4 => r[a] = mem[(r[b] as usize ^ imm) & mask],
            5 => mem[(r[a] as usize ^ imm) & mask] = r[b],
            6 if r[a] & 1 == 0 => pc = imm * 7,
            7 if r[a] > r[b] => pc += imm & 31,
            8 => r[a] = r[b] >> (imm & 31),
            9 => r[a] = r[a].wrapping_add(imm as u64),
            10 => (r[a], r[b]) = (r[b], r[a].wrapping_add(1)),
            11 => r[a] = (r[a] ^ r[b]).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 7,
            _ => {}
        }
        pc %= program.len();
    }
    r.iter().fold(0, |x, y| x ^ y)
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut next = xorshift(0x1234_5678_9ABC_DEF0);
        let program = (0..8192)
            .map(|_| {
                let r = next();
                Ins {
                    op: (r % 12) as u8,
                    a: (r >> 8) as u8 % 16,
                    b: (r >> 16) as u8 % 16,
                    imm: (r >> 24) as u16,
                }
            })
            .collect();
        let mut c = Calibrator {
            latest: Duration::ZERO,
            program,
            vm_mem: vec![0; 32 << 10],
            chase_small: cycle(CHASE_SMALL.0, 1),
            chase_large: cycle(CHASE_LARGE.0, 2),
            scatter: (0..SCATTER_WORDS as u64).collect(),
            src: vec![0x5A; COPY_BYTES],
            dst: vec![0; COPY_BYTES],
        };
        c.pass();
        c.measure();
        c
    }

    /// One pass: each part's time.
    fn pass(&mut self) -> [Duration; 5] {
        let mut t = Instant::now();
        let mut lap = || {
            let now = Instant::now();
            std::mem::replace(&mut t, now).elapsed()
        };
        black_box(interpret(&self.program, &mut self.vm_mem, VM_STEPS));
        let vm = lap();
        black_box(chase(&self.chase_small, CHASE_SMALL.1));
        let small = lap();
        black_box(chase(&self.chase_large, CHASE_LARGE.1));
        let large = lap();
        // A full-period LCG over the power-of-two buffer: the same
        // scattered addresses on every pass, none twice.
        let mut at = 0;
        for _ in 0..SCATTER_STEPS {
            self.scatter[at] = self.scatter[at].wrapping_add(3);
            at = at.wrapping_mul(0x5851_F42D).wrapping_add(0x1405_7B7F) & (SCATTER_WORDS - 1);
        }
        black_box(at);
        let scatter = lap();
        for _ in 0..COPIES {
            self.dst.copy_from_slice(black_box(&self.src));
            black_box(&mut self.dst);
        }
        let copy = lap();
        [vm, small, large, scatter, copy]
    }

    /// Times the kernel now: the sum over its parts of each part's median
    /// pass, so one part's stray pass does not decide it.
    pub fn measure(&mut self) -> Duration {
        let passes: Vec<[Duration; 5]> = (0..PASSES).map(|_| self.pass()).collect();
        self.latest = (0..5)
            .map(|k| {
                let mut v: Vec<Duration> = passes.iter().map(|p| p[k]).collect();
                v.sort_unstable();
                v[PASSES / 2]
            })
            .sum();
        self.latest
    }

    /// The latest reading: for a phase that starts right after a
    /// measurement (or a new calibrator), the reading before it.
    pub fn latest(&self) -> Duration {
        self.latest
    }
}

/// The factor that takes a time measured between calibrations that read
/// `before` and `after` to the nominal machine speed.
pub fn scale(before: Duration, after: Duration) -> f64 {
    NOMINAL.as_secs_f64() * 2.0 / (before + after).as_secs_f64()
}
