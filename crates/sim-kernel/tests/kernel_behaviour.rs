//! Integration tests: the simulated kernel's process, memory, and
//! scheduling behaviour, and the coupling between kernel mitigations and
//! attack outcomes (PTI vs Meltdown, verw vs MDS, seccomp vs SSBD).

use cpu_models::{broadwell, cascade_lake, zen2};
use sim_kernel::abi::{err, nr};
use sim_kernel::layout;
use sim_kernel::resources::MAX_FILE_SIZE;
use sim_kernel::userlib::{self, begin_loop, emit_exit, emit_syscall, end_loop};
use sim_kernel::{BootParams, Kernel, ProcState, SpectreV2Mode};
use uarch::isa::{Cond, Inst, Reg, Width};
use uarch::machine::Stop;
use uarch::isa::spec_ctrl;

const BUDGET: u64 = 50_000_000;

#[test]
fn getpid_returns_pid_and_preserves_registers() {
    let mut k = Kernel::boot(broadwell(), &BootParams::default());
    let pid = k.spawn(|b| {
        b.mov_imm(Reg::R5, 0x1234_5678); // must survive the syscall
        b.mov_imm(Reg::R12, 0x9abc_def0); // must survive despite PTI
        userlib::emit_getpid(b);
        // Stash results in the data arena for inspection.
        b.mov_imm(Reg::R4, userlib::data_base());
        b.push(Inst::Store { src: Reg::R0, base: Reg::R4, offset: 0, width: Width::B8 });
        b.push(Inst::Store { src: Reg::R5, base: Reg::R4, offset: 8, width: Width::B8 });
        b.push(Inst::Store { src: Reg::R12, base: Reg::R4, offset: 16, width: Width::B8 });
        emit_exit(b);
    });
    k.start();
    assert_eq!(k.run(BUDGET).unwrap(), Stop::Halted);
    let out = k.peek_user_data(pid, 0, 24);
    assert_eq!(u64::from_le_bytes(out[0..8].try_into().unwrap()), pid);
    assert_eq!(u64::from_le_bytes(out[8..16].try_into().unwrap()), 0x1234_5678);
    assert_eq!(u64::from_le_bytes(out[16..24].try_into().unwrap()), 0x9abc_def0);
}

#[test]
fn file_write_then_read_round_trips() {
    let mut k = Kernel::boot(cascade_lake(), &BootParams::default());
    let data = userlib::data_base();
    let pid = k.spawn(move |b| {
        // creat() -> fd in R0
        emit_syscall(b, nr::CREAT);
        b.push(Inst::Mov(Reg::R7, Reg::R0)); // fd
        // write(fd, data, 64)
        b.push(Inst::Mov(Reg::R1, Reg::R7));
        b.mov_imm(Reg::R2, data);
        b.mov_imm(Reg::R3, 64);
        emit_syscall(b, nr::WRITE);
        // lseek(fd, 0)
        b.push(Inst::Mov(Reg::R1, Reg::R7));
        b.mov_imm(Reg::R2, 0);
        emit_syscall(b, nr::LSEEK);
        // read(fd, data+4096, 64)
        b.push(Inst::Mov(Reg::R1, Reg::R7));
        b.mov_imm(Reg::R2, data + 4096);
        b.mov_imm(Reg::R3, 64);
        emit_syscall(b, nr::READ);
        emit_exit(b);
    });
    k.poke_user_data(pid, 0, b"The quick brown fox jumps over the lazy dog. 0123456789ABCDEF..");
    k.start();
    k.run(BUDGET).unwrap();
    let round = k.peek_user_data(pid, 4096, 64);
    assert_eq!(&round[..44], b"The quick brown fox jumps over the lazy dog.");
}

#[test]
fn pipe_ping_pong_context_switches() {
    // Parent forks; parent writes to pipe A and blocks reading pipe B;
    // child reads A and writes B; N rounds. This is LEBench's context
    // switch benchmark shape.
    let mut k = Kernel::boot(zen2(), &BootParams::default());
    let data = userlib::data_base();
    let rounds = 8u64;
    k.spawn(move |b| {
        let child = b.new_label();
        let done = b.new_label();
        // pipe() twice: A (fds 0,1), B (fds 2,3).
        emit_syscall(b, nr::PIPE);
        emit_syscall(b, nr::PIPE);
        // fork()
        emit_syscall(b, nr::FORK);
        b.cmp_imm(Reg::R0, 0);
        b.jcc(Cond::Eq, child);

        // Parent: loop { write(A.w=1), read(B.r=2) }.
        let top = begin_loop(b, Reg::R6, rounds);
        b.mov_imm(Reg::R1, 1);
        b.mov_imm(Reg::R2, data);
        b.mov_imm(Reg::R3, 8);
        emit_syscall(b, nr::WRITE);
        b.mov_imm(Reg::R1, 2);
        b.mov_imm(Reg::R2, data + 64);
        b.mov_imm(Reg::R3, 8);
        emit_syscall(b, nr::READ);
        end_loop(b, Reg::R6, top);
        b.jmp(done);

        // Child: loop { read(A.r=0), write(B.w=3) }.
        b.bind(child);
        let ctop = begin_loop(b, Reg::R6, rounds);
        b.mov_imm(Reg::R1, 0);
        b.mov_imm(Reg::R2, data + 128);
        b.mov_imm(Reg::R3, 8);
        emit_syscall(b, nr::READ);
        b.mov_imm(Reg::R1, 3);
        b.mov_imm(Reg::R2, data + 192);
        b.mov_imm(Reg::R3, 8);
        emit_syscall(b, nr::WRITE);
        end_loop(b, Reg::R6, ctop);

        b.bind(done);
        emit_exit(b);
    });
    k.start();
    assert_eq!(k.run(BUDGET).unwrap(), Stop::Halted);
    assert!(
        k.state.stats.ctx_switches >= rounds,
        "ping-pong must context switch every round: {} switches",
        k.state.stats.ctx_switches
    );
    assert_eq!(k.state.stats.forks, 1);
    // Default IBPB policy is conditional: plain tasks get no barrier.
    assert_eq!(k.state.stats.ibpbs, 0);
}

#[test]
fn ibpb_not_issued_with_nospectre_v2() {
    let mut k = Kernel::boot(zen2(), &BootParams::parse("nospectre_v2"));
    k.spawn(|b| {
        emit_syscall(b, nr::PIPE);
        emit_syscall(b, nr::FORK);
        b.cmp_imm(Reg::R0, 0);
        let child = b.new_label();
        b.jcc(Cond::Eq, child);
        // Parent writes so the child can read, then exits.
        b.mov_imm(Reg::R1, 1);
        b.mov_imm(Reg::R2, userlib::data_base());
        b.mov_imm(Reg::R3, 8);
        emit_syscall(b, nr::WRITE);
        emit_exit(b);
        b.bind(child);
        b.mov_imm(Reg::R1, 0);
        b.mov_imm(Reg::R2, userlib::data_base() + 64);
        b.mov_imm(Reg::R3, 8);
        emit_syscall(b, nr::READ);
        emit_exit(b);
    });
    k.start();
    k.run(BUDGET).unwrap();
    assert!(k.state.stats.ctx_switches > 0);
    assert_eq!(k.state.stats.ibpbs, 0);
}

#[test]
fn seccomp_task_gets_ibpb_on_switches() {
    // Conditional IBPB: a hardened (seccomp) task is isolated from its
    // neighbours with a barrier on every switch involving it.
    let mut k = Kernel::boot(zen2(), &BootParams::default());
    k.spawn(|b| {
        emit_syscall(b, nr::SECCOMP);
        for _ in 0..4 {
            emit_syscall(b, nr::YIELD);
        }
        emit_exit(b);
    });
    k.spawn(|b| {
        for _ in 0..4 {
            emit_syscall(b, nr::YIELD);
        }
        emit_exit(b);
    });
    k.start();
    k.run(BUDGET).unwrap();
    assert!(k.state.stats.ctx_switches >= 4);
    assert!(
        k.state.stats.ibpbs >= 4,
        "switches around a seccomp task must IBPB: {}",
        k.state.stats.ibpbs
    );
}

#[test]
fn mmap_demand_paging_faults_once_per_page() {
    let mut k = Kernel::boot(broadwell(), &BootParams::default());
    let pages = 16u64;
    k.spawn(move |b| {
        b.mov_imm(Reg::R1, pages * 4096);
        emit_syscall(b, nr::MMAP);
        b.push(Inst::Mov(Reg::R7, Reg::R0)); // base
        // Touch each page twice; only the first touch faults.
        for round in 0..2 {
            let _ = round;
            let top = begin_loop(b, Reg::R6, pages);
            b.push(Inst::Store { src: Reg::R6, base: Reg::R7, offset: 0, width: Width::B8 });
            b.push(Inst::AddImm(Reg::R7, 4096));
            end_loop(b, Reg::R6, top);
            b.push(Inst::SubImm(Reg::R7, pages * 4096));
        }
        emit_exit(b);
    });
    k.start();
    k.run(BUDGET).unwrap();
    assert_eq!(k.state.stats.demand_faults, pages);
}

#[test]
fn munmap_unmaps_and_faults_kill_without_handler() {
    let mut k = Kernel::boot(broadwell(), &BootParams::default());
    k.spawn(|b| {
        b.mov_imm(Reg::R1, 4096);
        emit_syscall(b, nr::MMAP_POPULATE);
        b.push(Inst::Mov(Reg::R7, Reg::R0));
        // Touch: fine.
        b.push(Inst::Store { src: Reg::R7, base: Reg::R7, offset: 0, width: Width::B8 });
        // munmap, then touch again: SIGSEGV (process killed).
        b.push(Inst::Mov(Reg::R1, Reg::R7));
        b.mov_imm(Reg::R2, 4096);
        emit_syscall(b, nr::MUNMAP);
        b.push(Inst::Store { src: Reg::R7, base: Reg::R7, offset: 0, width: Width::B8 });
        // Should never get here.
        emit_exit(b);
    });
    k.start();
    assert_eq!(k.run(BUDGET).unwrap(), Stop::Halted);
    let pid = 1;
    assert_eq!(k.process(pid).unwrap().state, ProcState::Exited);
    // Exactly one syscall round for mmap + munmap + 0 exits: the store
    // after munmap killed it, so the final `exit` never ran.
    assert!(k.state.stats.syscalls >= 2);
}

#[test]
fn select_counts_ready_fds() {
    let mut k = Kernel::boot(cascade_lake(), &BootParams::default());
    let data = userlib::data_base();
    let pid = k.spawn(move |b| {
        emit_syscall(b, nr::PIPE); // fds 0 (r), 1 (w)
        emit_syscall(b, nr::CREAT); // fd 2
        // select(3): pipe-read not ready, pipe-write ready, file ready = 2.
        b.mov_imm(Reg::R1, 3);
        emit_syscall(b, nr::SELECT);
        b.mov_imm(Reg::R4, data);
        b.push(Inst::Store { src: Reg::R0, base: Reg::R4, offset: 0, width: Width::B8 });
        // Write to the pipe, select again: 3 ready.
        b.mov_imm(Reg::R1, 1);
        b.mov_imm(Reg::R2, data);
        b.mov_imm(Reg::R3, 8);
        emit_syscall(b, nr::WRITE);
        b.mov_imm(Reg::R1, 3);
        emit_syscall(b, nr::SELECT);
        b.push(Inst::Store { src: Reg::R0, base: Reg::R4, offset: 8, width: Width::B8 });
        emit_exit(b);
    });
    k.start();
    k.run(BUDGET).unwrap();
    let out = k.peek_user_data(pid, 0, 16);
    assert_eq!(u64::from_le_bytes(out[0..8].try_into().unwrap()), 2);
    assert_eq!(u64::from_le_bytes(out[8..16].try_into().unwrap()), 3);
}

#[test]
fn seccomp_enables_ssbd_under_default_policy() {
    let mut k = Kernel::boot(broadwell(), &BootParams::default());
    k.spawn(|b| {
        emit_syscall(b, nr::SECCOMP);
        // Spin a little so we can observe the MSR while running.
        let top = begin_loop(b, Reg::R6, 4);
        b.push(Inst::Nop);
        end_loop(b, Reg::R6, top);
        emit_exit(b);
    });
    k.start();
    k.run(BUDGET).unwrap();
    // After the seccomp syscall the SSBD bit must have been set; it is
    // still set at halt since no other process ran.
    assert_ne!(k.machine.msrs.spec_ctrl() & spec_ctrl::SSBD, 0);
}

#[test]
fn seccomp_does_not_enable_ssbd_on_516_policy() {
    let mut k = Kernel::boot(
        broadwell(),
        &BootParams::parse("spec_store_bypass_disable=prctl"),
    );
    k.spawn(|b| {
        emit_syscall(b, nr::SECCOMP);
        emit_exit(b);
    });
    k.start();
    k.run(BUDGET).unwrap();
    assert_eq!(k.machine.msrs.spec_ctrl() & spec_ctrl::SSBD, 0);
}

#[test]
fn eibrs_is_set_once_at_boot() {
    let k = Kernel::boot(cascade_lake(), &BootParams::default());
    assert_eq!(k.state.config.spectre_v2, SpectreV2Mode::Eibrs);
    assert_ne!(k.machine.msrs.spec_ctrl() & spec_ctrl::IBRS, 0);
    // And not on retpoline parts.
    let k = Kernel::boot(broadwell(), &BootParams::default());
    assert_eq!(k.machine.msrs.spec_ctrl() & spec_ctrl::IBRS, 0);
}

#[test]
fn pti_makes_syscalls_slower() {
    // The PTI attribution: identical workload, with and without `nopti`,
    // on a Meltdown-vulnerable part.
    let run = |cmdline: &str| -> u64 {
        let mut k = Kernel::boot(broadwell(), &BootParams::parse(cmdline));
        k.spawn(|b| {
            let top = begin_loop(b, Reg::R6, 200);
            userlib::emit_getpid(b);
            end_loop(b, Reg::R6, top);
            emit_exit(b);
        });
        k.start();
        k.run(BUDGET).unwrap();
        k.cycles()
    };
    let with_pti = run("");
    let without = run("nopti");
    let delta = with_pti.saturating_sub(without);
    // Two cr3 swaps per syscall at 206 cycles each, 200 iterations.
    assert!(
        delta > 200 * 2 * 150,
        "PTI must cost ~2 swaps/syscall: delta {delta}"
    );
}

#[test]
fn mds_verw_makes_syscalls_slower_only_when_vulnerable() {
    let run = |model: uarch::CpuModel, cmdline: &str| -> u64 {
        let mut k = Kernel::boot(model, &BootParams::parse(cmdline));
        k.spawn(|b| {
            let top = begin_loop(b, Reg::R6, 200);
            userlib::emit_getpid(b);
            end_loop(b, Reg::R6, top);
            emit_exit(b);
        });
        k.start();
        k.run(BUDGET).unwrap();
        k.cycles()
    };
    let skl_on = run(cpu_models::skylake_client(), "nopti"); // isolate MDS
    let skl_off = run(cpu_models::skylake_client(), "nopti mds=off");
    assert!(
        skl_on.saturating_sub(skl_off) > 200 * 400,
        "verw (~518 cycles) per syscall exit on Skylake"
    );
    // Ice Lake Server: not vulnerable, toggle is a no-op.
    let icx_on = run(cpu_models::ice_lake_server(), "");
    let icx_off = run(cpu_models::ice_lake_server(), "mds=off");
    let rel = (icx_on as f64 - icx_off as f64).abs() / icx_off as f64;
    assert!(rel < 0.01, "mds toggle must not matter on fixed hardware: {rel}");
}

#[test]
fn meltdown_through_kernel_blocked_by_pti() {
    // End-to-end: a user process tries to Meltdown-read kernel data.
    // Without PTI on Broadwell it succeeds; with PTI the kernel mapping
    // is simply absent in user mode.
    let leak = |cmdline: &str| -> Option<u8> {
        let mut k = Kernel::boot(broadwell(), &BootParams::parse(cmdline));
        let kdata = sim_kernel::layout::KERNEL_DATA_VADDR;
        // Plant a distinctive secret as the first kernel data byte.
        let secret_paddr = k.kernel_data_paddr();
        k.machine.mem.write_u8(secret_paddr, 0xA5);
        let probe = userlib::data_base() + 0x8000; // within the data arena
        k.spawn(move |b| {
            let done = b.new_label();
            b.lea(Reg::R13, done); // fault recovery address
            b.mov_imm(Reg::R1, kdata);
            b.mov_imm(Reg::R3, probe);
            b.push(Inst::Load { dst: Reg::R4, base: Reg::R1, offset: 0, width: Width::B1 });
            b.push(Inst::Shl(Reg::R4, 9));
            b.push(Inst::Add(Reg::R4, Reg::R3));
            b.push(Inst::Load { dst: Reg::R5, base: Reg::R4, offset: 0, width: Width::B1 });
            b.bind(done);
            emit_exit(b);
        });
        k.start();
        k.machine.l1d.flush_all();
        k.run(BUDGET).unwrap();
        // Readout: which probe line is hot?
        let mut hits = vec![];
        for i in 0..256u64 {
            let vaddr = probe + i * 512;
            // The data arena is identity-offset; find its frame via the
            // page table of process 1.
            let p = k.process(1).unwrap();
            let pte = k.machine.mmu.table(p.full_table).unwrap().lookup(vaddr).unwrap();
            let paddr = (pte.pfn << 12) | (vaddr & 0xfff);
            if k.machine.l1d.probe(paddr) {
                hits.push(i as u8);
            }
        }
        if hits.len() == 1 {
            Some(hits[0])
        } else {
            None
        }
    };
    let without_pti = leak("nopti");
    let with_pti = leak("");
    // Without PTI: the supervisor mapping exists, Meltdown forwards the
    // planted secret byte to the probe.
    assert_eq!(without_pti, Some(0xA5), "Meltdown leaks through a mapped kernel page");
    // With PTI there is no mapping at all: the transient load cannot
    // target the secret (at worst it samples stale, untargeted fill-buffer
    // data), so the readout never recovers it.
    assert_ne!(with_pti, Some(0xA5), "PTI must remove the kernel mapping");
}

#[test]
fn thread_create_shares_address_space() {
    let mut k = Kernel::boot(zen2(), &BootParams::default());
    let data = userlib::data_base();
    let pid = k.spawn(move |b| {
        let thread = b.new_label();
        let wait = b.new_label();
        b.lea(Reg::R1, thread);
        emit_syscall(b, nr::THREAD_CREATE);
        // Main: spin until the thread stores a flag.
        b.bind(wait);
        emit_syscall(b, nr::YIELD);
        b.mov_imm(Reg::R4, data);
        b.push(Inst::Load { dst: Reg::R5, base: Reg::R4, offset: 0, width: Width::B8 });
        b.cmp_imm(Reg::R5, 0x77);
        b.jcc(Cond::Ne, wait);
        emit_exit(b);
        // Thread body: store the flag, exit.
        b.bind(thread);
        b.mov_imm(Reg::R4, data);
        b.mov_imm(Reg::R5, 0x77);
        b.push(Inst::Store { src: Reg::R5, base: Reg::R4, offset: 0, width: Width::B8 });
        emit_exit(b);
    });
    k.start();
    assert_eq!(k.run(BUDGET).unwrap(), Stop::Halted);
    let out = k.peek_user_data(pid, 0, 8);
    assert_eq!(u64::from_le_bytes(out.try_into().unwrap()), 0x77);
}

#[test]
fn fork_copies_what_the_parent_wrote_and_separates_the_copies() {
    // Each page holds three words: a pre-fork marker, then one written
    // by the parent and one by the child after the fork.
    const PARENT_AFTER: u64 = 0xaaaa;
    const CHILD_AFTER: u64 = 0xcccc;
    let data = userlib::data_base();
    let stack_slot = layout::STACK_TOP - 256; // below the initial SP
    let mut k = Kernel::boot(broadwell(), &BootParams::default());
    let parent = k.spawn(move |b| {
        let child = b.new_label();
        let done = b.new_label();
        let store = |b: &mut uarch::ProgramBuilder, base: Reg, offset: i64, value: u64| {
            b.mov_imm(Reg::R5, value);
            b.push(Inst::Store { src: Reg::R5, base, offset, width: Width::B8 });
        };
        b.mov_imm(Reg::R1, 4096);
        emit_syscall(b, nr::MMAP_POPULATE);
        b.push(Inst::Mov(Reg::R7, Reg::R0));
        b.mov_imm(Reg::R6, data);
        b.mov_imm(Reg::R8, stack_slot);
        // Pre-fork: a marker in data page 0, the stack and the mmap page,
        // and the mmap address at data+24. Data page 1 stays unwritten.
        store(b, Reg::R6, 0, 0xda7a);
        store(b, Reg::R8, 0, 0x57ac);
        store(b, Reg::R7, 0, 0x3a9);
        b.push(Inst::Store { src: Reg::R7, base: Reg::R6, offset: 24, width: Width::B8 });
        emit_syscall(b, nr::FORK);
        b.cmp_imm(Reg::R0, 0);
        b.jcc(Cond::Eq, child);
        for base in [Reg::R6, Reg::R8, Reg::R7] {
            store(b, base, 8, PARENT_AFTER);
        }
        b.jmp(done);
        b.bind(child);
        for base in [Reg::R6, Reg::R8, Reg::R7] {
            store(b, base, 16, CHILD_AFTER);
        }
        b.bind(done);
        emit_exit(b);
    });
    k.start();
    assert_eq!(k.run(BUDGET).unwrap(), Stop::Halted);
    assert_eq!(k.state.stats.forks, 1);
    let child = parent + 1;
    for pid in [parent, child] {
        assert_eq!(k.process(pid).unwrap().state, ProcState::Exited, "pid {pid}");
    }

    // `peek_user_data` takes offsets from the data arena's base.
    let word = |pid, vaddr: u64| {
        u64::from_le_bytes(k.peek_user_data(pid, vaddr - data, 8).try_into().unwrap())
    };
    let mmap_page = word(parent, data + 24);
    assert_eq!(word(child, data + 24), mmap_page);
    for (page, marker) in [(data, 0xda7a), (stack_slot, 0x57ac), (mmap_page, 0x3a9)] {
        let words = |pid| [word(pid, page), word(pid, page + 8), word(pid, page + 16)];
        assert_eq!(words(parent), [marker, PARENT_AFTER, 0], "parent's page {page:#x}");
        assert_eq!(words(child), [marker, 0, CHILD_AFTER], "child's page {page:#x}");
    }
    for pid in [parent, child] {
        let unwritten = k.peek_user_data(pid, 4096, 4096);
        assert!(unwritten.iter().all(|&b| b == 0), "pid {pid}: data page 1 reads zero");
    }
}

#[test]
fn fork_gives_the_child_frames_in_page_order() {
    // Populated mmap pages are the parent's pages the child lacks, so
    // fork allocates a fresh frame for each. The page table is a hash
    // map, so a copy in its order would hand the child the same frames
    // in the order of the pages' hashes.
    const PAGES: u64 = 8;
    let child_pfns = || {
        let mut k = Kernel::boot(broadwell(), &BootParams::default());
        let parent = k.spawn(|b| {
            b.mov_imm(Reg::R1, PAGES * 4096);
            emit_syscall(b, nr::MMAP_POPULATE);
            emit_syscall(b, nr::FORK);
            emit_exit(b);
        });
        k.start();
        assert_eq!(k.run(BUDGET).unwrap(), Stop::Halted);
        assert_eq!(k.state.stats.forks, 1);
        let region = k.process(parent).unwrap().mmap_regions[0];
        let table = k.machine.mmu.table(k.process(parent + 1).unwrap().full_table).unwrap();
        (0..PAGES)
            .map(|i| table.lookup(region.start + i * 4096).expect("the child maps the page").pfn)
            .collect::<Vec<u64>>()
    };
    let first = child_pfns();
    assert!(first.windows(2).all(|w| w[0] < w[1]), "pfns ascend with the page: {first:?}");
    assert_eq!(child_pfns(), first, "a second boot gives the child the same frames");
}

// ---- Syscall arguments at the edges -----------------------------------

/// Where [`syscalls`] keeps each call's return value: past anything the
/// calls themselves copy, except a copy of the whole arena.
const RESULTS: u64 = 0x8_0000;

/// The descriptor of the file [`syscalls`] creates first.
const FD: u64 = 0;

/// Runs one process that creates a file (descriptor [`FD`]), makes
/// `calls` (`(number, a1, a2, a3)`) and stores each return value.
/// Asserts that the process runs on to `exit`, and returns the values.
fn syscalls(calls: &[(u64, u64, u64, u64)]) -> Vec<u64> {
    let mut k = Kernel::boot(broadwell(), &BootParams::default());
    let program = calls.to_vec();
    let pid = k.spawn(move |b| {
        emit_syscall(b, nr::CREAT);
        b.mov_imm(Reg::R7, userlib::data_base() + RESULTS);
        for (i, (number, a1, a2, a3)) in program.into_iter().enumerate() {
            b.mov_imm(Reg::R1, a1);
            b.mov_imm(Reg::R2, a2);
            b.mov_imm(Reg::R3, a3);
            emit_syscall(b, number);
            let offset = 8 * i as i64;
            b.push(Inst::Store { src: Reg::R0, base: Reg::R7, offset, width: Width::B8 });
        }
        emit_exit(b);
    });
    k.start();
    assert_eq!(k.run(BUDGET).unwrap(), Stop::Halted);
    assert_eq!(k.process(pid).unwrap().state, ProcState::Exited, "the process ran on to exit");
    let bytes = k.peek_user_data(pid, RESULTS, 8 * calls.len());
    bytes.chunks_exact(8).map(|w| u64::from_le_bytes(w.try_into().unwrap())).collect()
}

#[test]
fn a_write_from_the_top_of_the_address_space_copies_nothing() {
    // The buffer's end wraps past 2^64; the copy stops at the top, and
    // the page there is not mapped.
    assert_eq!(syscalls(&[(nr::WRITE, FD, u64::MAX - 7, 64)]), [0]);
}

#[test]
fn a_write_of_u64_max_bytes_copies_up_to_the_end_of_the_arena() {
    let arena = layout::USER_DATA_PAGES * 4096;
    assert_eq!(syscalls(&[(nr::WRITE, FD, userlib::data_base(), u64::MAX)]), [arena]);
}

#[test]
fn a_read_of_u64_max_bytes_at_end_of_file_reads_nothing() {
    let data = userlib::data_base();
    let results = syscalls(&[(nr::WRITE, FD, data, 64), (nr::READ, FD, data + 4096, u64::MAX)]);
    assert_eq!(results, [64, 0]);
}

#[test]
fn a_write_that_would_end_past_the_top_of_the_file_space_is_efbig() {
    let offset = u64::MAX - 3;
    let results = syscalls(&[(nr::LSEEK, FD, offset, 0), (nr::WRITE, FD, userlib::data_base(), 8)]);
    assert_eq!(results, [offset, err::EFBIG]);
}

#[test]
fn a_write_past_the_file_size_cap_is_efbig_and_one_up_to_it_is_not() {
    let data = userlib::data_base();
    let cap = MAX_FILE_SIZE;
    let results = syscalls(&[
        (nr::LSEEK, FD, 1 << 40, 0),
        (nr::WRITE, FD, data, 8),
        (nr::LSEEK, FD, cap - 8, 0),
        (nr::WRITE, FD, data, 8),
        (nr::WRITE, FD, data, 1),
    ]);
    assert_eq!(results, [1 << 40, err::EFBIG, cap - 8, 8, err::EFBIG]);
}

#[test]
fn an_ftruncate_past_the_file_size_cap_is_efbig() {
    let results = syscalls(&[
        (nr::FTRUNCATE, FD, 1 << 40, 0),
        (nr::FTRUNCATE, FD, MAX_FILE_SIZE + 1, 0),
        (nr::FTRUNCATE, FD, 4096, 0),
    ]);
    assert_eq!(results, [err::EFBIG, err::EFBIG, 0]);
}

#[test]
fn mmap_and_munmap_lengths_past_the_address_space_are_refused() {
    let results = syscalls(&[
        (nr::MMAP, u64::MAX, 0, 0),
        (nr::MMAP_POPULATE, u64::MAX - 4095, 0, 0),
        (nr::MMAP, layout::MMAP_SPAN + 1, 0, 0),
        (nr::MUNMAP, layout::MMAP_BASE, u64::MAX, 0),
        (nr::MUNMAP, layout::MMAP_BASE, 1 << 62, 0),
        (nr::MMAP, 4096, 0, 0),
        (nr::MUNMAP, layout::MMAP_BASE, 4096, 0),
    ]);
    let (enomem, einval) = (err::ENOMEM, err::EINVAL);
    assert_eq!(results, [enomem, enomem, enomem, einval, einval, layout::MMAP_BASE, 0]);
}
