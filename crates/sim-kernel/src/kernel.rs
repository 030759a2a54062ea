//! The simulated kernel: processes, syscalls, scheduling, demand paging.
//!
//! The [`Kernel`] owns a [`Machine`] and drives user programs on it. The
//! mitigation-bearing instruction paths are generated by
//! [`crate::entry`]; syscall semantics and scheduling run in host hooks
//! on [`KernelState`]. Context-switch mitigation work (eager FPU, IBPB,
//! RSB stuffing, CR3 switch, per-process SSBD) is performed — and charged
//! at the CPU model's calibrated latencies — in `KernelState::switch_to`.

use uarch::fault::{Fault, PageFaultKind, SimError};
use uarch::isa::{msr_index, spec_ctrl, Reg};
use uarch::machine::{Env, Machine, Stop};
use uarch::mem::{PAGE_SHIFT, PAGE_SIZE};
use uarch::mmu::{make_cr3, PageTable, PageTableId, Pte};
use uarch::model::CpuModel;
use uarch::predictor::PrivMode;
use uarch::program::Program;
use uarch::ProgramBuilder;

use crate::abi::{err, hook, nr};
use crate::boot::BootParams;
use crate::bpf::{self, BpfInsn, MapId, MapLoc, ProgId, VerifierError};
use crate::entry::{build_kernel_text, build_rsb_pad, EntryAddrs};
use crate::layout;
use crate::mitigation::MitigationConfig;
use crate::process::{BlockedOn, Fd, MmapRegion, Pid, ProcState, Process};
use crate::resources::{File, Pipe};

/// Counters the kernel keeps about itself.
#[derive(Debug, Default, Clone)]
pub struct KernelStats {
    /// Syscalls dispatched.
    pub syscalls: u64,
    /// Context switches performed.
    pub ctx_switches: u64,
    /// Demand page faults served.
    pub demand_faults: u64,
    /// IBPBs issued on context switch.
    pub ibpbs: u64,
    /// Lazy-FPU restore traps taken.
    pub fpu_traps: u64,
    /// Processes forked.
    pub forks: u64,
}

/// The kernel: a machine plus all kernel-side state.
#[derive(Debug)]
pub struct Kernel {
    /// The simulated CPU this kernel boots on.
    pub machine: Machine,
    /// Kernel-side state (processes, pipes, files, policy).
    pub state: KernelState,
}

/// Kernel-side state; implements [`Env`] to give `Host` instructions
/// their semantics.
#[derive(Debug)]
pub struct KernelState {
    /// The resolved mitigation configuration for this boot.
    pub config: MitigationConfig,
    /// Entry-point addresses in the generated kernel text.
    pub addrs: EntryAddrs,
    /// Counters.
    pub stats: KernelStats,
    procs: Vec<Process>,
    current: usize,
    pipes: Vec<Pipe>,
    files: Vec<File>,
    next_frame: u64,
    next_pid: Pid,
    next_code_base: u64,
    kdata_frame: u64,
    scratch_r12: u64,
    /// Per-boot count of bytes copied across the user/kernel boundary.
    pub bytes_copied: u64,
    /// Paravirtual disk trampoline: when set, `fsync` jumps here (the
    /// hypervisor loads a `vmcall` pad at this address) instead of
    /// charging a bare-metal flash latency.
    pub vmcall_pad: Option<u64>,
    /// Where the vmcall trampoline resumes (the interrupted kernel path).
    vmcall_resume: u64,
    /// Loaded BPF program entry addresses.
    bpf_progs: Vec<u64>,
    /// BPF map locations in kernel data.
    bpf_maps: Vec<MapLoc>,
    /// Next free offset in the kernel data area for map storage.
    bpf_map_cursor: u64,
    /// Next code base for JIT output.
    bpf_code_cursor: u64,
    /// When set, the syscall body's single indirect call dispatches here
    /// instead of `kernel_fn` (BPF program execution).
    body_target: Option<u64>,
    /// Capture the body's R0 as the syscall return value (BPF_PROG_RUN).
    capture_body_r0: bool,
}

impl Kernel {
    /// Boots a kernel for `model` with the given boot parameters.
    pub fn boot(model: CpuModel, params: &BootParams) -> Kernel {
        let config = MitigationConfig::resolve(&model, params);
        let (text, addrs) = build_kernel_text(&config);
        let mut machine = Machine::new(model);
        machine.load_program(text);
        machine.load_program(build_rsb_pad());
        machine.syscall_entry = Some(addrs.syscall_entry);
        machine.fault_vectors.page_fault = Some(addrs.fault_entry);
        machine.fault_vectors.general_protection = Some(addrs.fault_entry);
        machine.fault_vectors.device_not_available = Some(addrs.fault_entry);
        machine.fault_vectors.divide_error = Some(addrs.fault_entry);
        machine.fault_vectors.invalid_opcode = Some(addrs.fault_entry);
        let mut state = KernelState {
            config,
            addrs,
            stats: KernelStats::default(),
            procs: Vec::new(),
            current: 0,
            pipes: Vec::new(),
            files: Vec::new(),
            next_frame: 0x1000,
            next_pid: 1,
            next_code_base: layout::USER_CODE_BASE,
            kdata_frame: 0,
            scratch_r12: 0,
            bytes_copied: 0,
            vmcall_pad: None,
            vmcall_resume: 0,
            bpf_progs: Vec::new(),
            bpf_maps: Vec::new(),
            // Map storage starts past the area `kernel_fn` touches.
            bpf_map_cursor: 0x8000,
            bpf_code_cursor: 0x8200_0000,
            body_target: None,
            capture_body_r0: false,
        };
        // Allocate kernel data frames and plant recognizable contents
        // (the "kernel secrets" attacks try to read): word `i` of the area
        // holds `0x4b44_0000_0000 + i`, written a frame at a time.
        state.kdata_frame = state.alloc_frames(layout::KERNEL_DATA_PAGES);
        let mut frame = [0u8; PAGE_SIZE as usize];
        for page in 0..layout::KERNEL_DATA_PAGES {
            for (j, word) in frame.chunks_exact_mut(8).enumerate() {
                let i = page * PAGE_SIZE / 8 + j as u64;
                word.copy_from_slice(&(0x4b44_0000_0000 + i).to_le_bytes());
            }
            machine.mem.write_frame(state.kdata_frame + page, &frame);
        }
        // If eIBRS is in use, it is enabled once at boot.
        if state.config.spectre_v2 == crate::mitigation::SpectreV2Mode::Eibrs {
            machine
                .msrs
                .write(msr_index::IA32_SPEC_CTRL, spec_ctrl::IBRS)
                .expect("spec_ctrl accepts IBRS");
        }
        Kernel { machine, state }
    }

    /// Spawns a process whose code is produced by `build`. Returns its pid.
    ///
    /// The program is linked at a process-specific code base; execution
    /// starts at its first instruction with `SP` at the stack top.
    pub fn spawn(&mut self, build: impl FnOnce(&mut ProgramBuilder)) -> Pid {
        let mut b = ProgramBuilder::new();
        build(&mut b);
        let base = self.state.next_code_base;
        self.state.next_code_base += layout::USER_CODE_SPAN;
        let prog = b.link(base);
        self.spawn_program(prog)
    }

    /// Allocates the next process code base (for callers that need to link
    /// a program themselves, e.g. the JS engine's JIT output).
    pub fn alloc_code_base(&mut self) -> u64 {
        let base = self.state.next_code_base;
        self.state.next_code_base += layout::USER_CODE_SPAN;
        base
    }

    /// Spawns a pre-linked program as a new process.
    pub fn spawn_program(&mut self, prog: Program) -> Pid {
        let entry = prog.base();
        self.machine.load_program(prog);
        self.state.create_process(&mut self.machine, entry)
    }

    /// Starts executing the first runnable process.
    ///
    /// # Panics
    ///
    /// Panics if nothing has been spawned.
    pub fn start(&mut self) {
        let idx = self
            .state
            .procs
            .iter()
            .position(|p| p.state == ProcState::Runnable)
            .expect("no runnable process");
        self.state.current = idx;
        let p = &self.state.procs[idx];
        self.machine.regs = p.saved_regs;
        self.machine.pc = p.user_pc;
        self.machine.mode = PrivMode::User;
        self.machine
            .mmu
            .load_cr3(p.user_cr3)
            .then_some(())
            .expect("user cr3 valid");
        let want = p.wants_ssbd(self.state.config.ssbd);
        self.state.apply_ssbd(&mut self.machine, want);
    }

    /// Runs until every process exits (or the instruction budget runs
    /// out). Returns the machine's final stop reason.
    pub fn run(&mut self, budget: u64) -> Result<Stop, SimError> {
        self.machine.run(&mut self.state, budget)
    }

    /// Total simulated cycles so far.
    pub fn cycles(&self) -> u64 {
        self.machine.cycles()
    }

    /// Writes bytes into a process's eager data arena (for test setup).
    pub fn poke_user_data(&mut self, pid: Pid, offset: u64, bytes: &[u8]) {
        let p = self.state.proc_by_pid(pid).expect("pid exists");
        let table = p.full_table;
        let vaddr = layout::USER_DATA_VADDR + offset;
        let pte = self
            .machine
            .mmu
            .table(table)
            .and_then(|t| t.lookup(vaddr))
            .expect("data arena mapped");
        let paddr = (pte.pfn << PAGE_SHIFT) + (vaddr & (PAGE_SIZE - 1));
        self.machine.mem.write_bytes(paddr, bytes);
    }

    /// Reads bytes from a process's eager data arena.
    pub fn peek_user_data(&self, pid: Pid, offset: u64, len: usize) -> Vec<u8> {
        let p = self.state.proc_by_pid(pid).expect("pid exists");
        let vaddr = layout::USER_DATA_VADDR + offset;
        let pte = self
            .machine
            .mmu
            .table(p.full_table)
            .and_then(|t| t.lookup(vaddr))
            .expect("data arena mapped");
        let paddr = (pte.pfn << PAGE_SHIFT) + (vaddr & (PAGE_SIZE - 1));
        self.machine.mem.read_bytes(paddr, len)
    }

    /// Sets a register in a not-yet-started process's initial frame.
    ///
    /// # Panics
    ///
    /// Panics if the pid does not exist.
    pub fn set_initial_reg(&mut self, pid: Pid, reg: Reg, value: u64) {
        let p = self
            .state
            .procs
            .iter_mut()
            .find(|p| p.pid == pid)
            .expect("pid exists");
        p.saved_regs[reg.index()] = value;
    }

    /// Physical address of the kernel data area (for planting "secrets"
    /// in attack experiments).
    pub fn kernel_data_paddr(&self) -> u64 {
        self.state.kdata_frame << PAGE_SHIFT
    }

    /// Creates a BPF array map with `len` slots in kernel data; returns
    /// its id. Host-level, mirroring `bpf(BPF_MAP_CREATE, …)`.
    pub fn bpf_create_map(&mut self, len: u64) -> MapId {
        let vaddr = layout::KERNEL_DATA_VADDR + self.state.bpf_map_cursor;
        // Header word = length, then the slots.
        let paddr = self.kernel_data_paddr() + self.state.bpf_map_cursor;
        self.machine.mem.write_u64(paddr, len);
        for i in 0..len {
            self.machine.mem.write_u64(paddr + 8 + i * 8, 0);
        }
        self.state.bpf_map_cursor += 8 + len * 8;
        assert!(
            self.state.bpf_map_cursor < layout::KERNEL_DATA_PAGES * 4096,
            "kernel data exhausted by BPF maps"
        );
        self.state.bpf_maps.push(MapLoc { vaddr, len });
        (self.state.bpf_maps.len() - 1) as MapId
    }

    /// Physical address of a map slot.
    pub fn bpf_map_paddr(&self, map: MapId, idx: u64) -> u64 {
        let loc = self.state.bpf_maps[map as usize];
        let off = loc.vaddr - layout::KERNEL_DATA_VADDR;
        self.kernel_data_paddr() + off + 8 + idx * 8
    }

    /// Plants a kernel-private word adjacent to the map storage (the
    /// "secret" the eBPF Spectre experiments target) and returns its
    /// kernel virtual address.
    pub fn bpf_reserve_secret(&mut self, value: u64) -> u64 {
        let vaddr = layout::KERNEL_DATA_VADDR + self.state.bpf_map_cursor;
        let paddr = self.kernel_data_paddr() + self.state.bpf_map_cursor;
        self.machine.mem.write_u64(paddr, value);
        self.state.bpf_map_cursor += 8;
        vaddr
    }

    /// Reads a map slot (host-level test/diagnostic access).
    pub fn bpf_map_read(&self, map: MapId, idx: u64) -> u64 {
        let loc = self.state.bpf_maps[map as usize];
        assert!(idx < loc.len);
        let off = loc.vaddr - layout::KERNEL_DATA_VADDR;
        self.machine.mem.read_u64(self.kernel_data_paddr() + off + 8 + idx * 8)
    }

    /// Writes a map slot (host-level).
    pub fn bpf_map_write(&mut self, map: MapId, idx: u64, value: u64) {
        let loc = self.state.bpf_maps[map as usize];
        assert!(idx < loc.len);
        let off = loc.vaddr - layout::KERNEL_DATA_VADDR;
        self.machine.mem.write_u64(self.kernel_data_paddr() + off + 8 + idx * 8, value);
    }

    /// Verifies, JIT-compiles, and loads a BPF program; returns its id.
    /// The verifier's index masking follows the kernel's Spectre V1
    /// setting, like Linux's `bpf_jit_harden`/array-index sanitation.
    /// Under `spectre_v1=targeted`, the unmasked JIT output is analyzed
    /// first and masking is applied only when a branch is flagged —
    /// a single map lookup is benign (its value never feeds another
    /// load), a lookup chain is the eBPF Spectre gadget and gets masked.
    pub fn bpf_load(&mut self, insns: &[BpfInsn]) -> Result<ProgId, VerifierError> {
        let verified = bpf::verify(insns, self.state.bpf_maps.len() as u32)?;
        let base = self.state.bpf_code_cursor;
        let mask = bpf::mask_decision(
            self.state.config.spectre_v1,
            &verified,
            &self.state.bpf_maps,
            base,
        );
        let builder = bpf::jit(&verified, &self.state.bpf_maps, mask);
        let prog = builder.link(base);
        self.state.bpf_code_cursor = prog.end() + 0x1000;
        self.machine.load_program(prog);
        self.state.bpf_progs.push(base);
        Ok((self.state.bpf_progs.len() - 1) as ProgId)
    }

    /// Immutable view of a process.
    pub fn process(&self, pid: Pid) -> Option<&Process> {
        self.state.proc_by_pid(pid)
    }
}

impl KernelState {
    fn alloc_frames(&mut self, n: u64) -> u64 {
        let f = self.next_frame;
        self.next_frame += n;
        f
    }

    fn proc_by_pid(&self, pid: Pid) -> Option<&Process> {
        self.procs.iter().find(|p| p.pid == pid)
    }

    /// Builds a fresh address space and process, marked runnable.
    fn create_process(&mut self, m: &mut Machine, entry: u64) -> Pid {
        let pid = self.next_pid;
        self.next_pid += 1;

        let data_frames = self.alloc_frames(layout::USER_DATA_PAGES);
        let stack_frames = self.alloc_frames(layout::STACK_PAGES);

        let mut full = PageTable::new();
        full.map_range(
            layout::KERNEL_DATA_VADDR,
            self.kdata_frame,
            layout::KERNEL_DATA_PAGES,
            Pte::kernel(0),
        );
        full.map_range(layout::USER_DATA_VADDR, data_frames, layout::USER_DATA_PAGES, Pte::user(0));
        full.map_range(
            layout::STACK_TOP - layout::STACK_PAGES * PAGE_SIZE,
            stack_frames,
            layout::STACK_PAGES,
            Pte::user(0),
        );

        let pcid_k = ((pid * 2) & 0xfff) as u16;
        let pcid_u = ((pid * 2 + 1) & 0xfff) as u16;
        let noflush = m.model.spec.pcid;

        let (full_table, user_table, full_cr3, user_cr3);
        if self.config.pti {
            let mut user = PageTable::new();
            user.map_range(
                layout::USER_DATA_VADDR,
                data_frames,
                layout::USER_DATA_PAGES,
                Pte::user(0),
            );
            user.map_range(
                layout::STACK_TOP - layout::STACK_PAGES * PAGE_SIZE,
                stack_frames,
                layout::STACK_PAGES,
                Pte::user(0),
            );
            full_table = m.mmu.register_table(full);
            user_table = m.mmu.register_table(user);
            full_cr3 = make_cr3(full_table, pcid_k, noflush);
            user_cr3 = make_cr3(user_table, pcid_u, noflush);
        } else {
            full_table = m.mmu.register_table(full);
            user_table = full_table;
            full_cr3 = make_cr3(full_table, pcid_k, noflush);
            user_cr3 = full_cr3;
        }

        let mut saved_regs = [0u64; 16];
        saved_regs[Reg::SP.index()] = layout::STACK_TOP - 64;
        self.procs.push(Process {
            pid,
            state: ProcState::Runnable,
            saved_regs,
            user_pc: entry,
            fpu: Default::default(),
            full_table,
            user_table,
            full_cr3,
            user_cr3,
            fds: Vec::new(),
            mmap_regions: Vec::new(),
            mmap_cursor: layout::MMAP_BASE,
            seccomp: false,
            ssbd_prctl: false,
            demand_faults: 0,
        });
        pid
    }

    /// Sets or clears the SSBD bit, charging the MSR write when it flips.
    fn apply_ssbd(&mut self, m: &mut Machine, want: bool) {
        if !m.model.spec.ssbd_supported {
            return;
        }
        let cur = m.msrs.spec_ctrl();
        let have = cur & spec_ctrl::SSBD != 0;
        if have != want {
            let next = if want { cur | spec_ctrl::SSBD } else { cur & !spec_ctrl::SSBD };
            m.charge(m.model.lat.wrmsr_spec_ctrl);
            m.msrs.write(msr_index::IA32_SPEC_CTRL, next).expect("spec_ctrl write");
        }
    }

    /// Picks the next runnable process (round-robin), if any.
    fn pick_next(&self, exclude_current: bool) -> Option<usize> {
        let n = self.procs.len();
        for off in 1..=n {
            let idx = (self.current + off) % n;
            if idx == self.current && exclude_current {
                continue;
            }
            if self.procs[idx].state == ProcState::Runnable {
                return Some(idx);
            }
        }
        None
    }

    /// Performs a context switch to `next`, doing all per-switch
    /// mitigation work at the model's calibrated costs.
    fn switch_to(&mut self, m: &mut Machine, next: usize) {
        if next == self.current {
            return;
        }
        self.stats.ctx_switches += 1;
        let lat_xsave = m.model.lat.xsave;
        let lat_xrstor = m.model.lat.xrstor;

        // FPU policy (LazyFP mitigation is the eager path).
        if self.config.eager_fpu {
            m.charge(lat_xsave + lat_xrstor);
            let prev_pid = self.procs[self.current].pid;
            let _ = prev_pid;
            self.procs[self.current].fpu = m.fpu.save();
            let next_fpu = self.procs[next].fpu;
            let next_pid = self.procs[next].pid;
            m.fpu.restore(next_fpu, next_pid);
        } else {
            // Lazy: leave the registers in place, disable the FPU. The
            // previous owner's data stays live — the LazyFP leak source.
            m.fpu.owner = Some(self.procs[self.current].pid);
            m.fpu.disable();
        }

        // Spectre V2 cross-process: IBPB + RSB stuffing. Under the default
        // conditional policy the barrier only fires around hardened
        // (seccomp/prctl) tasks.
        let hardened = |p: &Process| p.seccomp || p.ssbd_prctl;
        let ibpb_due = self.config.ibpb_on_switch
            && (!self.config.ibpb_conditional
                || hardened(&self.procs[self.current])
                || hardened(&self.procs[next]));
        if ibpb_due {
            m.charge(m.model.lat.ibpb);
            m.btb.ibpb();
            self.stats.ibpbs += 1;
        }
        if self.config.rsb_stuffing {
            m.charge(m.model.lat.rsb_fill);
            let harmless = self.addrs.rsb_harmless;
            m.rsb.stuff(harmless);
        }

        // Address space: switch to the next process's kernel view.
        m.charge(m.model.lat.swap_cr3);
        let cr3 = self.procs[next].full_cr3;
        assert!(m.mmu.load_cr3(cr3), "process cr3 must be registered");

        self.current = next;

        // Per-process SSBD.
        let want = self.procs[next].wants_ssbd(self.config.ssbd);
        self.apply_ssbd(m, want);
    }

    /// Reads `len` bytes from the current address space, demand-mapping
    /// lazily mmapped pages as needed. Returns fewer bytes at the top of
    /// the address space or at the first page it cannot map.
    fn copy_from_user(&mut self, m: &mut Machine, buf: u64, len: u64) -> Vec<u8> {
        let mut out = Vec::new();
        while let Err(fault) =
            m.read_virt_bytes(buf.wrapping_add(out.len() as u64), len - out.len() as u64, &mut out)
        {
            if !self.mapped_after(m, fault) {
                break;
            }
        }
        self.bytes_copied += out.len() as u64;
        out
    }

    /// Writes bytes into the current address space (demand-mapping);
    /// returns how many it wrote, stopping where [`Self::copy_from_user`]
    /// would.
    fn copy_to_user(&mut self, m: &mut Machine, buf: u64, data: &[u8]) -> u64 {
        let mut done = 0;
        loop {
            let (n, result) = m.write_virt_bytes(buf.wrapping_add(done as u64), &data[done..]);
            done += n;
            match result {
                Err(fault) if self.mapped_after(m, fault) => {}
                _ => break,
            }
        }
        self.bytes_copied += done as u64;
        done as u64
    }

    /// Whether a user copy that stopped at `fault` may resume: the fault
    /// is a page the current process has not touched yet in one of its
    /// mmap regions, and [`Self::demand_map`] has now mapped it.
    fn mapped_after(&mut self, m: &mut Machine, fault: Fault) -> bool {
        match fault {
            Fault::Page { vaddr, kind: PageFaultKind::NotMapped, .. } => self.demand_map(m, vaddr),
            _ => false,
        }
    }

    /// Reserves `len` bytes, rounded up to whole pages, at the current
    /// process's mmap cursor; returns their address and rounded length,
    /// or `None` when they do not fit in the mmap area.
    fn reserve_mmap(&mut self, len: u64) -> Option<(u64, u64)> {
        let len = page_round_up(len)?;
        let p = &mut self.procs[self.current];
        let addr = p.mmap_cursor;
        addr.checked_add(len).filter(|&end| end <= layout::MMAP_BASE + layout::MMAP_SPAN)?;
        p.mmap_cursor += len;
        p.mmap_regions.push(MmapRegion { start: addr, len });
        Some((addr, len))
    }

    /// Maps the page containing `vaddr` if it lies in one of the current
    /// process's mmap regions. Charges allocation work.
    fn demand_map(&mut self, m: &mut Machine, vaddr: u64) -> bool {
        let cur = &self.procs[self.current];
        if !cur.mmap_regions.iter().any(|r| r.contains(vaddr)) {
            return false;
        }
        let frame = self.alloc_frames(1);
        let page = vaddr & !(PAGE_SIZE - 1);
        let (full, user) = {
            let cur = &self.procs[self.current];
            (cur.full_table, cur.user_table)
        };
        map_in(m, full, page, Pte::user(frame));
        if user != full {
            map_in(m, user, page, Pte::user(frame));
        }
        // Page allocation + zeroing cost (buddy allocator + clear_page).
        m.charge(1600);
        self.procs[self.current].demand_faults += 1;
        self.stats.demand_faults += 1;
        true
    }

    /// Completes a blocked pipe read for `reader_idx` by copying up to
    /// `len` bytes into its buffer *in its own address space*.
    fn complete_pipe_read(&mut self, m: &mut Machine, reader_idx: usize, pipe: usize) {
        let (buf, len) = match self.procs[reader_idx].state {
            ProcState::Blocked(BlockedOn::PipeRead { buf, len, .. }) => (buf, len),
            _ => return,
        };
        let data = self.pipes[pipe].read(len as usize);
        // Temporarily adopt the reader's address space for the copy.
        let saved_cr3 = m.mmu.cr3();
        let reader_cr3 = self.procs[reader_idx].full_cr3;
        let saved_current = self.current;
        assert!(m.mmu.load_cr3(reader_cr3));
        self.current = reader_idx;
        let n = self.copy_to_user(m, buf, &data);
        self.current = saved_current;
        assert!(m.mmu.load_cr3(saved_cr3 | uarch::mmu::CR3_NOFLUSH));
        self.procs[reader_idx].saved_regs[Reg::R0.index()] = n;
        self.procs[reader_idx].state = ProcState::Runnable;
        self.pipes[pipe].blocked_reader = None;
    }

    // ---- Syscall handlers ------------------------------------------------

    /// Dispatches the syscall encoded in the saved registers. Returns the
    /// number of kernel-body indirect calls to perform.
    fn dispatch_syscall(&mut self, m: &mut Machine) -> u64 {
        self.stats.syscalls += 1;
        let cur = self.current;
        // Save the user context (R12 was clobbered by LOAD_KCR3 under PTI;
        // the hook stashed the original).
        self.procs[cur].saved_regs = m.regs;
        if self.config.pti {
            self.procs[cur].saved_regs[Reg::R12.index()] = self.scratch_r12;
        }
        self.procs[cur].user_pc = m.regs[Reg::R11.index()];

        let regs = self.procs[cur].saved_regs;
        let (nr, a1, a2, a3) = (
            regs[Reg::R0.index()],
            regs[Reg::R1.index()],
            regs[Reg::R2.index()],
            regs[Reg::R3.index()],
        );

        let mut ncalls: u64 = 2;
        let ret: Option<u64>;

        // Intrinsic kernel work every syscall performs before reaching its
        // handler: entry bookkeeping, security checks, audit. Comparable
        // to the non-boundary cost of a real Linux syscall.
        m.charge(m.model.lat.kernel_entry_base + 120);

        match nr {
            nr::EXIT => {
                self.procs[cur].state = ProcState::Exited;
                ret = None;
                match self.pick_next(true) {
                    Some(next) => self.switch_to(m, next),
                    None => {
                        // Everybody is done (or deadlocked): halt.
                        m.pc = self.addrs.halt_pad;
                        return 0;
                    }
                }
            }
            nr::GETPID => {
                m.charge(60); // task_struct chase
                ret = Some(self.procs[cur].pid);
                ncalls = 2;
            }
            nr::WRITE | nr::SEND => {
                ncalls = 8;
                m.charge(450); // fd lookup, rw_verify_area, vfs dispatch
                ret = Some(self.sys_write(m, a1, a2, a3));
            }
            nr::READ | nr::RECV => {
                ncalls = 8;
                m.charge(450);
                match self.sys_read(m, a1, a2, a3) {
                    Some(n) => ret = Some(n),
                    None => {
                        // Blocked: switch away; R0 is filled in at wake.
                        ret = None;
                        if let Some(next) = self.pick_next(true) {
                            self.switch_to(m, next);
                        } else {
                            // Deadlock: no runnable process. Halt loudly.
                            m.pc = self.addrs.halt_pad;
                            return 0;
                        }
                    }
                }
            }
            nr::MMAP | nr::MMAP_POPULATE => {
                ncalls = 10;
                m.charge(2600); // VMA allocation, rbtree insert, accounting
                ret = Some(match self.reserve_mmap(a1) {
                    Some((addr, len)) => {
                        if nr == nr::MMAP_POPULATE {
                            for i in 0..len / PAGE_SIZE {
                                self.demand_map(m, addr + i * PAGE_SIZE);
                            }
                        }
                        addr
                    }
                    None => err::ENOMEM,
                });
            }
            nr::MUNMAP => {
                ncalls = 8;
                m.charge(1600); // VMA split/free, rbtree removal
                let start = a1 & !(PAGE_SIZE - 1);
                // User addresses lie below kernel data, as Linux's lie below
                // TASK_SIZE: a range that ends past there is EINVAL.
                let end = page_round_up(a2).and_then(|len| start.checked_add(len));
                match end.filter(|&end| end <= layout::KERNEL_DATA_VADDR) {
                    Some(end) => {
                        let len = end - start;
                        let (full, user) = {
                            let p = &mut self.procs[cur];
                            p.mmap_regions.retain(|r| !(r.start == start && r.len == len));
                            (p.full_table, p.user_table)
                        };
                        for i in 0..len / PAGE_SIZE {
                            let page = start + i * PAGE_SIZE;
                            unmap_in(m, full, page);
                            if user != full {
                                unmap_in(m, user, page);
                            }
                            m.mmu.flush_tlb_page(page);
                            m.charge(120);
                        }
                        ret = Some(0);
                    }
                    None => ret = Some(err::EINVAL),
                }
            }
            nr::PIPE => {
                ncalls = 6;
                m.charge(400);
                let idx = self.pipes.len();
                self.pipes.push(Pipe::new());
                let p = &mut self.procs[cur];
                let rfd = p.fds.len() as u64;
                p.fds.push(Fd::PipeRead { index: idx });
                let wfd = p.fds.len() as u64;
                p.fds.push(Fd::PipeWrite { index: idx });
                ret = Some(rfd | (wfd << 32));
            }
            nr::YIELD => {
                ncalls = 4;
                m.charge(250); // runqueue handling
                if let Some(next) = self.pick_next(true) {
                    self.switch_to(m, next);
                }
                ret = None; // already stored 0 below for the yielding proc
                self.procs[cur].saved_regs[Reg::R0.index()] = 0;
            }
            nr::FORK => {
                ncalls = 20;
                m.charge(4000); // task_struct, fd table, mm setup
                let child = self.fork(m);
                ret = Some(child);
            }
            nr::SECCOMP => {
                ncalls = 6;
                self.procs[cur].seccomp = true;
                let want = self.procs[cur].wants_ssbd(self.config.ssbd);
                self.apply_ssbd(m, want);
                ret = Some(0);
            }
            nr::PRCTL_SSBD => {
                ncalls = 4;
                self.procs[cur].ssbd_prctl = true;
                let want = self.procs[cur].wants_ssbd(self.config.ssbd);
                self.apply_ssbd(m, want);
                ret = Some(0);
            }
            nr::CREAT => {
                ncalls = 8;
                m.charge(600);
                let idx = self.files.len();
                self.files.push(File::new());
                let p = &mut self.procs[cur];
                let fd = p.fds.len() as u64;
                p.fds.push(Fd::File { index: idx, offset: 0 });
                ret = Some(fd);
            }
            nr::CLOSE => {
                ncalls = 4;
                let p = &mut self.procs[cur];
                match p.fds.get_mut(a1 as usize) {
                    Some(slot) => {
                        *slot = Fd::Closed;
                        ret = Some(0);
                    }
                    None => ret = Some(err::EBADF),
                }
            }
            nr::SELECT => {
                let nfds = a1.min(64);
                ncalls = 2 + nfds / 2;
                m.charge(500); // fd-set copy and poll-table setup
                let p = &self.procs[cur];
                let mut ready = 0u64;
                for fd in p.fds.iter().take(nfds as usize) {
                    let r = match fd {
                        Fd::Closed => false,
                        Fd::File { .. } => true,
                        Fd::PipeWrite { .. } => true,
                        Fd::PipeRead { index } => self.pipes[*index].available() > 0,
                    };
                    m.charge(30);
                    if r {
                        ready += 1;
                    }
                }
                ret = Some(ready);
            }
            nr::THREAD_CREATE => {
                ncalls = 12;
                let tid = self.thread_create(m, a1);
                ret = Some(tid);
            }
            nr::LSEEK => {
                ncalls = 3;
                m.charge(150);
                let p = &mut self.procs[cur];
                match p.fds.get_mut(a1 as usize) {
                    Some(Fd::File { offset, .. }) => {
                        *offset = a2;
                        ret = Some(a2);
                    }
                    _ => ret = Some(err::EBADF),
                }
            }
            nr::FTRUNCATE => {
                ncalls = 6;
                let p = &self.procs[cur];
                match p.fds.get(a1 as usize) {
                    Some(Fd::File { index, .. }) => {
                        let resized = self.files[*index].set_len(a2);
                        ret = Some(if resized.is_ok() { 0 } else { err::EFBIG });
                    }
                    _ => ret = Some(err::EBADF),
                }
            }
            nr::FSYNC => {
                ncalls = 10;
                // Journal commit + block-layer work: an fsync is tens of
                // microseconds of kernel time before the device is even
                // touched.
                m.charge(25_000);
                match self.vmcall_pad {
                    Some(pad) => {
                        // Paravirtual disk: exit to the hypervisor, then
                        // resume the kernel body where we left off.
                        self.vmcall_resume = m.pc;
                        m.pc = pad;
                    }
                    None => {
                        // Bare metal: charge a flash-write-ish latency.
                        m.charge(2000);
                    }
                }
                ret = Some(0);
            }
            nr::BPF_PROG_RUN => {
                match self.bpf_progs.get(a1 as usize) {
                    Some(entry) => {
                        // Program invocation overhead (ctx setup), then a
                        // single body dispatch into the JITed code.
                        m.charge(300);
                        self.body_target = Some(*entry);
                        self.capture_body_r0 = true;
                        ncalls = 1;
                        ret = None; // filled in by SYSCALL_EXIT from R0
                        self.procs[cur].saved_regs[Reg::R0.index()] = 0;
                    }
                    None => {
                        ncalls = 1;
                        ret = Some(err::EBADF);
                    }
                }
            }
            _ => {
                ncalls = 1;
                ret = Some(err::EINVAL);
            }
        }

        if let Some(v) = ret {
            self.procs[self.current].saved_regs[Reg::R0.index()] = v;
        }

        // Kernel body parameters for the stub's indirect-call loop. A
        // pending BPF run redirects the body's indirect call to the JITed
        // program (still through the configured Spectre V2 thunk).
        m.set_reg(Reg::R8, layout::KERNEL_DATA_VADDR);
        let target = self.body_target.take().unwrap_or(self.addrs.kernel_fn);
        m.set_reg(Reg::R9, target);
        ncalls
    }

    fn sys_write(&mut self, m: &mut Machine, fd: u64, buf: u64, len: u64) -> u64 {
        let cur = self.current;
        let entry = match self.procs[cur].fds.get(fd as usize) {
            Some(e) => *e,
            None => return err::EBADF,
        };
        match entry {
            Fd::File { index, offset } => {
                let data = self.copy_from_user(m, buf, len);
                let n = data.len() as u64;
                if self.files[index].write_at(offset, &data).is_err() {
                    return err::EFBIG;
                }
                if let Some(Fd::File { offset, .. }) = self.procs[cur].fds.get_mut(fd as usize)
                {
                    *offset += n;
                }
                n
            }
            Fd::PipeWrite { index } => {
                let data = self.copy_from_user(m, buf, len);
                let n = self.pipes[index].write(&data) as u64;
                // Wake a blocked reader, completing its read inline.
                if let Some(reader_pid) = self.pipes[index].blocked_reader {
                    if let Some(ridx) = self.procs.iter().position(|p| p.pid == reader_pid) {
                        self.complete_pipe_read(m, ridx, index);
                    }
                }
                n
            }
            Fd::PipeRead { .. } | Fd::Closed => err::EBADF,
        }
    }

    /// Returns `Some(bytes)` or `None` if the caller must block.
    fn sys_read(&mut self, m: &mut Machine, fd: u64, buf: u64, len: u64) -> Option<u64> {
        let cur = self.current;
        let entry = match self.procs[cur].fds.get(fd as usize) {
            Some(e) => *e,
            None => return Some(err::EBADF),
        };
        match entry {
            Fd::File { index, offset } => {
                // Out of the table for the copy, which may demand-map.
                let file = std::mem::take(&mut self.files[index]);
                let n = self.copy_to_user(m, buf, file.read_at(offset, len as usize));
                self.files[index] = file;
                if let Some(Fd::File { offset, .. }) = self.procs[cur].fds.get_mut(fd as usize)
                {
                    *offset += n;
                }
                Some(n)
            }
            Fd::PipeRead { index } => {
                if self.pipes[index].available() == 0 {
                    self.procs[cur].state =
                        ProcState::Blocked(BlockedOn::PipeRead { pipe: index, buf, len });
                    self.pipes[index].blocked_reader = Some(self.procs[cur].pid);
                    None
                } else {
                    let data = self.pipes[index].read(len as usize);
                    Some(self.copy_to_user(m, buf, &data))
                }
            }
            Fd::PipeWrite { .. } | Fd::Closed => Some(err::EBADF),
        }
    }

    /// Forks the current process: copies its data, stack, and mapped mmap
    /// pages into fresh frames, whole frames at a time. A page the parent
    /// never wrote stays unmaterialized in the child, yet every page is
    /// charged the same copy cost.
    fn fork(&mut self, m: &mut Machine) -> Pid {
        self.stats.forks += 1;
        let cur = self.current;
        let entry_pc = self.procs[cur].user_pc;
        let pid = self.create_process(m, entry_pc);
        let child_idx = self.procs.len() - 1;

        // Child resumes at the same point with R0 = 0.
        let mut child_regs = self.procs[cur].saved_regs;
        child_regs[Reg::R0.index()] = 0;
        self.procs[child_idx].saved_regs = child_regs;
        self.procs[child_idx].user_pc = self.procs[cur].user_pc;
        self.procs[child_idx].fpu = self.procs[cur].fpu;
        self.procs[child_idx].fds = self.procs[cur].fds.clone();
        self.procs[child_idx].mmap_regions = self.procs[cur].mmap_regions.clone();
        self.procs[child_idx].mmap_cursor = self.procs[cur].mmap_cursor;
        self.procs[child_idx].seccomp = self.procs[cur].seccomp;
        self.procs[child_idx].ssbd_prctl = self.procs[cur].ssbd_prctl;

        // Copy page contents: data arena + stack + any mapped mmap pages.
        let parent_table = self.procs[cur].full_table;
        let child_table = self.procs[child_idx].full_table;
        let child_user = self.procs[child_idx].user_table;
        let mut pairs: Vec<(u64, u64, Option<u64>)> = {
            let pt = m.mmu.table(parent_table).expect("parent table");
            let ct = m.mmu.table(child_table).expect("child table");
            pt.iter()
                .filter(|(_, pte)| pte.user && pte.present)
                .map(|(vpn, ppte)| {
                    let cpfn = ct.lookup(vpn << PAGE_SHIFT).map(|c| c.pfn);
                    (vpn, ppte.pfn, cpfn)
                })
                .collect()
        };
        // The page table is a hash map, which iterates in the order of its
        // keys' hashes; copy in page order, so the child's fresh frames
        // follow its pages.
        pairs.sort_unstable_by_key(|&(vpn, _, _)| vpn);
        for (vpn, parent_pfn, child_pfn) in pairs {
            let dst_pfn = match child_pfn {
                Some(p) => p,
                None => {
                    // Parent-mapped mmap page the child lacks: allocate.
                    let f = self.alloc_frames(1);
                    map_in(m, child_table, vpn << PAGE_SHIFT, Pte::user(f));
                    if child_user != child_table {
                        map_in(m, child_user, vpn << PAGE_SHIFT, Pte::user(f));
                    }
                    f
                }
            };
            m.mem.copy_frame(parent_pfn, dst_pfn);
            m.charge(400); // per-page copy cost
        }
        pid
    }

    /// Creates a thread: a new schedulable context sharing the current
    /// address space, with its own stack carved out of the mmap area.
    fn thread_create(&mut self, m: &mut Machine, entry_pc: u64) -> Pid {
        let cur = self.current;
        let pid = self.next_pid;
        self.next_pid += 1;
        m.charge(1500); // clone(2) is cheaper than fork but not free

        // Stack: 16 fresh pages in the shared address space.
        let stack_len = layout::STACK_PAGES * PAGE_SIZE;
        let stack_base = {
            let p = &mut self.procs[cur];
            let a = p.mmap_cursor;
            p.mmap_cursor += stack_len;
            a
        };
        let (full, user) = (self.procs[cur].full_table, self.procs[cur].user_table);
        for i in 0..layout::STACK_PAGES {
            let f = self.alloc_frames(1);
            map_in(m, full, stack_base + i * PAGE_SIZE, Pte::user(f));
            if user != full {
                map_in(m, user, stack_base + i * PAGE_SIZE, Pte::user(f));
            }
        }

        let mut saved_regs = [0u64; 16];
        saved_regs[Reg::SP.index()] = stack_base + stack_len - 64;
        let parent = &self.procs[cur];
        self.procs.push(Process {
            pid,
            state: ProcState::Runnable,
            saved_regs,
            user_pc: entry_pc,
            fpu: Default::default(),
            full_table: parent.full_table,
            user_table: parent.user_table,
            full_cr3: parent.full_cr3,
            user_cr3: parent.user_cr3,
            fds: parent.fds.clone(),
            mmap_regions: parent.mmap_regions.clone(),
            mmap_cursor: parent.mmap_cursor,
            seccomp: parent.seccomp,
            ssbd_prctl: parent.ssbd_prctl,
            demand_faults: 0,
        });
        pid
    }

    /// Handles a fault delivered to the kernel.
    fn dispatch_fault(&mut self, m: &mut Machine) {
        let frame = m.fault_frame.expect("fault frame present in handler");
        match frame.fault {
            Fault::Page { vaddr, kind: PageFaultKind::NotMapped, .. }
                if self.demand_map(m, vaddr) =>
            {
                // Retry the faulting instruction (default resume_pc).
            }
            Fault::DeviceNotAvailable => {
                // Lazy FPU restore.
                self.stats.fpu_traps += 1;
                m.charge(m.model.lat.fpu_trap);
                let cur_pid = self.procs[self.current].pid;
                if let Some(owner) = m.fpu.owner {
                    if owner != cur_pid {
                        if let Some(oidx) = self.procs.iter().position(|p| p.pid == owner) {
                            self.procs[oidx].fpu = m.fpu.save();
                        }
                    }
                }
                let fpu = self.procs[self.current].fpu;
                m.fpu.restore(fpu, cur_pid);
            }
            _ => {
                // Unhandled user fault: deliver to the process's fault
                // handler if registered, else kill it (SIGSEGV).
                let cur = self.current;
                let handler = self.procs[cur].saved_regs[Reg::R13.index()];
                let recovery = m.reg(Reg::R13);
                let target = if recovery != 0 { recovery } else { handler };
                if target != 0 {
                    if let Some(f) = &mut m.fault_frame {
                        f.resume_pc = target;
                    }
                } else {
                    self.procs[cur].state = ProcState::Exited;
                    match self.pick_next(true) {
                        Some(next) => {
                            self.switch_to(m, next);
                            // Resume the *new* process via the fault exit:
                            // point resume at its saved pc and adopt its
                            // registers (including what R12_RESTORE will
                            // put back).
                            let pc = self.procs[next].user_pc;
                            let regs = self.procs[next].saved_regs;
                            if let Some(f) = &mut m.fault_frame {
                                f.resume_pc = pc;
                            }
                            m.regs = regs;
                            self.scratch_r12 = regs[Reg::R12.index()];
                        }
                        None => {
                            if let Some(f) = &mut m.fault_frame {
                                f.resume_pc = self.addrs.halt_pad;
                                f.prior_mode = PrivMode::Kernel;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// `len` rounded up to whole pages; `None` past the top of the address
/// space.
fn page_round_up(len: u64) -> Option<u64> {
    Some(len.checked_add(PAGE_SIZE - 1)? & !(PAGE_SIZE - 1))
}

fn map_in(m: &mut Machine, table: PageTableId, vaddr: u64, pte: Pte) {
    m.mmu.table_mut(table).expect("table registered").map(vaddr, pte);
}

fn unmap_in(m: &mut Machine, table: PageTableId, vaddr: u64) {
    m.mmu.table_mut(table).expect("table registered").unmap(vaddr);
}

impl Env for KernelState {
    fn host_call(&mut self, m: &mut Machine, id: u16) -> Result<(), SimError> {
        match id {
            hook::LOAD_KCR3 => {
                self.scratch_r12 = m.reg(Reg::R12);
                let cr3 = self.procs[self.current].full_cr3;
                m.set_reg(Reg::R12, cr3);
                Ok(())
            }
            hook::SYSCALL_DISPATCH => {
                let ncalls = self.dispatch_syscall(m);
                m.set_reg(Reg::R10, ncalls);
                Ok(())
            }
            hook::SYSCALL_EXIT => {
                if std::mem::take(&mut self.capture_body_r0) {
                    // The BPF program's r0 is the syscall return value.
                    let r0 = m.reg(Reg::R0);
                    self.procs[self.current].saved_regs[Reg::R0.index()] = r0;
                }
                let p = &self.procs[self.current];
                let mut regs = p.saved_regs;
                let user_pc = p.user_pc;
                let user_cr3 = p.user_cr3;
                regs[Reg::R11.index()] = user_pc;
                self.scratch_r12 = regs[Reg::R12.index()];
                if self.config.pti {
                    regs[Reg::R12.index()] = user_cr3;
                }
                m.regs = regs;
                Ok(())
            }
            hook::FAULT_DISPATCH => {
                self.dispatch_fault(m);
                Ok(())
            }
            hook::FAULT_EXIT => {
                if self.config.pti {
                    // The user's original R12 is still in `scratch_r12`
                    // from LOAD_KCR3 at fault entry; R12 currently holds
                    // the kernel CR3 and now gets the user CR3 for the
                    // exit-side switch.
                    let cr3 = self.procs[self.current].user_cr3;
                    m.set_reg(Reg::R12, cr3);
                }
                Ok(())
            }
            hook::R12_RESTORE => {
                m.set_reg(Reg::R12, self.scratch_r12);
                Ok(())
            }
            hook::VMCALL_RESUME => {
                m.pc = self.vmcall_resume;
                Ok(())
            }
            other => Err(SimError::MissingHostHook { id: other }),
        }
    }
}
