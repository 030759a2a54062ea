//! Syscall ABI of the simulated kernel.
//!
//! Calling convention: syscall number in `R0`, arguments in `R1`–`R5`,
//! return value in `R0`. `R11` and `R12` are clobbered by `syscall`
//! (mirroring x86-64's `%rcx`/`%r11` clobber); everything else is
//! preserved. The kernel also uses `R8`–`R10` internally but restores
//! them.

/// Syscall numbers.
pub mod nr {
    /// `exit()` — terminate the calling process.
    pub const EXIT: u64 = 0;
    /// `getpid() -> pid`.
    pub const GETPID: u64 = 1;
    /// `write(fd, buf, len) -> written`.
    pub const WRITE: u64 = 2;
    /// `read(fd, buf, len) -> read` (blocks on an empty pipe).
    pub const READ: u64 = 3;
    /// `mmap(len) -> addr` (lazy; pages fault in on first touch).
    pub const MMAP: u64 = 4;
    /// `munmap(addr, len)`.
    pub const MUNMAP: u64 = 5;
    /// `pipe() -> rfd | (wfd << 32)`.
    pub const PIPE: u64 = 6;
    /// `sched_yield()`.
    pub const YIELD: u64 = 7;
    /// `fork() -> child_pid` (0 in the child).
    pub const FORK: u64 = 8;
    /// `seccomp()` — enter seccomp mode (pre-5.16 kernels then apply SSBD).
    pub const SECCOMP: u64 = 9;
    /// `prctl_ssbd()` — request SSBD for this process.
    pub const PRCTL_SSBD: u64 = 10;
    /// `creat() -> fd` for a fresh in-memory file.
    pub const CREAT: u64 = 11;
    /// `close(fd)`.
    pub const CLOSE: u64 = 12;
    /// `select(nfds) -> ready` (scans the first `nfds` descriptors).
    pub const SELECT: u64 = 13;
    /// `send(fd, buf, len)` — alias of `write` for the LEBench send/recv
    /// pair.
    pub const SEND: u64 = 14;
    /// `recv(fd, buf, len)` — alias of `read`.
    pub const RECV: u64 = 15;
    /// `thread_create(entry_pc) -> tid` — new context sharing the address
    /// space.
    pub const THREAD_CREATE: u64 = 16;
    /// `mmap_populate(len) -> addr` — eagerly mapped mmap.
    pub const MMAP_POPULATE: u64 = 17;
    /// `lseek(fd, offset) -> offset`.
    pub const LSEEK: u64 = 18;
    /// `ftruncate(fd, size)`.
    pub const FTRUNCATE: u64 = 19;
    /// `fsync(fd)` — on a paravirtualized disk this triggers a VM exit.
    pub const FSYNC: u64 = 20;
    /// `bpf_prog_run(prog_id) -> r0` — run a loaded BPF program in
    /// kernel context (through the kernel's Spectre V2 dispatch).
    pub const BPF_PROG_RUN: u64 = 21;
}

/// Host-hook ids used by the kernel's entry stubs.
pub mod hook {
    /// Syscall dispatch: save context, run the handler.
    pub const SYSCALL_DISPATCH: u16 = 10;
    /// Syscall exit: restore context of the (possibly new) current process.
    pub const SYSCALL_EXIT: u16 = 11;
    /// Fault dispatch.
    pub const FAULT_DISPATCH: u16 = 12;
    /// Fault exit: restore context.
    pub const FAULT_EXIT: u16 = 13;
    /// Load the current process's kernel CR3 into `R12` (PTI entry),
    /// saving the user's R12 in kernel scratch first.
    pub const LOAD_KCR3: u16 = 14;
    /// Restore the user's R12 after an exit path's CR3 switch.
    pub const R12_RESTORE: u16 = 15;
    /// Resume after a paravirtual `vmcall` (the hypervisor's trampoline
    /// jumps back to the interrupted kernel path).
    pub const VMCALL_RESUME: u16 = 16;
}

/// Error return values (negative errno style, as `u64`).
pub mod err {
    /// Bad file descriptor.
    pub const EBADF: u64 = u64::MAX; // -1
    /// Invalid argument.
    pub const EINVAL: u64 = u64::MAX - 21; // -22
    /// Out of memory / address space.
    pub const ENOMEM: u64 = u64::MAX - 11; // -12
    /// File too large (past [`crate::resources::MAX_FILE_SIZE`]).
    pub const EFBIG: u64 = u64::MAX - 26; // -27
}
