//! Pinning the lock-step workload to one CPU.
//!
//! Under `dm_sim::Schedule` exactly one participant runs at a time, so one
//! CPU is all they can use. Left to the OS scheduler they land on one CPU or
//! on two depending on its wake-affinity heuristics, and on a virtual
//! machine a cross-CPU condvar wake-up costs a hypervisor exit: the same run
//! then takes ~14 or ~45 us of host time per op. Pinning the process (its
//! threads inherit the mask) takes that coin flip out of `host_ns_per_op`.

/// Pins the calling thread to the lowest-numbered CPU it is allowed on.
/// Returns whether it did; a no-op elsewhere than Linux on x86-64 (the
/// standard library has no affinity call, so this is a raw system call).
pub fn pin_to_first_allowed_cpu() -> bool {
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    {
        const SCHED_SETAFFINITY: isize = 203;
        const SCHED_GETAFFINITY: isize = 204;
        let mut mask = [0u64; 16]; // room for 1024 CPUs
        let bytes = std::mem::size_of_val(&mask);
        let got: isize;
        // SAFETY: sched_getaffinity(0, len, mask) writes at most `len`
        // bytes to `mask`, a live, writable array of exactly `len` bytes,
        // and touches nothing else in this process. `syscall` clobbers
        // only rax, rcx and r11, all declared.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") SCHED_GETAFFINITY => got,
                in("rdi") 0usize,
                in("rsi") bytes,
                in("rdx") mask.as_mut_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        if got <= 0 {
            return false;
        }
        let Some((word, bits)) = mask.iter().enumerate().find(|(_, w)| **w != 0) else {
            return false;
        };
        let mut one = [0u64; 16];
        one[word] = 1 << bits.trailing_zeros();
        let set: isize;
        // SAFETY: sched_setaffinity(0, len, mask) only reads `len` bytes
        // from `one`, a live array of exactly that size; registers as above.
        unsafe {
            std::arch::asm!(
                "syscall",
                inlateout("rax") SCHED_SETAFFINITY => set,
                in("rdi") 0usize,
                in("rsi") bytes,
                in("rdx") one.as_ptr(),
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack, readonly),
            );
        }
        set == 0
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    {
        false
    }
}

#[cfg(all(test, target_os = "linux", target_arch = "x86_64"))]
mod tests {
    #[test]
    fn pins_a_scratch_thread() {
        // On a scratch thread, so the test runner's own threads stay free.
        let pinned = std::thread::spawn(super::pin_to_first_allowed_cpu)
            .join()
            .expect("scratch thread");
        assert!(pinned);
    }
}
