//! Holds test_floor's open loop on one CPU that never idles.
//!
//! At a quarter of capacity the open loop leaves the CPUs idle between
//! requests, and each request crosses several threads (client, the
//! server's connection thread, its batcher). On a virtual machine an idle
//! vCPU halts, and waking it again waits on the host's scheduler: on a
//! shared 2-vCPU host `die_p50_ms` followed the host's steal time, its
//! run-to-run spread 0.15–0.25 of the median. With every thread on one
//! CPU and an idle-priority spinner keeping that CPU busy, every wake-up
//! stays inside the guest and the spread fell to 0.04–0.10 in the same
//! hours (see README.md). The spinner runs only when no other thread
//! wants the CPU (`SCHED_IDLE`), so it takes no time from the program.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

/// CPU mask words: room for 1,024 CPUs.
const MASK_WORDS: usize = 16;
type CpuMask = [u64; MASK_WORDS];

const SCHED_IDLE: i32 = 5;

#[repr(C)]
struct SchedParam {
    priority: i32,
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// While alive, every thread of the process runs on one CPU beside an
/// idle-priority spinner. Dropping it stops and joins the spinner and
/// gives every thread back the CPUs it had.
pub struct QuietCpu {
    saved: CpuMask,
    stop: Arc<AtomicBool>,
    spinner: Option<JoinHandle<()>>,
}

impl QuietCpu {
    /// Pins every thread to the highest CPU this thread may run on, then
    /// starts the spinner there. Best effort: a call the kernel refuses
    /// leaves that thread where it was.
    pub fn start() -> Self {
        let mut saved = [0u64; MASK_WORDS];
        // SAFETY: the kernel writes at most `size` bytes into `saved`.
        let got =
            unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), saved.as_mut_ptr()) };
        if got != 0 {
            saved = [u64::MAX; MASK_WORDS];
        }
        let cpu = (0..MASK_WORDS * 64)
            .rev()
            .find(|&i| saved[i / 64] >> (i % 64) & 1 == 1)
            .unwrap_or(0);
        let mut one = [0u64; MASK_WORDS];
        one[cpu / 64] = 1 << (cpu % 64);
        set_every_thread(&one);
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        // Spawned from this (now pinned) thread, the spinner inherits the
        // one-CPU mask.
        let spinner = std::thread::spawn(move || {
            let param = SchedParam { priority: 0 };
            // SAFETY: `param` outlives the call; pid 0 is this thread.
            if unsafe { sched_setscheduler(0, SCHED_IDLE, &param) } != 0 {
                // At normal priority the spinner would take CPU time from
                // the program: do without it.
                return;
            }
            while !flag.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
        });
        QuietCpu {
            saved,
            stop,
            spinner: Some(spinner),
        }
    }
}

impl Drop for QuietCpu {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(spinner) = self.spinner.take() {
            let _ = spinner.join();
        }
        set_every_thread(&self.saved);
    }
}

/// Sets the CPU mask of every thread listed in `/proc/self/task`.
fn set_every_thread(mask: &CpuMask) {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return;
    };
    for task in tasks.flatten() {
        if let Some(tid) = task
            .file_name()
            .to_str()
            .and_then(|t| t.parse::<i32>().ok())
        {
            // SAFETY: the kernel reads at most `size` bytes from `mask`.
            unsafe {
                sched_setaffinity(tid, std::mem::size_of::<CpuMask>(), mask.as_ptr());
            }
        }
    }
}
