//! Thread placement for the serving workloads.
//!
//! With two client threads and two shard threads on a two-core host, the
//! scheduler's choice of which threads share a core changes per-request
//! hand-off costs from run to run. The benchmark fixes the placement:
//! client `c` and shard `c` share the `c`-th core the process may run on
//! (modulo their number). Placement is part of the serving workloads'
//! definition, so a serving run whose threads could not be placed fails
//! its correctness check instead of silently measuring another shape.

use std::sync::OnceLock;

/// Words of a `cpu_set_t` (1024 CPUs), as the C library sizes it.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// The first placement failure, if any.
static ERROR: OnceLock<String> = OnceLock::new();

fn fail(msg: String) {
    eprintln!("perfbench: {msg}");
    let _ = ERROR.set(msg);
}

/// The CPUs this process may run on, in ascending order.
fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u64; MASK_WORDS];
    // SAFETY: `mask` is a writable buffer of exactly the size passed, and
    // pid 0 names the calling thread.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
    if rc != 0 {
        return Vec::new();
    }
    (0..MASK_WORDS * 64)
        .filter(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
        .collect()
}

/// Pin thread `tid` (0 = the calling thread) to the `index`-th allowed CPU.
fn pin(tid: i32, index: usize, what: &str) {
    let cpus = allowed_cpus();
    if cpus.is_empty() {
        return fail(format!("cannot read the CPU affinity to pin {what}"));
    }
    let cpu = cpus[index % cpus.len()];
    let mut mask = [0u64; MASK_WORDS];
    mask[cpu / 64] |= 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed.
    let rc = unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) };
    if rc != 0 {
        fail(format!(
            "cannot pin {what} to CPU {cpu}: {}",
            std::io::Error::last_os_error()
        ));
    }
}

/// Pin the calling thread, client `index`.
pub fn current_thread(index: usize) {
    pin(0, index, &format!("client {index}"));
}

/// Pin the engine's shard threads: shard `s` (the `s`-th thread named
/// `rrc-serve-shard…` by creation order) with client `s`.
pub fn shards(expected: usize) {
    let mut tids: Vec<i32> = std::fs::read_dir("/proc/self/task")
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| {
            std::fs::read_to_string(e.path().join("comm"))
                .is_ok_and(|c| c.trim_end().starts_with("rrc-serve-shard"))
        })
        .filter_map(|e| e.file_name().to_str()?.parse().ok())
        .collect();
    tids.sort_unstable();
    if tids.len() != expected {
        return fail(format!(
            "found shard threads {tids:?}, expected {expected}; cannot pin them"
        ));
    }
    for (s, &tid) in tids.iter().enumerate() {
        pin(tid, s, &format!("shard {s} (thread {tid})"));
    }
}

/// The first placement failure of this process, if any.
pub fn error() -> Option<&'static str> {
    ERROR.get().map(String::as_str)
}
