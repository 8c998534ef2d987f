//! Pinning the measuring thread to one CPU at a time, and timing a fixed
//! reference kernel there.
//!
//! On a shared VM the CPUs of one machine need not run at one speed: a
//! busy neighbour on the host core behind one vCPU slowed single-threaded
//! builds there by ~1.4×, and which vCPU the scheduler picked decided
//! the run. The compile workloads therefore visit the allowed CPUs in
//! turn, pass by pass, and report the mean of the per-CPU statistics.
//!
//! The speed of the host also drifts over minutes: two sets of ten runs
//! of the same code, back to back, read median build times 29 % apart,
//! and within one set they rose steadily by 15 %. [`reference_work`] is a
//! fixed piece of work that shares no code with the program under test;
//! a run times it on each CPU after every pass and scales that CPU's
//! timings by [`REFERENCE_MS`] over its median, so a run reports its
//! times as on a host where the kernel takes [`REFERENCE_MS`].

use std::io;

/// Words of the affinity mask: room for 1024 CPUs.
const MASK_WORDS: usize = 16;

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A CPU affinity mask of the calling thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Affinity([u64; MASK_WORDS]);

impl Affinity {
    /// The calling thread's current mask.
    pub fn current() -> io::Result<Affinity> {
        let mut mask = [0u64; MASK_WORDS];
        // SAFETY: `mask` is a writable buffer of exactly the size passed,
        // and pid 0 names the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc == 0 {
            Ok(Affinity(mask))
        } else {
            Err(io::Error::last_os_error())
        }
    }

    /// A mask holding only `cpu`.
    pub fn only(cpu: usize) -> Affinity {
        let mut mask = [0u64; MASK_WORDS];
        mask[cpu / 64] |= 1 << (cpu % 64);
        Affinity(mask)
    }

    /// The CPUs in the mask, ascending.
    pub fn cpus(&self) -> Vec<usize> {
        (0..MASK_WORDS * 64)
            .filter(|&cpu| self.0[cpu / 64] & (1 << (cpu % 64)) != 0)
            .collect()
    }

    /// Makes this the calling thread's mask.
    pub fn apply(&self) -> io::Result<()> {
        // SAFETY: `self.0` is a readable buffer of exactly the size
        // passed, and pid 0 names the calling thread.
        let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&self.0), self.0.as_ptr()) };
        if rc == 0 {
            Ok(())
        } else {
            Err(io::Error::last_os_error())
        }
    }
}

/// Median time of [`reference_work`] on the two-vCPU VM the bounds were
/// set on; timings are reported as on a host where it takes this long.
pub const REFERENCE_MS: f64 = 18.0;

/// Rounds of [`reference_work`]: enough for ~18 ms on one vCPU of a
/// 2.1 GHz Xeon VM over a working set of ~0.3 MiB, so the benchmark's
/// own resident set (`rss_mb`) barely grows.
const REFERENCE_ROUNDS: u64 = 13;

/// A fixed, deterministic piece of work in the proportions of a build:
/// sorting, formatting text, a B-tree map and integer row elimination.
pub fn reference_work() -> u64 {
    (0..REFERENCE_ROUNDS).map(reference_round).sum()
}

fn reference_round(round: u64) -> u64 {
    use std::fmt::Write as _;
    let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ round;
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let mut values: Vec<u64> = (0..12_000).map(|_| next()).collect();
    values.sort_unstable();
    let mut text = String::new();
    for value in values.iter().step_by(3) {
        let _ = write!(text, "{{\"v\":{value}}},");
    }
    let mut map = std::collections::BTreeMap::new();
    for (i, value) in values.iter().enumerate().step_by(4) {
        map.insert(value % 3_000, i);
    }
    let n = 48;
    let mut rows: Vec<Vec<i64>> = (0..n)
        .map(|_| (0..2 * n).map(|_| (next() % 7) as i64 - 3).collect())
        .collect();
    for col in 0..n {
        let Some(pivot) = (col..n).find(|&r| rows[r][col] != 0) else {
            continue;
        };
        rows.swap(col, pivot);
        let pivot_row = rows[col].clone();
        for (r, row) in rows.iter_mut().enumerate() {
            if r != col && row[col] != 0 {
                let (a, b) = (pivot_row[col], row[col]);
                for (cell, p) in row.iter_mut().zip(&pivot_row) {
                    *cell = (*cell * a - p * b) % 1_000_003;
                }
            }
        }
    }
    text.len() as u64 + map.len() as u64 + rows[n - 1][n - 1].unsigned_abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinning_round_trips() {
        let original = Affinity::current().unwrap();
        let cpus = original.cpus();
        assert!(!cpus.is_empty());
        let last = *cpus.last().unwrap();
        Affinity::only(last).apply().unwrap();
        assert_eq!(Affinity::current().unwrap().cpus(), vec![last]);
        original.apply().unwrap();
        assert_eq!(Affinity::current().unwrap(), original);
    }

    #[test]
    fn the_reference_work_is_deterministic() {
        assert_eq!(reference_work(), reference_work());
    }
}
