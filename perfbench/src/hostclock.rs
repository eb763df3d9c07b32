//! Host-speed reference: a fixed computation timed between the measured
//! operations, so that each operation's host time can be given at one
//! reference host speed.
//!
//! The benchmark shares a few cores of a host with other tenants. Their load
//! moves this process's speed by up to 70 % for seconds to minutes at a
//! time, and CPU time moves with wall time, so the slowdown is contention
//! inside the cores, not descheduling. A raw host time therefore says as
//! much about the neighbours as about the program. [`HostClock`] runs a
//! reference chunk of fixed work before the first operation and after every
//! operation, and scales each operation's time by
//! `REFERENCE_CHUNK_NS / (mean of the chunks timed just before and just after
//! it)`: the time the operation would have taken had the host run the chunk
//! in `REFERENCE_CHUNK_NS`. A slower program still reads slower, since no
//! change to the simulator touches the chunk. A slower host reads slower
//! only by the part of its slowdown the chunk does not share; the chunk
//! shares most of it, not all.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Steps of each third of the reference chunk.
const CHUNK_STEPS: u32 = 20_000;
/// Host nanoseconds of one reference chunk at the reference speed: a round
/// figure near the chunk's time on a quiet 2-core Xeon VM (2 MiB L2 per
/// core). Times the end-to-end metrics report are at this speed.
pub const REFERENCE_CHUNK_NS: f64 = 5.0e6;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// First third of the reference chunk, shaped like the memory model: an
/// 8-way LRU tag array of 64 sets fed by a mostly-strided address stream,
/// each miss queuing a fill on a time-ordered heap.
fn tag_array_steps(steps: u32) -> u64 {
    const SETS: usize = 64;
    const WAYS: usize = 8;
    let mut tags = vec![u64::MAX; SETS * WAYS];
    let mut last_use = vec![0_u32; SETS * WAYS];
    let mut fills = BinaryHeap::new();
    let mut x = 0x2545_f491_4f6c_dd1d_u64;
    let mut acc = 0_u64;
    for now in 0..black_box(steps) {
        let r = xorshift(&mut x);
        let line = if r & 3 == 0 { r >> 20 } else { u64::from(now) * 128 + (r & 0x3ff) } >> 7;
        let set = (line % SETS as u64) as usize;
        let ways = set * WAYS..set * WAYS + WAYS;
        match tags[ways.clone()].iter().position(|&t| t == line / SETS as u64) {
            Some(w) => last_use[set * WAYS + w] = now,
            None => {
                let victim = ways.min_by_key(|&w| last_use[w]).expect("a set has ways");
                tags[victim] = line / SETS as u64;
                last_use[victim] = now;
                fills.push(Reverse((u64::from(now) + 100 + (r & 63), line)));
            }
        }
        while fills.peek().is_some_and(|Reverse((due, _))| *due <= u64::from(now)) {
            acc ^= fills.pop().map_or(0, |Reverse((_, line))| line);
        }
    }
    acc
}

/// Second third of the reference chunk, shaped like the scheduling code: an
/// ordered map, a queue, small sorts and calls through trait objects.
fn container_steps(steps: u32) -> u64 {
    let calls: [Box<dyn Fn(u64) -> u64>; 6] = [
        Box::new(|a| a.rotate_left(7)),
        Box::new(|a| a ^ 0x55),
        Box::new(|a| a.wrapping_mul(3)),
        Box::new(|a| a >> 1),
        Box::new(|a| a.wrapping_add(17)),
        Box::new(|a| !a),
    ];
    let mut tree = BTreeMap::new();
    let mut queue = VecDeque::new();
    let mut batch = Vec::new();
    let mut x = 0x1234_5678_9abc_def1_u64;
    let mut acc = 0_u64;
    for i in 0..black_box(steps) {
        let r = xorshift(&mut x);
        match r % 8 {
            0 | 1 => {
                tree.insert(r & 0x3fff, i);
            }
            2 => {
                if let Some(k) = tree.range((r & 0x3fff)..).next().map(|(k, _)| *k) {
                    tree.remove(&k);
                }
            }
            3 => queue.push_back(r),
            4 => acc ^= queue.pop_front().unwrap_or(0),
            5 => {
                batch.push(r);
                if batch.len() > 64 {
                    batch.sort_unstable();
                    acc ^= batch[32];
                    batch.clear();
                }
            }
            _ => acc = calls[(r >> 8) as usize % calls.len()](acc ^ r),
        }
    }
    acc ^ tree.len() as u64 ^ queue.len() as u64
}

/// Last third of the reference chunk, shaped like the fleet's epoch loop:
/// a mutex per chip, wake-up hints lowered with an atomic `fetch_min`, and
/// a freshly built list of the chips due in each epoch.
fn lock_steps(steps: u32) -> u64 {
    const CHIPS: usize = 8;
    let hints: Vec<AtomicU64> = (0..CHIPS).map(|_| AtomicU64::new(u64::MAX)).collect();
    let queues: Vec<Mutex<u64>> = (0..CHIPS).map(|_| Mutex::new(0)).collect();
    let mut x = 0x9e37_79b9_7f4a_7c15_u64;
    let mut acc = 0_u64;
    for epoch in 0..black_box(steps) {
        let r = xorshift(&mut x);
        let chip = (r % CHIPS as u64) as usize;
        *queues[chip].lock().expect("reference lock is never poisoned") += r;
        hints[chip].fetch_min(r >> 4, Ordering::SeqCst);
        let horizon = u64::from(epoch) << 40;
        let due: Vec<usize> =
            (0..CHIPS).filter(|&c| hints[c].load(Ordering::SeqCst) <= horizon).collect();
        acc ^= due.len() as u64;
        if r & 15 == 0 {
            hints[chip].store(u64::MAX, Ordering::SeqCst);
        }
    }
    acc
}

/// The reference chunk: fixed work of the same kinds as the simulator's
/// (tag lookups, heap-ordered events, ordered maps, queues, dynamic calls,
/// locks and atomics). Among the chunks tried (table walks of 1 MiB to
/// 256 MiB, register-only arithmetic, each third alone and pairs of them),
/// this one's time tracked the simulator's and the fleet's under the
/// host's load swings most closely.
fn reference_chunk() -> u64 {
    tag_array_steps(CHUNK_STEPS) ^ container_steps(CHUNK_STEPS) ^ lock_steps(CHUNK_STEPS)
}

/// Times operations and gives each at the reference host speed. A clock
/// made with [`HostClock::off`] runs no chunks and reports raw times.
pub struct HostClock {
    on: bool,
    /// Host nanoseconds of every reference chunk run so far.
    pub chunks_ns: Vec<f64>,
}

impl HostClock {
    /// A clock that times a reference chunk around every operation.
    pub fn reference() -> Self {
        HostClock { on: true, chunks_ns: Vec::new() }
    }

    /// A clock that only times: scaled times equal raw times.
    pub fn off() -> Self {
        HostClock { on: false, chunks_ns: Vec::new() }
    }

    fn chunk(&mut self) -> f64 {
        let started = Instant::now();
        black_box(reference_chunk());
        let ns = started.elapsed().as_nanos() as f64;
        self.chunks_ns.push(ns);
        ns
    }

    /// Runs `op` and returns its output, its host nanoseconds and its
    /// nanoseconds at the reference speed.
    pub fn time<T>(&mut self, op: impl FnOnce() -> T) -> (T, u64, f64) {
        let before = match (self.on, self.chunks_ns.last()) {
            (false, _) => 0.0,
            (true, Some(&ns)) => ns,
            (true, None) => self.chunk(),
        };
        let started = Instant::now();
        let out = op();
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let scaled = if self.on {
            let after = self.chunk();
            nanos as f64 * REFERENCE_CHUNK_NS / ((before + after) / 2.0)
        } else {
            nanos as f64
        };
        (out, nanos, scaled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chunk_is_deterministic() {
        assert_eq!(reference_chunk(), reference_chunk());
    }

    #[test]
    fn an_off_clock_reports_raw_times() {
        let mut clock = HostClock::off();
        let (out, nanos, scaled) = clock.time(|| 7);
        assert_eq!(out, 7);
        assert_eq!(nanos as f64, scaled);
        assert!(clock.chunks_ns.is_empty());
    }

    #[test]
    fn a_reference_clock_brackets_each_operation() {
        let mut clock = HostClock::reference();
        clock.time(|| ());
        clock.time(|| ());
        assert_eq!(clock.chunks_ns.len(), 3);
    }
}
