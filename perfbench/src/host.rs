//! The host the benchmark runs on: one pinned CPU, and its speed.
//!
//! On a shared virtual machine two things swing wall times between runs
//! of the same code. Wake-ups across CPUs go through the hypervisor, and
//! their cost follows the load of the whole host; and the CPU's own speed
//! drifts by tens of percent over seconds to minutes as neighbours come
//! and go on the same cores and caches. The benchmark therefore pins
//! itself to one CPU (every handoff becomes a local context switch), and
//! times a fixed reference job before and after every episode. Episode
//! times are reported scaled to a host that runs the job in [`NOMINAL`]:
//! a drift of the host slows the job and the program alike and divides
//! out, while a change in the program moves only the program's own times.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::io::{self, BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::stats::median;

/// The reference job's time on the nominal host: a round figure within
/// what it takes on the 2-vCPU Intel Xeon virtual machine the benchmark
/// was tuned on, where it ranges from about 5 to 9 ms as the host's load
/// comes and goes.
pub const NOMINAL: Duration = Duration::from_micros(6_000);

/// The flag that turns this binary into the reference job's process.
pub const SERVE_FLAG: &str = "--reference-server";

/// Runs of the job per measurement.
const REPS: usize = 3;

/// Entries of the pointer-chasing ring: 16 MiB of `u32`, more than the
/// private caches hold, so every hop goes to the shared cache or memory.
const RING: usize = 4 << 20;
const HOPS: usize = 10_000;
/// Round trips of the hand-off part.
const ROUNDS: u32 = 200;

/// The compute part of the job: small allocations, string-keyed hashing,
/// ordered-map inserts, reference counting under a lock, and a sort, on
/// fixed inputs.
fn compute() {
    let mut x: u64 = 0x2545_F491_4F6C_DD1D;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut map: HashMap<String, Vec<u64>> = HashMap::new();
    let mut tree = BTreeMap::new();
    let shared = Arc::new(Mutex::new(0u64));
    for i in 0..6_000u64 {
        let key = format!("svc-{:04}", next() % 400);
        map.entry(key).or_default().push(i);
        tree.insert(next() % 50_000, i);
        let boxed = black_box(Box::new([i; 6]));
        let handle = Arc::clone(&shared);
        *handle.lock().expect("never poisoned") += boxed[3];
    }
    let mut sorted: Vec<u64> = (0..20_000).map(|_| next()).collect();
    sorted.sort_unstable();
    black_box((
        map.len(),
        tree.len(),
        sorted[100],
        *shared.lock().expect("never poisoned"),
    ));
}

/// A ring over `0..RING` in one random cycle (Sattolo's shuffle), so a
/// chase from any entry visits them all before it repeats.
fn ring() -> Vec<u32> {
    let mut ring: Vec<u32> = (0..RING as u32).collect();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for i in (1..RING).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        ring.swap(i, (x % i as u64) as usize);
    }
    ring
}

/// The memory part of the job: dependent loads around the ring.
fn chase(ring: &[u32], from: u32) -> u32 {
    let mut at = from;
    for _ in 0..HOPS {
        at = ring[at as usize];
    }
    black_box(at)
}

/// The hand-off part of the job: a new thread and this one take turns
/// through a condition variable, as the gateway's client, pool and event
/// loop threads do. Pinned to one CPU, every turn is a context switch.
fn handoff() {
    let turns = Arc::new((Mutex::new(0u32), Condvar::new()));
    let peer = {
        let turns = Arc::clone(&turns);
        std::thread::spawn(move || take_turns(&turns, 1))
    };
    take_turns(&turns, 0);
    peer.join().expect("the peer does not panic");
}

/// Takes every turn `n` with `n % 2 == parity`, up to `2 * ROUNDS`.
fn take_turns(turns: &(Mutex<u32>, Condvar), parity: u32) {
    let (turn, changed) = turns;
    let mut turn = turn.lock().expect("never poisoned");
    while *turn < 2 * ROUNDS {
        if *turn % 2 == parity {
            *turn += 1;
            changed.notify_one();
        } else {
            turn = changed.wait(turn).expect("never poisoned");
        }
    }
}

/// The child's side of [`Reference`]: for every line read from standard
/// input, runs the job [`REPS`] times and prints the median time in ns,
/// until standard input closes.
pub fn serve() -> io::Result<()> {
    let ring = ring();
    let mut at = 0;
    let mut out = io::stdout().lock();
    for line in io::stdin().lock().lines() {
        line?;
        let runs: Vec<f64> = (0..REPS)
            .map(|_| {
                let t0 = Instant::now();
                compute();
                at = chase(&ring, at);
                handoff();
                t0.elapsed().as_secs_f64()
            })
            .collect();
        writeln!(out, "{}", (median(&runs) * 1e9) as u64)?;
        out.flush()?;
    }
    Ok(())
}

/// The reference job, run in a child process of this binary (started
/// with [`SERVE_FLAG`]) so that its ring stays out of the benchmark's own
/// peak RSS and allocation counts. The child inherits the CPU pinning.
pub struct Reference {
    child: Child,
    /// `None` once closed, which ends the child.
    requests: Option<ChildStdin>,
    replies: BufReader<ChildStdout>,
}

impl Reference {
    pub fn start() -> io::Result<Self> {
        let mut child = Command::new(std::env::current_exe()?)
            .arg(SERVE_FLAG)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()?;
        let requests = child.stdin.take();
        let replies = BufReader::new(child.stdout.take().expect("stdout is piped"));
        Ok(Reference {
            child,
            requests,
            replies,
        })
    }

    /// The job's time now: the median of a few runs, so that one run
    /// stretched by an interrupt does not count.
    pub fn measure(&mut self) -> io::Result<Duration> {
        let requests = self.requests.as_mut().expect("open until dropped");
        writeln!(requests)?;
        requests.flush()?;
        let mut line = String::new();
        self.replies.read_line(&mut line)?;
        let nanos: u64 = line.trim().parse().map_err(|_| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("reference process replied {line:?}"),
            )
        })?;
        Ok(Duration::from_nanos(nanos))
    }
}

impl Drop for Reference {
    fn drop(&mut self) {
        self.requests = None;
        let _ = self.child.wait();
    }
}

/// The factor that scales an episode's times to the nominal host, from
/// the reference times measured just before and just after it.
pub fn scale(before: Duration, after: Duration) -> f64 {
    let local = (before.as_secs_f64() + after.as_secs_f64()) / 2.0;
    if local > 0.0 {
        NOMINAL.as_secs_f64() / local
    } else {
        1.0
    }
}

#[cfg(target_os = "linux")]
mod affinity {
    /// `cpu_set_t`: 1024 CPUs.
    pub const WORDS: usize = 16;

    extern "C" {
        pub fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
}

/// Pins the calling thread, and so every thread it starts later, to the
/// highest-numbered CPU it may run on. Returns that CPU, or `None` when
/// the platform does not allow it. Call it before any thread starts.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    use affinity::{sched_getaffinity, sched_setaffinity, WORDS};
    let mut mask = [0u64; WORDS];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: the kernel writes at most `size` bytes, the length of `mask`.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..WORDS * 64)
        .rev()
        .find(|&cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)?;
    let mut one = [0u64; WORDS];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: the kernel reads `size` bytes, the length of `one`.
    (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_host_at_nominal_speed_is_not_scaled() {
        assert_eq!(scale(NOMINAL, NOMINAL), 1.0);
    }

    #[test]
    fn a_slow_host_scales_times_down_by_its_mean_slowdown() {
        let slow = NOMINAL * 2;
        assert_eq!(scale(slow, slow), 0.5);
        let (before, after) = (NOMINAL, NOMINAL * 3);
        assert_eq!(scale(before, after), 0.5);
        assert_eq!(scale(Duration::ZERO, Duration::ZERO), 1.0);
    }

    #[test]
    fn the_handoff_ends_after_its_rounds() {
        handoff();
    }

    #[test]
    fn the_ring_is_one_cycle_through_every_entry() {
        let ring = ring();
        let mut seen = vec![false; RING];
        let mut at = 0u32;
        for _ in 0..RING {
            assert!(!seen[at as usize], "entry {at} visited twice");
            seen[at as usize] = true;
            at = ring[at as usize];
        }
        assert_eq!(at, 0);
    }
}
