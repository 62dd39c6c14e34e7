//! Spawning the program under test: every child is reaped with
//! `wait4`, which also reports its peak resident set (the kernel's
//! `VmHWM` at exit) and its CPU time, and a child still running when its
//! handle drops is killed and reaped.
//!
//! While a child runs, a thread traces its CPU time (all its threads),
//! so that the CPU time at any wall instant, such as when a stdout line
//! arrived, can be read afterwards. CPU time excludes the time a shared
//! host's hypervisor gives the machine's cores to other tenants (steal
//! time), which wall time does not.

use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kib: i64,
    rest: [i64; 13],
}

/// The kernel's `siginfo_t`, unread here.
#[repr(C)]
struct SigInfo([u64; 16]);

const P_PID: u32 = 1;
const WEXITED: i32 = 4;
const WNOWAIT: i32 = 0x0100_0000;

#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn clock_getcpuclockid(pid: i32, clock: *mut i32) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn waitid(idtype: u32, id: u32, info: *mut SigInfo, options: i32) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Gives the harness and the program under test a CPU each, when there
/// are two: the harness (and the load it generates) then never competes
/// with the program, and the program's CPU time is its busy time on
/// one core. Pins the calling thread to the first and returns the CPU
/// for the program (none, on one CPU).
pub fn split_cpus() -> std::io::Result<Vec<usize>> {
    match allowed_cpus().as_slice() {
        [harness, program, ..] => {
            pin(&[*harness])?;
            Ok(vec![*program])
        }
        _ => Ok(vec![]),
    }
}

/// Runs `f` on `cpus` (where the calling thread is, when empty), then
/// moves the thread back to the CPUs it had.
pub fn on_cpus<T>(cpus: &[usize], f: impl FnOnce() -> T) -> std::io::Result<T> {
    if cpus.is_empty() {
        return Ok(f());
    }
    let back = allowed_cpus();
    pin(cpus)?;
    let out = f();
    pin(&back)?;
    Ok(out)
}

/// The calling thread's CPU time, s.
pub fn thread_cpu_s() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is valid for the call's duration.
    if unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) } != 0 {
        return f64::NAN;
    }
    ts.sec as f64 + ts.nsec as f64 / 1e9
}

/// The kernel's `cpu_set_t`: one bit per CPU, 1024 CPUs.
type CpuSet = [u64; 16];

/// The CPUs the calling thread may run on, ascending.
fn allowed_cpus() -> Vec<usize> {
    let mut set: CpuSet = [0; 16];
    // SAFETY: `set` is valid for the call's duration and its size is given.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| set[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

/// Restricts the calling thread, and the threads and children it
/// starts from then on, to `cpus`.
fn pin(cpus: &[usize]) -> std::io::Result<()> {
    let mut set: CpuSet = [0; 16];
    for &c in cpus {
        set[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `set` is valid for the call's duration and its size is given.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &set) } != 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok(())
}

fn seconds(t: &Timeval) -> f64 {
    t.sec as f64 + t.usec as f64 / 1e6
}

/// A child's process CPU clock: the CPU time of all its threads,
/// exited ones included. It stays readable until the child is reaped.
#[derive(Debug, Clone, Copy)]
struct CpuClock(Option<i32>);

impl CpuClock {
    fn of(pid: u32) -> CpuClock {
        let mut id = 0i32;
        // SAFETY: `id` is valid for the call's duration.
        let ok = unsafe { clock_getcpuclockid(pid as i32, &mut id) } == 0;
        CpuClock(ok.then_some(id))
    }

    /// The CPU seconds used so far, or NaN if the clock cannot be read.
    fn read(self) -> f64 {
        let Some(id) = self.0 else {
            return f64::NAN;
        };
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is valid for the call's duration.
        if unsafe { clock_gettime(id, &mut ts) } != 0 {
            return f64::NAN;
        }
        ts.sec as f64 + ts.nsec as f64 / 1e9
    }
}

/// How often the CPU trace polls the child's clock.
const POLL: Duration = Duration::from_micros(200);

/// A child's CPU time over its run, readable at any wall instant.
///
/// The kernel brings another process's CPU clock up to date only at
/// scheduler ticks and context switches, so a single reading lags by up
/// to a tick (4 ms at 250 Hz), and intervals between readings come out
/// in whole ticks. The trace polls the clock every [`POLL`] and keeps
/// each new value with the instant it was seen; [`CpuTrace::at`]
/// interpolates between them.
#[derive(Debug, Clone, Default)]
pub struct CpuTrace(Vec<(Instant, f64)>);

impl CpuTrace {
    /// The child's CPU seconds at `t`: interpolated between the values
    /// seen around it, and the first or last value outside them.
    pub fn at(&self, t: Instant) -> f64 {
        let v = &self.0;
        let k = v.partition_point(|s| s.0 <= t);
        match (k.checked_sub(1).map(|i| v[i]), v.get(k)) {
            (Some(a), Some(b)) => {
                a.1 + (b.1 - a.1) * (t - a.0).as_secs_f64() / (b.0 - a.0).as_secs_f64()
            }
            (Some(a), None) => a.1,
            (None, Some(b)) => b.1,
            (None, None) => f64::NAN,
        }
    }

    fn poll(clock: CpuClock, stop: &AtomicBool) -> CpuTrace {
        let mut seen = Vec::new();
        let mut last = f64::NAN;
        loop {
            // Read once more after the stop, which comes once the child
            // has exited: that reading is its final CPU time.
            let stopping = stop.load(Ordering::Acquire);
            let cpu = clock.read();
            if cpu != last && !cpu.is_nan() {
                seen.push((Instant::now(), cpu));
                last = cpu;
            }
            if stopping {
                return CpuTrace(seen);
            }
            std::thread::sleep(POLL);
        }
    }
}

/// How a reaped child ended.
#[derive(Debug, Clone)]
pub struct Exit {
    pub success: bool,
    pub peak_rss_kib: u64,
    /// User plus system CPU time of all the child's threads, s.
    pub cpu_s: f64,
    pub cpu: CpuTrace,
}

/// A running child whose stdout is piped and whose stderr goes to a
/// file beside the run's other scratch files.
pub struct Proc {
    child: Child,
    reaped: bool,
    trace: Option<(Arc<AtomicBool>, JoinHandle<CpuTrace>)>,
}

/// One stdout line and the instant it was read.
#[derive(Debug, Clone)]
pub struct Line {
    pub at: Instant,
    pub text: String,
}

impl Proc {
    /// Spawns the child restricted to `cpus` (to what the harness may
    /// use, when empty), and starts tracing its CPU time.
    pub fn spawn(
        program: &Path,
        args: &[&str],
        stderr_to: &Path,
        cpus: &[usize],
    ) -> std::io::Result<Proc> {
        use std::os::unix::process::CommandExt;
        let stderr = std::fs::File::create(stderr_to)?;
        let mut cmd = Command::new(program);
        cmd.args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr);
        if !cpus.is_empty() {
            let cpus = cpus.to_vec();
            // SAFETY: the hook only makes the sched_setaffinity system
            // call, which is safe between fork and exec.
            unsafe { cmd.pre_exec(move || pin(&cpus)) };
        }
        let child = cmd.spawn()?;
        let clock = CpuClock::of(child.id());
        let stop = Arc::new(AtomicBool::new(false));
        let poller = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || CpuTrace::poll(clock, &stop))
        };
        Ok(Proc {
            child,
            reaped: false,
            trace: Some((stop, poller)),
        })
    }

    pub fn take_stdout(&mut self) -> ChildStdout {
        self.child.stdout.take().expect("stdout taken once")
    }

    /// Kills the child (it is still reaped by [`Proc::wait`]).
    pub fn kill(&mut self) {
        let _ = self.child.kill();
    }

    /// Waits for the child, returning its exit, peak RSS and CPU trace.
    pub fn wait(&mut self) -> std::io::Result<Exit> {
        let pid = self.child.id();
        // Wait for the exit without reaping, so the trace's last
        // reading of the clock still finds the child.
        // SAFETY: all-zero is a valid `SigInfo`; waitid fills it in.
        let mut info: SigInfo = unsafe { std::mem::zeroed() };
        // SAFETY: `info` is valid for the call's duration.
        retry(|| unsafe { waitid(P_PID, pid, &mut info, WEXITED | WNOWAIT) })?;
        let cpu = match self.trace.take() {
            Some((stop, poller)) => {
                stop.store(true, Ordering::Release);
                poller.join().expect("CPU trace thread panicked")
            }
            None => CpuTrace::default(),
        };
        let mut status = 0i32;
        // SAFETY: all-zero is a valid `Rusage`; wait4 fills it in.
        let mut usage: Rusage = unsafe { std::mem::zeroed() };
        // SAFETY: both pointers are valid for the call's duration.
        retry(|| unsafe { wait4(pid as i32, &mut status, 0, &mut usage) })?;
        self.reaped = true;
        let exited_cleanly = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
        Ok(Exit {
            success: exited_cleanly,
            peak_rss_kib: usage.maxrss_kib.max(0) as u64,
            cpu_s: seconds(&usage.utime) + seconds(&usage.stime),
            cpu,
        })
    }
}

/// Makes a system call until it is not interrupted by a signal.
fn retry(mut call: impl FnMut() -> i32) -> std::io::Result<()> {
    loop {
        if call() >= 0 {
            return Ok(());
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.wait();
        }
    }
}

/// Reads every stdout line to EOF, stamping each as it arrives.
fn read_lines(stdout: ChildStdout) -> std::io::Result<Vec<Line>> {
    let mut out = Vec::new();
    for text in BufReader::new(stdout).lines() {
        out.push(Line {
            at: Instant::now(),
            text: text?,
        });
    }
    Ok(out)
}

/// Runs a child to completion, collecting its stamped stdout lines.
pub fn run(
    program: &Path,
    args: &[&str],
    stderr_to: &Path,
    cpus: &[usize],
) -> std::io::Result<(Vec<Line>, Exit)> {
    let mut proc = Proc::spawn(program, args, stderr_to, cpus)?;
    let lines = read_lines(proc.take_stdout())?;
    let exit = proc.wait()?;
    Ok((lines, exit))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_trace_interpolates_between_the_values_seen() {
        let t0 = Instant::now();
        let ms = |n| t0 + Duration::from_millis(n);
        let trace = CpuTrace(vec![(ms(0), 1.0), (ms(4), 1.004), (ms(8), 1.008)]);
        assert!((trace.at(ms(2)) - 1.002).abs() < 1e-12);
        assert!((trace.at(ms(6)) - 1.006).abs() < 1e-12);
        assert_eq!(trace.at(ms(4)), 1.004);
        assert_eq!(trace.at(ms(20)), 1.008);
        assert!(CpuTrace::default().at(ms(1)).is_nan());
    }

    #[test]
    fn a_childs_cpu_trace_ends_at_its_cpu_time() {
        let mut p = Proc::spawn(
            Path::new("sh"),
            &["-c", "i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done"],
            Path::new("/dev/null"),
            &[],
        )
        .unwrap();
        let exit = p.wait().unwrap();
        assert!(exit.success);
        let last = exit.cpu.0.last().expect("the clock was read").1;
        assert!(
            (last - exit.cpu_s).abs() < 0.005,
            "{last} vs {}",
            exit.cpu_s
        );
    }
}
