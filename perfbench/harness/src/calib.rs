//! Host speed, for reading the program's CPU time at a fixed speed.
//!
//! On a shared host, a core's speed drifts with what the other tenants
//! run: identical jobs' CPU time moved by up to 30% from one half
//! minute to the next, for minutes at a time. A fixed reference loop,
//! timed on the program's CPU between program runs, slows down with
//! it. Each run scales the program's CPU times by [`REFERENCE_LOOP_S`]
//! over the run's median reference-loop time, so a time reads as it
//! would on a host that runs the loop in [`REFERENCE_LOOP_S`]. The loop
//! uses only the standard library, none of the program's code, so a
//! change to the program cannot move it.

use std::collections::HashMap;
use std::hint::black_box;

use crate::proc::{on_cpus, thread_cpu_s};
use crate::stats::median;

/// The reference loop's CPU time on a host at reference speed, s: its
/// median on an idle 2-core shared host.
pub const REFERENCE_LOOP_S: f64 = 0.060;

/// Hash-map counting, sorting and short-lived strings, the kinds of
/// work the program does, on a fixed input. Returns a checksum.
fn reference_loop() -> u64 {
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut counts: HashMap<u64, u32> = HashMap::new();
    for _ in 0..200_000 {
        *counts.entry(next() % 100_000).or_insert(0) += 1;
    }
    let mut keys: Vec<u64> = (0..400_000).map(|_| next()).collect();
    keys.sort_unstable();
    let mut names: Vec<String> = (0..60_000u32)
        .map(|i| format!("10.{}.{}.{}", i % 7, i % 251, i % 13))
        .collect();
    names.sort();
    counts.len() as u64 ^ keys[keys.len() / 2] ^ names[1000].len() as u64
}

/// The reference-loop times of one run.
pub struct HostSpeed {
    cpus: Vec<usize>,
    samples_s: Vec<f64>,
}

impl HostSpeed {
    /// Times the loop on `cpus`, the CPUs the program runs on.
    pub fn new(cpus: &[usize]) -> HostSpeed {
        HostSpeed {
            cpus: cpus.to_vec(),
            samples_s: Vec::new(),
        }
    }

    /// Times the reference loop once, on the program's CPU.
    pub fn sample(&mut self) -> std::io::Result<()> {
        let s = on_cpus(&self.cpus, || {
            let t = thread_cpu_s();
            black_box(reference_loop());
            thread_cpu_s() - t
        })?;
        self.samples_s.push(s);
        Ok(())
    }

    /// The run's median reference-loop time, s.
    pub fn loop_s(&self) -> f64 {
        median(&self.samples_s)
    }

    /// Multiplies a CPU time measured in this run into reference-speed
    /// time.
    pub fn factor(&self) -> f64 {
        REFERENCE_LOOP_S / self.loop_s()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_loop_does_fixed_work() {
        assert_eq!(reference_loop(), reference_loop());
        let mut speed = HostSpeed::new(&[]);
        for _ in 0..5 {
            speed.sample().unwrap();
        }
        println!("reference loop: {:.1} ms", speed.loop_s() * 1e3);
        assert!(speed.factor() > 0.0);
    }
}
