//! The open-loop generator for `serve`: replays a capture over two
//! plain `FDIFFCAP` connections on a fixed schedule, log time compressed
//! so the traffic arrives at a chosen offered rate. Events are dealt to
//! the connections exactly as `flowdiff-bench publish` deals them
//! (equal-timestamp runs stay on one stream), so the server's merge
//! reconstructs the capture order.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use netsim::log::{encode_event, ControllerLog, CAPTURE_MAGIC};

/// Connections the generator opens.
pub const CONNECTIONS: usize = 2;
/// Most events written in one burst.
const BURST: usize = 2048;
/// The generator wakes at most once per tick and then sends every event
/// due by then, so at 20k events/s neither it nor the server's readers
/// wake for each event.
const TICK_NS: u64 = 1_000_000;

/// A capture pre-encoded for pacing.
pub struct Schedule {
    /// Encoded frames, in capture order.
    frames: Vec<u8>,
    /// Per event: end offset in `frames`, connection.
    ends: Vec<(usize, u8)>,
    ts_us: Vec<u64>,
    first_us: u64,
    /// Events at or before this log time are paced; later ones (the
    /// idle tail after the traffic stops) are sent as fast as the
    /// sockets take them.
    pace_until_us: u64,
}

/// When each log time is due on the wall clock: piecewise-constant
/// offered rates over log time. Events after `until_us` are not paced.
#[derive(Debug, Clone)]
pub struct Pacing {
    /// `(from log us, log us per wall us)`, ascending; the first starts
    /// at the schedule's first event.
    segments: Vec<(u64, f64)>,
    until_us: u64,
}

impl Pacing {
    /// Wall nanoseconds after the schedule start at which log time
    /// `ts_us` is due, or `None` past the paced range.
    pub fn due_ns(&self, ts_us: u64) -> Option<f64> {
        if ts_us > self.until_us {
            return None;
        }
        let mut wall_ns = 0.0;
        for (i, &(from, compression)) in self.segments.iter().enumerate() {
            let to = self.segments.get(i + 1).map_or(u64::MAX, |s| s.0);
            let end = ts_us.min(to);
            if end > from {
                wall_ns += (end - from) as f64 * 1e3 / compression;
            }
            if ts_us <= to {
                break;
            }
        }
        Some(wall_ns)
    }
}

/// What one paced replay did.
pub struct Sent {
    /// When the schedule's clock started.
    pub start: Instant,
    /// Per burst: the log time of its first event, and how far behind
    /// schedule that event went out, ms.
    pub lateness_ms: Vec<(u64, f64)>,
    pub events: usize,
}

impl Sent {
    /// The instant the schedule reached log time `ts_us`, if paced.
    pub fn at_log_time(&self, pacing: &Pacing, ts_us: u64) -> Option<Instant> {
        pacing
            .due_ns(ts_us)
            .map(|ns| self.start + Duration::from_nanos(ns as u64))
    }
}

impl Schedule {
    /// Encodes the events of `log` up to log time `until_us`, pacing
    /// those at or before `pace_until_us`.
    pub fn new(log: &ControllerLog, until_us: u64, pace_until_us: u64) -> Schedule {
        let mut frames = Vec::new();
        let mut ends = Vec::new();
        let mut ts_us = Vec::new();
        let mut conn = 0u8;
        let mut run_ts = None;
        for ev in log
            .events()
            .iter()
            .take_while(|e| e.ts.as_micros() <= until_us)
        {
            if run_ts.is_some_and(|t| t != ev.ts) {
                conn = (conn + 1) % CONNECTIONS as u8;
            }
            run_ts = Some(ev.ts);
            encode_event(ev, &mut frames);
            ends.push((frames.len(), conn));
            ts_us.push(ev.ts.as_micros());
        }
        Schedule {
            frames,
            ends,
            first_us: ts_us.first().copied().unwrap_or(0),
            ts_us,
            pace_until_us,
        }
    }

    pub fn len(&self) -> usize {
        self.ts_us.len()
    }

    /// Paced events per log microsecond over the paced part: the
    /// factor between an offered rate and a time compression.
    fn density(&self) -> f64 {
        let paced = self.ts_us.partition_point(|&t| t <= self.pace_until_us);
        let span_us = self.pace_until_us.saturating_sub(self.first_us).max(1) as f64;
        paced.max(1) as f64 / span_us
    }

    /// Paced events per log second.
    pub fn events_per_log_s(&self) -> f64 {
        self.density() * 1e6
    }

    /// The whole paced part offered at `rate` events/s.
    pub fn constant(&self, rate: f64) -> Pacing {
        Pacing {
            segments: vec![(self.first_us, rate / self.events_per_log_s())],
            until_us: self.pace_until_us,
        }
    }

    /// `base` events/s until `ramp_from_us`, then `rates[j]` for the
    /// `j`th `step_us` of log time after it (the last rate holds).
    pub fn ramp(&self, base: f64, ramp_from_us: u64, step_us: u64, rates: &[f64]) -> Pacing {
        let per_s = self.events_per_log_s();
        let mut segments = vec![(self.first_us, base / per_s)];
        for (j, &r) in rates.iter().enumerate() {
            segments.push((ramp_from_us + j as u64 * step_us, r / per_s));
        }
        Pacing {
            segments,
            until_us: self.pace_until_us,
        }
    }

    /// Connects to `addr` and replays the schedule under `pacing`.
    pub fn replay(&self, addr: SocketAddr, pacing: &Pacing) -> std::io::Result<Sent> {
        let mut socks = Vec::with_capacity(CONNECTIONS);
        for _ in 0..CONNECTIONS {
            let mut s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            s.write_all(CAPTURE_MAGIC)?;
            socks.push(s);
        }
        // Past the paced range everything is due at once.
        let due_ns: Vec<u64> = self
            .ts_us
            .iter()
            .map(|&t| pacing.due_ns(t).map_or(0, |ns| ns as u64))
            .collect();
        let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); CONNECTIONS];
        let mut lateness_ms = Vec::new();
        let start = Instant::now();
        let (mut i, mut sent_ns) = (0, 0u64);
        while i < self.len() {
            let now = start.elapsed().as_nanos() as u64;
            if due_ns[i] > now {
                let wake = due_ns[i].max(sent_ns + TICK_NS);
                std::thread::sleep(Duration::from_nanos(wake - now));
                continue;
            }
            sent_ns = now;
            let mut j = i;
            while j < self.len() && j - i < BURST && due_ns[j] <= now {
                let begin = if j == 0 { 0 } else { self.ends[j - 1].0 };
                let (end, conn) = self.ends[j];
                bufs[conn as usize].extend_from_slice(&self.frames[begin..end]);
                j += 1;
            }
            for (sock, buf) in socks.iter_mut().zip(bufs.iter_mut()) {
                if !buf.is_empty() {
                    sock.write_all(buf)?;
                    buf.clear();
                }
            }
            if pacing.due_ns(self.ts_us[i]).is_some() {
                let late = start.elapsed().as_nanos() as u64 - due_ns[i];
                lateness_ms.push((self.ts_us[i], late as f64 / 1e6));
            }
            i = j;
        }
        // Half-close, then read to EOF: the server's close confirms it
        // consumed every byte.
        for mut sock in socks {
            sock.shutdown(Shutdown::Write)?;
            let mut sink = [0u8; 256];
            while matches!(sock.read(&mut sink), Ok(n) if n > 0) {}
        }
        Ok(Sent {
            start,
            lateness_ms,
            events: self.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pacing_maps_log_time_to_wall_time_piecewise() {
        // 2 log us per wall us from 0, 4 from 1000, paced until 3000.
        let p = Pacing {
            segments: vec![(0, 2.0), (1000, 4.0)],
            until_us: 3000,
        };
        assert_eq!(p.due_ns(0), Some(0.0));
        assert_eq!(p.due_ns(500), Some(250_000.0));
        assert_eq!(p.due_ns(1000), Some(500_000.0));
        assert_eq!(p.due_ns(3000), Some(1_000_000.0));
        assert_eq!(p.due_ns(3001), None);
    }
}
