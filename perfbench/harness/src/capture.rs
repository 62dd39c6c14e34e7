//! Seeded inputs: the baseline and current captures, their shape, and
//! the in-process reference every run's output is checked against.

use std::path::{Path, PathBuf};

use flowdiff::prelude::*;
use netsim::log::ControllerLog;

use crate::lines::epoch_head;

/// Applications deployed on the 320-server tree.
pub const APPS: usize = 9;
/// Seconds of traffic each capture simulates. The log runs on for
/// about half a minute more while idle flows time out, so a capture
/// spans about six 30 s windows.
pub const TRAFFIC_SECS: u64 = 150;
/// The shape guard: a capture must span at least this many windows,
/// or the window would never fully slide.
pub const MIN_WINDOWS: f64 = 4.0;

/// The two captures of one seed, written to disk for the program and
/// kept in memory for the reference and the traced run.
pub struct Inputs {
    pub base_path: PathBuf,
    pub cur_path: PathBuf,
    pub base: ControllerLog,
    pub cur: ControllerLog,
    pub cur_bytes: Vec<u8>,
}

impl Inputs {
    /// Simulates both captures (in parallel) and writes them to `dir`.
    pub fn generate(dir: &Path, seed: u64) -> std::io::Result<Inputs> {
        let (base, cur) = std::thread::scope(|s| {
            let base = s.spawn(|| flowdiff_bench::tree_capture(APPS, seed * 2 + 1, TRAFFIC_SECS).0);
            let cur = flowdiff_bench::tree_capture(APPS, seed * 2 + 2, TRAFFIC_SECS).0;
            (base.join().expect("baseline simulation panicked"), cur)
        });
        let base_path = dir.join("baseline.fcap");
        let cur_path = dir.join("current.fcap");
        std::fs::write(&base_path, base.to_wire_bytes())?;
        let cur_bytes = cur.to_wire_bytes();
        std::fs::write(&cur_path, &cur_bytes)?;
        Ok(Inputs {
            base_path,
            cur_path,
            base,
            cur,
            cur_bytes,
        })
    }

    /// End of the simulated traffic, microseconds of log time.
    pub fn traffic_end_us(&self) -> u64 {
        (1 + TRAFFIC_SECS) * 1_000_000
    }
}

/// The config `watch` and `serve` run under.
pub fn online_config() -> FlowDiffConfig {
    let mut config = FlowDiffConfig::default();
    config.max_time_jump_us = config.partial_flow_timeout_us.max(config.episode_gap_us);
    config
}

/// Changes counted the way the `epoch` line counts them.
pub fn change_count(diff: &ModelDiff) -> usize {
    diff.group_diffs
        .iter()
        .map(|g| g.changes.len())
        .sum::<usize>()
        + diff.infra.len()
        + diff.new_groups.len()
        + diff.missing_groups.len()
}

/// One epoch of the reference run.
#[derive(Debug, Clone)]
pub struct RefEpoch {
    pub epoch: u64,
    pub start_us: u64,
    pub end_us: u64,
    pub records: usize,
    /// The `epoch` line up to its change count.
    pub head: String,
}

/// The in-process online reference over the current capture.
pub struct Reference {
    pub epochs: Vec<RefEpoch>,
    pub first_ts_us: u64,
}

impl Reference {
    pub fn online(inputs: &Inputs) -> Reference {
        let config = online_config();
        let model = BehaviorModel::build(&inputs.base, &config);
        let stability = analyze(&inputs.base, &model, &config);
        let mut differ =
            OnlineDiffer::try_new(model, stability, &config).expect("default config is valid");
        let mut epochs = Vec::new();
        let mut push = |s: &EpochSnapshot| {
            let window = (s.window.0.as_secs_f64(), s.window.1.as_secs_f64());
            epochs.push(RefEpoch {
                epoch: s.epoch,
                start_us: s.window.0.as_micros(),
                end_us: s.window.1.as_micros(),
                records: s.records,
                head: epoch_head(s.epoch, window, s.records, change_count(&s.diff)),
            });
        };
        for ev in inputs.cur.events() {
            for s in differ.observe(ev) {
                push(&s);
            }
        }
        if let Some(s) = differ.finish() {
            push(&s);
        }
        Reference {
            epochs,
            first_ts_us: inputs.cur.events()[0].ts.as_micros(),
        }
    }

    /// Epochs whose window lies wholly after the first event: the
    /// window has filled, so these are post-warm-up.
    pub fn post_warmup(&self) -> impl Iterator<Item = &RefEpoch> {
        self.epochs
            .iter()
            .filter(move |e| e.start_us >= self.first_ts_us)
    }

    /// Checks a run's `epoch` lines against the reference; returns a
    /// description of the first mismatch.
    pub fn check(&self, lines: &[&str]) -> Result<(), String> {
        if lines.len() != self.epochs.len() {
            return Err(format!(
                "{} epoch lines, reference has {}",
                lines.len(),
                self.epochs.len()
            ));
        }
        for (line, e) in lines.iter().zip(&self.epochs) {
            if !line.starts_with(&e.head) {
                return Err(format!(
                    "epoch line {line:?} does not start with {:?}",
                    e.head
                ));
            }
        }
        Ok(())
    }
}

/// The batch reference: the report `flowdiff_cli diff` must print.
pub fn batch_report(inputs: &Inputs) -> String {
    let config = FlowDiffConfig::default();
    let baseline = BehaviorModel::build(&inputs.base, &config);
    let stability = analyze(&inputs.base, &baseline, &config);
    let current = BehaviorModel::build(&inputs.cur, &config);
    let diff = compare(&baseline, &current, &stability, &config);
    let report = diagnose(&diff, &current, &[], &config);
    let mut out = format!("{report}\n");
    if report.is_healthy() {
        out.push_str("verdict: no unexplained changes\n");
    }
    out
}

/// The capture-shape record every run prints and guards on.
#[derive(Debug, Clone)]
pub struct Shape {
    pub events: usize,
    pub log_span_s: f64,
    pub windows: f64,
    pub epochs: usize,
    pub mean_window_flows: f64,
}

impl Shape {
    pub fn of(inputs: &Inputs, reference: &Reference) -> Shape {
        let config = online_config();
        let (lo, hi) = inputs.cur.time_range().expect("capture is not empty");
        let log_span_s = (hi.as_micros() - lo.as_micros()) as f64 / 1e6;
        let full: Vec<f64> = reference.post_warmup().map(|e| e.records as f64).collect();
        Shape {
            events: inputs.cur.len(),
            log_span_s,
            windows: log_span_s * 1e6 / config.online_window_us as f64,
            epochs: reference.epochs.len(),
            mean_window_flows: full.iter().sum::<f64>() / full.len().max(1) as f64,
        }
    }

    /// Refuses a capture whose window would never fully slide.
    pub fn guard(&self) -> Result<(), String> {
        if self.windows < MIN_WINDOWS {
            return Err(format!(
                "capture spans {:.2} windows, fewer than {MIN_WINDOWS}: the window would not slide",
                self.windows
            ));
        }
        Ok(())
    }

    pub fn line(&self) -> String {
        format!(
            "shape: {} events over {:.1}s of log time, {:.2} windows, {} epochs, {:.0} mean window flows",
            self.events, self.log_span_s, self.windows, self.epochs, self.mean_window_flows
        )
    }
}

/// Events whose timestamp falls in `(lo_us, hi_us]`.
pub fn events_between(log: &ControllerLog, lo_us: u64, hi_us: u64) -> usize {
    let ev = log.events();
    let at = |t: u64| ev.partition_point(|e| e.ts.as_micros() <= t);
    at(hi_us) - at(lo_us)
}
