//! The three end-to-end workloads, each driving a release binary from
//! outside and checking its output against the in-process reference.

use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use crate::calib::HostSpeed;
use crate::capture::{batch_report, events_between, Inputs, Reference, Shape};
use crate::lines::{parse_baseline, parse_epoch, parse_ingest, parse_listening};
use crate::pacer::{Pacing, Schedule};
use crate::proc::{run, CpuTrace, Line, Proc};
use crate::stats::{beyond, climb, median, percentile, quartiles, sustained_rate, Measured, Rung};

/// Tail percentile of closed-loop `replay-steady` epoch intervals,
/// pooled over the run's replays: replays repeat until at least ten
/// intervals lie beyond it.
pub const REPLAY_TAIL: u32 = 90;
/// Tail percentile of batch job times: jobs repeat until at least ten
/// lie beyond it.
pub const BATCH_TAIL: u32 = 60;
/// Tail percentile of `serve-paced` verdict latency, pooled over the
/// run's passes: the highest that keeps at least ten post-warm-up
/// epochs beyond it with [`SERVE_MIN_PASSES`] passes.
pub const SERVE_TAIL: u32 = 75;
/// Offered rate while the window fills and for the verdict epochs,
/// events/s.
pub const VERDICT_RATE: f64 = 20_000.0;
/// Post-warm-up epochs per pass offered at [`VERDICT_RATE`] and timed
/// for verdict latency, before the ramp starts.
pub const VERDICT_EPOCHS: u64 = 10;
/// `serve-paced` makes at least this many passes, and more while
/// `--seconds` lasts.
pub const SERVE_MIN_PASSES: usize = 4;
/// Times `serve-paced` samples the host speed before each pass.
const SPEED_SAMPLES_PER_PASS: usize = 3;
/// The fixed ladder a pass climbs after its verdict epochs, one rung
/// per epoch: 15% steps up from [`VERDICT_RATE`], events/s.
pub fn ladder() -> Vec<f64> {
    (1..=14).map(|k| VERDICT_RATE * 1.15f64.powi(k)).collect()
}
/// A rung is sustained while its tail verdict latency stays within this.
pub const LATENCY_LIMIT_MS: f64 = 100.0;
/// A pass whose generator fell further behind schedule than this did
/// not offer the rate it claims: before the ramp, the pass is invalid
/// (dropped and made again), and on the ramp, a rung counts as not
/// sustained.
pub const LATENESS_BOUND_MS: f64 = 100.0;

/// The program under test.
pub struct Bins {
    pub bench: PathBuf,
    pub cli: PathBuf,
    /// The CPUs every program run is restricted to (any, when empty).
    pub cpus: Vec<usize>,
}

/// One metric as reported.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// A workload's result.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Vec<Metric>,
    /// Events offered to the program.
    pub attempted: u64,
    /// Offered events that never reached a checked verdict.
    pub failed: u64,
    /// Output-check failures, described.
    pub mismatches: Vec<String>,
}

impl Outcome {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    fn fail(&mut self, events: u64, why: String) {
        self.failed += events;
        self.mismatches.push(why);
    }
}

fn epoch_lines(lines: &[Line]) -> Vec<&Line> {
    lines
        .iter()
        .filter(|l| l.text.starts_with("epoch "))
        .collect()
}

/// Frames the program reported skipping, from its ingest stats line.
fn skipped(lines: &[Line]) -> Option<u64> {
    lines
        .iter()
        .find_map(|l| parse_ingest(&l.text))
        .map(|(_, s)| s)
}

/// Checks one program run's epoch lines: reference heads, and the full
/// lines byte-identical to `golden` once there is one.
fn check_epochs(
    out: &mut Outcome,
    lines: &[Line],
    reference: &Reference,
    golden: &mut Option<Vec<String>>,
    events: u64,
    what: &str,
) -> bool {
    let epochs: Vec<&str> = epoch_lines(lines).iter().map(|l| l.text.as_str()).collect();
    if let Err(e) = reference.check(&epochs) {
        out.fail(events, format!("{what}: {e}"));
        return false;
    }
    match golden {
        Some(g) if *g != epochs => {
            out.fail(
                events,
                format!("{what}: epoch lines differ from the first run's"),
            );
            false
        }
        Some(_) => true,
        None => {
            *golden = Some(epochs.iter().map(|s| s.to_string()).collect());
            true
        }
    }
}

/// Post-warm-up epoch indices of the reference, and the current-capture
/// events each one's window end admitted since the previous boundary.
fn steady_epochs(inputs: &Inputs, reference: &Reference) -> Vec<(usize, usize)> {
    let ep = &reference.epochs;
    (1..ep.len())
        .filter(|&i| ep[i].start_us >= reference.first_ts_us)
        .map(|i| {
            (
                i,
                events_between(&inputs.cur, ep[i - 1].end_us, ep[i].end_us),
            )
        })
        .collect()
}

/// Replays a workload repeats at least this many times.
pub const MIN_REPEATS: usize = 4;
/// `batch-diagnose` times its set-up this many times.
const SETUP_REPEATS: usize = 8;
/// A workload gives up after this many failed program runs.
const MAX_FAILURES: usize = 3;

/// One checked `watch` replay.
pub struct Replay {
    /// When the `baseline:` line arrived.
    pub ready: Instant,
    /// When each `epoch` line arrived.
    pub epochs: Vec<Instant>,
    pub cpu: CpuTrace,
    pub rss_mib: f64,
}

impl Replay {
    fn last(&self) -> Instant {
        *self.epochs.last().expect("checked against the reference")
    }

    /// CPU time from spawn to the `baseline:` line.
    pub fn setup_s(&self) -> f64 {
        self.cpu.at(self.ready)
    }

    /// Wall time from the `baseline:` line to the final verdict.
    pub fn ready_to_final_s(&self) -> f64 {
        (self.last() - self.ready).as_secs_f64()
    }

    /// CPU time from the `baseline:` line to the final verdict.
    pub fn ready_to_final_cpu_s(&self) -> f64 {
        self.cpu.at(self.last()) - self.cpu.at(self.ready)
    }

    /// CPU time from epoch `i - 1`'s verdict to epoch `i`'s.
    pub fn interval_cpu_s(&self, i: usize) -> f64 {
        self.cpu.at(self.epochs[i]) - self.cpu.at(self.epochs[i - 1])
    }
}

/// Runs `watch` over the captures once and checks it; `None` (with
/// the failure recorded in `out`) when the run failed or mismatched.
pub fn watch_once(
    bins: &Bins,
    inputs: &Inputs,
    reference: &Reference,
    dir: &Path,
    golden: &mut Option<Vec<String>>,
    out: &mut Outcome,
) -> std::io::Result<Option<Replay>> {
    let n = inputs.cur.len() as u64;
    out.attempted += n;
    let args = [
        "watch",
        path_str(&inputs.base_path),
        path_str(&inputs.cur_path),
    ];
    let err = dir.join("watch.err");
    let (lines, exit) = run(&bins.bench, &args, &err, &bins.cpus)?;
    if !exit.success {
        out.fail(
            n,
            format!("watch exited with failure (see {})", err.display()),
        );
        return Ok(None);
    }
    let Some(ready) = lines.iter().find(|l| parse_baseline(&l.text).is_some()) else {
        out.fail(n, "watch printed no baseline: line".into());
        return Ok(None);
    };
    if !check_epochs(out, &lines, reference, golden, n, "watch") {
        return Ok(None);
    }
    if exit.cpu.at(ready.at).is_nan() {
        out.fail(n, "could not read watch's CPU clock".into());
        return Ok(None);
    }
    out.failed += skipped(&lines).unwrap_or(n);
    Ok(Some(Replay {
        ready: ready.at,
        epochs: epoch_lines(&lines).iter().map(|l| l.at).collect(),
        cpu: exit.cpu,
        rss_mib: exit.peak_rss_kib as f64 / 1024.0,
    }))
}

/// `replay-steady`: `watch` over the capture, closed loop, repeated for
/// `seconds` (and at least [`MIN_REPEATS`] times).
pub fn replay_steady(
    bins: &Bins,
    inputs: &Inputs,
    reference: &Reference,
    dir: &Path,
    seconds: f64,
) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let n = inputs.cur.len() as f64;
    let steady = steady_epochs(inputs, reference);
    let (mut setup, mut rate, mut rss, mut intervals) = (vec![], vec![], vec![], vec![]);
    let (mut steady_events, mut steady_secs) = (0usize, 0.0f64);
    let mut golden = None;
    let mut speed = HostSpeed::new(&bins.cpus);
    let began = Instant::now();
    let mut failures = 0;
    while failures < MAX_FAILURES
        && (setup.len() < MIN_REPEATS
            || beyond(intervals.len(), REPLAY_TAIL) < 10
            || began.elapsed().as_secs_f64() < seconds)
    {
        speed.sample()?;
        let Some(r) = watch_once(bins, inputs, reference, dir, &mut golden, &mut out)? else {
            failures += 1;
            continue;
        };
        setup.push(r.setup_s());
        rate.push(n / r.ready_to_final_cpu_s());
        rss.push(r.rss_mib);
        for &(i, events) in &steady {
            let dt = r.interval_cpu_s(i);
            intervals.push(dt * 1e3);
            steady_events += events;
            steady_secs += dt;
        }
    }
    if beyond(intervals.len(), REPLAY_TAIL) < 10 {
        out.fail(
            0,
            format!(
                "only {} steady epochs: too few for p{REPLAY_TAIL}",
                intervals.len()
            ),
        );
    }
    let f = speed.factor();
    println!(
        "replay-steady: {} replays; {}; events per CPU second {}",
        rate.len(),
        speed_line(&speed),
        spread(&rate)
    );
    out.metric("setup_s", median(&setup) * f, "s");
    out.metric("events_per_s", median(&rate) / f, "1/s");
    out.metric("verdict_ms_p50", median(&intervals) * f, "ms");
    out.metric(
        "verdict_ms_tail",
        percentile(&intervals, REPLAY_TAIL) * f,
        "ms",
    );
    out.metric(
        "sustained_events_per_s",
        steady_events as f64 / (steady_secs * f),
        "1/s",
    );
    out.metric("peak_rss_mib", median(&rss), "MiB");
    Ok(out)
}

/// `batch-diagnose`: the one-shot `flowdiff_cli diff`, repeated for
/// `seconds`; set-up is `flowdiff_cli model` over the baseline alone.
pub fn batch_diagnose(
    bins: &Bins,
    inputs: &Inputs,
    dir: &Path,
    seconds: f64,
) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let expect = batch_report(inputs);
    let n = (inputs.base.len() + inputs.cur.len()) as u64;
    let (base, cur) = (path_str(&inputs.base_path), path_str(&inputs.cur_path));
    let err = dir.join("cli.err");
    let mut setup = Vec::new();
    let mut speed = HostSpeed::new(&bins.cpus);
    for _ in 0..SETUP_REPEATS {
        speed.sample()?;
        let (_, exit) = run(&bins.cli, &["model", base], &err, &bins.cpus)?;
        if !exit.success {
            out.fail(0, "flowdiff_cli model failed".into());
        }
        setup.push(exit.cpu_s);
    }
    let (mut job_ms, mut rss) = (vec![], vec![]);
    let began = Instant::now();
    let mut failures = 0;
    while failures < MAX_FAILURES
        && (job_ms.len() < MIN_REPEATS
            || beyond(job_ms.len(), BATCH_TAIL) < 10
            || began.elapsed().as_secs_f64() < seconds)
    {
        out.attempted += n;
        speed.sample()?;
        let (lines, exit) = run(&bins.cli, &["diff", base, cur], &err, &bins.cpus)?;
        let mut text = String::new();
        for l in &lines {
            text.push_str(&l.text);
            text.push('\n');
        }
        if !exit.success || text != expect {
            out.fail(
                n,
                "flowdiff_cli diff report differs from the in-process compare + diagnose".into(),
            );
            failures += 1;
            continue;
        }
        job_ms.push(exit.cpu_s * 1e3);
        rss.push(exit.peak_rss_kib as f64 / 1024.0);
    }
    let f = speed.factor();
    let p50 = median(&job_ms) * f;
    let tail = percentile(&job_ms, BATCH_TAIL) * f;
    println!(
        "batch-diagnose: {} jobs; {}; job CPU ms {}",
        job_ms.len(),
        speed_line(&speed),
        spread(&job_ms)
    );
    if beyond(job_ms.len(), BATCH_TAIL) < 10 {
        out.fail(
            0,
            format!("only {} jobs: too few for p{BATCH_TAIL}", job_ms.len()),
        );
    }
    out.metric("setup_s", median(&setup) * f, "s");
    out.metric("events_per_s", n as f64 / (p50 / 1e3), "1/s");
    out.metric("verdict_ms_p50", p50, "ms");
    out.metric("verdict_ms_tail", tail, "ms");
    out.metric("sustained_events_per_s", n as f64 / (tail / 1e3), "1/s");
    out.metric("peak_rss_mib", median(&rss), "MiB");
    Ok(out)
}

/// One paced `serve` pass.
pub struct Pass {
    pub setup_s: f64,
    /// Per reference epoch: verdict latency from the schedule, in the
    /// server's CPU ms (`+inf` when the epoch never arrived); `None`
    /// when the epoch's window end was not paced.
    pub latency_ms: Vec<Option<f64>>,
    pub lateness_ms: Vec<(u64, f64)>,
    pub rss_mib: f64,
    /// The server's CPU time when each reference epoch's line arrived
    /// (at its exit, if never).
    pub epoch_cpu_s: Vec<f64>,
    pub lines: Vec<Line>,
    pub ok: bool,
}

/// Spawns `serve`, replays `schedule` into it at `rate`, and times
/// every epoch line against the schedule on the server's CPU clock.
pub fn serve_pass(
    bins: &Bins,
    inputs: &Inputs,
    reference: &Reference,
    dir: &Path,
    schedule: &Schedule,
    pacing: &Pacing,
) -> std::io::Result<Pass> {
    let ckpt = dir.join("serve.ckpt");
    let _ = std::fs::remove_file(&ckpt);
    let args = [
        "serve",
        path_str(&inputs.base_path),
        "--listen",
        "127.0.0.1:0",
        "--publishers",
        "2",
        "--checkpoint",
        path_str(&ckpt),
    ];
    let mut proc = Proc::spawn(&bins.bench, &args, &dir.join("serve.err"), &bins.cpus)?;
    let stdout = proc.take_stdout();
    let (tx, rx) = mpsc::channel::<Line>();
    let reader = std::thread::spawn(move || -> std::io::Result<Vec<Line>> {
        use std::io::BufRead;
        let mut all = Vec::new();
        for text in std::io::BufReader::new(stdout).lines() {
            let line = Line {
                at: Instant::now(),
                text: text?,
            };
            if parse_listening(&line.text).is_some() {
                let _ = tx.send(line.clone());
            }
            all.push(line);
        }
        Ok(all)
    });
    let listening = rx.recv_timeout(Duration::from_secs(60));
    let sent = match &listening {
        Ok(l) => {
            let (addr, _) = parse_listening(&l.text).expect("filtered above");
            Some(schedule.replay(addr, pacing))
        }
        Err(_) => None,
    };
    if !matches!(sent, Some(Ok(_))) {
        // No publisher got through: serve would wait for one forever.
        proc.kill();
    }
    let exit = proc.wait()?;
    let lines = reader.join().expect("reader thread panicked")?;
    let (Ok(ready), Some(Ok(sent))) = (listening, sent) else {
        return Ok(Pass {
            setup_s: f64::NAN,
            latency_ms: vec![Some(f64::INFINITY); reference.epochs.len()],
            lateness_ms: vec![],
            rss_mib: exit.peak_rss_kib as f64 / 1024.0,
            epoch_cpu_s: vec![],
            lines,
            ok: false,
        });
    };
    let mut arrived = vec![None; reference.epochs.len()];
    for l in &lines {
        if let Some(e) = parse_epoch(&l.text) {
            if let Some(slot) = arrived.get_mut(e.epoch as usize) {
                *slot = Some(exit.cpu.at(l.at));
            }
        }
    }
    let latency_ms = reference
        .epochs
        .iter()
        .zip(&arrived)
        .map(|(e, at)| {
            let due = exit.cpu.at(sent.at_log_time(pacing, e.end_us)?);
            Some(at.map_or(f64::INFINITY, |at| (at - due).max(0.0) * 1e3))
        })
        .collect();
    let epoch_cpu_s = arrived.iter().map(|a| a.unwrap_or(exit.cpu_s)).collect();
    Ok(Pass {
        setup_s: exit.cpu.at(ready.at),
        latency_ms,
        lateness_ms: sent.lateness_ms,
        rss_mib: exit.peak_rss_kib as f64 / 1024.0,
        epoch_cpu_s,
        ok: exit.success && !exit.cpu.at(ready.at).is_nan(),
        lines,
    })
}

/// The run's host speed, for the log.
fn speed_line(speed: &HostSpeed) -> String {
    format!(
        "reference loop {:.1} ms, so CPU times scale by {:.3}",
        speed.loop_s() * 1e3,
        speed.factor()
    )
}

/// Median and quartile spread of repeated samples, for the log.
fn spread(xs: &[f64]) -> String {
    match quartiles(xs) {
        Some((q1, q3)) => format!(
            "median {:.1}, IQR/median {:.3}",
            median(xs),
            (q3 - q1) / median(xs)
        ),
        None => format!("median {:.1}", median(xs)),
    }
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("scratch paths are UTF-8")
}

/// `serve-paced`: passes of `serve` over the whole capture, each
/// paced in three stages: [`VERDICT_RATE`] while the window fills, the
/// same rate for [`VERDICT_EPOCHS`] timed verdict epochs, then the
/// [`ladder`], one rung per epoch, to the end of the
/// traffic. Every pass's epoch lines must be byte-identical to a
/// `watch` run's.
pub fn serve_paced(
    bins: &Bins,
    inputs: &Inputs,
    reference: &Reference,
    dir: &Path,
    seconds: f64,
) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let mut golden = None;
    if watch_once(bins, inputs, reference, dir, &mut golden, &mut out)?.is_none() {
        return Ok(out);
    }
    let golden = golden.expect("set by a checked watch run");
    let schedule = Schedule::new(&inputs.cur, u64::MAX, inputs.traffic_end_us());
    let ep = &reference.epochs;
    let epoch_us = ep[1].end_us - ep[0].end_us;
    let Some(full) = ep.iter().position(|e| e.start_us >= reference.first_ts_us) else {
        out.fail(0, "no epoch has a full window".into());
        return Ok(out);
    };
    let ramp_from = ep[full].end_us + (VERDICT_EPOCHS - 1) * epoch_us;
    let rates = ladder();
    let pacing = schedule.ramp(VERDICT_RATE, ramp_from, epoch_us, &rates);
    println!(
        "serve-paced: {VERDICT_RATE:.0} events/s to {:.1}s of log time, then one epoch each at {} events/s",
        ramp_from as f64 / 1e6,
        rates.iter().map(|r| format!("{r:.0}")).collect::<Vec<_>>().join(", ")
    );

    let mut valid = Vec::new();
    let mut speed = HostSpeed::new(&bins.cpus);
    let (began, mut failures, mut invalid) = (Instant::now(), 0, 0);
    while failures < MAX_FAILURES
        && invalid < MAX_FAILURES
        && (valid.len() < SERVE_MIN_PASSES || began.elapsed().as_secs_f64() < seconds)
    {
        for _ in 0..SPEED_SAMPLES_PER_PASS {
            speed.sample()?;
        }
        let events = schedule.len() as u64;
        out.attempted += events;
        let p = serve_pass(bins, inputs, reference, dir, &schedule, &pacing)?;
        let epochs: Vec<&str> = epoch_lines(&p.lines)
            .iter()
            .map(|l| l.text.as_str())
            .collect();
        if !p.ok || epochs != golden {
            let why = if p.ok {
                "epoch lines differ from watch's".to_string()
            } else {
                format!("failed (see {})", dir.join("serve.err").display())
            };
            out.fail(events, format!("serve pass {}: {why}", valid.len()));
            failures += 1;
            continue;
        }
        out.failed += skipped(&p.lines).unwrap_or(events);
        let late_verdict = p
            .lateness_ms
            .iter()
            .filter(|l| l.0 <= ramp_from)
            .map(|l| l.1)
            .fold(0.0, f64::max);
        if late_verdict > LATENESS_BOUND_MS {
            println!(
                "serve-paced: invalid pass dropped: generator fell {late_verdict:.1} ms behind schedule (bound {LATENESS_BOUND_MS} ms)"
            );
            invalid += 1;
            continue;
        }
        valid.push(p);
    }
    if invalid == MAX_FAILURES {
        out.fail(
            0,
            format!("invalid run: {invalid} passes fell behind schedule"),
        );
    }

    // Every CPU time is read at the run's host speed.
    let f = speed.factor();
    println!("serve-paced: {}", speed_line(&speed));
    let (mut latency, mut sustained, mut top) = (vec![], vec![], vec![]);
    for (n, p) in valid.iter().enumerate() {
        // Verdict epochs: full window, offered at the verdict rate.
        let timed = full..full + VERDICT_EPOCHS as usize;
        latency.extend(timed.map(|k| p.latency_ms[k].map_or(f64::INFINITY, |l| l * f)));
        let rungs = ramp_rungs(p, inputs, reference, ramp_from, &rates, f);
        let fail_at = rungs.iter().position(|r| !r.ok);
        let knee = sustained_rate(
            &rungs,
            VERDICT_RATE,
            rates[rates.len() - 1],
            LATENCY_LIMIT_MS,
        );
        // A backlog stops growing only at or below the rate serve can
        // serve; the knee alone lags the crossing, while the backlog
        // builds up to the latency limit.
        let served = served_rate(p, inputs, reference) / f;
        let s = knee.min(served);
        let late: Vec<f64> = p.lateness_ms.iter().map(|l| l.1).collect();
        println!(
            "serve-paced: pass {}: verdict p50 {:.1} ms; lateness p50 {:.3} ms, max {:.1} ms; \
             {} rungs held, first failing {}; knee {knee:.0} events/s, served {served:.0} events/s at the top; sustained {s:.0} events/s",
            n + 1,
            median(&latency[latency.len() - VERDICT_EPOCHS as usize..]),
            median(&late),
            late.iter().copied().fold(0.0, f64::max),
            fail_at.unwrap_or(rungs.len()),
            fail_at.map_or("none".into(), |f| format!("{:.0} events/s at {:.1} ms", rungs[f].rate, rungs[f].tail_ms)),
        );
        sustained.push(s);
        top.push(served);
    }
    if beyond(latency.len(), SERVE_TAIL) < 10 {
        out.fail(
            0,
            format!(
                "{} verdict epochs: too few for p{SERVE_TAIL}",
                latency.len()
            ),
        );
    }
    let setup: Vec<f64> = valid.iter().map(|p| p.setup_s * f).collect();
    let rss: Vec<f64> = valid.iter().map(|p| p.rss_mib).collect();
    out.metric("setup_s", median(&setup), "s");
    out.metric("events_per_s", median(&top), "1/s");
    out.metric("verdict_ms_p50", median(&latency), "ms");
    out.metric("verdict_ms_tail", percentile(&latency, SERVE_TAIL), "ms");
    out.metric("sustained_events_per_s", median(&sustained), "1/s");
    out.metric("peak_rss_mib", median(&rss), "MiB");
    Ok(out)
}

/// A ramp pass's epochs, one ladder rung each from `ramp_from_us`, up
/// to and including its knee; latencies are scaled by `scale`.
fn ramp_rungs(
    pass: &Pass,
    inputs: &Inputs,
    reference: &Reference,
    ramp_from_us: u64,
    rates: &[f64],
    scale: f64,
) -> Vec<Rung> {
    let mut measured = Vec::new();
    let mut lo = ramp_from_us;
    for (e, latency) in reference.epochs.iter().zip(&pass.latency_ms) {
        if e.end_us <= ramp_from_us || e.end_us > inputs.traffic_end_us() {
            continue;
        }
        let Some(&rate) = rates.get(measured.len()) else {
            break;
        };
        let late_ms = pass
            .lateness_ms
            .iter()
            .filter(|l| l.0 > lo && l.0 <= e.end_us)
            .map(|l| l.1)
            .fold(0.0, f64::max);
        measured.push(Measured {
            rate,
            latency_ms: latency.map_or(f64::INFINITY, |l| l * scale),
            late_ms,
        });
        lo = e.end_us;
    }
    climb(&measured, LATENCY_LIMIT_MS, LATENESS_BOUND_MS)
}

/// Epochs at the top of the ladder over which served throughput is
/// measured.
const TOP_EPOCHS: usize = 6;

/// Events per second `serve` delivered verdicts for over the last
/// [`TOP_EPOCHS`] ramp epochs, where the ladder offers well above its
/// capacity: a backlog built up since the knee keeps it busy, so the
/// CPU time it spent between those verdicts is its service time. (A serve fast
/// enough to keep up there reads as the offered rate.)
fn served_rate(pass: &Pass, inputs: &Inputs, reference: &Reference) -> f64 {
    let ep = &reference.epochs;
    let last = ep
        .iter()
        .rposition(|e| e.end_us <= inputs.traffic_end_us())
        .expect("the traffic spans several epochs");
    let first = last - TOP_EPOCHS;
    let events = events_between(&inputs.cur, ep[first].end_us, ep[last].end_us);
    events as f64 / (pass.epoch_cpu_s[last] - pass.epoch_cpu_s[first])
}

/// Shape line plus guard, shared by every workload.
pub fn shape(inputs: &Inputs, reference: &Reference) -> Result<(), String> {
    let shape = Shape::of(inputs, reference);
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!("{} ({cpus} cpus available)", shape.line());
    shape.guard()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_climbs_in_fifteen_percent_steps_above_the_verdict_rate() {
        let rates = ladder();
        assert!(rates[0] > VERDICT_RATE);
        for w in rates.windows(2) {
            assert!((w[1] / w[0] - 1.15).abs() < 1e-9);
        }
    }
}
