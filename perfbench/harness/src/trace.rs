//! The traced run: calls each layer's public functions in-process, in
//! the order `watch` and `serve` use them, over the seed's captures.
//! Spans (name, start, end, parent, epoch) are kept in memory and
//! written out at the end with per-epoch counts taken at the same
//! boundaries.
//!
//! Per-event stages are timed by accumulation — two clock reads per
//! event, no span per event — and land as one aggregate span per stage
//! per epoch, carrying its busy time. Every other span times one call.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use flowdiff::prelude::*;
use netsim::log::{ControlEvent, ControllerLog, FrameDecoder, LogStream};
use netsim::net::{IngestServer, LiveOptions};
use openflow::types::Timestamp;

use crate::alloc::Allocs;
use crate::capture::{online_config, Inputs, Reference};
use crate::pacer::Schedule;
use crate::stats::{median, percentile, tail_percentile};
use crate::workloads::{Metric, VERDICT_RATE};

/// Log time the live pass replays: the first three windows.
const LIVE_PREFIX_US: u64 = 90_000_000;
const NO_PARENT: u32 = u32::MAX;
const NO_EPOCH: u32 = u32::MAX;

/// One timed call, or one stage's accumulated work over an epoch.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    epoch: u32,
    /// Busy time of an accumulated span; `None` for a timed call.
    busy_ns: Option<u64>,
    /// Nanoseconds spent in child spans.
    child_ns: u64,
    /// Items (events, records, bytes) the span covered.
    count: u64,
    allocs: Allocs,
}

impl Span {
    fn busy(&self) -> u64 {
        self.busy_ns.unwrap_or(self.end_ns - self.start_ns)
    }

    fn self_ns(&self) -> u64 {
        self.busy().saturating_sub(self.child_ns)
    }

    /// The layer a span belongs to: its name up to the first dot.
    /// Undotted names (the run, a pass, an epoch) are structure, not
    /// layer work.
    fn layer(&self) -> Option<&'static str> {
        self.name.split_once('.').map(|(layer, _)| layer)
    }
}

struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    epoch: u32,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            epoch: NO_EPOCH,
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.duration_since(self.t0).as_nanos() as u64
    }

    fn parent(&self) -> u32 {
        self.stack.last().copied().unwrap_or(NO_PARENT)
    }

    /// Times `f` as a span; nested calls become its children.
    fn span<T>(&mut self, name: &'static str, count: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len() as u32;
        let start = Instant::now();
        let before = Allocs::now();
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: 0,
            parent: self.parent(),
            epoch: self.epoch,
            busy_ns: None,
            child_ns: 0,
            count,
            allocs: Allocs::default(),
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        let allocs = before.since();
        let end = Instant::now();
        let end_ns = self.ns(end);
        let span = &mut self.spans[idx as usize];
        span.end_ns = end_ns;
        span.allocs = allocs;
        let dur = end_ns - span.start_ns;
        if let Some(&p) = self.stack.last() {
            self.spans[p as usize].child_ns += dur;
        }
        out
    }

    /// Records a stage's accumulated work under the current span.
    fn aggregate(&mut self, name: &'static str, acc: &mut Acc) {
        if acc.count == 0 {
            return;
        }
        let parent = self.parent();
        if let Some(p) = self.stack.last() {
            self.spans[*p as usize].child_ns += acc.busy_ns;
        }
        self.spans.push(Span {
            name,
            start_ns: self.ns(acc.first.expect("count > 0")),
            end_ns: self.ns(acc.last.expect("count > 0")),
            parent,
            epoch: self.epoch,
            busy_ns: Some(acc.busy_ns),
            child_ns: 0,
            count: acc.count,
            allocs: acc.allocs,
        });
        *acc = Acc::default();
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    fn total_ms(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.busy() as f64).sum::<f64>() / 1e6
    }

    fn count(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.count).sum()
    }

    fn allocs(&self, name: &str) -> Allocs {
        let mut a = Allocs::default();
        for s in self.named(name) {
            a.add(s.allocs);
        }
        a
    }

    /// Per-span busy milliseconds of `name`.
    fn each_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| s.busy() as f64 / 1e6).collect()
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "id\tname\tstart_ns\tend_ns\tbusy_ns\tself_ns\tparent\tepoch\tcount\tallocs\talloc_bytes")?;
        for (i, s) in self.spans.iter().enumerate() {
            let opt = |x: u32| {
                if x == u32::MAX {
                    "-".to_string()
                } else {
                    x.to_string()
                }
            };
            writeln!(
                f,
                "{i}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.busy(),
                s.self_ns(),
                opt(s.parent),
                opt(s.epoch),
                s.count,
                s.allocs.count,
                s.allocs.bytes
            )?;
        }
        f.flush()
    }
}

/// Accumulated per-event stage work.
#[derive(Default)]
struct Acc {
    busy_ns: u64,
    count: u64,
    allocs: Allocs,
    first: Option<Instant>,
    last: Option<Instant>,
}

impl Acc {
    fn add(&mut self, from: Instant, to: Instant, a0: Allocs, a1: Allocs, items: u64) {
        self.busy_ns += to.duration_since(from).as_nanos() as u64;
        self.count += items;
        self.allocs.add(Allocs {
            count: a1.count - a0.count,
            bytes: a1.bytes - a0.bytes,
        });
        self.first.get_or_insert(from);
        self.last = Some(to);
    }
}

/// Counts taken at one epoch boundary of the layer-by-layer pass.
struct EpochCounts {
    epoch: u64,
    events: u64,
    entering: usize,
    retiring: usize,
    window_records: usize,
    open_episodes: usize,
    checkpoint_bytes: usize,
}

/// Runs every traced pass; returns the per-layer metrics.
pub fn run(
    inputs: &Inputs,
    reference: &Reference,
    dir: &Path,
    out_dir: &Path,
    tag: &str,
    watch_ready_to_final_s: f64,
) -> Result<Vec<Metric>, String> {
    let config = online_config();
    let base_bytes = std::fs::read(&inputs.base_path).map_err(|e| e.to_string())?;
    let mut tr = Tracer::new();
    let mut counts: Vec<EpochCounts> = Vec::new();
    let mut m: Vec<Metric> = Vec::new();
    let mut put =
        |name: &'static str, value: f64, unit: &'static str| m.push(Metric { name, value, unit });

    let root = tr.spans.len();
    let (traced_replay_ns, ckpt_bytes, reference_bytes) = tr.span("trace", 0, |tr| {
        // Baseline: decode, model, stability — what `watch` does before
        // its `baseline:` line.
        let base: ControllerLog = decode(tr, &base_bytes).into_iter().collect();
        let model = tr.span("model.build", base.len() as u64, |_| {
            BehaviorModel::build(&base, &config)
        });
        let stability = tr.span("stability.analyze", 0, |_| analyze(&base, &model, &config));
        let reference_bytes = serde::to_vec(&model).len();

        // The current capture, decoded up front like `watch`.
        let t = Instant::now();
        let cur = decode(tr, &inputs.cur_bytes);
        let decode_ns = t.elapsed().as_nanos() as u64;

        let boundary_idx = layer_pass(
            tr,
            &cur,
            &model,
            &stability,
            &config,
            reference,
            &mut counts,
        )?;
        let (replay_ns, ckpt_bytes) = differ_pass(
            tr,
            &cur,
            &boundary_idx,
            &model,
            &stability,
            &config,
            reference,
            dir,
            &mut counts,
        )?;

        tr.span("net.frame_decode", cur.len() as u64, |_| {
            let mut decoder = FrameDecoder::new();
            let mut out = Vec::with_capacity(8192);
            for chunk in inputs.cur_bytes.chunks(64 * 1024) {
                decoder.push(chunk, &mut out);
                out.clear();
            }
            decoder.finish(&mut out);
        });
        live_pass(tr, inputs, &model, &stability, &config)?;

        // The batch path: model the current capture, compare, diagnose.
        let cur_log: ControllerLog = cur.iter().cloned().collect();
        let current = tr.span("model.build_current", cur.len() as u64, |_| {
            BehaviorModel::build(&cur_log, &config)
        });
        let diff = tr.span("diff.compare_batch", 0, |_| {
            compare(&model, &current, &stability, &config)
        });
        tr.span("diagnosis.batch", 0, |_| {
            diagnose(&diff, &current, &[], &config)
        });
        Ok::<_, String>((decode_ns + replay_ns, ckpt_bytes, reference_bytes))
    })?;
    let wall_ns = tr.spans[root].busy();

    let n_cur = inputs.cur.len() as f64;
    let n_base = inputs.base.len() as f64;
    let per = |a: Allocs, n: f64| (a.count as f64 / n, a.bytes as f64 / n);
    let decode_events = tr.count("log.decode") as f64;
    let (dec_allocs, dec_bytes) = per(tr.allocs("log.decode"), decode_events);
    put(
        "log.decode_ns_per_event",
        tr.total_ms("log.decode") * 1e6 / decode_events,
        "ns",
    );
    put("log.decode_allocs_per_event", dec_allocs, "count");
    put("log.decode_bytes_per_event", dec_bytes, "B");
    put(
        "net.frame_decode_ns_per_event",
        tr.total_ms("net.frame_decode") * 1e6 / n_cur,
        "ns",
    );
    let waits = tr.each_ms("net.merge_wait");
    put(
        "net.merge_wait_ms_per_epoch",
        waits.iter().sum::<f64>() / waits.len().max(1) as f64,
        "ms",
    );

    let assembled = tr.count("records.assemble") as f64;
    let (asm_allocs, asm_bytes) = per(tr.allocs("records.assemble"), assembled);
    put(
        "records.assemble_ns_per_event",
        tr.total_ms("records.assemble") * 1e6 / assembled,
        "ns",
    );
    put("records.assemble_allocs_per_event", asm_allocs, "count");
    put("records.assemble_bytes_per_event", asm_bytes, "B");
    put(
        "records.open_episodes_peak",
        counts.iter().map(|c| c.open_episodes).max().unwrap_or(0) as f64,
        "count",
    );

    put(
        "model.build_ns_per_event",
        tr.total_ms("model.build") * 1e6 / n_base,
        "ns",
    );
    put(
        "model.observe_ns_per_event",
        tr.total_ms("model.observe") * 1e6 / n_cur,
        "ns",
    );
    // Steady epochs: the window has filled and traffic still runs to
    // its end, so every one models a full window.
    let (first, traffic_end) = (reference.first_ts_us, inputs.traffic_end_us());
    let steady: Vec<usize> = reference
        .epochs
        .iter()
        .enumerate()
        .filter(|(_, e)| e.start_us >= first && e.end_us <= traffic_end)
        .map(|(i, _)| i)
        .collect();
    let pick =
        |xs: Vec<f64>| -> Vec<f64> { steady.iter().filter_map(|&i| xs.get(i).copied()).collect() };
    let snapshots = pick(tr.each_ms("model.snapshot"));
    let tail = tail_percentile(snapshots.len(), 10).unwrap_or(50);
    put("model.snapshot_ms_p50", median(&snapshots), "ms");
    put("model.snapshot_ms_tail", percentile(&snapshots, tail), "ms");
    let epochs = tr.named("model.snapshot").count().max(1) as f64;
    let snap_allocs = tr.allocs("model.snapshot");
    put(
        "model.snapshot_allocs_per_epoch",
        snap_allocs.count as f64 / epochs,
        "count",
    );
    put(
        "model.snapshot_kib_per_epoch",
        snap_allocs.bytes as f64 / epochs / 1024.0,
        "KiB",
    );
    put(
        "model.retire_us_per_epoch",
        tr.total_ms("model.retire") * 1e3 / epochs,
        "us",
    );
    let full: Vec<&EpochCounts> = steady.iter().filter_map(|&i| counts.get(i)).collect();
    let mean = |f: &dyn Fn(&EpochCounts) -> f64| {
        full.iter().map(|c| f(c)).sum::<f64>() / full.len().max(1) as f64
    };
    put(
        "model.window_records",
        mean(&|c| c.window_records as f64),
        "count",
    );
    put(
        "model.delta_share",
        mean(&|c| (c.entering + c.retiring) as f64 / c.window_records.max(1) as f64),
        "ratio",
    );

    let batches = tr
        .named("diff.observe")
        .map(|s| s.busy() as f64 / s.count as f64)
        .collect::<Vec<_>>();
    put("diff.event_ns_p50", median(&batches), "ns");
    let boundaries = pick(tr.each_ms("diff.boundary"));
    put("diff.boundary_ms_p50", median(&boundaries), "ms");
    put("diff.boundary_ms_tail", percentile(&boundaries, tail), "ms");
    put(
        "diff.compare_ms_per_epoch",
        tr.total_ms("diff.compare") / epochs,
        "ms",
    );
    let boundary_ms = tr.total_ms("diff.boundary");
    put(
        "diff.boundary_share",
        boundary_ms / (boundary_ms + tr.total_ms("diff.observe")),
        "ratio",
    );

    put(
        "diagnosis.epoch_diagnose_ms",
        tr.total_ms("diagnosis.epoch") / epochs,
        "ms",
    );
    put("diagnosis.batch_ms", tr.total_ms("diagnosis.batch"), "ms");
    put(
        "stability.analyze_s",
        tr.total_ms("stability.analyze") / 1e3,
        "s",
    );

    let ckpts = tr.named("checkpoint.write").count().max(1) as f64;
    put(
        "checkpoint.capture_ms",
        tr.total_ms("checkpoint.capture") / ckpts,
        "ms",
    );
    put(
        "checkpoint.encode_ms",
        tr.total_ms("checkpoint.encode") / ckpts,
        "ms",
    );
    put(
        "checkpoint.write_ms",
        tr.total_ms("checkpoint.write") / ckpts,
        "ms",
    );
    let mut ck_allocs = tr.allocs("checkpoint.capture");
    ck_allocs.add(tr.allocs("checkpoint.encode"));
    put(
        "checkpoint.allocs_per_epoch",
        ck_allocs.count as f64 / ckpts,
        "count",
    );
    let full_ckpt: Vec<f64> = pick(ckpt_bytes.iter().map(|&b| b as f64).collect());
    let ckpt_mean = full_ckpt.iter().sum::<f64>() / full_ckpt.len().max(1) as f64;
    put("checkpoint.kib", ckpt_mean / 1024.0, "KiB");
    put(
        "checkpoint.reference_share",
        reference_bytes as f64 / ckpt_mean,
        "ratio",
    );

    // Where the traced wall time went, and what tracing cost.
    let mut layers: Vec<(&str, u64)> = Vec::new();
    for s in &tr.spans[root + 1..] {
        let Some(layer) = s.layer() else { continue };
        match layers.iter_mut().find(|(l, _)| *l == layer) {
            Some((_, ns)) => *ns += s.self_ns(),
            None => layers.push((layer, s.self_ns())),
        }
    }
    for (layer, ns) in &layers {
        println!(
            "trace: layer {layer:<10} self {:>9.1} ms  {:>5.1}% of traced wall",
            *ns as f64 / 1e6,
            100.0 * *ns as f64 / wall_ns as f64
        );
    }
    let self_share = layers.iter().map(|(_, ns)| *ns as f64).sum::<f64>() / wall_ns as f64;
    put("trace.self_share", self_share, "ratio");
    put(
        "trace.overhead_ratio",
        traced_replay_ns as f64 / 1e9 / watch_ready_to_final_s,
        "ratio",
    );

    std::fs::create_dir_all(out_dir).map_err(|e| e.to_string())?;
    let spans_path = out_dir.join(format!("{tag}.spans.tsv"));
    tr.write(&spans_path).map_err(|e| e.to_string())?;
    let counts_path = out_dir.join(format!("{tag}.counts.tsv"));
    write_counts(&counts_path, &counts).map_err(|e| e.to_string())?;
    println!(
        "trace: wrote {} spans to {}",
        tr.spans.len(),
        spans_path.display()
    );
    println!(
        "trace: wrote {} epochs of counts to {}",
        counts.len(),
        counts_path.display()
    );
    Ok(m)
}

fn decode(tr: &mut Tracer, bytes: &[u8]) -> Vec<ControlEvent> {
    // The count is filled in after the fact: the span times the loop.
    let idx = tr.spans.len();
    let events = tr.span("log.decode", 0, |_| {
        let mut events = Vec::new();
        let stream = LogStream::from_wire_bytes(bytes).expect("generated capture decodes");
        for ev in stream.flatten() {
            events.push(ev.into_owned());
        }
        events
    });
    tr.spans[idx].count = events.len() as u64;
    events
}

/// The online pipeline taken apart: assembler, builder, epoch clock,
/// retirement, snapshot and compare, each timed on its own. Mirrors
/// `OnlineDiffer::observe` call for call; returns the index of each
/// event that crossed a boundary.
#[allow(clippy::too_many_arguments)]
fn layer_pass(
    tr: &mut Tracer,
    cur: &[ControlEvent],
    model: &BehaviorModel,
    stability: &StabilityReport,
    config: &FlowDiffConfig,
    reference: &Reference,
    counts: &mut Vec<EpochCounts>,
) -> Result<Vec<usize>, String> {
    let mut assembler = RecordAssembler::new(config);
    let mut builder = IncrementalModelBuilder::new(config);
    let mut clock = EpochClock::new(config.online_epoch_us, config.online_window_us);
    let (mut asm, mut obs) = (Acc::default(), Acc::default());
    let mut boundary_idx = Vec::new();
    let mut entering = 0usize;
    let mut events_in_epoch = 0u64;
    let mut open_peak = 0usize;
    tr.span("layer_pass", cur.len() as u64, |tr| {
        for (i, ev) in cur.iter().enumerate() {
            if assembler.quarantines(ev.ts) {
                assembler.observe(ev);
                continue;
            }
            for (epoch, boundary) in clock.advance(ev.ts) {
                boundary_idx.push(i);
                tr.epoch = epoch as u32;
                tr.aggregate("records.assemble", &mut asm);
                tr.aggregate("model.observe", &mut obs);
                let t = tr.span("epoch", 0, |tr| {
                    let drained = tr.span("records.drain", 0, |_| assembler.take_completed());
                    entering += drained.len();
                    tr.span("model.observe_drained", drained.len() as u64, |_| {
                        for r in drained {
                            builder.observe_record(r);
                        }
                    });
                    let start = Timestamp::from_micros(
                        boundary.as_micros().saturating_sub(clock.window_us()),
                    );
                    let held = builder.record_count();
                    tr.span("model.retire", 0, |_| builder.retire_before(start));
                    let retiring = held - builder.record_count();
                    let opens: Vec<FlowRecord> = tr.span("records.opens", 0, |_| {
                        assembler
                            .open_records()
                            .into_iter()
                            .filter(|r| r.first_seen >= start)
                            .collect()
                    });
                    let window = tr.span("model.snapshot", 0, |_| {
                        builder.epoch_snapshot((start, boundary), opens)
                    });
                    tr.span("diff.compare", 0, |_| {
                        compare(model, &window, stability, config)
                    });
                    open_peak = open_peak.max(assembler.open_len());
                    (epoch, start, window.records.len(), retiring)
                });
                let (epoch, start, records, retiring) = t;
                let Some(r) = reference.epochs.get(epoch as usize) else {
                    return Err(format!("traced epoch {epoch} is beyond the reference"));
                };
                if r.start_us != start.as_micros() || r.records != records {
                    return Err(format!(
                        "traced epoch {epoch} models {records} records, reference {}",
                        r.records
                    ));
                }
                counts.push(EpochCounts {
                    epoch,
                    events: events_in_epoch,
                    entering,
                    retiring,
                    window_records: records,
                    open_episodes: open_peak,
                    checkpoint_bytes: 0,
                });
                entering = 0;
                events_in_epoch = 0;
                open_peak = 0;
            }
            let t0 = Instant::now();
            let a0 = Allocs::now();
            assembler.observe(ev);
            let done = assembler.take_completed();
            let t1 = Instant::now();
            let a1 = Allocs::now();
            entering += done.len();
            builder.observe_event(ev);
            for r in done {
                builder.observe_record(r);
            }
            let t2 = Instant::now();
            let a2 = Allocs::now();
            asm.add(t0, t1, a0, a1, 1);
            obs.add(t1, t2, a1, a2, 1);
            events_in_epoch += 1;
            if i % 1024 == 0 {
                open_peak = open_peak.max(assembler.open_len());
            }
        }
        tr.aggregate("records.assemble", &mut asm);
        tr.aggregate("model.observe", &mut obs);
        Ok(())
    })?;
    tr.epoch = NO_EPOCH;
    Ok(boundary_idx)
}

/// The program's own composition: `OnlineDiffer::observe` timed in
/// batches between boundaries, each boundary observe on its own, then
/// the epoch's diagnosis and checkpoint, as `serve` does them. Returns
/// the untraced-comparable replay time and each checkpoint's size.
#[allow(clippy::too_many_arguments)]
fn differ_pass(
    tr: &mut Tracer,
    cur: &[ControlEvent],
    boundary_idx: &[usize],
    model: &BehaviorModel,
    stability: &StabilityReport,
    config: &FlowDiffConfig,
    reference: &Reference,
    dir: &Path,
    counts: &mut [EpochCounts],
) -> Result<(u64, Vec<usize>), String> {
    let mut differ = OnlineDiffer::try_new(model.clone(), stability.clone(), config)
        .map_err(|e| e.to_string())?;
    let ckpt_path = dir.join("trace.ckpt");
    let mut replay_ns = 0u64;
    let mut sizes = Vec::new();
    let mut at = 0usize;
    let mut seen = 0usize;
    let mut bounds = boundary_idx.to_vec();
    bounds.dedup();
    bounds.push(cur.len());
    tr.span("differ_pass", cur.len() as u64, |tr| {
        for &b in &bounds {
            if b > at {
                let mut acc = Acc::default();
                let (t0, a0) = (Instant::now(), Allocs::now());
                for ev in &cur[at..b] {
                    let snaps = differ.observe(ev);
                    debug_assert!(snaps.is_empty());
                }
                acc.add(t0, Instant::now(), a0, Allocs::now(), (b - at) as u64);
                replay_ns += acc.busy_ns;
                tr.aggregate("diff.observe", &mut acc);
            }
            if b == cur.len() {
                break;
            }
            let t = Instant::now();
            let snaps = tr.span("diff.boundary", 1, |_| differ.observe(&cur[b]));
            replay_ns += t.elapsed().as_nanos() as u64;
            at = b + 1;
            for snap in snaps {
                tr.epoch = snap.epoch as u32;
                let r = &reference.epochs[seen];
                if r.epoch != snap.epoch || r.records != snap.records {
                    return Err(format!(
                        "differ epoch {} disagrees with the reference",
                        snap.epoch
                    ));
                }
                seen += 1;
                let t = Instant::now();
                tr.span("diagnosis.epoch", 0, |_| snap.diagnose(&[], config));
                replay_ns += t.elapsed().as_nanos() as u64;
                let ckpt = tr.span("checkpoint.capture", 0, |_| {
                    Checkpoint::capture(&differ, at as u64, config)
                });
                let bytes = tr.span("checkpoint.encode", 0, |_| ckpt.to_bytes());
                tr.span("checkpoint.write", bytes.len() as u64, |_| {
                    flowdiff::checkpoint::atomic_write(&ckpt_path, &bytes)
                })
                .map_err(|e| e.to_string())?;
                if let Some(c) = counts.get_mut(snap.epoch as usize) {
                    c.checkpoint_bytes = bytes.len();
                }
                sizes.push(bytes.len());
            }
        }
        Ok(())
    })?;
    tr.epoch = NO_EPOCH;
    let _ = std::fs::remove_file(&ckpt_path);
    Ok((replay_ns, sizes))
}

/// Live ingest at [`VERDICT_RATE`]: the generator replays the capture's
/// first [`LIVE_PREFIX_US`] over two connections into an in-process
/// `IngestServer`; the merge feeds an `OnlineDiffer`. Times how long
/// each epoch spends blocked in `EventMerge::next`.
fn live_pass(
    tr: &mut Tracer,
    inputs: &Inputs,
    model: &BehaviorModel,
    stability: &StabilityReport,
    config: &FlowDiffConfig,
) -> Result<(), String> {
    let first = inputs.cur.events()[0].ts.as_micros();
    let end = first + LIVE_PREFIX_US;
    let schedule = Schedule::new(&inputs.cur, end, end);
    let server = IngestServer::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = server.local_addr().map_err(|e| e.to_string())?;
    let mut live = server
        .live(2, config.ingest_queue_events, LiveOptions::default())
        .map_err(|e| e.to_string())?;
    let mut differ = OnlineDiffer::try_new(model.clone(), stability.clone(), config)
        .map_err(|e| e.to_string())?;
    let pacing = schedule.constant(VERDICT_RATE);
    let sender = std::thread::spawn(move || schedule.replay(addr, &pacing).map(|s| s.events));
    let mut merge = live.take_merge();
    let (mut wait, mut observe) = (Acc::default(), Acc::default());
    let mut delivered = 0u64;
    tr.span("live_pass", 0, |tr| loop {
        let (t0, a0) = (Instant::now(), Allocs::now());
        let next = merge.next();
        let (t1, a1) = (Instant::now(), Allocs::now());
        wait.add(t0, t1, a0, a1, 1);
        let Some(ev) = next else {
            tr.aggregate("net.merge_wait", &mut wait);
            tr.aggregate("diff.live_observe", &mut observe);
            break;
        };
        delivered += 1;
        let snaps = differ.observe(&ev);
        observe.add(t1, Instant::now(), a1, Allocs::now(), 1);
        if let Some(s) = snaps.last() {
            tr.epoch = s.epoch as u32;
            tr.aggregate("net.merge_wait", &mut wait);
            tr.aggregate("diff.live_observe", &mut observe);
        }
    });
    tr.epoch = NO_EPOCH;
    drop(merge);
    live.finish();
    let sent = sender
        .join()
        .map_err(|_| "generator thread panicked".to_string())?
        .map_err(|e| e.to_string())?;
    if sent as u64 != delivered {
        return Err(format!("live pass delivered {delivered} of {sent} events"));
    }
    Ok(())
}

fn write_counts(path: &Path, counts: &[EpochCounts]) -> std::io::Result<()> {
    let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        f,
        "epoch\tevents\tentering\tretiring\twindow_records\topen_episodes\tcheckpoint_bytes"
    )?;
    for c in counts {
        writeln!(
            f,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            c.epoch,
            c.events,
            c.entering,
            c.retiring,
            c.window_records,
            c.open_episodes,
            c.checkpoint_bytes
        )?;
    }
    f.flush()
}
