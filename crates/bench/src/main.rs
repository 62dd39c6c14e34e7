//! Index of the experiment harness: lists the binaries that regenerate
//! each table and figure of the paper — plus `watch`, the supervised
//! online diff mode over on-disk captures, `chaos`, the ingestion fault
//! drill, and `crashdrill`, the crash-recovery drill.

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use flowdiff::checkpoint::{BASELINE_MAGIC, CHECKPOINT_MAGIC};
use flowdiff::prelude::*;
use netsim::log::LogStream;
use netsim::prelude::*;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let run = |r: CliResult| match r {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    };
    match args.first().map(String::as_str) {
        Some("watch") => run(cmd_watch(&args[1..])),
        Some("serve") => run(cmd_serve(&args[1..])),
        Some("publish") => run(cmd_publish(&args[1..])),
        Some("chaos") => run(cmd_chaos(&args[1..])),
        Some("flapdrill") => run(cmd_flapdrill(&args[1..])),
        Some("crashdrill") => run(cmd_crashdrill(&args[1..])),
        Some("hotpathbench") => run(cmd_hotpathbench(&args[1..])),
        Some(other) => {
            eprintln!("unknown subcommand: {other}");
            usage();
            ExitCode::from(2)
        }
        None => {
            print_index();
            ExitCode::SUCCESS
        }
    }
}

fn usage() {
    eprintln!(
        "usage: flowdiff-bench [watch <baseline.fcap|baseline.fbas> <current.fcap> \
         [--special ip,ip] [--epoch-secs N] [--window-secs N] \
         [--save-baseline <path>] [--checkpoint <path>] [--checkpoint-every N] \
         [--resume <path>]]\n       \
         flowdiff-bench [serve <baseline.fcap|baseline.fbas> --listen HOST:PORT \
         [--publishers N] [--queue N] [--slack-ms N] [--stall-ms N] [--heartbeat-ms N] \
         [--special ip,ip] [--epoch-secs N] \
         [--window-secs N] [--checkpoint <path>] [--checkpoint-every N] \
         [--resume <path>]]\n       \
         flowdiff-bench [publish <current.fcap> --connect HOST:PORT [--connections N] \
         [--chaos RATE] [--seed N] [--skew-us N] [--jitter-us N] [--session] \
         [--retry-budget N] [--backoff-ms N] [--flaps N] \
         [--stall-after BYTES --stall-ms N]]\n       \
         flowdiff-bench [chaos [--seed N] [--corruption RATE] \
         [--skew-us N] [--jitter-us N] [--wire] [--connections N]]\n       \
         flowdiff-bench [flapdrill [--seed N] [--flaps N] [--stalls N] [--trickles N] \
         [--connections N] [--merge-stall-ms N]]\n       \
         flowdiff-bench [crashdrill [--seed N] [--kills N]]\n       \
         flowdiff-bench [hotpathbench [--out <path>]]"
    );
}

fn print_index() {
    println!("FlowDiff reproduction harness. Run one experiment binary:");
    println!();
    let experiments = [
        (
            "table1",
            "Table I  - debugging with FlowDiff (7 injected problems)",
        ),
        (
            "table2",
            "Table II - robustness of application signatures (5 cases)",
        ),
        (
            "table3",
            "Table III- task-signature matching accuracy (TP/FP)",
        ),
        (
            "fig9",
            "Fig. 9   - byte count & delay CDFs under loss/logging",
        ),
        (
            "fig10",
            "Fig. 10  - delay-distribution robustness across P(x,y)/R(m,n)",
        ),
        ("fig11", "Fig. 11  - partial-correlation stability"),
        (
            "fig12",
            "Fig. 12  - component interaction at node S4 + chi-squared",
        ),
        (
            "fig13",
            "Fig. 13  - scalability: PacketIn rate & processing time",
        ),
    ];
    for (bin, desc) in experiments {
        println!("  cargo run --release -p flowdiff-bench --bin {bin:<7}  # {desc}");
    }
    println!();
    println!("Online mode over captures (see flowdiff_cli demo to make them):");
    println!("  cargo run --release -p flowdiff-bench -- watch baseline.fcap current.fcap");
    println!();
    println!("Served mode (diagnose live control-log publishers over TCP):");
    println!(
        "  cargo run --release -p flowdiff-bench -- serve baseline.fcap --listen 127.0.0.1:7654"
    );
    println!(
        "  cargo run --release -p flowdiff-bench -- publish current.fcap \
         --connect 127.0.0.1:7654 --connections 4"
    );
    println!();
    println!("Ingestion fault drill (chaos-mangled 320-server capture):");
    println!("  cargo run --release -p flowdiff-bench -- chaos --seed 1 --corruption 0.01");
    println!();
    println!("Connection fault drill (flapping/stalling session publishers vs clean wire run):");
    println!("  cargo run --release -p flowdiff-bench -- flapdrill --seed 1 --flaps 2");
    println!();
    println!("Crash-recovery drill (kill + checkpoint-restore on the 320-server capture):");
    println!("  cargo run --release -p flowdiff-bench -- crashdrill --seed 1 --kills 3");
    println!();
    println!("Hot-path benchmark (incremental snapshots, appends to BENCH_hotpath.json):");
    println!("  cargo run --release -p flowdiff-bench -- hotpathbench");
    println!();
    println!("Criterion benchmarks: cargo bench --workspace");
}

type CliResult = Result<(), Box<dyn std::error::Error>>;

/// Loads the baseline argument of `watch`: either a wire capture
/// (`FDIFFCAP`, model built and judged here) or a precomputed
/// [`BaselineBundle`] (`FDIFFBAS`, validated magic/version/CRC). A file
/// that is neither — including a checkpoint offered as a baseline — is
/// a typed error before any diffing happens.
fn load_baseline(
    path: &str,
    config: &FlowDiffConfig,
) -> Result<(BehaviorModel, StabilityReport), Box<dyn std::error::Error>> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    if bytes.starts_with(&BASELINE_MAGIC) {
        let bundle = BaselineBundle::from_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
        println!(
            "baseline: restored bundle, {} flows, {} groups",
            bundle.model.records.len(),
            bundle.model.groups.len()
        );
        return Ok((bundle.model, bundle.stability));
    }
    if bytes.starts_with(&CHECKPOINT_MAGIC) {
        return Err(format!(
            "{path}: this is a checkpoint (FDIFFCKP), not a baseline; pass it to --resume"
        )
        .into());
    }
    let log = ControllerLog::from_wire_bytes(&bytes).map_err(|e| format!("{path}: {e}"))?;
    let model = BehaviorModel::build(&log, config);
    let stability = analyze(&log, &model, config);
    println!(
        "baseline: {} events, {} flows, {} groups",
        log.len(),
        model.records.len(),
        model.groups.len()
    );
    Ok((model, stability))
}

/// `watch`: model a baseline capture (or load a prebuilt bundle), then
/// stream the current capture through a *supervised* online differ —
/// every observation runs inside `catch_unwind`, panics restore the
/// last durable checkpoint and replay, and each epoch line is printed
/// exactly once no matter how many restarts it took.
fn cmd_watch(args: &[String]) -> CliResult {
    if args.len() < 2 {
        usage();
        return Err("watch needs <baseline.fcap|.fbas> <current.fcap>".into());
    }
    let mut config = FlowDiffConfig::default();
    let mut save_baseline: Option<PathBuf> = None;
    let mut checkpoint_path: Option<PathBuf> = None;
    let mut resume_path: Option<PathBuf> = None;
    let mut it = args[2..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--special" => {
                let list = it.next().ok_or("--special needs a comma-separated list")?;
                let mut specials = Vec::new();
                for ip in list.split(',') {
                    specials.push(ip.trim().parse::<std::net::Ipv4Addr>()?);
                }
                config = config.with_special_ips(specials);
            }
            "--epoch-secs" => {
                let n: u64 = it.next().ok_or("--epoch-secs needs a number")?.parse()?;
                config.online_epoch_us = n.max(1) * 1_000_000;
            }
            "--window-secs" => {
                let n: u64 = it.next().ok_or("--window-secs needs a number")?.parse()?;
                config.online_window_us = n.max(1) * 1_000_000;
            }
            "--save-baseline" => {
                save_baseline = Some(it.next().ok_or("--save-baseline needs a path")?.into());
            }
            "--checkpoint" => {
                checkpoint_path = Some(it.next().ok_or("--checkpoint needs a path")?.into());
            }
            "--checkpoint-every" => {
                config.checkpoint_every_epochs = it
                    .next()
                    .ok_or("--checkpoint-every needs an epoch count")?
                    .parse()?;
            }
            "--resume" => {
                resume_path = Some(it.next().ok_or("--resume needs a path")?.into());
            }
            other => return Err(format!("unknown flag: {other}").into()),
        }
    }
    // A live tap reads possibly-corrupt bytes: quarantine timestamps
    // jumping past the eviction horizon instead of trusting them.
    config.max_time_jump_us = config.partial_flow_timeout_us.max(config.episode_gap_us);
    config.validate()?;

    let (baseline, stability) = load_baseline(&args[0], &config)?;
    println!(
        "stats: {} hosts, {} switches, {} ports interned; model ~{} KiB (catalog ~{} KiB)",
        baseline.catalog.n_hosts(),
        baseline.catalog.n_switches(),
        baseline.catalog.n_ports(),
        baseline.approx_bytes().div_ceil(1024),
        baseline.catalog.approx_bytes().div_ceil(1024)
    );
    if let Some(path) = &save_baseline {
        BaselineBundle {
            model: baseline.clone(),
            stability: stability.clone(),
        }
        .save(path)?;
        println!("stats: baseline bundle saved to {}", path.display());
    }

    // Decode the whole current capture up front: the supervised loop
    // needs random access to replay from a checkpoint's event offset.
    // Corrupt frames are skipped (the stream resynchronizes) and
    // tallied, not fatal: a live tap must survive a bad write.
    let current_bytes = std::fs::read(&args[1]).map_err(|e| format!("{}: {e}", args[1]))?;
    let mut stream =
        LogStream::from_wire_bytes(&current_bytes).map_err(|e| format!("{}: {e}", args[1]))?;
    let mut events: Vec<ControlEvent> = Vec::new();
    for event in stream.by_ref() {
        match event {
            Ok(event) => events.push(event.as_ref().clone()),
            Err(e) => eprintln!("warning: {}: {e} (resynchronized)", args[1]),
        }
    }
    let stream_stats = stream.stats();
    if events.is_empty() {
        return Err(format!("{}: capture holds no events", args[1]).into());
    }

    let fresh = || -> Result<(OnlineDiffer, u64), Box<dyn std::error::Error>> {
        match &resume_path {
            Some(path) => {
                let (differ, at) = load_checkpoint(path, &config)?;
                println!(
                    "stats: resumed from {} at event {at}, epoch {}",
                    path.display(),
                    differ.epoch()
                );
                Ok((differ, at))
            }
            None => Ok((
                OnlineDiffer::try_new(baseline.clone(), stability.clone(), &config)?,
                0,
            )),
        }
    };
    let (last, mut health, restarts) = supervised_run(
        &events,
        &fresh,
        &config,
        checkpoint_path.as_deref(),
        None,
        |snapshot, timings| {
            report(snapshot, &config);
            report_latency(snapshot.epoch, timings);
        },
    )?;
    health.absorb_stream(stream_stats);
    if let Some(snapshot) = &last {
        report(snapshot, &config);
    }
    if restarts > 0 {
        println!(
            "stats: survived {restarts} restart(s) within a budget of {}",
            config.restart_budget
        );
    }
    println!("stats: ingest {health}");
    Ok(())
}

/// `serve`: `watch` with the current capture arriving over TCP. Binds a
/// listen socket, waits for `--publishers` connections speaking the
/// `.fcap` wire format (8-byte magic handshake, then frames), decodes
/// each connection incrementally with resynchronization, re-sequences
/// the streams through a `(timestamp, connection)` merge, and drives
/// the same supervised differ as `watch` — for publishers produced by
/// `flowdiff-bench publish` the `epoch ` lines are byte-identical to a
/// file-based run over the interleaved capture.
fn cmd_serve(args: &[String]) -> CliResult {
    if args.is_empty() {
        usage();
        return Err("serve needs <baseline.fcap|.fbas> --listen HOST:PORT".into());
    }
    let mut config = FlowDiffConfig::default();
    let mut listen: Option<String> = None;
    let mut publishers: usize = 1;
    let mut checkpoint_path: Option<PathBuf> = None;
    let mut resume_path: Option<PathBuf> = None;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--listen" => listen = Some(it.next().ok_or("--listen needs HOST:PORT")?.clone()),
            "--publishers" => {
                publishers = it.next().ok_or("--publishers needs a count")?.parse()?;
                if publishers == 0 {
                    return Err("--publishers must be at least 1".into());
                }
            }
            "--queue" => {
                config.ingest_queue_events =
                    it.next().ok_or("--queue needs an event count")?.parse()?;
            }
            "--slack-ms" => {
                let n: u64 = it.next().ok_or("--slack-ms needs a number")?.parse()?;
                config.reorder_slack_us = n * 1_000;
            }
            "--stall-ms" => {
                let n: u64 = it.next().ok_or("--stall-ms needs a number")?.parse()?;
                config.ingest_stall_timeout_us = n * 1_000;
            }
            "--heartbeat-ms" => {
                let n: u64 = it.next().ok_or("--heartbeat-ms needs a number")?.parse()?;
                config.ingest_heartbeat_us = n * 1_000;
            }
            "--special" => {
                let list = it.next().ok_or("--special needs a comma-separated list")?;
                let mut specials = Vec::new();
                for ip in list.split(',') {
                    specials.push(ip.trim().parse::<std::net::Ipv4Addr>()?);
                }
                config = config.with_special_ips(specials);
            }
            "--epoch-secs" => {
                let n: u64 = it.next().ok_or("--epoch-secs needs a number")?.parse()?;
                config.online_epoch_us = n.max(1) * 1_000_000;
            }
            "--window-secs" => {
                let n: u64 = it.next().ok_or("--window-secs needs a number")?.parse()?;
                config.online_window_us = n.max(1) * 1_000_000;
            }
            "--checkpoint" => {
                checkpoint_path = Some(it.next().ok_or("--checkpoint needs a path")?.into());
            }
            "--checkpoint-every" => {
                config.checkpoint_every_epochs = it
                    .next()
                    .ok_or("--checkpoint-every needs an epoch count")?
                    .parse()?;
            }
            "--resume" => {
                resume_path = Some(it.next().ok_or("--resume needs a path")?.into());
            }
            other => return Err(format!("unknown flag: {other}").into()),
        }
    }
    let listen = listen.ok_or("serve needs --listen HOST:PORT")?;
    // Same trust posture as `watch` over a possibly-corrupt file, only
    // more so: these bytes come straight off sockets.
    config.max_time_jump_us = config.partial_flow_timeout_us.max(config.episode_gap_us);
    config.validate()?;

    let (baseline, stability) = load_baseline(&args[0], &config)?;
    println!(
        "stats: {} hosts, {} switches, {} ports interned; model ~{} KiB (catalog ~{} KiB)",
        baseline.catalog.n_hosts(),
        baseline.catalog.n_switches(),
        baseline.catalog.n_ports(),
        baseline.approx_bytes().div_ceil(1024),
        baseline.catalog.approx_bytes().div_ceil(1024)
    );

    let server = IngestServer::bind(listen.as_str()).map_err(|e| format!("{listen}: {e}"))?;
    let addr = server.local_addr()?;
    // The line CI (and any supervisor) polls for before launching
    // publishers; with `--listen host:0` it carries the chosen port.
    println!("listening on {addr} for {publishers} publisher(s)");
    let mut live = server
        .live(
            publishers,
            config.ingest_queue_events,
            LiveOptions {
                stall_timeout_us: config.ingest_stall_timeout_us,
                heartbeat_us: config.ingest_heartbeat_us,
            },
        )
        .map_err(|e| format!("accept: {e}"))?;
    // The merge is pulled *on demand*: epochs are diffed and printed
    // while publishers are still connected, and every event is retained
    // so a checkpoint replay can re-read from any offset, exactly like
    // `watch` over a capture file. Backpressure still holds — each
    // connection feeds a bounded queue, so a publisher far ahead of the
    // merge blocks on TCP, not on server memory.
    let mut feed = Feed::live(live.take_merge());
    // While any stream is stalled or dead its share of the window is
    // missing; the differ gates those epochs' diffs to Suppressed
    // instead of alarming on behavior the wire never delivered.
    let gauges = live.gauges();
    let degraded_probe = move || -> Option<String> {
        let down: Vec<String> = gauges
            .iter()
            .enumerate()
            .filter(|(_, g)| g.is_degraded())
            .map(|(i, g)| format!("conn {i} {}", g.state()))
            .collect();
        if down.is_empty() {
            None
        } else {
            Some(down.join(", "))
        }
    };

    let fresh = || -> Result<(OnlineDiffer, u64), Box<dyn std::error::Error>> {
        match &resume_path {
            Some(path) => {
                let (differ, at) = load_checkpoint(path, &config)?;
                println!(
                    "stats: resumed from {} at event {at}, epoch {}",
                    path.display(),
                    differ.epoch()
                );
                Ok((differ, at))
            }
            None => Ok((
                OnlineDiffer::try_new(baseline.clone(), stability.clone(), &config)?,
                0,
            )),
        }
    };
    let (last, mut health, restarts) = supervised_feed(
        &mut feed,
        &fresh,
        &config,
        checkpoint_path.as_deref(),
        None,
        Some(&degraded_probe),
        |snapshot, timings| {
            report(snapshot, &config);
            report_latency(snapshot.epoch, timings);
        },
    )?;
    let reports = live.finish();
    for r in &reports {
        for e in &r.first_errors {
            eprintln!("warning: conn {}: {e} (resynchronized)", r.index);
        }
        println!("stats: conn {}", conn_line(r));
        health.absorb_stream(r.stats);
        health.absorb_conn(r.stalls, r.disconnects, r.resumes);
    }
    if feed.delivered() == 0 {
        return Err("publishers delivered no events".into());
    }
    if let Some(snapshot) = &last {
        report(snapshot, &config);
    }
    if restarts > 0 {
        println!(
            "stats: survived {restarts} restart(s) within a budget of {}",
            config.restart_budget
        );
    }
    println!("stats: ingest {health}");
    Ok(())
}

/// `publish`: the replay client for `serve`. Reads a capture, deals it
/// across `--connections` publisher streams (equal-timestamp runs never
/// straddle streams, so the server's merge reconstructs the capture
/// order exactly), and replays every stream concurrently over TCP —
/// optionally through the seeded [`ChannelChaos`] network-fault proxy
/// (each connection gets its own derived seed).
fn cmd_publish(args: &[String]) -> CliResult {
    if args.is_empty() {
        usage();
        return Err("publish needs <current.fcap> --connect HOST:PORT".into());
    }
    let mut connect: Option<String> = None;
    let mut connections: usize = 1;
    let mut chaos_rate: f64 = 0.0;
    let mut seed: u64 = 1;
    let mut skew_us: u64 = 0;
    let mut jitter_us: u64 = 0;
    let mut session = false;
    let mut retry_budget: u32 = 0;
    let mut backoff_ms: u64 = 200;
    let mut flaps: usize = 0;
    let mut stall_after: u64 = 0;
    let mut stall_ms: u64 = 0;
    let mut it = args[1..].iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--connect" => connect = Some(it.next().ok_or("--connect needs HOST:PORT")?.clone()),
            "--connections" => {
                connections = it.next().ok_or("--connections needs a count")?.parse()?;
                if connections == 0 {
                    return Err("--connections must be at least 1".into());
                }
            }
            "--chaos" => {
                chaos_rate = it.next().ok_or("--chaos needs a rate")?.parse()?;
                if !(0.0..=1.0).contains(&chaos_rate) {
                    return Err("--chaos must be in [0, 1]".into());
                }
            }
            "--seed" => seed = it.next().ok_or("--seed needs a number")?.parse()?,
            "--skew-us" => skew_us = it.next().ok_or("--skew-us needs a number")?.parse()?,
            "--jitter-us" => jitter_us = it.next().ok_or("--jitter-us needs a number")?.parse()?,
            "--session" => session = true,
            "--retry-budget" => {
                retry_budget = it.next().ok_or("--retry-budget needs a count")?.parse()?;
            }
            "--backoff-ms" => {
                backoff_ms = it.next().ok_or("--backoff-ms needs a number")?.parse()?;
            }
            "--flaps" => flaps = it.next().ok_or("--flaps needs a count")?.parse()?,
            "--stall-after" => {
                stall_after = it
                    .next()
                    .ok_or("--stall-after needs a byte count")?
                    .parse()?;
            }
            "--stall-ms" => stall_ms = it.next().ok_or("--stall-ms needs a number")?.parse()?,
            other => return Err(format!("unknown flag: {other}").into()),
        }
    }
    let connect = connect.ok_or("publish needs --connect HOST:PORT")?;
    // `--retry-budget`/`--flaps` only make sense on resumable streams.
    let session = session || retry_budget > 0 || flaps > 0;
    if session && (chaos_rate > 0.0 || skew_us > 0 || jitter_us > 0) {
        return Err("--chaos/--skew-us/--jitter-us mangle legacy streams; \
                    they cannot combine with --session/--flaps/--retry-budget"
            .into());
    }
    if session && stall_after > 0 {
        return Err("--stall-after paces a legacy stream; \
                    use --flaps for session-mode faults"
            .into());
    }

    // Tolerant decode, like `watch`: a capture with a bad write is
    // replayed minus the corrupt frames, not rejected.
    let bytes = std::fs::read(&args[0]).map_err(|e| format!("{}: {e}", args[0]))?;
    let mut stream = LogStream::from_wire_bytes(&bytes).map_err(|e| format!("{}: {e}", args[0]))?;
    let mut events: Vec<ControlEvent> = Vec::new();
    for event in stream.by_ref() {
        match event {
            Ok(event) => events.push(event.into_owned()),
            Err(e) => eprintln!("warning: {}: {e} (resynchronized)", args[0]),
        }
    }
    if events.is_empty() {
        return Err(format!("{}: capture holds no events", args[0]).into());
    }
    let log: ControllerLog = events.into_iter().collect();

    let base_chaos = if chaos_rate > 0.0 || skew_us > 0 || jitter_us > 0 {
        Some(ChannelChaos {
            reorder_jitter_us: jitter_us,
            clock_skew_us: skew_us,
            seed,
            ..ChannelChaos::corruption(chaos_rate, seed)
        })
    } else {
        None
    };
    let mut handles = Vec::new();
    for (i, part) in split_capture(&log, connections).into_iter().enumerate() {
        let addr = connect.clone();
        if session {
            let opts = SessionOptions {
                session: seed.wrapping_mul(0x10_000).wrapping_add(i as u64),
                retry_budget,
                backoff_us: backoff_ms.saturating_mul(1_000),
                plan: (flaps > 0).then(|| {
                    ConnChaos::flapping(flaps, seed).plan_for(i as u64, part.len() as u64)
                }),
            };
            handles.push(std::thread::spawn(move || {
                publish_session(addr.as_str(), &part, &opts)
            }));
        } else {
            let chaos = base_chaos.clone().map(|mut c| {
                c.seed = c.seed.wrapping_add(i as u64);
                c
            });
            // Only the first connection is paced: one wedged publisher
            // among healthy siblings is exactly the stalled-source
            // scenario the serve smoke drills.
            let stall = (stall_after > 0 && i == 0)
                .then(|| (stall_after, std::time::Duration::from_millis(stall_ms)));
            handles.push(std::thread::spawn(move || {
                publish_capture_paced(addr.as_str(), &part, chaos.as_ref(), stall)
            }));
        }
    }
    let mut total = PublishReport::default();
    let mut first_err: Option<String> = None;
    for (i, handle) in handles.into_iter().enumerate() {
        let r = match handle.join().expect("publisher thread must not panic") {
            Ok(r) => r,
            Err(e) => {
                // Keep joining: sibling connections must finish (or
                // fail on their own terms) before the process exits.
                println!("publish: conn {i} FAILED: {e}");
                if first_err.is_none() {
                    first_err = Some(format!("conn {i}: {e}"));
                }
                continue;
            }
        };
        match &r.chaos {
            Some(c) => println!(
                "publish: conn {i} sent {} bytes, {} events (chaos: {} dropped, \
                 {} duplicated, {} truncated, {} bit-flipped, {} reordered)",
                r.bytes_sent,
                r.events,
                c.dropped,
                c.duplicated,
                c.truncated,
                c.bit_flipped,
                c.reordered
            ),
            None if session => println!(
                "publish: conn {i} sent {} bytes, {} events ({} connect(s), \
                 {} resume(s), {} retry(s), {} fault(s))",
                r.bytes_sent, r.events, r.connects, r.resumes, r.retries, r.faults
            ),
            None => println!(
                "publish: conn {i} sent {} bytes, {} events",
                r.bytes_sent, r.events
            ),
        }
        total.bytes_sent += r.bytes_sent;
        total.events += r.events;
    }
    println!(
        "publish: {connections} connection(s), {} bytes, {} events total",
        total.bytes_sent, total.events
    );
    match first_err {
        Some(e) => Err(e.into()),
        None => Ok(()),
    }
}

/// Restores the checkpoint at `path` into a running differ and its
/// replay offset; every failure names the file.
fn load_checkpoint(
    path: &Path,
    config: &FlowDiffConfig,
) -> Result<(OnlineDiffer, u64), Box<dyn std::error::Error>> {
    let load = || -> Result<(OnlineDiffer, u64), Box<dyn std::error::Error>> {
        Ok(Checkpoint::from_bytes(&std::fs::read(path)?)?.resume(config)?)
    };
    load().map_err(|e| format!("{}: {e}", path.display()).into())
}

/// The supervised loop's event source.
///
/// `Slice` is the batch shape (`watch`, the drills, the tests): the
/// capture fully decoded up front. `Live` pulls from a wire
/// [`EventMerge`] *on demand* — an epoch is diffed and printed while
/// publishers are still connected — and retains every pulled event so
/// a checkpoint replay can re-read from any earlier offset, exactly
/// like a file. Retention is what `serve` already paid when it
/// collected the merge up front; it buys crash recovery, and with a
/// stall-tolerant merge it is also what keeps a silent stream from
/// wedging epoch emission: `get` returns whatever the merge releases
/// past the stalled source.
enum Feed<'a> {
    Slice(&'a [ControlEvent]),
    Live {
        merge: EventMerge,
        buffered: Vec<ControlEvent>,
        done: bool,
    },
}

impl Feed<'_> {
    fn live(merge: EventMerge) -> Feed<'static> {
        Feed::Live {
            merge,
            buffered: Vec::new(),
            done: false,
        }
    }

    /// The event at `idx`, pulling from the live merge as needed;
    /// `None` once the stream is exhausted.
    fn get(&mut self, idx: usize) -> Option<&ControlEvent> {
        match self {
            Feed::Slice(events) => events.get(idx),
            Feed::Live {
                merge,
                buffered,
                done,
            } => {
                while !*done && buffered.len() <= idx {
                    match merge.next() {
                        Some(event) => buffered.push(event),
                        None => *done = true,
                    }
                }
                buffered.get(idx)
            }
        }
    }

    /// Events seen so far (the full length for `Slice`).
    fn delivered(&self) -> usize {
        match self {
            Feed::Slice(events) => events.len(),
            Feed::Live { buffered, .. } => buffered.len(),
        }
    }
}

/// Drives `events` through a supervised online differ.
///
/// Every observation runs inside `catch_unwind`; on a panic the loop
/// restores the last durable checkpoint (or calls `fresh` again when
/// none was written yet), replays from its event offset, and retries
/// after an exponential backoff — up to `config.restart_budget`
/// restarts total. Epoch snapshots reach `on_snapshot` exactly once
/// each, in order, no matter how many times the stream is replayed.
///
/// `plan` injects deterministic deaths for the crash drill: when an
/// observation emits an epoch the plan wants dead, the kill is consumed
/// ([`CrashPlan::take`]) and the closure panics *before* the snapshot
/// is delivered — exactly what a power cut between compute and output
/// looks like.
///
/// Returns the final flushed snapshot, the ingestion health of the
/// (last incarnation of the) differ, and how many restarts were spent.
fn supervised_run(
    events: &[ControlEvent],
    fresh: &dyn Fn() -> Result<(OnlineDiffer, u64), Box<dyn std::error::Error>>,
    config: &FlowDiffConfig,
    checkpoint_path: Option<&Path>,
    plan: Option<&mut CrashPlan>,
    on_snapshot: impl FnMut(&EpochSnapshot, EpochTimings),
) -> Result<Supervised, Box<dyn std::error::Error>> {
    supervised_feed(
        &mut Feed::Slice(events),
        fresh,
        config,
        checkpoint_path,
        plan,
        None,
        on_snapshot,
    )
}

/// What a supervised run leaves behind: the final flushed snapshot,
/// the ingestion health, and the restarts spent.
type Supervised = (Option<EpochSnapshot>, flowdiff::records::IngestHealth, u32);

/// [`supervised_run`] over any [`Feed`], with an optional degraded-
/// ingest probe. The probe is polled once per event (cheap atomic
/// reads) and its verdict is applied to the differ *before* the
/// observation, so an epoch that closes while a source is stalled or
/// dead gates its diffs instead of alarming on the missing share.
fn supervised_feed(
    feed: &mut Feed<'_>,
    fresh: &dyn Fn() -> Result<(OnlineDiffer, u64), Box<dyn std::error::Error>>,
    config: &FlowDiffConfig,
    checkpoint_path: Option<&Path>,
    mut plan: Option<&mut CrashPlan>,
    degraded: Option<&dyn Fn() -> Option<String>>,
    mut on_snapshot: impl FnMut(&EpochSnapshot, EpochTimings),
) -> Result<Supervised, Box<dyn std::error::Error>> {
    let (mut differ, start) = fresh()?;
    let mut idx = start as usize;
    // Epochs below this watermark were already delivered (possibly by a
    // previous process incarnation): a replay skips them.
    let mut emitted: u64 = differ.epoch();
    let mut restarts: u32 = 0;
    let mut epochs_since_ckpt: u64 = 0;
    // Pull (possibly blocking on the live merge) *before* probing: a
    // stall the merge just waived to release this event is visible to
    // the probe that gates its epoch.
    while let Some(event) = feed.get(idx) {
        if let Some(probe) = degraded {
            differ.set_ingest_degraded(probe());
        }
        let observed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let snaps = differ.observe(event);
            if let Some(plan) = plan.as_deref_mut() {
                for snap in &snaps {
                    if snap.epoch >= emitted && plan.take(snap.epoch) {
                        panic!("crashdrill: killed at epoch {}", snap.epoch);
                    }
                }
            }
            snaps
        }));
        let Ok(snaps) = observed else {
            // One restart: spend budget, back off, restore the last
            // durable checkpoint (or start fresh when none was written
            // yet).
            restarts += 1;
            if restarts > config.restart_budget {
                return Err(format!(
                    "restart budget exhausted: panicked {restarts} times, budget {}",
                    config.restart_budget
                )
                .into());
            }
            let backoff = config
                .restart_backoff_us
                .saturating_mul(1u64 << (restarts - 1).min(20));
            std::thread::sleep(std::time::Duration::from_micros(backoff));
            let (restored, at) = match checkpoint_path {
                Some(path) if path.exists() => load_checkpoint(path, config)?,
                _ => fresh()?,
            };
            differ = restored;
            idx = at as usize;
            epochs_since_ckpt = 0;
            continue;
        };
        let mut fresh_epochs = 0u64;
        // The stage timings accumulated since the last boundary belong
        // to this observe round's epochs; a multi-epoch advance
        // attributes the sum to the first fresh one.
        let mut timings = if snaps.is_empty() {
            EpochTimings::default()
        } else {
            differ.take_timings()
        };
        for snap in &snaps {
            if snap.epoch >= emitted {
                on_snapshot(snap, std::mem::take(&mut timings));
                emitted = snap.epoch + 1;
                fresh_epochs += 1;
            }
        }
        idx += 1;
        if fresh_epochs > 0 {
            epochs_since_ckpt += fresh_epochs;
            if let Some(path) = checkpoint_path {
                if epochs_since_ckpt >= config.checkpoint_every_epochs {
                    // `idx` was just advanced: the checkpoint records
                    // that events[..idx] are consumed.
                    Checkpoint::capture(&differ, idx as u64, config).save(path)?;
                    epochs_since_ckpt = 0;
                }
            }
        }
    }
    let health = *differ.health();
    Ok((differ.finish(), health, restarts))
}

/// `chaos`: regenerate the paper's 320-server tree capture, mangle it
/// with a seeded fault injector, stream both the clean and the mangled
/// bytes through the online differ against the same baseline, and
/// report how much of the clean run's diff survived the damage.
fn cmd_chaos(args: &[String]) -> CliResult {
    let mut seed: u64 = 1;
    let mut corruption: f64 = 0.01;
    let mut skew_us: u64 = 0;
    let mut jitter_us: u64 = 0;
    let mut wire = false;
    let mut connections: usize = 2;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => seed = it.next().ok_or("--seed needs a number")?.parse()?,
            "--wire" => wire = true,
            "--connections" => {
                connections = it.next().ok_or("--connections needs a count")?.parse()?;
                if connections == 0 {
                    return Err("--connections must be at least 1".into());
                }
            }
            "--corruption" => {
                corruption = it.next().ok_or("--corruption needs a rate")?.parse()?;
                if !(0.0..=1.0).contains(&corruption) {
                    return Err("--corruption must be in [0, 1]".into());
                }
            }
            "--skew-us" => skew_us = it.next().ok_or("--skew-us needs a number")?.parse()?,
            "--jitter-us" => jitter_us = it.next().ok_or("--jitter-us needs a number")?.parse()?,
            other => return Err(format!("unknown flag: {other}").into()),
        }
    }

    let (baseline_log, mut config) = flowdiff_bench::tree_capture(9, 42, 6);
    let (current_log, _) = flowdiff_bench::tree_capture(9, 43, 6);
    // Give the reorder buffer enough slack to absorb whatever timing
    // damage the injector is configured to do, and quarantine the
    // far-future timestamps bit flips mint.
    config.reorder_slack_us = jitter_us + 2 * skew_us;
    config.max_time_jump_us = config.partial_flow_timeout_us.max(config.episode_gap_us);
    config.validate()?;
    let baseline = BehaviorModel::build(&baseline_log, &config);
    let stability = analyze(&baseline_log, &baseline, &config);

    let chaos = ChannelChaos {
        reorder_jitter_us: jitter_us,
        clock_skew_us: skew_us,
        seed,
        ..ChannelChaos::corruption(corruption, seed)
    };
    println!(
        "chaos: seed {seed}, corruption {:.2}% (drop {:.2}% dup {:.2}% truncate {:.2}% \
         flip {:.2}%), skew ±{skew_us}us, jitter {jitter_us}us",
        corruption * 100.0,
        chaos.drop_prob * 100.0,
        chaos.duplicate_prob * 100.0,
        chaos.truncate_prob * 100.0,
        chaos.bit_flip_prob * 100.0,
    );

    let (clean_keys, clean_health, chaos_keys, chaos_health) = if wire {
        // Wire drill: both runs go through an in-process loopback
        // serve pipeline — split across `connections` publisher
        // streams, the chaos run mangling each stream independently
        // (per-connection derived seeds), like real skewed taps would.
        println!("wire: loopback ingest over {connections} publisher connection(s)");
        let (chaos_keys, chaos_health, mangled) = wire_changes(
            &current_log,
            Some(&chaos),
            connections,
            baseline.clone(),
            stability.clone(),
            &config,
        )?;
        println!(
            "mangled: {} frames -> {} dropped, {} duplicated, {} truncated, \
             {} bit-flipped, {} reordered",
            mangled.total_frames,
            mangled.dropped,
            mangled.duplicated,
            mangled.truncated,
            mangled.bit_flipped,
            mangled.reordered,
        );
        let (clean_keys, clean_health, _) = wire_changes(
            &current_log,
            None,
            connections,
            baseline,
            stability,
            &config,
        )?;
        (clean_keys, clean_health, chaos_keys, chaos_health)
    } else {
        let clean_bytes = current_log.to_wire_bytes();
        let (mangled_bytes, report) = chaos.mangle(&current_log);
        println!(
            "mangled: {} frames -> {} dropped, {} duplicated, {} truncated, \
             {} bit-flipped, {} reordered",
            report.total_frames,
            report.dropped,
            report.duplicated,
            report.truncated,
            report.bit_flipped,
            report.reordered,
        );
        let (clean_keys, clean_health) =
            stream_changes(&clean_bytes, baseline.clone(), stability.clone(), &config)?;
        let (chaos_keys, chaos_health) =
            stream_changes(&mangled_bytes, baseline, stability, &config)?;
        (clean_keys, clean_health, chaos_keys, chaos_health)
    };
    println!(
        "clean:   {} confirmed changes; ingest {clean_health}",
        clean_keys.len()
    );
    println!("stats: ingest {chaos_health}");
    report_fidelity(&clean_keys, &chaos_keys);
    Ok(())
}

/// `flapdrill`: the connection-fault drill. Replays the 320-server
/// capture twice through a loopback live-session ingest — once clean,
/// once with every publisher behind a seeded [`ConnChaos`] plan
/// (mid-stream disconnects that reconnect and resume from the server's
/// watermark, write stalls, slow-loris trickle) — and reports how much
/// of the clean run's confirmed diff the faulted run recovered.
///
/// With the default strict merge (no stall budget) a faulted run must
/// recover 100%: resume is lossless (the watermark counts events
/// actually queued, the next attempt re-sends from there, FIFO order
/// per stream holds) and the merge simply waits out each fault. A
/// nonzero `--merge-stall-ms` trades that certainty for liveness; the
/// fidelity line then measures what the trade cost.
fn cmd_flapdrill(args: &[String]) -> CliResult {
    let mut seed: u64 = 1;
    let mut flaps: usize = 2;
    let mut stalls: usize = 1;
    let mut trickles: usize = 1;
    let mut connections: usize = 2;
    let mut merge_stall_ms: u64 = 0;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => seed = it.next().ok_or("--seed needs a number")?.parse()?,
            "--flaps" => flaps = it.next().ok_or("--flaps needs a count")?.parse()?,
            "--stalls" => stalls = it.next().ok_or("--stalls needs a count")?.parse()?,
            "--trickles" => trickles = it.next().ok_or("--trickles needs a count")?.parse()?,
            "--connections" => {
                connections = it.next().ok_or("--connections needs a count")?.parse()?;
                if connections == 0 {
                    return Err("--connections must be at least 1".into());
                }
            }
            "--merge-stall-ms" => {
                merge_stall_ms = it
                    .next()
                    .ok_or("--merge-stall-ms needs a number")?
                    .parse()?;
            }
            other => return Err(format!("unknown flag: {other}").into()),
        }
    }

    let (baseline_log, mut config) = flowdiff_bench::tree_capture(9, 42, 6);
    let (current_log, _) = flowdiff_bench::tree_capture(9, 43, 6);
    config.max_time_jump_us = config.partial_flow_timeout_us.max(config.episode_gap_us);
    config.ingest_stall_timeout_us = merge_stall_ms * 1_000;
    config.validate()?;
    let baseline = BehaviorModel::build(&baseline_log, &config);
    let stability = analyze(&baseline_log, &baseline, &config);
    let chaos = ConnChaos {
        stalls,
        stall_ms: 40,
        trickles,
        trickle_events: 32,
        ..ConnChaos::flapping(flaps, seed)
    };
    println!(
        "flapdrill: seed {seed}, per conn {flaps} flap(s) + {stalls} stall(s) + \
         {trickles} trickle(s), {connections} connection(s), merge stall budget \
         {merge_stall_ms} ms"
    );

    let (clean_keys, clean_health, _) = wire_session_changes(
        &current_log,
        None,
        connections,
        baseline.clone(),
        stability.clone(),
        &config,
    )?;
    let (drill_keys, drill_health, reports) = wire_session_changes(
        &current_log,
        Some(&chaos),
        connections,
        baseline,
        stability,
        &config,
    )?;
    for r in &reports {
        println!("stats: conn {}", conn_line(r));
    }
    println!(
        "clean:   {} confirmed changes; ingest {clean_health}",
        clean_keys.len()
    );
    println!("stats: ingest {drill_health}");
    report_fidelity(&clean_keys, &drill_keys);
    Ok(())
}

/// One epoch of a drill run, reduced to what recovery fidelity is
/// judged on: the epoch index, an FNV-1a hash of the snapshot's
/// serialized bytes (byte-identity), and its confirmed change keys.
#[derive(Debug, Clone, PartialEq)]
struct EpochTrace {
    epoch: u64,
    hash: u64,
    keys: BTreeSet<String>,
}

impl EpochTrace {
    fn of(snapshot: &EpochSnapshot) -> EpochTrace {
        let bytes = serde::to_vec(snapshot);
        let mut hash: u64 = 0xCBF2_9CE4_8422_2325;
        for b in bytes {
            hash ^= b as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut keys = BTreeSet::new();
        collect_keys(&snapshot.diff, &mut keys);
        EpochTrace {
            epoch: snapshot.epoch,
            hash,
            keys,
        }
    }
}

/// `crashdrill`: run the 320-server capture through the supervised
/// differ twice — once uninterrupted, once with a seeded [`CrashPlan`]
/// killing the process at chosen epochs (checkpoint + restore + replay
/// in between) — and report how faithfully the interrupted run
/// recovered the clean run's per-epoch snapshots.
fn cmd_crashdrill(args: &[String]) -> CliResult {
    let mut seed: u64 = 1;
    let mut kills: usize = 3;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--seed" => seed = it.next().ok_or("--seed needs a number")?.parse()?,
            "--kills" => kills = it.next().ok_or("--kills needs a count")?.parse()?,
            other => return Err(format!("unknown flag: {other}").into()),
        }
    }

    let (baseline_log, mut config) = flowdiff_bench::tree_capture(9, 42, 6);
    let (current_log, _) = flowdiff_bench::tree_capture(9, 43, 6);
    config.max_time_jump_us = config.partial_flow_timeout_us.max(config.episode_gap_us);
    // Short epochs give the short drill capture enough boundaries to
    // kill at; checkpoint at every one so recovery loses nothing.
    config.online_epoch_us = 1_000_000;
    config.online_window_us = 5_000_000;
    config.checkpoint_every_epochs = 1;
    // Each planned kill spends one restart; keep the drill fast.
    config.restart_budget = kills as u32;
    config.restart_backoff_us = 1_000;
    config.validate()?;
    let baseline = BehaviorModel::build(&baseline_log, &config);
    let stability = analyze(&baseline_log, &baseline, &config);
    let events: Vec<ControlEvent> = current_log.events().to_vec();
    println!(
        "drill: seed {seed}, {kills} kill(s) over {} events, \
         checkpoint every {} epoch(s)",
        events.len(),
        config.checkpoint_every_epochs
    );

    // Uninterrupted reference run.
    let fresh = || -> Result<(OnlineDiffer, u64), Box<dyn std::error::Error>> {
        Ok((
            OnlineDiffer::try_new(baseline.clone(), stability.clone(), &config)?,
            0,
        ))
    };
    let mut clean: Vec<EpochTrace> = Vec::new();
    let (clean_last, _, clean_restarts) =
        supervised_run(&events, &fresh, &config, None, None, |snap, _| {
            clean.push(EpochTrace::of(snap))
        })?;
    assert_eq!(clean_restarts, 0, "the clean run must not panic");
    if let Some(snap) = &clean_last {
        clean.push(EpochTrace::of(snap));
    }

    // Interrupted run: seeded kills, checkpoint + restore + replay. The
    // final flush epoch runs outside the supervised region, so kills
    // are drawn from the observe-emitted epochs only.
    let observe_epochs = clean.len().saturating_sub(1) as u64;
    let mut plan = CrashPlan::seeded(seed, kills, observe_epochs);
    println!("plan: kill at epochs {:?}", plan.kill_epochs());
    let ckpt_dir = std::env::temp_dir().join(format!("flowdiff-crashdrill-{}", std::process::id()));
    std::fs::create_dir_all(&ckpt_dir)?;
    let ckpt_path = ckpt_dir.join(format!("drill-{seed}.ckpt"));
    let planned = plan.kill_epochs().len();
    let mut drilled: Vec<EpochTrace> = Vec::new();
    // The drill panics on purpose; keep the default hook's backtrace
    // chatter out of the report.
    let orig_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let outcome = supervised_run(
        &events,
        &fresh,
        &config,
        Some(&ckpt_path),
        Some(&mut plan),
        |snap, _| drilled.push(EpochTrace::of(snap)),
    );
    std::panic::set_hook(orig_hook);
    let (drill_last, _, restarts) = outcome?;
    if let Some(snap) = &drill_last {
        drilled.push(EpochTrace::of(snap));
    }
    println!(
        "drill: {restarts} of {planned} planned kill(s) fired; each restored from the last checkpoint"
    );

    let matched = clean.iter().zip(&drilled).filter(|(a, b)| a == b).count();
    let keys_clean: BTreeSet<&String> = clean.iter().flat_map(|t| &t.keys).collect();
    let keys_drill: BTreeSet<&String> = drilled.iter().flat_map(|t| &t.keys).collect();
    let keys_recovered = keys_clean.intersection(&keys_drill).count();
    let fidelity = if clean.is_empty() {
        1.0
    } else {
        matched as f64 / clean.len() as f64
    };
    println!(
        "recovery: {:.1}% fidelity ({matched}/{} epoch snapshots byte-identical, \
         {keys_recovered}/{} confirmed changes recovered, {restarts} kill(s) survived)",
        fidelity * 100.0,
        clean.len(),
        keys_clean.len()
    );

    // Bonus demonstration: a *lossy* restore (checkpoint loaded, replay
    // skipped) must not flood — the differ holds every signature at
    // Warming until `restore_warmup_us` of log time passes.
    let (mut half, _) = fresh()?;
    let cut = events.len() / 2;
    for event in &events[..cut] {
        half.observe(event);
    }
    let mid_ckpt = Checkpoint::capture(&half, cut as u64, &config).to_bytes();
    let (mut lossy, at) = Checkpoint::from_bytes(&mid_ckpt)?.resume(&config)?;
    lossy.mark_lossy_restore();
    // Skip half the remaining stream instead of replaying it: data loss.
    let tail_start = (at as usize) + (events.len() - at as usize) / 2;
    let mut first_gated: Option<EpochSnapshot> = None;
    for event in &events[tail_start..] {
        for snap in lossy.observe(event) {
            if first_gated.is_none() {
                first_gated = Some(snap);
            }
        }
    }
    if let Some(snap) = first_gated {
        let kinds: Vec<String> = snap
            .suppressed()
            .map(|(k, h)| format!("{k:?}={h}"))
            .collect();
        println!(
            "lossy: resume without replay at epoch {} suppresses {} signature(s): {}",
            snap.epoch,
            kinds.len(),
            kinds.first().cloned().unwrap_or_default()
        );
    }
    let _ = std::fs::remove_dir_all(&ckpt_dir);
    Ok(())
}

/// Name of the capture the throughput benchmark runs on, recorded in
/// its JSON output so trajectory entries are only compared like for
/// like.
const BENCH_CAPTURE: &str = "tree16x20-9apps-6s";

/// Schema tag for [`cmd_hotpathbench`]'s trajectory entries.
const HOTPATH_SCHEMA: &str = "flowdiff.hotpath/1";

/// `hotpathbench`: measure the hot path on the
/// 320-server capture — zero-copy wire decode feeding the incremental
/// online differ — and append one machine-readable entry to the
/// `BENCH_hotpath.json` trajectory: events/s (from pre-decoded events,
/// comparable across entries, and end-to-end from wire bytes), the
/// per-epoch stage averages from [`OnlineDiffer::take_timings`], and
/// the average snapshot cost at 1x and 4x the analysis window (flat
/// when snapshots are deltas, linear when each epoch remodels).
fn cmd_hotpathbench(args: &[String]) -> CliResult {
    let mut out = PathBuf::from("BENCH_hotpath.json");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out" => out = it.next().ok_or("--out needs a path")?.into(),
            other => return Err(format!("unknown flag: {other}").into()),
        }
    }

    let (baseline_log, config) = flowdiff_bench::tree_capture(9, 42, 6);
    let (current_log, _) = flowdiff_bench::tree_capture(9, 43, 6);
    config.validate()?;
    let baseline = BehaviorModel::build(&baseline_log, &config);
    let stability = analyze(&baseline_log, &baseline, &config);
    let wire = bytes::Bytes::from(current_log.to_wire_bytes());
    let events: Vec<ControlEvent> = current_log.events().to_vec();
    println!(
        "hotpathbench: {} events ({} KiB on the wire), capture {BENCH_CAPTURE}",
        events.len(),
        wire.len().div_ceil(1024)
    );

    // Pass 1: observe-only over pre-decoded events. This is the figure
    // the trajectory gates on — it isolates the differ hot path.
    let mut differ = OnlineDiffer::try_new(baseline.clone(), stability.clone(), &config)?;
    let t0 = std::time::Instant::now();
    let mut epochs = 0u64;
    let mut stage_sum = EpochTimings::default();
    for event in &events {
        let snaps = differ.observe(event);
        if !snaps.is_empty() {
            epochs += snaps.len() as u64;
            stage_sum.add(differ.take_timings());
        }
    }
    let _ = differ.finish();
    let events_per_sec = events.len() as f64 / t0.elapsed().as_secs_f64();

    // Pass 2: end to end from wire bytes through the shared-buffer
    // zero-copy decoder — what a deployed tap actually pays.
    let mut differ = OnlineDiffer::try_new(baseline.clone(), stability.clone(), &config)?;
    let t0 = std::time::Instant::now();
    let mut decoded = 0u64;
    for event in LogStream::from_wire_capture(wire.clone())?.flatten() {
        differ.observe(event.as_ref());
        decoded += 1;
    }
    let _ = differ.finish();
    let wire_events_per_sec = decoded as f64 / t0.elapsed().as_secs_f64();

    // Pass 3: snapshot cost vs window size. A remodel-per-epoch design
    // scales with the window; the delta path must stay flat.
    let snapshot_us_at = |mult: u64| -> Result<u64, Box<dyn std::error::Error>> {
        let mut wide = config.clone();
        wide.online_window_us *= mult;
        wide.validate()?;
        let mut differ = OnlineDiffer::try_new(baseline.clone(), stability.clone(), &wide)?;
        let mut sum = EpochTimings::default();
        let mut n = 0u64;
        for event in &events {
            let snaps = differ.observe(event);
            if !snaps.is_empty() {
                n += snaps.len() as u64;
                sum.add(differ.take_timings());
            }
        }
        Ok(sum.snapshot_us / n.max(1))
    };
    let snapshot_us_w1 = snapshot_us_at(1)?;
    let snapshot_us_w4 = snapshot_us_at(4)?;

    let avg = |us: u64| us / epochs.max(1);
    println!(
        "throughput: {events_per_sec:.0} events/s observe-only, {wire_events_per_sec:.0} \
         events/s from wire ({epochs} epochs)"
    );
    println!(
        "latency avg/epoch: retire_us {} observe_us {} snapshot_us {} diff_us {}",
        avg(stage_sum.retire_us),
        avg(stage_sum.observe_us),
        avg(stage_sum.snapshot_us),
        avg(stage_sum.diff_us)
    );
    println!(
        "window scaling: snapshot {snapshot_us_w1} us at 1x window, {snapshot_us_w4} us at 4x"
    );
    let vm_hwm = vm_hwm_kb();
    if let Some(kb) = vm_hwm {
        println!("memory: peak RSS {kb} KiB");
    }

    let entry = format!(
        "{{\"schema\": \"{HOTPATH_SCHEMA}\", \"capture\": \"{BENCH_CAPTURE}\", \
         \"nproc\": {}, \"events\": {}, \"epochs\": {epochs}, \
         \"events_per_sec\": {events_per_sec:.1}, \
         \"wire_events_per_sec\": {wire_events_per_sec:.1}, \
         \"avg_retire_us\": {}, \"avg_observe_us\": {}, \"avg_snapshot_us\": {}, \
         \"avg_diff_us\": {}, \"snapshot_us_window_x1\": {snapshot_us_w1}, \
         \"snapshot_us_window_x4\": {snapshot_us_w4}, \"vm_hwm_kb\": {}}}",
        nproc(),
        events.len(),
        avg(stage_sum.retire_us),
        avg(stage_sum.observe_us),
        avg(stage_sum.snapshot_us),
        avg(stage_sum.diff_us),
        vm_hwm
            .map(|kb| kb.to_string())
            .unwrap_or_else(|| "null".to_string()),
    );
    let appended = append_trajectory(&out, &entry)?;
    println!(
        "hotpathbench: appended entry {appended} to {}",
        out.display()
    );
    Ok(())
}

/// Appends one single-line JSON object to a JSON-array trajectory file
/// (created on first use), keeping every entry on its own line so shell
/// tooling can gate on the latest two with `grep`/`awk`. Returns the
/// new entry count.
fn append_trajectory(path: &Path, entry: &str) -> Result<usize, Box<dyn std::error::Error>> {
    let mut entries: Vec<String> = Vec::new();
    if let Ok(existing) = std::fs::read_to_string(path) {
        for line in existing.lines() {
            let line = line.trim().trim_end_matches(',');
            if line.starts_with('{') {
                entries.push(line.to_string());
            }
        }
    }
    entries.push(entry.to_string());
    let body = entries.join(",\n");
    flowdiff::checkpoint::atomic_write(path, format!("[\n{body}\n]\n").as_bytes())?;
    Ok(entries.len())
}

/// Worker threads available to this process.
fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Peak resident set size of this process in KiB, from
/// `/proc/self/status` (`None` off Linux).
fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|kb| kb.parse().ok())
}

/// Streams capture bytes through an online differ and returns the
/// union over all epochs of confirmed change keys, plus the ingestion
/// health counters. Decode errors are tolerated (the stream
/// resynchronizes); they show up in the health counters.
fn stream_changes(
    bytes: &[u8],
    baseline: BehaviorModel,
    stability: StabilityReport,
    config: &FlowDiffConfig,
) -> Result<(BTreeSet<String>, flowdiff::records::IngestHealth), Box<dyn std::error::Error>> {
    let mut differ = OnlineDiffer::try_new(baseline, stability, config)?;
    let mut keys = BTreeSet::new();
    let mut stream = LogStream::from_wire_bytes(bytes)?;
    // Decode errors are tallied in the stream's own counters.
    for event in stream.by_ref().flatten() {
        for snapshot in differ.observe(event.as_ref()) {
            collect_keys(&snapshot.diff, &mut keys);
        }
    }
    let mut health = *differ.health();
    health.absorb_stream(stream.stats());
    if let Some(snapshot) = differ.finish() {
        collect_keys(&snapshot.diff, &mut keys);
    }
    Ok((keys, health))
}

/// Like [`stream_changes`], but over the wire: deals the capture
/// across `connections` loopback publisher threads (each optionally
/// behind its own seeded [`ChannelChaos`] proxy), ingests through
/// [`IngestServer`], and feeds the `(timestamp, connection)` merge
/// straight into the differ — events are diffed as they arrive, bounded
/// by the per-connection queues. Returns the confirmed-change keys, the
/// health counters (per-connection stream stats absorbed), and the
/// summed ground-truth chaos report.
fn wire_changes(
    log: &ControllerLog,
    chaos: Option<&ChannelChaos>,
    connections: usize,
    baseline: BehaviorModel,
    stability: StabilityReport,
    config: &FlowDiffConfig,
) -> Result<
    (
        BTreeSet<String>,
        flowdiff::records::IngestHealth,
        ChaosReport,
    ),
    Box<dyn std::error::Error>,
> {
    let server = IngestServer::bind("127.0.0.1:0")?;
    let addr = server.local_addr()?;
    let mut live = server.live(
        connections,
        config.ingest_queue_events,
        LiveOptions::default(),
    )?;
    let mut publishers = Vec::new();
    for (i, part) in split_capture(log, connections).into_iter().enumerate() {
        let chaos = chaos.cloned().map(|mut c| {
            c.seed = c.seed.wrapping_add(i as u64);
            c
        });
        publishers.push(std::thread::spawn(move || {
            publish_capture(addr, &part, chaos.as_ref())
        }));
    }
    let (keys, mut health) = drain_merge(live.take_merge(), baseline, stability, config)?;
    for r in live.finish() {
        health.absorb_stream(r.stats);
        health.absorb_conn(r.stalls, r.disconnects, r.resumes);
    }
    let mut mangled = ChaosReport::default();
    for publisher in publishers {
        let sent = publisher
            .join()
            .expect("publisher thread must not panic")
            .map_err(|e| format!("publish: {e}"))?;
        if let Some(c) = sent.chaos {
            mangled.total_frames += c.total_frames;
            mangled.dropped += c.dropped;
            mangled.duplicated += c.duplicated;
            mangled.truncated += c.truncated;
            mangled.bit_flipped += c.bit_flipped;
            mangled.reordered += c.reordered;
        }
    }
    Ok((keys, health, mangled))
}

/// Drains a live merge through a fresh differ and returns the union of
/// confirmed change keys plus the differ's health.
fn drain_merge(
    merge: EventMerge,
    baseline: BehaviorModel,
    stability: StabilityReport,
    config: &FlowDiffConfig,
) -> Result<(BTreeSet<String>, flowdiff::records::IngestHealth), Box<dyn std::error::Error>> {
    let mut differ = OnlineDiffer::try_new(baseline, stability, config)?;
    let mut keys = BTreeSet::new();
    for event in merge {
        for snapshot in differ.observe(&event) {
            collect_keys(&snapshot.diff, &mut keys);
        }
    }
    let health = *differ.health();
    if let Some(snapshot) = differ.finish() {
        collect_keys(&snapshot.diff, &mut keys);
    }
    Ok((keys, health))
}

/// Like [`wire_changes`], but with **session** publishers — resumable
/// streams with bounded retry — each optionally behind a seeded
/// [`ConnChaos`] connection-fault plan (mid-stream disconnects that
/// resume from the server's watermark, write stalls, slow-loris
/// trickle). Returns the confirmed-change keys, the folded health, and
/// the per-stream connection reports.
#[allow(clippy::type_complexity)]
fn wire_session_changes(
    log: &ControllerLog,
    chaos: Option<&ConnChaos>,
    connections: usize,
    baseline: BehaviorModel,
    stability: StabilityReport,
    config: &FlowDiffConfig,
) -> Result<
    (
        BTreeSet<String>,
        flowdiff::records::IngestHealth,
        Vec<netsim::net::ConnReport>,
    ),
    Box<dyn std::error::Error>,
> {
    let server = IngestServer::bind("127.0.0.1:0")?;
    let addr = server.local_addr()?;
    let mut live = server.live(
        connections,
        config.ingest_queue_events,
        LiveOptions {
            stall_timeout_us: config.ingest_stall_timeout_us,
            heartbeat_us: config.ingest_heartbeat_us,
        },
    )?;
    let mut publishers = Vec::new();
    for (i, part) in split_capture(log, connections).into_iter().enumerate() {
        let opts = SessionOptions {
            session: 0xF1A9_0000 + i as u64,
            retry_budget: config.publish_retry_budget.max(2),
            backoff_us: config.publish_backoff_us,
            plan: chaos.map(|c| c.plan_for(i as u64, part.len() as u64)),
        };
        publishers.push(std::thread::spawn(move || {
            publish_session(addr, &part, &opts)
        }));
    }
    let (keys, mut health) = drain_merge(live.take_merge(), baseline, stability, config)?;
    let reports = live.finish();
    for r in &reports {
        health.absorb_stream(r.stats);
        health.absorb_conn(r.stalls, r.disconnects, r.resumes);
    }
    for publisher in publishers {
        publisher
            .join()
            .expect("publisher thread must not panic")
            .map_err(|e| format!("publish: {e}"))?;
    }
    Ok((keys, health, reports))
}

/// Prints a drill's `fidelity:` line: recall is the share of the clean
/// run's confirmed changes the drill also reported, precision the share
/// of the drill's reported changes the clean run confirmed. Lost and
/// spurious counts make both sides of the error visible.
fn report_fidelity(clean: &BTreeSet<String>, drill: &BTreeSet<String>) {
    let recovered = clean.intersection(drill).count();
    let pct = |part: usize, whole: usize| {
        if whole == 0 {
            100.0
        } else {
            part as f64 * 100.0 / whole as f64
        }
    };
    println!(
        "fidelity: recall {:.1}% precision {:.1}% ({recovered}/{} confirmed changes \
         recovered, {} lost; {} spurious of {} reported)",
        pct(recovered, clean.len()),
        pct(recovered, drill.len()),
        clean.len(),
        clean.len() - recovered,
        drill.len() - recovered,
        drill.len()
    );
}

/// Keys a diff's changes by signature, direction, and implicated
/// components — stable identifiers that survive magnitude jitter.
fn collect_keys(diff: &ModelDiff, keys: &mut BTreeSet<String>) {
    for change in diff
        .group_diffs
        .iter()
        .flat_map(|g| g.changes.iter())
        .chain(diff.infra.iter())
    {
        keys.insert(format!(
            "{:?} {:?} {:?}",
            change.kind, change.direction, change.components
        ));
    }
}

/// The body of one `stats: conn` line: lifetime accounting for a
/// logical ingest stream, final state and disconnect cause included.
fn conn_line(r: &netsim::net::ConnReport) -> String {
    let peer = r
        .peer
        .map(|p| p.to_string())
        .unwrap_or_else(|| "-".to_string());
    let session = r
        .session
        .map(|s| format!(" session {s:#x}"))
        .unwrap_or_default();
    let cause = r
        .cause
        .map(|c| c.to_string())
        .unwrap_or_else(|| "never connected".to_string());
    format!(
        "{} {peer}{session} handshake {}, {} bytes, {} events, \
         {} skipped frame(s) ({} bytes), state {} ({cause}), \
         {} connect(s), {} resume(s), {} stall(s), {} drop(s)",
        r.index,
        if r.handshake_ok { "ok" } else { "FAILED" },
        r.bytes_read,
        r.events,
        r.stats.frames_skipped,
        r.stats.bytes_skipped,
        r.state,
        r.connects,
        r.resumes,
        r.stalls,
        r.disconnects
    )
}

/// One per-epoch latency breakdown line. Deliberately NOT prefixed
/// `epoch ` — wall-clock differs between runs, and CI diffs the
/// `epoch ` lines of served vs file-based runs byte-for-byte.
fn report_latency(epoch: u64, timings: EpochTimings) {
    println!(
        "latency epoch {epoch:>3}  retire_us {} observe_us {} snapshot_us {} diff_us {}",
        timings.retire_us, timings.observe_us, timings.snapshot_us, timings.diff_us
    );
}

/// One status line per epoch snapshot.
fn report(snapshot: &EpochSnapshot, config: &FlowDiffConfig) {
    let diagnosis = snapshot.diagnose(&[], config);
    let changes = snapshot
        .diff
        .group_diffs
        .iter()
        .map(|g| g.changes.len())
        .sum::<usize>()
        + snapshot.diff.infra.len()
        + snapshot.diff.new_groups.len()
        + snapshot.diff.missing_groups.len();
    let gated = snapshot.suppressed().count();
    let mut verdict = if diagnosis.is_healthy() {
        "healthy".to_string()
    } else {
        let problems = diagnosis
            .problems
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join("; ");
        let suspects = diagnosis
            .ranking
            .iter()
            .take(3)
            .map(|(c, n)| format!("{c}({n})"))
            .collect::<Vec<_>>()
            .join(" ");
        format!("ALARM [{problems}] suspects: {suspects}")
    };
    if gated > 0 {
        let sample = snapshot
            .suppressed()
            .next()
            .map(|(k, h)| format!("{k:?} {h}"))
            .unwrap_or_default();
        verdict.push_str(&format!("  ({gated} signature(s) suppressed: {sample})"));
    }
    println!(
        "epoch {:>3}  [{:>7.1}s .. {:>7.1}s]  {:>5} flows  {:>3} changes  {}",
        snapshot.epoch,
        snapshot.window.0.as_secs_f64(),
        snapshot.window.1.as_secs_f64(),
        snapshot.records,
        changes,
        verdict
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("flowdiff-bench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn watch_rejects_future_version_baseline_bundle() {
        // A bundle stamped with a version this build cannot read must be
        // refused before any diffing, not decoded on faith.
        let config = FlowDiffConfig::default();
        let log = ControllerLog::new();
        let model = BehaviorModel::build(&log, &config);
        let bundle = BaselineBundle {
            model,
            stability: StabilityReport::all_stable(&BehaviorModel::build(&log, &config)),
        };
        let mut bytes = bundle.to_bytes();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        let path = tmp("future-version.fbas");
        std::fs::write(&path, &bytes).unwrap();
        let err = load_baseline(path.to_str().unwrap(), &config).unwrap_err();
        assert!(
            err.to_string().contains("unsupported format version 99"),
            "got: {err}"
        );
    }

    #[test]
    fn watch_rejects_checkpoint_offered_as_baseline() {
        let config = FlowDiffConfig::default();
        let log = ControllerLog::new();
        let model = BehaviorModel::build(&log, &config);
        let stability = StabilityReport::all_stable(&model);
        let differ = OnlineDiffer::try_new(model, stability, &config).unwrap();
        let path = tmp("not-a-baseline.ckpt");
        Checkpoint::capture(&differ, 0, &config)
            .save(&path)
            .unwrap();
        let err = load_baseline(path.to_str().unwrap(), &config).unwrap_err();
        assert!(err.to_string().contains("checkpoint"), "got: {err}");
    }

    #[test]
    fn watch_rejects_corrupt_baseline_bundle() {
        let config = FlowDiffConfig::default();
        let log = ControllerLog::new();
        let model = BehaviorModel::build(&log, &config);
        let stability = StabilityReport::all_stable(&model);
        let bundle = BaselineBundle { model, stability };
        let mut bytes = bundle.to_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let path = tmp("corrupt.fbas");
        std::fs::write(&path, &bytes).unwrap();
        let err = load_baseline(path.to_str().unwrap(), &config).unwrap_err();
        assert!(err.to_string().contains("CRC mismatch"), "got: {err}");
        // Truncation is caught too.
        std::fs::write(&path, &bundle.to_bytes()[..16]).unwrap();
        let err = load_baseline(path.to_str().unwrap(), &config).unwrap_err();
        assert!(err.to_string().contains("truncated"), "got: {err}");
    }

    #[test]
    fn supervised_run_survives_planned_kills_byte_identically() {
        // Tiny end-to-end drill: a lab-scale capture, two planned kills,
        // recovery must reproduce the uninterrupted epochs exactly.
        let (log, mut config) = flowdiff_bench::tree_capture(2, 7, 4);
        config.online_epoch_us = 1_000_000;
        config.online_window_us = 5_000_000;
        config.checkpoint_every_epochs = 1;
        config.restart_budget = 2;
        config.restart_backoff_us = 1_000;
        let baseline = BehaviorModel::build(&log, &config);
        let stability = analyze(&log, &baseline, &config);
        let (current, _) = flowdiff_bench::tree_capture(2, 8, 4);
        let events: Vec<ControlEvent> = current.events().to_vec();
        let fresh = || -> Result<(OnlineDiffer, u64), Box<dyn std::error::Error>> {
            Ok((
                OnlineDiffer::try_new(baseline.clone(), stability.clone(), &config)?,
                0,
            ))
        };
        let mut clean = Vec::new();
        let (clean_last, _, r) = supervised_run(&events, &fresh, &config, None, None, |s, _| {
            clean.push(EpochTrace::of(s))
        })
        .unwrap();
        assert_eq!(r, 0);
        clean.extend(clean_last.as_ref().map(EpochTrace::of));
        assert!(clean.len() >= 3, "drill needs epochs to kill at");

        let mut plan = CrashPlan::seeded(11, 2, clean.len() as u64 - 1);
        let kills = plan.kill_epochs().len();
        let path = tmp("supervised.ckpt");
        let _ = std::fs::remove_file(&path);
        let mut drilled = Vec::new();
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcome = supervised_run(
            &events,
            &fresh,
            &config,
            Some(&path),
            Some(&mut plan),
            |s, _| drilled.push(EpochTrace::of(s)),
        );
        std::panic::set_hook(hook);
        let (drill_last, _, restarts) = outcome.unwrap();
        drilled.extend(drill_last.as_ref().map(EpochTrace::of));
        assert_eq!(restarts as usize, kills, "every planned kill fired");
        assert_eq!(plan.remaining(), 0);
        assert_eq!(clean, drilled, "recovered run == uninterrupted run");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn supervised_run_fails_fast_when_budget_exhausted() {
        let (log, mut config) = flowdiff_bench::tree_capture(2, 7, 3);
        config.online_epoch_us = 1_000_000;
        config.online_window_us = 5_000_000;
        config.checkpoint_every_epochs = 1;
        config.restart_budget = 0;
        config.restart_backoff_us = 1_000;
        let baseline = BehaviorModel::build(&log, &config);
        let stability = StabilityReport::all_stable(&baseline);
        let events: Vec<ControlEvent> = log.events().to_vec();
        let fresh = || -> Result<(OnlineDiffer, u64), Box<dyn std::error::Error>> {
            Ok((
                OnlineDiffer::try_new(baseline.clone(), stability.clone(), &config)?,
                0,
            ))
        };
        let mut plan = CrashPlan::seeded(3, 1, 3);
        assert!(!plan.kill_epochs().is_empty());
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let outcome = supervised_run(&events, &fresh, &config, None, Some(&mut plan), |_, _| {});
        std::panic::set_hook(hook);
        let err = outcome.unwrap_err();
        assert!(
            err.to_string().contains("restart budget exhausted"),
            "got: {err}"
        );
    }
}
