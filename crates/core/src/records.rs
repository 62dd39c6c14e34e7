//! Flow record extraction from the controller log.
//!
//! FlowDiff's signatures are built not from raw control messages but from
//! *flow records*: one record per flow episode, collecting the flow's
//! 5-tuple, the time-ordered `PacketIn` reports from every switch on its
//! path, the `FlowMod` replies, and the final counters from
//! `FlowRemoved`.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::net::Ipv4Addr;

use netsim::log::{ControlEvent, ControllerLog};
use openflow::frame;
use openflow::messages::OfpMessage;
use openflow::types::{DatapathId, IpProto, PortNo, Timestamp, Xid};
use serde::{Deserialize, Serialize};

use crate::config::FlowDiffConfig;

/// One countable irregularity in the control-event stream.
///
/// These are the event-level counterparts of the frame-level
/// [`netsim::log::DecodeError`]: the frame decoded fine, but the event
/// doesn't fit the protocol conversation the assembler expects. None of
/// them stop ingestion — the assembler counts the anomaly in its
/// [`IngestHealth`] and continues.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestAnomaly {
    /// An event arrived with a timestamp earlier than an already-seen
    /// event (reordered capture or clock skew between taps).
    OutOfOrder,
    /// A second `FlowMod` reused an in-flight xid; the first one wins.
    DuplicateXid,
    /// A `FlowMod` whose xid never matched any `PacketIn` before it
    /// aged out.
    OrphanFlowMod,
    /// A `FlowRemoved` for a tuple with no open episode started before
    /// it.
    OrphanFlowRemoved,
    /// A `FlowMod` reply that arrived after its episode was already
    /// evicted past `partial_flow_timeout_us`.
    StaleAttach,
    /// An event whose timestamp jumped further beyond everything seen
    /// so far than `max_time_jump_us` allows (a corrupt clock reading);
    /// the event was dropped.
    TimeJump,
}

/// Ingestion health counters: how much of the input decoded cleanly and
/// what kinds of protocol irregularities were tolerated along the way.
///
/// The frame-level counters are filled from
/// [`netsim::log::StreamStats`] via [`IngestHealth::absorb_stream`];
/// the event-level counters accumulate inside [`RecordAssembler`]. On a
/// clean, time-sorted capture every field is zero except
/// `frames_decoded`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct IngestHealth {
    /// Wire frames decoded into events.
    pub frames_decoded: u64,
    /// Corrupt wire regions skipped during resynchronization.
    pub frames_skipped: u64,
    /// Bytes discarded while resynchronizing.
    pub bytes_skipped: u64,
    /// Events that arrived out of time order.
    pub events_reordered: u64,
    /// Episodes evicted (emitted early) after idling past the horizon.
    pub episodes_evicted: u64,
    /// `FlowMod`s rejected for reusing an in-flight xid.
    pub duplicate_xids: u64,
    /// `FlowMod`s that never matched a `PacketIn`.
    pub orphan_flow_mods: u64,
    /// `FlowRemoved`s with no open episode to attach to.
    pub orphan_flow_removeds: u64,
    /// `FlowMod` replies that arrived after their episode was evicted.
    pub stale_attaches: u64,
    /// Events dropped for an implausible forward timestamp jump.
    pub time_jumps: u64,
    /// Publisher streams waived past the ingest stall budget (live
    /// transport only; see [`IngestHealth::absorb_conn`]).
    pub conn_stalls: u64,
    /// Abrupt publisher connection losses (resets, idle-timeout kills —
    /// not clean EOFs).
    pub conn_disconnects: u64,
    /// Publisher reconnects that resumed a session mid-stream.
    pub conn_resumes: u64,
}

impl IngestHealth {
    /// Counts one anomaly.
    pub fn record(&mut self, anomaly: IngestAnomaly) {
        match anomaly {
            IngestAnomaly::OutOfOrder => self.events_reordered += 1,
            IngestAnomaly::DuplicateXid => self.duplicate_xids += 1,
            IngestAnomaly::OrphanFlowMod => self.orphan_flow_mods += 1,
            IngestAnomaly::OrphanFlowRemoved => self.orphan_flow_removeds += 1,
            IngestAnomaly::StaleAttach => self.stale_attaches += 1,
            IngestAnomaly::TimeJump => self.time_jumps += 1,
        }
    }

    /// Folds a [`LogStream`](netsim::log::LogStream)'s frame counters
    /// into the health picture.
    pub fn absorb_stream(&mut self, stats: netsim::log::StreamStats) {
        self.frames_decoded += stats.frames_decoded;
        self.frames_skipped += stats.frames_skipped;
        self.bytes_skipped += stats.bytes_skipped;
    }

    /// Folds one live connection's lifecycle counters (stall waivers,
    /// abrupt losses, resumed reconnects) into the health picture. A
    /// clean wire run — or a file run, which has no connections —
    /// contributes zeros, so served and file health stay comparable.
    pub fn absorb_conn(&mut self, stalls: u64, disconnects: u64, resumes: u64) {
        self.conn_stalls += stalls;
        self.conn_disconnects += disconnects;
        self.conn_resumes += resumes;
    }

    /// Total event-level anomalies (excludes frame skips and episode
    /// evictions, which are reported separately).
    pub fn anomalies(&self) -> u64 {
        self.events_reordered
            + self.duplicate_xids
            + self.orphan_flow_mods
            + self.orphan_flow_removeds
            + self.stale_attaches
            + self.time_jumps
    }
}

impl fmt::Display for IngestHealth {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} frames decoded, {} skipped ({} B); {} reordered, \
             {} dup xids, {} orphan mods, {} orphan removals, \
             {} stale attaches, {} time jumps; {} episodes evicted",
            self.frames_decoded,
            self.frames_skipped,
            self.bytes_skipped,
            self.events_reordered,
            self.duplicate_xids,
            self.orphan_flow_mods,
            self.orphan_flow_removeds,
            self.stale_attaches,
            self.time_jumps,
            self.episodes_evicted,
        )?;
        if self.conn_stalls + self.conn_disconnects + self.conn_resumes > 0 {
            write!(
                f,
                "; {} conn stalls, {} conn drops, {} resumes",
                self.conn_stalls, self.conn_disconnects, self.conn_resumes,
            )?;
        }
        Ok(())
    }
}

/// A transport 5-tuple identifying a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct FlowTuple {
    /// Source IP.
    pub src: Ipv4Addr,
    /// Source port.
    pub sport: u16,
    /// Destination IP.
    pub dst: Ipv4Addr,
    /// Destination port.
    pub dport: u16,
    /// IP protocol.
    pub proto: IpProto,
}

impl FlowTuple {
    /// Extracts the 5-tuple from a parsed flow key.
    pub fn from_key(key: &openflow::match_fields::FlowKey) -> FlowTuple {
        FlowTuple {
            src: key.nw_src,
            sport: key.tp_src,
            dst: key.nw_dst,
            dport: key.tp_dst,
            proto: key.nw_proto,
        }
    }
}

impl fmt::Display for FlowTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {}:{} -> {}:{}",
            self.proto, self.src, self.sport, self.dst, self.dport
        )
    }
}

/// One `PacketIn` report for a flow, at one switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HopReport {
    /// Controller-side arrival time of the `PacketIn`.
    pub ts: Timestamp,
    /// Reporting switch.
    pub dpid: DatapathId,
    /// Ingress port at that switch.
    pub in_port: PortNo,
    /// Transaction id (pairs the `FlowMod` reply).
    pub xid: Xid,
    /// Send time of the paired `FlowMod`, when seen.
    pub flow_mod_ts: Option<Timestamp>,
    /// Egress port installed by the paired `FlowMod`, when seen.
    pub out_port: Option<PortNo>,
}

/// One flow episode: a 5-tuple's appearance in the network, from its
/// first `PacketIn` to its `FlowRemoved` counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowRecord {
    /// The flow's 5-tuple.
    pub tuple: FlowTuple,
    /// First `PacketIn` timestamp (the flow's appearance time).
    pub first_seen: Timestamp,
    /// `PacketIn`/`FlowMod` reports in time order, one per on-path switch.
    pub hops: Vec<HopReport>,
    /// Final byte count (max over per-switch `FlowRemoved`s).
    pub byte_count: u64,
    /// Final packet count.
    pub packet_count: u64,
    /// Flow-entry lifetime in seconds (from `FlowRemoved`).
    pub duration_s: f64,
}

impl FlowRecord {
    /// The dpid sequence of the flow's path, in traversal order.
    pub fn switch_path(&self) -> Vec<DatapathId> {
        self.hops.iter().map(|h| h.dpid).collect()
    }
}

/// Extracts flow records from a controller log.
///
/// Recurring 5-tuples are split into episodes when consecutive
/// `PacketIn`s are separated by more than `config.episode_gap_us`.
/// `FlowRemoved` counters attach to the latest episode that started
/// before them.
///
/// This is a thin wrapper over [`RecordAssembler`]: the whole log is
/// fed through the streaming state machine one event at a time. The
/// batch and streaming paths are one implementation.
pub fn extract_records(log: &ControllerLog, config: &FlowDiffConfig) -> Vec<FlowRecord> {
    let mut asm = RecordAssembler::new(config);
    for ev in log.events() {
        asm.observe(ev);
    }
    // A materialized log is time-sorted (`ControllerLog::finish`), so
    // any out-of-order count here means the assembler miscounted — a
    // bug, not bad input. (Other anomaly kinds are legitimate even in
    // sorted logs: xid collisions, orphan removals, and the like.)
    debug_assert_eq!(
        asm.health().events_reordered,
        0,
        "sorted log must never count out-of-order events"
    );
    asm.finish()
}

/// One in-flight flow episode inside the assembler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct OpenEpisode {
    /// Creation sequence number; pairs pending `FlowMod` patches with
    /// the episode they belong to even after sibling episodes close.
    seq: u64,
    record: FlowRecord,
    /// Latest event timestamp that touched this episode (hop, `FlowMod`
    /// patch, or `FlowRemoved`); drives idle eviction.
    last_activity: Timestamp,
}

/// Location of a hop that is still waiting for its `FlowMod` reply.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct PendingHop {
    tuple: FlowTuple,
    seq: u64,
    hop_idx: usize,
    registered: Timestamp,
}

/// Streaming flow-record assembly: a state machine that consumes
/// control events one at a time and emits completed [`FlowRecord`]s
/// with bounded memory.
///
/// The assembler tracks three kinds of in-flight state, each evicted
/// once it falls idle past the horizon (`partial_flow_timeout_us`
/// clamped to at least `episode_gap_us`):
///
/// - **open episodes** — flows whose `PacketIn` hops are still
///   accumulating; evicted episodes are *emitted* (not dropped), so no
///   flow is ever lost,
/// - **seen `FlowMod`s** — xid → (send ts, installed output port),
///   first reply wins, consulted by `PacketIn`s arriving after the mod,
/// - **pending hops** — hops whose `FlowMod` has not arrived yet,
///   patched in place when it does.
///
/// Input events should be in non-decreasing time order (a
/// [`ControllerLog`] guarantees this); disordered input is *tolerated* —
/// counted in [`IngestHealth::events_reordered`] and, when
/// `reorder_slack_us > 0`, re-sequenced through a bounded buffer before
/// assembly. The result is identical to the historical whole-log
/// extraction as long as every event pairing with a flow arrives within
/// the horizon of the flow's last activity; a `FlowMod` or `FlowRemoved`
/// straggling in later than that no longer attaches. Because the
/// horizon is at least the episode gap, eviction can never merge two
/// episodes the batch extractor would split.
///
/// The assembler is the first of the three pieces of streaming state a
/// [`checkpoint`](crate::checkpoint) must capture, so the whole struct
/// — in-flight episodes, xid bookkeeping, the reorder buffer, health
/// counters — serializes; a deserialized assembler continues exactly
/// where the original stopped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordAssembler {
    episode_gap_us: u64,
    horizon_us: u64,
    /// Events within this much of the newest arrival are re-sequenced
    /// before assembly; `0` disables buffering entirely (zero-cost
    /// passthrough).
    reorder_slack_us: u64,
    /// Events jumping further than this beyond `max_arrival` are
    /// dropped as corrupt clock readings; `0` disables the check.
    max_time_jump_us: u64,
    /// xid -> first FlowMod seen for it; first wins.
    seen_mods: HashMap<Xid, SeenMod>,
    /// xid -> hops still waiting for that FlowMod.
    pending_mods: HashMap<Xid, Vec<PendingHop>>,
    /// Open episodes per tuple, oldest first. A flat hash map: every
    /// consumer of whole-state iteration (`finish`, the snapshot path)
    /// sorts by `(first_seen, tuple)` afterwards, so map order never
    /// reaches an output.
    open: HashMap<FlowTuple, Vec<OpenEpisode>>,
    next_seq: u64,
    completed: Vec<FlowRecord>,
    now: Timestamp,
    last_prune: Timestamp,
    /// Newest *arrival* timestamp (as opposed to `now`, the newest
    /// *processed* timestamp); drives out-of-order detection and the
    /// reorder buffer's release watermark.
    max_arrival: Timestamp,
    /// Held-back events awaiting re-sequencing, keyed by
    /// `(ts, arrival_seq)` so simultaneous events keep arrival order.
    /// Empty whenever `reorder_slack_us == 0`.
    reorder_buf: BTreeMap<(Timestamp, u64), ControlEvent>,
    arrival_seq: u64,
    health: IngestHealth,
}

/// The first `FlowMod` seen for an xid.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
struct SeenMod {
    ts: Timestamp,
    out: Option<PortNo>,
    /// True once the mod matched at least one `PacketIn` hop; entries
    /// pruned without ever matching count as orphan FlowMods.
    used: bool,
}

impl RecordAssembler {
    /// New assembler using `config.episode_gap_us`,
    /// `config.partial_flow_timeout_us`, and `config.reorder_slack_us`.
    pub fn new(config: &FlowDiffConfig) -> RecordAssembler {
        RecordAssembler {
            episode_gap_us: config.episode_gap_us,
            horizon_us: config.partial_flow_timeout_us.max(config.episode_gap_us),
            reorder_slack_us: config.reorder_slack_us,
            max_time_jump_us: config.max_time_jump_us,
            seen_mods: HashMap::new(),
            pending_mods: HashMap::new(),
            open: HashMap::new(),
            next_seq: 0,
            completed: Vec::new(),
            now: Timestamp::ZERO,
            last_prune: Timestamp::ZERO,
            max_arrival: Timestamp::ZERO,
            reorder_buf: BTreeMap::new(),
            arrival_seq: 0,
            health: IngestHealth::default(),
        }
    }

    /// Ingestion health counters accumulated so far (event-level only;
    /// callers streaming from wire bytes fold in their
    /// [`LogStream`](netsim::log::LogStream) stats via
    /// [`IngestHealth::absorb_stream`]).
    pub fn health(&self) -> &IngestHealth {
        &self.health
    }

    /// Newest arrival timestamp seen so far (`Timestamp::ZERO` before
    /// the first event) — the assembler's notion of "now" on the
    /// arrival clock, used by restore-time bookkeeping.
    pub fn max_arrival(&self) -> Timestamp {
        self.max_arrival
    }

    /// True when `observe` would drop an event at `ts` as a corrupt
    /// clock reading (see `max_time_jump_us`). Callers that schedule
    /// work off event timestamps — the `OnlineDiffer`'s epoch clock —
    /// consult this *before* trusting the timestamp.
    pub fn quarantines(&self, ts: Timestamp) -> bool {
        self.max_time_jump_us > 0
            && ts
                .checked_since(self.max_arrival)
                .is_some_and(|jump| jump > self.max_time_jump_us)
    }

    /// Feeds one control event in, returning `false` when the event was
    /// quarantined (dropped for an implausible timestamp) instead of
    /// assembled. With `reorder_slack_us == 0` an admitted event goes
    /// straight through the state machine; otherwise it is held in the
    /// reorder buffer until the arrival watermark moves
    /// `reorder_slack_us` past its timestamp, so slightly disordered
    /// input is assembled in time order.
    pub fn observe(&mut self, ev: &ControlEvent) -> bool {
        if self.quarantines(ev.ts) {
            self.health.record(IngestAnomaly::TimeJump);
            return false;
        }
        if ev.ts < self.max_arrival {
            self.health.record(IngestAnomaly::OutOfOrder);
        } else {
            self.max_arrival = ev.ts;
        }
        if self.reorder_slack_us == 0 {
            self.process(ev);
            return true;
        }
        // Even a too-late event goes through the buffer: it is below
        // the release watermark, so it flushes right back out in this
        // call, sequenced as well as possible against its peers.
        self.reorder_buf
            .insert((ev.ts, self.arrival_seq), ev.clone());
        self.arrival_seq += 1;
        let release = Timestamp::from_micros(
            self.max_arrival
                .as_micros()
                .saturating_sub(self.reorder_slack_us),
        );
        while let Some(entry) = self.reorder_buf.first_entry() {
            if entry.key().0 > release {
                break;
            }
            let buffered = entry.remove();
            self.process(&buffered);
        }
        true
    }

    /// Runs one event through the assembly state machine (post
    /// re-sequencing).
    fn process(&mut self, ev: &ControlEvent) {
        if ev.ts > self.now {
            self.now = ev.ts;
        }
        match &ev.msg {
            OfpMessage::PacketIn(pi) => {
                let Ok(key) = frame::parse_frame(&pi.data) else {
                    return; // unparseable capture: skip, never fail
                };
                let tuple = FlowTuple::from_key(&key);
                self.on_packet_in(ev.ts, ev.dpid, ev.xid, pi.in_port, tuple);
            }
            OfpMessage::FlowMod(fm) => {
                let out = openflow::actions::first_output(&fm.actions);
                self.on_flow_mod(ev.ts, ev.xid, out);
            }
            OfpMessage::FlowRemoved(fr) => {
                let m = &fr.match_;
                let tuple = FlowTuple {
                    src: m.nw_src,
                    sport: m.tp_src,
                    dst: m.nw_dst,
                    dport: m.tp_dst,
                    proto: m.nw_proto,
                };
                self.on_flow_removed(
                    ev.ts,
                    tuple,
                    fr.byte_count,
                    fr.packet_count,
                    fr.duration_secs_f64(),
                );
            }
            _ => {}
        }
        if self.now.saturating_since(self.last_prune) > self.horizon_us {
            self.prune();
            self.last_prune = self.now;
        }
    }

    fn on_packet_in(
        &mut self,
        ts: Timestamp,
        dpid: DatapathId,
        xid: Xid,
        in_port: PortNo,
        tuple: FlowTuple,
    ) {
        let (fm_ts, out_port) = match self.seen_mods.get_mut(&xid) {
            Some(sm) => {
                sm.used = true;
                (Some(sm.ts), sm.out)
            }
            None => (None, None),
        };
        let hop = HopReport {
            ts,
            dpid,
            in_port,
            xid,
            flow_mod_ts: fm_ts,
            out_port,
        };
        let episodes = self.open.entry(tuple).or_default();
        let start_new = match episodes.last() {
            Some(ep) => {
                let last_ts = ep.record.hops.last().map_or(ep.record.first_seen, |h| h.ts);
                ts.saturating_since(last_ts) > self.episode_gap_us
            }
            None => true,
        };
        let (seq, hop_idx);
        if start_new {
            seq = self.next_seq;
            self.next_seq += 1;
            hop_idx = 0;
            episodes.push(OpenEpisode {
                seq,
                record: FlowRecord {
                    tuple,
                    first_seen: ts,
                    hops: vec![hop],
                    byte_count: 0,
                    packet_count: 0,
                    duration_s: 0.0,
                },
                last_activity: ts,
            });
        } else {
            let ep = episodes.last_mut().expect("just checked");
            ep.record.hops.push(hop);
            if ts > ep.last_activity {
                ep.last_activity = ts;
            }
            seq = ep.seq;
            hop_idx = ep.record.hops.len() - 1;
        }
        if fm_ts.is_none() {
            self.pending_mods.entry(xid).or_default().push(PendingHop {
                tuple,
                seq,
                hop_idx,
                registered: ts,
            });
        }
    }

    fn on_flow_mod(&mut self, ts: Timestamp, xid: Xid, out: Option<PortNo>) {
        use std::collections::hash_map::Entry;
        // First FlowMod per xid wins, matching the batch pre-scan.
        let Entry::Vacant(slot) = self.seen_mods.entry(xid) else {
            self.health.record(IngestAnomaly::DuplicateXid);
            return;
        };
        slot.insert(SeenMod {
            ts,
            out,
            used: false,
        });
        let Some(waiting) = self.pending_mods.remove(&xid) else {
            return;
        };
        // The xid matched real hops (even if some were since evicted):
        // this mod is not an orphan.
        if let Some(sm) = self.seen_mods.get_mut(&xid) {
            sm.used = true;
        }
        for p in waiting {
            let Some(episodes) = self.open.get_mut(&p.tuple) else {
                // episode already evicted: tolerated straggler
                self.health.record(IngestAnomaly::StaleAttach);
                continue;
            };
            let Some(ep) = episodes.iter_mut().find(|e| e.seq == p.seq) else {
                self.health.record(IngestAnomaly::StaleAttach);
                continue;
            };
            if let Some(h) = ep.record.hops.get_mut(p.hop_idx) {
                h.flow_mod_ts = Some(ts);
                h.out_port = out;
            }
            if ts > ep.last_activity {
                ep.last_activity = ts;
            }
        }
    }

    fn on_flow_removed(
        &mut self,
        ts: Timestamp,
        tuple: FlowTuple,
        byte_count: u64,
        packet_count: u64,
        duration_s: f64,
    ) {
        // Attach to the latest episode started before the removal;
        // counters merge with max over per-switch FlowRemoveds.
        let Some(episodes) = self.open.get_mut(&tuple) else {
            self.health.record(IngestAnomaly::OrphanFlowRemoved);
            return;
        };
        let Some(ep) = episodes
            .iter_mut()
            .rev()
            .find(|ep| ep.record.first_seen <= ts)
        else {
            self.health.record(IngestAnomaly::OrphanFlowRemoved);
            return;
        };
        ep.record.byte_count = ep.record.byte_count.max(byte_count);
        ep.record.packet_count = ep.record.packet_count.max(packet_count);
        ep.record.duration_s = ep.record.duration_s.max(duration_s);
        if ts > ep.last_activity {
            ep.last_activity = ts;
        }
    }

    /// Evicts state idle past the horizon. Idle episodes are *emitted*
    /// into the completed set; stale xid bookkeeping is dropped.
    fn prune(&mut self) {
        let now = self.now;
        let horizon = self.horizon_us;
        let mut evicted: Vec<FlowRecord> = Vec::new();
        self.open.retain(|_, episodes| {
            let mut i = 0;
            while i < episodes.len() {
                if now.saturating_since(episodes[i].last_activity) > horizon {
                    evicted.push(episodes.remove(i).record);
                } else {
                    i += 1;
                }
            }
            !episodes.is_empty()
        });
        self.health.episodes_evicted += evicted.len() as u64;
        self.completed.extend(evicted);
        let mut orphaned = 0u64;
        self.seen_mods.retain(|_, sm| {
            let keep = now.saturating_since(sm.ts) <= horizon;
            if !keep && !sm.used {
                orphaned += 1;
            }
            keep
        });
        for _ in 0..orphaned {
            self.health.record(IngestAnomaly::OrphanFlowMod);
        }
        self.pending_mods.retain(|_, hops| {
            hops.retain(|p| now.saturating_since(p.registered) <= horizon);
            !hops.is_empty()
        });
    }

    /// Takes the records completed (evicted) so far, leaving in-flight
    /// state untouched. Order is unspecified; callers that need the
    /// batch order sort by `(first_seen, tuple)`.
    pub fn take_completed(&mut self) -> Vec<FlowRecord> {
        std::mem::take(&mut self.completed)
    }

    /// Clones the current in-flight episodes as best-effort records —
    /// the live view an online consumer folds into its window model
    /// before the episodes finish.
    pub fn open_records(&self) -> Vec<FlowRecord> {
        self.open
            .values()
            .flat_map(|eps| eps.iter().map(|ep| ep.record.clone()))
            .collect()
    }

    /// Number of in-flight episodes (bounded-memory diagnostics).
    pub fn open_len(&self) -> usize {
        self.open.values().map(Vec::len).sum()
    }

    /// Number of completed records not yet taken.
    pub fn completed_len(&self) -> usize {
        self.completed.len()
    }

    /// Drains everything: the reorder buffer is flushed, remaining open
    /// episodes are finalized, and the full record set is returned in
    /// `(first_seen, tuple)` order — exactly the batch extraction order.
    pub fn finish(mut self) -> Vec<FlowRecord> {
        let held: Vec<ControlEvent> = std::mem::take(&mut self.reorder_buf)
            .into_values()
            .collect();
        for ev in &held {
            self.process(ev);
        }
        let mut records = std::mem::take(&mut self.completed);
        records.extend(
            std::mem::take(&mut self.open)
                .into_values()
                .flatten()
                .map(|ep| ep.record),
        );
        records.sort_by_key(|r| (r.first_seen, r.tuple));
        records
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::config::SimConfig;
    use netsim::engine::Simulation;
    use netsim::flows::FlowSpec;
    use netsim::topology::Topology;
    use openflow::match_fields::FlowKey;
    use openflow::messages::OfpMessage;

    fn line_topology() -> Topology {
        let mut t = Topology::new();
        let h1 = t.add_host("h1", Ipv4Addr::new(10, 0, 0, 1));
        let h2 = t.add_host("h2", Ipv4Addr::new(10, 0, 0, 2));
        let s1 = t.add_of_switch("s1");
        let s2 = t.add_of_switch("s2");
        let s3 = t.add_of_switch("s3");
        t.connect(h1, s1, 50, 1_000_000_000);
        t.connect(s1, s2, 20, 1_000_000_000);
        t.connect(s2, s3, 20, 1_000_000_000);
        t.connect(s3, h2, 50, 1_000_000_000);
        t
    }

    fn key(sport: u16) -> FlowKey {
        FlowKey::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            sport,
            Ipv4Addr::new(10, 0, 0, 2),
            80,
        )
    }

    #[test]
    fn one_record_per_flow_with_full_path() {
        let mut sim = Simulation::new(line_topology(), SimConfig::default(), 1);
        sim.schedule_flow(
            Timestamp::from_secs(1),
            FlowSpec::new(key(4000), 6_000, 5_000),
        );
        sim.run_until(Timestamp::from_secs(30));
        let log = sim.take_log();
        let records = extract_records(&log, &FlowDiffConfig::default());
        assert_eq!(records.len(), 1);
        let r = &records[0];
        assert_eq!(r.hops.len(), 3, "three OF switches on path");
        assert_eq!(r.tuple.dport, 80);
        assert!(r.hops.windows(2).all(|w| w[0].ts <= w[1].ts));
        assert!(r.hops.iter().all(|h| h.flow_mod_ts.is_some()));
        assert!(r.hops.iter().all(|h| h.out_port.is_some()));
        assert_eq!(r.byte_count, 6_000);
        assert!(r.duration_s > 4.9, "lifetime includes the idle timeout");
    }

    #[test]
    fn episodes_split_on_gap() {
        let mut sim = Simulation::new(line_topology(), SimConfig::default(), 1);
        // Same 5-tuple, 60 s apart (entries expire in between).
        sim.schedule_flow(
            Timestamp::from_secs(1),
            FlowSpec::new(key(4000), 3_000, 5_000),
        );
        sim.schedule_flow(
            Timestamp::from_secs(61),
            FlowSpec::new(key(4000), 3_000, 5_000),
        );
        sim.run_until(Timestamp::from_secs(120));
        let log = sim.take_log();
        let records = extract_records(&log, &FlowDiffConfig::default());
        assert_eq!(records.len(), 2, "two episodes of the same tuple");
        assert!(records[0].first_seen < records[1].first_seen);
        assert_eq!(records[0].byte_count, 3_000);
        assert_eq!(records[1].byte_count, 3_000);
    }

    #[test]
    fn concurrent_flows_keep_separate_records() {
        let mut sim = Simulation::new(line_topology(), SimConfig::default(), 1);
        for sport in [4000, 4001, 4002] {
            sim.schedule_flow(
                Timestamp::from_secs(1),
                FlowSpec::new(key(sport), 2_000, 5_000),
            );
        }
        sim.run_until(Timestamp::from_secs(30));
        let log = sim.take_log();
        let records = extract_records(&log, &FlowDiffConfig::default());
        assert_eq!(records.len(), 3);
        let mut sports: Vec<u16> = records.iter().map(|r| r.tuple.sport).collect();
        sports.sort_unstable();
        assert_eq!(sports, vec![4000, 4001, 4002]);
    }

    #[test]
    fn extraction_survives_corrupt_capture() {
        let mut sim = Simulation::new(line_topology(), SimConfig::default(), 1);
        sim.schedule_flow(
            Timestamp::from_secs(1),
            FlowSpec::new(key(4000), 2_000, 5_000),
        );
        sim.run_until(Timestamp::from_secs(30));
        let mut log = sim.take_log();
        // Corrupt one PacketIn's payload.
        let mut events: Vec<_> = log.events().to_vec();
        for e in &mut events {
            if let OfpMessage::PacketIn(pi) = &mut e.msg {
                pi.data.truncate(4);
                break;
            }
        }
        log = events.into_iter().collect();
        let records = extract_records(&log, &FlowDiffConfig::default());
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].hops.len(), 2, "corrupt hop skipped");
    }

    #[test]
    fn assembler_with_midstream_drain_matches_batch() {
        let mut sim = Simulation::new(line_topology(), SimConfig::default(), 1);
        for (i, sport) in [4000u16, 4001, 4002, 4003].iter().enumerate() {
            sim.schedule_flow(
                Timestamp::from_secs(1 + 20 * i as u64),
                FlowSpec::new(key(*sport), 3_000, 5_000),
            );
        }
        sim.run_until(Timestamp::from_secs(120));
        let log = sim.take_log();
        let config = FlowDiffConfig::default();
        let batch = extract_records(&log, &config);

        // Stream the same events, draining completed records as we go —
        // the way an online consumer uses the assembler.
        let mut asm = RecordAssembler::new(&config);
        let mut streamed: Vec<FlowRecord> = Vec::new();
        for (i, ev) in log.events().iter().enumerate() {
            asm.observe(ev);
            if i % 7 == 0 {
                streamed.extend(asm.take_completed());
            }
        }
        streamed.extend(asm.finish());
        streamed.sort_by_key(|r| (r.first_seen, r.tuple));
        assert_eq!(streamed, batch);
    }

    #[test]
    fn assembler_evicts_idle_partials_and_stays_bounded() {
        let mut sim = Simulation::new(line_topology(), SimConfig::default(), 1);
        // Two episodes of the same tuple, 60 s apart.
        sim.schedule_flow(
            Timestamp::from_secs(1),
            FlowSpec::new(key(4000), 3_000, 5_000),
        );
        sim.schedule_flow(
            Timestamp::from_secs(61),
            FlowSpec::new(key(4000), 3_000, 5_000),
        );
        sim.run_until(Timestamp::from_secs(120));
        let log = sim.take_log();

        // A 10 s timeout is far shorter than the 60 s quiet stretch, so
        // the first episode must be evicted (emitted) mid-stream, yet
        // every event still pairs within the horizon: the result must
        // match the default-timeout batch extraction.
        let tight = FlowDiffConfig {
            partial_flow_timeout_us: 10_000_000,
            ..FlowDiffConfig::default()
        };
        let mut asm = RecordAssembler::new(&tight);
        let mut evicted_midstream = 0;
        for ev in log.events() {
            asm.observe(ev);
            evicted_midstream = evicted_midstream.max(asm.completed_len());
        }
        assert!(
            evicted_midstream >= 1,
            "first episode should be emitted before the stream ends"
        );
        assert!(asm.open_len() <= 1, "only the live episode stays in-flight");
        let streamed = {
            let mut v = asm.finish();
            v.sort_by_key(|r| (r.first_seen, r.tuple));
            v
        };
        let batch = extract_records(&log, &FlowDiffConfig::default());
        assert_eq!(streamed, batch);
    }

    #[test]
    fn open_records_expose_in_flight_view() {
        let mut sim = Simulation::new(line_topology(), SimConfig::default(), 1);
        sim.schedule_flow(
            Timestamp::from_secs(1),
            FlowSpec::new(key(4000), 6_000, 5_000),
        );
        sim.run_until(Timestamp::from_secs(30));
        let log = sim.take_log();
        let mut asm = RecordAssembler::new(&FlowDiffConfig::default());
        // Feed only the PacketIn/FlowMod prefix (stop at FlowRemoved).
        for ev in log.events() {
            if matches!(ev.msg, OfpMessage::FlowRemoved(_)) {
                break;
            }
            asm.observe(ev);
        }
        let view = asm.open_records();
        assert_eq!(view.len(), 1);
        assert_eq!(view[0].hops.len(), 3, "all hops visible before completion");
        assert_eq!(view[0].byte_count, 0, "counters not yet attached");
        assert_eq!(asm.completed_len(), 0);
    }

    #[test]
    fn time_jump_quarantine_drops_corrupt_clock_readings() {
        let mut sim = Simulation::new(line_topology(), SimConfig::default(), 1);
        sim.schedule_flow(
            Timestamp::from_secs(1),
            FlowSpec::new(key(4000), 6_000, 5_000),
        );
        sim.run_until(Timestamp::from_secs(30));
        let log = sim.take_log();
        let batch = extract_records(&log, &FlowDiffConfig::default());

        // A bit flip in a wire timestamp mints an event eons ahead.
        let mut corrupt = log.events()[0].clone();
        corrupt.ts = Timestamp::from_micros(corrupt.ts.as_micros() + (1 << 50));

        let guarded = FlowDiffConfig {
            max_time_jump_us: 60_000_000,
            ..FlowDiffConfig::default()
        };
        let mut asm = RecordAssembler::new(&guarded);
        for (i, ev) in log.events().iter().enumerate() {
            assert!(asm.observe(ev), "clean events must be admitted");
            if i == 0 {
                assert!(asm.quarantines(corrupt.ts));
                assert!(!asm.observe(&corrupt), "insane jump must be dropped");
            }
        }
        assert_eq!(asm.health().time_jumps, 1);
        assert_eq!(
            asm.health().events_reordered,
            0,
            "a dropped jump must not poison the arrival watermark"
        );
        let mut streamed = asm.finish();
        streamed.sort_by_key(|r| (r.first_seen, r.tuple));
        assert_eq!(streamed, batch, "records unaffected by the dropped event");

        // Disabled (the default), the same event is admitted.
        let mut unguarded = RecordAssembler::new(&FlowDiffConfig::default());
        assert!(!unguarded.quarantines(corrupt.ts));
        assert!(unguarded.observe(&corrupt));
        assert_eq!(unguarded.health().time_jumps, 0);
    }

    #[test]
    fn switch_path_in_traversal_order() {
        let t = line_topology();
        let dpids: Vec<DatapathId> = ["s1", "s2", "s3"]
            .iter()
            .map(|n| t.dpid_of(t.node_by_name(n).unwrap()).unwrap())
            .collect();
        let mut sim = Simulation::new(t, SimConfig::default(), 1);
        sim.schedule_flow(
            Timestamp::from_secs(1),
            FlowSpec::new(key(4000), 2_000, 5_000),
        );
        sim.run_until(Timestamp::from_secs(30));
        let log = sim.take_log();
        let records = extract_records(&log, &FlowDiffConfig::default());
        assert_eq!(records[0].switch_path(), dpids);
    }
}
