//! The behavior model: all signatures of one log, bundled.
//!
//! Signature construction is embarrassingly parallel — each of the five
//! application signatures per group and each infrastructure signature is
//! a pure function of the (shared, read-only) records — so
//! [`BehaviorModel::from_records`] fans the builds out over a scoped
//! thread pool. Work items are claimed from an atomic counter and the
//! results reassembled in deterministic task order, so the parallel
//! build is `PartialEq`-identical to the serial one.
//!
//! There is exactly one model-building implementation: the streaming
//! [`IncrementalModelBuilder`], which folds records and raw control
//! events as they arrive and can snapshot a [`BehaviorModel`] at any
//! point (the online differ snapshots at epoch boundaries). The batch
//! entry points — [`BehaviorModel::build`] and the `from_records*`
//! family — are thin wrappers that feed everything through one builder
//! and snapshot once.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

use openflow::types::{DatapathId, Timestamp};
use serde::{Deserialize, Serialize};

use crate::config::FlowDiffConfig;
use crate::groups::{discover_groups_interned, AppGroup};
use crate::ids::{EntityCatalog, IRecord, RecordIndex};
use crate::records::{FlowRecord, FlowTuple, RecordAssembler};
use crate::signatures::connectivity::ConnectivityGraph;
use crate::signatures::correlation::PartialCorrelation;
use crate::signatures::delay::DelayDistribution;
use crate::signatures::flow_stats::FlowStatsSig;
use crate::signatures::infra::{
    ControllerResponse, CrtBuilder, CrtLinear, InterSwitchLatency, IslBuilder, IslLinear,
    PhysicalTopology, PtBuilder, PtLinear,
};
use crate::signatures::interaction::ComponentInteraction;
use crate::signatures::utilization::{LinkUtilization, LuBuilder};
use crate::signatures::{Signature, SignatureBuilder, SignatureInputs};
use netsim::log::{ControlEvent, ControllerLog, Direction};

/// All application signatures of one group.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GroupSignatures {
    /// The group (members, edges, record indices).
    pub group: AppGroup,
    /// Connectivity graph (CG).
    pub connectivity: ConnectivityGraph,
    /// Flow statistics (FS).
    pub flow_stats: FlowStatsSig,
    /// Component interaction (CI).
    pub interaction: ComponentInteraction,
    /// Delay distribution (DD).
    pub delay: DelayDistribution,
    /// Partial correlation (PC).
    pub correlation: PartialCorrelation,
}

/// The complete behavioral model of a data center over one log window
/// (Section III): per-group application signatures plus the
/// infrastructure signatures.
#[derive(Debug, Clone)]
pub struct BehaviorModel {
    /// All extracted flow records, time-ordered.
    pub records: Vec<FlowRecord>,
    /// Per-application-group signatures.
    pub groups: Vec<GroupSignatures>,
    /// Inferred physical topology (PT).
    pub topology: PhysicalTopology,
    /// Inter-switch latency (ISL).
    pub latency: InterSwitchLatency,
    /// Controller response time (CRT).
    pub response: ControllerResponse,
    /// Link-utilization baseline (LU), from polled port counters.
    pub utilization: LinkUtilization,
    /// The log's time window.
    pub span: (Timestamp, Timestamp),
    /// The entity interner the model was built through. IDs are
    /// process-local (assignment-order artifacts), so the catalog is
    /// excluded from serialization, equality, and all rendered output —
    /// it exists to resolve dense IDs and to answer entity-count /
    /// memory-footprint queries.
    pub catalog: EntityCatalog,
    /// Edge-indexed view of `records` ("when did this `(src, dst)`
    /// pair first appear?"), built once at assembly so the diff engine
    /// never re-scans the record list. Derived data: excluded from
    /// serialization and equality, like the catalog.
    pub edge_index: RecordIndex,
}

/// Equality ignores the catalog: two models are the same model if every
/// signature and record agrees, regardless of the interning order their
/// catalogs happened to assign IDs in.
impl PartialEq for BehaviorModel {
    fn eq(&self, other: &Self) -> bool {
        self.records == other.records
            && self.groups == other.groups
            && self.topology == other.topology
            && self.latency == other.latency
            && self.response == other.response
            && self.utilization == other.utilization
            && self.span == other.span
    }
}

/// Hand-written (field-order) serialization that skips the catalog:
/// the byte encoding is identical to the pre-interning derived one, and
/// IDs never leave the process.
impl Serialize for BehaviorModel {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.records.serialize(out);
        self.groups.serialize(out);
        self.topology.serialize(out);
        self.latency.serialize(out);
        self.response.serialize(out);
        self.utilization.serialize(out);
        self.span.serialize(out);
    }
}

impl Deserialize for BehaviorModel {
    fn deserialize(input: &mut &[u8]) -> Result<Self, serde::Error> {
        let records = Vec::<FlowRecord>::deserialize(input)?;
        let groups = Vec::<GroupSignatures>::deserialize(input)?;
        let topology = PhysicalTopology::deserialize(input)?;
        let latency = InterSwitchLatency::deserialize(input)?;
        let response = ControllerResponse::deserialize(input)?;
        let utilization = LinkUtilization::deserialize(input)?;
        let span = <(Timestamp, Timestamp)>::deserialize(input)?;
        // Rebuild a catalog deterministically from the stored records:
        // the IDs need not match the writer's (IDs are process-local),
        // only cover every entity the records mention.
        let mut catalog = EntityCatalog::new();
        for record in &records {
            catalog.intern_entities(record);
        }
        let edge_index = RecordIndex::of_records(&records);
        Ok(BehaviorModel {
            records,
            groups,
            topology,
            latency,
            response,
            utilization,
            span,
            catalog,
            edge_index,
        })
    }
}

/// Application signatures built per group, in task order.
const SIGS_PER_GROUP: usize = 5;
/// Infrastructure signatures built once per model (PT, ISL, CRT; LU
/// needs the raw log and is accumulated by the
/// [`IncrementalModelBuilder`] from `StatsReply` events).
const INFRA_SIGS: usize = 3;

/// One completed signature build, tagged for reassembly.
enum Built {
    Cg(ConnectivityGraph),
    Fs(FlowStatsSig),
    Ci(ComponentInteraction),
    Dd(DelayDistribution),
    Pc(PartialCorrelation),
    Pt(PhysicalTopology),
    Isl(InterSwitchLatency),
    Crt(ControllerResponse),
}

/// Executes work item `task`: tasks `[0, 5G)` build application
/// signature `task % 5` of group `task / 5`; the last three build the
/// record-derived infrastructure signatures.
fn build_part(
    task: usize,
    groups: &[AppGroup],
    group_records: &[Vec<&IRecord>],
    all_records: &[&IRecord],
    catalog: &EntityCatalog,
    span: (Timestamp, Timestamp),
    config: &FlowDiffConfig,
) -> Built {
    let app_tasks = groups.len() * SIGS_PER_GROUP;
    if task < app_tasks {
        let (gi, si) = (task / SIGS_PER_GROUP, task % SIGS_PER_GROUP);
        let inputs =
            SignatureInputs::new(&group_records[gi], catalog, span, config).with_group(&groups[gi]);
        match si {
            0 => Built::Cg(ConnectivityGraph::build(&inputs)),
            1 => Built::Fs(FlowStatsSig::build(&inputs)),
            2 => Built::Ci(ComponentInteraction::build(&inputs)),
            3 => Built::Dd(DelayDistribution::build(&inputs)),
            _ => Built::Pc(PartialCorrelation::build(&inputs)),
        }
    } else {
        // The batch feed is sorted, retires nothing, and is dropped
        // after finalize — exactly what the append-only linear
        // accumulators are for. The retire-capable keyed builders
        // produce identical output but pay a keyed insert per record,
        // which measurably drags every full assembly.
        match task - app_tasks {
            0 => {
                let mut b = PtLinear::default();
                for r in all_records {
                    b.observe(r);
                }
                Built::Pt(b.finalize(catalog))
            }
            1 => {
                let mut b = IslLinear::default();
                for r in all_records {
                    b.observe(r);
                }
                Built::Isl(b.finalize(catalog))
            }
            _ => {
                let mut b = CrtLinear::default();
                for r in all_records {
                    b.observe(r);
                }
                Built::Crt(b.finalize(catalog))
            }
        }
    }
}

/// The number of worker threads used by the parallel entry points.
fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The shared signature fan-out: discovers groups over `records` and
/// builds every record-derived signature with `workers` threads.
/// `workers <= 1` runs the builds inline; otherwise scoped threads claim
/// work items from a shared counter. Either way the signatures are
/// reassembled in task order, so the result is identical.
///
/// This is the single assembly point — both the batch entry points and
/// [`IncrementalModelBuilder::snapshot`] land here.
fn assemble(
    records: Vec<FlowRecord>,
    span: (Timestamp, Timestamp),
    config: &FlowDiffConfig,
    workers: usize,
) -> BehaviorModel {
    // Intern the (sorted) records into a fresh catalog: one pass
    // assigns every entity its dense ID and produces the records the
    // signature builders consume. IDs are process-local, so nothing
    // requires the assignment to be stable across snapshots.
    let mut catalog = EntityCatalog::new();
    let mut irecords: Vec<IRecord> = Vec::with_capacity(records.len());
    irecords.extend(records.iter().map(|r| catalog.intern_record(r)));
    let all_records: Vec<&IRecord> = irecords.iter().collect();
    let groups = discover_groups_interned(&all_records, &catalog, config);
    let group_records: Vec<Vec<&IRecord>> = groups
        .iter()
        .map(|g| g.record_indices.iter().map(|&i| &irecords[i]).collect())
        .collect();
    let n_tasks = groups.len() * SIGS_PER_GROUP + INFRA_SIGS;

    let built: Vec<Built> = if workers <= 1 {
        (0..n_tasks)
            .map(|t| {
                build_part(
                    t,
                    &groups,
                    &group_records,
                    &all_records,
                    &catalog,
                    span,
                    config,
                )
            })
            .collect()
    } else {
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Built)>();
        std::thread::scope(|s| {
            for _ in 0..workers.min(n_tasks) {
                let tx = tx.clone();
                let (next, groups, group_records, all_records, catalog) =
                    (&next, &groups, &group_records, &all_records, &catalog);
                s.spawn(move || loop {
                    let t = next.fetch_add(1, Ordering::Relaxed);
                    if t >= n_tasks {
                        break;
                    }
                    let part =
                        build_part(t, groups, group_records, all_records, catalog, span, config);
                    if tx.send((t, part)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            let mut slots: Vec<Option<Built>> = (0..n_tasks).map(|_| None).collect();
            for (t, part) in rx {
                slots[t] = Some(part);
            }
            slots
                .into_iter()
                .map(|slot| slot.expect("every task completes"))
                .collect()
        })
    };

    // Reassemble in task order: per group [CG, FS, CI, DD, PC], then
    // PT, ISL, CRT.
    let mut parts = built.into_iter();
    let group_sigs: Vec<GroupSignatures> = groups
        .into_iter()
        .map(|group| {
            let Some(Built::Cg(connectivity)) = parts.next() else {
                unreachable!("task order: CG first per group")
            };
            let Some(Built::Fs(flow_stats)) = parts.next() else {
                unreachable!("task order: FS second per group")
            };
            let Some(Built::Ci(interaction)) = parts.next() else {
                unreachable!("task order: CI third per group")
            };
            let Some(Built::Dd(delay)) = parts.next() else {
                unreachable!("task order: DD fourth per group")
            };
            let Some(Built::Pc(correlation)) = parts.next() else {
                unreachable!("task order: PC fifth per group")
            };
            GroupSignatures {
                group,
                connectivity,
                flow_stats,
                interaction,
                delay,
                correlation,
            }
        })
        .collect();
    let Some(Built::Pt(topology)) = parts.next() else {
        unreachable!("task order: PT after groups")
    };
    let Some(Built::Isl(latency)) = parts.next() else {
        unreachable!("task order: ISL after PT")
    };
    let Some(Built::Crt(response)) = parts.next() else {
        unreachable!("task order: CRT last")
    };

    let edge_index = RecordIndex::of_interned(catalog.clone(), &all_records);
    BehaviorModel {
        records,
        groups: group_sigs,
        topology,
        latency,
        response,
        utilization: LinkUtilization::default(),
        span,
        catalog,
        edge_index,
    }
}

/// The builder's held records, keyed by the canonical window order
/// `(first_seen, tuple)` — the same key the batch snapshot core sorts
/// by — so flat iteration is always already in snapshot order and
/// sliding the window forward is a prefix removal, not a retain scan.
/// Records sharing a key (two episodes of one tuple can never share a
/// first `PacketIn`, but hostile inputs can collide) keep arrival order
/// in a tie list, matching the batch core's *stable* sort exactly.
#[derive(Debug, Clone, Default, PartialEq)]
struct RecordWindow {
    map: BTreeMap<(Timestamp, FlowTuple), Vec<FlowRecord>>,
    len: usize,
}

impl RecordWindow {
    fn push(&mut self, record: FlowRecord) {
        self.map
            .entry((record.first_seen, record.tuple))
            .or_default()
            .push(record);
        self.len += 1;
    }

    fn len(&self) -> usize {
        self.len
    }

    /// Flat iteration in `(first_seen, tuple)` order, ties in arrival
    /// order — the batch core's sorted order.
    fn iter(&self) -> impl Iterator<Item = &FlowRecord> {
        self.map.values().flatten()
    }

    /// Drops every record first seen before `cutoff` — a prefix of the
    /// key space, so the walk touches only what it removes.
    fn retire_before(&mut self, cutoff: Timestamp) {
        while let Some(entry) = self.map.first_entry() {
            if entry.key().0 >= cutoff {
                break;
            }
            self.len -= entry.remove().len();
        }
    }

    /// The records as a sorted flat list (cloned).
    fn to_flat_vec(&self) -> Vec<FlowRecord> {
        let mut out = Vec::with_capacity(self.len);
        out.extend(self.iter().cloned());
        out
    }

    /// Consumes the window into a sorted flat list.
    fn into_flat_vec(self) -> Vec<FlowRecord> {
        let mut out = Vec::with_capacity(self.len);
        out.extend(self.map.into_values().flatten());
        out
    }
}

/// On the wire a window is exactly what the old flat `Vec<FlowRecord>`
/// field was — a count plus the records — just always in sorted order,
/// so a window roundtrips through old-format checkpoints unchanged.
impl Serialize for RecordWindow {
    fn serialize(&self, out: &mut Vec<u8>) {
        (self.len as u64).serialize(out);
        for record in self.iter() {
            record.serialize(out);
        }
    }
}

impl Deserialize for RecordWindow {
    fn deserialize(input: &mut &[u8]) -> Result<Self, serde::Error> {
        let records = Vec::<FlowRecord>::deserialize(input)?;
        let mut window = RecordWindow::default();
        for record in records {
            window.push(record);
        }
        Ok(window)
    }
}

/// Streaming model builder: folds flow records (from a
/// [`RecordAssembler`]) and raw control events as they arrive, and can
/// snapshot a full [`BehaviorModel`] at any point.
///
/// Records carry the bulk of the model; only two facts must come from
/// the raw event stream because they never become flow records —
/// switch liveness (any `ToController` message is a liveness proof) and
/// the link-utilization counter series. Both are accumulated
/// incrementally, so a snapshot costs one signature fan-out over the
/// records held, nothing proportional to the events seen.
///
/// The builder is `Clone`, which the online differ uses to snapshot
/// "what the model would be if the in-flight flows completed now"
/// without disturbing the real accumulation, and supports
/// [`retire_before`](Self::retire_before) for sliding-window operation.
///
/// The builder also serializes (records, span bookkeeping, liveness
/// proofs, the LU counter series) as part of an online
/// [`checkpoint`](crate::checkpoint); the nine signature builders need
/// no state of their own here because they are constructed fresh per
/// snapshot from the records the builder holds.
#[derive(Debug, Clone)]
pub struct IncrementalModelBuilder {
    config: FlowDiffConfig,
    records: RecordWindow,
    /// Span forced by the caller (batch wrappers use the log's time
    /// range; the online differ uses the window bounds).
    span_override: Option<(Timestamp, Timestamp)>,
    /// Min/max event timestamp seen, the fallback span.
    observed_span: Option<(Timestamp, Timestamp)>,
    /// Liveness proofs: datapath -> last `ToController` message seen.
    live: BTreeMap<DatapathId, Timestamp>,
    /// Port-counter series for the LU signature.
    lu: LuBuilder,
    /// Lazily built incremental-snapshot state (persistent catalog,
    /// interned window, maintained infrastructure builders). Purely
    /// derived from `records`, so it is excluded from equality and
    /// serialization and rebuilt on first use after a restore.
    ws: Option<WindowState>,
    /// Keys of completions accepted since the last snapshot and not yet
    /// folded into `ws`. Syncing lazily — at snapshot time, after the
    /// caller's retirement pass — means a record that ages out of the
    /// window within one epoch (the common fate of late-evicted
    /// episodes, whose `first_seen` predates the window) never touches
    /// the keyed builders at all. Derived state, like `ws`.
    pending: Vec<(Timestamp, FlowTuple)>,
}

/// Equality ignores the derived window state: two builders are the same
/// builder if the durable facts agree.
impl PartialEq for IncrementalModelBuilder {
    fn eq(&self, other: &Self) -> bool {
        self.config == other.config
            && self.records == other.records
            && self.span_override == other.span_override
            && self.observed_span == other.observed_span
            && self.live == other.live
            && self.lu == other.lu
    }
}

/// Hand-written (field-order) serialization that skips the derived
/// window state — the wire format matches what the field-order derive
/// produced before `ws` existed, so checkpoints stay compatible.
impl Serialize for IncrementalModelBuilder {
    fn serialize(&self, out: &mut Vec<u8>) {
        self.config.serialize(out);
        self.records.serialize(out);
        self.span_override.serialize(out);
        self.observed_span.serialize(out);
        self.live.serialize(out);
        self.lu.serialize(out);
    }
}

impl Deserialize for IncrementalModelBuilder {
    fn deserialize(input: &mut &[u8]) -> Result<Self, serde::Error> {
        Ok(IncrementalModelBuilder {
            config: FlowDiffConfig::deserialize(input)?,
            records: RecordWindow::deserialize(input)?,
            span_override: Option::<(Timestamp, Timestamp)>::deserialize(input)?,
            observed_span: Option::<(Timestamp, Timestamp)>::deserialize(input)?,
            live: BTreeMap::<DatapathId, Timestamp>::deserialize(input)?,
            lu: LuBuilder::deserialize(input)?,
            ws: None,
            pending: Vec::new(),
        })
    }
}

/// The incremental-snapshot state: a persistent entity catalog, the
/// held records re-interned through it (same shape as [`RecordWindow`],
/// dense IDs instead of addresses), and the three record-fed
/// infrastructure builders maintained across epochs by
/// observe/retire instead of being rebuilt per snapshot.
///
/// The catalog only ever grows — dense IDs are process-local and
/// excluded from every output, so stale entries from retired records
/// are harmless — which is what lets the interned window and the
/// maintained builders keep their IDs stable across epochs.
#[derive(Debug, Clone, Default)]
struct WindowState {
    catalog: EntityCatalog,
    window: BTreeMap<(Timestamp, FlowTuple), Vec<IRecord>>,
    pt: PtBuilder,
    isl: IslBuilder,
    crt: CrtBuilder,
}

impl WindowState {
    /// Interns one record and folds it into the maintained state.
    fn observe(&mut self, record: &FlowRecord) {
        let ir = self.catalog.intern_record(record);
        self.pt.observe(&ir);
        self.isl.observe(&ir);
        self.crt.observe(&ir);
        self.window
            .entry((record.first_seen, record.tuple))
            .or_default()
            .push(ir);
    }

    /// Withdraws every record first seen before `cutoff` from the
    /// maintained builders and drops it from the interned window. Ties
    /// under one key retire newest-first, per the builder contract.
    fn retire_before(&mut self, cutoff: Timestamp) {
        while let Some(entry) = self.window.first_entry() {
            if entry.key().0 >= cutoff {
                break;
            }
            for ir in entry.remove().iter().rev() {
                self.pt.retire(ir);
                self.isl.retire(ir);
                self.crt.retire(ir);
            }
        }
    }
}

impl IncrementalModelBuilder {
    /// A fresh builder; `config` is cloned so the builder is
    /// self-contained (it outlives batch call frames in online mode).
    pub fn new(config: &FlowDiffConfig) -> IncrementalModelBuilder {
        IncrementalModelBuilder {
            config: config.clone(),
            records: RecordWindow::default(),
            span_override: None,
            observed_span: None,
            live: BTreeMap::new(),
            lu: LuBuilder::default(),
            ws: None,
            pending: Vec::new(),
        }
    }

    /// Folds one completed flow record into the model state. Until the
    /// first [`epoch_snapshot`](Self::epoch_snapshot) this is a plain
    /// keyed insert; afterwards the record's key is also queued so the
    /// next snapshot can fold whatever survives retirement into the
    /// maintained window state.
    pub fn observe_record(&mut self, record: FlowRecord) {
        if self.ws.is_some() {
            self.pending.push((record.first_seen, record.tuple));
        }
        self.records.push(record);
    }

    /// Folds one raw control event: tracks the observed span, switch
    /// liveness, and the LU counter series. Events that also drive flow
    /// records go through the [`RecordAssembler`] separately.
    pub fn observe_event(&mut self, event: &ControlEvent) {
        match &mut self.observed_span {
            Some((lo, hi)) => {
                *lo = (*lo).min(event.ts);
                *hi = (*hi).max(event.ts);
            }
            None => self.observed_span = Some((event.ts, event.ts)),
        }
        if event.direction == Direction::ToController {
            // Keep the *newest* proof per datapath even under disordered
            // arrival: insert-last-wins would let a stale straggler
            // overwrite a fresher proof, making liveness
            // arrival-order-sensitive.
            let newest = self.live.entry(event.dpid).or_insert(event.ts);
            if event.ts > *newest {
                *newest = event.ts;
            }
        }
        self.lu.observe_event(event);
    }

    /// Forces the snapshot span (overrides the observed event range).
    pub fn set_span(&mut self, span: (Timestamp, Timestamp)) {
        self.span_override = Some(span);
    }

    /// Drops state older than `cutoff`: records first seen before it,
    /// counter samples polled before it, and liveness proofs not
    /// refreshed since. This is what keeps a sliding-window online
    /// builder's memory proportional to the window, not the stream.
    pub fn retire_before(&mut self, cutoff: Timestamp) {
        self.records.retire_before(cutoff);
        if let Some(ws) = &mut self.ws {
            ws.retire_before(cutoff);
        }
        self.lu.retire_before(cutoff);
        self.live.retain(|_, ts| *ts >= cutoff);
    }

    /// Records currently held (post-retirement).
    pub fn record_count(&self) -> usize {
        self.records.len()
    }

    /// The min/max event timestamp observed so far (None before the
    /// first event).
    pub fn observed_span(&self) -> Option<(Timestamp, Timestamp)> {
        self.observed_span
    }

    /// Snapshots the model over all state held, using the default
    /// worker count.
    pub fn snapshot(&self) -> BehaviorModel {
        self.snapshot_with(default_workers())
    }

    /// Snapshots with an explicit worker count (clones the held
    /// records; the builder keeps accumulating afterwards). This is the
    /// rebuild-from-scratch oracle the incremental
    /// [`epoch_snapshot`](Self::epoch_snapshot) is verified against.
    pub fn snapshot_with(&self, workers: usize) -> BehaviorModel {
        self.finish_records(self.records.to_flat_vec(), workers)
    }

    /// Consumes the builder into a final snapshot without cloning the
    /// record set — the batch wrappers' path.
    pub fn into_snapshot(self) -> BehaviorModel {
        self.into_snapshot_with(default_workers())
    }

    /// [`Self::into_snapshot`] with an explicit worker count.
    pub fn into_snapshot_with(mut self, workers: usize) -> BehaviorModel {
        let records = std::mem::take(&mut self.records).into_flat_vec();
        self.finish_records(records, workers)
    }

    /// Snapshots the model for one epoch via the maintained window
    /// state — the online differ's delta path. `opens` are the
    /// assembler's still-open flows, overlaid as if they completed now:
    /// they are interned through the shared catalog but observed into
    /// *fresh* overlay builders, and the infrastructure signatures come
    /// out of a merged finalize over `(maintained, overlay)`. The
    /// maintained state is never mutated, so there is nothing to unwind
    /// — the historical observe-then-retire round trip through the
    /// maintained builders cost more than a full remodel whenever the
    /// window was dominated by in-flight episodes. The result is
    /// `PartialEq`- and serialization-byte-identical to
    /// [`Self::snapshot`] over the same records with the same span, but
    /// costs one fan-out over *groups* plus work proportional to the
    /// opens — nothing re-sorts, re-interns, or re-feeds the held
    /// window.
    pub fn epoch_snapshot(
        &mut self,
        span: (Timestamp, Timestamp),
        mut opens: Vec<FlowRecord>,
    ) -> BehaviorModel {
        if let Some(ws) = &mut self.ws {
            // Fold completions accepted since the last snapshot into
            // the maintained state. This runs after the caller's
            // retirement pass, so keys already gone from the owned
            // window are skipped without ever feeding the keyed
            // builders. The count-based tail sync keeps the two windows
            // in lockstep even if a retired key was re-observed in
            // between (the queued key then resolves to the new tie
            // list, of which `ws` holds a prefix).
            for key in self.pending.drain(..) {
                if let Some(ties) = self.records.map.get(&key) {
                    let have = ws.window.get(&key).map_or(0, |t| t.len());
                    for record in &ties[have..] {
                        ws.observe(record);
                    }
                }
            }
        } else {
            let mut ws = WindowState::default();
            for record in self.records.iter() {
                ws.observe(record);
            }
            self.ws = Some(ws);
            self.pending.clear();
        }

        // Canonical batch order for the overlay; the sort is stable, so
        // same-key opens keep their assembler iteration order — exactly
        // where the batch core's stable sort would leave them.
        opens.sort_by_key(|r| (r.first_seen, r.tuple));

        // Intern the opens through the shared (growing) catalog, but
        // observe them into fresh overlay builders so the maintained
        // ones keep only durable records.
        let ws = self.ws.as_mut().expect("ensured above");
        let mut over_pt = PtLinear::default();
        let mut over_isl = IslLinear::default();
        let mut over_crt = CrtLinear::default();
        let mut open_irs: Vec<IRecord> = Vec::with_capacity(opens.len());
        for record in &opens {
            open_irs.push(ws.catalog.intern_record(record));
        }
        // One tight pass per accumulator, not one interleaved pass, so
        // each accumulator's working set stays cache-hot — mirroring
        // the batch core's per-signature task loops.
        for ir in &open_irs {
            over_pt.observe(ir);
        }
        for ir in &open_irs {
            over_isl.observe(ir);
        }
        for ir in &open_irs {
            over_crt.observe(ir);
        }

        // One merge drives both views of the window: the owned record
        // list the model carries and the interned refs the signature
        // builds consume, kept positionally aligned (group record
        // indices index into `refs`). Held records come first on a
        // shared key, matching the batch core's stable sort of
        // window-then-opens.
        let ws = self.ws.as_ref().expect("ensured above");
        let total = self.records.len() + open_irs.len();
        let mut records: Vec<FlowRecord> = Vec::with_capacity(total);
        let mut refs: Vec<&IRecord> = Vec::with_capacity(total);
        let mut open_iter = opens.into_iter();
        let mut next_open = open_iter.next();
        let mut oi = 0;
        for ((key, held), (wkey, irs)) in self.records.map.iter().zip(ws.window.iter()) {
            debug_assert_eq!(key, wkey, "owned and interned windows diverged");
            while let Some(open) = &next_open {
                if (open.first_seen, open.tuple) >= *key {
                    break;
                }
                records.push(next_open.take().expect("checked above"));
                refs.push(&open_irs[oi]);
                oi += 1;
                next_open = open_iter.next();
            }
            records.extend(held.iter().cloned());
            refs.extend(irs.iter());
        }
        while let Some(open) = next_open {
            records.push(open);
            refs.push(&open_irs[oi]);
            oi += 1;
            next_open = open_iter.next();
        }
        debug_assert_eq!(records.len(), refs.len());

        let groups = discover_groups_interned(&refs, &ws.catalog, &self.config);

        let group_sigs: Vec<GroupSignatures> = groups
            .into_iter()
            .map(|group| {
                let group_records: Vec<&IRecord> =
                    group.record_indices.iter().map(|&i| refs[i]).collect();
                let inputs = SignatureInputs::new(&group_records, &ws.catalog, span, &self.config)
                    .with_group(&group);
                // CG is exactly the group's own edge classification,
                // already computed by discovery — cloned, not rebuilt.
                let connectivity = ConnectivityGraph {
                    edges: group.edges.clone(),
                    service_edges: group.service_edges.clone(),
                };
                let flow_stats = FlowStatsSig::build(&inputs);
                let interaction = ComponentInteraction::build(&inputs);
                let delay = DelayDistribution::build(&inputs);
                let correlation = PartialCorrelation::build(&inputs);
                GroupSignatures {
                    group,
                    connectivity,
                    flow_stats,
                    interaction,
                    delay,
                    correlation,
                }
            })
            .collect();

        let mut topology = ws.pt.finalize_merged(&over_pt, &ws.catalog);
        let latency = ws.isl.finalize_merged(&over_isl, &ws.catalog);
        let response = ws.crt.finalize_merged(&over_crt, &ws.catalog);
        topology.live_switches.extend(self.live.keys().copied());
        let edge_index = RecordIndex::of_interned(ws.catalog.clone(), &refs);
        let catalog = ws.catalog.clone();
        drop(refs);
        let utilization = self.lu.finalize(&catalog);

        BehaviorModel {
            records,
            groups: group_sigs,
            topology,
            latency,
            response,
            utilization,
            span,
            catalog,
            edge_index,
        }
    }

    /// The snapshot core: canonicalizes record order (streaming
    /// completion order differs from batch extraction order), runs the
    /// shared fan-out, then attaches the two event-derived facts.
    fn finish_records(&self, mut records: Vec<FlowRecord>, workers: usize) -> BehaviorModel {
        records.sort_by_key(|r| (r.first_seen, r.tuple));
        let span = self
            .span_override
            .or(self.observed_span)
            .unwrap_or((Timestamp::ZERO, Timestamp::ZERO));
        let mut model = assemble(records, span, &self.config, workers);
        model
            .topology
            .live_switches
            .extend(self.live.keys().copied());
        model.utilization = self.lu.finalize(&model.catalog);
        model
    }
}

impl BehaviorModel {
    /// Builds the full model from a controller log by streaming its
    /// events through a [`RecordAssembler`] and an
    /// [`IncrementalModelBuilder`] — the batch API is a thin wrapper
    /// over the streaming path.
    pub fn build(log: &ControllerLog, config: &FlowDiffConfig) -> BehaviorModel {
        let mut assembler = RecordAssembler::new(config);
        let mut builder = IncrementalModelBuilder::new(config);
        for event in log.events() {
            assembler.observe(event);
            builder.observe_event(event);
        }
        for record in assembler.finish() {
            builder.observe_record(record);
        }
        if let Some(span) = log.time_range() {
            builder.set_span(span);
        }
        builder.into_snapshot()
    }

    /// Builds the model from already-extracted records (used by the
    /// stability analysis, which re-segments one extraction), fanning
    /// the signature builds out over the available cores.
    pub fn from_records(
        records: Vec<FlowRecord>,
        span: (Timestamp, Timestamp),
        config: &FlowDiffConfig,
    ) -> BehaviorModel {
        Self::from_records_with(records, span, config, default_workers())
    }

    /// Single-threaded [`Self::from_records`], for baseline comparisons.
    pub fn from_records_serial(
        records: Vec<FlowRecord>,
        span: (Timestamp, Timestamp),
        config: &FlowDiffConfig,
    ) -> BehaviorModel {
        Self::from_records_with(records, span, config, 1)
    }

    /// Builds the model with an explicit worker count: a wrapper that
    /// folds the records through an [`IncrementalModelBuilder`] and
    /// snapshots once.
    pub fn from_records_with(
        records: Vec<FlowRecord>,
        span: (Timestamp, Timestamp),
        config: &FlowDiffConfig,
        workers: usize,
    ) -> BehaviorModel {
        let mut builder = IncrementalModelBuilder::new(config);
        builder.set_span(span);
        for record in records {
            builder.observe_record(record);
        }
        builder.into_snapshot_with(workers)
    }

    /// The group containing `ip` as a member, if any.
    pub fn group_of(&self, ip: std::net::Ipv4Addr) -> Option<&GroupSignatures> {
        self.groups.iter().find(|g| g.group.members.contains(&ip))
    }

    /// Approximate in-memory footprint of the model in bytes: the
    /// serialized size of the address-keyed signature state plus the
    /// heap footprint of the two unserialized derived structures — the
    /// entity catalog and the edge index (which carries its own catalog
    /// clone). The edge index used to be omitted, under-counting every
    /// model by roughly a second catalog plus the first-seen table.
    pub fn approx_bytes(&self) -> usize {
        serde::to_vec(self).len() + self.catalog.approx_bytes() + self.edge_index.approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::records::extract_records;
    use netsim::topology::Topology;
    use openflow::types::Timestamp;
    use std::net::Ipv4Addr;
    use workloads::prelude::*;

    fn scenario_log() -> (ControllerLog, FlowDiffConfig) {
        let mut topo = Topology::lab();
        let (catalog, _) = install_services(&mut topo, "of7");
        let ip = |n: &str| topo.host_ip(topo.node_by_name(n).unwrap());
        let (web, app, db, client) = (ip("S13"), ip("S4"), ip("S14"), ip("S25"));
        let mut sc = Scenario::new(topo, 5, Timestamp::from_secs(1), Timestamp::from_secs(31));
        sc.services(catalog.clone())
            .app(templates::three_tier(
                "rubis",
                vec![web],
                vec![app],
                vec![db],
                None,
            ))
            .client(ClientWorkload {
                client,
                entry_hosts: vec![web],
                entry_port: 80,
                process: ArrivalProcess::poisson_per_sec(8.0),
                request_bytes: 2_048,
            });
        let result = sc.run();
        let config = FlowDiffConfig::default().with_special_ips(catalog.special_ips());
        (result.log, config)
    }

    fn model_from_scenario() -> BehaviorModel {
        let (log, config) = scenario_log();
        BehaviorModel::build(&log, &config)
    }

    #[test]
    fn end_to_end_model_of_three_tier_app() {
        let m = model_from_scenario();
        assert!(!m.records.is_empty());
        assert_eq!(m.groups.len(), 1, "one application group");
        let g = &m.groups[0];
        assert_eq!(g.group.members.len(), 4, "client+web+app+db");
        assert_eq!(g.connectivity.edges.len(), 3, "three-edge chain");
        assert!(g.flow_stats.flow_count > 50);
        // DD: web->app against app->db should expose the 60ms app delay
        let peaks = g.delay.peaks(5);
        assert!(!peaks.is_empty());
        // PT/ISL/CRT populated
        assert!(!m.topology.adjacencies.is_empty());
        assert!(!m.latency.per_pair.is_empty());
        assert!(m.response.overall.n > 100);
    }

    #[test]
    fn group_lookup_by_member() {
        let m = model_from_scenario();
        let member = *m.groups[0].group.members.iter().next().unwrap();
        assert!(m.group_of(member).is_some());
        assert!(m.group_of(Ipv4Addr::new(1, 2, 3, 4)).is_none());
    }

    #[test]
    fn empty_log_builds_empty_model() {
        let log = netsim::log::ControllerLog::new();
        let m = BehaviorModel::build(&log, &FlowDiffConfig::default());
        assert!(m.records.is_empty());
        assert!(m.groups.is_empty());
        assert_eq!(m.response.overall.n, 0);
    }

    #[test]
    fn parallel_build_matches_serial() {
        let (log, config) = scenario_log();
        let records = extract_records(&log, &config);
        let span = log
            .time_range()
            .unwrap_or((Timestamp::ZERO, Timestamp::ZERO));
        let serial = BehaviorModel::from_records_serial(records.clone(), span, &config);
        let parallel = BehaviorModel::from_records_with(records, span, &config, 4);
        assert_eq!(serial, parallel, "task-order reassembly must be identical");
        assert!(!serial.groups.is_empty());
    }

    #[test]
    fn incremental_builder_matches_batch_from_records() {
        let (log, config) = scenario_log();
        let records = extract_records(&log, &config);
        let span = log
            .time_range()
            .unwrap_or((Timestamp::ZERO, Timestamp::ZERO));
        let batch = BehaviorModel::from_records(records.clone(), span, &config);
        let mut builder = IncrementalModelBuilder::new(&config);
        builder.set_span(span);
        for record in records {
            builder.observe_record(record);
        }
        assert!(builder.record_count() > 0);
        let streamed = builder.snapshot();
        assert_eq!(batch, streamed, "streamed model must equal from_records");
    }

    #[test]
    fn event_streamed_builder_matches_batch_build() {
        // Feed events one at a time (record assembly, liveness, and LU
        // accumulation all incremental) and compare against the one-shot
        // build of the same log.
        let (log, config) = scenario_log();
        let batch = BehaviorModel::build(&log, &config);
        let mut assembler = RecordAssembler::new(&config);
        let mut builder = IncrementalModelBuilder::new(&config);
        for event in log.events() {
            assembler.observe(event);
            builder.observe_event(event);
            for record in assembler.take_completed() {
                builder.observe_record(record);
            }
        }
        for record in assembler.finish() {
            builder.observe_record(record);
        }
        if let Some(span) = log.time_range() {
            builder.set_span(span);
        }
        let streamed = builder.snapshot();
        assert_eq!(batch, streamed, "mid-stream draining must not matter");
        assert!(!streamed.utilization.per_port.is_empty() || log.events().is_empty());
    }

    #[test]
    fn retire_before_drops_old_state() {
        let (log, config) = scenario_log();
        let mut builder = IncrementalModelBuilder::new(&config);
        for event in log.events() {
            builder.observe_event(event);
        }
        for record in extract_records(&log, &config) {
            builder.observe_record(record);
        }
        let before = builder.record_count();
        assert!(before > 0);
        let (_, end) = log.time_range().unwrap();
        builder.retire_before(end + 1);
        assert_eq!(builder.record_count(), 0);
        let m = builder.snapshot();
        assert!(m.groups.is_empty());
        assert!(m.utilization.per_port.is_empty());
        assert!(m.topology.live_switches.is_empty());
    }

    #[test]
    fn live_switches_deduplicate_repeated_liveness_proofs() {
        // Every switch sends many control messages over the capture; the
        // liveness set must hold each datapath id exactly once (it is a
        // set keyed by DatapathId, not an append-only list).
        let m = model_from_scenario();
        assert!(!m.topology.live_switches.is_empty());
        let unique: std::collections::BTreeSet<_> =
            m.topology.live_switches.iter().copied().collect();
        assert_eq!(unique.len(), m.topology.live_switches.len());
    }
}
