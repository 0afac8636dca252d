//! The store lifecycle: ground a prefix and take a full snapshot, append
//! and take an incremental snapshot, drop every in-memory structure,
//! reopen through `QueryService` with `store_dir`, and answer a fixed
//! query set. `store-reopen` is this lifecycle at ~10⁶ facts; the
//! request workloads end with it over their own served prefix.
//!
//! Flush policy: the store's own protocol, unchanged — every snapshot
//! writes its shard files, fsyncs them, then atomically renames the
//! manifest and fsyncs the directory. The benchmark never snapshots on a
//! timer; it snapshots exactly twice per cycle. The OS page cache stays
//! warm between write and reopen, so reads are served from memory and
//! times do not describe a storage device.

use std::path::{Path, PathBuf};
use std::time::Instant;

use infpdb_query::persist::StoreStatus;
use infpdb_query::planner::eval_prefix_len;
use infpdb_query::prepared::PreparedPdb;
use infpdb_serve::{QueryService, ServiceConfig};
use infpdb_store::{SnapshotInfo, Store};
use infpdb_ti::catalog::FactCatalog;
use infpdb_ti::construction::CountableTiPdb;
use infpdb_ti::fingerprint::countable_pdb_fingerprint;

use crate::stack::{self, Bits};
use crate::trace::Recorder;
use crate::workload::Req;

/// One lifecycle's parameters.
pub struct Lifecycle<'a> {
    /// The database.
    pub pdb: &'a CountableTiPdb,
    /// Store directory (emptied first).
    pub dir: PathBuf,
    /// Tolerance the base prefix is grounded for.
    pub base_eps: f64,
    /// Tolerance the append grows the prefix to.
    pub append_eps: f64,
    /// Facts per shard file.
    pub shard_capacity: u64,
    /// Queries answered after the reopen, all at ε ≥ `append_eps`.
    pub queries: &'a [Req],
}

/// What one untraced cycle measured.
pub struct Cycle {
    /// Ground the base prefix plus the full snapshot.
    pub setup_s: f64,
    /// The incremental snapshot after the append.
    pub incr_s: f64,
    /// Building the reopened service until its first answer.
    pub reopen_first_answer_s: f64,
    /// Per-answer latencies after the reopen, first answer included.
    pub latencies_us: Vec<f64>,
    /// The reopened service's answers.
    pub answers: Vec<Bits>,
    /// Fresh-grounding answers of the live service, when asked for.
    pub fresh: Option<Vec<Bits>>,
    /// Bytes on disk after the incremental snapshot.
    pub disk_bytes: u64,
    /// Facts persisted.
    pub facts: u64,
}

fn config(lc: &Lifecycle) -> ServiceConfig {
    ServiceConfig {
        store_dir: Some(lc.dir.clone()),
        store_shard_capacity: Some(lc.shard_capacity),
        ..stack::service_config()
    }
}

fn fresh_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    Ok(())
}

/// Bytes of every file in `dir`.
pub fn disk_bytes(dir: &Path) -> Result<u64, String> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))? {
        let meta = entry
            .and_then(|e| e.metadata())
            .map_err(|e| e.to_string())?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

fn answer(svc: &QueryService, q: &Req) -> Result<Bits, String> {
    stack::evaluate(svc, &q.query, q.eps).map(|r| Bits::of(&r))
}

/// Runs one cycle through the serving layer. With `fresh`, the live
/// service also answers the query set before it is dropped.
pub fn run(lc: &Lifecycle, fresh: bool) -> Result<Cycle, String> {
    fresh_dir(&lc.dir)?;
    let t = Instant::now();
    let live = QueryService::new(lc.pdb.clone(), config(lc));
    live.warm(lc.base_eps).map_err(|e| e.to_string())?;
    let full = live.snapshot().map_err(|e| e.to_string())?;
    let setup_s = t.elapsed().as_secs_f64();
    full.ok_or("the service has a store")?;

    live.warm(lc.append_eps).map_err(|e| e.to_string())?;
    let t = Instant::now();
    let incr = live
        .snapshot()
        .map_err(|e| e.to_string())?
        .ok_or("the service has a store")?;
    let incr_s = t.elapsed().as_secs_f64();
    let fresh = if fresh {
        Some(
            lc.queries
                .iter()
                .map(|q| answer(&live, q))
                .collect::<Result<Vec<_>, _>>()?,
        )
    } else {
        None
    };
    drop(live);

    let t = Instant::now();
    let reopened = QueryService::new(lc.pdb.clone(), config(lc));
    let mut answers = Vec::with_capacity(lc.queries.len());
    let mut latencies_us = Vec::with_capacity(lc.queries.len());
    let mut reopen_first_answer_s = 0.0;
    for (i, q) in lc.queries.iter().enumerate() {
        let tq = Instant::now();
        answers.push(answer(&reopened, q)?);
        latencies_us.push(tq.elapsed().as_secs_f64() * 1e6);
        if i == 0 {
            reopen_first_answer_s = t.elapsed().as_secs_f64();
        }
    }
    match reopened.store_status() {
        Some(StoreStatus::Ok { facts }) if facts as u64 == incr.facts => {}
        other => return Err(format!("reopen did not restore the snapshot: {other:?}")),
    }
    Ok(Cycle {
        setup_s,
        incr_s,
        reopen_first_answer_s,
        latencies_us,
        answers,
        fresh,
        disk_bytes: disk_bytes(&lc.dir)?,
        facts: incr.facts,
    })
}

/// What the traced cycle counted.
#[derive(Debug, Default, Clone, Copy)]
pub struct StoreWork {
    /// Bytes the two snapshots wrote.
    pub snapshot_bytes: u64,
    /// Shards the two snapshots wrote.
    pub shards_written: u64,
    /// Shards the incremental snapshot reused.
    pub shards_skipped: u64,
    /// Shards `Store::load` mapped.
    pub mmap_maps: u64,
    /// Facts the `ti.ground` spans pushed.
    pub ti_facts: u64,
    /// Nanoseconds the `ti.ground` spans took.
    pub ti_ns: u64,
    /// `Store::load` seconds.
    pub load_s: f64,
    /// `PreparedPdb::open` seconds.
    pub open_s: f64,
}

fn ground(
    rec: &mut Recorder,
    root: usize,
    pdb: &CountableTiPdb,
    catalog: &mut FactCatalog,
    to: usize,
    work: &mut StoreWork,
) -> Result<(), String> {
    let supply = pdb.supply();
    let from = catalog.len();
    let t = Instant::now();
    for i in from..to {
        catalog
            .push(supply.fact(i), supply.prob(i))
            .map_err(|e| e.to_string())?;
    }
    let end = Instant::now();
    rec.record("ti.ground", t, end, Some(root));
    work.ti_facts += (to - from) as u64;
    work.ti_ns += end.duration_since(t).as_nanos() as u64;
    Ok(())
}

fn snapshot(
    rec: &mut Recorder,
    root: usize,
    store: &Store,
    catalog: &FactCatalog,
    fp: u64,
    work: &mut StoreWork,
) -> Result<SnapshotInfo, String> {
    let t = Instant::now();
    let info = store
        .snapshot(catalog, Some(fp), None)
        .map_err(|e| e.to_string())?;
    rec.record("store.snapshot", t, Instant::now(), Some(root));
    work.snapshot_bytes += info.bytes;
    work.shards_written += info.shards_written as u64;
    work.shards_skipped += info.shards_skipped as u64;
    Ok(info)
}

/// The traced cycle: the same lifecycle driven through the layers'
/// public functions — `FactCatalog::push` (ti), `Store::snapshot`,
/// `Store::load` and `PreparedPdb::open` (store), then the reopen and
/// the answers through `QueryService` (serve). Returns the answers.
pub fn run_traced(
    lc: &Lifecycle,
    rec: &mut Recorder,
    work: &mut StoreWork,
) -> Result<Vec<Bits>, String> {
    fresh_dir(&lc.dir)?;
    let fp = countable_pdb_fingerprint(lc.pdb);
    let store = Store::open_dir(&lc.dir).with_shard_capacity(lc.shard_capacity);
    let base = eval_prefix_len(lc.pdb, lc.base_eps).map_err(|e| e.to_string())?;
    let appended = eval_prefix_len(lc.pdb, lc.append_eps).map_err(|e| e.to_string())?;

    let root = rec.open("lifecycle", None);
    let t_root = Instant::now();
    let mut catalog = FactCatalog::new(lc.pdb.schema().clone());
    ground(rec, root, lc.pdb, &mut catalog, base, work)?;
    snapshot(rec, root, &store, &catalog, fp, work)?;
    ground(rec, root, lc.pdb, &mut catalog, appended, work)?;
    snapshot(rec, root, &store, &catalog, fp, work)?;
    let t = Instant::now();
    drop(catalog);
    rec.record("ti.drop", t, Instant::now(), Some(root));

    let t = Instant::now();
    let loaded = store.load().map_err(|e| e.to_string())?;
    let end = Instant::now();
    rec.record("store.load", t, end, Some(root));
    work.load_s += end.duration_since(t).as_secs_f64();
    let loaded = loaded.ok_or("the store holds a snapshot")?;
    work.mmap_maps += loaded.report.mmap_maps;
    let t = Instant::now();
    drop(loaded);
    rec.record("store.drop", t, Instant::now(), Some(root));

    let t = Instant::now();
    let (prepared, report) = PreparedPdb::open(lc.pdb.clone(), &store, Some(fp));
    let end = Instant::now();
    rec.record("store.open", t, end, Some(root));
    work.open_s += end.duration_since(t).as_secs_f64();
    if !matches!(report.status, StoreStatus::Ok { .. }) {
        return Err(format!("store open: {:?}", report.status));
    }
    let t = Instant::now();
    drop(prepared);
    rec.record("store.drop", t, Instant::now(), Some(root));

    let t = Instant::now();
    let reopened = QueryService::new(lc.pdb.clone(), config(lc));
    rec.record("serve.reopen", t, Instant::now(), Some(root));
    let mut answers = Vec::with_capacity(lc.queries.len());
    for q in lc.queries {
        let t = Instant::now();
        answers.push(answer(&reopened, q)?);
        rec.record("serve.answer", t, Instant::now(), Some(root));
    }
    rec.close(root, t_root, Instant::now());
    Ok(answers)
}
