//! `store-reopen`: the store lifecycle on the Example 3.3 zeta PDB at
//! ~10⁶ facts, single-threaded, repeated for the run.

use std::path::Path;
use std::time::Instant;

use infpdb_math::products::product_one_minus;
use infpdb_math::series::ZetaSeries;
use infpdb_query::planner::eval_prefix_len;
use infpdb_ti::construction::CountableTiPdb;

use crate::kb;
use crate::lifecycle::{self, Lifecycle, StoreWork};
use crate::report::{median, quantile, rss_peak_mib, Outcome};
use crate::requests::{restart_gate, restart_metrics, LayerReport, RequestLayers};
use crate::rng::Rng;
use crate::trace::Recorder;
use crate::workload::Req;

/// Facts in the base prefix (about 10⁶).
pub const BASE_FACTS: usize = 1 << 20;
/// Facts the append adds: one shard.
pub const APPEND_FACTS: usize = 1 << 18;
/// Facts per shard file.
pub const SHARD_CAPACITY: u64 = 1 << 18;
/// Fewest lifecycles per run; `setup_s` and the store metrics are their
/// medians.
pub const MIN_CYCLES: usize = 7;
/// Queries answered after each reopen.
pub const QUERIES: usize = 100;

/// The largest ε whose prefix holds at least `facts` facts.
fn eps_for(pdb: &CountableTiPdb, facts: usize) -> Result<f64, String> {
    let n = |eps: f64| eval_prefix_len(pdb, eps).map_err(|e| e.to_string());
    let (mut lo, mut hi) = (1e-9f64, 0.5f64);
    for _ in 0..60 {
        let mid = (lo * hi).sqrt();
        if n(mid)? >= facts {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

fn p(k: i64) -> f64 {
    6.0 / (std::f64::consts::PI.powi(2) * (k * k) as f64)
}

/// The fixed query set, each query with a closed form: `∃x R(x)` over
/// most of the restored prefix at three ε (the first is the reopen's
/// first answer), then ground atoms and their Boolean combinations at ε
/// log-spaced from 1e-5 to 1e-2. The seed picks only the constants.
fn queries(seed: u64, min_eps: f64) -> Vec<Req> {
    let exists = product_one_minus(&ZetaSeries::basel(), 64).expect("the Basel series converges");
    let mut rng = Rng::new(seed ^ 0x570e_0005);
    let slack = 1e-12;
    let mut out: Vec<Req> = [1.5, 2.0, 3.0]
        .iter()
        .map(|k| Req {
            template: "deep",
            query: "exists x. R(x)".into(),
            eps: k * min_eps,
            closed: Some((1.0 - exists.hi() - slack, 1.0 - exists.lo() + slack)),
            core_only: false,
        })
        .collect();
    let deep = out.len();
    for i in deep..QUERIES {
        let a = 1 + rng.log_range(1.0, 2e6) as i64;
        let b = a + 1 + rng.log_range(1.0, 2e6) as i64;
        let (pa, pb) = (p(a), p(b));
        let (query, truth) = match i % 3 {
            0 => (format!("R({a})"), pa),
            1 => (format!("R({a}) /\\ R({b})"), pa * pb),
            _ => (format!("R({a}) \\/ !R({b})"), 1.0 - (1.0 - pa) * pb),
        };
        let t = (i - deep) as f64 / (QUERIES - deep - 1) as f64;
        out.push(Req {
            template: "atom",
            query,
            eps: 1e-5 * (1e-2f64 / 1e-5).powf(t),
            closed: Some((truth - slack, truth + slack)),
            core_only: false,
        });
    }
    out
}

/// Runs `store-reopen`.
pub fn run(seed: u64, seconds: f64, trace: bool, work: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let pdb = kb::zeta_pdb();
    let base_eps = eps_for(&pdb, BASE_FACTS)?;
    let append_eps = eps_for(&pdb, BASE_FACTS + APPEND_FACTS)?;
    let queries = queries(seed, append_eps);
    let dir = work.join("store");
    let lc = Lifecycle {
        pdb: &pdb,
        dir: dir.clone(),
        base_eps,
        append_eps,
        shard_capacity: SHARD_CAPACITY,
        queries: &queries,
    };
    out.note(format!(
        "inputs: zeta PDB, base prefix n = {} (ε = {base_eps:e}), append to n = {} \
         (ε = {append_eps:e}), shard capacity {SHARD_CAPACITY}, {} queries per reopen",
        eval_prefix_len(&pdb, base_eps).map_err(|e| e.to_string())?,
        eval_prefix_len(&pdb, append_eps).map_err(|e| e.to_string())?,
        queries.len()
    ));
    if trace {
        let mut rec = Recorder::new();
        let mut store = StoreWork::default();
        let answers = lifecycle::run_traced(&lc, &mut rec, &mut store)?;
        // the untraced cycle is the fresh-grounding reference
        let cycle = lifecycle::run(&lc, true)?;
        std::fs::remove_dir_all(&dir).ok();
        let fresh = cycle.fresh.as_ref().ok_or("fresh answers were asked for")?;
        for (q, (got, want)) in queries.iter().zip(answers.iter().zip(fresh)) {
            out.attempted += 1;
            if got != want {
                out.fail(format!(
                    "traced reopen of {} differs from fresh grounding",
                    q.query
                ));
            }
        }
        let mut layer = LayerReport::new(&rec, &mut out);
        layer.request_layers(&RequestLayers::default());
        layer.query_and_finite(&Default::default());
        layer.put(
            "ti.ground_facts_per_s",
            store.ti_facts as f64 / (store.ti_ns as f64 / 1e9).max(1e-9),
            "1/s",
        );
        layer.store(&store);
        layer.put("loadgen.lag_p99_us", 0.0, "us");
        layer.finish(work, "store-reopen")?;
        return Ok(out);
    }

    let start = Instant::now();
    let mut cycles = Vec::new();
    while cycles.len() < MIN_CYCLES || start.elapsed().as_secs_f64() < seconds {
        cycles.push(lifecycle::run(&lc, cycles.is_empty())?);
    }
    let wall = start.elapsed().as_secs_f64();
    std::fs::remove_dir_all(&dir).ok();
    restart_gate(&lc, &cycles, &mut out);
    let latencies: Vec<f64> = cycles.iter().flat_map(|c| c.latencies_us.clone()).collect();
    let answered = latencies.len() as f64 - out.failed as f64;
    out.note(format!(
        "{} cycles; {} answer latencies; facts persisted {}",
        cycles.len(),
        latencies.len(),
        cycles[0].facts
    ));
    out.metric(
        "setup_s",
        median(&cycles.iter().map(|c| c.setup_s).collect::<Vec<_>>()),
        "s",
    );
    out.metric("latency_p50_us", median(&latencies), "us");
    out.metric("latency_p99_us", quantile(&latencies, 0.99), "us");
    out.metric("throughput_qps", answered / wall, "1/s");
    out.metric("rss_peak_mib", rss_peak_mib(), "MiB");
    restart_metrics(&cycles, &mut out);
    Ok(out)
}
