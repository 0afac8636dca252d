//! `cold-mix` and `hot-repeat`: request traffic through the HTTP front
//! door, then a restart of the served prefix through the store.

use std::collections::{HashMap, HashSet};
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use infpdb_logic::parse;
use infpdb_net::HttpServer;
use infpdb_serve::QueryService;

use crate::kb::{self, Kb};
use crate::ladder::Replica;
use crate::lifecycle::{self, Lifecycle, StoreWork};
use crate::report::{median, quantile, rss_peak_mib, Outcome};
use crate::stack::{self, Bits, Conn, WireAnswer};
use crate::trace::{Breakdown, Recorder, LAYERS};
use crate::workload::{self, ColdStream, Req};

/// Which request workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Closed loop over distinct keys: the engines do the work.
    Cold,
    /// Open loop over a small Zipf-skewed key pool: the front door and
    /// the result cache do the work.
    Hot,
}

/// Setups per run; `setup_s` is their median. The first serves the
/// measured loop; the rest are shared out between its slices.
pub const SETUP_REPEATS: usize = 9;
/// The measured loop runs in this many slices of equal length, with the
/// unmeasured work (the gate's reference evaluations, restart cycles and
/// further setups) shared out between them, so a run's figures sample a
/// shared machine across the whole run rather than one stretch of it.
pub const SLICES: usize = 8;
/// Offered rate of `hot-repeat`, below the cached path's saturation.
pub const HOT_RATE_QPS: f64 = 4000.0;
/// Requests the traced replay sends, single-threaded.
pub const COLD_TRACED: usize = 300;
/// Requests the traced replay sends on `hot-repeat`.
pub const HOT_TRACED: usize = 6000;
/// Restart cycles at the end of a request workload.
pub const RESTART_CYCLES: usize = 12;
/// Facts per shard when a request workload restarts its prefix.
pub const RESTART_SHARD_CAPACITY: u64 = 1 << 14;
/// (base, append) ε of the restart: about 9·10⁴ facts, then 1.8·10⁵.
pub const RESTART_EPS: (f64, f64) = (1e-5, 5e-6);

/// The generated inputs of one run.
struct Inputs {
    kind: Kind,
    seed: u64,
    kb: Kb,
    warm_eps: f64,
    warmups: Vec<Req>,
    /// `hot-repeat`'s key pool; `cold-mix` takes its keys from
    /// [`Inputs::stream`] instead.
    pool: Vec<Req>,
    /// `hot-repeat`'s draws from the pool, in sending order.
    order: Vec<u32>,
    restart: Vec<Req>,
}

fn inputs(kind: Kind, seed: u64, seconds: f64) -> Inputs {
    let kb = kb::build(seed);
    let restart = workload::restart_queries(&kb, seed, RESTART_EPS.1);
    match kind {
        Kind::Cold => {
            let (warmups, _) = ColdStream::new(&kb, seed);
            Inputs {
                kind,
                seed,
                warm_eps: workload::COLD_EPS_WARM,
                pool: Vec::new(),
                order: Vec::new(),
                kb,
                warmups,
                restart,
            }
        }
        Kind::Hot => {
            let pool = workload::hot_pool(&kb, seed);
            let max_eps = pool.iter().map(|k| k.eps).fold(0.0, f64::max);
            let count = (HOT_RATE_QPS * seconds.max(1.0) * 1.2) as usize + HOT_TRACED;
            // one request per pool query at an ε outside the pool builds
            // every planner profile during setup
            let mut warmups: Vec<Req> = Vec::new();
            for k in &pool {
                if !warmups.iter().any(|w| w.query == k.query) {
                    warmups.push(Req {
                        eps: workload::HOT_WARM_EPS,
                        ..k.clone()
                    });
                }
            }
            Inputs {
                kind,
                seed,
                order: workload::zipf_draws(pool.len(), count, seed),
                warm_eps: max_eps,
                kb,
                warmups,
                pool,
                restart,
            }
        }
    }
}

impl Inputs {
    /// `cold-mix`'s key stream, from its start.
    fn stream(&self) -> ColdStream {
        ColdStream::new(&self.kb, self.seed).1
    }

    /// The first `count` requests of the run as (keys, sending order).
    fn first(&self, count: usize) -> (Vec<Req>, Vec<u32>) {
        match self.kind {
            Kind::Cold => (
                self.stream().take(count).collect(),
                (0..count as u32).collect(),
            ),
            Kind::Hot => (self.pool.clone(), self.order[..count].to_vec()),
        }
    }
}

/// Builds the PDB and a served stack over it, then warms it: catalog to
/// the workload's largest ε, one request per plan-cache template.
fn setup(inp: &Inputs) -> Result<HttpServer, String> {
    let kb = kb::build(inp.seed);
    let service = stack::service(&kb.pdb);
    warm(&service, inp)?;
    stack::start_server(service)
}

/// Times one setup that serves nothing.
fn timed_setup(inp: &Inputs) -> Result<f64, String> {
    let t = Instant::now();
    let server = setup(inp)?;
    let s = t.elapsed().as_secs_f64();
    server.shutdown();
    Ok(s)
}

fn warm(service: &QueryService, inp: &Inputs) -> Result<(), String> {
    service.warm(inp.warm_eps).map_err(|e| e.to_string())?;
    for w in &inp.warmups {
        stack::evaluate(service, &w.query, w.eps)?;
    }
    Ok(())
}

/// One request as the load generator saw it.
struct Sample {
    key: u32,
    latency_us: f64,
    lag_us: f64,
    answer: Result<WireAnswer, String>,
}

/// What the measured loop sent and got back, over all its slices.
#[derive(Default)]
struct Driven {
    samples: Vec<Sample>,
    /// Wall time of the loop, s.
    wall: f64,
    /// The keys `Sample::key` indexes.
    keys: Vec<Req>,
}

/// Where the measured loop takes its requests from; carries over from
/// one slice of the loop to the next.
struct Feed {
    /// `cold-mix`: the stream of fresh keys.
    stream: ColdStream,
    /// `hot-repeat`: index of the next Zipf draw.
    next_draw: usize,
}

impl Feed {
    fn new(inp: &Inputs) -> Feed {
        Feed {
            stream: inp.stream(),
            next_draw: 0,
        }
    }
}

/// One slice of the measured loop: closed over `nproc` keep-alive
/// connections for `cold-mix`, taking keys from its stream as they are
/// sent; open over one connection for `hot-repeat`, whose µs-scale
/// cached path swings with every extra thread competing for the cores.
/// Appends to `d`.
fn drive(
    kind: Kind,
    server: &HttpServer,
    inp: &Inputs,
    seconds: f64,
    feed: &mut Feed,
    d: &mut Driven,
) -> Result<(), String> {
    let addr = server.addr();
    let clients = match kind {
        Kind::Cold => stack::nproc(),
        Kind::Hot => 1,
    };
    if kind == Kind::Hot && d.keys.is_empty() {
        d.keys = inp.pool.clone();
    }
    let first_draw = feed.next_draw;
    let stream = Mutex::new((&mut feed.stream, &mut d.keys));
    let pool_bodies: Vec<String> = inp
        .pool
        .iter()
        .map(|k| stack::body(&k.query, k.eps))
        .collect();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let client = |j: usize| -> Result<Vec<Sample>, String> {
        let conn = Conn::connect(addr)?;
        let mut out = Vec::new();
        // open loop: draw i is due at start + (i - first)/rate, dealt
        // round-robin to the clients
        let mut i = first_draw + j;
        loop {
            let (key, body, due) = match kind {
                Kind::Cold => {
                    let now = Instant::now();
                    if now >= end {
                        break;
                    }
                    let mut guard = stream.lock().map_err(|_| "stream lock poisoned")?;
                    let (gen, keys) = &mut *guard;
                    let req = gen.next().ok_or("the cold-mix stream is endless")?;
                    let body = stack::body(&req.query, req.eps);
                    keys.push(req);
                    ((keys.len() - 1) as u32, body, now)
                }
                Kind::Hot => {
                    let since = (i - first_draw) as f64 / HOT_RATE_QPS;
                    let due = start + Duration::from_secs_f64(since);
                    if due >= end {
                        break;
                    }
                    let key = *inp.order.get(i).ok_or("the Zipf draws ran out")?;
                    i += clients;
                    sleep_until(due);
                    (key, pool_bodies[key as usize].clone(), due)
                }
            };
            let sent = Instant::now();
            let answer = conn.query(&body).and_then(|b| stack::parse_answer(&b));
            let done = Instant::now();
            // Latency runs from the send. How late the request went out
            // after its due time is reported on its own as the
            // generator's lag: on a small shared machine it swings from
            // tens of µs to ms between runs of one seed.
            out.push(Sample {
                key,
                latency_us: done.duration_since(sent).as_secs_f64() * 1e6,
                lag_us: sent.duration_since(due).as_secs_f64() * 1e6,
                answer,
            });
        }
        Ok(out)
    };
    let per_client: Vec<Result<Vec<Sample>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|j| {
                let client = &client;
                scope.spawn(move || client(j))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    d.wall += start.elapsed().as_secs_f64();
    let before = d.samples.len();
    for s in per_client {
        d.samples.extend(s?);
    }
    // every draw due before the end was sent, so the sent draws are
    // exactly first_draw.. in order
    if kind == Kind::Hot {
        feed.next_draw += d.samples.len() - before;
    }
    Ok(())
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Checks a closed form against a certified interval: the enclosure of
/// the true value must meet the answer's interval.
fn closed_form_ok(req: &Req, bits: &Bits) -> bool {
    let (lo, hi) = bits.interval();
    req.closed
        .is_none_or(|(c_lo, c_hi)| c_hi >= lo - 1e-12 && c_lo <= hi + 1e-12)
}

/// Checks an answer against the exact value of a query that mentions
/// only core facts: when the prefix held the whole core and no component
/// was sampled, the estimate must be that value up to rounding.
fn exact_ok(req: &Req, a: &WireAnswer, core_facts: usize) -> bool {
    let sampled = a.plan[2] + a.plan[3] > 0;
    let Some((lo, hi)) = req
        .closed
        .filter(|_| req.core_only && !sampled && a.n >= core_facts)
    else {
        return true;
    };
    let est = f64::from_bits(a.bits.estimate);
    est >= lo - 1e-9 && est <= hi + 1e-9
}

/// The correctness gate's reference: a fresh in-process service, and
/// its answers to every key evaluated so far.
struct Reference {
    service: QueryService,
    expected: HashMap<u32, Bits>,
}

impl Reference {
    fn new(inp: &Inputs) -> Result<Reference, String> {
        let service = stack::service(&inp.kb.pdb);
        warm(&service, inp)?;
        Ok(Reference {
            service,
            expected: HashMap::new(),
        })
    }

    /// Evaluates every key of `samples` it has no answer for, in a
    /// closed loop of `nproc` callers that keeps every pool worker busy.
    fn evaluate(&mut self, keys: &[Req], samples: &[Sample]) -> Result<(), String> {
        let mut todo: Vec<u32> = Vec::new();
        let mut seen = HashSet::new();
        for s in samples {
            if s.answer.is_ok() && !self.expected.contains_key(&s.key) && seen.insert(s.key) {
                todo.push(s.key);
            }
        }
        let callers = stack::nproc();
        let service = &self.service;
        let per_caller: Vec<Result<Vec<(u32, Bits)>, String>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..callers)
                .map(|j| {
                    let todo = &todo;
                    scope.spawn(move || {
                        todo.iter()
                            .skip(j)
                            .step_by(callers)
                            .map(|&k| {
                                let req = &keys[k as usize];
                                stack::evaluate(service, &req.query, req.eps)
                                    .map(|resp| (k, Bits::of(&resp)))
                                    .map_err(|e| format!("reference evaluation: {e}"))
                            })
                            .collect()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|_| Err("gate thread panicked".into()))
                })
                .collect()
        });
        for bits in per_caller {
            self.expected.extend(bits?);
        }
        Ok(())
    }

    /// The correctness gate over evaluated samples: every answer
    /// bit-equal to the reference's, inside its closed form, and equal to
    /// it where the query's value is exact over the prefix. Returns the
    /// number of correct answers.
    fn judge(&self, inp: &Inputs, d: &Driven, out: &mut Outcome) -> u64 {
        let mut correct = 0;
        for s in &d.samples {
            let req = &d.keys[s.key as usize];
            match &s.answer {
                Err(e) => out.fail(format!("{} @ {:e}: {e}", req.query, req.eps)),
                Ok(a) if self.expected.get(&s.key) != Some(&a.bits) => out.fail(format!(
                    "{} @ {:e}: wire answer differs from in-process",
                    req.query, req.eps
                )),
                Ok(a) if !closed_form_ok(req, &a.bits) => out.fail(format!(
                    "{} @ {:e}: interval {:?} misses the closed form {:?}",
                    req.query,
                    req.eps,
                    a.bits.interval(),
                    req.closed
                )),
                Ok(a) if !exact_ok(req, a, inp.kb.core.len()) => out.fail(format!(
                    "{} @ {:e}: estimate {:e} is not the exact value {:?}",
                    req.query,
                    req.eps,
                    f64::from_bits(a.bits.estimate),
                    req.closed
                )),
                Ok(_) => correct += 1,
            }
        }
        correct
    }
}

/// Shares of the traffic each later change could target.
#[derive(Debug, Default)]
struct Mix {
    requests: u64,
    strategies: [u64; 4],
    grew_catalog: u64,
    result_hits: u64,
    subsumable: u64,
    forked: u64,
    fallback_seq: u64,
    /// Latencies per template.
    templates: std::collections::BTreeMap<&'static str, Vec<f64>>,
}

impl Mix {
    fn of(d: &Driven) -> Mix {
        let mut mix = Mix::default();
        let mut max_n = 0usize;
        let mut answered: HashMap<&str, f64> = HashMap::new();
        for s in &d.samples {
            let Ok(a) = &s.answer else { continue };
            let req = &d.keys[s.key as usize];
            mix.requests += 1;
            mix.templates
                .entry(req.template)
                .or_default()
                .push(s.latency_us);
            if a.cached {
                mix.result_hits += 1;
            } else {
                for (total, n) in mix.strategies.iter_mut().zip(a.plan) {
                    *total += n;
                }
                mix.forked += a.forked;
                mix.fallback_seq += u64::from(a.fallback_seq);
                if answered
                    .get(req.query.as_str())
                    .is_some_and(|&e| e <= req.eps)
                {
                    mix.subsumable += 1;
                }
            }
            if a.n > max_n {
                if max_n > 0 {
                    mix.grew_catalog += 1;
                }
                max_n = a.n;
            }
            let best = answered.entry(req.query.as_str()).or_insert(f64::INFINITY);
            *best = best.min(req.eps);
        }
        mix
    }

    fn frac(&self, x: u64) -> f64 {
        x as f64 / self.requests.max(1) as f64
    }

    fn note(&self, out: &mut Outcome, plan_hit_frac: f64) {
        let [l, s, m, k] = self.strategies;
        out.note(format!(
            "mix: {} requests; components lifted {l} shannon {s} mc {m} kl {k}; \
             catalog-growing {:.4}; result-cache hits {:.4}; plan-cache hits {:.4}; \
             subsumable misses {:.4}; forked components {}; sequential fallbacks {}",
            self.requests,
            self.frac(self.grew_catalog),
            self.frac(self.result_hits),
            plan_hit_frac,
            self.frac(self.subsumable),
            self.forked,
            self.fallback_seq
        ));
        let per: Vec<String> = self
            .templates
            .iter()
            .map(|(t, l)| format!("{t} {} ({:.0} us p50)", l.len(), median(l)))
            .collect();
        out.note(format!("templates: {}", per.join(", ")));
    }
}

fn plan_cache(service: &QueryService) -> (u64, u64) {
    let m = service.metrics();
    (
        m.plan_cache_hits.load(Ordering::Relaxed),
        m.plan_cache_misses.load(Ordering::Relaxed),
    )
}

/// Queue-wait histogram as (upper bound µs, cumulative count).
fn wait_buckets(service: &QueryService) -> Vec<(f64, u64)> {
    service
        .metrics_dump()
        .lines()
        .filter_map(|l| l.strip_prefix("serve_wait_micros_bucket{le=\""))
        .filter_map(|l| {
            let (le, count) = l.split_once("\"} ")?;
            let bound = match le.strip_suffix("us") {
                Some(us) => us.parse().ok()?,
                None => f64::INFINITY,
            };
            Some((bound, count.trim().parse().ok()?))
        })
        .collect()
}

/// Bucket upper bound at quantile `q` of the waits recorded between two
/// histogram reads.
fn wait_quantile(before: &[(f64, u64)], after: &[(f64, u64)], q: f64) -> f64 {
    let delta: Vec<(f64, u64)> = after
        .iter()
        .zip(before)
        .map(|((b, a), (_, z))| (*b, a - z))
        .collect();
    let total = delta.last().map_or(0, |d| d.1);
    let rank = (q * total as f64).ceil() as u64;
    delta
        .iter()
        .find(|(_, c)| *c >= rank.max(1))
        .map_or(0.0, |(b, _)| *b)
}

fn lifecycle<'a>(inp: &'a Inputs, dir: &Path) -> Lifecycle<'a> {
    Lifecycle {
        pdb: &inp.kb.pdb,
        dir: dir.to_path_buf(),
        base_eps: RESTART_EPS.0,
        append_eps: RESTART_EPS.1,
        shard_capacity: RESTART_SHARD_CAPACITY,
        queries: &inp.restart,
    }
}

/// Runs `cold-mix` or `hot-repeat`.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let t = Instant::now();
    let inp = inputs(kind, seed, seconds);
    let keys = match kind {
        Kind::Cold => "distinct keys generated as sent".to_string(),
        Kind::Hot => format!("a pool of {} keys", inp.pool.len()),
    };
    out.note(format!(
        "inputs: {} core facts, Basel tail over R from {} (scale {}), {keys} \
         vs result-cache capacity {}, generated in {:.3} s",
        inp.kb.core.len(),
        kb::TAIL_START,
        kb::TAIL_SCALE,
        stack::service_config().cache_capacity,
        t.elapsed().as_secs_f64()
    ));
    if trace {
        traced(kind, &inp, seconds, work, &mut out)?;
    } else {
        untraced(kind, &inp, seconds, work, &mut out)?;
    }
    Ok(out)
}

fn untraced(
    kind: Kind,
    inp: &Inputs,
    seconds: f64,
    work: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let t = Instant::now();
    let server = setup(inp)?;
    let mut setups = vec![t.elapsed().as_secs_f64()];
    let dir = work.join("restart");
    let lc = lifecycle(inp, &dir);
    let mut cycles = Vec::new();
    let mut feed = Feed::new(inp);
    let mut driven = Driven::default();
    let mut reference: Option<Reference> = None;
    let mut rss = 0.0;
    let plan_before = plan_cache(server.service());
    for slice in 0..SLICES {
        let from = driven.samples.len();
        drive(
            kind,
            &server,
            inp,
            seconds / SLICES as f64,
            &mut feed,
            &mut driven,
        )?;
        if slice == 0 {
            // the serving path's peak: before the gate's reference
            // service, the restart cycles and the further setups allocate
            rss = rss_peak_mib();
        }
        // the slice's share of the unmeasured work
        let reference = match &mut reference {
            Some(r) => r,
            None => reference.insert(Reference::new(inp)?),
        };
        reference.evaluate(&driven.keys, &driven.samples[from..])?;
        while cycles.len() < share(RESTART_CYCLES, slice) {
            cycles.push(lifecycle::run(&lc, cycles.is_empty())?);
        }
        while setups.len() < 1 + share(SETUP_REPEATS - 1, slice) {
            setups.push(timed_setup(inp)?);
        }
    }
    let plan_after = plan_cache(server.service());
    server.shutdown();
    out.attempted += driven.samples.len() as u64;
    let correct = reference.as_ref().map_or(0, |r| r.judge(inp, &driven, out));
    let mix = Mix::of(&driven);
    let (hits, misses) = (plan_after.0 - plan_before.0, plan_after.1 - plan_before.1);
    mix.note(out, hits as f64 / (hits + misses).max(1) as f64);
    restart_gate(&lc, &cycles, out);
    std::fs::remove_dir_all(&dir).ok();

    let samples = &driven.samples;
    let latencies: Vec<f64> = samples
        .iter()
        .filter(|s| s.answer.is_ok())
        .map(|s| s.latency_us)
        .collect();
    out.note(format!(
        "latency samples {} over {SLICES} slices, {} above p99; setup samples {}; \
         restart cycles {}",
        latencies.len(),
        latencies.len() / 100,
        setups.len(),
        cycles.len()
    ));
    let lags: Vec<f64> = samples.iter().map(|s| s.lag_us).collect();
    out.note(format!(
        "generator lag p50 {:.1} us, p99 {:.1} us",
        median(&lags),
        quantile(&lags, 0.99)
    ));
    out.metric("setup_s", median(&setups), "s");
    out.metric("latency_p50_us", median(&latencies), "us");
    out.metric("latency_p99_us", quantile(&latencies, 0.99), "us");
    out.metric("throughput_qps", correct as f64 / driven.wall, "1/s");
    out.metric("rss_peak_mib", rss, "MiB");
    restart_metrics(&cycles, out);
    Ok(())
}

/// How many of `total` items are done after slice `slice` when they are
/// shared out evenly over the slices.
fn share(total: usize, slice: usize) -> usize {
    total * (slice + 1) / SLICES
}

/// Reopened answers must equal fresh grounding's bit for bit and meet
/// their closed forms.
pub fn restart_gate(lc: &Lifecycle, cycles: &[lifecycle::Cycle], out: &mut Outcome) {
    let Some(fresh) = cycles.first().and_then(|c| c.fresh.as_ref()) else {
        out.fail("no fresh-grounding reference answers".into());
        return;
    };
    for c in cycles {
        for ((q, got), want) in lc.queries.iter().zip(&c.answers).zip(fresh) {
            out.attempted += 1;
            if got != want {
                out.fail(format!(
                    "{} @ {:e}: reopened answer differs from fresh grounding",
                    q.query, q.eps
                ));
            } else if !closed_form_ok(q, got) {
                out.fail(format!(
                    "{} @ {:e}: reopened interval misses the closed form",
                    q.query, q.eps
                ));
            }
        }
    }
}

/// The store metrics every workload reports, as medians over cycles.
pub fn restart_metrics(cycles: &[lifecycle::Cycle], out: &mut Outcome) {
    let of = |f: fn(&lifecycle::Cycle) -> f64| median(&cycles.iter().map(f).collect::<Vec<_>>());
    out.metric(
        "reopen_first_answer_s",
        of(|c| c.reopen_first_answer_s),
        "s",
    );
    out.metric("snapshot_incr_s", of(|c| c.incr_s), "s");
    out.metric(
        "store_bytes_per_fact",
        of(|c| c.disk_bytes as f64 / c.facts.max(1) as f64),
        "B/fact",
    );
}

/// One traced request down the ladder: HTTP on stack A; the in-process
/// service B as its rung; on a result-cache miss, the query pipeline on
/// replica C as B's rung.
struct Ladder {
    server: HttpServer,
    conn: Conn,
    twin: QueryService,
    replica: Replica,
    core_facts: usize,
}

fn traced(
    kind: Kind,
    inp: &Inputs,
    seconds: f64,
    work: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    // an untraced concurrent phase for what only load shows: queue waits,
    // generator lag, and the traffic mix
    let server = setup(inp)?;
    let waits_before = wait_buckets(server.service());
    let plan_before = plan_cache(server.service());
    let mut driven = Driven::default();
    drive(
        kind,
        &server,
        inp,
        (seconds / 2.0).max(1.0),
        &mut Feed::new(inp),
        &mut driven,
    )?;
    let plan_after = plan_cache(server.service());
    let waits_after = wait_buckets(server.service());
    server.shutdown();
    out.attempted += driven.samples.len() as u64;
    let mut reference = Reference::new(inp)?;
    reference.evaluate(&driven.keys, &driven.samples)?;
    reference.judge(inp, &driven, out);
    let (hits, misses) = (plan_after.0 - plan_before.0, plan_after.1 - plan_before.1);
    Mix::of(&driven).note(out, hits as f64 / (hits + misses).max(1) as f64);
    let lags: Vec<f64> = driven.samples.iter().map(|s| s.lag_us).collect();

    let server = setup(inp)?;
    let conn = Conn::connect(server.addr())?;
    let twin = stack::service(&inp.kb.pdb);
    warm(&twin, inp)?;
    let mut replica = Replica::new(&inp.kb.pdb, inp.warm_eps, stack::nproc())?;
    for w in &inp.warmups {
        let f = parse(&w.query, twin.pdb().schema()).map_err(|e| e.to_string())?;
        replica.execute(&mut Recorder::new(), 0, &w.query, &f, w.eps, true)?;
    }
    replica.work = Default::default();
    let mut ladder = Ladder {
        server,
        conn,
        twin,
        replica,
        core_facts: inp.kb.core.len(),
    };
    let mut rec = Recorder::new();
    let count = match kind {
        Kind::Cold => COLD_TRACED,
        Kind::Hot => HOT_TRACED,
    };
    let mut hits = 0u64;
    let mut bytes = Vec::new();
    let mut subsumable = 0u64;
    let mut answered: HashMap<String, f64> = HashMap::new();
    let (keys, order) = inp.first(count);
    let plan_before = plan_cache(&ladder.twin);
    for (i, &key) in order.iter().enumerate() {
        rec.set_request(i as u64);
        let req = &keys[key as usize];
        out.attempted += 1;
        match step(&mut ladder, &mut rec, req) {
            Ok(a) => {
                hits += u64::from(a.cached);
                bytes.push(a.body_bytes as f64);
                if !a.cached && answered.get(&req.query).is_some_and(|&e| e <= req.eps) {
                    subsumable += 1;
                }
            }
            Err(e) => out.fail(format!("traced {} @ {:e}: {e}", req.query, req.eps)),
        }
        let best = answered.entry(req.query.clone()).or_insert(f64::INFINITY);
        *best = best.min(req.eps);
    }
    let plan_after = plan_cache(&ladder.twin);
    let replica_work = ladder.replica.work;
    ladder.server.shutdown();

    let dir = work.join("restart");
    let lc = lifecycle(inp, &dir);
    let mut store = StoreWork::default();
    rec.set_request(count as u64);
    lifecycle::run_traced(&lc, &mut rec, &mut store)?;
    std::fs::remove_dir_all(&dir).ok();

    let (ph, pm) = (plan_after.0 - plan_before.0, plan_after.1 - plan_before.1);
    let n = count as f64;
    let mut layer = LayerReport::new(&rec, out);
    layer.request_layers(&RequestLayers {
        response_bytes: median(&bytes),
        result_cache_hit_frac: hits as f64 / n,
        subsumable_miss_frac: subsumable as f64 / n,
        plan_cache_hit_frac: ph as f64 / (ph + pm).max(1) as f64,
        queue_wait_p50_us: wait_quantile(&waits_before, &waits_after, 0.5),
        queue_wait_p99_us: wait_quantile(&waits_before, &waits_after, 0.99),
    });
    layer.query_and_finite(&replica_work);
    layer.put(
        "ti.ground_facts_per_s",
        store.ti_facts as f64 / (store.ti_ns as f64 / 1e9).max(1e-9),
        "1/s",
    );
    layer.store(&store);
    layer.put(
        "loadgen.lag_p99_us",
        if kind == Kind::Hot {
            quantile(&lags, 0.99)
        } else {
            0.0
        },
        "us",
    );
    layer.finish(work, kind_name(kind))?;
    Ok(())
}

fn kind_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Cold => "cold-mix",
        Kind::Hot => "hot-repeat",
    }
}

fn step(ladder: &mut Ladder, rec: &mut Recorder, req: &Req) -> Result<WireAnswer, String> {
    let t0 = Instant::now();
    let body = stack::body(&req.query, req.eps);
    let formula = parse(&req.query, ladder.twin.pdb().schema()).map_err(|e| e.to_string())?;
    let encode_ns = t0.elapsed().as_nanos() as u64;
    let root = rec.open("request", None);
    let http = rec.open("net.http", Some(root));
    let serve = rec.open("serve.evaluate", Some(http));

    // rung B: the in-process service in the same state as A
    let misses = plan_cache(&ladder.twin).1;
    let t = Instant::now();
    let resp = ladder
        .twin
        .evaluate(infpdb_serve::QueryRequest::new(formula.clone(), req.eps))
        .map_err(|e| e.to_string())?;
    rec.close(serve, t, Instant::now());
    let compiled = plan_cache(&ladder.twin).1 > misses;
    // rung C: the query pipeline, only where the service evaluated
    if !resp.cached {
        let est = ladder
            .replica
            .execute(rec, serve, &req.query, &formula, req.eps, compiled)?;
        if est.to_bits() != resp.approx.estimate.to_bits() {
            return Err("the query-layer replica diverged from the service".into());
        }
    }
    let t = Instant::now();
    let text = ladder.conn.query(&body)?;
    let t_http = Instant::now();
    rec.close(http, t, t_http);
    let answer = stack::parse_answer(&text)?;
    let expected = Bits::of(&resp);
    let ok = answer.bits == expected
        && closed_form_ok(req, &answer.bits)
        && exact_ok(req, &answer, ladder.core_facts);
    let decode_ns = t_http.elapsed().as_nanos() as u64;
    rec.close_dur(
        root,
        t - Duration::from_nanos(encode_ns),
        encode_ns + t_http.duration_since(t).as_nanos() as u64 + decode_ns,
    );
    if !ok {
        return Err(
            "wire answer differs from in-process, or misses or is not its closed form".into(),
        );
    }
    if answer.cached != resp.cached {
        return Err("the twin service's cache diverged from the served one".into());
    }
    Ok(answer)
}

/// Per-layer figures of the request path that do not come from spans.
#[derive(Debug, Default)]
pub struct RequestLayers {
    /// Median response body size.
    pub response_bytes: f64,
    /// Share of requests the result cache answered.
    pub result_cache_hit_frac: f64,
    /// Share of requests that missed although the cache held an answer
    /// for the same query at ε′ ≤ ε.
    pub subsumable_miss_frac: f64,
    /// Share of evaluations that reused a compiled plan.
    pub plan_cache_hit_frac: f64,
    /// Queue wait under load, median (histogram bucket bound).
    pub queue_wait_p50_us: f64,
    /// Queue wait under load, 99th percentile (histogram bucket bound).
    pub queue_wait_p99_us: f64,
}

/// Builds the per-layer metrics from a finished recording.
pub struct LayerReport<'a> {
    rec: &'a Recorder,
    breakdown: Breakdown,
    out: &'a mut Outcome,
}

impl<'a> LayerReport<'a> {
    /// Computes self times.
    pub fn new(rec: &'a Recorder, out: &'a mut Outcome) -> Self {
        LayerReport {
            breakdown: Breakdown::of(rec.spans(), None),
            rec,
            out,
        }
    }

    /// Adds a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.out.metric(name, value, unit);
    }

    /// Median self time (µs) of spans named `name`.
    pub fn self_median(&self, name: &str) -> f64 {
        median(&self.breakdown.self_us(self.rec.spans(), name))
    }

    /// The `net.*` and `serve.*` metrics.
    pub fn request_layers(&mut self, r: &RequestLayers) {
        let v = self.self_median("net.http");
        self.put("net.overhead_us", v, "us");
        self.put("net.response_bytes", r.response_bytes, "B");
        self.put(
            "serve.result_cache_hit_frac",
            r.result_cache_hit_frac,
            "frac",
        );
        self.put("serve.subsumable_miss_frac", r.subsumable_miss_frac, "frac");
        self.put("serve.plan_cache_hit_frac", r.plan_cache_hit_frac, "frac");
        self.put("serve.queue_wait_p50_us", r.queue_wait_p50_us, "us");
        self.put("serve.queue_wait_p99_us", r.queue_wait_p99_us, "us");
        let v = self.self_median("serve.evaluate");
        self.put("serve.overhead_us", v, "us");
    }

    fn dur_median(&self, name: &str) -> f64 {
        median(&Breakdown::durations_us(self.rec.spans(), name))
    }

    /// The `logic.*`, `query.*`, `finite.*` and `math.*` metrics.
    pub fn query_and_finite(&mut self, w: &crate::ladder::Work) {
        let us = |s: &Self, n: &str| s.dur_median(n);
        let v = us(self, "logic.compile");
        self.put("logic.compile_us", v, "us");
        for (metric, span) in [
            ("query.truncate_us", "query.truncate"),
            ("query.prefix_us", "query.prefix"),
            ("query.plan_us", "query.plan"),
            ("query.execute_us", "query.execute"),
            ("finite.lineage_us", "finite.lineage"),
            ("finite.engine_us.lifted", "finite.engine.lifted"),
            ("finite.engine_us.shannon", "finite.engine.shannon"),
            ("finite.engine_us.mc", "finite.engine.mc"),
            ("finite.engine_us.kl", "finite.engine.kl"),
            ("math.kernel_us", "math.kernel"),
        ] {
            let v = us(self, span);
            self.put(metric, v, "us");
        }
        let v = us(self, "query.profile_build") / 1e6;
        self.put("query.profile_build_s", v, "s");
        self.put("query.facts_grounded", w.facts_grounded as f64, "count");
        self.put("finite.arena_nodes", w.arena_nodes as f64, "count");
        self.put(
            "finite.shannon_expansions",
            w.shannon_expansions as f64,
            "count",
        );
        self.put(
            "finite.memo_hit_frac",
            w.memo_hits as f64 / (w.memo_hits + w.shannon_expansions).max(1) as f64,
            "frac",
        );
        self.put("finite.samples", w.samples as f64, "count");
        self.put("finite.forked_components", w.forked as f64, "count");
        self.put("finite.fallback_seq", w.fallback_seq as f64, "count");
        let [l, s, m, k] = w.strategies;
        self.out.note(format!(
            "traced mix: components lifted {l} shannon {s} mc {m} kl {k}"
        ));
    }

    /// The `store.*` metrics.
    pub fn store(&mut self, s: &StoreWork) {
        self.put("store.snapshot_bytes", s.snapshot_bytes as f64, "B");
        self.put("store.shards_written", s.shards_written as f64, "count");
        self.put("store.shards_skipped", s.shards_skipped as f64, "count");
        self.put("store.load_s", s.load_s, "s");
        self.put("store.open_s", s.open_s, "s");
        self.put("store.mmap_maps", s.mmap_maps as f64, "count");
    }

    /// Layer self-time shares, the tracing overhead, and the span dump.
    pub fn finish(mut self, work: &Path, workload: &str) -> Result<(), String> {
        let e2e = self.breakdown.e2e_ns.max(1) as f64;
        for l in LAYERS {
            let ns = self.breakdown.layer_self_ns[l] as f64;
            self.put(&format!("self_s.{l}"), ns / 1e9, "s");
        }
        let ns = self.breakdown.unattributed_ns() as f64;
        self.put("self_s.unattributed", ns / 1e9, "s");
        self.put("trace.e2e_s", e2e / 1e9, "s");
        for root in ["request", "lifecycle"] {
            let b = Breakdown::of(self.rec.spans(), Some(root));
            if b.e2e_ns == 0 {
                continue;
            }
            let share = |ns: i64| ns as f64 / b.e2e_ns as f64;
            let mut shares: Vec<String> = LAYERS
                .iter()
                .map(|l| format!("{l} {:.3}", share(b.layer_self_ns[l])))
                .collect();
            shares.push(format!("unattributed {:.3}", share(b.unattributed_ns())));
            self.out.note(format!(
                "self-time shares of the {root} spans ({:.3} s): {}",
                b.e2e_ns as f64 / 1e9,
                shares.join(", ")
            ));
        }
        // recording cost per span, measured on a scratch recorder
        let mut scratch = Recorder::new();
        let t = Instant::now();
        for _ in 0..100_000 {
            let now = Instant::now();
            scratch.record("calibrate", now, now, None);
        }
        let per_span_ns = t.elapsed().as_nanos() as f64 / 100_000.0;
        let v = per_span_ns * self.rec.spans().len() as f64 / e2e;
        self.put("trace.overhead_frac", v, "frac");
        std::fs::create_dir_all(work).map_err(|e| e.to_string())?;
        let path = work.join(format!("spans-{workload}.jsonl"));
        std::fs::write(&path, self.rec.jsonl()).map_err(|e| e.to_string())?;
        self.out.note(format!(
            "{} spans written to {}",
            self.rec.spans().len(),
            path.display()
        ));
        Ok(())
    }
}
