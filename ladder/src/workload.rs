//! Seeded request streams for `cold-mix` and `hot-repeat`, with the
//! closed forms the correctness gate checks answers against.

use std::collections::HashSet;

use infpdb_core::fact::Fact;
use infpdb_core::value::Value;
use infpdb_math::products::{prefix_product_one_minus, product_one_minus};
use infpdb_math::series::{FiniteSeries, ProbSeries, ScaledSeries, ZetaSeries};

use crate::kb::{self, Kb};
use crate::rng::Rng;

/// One request: a query template instance at a tolerance.
#[derive(Debug, Clone)]
pub struct Req {
    /// Template name (for accounting).
    pub template: &'static str,
    /// Query text.
    pub query: String,
    /// Requested ε.
    pub eps: f64,
    /// Certified enclosure of the true probability, where a closed form
    /// exists.
    pub closed: Option<(f64, f64)>,
    /// The query mentions only core facts, so `closed` is also its value
    /// over every prefix that holds the whole core: an exact engine must
    /// return it, not just an interval that meets it.
    pub core_only: bool,
}

/// The deepest ε of `cold-mix`: n(ε) reaches ~10⁴ tail facts.
pub const COLD_EPS_MIN: f64 = 1e-4;
/// The warm level of `cold-mix`: setup grounds n(ε) for this ε, so the
/// `deep` and `atom` templates' lower ε values grow the catalog mid-run.
pub const COLD_EPS_WARM: f64 = 1e-2;

/// Template weights of `cold-mix` (out of 100) and what each exercises.
const COLD_TEMPLATES: [(&str, u64); 9] = [
    // ∃x R(x) over the Basel tail: a new lowest ε grows the catalog;
    // single-fact Shannon fast path, closed form 1 − ∏(1 − pᵢ)
    ("deep", 10),
    // ground atoms with fresh constants: plan-cache misses, closed form
    ("atom", 14),
    // safe (hierarchical) join over F
    ("join", 14),
    // safe query with two fresh constants: compile + profile per request
    ("join-const", 10),
    // self-join pair: Shannon DAG with memo hits
    ("pair", 10),
    // block-diagonal grid: Shannon forks one task per block
    ("fork", 12),
    // two-component conjunction whose first component forks
    ("conj", 10),
    // negated grid at loose ε: Monte-Carlo
    ("mc-neg", 10),
    // positive grid at loose ε: sampling, Karp–Luby-eligible
    ("mc-pos", 10),
];

/// Absolute slack around a closed form computed in floating point: it
/// covers the rounding of products and sums over at most a few thousand
/// terms.
const SLACK: f64 = 1e-12;

/// The closed forms of the knowledge base. The Basel tail only extends
/// `R`, and no other relation mentions a tail constant, so every
/// template except the sampled grids has an exact value over the core.
pub struct Truth {
    core: infpdb_finite::tuple_independent::TiTable,
    exists_r: (f64, f64),
    join: f64,
    pair_u: f64,
    pair_v: f64,
    fork: f64,
}

impl Truth {
    /// Precomputes `P(∃x R(x))` over the completion with certified
    /// products (the core's finite product times the Basel tail's), and
    /// the exact values of the `join`, `pair`, `fork` and `conj` queries.
    pub fn new(kb: &Kb) -> Truth {
        let r = kb.core.schema().rel_id("R").expect("static relation");
        let core_r: Vec<f64> = kb
            .core
            .iter()
            .filter(|(_, f, _)| f.rel() == r)
            .map(|(_, _, p)| p)
            .collect();
        let n = core_r.len();
        let core =
            prefix_product_one_minus(&FiniteSeries::new(core_r).expect("probabilities"), n).prob();
        let tail = product_one_minus(&tail_series(), 64).expect("the Basel tail converges");
        // a relative slack covers the rounding of the finite product
        let lo = 1.0 - core * (1.0 + SLACK) * tail.hi();
        let hi = 1.0 - core * (1.0 - SLACK) * tail.lo();
        let mut truth = Truth {
            core: kb.core.clone(),
            exists_r: (lo.max(0.0), hi.min(1.0)),
            join: 0.0,
            pair_u: 0.0,
            pair_v: 0.0,
            fork: 0.0,
        };
        truth.join = truth.join();
        truth.pair_u = truth.at_least_two("U");
        truth.pair_v = truth.at_least_two("V");
        truth.fork = truth.fork();
        truth
    }

    /// Probability of a core fact (0 when absent).
    fn p(&self, rel: &str, args: &[i64]) -> f64 {
        let id = self.core.schema().rel_id(rel).expect("static relation");
        self.core
            .marginal(&Fact::new(id, args.iter().map(|&a| Value::int(a))))
    }

    /// The exact probability of a ground atom in the completion.
    fn atom(&self, rel: &str, args: &[i64]) -> (f64, f64) {
        let p = if rel == "R" && args[0] >= kb::TAIL_START {
            tail_series().term((args[0] - kb::TAIL_START) as usize)
        } else {
            self.p(rel, args)
        };
        (p, p)
    }

    /// `∃x, y F(x, y) ∧ T(y)`: independent over `y`.
    fn join(&self) -> f64 {
        let none = (0..kb::DOMAIN).fold(1.0, |acc, y| {
            let no_f = (0..kb::DOMAIN).fold(1.0, |a, x| a * (1.0 - self.p("F", &[x, y])));
            acc * (1.0 - self.p("T", &[y]) * (1.0 - no_f))
        });
        1.0 - none
    }

    /// `∃y F(a, y) ∧ F(b, y) ∧ T(y)`: independent over `y`; for `a = b`
    /// the two `F` atoms are one fact.
    fn join_const(&self, a: i64, b: i64) -> f64 {
        let none = (0..kb::DOMAIN).fold(1.0, |acc, y| {
            let both = if a == b {
                self.p("F", &[a, y])
            } else {
                self.p("F", &[a, y]) * self.p("F", &[b, y])
            };
            acc * (1.0 - both * self.p("T", &[y]))
        });
        1.0 - none
    }

    /// `∃x, y U(x) ∧ U(y) ∧ x ≠ y`: at least two facts of `rel`.
    fn at_least_two(&self, rel: &str) -> f64 {
        let ps: Vec<f64> = (0..kb::PAIR_FACTS).map(|x| self.p(rel, &[x])).collect();
        let none: f64 = ps.iter().map(|p| 1.0 - p).product();
        let one: f64 = (0..ps.len())
            .map(|i| {
                ps.iter()
                    .enumerate()
                    .map(|(j, &p)| if i == j { p } else { 1.0 - p })
                    .product::<f64>()
            })
            .sum();
        1.0 - none - one
    }

    /// `∃x, y R(x) ∧ S(x, y) ∧ T(y)`: `S` is block-diagonal, so blocks
    /// are independent; within a block, sum over the 2⁵ worlds of its
    /// `R` facts, and given those the `y` are independent.
    fn fork(&self) -> f64 {
        let side = kb::S_BLOCK;
        let none = (0..kb::S_BLOCKS).fold(1.0, |acc, b| {
            let xs: Vec<i64> = (0..side).map(|i| b * side + i).collect();
            let mut hit = 0.0;
            for world in 0u32..1 << side {
                let in_world = |i: usize| world >> i & 1 == 1;
                let p_world: f64 = xs
                    .iter()
                    .enumerate()
                    .map(|(i, &x)| {
                        let p = self.p("R", &[x]);
                        if in_world(i) {
                            p
                        } else {
                            1.0 - p
                        }
                    })
                    .product();
                let none_y = xs.iter().fold(1.0, |a, &y| {
                    let no_s = xs
                        .iter()
                        .enumerate()
                        .filter(|(i, _)| in_world(*i))
                        .fold(1.0, |a, (_, &x)| a * (1.0 - self.p("S", &[x, y])));
                    a * (1.0 - self.p("T", &[y]) * (1.0 - no_s))
                });
                hit += p_world * (1.0 - none_y);
            }
            acc * (1.0 - hit)
        });
        1.0 - none
    }
}

/// A point value widened by [`SLACK`].
fn around(p: f64) -> Option<(f64, f64)> {
    Some((p - SLACK, p + SLACK))
}

fn tail_series() -> ScaledSeries<ZetaSeries> {
    ScaledSeries::new(ZetaSeries::basel(), kb::TAIL_SCALE).expect("valid scale")
}

/// One instance of `template`: query text, closed form, and whether the
/// query mentions only core facts.
fn instance(
    template: &'static str,
    rng: &mut Rng,
    truth: &Truth,
) -> (String, Option<(f64, f64)>, bool) {
    let c = |rng: &mut Rng, n: i64| rng.below(n as u64) as i64;
    let mut tail = template == "deep";
    let (query, closed) = match template {
        "deep" => ("exists x. R(x)".into(), Some(truth.exists_r)),
        "atom" => match rng.below(4) {
            0 => {
                let x = c(rng, kb::DOMAIN);
                (format!("R({x})"), Some(truth.atom("R", &[x])))
            }
            1 => {
                // tail constants, log-uniform so some lie beyond n(ε)
                let i = rng.log_range(1.0, 20_000.0) as i64;
                let x = kb::TAIL_START + i;
                tail = true;
                (format!("R({x})"), Some(truth.atom("R", &[x])))
            }
            2 => {
                let (x, y) = (c(rng, kb::E_SIDE), c(rng, kb::E_SIDE));
                (format!("E({x}, {y})"), Some(truth.atom("E", &[x, y])))
            }
            _ => {
                let x = c(rng, 4 * kb::DOMAIN);
                (format!("T({x})"), Some(truth.atom("T", &[x])))
            }
        },
        "join" => ("exists x, y. F(x, y) /\\ T(y)".into(), around(truth.join)),
        "join-const" => {
            let (a, b) = (c(rng, kb::DOMAIN), c(rng, kb::DOMAIN));
            (
                format!("exists y. F({a}, y) /\\ F({b}, y) /\\ T(y)"),
                around(truth.join_const(a, b)),
            )
        }
        "pair" => (
            "exists x, y. U(x) /\\ U(y) /\\ x != y".into(),
            around(truth.pair_u),
        ),
        "fork" => (
            "exists x, y. R(x) /\\ S(x, y) /\\ T(y)".into(),
            around(truth.fork),
        ),
        "conj" => (
            "(exists x, y. R(x) /\\ S(x, y) /\\ T(y)) /\\ (exists x, y. V(x) /\\ V(y) /\\ x != y)"
                .into(),
            around(truth.fork * truth.pair_v),
        ),
        "mc-neg" => ("exists x, y. R(x) /\\ E(x, y) /\\ !T(y)".into(), None),
        "mc-pos" => ("exists x, y. R(x) /\\ E(x, y) /\\ T(y)".into(), None),
        other => unreachable!("unknown template {other}"),
    };
    let core_only = closed.is_some() && !tail;
    (query, closed, core_only)
}

/// The ε range of a template. Two-variable templates stay at ε ≥ 5e-3:
/// grounding is quadratic in the active domain, which the tail widens.
fn eps_range(template: &str) -> (f64, f64) {
    match template {
        "atom" | "deep" => (COLD_EPS_MIN, COLD_EPS_WARM),
        "join-const" => (1e-3, 2e-2),
        "mc-neg" | "mc-pos" => (0.25, 0.45),
        _ => (5e-3, 5e-2),
    }
}

/// The `cold-mix` stream: requests with pairwise-distinct (query, ε)
/// keys, generated on demand so a run never runs out of them. Every 100
/// requests hold each template exactly its weight's times, in seeded
/// order, and each request's ε is drawn from its template's fixed range,
/// so the mix does not depend on how many requests a run sends.
pub struct ColdStream {
    truth: Truth,
    rng: Rng,
    seen: HashSet<(String, u64)>,
    deck: Vec<&'static str>,
}

impl ColdStream {
    /// The stream for `seed`, plus one warm-up request per plan-cache
    /// template at an ε the stream never uses.
    pub fn new(kb: &Kb, seed: u64) -> (Vec<Req>, ColdStream) {
        let truth = Truth::new(kb);
        let mut rng = Rng::new(seed ^ 0xc01d_0001);
        let mut seen = HashSet::new();
        let mut warm = Vec::new();
        for (template, _) in COLD_TEMPLATES {
            if matches!(template, "atom" | "join-const") {
                continue;
            }
            let (query, closed, core_only) = instance(template, &mut rng, &truth);
            let eps = if template.starts_with("mc") {
                0.49
            } else {
                COLD_EPS_WARM
            };
            seen.insert((query.clone(), eps.to_bits()));
            warm.push(Req {
                template,
                query,
                eps,
                closed,
                core_only,
            });
        }
        let stream = ColdStream {
            truth,
            rng,
            seen,
            deck: Vec::new(),
        };
        (warm, stream)
    }
}

impl Iterator for ColdStream {
    type Item = Req;

    fn next(&mut self) -> Option<Req> {
        loop {
            if self.deck.is_empty() {
                for (template, weight) in COLD_TEMPLATES {
                    self.deck
                        .extend(std::iter::repeat_n(template, weight as usize));
                }
                self.rng.shuffle(&mut self.deck);
            }
            let template = self.deck.pop().expect("refilled above");
            let (query, closed, core_only) = instance(template, &mut self.rng, &self.truth);
            let (lo, hi) = eps_range(template);
            let eps = self.rng.log_range(lo, hi);
            if self.seen.insert((query.clone(), eps.to_bits())) {
                return Some(Req {
                    template,
                    query,
                    eps,
                    closed,
                    core_only,
                });
            }
        }
    }
}

/// Distinct queries in the `hot-repeat` pool.
pub const HOT_QUERIES: usize = 24;
/// ε values per `hot-repeat` query: `ε₀·2ʲ` for `j < HOT_EPS_STEPS`.
pub const HOT_EPS_STEPS: usize = 4;
/// The ε `hot-repeat` warms each pool query's plan at: outside the pool.
pub const HOT_WARM_EPS: f64 = 0.49;
/// Zipf exponent of `hot-repeat` key popularity.
pub const HOT_ZIPF: f64 = 1.1;

/// The `hot-repeat` key pool (`HOT_QUERIES × HOT_EPS_STEPS` keys, well
/// inside the 1024-entry result cache) in popularity order: `∃x R(x)`
/// first, then ground atoms; the seed picks constants and ε, so every
/// seed sends the same template mix. Misses cost well under a
/// millisecond, so the engines stay a small share while the cache fills.
pub fn hot_pool(kb: &Kb, seed: u64) -> Vec<Req> {
    let truth = Truth::new(kb);
    let mut rng = Rng::new(seed ^ 0x4070_0002);
    let mut queries: Vec<Req> = Vec::new();
    while queries.len() < HOT_QUERIES {
        let template = if queries.is_empty() { "deep" } else { "atom" };
        let (query, closed, core_only) = instance(template, &mut rng, &truth);
        if !queries.iter().any(|q| q.query == query) {
            let eps = rng.log_range(5e-3, 1e-2);
            queries.push(Req {
                template,
                query,
                eps,
                closed,
                core_only,
            });
        }
    }
    queries
        .iter()
        .flat_map(|q| {
            (0..HOT_EPS_STEPS).map(move |j| Req {
                eps: q.eps * f64::from(1u32 << j),
                ..q.clone()
            })
        })
        .collect()
}

/// `count` Zipf-distributed draws of pool indexes.
pub fn zipf_draws(pool: usize, count: usize, seed: u64) -> Vec<u32> {
    let weights: Vec<f64> = (0..pool)
        .map(|r| 1.0 / ((r + 1) as f64).powf(HOT_ZIPF))
        .collect();
    let total: f64 = weights.iter().sum();
    let mut cdf = Vec::with_capacity(pool);
    let mut acc = 0.0;
    for w in &weights {
        acc += w / total;
        cdf.push(acc);
    }
    let mut rng = Rng::new(seed ^ 0x21bf_0003);
    (0..count)
        .map(|_| {
            let u = rng.unit();
            cdf.partition_point(|&c| c < u).min(pool - 1) as u32
        })
        .collect()
}

/// The query set a request workload answers after reopening its store:
/// `∃x R(x)` first, then ground atoms, all with closed forms and at
/// ε ≥ `min_eps`, so the restored prefix answers them.
pub fn restart_queries(kb: &Kb, seed: u64, min_eps: f64) -> Vec<Req> {
    let truth = Truth::new(kb);
    let mut rng = Rng::new(seed ^ 0x5e0b_0004);
    let mut out = vec![Req {
        template: "deep",
        query: "exists x. R(x)".into(),
        eps: 2.0 * min_eps,
        closed: Some(truth.exists_r),
        core_only: false,
    }];
    while out.len() < 8 {
        let (query, closed, core_only) = instance("atom", &mut rng, &truth);
        out.push(Req {
            template: "atom",
            query,
            eps: rng.log_range(min_eps, 1e-2),
            closed,
            core_only,
        });
    }
    out
}
