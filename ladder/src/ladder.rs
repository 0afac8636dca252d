//! The traced replay's lower rungs: the query layer's planned execution
//! rebuilt from the public functions it is made of, so every step gets a
//! span.
//!
//! `execute_prepared_planned` is `eval_prefix_len` → `Planner::plan_at`
//! → `PreparedPdb::prefix_for` → `evaluate_plan`, and `evaluate_plan`
//! dispatches each component to its engine; [`Replica::execute`] calls
//! the same functions in the same order with the same arguments. Its
//! estimate must equal the service's bit for bit, which the replay
//! checks, so the spans time the work the service does.
//!
//! One span is a rung rather than a step: `math.kernel` repeats, after
//! the pipeline has run, the flat kernel call the Shannon engine makes
//! on a component whose lineage is one `Or` (or `And`) of facts — the
//! `deep` template's `∃x R(x)` over the prefix — on the same
//! probabilities in the same order. It is a child of that component's
//! `finite.engine.shannon` span and lies outside every ancestor's
//! interval, so the engine's self time is its work net of the kernel.
//! Components that reach the kernel only after Shannon expansion are
//! not timed.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use infpdb_finite::arena::{LineageArena, LineageNode};
use infpdb_finite::lineage::lineage_of_arena;
use infpdb_finite::plan::Strategy;
use infpdb_finite::shannon::{self, ParallelPolicy, ScopedExecutor};
use infpdb_finite::{karp_luby, lifted, monte_carlo};
use infpdb_logic::{CompiledQuery, Connective, Formula};
use infpdb_math::flat;
use infpdb_query::cancel::CancelToken;
use infpdb_query::planner::{eval_prefix_len, PlanKnobs, PlanProfile, Planner, ProfileOutcome};
use infpdb_query::prepared::{PreparedPdb, PreparedPrefix};
use infpdb_ti::construction::CountableTiPdb;

use crate::trace::Recorder;

/// Deterministic work the replica did.
#[derive(Debug, Default, Clone, Copy)]
pub struct Work {
    /// Facts the query layer added to the catalog.
    pub facts_grounded: u64,
    /// Lineage arena nodes built.
    pub arena_nodes: u64,
    /// Shannon expansions.
    pub shannon_expansions: u64,
    /// Shannon memo hits.
    pub memo_hits: u64,
    /// Samples drawn (Monte-Carlo and Karp–Luby).
    pub samples: u64,
    /// Components the parallel Shannon evaluator forked.
    pub forked: u64,
    /// Shannon components that fell back to sequential evaluation.
    pub fallback_seq: u64,
    /// Components per strategy: lifted, shannon, mc, kl.
    pub strategies: [u64; 4],
}

/// The query-layer twin of a served stack.
pub struct Replica {
    prepared: PreparedPdb,
    plans: HashMap<String, (Arc<CompiledQuery>, Arc<Planner>)>,
    knobs: PlanKnobs,
    parallelism: usize,
    /// Kernel inputs gathered from all-fact Shannon roots, with the
    /// span each one's rung belongs under; drained after the pipeline.
    kernels: Vec<(usize, bool, Vec<f64>)>,
    scratch: Vec<f64>,
    /// Work counters.
    pub work: Work,
}

impl Replica {
    /// A replica over `pdb`, warmed to the same level as the service.
    pub fn new(pdb: &CountableTiPdb, warm_eps: f64, parallelism: usize) -> Result<Self, String> {
        let prepared = PreparedPdb::new(pdb.clone());
        prepared.warm(warm_eps).map_err(|e| e.to_string())?;
        Ok(Replica {
            prepared,
            plans: HashMap::new(),
            knobs: PlanKnobs::default(),
            parallelism,
            kernels: Vec::new(),
            scratch: Vec::new(),
            work: Work::default(),
        })
    }

    /// Runs the query pipeline for one request under the `serve.evaluate`
    /// span `parent`. `compile` mirrors the service's plan-cache miss.
    pub fn execute(
        &mut self,
        rec: &mut Recorder,
        parent: usize,
        key: &str,
        query: &Formula,
        eps: f64,
        compile: bool,
    ) -> Result<f64, String> {
        let pdb = self.prepared.pdb().clone();
        if compile || !self.plans.contains_key(key) {
            let t = Instant::now();
            let compiled = CompiledQuery::compile(pdb.schema(), query);
            rec.record("logic.compile", t, Instant::now(), Some(parent));
            let t = Instant::now();
            let outcome = PlanProfile::build_prepared(
                &self.prepared,
                &compiled,
                &self.knobs,
                &CancelToken::new(),
            )
            .map_err(|e| e.to_string())?;
            rec.record("query.profile_build", t, Instant::now(), Some(parent));
            let ProfileOutcome::Ready(profile) = outcome else {
                return Err("profile build cancelled by a fresh token".into());
            };
            self.plans.insert(
                key.to_string(),
                (Arc::new(compiled), Arc::new(Planner::new(profile))),
            );
        }
        let (compiled, planner) = self.plans[key].clone();

        let exec = rec.open("query.execute", Some(parent));
        let t_exec = Instant::now();
        let t = Instant::now();
        let n_eval = eval_prefix_len(&pdb, eps).map_err(|e| e.to_string())?;
        rec.record("query.truncate", t, Instant::now(), Some(exec));
        let t = Instant::now();
        let (plan, _) = planner.plan_at(eps, n_eval, &self.knobs);
        rec.record("query.plan", t, Instant::now(), Some(exec));

        let before = self.prepared.materialized_len();
        let t = Instant::now();
        let sliced = self
            .prepared
            .prefix_for(plan.eps_trunc, &CancelToken::new())
            .map_err(|e| e.to_string())?;
        rec.record("query.prefix", t, Instant::now(), Some(exec));
        self.work.facts_grounded += (self.prepared.materialized_len() - before) as u64;
        let PreparedPrefix::Complete { table, .. } = sliced else {
            return Err("prefix cancelled by a fresh token".into());
        };

        let fin = rec.open("finite.evaluate", Some(exec));
        let t_fin = Instant::now();
        let mut acc = 1.0f64;
        let mut single = 0.0f64;
        for (comp, cplan) in compiled.components().iter().zip(&plan.components) {
            let p = match cplan.strategy {
                Strategy::Lifted => {
                    self.work.strategies[0] += 1;
                    let t = Instant::now();
                    let p = lifted::prob_hierarchical(comp.formula(), &table)
                        .map_err(|e| e.to_string())?;
                    rec.record("finite.engine.lifted", t, Instant::now(), Some(fin));
                    p
                }
                Strategy::Shannon => {
                    self.work.strategies[1] += 1;
                    self.shannon(rec, fin, comp.formula(), &table)?
                }
                Strategy::MonteCarlo { samples } => {
                    self.work.strategies[2] += 1;
                    self.work.samples += samples as u64;
                    let t = Instant::now();
                    let est = monte_carlo::estimate_parallel(
                        comp.formula(),
                        &table,
                        samples,
                        cplan.seed,
                        self.parallelism,
                    )
                    .map_err(|e| e.to_string())?;
                    rec.record("finite.engine.mc", t, Instant::now(), Some(fin));
                    est.estimate
                }
                Strategy::KarpLuby {
                    samples,
                    max_clauses,
                } => {
                    let t = Instant::now();
                    let mut arena = LineageArena::new();
                    let root = lineage_of_arena(comp.formula(), &table, &mut arena)
                        .map_err(|e| e.to_string())?;
                    rec.record("finite.lineage", t, Instant::now(), Some(fin));
                    self.work.arena_nodes += arena.stats().nodes as u64;
                    let t = Instant::now();
                    match karp_luby::to_dnf_arena(&arena, root, max_clauses) {
                        Some(dnf) => {
                            self.work.strategies[3] += 1;
                            self.work.samples += samples as u64;
                            let est = karp_luby::estimate_dnf_parallel(
                                &dnf,
                                &table,
                                samples,
                                cplan.seed,
                                self.parallelism,
                            );
                            rec.record("finite.engine.kl", t, Instant::now(), Some(fin));
                            est.estimate
                        }
                        // the program falls back to exact Shannon here too
                        None => {
                            self.work.strategies[1] += 1;
                            self.shannon(rec, fin, comp.formula(), &table)?
                        }
                    }
                }
            };
            match plan.connective {
                Connective::Single => single = p,
                Connective::And => acc *= p,
                Connective::Or => acc *= 1.0 - p,
            }
        }
        let estimate = match plan.connective {
            Connective::Single => single,
            Connective::And => acc,
            Connective::Or => 1.0 - acc,
        };
        let end = Instant::now();
        rec.close(fin, t_fin, end);
        rec.close(exec, t_exec, end);
        for (engine, is_and, probs) in std::mem::take(&mut self.kernels) {
            let t = Instant::now();
            std::hint::black_box(if is_and {
                flat::log_product(&probs, &mut self.scratch)
            } else {
                flat::log_product_one_minus(&probs, &mut self.scratch)
            });
            rec.record("math.kernel", t, Instant::now(), Some(engine));
        }
        Ok(estimate)
    }

    fn shannon(
        &mut self,
        rec: &mut Recorder,
        parent: usize,
        formula: &Formula,
        table: &infpdb_finite::tuple_independent::TiTable,
    ) -> Result<f64, String> {
        let t = Instant::now();
        let mut arena = LineageArena::new();
        let root = lineage_of_arena(formula, table, &mut arena).map_err(|e| e.to_string())?;
        rec.record("finite.lineage", t, Instant::now(), Some(parent));
        let kernel = all_fact_root(&arena, root, table);
        let engine = rec.open("finite.engine.shannon", Some(parent));
        let t = Instant::now();
        let probs = |id| table.prob(id);
        let (p, stats, nodes) = if self.parallelism >= 2 {
            let policy = ParallelPolicy::with_threads(self.parallelism);
            let exec = ScopedExecutor {
                threads: policy.threads,
            };
            let (p, stats, arena_stats, report) =
                shannon::probability_dag_parallel_exec(&mut arena, root, &probs, policy, &exec)
                    .ok_or("the scoped executor never skips tasks")?;
            self.work.forked += report.tasks as u64;
            self.work.fallback_seq += u64::from(report.fallback_seq);
            (p, stats, arena_stats.nodes)
        } else {
            let (p, stats) = shannon::probability_dag_with_stats(&mut arena, root, &probs);
            (p, stats, arena.stats().nodes)
        };
        rec.close(engine, t, Instant::now());
        if let Some((is_and, probs)) = kernel {
            self.kernels.push((engine, is_and, probs));
        }
        self.work.arena_nodes += nodes as u64;
        self.work.shannon_expansions += stats.expansions as u64;
        self.work.memo_hits += stats.cache_hits as u64;
        Ok(p)
    }
}

/// The probabilities the Shannon engine's flat kernel reads when the
/// lineage below any top-level negations is one `And` or `Or` of facts
/// (its sequential fast path), in the engine's order; `None` otherwise.
fn all_fact_root(
    arena: &LineageArena,
    mut root: infpdb_finite::arena::LineageId,
    table: &infpdb_finite::tuple_independent::TiTable,
) -> Option<(bool, Vec<f64>)> {
    while let LineageNode::Not(g) = arena.node(root) {
        root = *g;
    }
    let (is_and, children) = match arena.node(root) {
        LineageNode::And(gs) => (true, gs),
        LineageNode::Or(gs) => (false, gs),
        _ => return None,
    };
    let probs = children
        .iter()
        .map(|&c| match arena.node(c) {
            LineageNode::Var(v) => Some(table.prob(*v)),
            _ => None,
        })
        .collect::<Option<Vec<f64>>>()?;
    Some((is_and, probs))
}
