//! The seeded knowledge base behind `cold-mix` and `hot-repeat`, and the
//! Example 3.3 zeta PDB behind `store-reopen`.
//!
//! The knowledge base is the Theorem 5.5 completion of a finite core
//! (`complete_ti_table`) with a slow Basel tail over `R`, so the
//! evaluation prefix grows from about 10² tail facts at ε = 1e-2 to
//! about 10⁴ at ε = 1e-4. Every core relation ranges over the constants
//! `0..DOMAIN`, so the active domain only widens with the tail.

use infpdb_core::fact::Fact;
use infpdb_core::schema::{RelId, Relation, Schema};
use infpdb_core::value::Value;
use infpdb_finite::tuple_independent::TiTable;
use infpdb_openworld::distributions::zeta_unary_tail;
use infpdb_openworld::independent_facts::complete_ti_table;
use infpdb_ti::construction::CountableTiPdb;
use infpdb_ti::enumerator::FactSupply;

use crate::rng::Rng;

/// Core constants.
pub const DOMAIN: i64 = 64;
/// `S` is block-diagonal: `S_BLOCKS` disjoint `S_BLOCK`×`S_BLOCK` blocks,
/// so the grid query over `S` splits into variable-disjoint components.
pub const S_BLOCKS: i64 = 4;
/// Side of one `S` block.
pub const S_BLOCK: i64 = 5;
/// Side of the dense, irregular `E` grid: too dense for the planner's
/// Shannon trial, so loose-ε grid queries over it sample.
pub const E_SIDE: i64 = 16;
/// Out-degree of every constant in the sparse binary relation `F`.
pub const F_DEGREE: usize = 10;
/// Facts in each of `U` and `V`.
pub const PAIR_FACTS: i64 = 20;
/// First constant of the Basel tail over `R`.
pub const TAIL_START: i64 = 1_000_000;
/// Scale of the Basel tail: tail fact `i` has probability
/// `TAIL_SCALE · 6/(π²(i+1)²)`.
pub const TAIL_SCALE: f64 = 0.9;

/// The generated core plus its completion.
pub struct Kb {
    /// The finite core.
    pub core: TiTable,
    /// The completion served to the program.
    pub pdb: CountableTiPdb,
}

/// Builds the seeded knowledge base: about 1.2k unary and binary core
/// facts.
pub fn build(seed: u64) -> Kb {
    let schema = Schema::from_relations([
        Relation::new("R", 1),
        Relation::new("T", 1),
        Relation::new("U", 1),
        Relation::new("V", 1),
        Relation::new("S", 2),
        Relation::new("E", 2),
        Relation::new("F", 2),
    ])
    .expect("static schema");
    let rel = |name: &str| schema.rel_id(name).expect("static relation");
    let mut rng = Rng::new(seed ^ 0x6b62_6b62);
    let mut core = TiTable::new(schema.clone());
    let mut add = |rel: RelId, args: &[i64], p: f64| {
        let fact = Fact::new(rel, args.iter().map(|&a| Value::int(a)));
        core.add_fact(fact, p)
            .expect("generated facts are distinct");
    };
    // The seed moves facts and probabilities around but keeps every
    // relation's size, degree sequence and probability multiset, so all
    // seeds give workloads of the same shape.
    let mut unary = |rel: RelId, n: i64, lo: f64, hi: f64, rng: &mut Rng| {
        for (i, p) in levels(n as usize, lo, hi, rng).into_iter().enumerate() {
            add(rel, &[i as i64], p);
        }
    };
    unary(rel("R"), DOMAIN, 0.002, 0.03, &mut rng);
    unary(rel("T"), DOMAIN, 0.2, 0.8, &mut rng);
    unary(rel("U"), PAIR_FACTS, 0.05, 0.5, &mut rng);
    unary(rel("V"), PAIR_FACTS, 0.05, 0.5, &mut rng);
    let mut binary = |rel: RelId, edges: Vec<(i64, i64)>, lo: f64, hi: f64, rng: &mut Rng| {
        let probs = levels(edges.len(), lo, hi, rng);
        for ((x, y), p) in edges.into_iter().zip(probs) {
            add(rel, &[x, y], p);
        }
    };
    // half of each S block's cells
    let mut s = Vec::new();
    for b in 0..S_BLOCKS {
        let cells = (S_BLOCK * S_BLOCK) as usize;
        for c in choose(cells, cells / 2, &mut rng) {
            let (x, y) = (c as i64 / S_BLOCK, c as i64 % S_BLOCK);
            s.push((b * S_BLOCK + x, b * S_BLOCK + y));
        }
    }
    binary(rel("S"), s, 0.1, 0.7, &mut rng);
    // row degrees spread over 20–80 % of the side, so the grid has no
    // symmetry to exploit
    let mut e = Vec::new();
    let degrees = levels(E_SIDE as usize, 0.2, 0.8, &mut rng);
    for (x, d) in degrees.into_iter().enumerate() {
        let k = (d * E_SIDE as f64).round() as usize;
        for y in choose(E_SIDE as usize, k, &mut rng) {
            e.push((x as i64, y as i64));
        }
    }
    binary(rel("E"), e, 0.1, 0.5, &mut rng);
    let mut f = Vec::new();
    for x in 0..DOMAIN {
        for y in choose(DOMAIN as usize, F_DEGREE, &mut rng) {
            f.push((x, y as i64));
        }
    }
    binary(rel("F"), f, 0.001, 0.05, &mut rng);
    let r = rel("R");
    let tail = zeta_unary_tail(schema, r, TAIL_START, TAIL_SCALE).expect("valid Basel tail");
    let pdb = complete_ti_table(&core, tail).expect("tail is disjoint from the core");
    Kb { core, pdb }
}

/// `n` evenly spaced values over `[lo, hi]` in seeded order.
fn levels(n: usize, lo: f64, hi: f64, rng: &mut Rng) -> Vec<f64> {
    let mut v: Vec<f64> = (0..n)
        .map(|i| lo + (hi - lo) * i as f64 / (n.max(2) - 1) as f64)
        .collect();
    rng.shuffle(&mut v);
    v
}

/// `k` distinct values of `0..n`, seeded.
fn choose(n: usize, k: usize, rng: &mut Rng) -> Vec<usize> {
    let mut v: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut v);
    v.truncate(k);
    v
}

/// The Example 3.3 distribution: `R(k)` with probability `6/(π² k²)`
/// for `k ≥ 1`, the Basel series over the naturals.
pub fn zeta_pdb() -> CountableTiPdb {
    let schema = Schema::from_relations([Relation::new("R", 1)]).expect("static schema");
    CountableTiPdb::new(FactSupply::unary_over_naturals(
        schema,
        RelId(0),
        infpdb_math::series::ZetaSeries::basel(),
    ))
    .expect("the Basel series converges")
}
