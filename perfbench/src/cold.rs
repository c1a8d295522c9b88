//! `cold-instances` and `cold-instances.zx`: every instance is new, so
//! the compile and ZX caches miss. The first builds, compiles and
//! grid-searches fresh instances on the pattern backend (the
//! disorder-average shape); the second builds a fresh `ZxBackend` per
//! instance and reads its `SimplifyReport` (the resource-table shape).

use crate::report::{geomean, mean, median, mismatch, Checks, Report};
use crate::trace::Tracer;
use mbqao_core::engine::{Backend, Executor, GateBackend, PatternBackend, ZxBackend};
use mbqao_core::{compile_qaoa, pattern_cache_stats, zx_cache_stats, CompileOptions, MixerKind};
use mbqao_problems::{generators, maxcut, mis, Graph, Qubo, ZPoly};
use mbqao_qaoa::QaoaAnsatz;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::f64::consts::PI;
use std::time::{Duration, Instant};

/// Instance families of the stream.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// Dense random QUBO, n = 8.
    Qubo8,
    /// Gaussian Sherrington–Kirkpatrick, n = 7.
    Sk7,
    /// MaxCut on a random 3-regular graph, n = 10.
    Reg3n10,
    /// MIS on an Erdős–Rényi G(n, m) graph, n = 7, m = 8, with the
    /// Sec. IV constraint-preserving mixer.
    MisEr7,
}

/// One round: every family at p = 1 and p = 2.
pub const ROUND: [(Kind, usize); 8] = [
    (Kind::Qubo8, 1),
    (Kind::Sk7, 1),
    (Kind::Reg3n10, 1),
    (Kind::MisEr7, 1),
    (Kind::Qubo8, 2),
    (Kind::Sk7, 2),
    (Kind::Reg3n10, 2),
    (Kind::MisEr7, 2),
];

pub struct Instance {
    pub cost: ZPoly,
    pub p: usize,
    pub options: CompileOptions,
}

impl Instance {
    /// The `index`-th instance of `kind` for `seed`.
    pub fn new(seed: u64, kind: Kind, p: usize, index: u64) -> Instance {
        let mut rng = StdRng::seed_from_u64(
            seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (index << 8) ^ kind as u64,
        );
        let (cost, options) = match kind {
            Kind::Qubo8 => (
                Qubo::random(8, 0.6, &mut rng).to_zpoly(),
                CompileOptions::default(),
            ),
            Kind::Sk7 => (
                generators::sherrington_kirkpatrick_gaussian(7, &mut rng).to_zpoly(),
                CompileOptions::default(),
            ),
            Kind::Reg3n10 => (
                maxcut::maxcut_zpoly(&generators::random_regular(10, 3, &mut rng)),
                CompileOptions::default(),
            ),
            Kind::MisEr7 => {
                let g = erdos_renyi_nm(7, 8, &mut rng);
                let options = CompileOptions {
                    mixer: MixerKind::Mis(g.clone()),
                    initial_basis_state: Some(mis::greedy_mis(&g)),
                    measure_outputs: false,
                };
                (mis::mis_objective(&g), options)
            }
        };
        Instance { cost, p, options }
    }

    /// The same ansatz on the gate model (the verification reference).
    fn gate(&self) -> GateBackend {
        match (&self.options.mixer, self.options.initial_basis_state) {
            (MixerKind::Mis(g), Some(initial)) => {
                GateBackend::new(QaoaAnsatz::mis(g, self.p, initial))
            }
            _ => GateBackend::standard(self.cost.clone(), self.p),
        }
    }
}

/// Uniform random graph with `n` vertices and exactly `m` edges. A
/// fixed edge count (rather than G(n, p)) keeps the MIS mixer's size,
/// and with it the per-instance compile and ZX cost, from swinging
/// between instances.
fn erdos_renyi_nm(n: usize, m: usize, rng: &mut StdRng) -> Graph {
    let mut pairs: Vec<(usize, usize)> = (0..n)
        .flat_map(|u| (u + 1..n).map(move |v| (u, v)))
        .collect();
    pairs.shuffle(rng);
    Graph::new(n, &pairs[..m])
}

/// Grid-search budget: steps per axis at depth `p`.
fn steps(p: usize) -> usize {
    if p == 1 {
        8
    } else {
        3
    }
}

fn search<B: Backend>(exec: &Executor<B>, p: usize) -> mbqao_qaoa::optimize::OptResult {
    exec.grid_search(&vec![0.0; 2 * p], &vec![PI; 2 * p], steps(p))
}

/// Which of the two operations a pass runs.
#[derive(Debug, Clone, Copy)]
pub struct Ops {
    pub instances: bool,
    pub reports: bool,
}

impl Ops {
    pub const INSTANCES: Ops = Ops {
        instances: true,
        reports: false,
    };
    pub const REPORTS: Ops = Ops {
        instances: false,
        reports: true,
    };
    pub const BOTH: Ops = Ops {
        instances: true,
        reports: true,
    };
}

#[derive(Default)]
pub struct PassOut {
    /// Instances/s and ZX reports/s of each round.
    pub round_instance_rates: Vec<f64>,
    pub round_report_rates: Vec<f64>,
    /// Time of every instance and every report, ms, per entry of
    /// [`ROUND`].
    pub instance_ms: [Vec<f64>; 8],
    pub report_ms: [Vec<f64>; 8],
    pub cache_hits: usize,
    pub cache_misses: usize,
    pub checks: Checks,
}

impl PassOut {
    /// Adds another pass's samples to this one.
    pub fn absorb(&mut self, other: PassOut) {
        self.round_instance_rates.extend(other.round_instance_rates);
        self.round_report_rates.extend(other.round_report_rates);
        for (mine, theirs) in self.instance_ms.iter_mut().zip(other.instance_ms) {
            mine.extend(theirs);
        }
        for (mine, theirs) in self.report_ms.iter_mut().zip(other.report_ms) {
            mine.extend(theirs);
        }
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.checks.merge(other.checks);
    }
}

/// `(hits, misses)` of the compiled-pattern and ZX caches together.
pub fn cache_totals() -> (usize, usize) {
    let (p, z) = (pattern_cache_stats(), zx_cache_stats());
    (p.hits + z.hits, p.misses + z.misses)
}

/// Runs rounds of fresh instances until `budget` ends (at least one).
/// `first_index` keeps instances of separate passes in one process
/// distinct, so each pass sees cold caches.
pub fn run_pass(
    seed: u64,
    first_index: u64,
    budget: Duration,
    tracer: &Tracer,
    ops: Ops,
) -> PassOut {
    let mut out = PassOut::default();
    let (hits0, misses0) = cache_totals();
    let start = Instant::now();
    let mut base = first_index;
    while base == first_index || start.elapsed() < budget {
        let (mut inst_s, mut rep_s) = (0.0, 0.0);
        let round = || ROUND.into_iter().enumerate().zip(base + 1..);
        for ((slot, (kind, p)), index) in round().filter(|_| ops.instances) {
            let t0 = Instant::now();
            let (inst, best) = if tracer.is_on() {
                traced_instance(seed, kind, p, index, tracer)
            } else {
                let inst = Instance::new(seed, kind, p, 2 * index);
                let exec =
                    Executor::new(PatternBackend::with_options(&inst.cost, p, &inst.options));
                let best = search(&exec, p);
                (inst, best)
            };
            let dt = t0.elapsed().as_secs_f64();
            inst_s += dt;
            out.instance_ms[slot].push(dt * 1e3);
            out.checks.op(verify(&inst, &best, kind));
        }
        for ((slot, (kind, p)), index) in round().filter(|_| ops.reports) {
            let t0 = Instant::now();
            tracer.span("zx.simplify", index, 0, |_| {
                let inst = Instance::new(seed, kind, p, 2 * index + 1);
                let zx = ZxBackend::with_options(&inst.cost, p, &inst.options);
                std::hint::black_box(zx.report().zx.max_live);
            });
            let dt = t0.elapsed().as_secs_f64();
            rep_s += dt;
            out.report_ms[slot].push(dt * 1e3);
            out.checks.op(None);
        }
        if ops.instances {
            out.round_instance_rates.push(ROUND.len() as f64 / inst_s);
        }
        if ops.reports {
            out.round_report_rates.push(ROUND.len() as f64 / rep_s);
        }
        base += ROUND.len() as u64;
    }
    let (hits1, misses1) = cache_totals();
    out.cache_hits = hits1 - hits0;
    out.cache_misses = misses1 - misses0;
    out
}

/// The traced instance pipeline: compile and schedule are called
/// directly (so each gets its own span) and the scheduled pattern is
/// searched as-is, without the cache in between.
fn traced_instance(
    seed: u64,
    kind: Kind,
    p: usize,
    index: u64,
    tracer: &Tracer,
) -> (Instance, mbqao_qaoa::optimize::OptResult) {
    tracer.span("instance", index, 0, |root| {
        let inst = Instance::new(seed, kind, p, 2 * index);
        let mut compiled = tracer.span("compiler.compile", index, root, |_| {
            compile_qaoa(&inst.cost, p, &inst.options)
        });
        compiled.pattern = tracer.span("mbqc.schedule", index, root, |_| {
            mbqao_mbqc::schedule::just_in_time(&compiled.pattern)
        });
        let exec = Executor::new(PatternBackend::from_compiled(compiled, inst.cost.clone()));
        let best = tracer.span("qaoa.search", index, root, |_| search(&exec, p));
        (inst, best)
    })
}

/// The pattern backend's best grid point must also be the gate model's.
fn verify(inst: &Instance, best: &mbqao_qaoa::optimize::OptResult, kind: Kind) -> Option<String> {
    let gate = Executor::new(inst.gate());
    let reference = search(&gate, inst.p);
    let what = format!("{kind:?} p={}", inst.p);
    mismatch(
        &format!("{what} best value"),
        best.value,
        reference.value,
        1e-8,
    )
    .or_else(|| {
        mismatch(
            &format!("{what} gate value at the pattern's best point"),
            gate.expectation(&best.params),
            reference.value,
            1e-8,
        )
    })
}

/// `ops_per_s` is instances/s or ZX reports/s (the geometric mean when
/// both ran); `op_latency_p50_ms` is the geometric mean, over the
/// (family, depth, operation) kinds that ran, of each kind's median time.
pub fn end_to_end(out: &PassOut) -> Report {
    let mut r = Report::default();
    let (mut rates, mut p50s) = (Vec::new(), Vec::new());
    for (rate_name, p50_name, rounds, times) in [
        (
            "instances_per_s",
            "instance_p50_ms",
            &out.round_instance_rates,
            &out.instance_ms,
        ),
        (
            "zx_reports_per_s",
            "zx_report_p50_ms",
            &out.round_report_rates,
            &out.report_ms,
        ),
    ] {
        if rounds.is_empty() {
            continue;
        }
        let kinds: Vec<f64> = times.iter().map(|t| median(t)).collect();
        r.add(rate_name, median(rounds), "1/s");
        r.add(p50_name, geomean(&kinds), "ms");
        r.add("cold_rounds", rounds.len() as f64, "count");
        rates.push(median(rounds));
        p50s.extend(kinds);
    }
    r.add("ops_per_s", geomean(&rates), "1/s");
    r.add("op_latency_p50_ms", geomean(&p50s), "ms");
    r
}

pub fn layers(out: &PassOut, tracer: &Tracer) -> Report {
    let mut r = Report::default();
    for (metric, span) in [
        ("compiler.compile_us", "compiler.compile"),
        ("mbqc.schedule_us", "mbqc.schedule"),
        ("qaoa.search_us", "qaoa.search"),
        ("zx.simplify_us", "zx.simplify"),
    ] {
        r.add(metric, median(&tracer.durations_us(span)), "us");
    }
    r.add(
        "cold.instance_self_us",
        median(&tracer.self_times_us("instance")),
        "us",
    );
    let lookups = (out.cache_hits + out.cache_misses).max(1);
    r.add(
        "cache.miss_rate",
        out.cache_misses as f64 / lookups as f64,
        "ratio",
    );
    r
}

/// Deterministic work counters of the first round of `seed`'s stream:
/// grid evaluations and ZX nodes removed per instance.
pub fn counters(seed: u64, ops: Ops) -> Report {
    let mut r = Report::default();
    let first_round = || ROUND.into_iter().zip(1u64..);
    if ops.instances {
        let evals: Vec<f64> = first_round()
            .map(|((kind, p), index)| {
                let inst = Instance::new(seed, kind, p, 2 * index);
                let exec =
                    Executor::new(PatternBackend::with_options(&inst.cost, p, &inst.options));
                search(&exec, p).evals as f64
            })
            .collect();
        r.add("qaoa.evals", mean(&evals), "count");
    }
    if ops.reports {
        let removed: Vec<f64> = first_round()
            .map(|((kind, p), index)| {
                let inst = Instance::new(seed, kind, p, 2 * index + 1);
                let zx = ZxBackend::with_options(&inst.cost, p, &inst.options);
                zx.report().node_savings() as f64
            })
            .collect();
        r.add("zx.nodes_removed", mean(&removed), "count");
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_repeat_for_the_same_seed() {
        let _guard = crate::tests::CACHE_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let a = counters(9, Ops::BOTH);
        let b = counters(9, Ops::BOTH);
        for name in ["qaoa.evals", "zx.nodes_removed"] {
            assert_eq!(a.get(name), b.get(name), "{name}");
        }
    }

    #[test]
    fn a_fresh_stream_misses_every_cache_lookup() {
        let _guard = crate::tests::CACHE_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let out = run_pass(11, 0, Duration::ZERO, &Tracer::new(false), Ops::BOTH);
        assert_eq!(out.cache_hits, 0);
        assert!(out.cache_misses >= ROUND.len());
        assert_eq!(out.checks.failed, 0, "{:?}", out.checks.failures());
    }
}
