//! `eval-kernels`: `⟨C⟩` evals/s through `Executor::expectation_batch`
//! on each backend's fixed family list, with warm caches.
//!
//! Every value is checked against the gate-model reference: the gate
//! backend itself on the statevector families, and a light-cone
//! decomposition simulated on the gate backend for the n = 64 / 128
//! tableau families (too wide for a statevector).

use crate::report::{geomean, median, mismatch, Checks, Report};
use crate::trace::Tracer;
use mbqao_bench::standard_families;
use mbqao_bench::sweep::BackendKind;
use mbqao_core::engine::{Backend, Executor, GateBackend, PatternBackend, PauliBackend, ZxBackend};
use mbqao_mbqc::{Command, Pattern};
use mbqao_problems::{generators, maxcut, ZPoly};
use mbqao_sim::QubitId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::f64::consts::{FRAC_PI_4, PI};
use std::time::{Duration, Instant};

/// Backends in report order.
pub const BACKENDS: [BackendKind; 4] = [
    BackendKind::Gate,
    BackendKind::Pattern,
    BackendKind::Pauli,
    BackendKind::Zx,
];

/// Parameter points per `expectation_batch` call (ZX evals are ~1000×
/// slower, so its batches are halved).
fn batch(kind: BackendKind) -> usize {
    match kind {
        BackendKind::Zx => 2,
        _ => 4,
    }
}

/// Agreement required with the gate-model reference.
const TOL: f64 = 1e-8;

/// One (backend, instance, depth) entry of a backend's family list.
pub struct Spec {
    pub kind: BackendKind,
    pub label: String,
    pub cost: ZPoly,
    pub p: usize,
    pub points: Vec<Vec<f64>>,
}

/// The fixed family lists, with instances and points drawn from `seed`.
pub fn specs(seed: u64) -> Vec<Spec> {
    let fams = standard_families(seed);
    let family = |name: &str| {
        fams.iter()
            .find(|f| f.name == name)
            .expect("standard family")
            .cost
            .clone()
    };
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE7A1);
    let mut list: Vec<(BackendKind, String, ZPoly, usize)> = Vec::new();
    for kind in [BackendKind::Gate, BackendKind::Pattern] {
        for name in ["petersen", "grid3x3", "SK7", "3reg8"] {
            list.push((kind, name.into(), family(name), 2));
        }
        let c16 = maxcut::maxcut_zpoly(&generators::cycle(16));
        list.push((kind, "C16".into(), c16, 1));
    }
    for n in [64usize, 128] {
        list.push((
            BackendKind::Pauli,
            format!("C{n}+chord"),
            ring_with_chord(n, &mut rng),
            1,
        ));
    }
    for name in ["C8", "K6", "petersen"] {
        list.push((BackendKind::Zx, name.into(), family(name), 2));
    }
    list.into_iter()
        .map(|(kind, label, cost, p)| {
            let points = (0..batch(kind))
                .map(|_| match kind {
                    // γ = β = π/4 keeps exactly one non-Clifford
                    // measurement (the chord).
                    BackendKind::Pauli => vec![FRAC_PI_4; 2 * p],
                    _ => (0..2 * p).map(|_| rng.gen_range(0.0..PI)).collect(),
                })
                .collect();
            Spec {
                kind,
                label,
                cost,
                p,
                points,
            }
        })
        .collect()
}

/// Unit-weight ring on `n` vertices plus one golden-ratio chord between
/// two non-adjacent vertices drawn from `rng`.
fn ring_with_chord(n: usize, rng: &mut StdRng) -> ZPoly {
    let phi = 1.618_033_988_749_895f64;
    let u = rng.gen_range(0..n);
    let v = (u + rng.gen_range(2..n - 1)) % n;
    let mut terms: Vec<(Vec<usize>, f64)> = (0..n).map(|v| (vec![v, (v + 1) % n], 1.0)).collect();
    terms.push((vec![u.min(v), u.max(v)], phi));
    ZPoly::new(n, 0.0, terms)
}

/// A spec with its executor, warmed up.
pub struct Item {
    pub spec: Spec,
    exec: Executor<Box<dyn Backend>>,
    /// Dense cost vector and wire order for the split prepare/reduce
    /// timing (statevector backends only).
    cost_vector: Vec<f64>,
    wires: Vec<QubitId>,
}

/// Builds the backends of `kinds` and runs one eval each, so
/// compilation, ZX extraction and cost vectors are done before timing.
pub fn setup(seed: u64, kinds: &[BackendKind]) -> Vec<Item> {
    specs(seed)
        .into_iter()
        .filter(|s| kinds.contains(&s.kind))
        .map(|spec| {
            let exec = Executor::new(spec.kind.build(&spec.cost, spec.p));
            std::hint::black_box(exec.expectation(&spec.points[0]));
            let (cost_vector, wires) = match spec.kind {
                BackendKind::Pauli => (Vec::new(), Vec::new()),
                _ => (spec.cost.cost_vector_msb(), exec.backend().variable_wires()),
            };
            Item {
                spec,
                exec,
                cost_vector,
                wires,
            }
        })
        .collect()
}

/// Gate-model reference values for every point of every item.
pub fn references(items: &[Item]) -> Vec<Vec<f64>> {
    items
        .iter()
        .map(|item| {
            let s = &item.spec;
            match s.kind {
                BackendKind::Pauli => s
                    .points
                    .iter()
                    .map(|pt| light_cone_reference(&s.cost, pt))
                    .collect(),
                _ => {
                    let gate = GateBackend::standard(s.cost.clone(), s.p);
                    s.points.iter().map(|pt| gate.expectation(pt)).collect()
                }
            }
        })
        .collect()
}

/// `⟨C⟩` at depth 1 for a cost made only of two-body ZZ terms: each
/// `⟨Z_a Z_b⟩` depends only on the terms touching `a` or `b`, so it is
/// simulated on the gate backend over that light cone alone.
pub fn light_cone_reference(cost: &ZPoly, params: &[f64]) -> f64 {
    let mut total = cost.constant();
    for (support, w) in cost.terms() {
        assert_eq!(support.len(), 2, "light-cone reference needs ZZ terms");
        let (a, b) = (support[0], support[1]);
        let touching: Vec<&(Vec<usize>, f64)> = cost
            .terms()
            .iter()
            .filter(|(s, _)| s.contains(&a) || s.contains(&b))
            .collect();
        let mut qubits: Vec<usize> = touching.iter().flat_map(|(s, _)| s.clone()).collect();
        qubits.sort_unstable();
        qubits.dedup();
        let local = |v: usize| qubits.binary_search(&v).expect("qubit in light cone");
        let sub = ZPoly::new(
            qubits.len(),
            0.0,
            touching
                .iter()
                .map(|(s, w)| (s.iter().map(|&v| local(v)).collect(), *w))
                .collect(),
        );
        let zz = ZPoly::new(qubits.len(), 0.0, vec![(vec![local(a), local(b)], 1.0)]);
        let gate = GateBackend::standard(sub, 1);
        let state = gate.prepare(params);
        total += w * state.expectation_diag(&gate.variable_wires(), &zz.cost_vector_msb());
    }
    total
}

/// What one pass measured, per backend (index into [`BACKENDS`]).
#[derive(Default)]
pub struct PassOut {
    /// Evals/s of each pass over a backend's family list (evals over
    /// the time spent inside its batch calls).
    pub list_rates: [Vec<f64>; 4],
    /// Duration of every batch call, ms, per item.
    pub call_ms: Vec<Vec<f64>>,
    /// Batch time and single-threaded pointwise time (traced only), s.
    pub batch_s: [f64; 4],
    pub sequential_s: [f64; 4],
    pub checks: Checks,
}

impl PassOut {
    /// Adds another pass's samples to this one.
    pub fn absorb(&mut self, other: PassOut) {
        for b in 0..4 {
            self.list_rates[b].extend_from_slice(&other.list_rates[b]);
            self.batch_s[b] += other.batch_s[b];
            self.sequential_s[b] += other.sequential_s[b];
        }
        self.call_ms.resize_with(other.call_ms.len(), Vec::new);
        for (mine, theirs) in self.call_ms.iter_mut().zip(other.call_ms) {
            mine.extend(theirs);
        }
        self.checks.merge(other.checks);
    }
}

fn slot(kind: BackendKind) -> usize {
    BACKENDS
        .iter()
        .position(|&b| b == kind)
        .expect("known backend")
}

/// Share of a pass's time each backend gets (ZX evals are the slowest,
/// so it gets more to collect a comparable number of list passes).
const SHARE: [f64; 4] = [0.2, 0.2, 0.2, 0.4];

/// Evaluates backend family lists until `budget` ends, always next the
/// backend furthest behind its time share (at least one list pass for
/// each backend present in `items`). Traced, each point's prepare and reduce are timed separately
/// and a single-threaded pass over the same points gives the
/// batch-efficiency baseline (outside the rates).
pub fn run_pass(items: &[Item], refs: &[Vec<f64>], budget: Duration, tracer: &Tracer) -> PassOut {
    let mut out = PassOut {
        call_ms: vec![Vec::new(); items.len()],
        ..PassOut::default()
    };
    let present: Vec<usize> = (0..4)
        .filter(|&b| items.iter().any(|i| slot(i.spec.kind) == b))
        .collect();
    let start = Instant::now();
    let mut busy = [0.0f64; 4];
    let mut call_id = 0u64;
    loop {
        let done = present.iter().all(|&b| !out.list_rates[b].is_empty());
        if done && start.elapsed() >= budget {
            return out;
        }
        let b = *present
            .iter()
            .min_by(|&&x, &&y| (busy[x] / SHARE[x]).total_cmp(&(busy[y] / SHARE[y])))
            .expect("at least one backend");
        let (mut list_s, mut evals) = (0.0, 0usize);
        for (i, (item, want)) in items.iter().zip(refs).enumerate() {
            if slot(item.spec.kind) != b {
                continue;
            }
            call_id += 1;
            let t0 = Instant::now();
            let values = if tracer.is_on() {
                traced_batch(item, tracer, call_id)
            } else {
                item.exec.expectation_batch(&item.spec.points)
            };
            let dt = t0.elapsed().as_secs_f64();
            list_s += dt;
            evals += values.len();
            out.call_ms[i].push(dt * 1e3);
            for (j, (&got, &w)) in values.iter().zip(want).enumerate() {
                let what = format!("{}/{} point {j}", item.spec.kind.name(), item.spec.label);
                out.checks.op(mismatch(&what, got, w, TOL));
            }
            if tracer.is_on() {
                out.batch_s[b] += dt;
                let t1 = Instant::now();
                for pt in &item.spec.points {
                    std::hint::black_box(item.exec.expectation(pt));
                }
                out.sequential_s[b] += t1.elapsed().as_secs_f64();
            }
        }
        busy[b] += list_s;
        out.list_rates[b].push(evals as f64 / list_s);
    }
}

/// `expectation_batch` with a span per batch, per point, and per
/// prepare / reduce (or tableau eval) inside it.
fn traced_batch(item: &Item, tracer: &Tracer, call_id: u64) -> Vec<f64> {
    let backend = item.exec.backend();
    let prepare_span = match item.spec.kind {
        BackendKind::Gate => "sim.prepare",
        BackendKind::Pattern => "mbqc.prepare",
        BackendKind::Zx => "zx.prepare",
        BackendKind::Pauli => "tableau.eval",
    };
    tracer.span("engine.batch", call_id, 0, |batch| {
        item.spec
            .points
            .par_iter()
            .map(|pt| {
                tracer.span("eval", call_id, batch, |eval| {
                    if item.spec.kind == BackendKind::Pauli {
                        return tracer
                            .span(prepare_span, call_id, eval, |_| backend.expectation(pt));
                    }
                    let state = tracer.span(prepare_span, call_id, eval, |_| backend.prepare(pt));
                    tracer.span("sim.reduce", call_id, eval, |_| {
                        state.expectation_diag(&item.wires, &item.cost_vector)
                    })
                })
            })
            .collect()
    })
}

/// End-to-end metrics of an untraced pass. `ops_per_s` is the backend's
/// evals/s (the geometric mean when several backends ran);
/// `op_latency_p50_ms` is the geometric mean over items of each item's
/// median batch-call time.
pub fn end_to_end(items: &[Item], out: &PassOut) -> Report {
    let mut r = Report::default();
    let mut rates = Vec::new();
    for (b, kind) in BACKENDS.iter().enumerate() {
        if out.list_rates[b].is_empty() {
            continue;
        }
        let rate = median(&out.list_rates[b]);
        r.add(format!("evals_per_s.{}", kind.name()), rate, "1/s");
        r.add(
            format!("eval_list_passes.{}", kind.name()),
            out.list_rates[b].len() as f64,
            "count",
        );
        rates.push(rate);
    }
    let p50s: Vec<f64> = out.call_ms.iter().map(|c| median(c)).collect();
    for (item, p50) in items.iter().zip(&p50s) {
        let s = &item.spec;
        r.add(
            format!("batch_p50_ms.{}.{}", s.kind.name(), s.label),
            *p50,
            "ms",
        );
    }
    r.add("ops_per_s", geomean(&rates), "1/s");
    r.add("op_latency_p50_ms", geomean(&p50s), "ms");
    r
}

/// Per-layer metrics of a traced pass.
pub fn layers(out: &PassOut, tracer: &Tracer) -> Report {
    let mut r = Report::default();
    for (metric, span) in [
        ("sim.prepare_us", "sim.prepare"),
        ("sim.reduce_us", "sim.reduce"),
        ("mbqc.prepare_us", "mbqc.prepare"),
        ("zx.prepare_us", "zx.prepare"),
        ("tableau.eval_us", "tableau.eval"),
        ("engine.batch_us", "engine.batch"),
    ] {
        r.add(metric, median(&tracer.durations_us(span)), "us");
    }
    r.add(
        "engine.batch_self_us",
        median(&tracer.self_times_us("engine.batch")),
        "us",
    );
    let threads = rayon::current_num_threads() as f64;
    let eff: Vec<f64> = (0..4)
        .filter(|&b| out.batch_s[b] > 0.0)
        .map(|b| out.sequential_s[b] / (threads * out.batch_s[b]))
        .collect();
    r.add("engine.batch_efficiency", geomean(&eff), "ratio");
    r
}

/// Deterministic work counters of one pass over the family lists of
/// `kinds`.
pub fn counters(seed: u64, kinds: &[BackendKind]) -> Report {
    let mut r = Report::default();
    let (mut mbqc_live, mut mbqc_touch) = (0usize, 0u64);
    let (mut zx_live, mut zx_ent, mut zx_touch) = (0usize, 0usize, 0u64);
    let mut magic = 0usize;
    for s in specs(seed).into_iter().filter(|s| kinds.contains(&s.kind)) {
        match s.kind {
            BackendKind::Pattern => {
                let backend = PatternBackend::new(&s.cost, s.p);
                let pattern = &backend.compiled().pattern;
                mbqc_live = mbqc_live.max(mbqao_mbqc::resources::stats(pattern).max_live);
                mbqc_touch += amp_touches(pattern);
            }
            BackendKind::Zx => {
                let zx = ZxBackend::new(&s.cost, s.p);
                zx_live = zx_live.max(zx.report().zx.max_live);
                zx_ent += zx.report().zx.entangling;
                zx_touch += amp_touches(&zx.compiled().pattern);
            }
            BackendKind::Pauli => {
                magic += PauliBackend::new(&s.cost, s.p).magic_count(&s.points[0]);
            }
            BackendKind::Gate => {}
        }
    }
    if kinds.contains(&BackendKind::Pattern) {
        r.add("mbqc.max_live", mbqc_live as f64, "qubits");
        r.add("mbqc.amp_touches", mbqc_touch as f64, "amps");
    }
    if kinds.contains(&BackendKind::Zx) {
        r.add("zx.max_live", zx_live as f64, "qubits");
        r.add("zx.entanglers", zx_ent as f64, "count");
        r.add("zx.amp_touches", zx_touch as f64, "amps");
    }
    if kinds.contains(&BackendKind::Pauli) {
        r.add("tableau.magic", magic as f64, "count");
    }
    r
}

/// Computed amplitude touches of one pattern run: `Σ 2^live` over its
/// commands, with `live` the register width when the command executes.
pub fn amp_touches(pattern: &Pattern) -> u64 {
    let mut live = pattern.inputs().len() as u32;
    let mut touches = 0u64;
    for c in pattern.commands() {
        if let Command::Prep { .. } = c {
            live += 1;
        }
        touches += 1u64 << live;
        if let Command::Measure { .. } = c {
            live -= 1;
        }
    }
    touches
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn light_cone_reference_matches_the_full_statevector() {
        let mut rng = StdRng::seed_from_u64(3);
        let cost = ring_with_chord(10, &mut rng);
        let gate = GateBackend::standard(cost.clone(), 1);
        for params in [[FRAC_PI_4, FRAC_PI_4], [0.3, 1.1], [2.0, 0.2]] {
            let full = gate.expectation(&params);
            let cone = light_cone_reference(&cost, &params);
            assert!((full - cone).abs() < 1e-10, "{full} vs {cone}");
        }
    }

    #[test]
    fn counters_repeat_for_the_same_seed() {
        let _guard = crate::tests::CACHE_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let a = counters(5, &BACKENDS);
        let b = counters(5, &BACKENDS);
        for name in [
            "mbqc.max_live",
            "mbqc.amp_touches",
            "zx.max_live",
            "zx.entanglers",
            "zx.amp_touches",
            "tableau.magic",
        ] {
            assert_eq!(a.get(name), b.get(name), "{name}");
        }
        assert_eq!(a.get("tableau.magic"), Some(2.0));
    }

    #[test]
    fn amp_touches_counts_the_live_register() {
        let mut p = Pattern::new(vec![QubitId(0)], 0);
        p.prep_plus(QubitId(1));
        p.entangle(QubitId(0), QubitId(1));
        // prep at width 2, entangle at width 2.
        assert_eq!(amp_touches(&p), 4 + 4);
    }
}
