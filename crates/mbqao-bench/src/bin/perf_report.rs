//! `perf_report` — the committed perf-trajectory reporter.
//!
//! Times the representative hot paths end to end (gate vs. pattern vs.
//! ZX expectation, MBQC shot throughput, the batched parameter sweep,
//! and a above-`PAR_THRESHOLD` statevector workload) with warm-up and
//! repetition, then writes a machine-readable JSON report. The committed
//! `BENCH_<pr>.json` files at the repo root form the perf trajectory of
//! the project; CI runs `perf_report --smoke` on every push so the
//! reporter itself can never rot (no timing assertions there — shared
//! runners jitter).
//!
//! Usage:
//! ```text
//! cargo run --release -p mbqao-bench --bin perf_report            # full run → BENCH_10.json
//! cargo run --release -p mbqao-bench --bin perf_report -- --smoke # tiny run (CI)
//! cargo run --release -p mbqao-bench --bin perf_report -- --out /tmp/bench.json
//! ```

use mbqao_bench::serve::{run_job_with, serve, spawn_pool, JobSpec, ServeConfig, SubmitRequest};
use mbqao_bench::sweep::{BackendKind, FamilyRef, Fault, Workload};
use mbqao_core::engine::wire::{write_frame, Value};
use mbqao_core::engine::{Backend, Executor, GateBackend, PatternBackend, PauliBackend, ZxBackend};
use mbqao_problems::{generators, maxcut, ZPoly};
use mbqao_qaoa::QaoaAnsatz;
use std::time::Instant;

/// Which perf-trajectory point this binary produces.
const PR: u32 = 10;

/// One measured workload: `reps` timed repetitions of `iters` inner
/// iterations each (after `warmup` untimed repetitions).
struct Measurement {
    name: &'static str,
    detail: String,
    /// Unit of one inner iteration (for throughput readers).
    unit: &'static str,
    iters: usize,
    warmup: usize,
    reps: usize,
    /// Seconds per inner iteration, one entry per rep.
    secs_per_iter: Vec<f64>,
}

impl Measurement {
    fn run(
        name: &'static str,
        detail: String,
        unit: &'static str,
        iters: usize,
        warmup: usize,
        reps: usize,
        mut f: impl FnMut(),
    ) -> Self {
        for _ in 0..warmup * iters {
            f();
        }
        let mut secs_per_iter = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            secs_per_iter.push(t0.elapsed().as_secs_f64() / iters as f64);
        }
        let m = Measurement {
            name,
            detail,
            unit,
            iters,
            warmup,
            reps,
            secs_per_iter,
        };
        eprintln!(
            "  {:<28} {:>12.3} µs/{} (min over {} reps × {} iters)",
            m.name,
            m.min() * 1e6,
            m.unit,
            m.reps,
            m.iters
        );
        m
    }

    fn min(&self) -> f64 {
        self.secs_per_iter
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    fn mean(&self) -> f64 {
        self.secs_per_iter.iter().sum::<f64>() / self.secs_per_iter.len() as f64
    }

    fn median(&self) -> f64 {
        let mut v = self.secs_per_iter.clone();
        v.sort_by(|a, b| a.partial_cmp(b).expect("non-NaN timings"));
        v[v.len() / 2]
    }

    fn to_json(&self) -> String {
        format!(
            concat!(
                "    {{\"name\": \"{}\", \"detail\": \"{}\", \"unit\": \"{}\", ",
                "\"iters_per_rep\": {}, \"warmup_reps\": {}, \"reps\": {}, ",
                "\"secs_per_iter\": {{\"min\": {:.9e}, \"median\": {:.9e}, \"mean\": {:.9e}}}, ",
                "\"per_sec_min\": {:.6e}}}"
            ),
            self.name,
            self.detail,
            self.unit,
            self.iters,
            self.warmup,
            self.reps,
            self.min(),
            self.median(),
            self.mean(),
            1.0 / self.min(),
        )
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let only = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1).cloned());
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| format!("{}/../../BENCH_{PR}.json", env!("CARGO_MANIFEST_DIR")));

    // Scale knobs: --smoke keeps CI fast, the full run is what gets
    // committed. Inner-iteration counts keep each rep ≳ a few ms so
    // Instant resolution never dominates.
    let (warmup, reps) = if smoke { (0, 1) } else { (2, 7) };
    let shots = if smoke { 32 } else { 512 };
    let sweep_points = if smoke { 8 } else { 64 };
    let scale = |iters: usize| if smoke { 1 } else { iters };

    eprintln!(
        "perf_report (pr {PR}, {}, {} threads)",
        if smoke { "smoke" } else { "full" },
        rayon::current_num_threads()
    );

    let petersen = maxcut::maxcut_zpoly(&generators::petersen());
    let grid = maxcut::maxcut_zpoly(&generators::grid(3, 3));
    let ring16 = maxcut::maxcut_zpoly(&generators::cycle(16));
    let p2_params = [0.7, 0.4, 0.3, 0.9];
    let p1_params = [0.7, 0.4];

    let enabled = |name: &str| only.as_ref().is_none_or(|f| name.contains(f.as_str()));

    let mut results: Vec<Measurement> = Vec::new();

    // Expectation through each backend on the same instance: the
    // paper-table workload (petersen: |V| = 10, |E| = 15).
    if enabled("gate_expectation") {
        let gate = GateBackend::standard(petersen.clone(), 2);
        results.push(Measurement::run(
            "gate_expectation",
            "petersen p=2, <C> via gate-model circuit".into(),
            "eval",
            scale(40),
            warmup,
            reps,
            || {
                std::hint::black_box(gate.expectation(&p2_params));
            },
        ));
    }
    if enabled("pattern_expectation") {
        let pattern = PatternBackend::new(&petersen, 2);
        pattern.expectation(&p2_params); // compile outside the timer
        results.push(Measurement::run(
            "pattern_expectation",
            "petersen p=2, <C> via compiled measurement pattern".into(),
            "eval",
            scale(10),
            warmup,
            reps,
            || {
                std::hint::black_box(pattern.expectation(&p2_params));
            },
        ));
    }
    if enabled("zx_expectation") {
        let zx = ZxBackend::new(&petersen, 2);
        zx.expectation(&p2_params);
        results.push(Measurement::run(
            "zx_expectation",
            "petersen p=2, <C> via ZX-simplified re-extracted pattern".into(),
            "eval",
            scale(10),
            warmup,
            reps,
            || {
                std::hint::black_box(zx.expectation(&p2_params));
            },
        ));
    }

    // MBQC shot throughput: the per-measurement hot loop
    // (add_qubit/entangle/measure_remove per pattern node), fanned out
    // in blocks by the executor.
    if enabled("mbqc_shot") {
        let exec = Executor::new(PatternBackend::new(&petersen, 1));
        exec.backend().sample(&p1_params, 1, 0); // compile outside the timer
        let m = Measurement::run(
            "mbqc_shot",
            format!("petersen p=1, Executor::sample, {shots} shots/iter"),
            "shot",
            1,
            warmup,
            reps,
            || {
                std::hint::black_box(exec.sample(&p1_params, shots, 0xBEEF));
            },
        );
        // Rescale: one iter drew `shots` shots.
        let m = Measurement {
            secs_per_iter: m.secs_per_iter.iter().map(|s| s / shots as f64).collect(),
            ..m
        };
        eprintln!(
            "  {:<28} {:>12.0} shots/s",
            "mbqc_shot_throughput",
            1.0 / m.min()
        );
        results.push(m);
    }

    // Batched parameter sweep: the classical outer loop's fan-out.
    if enabled("batched_sweep") {
        let exec = Executor::new(GateBackend::standard(grid.clone(), 1));
        let points: Vec<Vec<f64>> = (0..sweep_points)
            .map(|i| vec![0.05 * i as f64, 0.03 * i as f64])
            .collect();
        results.push(Measurement::run(
            "batched_sweep",
            format!("grid3x3 p=1, expectation_batch over {sweep_points} points"),
            "batch",
            scale(4),
            warmup,
            reps,
            || {
                std::hint::black_box(exec.expectation_batch(&points));
            },
        ));
    }

    // A statevector above PAR_THRESHOLD (2^16 amplitudes): exercises the
    // parallel kernels and the dispatch cost the worker pool removes.
    if enabled("gate_expectation_2pow16") {
        let gate = GateBackend::new(QaoaAnsatz::standard(ring16.clone(), 1));
        results.push(Measurement::run(
            "gate_expectation_2pow16",
            "C16 p=1, <C> on a 2^16-amplitude statevector".into(),
            "eval",
            scale(4),
            warmup,
            reps,
            || {
                std::hint::black_box(gate.expectation(&p1_params));
            },
        ));
    }

    // Stabilizer-tableau scaling: a Clifford-heavy weighted cycle (unit
    // edges are Clifford at γ = π/4, one golden-ratio chord contributes
    // the single non-Clifford measurement) evaluated through the pauli
    // backend at n = 16…128. The n = 128 point is the headline: a 2^128
    // statevector cannot exist, the tableau runs it in polynomial time.
    if enabled("tableau_scaling") {
        let phi = 1.618_033_988_749_895f64;
        for (name, n) in [
            ("tableau_scaling_n16", 16usize),
            ("tableau_scaling_n32", 32),
            ("tableau_scaling_n64", 64),
            ("tableau_scaling_n128", 128),
        ] {
            let mut terms: Vec<(Vec<usize>, f64)> =
                (0..n).map(|v| (vec![v, (v + 1) % n], 1.0)).collect();
            terms.push((vec![0, n / 2], phi));
            let cost = ZPoly::new(n, 0.0, terms);
            let pauli = PauliBackend::new(&cost, 1);
            let params = [std::f64::consts::FRAC_PI_4; 2];
            assert_eq!(pauli.magic_count(&params), 1);
            pauli.expectation(&params); // compile outside the timer
            results.push(Measurement::run(
                name,
                format!("C{n}+chord p=1, <C> via stabilizer tableau (1 magic)"),
                "eval",
                scale(4),
                warmup,
                reps,
                || {
                    std::hint::black_box(pauli.expectation(&params));
                },
            ));
        }
    }

    // Worker-pool dispatch: one tiny 2-shard pattern-backend job
    // through a persistent, connection-scoped pool (partition → frame
    // write to a warm, affinity-routed worker → wire round trip →
    // streaming merge). The sweep itself is trivial (2×2 landscape),
    // so the time is almost entirely the orchestration cost a job pays
    // before any real work. Pattern backend so the per-process
    // compiled-pattern cache matters: the hit rate climbs across reps
    // because the workers that compiled the pattern keep getting its
    // shards. Skipped when the sibling `mbqao-serve` binary is absent
    // (e.g. `--only` builds).
    if enabled("worker_pool_dispatch") {
        let serve_exe = std::env::current_exe()
            .ok()
            .and_then(|p| {
                Some(
                    p.parent()?
                        .join(format!("mbqao-serve{}", std::env::consts::EXE_SUFFIX)),
                )
            })
            .filter(|p| p.is_file());
        match serve_exe {
            None => eprintln!(
                "  {:<28} skipped (mbqao-serve binary not built)",
                "worker_pool_dispatch"
            ),
            Some(exe) => {
                let workload = Workload::Landscape {
                    family: FamilyRef {
                        seed: 7,
                        name: "square".into(),
                    },
                    backend: BackendKind::Pattern,
                    steps: 2,
                    gamma: (0.0, 1.0),
                    beta: (0.0, 1.0),
                };
                let config = ServeConfig {
                    cap: 2,
                    log: false,
                    ..ServeConfig::default()
                };
                let pool = spawn_pool(&exe, &config);
                let run = |id: u64| {
                    let spec = JobSpec {
                        id,
                        workload: &workload,
                        shards: 2,
                        faults: &[],
                    };
                    let t0 = Instant::now();
                    let (out, stats) = run_job_with(&exe, &pool, &spec, &config, None, &mut |_| {})
                        .expect("dispatch job");
                    assert!(stats.max_live <= 2);
                    std::hint::black_box(out);
                    (t0.elapsed().as_secs_f64(), stats)
                };
                // Warm the pool's workers and pattern caches.
                let mut id = 0;
                for _ in 0..warmup.max(1) {
                    run(id);
                    id += 1;
                }
                let mut secs = Vec::with_capacity(reps);
                let (mut hits, mut misses) = (0usize, 0usize);
                for _ in 0..reps {
                    let (t, s) = run(id);
                    secs.push(t);
                    hits += s.cache_hits;
                    misses += s.cache_misses;
                    id += 1;
                }
                pool.shutdown();
                let rate = 100.0 * hits as f64 / (hits + misses).max(1) as f64;
                let m = Measurement {
                    name: "worker_pool_dispatch",
                    detail: format!(
                        "2x2 pattern landscape, 2-shard job on a warm pool; \
                         cache-hit rate {rate:.0}% ({hits} hits / {misses} misses)"
                    ),
                    unit: "job",
                    iters: 1,
                    warmup,
                    reps,
                    secs_per_iter: secs,
                };
                eprintln!(
                    "  {:<28} {:>12.3} µs/{} (min over {} reps, cache-hit {rate:.0}%)",
                    m.name,
                    m.min() * 1e6,
                    m.unit,
                    m.reps,
                );
                results.push(m);
            }
        }
    }

    // The tentpole of the multi-tenant scheduler: two independent jobs
    // whose first attempts stall must finish ~2x faster interleaved
    // over one pool (`max_jobs 2`) than driven serially back to back
    // (`max_jobs 1`) — the stalls overlap instead of queueing. A/B
    // reps interleave (1-core hosts jitter ≫ 10%); compare minima.
    if enabled("multi_job_throughput") {
        let serve_exe = std::env::current_exe()
            .ok()
            .and_then(|p| {
                Some(
                    p.parent()?
                        .join(format!("mbqao-serve{}", std::env::consts::EXE_SUFFIX)),
                )
            })
            .filter(|p| p.is_file());
        match serve_exe {
            None => eprintln!(
                "  {:<28} skipped (mbqao-serve binary not built)",
                "multi_job_throughput"
            ),
            Some(exe) => {
                let stall_ms: u64 = if smoke { 40 } else { 150 };
                let input = {
                    let mut buf = Vec::new();
                    for (id, seed) in [(1u64, 7u64), (2, 11)] {
                        let req = SubmitRequest {
                            id,
                            workload: Workload::Landscape {
                                family: FamilyRef {
                                    seed,
                                    name: "square".into(),
                                },
                                backend: BackendKind::Gate,
                                steps: 2,
                                gamma: (0.0, 1.0),
                                beta: (0.0, 1.0),
                            },
                            shards: 1,
                            faults: vec![(0, Fault::Stall(stall_ms))],
                            check: false,
                        };
                        write_frame(&mut buf, &req.to_wire()).expect("compose submit");
                    }
                    write_frame(
                        &mut buf,
                        &Value::obj(vec![("type", Value::Str("shutdown".into()))]),
                    )
                    .expect("compose shutdown");
                    buf
                };
                let run = |max_jobs: usize| {
                    let config = ServeConfig {
                        cap: 2,
                        max_jobs,
                        log: false,
                        ..ServeConfig::default()
                    };
                    let t0 = Instant::now();
                    let stats = serve(
                        std::io::Cursor::new(input.clone()),
                        std::io::sink(),
                        &exe,
                        &config,
                    );
                    assert_eq!((stats.done, stats.failed), (2, 0));
                    t0.elapsed().as_secs_f64()
                };
                for _ in 0..warmup.min(1) {
                    run(2);
                    run(1);
                }
                let mut secs = (Vec::with_capacity(reps), Vec::with_capacity(reps));
                for _ in 0..reps {
                    secs.0.push(run(2));
                    secs.1.push(run(1));
                }
                for (name, s) in [
                    ("multi_job_throughput", secs.0),
                    ("multi_job_throughput_serial", secs.1),
                ] {
                    let m = Measurement {
                        name,
                        detail: format!(
                            "two 1-shard jobs, {stall_ms} ms first-attempt stalls, \
                             cap-2 pool; interleaved (max_jobs 2) vs serial \
                             (max_jobs 1), interleaved A/B"
                        ),
                        unit: "batch",
                        iters: 1,
                        warmup: warmup.min(1),
                        reps,
                        secs_per_iter: s,
                    };
                    eprintln!(
                        "  {:<28} {:>12.3} µs/{} (min over {} reps)",
                        m.name,
                        m.min() * 1e6,
                        m.unit,
                        m.reps
                    );
                    results.push(m);
                }
            }
        }
    }

    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let body: Vec<String> = results.iter().map(Measurement::to_json).collect();
    let json = format!(
        concat!(
            "{{\n",
            "  \"schema\": 1,\n",
            "  \"report\": \"perf-trajectory\",\n",
            "  \"pr\": {},\n",
            "  \"smoke\": {},\n",
            "  \"threads\": {},\n",
            "  \"par_threshold\": {},\n",
            "  \"unix_time_secs\": {},\n",
            "  \"workloads\": [\n{}\n  ]\n",
            "}}\n"
        ),
        PR,
        smoke,
        rayon::current_num_threads(),
        mbqao_sim::PAR_THRESHOLD,
        unix_time,
        body.join(",\n")
    );
    std::fs::write(&out_path, &json).unwrap_or_else(|e| panic!("writing {out_path}: {e}"));
    eprintln!("wrote {out_path}");
}
