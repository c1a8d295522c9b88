//! `mbqao-perfbench` — one benchmark for the mbqao workspace.
//!
//! ```text
//! python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The workloads are listed in [`WORKLOADS`]; `perfbench/LAYERS.md` says
//! why each exists and which layer metric should move which end-to-end
//! metric.
//!
//! With `--trace 0` the selected workload runs untraced and the result
//! line carries the end-to-end metrics. With `--trace 1` the selected
//! workload runs untraced and traced passes of equal length (their gap is
//! the tracing overhead), then every layer is measured from short traced
//! passes, and the result line carries the per-layer metrics. Every
//! output is checked; any failed check makes the exit code 1.

mod cold;
mod eval;
mod report;
mod serve;
mod trace;

use mbqao_bench::sweep::BackendKind;
use report::{median, peak_rss_mb, Checks, Report};
use std::path::PathBuf;
use std::process::Command;
use std::time::{Duration, Instant};
use trace::Tracer;

/// What a workload runs.
#[derive(Clone, Copy)]
enum Load {
    /// `expectation_batch` over these backends' family lists.
    Eval(&'static [BackendKind]),
    /// Fresh instances: the pattern pipeline, ZX reports, or both.
    Cold(cold::Ops),
    /// The closed-loop job stream through `mbqao-serve`.
    Serve { journaled: bool },
}

/// The workloads, by name. `cold-instances.zx`, `serve-stream` and
/// `serve-journaled` run by hand but are not in BENCHMARK.json: their
/// run-to-run spreads reach the 25% bound on a shared 2-vCPU host. ZX
/// rewriting is hit hardest by host drift; a serve job waits on a dozen
/// thread wake-ups across three processes, so a few percent of CPU steal
/// slows it by tens of percent; `fdatasync` latency on a shared disk
/// drifts on its own. Their layers are still measured in every traced
/// run.
const WORKLOADS: [(&str, Load); 8] = [
    ("eval-kernels.gate", Load::Eval(&[BackendKind::Gate])),
    ("eval-kernels.pattern", Load::Eval(&[BackendKind::Pattern])),
    ("eval-kernels.pauli", Load::Eval(&[BackendKind::Pauli])),
    ("eval-kernels.zx", Load::Eval(&[BackendKind::Zx])),
    ("cold-instances", Load::Cold(cold::Ops::INSTANCES)),
    ("cold-instances.zx", Load::Cold(cold::Ops::REPORTS)),
    ("serve-stream", Load::Serve { journaled: false }),
    ("serve-journaled", Load::Serve { journaled: true }),
];

/// A traced run reads every layer from a short traced pass of each of
/// these (each layer on the workload that exercises it).
const LAYER_PASSES: [(&str, Load); 4] = [
    ("eval-kernels", Load::Eval(&eval::BACKENDS)),
    ("cold-instances", Load::Cold(cold::Ops::BOTH)),
    ("serve-stream", Load::Serve { journaled: false }),
    ("serve-journaled", Load::Serve { journaled: true }),
];

/// The result line's metrics with `--trace 0`.
const END_TO_END: [&str; 4] = [
    "ops_per_s",
    "op_latency_p50_ms",
    "setup_s",
    "setup_peak_rss_mb",
];

/// The result line's metrics with `--trace 1`.
const PER_LAYER: [&str; 44] = [
    "sim.prepare_us",
    "sim.reduce_us",
    "mbqc.prepare_us",
    "mbqc.max_live",
    "mbqc.amp_touches",
    "zx.prepare_us",
    "zx.max_live",
    "zx.entanglers",
    "zx.amp_touches",
    "tableau.eval_us",
    "tableau.magic",
    "engine.batch_us",
    "engine.batch_self_us",
    "engine.batch_efficiency",
    "cache.miss_rate_warm",
    "compiler.compile_us",
    "mbqc.schedule_us",
    "cache.miss_rate",
    "qaoa.search_us",
    "qaoa.evals",
    "cold.instance_self_us",
    "zx.simplify_us",
    "zx.nodes_removed",
    "serve.admit_ms",
    "serve.first_partial_ms",
    "serve.assemble_ms",
    "serve.unattributed_ms",
    "engine.shard.attempt_ms",
    "sweep.compute_us",
    "engine.shard.overhead_ms",
    "engine.wire.encode_us",
    "engine.wire.decode_us",
    "engine.wire.bytes_per_job",
    "engine.wire.submit_bytes_per_job",
    "engine.wire.pool_bytes_per_job",
    "engine.shard.cache_hit_rate",
    "serve.warm_key_share",
    "serve.wal_lines_per_job",
    "serve.wal_bytes_per_job",
    "serve.wal_append_us",
    "serve.journaled.job_latency_p50_ms",
    "trace.overhead_pct",
    "trace.spans",
    "trace.untraced_ops_per_s",
];

/// Extra fresh processes that repeat the set-up, so `setup_s` and
/// `setup_peak_rss_mb` are medians over several cold set-ups.
const SETUP_PROBES: usize = 10;

struct Args {
    workload: String,
    load: Load,
    seed: u64,
    seconds: u64,
    trace: bool,
    serve_exe: PathBuf,
    work_dir: PathBuf,
    setup_probe: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| -> Result<Option<&str>, String> {
        match argv.iter().position(|a| a == name) {
            None => Ok(None),
            Some(i) => argv
                .get(i + 1)
                .map(|v| Some(v.as_str()))
                .ok_or_else(|| format!("{name} needs a value")),
        }
    };
    let required = |name: &str| flag(name)?.ok_or_else(|| format!("missing {name}"));
    let number = |name: &str| -> Result<u64, String> {
        required(name)?.parse().map_err(|e| format!("{name}: {e}"))
    };
    let workload = required("--workload")?.to_string();
    let load = WORKLOADS
        .iter()
        .find(|(name, _)| *name == workload)
        .map(|&(_, load)| load)
        .ok_or_else(|| {
            let names: Vec<&str> = WORKLOADS.iter().map(|(n, _)| *n).collect();
            format!("unknown workload {workload:?}; one of {names:?}")
        })?;
    let trace = match flag("--trace")?.unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        load,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace,
        serve_exe: PathBuf::from(required("--serve-exe")?),
        work_dir: PathBuf::from(required("--work-dir")?),
        setup_probe: argv.iter().any(|a| a == "--setup-probe"),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let result = if args.setup_probe {
        setup_only(&args).map(|s| {
            println!("{} {}", s.secs, s.peak_rss_mb);
            true
        })
    } else {
        run(&args)
    };
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// How one workload is run: an untraced pass, a traced pass, or both.
/// With both, the two alternate in [`CHUNKS`] chunks each, so warm-up
/// and host drift hit both alike.
struct Plan<'a> {
    untraced: Option<Duration>,
    traced: Option<(Duration, &'a Tracer)>,
}

const CHUNKS: u32 = 3;

impl Plan<'_> {
    /// Calls `pass(tracer, budget, chunk)` chunk by chunk and folds the
    /// chunks of each side with `absorb`: `(untraced, traced)`.
    fn run<T>(
        &self,
        mut pass: impl FnMut(&Tracer, Duration, u64) -> Result<T, String>,
        absorb: impl Fn(&mut T, T),
    ) -> Result<(Option<T>, Option<T>), String> {
        let chunks = if self.untraced.is_some() && self.traced.is_some() {
            CHUNKS
        } else {
            1
        };
        let off = Tracer::new(false);
        let mut sides: (Option<T>, Option<T>) = (None, None);
        for c in 0..chunks as u64 {
            let legs = [
                self.untraced.map(|b| (&off, b)),
                self.traced.map(|(b, t)| (t, b)),
            ];
            for (leg, slot) in legs.into_iter().zip([&mut sides.0, &mut sides.1]) {
                if let Some((tracer, budget)) = leg {
                    let out = pass(tracer, budget / chunks, 2 * c + tracer.is_on() as u64)?;
                    match slot {
                        Some(acc) => absorb(acc, out),
                        None => *slot = Some(out),
                    }
                }
            }
        }
        Ok(sides)
    }
}

/// What one workload produced.
#[derive(Default)]
struct Outcome {
    /// Set-up time and the peak resident memory at its end (MB, the
    /// service's included on serve workloads).
    setup: Setup,
    /// End-to-end metrics of the untraced pass.
    e2e: Report,
    /// `ops_per_s` of the traced pass.
    traced_ops_per_s: Option<f64>,
    /// Per-layer metrics of the traced pass and deterministic counters.
    layers: Report,
    checks: Checks,
    /// Peak RSS of the service process (serve workloads), MB.
    service_rss_mb: f64,
}

fn run_workload(args: &Args, load: Load, plan: Plan) -> Result<Outcome, String> {
    match load {
        Load::Eval(kinds) => run_eval(args, kinds, plan),
        Load::Cold(ops) => run_cold(args, ops, plan),
        Load::Serve { journaled } => run_serve(args, plan, journaled),
    }
}

fn run_eval(args: &Args, kinds: &[BackendKind], plan: Plan) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let t0 = Instant::now();
    let items = eval::setup(args.seed, kinds);
    o.setup = Setup::since(t0, None);
    let refs = eval::references(&items);
    let (h0, m0) = cold::cache_totals();
    let (untraced, traced) = plan.run(
        |tracer, budget, _| Ok(eval::run_pass(&items, &refs, budget, tracer)),
        eval::PassOut::absorb,
    )?;
    let (h1, m1) = cold::cache_totals();
    if let Some(out) = untraced {
        o.e2e = eval::end_to_end(&items, &out);
        o.checks.merge(out.checks);
    }
    if let (Some(out), Some((_, tracer))) = (traced, plan.traced) {
        o.traced_ops_per_s = eval::end_to_end(&items, &out).get("ops_per_s");
        o.layers = eval::layers(&out, tracer);
        o.checks.merge(out.checks);
    }
    // Warm caches: no compile-cache lookup may miss while evaluating.
    let miss_rate = (m1 - m0) as f64 / ((h1 - h0) + (m1 - m0)).max(1) as f64;
    o.layers.add("cache.miss_rate_warm", miss_rate, "ratio");
    o.layers.extend(eval::counters(args.seed, kinds));
    Ok(o)
}

/// Set-up of the cold workloads: one round of fresh instances, end to
/// end, so lazy statics and the thread pool exist before timing.
fn cold_setup(args: &Args, ops: cold::Ops) -> cold::PassOut {
    cold::run_pass(args.seed, 1 << 40, Duration::ZERO, &Tracer::new(false), ops)
}

fn run_cold(args: &Args, ops: cold::Ops, plan: Plan) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let t0 = Instant::now();
    let warm = cold_setup(args, ops);
    o.setup = Setup::since(t0, None);
    o.checks.merge(warm.checks);
    // Chunk `c` draws instances `(c + 1) << 32 ..`: no two passes share
    // an instance, so every pass sees cold caches.
    let (untraced, traced) = plan.run(
        |tracer, budget, chunk| {
            Ok(cold::run_pass(
                args.seed,
                (chunk + 1) << 32,
                budget,
                tracer,
                ops,
            ))
        },
        cold::PassOut::absorb,
    )?;
    if let Some(out) = untraced {
        o.e2e = cold::end_to_end(&out);
        o.checks.merge(out.checks);
    }
    if let (Some(out), Some((_, tracer))) = (traced, plan.traced) {
        o.traced_ops_per_s = cold::end_to_end(&out).get("ops_per_s");
        o.layers = cold::layers(&out, tracer);
        o.checks.merge(out.checks);
    }
    o.layers.extend(cold::counters(args.seed, ops));
    Ok(o)
}

fn run_serve(args: &Args, plan: Plan, journaled: bool) -> Result<Outcome, String> {
    let mut o = Outcome::default();
    let journal = journaled.then(|| serve::scratch_dir(&args.work_dir, "journal"));
    let t0 = Instant::now();
    let mut svc = serve::setup(&args.serve_exe, journal.as_deref(), args.seed)?;
    o.setup = Setup::since(t0, Some(svc.pid()));
    // One stream, cut into consecutive chunks.
    let mut next = 0u64;
    let (untraced, traced) = plan.run(
        |_, budget, _| {
            let out = serve::run_pass(&mut svc, args.seed, next, budget)?;
            next += out.jobs.len() as u64;
            Ok(out)
        },
        serve::PassOut::absorb,
    )?;
    o.service_rss_mb = peak_rss_mb(Some(svc.pid()));
    svc.shutdown()?;

    // Everything below is outside the timed loops.
    if let Some(mut out) = untraced {
        serve::verify(&mut out, &Tracer::new(false));
        o.e2e = serve::end_to_end(&out);
        o.checks.merge(out.checks);
    }
    if let (Some(mut out), Some((_, tracer))) = (traced, plan.traced) {
        serve::verify(&mut out, tracer);
        let e2e = serve::end_to_end(&out);
        o.traced_ops_per_s = e2e.get("ops_per_s");
        o.layers = serve::layers(&out, tracer);
        if journaled {
            let p50 = e2e.get("job_latency_p50_ms").unwrap_or(0.0);
            o.layers
                .add("serve.journaled.job_latency_p50_ms", p50, "ms");
        }
        o.checks.merge(out.checks);
    }
    // The stream's first jobs ran in the first chunk, on either side.
    let counters = serve::counters(args.seed, &serve::scratch_dir(&args.work_dir, "wal-inproc"))?;
    o.layers
        .add("serve.wal_append_us", median(&counters.append_us), "us");
    if let Some(dir) = &journal {
        // The service's journal must hold exactly what an in-process
        // `JobJournal` writes for the same jobs.
        let (lines, bytes) = serve::service_wal(dir)?;
        let want = (
            counters.report.get("serve.wal_lines_per_job"),
            counters.report.get("serve.wal_bytes_per_job"),
        );
        o.checks.op((want != (Some(lines), Some(bytes)))
            .then(|| format!("service journal {lines}/{bytes} vs in-process {want:?}")));
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    o.layers.extend(counters.report);
    Ok(o)
}

/// A set-up's time, and the peak resident memory when it ended.
#[derive(Debug, Default, Clone, Copy)]
struct Setup {
    secs: f64,
    peak_rss_mb: f64,
}

impl Setup {
    /// The set-up that began at `t0` and ends now; `service` adds that
    /// process's peak memory.
    fn since(t0: Instant, service: Option<u32>) -> Setup {
        Setup {
            secs: t0.elapsed().as_secs_f64(),
            peak_rss_mb: peak_rss_mb(None) + service.map_or(0.0, |pid| peak_rss_mb(Some(pid))),
        }
    }
}

/// `--setup-probe`: repeat the workload's set-up once.
fn setup_only(args: &Args) -> Result<Setup, String> {
    let t0 = Instant::now();
    match args.load {
        Load::Eval(kinds) => {
            std::hint::black_box(eval::setup(args.seed, kinds));
        }
        Load::Cold(ops) => {
            cold_setup(args, ops);
        }
        Load::Serve { journaled } => {
            let dir = serve::scratch_dir(&args.work_dir, "journal");
            let svc = serve::setup(
                &args.serve_exe,
                journaled.then_some(dir.as_path()),
                args.seed,
            )?;
            let setup = Setup::since(t0, Some(svc.pid()));
            svc.shutdown()?;
            if dir.exists() {
                std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
            }
            return Ok(setup);
        }
    }
    Ok(Setup::since(t0, None))
}

/// Set-ups of [`SETUP_PROBES`] fresh processes.
fn setup_probes(args: &Args) -> Result<Vec<Setup>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    (0..SETUP_PROBES)
        .map(|_| {
            let out = Command::new(&exe)
                .args(["--setup-probe", "--workload", &args.workload])
                .args(["--seed", &args.seed.to_string(), "--seconds", "1"])
                .arg("--serve-exe")
                .arg(&args.serve_exe)
                .arg("--work-dir")
                .arg(&args.work_dir)
                .output()
                .map_err(|e| format!("set-up probe: {e}"))?;
            if !out.status.success() {
                return Err(format!(
                    "set-up probe failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                ));
            }
            let text = String::from_utf8_lossy(&out.stdout);
            let mut fields = text.split_whitespace().map(str::parse::<f64>);
            match (fields.next(), fields.next()) {
                (Some(Ok(secs)), Some(Ok(peak_rss_mb))) => Ok(Setup { secs, peak_rss_mb }),
                _ => Err(format!("set-up probe output {text:?}")),
            }
        })
        .collect()
}

/// Prints the human-readable report and the result line; returns
/// whether every check passed.
fn finish(checks: &Checks, report: &Report, keys: &[&str]) -> Result<bool, String> {
    report.print_human("metrics");
    for f in checks.failures() {
        println!("# FAILED: {f}");
    }
    let metrics = report.json_metrics(keys)?;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        checks.failed == 0,
        checks.attempted,
        checks.failed
    );
    Ok(checks.failed == 0)
}

fn run(args: &Args) -> Result<bool, String> {
    std::fs::create_dir_all(&args.work_dir)
        .map_err(|e| format!("{}: {e}", args.work_dir.display()))?;
    for (k, v) in report::host_facts(&args.work_dir) {
        println!("# host {k} = {v}");
    }
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    let seconds = Duration::from_secs(args.seconds);
    let steal0 = report::cpu_steal();
    let ok = measure(args, seconds);
    let steal1 = report::cpu_steal();
    let stolen = (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64;
    eprintln!("perfbench: cpu steal during the run {:.1}%", 100.0 * stolen);
    ok
}

fn measure(args: &Args, seconds: Duration) -> Result<bool, String> {
    if !args.trace {
        let mut setups = setup_probes(args)?;
        let mut o = run_workload(
            args,
            args.load,
            Plan {
                untraced: Some(seconds),
                traced: None,
            },
        )?;
        setups.push(o.setup);
        let mut report = std::mem::take(&mut o.e2e);
        let secs: Vec<f64> = setups.iter().map(|s| s.secs).collect();
        let rss: Vec<f64> = setups.iter().map(|s| s.peak_rss_mb).collect();
        report.add("setup_s", median(&secs), "s");
        report.add("setup_peak_rss_mb", median(&rss), "MB");
        // The whole run's peak depends on how the allocator's arenas
        // fragment across threads (bimodal on eval-kernels.pattern), so
        // it is printed but not bounded.
        report.add("peak_rss_mb", peak_rss_mb(None) + o.service_rss_mb, "MB");
        report.add("failed_frac", o.checks.failed_frac(), "ratio");
        report.extend(o.layers);
        return finish(&o.checks, &report, &END_TO_END);
    }

    // Tracing overhead: untraced and traced passes of the selected
    // workload, of equal length.
    let mut report = Report::default();
    let mut checks = Checks::default();
    let mut spans = 0usize;
    let mut write_spans = |name: &str, tracer: &Tracer| {
        spans += tracer.spans().len();
        let path = args
            .work_dir
            .join(format!("spans-{name}-seed{}.jsonl", args.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("# spans of {name} written to {}", path.display());
        Ok::<(), String>(())
    };
    let tracer = Tracer::new(true);
    let half = seconds.mul_f64(0.3);
    let plan = Plan {
        untraced: Some(half),
        traced: Some((half, &tracer)),
    };
    let o = run_workload(args, args.load, plan)?;
    let untraced = o.e2e.get("ops_per_s").unwrap_or(f64::NAN);
    let traced = o.traced_ops_per_s.unwrap_or(f64::NAN);
    report.add("trace.untraced_ops_per_s", untraced, "1/s");
    report.add("trace.traced_ops_per_s", traced, "1/s");
    report.add("trace.overhead_pct", 100.0 * (1.0 - traced / untraced), "%");
    checks.merge(o.checks);
    write_spans(&args.workload, &tracer)?;

    // Layers: a short traced pass of each layer pass. The serve phases
    // come from serve-stream, the journal from serve-journaled.
    let short = seconds.mul_f64(0.08).max(Duration::from_secs(1));
    for (name, load) in LAYER_PASSES {
        let tracer = Tracer::new(true);
        let plan = Plan {
            untraced: None,
            traced: Some((short, &tracer)),
        };
        let o = run_workload(args, load, plan)?;
        for (metric, value, unit) in o.layers.iter() {
            let journal_metric =
                metric.starts_with("serve.wal") || metric.starts_with("serve.journaled");
            let from_here = match name {
                "serve-stream" => !journal_metric,
                "serve-journaled" => journal_metric,
                _ => true,
            };
            if from_here && report.get(metric).is_none() {
                report.add(metric.clone(), *value, unit);
            }
        }
        checks.merge(o.checks);
        write_spans(&format!("layers-{name}"), &tracer)?;
    }
    report.add("trace.spans", spans as f64, "count");
    report.add("failed_frac", checks.failed_frac(), "ratio");
    finish(&checks, &report, &PER_LAYER)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that read the process-wide compile-cache
    /// counters against tests that move them.
    pub static CACHE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn benchmark_json_lists_exactly_the_reported_metrics() {
        // Every `"name": "…"` of BENCHMARK.json, in file order: the
        // workloads, then the end-to-end and the per-layer metrics.
        let spec = include_str!("../../BENCHMARK.json");
        let names = |text: &'static str| -> Vec<&'static str> {
            text.split("\"name\": \"")
                .skip(1)
                .map(|rest| rest.split('"').next().expect("closing quote"))
                .collect()
        };
        let (workloads, metrics) = spec.split_at(spec.find("\"end_to_end\"").expect("metrics"));
        for w in names(workloads) {
            assert!(WORKLOADS.iter().any(|(name, _)| *name == w), "{w}");
        }
        let want: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        assert_eq!(names(metrics), want);
    }

    #[test]
    fn metric_names_are_unique() {
        let mut all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        all.sort_unstable();
        let n = all.len();
        all.dedup();
        assert_eq!(all.len(), n);
    }
}
