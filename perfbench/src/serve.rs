//! `serve-stream` and `serve-journaled`: one real `mbqao-serve --cap 2
//! --max-jobs 2` driven over stdio by a single client thread, as a
//! closed loop with two jobs outstanding. The journaled variant sends
//! the identical stream with `--journal`, so every landed shard is
//! appended and `fdatasync`ed.
//!
//! Latency is submit → `done` as the client sees it; the phases come
//! from frame arrival times. Outputs are decoded and bit-compared with
//! an in-process monolithic run after the timed loop.

use crate::report::{mean, median, quantile, Checks, Report};
use crate::trace::{self_times_ns, Tracer};
use mbqao_bench::serve::{JobJournal, SubmitRequest};
use mbqao_bench::sweep::{
    job_to_json, monolithic, result_to_json, run_shard, BackendKind, FamilyRef, SweepOutput,
    Workload,
};
use mbqao_core::engine::wire::Value;
use mbqao_core::Shard;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Shards per job.
const SHARDS: usize = 2;
/// Jobs kept outstanding by the client.
const OUTSTANDING: usize = 2;
/// Longest the client waits for any frame before declaring the service
/// stuck.
const FRAME_TIMEOUT: Duration = Duration::from_secs(30);
/// Job ids of the measured stream start here (warm-up jobs use 1, 2).
const FIRST_ID: u64 = 1000;
/// Stream prefix over which deterministic counters are taken.
pub const COUNTER_JOBS: usize = 32;
/// Completions per throughput window.
const WINDOW: usize = 64;

/// Families and backends whose cache keys repeat through the stream.
const WARM: [(&str, BackendKind); 6] = [
    ("petersen", BackendKind::Gate),
    ("grid3x3", BackendKind::Pattern),
    ("3reg8", BackendKind::Pattern),
    ("SK5", BackendKind::Gate),
    ("C8", BackendKind::Pattern),
    ("K6", BackendKind::Gate),
];
/// Randomly generated families: a new generator seed is a new instance
/// and a new cache key.
const FRESH: [&str; 3] = ["3reg8", "SK5", "SK7"];

/// The `i`-th job of `seed`'s stream: half from a fixed warm set of
/// keys, half on a fresh instance.
pub fn workload(seed: u64, i: u64) -> Workload {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0xA24B_AED4_963E_E407) ^ i);
    if rng.gen::<f64>() < 0.5 {
        let (name, backend) = WARM[rng.gen_range(0..WARM.len())];
        return landscape(seed, name, backend);
    }
    let name = FRESH[rng.gen_range(0..FRESH.len())];
    let backend = if rng.gen::<f64>() < 0.5 {
        BackendKind::Gate
    } else {
        BackendKind::Pattern
    };
    landscape((seed << 32) ^ (i + 1), name, backend)
}

/// A 4×4 p = 1 landscape on a standard family.
fn landscape(family_seed: u64, name: &str, backend: BackendKind) -> Workload {
    Workload::Landscape {
        family: FamilyRef {
            seed: family_seed,
            name: name.into(),
        },
        backend,
        steps: 4,
        gamma: (0.0, std::f64::consts::FRAC_PI_2),
        beta: (0.0, std::f64::consts::FRAC_PI_2),
    }
}

/// A running `mbqao-serve`. Frames are read on a separate thread that
/// stamps their arrival time; submits go out from the caller's thread.
pub struct Service {
    child: Child,
    stdin: Option<ChildStdin>,
    frames: Receiver<(String, Instant)>,
    reader: Option<JoinHandle<()>>,
}

/// One received frame.
struct Frame {
    value: Value,
    bytes: usize,
    at: Instant,
    parse_us: f64,
}

impl Service {
    pub fn spawn(exe: &Path, journal: Option<&Path>) -> Result<Service, String> {
        let mut cmd = Command::new(exe);
        cmd.args(["--cap", "2", "--max-jobs", "2", "--quiet"]);
        if let Some(dir) = journal {
            cmd.arg("--journal").arg(dir);
        }
        let mut child = cmd
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", exe.display()))?;
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, frames) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            let mut r = BufReader::new(stdout);
            loop {
                let mut line = String::new();
                match r.read_line(&mut line) {
                    Ok(0) | Err(_) => return,
                    Ok(_) => {
                        if tx.send((line, Instant::now())).is_err() {
                            return;
                        }
                    }
                }
            }
        });
        Ok(Service {
            stdin: child.stdin.take(),
            child,
            frames,
            reader: Some(reader),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Writes one frame; returns its size in bytes.
    fn send_line(&mut self, line: &str) -> Result<usize, String> {
        let stdin = self.stdin.as_mut().ok_or("service stdin closed")?;
        stdin
            .write_all(line.as_bytes())
            .and_then(|_| stdin.write_all(b"\n"))
            .and_then(|_| stdin.flush())
            .map_err(|e| format!("writing to the service: {e}"))?;
        Ok(line.len() + 1)
    }

    fn next(&mut self) -> Result<Frame, String> {
        let (line, at) = self
            .frames
            .recv_timeout(FRAME_TIMEOUT)
            .map_err(|e| format!("no frame from the service: {e}"))?;
        let t0 = Instant::now();
        let value = Value::parse(line.trim()).map_err(|e| format!("bad frame {line:?}: {e:?}"))?;
        Ok(Frame {
            value,
            bytes: line.len(),
            at,
            parse_us: t0.elapsed().as_secs_f64() * 1e6,
        })
    }

    fn wait_for(&mut self, kind: &str) -> Result<Frame, String> {
        loop {
            let f = self.next()?;
            if frame_type(&f.value) == kind {
                return Ok(f);
            }
        }
    }

    /// Sends `shutdown`, waits for `bye` and for the process to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        self.send_line("{\"type\":\"shutdown\"}")?;
        self.wait_for("bye")?;
        self.stdin = None;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if let Some(r) = self.reader.take() {
            r.join().map_err(|_| "frame reader panicked".to_string())?;
        }
        if status.success() {
            Ok(())
        } else {
            Err(format!("mbqao-serve exited with {status}"))
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // Only reached without a clean shutdown: never leave the service
        // (and through it, its workers) running.
        self.stdin = None;
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(r) = self.reader.take() {
            let _ = r.join();
        }
    }
}

fn frame_type(v: &Value) -> &str {
    v.field("type").and_then(|t| t.as_str()).unwrap_or("")
}

/// Spawns a service and makes it ready: handshake, then one job per
/// warm key of `seed`'s stream, so both pool workers are up and their
/// compile caches hold the keys the stream repeats.
pub fn setup(exe: &Path, journal: Option<&Path>, seed: u64) -> Result<Service, String> {
    let mut svc = Service::spawn(exe, journal)?;
    svc.send_line("{\"type\":\"ping\"}")?;
    svc.wait_for("pong")?;
    for (id, (name, backend)) in (1u64..).zip(WARM) {
        let req = SubmitRequest {
            id,
            workload: landscape(seed, name, backend),
            shards: SHARDS,
            faults: Vec::new(),
            check: false,
        };
        svc.send_line(&req.to_wire().to_json())?;
    }
    let mut done = 0;
    while done < WARM.len() {
        let f = svc.next()?;
        match frame_type(&f.value) {
            "done" => done += 1,
            "job_error" | "rejected" => {
                return Err(format!("warm-up job failed: {}", f.value.to_json()))
            }
            _ => {}
        }
    }
    Ok(svc)
}

/// One job as the client saw it.
pub struct JobRecord {
    pub id: u64,
    /// Position in the stream (`workload(seed, index)`).
    index: u64,
    submit: Instant,
    accepted: Option<Instant>,
    first_partial: Option<Instant>,
    last_partial: Option<Instant>,
    done: Option<Instant>,
    /// Sum and count of `partial.latency_ms`.
    attempt_ms: u64,
    attempts: usize,
    cache_hits: usize,
    cache_misses: usize,
    bytes: usize,
    encode_us: f64,
    decode_us: f64,
    /// The decoded output.
    output: Option<SweepOutput>,
}

impl JobRecord {
    fn latency_ms(&self) -> f64 {
        self.done
            .map_or(0.0, |d| (d - self.submit).as_secs_f64() * 1e3)
    }
}

pub struct PassOut {
    pub seed: u64,
    /// Finished jobs in stream order.
    pub jobs: Vec<JobRecord>,
    pub window_rates: Vec<f64>,
    pub checks: Checks,
}

impl PassOut {
    /// Adds a later pass's jobs to this one.
    pub fn absorb(&mut self, other: PassOut) {
        self.jobs.extend(other.jobs);
        self.window_rates.extend(other.window_rates);
        self.checks.merge(other.checks);
    }

    /// Share of jobs whose cache key already appeared earlier in the
    /// stream.
    pub fn warm_share(&self) -> f64 {
        let mut seen = HashSet::new();
        let warm = self
            .jobs
            .iter()
            .filter(|j| !seen.insert(workload(self.seed, j.index).cache_key()))
            .count();
        warm as f64 / self.jobs.len().max(1) as f64
    }
}

/// Drives the closed loop until `budget` ends, then drains the jobs
/// still outstanding. Stream jobs `first..` of `seed` are sent.
pub fn run_pass(
    svc: &mut Service,
    seed: u64,
    first: u64,
    budget: Duration,
) -> Result<PassOut, String> {
    let start = Instant::now();
    let mut next = first;
    let mut in_flight: HashMap<u64, JobRecord> = HashMap::new();
    let mut finished: Vec<JobRecord> = Vec::new();
    let mut checks = Checks::default();
    let mut submit = |svc: &mut Service, in_flight: &mut HashMap<u64, JobRecord>| {
        let index = next;
        let id = FIRST_ID + index;
        next += 1;
        let t0 = Instant::now();
        let line = SubmitRequest {
            id,
            workload: workload(seed, index),
            shards: SHARDS,
            faults: Vec::new(),
            check: false,
        }
        .to_wire()
        .to_json();
        let encode_us = t0.elapsed().as_secs_f64() * 1e6;
        let submit = Instant::now();
        let bytes = svc.send_line(&line)?;
        in_flight.insert(
            id,
            JobRecord {
                id,
                index,
                submit,
                accepted: None,
                first_partial: None,
                last_partial: None,
                done: None,
                attempt_ms: 0,
                attempts: 0,
                cache_hits: 0,
                cache_misses: 0,
                bytes,
                encode_us,
                decode_us: 0.0,
                output: None,
            },
        );
        Ok::<(), String>(())
    };
    for _ in 0..OUTSTANDING {
        submit(svc, &mut in_flight)?;
    }
    let mut done_times: Vec<Instant> = Vec::new();
    while !in_flight.is_empty() {
        let f = svc.next()?;
        let Ok(id) = f.value.field("id").and_then(|v| v.as_uint()) else {
            continue;
        };
        let Some(rec) = in_flight.get_mut(&(id as u64)) else {
            continue;
        };
        rec.bytes += f.bytes;
        let finished_job = match frame_type(&f.value) {
            "accepted" => {
                rec.accepted = Some(f.at);
                false
            }
            "partial" => {
                rec.first_partial.get_or_insert(f.at);
                rec.last_partial = Some(f.at);
                let field = |k: &str| f.value.field(k).and_then(|v| v.as_uint()).unwrap_or(0);
                rec.attempt_ms += field("latency_ms") as u64;
                rec.attempts += 1;
                rec.cache_hits += field("cache_hits");
                rec.cache_misses += field("cache_misses");
                false
            }
            "done" => {
                let t0 = Instant::now();
                let out = f.value.field("output").and_then(SweepOutput::from_wire);
                rec.decode_us = f.parse_us + t0.elapsed().as_secs_f64() * 1e6;
                rec.done = Some(f.at);
                match out {
                    Ok(out) => rec.output = Some(out),
                    Err(e) => checks.fail(format!("job {id}: undecodable output: {e:?}")),
                }
                true
            }
            "job_error" | "rejected" | "quarantined" => {
                checks.fail(format!("job {id}: {}", f.value.to_json()));
                true
            }
            _ => false,
        };
        if finished_job {
            let rec = in_flight.remove(&(id as u64)).expect("in flight");
            checks.attempted += 1;
            if rec.done.is_some() {
                done_times.push(f.at);
            }
            finished.push(rec);
            if start.elapsed() < budget {
                submit(svc, &mut in_flight)?;
            }
        }
    }
    let window_rates = done_times
        .windows(WINDOW + 1)
        .step_by(WINDOW)
        .map(|w| WINDOW as f64 / (w[WINDOW] - w[0]).as_secs_f64())
        .collect();
    finished.sort_by_key(|r| r.id);
    Ok(PassOut {
        seed,
        jobs: finished,
        window_rates,
        checks,
    })
}

/// Bit-compares every `done` output with an in-process monolithic run
/// and checks that the phases tile the job's latency. Runs after the
/// timed loop; spans go to `tracer` when it is on.
pub fn verify(out: &mut PassOut, tracer: &Tracer) {
    let mut expected: HashMap<String, SweepOutput> = HashMap::new();
    for rec in out.jobs.iter().filter(|r| r.done.is_some()) {
        let w = workload(out.seed, rec.index);
        let want = expected
            .entry(w.to_wire().to_json())
            .or_insert_with(|| monolithic(&w));
        let mut failure = match &rec.output {
            Some(got) if got.bit_identical(want) => None,
            Some(_) => Some(format!("job {}: output differs from monolithic", rec.id)),
            None => Some(format!("job {}: no output", rec.id)),
        };
        if let (Some(acc), Some(first), Some(last), Some(done)) =
            (rec.accepted, rec.first_partial, rec.last_partial, rec.done)
        {
            let record = |tr: &Tracer| {
                let root = tr.record("serve.job", rec.id, 0, rec.submit, done);
                tr.record("serve.admit", rec.id, root, rec.submit, acc);
                tr.record("serve.first_partial", rec.id, root, acc, first);
                tr.record("serve.assemble", rec.id, root, last, done);
            };
            record(tracer);
            // Phases plus the unattributed remainder (the root's self
            // time) must add back to submit → done exactly.
            let local = Tracer::new(true);
            record(&local);
            let spans = local.spans();
            let root = spans.iter().find(|s| s.parent == 0).expect("root span");
            let phases: u64 = spans
                .iter()
                .filter(|s| s.parent == root.id)
                .map(|s| s.dur_ns())
                .sum();
            let in_order = rec.submit <= acc && acc <= first && first <= last && last <= done;
            if !in_order || phases + self_times_ns(&spans)[&root.id] != root.dur_ns() {
                failure.get_or_insert(format!("job {}: phases do not tile its latency", rec.id));
            }
        } else {
            failure.get_or_insert(format!("job {}: missing accepted/partial frames", rec.id));
        }
        if let Some(why) = failure {
            out.checks.fail(why);
        }
    }
}

pub fn end_to_end(out: &PassOut) -> Report {
    let lat: Vec<f64> = out
        .jobs
        .iter()
        .filter(|r| r.done.is_some())
        .map(JobRecord::latency_ms)
        .collect();
    let mut r = Report::default();
    let jobs_per_s = median(&out.window_rates);
    let p50 = median(&lat);
    r.add("jobs_per_s", jobs_per_s, "1/s");
    r.add("job_latency_p50_ms", p50, "ms");
    // p99 is reported only when at least ten samples lie beyond it.
    let p99 = if lat.len() >= 1000 {
        quantile(&lat, 0.99)
    } else {
        f64::NAN
    };
    r.add("job_latency_p99_ms", p99, "ms");
    r.add("job_latency_samples", lat.len() as f64, "count");
    r.add("serve.warm_key_share", out.warm_share(), "ratio");
    r.add("ops_per_s", jobs_per_s, "1/s");
    r.add("op_latency_p50_ms", p50, "ms");
    r
}

/// Per-layer metrics of a traced pass: client-side phases and wire
/// costs, plus in-process `run_shard` on the same shards.
pub fn layers(out: &PassOut, tracer: &Tracer) -> Report {
    let mut r = Report::default();
    let ms = |name: &str| median(&tracer.durations_us(name)) / 1e3;
    r.add("serve.admit_ms", ms("serve.admit"), "ms");
    r.add("serve.first_partial_ms", ms("serve.first_partial"), "ms");
    r.add("serve.assemble_ms", ms("serve.assemble"), "ms");
    r.add(
        "serve.unattributed_ms",
        median(&tracer.self_times_us("serve.job")) / 1e3,
        "ms",
    );
    // `latency_ms` arrives truncated to whole ms; take each at the
    // middle of its bucket.
    let (sum, n) = out
        .jobs
        .iter()
        .fold((0, 0), |(s, n), j| (s + j.attempt_ms, n + j.attempts));
    let attempt_ms = sum as f64 / n.max(1) as f64 + 0.5;
    r.add("engine.shard.attempt_ms", attempt_ms, "ms");
    let mut compute_us = Vec::new();
    for job in out.jobs.iter().take(COUNTER_JOBS) {
        let w = workload(out.seed, job.index);
        for shard in Shard::partition(w.total(), SHARDS) {
            let t0 = Instant::now();
            std::hint::black_box(run_shard(&w, shard));
            compute_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
    }
    r.add("sweep.compute_us", median(&compute_us), "us");
    r.add(
        "engine.shard.overhead_ms",
        attempt_ms - mean(&compute_us) / 1e3,
        "ms",
    );
    let done: Vec<&JobRecord> = out.jobs.iter().filter(|j| j.done.is_some()).collect();
    r.add(
        "engine.wire.encode_us",
        median(&done.iter().map(|j| j.encode_us).collect::<Vec<_>>()),
        "us",
    );
    r.add(
        "engine.wire.decode_us",
        median(&done.iter().map(|j| j.decode_us).collect::<Vec<_>>()),
        "us",
    );
    r.add(
        "engine.wire.bytes_per_job",
        mean(&done.iter().map(|j| j.bytes as f64).collect::<Vec<_>>()),
        "bytes",
    );
    let (hits, misses) = out
        .jobs
        .iter()
        .fold((0, 0), |(h, m), j| (h + j.cache_hits, m + j.cache_misses));
    r.add(
        "engine.shard.cache_hit_rate",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    r.add("serve.warm_key_share", out.warm_share(), "ratio");
    r
}

/// Lines and bytes per job in the service's journal files of the first
/// [`COUNTER_JOBS`] jobs of the stream.
pub fn service_wal(dir: &Path) -> Result<(f64, f64), String> {
    let (mut lines, mut bytes) = (0usize, 0usize);
    for i in 0..COUNTER_JOBS as u64 {
        let path = dir.join(format!("job-{}.wal", FIRST_ID + i));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        lines += text.lines().count();
        bytes += text.len();
    }
    let n = COUNTER_JOBS as f64;
    Ok((lines as f64 / n, bytes as f64 / n))
}

/// Deterministic counters of the first [`COUNTER_JOBS`] stream jobs,
/// computed in-process: submit-frame bytes, pool frame bytes (from
/// `job_to_json` / `result_to_json`), and the journal a `JobJournal`
/// writes for them under `scratch` (whose appends are also timed).
pub struct Counters {
    pub report: Report,
    pub append_us: Vec<f64>,
}

pub fn counters(seed: u64, scratch: &Path) -> Result<Counters, String> {
    let io = |e: std::io::Error| format!("journal under {}: {e}", scratch.display());
    std::fs::create_dir_all(scratch).map_err(io)?;
    let (mut submit, mut pool, mut lines, mut bytes) = (0usize, 0usize, 0usize, 0usize);
    let mut append_us = Vec::new();
    for i in 0..COUNTER_JOBS as u64 {
        let w = workload(seed, i);
        let id = FIRST_ID + i;
        submit += SubmitRequest {
            id,
            workload: w.clone(),
            shards: SHARDS,
            faults: Vec::new(),
            check: false,
        }
        .to_wire()
        .to_json()
        .len()
            + 1;
        let mut journal = JobJournal::create(scratch, id, &w, SHARDS).map_err(io)?;
        for shard in Shard::partition(w.total(), SHARDS) {
            let result = run_shard(&w, shard);
            pool += job_to_json(&w, shard, None).len() + result_to_json(&result).len();
            let t0 = Instant::now();
            journal.append(&result).map_err(io)?;
            append_us.push(t0.elapsed().as_secs_f64() * 1e6);
        }
        let text = std::fs::read_to_string(journal.path()).map_err(io)?;
        lines += text.lines().count();
        bytes += text.len();
    }
    std::fs::remove_dir_all(scratch).map_err(io)?;
    let n = COUNTER_JOBS as f64;
    let mut report = Report::default();
    report.add(
        "engine.wire.submit_bytes_per_job",
        submit as f64 / n,
        "bytes",
    );
    report.add("engine.wire.pool_bytes_per_job", pool as f64 / n, "bytes");
    report.add("serve.wal_lines_per_job", lines as f64 / n, "count");
    report.add("serve.wal_bytes_per_job", bytes as f64 / n, "bytes");
    Ok(Counters { report, append_us })
}

/// A fresh per-process directory under `work`.
pub fn scratch_dir(work: &Path, what: &str) -> PathBuf {
    work.join(format!("{what}-{}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_stream_mixes_warm_and_fresh_keys() {
        let keys: Vec<String> = (0..200).map(|i| workload(3, i).cache_key()).collect();
        let distinct: HashSet<&String> = keys.iter().collect();
        assert!(
            distinct.len() > 60 && distinct.len() < 140,
            "{}",
            distinct.len()
        );
        assert_eq!(workload(3, 17), workload(3, 17));
    }

    #[test]
    fn counters_repeat_for_the_same_seed() {
        let _guard = crate::tests::CACHE_LOCK
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        let dir = std::env::current_exe()
            .expect("test exe")
            .parent()
            .expect("deps dir")
            .join("perfbench-test-wal");
        let a = counters(4, &dir.join("a")).expect("counters");
        let b = counters(4, &dir.join("b")).expect("counters");
        for name in [
            "engine.wire.submit_bytes_per_job",
            "engine.wire.pool_bytes_per_job",
            "serve.wal_lines_per_job",
            "serve.wal_bytes_per_job",
        ] {
            assert_eq!(a.report.get(name), b.report.get(name), "{name}");
        }
        assert_eq!(
            a.report.get("serve.wal_lines_per_job"),
            Some(1.0 + SHARDS as f64)
        );
    }
}
