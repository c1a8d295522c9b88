//! End-to-end tests of the `mbqao-serve` orchestrator — the
//! acceptance harness for the service: a multi-shard job with a panic,
//! a truncation, and a straggler injected must retry/re-partition its
//! way to completion with the merged output **bit-identical** to the
//! monolithic run, while never exceeding the configured worker cap.
//! The stdio loop is driven both in-process (frames through memory
//! buffers) and as a real subprocess of the binary.

use mbqao_bench::serve::{run_job, serve, Event, ServeConfig, SubmitRequest};
use mbqao_bench::sweep::{monolithic, BackendKind, FamilyRef, Fault, Workload};
use mbqao_core::engine::shard::RetryPolicy;
use mbqao_core::engine::wire::{read_frame, write_frame, Value};
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn serve_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_mbqao-serve"))
}

/// A small, fully deterministic workload (gate-backend landscape).
fn workload() -> Workload {
    Workload::Landscape {
        family: FamilyRef {
            seed: 7,
            name: "square".into(),
        },
        backend: BackendKind::Gate,
        steps: 4,
        gamma: (0.0, 2.0),
        beta: (0.0, 2.0),
    }
}

/// The acceptance criterion of the orchestrator: one job with a panic,
/// a truncated stream, AND a straggler injected across its shards must
/// complete — retries with backoff for the crashes, kill + re-partition
/// for the straggler — with the merged output bit-identical to
/// `monolithic()` and at most `cap` workers ever live.
#[test]
fn faulted_job_completes_bit_identically_under_the_worker_cap() {
    let w = workload();
    let cap = 2;
    let config = ServeConfig {
        cap,
        retry: RetryPolicy::new(4, Duration::from_millis(20)),
        straggler_deadline: Some(Duration::from_millis(2_000)),
        max_queue: 1,
        ..ServeConfig::default()
    };
    let faults = [
        (0, Fault::Panic),
        (1, Fault::Truncate),
        (2, Fault::Stall(20_000)),
    ];
    let mut events = Vec::new();
    let (output, stats) = run_job(&serve_exe(), 1, &w, 4, &faults, &config, &mut |e| {
        events.push(e)
    })
    .expect("the orchestrator must carry a faulted job to completion");

    assert!(
        output.bit_identical(&monolithic(&w)),
        "faulted + recovered output must match the monolithic run bit-for-bit"
    );
    assert!(
        stats.max_live <= cap,
        "at most {cap} workers may ever be live, saw {}",
        stats.max_live
    );
    assert!(stats.retries >= 2, "panic + truncate must both be retried");
    assert!(stats.repartitions >= 1, "the straggler must be split");
    assert_eq!(stats.shards, 4);
    assert!(
        stats.completed >= 5,
        "4 shards with one split into two halves, got {}",
        stats.completed
    );
    assert_eq!(stats.shard_ms.len(), stats.completed);

    // The event stream tells the whole story: accepted first, partials
    // with monotone coverage ending at the full sweep, and a requeue
    // for every recovery action.
    assert!(matches!(
        events.first(),
        Some(Event::Accepted { shards: 4, .. })
    ));
    let coverage: Vec<usize> = events
        .iter()
        .filter_map(|e| match e {
            Event::Partial { covered, .. } => Some(*covered),
            _ => None,
        })
        .collect();
    assert!(coverage.windows(2).all(|w| w[0] < w[1]));
    assert_eq!(coverage.last(), Some(&w.total()));
    assert!(events.iter().any(|e| matches!(
        e,
        Event::Requeue {
            repartitioned: true,
            ..
        }
    )));
    assert!(events.iter().any(|e| matches!(
        e,
        Event::Requeue {
            repartitioned: false,
            ..
        }
    )));
}

/// `Write` sink that survives being moved into `serve` — the test keeps
/// a handle to read the frames back.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn frames(bytes: &[u8]) -> Vec<Value> {
    let mut reader = std::io::Cursor::new(bytes);
    let mut out = Vec::new();
    while let Some(frame) = read_frame(&mut reader) {
        out.push(frame.expect("every emitted frame must parse"));
    }
    out
}

/// Drives the full service loop in-process: ping, a checked submit, a
/// malformed frame, and shutdown — the response stream must carry pong,
/// accepted/partials/done (with `bit_identical: true`), one rejection,
/// and a final bye with matching counters.
#[test]
fn serve_loop_answers_a_checked_submit_over_frames() {
    let request = SubmitRequest {
        id: 42,
        workload: workload(),
        shards: 2,
        faults: vec![(1, Fault::Panic)],
        check: true,
    };
    let mut input = Vec::new();
    write_frame(
        &mut input,
        &Value::obj(vec![("type", Value::Str("ping".into()))]),
    )
    .unwrap();
    write_frame(&mut input, &request.to_wire()).unwrap();
    input.extend_from_slice(b"{\"type\":\"no-such-request\"}\n");
    write_frame(
        &mut input,
        &Value::obj(vec![("type", Value::Str("shutdown".into()))]),
    )
    .unwrap();

    let sink = SharedBuf::default();
    let config = ServeConfig {
        cap: 2,
        retry: RetryPolicy::new(3, Duration::from_millis(10)),
        max_queue: 4,
        ..ServeConfig::default()
    };
    let stats = serve(
        std::io::Cursor::new(input),
        sink.clone(),
        &serve_exe(),
        &config,
    );
    assert_eq!((stats.done, stats.failed, stats.rejected), (1, 0, 1));

    let frames = frames(&sink.0.lock().unwrap());
    let types: Vec<String> = frames
        .iter()
        .map(|f| f.field("type").unwrap().as_str().unwrap().to_string())
        .collect();
    assert!(types.contains(&"pong".into()));
    assert!(types.contains(&"accepted".into()));
    assert!(types.contains(&"partial".into()));
    assert!(types.contains(&"requeue".into()));
    assert!(types.contains(&"rejected".into()));
    assert_eq!(types.last(), Some(&"bye".to_string()));

    let done = frames
        .iter()
        .find(|f| f.field("type").unwrap().as_str().unwrap() == "done")
        .expect("the job must finish");
    assert_eq!(done.field("id").unwrap().as_uint().unwrap(), 42);
    assert!(
        done.field("bit_identical").unwrap().as_bool().unwrap(),
        "check mode must verify against the in-process monolithic run"
    );
    let stats_frame = done.field("stats").unwrap();
    assert_eq!(stats_frame.field("shards").unwrap().as_uint().unwrap(), 2);
    assert!(stats_frame.field("retries").unwrap().as_uint().unwrap() >= 1);
}

/// Admission control: with a zero-length queue every submit is rejected
/// immediately — the service must never buffer without bound.
#[test]
fn full_queue_rejects_submits_immediately() {
    let request = SubmitRequest {
        id: 9,
        workload: workload(),
        shards: 2,
        faults: vec![],
        check: false,
    };
    let mut input = Vec::new();
    write_frame(&mut input, &request.to_wire()).unwrap();
    write_frame(
        &mut input,
        &Value::obj(vec![("type", Value::Str("shutdown".into()))]),
    )
    .unwrap();

    let sink = SharedBuf::default();
    let config = ServeConfig {
        max_queue: 0,
        log: false,
        ..ServeConfig::default()
    };
    let stats = serve(
        std::io::Cursor::new(input),
        sink.clone(),
        &serve_exe(),
        &config,
    );
    assert_eq!((stats.done, stats.failed, stats.rejected), (0, 0, 1));
    let frames = frames(&sink.0.lock().unwrap());
    let rejected = frames
        .iter()
        .find(|f| f.field("type").unwrap().as_str().unwrap() == "rejected")
        .expect("the submit must be rejected");
    assert_eq!(rejected.field("id").unwrap().as_uint().unwrap(), 9);
    assert!(rejected
        .field("reason")
        .unwrap()
        .as_str()
        .unwrap()
        .contains("queue full"));
}

/// The real binary end to end: frames over an OS pipe to a spawned
/// `mbqao-serve`, shutdown, and a bit-identical `done` frame back —
/// the same smoke CI runs.
#[test]
fn serve_binary_round_trips_a_job_over_stdio() {
    use std::process::{Command, Stdio};

    let request = SubmitRequest {
        id: 7,
        workload: workload(),
        shards: 2,
        faults: vec![],
        check: true,
    };
    let mut child = Command::new(serve_exe())
        .args(["--cap", "2", "--quiet"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning mbqao-serve");
    {
        let mut stdin = child.stdin.take().expect("stdin piped");
        write_frame(&mut stdin, &request.to_wire()).unwrap();
        write_frame(
            &mut stdin,
            &Value::obj(vec![("type", Value::Str("shutdown".into()))]),
        )
        .unwrap();
    }
    let out = child.wait_with_output().expect("service exits");
    assert!(out.status.success(), "service must exit cleanly");
    let frames = frames(&out.stdout);
    let done = frames
        .iter()
        .find(|f| f.field("type").unwrap().as_str().unwrap() == "done")
        .expect("the job must finish");
    assert_eq!(done.field("id").unwrap().as_uint().unwrap(), 7);
    assert!(done.field("bit_identical").unwrap().as_bool().unwrap());
    assert_eq!(
        frames
            .last()
            .unwrap()
            .field("type")
            .unwrap()
            .as_str()
            .unwrap(),
        "bye"
    );
}

/// Writes `poison` to a spawned `mbqao-serve`, then `ping` and a
/// checked submit, and asserts the service answered exactly `poison`
/// with `rejected` while the same connection kept serving: `ping` →
/// `pong`, then the submit → a bit-identical `done`.
fn assert_rejected_and_the_service_keeps_serving(poison: &[u8]) {
    use std::process::{Command, Stdio};

    let request = SubmitRequest {
        id: 3,
        workload: workload(),
        shards: 2,
        faults: vec![],
        check: true,
    };
    let mut child = Command::new(serve_exe())
        .args(["--cap", "2", "--quiet"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning mbqao-serve");
    {
        let mut stdin = child.stdin.take().expect("stdin piped");
        stdin.write_all(poison).unwrap();
        stdin.write_all(b"\n").unwrap();
        write_frame(
            &mut stdin,
            &Value::obj(vec![("type", Value::Str("ping".into()))]),
        )
        .unwrap();
        write_frame(&mut stdin, &request.to_wire()).unwrap();
        write_frame(
            &mut stdin,
            &Value::obj(vec![("type", Value::Str("shutdown".into()))]),
        )
        .unwrap();
    }
    let out = child.wait_with_output().expect("service exits");
    assert!(out.status.success(), "the service must survive the frame");
    let frames = frames(&out.stdout);
    let types: Vec<&str> = frames
        .iter()
        .map(|f| f.field("type").unwrap().as_str().unwrap())
        .collect();
    assert_eq!(
        types.iter().filter(|t| **t == "rejected").count(),
        1,
        "exactly the poison frame is rejected: {types:?}"
    );
    assert!(types.contains(&"pong"));
    let done = frames
        .iter()
        .find(|f| f.field("type").unwrap().as_str().unwrap() == "done")
        .expect("the submit after the poison frame must finish");
    assert_eq!(done.field("id").unwrap().as_uint().unwrap(), 3);
    assert!(done.field("bit_identical").unwrap().as_bool().unwrap());
    assert_eq!(types.last(), Some(&"bye"));
}

/// A frame nested 200 000 levels deep must not overflow the parser's
/// stack and abort the whole service (taking every tenant's job with
/// it).
#[test]
fn deep_frame_is_rejected_and_the_service_keeps_serving() {
    assert_rejected_and_the_service_keeps_serving(&[b'['; 200_000]);
}

/// A submit asking for 2^40 shards must not make the scheduler thread
/// allocate a 2^40-entry partition (an allocation failure aborts the
/// whole service), nor take indices beyond its job's quarantine
/// namespace.
#[test]
fn oversized_shards_submit_is_rejected_and_the_service_keeps_serving() {
    let oversized = SubmitRequest {
        id: 4,
        workload: workload(),
        shards: 1 << 40,
        faults: vec![],
        check: true,
    };
    assert_rejected_and_the_service_keeps_serving(oversized.to_wire().to_json().as_bytes());
}

/// Workers that always crash trip the pool's circuit breaker. The job
/// then running must end in a `job_error` naming the open circuit, and
/// a later submit on the same connection must get a prompt
/// `job_error` too — nothing hangs, nothing falls back.
#[test]
fn open_circuit_breaker_fails_jobs_fast_with_a_named_error() {
    let submit = |id: u64| SubmitRequest {
        id,
        workload: workload(),
        shards: 2,
        faults: vec![],
        check: false,
    };
    let mut input = Vec::new();
    write_frame(&mut input, &submit(1).to_wire()).unwrap();
    write_frame(&mut input, &submit(2).to_wire()).unwrap();
    write_frame(
        &mut input,
        &Value::obj(vec![("type", Value::Str("shutdown".into()))]),
    )
    .unwrap();

    let sink = SharedBuf::default();
    let config = ServeConfig {
        cap: 2,
        // Plenty of retries and no quarantine: only the breaker (more
        // than 8 deaths in 30 s by default) can end the first job.
        retry: RetryPolicy::new(100, Duration::from_millis(1)),
        quarantine_after: 1_000,
        max_jobs: 1,
        ..ServeConfig::default()
    };
    let started = std::time::Instant::now();
    // `false` exits at once whatever its arguments: every worker dies.
    let stats = serve(
        std::io::Cursor::new(input),
        sink.clone(),
        std::path::Path::new("false"),
        &config,
    );
    let elapsed = started.elapsed();
    assert_eq!((stats.done, stats.failed, stats.rejected), (0, 2, 0));
    assert!(
        elapsed < Duration::from_secs(20),
        "an open breaker must fail jobs fast, took {elapsed:?}"
    );

    let frames = frames(&sink.0.lock().unwrap());
    for id in [1u64, 2] {
        let error = frames
            .iter()
            .find(|f| {
                f.field("type").unwrap().as_str().unwrap() == "job_error"
                    && f.field("id").unwrap().as_uint().unwrap() as u64 == id
            })
            .unwrap_or_else(|| panic!("job {id} must end in a job_error"));
        let reason = error.field("reason").unwrap().as_str().unwrap();
        assert!(
            reason.contains("circuit breaker open"),
            "job {id}'s error must name the open circuit: {reason}"
        );
    }
    assert!(
        !frames
            .iter()
            .any(|f| f.field("type").unwrap().as_str().unwrap() == "done"),
        "no job may complete on a crashing worker binary"
    );
}
