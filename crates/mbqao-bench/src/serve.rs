//! The always-on sweep orchestrator behind the `mbqao-serve` binary:
//! job specs arrive as newline-delimited wire frames, shards are
//! scheduled onto a **bounded** worker pool, merged partials stream
//! back as they land, and a retry policy (exponential backoff, plus
//! straggler kill + re-partition) turns transient worker failures into
//! completed jobs whose output is still **bit-identical** to the
//! monolithic run — the merge algebra of
//! [`mbqao_core::engine::shard::Merger`] is the contract that makes
//! every recovery action safe.
//!
//! Layering:
//!
//! * [`run_job`] executes one job end to end: partition → submit to a
//!   supervised [`WorkerPool`] capped at `cap` live workers → merge
//!   **on readiness** (streaming a [`Event::Partial`] per landed
//!   shard) → retry failed shards with backoff ([`Event::Requeue`]) →
//!   kill and split shards that exceed the straggler deadline →
//!   assemble. An open circuit breaker fails the job fast.
//! * [`serve`] is the long-running loop: a reader thread parses
//!   request frames, and one scheduler thread blocks on a single
//!   channel carrying both those requests and the pool's verdicts. It
//!   applies **admission control** (a bounded job queue; overload is
//!   an immediate [`Event::Rejected`], never unbounded memory) and
//!   drains the queue with **cache-affinity**: among queued jobs it
//!   prefers one sharing the last job's [`Workload::cache_key`],
//!   keeping compiled-pattern caches hot across consecutive jobs.
//! * Every event is one wire frame on the response stream (and
//!   optionally one human-readable line on stderr) — per-shard
//!   latency, attempt counts, retry/re-partition decisions and cache
//!   traffic are all observable per job; [`JobStats`] summarizes them
//!   in the final [`Event::Done`].
//!
//! See `docs/SERVE.md` for the protocol reference.

use crate::sweep::{
    assemble, decode_worker_result, hole_payload, job_to_json_attempt, monolithic, Fault, Payload,
    SweepOutput, Workload,
};
use mbqao_core::engine::shard::{
    default_worker_cap, lock_unpoisoned, Merger, PoolConfig, PoolJob, PoolOutcome, PoolStats,
    Provenance, RetryPolicy, Shard, ShardError, ShardResult, WorkerCommand, WorkerPool,
    AFFINITY_STREAK_BOUND,
};
use mbqao_core::engine::wire::{read_frame, write_frame, Value, WireError};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fs;
use std::io::{BufRead, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Duration;

// ---------------------------------------------------------------- config

/// Tuning knobs of the orchestrator.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maximum simultaneously live worker processes.
    pub cap: usize,
    /// Per-shard retry policy (attempts + exponential backoff).
    pub retry: RetryPolicy,
    /// Per-shard wall-clock deadline: a worker exceeding it is killed
    /// and its range re-partitioned (halved) onto fresh workers.
    /// `None` disables straggler handling.
    pub straggler_deadline: Option<Duration>,
    /// Admission bound: submits beyond this many queued jobs are
    /// rejected immediately.
    pub max_queue: usize,
    /// Jobs driven concurrently by [`serve`], interleaving their
    /// shards over the shared worker pool. Each in-flight job keeps
    /// its own merger, journal, and retry state; `partial` / `requeue`
    /// / `done` frames interleave by job id. `1` restores strictly
    /// serial job execution.
    pub max_jobs: usize,
    /// Mirror every emitted event as a human-readable stderr line.
    pub log: bool,
    /// Poison-shard threshold: a shard whose job kills this many
    /// successive pool workers is quarantined (dead-lettered) instead
    /// of retried forever.
    pub quarantine_after: u32,
    /// What quarantine does to the job: `true` completes it with the
    /// poisoned range filled by [`hole_payload`] placeholders (degraded
    /// partial coverage), `false` fails it with an error naming the
    /// shard.
    pub allow_partial: bool,
    /// Write a per-job crash-safe journal (`job-<id>.wal`) into this
    /// directory: a header frame plus one bit-exact `wal_partial`
    /// frame per landed shard. `mbqao-serve --resume <wal>` replays it
    /// and re-runs only the missing ranges.
    pub journal_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            cap: default_worker_cap(),
            retry: RetryPolicy::new(3, Duration::from_millis(50)),
            straggler_deadline: None,
            max_queue: 16,
            max_jobs: 4,
            log: false,
            quarantine_after: 3,
            allow_partial: false,
            journal_dir: None,
        }
    }
}

/// The [`PoolConfig`] a [`ServeConfig`] implies: the serve cap and
/// straggler deadline map onto the pool's cap and per-job deadline,
/// `quarantine_after` passes through, supervision defaults otherwise.
pub fn pool_config(config: &ServeConfig) -> PoolConfig {
    PoolConfig {
        cap: config.cap,
        job_deadline: config.straggler_deadline,
        quarantine_after: config.quarantine_after,
        ..PoolConfig::default()
    }
}

// ----------------------------------------------------------------- stats

/// Per-job observability counters, reported in [`Event::Done`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JobStats {
    /// Non-empty shards the job was partitioned into.
    pub shards: usize,
    /// Shard executions that merged (sub-shards from re-partitions
    /// included — can exceed `shards`).
    pub completed: usize,
    /// Failed attempts that were retried (with backoff).
    pub retries: usize,
    /// Stragglers killed and split into two sub-shards.
    pub repartitions: usize,
    /// Worker processes spawned over the job's lifetime.
    pub spawned: usize,
    /// Maximum simultaneously live workers ever observed — never
    /// exceeds the configured cap.
    pub max_live: usize,
    /// Compiled-pattern cache hits summed over all worker provenances.
    pub cache_hits: usize,
    /// Compiled-pattern cache misses summed over all worker
    /// provenances.
    pub cache_misses: usize,
    /// Pool workers that died (crash, liveness kill, straggler kill)
    /// and were restarted by the supervisor during this job.
    pub worker_restarts: usize,
    /// Shards abandoned by poison-shard quarantine (partial coverage).
    pub quarantined: usize,
    /// Shards replayed from a crash-safe journal instead of re-run.
    pub replayed: usize,
    /// Per-merged-shard wall-clock latency, in completion order.
    pub shard_ms: Vec<u64>,
}

impl JobStats {
    fn latency_summary(&self) -> (u64, u64, u64) {
        if self.shard_ms.is_empty() {
            return (0, 0, 0);
        }
        let mut sorted = self.shard_ms.clone();
        sorted.sort_unstable();
        (
            sorted[0],
            sorted[sorted.len() / 2],
            sorted[sorted.len() - 1],
        )
    }

    /// Wire encoding (latencies summarized as min/median/max).
    pub fn to_wire(&self) -> Value {
        let (min, median, max) = self.latency_summary();
        Value::obj(vec![
            ("shards", Value::uint(self.shards)),
            ("completed", Value::uint(self.completed)),
            ("retries", Value::uint(self.retries)),
            ("repartitions", Value::uint(self.repartitions)),
            ("spawned", Value::uint(self.spawned)),
            ("max_live", Value::uint(self.max_live)),
            ("cache_hits", Value::uint(self.cache_hits)),
            ("cache_misses", Value::uint(self.cache_misses)),
            ("worker_restarts", Value::uint(self.worker_restarts)),
            ("quarantined", Value::uint(self.quarantined)),
            ("replayed", Value::uint(self.replayed)),
            (
                "latency_ms",
                Value::obj(vec![
                    ("min", Value::uint(min as usize)),
                    ("median", Value::uint(median as usize)),
                    ("max", Value::uint(max as usize)),
                ]),
            ),
        ])
    }
}

// ---------------------------------------------------------------- events

/// One frame on the response stream. Every scheduling decision that
/// affects a job is visible to its submitter.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// The job was admitted and partitioned.
    Accepted {
        /// Job id (echoed from the submit frame).
        id: u64,
        /// Items in the sweep.
        total: usize,
        /// Non-empty shards scheduled.
        shards: usize,
    },
    /// A shard's partial result landed and merged (streamed in
    /// completion order, not index order).
    Partial {
        /// Job id.
        id: u64,
        /// The merged shard.
        shard: Shard,
        /// Worker-reported backend label.
        backend: String,
        /// Which attempt produced the result (0 = first try).
        attempt: u32,
        /// Wall-clock of the producing attempt, milliseconds.
        latency_ms: u64,
        /// Compiled-pattern cache hits in the producing worker.
        cache_hits: usize,
        /// Compiled-pattern cache misses in the producing worker.
        cache_misses: usize,
        /// Items covered by the merge so far.
        covered: usize,
        /// Items in the sweep.
        total: usize,
    },
    /// A failed or straggling shard was put back on the queue —
    /// retried with backoff, or split into two sub-shards.
    Requeue {
        /// Job id.
        id: u64,
        /// The affected index range.
        range: (usize, usize),
        /// The attempt number about to run (retry) or 0 (re-partition).
        attempt: u32,
        /// Backoff applied before the next attempt, milliseconds.
        backoff_ms: u64,
        /// `true` when the range was halved instead of retried whole.
        repartitioned: bool,
        /// The failure that triggered the requeue.
        reason: String,
    },
    /// A resumed job's journal was replayed; only the ranges listed
    /// missing will re-run.
    Resumed {
        /// Job id (from the journal header).
        id: u64,
        /// Shard partials replayed from the journal.
        replayed: usize,
        /// Items already covered by the replay.
        covered: usize,
        /// Items in the sweep.
        total: usize,
    },
    /// A poison shard was dead-lettered after killing repeated
    /// workers; with partial coverage allowed the job continues around
    /// the hole, otherwise it fails with this reason.
    Quarantined {
        /// Job id.
        id: u64,
        /// The abandoned index range.
        range: (usize, usize),
        /// The quarantine verdict (kill count + last stderr excerpt).
        reason: String,
    },
    /// The job completed; the merged output rides in the frame.
    Done {
        /// Job id.
        id: u64,
        /// The assembled sweep output (bit-exact on the wire).
        output: SweepOutput,
        /// Observability counters.
        stats: JobStats,
        /// When the submit asked for `check`: whether the output is
        /// bit-identical to an in-process monolithic run.
        bit_identical: Option<bool>,
    },
    /// The job failed permanently (retry budget exhausted).
    JobError {
        /// Job id.
        id: u64,
        /// Failure description (names the shard).
        reason: String,
    },
    /// A request was refused (queue full, malformed frame).
    Rejected {
        /// Job id when the frame carried one.
        id: Option<u64>,
        /// Why it was refused.
        reason: String,
    },
    /// Liveness reply to a `ping` frame.
    Pong,
    /// The service is exiting (shutdown frame or input EOF).
    Bye {
        /// Jobs completed over the connection.
        done: usize,
        /// Jobs permanently failed.
        failed: usize,
        /// Requests rejected.
        rejected: usize,
    },
}

impl Event {
    /// Wire encoding (one frame).
    pub fn to_wire(&self) -> Value {
        match self {
            Event::Accepted { id, total, shards } => Value::obj(vec![
                ("type", Value::Str("accepted".into())),
                ("id", Value::uint(*id as usize)),
                ("total", Value::uint(*total)),
                ("shards", Value::uint(*shards)),
            ]),
            Event::Partial {
                id,
                shard,
                backend,
                attempt,
                latency_ms,
                cache_hits,
                cache_misses,
                covered,
                total,
            } => Value::obj(vec![
                ("type", Value::Str("partial".into())),
                ("id", Value::uint(*id as usize)),
                ("shard", shard.to_wire()),
                ("backend", Value::Str(backend.clone())),
                ("attempt", Value::uint(*attempt as usize)),
                ("latency_ms", Value::uint(*latency_ms as usize)),
                ("cache_hits", Value::uint(*cache_hits)),
                ("cache_misses", Value::uint(*cache_misses)),
                ("covered", Value::uint(*covered)),
                ("total", Value::uint(*total)),
            ]),
            Event::Requeue {
                id,
                range,
                attempt,
                backoff_ms,
                repartitioned,
                reason,
            } => Value::obj(vec![
                ("type", Value::Str("requeue".into())),
                ("id", Value::uint(*id as usize)),
                ("start", Value::uint(range.0)),
                ("end", Value::uint(range.1)),
                ("attempt", Value::uint(*attempt as usize)),
                ("backoff_ms", Value::uint(*backoff_ms as usize)),
                ("repartitioned", Value::Bool(*repartitioned)),
                ("reason", Value::Str(reason.clone())),
            ]),
            Event::Resumed {
                id,
                replayed,
                covered,
                total,
            } => Value::obj(vec![
                ("type", Value::Str("resumed".into())),
                ("id", Value::uint(*id as usize)),
                ("replayed", Value::uint(*replayed)),
                ("covered", Value::uint(*covered)),
                ("total", Value::uint(*total)),
            ]),
            Event::Quarantined { id, range, reason } => Value::obj(vec![
                ("type", Value::Str("quarantined".into())),
                ("id", Value::uint(*id as usize)),
                ("start", Value::uint(range.0)),
                ("end", Value::uint(range.1)),
                ("reason", Value::Str(reason.clone())),
            ]),
            Event::Done {
                id,
                output,
                stats,
                bit_identical,
            } => {
                let mut entries = vec![
                    ("type", Value::Str("done".into())),
                    ("id", Value::uint(*id as usize)),
                ];
                if let Some(ok) = bit_identical {
                    entries.push(("bit_identical", Value::Bool(*ok)));
                }
                entries.push(("output", output.to_wire()));
                entries.push(("stats", stats.to_wire()));
                Value::obj(entries)
            }
            Event::JobError { id, reason } => Value::obj(vec![
                ("type", Value::Str("job_error".into())),
                ("id", Value::uint(*id as usize)),
                ("reason", Value::Str(reason.clone())),
            ]),
            Event::Rejected { id, reason } => {
                let mut entries = vec![("type", Value::Str("rejected".into()))];
                if let Some(id) = id {
                    entries.push(("id", Value::uint(*id as usize)));
                }
                entries.push(("reason", Value::Str(reason.clone())));
                Value::obj(entries)
            }
            Event::Pong => Value::obj(vec![("type", Value::Str("pong".into()))]),
            Event::Bye {
                done,
                failed,
                rejected,
            } => Value::obj(vec![
                ("type", Value::Str("bye".into())),
                ("done", Value::uint(*done)),
                ("failed", Value::uint(*failed)),
                ("rejected", Value::uint(*rejected)),
            ]),
        }
    }

    /// Compact one-line rendering for the stderr event log.
    pub fn log_line(&self) -> String {
        match self {
            Event::Accepted { id, total, shards } => {
                format!("job {id}: accepted ({total} items, {shards} shards)")
            }
            Event::Partial {
                id,
                shard,
                attempt,
                latency_ms,
                covered,
                total,
                ..
            } => format!(
                "job {id}: shard {}..{} merged (attempt {attempt}, {latency_ms} ms) — {covered}/{total}",
                shard.start, shard.end
            ),
            Event::Requeue {
                id,
                range,
                attempt,
                backoff_ms,
                repartitioned,
                reason,
            } => format!(
                "job {id}: {} {}..{} (attempt {attempt}, backoff {backoff_ms} ms): {reason}",
                if *repartitioned {
                    "re-partitioning straggler"
                } else {
                    "retrying"
                },
                range.0,
                range.1
            ),
            Event::Resumed {
                id,
                replayed,
                covered,
                total,
            } => format!(
                "job {id}: resumed from journal ({replayed} shards replayed, {covered}/{total} covered)"
            ),
            Event::Quarantined { id, range, reason } => format!(
                "job {id}: shard {}..{} QUARANTINED: {reason}",
                range.0, range.1
            ),
            Event::Done { id, stats, .. } => format!(
                "job {id}: done ({} merges, {} retries, {} repartitions, max {} live workers)",
                stats.completed, stats.retries, stats.repartitions, stats.max_live
            ),
            Event::JobError { id, reason } => format!("job {id}: FAILED: {reason}"),
            Event::Rejected { id, reason } => match id {
                Some(id) => format!("job {id}: rejected: {reason}"),
                None => format!("request rejected: {reason}"),
            },
            Event::Pong => "pong".into(),
            Event::Bye {
                done,
                failed,
                rejected,
            } => format!("bye ({done} done, {failed} failed, {rejected} rejected)"),
        }
    }
}

// -------------------------------------------------------------- requests

/// A `submit` frame: one sweep job.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// Client-chosen job id, echoed on every event for this job.
    pub id: u64,
    /// The sweep to run.
    pub workload: Workload,
    /// How many shards to partition into (at most 2^20 on the wire).
    pub shards: usize,
    /// Injected transient faults, `(shard_index, fault)` (tests).
    pub faults: Vec<(usize, Fault)>,
    /// Verify the merged output against an in-process monolithic run
    /// and report `bit_identical` in the `done` frame.
    pub check: bool,
}

impl SubmitRequest {
    /// Wire encoding (what a client sends).
    pub fn to_wire(&self) -> Value {
        let mut entries = vec![
            ("type", Value::Str("submit".into())),
            ("id", Value::uint(self.id as usize)),
            ("shards", Value::uint(self.shards)),
        ];
        if self.check {
            entries.push(("check", Value::Bool(true)));
        }
        if !self.faults.is_empty() {
            entries.push((
                "faults",
                Value::Arr(
                    self.faults
                        .iter()
                        .map(|(shard, fault)| {
                            Value::obj(vec![
                                ("shard", Value::uint(*shard)),
                                ("fault", Value::Str(fault.to_wire_str())),
                            ])
                        })
                        .collect(),
                ),
            ));
        }
        entries.push(("workload", self.workload.to_wire()));
        Value::obj(entries)
    }

    /// Wire decoding. `shards` defaults to 2, `check` to false,
    /// `faults` to none.
    pub fn from_wire(v: &Value) -> Result<SubmitRequest, WireError> {
        let id = v.field("id")?.as_uint()? as u64;
        let shards = match v.field("shards") {
            Err(_) => 2,
            Ok(s) => s.as_uint()?,
        };
        // Above the stride a job's indices would alias another job's
        // quarantine namespace, and `Shard::partition` would allocate
        // `shards` entries on the scheduler thread every tenant shares.
        if !(1..=JOB_NS_STRIDE).contains(&shards) {
            return Err(WireError(format!(
                "shards must be in 1..={JOB_NS_STRIDE}, got {shards}"
            )));
        }
        let check = match v.field("check") {
            Err(_) => false,
            Ok(c) => c.as_bool()?,
        };
        let faults = match v.field("faults") {
            Err(_) => Vec::new(),
            Ok(list) => list
                .as_arr()?
                .iter()
                .map(|f| {
                    Ok((
                        f.field("shard")?.as_uint()?,
                        Fault::from_wire_str(f.field("fault")?.as_str()?)?,
                    ))
                })
                .collect::<Result<_, WireError>>()?,
        };
        Ok(SubmitRequest {
            id,
            workload: Workload::from_wire(v.field("workload")?)?,
            shards,
            faults,
            check,
        })
    }
}

enum Request {
    Submit(Box<SubmitRequest>),
    Ping,
    Shutdown,
}

fn parse_request(v: &Value) -> Result<Request, WireError> {
    match v.field("type")?.as_str()? {
        "submit" => Ok(Request::Submit(Box::new(SubmitRequest::from_wire(v)?))),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(WireError(format!("unknown request type {other:?}"))),
    }
}

// ------------------------------------------------------------- journal

/// A per-job crash-safe write-ahead log: one `wal_job` header frame,
/// then one `wal_partial` frame per landed shard, each appended in the
/// **bit-exact** wire encoding (floats as IEEE-754 bit patterns) and
/// synced before the merge is acknowledged. Replaying any prefix
/// through the idempotent [`Merger`] and re-running the ranges it
/// reports missing reproduces the uninterrupted output bit for bit.
#[derive(Debug)]
pub struct JobJournal {
    path: PathBuf,
    file: fs::File,
}

impl JobJournal {
    /// Creates `dir/job-<id>.wal` (truncating any previous run of the
    /// same id) and writes the header frame.
    pub fn create(
        dir: &Path,
        id: u64,
        workload: &Workload,
        shards: usize,
    ) -> std::io::Result<JobJournal> {
        fs::create_dir_all(dir)?;
        let path = dir.join(format!("job-{id}.wal"));
        let mut file = fs::File::create(&path)?;
        let header = Value::obj(vec![
            ("type", Value::Str("wal_job".into())),
            ("id", Value::uint(id as usize)),
            ("shards", Value::uint(shards)),
            ("workload", workload.to_wire()),
        ])
        .to_json();
        file.write_all(header.as_bytes())?;
        file.write_all(b"\n")?;
        file.sync_data()?;
        Ok(JobJournal { path, file })
    }

    /// Re-opens an existing journal to append the partials a resumed
    /// run produces. Any torn tail (bytes after the last newline,
    /// from a crash mid-append) is truncated first so the file stays
    /// a clean frame-per-line log.
    pub fn open_append(path: &Path) -> std::io::Result<JobJournal> {
        let content = fs::read(path)?;
        let keep = content
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |i| i + 1);
        let mut file = fs::OpenOptions::new().read(true).write(true).open(path)?;
        file.set_len(keep as u64)?;
        file.seek(std::io::SeekFrom::End(0))?;
        Ok(JobJournal {
            path: path.to_path_buf(),
            file,
        })
    }

    /// Appends one landed shard result (synced before returning — the
    /// caller may acknowledge the merge once this succeeds).
    pub fn append(&mut self, result: &ShardResult<Payload>) -> std::io::Result<()> {
        let line = Value::obj(vec![
            ("type", Value::Str("wal_partial".into())),
            ("provenance", result.provenance.to_wire()),
            ("payload", result.payload.to_wire()),
        ])
        .to_json();
        self.file.write_all(line.as_bytes())?;
        self.file.write_all(b"\n")?;
        self.file.sync_data()
    }

    /// Where the journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// A second handle on the same open journal; it shares the file
    /// offset, so appends through either land in order.
    fn try_clone(&self) -> std::io::Result<JobJournal> {
        Ok(JobJournal {
            path: self.path.clone(),
            file: self.file.try_clone()?,
        })
    }
}

/// A loaded journal: the job header plus every intact replayed partial.
#[derive(Debug, Clone)]
pub struct JournalReplay {
    /// Job id from the header.
    pub id: u64,
    /// The sweep the job runs.
    pub workload: Workload,
    /// The original partition width (resume numbers fresh shards above
    /// it, like re-partitioning does).
    pub shards: usize,
    /// Replayed shard partials, in append order.
    pub results: Vec<ShardResult<Payload>>,
}

/// Parses a journal written by [`JobJournal`]. A torn **final** line
/// (crash mid-append) is tolerated — that shard simply re-runs; a
/// malformed line anywhere else is corruption and errors out.
pub fn load_journal(path: &Path) -> Result<JournalReplay, WireError> {
    let content =
        fs::read_to_string(path).map_err(|e| WireError(format!("reading journal: {e}")))?;
    let lines: Vec<&str> = content
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    let header = lines
        .first()
        .ok_or_else(|| WireError("empty journal (no wal_job header)".into()))
        .and_then(|l| Value::parse(l))?;
    if header.field("type")?.as_str()? != "wal_job" {
        return Err(WireError(
            "journal does not start with a wal_job header".into(),
        ));
    }
    let mut replay = JournalReplay {
        id: header.field("id")?.as_uint()? as u64,
        shards: header.field("shards")?.as_uint()?,
        workload: Workload::from_wire(header.field("workload")?)?,
        results: Vec::new(),
    };
    for (i, line) in lines.iter().enumerate().skip(1) {
        let parsed = Value::parse(line).and_then(|v| {
            if v.field("type")?.as_str()? != "wal_partial" {
                return Err(WireError(format!(
                    "unexpected journal frame type {:?}",
                    v.field("type")?.as_str()?
                )));
            }
            Ok(ShardResult {
                provenance: Provenance::from_wire(v.field("provenance")?)?,
                payload: Payload::from_wire(v.field("payload")?)?,
            })
        });
        match parsed {
            Ok(result) => replay.results.push(result),
            // A torn tail is exactly what a crash mid-append leaves;
            // the un-journaled shard re-runs.
            Err(_) if i == lines.len() - 1 => break,
            Err(e) => return Err(WireError(format!("journal line {}: {e}", i + 1))),
        }
    }
    Ok(replay)
}

// ----------------------------------------------------------- job engine

/// A submission in flight on the pool (possibly one of several
/// attempts for its range).
struct InFlight {
    /// Id of the job the attempt belongs to.
    job: u64,
    shard: Shard,
    attempt: u32,
    fault: Option<Fault>,
}

/// Splits a straggler's range in half onto two fresh synthetic shard
/// indices. Requires `len >= 2` (a single item cannot be split).
fn split_shard(shard: Shard, next_index: &mut usize) -> [Shard; 2] {
    debug_assert!(shard.len() >= 2);
    let mid = shard.start + shard.len() / 2;
    let mut sub = |start: usize, end: usize| {
        let index = *next_index;
        *next_index += 1;
        Shard::synthetic(index, shard.total, start, end)
    };
    [sub(shard.start, mid), sub(mid, shard.end)]
}

/// One job's identity and work description (bundled so the execution
/// entry points stay small).
#[derive(Debug, Clone, Copy)]
pub struct JobSpec<'a> {
    /// Job id, echoed on every event.
    pub id: u64,
    /// The sweep to run.
    pub workload: &'a Workload,
    /// How many shards to partition into.
    pub shards: usize,
    /// Injected transient faults, `(shard_index, fault)`.
    pub faults: &'a [(usize, Fault)],
}

/// Pool shard-index namespace stride. Concurrent jobs both have a
/// shard 0; without an offset their kill counts would alias in the
/// pool's per-shard quarantine ledger and one tenant's poison shard
/// could dead-letter another's. The serve driver offsets each job's
/// indices by a distinct multiple of this stride; the single-job entry
/// points use namespace 0, passing indices through unchanged.
const JOB_NS_STRIDE: usize = 1 << 20;

/// Everything the scheduler reacts to, in arrival order on **one**
/// channel: requests parsed by [`serve`]'s reader thread and the
/// pool's verdicts. The scheduler blocks on that channel and nothing
/// else, so it wakes exactly when there is something to do.
enum Msg {
    Submit(Box<SubmitRequest>),
    /// The reader saw a `shutdown` frame or input EOF.
    Closed,
    Verdict(PoolOutcome),
}

impl From<PoolOutcome> for Msg {
    fn from(outcome: PoolOutcome) -> Msg {
        Msg::Verdict(outcome)
    }
}

/// A persistent [`WorkerPool`] of `exe --worker` processes together
/// with the event channel its verdicts arrive on: what [`run_job_with`]
/// and [`resume_job`] drive, and what keeps compiled-pattern caches
/// warm across a caller's jobs. Dereferences to the pool for its
/// counters, pids and dead letters.
pub struct ServePool {
    pool: WorkerPool,
    events: mpsc::Receiver<Msg>,
}

impl std::ops::Deref for ServePool {
    type Target = WorkerPool;

    fn deref(&self) -> &WorkerPool {
        &self.pool
    }
}

impl ServePool {
    /// Shuts every worker down and returns the pool's final counters.
    pub fn shutdown(self) -> PoolStats {
        self.pool.shutdown()
    }
}

/// A [`ServePool`] for `config` plus a sender onto its event channel.
fn serve_pool(exe: &Path, config: &ServeConfig) -> (ServePool, mpsc::Sender<Msg>) {
    let (tx, events) = mpsc::channel();
    let cmd = WorkerCommand::new(exe, &["--worker"]);
    let pool = WorkerPool::new(cmd, pool_config(config), tx.clone());
    (ServePool { pool, events }, tx)
}

/// Builds the persistent worker pool for a serve connection
/// (re-invokes `exe --worker`, which the pool extends with
/// `--persistent --gen N --heartbeat-ms M`).
pub fn spawn_pool(exe: &Path, config: &ServeConfig) -> ServePool {
    serve_pool(exe, config).0
}

/// One job's complete state: its own [`Merger`], stats,
/// retry/straggler bookkeeping, and the queue of shard attempts not
/// yet handed to the pool. The [`Scheduler`] keeps up to `max_jobs` of
/// these live at once over one pool; the merge algebra is strictly
/// per-job, so interleaving cannot change any job's output.
struct JobRun {
    id: u64,
    /// Pool shard-index namespace (0 for the single-job entry points).
    ns: usize,
    workload: Workload,
    cache_key: String,
    total: usize,
    merger: Merger<Payload>,
    stats: JobStats,
    next_index: usize,
    abandoned: Vec<Shard>,
    /// Shard attempts awaiting dispatch: `(shard, attempt, fault,
    /// backoff delay)`.
    ready: VecDeque<(Shard, u32, Option<Fault>, Duration)>,
    /// This job's submissions currently in flight.
    inflight: usize,
    /// Pool counters at job start, for per-job deltas at the end.
    pool_base: PoolStats,
    /// Set once the job permanently failed; its remaining in-flight
    /// verdicts are drained and discarded before the error surfaces.
    failed: Option<ShardError>,
    /// The job's write-ahead log, appended before every merge.
    journal: Option<JobJournal>,
    /// Verify the output against the monolithic run when it settles.
    check: bool,
}

impl JobRun {
    fn new(
        id: u64,
        ns: usize,
        workload: Workload,
        merger: Merger<Payload>,
        next_index: usize,
        stats: JobStats,
        pool: &WorkerPool,
    ) -> JobRun {
        JobRun {
            id,
            ns,
            cache_key: workload.cache_key(),
            total: workload.total(),
            workload,
            merger,
            stats,
            next_index,
            abandoned: Vec::new(),
            ready: VecDeque::new(),
            inflight: 0,
            pool_base: pool.stats(),
            failed: None,
            journal: None,
            check: false,
        }
    }

    /// Partitions a fresh job, announces it ([`Event::Accepted`]), and
    /// queues the first attempt of every non-empty shard with its
    /// injected fault, if any.
    fn start(
        spec: &JobSpec<'_>,
        ns: usize,
        pool: &WorkerPool,
        emit: &mut dyn FnMut(Event),
    ) -> JobRun {
        let total = spec.workload.total();
        let parts: Vec<Shard> = Shard::partition(total, spec.shards)
            .into_iter()
            .filter(|s| !s.is_empty())
            .collect();
        emit(Event::Accepted {
            id: spec.id,
            total,
            shards: parts.len(),
        });
        let stats = JobStats {
            shards: parts.len(),
            ..JobStats::default()
        };
        // Synthetic indices for re-partitioned sub-shards start above
        // the original partition so error messages stay unambiguous.
        let mut run = JobRun::new(
            spec.id,
            ns,
            spec.workload.clone(),
            Merger::new(total),
            spec.shards,
            stats,
            pool,
        );
        for part in parts {
            let fault = spec
                .faults
                .iter()
                .find(|(i, _)| *i == part.index)
                .map(|(_, f)| *f);
            run.ready.push_back((part, 0, fault, Duration::ZERO));
        }
        run
    }

    /// Nothing in flight and nothing left to dispatch: the job is done
    /// (successfully or not) and can be reaped via [`JobRun::finish`].
    fn settled(&self) -> bool {
        self.inflight == 0 && self.ready.is_empty()
    }

    fn fail(&mut self, e: ShardError) {
        self.ready.clear();
        if self.failed.is_none() {
            self.failed = Some(e);
        }
    }

    /// Applies one verdict for this job: merge (WAL-first), retry with
    /// backoff, straggler split, quarantine, or fail fast on an open
    /// circuit breaker. Requeued attempts land in `ready`; the
    /// scheduler decides when to dispatch them.
    fn on_verdict(
        &mut self,
        flight: InFlight,
        outcome: PoolOutcome,
        config: &ServeConfig,
        emit: &mut dyn FnMut(Event),
    ) {
        self.inflight -= 1;
        if self.failed.is_some() {
            // Already failed: late verdicts drain into the void.
            return;
        }
        let id = self.id;
        let decoded = outcome
            .result
            .and_then(|stdout| decode_worker_result(flight.shard.index, &stdout));
        match decoded {
            Ok(result) => {
                // WAL first: the merge is only acknowledged once the
                // partial is durably journaled, so a crash after this
                // point is recoverable bit-exactly.
                if let Some(j) = &mut self.journal {
                    if let Err(e) = j.append(&result) {
                        self.fail(ShardError::Worker {
                            shard: flight.shard.index,
                            reason: format!("journal append failed: {e}"),
                        });
                        return;
                    }
                }
                let provenance = result.provenance.clone();
                if let Err(e) = self.merger.insert(result) {
                    self.fail(e);
                    return;
                }
                self.stats.completed += 1;
                self.stats.cache_hits += provenance.cache_hits;
                self.stats.cache_misses += provenance.cache_misses;
                let latency_ms = outcome.elapsed.as_millis() as u64;
                self.stats.shard_ms.push(latency_ms);
                let covered = self.total
                    - self
                        .merger
                        .missing()
                        .iter()
                        .map(|(s, e)| e - s)
                        .sum::<usize>();
                emit(Event::Partial {
                    id,
                    shard: flight.shard,
                    backend: provenance.backend,
                    attempt: flight.attempt,
                    latency_ms,
                    cache_hits: provenance.cache_hits,
                    cache_misses: provenance.cache_misses,
                    covered,
                    total: self.total,
                });
            }
            // The pool's restart-rate breaker opened: the worker binary
            // is failing systemically, so fail fast rather than retry.
            Err(e) if outcome.circuit_open => self.fail(e),
            Err(e) if outcome.quarantined => {
                self.stats.quarantined += 1;
                emit(Event::Quarantined {
                    id,
                    range: (flight.shard.start, flight.shard.end),
                    reason: e.to_string(),
                });
                if config.allow_partial {
                    self.abandoned.push(flight.shard);
                } else {
                    self.fail(e);
                }
            }
            Err(e) if outcome.timed_out && flight.shard.len() >= 2 => {
                // Straggler: its worker is already killed; halve the
                // range onto fresh workers. Sub-shards run clean (the
                // injected-fault map keys on original indices only) and
                // merge into the exact same output — ranges are
                // disjoint and the fold is canonical-order.
                self.stats.repartitions += 1;
                emit(Event::Requeue {
                    id,
                    range: (flight.shard.start, flight.shard.end),
                    attempt: 0,
                    backoff_ms: 0,
                    repartitioned: true,
                    reason: e.to_string(),
                });
                for sub in split_shard(flight.shard, &mut self.next_index) {
                    self.ready.push_back((sub, 0, None, Duration::ZERO));
                }
            }
            Err(e) => {
                let attempt = flight.attempt + 1;
                if attempt >= config.retry.max_attempts {
                    self.fail(e);
                    return;
                }
                self.stats.retries += 1;
                let backoff = config.retry.backoff(attempt);
                emit(Event::Requeue {
                    id,
                    range: (flight.shard.start, flight.shard.end),
                    attempt,
                    backoff_ms: backoff.as_millis() as u64,
                    repartitioned: false,
                    reason: e.to_string(),
                });
                self.ready
                    .push_back((flight.shard, attempt, flight.fault, backoff));
            }
        }
    }

    /// Finishes the settled job: folds the pool's per-job counter
    /// deltas, fills quarantined ranges with [`hole_payload`]
    /// placeholders (`allow_partial`), and assembles the output.
    fn finish(&mut self, pool: &WorkerPool) -> JobResult {
        let now = pool.stats();
        self.stats.spawned += now.spawned.saturating_sub(self.pool_base.spawned);
        self.stats.worker_restarts += now.restarts.saturating_sub(self.pool_base.restarts);
        self.stats.max_live = self.stats.max_live.max(now.max_live);
        if let Some(e) = self.failed.take() {
            return Err(e);
        }
        // Quarantined ranges (allow_partial) fill with placeholder
        // payloads so the output keeps its shape; the holes are
        // NaN-valued and the stats carry the quarantine count.
        for shard in std::mem::take(&mut self.abandoned) {
            self.merger.insert(ShardResult {
                provenance: Provenance {
                    shard,
                    backend: "quarantined".into(),
                    cache_hits: 0,
                    cache_misses: 0,
                },
                payload: hole_payload(&self.workload, shard),
            })?;
        }
        let merger = std::mem::replace(&mut self.merger, Merger::new(self.total));
        let output = assemble(&self.workload, merger.finish()?);
        Ok((output, std::mem::take(&mut self.stats)))
    }
}

/// A job's assembled output and counters, or why it failed.
type JobResult = Result<(SweepOutput, JobStats), ShardError>;

/// The one event loop behind [`serve`], [`run_job_with`] and
/// [`resume_job`]. It owns the admission queue and the ids of every
/// queued or running job, drives up to `max_jobs` [`JobRun`]s over one
/// pool (round-robin, one shard per job per turn), and demuxes
/// verdicts back to their jobs by tag. Tags are unique for the
/// scheduler's lifetime, so a failed job's late outcome can never be
/// mistaken for a later job's. Whenever there is nothing to dispatch
/// or reap, it blocks on its single [`Msg`] channel.
struct Scheduler<'a> {
    pool: &'a WorkerPool,
    config: &'a ServeConfig,
    /// Tag → attempt bookkeeping, across all jobs.
    inflight: HashMap<u64, InFlight>,
    next_tag: u64,
    active: Vec<JobRun>,
    /// Round-robin cursor over `active`.
    rr: usize,
    /// Submits waiting for a job slot.
    queue: VecDeque<SubmitRequest>,
    /// [`serve`]'s count of accepted submits not yet started (in the
    /// channel or in `queue`); the scheduler decrements it as each
    /// leaves the line.
    waiting: Option<&'a AtomicUsize>,
    /// Ids of every queued **or running** job. A submit reusing one is
    /// rejected: admitting it would shadow a live job's event stream
    /// and `JobJournal::create` would truncate the original's WAL,
    /// silently destroying its in-flight crash-safety.
    ids: HashSet<u64>,
    /// Cache key of the last admitted job, and the affinity streak of
    /// [`pick_next`].
    last_key: Option<String>,
    streak: usize,
    next_ns: usize,
    /// Whether more requests may still arrive.
    open: bool,
    stats: ServeStats,
}

impl<'a> Scheduler<'a> {
    fn new(pool: &'a WorkerPool, config: &'a ServeConfig) -> Self {
        Scheduler {
            pool,
            config,
            inflight: HashMap::new(),
            next_tag: 0,
            active: Vec::new(),
            rr: 0,
            queue: VecDeque::new(),
            waiting: None,
            ids: HashSet::new(),
            last_key: None,
            streak: 0,
            next_ns: 0,
            open: true,
            stats: ServeStats::default(),
        }
    }

    /// Runs until no more requests can arrive and every queued and
    /// active job has settled, handing each settled job to `settle`.
    fn run(
        &mut self,
        events: &mpsc::Receiver<Msg>,
        emit: &mut dyn FnMut(Event),
        settle: &mut dyn FnMut(&JobRun, JobResult),
    ) {
        loop {
            self.admit(emit);
            self.feed();
            if let Some(i) = self.active.iter().position(JobRun::settled) {
                let mut job = self.active.remove(i);
                self.ids.remove(&job.id);
                let result = job.finish(self.pool);
                match result {
                    Ok(_) => self.stats.done += 1,
                    Err(_) => self.stats.failed += 1,
                }
                settle(&job, result);
                continue; // a freed slot may admit a queued job
            }
            if !self.open && self.queue.is_empty() && self.active.is_empty() {
                return;
            }
            match events.recv() {
                Ok(Msg::Submit(req)) => self.offer(*req, emit),
                Ok(Msg::Closed) => self.open = false,
                Ok(Msg::Verdict(outcome)) => self.on_verdict(outcome, emit),
                Err(mpsc::RecvError) => self.abort(),
            }
        }
    }

    /// Queues one submit, or rejects it at once when its id is already
    /// queued or running.
    fn offer(&mut self, req: SubmitRequest, emit: &mut dyn FnMut(Event)) {
        if self.ids.insert(req.id) {
            self.queue.push_back(req);
            return;
        }
        self.dequeued();
        self.stats.rejected += 1;
        emit(Event::Rejected {
            id: Some(req.id),
            reason: format!("admission: job id {} is already queued or running", req.id),
        });
    }

    /// One accepted submit left the waiting line (started or rejected).
    fn dequeued(&self) {
        if let Some(waiting) = self.waiting {
            waiting.fetch_sub(1, Ordering::SeqCst);
        }
    }

    /// Moves queued submits into free job slots (affinity-bounded, see
    /// [`pick_next`]), creating each job's journal first.
    fn admit(&mut self, emit: &mut dyn FnMut(Event)) {
        while self.active.len() < self.config.max_jobs.max(1) {
            let Some(req) = pick_next(&mut self.queue, self.last_key.as_deref(), &mut self.streak)
            else {
                return;
            };
            self.dequeued();
            self.last_key = Some(req.workload.cache_key());
            let journal = match &self.config.journal_dir {
                None => None,
                Some(dir) => match JobJournal::create(dir, req.id, &req.workload, req.shards) {
                    Ok(j) => Some(j),
                    Err(e) => {
                        self.ids.remove(&req.id);
                        self.stats.failed += 1;
                        emit(Event::JobError {
                            id: req.id,
                            reason: format!("cannot create job journal: {e}"),
                        });
                        continue;
                    }
                },
            };
            let spec = JobSpec {
                id: req.id,
                workload: &req.workload,
                shards: req.shards,
                faults: &req.faults,
            };
            let mut run = JobRun::start(&spec, self.next_ns, self.pool, emit);
            self.next_ns += 1;
            run.journal = journal;
            run.check = req.check;
            self.active.push(run);
        }
    }

    /// Keeps the pool fed round-robin, one shard attempt per ready job
    /// per turn, until the dispatch window is full. The window keeps
    /// the pool's internal queue shallow so a job admitted late is not
    /// stuck behind one tenant's backlog.
    fn feed(&mut self) {
        let window = self.config.cap + self.active.len();
        while self.inflight.len() < window {
            let n = self.active.len();
            let Some(slot) = (0..n)
                .map(|off| (self.rr + off) % n)
                .find(|&i| !self.active[i].ready.is_empty())
            else {
                return;
            };
            self.rr = (slot + 1) % n;
            self.dispatch(slot);
        }
    }

    /// Hands the next ready attempt of `active[slot]` to the pool. A
    /// refused submission fails the job at once: the pool is the only
    /// lane, and it refuses work only with its breaker open (or its
    /// supervisor gone).
    fn dispatch(&mut self, slot: usize) {
        let run = &mut self.active[slot];
        let Some((shard, attempt, fault, delay)) = run.ready.pop_front() else {
            return;
        };
        let tag = self.next_tag;
        self.next_tag += 1;
        let job = PoolJob {
            tag,
            shard_index: run.ns * JOB_NS_STRIDE + shard.index,
            input: job_to_json_attempt(&run.workload, shard, fault, attempt),
            cache_key: run.cache_key.clone(),
            delay,
        };
        if self.pool.submit(job).is_ok() {
            run.inflight += 1;
            let flight = InFlight {
                job: run.id,
                shard,
                attempt,
                fault,
            };
            self.inflight.insert(tag, flight);
        } else {
            let reason = if self.pool.is_tripped() {
                "worker pool circuit breaker open: job refused"
            } else {
                "worker pool supervisor is gone"
            };
            run.fail(ShardError::Worker {
                shard: shard.index,
                reason: reason.into(),
            });
        }
    }

    fn on_verdict(&mut self, outcome: PoolOutcome, emit: &mut dyn FnMut(Event)) {
        let flight = self
            .inflight
            .remove(&outcome.tag)
            .expect("every verdict answers a submission of this scheduler");
        self.active
            .iter_mut()
            .find(|job| job.id == flight.job)
            .expect("a job with attempts in flight stays active")
            .on_verdict(flight, outcome, self.config, emit);
    }

    /// The event channel disconnected: the reader is done and the
    /// pool's supervisor died, so no verdict will ever arrive. Fails
    /// every active job instead of blocking forever.
    fn abort(&mut self) {
        self.open = false;
        self.inflight.clear();
        for job in &mut self.active {
            job.fail(ShardError::Worker {
                shard: 0,
                reason: "worker scheduler terminated with jobs in flight".into(),
            });
            job.inflight = 0;
        }
    }
}

/// Drives one already-started job to completion on `pool`'s event
/// loop and returns its result.
fn drive_one(
    pool: &ServePool,
    config: &ServeConfig,
    run: JobRun,
    emit: &mut dyn FnMut(Event),
) -> JobResult {
    let mut sched = Scheduler::new(pool, config);
    sched.open = false;
    sched.active.push(run);
    let mut result = None;
    sched.run(&pool.events, emit, &mut |_, settled| result = Some(settled));
    result.expect("the scheduler settles every active job")
}

/// Executes one job end to end with streaming merge, retry + backoff,
/// and straggler re-partition on a private [`WorkerPool`]; emits an
/// [`Event`] for every scheduling decision. Returns the assembled
/// output (bit-exact vs. the monolithic run — the fault harness and
/// the serve tests pin this) plus the job's counters.
///
/// `exe` is re-invoked as `exe --worker` per worker process.
pub fn run_job(
    exe: &Path,
    id: u64,
    workload: &Workload,
    shards: usize,
    faults: &[(usize, Fault)],
    config: &ServeConfig,
    emit: &mut dyn FnMut(Event),
) -> JobResult {
    let pool = spawn_pool(exe, config);
    let spec = JobSpec {
        id,
        workload,
        shards,
        faults,
    };
    let result = run_job_with(&pool, &spec, config, None, emit);
    pool.shutdown();
    result
}

/// [`run_job`] against a caller-owned (typically connection-scoped)
/// [`ServePool`] — affinity routing then keeps compiled-pattern caches
/// warm **across** jobs — and an optional crash-safe journal that
/// records every landed partial before it is acknowledged. The pool
/// already knows its worker binary.
pub fn run_job_with(
    pool: &ServePool,
    spec: &JobSpec<'_>,
    config: &ServeConfig,
    journal: Option<&mut JobJournal>,
    emit: &mut dyn FnMut(Event),
) -> JobResult {
    // A duplicate handle shares the caller's file offset, so appends
    // land exactly as if written through `journal` itself.
    let journal = journal
        .map(|j| j.try_clone())
        .transpose()
        .map_err(|e| ShardError::Worker {
            shard: 0,
            reason: format!("sharing the job journal: {e}"),
        })?;
    let mut run = JobRun::start(spec, 0, pool, emit);
    run.journal = journal;
    drive_one(pool, config, run, emit)
}

/// Resumes a crashed or interrupted job from its journal: replays
/// every intact partial through the idempotent [`Merger`], emits
/// [`Event::Resumed`], re-runs **only** the missing ranges (as fresh
/// synthetic shards, like re-partitioning), and keeps appending to the
/// same journal. The final output is bit-identical to the
/// uninterrupted run. Returns `(id, workload, output, stats)` — the
/// workload so the caller can run a `--check` against the monolithic
/// reference.
pub fn resume_job(
    pool: &ServePool,
    path: &Path,
    config: &ServeConfig,
    emit: &mut dyn FnMut(Event),
) -> Result<(u64, Workload, SweepOutput, JobStats), ShardError> {
    let JournalReplay {
        id,
        workload,
        shards,
        results,
    } = load_journal(path).map_err(|e| ShardError::Worker {
        shard: 0,
        reason: format!("loading journal {}: {e}", path.display()),
    })?;
    let total = workload.total();
    let mut merger = Merger::new(total);
    let stats = JobStats {
        shards,
        replayed: results.len(),
        ..JobStats::default()
    };
    let mut next_index = shards;
    for result in results {
        next_index = next_index.max(result.provenance.shard.index + 1);
        merger.insert(result)?;
    }
    let covered = total - merger.missing().iter().map(|(s, e)| e - s).sum::<usize>();
    emit(Event::Resumed {
        id,
        replayed: stats.replayed,
        covered,
        total,
    });
    let journal = JobJournal::open_append(path).map_err(|e| ShardError::Worker {
        shard: 0,
        reason: format!("re-opening journal {}: {e}", path.display()),
    })?;
    // Missing ranges re-run as fresh synthetic shards with no faults:
    // injected faults are keyed on original indices, and a resume must
    // converge rather than re-trip the same failure. `Shard::synthetic`
    // keeps the `index < of` provenance invariant that the wire decoder
    // asserts (re-runs used to claim "shard 7 of 4").
    let missing = merger.missing();
    let mut run = JobRun::new(id, 0, workload.clone(), merger, next_index, stats, pool);
    run.journal = Some(journal);
    for (start, end) in missing {
        let shard = Shard::synthetic(run.next_index, total, start, end);
        run.next_index += 1;
        run.ready.push_back((shard, 0, None, Duration::ZERO));
    }
    let (output, stats) = drive_one(pool, config, run, emit)?;
    Ok((id, workload, output, stats))
}

// ------------------------------------------------------------ the server

/// Connection counters returned by [`serve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServeStats {
    /// Jobs completed.
    pub done: usize,
    /// Jobs permanently failed.
    pub failed: usize,
    /// Requests rejected by admission control or frame validation.
    pub rejected: usize,
}

/// Picks the next job to admit: cache-affinity first (a queued job
/// sharing `last_key` keeps the compiled-pattern caches hot), else
/// FIFO. Affinity is **bounded**: after [`AFFINITY_STREAK_BOUND`]
/// consecutive picks that bypassed the FIFO head, the head runs
/// regardless — a sustained stream of same-key submissions used to
/// starve every other queued job forever. A head pick (affine or not)
/// advances the FIFO and resets the streak.
fn pick_next(
    queue: &mut VecDeque<SubmitRequest>,
    last_key: Option<&str>,
    streak: &mut usize,
) -> Option<SubmitRequest> {
    if let Some(key) = last_key {
        if let Some(pos) = queue.iter().position(|r| r.workload.cache_key() == key) {
            if pos == 0 {
                *streak = 0;
                return queue.pop_front();
            }
            if *streak < AFFINITY_STREAK_BOUND {
                *streak += 1;
                return queue.remove(pos);
            }
        }
    }
    *streak = 0;
    queue.pop_front()
}

/// The always-on orchestrator loop: newline-delimited request frames
/// in, event frames out, until a `shutdown` frame or input EOF (then
/// the queue is drained gracefully and a `bye` frame closes the
/// stream).
///
/// A reader thread parses frames: it answers `ping`, rejects malformed
/// frames, and rejects a `submit` at once when `max_queue` accepted
/// submits are already waiting to start — however far a busy
/// scheduler falls behind, waiting work stays bounded. Every other
/// `submit` (and the end of input) goes to the scheduler, whose one
/// event channel also carries the pool's verdicts. The scheduler owns
/// the admission queue and the ids of queued and running jobs, and
/// rejects a `submit` that reuses one.
///
/// Up to `max_jobs` admitted jobs run **concurrently**: the scheduler
/// feeds their shards to the shared pool round-robin (one shard per
/// job per turn) and demuxes verdicts back per job, so every tenant
/// makes progress while any has work left. If the pool's circuit
/// breaker opens, every job then running and every later one fails
/// fast with a `job_error` naming the open circuit.
pub fn serve<R, W>(reader: R, writer: W, exe: &Path, config: &ServeConfig) -> ServeStats
where
    R: BufRead + Send,
    W: Write + Send,
{
    let writer = Mutex::new(writer);
    let emit = |event: Event| {
        if config.log {
            eprintln!("serve: {}", event.log_line());
        }
        let mut w = lock_unpoisoned(&writer);
        // A vanished client is not an error the service can answer;
        // keep running (remaining events will fail the same way).
        let _ = write_frame(&mut *w, &event.to_wire());
    };
    // One persistent pool per connection: affinity routing keeps
    // compiled-pattern caches warm across consecutive jobs sharing a
    // cache key.
    let (pool, requests) = serve_pool(exe, config);
    let waiting = AtomicUsize::new(0);
    let stats = std::thread::scope(|scope| {
        let waiting = &waiting;
        let reader_thread = scope.spawn(move || {
            let mut reader = reader;
            let mut rejected = 0;
            while let Some(frame) = read_frame(&mut reader) {
                let (id, reason) = match frame.and_then(|v| parse_request(&v)) {
                    Ok(Request::Ping) => {
                        emit(Event::Pong);
                        continue;
                    }
                    Ok(Request::Shutdown) => break,
                    Ok(Request::Submit(req)) => {
                        if waiting.fetch_add(1, Ordering::SeqCst) < config.max_queue {
                            let _ = requests.send(Msg::Submit(req));
                            continue;
                        }
                        waiting.fetch_sub(1, Ordering::SeqCst);
                        (
                            Some(req.id),
                            format!("admission: queue full ({} jobs waiting)", config.max_queue),
                        )
                    }
                    Err(e) => (None, e.to_string()),
                };
                rejected += 1;
                emit(Event::Rejected { id, reason });
            }
            let _ = requests.send(Msg::Closed);
            rejected
        });
        let mut sched = Scheduler::new(&pool, config);
        sched.waiting = Some(waiting);
        sched.run(
            &pool.events,
            &mut |event| emit(event),
            &mut |job, result| match result {
                Ok((output, stats)) => {
                    let bit_identical = job
                        .check
                        .then(|| output.bit_identical(&monolithic(&job.workload)));
                    emit(Event::Done {
                        id: job.id,
                        output,
                        stats,
                        bit_identical,
                    });
                }
                Err(e) => emit(Event::JobError {
                    id: job.id,
                    reason: e.to_string(),
                }),
            },
        );
        let mut stats = sched.stats;
        stats.rejected += reader_thread.join().unwrap_or(0);
        stats
    });
    pool.shutdown();
    emit(Event::Bye {
        done: stats.done,
        failed: stats.failed,
        rejected: stats.rejected,
    });
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{BackendKind, FamilyRef};

    fn landscape(name: &str) -> Workload {
        Workload::Landscape {
            family: FamilyRef {
                seed: 7,
                name: name.into(),
            },
            backend: BackendKind::Gate,
            steps: 4,
            gamma: (0.0, 2.0),
            beta: (0.0, 2.0),
        }
    }

    fn submit(id: u64, name: &str) -> SubmitRequest {
        SubmitRequest {
            id,
            workload: landscape(name),
            shards: 2,
            faults: vec![],
            check: false,
        }
    }

    #[test]
    fn submit_requests_round_trip_the_wire() {
        let reqs = [
            submit(1, "square"),
            SubmitRequest {
                id: 9,
                workload: landscape("triangle"),
                shards: 5,
                faults: vec![(0, Fault::Panic), (3, Fault::Stall(120))],
                check: true,
            },
        ];
        for req in &reqs {
            let parsed = Value::parse(&req.to_wire().to_json()).unwrap();
            assert_eq!(&SubmitRequest::from_wire(&parsed).unwrap(), req);
        }
    }

    #[test]
    fn zero_shards_is_rejected_at_decode() {
        let mut req = submit(1, "square");
        req.shards = 1;
        let mut v = req.to_wire();
        if let Value::Obj(entries) = &mut v {
            for (k, val) in entries.iter_mut() {
                if k == "shards" {
                    *val = Value::Int(0);
                }
            }
        }
        assert!(SubmitRequest::from_wire(&v).is_err());
    }

    #[test]
    fn pick_next_prefers_cache_affinity_then_fifo() {
        let mut q: VecDeque<SubmitRequest> = [
            submit(1, "square"),
            submit(2, "triangle"),
            submit(3, "square"),
        ]
        .into_iter()
        .collect();
        let key = landscape("square").cache_key();
        let mut streak = 0;
        // Affinity: job 1 (first matching), then job 3 — job 2 waits.
        assert_eq!(pick_next(&mut q, Some(&key), &mut streak).unwrap().id, 1);
        assert_eq!(pick_next(&mut q, Some(&key), &mut streak).unwrap().id, 3);
        // No match left: FIFO.
        assert_eq!(pick_next(&mut q, Some(&key), &mut streak).unwrap().id, 2);
        assert!(pick_next(&mut q, None, &mut streak).is_none());
    }

    #[test]
    fn pick_next_affinity_streak_cannot_starve_the_fifo_head() {
        // Regression: affinity used to be unbounded, so a sustained
        // stream of same-key jobs starved a different-key head forever.
        let mut q: VecDeque<SubmitRequest> = std::iter::once(submit(100, "triangle"))
            .chain((1..=AFFINITY_STREAK_BOUND as u64 + 2).map(|id| submit(id, "square")))
            .collect();
        let key = landscape("square").cache_key();
        let mut streak = 0;
        let mut order = Vec::new();
        while let Some(req) = pick_next(&mut q, Some(&key), &mut streak) {
            order.push(req.id);
        }
        // Exactly K affinity picks bypass the head, then the head runs.
        let bumped = order
            .iter()
            .position(|&id| id == 100)
            .expect("the head must eventually run");
        assert_eq!(bumped, AFFINITY_STREAK_BOUND);
        // Nothing is lost, and the post-head picks resume affinity.
        assert_eq!(order.len(), AFFINITY_STREAK_BOUND + 3);
    }

    #[test]
    fn split_shard_halves_cover_exactly_with_fresh_indices() {
        let shard = Shard {
            index: 1,
            of: 3,
            total: 10,
            start: 3,
            end: 8,
        };
        let mut next_index = 3;
        let [a, b] = split_shard(shard, &mut next_index);
        assert_eq!((a.start, a.end), (3, 5));
        assert_eq!((b.start, b.end), (5, 8));
        assert_eq!((a.index, b.index), (3, 4));
        assert_eq!(next_index, 5);
        assert!(!a.is_empty() && !b.is_empty());
        // Synthetic sub-shards keep the provenance invariant the wire
        // decoder asserts: index < of.
        assert!(a.index < a.of && b.index < b.of);
    }

    #[test]
    fn stats_latency_summary_is_min_median_max() {
        let stats = JobStats {
            shard_ms: vec![40, 10, 99, 20, 30],
            ..JobStats::default()
        };
        assert_eq!(stats.latency_summary(), (10, 30, 99));
        assert_eq!(JobStats::default().latency_summary(), (0, 0, 0));
    }

    #[test]
    fn events_encode_their_type_tag() {
        let probes = [
            (
                Event::Accepted {
                    id: 1,
                    total: 16,
                    shards: 4,
                },
                "accepted",
            ),
            (Event::Pong, "pong"),
            (
                Event::Rejected {
                    id: None,
                    reason: "queue full".into(),
                },
                "rejected",
            ),
        ];
        for (event, tag) in &probes {
            let v = event.to_wire();
            assert_eq!(v.field("type").unwrap().as_str().unwrap(), *tag);
            // Every event frame must survive the wire as-is.
            assert_eq!(Value::parse(&v.to_json()).unwrap(), v);
        }
    }
}
