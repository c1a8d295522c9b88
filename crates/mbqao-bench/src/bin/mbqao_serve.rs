//! `mbqao-serve` — the always-on sweep orchestrator.
//!
//! Reads newline-delimited request frames on stdin (`submit` / `ping` /
//! `shutdown`, mini-JSON per `mbqao_core::engine::wire`), schedules
//! each job's shards onto a supervised persistent worker pool
//! (heartbeats, automatic restarts, poison-shard quarantine, and a
//! circuit breaker that fails jobs fast — see `docs/SERVE.md`), and
//! writes event frames on stdout as the job progresses: `accepted`,
//! one `partial` per merged shard in completion order, `requeue` for
//! every retry or straggler re-partition, `quarantined` for
//! dead-lettered shards, and a final `done` carrying the assembled
//! output plus per-job stats. With
//! `--journal DIR` every landed partial is write-ahead logged so an
//! interrupted job can be completed later with `--resume`.
//!
//! Usage:
//! ```text
//! mbqao-serve [--cap N] [--max-jobs N] [--retries N] [--backoff-ms MS]
//!             [--straggler-ms MS] [--queue N] [--quiet]
//!             [--quarantine K] [--allow-partial] [--journal DIR]
//! mbqao-serve --resume PATH [--check] [--quiet] [...]
//!                          # replay a job-<id>.wal and finish the job
//! mbqao-serve --worker     # internal: pool worker, JSON frames over stdio
//! ```
//!
//! Example session (one 2-shard landscape job, then shutdown):
//! ```text
//! printf '%s\n%s\n' \
//!   '{"type":"submit","id":1,"shards":2,"check":true,"workload":{...}}' \
//!   '{"type":"shutdown"}' | mbqao-serve --cap 2
//! ```

use mbqao_bench::serve::{resume_job, serve, spawn_pool, Event, ServeConfig};
use mbqao_bench::sweep::{monolithic, worker_entry};
use mbqao_core::engine::shard::RetryPolicy;
use mbqao_core::engine::wire::write_frame;
use std::path::{Path, PathBuf};
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--worker") {
        worker_entry(&args);
        return;
    }
    let mut config = ServeConfig {
        log: !args.iter().any(|a| a == "--quiet"),
        allow_partial: args.iter().any(|a| a == "--allow-partial"),
        ..ServeConfig::default()
    };
    if let Some(cap) = flag(&args, "--cap") {
        config.cap = cap.parse().expect("--cap N");
    }
    let retries = flag(&args, "--retries").map_or(config.retry.max_attempts, |v| {
        v.parse().expect("--retries N")
    });
    let backoff = flag(&args, "--backoff-ms").map_or(config.retry.base, |v| {
        Duration::from_millis(v.parse().expect("--backoff-ms MS"))
    });
    config.retry = RetryPolicy::new(retries, backoff);
    if let Some(ms) = flag(&args, "--straggler-ms") {
        config.straggler_deadline = Some(Duration::from_millis(
            ms.parse().expect("--straggler-ms MS"),
        ));
    }
    if let Some(q) = flag(&args, "--queue") {
        config.max_queue = q.parse().expect("--queue N");
    }
    if let Some(n) = flag(&args, "--max-jobs") {
        config.max_jobs = n.parse().expect("--max-jobs N");
    }
    if let Some(k) = flag(&args, "--quarantine") {
        config.quarantine_after = k.parse().expect("--quarantine K");
    }
    if let Some(dir) = flag(&args, "--journal") {
        config.journal_dir = Some(PathBuf::from(dir));
    }
    let exe = std::env::current_exe().expect("current_exe");
    if let Some(path) = flag(&args, "--resume") {
        let check = args.iter().any(|a| a == "--check");
        resume(&exe, Path::new(path), check, &config);
        return;
    }
    if config.log {
        eprintln!(
            "serve: listening on stdin (cap {}, max jobs {}, {} attempts, base backoff {:?}, queue {})",
            config.cap,
            config.max_jobs,
            config.retry.max_attempts,
            config.retry.base,
            config.max_queue,
        );
    }
    let stats = serve(
        std::io::BufReader::new(std::io::stdin()),
        std::io::stdout(),
        &exe,
        &config,
    );
    if stats.failed > 0 {
        std::process::exit(1);
    }
}

/// `--resume PATH`: replay the journal, re-run only the missing
/// ranges, emit the usual event frames plus the final `done` (with
/// `bit_identical` when `--check` is given), and exit nonzero on
/// failure.
fn resume(exe: &Path, path: &Path, check: bool, config: &ServeConfig) {
    let mut out = std::io::stdout();
    let log = config.log;
    let mut emit = |event: Event| {
        if log {
            eprintln!("serve: {}", event.log_line());
        }
        let _ = write_frame(&mut out, &event.to_wire());
    };
    let pool = spawn_pool(exe, config);
    let outcome = resume_job(&pool, path, config, &mut emit);
    pool.shutdown();
    match outcome {
        Ok((id, workload, output, stats)) => {
            let bit_identical = check.then(|| output.bit_identical(&monolithic(&workload)));
            emit(Event::Done {
                id,
                output,
                stats,
                bit_identical,
            });
        }
        Err(e) => {
            emit(Event::JobError {
                id: 0,
                reason: format!("resume: {e}"),
            });
            std::process::exit(1);
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}
