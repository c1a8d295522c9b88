//! `sweep_shard` — the multi-process sharded sweep driver (and its own
//! worker).
//!
//! The driver partitions a sweep into shards, runs them on a pool of
//! worker processes of **this binary** (`--worker`; JSON job and result
//! frames over stdio — floats travel as exact bit patterns, see
//! `mbqao_core::engine::wire`), merges the results in canonical order,
//! and prints the assembled output. `--check` additionally runs the
//! same sweep monolithically in-process and asserts the sharded result
//! is bit-identical — the zero-trust mode CI runs.
//!
//! Usage:
//! ```text
//! sweep_shard --workload landscape --family square --backend gate --steps 16 --shards 4 --cap 2
//! sweep_shard --workload grid --family SK5 --backend pattern --p 1 --steps 8 --shards 2
//! sweep_shard --workload resources --max-n 5 --depths 1,2 --shards 3 --check
//! sweep_shard --workload equivalence --max-n 5 --shards 2
//! sweep_shard --workload disorder --n 6 --instances 8 --shards 4
//! sweep_shard --worker    # internal: pool worker, many jobs + heartbeats
//! ```
//! Sharded runs of `resources` / `equivalence` reproduce the
//! `table_resources` / `table_equivalence` output byte-for-byte.

use mbqao_bench::sweep::{
    drive_subprocess_capped, monolithic, worker_entry, BackendKind, DisorderSpec, FamilyRef,
    SweepOutput, Workload,
};
use mbqao_bench::tables::{EquivalenceSpec, ResourcesSpec};
use mbqao_core::engine::shard::default_worker_cap;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--worker") {
        worker_entry(&args);
        return;
    }
    let workload = workload_from_args(&args);
    let shards: usize = flag(&args, "--shards").map_or(2, |v| v.parse().expect("--shards N"));
    let cap: usize =
        flag(&args, "--cap").map_or_else(default_worker_cap, |v| v.parse().expect("--cap N"));
    let exe = std::env::current_exe().expect("current_exe");
    eprintln!(
        "driving {} items as {} shards on worker subprocesses of {} (at most {cap} live)",
        workload.total(),
        shards,
        exe.display()
    );
    let output = match drive_subprocess_capped(&exe, &workload, shards, &[], cap) {
        Ok(output) => output,
        Err(e) => {
            eprintln!("sharded sweep failed: {e}");
            std::process::exit(1);
        }
    };
    if args.iter().any(|a| a == "--check") {
        let reference = monolithic(&workload);
        assert!(
            output.bit_identical(&reference),
            "sharded output differs from the monolithic reference"
        );
        eprintln!("check: sharded output is bit-identical to the monolithic run");
    }
    print_output(&output);
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse_depths(args: &[String]) -> Vec<usize> {
    flag(args, "--depths")
        .map(|s| {
            s.split(',')
                .map(|d| d.parse().expect("--depths d1,d2,…"))
                .collect()
        })
        .unwrap_or_default()
}

fn workload_from_args(args: &[String]) -> Workload {
    let family = || FamilyRef {
        seed: 7,
        name: flag(args, "--family").unwrap_or("square").to_string(),
    };
    let backend = BackendKind::from_name(flag(args, "--backend").unwrap_or("gate"))
        .expect("--backend gate|pattern|zx");
    let steps: usize = flag(args, "--steps").map_or(8, |v| v.parse().expect("--steps N"));
    match flag(args, "--workload").unwrap_or("landscape") {
        "landscape" => Workload::Landscape {
            family: family(),
            backend,
            steps,
            gamma: (0.0, std::f64::consts::PI),
            beta: (0.0, std::f64::consts::PI),
        },
        "grid" => {
            let p: usize = flag(args, "--p").map_or(1, |v| v.parse().expect("--p N"));
            Workload::Grid {
                family: family(),
                backend,
                p,
                steps,
                lo: vec![0.0; 2 * p],
                hi: vec![std::f64::consts::PI; 2 * p],
            }
        }
        "resources" => {
            let mut spec = ResourcesSpec::full();
            if let Some(m) = flag(args, "--max-n") {
                spec.max_n = m.parse().expect("--max-n N");
            }
            let depths = parse_depths(args);
            if !depths.is_empty() {
                spec.depths = depths;
            }
            Workload::ResourceTable(spec)
        }
        "equivalence" => {
            let mut spec = EquivalenceSpec::full();
            if let Some(m) = flag(args, "--max-n") {
                spec.max_n = m.parse().expect("--max-n N");
            }
            let depths = parse_depths(args);
            if !depths.is_empty() {
                spec.depths = depths;
            }
            Workload::EquivalenceTable(spec)
        }
        "disorder" => Workload::Disorder(DisorderSpec {
            n: flag(args, "--n").map_or(5, |v| v.parse().expect("--n N")),
            instances: flag(args, "--instances").map_or(8, |v| v.parse().expect("--instances N")),
            base_seed: 2024,
            p: flag(args, "--p").map_or(1, |v| v.parse().expect("--p N")),
            grid_steps: steps,
            backend,
        }),
        other => panic!("unknown --workload {other:?}"),
    }
}

fn print_output(output: &SweepOutput) {
    match output {
        SweepOutput::Landscape(scan) => {
            let (v, g, b) = scan.min();
            println!(
                "landscape: {}×{} points, min <C> = {v:.9} at (γ, β) = ({g:.6}, {b:.6})",
                scan.gammas.len(),
                scan.betas.len()
            );
        }
        SweepOutput::Opt(r) => {
            println!(
                "grid search: best <C> = {:.9} at {:?} ({} evaluations)",
                r.value, r.params, r.evals
            );
        }
        SweepOutput::Table {
            text,
            dense_savings,
        } => {
            println!("{text}");
            eprintln!("(dense qubit savings: {dense_savings})");
        }
        SweepOutput::Disorder { per_seed, mean } => {
            println!(
                "disorder average over {} instances: mean optimized energy density {mean:.9}",
                per_seed.len()
            );
            for (i, e) in per_seed.iter().enumerate() {
                println!("  seed {i}: {e:.9}");
            }
        }
    }
}
