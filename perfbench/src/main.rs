//! One seeded benchmark for the afp serving stack.
//!
//! ```text
//! perfbench --workload wire_mixed|write_churn|cold_load --seed N --seconds S --trace 0|1
//! ```
//!
//! Inputs come from the seed; the program sees only the generated text.
//! Every output is checked. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` runs the workload untraced and then traced and reports
//! the per-layer metrics plus `trace.overhead_pct`. The last stdout line
//! is one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! Exits non-zero when any op or check failed.

mod cold_load;
mod common;
mod inputs;
mod stack;
mod stats;
mod trace;
mod wire_mixed;
mod write_churn;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use common::{Config, Run};
use stats::{json_number, Table};

/// End-to-end metrics: every workload reports each of them.
const END_TO_END: [&str; 4] = [
    "setup_s",
    "rss_peak_mb",
    "query_p50_us",
    "cold_answer_p50_ms",
];

/// Per-layer metrics of a traced run. A layer a workload does not
/// exercise reads 0. The last group is measured on the untraced pass,
/// as the end-to-end metrics are.
const PER_LAYER: [&str; 47] = [
    "parser.parse_ms",
    "ground.ground_ms",
    "ground.atoms",
    "ground.rules",
    "incremental.delta_us",
    "incremental.regrounds",
    "depgraph.condense_ms",
    "depgraph.repair_us",
    "depgraph.repair_atom_share",
    "modular.solve_ms",
    "modular.solve_us",
    "modular.evaluated_share",
    "schedule.busy_ms",
    "schedule.steal_ms",
    "schedule.sleep_ms",
    "schedule.stolen_tasks",
    "schedule.wavefronts",
    "schedule.ready_width",
    "schedule.ready_width_over_tasks",
    "engine.mutate_us",
    "engine.solve_us",
    "engine.unattributed_us",
    "service.pin_ns",
    "service.probe_ns",
    "service.cycle_us",
    "service.publish_us",
    "service.cycle_width",
    "service.max_cycle_width",
    "net.codec_ns",
    "net.transport_us",
    "net.queue_wait_us",
    "net.queue_depth_hwm",
    "net.overloaded",
    "journal.append_us",
    "journal.fsync_us",
    "journal.checkpoint_ms",
    "journal.bytes_per_delta_byte",
    "journal.replay_us_per_record",
    "trace.overhead_pct",
    "query_per_s",
    "query_p99_us",
    "write_p50_us",
    "write_p90_us",
    "write_p99_us",
    "write_per_s",
    "recover_ms",
    "failed_share",
];

const USAGE: &str = "usage: perfbench --workload wire_mixed|write_churn|cold_load --seed N \
                     --seconds S --trace 0|1 [--tiny]";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    tiny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut tiny) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--seconds" => seconds = Some(value()?.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            "--tiny" => tiny = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        tiny,
    })
}

fn run_workload(name: &str, cfg: &Config, traced: bool) -> Result<Run, String> {
    match name {
        "wire_mixed" => wire_mixed::run(cfg, traced),
        "write_churn" => write_churn::run(cfg, traced),
        "cold_load" => cold_load::run(cfg, traced),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cfg = Config {
        seed: args.seed,
        window: Duration::from_secs(args.seconds.max(1)),
        tiny: args.tiny,
        out: PathBuf::from(".bench_out"),
    };
    let result = run_workload(&args.workload, &cfg, false).and_then(|untraced| {
        if !args.trace {
            return Ok((untraced, None));
        }
        run_workload(&args.workload, &cfg, true).map(|traced| (untraced, Some(traced)))
    });
    let (untraced, traced) = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };

    let mut attempted = untraced.attempted;
    let mut failed = untraced.failed;
    let mut errors = untraced.errors.clone();
    let (table, names): (Table, &[&str]) = match &traced {
        None => (untraced.e2e, &END_TO_END),
        Some(t) => {
            attempted += t.attempted;
            failed += t.failed;
            errors.extend(t.errors.iter().cloned());
            let mut layers = Table::default();
            for m in t.layers.iter() {
                layers.set(m.name, m.value, m.unit);
            }
            // Numbers the traced pass would perturb come from the
            // untraced one.
            for name in [
                "query_per_s",
                "query_p99_us",
                "write_p50_us",
                "write_p90_us",
                "write_p99_us",
                "write_per_s",
                "recover_ms",
            ] {
                let m = untraced.layers.get(name).expect("untraced pass reports it");
                layers.set(m.name, m.value, m.unit);
            }
            layers.set(
                "failed_share",
                failed as f64 / attempted.max(1) as f64,
                "ratio",
            );
            layers.set(
                "trace.overhead_pct",
                (untraced.primary_rate / t.primary_rate - 1.0) * 100.0,
                "%",
            );
            let path = cfg
                .out
                .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
            if let Err(e) = trace::write_jsonl(&path, &t.tracers) {
                eprintln!("perfbench: writing {}: {e}", path.display());
            }
            (layers, &PER_LAYER)
        }
    };

    for e in &errors {
        eprintln!("check failed: {e}");
    }
    for flag in traced.iter().flat_map(|t| &t.flags) {
        println!("flag: {flag}");
    }
    let correct = failed == 0;
    let mut fields = Vec::new();
    for name in names {
        let m = table
            .get(name)
            .unwrap_or_else(|| panic!("workload {} did not report {name}", args.workload));
        println!("{:<34} {:>16.4} {}", m.name, m.value, m.unit);
        fields.push(format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        ));
    }
    // Only wire_mixed has an open-loop writer; its lateness is printed
    // for reading, outside the result, since every other workload has none.
    if let Some(m) = untraced.layers.get("gen_late_ms") {
        println!("{:<34} {:>16.4} {} (not in the result)", m.name, m.value, m.unit);
    }
    println!(
        "failed_share {:.6} ({failed} of {attempted} ops and checks)",
        failed as f64 / attempted.max(1) as f64
    );
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        fields.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
