//! `write_churn`: journaled writes only, in a closed loop, on the coupled
//! knot chain. Seven of eight ops retract and re-assert `e(kᵢ)` at a
//! seeded position; the eighth asserts and then retracts a rule.

use std::time::Instant;

use afp_bench::gen::hard_knot_chain_src;
use rand::Rng;

use crate::common::{self, Config, E2e, Expected, LayerData, Query, Run, TailPlan};
use crate::inputs;
use crate::stack::{self, Client, Stack};
use crate::stats::{Samples, Stamped};

struct Size {
    knots: usize,
    /// Distinct chain positions the churn touches.
    positions: usize,
    /// Distinct queries the closing reads cycle through.
    tail_reads: usize,
}

const NORMAL: Size = Size {
    knots: 2048,
    positions: 64,
    tail_reads: 4096,
};
const TINY: Size = Size {
    knots: 32,
    positions: 8,
    tail_reads: 200,
};
const RULES: [&str; 2] = [
    "r(K) :- link(J, K), not a(J).",
    "s(K) :- e(K), not pprev(K).",
];
/// Cold answers of the base program: at least this many, for at least
/// `COLD_FOR`.
const COLD_ANSWERS: usize = 25;
const BATCH: usize = 64;
const TAIL_PAIRS: usize = 8;
const REPLAYED_OPS: usize = 16;

fn knot(i: usize) -> String {
    format!("k{i}")
}

/// The two writes of op `j`, which together leave the program as it was.
fn op_writes(j: u64, positions: &[usize], rng: &mut rand::rngs::StdRng) -> [String; 2] {
    if j % 8 == 7 {
        let rule = RULES[rng.gen_range(0..RULES.len())];
        [format!("assert {rule}"), format!("retract {rule}")]
    } else {
        let fact = format!("e({}).", knot(positions[rng.gen_range(0..positions.len())]));
        [
            format!("retract-facts {fact}"),
            format!("assert-facts {fact}"),
        ]
    }
}

fn random_query(knots: usize, rng: &mut rand::rngs::StdRng) -> Query {
    let pred = ["a", "b", "p"][rng.gen_range(0..3usize)];
    Query::new(pred, knot(rng.gen_range(0..knots)))
}

pub fn run(cfg: &Config, traced: bool) -> Result<Run, String> {
    let size = if cfg.tiny { TINY } else { NORMAL };
    let text = hard_knot_chain_src(size.knots);
    let mut rng = inputs::rng(cfg.seed, 11);
    // One position in each of `positions` equal strata of the chain, so
    // every seed churns cones of the same spread of sizes.
    let stratum = size.knots / size.positions;
    let positions: Vec<usize> = (0..size.positions)
        .map(|i| i * stratum + rng.gen_range(0..stratum))
        .collect();
    let batch: Vec<Query> = (0..BATCH)
        .map(|_| random_query(size.knots, &mut rng))
        .collect();

    let mut tail_rng = inputs::rng(cfg.seed, 13);
    let tail_writes: Vec<String> = (0..TAIL_PAIRS as u64)
        .flat_map(|k| op_writes(k, &positions, &mut tail_rng))
        .collect();
    let tail_reads: Vec<Query> = (0..size.tail_reads)
        .map(|_| random_query(size.knots, &mut tail_rng))
        .collect();
    let engine = stack::engine();
    // Every op restores the program, so the ledger's final state is the
    // base program: its cold solve, made before the stack starts, is the
    // reference.
    let mut cold_ms = Samples::default();
    let mut reference = None;
    common::cold_answer(&engine, &text, &batch)?; // warm-up, not timed
    let answering = Instant::now();
    while cold_ms.len() < COLD_ANSWERS || answering.elapsed() < common::COLD_FOR {
        let (model, took) = common::cold_answer(&engine, &text, &batch)?;
        cold_ms.push(common::ms(took));
        reference.get_or_insert_with(|| Expected::new(&model, &tail_reads));
    }
    let reference = reference.expect("cold answers ran");

    let mut run = Run::new(traced);
    let (stack, mut client) = common::set_up(
        &mut run,
        || {
            let session = engine.load(&text).map_err(|e| e.to_string())?;
            let stack = Stack::start(session, stack::journal_dir(&cfg.out, "write_churn"))?;
            let client = Client::connect(&stack.addr()).map_err(|e| e.to_string())?;
            Ok((stack, client))
        },
        |(stack, _)| common::teardown_stack(stack),
    )?;
    let atoms = stack.service.snapshot().model().ground().atom_count();

    let mut tracer = run.tracer("writer");
    let mut data = LayerData::default();
    let mut write_us = Stamped::default();
    let mut versions = Vec::new();
    let mut ops_rng = inputs::rng(cfg.seed, 12);
    let mut replay = Vec::new();
    let started = Instant::now();
    let mut j = 0u64;
    while started.elapsed() < cfg.window {
        for line in op_writes(j, &positions, &mut ops_rng) {
            let t = Instant::now();
            let r = common::wire_write(
                &mut client,
                &stack.service,
                &mut tracer,
                &mut data,
                atoms,
                &line,
            );
            if let Some(v) = run.op(r) {
                write_us.push(started.elapsed().as_secs_f64(), common::us(t.elapsed()));
                versions.push(v);
            }
            if replay.len() < 2 * REPLAYED_OPS {
                replay.push(line);
            }
        }
        j += 1;
    }
    drop(client);
    for w in versions.windows(2) {
        if w[1] != w[0] + 1 {
            run.fail(format!(
                "versions {} then {} from one sequential writer",
                w[0], w[1]
            ));
        }
    }

    let mut tail_tracer = run.tracer("tail");
    if traced {
        common::cold_op(&engine, &text, &batch, &mut tail_tracer, &mut data, None)?;
        common::session_replay(&engine, &text, &replay, &mut tail_tracer)?;
    }
    let tail = common::tail(
        &mut run,
        &mut data,
        &mut tail_tracer,
        &engine,
        stack,
        TailPlan {
            timed_writes: &[],
            replayed_writes: &tail_writes,
            reads: &tail_reads,
            read_for: cfg.window / 4,
        },
        &reference,
        cold_ms.median(),
    )?;

    common::fill_e2e(
        &mut run,
        E2e {
            reads: &tail.read_us,
            writes: &write_us,
            recover_ms: tail.recover_ms,
            cold_answer_ms: &cold_ms,
        },
    );
    run.primary_rate = write_us.slice_rate();
    run.tracers = vec![tracer, tail_tracer];
    if traced {
        common::fill_layers(&mut run, &data);
    }
    Ok(run)
}
