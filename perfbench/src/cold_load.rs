//! `cold_load`: each op loads and solves a large sparse win/move program
//! cold and answers a fixed batch of uniformly chosen point queries. The
//! ops use no service, net or journal; the shared tail serves the last
//! load to price writes and recovery at this size.

use std::time::{Duration, Instant};

use afp::{Engine, Truth};
use afp_bench::gen::node_name;
use rand::Rng;

use crate::common::{self, Config, E2e, Expected, LayerData, Query, Run, TailPlan};
use crate::inputs;
use crate::stack::{self, Stack};
use crate::stats::{Samples, Stamped};

struct Size {
    nodes: usize,
    batch: usize,
}

const NORMAL: Size = Size {
    nodes: 30_000,
    batch: 256,
};
const TINY: Size = Size {
    nodes: 300,
    batch: 32,
};
const DEGREE: f64 = 2.5;
const MIN_OPS: usize = 3;
/// Toggles of a source node's move: one timed write prices the
/// per-write cost at this program size.
const TIMED_PAIRS: usize = 48;
const REPLAYED_PAIRS: usize = 8;
const TAIL_READS: usize = 256;
/// Writes replayed on a benchmark-owned session in traced runs.
const SESSION_WRITES: usize = 4;

fn wins(node: u32) -> Query {
    Query::new("wins", node_name(node))
}

pub fn run(cfg: &Config, traced: bool) -> Result<Run, String> {
    let size = if cfg.tiny { TINY } else { NORMAL };
    let graph = inputs::sparse_graph(size.nodes, DEGREE, cfg.seed);
    let text = inputs::win_move_src(&graph);
    let mut rng = inputs::rng(cfg.seed, 21);
    let batch: Vec<Query> = (0..size.batch)
        .map(|_| wins(rng.gen_range(0..size.nodes as u32)))
        .collect();

    let edges = inputs::source_edges(&graph, TIMED_PAIRS + REPLAYED_PAIRS, &mut rng);
    let timed_writes = inputs::toggle_pairs(&edges[..TIMED_PAIRS], TIMED_PAIRS);
    let replayed_writes = inputs::toggle_pairs(&edges[TIMED_PAIRS..], REPLAYED_PAIRS);
    let tail_reads: Vec<Query> = (0..TAIL_READS)
        .map(|_| wins(rng.gen_range(0..size.nodes as u32)))
        .collect();

    // The reference: a sequential solve of the same text.
    let (model, _) = common::cold_answer(&Engine::builder().threads(1).build(), &text, &batch)?;
    let reference = Expected::new(&model, batch.iter().chain(&tail_reads));
    drop(model);
    let expected: Vec<Truth> = batch.iter().map(|q| reference.truth(q)).collect();

    let mut run = Run::new(traced);
    let engine = common::set_up(
        &mut run,
        || {
            let engine = stack::engine();
            common::cold_answer(&engine, &text, &batch)?;
            Ok(engine)
        },
        drop,
    )?;

    let mut tracer = run.tracer("loader");
    let mut data = LayerData::default();
    let mut cold_ms = Samples::default();
    let mut answer_us = Stamped::default();
    let mut last = None;
    let started = Instant::now();
    while started.elapsed() < cfg.window || cold_ms.len() < MIN_OPS {
        // Each op loads with no earlier program pinned.
        drop(last.take());
        tracer.next_op();
        let span = tracer.begin("op.cold");
        let op = common::cold_op(
            &engine,
            &text,
            &batch,
            &mut tracer,
            &mut data,
            Some(&mut answer_us),
        );
        tracer.end(span);
        let Some(op) = run.op(op) else { continue };
        cold_ms.push(common::ms(op.took));
        for (q, (got, want)) in batch.iter().zip(op.answers.iter().zip(&expected)) {
            if got != want {
                run.fail(format!(
                    "{}: threads(0) answers {got:?}, threads(1) {want:?}",
                    q.line
                ));
            }
        }
        if stack::fingerprint(&op.model) != reference.fingerprint {
            run.fail("threads(0) model differs from the threads(1) model");
        }
        last = Some(op.session);
    }
    let window = started.elapsed();
    run.primary_rate = cold_ms.len() as f64 / window.as_secs_f64();

    let session = match last {
        Some(session) => session,
        None => engine.load(&text).map_err(|e| e.to_string())?,
    };
    let stack = Stack::start(session, stack::journal_dir(&cfg.out, "cold_load"))?;
    let mut tail_tracer = run.tracer("tail");
    if traced {
        common::session_replay(
            &engine,
            &text,
            &timed_writes[..SESSION_WRITES],
            &mut tail_tracer,
        )?;
    }
    let tail = common::tail(
        &mut run,
        &mut data,
        &mut tail_tracer,
        &engine,
        stack,
        TailPlan {
            timed_writes: &timed_writes,
            replayed_writes: &replayed_writes,
            reads: &tail_reads,
            read_for: Duration::ZERO,
        },
        &reference,
        cold_ms.median(),
    )?;

    common::fill_e2e(
        &mut run,
        E2e {
            reads: &answer_us,
            writes: &tail.write_us,
            recover_ms: tail.recover_ms,
            cold_answer_ms: &cold_ms,
        },
    );
    run.tracers = vec![tracer, tail_tracer];
    if traced {
        common::fill_layers(&mut run, &data);
    }
    Ok(run)
}
