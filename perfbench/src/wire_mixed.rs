//! `wire_mixed`: Zipf-skewed wire reads in a closed loop beside an
//! open-loop writer, on a win/move program with one giant SCC.

use std::thread;
use std::time::{Duration, Instant};

use afp::Truth;
use afp_bench::gen::node_name;

use crate::common::{self, Config, E2e, Expected, LayerData, Query, Run, TailPlan};
use crate::inputs::{self, Zipf};
use crate::stack::{self, Client, Stack};
use crate::stats::{Samples, Stamped};

struct Size {
    nodes: usize,
    /// Edges the writer toggles; each gives one distinct fact set.
    pool: usize,
    /// Writes per second: about a quarter of what one writer sustains
    /// while the reader runs.
    rate: f64,
}

const NORMAL: Size = Size {
    nodes: 4000,
    pool: 32,
    rate: 30.0,
};
const TINY: Size = Size {
    nodes: 200,
    pool: 4,
    rate: 30.0,
};
const DEGREE: f64 = 2.5;
/// The graph is the same for every `--seed`, as `write_churn`'s chain
/// is: the solve cost of a random graph's giant SCC differs by about
/// 30% between graphs of this size, which would swamp the run-to-run
/// spread. The seed draws the traffic: the toggled edges, the Zipf key
/// order and the key sequence. Graph 2 is a median instance: its
/// giant-SCC solve cost is the median of graphs 1–10, and about 970
/// `wins` atoms come out undefined.
const GRAPH_SEED: u64 = 2;
const ZIPF_S: f64 = 1.0;
/// Point queries per cold answer, tail reads and tail writes.
const BATCH: usize = 64;
const TAIL_READS: usize = 256;
const TAIL_PAIRS: usize = 8;

/// What one read reported: its version and verdict, or its failure.
type Observed = Result<(u64, Truth), String>;

fn wins(node: u32) -> Query {
    Query::new("wins", node_name(node))
}

pub fn run(cfg: &Config, traced: bool) -> Result<Run, String> {
    let size = if cfg.tiny { TINY } else { NORMAL };
    let graph = inputs::sparse_graph(size.nodes, DEGREE, GRAPH_SEED);
    let text = inputs::win_move_src(&graph);
    let mut rng = inputs::rng(cfg.seed, 1);
    let pool = inputs::absent_edges(&graph, size.pool, &mut rng);
    let zipf = Zipf::new(size.nodes, ZIPF_S, &mut rng);
    let batch: Vec<Query> = (0..BATCH)
        .map(|_| wins(rand::Rng::gen_range(&mut rng, 0..size.nodes as u32)))
        .collect();
    // State 0 is the base program; state i+1 adds pool edge i.
    let state_text = |state: usize| match state {
        0 => text.clone(),
        s => format!(
            "{text}{}\n",
            inputs::move_fact(pool[s - 1].0, pool[s - 1].1)
        ),
    };

    let engine = stack::engine();
    let mut run = Run::new(traced);
    // Cold solves of every fact set the writer can produce, before the
    // stack starts, cycled for at least `COLD_FOR`: the checks'
    // references and the workload's cold answers.
    let every_node: Vec<Query> = (0..size.nodes as u32).map(wins).collect();
    let mut cold_ms = Samples::default();
    let mut refs = Vec::new();
    common::cold_answer(&engine, &text, &batch)?; // warm-up, not timed
    let answering = Instant::now();
    for state in (0..=pool.len()).cycle() {
        if refs.len() > pool.len() && answering.elapsed() >= common::COLD_FOR {
            break;
        }
        let (model, took) = common::cold_answer(&engine, &state_text(state), &batch)?;
        cold_ms.push(common::ms(took));
        if refs.len() == state {
            refs.push(Expected::new(&model, &every_node));
        }
    }
    let (stack, mut reader, mut writer) = common::set_up(
        &mut run,
        || {
            let session = engine.load(&text).map_err(|e| e.to_string())?;
            let stack = Stack::start(session, stack::journal_dir(&cfg.out, "wire_mixed"))?;
            let reader = Client::connect(&stack.addr()).map_err(|e| e.to_string())?;
            let writer = Client::connect(&stack.addr()).map_err(|e| e.to_string())?;
            Ok((stack, reader, writer))
        },
        |(stack, _, _)| common::teardown_stack(stack),
    )?;

    let atoms = stack.service.snapshot().model().ground().atom_count();

    // The window: one closed-loop reader, one open-loop writer.
    let period = Duration::from_secs_f64(1.0 / size.rate);
    let mut read_tracer = run.tracer("reader");
    let mut write_tracer = run.tracer("writer");
    let mut data = LayerData::default();
    let service = &stack.service;
    let started = Instant::now();
    let end = started + cfg.window;
    let (reads, writes) = thread::scope(|s| {
        let reader_thread = s.spawn(|| {
            let mut rng = inputs::rng(cfg.seed, 2);
            let mut seen: Vec<(u32, Observed)> = Vec::new();
            let mut took = Stamped::default();
            while Instant::now() < end {
                let node = zipf.sample(&mut rng);
                let q = wins(node);
                let r = stack::read(
                    &mut reader,
                    service,
                    &mut read_tracer,
                    &q.line,
                    q.pred,
                    &[&q.arg],
                );
                if let Ok((_, _, d)) = &r {
                    took.push(started.elapsed().as_secs_f64(), common::us(*d));
                }
                seen.push((node, r.map(|(v, t, _)| (v, t))));
            }
            (seen, took)
        });
        // Writes alternate: assert pool edge i, then retract it. Each is
        // timed from when it was due, so a stall charges later writes too.
        let mut ledger: Vec<(u64, usize)> = Vec::new();
        let mut took = Stamped::default();
        let mut late = Samples::default();
        let mut errors = Vec::new();
        let mut i: u32 = 0;
        loop {
            let due = started + period * i;
            if due >= end && i.is_multiple_of(2) {
                break;
            }
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                thread::sleep(wait);
            }
            late.push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
            let edge = (i as usize / 2) % pool.len();
            let (u, v) = pool[edge];
            let (line, state) = if i.is_multiple_of(2) {
                (
                    format!("assert-facts {}", inputs::move_fact(u, v)),
                    edge + 1,
                )
            } else {
                (format!("retract-facts {}", inputs::move_fact(u, v)), 0)
            };
            match common::wire_write(
                &mut writer,
                service,
                &mut write_tracer,
                &mut data,
                atoms,
                &line,
            ) {
                Ok(version) => {
                    took.push(
                        due.duration_since(started).as_secs_f64(),
                        common::us(due.elapsed()),
                    );
                    ledger.push((version, state));
                }
                Err(e) => errors.push(e),
            }
            i += 1;
        }
        (
            reader_thread.join().expect("reader thread"),
            (ledger, took, late, errors),
        )
    });
    let (seen, read_us) = reads;
    let (ledger, write_us, late, write_errors) = writes;
    drop(reader);
    drop(writer);
    run.attempted += (write_us.len() + write_errors.len()) as u64;
    for e in write_errors {
        run.fail(e);
    }
    for w in ledger.windows(2) {
        if w[1].0 != w[0].0 + 1 {
            run.fail(format!(
                "versions {} then {} from one sequential writer",
                w[0].0, w[1].0
            ));
        }
    }

    let state_at = |version: u64| -> Option<usize> {
        match ledger.partition_point(|&(v, _)| v <= version) {
            0 if version == 0 => Some(0),
            0 => None,
            i => Some(ledger[i - 1].1),
        }
    };
    for (node, r) in seen {
        let Some((version, truth)) = run.op(r) else {
            continue;
        };
        let q = wins(node);
        match state_at(version) {
            None => run.fail(format!("{}: unknown version {version}", q.line)),
            Some(state) if refs[state].truth(&q) != truth => run.fail(format!(
                "{} at version {version}: served {truth:?}, cold solve says {:?}",
                q.line,
                refs[state].truth(&q)
            )),
            Some(_) => {}
        }
    }

    // Recovery replays toggles of every pool edge but a live one.
    let final_state = ledger.last().map_or(0, |l| l.1);
    let idle: Vec<(u32, u32)> = (0..pool.len())
        .filter(|&i| final_state != i + 1)
        .map(|i| pool[i])
        .collect();
    let tail_writes = inputs::toggle_pairs(&idle, TAIL_PAIRS);
    let mut rng = inputs::rng(cfg.seed, 3);
    let tail_reads: Vec<Query> = (0..TAIL_READS)
        .map(|_| wins(rand::Rng::gen_range(&mut rng, 0..size.nodes as u32)))
        .collect();
    let mut tail_tracer = run.tracer("tail");
    if traced {
        common::cold_op(&engine, &text, &batch, &mut tail_tracer, &mut data, None)?;
        common::session_replay(
            &engine,
            &text,
            &tail_writes[..8.min(tail_writes.len())],
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
            timed_writes: &[],
            replayed_writes: &tail_writes,
            reads: &tail_reads,
            read_for: Duration::ZERO,
        },
        &refs[final_state],
        cold_ms.median(),
    )?;

    common::fill_e2e(
        &mut run,
        E2e {
            reads: &read_us,
            writes: &write_us,
            recover_ms: tail.recover_ms,
            cold_answer_ms: &cold_ms,
        },
    );
    run.layers.set("gen_late_ms", late.max(), "ms");
    run.primary_rate = read_us.slice_rate();
    run.tracers = vec![read_tracer, write_tracer, tail_tracer];
    if traced {
        common::fill_layers(&mut run, &data);
    }
    Ok(run)
}
