//! What every workload shares: configuration, the run record, repeated
//! set-up, the cold answer, the end-of-run tail (writes, checkpoint,
//! verification reads, shutdown, recovery), and the per-layer table.

use std::collections::HashMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use afp::datalog::parse_program;
use afp::{Engine, Model, Service, ServiceOptions, Session, SessionPhases, Truth};

use crate::stack::{self, fingerprint, Client, Cycles, Exported, Stack, JOURNAL};
use crate::stats::{rss_peak_mb, Samples, Stamped, Table};
use crate::trace::{self, Tracer};

pub struct Config {
    pub seed: u64,
    pub window: Duration,
    /// Smoke-test sizes: every workload at a few hundred atoms.
    pub tiny: bool,
    /// Scratch directory for journals and span files.
    pub out: PathBuf,
}

/// Everything one pass over a workload produced.
pub struct Run {
    pub e2e: Table,
    pub layers: Table,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    /// Completed primary ops per second, for the tracing overhead.
    pub primary_rate: f64,
    pub tracers: Vec<Tracer>,
    pub epoch: Instant,
    pub traced: bool,
    /// Counters read past their bound: reported, never clamped.
    pub flags: Vec<String>,
}

impl Run {
    pub fn new(traced: bool) -> Run {
        Run {
            e2e: Table::default(),
            layers: Table::default(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            primary_rate: 0.0,
            tracers: Vec::new(),
            epoch: Instant::now(),
            traced,
            flags: Vec::new(),
        }
    }

    pub fn tracer(&self, thread: &'static str) -> Tracer {
        Tracer::new(self.traced, self.epoch, thread)
    }

    /// Count one failed op or check.
    pub fn fail(&mut self, msg: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(msg.into());
        }
    }

    /// Count an op; a failure is recorded with its message.
    pub fn op<T>(&mut self, r: Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(e);
                None
            }
        }
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Set-ups per run: at least this many, for at least [`SETUP_FOR`]; the
/// median is `setup_s`.
pub const SETUPS: usize = 5;
pub const SETUP_FOR: Duration = Duration::from_secs(2);

/// Set up at least [`SETUPS`] times for at least [`SETUP_FOR`] and keep
/// the last; the median set-up time goes to `setup_s`. Earlier set-ups
/// are torn down by `teardown`.
pub fn set_up<T>(
    run: &mut Run,
    mut make: impl FnMut() -> Result<T, String>,
    mut teardown: impl FnMut(T),
) -> Result<T, String> {
    let mut times = Samples::default();
    let mut kept = None;
    let setting_up = Instant::now();
    while times.len() < SETUPS || setting_up.elapsed() < SETUP_FOR {
        if let Some(old) = kept.take() {
            teardown(old);
        }
        let started = Instant::now();
        kept = Some(make()?);
        times.push(started.elapsed().as_secs_f64());
    }
    run.e2e.set("setup_s", times.median(), "s");
    Ok(kept.expect("at least one set-up"))
}

pub fn teardown_stack(stack: Stack) {
    let dir = stack.dir.clone();
    drop(stack.stop());
    let _ = std::fs::remove_dir_all(dir);
}

/// A point query the benchmark knows the expected answer to.
pub struct Query {
    pub line: String,
    pub pred: &'static str,
    pub arg: String,
}

impl Query {
    pub fn new(pred: &'static str, arg: String) -> Query {
        Query {
            line: format!("query {pred}({arg})"),
            pred,
            arg,
        }
    }

    pub fn expected(&self, model: &Model) -> Truth {
        model.truth(self.pred, &[&self.arg])
    }
}

/// What the checks need from a cold solve. It is kept instead of the
/// model: a model left pinned while the next program loads makes that
/// load up to twice as slow, through the allocator.
pub struct Expected {
    pub fingerprint: u64,
    truths: HashMap<String, Truth>,
}

impl Expected {
    /// `queries`: every query the checks will ask of this solve.
    pub fn new<'a>(model: &Model, queries: impl IntoIterator<Item = &'a Query>) -> Expected {
        Expected {
            fingerprint: fingerprint(model),
            truths: queries
                .into_iter()
                .map(|q| (q.line.clone(), q.expected(model)))
                .collect(),
        }
    }

    pub fn truth(&self, q: &Query) -> Truth {
        *self
            .truths
            .get(&q.line)
            .unwrap_or_else(|| panic!("{} was not asked of the cold solve", q.line))
    }
}

/// What [`cold_op`] produced.
pub struct ColdOp {
    pub session: Session,
    pub model: Model,
    pub answers: Vec<Truth>,
    pub took: Duration,
}

/// One cold answer: load `text`, solve it and answer `batch`, timed from
/// the load through the last answer (`took`). With an enabled tracer, the
/// parser, the grounder and the solve each get a span, and the program's
/// own phase timers and scheduler counters for the solve are recorded.
pub fn cold_op(
    engine: &Engine,
    text: &str,
    batch: &[Query],
    tracer: &mut Tracer,
    data: &mut LayerData,
    mut answer_us: Option<&mut Stamped>,
) -> Result<ColdOp, String> {
    let started = Instant::now();
    let program = tracer
        .span("parser.parse", || parse_program(text))
        .map_err(|e| format!("parse: {e}"))?;
    let mut session = tracer
        .span("ground.ground", || engine.load_program(program))
        .map_err(|e| format!("ground: {e}"))?;
    let model = tracer
        .span("engine.cold_solve", || session.solve())
        .map_err(|e| format!("solve: {e}"))?;
    let answers = tracer.span("op.answer", || {
        batch
            .iter()
            .map(|q| {
                let asked = Instant::now();
                let truth = q.expected(&model);
                // Answers are stamped on the clock of answering alone.
                if let Some(samples) = answer_us.as_deref_mut() {
                    let took = asked.elapsed();
                    samples.push(samples.last_at() + took.as_secs_f64(), us(took));
                }
                truth
            })
            .collect()
    });
    let took = started.elapsed();
    if tracer.enabled() {
        let phases = session.take_phases();
        let stats = session.stats();
        data.cold.push(ColdRecord {
            atoms: session.ground().atom_count(),
            rules: session.ground().rule_count(),
            phases,
            wavefronts: stats.last_wavefronts,
            ready_width: stats.last_ready_width,
            tasks: stats.last_components_evaluated,
            stolen_tasks: stats.stolen_tasks,
        });
    }
    Ok(ColdOp {
        session,
        model,
        answers,
        took,
    })
}

/// A cold answer outside any traced op: the checks' reference solves.
pub fn cold_answer(
    engine: &Engine,
    text: &str,
    batch: &[Query],
) -> Result<(Model, Duration), String> {
    let mut off = Tracer::new(false, Instant::now(), "reference");
    let op = cold_op(
        engine,
        text,
        batch,
        &mut off,
        &mut LayerData::default(),
        None,
    )?;
    Ok((op.model, op.took))
}

/// Counters of one traced cold solve, as the program reports them.
pub struct ColdRecord {
    pub atoms: usize,
    pub rules: usize,
    pub phases: SessionPhases,
    pub wavefronts: usize,
    pub ready_width: usize,
    pub tasks: usize,
    pub stolen_tasks: u64,
}

/// What a traced pass collects for the per-layer table.
#[derive(Default)]
pub struct LayerData {
    pub cold: Vec<ColdRecord>,
    pub cycles: Cycles,
    pub repair_share: Samples,
    pub evaluated_share: Samples,
    pub exported: Option<Exported>,
    pub checkpoint_ms: f64,
    pub delta_bytes: u64,
    pub replay_us_per_record: f64,
}

impl LayerData {
    /// After a traced write: poll the cycle ring and the session's
    /// last-solve counters.
    pub fn after_write(&mut self, service: &Service, atoms: usize) {
        self.cycles.poll(service);
        let s = service.session_stats();
        self.repair_share
            .push(s.last_repair_atoms as f64 / atoms.max(1) as f64);
        if s.last_components > 0 {
            self.evaluated_share
                .push(s.last_components_evaluated as f64 / s.last_components as f64);
        }
    }
}

/// Replay `writes` (wire command lines) on a benchmark-owned session of
/// `text`, timing each `Session` mutation and solve.
pub fn session_replay(
    engine: &Engine,
    text: &str,
    writes: &[String],
    tracer: &mut Tracer,
) -> Result<(), String> {
    let mut s = engine.load(text).map_err(|e| e.to_string())?;
    s.solve().map_err(|e| e.to_string())?;
    for w in writes {
        let (cmd, body) = w.split_once(' ').unwrap_or((w, ""));
        tracer.next_op();
        tracer
            .span("engine.mutate", || match cmd {
                "assert-facts" => s.assert_facts(body),
                "retract-facts" => s.retract_facts(body),
                "assert" => s.assert_rules(body),
                _ => s.retract_rules(body),
            })
            .map_err(|e| format!("{w}: {e}"))?;
        tracer
            .span("engine.solve", || s.solve())
            .map_err(|e| format!("{w}: {e}"))?;
    }
    Ok(())
}

/// One timed wire write, with its spans and (traced) layer polling.
pub fn wire_write(
    client: &mut Client,
    service: &Service,
    tracer: &mut Tracer,
    data: &mut LayerData,
    atoms: usize,
    line: &str,
) -> Result<u64, String> {
    tracer.next_op();
    let op = tracer.begin("op.write");
    let version = tracer.span("net.write", || client.write(line));
    tracer.end(op);
    if tracer.enabled() {
        data.after_write(service, atoms);
    }
    data.delta_bytes += line.split_once(' ').map_or(0, |(_, t)| t.len()) as u64;
    version
}

/// Recoveries from the tail's journal: at least this many, for at least
/// [`RECOVER_FOR`]; the median time is reported.
const RECOVERIES: usize = 3;
const RECOVER_FOR: Duration = Duration::from_secs(1);

/// Cold answers made before a served window are repeated for at least
/// this long, so that their median spans several of the machine's slow
/// and fast phases, which last from one to about ten seconds.
pub const COLD_FOR: Duration = Duration::from_secs(10);

/// What the tail measured.
pub struct Tail {
    pub write_us: Stamped,
    pub read_us: Stamped,
    pub recover_ms: f64,
}

/// What the tail sends and reads. Every write list is made of pairs
/// that leave the program as it was.
pub struct TailPlan<'a> {
    /// Timed writes, sent before the checkpoint.
    pub timed_writes: &'a [String],
    /// Writes after the checkpoint: the records recovery replays.
    pub replayed_writes: &'a [String],
    /// Reads, cycled until `read_for` has passed (at least one pass).
    pub reads: &'a [Query],
    pub read_for: Duration,
}

/// End every workload the same way, on a quiet served stack whose
/// program equals `expected` (from a cold solve of the ledger's final state,
/// which took `cold_ms`): send the timed writes, write a checkpoint,
/// send the writes recovery will replay, read back and check, shut down
/// cleanly, recover from the journal, and check that the recovered head
/// equals the live head and the cold solve, at the live version.
#[allow(clippy::too_many_arguments)]
pub fn tail(
    run: &mut Run,
    data: &mut LayerData,
    tracer: &mut Tracer,
    engine: &Engine,
    stack: Stack,
    plan: TailPlan<'_>,
    expected: &Expected,
    cold_ms: f64,
) -> Result<Tail, String> {
    let atoms = stack.service.snapshot().model().ground().atom_count();
    let mut client = Client::connect(&stack.addr()).map_err(|e| format!("connect: {e}"))?;

    let mut write_us = Stamped::default();
    let writes_started = Instant::now();
    for w in plan.timed_writes {
        let started = Instant::now();
        let r = wire_write(&mut client, &stack.service, tracer, data, atoms, w);
        if run.op(r).is_some() {
            write_us.push(
                writes_started.elapsed().as_secs_f64(),
                us(started.elapsed()),
            );
        }
    }

    let started = Instant::now();
    let resp = tracer
        .span("journal.checkpoint", || client.call("checkpoint"))
        .map_err(|e| format!("checkpoint: {e}"))?;
    data.checkpoint_ms = ms(started.elapsed());
    run.op(if resp.starts_with("{\"ok\":true,\"checkpoint\":") {
        Ok(())
    } else {
        Err(format!("checkpoint: {resp}"))
    });
    for w in plan.replayed_writes {
        let r = wire_write(&mut client, &stack.service, tracer, data, atoms, w);
        run.op(r);
    }

    let mut read_us = Stamped::default();
    let reads_started = Instant::now();
    for (i, q) in plan.reads.iter().cycle().enumerate() {
        if i >= plan.reads.len() && reads_started.elapsed() >= plan.read_for {
            break;
        }
        let r = stack::read(
            &mut client,
            &stack.service,
            tracer,
            &q.line,
            q.pred,
            &[&q.arg],
        );
        if let Some((_, truth, took)) = run.op(r) {
            read_us.push(reads_started.elapsed().as_secs_f64(), us(took));
            if truth != expected.truth(q) {
                run.fail(format!(
                    "{}: served {truth:?}, cold solve says {:?}",
                    q.line,
                    expected.truth(q)
                ));
            }
        }
    }
    data.exported = Some(Exported::read(&stack));
    // Keep the live head's version and fingerprint, not the head itself:
    // a pinned model would slow the recoveries' loads.
    let (live_version, live) = {
        let head = stack.service.snapshot();
        (head.version(), fingerprint(head.model()))
    };
    let dir = stack.dir.clone();
    drop(client);
    drop(stack.stop());

    // Recover repeatedly from the same journal; each recovery is checked
    // and the median time is reported.
    let mut recover_ms = Samples::default();
    let mut replayed = 0;
    let recovering = Instant::now();
    while recover_ms.len() < RECOVERIES || recovering.elapsed() < RECOVER_FOR {
        let started = Instant::now();
        let recovered = Service::recover(engine, &dir, ServiceOptions::default(), JOURNAL);
        let took = ms(started.elapsed());
        let recovered = run
            .op(recovered.map_err(|e| format!("recover: {e}")))
            .ok_or("recovery failed")?;
        recover_ms.push(took);
        replayed = recovered.journal_stats().map_or(0, |j| j.records_replayed);
        let rhead = recovered.snapshot();
        if rhead.version() != live_version {
            run.fail(format!(
                "recovered version {} does not continue live version {}",
                rhead.version(),
                live_version
            ));
        }
        let rec = fingerprint(rhead.model());
        if rec != live {
            run.fail("recovered head differs from the live head");
        }
        if rec != expected.fingerprint {
            run.fail("recovered head differs from a cold solve of the ledger's final state");
        }
    }
    let recover_ms = recover_ms.median();
    // Recovery loads the checkpoint cold, then replays the tail records;
    // a cold answer of the same program prices the first part.
    data.replay_us_per_record = (recover_ms - cold_ms).max(0.0) * 1e3 / replayed.max(1) as f64;
    let _ = std::fs::remove_dir_all(&dir);
    Ok(Tail {
        write_us,
        read_us,
        recover_ms,
    })
}

/// The end-to-end metrics every workload reports besides `setup_s`.
pub struct E2e<'a> {
    pub reads: &'a Stamped,
    pub writes: &'a Stamped,
    pub recover_ms: f64,
    pub cold_answer_ms: &'a Samples,
}

pub fn fill_e2e(run: &mut Run, m: E2e<'_>) {
    let t = &mut run.e2e;
    t.set("rss_peak_mb", rss_peak_mb(), "MB");
    t.set("query_p50_us", m.reads.all().median(), "us");
    t.set("cold_answer_p50_ms", m.cold_answer_ms.median(), "ms");
    // Measured as the end-to-end metrics are, but spread too widely
    // between runs on a 2-vCPU VM to carry a bound: reported with the
    // per-layer metrics of a traced run.
    let t = &mut run.layers;
    t.set("query_per_s", m.reads.slice_rate(), "1/s");
    t.set("write_p50_us", m.writes.slice_quantile(0.5), "us");
    t.set("write_p90_us", m.writes.slice_quantile(0.9), "us");
    t.set("query_p99_us", m.reads.slice_quantile(0.99), "us");
    t.set("write_p99_us", m.writes.all().quantile(0.99), "us");
    t.set("write_per_s", m.writes.slice_rate(), "1/s");
    t.set("recover_ms", m.recover_ms, "ms");
}

/// Fill the per-layer table of a traced pass from its spans, the cycle
/// breakdowns and the exported counters.
pub fn fill_layers(run: &mut Run, data: &LayerData) {
    let spans = trace::totals(&run.tracers);
    let span = |name: &str| spans.get(name).copied().unwrap_or_default();
    let cycles: Vec<_> = data.cycles.0.values().collect();
    let cycle_mean = |f: &dyn Fn(&afp::PhaseBreakdown) -> u64| -> f64 {
        if cycles.is_empty() {
            0.0
        } else {
            cycles.iter().map(|b| f(b) as f64).sum::<f64>() / cycles.len() as f64
        }
    };
    let cold_mean = |f: &dyn Fn(&ColdRecord) -> f64| -> f64 {
        if data.cold.is_empty() {
            0.0
        } else {
            data.cold.iter().map(f).sum::<f64>() / data.cold.len() as f64
        }
    };
    let ex = data
        .exported
        .as_ref()
        .expect("tail read the exported counters");
    let t = &mut run.layers;

    t.set(
        "parser.parse_ms",
        span("parser.parse").mean_self_ns() / 1e6,
        "ms",
    );
    t.set(
        "ground.ground_ms",
        span("ground.ground").mean_self_ns() / 1e6,
        "ms",
    );
    t.set("ground.atoms", cold_mean(&|c| c.atoms as f64), "count");
    t.set("ground.rules", cold_mean(&|c| c.rules as f64), "count");

    t.set(
        "incremental.delta_us",
        cycle_mean(&|b| b.ground_ns) / 1e3,
        "us",
    );
    t.set(
        "incremental.regrounds",
        ex.session.regrounds as f64,
        "count",
    );

    t.set(
        "depgraph.condense_ms",
        cold_mean(&|c| c.phases.condense_ns as f64) / 1e6,
        "ms",
    );
    t.set(
        "depgraph.repair_us",
        cycle_mean(&|b| b.repair_ns) / 1e3,
        "us",
    );
    t.set(
        "depgraph.repair_atom_share",
        data.repair_share.mean(),
        "ratio",
    );

    t.set(
        "modular.solve_ms",
        cold_mean(&|c| c.phases.solve_ns as f64) / 1e6,
        "ms",
    );
    t.set("modular.solve_us", cycle_mean(&|b| b.solve_ns) / 1e3, "us");
    t.set(
        "modular.evaluated_share",
        data.evaluated_share.mean(),
        "ratio",
    );

    t.set(
        "schedule.busy_ms",
        cold_mean(&|c| c.phases.busy_ns as f64) / 1e6,
        "ms",
    );
    t.set(
        "schedule.steal_ms",
        cold_mean(&|c| c.phases.steal_ns as f64) / 1e6,
        "ms",
    );
    t.set(
        "schedule.sleep_ms",
        cold_mean(&|c| c.phases.sleep_ns as f64) / 1e6,
        "ms",
    );
    t.set(
        "schedule.stolen_tasks",
        cold_mean(&|c| c.stolen_tasks as f64),
        "count",
    );
    t.set(
        "schedule.wavefronts",
        cold_mean(&|c| c.wavefronts as f64),
        "count",
    );
    // A ready width above the number of tasks run is impossible (the
    // counter has wrapped below zero): such readings are flagged, counted,
    // and left out of the width.
    let readings: Vec<(usize, usize)> = data
        .cold
        .iter()
        .map(|c| (c.ready_width, c.tasks))
        .chain(std::iter::once((
            ex.session.last_ready_width,
            ex.session.last_components_evaluated,
        )))
        .collect();
    for &(width, tasks) in readings.iter().filter(|r| r.0 > r.1) {
        run.flags.push(format!(
            "SessionStats::last_ready_width read {width}, more than the {tasks} tasks the solve ran"
        ));
    }
    let t = &mut run.layers;
    let width = readings
        .iter()
        .filter(|r| r.0 <= r.1)
        .map(|r| r.0)
        .max()
        .unwrap_or(0);
    t.set("schedule.ready_width", width as f64, "count");
    t.set(
        "schedule.ready_width_over_tasks",
        readings.iter().filter(|r| r.0 > r.1).count() as f64,
        "count",
    );

    t.set(
        "engine.mutate_us",
        span("engine.mutate").mean_self_ns() / 1e3,
        "us",
    );
    t.set(
        "engine.solve_us",
        span("engine.solve").mean_self_ns() / 1e3,
        "us",
    );
    t.set(
        "engine.unattributed_us",
        cycle_mean(&|b| {
            b.total_ns.saturating_sub(
                b.ground_ns
                    + b.repair_ns
                    + b.condense_ns
                    + b.solve_ns
                    + b.journal_append_ns
                    + b.fsync_ns
                    + b.publish_ns,
            )
        }) / 1e3,
        "us",
    );

    t.set("service.pin_ns", span("service.pin").mean_self_ns(), "ns");
    t.set(
        "service.probe_ns",
        span("service.probe").mean_self_ns(),
        "ns",
    );
    t.set("service.cycle_us", cycle_mean(&|b| b.total_ns) / 1e3, "us");
    t.set(
        "service.publish_us",
        cycle_mean(&|b| b.publish_ns) / 1e3,
        "us",
    );
    t.set("service.cycle_width", cycle_mean(&|b| b.width), "count");
    t.set(
        "service.max_cycle_width",
        ex.service.max_cycle_width as f64,
        "count",
    );

    let codec_ns = span("net.codec").mean_self_ns();
    t.set("net.codec_ns", codec_ns, "ns");
    t.set(
        "net.transport_us",
        (span("net.read").mean_self_ns() - codec_ns).max(0.0) / 1e3,
        "us",
    );
    t.set("net.queue_wait_us", ex.queue_wait_mean_ns / 1e3, "us");
    t.set(
        "net.queue_depth_hwm",
        ex.net.queue_depth_hwm as f64,
        "count",
    );
    t.set("net.overloaded", ex.net.overloaded as f64, "count");

    let j = &ex.journal;
    t.set(
        "journal.append_us",
        j.append_ns as f64 / j.records_appended.max(1) as f64 / 1e3,
        "us",
    );
    t.set(
        "journal.fsync_us",
        j.sync_ns as f64 / j.syncs.max(1) as f64 / 1e3,
        "us",
    );
    t.set("journal.checkpoint_ms", data.checkpoint_ms, "ms");
    t.set(
        "journal.bytes_per_delta_byte",
        j.bytes_appended as f64 / data.delta_bytes.max(1) as f64,
        "ratio",
    );
    t.set(
        "journal.replay_us_per_record",
        data.replay_us_per_record,
        "us",
    );
}
