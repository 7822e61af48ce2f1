//! `perfbench` — the repository benchmark.
//!
//! ```sh
//! perfbench --workload <ship-cold|agg-cold|warm-rw> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Builds the whole stack through the public API (generators, parquet
//! writer, object store, OCS, connector, engine), then drives one client
//! in a closed loop for `--seconds` of measured operation time with
//! tracing off. Every answer is checked against the `raw` connector over
//! the same object versions, outside the measured time.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` runs the same
//! untraced loop, then a traced pass of the same operations on an engine
//! built with tracing on, timing the calls into each layer's public
//! functions; it prints the per-layer metrics and writes the spans as a
//! Chrome trace under `perfbench/out/`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod check;
mod layers;
mod stack;
mod workload;

use std::collections::HashMap;
use std::time::Instant;

use columnar::RecordBatch;
use netsim::Phase;
use obs::FlightKind;
use ocs::{Ocs, OcsConfig};
use ocs_connector::translate::to_substrait_verified;
use ocs_connector::OcsTableHandle;
use substrait_ir::planck::Verifier;

use layers::Recorder;
use stack::{write_object, Dataset, EngineStack, WriteTiming, BUCKET};
use workload::{Op, OpStream, Table, Workload};

const PHASES: [(Phase, &str); 9] = [
    (Phase::PlanAnalysis, "netsim.plan_analysis_s"),
    (Phase::SubstraitGen, "netsim.substrait_gen_s"),
    (Phase::StorageDisk, "netsim.storage_disk_s"),
    (Phase::StorageDecompress, "netsim.storage_decompress_s"),
    (Phase::StorageCpu, "netsim.storage_cpu_s"),
    (Phase::FrontendCpu, "netsim.frontend_cpu_s"),
    (Phase::NetworkTransfer, "netsim.network_s"),
    (Phase::ComputeCpu, "netsim.compute_cpu_s"),
    (Phase::Other, "netsim.other_s"),
];

/// A `--trace 0` run sets up at least `SETUP_REPS` times, and again while
/// the set-ups have taken under `SETUP_BUDGET_S` (at most
/// `SETUP_MAX_REPS` in all); `setup_s` is their median. Cheap set-ups thus
/// get enough repetitions for a steady median.
const SETUP_REPS: usize = 3;
const SETUP_BUDGET_S: f64 = 3.0;
const SETUP_MAX_REPS: usize = 15;

/// Measured seconds of the traced engine's untraced-style loop, the
/// traced side of `obs.tracing_overhead_pct`.
const OVERHEAD_SECONDS: f64 = 5.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::by_name(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() {
    let out = parse_args().and_then(run);
    match out {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// Linear-interpolated quantile (`q` in 0..=1) of unsorted samples.
fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Peak resident set (VmHWM) of this process, in bytes.
fn peak_rss_bytes() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or("unreadable VmHWM")?;
    Ok(kb * 1024.0)
}

/// Evictions per (tier, node) from the flight recorder's `CacheEvict`
/// events, which carry each tier's running eviction count.
#[derive(Default)]
struct EvictionTracker {
    seen: HashMap<(u64, u64), u64>,
}

impl EvictionTracker {
    /// Evictions the events add on top of what was already seen.
    fn absorb(&mut self, events: &[obs::FlightEvent]) -> u64 {
        let mut added = 0;
        for e in events.iter().filter(|e| e.kind == FlightKind::CacheEvict) {
            let last = self.seen.entry((e.a, e.c)).or_insert(0);
            if e.b > *last {
                added += e.b - *last;
                *last = e.b;
            }
        }
        added
    }
}

/// One benchmark run's state: the data, the reference answers, and every
/// sample and check outcome.
struct Runner {
    w: Workload,
    seed: u64,
    data: Dataset,
    refs: HashMap<&'static str, RecordBatch>,
    attempted: u64,
    failed: u64,
    /// Failed path assertions and checks (any makes the run incorrect).
    problems: Vec<String>,
    // Untraced-loop samples.
    query_s: Vec<f64>,
    writes: Vec<(Table, WriteTiming)>,
    timed_s: f64,
    sim_s: Vec<f64>,
    phase_s: [f64; 9],
    moved_bytes: Vec<f64>,
    result_hit_queries: u64,
    /// Rewrite awaiting its `VersionPurge` event: (table, version, cursor).
    pending_purge: Option<(Table, u64, u64)>,
    evictions: EvictionTracker,
    flight_cursor: u64,
    /// Traced rewrites (generate, encode, put).
    traced_writes: Vec<(Table, WriteTiming)>,
    /// Threads of the engine's split pool (`available_parallelism`).
    workers: f64,
}

impl Runner {
    fn problem(&mut self, p: String) {
        if self.problems.len() < 20 {
            eprintln!("perfbench: check failed: {p}");
        }
        self.problems.push(p);
    }

    fn fail_op(&mut self, what: String) {
        self.failed += 1;
        self.problem(what);
    }

    fn table_mut(&mut self, table: Table) -> &mut stack::LoadedTable {
        self.data
            .tables
            .iter_mut()
            .find(|t| t.table == table)
            .expect("every table is loaded")
    }

    fn rebind(stack: &EngineStack, table: Table, connector: &str) -> Result<(), String> {
        stack
            .engine
            .metastore()
            .rebind_connector(table.name(), connector)
            .map_err(|e| e.to_string())
    }

    /// The `raw` connector's answer over the current object versions.
    fn reference(stack: &EngineStack, table: Table) -> Result<RecordBatch, String> {
        Self::rebind(stack, table, "raw")?;
        let r = stack
            .engine
            .execute(table.query())
            .map_err(|e| format!("raw {}: {e}", table.name()));
        stack.events.take();
        Ok(r?.batch)
    }

    fn refresh_reference(&mut self, stack: &EngineStack, table: Table) {
        match Self::reference(stack, table) {
            Ok(b) => {
                self.refs.insert(table.name(), b);
            }
            Err(e) => self.problem(format!("reference answer: {e}")),
        }
    }

    fn check_purge(&mut self) {
        if let Some((table, version, cursor)) = self.pending_purge.take() {
            let purged = obs::flight()
                .since(cursor)
                .iter()
                .any(|e| e.kind == FlightKind::VersionPurge && e.a == version);
            if !purged {
                self.problem(format!(
                    "no VersionPurge event for {} version {version} after its rewrite",
                    table.name()
                ));
            }
        }
    }

    /// Untraced: run whole operation units until `budget_s` of operation
    /// time is measured (at least two units). Traced: replay the first
    /// [`Workload::traced_units`] units of the same stream.
    fn run_units(
        &mut self,
        stack: &mut EngineStack,
        budget_s: f64,
        mut rec: Option<&mut Recorder>,
    ) {
        let mut ops = OpStream::new(&self.w, self.seed);
        let wall = Instant::now();
        let timed_start = self.timed_s;
        let mut units = 0;
        loop {
            let done = match rec {
                Some(_) => units >= self.w.traced_units,
                None => {
                    let overrun = wall.elapsed().as_secs_f64() > 3.0 * budget_s + 10.0;
                    units >= 2 && (self.timed_s - timed_start >= budget_s || overrun)
                }
            };
            if done {
                break;
            }
            for op in ops.next_unit() {
                match op {
                    Op::Query { table, depth } => {
                        self.query(stack, table, depth, rec.as_deref_mut())
                    }
                    Op::Rewrite { table, idx, seed } => {
                        self.rewrite(stack, table, idx, seed, rec.as_deref_mut())
                    }
                }
            }
            units += 1;
        }
        self.check_purge();
    }

    fn query(
        &mut self,
        stack: &mut EngineStack,
        table: Table,
        depth: &'static str,
        rec: Option<&mut Recorder>,
    ) {
        if self.w.cold {
            stack.refresh_ocs(&self.data.store, self.w.depths);
        }
        if let Err(e) = Self::rebind(stack, table, depth) {
            self.attempted += 1;
            self.fail_op(format!("rebind {}: {e}", table.name()));
            return;
        }
        stack.events.take();
        self.attempted += 1;
        let outcome = match rec {
            None => {
                let t = Instant::now();
                let r = stack.engine.execute(table.query());
                let dt = t.elapsed().as_secs_f64();
                self.timed_s += dt;
                r.map(|r| {
                    self.query_s.push(dt);
                    self.sim_s.push(r.simulated_seconds);
                    self.moved_bytes.push(r.moved_bytes as f64);
                    for (i, (phase, _)) in PHASES.iter().enumerate() {
                        self.phase_s[i] += r.ledger.get(*phase);
                    }
                    (r.batch, stack.events.take().unwrap_or_default())
                })
                .map_err(|e| e.to_string())
            }
            Some(rec) => self.traced_query(stack, table, depth, rec),
        };
        let (batch, c) = match outcome {
            Ok(b) => b,
            Err(e) => return self.fail_op(format!("{} via {depth}: {e}", table.name())),
        };
        match self
            .refs
            .get(table.name())
            .map(|want| check::same_answer(&batch, want))
        {
            Some(Ok(())) => {}
            Some(Err(e)) => {
                return self.fail_op(format!("{} via {depth}: wrong answer: {e}", table.name()))
            }
            None => return self.fail_op(format!("{}: no reference answer", table.name())),
        }
        if self.w.cold {
            if c.rg_cache_hits + c.result_cache_hits > 0 {
                self.problem(format!(
                    "cold {} via {depth} hit a cache ({} row-group, {} result)",
                    table.name(),
                    c.rg_cache_hits,
                    c.result_cache_hits
                ));
            }
            if depth == "pd-all" && !c.pushed_aggregation {
                self.problem(format!(
                    "{} via pd-all did not push its aggregation",
                    table.name()
                ));
            }
        } else if c.result_cache_hits > 0 {
            self.result_hit_queries += 1;
        }
    }

    /// The traced form of one query: each layer's public entry point timed
    /// in its own span under the query's request id.
    fn traced_query(
        &mut self,
        stack: &EngineStack,
        table: Table,
        depth: &str,
        rec: &mut Recorder,
    ) -> Result<(RecordBatch, stack::EventCounters), String> {
        let sql = table.query();
        rec.queries += 1;
        let req = rec.next_request();
        let root = rec.open(req, "query", None);
        let (parsed, parse_s) =
            rec.time(req, "sqlparse.parse", Some(root), || sqlparse::parse(sql));
        parsed.map_err(|e| e.to_string())?;
        let (planned, plan_s) = rec.time(req, "engine.plan", Some(root), || stack.engine.plan(sql));
        let (_, plan) = planned.map_err(|e| e.to_string())?;
        let handle = plan
            .scan()
            .handle
            .as_any()
            .downcast_ref::<OcsTableHandle>()
            .cloned()
            .ok_or_else(|| format!("{} via {depth}: scan is not an OCS handle", table.name()))?;
        let (translated, translate_s) =
            rec.time(req, "core.to_substrait_verified", Some(root), || {
                to_substrait_verified(&handle)
            });
        let (pushed, _) = translated.map_err(|d| d.to_string())?;
        let (_, encode_s) = rec.time(req, "substrait-ir.encode", Some(root), || {
            std::hint::black_box(substrait_ir::encode(&pushed))
        });
        let (verified, verify_s) = rec.time(req, "substrait-ir.verify", Some(root), || {
            Verifier::pushdown().verify(&pushed)
        });
        verified.map_err(|d| format!("{d:?}"))?;

        let m = obs::metrics();
        let (rg_hits0, rg_misses0) = (
            m.counter("ocs.cache.rg_hits").get(),
            m.counter("ocs.cache.rg_misses").get(),
        );
        // Eviction counts restart with every fresh deployment; a warm one
        // also evicts outside `execute` (the stream replays below).
        if self.w.cold {
            self.evictions = EvictionTracker::default();
        } else {
            let between = obs::flight().since(self.flight_cursor);
            self.evictions.absorb(&between);
        }
        let cursor = obs::flight().cursor();
        let (executed, execute_s) = rec.time(req, "engine.execute", Some(root), || {
            stack.engine.execute(sql)
        });
        let result = executed.map_err(|e| e.to_string())?;
        let during = obs::flight().since(cursor);
        self.flight_cursor = obs::flight().cursor();
        let evicted = self.evictions.absorb(&during);
        let rg_hits = m.counter("ocs.cache.rg_hits").get() - rg_hits0;
        let rg_misses = m.counter("ocs.cache.rg_misses").get() - rg_misses0;
        let counters = stack.events.take().unwrap_or_default();

        // The pushed plan once more, per split object, straight through
        // the OCS client: cold workloads on a fresh deployment.
        let cold_ocs;
        let client = if self.w.cold {
            cold_ocs = Ocs::new(self.data.store.clone(), OcsConfig::paper_testbed());
            cold_ocs.client()
        } else {
            stack.ocs.client()
        };
        let objects = &self
            .data
            .tables
            .iter()
            .find(|t| t.table == table)
            .expect("loaded")
            .objects;
        let mut batches = Vec::new();
        let (drained, stream_s) = rec.time(req, "ocs.execute_stream", Some(root), || {
            for o in objects {
                let mut s = client.execute_stream(&pushed, &o.bucket, &o.key)?;
                while let Some(b) = s.next_batch()? {
                    batches.push(b);
                }
                s.finish()?;
            }
            Ok::<_, ocs::OcsError>(())
        });
        drained.map_err(|e| format!("stream {}: {e}", table.name()))?;
        rec.ipc_round_trip(req, root, &batches)?;
        drop(batches);
        let object_bytes = objects
            .iter()
            .map(|o| {
                self.data
                    .store
                    .get_object(BUCKET, &o.key)
                    .map_err(|e| e.to_string())
            })
            .collect::<Result<Vec<_>, _>>()?;
        rec.column_kernels(
            req,
            root,
            &object_bytes,
            table,
            &handle.projection,
            self.w.codec,
        )?;
        rec.close(root);

        let storage_wall_s: f64 = result
            .trace
            .spans
            .iter()
            .filter(|s| s.name.starts_with("storage[") && s.name.ends_with("].execute"))
            .filter_map(|s| s.wall_s)
            .sum();
        rec.sample("sqlparse.parse_us", parse_s * 1e6);
        rec.sample("engine.plan_us", (plan_s - parse_s) * 1e6);
        rec.sample("core.translate_us", translate_s * 1e6);
        rec.sample("substrait-ir.encode_us", encode_s * 1e6);
        rec.sample("substrait-ir.verify_us", verify_s * 1e6);
        rec.sample("engine.execute_ms", execute_s * 1e3);
        rec.sample("ocs.stream_ms", stream_s * 1e3);
        // Storage executes on the engine's rayon pool alongside the other
        // splits, so its summed wall time is spread over the pool threads;
        // what `execute` spends beyond that is the engine-side residual
        // (frame encode/decode, engine operators).
        rec.sample(
            "engine.residual_ms",
            (execute_s - storage_wall_s / self.workers) * 1e3,
        );
        rec.sample("ocs.storage_wall_ms", storage_wall_s * 1e3);
        rec.sample("ocs.frames_per_query", result.pipeline.frames as f64);
        rec.sample(
            "ocs.peak_buffered_mb",
            result.pipeline.peak_buffered_bytes as f64 / 1e6,
        );
        rec.sample(
            "ocs.row_groups_skipped_per_query",
            counters.row_groups_skipped as f64,
        );
        rec.sample(
            "ocs.decoded_mb_avoided_per_query",
            counters.decoded_bytes_avoided as f64 / 1e6,
        );
        rec.sample(
            "cache.mb_avoided_per_query",
            counters.cache_bytes_avoided as f64 / 1e6,
        );
        rec.sample("cache.evictions_per_query", evicted as f64);
        rec.sample("sim_s", result.simulated_seconds);
        for (phase, name) in PHASES {
            rec.sample(name, result.ledger.get(phase));
        }
        rec.add("rg_hits", rg_hits as f64);
        rec.add("rg_lookups", (rg_hits + rg_misses) as f64);
        rec.add("result_hits", counters.result_cache_hits as f64);
        rec.add("splits", result.splits as f64);
        Ok((result.batch, counters))
    }

    fn rewrite(
        &mut self,
        stack: &mut EngineStack,
        table: Table,
        idx: usize,
        seed: u64,
        rec: Option<&mut Recorder>,
    ) {
        self.check_purge();
        let (files, rows) = self.w.layout_of(table);
        self.attempted += 1;
        let start = Instant::now();
        let written = write_object(
            &self.data.store,
            table,
            files,
            rows,
            seed,
            idx,
            self.w.codec,
        );
        let dt = start.elapsed().as_secs_f64();
        let (location, version, timing) = match written {
            Ok(w) => w,
            Err(e) => return self.fail_op(format!("rewrite {}: {e}", table.name())),
        };
        let cursor = obs::flight().cursor();
        match rec {
            None => {
                self.timed_s += dt;
                self.writes.push((table, timing));
            }
            Some(rec) => {
                let req = rec.next_request();
                rec.record(req, "rewrite", None, start, timing.total_s());
                let parent = Some(rec.spans.len() - 1);
                rec.record(
                    req,
                    "workloads.generate_file",
                    parent,
                    start,
                    timing.generate_s,
                );
                let t1 = start + std::time::Duration::from_secs_f64(timing.generate_s);
                rec.record(req, "parq.write_file", parent, t1, timing.encode_s);
                let t2 = t1 + std::time::Duration::from_secs_f64(timing.encode_s);
                rec.record(req, "objstore.put_object", parent, t2, timing.put_s);
                self.traced_writes.push((table, timing));
            }
        }
        self.table_mut(table).objects[idx] = location;
        let meta = self.table_mut(table).meta();
        stack.engine.metastore().register(meta);
        self.pending_purge = Some((table, version, cursor));
        self.refresh_reference(stack, table);
    }
}

/// Run every (query, depth) pair once: warms caches and code paths.
fn warm_up(w: &Workload, data: &Dataset, stack: &mut EngineStack) -> Result<(), String> {
    for table in Table::ALL {
        for &depth in w.depths {
            if w.cold {
                stack.refresh_ocs(&data.store, w.depths);
            }
            Runner::rebind(stack, table, depth)?;
            stack
                .engine
                .execute(table.query())
                .map_err(|e| format!("warm-up {} via {depth}: {e}", table.name()))?;
            stack.events.take();
        }
    }
    Ok(())
}

/// Generate, load, build the engine and warm it up.
fn setup(w: &Workload, seed: u64) -> Result<(Dataset, EngineStack, f64), String> {
    let t = Instant::now();
    let data = stack::load(w, seed)?;
    let mut engine = EngineStack::new(false, &data.store, &data.tables, w.depths);
    warm_up(w, &data, &mut engine)?;
    Ok((data, engine, t.elapsed().as_secs_f64()))
}

impl Runner {
    fn new(w: Workload, seed: u64, data: Dataset) -> Runner {
        Runner {
            w,
            seed,
            data,
            refs: HashMap::new(),
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
            query_s: Vec::new(),
            writes: Vec::new(),
            timed_s: 0.0,
            sim_s: Vec::new(),
            phase_s: [0.0; 9],
            moved_bytes: Vec::new(),
            result_hit_queries: 0,
            pending_purge: None,
            evictions: EvictionTracker::default(),
            flight_cursor: obs::flight().cursor(),
            traced_writes: Vec::new(),
            workers: std::thread::available_parallelism().map_or(1, |n| n.get()) as f64,
        }
    }

    /// The sum of the nine phase means must equal the mean simulated time
    /// (the ledger's breakdown sums to its total).
    fn check_sim_clock(&mut self, phase_means: &[f64], sim_mean: f64, what: &str) {
        let sum: f64 = phase_means.iter().sum();
        if (sum - sim_mean).abs() > 1e-9 * sim_mean.abs().max(1e-12) {
            self.problem(format!(
                "{what}: phases sum to {sum} s, simulated total is {sim_mean} s"
            ));
        }
    }
}

struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> Result<String, String> {
        let mut parts = Vec::new();
        for (name, v, unit) in &self.0 {
            if !v.is_finite() {
                return Err(format!("metric {name} is not finite"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!("{{{}}}", parts.join(", ")))
    }
}

fn describe(w: &Workload, data: &Dataset) {
    let defaults = OcsConfig::paper_testbed();
    let tables: Vec<String> = data
        .tables
        .iter()
        .map(|t| {
            format!(
                "{} {}x{} rows {:.1} MB",
                t.table.name(),
                t.files,
                t.rows_per_file,
                t.stored_bytes() as f64 / 1e6
            )
        })
        .collect();
    println!(
        "workload {}: {}; codec {}; depths {:?}; caches {} (row-group {} MiB, result {} MiB); closed loop, 1 client",
        w.name,
        tables.join(", "),
        w.codec.name(),
        w.depths,
        if w.cold { "fresh per query" } else { "warm" },
        defaults.row_group_cache_bytes >> 20,
        defaults.result_cache_bytes >> 20,
    );
}

fn run(args: Args) -> Result<String, String> {
    let w = args.workload.clone();
    let mut setup_s: Vec<f64> = Vec::new();
    let mut setup_writes: Vec<(Table, WriteTiming)> = Vec::new();
    let mut last = None;
    loop {
        let reps = setup_s.len();
        let enough = reps >= SETUP_REPS && setup_s.iter().sum::<f64>() >= SETUP_BUDGET_S;
        if (args.trace && reps == 1) || enough || reps == SETUP_MAX_REPS {
            break;
        }
        drop(last.take());
        let (data, engine, secs) = setup(&w, args.seed)?;
        setup_s.push(secs);
        setup_writes.extend(data.writes.iter().cloned());
        last = Some((data, engine));
    }
    let (data, mut engine) = last.expect("at least one set-up");
    describe(&w, &data);

    let mut r = Runner::new(w.clone(), args.seed, data);
    for table in Table::ALL {
        r.refresh_reference(&engine, table);
    }
    if !r.problems.is_empty() {
        return Err("no reference answers".into());
    }

    // Peak RSS of the measured interval only: VmHWM reset after set-up.
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("reset VmHWM: {e}"))?;
    r.run_units(&mut engine, args.seconds, None);
    let peak_rss = peak_rss_bytes()?;

    let queries = r.query_s.len();
    let q_ms: Vec<f64> = r.query_s.iter().map(|s| s * 1e3).collect();
    let query_p50_ms = median(&q_ms);
    let phase_means: Vec<f64> = r
        .phase_s
        .iter()
        .map(|s| s / queries.max(1) as f64)
        .collect();
    let sim_mean = mean(&r.sim_s);
    r.check_sim_clock(&phase_means, sim_mean, "untraced loop");
    if !w.cold && r.result_hit_queries * 2 < queries as u64 {
        r.problem(format!(
            "only {} of {queries} warm queries hit the result cache",
            r.result_hit_queries
        ));
    }
    if queries == 0 {
        r.problem("no query completed".into());
    }

    let mut m = Metrics(Vec::new());
    if !args.trace {
        let writes_ms: Vec<f64> = lineitem_writes(if w.cold { &setup_writes } else { &r.writes })
            .iter()
            .map(|t| t.total_s() * 1e3)
            .collect();
        println!(
            "samples: {queries} queries (p90 over {queries}), {} writes, {} set-ups, {:.3} s measured",
            writes_ms.len(),
            setup_s.len(),
            r.timed_s
        );
        m.put("setup_s", median(&setup_s), "s");
        m.put("query_p50_ms", query_p50_ms, "ms");
        m.put("query_p90_ms", quantile(&q_ms, 0.9), "ms");
        m.put("qps", queries as f64 / r.timed_s, "1/s");
        m.put("write_p50_ms", median(&writes_ms), "ms");
        m.put("sim_s_per_query", sim_mean, "s");
        m.put("moved_mb_per_query", mean(&r.moved_bytes) / 1e6, "MB");
        m.put("peak_rss_mb", peak_rss / 1e6, "MB");
    } else {
        let mut traced = EngineStack::new(true, &r.data.store, &r.data.tables, w.depths);
        warm_up(&w, &r.data, &mut traced)?;
        // Tracing overhead: the untraced loop once more, on the traced
        // engine, before the layer timings disturb caches and allocator.
        let untraced_queries = r.query_s.len();
        r.run_units(&mut traced, args.seconds.min(OVERHEAD_SECONDS), None);
        let traced_p50_ms = median(&r.query_s[untraced_queries..]) * 1e3;
        let overhead_pct = (traced_p50_ms / query_p50_ms - 1.0) * 100.0;
        r.evictions = EvictionTracker::default();
        r.flight_cursor = obs::flight().cursor();
        let mut rec = Recorder::new();
        r.run_units(&mut traced, args.seconds, Some(&mut rec));
        // Object writes behind the per-layer write metrics: the set-up
        // loads on cold workloads (which write nothing later), the traced
        // rewrites on warm-rw.
        let writes = lineitem_writes(if w.cold {
            &r.data.writes
        } else {
            &r.traced_writes
        });
        layer_metrics(&mut r, &rec, &writes, &mut m);
        m.put("obs.tracing_overhead_pct", overhead_pct, "%");

        let text = rec.chrome_json();
        if let Err(e) = obs::chrome::validate(&text) {
            r.problem(format!("chrome trace rejected: {e}"));
        }
        let dir = std::path::Path::new("perfbench/out");
        let path = dir.join(format!("trace-{}-seed{}.json", w.name, args.seed));
        std::fs::create_dir_all(dir)
            .and_then(|_| std::fs::write(&path, text))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "traced: {} queries, {} spans, chrome trace at {}",
            rec.queries,
            rec.spans.len(),
            path.display()
        );
    }

    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.problems.is_empty() && r.failed == 0,
        r.attempted,
        r.failed,
        m.json()?
    ))
}

/// The lineitem object writes among `writes`: write metrics are taken on
/// one table so that every sample is the same size of work.
fn lineitem_writes(writes: &[(Table, WriteTiming)]) -> Vec<WriteTiming> {
    writes
        .iter()
        .filter(|(t, _)| *t == Table::Lineitem)
        .map(|(_, w)| *w)
        .collect()
}

fn layer_metrics(r: &mut Runner, rec: &Recorder, writes: &[WriteTiming], m: &mut Metrics) {
    let med = |name: &str| rec.samples.get(name).map_or(0.0, |v| median(v));
    let avg = |name: &str| rec.samples.get(name).map_or(0.0, |v| mean(v));
    let ratio = |num: &str, den: &str| {
        let d = rec.sum(den);
        if d > 0.0 {
            rec.sum(num) / d
        } else {
            0.0
        }
    };
    for name in [
        "sqlparse.parse_us",
        "engine.plan_us",
        "engine.execute_ms",
        "engine.residual_ms",
        "core.translate_us",
        "substrait-ir.encode_us",
        "substrait-ir.verify_us",
        "ocs.stream_ms",
        "ocs.storage_wall_ms",
    ] {
        m.put(
            name,
            med(name),
            if name.ends_with("_us") { "us" } else { "ms" },
        );
    }
    m.put("ocs.frames_per_query", avg("ocs.frames_per_query"), "count");
    m.put("ocs.peak_buffered_mb", avg("ocs.peak_buffered_mb"), "MB");
    m.put(
        "ocs.row_groups_skipped_per_query",
        avg("ocs.row_groups_skipped_per_query"),
        "count",
    );
    m.put(
        "ocs.decoded_mb_avoided_per_query",
        avg("ocs.decoded_mb_avoided_per_query"),
        "MB",
    );
    m.put("cache.rg_hit_rate", ratio("rg_hits", "rg_lookups"), "ratio");
    m.put(
        "cache.result_hit_rate",
        ratio("result_hits", "splits"),
        "ratio",
    );
    m.put(
        "cache.mb_avoided_per_query",
        avg("cache.mb_avoided_per_query"),
        "MB",
    );
    m.put(
        "cache.evictions_per_query",
        avg("cache.evictions_per_query"),
        "count",
    );
    m.put(
        "columnar.ipc_mb_per_query",
        avg("columnar.ipc_mb_per_query"),
        "MB",
    );
    m.put(
        "columnar.ipc_encode_mb_s",
        ratio("ipc_bytes", "ipc_encode_s") / 1e6,
        "MB/s",
    );
    m.put(
        "columnar.ipc_decode_mb_s",
        ratio("ipc_bytes", "ipc_decode_s") / 1e6,
        "MB/s",
    );
    m.put(
        "columnar.groupby_ns_per_row",
        ratio("groupby_s", "groupby_rows") * 1e9,
        "ns/row",
    );
    m.put(
        "parq.decode_mb_s",
        ratio("parq_decode_bytes", "parq_decode_s") / 1e6,
        "MB/s",
    );
    m.put(
        "lzcodec.decompress_mb_s",
        ratio("lz_decompress_bytes", "lz_decompress_s") / 1e6,
        "MB/s",
    );
    let per_write =
        |f: fn(&WriteTiming) -> f64| median(&writes.iter().map(|t| f(t) * 1e3).collect::<Vec<_>>());
    m.put("parq.write_ms", per_write(|t| t.encode_s), "ms");
    m.put("objstore.put_ms", per_write(|t| t.put_s), "ms");
    m.put("workloads.generate_ms", per_write(|t| t.generate_s), "ms");
    let phase_means: Vec<f64> = PHASES.iter().map(|(_, name)| avg(name)).collect();
    for ((_, name), v) in PHASES.iter().zip(&phase_means) {
        m.put(name, *v, "s");
    }
    r.check_sim_clock(&phase_means, avg("sim_s"), "traced pass");
}
