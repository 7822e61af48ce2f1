//! Set-up through the public API: generate, encode and store every object,
//! register the tables, and stand up engines with their OCS connectors.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use bytes::Bytes;
use dsq::catalog::{ObjectLocation, TableMeta, TableStats};
use dsq::session::EventListener;
use dsq::{Engine, EngineBuilder, QueryEvent};
use objstore::ObjectStore;
use ocs::Ocs;
use ocs_connector::{register_ocs_stack, OcsConnector, PushdownPolicy};
use parq::{ColumnStats, ParqReader, WriteOptions};

use crate::workload::{depth_policy, table_seed, Table, Workload, ROW_GROUP_ROWS};

pub const BUCKET: &str = "lake";

/// Wall times of one object write, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct WriteTiming {
    pub generate_s: f64,
    pub encode_s: f64,
    pub put_s: f64,
}

impl WriteTiming {
    pub fn total_s(&self) -> f64 {
        self.generate_s + self.encode_s + self.put_s
    }
}

/// A table as the benchmark wrote it.
#[derive(Debug, Clone)]
pub struct LoadedTable {
    pub table: Table,
    pub files: usize,
    pub rows_per_file: usize,
    pub objects: Vec<ObjectLocation>,
}

impl LoadedTable {
    pub fn meta(&self) -> TableMeta {
        let schema = self.table.schema();
        let mut columns = vec![ColumnStats::empty(); schema.len()];
        for o in &self.objects {
            for (acc, s) in columns.iter_mut().zip(&o.columns) {
                *acc = acc.merge(s);
            }
        }
        TableMeta {
            name: self.table.name().to_string(),
            connector: "ocs".into(),
            schema,
            objects: self.objects.clone(),
            stats: TableStats {
                row_count: self.objects.iter().map(|o| o.rows).sum(),
                columns,
            },
        }
    }

    pub fn stored_bytes(&self) -> u64 {
        self.objects.iter().map(|o| o.bytes).sum()
    }
}

/// Generate object `idx` of `table` from `seed`, encode it with
/// `parq::writer::write_file` and `put_object` it. Returns its catalog
/// entry, the object version and the time of each step.
pub fn write_object(
    store: &ObjectStore,
    table: Table,
    files: usize,
    rows: usize,
    seed: u64,
    idx: usize,
    codec: lzcodec::CodecKind,
) -> Result<(ObjectLocation, u64, WriteTiming), String> {
    let key = format!("{}/part-{idx:05}.parq", table.name());
    let t0 = Instant::now();
    let batch = table.generate(seed, files, rows, idx);
    let t1 = Instant::now();
    let encoded = parq::writer::write_file(
        table.schema(),
        &[batch],
        WriteOptions {
            codec,
            row_group_rows: ROW_GROUP_ROWS,
            enable_dictionary: true,
        },
    )
    .map_err(|e| format!("encode {key}: {e}"))?;
    let bytes: Bytes = encoded.into();
    let t2 = Instant::now();
    let version = store
        .put_object(BUCKET, &key, bytes.clone())
        .map_err(|e| format!("put {key}: {e}"))?;
    let t3 = Instant::now();
    let timing = WriteTiming {
        generate_s: (t1 - t0).as_secs_f64(),
        encode_s: (t2 - t1).as_secs_f64(),
        put_s: (t3 - t2).as_secs_f64(),
    };
    let reader = ParqReader::open(bytes.clone()).map_err(|e| format!("reopen {key}: {e}"))?;
    let columns = (0..table.schema().len())
        .map(|c| reader.column_stats(c))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("stats {key}: {e}"))?;
    let location = ObjectLocation {
        bucket: BUCKET.into(),
        key,
        rows: reader.total_rows(),
        bytes: bytes.len() as u64,
        columns,
    };
    Ok((location, version, timing))
}

/// Query-completion counters the engine reports through its listener.
#[derive(Debug, Clone, Default)]
pub struct EventCounters {
    pub pushed_aggregation: bool,
    pub row_groups_skipped: u64,
    pub decoded_bytes_avoided: u64,
    pub rg_cache_hits: u64,
    pub result_cache_hits: u64,
    pub cache_bytes_avoided: u64,
}

/// Keeps the counters of the last completed query.
#[derive(Default)]
pub struct LastEvent(Mutex<Option<EventCounters>>);

impl LastEvent {
    pub fn take(&self) -> Option<EventCounters> {
        self.0
            .lock()
            .expect("listener mutex poisoned by a panicking query")
            .take()
    }
}

impl EventListener for LastEvent {
    fn query_completed(&self, e: &QueryEvent) {
        let counters = EventCounters {
            pushed_aggregation: e.pushed && e.scan_handle.contains("Aggregation"),
            row_groups_skipped: e.row_groups_skipped,
            decoded_bytes_avoided: e.decoded_bytes_avoided,
            rg_cache_hits: e.rg_cache_hits,
            result_cache_hits: e.result_cache_hits,
            cache_bytes_avoided: e.cache_bytes_avoided,
        };
        *self
            .0
            .lock()
            .expect("listener mutex poisoned by a panicking query") = Some(counters);
    }
}

/// An engine with the OCS stack registered over the shared store.
pub struct EngineStack {
    pub engine: Engine,
    pub ocs: Arc<Ocs>,
    pub events: Arc<LastEvent>,
}

impl EngineStack {
    pub fn new(
        tracing: bool,
        store: &Arc<ObjectStore>,
        tables: &[LoadedTable],
        depths: &[&str],
    ) -> EngineStack {
        let engine = EngineBuilder::new().tracing(tracing).build();
        for t in tables {
            engine.metastore().register(t.meta());
        }
        let events = Arc::new(LastEvent::default());
        engine.add_listener(events.clone());
        let ocs = install_ocs(&engine, store, depths);
        EngineStack {
            engine,
            ocs,
            events,
        }
    }

    /// Replace the OCS deployment behind every connector name with a fresh
    /// one: production cache budgets, empty caches.
    pub fn refresh_ocs(&mut self, store: &Arc<ObjectStore>, depths: &[&str]) {
        self.ocs = install_ocs(&self.engine, store, depths);
    }
}

/// `register_ocs_stack` (the `ocs`, `hive` and `raw` connectors) plus one
/// OCS connector per pushdown depth, all over one new OCS deployment.
fn install_ocs(engine: &Engine, store: &Arc<ObjectStore>, depths: &[&str]) -> Arc<Ocs> {
    let ocs = register_ocs_stack(engine, store.clone(), PushdownPolicy::all());
    for &depth in depths {
        engine.register_connector(Arc::new(OcsConnector::new(
            depth,
            ocs.clone(),
            engine.cluster().clone(),
            engine.cost_params().clone(),
            depth_policy(depth),
        )));
    }
    ocs
}

/// The data side of a stack: the store and what was written to it.
pub struct Dataset {
    pub store: Arc<ObjectStore>,
    pub tables: Vec<LoadedTable>,
    /// Every object write set-up made.
    pub writes: Vec<(Table, WriteTiming)>,
}

/// Generate, encode and store every object of the workload.
pub fn load(workload: &Workload, seed: u64) -> Result<Dataset, String> {
    let store = Arc::new(ObjectStore::new());
    store.create_bucket(BUCKET).map_err(|e| e.to_string())?;
    let mut tables = Vec::new();
    let mut writes = Vec::new();
    for table in Table::ALL {
        let (files, rows) = workload.layout_of(table);
        let mut objects = Vec::with_capacity(files);
        for idx in 0..files {
            let (loc, _, timing) = write_object(
                &store,
                table,
                files,
                rows,
                table_seed(seed, table),
                idx,
                workload.codec,
            )?;
            objects.push(loc);
            writes.push((table, timing));
        }
        tables.push(LoadedTable {
            table,
            files,
            rows_per_file: rows,
            objects,
        });
    }
    Ok(Dataset {
        store,
        tables,
        writes,
    })
}
