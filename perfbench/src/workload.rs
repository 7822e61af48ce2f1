//! What each workload runs: its tables, queries, pushdown depths, cache
//! discipline and the seeded order of operations.

use columnar::agg::AggFunc;
use columnar::{RecordBatch, SchemaRef};
use lzcodec::CodecKind;
use ocs_connector::PushdownPolicy;
use workloads::{queries, DeepWaterConfig, LaghosConfig, TpchConfig};

/// Rows per parquet row group (the `workloads` loader's default).
pub const ROW_GROUP_ROWS: usize = 64 * 1024;

/// One of the paper's three datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Table {
    Laghos,
    DeepWater,
    Lineitem,
}

impl Table {
    pub const ALL: [Table; 3] = [Table::Laghos, Table::DeepWater, Table::Lineitem];

    pub fn name(self) -> &'static str {
        match self {
            Table::Laghos => "laghos",
            Table::DeepWater => "deepwater",
            Table::Lineitem => "lineitem",
        }
    }

    pub fn schema(self) -> SchemaRef {
        match self {
            Table::Laghos => workloads::laghos::schema(),
            Table::DeepWater => workloads::deepwater::schema(),
            Table::Lineitem => workloads::tpch::schema(),
        }
    }

    /// Rows of object `idx` of a table of `files` objects, from `seed`.
    pub fn generate(self, seed: u64, files: usize, rows: usize, idx: usize) -> RecordBatch {
        match self {
            Table::Laghos => workloads::laghos::generate_file(
                &LaghosConfig {
                    files,
                    rows_per_file: rows,
                    seed,
                    ..Default::default()
                },
                idx,
            ),
            Table::DeepWater => workloads::deepwater::generate_file(
                &DeepWaterConfig {
                    files,
                    rows_per_file: rows,
                    seed,
                    ..Default::default()
                },
                idx,
            ),
            Table::Lineitem => workloads::tpch::generate_file(
                &TpchConfig {
                    files,
                    rows_per_file: rows,
                    seed,
                },
                idx,
            ),
        }
    }

    /// The Table-2 query over this table.
    pub fn query(self) -> &'static str {
        match self {
            Table::Laghos => queries::LAGHOS,
            Table::DeepWater => queries::DEEPWATER,
            Table::Lineitem => queries::TPCH_Q1,
        }
    }

    /// Group keys and aggregate inputs of the query, as stored columns:
    /// what the per-layer group-by timing feeds `GroupedAggregator`.
    /// Expressions are replaced by the column they read.
    pub fn aggregation(
        self,
    ) -> (
        &'static [&'static str],
        &'static [(AggFunc, Option<&'static str>)],
    ) {
        match self {
            Table::Laghos => (
                &["vertex_id"],
                &[
                    (AggFunc::Min, Some("x")),
                    (AggFunc::Min, Some("y")),
                    (AggFunc::Min, Some("z")),
                    (AggFunc::Avg, Some("e")),
                ],
            ),
            Table::DeepWater => (&["timestep"], &[(AggFunc::Max, Some("rowid"))]),
            Table::Lineitem => (
                &["returnflag", "linestatus"],
                &[
                    (AggFunc::Sum, Some("quantity")),
                    (AggFunc::Sum, Some("extendedprice")),
                    (AggFunc::Sum, Some("discount")),
                    (AggFunc::Sum, Some("tax")),
                    (AggFunc::Avg, Some("quantity")),
                    (AggFunc::Avg, Some("extendedprice")),
                    (AggFunc::Avg, Some("discount")),
                    (AggFunc::Count, None),
                ],
            ),
        }
    }
}

/// The pushdown policy a named depth connector is registered with.
pub fn depth_policy(depth: &str) -> PushdownPolicy {
    match depth {
        "pd-filter" => PushdownPolicy::filter_only(),
        "pd-filter-proj-agg" => PushdownPolicy::filter_project_aggregate(),
        _ => PushdownPolicy::all(),
    }
}

/// A benchmark workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Codec every object is stored with.
    pub codec: CodecKind,
    /// Pushdown depths the queries run at.
    pub depths: &'static [&'static str],
    /// Objects per table and rows per object, in [`Table::ALL`] order.
    pub layout: [(usize, usize); 3],
    /// Cold: a fresh OCS (empty caches) before every query. Warm: one
    /// OCS, warmed in set-up, with object rewrites between queries.
    pub cold: bool,
    /// Warm only: passes over the nine (query, depth) pairs between two
    /// rewrites.
    pub reads_per_write: usize,
    /// Units the traced pass replays. Bounded because the spans are
    /// written as one Chrome trace, and `obs::chrome::validate` takes time
    /// quadratic in the document's length.
    pub traced_units: usize,
}

impl Workload {
    pub fn by_name(name: &str) -> Option<Workload> {
        let w = match name {
            "ship-cold" => Workload {
                name: "ship-cold",
                codec: CodecKind::None,
                depths: &["pd-filter"],
                layout: [(4, 64 * 1024), (4, 128 * 1024), (4, 256 * 1024)],
                cold: true,
                reads_per_write: 0,
                traced_units: 8,
            },
            "agg-cold" => Workload {
                name: "agg-cold",
                codec: CodecKind::Snap,
                depths: &["pd-all"],
                layout: [(4, 64 * 1024), (4, 128 * 1024), (4, 256 * 1024)],
                cold: true,
                reads_per_write: 0,
                traced_units: 8,
            },
            "warm-rw" => Workload {
                name: "warm-rw",
                codec: CodecKind::None,
                depths: &["pd-filter", "pd-filter-proj-agg", "pd-all"],
                layout: [(4, 8 * 1024), (4, 8 * 1024), (4, 8 * 1024)],
                cold: false,
                reads_per_write: 2,
                traced_units: 2,
            },
            _ => return None,
        };
        Some(w)
    }

    pub fn layout_of(&self, table: Table) -> (usize, usize) {
        self.layout[Table::ALL
            .iter()
            .position(|t| *t == table)
            .expect("known table")]
    }
}

/// One operation of the closed loop.
#[derive(Debug, Clone, Copy)]
pub enum Op {
    Query {
        table: Table,
        depth: &'static str,
    },
    /// Regenerate object `idx` of `table` from `seed`, encode and put it.
    Rewrite {
        table: Table,
        idx: usize,
        seed: u64,
    },
}

/// SplitMix64: the benchmark's only source of randomness, seeded from the
/// command line.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// Generator seed of `table` for a run seeded with `seed`.
pub fn table_seed(seed: u64, table: Table) -> u64 {
    Rng::new(seed ^ (table as u64 + 1).wrapping_mul(0x51_7cc1_b727_220a)).next_u64()
}

/// The seeded stream of operations, handed out one balanced unit at a
/// time: a cold unit is every query once; a warm unit is one rewrite of
/// each table, each followed by `reads_per_write` passes over every
/// (query, depth) pair. Whole units keep the mix of the samples fixed, so
/// quantiles do not drift between seeds.
pub struct OpStream {
    workload: Workload,
    rng: Rng,
}

impl OpStream {
    pub fn new(workload: &Workload, seed: u64) -> OpStream {
        OpStream {
            workload: workload.clone(),
            rng: Rng::new(seed ^ 0x0b5e_55ed),
        }
    }

    pub fn next_unit(&mut self) -> Vec<Op> {
        let w = &self.workload;
        let reads = |rng: &mut Rng| {
            let mut pass: Vec<Op> = Table::ALL
                .iter()
                .flat_map(|&table| {
                    w.depths
                        .iter()
                        .map(move |&depth| Op::Query { table, depth })
                })
                .collect();
            rng.shuffle(&mut pass);
            pass
        };
        if w.cold {
            return reads(&mut self.rng);
        }
        let mut tables = Table::ALL;
        self.rng.shuffle(&mut tables);
        let mut ops = Vec::new();
        for table in tables {
            let (files, _) = w.layout_of(table);
            ops.push(Op::Rewrite {
                table,
                idx: self.rng.below(files),
                seed: self.rng.next_u64(),
            });
            for _ in 0..w.reads_per_write {
                ops.extend(reads(&mut self.rng));
            }
        }
        ops
    }
}
