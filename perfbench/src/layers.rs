//! The traced run: the benchmark's own spans around calls into each
//! layer's public functions, kept in memory, reduced to per-layer metrics
//! and written once as a Chrome trace.

use std::collections::BTreeMap;
use std::time::Instant;

use columnar::groupby::GroupedAggregator;
use columnar::ipc::{encode_batch_frame, FrameDecoder};
use columnar::{Array, RecordBatch};
use lzcodec::CodecKind;
use parq::encoding::{choose_encoding, decode_chunk, encode_chunk};
use parq::ParqReader;

use crate::workload::Table;

/// One recorded span. Times are microseconds since the recorder started.
#[derive(Debug, Clone)]
pub struct Span {
    pub req: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub dur_us: f64,
    pub parent: Option<usize>,
}

/// In-memory span store plus the per-layer samples the spans feed.
pub struct Recorder {
    epoch: Instant,
    pub spans: Vec<Span>,
    /// Per-query samples, keyed by metric name.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Running sums for ratio metrics, keyed by name.
    pub sums: BTreeMap<&'static str, f64>,
    pub queries: u64,
    requests: u64,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            samples: BTreeMap::new(),
            sums: BTreeMap::new(),
            queries: 0,
            requests: 0,
        }
    }

    /// A new request id: the id every span of one operation carries.
    pub fn next_request(&mut self) -> u64 {
        self.requests += 1;
        self.requests
    }

    /// Open a span now; close it with [`Recorder::close`].
    pub fn open(&mut self, req: u64, name: &'static str, parent: Option<usize>) -> usize {
        let start_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        self.spans.push(Span {
            req,
            name,
            start_us,
            dur_us: 0.0,
            parent,
        });
        self.spans.len() - 1
    }

    /// Close span `id`, returning its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let now = self.epoch.elapsed().as_secs_f64() * 1e6;
        let span = &mut self.spans[id];
        span.dur_us = now - span.start_us;
        span.dur_us / 1e6
    }

    /// Record a span that started at `start` and lasted `seconds`.
    pub fn record(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        seconds: f64,
    ) {
        self.spans.push(Span {
            req,
            name,
            start_us: start.duration_since(self.epoch).as_secs_f64() * 1e6,
            dur_us: seconds * 1e6,
            parent,
        });
    }

    /// Run `f` inside a span; returns its value and duration in seconds.
    pub fn time<T>(
        &mut self,
        req: u64,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.open(req, name, parent);
        let out = f();
        let s = self.close(id);
        (out, s)
    }

    pub fn sample(&mut self, name: &'static str, v: f64) {
        self.samples.entry(name).or_default().push(v);
    }

    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_default() += v;
    }

    pub fn sum(&self, name: &str) -> f64 {
        self.sums.get(name).copied().unwrap_or(0.0)
    }

    /// Self time of every span: its duration minus the part its children
    /// cover (children never overlap: the client is single-threaded).
    pub fn self_times_us(&self) -> Vec<f64> {
        let mut own: Vec<f64> = self.spans.iter().map(|s| s.dur_us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.dur_us;
            }
        }
        own
    }

    /// Chrome trace-event JSON of every span: complete `"X"` events, the
    /// request id and self time in `args`.
    pub fn chrome_json(&self) -> String {
        let own = self.self_times_us();
        let mut events: Vec<String> = self
            .spans
            .iter()
            .zip(own)
            .map(|(s, own_us)| {
                let cat = s.name.split('.').next().unwrap_or(s.name);
                format!(
                    "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":1,\"args\":{{\"req\":{},\"self_us\":{:.3}}}}}",
                    s.name, s.start_us, s.dur_us.max(0.0), s.req, own_us.max(0.0)
                )
            })
            .collect();
        events.push(
            "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":\"client\"}}"
                .to_string(),
        );
        format!(
            "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
            events.join(",\n")
        )
    }

    /// Time the column-level kernels of one query over the objects it
    /// scanned: grouped aggregation over the decoded key and input columns,
    /// parquet chunk decode and codec decompress. Inputs are prepared first,
    /// outside the spans (chunk bytes re-encoded with the writer's own
    /// encoding choice and codec); each span covers only a loop of calls
    /// into one kernel.
    pub fn column_kernels(
        &mut self,
        req: u64,
        parent: usize,
        objects: &[bytes::Bytes],
        table: Table,
        projection: &[usize],
        codec: CodecKind,
    ) -> Result<(), String> {
        let schema = table.schema();
        let col = |name: &str| schema.index_of(name).map_err(|e| e.to_string());
        let (keys, aggs) = table.aggregation();
        let key_cols = keys.iter().map(|k| col(k)).collect::<Result<Vec<_>, _>>()?;
        let arg_cols = aggs
            .iter()
            .map(|(_, a)| a.map(col).transpose())
            .collect::<Result<Vec<_>, _>>()?;
        let agg_types: Vec<_> = aggs
            .iter()
            .zip(&arg_cols)
            .map(|((f, _), c)| (*f, c.map(|c| schema.fields()[c].data_type)))
            .collect();
        let key_types = key_cols
            .iter()
            .map(|&c| schema.fields()[c].data_type)
            .collect::<Vec<_>>();

        // Per row group: (object, key arrays, argument arrays); per chunk:
        // (encoded bytes, encoding, rows, compressed bytes).
        let mut groups = Vec::new();
        let mut chunks = Vec::new();
        for (o, bytes) in objects.iter().enumerate() {
            let reader = ParqReader::open(bytes.clone()).map_err(|e| e.to_string())?;
            for rg in 0..reader.num_row_groups() {
                let read = |c: usize| reader.read_chunk(rg, c).map_err(|e| e.to_string());
                let key_arrays = key_cols
                    .iter()
                    .map(|&c| read(c))
                    .collect::<Result<Vec<_>, _>>()?;
                let arg_arrays = arg_cols
                    .iter()
                    .map(|c| c.map(read).transpose())
                    .collect::<Result<Vec<_>, _>>()?;
                groups.push((o, key_arrays, arg_arrays));
                for &c in projection {
                    let array = read(c)?;
                    let encoding = choose_encoding(&array);
                    let raw = encode_chunk(&array, encoding).map_err(|e| e.to_string())?;
                    let packed = (codec != CodecKind::None).then(|| lzcodec::compress(codec, &raw));
                    chunks.push((raw, encoding, array.len(), packed));
                }
            }
        }

        let mut aggregators = (0..objects.len())
            .map(|_| GroupedAggregator::new(key_types.clone(), &agg_types))
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| e.to_string())?;
        let rows: usize = groups
            .iter()
            .map(|(_, k, _)| k.first().map_or(0, Array::len))
            .sum();
        let (updated, s) = self.time(req, "columnar.groupby_update", Some(parent), || {
            for (o, key_arrays, arg_arrays) in &groups {
                let n = key_arrays.first().map_or(0, Array::len);
                let key_refs: Vec<&Array> = key_arrays.iter().collect();
                let arg_refs: Vec<Option<&Array>> = arg_arrays.iter().map(Option::as_ref).collect();
                aggregators[*o].update(&key_refs, &arg_refs, n)?;
            }
            Ok::<_, columnar::ColumnarError>(())
        });
        updated.map_err(|e| e.to_string())?;
        self.add("groupby_s", s);
        self.add("groupby_rows", rows as f64);

        let (decoded, s) = self.time(req, "parq.decode_chunk", Some(parent), || {
            chunks
                .iter()
                .map(|(raw, encoding, _, _)| decode_chunk(raw, *encoding).map(|a| a.len()))
                .collect::<Result<Vec<_>, _>>()
        });
        let lens = decoded.map_err(|e| e.to_string())?;
        if lens.iter().zip(&chunks).any(|(n, c)| *n != c.2) {
            return Err("decode_chunk changed a chunk's row count".into());
        }
        self.add("parq_decode_s", s);
        self.add(
            "parq_decode_bytes",
            chunks.iter().map(|c| c.0.len()).sum::<usize>() as f64,
        );

        if codec != CodecKind::None {
            let (unpacked, s) = self.time(req, "lzcodec.decompress", Some(parent), || {
                chunks
                    .iter()
                    .filter_map(|(_, _, _, packed)| packed.as_ref())
                    .map(|p| lzcodec::decompress(codec, p).map(|v| v.len()))
                    .collect::<Result<Vec<_>, _>>()
            });
            let lens = unpacked.map_err(|e| e.to_string())?;
            if lens.iter().zip(&chunks).any(|(n, c)| *n != c.0.len()) {
                return Err("decompress changed a chunk's length".into());
            }
            self.add("lz_decompress_s", s);
            self.add("lz_decompress_bytes", lens.iter().sum::<usize>() as f64);
        }
        Ok(())
    }

    /// Time the wire framing of `batches`: encode every batch into a frame,
    /// then decode the frames back through one `FrameDecoder`.
    pub fn ipc_round_trip(
        &mut self,
        req: u64,
        parent: usize,
        batches: &[RecordBatch],
    ) -> Result<(), String> {
        let (frames, s) = self.time(req, "columnar.ipc_encode_batch_frame", Some(parent), || {
            batches.iter().map(encode_batch_frame).collect::<Vec<_>>()
        });
        self.add("ipc_encode_s", s);
        let bytes: usize = frames.iter().map(|f| f.len()).sum();
        let (decoded, s) = self.time(req, "columnar.ipc_frame_decode", Some(parent), || {
            let mut dec = FrameDecoder::new();
            let mut rows = Vec::with_capacity(frames.len());
            for f in &frames {
                dec.feed(f);
                match dec.next_frame()? {
                    Some(columnar::ipc::Frame::Batch(b)) => rows.push(b.num_rows()),
                    _ => rows.push(usize::MAX),
                }
            }
            Ok::<_, columnar::ColumnarError>(rows)
        });
        self.add("ipc_decode_s", s);
        let rows = decoded.map_err(|e| e.to_string())?;
        if rows.iter().zip(batches).any(|(n, b)| *n != b.num_rows()) {
            return Err("a frame did not decode back to its batch".into());
        }
        self.add("ipc_bytes", bytes as f64);
        self.sample("columnar.ipc_mb_per_query", bytes as f64 / 1e6);
        Ok(())
    }
}
