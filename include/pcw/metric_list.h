// pcw public API — the one declaration of every process-wide metric.
//
// PCW_METRICS(COUNTER, GAUGE, HISTOGRAM) expands to one entry per metric,
// in registry order. Everything else is generated from it: the
// util::metrics::Registry members, the pcw::Telemetry fields,
// metrics_reset(), metrics_snapshot(), the handles' telemetry() deltas,
// the telemetry_items() rows (pcwd STATS, the CLIs' --stats), and the
// table that tools/check_docs.py holds docs/observability.md to.
//
//   COUNTER(member, doc)
//       A monotone count: one reading named `member`. Handle deltas
//       subtract it.
//   GAUGE(member, value_name, hiwater_name, doc)
//       A level and its high-water mark: two readings. They pass through
//       handle deltas as the current process-wide values.
//   HISTOGRAM(member, p50_name, p99_name, doc)
//       Log2-bucketed samples, read as the upper bounds of the buckets
//       holding the median and the 99th percentile: two readings. They
//       pass through handle deltas.
//
// Adding a metric is one line here, in any group, plus its row in
// docs/observability.md; its instrumentation site then calls
// util::metrics::Registry::get().member.add(...) (or .record(...)).
// Existing lines keep their names and relative order: pcwd STATS, the
// CLIs' --stats and the benchmark harness read the rows.
#pragma once

#define PCW_METRICS(COUNTER, GAUGE, HISTOGRAM)                                       \
  /* sz codec pipeline */                                                          \
  COUNTER(sz_bytes_in, "raw bytes entering compress()")                            \
  COUNTER(sz_bytes_out, "container bytes leaving compress()")                      \
  COUNTER(sz_blocks_encoded, "blocks quantized and entropy-coded")                 \
  COUNTER(sz_blocks_decoded, "blocks entropy-decoded (full or region reads)")      \
  COUNTER(sz_temporal_blocks, "encoded blocks that chose the temporal predictor")  \
  COUNTER(sz_outliers, "unpredictable values stored verbatim")                     \
  COUNTER(sz_huffman_symbols, "symbols through the Huffman tables")                \
  /* h5 I/O and the async queue */                                                 \
  COUNTER(io_writes, "positioned writes to a container file")                      \
  COUNTER(io_write_bytes, "bytes those writes carried")                            \
  COUNTER(io_reads, "positioned reads from a container file")                      \
  COUNTER(io_read_bytes, "bytes those reads carried")                              \
  COUNTER(io_syncs, "fsync calls")                                                 \
  COUNTER(io_write_retries, "transient-failure retries on the async queue")        \
  COUNTER(io_async_enqueues, "async_write and async_read submissions")             \
  GAUGE(io_queue_depth, io_queue_depth, io_queue_hiwater,                          \
        "in-flight async I/O operations, and their peak")                          \
  HISTOGRAM(io_write_ns, io_write_p50_ns, io_write_p99_ns,                         \
            "per-write latency in ns (log2-bucket upper bound)")                   \
  /* fault injection (PCW_FAULT): ops observed while a plan was armed */           \
  COUNTER(fault_writes, "writes observed while a fault plan was armed")            \
  COUNTER(fault_reads, "reads observed while a fault plan was armed")              \
  COUNTER(fault_syncs, "syncs observed while a fault plan was armed")              \
  COUNTER(fault_fired, "fault plans that actually fired")                          \
  /* engines */                                                                    \
  COUNTER(engine_writes, "write_fields calls")                                     \
  COUNTER(series_steps, "SeriesWriter steps, per rank")                            \
  COUNTER(chain_links_decoded, "restart-chain links decoded")                      \
  COUNTER(degraded_reads, "keyframe fallbacks taken")                              \
  /* checkpoint-store service (pcwd) */                                            \
  COUNTER(store_requests, "protocol requests served")                              \
  COUNTER(store_cache_hits, "decoded-block cache hits")                            \
  COUNTER(store_cache_misses, "cache misses that became decodes (flight leaders)") \
  COUNTER(store_cache_evictions, "cache entries evicted under the byte budget")    \
  COUNTER(store_coalesced, "readers that joined an in-flight decode")              \
  COUNTER(store_write_batches, "group commits admitting at least one WRITE_STEP")  \
  GAUGE(store_cache_bytes, store_cache_bytes, store_cache_hiwater,                 \
        "bytes resident in the decoded-block cache, and their peak")               \
  GAUGE(store_active_clients, store_active_clients, store_clients_hiwater,         \
        "connected clients, and their peak")
