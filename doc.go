// Package snapdyn is a Go reproduction of the dynamic-graph portion of
// the SNAP (Small-world Network Analysis and Partitioning) framework, as
// described in Madduri & Bader, "Compact Graph Representations and
// Parallel Connectivity Algorithms for Massive Dynamic Network Analysis"
// (IPDPS 2009).
//
// The library provides:
//
//   - Compact dynamic graph representations for small-world networks
//     under parallel streams of edge insertions and deletions: resizable
//     adjacency arrays, adjacency treaps, and the hybrid structure keyed
//     by a degree threshold (the paper's contribution; its heavy
//     vertices here live in sorted blocks of packed 8-byte tuples),
//     plus vertex/edge partitioning and batched (semi-sorted) update
//     application.
//   - One traversal substrate for every BFS-shaped kernel: a
//     visitor-hook engine (internal/traversal) that switches between
//     top-down edge-partitioned push and bottom-up pull by frontier edge
//     mass (alpha/beta heuristic), skips whole 64-vertex words of
//     finished vertices in the pull step through a visited shadow
//     bitmap, and exposes per-arc, per-level, and label-correcting
//     relaxation hooks that compile away to the plain BFS fast path when
//     unused. Serial steady-state traversals over a reused
//     Scratch/Result pair allocate nothing at all.
//   - Dynamic graph kernels, all riding that one engine: a
//     parent-pointer link-cut forest for connectivity queries
//     (internal/dynconn; spanning forests via the multi-source engine,
//     the same forest the live index keeps up to date), parallel
//     level-synchronous (temporal) BFS, early-terminating
//     st-connectivity, temporal reachability (relaxation hooks),
//     induced subgraph extraction by time interval, parallel connected
//     components with a parallel census, and the centrality indices —
//     (temporal) betweenness and stress assemble the Brandes
//     shortest-path DAG through the engine's arc hooks, closeness needs
//     only its level-count hook — so the direction-optimizing strategy
//     accelerates centrality exactly as it does BFS (BCOptions.Strategy,
//     BFSDirectionOpt).
//   - Weighted single-source shortest paths (the paper's hardest
//     future-work kernel): parallel delta-stepping straight over the
//     pinned snapshot, GAP-style: each band relaxes every arc of its
//     vertices until none re-enters it, reading the label as the
//     weight, so there is no weighted copy of the arcs and no
//     light/heavy pre-partition. A dense band batch is walked in
//     vertex id order, and a serial phase relaxes with plain stores
//     and no branch per arc. Snapshot.SSSPWith with a warm
//     SSSPScratch reuses the chosen delta, the cyclic bucket ring, the
//     dedup bitmap, and the per-worker outputs — all O(n) — so
//     steady-state repeated SSSP allocates nothing, on one snapshot or
//     across newly published ones. Dijkstra with a typed binary heap
//     (no interface boxing) remains the validation baseline
//     (Snapshot.ShortestPathsDijkstra).
//   - The facade: Snapshot.BFSWith/BFSOptions and a reusable Traverser
//     for traversals; BFSDirectionOpt requires an undirected snapshot
//     (directed snapshots demote to top-down) and is several times
//     faster than top-down on low-diameter small-world graphs. When
//     BFSOptions leaves Alpha/Beta unset, the engine derives the
//     direction-switching thresholds from the snapshot's degree skew
//     (heavier tails enter pull later and stay longer).
//   - An incremental snapshot pipeline for serving queries over a live
//     update stream: every Graph tracks its dirty vertices (one atomic
//     bit per mutated adjacency), and a SnapshotManager
//     (Graph.Manager) publishes epoch-versioned immutable snapshots
//     RCU-style — readers load the current snapshot with one atomic
//     pointer read and never block on ingest, old snapshots stay valid
//     until their last reader drops them, and Refresh rebuilds only
//     the dirty adjacencies by reusing the previous snapshot's clean
//     spans (csr.RefreshDelta: prefix sum over degree deltas + bulk
//     span copies). Beside the dirty bit the graph logs the touched
//     (u,v) keys of each refresh window (bounded; a bulk load drops
//     the log), and a dirty vertex the store keeps in keyed order — a
//     hub's sorted blocks — is patched from the read-back state of just those
//     keys instead of being walked: under R-MAT churn the dirty
//     vertices are the hubs, 6% of the vertices owning 60% of the
//     arcs, while under 1% of the arcs changed. A full rebuild takes
//     over only when nearly every arc would have to be re-enumerated
//     anyway. At R-MAT scale 16 a refresh after dirtying 0.1% of the
//     vertices runs ~9x faster than the full rebuild it replaces, and
//     at the served shape (4096 dirty vertices of hub churn) ~3x, twice
//     as fast as re-walking every dirty vertex
//     (BenchmarkSnapshotRefresh).
//   - A query-serving layer over that pipeline: the SnapshotManager's
//     background auto-refresher (StartAutoRefresh) republishes by
//     policy — when the dirty-vertex count or the snapshot age crosses
//     a threshold — serialized against gated ingest
//     (SnapshotManager.ApplyUpdates/InsertEdge/DeleteEdge) by a
//     read-write gate that readers never touch, with refresh-latency
//     and epoch-lag metrics (SnapshotManager.Metrics). The
//     internal/qserve executor pool runs BFS / SSSP / st-connectivity /
//     components / stats queries against the current snapshot with
//     per-query kernel scratch from a bounded free list (steady-state
//     queries allocate zero objects per request, asserted) and
//     queue-or-shed admission control, and cmd/snapserve exposes the
//     whole stack as an HTTP/JSON daemon with /ingest, /query/*,
//     /stats, and /healthz endpoints.
//   - A snapshot-identity result cache with singleflight coalescing
//     (internal/qcache, snapserve -cache-bytes): query replies — the
//     aggregates each reply is built from, never the kernel's
//     per-vertex output — are cached per published snapshot at a fixed
//     256-byte charge each (about budget/256 entries: 262144 at the
//     64 MiB default), and N concurrent identical queries execute one
//     kernel run. The identity-invalidation contract: the
//     cache keys its generation by the published View pointer, never
//     by the epoch number — a no-op refresh bumps the epoch but
//     republishes the identical pointer, so entries survive exactly as
//     long as the snapshot they were computed against, and a real
//     refresh retires the whole generation with its snapshot
//     (RCU-by-GC; there is no invalidation walk to get wrong). Cache
//     hits bypass kernel scratch entirely (0 allocs/op steady state,
//     asserted) and still honor minEpoch: freshness gating runs before
//     the lookup, so a hit on a stale snapshot is still refused.
//   - A registry-based query surface (internal/qserve/registry.go):
//     every query kind is one registered Spec — wire name, parameter
//     decoding, cache-key derivation, live answer, reply encoding —
//     and the HTTP route table, the one executor's generic Query flow,
//     and the cache keyspace are all derived from that catalog, so
//     adding a kind is one registration plus one kernel per backend,
//     not a stack of parallel switch statements. The executor
//     (admission, validation, quick answers, cache, live index, ingest)
//     exists once and runs over a backend that only pins snapshots and
//     runs kernels: the single snapshot manager or the shard fleet.
//     Alongside BFS/SSSP/connectivity/components, the catalog serves
//     clustering coefficients and
//     triangle counts (internal/cluster, merge-intersection over
//     dedup-sorted adjacency, float mean folded in original-id order so
//     it is bitwise-identical across layouts and shard counts), k-hop
//     neighborhood size (depth-truncated BFS), and PageRank (one
//     serial power-iteration kernel in internal/centrality for both
//     backends and every layout; sources are visited in original-id
//     order, so it too is bitwise-identical everywhere). All ride the pooled
//     scratch and cache paths at 0 allocs/op steady state, asserted.
//     GET /v1/query/<kind> wraps replies in a typed envelope
//     {kind, epoch, cache, data} with structured error codes; the flat
//     /query/<kind> routes remain as pinned aliases. Between-refresh
//     connectivity (connected?live=1, after EnableLive / snapserve
//     -live) answers from a dynamic spanning forest kept over the
//     served store itself, not a copy of it: seeded by one BFS over the
//     published snapshot, then reconciled after every commit against
//     the store's current state of each touched key (one forest for
//     the whole fleet, reading each vertex's owning shard). It proves
//     connectivity without hop counts, is never cached, and is asserted
//     to agree exactly with the next published snapshot's components
//     under randomized concurrent churn including tree-edge deletions.
//     Directed engines keep the forest over a private store. Sampled
//     betweenness runs as an offline job
//     (POST /v1/jobs/betweenness, progress polled at /v1/jobs/{id});
//     jobs waive the zero-alloc guarantee and require a resident global
//     CSR (compressed layouts fail the job, fleets answer 501).
//   - A vertex-partitioned sharding layer behind the same facade
//     (NewSharded, internal/shard): vertex u is owned by shard u % P,
//     and each of the P shard workers runs its own Tracked store +
//     snapshot manager + auto-refresher, so ingest parallelizes across
//     P independent gates instead of serializing on one RWMutex. Every
//     shard's store spans the full vertex set but holds only its owned
//     vertices' out-arcs; the union of the per-shard CSRs is exactly
//     the global graph. Queries scatter-gather over one pinned
//     snapshot per shard, bit-identical to the single-snapshot kernels:
//     BFS runs level-synchronously with a cross-shard frontier exchange
//     per level; delta-stepping SSSP and components run the single
//     kernels' own band loop (sssp.Bands) and hook-and-compress
//     labeling (cc.ComponentsOver): SSSP with one serial phase that
//     reads each vertex's arcs from its owner shard, components with a
//     per-shard hook phase; stats fan out and reduce.
//     The fleet is a backend of the same qserve executor, and
//     cmd/snapserve serves it behind -shards N with an unchanged HTTP
//     surface. SSSP reads each snapshot's arcs in place on both
//     backends, so a refresh costs the next SSSP query only the delta
//     heuristic's fixed-size sample (2^16 labels per shard). The
//     default bucket width is the mean weight over 2*sqrt(mean
//     degree).
//   - Memory-scale snapshot formats as first-class pipeline citizens
//     (Graph.ManagerWithLayout): the manager can publish plain CSR,
//     degree-/BFS-/RCM-reordered CSR (internal/reorder), or
//     gap-compressed adjacency (internal/compress, zigzag/varint delta
//     blocks the traversal engine streams through a zero-allocation
//     cursor — traversal.RunStream, 0 allocs/op serial steady state).
//     The layout contract: queries accept and report original vertex
//     ids on every layout and return results identical to the plain
//     layout — reordered snapshots carry their permutation and inverse
//     and translate at the query boundary, compressed ones stream
//     their blocks through the same engine. Reordered layouts splice
//     incremental refresh deltas through the held permutation; once
//     cumulative churn since the permutation was computed passes ~30%
//     of the vertex set (or the vertex set grows), the ordering is
//     recomputed with a full permuted rebuild. Compressed layouts
//     byte-splice dirty vertices' blocks, byte-identical to a from-
//     scratch build. Kernels with no layout-native path materialize a
//     plain original-id CSR lazily, once per snapshot. The footprint
//     per format is observable (RefreshMetrics.SnapshotBytes/Format,
//     and the /stats endpoint's sizeBytes/format fields) and
//     measured by BenchmarkCompressedBFS and BenchmarkReorderedBFS
//     (bytes per arc beside MTEPS: compressed 2.9 against plain 8.5
//     at scale 14).
//   - A durable group-commit ingest path (internal/durable =
//     internal/batcher + internal/wal), serving under snapserve
//     -wal-dir. The durability contract: a submission is acknowledged
//     only after its batch is CRC-framed, written, and fsynced to a
//     write-ahead log AND applied to the live store; the ack carries
//     the snapshot epoch guaranteed to contain the batch, and a query
//     can wait on that epoch (minEpoch) for read-your-writes. The
//     batcher coalesces concurrent submissions so one fsync covers
//     many batches (thousands of updates per fsync under load).
//     Recovery after a crash at any point — mid-record, mid-fsync,
//     mid-checkpoint — rebuilds exactly a prefix of the committed
//     sequence that includes every acknowledged batch: torn final
//     records are truncated, corrupt middle records refuse to load,
//     and epochs re-base above anything acknowledged pre-crash.
//     Periodic CSR checkpoints (graphio binary format, written to a
//     temp file and atomically renamed) bound replay and prune covered
//     segments; checkpointing is an optimization, never a correctness
//     requirement. Sharded deployments run one WAL per shard with
//     scattered group commits and a joined ack. All of it is proven by
//     fault-injected randomized kill-and-recover tests (short writes,
//     disk full, fsync failure, crash hooks pinned at every commit
//     stage) comparing recovered state arc-for-arc to a never-crashed
//     oracle.
//   - The R-MAT generator and update-stream tooling used by the paper's
//     evaluation, one benchmark driver per paper figure, a unified
//     kernel sweep (cmd/snapbench -fig kernel
//     -kernel=bfs|bc|closeness|sssp) whose -bfs engine choice applies
//     to every BFS-shaped kernel and whose -deltas flag sweeps the
//     delta-stepping bucket width. The serving system itself is
//     measured end to end and layer by layer by the benchmark/ harness
//     (bash benchmark/run.sh), not by cmd/snapbench.
//
// # Quick start
//
//	g := snapdyn.New(1<<20, snapdyn.WithExpectedEdges(10<<20))
//	g.InsertEdge(1, 2, 100)   // edge 1->2 at time 100
//	g.DeleteEdge(1, 2)
//	snap := g.Snapshot(0)     // CSR snapshot with all workers
//	conn := snap.Connectivity(0)
//	ok := conn.Connected(1, 2)
//
// Vertex ids are uint32 values in [0, NumVertices); time labels are
// application-defined uint32 values (Kempe-style time labels).
//
// Concurrency: Graph mutation methods are safe for concurrent use.
// Snapshots are immutable and safe for concurrent queries. A
// Connectivity index supports concurrent queries; its structural updates
// (Link/Cut) require external serialization against queries. A
// SnapshotManager's Current/Epoch/Staleness/Metrics may be called from
// any goroutine at any time; Refresh calls serialize among themselves
// and must not overlap graph mutations (apply a batch, then refresh —
// readers keep querying throughout). While the background
// auto-refresher runs (StartAutoRefresh), route mutations through the
// manager's gated ingest methods (ApplyUpdates, InsertEdge,
// DeleteEdge) — any number of them proceed concurrently, and the gate
// serializes them against background refreshes without ever blocking
// readers.
//
// A ShardedGraph carries the same contracts per shard: per-shard epochs
// are independently monotone (the facade's Epoch is their sum), gated
// ingest routes every update through its owning shard's gate, and a
// query pins one snapshot per shard for its whole lifetime — per-shard
// reads are mutually consistent, but two shards may expose different
// ingest prefixes, exactly as a single-store reader may hold a snapshot
// older than the newest batch.
package snapdyn
