package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"

	"snapdyn/internal/edge"
	"snapdyn/internal/qserve"
)

// Replay limits: the first replayOps operations of the workload, or as
// many of them as fit in replayBudget per pass.
const (
	replayOps    = 2000
	replayBudget = 3 * time.Second
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent indexes the span that caused this one (-1 for a
// request's root). Times are nanoseconds since the trace began.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	// Class is the cache disposition of an engine.Query span.
	Class string `json:"class,omitempty"`
}

// tracer keeps spans in memory. The replay is sequential, so the
// innermost open span is simply the top of a stack.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int
	req   int
}

func (t *tracer) begin(name string) int {
	parent := -1
	if len(t.open) > 0 {
		parent = t.open[len(t.open)-1]
	} else {
		t.req++
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, Req: t.req})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].End = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// tracedEngine records a span around every call the HTTP layer makes
// into the engine.
type tracedEngine struct {
	qserve.Engine
	tr *tracer
}

func (e *tracedEngine) Query(sp *qserve.Spec, a qserve.Args) (qserve.Result, error) {
	id := e.tr.begin("engine.Query")
	r, err := e.Engine.Query(sp, a)
	e.tr.spans[id].Class = r.Cache.String()
	e.tr.end(id)
	return r, err
}

func (e *tracedEngine) Ingest(workers int, batch []edge.Update) (uint64, error) {
	id := e.tr.begin("engine.Ingest")
	defer e.tr.end(id)
	return e.Engine.Ingest(workers, batch)
}

func (e *tracedEngine) WaitEpoch(min uint64, timeout time.Duration) (uint64, error) {
	id := e.tr.begin("engine.WaitEpoch")
	defer e.tr.end(id)
	return e.Engine.WaitEpoch(min, timeout)
}

// replayOp is one operation of a workload's replayed prefix.
type replayOp struct {
	batch []edge.Update // an ingest, when non-nil
	probe bool          // connected?minEpoch on the last ingest's first edge
	q     query
}

// replayList is the deterministic prefix of a workload's op stream that
// the traced mode replays: the same generators as the live run, with
// the ingest interleaved at the workload's nominal ratio instead of by
// the clock.
func replayList(def *workloadDef, in *graphInput, seed uint64) []replayOp {
	gen := newQueryGen(def.pool(in, seed), def.pairTargets, def.zipfS, seed)
	churn := newChurnGen(in.scale, def.batch, seed)
	ops := make([]replayOp, 0, replayOps)
	sched := map[int]int{}
	for _, s := range scheduled {
		sched[int(s.at*replayOps)] = kindIndex(s.kind)
	}
	for len(ops) < replayOps {
		i := len(ops)
		switch {
		case def.ingest == ingestScheduled && (i == replayOps/6 || i == replayOps/2 || i == 5*replayOps/6),
			def.ingest == ingestPaced && i%32 == 0:
			ops = append(ops, replayOp{batch: churn.next()})
		case def.ingest == ingestClosed && i%25 < 4:
			// The closed-loop cycle: a few batches (enough to cross the
			// dirty threshold, as the live run's back-to-back ingest
			// does), the read-your-writes probe, then ordinary queries.
			ops = append(ops, replayOp{batch: churn.next()})
		case def.ingest == ingestClosed && i%25 == 4:
			ops = append(ops, replayOp{probe: true})
		default:
			if kind, ok := sched[i]; ok {
				ops = append(ops, replayOp{q: query{kind: uint8(kind)}})
			} else {
				ops = append(ops, replayOp{q: gen.next()})
			}
		}
	}
	return ops
}

// replay runs ops through the handler in order, stopping early at the
// budget, and returns how many ran and how long they took.
func replay(h http.Handler, ops []replayOp, limit int, budget time.Duration) (int, time.Duration, error) {
	var body bytes.Buffer
	var path []byte
	var epoch uint64
	var probeEdge edge.Edge
	start := time.Now()
	for i, op := range ops {
		if i >= limit || (budget > 0 && time.Since(start) > budget) {
			return i, time.Since(start), nil
		}
		var req *http.Request
		switch {
		case op.batch != nil:
			encodeBatch(&body, op.batch)
			req = httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body.Bytes()))
			probeEdge = op.batch[0].Edge
		case op.probe:
			path = append(path[:0], "/v1/query/connected?u="...)
			path = strconv.AppendUint(path, uint64(probeEdge.U), 10)
			path = append(path, "&v="...)
			path = strconv.AppendUint(path, uint64(probeEdge.V), 10)
			path = append(path, "&minEpoch="...)
			path = strconv.AppendUint(path, epoch, 10)
			req = httptest.NewRequest(http.MethodGet, string(path), nil)
		default:
			path = op.q.path(path[:0])
			req = httptest.NewRequest(http.MethodGet, string(path), nil)
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		if rr.Code != http.StatusOK {
			return i, time.Since(start), fmt.Errorf("replayed op %d (%s %s): status %d", i, req.Method, req.URL, rr.Code)
		}
		if op.batch != nil {
			epoch, _ = envelopeFields(rr.Body.Bytes())
		}
	}
	return min(limit, len(ops)), time.Since(start), nil
}

// spanFile is benchmark/out/trace-<workload>.json.
type spanFile struct {
	Workload string `json:"workload"`
	Ops      int    `json:"ops"`
	Spans    []span `json:"spans"`
}

// runSpans replays the workload's prefix twice against in-process
// stacks assembled like snapserve's — once bare, once with a span
// around the request and around every engine call beneath it — and
// adds the metrics only an in-process stack can give: the durable
// path's batcher and WAL counters, GC activity, and what tracing cost.
func runSpans(def *workloadDef, in *graphInput, seed uint64, tmp, outDir string, res *workloadResult, w io.Writer) error {
	ops := replayList(def, in, seed)
	build := func(tag string) (*stack, error) {
		cfg := stackConfig{shards: def.shards, cacheBytes: defaultCacheBytes, refresher: true}
		if def.wal {
			cfg.walDir = filepath.Join(tmp, def.name+"-replay-"+tag)
		}
		return buildStack(in, cfg)
	}

	bare, err := build("bare")
	if err != nil {
		return err
	}
	n, bareTime, err := replay(bare.srv.Handler(), ops, len(ops), replayBudget)
	bare.stop()
	if err != nil {
		return err
	}

	st, err := build("traced")
	if err != nil {
		return err
	}
	defer st.stop()
	tr := &tracer{t0: time.Now()}
	if st.durable != nil {
		d := st.durable
		st.single.SetIngest(func(batch []edge.Update) (uint64, error) {
			id := tr.begin("durable.Ingest")
			defer tr.end(id)
			return d.Ingest(batch)
		})
	}
	inner := qserve.NewServer(&tracedEngine{Engine: st.eng, tr: tr}, true, 0).Handler()
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := tr.begin("http.request")
		inner.ServeHTTP(w, r)
		tr.end(id)
	})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, tracedTime, err := replay(handler, ops, n, 0)
	runtime.ReadMemStats(&after)
	if err != nil {
		return err
	}

	p := res.PerLayer
	p["runtime.num_gc"] = metric{Value: float64(after.NumGC - before.NumGC), Unit: "count"}
	p["runtime.gc_pause_ms"] = metric{Value: float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6, Unit: "ms"}
	p["trace.overhead_pct"] = metric{Value: 100 * (tracedTime.Seconds() - bareTime.Seconds()) / bareTime.Seconds(), Unit: "%", N: n}
	var flushes, submitted, appends, appended float64
	if st.durable != nil {
		bm, wm := st.durable.Batcher().Metrics(), st.durable.Log().Metrics()
		flushes, submitted = float64(bm.Flushes), float64(bm.Submitted)
		appends, appended = float64(wm.Appends), float64(wm.AppendedUpdates)
	}
	p["batcher.flushes"] = metric{Value: flushes, Unit: "count"}
	p["batcher.group_size"] = metric{Value: submitted / max(1, flushes), Unit: "count"}
	p["wal.appends"] = metric{Value: appends, Unit: "count"}
	p["wal.updates_per_fsync"] = metric{Value: appended / max(1, appends), Unit: "count"}

	printSpans(w, tr.spans, def.name, n)
	return writeJSON(filepath.Join(outDir, "trace-"+def.name+".json"),
		spanFile{Workload: def.name, Ops: n, Spans: tr.spans})
}

// printSpans prints, per span name and class, the count and the self
// time: the span's duration minus what its child spans cover.
func printSpans(w io.Writer, spans []span, workload string, ops int) {
	child := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string][]float64{}
	for i, s := range spans {
		key := s.Name
		if s.Class != "" {
			key += "[" + s.Class + "]"
		}
		self[key] = append(self[key], float64(s.End-s.Start-child[i])/1e3)
	}
	keys := make([]string, 0, len(self))
	for k := range self {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "   spans of the first %d ops of %s (self time = duration - children)\n", ops, workload)
	fmt.Fprintf(w, "   %-28s %8s %12s %12s\n", "span", "count", "self p50 us", "self sum ms")
	for _, k := range keys {
		v := self[k]
		sort.Float64s(v)
		sum := 0.0
		for _, x := range v {
			sum += x
		}
		fmt.Fprintf(w, "   %-28s %8d %12.1f %12.2f\n", k, len(v), percentile(v, 50), sum/1e3)
	}
}
