package main

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"snapdyn/internal/edge"
)

// ingestMode is how a workload's single ingest connection is driven.
type ingestMode int

const (
	// ingestScheduled sends a few batches at fixed fractions of the
	// window: deterministic cache-generation retirements.
	ingestScheduled ingestMode = iota
	// ingestPaced sends one batch every pacedPeriod whether or not the
	// previous one was acknowledged in time; ack latency counts from
	// the due time.
	ingestPaced
	// ingestClosed sends the next batch when the previous one is
	// acknowledged: ingest capacity.
	ingestClosed
)

const pacedPeriod = 125 * time.Millisecond

// workloadDef is one traffic mix and the server configuration it runs
// against.
type workloadDef struct {
	name   string
	why    string
	shards int
	wal    bool
	// zipfS and hotPool shape the source popularity: hotPool > 0 draws
	// sources from that many giant-component vertices, 0 from all of
	// them.
	zipfS   float64
	hotPool int
	// pairTargets > 0 draws the second operand of connected queries
	// from that many of the pool's first entries. Pairs over the whole
	// hot pool are 1024 keys with a Zipf-squared tail that never stops
	// missing; read-hot keeps its key space small enough to stay warm.
	pairTargets int
	ingest      ingestMode
	batch       int
	// prober turns query connection 0 into the read-your-writes
	// prober: ack -> connected?minEpoch on the inserted edge -> 20
	// queries.
	prober bool
}

var workloads = []workloadDef{
	{name: "read-hot",
		why:   "Zipf 1.2 over 32 sources fits the result cache: hit path and HTTP framing do the work, kernels little",
		zipfS: 1.2, hotPool: 32, pairTargets: 4, ingest: ingestScheduled, batch: 512},
	{name: "read-cold",
		why:    "uniform sources overflow the cache under paced churn: kernels, scratch pool, refresh and eviction do the work",
		ingest: ingestPaced, batch: 512},
	{name: "ingest-durable",
		why:    "closed-loop 1024-update batches through batcher, WAL fsync and gate beside reads; kill -9 and recover after",
		wal:    true,
		ingest: ingestClosed, batch: 1024, prober: true},
	{name: "fleet-mixed",
		why:    "read-cold's load through the 2-shard scatter-gather fleet: the difference is the fleet's cost",
		shards: 2, ingest: ingestPaced, batch: 512},
}

// pool is the set of vertices the workload's queries draw operands
// from: the seeded hot pool, or the whole giant component.
func (def *workloadDef) pool(in *graphInput, seed uint64) []uint32 {
	if def.hotPool > 0 {
		return in.hotPool(def.hotPool, seed)
	}
	return in.giant
}

func allWorkloads() []*workloadDef {
	defs := make([]*workloadDef, len(workloads))
	for i := range workloads {
		defs[i] = &workloads[i]
	}
	return defs
}

func lookupWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Cache dispositions as recorded per reply.
const (
	cacheBypass = iota
	cacheHit
	cacheMiss
	cacheLive
)

// rec is one completed operation that started inside the window.
type rec struct {
	at   float64 // seconds since window start
	ms   float64 // latency
	kind uint8
	disp uint8
	code int // HTTP status; 0 for a transport error
}

// ackNote is what the ingest connection tells the prober about its
// most recent acknowledged batch.
type ackNote struct {
	epoch uint64
	probe edge.Edge
	sent  time.Time
}

// driveResult is everything one measured window produced.
type driveResult struct {
	window  time.Duration
	queries []rec
	acks    []rec // latency of POST /ingest, from due or send time
	lateMs  []float64
	visible []float64 // ms, batch send -> minEpoch probe reply
	batches [][]edge.Update
	updates int // acknowledged inside the window
	// probesSent counts minEpoch probes, part of attempted.
	probesSent int
	failLog
}

// failLog counts failed operations and keeps the first few messages.
type failLog struct {
	failed   int
	failures []string
}

// keptFailures is how many failure messages a run keeps.
const keptFailures = 20

func (f *failLog) failf(format string, args ...any) {
	f.failed++
	if len(f.failures) < keptFailures {
		f.failures = append(f.failures, fmt.Sprintf(format, args...))
	}
}

func (f *failLog) merge(o *failLog) {
	f.failed += o.failed
	room := max(0, keptFailures-len(f.failures))
	f.failures = append(f.failures, o.failures[:min(len(o.failures), room)]...)
}

// conn is one keep-alive connection's client and reusable buffers.
type conn struct {
	client *http.Client
	url    []byte
	body   bytes.Buffer
}

func newConn() *conn {
	return &conn{client: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
		Timeout:   30 * time.Second,
	}}
}

func (c *conn) close() { c.client.CloseIdleConnections() }

// get issues one GET and leaves the reply body in c.body.
func (c *conn) get(base string, path []byte) (int, error) {
	c.url = append(append(c.url[:0], base...), path...)
	resp, err := c.client.Get(string(c.url))
	if err != nil {
		return 0, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, err
	}
	return resp.StatusCode, nil
}

// envelopeFields pulls the epoch and the cache disposition out of a v1
// envelope without a JSON decode (the generator shares two cores with
// the server it measures). Both fields precede "data".
func envelopeFields(body []byte) (epoch uint64, disp uint8) {
	if i := bytes.Index(body, []byte(`"epoch":`)); i >= 0 {
		j := i + len(`"epoch":`)
		k := j
		for k < len(body) && body[k] >= '0' && body[k] <= '9' {
			k++
		}
		epoch, _ = strconv.ParseUint(string(body[j:k]), 10, 64)
	}
	if i := bytes.Index(body, []byte(`"cache":"`)); i >= 0 {
		switch body[i+len(`"cache":"`)] {
		case 'h':
			disp = cacheHit
		case 'm':
			disp = cacheMiss
		case 'l':
			disp = cacheLive
		}
	}
	return epoch, disp
}

// driver runs one workload's traffic against a server.
type driver struct {
	def    *workloadDef
	base   string
	in     *graphInput
	seed   uint64
	warmup time.Duration
	window time.Duration
	conns  int // query connections

	mu  sync.Mutex
	res driveResult
}

// queryLoop is one closed-loop query connection.
func (d *driver) queryLoop(id int, gen *queryGen, t0 time.Time, notes <-chan ackNote) {
	c := newConn()
	defer c.close()
	w0 := t0.Add(d.warmup)
	w1 := w0.Add(d.window)
	var recs []rec
	var visible []float64
	var fails failLog
	probes := 0
	var lastEpoch uint64
	var path []byte

	one := func(q query) {
		path = q.path(path[:0])
		start := time.Now()
		code, err := c.get(d.base, path)
		end := time.Now()
		if err != nil {
			code = 0
		}
		var disp uint8
		if code == http.StatusOK {
			var epoch uint64
			epoch, disp = envelopeFields(c.body.Bytes())
			if !registryMix[q.kind].live {
				if epoch < lastEpoch {
					fails.failf("conn %d: epoch went back %d -> %d on %s", id, lastEpoch, epoch, path)
				}
				lastEpoch = epoch
			}
		}
		if !start.Before(w0) && start.Before(w1) {
			if code != http.StatusOK {
				fails.failf("%s: status %d err %v", path, code, err)
			}
			recs = append(recs, rec{at: start.Sub(w0).Seconds(), ms: float64(end.Sub(start)) / 1e6,
				kind: q.kind, disp: disp, code: code})
		}
	}

	// Connection 0 also issues the scheduled whole-graph kinds.
	type slot struct {
		due  time.Time
		kind int
	}
	var sched []slot
	if id == 0 {
		for _, s := range scheduled {
			sched = append(sched, slot{w0.Add(time.Duration(s.at * float64(d.window))), kindIndex(s.kind)})
		}
	}
	next := func() query {
		if len(sched) > 0 && !time.Now().Before(sched[0].due) {
			q := query{kind: uint8(sched[0].kind)}
			sched = sched[1:]
			return q
		}
		return gen.next()
	}

	for time.Now().Before(w1) {
		if notes == nil {
			one(next())
			continue
		}
		// Prober: wait for the next acknowledged batch, read the write
		// back through minEpoch, then a burst of ordinary queries.
		var note ackNote
		select {
		case note = <-notes:
		case <-time.After(time.Until(w1)):
			continue
		}
		path = append(path[:0], "/v1/query/connected?u="...)
		path = strconv.AppendUint(path, uint64(note.probe.U), 10)
		path = append(path, "&v="...)
		path = strconv.AppendUint(path, uint64(note.probe.V), 10)
		path = append(path, "&minEpoch="...)
		path = strconv.AppendUint(path, note.epoch, 10)
		code, err := c.get(d.base, path)
		end := time.Now()
		inWindow := !note.sent.Before(w0) && note.sent.Before(w1)
		if inWindow {
			probes++
		}
		switch {
		case err != nil || code != http.StatusOK:
			if inWindow {
				fails.failf("probe %s: status %d err %v", path, code, err)
			}
		case !bytes.Contains(c.body.Bytes(), []byte(`"connected":true`)):
			if inWindow {
				fails.failf("probe %s: acked edge not visible: %s", path, c.body.String())
			}
		case inWindow:
			visible = append(visible, float64(end.Sub(note.sent))/1e6)
		}
		for i := 0; i < 20 && time.Now().Before(w1); i++ {
			one(next())
		}
	}

	d.mu.Lock()
	d.res.queries = append(d.res.queries, recs...)
	d.res.visible = append(d.res.visible, visible...)
	d.res.probesSent += probes
	d.res.merge(&fails)
	d.mu.Unlock()
}

// ingestLoop is the single ingest connection. One connection keeps the
// acknowledged order — and so the oracle's replay — deterministic.
func (d *driver) ingestLoop(t0 time.Time, notes chan ackNote) {
	c := newConn()
	defer c.close()
	w0 := t0.Add(d.warmup)
	w1 := w0.Add(d.window)
	churn := newChurnGen(d.in.scale, d.def.batch, d.seed)
	var body bytes.Buffer
	var acks []rec
	var late []float64
	var batches [][]edge.Update
	updates := 0
	var fails failLog

	send := func(due time.Time) {
		batch := churn.next()
		encodeBatch(&body, batch)
		sent := time.Now()
		if due.IsZero() {
			due = sent
		}
		resp, err := c.client.Post(d.base+"/ingest", "application/json", bytes.NewReader(body.Bytes()))
		code := 0
		var epoch uint64
		if err == nil {
			c.body.Reset()
			c.body.ReadFrom(resp.Body)
			resp.Body.Close()
			code = resp.StatusCode
			epoch, _ = envelopeFields(c.body.Bytes())
		}
		end := time.Now()
		if code == http.StatusOK {
			// Acknowledged: part of the state the oracle replays,
			// inside the window or not.
			batches = append(batches, batch)
			if notes != nil {
				note := ackNote{epoch: epoch, probe: batch[0].Edge, sent: sent}
				select {
				case <-notes: // replace an unread note with the newer one
				default:
				}
				notes <- note
			}
		}
		if !due.Before(w0) && due.Before(w1) {
			acks = append(acks, rec{ms: float64(end.Sub(due)) / 1e6, code: code})
			late = append(late, float64(sent.Sub(due))/1e6)
			if code == http.StatusOK {
				updates += len(batch)
			} else {
				fails.failf("ingest batch %d: status %d err %v", churn.k-1, code, err)
			}
		}
	}

	switch d.def.ingest {
	case ingestScheduled:
		for _, frac := range []float64{1.0 / 6, 3.0 / 6, 5.0 / 6} {
			due := w0.Add(time.Duration(frac * float64(d.window)))
			time.Sleep(time.Until(due))
			send(due)
		}
	case ingestPaced:
		for k := 0; ; k++ {
			due := t0.Add(time.Duration(k) * pacedPeriod)
			if !due.Before(w1) {
				break
			}
			time.Sleep(time.Until(due))
			send(due)
		}
	case ingestClosed:
		for time.Now().Before(w1) {
			send(time.Time{})
		}
	}

	d.mu.Lock()
	d.res.acks, d.res.lateMs, d.res.batches, d.res.updates = acks, late, batches, updates
	d.res.merge(&fails)
	d.mu.Unlock()
}

// run drives warm-up plus the measured window and returns once every
// connection has finished its last request. atWindow is called at the
// window's start and end (the scrape points).
func (d *driver) run(atWindow func(start bool)) *driveResult {
	root := newQueryGen(d.def.pool(d.in, d.seed), d.def.pairTargets, d.def.zipfS, d.seed)
	var notes chan ackNote
	if d.def.prober {
		notes = make(chan ackNote, 1) // holds only the newest ack
	}

	t0 := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < d.conns; i++ {
		gen := *root
		gen.rank = root.rank.Split()
		gen.rng = root.rng.Split()
		var n <-chan ackNote
		if i == 0 && notes != nil {
			n = notes
		}
		wg.Add(1)
		go func() { defer wg.Done(); d.queryLoop(i, &gen, t0, n) }()
	}
	wg.Add(1)
	go func() { defer wg.Done(); d.ingestLoop(t0, notes) }()

	time.Sleep(time.Until(t0.Add(d.warmup)))
	atWindow(true)
	time.Sleep(time.Until(t0.Add(d.warmup + d.window)))
	atWindow(false)
	wg.Wait()
	d.res.window = d.window
	return &d.res
}
