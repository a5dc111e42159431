package main

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"snapdyn/internal/qserve"
)

// TestServiceSmoke is the race-mode service smoke: bring snapserve's
// stack up on a small R-MAT graph, drive concurrent /ingest and
// /query/bfs traffic, and assert every request returns 200 while
// /healthz reports monotonically non-decreasing epochs that actually
// advance (the background auto-refresher is doing the publishing — no
// explicit refresh call anywhere in this test). Run under -race in CI.
func TestServiceSmoke(t *testing.T) { runServiceSmoke(t, 1) }

// TestServiceSmokeSharded is the same smoke over the scatter-gather
// fleet engine: identical HTTP surface, -shards 4 underneath.
func TestServiceSmokeSharded(t *testing.T) { runServiceSmoke(t, 4) }

func runServiceSmoke(t *testing.T, shards int) {
	svc, err := buildStack(config{
		scale:        9,
		edgeFactor:   8,
		timeMax:      50,
		seed:         42,
		undirected:   true,
		workers:      2,
		shards:       shards,
		queryWorkers: 1,
		maxQueries:   4,
		maxQueue:     1 << 20, // never shed: the smoke asserts all-200s
		refreshDirty: 64,
		refreshAge:   5 * time.Millisecond,
		refreshPoll:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.close()

	ts := httptest.NewServer(svc.srv.Handler())
	defer ts.Close()

	get := func(path string) (int, []byte) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, body
	}

	health := func() qserve.Health {
		code, body := get("/healthz")
		if code != http.StatusOK {
			t.Fatalf("/healthz = %d: %s", code, body)
		}
		var h qserve.Health
		if err := json.Unmarshal(body, &h); err != nil {
			t.Fatalf("bad /healthz body %q: %v", body, err)
		}
		return h
	}

	startEpoch := health().Epoch
	if startEpoch == 0 {
		t.Fatal("initial epoch = 0, want >= 1")
	}

	const (
		ingesters = 2
		queriers  = 3
		rounds    = 25
	)
	var wg sync.WaitGroup
	errs := make(chan error, ingesters+queriers+1)

	for in := 0; in < ingesters; in++ {
		wg.Add(1)
		go func(in int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				var b strings.Builder
				b.WriteByte('[')
				for i := 0; i < 20; i++ {
					if i > 0 {
						b.WriteByte(',')
					}
					u := (in*7919 + r*131 + i*17) % 512
					v := (u + 1 + i) % 512
					fmt.Fprintf(&b, `{"u":%d,"v":%d,"t":%d}`, u, v, r+1)
				}
				b.WriteByte(']')
				resp, err := http.Post(ts.URL+"/ingest", "application/json", strings.NewReader(b.String()))
				if err != nil {
					errs <- fmt.Errorf("ingest: %w", err)
					return
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("ingest status %d: %s", resp.StatusCode, body)
					return
				}
			}
		}(in)
	}

	stop := make(chan struct{})
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			src := uint32(q)
			for {
				select {
				case <-stop:
					return
				default:
				}
				code, body := get(fmt.Sprintf("/query/bfs?src=%d", src%512))
				if code != http.StatusOK {
					errs <- fmt.Errorf("bfs status %d: %s", code, body)
					return
				}
				var reply qserve.BFSReply
				if err := json.Unmarshal(body, &reply); err != nil {
					errs <- fmt.Errorf("bad bfs body %q: %w", body, err)
					return
				}
				if reply.Epoch < startEpoch {
					errs <- fmt.Errorf("bfs epoch %d below start %d", reply.Epoch, startEpoch)
					return
				}
				src = src*1664525 + 1013904223
			}
		}(q)
	}

	// Epoch monotonicity watcher over /healthz while traffic flows.
	wg.Add(1)
	go func() {
		defer wg.Done()
		last := startEpoch
		for {
			select {
			case <-stop:
				return
			default:
			}
			h := health()
			if h.Epoch < last {
				errs <- fmt.Errorf("epoch regressed %d -> %d", last, h.Epoch)
				return
			}
			last = h.Epoch
			time.Sleep(time.Millisecond)
		}
	}()

	// Wait for ingesters to finish, then let the refresher drain.
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// Ingesters are the first `ingesters` members of the group; give
	// the whole run a bounded window.
	deadline := time.After(60 * time.Second)
	for {
		h := health()
		if h.Refreshes > 0 && h.Epoch > startEpoch && h.Staleness == 0 {
			break
		}
		select {
		case err := <-errs:
			t.Fatal(err)
		case <-deadline:
			t.Fatalf("service did not settle: %+v", h)
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(stop)
	<-done
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	final := health()
	if final.Epoch <= startEpoch {
		t.Fatalf("epoch did not advance: start %d, final %d", startEpoch, final.Epoch)
	}
	if final.AutoRefreshes == 0 {
		t.Fatalf("auto-refresher never fired: %+v", final)
	}
	if final.Counters.Served == 0 {
		t.Fatalf("no queries served: %+v", final)
	}

	// The published snapshot reflects the ingested updates: stats sees
	// more arcs than the seed graph.
	code, body := get("/stats")
	if code != http.StatusOK {
		t.Fatalf("/stats = %d", code)
	}
	var st qserve.StatsReply
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Epoch != final.Epoch && st.Epoch < startEpoch {
		t.Fatalf("stats epoch %d inconsistent (healthz %d)", st.Epoch, final.Epoch)
	}

	// Bad requests keep clean status codes.
	if code, _ := get("/query/bfs?src=notanumber"); code != http.StatusBadRequest {
		t.Fatalf("bad src = %d, want 400", code)
	}
	if code, _ := get("/query/bfs?src=99999999"); code != http.StatusBadRequest {
		t.Fatalf("out-of-range src = %d, want 400", code)
	}
	// Out-of-range ingest endpoints must be rejected before they reach
	// the store (a bad index would corrupt the shared structure).
	resp, err := http.Post(ts.URL+"/ingest", "application/json",
		strings.NewReader(`[{"u":4000000000,"v":0,"t":1}]`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range ingest = %d, want 400", resp.StatusCode)
	}
	if h := health(); h.Epoch < final.Epoch || h.Status != "ok" {
		t.Fatalf("service unhealthy after rejected ingest: %+v", h)
	}
}

// TestDurableServiceRestart brings the daemon stack up with a WAL,
// ingests over HTTP with the read-your-writes handshake (ack epoch ->
// minEpoch), shuts down cleanly, and restarts from the same directory:
// the ingested arcs must survive and epochs must stay monotone across
// the restart.
func TestDurableServiceRestart(t *testing.T)        { runDurableRestart(t, 1) }
func TestDurableServiceRestartSharded(t *testing.T) { runDurableRestart(t, 3) }

func runDurableRestart(t *testing.T, shards int) {
	dir := t.TempDir()
	graph := dir + "/g.txt"
	// Two disconnected undirected edges: 0-1 and 2-3. The ingested arc
	// 1-2 is the bridge whose survival the restart must prove.
	if err := os.WriteFile(graph, []byte("0 1 1\n2 3 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := config{
		graphPath:    graph,
		undirected:   true,
		workers:      2,
		shards:       shards,
		queryWorkers: 1,
		maxQueries:   2,
		maxQueue:     1 << 10,
		refreshDirty: 1,
		refreshAge:   time.Millisecond,
		refreshPoll:  time.Millisecond,
		walDir:       dir + "/wal",
	}

	svc, err := buildStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if svc.recovery != "" {
		t.Fatalf("fresh directory reported recovery: %q", svc.recovery)
	}
	ts := httptest.NewServer(svc.srv.Handler())

	post := func(body string) qserve.IngestReply {
		t.Helper()
		resp, err := http.Post(ts.URL+"/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest = %d: %s", resp.StatusCode, raw)
		}
		var rep qserve.IngestReply
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	connected := func(q string) (int, qserve.ConnReply) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/query/connected?u=0&v=3" + q)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		var rep qserve.ConnReply
		json.Unmarshal(raw, &rep)
		return resp.StatusCode, rep
	}

	rep := post(`[{"u":1,"v":2,"t":9}]`)
	if rep.Epoch == 0 {
		t.Fatal("durable ingest acked epoch 0")
	}
	// Read your writes: minEpoch = ack epoch. The single-store wait is
	// precise; the fleet sum-epoch wait is coarse, so poll there.
	code, conn := connected(fmt.Sprintf("&minEpoch=%d", rep.Epoch))
	if code != http.StatusOK {
		t.Fatalf("connected with minEpoch = %d", code)
	}
	if shards == 1 && !conn.Connected {
		t.Fatal("acked bridge arc not visible at ack epoch")
	}
	deadline := time.Now().Add(10 * time.Second)
	for !conn.Connected {
		if time.Now().After(deadline) {
			t.Fatal("acked bridge arc never became visible")
		}
		time.Sleep(2 * time.Millisecond)
		_, conn = connected("")
	}

	// A hopeless minEpoch fails fast with 503, not a hang.
	svc.srv.SetStaleWait(30 * time.Millisecond)
	if code, _ := connected("&minEpoch=999999999"); code != http.StatusServiceUnavailable {
		t.Fatalf("unreachable minEpoch = %d, want 503", code)
	}

	ts.Close()
	if err := svc.close(); err != nil {
		t.Fatalf("clean shutdown: %v", err)
	}

	// Restart from the same directory: recovery must report, the bridge
	// must still be there, and a new ack must land above the old one.
	svc2, err := buildStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer svc2.close()
	if svc2.recovery == "" {
		t.Fatal("restart from a populated WAL directory reported no recovery")
	}
	// post/connected capture ts by reference, so they now hit svc2.
	ts = httptest.NewServer(svc2.srv.Handler())
	defer ts.Close()

	if code, conn := connected(""); code != http.StatusOK || !conn.Connected {
		t.Fatalf("bridge arc lost across restart: code %d, %+v", code, conn)
	}
	rep2 := post(`[{"u":0,"v":2,"t":11}]`)
	if rep2.Epoch <= rep.Epoch {
		t.Fatalf("ack epoch regressed across restart: %d then %d", rep.Epoch, rep2.Epoch)
	}
}

// TestBuildServiceFromFile exercises the -graph loading path.
func TestBuildServiceFromFile(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/g.txt"
	data := "0 1 5\n1 2 6\n2 3 7\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	svc, err := buildStack(config{
		graphPath:    path,
		undirected:   true,
		workers:      1,
		queryWorkers: 1,
		refreshPoll:  time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.close()
	st := svc.ex.Stats()
	if st.Vertices != 4 || st.Arcs != 6 {
		t.Fatalf("loaded stats = %+v, want 4 vertices / 6 arcs", st)
	}
	reply, err := svc.ex.BFS(0)
	if err != nil {
		t.Fatal(err)
	}
	if reply.Reached != 4 {
		t.Fatalf("BFS reached %d, want 4", reply.Reached)
	}
}
