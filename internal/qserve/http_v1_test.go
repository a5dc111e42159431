package qserve

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"

	"snapdyn/internal/snapmgr"
)

func getJSON(t *testing.T, ts *httptest.Server, path string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, body
}

// TestV1EnvelopeMatchesLegacy pins the aliasing contract: for every
// registered kind, the legacy flat route and the /v1 envelope route
// decode, dispatch, and encode identically — the envelope's data field
// is byte-for-byte the legacy body, and kind/epoch/cache frame it.
func TestV1EnvelopeMatchesLegacy(t *testing.T) {
	mgr, _ := newManager(t, 9, 83)
	ex := New(mgr, Config{Undirected: true})
	ex.EnableLive()
	ts := httptest.NewServer(NewServer(ex, true, 1).Handler())
	defer ts.Close()

	cases := []struct {
		kind, params string
	}{
		{"bfs", "?src=3"},
		{"sssp", "?src=7&delta=25"},
		{"connected", "?u=1&v=9"},
		{"connected", "?u=1&v=2&live=1"},
		{"components", ""},
		{"clustering", ""},
		{"khop", "?src=3&k=2"},
		{"pagerank", "?tol=1e-6"},
	}
	for _, tc := range cases {
		code, legacy := getJSON(t, ts, "/query/"+tc.kind+tc.params)
		if code != http.StatusOK {
			t.Fatalf("legacy %s%s: status %d (%v)", tc.kind, tc.params, code, legacy)
		}
		code, env := getJSON(t, ts, "/v1/query/"+tc.kind+tc.params)
		if code != http.StatusOK {
			t.Fatalf("v1 %s%s: status %d (%v)", tc.kind, tc.params, code, env)
		}
		if env["kind"] != tc.kind {
			t.Fatalf("v1 %s%s: kind = %v", tc.kind, tc.params, env["kind"])
		}
		if _, ok := env["epoch"].(float64); !ok {
			t.Fatalf("v1 %s%s: epoch missing: %v", tc.kind, tc.params, env)
		}
		disp, _ := env["cache"].(string)
		switch disp {
		case "hit", "miss", "bypass", "live":
		default:
			t.Fatalf("v1 %s%s: cache disposition %q", tc.kind, tc.params, disp)
		}
		if tc.params == "?u=1&v=2&live=1" && disp != "live" {
			t.Fatalf("live query served with disposition %q", disp)
		}
		if !reflect.DeepEqual(env["data"], legacy) {
			t.Fatalf("%s%s: envelope data %v != legacy body %v", tc.kind, tc.params, env["data"], legacy)
		}
	}
}

// TestV1CacheDisposition checks the envelope's cache field end to end:
// miss then hit with caching on, bypass with caching off.
func TestV1CacheDisposition(t *testing.T) {
	mgr, _ := newManager(t, 8, 89)
	ex := New(mgr, Config{Undirected: true, CacheBytes: 8 << 20})
	ts := httptest.NewServer(NewServer(ex, true, 1).Handler())
	defer ts.Close()

	_, env := getJSON(t, ts, "/v1/query/khop?src=5&k=3")
	if env["cache"] != "miss" {
		t.Fatalf("first khop: cache = %v, want miss", env["cache"])
	}
	_, env = getJSON(t, ts, "/v1/query/khop?src=5&k=3")
	if env["cache"] != "hit" {
		t.Fatalf("repeat khop: cache = %v, want hit", env["cache"])
	}

	exOff := New(mgr, Config{Undirected: true})
	tsOff := httptest.NewServer(NewServer(exOff, true, 1).Handler())
	defer tsOff.Close()
	_, env = getJSON(t, tsOff, "/v1/query/khop?src=5&k=3")
	if env["cache"] != "bypass" {
		t.Fatalf("cache-off khop: cache = %v, want bypass", env["cache"])
	}
}

// TestV1ErrorBodies pins both error framings: the legacy string-only
// body and the v1 {code, message} object, with the status/code mapping
// the README documents.
func TestV1ErrorBodies(t *testing.T) {
	mgr, _ := newManager(t, 8, 97)
	ex := New(mgr, Config{Undirected: true}) // live NOT enabled
	ts := httptest.NewServer(NewServer(ex, true, 1).Handler())
	defer ts.Close()

	code, legacy := getJSON(t, ts, "/query/bfs?src=bogus")
	if code != http.StatusBadRequest {
		t.Fatalf("legacy bad src: status %d", code)
	}
	if msg, ok := legacy["error"].(string); !ok || msg == "" {
		t.Fatalf("legacy error body %v, want {\"error\": \"<message>\"}", legacy)
	}

	v1code := func(body map[string]any) string {
		obj, _ := body["error"].(map[string]any)
		if obj == nil {
			t.Fatalf("v1 error body %v, want {\"error\": {\"code\", \"message\"}}", body)
		}
		if msg, _ := obj["message"].(string); msg == "" {
			t.Fatalf("v1 error body %v has no message", body)
		}
		slug, _ := obj["code"].(string)
		return slug
	}
	cases := []struct {
		path   string
		status int
		code   string
	}{
		{"/v1/query/bfs", http.StatusBadRequest, "bad_request"},             // missing src
		{"/v1/query/bfs?src=99999999", http.StatusBadRequest, "bad_vertex"}, // out of range
		{"/v1/query/connected?u=1&v=2&live=bogus", http.StatusBadRequest, "bad_request"},
		{"/v1/query/connected?u=1&v=2&live=1", http.StatusNotImplemented, "unsupported"}, // live not enabled
		{"/v1/query/pagerank?tol=NaN", http.StatusBadRequest, "bad_request"},
	}
	for _, tc := range cases {
		code, body := getJSON(t, ts, tc.path)
		if code != tc.status {
			t.Fatalf("%s: status %d, want %d (%v)", tc.path, code, tc.status, body)
		}
		if slug := v1code(body); slug != tc.code {
			t.Fatalf("%s: error code %q, want %q", tc.path, slug, tc.code)
		}
	}

	// Unregistered kind: the route does not exist.
	resp, err := http.Get(ts.URL + "/v1/query/no-such-kind")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown kind: status %d, want 404", resp.StatusCode)
	}
}

func pollJob(t *testing.T, ts *httptest.Server, id string) map[string]any {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for {
		code, st := getJSON(t, ts, "/v1/jobs/"+id)
		if code != http.StatusOK {
			t.Fatalf("poll %s: status %d (%v)", id, code, st)
		}
		if st["state"] != "running" {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still running at deadline: %v", id, st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestBetweennessJobFlow drives the offline job endpoint end to end:
// POST starts the sampled sweep and answers 202 with a pollable id,
// GET reports progress and eventually the result; unknown ids are 400;
// and on the compressed layout — where the Brandes engine has no
// resident CSR — the job runs and fails cleanly.
func TestBetweennessJobFlow(t *testing.T) {
	mgr, _ := newManager(t, 8, 101)
	ex := New(mgr, Config{Undirected: true})
	ts := httptest.NewServer(NewServer(ex, true, 1).Handler())
	defer ts.Close()

	resp, err := http.Post(ts.URL+"/v1/jobs/betweenness?samples=4&topk=5", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var started map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&started); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("job start: status %d (%v)", resp.StatusCode, started)
	}
	id, _ := started["id"].(string)
	if id == "" || started["kind"] != "betweenness" {
		t.Fatalf("job start body %v", started)
	}

	st := pollJob(t, ts, id)
	if st["state"] != "done" {
		t.Fatalf("job finished in state %v: %v", st["state"], st)
	}
	result, _ := st["result"].(map[string]any)
	if result == nil {
		t.Fatalf("done job has no result: %v", st)
	}
	if result["sources"] != float64(4) {
		t.Fatalf("job sampled %v sources, want 4", result["sources"])
	}
	topk, _ := result["topK"].([]any)
	if len(topk) == 0 || len(topk) > 5 {
		t.Fatalf("topK has %d entries, want 1..5", len(topk))
	}

	if code, body := getJSON(t, ts, "/v1/jobs/no-such-job"); code != http.StatusBadRequest {
		t.Fatalf("unknown job id: status %d (%v)", code, body)
	}

	// Compressed layout: the job starts (202) but the sweep fails with
	// ErrUnsupported — reported through the job state, not the POST.
	exC := New(newLayoutManager(t, 8, 101, snapmgr.LayoutCompressed), Config{Undirected: true})
	tsC := httptest.NewServer(NewServer(exC, true, 1).Handler())
	defer tsC.Close()
	resp, err = http.Post(tsC.URL+"/v1/jobs/betweenness?samples=2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&started); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("compressed job start: status %d", resp.StatusCode)
	}
	st = pollJob(t, tsC, started["id"].(string))
	if st["state"] != "failed" {
		t.Fatalf("compressed-layout job state %v, want failed", st["state"])
	}
	if msg, _ := st["error"].(string); msg == "" {
		t.Fatalf("failed job carries no error: %v", st)
	}
}

func postJSON(t *testing.T, ts *httptest.Server, path, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	return resp.StatusCode, out
}

// TestIngestBodyLimit: a body over the limit is refused with 413 in the
// route's error framing and applies nothing; one under it still lands.
func TestIngestBodyLimit(t *testing.T) {
	mgr, _ := newManager(t, 8, 98)
	srv := NewServer(New(mgr, Config{Undirected: true}), true, 1)
	srv.maxBody = 256
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	post := func(path, body string) (int, map[string]any) { return postJSON(t, ts, path, body) }
	arcs := mgr.Store().NumEdges()
	big := "[" + strings.Repeat(`{"u":1,"v":2,"t":3},`, 40) + `{"u":1,"v":2,"t":3}]`

	code, body := post("/ingest", big)
	if msg, _ := body["error"].(string); code != http.StatusRequestEntityTooLarge || msg == "" {
		t.Fatalf("legacy oversized body: status %d, body %v", code, body)
	}
	code, body = post("/v1/ingest", big)
	obj, _ := body["error"].(map[string]any)
	if code != http.StatusRequestEntityTooLarge || obj["code"] != "too_large" || obj["message"] == "" {
		t.Fatalf("v1 oversized body: status %d, body %v", code, body)
	}
	if got := mgr.Store().NumEdges(); got != arcs {
		t.Fatalf("refused bodies changed the store: %d arcs, was %d", got, arcs)
	}

	code, body = post("/ingest", `[{"u":1,"v":2,"t":3},{"u":4,"v":4,"t":5}]`)
	if code != http.StatusOK || body["applied"] != 2.0 {
		t.Fatalf("small body: status %d, body %v", code, body)
	}
	// Mirrored, self-loop single: three arcs.
	if got := mgr.Store().NumEdges(); got != arcs+3 {
		t.Fatalf("store has %d arcs after the small batch, want %d", got, arcs+3)
	}
}

// TestIngestRefusesTrailingData: an ingest body is exactly one JSON array
// of updates. Anything after it but whitespace, or a null body, is a 400
// bad_request on both routes and applies nothing; a trailing newline is
// fine.
func TestIngestRefusesTrailingData(t *testing.T) {
	mgr, _ := newManager(t, 8, 99)
	ts := httptest.NewServer(NewServer(New(mgr, Config{}), true, 1).Handler())
	defer ts.Close()

	const batch = `[{"u":1,"v":2,"t":3}]`
	for _, tc := range []struct {
		body string
		ok   bool
	}{
		{batch + ` {"junk": tru`, false},
		{batch + ` {"u":4,"v":5}`, false},
		{batch + `[]`, false},
		{batch + ` x`, false},
		{batch + `]`, false},
		{`null`, false},
		{batch + "\n", true},
		{" \t" + batch + " \r\n\t ", true},
	} {
		for _, path := range []string{"/ingest", "/v1/ingest"} {
			arcs := mgr.Store().NumEdges()
			code, body := postJSON(t, ts, path, tc.body)
			if tc.ok {
				if code != http.StatusOK || body["applied"] != 1.0 {
					t.Fatalf("%s %q: status %d, body %v; want 200 applying 1", path, tc.body, code, body)
				}
				continue
			}
			if code != http.StatusBadRequest {
				t.Fatalf("%s %q: status %d (%v), want 400", path, tc.body, code, body)
			}
			if obj, _ := body["error"].(map[string]any); path == "/v1/ingest" && obj["code"] != "bad_request" {
				t.Fatalf("%s %q: error body %v, want code bad_request", path, tc.body, body)
			}
			if got := mgr.Store().NumEdges(); got != arcs {
				t.Fatalf("%s %q: refused body changed the store: %d arcs, was %d", path, tc.body, got, arcs)
			}
		}
	}
}
