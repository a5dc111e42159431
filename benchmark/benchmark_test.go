package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"snapdyn/internal/qserve"
)

// The tests run from the package directory; the repository root is its
// parent.
const repoRoot = ".."

var (
	buildOnce sync.Once
	buildDir  string
	buildErr  error
)

// snapserveBin builds cmd/snapserve once per test binary.
func snapserveBin(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		if buildDir, buildErr = os.MkdirTemp("", "benchmark-test-"); buildErr != nil {
			return
		}
		cmd := exec.Command("go", "build", "-o", filepath.Join(buildDir, "snapserve"), "./cmd/snapserve")
		cmd.Dir = repoRoot
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("building cmd/snapserve: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return filepath.Join(buildDir, "snapserve")
}

func TestMain(m *testing.M) {
	code := m.Run()
	if buildDir != "" {
		os.RemoveAll(buildDir)
	}
	os.Exit(code)
}

func smallInput(t *testing.T, seed uint64) *graphInput {
	t.Helper()
	in, err := makeGraphInput(10, seed)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func loadRepoSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec(filepath.Join(repoRoot, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func TestSpecIsValidAndMatchesCode(t *testing.T) {
	sp := loadRepoSpec(t)
	if err := sp.validate(); err != nil {
		t.Fatal(err)
	}
	if err := sp.matchesCode(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRefusesWhatTheDriverRefuses(t *testing.T) {
	for name, breakIt := range map[string]func(*spec){
		"bad name":          func(sp *spec) { sp.EndToEnd[1].Name = "query qps" },
		"name used twice":   func(sp *spec) { sp.PerLayer[0].Name = sp.EndToEnd[0].Name },
		"bound too wide":    func(sp *spec) { b := 0.3; sp.EndToEnd[1].Bound = &b },
		"bounded layer":     func(sp *spec) { b := 0.1; sp.PerLayer[0].Bound = &b },
		"no setup_s":        func(sp *spec) { sp.EndToEnd[0].Name = "startup_s" },
		"absolute command":  func(sp *spec) { sp.Command[1] = "/root/repo/benchmark/run.sh" },
		"one workload":      func(sp *spec) { sp.Workloads = sp.Workloads[:1] },
		"run_seconds":       func(sp *spec) { sp.RunSeconds = 61 },
		"long unit":         func(sp *spec) { sp.EndToEnd[1].Unit = "requests-per-second" },
		"two-line why":      func(sp *spec) { sp.Workloads[0].Why = "a\nb" },
		"path leaves repo":  func(sp *spec) { sp.Paths[0] = "../benchmark" },
		"unknown direction": func(sp *spec) { sp.EndToEnd[1].Better = "faster" },
	} {
		sp := loadRepoSpec(t)
		breakIt(sp)
		if err := sp.validate(); err == nil {
			t.Errorf("%s: validate accepted it", name)
		}
	}
}

// Every kind the server registers gets traffic, and the mix names no
// kind the server does not serve.
func TestRegistryMixCoversRegistry(t *testing.T) {
	inMix := map[string]bool{}
	for _, k := range registryMix {
		inMix[k.spec] = true
		if qserve.LookupSpec(k.spec) == nil {
			t.Errorf("registry-mix names %q, which the registry does not know", k.spec)
		}
	}
	for _, sp := range qserve.Specs() {
		if !inMix[sp.Name()] {
			t.Errorf("registered kind %q has no entry in registry-mix", sp.Name())
		}
	}
	for _, s := range scheduled {
		if k := registryMix[kindIndex(s.kind)]; k.weight != 0 {
			t.Errorf("%s is both scheduled and drawn (weight %g)", s.kind, k.weight)
		}
	}
}

// opStream renders the first queries of every workload and the first
// churn batches as bytes.
func opStream(in *graphInput, seed uint64) []byte {
	var out bytes.Buffer
	var path []byte
	for _, def := range allWorkloads() {
		gen := newQueryGen(def.pool(in, seed), def.pairTargets, def.zipfS, seed)
		for j := 0; j < 500; j++ {
			path = gen.next().path(path[:0])
			out.Write(path)
			out.WriteByte('\n')
		}
		churn := newChurnGen(in.scale, def.batch, seed)
		var body bytes.Buffer
		for j := 0; j < 2*churnLag; j++ {
			encodeBatch(&body, churn.next())
			out.Write(body.Bytes())
			out.WriteByte('\n')
		}
	}
	return out.Bytes()
}

func TestGeneratorDeterminism(t *testing.T) {
	a := opStream(smallInput(t, 7), 7)
	b := opStream(smallInput(t, 7), 7)
	if !bytes.Equal(a, b) {
		t.Fatal("the same seed gave two different op streams")
	}
	if c := opStream(smallInput(t, 8), 8); bytes.Equal(a, c) {
		t.Fatal("seeds 7 and 8 gave the same op stream")
	}
}

// The churn stream is stationary (inserts are deleted churnLag batches
// later, probe edges excepted) and never names a pair twice in a batch.
func TestChurnIsStationaryAndOrderFree(t *testing.T) {
	churn := newChurnGen(10, 512, 3)
	live := map[[2]uint32]int{}
	for k := 0; k < 5*churnLag; k++ {
		inBatch := map[[2]uint32]bool{}
		for _, up := range churn.next() {
			key := pairKey(up.Edge)
			if inBatch[key] {
				t.Fatalf("batch %d names pair %v twice", k, key)
			}
			inBatch[key] = true
			if up.Op == 0 {
				live[key]++
			} else {
				live[key]--
			}
		}
		held := 0
		for _, n := range live {
			held += n
		}
		// churnLag batches of inserts in flight plus one probe edge per
		// batch sent.
		if limit := churnLag*256 + k + 1; held > limit {
			t.Fatalf("after batch %d the stream holds %d inserts, more than %d", k, held, limit)
		}
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{199, 95, false}, {200, 95, true}, {999, 99, false}, {1000, 99, true}, {19, 50, false}, {20, 50, true},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, p%g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	if got := percentile(s, 95); got != 95 {
		t.Errorf("p95 of 1..100 = %g, want 95", got)
	}
	if got := percentile(s, 50); got != 50 {
		t.Errorf("p50 of 1..100 = %g, want 50", got)
	}
}

// A disturbance that slows some slices moves neither fast metric while
// one slice is spared; it owns the whole-window tail. The definition
// does not change with the sample count.
func TestFastMetricsAreTheBestSlice(t *testing.T) {
	var at, lat []float64
	for slice := 0; slice < windowSlices; slice++ {
		n, v := 400, 1.0
		if slice != 3 {
			n, v = 100, 50
		}
		for i := 0; i < n; i++ {
			at = append(at, float64(slice)+float64(i)/float64(n))
			lat = append(lat, v)
		}
	}
	if got := fastPercentile(at, lat, windowSlices, 90); got != 1 {
		t.Errorf("fast p90 = %g, want 1", got)
	}
	if got := percentile(sortedCopy(lat), 90); got != 50 {
		t.Errorf("whole-window p90 = %g, want 50", got)
	}
	if got := fastRate(at, windowSlices); got != 400 {
		t.Errorf("fast rate = %g/s, want 400", got)
	}
	// Three samples: still the best slice, not another statistic.
	few := []float64{0.5, 1.5, 1.6}
	if got := fastPercentile(few, []float64{9, 4, 6}, windowSlices, 90); got != 6 {
		t.Errorf("fast p90 of three samples = %g, want 6 (slice 1's)", got)
	}
	if got := fastRate(few, windowSlices); got != 2 {
		t.Errorf("fast rate of three samples = %g/s, want 2", got)
	}
	if got := fastPercentile(nil, nil, windowSlices, 50); got != 0 {
		t.Errorf("fast p50 of nothing = %g, want 0", got)
	}
}

// The in-process stack the oracle, the ladder and the span replay are
// built from must be the stack cmd/snapserve builds: same /stats, same
// replies, for every server shape a workload uses.
func TestStackMatchesSnapserve(t *testing.T) {
	bin := snapserveBin(t)
	in := smallInput(t, 5)
	for _, def := range allWorkloads() {
		t.Run(def.name, func(t *testing.T) {
			srv, err := startServer(bin, in, def.serverFlags(filepath.Join(t.TempDir(), "wal"))...)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.kill()
			cfg := stackConfig{shards: def.shards, cacheBytes: defaultCacheBytes, refresher: true}
			if def.wal {
				cfg.walDir = filepath.Join(t.TempDir(), "wal")
			}
			st, err := buildStack(in, cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer st.stop()
			ts := httptest.NewServer(st.srv.Handler())
			defer ts.Close()

			client := &http.Client{Timeout: 10 * time.Second}
			defer client.CloseIdleConnections()
			var got, want qserve.StatsReply
			if err := getJSON(client, srv.base+"/stats", &got); err != nil {
				t.Fatal(err)
			}
			if err := getJSON(client, ts.URL+"/stats", &want); err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("/stats differ:\nsnapserve  %+v\nin-process %+v", got, want)
			}

			c := newConn()
			defer c.close()
			gen := newQueryGen(in.giant, 0, 0, 5)
			var path []byte
			for j := 0; j < 16; j++ {
				kind := j % len(registryMix)
				path = gen.sample(kind).path(path[:0])
				var replies [2]envelope
				for side, base := range []string{srv.base, ts.URL} {
					code, err := c.get(base, path)
					if err != nil || code != http.StatusOK {
						t.Fatalf("%s%s: status %d err %v", base, path, code, err)
					}
					if replies[side], err = decodeEnvelope(c.body.Bytes()); err != nil {
						t.Fatal(err)
					}
				}
				a, b := replies[0], replies[1]
				if a.Kind != b.Kind || a.Epoch != b.Epoch || a.Cache != b.Cache ||
					!sameData(registryMix[kind].name, def.shards > 1, a.Data, b.Data) {
					t.Errorf("%s: snapserve %+v, in-process %+v", path, a, b)
				}
			}
		})
	}
}

// All four workloads and the traced mode at a small scale: every
// declared metric is emitted, nothing fails, the gate passes.
func TestSmokeAllWorkloads(t *testing.T) {
	sp := loadRepoSpec(t)
	defs := allWorkloads()
	o := options{root: repoRoot, bin: snapserveBin(t), outDir: t.TempDir(), seed: 3,
		scale: 10, window: time.Second, warmup: 300 * time.Millisecond, setups: 2}
	for _, traced := range []bool{false, true} {
		o.trace = traced
		file, err := execute(o, sp, defs, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if missing := sp.covers(file); len(missing) > 0 {
			t.Errorf("trace=%v: declared metrics not emitted: %v", traced, missing)
		}
		for _, res := range file.Workloads {
			if res.Failed != 0 || !res.Correct {
				t.Errorf("trace=%v %s: %d of %d operations failed: %v", traced, res.Name, res.Failed, res.Attempted, res.Failures)
			}
			if _, err := sp.driverLine(res, traced); err != nil {
				t.Error(err)
			}
			if traced {
				continue
			}
			for name, m := range res.EndToEnd {
				if m.Value <= 0 {
					t.Errorf("%s: %s = %g, an end-to-end metric is never 0", res.Name, name, m.Value)
				}
			}
		}
		// Every measured per-layer metric is declared, so none is
		// dropped from the driver's line unnoticed.
		declared := map[string]bool{}
		for _, m := range sp.PerLayer {
			declared[m.Name] = true
		}
		for _, res := range file.Workloads {
			for name := range res.PerLayer {
				if traced && !declared[name] {
					t.Errorf("%s measures %s, which BENCHMARK.json does not declare", res.Name, name)
				}
			}
		}
	}
	if _, err := os.Stat(filepath.Join(o.outDir, "trace-read-cold.json")); err != nil {
		t.Error("the traced run wrote no span file:", err)
	}
}

func TestCompareFlagsWhatIsOutsideItsBound(t *testing.T) {
	sp := loadRepoSpec(t)
	mk := func(qps float64) *resultFile {
		f := &resultFile{}
		for _, w := range sp.Workloads {
			res := &workloadResult{Name: w.Name, Correct: true, Attempted: 1, EndToEnd: map[string]metric{}}
			for _, m := range sp.EndToEnd {
				res.EndToEnd[m.Name] = metric{Value: 1, Unit: m.Unit}
			}
			res.EndToEnd["query_qps_fast"] = metric{Value: qps, Unit: "1/s"}
			f.Workloads = append(f.Workloads, res)
		}
		return f
	}
	dir := t.TempDir()
	write := func(name string, f *resultFile) string {
		path := filepath.Join(dir, name)
		if err := writeJSON(path, f); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slower, none := write("a.json", mk(1000)), write("same.json", mk(950)), write("slower.json", mk(600)), write("none.json", mk(0))
	specPath := filepath.Join(repoRoot, "BENCHMARK.json")
	if code := compareFiles(io.Discard, specPath, a, same); code != 0 {
		t.Errorf("5%% fewer queries per second is inside the bound, compare returned %d", code)
	}
	// Two runs of one tree must agree whichever is named first, and a
	// metric that reads 0 agrees with nothing.
	for _, pair := range [][2]string{{a, slower}, {slower, a}, {a, none}, {none, a}, {none, none}} {
		if code := compareFiles(io.Discard, specPath, pair[0], pair[1]); code == 0 {
			t.Errorf("compare %s %s returned 0, want outside the bound", filepath.Base(pair[0]), filepath.Base(pair[1]))
		}
	}
	if !reflect.DeepEqual(sp.covers(mk(1)), []string(nil)) {
		t.Error("covers reports a complete file as incomplete")
	}
}
