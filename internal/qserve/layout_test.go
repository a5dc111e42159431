package qserve

import (
	"encoding/json"
	"net/http/httptest"
	"testing"

	"snapdyn/internal/dyngraph"
	"snapdyn/internal/edge"
	"snapdyn/internal/rmat"
	"snapdyn/internal/snapmgr"
	"snapdyn/internal/stream"
	"snapdyn/internal/xrand"
)

// newLayoutManager is newManager publishing in the given layout.
func newLayoutManager(t *testing.T, scale int, seed uint64, l snapmgr.Layout) *snapmgr.Manager {
	t.Helper()
	n := 1 << scale
	edges, err := rmat.Generate(0, rmat.PaperParams(scale, 8*n, 50, seed))
	if err != nil {
		t.Fatal(err)
	}
	store := dyngraph.NewTracked(dyngraph.NewHybrid(n, 4*len(edges), 0, seed))
	store.ApplyBatch(0, stream.Mirror(stream.Inserts(edges)))
	return snapmgr.NewLayout(0, store, l)
}

// TestLayoutsAnswerIdentically runs every query type against every
// storage layout and demands the replies match the plain executor's
// bit-for-bit — callers must not be able to tell what format the
// snapshot is stored in — including after ingest/refresh churn that
// exercises each layout's delta path.
func TestLayoutsAnswerIdentically(t *testing.T) {
	const scale, seed = 9, 13
	layouts := []snapmgr.Layout{
		snapmgr.LayoutPlain, snapmgr.LayoutDegree, snapmgr.LayoutBFS,
		snapmgr.LayoutRCM, snapmgr.LayoutCompressed,
	}
	exs := make([]*Executor, len(layouts))
	for i, l := range layouts {
		exs[i] = New(newLayoutManager(t, scale, seed, l), Config{Undirected: true})
	}
	check := func(round int) {
		t.Helper()
		srcs := []uint32{0, 3, 101, 511}
		for _, src := range srcs {
			want, err := exs[0].BFS(src)
			if err != nil {
				t.Fatal(err)
			}
			wantSP, err := exs[0].SSSP(src, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i, l := range layouts[1:] {
				got, err := exs[i+1].BFS(src)
				if err != nil {
					t.Fatal(err)
				}
				if got.Reached != want.Reached || got.Levels != want.Levels {
					t.Fatalf("round %d %v: BFS(%d) = %+v, want %+v", round, l, src, got, want)
				}
				sp, err := exs[i+1].SSSP(src, 0)
				if err != nil {
					t.Fatal(err)
				}
				if sp.Reached != wantSP.Reached || sp.MaxDist != wantSP.MaxDist {
					t.Fatalf("round %d %v: SSSP(%d) = %+v, want %+v", round, l, src, sp, wantSP)
				}
			}
		}
		for _, q := range [][2]uint32{{0, 0}, {1, 2}, {5, 200}, {17, 400}} {
			want, err := exs[0].Connected(q[0], q[1])
			if err != nil {
				t.Fatal(err)
			}
			for i, l := range layouts[1:] {
				got, err := exs[i+1].Connected(q[0], q[1])
				if err != nil {
					t.Fatal(err)
				}
				if got.Connected != want.Connected || got.Hops != want.Hops {
					t.Fatalf("round %d %v: Connected%v = %+v, want %+v", round, l, q, got, want)
				}
			}
		}
		want, err := exs[0].Components()
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range layouts[1:] {
			got, err := exs[i+1].Components()
			if err != nil {
				t.Fatal(err)
			}
			if got.Components != want.Components || got.LargestSize != want.LargestSize {
				t.Fatalf("round %d %v: Components = %+v, want %+v", round, l, got, want)
			}
		}
		wantPR, err := exs[0].PageRank(1e-9)
		if err != nil {
			t.Fatal(err)
		}
		for i, l := range layouts[1:] {
			got, err := exs[i+1].PageRank(1e-9)
			if err != nil {
				t.Fatal(err)
			}
			if got != wantPR {
				t.Fatalf("round %d %v: PageRank = %+v, want %+v", round, l, got, wantPR)
			}
		}
	}
	check(0)
	r := xrand.New(41)
	n := uint32(1 << scale)
	for round := 1; round <= 3; round++ {
		var batch []edge.Update
		for i := 0; i < 40; i++ {
			batch = append(batch, edge.Update{
				Edge: edge.Edge{U: r.Uint32n(n), V: r.Uint32n(n), T: r.Uint32n(50)},
				Op:   edge.Insert,
			})
		}
		batch = stream.Mirror(batch)
		for _, ex := range exs {
			ex.Ingest(0, batch)
			ex.Manager().Refresh(0)
		}
		check(round)
	}
}

func TestStatsReportsLayoutAndBytes(t *testing.T) {
	plain := New(newLayoutManager(t, 8, 5, snapmgr.LayoutPlain), Config{})
	comp := New(newLayoutManager(t, 8, 5, snapmgr.LayoutCompressed), Config{})
	ps, cs := plain.Stats(), comp.Stats()
	if ps.Format != "plain" || cs.Format != "compressed" {
		t.Fatalf("formats %q/%q", ps.Format, cs.Format)
	}
	if ps.SizeBytes <= 0 || cs.SizeBytes <= 0 {
		t.Fatalf("SizeBytes unset: %d/%d", ps.SizeBytes, cs.SizeBytes)
	}
	if cs.SizeBytes >= ps.SizeBytes {
		t.Fatalf("compressed %d B not smaller than plain %d B", cs.SizeBytes, ps.SizeBytes)
	}
	if ps.Vertices != cs.Vertices || ps.Arcs != cs.Arcs || ps.MaxDegree != cs.MaxDegree {
		t.Fatalf("shape mismatch: %+v vs %+v", ps, cs)
	}

	// The fields ride the /stats wire format.
	srv := httptest.NewServer(NewServer(comp, true, 1).Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var wire struct {
		SizeBytes int64  `json:"sizeBytes"`
		Format    string `json:"format"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&wire); err != nil {
		t.Fatal(err)
	}
	if wire.Format != "compressed" || wire.SizeBytes != cs.SizeBytes {
		t.Fatalf("/stats wire = %+v, want format=compressed sizeBytes=%d", wire, cs.SizeBytes)
	}
}
