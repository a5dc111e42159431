package snapdyn

import (
	"testing"
	"time"
)

// shardedFixture builds the same R-MAT update stream into a plain
// Graph and a ShardedGraph so tests can compare query results.
func shardedFixture(t *testing.T, shards int, undirected bool) (*Graph, *ShardedGraph) {
	t.Helper()
	const scale, edgeFactor = 9, 8
	n := 1 << scale
	edges, err := GenerateRMAT(2, PaperRMAT(scale, edgeFactor*n, 40, 99))
	if err != nil {
		t.Fatal(err)
	}
	ups := Inserts(edges)
	var opts []Option
	if undirected {
		opts = append(opts, Undirected())
	}
	ref := New(n, opts...)
	ref.ApplyUpdates(2, ups)
	sg := NewSharded(n, shards, opts...)
	sg.ApplyUpdates(2, ups)
	return ref, sg
}

func TestShardedFacadeEquivalence(t *testing.T) {
	for _, shards := range []int{1, 3, 4} {
		ref, sg := shardedFixture(t, shards, true)
		if sg.Shards() != shards {
			t.Fatalf("shards = %d, want %d", sg.Shards(), shards)
		}
		snap := ref.Snapshot(2)
		view := sg.Refresh(2)

		if got, want := view.NumEdges(), snap.NumEdges(); got != want {
			t.Fatalf("shards=%d: arcs %d != %d", shards, got, want)
		}

		res := snap.BFS(2, 0)
		level, reached, _ := view.BFS(0)
		gotReached := 0
		for u := range level {
			if level[u] != res.Level[u] {
				t.Fatalf("shards=%d: BFS level[%d] = %d, want %d", shards, u, level[u], res.Level[u])
			}
			if level[u] != NotVisited {
				gotReached++
			}
		}
		if reached != gotReached {
			t.Fatalf("shards=%d: reached = %d, counted %d", shards, reached, gotReached)
		}

		wantDist := snap.ShortestPaths(2, 0, 0)
		gotDist := view.ShortestPaths(0, 0)
		for u := range wantDist {
			if gotDist[u] != wantDist[u] {
				t.Fatalf("shards=%d: dist[%d] = %d, want %d", shards, u, gotDist[u], wantDist[u])
			}
		}

		wantComp := snap.Components(2)
		gotComp := view.Components()
		for u := range wantComp {
			if gotComp[u] != wantComp[u] {
				t.Fatalf("shards=%d: comp[%d] = %d, want %d", shards, u, gotComp[u], wantComp[u])
			}
		}
		if view.ComponentCount() != snap.ComponentCount(2) {
			t.Fatalf("shards=%d: component counts diverge", shards)
		}

		ok, hops := view.STConnected(0, uint32(sg.NumVertices()-1))
		wantOK, wantHops := snap.STConnected(2, 0, uint32(sg.NumVertices()-1))
		if ok != wantOK || hops != wantHops {
			t.Fatalf("shards=%d: st-connectivity (%v,%d) != (%v,%d)", shards, ok, hops, wantOK, wantHops)
		}
	}
}

func TestShardedGatedEdgeOps(t *testing.T) {
	sg := NewSharded(16, 4, Undirected())
	sg.InsertEdge(1, 2, 10)
	sg.InsertEdge(2, 3, 20)
	if sg.NumEdges() != 4 {
		t.Fatalf("arcs = %d, want 4", sg.NumEdges())
	}
	if sg.ShardOf(1) != 1%4 || sg.ShardOf(5) != 5%4 {
		t.Fatal("ownership rule is u mod P")
	}
	view := sg.Refresh(1)
	if ok, hops := view.STConnected(1, 3); !ok || hops != 2 {
		t.Fatalf("1-3 = (%v,%d), want (true,2)", ok, hops)
	}
	if !sg.DeleteEdge(1, 2) {
		t.Fatal("delete of live edge reported false")
	}
	if sg.DeleteEdge(1, 2) {
		t.Fatal("second delete reported true")
	}
	view = sg.Refresh(1)
	if ok, _ := view.STConnected(1, 3); ok {
		t.Fatal("1-3 still connected after delete")
	}
	if sg.NumEdges() != 2 {
		t.Fatalf("arcs = %d, want 2", sg.NumEdges())
	}
}

func TestShardedAutoRefresh(t *testing.T) {
	_, sg := shardedFixture(t, 4, true)
	start := sg.Epoch()
	// MaxAge lets the residue below MaxDirty publish too: without it the
	// fleet only settles when every shard's last refresh happens to fire
	// after the last batch, which a slow (-race) ingest loses.
	if !sg.StartAutoRefresh(AutoRefreshPolicy{MaxDirty: 32, MaxAge: 5 * time.Millisecond, Poll: time.Millisecond}) {
		t.Fatal("auto-refresh did not start")
	}
	defer sg.StopAutoRefresh()
	if sg.StartAutoRefresh(AutoRefreshPolicy{}) {
		t.Fatal("second start must report false")
	}
	for r := 0; r < 20; r++ {
		batch := make([]Update, 0, 16)
		for i := 0; i < 16; i++ {
			u := VertexID((r*31 + i*7) % sg.NumVertices())
			v := VertexID((int(u) + 1 + i) % sg.NumVertices())
			batch = append(batch, Update{Edge: Edge{U: u, V: v, T: uint32(r + 1)}, Op: OpInsert})
		}
		sg.ApplyUpdates(1, batch)
	}
	deadline := time.After(30 * time.Second)
	for sg.Staleness() != 0 || sg.Epoch() == start {
		select {
		case <-deadline:
			t.Fatalf("fleet did not settle: epoch %d staleness %d", sg.Epoch(), sg.Staleness())
		case <-time.After(time.Millisecond):
		}
	}
	if m := sg.Metrics(); m.Refreshes == 0 {
		t.Fatalf("no refreshes recorded: %+v", m)
	}
	sg.StopAutoRefresh()
	view := sg.Refresh(2)
	if view.Stats().Arcs != view.NumEdges() {
		t.Fatal("stats arcs disagree with view arc count")
	}
}
