package shard

import (
	"snapdyn/internal/edge"
	"snapdyn/internal/qserve"
)

// ownerStores is the fleet's stores read as one: every read about
// vertex u goes to u's owner, whose store holds all of u's out-arcs. In
// undirected serving that is u's whole adjacency, which is all the live
// forest reads.
type ownerStores struct{ f *Fleet }

func (o ownerStores) Has(u, v edge.ID) bool {
	return o.f.mgrs[o.f.Owner(u)].Store().Has(u, v)
}

func (o ownerStores) Neighbors(u edge.ID, fn func(v edge.ID, t uint32) bool) {
	o.f.mgrs[o.f.Owner(u)].Store().Neighbors(u, fn)
}

// EnableLive builds the fleet's live connectivity index — one spanning
// forest for the whole fleet, seeded by one BFS over the current
// per-shard snapshots — and starts feeding it from every subsequent
// Ingest. On an undirected fleet the forest is a view over the shards'
// stores (see qserve.Live), reconciled after each batch's commit; a
// directed fleet keeps a private store. Unpublished updates are
// published first, so the seed covers every store. Call before serving
// (not synchronized with in-flight Ingest calls). Live queries fail
// with ErrUnsupported until this is called.
func (e *Executor) EnableLive() {
	f := e.fleet
	if f.Staleness() > 0 {
		f.Refresh(0)
	}
	var l *qserve.Live
	if e.cfg.Undirected {
		l = qserve.NewLiveOver(f.NumVertices(), ownerStores{f})
	} else {
		l = qserve.NewLive(f.NumVertices())
	}
	views := f.View(nil)
	l.Seed(func(u edge.ID, fn func(v edge.ID, t uint32) bool) {
		adj, ts := views[f.Owner(u)].Neighbors(u)
		for i, v := range adj {
			if !fn(v, ts[i]) {
				return
			}
		}
	})
	e.live = l
}

// Live returns the fleet's live connectivity index, nil until
// EnableLive.
func (e *Executor) Live() *qserve.Live { return e.live }
