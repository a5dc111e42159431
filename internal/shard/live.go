package shard

import (
	"snapdyn/internal/dynconn"
	"snapdyn/internal/edge"
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

// LiveSource publishes every shard's unpublished updates and returns
// the stores read by owner, with the pinned per-shard snapshots as the
// seed: one spanning forest for the whole fleet.
func (b *backend) LiveSource() (dynconn.Reader, dynconn.Neighbors) {
	f := b.Fleet
	if f.Staleness() > 0 {
		f.Refresh(0)
	}
	views := f.View(nil)
	return ownerStores{f}, func(u edge.ID, fn func(v edge.ID, t uint32) bool) {
		adj, ts := views[f.Owner(u)].Neighbors(u)
		for i, v := range adj {
			if !fn(v, ts[i]) {
				return
			}
		}
	}
}
