package dyngraph

import (
	"sync"

	"snapdyn/internal/edge"
)

// The treap node pool. Nodes for all vertices live in per-shard slices
// addressed by 32-bit indices, keeping the structure compact (24 bytes per
// node) and allocation amortized — the same role the arena plays for
// Dyn-arr. A vertex's treap is wholly contained in its shard, so one
// shard mutex serializes all operations touching that vertex.

// nilNode is the null link.
const nilNode = ^uint32(0)

// tnode is one treap node: a BST on key (neighbor id) that is
// simultaneously a heap on pri. cnt is the multiplicity of the neighbor
// (multigraph semantics); ts is the most recent time label inserted.
type tnode struct {
	key  uint32
	ts   uint32
	pri  uint32
	cnt  uint32
	l, r uint32
}

// treapShard owns the nodes of all vertices hashed to it.
type treapShard struct {
	mu    sync.Mutex
	nodes []tnode
	free  []uint32
	rng   uint64 // per-shard priority generator state
	_     [3]uint64
}

// nextPri draws a pseudo-random heap priority (splitmix64 step).
func (sh *treapShard) nextPri() uint32 {
	sh.rng += 0x9e3779b97f4a7c15
	z := sh.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return uint32((z ^ (z >> 31)) >> 32)
}

func (sh *treapShard) alloc(key, ts uint32) uint32 {
	if n := len(sh.free); n > 0 {
		idx := sh.free[n-1]
		sh.free = sh.free[:n-1]
		sh.nodes[idx] = tnode{key: key, ts: ts, pri: sh.nextPri(), cnt: 1, l: nilNode, r: nilNode}
		return idx
	}
	sh.nodes = append(sh.nodes, tnode{key: key, ts: ts, pri: sh.nextPri(), cnt: 1, l: nilNode, r: nilNode})
	return uint32(len(sh.nodes) - 1)
}

func (sh *treapShard) release(idx uint32) {
	sh.free = append(sh.free, idx)
}

// insert adds one tuple with the given key into the treap rooted at root,
// returning the new root. A duplicate key raises the node's multiplicity
// and refreshes its time label.
func (sh *treapShard) insert(root, key, ts uint32) uint32 {
	if root == nilNode {
		return sh.alloc(key, ts)
	}
	// Note: the recursive calls may grow sh.nodes, so node fields are
	// re-indexed (not held through pointers) across them.
	switch nk := sh.nodes[root].key; {
	case key == nk:
		n := &sh.nodes[root]
		n.cnt++
		n.ts = ts
	case key < nk:
		l := sh.insert(sh.nodes[root].l, key, ts)
		sh.nodes[root].l = l
		if sh.nodes[l].pri > sh.nodes[root].pri {
			return sh.rotateRight(root)
		}
	default:
		r := sh.insert(sh.nodes[root].r, key, ts)
		sh.nodes[root].r = r
		if sh.nodes[r].pri > sh.nodes[root].pri {
			return sh.rotateLeft(root)
		}
	}
	return root
}

// rotateRight promotes root.l; heap order is restored locally.
func (sh *treapShard) rotateRight(root uint32) uint32 {
	n := &sh.nodes[root]
	l := n.l
	ln := &sh.nodes[l]
	n.l = ln.r
	ln.r = root
	return l
}

// rotateLeft promotes root.r.
func (sh *treapShard) rotateLeft(root uint32) uint32 {
	n := &sh.nodes[root]
	r := n.r
	rn := &sh.nodes[r]
	n.r = rn.l
	rn.l = root
	return r
}

// deleteKey removes one tuple with the given key, physically removing the
// node when its multiplicity reaches zero (treaps "actually remove the
// node", unlike Dyn-arr's tombstones). It returns the new root and
// whether a tuple was removed. The search is iterative: it tracks the
// parent link so only the found node's subtree is touched.
func (sh *treapShard) deleteKey(root, key uint32) (uint32, bool) {
	cur := root
	parent := nilNode
	leftChild := false
	for cur != nilNode {
		n := &sh.nodes[cur]
		switch {
		case key < n.key:
			parent, cur, leftChild = cur, n.l, true
		case key > n.key:
			parent, cur, leftChild = cur, n.r, false
		default:
			if n.cnt > 1 {
				n.cnt--
				return root, true
			}
			merged := sh.merge(n.l, n.r)
			sh.release(cur)
			if parent == nilNode {
				return merged, true
			}
			if leftChild {
				sh.nodes[parent].l = merged
			} else {
				sh.nodes[parent].r = merged
			}
			return root, true
		}
	}
	return root, false
}

// merge joins two treaps where every key in l is < every key in r.
func (sh *treapShard) merge(l, r uint32) uint32 {
	if l == nilNode {
		return r
	}
	if r == nilNode {
		return l
	}
	if sh.nodes[l].pri > sh.nodes[r].pri {
		nr := sh.merge(sh.nodes[l].r, r)
		sh.nodes[l].r = nr
		return l
	}
	nl := sh.merge(l, sh.nodes[r].l)
	sh.nodes[r].l = nl
	return r
}

// split partitions the treap rooted at root into keys < key and keys >=
// key.
func (sh *treapShard) split(root, key uint32) (lt, ge uint32) {
	if root == nilNode {
		return nilNode, nilNode
	}
	n := &sh.nodes[root]
	if n.key < key {
		l, g := sh.split(n.r, key)
		n.r = l
		return root, g
	}
	l, g := sh.split(n.l, key)
	n.l = g
	return l, root
}

// union destructively merges treap b into treap a (both in this shard),
// summing multiplicities of shared keys, and returns the new root. This
// is the set-union kernel the paper highlights for batched updates and
// subgraph extraction.
func (sh *treapShard) union(a, b uint32) uint32 {
	if a == nilNode {
		return b
	}
	if b == nilNode {
		return a
	}
	if sh.nodes[a].pri < sh.nodes[b].pri {
		a, b = b, a
	}
	key := sh.nodes[a].key
	lt, ge := sh.split(b, key)
	// Separate b-nodes equal to key (at most one, since keys are unique
	// within a treap) and fold their multiplicity into a.
	eq, gt := sh.split(ge, key+1)
	if eq != nilNode {
		sh.nodes[a].cnt += sh.nodes[eq].cnt
		if sh.nodes[eq].ts > sh.nodes[a].ts {
			sh.nodes[a].ts = sh.nodes[eq].ts
		}
		sh.release(eq)
	}
	sh.nodes[a].l = sh.union(sh.nodes[a].l, lt)
	sh.nodes[a].r = sh.union(sh.nodes[a].r, gt)
	return a
}

// find returns the node index holding key, or nilNode.
func (sh *treapShard) find(root, key uint32) uint32 {
	for root != nilNode {
		n := &sh.nodes[root]
		switch {
		case key == n.key:
			return root
		case key < n.key:
			root = n.l
		default:
			root = n.r
		}
	}
	return nilNode
}

// walk visits tuples in key order (each key repeated cnt times) until fn
// returns false; the return value propagates the early stop.
func (sh *treapShard) walk(root uint32, fn func(key, ts, cnt uint32) bool) bool {
	// Iterative in-order traversal; depth is O(log n) w.h.p. but the
	// stack grows as needed to stay safe on adversarial shapes.
	stack := make([]uint32, 0, 48)
	cur := root
	for cur != nilNode || len(stack) > 0 {
		for cur != nilNode {
			stack = append(stack, cur)
			cur = sh.nodes[cur].l
		}
		cur = stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		n := &sh.nodes[cur]
		if !fn(n.key, n.ts, n.cnt) {
			return false
		}
		cur = n.r
	}
	return true
}

// freeAll returns every node of the treap to the free list.
func (sh *treapShard) freeAll(root uint32) {
	if root == nilNode {
		return
	}
	sh.freeAll(sh.nodes[root].l)
	sh.freeAll(sh.nodes[root].r)
	sh.release(root)
}

// checkInvariants verifies BST order on keys and heap order on
// priorities; used by property tests.
func (sh *treapShard) checkInvariants(root uint32, lo, hi int64) bool {
	if root == nilNode {
		return true
	}
	n := &sh.nodes[root]
	if int64(n.key) <= lo || int64(n.key) >= hi || n.cnt == 0 {
		return false
	}
	for _, c := range [2]uint32{n.l, n.r} {
		if c != nilNode && sh.nodes[c].pri > n.pri {
			return false
		}
	}
	return sh.checkInvariants(n.l, lo, int64(n.key)) &&
		sh.checkInvariants(n.r, int64(n.key), hi)
}

// treapPool groups shards and maps vertices onto them.
type treapPool struct {
	shards []treapShard
	mask   uint32
}

func newTreapPool(shardCount int, seed uint64) *treapPool {
	// Round up to a power of two.
	sc := 1
	for sc < shardCount {
		sc <<= 1
	}
	p := &treapPool{shards: make([]treapShard, sc), mask: uint32(sc - 1)}
	for i := range p.shards {
		p.shards[i].rng = seed ^ (uint64(i+1) * 0x9e3779b97f4a7c15)
	}
	return p
}

func (p *treapPool) shard(u edge.ID) *treapShard {
	return &p.shards[u&p.mask]
}

// readKeys looks up every key of the list keys in the treap rooted at
// root, writing each key's multiplicity (0 = absent) and time label to
// cnt and ts. Keys descend eight abreast, one level per sweep: a lookup
// in a large treap is a chain of cache misses, and eight independent
// chains overlap where one find after another would wait out each miss
// in turn.
func (sh *treapShard) readKeys(root uint32, keys, cnt, ts []uint32) {
	var cur [8]uint32
	for len(keys) > 0 {
		b := min(len(keys), len(cur))
		for i := 0; i < b; i++ {
			cur[i], cnt[i] = root, 0
		}
		for live := root != nilNode; live; {
			live = false
			for i := 0; i < b; i++ {
				if cur[i] == nilNode {
					continue
				}
				n := &sh.nodes[cur[i]]
				switch k := keys[i]; {
				case k == n.key:
					cnt[i], ts[i], cur[i] = n.cnt, n.ts, nilNode
				case k < n.key:
					cur[i], live = n.l, true
				default:
					cur[i], live = n.r, true
				}
			}
		}
		keys, cnt, ts = keys[b:], cnt[b:], ts[b:]
	}
}
