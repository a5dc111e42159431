package main

import (
	"bytes"
	"fmt"
	"strconv"

	"snapdyn/internal/cc"
	"snapdyn/internal/csr"
	"snapdyn/internal/edge"
	"snapdyn/internal/rmat"
	"snapdyn/internal/workload"
	"snapdyn/internal/xrand"
)

// mixKind is one entry of registry-mix: a registered query kind (or a
// mode of one) and its share of the query stream.
type mixKind struct {
	name   string // metric suffix and report label
	spec   string // registry wire name, the <kind> in /v1/query/<kind>
	weight float64
	point  bool // a point kind: counted into point_p50_ms / point_p95_ms
	live   bool // connected?live=1
	global bool // takes no vertex operand
}

// registryMix is the query mix every workload draws from. The weights
// follow an analyst session: mostly traversals from an entity of
// interest, frequent pair checks (some of them on the live index), and
// an occasional component census.
var registryMix = []mixKind{
	{name: "bfs", spec: "bfs", weight: 0.40, point: true},
	{name: "sssp", spec: "sssp", weight: 0.15, point: true},
	{name: "khop", spec: "khop", weight: 0.15, point: true},
	{name: "connected", spec: "connected", weight: 0.20, point: true},
	{name: "connected-live", spec: "connected", weight: 0.07, live: true},
	{name: "components", spec: "components", weight: 0.03, global: true},
	// Weight 0: issued on the schedule below, never drawn.
	{name: "clustering", spec: "clustering", global: true},
	{name: "pagerank", spec: "pagerank", global: true},
}

// scheduled places the two heavy whole-graph kinds at fixed fractions
// of the window, once each. At scale 16 a clustering miss costs about
// 0.6 s and a PageRank miss about 1 s: drawn at any useful weight they
// would own most of a cold workload's time, and the chance count of
// them in a window would swing query_qps by tens of percent. On a
// schedule they get traffic on every workload and cost every run the
// same.
var scheduled = []struct {
	at   float64
	kind string
}{
	{0.25, "clustering"},
	{0.60, "pagerank"},
}

// khopK is the neighbourhood depth every khop query asks for.
const khopK = 2

// edgeFactor is the served graph's edges per vertex (`snapserve
// -edgefactor`).
const edgeFactor = 8

// churnLag is how many batches an insert lives before the churn stream
// deletes it again, which keeps the graph's size stationary.
const churnLag = 8

// query is one generated query: an index into registryMix and its
// vertex operands.
type query struct {
	kind uint8
	u, v uint32
}

// path renders the query's request path on the v1 surface.
func (q query) path(dst []byte) []byte {
	k := registryMix[q.kind]
	dst = append(dst, "/v1/query/"...)
	dst = append(dst, k.spec...)
	switch {
	case k.global:
	case k.spec == "connected":
		dst = append(dst, "?u="...)
		dst = strconv.AppendUint(dst, uint64(q.u), 10)
		dst = append(dst, "&v="...)
		dst = strconv.AppendUint(dst, uint64(q.v), 10)
		if k.live {
			dst = append(dst, "&live=1"...)
		}
	case k.spec == "khop":
		dst = append(dst, "?src="...)
		dst = strconv.AppendUint(dst, uint64(q.u), 10)
		dst = append(dst, "&k="...)
		dst = strconv.AppendUint(dst, khopK, 10)
	default:
		dst = append(dst, "?src="...)
		dst = strconv.AppendUint(dst, uint64(q.u), 10)
	}
	return dst
}

// queryGen draws a deterministic query stream: kinds by the
// benchmark's own seeded draw over registryMix, vertex operands by
// internal/workload's Zipf generator over a source pool.
type queryGen struct {
	pool []uint32
	// targets is how many of the pool's first entries a connected
	// query's second operand is drawn from.
	targets int
	rank    *workload.Generator
	rng     *xrand.State
	cum     []float64
}

func newQueryGen(pool []uint32, targets int, zipfS float64, seed uint64) *queryGen {
	if targets <= 0 || targets > len(pool) {
		targets = len(pool)
	}
	g := &queryGen{
		pool: pool, targets: targets,
		// A connected-only mix makes every Next() a pair of source
		// draws and nothing else.
		rank: workload.NewGenerator(workload.Config{
			Vertices: len(pool), ZipfS: zipfS,
			Mix: workload.Mix{Connected: 1}, Seed: seed,
		}),
		rng: xrand.New(seed ^ 0x9e3779b97f4a7c15),
	}
	total := 0.0
	for _, k := range registryMix {
		total += k.weight
	}
	acc := 0.0
	for _, k := range registryMix {
		acc += k.weight / total
		g.cum = append(g.cum, acc)
	}
	g.cum[len(g.cum)-1] = 1
	return g
}

func (g *queryGen) next() query {
	r := g.rng.Float64()
	kind := 0
	for kind < len(g.cum)-1 && r >= g.cum[kind] {
		kind++
	}
	pair := g.rank.Next()
	return query{kind: uint8(kind), u: g.pool[pair.U], v: g.pool[int(pair.V)%g.targets]}
}

// sample draws a query of the given kind with uniform operands — the
// sampler the correctness gate uses.
func (g *queryGen) sample(kind int) query {
	return query{kind: uint8(kind),
		u: g.pool[g.rng.Intn(len(g.pool))], v: g.pool[g.rng.Intn(len(g.pool))]}
}

// churnGen is the stationary update stream: batch k carries up to
// size/2 fresh R-MAT inserts and the deletes of batch k-churnLag's
// inserts. The first insert of every batch is the read-your-writes
// probe edge and is never deleted, so a probe cannot race its own
// deletion.
//
// No vertex pair appears twice in one batch. The store applies a small
// batch with concurrent workers and no per-vertex order, so an insert
// and a delete of one pair (or two inserts carrying different time
// labels) in the same batch would leave a state that depends on
// scheduling — and the oracle could not replay it.
type churnGen struct {
	params  rmat.Params
	size    int
	k       int
	history [churnLag][]edge.Edge
}

func newChurnGen(scale, size int, seed uint64) *churnGen {
	return &churnGen{params: rmat.PaperParams(scale, size/2, 100, seed^0xc2b2ae3d27d4eb4f), size: size}
}

func pairKey(e edge.Edge) [2]uint32 {
	return [2]uint32{min(e.U, e.V), max(e.U, e.V)}
}

// next returns batch k as directed updates (the server mirrors them).
func (c *churnGen) next() []edge.Update {
	p := c.params
	p.Seed += uint64(c.k) * 0x9e3779b97f4a7c15
	fresh, err := rmat.Generate(1, p)
	if err != nil {
		panic(err) // the parameters are the paper's constants
	}
	slot := c.k % churnLag
	old := c.history[slot]
	if len(old) > 0 {
		old = old[1:] // the probe edge stays
	}
	inBatch := make(map[[2]uint32]bool, c.size)
	for _, e := range old {
		inBatch[pairKey(e)] = true
	}
	batch := make([]edge.Update, 0, c.size)
	ins := fresh[:0]
	for _, e := range fresh {
		if k := pairKey(e); !inBatch[k] {
			inBatch[k] = true
			ins = append(ins, e)
			batch = append(batch, edge.Update{Edge: e, Op: edge.Insert})
		}
	}
	for _, e := range old {
		batch = append(batch, edge.Update{Edge: e, Op: edge.Delete})
	}
	c.history[slot] = ins
	c.k++
	return batch
}

// encodeBatch renders a batch as the /ingest JSON body.
func encodeBatch(buf *bytes.Buffer, batch []edge.Update) {
	buf.Reset()
	buf.WriteByte('[')
	var num [20]byte
	for i, up := range batch {
		if i > 0 {
			buf.WriteByte(',')
		}
		buf.WriteString(`{"u":`)
		buf.Write(strconv.AppendUint(num[:0], uint64(up.U), 10))
		buf.WriteString(`,"v":`)
		buf.Write(strconv.AppendUint(num[:0], uint64(up.V), 10))
		buf.WriteString(`,"t":`)
		buf.Write(strconv.AppendUint(num[:0], uint64(up.T), 10))
		if up.Op == edge.Delete {
			buf.WriteString(`,"op":"delete"`)
		}
		buf.WriteByte('}')
	}
	buf.WriteByte(']')
}

// graphInput is everything the generator derives from the seed before
// a server exists: the initial edge list (identical to what
// `snapserve -scale S -edgefactor 8 -seed N` generates) and the giant
// component the source pools are drawn from.
type graphInput struct {
	scale int
	seed  uint64
	n     int
	edges []edge.Edge
	giant []uint32
}

func makeGraphInput(scale int, seed uint64) (*graphInput, error) {
	n := 1 << scale
	edges, err := rmat.Generate(0, rmat.PaperParams(scale, edgeFactor*n, 100, seed))
	if err != nil {
		return nil, fmt.Errorf("generating R-MAT input: %w", err)
	}
	g := csr.FromEdges(0, n, edges, true)
	comp := cc.Components(0, g)
	label, _ := cc.Largest(0, comp)
	in := &graphInput{scale: scale, seed: seed, n: n, edges: edges}
	for v, c := range comp {
		if c == label {
			in.giant = append(in.giant, uint32(v))
		}
	}
	return in, nil
}

// hotPool picks k distinct giant-component vertices by seeded draw.
func (in *graphInput) hotPool(k int, seed uint64) []uint32 {
	if k > len(in.giant) {
		k = len(in.giant)
	}
	perm := make([]int, len(in.giant))
	xrand.New(seed ^ 0x165667b19e3779f9).Perm(perm)
	pool := make([]uint32, k)
	for i := range pool {
		pool[i] = in.giant[perm[i]]
	}
	return pool
}
