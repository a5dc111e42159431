// Package workload models the serving layer's traffic: skewed source
// popularity (Zipf with tunable exponent, including the s < 1 range
// math/rand's sampler refuses), a weighted query-type mix, and bursty
// open-loop arrivals (an on-off modulated Poisson process), all
// deterministically seeded through internal/xrand so a benchmark run
// is reproducible bit-for-bit from its seed. Apply runs a drawn query
// against any qserve.Engine.
package workload

import (
	"fmt"
	"math"
	"sort"

	"snapdyn/internal/qserve"
	"snapdyn/internal/xrand"
)

// Op is one drawn query.
type Op struct {
	Kind string // "bfs", "sssp", "connected", "components"
	U    uint32
	V    uint32
	// Delta is the SSSP bucket width (0 = the engine's heuristic
	// default — the serving-friendly choice, see qserve.SSSP).
	Delta int64
}

// Mix weighs the query types. Zero-valued fields get no traffic; an
// all-zero Mix defaults to DefaultMix.
type Mix struct {
	BFS        float64
	SSSP       float64
	Connected  float64
	Components float64
}

// DefaultMix is a read-heavy analysis profile: mostly BFS-shaped
// lookups, some weighted distance queries, occasional pair checks,
// and a rare full-graph component census.
var DefaultMix = Mix{BFS: 0.55, SSSP: 0.25, Connected: 0.18, Components: 0.02}

func (m Mix) total() float64 { return m.BFS + m.SSSP + m.Connected + m.Components }

// Config parameterizes a generator.
type Config struct {
	// Vertices is the id space queries draw sources from.
	Vertices int
	// ZipfS is the popularity exponent: vertex of popularity rank k is
	// drawn with probability proportional to 1/k^s. 0 is uniform; 0.8
	// is web-like; 1.2 concentrates most traffic on a few hot sources.
	// Any s >= 0 is accepted (math/rand.Zipf requires s > 1; skewed
	// serving traffic lives on both sides of 1).
	ZipfS float64
	// Mix weighs the query types (zero value = DefaultMix).
	Mix Mix
	// Seed makes the stream deterministic; same seed, same queries.
	Seed uint64
}

// Generator draws a deterministic stream of queries. Not safe for
// concurrent use: give each load goroutine its own (Split derives an
// independent child stream).
type Generator struct {
	cfg  Config
	rng  *xrand.State
	cum  []float64 // Zipf rank CDF; nil when uniform
	rank []uint32  // popularity rank -> vertex id
	mix  [4]float64
}

// NewGenerator builds a generator. The Zipf CDF is one table of
// len = Vertices shared by every Split child.
func NewGenerator(cfg Config) *Generator {
	if cfg.Vertices <= 0 {
		panic("workload: Vertices must be positive")
	}
	if cfg.Mix.total() <= 0 {
		cfg.Mix = DefaultMix
	}
	g := &Generator{cfg: cfg, rng: xrand.New(cfg.Seed)}
	t := cfg.Mix.total()
	g.mix[0] = cfg.Mix.BFS / t
	g.mix[1] = g.mix[0] + cfg.Mix.SSSP/t
	g.mix[2] = g.mix[1] + cfg.Mix.Connected/t
	g.mix[3] = 1
	if cfg.ZipfS > 0 {
		n := cfg.Vertices
		g.cum = make([]float64, n)
		sum := 0.0
		for k := 0; k < n; k++ {
			sum += math.Pow(float64(k+1), -cfg.ZipfS)
			g.cum[k] = sum
		}
		for k := range g.cum {
			g.cum[k] /= sum
		}
		// Which vertices are hot is an arbitrary property of the graph:
		// scatter the popularity ranks over the id space so rank 1 is
		// not always vertex 0.
		perm := make([]int, n)
		g.rng.Perm(perm)
		g.rank = make([]uint32, n)
		for k, v := range perm {
			g.rank[k] = uint32(v)
		}
	}
	return g
}

// Split derives an independent generator sharing the popularity tables
// — one per load goroutine, deterministic regardless of scheduling.
func (g *Generator) Split() *Generator {
	ng := *g
	ng.rng = g.rng.Split()
	return &ng
}

// source draws one vertex by popularity.
func (g *Generator) source() uint32 {
	if g.cum == nil {
		return g.rng.Uint32n(uint32(g.cfg.Vertices))
	}
	u := g.rng.Float64()
	k := sort.SearchFloat64s(g.cum, u)
	if k >= len(g.rank) {
		k = len(g.rank) - 1
	}
	return g.rank[k]
}

// Next draws the next query.
func (g *Generator) Next() Op {
	r := g.rng.Float64()
	switch {
	case r < g.mix[0]:
		return Op{Kind: "bfs", U: g.source()}
	case r < g.mix[1]:
		return Op{Kind: "sssp", U: g.source()}
	case r < g.mix[2]:
		return Op{Kind: "connected", U: g.source(), V: g.source()}
	default:
		return Op{Kind: "components"}
	}
}

// Apply runs op against the engine, returning the reply epoch. Unknown
// kinds are an error, engine errors pass through (shed and stale are
// the caller's business).
func Apply(eng qserve.Engine, op Op) (uint64, error) {
	switch op.Kind {
	case "bfs":
		r, err := eng.BFS(op.U)
		return r.Epoch, err
	case "sssp":
		r, err := eng.SSSP(op.U, op.Delta)
		return r.Epoch, err
	case "connected":
		r, err := eng.Connected(op.U, op.V)
		return r.Epoch, err
	case "components":
		r, err := eng.Components()
		return r.Epoch, err
	default:
		return 0, fmt.Errorf("workload: unknown op kind %q", op.Kind)
	}
}
