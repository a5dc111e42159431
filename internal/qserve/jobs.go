package qserve

import (
	"encoding/json"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"snapdyn/internal/centrality"
)

// Sampled betweenness is served as an offline job, not a query: a
// Brandes sweep over k sampled sources costs k full traversals —
// orders of magnitude above the admission-pooled kinds — so it runs in
// a background goroutine outside admission (it must not pin a slot for
// minutes) and is polled for progress. Allocation-free steady state is
// explicitly waived for jobs: per-job worker state is allocated each
// run (the documented exception; jobs are rare and long).

// VertexScore pairs an original vertex id with its score.
type VertexScore struct {
	V     uint32  `json:"v"`
	Score float64 `json:"score"`
}

// BetweennessReply is the result of one sampled-betweenness job:
// approximate scores from `Sources` sampled roots (Brandes, normalized
// by n/|Sources|), reported as the top-k vertices by score in original
// id space.
type BetweennessReply struct {
	Sources int           `json:"sources"`
	TopK    []VertexScore `json:"topK"`
	Epoch   uint64        `json:"epoch"`
}

// BetweennessRunner is implemented by backends that can run the offline
// sampled-betweenness job. The single store implements it for CSR
// layouts (plain and reordered; the compressed layout fails the job);
// the shard fleet does not (the Brandes engine needs a resident global
// CSR no shard has), and the job endpoint answers 501 there.
type BetweennessRunner interface {
	RunBetweenness(samples int, seed uint64, topk int, progress func(done, total int)) (BetweennessReply, error)
}

var _ BetweennessRunner = (*single)(nil)

// RunBetweenness runs one sampled-betweenness sweep against the current
// snapshot, blocking until done (callers wrap it in a goroutine — the
// job table in the HTTP layer does). Sources are sampled in the
// snapshot's layout space, so the sampled set — and therefore the
// approximate scores — can differ across layouts for the same seed;
// the job is approximate by construction and carries no bit-identity
// guarantee.
func (b *single) RunBetweenness(samples int, seed uint64, topk int, progress func(done, total int)) (BetweennessReply, error) {
	epoch := b.mgr.Epoch()
	v := b.mgr.View()
	if v.C != nil {
		return BetweennessReply{}, ErrUnsupported
	}
	srcs := centrality.SampleSources(v.G, samples, seed)
	bc := centrality.Betweenness(b.cfg.Workers, v.G, centrality.Options{
		Sources:   srcs,
		Normalize: true,
		Strategy:  b.cfg.strategy(),
		Progress:  progress,
	})
	reply := BetweennessReply{Sources: len(srcs), Epoch: epoch}
	reply.TopK = topScores(bc, v.Inv, topk)
	return reply, nil
}

// topScores selects the k highest-scoring vertices (original ids; inv
// translates layout ids back when non-nil) by insertion into a small
// sorted buffer — O(n·k) with k small.
func topScores(bc []float64, inv []uint32, k int) []VertexScore {
	if k > len(bc) {
		k = len(bc)
	}
	top := make([]VertexScore, 0, k)
	for p, score := range bc {
		if len(top) == k && score <= top[k-1].Score {
			continue
		}
		orig := uint32(p)
		if inv != nil {
			orig = inv[p]
		}
		i := len(top)
		if i < k {
			top = append(top, VertexScore{})
		} else {
			i = k - 1
		}
		for i > 0 && top[i-1].Score < score {
			top[i] = top[i-1]
			i--
		}
		top[i] = VertexScore{V: orig, Score: score}
	}
	return top
}

// Job limits: at most maxRunningJobs sweeps at once (more shed with
// 503), at most maxRetainedJobs finished jobs kept for polling.
const (
	maxRunningJobs  = 2
	maxRetainedJobs = 64

	defaultJobSamples = 16
	maxJobSamples     = 256
	defaultJobTopK    = 10
	maxJobTopK        = 100
)

// JobStatus is the wire form of one job's state, served by
// GET /v1/jobs/{id} (and returned by the POST that starts it).
type JobStatus struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State string `json:"state"` // "running", "done", "failed"
	// Done/Total report traversal progress (sources finished).
	Done      int     `json:"done"`
	Total     int     `json:"total"`
	ElapsedMs float64 `json:"elapsedMs"`
	Error     string  `json:"error,omitempty"`
	// Result is set once State is "done".
	Result *BetweennessReply `json:"result,omitempty"`
}

type betwJob struct {
	id          string
	started     time.Time
	done, total atomic.Int64

	mu     sync.Mutex
	state  string
	reply  BetweennessReply
	errMsg string
	ms     float64
}

func (j *betwJob) status() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := JobStatus{
		ID:    j.id,
		Kind:  "betweenness",
		State: j.state,
		Done:  int(j.done.Load()),
		Total: int(j.total.Load()),
	}
	switch j.state {
	case "running":
		st.ElapsedMs = durMs(time.Since(j.started))
	case "done":
		st.ElapsedMs = j.ms
		r := j.reply
		st.Result = &r
	case "failed":
		st.ElapsedMs = j.ms
		st.Error = j.errMsg
	}
	return st
}

// jobTable tracks background jobs for the HTTP layer.
type jobTable struct {
	mu      sync.Mutex
	seq     int
	running int
	jobs    map[string]*betwJob
	order   []string
}

func newJobTable() *jobTable { return &jobTable{jobs: map[string]*betwJob{}} }

func (t *jobTable) get(id string) *betwJob {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.jobs[id]
}

// start registers a new job if a slot is free; ok=false means the
// running-job bound is hit (the job-level shed).
func (t *jobTable) start() (*betwJob, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.running >= maxRunningJobs {
		return nil, false
	}
	t.running++
	t.seq++
	j := &betwJob{id: "bw-" + strconv.Itoa(t.seq), state: "running", started: time.Now()}
	t.jobs[j.id] = j
	t.order = append(t.order, j.id)
	for len(t.order) > maxRetainedJobs {
		old := t.order[0]
		if t.jobs[old].state == "running" {
			break // never evict a running job; retry at the next start
		}
		delete(t.jobs, old)
		t.order = t.order[1:]
	}
	return j, true
}

func (t *jobTable) finish() {
	t.mu.Lock()
	t.running--
	t.mu.Unlock()
}

// handleJobStart serves POST /v1/jobs/betweenness: it validates the
// parameters, starts the sweep in the background, and replies 202 with
// the job id to poll.
func (s *Server) handleJobStart(w http.ResponseWriter, r *http.Request) {
	var runner BetweennessRunner
	if ex, ok := s.eng.(interface{ Backend() Backend }); ok {
		runner, _ = ex.Backend().(BetweennessRunner)
	}
	if runner == nil {
		v1Error(w, ErrUnsupported)
		return
	}
	q := r.URL.Query()
	samples := defaultJobSamples
	if v := q.Get("samples"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil || p <= 0 {
			v1Error(w, badParam("samples", errNotPositive))
			return
		}
		samples = min(p, maxJobSamples)
	}
	var seed uint64 = 1
	if v := q.Get("seed"); v != "" {
		p, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			v1Error(w, badParam("seed", err))
			return
		}
		seed = p
	}
	topk := defaultJobTopK
	if v := q.Get("topk"); v != "" {
		p, err := strconv.Atoi(v)
		if err != nil || p <= 0 {
			v1Error(w, badParam("topk", errNotPositive))
			return
		}
		topk = min(p, maxJobTopK)
	}
	j, ok := s.jobs.start()
	if !ok {
		v1Error(w, ErrOverloaded)
		return
	}
	j.total.Store(int64(samples))
	go func() {
		reply, err := runner.RunBetweenness(samples, seed, topk, func(done, total int) {
			j.done.Store(int64(done))
			j.total.Store(int64(total))
		})
		ms := durMs(time.Since(j.started))
		j.mu.Lock()
		j.ms = ms
		if err != nil {
			j.state, j.errMsg = "failed", err.Error()
		} else {
			j.state, j.reply = "done", reply
		}
		j.mu.Unlock()
		s.jobs.finish()
	}()
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusAccepted)
	json.NewEncoder(w).Encode(j.status())
}

// handleJobGet serves GET /v1/jobs/{id}.
func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j := s.jobs.get(r.PathValue("id"))
	if j == nil {
		v1Error(w, badParam("id", errUnknownJob))
		return
	}
	writeJSON(w, j.status())
}
