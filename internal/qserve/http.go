package qserve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Server exposes a query Engine over HTTP/JSON — the snapserve
// daemon's handler set, engine-agnostic: the same routes serve a
// single-snapshot Executor or a sharded fleet.
//
// The query surface is generated from the kind registry: every
// registered kind is served at GET /v1/query/<kind> with a typed
// envelope (kind, epoch served, cache disposition, structured error
// codes) and, for compatibility, at GET /query/<kind> with the kind's
// flat legacy reply and string-only error body. Both routes decode,
// gate, and dispatch identically; only the response framing
// differs. /stats, /healthz, and /ingest exist at both roots too;
// offline jobs (sampled betweenness) are v1-only. Query endpoints go
// through the engine's admission control (503 when shed); /ingest
// applies update batches through the engine's refresh gate(s), so it
// is safe concurrently with background auto-refreshers; /healthz and
// /stats bypass admission so the service stays observable under
// overload.
type Server struct {
	eng Engine
	// undirected mirrors ingest batches, matching the facade's
	// undirected Graph semantics.
	undirected    bool
	ingestWorkers int
	maxBody       int64 // MaxIngestBody; tests shrink it
	staleWait     time.Duration
	jobs          *jobTable
}

// DefaultStaleWait bounds how long a query with a minEpoch constraint
// waits for the snapshot to catch up before failing with 503.
const DefaultStaleWait = 2 * time.Second

// NewServer wraps a query engine. ingestWorkers is the parallelism of
// batch application; undirected mirrors every ingested update.
func NewServer(eng Engine, undirected bool, ingestWorkers int) *Server {
	return &Server{eng: eng, undirected: undirected, ingestWorkers: ingestWorkers,
		maxBody: MaxIngestBody, staleWait: DefaultStaleWait, jobs: newJobTable()}
}

// SetStaleWait overrides the minEpoch wait bound (tests use short
// values). Call before serving.
func (s *Server) SetStaleWait(d time.Duration) { s.staleWait = d }

// Handler returns the route table, generated from the kind registry.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, sp := range Specs() {
		mux.HandleFunc("GET /query/"+sp.Name(), s.queryHandler(sp, false))
		mux.HandleFunc("GET /v1/query/"+sp.Name(), s.queryHandler(sp, true))
	}
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /v1/healthz", s.handleHealthz)
	mux.HandleFunc("POST /ingest", s.ingestHandler(false))
	mux.HandleFunc("POST /v1/ingest", s.ingestHandler(true))
	mux.HandleFunc("POST /v1/jobs/betweenness", s.handleJobStart)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	return mux
}

// Envelope is the v1 query response frame: the kind that answered, the
// epoch lower bound served, how the cache was involved ("hit", "miss",
// "bypass", or "live"), and the kind's reply as data.
type Envelope struct {
	Kind  string `json:"kind"`
	Epoch uint64 `json:"epoch"`
	Cache string `json:"cache"`
	Data  any    `json:"data"`
}

// queryHandler builds the handler for one registered kind: decode →
// minEpoch gate → engine dispatch → encode, identical on both
// routes; v1 selects the envelope framing and structured errors.
func (s *Server) queryHandler(sp *Spec, v1 bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		a, err := sp.Decode(r.URL.Query())
		if err != nil {
			s.fail(w, v1, err)
			return
		}
		if err := s.waitMinEpoch(r); err != nil {
			s.fail(w, v1, err)
			return
		}
		res, err := s.eng.Query(sp, a)
		if err != nil {
			s.fail(w, v1, err)
			return
		}
		body := sp.Encode(a, res)
		if v1 {
			writeJSON(w, Envelope{Kind: sp.Name(), Epoch: res.Epoch,
				Cache: res.Cache.String(), Data: body})
			return
		}
		writeJSON(w, body)
	}
}

func (s *Server) fail(w http.ResponseWriter, v1 bool, err error) {
	if v1 {
		v1Error(w, err)
		return
	}
	httpError(w, err)
}

// IngestReply acknowledges a batch.
type IngestReply struct {
	Applied   int    `json:"applied"`
	Epoch     uint64 `json:"epoch"`
	Staleness int    `json:"staleness"`
}

// Health is the /healthz body: snapshot version and lag plus refresh
// and admission activity.
type Health struct {
	Status        string   `json:"status"`
	Epoch         uint64   `json:"epoch"`
	Staleness     int      `json:"staleness"`
	SnapshotAgeMs float64  `json:"snapshotAgeMs"`
	Refreshes     uint64   `json:"refreshes"`
	AutoRefreshes uint64   `json:"autoRefreshes"`
	LastRefreshMs float64  `json:"lastRefreshMs"`
	MaxRefreshMs  float64  `json:"maxRefreshMs"`
	Counters      Counters `json:"counters"`
}

// waitMinEpoch honors an optional minEpoch query parameter: the
// read-your-writes handshake. A client holding the ack epoch from
// /ingest passes it back as minEpoch and is guaranteed to observe its
// writes — or get a retryable 503 (ErrStale) if the snapshot does not
// publish within the staleness bound.
func (s *Server) waitMinEpoch(r *http.Request) error {
	v := r.URL.Query().Get("minEpoch")
	if v == "" {
		return nil
	}
	min, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return badParam("minEpoch", err)
	}
	if _, err := s.eng.WaitEpoch(min, s.staleWait); err != nil {
		return fmt.Errorf("%w: epoch %d not published within %v", ErrStale, min, s.staleWait)
	}
	return nil
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, s.eng.Stats())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	met := s.eng.Metrics()
	writeJSON(w, Health{
		Status:        "ok",
		Epoch:         met.Epoch,
		Staleness:     met.Staleness,
		SnapshotAgeMs: durMs(met.Age),
		Refreshes:     met.Refreshes,
		AutoRefreshes: met.AutoRefreshes,
		LastRefreshMs: durMs(met.LastLatency),
		MaxRefreshMs:  durMs(met.MaxLatency),
		Counters:      s.eng.Counters(),
	})
}

// MaxIngestBody bounds a POST /ingest body: 64 MiB holds a batch of a
// million updates at the wire form's longest (ten-digit ids and labels,
// an explicit op). A larger body is cut off at the limit and refused
// with 413, so one request cannot make the server buffer without bound.
const MaxIngestBody = 64 << 20

// ingestHandler builds the POST /ingest handler; like queryHandler, v1
// selects structured error bodies.
func (s *Server) ingestHandler(v1 bool) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		buf := ingestPool.Get().(*ingestBuf)
		defer putIngestBuf(buf)
		applied, err := decodeIngest(http.MaxBytesReader(w, r.Body, s.maxBody),
			uint32(s.eng.NumVertices()), s.undirected, buf)
		if err != nil {
			s.fail(w, v1, err)
			return
		}
		epoch, err := s.eng.Ingest(s.ingestWorkers, buf.batch)
		if err != nil {
			s.fail(w, v1, err)
			return
		}
		// Epoch is the ack epoch: pass it back as minEpoch on a query to
		// read your writes. On the durable path the updates are fsynced by
		// the time this reply is written.
		writeJSON(w, IngestReply{Applied: applied, Epoch: epoch, Staleness: s.eng.Metrics().Staleness})
	}
}

// errBadRequest wraps parameter errors so httpError maps them to 400.
type errBadRequest struct{ error }

// errTooLarge marks a request body over its limit: 413.
type errTooLarge struct{ error }

func badParam(name string, err error) error {
	return errBadRequest{fmt.Errorf("bad %s: %w", name, err)}
}

var (
	errNotPositive = errors.New("want a positive integer")
	errUnknownJob  = errors.New("unknown job id")
)

// errStatus maps an error to its HTTP status and v1 error code.
func errStatus(err error) (int, string) {
	var bad errBadRequest
	var tooLarge errTooLarge
	switch {
	case errors.Is(err, ErrOverloaded):
		return http.StatusServiceUnavailable, "overloaded"
	case errors.Is(err, ErrStale):
		return http.StatusServiceUnavailable, "stale"
	case errors.Is(err, ErrBadVertex):
		return http.StatusBadRequest, "bad_vertex"
	case errors.As(err, &bad):
		return http.StatusBadRequest, "bad_request"
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge, "too_large"
	case errors.Is(err, ErrUnsupported):
		return http.StatusNotImplemented, "unsupported"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// httpError writes the legacy error body: {"error": "<message>"}.
func httpError(w http.ResponseWriter, err error) {
	code, _ := errStatus(err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}

// v1Error writes the structured v1 error body:
// {"error": {"code": "...", "message": "..."}}.
func v1Error(w http.ResponseWriter, err error) {
	code, slug := errStatus(err)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]map[string]string{
		"error": {"code": slug, "message": err.Error()},
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

func durMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
