// Package serve is the overload-safe pricing service: an HTTP/JSON front end
// over a sharded pool of warm wrht.SweepSession caches, engineered so that
// sustained overload degrades the API surface instead of the process.
//
// The request path is: drain gate → strict JSON decode (bounded body) →
// normalize/validate (400) → degrade tier check (503, expensive classes
// first) → bounded admission (429 on a full queue in microseconds, 504 on a
// deadline spent queueing) → singleflight coalescing keyed by the canonical
// request (identical concurrent queries run one simulation) → context-bound
// pricing on a session shard (engines poll cancellation at event
// boundaries) → JSON response. Panics in the engines are confined to the
// request: the key is quarantined, the caller gets 500, and the server
// keeps serving. SIGTERM (via Drain) stops admission and completes every
// in-flight request with zero drops.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"wrht"
	"wrht/internal/obs"
)

// ClassLimits bounds one admission class.
type ClassLimits struct {
	// Workers is the class's concurrent execution limit.
	Workers int
	// Queue is how many requests may wait beyond the workers before the
	// class sheds with 429.
	Queue int
	// Deadline is the default per-request latency budget; requests may ask
	// for less (never more than Config.MaxDeadline).
	Deadline time.Duration
}

func (l ClassLimits) withDefaults(workers, queue int, d time.Duration) ClassLimits {
	if l.Workers <= 0 {
		l.Workers = workers
	}
	if l.Queue <= 0 {
		l.Queue = queue
	}
	if l.Deadline <= 0 {
		l.Deadline = d
	}
	return l
}

// Config parameterizes a Server. The zero value serves with sane defaults.
type Config struct {
	// Shards is the number of warm SweepSession caches; requests map to
	// shards by request-key hash, so identical queries always hit the same
	// warm cache while distinct heavy queries spread their cache footprint.
	Shards int
	// Point, Fabric, Fleet and Sweep bound the four admission classes.
	Point, Fabric, Fleet, Sweep ClassLimits
	// MaxDeadline caps any client-requested deadline.
	MaxDeadline time.Duration
	// MaxBodyBytes bounds request bodies (strict JSON decode).
	MaxBodyBytes int64
	// DegradeHi/DegradeLo/DegradeUpHold/DegradeHold tune the degrade
	// hysteresis: queue pressure >= Hi sustained for UpHold steps the tier
	// up (transient bursts stay on the 429 shed path), pressure <= Lo
	// sustained for Hold steps it back down.
	DegradeHi, DegradeLo       float64
	DegradeUpHold, DegradeHold time.Duration
	// Now is the clock (tests inject a fake one for hysteresis).
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	procs := runtime.GOMAXPROCS(0)
	if c.Shards <= 0 {
		c.Shards = 4
	}
	c.Point = c.Point.withDefaults(procs, 256, 2*time.Second)
	c.Fabric = c.Fabric.withDefaults(max(2, procs/2), 64, 15*time.Second)
	c.Fleet = c.Fleet.withDefaults(2, 16, 30*time.Second)
	c.Sweep = c.Sweep.withDefaults(1, 4, 60*time.Second)
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 2 * time.Minute
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Server is the pricing service. Construct with New, mount Handler, stop
// with Drain.
type Server struct {
	cfg     Config
	shards  []*wrht.SweepSession
	admits  [numClasses]*admitter
	limits  [numClasses]ClassLimits
	deg     *degrader
	flights *flightGroup
	rec     *obs.Recorder
	mux     *http.ServeMux
	start   time.Time

	mu       sync.Mutex
	draining bool
	wg       sync.WaitGroup
	inflight atomic.Int64
}

// New builds a Server with warm (empty) session shards.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		flights: newFlightGroup(),
		rec:     obs.New(),
		mux:     http.NewServeMux(),
		start:   cfg.Now(),
	}
	s.shards = make([]*wrht.SweepSession, cfg.Shards)
	for i := range s.shards {
		s.shards[i] = wrht.NewSweepSession()
	}
	s.limits = [numClasses]ClassLimits{
		ClassPoint:  cfg.Point,
		ClassFabric: cfg.Fabric,
		ClassFleet:  cfg.Fleet,
		ClassSweep:  cfg.Sweep,
	}
	for c := Class(0); c < numClasses; c++ {
		s.admits[c] = newAdmitter(s.limits[c].Workers, s.limits[c].Queue)
	}
	s.deg = newDegrader(degradeConfig{
		Hi: cfg.DegradeHi, Lo: cfg.DegradeLo,
		UpHold: cfg.DegradeUpHold, Hold: cfg.DegradeHold,
	}, cfg.Now)

	register(s, "/v1/commtime", ClassPoint,
		(*CommTimeRequest).normalize,
		func(r *CommTimeRequest) int64 { return r.DeadlineMillis },
		runCommTime)
	register(s, "/v1/fabric", ClassFabric,
		(*FabricRequest).normalize,
		func(r *FabricRequest) int64 { return r.DeadlineMillis },
		runFabric)
	register(s, "/v1/fleet", ClassFleet,
		(*FleetRequest).normalize,
		func(r *FleetRequest) int64 { return r.DeadlineMillis },
		runFleet)
	register(s, "/v1/sweep", ClassSweep,
		(*SweepRequest).normalize,
		func(r *SweepRequest) int64 { return r.DeadlineMillis },
		runSweep)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metricsz", s.handleMetricsz)
	return s
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// enter registers one request with the drain gate; false means the server
// is draining and the request must be turned away.
func (s *Server) enter() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	s.wg.Add(1)
	s.inflight.Add(1)
	return true
}

func (s *Server) leave() {
	s.inflight.Add(-1)
	s.wg.Done()
}

// Drain stops admitting new requests and waits for every in-flight request
// to complete. It returns the number of requests that were in flight when
// the drain began and nil once all of them finished; a canceled context
// abandons the wait (the requests keep running) and returns its error.
// Drain is idempotent.
func (s *Server) Drain(ctx context.Context) (int, error) {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	n := int(s.inflight.Load())
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return n, nil
	case <-ctx.Done():
		return n, ctx.Err()
	}
}

// Draining reports whether Drain has begun.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error  string `json:"error"`
	Status int    `json:"status"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorBody{Error: fmt.Sprintf(format, args...), Status: status})
}

// register mounts one pricing endpoint with the full overload pipeline.
func register[T any](s *Server, path string, class Class,
	norm func(*T) error,
	deadline func(*T) int64,
	run func(context.Context, *wrht.SweepSession, T) (any, error)) {
	s.mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
		serveOne(s, path, class, norm, deadline, run, w, r)
	})
}

func serveOne[T any](s *Server, path string, class Class,
	norm func(*T) error,
	deadline func(*T) int64,
	run func(context.Context, *wrht.SweepSession, T) (any, error),
	w http.ResponseWriter, r *http.Request) {
	t0 := s.cfg.Now()
	if !s.enter() {
		w.Header().Set("Connection", "close")
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	defer s.leave()
	status := serveAdmitted(s, path, class, norm, deadline, run, w, r)
	names := &classMetrics[class]
	if status == http.StatusOK {
		s.rec.Add(names.ok, 1)
	} else {
		s.rec.Add(fmt.Sprintf("serve.%s.%d", class, status), 1)
	}
	s.rec.Hist(names.latency).Observe(s.cfg.Now().Sub(t0).Seconds())
}

// classMetrics holds each class's per-request metric names, formatted once:
// the success counter serve.<class>.200 and the histogram
// serve.latency.<class>.
var classMetrics = func() (m [numClasses]struct{ ok, latency string }) {
	for c := range numClasses {
		m[c].ok = fmt.Sprintf("serve.%s.%d", c, http.StatusOK)
		m[c].latency = "serve.latency." + c.String()
	}
	return m
}()

// serveAdmitted runs the post-drain-gate pipeline and returns the HTTP
// status it wrote.
func serveAdmitted[T any](s *Server, path string, class Class,
	norm func(*T) error,
	deadline func(*T) int64,
	run func(context.Context, *wrht.SweepSession, T) (any, error),
	w http.ResponseWriter, r *http.Request) int {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return http.StatusMethodNotAllowed
	}
	var req T
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return http.StatusBadRequest
	}
	if err := norm(&req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return http.StatusBadRequest
	}

	// Degrade check: fold the worst queue pressure into the tier and shed
	// the expensive classes while degraded.
	tier := s.deg.observe(s.maxPressure())
	if s.deg.rejects(tier, class) {
		s.rec.Add("serve.degraded."+class.String(), 1)
		w.Header().Set("Retry-After", "2")
		writeError(w, http.StatusServiceUnavailable, "degraded (tier %d): %s requests temporarily rejected", tier, class)
		return http.StatusServiceUnavailable
	}

	// Deadline: class default, tightened by the client, capped globally.
	budget := s.limits[class].Deadline
	if ms := deadline(&req); ms > 0 {
		if d := time.Duration(ms) * time.Millisecond; d < budget {
			budget = d
		}
	}
	if budget > s.cfg.MaxDeadline {
		budget = s.cfg.MaxDeadline
	}
	ctx, cancel := context.WithTimeout(r.Context(), budget)
	defer cancel()

	// Bounded admission.
	release, outcome := s.admits[class].admit(ctx)
	switch outcome {
	case shedQueueFull:
		s.rec.Add("serve.shed."+class.String(), 1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%s queue full", class)
		return http.StatusTooManyRequests
	case shedDeadline:
		s.rec.Add("serve.queue_timeout."+class.String(), 1)
		writeError(w, http.StatusGatewayTimeout, "deadline expired while queued for %s", class)
		return http.StatusGatewayTimeout
	}
	defer release()

	// Coalesced, panic-isolated execution on the key's session shard.
	key := requestKey(path, req)
	shard := s.shards[shardOf(key, len(s.shards))]
	val, err, shared := s.flights.do(key, func() (any, error) {
		if testHook != nil {
			testHook(path, key)
		}
		return run(ctx, shard, req)
	})
	if shared {
		s.rec.Add("serve.coalesced."+class.String(), 1)
	}
	if err != nil {
		return s.writeRunError(w, class, err)
	}
	writeJSON(w, http.StatusOK, withCoalesced(val, shared))
	return http.StatusOK
}

// writeRunError maps a pricing error to its HTTP status.
func (s *Server) writeRunError(w http.ResponseWriter, class Class, err error) int {
	switch {
	case errors.Is(err, errQuarantined), errors.Is(err, errPanicked):
		s.rec.Add("serve.panic."+class.String(), 1)
		writeError(w, http.StatusInternalServerError, "%v", err)
		return http.StatusInternalServerError
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		s.rec.Add("serve.deadline."+class.String(), 1)
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded during pricing")
		return http.StatusGatewayTimeout
	default:
		// Everything else is a payload the engines rejected.
		writeError(w, http.StatusBadRequest, "%v", err)
		return http.StatusBadRequest
	}
}

// withCoalesced stamps the shared flag into the typed response value.
func withCoalesced(val any, shared bool) any {
	switch v := val.(type) {
	case CommTimeResponse:
		v.Coalesced = shared
		return v
	case FabricResponse:
		v.Coalesced = shared
		return v
	case FleetResponse:
		v.Coalesced = shared
		return v
	case SweepResponse:
		v.Coalesced = shared
		return v
	}
	return val
}

// maxPressure is the worst admission-queue occupancy across classes.
func (s *Server) maxPressure() float64 {
	p := 0.0
	for c := Class(0); c < numClasses; c++ {
		if q := s.admits[c].pressure(); q > p {
			p = q
		}
	}
	return p
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"ok": true})
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.Draining() {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true, "tier": s.deg.current()})
}

// MetricsBody is the /metricsz JSON document: server counters and latency
// histograms from the flight recorder, plus per-shard cache effectiveness.
type MetricsBody struct {
	UptimeSec   float64           `json:"uptime_sec"`
	Draining    bool              `json:"draining"`
	Tier        int               `json:"tier"`
	Inflight    int64             `json:"inflight"`
	Quarantined int               `json:"quarantined"`
	Counters    map[string]int64  `json:"counters"`
	Latencies   []obs.HistStat    `json:"latencies"`
	Shards      []wrht.CacheStats `json:"shards"`
}

// Metrics assembles the /metricsz document.
func (s *Server) Metrics() MetricsBody {
	snap := s.rec.Snapshot()
	body := MetricsBody{
		UptimeSec:   s.cfg.Now().Sub(s.start).Seconds(),
		Draining:    s.Draining(),
		Tier:        s.deg.current(),
		Inflight:    s.inflight.Load(),
		Quarantined: s.flights.quarantined(),
		Counters:    make(map[string]int64, len(snap.Counters)),
		Latencies:   snap.Hists,
	}
	for _, c := range snap.Counters {
		body.Counters[c.Name] = int64(c.Value)
	}
	for _, ss := range s.shards {
		body.Shards = append(body.Shards, ss.Stats())
	}
	return body
}

func (s *Server) handleMetricsz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.Metrics())
}
