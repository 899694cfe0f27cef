package serve

import (
	"context"
	"fmt"
	"hash/fnv"
	"runtime"

	"wrht"
	"wrht/internal/dnn"
)

// Request payload limits. The service answers untrusted JSON, so every axis
// that scales simulation cost is bounded up front; oversized requests fail
// 400 before touching an engine. The bounds are generous against the
// paper's evaluation range (128–1024 nodes) while keeping the worst
// admissible request finite.
const (
	maxNodes        = 4096
	maxWavelengths  = 4096
	maxBytes        = int64(1) << 40 // 1 TiB buffer
	maxFabricJobs   = 256
	maxFleetFabrics = 64
	maxFleetShapes  = 64
	maxFleetJobs    = 20000
	maxSweepPoints  = 4096
	maxIterations   = 10000
)

// testHook, when non-nil, runs inside the coalesced computation (holding the
// caller's admission slot) before the engines are invoked. Tests use it to
// block workers, burn deadlines, and inject panics to prove the overload and
// isolation contracts; production leaves it nil.
var testHook func(endpoint, key string)

// CommTimeRequest prices one all-reduce (POST /v1/commtime).
type CommTimeRequest struct {
	// Nodes is the worker count (required, 2..4096).
	Nodes int
	// Wavelengths overrides the default WDM budget when > 0.
	Wavelengths int
	// Algorithm defaults to "wrht".
	Algorithm wrht.Algorithm
	// Model names a catalog network; when set it overrides Bytes.
	Model string
	// Bytes is the buffer size when Model is empty.
	Bytes int64
	// DeadlineMillis caps this request's latency budget (0: class default).
	DeadlineMillis int64
}

// CommTimeResponse is the success body of /v1/commtime.
type CommTimeResponse struct {
	Result wrht.Result
	// Coalesced reports whether this response rode another in-flight
	// identical request.
	Coalesced bool
}

// FabricRequest co-simulates one tenant mix (POST /v1/fabric).
type FabricRequest struct {
	Nodes          int
	Wavelengths    int
	Jobs           []wrht.JobSpec
	Policy         wrht.FabricPolicy
	Faults         wrht.FaultPlan
	DeadlineMillis int64
}

// FabricResponse is the success body of /v1/fabric.
type FabricResponse struct {
	Result    wrht.FabricResult
	Coalesced bool
}

// FleetRequest co-simulates a multi-fabric fleet (POST /v1/fleet).
type FleetRequest struct {
	// Nodes seeds the base pricing config (default: the largest fabric's
	// ring size).
	Nodes          int
	Fabrics        []wrht.FleetFabricSpec
	Shapes         []wrht.FleetShape
	Jobs           []wrht.FleetJob
	Options        wrht.FleetOptions
	DeadlineMillis int64
}

// FleetResponse is the success body of /v1/fleet.
type FleetResponse struct {
	Result    wrht.FleetResult
	Coalesced bool
}

// SweepRequest prices a full grid (POST /v1/sweep).
type SweepRequest struct {
	Spec           wrht.SweepSpec
	DeadlineMillis int64
}

// SweepResponse is the success body of /v1/sweep.
type SweepResponse struct {
	Result    *wrht.SweepResult
	Coalesced bool
}

// badRequestError marks a validation failure (HTTP 400).
type badRequestError struct{ msg string }

func (e badRequestError) Error() string { return e.msg }

func badf(format string, args ...any) error {
	return badRequestError{msg: fmt.Sprintf(format, args...)}
}

// resolveModelBytes maps a catalog model name to its FP32 gradient byte
// size (the width wrht.DefaultConfig prices).
func resolveModelBytes(name string) (int64, error) {
	m, err := dnn.Lookup(name)
	if err != nil {
		return 0, badf("unknown model %q", name)
	}
	return m.GradientBytes(4), nil
}

// buildConfig assembles the pricing config shared by the point and fabric
// endpoints from the request's (nodes, wavelengths) pair.
func buildConfig(nodes, wavelengths int) (wrht.Config, error) {
	if nodes < 2 || nodes > maxNodes {
		return wrht.Config{}, badf("nodes %d out of range [2, %d]", nodes, maxNodes)
	}
	if wavelengths < 0 || wavelengths > maxWavelengths {
		return wrht.Config{}, badf("wavelengths %d out of range [0, %d]", wavelengths, maxWavelengths)
	}
	cfg := wrht.DefaultConfig(nodes)
	if wavelengths > 0 {
		cfg.Optical.Wavelengths = wavelengths
	}
	return cfg, nil
}

// normalize validates the request and fills defaults so that equivalent
// requests share one canonical form (and therefore one coalescing key).
func (r *CommTimeRequest) normalize() error {
	if r.Algorithm == "" {
		r.Algorithm = wrht.AlgWrht
	}
	if r.Model != "" {
		b, err := resolveModelBytes(r.Model)
		if err != nil {
			return err
		}
		r.Bytes = b
		r.Model = ""
	}
	if r.Bytes <= 0 || r.Bytes > maxBytes {
		return badf("bytes %d out of range (0, %d]", r.Bytes, maxBytes)
	}
	if _, err := buildConfig(r.Nodes, r.Wavelengths); err != nil {
		return err
	}
	return nil
}

func (r *FabricRequest) normalize() error {
	if _, err := buildConfig(r.Nodes, r.Wavelengths); err != nil {
		return err
	}
	if len(r.Jobs) == 0 {
		return badf("no jobs")
	}
	if len(r.Jobs) > maxFabricJobs {
		return badf("%d jobs exceeds limit %d", len(r.Jobs), maxFabricJobs)
	}
	for i := range r.Jobs {
		if r.Jobs[i].Iterations > maxIterations {
			return badf("job %d: iterations %d exceeds limit %d", i, r.Jobs[i].Iterations, maxIterations)
		}
		if err := r.Jobs[i].Validate(); err != nil {
			return badRequestError{msg: err.Error()}
		}
	}
	return nil
}

func (r *FleetRequest) normalize() error {
	if len(r.Fabrics) == 0 || len(r.Fabrics) > maxFleetFabrics {
		return badf("fabric count %d out of range [1, %d]", len(r.Fabrics), maxFleetFabrics)
	}
	if len(r.Shapes) == 0 || len(r.Shapes) > maxFleetShapes {
		return badf("shape count %d out of range [1, %d]", len(r.Shapes), maxFleetShapes)
	}
	if len(r.Jobs) > maxFleetJobs {
		return badf("%d jobs exceeds limit %d", len(r.Jobs), maxFleetJobs)
	}
	for i := range r.Jobs {
		if r.Jobs[i].Iterations > maxIterations {
			return badf("job %d: iterations %d exceeds limit %d", i, r.Jobs[i].Iterations, maxIterations)
		}
	}
	if r.Nodes == 0 {
		for _, f := range r.Fabrics {
			if f.Nodes > r.Nodes {
				r.Nodes = f.Nodes
			}
		}
	}
	if r.Nodes < 2 || r.Nodes > maxNodes {
		return badf("nodes %d out of range [2, %d]", r.Nodes, maxNodes)
	}
	for _, f := range r.Fabrics {
		if f.Nodes > maxNodes || f.Wavelengths > maxWavelengths {
			return badf("fabric %q size out of range", f.Name)
		}
	}
	return nil
}

func (r *SweepRequest) normalize() error {
	n, err := r.Spec.Points()
	if err != nil {
		return badf("%v", err)
	}
	if n > maxSweepPoints {
		return badf("sweep grid has %d points, limit %d", n, maxSweepPoints)
	}
	for _, n := range r.Spec.Nodes {
		if n > maxNodes {
			return badf("nodes %d out of range [2, %d]", n, maxNodes)
		}
	}
	for _, w := range r.Spec.Wavelengths {
		if w > maxWavelengths {
			return badf("wavelengths %d exceeds limit %d", w, maxWavelengths)
		}
	}
	for _, b := range r.Spec.MessageBytes {
		if b <= 0 || b > maxBytes {
			return badf("bytes %d out of range (0, %d]", b, maxBytes)
		}
	}
	if r.Spec.Base.Nodes > maxNodes {
		return badf("base nodes %d exceeds limit %d", r.Spec.Base.Nodes, maxNodes)
	}
	if w := r.Spec.Base.Optical.Wavelengths; w > maxWavelengths {
		return badf("base wavelengths %d exceeds limit %d", w, maxWavelengths)
	}
	// A multi-rack point's worker count is racks × nodes per rack.
	for _, racks := range r.Spec.Racks {
		for _, per := range r.Spec.NodesPerRack {
			if racks > maxNodes || per > maxNodes || racks*per > maxNodes {
				return badf("racks %d × nodes per rack %d exceeds %d nodes", racks, per, maxNodes)
			}
		}
	}
	// An unknown model would fail every cell it names inside a 200; reject
	// it up front, as the other endpoints do.
	for _, name := range r.Spec.Models {
		if _, err := resolveModelBytes(name); err != nil {
			return err
		}
	}
	for _, mix := range r.Spec.FabricMixes {
		if len(mix.Jobs) > maxFabricJobs {
			return badf("mix %q: %d jobs exceeds limit %d", mix.Name, len(mix.Jobs), maxFabricJobs)
		}
		for _, j := range mix.Jobs {
			if j.Model == "" {
				continue
			}
			if _, err := resolveModelBytes(j.Model); err != nil {
				return err
			}
		}
	}
	// The server owns the worker budget; client parallelism hints are
	// clamped so one sweep cannot monopolize the host.
	if p := r.Spec.Parallelism; p <= 0 || p > runtime.GOMAXPROCS(0) {
		r.Spec.Parallelism = runtime.GOMAXPROCS(0)
	}
	return nil
}

// key returns the canonical coalescing key: endpoint + the normalized
// request's full field dump. Normalization runs first, so requests that
// differ only in defaulted fields share a key.
func requestKey(endpoint string, normalized any) string {
	return fmt.Sprintf("%s|%+v", endpoint, normalized)
}

// shardOf maps a key onto one of n session shards.
func shardOf(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// run executes the endpoint's pricing against a session shard. DeadlineMillis
// is excluded from the key (two identical queries with different budgets
// still coalesce), so runners read everything else from the request.

func runCommTime(ctx context.Context, ss *wrht.SweepSession, r CommTimeRequest) (any, error) {
	cfg, err := buildConfig(r.Nodes, r.Wavelengths)
	if err != nil {
		return nil, err
	}
	res, err := ss.CommunicationTimeContext(ctx, cfg, r.Algorithm, r.Bytes)
	if err != nil {
		return nil, err
	}
	return CommTimeResponse{Result: res}, nil
}

func runFabric(ctx context.Context, ss *wrht.SweepSession, r FabricRequest) (any, error) {
	cfg, err := buildConfig(r.Nodes, r.Wavelengths)
	if err != nil {
		return nil, err
	}
	res, err := ss.SimulateFabricContext(ctx, cfg, r.Jobs, r.Policy, r.Faults)
	if err != nil {
		return nil, err
	}
	return FabricResponse{Result: res}, nil
}

func runFleet(ctx context.Context, ss *wrht.SweepSession, r FleetRequest) (any, error) {
	cfg, err := buildConfig(r.Nodes, 0)
	if err != nil {
		return nil, err
	}
	res, err := ss.SimulateFleetContext(ctx, cfg, r.Fabrics, r.Shapes, r.Jobs, r.Options)
	if err != nil {
		return nil, err
	}
	return FleetResponse{Result: res}, nil
}

func runSweep(ctx context.Context, ss *wrht.SweepSession, r SweepRequest) (any, error) {
	res, err := ss.RunSweepContext(ctx, r.Spec)
	if err != nil {
		return nil, err
	}
	// A sweep canceled mid-grid fills remaining cells with the context
	// error rather than failing the call; the service reports that as a
	// deadline, not a partial 200.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return SweepResponse{Result: res}, nil
}
