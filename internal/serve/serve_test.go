package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"wrht/internal/dnn"
)

// postJSON issues one request and returns (status, decoded body map).
func postJSON(t *testing.T, url string, body string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decode response: %v", err)
	}
	return resp.StatusCode, m
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func TestCommTimeBasic(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, m := postJSON(t, ts.URL+"/v1/commtime",
		`{"Nodes": 16, "Algorithm": "wrht", "Bytes": 1048576}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %v", status, m)
	}
	res := m["Result"].(map[string]any)
	if secs := res["Seconds"].(float64); secs <= 0 {
		t.Fatalf("Seconds = %v", secs)
	}

	// Unknown fields are rejected (strict decode).
	if status, _ := postJSON(t, ts.URL+"/v1/commtime",
		`{"Nodes": 16, "Bytes": 1024, "Bogus": 1}`); status != http.StatusBadRequest {
		t.Fatalf("unknown field: status = %d", status)
	}
	// Engine-level validation surfaces as 400.
	if status, _ := postJSON(t, ts.URL+"/v1/commtime",
		`{"Nodes": 16, "Algorithm": "no-such-alg", "Bytes": 1024}`); status != http.StatusBadRequest {
		t.Fatalf("bad algorithm: status = %d", status)
	}
	// Payload limits fail fast.
	if status, _ := postJSON(t, ts.URL+"/v1/commtime",
		`{"Nodes": 999999, "Bytes": 1024}`); status != http.StatusBadRequest {
		t.Fatalf("oversized nodes: status = %d", status)
	}
	// Model resolution.
	if status, _ := postJSON(t, ts.URL+"/v1/commtime",
		`{"Nodes": 16, "Model": "ResNet50"}`); status != http.StatusOK {
		t.Fatalf("model request: status = %d", status)
	}
}

// TestCommTimeOversizedBufferIs400: a 1 TiB buffer passes the payload bound
// but exceeds the schedule element limit, so the engine rejects it and the
// answer is 400: never a panic (500 plus a quarantined key) and never a 200
// carrying a price wrapped through int32.
func TestCommTimeOversizedBufferIs400(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, alg := range []string{"rd", "wrht", "e-ring"} {
		body := fmt.Sprintf(`{"Nodes": 16, "Algorithm": %q, "Bytes": %d}`, alg, maxBytes)
		if status, m := postJSON(t, ts.URL+"/v1/commtime", body); status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, body %v, want 400", alg, status, m)
		}
	}
	if q := s.flights.quarantined(); q != 0 {
		t.Fatalf("%d keys quarantined by oversized buffers", q)
	}
}

// waitFull returns once class c holds its full capacity (running plus
// queued requests), failing the test if it has not filled within five
// seconds.
func waitFull(t *testing.T, srv *Server, c Class) {
	t.Helper()
	adm := srv.admits[c]
	for start := time.Now(); adm.inSystem.Load() < adm.capacity; time.Sleep(time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("%v class never filled: %d of %d in system", c, adm.inSystem.Load(), adm.capacity)
		}
	}
}

// TestShedFastWhenQueueFull pins the 429 fast path: with the class's single
// worker blocked and its queue full, excess requests are shed immediately —
// never behind the blocked worker.
func TestShedFastWhenQueueFull(t *testing.T) {
	block := make(chan struct{})
	entered := make(chan struct{}, 16)
	testHook = func(endpoint, key string) {
		if endpoint == "/v1/commtime" {
			entered <- struct{}{}
			<-block
		}
	}
	defer func() { testHook = nil }()

	srv, ts := newTestServer(t, Config{
		Point: ClassLimits{Workers: 1, Queue: 1, Deadline: time.Minute},
	})

	results := make(chan int, 8)
	// Distinct bodies so requests do not coalesce onto the blocked flight.
	issue := func(i int) {
		status, _ := postJSON(t, ts.URL+"/v1/commtime",
			fmt.Sprintf(`{"Nodes": 16, "Bytes": %d}`, 1024+i))
		results <- status
	}
	go issue(0) // occupies the worker (blocked in hook)
	<-entered
	go issue(1) // waits in the queue
	waitFull(t, srv, ClassPoint)

	// System full (1 running + 1 queued): these must shed fast.
	for i := 2; i < 6; i++ {
		t0 := time.Now()
		status, _ := postJSON(t, ts.URL+"/v1/commtime",
			fmt.Sprintf(`{"Nodes": 16, "Bytes": %d}`, 1024+i))
		elapsed := time.Since(t0)
		if status != http.StatusTooManyRequests {
			t.Errorf("request %d: status = %d, want 429", i, status)
		}
		if elapsed > 500*time.Millisecond {
			t.Errorf("request %d: shed took %v, want immediate", i, elapsed)
		}
	}
	close(block)
	if s := <-results; s != http.StatusOK {
		t.Fatalf("blocked request finished %d", s)
	}
	if s := <-results; s != http.StatusOK {
		t.Fatalf("queued request finished %d", s)
	}
}

// TestCoalesce pins the dedup contract: M identical concurrent queries run
// exactly one simulation (verified via the shard's cache counters) and the
// followers are marked Coalesced.
func TestCoalesce(t *testing.T) {
	const m = 8
	block := make(chan struct{})
	var once sync.Once
	arrived := make(chan struct{})
	testHook = func(endpoint, key string) {
		// Only the leader runs the hook; block it until followers pile on.
		once.Do(func() { close(arrived) })
		<-block
	}
	defer func() { testHook = nil }()

	srv, ts := newTestServer(t, Config{
		Point: ClassLimits{Workers: m, Queue: m, Deadline: time.Minute},
	})

	var wg sync.WaitGroup
	statuses := make([]int, m)
	coalesced := make([]bool, m)
	body := `{"Nodes": 16, "Algorithm": "wrht", "Bytes": 1048576}`
	for i := 0; i < m; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, resp := postJSON(t, ts.URL+"/v1/commtime", body)
			statuses[i] = status
			if c, ok := resp["Coalesced"].(bool); ok {
				coalesced[i] = c
			}
		}(i)
	}
	<-arrived
	time.Sleep(100 * time.Millisecond) // let followers join the flight
	close(block)
	wg.Wait()

	nCoalesced := 0
	for i := 0; i < m; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, statuses[i])
		}
		if coalesced[i] {
			nCoalesced++
		}
	}
	if nCoalesced == 0 {
		t.Fatalf("no request reported Coalesced among %d identical concurrent queries", m)
	}
	var runs int64
	for _, st := range srv.Metrics().Shards {
		runs += st.SimulationRuns
	}
	if runs != 1 {
		t.Fatalf("SimulationRuns = %d across shards, want exactly 1", runs)
	}
}

// TestPanicIsolation pins the containment contract: a panicking request
// returns 500, its key is quarantined, and the server keeps serving.
func TestPanicIsolation(t *testing.T) {
	testHook = func(endpoint, key string) {
		panic("injected engine panic")
	}
	srv, ts := newTestServer(t, Config{})
	body := `{"Nodes": 16, "Bytes": 2048}`
	status, m := postJSON(t, ts.URL+"/v1/commtime", body)
	if status != http.StatusInternalServerError {
		t.Fatalf("panicking request: status = %d, body %v", status, m)
	}
	testHook = nil

	// Same key: quarantined, still 500, without re-running the engine.
	status, m = postJSON(t, ts.URL+"/v1/commtime", body)
	if status != http.StatusInternalServerError {
		t.Fatalf("quarantined key: status = %d", status)
	}
	if msg, _ := m["error"].(string); !strings.Contains(msg, "quarantined") {
		t.Fatalf("quarantined key error = %q", msg)
	}
	if q := srv.Metrics().Quarantined; q != 1 {
		t.Fatalf("quarantined = %d", q)
	}

	// Different request: the server is alive and well.
	if status, _ := postJSON(t, ts.URL+"/v1/commtime",
		`{"Nodes": 16, "Bytes": 4096}`); status != http.StatusOK {
		t.Fatalf("post-panic request: status = %d", status)
	}
}

// TestDeadline pins the 504 contract for both queue-expired and
// mid-pricing-expired requests.
func TestDeadline(t *testing.T) {
	testHook = func(endpoint, key string) {
		time.Sleep(100 * time.Millisecond) // burn well past the 10ms budget
	}
	defer func() { testHook = nil }()
	_, ts := newTestServer(t, Config{})
	status, m := postJSON(t, ts.URL+"/v1/commtime",
		`{"Nodes": 16, "Bytes": 8192, "DeadlineMillis": 10}`)
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, body %v", status, m)
	}
}

// TestDegradeShedsExpensiveClassesFirst drives the sweep queue into
// saturation and checks the tiered contract: sweeps degrade, single-point
// pricing stays alive.
func TestDegradeShedsExpensiveClassesFirst(t *testing.T) {
	block := make(chan struct{})
	entered := make(chan struct{}, 64)
	testHook = func(endpoint, key string) {
		if endpoint == "/v1/sweep" {
			entered <- struct{}{}
			<-block
		}
	}
	defer func() { testHook = nil }()

	srv, ts := newTestServer(t, Config{
		Sweep:         ClassLimits{Workers: 1, Queue: 2, Deadline: time.Minute},
		DegradeUpHold: time.Millisecond,
	})

	sweepBody := func(i int) string {
		return fmt.Sprintf(`{"Spec": {"Nodes": [8], "MessageBytes": [%d]}}`, 1024+i)
	}
	var wg sync.WaitGroup
	var mu sync.Mutex
	statuses := make([]int, 12)
	for i := range statuses {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, _ := postJSON(t, ts.URL+"/v1/sweep", sweepBody(i))
			mu.Lock()
			statuses[i] = st
			mu.Unlock()
		}(i)
	}
	<-entered // worker occupied; queue fills behind it
	defer func() {
		close(block)
		wg.Wait() // all flood goroutines drain before testHook resets
	}()
	// Probe only once the flood fills the class. A probe that found a free
	// queue slot would wait there for the class's one-minute deadline, and
	// with no further arrivals the degrader would never be sampled again.
	// The short probe deadline bounds any such wait all the same.
	waitFull(t, srv, ClassSweep)
	probeBody := func(i int) string {
		return fmt.Sprintf(`{"Spec": {"Nodes": [8], "MessageBytes": [%d]}, "DeadlineMillis": 100}`, 1024+i)
	}

	shed := func() int {
		mu.Lock()
		defer mu.Unlock()
		rejected := 0
		for _, st := range statuses {
			if st == http.StatusTooManyRequests || st == http.StatusServiceUnavailable {
				rejected++
			}
		}
		return rejected
	}
	// Keep offering sweeps while the queue is saturated: the burst sheds
	// 429s, and the sustained pressure (past UpHold) steps the tier up.
	waited := time.Now()
	for (shed() == 0 || srv.deg.current() < tierNoSweeps) && time.Since(waited) < 5*time.Second {
		st, _ := postJSON(t, ts.URL+"/v1/sweep", probeBody(100+int(time.Since(waited))))
		if st == http.StatusOK {
			t.Fatalf("sweep accepted while queue saturated")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if shed() == 0 || srv.deg.current() < tierNoSweeps {
		t.Fatalf("sweep flood did not degrade: statuses %v tier %d", statuses, srv.deg.current())
	}
	// The cheap class is untouched while degraded.
	if status, _ := postJSON(t, ts.URL+"/v1/commtime",
		`{"Nodes": 16, "Bytes": 1024}`); status != http.StatusOK {
		t.Fatalf("commtime during degrade: status = %d", status)
	}
	// Fresh sweeps are rejected at the degrade gate (503), before admission.
	status, m := postJSON(t, ts.URL+"/v1/sweep", probeBody(999))
	if status != http.StatusServiceUnavailable && status != http.StatusTooManyRequests {
		t.Fatalf("sweep during degrade: status = %d body %v", status, m)
	}
}

// TestDrain pins the graceful-shutdown contract: in-flight requests finish
// (zero drops) while new requests are turned away.
func TestDrain(t *testing.T) {
	block := make(chan struct{})
	entered := make(chan struct{}, 4)
	testHook = func(endpoint, key string) {
		entered <- struct{}{}
		<-block
	}
	defer func() { testHook = nil }()

	srv, ts := newTestServer(t, Config{})
	result := make(chan int, 1)
	go func() {
		status, _ := postJSON(t, ts.URL+"/v1/commtime", `{"Nodes": 16, "Bytes": 1024}`)
		result <- status
	}()
	<-entered

	drained := make(chan int, 1)
	go func() {
		n, err := srv.Drain(t.Context())
		if err != nil {
			t.Errorf("drain: %v", err)
		}
		drained <- n
	}()
	// Drain must flip readiness and reject new work while waiting.
	for !srv.Draining() {
		time.Sleep(time.Millisecond)
	}
	if status, _ := postJSON(t, ts.URL+"/v1/commtime", `{"Nodes": 16, "Bytes": 4096}`); status != http.StatusServiceUnavailable {
		t.Fatalf("request during drain: status = %d", status)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: %d", resp.StatusCode)
	}

	close(block) // let the in-flight request finish
	if status := <-result; status != http.StatusOK {
		t.Fatalf("in-flight request during drain: status = %d, want 200 (zero drops)", status)
	}
	if n := <-drained; n < 1 {
		t.Fatalf("drained %d in-flight, want >= 1", n)
	}
}

// TestMetricsEndpoints sanity-checks /healthz, /readyz and /metricsz.
func TestMetricsEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	if status, _ := postJSON(t, ts.URL+"/v1/commtime", `{"Nodes": 16, "Bytes": 1024}`); status != http.StatusOK {
		t.Fatalf("warmup failed: %d", status)
	}
	for _, path := range []string{"/healthz", "/readyz", "/metricsz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: %d", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body MetricsBody
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Counters["serve.point.200"] < 1 {
		t.Fatalf("counters = %v", body.Counters)
	}
	if len(body.Latencies) == 0 || body.Latencies[0].Count < 1 {
		t.Fatalf("latencies = %v", body.Latencies)
	}
	if len(body.Shards) == 0 {
		t.Fatalf("no shard stats")
	}
}

// TestSweepEndpoint prices a small grid end to end.
func TestSweepEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, m := postJSON(t, ts.URL+"/v1/sweep",
		`{"Spec": {"Nodes": [8, 16], "MessageBytes": [65536], "Algorithms": ["wrht", "e-ring"]}}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %v", status, m)
	}
	res := m["Result"].(map[string]any)
	cells := res["Cells"].([]any)
	if len(cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(cells))
	}

	// Every limit rejects with 400 before admission, so no rejected body
	// may reach the engines. The grid limit counts the grid that actually
	// runs: 64 node counts × 64 budgets × one mix is 4096 axis entries,
	// but the defaulted FabricPolicies make it 16384 co-simulations. The
	// per-point cost limits (the base wavelength budget, used when the
	// Wavelengths axis is empty, and the multi-rack worker count) are
	// checked on otherwise well-formed specs.
	testHook = func(endpoint, key string) { t.Errorf("%s reached the engines", endpoint) }
	defer func() { testHook = nil }()
	big := `{"Spec": {"Nodes": [` + strings.Repeat("8,", 99) + `8], "MessageBytes": [` +
		strings.Repeat("1024,", 99) + `1024]}}`
	fabric := `{"Spec": {"Nodes": [` + strings.Repeat("16,", 63) + `16], "Wavelengths": [` +
		strings.Repeat("8,", 63) + `8], "FabricMixes": [{"Jobs": [{"Name": "a", "Bytes": 1024}]}]}}`
	for body, want := range map[string]string{
		big:    "10000 points",
		fabric: "16384 points",
		`{"Spec": {"Nodes": [16], "Models": ["VGG16"], "MessageBytes": [1024]}}`:                           "both Models and MessageBytes",
		`{"Spec": {"Base": {"Optical": {"Wavelengths": 65536}}, "Nodes": [1024], "MessageBytes": [1024]}}`: "base wavelengths 65536",
		`{"Spec": {"Racks": [2048], "NodesPerRack": [2048], "MessageBytes": [1024]}}`:                      "racks 2048 × nodes per rack 2048",
	} {
		status, m := postJSON(t, ts.URL+"/v1/sweep", body)
		if msg, _ := m["error"].(string); status != http.StatusBadRequest || !strings.Contains(msg, want) {
			t.Fatalf("%.60s…: status = %d, error %q; want 400 mentioning %q", body, status, msg, want)
		}
	}
}

// TestFabricAndFleetEndpoints prices one tenant mix and one small fleet.
func TestFabricAndFleetEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, m := postJSON(t, ts.URL+"/v1/fabric", `{
		"Nodes": 16, "Wavelengths": 8,
		"Jobs": [
			{"Name": "a", "Bytes": 1048576},
			{"Name": "b", "Bytes": 524288, "ArrivalSec": 0.001}
		],
		"Policy": {"Kind": "first-fit"}
	}`)
	if status != http.StatusOK {
		t.Fatalf("fabric: status = %d, body %v", status, m)
	}

	status, m = postJSON(t, ts.URL+"/v1/fleet", `{
		"Fabrics": [
			{"Name": "f0", "Nodes": 8, "Wavelengths": 8},
			{"Name": "f1", "Nodes": 8, "Wavelengths": 4}
		],
		"Shapes": [{"Bytes": 262144}],
		"Jobs": [
			{"Name": "j0", "Shape": 0, "Affinity": -1},
			{"Name": "j1", "Shape": 0, "Affinity": -1, "ArrivalSec": 0.0005}
		],
		"Options": {"Placement": "least-loaded"}
	}`)
	if status != http.StatusOK {
		t.Fatalf("fleet: status = %d, body %v", status, m)
	}
}

// TestDegraderHysteresis unit-tests the tier state machine with a fake clock.
func TestDegraderHysteresis(t *testing.T) {
	now := time.Unix(0, 0)
	clock := func() time.Time { return now }
	d := newDegrader(degradeConfig{Hi: 0.75, Lo: 0.25, UpHold: 100 * time.Millisecond, Hold: time.Second}, clock)

	if tier := d.observe(0.1); tier != tierNormal {
		t.Fatalf("tier = %d", tier)
	}
	// A transient spike does NOT degrade — that is the 429 path's job.
	if tier := d.observe(0.9); tier != tierNormal {
		t.Fatalf("transient spike: tier = %d", tier)
	}
	// Sustained pressure past UpHold steps up one tier per hold period.
	now = now.Add(150 * time.Millisecond)
	if tier := d.observe(0.9); tier != tierNoSweeps {
		t.Fatalf("after sustained spike: tier = %d", tier)
	}
	now = now.Add(150 * time.Millisecond)
	if tier := d.observe(1.0); tier != tierNoFleet {
		t.Fatalf("after second hold: tier = %d", tier)
	}
	now = now.Add(150 * time.Millisecond)
	if tier := d.observe(1.0); tier != tierNoFleet {
		t.Fatalf("tier overflow: %d", tier)
	}
	// Mid-band pressure holds the tier.
	if tier := d.observe(0.5); tier != tierNoFleet {
		t.Fatalf("mid-band: tier = %d", tier)
	}
	// Low pressure needs Hold before stepping down.
	if tier := d.observe(0.1); tier != tierNoFleet {
		t.Fatalf("low without hold: tier = %d", tier)
	}
	now = now.Add(500 * time.Millisecond)
	if tier := d.observe(0.1); tier != tierNoFleet {
		t.Fatalf("low at half hold: tier = %d", tier)
	}
	now = now.Add(600 * time.Millisecond)
	if tier := d.observe(0.1); tier != tierNoSweeps {
		t.Fatalf("after hold: tier = %d", tier)
	}
	// A spike resets recovery credit (but does not step up by itself).
	if tier := d.observe(0.9); tier != tierNoSweeps {
		t.Fatalf("re-spike: tier = %d", tier)
	}
	now = now.Add(2 * time.Second)
	d.observe(0.1) // starts recovery credit afresh
	now = now.Add(2 * time.Second)
	if tier := d.observe(0.1); tier != tierNormal {
		t.Fatalf("recovery: tier = %d", tier)
	}
}

// TestLoadgenClosedLoop smoke-tests the load generator against a live server.
func TestLoadgenClosedLoop(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	rep, err := RunLoad(t.Context(), LoadSpec{
		BaseURL:     ts.URL,
		Endpoint:    "/v1/commtime",
		Bodies:      [][]byte{[]byte(`{"Nodes": 16, "Bytes": 1048576}`)},
		Concurrency: 4,
		Duration:    300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Requests == 0 || rep.OK() == 0 {
		t.Fatalf("report = %+v", rep)
	}
	if rep.P50Millis <= 0 || rep.QPS <= 0 {
		t.Fatalf("quantiles missing: %+v", rep)
	}
}

// catalogNames lists every model name the catalog resolves, from the model
// constructors themselves.
func catalogNames() []string {
	var names []string
	for _, m := range append(dnn.PaperModels(), dnn.ExtensionModels()...) {
		names = append(names, m.Name)
	}
	return names
}

// TestEveryEndpointResolvesEveryModel: the four endpoints share one model
// catalog, so each accepts all six names and rejects an unknown one with
// 400.
func TestEveryEndpointResolvesEveryModel(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	bodies := map[string]string{
		"/v1/commtime": `{"Nodes": 8, "Model": %q}`,
		"/v1/fabric": `{"Nodes": 8, "Wavelengths": 4, "Jobs": [{"Name": "a", "Model": %q}],
			"Policy": {"Kind": "first-fit"}}`,
		"/v1/fleet": `{"Fabrics": [{"Name": "f0", "Nodes": 8, "Wavelengths": 4}],
			"Shapes": [{"Model": %q}], "Jobs": [{"Name": "j0", "Shape": 0, "Affinity": -1}]}`,
		"/v1/sweep": `{"Spec": {"Nodes": [8], "Models": [%q], "Algorithms": ["wrht"]}}`,
	}
	for _, path := range []string{"/v1/commtime", "/v1/fabric", "/v1/fleet", "/v1/sweep"} {
		for _, name := range catalogNames() {
			if status, m := postJSON(t, ts.URL+path, fmt.Sprintf(bodies[path], name)); status != http.StatusOK {
				t.Errorf("%s %s: status = %d, body %v", path, name, status, m)
			}
		}
		status, m := postJSON(t, ts.URL+path, fmt.Sprintf(bodies[path], "LeNet"))
		if msg, _ := m["error"].(string); status != http.StatusBadRequest || !strings.Contains(msg, `unknown model "LeNet"`) {
			t.Errorf("%s LeNet: status = %d, error %q; want 400 naming the model", path, status, msg)
		}
	}
	// A sweep's fabric mixes name models too.
	status, m := postJSON(t, ts.URL+"/v1/sweep",
		`{"Spec": {"Nodes": [8], "Wavelengths": [4], "FabricMixes": [{"Jobs": [{"Name": "a", "Model": "LeNet"}]}]}}`)
	if msg, _ := m["error"].(string); status != http.StatusBadRequest || msg != `unknown model "LeNet"` {
		t.Errorf("sweep mix LeNet: status = %d, error %q; want 400 naming the model", status, msg)
	}
}

// TestCommTimeNormalizeModelBytes: a named model normalizes to the FP32
// gradient of the layer-accurate model, byte for byte.
func TestCommTimeNormalizeModelBytes(t *testing.T) {
	for _, name := range catalogNames() {
		r := CommTimeRequest{Nodes: 16, Model: name}
		if err := r.normalize(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m, _ := dnn.ByName(name)
		if want := m.GradientBytes(4); r.Bytes != want || r.Model != "" {
			t.Errorf("%s: normalized to Bytes %d Model %q, want %d and no model", name, r.Bytes, r.Model, want)
		}
	}
	r := CommTimeRequest{Nodes: 16, Model: "LeNet"}
	if err := r.normalize(); err == nil || err.Error() != `unknown model "LeNet"` {
		t.Fatalf("unknown model: error %v", err)
	}
}

// TestWarmCommTimeHitAllocs bounds the allocations of a warm /v1/commtime
// hit that names a model: decode, normalize, key, shard, cache hit, encode.
// Resolving the name must not rebuild catalog models.
func TestWarmCommTimeHitAllocs(t *testing.T) {
	h := New(Config{}).Handler()
	hit := func() {
		req := httptest.NewRequest(http.MethodPost, "/v1/commtime", strings.NewReader(`{"Nodes": 64, "Model": "VGG16"}`))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			t.Fatalf("status = %d, body %s", w.Code, w.Body)
		}
	}
	hit()
	if allocs := testing.AllocsPerRun(50, hit); allocs > 64 {
		t.Fatalf("warm commtime hit: %.0f allocs, want <= 64", allocs)
	}
}
