package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"locality/internal/core"
	"locality/internal/engine"
	"locality/internal/obs"
	"locality/internal/sweepgrid"
)

// startServer boots a server on a loopback ephemeral port and tears it
// down with the test.
func startServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func postJSON(t *testing.T, url string, body any, out any) *http.Response {
	t.Helper()
	buf, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decode %s response: %v", url, err)
		}
	}
	return resp
}

func TestSolveEndpointMatchesDirectSolve(t *testing.T) {
	s := startServer(t, Config{BatchWindow: -1})
	base := "http://" + s.Addr()

	var got SolveResponse
	resp := postJSON(t, base+"/v1/solve", SolveRequest{ConfigSpec: ConfigSpec{Contexts: 4, D: 2.5}}, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	want, err := core.Alewife(4, 2.5).Solve()
	if err != nil {
		t.Fatalf("direct solve: %v", err)
	}
	if got.Solution != want {
		t.Fatalf("served solution = %+v, want %+v", got.Solution, want)
	}

	// Second identical request must be a cache hit.
	postJSON(t, base+"/v1/solve", SolveRequest{ConfigSpec: ConfigSpec{Contexts: 4, D: 2.5}}, &got)
	if st := s.cacheStats(); st.Hits < 1 {
		t.Fatalf("cache stats after repeat query: %+v, want >= 1 hit", st)
	}
}

func TestSolveEndpointRejectsBadRequests(t *testing.T) {
	s := startServer(t, Config{BatchWindow: -1})
	base := "http://" + s.Addr()

	var e errorResponse
	if resp := postJSON(t, base+"/v1/solve", SolveRequest{ConfigSpec: ConfigSpec{Preset: "cm5"}}, &e); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown preset: status = %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(e.Error, "preset") {
		t.Fatalf("unknown preset error = %q", e.Error)
	}
	if resp := postJSON(t, base+"/v1/solve", SolveRequest{ConfigSpec: ConfigSpec{Contexts: -3}}, &e); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative contexts: status = %d, want 400", resp.StatusCode)
	}
	resp, err := http.Get(base + "/v1/solve")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET status = %d, want 405", resp.StatusCode)
	}
}

// TestOversizedBodiesRejected posts a 2 MiB JSON body — one value, so
// the decoder must read past the bound — to each query endpoint and
// expects 413 rather than an unbounded read.
func TestOversizedBodiesRejected(t *testing.T) {
	s := startServer(t, Config{BatchWindow: -1})
	base := "http://" + s.Addr()
	pad := strings.Repeat("a", 2<<20)
	for path, body := range map[string]string{
		"/v1/solve": `{"preset":"` + pad + `"}`,
		"/v1/sweep": `{"mappings":"` + pad + `"}`,
	} {
		resp, err := http.Post(base+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		var e errorResponse
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status = %d, want 413 (error %q)", path, resp.StatusCode, e.Error)
		}
	}
}

func TestGainEndpointMatchesExpectedGain(t *testing.T) {
	s := startServer(t, Config{BatchWindow: -1})
	base := "http://" + s.Addr()

	var got GainResponse
	resp := postJSON(t, base+"/v1/gain", GainRequest{ConfigSpec: ConfigSpec{Contexts: 2}, Nodes: 512}, &got)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	want, err := core.ExpectedGain(core.Alewife(2, 1), 512)
	if err != nil {
		t.Fatalf("ExpectedGain: %v", err)
	}
	if got.GainResult != want {
		t.Fatalf("served gain = %+v, want %+v", got.GainResult, want)
	}

	var e errorResponse
	if resp := postJSON(t, base+"/v1/gain", GainRequest{Nodes: 1}, &e); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("nodes=1 status = %d, want 400", resp.StatusCode)
	}
}

func TestSensitivityEndpointMatchesCore(t *testing.T) {
	s := startServer(t, Config{})
	base := "http://" + s.Addr()

	var got SensitivityResponse
	postJSON(t, base+"/v1/sensitivity", SensitivityRequest{Contexts: 4}, &got)
	want := core.ExpectedSensitivity(4, core.AlewifeMessagesPer, core.AlewifeCriticalPathFor(4))
	if got.Sensitivity != want {
		t.Fatalf("sensitivity = %g, want %g", got.Sensitivity, want)
	}
}

// TestBatcherCoalescesConcurrentIdenticalQueries drives the batcher
// directly: N concurrent solves of one config must produce exactly one
// cache miss, with joiners marked coalesced.
func TestBatcherCoalescesConcurrentIdenticalQueries(t *testing.T) {
	cache := core.NewSolveCache(0)
	b := newBatcher(cache, 5*time.Millisecond)
	cfg := core.Alewife(4, 3)

	const n = 16
	var wg sync.WaitGroup
	sols := make([]core.Solution, n)
	coalesced := make([]bool, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sols[i], coalesced[i], errs[i] = b.solve(context.Background(), cfg)
		}(i)
	}
	wg.Wait()

	want, err := cfg.Solve()
	if err != nil {
		t.Fatalf("direct solve: %v", err)
	}
	joined := 0
	for i := 0; i < n; i++ {
		if errs[i] != nil {
			t.Fatalf("solve %d: %v", i, errs[i])
		}
		if sols[i] != want {
			t.Fatalf("solve %d = %+v, want %+v", i, sols[i], want)
		}
		if coalesced[i] {
			joined++
		}
	}
	st := cache.Stats()
	if st.Misses != 1 {
		t.Fatalf("cache misses = %d, want exactly 1 (singleflight)", st.Misses)
	}
	if joined == 0 {
		t.Fatalf("no request reported coalesced out of %d concurrent identical queries", n)
	}
	if got := b.coalesced.Load(); got != int64(joined) {
		t.Fatalf("coalesced counter = %d, joiners = %d", got, joined)
	}
}

func testSweepSpec() sweepgrid.Spec {
	return sweepgrid.Spec{
		Radix: 4, Dims: 2,
		Contexts: []int{1, 2},
		Mappings: "identity,random:1",
		Warmup:   50, Window: 100,
	}
}

// localCSV renders the grid the way cmd/sweep would: kernel comment,
// header, rows in grid order.
func localCSV(t *testing.T, spec sweepgrid.Spec) string {
	t.Helper()
	g, err := sweepgrid.New(spec)
	if err != nil {
		t.Fatalf("sweepgrid.New: %v", err)
	}
	var b strings.Builder
	fmt.Fprintln(&b, g.KernelComment())
	b.WriteString(strings.Join(g.Header(), ","))
	b.WriteString("\n")
	for i := 0; i < g.Len(); i++ {
		row, err := g.RunRow(context.Background(), i)
		if err != nil {
			t.Fatalf("RunRow(%d): %v", i, err)
		}
		b.WriteString(strings.Join(row, ","))
		b.WriteString("\n")
	}
	return b.String()
}

func postSweep(t *testing.T, base string, req SweepRequest) (string, int) {
	t.Helper()
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(base+"/v1/sweep", "application/json", bytes.NewReader(buf))
	if err != nil {
		t.Fatalf("POST /v1/sweep: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read sweep stream: %v", err)
	}
	return string(body), resp.StatusCode
}

// TestSweepLocalFallbackMatchesDirectRun: no workers registered, so the
// sweep runs on the local fallback and must stream byte-identical CSV.
func TestSweepLocalFallbackMatchesDirectRun(t *testing.T) {
	s := startServer(t, Config{LocalWorkers: 2})
	want := localCSV(t, testSweepSpec())
	for _, policy := range []string{"static", "factoring", "awf"} {
		got, status := postSweep(t, "http://"+s.Addr(), SweepRequest{Spec: testSweepSpec(), Policy: policy})
		if status != http.StatusOK {
			t.Fatalf("policy %s: status = %d: %s", policy, status, got)
		}
		if got != want {
			t.Errorf("policy %s: served sweep differs from direct run\nserved:\n%s\ndirect:\n%s", policy, got, want)
		}
	}
}

// startWorkers spins up n in-process workers registered with s.
// TestSweepRejectsBadKernel: an unknown kernel — including the removed
// sharded kernel — is a client error, refused before any cell runs.
func TestSweepRejectsBadKernel(t *testing.T) {
	s := startServer(t, Config{BatchWindow: -1})
	base := "http://" + s.Addr()
	for _, kernel := range []string{"sharded", "parallel", "EVENT"} {
		spec := testSweepSpec()
		spec.Kernel = kernel
		body, status := postSweep(t, base, SweepRequest{Spec: spec})
		if status != http.StatusBadRequest {
			t.Errorf("kernel %q: status = %d, want 400", kernel, status)
		}
		if !strings.Contains(body, `valid kinds: \"event\", \"tick\"`) {
			t.Errorf("kernel %q: error %q does not list the valid kinds", kernel, body)
		}
	}
}

func startWorkers(t *testing.T, s *Server, n int) []*Worker {
	t.Helper()
	workers := make([]*Worker, n)
	for i := range workers {
		w := NewWorker(fmt.Sprintf("w%d", i), "http://"+s.Addr())
		w.HeartbeatEvery = 100 * time.Millisecond
		if err := w.Start("127.0.0.1:0", ""); err != nil {
			t.Fatalf("worker %d start: %v", i, err)
		}
		t.Cleanup(func() { w.Close() })
		workers[i] = w
	}
	return workers
}

// TestSweepDistributedMatchesDirectRun is the tentpole acceptance
// check: two remote workers under factoring and AWF must stream the
// exact bytes a local cmd/sweep-style run produces.
func TestSweepDistributedMatchesDirectRun(t *testing.T) {
	s := startServer(t, Config{})
	startWorkers(t, s, 2)
	want := localCSV(t, testSweepSpec())
	for _, policy := range []string{"factoring", "awf"} {
		got, status := postSweep(t, "http://"+s.Addr(), SweepRequest{Spec: testSweepSpec(), Policy: policy})
		if status != http.StatusOK {
			t.Fatalf("policy %s: status = %d: %s", policy, status, got)
		}
		if got != want {
			t.Errorf("policy %s: distributed sweep differs from direct run\nserved:\n%s\ndirect:\n%s", policy, got, want)
		}
	}
	if st := s.sweepStats.chunks.Load(); st == 0 {
		t.Fatalf("no chunks dispatched through remote workers")
	}
}

// deadRunner fails every chunk, standing in for a worker killed
// mid-sweep. It closes gate (when set) on its first run call so a test
// can hold other runners back until the death has provably happened.
type deadRunner struct {
	name string
	gate chan struct{}
	once sync.Once
}

func (d *deadRunner) id() string { return d.name }
func (d *deadRunner) run(context.Context, sweepgrid.Spec, engine.Chunk) ([][]string, error) {
	if d.gate != nil {
		d.once.Do(func() { close(d.gate) })
	}
	return nil, fmt.Errorf("worker %s: connection refused", d.name)
}

// gatedRunner delegates to inner only once gate closes. On a
// single-CPU host the scheduler can otherwise let one runner drain the
// whole grid before another ever runs, which would make a
// worker-death test vacuous.
type gatedRunner struct {
	inner chunkRunner
	gate  chan struct{}
}

func (r *gatedRunner) id() string { return r.inner.id() }
func (r *gatedRunner) run(ctx context.Context, spec sweepgrid.Spec, ch engine.Chunk) ([][]string, error) {
	select {
	case <-r.gate:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	return r.inner.run(ctx, spec, ch)
}

// TestSweepSurvivesWorkerDeath: one healthy runner plus one that dies
// on its first chunk — the dead runner's chunk requeues and the sweep
// still completes byte-identically.
func TestSweepSurvivesWorkerDeath(t *testing.T) {
	s := startServer(t, Config{})
	spec := testSweepSpec()
	g, err := sweepgrid.New(spec)
	if err != nil {
		t.Fatalf("sweepgrid.New: %v", err)
	}
	gate := make(chan struct{})
	runners := []chunkRunner{
		&deadRunner{name: "doomed", gate: gate},
		&gatedRunner{inner: &localRunner{wid: "healthy", g: g}, gate: gate},
	}
	var got bytes.Buffer
	emit := func(row []string) error {
		got.WriteString(strings.Join(row, ","))
		got.WriteString("\n")
		return nil
	}
	failed, err := s.dispatch(context.Background(), g, engine.PolicyFactoring, runners, emit)
	if err != nil {
		t.Fatalf("dispatch: %v", err)
	}
	if failed != 0 {
		t.Fatalf("failed rows = %d", failed)
	}
	var want strings.Builder
	for i := 0; i < g.Len(); i++ {
		row, err := g.RunRow(context.Background(), i)
		if err != nil {
			t.Fatalf("RunRow(%d): %v", i, err)
		}
		want.WriteString(strings.Join(row, ","))
		want.WriteString("\n")
	}
	if got.String() != want.String() {
		t.Fatalf("rows after worker death differ\ngot:\n%s\nwant:\n%s", got.String(), want.String())
	}
	if s.sweepStats.workerDeaths.Load() == 0 || s.sweepStats.requeues.Load() == 0 {
		t.Fatalf("death/requeue counters not advanced: deaths=%d requeues=%d",
			s.sweepStats.workerDeaths.Load(), s.sweepStats.requeues.Load())
	}
}

// TestSweepAllWorkersDeadRescuesLocally: every runner dies; the
// dispatcher must spawn the local rescue and finish.
func TestSweepAllWorkersDeadRescuesLocally(t *testing.T) {
	s := startServer(t, Config{})
	spec := testSweepSpec()
	g, err := sweepgrid.New(spec)
	if err != nil {
		t.Fatalf("sweepgrid.New: %v", err)
	}
	runners := []chunkRunner{&deadRunner{name: "d0"}, &deadRunner{name: "d1"}}
	rows := 0
	failed, err := s.dispatch(context.Background(), g, engine.PolicyGSS, runners, func([]string) error {
		rows++
		return nil
	})
	if err != nil {
		t.Fatalf("dispatch: %v", err)
	}
	if failed != 0 || rows != g.Len() {
		t.Fatalf("rows = %d (failed %d), want %d clean rows", rows, failed, g.Len())
	}
}

// TestMetricsEndpointIsValidExposition scrapes the live /metrics after
// real traffic and runs the exposition-format validator over it — the
// satellite-3 check.
func TestMetricsEndpointIsValidExposition(t *testing.T) {
	s := startServer(t, Config{BatchWindow: -1})
	base := "http://" + s.Addr()
	postJSON(t, base+"/v1/solve", SolveRequest{ConfigSpec: ConfigSpec{Contexts: 2}}, nil)
	postJSON(t, base+"/v1/solve", SolveRequest{ConfigSpec: ConfigSpec{Contexts: 2}}, nil)
	postJSON(t, base+"/v1/gain", GainRequest{ConfigSpec: ConfigSpec{Contexts: 2}, Nodes: 64}, nil)
	if _, status := postSweep(t, base, SweepRequest{Spec: testSweepSpec()}); status != http.StatusOK {
		t.Fatalf("sweep status = %d", status)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	if err := obs.ValidateExposition(bytes.NewReader(body)); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, body)
	}
	for _, want := range []string{
		"serve_solve_requests 2",
		"serve_cache_hits",
		"serve_cache_capacity",
		"serve_sweep_rows 4",
		"serve_solve_latency_micros_count 2",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("exposition missing %q\n%s", want, body)
		}
	}
}

// TestHealthzDegradesOnStaleWorker: a worker that registers and then
// never heartbeats must flip /healthz to 503 once the staleness window
// passes, and its removal restores 200.
func TestHealthzDegradesOnStaleWorker(t *testing.T) {
	s := startServer(t, Config{StaleAfter: 50 * time.Millisecond})
	base := "http://" + s.Addr()

	get := func() (int, obs.Health) {
		resp, err := http.Get(base + "/healthz")
		if err != nil {
			t.Fatalf("GET /healthz: %v", err)
		}
		defer resp.Body.Close()
		var h obs.Health
		json.NewDecoder(resp.Body).Decode(&h)
		return resp.StatusCode, h
	}

	if status, h := get(); status != http.StatusOK || !h.Healthy() {
		t.Fatalf("empty registry: healthz = %d %+v, want 200 ok", status, h)
	}
	postJSON(t, base+"/v1/workers/register", workerRegistration{ID: "zombie", Addr: "http://127.0.0.1:1"}, nil)
	if status, _ := get(); status != http.StatusOK {
		t.Fatalf("fresh worker: healthz = %d, want 200", status)
	}
	time.Sleep(80 * time.Millisecond)
	status, h := get()
	if status != http.StatusServiceUnavailable {
		t.Fatalf("stale worker: healthz = %d %+v, want 503", status, h)
	}
	if !strings.Contains(h.Reason, "zombie") {
		t.Fatalf("healthz reason = %q, want the stale worker named", h.Reason)
	}
	s.workers.remove("zombie")
	if status, _ := get(); status != http.StatusOK {
		t.Fatalf("after removal: healthz = %d, want 200", status)
	}
}

// TestHeartbeatKeepsWorkerFresh: a real worker's loop keeps it out of
// the stale set well past the staleness window.
func TestHeartbeatKeepsWorkerFresh(t *testing.T) {
	s := startServer(t, Config{StaleAfter: 300 * time.Millisecond})
	w := NewWorker("beater", "http://"+s.Addr())
	w.HeartbeatEvery = 50 * time.Millisecond
	if err := w.Start("127.0.0.1:0", ""); err != nil {
		t.Fatalf("worker start: %v", err)
	}
	defer w.Close()
	time.Sleep(600 * time.Millisecond)
	if _, stale := s.workers.snapshot(); len(stale) != 0 {
		t.Fatalf("heartbeating worker went stale: %v", stale)
	}
}

func TestStatuszReportsState(t *testing.T) {
	s := startServer(t, Config{BatchWindow: -1})
	base := "http://" + s.Addr()
	postJSON(t, base+"/v1/solve", SolveRequest{ConfigSpec: ConfigSpec{Contexts: 2}}, nil)

	resp, err := http.Get(base + "/statusz?format=json")
	if err != nil {
		t.Fatalf("GET /statusz: %v", err)
	}
	defer resp.Body.Close()
	var st serverStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode statusz: %v", err)
	}
	if st.Requests["solve"] != 1 {
		t.Fatalf("statusz solve requests = %d, want 1", st.Requests["solve"])
	}
	if st.Cache.Capacity == 0 {
		t.Fatalf("statusz cache capacity = 0")
	}
	if !st.Health.Healthy() {
		t.Fatalf("statusz health = %+v", st.Health)
	}
}

// TestServerWritesClassLedgerRows: Close flushes one ledger row per
// request class with latency percentiles for perfcheck.
func TestServerWritesClassLedgerRows(t *testing.T) {
	ledger := t.TempDir() + "/ledger.jsonl"
	s := startServer(t, Config{BatchWindow: -1, Ledger: ledger})
	base := "http://" + s.Addr()
	postJSON(t, base+"/v1/solve", SolveRequest{ConfigSpec: ConfigSpec{Contexts: 2}}, nil)
	postJSON(t, base+"/v1/solve", SolveRequest{ConfigSpec: ConfigSpec{Contexts: 3}}, nil)
	postJSON(t, base+"/v1/sensitivity", SensitivityRequest{}, nil)
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	recs, err := obs.ReadLedger(ledger)
	if err != nil {
		t.Fatalf("ReadLedger: %v", err)
	}
	byLabel := make(map[string]obs.RunRecord)
	for _, r := range recs {
		byLabel[r.Label] = r
	}
	solve, ok := byLabel["class:solve"]
	if !ok {
		t.Fatalf("no class:solve ledger row in %+v", byLabel)
	}
	if solve.Requests != 2 || solve.Cmd != "modelserver" {
		t.Fatalf("solve row = %+v, want 2 requests from modelserver", solve)
	}
	if solve.P99Micros < solve.P50Micros {
		t.Fatalf("solve row percentiles inverted: p50=%g p99=%g", solve.P50Micros, solve.P99Micros)
	}
	if _, ok := byLabel["class:sweep"]; ok {
		t.Fatalf("class:sweep row written with zero sweep requests")
	}
}
