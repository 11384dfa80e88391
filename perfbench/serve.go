package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"locality/internal/core"
	"locality/internal/serve"
)

// The served workloads run an in-process serve.Server on loopback and
// generate all load from this process with at most nproc goroutines
// and connections.

// Request classes of served-mix, in the order of the class metrics.
var mixClasses = []string{"solve", "gain", "sensitivity"}

// openLoopRate is served-mix's open-loop arrival rate, requests per
// second: about a quarter of what two closed-loop clients complete at
// the seed, so the generator measures latency, not a backlog.
const openLoopRate = 200

// closedShare is the part of the budget spent in the closed-loop phase;
// the open-loop phase gets the rest.
const closedShare = 0.4

// hotConfigs is the size of served-mix's hot set of solve configs.
const hotConfigs = 16

// mixRequest is one generated served-mix request.
type mixRequest struct {
	class string
	path  string
	body  []byte
}

// splitmix64 is a counter-based generator: request i of seed s is a
// pure function of (s, i), so every phase and the traced replay see
// the same sequence without sharing state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// draws yields uniform floats in [0,1) for one request.
type draws struct{ state uint64 }

func (d *draws) next() float64 {
	d.state = splitmix64(d.state)
	return float64(d.state>>11) / (1 << 53)
}

// mixSpec is the ConfigSpec of a generated solve or gain request. Hot
// configs come from a small per-seed set and hit the solve cache after
// their first request; distinct ones have a continuous distance and
// grain, so each is a cache miss.
func mixSpec(seed int64, d *draws, hot bool) serve.ConfigSpec {
	if hot {
		h := &draws{state: uint64(seed)*0x51_7cc1_b727_220a ^ uint64(int(d.next()*hotConfigs))}
		d = h
	}
	cs := serve.ConfigSpec{
		Contexts:    1 + int(d.next()*4),
		D:           1 + 11*d.next(),
		GrainFactor: 0.5 + 1.5*d.next(),
	}
	if d.next() < 0.25 {
		cs.Preset = "alewife-large"
	}
	return cs
}

// mixRequestAt is request i of the seed's sequence: half solves (half
// of those from the hot set), a quarter gains, a quarter sensitivities.
func mixRequestAt(seed int64, i int64) mixRequest {
	d := &draws{state: splitmix64(uint64(seed)) ^ uint64(i)*0x2545f4914f6cdd1d}
	var (
		class, path string
		v           any
	)
	switch u := d.next(); {
	case u < 0.5:
		class, path = "solve", "/v1/solve"
		v = serve.SolveRequest{ConfigSpec: mixSpec(seed, d, u < 0.25)}
	case u < 0.75:
		class, path = "gain", "/v1/gain"
		v = serve.GainRequest{ConfigSpec: mixSpec(seed, d, false), Nodes: float64(int(64 + d.next()*4032))}
	default:
		class, path = "sensitivity", "/v1/sensitivity"
		v = serve.SensitivityRequest{Contexts: 1 + int(d.next()*4), MessagesPer: 2 + 3*d.next(), CriticalPath: 1 + 2*d.next()}
	}
	body, err := json.Marshal(v)
	if err != nil {
		panic(err) // the request types always marshal
	}
	return mixRequest{class: class, path: path, body: body}
}

// expectedMix is the response body the request must produce, decoded
// and re-encoded, computed from core directly.
func expectedMix(req mixRequest) ([]byte, error) {
	var out any
	switch req.class {
	case "solve":
		var sr serve.SolveRequest
		if err := json.Unmarshal(req.body, &sr); err != nil {
			return nil, err
		}
		cfg, err := sr.Resolve()
		if err != nil {
			return nil, err
		}
		sol, err := cfg.Solve()
		if err != nil {
			return nil, err
		}
		out = sol
	case "gain":
		var gr serve.GainRequest
		if err := json.Unmarshal(req.body, &gr); err != nil {
			return nil, err
		}
		cfg, err := gr.Resolve()
		if err != nil {
			return nil, err
		}
		dRandom := core.RandomMappingDistance(cfg.Net.Dims, gr.Nodes)
		ideal, err := cfg.WithDistance(1).Solve()
		if err != nil {
			return nil, err
		}
		random, err := cfg.WithDistance(dRandom).Solve()
		if err != nil {
			return nil, err
		}
		out = core.GainResult{
			Nodes: gr.Nodes, IdealDistance: 1, RandomDistance: dRandom,
			Ideal: ideal, Random: random, Gain: random.IssueTime / ideal.IssueTime,
		}
	default:
		var sr serve.SensitivityRequest
		if err := json.Unmarshal(req.body, &sr); err != nil {
			return nil, err
		}
		out = core.ExpectedSensitivity(sr.Contexts, sr.MessagesPer, sr.CriticalPath)
	}
	return json.Marshal(out)
}

// answerOf extracts the part of a 200 response that expectedMix
// predicts, re-encoded canonically.
func answerOf(class string, body []byte) ([]byte, error) {
	var out any
	switch class {
	case "solve":
		var r serve.SolveResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		out = r.Solution
	case "gain":
		var r serve.GainResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		out = r.GainResult
	default:
		var r serve.SensitivityResponse
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		out = r.Sensitivity
	}
	return json.Marshal(out)
}

// verifyMix checks one response against core. Only 200 responses are
// answers; anything else is a failed request.
func verifyMix(req mixRequest, status int, body []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("%s: HTTP %d: %s", req.path, status, bytes.TrimSpace(body))
	}
	got, err := answerOf(req.class, body)
	if err != nil {
		return fmt.Errorf("%s: decoding response: %w", req.path, err)
	}
	want, err := expectedMix(req)
	if err != nil {
		return fmt.Errorf("%s: computing the expected answer: %w", req.path, err)
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s %s: server answered %s, core computes %s", req.path, req.body, got, want)
	}
	return nil
}

// client is the load generator's HTTP client: at most nproc
// connections to the one server.
func newClient() *http.Client {
	n := runtime.NumCPU()
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n, DisableCompression: true}}
}

func post(c *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// waitHealthy polls /healthz until it answers 200.
func waitHealthy(c *http.Client, base string) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := c.Get(base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server at %s not healthy after 10s (last error %v)", base, err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stack is a served workload's processes: the server and its sweep
// workers, all in process.
type stack struct {
	srv     *serve.Server
	workers []*serve.Worker
	base    string
}

func (s *stack) close() {
	for _, w := range s.workers {
		w.Close()
	}
	s.srv.Close()
}

// boot starts a server and nWorkers registered workers and returns
// once /healthz answers 200.
func boot(c *http.Client, nWorkers int) (*stack, error) {
	srv, err := serve.New(serve.Config{Addr: "127.0.0.1:0"})
	if err != nil {
		return nil, err
	}
	st := &stack{srv: srv, base: "http://" + srv.Addr()}
	for i := 0; i < nWorkers; i++ {
		w := serve.NewWorker(fmt.Sprintf("w%d", i+1), st.base)
		if err := w.Start("127.0.0.1:0", ""); err != nil {
			st.close()
			return nil, err
		}
		st.workers = append(st.workers, w)
	}
	if err := waitHealthy(c, st.base); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// bootReps is how many boots timeBoot times. Every boot leaves its
// loopback connections in TIME_WAIT, so thousands of boots would slow
// later boots and later runs.
const bootReps = 51

// timeBoot measures set-up: server (and worker) start to the first
// healthy response, median of bootReps boots.
func timeBoot(r *run, nWorkers int) error {
	c := newClient()
	defer c.CloseIdleConnections()
	return timeRepeated(r, bootReps, 0, func() (func(), error) {
		st, err := boot(c, nWorkers)
		if err != nil {
			return nil, err
		}
		return func() {
			st.close()
			c.CloseIdleConnections()
		}, nil
	})
}

// sample is one completed served-mix request.
type sample struct {
	class     string
	latency   time.Duration // open loop: from when it was due
	lateness  time.Duration // open loop: send time minus due time
	status    int
	body      []byte
	requestNo int64
	err       error
}

// loadPhase runs one phase with nproc client goroutines. With rate 0
// it is a closed loop: each client sends its next request when the
// last one completes. Otherwise request k of the phase is due at
// start + k/rate and is timed from then.
func loadPhase(c *http.Client, base string, seed, first int64, rate float64, d time.Duration) (samples []sample, wall time.Duration) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		wg   sync.WaitGroup
	)
	start := time.Now()
	end := start.Add(d)
	for g := 0; g < runtime.NumCPU(); g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []sample
			for {
				k := next.Add(1) - 1
				due := time.Now()
				if rate > 0 {
					due = start.Add(time.Duration(float64(k) / rate * float64(time.Second)))
					if due.After(end) {
						break
					}
					time.Sleep(time.Until(due))
				} else if due.After(end) {
					break
				}
				req := mixRequestAt(seed, first+k)
				sent := time.Now()
				status, body, err := post(c, base+req.path, req.body)
				local = append(local, sample{
					class: req.class, latency: time.Since(due), lateness: sent.Sub(due),
					status: status, body: body, requestNo: first + k, err: err,
				})
			}
			mu.Lock()
			samples = append(samples, local...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return samples, time.Since(start)
}

// runServedMix drives served-mix: a closed-loop phase for throughput,
// then an open-loop phase at openLoopRate for latency.
func runServedMix(ctx context.Context, r *run) error {
	if err := timeBoot(r, 0); err != nil {
		return err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	st, err := boot(c, 0)
	if err != nil {
		return err
	}
	defer st.close()
	before, err := scrape(c, st.base)
	if err != nil {
		return err
	}

	closedDur := time.Duration(float64(r.budget()) * closedShare)
	closed, closedWall := loadPhase(c, st.base, r.seed, 0, 0, closedDur)
	open, _ := loadPhase(c, st.base, r.seed, int64(len(closed)), openLoopRate, r.budget()-closedDur)

	after, err := scrape(c, st.base)
	if err != nil {
		return err
	}
	verify := func(phase string, ss []sample) (ok int) {
		for _, s := range ss {
			err := s.err
			if err == nil {
				err = verifyMix(mixRequestAt(r.seed, s.requestNo), s.status, s.body)
			}
			r.record(phase+" "+s.class, err)
			if err == nil {
				ok++
			}
		}
		return ok
	}
	r.metrics["work_per_s"] = float64(verify("closed", closed)) / closedWall.Seconds()
	verify("open", open)

	var all, lateness []time.Duration
	byClass := map[string][]time.Duration{}
	for _, s := range open {
		all = append(all, s.latency)
		lateness = append(lateness, s.lateness)
		byClass[s.class] = append(byClass[s.class], s.latency)
	}
	us := micros(all)
	r.metrics["latency_p50_us"] = median(us)
	r.metrics["latency_p90_us"] = percentile(us, 90)
	if !r.trace {
		return nil
	}

	for _, class := range mixClasses {
		cu := micros(byClass[class])
		r.metrics["serve.class."+class+".p50_us"] = median(cu)
		r.metrics["serve.class."+class+".p99_us"] = percentile(cu, 99)
	}
	r.metrics["client.lateness_p99_us"] = percentile(micros(lateness), 99)
	delta := func(name string) float64 { return after[name] - before[name] }
	if lookups := delta("locality_serve_cache_hits") + delta("locality_serve_cache_misses"); lookups > 0 {
		r.metrics["core.cache_hit_ratio"] = delta("locality_serve_cache_hits") / lookups
	}
	// Every solve request makes one batcher call and every gain
	// request two.
	if calls := delta("locality_serve_solve_requests") + 2*delta("locality_serve_gain_requests"); calls > 0 {
		r.metrics["serve.coalesced_frac"] = delta("locality_serve_batch_coalesced") / calls
	}
	return replayStages(r, int64(len(closed)), len(open))
}

// replayStages replays the open-loop request sequence through the
// serving path's stages, in process and one at a time: JSON decode
// into the public request types, ConfigSpec.Resolve, an uncached
// core.Config.Solve, a core.SolveCache hit, and the response encode.
// serve.wait_us is what the solve class's p50 leaves over: batching,
// HTTP and scheduling.
func replayStages(r *run, first int64, n int) error {
	var decode, resolve, solve, hit, encode []time.Duration
	cache := core.NewSolveCache(0)
	var buf bytes.Buffer
	for k := int64(0); k < int64(n); k++ {
		req := mixRequestAt(r.seed, first+k)
		t0 := time.Now()
		var resp any
		switch req.class {
		case "solve", "gain":
			var cs serve.ConfigSpec
			if req.class == "solve" {
				var sr serve.SolveRequest
				err := json.Unmarshal(req.body, &sr)
				decode = append(decode, time.Since(t0))
				if err != nil {
					return err
				}
				cs = sr.ConfigSpec
			} else {
				var gr serve.GainRequest
				err := json.Unmarshal(req.body, &gr)
				decode = append(decode, time.Since(t0))
				if err != nil {
					return err
				}
				cs = gr.ConfigSpec
			}
			t0 = time.Now()
			cfg, err := cs.Resolve()
			resolve = append(resolve, time.Since(t0))
			if err != nil {
				return err
			}
			t0 = time.Now()
			sol, err := cfg.Solve()
			solve = append(solve, time.Since(t0))
			if err != nil {
				return err
			}
			if _, err := cache.Solve(cfg); err != nil {
				return err
			}
			t0 = time.Now()
			if _, err := cache.Solve(cfg); err != nil {
				return err
			}
			hit = append(hit, time.Since(t0))
			resp = serve.SolveResponse{Solution: sol}
		default:
			var sr serve.SensitivityRequest
			err := json.Unmarshal(req.body, &sr)
			decode = append(decode, time.Since(t0))
			if err != nil {
				return err
			}
			resp = serve.SensitivityResponse{Sensitivity: core.ExpectedSensitivity(sr.Contexts, sr.MessagesPer, sr.CriticalPath)}
		}
		buf.Reset()
		t0 = time.Now()
		err := json.NewEncoder(&buf).Encode(resp)
		encode = append(encode, time.Since(t0))
		if err != nil {
			return err
		}
	}
	med := func(ds []time.Duration) float64 { return median(micros(ds)) }
	r.metrics["serve.decode_us"] = med(decode)
	r.metrics["serve.resolve_us"] = med(resolve)
	r.metrics["core.solve_us"] = med(solve)
	r.metrics["core.cache_hit_us"] = med(hit)
	r.metrics["serve.encode_us"] = med(encode)
	r.metrics["serve.wait_us"] = r.metrics["serve.class.solve.p50_us"] -
		(med(decode) + med(resolve) + med(solve) + med(encode))
	return nil
}

// scrape reads the server's /metrics exposition into name → value for
// every unlabelled sample.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(strings.TrimSpace(val), 64); err == nil {
			out[name] = v
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	return out, nil
}
