package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"locality/internal/serve"
	"locality/internal/sweepgrid"
)

// sweepWorkers is how many in-process workers register for
// served-sweep.
const sweepWorkers = 2

// sweepSpec is served-sweep's grid: p ∈ {1,2,4} × eight placements on
// an 8×8 torus with short windows, so cells differ in cost (more
// contexts and longer distances simulate more traffic) and set-up and
// warmup weigh as much as the window. 24 cells a sweep give a run
// several hundred row latencies.
func sweepSpec(seed int64) sweepgrid.Spec {
	return sweepgrid.Spec{
		Radix: 8, Dims: 2, Contexts: []int{1, 2, 4},
		Mappings: fmt.Sprintf("identity,transpose,bitrev,diag:1,dilation:3,rowshuffle:%d,random:%d,random:%d", seed, seed, seed+1),
		Warmup:   200, Window: 500,
	}
}

// expectedSweep is the CSV /v1/sweep must stream for the grid: kernel
// comment, header, then every cell's row from sweepgrid.Grid.RunRow,
// run one at a time in process. It also returns each cell's time.
func expectedSweep(ctx context.Context, spec sweepgrid.Spec) ([]byte, []time.Duration, error) {
	g, err := sweepgrid.New(spec)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	fmt.Fprintln(&buf, g.KernelComment())
	cw := csv.NewWriter(&buf)
	if err := cw.Write(g.Header()); err != nil {
		return nil, nil, err
	}
	cells := make([]time.Duration, g.Len())
	for i := 0; i < g.Len(); i++ {
		t0 := time.Now()
		row, err := g.RunRow(ctx, i)
		cells[i] = time.Since(t0)
		if err != nil {
			return nil, nil, fmt.Errorf("reference row %d: %w", i, err)
		}
		if err := cw.Write(row); err != nil {
			return nil, nil, err
		}
	}
	cw.Flush()
	return buf.Bytes(), cells, cw.Error()
}

// checkSweep requires the streamed CSV to equal the reference byte for
// byte.
func checkSweep(got, want []byte) error {
	if !bytes.Equal(got, want) {
		return fmt.Errorf("streamed CSV differs from sweepgrid.Grid.RunRow's:\n%s\nwant:\n%s", got, want)
	}
	return nil
}

// sweepOnce posts one sweep and reads the streamed CSV, timing each
// row's arrival from the request's start.
func sweepOnce(c *http.Client, base string, body []byte) (csvBody []byte, rows []time.Duration, err error) {
	t0 := time.Now()
	resp, err := c.Post(base+"/v1/sweep", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return nil, nil, fmt.Errorf("/v1/sweep: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	var buf bytes.Buffer
	br := bufio.NewReader(resp.Body)
	for line := 0; ; line++ {
		b, err := br.ReadBytes('\n')
		buf.Write(b)
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		if line >= 2 { // after the kernel comment and the header
			rows = append(rows, time.Since(t0))
		}
	}
	return buf.Bytes(), rows, nil
}

// runServedSweep drives served-sweep: back-to-back /v1/sweep requests
// through two registered workers until the budget is spent, each
// stream checked byte for byte against the in-process reference.
func runServedSweep(ctx context.Context, r *run) error {
	spec := sweepSpec(r.seed)
	want, cells, err := expectedSweep(ctx, spec)
	if err != nil {
		return err
	}
	body, err := json.Marshal(serve.SweepRequest{Spec: spec})
	if err != nil {
		return err
	}
	if err := timeBoot(r, sweepWorkers); err != nil {
		return err
	}
	c := newClient()
	defer c.CloseIdleConnections()
	st, err := boot(c, sweepWorkers)
	if err != nil {
		return err
	}
	defer st.close()
	before, err := scrape(c, st.base)
	if err != nil {
		return err
	}

	sweep := func(phase string) ([]time.Duration, time.Duration, error) {
		t0 := time.Now()
		got, rows, err := sweepOnce(c, st.base, body)
		d := time.Since(t0)
		if err == nil {
			err = checkSweep(got, want)
		}
		r.record(phase, err)
		return rows, d, err
	}
	// The first sweep parses the grid in each worker and warms the
	// connections; it is checked but not timed.
	if _, _, err := sweep("warmup sweep"); err != nil {
		return err
	}
	var (
		rowTimes []time.Duration
		walls    []time.Duration
		wall     time.Duration
		nRows    int
	)
	for start, n := time.Now(), 0; n == 0 || time.Since(start) < r.budget(); n++ {
		rows, d, err := sweep("sweep")
		if err != nil {
			continue
		}
		walls = append(walls, d)
		wall += d
		nRows += len(rows)
		rowTimes = append(rowTimes, rows...)
	}
	if nRows == 0 {
		return fmt.Errorf("no sweep completed")
	}
	r.metrics["work_per_s"] = float64(nRows) / wall.Seconds()
	us := micros(rowTimes)
	r.metrics["latency_p50_us"] = median(us)
	r.metrics["latency_p90_us"] = percentile(us, 90)
	if !r.trace {
		return nil
	}

	after, err := scrape(c, st.base)
	if err != nil {
		return err
	}
	sweeps := float64(len(walls))
	var cellSum time.Duration
	for _, d := range cells {
		cellSum += d
	}
	r.metrics["sweepgrid.cell_s"] = median(seconds(cells))
	r.metrics["engine.balance_eff"] = cellSum.Seconds() / (sweepWorkers * median(seconds(walls)))
	r.metrics["serve.sweep_chunks"] = (after["locality_serve_sweep_chunks"] - before["locality_serve_sweep_chunks"]) / sweeps
	r.metrics["serve.sweep_requeues"] = after["locality_serve_sweep_requeues"] - before["locality_serve_sweep_requeues"]
	return nil
}
