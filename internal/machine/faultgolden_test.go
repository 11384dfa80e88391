package machine

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"locality/internal/checkpoint"
	"locality/internal/faults"
	"locality/internal/mapping"
	"locality/internal/topology"
)

// The fault golden pins the fabric's fault branch: an 8×8 torus under
// random placement (seed 1) at p=2, with protocol message loss and
// transient link stalls, running Warmup 1000 / Window 4000 with a
// snapshot every 1000 cycles. Its window Metrics and the snapshot at
// cycle faultGoldenCycle were written by the machine as of commit
// 4d30b5a; the machine must still reproduce both exactly, and resume
// from that snapshot to the same Metrics.
const (
	faultGoldenWarmup = 1000
	faultGoldenWindow = 4000
	faultGoldenCycle  = 3000
)

var (
	faultGoldenMetrics = filepath.Join("testdata", "fault-8x8-metrics.json")
	faultGoldenCkpt    = filepath.Join("testdata", fmt.Sprintf("fault-8x8-%d.lckp", faultGoldenCycle))
)

func faultGoldenConfig(dir string) Config {
	tor := topology.MustNew(8, 2)
	cfg := DefaultConfig(tor, mapping.Random(tor, 1), 2)
	cfg.Faults = &faults.Spec{Seed: 9, LossRate: 0.02, LinkMTTF: 2000, StallMin: 16, StallMax: 256}
	cfg.Watchdog = faults.Watchdog{StallCycles: 100000}
	cfg.Checkpoint = CheckpointSpec{Every: 1000, Dir: dir}
	return cfg
}

func TestFaultGolden(t *testing.T) {
	raw, err := os.ReadFile(faultGoldenMetrics)
	if err != nil {
		t.Fatal(err)
	}
	var want Metrics
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if want.LinkFaultCycles == 0 || want.DroppedMsgs == 0 {
		t.Fatalf("golden run injected no faults: %+v", want)
	}
	fixture, err := os.ReadFile(faultGoldenCkpt)
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	mach, err := New(faultGoldenConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := execMeasured(t, mach, faultGoldenWarmup, faultGoldenWindow); !reflect.DeepEqual(got, want) {
		t.Errorf("Metrics differ from the golden run:\n want %+v\n got  %+v", want, got)
	}
	mine, err := os.ReadFile(filepath.Join(dir, fmt.Sprintf("ckpt-%d.lckp", faultGoldenCycle)))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mine, fixture) {
		t.Errorf("snapshot at cycle %d is not byte-identical to the golden one", faultGoldenCycle)
	}

	ck, err := checkpoint.Read(bytes.NewReader(fixture))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreFrom(faultGoldenConfig(t.TempDir()), ck)
	if err != nil {
		t.Fatalf("restoring: %v", err)
	}
	res, err := restored.Execute(context.Background(), RunSpec{Warmup: faultGoldenWarmup, Window: faultGoldenWindow, ResumeFrom: true})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Metrics, want) {
		t.Errorf("resumed from the golden snapshot, Metrics differ:\n want %+v\n got  %+v", want, res.Metrics)
	}
}
