package core

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"multicluster/internal/trace"
)

// sliceSource adapts a pre-materialized entry slice to trace.Source, handing
// each batch member its own independent reader.
type sliceSource struct {
	entries []trace.Entry
}

func (s sliceSource) NewReader() trace.Reader {
	return &trace.SliceReader{Entries: s.entries}
}

// TestRunBatchMatchesStandalone pins the batch runner's core contract:
// stepping N configurations over a shared source produces statistics
// identical to N independent runs.
func TestRunBatchMatchesStandalone(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	_, entries := randomStream(rng, 20_000)
	src := sliceSource{entries: entries}

	cfgs := []Config{
		SingleCluster8Way(),
		DualCluster4Way(),
		SingleCluster4Way(),
		DualCluster2Way(),
	}
	for i := range cfgs {
		cfgs[i].MaxCycles = int64(len(entries)) * 200
	}

	batched, err := RunBatch(cfgs, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(batched) != len(cfgs) {
		t.Fatalf("RunBatch returned %d stats, want %d", len(batched), len(cfgs))
	}
	for i, cfg := range cfgs {
		p, err := New(cfg, src.NewReader())
		if err != nil {
			t.Fatal(err)
		}
		want, err := p.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(batched[i].Snapshot(), want.Snapshot()) {
			t.Errorf("member %d: batched stats diverge from standalone run", i)
		}
	}
}

// TestRunBatchMemberError checks that a failing member aborts the batch with
// its index attributed.
func TestRunBatchMemberError(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	_, entries := randomStream(rng, 500)
	src := sliceSource{entries: entries}

	bad := SingleCluster8Way()
	bad.Clusters = 0 // fails Config validation
	_, err := RunBatch([]Config{SingleCluster8Way(), bad}, src)
	if err == nil {
		t.Fatal("RunBatch accepted an invalid member configuration")
	}
	if want := "batch member 1"; !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not attribute the failing member (%q)", err, want)
	}
}
