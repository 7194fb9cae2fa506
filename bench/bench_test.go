package main

import (
	"bytes"
	"testing"
)

// The same seed must yield byte-identical generated rows, and another
// seed must not: every run's inputs are a pure function of -seed.
func TestGenerateDeterministic(t *testing.T) {
	enc := func(seed int64) []byte {
		b, err := generate(seed).encode()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b, c := enc(7), enc(7), enc(8)
	if !bytes.Equal(a, b) {
		t.Error("seed 7 generated different rows on two calls")
	}
	if bytes.Equal(a, c) {
		t.Error("seeds 7 and 8 generated identical rows")
	}
}

// The references restate the pattern semantics; pin them on a stream
// small enough to check by hand.
func TestPatternReferences(t *testing.T) {
	s := func(name string, vol int64) vEvent { return vEvent{name: name, vol: vol} }
	evs := []vEvent{
		s("A", 9950), // starts a run
		s("B", 100),  // starts a no-halt wait on B
		s("A", 150),  // tiny before any b: skipped (and starts a no-halt wait on A)
		s("A", 6000), // b
		{name: "B", halt: true},
		s("B", 9950), // big, but after a halt of B: no no-halt match; starts a run on B
		s("A", 100),  // c closes the run on A; starts another no-halt wait on A
		s("A", 9990), // big with no halt of A between: completes both waits on A
	}
	for i := range evs {
		evs[i].ts, evs[i].seq = int64(i+1), uint64(i+1)
	}
	if got := referenceRun(evs); got != 1 {
		t.Errorf("referenceRun = %d, want 1", got)
	}
	if got := referenceNoHalt(evs); got != 2 {
		t.Errorf("referenceNoHalt = %d, want 2", got)
	}
}

// Smoke: the quick embedded-fanout run passes every gate and reports
// every end-to-end metric, so the benchmark keeps compiling and running.
func TestQuickEmbeddedFanout(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("timed run: skipped under -short and -race")
	}
	def, _ := findWorkload("embedded-fanout")
	rep, err := runWorkload(def, options{workload: def.name, seed: 1, seconds: 4})
	runCleanups()
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.failures) != 0 {
		t.Fatalf("failed checks: %v", rep.failures)
	}
	for _, name := range []string{"setup_s", "events_per_s", "notify_p50_us",
		"cpu_us_per_event", "allocs_per_event", "peak_rss_mb"} {
		if m, ok := rep.metrics[name]; !ok || !(m.Value > 0) {
			t.Errorf("metric %s = %v, want a positive value", name, m.Value)
		}
	}
}
