// Allocation gates for the embedded steady-state insert path: commit,
// sequence, ring store and publish on heap events. CI runs them without
// -race and fails the build on regression.
package unicache

import (
	"testing"

	"unicache/internal/types"
)

// maxInsertAllocs bounds the allocations of one warm insert, batch or
// single row: the commit path allocates one tuple array, one event array and
// the two pointer slices over them per batch, and nothing per event.
const maxInsertAllocs = 4

// TestSteadyStateInsertBatchAllocs: once the ephemeral ring has wrapped, a
// 64-row InsertBatch allocates at most maxInsertAllocs times — per batch,
// not per event.
func TestSteadyStateInsertBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is meaningless under -race instrumentation")
	}
	eng, err := NewEmbedded(Config{TimerPeriod: -1, EphemeralCapacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = eng.Close() }()
	if _, err := eng.Exec(`create table T (src integer, v integer)`); err != nil {
		t.Fatal(err)
	}
	const batchSize = 64
	rows := make([][]Value, batchSize)
	vals := make([]Value, 2*batchSize)
	for i := range rows {
		rows[i] = vals[2*i : 2*i+2]
		rows[i][0] = types.Int(int64(i))
		rows[i][1] = types.Int(int64(i))
	}
	// Warm up: wrap the ring several times so it is at steady state.
	for i := 0; i < 64; i++ {
		if err := eng.InsertBatch("T", rows); err != nil {
			t.Fatal(err)
		}
	}
	var insertErr error
	perBatch := testing.AllocsPerRun(200, func() {
		if err := eng.InsertBatch("T", rows); err != nil {
			insertErr = err
		}
	})
	if insertErr != nil {
		t.Fatal(insertErr)
	}
	if perBatch > maxInsertAllocs {
		t.Errorf("steady-state InsertBatch allocates %.2f times per %d-row batch, want <= %d",
			perBatch, batchSize, maxInsertAllocs)
	}
}

// TestSteadyStateSingleInsertAllocs pins the single-row path: Insert is a
// one-row batch and must cost no more than one.
func TestSteadyStateSingleInsertAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation accounting is meaningless under -race instrumentation")
	}
	eng, err := NewEmbedded(Config{TimerPeriod: -1, EphemeralCapacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = eng.Close() }()
	if _, err := eng.Exec(`create table T (v integer)`); err != nil {
		t.Fatal(err)
	}
	row := []Value{types.Int(1)}
	for i := 0; i < 1024; i++ {
		if err := eng.Insert("T", row...); err != nil {
			t.Fatal(err)
		}
	}
	var insertErr error
	perOp := testing.AllocsPerRun(200, func() {
		if err := eng.Insert("T", row...); err != nil {
			insertErr = err
		}
	})
	if insertErr != nil {
		t.Fatal(insertErr)
	}
	if perOp > maxInsertAllocs {
		t.Errorf("steady-state Insert allocates %.2f times per event, want <= %d", perOp, maxInsertAllocs)
	}
}
