package main

import (
	"encoding/json"
	"os"
	"strings"
	"testing"

	"repro/internal/model"
)

// groupState builds the records of one group after the given updates
// (writer id, delta) were applied to both member items.
func groupState(updates [][2]int64) (a, b *model.Record) {
	a, b = newRecord(), newRecord()
	for _, u := range updates {
		for i, r := range []*model.Record{a, b} {
			model.AppendOp{T: model.Tuple{Txn: model.TxnID(u[0]), Part: i + 1, Total: 2, Amount: u[1]}}.Apply(r)
			model.AddOp{Field: "bal", Delta: u[1]}.Apply(r)
			model.AddOp{Field: "count", Delta: 1}.Apply(r)
		}
	}
	return a, b
}

func reads(a, b *model.Record) []model.ReadResult {
	return []model.ReadResult{{Node: 0, Key: "g00000", Record: a}, {Node: 1, Key: "g00000", Record: b}}
}

// issued records updates in a ledger the way the generator does.
func issued(updates [][2]int64) *ledger {
	led := newLedger(1)
	for _, u := range updates {
		led.issue(0, u[1], uint64(u[0]))
		led.acked[0].Add(1)
	}
	return led
}

func finalCheck(led *ledger, a, b *model.Record) error {
	return checkFinalGroup(reads(a, b), 2, led.bal[0].Load(), led.acked[0].Load(), led.hash[0].Load())
}

var stream = [][2]int64{{101, 5}, {102, 7}, {103, 11}}

// TestOracleAcceptsCorrectOutputs is the control for the planted faults.
func TestOracleAcceptsCorrectOutputs(t *testing.T) {
	a, b := groupState(stream)
	if err := finalCheck(issued(stream), a, b); err != nil {
		t.Fatal(err)
	}
	if err := checkGroupRead(reads(a, b), 2, 3, true); err != nil {
		t.Fatal(err)
	}
	if err := checkKeyValue("primary 0", "acct00", a, 23, 3); err != nil {
		t.Fatal(err)
	}
}

// TestOracleFlagsLostDelta: an acknowledged update whose delta never
// reached the store.
func TestOracleFlagsLostDelta(t *testing.T) {
	a, b := groupState(stream[:2])
	if err := finalCheck(issued(stream), a, b); err == nil {
		t.Fatal("a lost update passed the final group check")
	}
	if err := checkKeyValue("primary 0", "acct00", a, 23, 3); err == nil {
		t.Fatal("a lost delta passed the settled key check")
	}
	// The delta alone lost: the tuple and the count arrived.
	a, b = groupState(stream)
	a.Fields["bal"] -= 7
	b.Fields["bal"] -= 7
	if err := finalCheck(issued(stream), a, b); err == nil || !strings.Contains(err.Error(), "lost") {
		t.Fatalf("a lost delta was not flagged as one: %v", err)
	}
}

// TestOracleFlagsTornGroupRead: a group read that sees an update on one
// member item and not on the other.
func TestOracleFlagsTornGroupRead(t *testing.T) {
	// The constant-time checks, made on every read, catch these two.
	for _, tuples := range []bool{false, true} {
		a, _ := groupState(stream)
		_, b := groupState(stream[:2])
		if err := checkGroupRead(reads(a, b), 2, 0, tuples); err == nil {
			t.Fatalf("a torn group read passed (tuple sets compared: %v)", tuples)
		}
		// Count bumped without its tuple.
		a, b = groupState(stream)
		a.Fields["count"]++
		if err := checkGroupRead(reads(a, b), 2, 0, tuples); err == nil {
			t.Fatalf("an item whose count and tuples disagree passed (tuple sets compared: %v)", tuples)
		}
	}
	// Same count and balance on both items, different tuples.
	a, _ := groupState(stream)
	_, b := groupState([][2]int64{{101, 5}, {102, 7}, {104, 11}})
	if err := checkGroupRead(reads(a, b), 2, 0, true); err == nil {
		t.Fatal("a group read with different tuple sets passed")
	}
}

// TestOracleFlagsStalePostSweepRead: a read submitted after a sweep
// returned misses an update acknowledged before the sweep began.
func TestOracleFlagsStalePostSweepRead(t *testing.T) {
	led := newLedger(1)
	groups := []int32{0}
	for range stream {
		led.acked[0].Add(1)
	}
	snap := led.snapshot(groups, nil) // the sweep begins
	led.acked[0].Add(1)               // acknowledged during the sweep: no floor
	led.raise(groups, snap)           // the sweep returned
	floor := led.floor[0].Load()
	if floor != int64(len(stream)) {
		t.Fatalf("floor %d, want %d", floor, len(stream))
	}
	a, b := groupState(stream[:2])
	if err := checkGroupRead(reads(a, b), 2, floor, false); err == nil || !strings.Contains(err.Error(), "stale") {
		t.Fatalf("a stale post-sweep read was not flagged: %v", err)
	}
	a, b = groupState(stream)
	if err := checkGroupRead(reads(a, b), 2, floor, true); err != nil {
		t.Fatalf("a fresh read was flagged: %v", err)
	}
}

// TestOracleBackupCheck: a backup that misses updates is counted, not
// flagged; one that holds an update twice, or whose balance disagrees
// with a full count, is flagged.
func TestOracleBackupCheck(t *testing.T) {
	a, _ := groupState(stream)
	if lost, err := checkBackupValue("backup 1", "acct00", a, 23, 3); err != nil || lost != 0 {
		t.Fatalf("an exact backup: lost %d, %v", lost, err)
	}
	a, _ = groupState(stream[:2])
	if lost, err := checkBackupValue("backup 1", "acct00", a, 23, 3); err != nil || lost != 1 {
		t.Fatalf("a backup missing one update: lost %d, %v", lost, err)
	}
	a, _ = groupState(append(stream, stream[2]))
	if _, err := checkBackupValue("backup 1", "acct00", a, 23, 3); err == nil {
		t.Fatal("a backup holding an update twice passed")
	}
	a, _ = groupState(stream)
	a.Fields["bal"] -= 7
	if _, err := checkBackupValue("backup 1", "acct00", a, 23, 3); err == nil {
		t.Fatal("a backup with every update and a lost delta passed")
	}
}

// TestOracleFlagsVersionWindow checks vr < vu <= vr+2.
func TestOracleFlagsVersionWindow(t *testing.T) {
	for _, w := range [][2]model.Version{{1, 1}, {2, 1}, {1, 4}} {
		if checkVersions("node 0", w[0], w[1]) == nil {
			t.Errorf("window vr=%d vu=%d passed", w[0], w[1])
		}
	}
	for _, w := range [][2]model.Version{{0, 1}, {1, 3}} {
		if err := checkVersions("node 0", w[0], w[1]); err != nil {
			t.Error(err)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	q1, q2, q3 := quartiles(v)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4})
	if q1 != 1 || q2 != 2 || q3 != 4 {
		t.Fatalf("quartiles %v %v %v, want 1 2 4", q1, q2, q3)
	}
}

// TestBenchmarkJSONMatchesMetrics keeps BENCHMARK.json and the metrics
// this program prints in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(label string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", label, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]", label, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, e2eDefs)
	same("per_layer", spec.PerLayer, layerDefs)
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json has %s, the program %s", i, w.Name, workloadNames[i])
		}
	}
}
