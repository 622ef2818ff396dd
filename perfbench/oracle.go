package main

import (
	"fmt"
	"sync/atomic"

	"repro/internal/model"
)

// The oracle checks the program's outputs against the generator's own
// record of what it issued and against properties the 3V method must
// have. Nothing here reads a stored copy of earlier output.

// mix scrambles a writer id (splitmix64 finaliser) so that the sum of
// the mixed ids of a tuple set identifies the set.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ledger is the generator's record of what it issued, per item group
// (a group is one item per member node, or one key in durable-tcp). It
// holds no pointers.
type ledger struct {
	bal   []atomic.Int64  // sum of issued bal deltas
	hash  []atomic.Uint64 // sum of mix(writer) over issued updates
	acked []atomic.Int64  // updates acknowledged (handle completed)
	// floor is the count a read submitted now must at least see: the
	// acked count captured when the latest returned sweep of the group's
	// partition began.
	floor []atomic.Int64
}

func newLedger(groups int) *ledger {
	return &ledger{
		bal:   make([]atomic.Int64, groups),
		hash:  make([]atomic.Uint64, groups),
		acked: make([]atomic.Int64, groups),
		floor: make([]atomic.Int64, groups),
	}
}

func (l *ledger) issue(group int, delta int64, writer uint64) {
	l.bal[group].Add(delta)
	if writer != 0 {
		l.hash[group].Add(mix(writer))
	}
}

// snapshot captures the acked counts of groups, to become their floors
// once the sweep that starts now returns.
func (l *ledger) snapshot(groups []int32, dst []int64) []int64 {
	dst = dst[:0]
	for _, g := range groups {
		dst = append(dst, l.acked[g].Load())
	}
	return dst
}

// raise installs a snapshot taken by snapshot as the groups' floors.
func (l *ledger) raise(groups []int32, snap []int64) {
	for i, g := range groups {
		for {
			cur := l.floor[g].Load()
			if snap[i] <= cur || l.floor[g].CompareAndSwap(cur, snap[i]) {
				break
			}
		}
	}
}

// itemView is what one read returned for one item.
type itemView struct {
	count int64
	bal   int64
	n     int    // tuples in the log
	hash  uint64 // sum of mix(tuple writer)
}

// viewOf summarises one item; it hashes the tuple set only if tuples is
// set, since that costs time in the length of the item's log.
func viewOf(r *model.Record, tuples bool) itemView {
	v := itemView{count: r.Fields["count"], bal: r.Fields["bal"], n: len(r.Log)}
	if tuples {
		for _, t := range r.Log {
			v.hash += mix(uint64(t.Txn))
		}
	}
	return v
}

// checkGroupRead checks one group read: it returned one result per
// member node, every item shows the same count and balance and, if
// tuples is set, the same tuple set (all-or-nothing visibility,
// Theorem 4.1), each item holds one tuple per counted update, and the
// count is at least minCount (a read submitted after a sweep returned
// sees every update acknowledged before that sweep began). Every check
// but the tuple set's costs constant time.
func checkGroupRead(reads []model.ReadResult, span int, minCount int64, tuples bool) error {
	if len(reads) != span {
		return fmt.Errorf("group read returned %d results, want %d", len(reads), span)
	}
	var first itemView
	for i, r := range reads {
		if r.Record == nil {
			return fmt.Errorf("group read of %s at node %d returned no record", r.Key, r.Node)
		}
		v := viewOf(r.Record, tuples)
		if int64(v.n) != v.count {
			return fmt.Errorf("torn item %s at node %d: count %d but %d tuples", r.Key, r.Node, v.count, v.n)
		}
		if i == 0 {
			first = v
			continue
		}
		if v.count != first.count || v.hash != first.hash || v.bal != first.bal {
			return fmt.Errorf("torn group read of %s: node %d sees count %d bal %d, node %d sees count %d bal %d (or different tuples)",
				r.Key, reads[0].Node, first.count, first.bal, r.Node, v.count, v.bal)
		}
	}
	if first.count < minCount {
		return fmt.Errorf("stale read of %s: count %d, but %d updates were acknowledged before a sweep that returned before the read was submitted",
			reads[0].Key, first.count, minCount)
	}
	return nil
}

// checkFinalGroup checks a group read taken after the final sweep
// against everything the generator issued to the group.
func checkFinalGroup(reads []model.ReadResult, span int, wantBal, wantCount int64, wantHash uint64) error {
	if err := checkGroupRead(reads, span, wantCount, true); err != nil {
		return err
	}
	v := viewOf(reads[0].Record, true)
	switch {
	case v.bal != wantBal:
		return fmt.Errorf("lost or extra delta on %s: bal %d, issued deltas sum to %d", reads[0].Key, v.bal, wantBal)
	case v.count != wantCount:
		return fmt.Errorf("count of %s is %d, %d updates were acknowledged", reads[0].Key, v.count, wantCount)
	case v.hash != wantHash:
		return fmt.Errorf("tuple set of %s differs from the tuples issued", reads[0].Key)
	}
	return nil
}

// checkKeyValue checks one key's settled fields against the ledger.
func checkKeyValue(where, key string, rec *model.Record, wantBal, wantCount int64) error {
	if rec == nil {
		return fmt.Errorf("%s: %s missing", where, key)
	}
	if b, c := rec.Fields["bal"], rec.Fields["count"]; b != wantBal || c != wantCount {
		return fmt.Errorf("%s: %s has bal %d count %d, want bal %d count %d", where, key, b, c, wantBal, wantCount)
	}
	return nil
}

// checkBackupValue checks one key's settled fields on a backup. A
// backup may miss acknowledged updates: the replication race of the
// README's first fault drops some in most rounds and none in others, so
// exactness cannot be required of a backup on every run. What the race
// leaves intact is required: a backup never holds more than was
// acknowledged, and it is exact wherever it has every update (each
// delta is positive, so a missed update always lowers the balance).
// It returns how many acknowledged updates the backup misses.
func checkBackupValue(where, key string, rec *model.Record, wantBal, wantCount int64) (int64, error) {
	if rec == nil {
		return 0, fmt.Errorf("%s: %s missing", where, key)
	}
	b, c := rec.Fields["bal"], rec.Fields["count"]
	if c > wantCount || b > wantBal || (c == wantCount) != (b == wantBal) {
		return 0, fmt.Errorf("%s: %s has bal %d count %d, want bal %d count %d or fewer updates", where, key, b, c, wantBal, wantCount)
	}
	return wantCount - c, nil
}

// checkVersions checks the version window vr < vu <= vr+2.
func checkVersions(where string, vr, vu model.Version) error {
	if !(vr < vu && vu <= vr+2) {
		return fmt.Errorf("%s: version window broken: vr=%d vu=%d", where, vr, vu)
	}
	return nil
}

// faults collects oracle failures; the first few are kept for the
// report.
type faults struct {
	n    atomic.Int64
	msgs chan string
}

func newFaults() *faults { return &faults{msgs: make(chan string, 16)} }

func (f *faults) add(err error) {
	if err == nil {
		return
	}
	f.n.Add(1)
	select {
	case f.msgs <- err.Error():
	default:
	}
}

func (f *faults) list() []string {
	var out []string
	for {
		select {
		case m := <-f.msgs:
			out = append(out, m)
		default:
			return out
		}
	}
}
