package main

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/transport"
)

// pollTypes are the counter-collection messages: how many polling
// rounds a sweep needs depends on when the counters balance, so their
// counts are compared by presence only.
var pollTypes = map[string]bool{"counter_req": true, "counter_reply": true, "counters_req": true, "counters": true}

// compareByType requires the same payload types in both runs and equal
// counts for every type outside pollTypes.
func compareByType(t *testing.T, label string, wrapped, plain map[string]int64) {
	t.Helper()
	names := map[string]bool{}
	for k := range wrapped {
		names[k] = true
	}
	for k := range plain {
		names[k] = true
	}
	var sorted []string
	for k := range names {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)
	for _, k := range sorted {
		w, p := wrapped[k], plain[k]
		if (w > 0) != (p > 0) || (!pollTypes[k] && w != p) {
			t.Errorf("%s: %s sent %d times wrapped, %d times unwrapped", label, k, w, p)
		}
	}
}

// groupStream runs a fixed serial stream on an in-process cluster and
// returns its per-type message counts.
func groupStream(t *testing.T, p groupParams, wrap bool) map[string]int64 {
	tr := newTracer(1 << 12)
	tr.start()
	cl, _, closeFn, err := buildGroupCluster(p, tr, false, wrap)
	if err != nil {
		t.Fatal(err)
	}
	defer closeFn()
	g := newGroupGen(1, 0, p.nodes, groupKeys(p.groups), p.readFrac, p.skew)
	for i := 0; i < 40; i++ {
		specs := make([]*model.TxnSpec, p.batch)
		for j := range specs {
			specs[j], _ = g.next()
		}
		var hs []*core.Handle
		var err error
		if len(specs) == 1 {
			var h *core.Handle
			h, err = cl.Submit(specs[0])
			hs = append(hs, h)
		} else {
			hs, err = cl.SubmitBatch(specs)
		}
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hs {
			if !h.WaitTimeout(10 * time.Second) {
				t.Fatal("transaction did not complete")
			}
		}
	}
	for part := 0; part < cl.Partitions(); part++ {
		if rep := cl.AdvancePartition(part); rep.Err != nil {
			t.Fatal(rep.Err)
		}
	}
	return cl.Metrics().Transport.ByType
}

// TestWrappedGroupClusterTakesSamePath runs record-mem's and
// inquiry-skew's configurations with and without the network wrapper.
func TestWrappedGroupClusterTakesSamePath(t *testing.T) {
	for name, p := range map[string]groupParams{"record-mem": recordMem, "inquiry-skew": inquirySkew} {
		p.groups = 64
		compareByType(t, name, groupStream(t, p, true), groupStream(t, p, false))
	}
}

// durableStream runs a fixed serial stream on durable-tcp's topology
// and returns the per-type message counts and WAL records of each node.
func durableStream(t *testing.T, wrap bool) ([]map[string]int64, []uint64) {
	p := durableTCP
	p.lease = time.Hour // no heartbeats, whose number depends on elapsed time
	keys := make([]string, 6)
	for i := range keys {
		keys[i] = fmt.Sprintf("acct%02d", i)
	}
	tr := newTracer(1 << 12)
	tr.start()
	procs, e, err := buildDurable(p, keys, t.TempDir(), tr, false, wrap)
	if err != nil {
		t.Fatal(err)
	}
	defer closeDurable(procs)
	coord := procs[0].cl
	pm := coord.PlacementMap()
	g := newKeyGen(1, 0, keys, p.readFrac, len(procs))
	primary := func(k int) model.NodeID { return coord.CurrentPrimary(pm.Of(keys[k])) }
	for i := 0; i < 60; i++ {
		spec, op := g.draw(primary)
		h, err := procs[op.root].cl.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		if !h.WaitTimeout(10 * time.Second) {
			t.Fatal("transaction did not complete")
		}
		settle(t, procs)
	}
	var byType []map[string]int64
	var records []uint64
	for i, cl := range e.clusters {
		byType = append(byType, cl.Metrics().Transport.ByType)
		records = append(records, e.dbs[i].Stats().Records)
	}
	return byType, records
}

// settle waits until no session frame is unacknowledged and every
// backup has applied its primary's stream, so the next transaction
// starts on a quiet cluster and acks are never coalesced by timing.
func settle(t *testing.T, procs []*durProc) {
	t.Helper()
	if err := waitReplicated(procs, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		busy := 0
		for _, pr := range procs {
			busy += pr.cl.Session().InFlight()
		}
		if busy == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d session frames still unacknowledged", busy)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWrappedDurableClusterTakesSamePath runs durable-tcp's topology
// with and without the network, journal and session-journal wrappers.
func TestWrappedDurableClusterTakesSamePath(t *testing.T) {
	wt, wr := durableStream(t, true)
	pt, pr := durableStream(t, false)
	for i := range wt {
		compareByType(t, fmt.Sprintf("node %d", i), wt[i], pt[i])
		if wr[i] != pr[i] {
			t.Errorf("node %d: %d WAL records wrapped, %d unwrapped", i, wr[i], pr[i])
		}
	}
}

// TestWrappersKeepExtensions checks that wrapping never hides an
// optional interface core or the session layer looks for.
func TestWrappersKeepExtensions(t *testing.T) {
	tr := newTracer(0)
	w, _ := wrapNet(transport.NewNet(transport.Config{Nodes: 2}), tr)
	if _, ok := w.(transport.FaultInjector); !ok {
		t.Error("wrapped in-memory net hides transport.FaultInjector")
	}
	var j core.Journal = &journalWrap{tr: tr}
	if _, ok := j.(core.ChunkJournal); !ok {
		t.Error("wrapped journal hides core.ChunkJournal")
	}
	if _, ok := j.(core.TermJournal); !ok {
		t.Error("wrapped journal hides core.TermJournal")
	}
	if _, ok := j.(core.ReplJournal); !ok {
		t.Error("wrapped journal hides core.ReplJournal")
	}
}
