package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/model"
)

// writerNode namespaces generator-minted tuple writer ids away from the
// cluster's own transaction ids.
const writerNode = model.NodeID(1 << 14)

// genOp is the generator's pointer-free record of one transaction.
type genOp struct {
	read   bool
	group  int32
	root   int32 // process that submits it (durable-tcp)
	delta  int64
	writer uint64
}

// groupGen draws the data-recording mix of record-mem and inquiry-skew:
// a commuting group update inserts one tuple on each member item and
// bumps its bal and count; a group read reads every member item. A
// group g lives on nodes g mod N and g+1 mod N under one key, so every
// transaction stays inside one partition.
type groupGen struct {
	rng      *rand.Rand
	zipf     *rand.Zipf
	nodes    int
	readFrac float64
	keys     []string
	stream   uint64 // distinguishes the writer ids of concurrent generators
	seq      uint64
}

const groupSpan = 2

func newGroupGen(seed int64, stream int, nodes int, keys []string, readFrac, skew float64) *groupGen {
	g := &groupGen{
		rng:      rand.New(rand.NewSource(seed*7919 + int64(stream))),
		nodes:    nodes,
		readFrac: readFrac,
		keys:     keys,
		stream:   uint64(stream),
	}
	if skew > 1 {
		g.zipf = rand.NewZipf(g.rng, skew, 1, uint64(len(keys)-1))
	}
	return g
}

func groupNodes(group, nodes int) [groupSpan]model.NodeID {
	return [groupSpan]model.NodeID{model.NodeID(group % nodes), model.NodeID((group + 1) % nodes)}
}

func (g *groupGen) next() (*model.TxnSpec, genOp) {
	read := g.rng.Float64() < g.readFrac
	var group int
	if g.zipf != nil {
		group = int(g.zipf.Uint64())
	} else {
		group = g.rng.Intn(len(g.keys))
	}
	members := groupNodes(group, g.nodes)
	key := g.keys[group]
	root := &model.SubtxnSpec{Node: members[g.rng.Intn(groupSpan)], Children: make([]*model.SubtxnSpec, groupSpan)}
	op := genOp{read: read, group: int32(group)}
	if read {
		for i, n := range members {
			root.Children[i] = &model.SubtxnSpec{Node: n, Reads: []string{key}}
		}
		return &model.TxnSpec{Root: root}, op
	}
	g.seq++
	op.writer = uint64(model.MakeTxnID(writerNode+model.NodeID(g.stream), g.seq))
	op.delta = int64(g.rng.Intn(500) + 1)
	for i, n := range members {
		root.Children[i] = &model.SubtxnSpec{Node: n, Updates: []model.KeyOp{
			{Key: key, Op: model.AppendOp{T: model.Tuple{Txn: model.TxnID(op.writer), Part: i + 1, Total: groupSpan, Attr: "chg", Amount: op.delta}}},
			{Key: key, Op: model.AddOp{Field: "bal", Delta: op.delta}},
			{Key: key, Op: model.AddOp{Field: "count", Delta: 1}},
		}}
	}
	return &model.TxnSpec{Root: root}, op
}

// latencies holds one goroutine's latency samples in ns, pointer-free
// and sized before the run.
type latencies struct {
	upd, rd []int64
}

func newLatencies(n int) *latencies {
	return &latencies{upd: make([]int64, 0, n), rd: make([]int64, 0, n)}
}

func (l *latencies) add(read bool, ns int64) {
	if read {
		l.rd = append(l.rd, ns)
	} else {
		l.upd = append(l.upd, ns)
	}
}

func mergeLatencies(ls []*latencies) (upd, rd []int64) {
	for _, l := range ls {
		upd = append(upd, l.upd...)
		rd = append(rd, l.rd...)
	}
	sort.Slice(upd, func(i, j int) bool { return upd[i] < upd[j] })
	sort.Slice(rd, func(i, j int) bool { return rd[i] < rd[j] })
	return upd, rd
}

// pct is the nearest-rank q-quantile of sorted ns samples, in ms.
func pct(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return float64(sorted[i]) / 1e6
}

// waitLimit bounds every wait on a handle; a transaction that has not
// completed by then counts as failed.
const waitLimit = 30 * time.Second

// sweeper requests the benchmark's sweeps: one after every `every`
// submissions, cycling through the partitions. The number of sweeps a
// run requests depends only on its transaction count.
type sweeper struct {
	cl        *core.Cluster
	parts     int
	every     int64
	total     int
	submitted atomic.Int64
	req       chan struct{}
	led       *ledger
	partOf    [][]int32 // groups of each partition
	tr        *tracer
	flt       *faults
	// versions reports every local node's version window of a partition
	// after each sweep (checked against vr < vu <= vr+2).
	versions func(part int) [][2]model.Version

	durs    []int64 // ns per sweep
	phase2  []int64
	phase4  []int64
	polls   []int64
	snapBuf []int64
}

func newSweeper(cl *core.Cluster, parts int, every int64, txns int, led *ledger, partOf [][]int32, tr *tracer, flt *faults, versions func(int) [][2]model.Version) *sweeper {
	total := int(int64(txns) / every)
	return &sweeper{cl: cl, parts: parts, every: every, total: total, req: make(chan struct{}, total+1),
		led: led, partOf: partOf, tr: tr, flt: flt, versions: versions}
}

// note records n more submissions and requests the sweeps they are due.
func (s *sweeper) note(n int) {
	now := s.submitted.Add(int64(n))
	for k := (now-int64(n))/s.every + 1; k <= now/s.every && int(k) <= s.total; k++ {
		s.req <- struct{}{}
	}
}

// run performs every requested sweep; it returns once all are done.
func (s *sweeper) run() {
	for i := 0; i < s.total; i++ {
		<-s.req
		s.sweep(i % s.parts)
	}
}

// sweep advances one partition (the whole cluster when unpartitioned),
// then raises the read floors of its groups.
func (s *sweeper) sweep(part int) {
	groups := s.partOf[part]
	s.snapBuf = s.led.snapshot(groups, s.snapBuf)
	t0 := s.tr.now()
	start := time.Now()
	var rep core.AdvanceReport
	if s.parts == 1 {
		rep = s.cl.Advance()
	} else {
		rep = s.cl.AdvancePartition(part)
	}
	s.durs = append(s.durs, int64(time.Since(start)))
	s.tr.record(spAdvance, t0, s.tr.now(), 0)
	if rep.Err != nil {
		s.flt.add(fmt.Errorf("sweep of partition %d: %w", part, rep.Err))
		return
	}
	s.phase2 = append(s.phase2, int64(rep.Phase2))
	s.phase4 = append(s.phase4, int64(rep.Phase4))
	s.polls = append(s.polls, int64(rep.SweepsPhase2+rep.SweepsPhase4))
	s.led.raise(groups, s.snapBuf)
	for i, w := range s.versions(part) {
		s.flt.add(checkVersions(fmt.Sprintf("node %d partition %d", i, part), w[0], w[1]))
	}
}

// inflight is one submitted, not yet completed transaction.
type inflight struct {
	h        *core.Handle
	op       genOp
	minCount int64
	late     int64 // how late the open loop submitted it, in ns
	start    int64 // tracer time at submission
}

// closedLoop runs perG transactions on each of its load goroutines (one
// per generator), each keeping up to window transactions in flight and
// submitting batch transactions per call (SubmitBatch when batch > 1).
type closedLoop struct {
	cl     *core.Cluster
	gens   []*groupGen
	perG   int
	window int
	batch  int
	led    *ledger
	sw     *sweeper // nil: no sweeps
	tr     *tracer
	flt    *faults
	failed atomic.Int64
	lats   []*latencies
	// checkNs is the time the load goroutines spent checking group
	// reads, inside the measured phase.
	checkNs atomic.Int64
}

// tupleCheckEvery is how often a load goroutine compares the tuple sets
// of a group read: every read gets the constant-time checks, but
// hashing a hot item's log costs time in its length. Hashing every read
// of inquiry-skew took 4 ms per 1000 transactions, 14% of its
// cpu_ms_per_ktxn; one read in 64 brings loadgen.check_ms_per_ktxn to
// 0.6 ms. The final check after the last sweep hashes every group.
const tupleCheckEvery = 64

func (c *closedLoop) run() {
	var wg sync.WaitGroup
	c.lats = make([]*latencies, len(c.gens))
	for i := range c.gens {
		c.lats[i] = newLatencies(c.perG)
	}
	for i := range c.gens {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.drive(c.gens[i], c.lats[i])
		}(i)
	}
	wg.Wait()
}

func (c *closedLoop) drive(g *groupGen, lat *latencies) {
	ring := make([]inflight, 0, c.window+c.batch)
	specs := make([]*model.TxnSpec, c.batch)
	ops := make([]genOp, c.batch)
	floors := make([]int64, c.batch)
	one := make([]*core.Handle, 1)
	reads := 0
	for done := 0; done < c.perG; done += c.batch {
		for i := range specs {
			specs[i], ops[i] = g.next()
			if ops[i].read {
				// Loaded before submitting: a sweep that returns later
				// must not raise what this read is held to.
				floors[i] = c.led.floor[ops[i].group].Load()
			} else {
				c.led.issue(int(ops[i].group), ops[i].delta, ops[i].writer)
			}
		}
		t0 := c.tr.now()
		hs := one
		var err error
		if c.batch == 1 {
			one[0], err = c.cl.Submit(specs[0])
		} else {
			hs, err = c.cl.SubmitBatch(specs)
		}
		c.tr.record(spSubmit, t0, c.tr.now(), 0)
		if c.sw != nil {
			c.sw.note(len(specs)) // failed submissions count too: the sweeps due stay the same
		}
		if err != nil {
			c.flt.add(fmt.Errorf("submit: %w", err))
			c.failed.Add(int64(len(specs)))
			continue
		}
		for i, h := range hs {
			ring = append(ring, inflight{h: h, op: ops[i], minCount: floors[i], start: t0})
		}
		for len(ring) > c.window {
			c.complete(ring[0], lat, &reads)
			ring = append(ring[:0], ring[1:]...)
		}
		for i := range specs {
			specs[i] = nil
		}
	}
	for _, f := range ring {
		c.complete(f, lat, &reads)
	}
}

// complete waits for one transaction and checks it; reads counts the
// goroutine's group reads, to pick those whose tuple sets are compared.
func (c *closedLoop) complete(f inflight, lat *latencies, reads *int) {
	if !f.h.WaitTimeout(waitLimit) {
		c.failed.Add(1)
		c.flt.add(fmt.Errorf("transaction %v did not complete within %v", f.h.ID, waitLimit))
		return
	}
	if st := f.h.Status(); st != core.StatusCommitted {
		c.failed.Add(1)
		c.flt.add(fmt.Errorf("transaction %v ended %v", f.h.ID, st))
		return
	}
	d := f.h.Latency()
	lat.add(f.op.read, int64(d))
	c.tr.record(spTxn, f.start, f.start+int64(d), uint64(f.h.ID))
	if f.op.read {
		t := time.Now()
		c.flt.add(checkGroupRead(f.h.Reads(), groupSpan, f.minCount, *reads%tupleCheckEvery == 0))
		c.checkNs.Add(int64(time.Since(t)))
		*reads++
		return
	}
	c.led.acked[f.op.group].Add(1)
}
