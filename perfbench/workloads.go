package main

import (
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/model"
	"repro/internal/partition"
	"repro/internal/transport"
	"repro/internal/transport/reliable"
	"repro/internal/transport/tcpnet"
	"repro/internal/wal"
)

// groupParams configures record-mem and inquiry-skew.
type groupParams struct {
	nodes, parts, groups int
	readFrac, skew       float64
	batch, window        int   // per load goroutine
	txns, warmup         int   // measured and warm-up transactions per round
	sweepEvery           int64 // submissions between requested sweeps
	// batched turns on the batched hot path: the mem net's link batch
	// window, chunked admission and batched counter collection.
	batched bool
}

// durParams configures durable-tcp.
type durParams struct {
	nodes, parts, keys int
	readFrac           float64
	rate               float64 // offered transactions per second
	burst              int     // transactions offered at once
	txns, warmup       int
	sweepEvery         int64
	// lease is the coordinator and replica lease heartbeat period.
	lease time.Duration
}

var (
	recordMem = groupParams{nodes: 4, parts: 1, groups: 4096, readFrac: 0.1,
		batch: 1, window: 8, txns: 120000, warmup: 12000, sweepEvery: 5000}
	inquirySkew = groupParams{nodes: 4, parts: 4, groups: 1024, readFrac: 0.7, skew: 1.1,
		batch: 8, window: 64, txns: 80000, warmup: 8000, sweepEvery: 2000, batched: true}
	durableTCP = durParams{nodes: 3, parts: 3, keys: 30, readFrac: 0.1, rate: 4000, burst: 32,
		txns: 4000, warmup: 600, sweepEvery: 250, lease: 50 * time.Millisecond}
)

// The program's head sampling rate in traced rounds (threev-node's
// default), and the span buffer of a traced round.
const (
	traceSampleN = 64
	spanCap      = 1 << 18
)

// roundOut is the outcome of one round.
type roundOut struct {
	attempted, failed int64
	e2e               map[string]float64
	layer             map[string]float64
	tr                *tracer
	sweeps            []int64 // ns per requested sweep
}

// loadGoroutines is the number of load goroutines: one per CPU.
func loadGoroutines() int { return runtime.NumCPU() }

func groupKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("g%05d", i)
	}
	return keys
}

// newRecord is the preloaded version-0 state of an item.
func newRecord() *model.Record {
	r := model.NewRecord()
	r.Fields["bal"] = 0
	r.Fields["count"] = 0
	return r
}

// buildGroupCluster builds and starts the in-process cluster of
// record-mem and inquiry-skew. With wrap, the network goes through
// netWrap; without, the cluster builds its own network as the program's
// binaries do.
func buildGroupCluster(p groupParams, tr *tracer, traced, wrap bool) (*core.Cluster, *env, func(), error) {
	nc := transport.Config{}
	cfg := core.Config{Nodes: p.nodes, Partitions: p.parts}
	if p.batched {
		nc.BatchWindow = 100 * time.Microsecond
		cfg.ExecChunk = 64
		cfg.BatchedCounters = true
	}
	if traced {
		cfg.Obs.TraceSampleN = traceSampleN
	}
	e := &env{}
	var mn *transport.Net
	if wrap {
		nc.Nodes = p.nodes + 1 // the nodes and the pinned coordinator
		mn = transport.NewNet(nc)
		w, nw := wrapNet(mn, tr)
		cfg.Transport = w
		e.nets = append(e.nets, nw)
	} else {
		cfg.NetConfig = nc
	}
	cl, err := core.NewCluster(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	if mn != nil {
		mn.SetObs(cl.Obs())
	}
	for g, key := range groupKeys(p.groups) {
		for _, n := range groupNodes(g, p.nodes) {
			cl.Preload(n, key, newRecord())
		}
	}
	cl.Start()
	e.clusters = []*core.Cluster{cl}
	closeFn := func() {
		cl.Close()
		if mn != nil {
			mn.Close() // a supplied network is not the cluster's to close
		}
	}
	return cl, e, closeFn, nil
}

// runGroupRound runs one round of record-mem or inquiry-skew.
func runGroupRound(p groupParams, seed int64, traced bool, heapPath string) (roundOut, *faults, error) {
	flt := newFaults()
	tr := newTracer(0)
	if traced {
		tr = newTracer(spanCap)
	}
	keys := groupKeys(p.groups)
	start := time.Now()
	cl, e, closeFn, err := buildGroupCluster(p, tr, traced, true)
	if err != nil {
		return roundOut{}, nil, err
	}
	defer closeFn()
	led := newLedger(p.groups)
	pm := cl.PlacementMap()
	partOf := make([][]int32, p.parts)
	for g, k := range keys {
		part := pm.Of(k)
		partOf[part] = append(partOf[part], int32(g))
	}
	versions := func(part int) [][2]model.Version {
		out := make([][2]model.Version, p.nodes)
		for i := range out {
			vr, vu := cl.Node(i).VersionsPart(part)
			out[i] = [2]model.Version{vr, vu}
		}
		return out
	}
	nG := loadGoroutines()
	gens := func(offset int) []*groupGen {
		gs := make([]*groupGen, nG)
		for i := range gs {
			gs[i] = newGroupGen(seed, offset+i, p.nodes, keys, p.readFrac, p.skew)
		}
		return gs
	}
	warm := &closedLoop{cl: cl, gens: gens(1000), perG: p.warmup / nG / p.batch * p.batch,
		window: p.window, batch: p.batch, led: led, tr: newTracer(0), flt: flt}
	warm.run()
	if rep := cl.Advance(); rep.Err != nil {
		return roundOut{}, nil, fmt.Errorf("warm-up sweep: %w", rep.Err)
	}
	setup := time.Since(start)

	perG := p.txns / nG / p.batch * p.batch
	txns := int64(perG * nG)
	sw := newSweeper(cl, p.parts, p.sweepEvery, int(txns), led, partOf, tr, flt, versions)
	loop := &closedLoop{cl: cl, gens: gens(0), perG: perG, window: p.window, batch: p.batch,
		led: led, sw: sw, tr: tr, flt: flt}
	var before layerCounters
	if traced {
		before = e.read()
		tr.start()
	}
	u0 := readUsage()
	done := make(chan struct{})
	go func() { sw.run(); close(done) }()
	loop.run()
	<-done
	u1 := readUsage()
	tr.stop()
	var after layerCounters
	if traced {
		after = e.read()
	}

	if rep := cl.Advance(); rep.Err != nil {
		flt.add(fmt.Errorf("final sweep: %w", rep.Err))
	}
	heap := liveHeapMB()
	if traced {
		if err := writeHeapProfile(heapPath); err != nil {
			return roundOut{}, nil, err
		}
	}
	checkGroupFinal(cl, p, keys, led, flt)
	checkCluster(cl, flt)

	out := roundOut{attempted: txns, failed: loop.failed.Load(), tr: tr, sweeps: sw.durs}
	upd, rd := mergeLatencies(loop.lats)
	out.e2e = e2eMetrics(setup, u0, u1, txns, upd, rd, sw, heap)
	if traced {
		out.layer = layerMetrics(before, after, u0, u1, txns, sw, tr)
		out.layer["loadgen.check_ms_per_ktxn"] = float64(loop.checkNs.Load()) / 1e6 / float64(txns) * 1000
	}
	return out, flt, nil
}

// checkGroupFinal reads every group after the final sweep and checks it
// against the ledger.
func checkGroupFinal(cl *core.Cluster, p groupParams, keys []string, led *ledger, flt *faults) {
	const chunk = 256
	for lo := 0; lo < len(keys); lo += chunk {
		hi := lo + chunk
		if hi > len(keys) {
			hi = len(keys)
		}
		specs := make([]*model.TxnSpec, 0, hi-lo)
		for g := lo; g < hi; g++ {
			members := groupNodes(g, p.nodes)
			root := &model.SubtxnSpec{Node: members[0]}
			for _, n := range members {
				root.Children = append(root.Children, &model.SubtxnSpec{Node: n, Reads: []string{keys[g]}})
			}
			specs = append(specs, &model.TxnSpec{Root: root})
		}
		hs, err := cl.SubmitBatch(specs)
		if err != nil {
			flt.add(fmt.Errorf("final reads: %w", err))
			return
		}
		for i, h := range hs {
			g := lo + i
			if !h.WaitTimeout(waitLimit) {
				flt.add(fmt.Errorf("final read of %s did not complete", keys[g]))
				continue
			}
			flt.add(checkFinalGroup(h.Reads(), groupSpan, led.bal[g].Load(), led.acked[g].Load(), led.hash[g].Load()))
		}
	}
}

// checkCluster runs the program's own invariant audits: at most three
// live versions per item, no recorded violations, converged versions
// and balanced counters.
func checkCluster(cl *core.Cluster, flt *faults) {
	if n := cl.MaxLiveVersionsEver(); n > 3 {
		flt.add(fmt.Errorf("an item had %d live versions", n))
	}
	for _, v := range cl.Violations() {
		flt.add(fmt.Errorf("violation: %s", v))
	}
	// A node reports a subtransaction done to its handle before it bumps
	// the completion counter (Step 6), so the counters may still be one
	// increment short when the last handle completes: convergence is
	// judged once the cluster has quiesced, within a bound.
	var errs []string
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		if errs = cl.ConvergenceErrors(); len(errs) == 0 || time.Now().After(deadline) {
			break
		}
	}
	for _, c := range errs {
		flt.add(fmt.Errorf("convergence: %s", c))
	}
}

// e2eMetrics computes the end-to-end metrics of one round.
func e2eMetrics(setup time.Duration, u0, u1 usage, txns int64, upd, rd []int64, sw *sweeper, heap float64) map[string]float64 {
	wall := u1.wall.Sub(u0.wall).Seconds()
	return map[string]float64{
		"setup_s":          setup.Seconds(),
		"throughput_tps":   float64(txns) / wall,
		"update_p50_ms":    pct(upd, 0.5),
		"update_p90_ms":    pct(upd, 0.9),
		"read_p50_ms":      pct(rd, 0.5),
		"read_p90_ms":      pct(rd, 0.9),
		"publish_p50_ms":   medianMs(sw.durs),
		"cpu_ms_per_ktxn":  float64(u1.cpu-u0.cpu) / 1e6 / float64(txns) * 1000,
		"alloc_kb_per_txn": float64(u1.allocBytes-u0.allocBytes) / float64(txns) / 1024,
		"live_heap_mb":     heap,
	}
}

// groupGenAllocKB measures the load generator's own allocation per
// transaction on a dry pass of a round's stream: the same generators,
// drawing and recording the same transactions without submitting them.
func groupGenAllocKB(p groupParams, seed int64) float64 {
	keys := groupKeys(p.groups)
	nG := loadGoroutines()
	perG := p.txns / nG / p.batch * p.batch
	led := newLedger(p.groups)
	gens := make([]*groupGen, nG)
	for i := range gens {
		gens[i] = newGroupGen(seed, i, p.nodes, keys, p.readFrac, p.skew)
	}
	u0 := readUsage()
	for _, g := range gens {
		for i := 0; i < perG; i++ {
			_, op := g.next()
			if !op.read {
				led.issue(int(op.group), op.delta, op.writer)
			}
		}
	}
	u1 := readUsage()
	return float64(u1.allocBytes-u0.allocBytes) / float64(perG*nG) / 1024
}

// keyGenAllocKB is groupGenAllocKB for durable-tcp's generator.
func keyGenAllocKB(p durParams, seed int64) float64 {
	keys := make([]string, p.keys)
	for i := range keys {
		keys[i] = fmt.Sprintf("acct%02d", i)
	}
	g := newKeyGen(seed, 0, keys, p.readFrac, p.nodes)
	led := newLedger(p.keys)
	primary := func(k int) model.NodeID { return model.NodeID(k % p.nodes) }
	u0 := readUsage()
	for i := 0; i < p.txns; i++ {
		_, op := g.draw(primary)
		if !op.read {
			led.issue(int(op.group), op.delta, 0)
		}
	}
	u1 := readUsage()
	return float64(u1.allocBytes-u0.allocBytes) / float64(p.txns) / 1024
}

// keyGen draws durable-tcp's traffic: threev-node's /workload update
// tree (a keyless root at the submitting process with the update on a
// child at the key's partition primary, or on the root when the
// submitting process is the primary), carrying a bal delta and a count
// bump, and one-key reads submitted at the key's primary. Reads take
// fixed slots of the stream (every 1/readFrac-th transaction), not
// seeded ones: transactions are offered in bursts, and a read's latency
// depends on its place in its burst, so seeded slots made read latency
// differ from seed to seed.
type keyGen struct {
	rng      *rand.Rand
	keys     []string
	readFrac float64
	readAcc  float64
	procs    int
	next     int
}

func newKeyGen(seed int64, stream int, keys []string, readFrac float64, procs int) *keyGen {
	return &keyGen{rng: rand.New(rand.NewSource(seed*7919 + int64(stream))), keys: keys, readFrac: readFrac, procs: procs}
}

func (g *keyGen) draw(primary func(key int) model.NodeID) (*model.TxnSpec, genOp) {
	g.readAcc += g.readFrac
	read := g.readAcc >= 1
	if read {
		g.readAcc--
	}
	k := g.rng.Intn(len(g.keys))
	key := g.keys[k]
	prim := primary(k)
	op := genOp{read: read, group: int32(k)}
	if read {
		op.root = int32(prim)
		return &model.TxnSpec{Root: &model.SubtxnSpec{Node: prim, Reads: []string{key}}}, op
	}
	op.root = int32(g.next % g.procs)
	g.next++
	op.delta = int64(g.rng.Intn(100) + 1)
	ops := []model.KeyOp{
		{Key: key, Op: model.AddOp{Field: "bal", Delta: op.delta}},
		{Key: key, Op: model.AddOp{Field: "count", Delta: 1}},
	}
	root := &model.SubtxnSpec{Node: model.NodeID(op.root)}
	if prim == root.Node {
		root.Updates = ops
	} else {
		root.Children = []*model.SubtxnSpec{{Node: prim, Updates: ops}}
	}
	return &model.TxnSpec{Root: root}, op
}

// openLoop submits n transactions at a fixed offered rate from one
// goroutine, burst at a time (each burst is due at once), and completes
// them on a second. Latency is timed from the Submit call; how late each
// Submit came after its due time is kept apart, for loadgen.late_ms_p90
// and late_ms_max.
type openLoop struct {
	rate    float64
	burst   int
	n       int
	gen     *keyGen
	submit  func(op genOp, spec *model.TxnSpec) (*core.Handle, error)
	primary func(key int) model.NodeID
	led     *ledger
	sw      *sweeper
	tr      *tracer
	flt     *faults
	failed  atomic.Int64
	lat     *latencies
	late    []int64 // how late each completed transaction was submitted, ns
	lateMax int64
}

func (o *openLoop) run() {
	o.lat = newLatencies(o.n)
	o.late = make([]int64, 0, o.n)
	// The buffer bounds the transactions outstanding at once; past it
	// the generator falls behind its schedule, which late_ms_max shows.
	pending := make(chan inflight, 8192)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for f := range pending {
			o.complete(f)
		}
	}()
	interval := 1e9 / o.rate
	start := time.Now()
	for i := 0; i < o.n; i++ {
		due := int64(float64(i/o.burst*o.burst) * interval)
		if d := due - int64(time.Since(start)); d > 0 {
			time.Sleep(time.Duration(d))
		}
		spec, op := o.gen.draw(o.primary)
		var floor int64
		if op.read {
			floor = o.led.floor[op.group].Load()
		} else {
			o.led.issue(int(op.group), op.delta, 0)
		}
		t0 := o.tr.now()
		late := int64(time.Since(start)) - due
		if late > o.lateMax {
			o.lateMax = late
		}
		h, err := o.submit(op, spec)
		o.tr.record(spSubmit, t0, o.tr.now(), 0)
		if o.sw != nil {
			o.sw.note(1)
		}
		if err != nil {
			o.flt.add(fmt.Errorf("submit: %w", err))
			o.failed.Add(1)
			continue
		}
		pending <- inflight{h: h, op: op, minCount: floor, late: late, start: t0}
	}
	close(pending)
	wg.Wait()
}

func (o *openLoop) complete(f inflight) {
	if !f.h.WaitTimeout(waitLimit) {
		o.failed.Add(1)
		o.flt.add(fmt.Errorf("transaction %v did not complete within %v", f.h.ID, waitLimit))
		return
	}
	if st := f.h.Status(); st != core.StatusCommitted {
		o.failed.Add(1)
		o.flt.add(fmt.Errorf("transaction %v ended %v", f.h.ID, st))
		return
	}
	d := int64(f.h.Latency())
	o.lat.add(f.op.read, d)
	o.late = append(o.late, f.late)
	o.tr.record(spTxn, f.start, f.start+d, uint64(f.h.ID))
	if f.op.read {
		reads := f.h.Reads()
		if len(reads) != 1 || reads[0].Record == nil {
			o.flt.add(fmt.Errorf("read returned %d results", len(reads)))
		} else if c := reads[0].Record.Fields["count"]; c < f.minCount {
			o.flt.add(fmt.Errorf("stale read of %s: count %d, want at least %d", reads[0].Key, c, f.minCount))
		}
		return
	}
	o.led.acked[f.op.group].Add(1)
}

// durProc is one node of durable-tcp: what one threev-node process runs.
type durProc struct {
	dir  string
	opts durable.Options
	ln   net.Listener
	tn   *tcpnet.Net
	db   *durable.DB
	cl   *core.Cluster
}

// buildDurable builds and starts durable-tcp's three single-node
// clusters, wired as cmd/threev-node wires one process with -data-dir,
// -partitions and -replicate on its default timers, except that nothing
// waits on the disk: the WAL is written with -fsync never and only the
// set-up checkpoint is taken. On a shared disk the 5 ms fsyncs of
// -fsync interval, and the segment fsync each background checkpoint
// makes while the node is frozen, made this workload's latency p90 vary
// 2-3x between identical runs.
func buildDurable(p durParams, keys []string, dir string, tr *tracer, traced, wrap bool) ([]*durProc, *env, error) {
	procs := make([]*durProc, p.nodes)
	e := &env{}
	fail := func(err error) ([]*durProc, *env, error) {
		closeDurable(procs)
		return nil, nil, err
	}
	for i := range procs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fail(err)
		}
		procs[i] = &durProc{ln: ln, dir: filepath.Join(dir, fmt.Sprintf("node%d", i))}
	}
	for i, pr := range procs {
		local := []model.NodeID{model.NodeID(i), model.NodeID(p.nodes + i)}
		peers := map[model.NodeID]string{}
		for j, q := range procs {
			if j != i {
				peers[model.NodeID(j)] = q.ln.Addr().String()
				peers[model.NodeID(p.nodes+j)] = q.ln.Addr().String()
			}
		}
		tn, err := tcpnet.New(tcpnet.Config{Local: local, Peers: peers, Listener: pr.ln})
		if err != nil {
			return fail(err)
		}
		pr.tn = tn
		pr.opts = durable.Options{Dir: pr.dir, Self: model.NodeID(i), Nodes: p.nodes, Partitions: p.parts,
			Fsync: wal.FsyncNever}
		db, restore, sess, err := durable.Open(pr.opts)
		if err != nil {
			return fail(err)
		}
		pr.db = db
		cfg := core.Config{
			Nodes:            p.nodes,
			Partitions:       p.parts,
			LocalNodes:       []int{i},
			LocalCoordinator: i == 0,
			Failover:         true,
			FailoverConfig:   core.FailoverConfig{LeaseInterval: p.lease},
			Reliable:         true,
			ReliableConfig: reliable.Config{
				RetransmitInterval: 20 * time.Millisecond,
				MaxBackoff:         time.Second,
				Gate:               db.Gate(),
				Restore:            sess,
			},
			AckTimeout:     30 * time.Second,
			ResendInterval: 50 * time.Millisecond,
			Replicate:      true,
			ReplicaConfig:  core.ReplicaConfig{LeaseInterval: p.lease},
			Restore:        restore,
		}
		if traced {
			cfg.Obs.TraceSampleN = traceSampleN
		}
		if wrap {
			w, nw := wrapNet(tn, tr)
			e.nets = append(e.nets, nw)
			cfg.Transport = w
			cfg.Journal = &journalWrap{inner: db, tr: tr}
			cfg.ReliableConfig.Journal = &sessJournalWrap{inner: db, tr: tr}
		} else {
			cfg.Transport = tn
			cfg.Journal = db
			cfg.ReliableConfig.Journal = db
		}
		cl, err := core.NewCluster(cfg)
		if err != nil {
			return fail(err)
		}
		pr.cl = cl
		tn.SetObs(cl.Obs())
		db.Bind(cl.Node(i), cl.Session())
		db.SetObs(cl.Obs())
		pm := cl.PlacementMap()
		for _, key := range keys {
			for _, o := range pm.OwnerSet(pm.Of(key)) {
				if o == model.NodeID(i) {
					cl.Preload(model.NodeID(i), key, newRecord())
				}
			}
		}
		if err := db.Checkpoint(); err != nil {
			return fail(err)
		}
		e.clusters = append(e.clusters, cl)
		e.tcps = append(e.tcps, tn)
		e.dbs = append(e.dbs, db)
	}
	for _, pr := range procs {
		pr.cl.Start()
	}
	return procs, e, nil
}

// closeDurable shuts every process down: clusters first, then their
// logs, so no worker journals into a closed log.
func closeDurable(procs []*durProc) {
	for _, pr := range procs {
		if pr == nil {
			continue
		}
		switch {
		case pr.cl != nil:
			pr.cl.Close() // closes the session layer and tcpnet with it
		case pr.tn != nil:
			pr.tn.Close()
		case pr.ln != nil:
			pr.ln.Close()
		}
		pr.cl, pr.tn, pr.ln = nil, nil, nil
	}
	for _, pr := range procs {
		if pr != nil && pr.db != nil {
			pr.db.Close()
			pr.db = nil
		}
	}
}

// runDurableRound runs one round of durable-tcp with its data
// directories under dir.
func runDurableRound(p durParams, seed int64, traced bool, dir, heapPath string) (roundOut, *faults, error) {
	flt := newFaults()
	tr := newTracer(0)
	if traced {
		tr = newTracer(spanCap)
	}
	keys := make([]string, p.keys)
	for i := range keys {
		keys[i] = fmt.Sprintf("acct%02d", i)
	}
	if err := os.RemoveAll(dir); err != nil {
		return roundOut{}, nil, err
	}
	defer os.RemoveAll(dir)
	start := time.Now()
	procs, e, err := buildDurable(p, keys, dir, tr, traced, true)
	if err != nil {
		return roundOut{}, nil, err
	}
	defer closeDurable(procs)
	coord := procs[0].cl
	pm := coord.PlacementMap()
	for part := 0; part < p.parts; part++ {
		if coord.CurrentPrimary(part) != pm.Primary(part) {
			return roundOut{}, nil, fmt.Errorf("partition %d starts with primary %d, placement says %d", part, coord.CurrentPrimary(part), pm.Primary(part))
		}
	}
	keyPart := make([]int, len(keys))
	partOf := make([][]int32, p.parts)
	for k, key := range keys {
		keyPart[k] = pm.Of(key)
		partOf[keyPart[k]] = append(partOf[keyPart[k]], int32(k))
	}
	primary := func(k int) model.NodeID { return coord.CurrentPrimary(keyPart[k]) }
	submit := func(op genOp, spec *model.TxnSpec) (*core.Handle, error) {
		return procs[op.root].cl.Submit(spec)
	}
	versions := func(part int) [][2]model.Version {
		out := make([][2]model.Version, len(procs))
		for i, pr := range procs {
			vr, vu := pr.cl.Node(i).VersionsPart(part)
			out[i] = [2]model.Version{vr, vu}
		}
		return out
	}
	led := newLedger(len(keys))
	warm := &openLoop{rate: p.rate, burst: p.burst, n: p.warmup, gen: newKeyGen(seed, 1000, keys, p.readFrac, len(procs)),
		submit: submit, primary: primary, led: led, tr: newTracer(0), flt: flt}
	warm.run()
	if rep := coord.Advance(); rep.Err != nil {
		return roundOut{}, nil, fmt.Errorf("warm-up sweep: %w", rep.Err)
	}
	setup := time.Since(start)

	sw := newSweeper(coord, p.parts, p.sweepEvery, p.txns, led, partOf, tr, flt, versions)
	loop := &openLoop{rate: p.rate, burst: p.burst, n: p.txns, gen: newKeyGen(seed, 0, keys, p.readFrac, len(procs)),
		submit: submit, primary: primary, led: led, sw: sw, tr: tr, flt: flt}
	var before layerCounters
	if traced {
		before = e.read()
		tr.start()
	}
	u0 := readUsage()
	done := make(chan struct{})
	go func() { sw.run(); close(done) }()
	loop.run()
	<-done
	u1 := readUsage()
	tr.stop()
	var after layerCounters
	if traced {
		after = e.read()
	}

	if rep := coord.Advance(); rep.Err != nil {
		flt.add(fmt.Errorf("final sweep: %w", rep.Err))
	}
	heap := liveHeapMB()
	if traced {
		if err := writeHeapProfile(heapPath); err != nil {
			return roundOut{}, nil, err
		}
	}
	prims, lost := checkDurableFinal(procs, p.parts, keys, keyPart, led, flt)
	closeDurable(procs)
	checkReopened(procs, pm, prims, keys, keyPart, led, flt)
	fmt.Printf("backups miss %d of the round's acknowledged updates\n", lost)

	out := roundOut{attempted: int64(p.txns), failed: loop.failed.Load(), tr: tr, sweeps: sw.durs}
	upd, rd := mergeLatencies([]*latencies{loop.lat})
	out.e2e = e2eMetrics(setup, u0, u1, int64(p.txns), upd, rd, sw, heap)
	if traced {
		out.layer = layerMetrics(before, after, u0, u1, int64(p.txns), sw, tr)
		out.layer["replication.backup_lost_per_ktxn"] = float64(lost) / float64(p.warmup+p.txns) * 1000
		out.layer["loadgen.late_ms_max"] = float64(loop.lateMax) / 1e6
		sort.Slice(loop.late, func(i, j int) bool { return loop.late[i] < loop.late[j] })
		out.layer["loadgen.late_ms_p90"] = pct(loop.late, 0.9)
	}
	return out, flt, nil
}

// checkDurableFinal checks the settled state of durable-tcp: every
// key's primary serves the acknowledged balance, every backup has
// acknowledged its primary's whole replication stream, and every
// backup's record at its read version passes checkBackupValue. It
// returns the primary of each partition and how many acknowledged
// updates the backups miss in all.
func checkDurableFinal(procs []*durProc, parts int, keys []string, keyPart []int, led *ledger, flt *faults) ([]model.NodeID, int64) {
	coord := procs[0].cl
	prims := make([]model.NodeID, parts)
	for part := range prims {
		prims[part] = coord.CurrentPrimary(part)
	}
	for k, key := range keys {
		prim := prims[keyPart[k]]
		h, err := procs[prim].cl.Submit(&model.TxnSpec{Root: &model.SubtxnSpec{Node: prim, Reads: []string{key}}})
		if err != nil {
			flt.add(fmt.Errorf("final read of %s: %w", key, err))
			continue
		}
		if !h.WaitTimeout(waitLimit) {
			flt.add(fmt.Errorf("final read of %s did not complete", key))
			continue
		}
		var rec *model.Record
		if rs := h.Reads(); len(rs) == 1 {
			rec = rs[0].Record
		}
		flt.add(checkKeyValue(fmt.Sprintf("primary %d", prim), key, rec, led.bal[k].Load(), led.acked[k].Load()))
	}
	if err := waitReplicated(procs, 10*time.Second); err != nil {
		flt.add(err)
		return prims, 0
	}
	var lost int64
	for i, pr := range procs {
		nd := pr.cl.Node(i)
		pm := pr.cl.PlacementMap()
		for k, key := range keys {
			if prims[keyPart[k]] == model.NodeID(i) || !owns(pm.OwnerSet(keyPart[k]), i) {
				continue
			}
			vr, _ := nd.VersionsPart(keyPart[k])
			rec, _, ok := nd.Store().ReadMax(key, vr)
			if !ok {
				rec = nil
			}
			n, err := checkBackupValue(fmt.Sprintf("backup %d", i), key, rec, led.bal[k].Load(), led.acked[k].Load())
			flt.add(err)
			lost += n
		}
		checkCluster(pr.cl, flt)
	}
	return prims, lost
}

// owns reports whether node id is one of a partition's owners, primary
// or backup.
func owns(owners []model.NodeID, id int) bool {
	for _, o := range owners {
		if o == model.NodeID(id) {
			return true
		}
	}
	return false
}

// waitReplicated waits until every partition primary's backups have
// acknowledged its whole replication stream.
func waitReplicated(procs []*durProc, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		behind := ""
		for _, pr := range procs {
			for _, h := range pr.cl.ReplicaHealth() {
				if h.Role != "primary" {
					continue
				}
				for n, a := range h.Acked {
					if a < h.SentSeq {
						behind = fmt.Sprintf("partition %d backup %s acked %d of %d", h.Part, n, a, h.SentSeq)
					}
				}
			}
		}
		if behind == "" {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replication did not catch up: %s", behind)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// checkReopened reopens every node's data directory after shutdown and
// checks what recovery yields: the acknowledged balances on each
// partition's primary, and on its backups what checkBackupValue allows.
func checkReopened(procs []*durProc, pm *partition.Map, prims []model.NodeID, keys []string, keyPart []int, led *ledger, flt *faults) {
	for i, pr := range procs {
		db, restore, _, err := durable.Open(pr.opts)
		if err != nil {
			flt.add(fmt.Errorf("reopen node %d: %w", i, err))
			continue
		}
		if restore == nil || restore.Store == nil {
			flt.add(fmt.Errorf("reopen node %d: no recovered state", i))
			db.Close()
			continue
		}
		for k, key := range keys {
			part := keyPart[k]
			if !owns(pm.OwnerSet(part), i) {
				continue
			}
			vr := restore.VR
			if part < len(restore.PartVR) {
				vr = restore.PartVR[part]
			}
			rec, _, ok := restore.Store.ReadMax(key, vr)
			if !ok {
				rec = nil
			}
			where := fmt.Sprintf("recovered node %d", i)
			if prims[part] == model.NodeID(i) {
				flt.add(checkKeyValue(where, key, rec, led.bal[k].Load(), led.acked[k].Load()))
			} else {
				_, err := checkBackupValue(where, key, rec, led.bal[k].Load(), led.acked[k].Load())
				flt.add(err)
			}
		}
		if err := db.Close(); err != nil {
			flt.add(fmt.Errorf("close reopened node %d: %w", i, err))
		}
	}
}
