package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/obs"
	"repro/internal/transport/tcpnet"
)

// usage is a process-wide resource reading.
type usage struct {
	wall       time.Time
	cpu        time.Duration // user + system
	allocBytes uint64
	allocObjs  uint64
	gcCycles   uint32
	gcCPU      float64 // seconds
	totalCPU   float64 // seconds
}

var cpuSamples = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := make([]metrics.Sample, len(cpuSamples))
	copy(s, cpuSamples)
	metrics.Read(s)
	u := usage{
		wall:       time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		allocBytes: ms.TotalAlloc,
		allocObjs:  ms.Mallocs,
		gcCycles:   ms.NumGC,
	}
	if s[0].Value.Kind() == metrics.KindFloat64 {
		u.gcCPU = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		u.totalCPU = s[1].Value.Float64()
	}
	return u
}

// liveHeapMB forces a collection and returns the live heap in MB.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// writeHeapProfile writes the live heap's allocation sites in pprof
// format, so a reader can see which layer holds the memory.
func writeHeapProfile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := pprof.Lookup("heap").WriteTo(f, 0); err != nil {
		f.Close()
		return fmt.Errorf("heap profile: %w", err)
	}
	return f.Close()
}

// layerCounters is a reading of the counters the program exports, summed
// over every cluster of a workload.
type layerCounters struct {
	subtxns, dualWrites          int64
	copies, bytesCopied, gcDrops int64
	maxLive                      int
	maxQueue                     int64
	retransmits, dupDropped      int64
	bytesSent, framesSent        int64
	walRecords                   uint64
	walBytes, fsyncs             int64
	replSends, replApplies       int64
	replAcks                     int64
	payloads                     map[string]int64 // wrapper-counted sends by payload type
	stages                       [obs.NumStages]obs.HistSnapshot
	wireEnc, wireDec             obs.HistSnapshot
	batchMean                    float64
}

// cluster set of one workload: in-process workloads have one cluster,
// durable-tcp one per node.
type env struct {
	clusters []*core.Cluster
	nets     []*netWrap
	tcps     []*tcpnet.Net
	dbs      []*durable.DB
}

func (e *env) read() layerCounters {
	var c layerCounters
	c.payloads = map[string]int64{}
	var batchW float64
	var batchN int64
	for _, cl := range e.clusters {
		m := cl.Metrics()
		for _, nm := range m.PerNode {
			c.subtxns += nm.SubtxnsExecuted + nm.QueriesExecuted
			c.dualWrites += nm.DualWrites
		}
		for _, st := range m.Storage {
			c.copies += st.Copies
			c.bytesCopied += st.BytesCopied
			c.gcDrops += st.GCDropped
			if st.MaxLiveVersions > c.maxLive {
				c.maxLive = st.MaxLiveVersions
			}
		}
		if m.Transport.MaxQueueDepth > c.maxQueue {
			c.maxQueue = m.Transport.MaxQueueDepth
		}
		c.retransmits += m.Transport.Retransmits
		c.dupDropped += m.Transport.DupDropped
		c.replSends += m.Obs.Counters["repl_sends"]
		c.replApplies += m.Obs.Counters["repl_applies"]
		c.replAcks += m.Obs.Counters["repl_acks"]
		for i := range c.stages {
			c.stages[i] = mergeHist(c.stages[i], m.Obs.Stages[i], 1)
		}
		c.wireEnc = mergeHist(c.wireEnc, m.Obs.WireEncode, 1)
		c.wireDec = mergeHist(c.wireDec, m.Obs.WireDecode, 1)
		if b := m.Obs.BatchSize; b.Count > 0 {
			batchW += b.Mean() * float64(b.Count)
			batchN += b.Count
		}
	}
	if batchN > 0 {
		c.batchMean = batchW / float64(batchN)
	}
	for _, t := range e.tcps {
		st := t.Stats()
		c.bytesSent += st.BytesSent
		c.framesSent += st.FramesSent
	}
	for _, db := range e.dbs {
		st := db.Stats()
		c.walRecords += st.Records
		c.walBytes += st.TotalAppended
		c.fsyncs += st.Fsyncs
	}
	for _, w := range e.nets {
		for k, v := range w.payloads.Snapshot().ByType {
			c.payloads[k] += v
		}
	}
	return c
}

// mergeHist returns a + sign*b bucket by bucket (sign -1 subtracts an
// earlier reading of the same cumulative histogram).
func mergeHist(a, b obs.HistSnapshot, sign int64) obs.HistSnapshot {
	counts := map[int64]int64{}
	for _, x := range a.Buckets {
		counts[x.Upper] += x.Count
	}
	for _, x := range b.Buckets {
		counts[x.Upper] += sign * x.Count
	}
	out := obs.HistSnapshot{Count: a.Count + sign*b.Count, Sum: a.Sum + sign*b.Sum, Max: a.Max}
	if b.Max > out.Max {
		out.Max = b.Max
	}
	for u, n := range counts {
		if n > 0 {
			out.Buckets = append(out.Buckets, obs.Bucket{Upper: u, Count: n})
		}
	}
	sort.Slice(out.Buckets, func(i, j int) bool { return out.Buckets[i].Upper < out.Buckets[j].Upper })
	return out
}

// medianMs is the median of ns samples, in ms.
func medianMs(ns []int64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return pct(s, 0.5)
}

// layerMetrics turns before/after readings of one measured phase into
// the per-layer metrics.
func layerMetrics(b, a layerCounters, u0, u1 usage, txns int64, sw *sweeper, tr *tracer) map[string]float64 {
	n := float64(txns)
	sweeps := float64(len(sw.durs))
	if sweeps == 0 {
		sweeps = 1
	}
	pl := func(k string) int64 { return a.payloads[k] - b.payloads[k] }
	var sends int64
	for k, v := range a.payloads {
		sends += v - b.payloads[k]
	}
	stage := func(i int) float64 {
		return float64(mergeHist(a.stages[i], b.stages[i], -1).P50()) / 1e6
	}
	cpuAll := u1.totalCPU - u0.totalCPU
	gcFrac := 0.0
	if cpuAll > 0 {
		gcFrac = (u1.gcCPU - u0.gcCPU) / cpuAll
	}
	var pollSum int64
	for _, p := range sw.polls {
		pollSum += p
	}
	req := pl("counter_req") + pl("counters_req")
	rep := pl("counter_reply") + pl("counters")
	return map[string]float64{
		"core.submit_us_mean":                tr.meanNs(spSubmit) / 1e3,
		"core.subtxns_per_txn":               float64(a.subtxns-b.subtxns) / n,
		"core.dual_writes_per_ktxn":          float64(a.dualWrites-b.dualWrites) / n * 1000,
		"coordinator.phase2_ms_p50":          medianMs(sw.phase2),
		"coordinator.phase4_ms_p50":          medianMs(sw.phase4),
		"coordinator.polls_per_advance":      float64(pollSum) / sweeps,
		"counters.msgs_per_advance":          float64(req+rep) / sweeps,
		"counters.req_msgs_per_advance":      float64(req) / sweeps,
		"counters.reply_msgs_per_advance":    float64(rep) / sweeps,
		"storage.copies_per_ktxn":            float64(a.copies-b.copies) / n * 1000,
		"storage.kb_copied_per_txn":          float64(a.bytesCopied-b.bytesCopied) / n / 1024,
		"storage.gc_dropped_per_advance":     float64(a.gcDrops-b.gcDrops) / sweeps,
		"storage.max_live_versions":          float64(a.maxLive),
		"transport.msgs_per_txn":             float64(sends) / n,
		"transport.send_us_mean":             tr.meanNs(spSend) / 1e3,
		"transport.mean_batch_size":          a.batchMean,
		"transport.max_queue_depth":          float64(a.maxQueue),
		"tcpnet.bytes_per_txn":               float64(a.bytesSent-b.bytesSent) / n,
		"tcpnet.frames_per_txn":              float64(a.framesSent-b.framesSent) / n,
		"wire.encode_ns_p50":                 float64(mergeHist(a.wireEnc, b.wireEnc, -1).P50()),
		"wire.decode_ns_p50":                 float64(mergeHist(a.wireDec, b.wireDec, -1).P50()),
		"reliable.retransmits_per_ktxn":      float64(a.retransmits-b.retransmits) / n * 1000,
		"reliable.dup_dropped_per_ktxn":      float64(a.dupDropped-b.dupDropped) / n * 1000,
		"wal.records_per_txn":                float64(a.walRecords-b.walRecords) / n,
		"wal.kb_per_txn":                     float64(a.walBytes-b.walBytes) / n / 1024,
		"wal.fsyncs_per_ktxn":                float64(a.fsyncs-b.fsyncs) / n * 1000,
		"durable.exec_us_p50":                execP50(tr) / 1e3,
		"replication.sends_per_txn":          float64(a.replSends-b.replSends) / n,
		"replication.applies_per_txn":        float64(a.replApplies-b.replApplies) / n,
		"replication.acks_per_txn":           float64(a.replAcks-b.replAcks) / n,
		"replication.backup_lost_per_ktxn":   0, // filled in by durable-tcp's final check
		"obs.stage_wire_ms_p50":              stage(obs.StageWire),
		"obs.stage_queue_ms_p50":             stage(obs.StageQueue),
		"obs.stage_service_ms_p50":           stage(obs.StageService),
		"obs.stage_ack_ms_p50":               stage(obs.StageAck),
		"obs.stage_fsync_ms_p50":             stage(obs.StageFsync),
		"obs.stage_session_ms_p50":           stage(obs.StageSession),
		"runtime.allocs_per_txn":             float64(u1.allocObjs-u0.allocObjs) / n,
		"runtime.gc_cycles_per_ktxn":         float64(u1.gcCycles-u0.gcCycles) / n * 1000,
		"runtime.gc_cpu_fraction":            gcFrac,
		"obs.trace_overhead_cpu_ms_per_ktxn": 0, // filled in from the untraced rounds
		"loadgen.late_ms_max":                0, // filled in by the open loop
		"loadgen.late_ms_p90":                0,
		"loadgen.alloc_kb_per_txn":           0, // filled in from the dry pass
		"loadgen.check_ms_per_ktxn":          0, // filled in by the closed loop
	}
}

// execP50 is the median duration of journal Exec and ExecChunk calls.
func execP50(tr *tracer) float64 {
	if tr.count[spJExecChunk].Load() > tr.count[spJExec].Load() {
		return tr.hist[spJExecChunk].quantile(0.5)
	}
	return tr.hist[spJExec].quantile(0.5)
}
