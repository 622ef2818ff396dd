package main

import (
	"bufio"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"
)

// spanKind names the layer boundary a span was recorded at.
type spanKind uint8

const (
	spTxn        spanKind = iota // Submit/SubmitBatch through to handle completion
	spSubmit                     // the Submit or SubmitBatch call itself
	spAdvance                    // Advance / AdvancePartition
	spSend                       // transport.Network.Send
	spJEnq                       // core.Journal.Enq
	spJExec                      // core.Journal.Exec
	spJExecChunk                 // core.ChunkJournal.ExecChunk
	spJVersion                   // VersionUpdate / VersionRead / GC
	spJTerm                      // CoordTerm / ReplTerm
	spJRepl                      // ReplApply / ReplSend
	spSNoteSend                  // reliable.Journal.NoteSend
	spSNoteRecv                  // reliable.Journal.NoteRecv
	spSNoteAck                   // reliable.Journal.NoteAck
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"txn", "submit", "advance", "net.send",
	"journal.enq", "journal.exec", "journal.exec_chunk", "journal.version", "journal.term", "journal.repl",
	"session.note_send", "session.note_recv", "session.note_ack",
}

// span is one recorded interval. It holds no pointers, so a large span
// buffer adds nothing to the garbage collector's mark work.
type span struct {
	start, end int64 // ns since the tracer's epoch
	txn        uint64
	parent     int32 // index of the parent span, -1 for none
	kind       spanKind
}

// tracer records spans in memory and keeps per-kind call counts and
// duration histograms while it is on. Off, it records nothing and costs
// the wrappers one atomic load per call.
type tracer struct {
	on    atomic.Bool
	epoch time.Time
	spans []span
	next  atomic.Int64
	count [numSpanKinds]atomic.Int64
	total [numSpanKinds]atomic.Int64
	hist  [numSpanKinds]durHist
}

// newTracer returns a tracer that is off and keeps up to capacity
// spans once started.
func newTracer(capacity int) *tracer {
	return &tracer{spans: make([]span, capacity)}
}

// start turns recording on; the wrappers see it from their next call.
func (t *tracer) start() {
	t.epoch = time.Now()
	t.on.Store(true)
}

func (t *tracer) stop() { t.on.Store(false) }

func (t *tracer) now() int64 {
	if !t.on.Load() {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// record keeps one span; spans beyond the buffer are counted but not
// kept.
func (t *tracer) record(k spanKind, start, end int64, txn uint64) {
	if !t.on.Load() || start <= 0 {
		return // off, or the call began before the tracer was on
	}
	d := end - start
	t.count[k].Add(1)
	t.total[k].Add(d)
	t.hist[k].observe(d)
	if i := t.next.Add(1) - 1; i < int64(len(t.spans)) {
		t.spans[i] = span{start: start, end: end, txn: txn, parent: -1, kind: k}
	}
}

// meanNs is the mean duration of the calls of kind k.
func (t *tracer) meanNs(k spanKind) float64 {
	n := t.count[k].Load()
	if n == 0 {
		return 0
	}
	return float64(t.total[k].Load()) / float64(n)
}

// kept returns the spans held in the buffer.
func (t *tracer) kept() []span {
	n := t.next.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// link sets each span's parent: a span carrying a transaction id hangs
// under that transaction's txn span, and any other span under the
// latest advance span that encloses it.
func (t *tracer) link() {
	sp := t.kept()
	txnSpan := make(map[uint64]int32)
	var adv []int32
	for i := range sp {
		switch sp[i].kind {
		case spTxn:
			txnSpan[sp[i].txn] = int32(i)
		case spAdvance:
			adv = append(adv, int32(i))
		}
	}
	sort.Slice(adv, func(a, b int) bool { return sp[adv[a]].start < sp[adv[b]].start })
	for i := range sp {
		s := &sp[i]
		if s.kind == spTxn || s.kind == spAdvance {
			continue
		}
		if s.txn != 0 {
			if p, ok := txnSpan[s.txn]; ok {
				s.parent = p
			}
			continue
		}
		j := sort.Search(len(adv), func(j int) bool { return sp[adv[j]].start > s.start }) - 1
		if j >= 0 && sp[adv[j]].end >= s.end {
			s.parent = adv[j]
		}
	}
}

// writeSpans writes the kept spans as CSV (id,name,start_ns,end_ns,
// parent,txn) to path.
func (t *tracer) writeSpans(path string) (int, error) {
	t.link()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,name,start_ns,end_ns,parent,txn")
	sp := t.kept()
	for i, s := range sp {
		fmt.Fprintf(w, "%d,%s,%d,%d,%d,%d\n", i, spanNames[s.kind], s.start, s.end, s.parent, s.txn)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, err
	}
	return len(sp), f.Close()
}

// durHist is a lock-free log-linear histogram of nanosecond durations:
// 8 sub-buckets per power of two, so a quantile is within 1/16 of the
// true value.
type durHist struct {
	b [64 * 8]atomic.Int64
	n atomic.Int64
}

func histIndex(d int64) int {
	if d < 8 {
		if d < 0 {
			d = 0
		}
		return int(d)
	}
	e := bits.Len64(uint64(d)) - 1 // d in [2^e, 2^(e+1))
	sub := int(uint64(d)>>(uint(e)-3)) & 7
	return (e-2)*8 + sub
}

// histValue is the midpoint of bucket i.
func histValue(i int) float64 {
	if i < 8 {
		return float64(i)
	}
	e := i/8 + 2
	sub := i % 8
	lo := float64(uint64(1)<<uint(e)) * (1 + float64(sub)/8)
	return lo + float64(uint64(1)<<uint(e))/16
}

func (h *durHist) observe(d int64) {
	h.b[histIndex(d)].Add(1)
	h.n.Add(1)
}

// quantile returns the q-quantile in ns (0 when empty).
func (h *durHist) quantile(q float64) float64 {
	n := h.n.Load()
	if n == 0 {
		return 0
	}
	rank := int64(q * float64(n))
	if rank >= n {
		rank = n - 1
	}
	var seen int64
	for i := range h.b {
		seen += h.b[i].Load()
		if seen > rank {
			return histValue(i)
		}
	}
	return histValue(len(h.b) - 1)
}
