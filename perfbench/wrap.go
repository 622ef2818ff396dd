package main

import (
	"repro/internal/core"
	"repro/internal/model"
	"repro/internal/transport"
	"repro/internal/transport/reliable"
)

// The wrappers in this file sit between core and the layers below it
// (the network, the node journal and the session journal). Each one
// forwards every call unchanged; when the tracer is on it also times
// the call and counts what passed through. They must never change the
// path the program takes, so each wrapper forwards every optional
// interface its wrapped value implements (see wrap_test.go).

// netWrap wraps a transport.Network (the in-memory net or tcpnet, below
// the session layer when one is configured).
type netWrap struct {
	inner transport.Network
	tr    *tracer
	// payloads counts sent messages by application payload type, looking
	// through session envelopes and batch envelopes.
	payloads transport.StatsCollector
}

// faultNetWrap is a netWrap around a network that also injects faults;
// the session layer looks for transport.FaultInjector by type assertion.
type faultNetWrap struct {
	*netWrap
	fi transport.FaultInjector
}

var (
	_ transport.Network       = (*netWrap)(nil)
	_ transport.FaultInjector = (*faultNetWrap)(nil)
	_ core.Journal            = (*journalWrap)(nil)
	_ core.ChunkJournal       = (*journalWrap)(nil)
	_ core.TermJournal        = (*journalWrap)(nil)
	_ core.ReplJournal        = (*journalWrap)(nil)
	_ reliable.Journal        = (*sessJournalWrap)(nil)
	_ transport.Network       = (*faultNetWrap)(nil)
)

// wrapNet wraps inner, keeping its FaultInjector extension visible.
func wrapNet(inner transport.Network, tr *tracer) (transport.Network, *netWrap) {
	w := &netWrap{inner: inner, tr: tr}
	if fi, ok := inner.(transport.FaultInjector); ok {
		return &faultNetWrap{netWrap: w, fi: fi}, w
	}
	return w, w
}

func (w *netWrap) Register(id model.NodeID, h transport.Handler) { w.inner.Register(id, h) }
func (w *netWrap) Start()                                        { w.inner.Start() }
func (w *netWrap) Close()                                        { w.inner.Close() }
func (w *netWrap) Stats() transport.Stats                        { return w.inner.Stats() }

func (w *netWrap) Send(m transport.Message) {
	if !w.tr.on.Load() {
		w.inner.Send(m)
		return
	}
	t0 := w.tr.now()
	w.inner.Send(m)
	w.tr.record(spSend, t0, w.tr.now(), txnOf(m.Payload))
	w.countPayloads(m)
}

// countPayloads counts the application messages inside m.
func (w *netWrap) countPayloads(m transport.Message) {
	switch p := m.Payload.(type) {
	case transport.BatchMsg:
		for _, mm := range p.Msgs {
			w.countPayloads(mm)
		}
	case reliable.DataMsg:
		w.payloads.Count(transport.Message{Payload: p.Payload})
	default:
		w.payloads.Count(m)
	}
}

// txnOf returns the transaction a payload belongs to, or 0.
func txnOf(p any) uint64 {
	switch p := p.(type) {
	case core.SubtxnMsg:
		return uint64(p.Txn)
	case reliable.DataMsg:
		return txnOf(p.Payload)
	}
	return 0
}

func (f *faultNetWrap) Partition(from, to model.NodeID) { f.fi.Partition(from, to) }
func (f *faultNetWrap) Heal()                           { f.fi.Heal() }
func (f *faultNetWrap) SetDropRate(rate float64)        { f.fi.SetDropRate(rate) }
func (f *faultNetWrap) SetDupRate(rate float64)         { f.fi.SetDupRate(rate) }

// fullJournal is a node journal with every optional extension core
// looks for. Accepting only such journals means the wrapper can never
// hide an extension from core.
type fullJournal interface {
	core.Journal
	core.ChunkJournal
	core.TermJournal
	core.ReplJournal
}

// journalWrap wraps the node's durability journal.
type journalWrap struct {
	inner fullJournal
	tr    *tracer
}

func (j *journalWrap) Enq(from model.NodeID, msg core.SubtxnMsg) uint64 {
	if !j.tr.on.Load() {
		return j.inner.Enq(from, msg)
	}
	t0 := j.tr.now()
	id := j.inner.Enq(from, msg)
	j.tr.record(spJEnq, t0, j.tr.now(), uint64(msg.Txn))
	return id
}

func (j *journalWrap) Exec(rec core.ExecRecord, outbox []transport.Message) []uint64 {
	if !j.tr.on.Load() {
		return j.inner.Exec(rec, outbox)
	}
	t0 := j.tr.now()
	ids := j.inner.Exec(rec, outbox)
	j.tr.record(spJExec, t0, j.tr.now(), uint64(rec.Txn))
	return ids
}

func (j *journalWrap) ExecChunk(recs []core.ExecRecord, outboxes [][]transport.Message) [][]uint64 {
	if !j.tr.on.Load() {
		return j.inner.ExecChunk(recs, outboxes)
	}
	t0 := j.tr.now()
	ids := j.inner.ExecChunk(recs, outboxes)
	j.tr.record(spJExecChunk, t0, j.tr.now(), 0)
	return ids
}

func (j *journalWrap) VersionUpdate(part int, v model.Version) {
	t0 := j.tr.now()
	j.inner.VersionUpdate(part, v)
	j.tr.record(spJVersion, t0, j.tr.now(), 0)
}

func (j *journalWrap) VersionRead(part int, v model.Version) {
	t0 := j.tr.now()
	j.inner.VersionRead(part, v)
	j.tr.record(spJVersion, t0, j.tr.now(), 0)
}

func (j *journalWrap) GC(part int, v model.Version) {
	t0 := j.tr.now()
	j.inner.GC(part, v)
	j.tr.record(spJVersion, t0, j.tr.now(), 0)
}

func (j *journalWrap) CoordTerm(t uint64) {
	t0 := j.tr.now()
	j.inner.CoordTerm(t)
	j.tr.record(spJTerm, t0, j.tr.now(), 0)
}

func (j *journalWrap) ReplApply(part int, from model.NodeID, seq uint64, v model.Version, ops []core.AppliedOp) {
	if !j.tr.on.Load() {
		j.inner.ReplApply(part, from, seq, v, ops)
		return
	}
	t0 := j.tr.now()
	j.inner.ReplApply(part, from, seq, v, ops)
	j.tr.record(spJRepl, t0, j.tr.now(), 0)
}

func (j *journalWrap) ReplTerm(part int, t uint64) {
	t0 := j.tr.now()
	j.inner.ReplTerm(part, t)
	j.tr.record(spJTerm, t0, j.tr.now(), 0)
}

func (j *journalWrap) ReplSend(part int, seq uint64) {
	if !j.tr.on.Load() {
		j.inner.ReplSend(part, seq)
		return
	}
	t0 := j.tr.now()
	j.inner.ReplSend(part, seq)
	j.tr.record(spJRepl, t0, j.tr.now(), 0)
}

// sessJournalWrap wraps the reliable session layer's journal.
type sessJournalWrap struct {
	inner reliable.Journal
	tr    *tracer
}

func (s *sessJournalWrap) NoteSend(m transport.Message) {
	if !s.tr.on.Load() {
		s.inner.NoteSend(m)
		return
	}
	t0 := s.tr.now()
	s.inner.NoteSend(m)
	s.tr.record(spSNoteSend, t0, s.tr.now(), txnOf(m.Payload))
}

func (s *sessJournalWrap) NoteRecv(to, from model.NodeID, nextExpected uint64) {
	if !s.tr.on.Load() {
		s.inner.NoteRecv(to, from, nextExpected)
		return
	}
	t0 := s.tr.now()
	s.inner.NoteRecv(to, from, nextExpected)
	s.tr.record(spSNoteRecv, t0, s.tr.now(), 0)
}

func (s *sessJournalWrap) NoteAck(from, to model.NodeID, cum uint64) {
	if !s.tr.on.Load() {
		s.inner.NoteAck(from, to, cum)
		return
	}
	t0 := s.tr.now()
	s.inner.NoteAck(from, to, cum)
	s.tr.record(spSNoteAck, t0, s.tr.now(), 0)
}
