package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"mimir/internal/transport"
)

// span is one traced call into the transport layer. Spans of one job share
// rep; parent is the id of the job span that caused them (0 for the job
// span itself). Round is the rank's Exchange ordinal within the job, which
// the SPMD contract makes comparable across ranks.
type span struct {
	ID       int64   `json:"id"`
	Parent   int64   `json:"parent"`
	Workload string  `json:"workload"`
	Rep      int     `json:"rep"`
	Rank     int     `json:"rank"`
	Name     string  `json:"name"` // job | exchange | send | recv
	Round    int     `json:"round"`
	Start    float64 `json:"start_s"` // seconds since the tracer was created
	End      float64 `json:"end_s"`
	Bytes    int64   `json:"bytes"` // payload bytes this rank handed to the call
}

// tracer collects spans in memory; the benchmark writes them out when the
// run ends (writeSpans). One tracer serves every rank of a rig.
type tracer struct {
	workload string
	t0       time.Time
	rep      atomic.Int64 // current job ordinal, set by beginJob
	jobSpan  atomic.Int64 // id of the current job span
	nextID   atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

func (t *tracer) now() float64 { return time.Since(t.t0).Seconds() }

// beginJob opens the job span of the next rep; endJob closes it. Jobs run
// closed loop, so every transport span between the two belongs to it.
func (t *tracer) beginJob(rep int) (id int64, start float64) {
	id = t.nextID.Add(1)
	t.rep.Store(int64(rep))
	t.jobSpan.Store(id)
	return id, t.now()
}

func (t *tracer) endJob(id int64, start float64) {
	t.add(span{ID: id, Workload: t.workload, Rep: int(t.rep.Load()), Rank: -1, Name: "job", Start: start, End: t.now()})
}

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) record(name string, rank, round int, start float64, bytes int64) {
	t.add(span{
		ID: t.nextID.Add(1), Parent: t.jobSpan.Load(), Workload: t.workload,
		Rep: int(t.rep.Load()), Rank: rank, Name: name, Round: round,
		Start: start, End: t.now(), Bytes: bytes,
	})
}

// byRep groups the spans by job.
func (t *tracer) byRep() map[int][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int][]span{}
	for _, s := range t.spans {
		out[s.Rep] = append(out[s.Rep], s)
	}
	return out
}

// writeSpans appends every span to path as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	return f.Close()
}

// wrap decorates a transport so every Exchange/Send/Recv of every local
// rank is recorded as a span (the faultinject.Wrap pattern). A nil tracer
// returns inner unchanged.
func (t *tracer) wrap(inner transport.Transport) transport.Transport {
	if t == nil {
		return inner
	}
	return &tracingTransport{Transport: inner, t: t, eps: make(map[int]*tracingEndpoint)}
}

// tracingTransport forwards everything; the optional interfaces the
// runtime and the job service probe for (Mux, EpochReporter, ErrReporter,
// FaultReporter, PolicyReporter) are forwarded explicitly because embedding
// the Transport interface hides them.
type tracingTransport struct {
	transport.Transport
	t *tracer

	mu  sync.Mutex
	eps map[int]*tracingEndpoint
}

func (tt *tracingTransport) Open(job uint32) (transport.Transport, error) {
	m, ok := tt.Transport.(transport.Mux)
	if !ok {
		return nil, fmt.Errorf("bench: transport %T is not a Mux", tt.Transport)
	}
	ch, err := m.Open(job)
	if err != nil {
		return nil, err
	}
	return tt.t.wrap(ch), nil
}

func (tt *tracingTransport) Epoch() uint64 {
	if r, ok := tt.Transport.(transport.EpochReporter); ok {
		return r.Epoch()
	}
	return 0
}

func (tt *tracingTransport) Err() error {
	if r, ok := tt.Transport.(transport.ErrReporter); ok {
		return r.Err()
	}
	return nil
}

func (tt *tracingTransport) FaultStats() transport.FaultStats {
	if r, ok := tt.Transport.(transport.FaultReporter); ok {
		return r.FaultStats()
	}
	return transport.FaultStats{}
}

func (tt *tracingTransport) Policy() transport.FaultPolicy {
	if r, ok := tt.Transport.(transport.PolicyReporter); ok {
		return r.Policy()
	}
	return transport.AbortOnFailure
}

// Endpoint returns one stable wrapper per rank so the round counter
// survives repeated Endpoint calls.
func (tt *tracingTransport) Endpoint(rank int) transport.Endpoint {
	tt.mu.Lock()
	defer tt.mu.Unlock()
	ep, ok := tt.eps[rank]
	if !ok {
		ep = &tracingEndpoint{Endpoint: tt.Transport.Endpoint(rank), t: tt.t}
		tt.eps[rank] = ep
	}
	return ep
}

// tracingEndpoint times one rank's calls. Like every Endpoint it is owned
// by one goroutine, so its counters need no lock.
type tracingEndpoint struct {
	transport.Endpoint
	t     *tracer
	rep   int64
	round int
}

func payload(bufs [][]byte) int64 {
	var n int64
	for _, b := range bufs {
		n += int64(len(b))
	}
	return n
}

func (e *tracingEndpoint) Exchange(send [][]byte, now float64) ([][]byte, float64, error) {
	if rep := e.t.rep.Load(); rep != e.rep {
		e.rep, e.round = rep, 0
	}
	start := e.t.now()
	recv, tmax, err := e.Endpoint.Exchange(send, now)
	e.t.record("exchange", e.Rank(), e.round, start, payload(send))
	e.round++
	return recv, tmax, err
}

func (e *tracingEndpoint) Send(dst, tag int, data []byte, now float64) error {
	start := e.t.now()
	err := e.Endpoint.Send(dst, tag, data, now)
	e.t.record("send", e.Rank(), 0, start, int64(len(data)))
	return err
}

func (e *tracingEndpoint) Recv(src, tag int) (transport.Message, error) {
	start := e.t.now()
	m, err := e.Endpoint.Recv(src, tag)
	e.t.record("recv", e.Rank(), 0, start, int64(len(m.Data)))
	return m, err
}

// Recycle keeps the TCP transport's receive-buffer pool reachable through
// the decorator (mpi.Comm probes the endpoint for it).
func (e *tracingEndpoint) Recycle(b []byte) {
	if r, ok := e.Endpoint.(interface{ Recycle([]byte) }); ok {
		r.Recycle(b)
	}
}

// exchangeLedger is what one job's exchange spans add up to.
type exchangeLedger struct {
	calls    int     // Exchange calls, summed over ranks
	bytes    int64   // payload bytes handed to Exchange, summed over ranks
	busy     float64 // slowest rank's seconds inside Exchange
	xfer     float64 // sum over rounds of the fastest rank's duration
	peerWait float64 // sum over rounds of mean minus fastest rank duration
	p2pMsgs  int
	p2pBytes int64
}

// ledgerOf folds one job's spans. Rounds are aligned by ordinal: every rank
// calls Exchange the same number of times in the same order.
func ledgerOf(spans []span) exchangeLedger {
	var l exchangeLedger
	perRank := map[int]float64{}
	rounds := map[int][]float64{}
	for _, s := range spans {
		d := s.End - s.Start
		switch s.Name {
		case "exchange":
			l.calls++
			l.bytes += s.Bytes
			perRank[s.Rank] += d
			rounds[s.Round] = append(rounds[s.Round], d)
		case "send":
			l.p2pMsgs++
			l.p2pBytes += s.Bytes
		}
	}
	for _, d := range perRank {
		if d > l.busy {
			l.busy = d
		}
	}
	for _, ds := range rounds {
		lo := ds[0]
		for _, d := range ds {
			if d < lo {
				lo = d
			}
		}
		l.xfer += lo
		l.peerWait += sumOf(ds)/float64(len(ds)) - lo
	}
	return l
}
