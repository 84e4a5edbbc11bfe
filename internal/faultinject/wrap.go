package faultinject

import (
	"fmt"
	"sync"

	"mimir/internal/transport"
)

// Severer is implemented by transports that can simulate this process's
// sudden death: tear down every connection with no farewell and no abort
// broadcast, which is exactly what peers observe when the process is
// killed. transport.TCP implements it.
type Severer interface {
	Sever(cause error)
}

// Wrap decorates a transport with the injector's kill schedule: when a
// local rank with a scheduled kill reaches the scheduled collective round,
// the transport is severed (or, lacking a Severer, aborted) and the rank's
// call fails with an ErrAborted-wrapped cause. Wire-level events need no
// decorator — they ride in through TCPConfig.WrapConn.
func (in *Injector) Wrap(inner transport.Transport) transport.Transport {
	return &killTransport{inner: inner, in: in, eps: make(map[int]*killEndpoint)}
}

type killTransport struct {
	inner transport.Transport
	in    *Injector

	mu  sync.Mutex
	eps map[int]*killEndpoint
}

func (k *killTransport) Size() int         { return k.inner.Size() }
func (k *killTransport) LocalRanks() []int { return k.inner.LocalRanks() }
func (k *killTransport) Wall() bool        { return k.inner.Wall() }
func (k *killTransport) Abort(err error)   { k.inner.Abort(err) }
func (k *killTransport) Close() error      { return k.inner.Close() }

// Open forwards to the inner transport's Mux and wraps the returned channel
// view, so a kill schedule fires on job channels too (the round counter is
// per channel view, matching the per-channel collective sequence). A
// channel view has no Severer, so a kill on it aborts the channel — the
// job, not the mesh — which is exactly the blast radius a job-level fault
// should have.
func (k *killTransport) Open(job uint32) (transport.Transport, error) {
	m, ok := k.inner.(transport.Mux)
	if !ok {
		return nil, fmt.Errorf("faultinject: transport %T is not a Mux", k.inner)
	}
	ch, err := m.Open(job)
	if err != nil {
		return nil, err
	}
	return k.in.Wrap(ch), nil
}

// Err forwards the inner transport's abort cause.
func (k *killTransport) Err() error {
	if r, ok := k.inner.(transport.ErrReporter); ok {
		return r.Err()
	}
	return nil
}

// FaultStats forwards the inner transport's link-failure counter, so the
// runtime's metrics see through the decorator.
func (k *killTransport) FaultStats() transport.FaultStats {
	if r, ok := k.inner.(transport.FaultReporter); ok {
		return r.FaultStats()
	}
	return transport.FaultStats{}
}

// Endpoint returns a stable wrapper per rank: the kill schedule counts the
// rank's collective rounds, so the counter must survive repeated Endpoint
// calls.
func (k *killTransport) Endpoint(rank int) transport.Endpoint {
	k.mu.Lock()
	defer k.mu.Unlock()
	ep, ok := k.eps[rank]
	if !ok {
		ep = &killEndpoint{Endpoint: k.inner.Endpoint(rank), k: k}
		k.eps[rank] = ep
	}
	return ep
}

// killEndpoint counts one rank's Exchange calls (its collective rounds) and
// dies on schedule. Like every Endpoint it is owned by a single goroutine,
// so the round counter needs no lock.
type killEndpoint struct {
	transport.Endpoint
	k     *killTransport
	round uint64
}

func (e *killEndpoint) Exchange(send [][]byte, now float64) ([][]byte, float64, error) {
	round := e.round
	e.round++
	for _, kill := range e.k.in.spec.Kills {
		if kill.Rank != e.Rank() || kill.Round != round {
			continue
		}
		e.k.in.mu.Lock()
		fired := e.k.in.fired[[2]int{-1 - int(kill.Round), kill.Rank}]
		if !fired {
			e.k.in.fired[[2]int{-1 - int(kill.Round), kill.Rank}] = true
			e.k.in.stats.Kills++
		}
		e.k.in.mu.Unlock()
		cause := fmt.Errorf("%w: fault injection killed rank %d at round %d", transport.ErrAborted, kill.Rank, round)
		if s, ok := e.k.inner.(Severer); ok {
			s.Sever(cause)
		} else {
			e.k.inner.Abort(cause)
		}
		return nil, 0, cause
	}
	return e.Endpoint.Exchange(send, now)
}
