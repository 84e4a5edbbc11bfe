package main

import (
	"sync"
	"time"

	"mimir/internal/mpi"
	"mimir/internal/simtime"
	"mimir/internal/transport"
)

// tcpWorlds builds an in-process TCP world: one transport and one mpi.World
// per rank over real loopback sockets, so byte movement and the rank clocks
// are wall-clock. The mesh stands for the whole run. tr, when non-nil,
// decorates every rank's transport with the tracing wrapper.
func tcpWorlds(size int, compress bool, tr *tracer) ([]*mpi.World, error) {
	cfg := func(rank int, addr string) transport.TCPConfig {
		return transport.TCPConfig{
			Addr: addr, Rank: rank, Size: size,
			BootstrapTimeout: 30 * time.Second,
			Compress:         compress,
		}
	}
	b, err := transport.ListenTCP(cfg(0, "127.0.0.1:0"))
	if err != nil {
		return nil, err
	}
	trs := make([]transport.Transport, size)
	errs := make([]error, size)
	var wg sync.WaitGroup
	for r := 1; r < size; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			t, err := transport.NewTCP(cfg(r, b.Addr()))
			if err != nil {
				errs[r] = err
				return
			}
			trs[r] = t
		}(r)
	}
	if t0, err := b.Accept(); err != nil {
		errs[0] = err
	} else {
		trs[0] = t0
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			for _, t := range trs {
				if t != nil {
					t.Close()
				}
			}
			return nil, err
		}
	}
	worlds := make([]*mpi.World, size)
	for r, t := range trs {
		worlds[r] = mpi.NewWorld(mpi.Config{Transport: tr.wrap(t)})
	}
	return worlds, nil
}

func closeWorlds(worlds []*mpi.World) {
	for _, w := range worlds {
		w.Close()
	}
}

// localWorld is the in-process simulated world the reference outputs are
// computed on — a different transport from the one under test. The network
// model only keeps the simulated clocks finite.
func localWorld(size int) *mpi.World {
	return mpi.NewWorld(mpi.Config{Size: size, Net: simtime.NetworkModel{Alpha: 1e-7, Beta: 1e9}})
}

// eachRank runs f once per world (one world per rank) concurrently and
// returns the first error.
func eachRank(worlds []*mpi.World, f func(rank int, w *mpi.World) error) error {
	errs := make([]error, len(worlds))
	var wg sync.WaitGroup
	for r, w := range worlds {
		wg.Add(1)
		go func(r int, w *mpi.World) {
			defer wg.Done()
			errs[r] = f(r, w)
		}(r, w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
