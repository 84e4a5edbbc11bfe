// In-situ analytics: the paper's third input source — "sources other than
// MapReduce jobs (e.g., in situ analytics workflows)". A toy particle
// simulation runs on every rank; at each timestep its live state is fed
// straight into a Mimir job (no file system round trip) that histograms
// particle speeds, using partial reduction so the full KMV set never
// materializes.
//
//	go run ./examples/insitu
package main

import (
	"encoding/binary"
	"fmt"
	"log"
	"math"
	"sync"

	"mimir"
)

// sim is a minimal velocity-Verlet particle simulation fragment: particles
// in a box with a soft attractive center.
type sim struct {
	pos, vel [][3]float64
}

func newSim(n int, seed uint64) *sim {
	s := &sim{pos: make([][3]float64, n), vel: make([][3]float64, n)}
	state := seed
	next := func() float64 {
		state = state*6364136223846793005 + 1442695040888963407
		return float64(state>>11) / float64(1<<53)
	}
	for i := range s.pos {
		s.pos[i] = [3]float64{next(), next(), next()}
		s.vel[i] = [3]float64{next() - 0.5, next() - 0.5, next() - 0.5}
	}
	return s
}

func (s *sim) step(dt float64) {
	for i := range s.pos {
		for d := 0; d < 3; d++ {
			// Pull toward the box center.
			s.vel[i][d] += dt * (0.5 - s.pos[i][d])
			s.pos[i][d] += dt * s.vel[i][d]
		}
	}
}

func (s *sim) speed(i int) float64 {
	v := s.vel[i]
	return math.Sqrt(v[0]*v[0] + v[1]*v[1] + v[2]*v[2])
}

func main() {
	const (
		ranks     = 8
		particles = 20000 // per rank
		steps     = 5
		buckets   = 12
	)
	world := mimir.NewWorld(ranks)
	arena := mimir.NewArena(0)

	sumCounts := func(_ []byte, existing, incoming []byte) ([]byte, error) {
		binary.LittleEndian.PutUint64(existing, mimir.BytesUint64(existing)+mimir.BytesUint64(incoming))
		return existing, nil
	}

	var mu sync.Mutex
	histPerStep := make([][buckets]uint64, steps)

	err := world.Run(func(c *mimir.Comm) error {
		s := newSim(particles, uint64(c.Rank())+1)
		for t := 0; t < steps; t++ {
			s.step(0.1)

			// The in-situ input source: records come from the simulation's
			// live state, not from storage.
			input := func(emit func(mimir.Record) error) error {
				var rec [8]byte
				for i := 0; i < particles; i++ {
					b := int(s.speed(i) * 8)
					if b >= buckets {
						b = buckets - 1
					}
					rec[0] = byte(b)
					if err := emit(mimir.Record{Val: rec[:1]}); err != nil {
						return err
					}
				}
				return nil
			}
			job := mimir.NewJob(c, mimir.Config{
				Arena: arena,
				Hint:  mimir.Hint{Key: mimir.Fixed(1), Val: mimir.Fixed(8)},
				// Histogramming is partial-reduce invariant.
				PartialReduce: sumCounts,
				// And compresses perfectly: one KV per bucket per rank.
				Combiner: sumCounts,
			})
			mapFn := func(rec mimir.Record, emit mimir.Emitter) error {
				return emit.Emit(rec.Val, mimir.Uint64Bytes(1))
			}
			out, err := job.Run(input, mapFn, nil)
			if err != nil {
				return err
			}
			err = out.Drain(func(k, v []byte) error {
				mu.Lock()
				histPerStep[t][k[0]] += mimir.BytesUint64(v)
				mu.Unlock()
				return nil
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("in-situ speed histograms (%d particles x %d ranks per step)\n", particles, ranks)
	for t, hist := range histPerStep {
		var total, max uint64
		for _, n := range hist {
			total += n
			if n > max {
				max = n
			}
		}
		fmt.Printf("step %d: ", t+1)
		for _, n := range hist {
			bar := int(n * 8 / (max + 1))
			fmt.Print([]string{"·", "▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"}[bar])
		}
		fmt.Printf("  (%d samples)\n", total)
	}
}
