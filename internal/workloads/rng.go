// Package workloads implements the paper's three benchmarks — WordCount
// (WC), octree clustering (OC), and breadth-first search (BFS) — together
// with deterministic synthetic dataset generators standing in for the
// paper's inputs: a uniform word stream, a Zipf-skewed "Wikipedia-like"
// word stream (PUMA), normally distributed 3D points (protein-ligand
// docking metadata), and Graph500-style R-MAT graphs. Each benchmark runs
// unchanged on both engines through the Engine interface.
package workloads

import "math"

// rng is a small deterministic splitmix64 generator. We roll our own so
// datasets are bit-identical across Go releases (math/rand's streams are
// not guaranteed stable), which the tests and experiment tables rely on.
type rng struct{ state uint64 }

func newRNG(seed uint64) *rng { return &rng{state: seed ^ 0x9E3779B97F4A7C15} }

// mix64 is the splitmix64 finalizer as a pure function: a bijective avalanche
// mix used to derive independent stream seeds from structured coordinates
// (seed, rank, record). Without it, nearby coordinates yield correlated
// states (the weakness the graphgen shared-seed bug exposed).
func mix64(x uint64) uint64 {
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// streamFor derives an independent RNG stream for one (rank, record)
// coordinate of a dataset. The stream depends only on the logical record
// index, not on what was generated before it, so a record's content is
// fixed by (seed, rank, record) alone; the committed outputs are defined
// by these streams. The stream comes back by value: generators open one
// per record, and a pointer would put each on the heap.
func streamFor(seed uint64, rank int, record int64) rng {
	h := mix64(seed + 0x9E3779B97F4A7C15)
	h = mix64(h ^ mix64(uint64(rank)+0xD1B54A32D192ED03))
	h = mix64(h ^ mix64(uint64(record)+0x8CB92BA72F3D8DD7))
	return rng{state: h}
}

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a uniform integer in [0, n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		panic("workloads: intn with non-positive bound")
	}
	return int(r.next() % uint64(n))
}

// float64 returns a uniform float in [0, 1).
func (r *rng) float64() float64 {
	return float64(r.next()>>11) / float64(1<<53)
}

// normal returns a standard normal sample via Box-Muller.
func (r *rng) normal() float64 {
	u1 := r.float64()
	for u1 == 0 {
		u1 = r.float64()
	}
	u2 := r.float64()
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// zipf samples a rank from a Zipf distribution with exponent s > 1 over an
// unbounded support, using Devroye's rejection method, clamped to [1, imax].
// Small ranks (popular words) dominate, giving the heavy key skew of the
// Wikipedia dataset.
type zipf struct {
	r          *rng
	s          float64
	imax       float64
	oneMinusS  float64
	hImax      float64
	hX0        float64
	sConstant  float64
	halfPowerS float64
}

func newZipf(r *rng, s float64, imax uint64) *zipf {
	z := &zipf{r: r, s: s, imax: float64(imax), oneMinusS: 1 - s}
	z.hImax = z.h(z.imax + 0.5)
	z.hX0 = z.h(0.5) - math.Exp(-s*math.Log(1))
	z.sConstant = z.hX0 - z.hImax
	z.halfPowerS = math.Exp(-s * math.Log(1.5))
	return z
}

// h is the integral of x^-s: x^(1-s)/(1-s).
func (z *zipf) h(x float64) float64 {
	return math.Exp(z.oneMinusS*math.Log(x)) / z.oneMinusS
}

func (z *zipf) hInv(x float64) float64 {
	return math.Exp(math.Log(z.oneMinusS*x) / z.oneMinusS)
}

// sample returns a Zipf-distributed rank in [1, imax].
func (z *zipf) sample() uint64 {
	for {
		u := z.r.float64()
		x := z.hInv(z.hX0 - u*z.sConstant)
		k := math.Floor(x + 0.5)
		if k < 1 {
			k = 1
		}
		if k > z.imax {
			k = z.imax
		}
		// Acceptance test (Devroye).
		if z.h(k+0.5)-math.Exp(-z.s*math.Log(k)) <= z.hX0-u*z.sConstant {
			return uint64(k)
		}
	}
}
