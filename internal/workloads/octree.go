package workloads

import (
	"encoding/binary"
	"fmt"

	"mimir/internal/core"
	"mimir/internal/kvbuf"
	"mimir/internal/pfs"
)

// OC is the paper's octree clustering benchmark: the MapReduce algorithm of
// Estrada et al. for classifying 3D points (ligand docking metadata). The
// space is recursively subdivided into octants; at each level a MapReduce
// stage counts the points per octant, and octants holding at least a
// density threshold of the total points stay "dense" and are subdivided at
// the next level. The iteration stops when no octant is dense or the
// maximum depth is reached. Per the paper's dataset, points follow a normal
// distribution (sigma 0.5) and the density threshold is 1%.

// OCConfig describes one octree clustering run.
type OCConfig struct {
	// TotalPoints across all ranks (the paper sweeps 2^22..2^32).
	TotalPoints int64
	Seed        uint64
	// Density is the dense-octant threshold as a fraction of total points
	// (paper: 0.01).
	Density float64
	// MaxLevel caps the refinement depth (default 8).
	MaxLevel int
}

// OCResult summarizes a run.
type OCResult struct {
	// Levels actually refined.
	Levels int
	// DenseOctants found at the deepest refined level.
	DenseOctants int
	// TotalDense across all levels.
	TotalDense int
	Stats      StageStats
}

// OCHint is the octree KV-hint: fixed 8-byte octant keys and 8-byte counts.
func OCHint() kvbuf.Hint { return kvbuf.Hint{Key: kvbuf.Fixed(8), Val: kvbuf.Fixed(8)} }

// pointBytes is the accounting charge for one resident 3D point.
const pointBytes = 24

// octKey packs an octant address: level in the top byte, then 3x18 bits of
// grid coordinates.
func octKey(level int, x, y, z float64) uint64 {
	shift := uint(level)
	ix := uint64(clamp01(x) * float64(uint64(1)<<shift))
	iy := uint64(clamp01(y) * float64(uint64(1)<<shift))
	iz := uint64(clamp01(z) * float64(uint64(1)<<shift))
	mask := uint64(1)<<shift - 1
	return uint64(level)<<56 | (ix&mask)<<36 | (iy&mask)<<18 | (iz & mask)
}

// parentKey returns the enclosing octant of k at the previous level.
func parentKey(k uint64) uint64 {
	level := int(k >> 56)
	if level <= 1 {
		return 0
	}
	ix := (k >> 36) & (1<<18 - 1)
	iy := (k >> 18) & (1<<18 - 1)
	iz := k & (1<<18 - 1)
	return uint64(level-1)<<56 | (ix>>1)<<36 | (iy>>1)<<18 | iz>>1
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v >= 1 {
		return 0.999999999
	}
	return v
}

// genPoints deterministically generates this rank's share of the dataset:
// 3D points with normally distributed coordinates (mean 0.5, sigma 0.5,
// clamped to the unit cube) as described for the paper's dataset.
func genPoints(seed uint64, total int64, rank, nranks int) [][3]float64 {
	share := total / int64(nranks)
	if int64(rank) < total%int64(nranks) {
		share++
	}
	r := newRNG(seed + uint64(rank)*0xA24BAED4963EE407)
	pts := make([][3]float64, share)
	for i := range pts {
		pts[i] = [3]float64{
			clamp01(0.5 + 0.5*r.normal()),
			clamp01(0.5 + 0.5*r.normal()),
			clamp01(0.5 + 0.5*r.normal()),
		}
	}
	return pts
}

// RunOctree executes OC on the given engine: one MapReduce stage per level.
func RunOctree(e Engine, fs *pfs.FS, cfg OCConfig, opts StageOpts) (OCResult, error) {
	comm := e.Comm()
	if cfg.Density <= 0 {
		cfg.Density = 0.01
	}
	if cfg.MaxLevel <= 0 {
		cfg.MaxLevel = 8
	}
	threshold := uint64(float64(cfg.TotalPoints) * cfg.Density)
	if threshold < 1 {
		threshold = 1
	}

	// Input: the rank's points, charged as one dataset read and kept
	// resident across iterations (charged to the node arena as application
	// data, like the ported MR-MPI application holds them).
	pts := genPoints(cfg.Seed, cfg.TotalPoints, comm.Rank(), comm.Size())
	if fs != nil {
		fs.ChargeRead(comm.Clock(), int64(len(pts))*pointBytes)
	}
	// Application-held point storage is part of the node's footprint.
	appBytes := int64(len(pts)) * pointBytes
	arena := engineArena(e)
	if arena != nil {
		if err := arena.Alloc(appBytes); err != nil {
			return OCResult{}, fmt.Errorf("workloads: holding points: %w", err)
		}
		defer arena.Free(appBytes)
	}

	var res OCResult
	// dense holds the dense octant keys of the previous level.
	dense := map[uint64]bool{}
	for level := 1; level <= cfg.MaxLevel; level++ {
		lv := level
		input := func(emit func(rec core.Record) error) error {
			var kb [8]byte
			for _, p := range pts {
				if lv > 1 && !dense[parentKey(octKey(lv, p[0], p[1], p[2]))] {
					continue
				}
				binary.LittleEndian.PutUint64(kb[:], octKey(lv, p[0], p[1], p[2]))
				if err := emit(core.Record{Val: kb[:]}); err != nil {
					return err
				}
			}
			return nil
		}
		mapFn := func(rec core.Record, emit core.Emitter) error {
			return emit.Emit(rec.Val, core.Uint64Bytes(1))
		}
		var localDense []uint64
		stats, err := e.RunStage(opts, input, mapFn, WordCountReduce, func(k, v []byte) error {
			if core.BytesUint64(v) >= threshold {
				localDense = append(localDense, binary.LittleEndian.Uint64(k))
			}
			return nil
		})
		if err != nil {
			return res, err
		}
		res.Stats.accumulate(stats)

		// Share this level's dense octants with every rank.
		buf := make([]byte, 8*len(localDense))
		for i, k := range localDense {
			binary.LittleEndian.PutUint64(buf[i*8:], k)
		}
		all, err := comm.Allgatherv(buf)
		if err != nil {
			return res, err
		}
		dense = map[uint64]bool{}
		for _, b := range all {
			for off := 0; off+8 <= len(b); off += 8 {
				dense[binary.LittleEndian.Uint64(b[off:])] = true
			}
		}
		res.Levels = level
		res.DenseOctants = len(dense)
		res.TotalDense += len(dense)
		if len(dense) == 0 {
			break
		}
	}
	return res, nil
}

// engineArena exposes the arena of the known engine types for application
// data accounting.
func engineArena(e Engine) arenaHolder {
	switch t := e.(type) {
	case *MimirEngine:
		return t.Arena
	case *MRMPIEngine:
		return t.Arena
	}
	return nil
}

type arenaHolder interface {
	Alloc(n int64) error
	Free(n int64)
}
