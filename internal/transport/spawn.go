package transport

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// Environment variables a spawned worker process reads to join its world.
// SpawnLocal sets them on the children it launches; any launcher (a cluster
// scheduler, a shell script) can set them instead of flags.
const (
	EnvJoin = "MIMIR_TCP_JOIN"
	EnvRank = "MIMIR_TCP_RANK"
	EnvSize = "MIMIR_TCP_SIZE"
	// EnvFaults carries a fault-injection spec (internal/faultinject
	// grammar). The transport only forwards it; the facade layer parses it
	// and wires the injector.
	EnvFaults = "MIMIR_TCP_FAULTS"
	// EnvCompress ("1"/"true") turns on wire frame compression
	// (TCPConfig.Compress). Compression is per-frame and sender-side, so
	// mixed settings interoperate, but setting it world-wide is what makes
	// both directions of every link compress.
	EnvCompress = "MIMIR_TCP_COMPRESS"
	// EnvDeadline carries the per-I/O deadline as a Go duration string.
	EnvDeadline = "MIMIR_TCP_DEADLINE"
	// EnvEpoch carries the mesh epoch (TCPConfig.Epoch) so a worker forked
	// for an elastic world joins the right incarnation. Unset means 0.
	EnvEpoch = "MIMIR_TCP_EPOCH"
)

// FromEnv reads a worker's TCP configuration from the environment — the
// join address, rank, and size, plus everything Options carries. The second
// return is false when the process was not launched as a worker (EnvJoin
// unset).
func FromEnv() (TCPConfig, bool, error) {
	addr := os.Getenv(EnvJoin)
	if addr == "" {
		return TCPConfig{}, false, nil
	}
	rank, err := strconv.Atoi(os.Getenv(EnvRank))
	if err != nil {
		return TCPConfig{}, true, fmt.Errorf("transport: bad %s=%q: %v", EnvRank, os.Getenv(EnvRank), err)
	}
	size, err := strconv.Atoi(os.Getenv(EnvSize))
	if err != nil {
		return TCPConfig{}, true, fmt.Errorf("transport: bad %s=%q: %v", EnvSize, os.Getenv(EnvSize), err)
	}
	opts, err := OptionsFromEnv()
	if err != nil {
		return TCPConfig{}, true, err
	}
	cfg := opts.TCPConfig(addr, rank, size)
	if s := os.Getenv(EnvEpoch); s != "" {
		epoch, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return TCPConfig{}, true, fmt.Errorf("transport: bad %s=%q: %v", EnvEpoch, s, err)
		}
		cfg.Epoch = epoch
	}
	return cfg, true, nil
}

// FaultsFromEnv returns the fault-injection spec string a parent forwarded
// through the environment ("" when none). The caller parses it — the
// transport has no dependency on the injector package.
func FaultsFromEnv() string { return os.Getenv(EnvFaults) }

// Children tracks the worker processes SpawnLocal launched.
type Children struct {
	procs []*exec.Cmd
}

// Wait reaps every child and returns the first failure (by rank order).
func (c *Children) Wait() error {
	var first error
	for _, p := range c.procs {
		if err := p.Wait(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Kill terminates every child still running.
func (c *Children) Kill() {
	for _, p := range c.procs {
		if p.Process != nil {
			p.Process.Kill()
		}
	}
}

// SpawnOptions configures SpawnLocalOpts beyond the world size: the
// world-wide Options (forwarded to every worker through the environment via
// Options.Env — Faults configures the workers only, not rank 0) and rank
// 0's own connection hook.
type SpawnOptions struct {
	Options
	// WrapConn is rank 0's TCPConfig.WrapConn hook.
	WrapConn func(peer int, c net.Conn) net.Conn
}

// SpawnLocal turns this process into rank 0 of a size-rank world on the
// loopback interface and launches size-1 copies of this binary (same
// arguments) as the worker ranks, joining them via the MIMIR_TCP_*
// environment. The re-executed copies must detect the environment (FromEnv)
// before doing anything else and run as workers.
//
// Children write their stdout to stderr so rank 0's stdout stays the only
// place job output appears.
func SpawnLocal(size int, deadline time.Duration) (*TCP, *Children, error) {
	return SpawnLocalOpts(size, SpawnOptions{Options: Options{Deadline: deadline}})
}

// SpawnLocalOpts is SpawnLocal with every Options field configured: the
// deadline, fault spec and compression travel to every worker through the
// environment, so one flag string on the parent configures the whole world.
func SpawnLocalOpts(size int, opts SpawnOptions) (*TCP, *Children, error) {
	if size < 1 {
		return nil, nil, fmt.Errorf("transport: invalid world size %d", size)
	}
	cfg := opts.Options.TCPConfig("127.0.0.1:0", 0, size)
	cfg.WrapConn = opts.WrapConn
	b, err := ListenTCP(cfg)
	if err != nil {
		return nil, nil, err
	}
	exe, err := os.Executable()
	if err != nil {
		exe = os.Args[0]
	}
	// One encode path for everything the workers must share: Options.Env.
	optEnv := opts.Options.Env()
	children := &Children{}
	for rank := 1; rank < size; rank++ {
		cmd := exec.Command(exe, os.Args[1:]...)
		cmd.Env = append(os.Environ(),
			EnvJoin+"="+b.Addr(),
			fmt.Sprintf("%s=%d", EnvRank, rank),
			fmt.Sprintf("%s=%d", EnvSize, size),
		)
		cmd.Env = append(cmd.Env, optEnv...)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			children.Kill()
			children.Wait()
			b.ln.Close()
			return nil, nil, fmt.Errorf("transport: spawning worker rank %d: %w", rank, err)
		}
		children.procs = append(children.procs, cmd)
	}
	t, err := b.Accept()
	if err != nil {
		children.Kill()
		children.Wait()
		return nil, nil, err
	}
	return t, children, nil
}
