package transport

import (
	"fmt"
	"os"
	"strconv"
	"time"
)

// Options is every world-wide setting of a multi-process TCP world that a
// launcher must hand to the processes it starts: fault handling, deadlines,
// fault injection, and wire compression (job knobs such as -workers reach a
// spawned child through the os.Args it re-executes). There is exactly one
// encode (Env) and one decode (OptionsFromEnv), shared by spawn-forwarding,
// the worker commands, and the job-service daemon — adding a field here and
// to the two methods is the whole story, so no launch path can silently
// drop a setting.
//
// The zero Options is a valid default everywhere (fail-stop, transport
// default timings, no injection, no compression).
type Options struct {
	// Policy selects fail-stop (AbortOnFailure, the default) or
	// fail-recover (RetryTransient) link handling for every process.
	Policy FaultPolicy
	// ReconnectWindow bounds RetryTransient recovery per link; a peer that
	// stays unreachable longer aborts the world. 0 means the transport's
	// default (10s).
	ReconnectWindow time.Duration
	// Deadline is the per-I/O deadline (TCPConfig.Deadline). 0 means the
	// default (10s).
	Deadline time.Duration
	// Faults is a deterministic fault-injection spec in the
	// internal/faultinject grammar, e.g. "seed:42,kill:rank2@round3".
	// Empty means no injection. The transport only carries the string; the
	// facade layer parses it and wires the injector.
	Faults string
	// Compress turns on wire frame compression (deflate, per frame,
	// sender-side). Compression is a per-sender decision, so mixed settings
	// interoperate, but setting it world-wide is what makes both directions
	// of every link compress.
	Compress bool
}

// Env encodes the non-default options as "KEY=VALUE" entries, ready to
// append to a child process environment. OptionsFromEnv inverts it.
func (o Options) Env() []string {
	var env []string
	if o.Policy != AbortOnFailure {
		env = append(env, EnvPolicy+"="+o.Policy.String())
	}
	if o.ReconnectWindow > 0 {
		env = append(env, EnvWindow+"="+o.ReconnectWindow.String())
	}
	if o.Deadline > 0 {
		env = append(env, EnvDeadline+"="+o.Deadline.String())
	}
	if o.Faults != "" {
		env = append(env, EnvFaults+"="+o.Faults)
	}
	if o.Compress {
		env = append(env, EnvCompress+"=1")
	}
	return env
}

// OptionsFromEnv decodes the options a parent forwarded through the
// environment (Env's inverse). Unset variables leave their zero defaults.
func OptionsFromEnv() (Options, error) {
	var o Options
	if s := os.Getenv(EnvPolicy); s != "" {
		p, err := ParseFaultPolicy(s)
		if err != nil {
			return Options{}, fmt.Errorf("transport: bad %s=%q: %v", EnvPolicy, s, err)
		}
		o.Policy = p
	}
	if s := os.Getenv(EnvWindow); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil || d <= 0 {
			return Options{}, fmt.Errorf("transport: bad %s=%q", EnvWindow, s)
		}
		o.ReconnectWindow = d
	}
	if s := os.Getenv(EnvDeadline); s != "" {
		d, err := time.ParseDuration(s)
		if err != nil || d <= 0 {
			return Options{}, fmt.Errorf("transport: bad %s=%q", EnvDeadline, s)
		}
		o.Deadline = d
	}
	o.Faults = os.Getenv(EnvFaults)
	if s := os.Getenv(EnvCompress); s != "" {
		on, err := strconv.ParseBool(s)
		if err != nil {
			return Options{}, fmt.Errorf("transport: bad %s=%q: %v", EnvCompress, s, err)
		}
		o.Compress = on
	}
	return o, nil
}

// TCPConfig applies the options to one rank's world attachment. Faults has
// no TCPConfig field — the caller wires the injector (TCPConfig.WrapConn).
func (o Options) TCPConfig(addr string, rank, size int) TCPConfig {
	return TCPConfig{
		Addr: addr, Rank: rank, Size: size,
		Deadline:        o.Deadline,
		Policy:          o.Policy,
		ReconnectWindow: o.ReconnectWindow,
		Compress:        o.Compress,
	}
}
