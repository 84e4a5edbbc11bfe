package transport

import (
	"os"
	"strings"
	"testing"
	"time"
)

// Options.Env and OptionsFromEnv are the single encode/decode pair for every
// world-wide setting a launcher forwards to its workers. These tests pin the
// round trip for every MIMIR_* variable and — just as important — that every
// invalid value is a hard error: a typo'd MIMIR_TCP_WINDOW must kill the
// launch, not silently fall back to the default and mask a misconfigured
// fault-tolerance window.

// allOptionEnvVars is every variable the codec owns. Keep in sync with the
// Env consts in spawn.go (EnvJoin/EnvRank/EnvSize/EnvEpoch belong to
// FromEnv's world-attachment layer, tested separately below).
var allOptionEnvVars = []string{EnvPolicy, EnvWindow, EnvDeadline, EnvFaults, EnvCompress}

func clearOptionEnv(t *testing.T) {
	t.Helper()
	for _, k := range allOptionEnvVars {
		t.Setenv(k, "")
		os.Unsetenv(k)
	}
}

func setEnvList(t *testing.T, kvs []string) {
	t.Helper()
	for _, kv := range kvs {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			t.Fatalf("Env produced entry without '=': %q", kv)
		}
		t.Setenv(k, v)
	}
}

func TestOptionsEnvRoundTrip(t *testing.T) {
	cases := []Options{
		{}, // zero options encode to nothing and decode to zero
		{Policy: RetryTransient},
		{ReconnectWindow: 1500 * time.Millisecond},
		{Deadline: 2 * time.Second},
		{Faults: "seed:42,kill:rank2@round3"},
		{Compress: true},
		{ // everything at once
			Policy:          RetryTransient,
			ReconnectWindow: 750 * time.Millisecond,
			Deadline:        3 * time.Second,
			Faults:          "seed:7,reset:rank1@frame5",
			Compress:        true,
		},
	}
	for i, want := range cases {
		clearOptionEnv(t)
		env := want.Env()
		if i == 0 && len(env) != 0 {
			t.Fatalf("zero Options encoded to %v, want empty", env)
		}
		setEnvList(t, env)
		got, err := OptionsFromEnv()
		if err != nil {
			t.Fatalf("case %d: decode of %v: %v", i, env, err)
		}
		if got != want {
			t.Fatalf("case %d: round trip %v -> %+v, want %+v", i, env, got, want)
		}
	}
}

func TestOptionsFromEnvRejectsInvalidValues(t *testing.T) {
	cases := []struct{ key, val string }{
		{EnvPolicy, "bogus"},
		{EnvPolicy, "RETRY"}, // spelling is exact; a near-miss must not fall back to abort
		{EnvWindow, "nonsense"},
		{EnvWindow, "-5s"}, // negative window would disarm fault tolerance
		{EnvWindow, "0s"},
		{EnvWindow, "10"}, // bare number is not a Go duration
		{EnvDeadline, "soon"},
		{EnvDeadline, "-1s"},
		{EnvDeadline, "0"},
		{EnvCompress, "maybe"},
		{EnvCompress, "2"},
	}
	for _, tc := range cases {
		clearOptionEnv(t)
		t.Setenv(tc.key, tc.val)
		if _, err := OptionsFromEnv(); err == nil {
			t.Errorf("%s=%q decoded without error; want a hard failure, not a silent default", tc.key, tc.val)
		} else if !strings.Contains(err.Error(), tc.key) {
			t.Errorf("%s=%q error %q does not name the variable", tc.key, tc.val, err)
		}
	}
}

func TestFromEnvWorldAttachment(t *testing.T) {
	clearOptionEnv(t)
	for _, k := range []string{EnvJoin, EnvRank, EnvSize, EnvEpoch} {
		t.Setenv(k, "")
		os.Unsetenv(k)
	}
	// Not launched as a worker: ok=false, no error.
	if _, ok, err := FromEnv(); ok || err != nil {
		t.Fatalf("FromEnv with no environment: ok=%v err=%v, want false,nil", ok, err)
	}
	// Full attachment round-trips, epoch included.
	t.Setenv(EnvJoin, "127.0.0.1:7007")
	t.Setenv(EnvRank, "2")
	t.Setenv(EnvSize, "4")
	t.Setenv(EnvEpoch, "9")
	t.Setenv(EnvWindow, "2s")
	cfg, ok, err := FromEnv()
	if !ok || err != nil {
		t.Fatalf("FromEnv: ok=%v err=%v", ok, err)
	}
	if cfg.Addr != "127.0.0.1:7007" || cfg.Rank != 2 || cfg.Size != 4 || cfg.Epoch != 9 || cfg.ReconnectWindow != 2*time.Second {
		t.Fatalf("FromEnv decoded %+v", cfg)
	}
	// Invalid attachment values are hard errors with ok=true (the process
	// WAS launched as a worker; it must die loudly, not run standalone).
	for _, tc := range []struct{ key, val string }{
		{EnvRank, "two"},
		{EnvSize, ""},
		{EnvEpoch, "-1"},
		{EnvEpoch, "latest"},
		{EnvWindow, "bad"}, // Options errors propagate through FromEnv too
	} {
		t.Setenv(EnvRank, "2")
		t.Setenv(EnvSize, "4")
		t.Setenv(EnvEpoch, "9")
		t.Setenv(EnvWindow, "2s")
		t.Setenv(tc.key, tc.val)
		if tc.val == "" {
			os.Setenv(tc.key, "")
		}
		if _, ok, err := FromEnv(); !ok || err == nil {
			t.Errorf("%s=%q: ok=%v err=%v, want true,error", tc.key, tc.val, ok, err)
		}
	}
}
