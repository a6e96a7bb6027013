package main

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"liveupdate"
)

func TestParseFlagsExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want int
	}{
		{"removed sync-mode flag", []string{"-sync-mode", "async"}, 2},
		{"no requests", []string{"-requests", "0"}, 1},
		{"server and client", []string{"-listen", "a", "-connect", "b"}, 1},
		{"unknown topology", []string{"-topology", "mesh"}, 2},
		{"compression past 9", []string{"-compress", "10"}, 2},
		{"valid fleet", []string{"-replicas", "4", "-router", "hash", "-sync", "2s",
			"-topology", "tree", "-delta", "-compress", "6", "-concurrency", "4", "-batch", "8",
			"-chaos", "@1s kill 1; @2s replace 1"}, 0},
	}
	for _, tc := range cases {
		var stderr bytes.Buffer
		f, code := parseFlags(tc.args, &stderr)
		if code != tc.want {
			t.Fatalf("%s: exit %d, want %d (stderr %q)", tc.name, code, tc.want, stderr.String())
		}
		if (f != nil) != (tc.want == 0) {
			t.Fatalf("%s: flags %v with exit %d", tc.name, f, code)
		}
		if code != 0 && !strings.Contains(stderr.String(), tc.args[0]) {
			t.Fatalf("%s: exit %d without naming %s: %q", tc.name, code, tc.args[0], stderr.String())
		}
		if f != nil && (f.replicas != 4 || f.router != "hash" || f.syncEvery != 2*time.Second ||
			f.topology != "tree" || !f.deltaSync || f.compress != 6 || len(f.chaos) != 2) {
			t.Fatalf("%s: parsed %+v", tc.name, f)
		}
	}
}

// TestWireTotalLine pins the wire-total line byte for byte: the wire-smoke
// and fault-smoke CI jobs awk-parse its shed= and gaveup= fields.
func TestWireTotalLine(t *testing.T) {
	eps := []liveupdate.EndpointStats{{Endpoint: "/serve", Accepted: 3, Shed: 1}, {Endpoint: "/serve.bin", Accepted: 40, Shed: 5}}
	const want = "wire-total: accepted=43 shed=6 client-retries=7 transport-retries=2 gaveup=0 retry-wait=13ms"
	if got := wireTotal(eps, 7, 2, 0, 12600*time.Microsecond); got != want {
		t.Fatalf("wire-total line:\n got %q\nwant %q", got, want)
	}
}
