package treadmill

import (
	"errors"
	"os/exec"
	"strings"
	"testing"
)

// TestMeasuringPackagesLinkNoHTTP keeps the HTTP stack out of the
// instrument. The live /metrics endpoint lives in internal/obs, which only
// the commands import; a measuring library that linked it would map
// megabytes of server code into every process that generates load or
// simulates, the benchmark among them. go list needs no network here: the
// module has no requirements.
func TestMeasuringPackagesLinkNoHTTP(t *testing.T) {
	pkgs := []string{
		"./bench",
		"./internal/telemetry",
		"./internal/loadgen",
		"./internal/loadplane",
		"./internal/client",
		"./internal/server",
		"./internal/sim",
		"./internal/runner",
	}
	forbidden := map[string]bool{"net/http": true, "net/http/pprof": true, "expvar": true, "crypto/tls": true}
	// .Deps is each package's transitive import set, what go list -deps prints.
	args := append([]string{"list", "-f", "{{.ImportPath}} {{join .Deps \" \"}}"}, pkgs...)
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			t.Fatalf("go list: %v\n%s", err, ee.Stderr)
		}
		t.Fatalf("go list: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != len(pkgs) {
		t.Fatalf("go list printed %d packages, want %d:\n%s", len(lines), len(pkgs), out)
	}
	for _, line := range lines {
		fields := strings.Fields(line)
		for _, dep := range fields[1:] {
			if forbidden[dep] {
				t.Errorf("%s links %s", fields[0], dep)
			}
		}
	}
}
