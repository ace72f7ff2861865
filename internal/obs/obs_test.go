package obs

import (
	"encoding/json"
	"errors"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"treadmill/internal/telemetry"
)

func TestServeMetricsEndpoint(t *testing.T) {
	reg := telemetry.New()
	reg.Counter("serve.test").Add(42)
	srv, err := Serve(reg, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap telemetry.MetricsSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["serve.test"] != 42 {
		t.Errorf("metrics endpoint returned %+v", snap)
	}
	vars, err := http.Get("http://" + srv.Addr() + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	vars.Body.Close()
	if vars.StatusCode != http.StatusOK {
		t.Errorf("expvar endpoint status %d", vars.StatusCode)
	}
	pp, err := http.Get("http://" + srv.Addr() + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	pp.Body.Close()
	if pp.StatusCode != http.StatusOK {
		t.Errorf("pprof endpoint status %d", pp.StatusCode)
	}
}

// TestCloseStopsEndpointAndJournal opens what -journal and -telemetry-addr
// ask for and checks that Close takes both down: the endpoint refuses a
// later request, and the journal keeps what was written before and
// accepts nothing after.
func TestCloseStopsEndpointAndJournal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	flags := Flags{Journal: path, Addr: "127.0.0.1:0"}
	o, err := flags.Open(telemetry.New())
	if err != nil {
		t.Fatal(err)
	}
	url := "http://" + o.Server.Addr() + "/metrics"
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if err := o.Journal.Note("before close", nil); err != nil {
		t.Fatal(err)
	}
	if err := o.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if resp, err := http.Get(url); err == nil {
		resp.Body.Close()
		t.Errorf("GET %s after Close answered %s, want an error", url, resp.Status)
	}
	if o.ServingLine() != "" {
		t.Errorf("ServingLine after Close = %q, want empty", o.ServingLine())
	}
	if err := o.Journal.Note("after close", nil); !errors.Is(err, os.ErrClosed) {
		t.Errorf("Note after Close = %v, want %v", err, os.ErrClosed)
	}
	events, err := telemetry.ReadJournalFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Note != "before close" {
		t.Errorf("journal holds %+v, want the one note written before Close", events)
	}
}

func TestServingLine(t *testing.T) {
	o, err := new(Flags).Open(telemetry.New())
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if line := o.ServingLine(); line != "" {
		t.Errorf("ServingLine without -telemetry-addr = %q, want empty", line)
	}

	o, err = (&Flags{Addr: "127.0.0.1:0"}).Open(telemetry.New())
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	if line := o.ServingLine(); !strings.HasSuffix(line, "http://"+o.Server.Addr()) {
		t.Errorf("ServingLine = %q, want it to end in the bound address %s", line, o.Server.Addr())
	}
}
