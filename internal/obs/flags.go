package obs

import (
	"flag"
	"fmt"
	"os"
	"time"

	"treadmill/internal/telemetry"
)

// Flags groups the observability command-line flags shared by the CLIs
// so cmd/treadmill and cmd/tailbench register identical names, defaults,
// and help text instead of drifting apart.
type Flags struct {
	// Journal is the -journal path (structured JSONL run journal).
	Journal string
	// Trace / TraceSample are -trace and -trace-sample (per-request
	// lifecycle sampling; TCP path only).
	Trace       string
	TraceSample int
	// SlippageAlert is -slippage-alert (send-slippage self-audit
	// threshold; TCP path only).
	SlippageAlert time.Duration
	// Addr is -telemetry-addr (live exposition endpoint).
	Addr string
	// Anatomy is the -anatomy export path: tail-vs-body phase breakdowns
	// as JSONL (.jsonl/.json) or long-form CSV (anything else).
	Anatomy string
	// Flight is the -flight output path: record a campaign flight
	// timeline (fleet coordinator runs and the tailbench timeline target)
	// and write it as Chrome trace-event JSON, loadable in Perfetto.
	Flight string
}

// registerCommon installs the flags every binary shares: the run journal
// and the live exposition endpoint. The three public Register variants all
// build on these private groups so coordinator, agent, and simulator CLIs
// register identical names, defaults, and help text without drift.
func (o *Flags) registerCommon(fs *flag.FlagSet) {
	fs.StringVar(&o.Journal, "journal", "", "append structured JSONL run-journal events to this file")
	fs.StringVar(&o.Addr, "telemetry-addr", "", "serve live /metrics, /debug/vars, and /debug/pprof on this address")
}

// registerTCP installs the flags meaningful only on the real-TCP load
// path: per-request trace sampling and the send-slippage self-audit.
func (o *Flags) registerTCP(fs *flag.FlagSet) {
	fs.StringVar(&o.Trace, "trace", "", "write sampled per-request trace records (JSONL) to this file")
	fs.IntVar(&o.TraceSample, "trace-sample", 1000, "trace 1 in N requests when -trace is set")
	fs.DurationVar(&o.SlippageAlert, "slippage-alert", telemetry.DefaultSlippageThreshold, "send-slippage alert threshold for the self-audit")
}

// registerAnatomy installs the tail-anatomy export flag (meaningful where
// the measurement loop runs, not on fleet agents — per-request phase
// vectors stay agent-local in a fleet).
func (o *Flags) registerAnatomy(fs *flag.FlagSet) {
	fs.StringVar(&o.Anatomy, "anatomy", "", "collect tail-vs-body phase anatomy and export breakdowns to this file (JSONL or CSV by extension)")
}

// registerFlight installs the flight-recorder export flag (meaningful
// where a campaign timeline is recorded: the fleet coordinator and the
// tailbench timeline target, not fleet agents — their flights ship to the
// coordinator over the wire).
func (o *Flags) registerFlight(fs *flag.FlagSet) {
	fs.StringVar(&o.Flight, "flight", "", "record the campaign flight timeline and write Chrome trace-event JSON (Perfetto-loadable) to this file")
}

// RegisterSim installs the flags meaningful for simulated experiments
// (-journal, -telemetry-addr, -anatomy, -flight) on fs.
func (o *Flags) RegisterSim(fs *flag.FlagSet) {
	o.registerCommon(fs)
	o.registerAnatomy(fs)
	o.registerFlight(fs)
}

// Register installs the full observability flag set on fs: everything
// RegisterSim covers plus the TCP-path tracing and slippage flags.
func (o *Flags) Register(fs *flag.FlagSet) {
	o.registerCommon(fs)
	o.registerAnatomy(fs)
	o.registerFlight(fs)
	o.registerTCP(fs)
}

// RegisterAgent installs the flag set for a fleet agent: the common and
// TCP-path groups but no -anatomy (anatomy aggregation lives with the
// coordinator's measurement loop, which a fleet campaign does not run
// agent-side).
func (o *Flags) RegisterAgent(fs *flag.FlagSet) {
	o.registerCommon(fs)
	o.registerTCP(fs)
}

// AnatomyEnabled reports whether -anatomy was set.
func (o *Flags) AnatomyEnabled() bool { return o.Anatomy != "" }

// Observability holds the live handles Open built from the flags. Fields
// for features that were not requested stay nil (all consumers are
// nil-safe).
type Observability struct {
	Registry *telemetry.Registry
	Journal  *telemetry.Journal
	Tracer   *telemetry.Tracer
	Server   *HTTPServer
}

// Open builds the journal, tracer, and exposition server the flags
// request, sharing reg (which must be non-nil when Addr is set). On error
// everything already opened is closed.
func (o *Flags) Open(reg *telemetry.Registry) (*Observability, error) {
	obs := &Observability{Registry: reg}
	if o.Journal != "" {
		j, err := telemetry.OpenJournal(o.Journal)
		if err != nil {
			return nil, err
		}
		obs.Journal = j
	}
	if o.Trace != "" {
		t, err := telemetry.NewTracer(o.TraceSample, telemetry.DefaultTraceBuffer)
		if err != nil {
			obs.Close()
			return nil, err
		}
		t.ExposeOn(reg)
		obs.Tracer = t
	}
	if o.Addr != "" {
		srv, err := Serve(reg, o.Addr)
		if err != nil {
			obs.Close()
			return nil, err
		}
		obs.Server = srv
	}
	return obs, nil
}

// Close shuts the exposition server down and closes the journal (syncing
// it). Trace records are left in the tracer for the caller to write out.
func (obs *Observability) Close() error {
	if obs == nil {
		return nil
	}
	var first error
	if obs.Server != nil {
		if err := obs.Server.Close(); err != nil {
			first = err
		}
		obs.Server = nil
	}
	if obs.Journal != nil {
		if err := obs.Journal.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// WriteTraceFile flushes the sampled trace buffer to path and returns a
// human-readable accounting line (including the drop count, so trace loss
// is never silent). It is the shared export step every binary's shutdown
// runs; a nil tracer or empty path is a no-op ("", nil).
func (obs *Observability) WriteTraceFile(path string) (string, error) {
	if obs == nil || obs.Tracer == nil || path == "" {
		return "", nil
	}
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	if err := obs.Tracer.WriteJSONL(f); err != nil {
		f.Close()
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return fmt.Sprintf("traces: wrote %d sampled records to %s (%d dropped)",
		obs.Tracer.Len(), path, obs.Tracer.Dropped()), nil
}

// ServingLine returns the human-readable exposition banner, or "" when no
// endpoint was requested.
func (obs *Observability) ServingLine() string {
	if obs == nil || obs.Server == nil {
		return ""
	}
	return fmt.Sprintf("telemetry: serving /metrics, /debug/vars, /debug/pprof on http://%s", obs.Server.Addr())
}
