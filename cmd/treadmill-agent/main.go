// Command treadmill-agent is the worker side of a distributed load-
// generation fleet. It dials a treadmill coordinator (started with
// -fleet), answers the clock-calibration probes, and then executes
// whatever load cells the coordinator assigns: for each run it opens its
// own connections to the system under test, drives its 1/N slice of the
// aggregate rate with the precisely-timed open-loop generator, records
// RTTs into a histogram with the coordinator-agreed bounds, and ships the
// snapshot back. Many agents on separate machines give the paper's
// many-low-rate-clients configuration without client-side queueing bias.
//
// Usage:
//
//	treadmill-agent -coordinator host:9200 [-name lg-03] [-redial 1s]
//	                [-journal agent.jsonl] [-trace traces.jsonl]
//	                [-trace-sample 1000] [-slippage-alert 1ms]
//	                [-telemetry-addr 127.0.0.1:9151]
//
// Observability flags are the agent subset of the shared set
// (obs.Flags.RegisterAgent): same names and semantics as
// treadmill's, minus -anatomy (anatomy aggregation lives with the
// coordinator's measurement loop).
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"treadmill/internal/fleet"
	"treadmill/internal/obs"
	"treadmill/internal/telemetry"
)

type options struct {
	coordinator string
	name        string
	redial      time.Duration
	obs         obs.Flags
}

func main() {
	var o options
	flag.StringVar(&o.coordinator, "coordinator", "", "coordinator address (required)")
	flag.StringVar(&o.name, "name", "", "agent name, unique per fleet (default: hostname-pid)")
	flag.DurationVar(&o.redial, "redial", 0, "keep redialing the coordinator at this interval after a lost connection (0 = exit on loss)")
	o.obs.RegisterAgent(flag.CommandLine)
	flag.Parse()

	if o.coordinator == "" {
		fmt.Fprintln(os.Stderr, "treadmill-agent: -coordinator is required")
		flag.Usage()
		os.Exit(2)
	}
	if o.name == "" {
		host, err := os.Hostname()
		if err != nil {
			host = "agent"
		}
		o.name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o); err != nil {
		log.Fatal(err)
	}
}

func run(ctx context.Context, o options) (err error) {
	reg := telemetry.New()
	obs, err := o.obs.Open(reg)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := obs.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	defer func() {
		line, werr := obs.WriteTraceFile(o.obs.Trace)
		if line != "" {
			fmt.Println(line)
		}
		if werr != nil && err == nil {
			err = werr
		}
	}()
	if line := obs.ServingLine(); line != "" {
		fmt.Println(line)
	}

	ag, err := fleet.NewAgent(fleet.AgentConfig{
		Name: o.name,
		Runner: fleet.RunnerMux{
			fleet.TCPLoadKind: &fleet.TCPLoadRunner{
				Telemetry:     reg,
				Tracer:        obs.Tracer,
				SlippageAlert: o.obs.SlippageAlert,
			},
		},
		Journal: obs.Journal,
		Metrics: reg,
	})
	if err != nil {
		return err
	}

	for {
		fmt.Printf("agent %q: dialing coordinator %s\n", o.name, o.coordinator)
		err := ag.Dial(ctx, o.coordinator)
		switch {
		case err == nil:
			// Stop or Drain: a clean, coordinator-initiated exit.
			fmt.Printf("agent %q: coordinator released the fleet\n", o.name)
			return nil
		case ctx.Err() != nil:
			fmt.Printf("agent %q: interrupted\n", o.name)
			return nil
		case o.redial > 0:
			// A lost coordinator with -redial set: keep trying, so a
			// mid-campaign reconnect can resume the idempotent cells.
			log.Printf("agent %q: %v; redialing in %v", o.name, err, o.redial)
			select {
			case <-time.After(o.redial):
			case <-ctx.Done():
				return nil
			}
		default:
			return err
		}
	}
}
