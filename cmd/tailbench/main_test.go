package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"treadmill/internal/experiments"
	"treadmill/internal/telemetry"
)

// runCLI drives run() the way main does and captures both streams.
func runCLI(args ...string) (code int, stdout, stderr string) {
	var out, errw bytes.Buffer
	code = run(args, &out, &errw)
	return code, out.String(), errw.String()
}

// TestEveryRegisteredNameResolves walks the table: names are unique, every
// row is either a leaf or a group, and every name resolves to leaves.
func TestEveryRegisteredNameResolves(t *testing.T) {
	seen := map[string]bool{}
	for _, tg := range targets {
		if seen[tg.name] {
			t.Errorf("target %q registered twice", tg.name)
		}
		seen[tg.name] = true
		if tg.blurb == "" {
			t.Errorf("target %q has no blurb", tg.name)
		}
		if (tg.run == nil) == (len(tg.members) == 0) {
			t.Errorf("target %q must be exactly one of leaf (run) or group (members)", tg.name)
		}
		leaves, err := resolve([]string{tg.name})
		if err != nil {
			t.Errorf("resolve(%q): %v", tg.name, err)
			continue
		}
		if len(leaves) == 0 {
			t.Errorf("resolve(%q) is empty", tg.name)
		}
		for _, leaf := range leaves {
			if leaf.run == nil {
				t.Errorf("resolve(%q) left group %q unexpanded", tg.name, leaf.name)
			}
		}
	}
}

// TestGroupsExpandToDeterministicLeaves pins the group contract: "all" and
// "attribution" expand, recursively, to registered deterministic leaves —
// the nested-group regression that made `tailbench all` exit 2.
func TestGroupsExpandToDeterministicLeaves(t *testing.T) {
	names := func(leaves []*target) map[string]bool {
		out := map[string]bool{}
		for _, l := range leaves {
			out[l.name] = true
		}
		return out
	}
	for _, group := range []string{"all", "attribution"} {
		leaves, err := resolve([]string{group})
		if err != nil {
			t.Fatalf("resolve(%q): %v", group, err)
		}
		for _, l := range leaves {
			if l.run == nil || l.wallClock {
				t.Errorf("%s expands to %q (group=%v wallClock=%v)", group, l.name, l.run == nil, l.wallClock)
			}
		}
	}
	all, _ := resolve([]string{"all"})
	attr, _ := resolve([]string{"attribution"})
	allNames := names(all)
	for name := range names(attr) {
		if !allNames[name] {
			t.Errorf("all does not reach %q through the attribution group", name)
		}
	}
	for _, excluded := range []string{"baseline", "gate"} {
		if allNames[excluded] {
			t.Errorf("all includes %q, which reads and writes repo files", excluded)
		}
	}
}

// TestUnknownNameExitsBeforeAnythingRuns: validation is up front, so a typo
// after a valid name costs nothing and prints nothing to stdout.
func TestUnknownNameExitsBeforeAnythingRuns(t *testing.T) {
	for _, args := range [][]string{
		{"table1", "nosuch"},
		{"-scale", "huge", "table1"},
		{},
	} {
		code, stdout, stderr := runCLI(args...)
		if code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if stdout != "" {
			t.Errorf("%v: printed to stdout before failing validation:\n%s", args, stdout)
		}
		if stderr == "" {
			t.Errorf("%v: no diagnostic", args)
		}
	}
}

// TestStaticTargetsRender runs the three simulator-free targets end to end
// in both output formats.
func TestStaticTargetsRender(t *testing.T) {
	for _, format := range [][]string{nil, {"-csv"}} {
		code, stdout, stderr := runCLI(append(format, "table1", "table2", "table3")...)
		if code != 0 {
			t.Fatalf("%v: exit %d: %s", format, code, stderr)
		}
		for _, title := range []string{"Table I:", "Table II:", "Table III:"} {
			if !strings.Contains(stdout, title) {
				t.Errorf("%v: output lacks %q", format, title)
			}
		}
		if len(strings.Split(strings.TrimSpace(stdout), "\n")) < 12 {
			t.Errorf("%v: suspiciously short output:\n%s", format, stdout)
		}
	}
}

// TestUsageIsGeneratedFromTheTable: every registered name appears in -h.
func TestUsageIsGeneratedFromTheTable(t *testing.T) {
	code, _, stderr := runCLI("-h")
	if code != 0 {
		t.Fatalf("-h exit %d", code)
	}
	for _, tg := range targets {
		if !strings.Contains(stderr, " "+tg.name+" ") {
			t.Errorf("usage does not list %q", tg.name)
		}
	}
	var o options
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	o.register(fs)
	fs.VisitAll(func(f *flag.Flag) {
		if !strings.Contains(stderr, "-"+f.Name) {
			t.Errorf("usage does not list flag -%s", f.Name)
		}
	})
}

// TestAttributionTargetsShareOneCampaign runs four memcached views at a
// tiny scale: one campaign feeds them all, and mcrouter never runs.
func TestAttributionTargetsShareOneCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a (tiny) factorial campaign")
	}
	leaves, err := resolve([]string{"table4", "fig7", "fig8", "anatomy"})
	if err != nil {
		t.Fatal(err)
	}
	var out, errw bytes.Buffer
	e := &env{
		ctx:  context.Background(),
		opts: &options{},
		scale: experiments.Scale{
			Name: "tiny", Duration: 0.02, Warmup: 0.005,
			Replicates: 2, Bootstrap: 20, Seed: 1,
		},
		stdout:    &out,
		stderr:    &errw,
		campaigns: map[string]*experiments.Attribution{},
	}
	if err := e.runAll(leaves); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(errw.String(), "running memcached attribution campaign"); n != 1 {
		t.Errorf("memcached campaign ran %d times, want 1:\n%s", n, errw.String())
	}
	if strings.Contains(errw.String(), "mcrouter") {
		t.Errorf("mcrouter campaign ran for memcached-only targets:\n%s", errw.String())
	}
	if len(e.campaigns) != 1 || e.campaigns["memcached"] == nil {
		t.Errorf("campaign cache holds %d campaigns, want memcached only", len(e.campaigns))
	}
	for _, title := range []string{"Table IV:", "Fig 7/9:", "Fig 8/10:", "Tail anatomy per configuration"} {
		if !strings.Contains(out.String(), title) {
			t.Errorf("output lacks a %q table", title)
		}
	}
}

// TestEveryExitPathClosesTheJournal registers a target that journals a note
// and then fails in each of the ways run() distinguishes (a gate BLOCK is an
// ordinary failure). Whatever the exit status, the note must be on disk and
// the journal closed.
func TestEveryExitPathClosesTheJournal(t *testing.T) {
	cases := []struct {
		name       string
		err        error
		code       int
		wantStderr string
	}{
		{"failure", errors.New("boom"), 1, "tailbench: boom"},
		{"interrupt", context.Canceled, 130, "tailbench: interrupted"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var journal *telemetry.Journal
			targets = append(targets, target{name: "failing", blurb: "test", run: func(e *env) error {
				journal = e.obs.Journal
				if err := journal.Note("before failure", nil); err != nil {
					return err
				}
				return tc.err
			}})
			t.Cleanup(func() { targets = targets[:len(targets)-1] })

			path := filepath.Join(t.TempDir(), "run.jsonl")
			code, stdout, stderr := runCLI("-journal", path, "table1", "failing")
			if code != tc.code {
				t.Fatalf("exit %d, want %d (stderr %q)", code, tc.code, stderr)
			}
			if !strings.Contains(stdout, "Table I:") {
				t.Error("the target before the failing one did not render")
			}
			if !strings.Contains(stderr, tc.wantStderr) {
				t.Errorf("stderr %q lacks %q", stderr, tc.wantStderr)
			}
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			events, err := telemetry.ReadJournal(f)
			if err != nil {
				t.Fatalf("journal does not read back: %v", err)
			}
			if len(events) != 1 || events[0].Note != "before failure" {
				t.Fatalf("journal events = %+v", events)
			}
			if err := journal.Note("after run returned", nil); err == nil {
				t.Error("journal still accepts writes: run() returned without closing it")
			}
		})
	}
}
