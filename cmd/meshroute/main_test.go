package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Table-driven flag-parsing and smoke tests: each case runs the full
// command body on a small mesh and checks the exit code and a few
// output markers.
func TestRun(t *testing.T) {
	cases := []struct {
		name       string
		args       []string
		exit       int
		wantOut    []string // substrings expected on stdout
		wantErrOut []string // substrings expected on stderr
	}{
		{
			name: "permutation smoke",
			args: []string{"-d", "2", "-side", "8", "-seed", "1"},
			exit: 0,
			wantOut: []string{
				"mesh 8x8", "workload=random-permutation", "algo=H",
				"congestion C", "dilation D", "lower bound on C*",
			},
		},
		{
			name:    "torus general with check",
			args:    []string{"-d", "2", "-side", "8", "-torus", "-algo", "H-general", "-check"},
			exit:    0,
			wantOut: []string{"torus 8x8", "invariant checks", " 0 violations"},
		},
		{
			name:    "3d check",
			args:    []string{"-d", "3", "-side", "4", "-check"},
			exit:    0,
			wantOut: []string{"mesh 4x4x4", "invariant checks", " 0 violations"},
		},
		{
			name:    "single pair with check",
			args:    []string{"-d", "2", "-side", "8", "-pair", "0,0:7,7", "-check"},
			exit:    0,
			wantOut: []string{"H path (0,0) -> (7,7)", "invariant checks  = 1 packets checked, 0 violations"},
		},
		{
			name: "segments batch with check",
			args: []string{"-d", "2", "-side", "8", "-pathfmt", "segments", "-check"},
			exit: 0,
			wantOut: []string{
				"congestion C", "path format       = segments (", "hops/run",
				"invariant checks", " 0 violations",
			},
		},
		{
			name:    "segments single pair with check",
			args:    []string{"-d", "2", "-side", "8", "-pair", "0,0:7,7", "-pathfmt", "segments", "-check"},
			exit:    0,
			wantOut: []string{"H segments (0,0) -> (7,7)", "dim ", "invariant checks  = 1 packets checked, 0 violations"},
		},
		{
			name:    "segments heatmap and simulate",
			args:    []string{"-d", "2", "-side", "8", "-pathfmt", "segments", "-heatmap", "-simulate"},
			exit:    0,
			wantOut: []string{"edge-load heatmap", "makespan"},
		},
		{
			name:    "live streaming with check",
			args:    []string{"-d", "2", "-side", "8", "-live", "-workers", "2", "-check"},
			exit:    0,
			wantOut: []string{"live:", "live congestion", "matches batch recount", " 0 violations"},
		},
		{
			name:    "ksample live with check",
			args:    []string{"-d", "2", "-side", "8", "-live", "-ksample", "4", "-check"},
			exit:    0,
			wantOut: []string{"ksample: k=4", "redraw-wins", "live congestion", " 0 violations"},
		},
		{
			name:    "ksample live on explicit table backend",
			args:    []string{"-d", "2", "-side", "8", "-live", "-ksample", "2", "-chainsource", "table", "-check"},
			exit:    0,
			wantOut: []string{"ksample: k=2", " 0 violations"},
		},
		{
			name:    "ksample live on uncached backend",
			args:    []string{"-d", "2", "-side", "8", "-live", "-ksample", "2", "-chainsource", "none", "-check"},
			exit:    0,
			wantOut: []string{"ksample: k=2", " 0 violations"},
		},
		{
			name:    "simulate",
			args:    []string{"-d", "2", "-side", "8", "-simulate", "-delay", "2"},
			exit:    0,
			wantOut: []string{"makespan", "avg latency"},
		},
		{
			name:    "heatmap",
			args:    []string{"-d", "2", "-side", "8", "-heatmap"},
			exit:    0,
			wantOut: []string{"edge-load heatmap"},
		},
		{
			name:    "offline baseline",
			args:    []string{"-d", "2", "-side", "8", "-algo", "offline"},
			exit:    0,
			wantOut: []string{"algo=offline (non-oblivious)", "congestion C"},
		},
		{
			name:    "adaptive hop-by-hop",
			args:    []string{"-d", "2", "-side", "8", "-algo", "adaptive"},
			exit:    0,
			wantOut: []string{"algo=adaptive", "makespan", "total hops"},
		},
		{
			name:    "hot-potato hop-by-hop",
			args:    []string{"-d", "2", "-side", "8", "-algo", "hot-potato"},
			exit:    0,
			wantOut: []string{"algo=hot-potato", "deflections"},
		},
		{
			name:    "adversarial workload",
			args:    []string{"-d", "2", "-side", "8", "-workload", "adversarial", "-l", "2", "-check"},
			exit:    0,
			wantOut: []string{"adversarial pinned edge", " 0 violations"},
		},
		{
			name:    "route table stats line",
			args:    []string{"-d", "2", "-side", "8", "-check"},
			exit:    0,
			wantOut: []string{"route table       = ", "cells", " 0 violations"},
		},
		{
			name: "chainsource none ablation",
			args: []string{"-d", "2", "-side", "8", "-chainsource", "none", "-check"},
			exit: 0,
			wantOut: []string{
				"congestion C", " 0 violations",
			},
		},
		{
			name:       "removed chainsource cache",
			args:       []string{"-d", "2", "-side", "8", "-chainsource", "cache"},
			exit:       2,
			wantErrOut: []string{`-chainsource: chain source "cache" was removed`},
		},
		{
			name:       "removed nochaincache flag",
			args:       []string{"-d", "2", "-side", "8", "-nochaincache"},
			exit:       2,
			wantErrOut: []string{"flag provided but not defined: -nochaincache"},
		},
		{
			name:       "unknown flag",
			args:       []string{"-no-such-flag"},
			exit:       2,
			wantErrOut: []string{"flag provided but not defined"},
		},
		{
			name:       "stray positional argument",
			args:       []string{"-side", "8", "stray"},
			exit:       2,
			wantErrOut: []string{"unexpected arguments"},
		},
		{
			name:       "zero dimension",
			args:       []string{"-d", "0", "-side", "8"},
			exit:       2,
			wantErrOut: []string{"-d must be >= 1"},
		},
		{
			name:       "negative dimension",
			args:       []string{"-d", "-2"},
			exit:       2,
			wantErrOut: []string{"-d must be >= 1"},
		},
		{
			name:       "zero side",
			args:       []string{"-side", "0"},
			exit:       2,
			wantErrOut: []string{"-side must be >= 1"},
		},
		{
			name:       "negative delay",
			args:       []string{"-side", "8", "-delay", "-1"},
			exit:       2,
			wantErrOut: []string{"-delay must be >= 0"},
		},
		{
			name:       "zero block side",
			args:       []string{"-side", "8", "-l", "0"},
			exit:       2,
			wantErrOut: []string{"-l must be >= 1"},
		},
		{
			name:       "negative workers",
			args:       []string{"-side", "8", "-workers", "-4"},
			exit:       2,
			wantErrOut: []string{"-workers must be >= 0"},
		},
		{
			name:       "bad pathfmt",
			args:       []string{"-side", "8", "-pathfmt", "runs"},
			exit:       2,
			wantErrOut: []string{`-pathfmt must be "hops" or "segments" (got "runs")`},
		},
		{
			name:       "segments rejects live",
			args:       []string{"-side", "8", "-pathfmt", "segments", "-live"},
			exit:       2,
			wantErrOut: []string{"-live streams hop paths"},
		},
		{
			name:       "segments rejects plain baselines",
			args:       []string{"-side", "8", "-algo", "dim-order", "-pathfmt", "segments"},
			exit:       1,
			wantErrOut: []string{"-pathfmt segments needs a core selector"},
		},
		{
			name:       "segments rejects offline",
			args:       []string{"-side", "8", "-algo", "offline", "-pathfmt", "segments"},
			exit:       1,
			wantErrOut: []string{"-pathfmt segments"},
		},
		{
			name:       "segments rejects hop-by-hop",
			args:       []string{"-side", "8", "-algo", "adaptive", "-pathfmt", "segments"},
			exit:       1,
			wantErrOut: []string{"-pathfmt segments"},
		},
		{
			name:       "non-numeric side",
			args:       []string{"-side", "wide"},
			exit:       2,
			wantErrOut: []string{"invalid value"},
		},
		{
			name:       "unknown algorithm",
			args:       []string{"-algo", "quantum"},
			exit:       1,
			wantErrOut: []string{"quantum"},
		},
		{
			name:       "unknown workload",
			args:       []string{"-side", "8", "-workload", "nope"},
			exit:       1,
			wantErrOut: []string{"nope"},
		},
		{
			name:       "malformed pair",
			args:       []string{"-side", "8", "-pair", "0,0"},
			exit:       1,
			wantErrOut: []string{"pair"},
		},
		{
			name:       "check rejects plain baselines",
			args:       []string{"-side", "8", "-algo", "dim-order", "-check"},
			exit:       1,
			wantErrOut: []string{"-check needs a core selector"},
		},
		{
			name:       "check rejects offline",
			args:       []string{"-side", "8", "-algo", "offline", "-check"},
			exit:       1,
			wantErrOut: []string{"-check"},
		},
		{
			name:       "check rejects hop-by-hop",
			args:       []string{"-side", "8", "-algo", "adaptive", "-check"},
			exit:       1,
			wantErrOut: []string{"-check"},
		},
		{
			name:       "zero ksample",
			args:       []string{"-side", "8", "-ksample", "0"},
			exit:       2,
			wantErrOut: []string{"-ksample must be >= 1"},
		},
		{
			name:       "negative ksample",
			args:       []string{"-side", "8", "-ksample", "-3"},
			exit:       2,
			wantErrOut: []string{"-ksample must be >= 1"},
		},
		{
			name:       "ksample requires live",
			args:       []string{"-side", "8", "-ksample", "4"},
			exit:       2,
			wantErrOut: []string{"requires -live"},
		},
		{
			name:       "ksample rejects single pair",
			args:       []string{"-side", "8", "-live", "-ksample", "4", "-pair", "0,0:7,7"},
			exit:       2,
			wantErrOut: []string{"-ksample", "does not combine with -pair"},
		},
		{
			name:       "ksample rejects non-core algorithms",
			args:       []string{"-side", "8", "-live", "-ksample", "4", "-algo", "valiant"},
			exit:       1,
			wantErrOut: []string{"-ksample needs a core selector"},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			var out, errOut bytes.Buffer
			if got := run(tc.args, &out, &errOut); got != tc.exit {
				t.Fatalf("exit %d, want %d\nstdout: %s\nstderr: %s", got, tc.exit, out.String(), errOut.String())
			}
			for _, want := range tc.wantOut {
				if !strings.Contains(out.String(), want) {
					t.Errorf("stdout missing %q:\n%s", want, out.String())
				}
			}
			for _, want := range tc.wantErrOut {
				if !strings.Contains(errOut.String(), want) {
					t.Errorf("stderr missing %q:\n%s", want, errOut.String())
				}
			}
			// Validation failures are one-line diagnostics (parse
			// errors additionally print the flag package's usage).
			if tc.exit == 2 && strings.HasPrefix(errOut.String(), "meshroute: ") {
				if n := strings.Count(strings.TrimRight(errOut.String(), "\n"), "\n"); n != 0 {
					t.Errorf("validation error is %d lines, want 1:\n%s", n+1, errOut.String())
				}
			}
		})
	}
}

// The chain-memoization ablation (-chainsource none: recompute every
// chain instead of reading the compiled table) must not change the
// selected paths: both runs print identical reports, modulo the
// route-table stats line, which only the table run emits.
func TestRunCacheAblationIdenticalOutput(t *testing.T) {
	strip := func(s string) string {
		var kept []string
		for _, line := range strings.Split(s, "\n") {
			if !strings.HasPrefix(line, "route table") {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	}
	var table, none, errOut bytes.Buffer
	if got := run([]string{"-d", "2", "-side", "16", "-seed", "7"}, &table, &errOut); got != 0 {
		t.Fatalf("table run: exit %d, stderr: %s", got, errOut.String())
	}
	if got := run([]string{"-d", "2", "-side", "16", "-seed", "7", "-chainsource", "none"}, &none, &errOut); got != 0 {
		t.Fatalf("recompute run: exit %d, stderr: %s", got, errOut.String())
	}
	if strip(table.String()) != none.String() {
		t.Errorf("reports differ between table and recompute:\ntable:\n%s\nnone:\n%s",
			table.String(), none.String())
	}
	if !strings.Contains(table.String(), "route table") {
		t.Errorf("table run missing route-table stats line:\n%s", table.String())
	}
	if strings.Contains(none.String(), "route table") {
		t.Errorf("recompute run should not print route-table stats:\n%s", none.String())
	}
}

// -pathfmt segments must report exactly what -pathfmt hops reports —
// same congestion, dilation, stretch, and lower bound — differing only
// by its own "path format" line.
func TestRunPathFmtIdenticalReport(t *testing.T) {
	strip := func(s string) string {
		var kept []string
		for _, line := range strings.Split(s, "\n") {
			if !strings.HasPrefix(line, "path format") {
				kept = append(kept, line)
			}
		}
		return strings.Join(kept, "\n")
	}
	var hops, segs, errOut bytes.Buffer
	base := []string{"-d", "2", "-side", "16", "-seed", "7"}
	if got := run(base, &hops, &errOut); got != 0 {
		t.Fatalf("hops run: exit %d, stderr: %s", got, errOut.String())
	}
	if got := run(append(base, "-pathfmt", "segments"), &segs, &errOut); got != 0 {
		t.Fatalf("segments run: exit %d, stderr: %s", got, errOut.String())
	}
	if hops.String() != strip(segs.String()) {
		t.Errorf("reports differ between path formats:\nhops:\n%s\nsegments:\n%s",
			hops.String(), segs.String())
	}
	if !strings.Contains(segs.String(), "path format       = segments") {
		t.Errorf("segments run missing path-format line:\n%s", segs.String())
	}
}

// The profiling flags must produce non-empty artifact files.
func TestRunProfilingFlags(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.out")
	mem := filepath.Join(dir, "mem.out")
	trc := filepath.Join(dir, "trace.out")
	var out, errOut bytes.Buffer
	args := []string{"-d", "2", "-side", "8",
		"-cpuprofile", cpu, "-memprofile", mem, "-trace", trc}
	if got := run(args, &out, &errOut); got != 0 {
		t.Fatalf("exit %d, stderr: %s", got, errOut.String())
	}
	for _, p := range []string{cpu, mem, trc} {
		fi, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile artifact %s: %v", p, err)
			continue
		}
		if fi.Size() == 0 {
			t.Errorf("profile artifact %s is empty", p)
		}
	}
	// An unwritable profile path must fail cleanly before routing.
	bad := filepath.Join(dir, "missing", "cpu.out")
	if got := run([]string{"-side", "8", "-cpuprofile", bad}, &out, &errOut); got != 1 {
		t.Fatalf("unwritable cpuprofile: exit %d, want 1", got)
	}
}

// -save must write a loadable run file and report the destination.
func TestRunSave(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.json")
	var out, errOut bytes.Buffer
	if got := run([]string{"-d", "2", "-side", "8", "-save", path}, &out, &errOut); got != 0 {
		t.Fatalf("exit %d, stderr: %s", got, errOut.String())
	}
	if !strings.Contains(out.String(), "run saved to "+path) {
		t.Fatalf("missing save confirmation:\n%s", out.String())
	}
	if got := run([]string{"-save", filepath.Join(t.TempDir(), "missing", "run.json"), "-side", "8"}, &out, &errOut); got != 1 {
		t.Fatalf("unwritable save path: exit %d, want 1", got)
	}
}
