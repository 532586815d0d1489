package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestValidate covers every usage-error rule on parsed argv: flag
// combinations that would be silently ignored or are meaningless must
// be rejected (exit 2 in main).
func TestValidate(t *testing.T) {
	cases := []struct {
		name    string
		argv    []string
		wantErr bool
	}{
		{"defaults", []string{}, false},
		{"smp json", []string{"-exp", "smp", "-json"}, false},
		{"chaos json", []string{"-exp", "chaos", "-json"}, false},
		{"wallclock json", []string{"-exp", "wallclock", "-json"}, false},
		{"smp artifacts", []string{"-exp", "smp", "-trace-out", "t.json", "-spans-out", "s.json", "-metrics-out", "m.json"}, false},
		{"smp audit", []string{"-exp", "smp", "-audit-out", "a.log"}, false},
		{"smp baseline", []string{"-exp", "smp", "-baseline", "b.json"}, false},
		{"chaos sweep", []string{"-exp", "chaos", "-json", "-seeds", "16"}, false},
		{"parallel 8", []string{"-exp", "smp", "-json", "-parallel", "8"}, false},
		{"snapshot json", []string{"-exp", "snapshot", "-json"}, false},
		{"snapshot blob out", []string{"-exp", "snapshot", "-snap-out", "cki.snap"}, false},
		{"snapshot interval", []string{"-exp", "snapshot", "-checkpoint-interval", "5"}, false},
		{"fleet json", []string{"-exp", "fleet", "-json"}, false},
		{"fleet nodes", []string{"-exp", "fleet", "-nodes", "8"}, false},
		{"fleet sched binpack", []string{"-exp", "fleet", "-sched", "binpack"}, false},
		{"fleet sched spread", []string{"-exp", "fleet", "-sched", "spread"}, false},
		{"fleet arrival rate", []string{"-exp", "fleet", "-arrival-rate", "50000"}, false},
		{"fleet trace file", []string{"-exp", "fleet", "-trace-file", "rates.trace"}, false},
		{"fleet everything", []string{"-exp", "fleet", "-json", "-nodes", "8", "-sched", "spread", "-arrival-rate", "1000", "-parallel", "8"}, false},
		{"slo json", []string{"-exp", "slo", "-json"}, false},
		{"slo nodes", []string{"-exp", "slo", "-nodes", "10"}, false},
		{"slo scrape interval", []string{"-exp", "slo", "-scrape-interval", "250us"}, false},
		{"slo scrape interval bare ps", []string{"-exp", "slo", "-scrape-interval", "2500000"}, false},
		{"slo outputs", []string{"-exp", "slo", "-json", "-slo-out", "tl", "-bundle-out", "bd"}, false},
		{"fleet scrape interval", []string{"-exp", "fleet", "-scrape-interval", "1.5ms"}, false},
		{"fleet timeline", []string{"-exp", "fleet", "-scrape-interval", "50us", "-slo-out", "tl.ckits"}, false},
		{"tail json", []string{"-exp", "tail", "-json"}, false},
		{"tail nodes", []string{"-exp", "tail", "-nodes", "8"}, false},
		{"tail parallel", []string{"-exp", "tail", "-json", "-parallel", "8"}, false},
		{"serverless json", []string{"-exp", "serverless", "-json"}, false},
		{"serverless nodes", []string{"-exp", "serverless", "-nodes", "8"}, false},
		{"serverless fork-mode", []string{"-exp", "serverless", "-fork-mode", "lazy"}, false},
		{"serverless churn-rate", []string{"-exp", "serverless", "-churn-rate", "30000"}, false},
		{"serverless everything", []string{"-exp", "serverless", "-json", "-nodes", "8", "-fork-mode", "cow", "-churn-rate", "5000", "-parallel", "8"}, false},

		{"parallel 0", []string{"-parallel", "0"}, true},
		{"parallel negative", []string{"-parallel", "-2"}, true},
		{"seeds 0", []string{"-seeds", "0"}, true},
		{"trace-out without smp", []string{"-trace-out", "t.json"}, true},
		{"spans-out wrong exp", []string{"-exp", "chaos", "-spans-out", "s.json"}, true},
		{"metrics-out wrong exp", []string{"-exp", "fig12", "-metrics-out", "m.json"}, true},
		{"audit-out without smp", []string{"-audit-out", "a.log"}, true},
		{"baseline without smp", []string{"-exp", "chaos", "-baseline", "b.json"}, true},
		{"audit-out with prof flags", []string{"-exp", "smp", "-trace-out", "t.json", "-audit-out", "a.log"}, true},
		{"seeds without chaos", []string{"-exp", "smp", "-json", "-seeds", "4"}, true},
		{"seeds without json", []string{"-exp", "chaos", "-seeds", "4"}, true},
		{"json wrong exp", []string{"-exp", "fig12", "-json"}, true},
		{"json all experiments", []string{"-json"}, true},
		{"interval 0", []string{"-checkpoint-interval", "0", "-exp", "snapshot"}, true},
		{"interval negative", []string{"-checkpoint-interval", "-3", "-exp", "snapshot"}, true},
		{"snap-out wrong exp", []string{"-exp", "chaos", "-snap-out", "cki.snap"}, true},
		{"snap-out without exp", []string{"-snap-out", "cki.snap"}, true},
		{"interval wrong exp", []string{"-exp", "smp", "-json", "-checkpoint-interval", "4"}, true},
		{"nodes without fleet", []string{"-nodes", "8"}, true},
		{"nodes wrong exp", []string{"-exp", "smp", "-nodes", "8"}, true},
		{"nodes negative", []string{"-exp", "fleet", "-nodes", "-1"}, true},
		{"sched without fleet", []string{"-sched", "spread"}, true},
		{"sched unknown", []string{"-exp", "fleet", "-sched", "random"}, true},
		{"arrival-rate without fleet", []string{"-arrival-rate", "1000"}, true},
		{"arrival-rate wrong exp", []string{"-exp", "chaos", "-arrival-rate", "1000"}, true},
		{"arrival-rate negative", []string{"-exp", "fleet", "-arrival-rate", "-5"}, true},
		{"trace-file without fleet", []string{"-trace-file", "rates.trace"}, true},
		{"trace-file wrong exp", []string{"-exp", "snapshot", "-trace-file", "rates.trace"}, true},
		{"arrival-rate with trace-file", []string{"-exp", "fleet", "-arrival-rate", "1000", "-trace-file", "rates.trace"}, true},
		{"scrape-interval wrong exp", []string{"-exp", "smp", "-json", "-scrape-interval", "50us"}, true},
		{"scrape-interval without exp", []string{"-scrape-interval", "50us"}, true},
		{"scrape-interval unparseable", []string{"-exp", "slo", "-scrape-interval", "fast"}, true},
		{"scrape-interval zero", []string{"-exp", "slo", "-scrape-interval", "0"}, true},
		{"slo-out wrong exp", []string{"-exp", "chaos", "-slo-out", "tl"}, true},
		{"slo-out fleet without interval", []string{"-exp", "fleet", "-slo-out", "tl.ckits"}, true},
		{"bundle-out wrong exp", []string{"-exp", "fleet", "-scrape-interval", "50us", "-bundle-out", "bd"}, true},
		{"nodes slo negative", []string{"-exp", "slo", "-nodes", "-1"}, true},
		{"tail with sched", []string{"-exp", "tail", "-sched", "spread"}, true},
		{"tail with arrival-rate", []string{"-exp", "tail", "-arrival-rate", "1000"}, true},
		{"tail with trace-file", []string{"-exp", "tail", "-trace-file", "rates.trace"}, true},
		{"tail with scrape-interval", []string{"-exp", "tail", "-scrape-interval", "50us"}, true},
		{"tail with slo-out", []string{"-exp", "tail", "-slo-out", "tl"}, true},
		{"tail with snap-out", []string{"-exp", "tail", "-snap-out", "cki.snap"}, true},
		{"tail nodes negative", []string{"-exp", "tail", "-nodes", "-1"}, true},
		{"churn-rate without serverless", []string{"-churn-rate", "5000"}, true},
		{"churn-rate wrong exp", []string{"-exp", "fleet", "-churn-rate", "5000"}, true},
		{"churn-rate negative", []string{"-exp", "serverless", "-churn-rate", "-5"}, true},
		{"fork-mode without serverless", []string{"-fork-mode", "lazy"}, true},
		{"fork-mode wrong exp", []string{"-exp", "tail", "-fork-mode", "lazy"}, true},
		{"fork-mode unknown", []string{"-exp", "serverless", "-fork-mode", "warm"}, true},
		{"serverless with sched", []string{"-exp", "serverless", "-sched", "spread"}, true},
		{"serverless with arrival-rate", []string{"-exp", "serverless", "-arrival-rate", "1000"}, true},
		{"serverless with scrape-interval", []string{"-exp", "serverless", "-scrape-interval", "50us"}, true},
		{"serverless nodes negative", []string{"-exp", "serverless", "-nodes", "-1"}, true},
		{"nodes zero", []string{"-exp", "tail", "-nodes", "0"}, true},
		{"arrival-rate zero", []string{"-exp", "fleet", "-arrival-rate", "0"}, true},
		{"churn-rate zero", []string{"-exp", "serverless", "-churn-rate", "0"}, true},
		{"scale zero", []string{"-scale", "0"}, true},
		{"scale negative", []string{"-exp", "fleet", "-scale", "-3"}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("ckibench", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			_, err := parse(fs, tc.argv)
			if (err != nil) != tc.wantErr {
				t.Errorf("parse(%q) = %v, wantErr=%v", tc.argv, err, tc.wantErr)
			}
		})
	}
}

var binPath string

// TestMain builds the real binary once: exit codes are asserted
// against it directly, because `go run` collapses every failure to
// exit 1 and would mask usage errors (2) as runtime errors (1).
func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "ckibench-bin")
	if err != nil {
		panic(err)
	}
	binPath = filepath.Join(dir, "ckibench")
	if out, err := exec.Command("go", "build", "-o", binPath, ".").CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("go build: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// TestExitCodes pins the exit-code contract against the built binary:
// 2 for usage errors (parse failures, unknown experiments), 0 for the
// informational modes and the cheap runs.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		name string
		args []string
		code int
		want string
	}{
		{"list", []string{"-list"}, 0, "serverless"},
		{"unknown exp", []string{"-exp", "warpdrive"}, 2, "unknown experiment"},
		{"parallel zero", []string{"-parallel", "0", "-list"}, 2, "-parallel must be"},
		{"tail with sched", []string{"-exp", "tail", "-sched", "spread"}, 2, "-sched requires -exp fleet"},
		{"tail with scrape-interval", []string{"-exp", "tail", "-scrape-interval", "50us"}, 2, "-scrape-interval requires"},
		{"nodes wrong exp", []string{"-exp", "smp", "-nodes", "4"}, 2, "-nodes requires"},
		{"json wrong exp", []string{"-exp", "ext-pku", "-json"}, 2, "-json is only supported"},
		{"fork-mode wrong exp", []string{"-exp", "smp", "-fork-mode", "lazy"}, 2, "-fork-mode requires -exp serverless"},
		{"churn-rate negative", []string{"-exp", "serverless", "-churn-rate", "-5"}, 2, "-churn-rate must be"},
		{"nodes zero", []string{"-exp", "tail", "-nodes", "0"}, 2, "-nodes must be >= 1"},
		{"scale zero", []string{"-scale", "0", "-list"}, 2, "-scale must be >= 1"},
		{"fork-mode unknown", []string{"-exp", "serverless", "-fork-mode", "warm"}, 2, "-fork-mode must be"},
		{"sched unknown", []string{"-exp", "fleet", "-sched", "random"}, 2, "unknown scheduler"},
		{"arrival-rate with trace-file", []string{"-exp", "fleet", "-arrival-rate", "1000", "-trace-file", "r.trace"}, 2, "mutually exclusive"},
		{"scrape-interval wrong exp", []string{"-exp", "smp", "-scrape-interval", "50us"}, 2, "-scrape-interval requires -exp fleet or slo"},
		{"slo-out fleet without interval", []string{"-exp", "fleet", "-slo-out", "tl.ckits"}, 2, "explicit -scrape-interval"},
		{"bundle-out wrong exp", []string{"-exp", "fleet", "-scrape-interval", "50us", "-bundle-out", "bd"}, 2, "-bundle-out requires -exp slo"},
		// A flag set explicitly, even to its default, belongs to its owners.
		{"default-valued flag wrong exp", []string{"-exp", "smp", "-checkpoint-interval", "1"}, 2, "-checkpoint-interval requires -exp snapshot"},
		// Everything below is derived from the experiment registry.
		{"list wallclock", []string{"-list"}, 0, "wallclock"},
		{"help lists json experiments", []string{"-h"}, 0, "-exp chaos, smp, snapshot, fleet, slo, tail, serverless, or wallclock"},
		{"help names owners", []string{"-h"}, 0, "with -exp fleet, slo, tail, or serverless: simulated node count"},
		{"table header", []string{"-exp", "snapshot", "-parallel", "1"}, 0, "--- snapshot: Checkpoint/restore"},
		{"table header chaos parallel", []string{"-exp", "chaos", "-parallel", "2"}, 0, "--- chaos: Fault-injection"},
		{"baseline gate", []string{"-exp", "smp", "-baseline", "../../BENCH_smp.json"}, 0, "baseline gate: PASS"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, err := exec.Command(binPath, tc.args...).CombinedOutput()
			code := 0
			if err != nil {
				ee, ok := err.(*exec.ExitError)
				if !ok {
					t.Fatalf("ckibench %v: %v", tc.args, err)
				}
				code = ee.ExitCode()
			}
			if code != tc.code {
				t.Fatalf("exit = %d, want %d; output:\n%s", code, tc.code, out)
			}
			if !strings.Contains(string(out), tc.want) {
				t.Fatalf("output missing %q:\n%s", tc.want, out)
			}
		})
	}
}

// TestJSONIsTheArtifact: -json prints the report alone, with no table
// header, so its bytes are the committed artifact's.
func TestJSONIsTheArtifact(t *testing.T) {
	out, err := exec.Command(binPath, "-exp", "chaos", "-json").Output()
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../BENCH_chaos.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Fatalf("ckibench -exp chaos -json differs from BENCH_chaos.json:\n%s", out)
	}
}
