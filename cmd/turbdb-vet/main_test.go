package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestRun pins the driver's contract: exit codes and the -json report. Each
// case runs in a module of its own with one package, so the line numbers of
// its findings are those of the source below.
func TestRun(t *testing.T) {
	cases := []struct {
		name       string
		src        string // the package's one file; empty for none
		args       []string
		exit       int
		findings   []jsonFinding // check and line of each active finding
		suppressed []jsonFinding // check, line and reason of each suppressed one
	}{
		{
			name: "finding",
			src: `package p

func mayFail() error { return nil }

func drop() {
	mayFail()
}
`,
			args:     []string{"-json", "./..."},
			exit:     1,
			findings: []jsonFinding{{Check: "droppederr", Line: 6}},
		},
		{
			name: "clean",
			src: `package p

func mayFail() error { return nil }

func keep() error {
	return mayFail()
}
`,
			args: []string{"-json", "./..."},
			exit: 0,
		},
		{
			name: "suppressed",
			src: `package p

func mayFail() error { return nil }

func drop() {
	mayFail() //turbdb:ignore droppederr best-effort cleanup
}
`,
			args:       []string{"-json", "./..."},
			exit:       0,
			suppressed: []jsonFinding{{Check: "droppederr", Line: 6, Reason: "best-effort cleanup"}},
		},
		{
			name: "unknown check",
			args: []string{"-json", "-checks", "droppederr,nosuchcheck", "./..."},
			exit: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeFile(t, filepath.Join(dir, "go.mod"), "module example.com/p\n\ngo 1.24\n")
			if tc.src != "" {
				writeFile(t, filepath.Join(dir, "p.go"), tc.src)
			}
			t.Chdir(dir)

			var stdout, stderr bytes.Buffer
			if got := run(tc.args, &stdout, &stderr); got != tc.exit {
				t.Fatalf("exit = %d, want %d; stderr:\n%s", got, tc.exit, stderr.String())
			}
			if tc.exit == 2 {
				if stdout.Len() != 0 {
					t.Errorf("a bad flag wrote a report: %s", stdout.String())
				}
				return
			}
			var report jsonReport
			if err := json.Unmarshal(stdout.Bytes(), &report); err != nil {
				t.Fatalf("report is not JSON: %v\n%s", err, stdout.String())
			}
			if report.Findings == nil || report.Suppressed == nil || report.TypeErrors == nil {
				t.Errorf("report has a null list, want [] for none: %s", stdout.String())
			}
			if len(report.TypeErrors) != 0 {
				t.Errorf("type errors: %v", report.TypeErrors)
			}
			checkFindings(t, "findings", report.Findings, tc.findings)
			checkFindings(t, "suppressed", report.Suppressed, tc.suppressed)
		})
	}
}

func checkFindings(t *testing.T, what string, got, want []jsonFinding) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s = %+v, want %d", what, got, len(want))
	}
	for i, w := range want {
		g := got[i]
		// The file is relative to the directory the tool runs in, so two
		// checkouts of one commit write equal reports.
		if g.Check != w.Check || g.Line != w.Line || g.Reason != w.Reason || g.File != "p.go" {
			t.Errorf("%s[%d] = %+v, want check %s, p.go:%d (relative), reason %q", what, i, g, w.Check, w.Line, w.Reason)
		}
	}
}

func writeFile(t *testing.T, path, data string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
}
