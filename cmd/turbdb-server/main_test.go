package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"github.com/turbdb/turbdb/internal/grid"
	"github.com/turbdb/turbdb/internal/store"
)

// TestRun runs the command as shipped. Every bad command line or
// deployment fails before the node listens; the context is cancelled up
// front, so a run that got as far as listening would drain at once and
// return nil instead of the expected error.
func TestRun(t *testing.T) {
	deploy := t.TempDir()
	g, err := grid.New(16, grid.DefaultAtomSide, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := store.Manifest{Dataset: "isotropic", GridN: g.N, AtomSide: g.AtomSide, Dx: g.Dx, Steps: 1}
	for _, r := range g.AtomRange().Split(2, 1) {
		m.Shards = append(m.Shards, [2]uint64{uint64(r.Lo), uint64(r.Hi)})
	}
	if err := store.WriteManifest(deploy, m); err != nil {
		t.Fatal(err)
	}
	empty := t.TempDir()

	cases := []struct {
		name string
		args []string
		want string // a substring of the error; empty for a clean run
	}{
		{"no data", nil, "-data is required"},
		{"removed partial-halo flag", []string{"-data", deploy, "-allow-partial-halo"}, "allow-partial-halo"},
		{"replica entry not a number", []string{"-data", deploy, "-replica-shards", "x"}, `bad -replica-shards entry "x"`},
		{"replica index past the shards", []string{"-data", deploy, "-replica-shards", "2"}, "index 2 out of range"},
		{"no manifest", []string{"-data", empty}, filepath.Join(empty, store.ManifestName)},
		{"serves and drains", []string{"-data", deploy, "-replica-shards", "1", "-addr", "127.0.0.1:0"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			cancel()
			var stdout, stderr bytes.Buffer
			err := run(ctx, tc.args, &stdout, &stderr)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("run: %v; stderr:\n%s", err, stderr.String())
			case tc.want == "":
				if !strings.Contains(stdout.String(), "serving isotropic") {
					t.Errorf("stdout = %q, want the serving line", stdout.String())
				}
			case err == nil:
				t.Fatalf("run succeeded, want an error containing %q", tc.want)
			case !strings.Contains(err.Error(), tc.want):
				t.Errorf("run: %v, want an error containing %q", err, tc.want)
			case stdout.Len() != 0:
				t.Errorf("a failed run wrote %q, want nothing before listening", stdout.String())
			}
		})
	}
}
