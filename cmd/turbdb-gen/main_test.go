package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/turbdb/turbdb/internal/store"
)

// TestRun runs the command as shipped. Every bad command line fails before
// anything is written; a good one writes a deployment that turbdb-server's
// loader opens.
func TestRun(t *testing.T) {
	cases := []struct {
		name  string
		noOut bool     // leave -out off the command line
		args  []string // after -out and a small grid
		want  string   // a substring of the error
	}{
		{"no -out", true, nil, "-out is required"},
		{"unknown kind", false, []string{"-kind", "channel"}, `unknown kind "channel"`},
		{"grid not a power of two", false, []string{"-grid", "24"}, "side 24 is not a positive power of two"},
		{"no nodes", false, []string{"-nodes", "0"}, "-nodes 0"},
		{"negative nodes", false, []string{"-nodes", "-1"}, "-nodes -1"},
		{"no steps", false, []string{"-steps", "0"}, "-steps 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "deploy")
			args := tc.args
			if !tc.noOut {
				args = append([]string{"-out", out, "-grid", "16", "-steps", "1"}, args...)
			}
			var stdout, stderr bytes.Buffer
			err := run(context.Background(), args, &stdout, &stderr)
			switch {
			case err == nil:
				t.Fatalf("run succeeded, want an error containing %q", tc.want)
			case !strings.Contains(err.Error(), tc.want):
				t.Errorf("run: %v, want an error containing %q", err, tc.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("a failed run wrote %q to stdout", stdout.String())
			}
			if _, err := os.Stat(out); !os.IsNotExist(err) {
				t.Errorf("a failed run left %s behind (stat: %v)", out, err)
			}
		})
	}

	t.Run("writes a deployment", func(t *testing.T) {
		out := filepath.Join(t.TempDir(), "deploy")
		var stdout, stderr bytes.Buffer
		args := []string{"-out", out, "-kind", "isotropic", "-grid", "16", "-nodes", "2", "-steps", "1"}
		if err := run(context.Background(), args, &stdout, &stderr); err != nil {
			t.Fatalf("run: %v; stderr:\n%s", err, stderr.String())
		}
		if !strings.Contains(stdout.String(), "wrote "+out) {
			t.Errorf("stdout = %q, want the summary line", stdout.String())
		}
		m, err := store.ReadManifest(out)
		if err != nil {
			t.Fatal(err)
		}
		if len(m.Shards) != 2 || m.GridN != 16 || m.Steps != 1 || m.Dataset != "isotropic" {
			t.Fatalf("manifest %+v, want 2 shards of a 16³ isotropic step", m)
		}
		var atoms int
		for i := range m.Shards {
			s, err := store.OpenShard(out, m, i)
			if err != nil {
				t.Fatalf("shard %d: %v", i, err)
			}
			n := s.CountAtoms(m.Fields[0].Name, 0)
			if want := int(s.Owned().CellCount()); n != want {
				t.Errorf("shard %d holds %d atoms of %q, want its %d", i, n, m.Fields[0].Name, want)
			}
			atoms += n
		}
		if g, err := m.Grid(); err != nil || uint64(atoms) != g.AtomRange().CellCount() {
			t.Errorf("the shards hold %d atoms, want the grid's (grid err %v)", atoms, err)
		}
	})
}
