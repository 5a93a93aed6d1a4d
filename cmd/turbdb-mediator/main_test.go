package main

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/turbdb/turbdb/internal/cluster"
	"github.com/turbdb/turbdb/internal/synth"
	"github.com/turbdb/turbdb/internal/wire"
)

// cancelOnWrite cancels the run's context at its first stdout line, the
// one printed just before the mediator listens: a run that gets that far
// drains at once.
type cancelOnWrite struct {
	bytes.Buffer
	cancel context.CancelFunc
}

func (w *cancelOnWrite) Write(p []byte) (int, error) {
	w.cancel()
	return w.Buffer.Write(p)
}

// TestRun runs the command as shipped against two k = 1 node services.
// Every bad command line or node set fails before the mediator listens;
// a good one serves and drains.
func TestRun(t *testing.T) {
	gen, err := synth.New(synth.Params{N: 16, Seed: 1, Steps: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, err := cluster.Build(gen, cluster.Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	var urls []string
	for _, n := range c.Nodes() {
		srv := httptest.NewServer(wire.NewNodeServer(n).Handler())
		t.Cleanup(srv.Close)
		urls = append(urls, srv.URL)
	}
	both := urls[0] + "," + urls[1]

	cases := []struct {
		name string
		args []string
		want string // a substring of the error; empty for a clean run
	}{
		{"no nodes", nil, "-nodes is required"},
		{"unknown flag", []string{"-nodes", both, "-bogus"}, "flag provided but not defined: -bogus"},
		{"repeated URL", []string{"-nodes", urls[0] + "," + urls[0]}, "ranges overlap"},
		{"node left out", []string{"-nodes", urls[0]}, "ranges end at atom"},
		{"replicas above the holders", []string{"-nodes", both, "-replicas", "2"}, "has 1 holders, need 2"},
		{"serves and drains", []string{"-nodes", both, "-addr", "127.0.0.1:0"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			stdout := &cancelOnWrite{cancel: cancel}
			var stderr bytes.Buffer
			err := run(ctx, tc.args, stdout, &stderr)
			switch {
			case tc.want == "" && err != nil:
				t.Fatalf("run: %v; stderr:\n%s", err, stderr.String())
			case tc.want == "":
				if !strings.Contains(stdout.String(), "mediator for isotropic (2 nodes") {
					t.Errorf("stdout = %q, want the serving line", stdout.String())
				}
				if !strings.Contains(stderr.String(), "drained cleanly") {
					t.Errorf("stderr = %q, want a clean drain", stderr.String())
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
