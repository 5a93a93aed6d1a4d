package node

import (
	"context"
	"errors"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/turbdb/turbdb/internal/faulttol"
	"github.com/turbdb/turbdb/internal/membership"
	"github.com/turbdb/turbdb/internal/morton"
	"github.com/turbdb/turbdb/internal/sim"
)

// stubHolders is a HaloRouter fetch function over four holders: each
// answers every code it is asked for with its own id, unless down says it
// fails (a transient or a permanent error) or omits an atom.
type stubHolders struct {
	down  map[int]string // holder → "transient", "permanent" or "omit"
	delay time.Duration  // simulated time each fetch takes

	mu    sync.Mutex
	calls []int // holders asked, in order
}

func (s *stubHolders) fetch(_ context.Context, p *sim.Proc, holder int, _ string, _ int, codes []morton.Code) (map[morton.Code][]byte, error) {
	s.mu.Lock()
	s.calls = append(s.calls, holder)
	s.mu.Unlock()
	if p != nil {
		p.Delay(s.delay)
	}
	switch s.down[holder] {
	case "transient":
		return nil, faulttol.Transientf("holder %d down", holder)
	case "permanent":
		return nil, faulttol.Permanentf("holder %d refuses", holder)
	}
	out := make(map[morton.Code][]byte, len(codes))
	for _, c := range codes {
		out[c] = []byte{byte(holder)}
	}
	if s.down[holder] == "omit" {
		delete(out, codes[0])
	}
	return out, nil
}

// routerTable places 32 codes on nodes 0–3 at k = 3: range i is codes
// 8i…8i+7, held by i, then i+1 and i+2 in ring order.
func routerTable(t *testing.T) membership.Placement {
	t.Helper()
	pl, err := membership.Place(morton.Range{Lo: 0, Hi: 32}, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestHaloRouter(t *testing.T) {
	tableErr := faulttol.Transientf("peer 3: holdings unreadable")
	cases := []struct {
		name     string
		codes    []morton.Code
		down     map[int]string
		open     []int // holders whose breaker is open
		tableErr error
		want     map[morton.Code]int // code → holder that served it
		calls    []int
		errHas   []string // with want nil: the fetch fails with these
		errClass string   // "transient" or "permanent"
	}{
		{
			name:  "primary first, self never asked",
			codes: []morton.Code{0, 9, 17, 25},
			want:  map[morton.Code]int{0: 0, 9: 2, 17: 2, 25: 3},
			calls: []int{0, 2, 3},
		},
		{
			name:  "suspect primary after the alive replicas",
			codes: []morton.Code{0},
			open:  []int{0},
			want:  map[morton.Code]int{0: 2},
			calls: []int{2},
		},
		{
			name:  "transient failure moves to the next replica, skipping self",
			codes: []morton.Code{0, 1},
			down:  map[int]string{0: "transient"},
			want:  map[morton.Code]int{0: 2, 1: 2},
			calls: []int{0, 2},
		},
		{
			name:     "permanent error stops the fetch",
			codes:    []morton.Code{0},
			down:     map[int]string{0: "permanent"},
			calls:    []int{0},
			errHas:   []string{"peer 0", "holder 0 refuses"},
			errClass: "permanent",
		},
		{
			name:     "omitted atom is permanent",
			codes:    []morton.Code{0, 1},
			down:     map[int]string{0: "omit"},
			calls:    []int{0},
			errHas:   []string{"peer 0 omitted atom " + morton.Code(0).String()},
			errClass: "permanent",
		},
		{
			name:     "unheld atom is refused before any fetch",
			codes:    []morton.Code{0, 40},
			errHas:   []string{"atom " + morton.Code(40).String(), "owned by no peer"},
			errClass: "permanent",
		},
		{
			name:     "unheld atom carries the table's error",
			codes:    []morton.Code{0, 40},
			tableErr: tableErr,
			errHas:   []string{"atom " + morton.Code(40).String(), "unavailable on every replica peer", "holdings unreadable"},
			errClass: "transient",
		},
		{
			name:     "every holder down names the atom",
			codes:    []morton.Code{8, 1},
			down:     map[int]string{0: "transient", 2: "transient"},
			calls:    []int{0, 2, 2, 3},
			errHas:   []string{"atom " + morton.Code(1).String() + " unavailable on every replica peer", "holder 2 down"},
			errClass: "transient",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pl := routerTable(t)
			stub := &stubHolders{down: tc.down}
			r := &HaloRouter{
				Table: func(context.Context) (membership.Placement, error) {
					return pl, tc.tableErr
				},
				State: func(id int) faulttol.State {
					if slices.Contains(tc.open, id) {
						return faulttol.Open
					}
					return faulttol.Closed
				},
				Self:  1,
				Fetch: stub.fetch,
			}
			got, err := r.FetchAtoms(context.Background(), nil, "velocity", 0, tc.codes)
			if slices.Contains(stub.calls, r.Self) {
				t.Fatalf("self asked: calls %v", stub.calls)
			}
			if !slices.Equal(stub.calls, tc.calls) {
				t.Errorf("holders asked %v, want %v", stub.calls, tc.calls)
			}
			if tc.want == nil {
				if err == nil {
					t.Fatalf("fetch succeeded with %v", got)
				}
				for _, s := range tc.errHas {
					if !strings.Contains(err.Error(), s) {
						t.Errorf("err = %v, want it to contain %q", err, s)
					}
				}
				if transient := faulttol.Transient(err); transient != (tc.errClass == "transient") {
					t.Errorf("err %v: transient = %v, want %s", err, transient, tc.errClass)
				}
				if tc.tableErr != nil && !errors.Is(err, tc.tableErr) {
					t.Errorf("err %v does not wrap the table's error", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.want) {
				t.Errorf("got %d atoms, want %d", len(got), len(tc.want))
			}
			for c, h := range tc.want {
				if b := got[c]; len(b) != 1 || int(b[0]) != h {
					t.Errorf("atom %v served by %v, want holder %d", c, b, h)
				}
			}
		})
	}
}

// TestHaloRouterForksSimulatedGroups: under a kernel, the holders of one
// round are asked as concurrent child processes, so two groups of 10 ms
// each take 10 ms of virtual time, not 20 ms.
func TestHaloRouterForksSimulatedGroups(t *testing.T) {
	pl := routerTable(t)
	k := sim.New()
	stub := &stubHolders{delay: 10 * time.Millisecond}
	r := &HaloRouter{
		Table: func(context.Context) (membership.Placement, error) {
			return pl, nil
		},
		Self:   1,
		Fetch:  stub.fetch,
		Kernel: k,
	}
	var got map[morton.Code][]byte
	var err error
	k.Go("fetch", func(p *sim.Proc) {
		got, err = r.FetchAtoms(context.Background(), p, "velocity", 0, []morton.Code{0, 25})
	})
	if rerr := k.Run(); rerr != nil {
		t.Fatal(rerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || len(stub.calls) != 2 {
		t.Fatalf("got %d atoms from %v, want 2 from two holders", len(got), stub.calls)
	}
	if now := k.Now(); now != stub.delay {
		t.Errorf("virtual time %v, want %v: the two groups did not run concurrently", now, stub.delay)
	}
}
