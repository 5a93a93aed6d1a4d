package faulttol

import (
	"cmp"
	"slices"
)

// Group is one round's work for one holder: the keys routed to it, as
// indices into the holder lists passed to Failover, in input order.
type Group struct {
	Holder int
	Keys   []int
}

// Spent is a key whose holders ran out: its last holder and that holder's
// error, or -1 and nil when the key had no holder.
type Spent struct {
	Key, Holder int
	Err         error
}

// Failover serves keys 0..len(holders)-1, where holders[k] lists key k's
// holders in failover order, in rounds. Each round groups the pending keys
// by their current holder, holders ascending and keys in input order, and
// passes the groups to serve, which returns one error per group; groups are
// valid only during that call. The keys of a group that failed transiently
// move on to their next holder, each move counted in reroutes. The first
// non-transient error, in group order, ends the loop as err. Keys whose
// holders ran out come back in spent, in the order they ran out.
func Failover(holders [][]int, serve func(groups []Group) []error) (spent []Spent, reroutes int, err error) {
	at := make([]int, len(holders)) // key k's current holder is holders[k][at[k]]
	holder := func(k int) int { return holders[k][at[k]] }
	pending := make([]int, 0, len(holders))
	for k, hs := range holders {
		if len(hs) == 0 {
			spent = append(spent, Spent{Key: k, Holder: -1})
		} else {
			pending = append(pending, k)
		}
	}
	groups := make([]Group, 0, len(holders))
	for len(pending) > 0 {
		slices.SortFunc(pending, func(a, b int) int { return cmp.Or(cmp.Compare(holder(a), holder(b)), a-b) })
		groups = groups[:0]
		for i := 0; i < len(pending); {
			h, j := holder(pending[i]), i+1
			for j < len(pending) && holder(pending[j]) == h {
				j++
			}
			groups = append(groups, Group{Holder: h, Keys: pending[i:j:j]})
			i = j
		}
		errs := serve(groups)
		pending = pending[:0] // refilled in place: a key is written back only after it is read
		for g, grp := range groups {
			e := errs[g]
			if e == nil {
				continue
			}
			if !Transient(e) {
				return spent, reroutes, e
			}
			for _, k := range grp.Keys {
				if at[k]++; at[k] < len(holders[k]) {
					reroutes++
					pending = append(pending, k)
				} else {
					spent = append(spent, Spent{Key: k, Holder: grp.Holder, Err: e})
				}
			}
		}
	}
	return spent, reroutes, nil
}

// HealthOrder returns owners, a key's holders in placement order, in the
// order a failover tries them: Closed breakers before HalfOpen ones before
// Open ones, placement order within each. state reports a holder's breaker
// and is asked once per holder; a nil state keeps the placement order. The
// result is a new slice.
func HealthOrder(owners []int, state func(id int) State) []int {
	out := make([]int, 0, len(owners))
	if state == nil {
		return append(out, owners...)
	}
	var buf [8]State
	states := buf[:0]
	for _, id := range owners {
		states = append(states, state(id))
	}
	for _, want := range [...]State{Closed, HalfOpen, Open} {
		for i, s := range states {
			if s == want {
				out = append(out, owners[i])
			}
		}
	}
	return out
}
