package main

import (
	"fmt"
	"sort"
	"time"
)

// Derivation of the per-layer metrics from the spans of a traced replay.
// Nothing here measures: it only subtracts, divides and takes percentiles
// of what the wrappers in trace.go recorded.

const (
	spanQuery      = "query"
	spanUserRPC    = "wire.user_rpc"
	spanMedHandler = "wire.mediator_handler"
	spanSched      = "sched"
	spanMediator   = "mediator"
	spanBatch      = "batch"
	spanNode       = "node"
	spanNodeRPC    = "wire.node_rpc"
	spanNodeHandle = "wire.node_handler"
	spanHaloFetch  = "node.halo_fetch"
)

// spanIndex is the span forest of a replay.
type spanIndex struct {
	spans    []span
	children map[int64][]*span
	roots    []*span
	byMember map[int64]*span // query id → the batch span that served it
}

func indexSpans(spans []span) *spanIndex {
	ix := &spanIndex{spans: spans, children: make(map[int64][]*span), byMember: make(map[int64]*span)}
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 {
			ix.roots = append(ix.roots, s)
		} else {
			ix.children[s.Parent] = append(ix.children[s.Parent], s)
		}
		for _, q := range s.Members {
			ix.byMember[q] = s
		}
	}
	return ix
}

// child returns the first child of s with one of the names.
func (ix *spanIndex) child(s *span, names ...string) *span {
	for _, c := range ix.children[s.ID] {
		for _, n := range names {
			if c.Name == n {
				return c
			}
		}
	}
	return nil
}

// covered is the length of the part of [lo,hi) the given spans cover.
func covered(lo, hi int64, spans []*span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, s := range spans {
		a, b := s.Start, s.End
		if a < lo {
			a = lo
		}
		if b > hi {
			b = hi
		}
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

func p(vs []float64, q float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return percentile(s, q)
}

func msOf(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// deriveSpanMetrics computes every span-derived per-layer metric. lanes
// holds the direct-call lane costs the scan identity needs.
func deriveSpanMetrics(spans []span, lanes map[string]float64) map[string]float64 {
	ix := indexSpans(spans)
	m := make(map[string]float64)
	queries := float64(len(ix.roots))
	if queries == 0 {
		return m
	}
	classOf := make(map[int64]string, len(ix.roots))
	kindOf := make(map[int64]opKind, len(ix.roots))
	for _, r := range ix.roots {
		classOf[r.Query] = r.Class
		kindOf[r.Query] = opKind(r.Counts["kind"])
	}

	var (
		userHop, ttfb, nodeHop, handlerSelf    []float64
		medSelf, fanWait, schedSelf, queueWait []float64
		skew, hit                              []float64
		cold                                   = make(map[string][]float64)
		userBytes, userPoints                  float64
		nodeBytes, nodePoints                  float64
		requests, haloNS, haloAtoms, atomsRead float64
		examined, medSelfNS, medPoints         float64
		coldNS, coldExamined, laneNS           float64
		ioNS, computeNS, updateNS, totalNS     float64
		vortNS, vortExamined                   float64
		schedThresholds, shared, saved         float64
		backendCalls, backendMembers           float64
	)
	ppa := lanes["points_per_atom"]

	for i := range ix.spans {
		s := &ix.spans[i]
		requests += float64(s.Counts["requests"])
		switch s.Name {
		case spanUserRPC:
			ttfb = append(ttfb, msOf(s.Counts["ttfb_ns"]))
			userBytes += float64(s.Counts["bytes"])
			if h := ix.child(s, spanMedHandler); h != nil {
				userHop = append(userHop, msOf(s.dur().Nanoseconds()-h.dur().Nanoseconds()))
			}

		case spanHaloFetch:
			haloNS += float64(s.dur())

		case spanNode, spanNodeRPC:
			// The node's own time: the call itself in process, the
			// service-side handler over HTTP.
			dur := s.dur().Nanoseconds()
			if s.Name == spanNodeRPC {
				h := ix.child(s, spanNodeHandle)
				if h == nil {
					continue
				}
				nodeHop = append(nodeHop, msOf(dur-h.dur().Nanoseconds()))
				dur = h.dur().Nanoseconds()
				if s.Counts["batch_members"] == 0 {
					handlerSelf = append(handlerSelf, msOf(dur-s.Counts["total_ns"]))
				}
				nodeBytes += float64(s.Counts["bytes"])
				nodePoints += float64(s.Counts["points"])
			}
			haloAtoms += float64(s.Counts["halo_atoms"])
			atomsRead += float64(s.Counts["atoms_read"])
			examined += float64(s.Counts["points_examined"])
			calls, cached := s.Counts["calls"], s.Counts["from_cache"]
			switch {
			case calls > 0 && cached == calls:
				if s.Counts["batch_members"] == 0 {
					hit = append(hit, msOf(dur))
				}
			case s.Counts["points_examined"] > 0:
				cl := classOf[s.Query]
				if kindOf[s.Query] == opThreshold {
					if s.Counts["batch_members"] == 0 {
						cold[cl] = append(cold[cl], msOf(dur))
					}
					pe := float64(s.Counts["points_examined"])
					coldNS += float64(dur)
					coldExamined += pe
					ioNS += float64(s.Counts["io_ns"])
					computeNS += float64(s.Counts["compute_ns"])
					updateNS += float64(s.Counts["cache_update_ns"])
					totalNS += float64(s.Counts["total_ns"])
					atoms := float64(s.Counts["atoms_read"] + s.Counts["halo_atoms"])
					order := "o4"
					if cl == "vorticity_o8" {
						order = "o8"
					}
					assembleNS := lanes["field.assemble_ns_per_point."+order]
					if cl == "velocity" {
						assembleNS = 0
					}
					laneNS += float64(s.Counts["atoms_read"])*lanes["store.read_ns_per_atom"] +
						atoms*ppa*lanes["field.decode_ns_per_point"] +
						pe*(assembleNS+lanes["derived.normrow_ns_per_point."+cl])
					if cl == "vorticity_o4" {
						vortNS += float64(dur)
						vortExamined += pe
					}
				}
			}

		case spanMediator, spanBatch:
			var calls []*span
			for _, c := range ix.children[s.ID] {
				if c.Name == spanNode || c.Name == spanNodeRPC {
					calls = append(calls, c)
				}
			}
			self := s.dur().Nanoseconds() - covered(s.Start, s.End, calls)
			medSelf = append(medSelf, msOf(self))
			medSelfNS += float64(self)
			medPoints += float64(s.Counts["points"])
			if len(calls) > 1 {
				var max, sum int64
				for _, c := range calls {
					d := c.dur().Nanoseconds()
					sum += d
					if d > max {
						max = d
					}
				}
				mean := float64(sum) / float64(len(calls))
				fanWait = append(fanWait, msOf(max)-mean/float64(time.Millisecond))
				skew = append(skew, ratio(float64(max), mean))
			}
			if kindOf[s.Query] == opThreshold {
				backendCalls++
				if s.Name == spanBatch {
					backendMembers += float64(s.Counts["batch_members"])
				} else {
					backendMembers++
				}
			}

		case spanSched:
			// The backend call that answered this query: a child of this
			// span, or — for a batch member that did not open the batch —
			// the batch span listing the query.
			backend := ix.child(s, spanMediator, spanBatch)
			if backend == nil {
				backend = ix.byMember[s.Query]
			}
			self := s.dur().Nanoseconds()
			if backend != nil {
				self -= covered(s.Start, s.End, []*span{backend})
			}
			schedSelf = append(schedSelf, msOf(self))
			if kindOf[s.Query] == opThreshold {
				queueWait = append(queueWait, msOf(s.Counts["queue_wait_ns"]))
				schedThresholds++
				shared += float64(s.Counts["shared_scan"])
				saved += float64(s.Counts["scans_saved"])
			}
		}
	}
	for _, r := range ix.roots {
		if ix.child(r, spanUserRPC) != nil {
			userPoints += float64(r.Counts["points"])
		}
	}

	for cl, vs := range cold {
		m["node.cold_ms_p50."+cl] = p(vs, 0.5)
	}
	m["node.hit_ms_p50"] = p(hit, 0.5)
	m["node.io_share"] = ratio(ioNS, totalNS)
	m["node.compute_share"] = ratio(computeNS, totalNS)
	m["node.cache_update_share"] = ratio(updateNS, totalNS)
	m["node.scan_ns_per_point"] = ratio(coldNS, coldExamined)
	m["node.scan_over_kernel.vorticity_o4"] = ratio(ratio(vortNS, vortExamined), lanes["derived.normrow_ns_per_point.vorticity_o4"])
	if coldNS > 0 {
		m["node.scan_unaccounted_ratio"] = 1 - laneNS/coldNS
	}
	m["node.halo_fetch_ms_per_query"] = haloNS / float64(time.Millisecond) / queries
	m["node.halo_atoms_per_query"] = haloAtoms / queries
	m["node.points_examined_per_query"] = examined / queries
	m["node.busy_skew"] = p(skew, 0.5)
	m["store.atoms_read_per_query"] = atomsRead / queries
	m["store.read_bytes_per_query"] = atomsRead / queries * lanes["store.blob_bytes"]
	m["wire.user_hop_ms_p50"] = p(userHop, 0.5)
	m["wire.node_hop_ms_p50"] = p(nodeHop, 0.5)
	m["wire.node_handler_self_ms_p50"] = p(handlerSelf, 0.5)
	m["wire.ttfb_ms_p50"] = p(ttfb, 0.5)
	m["wire.user_bytes_per_point"] = ratio(userBytes, userPoints)
	m["wire.node_bytes_per_point"] = ratio(nodeBytes, nodePoints)
	m["wire.requests_per_query"] = requests / queries
	m["mediator.self_ms_p50"] = p(medSelf, 0.5)
	m["mediator.self_ns_per_point"] = ratio(medSelfNS, medPoints)
	m["mediator.fanout_wait_ms_p50"] = p(fanWait, 0.5)
	m["sched.self_ms_p50"] = p(schedSelf, 0.5)
	m["sched.queue_wait_ms_p50"] = p(queueWait, 0.5)
	m["sched.queue_wait_ms_p95"] = p(queueWait, 0.95)
	m["sched.shared_scan_ratio"] = ratio(shared, schedThresholds)
	m["sched.scans_saved_per_query"] = ratio(saved, schedThresholds)
	if schedThresholds > 0 {
		m["sched.batch_size_mean"] = ratio(backendMembers, backendCalls)
	}
	return m
}

// checkSpanForest verifies the shape the span file promises: every span
// belongs to a query that has a root, and every non-root span names a
// parent that exists in the same query.
func checkSpanForest(spans []span) error {
	byID := make(map[int64]*span, len(spans))
	for i := range spans {
		byID[spans[i].ID] = &spans[i]
	}
	for i := range spans {
		s := &spans[i]
		if s.Parent == 0 {
			if s.Name != spanQuery || s.Query != s.ID {
				return errSpan(s, "is a root but not a query span")
			}
			continue
		}
		parent := byID[s.Parent]
		if parent == nil {
			return errSpan(s, "names a parent that was never recorded")
		}
		if parent.Query != s.Query {
			return errSpan(s, "belongs to another query than its parent")
		}
	}
	return nil
}

func errSpan(s *span, what string) error {
	return fmt.Errorf("bench: span %d (%s, query %d) %s", s.ID, s.Name, s.Query, what)
}
