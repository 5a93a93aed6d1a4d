package faultinject

// Membership-aware fault actions: the node-level failure scenarios the
// replicated cluster must absorb. A NodeClient wraps one node's client so
// a plan can kill, flap or temporarily down it; the rule constructors
// below name the scenarios the failover chaos suites run. All scheduling
// is per-call and counted under the plan's seeded source, so a scenario
// replays identically for a given seed.

import (
	"context"
	"fmt"

	"github.com/turbdb/turbdb/internal/mediator"
	"github.com/turbdb/turbdb/internal/node"
	"github.com/turbdb/turbdb/internal/query"
	"github.com/turbdb/turbdb/internal/sim"
)

// NodeClient is a fault-injecting mediator.NodeClient. Query calls are
// registered with the plan under keys "node<id>/threshold", "node<id>/pdf"
// and "node<id>/topk"; management calls (DropCacheEntry, SetProcesses,
// Describe) pass through untouched so cluster assembly never trips a rule.
type NodeClient struct {
	mediator.NodeClient
	plan *Plan
	id   int
}

// WrapNode wraps a node client with the plan's fault rules.
func WrapNode(next mediator.NodeClient, plan *Plan, id int) *NodeClient {
	return &NodeClient{NodeClient: next, plan: plan, id: id}
}

// apply registers one query call and enacts the first matching rule. A
// query has no byte stream to truncate, so every error-like mode
// (ModeError, ModePartial, ModeStatus) fails the call with the injected
// error; ModeDelay stalls it and ModeHang parks it on the context.
func (c *NodeClient) apply(ctx context.Context, op string) error {
	key := fmt.Sprintf("node%d/%s", c.id, op)
	r, call := c.plan.evaluate(key)
	if r == nil {
		return nil
	}
	switch r.Mode {
	case ModeDelay:
		return sleepCtx(ctx, r.Delay)
	case ModeHang:
		<-ctx.Done()
		return ctx.Err()
	default:
		return r.injectedErr(key, call)
	}
}

// GetThreshold implements mediator.NodeClient.
func (c *NodeClient) GetThreshold(ctx context.Context, p *sim.Proc, q query.Threshold) (*node.ThresholdResult, error) {
	if err := c.apply(ctx, "threshold"); err != nil {
		return nil, err
	}
	return c.NodeClient.GetThreshold(ctx, p, q)
}

// GetThresholdBatch implements mediator.NodeClient: a shared-scan batch
// counts as one "threshold" call against the plan, so kill/flap rules hit
// batches and solo queries alike.
func (c *NodeClient) GetThresholdBatch(ctx context.Context, p *sim.Proc, qs []query.Threshold) (*node.ThresholdBatchResult, error) {
	if err := c.apply(ctx, "threshold"); err != nil {
		return nil, err
	}
	return c.NodeClient.GetThresholdBatch(ctx, p, qs)
}

// GetPDF implements mediator.NodeClient.
func (c *NodeClient) GetPDF(ctx context.Context, p *sim.Proc, q query.PDF) (*node.PDFResult, error) {
	if err := c.apply(ctx, "pdf"); err != nil {
		return nil, err
	}
	return c.NodeClient.GetPDF(ctx, p, q)
}

// GetTopK implements mediator.NodeClient.
func (c *NodeClient) GetTopK(ctx context.Context, p *sim.Proc, q query.TopK) (*node.TopKResult, error) {
	if err := c.apply(ctx, "topk"); err != nil {
		return nil, err
	}
	return c.NodeClient.GetTopK(ctx, p, q)
}

// nodeKey is the rule match for every query op of one node.
func nodeKey(id int) string { return fmt.Sprintf("node%d/", id) }

// KillPrimary downs node id for good once `after` of its query calls have
// completed — the kill-the-primary-mid-workload scenario. The mediator
// must re-route the node's ranges to replicas and keep Coverage == 1.
func KillPrimary(id, after int) *Rule {
	return &Rule{Match: nodeKey(id), After: after}
}

// Flap fails each of node id's query calls with probability prob from the
// plan's seeded source — a flaky link or an overloaded node. The same
// seed replays the same up/down sequence.
func Flap(id int, prob float64) *Rule {
	return &Rule{Match: nodeKey(id), Prob: prob}
}

// DelayedRejoin downs node id for its next `down` query calls and then
// lets it serve again — a crash with a slow restart. Routing should fail
// over while it is gone and may use it again once it is back.
func DelayedRejoin(id, down int) *Rule {
	return &Rule{Match: nodeKey(id), Count: down}
}
