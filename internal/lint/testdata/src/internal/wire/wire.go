// Package wire mirrors the distributed-path layout (its import path ends in
// internal/wire) to exercise rule 2 of the ctxpropagate analyzer: exported
// functions that perform blocking I/O must accept a context.Context.
package wire

import (
	"context"
	"time"
)

func call(ctx context.Context, method string) error {
	_ = ctx
	_ = method
	return nil
}

// --- positive cases -------------------------------------------------------

func Flush() { // want `exported Flush performs blocking I/O \(time.Sleep\) but takes no context.Context`
	time.Sleep(time.Millisecond)
}

func Ping() error { // want `exported Ping performs blocking I/O \(call takes a ctx\) but takes no context.Context itself`
	return call(context.Background(), "ping")
}

func Drain(ch chan int) int { // want `exported Drain performs blocking I/O \(time.Sleep\) but takes no context.Context`
	time.Sleep(time.Microsecond)
	return len(ch)
}

// Routes hands out a closure that is given its own context: the closure
// must forward it, and Routes itself is not charged with the closure's I/O.
func Routes() func(context.Context) error {
	return func(ctx context.Context) error {
		_ = call(ctx, "ok")
		return call(context.Background(), "detached") // want `context.Background\(\)`
	}
}

// --- negative cases -------------------------------------------------------

// PingCtx accepts and forwards a context: the blocking call is bounded.
func PingCtx(ctx context.Context) error {
	return call(ctx, "ping")
}

// helper is unexported: internal plumbing may rely on its callers' bounds.
func helper() {
	time.Sleep(time.Microsecond)
}

// Version performs no I/O; pure functions need no context.
func Version() string {
	return "v2"
}
