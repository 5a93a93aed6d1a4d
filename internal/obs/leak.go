package obs

import (
	"runtime"
	"strings"
	"time"
)

// TB is the subset of testing.TB the leak checker needs; taking an interface
// keeps the testing package (and its flag registration) out of production
// binaries that import obs.
type TB interface {
	Helper()
	Errorf(format string, args ...interface{})
}

// leakIgnore marks goroutines the runtime and test harness own; a stack dump
// containing any of these substrings is never reported as a leak.
var leakIgnore = []string{
	"testing.(*T).Run", // parent test goroutines parked on subtests
	"testing.(*M).",    // the test main goroutine and its alarms
	"testing.runTests",
	"testing.tRunner.func",  // tRunner cleanup watchers
	"os/signal.signal_recv", // the runtime's signal-delivery goroutine
	"os/signal.loop",
	"runtime/pprof.", // active profile collection
	"runtime.ReadTrace",
	"created by runtime", // GC background workers et al.
}

// VerifyNoLeaks asserts that no goroutines beyond the caller's own and the
// runtime's survive at the time of the call — the post-drain contract of
// RunDaemon and every other joined lifecycle. Goroutines legitimately take a
// moment to unwind after a Wait returns, so the check polls with a grace
// period before reporting; on failure it prints each stray goroutine's full
// stack. Use it at the end of a test, after every shutdown path has been
// joined:
//
//	defer obs.VerifyNoLeaks(t)
func VerifyNoLeaks(t TB) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	var stray []string
	for {
		stray = strayGoroutines()
		if len(stray) == 0 {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("obs: %d stray goroutine(s) still running:\n\n%s", len(stray), strings.Join(stray, "\n\n"))
}

// strayGoroutines dumps all goroutine stacks and returns those that are
// neither the calling goroutine nor recognized runtime/test infrastructure.
func strayGoroutines() []string {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	for n == len(buf) {
		buf = make([]byte, 2*len(buf))
		n = runtime.Stack(buf, true)
	}
	dumps := strings.Split(string(buf[:n]), "\n\n")
	var stray []string
	for i, d := range dumps {
		if i == 0 {
			continue // runtime.Stack lists the calling goroutine first
		}
		if isInfraGoroutine(d) {
			continue
		}
		stray = append(stray, strings.TrimSpace(d))
	}
	return stray
}

func isInfraGoroutine(dump string) bool {
	for _, pat := range leakIgnore {
		if strings.Contains(dump, pat) {
			return true
		}
	}
	return false
}
