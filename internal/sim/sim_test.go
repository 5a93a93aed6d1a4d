package sim

import (
	"testing"
	"time"
)

func TestSingleProcessDelay(t *testing.T) {
	k := New()
	var at time.Duration
	k.Go("p", func(p *Proc) {
		p.Delay(5 * time.Millisecond)
		at = k.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 5*time.Millisecond {
		t.Errorf("woke at %v, want 5ms", at)
	}
	if k.Now() != 5*time.Millisecond {
		t.Errorf("final clock %v", k.Now())
	}
}

func TestNegativeDelayClamped(t *testing.T) {
	k := New()
	k.Go("p", func(p *Proc) { p.Delay(-time.Second) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 0 {
		t.Errorf("clock advanced on negative delay: %v", k.Now())
	}
}

func TestProcessesInterleaveDeterministically(t *testing.T) {
	k := New()
	var order []string
	k.Go("a", func(p *Proc) {
		p.Delay(2 * time.Millisecond)
		order = append(order, "a2")
		p.Delay(2 * time.Millisecond)
		order = append(order, "a4")
	})
	k.Go("b", func(p *Proc) {
		p.Delay(3 * time.Millisecond)
		order = append(order, "b3")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a2", "b3", "a4"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEqualTimeFIFO(t *testing.T) {
	// Events at the same virtual instant fire in scheduling order.
	k := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Go("p", func(p *Proc) {
			p.Delay(time.Millisecond)
			order = append(order, i)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("order = %v", order)
		}
	}
}

func TestResourceSerializes(t *testing.T) {
	// capacity 1, three jobs of 10ms each → finish at 10, 20, 30ms.
	k := New()
	r := k.NewResource("disk", 1)
	var finish []time.Duration
	for i := 0; i < 3; i++ {
		k.Go("j", func(p *Proc) {
			p.Use(r, 10*time.Millisecond)
			finish = append(finish, k.Now())
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 30 * time.Millisecond}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
	if k.Now() != 30*time.Millisecond {
		t.Errorf("makespan %v, want 30ms", k.Now())
	}
}

func TestResourceParallelism(t *testing.T) {
	// capacity 2, four jobs of 10ms → makespan 20ms.
	k := New()
	r := k.NewResource("cpu", 2)
	for i := 0; i < 4; i++ {
		k.Go("j", func(p *Proc) { p.Use(r, 10*time.Millisecond) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 20*time.Millisecond {
		t.Errorf("makespan %v, want 20ms", k.Now())
	}
	// utilization: 4 jobs × 10ms busy = 40ms busy-time
	if bt := r.BusyTime(); bt != 40*time.Millisecond {
		t.Errorf("busy time %v, want 40ms", bt)
	}
}

func TestResourceFIFOOrder(t *testing.T) {
	k := New()
	r := k.NewResource("r", 1)
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		k.Go("j", func(p *Proc) {
			p.Use(r, time.Millisecond)
			order = append(order, i)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("not FIFO: %v", order)
		}
	}
}

func TestLatchJoin(t *testing.T) {
	k := New()
	var joined time.Duration
	k.Go("parent", func(p *Proc) {
		l := k.NewLatch(0)
		durs := []time.Duration{5 * time.Millisecond, 15 * time.Millisecond, 10 * time.Millisecond}
		for _, d := range durs {
			d := d
			l.Add(1)
			k.Go("child", func(c *Proc) {
				c.Delay(d)
				l.Done()
			})
		}
		p.Wait(l)
		joined = k.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if joined != 15*time.Millisecond {
		t.Errorf("joined at %v, want 15ms (slowest child)", joined)
	}
}

func TestLatchAlreadyZero(t *testing.T) {
	k := New()
	ok := false
	k.Go("p", func(p *Proc) {
		l := k.NewLatch(0)
		p.Wait(l) // must not block
		ok = true
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Error("Wait on zero latch blocked")
	}
}

func TestDeadlockDetected(t *testing.T) {
	k := New()
	r := k.NewResource("r", 1)
	k.Go("holder", func(p *Proc) {
		p.Acquire(r)
		// never releases
	})
	k.Go("waiter", func(p *Proc) {
		p.Acquire(r) // parks forever
		p.Release(r)
	})
	if err := k.Run(); err == nil {
		t.Fatal("deadlock not detected")
	}
}

func TestSpawnFromWithinProcess(t *testing.T) {
	k := New()
	var childRan bool
	k.Go("parent", func(p *Proc) {
		p.Delay(time.Millisecond)
		l := k.NewLatch(1)
		k.Go("child", func(c *Proc) {
			c.Delay(time.Millisecond)
			childRan = true
			l.Done()
		})
		p.Wait(l)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Error("child did not run")
	}
	if k.Now() != 2*time.Millisecond {
		t.Errorf("clock %v, want 2ms", k.Now())
	}
}

func TestRunIsRepeatable(t *testing.T) {
	k := New()
	k.Go("a", func(p *Proc) { p.Delay(time.Millisecond) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// second batch continues from current time
	k.Go("b", func(p *Proc) { p.Delay(time.Millisecond) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 2*time.Millisecond {
		t.Errorf("clock %v, want 2ms", k.Now())
	}
}

func TestMMC1QueueTheory(t *testing.T) {
	// Deterministic arrivals every 2ms, service 3ms, 2 servers: the system
	// is stable; job i starts no earlier than its arrival and the resource
	// is never more than fully busy. Sanity-check the busy integral:
	// 20 jobs × 3ms = 60ms busy time.
	k := New()
	r := k.NewResource("r", 2)
	for i := 0; i < 20; i++ {
		i := i
		k.Go("arrival", func(p *Proc) {
			p.Delay(time.Duration(i) * 2 * time.Millisecond)
			p.Use(r, 3*time.Millisecond)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if bt := r.BusyTime(); bt != 60*time.Millisecond {
		t.Errorf("busy time %v, want 60ms", bt)
	}
}

func BenchmarkKernelThroughput(b *testing.B) {
	k := New()
	r := k.NewResource("r", 4)
	for i := 0; i < b.N; i++ {
		k.Go("p", func(p *Proc) { p.Use(r, time.Microsecond) })
	}
	b.ResetTimer()
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

func TestQueueLenAndCapacity(t *testing.T) {
	k := New()
	r := k.NewResource("r", 2)
	if r.Capacity() != 2 || r.Name() != "r" {
		t.Errorf("capacity/name: %d %q", r.Capacity(), r.Name())
	}
	// capacity clamps to ≥ 1
	if k.NewResource("x", 0).Capacity() != 1 {
		t.Error("zero capacity not clamped")
	}
	var peakQueue int
	for i := 0; i < 5; i++ {
		k.Go("j", func(p *Proc) {
			p.Acquire(r)
			if q := r.QueueLen(); q > peakQueue {
				peakQueue = q
			}
			p.Delay(time.Millisecond)
			p.Release(r)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if peakQueue == 0 {
		t.Error("queue never formed with 5 jobs on 2 servers")
	}
	if r.QueueLen() != 0 {
		t.Error("queue not drained")
	}
}

func TestLatchNegativePanics(t *testing.T) {
	k := New()
	k.Go("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("negative latch did not panic")
			}
		}()
		l := k.NewLatch(0)
		l.Done()
	})
	_ = k.Run()
}

func TestReleaseIdlePanics(t *testing.T) {
	k := New()
	k.Go("p", func(p *Proc) {
		defer func() {
			if recover() == nil {
				t.Error("release of idle resource did not panic")
			}
		}()
		r := k.NewResource("r", 1)
		p.Release(r)
	})
	_ = k.Run()
}

func TestProcName(t *testing.T) {
	k := New()
	k.Go("worker-7", func(p *Proc) {
		if p.Name() != "worker-7" {
			t.Errorf("Name = %q", p.Name())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}
