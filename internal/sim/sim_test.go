package sim

import (
	"strings"
	"testing"
)

func TestAdvanceOrdering(t *testing.T) {
	e := NewEngine()
	var trace []string
	e.Spawn("a", func(p *Proc) {
		p.Advance(10)
		trace = append(trace, "a@10")
		p.Advance(20)
		trace = append(trace, "a@30")
	})
	e.Spawn("b", func(p *Proc) {
		p.Advance(15)
		trace = append(trace, "b@15")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a@10", "b@15", "a@30"}
	if len(trace) != len(want) {
		t.Fatalf("trace = %v", trace)
	}
	for i := range want {
		if trace[i] != want[i] {
			t.Fatalf("trace = %v, want %v", trace, want)
		}
	}
	if e.Now() != 30 {
		t.Errorf("final time = %d, want 30", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		e.Spawn("p", func(p *Proc) {
			p.Advance(7)
			order = append(order, i)
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events not FIFO: %v", order)
		}
	}
}

func TestCondSignal(t *testing.T) {
	e := NewEngine()
	var c Cond
	var got []string
	e.Spawn("waiter1", func(p *Proc) {
		c.Wait(p)
		got = append(got, "w1")
	})
	e.Spawn("waiter2", func(p *Proc) {
		c.Wait(p)
		got = append(got, "w2")
	})
	e.Spawn("signaller", func(p *Proc) {
		p.Advance(5)
		c.Signal()
		p.Advance(5)
		c.Signal()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "w1" || got[1] != "w2" {
		t.Errorf("wake order = %v", got)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	var c Cond
	e.Spawn("stuck", func(p *Proc) {
		c.Wait(p)
	})
	if err := e.Run(); err == nil {
		t.Error("deadlocked simulation returned nil error")
	}
}

func TestResource(t *testing.T) {
	e := NewEngine()
	r := NewResource(2)
	var maxConcurrent, cur int
	worker := func(p *Proc) {
		r.Acquire(p, 1)
		cur++
		if cur > maxConcurrent {
			maxConcurrent = cur
		}
		p.Advance(10)
		cur--
		r.Release(1)
	}
	for i := 0; i < 6; i++ {
		e.Spawn("w", worker)
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if maxConcurrent != 2 {
		t.Errorf("max concurrency = %d, want 2", maxConcurrent)
	}
	// 6 jobs, 2 at a time, 10 cycles each -> 30 cycles.
	if e.Now() != 30 {
		t.Errorf("makespan = %d, want 30", e.Now())
	}
	if r.InUse() != 0 {
		t.Errorf("%d units still in use", r.InUse())
	}
}

func TestResourcePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero-capacity resource accepted")
		}
	}()
	NewResource(0)
}

func TestQueueBlockingBehaviour(t *testing.T) {
	e := NewEngine()
	q := NewQueue(2)
	var recvTimes []Time
	var sendDone Time
	e.Spawn("producer", func(p *Proc) {
		for i := 0; i < 4; i++ {
			q.Send(p, i) // blocks after 2 until consumer drains
		}
		sendDone = p.Now()
	})
	e.Spawn("consumer", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Advance(10)
			v := q.Recv(p)
			if v.(int) != i {
				t.Errorf("recv %v, want %d", v, i)
			}
			recvTimes = append(recvTimes, p.Now())
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(recvTimes) != 4 {
		t.Fatalf("recvs = %v", recvTimes)
	}
	// Producer's 3rd send can only complete after the 1st recv at t=10.
	if sendDone < 10 {
		t.Errorf("producer finished at %d, expected to block until >= 10", sendDone)
	}
}

func TestServerSerializes(t *testing.T) {
	var s Server
	// Two back-to-back requests at t=0 of 100 cycles each.
	if got := s.Reserve(0, 100); got != 100 {
		t.Errorf("first completion = %d", got)
	}
	if got := s.Reserve(0, 100); got != 200 {
		t.Errorf("second completion = %d", got)
	}
	// A request after the server drained starts immediately.
	if got := s.Reserve(500, 100); got != 600 {
		t.Errorf("third completion = %d", got)
	}
}

func TestMultiServerParallelism(t *testing.T) {
	m := NewMultiServer(4)
	// Four simultaneous requests run in parallel; the fifth queues.
	for i := 0; i < 4; i++ {
		if got := m.Reserve(0, 100); got != 100 {
			t.Fatalf("request %d completes at %d, want 100", i, got)
		}
	}
	if got := m.Reserve(0, 100); got != 200 {
		t.Errorf("fifth request completes at %d, want 200", got)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	e := NewEngine()
	var childRan bool
	e.Spawn("parent", func(p *Proc) {
		p.Advance(10)
		e.Spawn("child", func(c *Proc) {
			c.Advance(5)
			childRan = true
		})
		p.Advance(1)
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Error("child spawned mid-run never executed")
	}
	if e.Now() != 15 {
		t.Errorf("final time = %d, want 15", e.Now())
	}
}

func TestYield(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Advance(0)
		order = append(order, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// a advances by 0 at t=0, which yields: b runs before a resumes.
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestPanicInProcessSurfacesAsError(t *testing.T) {
	e := NewEngine()
	e.Spawn("bomb", func(p *Proc) {
		p.Advance(10)
		panic("boom")
	})
	e.Spawn("bystander", func(p *Proc) {
		p.Advance(100)
	})
	err := e.Run()
	if err == nil {
		t.Fatal("panicking process did not surface an error")
	}
	if want := "boom"; !contains(err.Error(), want) {
		t.Errorf("error %q does not mention %q", err, want)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func TestDeterminism(t *testing.T) {
	run := func() []Time {
		e := NewEngine()
		r := NewResource(3)
		q := NewQueue(4)
		var times []Time
		for i := 0; i < 8; i++ {
			i := i
			e.Spawn("w", func(p *Proc) {
				r.Acquire(p, 1)
				p.Advance(Time(10 + i*3))
				q.Send(p, i)
				r.Release(1)
			})
		}
		e.Spawn("collector", func(p *Proc) {
			for i := 0; i < 8; i++ {
				q.Recv(p)
				times = append(times, p.Now())
			}
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return times
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic: %v vs %v", a, b)
		}
	}
}

// TestDeadlockNamesBlockedProcess: a process left waiting on a condition no
// one signals is a deadlock only once every other event has run, and the
// error names it and the time it was found at.
func TestDeadlockNamesBlockedProcess(t *testing.T) {
	e := NewEngine()
	var c Cond
	e.Spawn("spe-idle", func(p *Proc) {
		c.Wait(p)
	})
	e.Spawn("main", func(p *Proc) {
		p.Advance(100)
	})
	err := e.Run()
	if err == nil || !strings.Contains(err.Error(), `"spe-idle"`) || !strings.Contains(err.Error(), "t=100") {
		t.Errorf("Run = %v, want a deadlock of spe-idle at t=100", err)
	}
	if e.Now() != 100 {
		t.Errorf("time = %d, want 100: the deadlock cut the other process short", e.Now())
	}
}
