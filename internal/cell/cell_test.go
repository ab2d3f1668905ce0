package cell

import (
	"testing"

	"raxmlcell/internal/sim"
)

func testMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := New(DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	p := DefaultParams()
	p.NumSPE = 0
	if _, err := New(p); err == nil {
		t.Error("0 SPEs accepted")
	}
	p = DefaultParams()
	p.ClockHz = 0
	if _, err := New(p); err == nil {
		t.Error("0 clock accepted")
	}
}

func TestDefaultParamsMatchPaper(t *testing.T) {
	p := DefaultParams()
	if p.NumSPE != 8 || p.PPEThreads != 2 {
		t.Errorf("core counts: %d SPEs, %d PPE threads", p.NumSPE, p.PPEThreads)
	}
	if p.LocalStoreBytes != 256*1024 {
		t.Errorf("local store = %d", p.LocalStoreBytes)
	}
	if p.DMAMaxBytes != 16*1024 {
		t.Errorf("DMA limit: %d bytes", p.DMAMaxBytes)
	}
	if p.MailboxEntries != 4 || p.EIBRings != 4 {
		t.Errorf("mailbox %d entries, EIB %d rings", p.MailboxEntries, p.EIBRings)
	}
	if p.ClockHz != 3.2e9 {
		t.Errorf("clock = %g", p.ClockHz)
	}
	// EIB aggregate: 4 rings x 24 B/cycle x 3.2 GHz = 96 B/cycle = 307 GB/s
	// raw; the paper quotes 204.8 GB/s sustained — our per-ring figure is
	// within the right order.
	if p.EIBBytesPerRing*float64(p.EIBRings) != 96 {
		t.Errorf("EIB bytes/cycle = %g", p.EIBBytesPerRing*float64(p.EIBRings))
	}
}

func TestSecondsCycles(t *testing.T) {
	m := testMachine(t)
	if got := m.Seconds(3_200_000_000); got != 1.0 {
		t.Errorf("Seconds(3.2e9) = %v", got)
	}
}

func TestLocalStoreAccounting(t *testing.T) {
	ls := NewLocalStore(256 * 1024)
	// The paper's code module: 117 KB, leaving 139 KB.
	if err := ls.Alloc("code", 117*1024); err != nil {
		t.Fatal(err)
	}
	if err := ls.Alloc("too-big", 139*1024+1); err == nil {
		t.Error("overflow allocation accepted")
	}
	if err := ls.Alloc("code", 1); err == nil {
		t.Error("duplicate segment accepted")
	}
	if err := ls.Alloc("zero", 0); err == nil {
		t.Error("zero-byte allocation accepted")
	}
	if err := ls.Alloc("buffers", 139*1024); err != nil {
		t.Fatalf("the 139 KB left refused: %v", err)
	}
	if err := ls.Alloc("one-more", 16); err == nil {
		t.Error("allocation in a full store accepted")
	}
}

func TestDMAValidation(t *testing.T) {
	m := testMachine(t)
	spe := m.SPEs[0]
	for _, size := range []int{1, 2, 4, 8, 16, 2048, 16384} {
		if _, err := spe.DMAAsync(size); err != nil {
			t.Errorf("legal size %d rejected: %v", size, err)
		}
	}
	for _, size := range []int{0, -4, 3, 5, 17, 100, 16 * 1024 * 2} {
		if _, err := spe.DMAAsync(size); err == nil {
			t.Errorf("illegal size %d accepted", size)
		}
	}
}

func TestDMATiming(t *testing.T) {
	m := testMachine(t)
	spe := m.SPEs[0]
	var elapsed sim.Time
	m.Eng.Spawn("dma", func(p *sim.Proc) {
		if err := spe.DMA(p, 2048); err != nil {
			t.Error(err)
		}
		elapsed = p.Now()
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := m.DMAStartup + sim.Time(2048/m.EIBBytesPerRing)
	if elapsed != want {
		t.Errorf("DMA of 2 KB took %d cycles, want %d", elapsed, want)
	}
	if m.DMARequests != 1 || m.DMABytes != 2048 {
		t.Errorf("stats: %d requests, %d bytes", m.DMARequests, m.DMABytes)
	}
}

func TestDMAAsyncOverlap(t *testing.T) {
	// Double buffering: issuing DMA before compute must overlap, so total
	// time is max(compute, dma), not the sum.
	m := testMachine(t)
	spe := m.SPEs[0]
	var syncT, asyncT sim.Time

	m2 := testMachine(t)
	m2.Eng.Spawn("sync", func(p *sim.Proc) {
		for i := 0; i < 10; i++ {
			if err := m2.SPEs[0].DMA(p, 2048); err != nil {
				t.Error(err)
			}
			m2.SPEs[0].Compute(p, 5000)
		}
		syncT = p.Now()
	})
	if err := m2.Eng.Run(); err != nil {
		t.Fatal(err)
	}

	m.Eng.Spawn("dbl", func(p *sim.Proc) {
		pending, err := spe.DMAAsync(2048)
		if err != nil {
			t.Error(err)
		}
		for i := 0; i < 10; i++ {
			spe.WaitDMA(p, pending)
			if i < 9 {
				pending, err = spe.DMAAsync(2048)
				if err != nil {
					t.Error(err)
				}
			}
			spe.Compute(p, 5000)
		}
		asyncT = p.Now()
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if asyncT >= syncT {
		t.Errorf("double buffering (%d) not faster than synchronous (%d)", asyncT, syncT)
	}
	// With 5000-cycle compute > ~1056-cycle DMA, all but the first transfer
	// hide completely.
	firstDMA := m.DMAStartup + sim.Time(2048/m.EIBBytesPerRing)
	want := firstDMA + 10*5000
	if asyncT != want {
		t.Errorf("overlapped time = %d, want %d", asyncT, want)
	}
}

func TestEIBContention(t *testing.T) {
	// More concurrent DMA streams than rings must serialize.
	m := testMachine(t)
	finish := make([]sim.Time, 8)
	for i := 0; i < 8; i++ {
		i := i
		spe := m.SPEs[i]
		m.Eng.Spawn("stream", func(p *sim.Proc) {
			if err := spe.DMA(p, 16384); err != nil {
				t.Error(err)
			}
			finish[i] = p.Now()
		})
	}
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	// 8 transfers over 4 rings: half finish one transfer-time later.
	early, late := 0, 0
	for _, f := range finish {
		if f == finish[0] {
			early++
		} else {
			late++
		}
	}
	if early != 4 || late != 4 {
		t.Errorf("finish times %v: want 4 early + 4 late", finish)
	}
}

func TestMailboxBlocking(t *testing.T) {
	m := testMachine(t)
	spe := m.SPEs[0]
	var received []int
	m.Eng.Spawn("ppe", func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			spe.Mailbox.Send(p, i) // blocks at 4 entries until SPE drains
			m.MailboxSends++
		}
	})
	m.Eng.Spawn("spe", func(p *sim.Proc) {
		for i := 0; i < 6; i++ {
			p.Advance(1000)
			v := spe.Mailbox.Recv(p).(int)
			received = append(received, v)
		}
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range received {
		if v != i {
			t.Fatalf("mailbox order broken: %v", received)
		}
	}
	if m.MailboxSends != 6 {
		t.Errorf("sends = %d", m.MailboxSends)
	}
}

func TestSPEUtilization(t *testing.T) {
	m := testMachine(t)
	spe := m.SPEs[3]
	m.Eng.Spawn("work", func(p *sim.Proc) {
		spe.Compute(p, 600)
		p.Advance(400) // idle
	})
	if err := m.Eng.Run(); err != nil {
		t.Fatal(err)
	}
	if u := spe.Utilization(); u != 0.6 {
		t.Errorf("utilization = %v, want 0.6", u)
	}
	if m.SPEs[0].Utilization() != 0 {
		t.Error("idle SPE shows utilization")
	}
}

func TestDefaultCostModelSanity(t *testing.T) {
	c := DefaultCostModel()
	if c.SPEExpLibm <= c.SPEExpSDK {
		t.Error("libm exp must cost more than SDK exp")
	}
	if c.SPECondScalar <= c.SPECondVector {
		t.Error("scalar conditional must cost more than vectorized")
	}
	if c.SPEFlopScalar <= c.SPEFlopVector {
		t.Error("scalar flop must cost more than vector flop")
	}
	if c.MailboxRoundTrip <= c.DirectRoundTrip {
		t.Error("mailbox must cost more than direct signalling")
	}
	if c.PPESMTFactor <= 1 {
		t.Error("SMT factor must exceed 1")
	}
	if c.LLPBarrier <= 0 || c.ContextSwitch <= 0 {
		t.Error("scheduler overheads must be positive")
	}
	if c.MemBytesPerCycle <= 0 || c.DMABatchStartup <= 0 {
		t.Error("memory model must be positive")
	}
}
